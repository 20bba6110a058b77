"""The references that the signature tally is tested against.

Two oracles, neither sharing code with the package's tally
(``hooktrees.treeoracle.tally``):

* the literal one: ``enumerate_trees`` streams every ordered tree of a
  size once, and ``tree_weight_deg`` and ``tree_weight_hook`` weigh one
  tree by the definitions, a product over its vertices of ``phi_{d(v)}``
  and of ``rho(h_v)``;
* ``grouped_sizes``, the unordered-tree walk the tally used to run: it
  visits each unordered rooted tree of every size up to n once and
  credits its signature with the number of ordered trees it stands for,
  the product over vertices of ``j! / prod(mult!)``, where ``j`` is the
  out-degree and the multiplicities count isomorphic child subtrees
  (Beyer and Hedetniemi, "Constant time generation of rooted trees",
  SIAM J. Comput. 9(4), 1980).

This module is imported by the tests and is not collected by pytest.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import comb

from hooktrees.errors import HookTreesError
from hooktrees.treeoracle import OrderedTree, hook_lengths

LEAF = OrderedTree()


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` positive integers summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_trees(n: int) -> Iterator[OrderedTree]:
    """Stream every ordered tree with exactly ``n`` vertices, once each.

    Recursion over the root degree j and the compositions of ``n-1``
    into j positive subtree sizes; no memoization, no materialized
    lists.  Deterministic order: j ascending, compositions lexicographic.
    """
    if n < 1:
        raise ValueError("trees have at least one vertex")
    if n == 1:
        yield LEAF
        return
    for j in range(1, n):
        for sizes in compositions(n - 1, j):
            for forest in _forests(sizes):
                yield OrderedTree(forest)


def _forests(sizes: tuple[int, ...]) -> Iterator[tuple[OrderedTree, ...]]:
    if not sizes:
        yield ()
        return
    for first in enumerate_trees(sizes[0]):
        for rest in _forests(sizes[1:]):
            yield (first, *rest)


def tree_weight_hook(tree: OrderedTree, rho: "HookWeightFunction") -> Fraction:
    """Product of ``rho(h_v)`` over all vertices."""
    if rho.size < tree.size:
        raise HookTreesError(
            f"tree has hook lengths up to {tree.size} but rho covers 1..{rho.size}"
        )
    total = Fraction(1)
    for h in hook_lengths(tree):
        total *= rho(h)
    return total


def tree_weight_deg(family: "DegreeWeightFamily", tree: OrderedTree) -> Fraction:
    """Product of ``phi_{d(v)}`` over all vertices of ``tree``."""
    total = family.weight_of_degree(len(tree.children))
    for child in tree.children:
        total *= tree_weight_deg(family, child)
    return total


def grouped_sizes(n: int) -> Iterator[tuple[int, dict[bytes, dict[bytes, int]]]]:
    """Yield ``(m, {degree bytes: {hook bytes: count}})`` for m = 1..n.

    Degree bytes count out-degrees ``0..m-1`` and hook bytes count hook
    lengths ``1..m``; the counts of one size sum to Catalan(m-1).
    """
    # While the tally runs, a signature is one int: the count of out-degree
    # d sits at bit 16*d and the count of hook length h at bit 16*h - 8, so
    # adding two ints adds their histograms (counts stay below 256) and a
    # tree of size m needs about 16*m bits.  Every unordered tree of size
    # below n is kept, in order of size, as (size, signature, embeddings)
    # across three lists; upto[s] is how many of them have size <= s.
    sizes: list[int] = []
    sigs: list[int] = []
    embs: list[int] = []
    upto = [0]

    def grow(left: int, top: int, sig: int, emb: int, j: int) -> None:
        # Children are taken in decreasing index below ``top``, k copies at
        # a time, so every multiset of subtrees comes up once.
        # comb(j + k, k) builds j! / prod(mult!) one step at a time.
        if left == 0:
            sig += (1 << 16 * j) + root_hook
            if m < n:
                sizes.append(m)
                sigs.append(sig)
                embs.append(emb)
            fields = sig.to_bytes(2 * m, "little")
            degrees = fields[0::2]
            row = groups.get(degrees)
            if row is None:
                row = groups[degrees] = {}
            hooks = fields[1::2]
            row[hooks] = row.get(hooks, 0) + emb
            return
        for i in range(min(top, upto[left]) - 1, -1, -1):
            size, child_sig, child_emb = sizes[i], sigs[i], embs[i]
            k = 1
            while k * size <= left:
                grow(left - k * size, i, sig + k * child_sig,
                     emb * comb(j + k, k) * child_emb**k, j + k)
                k += 1

    for m in range(1, n + 1):
        root_hook = 1 << (16 * m - 8)
        groups: dict[bytes, dict[bytes, int]] = {}
        grow(m - 1, len(sizes), 0, 1, 0)
        upto.append(len(sizes))
        if m == n:  # nothing larger grows from these trees: free them first
            del sizes[:], sigs[:], embs[:]
        yield m, groups
    # grow reaches itself through its closure; breaking that cycle frees the
    # closure on return instead of at the next full garbage collection.
    del grow
