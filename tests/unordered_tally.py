"""The unordered-tree tally the oracle used to run, kept as the reference
that ``hooktrees.treeoracle.tally._grouped_sizes`` is held against
(``tests/test_treeoracle.py``).

``grouped_sizes(n)`` visits each unordered rooted tree of every size up
to n once and credits its signature with the number of ordered trees it
stands for: the product over vertices of ``j! / prod(mult!)``, where
``j`` is the out-degree and the multiplicities count isomorphic child
subtrees (Beyer and Hedetniemi, "Constant time generation of rooted
trees", SIAM J. Comput. 9(4), 1980).  It shares no code with the
package's pass, which builds ordered forests from signature classes.
This module is imported by the tests and is not collected by pytest.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb


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
