"""The fast oracle: ordered trees tallied by signature, weighed block by block.

A tree's signature is its out-degree histogram together with its
hook-length histogram.  Neither changes when children are reordered, so
the tally visits each unordered rooted tree once and credits its
signature with the number of ordered trees it stands for: the product
over vertices of ``j! / prod(mult!)``, where ``j`` is the out-degree and
the multiplicities count isomorphic child subtrees (the orbit-stabilizer
count of child orderings; Beyer and Hedetniemi, "Constant time generation
of rooted trees", SIAM J. Comput. 9(4), 1980).

One pass to size n finishes every smaller size on the way, and tallies
each size it finishes, grouped as ``{degree histogram: {hook histogram:
count}}``.  A weighted sum reads an index of that tally which lists every
distinct block once: each degree histogram, and each hook histogram
split at ``k = n // 3`` into a low block (hooks 1..k) and a high block
(hooks k+1..n).  Far fewer blocks than signatures occur (at n = 13, 320
low and 267 high blocks against 9,288 signatures), so the weights are
multiplied out once per block; a hook histogram then costs one product
of its two blocks and a signature one multiply-add, run in C by ``map``
and ``sum``.

``enumerate_trees`` in ``trees`` is the literal oracle that the tests
hold this one against.  Like it, this module shares nothing with the
series half.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import comb, prod
from operator import getitem, mul

from ..errors import RhoRangeExceeded, SizeLimitExceeded

__all__ = ["TALLY_LIMIT", "backend_name", "signature_counts", "weighted_sum"]

# One pass to size 16 (235,381 unordered trees, 9.7 million ordered) takes
# about 0.39 s on one Xeon core, and a first weighted_sum(16) in a fresh
# process, which indexes every size up to 16, about 0.44 s and 49 MB peak
# RSS; each size up costs about 2.7 times more.
TALLY_LIMIT = 16


def backend_name() -> str:
    """The tally method, as one token; kept for tools that record it."""
    return "unordered-embeddings"


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"trees have at least one vertex, got size {n}")
    if n > TALLY_LIMIT:
        raise SizeLimitExceeded(
            f"the signature tally is limited to {TALLY_LIMIT} vertices, got {n}"
        )


def _grouped_sizes(n: int) -> Iterator[tuple[int, dict[bytes, dict[bytes, int]]]]:
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


def signature_counts(n: int) -> dict[bytes, int]:
    """Tally the ordered trees of size n by signature.

    The key packs two histograms as ``2n`` bytes: counts of out-degrees
    ``0..n-1`` followed by counts of hook lengths ``1..n``.  The value is
    the number of ordered trees showing exactly those statistics; values
    sum to the Catalan number C(n-1).  Every call runs a new pass and
    builds a new dict.
    """
    _check_size(n)
    for _, groups in _grouped_sizes(n):
        pass
    return {
        degrees + hooks: count
        for degrees, row in groups.items()
        for hooks, count in row.items()
    }


class _SizeIndex:
    """The tally of one size, with every distinct block listed once.

    ``rows`` holds one ``(degree bytes, js, counts)`` per degree histogram:
    the indices of its hook histograms and their counts.  Hook histogram
    j is ``low[lo[j]] + high[hi[j]]``, split after ``split = n // 3`` hooks.
    """

    __slots__ = ("rows", "split", "low", "high", "lo", "hi")

    def __init__(self, n: int, groups: dict[bytes, dict[bytes, int]]) -> None:
        hook_ids: dict[bytes, int] = {}
        self.rows = tuple(
            (
                degrees,
                tuple(hook_ids.setdefault(hooks, len(hook_ids)) for hooks in row),
                tuple(row.values()),
            )
            for degrees, row in groups.items()
        )
        # At n = 12, 13 and 16, summing without a split (k = 0) was 3 to 4
        # times slower; splits from n // 4 to n // 2 came within about a
        # third of each other, and n // 3 sits between them.
        self.split = k = n // 3
        low_ids: dict[bytes, int] = {}
        high_ids: dict[bytes, int] = {}
        self.lo = tuple(low_ids.setdefault(h[:k], len(low_ids)) for h in hook_ids)
        self.hi = tuple(high_ids.setdefault(h[k:], len(high_ids)) for h in hook_ids)
        self.low = tuple(low_ids)
        self.high = tuple(high_ids)


# Indexed tallies by size, filled by one pass for every size up to the one
# asked for.  Only ``weighted_sum`` reads them, and nothing writes to an
# index once it is built.
_indexed: dict[int, _SizeIndex] = {}


def weighted_sum(
    n: int, family: "DegreeWeightFamily", rho: "HookWeightFunction"
) -> Fraction:
    """Sum of ``w_deg(T) * w_hook(T)`` over every ordered tree of size n.

    Trees are grouped by signature (see :func:`signature_counts`), and
    each distinct degree histogram, low hook block and high hook block is
    weighed once.  Every weight is put over one common denominator, the
    terms are summed as Python ints, and one Fraction is built at the
    end.  The first call for a size tallies every size up to it, so
    asking for the largest size first tallies once.
    """
    _check_size(n)
    if rho.size < n:
        raise RhoRangeExceeded(
            f"trees of size {n} have hooks up to {n} but rho covers 1..{rho.size}"
        )
    if n not in _indexed:
        for m, groups in _grouped_sizes(n):
            _indexed[m] = _SizeIndex(m, groups)
    index = _indexed[n]
    weights = [family.weight_of_degree(k) for k in range(n)]
    weights += [rho(h) for h in range(1, n + 1)]
    # Table f weighs out-degree d = f, or hook length h = f - n + 1.  A
    # size-n tree has at most n // d vertices of out-degree d >= 1 (the
    # degrees sum to n - 1) and at most n // h of hook h (their subtrees
    # are disjoint), so p/q raised to c is p^c * q^(top - c) over q^top.
    tables = []
    denominator = 1
    for f, w in enumerate(weights):
        top = n // max(f if f < n else f - n + 1, 1)
        p, q = w.numerator, w.denominator
        tables.append([p**c * q ** (top - c) for c in range(top + 1)])
        denominator *= q**top
    k = index.split
    degree_tables, low_tables, high_tables = tables[:n], tables[n:n + k], tables[n + k:]
    low = [prod(map(getitem, low_tables, block)) for block in index.low]
    high = [prod(map(getitem, high_tables, block)) for block in index.high]
    by_hooks = list(map(mul, map(low.__getitem__, index.lo), map(high.__getitem__, index.hi)))
    total = 0
    for degrees, js, counts in index.rows:
        total += prod(map(getitem, degree_tables, degrees)) * sum(
            map(mul, counts, map(by_hooks.__getitem__, js))
        )
    return Fraction(total, denominator)
