"""The fast oracle: ordered trees tallied by signature, one unordered tree at a time.

A tree's signature is its out-degree histogram together with its
hook-length histogram.  Neither changes when children are reordered, so
the tally visits each unordered rooted tree once and credits its
signature with the number of ordered trees it stands for: the product
over vertices of ``j! / prod(mult!)``, where ``j`` is the out-degree and
the multiplicities count isomorphic child subtrees (the orbit-stabilizer
count of child orderings; Beyer and Hedetniemi, "Constant time generation
of rooted trees", SIAM J. Comput. 9(4), 1980).

``enumerate_trees`` in ``trees`` is the literal oracle that the tests
hold this one against.  Like it, this module shares nothing with the
series half.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from ..errors import RhoRangeExceeded, SizeLimitExceeded

__all__ = ["TALLY_LIMIT", "backend_name", "signature_counts", "weighted_sum"]

# Size 16 (235,381 unordered trees, 9.7 million ordered) takes about 0.75 s
# and 42 MB on one 2.0 GHz Xeon core; each size up costs about 2.7 times more.
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


def signature_counts(n: int) -> dict[bytes, int]:
    """Tally the ordered trees of size n by signature.

    The key packs two histograms as ``2n`` bytes: counts of out-degrees
    ``0..n-1`` followed by counts of hook lengths ``1..n``.  The value is
    the number of ordered trees showing exactly those statistics; values
    sum to the Catalan number C(n-1).  Every call builds a new dict.
    """
    _check_size(n)
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
    counts: dict[bytes, int] = {}

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
            else:
                fields = sig.to_bytes(2 * n, "little")
                key = fields[0::2] + fields[1::2]
                counts[key] = counts.get(key, 0) + emb
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
        grow(m - 1, len(sizes), 0, 1, 0)
        upto.append(len(sizes))
    # grow reaches itself through its closure; breaking that cycle frees the
    # tables on return instead of at the next full garbage collection.
    del grow
    return counts


# Weighted sums ask for the same sizes again and again across families and
# weight tables.  Only ``weighted_sum`` reads these dicts, and never writes.
_cached_counts = lru_cache(maxsize=TALLY_LIMIT)(signature_counts)


def weighted_sum(
    n: int, family: "DegreeWeightFamily", rho: "HookWeightFunction"
) -> Fraction:
    """Sum of ``w_deg(T) * w_hook(T)`` over every ordered tree of size n.

    Trees are grouped by signature (see :func:`signature_counts`), so the
    weights are raised to powers once per signature.  Every weight is put
    over one common denominator, the terms are summed as Python ints, and
    one Fraction is built at the end.
    """
    _check_size(n)
    if rho.size < n:
        raise RhoRangeExceeded(
            f"trees of size {n} have hooks up to {n} but rho covers 1..{rho.size}"
        )
    weights = [family.weight_of_degree(k) for k in range(n)]
    weights += [rho(h) for h in range(1, n + 1)]
    # Key byte f counts out-degree d = f or hook length h = f - n + 1.  A
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
    total = 0
    for key, term in _cached_counts(n).items():
        for table, c in zip(tables, key):
            term *= table[c]
        total += term
    return Fraction(total, denominator)
