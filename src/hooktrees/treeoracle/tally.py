"""The fast oracle: ordered trees tallied by signature, weighed block by block.

A tree's signature is its out-degree histogram together with its
hook-length histogram.  The ordered trees of one size that share a
signature form one class, counted by how many trees it holds; the tally
of a size is its classes.  A tree of size m is a root over an ordered
forest of m - 1 vertices, and the pass builds forests from classes, not
from single trees.  Appending k trees drawn from a class of count c to a
forest of j trees gives comb(j + k, k) * c**k ordered forests, whichever
trees of the class are drawn (the multinomial theorem: the k places among
j + k, then a tree of the class in each), and adds the class's
signature k times.  So the forests of s vertices split by the size a of
their largest trees into a block of k trees of size a and a stored forest
of s - k*a vertices whose trees are all smaller than a.  A block is an
ordered forest too, kept in the same shape: by degree histogram, as
parallel lists of hook histograms and counts, so every product of two
forests runs in C through ``map``.  One growth step builds both levels:
the forests from the blocks of each size, and the blocks of a size from
its classes.  The forests of n - 1 vertices go straight into the tally
of size n and are never stored.

One pass to size n finishes every smaller size on the way, and tallies
each size it finishes, grouped as ``{degree histogram: {hook histogram:
count}}``.  A weighted sum reads an index of that tally which lists every
distinct block once: each degree histogram (a row), and each hook
histogram split at ``k = n // 3`` into a low block (hooks 1..k) and a
high block (hooks k+1..n).  Far fewer blocks than signatures occur (at
n = 13, 320 low and 267 high blocks against 9,288 signatures), and each
block is cut once more in the middle into two half-blocks, fewer again
(103 distinct halves at n = 13).  So the weights are multiplied out
once per half, field by field, a block costs one multiply of two
looked-up halves, and a signature two lookups and two multiplies, run
in C by ``map`` and ``sum``.  The degree rows are weighed from their
halves the same way.  A field of weight 1 has no power table and is
skipped, and so is every lookup into a side whose blocks all weigh 1.
Where every hook weighs 1 (rho = 1, the simply generated case) a row's
hook sum is the total of its counts, kept in the index, and no
signature is read.

The hook side of a sum depends on the size and rho alone, and the hook
length formulas are certified by summing one rho against one family
after another.  So each size keeps, per distinct rho table (keyed by
rho's values at 1..n), the hook denominator, the weight of each
distinct block and one hook sum per row, summed the first time some
family weighs that row nonzero.  A first sum at a size and rho reads
the signatures of the rows it weighs and no others (binary weighs 7 of
the 77 rows at n = 13, holding 1,850 of the 9,288 signatures).  What is
kept is O(rows + blocks) integers per table per size, about 27 kB at
n = 13 and 112 kB at n = 16.  The degree side likewise depends on the
size and the family alone, and each size keeps it per distinct family
(keyed by phi's values at 0..n-1): the weight of each row and the
degree denominator.  So a later call at the same size, rho and family
costs one multiply per row it weighs nonzero.  Each size keeps at most
``_KEPT`` hook sides and ``_KEPT`` degree sides, and drops the oldest
to make room for a new one, so a process that sums many tables holds
a bounded amount; a dropped side is rebuilt when it is asked for again.

The tests hold this oracle against two references, both kept in
``tests/literal_oracle.py`` and not in the package: the literal stream
of every ordered tree with its per-tree weights, and a walk that visits
each unordered tree once (Beyer and Hedetniemi, "Constant time
generation of rooted trees", SIAM J. Comput. 9(4), 1980).  This module
shares nothing with the series half, and ``trees`` beside it serves the
``labellings`` command.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, compress, repeat
from math import comb, prod
from operator import itemgetter, mul

from ..errors import HookTreesError

__all__ = ["TALLY_LIMIT", "backend_name", "signature_counts", "weighted_sum"]

# One pass to size 16 (133,961 signatures, 9.7 million ordered trees) takes
# about 0.15 s on one core of a shared 2-vCPU Xeon VM, a quarter of the time
# of the unordered-tree walk kept in the tests.  A first weighted_sum(16) in
# a fresh process, which indexes every size up to 16, takes about 0.3 s and
# 43 MB peak RSS (plane at rho = 1/n, which weighs every row).  Each size up
# costs about 2.4 times the time and twice the memory (0.88 s and 168 MB for
# the pass alone at 18).
TALLY_LIMIT = 16


def backend_name() -> str:
    """The tally method, as one token; kept for tools that record it."""
    return "signature-class-forests"


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"trees have at least one vertex, got size {n}")
    if n > TALLY_LIMIT:
        raise HookTreesError(
            f"the signature tally is limited to {TALLY_LIMIT} vertices, got {n}"
        )


# A level of forests maps a degree histogram to (j, hooks, counts): their
# tree count, and parallel lists of their hook histograms and counts, in
# which a hook histogram may repeat.  A piece is (j, degrees, hooks, counts).
_Level = dict[int, tuple[int, list[int], list[int]]]
_Piece = tuple[int, int, Iterable[int], Iterable[int]]


def _grouped_sizes(n: int) -> Iterator[tuple[int, dict[int, dict[int, int]]]]:
    """Yield ``(m, {degrees: {hooks: count}})`` for m = 1..n.

    ``degrees`` holds the count of out-degree d in byte d, and ``hooks``
    the count of hook length h in byte h - 1; ``to_bytes(m, "little")``
    turns either into the histogram bytes of :func:`signature_counts`.
    Adding two such ints adds their histograms, since no count reaches
    256.  The counts of one size sum to Catalan(m-1).
    """
    # forests[s]: the forests of s vertices from the tree sizes taken so far
    forests: list[_Level] = [{0: (0, [0], [1])}] + [{} for _ in range(n - 2)]
    top: dict[int, dict[int, int]] = {}
    crown = 1 << 8 * (n - 1)  # the hook of the root of a tree of size n
    for m in range(1, n):
        # A tree of size m is a root over a forest of j trees and m - 1
        # vertices: the root adds out-degree j and hook length m.
        root = 1 << 8 * (m - 1)
        tally: dict[int, dict[int, int]] = {}
        _add_roots(tally, ((j, degrees, map(root.__add__, hooks), counts)
                           for degrees, (j, hooks, counts) in forests[m - 1].items()))
        yield m, tally
        # Every forest holding k >= 1 trees of size m, and none larger, is a
        # block of those k trees and a forest of trees smaller than m.  The
        # forests of n - 1 vertices are rooted into the top tally at once;
        # the others are grown in place.
        blocks = _blocks(tally, (n - 1) // m)
        for k in range(1, len(blocks)):
            _add_roots(top, _products(blocks[k], forests[n - 1 - k * m], crown))
        _grow(forests, blocks, m)
    if n == 1:  # the lone vertex: a root over the empty forest
        _add_roots(top, [(0, 0, [crown], [1])])
    del forests  # nothing larger grows from them: free them first
    yield n, top


def _add_roots(tally: dict[int, dict[int, int]], pieces: Iterable[_Piece]) -> None:
    """Add a root of out-degree j over each piece of forests and sum the
    counts into ``tally``; the root's hook is already in the hook keys."""
    for j, degrees, hooks, counts in pieces:
        degrees += 1 << 8 * j
        row = tally.get(degrees)
        if row is None:
            row = tally[degrees] = {}
        get = row.get
        for key, count in zip(hooks, counts):
            row[key] = get(key, 0) + count


def _store(level: _Level, pieces: Iterable[_Piece]) -> None:
    """Append each piece to the entry of its degree histogram in ``level``."""
    for j, degrees, hooks, counts in pieces:
        entry = level.get(degrees)
        if entry is None:
            entry = level[degrees] = (j, [], [])
        entry[1].extend(hooks)
        entry[2].extend(counts)


def _grow(levels: list[_Level], units: list[_Level], weight: int) -> None:
    """Add ``units[k]`` times ``levels[s - k*weight]`` to ``levels[s]`` for
    k = 1..s // weight, largest s first: every level read is as before."""
    for s in range(len(levels) - 1, weight - 1, -1):
        for k in range(1, s // weight + 1):
            _store(levels[s], _products(units[k], levels[s - k * weight], 0))


def _products(blocks: _Level, forests: _Level, lift: int) -> Iterator[_Piece]:
    """Every block of k trees before every forest of j trees, as pieces
    ``(j + k, degrees, hooks, counts)`` with ``lift`` added to each hook key.

    The k trees of a block and the j of a forest interleave in
    comb(j + k, k) ways.  Each pair of entries shares one degree
    histogram: the loop runs over the hook keys of the shorter side,
    adding ``lift`` to each, and the longer side runs in C through ``map``.
    """
    for block_degrees, (k, block_hooks, block_counts) in blocks.items():
        for degrees, (j, hooks, counts) in forests.items():
            ways, degrees = comb(j + k, k), degrees + block_degrees
            if len(block_hooks) <= len(hooks):
                keys, weights = block_hooks, block_counts
            else:
                keys, weights, hooks, counts = hooks, counts, block_hooks, block_counts
            for key, count in zip(keys, weights):
                yield (j + k, degrees, map((key + lift).__add__, hooks),
                       map((count * ways).__mul__, counts))


def _blocks(classes: dict[int, dict[int, int]], most: int) -> list[_Level]:
    """The blocks of k = 0..most trees drawn from ``classes``, level k
    holding the ordered forests of k trees of their size.

    Each class of count c is grown in as units of t = 1..most of its
    trees, one block of t trees and count c**t; the product with a block
    of k - t trees from the classes before it supplies the comb(k, t)
    interleavings, whichever trees of the class are taken.
    """
    blocks: list[_Level] = [{0: (0, [0], [1])}] + [{} for _ in range(most)]
    if most == 1:  # the blocks of one tree are the classes: no loop per class
        blocks[1] = {degrees: (1, list(row), list(row.values()))
                     for degrees, row in classes.items()}
        return blocks
    for degrees, row in classes.items():
        for hooks, c in row.items():
            _grow(blocks, [{t * degrees: (t, [t * hooks], [c**t])} for t in range(most + 1)], 1)
    return blocks


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
        degrees.to_bytes(n, "little") + hooks.to_bytes(n, "little"): count
        for degrees, row in groups.items()
        for hooks, count in row.items()
    }


class _SizeIndex:
    """The tally of one size, with every distinct block listed once, and
    the hook sides of at most ``_KEPT`` rho tables weighed at that size,
    the most recently built.

    ``degrees`` and ``counts`` hold one entry per degree histogram (a
    row): its bytes and the counts of its signatures.  A hook histogram
    is split after ``split = n // 3`` hooks into a low and a high block,
    and ``lo[r]`` and ``hi[r]`` hold the ids of the two blocks of each
    signature of row r, parallel to ``counts[r]``: block ids index
    ``low`` and ``high``, the distinct blocks as bytes.  ``hooks`` maps
    rho's values at 1..n, as ``(numerator, denominator)`` pairs, to their
    :class:`_HookSide`, and ``phis`` maps phi's values at 0..n-1, as one
    flat tuple of numerators and denominators, to their degree side: the
    integer weight of each row and the denominator they are put over.

    ``totals[r]`` is the sum of ``counts[r]``: the hook sum of row r
    where every hook weighs 1.  ``low_halves`` and ``high_halves`` cut
    each distinct block once more in the middle, as :func:`_halves` gives
    them, so a hook side weighs only the distinct halves and each block is
    one product of two of their weights; ``degree_halves`` cuts the rows
    the same way.
    """

    __slots__ = ("degrees", "counts", "totals", "split", "lo", "hi", "low", "high",
                 "low_halves", "high_halves", "degree_halves", "hooks", "phis")

    def __init__(self, n: int, groups: dict[int, dict[int, int]]) -> None:
        self.degrees = tuple(degrees.to_bytes(n, "little") for degrees in groups)
        self.counts = tuple(tuple(row.values()) for row in groups.values())
        self.totals = tuple(map(sum, self.counts))
        # At n = 12, 13 and 16, summing without a split (k = 0) was 3 to 4
        # times slower.  In first sums, the splits n // 4, n // 3 and
        # 2n // 5 came within about a tenth of each other and n // 2 was up
        # to a third slower; n // 3 sits in the middle, and the index builds
        # in about the same time at each.  The low block is the first k
        # bytes of a hook histogram, the high block the rest.
        self.split = k = n // 3
        low_ids: dict[int, int] = {}
        high_ids: dict[int, int] = {}
        mask, shift = ((1 << 8 * k) - 1).__and__, (8 * k).__rrshift__
        self.lo = tuple(_number(low_ids, map(mask, row)) for row in groups.values())
        self.hi = tuple(_number(high_ids, map(shift, row)) for row in groups.values())
        self.low = tuple(block.to_bytes(k, "little") for block in low_ids)
        self.high = tuple(block.to_bytes(n - k, "little") for block in high_ids)
        self.low_halves = _halves(self.low, k // 2)
        self.high_halves = _halves(self.high, (n - k) // 2)
        self.degree_halves = _halves(self.degrees, n // 2)
        self.hooks: dict[tuple[tuple[int, int], ...], _HookSide] = {}
        self.phis: dict[tuple[int, ...], _DegreeSide] = {}


class _HookSide:
    """The hook side of the weighted sums of one size at one rho table.

    Every weight of rho is put over ``denominator``; ``low`` and ``high``
    hold the integer weight of each distinct block, weighed from the
    index's half-blocks, or None where every block of that side weighs
    1, and ``sums[r]`` the hook sum of row r, ``sum(count * low[a] *
    high[b])`` over its signatures with block ids a and b, or None until
    a family weighs row r nonzero.  Where both sides are None (rho = 1)
    a row's hook sum is its total in the index.
    """

    __slots__ = ("denominator", "low", "high", "sums")

    def __init__(self, index: _SizeIndex, ratios: tuple[tuple[int, int], ...]) -> None:
        tables, self.denominator = _power_tables(len(ratios), ratios, 1)
        k = index.split
        self.low = _weigh_parts(index.low_halves, tables[:k])
        self.high = _weigh_parts(index.high_halves, tables[k:])
        self.sums: list[int | None] = [None] * len(index.degrees)

    def fill(self, index: _SizeIndex, rows: Iterable[int]) -> None:
        """Sum the hooks of each row in ``rows`` that has no sum yet,
        reading the block ids of a side only where its blocks weigh
        other than 1, and no signature count where no block does."""
        sums, low, high = self.sums, self.low, self.high
        for r in rows:
            if sums[r] is None:
                if low is None and high is None:
                    sums[r] = index.totals[r]
                    continue
                terms: Iterable[int] = index.counts[r]
                if low is not None:
                    terms = map(mul, terms, map(low.__getitem__, index.lo[r]))
                if high is not None:
                    terms = map(mul, terms, map(high.__getitem__, index.hi[r]))
                sums[r] = sum(terms)


# The integer weight of each degree row, and the denominator of them all.
_DegreeSide = tuple[list[int], int]


def _degree_side(index: _SizeIndex, ratios: list[tuple[int, int]]) -> _DegreeSide:
    """The degree side of the weighted sums of one size for the family
    whose out-degree weights are ``ratios``, each row weighed from its
    two halves."""
    tables, denominator = _power_tables(len(ratios), ratios, 0)
    # a row weighs 1 where every out-degree does (plane)
    return _weigh_parts(index.degree_halves, tables) or [1] * len(index.degrees), denominator


# Power tables, one per field; None for a field of weight 1.
_Tables = list[list[int] | None]


def _weigh(keys: tuple[bytes, ...], tables: _Tables) -> list[int] | None:
    """The weight of each histogram in ``keys``, the product over its
    fields f of ``tables[f][key[f]]``, or None if every field weighs 1.

    Each field is weighed by one ``map`` over its column of the keys, and
    a field of weight 1, which has no table (the hook lengths where rho
    is 1, the out-degrees of plane), is skipped.
    """
    columns = [map(table.__getitem__, column) for table, column in zip(tables, zip(*keys))
               if table is not None]
    return list(map(prod, zip(*columns))) if columns else None


# The halves of some keys cut after ``cut`` bytes: (cut, the distinct first
# halves, the distinct second halves, and the ids of each key's two halves).
_Halves = tuple[int, tuple[bytes, ...], tuple[bytes, ...], tuple[int, ...], tuple[int, ...]]


def _halves(keys: tuple[bytes, ...], cut: int) -> _Halves:
    """Cut each key after ``cut`` bytes and number the distinct halves of
    each side, the slicing run in C by ``map``."""
    head_ids: dict[bytes, int] = {}
    tail_ids: dict[bytes, int] = {}
    heads = _number(head_ids, map(itemgetter(slice(cut)), keys))
    tails = _number(tail_ids, map(itemgetter(slice(cut, None)), keys))
    return cut, tuple(head_ids), tuple(tail_ids), heads, tails


def _weigh_parts(halves: _Halves, tables: _Tables) -> list[int] | None:
    """What :func:`_weigh` gives for the keys that ``halves`` cut: each
    distinct half is weighed once, and each key is the product of the
    weights of its two halves, or of the one half that weighs other
    than 1."""
    cut, heads, tails, head_ids, tail_ids = halves
    head, tail = _weigh(heads, tables[:cut]), _weigh(tails, tables[cut:])
    if head is None:
        return None if tail is None else list(map(tail.__getitem__, tail_ids))
    if tail is None:
        return list(map(head.__getitem__, head_ids))
    return list(map(mul, map(head.__getitem__, head_ids), map(tail.__getitem__, tail_ids)))


def _power_tables(
    n: int, ratios: Iterable[tuple[int, int]], first: int
) -> tuple[_Tables, int]:
    """The integer power tables of the weights ``p/q`` of fields
    ``first, first + 1, ...`` of a size-n signature, and their common
    denominator; a field of weight 1 (p == q) has no table.

    Field f is out-degree f (first = 0) or hook length f (first = 1).  A
    size-n tree has at most n // d vertices of out-degree d >= 1 (the
    degrees sum to n - 1) and at most n // h of hook h (their subtrees
    are disjoint), so with ``top = n // max(f, 1)``, p/q raised to c is
    ``p**c * q**(top - c)`` over ``q**top``, and the denominator is the
    product of the ``q**top``.
    """
    tables = []
    denominator = 1
    for f, (p, q) in enumerate(ratios, first):
        if p == q:  # lowest terms: p = q = 1, and q**top is 1
            tables.append(None)
            continue
        top = n // max(f, 1)
        tables.append([p**c * q ** (top - c) for c in range(top + 1)])
        denominator *= q**top
    return tables, denominator


def _number(ids: dict, values: Iterable) -> tuple[int, ...]:
    """The id of each value, numbering values new to ``ids`` 0, 1, 2, ...
    in order of first appearance.

    Runs in C: ``len(ids)`` is read just before each ``setdefault``.
    """
    return tuple(map(ids.setdefault, values, map(len, repeat(ids))))


# The most hook sides, and the most degree sides, one size keeps.  At one
# size the catalogue tests keep at most 18 hook sides and 11 degree sides,
# the whole test suite run in one process 29 and 17, and verify one each.
_KEPT = 32


def _keep(kept: dict, key, side):
    """``side``, stored under ``key`` in ``kept`` after the oldest entry
    is dropped if ``kept`` already holds ``_KEPT``."""
    if len(kept) >= _KEPT:
        del kept[next(iter(kept))]
    kept[key] = side
    return side


# Indexed tallies by size, filled by one pass for every size up to the one
# asked for.  Only ``weighted_sum`` reads them, and it writes nothing to
# an index but the hook sides in ``hooks`` and the degree sides in ``phis``.
_indexed: dict[int, _SizeIndex] = {}


def weighted_sum(
    n: int, family: "DegreeWeightFamily", rho: "HookWeightFunction"
) -> Fraction:
    """Sum of ``w_deg(T) * w_hook(T)`` over every ordered tree of size n.

    Trees are grouped by signature (see :func:`signature_counts`), and
    each distinct half of a degree histogram or of a low or high hook
    block is weighed once, field by field, skipping every field of weight
    1; a histogram's or block's weight is the product of its two halves',
    and at rho = 1 a degree row's hook sum is the total of its counts.
    Every weight is put over one common denominator, the terms are summed
    as Python ints, and one Fraction is built at the end.  The first call
    for a size tallies every size up to it and indexes each size not
    indexed yet, so asking for the largest size first tallies once.

    The hook side of a sum depends on n and rho alone: the size's index
    keeps it for each rho table, keyed by rho's values at 1..n, so equal
    tables share it whatever their length past n.  It holds the hook
    denominator, the weight of each distinct block and one hook sum per
    degree row, filled the first time some family weighs the row
    nonzero, from that row's signatures alone; that is O(rows + blocks)
    integers per distinct table per size, and nothing is kept per hook
    histogram or per signature.
    The degree side depends on n and the family alone, and is kept the
    same way, keyed by phi's values at 0..n-1: O(rows) integers per
    distinct family per size.  A later call at the same n, rho and
    family costs one multiply per nonzero row.  Each size keeps at most
    ``_KEPT`` of each side and drops the oldest first.
    """
    _check_size(n)
    if rho.size < n:
        raise HookTreesError(
            f"trees of size {n} have hooks up to {n} but rho covers 1..{rho.size}"
        )
    if n not in _indexed:
        for m, groups in _grouped_sizes(n):
            if m not in _indexed:  # a kept index keeps its hook sides
                _indexed[m] = _SizeIndex(m, groups)
    index = _indexed[n]
    key = tuple(map(Fraction.as_integer_ratio, rho.values[:n]))
    hooks = index.hooks.get(key)
    if hooks is None:
        hooks = _keep(index.hooks, key, _HookSide(index, key))
    ratios = [(w.numerator, w.denominator) for w in map(family.weight_of_degree, range(n))]
    # one flat key: a kept entry adds one object for the collector, not n + 1
    key = tuple(chain.from_iterable(ratios))
    degree_side = index.phis.get(key)
    if degree_side is None:
        degree_side = _keep(index.phis, key, _degree_side(index, ratios))
    weights, denominator = degree_side
    # a polynomial phi weighs most degree histograms 0 (binary: 87% of the
    # signatures at n = 16), and their hook sums are neither made nor read
    sums = hooks.sums
    if None in compress(sums, weights):
        hooks.fill(index, compress(range(len(sums)), weights))
    total = sum(map(mul, compress(weights, weights), compress(sums, weights)))
    return Fraction(total, denominator * hooks.denominator)
