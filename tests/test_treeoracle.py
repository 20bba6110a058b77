from fractions import Fraction as Q
from itertools import permutations
from math import comb, factorial
from random import Random

import pytest

from hooktrees import families
from hooktrees.errors import HookTreesError, ParseError
from hooktrees.hookcalc import HookWeightFunction
from hooktrees.treeoracle import (
    MAX_TREE_DEPTH,
    TALLY_LIMIT,
    OrderedTree,
    backend_name,
    format_tree,
    hook_lengths,
    labellings_bruteforce,
    labellings_hook,
    labellings_recursive,
    parse_tree,
    signature_counts,
    weighted_sum,
)
from hooktrees.treeoracle import tally
from literal_oracle import (
    LEAF,
    compositions,
    enumerate_trees,
    grouped_sizes,
    tree_weight_deg,
    tree_weight_hook,
)


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def per_signature_sum(n, family, rho):
    """The reference for ``weighted_sum``: every field of every signature
    of ``signature_counts(n)`` raised and multiplied in turn, as integers
    over one common denominator."""
    weights = [family.weight_of_degree(k) for k in range(n)]
    weights += [rho(h) for h in range(1, n + 1)]
    tables = []
    denominator = 1
    for f, w in enumerate(weights):
        top = n // max(f if f < n else f - n + 1, 1)
        p, q = w.numerator, w.denominator
        tables.append([p**c * q ** (top - c) for c in range(top + 1)])
        denominator *= q**top
    total = 0
    for key, term in signature_counts(n).items():
        for table, c in zip(tables, key):
            term *= table[c]
        total += term
    return Q(total, denominator)


class DegreeTable:
    """A degree-weight family given by its table ``phi_0 .. phi_{n-1}``."""

    name = "table"

    def __init__(self, values):
        self.values = tuple(values)

    def weight_of_degree(self, k):
        return self.values[k]


def random_weights(rng, count):
    """Rationals with zeros, negative values and large denominators."""
    denominators = (1, 2, 3, 7, 10**12 + 39, 2**61 - 1, 3**40)
    values = [Q(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(count)]
    values[rng.randrange(count)] = Q(0)
    return values


class TestEnumeration:
    def test_single_tree_sizes(self):
        assert [t.size for t in enumerate_trees(4)] == [4] * catalan(3)

    def test_counts_match_catalan(self):
        for n in range(1, 11):
            assert sum(1 for _ in enumerate_trees(n)) == catalan(n - 1)

    def test_small_cases_by_hand(self):
        assert list(enumerate_trees(1)) == [LEAF]
        three = {format_tree(t) for t in enumerate_trees(3)}
        assert three == {"((()))", "(()())"}

    def test_no_duplicates(self):
        for n in range(1, 9):
            words = [format_tree(t) for t in enumerate_trees(n)]
            assert len(words) == len(set(words))

    def test_deterministic_order(self):
        first = [format_tree(t) for t in enumerate_trees(6)]
        second = [format_tree(t) for t in enumerate_trees(6)]
        assert first == second

    def test_compositions_lexicographic(self):
        assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert list(compositions(3, 3)) == [(1, 1, 1)]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            next(enumerate_trees(0))


def as_bytes(m, groups):
    """One size of ``tally._grouped_sizes`` with its int histograms as the
    bytes of ``literal_oracle.grouped_sizes``."""
    return {
        degrees.to_bytes(m, "little"): {
            hooks.to_bytes(m, "little"): count for hooks, count in row.items()
        }
        for degrees, row in groups.items()
    }


class TestSignatureCounts:
    """The forest-built tally against the unordered-tree walk it replaced
    and against the literal ordered-tree stream."""

    @staticmethod
    def literal_counts(n):
        def degrees(tree):
            out = [len(tree.children)]
            for child in tree.children:
                out.extend(degrees(child))
            return out

        counts = {}
        for tree in enumerate_trees(n):
            deg, hook = bytearray(n), bytearray(n)
            for d in degrees(tree):
                deg[d] += 1
            for h in hook_lengths(tree):
                hook[h - 1] += 1
            key = bytes(deg) + bytes(hook)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_matches_literal_enumeration(self):
        for n in range(1, 12):
            assert signature_counts(n) == self.literal_counts(n), n

    def test_every_pass_matches_unordered_reference(self):
        # every size of every pass, exactly, against the unordered-tree walk
        for n in range(1, TALLY_LIMIT + 1):
            reference = list(grouped_sizes(n))
            passed = list(tally._grouped_sizes(n))
            assert [m for m, _ in passed] == list(range(1, n + 1)), n
            for (m, groups), (_, expected) in zip(passed, reference):
                assert as_bytes(m, groups) == expected, (n, m)
                total = sum(sum(row.values()) for row in groups.values())
                assert total == catalan(m - 1), (n, m)

    def test_counts_sum_to_catalan(self):
        for n in range(1, 15):
            assert sum(signature_counts(n).values()) == catalan(n - 1)

    def test_signature_shapes(self):
        for n in (1, 2, 5):
            for key in signature_counts(n):
                assert len(key) == 2 * n
                assert sum(key[:n]) == n  # every vertex has one out-degree
                assert sum(key[n:]) == n  # and one hook length

    def test_hook_histogram_of_path_and_star(self):
        # size 3: the path has hooks {3,2,1}, the star {3,1,1}
        path_key = bytes([1, 2, 0]) + bytes([1, 1, 1])
        star_key = bytes([2, 0, 1]) + bytes([2, 0, 1])
        assert signature_counts(3) == {path_key: 1, star_key: 1}

    def test_size_edges(self):
        fam = families.from_spec("plane")
        rho = HookWeightFunction.from_spec("1", TALLY_LIMIT + 1)
        with pytest.raises(ValueError):
            signature_counts(0)
        with pytest.raises(ValueError):
            weighted_sum(0, fam, rho)
        assert TALLY_LIMIT == 16
        assert sum(signature_counts(TALLY_LIMIT).values()) == catalan(TALLY_LIMIT - 1)
        with pytest.raises(HookTreesError, match="the signature tally is limited to 16"):
            signature_counts(TALLY_LIMIT + 1)
        with pytest.raises(HookTreesError, match="the signature tally is limited to 16"):
            weighted_sum(TALLY_LIMIT + 1, fam, rho)

    def test_backend_name_is_one_token(self):
        name = backend_name()
        assert name and name.split() == [name]


def entries(pieces):
    """The sorted (j, degrees, hook, count) of forest pieces or a level."""
    if isinstance(pieces, dict):
        pieces = ((j, degrees, hooks, counts) for degrees, (j, hooks, counts) in pieces.items())
    return sorted((j, degrees, hook, count)
                  for j, degrees, hooks, counts in pieces
                  for hook, count in zip(hooks, counts))


class TestOneShape:
    """Blocks are ordered forests in the forests' shape, and the product
    of two levels is the same whichever side comes first."""

    def test_block_level_k_holds_forests_of_k_trees(self):
        for m, classes in tally._grouped_sizes(10):
            trees = catalan(m - 1)
            for most in range(1, max(9 // m, 2) + 1):
                blocks = tally._blocks(classes, most)
                assert len(blocks) == most + 1
                for k, level in enumerate(blocks):
                    assert {j for j, *_ in entries(level)} == {k}, (m, most, k)
                    # the ordered k-tuples of trees of size m
                    assert sum(count for *_, count in entries(level)) == trees**k

    def test_fast_path_equals_general_level_one(self):
        for m, classes in tally._grouped_sizes(10):
            fast = tally._blocks(classes, 1)
            assert entries(fast[1]) == entries(tally._blocks(classes, 2)[1]), m
            assert entries(fast[0]) == [(0, 0, 0, 1)]

    def test_products_commute(self, monkeypatch):
        # every pair of levels that a pass at n = 9 multiplies, as it was
        # when read: one loop over the shorter side serves either order
        pairs = []
        products = tally._products

        def recorded(blocks, forests, lift):
            pairs.append(tuple({degrees: (j, list(hooks), list(counts))
                                for degrees, (j, hooks, counts) in level.items()}
                               for level in (blocks, forests)))
            return products(blocks, forests, lift)

        monkeypatch.setattr(tally, "_products", recorded)
        for _ in tally._grouped_sizes(9):
            pass
        monkeypatch.undo()
        uneven = 0
        for a, b in pairs:
            assert entries(tally._products(a, b, 0)) == entries(tally._products(b, a, 0))
            uneven += any(len(x[1]) != len(y[1]) for x in a.values() for y in b.values())
        assert uneven > 0


class TestHookLengths:
    def test_single_node(self):
        assert hook_lengths(LEAF) == [1]

    def test_path_of_three(self):
        assert hook_lengths(parse_tree("((()))")) == [3, 2, 1]

    def test_cherry(self):
        assert hook_lengths(parse_tree("(()())")) == [3, 1, 1]

    def test_root_first_depth_first(self):
        assert hook_lengths(parse_tree("((())())")) == [4, 2, 1, 1]

    def test_hook_sum_counts_ancestor_pairs(self):
        # sum of subtree sizes = number of (ancestor, descendant) pairs
        # = sum over vertices of (depth + 1); both are checked per tree
        def depth_counts(tree, depth=0):
            total = depth + 1
            for child in tree.children:
                total += depth_counts(child, depth + 1)
            return total

        for n in range(1, 9):
            for tree in enumerate_trees(n):
                assert sum(hook_lengths(tree)) == depth_counts(tree)


class TestHookWeights:
    def test_single_node(self):
        rho = HookWeightFunction((Q(7, 3),))
        assert tree_weight_hook(LEAF, rho) == Q(7, 3)

    def test_path_inverse_hooks(self):
        rho = HookWeightFunction.from_spec("1/n", 3)
        assert tree_weight_hook(parse_tree("((()))"), rho) == Q(1, 6)

    def test_cherry_inverse_hooks(self):
        rho = HookWeightFunction.from_spec("1/n", 3)
        assert tree_weight_hook(parse_tree("(()())"), rho) == Q(1, 3)

    def test_table_too_short(self):
        rho = HookWeightFunction.from_spec("1", 2)
        with pytest.raises(HookTreesError, match="hook lengths up to 3 but rho covers 1..2"):
            tree_weight_hook(parse_tree("((()))"), rho)


class TestWeightedSum:
    def test_binary_with_inverse_hooks_is_one(self):
        fam = families.from_spec("binary")
        rho = HookWeightFunction.from_spec("1/n", 8)
        for n in range(1, 9):
            assert weighted_sum(n, fam, rho) == 1

    def test_plane_unweighted_counts_trees(self):
        fam = families.from_spec("plane")
        rho = HookWeightFunction.from_spec("1", 8)
        for n in range(1, 9):
            assert weighted_sum(n, fam, rho) == catalan(n - 1)

    def test_size_one_is_phi0_times_rho1(self):
        fam = families.from_spec("yang:1/2,3")
        rho = HookWeightFunction((Q(5, 7),))
        assert weighted_sum(1, fam, rho) == fam.weight_of_degree(0) * Q(5, 7)

    def test_matches_literal_per_tree_sum(self):
        # the grouped sum over one common denominator must equal the
        # definitional sum over the stream, also with negative weights,
        # zero weights (binary has phi_k = 0 for k >= 3) and a zero rho(h)
        varied = tuple(Q(((3 * n) % 5) + 1, n) for n in range(1, 10))
        cases = [
            (families.from_spec("yang:1/2,3"), varied),
            (families.from_spec("yang:-1/2,3/2"), varied),
            (families.from_spec("binary"), (Q(2, 3), Q(-5, 4), Q(0), Q(7), Q(1, 6), Q(3),
                                            Q(-1, 9), Q(4, 11), Q(-3))),
            (families.from_spec("labelled"), (Q(1), Q(0), Q(1, 3), Q(4, 5), Q(-2), Q(1, 7),
                                              Q(5, 2), Q(-8, 3), Q(1, 10))),
        ]
        for fam, values in cases:
            rho = HookWeightFunction(values)
            for n in range(1, 10):
                literal = sum(
                    (tree_weight_deg(fam, t) * tree_weight_hook(t, rho)
                     for t in enumerate_trees(n)),
                    Q(0),
                )
                assert weighted_sum(n, fam, rho) == literal, (fam.name, n)

    def test_matches_per_signature_reference(self):
        # block by block against field by field, for every builtin and for
        # random tables holding 0, negative values and large denominators
        rng = Random(2010)
        cases = [
            (families.from_spec(spec), HookWeightFunction(random_weights(rng, 14)))
            for spec in ("binary", "kary:3", "plane", "labelled", "yang:1/2,3/2",
                         "polyalpha:1/2")
        ]
        cases += [
            (families.from_spec("labelled"), HookWeightFunction.from_spec(name, 14))
            for name in ("1", "1/n", "n")
        ]
        cases += [
            (DegreeTable(random_weights(rng, 14)), HookWeightFunction(random_weights(rng, 14)))
            for _ in range(3)
        ]
        for fam, rho in cases:
            for n in range(1, 15):
                assert weighted_sum(n, fam, rho) == per_signature_sum(n, fam, rho), (
                    fam.name, n)

    def test_matches_per_signature_reference_at_the_largest_sizes(self):
        rng = Random(1516)
        cases = [
            (families.from_spec("binary"), HookWeightFunction(random_weights(rng, 16))),
            (families.from_spec("plane"), HookWeightFunction(random_weights(rng, 16))),
            (DegreeTable(random_weights(rng, 16)), HookWeightFunction(random_weights(rng, 16))),
        ]
        for n in (16, 15):
            for fam, rho in cases:
                assert weighted_sum(n, fam, rho) == per_signature_sum(n, fam, rho), (
                    fam.name, n)

    def test_half_blocks_weigh_as_the_whole_keys(self):
        # random byte keys, repeats included, cut at every place, against
        # tables that leave some fields, or all of them, at weight 1
        rng = Random(103)
        for length in range(9):
            keys = tuple(bytes(rng.randrange(4) for _ in range(length))
                         for _ in range(rng.randint(1, 60)))
            tables = [[None] * length]
            tables += [[None if rng.random() < 0.4 else [rng.randint(-9, 9) for _ in range(4)]
                        for _ in range(length)] for _ in range(4)]
            for table in tables:
                whole = tally._weigh(keys, table)
                for cut in range(length + 1):
                    assert tally._weigh_parts(tally._halves(keys, cut), table) == whole, (
                        keys, table, cut)

    def test_sizes_one_and_two_have_an_empty_low_block(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        fam = DegreeTable((Q(3, 5), Q(-7, 2)))
        rho = HookWeightFunction((Q(2, 9), Q(-4, 11)))
        # size 2 is one edge: a root of degree 1 and hook 2 over a leaf
        assert weighted_sum(2, fam, rho) == Q(3, 5) * Q(-7, 2) * Q(2, 9) * Q(-4, 11)
        assert weighted_sum(1, fam, rho) == Q(3, 5) * Q(2, 9)
        assert tally._indexed[1].low == tally._indexed[2].low == (b"",)

    def test_one_pass_indexes_every_size(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        plane = families.from_spec("plane")
        weighted_sum(TALLY_LIMIT, plane, HookWeightFunction.from_spec("1", TALLY_LIMIT))
        assert sorted(tally._indexed) == list(range(1, TALLY_LIMIT + 1))
        for m, index in tally._indexed.items():
            flat = {}
            for degrees, lo, hi, counts in zip(index.degrees, index.lo, index.hi, index.counts):
                assert len(lo) == len(hi) == len(counts)
                for a, b, count in zip(lo, hi, counts):
                    flat[degrees + index.low[a] + index.high[b]] = count
            assert len(flat) == sum(map(len, index.counts)), m  # no signature twice
            assert sum(flat.values()) == catalan(m - 1), m
            assert flat == signature_counts(m), m

    def test_rho_table_too_short(self):
        with pytest.raises(HookTreesError, match="hooks up to 4 but rho covers 1..3"):
            weighted_sum(4, families.from_spec("plane"), HookWeightFunction.from_spec("1", 3))

    def test_derived_rho_reproduces_its_source_series(self):
        # central identity, third leg: derive rho from an arbitrary series,
        # then the enumeration must rebuild that series coefficientwise
        from hooktrees.hookcalc import rho_from_series
        from hooktrees.series import TruncatedSeries
        from random import Random

        rng = Random(97)
        for fam in (families.from_spec("plane"), families.from_spec("labelled")):
            F = TruncatedSeries(
                [0] + [Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(8)]
            )
            rho = rho_from_series(F, fam, 8)
            for n in range(1, 9):
                assert weighted_sum(n, fam, rho) == F.coeff(n)


class TestHookSideReuse:
    """The hook side of a sum is kept per size and rho table and shared by
    every family summed there; the degree side is kept per size and
    family and shared by every rho table."""

    def test_fill_order_binary_plane_kary(self, monkeypatch):
        # binary weighs few degree rows, plane every row, kary:3 no new one
        monkeypatch.setattr(tally, "_indexed", {})
        rho = HookWeightFunction(random_weights(Random(15), 12))
        specs = ("binary", "plane", "kary:3")
        for n in range(12, 0, -1):
            for spec in specs:
                fam = families.from_spec(spec)
                assert weighted_sum(n, fam, rho) == per_signature_sum(n, fam, rho), (spec, n)
            assert len(tally._indexed[n].hooks) == 1
        for n in range(1, 13):
            for spec in reversed(specs):  # every row filled: sums read back
                fam = families.from_spec(spec)
                assert weighted_sum(n, fam, rho) == per_signature_sum(n, fam, rho), (spec, n)

    def test_binary_fills_only_the_rows_it_weighs(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        rho = HookWeightFunction.from_spec("1", 10)
        weighted_sum(10, families.from_spec("binary"), rho)
        (hooks,) = tally._indexed[10].hooks.values()
        binary_rows = [degrees for degrees, hook_sum in zip(tally._indexed[10].degrees, hooks.sums)
                       if hook_sum is not None]
        # binary weighs out-degrees 0, 1 and 2 only
        assert binary_rows and all(max(degrees[3:], default=0) == 0 for degrees in binary_rows)
        assert None in hooks.sums
        weighted_sum(10, families.from_spec("plane"), rho)
        assert None not in hooks.sums

    def test_equal_tables_share_one_entry(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        plane, labelled = families.from_spec("plane"), families.from_spec("labelled")
        for n in (1, 7, 11):
            by_spec = HookWeightFunction.from_spec("1/n", n)
            literal = HookWeightFunction([Q(1, h) for h in range(1, n + 4)])
            assert weighted_sum(n, plane, by_spec) == weighted_sum(n, plane, literal)
            assert weighted_sum(n, labelled, literal) == per_signature_sum(n, labelled, by_spec)
            assert list(tally._indexed[n].hooks) == [tuple((1, h) for h in range(1, n + 1))]
        weighted_sum(11, plane, HookWeightFunction.from_spec("n", 11))
        assert len(tally._indexed[11].hooks) == 2

    def test_one_slot_per_degree_row(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        plane = families.from_spec("plane")
        for n in range(TALLY_LIMIT, 0, -1):
            weighted_sum(n, plane, HookWeightFunction.from_spec("1", n))
            weighted_sum(n, plane, HookWeightFunction.from_spec("n", n))
            index = tally._indexed[n]
            assert len(index.hooks) == (1 if n == 1 else 2)
            rows = len(index.degrees)
            assert len(index.counts) == len(index.lo) == len(index.hi) == rows
            for hooks in index.hooks.values():
                assert len(hooks.sums) == rows
                for weights, blocks in ((hooks.low, index.low), (hooks.high, index.high)):
                    assert weights is None or len(weights) == len(blocks)
                assert None not in hooks.sums  # plane weighs every row
            # rho = 1 weighs every block 1; rho = n weighs every high block
            one = index.hooks[((1, 1),) * n]
            assert one.low is one.high is None
            if n > 1:
                assert len(index.hooks[tuple((h, 1) for h in range(1, n + 1))].high) == len(
                    index.high)

    def test_each_size_keeps_at_most_KEPT_sides(self, monkeypatch):
        # past the cap the oldest side goes, and is rebuilt when asked again
        monkeypatch.setattr(tally, "_indexed", {})
        n = 9
        pairs = [(DegreeTable([Q(1)] + [Q(c, k + 1) for k in range(1, n)]),
                  HookWeightFunction([Q(c, h) for h in range(1, n + 1)]))
                 for c in range(1, tally._KEPT + 6)]
        first = weighted_sum(n, *pairs[0])
        for fam, rho in pairs[1:]:
            weighted_sum(n, fam, rho)
        index = tally._indexed[n]
        assert len(index.hooks) == len(index.phis) == tally._KEPT
        assert tuple((1, h) for h in range(1, n + 1)) not in index.hooks
        assert weighted_sum(n, *pairs[0]) == first == per_signature_sum(n, *pairs[0])
        assert len(index.hooks) == len(index.phis) == tally._KEPT

    def test_a_larger_size_keeps_the_smaller_indexes(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        rho = HookWeightFunction.from_spec("1/n", 10)
        labelled = families.from_spec("labelled")
        weighted_sum(8, labelled, rho)
        index = tally._indexed[8]
        weighted_sum(10, labelled, rho)
        assert tally._indexed[8] is index and len(index.hooks) == 1

    def test_replacing_the_index_leaves_no_stale_entry(self, monkeypatch):
        rho = HookWeightFunction(random_weights(Random(7), 9))
        plane, binary = families.from_spec("plane"), families.from_spec("binary")
        monkeypatch.setattr(tally, "_indexed", {})
        weighted_sum(9, plane, rho)
        old = tally._indexed[9]
        monkeypatch.setattr(tally, "_indexed", {})
        assert weighted_sum(9, binary, rho) == per_signature_sum(9, binary, rho)
        index = tally._indexed[9]
        assert index is not old and len(index.hooks) == 1
        # binary alone filled the new entry: the rows only plane weighs are empty
        (hooks,) = index.hooks.values()
        assert None in hooks.sums and None not in old.hooks[next(iter(old.hooks))].sums

    def test_equal_families_share_one_degree_side(self, monkeypatch):
        # binary spelled twice, across rho tables: one kept degree side per
        # size, built once, and every sum exact
        monkeypatch.setattr(tally, "_indexed", {})
        built = []
        degree_side = tally._degree_side
        monkeypatch.setattr(tally, "_degree_side",
                            lambda index, ratios: built.append(ratios) or degree_side(index, ratios))
        rng = Random(21)
        spellings = [families.from_spec("binary"), families.from_expression("(1+t)^2")]
        for n in range(1, 14):
            tables = [HookWeightFunction.from_spec(spec, n) for spec in ("1", "1/n", "n")]
            tables += [HookWeightFunction(random_weights(rng, n)) for _ in range(2)]
            for rho in tables:
                for fam in spellings:
                    assert weighted_sum(n, fam, rho) == per_signature_sum(n, fam, rho), (
                        fam.name, n)
            binary = [(1, 1), (2, 1), (1, 1), *[(0, 1)] * (n - 3)][:n]
            assert list(tally._indexed[n].phis) == [sum(binary, ())]
            assert built == [binary]
            built.clear()
        # another family at a kept size gets an entry of its own
        plane, rho = families.from_spec("plane"), HookWeightFunction.from_spec("1/n", 13)
        assert weighted_sum(13, plane, rho) == per_signature_sum(13, plane, rho)
        assert built == [[(1, 1)] * 13] and len(tally._indexed[13].phis) == 2
        # binary weighs a few rows nonzero; plane weighs every row 1
        index = tally._indexed[13]
        weights, denominator = index.phis[sum(binary, ())]
        assert len(weights) == len(index.degrees) and denominator == 1
        assert 0 < len(weights) - weights.count(0) < len(weights)
        assert index.phis[(1, 1) * 13] == ([1] * len(index.degrees), 1)

    def test_weight_one_fields_are_skipped_exactly(self, monkeypatch):
        # rho = 1 on every hook, on the low hooks 1..n//3 only, on the high
        # hooks only, and at random hooks; phi = 1 on every out-degree
        # (plane) and at some of them (the table)
        monkeypatch.setattr(tally, "_indexed", {})
        rng = Random(19)
        one = Q(1)
        fams = [families.from_spec(spec) for spec in ("binary", "plane", "labelled")]
        fams.append(DegreeTable([one, Q(0), one, Q(-3, 7), one, Q(0), one] * 2))
        for n in range(1, 15):
            k = n // 3
            tables = {
                "one": [one] * n,
                "low one": [one] * k + random_weights(rng, n - k),
                "high one": (random_weights(rng, k) if k else []) + [one] * (n - k),
                "random ones": [rng.choice((one, w)) for w in random_weights(rng, n)],
            }
            for label, values in tables.items():
                rho = HookWeightFunction(values)
                for fam in fams:
                    assert weighted_sum(n, fam, rho) == per_signature_sum(n, fam, rho), (
                        label, fam.name, n)
                # a side whose hooks all weigh 1 keeps no block weights
                hooks = tally._indexed[n].hooks[tuple(v.as_integer_ratio() for v in values)]
                assert (hooks.low is None) == (values[:k] == [one] * k), (label, n)
                assert (hooks.high is None) == (values[k:] == [one] * (n - k)), (label, n)

    def test_rho_one_reads_no_signature_counts(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        plane, labelled = families.from_spec("plane"), families.from_spec("labelled")
        weighted_sum(13, plane, HookWeightFunction.from_spec("n", 13))  # index every size

        class Unread:
            def __iter__(self):
                raise AssertionError("a signature count was read")

            def __getitem__(self, r):
                raise AssertionError(f"the signature counts of row {r} were read")

        for n in range(13, 0, -1):
            monkeypatch.setattr(tally._indexed[n], "counts", Unread())
            one = HookWeightFunction.from_spec("1", n)
            for fam in (plane, labelled):
                assert weighted_sum(n, fam, one) == per_signature_sum(n, fam, one), (
                    fam.name, n)

    def test_a_miss_reads_no_block_ids_of_rows_weighed_zero(self, monkeypatch):
        monkeypatch.setattr(tally, "_indexed", {})
        n = 12
        plane, binary = families.from_spec("plane"), families.from_spec("binary")
        weighted_sum(n, plane, HookWeightFunction.from_spec("2", n))  # index every size
        index = tally._indexed[n]
        rho = HookWeightFunction(random_weights(Random(12), n))

        class Unread:
            def __iter__(self):
                raise AssertionError("the block ids of a row weighed 0 were read")

        # binary weighs a row 0 exactly when some vertex has out-degree 3 or more
        zero = {r for r, degrees in enumerate(index.degrees) if any(degrees[3:])}
        assert zero and len(zero) < len(index.degrees)
        lo, hi = index.lo, index.hi
        index.lo = tuple(Unread() if r in zero else ids for r, ids in enumerate(lo))
        index.hi = tuple(Unread() if r in zero else ids for r, ids in enumerate(hi))
        assert weighted_sum(n, binary, rho) == per_signature_sum(n, binary, rho)
        hooks = index.hooks[tuple(v.as_integer_ratio() for v in rho.values)]
        assert hooks.low is not None and hooks.high is not None
        assert {r for r, hook_sum in enumerate(hooks.sums) if hook_sum is None} == zero
        index.lo, index.hi = lo, hi
        assert weighted_sum(n, plane, rho) == per_signature_sum(n, plane, rho)
        assert None not in hooks.sums


def labellings_by_permutations(tree):
    """Try all ``n!`` label assignments and keep the increasing ones."""
    parents = [-1]

    def walk(node, index):
        cursor = index
        for child in node.children:
            parents.append(index)
            cursor = walk(child, cursor + 1)
        return cursor

    walk(tree, 0)
    n = tree.size
    return sum(
        all(labels[parents[v]] < labels[v] for v in range(1, n))
        for labels in permutations(range(1, n + 1))
    )


class TestLabellings:
    @pytest.mark.parametrize(
        "word,expected",
        [("((()))", 1), ("(()())", 2), ("()", 1), ("((())())", 3)],
    )
    def test_known_counts_three_ways(self, word, expected):
        tree = parse_tree(word)
        assert labellings_hook(tree) == expected
        assert labellings_recursive(tree) == expected
        assert labellings_bruteforce(tree) == expected

    def test_three_way_agreement_small(self):
        for n in range(1, 7):
            for tree in enumerate_trees(n):
                by_hook = labellings_hook(tree)
                assert by_hook.denominator == 1
                assert by_hook == labellings_recursive(tree)
                assert by_hook == labellings_bruteforce(tree)

    def test_bruteforce_matches_permutation_filter(self):
        for n in range(1, 8):
            for tree in enumerate_trees(n):
                assert labellings_bruteforce(tree) == labellings_by_permutations(tree), (
                    format_tree(tree))

    def test_bruteforce_at_its_limit(self):
        tree = parse_tree("(((()())(()))())")
        assert tree.size == 8
        assert labellings_bruteforce(tree) == labellings_by_permutations(tree) == 140

    def test_hook_and_recursive_agree_larger(self):
        for n in (7, 8, 9, 10):
            for tree in enumerate_trees(n):
                assert labellings_hook(tree) == labellings_recursive(tree)

    def test_star_tree(self):
        # root with k leaves: every ordering of labels 2..k+1 works
        star = OrderedTree((LEAF,) * 5)
        assert labellings_recursive(star) == factorial(5)
        assert labellings_hook(star) == factorial(5)

    def test_brute_force_guard(self):
        chain = parse_tree("(((((((((())))))))))")
        assert chain.size == 10
        with pytest.raises(HookTreesError, match="brute-force labelling is limited to 8"):
            labellings_bruteforce(chain)


class TestTreeText:
    @pytest.mark.parametrize("word", ["()", "(()())", "((()))", "((())(()()))"])
    def test_roundtrip(self, word):
        assert format_tree(parse_tree(word)) == word

    def test_whitespace_tolerated(self):
        assert parse_tree("( () () )") == parse_tree("(()())")

    def test_structures(self):
        assert parse_tree("()") == LEAF
        assert parse_tree("(()())") == OrderedTree((LEAF, LEAF))

    @pytest.mark.parametrize(
        "word,offset,message",
        [("(()", 3, "unclosed '('"), ("())", 2, "unmatched ')'"), ("", 0, "empty input"),
         ("()()", 2, "unexpected second root"), ("(x)", 1, "unexpected character 'x'")],
    )
    def test_errors_carry_offsets(self, word, offset, message):
        with pytest.raises(ParseError) as info:
            parse_tree(word)
        assert info.value.offset == offset
        assert str(info.value) == f"{message} at offset {offset}"

    def test_format_inverse_on_enumeration(self):
        for tree in enumerate_trees(6):
            assert parse_tree(format_tree(tree)) == tree

    def test_depth_bound(self):
        path = parse_tree("(" * MAX_TREE_DEPTH + ")" * MAX_TREE_DEPTH)
        # every recursive walk handles the deepest accepted tree
        assert hook_lengths(path) == list(range(MAX_TREE_DEPTH, 0, -1))
        assert labellings_recursive(path) == 1
        assert format_tree(path) == "(" * MAX_TREE_DEPTH + ")" * MAX_TREE_DEPTH
        assert tree_weight_deg(families.from_spec("plane"), path) == 1
        with pytest.raises(HookTreesError, match="tree nests more than 200 levels deep"):
            parse_tree("(" * (MAX_TREE_DEPTH + 1) + ")" * (MAX_TREE_DEPTH + 1))

