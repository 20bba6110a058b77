from fractions import Fraction as Q
from math import comb, factorial
from random import Random

import pytest

from hooktrees import families
from hooktrees.errors import RhoRangeExceeded, SizeLimitExceeded, UnbalancedParens
from hooktrees.hookcalc import HookWeightFunction
from hooktrees.treeoracle import (
    LEAF,
    MAX_TREE_DEPTH,
    TALLY_LIMIT,
    OrderedTree,
    backend_name,
    compositions,
    enumerate_trees,
    format_tree,
    hook_lengths,
    labellings_bruteforce,
    labellings_hook,
    labellings_recursive,
    parse_tree,
    signature_counts,
    tree_weight_hook,
    weighted_sum,
)
from hooktrees.treeoracle import tally


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


class TestSignatureCounts:
    """The unordered-tree tally against the literal ordered-tree stream."""

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
        for n in range(1, 10):
            assert signature_counts(n) == self.literal_counts(n), n

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
        rho = HookWeightFunction.named("1", TALLY_LIMIT + 1)
        with pytest.raises(ValueError):
            signature_counts(0)
        with pytest.raises(ValueError):
            weighted_sum(0, fam, rho)
        assert TALLY_LIMIT == 16
        assert sum(signature_counts(TALLY_LIMIT).values()) == catalan(TALLY_LIMIT - 1)
        with pytest.raises(SizeLimitExceeded):
            signature_counts(TALLY_LIMIT + 1)
        with pytest.raises(SizeLimitExceeded):
            weighted_sum(TALLY_LIMIT + 1, fam, rho)

    def test_backend_name_is_one_token(self):
        name = backend_name()
        assert name and name.split() == [name]


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
        rho = HookWeightFunction.named("1/n", 3)
        assert tree_weight_hook(parse_tree("((()))"), rho) == Q(1, 6)

    def test_cherry_inverse_hooks(self):
        rho = HookWeightFunction.named("1/n", 3)
        assert tree_weight_hook(parse_tree("(()())"), rho) == Q(1, 3)

    def test_table_too_short(self):
        rho = HookWeightFunction.named("1", 2)
        with pytest.raises(RhoRangeExceeded):
            tree_weight_hook(parse_tree("((()))"), rho)


class TestWeightedSum:
    def test_binary_with_inverse_hooks_is_one(self):
        fam = families.from_spec("binary")
        rho = HookWeightFunction.named("1/n", 8)
        for n in range(1, 9):
            assert weighted_sum(n, fam, rho) == 1

    def test_plane_unweighted_counts_trees(self):
        fam = families.from_spec("plane")
        rho = HookWeightFunction.named("1", 8)
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
                    (fam.tree_weight_deg(t) * tree_weight_hook(t, rho)
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
            (families.from_spec("labelled"), HookWeightFunction.named(name, 14))
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
        weighted_sum(TALLY_LIMIT, plane, HookWeightFunction.named("1", TALLY_LIMIT))
        assert sorted(tally._indexed) == list(range(1, TALLY_LIMIT + 1))
        for m, index in tally._indexed.items():
            flat = {}
            for degrees, js, counts in index.rows:
                assert len(js) == len(counts)
                for j, count in zip(js, counts):
                    flat[degrees + index.low[index.lo[j]] + index.high[index.hi[j]]] = count
            assert sum(flat.values()) == catalan(m - 1), m
            assert flat == signature_counts(m), m

    def test_rho_table_too_short(self):
        with pytest.raises(RhoRangeExceeded):
            weighted_sum(4, families.from_spec("plane"), HookWeightFunction.named("1", 3))

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
        with pytest.raises(SizeLimitExceeded):
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
        "word,offset",
        [("(()", 3), ("())", 2), ("", 0), ("()()", 2), ("(x)", 1)],
    )
    def test_errors_carry_offsets(self, word, offset):
        with pytest.raises(UnbalancedParens) as info:
            parse_tree(word)
        assert info.value.offset == offset

    def test_format_inverse_on_enumeration(self):
        for tree in enumerate_trees(6):
            assert parse_tree(format_tree(tree)) == tree

    def test_depth_bound(self):
        path = parse_tree("(" * MAX_TREE_DEPTH + ")" * MAX_TREE_DEPTH)
        # every recursive walk handles the deepest accepted tree
        assert hook_lengths(path) == list(range(MAX_TREE_DEPTH, 0, -1))
        assert labellings_recursive(path) == 1
        assert format_tree(path) == "(" * MAX_TREE_DEPTH + ")" * MAX_TREE_DEPTH
        assert families.from_spec("plane").tree_weight_deg(path) == 1
        with pytest.raises(SizeLimitExceeded):
            parse_tree("(" * (MAX_TREE_DEPTH + 1) + ")" * (MAX_TREE_DEPTH + 1))

