from fractions import Fraction as Q
from math import comb, factorial

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


def catalan(k):
    return comb(2 * k, k) // (k + 1)


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
        fam = families.plane()
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
        fam = families.binary()
        rho = HookWeightFunction.named("1/n", 8)
        for n in range(1, 9):
            assert weighted_sum(n, fam, rho) == 1

    def test_plane_unweighted_counts_trees(self):
        fam = families.plane()
        rho = HookWeightFunction.named("1", 8)
        for n in range(1, 9):
            assert weighted_sum(n, fam, rho) == catalan(n - 1)

    def test_size_one_is_phi0_times_rho1(self):
        fam = families.yang(Q(1, 2), Q(3))
        rho = HookWeightFunction((Q(5, 7),))
        assert weighted_sum(1, fam, rho) == fam.weight_of_degree(0) * Q(5, 7)

    def test_matches_literal_per_tree_sum(self):
        # the grouped sum over one common denominator must equal the
        # definitional sum over the stream, also with negative weights,
        # zero weights (binary has phi_k = 0 for k >= 3) and a zero rho(h)
        varied = tuple(Q(((3 * n) % 5) + 1, n) for n in range(1, 8))
        cases = [
            (families.yang(Q(1, 2), Q(3)), varied),
            (families.yang(Q(-1, 2), Q(3, 2)), varied),
            (families.binary(), (Q(2, 3), Q(-5, 4), Q(0), Q(7), Q(1, 6), Q(3), Q(-1, 9))),
            (families.labelled(), (Q(1), Q(0), Q(1, 3), Q(4, 5), Q(-2), Q(1, 7), Q(5, 2))),
        ]
        for fam, values in cases:
            rho = HookWeightFunction(values)
            for n in range(1, 8):
                literal = sum(
                    (fam.tree_weight_deg(t) * tree_weight_hook(t, rho)
                     for t in enumerate_trees(n)),
                    Q(0),
                )
                assert weighted_sum(n, fam, rho) == literal, (fam.name, n)

    def test_rho_table_too_short(self):
        with pytest.raises(RhoRangeExceeded):
            weighted_sum(4, families.plane(), HookWeightFunction.named("1", 3))

    def test_derived_rho_reproduces_its_source_series(self):
        # central identity, third leg: derive rho from an arbitrary series,
        # then the enumeration must rebuild that series coefficientwise
        from hooktrees.hookcalc import rho_from_series
        from hooktrees.series import TruncatedSeries
        from random import Random

        rng = Random(97)
        for fam in (families.plane(), families.labelled()):
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
        assert families.plane().tree_weight_deg(path) == 1
        with pytest.raises(SizeLimitExceeded):
            parse_tree("(" * (MAX_TREE_DEPTH + 1) + ")" * (MAX_TREE_DEPTH + 1))

