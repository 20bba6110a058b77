from fractions import Fraction as Q
from math import comb

import pytest

from hooktrees import families, gfparse
from hooktrees.errors import ExpressionError, HookTreesError
from hooktrees.series import TruncatedSeries
from hooktrees.treeoracle import OrderedTree, parse_tree

from eager_series import pow_rational
from literal_oracle import LEAF, enumerate_trees, tree_weight_deg


class TestBuiltins:
    def test_binary_phi(self):
        assert families.from_spec("binary").phi_series(2) == TruncatedSeries([1, 2, 1])

    def test_plane_phi(self):
        assert families.from_spec("plane").phi_series(5).coefficients == (1,) * 6

    def test_polyalpha_one_equals_plane(self):
        plane = families.from_spec("plane")
        assert families.from_spec("polyalpha:1").phi_series(12) == plane.phi_series(12)

    def test_labelled_phi(self):
        got = families.from_spec("labelled").phi_series(4)
        assert got == TruncatedSeries([1, 1, Q(1, 2), Q(1, 6), Q(1, 24)])

    def test_yang_general(self):
        got = families.from_spec("yang:1/2,4").phi_series(4)
        expected = [comb(4, k) * Q(1, 2) ** k for k in range(5)]
        assert list(got.coefficients) == expected

    def test_yang_fractional_exponent(self):
        got = families.from_spec("yang:2,1/2").phi_series(6)
        base = TruncatedSeries([1, 2], order=6)
        assert got == pow_rational(base, Q(1, 2))

    def test_yang_one_two_is_binary(self):
        binary = families.from_spec("binary")
        assert families.from_spec("yang:1,2").phi_series(16) == binary.phi_series(16)

    def test_kary_domain(self):
        with pytest.raises(HookTreesError, match="kary requires k >= 2, got 1"):
            families.from_spec("kary:1")

    def test_polyalpha_domain(self):
        with pytest.raises(HookTreesError, match="polyalpha requires alpha > 0, got 0"):
            families.from_spec("polyalpha:0")
        with pytest.raises(HookTreesError, match="polyalpha requires alpha > 0, got -1/2"):
            families.from_spec("polyalpha:-1/2")

    def test_kary_coefficient_sum_is_power_of_two(self):
        for k in range(2, 9):
            coeffs = families.from_spec(f"kary:{k}").phi_series(k).coefficients
            assert sum(coeffs) == 2 ** k


class TestFromSpec:
    @pytest.mark.parametrize(
        "spec,name",
        [
            ("binary", "binary"),
            ("plane", "plane"),
            ("labelled", "labelled"),
            ("kary:3", "kary:3"),
            ("yang:1/2,4", "yang:1/2,4"),
            ("polyalpha:2", "polyalpha:2"),
        ],
    )
    def test_roundtrip_names(self, spec, name):
        assert families.from_spec(spec).name == name

    def test_spec_values(self):
        assert families.from_spec("kary:3").phi_series(3) == TruncatedSeries([1, 3, 3, 1])

    def test_unknown_name(self):
        with pytest.raises(HookTreesError, match="unknown builtin family 'ternary'"):
            families.from_spec("ternary")

    def test_wrong_arity(self):
        with pytest.raises(HookTreesError, match=r"takes 1 parameter\(s\), got 0"):
            families.from_spec("kary")
        with pytest.raises(HookTreesError, match=r"takes 2 parameter\(s\), got 1"):
            families.from_spec("yang:1")
        with pytest.raises(HookTreesError, match="kary arity must be an integer, got 1/2"):
            families.from_spec("kary:1/2")


class TestFromExpression:
    def test_expression_family(self):
        fam = families.from_expression("(1+t)^k", {"k": Q(4)})
        assert fam.phi_series(4) == TruncatedSeries([1, 4, 6, 4, 1])

    def test_builtins_are_expressions(self):
        assert families.from_spec("binary").expression == gfparse.parse("(1+t)^2")
        fam = families.from_spec("yang:1/2,3/2")
        assert fam.expression == gfparse.parse("(1+s*t)^m")
        assert fam.binding == {"s": Q(1, 2), "m": Q(3, 2)}
        assert families.from_spec("polyalpha:3").expression == gfparse.parse("(1-t)^(-a)")

    def test_errors_surface_on_construction(self):
        with pytest.raises(ExpressionError, match="cannot divide by a series"):
            families.from_expression("1/(t+t^2)")
        with pytest.raises(ExpressionError, match="parameter 'k' is not bound"):
            families.from_expression("(1+t)^k")

    def test_cache_extends(self):
        fam = families.from_spec("plane")
        assert fam.phi_series(3).order == 3
        assert fam.phi_series(30).order == 30
        assert fam.phi_series(5).order == 5


class TestValidation:
    def test_binary_ok(self):
        assert families.from_spec("binary").validate(8) == ([], [])

    def test_linear_phi_degenerate(self):
        violations, warnings = families.from_expression("1+t").validate(8)
        assert violations == ["degenerate family: phi_k = 0 for all k in 2..8"]
        assert not warnings

    def test_zero_constant_violates(self):
        violations, warnings = families.from_expression("t+t^2").validate(8)
        assert violations == ["phi_0 = 0 is not positive"]  # and not degenerate
        assert not warnings

    def test_negative_weights_warn_only(self):
        violations, warnings = families.from_expression("1-t+2*t^2").validate(8)
        assert not violations
        assert warnings == [
            "negative weights at 1 of degrees 0..8: 1 (identities remain formal)"
        ]

    def test_negative_weight_warning_counts_and_stays_short(self):
        fam = families.from_spec("yang:1/2,3/2")
        violations, warnings = fam.validate(300)
        negatives = [k for k, c in enumerate(fam.phi_series(300).coefficients) if c < 0]
        assert not violations and len(negatives) > 100
        assert warnings == [
            f"negative weights at {len(negatives)} of degrees 0..300: "
            + ", ".join(str(k) for k in negatives[:5])
            + ", ... (identities remain formal)"
        ]


class TestWeights:
    def test_weight_of_degree_labelled(self):
        assert families.from_spec("labelled").weight_of_degree(3) == Q(1, 6)

    def test_weight_of_degree_kary(self):
        assert families.from_spec("kary:3").weight_of_degree(2) == 3

    def test_weight_of_degree_yang(self):
        assert families.from_spec("yang:1/2,4").weight_of_degree(1) == 2

    def test_weight_beyond_support_is_zero(self):
        assert families.from_spec("binary").weight_of_degree(40) == 0

    def test_single_node(self):
        assert tree_weight_deg(families.from_spec("binary"), LEAF) == 1

    def test_cherry_under_binary(self):
        cherry = OrderedTree((LEAF, LEAF))
        assert tree_weight_deg(families.from_spec("binary"), cherry) == 1

    def test_path_under_plane(self):
        path = parse_tree("((()))")
        assert tree_weight_deg(families.from_spec("plane"), path) == 1

    def test_unary_chain_under_binary(self):
        path = parse_tree("((()))")
        # two vertices of out-degree 1, each weighing 2
        assert tree_weight_deg(families.from_spec("binary"), path) == 4

    def test_multiplicative_over_root_decomposition(self):
        fam = families.from_spec("yang:1/2,3")
        for n in range(1, 9):
            for tree in enumerate_trees(n):
                expected = fam.weight_of_degree(len(tree.children))
                for child in tree.children:
                    expected *= tree_weight_deg(fam, child)
                assert tree_weight_deg(fam, tree) == expected
