import random
from fractions import Fraction as Q
from math import comb, factorial

import pytest

from hooktrees import families
from hooktrees.errors import (
    DenominatorVanishes,
    ExpressionError,
    HookTreesError,
    UndefinedConstant,
)
from hooktrees.hookcalc import (
    HookWeightFunction,
    egf_counts,
    rho_from_forest,
    rho_from_series,
    series_from_rho,
    solve_increasing,
    solve_simply_generated,
)
from hooktrees.rational import rational_to_string
from hooktrees.series import TruncatedSeries
from hooktrees.treeoracle import labellings_recursive

from eager_series import (
    alpha_family_count,
    alpha_family_series,
    binary_rho,
    derivative,
    geometric,
    identity,
    log,
    pow_rational,
)
from literal_oracle import enumerate_trees, tree_weight_deg


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def random_tree_series(rng, order, positive=False):
    """Random exact-rational series with constant term 0."""
    lo = 1 if positive else -9
    coeffs = [Q(0)] + [
        Q(rng.randint(lo, 9), rng.randint(1, 9)) for _ in range(order)
    ]
    return TruncatedSeries(coeffs)


ALL_FAMILIES = [
    lambda: families.from_spec("binary"),
    lambda: families.from_spec("kary:3"),
    lambda: families.from_spec("plane"),
    lambda: families.from_spec("labelled"),
    lambda: families.from_spec("yang:1/2,3"),
    lambda: families.from_spec("polyalpha:2"),
]

# Every builtin spelling, plus parsed expressions that exercise the rest of
# the online evaluator: a quotient of non-constant series, log, a rational
# power of a series whose constant term is not 1, integer powers of series
# with constant term 0 (valuation 1 and 2), and a negative power.
REFERENCE_FAMILIES = [
    pytest.param(lambda: families.from_spec("binary"), id="binary"),
    lambda: families.from_spec("kary:4"),
    pytest.param(lambda: families.from_spec("plane"), id="plane"),
    pytest.param(lambda: families.from_spec("labelled"), id="labelled"),
    lambda: families.from_spec("yang:1/2,3"),
    lambda: families.from_spec("yang:-2/3,3/2"),
    lambda: families.from_spec("polyalpha:1/2"),
    lambda: families.from_spec("polyalpha:2"),
    lambda: families.from_expression("(2+t^2)/(2-t-t^3)"),
    lambda: families.from_expression("1-log(1-t)*3/2"),
    lambda: families.from_expression("(4+t)^(1/2)"),
    lambda: families.from_expression("1+t^2"),
    lambda: families.from_expression("1+t+(t^2+t^3)^3"),
    lambda: families.from_expression("exp(t/2)*(1+s*t)^(-2)", {"s": Q(1, 3)}),
]


def compose_triangle(family, order, weight):
    """The reference solver: ``F_n = weight(n) * [z^{n-1}] phi(F)``, with
    phi composed with the whole partial series again at every step."""
    phi = family.phi_series(order)
    coeffs = [Q(0)] * (order + 1)
    for n in range(1, order + 1):
        partial = TruncatedSeries(coeffs[:n])
        coeffs[n] = weight(n) * phi.truncate(n - 1).compose(partial).coeff(n - 1)
    return TruncatedSeries(coeffs)


class TestOnlineSolverMatchesComposeReference:
    @pytest.mark.parametrize("make", REFERENCE_FAMILIES)
    def test_all_three_solvers(self, make):
        fam = make()
        order = 16
        rng = random.Random(fam.name)
        # entries 0 make F_1 = 0 or later coefficients vanish
        table = HookWeightFunction(
            tuple(Q(rng.randint(-3, 5), rng.randint(1, 4)) for _ in range(order))
        )
        cases = [
            (solve_simply_generated, lambda n: 1),
            (solve_increasing, lambda n: Q(1, n)),
            (lambda f, o: series_from_rho(table, f, o), table),
            (lambda f, o: series_from_rho(HookWeightFunction.from_spec("n", o), f, o),
             lambda n: n),
        ]
        for solver, weight in cases:
            for k in (1, 2, order):
                assert solver(fam, k) == compose_triangle(fam, k, weight), fam.name

    @pytest.mark.parametrize("make", REFERENCE_FAMILIES)
    def test_rho_from_series_matches_composition(self, make):
        fam = make()
        rng = random.Random(7)
        for _ in range(3):
            F = random_tree_series(rng, 12, positive=True)
            phi_of_F = fam.phi_series(11).compose(F.truncate(11))
            dens = [phi_of_F.coeff(n - 1) for n in range(1, 13)]
            if 0 in dens:
                with pytest.raises(DenominatorVanishes) as info:
                    rho_from_series(F, fam, 12)
                assert info.value.index == dens.index(0) + 1
            else:
                expected = tuple(F.coeff(n) / d for n, d in enumerate(dens, 1))
                assert rho_from_series(F, fam, 12).values == expected

    @pytest.mark.parametrize("make", REFERENCE_FAMILIES)
    def test_rho_from_forest_matches_reversion(self, make):
        fam = make()
        phi = fam.phi_series(14)
        phi0 = phi.coeff(0)
        rng = random.Random(11)
        if phi.coeff(1) == 0:
            with pytest.raises(HookTreesError, match="phi_1 = 0: the degree-weight series"):
                rho_from_forest(random_tree_series(rng, 14) + phi0, fam, 14)
            return
        for _ in range(3):
            G = random_tree_series(rng, 14, positive=True) + phi0
            F = (phi - phi0).revert().compose(G - phi0)
            expected = tuple(F.coeff(n) / G.coeff(n - 1) for n in range(1, 15))
            assert rho_from_forest(G, fam, 14).values == expected


class TestHookWeightFunction:
    def test_inverse_table_identity(self):
        rho = HookWeightFunction.from_spec("1/n", 20)
        assert all(rho(n) * n == 1 for n in range(1, 21))

    @pytest.mark.parametrize("size", range(1, 17))
    def test_expressions_equal_literal_tables(self, size):
        hooks = range(1, size + 1)
        for text, values in (("1", [1] * size), ("1/n", [Q(1, h) for h in hooks]),
                             ("n", list(hooks))):
            rho = HookWeightFunction.from_spec(text, size)
            assert rho == HookWeightFunction(values)
            assert rho.to_strings() == HookWeightFunction(values).to_strings()

    def test_expression_in_n_with_parameters(self):
        rho = HookWeightFunction.from_spec("x + 1/(n*2^(n-1))", 4, {"x": Q(-3, 7)})
        assert rho.values == tuple(Q(-3, 7) + Q(1, h * 2 ** (h - 1)) for h in range(1, 5))
        # n is always the hook length: a binding of n does not reach it
        assert HookWeightFunction.from_spec("n", 3, {"n": Q(5)}).values == (1, 2, 3)
        assert HookWeightFunction.spec_parameters("x + 1/(n*2^(n-1))") == {"x"}
        assert HookWeightFunction.spec_parameters("x,1/2") == set()

    @pytest.mark.parametrize("text", ["x + 1/(n*2^(n-1))", "1/n", "1,2/3,x,4", "1,1/2"])
    def test_a_spec_read_once_reads_like_its_text(self, text):
        spec = HookWeightFunction.read_spec(text)
        assert (spec == text) == ("," in text)  # a table is kept as text
        assert HookWeightFunction.read_spec(spec) is spec
        assert HookWeightFunction.spec_parameters(spec) == HookWeightFunction.spec_parameters(text)
        if "x" not in text.split(","):
            binding = {"x": Q(2, 5)}
            assert (HookWeightFunction.from_spec(spec, 2, binding)
                    == HookWeightFunction.from_spec(text, 2, binding))

    @pytest.mark.parametrize("text, index", [("1/(n-2)", 2), ("(n-3)^(-1)", 3), ("0^(n-4)", 1)])
    def test_undefined_value_names_its_hook(self, text, index):
        with pytest.raises(DenominatorVanishes) as info:
            HookWeightFunction.from_spec(text, 5)
        assert info.value.index == index
        assert str(info.value).startswith(f"rho({index}) is undefined: ")

    @pytest.mark.parametrize("text", ["n^(1/2)", "t", "exp(n)", "log(n)"])
    def test_non_rational_value_names_rho(self, text):
        with pytest.raises(ExpressionError, match=r"in rho\(n\)") as info:
            HookWeightFunction.from_spec(text, 4)
        assert not isinstance(info.value, UndefinedConstant)
        assert "exponent" not in str(info.value)

    def test_out_of_range(self):
        rho = HookWeightFunction.from_spec("1", 4)
        with pytest.raises(HookTreesError, match=r"rho\(5\) requested but the table covers 1..4"):
            rho(5)
        with pytest.raises(HookTreesError, match=r"rho\(0\) requested but the table covers"):
            rho(0)

    def test_zero_denominator_is_an_input_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            HookWeightFunction.from_spec("1,1/0,1", 3)

    def test_values_are_coerced_to_a_tuple_of_fractions(self):
        rho = HookWeightFunction([1, Q(1, 2), 3])
        assert rho.values == (1, Q(1, 2), 3)
        assert all(type(v) is Q for v in rho.values)
        assert HookWeightFunction(values=iter([2])).values == (Q(2),)
        with pytest.raises(TypeError):
            HookWeightFunction([1, 0.5])

    def test_equality_and_hash_by_values(self):
        table = HookWeightFunction((1, Q(1, 2)))
        assert table == HookWeightFunction([Q(1), Q(1, 2)])
        assert hash(table) == hash(HookWeightFunction([Q(1), Q(1, 2)]))
        assert table != HookWeightFunction((1, Q(1, 3)))
        assert table != (Q(1), Q(1, 2))
        assert len({table, HookWeightFunction.from_spec("1,1/2", 2)}) == 1

    def test_immutable(self):
        table = HookWeightFunction.from_spec("1", 3)
        with pytest.raises(AttributeError):
            table.values = (Q(2),)
        with pytest.raises(AttributeError):
            del table.values
        assert table.values == (1, 1, 1)
        assert repr(table) == (
            "HookWeightFunction(values=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))"
        )

    def test_from_spec_expression_and_explicit(self):
        assert HookWeightFunction.from_spec("1/n", 4) == HookWeightFunction.from_spec(
            "1,1/2,1/3,1/4", 4
        )
        explicit = HookWeightFunction.from_spec("1,1/2,3", 3)
        assert explicit.values == (1, Q(1, 2), 3)
        with pytest.raises(ValueError):
            HookWeightFunction.from_spec("1,2", 3)


class TestSimplyGenerated:
    def test_binary_counts_trees(self):
        got = solve_simply_generated(families.from_spec("binary"), 7)
        # independent check: weighted enumeration, then the Catalan formula
        rho_one = HookWeightFunction.from_spec("1", 7)
        from hooktrees.treeoracle import weighted_sum

        for n in range(1, 8):
            assert got.coeff(n) == weighted_sum(n, families.from_spec("binary"), rho_one)
            assert got.coeff(n) == catalan(n)

    def test_plane_counts_trees(self):
        got = solve_simply_generated(families.from_spec("plane"), 6)
        for n in range(1, 7):
            assert got.coeff(n) == sum(1 for _ in enumerate_trees(n))

    def test_constant_phi_has_only_single_node(self):
        fam = families.from_expression("3")
        got = solve_simply_generated(fam, 5)
        assert got == TruncatedSeries([0, 3, 0, 0, 0, 0])

    def test_fixed_point_residual_vanishes(self):
        for make in ALL_FAMILIES:
            fam = make()
            T = solve_simply_generated(fam, 10)
            residual = T - identity(10) * fam.phi_series(10).compose(T)
            assert residual.coefficients == (0,) * 11


class TestIncreasing:
    def test_binary_counts_increasing_labellings(self):
        got = solve_increasing(families.from_spec("binary"), 7)
        fam = families.from_spec("binary")
        # independent: sum of degree weight times labelling count, per size
        for n in range(1, 8):
            total = sum(
                (tree_weight_deg(fam, t) * labellings_recursive(t)
                 for t in enumerate_trees(n)),
                Q(0),
            )
            assert got.coeff(n) * factorial(n) == total
            assert got.coeff(n) * factorial(n) == factorial(n)

    def test_plane_closed_form(self):
        got = solve_increasing(families.from_spec("plane"), 10)
        closed = 1 - pow_rational(TruncatedSeries([1, -2], order=10), Q(1, 2))
        assert got == closed

    def test_labelled_closed_form(self):
        got = solve_increasing(families.from_spec("labelled"), 10)
        assert got == log(geometric(10))

    def test_ode_residual_vanishes(self):
        for make in ALL_FAMILIES:
            fam = make()
            T = solve_increasing(fam, 10)
            residual = derivative(T) - fam.phi_series(10).compose(T)
            assert residual.coefficients == (0,) * 10

    def test_egf_counts(self):
        T = solve_increasing(families.from_spec("plane"), 5)
        assert egf_counts(T) == [0, 1, 1, 3, 15, 105]


class TestRhoFromSeries:
    def test_catalan_under_binary_gives_all_ones(self):
        F = solve_simply_generated(families.from_spec("binary"), 10)
        rho = rho_from_series(F, families.from_spec("binary"), 10)
        assert rho.values == (1,) * 10

    def test_alpha_closed_form_gives_inverse_hooks(self):
        for alpha in (Q(1), Q(2), Q(3), Q(1, 2)):
            F = alpha_family_series(alpha, 12)
            family = families.from_spec(f"polyalpha:{rational_to_string(alpha)}")
            rho = rho_from_series(F, family, 12)
            assert rho == HookWeightFunction.from_spec("1/n", 12)

    def test_log_geometric_under_labelled(self):
        rho = rho_from_series(log(geometric(10)), families.from_spec("labelled"), 10)
        assert rho == HookWeightFunction.from_spec("1/n", 10)

    def test_requires_zero_constant(self):
        with pytest.raises(ValueError):
            rho_from_series(geometric(5), families.from_spec("binary"), 5)

    def test_requires_enough_order(self):
        F = TruncatedSeries([0, 1, 1])
        with pytest.raises(HookTreesError, match=r"F is known to order 2 but rho\(1..5\)"):
            rho_from_series(F, families.from_spec("binary"), 5)

    def test_denominator_vanishes_with_index(self):
        # (1+F)^2 has [z^2] = 2*F_2 + F_1^2 = 0 for F = z - z^2/2...
        F = TruncatedSeries([0, 2, -2, 1, 1])
        with pytest.raises(DenominatorVanishes) as info:
            rho_from_series(F, families.from_spec("binary"), 4)
        assert info.value.index == 3


class TestSeriesFromRho:
    def test_all_ones_matches_fixed_point(self):
        got = series_from_rho(
            HookWeightFunction.from_spec("1", 8), families.from_spec("binary"), 8
        )
        assert got == solve_simply_generated(families.from_spec("binary"), 8)

    def test_inverse_hooks_match_ode(self):
        got = series_from_rho(
            HookWeightFunction.from_spec("1/n", 8), families.from_spec("binary"), 8
        )
        assert got == solve_increasing(families.from_spec("binary"), 8)
        assert got.coefficients == (0, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_zero_rho_gives_zero_series(self):
        rho = HookWeightFunction((Q(0),) * 6)
        got = series_from_rho(rho, families.from_spec("plane"), 6)
        assert got.coefficients == (0,) * 7

    def test_first_coefficient_is_phi0_rho1(self):
        fam = families.from_spec("yang:1/3,5/2")
        rho = HookWeightFunction((Q(7, 2), Q(1)))
        got = series_from_rho(rho, fam, 2)
        assert got.coeff(1) == fam.weight_of_degree(0) * Q(7, 2)

    def test_roundtrip_over_family_and_rho_grid(self):
        rng = random.Random(1729)
        upto = 16
        tables = {
            "1": HookWeightFunction.from_spec("1", upto),
            "1/n": HookWeightFunction.from_spec("1/n", upto),
            "n": HookWeightFunction.from_spec("n", upto),
            "random": HookWeightFunction(
                tuple(Q(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(upto))
            ),
        }
        for make in ALL_FAMILIES:
            fam = make()
            for rho in tables.values():
                F = series_from_rho(rho, fam, upto)
                assert rho_from_series(F, fam, upto) == rho


class TestBinaryRho:
    def test_epgf_with_inverse_hooks(self):
        F = TruncatedSeries([0] + [1] * 10)  # z/(1-z)
        assert binary_rho(F, 10) == HookWeightFunction.from_spec("1/n", 10)

    def test_catalan_gives_all_ones(self):
        F = solve_simply_generated(families.from_spec("binary"), 10)
        assert binary_rho(F, 10).values == (1,) * 10

    def test_specializes_rho_from_series(self):
        rng = random.Random(271828)
        fam = families.from_spec("binary")
        for _ in range(10):
            F = random_tree_series(rng, 20, positive=True)
            assert binary_rho(F, 20) == rho_from_series(F, fam, 20)

    def test_denominator_vanishes_like_general_form(self):
        F = TruncatedSeries([0, 2, -2, 1, 1])
        with pytest.raises(DenominatorVanishes) as info:
            binary_rho(F, 4)
        assert info.value.index == 3


class TestRhoFromForest:
    def test_plane_inverse_recovers_all_ones(self):
        F = solve_simply_generated(families.from_spec("plane"), 10)
        G = geometric(10).compose(F)  # 1/(1-F)
        rho = rho_from_forest(G, families.from_spec("plane"), 10)
        assert rho.values == (1,) * 10

    def test_labelled_log_inverse(self):
        rho = rho_from_forest(geometric(10), families.from_spec("labelled"), 10)
        assert rho == HookWeightFunction.from_spec("1/n", 10)

    def test_agrees_with_tree_form(self):
        rng = random.Random(31337)
        for spec in ("plane", "labelled"):
            fam = families.from_spec(spec)
            phi = fam.phi_series(15)
            for _ in range(10):
                F = random_tree_series(rng, 15, positive=True)
                G = phi.compose(F)
                assert rho_from_forest(G, fam, 15) == rho_from_series(F, fam, 15)

    def test_constant_mismatch(self):
        with pytest.raises(HookTreesError, match=r"G\(0\) = 2 but the family has phi_0 = 1"):
            rho_from_forest(identity(5) + 2, families.from_spec("plane"), 5)

    def test_not_invertible_without_linear_term(self):
        fam = families.from_expression("1+t^2")
        with pytest.raises(HookTreesError, match="phi_1 = 0: the degree-weight series"):
            rho_from_forest(identity(5) + 1, fam, 5)

    def test_denominator_vanishes(self):
        fam = families.from_spec("plane")
        G = TruncatedSeries([1, 0, 1, 1])  # [z^1] G = 0 kills rho(2)
        with pytest.raises(DenominatorVanishes) as info:
            rho_from_forest(G, fam, 3)
        assert info.value.index == 2


class TestAlphaFamily:
    def test_counts_by_hand(self):
        assert alpha_family_count(1, 3) == 3
        assert alpha_family_count(1, 4) == 15

    def test_single_node_for_any_alpha(self):
        for alpha in (Q(1), Q(2), Q(7, 3), Q(1, 5)):
            assert alpha_family_count(alpha, 1) == 1

    def test_series_alpha_one(self):
        got = alpha_family_series(1, 4)
        assert got == TruncatedSeries([0, 1, Q(1, 2), Q(1, 2), Q(5, 8)])

    def test_series_matches_ode_solver(self):
        for alpha in (Q(1), Q(2), Q(3), Q(1, 2)):
            closed = alpha_family_series(alpha, 15)
            family = families.from_spec(f"polyalpha:{rational_to_string(alpha)}")
            solved = solve_increasing(family, 15)
            assert closed == solved

    def test_counts_match_series(self):
        for alpha in (Q(1), Q(3), Q(2, 5)):
            T = alpha_family_series(alpha, 12)
            for n in range(1, 13):
                assert alpha_family_count(alpha, n) == factorial(n) * T.coeff(n)

    def test_domain(self):
        with pytest.raises(HookTreesError, match="alpha must be positive, got 0"):
            alpha_family_series(0, 5)
        with pytest.raises(HookTreesError, match="alpha must be positive, got -1"):
            alpha_family_count(Q(-1), 3)
