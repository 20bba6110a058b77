from fractions import Fraction as Q

import pytest

from hooktrees.errors import ExpressionError, HookTreesError
from hooktrees.series import TruncatedSeries

from eager_series import (
    constant,
    derivative,
    div,
    exp,
    geometric,
    identity,
    integrate,
    log,
    pow_int,
    pow_rational,
    power,
    zero,
)


def S(*coeffs, order=None):
    return TruncatedSeries(coeffs, order=order)


class TestConstruction:
    def test_order_is_length_minus_one(self):
        assert S(1, 2, 3).order == 2

    def test_padding(self):
        assert S(0, 1, order=4).coefficients == (0, 1, 0, 0, 0)

    def test_truncating_constructor(self):
        assert S(1, 2, 3, 4, order=1).coefficients == (1, 2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            S(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_equality_requires_matching_order(self):
        assert S(1, 2) != S(1, 2, 0)
        assert S(1, 2) == S(1, 2)


class TestAdd:
    def test_coefficientwise_min_order(self):
        assert S(1, 1) + S(0, 2, 5) == S(1, 3)

    def test_zero_identity(self):
        f = S(3, 1, 4, 1)
        assert f + zero(3) == f

    def test_additive_inverse(self):
        f = S(0, 1, 1, 2, 5)
        assert f + (-f) == zero(4)


class TestMul:
    def test_reciprocal_pair(self):
        one_minus_z = S(1, -1, order=3)
        assert geometric(3) * one_minus_z == S(1, 0, 0, 0)

    def test_z_squared(self):
        z = identity(2)
        assert z * z == S(0, 0, 1)

    def test_hand_cauchy_product(self):
        f = S(0, 1, 2, 5)
        assert f * f == S(0, 0, 1, 4)


class TestDiv:
    def test_geometric(self):
        assert div(constant(1, 5), S(1, -1, order=5)) == geometric(5)

    def test_self_division(self):
        f = S(2, 5, -1, 7)
        assert div(f, f) == constant(1, 3)

    def test_geometric_ratio_two(self):
        assert div(constant(1, 3), S(1, -2, order=3)) == S(1, 2, 4, 8)

    def test_zero_constant_term(self):
        with pytest.raises(ExpressionError, match="cannot divide by a series"):
            div(constant(1, 3), identity(3))

    def test_mul_div_roundtrip(self):
        f = S(2, -3, Q(1, 2), 4)
        g = S(5, 1, 1, -2)
        assert div(f * g, g) == f


class TestPowInt:
    def test_binomial_square(self):
        assert power(S(1, 1), 2) == S(1, 2, 1, order=1)
        assert power(S(1, 1, order=2), 2) == S(1, 2, 1)

    def test_power_zero(self):
        assert power(S(0, 7, -2), 0) == constant(1, 2)

    def test_negative_power(self):
        assert power(S(1, 1, order=3), -1) == S(1, -1, 1, -1)

    def test_negative_power_needs_unit(self):
        with pytest.raises(ExpressionError, match="negative power of a series"):
            power(identity(3), -2)


class TestPowRational:
    def test_sqrt_of_one_minus_2z(self):
        f = S(1, -2, order=4)
        assert power(f, Q(1, 2)) == S(1, -1, Q(-1, 2), Q(-1, 2), Q(-5, 8))

    def test_exponent_one(self):
        f = S(1, 3, -2, 5)
        assert pow_rational(f, Q(1)) == f

    def test_integer_exponent_via_rational(self):
        assert power(S(1, -1, order=4), Q(-2)) == S(1, 2, 3, 4, 5)

    def test_requires_unit_constant_term(self):
        with pytest.raises(ExpressionError, match="rational power requires constant term"):
            pow_rational(S(2, 1, 1), Q(1, 2))

    def test_consistent_with_integer_powers(self):
        f = S(1, Q(1, 3), -2, 1, Q(2, 7), order=8)
        assert pow_int(pow_rational(f, Q(3, 2)), 2) == pow_int(f, 3)


class TestExpLog:
    def test_exp_z(self):
        assert exp(identity(4)) == S(1, 1, Q(1, 2), Q(1, 6), Q(1, 24))

    def test_exp_zero(self):
        assert exp(zero(5)) == constant(1, 5)

    def test_exp_log_geometric(self):
        assert exp(log(geometric(6))) == geometric(6)

    def test_log_one_plus_z(self):
        assert log(S(1, 1, order=4)) == S(0, 1, Q(-1, 2), Q(1, 3), Q(-1, 4))

    def test_log_geometric(self):
        assert log(geometric(4)) == S(0, 1, Q(1, 2), Q(1, 3), Q(1, 4))

    def test_log_exp_roundtrip(self):
        f = S(0, 1, 1, order=4)
        assert log(exp(f)) == S(0, 1, 1, 0, 0)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ExpressionError, match="exp requires constant term exactly 0"):
            exp(constant(1, 3))

    def test_log_requires_unit(self):
        with pytest.raises(ExpressionError, match="log requires constant term exactly 1"):
            log(S(2, 1, 1))


class TestCompose:
    def test_fibonacci(self):
        inner = S(0, 1, 1, order=3)
        assert geometric(3).compose(inner) == S(1, 1, 2, 3)

    def test_identity_substitution(self):
        f = S(3, -1, Q(2, 5), 7)
        assert f.compose(identity(3)) == f

    def test_hand_expansion(self):
        f = S(1, 2, 1, order=3)
        inner = S(0, 1, 1, order=3)
        assert f.compose(inner) == S(1, 2, 3, 2)

    def test_inner_constant_rejected(self):
        with pytest.raises(HookTreesError, match="composition requires the inner series"):
            geometric(3).compose(constant(1, 3))


class TestRevert:
    def test_z_over_one_minus_z(self):
        f = S(0, 1, 1, 1)
        g = f.revert()
        assert g == S(0, 1, -1, 1)
        assert f.compose(g) == identity(3)

    def test_identity(self):
        assert identity(5).revert() == identity(5)

    def test_linear(self):
        assert S(0, 2).revert() == S(0, Q(1, 2))

    @pytest.mark.parametrize("bad", [S(1, 1, 1), S(0, 0, 1), constant(0, 4)])
    def test_not_revertible(self, bad):
        with pytest.raises(HookTreesError, match="reversion requires constant term 0"):
            bad.revert()


class TestCalculus:
    def test_derivative(self):
        assert derivative(S(1, 1, 1, 1)) == S(1, 2, 3)

    def test_integrate(self):
        assert integrate(S(1, 1, 1)) == S(0, 1, Q(1, 2), Q(1, 3))

    def test_integrate_derivative(self):
        f = S(5, 1, -2, Q(3, 4))
        assert integrate(derivative(f)) == f - 5

    def test_derivative_integrate(self):
        f = S(5, 1, -2, Q(3, 4))
        assert derivative(integrate(f)) == f


class TestCoeff:
    def test_extraction(self):
        assert S(0, 1, 2, 5).coeff(3) == 5

    def test_constant_term(self):
        assert S(7, 1).coeff(0) == 7

    def test_geometric_all_ones(self):
        g = geometric(9)
        assert all(g.coeff(k) == 1 for k in range(10))

    def test_order_exceeded(self):
        with pytest.raises(HookTreesError, match=r"coefficient \[z\^5\] requested"):
            S(1, 2).coeff(5)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            S(1, 2).coeff(-1)


class TestSerialization:
    def test_wire_format(self):
        f = S(0, 1, Q(1, 2), Q(-3, 4))
        assert f.to_strings() == ["0", "1", "1/2", "-3/4"]

    def test_roundtrip(self):
        f = S(Q(22, 7), -5, Q(1, 3))
        assert TruncatedSeries.from_strings(f.to_strings()) == f

    def test_rejects_decimals(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_strings(["0.5"])

    def test_long_integers_are_exact_both_ways(self):
        big = 10**20000
        f = S(big, Q(-big - 1, 3), Q(7, big))
        strings = ["1" + "0" * 20000, "-1" + "0" * 19999 + "1/3", "7/1" + "0" * 20000]
        assert f.to_strings() == strings
        assert TruncatedSeries.from_strings(strings) == f


class TestScalarMixing:
    def test_scalar_add_mul(self):
        f = S(1, 2, 3)
        assert 1 + f == S(2, 2, 3)
        assert 2 * f == S(2, 4, 6)
        assert f - 1 == S(0, 2, 3)
        assert div(f, 2) == S(Q(1, 2), 1, Q(3, 2))
