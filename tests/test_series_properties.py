"""Algebraic laws of the series engine, exercised on random rationals."""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

settings.register_profile("series-laws", max_examples=40, deadline=None)
settings.load_profile("series-laws")

from hooktrees.series import TruncatedSeries

from eager_series import derivative, div, exp, identity, integrate, log, pow_int, pow_rational

ORDER = 16

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=30
)


def series_strategy(constant=None, nonzero_linear=False):
    def build(coeffs):
        values = list(coeffs)
        if constant is not None:
            values[0] = Q(constant)
        if nonzero_linear and values[1] == 0:
            values[1] = Q(1)
        return TruncatedSeries(values)

    return st.lists(rationals, min_size=ORDER + 1, max_size=ORDER + 1).map(build)


any_series = series_strategy()
unit_series = series_strategy(constant=1)
no_constant = series_strategy(constant=0)
revertible = series_strategy(constant=0, nonzero_linear=True)


@given(any_series, any_series)
def test_add_commutes(f, g):
    assert f + g == g + f


@given(any_series, any_series)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(any_series, any_series, any_series)
def test_add_associates(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(any_series, any_series, any_series)
def test_mul_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(any_series, any_series, any_series)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(any_series, unit_series)
def test_div_inverts_mul(f, g):
    assert div(f * g, g) == f


@given(revertible)
def test_revert_roundtrip(f):
    assert f.compose(f.revert()) == identity(ORDER)


@given(unit_series)
def test_exp_log_roundtrip(f):
    assert exp(log(f)) == f


@given(no_constant)
def test_log_exp_roundtrip(g):
    assert log(exp(g)) == g


@given(
    unit_series,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
def test_rational_power_matches_integer_power(f, p, q):
    assert pow_int(pow_rational(f, Q(p, q)), q) == pow_int(f, p)


@given(any_series)
def test_derivative_of_integral(f):
    assert derivative(integrate(f)) == f


@given(any_series)
def test_integral_of_derivative(f):
    assert integrate(derivative(f)) == f - f.coeff(0)
