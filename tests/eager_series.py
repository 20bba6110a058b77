"""The eager series algebra: the tests' reference for the online evaluator.

The package computes every series online (``gfparse.OnlineSeries``).
These functions compute the same operations the plain way, on whole
:class:`TruncatedSeries` values: division, integer and rational powers,
exp, log, the formal derivative and antiderivative, plus three closed
forms for binary trees and for ``phi(t) = 1/(1-t)^alpha``.  They share no
code with the online nodes, so the tests hold the two against each other
by exact equality.  This module is imported by the tests and is not
collected by pytest.
"""

from fractions import Fraction
from math import factorial

from hooktrees.errors import DenominatorVanishes, ExpressionError, HookTreesError
from hooktrees.hookcalc import HookWeightFunction, check_tree_series
from hooktrees.rational import Rational, as_rational
from hooktrees.series import TruncatedSeries

# --- constructors ------------------------------------------------------------------


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries([0], order=order)


def constant(value: Rational, order: int) -> TruncatedSeries:
    return TruncatedSeries([as_rational(value)], order=order)


def identity(order: int) -> TruncatedSeries:
    """The series ``z``."""
    if order < 1:
        raise ValueError("the identity series needs order >= 1")
    return TruncatedSeries([0, 1], order=order)


def geometric(order: int) -> TruncatedSeries:
    """``1/(1-z)``: all coefficients 1."""
    return TruncatedSeries([1] * (order + 1))


# --- division and powers -------------------------------------------------------------


def div(a, b) -> TruncatedSeries:
    """``a / b`` for series or scalars, at least one of them a series."""
    if not isinstance(a, TruncatedSeries):
        a = constant(a, b.order)
    if not isinstance(b, TruncatedSeries):
        scalar = as_rational(b)
        if scalar == 0:
            raise ZeroDivisionError("division of a series by the scalar 0")
        return a * (Fraction(1) / scalar)
    if b.coefficients[0] == 0:
        raise ExpressionError("cannot divide by a series with constant term 0")
    n = min(a.order, b.order)
    g0 = b.coefficients[0]
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = a.coefficients[k]
        for i in range(k):
            acc -= out[i] * b.coefficients[k - i]
        out[k] = acc / g0
    return TruncatedSeries(out)


def power(f: TruncatedSeries, exponent) -> TruncatedSeries:
    """``f ** exponent``: an integer power, or else a rational one."""
    e = as_rational(exponent)
    if e.denominator == 1:
        return pow_int(f, e.numerator)
    return pow_rational(f, e)


def pow_int(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """Integer power by binary exponentiation; ``k=0`` gives 1."""
    if k == 0:
        return constant(1, f.order)
    if k < 0:
        if f.coefficients[0] == 0:
            raise ExpressionError("negative power of a series with constant term 0")
        return pow_int(div(constant(1, f.order), f), -k)
    base = f
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def pow_rational(f: TruncatedSeries, a: Fraction) -> TruncatedSeries:
    """Binomial series ``f^a`` for rational ``a``; needs ``f(0) = 1``.

    Coefficients come from the first-order recurrence obtained by
    matching ``f * (f^a)' = a * f' * f^a`` termwise:

        n*c_n = sum_{j=1..n} ((a+1)*j - n) * f_j * c_{n-j}
    """
    a = as_rational(a)
    if f.coefficients[0] != 1:
        raise ExpressionError("rational power requires constant term exactly 1")
    if a.denominator == 1:
        return pow_int(f, a.numerator)
    n = f.order
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            fj = f.coefficients[j]
            if fj != 0:
                acc += ((a + 1) * j - m) * fj * out[m - j]
        out[m] = acc / m
    return TruncatedSeries(out)


# --- calculus -------------------------------------------------------------------------


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Formal derivative; drops the order by one (floor at 0)."""
    if f.order == 0:
        return TruncatedSeries([0])
    return TruncatedSeries([k * f.coefficients[k] for k in range(1, f.order + 1)])


def integrate(f: TruncatedSeries) -> TruncatedSeries:
    """Formal antiderivative with constant term 0; raises order by one."""
    out = [Fraction(0)]
    out.extend(f.coefficients[k] / (k + 1) for k in range(f.order + 1))
    return TruncatedSeries(out)


# --- transcendental operations ---------------------------------------------------------


def exp(f: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series with constant term 0.

    Termwise form of ``(exp f)' = f' * exp f``:
    ``n*E_n = sum_{j=1..n} j * f_j * E_{n-j}``, ``E_0 = 1``.
    """
    if f.coeff(0) != 0:
        raise ExpressionError("exp requires constant term exactly 0")
    n = f.order
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            fj = f.coefficients[j]
            if fj != 0:
                acc += j * fj * out[m - j]
        out[m] = acc / m
    return TruncatedSeries(out)


def log(f: TruncatedSeries) -> TruncatedSeries:
    """Logarithm of a series with constant term 1.

    Termwise form of ``f * (log f)' = f'``:
    ``n*L_n = n*f_n - sum_{j=1..n-1} f_j * (n-j) * L_{n-j}``, ``L_0 = 0``.
    """
    if f.coeff(0) != 1:
        raise ExpressionError("log requires constant term exactly 1")
    n = f.order
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * f.coefficients[m]
        for j in range(1, m):
            fj = f.coefficients[j]
            if fj != 0:
                acc -= fj * (m - j) * out[m - j]
        out[m] = acc / m
    return TruncatedSeries(out)


# --- closed forms ---------------------------------------------------------------------


def binary_rho(F: TruncatedSeries, upto: int) -> HookWeightFunction:
    """The binary-tree special case ``rho(n) = [z^n]F / [z^{n-1}](1+F)^2``.

    Implemented directly on the series (no family object) so it can serve
    as an independent cross-check of ``hookcalc.rho_from_series`` at
    ``phi = (1+t)^2``.
    """
    check_tree_series(F, upto)
    den_series = pow_int(F.truncate(upto - 1) + 1, 2)
    values = []
    for n in range(1, upto + 1):
        den = den_series.coeff(n - 1)
        if den == 0:
            raise DenominatorVanishes(
                n, "denominator coefficient vanishes ([z^{n-1}] (1+F)^2 = 0)"
            )
        values.append(F.coeff(n) / den)
    return HookWeightFunction(tuple(values))


def alpha_family_series(alpha: Rational, order: int) -> TruncatedSeries:
    """Closed-form EGF coefficients for ``phi(t) = 1/(1-t)^alpha``:

    ``T(z) = 1 - (1 - (alpha+1) z)^(1/(alpha+1))``, expanded exactly.
    """
    alpha = _check_alpha(alpha)
    if order < 1:
        raise ValueError("order must be at least 1")
    a1 = alpha + 1
    base = TruncatedSeries([1, -a1], order=order)
    return 1 - pow_rational(base, Fraction(1) / a1)


def alpha_family_count(alpha: Rational, n: int) -> Fraction:
    """The count ``T_n = (alpha+1)^(n-1) * (n-1)! * C(n-1-1/(alpha+1), n-1)``
    for ``phi(t) = 1/(1-t)^alpha``, with the generalized binomial
    coefficient expanded as a falling factorial.  Equals
    ``n! * [z^n]`` of :func:`alpha_family_series`.
    """
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ValueError("n must be at least 1")
    a1 = alpha + 1
    x = n - 1 - Fraction(1) / a1
    binom = Fraction(1)
    for i in range(n - 1):
        binom *= x - i
    binom /= factorial(n - 1)
    return a1 ** (n - 1) * factorial(n - 1) * binom


def _check_alpha(alpha: Rational) -> Fraction:
    alpha = as_rational(alpha)
    if alpha <= 0:
        raise HookTreesError(f"alpha must be positive, got {alpha}")
    return alpha
