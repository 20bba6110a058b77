"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds the coefficients ``[z^0] .. [z^N]`` of a
formal power series, each an exact :class:`fractions.Fraction`.  ``N`` is
the *order*: everything above it is unknown, not zero.  Binary operations
truncate to the smaller of the two orders, so coefficient extraction below
that order is always exact.  Equality is exact and requires matching
orders.

All values are immutable; no operation mutates its inputs.  These
eager operations are the reference implementation: the solvers in
``hookcalc`` evaluate expressions online through ``gfparse``, and the
tests hold them against composition, reversion, powers, exp and log
here.  So the code stays the plain quadratic (and, for ``compose`` and
``revert``, worse) algorithms, checked by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    ConstantTermNotOne,
    NonzeroConstantTerm,
    NonzeroInnerConstant,
    NotRevertible,
    OrderExceeded,
    ZeroConstantTerm,
)
from .rational import as_rational, rational_from_string, rational_to_string

Scalar = Union[int, Fraction]

__all__ = [
    "TruncatedSeries",
    "exp",
    "log",
    "geometric",
    "identity",
    "constant",
    "zero",
]


class TruncatedSeries:
    """A power series known exactly up to a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        """Build a series from coefficients ``[z^0], [z^1], ...``.

        With ``order`` given, the list is zero-padded or truncated to
        length ``order + 1``; padding asserts those coefficients are
        exactly zero.  Floats are rejected.
        """
        values = [as_rational(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if len(values) <= order:
                values.extend([Fraction(0)] * (order + 1 - len(values)))
            else:
                del values[order + 1:]
        elif not values:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = tuple(values)

    # --- introspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, n: int) -> Fraction:
        """Exact ``[z^n]``; raises :class:`OrderExceeded` past the order."""
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n > self.order:
            raise OrderExceeded(
                f"coefficient [z^{n}] requested but series is only known to order {self.order}"
            )
        return self._coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(rational_to_string(c) for c in self._coeffs)
        return f"TruncatedSeries([{body}])"

    # --- structural helpers ----------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        """View of the same series at a lower (or equal) order."""
        if order > self.order:
            raise OrderExceeded(
                f"cannot truncate to order {order}: only known to order {self.order}"
            )
        if order == self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    def _common(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    @staticmethod
    def _promote(value, order: int) -> "TruncatedSeries":
        if isinstance(value, TruncatedSeries):
            return value
        return constant(as_rational(value), order)

    # --- ring operations ---------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        try:
            other = self._promote(other, self.order)
        except TypeError:
            return NotImplemented
        n = self._common(other)
        return TruncatedSeries(
            [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other) -> "TruncatedSeries":
        try:
            other = self._promote(other, self.order)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            try:
                scalar = as_rational(other)
            except TypeError:
                return NotImplemented
            return TruncatedSeries([scalar * c for c in self._coeffs])
        n = self._common(other)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            ci = self._coeffs[i]
            if ci == 0:
                continue
            for j in range(n + 1 - i):
                cj = other._coeffs[j]
                if cj != 0:
                    out[i + j] += ci * cj
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            try:
                scalar = as_rational(other)
            except TypeError:
                return NotImplemented
            if scalar == 0:
                raise ZeroDivisionError("division of a series by the scalar 0")
            return self * (Fraction(1) / scalar)
        if other._coeffs[0] == 0:
            raise ZeroConstantTerm("cannot divide by a series with constant term 0")
        n = self._common(other)
        g0 = other._coeffs[0]
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = self._coeffs[k]
            for i in range(k):
                acc -= out[i] * other._coeffs[k - i]
            out[k] = acc / g0
        return TruncatedSeries(out)

    def __rtruediv__(self, other) -> "TruncatedSeries":
        return self._promote(other, self.order) / self

    # --- powers -------------------------------------------------------------

    def __pow__(self, exponent) -> "TruncatedSeries":
        e = as_rational(exponent)
        if e.denominator == 1:
            return self.pow_int(e.numerator)
        return self.pow_rational(e)

    def pow_int(self, k: int) -> "TruncatedSeries":
        """Integer power by binary exponentiation; ``k=0`` gives 1."""
        if k == 0:
            return constant(1, self.order)
        if k < 0:
            if self._coeffs[0] == 0:
                raise ZeroConstantTerm(
                    "negative power of a series with constant term 0"
                )
            return (constant(1, self.order) / self).pow_int(-k)
        base = self
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def pow_rational(self, a: Fraction) -> "TruncatedSeries":
        """Binomial series ``f^a`` for rational ``a``; needs ``f(0) = 1``.

        Coefficients come from the first-order recurrence obtained by
        matching ``f * (f^a)' = a * f' * f^a`` termwise:

            n*c_n = sum_{j=1..n} ((a+1)*j - n) * f_j * c_{n-j}
        """
        a = as_rational(a)
        if self._coeffs[0] != 1:
            raise ConstantTermNotOne(
                "rational power requires constant term exactly 1"
            )
        if a.denominator == 1:
            return self.pow_int(a.numerator)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, m + 1):
                fj = self._coeffs[j]
                if fj != 0:
                    acc += ((a + 1) * j - m) * fj * out[m - j]
            out[m] = acc / m
        return TruncatedSeries(out)

    # --- calculus -------------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; drops the order by one (floor at 0)."""
        if self.order == 0:
            return TruncatedSeries([0])
        return TruncatedSeries(
            [k * self._coeffs[k] for k in range(1, self.order + 1)]
        )

    def integrate(self) -> "TruncatedSeries":
        """Formal antiderivative with constant term 0; raises order by one."""
        out = [Fraction(0)]
        out.extend(self._coeffs[k] / (k + 1) for k in range(self.order + 1))
        return TruncatedSeries(out)

    # --- composition ------------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """``f(g(z))`` by Horner evaluation; needs ``g(0) = 0``."""
        if inner._coeffs[0] != 0:
            raise NonzeroInnerConstant(
                "composition requires the inner series to have constant term 0"
            )
        n = self._common(inner)
        g = inner.truncate(n)
        result = constant(self._coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * g + self._coeffs[k]
        return result

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse g with ``f(g(z)) = z``, to the same order.

        Solved order by order: each new coefficient is fixed by requiring
        ``[z^n] f(g) = 0`` and dividing by the (nonzero) linear term.
        """
        if self._coeffs[0] != 0 or self.order < 1 or self._coeffs[1] == 0:
            raise NotRevertible(
                "reversion requires constant term 0 and a nonzero linear term"
            )
        n = self.order
        f1 = self._coeffs[1]
        out = [Fraction(0)] * (n + 1)
        out[1] = Fraction(1) / f1
        for m in range(2, n + 1):
            partial = TruncatedSeries(out[: m + 1])
            residue = self.truncate(m).compose(partial).coeff(m)
            out[m] = -residue / f1
        return TruncatedSeries(out)

    # --- serialization -------------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Wire format: one ``"p"``/``"p/q"`` string per coefficient."""
        return [rational_to_string(c) for c in self._coeffs]

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "TruncatedSeries":
        return cls([rational_from_string(s) for s in items])


# --- constructors ------------------------------------------------------------------


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries([0], order=order)


def constant(value: Scalar, order: int) -> TruncatedSeries:
    return TruncatedSeries([as_rational(value)], order=order)


def identity(order: int) -> TruncatedSeries:
    """The series ``z``."""
    if order < 1:
        raise ValueError("the identity series needs order >= 1")
    return TruncatedSeries([0, 1], order=order)


def geometric(order: int) -> TruncatedSeries:
    """``1/(1-z)``: all coefficients 1."""
    return TruncatedSeries([1] * (order + 1))


# --- transcendental operations ------------------------------------------------------


def exp(f: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series with constant term 0.

    Termwise form of ``(exp f)' = f' * exp f``:
    ``n*E_n = sum_{j=1..n} j * f_j * E_{n-j}``, ``E_0 = 1``.
    """
    if f.coeff(0) != 0:
        raise NonzeroConstantTerm("exp requires constant term exactly 0")
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
        raise ConstantTermNotOne("log requires constant term exactly 1")
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
