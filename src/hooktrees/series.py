"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds the coefficients ``[z^0] .. [z^N]`` of a
formal power series, each an exact :class:`fractions.Fraction`.  ``N`` is
the *order*: everything above it is unknown, not zero.  Binary operations
truncate to the smaller of the two orders, so coefficient extraction below
that order is always exact.  Equality is exact and requires matching
orders.

This is the value the solvers return and the CLI prints: it carries the
ring operations ``+``, ``-`` and ``*``, plus ``compose`` and ``revert``.
The package computes every series online through ``gfparse``; division,
powers, exp and log live there, as online nodes.  All values are
immutable; no operation mutates its inputs.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .errors import HookTreesError
from .rational import as_rational, rational_to_string

Scalar = int | Fraction

__all__ = ["TruncatedSeries"]


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
        """Exact ``[z^n]``; raises :class:`HookTreesError` past the order."""
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n > self.order:
            raise HookTreesError(
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
            raise HookTreesError(
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
        return _constant(as_rational(value), order)

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

    # --- composition ------------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """``f(g(z))`` by Horner evaluation; needs ``g(0) = 0``."""
        if inner._coeffs[0] != 0:
            raise HookTreesError("composition requires the inner series to have constant term 0")
        n = self._common(inner)
        g = inner.truncate(n)
        result = _constant(self._coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * g + self._coeffs[k]
        return result

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse g with ``f(g(z)) = z``, to the same order.

        Solved order by order: each new coefficient is fixed by requiring
        ``[z^n] f(g) = 0`` and dividing by the (nonzero) linear term.
        """
        if self._coeffs[0] != 0 or self.order < 1 or self._coeffs[1] == 0:
            raise HookTreesError("reversion requires constant term 0 and a nonzero linear term")
        n = self.order
        f1 = self._coeffs[1]
        out = [Fraction(0)] * (n + 1)
        out[1] = Fraction(1) / f1
        for m in range(2, n + 1):
            partial = TruncatedSeries(out[: m + 1])
            residue = self.truncate(m).compose(partial).coeff(m)
            out[m] = -residue / f1
        return TruncatedSeries(out)

    # --- output ------------------------------------------------------------------

    def to_strings(self) -> list[str]:
        """One ``"p"``/``"p/q"`` string per coefficient, as the CLI prints them."""
        return [rational_to_string(c) for c in self._coeffs]


def _constant(value: Scalar, order: int) -> TruncatedSeries:
    return TruncatedSeries([as_rational(value)], order=order)
