"""Hook-weight calculus for weighted ordered-tree families.

Everything here revolves around one triangular relation between three
objects: a degree-weight family phi, a hook weight function rho on the
positive integers, and the counting series

    F(z) = sum_n ( sum over trees of size n of w_deg * w_hook ) z^n.

Splitting a tree of size n at its root shows that

    [z^n] F = rho(n) * [z^{n-1}] phi(F(z)),

which can be read in both directions: :func:`series_from_rho` builds F
coefficient by coefficient, and :func:`rho_from_series` recovers rho as a
quotient of coefficients.  :func:`rho_from_forest` is the same calculus
applied to G = phi(F): it solves ``phi(F) = G`` for F one coefficient at
a time, since F_n enters ``[z^n] phi(F)`` linearly, with coefficient
``phi_1``.

Two classical solvers are included for the unweighted equations:
``T = z*phi(T)`` for simply generated families (ordinary generating
function) and ``T' = phi(T)`` for increasing families (exponential
generating function, stored as plain coefficients ``T_n/n!``).

Every solver evaluates ``phi(F)`` online (see :class:`gfparse.OnlineSeries`):
it hands each new coefficient F_n to ``extend``, which returns the next
coefficient of ``phi(F)``, so coefficient n costs O(n) operations per
expression node and order N costs O(N^2), instead of composing phi with
the whole partial series again at every step.  The tests hold the
solvers against composition, against the eager series algebra in
``tests/eager_series.py`` and against the closed forms of
``tests/test_catalogue.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._record import Record
from .errors import (
    ConstantMismatch,
    DenominatorVanishes,
    NotInvertible,
    OrderExceeded,
    RhoRangeExceeded,
)
from .families import DegreeWeightFamily
from .rational import as_rational, rational_from_string, rational_to_string
from .series import TruncatedSeries

__all__ = [
    "HookWeightFunction",
    "solve_simply_generated",
    "solve_increasing",
    "egf_counts",
    "rho_from_series",
    "series_from_rho",
    "rho_from_forest",
]


class HookWeightFunction(Record):
    """A table ``rho(1..N)`` of exact rationals.

    ``values`` may hold ints and Fractions and is stored as a tuple of
    Fractions; tables are immutable and compare by their values.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        super().__init__(tuple(as_rational(v) for v in values))

    @property
    def size(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise RhoRangeExceeded(
                f"rho({n}) requested but the table covers 1..{len(self.values)}"
            )
        return self.values[n - 1]

    def to_strings(self) -> list[str]:
        return [rational_to_string(v) for v in self.values]

    @classmethod
    def named(cls, name: str, size: int) -> "HookWeightFunction":
        """The builtin tables ``1``, ``1/n`` and ``n``."""
        if size < 1:
            raise ValueError("table size must be at least 1")
        if name == "1":
            values = [Fraction(1)] * size
        elif name == "1/n":
            values = [Fraction(1, n) for n in range(1, size + 1)]
        elif name == "n":
            values = [Fraction(n) for n in range(1, size + 1)]
        else:
            raise ValueError(f"unknown named weight table {name!r}")
        return cls(tuple(values))

    @classmethod
    def from_spec(cls, text: str, size: int) -> "HookWeightFunction":
        """CLI form: a named table or comma-separated explicit values."""
        text = text.strip()
        if text in ("1", "1/n", "n"):
            return cls.named(text, size)
        values = tuple(rational_from_string(v) for v in text.split(","))
        if len(values) < size:
            raise ValueError(
                f"explicit rho table has {len(values)} entries, need {size}"
            )
        return cls(values[:size])


# --- solvers for the two classical equations ----------------------------------


def _solve(family: DegreeWeightFamily, order: int, weight) -> TruncatedSeries:
    """The unique F with ``F(0) = 0`` and ``F_n = weight(n) * [z^{n-1}] phi(F)``.

    Triangular: the right side only involves coefficients of index below n,
    and extending phi(F) by F_{n-1} yields ``[z^{n-1}] phi(F)``.
    """
    phi_of_F = family.phi_at()
    F = [Fraction(0), weight(1) * phi_of_F.coefficients[0]]
    for n in range(2, order + 1):
        F.append(weight(n) * phi_of_F.extend(F[n - 1]))
    return TruncatedSeries(F)


def solve_simply_generated(family: DegreeWeightFamily, order: int) -> TruncatedSeries:
    """The unique series T with ``T(0)=0`` and ``T = z*phi(T)``.

    Triangular: ``T_n = [z^{n-1}] phi(T)`` only involves coefficients of
    index below n, so the series is built one coefficient at a time.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    return _solve(family, order, lambda n: 1)


def solve_increasing(family: DegreeWeightFamily, order: int) -> TruncatedSeries:
    """Exponential-generating-function solution of ``T' = phi(T)``, ``T(0)=0``.

    Returned as plain coefficients ``[z^n]T = T_n/n!``; use
    :func:`egf_counts` for the counts ``T_n`` themselves.  Triangular:
    ``n*[z^n]T = [z^{n-1}] phi(T)``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    return _solve(family, order, lambda n: Fraction(1, n))


def egf_counts(series: TruncatedSeries) -> list[Fraction]:
    """``n! * [z^n]`` for each n: counts behind an EGF's coefficients."""
    return [factorial(n) * c for n, c in enumerate(series.coefficients)]


# --- rho extraction and the inverse recurrence -----------------------------------


def rho_from_series(
    F: TruncatedSeries, family: DegreeWeightFamily, upto: int
) -> HookWeightFunction:
    """Recover ``rho(1..upto)`` from the weighted counting series F.

    ``rho(n) = [z^n]F / [z^{n-1}] phi(F)``, each entry an exact quotient.
    Raises :class:`DenominatorVanishes` where the quotient is undefined.
    """
    _check_tree_series(F, upto)
    phi_of_F = family.phi_at()
    values = []
    for n in range(1, upto + 1):
        den = phi_of_F.extend(F.coeff(n - 1)) if n > 1 else phi_of_F.coefficients[0]
        if den == 0:
            raise DenominatorVanishes(n, "[z^{n-1}] phi(F) = 0")
        values.append(F.coeff(n) / den)
    return HookWeightFunction(tuple(values))


def series_from_rho(
    rho: HookWeightFunction, family: DegreeWeightFamily, order: int
) -> TruncatedSeries:
    """The unique F with ``F(0)=0`` and ``[z^n]F = rho(n)*[z^{n-1}]phi(F)``.

    The right side only involves coefficients of index below n, so the
    series is built triangularly; in particular ``F_1 = phi_0 * rho(1)``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if rho.size < order:
        raise RhoRangeExceeded(
            f"rho covers 1..{rho.size} but order {order} was requested"
        )
    return _solve(family, order, rho)


def rho_from_forest(
    G: TruncatedSeries, family: DegreeWeightFamily, upto: int
) -> HookWeightFunction:
    """Recover rho from a forest-side series ``G = phi(F)``.

    Solves ``phi(F) = G`` for the tree series F with ``F(0) = 0``, then
    ``rho(n) = [z^n] F / [z^{n-1}] G``.  F_n enters ``[z^n] phi(F)``
    linearly, with coefficient ``phi_1``, so each step evaluates
    ``[z^n] phi(F)`` with F_n = 0 and solves for F_n.  Requires
    ``G(0) = phi_0`` exactly and ``phi_1 != 0``.
    """
    if upto < 1:
        raise ValueError("upto must be at least 1")
    if G.order < upto:
        raise OrderExceeded(
            f"G is known to order {G.order} but rho(1..{upto}) needs order {upto}"
        )
    phi = family.phi_series(1)
    phi0, phi1 = phi.coeff(0), phi.coeff(1)
    if G.coeff(0) != phi0:
        raise ConstantMismatch(
            f"G(0) = {rational_to_string(G.coeff(0))} but the family has "
            f"phi_0 = {rational_to_string(phi0)}"
        )
    if phi1 == 0:
        raise NotInvertible(
            "phi_1 = 0: the degree-weight series has no compositional inverse"
        )
    F = [Fraction(0)]
    phi_of_F = family.phi_at()
    for n in range(1, upto + 1):
        rest = phi_of_F.extend(Fraction(0))
        phi_of_F.retract()
        F.append((G.coeff(n) - rest) / phi1)
        phi_of_F.extend(F[n])
    values = []
    for n in range(1, upto + 1):
        den = G.coeff(n - 1)
        if den == 0:
            raise DenominatorVanishes(n, "[z^{n-1}] G = 0")
        values.append(F[n] / den)
    return HookWeightFunction(tuple(values))


def _check_tree_series(F: TruncatedSeries, upto: int) -> None:
    if upto < 1:
        raise ValueError("upto must be at least 1")
    if F.coeff(0) != 0:
        raise ValueError("a tree counting series must have F(0) = 0")
    if F.order < upto:
        raise OrderExceeded(
            f"F is known to order {F.order} but rho(1..{upto}) needs order {upto}"
        )
