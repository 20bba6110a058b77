"""Hook-weight calculus for weighted ordered-tree families.

Everything here revolves around one triangular relation between three
objects: a degree-weight family phi, a hook weight function rho on the
positive integers, and the counting series

    F(z) = sum_n ( sum over trees of size n of w_deg * w_hook ) z^n.

Splitting a tree of size n at its root shows that

    [z^n] F = rho(n) * d_n,    d_n = [z^{n-1}] phi(F(z)).

d_n involves only F_0..F_{n-1}, so one walk, :func:`_walk`, takes n from
1 upwards: it evaluates ``phi(F)`` online (see
:class:`gfparse.OnlineSeries`), hands d_n to a callback that returns F_n,
and extends ``phi(F)`` by F_n.  Coefficient n costs O(n) operations per
expression node, order N costs O(N^2).  The walk has three rules:
F_n = rho(n) * d_n is :func:`series_from_rho`, a known F_n gives
:func:`rho_from_series` its denominators, and the forest rule below.  A
model is a named hook weight: ``sg`` weighs every hook 1, which solves
``T = z*phi(T)`` (:func:`solve_simply_generated`), and ``inc`` a hook of
length h by 1/h, which solves ``T' = phi(T)`` (:func:`solve_increasing`,
plain coefficients ``T_n/n!``).  Each is ``series_from_rho`` at its
weight, which :func:`rho_from_model` returns where every d_n != 0.

:func:`rho_from_forest` reads the relation from G = phi(F), so d_n =
G_{n-1} is given and F is unknown.  It is the same walk: F_n is solved
from ``[z^n] phi(F) = G_n``, which holds F_n linearly with coefficient
``phi_1``, so its callback peeks at ``[z^n] phi(F)`` with F_n = 0 and
the walk extends ``phi(F)`` by the solved value.  The tests hold the
solvers against composition, against the eager series algebra in
``tests/eager_series.py`` and against the closed forms of
``tests/test_catalogue.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import truediv

from . import gfparse
from ._record import Record
from .errors import DenominatorVanishes, HookTreesError, UndefinedConstant
from .families import DegreeWeightFamily
from .rational import as_rational, rational_from_string, rational_to_string
from .series import TruncatedSeries

__all__ = [
    "HookWeightFunction",
    "solve_simply_generated",
    "solve_increasing",
    "egf_counts",
    "rho_from_series",
    "rho_from_model",
    "series_from_rho",
    "rho_from_forest",
    "check_tree_series",
    "check_forest_series",
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
            raise HookTreesError(f"rho({n}) requested but the table covers 1..{len(self.values)}")
        return self.values[n - 1]

    def to_strings(self) -> list[str]:
        return [rational_to_string(v) for v in self.values]

    @classmethod
    def from_spec(cls, spec, size: int, binding=None) -> "HookWeightFunction":
        """CLI form: comma-separated rationals, or one :mod:`gfparse`
        expression in the hook length ``n`` evaluated at n = 1..size, its
        other parameters bound by ``binding``; ``spec`` is that text or
        what :meth:`read_spec` read from it.  A division by zero at some
        n raises :class:`DenominatorVanishes` for that n."""
        spec = cls.read_spec(spec)
        if isinstance(spec, str):
            values = tuple(rational_from_string(v) for v in spec.split(","))
            if len(values) < size:
                raise ValueError(
                    f"explicit rho table has {len(values)} entries, need {size}"
                )
            return cls(values[:size])
        binding = dict(binding or {})
        values = []
        for n in range(1, size + 1):
            binding["n"] = n
            try:
                values.append(gfparse.const_eval(spec, binding, "in rho(n)"))
            except UndefinedConstant as err:
                raise DenominatorVanishes(n, str(err)) from None
        return cls(values)

    @staticmethod
    def read_spec(spec):
        """``spec`` as :meth:`from_spec` and :meth:`spec_parameters` read
        it: the text of a comma table as it is, other text parsed into
        its expression, and an expression as it is.  Reading the text
        once lets a caller ask for both without parsing it twice."""
        return gfparse.parse(spec) if isinstance(spec, str) and "," not in spec else spec

    @staticmethod
    def spec_parameters(spec) -> set[str]:
        """The parameters that :meth:`from_spec` reads from ``spec``."""
        spec = HookWeightFunction.read_spec(spec)
        return set() if isinstance(spec, str) else gfparse.parameters(spec) - {"n"}


# --- the triangular walk -------------------------------------------------------------


def _walk(phi_of_F: gfparse.OnlineSeries, upto: int, next_coefficient):
    """For n = 1..upto, F_n = ``next_coefficient(n, d_n)`` with
    ``d_n = [z^{n-1}] phi(F)``, ``phi_of_F`` a fresh ``family.phi_at()``;
    returns F, with ``F(0) = 0``, and ``[d_1, .., d_upto]``."""
    if upto < 1:
        raise ValueError("order must be at least 1")
    F = [Fraction(0)]
    for n in range(1, upto + 1):
        if n > 1:
            phi_of_F.extend(F[n - 1])
        F.append(next_coefficient(n, phi_of_F.coefficients[n - 1]))
    return TruncatedSeries(F), phi_of_F.coefficients


def _denominators(d: list, of: str) -> list:
    """``d``, where ``d[n-1] = [z^{n-1}] of``; raises at its first 0."""
    if 0 in d:
        n = d.index(0) + 1
        raise DenominatorVanishes(
            n, f"denominator coefficient vanishes ([z^{n - 1}] {of} = 0)"
        )
    return d


_MODELS = {
    "sg": lambda order: HookWeightFunction([Fraction(1)] * order),
    "inc": lambda order: HookWeightFunction(map(Fraction, [1] * order, range(1, order + 1))),
}


def solve_simply_generated(family: DegreeWeightFamily, order: int) -> TruncatedSeries:
    """The unique series T with ``T(0)=0`` and ``T = z*phi(T)``: the walk
    with ``T_n = [z^{n-1}] phi(T)``: :func:`series_from_rho` at rho = 1."""
    return series_from_rho(_MODELS["sg"](order), family, order)


def solve_increasing(family: DegreeWeightFamily, order: int) -> TruncatedSeries:
    """Exponential-generating-function solution of ``T' = phi(T)``, ``T(0)=0``.

    Returned as plain coefficients ``[z^n]T = T_n/n!``; use
    :func:`egf_counts` for the counts ``T_n`` themselves.  The walk with
    ``n*[z^n]T = [z^{n-1}] phi(T)``: :func:`series_from_rho` at rho(h) = 1/h.
    """
    return series_from_rho(_MODELS["inc"](order), family, order)


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
    check_tree_series(F, upto)
    _, d = _walk(family.phi_at(), upto, lambda n, d_n: F.coeff(n))
    return HookWeightFunction(map(truediv, F.coefficients[1:], _denominators(d, "phi(F)")))


def rho_from_model(family: DegreeWeightFamily, order: int, model: str) -> HookWeightFunction:
    """:func:`rho_from_series` of the series that ``model`` solves (``"sg"``:
    :func:`solve_simply_generated`, ``"inc"``: :func:`solve_increasing`), so
    the model's own weight; raises where d_n, so F_n = rho(n) * d_n, is 0."""
    rho = _MODELS[model](order)
    _denominators(series_from_rho(rho, family, order).coefficients[1:], "phi(F)")
    return rho


def series_from_rho(
    rho: HookWeightFunction, family: DegreeWeightFamily, order: int
) -> TruncatedSeries:
    """The unique F with ``F(0)=0`` and ``[z^n]F = rho(n)*[z^{n-1}]phi(F)``:
    the walk itself; in particular ``F_1 = phi_0 * rho(1)``."""
    if rho.size < order:
        raise HookTreesError(f"rho covers 1..{rho.size} but order {order} was requested")
    w = rho.values  # a weight of 1 skips its product, so sg costs what a bare walk costs
    return _walk(family.phi_at(), order, lambda n, d: d if w[n - 1] == 1 else w[n - 1] * d)[0]


def rho_from_forest(
    G: TruncatedSeries, family: DegreeWeightFamily, upto: int
) -> HookWeightFunction:
    """Recover rho from a forest-side series ``G = phi(F)``.

    Solves ``phi(F) = G`` for the tree series F with ``F(0) = 0``, then
    ``rho(n) = [z^n] F / [z^{n-1}] G``.  F_n enters ``[z^n] phi(F)``
    linearly, with coefficient ``phi_1``, so the walk's rule is
    ``F_n = (G_n - [z^n] phi(F)|_{F_n = 0}) / phi_1``, the second term a
    :meth:`~gfparse.OnlineSeries.peek`; its d list is then G_0..G_{upto-1}.
    Requires :func:`check_forest_series` to pass and ``phi_1 != 0``.
    """
    if upto < 1:
        raise ValueError("upto must be at least 1")
    check_forest_series(G, family, upto)
    phi1 = family.weight_of_degree(1)
    if phi1 == 0:
        raise HookTreesError("phi_1 = 0: the degree-weight series has no compositional inverse")
    phi_of_F = family.phi_at()
    F, d = _walk(phi_of_F, upto, lambda n, d_n: (G.coeff(n) - phi_of_F.peek()) / phi1)
    return HookWeightFunction(map(truediv, F.coefficients[1:], _denominators(d, "G")))


def check_tree_series(F: TruncatedSeries, upto: int) -> None:
    """Refuse a tree series F that :func:`rho_from_series` cannot read to
    ``upto``: ``F(0) != 0``, or F known to a lower order."""
    if F.coeff(0) != 0:
        raise HookTreesError("a tree counting series must have F(0) = 0")
    if F.order < upto:
        raise HookTreesError(
            f"F is known to order {F.order} but rho(1..{upto}) needs order {upto}"
        )


def check_forest_series(G: TruncatedSeries, family: DegreeWeightFamily, upto: int) -> None:
    """Refuse a forest series G that :func:`rho_from_forest` cannot read
    to ``upto``: G known to a lower order, or ``G(0) != phi_0``."""
    if G.order < upto:
        raise HookTreesError(
            f"G is known to order {G.order} but rho(1..{upto}) needs order {upto}"
        )
    phi0 = family.weight_of_degree(0)
    if G.coeff(0) != phi0:
        raise HookTreesError(
            f"G(0) = {rational_to_string(G.coeff(0))} but the family has "
            f"phi_0 = {rational_to_string(phi0)}"
        )
