"""Degree-weight families: the sequence ``phi_k`` behind a tree family.

A family assigns the multiplicative weight ``phi_k`` to every vertex of
out-degree ``k``; the weight of an ordered tree is the product over its
vertices.  The family is described by its generating function
``phi(t) = sum_k phi_k t^k``, held as a :mod:`gfparse` expression with
its parameter binding.  The builtins are one table of expressions,
named by spec strings (:func:`from_spec`): ``binary`` is ``(1+t)^2``,
``kary:k`` is ``(1+t)^k``, ``plane`` is ``1/(1-t)``, ``labelled`` is
``exp(t)``, ``yang:s,m`` is ``(1+s*t)^m`` and ``polyalpha:a`` is
``(1-t)^(-a)``.  These are the increasing-tree classes (1+st)^m,
1/(1-t)^a and exp(t) of Panholzer and Prodinger, "Level of nodes in
increasing trees revisited", Random Structures Algorithms 31, 2007.

The standing assumptions (``phi_0 > 0`` and some ``phi_k > 0`` with
``k >= 2``) are checked by :meth:`DegreeWeightFamily.validate` but not
enforced on construction: the algebra runs fine on degenerate input, and
the CLI decides whether to refuse it.
"""

from __future__ import annotations

from fractions import Fraction

from . import gfparse
from ._record import Record
from .errors import HookTreesError
from .rational import rational_from_string, rational_to_string
from .series import TruncatedSeries

__all__ = [
    "DegreeWeightFamily",
    "ValidationReport",
    "from_expression",
    "from_spec",
    "BUILTIN_NAMES",
]

# The negative-weight warning names this many degrees and counts the rest,
# so it stays one short line at any order.
_SHOWN_DEGREES = 5


class DegreeWeightFamily:
    """A degree-weight sequence given by an expression in ``t``.

    ``expression`` is a parsed :mod:`gfparse` tree and ``binding`` maps
    its parameters to exact rationals.  Construction compiles the
    expression, so an unbound parameter or a series the expression
    cannot form is reported at once.  The coefficients of ``phi(t)`` are
    computed online and kept; a longer request only extends them.
    """

    def __init__(
        self, name: str, expression: gfparse.GfExpr, binding: gfparse.ParamBinding
    ):
        self.name = name
        self.expression = expression
        self.binding = dict(binding)
        self._phi = self.phi_at()

    def __repr__(self) -> str:
        return f"DegreeWeightFamily({self.name!r})"

    def phi_at(self) -> gfparse.OnlineSeries:
        """``phi(F)`` as an online series in a fresh argument F (see
        :class:`gfparse.OnlineSeries`)."""
        return gfparse.OnlineSeries(self.expression, self.binding)

    def phi_series(self, order: int) -> TruncatedSeries:
        """The series ``phi(t)`` truncated exactly at ``order``."""
        if order < 0:
            raise ValueError("order must be non-negative")
        return TruncatedSeries(self._phi.at_z(order)[: order + 1])

    def weight_of_degree(self, k: int) -> Fraction:
        """``phi_k``, the weight of a vertex with ``k`` children."""
        if k < 0:
            raise ValueError("out-degree must be non-negative")
        return self._phi.at_z(k)[k]

    def validate(self, kmax: int) -> "ValidationReport":
        """Check the standing assumptions on ``phi_0 .. phi_kmax``."""
        kmax = max(kmax, 2)
        coeffs = self.phi_series(kmax).coefficients
        violations = []
        warnings = []
        if coeffs[0] <= 0:
            violations.append(f"phi_0 = {rational_to_string(coeffs[0])} is not positive")
        degenerate = all(coeffs[k] == 0 for k in range(2, kmax + 1))
        if degenerate:
            violations.append(
                f"degenerate family: phi_k = 0 for all k in 2..{kmax}"
            )
        negatives = [k for k in range(kmax + 1) if coeffs[k] < 0]
        if negatives:
            shown = ", ".join(str(k) for k in negatives[:_SHOWN_DEGREES])
            more = ", ..." if len(negatives) > _SHOWN_DEGREES else ""
            warnings.append(
                f"negative weights at {len(negatives)} of degrees 0..{kmax}: "
                f"{shown}{more} (identities remain formal)"
            )
        return ValidationReport(
            ok=not violations,
            degenerate=degenerate,
            violations=violations,
            warnings=warnings,
        )


class ValidationReport(Record):
    """What :meth:`DegreeWeightFamily.validate` found: ``ok`` unless a
    standing assumption fails; ``violations`` and ``warnings`` are
    lists of messages."""

    __slots__ = ("ok", "degenerate", "violations", "warnings")


# --- builtins -----------------------------------------------------------------

# name -> (phi(t), the parameters that the spec's arguments bind, in order)
_BUILTINS = {
    "binary": ("(1+t)^2", ()),
    "kary": ("(1+t)^k", ("k",)),
    "plane": ("1/(1-t)", ()),
    "labelled": ("exp(t)", ()),
    "yang": ("(1+s*t)^m", ("s", "m")),
    "polyalpha": ("(1-t)^(-a)", ("a",)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def from_expression(
    text: str, binding: gfparse.ParamBinding | None = None, name: str | None = None
) -> DegreeWeightFamily:
    """Family whose phi-series is the expression ``text``; ``name``
    defaults to the text."""
    return DegreeWeightFamily(
        text if name is None else name, gfparse.parse(text), binding or {}
    )


def from_spec(text: str) -> DegreeWeightFamily:
    """Builtin family from its CLI string.

    Formats: ``binary``, ``plane``, ``labelled``, ``kary:3``,
    ``yang:1/2,4``, ``polyalpha:2``.  The arguments bind the builtin's
    parameters; ``kary:k`` needs an integer ``k >= 2`` and
    ``polyalpha:a`` needs ``a > 0``.
    """
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name not in _BUILTINS:
        raise HookTreesError(f"unknown builtin family {name!r}")
    expression, params = _BUILTINS[name]
    args = [a.strip() for a in argtext.split(",")] if argtext else []
    if len(args) != len(params):
        raise HookTreesError(
            f"family spec {text!r} takes {len(params)} parameter(s), got {len(args)}"
        )
    values = [rational_from_string(a) for a in args]
    if name == "kary":
        if values[0].denominator != 1:
            raise HookTreesError(f"kary arity must be an integer, got {args[0]}")
        if values[0] < 2:
            raise HookTreesError(f"kary requires k >= 2, got {rational_to_string(values[0])}")
    if name == "polyalpha" and values[0] <= 0:
        raise HookTreesError(f"polyalpha requires alpha > 0, got {rational_to_string(values[0])}")
    canonical = ",".join(rational_to_string(v) for v in values)
    return from_expression(
        expression, dict(zip(params, values)), name=f"{name}:{canonical}" if args else name
    )
