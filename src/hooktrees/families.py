"""Degree-weight families: the sequence ``phi_k`` behind a tree family.

A family assigns the multiplicative weight ``phi_k`` to every vertex of
out-degree ``k``; the weight of an ordered tree is the product over its
vertices.  The family is described by its generating function
``phi(t) = sum_k phi_k t^k``, held as a :mod:`gfparse` expression with
its parameter binding.  The builtins are expressions too: ``binary`` is
``(1+t)^2``, ``kary:k`` is ``(1+t)^k``, ``plane`` is ``1/(1-t)``,
``labelled`` is ``exp(t)``, ``yang:s,m`` is ``(1+s*t)^m`` and
``polyalpha:a`` is ``(1-t)^(-a)``.

The standing assumptions (``phi_0 > 0`` and some ``phi_k > 0`` with
``k >= 2``) are checked by :meth:`DegreeWeightFamily.validate` but not
enforced on construction: the algebra runs fine on degenerate input, and
the CLI decides whether to refuse it.
"""

from __future__ import annotations

from fractions import Fraction

from . import gfparse
from ._record import Record
from .errors import DomainError
from .rational import Rational, as_rational, rational_from_string, rational_to_string
from .series import TruncatedSeries

__all__ = [
    "DegreeWeightFamily",
    "ValidationReport",
    "binary",
    "kary",
    "plane",
    "labelled",
    "yang",
    "polyalpha",
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

    def _coefficients(self, order: int) -> list[Fraction]:
        """``phi_0 .. phi_order`` and maybe more: the cached series at t := z."""
        coeffs = self._phi.coefficients
        while len(coeffs) <= order:  # F = z: coefficient 1 is 1, all others 0
            self._phi.extend(Fraction(1 if len(coeffs) == 1 else 0))
        return coeffs

    def phi_series(self, order: int) -> TruncatedSeries:
        """The series ``phi(t)`` truncated exactly at ``order``."""
        if order < 0:
            raise ValueError("order must be non-negative")
        return TruncatedSeries(self._coefficients(order)[: order + 1])

    def weight_of_degree(self, k: int) -> Fraction:
        """``phi_k``, the weight of a vertex with ``k`` children."""
        if k < 0:
            raise ValueError("out-degree must be non-negative")
        return self._coefficients(k)[k]

    def tree_weight_deg(self, tree: "OrderedTree") -> Fraction:
        """Product of ``phi_{d(v)}`` over all vertices of ``tree``."""
        total = self.weight_of_degree(len(tree.children))
        for child in tree.children:
            total *= self.tree_weight_deg(child)
        return total

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

def binary() -> DegreeWeightFamily:
    """``phi(t) = (1+t)^2``: vertices have 0, 1 or 2 children, a single
    child carrying weight 2 for the left/right choice."""
    return from_expression("(1+t)^2", name="binary")


def kary(k: int) -> DegreeWeightFamily:
    """``phi(t) = (1+t)^k`` for an integer ``k >= 2``."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError("kary requires an integer arity")
    if k < 2:
        raise DomainError(f"kary requires k >= 2, got {rational_to_string(k)}")
    return from_expression(
        "(1+t)^k", {"k": Fraction(k)}, name=f"kary:{rational_to_string(k)}"
    )


def plane() -> DegreeWeightFamily:
    """``phi(t) = 1/(1-t)``: every out-degree has weight 1."""
    return from_expression("1/(1-t)", name="plane")


def labelled() -> DegreeWeightFamily:
    """``phi(t) = e^t``: out-degree ``k`` weighs ``1/k!``."""
    return from_expression("exp(t)", name="labelled")


def yang(s: Rational, m: Rational) -> DegreeWeightFamily:
    """``phi(t) = (1 + s*t)^m`` for rational ``s`` and ``m``."""
    s = as_rational(s)
    m = as_rational(m)
    return from_expression(
        "(1+s*t)^m",
        {"s": s, "m": m},
        name=f"yang:{rational_to_string(s)},{rational_to_string(m)}",
    )


def polyalpha(alpha: Rational) -> DegreeWeightFamily:
    """``phi(t) = 1/(1-t)^alpha`` for rational ``alpha > 0``."""
    alpha = as_rational(alpha)
    if alpha <= 0:
        raise DomainError(
            f"polyalpha requires alpha > 0, got {rational_to_string(alpha)}"
        )
    return from_expression(
        "(1-t)^(-a)", {"a": alpha}, name=f"polyalpha:{rational_to_string(alpha)}"
    )


def from_expression(
    text_or_ast, binding: gfparse.ParamBinding | None = None, name: str | None = None
) -> DegreeWeightFamily:
    """Family whose phi-series comes from a parsed expression."""
    ast = gfparse.parse(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    label = name if name is not None else (
        text_or_ast if isinstance(text_or_ast, str) else "<expression>"
    )
    return DegreeWeightFamily(label, ast, binding or {})


BUILTIN_NAMES = ("binary", "kary", "plane", "labelled", "yang", "polyalpha")


def from_spec(text: str) -> DegreeWeightFamily:
    """Builtin family from its CLI string.

    Formats: ``binary``, ``plane``, ``labelled``, ``kary:3``,
    ``yang:1/2,4``, ``polyalpha:2``.
    """
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name not in BUILTIN_NAMES:
        raise DomainError(f"unknown builtin family {name!r}")
    args = [a.strip() for a in argtext.split(",")] if argtext else []
    if name == "binary":
        _expect_args(text, args, 0)
        return binary()
    if name == "plane":
        _expect_args(text, args, 0)
        return plane()
    if name == "labelled":
        _expect_args(text, args, 0)
        return labelled()
    if name == "kary":
        _expect_args(text, args, 1)
        value = rational_from_string(args[0])
        if value.denominator != 1:
            raise DomainError(f"kary arity must be an integer, got {args[0]}")
        return kary(value.numerator)
    if name == "yang":
        _expect_args(text, args, 2)
        return yang(rational_from_string(args[0]), rational_from_string(args[1]))
    _expect_args(text, args, 1)
    return polyalpha(rational_from_string(args[0]))


def _expect_args(text: str, args: list[str], count: int) -> None:
    if len(args) != count:
        raise DomainError(
            f"family spec {text!r} takes {count} parameter(s), got {len(args)}"
        )
