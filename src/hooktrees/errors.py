"""Exception hierarchy shared by all hooktrees modules."""

from __future__ import annotations


class HookTreesError(Exception):
    """Base class for every error raised by this package."""


class _SpannedError(HookTreesError):
    """An error that may point into an expression's text.

    ``span`` holds the offsets of the failing subtree when the error
    came from a parsed expression, and the message ends with them; it is
    ``None`` otherwise.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        if span is not None:
            message = f"{message} (at offsets {span[0]}..{span[1]})"
        super().__init__(message)


# --- truncated series -------------------------------------------------------

class SeriesError(_SpannedError):
    """Base class for series-arithmetic errors."""


class ZeroConstantTerm(SeriesError):
    """Division (or negative power) by a series with constant term 0."""


class ConstantTermNotOne(SeriesError):
    """Operation requires constant term exactly 1 (rational power, log)."""


class NonzeroConstantTerm(SeriesError):
    """Operation requires constant term exactly 0 (exp)."""


class NonzeroInnerConstant(SeriesError):
    """Composition inner series must have constant term 0."""


class NotRevertible(SeriesError):
    """Reversion needs constant term 0 and a nonzero linear term."""


class OrderExceeded(SeriesError):
    """A coefficient beyond the known truncation order was requested."""


# --- expression parsing and evaluation --------------------------------------

class ParseError(HookTreesError):
    """Malformed expression text.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class UnknownFunction(ParseError):
    """An identifier other than exp/log was called like a function."""

    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown function {name!r}", offset, frozenset({"exp", "log"}))


class EvaluationError(_SpannedError):
    """Expression is grammatical but cannot be evaluated."""


class UnboundParameter(EvaluationError):
    """A parameter occurs in the expression but not in the binding."""


class NonConstantExponent(EvaluationError):
    """An exponent or another constant does not evaluate to a rational."""


class UndefinedConstant(NonConstantExponent):
    """A constant divides by zero or raises zero to a negative power."""


# --- families ----------------------------------------------------------------

class DomainError(HookTreesError):
    """A family parameter is outside its admissible range."""


# --- hook-weight calculus -----------------------------------------------------

class DenominatorVanishes(HookTreesError):
    """The defining quotient for rho(n) has a vanishing denominator.

    The weight function is simply undefined at that index; ``index``
    records the offending n, and ``reason`` says what vanishes.
    """

    def __init__(self, index: int, reason: str):
        self.index = index
        super().__init__(f"rho({index}) is undefined: {reason}")


class ConstantMismatch(HookTreesError):
    """Forest series must start at the family's weight of degree 0."""


class NotInvertible(HookTreesError):
    """The degree-weight generating function has no series inverse."""


# --- tree oracle ---------------------------------------------------------------

class RhoRangeExceeded(HookTreesError):
    """A hook length exceeds the range of the given weight table."""


class SizeLimitExceeded(HookTreesError):
    """A size past the fixed bound of brute-force labelling or the signature tally."""


class UnbalancedParens(HookTreesError):
    """Malformed parenthesis word for a tree."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")
