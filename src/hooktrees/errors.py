"""The package's error classes, five, each kept because some code tells
it apart from the rest.

- :class:`HookTreesError` is the base of the other four and a
  ``ValueError``: the CLI reports any ``ValueError`` as an input error
  (exit 2), a bad rational literal or order included.
- :class:`ExpressionError` carries ``span``, the offsets of the failing
  subtree of a parsed expression.
- :class:`UndefinedConstant` is a constant that divides by zero;
  ``HookWeightFunction.from_spec`` raises :class:`DenominatorVanishes`
  in its place.
- :class:`ParseError` carries ``offset`` and ``expected``.
- :class:`DenominatorVanishes` is an undefined rho(n): the CLI's exit 3.
"""

from __future__ import annotations


class HookTreesError(ValueError):
    """An input the package cannot compute with; the messages name no flag."""


class ExpressionError(HookTreesError):
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


class UndefinedConstant(ExpressionError):
    """A constant divides by zero or raises zero to a negative power."""


class ParseError(HookTreesError):
    """Malformed expression or tree text.

    Carries the offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class DenominatorVanishes(HookTreesError):
    """The defining quotient for rho(n) has a vanishing denominator.

    The weight function is simply undefined at that index; ``index``
    records the offending n, and ``reason`` says what vanishes.
    """

    def __init__(self, index: int, reason: str):
        self.index = index
        super().__init__(f"rho({index}) is undefined: {reason}")
