"""Exact rational scalars and their wire format.

The coefficient field everywhere in this package is the arbitrary-precision
rational.  ``fractions.Fraction`` already is exactly that (always in lowest
terms, positive denominator, exact arithmetic), so it is used directly.
Rationals travel as strings: ``"p/q"`` in lowest terms, or plain ``"p"``
when the denominator is 1.  A rational literal is read by one pattern,
:data:`RATIONAL_LITERAL`, everywhere: a flag's value and a number in an
expression take the same ASCII digits.

Integers of any length convert exactly in both directions.  ``int`` and
``str`` refuse decimal text longer than ``sys.get_int_max_str_digits()``
digits (4300 by default), a limit of the whole interpreter that a library
should not change for its callers; ``decimal.Decimal`` converts exactly
without it.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

Rational = Fraction

# an optional sign, ASCII digits and an optional "/" with more ASCII
# digits, no spaces: ``\d`` would also take every other script's digits
RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rational_to_string(value: Fraction) -> str:
    """Format ``value`` as ``"p"`` or ``"p/q"``, lowest terms."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def rational_from_string(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``; rejects decimals and other notation."""
    text = text.strip()
    if not RATIONAL_LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r} (use p or p/q)")
    numerator, _, denominator = text.partition("/")
    q = int(Decimal(denominator)) if denominator else 1
    if q == 0:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(Decimal(numerator)), q)


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction, rejecting floats (exactness contract)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k >= n.bit_length():  # 1 <= root < 2, and Newton would raise x to k-1
        return 1
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def rational_root(value: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a rational, or None when it is irrational.

    Negative values admit a root only for odd k.
    """
    if k < 1:
        raise ValueError("root index must be positive")
    sign = 1
    if value < 0:
        if k % 2 == 0:
            return None
        sign = -1
        value = -value
    num = integer_root(value.numerator, k)
    den = integer_root(value.denominator, k)
    if num ** k != value.numerator or den ** k != value.denominator:
        return None
    return Fraction(sign * num, den)
