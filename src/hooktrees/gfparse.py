"""Parser and online evaluator for degree-weight generating function expressions.

Accepted syntax (ASCII only)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' factor)?          # '^' is right-associative
    base   := NUMBER | 't' | IDENT | '(' expr ')'
            | ('exp'|'log') '(' expr ')'
    NUMBER := integer, or integer '/' integer written without spaces
    IDENT  := NAME: an ASCII letter or '_', then ASCII letters, digits, '_'

Identifiers other than ``RESERVED_NAMES`` (``t``, ``exp`` and ``log``)
are free parameters and must be bound to exact rationals before
evaluation.  Exponents must evaluate to rational constants: ``t`` may not
appear in an exponent, and a constant like ``4^(1/2)`` is accepted only
when the result is rational.  Unary minus binds looser than ``^`` and is
stored as subtraction from zero, so the node set stays closed under the
grammar.  Implicit multiplication ("2t") is rejected; write ``2*t``.

Note that a rational literal is a single token, read by the pattern that
reads every rational flag value (``rational.RATIONAL_LITERAL``), on both
sides of ``^``: ``1/2^a`` is ``(1/2)^a``, ``t^2/2`` is ``t^(2/2)`` = ``t``,
``(1+t)^3/2`` is ``(1+t)^(3/2)``; ``1/(2^a)``, ``t^2 / 2``, ``(t^2)/2`` divide.

An expression may nest at most ``MAX_DEPTH`` levels: every operator,
function call, unary minus and pair of parentheses is one level, so a
chain of sums ``1+t+t^2+...`` counts one level per ``+``.  The bound
keeps the parser and every recursive walk of the tree far below the
interpreter's recursion limit.  A constant power may have at most about
``MAX_POWER_BITS`` bits.  The exponent of a series with a nonzero
constant term may have at most ``MAX_EXPONENT_BITS`` bits in numerator
and denominator: coefficient m of ``(1+t)^a`` has about m times as many
bits as ``a``.

Evaluation is *online* (McIlroy, "Power series, power serious", 1999):
:class:`OnlineSeries` compiles the tree once into nodes that each extend
their coefficient list by one per step, reading only their children's
coefficients up to the same index.  The series owns the argument F that
``t`` stands for: every ``t`` is one shared node whose coefficients are
F's, and ``extend(f)`` appends F's next coefficient before it computes
the expression's next one.  So ``phi(F)`` can be built while F itself
is still being solved for.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from itertools import compress, count, repeat
from math import lcm
from operator import add, attrgetter, floordiv, mul, sub, truediv

from ._record import Record
from .errors import ExpressionError, ParseError, UndefinedConstant
from .rational import (
    RATIONAL_LITERAL,
    Rational,
    as_rational,
    rational_from_string,
    rational_root,
    rational_to_string,
)
from .series import TruncatedSeries

__all__ = [
    "GfExpr",
    "RationalLiteral",
    "Variable",
    "Parameter",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Log",
    "ParamBinding",
    "MAX_DEPTH",
    "MAX_POWER_BITS",
    "MAX_EXPONENT_BITS",
    "RESERVED_NAMES",
    "NAME",
    "OnlineSeries",
    "parse",
    "parameters",
    "const_eval",
    "evaluate",
]

ParamBinding = Mapping[str, Rational]

MAX_DEPTH = 100
MAX_POWER_BITS = 1 << 16
MAX_EXPONENT_BITS = 64


# --- AST ----------------------------------------------------------------------

class GfExpr(Record):
    """Base AST node; ``span`` is the (start, end) byte range in the source.

    ``depth`` counts the levels of operators in the subtree: 0 for a leaf.
    Nodes are immutable and compare by class and fields, ignoring
    ``span`` and ``depth``.
    """

    __slots__ = ("span", "depth")
    _fields = ("span",)
    _uncompared = ("span",)

    def __init__(self, *args):
        super().__init__(*args)
        depth = 0
        for f in self._fields:
            v = getattr(self, f)
            if isinstance(v, GfExpr) and v.depth >= depth:
                depth = v.depth + 1
        object.__setattr__(self, "depth", depth)


class RationalLiteral(GfExpr):
    __slots__ = ("value",)


class Variable(GfExpr):
    """The series variable ``t``."""

    __slots__ = ()


class Parameter(GfExpr):
    __slots__ = ("name",)


class Add(GfExpr):
    __slots__ = ("left", "right")


class Sub(GfExpr):
    __slots__ = ("left", "right")


class Mul(GfExpr):
    __slots__ = ("left", "right")


class Div(GfExpr):
    __slots__ = ("left", "right")


class Pow(GfExpr):
    __slots__ = ("base", "exponent")


class Exp(GfExpr):
    __slots__ = ("arg",)


class Log(GfExpr):
    __slots__ = ("arg",)


_FUNCTIONS = {"exp": Exp, "log": Log}
#: the names that are not parameters: the variable and the functions
RESERVED_NAMES = ("t", *_FUNCTIONS)
#: a name, ASCII only: ``str.isalnum`` also takes other scripts' letters
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the binary operators by precedence, loosest first; each level is one
# left-associative chain over operands of the next level
_LEVELS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


# --- tokenizer ------------------------------------------------------------------

_OPERATORS = "+-*/^()"


class _Token(Record):
    # kind is "number", "ident", one of _OPERATORS or "end"; value is the
    # Fraction of a number and None otherwise
    __slots__ = ("kind", "text", "start", "end", "value")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if not ch.isascii():
            raise ParseError(f"non-ASCII character {ch!r}", i)
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i, i + 1, None))
            i += 1
            continue
        if ch.isdigit():  # adjacent '/' digits belong to the same literal
            raw = RATIONAL_LITERAL.match(text, i).group()
            try:
                value = rational_from_string(raw)
            except ValueError as err:  # a zero denominator
                raise ParseError(str(err), i) from None
            tokens.append(_Token("number", raw, i, i + len(raw), value))
            i += len(raw)
            continue
        name = NAME.match(text, i)
        if name:
            tokens.append(_Token("ident", name.group(), i, name.end(), None))
            i = name.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n, n, None))
    return tokens


# --- parser ------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0  # open parentheses, calls, unary minuses and exponents

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.start, frozenset({kind})
            )
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else f"token {tok.text!r}"

    @staticmethod
    def _too_deep(offset: int) -> ParseError:
        return ParseError(f"expression nested more than {MAX_DEPTH} levels deep", offset)

    def _nested(self, parse, tok: _Token, *args) -> GfExpr:
        """Run one recursive production, one level below the current one."""
        if self.nesting >= MAX_DEPTH:
            raise self._too_deep(tok.start)
        self.nesting += 1
        node = parse(*args)
        self.nesting -= 1
        return node

    def _checked(self, node: GfExpr, tok: _Token) -> GfExpr:
        """``node``, built at operator ``tok``, unless it nests too deep."""
        if node.depth + self.nesting > MAX_DEPTH:
            raise self._too_deep(tok.start)
        return node

    def parse(self) -> GfExpr:
        node = self.binary(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"trailing input starting with {self._describe(tok)}",
                tok.start,
                frozenset({"end of input"}),
            )
        return node

    def binary(self, level: int) -> GfExpr:
        """``expr`` at level 0 and ``term`` at level 1 of the grammar."""
        operators = _LEVELS[level]
        operand = partial(self.binary, level + 1) if level + 1 < len(_LEVELS) else self.unary
        node = operand()
        while self.peek().kind in operators:
            op = self.advance()
            right = operand()
            node = operators[op.kind]((node.span[0], right.span[1]), node, right)
            self._checked(node, op)
        return node

    def unary(self) -> GfExpr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            operand = self._nested(self.unary, tok)
            span = (tok.start, operand.span[1])
            return self._checked(
                Sub(span, RationalLiteral((tok.start, tok.start), Fraction(0)), operand), tok
            )
        return self.factor()

    def factor(self) -> GfExpr:
        base = self.base()
        if self.peek().kind == "^":
            tok = self.advance()
            exponent = self._nested(self.factor, tok)  # right-associative
            return self._checked(Pow((base.span[0], exponent.span[1]), base, exponent), tok)
        return base

    def base(self) -> GfExpr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return RationalLiteral((tok.start, tok.end), tok.value)
        if tok.kind == "(":
            self.advance()
            node = self._nested(self.binary, tok, 0)
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in _FUNCTIONS:
                self.expect("(")
                arg = self._nested(self.binary, tok, 0)
                closing = self.expect(")")
                return self._checked(_FUNCTIONS[tok.text]((tok.start, closing.end), arg), tok)
            if self.peek().kind == "(":
                raise ParseError(
                    f"unknown function {tok.text!r}", tok.start, frozenset(_FUNCTIONS)
                )
            if tok.text == "t":
                return Variable((tok.start, tok.end))
            return Parameter((tok.start, tok.end), tok.text)
        expected = {"number", "identifier", "'('"}
        if not (self.pos and self.tokens[self.pos - 1].kind == "^"):
            expected.add("'-'")  # an exponent takes no unary minus
        raise ParseError(f"unexpected {self._describe(tok)}", tok.start, frozenset(expected))


def parse(text: str) -> GfExpr:
    """Parse expression text into an AST; raises :class:`ParseError`."""
    return _Parser(text).parse()


def parameters(expr: GfExpr) -> set[str]:
    """The names of the parameters that ``expr`` reads."""
    if isinstance(expr, Parameter):
        return {expr.name}
    children = (getattr(expr, f) for f in expr._fields)
    return set().union(*(parameters(c) for c in children if isinstance(c, GfExpr)))


# --- constants -------------------------------------------------------------------------

def _bound(node: Parameter, binding: ParamBinding) -> Fraction:
    if node.name not in binding:
        raise ExpressionError(f"parameter {node.name!r} is not bound", node.span)
    return Fraction(binding[node.name])


def _power(base: Fraction, e: Fraction, span: tuple[int, int]) -> Fraction | None:
    """``base ** e``, or None when that is not rational.

    Raises for zero to a negative power and for a result of more than
    about ``MAX_POWER_BITS`` bits.
    """
    if e.denominator != 1:
        base = rational_root(base, e.denominator)
        if base is None:
            return None
    k = e.numerator
    if k < 0 and base == 0:
        raise UndefinedConstant("zero raised to a negative power", span)
    bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
    if abs(k) * bits > MAX_POWER_BITS:
        raise ExpressionError(f"power too large: more than {MAX_POWER_BITS} bits", span)
    return base ** k


def _check_exponent(e: Fraction, span: tuple[int, int]) -> None:
    if max(e.numerator.bit_length(), e.denominator.bit_length()) > MAX_EXPONENT_BITS:
        raise ExpressionError(
            f"exponent of a series too large: more than {MAX_EXPONENT_BITS} bits", span
        )


def const_eval(node: GfExpr, binding: ParamBinding, where: str = "in an exponent") -> Fraction:
    """Evaluate a subtree without ``t``, ``exp`` or ``log`` to an exact
    rational; ``where`` places the subtree in error messages.  Raises
    :class:`UndefinedConstant` for a division by zero."""
    if isinstance(node, RationalLiteral):
        return node.value
    if isinstance(node, Parameter):
        return _bound(node, binding)
    if isinstance(node, Variable):
        raise ExpressionError(f"the variable t may not appear {where}", node.span)
    if isinstance(node, Pow):
        value = _power(
            const_eval(node.base, binding, where),
            const_eval(node.exponent, binding, where),
            node.span,
        )
        if value is None:
            raise ExpressionError(f"a power {where} is not rational", node.span)
        return value
    if type(node) not in _BINARY:
        raise ExpressionError(f"exp/log are not allowed {where}", node.span)
    left = const_eval(node.left, binding, where)
    right = const_eval(node.right, binding, where)
    try:
        return _BINARY[type(node)][0](left, right)
    except ZeroDivisionError:
        raise UndefinedConstant(f"division by zero {where}", node.span) from None


# --- online evaluation -------------------------------------------------------------------
#
# Every node holds its coefficients in ``c`` and appends coefficient m in
# ``step(m)``, reading its children's coefficients 0..m, which are already
# there because children come first in the evaluation order and F_m is
# appended before any step.
#
# A product, quotient, power, exp or log node computes coefficient m from
# one convolution sum: McIlroy's online scheme ("Power series, power
# serious", J. Funct. Programming 9(3), 1999), with the exp, log and power
# recurrences of Knuth (TAOCP vol. 2, section 4.7).  :func:`_dot` evaluates
# that sum in integers: it multiplies the terms' numerators, brings every
# term over the lcm of the term denominators and adds them with ``sum``,
# so the node builds one Fraction, with one gcd, per coefficient instead
# of normalising every product and every partial sum.  The weights of the
# recurrences are integers in arithmetic progression, passed as a
# ``count``; a rational exponent alpha/beta is multiplied through by beta.
# Each sum runs only over the indices where both operands can be nonzero,
# by each node's ``top``: a constant, or a polynomial such as ``1+t`` at
# F = z, costs its degree per coefficient, not m.

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Fraction's ``numerator`` and ``denominator`` are Python-level properties
# over these two slots; reading the slots keeps every per-term operation
# of :func:`_dot` in C.  So node coefficients are always Fractions, and
# :meth:`OnlineSeries.extend` coerces its argument.
_num = attrgetter("_numerator")
_den = attrgetter("_denominator")


def _dot(xs, ys, weights=None) -> tuple[int, int]:
    """``sum_i w_i * xs[i] * ys[i]`` as integers ``(n, d)``, ``d > 0``.

    ``xs`` and ``ys`` are equally long lists of Fractions (``ys`` usually
    a reversed slice), ``weights`` an iterable of integers or None for all
    ones.  The quotient ``n / d`` is not reduced.
    """
    nums = map(mul, map(_num, xs), map(_num, ys))
    if weights is not None:
        nums = map(mul, nums, weights)
    nums = list(nums)
    # a zero term adds nothing: its denominator is never read and stays out
    # of the lcm
    dens = list(map(mul, map(_den, compress(xs, nums)), map(_den, compress(ys, nums))))
    d = lcm(*dens)  # 1 for an empty sum
    return sum(map(mul, compress(nums, nums), map(floordiv, repeat(d), dens))), d


class _Node:
    """A coefficient list ``c`` and ``top``, an index of ``c`` at or above
    its last nonzero coefficient (-1 while all are zero), which
    :class:`OnlineSeries` keeps, so a product reads only the terms that
    can be nonzero.  A bare ``_Node`` is the argument F, which starts as
    the constant 0: no step extends it, :meth:`OnlineSeries.extend` does."""

    __slots__ = ("c", "top")

    def __init__(self, c: list):
        self.c = c
        self.top = -1


class _Const(_Node):
    __slots__ = ()

    def __init__(self, value: Fraction):
        self.c = [value]

    def step(self, m):
        self.c.append(_ZERO)


class _Binary(_Node):
    """A node over the nodes ``a`` and ``b``: ``c_0 = op(a_0, b_0)``, where
    ``op`` is the operator's value on rationals."""

    __slots__ = ("a", "b", "op")

    def __init__(self, a, b, op):
        self.a, self.b, self.op = a, b, op
        self.c = [op(a.c[0], b.c[0])]


class _Sum(_Binary):
    """A sum or a difference: ``c_m = op(a_m, b_m)``."""

    __slots__ = ()

    def step(self, m):
        self.c.append(self.op(self.a.c[m], self.b.c[m]))


class _Mul(_Binary):
    """Convolution: ``c_m = sum_i a_i b_{m-i}``."""

    __slots__ = ()

    def step(self, m):
        a, b = self.a, self.b
        # a_i b_{m-i} can be nonzero only for m - b.top <= i <= a.top
        lo, hi = m - b.top, a.top + 1
        self.c.append(Fraction(*_dot(a.c[lo:hi], b.c[::-1][lo:hi])))


class _Div(_Binary):
    """``c = a / b``: ``b_0 c_m = a_m - sum_{i<m} c_i b_{m-i}``."""

    __slots__ = ()

    def step(self, m):
        b, c, k = self.b.c, self.c, self.b.top
        # c[-1:-k-1:-1] is c_{m-1} down to c_{m-k}, c_0 included
        n, d = _dot(b[1 : k + 1], c[-1 : -k - 1 : -1])
        am, b0 = self.a.c[m], b[0]
        c.append(Fraction(
            (am.numerator * d - n * am.denominator) * b0.denominator,
            am.denominator * d * b0.numerator,
        ))


# what each binary operator computes: its value on rationals, which is
# also coefficient 0 of its online node, and that node
_BINARY = {Add: (add, _Sum), Sub: (sub, _Sum), Mul: (mul, _Mul), Div: (truediv, _Div)}


class _Pow(_Node):
    """``c = f^a`` from ``f * (f^a)' = a * f' * f^a``, termwise.

    Write ``f = z^v g`` with ``g_0 != 0`` and ``a = alpha/beta`` in lowest
    terms.  Then ``c = z^(a v) g^a`` and, with ``i = m - a v``,

        beta * g_0 * i * c_m
            = sum_{j=1..i} ((alpha+beta)*j - beta*i) * f_{v+j} * c_{m-j}.

    ``v`` is 0 unless ``f(0) = 0``, which is allowed only for an integer
    ``a >= 2``; then ``v`` is the index of the first nonzero coefficient
    seen so far, ``c_m = 0`` below ``a v`` and ``c_{a v} = f_v^a``.
    ``c_0`` is given.
    """

    __slots__ = ("f", "alpha", "beta")

    def __init__(self, f, a: Fraction, c0: Fraction):
        self.f, self.alpha, self.beta = f, a.numerator, a.denominator
        self.c = [c0]

    def step(self, m):
        f, c = self.f.c, self.c
        v = 0
        if not f[0]:
            v = next((j for j in range(1, m + 1) if f[j]), None)
            if v is None:
                c.append(_ZERO)
                return
        i = m - self.alpha * v  # a is an integer when v > 0
        if i <= 0:
            c.append(f[v] ** self.alpha if i == 0 else _ZERO)
            return
        beta, ab = self.beta, self.alpha + self.beta
        k = min(i, self.f.top - v)  # f_{v+j} = 0 for j > k
        n, d = _dot(f[v + 1 : v + k + 1], c[-1 : -k - 1 : -1], count(ab - beta * i, ab))
        fv = f[v]
        c.append(Fraction(n * fv.denominator, d * beta * i * fv.numerator))


class _Exp(_Node):
    """``m E_m = sum_{j=1..m} j f_j E_{m-j}``, ``E_0 = 1``."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f
        self.c = [_ONE]

    def step(self, m):
        c, k = self.c, max(self.f.top, 0)  # top is -1 while f is all zero
        n, d = _dot(self.f.c[1 : k + 1], c[-1 : -k - 1 : -1], count(1))
        c.append(Fraction(n, d * m))


class _Log(_Node):
    """``m L_m = m f_m - sum_{j=1..m-1} f_j (m-j) L_{m-j}``, ``L_0 = 0``."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f
        self.c = [_ZERO]

    def step(self, m):
        f, c = self.f.c, self.c
        k = min(m - 1, self.f.top)
        n, d = _dot(f[1 : k + 1], c[-1 : -k - 1 : -1], count(m - 1, -1))
        fm = f[m]
        c.append(Fraction(
            fm.numerator * d * m - n * fm.denominator, fm.denominator * d * m
        ))


class OnlineSeries:
    """An expression evaluated at a series F, one coefficient at a time.

    The series owns F, which starts as the constant 0.  Construction
    compiles the expression and computes coefficient 0, and raises every
    error that the expression can raise: an unbound parameter, a bad
    exponent, a constant term that a division, power, ``exp`` or ``log``
    cannot take.  :meth:`extend` appends the next coefficient F_m and
    computes coefficient m of the expression in O(m) operations per
    node; coefficient m depends on F_m only through the term
    ``[t^1] * F_m``.  :meth:`peek` computes it at F_m = 0 and leaves the
    series as it was, and :meth:`at_z` extends F as the series z.
    """

    def __init__(self, expr: GfExpr, binding: ParamBinding):
        self._binding = binding
        self._F = _Node([_ZERO])  # every ``t`` compiles to this node
        self._nodes: list[_Node] = []
        #: the coefficients computed so far; read only
        self.coefficients: list[Fraction] = self._compile(expr).c

    def extend(self, f: Fraction) -> Fraction:
        """Append ``f``, an int or Fraction, as F's next coefficient;
        compute and return the expression's next coefficient."""
        f = as_rational(f)
        F = self._F
        m = len(F.c)
        F.c.append(f)
        if f:
            F.top = m
        for node in self._nodes:
            node.step(m)
            if node.c[m]:
                node.top = m
        return self.coefficients[m]

    def at_z(self, order: int) -> list[Fraction]:
        """The coefficients at F = z, up to ``order`` at least: extends F by
        1 at index 1 and 0 elsewhere, so a later call resumes where this
        one stopped.  F must have no other extension."""
        coeffs = self.coefficients
        while len(coeffs) <= order:
            self.extend(_ONE if len(coeffs) == 1 else _ZERO)
        return coeffs

    def peek(self) -> Fraction:
        """What :meth:`extend` would return for F's next coefficient 0;
        the series is left as it was."""
        saved = [(node, node.top) for node in (self._F, *self._nodes)]
        value = self.extend(_ZERO)
        for node, top in saved:
            node.c.pop()
            node.top = top
        return value

    def _add(self, node: _Node) -> _Node:
        node.top = 0 if node.c[0] else -1
        self._nodes.append(node)
        return node

    def _compile(self, node: GfExpr) -> _Node:
        if isinstance(node, RationalLiteral):
            return self._add(_Const(node.value))
        if isinstance(node, Parameter):
            return self._add(_Const(_bound(node, self._binding)))
        if isinstance(node, Variable):
            return self._F
        if isinstance(node, Pow):
            return self._compile_pow(node)
        if isinstance(node, (Exp, Log)):
            arg = self._compile(node.arg)
            a0 = arg.c[0]
            if isinstance(node, Exp):
                if a0 != 0:
                    raise ExpressionError("exp requires constant term exactly 0", node.span)
                return self._add(_Exp(arg))
            if a0 != 1:
                raise ExpressionError("log requires constant term exactly 1", node.span)
            return self._add(_Log(arg))
        if type(node) not in _BINARY:
            raise TypeError(f"not an expression node: {node!r}")
        op, online = _BINARY[type(node)]
        left = self._compile(node.left)
        right = self._compile(node.right)
        try:
            return self._add(online(left, right, op))
        except ZeroDivisionError:  # c_0 of a quotient by a series with b_0 = 0
            raise ExpressionError(
                "cannot divide by a series with constant term 0", node.span
            ) from None

    def _compile_pow(self, node: Pow) -> _Node:
        e = const_eval(node.exponent, self._binding)
        base = self._compile(node.base)
        b0 = base.c[0]
        if e == 0:
            return self._add(_Const(_ONE))
        if e == 1:
            return base
        if b0 == 0:
            if e.denominator != 1:
                raise ExpressionError(
                    "non-integer power of a series with constant term 0", node.span
                )
            if e < 0:
                raise ExpressionError(
                    "negative power of a series with constant term 0", node.span
                )
            return self._add(_Pow(base, e, _ZERO))
        _check_exponent(e, node.span)
        c0 = _power(b0, e, node.span)
        if c0 is None:
            raise ExpressionError(
                f"constant term {rational_to_string(b0)} has no exact rational "
                f"root of index {e.denominator}",
                node.span,
            )
        return self._add(_Pow(base, e, c0))


def evaluate(expr: GfExpr, binding: ParamBinding, order: int) -> TruncatedSeries:
    """Evaluate an AST at t := z to a series of the given order.

    All parameters must be bound to exact rationals.  Series-arithmetic
    errors carry the span of the offending subtree.
    """
    if order < 1:
        raise ValueError("evaluation order must be at least 1")
    return TruncatedSeries(OnlineSeries(expr, binding).at_z(order))
