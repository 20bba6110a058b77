"""Parser and online evaluator for degree-weight generating function expressions.

Accepted syntax (ASCII only)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' factor)?          # '^' is right-associative
    base   := NUMBER | 't' | IDENT | '(' expr ')'
            | ('exp'|'log') '(' expr ')'
    NUMBER := integer, or integer '/' integer written without spaces

Identifiers other than ``t``, ``exp`` and ``log`` are free parameters and
must be bound to exact rationals before evaluation.  Exponents must
evaluate to rational constants: ``t`` may not appear in an exponent, and a
constant like ``4^(1/2)`` is accepted only when the result is rational.
Unary minus binds looser than ``^`` and is stored as subtraction from
zero, so the node set stays closed under the grammar.  Implicit
multiplication ("2t") is rejected; write ``2*t``.

Note that a rational literal is a single token: ``1/2^a`` parses as
``(1/2)^a``.  Write ``1/(2^a)`` for the other reading.

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

from collections.abc import Mapping
from fractions import Fraction

from ._record import Record
from .errors import (
    ConstantTermNotOne,
    NonConstantExponent,
    NonzeroConstantTerm,
    ParseError,
    SeriesError,
    UnboundParameter,
    UnknownFunction,
    ZeroConstantTerm,
)
from .rational import Rational, rational_from_string, rational_root
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
    "OnlineSeries",
    "parse",
    "parameters",
    "evaluate",
]

ParamBinding = Mapping[str, Rational]

MAX_DEPTH = 100
MAX_POWER_BITS = 1 << 16
MAX_EXPONENT_BITS = 64

_RESERVED = ("exp", "log")


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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            # adjacent '/' digits form a single rational literal
            if i + 1 < n and text[i] == "/" and text[i + 1].isdigit():
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            raw = text[start:i]
            try:
                value = rational_from_string(raw)
            except ValueError as err:  # a zero denominator
                raise ParseError(str(err), start) from None
            tokens.append(_Token("number", raw, start, i, value))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start, i, None))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n, n, None))
    return tokens


# --- parser ------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def _nested(self, parse, tok: _Token) -> GfExpr:
        """Run one recursive production, one level below the current one."""
        if self.nesting >= MAX_DEPTH:
            raise self._too_deep(tok.start)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    def _checked(self, node: GfExpr, tok: _Token) -> GfExpr:
        """``node``, built at operator ``tok``, unless it nests too deep."""
        if node.depth + self.nesting > MAX_DEPTH:
            raise self._too_deep(tok.start)
        return node

    def parse(self) -> GfExpr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"trailing input starting with {self._describe(tok)}",
                tok.start,
                frozenset({"end of input"}),
            )
        return node

    def expr(self) -> GfExpr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            span = (node.span[0], right.span[1])
            node = Add(span, node, right) if op.kind == "+" else Sub(span, node, right)
            self._checked(node, op)
        return node

    def term(self) -> GfExpr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self.unary()
            span = (node.span[0], right.span[1])
            node = Mul(span, node, right) if op.kind == "*" else Div(span, node, right)
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
            node = self._nested(self.expr, tok)
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in _RESERVED:
                self.expect("(")
                arg = self._nested(self.expr, tok)
                closing = self.expect(")")
                span = (tok.start, closing.end)
                return self._checked(
                    Exp(span, arg) if tok.text == "exp" else Log(span, arg), tok
                )
            if self.peek().kind == "(":
                raise UnknownFunction(tok.text, tok.start)
            if tok.text == "t":
                return Variable((tok.start, tok.end))
            return Parameter((tok.start, tok.end), tok.text)
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok.start,
            frozenset({"number", "identifier", "'('", "'-'"}),
        )


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
        raise UnboundParameter(f"parameter {node.name!r} is not bound", node.span)
    return Fraction(binding[node.name])


def _power(base: Fraction, e: Fraction, span: tuple[int, int]) -> Fraction | None:
    """``base ** e``, or None when that is not rational.

    Raises :class:`NonConstantExponent` for zero to a negative power and
    for a result of more than about ``MAX_POWER_BITS`` bits.
    """
    if e.denominator != 1:
        base = rational_root(base, e.denominator)
        if base is None:
            return None
    k = e.numerator
    if k < 0 and base == 0:
        raise NonConstantExponent("zero raised to a negative power", span)
    bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
    if abs(k) * bits > MAX_POWER_BITS:
        raise NonConstantExponent(
            f"power too large: more than {MAX_POWER_BITS} bits", span
        )
    return base ** k


def _check_exponent(e: Fraction, span: tuple[int, int]) -> None:
    if max(e.numerator.bit_length(), e.denominator.bit_length()) > MAX_EXPONENT_BITS:
        raise NonConstantExponent(
            f"exponent of a series too large: more than {MAX_EXPONENT_BITS} bits", span
        )


def _const_eval(node: GfExpr, binding: ParamBinding) -> Fraction:
    """Evaluate an exponent subtree to an exact rational."""
    if isinstance(node, RationalLiteral):
        return node.value
    if isinstance(node, Parameter):
        return _bound(node, binding)
    if isinstance(node, Variable):
        raise NonConstantExponent("the variable t may not appear in an exponent", node.span)
    if isinstance(node, Add):
        return _const_eval(node.left, binding) + _const_eval(node.right, binding)
    if isinstance(node, Sub):
        return _const_eval(node.left, binding) - _const_eval(node.right, binding)
    if isinstance(node, Mul):
        return _const_eval(node.left, binding) * _const_eval(node.right, binding)
    if isinstance(node, Div):
        divisor = _const_eval(node.right, binding)
        if divisor == 0:
            raise NonConstantExponent("division by zero in an exponent", node.span)
        return _const_eval(node.left, binding) / divisor
    if isinstance(node, Pow):
        value = _power(
            _const_eval(node.base, binding), _const_eval(node.exponent, binding), node.span
        )
        if value is None:
            raise NonConstantExponent(
                "exponent does not evaluate to a rational", node.span
            )
        return value
    raise NonConstantExponent(
        "exp/log are not allowed inside an exponent", node.span
    )


# --- online evaluation -------------------------------------------------------------------
#
# Every node holds its coefficients in ``c`` and appends coefficient m in
# ``step(m)``, reading its children's coefficients 0..m, which are already
# there because children come first in the evaluation order and F_m is
# appended before any step.

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Node:
    """A coefficient list ``c``.  A bare ``_Node`` is the argument F: no
    step extends it, :meth:`OnlineSeries.extend` does."""

    __slots__ = ("c",)

    def __init__(self, c: list):
        self.c = c


class _Const(_Node):
    __slots__ = ()

    def __init__(self, value: Fraction):
        self.c = [value]

    def step(self, m):
        self.c.append(_ZERO)


class _Add(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.c = [a.c[0] + b.c[0]]

    def step(self, m):
        self.c.append(self.a.c[m] + self.b.c[m])


class _Sub(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.c = [a.c[0] - b.c[0]]

    def step(self, m):
        self.c.append(self.a.c[m] - self.b.c[m])


class _Mul(_Node):
    """Convolution: ``c_m = sum_i a_i b_{m-i}``."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.c = [a.c[0] * b.c[0]]

    def step(self, m):
        a, b = self.a.c, self.b.c
        acc = _ZERO
        for i in range(m + 1):
            ai = a[i]
            if ai:
                bi = b[m - i]
                if bi:
                    acc += ai * bi
        self.c.append(acc)


class _Div(_Node):
    """``c = a / b``: ``b_0 c_m = a_m - sum_{i<m} c_i b_{m-i}``."""

    __slots__ = ("a", "b", "inv0")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.inv0 = 1 / b.c[0]
        self.c = [a.c[0] * self.inv0]

    def step(self, m):
        b, c = self.b.c, self.c
        acc = self.a.c[m]
        for i in range(m):
            ci = c[i]
            if ci:
                bi = b[m - i]
                if bi:
                    acc -= ci * bi
        c.append(acc * self.inv0)


class _Pow(_Node):
    """``c = f^a`` from ``f * (f^a)' = a * f' * f^a``, termwise.

    Write ``f = z^v g`` with ``g_0 != 0``.  Then ``c = z^(a v) g^a`` and,
    with ``i = m - a v``,

        g_0 * i * c_m = sum_{j=1..i} ((a+1)*j - i) * f_{v+j} * c_{m-j}.

    ``v`` is 0 unless ``f(0) = 0``, which is allowed only for an integer
    ``a >= 2``; then ``v`` is the index of the first nonzero coefficient
    seen so far, ``c_m = 0`` below ``a v`` and ``c_{a v} = f_v^a``.
    ``c_0`` is given.
    """

    __slots__ = ("f", "a", "a1")

    def __init__(self, f, a: Fraction, c0: Fraction):
        self.f, self.a = f, a
        self.a1 = a.numerator + 1 if a.denominator == 1 else a + 1
        self.c = [c0]

    def step(self, m):
        f, c = self.f.c, self.c
        v = 0
        if not f[0]:
            v = next((j for j in range(1, m + 1) if f[j]), None)
            if v is None:
                c.append(_ZERO)
                return
        i = m - self.a.numerator * v  # a is an integer when v > 0
        if i <= 0:
            c.append(f[v] ** self.a.numerator if i == 0 else _ZERO)
            return
        a1 = self.a1
        acc = _ZERO
        for j in range(1, i + 1):
            fj = f[v + j]
            if fj:
                cj = c[m - j]
                if cj:
                    acc += (a1 * j - i) * fj * cj
        c.append(acc / (f[v] * i))


class _Exp(_Node):
    """``m E_m = sum_{j=1..m} j f_j E_{m-j}``, ``E_0 = 1``."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f
        self.c = [_ONE]

    def step(self, m):
        f, c = self.f.c, self.c
        acc = _ZERO
        for j in range(1, m + 1):
            fj = f[j]
            if fj:
                cj = c[m - j]
                if cj:
                    acc += j * fj * cj
        c.append(acc / m)


class _Log(_Node):
    """``m L_m = m f_m - sum_{j=1..m-1} f_j (m-j) L_{m-j}``, ``L_0 = 0``."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f
        self.c = [_ZERO]

    def step(self, m):
        f, c = self.f.c, self.c
        acc = m * f[m]
        for j in range(1, m):
            fj = f[j]
            if fj:
                cj = c[m - j]
                if cj:
                    acc -= fj * (m - j) * cj
        c.append(acc / m)


def _series_error(cls: type[SeriesError], message: str, span: tuple[int, int]) -> SeriesError:
    err = cls(message)
    err.span = span
    return err


class OnlineSeries:
    """An expression evaluated at a series F, one coefficient at a time.

    The series owns F, which starts as the constant 0.  Construction
    compiles the expression and computes coefficient 0, and raises every
    error that the expression can raise: an unbound parameter, a bad
    exponent, a constant term that a division, power, ``exp`` or ``log``
    cannot take.  :meth:`extend` appends the next coefficient F_m and
    computes coefficient m of the expression in O(m) operations per
    node; coefficient m depends on F_m only through the term
    ``[t^1] * F_m``.  :meth:`retract` undoes one :meth:`extend`.
    """

    def __init__(self, expr: GfExpr, binding: ParamBinding):
        self._binding = binding
        self._F = _Node([_ZERO])  # every ``t`` compiles to this node
        self._nodes: list[_Node] = []
        #: the coefficients computed so far; read only
        self.coefficients: list[Fraction] = self._compile(expr).c

    def extend(self, f: Fraction) -> Fraction:
        """Append ``f`` as F's next coefficient; compute and return the
        expression's next coefficient."""
        m = len(self._F.c)
        self._F.c.append(f)
        for node in self._nodes:
            node.step(m)
        return self.coefficients[m]

    def retract(self) -> None:
        """Drop the last coefficient of F and of the expression, so that
        :meth:`extend` can run again with another value."""
        if len(self._F.c) < 2:
            raise ValueError("nothing to retract")
        self._F.c.pop()
        for node in self._nodes:
            node.c.pop()

    def _add(self, node: _Node) -> _Node:
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
                    raise _series_error(
                        NonzeroConstantTerm, "exp requires constant term exactly 0", node.span
                    )
                return self._add(_Exp(arg))
            if a0 != 1:
                raise _series_error(
                    ConstantTermNotOne, "log requires constant term exactly 1", node.span
                )
            return self._add(_Log(arg))
        if not isinstance(node, (Add, Sub, Mul, Div)):
            raise TypeError(f"not an expression node: {node!r}")
        left = self._compile(node.left)
        right = self._compile(node.right)
        if isinstance(node, Add):
            return self._add(_Add(left, right))
        if isinstance(node, Sub):
            return self._add(_Sub(left, right))
        if isinstance(node, Mul):
            return self._add(_Mul(left, right))
        if right.c[0] == 0:
            raise _series_error(
                ZeroConstantTerm, "cannot divide by a series with constant term 0", node.span
            )
        return self._add(_Div(left, right))

    def _compile_pow(self, node: Pow) -> _Node:
        e = _const_eval(node.exponent, self._binding)
        base = self._compile(node.base)
        b0 = base.c[0]
        if e == 0:
            return self._add(_Const(_ONE))
        if e == 1:
            return base
        if b0 == 0:
            if e.denominator != 1:
                raise _series_error(
                    ConstantTermNotOne,
                    "non-integer power of a series with constant term 0",
                    node.span,
                )
            if e < 0:
                raise _series_error(
                    ZeroConstantTerm,
                    "negative power of a series with constant term 0",
                    node.span,
                )
            return self._add(_Pow(base, e, _ZERO))
        _check_exponent(e, node.span)
        c0 = _power(b0, e, node.span)
        if c0 is None:
            raise _series_error(
                ConstantTermNotOne,
                f"constant term {b0} has no exact rational root of index {e.denominator}",
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
    series = OnlineSeries(expr, binding)
    series.extend(_ONE)
    for _ in range(order - 1):
        series.extend(_ZERO)
    return TruncatedSeries(series.coefficients)
