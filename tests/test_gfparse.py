import copy
import pickle
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from hooktrees import families
from hooktrees.errors import ExpressionError, ParseError, UndefinedConstant
from hooktrees.gfparse import (
    MAX_DEPTH,
    Add,
    Div,
    Exp,
    Log,
    Mul,
    OnlineSeries,
    Parameter,
    Pow,
    RationalLiteral,
    Sub,
    Variable,
    evaluate,
    parse,
)
from hooktrees.series import TruncatedSeries

from eager_series import div, exp, identity, log, pow_int, pow_rational


def lit(value):
    return RationalLiteral((0, 0), Q(value))


def strip_spans(text):
    # ASTs compare ignoring spans, so a reference tree can use dummy ones
    return parse(text)


class TestGrammar:
    def test_binary_expression(self):
        assert parse("(1+t)^2") == Pow(
            (0, 0), Add((0, 0), lit(1), Variable((0, 0))), lit(2)
        )

    def test_power_binds_tighter_than_division(self):
        ast = parse("1/(1-t)^a")
        expected = Div(
            (0, 0),
            lit(1),
            Pow(
                (0, 0),
                Sub((0, 0), lit(1), Variable((0, 0))),
                Parameter((0, 0), "a"),
            ),
        )
        assert ast == expected

    def test_power_right_associative(self):
        assert parse("a^b^c") == parse("a^(b^c)")
        assert parse("a^b^c") != parse("(a^b)^c")

    def test_unary_minus_binds_looser_than_power(self):
        # -t^2 is -(t^2), stored as subtraction from zero
        assert parse("-t^2") == Sub((0, 0), lit(0), parse("t^2"))

    def test_left_associative_sums_and_products(self):
        assert parse("1-2-3") == Sub((0, 0), Sub((0, 0), lit(1), lit(2)), lit(3))
        assert parse("1/2/3") != parse("1/(2/3)")  # rational literal 1/2, then /3

    def test_rational_literal_single_token(self):
        assert parse("1/2") == lit(Q(1, 2))
        # spaced form is a division instead; both evaluate identically
        assert parse("1 / 2") == Div((0, 0), lit(1), lit(2))

    def test_a_literal_after_a_power_takes_the_division_with_it(self):
        # t^2/2 is t^(2/2) = t, and (1+t)^3/2 is (1+t)^(3/2)
        assert parse("t^2/2") == Pow((0, 0), Variable((0, 0)), lit(1))
        assert parse("(1+t)^3/2") == parse("(1+t)^(3/2)")
        assert evaluate(parse("1+t-t^2/2+t^3"), {}, 4) == TruncatedSeries([1, 0, 0, 1, 0])
        # a space or parentheses divide the power instead
        halved = Div((0, 0), parse("t^2"), lit(2))
        assert parse("t^2 / 2") == parse("(t^2)/2") == halved
        got = evaluate(parse("1+t-(t^2)/2+t^3"), {}, 4)
        assert got == TruncatedSeries([1, 1, Q(-1, 2), 1, 0])

    def test_exp_log_functions(self):
        assert parse("exp(t)") == Exp((0, 0), Variable((0, 0)))
        assert parse("log(1+t)") == parse("log((1+t))")

    def test_whitespace_insensitive(self):
        assert parse("( 1 + s * t ) ^ m") == parse("(1+s*t)^m")
        assert parse("exp ( t )") == parse("exp(t)")

    @pytest.mark.parametrize(
        "text",
        ["(1+t)^2", "(1+t)^k", "1/(1-t)", "exp(t)", "(1+s*t)^m", "1/(1-t)^a",
         "-t^2+log(1+t)*3"],
    )
    def test_spaces_between_tokens_never_change_the_ast(self, text):
        import re

        tokens = re.findall(r"\d+/\d+|\d+|[A-Za-z_]\w*|\S", text)
        spaced = "  " + "   ".join(tokens) + " "
        assert parse(spaced) == parse(text)

    def test_long_literals_are_exact(self):
        sevens = 7 * (10**5000 - 1) // 9
        assert parse("7" * 5000) == lit(sevens)
        assert parse("1/" + "7" * 5000) == lit(Q(1, sevens))
        with pytest.raises(ParseError, match="zero denominator"):
            parse("1+" + "7" * 5000 + "/0*t")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse("2t")


class TestNodeValues:
    """AST nodes are immutable values: equality and hashing by class and
    fields, never by span or depth."""

    def test_equality_ignores_span(self):
        assert Add((0, 3), lit(1), Variable((2, 3))) == Add((5, 9), lit(1), Variable((0, 0)))
        assert parse("(1+t)^2") == parse("( 1 + t ) ^ 2")
        assert parse("(1+t)^2").span != parse("( 1 + t ) ^ 2").span
        assert Add((0, 0), lit(1), lit(2)) != Add((0, 0), lit(2), lit(1))

    def test_equal_nodes_hash_equal(self):
        assert hash(parse("exp(t)*a")) == hash(parse("exp( t ) * a"))
        assert len({parse("1/(1-t)"), parse(" 1 / (1 - t)"), parse("1/(1+t)")}) == 2

    def test_class_is_part_of_the_value(self):
        for one, other in [(Add, Sub), (Mul, Div), (Exp, Log)]:
            fields = (lit(1), Variable((0, 0))) if one is not Exp else (Variable((0, 0)),)
            assert one((0, 0), *fields) != other((0, 0), *fields)
        assert Variable((0, 0)) == Variable((3, 4)) != lit(0)

    def test_keyword_construction(self):
        # fields are passed by position only, every one of them
        with pytest.raises(TypeError, match=r"Add\(\) takes 3 arguments, got 2"):
            Add((0, 0), lit(1))
        with pytest.raises(TypeError, match=r"Add\(\) takes 3 arguments, got 4"):
            Add((0, 0), lit(1), lit(2), lit(3))
        with pytest.raises(TypeError):
            Exp((0, 0), argument=lit(1))
        with pytest.raises(TypeError):
            Parameter(name="a", span=(0, 1))

    def test_depth_counts_operator_levels(self):
        assert lit(1).depth == 0 and Variable((0, 0)).depth == 0
        assert parse("1+t").depth == 1
        assert parse("(1+t)^2").depth == 2
        assert parse("-exp(t*a)").depth == 3
        assert parse("1+t+t^2").depth == 2

    def test_fields_cannot_be_assigned(self):
        node = parse("(1+t)^2")
        for name in ("base", "span", "depth", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, lit(3))
        with pytest.raises(AttributeError):
            del node.base
        assert node == parse("(1+t)^2") and node.depth == 2

    def test_repr_shows_class_and_fields(self):
        assert repr(parse("a+t")) == (
            "Add(span=(0, 3), left=Parameter(span=(0, 1), name='a'), "
            "right=Variable(span=(2, 3)))"
        )

    def test_copies_are_equal(self):
        node = parse("1/(1-a*t)^2")
        assert copy.deepcopy(node) == node
        assert pickle.loads(pickle.dumps(node)) == node
        assert pickle.loads(pickle.dumps(node)).depth == node.depth


class TestParseErrors:
    def test_unclosed_call_reports_end_of_input(self):
        with pytest.raises(ParseError) as info:
            parse("exp(t")
        assert info.value.offset == len("exp(t")
        assert ")" in info.value.expected

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'sin'") as info:
            parse("sin(t)")
        assert info.value.offset == 0
        assert info.value.expected == {"exp", "log"}

    @pytest.mark.parametrize("text,offset", [
        ("\u00e9", 0), ("a\u00e9", 1), ("a\u0663+t", 1), ("1+t+x_\u00e9*t^2", 6),
    ])
    def test_a_name_is_ascii(self, text, offset):
        # str.isalnum would take the letters and digits of other scripts
        with pytest.raises(ParseError, match="non-ASCII character") as info:
            parse(text)
        assert info.value.offset == offset

    def test_reserved_name_requires_call(self):
        with pytest.raises(ParseError):
            parse("exp + 1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse("1+t )")
        assert info.value.offset == 4

    def test_non_ascii_rejected(self):
        with pytest.raises(ParseError):
            parse("1+φ")

    def test_offsets_point_into_text(self):
        with pytest.raises(ParseError) as info:
            parse("1+*2")
        assert info.value.offset == 2

    def test_exponent_lists_no_unary_minus(self):
        with pytest.raises(ParseError) as info:
            parse("1+t+t^2*(1+t)^-1")
        assert info.value.offset == 14
        assert info.value.expected == frozenset({"'('", "identifier", "number"})
        assert str(info.value) == (
            "unexpected token '-' at offset 14 (expected '(', identifier, number)"
        )

    def test_operand_lists_unary_minus(self):
        with pytest.raises(ParseError) as info:
            parse("+t")
        assert info.value.expected == frozenset({"'('", "'-'", "identifier", "number"})
        with pytest.raises(ParseError) as info:
            parse("t^(+t)")
        assert "'-'" in info.value.expected

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError) as info:
            parse("3/0 + t")
        assert info.value.offset == 0


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("(1+t)^2"), {}, 4) == TruncatedSeries([1, 2, 1], order=4)

    def test_rational_exponent_parameter(self):
        got = evaluate(parse("1/(1-t)^a"), {"a": Q(2)}, 3)
        assert got == TruncatedSeries([1, 2, 3, 4])

    def test_exp(self):
        got = evaluate(parse("exp(t)"), {}, 3)
        assert got == TruncatedSeries([1, 1, Q(1, 2), Q(1, 6)])

    def test_unbound_parameter(self):
        with pytest.raises(ExpressionError, match="parameter 'm' is not bound"):
            evaluate(parse("(1+s*t)^m"), {"s": Q(1)}, 4)

    def test_variable_in_exponent_rejected(self):
        with pytest.raises(ExpressionError, match="t may not appear in an exponent"):
            evaluate(parse("2^t"), {}, 4)

    def test_irrational_constant_exponent_rejected(self):
        with pytest.raises(ExpressionError, match="a power in an exponent is not rational"):
            evaluate(parse("t^(2^(1/2))"), {}, 4)

    def test_series_error_carries_span(self):
        with pytest.raises(ExpressionError, match="cannot divide by a series") as info:
            evaluate(parse("1/(t+t^2)"), {}, 4)
        assert info.value.span is not None

    def test_rational_power_of_non_unit_constant(self):
        # constant factored out when it has an exact root: (4+4t)^(1/2) = 2*(1+t)^(1/2)
        got = evaluate(parse("(4+4*t)^(1/2)"), {}, 3)
        expected = pow_rational(TruncatedSeries([1, 1], order=3), Q(1, 2)) * 2
        assert got == expected

    def test_rational_power_without_exact_root(self):
        with pytest.raises(ExpressionError, match="no exact rational root of index 2"):
            evaluate(parse("(2+t)^(1/2)"), {}, 3)

    def test_negative_exponent_needs_parens(self):
        with pytest.raises(ParseError):
            parse("(1+t)^-2")
        got = evaluate(parse("(1+t)^(-2)"), {}, 3)
        assert got == pow_int(TruncatedSeries([1, 1], order=3), -2)


class TestEvaluationErrors:
    """Each error, raised with its message and the span of the failing subtree."""

    @pytest.mark.parametrize(
        "text,binding,message,span",
        [
            ("1/(t+t^2)", {}, "cannot divide by a series with constant term 0", (0, 8)),
            ("1+1/t", {}, "cannot divide by a series with constant term 0", (2, 5)),
            ("2*t^(-1)", {}, "negative power of a series with constant term 0", (2, 7)),
            ("log(2+t)", {}, "log requires constant term exactly 1", (0, 8)),
            ("1+(2+t)^(1/2)", {},
             "constant term 2 has no exact rational root of index 2", (3, 12)),
            ("t^(1/2)", {}, "non-integer power of a series with constant term 0", (0, 6)),
            ("exp(1+t)", {}, "exp requires constant term exactly 0", (0, 8)),
            ("(1+s*t)^m", {"s": Q(1)}, "parameter 'm' is not bound", (8, 9)),
            ("2^t", {}, "the variable t may not appear in an exponent", (2, 3)),
            ("t^(2^(1/2))", {}, "a power in an exponent is not rational", (3, 9)),
            ("t^exp(t)", {}, "exp/log are not allowed in an exponent", (2, 8)),
            ("t^(1/(1-1))", {}, "division by zero in an exponent", (3, 9)),
            ("t^(0^(-1))", {}, "zero raised to a negative power", (3, 8)),
        ],
    )
    def test_error_class_and_span(self, text, binding, message, span):
        with pytest.raises(ExpressionError) as info:
            evaluate(parse(text), binding, 4)
        assert info.value.span == span
        # series and evaluation errors both show the span in the message
        assert str(info.value) == f"{message} (at offsets {span[0]}..{span[1]})"
        # only a constant that divides by zero is undefined, which
        # HookWeightFunction.from_spec reports as an undefined rho(n)
        undefined = message.startswith(("division by zero", "zero raised"))
        assert isinstance(info.value, UndefinedConstant) == undefined

    def test_series_error_without_span_has_plain_message(self):
        err = ExpressionError("cannot divide by a series with constant term 0")
        assert err.span is None
        assert str(err) == "cannot divide by a series with constant term 0"


class TestOnlineEvaluation:
    @pytest.mark.parametrize(
        "text,reference",
        [
            ("(4+t)^(1/2)", lambda z: pow_rational(div(z, 4) + 1, Q(1, 2)) * 2),
            ("(-8+t)^(1/3)", lambda z: pow_rational(1 - div(z, 8), Q(1, 3)) * -2),
            ("(t+t^2)^3", lambda z: pow_int(z + z * z, 3)),
            ("(t^2+t^3)^2", lambda z: pow_int(z * z + z * z * z, 2)),
            ("(2-t)^(-3)", lambda z: pow_int(2 - z, -3)),
            ("(1-t+2*t^2-t^3)^(2/3)", lambda z: pow_rational(1 - z + z * z * (2 - z), Q(2, 3))),
            ("(t^2+t^3-t^6)^3", lambda z: pow_int(z * z * (1 + z - z * z * z * z), 3)),
            ("log(1+t)/(1-t)", lambda z: div(log(1 + z), 1 - z)),
            ("exp(t-1/2*t^2)*3", lambda z: exp(z - div(z * z, 2)) * 3),
            ("(1-t)/(1+t+t^2)", lambda z: div(1 - z, 1 + z + z * z)),
            ("0^0+t^0+(1+t)^1", lambda z: 3 + z),
        ],
    )
    def test_matches_eager_series_operations(self, text, reference):
        assert evaluate(parse(text), {}, 12) == reference(identity(12))

    def test_peek_is_the_next_coefficient_at_zero(self):
        # the F_n = 0 probe that rho_from_forest makes at every step
        expr = parse("exp(t)*(1+t^2)^(1/2)/(1-t)^2+t")
        online, fed = OnlineSeries(expr, {}), OnlineSeries(expr, {})
        for f in (Q(1), Q(-2)):
            online.extend(f)
            fed.extend(f)
        before = list(online.coefficients)
        assert online.peek() == fed.extend(Q(0))
        assert online.coefficients == before
        assert online.extend(Q(5, 3)) == online.coefficients[3]
        F = TruncatedSeries([0, 1, -2, Q(5, 3)])
        assert online.coefficients == list(evaluate(expr, {}, 3).compose(F).coefficients)

    def test_every_t_reads_the_one_argument(self):
        online = OnlineSeries(parse("t"), {})
        assert [online.extend(f) for f in (Q(2), Q(-1, 3))] == [2, Q(-1, 3)]
        online = OnlineSeries(parse("t*t+t^1-t"), {})
        assert [online.extend(f) for f in (Q(2), Q(3))] == [0, 4]

    def test_extend_takes_ints_and_refuses_floats(self):
        online = OnlineSeries(parse("exp(t)*(1+t)^2"), {})
        assert [online.extend(f) for f in (1, 0)] == [3, Q(7, 2)]
        assert all(type(c) is Q for c in online.coefficients)
        with pytest.raises(TypeError):
            online.extend(0.5)

    def test_peek_on_a_fresh_series(self):
        online = OnlineSeries(parse("1+t"), {})
        assert online.peek() == 0
        assert online.coefficients == [1]

    def test_huge_exponent_of_a_zero_constant_series_costs_nothing(self):
        got = evaluate(parse("1+t+t^(2^60000)"), {}, 30)
        assert got == TruncatedSeries([1, 1], order=30)


# Random rationals with numerators and denominators up to 2^70, small ones
# and zeros, so products cancel, terms vanish and F may start late.
KERNEL_ORDER = 20
big = st.builds(Q, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
small = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))
coefficient = st.one_of(st.just(Q(0)), small, big)
nonzero = st.one_of(small, big).filter(bool)


def case_mul(draw):
    a, b = draw(coefficient), draw(coefficient)
    return "(a+t)*(b-t*t)", {"a": a, "b": b}, lambda F: (a + F) * (b - F * F)


def case_div(draw):
    a, b = draw(coefficient), draw(nonzero)
    return "(a+t)/(b+t)", {"a": a, "b": b}, lambda F: div(a + F, b + F)


def case_pow_int(draw):
    b, k = draw(nonzero), draw(st.sampled_from([-3, -2, -1, 2, 3, 4]))
    return "(b+t)^k", {"b": b, "k": Q(k)}, lambda F: pow_int(b + F, k)


def case_pow_of_zero_constant(draw):
    # the v > 0 path: F may have leading zeros, so v may exceed 1
    a, k = draw(coefficient), draw(st.integers(2, 4))
    return "(a*t+t^2)^k", {"a": a, "k": Q(k)}, lambda F: pow_int(F * a + F * F, k)


def case_pow_rational(draw):
    r, q = draw(nonzero), draw(st.integers(2, 4))
    p = draw(st.integers(-4, 4).filter(lambda p: p % q))
    root = r if q % 2 else abs(r)  # the root that c^(1/q) takes
    c, e = root**q, Q(p, q)
    return (
        "(c+t)^e",
        {"c": c, "e": e},
        lambda F: pow_rational(1 + div(F, c), e) * root**p,
    )


def case_exp(draw):
    a = draw(coefficient)
    return "exp(a*t)", {"a": a}, lambda F: exp(F * a)


def case_log(draw):
    a = draw(coefficient)
    return "log(1+a*t)", {"a": a}, lambda F: log(1 + F * a)


@pytest.mark.parametrize(
    "case",
    [case_mul, case_div, case_pow_int, case_pow_of_zero_constant, case_pow_rational,
     case_exp, case_log],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_online_nodes_match_the_eager_reference(case, data):
    text, binding, reference = case(data.draw)
    expr = parse(text)
    values = data.draw(st.lists(coefficient, min_size=KERNEL_ORDER, max_size=KERNEL_ORDER))
    F = TruncatedSeries([0, *values])
    expected = reference(F)
    at_z = evaluate(expr, binding, KERNEL_ORDER)
    assert at_z == reference(identity(KERNEL_ORDER))
    assert at_z.compose(F) == expected
    online = OnlineSeries(expr, binding)
    for m, f in enumerate(values, 1):
        # coefficient m holds F_m only through [t^1] * F_m, as F(0) = 0
        at_zero = online.peek()
        assert online.extend(f) == expected.coeff(m) == at_zero + at_z.coeff(1) * f
    assert online.coefficients == list(expected.coefficients)
    assert all(type(c) is Q for c in online.coefficients)


class TestResourceBounds:
    @pytest.mark.parametrize(
        "text",
        ["(" * 1200 + "1+t^2" + ")" * 1200, "1" + "+t^2" * 1500, "-" * 1200 + "t",
         "t" + "^t" * 1200, "exp(" * 1200 + "t" + ")" * 1200],
    )
    def test_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested"):
            parse(text)

    def test_deepest_accepted_expression_evaluates(self):
        # every walk of the deepest accepted trees stays in bounds
        nested = parse("(" * (MAX_DEPTH - 1) + "1+t" + ")" * (MAX_DEPTH - 1))
        assert evaluate(nested, {}, 3) == TruncatedSeries([1, 1], order=3)
        chain = parse("1" + "+t" * MAX_DEPTH)
        assert chain.depth == MAX_DEPTH
        assert evaluate(chain, {}, 2).coefficients == (1, MAX_DEPTH, 0)
        exponent = parse("t^(" + "(" * (MAX_DEPTH - 2) + "2" + ")" * (MAX_DEPTH - 2) + ")")
        assert evaluate(exponent, {}, 2).coefficients == (0, 0, 1)
        with pytest.raises(ParseError):
            parse("(" * MAX_DEPTH + "1+t" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError):
            parse("1" + "+t" * (MAX_DEPTH + 1))

    def test_constant_power_too_large(self):
        with pytest.raises(ExpressionError, match="power too large"):
            evaluate(parse("1+t+2^(10^9)*t^2"), {}, 3)
        with pytest.raises(ExpressionError, match="power too large"):
            evaluate(parse("(2+t)^(10^9)"), {}, 3)

    def test_series_exponent_too_large(self):
        with pytest.raises(ExpressionError, match="exponent of a series too large"):
            evaluate(parse("(1+t)^(2^100)"), {}, 3)
        got = evaluate(parse("(1+t)^(2^60)"), {}, 2)
        assert got.coefficients == (1, 2**60, 2**60 * (2**60 - 1) // 2)

    def test_root_of_huge_index_and_zero_to_negative_power(self):
        with pytest.raises(ExpressionError, match="a power in an exponent is not rational"):
            evaluate(parse("t^(4^(1/(10^9)))"), {}, 3)
        with pytest.raises(UndefinedConstant, match="zero raised to a negative power"):
            evaluate(parse("t^(0^(-1/2))"), {}, 3)


class TestPhiCoefficients:
    def test_kary_three(self):
        assert evaluate(parse("(1+t)^3"), {}, 3).coefficients == (1, 3, 3, 1)

    def test_plane(self):
        assert evaluate(parse("1/(1-t)"), {}, 4).coefficients == (1, 1, 1, 1, 1)

    def test_labelled(self):
        assert evaluate(parse("exp(t)"), {}, 3).coefficients == (1, 1, Q(1, 2), Q(1, 6))


BUILTIN_EXPRESSIONS = [
    ("(1+t)^2", {}, "binary"),
    ("(1+t)^k", {"k": Q(3)}, "kary:3"),
    ("1/(1-t)", {}, "plane"),
    ("exp(t)", {}, "labelled"),
    ("(1+s*t)^m", {"s": Q(1, 2), "m": Q(3)}, "yang:1/2,3"),
    ("1/(1-t)^a", {"a": Q(2)}, "polyalpha:2"),
]


@pytest.mark.parametrize("text,binding,spec", BUILTIN_EXPRESSIONS)
def test_expression_matches_hand_built_family(text, binding, spec):
    assert evaluate(parse(text), binding, 20) == families.from_spec(spec).phi_series(20)


@pytest.mark.parametrize("spec", [spec for *_, spec in BUILTIN_EXPRESSIONS] + [None])
def test_evaluation_at_z_resumes(spec):
    # each builtin's own expression, and the polynomial 1 + t^2
    family = families.from_spec(spec) if spec else families.from_expression("1+t^2")
    expr, binding = family.expression, family.binding
    resumed = OnlineSeries(expr, binding)
    first = list(resumed.at_z(3))
    whole = OnlineSeries(expr, binding).at_z(7)
    assert first == whole[:4]
    assert resumed.at_z(7) == whole
    assert TruncatedSeries(whole) == evaluate(expr, binding, 7)


def test_fuzzed_inputs_parse_or_raise_parse_error():
    rng = random.Random(0xF00D)
    pieces = [
        "t", "s", "m", "a", "exp", "log", "sin", "1", "2", "12", "1/2",
        "+", "-", "*", "/", "^", "(", ")", " ", "",
    ]
    for _ in range(1000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 14)))
        try:
            parse(text)
        except ParseError:
            pass
