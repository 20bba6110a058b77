import random
from fractions import Fraction as Q

import pytest

from hooktrees import families
from hooktrees.errors import (
    ConstantTermNotOne,
    NonConstantExponent,
    NonzeroConstantTerm,
    ParseError,
    UnboundParameter,
    UnknownFunction,
    ZeroConstantTerm,
)
from hooktrees.gfparse import (
    MAX_DEPTH,
    Add,
    Div,
    Exp,
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
from hooktrees.series import TruncatedSeries, exp, identity, log


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


class TestParseErrors:
    def test_unclosed_call_reports_end_of_input(self):
        with pytest.raises(ParseError) as info:
            parse("exp(t")
        assert info.value.offset == len("exp(t")
        assert ")" in info.value.expected

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction) as info:
            parse("sin(t)")
        assert info.value.offset == 0

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
        with pytest.raises(UnboundParameter):
            evaluate(parse("(1+s*t)^m"), {"s": Q(1)}, 4)

    def test_variable_in_exponent_rejected(self):
        with pytest.raises(NonConstantExponent):
            evaluate(parse("2^t"), {}, 4)

    def test_irrational_constant_exponent_rejected(self):
        with pytest.raises(NonConstantExponent):
            evaluate(parse("t^(2^(1/2))"), {}, 4)

    def test_series_error_carries_span(self):
        with pytest.raises(ZeroConstantTerm) as info:
            evaluate(parse("1/(t+t^2)"), {}, 4)
        assert info.value.span is not None

    def test_rational_power_of_non_unit_constant(self):
        # constant factored out when it has an exact root: (4+4t)^(1/2) = 2*(1+t)^(1/2)
        got = evaluate(parse("(4+4*t)^(1/2)"), {}, 3)
        expected = TruncatedSeries([1, 1], order=3).pow_rational(Q(1, 2)) * 2
        assert got == expected

    def test_rational_power_without_exact_root(self):
        with pytest.raises(ConstantTermNotOne):
            evaluate(parse("(2+t)^(1/2)"), {}, 3)

    def test_negative_exponent_needs_parens(self):
        with pytest.raises(ParseError):
            parse("(1+t)^-2")
        got = evaluate(parse("(1+t)^(-2)"), {}, 3)
        assert got == TruncatedSeries([1, 1], order=3).pow_int(-2)


class TestEvaluationErrors:
    """Each error class, raised with the span of the failing subtree."""

    @pytest.mark.parametrize(
        "text,binding,error,span",
        [
            ("1/(t+t^2)", {}, ZeroConstantTerm, (0, 8)),
            ("1+1/t", {}, ZeroConstantTerm, (2, 5)),
            ("2*t^(-1)", {}, ZeroConstantTerm, (2, 7)),
            ("log(2+t)", {}, ConstantTermNotOne, (0, 8)),
            ("1+(2+t)^(1/2)", {}, ConstantTermNotOne, (3, 12)),
            ("t^(1/2)", {}, ConstantTermNotOne, (0, 6)),
            ("exp(1+t)", {}, NonzeroConstantTerm, (0, 8)),
            ("(1+s*t)^m", {"s": Q(1)}, UnboundParameter, (8, 9)),
            ("2^t", {}, NonConstantExponent, (2, 3)),
            ("t^(2^(1/2))", {}, NonConstantExponent, (3, 9)),
            ("t^exp(t)", {}, NonConstantExponent, (2, 8)),
            ("t^(1/(1-1))", {}, NonConstantExponent, (3, 9)),
        ],
    )
    def test_error_class_and_span(self, text, binding, error, span):
        with pytest.raises(error) as info:
            evaluate(parse(text), binding, 4)
        assert info.value.span == span


class TestOnlineEvaluation:
    @pytest.mark.parametrize(
        "text,reference",
        [
            ("(4+t)^(1/2)", lambda z: (z / 4 + 1).pow_rational(Q(1, 2)) * 2),
            ("(-8+t)^(1/3)", lambda z: (1 - z / 8).pow_rational(Q(1, 3)) * -2),
            ("(t+t^2)^3", lambda z: (z + z * z).pow_int(3)),
            ("(t^2+t^3)^2", lambda z: (z * z + z * z * z).pow_int(2)),
            ("(2-t)^(-3)", lambda z: (2 - z).pow_int(-3)),
            ("log(1+t)/(1-t)", lambda z: log(1 + z) / (1 - z)),
            ("exp(t-1/2*t^2)*3", lambda z: exp(z - z * z / 2) * 3),
            ("(1-t)/(1+t+t^2)", lambda z: (1 - z) / (1 + z + z * z)),
            ("0^0+t^0+(1+t)^1", lambda z: 3 + z),
        ],
    )
    def test_matches_eager_series_operations(self, text, reference):
        assert evaluate(parse(text), {}, 12) == reference(identity(12))

    def test_retract_then_extend_with_a_changed_coefficient(self):
        # the F_n = 0 probe that rho_from_forest makes at every step
        expr = parse("exp(t)*(1+t^2)^(1/2)/(1-t)^2+t")
        online = OnlineSeries(expr, {})
        online.extend(Q(1))
        online.extend(Q(-2))
        online.extend(Q(0))
        online.retract()
        assert online.extend(Q(5, 3)) == online.coefficients[3]
        F = TruncatedSeries([0, 1, -2, Q(5, 3)])
        assert online.coefficients == list(evaluate(expr, {}, 3).compose(F).coefficients)

    def test_every_t_reads_the_one_argument(self):
        online = OnlineSeries(parse("t"), {})
        assert [online.extend(f) for f in (Q(2), Q(-1, 3))] == [2, Q(-1, 3)]
        online = OnlineSeries(parse("t*t+t^1-t"), {})
        assert [online.extend(f) for f in (Q(2), Q(3))] == [0, 4]

    def test_retract_needs_a_step(self):
        online = OnlineSeries(parse("1+t"), {})
        with pytest.raises(ValueError):
            online.retract()
        online.extend(Q(1))
        online.retract()
        assert online.coefficients == [1]

    def test_huge_exponent_of_a_zero_constant_series_costs_nothing(self):
        got = evaluate(parse("1+t+t^(2^60000)"), {}, 30)
        assert got == TruncatedSeries([1, 1], order=30)


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
        with pytest.raises(NonConstantExponent, match="too large"):
            evaluate(parse("1+t+2^(10^9)*t^2"), {}, 3)
        with pytest.raises(NonConstantExponent, match="too large"):
            evaluate(parse("(2+t)^(10^9)"), {}, 3)

    def test_series_exponent_too_large(self):
        with pytest.raises(NonConstantExponent, match="too large"):
            evaluate(parse("(1+t)^(2^100)"), {}, 3)
        got = evaluate(parse("(1+t)^(2^60)"), {}, 2)
        assert got.coefficients == (1, 2**60, 2**60 * (2**60 - 1) // 2)

    def test_root_of_huge_index_and_zero_to_negative_power(self):
        with pytest.raises(NonConstantExponent):
            evaluate(parse("t^(4^(1/(10^9)))"), {}, 3)
        with pytest.raises(NonConstantExponent):
            evaluate(parse("t^(0^(-1/2))"), {}, 3)


class TestPhiCoefficients:
    def test_kary_three(self):
        assert evaluate(parse("(1+t)^3"), {}, 3).coefficients == (1, 3, 3, 1)

    def test_plane(self):
        assert evaluate(parse("1/(1-t)"), {}, 4).coefficients == (1, 1, 1, 1, 1)

    def test_labelled(self):
        assert evaluate(parse("exp(t)"), {}, 3).coefficients == (1, 1, Q(1, 2), Q(1, 6))


BUILTIN_EXPRESSIONS = [
    ("(1+t)^2", {}, families.binary),
    ("(1+t)^k", {"k": Q(3)}, lambda: families.kary(3)),
    ("1/(1-t)", {}, families.plane),
    ("exp(t)", {}, families.labelled),
    ("(1+s*t)^m", {"s": Q(1, 2), "m": Q(3)}, lambda: families.yang(Q(1, 2), Q(3))),
    ("1/(1-t)^a", {"a": Q(2)}, lambda: families.polyalpha(Q(2))),
]


@pytest.mark.parametrize("text,binding,make_family", BUILTIN_EXPRESSIONS)
def test_expression_matches_hand_built_family(text, binding, make_family):
    assert evaluate(parse(text), binding, 20) == make_family().phi_series(20)


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
