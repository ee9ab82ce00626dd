"""Exact scalar arithmetic: parsing, normalization, conjugation, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.scalars import (
    EvaluationError,
    ParseError,
    Scalar,
    ScalarError,
    Symbol,
    SymbolTable,
    normalize,
    parse_expr,
)


@pytest.fixture
def table():
    return SymbolTable(
        [
            Symbol("s2", relation=(2, "2"), sign_hint="positive"),
            Symbol("s3", relation=(2, "3"), sign_hint="positive"),
            Symbol("b", sign_hint="positive"),
            Symbol("a"),
        ]
    )


def test_scalar_lifts_expression_strings(table):
    assert table.scalar("1/2+i*a") == table.parse("1/2+i*a")
    assert table.scalar(Fraction(1, 2)) == table.scalar("1/2")


def test_scalar_parses_each_string_once_per_table(table):
    assert table.scalar("1/2") is table.scalar("1/2")
    assert table.scalar("s2*a") is table.scalar("s2*a")
    # a string that fails to parse is not kept: it fails the same way again
    offsets = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            table.scalar("2+q")
        offsets.append(err.value.offset)
    assert offsets == [2, 2]


def test_scalar_from_incompatible_table_is_rejected(table):
    from hermitia.cealg import LieAlgebraPresentation

    other = SymbolTable([Symbol("c")])
    with pytest.raises(ScalarError, match="incompatible"):
        table.scalar(other.symbol("c"))
    with pytest.raises(ScalarError, match="incompatible"):
        LieAlgebraPresentation(3, {1: [(other.symbol("c"), (2, 3))]}, table=table)


def test_parse_gaussian_product(table):
    assert parse_expr("(1+i)*(1-i)", table) == 2


def test_parse_rewrite_step(table):
    assert parse_expr("s2^3", table) == parse_expr("2*s2", table)


def test_parse_fraction_cancellation(table):
    assert parse_expr("b/b", table) == 1


def test_relation_normalizes_to_zero(table):
    assert parse_expr("s2^2-2", table).is_zero()


def test_mixed_radical_product(table):
    assert parse_expr("(s2*s3)^2", table) == 6
    assert parse_expr("(1+s2)*(s2-1)", table) == 1


def test_division_by_algebraic_clears_denominator(table):
    s = parse_expr("1/(1+s2)", table)
    assert s == parse_expr("s2-1", table)
    assert s.den == {(): Fraction(1)}


def test_polynomial_cancellation(table):
    assert parse_expr("(b^2-1)/(b-1)", table) == parse_expr("b+1", table)
    assert parse_expr("(a*b+a)/(b+1)", table) == parse_expr("a", table)


def test_conjugation(table):
    assert parse_expr("3+2*i", table).conjugate() == parse_expr("3-2*i", table)
    b = parse_expr("b", table)
    assert b.conjugate() == b
    s = parse_expr("(1+i*b)/(2-i)", table)
    assert s.conjugate().conjugate() == s


def test_normalize_idempotent(table):
    s = parse_expr("(1+i)*(b+s2)^2/(3-b)", table)
    assert normalize(s) == s
    assert normalize(normalize(s)) == normalize(s)


def test_zero_unique_representation(table):
    z1 = parse_expr("s2^2-2", table)
    z2 = parse_expr("0", table)
    z3 = parse_expr("b-b", table)
    assert z1.key() == z2.key() == z3.key()


def test_exponent_bound_invariant(table):
    s = parse_expr("s2^5+s3^4*s2", table)
    for mono in s.num:
        for idx, e in mono:
            name = table.name_of(idx)
            if name in ("s2", "s3"):
                assert e < 2
            if name == "i":
                assert e < 2


def test_parse_errors_carry_offsets(table):
    with pytest.raises(ParseError) as err:
        parse_expr("2*(b+", table)
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        parse_expr("2+q", table)
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_expr("b^x", table)
    assert err.value.offset == 2


def test_parse_division_by_zero(table):
    with pytest.raises(ParseError):
        parse_expr("1/(s2^2-2)", table)


def test_division_by_zero_scalar(table):
    one = table.one
    with pytest.raises(ScalarError):
        one / table.zero


def test_reserved_and_duplicate_names():
    with pytest.raises(ScalarError):
        Symbol("i")
    with pytest.raises(ScalarError):
        SymbolTable([Symbol("x"), Symbol("x")])
    with pytest.raises(ScalarError):
        Symbol("x", relation=(1, "2"))


def test_relation_ordering_enforced():
    with pytest.raises(ScalarError):
        # forward reference: s refers to a later symbol
        SymbolTable([Symbol("s", relation=(2, "u")), Symbol("u", relation=(2, "2"))])
    with pytest.raises(ScalarError):
        # relations may not involve free symbols
        SymbolTable([Symbol("b"), Symbol("s", relation=(2, "b"))])
    with pytest.raises(ScalarError):
        SymbolTable([Symbol("s", relation=(2, "i"))])


def test_nested_relation_tower():
    t = SymbolTable(
        [Symbol("s2", relation=(2, "2")), Symbol("r", relation=(2, "1+s2"))]
    )
    # r^4 = (1+s2)^2 = 3+2*s2
    assert parse_expr("r^4", t) == parse_expr("3+2*s2", t)
    assert parse_expr("r^2/(1+s2)", t) == 1
    # inversion through the tower: 1/(1+s2) rationalizes to s2-1
    assert parse_expr("1/r^2", t) == parse_expr("s2-1", t)


def test_evaluate_free_symbol(table):
    assert parse_expr("b", table).evaluate({"b": 2.7518}) == pytest.approx(2.7518)


def test_evaluate_respects_relation_tolerance(table):
    s = parse_expr("s2", table)
    assert s.evaluate({"s2": 1.41421356}) == pytest.approx(2**0.5, abs=1e-7)
    with pytest.raises(EvaluationError):
        s.evaluate({"s2": 1.5})


def test_evaluate_zero_denominator(table):
    s = parse_expr("1/(b-2)", table)
    with pytest.raises(EvaluationError):
        s.evaluate({"b": 2.0 + 1e-15})


def test_evaluate_missing_symbol(table):
    with pytest.raises(EvaluationError):
        parse_expr("a*b", table).evaluate({"b": 1.0})


def test_evaluate_sign_hint(table):
    with pytest.raises(EvaluationError):
        parse_expr("b", table).evaluate({"b": -1.0})


def test_print_parse_roundtrip_examples(table):
    for text in [
        "1/2*b+i*s2",
        "(2*a+1)/(b^2+1)",
        "-3/4",
        "(1-i)/(b-s2)",
        "a^3*b-2/7*i",
    ]:
        s = parse_expr(text, table)
        assert parse_expr(str(s), table) == s


# -- randomized ring axioms -------------------------------------------------

_TABLE = SymbolTable([Symbol("s2", relation=(2, "2")), Symbol("b")])


@st.composite
def scalars(draw):
    # small expression trees over Q(i, s2)(b)
    depth = draw(st.integers(0, 3))

    def build(d):
        if d == 0:
            kind = draw(st.integers(0, 3))
            if kind == 0:
                return _TABLE.scalar(draw(st.integers(-4, 4)))
            if kind == 1:
                return _TABLE.i
            if kind == 2:
                return _TABLE.symbol("s2")
            return _TABLE.symbol("b")
        op = draw(st.integers(0, 2))
        x, y = build(d - 1), build(d - 1)
        if op == 0:
            return x + y
        if op == 1:
            return x - y
        return x * y

    return build(depth)


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    assert x - x == _TABLE.zero


@settings(max_examples=150, deadline=None)
@given(scalars())
def test_normalize_involution_and_conjugate(x):
    assert normalize(normalize(x)) == normalize(x)
    assert x.conjugate().conjugate() == x


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars())
def test_evaluation_is_multiplicative(x, y):
    val = {"s2": 2**0.5, "b": 1.25}
    vx, vy, vxy = x.evaluate(val), y.evaluate(val), (x * y).evaluate(val)
    assert abs(vxy - vx * vy) <= 1e-9 * max(1.0, abs(vx * vy))


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_print_parse_roundtrip(x):
    assert parse_expr(str(x), _TABLE) == x
