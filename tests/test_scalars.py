"""Exact scalar arithmetic: parsing, normalization, conjugation, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import scalars as scalars_module
from hermitia.scalars import (
    EvaluationError,
    ParseError,
    Scalar,
    ScalarError,
    Symbol,
    SymbolTable,
    _canonical_fraction,
    _poly_add,
    _poly_conj,
    _poly_mul,
    _poly_neg,
    _poly_str,
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


# -- Q(i) values as integer triples against the polynomial helpers -----------

_QI = SymbolTable()
_QIB = SymbolTable([Symbol("b")])  # only i is related, plus one free symbol
_S2 = SymbolTable([Symbol("s2", relation=(2, "2"))])
_ZERO_DIVISION = "division by a scalar that normalizes to zero"

_ints = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30))
_dens = st.one_of(st.integers(1, 6), st.integers(1, 10**20))


def _trees(*symbols):
    """Expression trees over Q(i) and the given symbol names, so the same
    value can be built in several tables."""
    leaves = [st.builds(Fraction, _ints, _dens), st.just("i")]
    if symbols:
        leaves.append(st.sampled_from(symbols))
    return st.recursive(
        st.one_of(leaves),
        lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids),
        max_leaves=8,
    )


def _build(tree, table):
    if isinstance(tree, Fraction):
        return table.scalar(tree)
    if tree == "i":
        return table.i
    if isinstance(tree, str):
        return table.symbol(tree)
    op, left, right = tree
    x, y = _build(left, table), _build(right, table)
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x if y.is_zero() else x / y


def _ref_key(num, den):
    return (tuple(sorted(num.items())), tuple(sorted(den.items())))


def _references(table, x, y):
    """The polynomial-path canonical fractions of x+y, x-y, x*y, x/y, conj x."""
    xn, xd, yn, yd = x.num, x.den, y.num, y.den
    out = {
        "+": (_poly_add(_poly_mul(table, xn, yd), _poly_mul(table, yn, xd)), _poly_mul(table, xd, yd)),
        "-": (_poly_add(_poly_mul(table, xn, yd), _poly_neg(_poly_mul(table, yn, xd))),
              _poly_mul(table, xd, yd)),
        "*": (_poly_mul(table, xn, yn), _poly_mul(table, xd, yd)),
        "conj": (_poly_conj(xn), _poly_conj(xd)),
    }
    if not y.is_zero():
        out["/"] = (_poly_mul(table, xn, yd), _poly_mul(table, xd, yn))
    return {op: _canonical_fraction(table, *nd) for op, nd in out.items()}


def _results(x, y):
    out = {"+": x + y, "-": x - y, "*": x * y, "conj": x.conjugate()}
    if not y.is_zero():
        out["/"] = x / y
    return out


def _ref_str(table, num, den):
    num_s, num_simple = _poly_str(table, num)
    if den == {(): Fraction(1)}:
        return num_s
    den_s, den_simple = _poly_str(table, den)
    return f"{num_s if num_simple else f'({num_s})'}/{den_s if den_simple else f'({den_s})'}"


def _assert_matches(result, num, den, table):
    key = _ref_key(num, den)
    assert result.num == num and result.den == den
    assert result.key() == key
    assert hash(result) == hash(key)
    assert str(result) == _ref_str(table, num, den)


@settings(max_examples=150, deadline=None)
@given(_trees(), _trees())
def test_gaussian_arithmetic_matches_polynomial_reference(tx, ty):
    x, y = _build(tx, _QI), _build(ty, _QI)
    assert x._t is not None and y._t is not None
    refs = _references(_QI, x, y)
    for op, result in _results(x, y).items():
        assert result._t is not None, op
        _assert_matches(result, *refs[op], _QI)
    assert (x == y) == (x.key() == y.key())
    assert x == Scalar(_QI, x.num, x.den) and hash(x) == hash(Scalar(_QI, x.num, x.den))
    if x.is_rational():
        q = x.as_rational()
        assert x == q and x.key() == _QI.scalar(q).key()
    assert x.is_zero() == (x == 0) == (not x.num)


@settings(max_examples=100, deadline=None)
@given(_trees())
def test_gaussian_values_equal_the_related_table_bytes(tree):
    """A table declaring s2^2 = 2 keeps Q(i) values on the polynomial path;
    both ways of storing them give the same keys, hashes and strings."""
    x, s = _build(tree, _QI), _build(tree, _S2)
    assert x._t is not None and s._t is None
    assert x.key() == s.key() and hash(x) == hash(s) and str(x) == str(s)
    assert x == s and x.conjugate().key() == s.conjugate().key()


@settings(max_examples=100, deadline=None)
@given(_trees())
def test_division_by_a_gaussian_zero(tree):
    x = _build(tree, _QI)
    one_plus_i = _QI.one + _QI.i
    for zero in (x - x, one_plus_i * one_plus_i.conjugate() - 2, _QI.i * _QI.i + 1):
        assert zero._t == (0, 0, 1)
        for divide in (lambda: x / zero, lambda: 1 / zero, lambda: Fraction(1, 2) / zero):
            with pytest.raises(ScalarError) as err:
                divide()
            assert str(err.value) == _ZERO_DIVISION
        with pytest.raises(ScalarError) as ref:
            _canonical_fraction(_QI, x.num, zero.num)
        assert str(ref.value) == _ZERO_DIVISION


@settings(max_examples=100, deadline=None)
@given(_trees(), _trees("b"))
def test_free_symbol_operand_promotes_to_the_polynomial_path(tx, ty):
    x, y = _build(tx, _QIB), _build(ty, _QIB)
    b = _QIB.symbol("b")
    refs = _references(_QIB, x, y)
    for op, result in _results(x, y).items():
        _assert_matches(result, *refs[op], _QIB)
        # a result with no free symbol is a triple again
        assert (result._t is not None) == result.is_gaussian_rational(), op
    assert b._t is None and (x + b)._t is None
    back = (x + b) - b
    assert back._t == x._t and back == x
    assert ((x * b) / b)._t == x._t


@settings(max_examples=100, deadline=None)
@given(_trees("s2"), _trees("s2"))
def test_related_table_arithmetic_matches_polynomial_reference(tx, ty):
    x, y = _build(tx, _S2), _build(ty, _S2)
    refs = _references(_S2, x, y)
    for op, result in _results(x, y).items():
        assert result._t is None
        assert result.key() == _ref_key(*refs[op]), op


@settings(max_examples=150, deadline=None)
@given(_trees("b"))
def test_conjugate_of_a_canonical_fraction_is_canonical(tree):
    for table in (_QIB, _TABLE):
        x = _build(tree, table)
        expect = _canonical_fraction(table, _poly_conj(x.num), _poly_conj(x.den))
        assert x.conjugate().key() == _ref_key(*expect)


def test_gaussian_arithmetic_never_multiplies_polynomials(monkeypatch):
    calls = []

    def counting(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)

        return wrapped

    x = _QI.scalar(Fraction(3, 7)) + _QI.scalar(Fraction(2, 5)) * _QI.i
    y = _QI.scalar(-(10**25)) + _QI.scalar(Fraction(11, 2)) * _QI.i
    for name in ("_poly_mul", "_canonical_fraction", "_alg_inverse", "_reduce_poly"):
        monkeypatch.setattr(scalars_module, name, counting(name, getattr(scalars_module, name)))
    values = [x + y, x - y, x * y, x / y, 3 / x, x**5, -x, x.conjugate(), x * 2, Fraction(1, 3) - y]
    values.append(_QI.parse("(1+i)^3/(2-i) - 7/9*i"))
    assert not calls, calls
    assert all(v._t is not None for v in values)
    assert values[3] * y == x and not calls


def test_a_scalar_past_the_digit_limit_refuses_to_print(table):
    """Python refuses to print an integer of more than its digit limit; the
    scalar names the digit count in a ScalarError instead."""
    big = table.scalar(2) ** 20000
    with pytest.raises(ScalarError, match=r"^scalar too long to print: a coefficient has 6021 digits"):
        str(big)
    with pytest.raises(ScalarError, match="has 6021 digits"):
        str(table.scalar(1) / (big * table.symbol("b") + 1))
    gaussian = SymbolTable()
    with pytest.raises(ScalarError, match="has 6021 digits"):
        str(gaussian.scalar(2) ** 20000 * gaussian.i / 3)
    assert str(gaussian.scalar(2) ** 4000) == str(2**4000)


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(-60, 60), b=st.integers(-60, 60), d=st.integers(1, 60), k=st.integers(1, 80)
)
def test_property_power_digits_is_a_lower_bound(a, b, d, k):
    """Some integer printed in c^k has more digits than ``power_digits``
    says, for c = (a + b i) / d."""
    table = SymbolTable()
    c = (table.scalar(a) + table.scalar(b) * table.i) / d
    bound = scalars_module.power_digits(c, k)
    written = [n for x in (c**k).num.values() for n in (x.numerator, x.denominator)]
    assert bound < max((len(str(abs(n))) for n in written), default=1)
