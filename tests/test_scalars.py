"""Exact scalar arithmetic: parsing, normalization, conjugation, evaluation."""

import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
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
    # a gcd whose terms lead in another order than the dividend's
    assert parse_expr("(a*b+b^2)/(a+b)", table) == parse_expr("b", table)
    assert parse_expr("(s2*a*b+b^2)/(s2*a+b)", table) == parse_expr("b", table)


def test_conjugation(table):
    assert parse_expr("3+2*i", table).conjugate() == parse_expr("3-2*i", table)
    b = parse_expr("b", table)
    assert b.conjugate() == b
    s = parse_expr("(1+i*b)/(2-i)", table)
    assert s.conjugate().conjugate() == s


def test_normalize_idempotent(table):
    s = parse_expr("(1+i)*(b+s2)^2/(3-b)", table)
    again = Scalar(s.table, s.num, s.den)
    assert again == s
    assert Scalar(again.table, again.num, again.den) == again


def test_zero_unique_representation(table):
    z1 = parse_expr("s2^2-2", table)
    z2 = parse_expr("0", table)
    z3 = parse_expr("b-b", table)
    assert z1.key() == z2.key() == z3.key()


def test_exponent_bound_invariant(table):
    s = parse_expr("s2^5+s3^4*s2", table)
    for mono in s.num:
        for idx, e in mono:
            name = table.names[idx]
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


def test_evaluate_selects_the_nearest_root():
    """A related symbol's number selects the real root of its relation that
    lies nearest it; a number equally near two roots is refused, naming
    both."""
    t = SymbolTable([Symbol("s2", relation=(2, "2"))])
    s = t.symbol("s2")
    assert s.evaluate({"s2": 1.4142}) == pytest.approx(2**0.5, rel=1e-15)
    assert s.evaluate({"s2": -1.4142}) == pytest.approx(-(2**0.5), rel=1e-15)
    assert (s - Fraction(99, 70)).sign_at({"s2": 1.4142}) == -1
    assert (s - Fraction(140, 99)).sign_at({"s2": 1.4142}) == 1
    assert (s + Fraction(99, 70)).sign_at({"s2": -1.4142}) == 1
    with pytest.raises(EvaluationError, match=r"equally near the roots -\(2\)\^\(1/2\) and \(2\)\^\(1/2\)"):
        s.at({"s2": 0.0})


def test_evaluate_zero_denominator(table):
    s = parse_expr("1/(b-2)", table)
    with pytest.raises(EvaluationError, match="denominator"):
        s.evaluate({"b": 2.0})
    assert s.at({"b": 2.0 + 2**-51}) == 2**51


def test_evaluate_missing_symbol(table):
    with pytest.raises(EvaluationError):
        parse_expr("a*b", table).evaluate({"b": 1.0})


def test_evaluate_sign_hint(table):
    with pytest.raises(EvaluationError):
        parse_expr("b", table).evaluate({"b": -1.0})


def test_at_takes_floats_as_exact_dyadic_rationals(table):
    """a - 1 at a = 1 - 1e-13 is the exact difference of the float and 1;
    b's positive hint holds at 1e-300 exactly."""
    v = parse_expr("a-1", table).at({"a": 1 - 1e-13})
    assert v == Fraction(-901, 9007199254740992)
    assert v.table is table.related and table.related.names == ["i", "s2", "s3"]
    assert parse_expr("a-1", table).sign_at({"a": 1 - 1e-13}) == -1
    assert parse_expr("b", table).sign_at({"b": 1e-300}) == 1


@pytest.mark.parametrize("value", [1j, float("nan"), float("inf"), "1"])
def test_at_refuses_a_value_that_is_not_a_finite_real(table, value):
    with pytest.raises(EvaluationError, match="finite real"):
        parse_expr("a", table).at({"a": value})


def test_evaluate_tower_of_relations():
    """r^2 = 1 + s2 over s2^2 = 2: s2's root is selected first, and r's
    relation is solved at it."""
    t = SymbolTable([Symbol("s2", relation=(2, "2")), Symbol("r", relation=(2, "1+s2"))])
    r = t.symbol("r")
    root = (1 + 2**0.5) ** 0.5
    assert r.evaluate({"s2": 1.0, "r": 2.0}) == pytest.approx(root, rel=1e-15)
    assert r.evaluate({"s2": 1.0, "r": -0.5}) == pytest.approx(-root, rel=1e-15)
    assert (r - Fraction(15537739, 10**7)).sign_at({"s2": 1.0, "r": 1.0}) == 1
    assert (r - Fraction(15537740, 10**7)).sign_at({"s2": 1.0, "r": 1.0}) == -1
    with pytest.raises(EvaluationError, match="no real root"):
        r.at({"s2": -1.0, "r": 1.0})
    with pytest.raises(EvaluationError, match="'s2' needs a finite real value, got None"):
        r.at({"r": 1.0})


def test_evaluate_odd_relation_has_one_real_root():
    """c^3 = -2 has the one real root -2^(1/3), whatever c is valued."""
    t = SymbolTable([Symbol("c", relation=(3, "-2"), sign_hint="negative"), Symbol("b")])
    c = t.symbol("c")
    for number in (5.0, 0.0, -1.0):
        assert c.evaluate({"c": number}) == pytest.approx(-(2 ** (1 / 3)), rel=1e-15)
    assert str((c * t.symbol("b")).at({"c": 0.0, "b": 0.5})) == "1/2*c"
    assert (c + Fraction(126, 100)).sign_at({"c": 1.0}) == 1
    assert (c + Fraction(12599, 10000)).sign_at({"c": 1.0}) == -1
    hinted = SymbolTable([Symbol("c", relation=(3, "-2"), sign_hint="positive")])
    with pytest.raises(EvaluationError, match="hinted positive"):
        hinted.symbol("c").at({"c": 1.0})


def test_sign_at_of_a_value_zero_only_at_one_root_is_undecided():
    """t^2 = 6 is irreducible over Q(i, s) and over Q(i, u) but not over
    Q(i, s, u) with s^2 = 2 and u^2 = 3: t - s u is a nonzero scalar whose
    value at s = sqrt 2, u = sqrt 3, t = sqrt 6 is 0, so no refinement
    separates it, and the sign is None."""
    t = SymbolTable([Symbol("s", relation=(2, "2")), Symbol("u", relation=(2, "3")),
                     Symbol("t", relation=(2, "6"))])
    diff = t.symbol("t") - t.symbol("s") * t.symbol("u")
    assert not diff.is_zero()
    assert diff.sign_at({"s": 1.0, "u": 1.0, "t": -1.0}) == -1
    assert diff.sign_at({"s": 1.0, "u": 1.0, "t": 1.0}) is None


REDUCIBLE = [(2, "4"), (2, "-9/4"), (2, "-1"), (2, "0"), (3, "8"), (3, "-27/8"), (3, "1"),
             (4, "-4"), (4, "-64"), (6, "-8"), (6, "9"), (9, "-1/8"), (15, "32")]
IRREDUCIBLE = [(2, "2"), (2, "-2"), (3, "4"), (4, "8"), (4, "-2"), (5, "16"), (6, "12"), (8, "-3")]


@pytest.mark.parametrize("k, rhs", REDUCIBLE + IRREDUCIBLE)
def test_relation_is_refused_iff_reducible_over_gaussians(k, rhs):
    """x^k - c factors over Q(i) (Capelli) iff c = 0 or |c| is a rational
    d-th power for a d > 1 dividing k; -1 = i^2 and -4 = (1+i)^4 are squares
    there.  A reducible relation would make the ring no field, so it is
    refused; an irreducible one is declared."""
    if (k, rhs) in REDUCIBLE:
        with pytest.raises(ScalarError, match="is reducible"):
            SymbolTable([Symbol("s", relation=(k, rhs))])
    else:
        assert SymbolTable([Symbol("s", relation=(k, rhs))]).relations[1][0] == k


TOWER_REDUCIBLE = [[(2, "2"), (2, "2")], [(2, "2"), (2, "8")], [(2, "2"), (2, "-2")],
                   [(2, "2"), (4, "8")]]
TOWER_IRREDUCIBLE = [[(2, "2"), (2, "3")], [(2, "2"), (2, "6")], [(3, "2"), (2, "2")],
                     [(2, "2"), (2, "3"), (2, "6")]]


@pytest.mark.parametrize("relations", TOWER_REDUCIBLE + TOWER_IRREDUCIBLE)
def test_relation_with_a_square_root_in_an_earlier_symbol_is_refused(relations):
    """t^k = c with k even is refused when c or -c is a rational square times
    the rational right side a of one earlier s^k' = a with k' even: s^(k'/2)
    and i give sqrt c, and x^k - c = (x^(k/2) - sqrt c)(x^(k/2) + sqrt c).
    Any other tower is declared."""
    _assert_tower_refused_iff(relations, relations in TOWER_REDUCIBLE)


ODD_TOWER_REDUCIBLE = [[(3, "2"), (3, "2")], [(3, "2"), (3, "4")], [(6, "2"), (3, "2")],
                       [(3, "2"), (6, "-32")], [(5, "3"), (5, "9")]]
ODD_TOWER_IRREDUCIBLE = [[(3, "2"), (3, "3")], [(3, "2"), (3, "6")], [(5, "3"), (3, "3")]]


@pytest.mark.parametrize("relations", ODD_TOWER_REDUCIBLE + ODD_TOWER_IRREDUCIBLE)
def test_relation_with_an_odd_prime_root_in_an_earlier_symbol_is_refused(relations):
    """t^k = c is refused when, for the rational right side a of one earlier
    s^k' = a and an odd prime p dividing k and k', c/a^e is a rational p-th
    power r^p for some e in 1..p-1: then r s^(e k'/p) is a p-th root of c,
    and x^(k/p) minus it divides x^k - c.  With no common prime, or no such
    e, the tower is declared."""
    _assert_tower_refused_iff(relations, relations in ODD_TOWER_REDUCIBLE)


def _assert_tower_refused_iff(relations, reducible):
    symbols = [Symbol(f"s{j}", relation=rel) for j, rel in enumerate(relations)]
    if reducible:
        with pytest.raises(ScalarError, match=r"relation for s1 is reducible: .* over Q\(i, s0\)"):
            SymbolTable(symbols)
    else:
        assert len(SymbolTable(symbols).relations) == len(relations) + 1


_BOOL_TABLES = {
    "Q(i)": (SymbolTable(), "i"),
    "Q(i)(a)": (SymbolTable([Symbol("a")]), "a"),
    "Q(i, s)": (SymbolTable([Symbol("s", relation=(2, "2"))]), "s"),
}


@pytest.mark.parametrize("field", sorted(_BOOL_TABLES))
@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(st.integers(-2, 2), min_size=4, max_size=4), den=st.integers(0, 2))
def test_scalar_is_falsy_exactly_at_zero(field, coeffs, den):
    """bool(x) is the zero test: p + q i + r t + u t^2 over a chosen
    denominator, where t is i, a free symbol or s with s^2 = 2, so that
    u t^2 cancels p in some draws (i^2 = -1, s^2 = 2)."""
    t, name = _BOOL_TABLES[field]
    p, q, r, u = coeffs
    x = t.symbol(name)
    value = (p + q * t.i + r * x + u * x * x) / [t.one, t.scalar(3), 3 + x * x][den]
    assert bool(value) == (not value.is_zero())
    assert bool(value) == (value != t.zero)


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
    assert Scalar(x.table, x.num, x.den) == x
    assert x.conjugate().conjugate() == x


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars())
def test_evaluation_is_multiplicative(x, y):
    val = {"s2": 2**0.5, "b": 1.25}
    vx, vy, vxy = x.evaluate(val), y.evaluate(val), (x * y).evaluate(val)
    assert abs(vxy - vx * vy) <= 1e-9 * max(1.0, abs(vx * vy))


# in [-4, 4], where a float evaluation errs by far less than 1e-6
dyadics = st.integers(-(2**12), 2**12).map(lambda n: n / 2**10)
roots_of_two = st.sampled_from([1.4142, -1.4142])


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars(), dyadics, roots_of_two)
def test_at_is_a_ring_homomorphism(x, y, b, s2):
    """``at`` maps b to its exact dyadic value and keeps s2 and i."""
    val = {"s2": s2, "b": b}
    related = _TABLE.related
    assert _TABLE.symbol("b").at(val) == related.scalar(Fraction(b))
    assert _TABLE.symbol("s2").at(val) == related.symbol("s2")
    assert (x + y).at(val) == x.at(val) + y.at(val)
    assert (x * y).at(val) == x.at(val) * y.at(val)
    assert x.conjugate().at(val) == x.at(val).conjugate()


@settings(max_examples=100, deadline=None)
@given(scalars(), dyadics, roots_of_two)
def test_sign_at_agrees_with_the_float_sign(x, b, s2):
    val = {"s2": s2, "b": b}
    real = x + x.conjugate()
    f = real.evaluate(val).real
    assume(abs(f) > 1e-6)
    assert real.sign_at(val) == (1 if f > 0 else -1)


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


def _qi_value(table, re, im):
    """re + im i in a gaussian table, built from its normalized triple
    without any scalar arithmetic."""
    d = lcm(re.denominator, im.denominator)
    a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    return scalars_module._gaussian(table, a, b, d)


_PARTS = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
_PAIRS = st.tuples(_PARTS, _PARTS)


@settings(max_examples=200, deadline=None)
@given(x=_PAIRS, y=_PAIRS)
def test_property_gaussian_fast_paths_match_a_pair_oracle(x, y):
    """Same-table products, sums, differences, quotients and negations give
    the normalized triple (gcd 1, positive denominator) of the value that
    (real, imaginary) Fraction pairs compute."""
    (a, b), (c, d) = x, y
    xs, ys = _qi_value(_QI, a, b), _qi_value(_QI, c, d)
    cases = [
        (xs * ys, (a * c - b * d, a * d + b * c)),
        (xs + ys, (a + c, b + d)),
        (xs - ys, (a - c, b - d)),
        (-xs, (-a, -b)),
    ]
    if c or d:
        norm = c * c + d * d
        cases.append((xs / ys, ((a * c + b * d) / norm, (b * c - a * d) / norm)))
    for got, (re, im) in cases:
        assert type(got) is Scalar and got.table is _QI
        p, q, den = got._t
        assert den > 0 and gcd(p, q, den) == 1
        assert got._t == _qi_value(_QI, re, im)._t


@settings(max_examples=100, deadline=None)
@given(x=_PAIRS, y=_PAIRS, k=st.integers(-50, 50), q=_PARTS)
def test_gaussian_operands_off_the_fast_path_give_the_same_values(x, y, k, q):
    """An operand from a compatible table that is another object, an int or
    a Fraction is coerced and gives the value of the same-table operation,
    in the left operand's table."""
    other = SymbolTable()
    assert other is not _QI and other.compatible(_QI)
    xs = _qi_value(_QI, *x)
    ops = [operator.add, operator.sub, operator.mul]
    for y_same, y_other in [
        (_qi_value(_QI, *y), _qi_value(other, *y)),
        (_qi_value(_QI, Fraction(k), Fraction(0)), k),
        (_qi_value(_QI, q, Fraction(0)), q),
    ]:
        for op in ops + [operator.truediv] * (not y_same.is_zero()):
            got = op(xs, y_other)
            assert got.table is _QI and got._t == op(xs, y_same)._t
        if isinstance(y_other, Scalar):
            continue
        for op in ops + [operator.truediv] * (not xs.is_zero()):
            got = op(y_other, xs)
            assert got.table is _QI and got._t == op(y_same, xs)._t


def test_parsed_power_too_long_to_print_is_refused_before_it_is_built():
    """``^`` in an expression sizes the power first, as ``wedge_power`` does:
    3^1000000 (477121 digits) is refused at once instead of being built, and
    so is the same power times a monomial in the free symbols, while a power
    that prints is built as before."""
    table = SymbolTable([Symbol("a")])
    for text in ["3^1000000", "(3*a)^1000000", "(1/(3*a))^1000000", "((2+i)*a^2/3)^1000000"]:
        with pytest.raises(ScalarError, match=r"^scalar too long to print: a power would have"):
            table.scalar(text)
    assert table.scalar("3^10000") == table.scalar(3) ** 10000
    assert table.scalar("(a+1)^3") == (table.symbol("a") + 1) ** 3


def test_power_through_a_related_symbol_is_sized():
    """With s^2 = 2, 1 + s is a unit, so no norm sizes its powers, yet
    (1+s)^k = x + y s has |x + y sqrt 2| = (1 + sqrt 2)^k: the bound at the
    relation's roots refuses k = 10^9 unbuilt, and (1+s)^100 and (3*s)^100
    build and print as the integer recurrences say."""
    table = SymbolTable([Symbol("s", relation=(2, "2"))])
    with pytest.raises(ScalarError, match=r"^scalar too long to print: a power would have"):
        scalars_module.check_power_size(table.scalar("1+s"), 10**9)
    x, y = 1, 0
    for _ in range(100):
        x, y = x + 2 * y, x + y
    assert str(table.scalar("(1+s)^100")) == f"{x}+{y}*s"
    assert str(table.scalar("(3*s)^100")) == str(3**100 * 2**50)


def test_power_with_growing_denominators_over_a_related_symbol_is_sized():
    """With s^2 = 2, |(1+s)/3| is below 1 at both roots, so no numerator
    grows, but its norm -1/9 shrinks the product of the denominators' lcm
    with the norm of the power: ((1+s)/3)^(10^9) is refused unbuilt, and
    ((1+s)/3)^100 builds and prints as (1+s)^100 over 3^100.  The norm
    bounds nothing over the reducible tower s^2 = 2, u^2 = 3, t^2 = 6,
    where a zero divisor vanishes at some roots, nor over a right side
    that vanishes at some roots: those powers build as they print."""
    table = SymbolTable([Symbol("s", relation=(2, "2"))])
    with pytest.raises(ScalarError, match=r"^scalar too long to print: a power would have"):
        scalars_module.check_power_size(table.scalar("(1+s)/3"), 10**9)
    x, y = 1, 0
    for _ in range(100):
        x, y = x + 2 * y, x + y
    text = f"{Fraction(x, 3**100)}+{Fraction(y, 3**100)}*s"
    assert str(table.scalar("((1+s)/3)^100")) == text
    tower = SymbolTable([Symbol("s", relation=(2, "2")), Symbol("u", relation=(2, "3")),
                         Symbol("t", relation=(2, "6"))])
    for text in ("t-s*u", "(t-s*u)/5"):
        c = tower.scalar(text)
        written = [n for x in (c**100).num.values() for n in (x.numerator, x.denominator)]
        assert scalars_module.power_digits(c, 100) < max(len(str(abs(n))) for n in written)
    # the idempotent e = (1 + s*u*t/6) / 2 is 0 at half the roots
    assert str(tower.scalar("((1+s*u*t/6)/2)^1000000")) == "1/2+1/12*s*u*t"
    # r^2 = t - s*u is 0 at half the roots, where a float root is off by
    # 1e-8, and q = e r + 1 - e, for e = 1 there, has q^k = 1 - e for k >= 2
    tower = SymbolTable([Symbol("s", relation=(2, "2")), Symbol("u", relation=(2, "3")),
                         Symbol("t", relation=(2, "6")), Symbol("r", relation=(2, "t-s*u"))])
    q = "1/2+1/2*r-1/12*s*u*t+1/12*s*u*t*r"
    assert str(tower.scalar(f"({q})^1000000")) == "1/2-1/12*s*u*t"


_RELATED = [[("s", (2, "2"))], [("s", (3, "2"))], [("s", (2, "-3"))], [("s", (2, "1/2"))],
            [("s", (2, "2")), ("r", (3, "s+1"))],
            [("s", (2, "2")), ("u", (2, "3")), ("t", (2, "6"))]]


@settings(max_examples=100, deadline=None)
@given(
    related=st.sampled_from(_RELATED),
    coeffs=st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                    min_size=1, max_size=8),
    d=st.integers(1, 9),
    k=st.integers(1, 30),
    times_i=st.booleans(),
    monomial=st.sampled_from(["1", "x", "1/x"]),
)
def test_property_power_digits_over_related_symbols_is_a_lower_bound(
        related, coeffs, d, k, times_i, monomial):
    """Some integer printed in c^k has more digits than ``power_digits``
    says, for c a combination with rational coefficients of the reduced
    monomials of one to three related symbols over d, times i or not, times
    a free monomial or not; s^2 = -3 holds the cube roots of unity, whose
    powers do not grow, s^2 = 1/2 a right side with a denominator, and
    s^2 = 2, u^2 = 3, t^2 = 6 a reducible tower with zero divisors."""
    table = SymbolTable([Symbol("x")] + [Symbol(n, relation=rel) for n, rel in related])
    basis = [table.one]
    for name, (n, _rhs) in related:
        basis = [b * table.symbol(name) ** e for b in basis for e in range(n)]
    c = sum((table.scalar(a) * b for a, b in zip(coeffs, basis)), table.zero) / d
    assume(not c.is_zero())
    c = c * (table.i if times_i else table.one) * table.scalar(monomial)
    bound = scalars_module.power_digits(c, k)
    written = [n for part in ((c**k).num, (c**k).den) for x in part.values()
               for n in (x.numerator, x.denominator)]
    assert bound < max(len(str(abs(n))) for n in written)


@pytest.mark.parametrize(
    "text, monomials",
    [("(a+b+1)^1000", 501501), ("(a+b+1)^31", 528), ("(a+1)^500", 501),
     ("1/(a+b+1)^1000", 501501), ("(1/(a*b+1))^1000", 1001)],
)
def test_parsed_power_with_too_many_monomials_is_refused_before_it_is_built(text, monomials):
    """A power of a base with free symbols is sized by the monomials its
    expansion could have, and refused unbuilt past the module's limit."""
    table = SymbolTable([Symbol("a"), Symbol("b")])
    with pytest.raises(ScalarError) as info:
        table.scalar(text)
    assert str(info.value) == (
        f"scalar too large to expand: a power could have {monomials} monomials (the limit is 500)"
    )


def test_power_of_a_fraction_over_a_related_symbol_is_the_repeated_product():
    table = SymbolTable([Symbol("a"), Symbol("b"), Symbol("s", relation=(2, "2")),
                         Symbol("r", relation=(3, "s+1"))])
    for text in ["(s*a+1)/(r*b+s)", "(i*a+s)/(a*r+b*s+1)", "(a+b)/(r*a+r^2*b)", "1/(s*a)"]:
        x = table.scalar(text)
        product = table.one
        for k in range(1, 5):
            product = product * x
            assert (x**k).key() == product.key() and str(x**k) == str(product)


def test_parsed_power_within_the_monomial_limit_is_built():
    """Powers up to the limit, and powers whose base has one free monomial
    (whatever k is), are built as before, unless the digit bound refuses
    them: (2*s*a*b)^100000 has the coefficient 2^150000, 45155 digits."""
    table = SymbolTable([Symbol("a"), Symbol("b"), Symbol("s", relation=(2, "2"))])
    a, b, s = (table.symbol(n) for n in "abs")
    assert table.scalar("(a+b+1)^3") == (a + b + 1) ** 3
    assert len(table.scalar("(a+b+1)^30").num) == 496
    assert table.scalar("(2*s*a*b)^10000") == (2 * s * a * b) ** 10000
    with pytest.raises(ScalarError, match=r"^scalar too long to print: a power would have"):
        table.scalar("(2*s*a*b)^100000")
    assert table.scalar("(s+1)^100") == (s + 1) ** 100
    assert scalars_module.power_monomials(a + b + 1, 30) == 496


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
    a=st.integers(-60, 60),
    b=st.integers(-60, 60),
    d=st.integers(1, 60),
    k=st.integers(1, 80),
    on_the_circle=st.booleans(),
    monomial=st.sampled_from(["1", "x", "1/x", "x^2*y"]),
)
def test_property_power_digits_is_a_lower_bound(a, b, d, k, on_the_circle, monomial):
    """Some integer printed in c^k has more digits than ``power_digits``
    says, for c = (a + b i) / d, and on the unit circle for
    c = (a + b i) / (a - b i), which is every c in Q(i) with |c| = 1; each
    times a monomial in free symbols too."""
    table = SymbolTable([Symbol("x"), Symbol("y")])
    z = table.scalar(a) + table.scalar(b) * table.i
    if on_the_circle:
        assume(not z.is_zero())
        c = z / z.conjugate()
    else:
        c = z / d
    c = c * table.scalar(monomial)
    bound = scalars_module.power_digits(c, k)
    written = [n for x in (c**k).num.values() for n in (x.numerator, x.denominator)]
    assert bound < max((len(str(abs(n))) for n in written), default=1)


# -- gaussian polynomials on integers against a Fraction-path oracle ---------

_FREE = ("a", "b", "c")
_GP = SymbolTable([Symbol(n) for n in _FREE])
# the same ring, but a declared relation keeps every value on the polynomial path
_GP_ORACLE = SymbolTable([Symbol(n) for n in _FREE] + [Symbol("r", relation=(2, "3"))])

_COEFFS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


def _gp_trees():
    """Polynomials in a, b, c over Q(i), and quotients of them by a Q(i)
    constant, a symbol or a symbol plus a constant, so that values with a
    non-constant denominator mix in."""
    leaves = st.one_of(_COEFFS, st.just("i"), st.sampled_from(_FREE))
    divisors = st.one_of(_COEFFS, st.just("i"), st.sampled_from(_FREE),
                         st.tuples(st.just("+"), st.sampled_from(_FREE), _COEFFS))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(st.tuples(st.sampled_from("+-*"), kids, kids),
                               st.tuples(st.just("/"), kids, divisors)),
        max_leaves=8,
    )


def _assert_held_canonically(value):
    """Denominator 1 means integer storage: the triple with no free symbol,
    else integer terms with a free monomial over d > 0 and gcd 1."""
    if value.den != {(): Fraction(1)}:
        assert value._t is None and value._p is None
    elif not any(idx for m in value.num for idx, _e in m):
        assert value._p is None and value._t is not None
    else:
        terms, d = value._p
        assert value._t is None and d > 0 and any(terms)
        assert gcd(d, *(n for ab in terms.values() for n in ab)) == 1
        assert all(a or b for a, b in terms.values())


@settings(max_examples=200, deadline=None)
@given(_gp_trees(), _gp_trees(), st.integers(0, 3))
def test_property_gaussian_polynomials_match_a_fraction_path_oracle(tx, ty, k):
    """+ - * / ** conjugation and negation print as the oracle's values do;
    each value equals, and hashes as, the same value brought in from the
    oracle's canonical fraction."""
    x, y = _build(tx, _GP), _build(ty, _GP)
    ox, oy = _build(tx, _GP_ORACLE), _build(ty, _GP_ORACLE)
    assert ox._t is None and ox._p is None
    ops = {
        "+": operator.add, "-": operator.sub, "*": operator.mul,
        "**": lambda u, _v: u**k, "conj": lambda u, _v: u.conjugate(), "neg": lambda u, _v: -u,
    }
    if y:
        ops["/"] = operator.truediv
    for op, f in ops.items():
        got, want = f(x, y), f(ox, oy)
        assert str(got) == str(want), op
        assert got.key() == want.key(), op
        again = Scalar(_GP, want.num, want.den)
        assert got == again and hash(got) == hash(again), op
        _assert_held_canonically(got)
    if y:
        back = (x / y) * y
        assert back == x and hash(back) == hash(x)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 4))
def test_property_power_of_a_fraction_is_the_repeated_product(data, k):
    """x^k with a non-constant denominator raises numerator and denominator
    apart, with no gcd; it is the canonical value of x * x * ... * x.  Each
    product of that oracle takes a gcd, which over a related symbol can take
    minutes, so the fractions here are over Q(i)."""
    table, names = _GP, ["a", "b", "c", "i"]

    def poly(size):
        return st.lists(
            st.tuples(st.integers(-3, 3), st.lists(st.sampled_from(names), max_size=2)),
            min_size=1, max_size=size,
        ).map(lambda terms: "+".join(f"({c})*" + "*".join(["1", *v]) for c, v in terms))

    num, den = data.draw(poly(3)), data.draw(poly(2))
    try:
        x = table.scalar(f"({num})/({den})")
    except ScalarError:
        return
    product = table.one
    for _ in range(k):
        product = product * x
    got = x**k
    assert got.key() == product.key() and str(got) == str(product)


@settings(max_examples=100, deadline=None)
@given(_gp_trees(), _PARTS, _PARTS)
def test_a_sum_that_cancels_to_a_constant_is_the_triple(tree, re, im):
    x, c = _build(tree, _GP), _qi_value(_GP, re, im)
    left = (x + c) - x
    assert left._p is None and left._t == c._t
    assert left == c and hash(left) == hash(c)
    assert (x - x)._t == (0, 0, 1) and (x * 0)._t == (0, 0, 1)
    a = _GP.symbol("a")
    assert ((a + _GP.i) - a)._t == (0, 1, 1) and (a + _GP.i) - a == _GP.i


def test_integer_and_fraction_kinds_compare_by_value():
    """A polynomial, a quotient and a constant of one table are never equal
    to each other, and a polynomial equals no int or Fraction."""
    a, b = _GP.symbol("a"), _GP.symbol("b")
    poly, quotient = a * b + _GP.i, (a * b + _GP.i) / b
    assert poly._p is not None and quotient._p is None and quotient._t is None
    assert poly != quotient and poly != 1 and poly != Fraction(1, 2) and poly != _GP.i
    assert quotient * b == poly and poly / b == quotient
    assert a * b / 2 == SymbolTable([Symbol(n) for n in _FREE]).parse("a*b/2")
    assert a != SymbolTable([Symbol("b"), Symbol("a")]).symbol("b")


def test_remapped_polynomial_keeps_integer_terms():
    """Carried into a table that orders the symbols otherwise, a polynomial
    is the same value, still held on integers."""
    old, new = SymbolTable([Symbol("b"), Symbol("a")]), SymbolTable([Symbol("a"), Symbol("b")])
    text = "a*b^2 + i*b/3 - 1/2"
    moved = new.remapper(old)(old.parse(text))
    assert moved._p is not None and moved == new.parse(text) and str(moved) == str(new.parse(text))


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12"])
def test_symbolic_builtins_never_multiply_polynomials(name, monkeypatch):
    """The free-symbol values of the built-ins have denominator 1, so every
    check runs on integer terms."""
    from hermitia.builders import builtin
    from hermitia.manifest import run_check

    manifest = builtin(name)
    calls = []
    real = scalars_module._poly_mul

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scalars_module, "_poly_mul", counting)
    assert run_check(manifest).overall == "pass"
    assert len(calls) == 0
