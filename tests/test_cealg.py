"""Exterior algebra and the Chevalley-Eilenberg differential."""

import random

import pytest

from conftest import make_at4, oracle_d, oracle_wedge, poly_mul, random_form
from hermitia.cealg import (
    Form,
    FormError,
    LieAlgebraPresentation,
    PresentationError,
    abelian,
    direct_sum,
    top_coefficient,
    wedge,
    wedge_all,
    wedge_power,
)
from hermitia.scalars import ScalarError, Symbol, SymbolTable


@pytest.fixture
def h3():
    return LieAlgebraPresentation(3, {1: [(1, (2, 3))]})


def test_wedge_antisymmetry():
    a6 = abelian(6)
    f1, f2 = a6.generator(1), a6.generator(2)
    assert wedge(f1, f2) == a6.form([(1, (1, 2))])
    assert wedge(f2, f1) == a6.form([(-1, (1, 2))])


def test_wedge_square_of_two_form():
    a6 = abelian(6)
    w0 = a6.form([(1, (1, 2)), (1, (3, 4)), (1, (5, 6))])
    expected = a6.form([(2, (1, 2, 3, 4)), (2, (1, 2, 5, 6)), (2, (3, 4, 5, 6))])
    assert wedge(w0, w0) == expected
    assert oracle_wedge(w0, w0) == expected


def test_wedge_odd_degree_squares_to_zero():
    a6 = abelian(6)
    a = a6.form([(1, (1,)), (2, (3,)), (-1, (5,))])
    assert wedge(a, a).is_zero()


def _degree_part(x, k):
    """The degree-k part of x, its terms filtered as ``wedge_power`` filters
    out the 0-form part."""
    return Form(x.presentation, {idx: c for idx, c in x.terms.items() if len(idx) == k},
                _canonical=True)


def test_wedge_graded_commutativity_randomized():
    a6 = abelian(6)
    rng = random.Random(11)
    for _ in range(200):
        x = random_form(a6, rng, degrees=(1, 2, 3))
        y = random_form(a6, rng, degrees=(1, 2, 3))
        for p in x.degrees():
            for q in y.degrees():
                xp, yq = _degree_part(x, p), _degree_part(y, q)
                lhs = wedge(xp, yq)
                rhs = wedge(yq, xp)
                if (p * q) % 2:
                    rhs = -rhs
                assert lhs == rhs


def test_wedge_associativity_randomized():
    a6 = abelian(6)
    rng = random.Random(12)
    for _ in range(150):
        x = random_form(a6, rng, degrees=(1, 2))
        y = random_form(a6, rng, degrees=(1, 2))
        z = random_form(a6, rng, degrees=(1, 2))
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))
        assert wedge(x, y) == oracle_wedge(x, y)


def test_wedge_mismatched_presentations():
    with pytest.raises(FormError):
        wedge(abelian(4).generator(1), abelian(5).generator(1))
    # structurally identical presentations interoperate
    assert not wedge(abelian(4).generator(1), abelian(4).generator(2)).is_zero()


def test_d_heisenberg(h3):
    assert h3.d(h3.generator(1)) == h3.form([(1, (2, 3))])
    assert h3.d(wedge(h3.generator(1), h3.generator(2))).is_zero()


def test_d_on_abelian_vanishes():
    a5 = abelian(5)
    rng = random.Random(13)
    for _ in range(50):
        assert a5.d(random_form(a5, rng)).is_zero()


def test_d_at4_fundamental_form_matches_frozen_value():
    at4 = make_at4()
    w0 = at4.form([(1, (1, 2)), (1, (3, 4)), (1, (5, 6))])
    expected = at4.form([("-2*a", (1, 2, 5)), ("2*a", (3, 4, 5))])
    assert at4.d(w0) == expected
    assert oracle_d(w0) == expected
    assert at4.d(wedge_power(w0, 2)).is_zero()


def test_wedge_power_stops_at_the_first_zero_product(monkeypatch):
    """On a 6-dimensional algebra w0^4 = 0, so any higher power costs the
    same three products (a power of 10^12 used to take 10^12 - 1)."""
    from hermitia import cealg

    at4 = make_at4()
    w0 = at4.form([(1, (1, 2)), (1, (3, 4)), (1, (5, 6))])
    calls = []
    original = cealg.wedge

    def counting(a, b):
        calls.append(None)
        return original(a, b)

    monkeypatch.setattr(cealg, "wedge", counting)
    assert wedge_power(w0, 3) == at4.form([(6, (1, 2, 3, 4, 5, 6))])
    calls.clear()
    assert wedge_power(w0, 1000).is_zero()
    assert len(calls) == 3


def test_wedge_power_with_a_constant_part_is_the_binomial_sum(monkeypatch):
    """A base c + N with c a nonzero 0-form: the power equals the k - 1
    products of the plain ladder, and a power of 10^9 takes at most dim
    wedges, so it finishes at once."""
    from hermitia import cealg

    at4 = make_at4()
    rng = random.Random(41)
    for c in ("2", "-1", "1+i", "a"):
        for _ in range(4):
            a = random_form(at4, rng, degrees=(1, 2, 3)) + at4.form([(c, ())])
            ladder = a
            for k in range(1, 9):
                assert wedge_power(a, k) == ladder, (c, k)
                ladder = wedge(ladder, a)
    base = at4.form([(1, ()), (1, (1,)), (1, (2,))])
    calls = []
    original = cealg.wedge

    def counting(x, y):
        calls.append(None)
        return original(x, y)

    monkeypatch.setattr(cealg, "wedge", counting)
    got = wedge_power(base, 10**9)
    assert got == at4.form([(1, ()), (10**9, (1,)), (10**9, (2,))])
    assert len(calls) <= at4.dim


def test_d_agrees_with_oracle_randomized():
    at4 = make_at4()
    rng = random.Random(14)
    for _ in range(200):
        f = random_form(at4, rng, symbol_names=("a",))
        assert at4.d(f) == oracle_d(f)


def test_d_squared_zero_randomized(fp_solv8):
    rng = random.Random(15)
    for _ in range(300):
        f = random_form(fp_solv8, rng, symbol_names=("b",))
        assert fp_solv8.d(fp_solv8.d(f)).is_zero()


def test_leibniz_randomized(fp_solv8):
    rng = random.Random(16)
    for _ in range(200):
        x = random_form(fp_solv8, rng, degrees=(1, 2))
        y = random_form(fp_solv8, rng, degrees=(1, 2, 3))
        for p in x.degrees():
            xp = _degree_part(x, p)
            lhs = fp_solv8.d(wedge(xp, y))
            rhs = wedge(fp_solv8.d(xp), y) + (-1) ** p * wedge(xp, fp_solv8.d(y))
            assert lhs == rhs


def test_jacobi_pass_examples(fp_solv8, hk12, h3):
    assert fp_solv8.jacobi_check().passed
    assert hk12.jacobi_check().passed
    assert h3.jacobi_check().passed


def test_jacobi_failure_with_witness():
    bad = LieAlgebraPresentation(3, {1: [(1, (2, 3))], 2: [(1, (1, 2))]})
    rep = bad.jacobi_check()
    assert not rep.passed
    gen, residual = rep.witness()
    assert gen == 1
    assert residual == bad.form([(1, (1, 2, 3))])
    assert oracle_d(oracle_d(bad.generator(1))) == residual
    with pytest.raises(PresentationError):
        bad.d(bad.generator(1))


def test_jacobi_gate_blocks_downstream():
    bad = LieAlgebraPresentation(3, {1: [(1, (2, 3))], 2: [(1, (1, 2))]})
    with pytest.raises(PresentationError):
        direct_sum(bad, abelian(2))


def test_top_coefficient_basics():
    a4 = abelian(4)
    vol = a4.form([(1, (1, 2, 3, 4))])
    assert top_coefficient(vol, vol) == 1
    assert top_coefficient(a4.form([(1, (1, 2))]), vol).is_zero()
    w = a4.form([(1, (1, 2)), (1, (3, 4))])
    assert top_coefficient(wedge(w, w), vol) == 2
    mixed = w + vol
    assert top_coefficient(mixed, vol) == 1  # lower degrees ignored


def test_top_coefficient_linear_in_first_argument():
    a4 = abelian(4)
    vol = a4.form([(1, (1, 2, 3, 4))])
    rng = random.Random(17)
    for _ in range(50):
        x = random_form(a4, rng, degrees=(4,))
        y = random_form(a4, rng, degrees=(4,))
        c = a4.table.scalar(rng.randint(-3, 3))
        lhs = top_coefficient(c * x + y, vol)
        assert lhs == c * top_coefficient(x, vol) + top_coefficient(y, vol)


def test_top_coefficient_rejects_bad_volume():
    a4 = abelian(4)
    with pytest.raises(FormError):
        top_coefficient(a4.generator(1), a4.form([(1, (1, 2))]))
    with pytest.raises(FormError):
        top_coefficient(a4.generator(1), Form.zero(a4))


def test_direct_sum_abelian():
    s = direct_sum(abelian(2), abelian(3))
    assert s.dim == 5
    assert s.jacobi_check().passed
    assert all(s.d(s.generator(k)).is_zero() for k in range(1, 6))


def test_direct_sum_heisenberg_abelian(h3):
    s = direct_sum(h3, abelian(5))
    assert s.dim == 8
    assert s.d(s.generator(1)) == s.form([(1, (2, 3))])
    for k in range(2, 9):
        assert s.d(s.generator(k)).is_zero()


def test_direct_sum_renames_collisions(h3):
    s = direct_sum(h3, abelian(2))
    assert len(set(s.names)) == 5
    assert s.names[:3] == ("e1", "e2", "e3")


def test_direct_sum_explicit_name_collision_errors(h3):
    with pytest.raises(PresentationError):
        direct_sum(h3, abelian(2), names=["x1", "x2", "x3", "x1", "x5"])


def test_direct_sum_merges_symbol_tables():
    t1 = SymbolTable([Symbol("a")])
    t2 = SymbolTable([Symbol("c")])
    p1 = LieAlgebraPresentation(2, {1: [("a", (1, 2))]}, table=t1)
    p2 = LieAlgebraPresentation(2, {1: [("c", (1, 2))]}, table=t2)
    s = direct_sum(p1, p2)
    assert s.d(s.generator(1)) == s.form([("a", (1, 2))])
    assert s.d(s.generator(3)) == s.form([("c", (3, 4))])


def test_direct_sum_conflicting_symbols_error():
    t1 = SymbolTable([Symbol("s", relation=(2, "2"))])
    t2 = SymbolTable([Symbol("s", relation=(2, "3"))])
    p1 = LieAlgebraPresentation(2, {1: [("s", (1, 2))]}, table=t1)
    p2 = LieAlgebraPresentation(2, {1: [("s", (1, 2))]}, table=t2)
    with pytest.raises(ScalarError):
        direct_sum(p1, p2)


def test_direct_sum_char_poly_blocks():
    # characteristic polynomial of a block sum is the product of blocks
    from hermitia.hyperbolic import char_poly

    rng = random.Random(18)
    for _ in range(20):
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        block = [[a[i][j] if i < 3 and j < 3 else 0 for j in range(5)] for i in range(5)]
        for i in range(2):
            for j in range(2):
                block[3 + i][3 + j] = b[i][j]
        assert char_poly(block) == poly_mul(char_poly(a), char_poly(b))


def test_form_printing_and_coefficient_access():
    at4 = make_at4()
    f = at4.form([("2*a", (1, 2)), (-1, (3, 4))])
    assert str(f) == "2*a*e1^e2-e3^e4"
    assert f.coefficient((2, 1)) == at4.table.parse("-2*a")
    assert f.coefficient((1, 1)).is_zero()


def test_mixed_degree_forms_allowed():
    a4 = abelian(4)
    f = a4.form([(1, (1,)), (1, (1, 2)), (1, (1, 2, 3))])
    assert f.degrees() == [1, 2, 3]
    with pytest.raises(FormError):
        f.degree()


def test_signature_is_built_on_the_first_comparison_of_two_presentations():
    """same_algebra answers identity without the signature; two distinct
    presentations build theirs once, and a complex model's coframe, compared
    by identity only, never does."""
    from hermitia.complexops import AlmostComplexStructure

    p, q = make_at4(), make_at4()
    assert p.same_algebra(p) and "_signature" not in vars(p)
    assert p.same_algebra(q)
    assert "_signature" in vars(p) and "_signature" in vars(q)
    assert not p.same_algebra(abelian(6, table=p.table))
    model = AlmostComplexStructure.from_action(p, {1: "e2", 3: "e4", 5: "e6"}).model()
    model.to_real(model.to_complex(p.generator(1)))
    assert "_signature" not in vars(model)
