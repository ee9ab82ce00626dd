"""Complex structures: integrability, coframes, bigrading, del/delbar/dc."""

import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    draw_hermitian_candidate,
    make_at4,
    make_fp_solv8,
    make_hk12,
    power_by_minors,
    random_form,
)
from hermitia.builders import builtin
from hermitia.cealg import (
    Form,
    FormError,
    LieAlgebraPresentation,
    _d_terms,
    abelian,
    direct_sum,
    wedge,
    wedge_all,
    wedge_power,
)
from hermitia.complexops import (
    AlmostComplexStructure,
    ComplexModel,
    IntegrabilityError,
    bidegree,
    dc,
    del_,
    delbar,
    fundamental_form,
    nijenhuis_vanishes,
    real_basis,
    weil_operator,
)


@pytest.fixture(scope="module")
def hk12_I():
    p = make_hk12()
    return AlmostComplexStructure.from_action(
        p, {"f1": "f3", "f2": "f4", "f5": "-f7", "f6": "-f8", "f9": "f10", "f11": "-f12"},
        name="I",
    )


@pytest.fixture(scope="module")
def solv8_I():
    p = make_fp_solv8()
    return AlmostComplexStructure.from_action(p, {1: "-e2", 3: "e8", 4: "e5", 6: "e7"}, name="I")


@pytest.fixture(scope="module")
def at4_J():
    p = make_at4()
    return AlmostComplexStructure.from_action(p, {1: "e2", 3: "e4", 5: "e6"}, name="J")


def test_square_minus_identity_enforced():
    a4 = abelian(4)
    bad = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with pytest.raises(IntegrabilityError):
        AlmostComplexStructure(a4, bad)
    with pytest.raises(IntegrabilityError):
        AlmostComplexStructure(abelian(3), [[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def test_nijenhuis_pass_examples(solv8_I, at4_J, hk12_I):
    assert nijenhuis_vanishes(solv8_I).passed
    assert nijenhuis_vanishes(at4_J).passed
    assert nijenhuis_vanishes(hk12_I).passed


def test_nijenhuis_abelian_always_passes():
    a6 = abelian(6)
    J = AlmostComplexStructure.from_action(a6, {1: "e2", 3: "e4", 5: "e6"})
    assert nijenhuis_vanishes(J).passed


def test_nijenhuis_failure_with_witness():
    p = direct_sum(LieAlgebraPresentation(3, {1: [(1, (2, 3))]}), abelian(1))
    J = AlmostComplexStructure.from_action(p, {1: "e2", 3: (1, 4)})
    rep = nijenhuis_vanishes(J)
    assert not rep.passed
    pairs = {(a, b) for a, b, _v in rep.witnesses}
    assert (2, 3) in pairs
    with pytest.raises(IntegrabilityError):
        bidegree(p.generator(1), J)


def test_coframe_hk12_matches_convention(hk12_I):
    etas = hk12_I.model().eta_forms
    p = hk12_I.presentation
    i = p.table.i

    def gen(k):
        return p.generator(k)

    assert etas[0] == gen(1) + i * gen(3)
    assert etas[1] == gen(2) + i * gen(4)
    assert etas[2] == gen(5) - i * gen(7)
    assert etas[3] == gen(6) - i * gen(8)
    assert etas[4] == gen(9) + i * gen(10)
    assert etas[5] == gen(11) - i * gen(12)


def test_coframe_abelian2():
    a2 = abelian(2)
    J = AlmostComplexStructure.from_action(a2, {1: "e2"})
    (eta,) = J.model().eta_forms
    assert eta == a2.generator(1) + a2.table.i * a2.generator(2)


def test_coframe_defining_property(solv8_I):
    # eta(JX) = i eta(X), i.e. eta o J = i eta
    for eta in solv8_I.model().eta_forms:
        assert solv8_I.pullback_one_form(eta) == solv8_I.presentation.table.i * eta


@pytest.mark.parametrize("degrees", [(2,), (1, 2)], ids=["two-form", "mixed"])
def test_pullback_one_form_refuses_other_degrees(solv8_I, degrees):
    pres = solv8_I.presentation
    form = pres.form([(1, tuple(range(1, k + 1))) for k in degrees])
    with pytest.raises(FormError, match="expects a 1-form"):
        solv8_I.pullback_one_form(form)


def test_coframe_solv8_spans_top_form(solv8_I):
    etas = solv8_I.model().eta_forms
    assert len(etas) == 4
    all_forms = etas + [e.conjugate() for e in etas]
    top = wedge_all(all_forms)
    assert not top.is_zero()


def test_bidegree_pure_examples(at4_J, hk12_I):
    at4 = at4_J.presentation
    w0 = at4.form([(1, (1, 2)), (1, (3, 4)), (1, (5, 6))])
    assert bidegree(w0, at4_J).is_pure(1, 1)
    m = hk12_I.model()
    assert bidegree(m.to_real(m.eta_monomial((1, 2))), hk12_I).is_pure(2, 0)


def test_bidegree_components_sum_back(hk12_I):
    p = hk12_I.presentation
    f123 = p.form([(1, (1, 2, 3))])
    bg = bidegree(f123, hk12_I)
    assert set(bg.bidegrees()) == {(2, 1), (1, 2)}
    assert (bg.total() - f123).is_zero()


def test_bidegree_random_roundtrip(hk12_I):
    rng = random.Random(21)
    for _ in range(100):
        f = random_form(hk12_I.presentation, rng, degrees=(1, 2, 3, 4))
        bg = bidegree(f, hk12_I)
        assert (bg.total() - f).is_zero()


def test_real_form_components_conjugate_pairs(hk12_I):
    rng = random.Random(22)
    for _ in range(60):
        f = random_form(hk12_I.presentation, rng, degrees=(2, 3))
        f = f + f.conjugate()  # make it real
        bg = bidegree(f, hk12_I)
        for (p, q), comp in bg.components.items():
            assert comp.conjugate() == bg.component(q, p)


def test_del_delbar_decompose_d(solv8_I):
    rng = random.Random(23)
    p = solv8_I.presentation
    for _ in range(100):
        f = random_form(p, rng, degrees=(1, 2, 3), symbol_names=("b",))
        assert (del_(f, solv8_I) + delbar(f, solv8_I) - p.d(f)).is_zero()


def test_dolbeault_identities_randomized(solv8_I):
    rng = random.Random(24)
    for _ in range(60):
        f = random_form(solv8_I.presentation, rng, degrees=(1, 2), symbol_names=("b",))
        assert del_(del_(f, solv8_I), solv8_I).is_zero()
        assert delbar(delbar(f, solv8_I), solv8_I).is_zero()
        anti = del_(delbar(f, solv8_I), solv8_I) + delbar(del_(f, solv8_I), solv8_I)
        assert anti.is_zero()


def test_pluriclosed_identity_on_solv8(solv8_I):
    g = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    om = fundamental_form(solv8_I, g)
    assert delbar(del_(om, solv8_I), solv8_I).is_zero()
    assert del_(delbar(om, solv8_I), solv8_I).is_zero()


def test_del_omega_nonzero_on_hk12(hk12_I):
    m = hk12_I.model()
    omega = m.to_real(m.eta_monomial((1, 3)) + m.eta_monomial((2, 4)) + m.eta_monomial((5, 6)))
    assert not del_(omega, hk12_I).is_zero()


def test_dc_vanishes_on_abelian_constants():
    a4 = abelian(4)
    J = AlmostComplexStructure.from_action(a4, {1: "e2", 3: "e4"})
    rng = random.Random(25)
    for _ in range(30):
        assert dc(random_form(a4, rng), J).is_zero()


def test_dc_real_on_real_forms(solv8_I):
    rng = random.Random(26)
    for _ in range(50):
        f = random_form(solv8_I.presentation, rng, degrees=(1, 2))
        f = f + f.conjugate()
        g = dc(f, solv8_I)
        assert g.conjugate() == g


def test_ddc_equals_2i_del_delbar(solv8_I):
    rng = random.Random(27)
    p = solv8_I.presentation
    two_i = p.table.scalar(2) * p.table.i
    for _ in range(40):
        f = random_form(p, rng, degrees=(2,), symbol_names=("b",))
        bg = bidegree(f, solv8_I)
        for (dp, dq), comp in bg.components.items():
            lhs = p.d(dc(comp, solv8_I))
            rhs = two_i * del_(delbar(comp, solv8_I), solv8_I)
            assert (lhs - rhs).is_zero()


def test_d_dc_anticommute(solv8_I):
    rng = random.Random(28)
    p = solv8_I.presentation
    for _ in range(40):
        f = random_form(p, rng, degrees=(1, 2))
        assert (p.d(dc(f, solv8_I)) + dc(p.d(f), solv8_I)).is_zero()


def test_conjugation_involution_and_swap(hk12_I):
    rng = random.Random(29)
    for _ in range(60):
        f = random_form(hk12_I.presentation, rng, degrees=(1, 2, 3))
        assert f.conjugate().conjugate() == f
        bg = bidegree(f, hk12_I)
        bgc = bidegree(f.conjugate(), hk12_I)
        for (p, q), comp in bg.components.items():
            assert bgc.component(q, p) == comp.conjugate()


def test_weil_operator_fixes_real_11(solv8_I):
    g = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    om = fundamental_form(solv8_I, g)
    assert weil_operator(om, solv8_I) == om


def test_conjugate_of_coframe(hk12_I):
    etas = hk12_I.model().eta_forms
    p = hk12_I.presentation
    assert etas[0].conjugate() == p.generator(1) - p.table.i * p.generator(3)


def test_fundamental_form_rejects_incompatible_metric():
    a4 = abelian(4)
    J = AlmostComplexStructure.from_action(a4, {1: "e2", 3: "e4"})
    bad_g = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    from hermitia.cealg import FormError

    with pytest.raises(FormError):
        fundamental_form(J, bad_g)


# -- properties of the complex coframe ------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module", params=["fp_solv8", "pseudoHK12"])
def structure(request, solv8_I, hk12_I):
    """(structure, symbol names usable in its coefficients)."""
    return (solv8_I, ("b",)) if request.param == "fp_solv8" else (hk12_I, ())


def form_terms(dim, symbols):
    coeff = st.tuples(
        st.integers(-3, 3).filter(bool), st.booleans(), st.sampled_from((None,) + symbols)
    )
    idx = st.lists(st.integers(1, dim), min_size=1, max_size=3, unique=True)
    return st.lists(st.tuples(coeff, idx), min_size=1, max_size=4)


def build_form(pres, terms):
    table = pres.table
    out = []
    for (c, imaginary, symbol), idx in terms:
        s = table.scalar(c)
        if imaginary:
            s = s * table.i
        if symbol is not None:
            s = s * table.symbol(symbol)
        out.append((s, tuple(idx)))
    return pres.form(out)


@PROPERTY
@given(data=st.data())
def test_property_conversions_invert(structure, data):
    J, symbols = structure
    model = J.model()
    f = build_form(J.presentation, data.draw(form_terms(J.presentation.dim, symbols)))
    assert model.to_real(model.to_complex(f)) == f
    cg = build_form(model, data.draw(form_terms(model.dim, symbols)))
    assert model.to_complex(model.to_real(cg)) == cg


@PROPERTY
@given(data=st.data())
def test_property_native_del_plus_delbar_is_d(structure, data):
    J, symbols = structure
    model = J.model()
    cf = build_form(model, data.draw(form_terms(model.dim, symbols)))
    dl, db = del_(cf, J), delbar(cf, J)
    assert dl + db == model.d(cf)
    f = model.to_real(cf)
    assert model.to_real(dl) == del_(f, J)
    assert model.to_real(db) == delbar(f, J)
    assert del_(f, J) + delbar(f, J) == J.presentation.d(f)


def _real_round_trip(c, k):
    return del_(delbar(wedge_power(c.omega, k), c.J), c.J)


@pytest.mark.parametrize("name, omega, endo", [("AT4", "omega0", "J"), ("fp_solv8", "omega", "I")])
def test_complex_frame_del_delbar_power_matches_real_round_trip(name, omega, endo):
    cand = builtin(name).build().candidate(omega, endo)
    for k in range(1, cand.m):
        assert cand.del_delbar_power(k) == _real_round_trip(cand, k)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_property_del_delbar_power_on_random_11_forms(structure, data):
    J, _symbols = structure
    cand = draw_hermitian_candidate(data, J)
    m = cand.m
    # the real-basis side is the slow one: k = 3 on pseudoHK12 takes seconds
    k = data.draw(st.integers(1, min(m - 1, 2)))
    assert cand.del_delbar_power(k) == _real_round_trip(cand, k)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_power_ladder_is_the_wedge_power(structure, data):
    """omega_c^k equals its minors key for key, past the top degree too,
    also when zero diagonal entries and empty rows make minors vanish."""
    J, _symbols = structure
    m = J.model().m
    empty = data.draw(st.sets(st.integers(1, m), max_size=m))
    cand = draw_hermitian_candidate(data, J, empty)
    for k in range(1, m + 2):
        assert cand.power(k) == power_by_minors(cand, k)


@PROPERTY
@given(data=st.data())
def test_property_coframe_conjugation_matches_real(structure, data):
    """Conjugating in the coframe swaps eta_k with its conjugate: back in the
    real basis it is coefficient conjugation."""
    J, symbols = structure
    model = J.model()
    f_c = build_form(model, data.draw(form_terms(model.dim, symbols)))
    conj = f_c.conjugate()
    assert conj.presentation is model
    assert model.to_real(conj) == model.to_real(f_c).conjugate()
    assert conj.conjugate() == f_c


@pytest.fixture(scope="module", params=["AT4", "fp_solv8", "pseudoHK12"])
def conjugation_structure(request, at4_J, solv8_I, hk12_I):
    """(structure, symbol names usable in its coefficients); AT4 has its free
    weight a."""
    return {"AT4": (at4_J, ("a",)), "fp_solv8": (solv8_I, ("b",)),
            "pseudoHK12": (hk12_I, ())}[request.param]


@PROPERTY
@given(data=st.data())
def test_property_conjugation_in_both_bases(conjugation_structure, data):
    """``Form.conjugate`` is complex conjugation in the form's own basis: it
    commutes with both changes of basis, is an involution in each, and takes
    a (p,q) monomial of the coframe to a (q,p) one."""
    J, symbols = conjugation_structure
    model = J.model()
    a = build_form(J.presentation, data.draw(form_terms(J.presentation.dim, symbols)))
    c = build_form(model, data.draw(form_terms(model.dim, symbols)))
    assert model.to_complex(a.conjugate()) == model.to_complex(a).conjugate()
    assert real_basis(c.conjugate()) == real_basis(c).conjugate()
    assert a.conjugate().conjugate() == a and c.conjugate().conjugate() == c
    for idx in c.terms:
        (image,) = model.form([(1, idx)]).conjugate().terms
        p, q = model.bidegree_of_indices(idx)
        assert model.bidegree_of_indices(image) == (q, p)


def test_conjugate_of_a_coframe_generator(hk12_I):
    model = hk12_I.model()
    assert model.generator(1).conjugate() == model.eta_monomial((), (1,))


# -- integrability: the (0,2) test of the complex model against the N loop -------


def _nijenhuis_oracle(J):
    """(a, b, coefficient list of N(e_a, e_b)) for every basis pair a < b on
    which N(e_a, e_b) = [e_a,e_b] + J[Je_a,e_b] + J[e_a,Je_b] - [Je_a,Je_b]
    does not vanish, by the dense loop over the brackets of the real basis."""
    pres = J.presentation
    pres.require_jacobi()
    n = pres.dim
    zero = pres.table.zero
    brackets = [[pres.bracket_coefficients(i + 1, j + 1) for j in range(n)] for i in range(n)]

    def apply(v):
        return [sum((J.matrix[i][j] * v[j] for j in range(n)), zero) for i in range(n)]

    def bracket(u, v):
        out = [zero] * n
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                f = ui * vj
                if not f.is_zero():
                    out = [o + f * c for o, c in zip(out, brackets[i][j])]
        return out

    basis = [[pres.table.one if k == a else zero for k in range(n)] for a in range(n)]
    jbasis = [apply(v) for v in basis]
    witnesses = []
    for a in range(n):
        for b in range(a + 1, n):
            t2 = apply(bracket(jbasis[a], basis[b]))
            t3 = apply(bracket(basis[a], jbasis[b]))
            t4 = bracket(jbasis[a], jbasis[b])
            total = [x + y + z - w for x, y, z, w in zip(brackets[a][b], t2, t3, t4)]
            if any(not c.is_zero() for c in total):
                witnesses.append((a + 1, b + 1, total))
    return witnesses


def _structures(pres):
    for name, mat in pres.endomorphisms.items():
        try:
            yield AlmostComplexStructure(pres, mat, name=name)
        except IntegrabilityError:
            continue  # not a square root of -Id


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12", "lemma61"])
def test_model_integrability_agrees_with_loop_on_builtins(name):
    pres = builtin(name).build().presentation
    structures = list(_structures(pres))
    assert structures or name == "lemma61"
    for J in structures:
        assert J.nijenhuis_vanishes().witnesses == _nijenhuis_oracle(J)


def _conjugated(J, entries):
    """P J P^-1 for the rational matrix P with the given entries, or None
    when P is singular."""
    from hermitia import linear

    pres = J.presentation
    table = pres.table
    n = pres.dim
    p = tuple(tuple(table.scalar(entries[i * n + j]) for j in range(n)) for i in range(n))
    try:
        pinv = linear.invert(p, table)
    except linear.LinearError:
        return None
    mat = linear.mat_mul(linear.mat_mul(p, J.matrix, table), pinv, table)
    return AlmostComplexStructure(pres, mat, name="PJP")


@settings(max_examples=20, deadline=None)
@given(
    which=st.sampled_from(["fp_solv8", "AT4", "pseudoHK12", "complex-counterexample"]),
    data=st.data(),
)
def test_model_integrability_agrees_with_loop_on_conjugated_structures(
    which, data, solv8_I, at4_J, hk12_I
):
    """P J P^-1 for a random rational P is a square root of -Id that is
    integrable or not, depending on P; the model's split names exactly the
    witnesses of the dense loop, also under complex structure constants,
    where the (1,0) half of the coframe alone may pass."""
    J = {"fp_solv8": solv8_I, "AT4": at4_J, "pseudoHK12": hk12_I}.get(which)
    K = _random_conjugate(J if J is not None else _complex_constant_counterexample(), data)
    if K is None:
        return
    assert K.nijenhuis_vanishes().witnesses == _nijenhuis_oracle(K)


def _random_conjugate(J, data):
    """P J P^-1 for a drawn rational P near the identity (so that P is
    usually invertible and the entries small), or None when P is singular."""
    n = J.presentation.dim
    bumps = data.draw(
        st.lists(st.tuples(st.integers(0, n * n - 1), st.fractions(-2, 2, max_denominator=3)),
                 min_size=1, max_size=4)
    )
    entries = [1 if k % (n + 1) == 0 else 0 for k in range(n * n)]
    for k, v in bumps:
        entries[k] += v
    return _conjugated(J, entries)


def _greedy_sigma(J):
    """Reference coframe selection: real index r is taken iff e^r raises the
    rank of the rows e^s, e^s o J of the indices s taken before it."""
    from hermitia import linear

    table = J.presentation.table
    n = J.presentation.dim
    chosen, sigma = [], []
    for r in range(n):
        unit = [table.one if s == r else table.zero for s in range(n)]
        if linear.rank(chosen + [unit]) > linear.rank(chosen):
            sigma.append(r + 1)
            chosen += [unit, list(J.matrix[r])]
    return tuple(sigma)


@settings(max_examples=30, deadline=None)
@given(
    which=st.sampled_from(["fp_solv8", "AT4", "pseudoHK12"]),
    data=st.data(),
)
def test_coframe_selection_is_greedy_on_conjugated_structures(
    which, data, solv8_I, at4_J, hk12_I
):
    """The selection depends on the matrix alone; on an abelian algebra every
    P J P^-1 is integrable, so its model always builds."""
    J = {"fp_solv8": solv8_I, "AT4": at4_J, "pseudoHK12": hk12_I}[which]
    K = _random_conjugate(J, data)
    if K is None:
        return
    pres = abelian(K.presentation.dim, table=K.presentation.table)
    flat = AlmostComplexStructure(pres, K.matrix)
    assert flat.model().sigma == _greedy_sigma(flat)


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12", "lemma61"])
def test_coframe_selection_is_greedy_on_builtins(name):
    structures = [
        J for J in _structures(builtin(name).build().presentation) if J.nijenhuis_vanishes().passed
    ]
    assert structures
    for J in structures:
        assert J.model().sigma == _greedy_sigma(J)


def _dense_model_reference(J):
    """(sigma, real-to-complex rows, complex-to-real rows, d of the coframe)
    by the dense construction: the coframe through ``pullback_one_form``,
    the whole 2m x 2m change of basis inverted, and d of both halves
    substituted and tested.  Raises IntegrabilityError as the model does."""
    from fractions import Fraction

    from hermitia import linear
    from hermitia.cealg import _add_products

    pres = J.presentation
    table = pres.table
    n, m = pres.dim, pres.dim // 2
    zero, one, i_unit = table.zero, table.one, table.i
    # column 2r is e^r and column 2r + 1 is e^r o J, which is row r of J
    duals = [{} for _ in range(n)]
    for r in range(n):
        duals[r][2 * r] = one
        for i, x in enumerate(J.matrix[r]):
            if not x.is_zero():
                duals[i][2 * r + 1] = x
    pivots = linear.rref(duals, 2 * n)[0]
    sigma = tuple(c // 2 + 1 for c in pivots if c % 2 == 0)
    etas = [pres.generator(r) - i_unit * J.pullback_one_form(pres.generator(r)) for r in sigma]

    rows = [[one if s == r else zero for s in range(1, n + 1)] for r in sigma]
    rows += [list(J.matrix[r - 1]) for r in sigma]
    rinv = linear.invert(rows, table)
    half = table.scalar(Fraction(1, 2))
    real_to_cx = []
    for r in range(n):
        pairs = [(half * x, half * i_unit * y) for x, y in zip(rinv[r][:m], rinv[r][m:])]
        cx = [x + y for x, y in pairs] + [x - y for x, y in pairs]
        real_to_cx.append([((j + 1,), c) for j, c in enumerate(cx) if not c.is_zero()])
    cx_to_real = [sorted(eta.terms.items()) for eta in etas]
    cx_to_real += [[(idx, c.conjugate()) for idx, c in row] for row in cx_to_real]

    def substitute(terms):
        out = {}
        for idx, coeff in terms.items():
            partial = {(): coeff}
            for r in idx:
                partial = _add_products({}, partial, real_to_cx[r - 1])
            for k, c in partial.items():
                acc = out.get(k)
                out[k] = c if acc is None else acc + c
        return {k: c for k, c in out.items() if not c.is_zero()}

    d_gen = {}
    for a, element in enumerate(etas + [eta.conjugate() for eta in etas]):
        cterms = substitute(pres.d(element).terms)
        bad = (0, 2) if a < m else (2, 0)
        if any((sum(k <= m for k in idx), sum(k > m for k in idx)) == bad for idx in cterms):
            kind = "(1,0)" if a < m else "(0,1)"
            raise IntegrabilityError(
                f"non-integrable structure: d of a {kind} coframe "
                f"element has a ({bad[0]},{bad[1]}) component"
            )
        if cterms:
            d_gen[a + 1] = cterms
    return sigma, real_to_cx, cx_to_real, d_gen


def _symbolic_structure():
    """fp_solv8's I beside the square root [[0, -b], [1/b, 0]] of -Id on
    R^2: a structure whose matrix holds a free symbol."""
    base = make_fp_solv8()
    I = AlmostComplexStructure.from_action(base, {1: "-e2", 3: "e8", 4: "e5", 6: "e7"})
    pres = direct_sum(base, abelian(2))
    mat = [[str(x) for x in row] + ["0", "0"] for row in I.matrix]
    mat += [["0"] * 8 + ["0", "-b"], ["0"] * 8 + ["1/b", "0"]]
    return AlmostComplexStructure(pres, mat)


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["fp_solv8", "AT4", "pseudoHK12", "symbolic"]),
    data=st.data(),
)
def test_model_equals_dense_reference_on_conjugated_structures(
    which, data, solv8_I, at4_J, hk12_I
):
    """The selection, both change-of-basis maps and the differential of the
    coframe are the dense construction's key for key, and a structure one
    rejects the other rejects with the same message."""
    J = {"fp_solv8": solv8_I, "AT4": at4_J, "pseudoHK12": hk12_I}.get(which)
    K = _random_conjugate(J if J is not None else _symbolic_structure(), data)
    if K is None:
        return
    try:
        expected = _dense_model_reference(K)
    except IntegrabilityError as err:
        with pytest.raises(IntegrabilityError, match=re.escape(str(err))):
            ComplexModel(K)
        return
    model = ComplexModel(K)
    got = (model.sigma, model._real_to_cx, model._cx_to_real, model.d_gen)
    assert got == expected


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12", "lemma61"])
def test_model_equals_dense_reference_on_builtins(name):
    for J in _structures(builtin(name).build().presentation):
        if J.nijenhuis_vanishes().passed:
            model = J.model()
            got = (model.sigma, model._real_to_cx, model._cx_to_real, model.d_gen)
            assert got == _dense_model_reference(J)


# -- d^2 = 0 on the coframe: a test oracle, not a build step ----------------------


def _d_squared_witnesses(d_gen, dim):
    """The generators g whose d(d z_g), recomputed from the table ``d_gen``,
    is not zero.  The model takes d^2 = 0 from the real presentation; this
    recomputes it on the coframe's own tables."""
    return [g for g in range(1, dim + 1) if _d_terms(d_gen, d_gen.get(g, {}))]


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12", "lemma61"])
def test_coframe_d_squared_vanishes_on_builtins(name):
    """Every integrable structure of a built-in has d^2 = 0 on its coframe,
    and the model's Jacobi report is the real presentation's."""
    models = [
        J.model()
        for J in _structures(builtin(name).build().presentation)
        if J.nijenhuis_vanishes().passed
    ]
    assert models
    for model in models:
        assert _d_squared_witnesses(model.d_gen, model.dim) == []
        assert model.jacobi_check() is model.real.jacobi_check()
        assert model.jacobi_check().passed


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["fp_solv8", "AT4", "pseudoHK12", "symbolic"]),
    data=st.data(),
)
def test_coframe_d_squared_vanishes_on_conjugated_structures(
    which, data, solv8_I, at4_J, hk12_I
):
    """d^2 = 0 on the coframe of the structures that
    ``test_model_equals_dense_reference_on_conjugated_structures`` draws."""
    J = {"fp_solv8": solv8_I, "AT4": at4_J, "pseudoHK12": hk12_I}.get(which)
    K = _random_conjugate(J if J is not None else _symbolic_structure(), data)
    if K is None or not K.nijenhuis_vanishes().passed:
        return
    model = K.model()
    assert _d_squared_witnesses(model.d_gen, model.dim) == []
    assert model.jacobi_check() is model.real.jacobi_check()


def test_coframe_d_squared_oracle_names_a_generator_for_every_sign_mutant(solv8_I):
    """Flipping the sign of any one coefficient of fp_solv8's coframe tables
    breaks d^2 = 0, and the oracle names a generator.  (On AT4, pseudoHK12
    and lemma61 d^2 = 0 does not depend on those signs, which is why the
    dense-reference tests stay the main guard of the tables.)"""
    model = solv8_I.model()
    mutants = 0
    for g, terms in model.d_gen.items():
        for idx in terms:
            d_gen = {h: dict(t) for h, t in model.d_gen.items()}
            d_gen[g][idx] = -d_gen[g][idx]
            assert _d_squared_witnesses(d_gen, model.dim), (g, idx)
            mutants += 1
    assert mutants == 14


# -- del and delbar: the model's generator tables against the bidegree split ------


def _d_split_reference(model, cform):
    """(del part, delbar part) of d by the split the tables replaced: the
    full d of each bidegree bucket, each output term sorted by its
    bidegree.  A component outside (p+1,q), (p,q+1) raises."""
    del_terms, delbar_terms = {}, {}
    for (p, q), comp in model.split_bidegrees(cform).items():
        for idx, c in model.d(comp).terms.items():
            pq2 = model.bidegree_of_indices(idx)
            if pq2 == (p + 1, q):
                bucket = del_terms
            elif pq2 == (p, q + 1):
                bucket = delbar_terms
            else:
                raise IntegrabilityError(f"d maps bidegree {(p, q)} into {pq2}")
            acc = bucket.get(idx)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                bucket.pop(idx, None)
            else:
                bucket[idx] = acc
    return del_terms, delbar_terms


def _complex_constant_structure():
    """fp_solv8's I on the algebra whose structure constants are fp_solv8's
    times 1 + 2i.  d^2 = 0 and the bidegree test are homogeneous in the
    constants, so I stays integrable; d no longer commutes with conjugation,
    so the conjugate half of the coframe is substituted on its own."""
    base = make_fp_solv8()
    lam = base.table.parse("1+2*i")
    pres = LieAlgebraPresentation(
        base.dim,
        {g: [(lam * c, idx) for idx, c in t.items()] for g, t in base.d_gen.items()},
        names=base.names,
        table=base.table,
    )
    return AlmostComplexStructure.from_action(pres, {1: "-e2", 3: "e8", 4: "e5", 6: "e7"})


@functools.lru_cache(maxsize=None)
def _split_structures():
    """Every integrable structure of the built-ins, the complex-constant
    structure and the symbolic one, by name.  Built on first use, so that a
    defect in building them fails the tests that use them, by name."""
    out = {"complex-constants": _complex_constant_structure(), "symbolic": _symbolic_structure()}
    for name in ("AT4", "fp_solv8", "pseudoHK12", "lemma61"):
        for J in _structures(builtin(name).build().presentation):
            if J.nijenhuis_vanishes().passed:
                out[f"{name}:{J.name}"] = J
    return out


@settings(max_examples=100, deadline=None)
@given(conjugate=st.booleans(), data=st.data())
def test_property_d_split_equals_the_bidegree_split(conjugate, data):
    """On a random mixed-degree coframe form, del and delbar from the tables
    equal the bidegree split of the full d term for term; each half of a
    pure (p,q) part has bidegree (p+1,q) or (p,q+1); and del + delbar = d.
    The structure is taken as it is or conjugated by a random P (P J P^-1,
    when that is integrable)."""
    structures = _split_structures()
    J = structures[data.draw(st.sampled_from(sorted(structures)))]
    if conjugate:
        J = _random_conjugate(J, data)
        if J is None or not J.nijenhuis_vanishes().passed:
            return
    model = J.model()
    symbols = tuple(model.real.table.names[1:])
    cf = build_form(model, data.draw(form_terms(model.dim, symbols)))
    dl, db = model.d_split_complex(cf)
    assert (dl.terms, db.terms) == _d_split_reference(model, cf)
    assert dl + db == model.d(cf)
    assert (del_(cf, J), delbar(cf, J)) == (dl, db)
    for (p, q), part in model.split_bidegrees(cf).items():
        dl, db = model.d_split_complex(part)
        assert {model.bidegree_of_indices(idx) for idx in dl.terms} <= {(p + 1, q)}
        assert {model.bidegree_of_indices(idx) for idx in db.terms} <= {(p, q + 1)}


def test_complex_constants_split_each_half_on_its_own():
    """With complex constants the tables of conj(eta_a) are not the
    conjugates of eta_a's tables, and both still split d."""
    model = _split_structures()["complex-constants"].model()
    m = model.m
    conj = model.conjugate_terms
    mirrored = all(
        model.del_gen.get(m + a, {}) == conj(model.delbar_gen.get(a, {}))
        and model.delbar_gen.get(m + a, {}) == conj(model.del_gen.get(a, {}))
        for a in range(1, m + 1)
    )
    assert not mirrored
    for g in range(1, 2 * m + 1):
        eta = model.generator(g)
        dl, db = model.d_split_complex(eta)
        assert (dl.terms, db.terms) == _d_split_reference(model, eta)


def test_operators_take_neither_the_full_d_nor_a_bidegree_per_term(monkeypatch, hk12_I):
    """del, delbar, d^c and d_split_complex run on the model's tables: the
    full differential of the coframe and the per-term bidegree test are never
    called."""
    model = hk12_I.model()
    cf = model.form([(1, (1, 8)), ("i", (2, 3, 9)), (2, (4,))])
    expected = _d_split_reference(model, cf)

    def refuse(*_args):
        raise AssertionError("called")

    monkeypatch.setattr(LieAlgebraPresentation, "d", refuse)
    monkeypatch.setattr(ComplexModel, "bidegree_of_indices", refuse)
    dl, db = model.d_split_complex(cf)
    assert (dl.terms, db.terms) == expected
    assert (del_(cf, hk12_I).terms, delbar(cf, hk12_I).terms) == expected
    assert dc(cf, hk12_I) == model.table.i * (db - dl)


def test_d_split_refuses_a_form_of_another_coframe():
    ctx = builtin("pseudoHK12").build()
    mi, mj = ctx.acs("I").model(), ctx.acs("J").model()
    with pytest.raises(FormError, match="complex coframe"):
        mi.d_split_complex(mj.generator(1))


# Non-integrable square roots of -Id on non-abelian algebras, with the
# witnesses (nonzero entries only), the `integrable` check's detail and the
# model() error text of the N(e_a, e_b) loop, as recorded before the
# integrability verdict moved into the complex model.
NON_INTEGRABLE = {
    "heisenberg_x_R": (
        lambda: direct_sum(LieAlgebraPresentation(3, {1: [(1, (2, 3))]}), abelian(1)),
        {1: "e2", 3: (1, 4)},
        [[1, 3, {2: "-1"}], [1, 4, {1: "-1"}], [2, 3, {1: "-1"}], [2, 4, {2: "1"}]],
        {"witness_pair": ["e1", "e3"], "value": ["0", "-1", "0", "0"]},
        "J is not integrable: N(e_1, e_3) != 0",
    ),
    "fp_solv8": (
        make_fp_solv8,
        {1: "e3", 2: "e4", 5: "e8", 6: "e7"},
        [[1, 2, {3: "1"}], [1, 4, {1: "1"}], [1, 5, {3: "1"}], [1, 8, {1: "1"}],
         [2, 3, {1: "-1"}], [2, 5, {4: "1", 5: "-b"}], [2, 8, {2: "1", 8: "b"}],
         [3, 4, {3: "-1"}], [3, 5, {1: "1"}], [3, 8, {3: "-1"}], [4, 5, {2: "1", 8: "b"}],
         [4, 8, {4: "-1", 5: "b"}]],
        {"witness_pair": ["e1", "e2"], "value": ["0", "0", "1", "0", "0", "0", "0", "0"]},
        "J is not integrable: N(e_1, e_2) != 0",
    ),
    "AT4": (
        make_at4,
        {1: "e3", 2: "e5", 4: "e6"},
        [[1, 2, {3: "-2*a"}], [1, 5, {1: "-2*a"}], [2, 3, {1: "2*a"}], [2, 4, {6: "-a"}],
         [2, 6, {4: "-a"}], [3, 5, {3: "2*a"}], [4, 5, {4: "a"}], [5, 6, {6: "a"}]],
        {"witness_pair": ["e1", "e2"], "value": ["0", "0", "-2*a", "0", "0", "0"]},
        "J is not integrable: N(e_1, e_2) != 0",
    ),
    "pseudoHK12": (
        make_hk12,
        {"f1": "f9", "f2": "f3", "f4": "f5", "f6": "f7", "f8": "f10", "f11": "f12"},
        [[1, 2, {3: "-2"}], [1, 3, {2: "-2"}], [1, 4, {5: "-2"}], [1, 5, {4: "-2"}],
         [1, 6, {7: "-2"}], [1, 7, {6: "-2"}], [1, 8, {10: "-1"}], [1, 10, {8: "-1"}],
         [2, 9, {2: "2"}], [3, 9, {3: "-2"}], [4, 9, {4: "2"}], [5, 9, {5: "-2"}],
         [6, 9, {6: "2"}], [7, 9, {7: "-2"}], [8, 9, {8: "1"}], [9, 10, {10: "1"}]],
        {"witness_pair": ["f1", "f2"],
         "value": ["0", "0", "-2", "0", "0", "0", "0", "0", "0", "0", "0", "0"]},
        "J is not integrable: N(e_1, e_2) != 0",
    ),
}


def _integrable_check_manifest(pres, J):
    names = list(pres.names)
    return {
        "name": "nonintegrable",
        "symbols": [{"name": s} for s in pres.table.names[1:]],
        "dimension": pres.dim,
        "basis": names,
        "differential": {
            names[g - 1]: [[str(c), [names[k - 1] for k in idx]] for idx, c in sorted(t.items())]
            for g, t in sorted(pres.d_gen.items())
        },
        "endomorphisms": {"J": [[str(x) for x in row] for row in J.matrix]},
        "checks": [{"id": "integrable", "kind": "integrable", "endo": "J"}],
    }


@pytest.mark.parametrize("case", sorted(NON_INTEGRABLE))
def test_non_integrable_structures_keep_their_witnesses(case):
    from hermitia.manifest import Manifest, run_check

    make, action, witnesses, detail, error = NON_INTEGRABLE[case]
    pres = make()
    J = AlmostComplexStructure.from_action(pres, action)
    rep = J.nijenhuis_vanishes()
    assert not rep.passed and rep.witnesses == _nijenhuis_oracle(J)
    assert [
        [a, b, {k + 1: str(c) for k, c in enumerate(v) if not c.is_zero()}]
        for a, b, v in rep.witnesses
    ] == witnesses
    with pytest.raises(IntegrabilityError) as err:
        J.model()
    assert str(err.value) == error
    # a second call answers from the recorded verdict
    with pytest.raises(IntegrabilityError, match="is not integrable"):
        J.model()
    outcome = run_check(Manifest(_integrable_check_manifest(pres, J))).outcomes[-1]
    assert (outcome.verdict, outcome.detail) == ("fail", detail)
    # the model's own test fails on the same structure, so its raise decides
    fresh = AlmostComplexStructure(pres, J.matrix)
    with pytest.raises(IntegrabilityError, match=r"\(0,2\) component"):
        ComplexModel(fresh)


def _complex_constant_counterexample():
    """A structure on an algebra with complex structure constants where
    d eta_1 = d eta_2 = 0 but d(conj eta_1) = eta_1 ^ eta_2: [T10, T10]
    leaves T10, so N != 0, although no (1,0) element has a (0,2) part."""
    from hermitia.scalars import SymbolTable

    table = SymbolTable()
    h, hi = table.parse("1/2"), table.parse("i/2")
    # e^1 = (eta_1 + conj eta_1)/2 and e^2 = (eta_1 - conj eta_1)/(2i), with
    # eta_1 = e^1 + i e^2, eta_2 = e^3 + i e^4 and
    # eta_1 ^ eta_2 = e13 + i e14 + i e23 - e24
    pres = LieAlgebraPresentation(
        4,
        {
            1: [(h, (1, 3)), (hi, (1, 4)), (hi, (2, 3)), (-h, (2, 4))],
            2: [(hi, (1, 3)), (-h, (1, 4)), (-h, (2, 3)), (-hi, (2, 4))],
        },
        table=table,
    )
    assert pres.jacobi_check().passed
    return AlmostComplexStructure.from_action(pres, {1: "e2", 3: "e4"})


def test_complex_structure_constants_are_tested_on_both_halves():
    """With complex structure constants d(conj eta) is not conj(d eta), so
    the (0,1) half of the coframe is tested on its own."""
    from hermitia.manifest import Manifest, run_check

    J = _complex_constant_counterexample()
    pres = J.presentation
    rep = J.nijenhuis_vanishes()
    assert not rep.passed and rep.witnesses == _nijenhuis_oracle(J)
    with pytest.raises(IntegrabilityError, match=r"N\(e_1, e_3\) != 0"):
        J.model()
    fresh = AlmostComplexStructure(pres, J.matrix)
    with pytest.raises(IntegrabilityError, match=r"\(0,1\) coframe element has a \(2,0\)"):
        ComplexModel(fresh)
    outcome = run_check(Manifest(_integrable_check_manifest(pres, J))).outcomes[-1]
    assert outcome.verdict == "fail"
    assert outcome.detail["witness_pair"] == ["e1", "e3"]


def test_the_model_error_carries_the_nijenhuis_witnesses():
    """ComplexModel(J) on a non-integrable J raises with the witnesses of the
    dense loop; an error that is no integrability verdict carries none."""
    for J in (_complex_constant_counterexample(),
              AlmostComplexStructure.from_action(make_at4(), {1: "e3", 2: "e5", 4: "e6"})):
        with pytest.raises(IntegrabilityError) as err:
            ComplexModel(AlmostComplexStructure(J.presentation, J.matrix))
        assert err.value.witnesses == _nijenhuis_oracle(J) != []
    with pytest.raises(IntegrabilityError) as err:
        AlmostComplexStructure(abelian(2), [[0, 1], [1, 0]])
    assert err.value.witnesses == []


def test_non_real_structure_is_rejected():
    """i Id squares to -Id but is no almost complex structure on a real
    algebra; the conjugate of its (1,0) forms would not be (0,1)."""
    from hermitia.manifest import Manifest, run_check

    pres = abelian(2)
    i, zero = pres.table.i, pres.table.zero
    # [[0, i], [i, 0]] also squares to -Id; its diagonal is zero, and each
    # of its nonzero entries is non-real
    for bad in ([[i, zero], [zero, i]], [[zero, i], [i, zero]]):
        with pytest.raises(IntegrabilityError, match="^J has a non-real entry$"):
            AlmostComplexStructure(pres, bad)
    manifest = {
        "name": "complex_endo",
        "dimension": 2,
        "basis": ["e1", "e2"],
        "differential": {},
        "endomorphisms": {"J": [["i", "0"], ["0", "i"]]},
        "checks": [{"id": "square", "kind": "endomorphism_square", "endo": "J"}],
    }
    outcome = run_check(Manifest(manifest)).outcomes[-1]
    assert (outcome.verdict, outcome.detail) == ("fail", {"reason": "J has a non-real entry"})


def test_square_is_compared_with_minus_identity_entry_by_entry():
    """A wrong diagonal and a wrong off-diagonal entry each fail; a square
    root of -Id with a free symbol in it passes."""
    from hermitia.scalars import Symbol, SymbolTable

    # the last squares to -Id but for the entries (1, 4) = -1 and (2, 3) = 1
    off = [[0, -1, 1, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    for bad in ([[0, 1], [1, 0]], [[1, 1], [-2, 1]], off):
        with pytest.raises(IntegrabilityError, match=r"^J\^2 != -Id$"):
            AlmostComplexStructure(abelian(len(bad)), bad)
    symbolic = abelian(2, table=SymbolTable([Symbol("b")]))
    J = AlmostComplexStructure(symbolic, [["0", "-b"], ["1/b", "0"]])
    assert J.matrix[0][1] == -symbolic.table.symbol("b")


def test_forms_over_two_coframes_do_not_mix():
    """The coframes of I, J and K on pseudoHK12 have the same structure
    equations; their forms are still different forms."""
    from hermitia.cealg import FormError

    ctx = builtin("pseudoHK12").build()
    mi, mj = ctx.acs("I").model(), ctx.acs("J").model()
    eta_i, eta_j = mi.generator(1), mj.generator(1)
    assert eta_i != eta_j
    with pytest.raises(FormError):
        eta_i + eta_j
    with pytest.raises(FormError):
        mi.to_real(eta_j)
    assert del_(eta_j, ctx.acs("I")) == del_(mj.to_real(eta_j), ctx.acs("I"))


def test_a_request_leaves_no_structure_or_model_to_the_cyclic_collector():
    """A model keeps no reference to its structure and is its own coframe
    presentation, so the structures, models and Nijenhuis reports of a
    ``run_check`` are freed by reference counting: with the collector off,
    a collection after the runs finds none of them."""
    import gc

    from hermitia.builders import BUILTIN_NAMES
    from hermitia.complexops import NijenhuisReport
    from hermitia.manifest import run_check

    manifests = [builtin(name) for name in BUILTIN_NAMES]
    for manifest in manifests:  # warm up: parse caches and lazy imports
        run_check(manifest)
    enabled, debug, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for manifest in manifests:
            assert run_check(manifest).overall == "pass"
        gc.collect()
        kinds = {type(o) for o in gc.garbage[start:]}
    finally:
        gc.set_debug(debug)
        del gc.garbage[start:]
        if enabled:
            gc.enable()
    left = kinds & {ComplexModel, AlmostComplexStructure, NijenhuisReport}
    assert not left, left
