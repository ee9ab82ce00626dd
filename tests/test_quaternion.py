"""Hypercomplex triples, HKT and quaternionic balanced conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_hk12
from hermitia.cealg import FormError, abelian
from hermitia.complexops import AlmostComplexStructure, bidegree
from hermitia.quaternion import (
    HKTCandidate,
    HypercomplexTriple,
    QuaternionError,
    check_hkt,
    check_hypercomplex,
    check_pseudo_hyperkahler,
    check_quaternionic_balanced,
    del_primitive,
    hkt_obstruction,
)
from hermitia.scalars import Symbol, SymbolTable


@pytest.fixture(scope="module")
def hk12_triple():
    p = make_hk12()
    I = AlmostComplexStructure.from_action(
        p, {"f1": "f3", "f2": "f4", "f5": "-f7", "f6": "-f8", "f9": "f10", "f11": "-f12"},
        name="I",
    )
    J = AlmostComplexStructure.from_action(
        p, {"f1": "f5", "f2": "f6", "f3": "f7", "f4": "f8", "f9": "f11", "f10": "f12"},
        name="J",
    )
    return HypercomplexTriple.from_ij(I, J)


@pytest.fixture(scope="module")
def flat8_triple():
    a8 = abelian(8)
    I = AlmostComplexStructure.from_action(a8, {1: "e3", 2: "e4", 5: "-e7", 6: "-e8"}, name="I")
    J = AlmostComplexStructure.from_action(a8, {1: "-e5", 2: "-e6", 3: "-e7", 4: "-e8"}, name="J")
    return HypercomplexTriple.from_ij(I, J)


def test_hypercomplex_pass(hk12_triple, flat8_triple):
    assert check_hypercomplex(hk12_triple).passed
    assert check_hypercomplex(flat8_triple).passed


def test_hypercomplex_fails_with_flipped_k(flat8_triple):
    p = flat8_triple.presentation
    neg_k = tuple(tuple(-x for x in row) for row in flat8_triple.K.matrix)
    bad = HypercomplexTriple(
        flat8_triple.I, flat8_triple.J, AlmostComplexStructure(p, neg_k, name="K")
    )
    rep = check_hypercomplex(bad)
    assert not rep.passed
    names = [c.name for c in rep.failed_checks()]
    assert "IJ = K" in names and "JI = -K" in names


def test_pseudo_hyperkahler_hk12(hk12_triple):
    p = hk12_triple.presentation
    wI = p.form([(-2, (1, 2)), (-2, (3, 4)), (2, (5, 6)), (2, (7, 8)), (2, (9, 10)), (-2, (11, 12))])
    wJ = p.form([(2, (1, 8)), (2, (4, 5)), (-2, (2, 7)), (-2, (3, 6)), (2, (9, 11)), (2, (10, 12))])
    wK = p.form([(2, (1, 6)), (-2, (4, 7)), (-2, (2, 5)), (2, (3, 8)), (-2, (9, 12)), (2, (10, 11))])
    assert check_pseudo_hyperkahler(hk12_triple, wI, wJ, wK).passed
    # f1 ^ f10 is not closed (d(f1^f10) = f1^f9^f10), breaking closedness
    rep = check_pseudo_hyperkahler(hk12_triple, wI + p.form([(1, (1, 10))]), wJ, wK)
    assert not rep.passed
    assert any("d omega_I" in c.name for c in rep.failed_checks())
    # f1 ^ f9 happens to be closed but is not of type (1,1) for I
    rep2 = check_pseudo_hyperkahler(hk12_triple, wI + p.form([(1, (1, 9))]), wJ, wK)
    assert not rep2.passed
    assert any("real (1,1)" in c.name for c in rep2.failed_checks())


def test_flat_hyperkahler_abelian4():
    a4 = abelian(4)
    I = AlmostComplexStructure.from_action(a4, {1: "e2", 3: "e4"}, name="I")
    J = AlmostComplexStructure.from_action(a4, {1: "e3", 2: "-e4"}, name="J")
    t = HypercomplexTriple.from_ij(I, J)
    assert check_hypercomplex(t).passed
    wI = a4.form([(1, (1, 2)), (1, (3, 4))])
    wJ = a4.form([(1, (1, 3)), (-1, (2, 4))])
    wK = a4.form([(1, (1, 4)), (1, (2, 3))])
    rep = check_pseudo_hyperkahler(t, wI, wJ, wK)
    assert rep.passed, [c.name for c in rep.failed_checks()]


def test_hkt_candidate_decomposition(hk12_triple):
    m = hk12_triple.I.model()
    omega = m.to_real(m.eta_monomial((1, 3)) + m.eta_monomial((2, 4)) + m.eta_monomial((5, 6)))
    cand = HKTCandidate(hk12_triple, omega)
    assert cand.frame == [1, 2, 5]
    table = hk12_triple.presentation.table
    assert all(
        (cand.coefficients[r][s] - (table.one if r == s else table.zero)).is_zero()
        for r in range(3)
        for s in range(3)
    )


def test_hk12_quaternionic_balanced_but_not_hkt(hk12_triple):
    m = hk12_triple.I.model()
    omega = m.to_real(m.eta_monomial((1, 3)) + m.eta_monomial((2, 4)) + m.eta_monomial((5, 6)))
    cand = HKTCandidate(hk12_triple, omega)
    assert check_quaternionic_balanced(cand).passed
    rep = check_hkt(cand)
    assert not rep.passed
    failed = [c.name for c in rep.failed_checks()]
    assert failed == ["del Omega = 0"]  # positivity and symmetry hold


def test_flat8_hkt_and_balanced(flat8_triple):
    p = flat8_triple.presentation
    table = p.table
    # fundamental forms of the flat metric: omega_X(u, v) = <X u, v>
    from hermitia.complexops import fundamental_form

    g = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    omega_j = fundamental_form(flat8_triple.J, g)
    omega_k = fundamental_form(flat8_triple.K, g)
    omega = omega_j + table.i * omega_k
    assert bidegree(omega, flat8_triple.I).is_pure(2, 0)
    cand = HKTCandidate(flat8_triple, omega)
    assert check_hkt(cand).passed
    assert check_quaternionic_balanced(cand).passed


def _hk12_candidate(a11):
    """The standard HKT form of pseudoHK12 with first coefficient ``a11`` (a
    number, or a name that becomes a symbol of the table)."""
    sym_table = SymbolTable([Symbol(a11)] if isinstance(a11, str) else [])
    p = make_hk12(table=sym_table)
    I = AlmostComplexStructure.from_action(
        p, {"f1": "f3", "f2": "f4", "f5": "-f7", "f6": "-f8", "f9": "f10", "f11": "-f12"},
        name="I",
    )
    J = AlmostComplexStructure.from_action(
        p, {"f1": "f5", "f2": "f6", "f3": "f7", "f4": "f8", "f9": "f11", "f10": "f12"},
        name="J",
    )
    t = HypercomplexTriple.from_ij(I, J)
    m = I.model()
    coeff = sym_table.symbol(a11) if isinstance(a11, str) else sym_table.scalar(a11)
    omega = m.to_real(coeff * m.eta_monomial((1, 3)) + m.eta_monomial((2, 4)) + m.eta_monomial((5, 6)))
    return HKTCandidate(t, omega)


def test_hkt_positivity_fails_at_negative_valuation():
    # same shape as the standard form but with a symbolic first coefficient
    cand = _hk12_candidate("a11")
    rep_neg = check_hkt(cand, valuation={"a11": -1.0})
    names = [c.name for c in rep_neg.failed_checks()]
    assert "coefficient matrix positive definite" in names


@pytest.mark.parametrize(
    "a11, valuation, passed, detail",
    [
        (1, None, True, "signature (3, 0, 0)"),
        (-2, None, False, "signature (2, 1, 0)"),
        ("a11", {"a11": 0.5}, True, "signature (3, 0, 0)"),
        ("a11", {"a11": -1 / 3}, False, "signature (2, 1, 0)"),
        ("a11", None, False, "matrix has symbols and no valuation was supplied"),
    ],
)
def test_hkt_positivity_detail_is_pinned(a11, valuation, passed, detail):
    """The positivity subcheck's detail, byte for byte: the exact signature
    of a symbol-free matrix and of a symbolic one at a valuation, and the
    refusal without one."""
    rep = check_hkt(_hk12_candidate(a11), valuation=valuation)
    (sub,) = [c for c in rep.checks if c.name == "coefficient matrix positive definite"]
    assert (sub.passed, sub.detail) == (passed, detail)


def test_del_primitive_examples(hk12_triple):
    m = hk12_triple.I.model()
    I = hk12_triple.I
    for etas in ((1, 3, 5, 6), (2, 4, 5, 6)):
        form = m.to_real(m.eta_monomial(etas))
        rep = del_primitive(form, I)
        assert rep.exists
        from hermitia.complexops import del_

        assert (del_(rep.primitive, I) - form).is_zero()
    # a (4,0)-form that is closed but NOT exact: eta_{1,2,3,4} has del = 0
    closed = m.to_real(m.eta_monomial((1, 2, 3, 4)))
    from hermitia.complexops import del_

    assert del_(closed, I).is_zero()
    rep = del_primitive(closed, I)
    assert not rep.exists


def test_del_primitive_in_coframe_matches_real_basis(hk12_triple):
    m = hk12_triple.I.model()
    I = hk12_triple.I
    cform = m.eta_monomial((1, 3, 5, 6))
    native = del_primitive(cform, I)
    assert native.exists and native.primitive.presentation is m.cpres
    assert m.to_real(native.primitive) == del_primitive(m.to_real(cform), I).primitive
    assert not del_primitive(m.eta_monomial((1, 2, 3, 4)), I).exists


def test_obstruction_pairing(hk12_triple):
    syms = [Symbol(n) for n in ("a11", "a22", "a55", "x12", "y12", "x15", "y15", "x25", "y25")]
    table_s = SymbolTable(syms)
    p = make_hk12(table=table_s)
    I = AlmostComplexStructure.from_action(
        p, {"f1": "f3", "f2": "f4", "f5": "-f7", "f6": "-f8", "f9": "f10", "f11": "-f12"},
        name="I",
    )
    J = AlmostComplexStructure.from_action(
        p, {"f1": "f5", "f2": "f6", "f3": "f7", "f4": "f8", "f9": "f11", "f10": "f12"},
        name="J",
    )
    t = HypercomplexTriple.from_ij(I, J)
    m = I.model()
    alpha = -(m.to_real(m.eta_monomial((1, 3, 5, 6))) + m.to_real(m.eta_monomial((2, 4, 5, 6))))
    beta = m.to_real(m.eta_monomial((1, 2, 3, 4, 5, 6)))
    a = [
        ["a11", "x12+i*y12", "x15+i*y15"],
        ["x12-i*y12", "a22", "x25+i*y25"],
        ["x15-i*y15", "x25-i*y25", "a55"],
    ]
    value = hkt_obstruction(t, alpha, beta, a)
    assert value == table_s.parse("a11+a22")

    # zero alpha gives zero
    zero_alpha = alpha - alpha
    value0 = hkt_obstruction(t, zero_alpha, beta, a)
    assert value0.is_zero()

    # linearity in the matrix
    a_scaled = [["2*a11", "2*x12+2*i*y12", "2*x15+2*i*y15"],
                ["2*x12-2*i*y12", "2*a22", "2*x25+2*i*y25"],
                ["2*x15-2*i*y15", "2*x25-2*i*y25", "2*a55"]]
    assert hkt_obstruction(t, alpha, beta, a_scaled) == table_s.parse("2*a11+2*a22")

    # non-Hermitian matrices are rejected
    bad = [["a11", "x12", "0"], ["x12+i*y12", "a22", "0"], ["0", "0", "a55"]]
    with pytest.raises(QuaternionError):
        hkt_obstruction(t, alpha, beta, bad)

    # non-exact alpha is rejected
    closed_alpha = m.to_real(m.eta_monomial((1, 2, 3, 4)))
    with pytest.raises(QuaternionError):
        hkt_obstruction(t, closed_alpha, beta, a)


def test_hkt_implies_quaternionic_balanced(flat8_triple):
    from hermitia.complexops import fundamental_form

    g = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    omega = fundamental_form(flat8_triple.J, g) + flat8_triple.presentation.table.i * fundamental_form(
        flat8_triple.K, g
    )
    cand = HKTCandidate(flat8_triple, omega)
    if check_hkt(cand).passed:
        assert check_quaternionic_balanced(cand).passed


def _real_basis_pairing(t, alpha, beta, rows):
    """The pairing evaluated in the real basis, as it was before it moved to
    the coframe: Omega~ ^ alpha ^ conj(beta) against beta ^ conj(beta)."""
    from hermitia.cealg import Form, top_coefficient, wedge
    from hermitia.quaternion import _half_frame

    model = t.I.model()
    frame = _half_frame(t)[0]
    jbars = {s: t.J.apply_to_one_form(model.eta(s).conjugate()) for s in frame}
    omega_t = Form.zero(t.presentation)
    for r, fr in enumerate(frame):
        for s, fs in enumerate(frame):
            omega_t = omega_t + rows[r][s] * wedge(model.eta(fr), jbars[fs])
    vol = wedge(beta, beta.conjugate())
    return top_coefficient(wedge(wedge(omega_t, alpha), beta.conjugate()), vol)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_obstruction_pairing_same_in_coframe_and_real_basis(hk12_triple, data):
    """Random Hermitian matrices and both signs of alpha: the pairing from
    coframe inputs, from real inputs and from a real-basis evaluation agree,
    and it is -sign * (a11 + a22)."""
    t = hk12_triple
    m = t.I.model()
    table = t.presentation.table
    gauss = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    rows = [[None] * 3 for _ in range(3)]
    for r in range(3):
        rows[r][r] = table.scalar(data.draw(st.integers(-3, 3)))
        for s in range(r + 1, 3):
            x, y = data.draw(gauss)
            rows[r][s] = table.scalar(x) + table.scalar(y) * table.i
            rows[s][r] = rows[r][s].conjugate()
    sign = data.draw(st.sampled_from([1, -1]))
    alpha_c = table.scalar(sign) * (m.eta_monomial((1, 3, 5, 6)) + m.eta_monomial((2, 4, 5, 6)))
    beta_c = m.eta_monomial((1, 2, 3, 4, 5, 6))
    alpha, beta = m.to_real(alpha_c), m.to_real(beta_c)
    value = hkt_obstruction(t, alpha_c, beta_c, rows)
    assert value == table.scalar(-sign) * (rows[0][0] + rows[1][1])
    assert hkt_obstruction(t, alpha, beta, rows) == value
    assert hkt_obstruction(t, alpha_c, beta, rows) == value
    assert _real_basis_pairing(t, alpha, beta, rows) == value


def test_obstruction_pairing_rejects_bad_coframe_inputs(hk12_triple):
    t = hk12_triple
    m = t.I.model()
    a = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    alpha_c = m.eta_monomial((1, 3, 5, 6))
    beta_c = m.eta_monomial((1, 2, 3, 4, 5, 6))
    with pytest.raises(FormError, match=r"alpha must be a \(4,0\)-form"):
        hkt_obstruction(t, m.eta_monomial((1, 3, 5), (6,)), beta_c, a)
    with pytest.raises(FormError, match=r"beta must be a \(6,0\)-form"):
        hkt_obstruction(t, alpha_c, m.eta_monomial((1, 2, 3, 4, 5), (6,)), a)
    with pytest.raises(QuaternionError, match="not del-exact"):
        hkt_obstruction(t, m.eta_monomial((1, 2, 3, 4)), beta_c, a)


def _greedy_half_frame(t):
    """Reference half frame in the real basis: eta_r is taken iff it raises
    the rank of the rows eta_s, J(conj(eta_s)) taken before it, until m/2
    are taken."""
    from hermitia import linear

    model = t.I.model()
    n = t.presentation.dim

    def row(form):
        return [form.coefficient((s,)) for s in range(1, n + 1)]

    chosen, frame = [], []
    for r in range(1, model.m + 1):
        eta = model.eta(r)
        if len(frame) < model.m // 2 and (
            linear.rank(chosen + [row(eta)]) > linear.rank(chosen)
        ):
            frame.append(r)
            chosen += [row(eta), row(t.J.apply_to_one_form(eta.conjugate()))]
    return frame


def _lemma61_triple():
    from hermitia.builders import builtin

    pres = builtin("lemma61").build().presentation
    I, J = (AlmostComplexStructure(pres, pres.endomorphisms[s], name=s) for s in "IJ")
    return HypercomplexTriple.from_ij(I, J)


def _commuting_pair():
    """I paired with itself: J o conj maps (1,0) forms to (0,1) forms, so
    every eta_r starts a pair and only the first m/2 are the frame."""
    a8 = abelian(8)
    I = AlmostComplexStructure.from_action(a8, {1: "e3", 2: "e4", 5: "-e7", 6: "-e8"}, name="I")
    return HypercomplexTriple(I, I, I)


@pytest.mark.parametrize("which", ["pseudoHK12", "lemma61", "commuting"])
def test_half_frame_is_greedy(which, hk12_triple):
    from hermitia.quaternion import _half_frame

    t = {"pseudoHK12": lambda: hk12_triple, "lemma61": _lemma61_triple,
         "commuting": _commuting_pair}[which]()
    frame = _half_frame(t)[0]
    assert len(frame) == t.I.model().m // 2
    assert frame == _greedy_half_frame(t)


def test_pseudo_hk12_run_check_builds_each_half_frame_once(monkeypatch):
    from collections import Counter

    from hermitia import quaternion
    from hermitia.builders import builtin
    from hermitia.manifest import run_check

    calls = Counter()
    original = quaternion._half_frame

    def counting(t):
        calls[id(t)] += 1
        return original(t)

    monkeypatch.setattr(quaternion, "_half_frame", counting)
    assert run_check(builtin("pseudoHK12")).overall == "pass"
    assert calls and set(calls.values()) == {1}
