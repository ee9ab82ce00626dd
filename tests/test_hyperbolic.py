"""Quadratic lattices, the isometry trichotomy, invariant classes, power
iteration, exact characteristic polynomials and Sturm machinery."""

import hashlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import fraction_rows, is_zero_matrix, mat_mul, perfbench, poly_mul
from hermitia.hyperbolic import (
    Classification,
    LatticeError,
    PowerIterationError,
    QuadraticLattice,
    _cyclotomic,
    _cyclotomic_free,
    _eigenvector_coordinates,
    _exact,
    _int_poly,
    _min_poly_factor_for_interval,
    _quad_q_value,
    cauchy_bound,
    char_poly,
    classify,
    count_roots_halfopen,
    invariant_classes,
    isolate_real_roots,
    kernel_basis,
    poly_eval_matrix,
    power_iterate,
    real_roots_outside_unit,
    refine_interval,
    sign_variations,
    spectral_radius_interval,
    squarefree_part,
    sturm_chain,
    verify_isometry,
)

PELL = [[3, 4], [2, 3]]
DIAG12 = [[1, 0], [0, -2]]


def poly_eval(p, x):
    """p(x) by Horner's rule, for a coefficient list p, constant term first."""
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


@pytest.fixture(scope="module")
def lorentz2():
    return QuadraticLattice(DIAG12)


def test_verify_isometry_examples(lorentz2):
    assert verify_isometry(PELL, lorentz2).ok
    hyper = QuadraticLattice([[0, 1], [1, 0]])
    chk = verify_isometry([[2, 1], [1, 1]], hyper)
    assert not chk.ok
    # M^T G M = [[4,3],[3,2]], so the residual subtracts G
    assert chk.residual == ((Fraction(4), Fraction(2)), (Fraction(2), Fraction(2)))
    assert verify_isometry([[1, 0], [0, 1]], lorentz2).ok
    with pytest.raises(LatticeError):
        verify_isometry([[1, 0, 0], [0, 1, 0], [0, 0, 1]], lorentz2)


def test_signature_examples():
    assert QuadraticLattice(DIAG12).signature == (1, 1, 0)
    assert QuadraticLattice([[0, 0, "1/2"], [0, -1, 0], ["1/2", 0, 0]]).signature == (1, 2, 0)
    assert QuadraticLattice([[0, 0], [0, 0]]).signature == (0, 0, 2)
    assert QuadraticLattice([[2]]).signature == (1, 0, 0)


def test_char_poly_examples():
    assert char_poly([[1, 0], [0, 1]]) == [Fraction(1), Fraction(-2), Fraction(1)]
    assert char_poly(PELL) == [Fraction(1), Fraction(-6), Fraction(1)]


def test_char_poly_matches_sympy_randomized():
    rng = random.Random(41)
    x = sympy.Symbol("x")
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        ours = char_poly(m)
        theirs = sympy.Matrix(m).charpoly(x).all_coeffs()  # descending
        assert [int(c) for c in reversed(ours)] == [int(c) for c in theirs]


def test_sturm_root_counting():
    # (t^2 - 2)(t - 3): roots -sqrt2, sqrt2, 3
    p = poly_mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-3), Fraction(1)])
    chain = sturm_chain(p)
    assert count_roots_halfopen(chain, Fraction(0), Fraction(10)) == 2
    assert count_roots_halfopen(chain, Fraction(-10), Fraction(0)) == 1
    ivs = isolate_real_roots(chain, Fraction(-10), Fraction(10))
    assert len(ivs) == 3
    for a, b in ivs:
        a2, b2 = refine_interval(chain, a, b)
        assert b2 - a2 < Fraction(1, 10**12)
        assert poly_eval(p, a2) * poly_eval(p, b2) <= 0


def test_refine_interval_requires_exactly_one_root():
    # (t^2 - 2)(t - 3): (2, 2.5] holds no root, (0, 10] holds sqrt2 and 3
    p = poly_mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-3), Fraction(1)])
    with pytest.raises(LatticeError, match="holds 0 roots"):
        refine_interval(sturm_chain(p), Fraction(2), Fraction(5, 2))
    with pytest.raises(LatticeError, match="holds 2 roots"):
        refine_interval(sturm_chain(p), Fraction(0), Fraction(10))


def test_classify_pell_hyperbolic(lorentz2):
    res = classify(PELL, lorentz2)
    assert res.label == "hyperbolic"
    a, b = res.certificate["lambda_interval"]
    lam = 3 + 2 * math.sqrt(2)
    assert float(a) < lam < float(b)
    assert b - a < Fraction(1, 10**12)
    assert Fraction("5.8") < a and b < Fraction("5.9")
    assert res.certificate["min_poly_degree"] == 2
    # exact eigenvector over the quadratic field with q-value zero
    assert res.certificate["q_value"] == (Fraction(0), Fraction(0))


def test_classify_negated_pell_hyperbolic(lorentz2):
    """-PELL has the eigenvalue -3 - 2 sqrt 2 below -1, and -1 is no
    eigenvalue: its isolating interval (a, -1] must be kept."""
    neg = [[-3, -4], [-2, -3]]
    res = classify(neg, lorentz2)
    assert res.label == "hyperbolic"
    a, b = res.certificate["lambda_interval"]
    assert float(a) < -3 - 2 * math.sqrt(2) < float(b)
    assert b - a < Fraction(1, 10**12)
    assert Fraction("-5.9") < a and b < Fraction("-5.8")
    assert res.certificate["eigenvector_field"] == "quadratic: x^2 = -6*x + -1"
    assert res.certificate["q_value"] == (Fraction(0), Fraction(0))
    assert float(a) - 1e-9 <= power_iterate(neg, lorentz2).lam <= float(b) + 1e-9


def test_interval_at_minus_one_dropped_only_for_the_root_minus_one():
    # (t^2 + 6 t + 1)(t + 1): -1 is a root on the unit circle, -3 - 2 sqrt 2 is not
    p = poly_mul([Fraction(1), Fraction(6), Fraction(1)], [Fraction(1), Fraction(1)])
    (a, b), = real_roots_outside_unit(p, sturm_chain(p))
    assert a < -3 - 2 * math.sqrt(2) < b < -1
    # t^2 + 6 t + 1 alone: its root below -1 is isolated in (a, -1]
    p = [Fraction(1), Fraction(6), Fraction(1)]
    (a, b), = real_roots_outside_unit(p, sturm_chain(p))
    assert b == -1 and a < -3 - 2 * math.sqrt(2)
    # (t + 1)^2 (t - 1): no root off the unit circle
    p = poly_mul(poly_mul([Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]),
                 [Fraction(-1), Fraction(1)])
    assert real_roots_outside_unit(p, sturm_chain(p)) == []


def test_classify_identity_elliptic(lorentz2):
    res = classify([[1, 0], [0, 1]], lorentz2)
    assert res.label == "elliptic"


def test_classify_rotation_elliptic():
    # an isometry of diag(1, -1, -1): rotation in the negative plane
    lat = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    rot = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    assert classify(rot, lat).label == "elliptic"


def test_classify_parabolic():
    lat = QuadraticLattice([[0, 0, "1/2"], [0, -1, 0], ["1/2", 0, 0]])
    m = [[1, 0, 0], [1, 1, 0], [1, 2, 1]]
    res = classify(m, lat)
    assert res.label == "parabolic"
    assert res.certificate["eigenvalue_one_space"] == [["0", "0", "1"]]
    assert res.certificate["eigenvalue_one_q_values"] == ["0"]


def test_classify_rejects_wrong_signature():
    lat = QuadraticLattice([[1, 0], [0, 1]])
    with pytest.raises(LatticeError):
        classify([[0, -1], [1, 0]], lat)


def test_classify_rejects_non_isometry(lorentz2):
    with pytest.raises(LatticeError):
        classify([[1, 1], [0, 1]], lorentz2)


def test_classify_transpose_inverse_same_label(lorentz2):
    # the inverse isometry has the same type (lambda pairs with 1/lambda)
    cases = [PELL, [[1, 0], [0, 1]], [[3, -4], [-2, 3]], [[-1, 0], [0, -1]]]
    for m in cases:
        inv = _inverse_2x2(m)
        assert classify(m, lorentz2).label == classify(inv, lorentz2).label


def _inverse_2x2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    assert det in (1, -1)
    return [[d // det, -b // det], [-c // det, a // det]]


def test_trichotomy_exclusive_on_random_words(lorentz2):
    """Each generated isometry carries exactly one label, certified by the
    mutually exclusive branch predicates."""
    from hermitia.hyperbolic import (
        poly_eval_matrix,
        real_roots_outside_unit,
        squarefree_part,
        sturm_chain,
    )

    rng = random.Random(42)
    pell = fraction_rows(PELL)
    pell_inv = fraction_rows([[3, -4], [-2, 3]])
    refl = fraction_rows([[1, 0], [0, -1]])
    neg = fraction_rows([[-1, 0], [0, -1]])
    gens = [pell, pell_inv, refl, neg]
    labels = {"hyperbolic": 0, "elliptic": 0, "parabolic": 0}
    for _ in range(100):
        word_len = rng.randint(1, 6)
        m = fraction_rows([[1, 0], [0, 1]])
        for _k in range(word_len):
            m = mat_mul(m, gens[rng.randrange(4)])
        assert verify_isometry(m, lorentz2).ok
        res = classify(m, lorentz2)
        labels[res.label] += 1
        # independent exclusivity audit
        p = char_poly(m)
        has_off_unit = bool(real_roots_outside_unit(p, sturm_chain(p)))
        r, _g = squarefree_part(p)
        diagonalizable = is_zero_matrix(poly_eval_matrix(r, m))
        if res.label == "hyperbolic":
            assert has_off_unit
        elif res.label == "elliptic":
            assert not has_off_unit and diagonalizable
        else:
            assert not has_off_unit and not diagonalizable
    assert labels["hyperbolic"] > 0 and labels["elliptic"] > 0


def test_invariant_classes_examples(lorentz2):
    lat3 = QuadraticLattice([[1, 0, 0], [0, -2, 0], [0, 0, -5]])
    m3 = [[3, 4, 0], [2, 3, 0], [0, 0, 1]]
    rep = invariant_classes(m3, lat3)
    assert rep.label == "hyperbolic"
    assert rep.kernel == [(Fraction(0), Fraction(0), Fraction(1))]
    assert rep.q_values == [Fraction(-5)]
    assert rep.negativity_verified
    assert rep.invariant_positive_class_possible is False

    rep_id = invariant_classes([[1, 0], [0, 1]], lorentz2)
    assert rep_id.label == "elliptic"
    assert len(rep_id.kernel) == 2
    assert rep_id.negativity_verified is None  # lemma check skipped

    rep_pell = invariant_classes(PELL, lorentz2)
    assert rep_pell.kernel == []
    assert rep_pell.negativity_verified


def test_invariant_classes_randomized_negativity():
    rng = random.Random(43)
    pell = fraction_rows(PELL)
    pell_inv = fraction_rows([[3, -4], [-2, 3]])
    for _ in range(50):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        lat = QuadraticLattice([[1, 0, 0], [0, -2, 0], [0, 0, -c]])
        word = fraction_rows([[1, 0], [0, 1]])
        for _k in range(rng.randint(1, 4)):
            word = mat_mul(word, pell if rng.random() < 0.7 else pell_inv)
        if word == ((1, 0), (0, 1)):
            word = pell
        m = [
            [word[0][0], word[0][1], 0],
            [word[1][0], word[1][1], 0],
            [0, 0, 1],
        ]
        rep = invariant_classes(m, lat)
        assert rep.label == "hyperbolic"
        assert rep.negativity_verified
        assert all(q < 0 for q in rep.q_values)


def test_kernel_basis_integer_cleared():
    basis = kernel_basis(((Fraction(2), Fraction(-1)), (Fraction(4), Fraction(-2))))
    assert basis == [(Fraction(1), Fraction(2))]


def test_power_iterate_pell(lorentz2):
    res = power_iterate(PELL, lorentz2, seed_vector=[1, 0], tol=1e-10, max_iters=200)
    lam = 3 + 2 * math.sqrt(2)
    assert abs(res.lam - lam) < 1e-9
    assert res.residuals[-1] < 1e-10
    assert abs(res.q_value) < 1e-9
    v = np.array(res.eta)
    expected = np.array([math.sqrt(2), 1.0])
    expected /= np.linalg.norm(expected)
    assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-8


def test_power_iterate_identity_fails(lorentz2):
    with pytest.raises(PowerIterationError) as err:
        power_iterate([[1, 0], [0, 1]], lorentz2)
    assert "no dominant eigenvalue" in str(err.value)


def test_power_iterate_contracting_seed_recovers(lorentz2):
    # a seed very near the contracting eigenvector still converges (floating
    # point noise plus the deterministic perturbation fallback)
    res = power_iterate(PELL, lorentz2, seed_vector=["-577/408", 1], tol=1e-10, max_iters=300)
    assert abs(res.lam - (3 + 2 * math.sqrt(2))) < 1e-9


def test_power_iterate_exact_contracting_seed_perturbs():
    # when the contracting eigenvector is exactly representable, the run
    # would converge to the wrong eigenpair; one deterministic perturbation
    # redirects it to the dominant one
    lat = QuadraticLattice([[0, 1], [1, 0]])
    m = [["2", 0], [0, "1/2"]]
    assert classify(m, lat).label == "hyperbolic"
    res = power_iterate(m, lat, seed_vector=[0, 1], tol=1e-12, max_iters=200)
    assert abs(res.lam - 2.0) < 1e-9
    assert abs(res.eta[1]) < 1e-6


def test_power_iterate_agrees_with_sturm(lorentz2):
    res = power_iterate(PELL, lorentz2, seed_vector=[1, 0], tol=1e-12, max_iters=300)
    cl = classify(PELL, lorentz2)
    a, b = cl.certificate["lambda_interval"]
    assert float(a) - 1e-9 <= res.lam <= float(b) + 1e-9


def test_spectral_radius_interval_examples():
    A = [
        [1, 0, 1, 0, -1, -1, 0, 1],
        [0, -1, 0, -1, -1, 0, 1, 1],
        [-1, 0, 1, 0, 0, 1, 1, 1],
        [0, 1, 0, -1, 1, 1, 1, 0],
        [1, 1, 0, -1, 1, 0, 1, 0],
        [1, 0, -1, -1, 0, -1, 0, -1],
        [0, -1, -1, -1, -1, 0, 1, 0],
        [-1, -1, -1, 0, 0, 1, 0, -1],
    ]
    lo, hi = spectral_radius_interval(A)
    root = 1 + math.sqrt(2)
    assert float(lo) <= root <= float(hi)
    assert Fraction("2.41421356") < lo and hi < Fraction("2.41421357")
    lo2, hi2 = spectral_radius_interval(PELL)
    assert float(lo2) <= 3 + 2 * math.sqrt(2) <= float(hi2)
    # M = Pell / 2 clears to A / d with d = 2, so M^2 = A^2 / 4
    lo3, hi3 = spectral_radius_interval([["3/2", 2], [1, "3/2"]])
    assert float(lo3) <= (3 + 2 * math.sqrt(2)) / 2 <= float(hi3)
    assert hi3 - lo3 < Fraction(1, 10**10)


def test_spectral_radius_interval_endpoints_pinned():
    """The exact endpoints of the examples above, so a change to the
    square-root bisection that moves either bound shows here."""
    a8 = [
        [1, 0, 1, 0, -1, -1, 0, 1],
        [0, -1, 0, -1, -1, 0, 1, 1],
        [-1, 0, 1, 0, 0, 1, 1, 1],
        [0, 1, 0, -1, 1, 1, 1, 0],
        [1, 1, 0, -1, 1, 0, 1, 0],
        [1, 0, -1, -1, 0, -1, 0, -1],
        [0, -1, -1, -1, -1, 0, 1, 0],
        [-1, -1, -1, 0, 0, 1, 0, -1],
    ]
    expected = [
        (a8, "22801602418694809727619/9444732965739290427392",
         "1566914186987265643945869477399933/649037107316853453566312041152512"),
        (PELL, "440383502426830153778475/75557863725914323419136",
         "484206781601146428365267025280563925/83076749736557242056487941267521536"),
        ([["3/2", 2], [1, "3/2"]], "220191751213426867287447/75557863725914323419136",
         "30262923850361868791291357393472105/10384593717069655257060992658440192"),
    ]
    for m, lo, hi in expected:
        assert spectral_radius_interval(m) == (Fraction(lo), Fraction(hi))


def test_char_poly_block_product_audit():
    rng = random.Random(44)
    for _ in range(30):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n1)]
        b = [[rng.randint(-3, 3) for _ in range(n2)] for _ in range(n2)]
        block = [
            [
                a[i][j] if i < n1 and j < n1 else (b[i - n1][j - n1] if i >= n1 and j >= n1 else 0)
                for j in range(n1 + n2)
            ]
            for i in range(n1 + n2)
        ]
        assert char_poly(block) == poly_mul(char_poly(a), char_poly(b))


def test_hyperbolic_reciprocal_pair_structure(lorentz2):
    # the off-circle eigenvalues of a hyperbolic isometry are real, positive
    # for orientation-preserving words, and reciprocal: lambda * mu = 1
    res = classify(PELL, lorentz2)
    a, b = res.certificate["lambda_interval"]
    p = char_poly(PELL)
    # p is monic and palindromic here: constant term 1 means product of roots is 1
    assert p[0] == 1 and p[-1] == 1
    assert float(a) > 1


# -- rational inputs: the integer kernels against Fraction references ---------

PROPERTY = settings(max_examples=60, deadline=None)
small = st.integers(-5, 5)
rationals = st.builds(Fraction, small, st.integers(1, 6))
ISO_2 = [[1, 0], [0, 1]]
ROT_3 = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
LORENTZ_3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
PARABOLIC_GRAM = [[0, 0, "1/2"], [0, -1, 0], ["1/2", 0, 0]]
PARABOLIC = [[1, 0, 0], [1, 1, 0], [1, 2, 1]]
# signature (2, 1, 0), with an eigenvalue 3 + 2 sqrt 2 that classify must
# still refuse to call hyperbolic
SIGNATURE_21 = [[1, 0, 0], [0, -2, 0], [0, 0, 1]]
PELL_3 = [[3, 4, 0], [2, 3, 0], [0, 0, 1]]
# (gram, isometry) pairs: hyperbolic, elliptic, elliptic, parabolic, and
# isometries of a definite and of a signature (2, 1) form, which classify refuses
ISOMETRIES = [
    (DIAG12, PELL),
    (DIAG12, ISO_2),
    (LORENTZ_3, ROT_3),
    (PARABOLIC_GRAM, PARABOLIC),
    (ISO_2, [[0, -1], [1, 0]]),
    (SIGNATURE_21, PELL_3),
]


def square(elements, max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def _fmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ftranspose(a):
    return [list(col) for col in zip(*a)]


@st.composite
def conjugated_isometries(draw):
    """A pair (G', M') = (P^T G P, P^-1 M P) for a base pair (G, M) and a
    random invertible rational P: M' is an isometry of G' of the same kind,
    with denominators in both."""
    gram, m = draw(st.sampled_from(ISOMETRIES))
    n = len(m)
    p = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    sp = sympy.Matrix(p)
    assume(sp.det() != 0)
    p_inv = [[Fraction(int(x.p), int(x.q)) for x in sp.inv().row(i)] for i in range(n)]
    g2 = _fmul(_fmul(_ftranspose(p), fraction_rows(gram)), p)
    m2 = _fmul(_fmul(p_inv, fraction_rows(m)), p)
    return g2, m2


nonzero_rationals = st.builds(Fraction, st.integers(1, 5), st.integers(1, 6)) | st.builds(
    Fraction, st.integers(-5, -1), st.integers(1, 6))


@st.composite
def exact_matrices(draw, max_n=7):
    """Square matrices of ints or of rationals, dense or sparse: a sparse one
    is the identity with a few entries overwritten."""
    n = draw(st.integers(1, max_n))
    entry = draw(st.sampled_from((small, rationals)))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, x in draw(st.lists(st.tuples(index, index, entry), max_size=n)):
        m[i][j] = x
    return m


@st.composite
def sparse_isometries(draw):
    """(G, M) for a Lorentzian reflection product M, the identity outside a
    few coordinates, as it is or conjugated by a rational diagonal matrix,
    which gives it denominators (d > 1)."""
    n = draw(st.integers(3, 12))
    rng = random.Random(draw(st.integers(0, 10**9)))
    gram, m = lorentz_gram(n), reflection_product(rng, n, draw(st.integers(1, 5)))
    if draw(st.booleans()):
        diag = draw(st.lists(nonzero_rationals, min_size=n, max_size=n))
        gram, m = rational_conjugate(gram, m, diag)
    return gram, m


@st.composite
def symmetric_pairs(draw):
    """(G, M) for any exact M and a random symmetric G of its size: almost
    never an isometry, so the residual is read."""
    m = draw(exact_matrices())
    n = len(m)
    s = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    return [[s[i][j] + s[j][i] for j in range(n)] for i in range(n)], m


@PROPERTY
@given(m=square(rationals))
def test_char_poly_matches_sympy_on_rational_matrices(m):
    x = sympy.Symbol("x")
    theirs = sympy.Matrix(m).charpoly(x).all_coeffs()  # descending
    assert char_poly(m) == [Fraction(int(c.p), int(c.q)) for c in reversed(theirs)]


@settings(max_examples=150, deadline=None)
@given(pair=st.one_of(conjugated_isometries(), sparse_isometries(), symmetric_pairs()),
       bump=rationals, where=st.tuples(small, small))
def test_verify_isometry_matches_fraction_residual(pair, bump, where):
    """ok and the residual M^T G M - G against a dense Fraction product, on
    dense rational isometries, on sparse integer and rational ones, on any
    matrix for a random symmetric form, and on each with one entry bumped."""
    gram, m = pair
    n = len(m)
    if bump:
        m[where[0] % n][where[1] % n] += bump
    reference = [
        [x - y for x, y in zip(rl, rg)]
        for rl, rg in zip(_fmul(_fmul(_ftranspose(m), gram), m), gram)
    ]
    chk = verify_isometry(m, QuadraticLattice(gram))
    assert chk.ok == all(x == 0 for row in reference for x in row)
    if not chk.ok:
        assert chk.residual == tuple(tuple(row) for row in reference)


@settings(max_examples=150, deadline=None)
@given(p=st.lists(st.one_of(small, rationals), max_size=6),
       m=st.one_of(square(rationals, 4), exact_matrices()))
def test_poly_eval_matrix_matches_fraction_horner(p, m):
    """Dense rational matrices, and int or rational ones, dense or sparse."""
    n = len(m)
    m = fraction_rows(m)
    ref = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        ref = _fmul(ref, m)
        for i in range(n):
            ref[i][i] += c
    assert poly_eval_matrix(p, m) == tuple(tuple(row) for row in ref)


@PROPERTY
@given(
    roots=st.lists(rationals, max_size=4),
    rest=st.lists(rationals, min_size=1, max_size=4),
    a=rationals,
    b=rationals,
)
def test_sturm_count_matches_sympy(roots, rest, a, b):
    assume(rest[-1] != 0)
    a, b = min(a, b), max(a, b)
    # linear factors at random rationals and at the endpoints, some repeated
    p = list(rest)
    for r in roots + roots[:1] + [a, b][: len(roots) % 3]:
        p = poly_mul(p, [-r, Fraction(1)])
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
    lo, hi = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    expected = sum(1 for r in set(poly.real_roots()) if lo < r <= hi)
    assert count_roots_halfopen(sturm_chain(p), a, b) == expected


@PROPERTY
@given(pair=conjugated_isometries(), bump=rationals)
def test_power_iterate_refuses_like_classify(pair, bump):
    """power_iterate raises what it raised when it ran classify first: the
    classify refusal, or the label without a dominant eigenvalue; the same
    with classify's verdict remembered and without it."""
    from hermitia import hyperbolic

    gram, m = pair
    m[0][-1] += bump
    lattice = QuadraticLattice(gram)
    try:
        label = classify(m, lattice).label
    except LatticeError as e:
        error, message = LatticeError, str(e)
    else:
        if label == "hyperbolic":
            return
        error, message = PowerIterationError, f"no dominant eigenvalue: isometry is {label}"
    for _ in ("remembered", "cold"):
        with pytest.raises(error) as err:
            power_iterate(m, lattice)
        assert str(err.value) == message
        hyperbolic._VERDICTS.clear()


@pytest.mark.parametrize(
    "gram, m, error, message",
    [
        (DIAG12, ISO_2, PowerIterationError, "no dominant eigenvalue: isometry is elliptic"),
        (LORENTZ_3, ROT_3, PowerIterationError, "no dominant eigenvalue: isometry is elliptic"),
        (PARABOLIC_GRAM, PARABOLIC, PowerIterationError,
         "no dominant eigenvalue: isometry is parabolic"),
        (DIAG12, [[1, 1], [0, 1]], LatticeError, "matrix is not an isometry of the lattice"),
        (ISO_2, [[0, -1], [1, 0]], LatticeError,
         "classification requires signature (1, n, 0), got (2, 0, 0); refusing to guess"),
        (SIGNATURE_21, PELL_3, LatticeError,
         "classification requires signature (1, n, 0), got (2, 1, 0); refusing to guess"),
    ],
    ids=["elliptic-2", "elliptic-3", "parabolic", "non-isometry", "definite", "signature-2-1"],
)
def test_power_iterate_error_messages(gram, m, error, message):
    from hermitia import hyperbolic

    hyperbolic._VERDICTS.clear()
    with pytest.raises(error) as err:
        power_iterate(m, QuadraticLattice(gram))
    assert type(err.value) is error and str(err.value) == message


def test_classify_builds_one_sturm_chain_per_polynomial(monkeypatch):
    """One chain for the characteristic polynomial, shared by the off-unit
    test and the refinement, then one for the factor: an integral p is split
    without trying sympy's factors one by one."""
    from hermitia import hyperbolic

    built = []
    real = hyperbolic.sturm_chain

    def counting(p):
        built.append(list(p))
        return real(p)

    monkeypatch.setattr(hyperbolic, "sturm_chain", counting)
    # Pell isometry plus -1 on a third axis: (t^2 - 6t + 1)(t + 1)
    m = [[3, 4, 0], [2, 3, 0], [0, 0, -1]]
    res = classify(m, QuadraticLattice([[1, 0, 0], [0, -2, 0], [0, 0, -1]]))
    assert res.label == "hyperbolic"
    p = char_poly(m)
    assert built == [p, [Fraction(1), Fraction(-6), Fraction(1)]]


# -- Z[x]: remainder sequences, Q(lambda) triples, the integral factor --------


def _frac_rem(p, q):
    r = [Fraction(c) for c in p]
    while len(r) >= len(q) and r:
        f, k = r[-1] / q[-1], len(r) - len(q)
        for i, c in enumerate(q):
            r[k + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _frac_quo(p, q):
    r, quo = [Fraction(c) for c in p], [Fraction(0)] * (len(p) - len(q) + 1)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = f = r[k + len(q) - 1] / q[-1]
        for i, c in enumerate(q):
            r[k + i] -= f * c
    return quo


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def euclid_squarefree(p):
    """Reference over Q: g = gcd(p, p') monic by Euclid's algorithm, p / g."""
    a, b = list(p), _derivative(p)
    while b:
        a, b = b, _frac_rem(a, b)
    g = [c / a[-1] for c in a]
    return (list(p), [Fraction(1)]) if len(g) == 1 else (_frac_quo(p, g), g)


def euclid_sturm(p):
    """Reference Sturm chain of the squarefree part, over Q by Euclid."""
    p0, _ = euclid_squarefree(p)
    chain = [p0, _derivative(p0)]
    while chain[-1]:
        r = _frac_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _poly_with_roots(roots, rest):
    p = list(rest)
    for r in roots:
        p = poly_mul(p, [-r, Fraction(1)])
    return p


@PROPERTY
@given(
    roots=st.lists(rationals, max_size=5),
    repeats=st.lists(st.integers(0, 4), max_size=3),
    rest=st.lists(rationals, min_size=1, max_size=5),
    points=st.lists(rationals, max_size=6),
)
def test_integer_chain_matches_euclid_reference(roots, repeats, rest, points):
    assume(rest[-1] != 0)
    p = _poly_with_roots(roots + [roots[i % len(roots)] for i in repeats if roots], rest)
    assert squarefree_part(p) == euclid_squarefree(p)
    chain, ref = sturm_chain(p), euclid_sturm(p)
    assert len(chain) == len(ref)
    for member, q in zip(chain, ref):
        # each member is a positive multiple of the Euclidean member
        assert all(isinstance(c, int) for c in member) and math.gcd(*member) in (0, 1)
        assert len(member) == len(q)
        if q:
            k = Fraction(member[-1]) / q[-1]
            assert k > 0 and [k * c for c in q] == member
    for x in points + roots:
        signs = [poly_eval(q, x) for q in ref]
        signs = [v > 0 for v in signs if v != 0]
        expected = sum(1 for u, v in zip(signs, signs[1:]) if u != v)
        assert sign_variations(chain, x) == expected


def _isolate_reference(chain, lo, hi):
    out = []

    def rec(a, b):
        k = count_roots_halfopen(chain, a, b)
        if k == 1:
            out.append((a, b))
        elif k > 1:
            rec(a, (a + b) / 2)
            rec((a + b) / 2, b)

    rec(lo, hi)
    return sorted(out)


def _refine_reference(chain, a, b, width):
    while b - a > width:
        mid = (a + b) / 2
        if count_roots_halfopen(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return a, b


WIDTHS = (Fraction(1, 1000), Fraction(1, 10**12), Fraction(1, 4 * 10**12))
# dyadic roots land on bisection midpoints and on interval ends
dyadic = st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-40, 40), st.integers(0, 4))


@PROPERTY
@given(roots=st.lists(st.one_of(rationals, dyadic), min_size=1, max_size=5),
       rest=st.lists(rationals, min_size=1, max_size=3), lo=rationals, span=st.integers(1, 20))
def test_bisection_keeps_the_reference_intervals(roots, rest, lo, span):
    """Reusing the fixed endpoint's sign count, and refining by the sign of
    the squarefree member alone, change no interval."""
    assume(rest[-1] != 0)
    chain = sturm_chain(_poly_with_roots(roots, rest))
    ivs = isolate_real_roots(chain, lo, lo + span)
    assert ivs == _isolate_reference(chain, lo, lo + span)
    for a, b in ivs:
        for width in WIDTHS:
            assert refine_interval(chain, a, b, width) == _refine_reference(chain, a, b, width)


@pytest.mark.parametrize("width, expected", [
    (Fraction(1), (1, 2)),
    (Fraction(1, 4), (Fraction(5, 4), Fraction(3, 2))),
    (Fraction(1, 5), (Fraction(11, 8), Fraction(3, 2))),
])
def test_refine_interval_stops_at_the_width(width, expected):
    """Halving stops as soon as the interval is at most ``width`` wide, an
    interval that already is one included."""
    chain = sturm_chain([Fraction(-2), Fraction(0), Fraction(1)])
    got = refine_interval(chain, Fraction(1), Fraction(2), width)
    assert got == expected == _refine_reference(chain, Fraction(1), Fraction(2), width)


@pytest.mark.parametrize("roots, rest", [
    # isolating (0, 4] splits at 2: the root 1 is the midpoint of (0, 2],
    # then the right end of every later interval; 2 is the right end of
    # (1, 2] and the left end of its neighbour (2, 4], whose midpoint is 3
    ([1, 2, 3], [1]),
    # the same with a repeated root and an irreducible factor x^2 - 2
    ([1, 1, 2, 3, 3], [-2, 0, 1]),
    # roots at dyadic midpoints several halvings deep, and a negative one
    ([Fraction(5, 8), Fraction(3, 4), Fraction(-7, 16), 4], [3]),
    ([Fraction(1, 2**20), Fraction(-1, 2**20), Fraction(1, 3)], [-1]),
])
def test_refined_roots_at_midpoints_and_ends(roots, rest):
    p = _poly_with_roots([Fraction(r) for r in roots], [Fraction(c) for c in rest])
    chain = sturm_chain(p)
    ivs = isolate_real_roots(chain, Fraction(-4), Fraction(4))
    assert ivs == _isolate_reference(chain, Fraction(-4), Fraction(4))
    ends = {end for iv in ivs for end in iv}
    for a, b in ivs:
        for width in WIDTHS:
            got = refine_interval(chain, a, b, width)
            assert got == _refine_reference(chain, a, b, width)
            assert got[1] - got[0] <= width
            ends.update(got)
    assert ends & {Fraction(r) for r in roots}  # some root is an interval end


def _fractions_made(monkeypatch, call):
    """call() and the number of Fractions it builds."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        got = call()
    finally:
        monkeypatch.undo()
    return got, len(made)


def test_refine_interval_builds_a_constant_number_of_fractions(monkeypatch):
    """The bisection runs on integers: one call builds the same few
    Fractions at width 1e-3 as at 1e-300."""
    p = _poly_with_roots([Fraction(1, 3)], [Fraction(-2), Fraction(0), Fraction(1)])
    chain = sturm_chain(p)
    (a, b), = isolate_real_roots(chain, Fraction(1), Fraction(2))
    counts = []
    for width in (Fraction(1, 10**3), Fraction(1, 10**300)):
        got, made = _fractions_made(monkeypatch, lambda: refine_interval(chain, a, b, width))
        counts.append(made)
        assert got == _refine_reference(chain, a, b, width)
    assert counts[0] == counts[1] <= 3


@pytest.mark.parametrize("gap", [Fraction(1, 2), Fraction(1, 10**6), Fraction(1, 10**60)])
def test_isolate_real_roots_builds_only_the_fractions_it_returns(monkeypatch, gap):
    """Isolation runs on integer ends however deep it halves: the roots
    1/3 and 1/3 + gap take about log2(1 / gap) halvings to separate, and
    the only Fractions built are the two ends of each returned interval."""
    roots = [Fraction(1, 3), Fraction(1, 3) + gap, Fraction(-5, 7)]
    chain = sturm_chain(_poly_with_roots(roots, [Fraction(1)]))
    lo, hi = Fraction(-4), Fraction(4)
    ivs, made = _fractions_made(monkeypatch, lambda: isolate_real_roots(chain, lo, hi))
    assert ivs == _isolate_reference(chain, lo, hi)
    assert len(ivs) == 3 and made == 2 * len(ivs)


@pytest.mark.parametrize("width", [0, Fraction(0), Fraction(-1, 10**12), -1])
def test_non_positive_widths_raise(width):
    """Such a width would bisect forever; only the raise is tested."""
    chain = sturm_chain([Fraction(-2), Fraction(0), Fraction(1)])
    with pytest.raises(LatticeError, match=f"width must be positive, got {width}"):
        refine_interval(chain, Fraction(1), Fraction(2), width)
    with pytest.raises(LatticeError, match=f"width must be positive, got {width}"):
        spectral_radius_interval(PELL, width)


def _spectral_radius_reference(matrix, width=Fraction(1, 10**10)):
    """spectral_radius_interval with Fraction bisections throughout."""
    m = [[Fraction(x) for x in row] for row in matrix]
    sf, _ = squarefree_part(char_poly(_fmul(m, m)))
    chain = sturm_chain(sf)
    bound = 1 + max((abs(c) for c in sf[:-1]), default=Fraction(0)) / abs(sf[-1])
    if count_roots_halfopen(chain, -bound, bound) != len(sf) - 1:
        return None
    roots = [_refine_reference(chain, a, b, width / 4)
             for a, b in _isolate_reference(chain, -bound, bound)]

    def bisect(a, b, below):
        while b - a > width / 2:
            mid = (a + b) / 2
            a, b = (mid, b) if below(mid) else (a, mid)
        return a, b

    target = width / 4
    while True:
        lo = max(min(abs(a), abs(b)) if a * b >= 0 else Fraction(0) for a, b in roots)
        hi = max(max(abs(a), abs(b)) for a, b in roots)
        s2 = max(Fraction(1), hi)
        s_lo = bisect(Fraction(0), s2, lambda x: x * x <= lo)[0]
        s_hi = bisect(s_lo, s2, lambda x: x * x < hi)[1]
        if s_hi - s_lo <= width:
            return s_lo, s_hi
        target = min(target / 4, (width / 4) ** 2)
        roots = [_refine_reference(chain, a, b, target) for a, b in roots]


@pytest.mark.parametrize("width", [Fraction(1, 10**10), Fraction(1, 1000), Fraction(5)])
@pytest.mark.parametrize("matrix, radius", [
    ([[0, 1], [0, 0]], 0),
    ([[0, 0], [0, 0]], 0),
    ([[0]], 0),
    ([["1/1000000", 0], [0, 0]], Fraction(1, 10**6)),
    ([["1/100000000000", 0], [0, 0]], Fraction(1, 10**11)),
])
def test_spectral_radius_interval_is_as_narrow_as_asked_near_zero(matrix, radius, width):
    """Near 0 the square root stretches the interval of the root of p(M^2):
    one of width w / 4 gives sqrt(w / 4), so that root is refined on.  The
    roots 0 and 1e-12 of p(M^2) have intervals of equal absolute reach, and
    the radius is taken from both."""
    lo, hi = spectral_radius_interval(matrix, width)
    assert lo <= radius <= hi and hi - lo <= width
    assert (lo, hi) == _spectral_radius_reference(matrix, width)


@pytest.mark.parametrize("width", [Fraction(1, 10**10), Fraction(1, 10**40)])
def test_spectral_radius_interval_is_as_narrow_as_asked_for_large_entries(width):
    """The square-root bisections start from [0, max(1, r^2)], which for
    r = 3e30 takes more than 200 halvings to narrow to 1e-10."""
    r = 3 * 10**30
    lo, hi = spectral_radius_interval([[r, 0], [0, 1]], width)
    assert lo <= r <= hi and hi - lo <= width


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(rationals, min_size=15, max_size=15), n=st.integers(1, 5))
def test_spectral_radius_matches_fraction_bisection(entries, n):
    """Symmetric rational matrices have real spectra, so every draw is
    certified; the integer bisections give the Fraction ones' ends."""
    it = iter(entries)
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    assert spectral_radius_interval(m) == _spectral_radius_reference(m)


def _quad_mul(x, y, s, t):
    """(a + b x)(c + d x) in Q[x]/(x^2 - s x - t), as a pair."""
    (a, b), (c, d) = x, y
    return a * c + b * d * t, a * d + b * c + b * d * s


@st.composite
def rational_grams(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.one_of(st.just(Fraction(0)), rationals))
    return g


@PROPERTY
@given(data=st.data(), gram=rational_grams())
def test_lattice_values_match_a_fraction_sum(data, gram):
    n = len(gram)
    entries = st.one_of(rationals, small)
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    w = data.draw(st.lists(entries, min_size=n, max_size=n))
    lattice = QuadraticLattice(gram)
    for x, y in ((v, v), (v, w)):
        expected = sum((gram[i][j] * x[i] * y[j] for i in range(n) for j in range(n)), Fraction(0))
        got = lattice.value(x) if y is x else lattice.value(x, y)
        assert got == expected and isinstance(got, Fraction)


@PROPERTY
@given(data=st.data(), gram=rational_grams(), s=rationals, t=rationals)
def test_quadratic_q_values_match_a_fraction_sum(data, gram, s, t):
    n = len(gram)
    v = [data.draw(st.tuples(rationals, rationals)) for _ in range(n)]
    total_a = total_b = Fraction(0)
    for i in range(n):
        for j in range(n):
            a, b = _quad_mul(v[i], v[j], s, t)
            total_a += gram[i][j] * a
            total_b += gram[i][j] * b
    got = _quad_q_value(QuadraticLattice(gram), v, s, t)
    assert got == (total_a, total_b) and all(isinstance(x, Fraction) for x in got)


def _root(rng, n):
    """A root r with entries in {-1, 0, 1} of diag(1, -1, .., -1), with
    q(r) in {-1, -2}, so the reflection in r is integral."""
    q = rng.choice((-1, -2))
    r0 = rng.choice((-1, 0, 1))
    if r0 * r0 - q > n - 1:
        r0 = 0
    r = [0] * n
    r[0] = r0
    for i in rng.sample(range(1, n), r0 * r0 - q):
        r[i] = rng.choice((-1, 1))
    return r, q


def reflection_product(rng, n, count):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(count):
        r, q = _root(rng, n)
        gr = [r[0]] + [-x for x in r[1:]]
        refl = [[int(i == j) - 2 * r[i] * gr[j] // q for j in range(n)] for i in range(n)]
        m = [[sum(m[i][k] * refl[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return m


def lorentz_gram(n):
    return [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]


def sympy_factor_for_interval(p, a, b):
    """The factor the sympy path picks: the first of factor_list isolating (a, b]."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(p)], x, domain="QQ")
    for f, _ in poly.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        if count_roots_halfopen(sturm_chain(coeffs), a, b) == 1:
            return coeffs
    raise AssertionError("sympy has no factor isolating the interval")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 12), count=st.integers(2, 6))
def test_cyclotomic_free_factor_matches_sympy(seed, n, count):
    m = reflection_product(random.Random(seed), n, count)
    assert verify_isometry(m, QuadraticLattice(lorentz_gram(n))).ok
    p = char_poly(m)
    chain = sturm_chain(p)
    off_unit = real_roots_outside_unit(p, chain)
    assume(off_unit)
    a, b = refine_interval(chain, *max(off_unit, key=lambda ab: abs(ab[0])))
    assert _min_poly_factor_for_interval(p, a, b) == sympy_factor_for_interval(p, a, b)


def test_cyclotomic_table_and_stripping():
    x = sympy.Symbol("x")
    for k in range(1, 40):
        expected = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        assert list(_cyclotomic(k)) == [int(c) for c in expected]
    # Phi_1 Phi_2 Phi_7 Phi_12 (x^2 - 6x + 1): every cyclotomic factor goes,
    # also one whose degree is that of the whole polynomial
    cyclo = [1]
    for k in (1, 2, 7, 12):
        cyclo = [int(c) for c in poly_mul(cyclo, list(_cyclotomic(k)))]
    assert _cyclotomic_free([int(c) for c in poly_mul(cyclo, [1, -6, 1])]) == [1, -6, 1]
    assert _cyclotomic_free(list(_cyclotomic(7))) == [1]


def test_integral_factor_must_isolate_the_interval():
    # (t^2 - 6t + 1)(t + 1): (1, 2] holds no root of p
    p = poly_mul([Fraction(1), Fraction(-6), Fraction(1)], [Fraction(1), Fraction(1)])
    assert _min_poly_factor_for_interval(p, Fraction(5), Fraction(6)) == [1, -6, 1]
    with pytest.raises(LatticeError, match="no factor isolates the interval"):
        _min_poly_factor_for_interval(p, Fraction(1), Fraction(2))


def _counting_factor_list(monkeypatch):
    calls = []
    real = sympy.Poly.factor_list

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "factor_list", counting)
    return calls


@pytest.mark.parametrize(
    "gram, m, degree, field",
    [
        # a^2 - b^2 = 1 with a = 5/4: eigenvalues 2 and 1/2
        ([[1, 0], [0, -1]], [["5/4", "3/4"], ["3/4", "5/4"]], 1, "rational"),
        # a^2 - 2 b^2 = 1 with a = 9/7: t^2 - 18/7 t + 1, irrational roots
        ([[1, 0, 0], [0, -2, 0], [0, 0, -1]], [["9/7", "8/7", 0], ["4/7", "9/7", 0], [0, 0, 1]],
         2, "quadratic: x^2 = 18/7*x + -1"),
    ],
    ids=["rational-eigenvalue", "quadratic-eigenvalue"],
)
def test_rational_isometry_classifies_through_sympy(monkeypatch, gram, m, degree, field):
    calls = _counting_factor_list(monkeypatch)
    lattice = QuadraticLattice(gram)
    res = classify(m, lattice)
    assert res.label == "hyperbolic" and len(calls) == 1
    assert res.certificate["min_poly_degree"] == degree
    assert res.certificate["eigenvector_field"] == field
    assert res.certificate["q_value"] in (0, (0, 0))
    a, b = res.certificate["lambda_interval"]
    assert float(a) - 1e-9 <= power_iterate(m, lattice).lam <= float(b) + 1e-9


_FIELD = re.compile(r"quadratic: x\^2 = (\S+)\*x \+ (\S+)")


def _check_exact_eigenvector(m, res):
    """The hyperbolic certificate's exact eigenvector v satisfies
    (M - x I) v = 0 mod f and is normalized: a rational one is the primitive
    integer vector with positive last nonzero entry, a quadratic one has the
    last nonzero entry 1; f has a root in the certified interval."""
    m = fraction_rows(m)
    cert = res.certificate
    lo, hi = cert["lambda_interval"]
    v = cert["eigenvector"]
    if cert["eigenvector_field"] == "rational":
        assert cert["min_poly_degree"] == 1
        assert all(isinstance(x, Fraction) and x.denominator == 1 for x in v)
        assert math.gcd(*(int(x) for x in v)) == 1
        k = max(i for i, x in enumerate(v) if x)
        assert v[k] > 0
        lam = sum(x * y for x, y in zip(m[k], v)) / v[k]
        assert lo < lam <= hi
        assert [sum(x * y for x, y in zip(row, v)) for row in m] == [lam * x for x in v]
        assert kernel_basis([[x - lam * (i == j) for j, x in enumerate(row)]
                             for i, row in enumerate(m)]) == [tuple(v)]
        return
    assert cert["min_poly_degree"] == 2
    s, t = (Fraction(x) for x in _FIELD.fullmatch(cert["eigenvector_field"]).groups())
    assert (lo * lo - s * lo - t) * (hi * hi - s * hi - t) <= 0
    assert [x for x in v if any(x)][-1] == (1, 0)
    for row, (a, b) in zip(m, v):
        mv = (sum(x * c for x, (c, _) in zip(row, v)), sum(x * e for x, (_, e) in zip(row, v)))
        assert mv == _quad_mul((0, 1), (a, b), s, t)


# hyperbolic (gram, isometry) pairs: a rational eigenvalue (2, through sympy),
# quadratic ones through the integral path and through sympy, and negations
HYPERBOLIC = [
    ([[1, 0], [0, -1]], [["5/4", "3/4"], ["3/4", "5/4"]]),
    ([[1, 0], [0, -1]], [["-5/4", "-3/4"], ["-3/4", "-5/4"]]),
    (DIAG12, PELL),
    (DIAG12, [[-3, -4], [-2, -3]]),
    ([[1, 0, 0], [0, -2, 0], [0, 0, -1]], [["9/7", "8/7", 0], ["4/7", "9/7", 0], [0, 0, 1]]),
    ([[1, 0, 0], [0, -2, 0], [0, 0, -1]], [[3, 4, 0], [2, 3, 0], [0, 0, -1]]),
]


@pytest.mark.parametrize("gram, m", HYPERBOLIC)
def test_exact_eigenvectors_verify(gram, m):
    res = classify(m, QuadraticLattice(gram))
    assert res.label == "hyperbolic"
    _check_exact_eigenvector(m, res)


@PROPERTY
@given(data=st.data())
def test_conjugated_exact_eigenvectors_verify(data):
    """P^T G P and P^-1 M P for random rational P: non-integral matrices
    (d > 1) with rational and quadratic eigenvalues."""
    gram, m = data.draw(st.sampled_from(HYPERBOLIC))
    n = len(m)
    p = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    sp = sympy.Matrix(p)
    assume(sp.det() != 0)
    p_inv = [[Fraction(int(x.p), int(x.q)) for x in sp.inv().row(i)] for i in range(n)]
    g2 = _fmul(_fmul(_ftranspose(p), fraction_rows(gram)), p)
    m2 = _fmul(_fmul(p_inv, fraction_rows(m)), p)
    res = classify(m2, QuadraticLattice(g2))
    assert res.label == "hyperbolic"
    _check_exact_eigenvector(m2, res)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 12), count=st.integers(3, 4),
       sign=st.sampled_from((1, -1)))
def test_reflection_product_eigenvectors_verify(seed, n, count, sign):
    """Integral isometries whose hyperbolic eigenvalue is quadratic, as for
    about 40% of products of three reflections, and their negations."""
    m = [[sign * x for x in row] for row in reflection_product(random.Random(seed), n, count)]
    res = classify(m, QuadraticLattice(lorentz_gram(n)))
    assume(res.label == "hyperbolic" and res.certificate["min_poly_degree"] <= 2)
    _check_exact_eigenvector(m, res)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 12), count=st.integers(2, 6))
def test_negation_keeps_the_label(seed, n, count):
    """-M is an isometry with the negated eigenvalues, so it has M's kind."""
    m = reflection_product(random.Random(seed), n, count)
    lattice = QuadraticLattice(lorentz_gram(n))
    neg = [[-x for x in row] for row in m]
    assert classify(neg, lattice).label == classify(m, lattice).label


def lattice_cycle(seed=20220826):
    """17 integral isometries of diag(1, -1, .., -1) in dims 8-24, each a
    product of 2-5 reflections conjugated by a signed permutation, as the
    lattices benchmark draws them; yields (n, M)."""
    rng = random.Random(seed)
    for n in range(8, 25):
        m = reflection_product(rng, n, 2 + n % 4)
        perm, sign = [0] + rng.sample(range(1, n), n - 1), [rng.choice((-1, 1)) for _ in range(n)]
        yield n, [[sign[i] * sign[j] * m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_lattices_cycle_makes_no_factor_list_call(monkeypatch):
    """No input of the lattice cycle reaches sympy's factoring."""
    calls = _counting_factor_list(monkeypatch)
    degrees = set()
    for n, m in lattice_cycle():
        lattice = QuadraticLattice(lorentz_gram(n))
        res = classify(m, lattice)
        if res.label == "hyperbolic":
            degrees.add(res.certificate["min_poly_degree"])
            power_iterate(m, lattice)
    assert calls == []
    # both the quadratic-field and the numeric eigenvector paths were taken
    assert 2 in degrees and max(degrees) > 2


# sha256 of the lattice cycle's labels, characteristic polynomials and exact
# certificate fields, as computed with the dense Berkowitz loop
PINNED_CYCLE = "0b825f38f7dc57134fb44f45d85579920269ae38920a6fb04354291d4ab28a49"
NUMERIC_FIELDS = ("eigenvector", "eigenvector_residual")


def test_lattice_cycle_certificates_are_pinned():
    """Labels, characteristic polynomials and sorted exact certificate items
    of the lattice cycle keep their bytes.  A numeric eigenvector's fields
    come from numpy and are left out, so the hash does not depend on BLAS."""
    digest = hashlib.sha256()
    for n, m in lattice_cycle():
        res = classify(m, QuadraticLattice(lorentz_gram(n)))
        cert = res.certificate
        if cert.get("eigenvector_field") == "numeric":
            cert = {k: v for k, v in cert.items() if k not in NUMERIC_FIELDS}
        digest.update(repr((res.label, char_poly(m), sorted(cert.items()))).encode())
    assert digest.hexdigest() == PINNED_CYCLE


def certificate_digest(pairs):
    """sha256 of the labels, characteristic polynomials and sorted exact
    certificate items of ``classify`` on (gram, M) pairs, with a numeric
    eigenvector's fields left out, as in the pin above."""
    digest = hashlib.sha256()
    for gram, m in pairs:
        res = classify(m, QuadraticLattice(gram))
        cert = res.certificate
        if cert.get("eigenvector_field") == "numeric":
            cert = {k: v for k, v in cert.items() if k not in NUMERIC_FIELDS}
        digest.update(repr((res.label, char_poly(m), sorted(cert.items()))).encode())
    return digest.hexdigest()


def workload_cycle(seed):
    """The (gram, M) inputs of one cycle of the lattices benchmark."""
    workload = perfbench("workloads").Lattices(seed)
    return [(inp.payload["gram"], inp.payload["matrix"]) for inp in workload.cycle()]


# sha256 of certificate_digest over one cycle of the lattices benchmark at
# each seed, as computed with the dense isometry test, r(M) and Krylov loops
PINNED_WORKLOAD_CYCLES = {
    1: "a1e42eecc64bf7d4ac85cf7e47e27f44157e2135cb923b0c34d8b20c11aeab26",
    2: "d8210c47f3f6a46254e930c995e79c3e3095bd4c5050264a9c6cd0c8d61e247c",
    3: "a5a56771fa1e4c552ca302dfb354866e12c623bac78712fd6153e6bcc3648f0f",
    7: "042cce7762dd7f123ff1f11545918412f62480e7a1cf9fc0c1ead4bb8d97ba7e",
    11: "3aaaf8a9a3f1b43557e1d934625d74ad472dfbcb3a50e0a7827bc418c0eab580",
}


@pytest.mark.parametrize("seed", sorted(PINNED_WORKLOAD_CYCLES))
def test_lattices_workload_certificates_are_pinned(seed):
    assert certificate_digest(workload_cycle(seed)) == PINNED_WORKLOAD_CYCLES[seed]


def rational_conjugate(gram, m, diag):
    """(D^-T G D^-1, D M D^-1) for D = diag(diag): an isometry of the new
    form with denominators, and with M's characteristic polynomial."""
    n = len(m)
    return (
        [[Fraction(gram[i][j]) / (diag[i] * diag[j]) for j in range(n)] for i in range(n)],
        [[diag[i] * m[i][j] / diag[j] for j in range(n)] for i in range(n)],
    )


def non_integral_family():
    """Isometries with d > 1: a rotation and a boost whose characteristic
    polynomials are not integral, the 18/7 quadratic one, and rational
    diagonal conjugates of the first eight seed-7 benchmark inputs, one of
    them parabolic."""
    pairs = [
        (LORENTZ_3, [[1, 0, 0], [0, "3/5", "-4/5"], [0, "4/5", "3/5"]]),
        ([[1, 0], [0, -1]], [["5/4", "3/4"], ["3/4", "5/4"]]),
        ([[1, 0, 0], [0, -2, 0], [0, 0, -1]], [["9/7", "8/7", 0], ["4/7", "9/7", 0], [0, 0, 1]]),
    ]
    for k, (gram, m) in enumerate(workload_cycle(7)[:8]):
        diag = [Fraction(1 + (i + k) % 3, 1 + (i * k) % 4) for i in range(len(m))]
        pairs.append(rational_conjugate(gram, m, diag))
    return pairs


PINNED_NON_INTEGRAL = "b53f8b8c255bb35832232e2d9abefa49882b4d1371451ef55c0d3c5bdd2238d8"


def test_non_integral_certificates_are_pinned():
    """The witness of the rotation stays that of the monic characteristic
    polynomial, not of its primitive integer multiple."""
    pairs = non_integral_family()
    gram, m = pairs[0]
    res = classify(m, QuadraticLattice(gram))
    assert res.certificate["squarefree_witness"] == ["-1", "11/5", "-11/5", "1"]
    assert certificate_digest(pairs) == PINNED_NON_INTEGRAL


# -- the exact eigenvector's identity, and the Cauchy bound ---------------------


def assert_eigen_identity(m):
    """For the minimal polynomial f of the hyperbolic eigenvalue x of
    M = A / d (sympy's factor with a root of modulus above 1), the vectors
    w_i of ``_eigenvector_coordinates`` have (A - d x) sum_i x^i w_i = 0
    mod f, and some w_i is nonzero; returns deg f."""
    exact = _exact(m)
    a, d = exact
    p = char_poly(m)
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(p)], x, domain="QQ")
    (f,) = [
        [int(c) for c in reversed(sympy.Poly(factor, x).primitive()[1].all_coeffs())]
        for factor, _ in poly.factor_list()[1]
        if max(abs(np.roots([float(c) for c in factor.all_coeffs()]))) > 1 + 1e-6
    ]
    w = _eigenvector_coordinates(exact, _int_poly(p), f)
    assert len(w) == len(f) - 1 and any(map(any, w))
    for j, row in enumerate(a):
        # coordinate j of (A - d x) sum_i x^i w_i, a polynomial in x
        coord = [sum(r * wi[t] for t, r in enumerate(row)) for wi in w] + [0]
        for i, wi in enumerate(w):
            coord[i + 1] -= d * wi[j]
        assert not _frac_rem(coord, f)
    return len(f) - 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 12), count=st.integers(2, 6),
       conjugate=st.booleans())
def test_eigenvector_coordinates_solve_the_eigen_equation(seed, n, count, conjugate):
    """Lorentzian reflection products, whose hyperbolic eigenvalues have
    minimal polynomials of degree 2, 4 and 6, as they are and conjugated by
    a rational diagonal matrix (d > 1)."""
    m = reflection_product(random.Random(seed), n, count)
    res = classify(m, QuadraticLattice(lorentz_gram(n)))
    assume(res.label == "hyperbolic")
    if conjugate:
        _, m = rational_conjugate(lorentz_gram(n), m, [Fraction(1 + i % 3, 1 + i % 4)
                                                       for i in range(n)])
    assert assert_eigen_identity(m) == res.certificate["min_poly_degree"]


@pytest.mark.parametrize("gram, m", HYPERBOLIC)
def test_eigenvector_coordinates_solve_the_eigen_equation_on_examples(gram, m):
    """Degrees 1 and 2, integral and not."""
    assert assert_eigen_identity(m) == classify(m, QuadraticLattice(gram)).certificate[
        "min_poly_degree"]


def test_workload_eigenvalues_of_degree_four_solve_the_eigen_equation():
    """The benchmark's numeric-field inputs: degree 4, in dims up to 24."""
    degrees = [assert_eigen_identity(m) for gram, m in workload_cycle(7)
               if classify(m, QuadraticLattice(gram)).label == "hyperbolic"]
    assert sorted(set(degrees)) == [2, 4]


@PROPERTY
@given(p=st.lists(st.integers(-30, 30), min_size=2, max_size=7), k=st.integers(1, 9))
@example(p=[-2, 0, 1], k=1)
def test_cauchy_bound_is_exact_for_int_and_fraction_coefficients(p, k):
    """Equal Fraction bounds, also for a positive multiple, and equal
    isolating intervals off the unit interval (for t^2 - 2 as ints the
    float bound 3.0 made the isolation raise)."""
    assume(p[-1] != 0)
    fr = [Fraction(c) for c in p]
    bound = cauchy_bound(fr)
    assert type(cauchy_bound(p)) is Fraction
    assert cauchy_bound(p) == bound == cauchy_bound([k * c for c in p])
    assert real_roots_outside_unit(p, sturm_chain(p)) == real_roots_outside_unit(
        fr, sturm_chain(fr))


# -- the boundary: one validation and one clearing per public call ------------


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([["1/0", 4], [2, 3]], "matrix entry (0, 0): zero denominator in '1/0'"),
        ([5], "matrix row 0: expected a list of entries, got int: 5"),
        ([[3, 4], [True, 3]], "matrix entry (1, 0): expected an exact rational"),
        ([[3, 4], [2, 3.0]], "matrix entry (1, 1): expected an exact rational"),
        ([[3, "4/x"], [2, 3]], "matrix entry (0, 1): not a rational number: '4/x'"),
        ([[3, 4], [2]], "ragged matrix"),
        (7, "expected a matrix (a list of rows), got int"),
    ],
    ids=["zero-denominator", "row-not-list", "bool", "float", "bad-string", "ragged", "not-a-list"],
)
def test_every_public_entry_fails_closed(lorentz2, matrix, message):
    """Each public entry raises LatticeError naming the bad entry: no
    ZeroDivisionError or TypeError, and no bool read as an integer."""
    calls = [
        QuadraticLattice, char_poly, kernel_basis, spectral_radius_interval,
        lambda m: classify(m, lorentz2),
        lambda m: power_iterate(m, lorentz2),
        lambda m: invariant_classes(m, lorentz2),
        lambda m: verify_isometry(m, lorentz2),
        lambda m: poly_eval_matrix([1, 1], m),
    ]
    for call in calls:
        with pytest.raises(LatticeError) as err:
            call(matrix)
        assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "seed, message",
    [
        ([1, "1/0"], "seed vector entry 1: zero denominator in '1/0'"),
        ([1, False], "seed vector entry 1: expected an exact rational"),
        ([1, 0, 0], "seed vector must be a list of 2 entries"),
        (5, "seed vector must be a list of 2 entries"),
    ],
)
def test_power_iterate_seed_vector_fails_closed(lorentz2, seed, message):
    with pytest.raises(LatticeError) as err:
        power_iterate(PELL, lorentz2, seed_vector=seed)
    assert str(err.value).startswith(message)


def test_plain_int_rows_build_no_fraction(monkeypatch):
    """The boundary's fast path: int rows are taken as they are, d = 1."""
    from hermitia import hyperbolic

    def no_fraction(*args):
        raise AssertionError("an int row was converted")

    monkeypatch.setattr(hyperbolic, "_as_fraction", no_fraction)
    monkeypatch.setattr(hyperbolic, "_cleared", no_fraction)
    assert hyperbolic._exact([[3, 4], (2, 3)]) == (((3, 4), (2, 3)), 1)


def test_mixed_rows_clear_to_integer_rows_and_one_denominator():
    from hermitia.hyperbolic import _exact

    assert _exact([["3/2", 2], [Fraction(1, 3), "-5"]]) == (((9, 12), (2, -30)), 6)
    assert _exact([["6/2", 4], [2, 3]]) == (((3, 4), (2, 3)), 1)
    # M = [[3/2, 2], [1, 0]] is A / 2, and det(t I - M) = t^2 - 3/2 t - 2
    assert _exact([["3/2", 2], [1, 0]]) == (((3, 4), (2, 0)), 2)
    assert char_poly([["3/2", 2], [1, 0]]) == [Fraction(-2), Fraction(-3, 2), Fraction(1)]


def _four_ways(rows, d):
    """The same matrix as ints, as Fractions, as strings and written over the
    denominator d > 1 ("6/2" for 3)."""
    return [
        rows,
        [[Fraction(x) for x in row] for row in rows],
        [[str(x) for x in row] for row in rows],
        [[f"{x * d}/{d}" for x in row] for row in rows],
    ]


def _outcome(call):
    try:
        return call()
    except (LatticeError, PowerIterationError) as e:
        return type(e).__name__, str(e)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 12), count=st.integers(2, 6),
       d=st.integers(2, 9))
def test_representations_of_one_isometry_agree(seed, n, count, d):
    """A Lorentzian reflection product given as ints, Fractions, strings or
    over a denominator, on the Gram matrix given the same way, has one
    characteristic polynomial, isometry verdict, classification certificate
    and power-iteration eigenvalue."""
    m = reflection_product(random.Random(seed), n, count)
    results = []
    for matrix, gram in zip(_four_ways(m, d), _four_ways(lorentz_gram(n), d)):
        lattice = QuadraticLattice(gram)
        cl = _outcome(lambda: classify(matrix, lattice))
        if isinstance(cl, Classification):
            cl = (cl.label, sorted(cl.certificate.items()))
        lam = None
        if cl[0] == "hyperbolic":
            lam = _outcome(lambda: power_iterate(matrix, lattice).lam)
        results.append((char_poly(matrix), verify_isometry(matrix, lattice), cl, lam))
    assert results[0][1].ok
    assert all(r == results[0] for r in results[1:])


def test_char_poly_memo_serves_power_iterate_after_classify(monkeypatch):
    """power_iterate after classify on one matrix reads classify's verdict:
    the pair runs Berkowitz once and builds one Sturm chain of the
    characteristic polynomial (and one of its Pell factor)."""
    from hermitia import hyperbolic

    calls = []
    berkowitz = hyperbolic._berkowitz
    monkeypatch.setattr(hyperbolic, "_berkowitz", lambda a: calls.append(a) or berkowitz(a))
    built = []
    real = hyperbolic.sturm_chain
    monkeypatch.setattr(hyperbolic, "sturm_chain", lambda p: built.append(list(p)) or real(p))
    m = [[3, 4, 0], [2, 3, 0], [0, 0, -1]]
    lattice = QuadraticLattice([[1, 0, 0], [0, -2, 0], [0, 0, -1]])
    assert classify(m, lattice).label == "hyperbolic"
    power_iterate(m, lattice)
    assert len(calls) == 1
    pell = [Fraction(1), Fraction(-6), Fraction(1)]
    assert built == [char_poly(m), pell]
    # one entry changed: its own polynomial
    other = [[3, 4, 0], [2, 3, 0], [0, 0, 1]]
    assert char_poly(other) == poly_mul(pell, [Fraction(-1), Fraction(1)])
    assert char_poly(m) == poly_mul(pell, [Fraction(1), Fraction(1)])


def test_char_poly_result_is_a_fresh_list():
    p = char_poly(PELL)
    expected = list(p)
    p[0] = Fraction(99)
    p.append(Fraction(5))
    assert char_poly(PELL) == expected == [Fraction(1), Fraction(-6), Fraction(1)]


BIG = st.integers(2**53, 2**70)


@PROPERTY
@given(rows=square(st.one_of(BIG, BIG.map(lambda x: -x), small), 4), d=st.integers(1, 1000))
def test_numeric_entries_round_like_fractions(rows, d):
    """What numpy receives from (A, d) is float(Fraction(x, d)) entry by
    entry: one correctly rounded division, not float(x) / d, which rounds
    twice once |x| > 2^53."""
    from hermitia.hyperbolic import _floats

    got = _floats(rows, d)
    assert [[float(Fraction(x, d)) for x in row] for row in rows] == got.tolist()


# -- Berkowitz per strongly connected block -----------------------------------


@st.composite
def permuted_block_triangular(draw):
    """P T P^T for a permutation P and an integer block-upper-triangular T
    of dimension 0-14 with blocks of 1-5: zero, diagonal, a permutation
    matrix (one cycle per block), blocks of varied density, or dense."""
    n = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(("zero", "diagonal", "permutation", "blocks", "dense")))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(5, n - sum(sizes)))))
    block = [k for k, size in enumerate(sizes) for _ in range(size)]
    first = [block.index(block[i]) for i in range(n)]
    entry = st.integers(-4, 4).filter(bool)
    density = draw(st.integers(1, 10))

    def t(i, j):
        if kind == "zero":
            return 0
        if kind == "diagonal":
            return draw(entry) if i == j else 0
        if kind == "permutation":
            # i -> its successor in the cycle through i's block
            nxt = i + 1 if i + 1 < n and block[i + 1] == block[i] else first[i]
            return int(j == nxt)
        if kind == "dense":
            return draw(entry)
        if block[i] > block[j] or draw(st.integers(1, 10)) > density:
            return 0
        return draw(entry)

    rows = [[t(i, j) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))


@settings(max_examples=150, deadline=None)
@given(a=permuted_block_triangular())
def test_block_berkowitz_equals_the_dense_loop(a):
    """det(t I - A) from the diagonal blocks of A's block-triangular form
    equals the dense Berkowitz loop on the whole of A, coefficient for
    coefficient."""
    from hermitia.hyperbolic import _berkowitz, _berkowitz_dense

    assert _berkowitz(a) == (tuple(_berkowitz_dense(a)) if a else (1,))


def _reachable(a, i):
    seen, todo = {i}, [i]
    while todo:
        v = todo.pop()
        for w, x in enumerate(a[v]):
            if x and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_dense_loop_sees_no_block_above_the_largest_component(monkeypatch):
    """On a 24-dim reflection product the dense loop runs once per strongly
    connected component, never on more indices than the largest one has."""
    from hermitia import hyperbolic

    m = reflection_product(random.Random(7), 24, 4)
    reach = [_reachable(m, i) for i in range(24)]
    largest = max(sum(1 for j in reach[i] if i in reach[j]) for i in range(24))
    sizes = []
    real = hyperbolic._berkowitz_dense
    monkeypatch.setattr(hyperbolic, "_berkowitz_dense", lambda b: sizes.append(len(b)) or real(b))
    p = char_poly(m)
    assert largest < 24 and sum(sizes) == 24 and max(sizes) == largest
    assert p == [Fraction(c) for c in real(m)][::-1]


def test_char_poly_of_a_long_shift_does_not_recurse():
    """The component search keeps its own stack: the 1100-dim upper shift,
    a path longer than the recursion limit, gives t^1100."""
    from hermitia import hyperbolic

    n = 1100
    shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    assert char_poly(shift) == [Fraction(0)] * n + [Fraction(1)]
