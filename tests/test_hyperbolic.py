"""Quadratic lattices, the isometry trichotomy, invariant classes, power
iteration, exact characteristic polynomials and Sturm machinery."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermitia.hyperbolic import (
    LatticeError,
    PowerIterationError,
    QuadraticLattice,
    char_poly,
    classify,
    count_roots_halfopen,
    invariant_classes,
    isolate_real_roots,
    kernel_basis,
    poly_eval,
    poly_eval_matrix,
    poly_mul,
    power_iterate,
    refine_interval,
    spectral_radius_interval,
    sturm_chain,
    verify_isometry,
)

PELL = [[3, 4], [2, 3]]
DIAG12 = [[1, 0], [0, -2]]


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
        _is_zero,
        poly_eval_matrix,
        real_roots_outside_unit,
        squarefree_part,
        rational_matrix,
        sturm_chain,
    )

    rng = random.Random(42)
    pell = rational_matrix(PELL)
    pell_inv = rational_matrix([[3, -4], [-2, 3]])
    refl = rational_matrix([[1, 0], [0, -1]])
    neg = rational_matrix([[-1, 0], [0, -1]])
    gens = [pell, pell_inv, refl, neg]
    labels = {"hyperbolic": 0, "elliptic": 0, "parabolic": 0}
    for _ in range(100):
        word_len = rng.randint(1, 6)
        m = rational_matrix([[1, 0], [0, 1]])
        from hermitia.hyperbolic import _mat_mul

        for _k in range(word_len):
            m = _mat_mul(m, gens[rng.randrange(4)])
        assert verify_isometry(m, lorentz2).ok
        res = classify(m, lorentz2)
        labels[res.label] += 1
        # independent exclusivity audit
        p = char_poly(m)
        has_off_unit = bool(real_roots_outside_unit(p, sturm_chain(p)))
        r, _g = squarefree_part(p)
        diagonalizable = _is_zero(
            tuple(
                tuple(x - 0 for x in row) for row in poly_eval_matrix(r, m)
            )
        )
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
    from hermitia.hyperbolic import _mat_mul, rational_matrix

    pell = rational_matrix(PELL)
    pell_inv = rational_matrix([[3, -4], [-2, 3]])
    for _ in range(50):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        lat = QuadraticLattice([[1, 0, 0], [0, -2, 0], [0, 0, -c]])
        word = rational_matrix([[1, 0], [0, 1]])
        for _k in range(rng.randint(1, 4)):
            word = _mat_mul(word, pell if rng.random() < 0.7 else pell_inv)
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


def _fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


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
    g2 = _fmul(_fmul(_ftranspose(p), _fmat(gram)), p)
    m2 = _fmul(_fmul(p_inv, _fmat(m)), p)
    return g2, m2


@PROPERTY
@given(m=square(rationals))
def test_char_poly_matches_sympy_on_rational_matrices(m):
    x = sympy.Symbol("x")
    theirs = sympy.Matrix(m).charpoly(x).all_coeffs()  # descending
    assert char_poly(m) == [Fraction(int(c.p), int(c.q)) for c in reversed(theirs)]


@PROPERTY
@given(pair=conjugated_isometries(), bump=rationals, where=st.tuples(small, small))
def test_verify_isometry_matches_fraction_residual(pair, bump, where):
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


@PROPERTY
@given(p=st.lists(rationals, max_size=6), m=square(rationals, 4))
def test_poly_eval_matrix_matches_fraction_horner(p, m):
    n = len(m)
    m = _fmat(m)
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
    classify refusal, or the label without a dominant eigenvalue."""
    gram, m = pair
    m[0][-1] += bump
    lattice = QuadraticLattice(gram)
    try:
        label = classify(m, lattice).label
    except LatticeError as e:
        with pytest.raises(LatticeError) as err:
            power_iterate(m, lattice)
        assert str(err.value) == str(e)
        return
    if label == "hyperbolic":
        return
    with pytest.raises(PowerIterationError) as err:
        power_iterate(m, lattice)
    assert str(err.value) == f"no dominant eigenvalue: isometry is {label}"


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
    with pytest.raises(error) as err:
        power_iterate(m, QuadraticLattice(gram))
    assert type(err.value) is error and str(err.value) == message


def test_classify_builds_one_sturm_chain_per_polynomial(monkeypatch):
    """One chain for the characteristic polynomial, shared by the off-unit
    test and the refinement, then one per factor candidate tried."""
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
    x = sympy.Symbol("x")
    factors = [
        [Fraction(c.p, c.q) for c in reversed(f.all_coeffs())]
        for f, _ in sympy.Poly([sympy.Rational(c) for c in reversed(p)], x).factor_list()[1]
    ]
    a, b = res.certificate["lambda_interval"]
    tried = next(k for k, f in enumerate(factors) if count_roots_halfopen(real(f), a, b)) + 1
    assert built == [p] + factors[:tried]
