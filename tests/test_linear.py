"""The exact row-reduction kernel and the congruence signature over the three
fields hermitia eliminates in: Fraction, Q(i) scalars and Q(lambda)."""

import operator
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermitia import linear
from hermitia.hyperbolic import (
    QuadraticLattice,
    _eigenvector_quadratic,
    _QuadNumber,
    char_poly,
    kernel_basis,
)
from hermitia.scalars import Scalar, ScalarError, Symbol, SymbolTable, _alg_inverse

PROPERTY = settings(max_examples=60, deadline=None)
QI = SymbolTable()
# lambda^2 = lambda + 1: the golden ratio, an irreducible quadratic
GOLDEN = (Fraction(1), Fraction(1))

small = st.integers(-4, 4)
rationals = st.builds(Fraction, small, st.integers(1, 3))


def gaussian(a, b):
    return QI.scalar(a) + QI.scalar(b) * QI.i


def quad(a, b=Fraction(0)):
    return _QuadNumber(Fraction(a), Fraction(b), *GOLDEN)


FIELDS = {
    "fraction": (st.builds(Fraction, small), operator.not_, Fraction(1), Fraction(0)),
    "gaussian": (st.builds(gaussian, rationals, small), Scalar.is_zero, QI.one, QI.zero),
    "golden": (st.builds(quad, small, small), operator.not_, quad(1), quad(0)),
}


def square(elements, max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def dot(row, col, zero):
    # Q(lambda) numbers only subtract, so sums are written as differences
    acc = zero
    for x, y in zip(row, col):
        acc = acc - (-(x * y)) if isinstance(acc, _QuadNumber) else acc + x * y
    return acc


def equal(x, y, is_zero):
    return is_zero(x - y)


def gaussian_matrices(max_n=4):
    return square(st.builds(gaussian, rationals, small), max_n)


@pytest.mark.parametrize("field", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_rref_inverse_times_matrix_is_identity(field, data):
    elements, is_zero, one, zero = FIELDS[field]
    a = data.draw(square(elements))
    n = len(a)
    aug = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(a)]
    pivots, _, _ = linear.rref(aug, n, is_zero)
    if len(pivots) < n:
        assert _sympy_det(a) == 0
        return
    inv = [row[n:] for row in aug]
    for i in range(n):
        for j in range(n):
            prod = dot(inv[i], [a[k][j] for k in range(n)], zero)
            assert equal(prod, one if i == j else zero, is_zero)


def _sympy_det(a):
    n = len(a)
    return sympy.expand(sympy.Matrix(n, n, lambda i, j: _sympy(a[i][j])).det())


def _sympy(x):
    if isinstance(x, _QuadNumber):
        return x.a + x.b * (1 + sympy.sqrt(5)) / 2
    if isinstance(x, Scalar):
        re, im = (x + x.conjugate()) / 2, (x - x.conjugate()) / (2 * QI.i)
        return sympy.Rational(re.as_rational()) + sympy.I * sympy.Rational(im.as_rational())
    return sympy.Rational(x)


@PROPERTY
@given(a=gaussian_matrices())
def test_invert_is_a_two_sided_inverse_or_raises(a):
    a = tuple(tuple(r) for r in a)
    n = len(a)
    if linear.det(a, QI).is_zero():
        with pytest.raises(linear.LinearError):
            linear.invert(a, QI)
        return
    inv = linear.invert(a, QI)
    ident = linear.identity(QI, n)
    assert linear.mat_eq(linear.mat_mul(inv, a, QI), ident)
    assert linear.mat_eq(linear.mat_mul(a, inv, QI), ident)


@PROPERTY
@given(
    data=st.data(),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
)
def test_solve_has_zero_residual(data, m, n):
    element = st.builds(gaussian, rationals, small)
    a = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=m, max_size=m))
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(element, min_size=n, max_size=n))
        b = [dot(row, x0, QI.zero) for row in a]
    else:
        b = data.draw(st.lists(element, min_size=m, max_size=m))
    x, free = linear.solve(a, b, QI)
    rk = linear.rank(a, QI)
    if x is None:
        assert linear.rank([list(r) + [c] for r, c in zip(a, b)], QI) == rk + 1
        return
    assert all(equal(dot(row, x, QI.zero), c, Scalar.is_zero) for row, c in zip(a, b))
    assert free == n - rk


@PROPERTY
@given(a=gaussian_matrices())
def test_det_vanishes_exactly_below_full_rank(a):
    n = len(a)
    assert linear.det(a, QI).is_zero() == (linear.rank(a, QI) < n)
    assert _sympy(linear.det(a, QI)) == _sympy_det(a)


@PROPERTY
@given(
    data=st.data(),
    m=st.integers(1, 4),
    n=st.integers(1, 5),
)
def test_kernel_basis_is_a_basis_of_the_kernel(data, m, n):
    rows = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    basis = kernel_basis(rows)
    assert len(basis) == n - sympy.Matrix(rows).rank()
    for v in basis:
        assert all(x.denominator == 1 for x in v)
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)
    assert sympy.Matrix([list(v) for v in basis] or [[0] * n]).rank() == len(basis)


@PROPERTY
@given(m=square(rationals, 5))
def test_berkowitz_constant_term_is_signed_determinant(m):
    n = len(m)
    det = linear.det([[QI.scalar(x) for x in row] for row in m], QI)
    assert QI.scalar(char_poly(m)[0]) == (-1) ** n * det


def _numeric_signature(evs, scale):
    tol = 1e-9 * max(1.0, scale)
    assume(all(abs(e) > 1e-6 * max(1.0, scale) or abs(e) < tol for e in evs))
    p = int(np.sum(evs > tol))
    q = int(np.sum(evs < -tol))
    return p, q, len(evs) - p - q


@PROPERTY
@given(a=square(small, 5))
def test_congruence_signature_matches_eigenvalue_signs(a):
    n = len(a)
    gram = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    evs = np.linalg.eigvalsh(np.array(gram, dtype=float))
    assert QuadraticLattice(gram).signature == _numeric_signature(evs, np.max(np.abs(evs)))


@PROPERTY
@given(a=gaussian_matrices())
def test_hermitian_signature_matches_eigenvalue_signs(a):
    n = len(a)
    h = tuple(tuple(a[i][j] + a[j][i].conjugate() for j in range(n)) for i in range(n))
    num = np.array([[complex(_sympy(x)) for x in row] for row in h])
    evs = np.linalg.eigvalsh(num)
    assert linear.hermitian_signature(h, QI) == _numeric_signature(evs, np.max(np.abs(evs)))


SQRT2 = SymbolTable([Symbol("s", relation=(2, "2"))])


@PROPERTY
@given(coeffs=st.lists(rationals, min_size=4, max_size=4))
def test_alg_inverse_in_q_i_sqrt2(coeffs):
    s, i = SQRT2.symbol("s"), SQRT2.i
    u = sum((SQRT2.scalar(c) * b for c, b in zip(coeffs, (1, s, i, s * i))), SQRT2.zero)
    if u.is_zero():
        with pytest.raises(ScalarError):
            _alg_inverse(SQRT2, u.num)
        return
    inv = Scalar(SQRT2, _alg_inverse(SQRT2, u.num), SQRT2.one.den)
    assert inv * u == SQRT2.one


@PROPERTY
@given(
    block=st.tuples(small, small, small, small),
    rest=square(small, 3),
    p=square(small, 5),
)
def test_quadratic_eigenvector_is_an_eigenvector(block, rest, p):
    a, b, c, d = block
    s, t = Fraction(a + d), Fraction(b * c - a * d)
    assume(sympy.sqrt(s * s + 4 * t).is_rational is False)
    k = len(rest)
    n = 2 + k
    diag = [[Fraction(0)] * n for _ in range(n)]
    diag[0][:2], diag[1][:2] = [Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]
    for i in range(k):
        diag[2 + i][2:] = [Fraction(x) for x in rest[i]]
    pm = sympy.Matrix(n, n, lambda i, j: p[i][j] if i < len(p) and j < len(p) else int(i == j))
    assume(pm.det() != 0)
    conj = pm * sympy.Matrix(diag) * pm.inv()
    m = [[Fraction(int(x.p), int(x.q)) for x in conj.row(i)] for i in range(n)]
    v = _eigenvector_quadratic(m, s, t)
    assert any(v)
    lam, zero = _QuadNumber(Fraction(0), Fraction(1), s, t), _QuadNumber(Fraction(0), Fraction(0), s, t)
    for i in range(n):
        mv = dot([_QuadNumber(x, Fraction(0), s, t) for x in m[i]], v, zero)
        assert not (mv - lam * v[i])
