"""The exact row-reduction kernel and the congruence signature over the two
fields hermitia eliminates in, Fraction and Q(i) scalars, and the
Cayley-Hamilton eigenvector over Q(lambda) that needs no elimination."""

import math
import operator
import random
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
    _exact,
    char_poly,
    kernel_basis,
)
from hermitia.scalars import Scalar, ScalarError, Symbol, SymbolTable, _alg_inverse

PROPERTY = settings(max_examples=60, deadline=None)
QI = SymbolTable()

small = st.integers(-4, 4)
rationals = st.builds(Fraction, small, st.integers(1, 3))


def gaussian(a, b):
    return QI.scalar(a) + QI.scalar(b) * QI.i


FIELDS = {
    "fraction": (st.builds(Fraction, small), operator.not_, Fraction(1), Fraction(0)),
    "gaussian": (st.builds(gaussian, rationals, small), Scalar.is_zero, QI.one, QI.zero),
}


def square(elements, max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def dot(row, col, zero):
    acc = zero
    for x, y in zip(row, col):
        acc = acc + x * y
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
    aug = [{c: x for c, x in enumerate(row) if not is_zero(x)} for row in a]
    for i, row in enumerate(aug):
        row[n + i] = one
    pivots, _, _ = linear.rref(aug, n)
    if len(pivots) < n:
        assert _sympy_det(a) == 0
        return
    inv = [[row.get(c, zero) for c in range(n, 2 * n)] for row in aug]
    for i in range(n):
        for j in range(n):
            prod = dot(inv[i], [a[k][j] for k in range(n)], zero)
            assert equal(prod, one if i == j else zero, is_zero)


QIA = SymbolTable([Symbol("a")])
A = sympy.Symbol("a")


def _rational(x):
    return x, sympy.Rational(x)


def _gaussian_pair(re, im):
    return gaussian(re, im), sympy.Rational(re) + sympy.I * im


def _over_qia(p, q, r, s):
    """(p + q i + r a) / s in Q(i)(a), with its sympy value."""
    value = (QIA.scalar(p) + QIA.scalar(q) * QIA.i + QIA.scalar(r) * QIA.symbol("a")) / s
    return value, (p + q * sympy.I + r * A) / s


# entries with their sympy values, and the zero test of each field
SPARSE_FIELDS = {
    "Q": (st.builds(_rational, rationals), operator.not_),
    "Q(i)": (st.builds(_gaussian_pair, rationals, small), Scalar.is_zero),
    "Q(i)(a)": (st.builds(_over_qia, small, small, small, st.integers(1, 3)), Scalar.is_zero),
}


def _as_sympy(x):
    if isinstance(x, Scalar):
        return sympy.sympify(str(x).replace("^", "**"), locals={"i": sympy.I, "a": A})
    return sympy.Rational(x)


@pytest.mark.parametrize("field", sorted(SPARSE_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 5))
def test_rref_matches_sympy_on_sparse_matrices(field, data, m, n):
    """Pivot columns and reduced rows are sympy's, and the reduced rows keep
    no zero entry."""
    entries, is_zero = SPARSE_FIELDS[field]
    # about two entries in three are zero
    cell = st.one_of(st.none(), st.none(), entries.filter(lambda x: x[1] != 0))
    cells = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    rows = [{c: x[0] for c, x in enumerate(row) if x is not None} for row in cells]
    pivots, _, _ = linear.rref(rows, n)
    expected, expected_pivots = sympy.Matrix(
        m, n, lambda r, c: 0 if cells[r][c] is None else cells[r][c][1]
    ).rref(simplify=True)
    assert tuple(pivots) == expected_pivots
    for r, row in enumerate(rows):
        assert not any(is_zero(x) for x in row.values())
        for c in range(n):
            got = _as_sympy(row[c]) if c in row else 0
            assert sympy.cancel(got - expected[r, c]) == 0, (r, c)


def test_rref_pivots_on_the_first_nonzero_of_each_column():
    """The pivot of a column is its first nonzero row at or below the next
    pivot position; each pivot that is not already in place costs one swap."""
    rows = [{1: Fraction(1)}, {0: Fraction(2)}, {0: Fraction(3), 1: Fraction(5)}]
    pivots, values, swaps = linear.rref(rows, 2)
    assert (pivots, values, swaps) == ([0, 1], [Fraction(2), Fraction(1)], 1)
    assert rows == [{0: Fraction(1)}, {1: Fraction(1)}, {}]


@pytest.mark.parametrize(
    "entries, expected",
    [
        # one swap puts the anti-diagonal in place
        ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], -30),
        # a cyclic permutation takes two swaps
        ([[0, 7, 0], [0, 0, 1], [4, 0, 0]], 28),
        # one swap, then a negative pivot
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2),
    ],
)
def test_det_counts_the_row_swaps(entries, expected):
    a = [[QI.scalar(x) for x in row] for row in entries]
    assert linear.det(a, QI) == expected
    assert _sympy_det(entries) == expected


def _sympy_det(a):
    n = len(a)
    return sympy.expand(sympy.Matrix(n, n, lambda i, j: _sympy(a[i][j])).det())


def _sympy(x):
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
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 4))
def test_mat_mul_matches_the_dense_sum(data, n, k, m):
    """The sparse product sums the same products in the same order as the
    dense triple loop, so every entry has the same key."""
    entry = st.one_of(st.just(QI.zero), st.builds(gaussian, rationals, small))
    a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    dense = [[QI.zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for t in range(k):
                dense[i][j] = dense[i][j] + a[i][t] * b[t][j]
    got = linear.mat_mul(a, b, QI)
    assert [[x.key() for x in row] for row in got] == [[x.key() for x in row] for row in dense]


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
    rk = linear.rank(a)
    if x is None:
        assert linear.rank([list(r) + [c] for r, c in zip(a, b)]) == rk + 1
        return
    assert all(equal(dot(row, x, QI.zero), c, Scalar.is_zero) for row, c in zip(a, b))
    assert free == n - rk


@PROPERTY
@given(a=gaussian_matrices())
def test_det_vanishes_exactly_below_full_rank(a):
    n = len(a)
    assert linear.det(a, QI).is_zero() == (linear.rank(a) < n)
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
        assert math.gcd(*(x.numerator for x in v)) == 1
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
    assert linear.hermitian_signature(h) == _numeric_signature(evs, np.max(np.abs(evs)))


def _positive(d):
    return d > 0


def _signature_reference(a, is_zero, to_rational):
    """Congruence diagonalization with field division, the loop that
    ``congruence_signature`` ran before it became division-free: a pivot d
    clears each row and column below it with the factor a_rp / d."""
    n = len(a)
    p = q = 0
    for pos in range(n):
        piv = next((k for k in range(pos, n) if not is_zero(a[k][k])), None)
        if piv is None:
            hot = next(
                ((r, c) for r in range(pos, n) for c in range(r + 1, n) if not is_zero(a[r][c])),
                None,
            )
            if hot is None:
                return p, q, n - pos
            r, c = hot
            f = a[r][c]
            a[r] = [x + f * y for x, y in zip(a[r], a[c])]
            for row in a:
                row[r] = row[r] + f.conjugate() * row[c]
            piv = r
        if piv != pos:
            a[piv], a[pos] = a[pos], a[piv]
            for row in a:
                row[piv], row[pos] = row[pos], row[piv]
        d = a[pos][pos]
        if to_rational(d) > 0:
            p += 1
        else:
            q += 1
        factors = {r: a[r][pos] / d for r in range(pos + 1, n) if not is_zero(a[r][pos])}
        for r, f in factors.items():
            a[r] = [x - f * y for x, y in zip(a[r], a[pos])]
        for r, f in factors.items():
            for row in a:
                row[r] = row[r] - f.conjugate() * row[pos]
    return p, q, 0


def _hermitian(a, zero_diagonal):
    """a + a^*, with the diagonal zeroed on request."""
    n = len(a)
    h = [[a[i][j] + a[j][i].conjugate() for j in range(n)] for i in range(n)]
    if zero_diagonal:
        for i in range(n):
            h[i][i] = h[i][i] - h[i][i]
    return h


@PROPERTY
@given(a=square(st.integers(-9, 9), 7), zero_diagonal=st.booleans())
def test_division_free_signature_matches_the_division_loop_on_integers(a, zero_diagonal):
    gram = _hermitian(a, zero_diagonal)
    expected = _signature_reference(
        [[Fraction(x) for x in row] for row in gram], operator.not_, Fraction
    )
    rows = [list(row) for row in gram]
    assert linear.congruence_signature(rows, _positive, operator.floordiv) == expected
    assert all(isinstance(x, int) for row in rows for x in row)
    assert QuadraticLattice(gram).signature == expected


@PROPERTY
@given(a=square(rationals, 6), zero_diagonal=st.booleans())
def test_division_free_signature_matches_the_division_loop_on_rationals(a, zero_diagonal):
    gram = _hermitian(a, zero_diagonal)
    expected = _signature_reference([list(row) for row in gram], operator.not_, Fraction)
    rows = [list(row) for row in gram]
    assert linear.congruence_signature(rows, _positive, operator.truediv) == expected
    assert QuadraticLattice(gram).signature == expected


@PROPERTY
@given(a=gaussian_matrices(5), zero_diagonal=st.booleans())
def test_division_free_signature_matches_the_division_loop_over_q_i(a, zero_diagonal):
    h = _hermitian(a, zero_diagonal)
    expected = _signature_reference(
        [list(row) for row in h], Scalar.is_zero, Scalar.as_rational
    )
    assert linear.hermitian_signature(h) == expected


def test_signature_of_zero_diagonal_forms():
    assert QuadraticLattice([[0, 1], [1, 0]]).signature == (1, 1, 0)
    assert QuadraticLattice([[0, 1, 0], [1, 0, 0], [0, 0, 0]]).signature == (1, 1, 1)
    assert QuadraticLattice([[0, 2, 3], [2, 0, 5], [3, 5, 0]]).signature == (1, 2, 0)
    i = QI.i
    h = ((QI.zero, i), (-i, QI.zero))
    assert linear.hermitian_signature(h) == (1, 1, 0)


def test_signature_entries_stay_the_size_of_minors():
    """Each eliminated block is divided by the previous pivot, so on a dense
    24 x 24 integer form no entry outgrows Hadamard's bound on the minors;
    without that division entry lengths would grow geometrically."""
    rng = random.Random(24)
    n, top = 24, 9
    a = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
    gram = _hermitian(a, False)
    rows = [list(row) for row in gram]
    got = linear.congruence_signature(rows, _positive, operator.floordiv)
    assert got == _signature_reference(
        [[Fraction(x) for x in row] for row in gram], operator.not_, Fraction
    )
    hadamard_bits = n * math.log2(2 * top * math.sqrt(n)) + 1
    assert max(abs(x).bit_length() for row in rows for x in row) <= hadamard_bits


# one integer matrix as each entry type of the kernels' contract: (convert,
# zero, exact division, sign test)
ENTRY_TYPES = {
    "int": (int, 0, operator.floordiv, _positive),
    "fraction": (Fraction, Fraction(0), operator.truediv, _positive),
    "gaussian": (QI.scalar, QI.zero, operator.truediv, lambda d: d.sign_at({}) > 0),
}


def _value(x):
    """An entry of any of the three types as the Fraction it is."""
    return x.as_rational() if isinstance(x, Scalar) else Fraction(x)


@PROPERTY
@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5), m=st.integers(1, 5),
       zero_diagonal=st.booleans())
def test_kernels_agree_on_ints_fractions_and_scalars(data, n, k, m, zero_diagonal):
    """Truthiness is the zero test of every kernel, so one small integer
    matrix taken as ints, as Fractions and as Q(i) scalars has the same
    product and the same congruence signature on all three, and the same
    rref pivots and reduced rows on the two fields (rref divides by its
    pivots, and int division is not exact)."""
    entry = st.one_of(st.just(0), small)
    a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    dense = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    gram = _hermitian([row[:n] + [0] * (n - len(row[:n])) for row in a], zero_diagonal)
    rrefs, signatures = {}, {}
    for name, (conv, zero, exact_div, positive) in ENTRY_TYPES.items():
        prod = linear.product([[conv(x) for x in row] for row in a],
                              [[conv(x) for x in row] for row in b], zero)
        assert [[_value(x) for x in row] for row in prod] == dense, name
        assert all(type(x) is type(zero) for row in prod for x in row), name
        rows = [[conv(x) for x in row] for row in gram]
        signatures[name] = linear.congruence_signature(rows, positive, exact_div)
        if name != "int":
            rows = [{c: conv(x) for c, x in enumerate(row) if x} for row in a]
            pivots, values, swaps = linear.rref(rows, k)
            rrefs[name] = (pivots, [_value(x) for x in values], swaps,
                           [{c: _value(x) for c, x in row.items()} for row in rows])
    assert len(set(signatures.values())) == 1, signatures
    assert rrefs["fraction"] == rrefs["gaussian"]


def test_product_of_an_empty_matrix_has_rows_of_width_zero():
    """An empty b has no first row to read the width from: the product
    keeps a's rows, each of width 0."""
    assert linear.product((), (), 0) == ()
    assert linear.product(((), ()), (), 0) == ((), ())
    assert linear.mat_mul((), (), QI) == ()


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
    # the construction needs lambda simple: no root of x^2 - s x - t in rest
    y = sympy.Symbol("y")
    assume(sympy.rem(sympy.Matrix(rest).charpoly(y).as_expr(), y**2 - s * y - t, y) != 0)
    pm = sympy.Matrix(n, n, lambda i, j: p[i][j] if i < len(p) and j < len(p) else int(i == j))
    assume(pm.det() != 0)
    conj = pm * sympy.Matrix(diag) * pm.inv()
    m = [[Fraction(int(x.p), int(x.q)) for x in conj.row(i)] for i in range(n)]
    # the kernel takes cleared rows
    v = _eigenvector_quadratic(_exact(m), char_poly(m), [-t, -s, Fraction(1)])
    assert [e for e in v if any(e)][-1] == (1, 0)
    ones, lams = [u for u, _ in v], [w for _, w in v]
    for row, (u, w) in zip(m, v):
        # (M v)_i = lambda v_i = lambda (u + w lambda) = w t + (u + w s) lambda
        assert (dot(row, ones, 0), dot(row, lams, 0)) == (w * t, u + w * s)
