"""Exact quadratic lattices and the isometry trichotomy, with certificates.

An isometry of a signature (1, n) form is exactly one of

* hyperbolic: a real eigenvalue with absolute value above 1 exists (certified
  by Sturm root isolation of the characteristic polynomial on (1, inf) and
  (-inf, -1), with the isolating interval refined below 1e-12),
* elliptic: not hyperbolic and diagonalizable (certified by r(M) = 0 for the
  squarefree part r of the characteristic polynomial),
* parabolic: not hyperbolic and not diagonalizable (certified by the
  repeated factor gcd(p, p') plus a nonzero entry of r(M)).

For signature (1, n) isometries every non-real eigenvalue lies on the unit
circle, so the real-root test captures hyperbolicity; for other signatures
``classify`` refuses instead of guessing.  All arithmetic is exact; floating
point only enters the explicitly numeric operations (power iteration,
residuals).

Every public entry (``QuadraticLattice``, ``classify``, ``power_iterate``,
``invariant_classes``, ``spectral_radius_interval``, ``char_poly``,
``verify_isometry``, ``poly_eval_matrix``, ``kernel_basis``) validates its
matrix once, in ``_exact``, which returns M = A / d as integer rows A and a
positive integer d; a bad entry raises LatticeError naming its (row, col),
and rows of plain ints build no Fraction.  The entries pass ``(A, d)`` to
each other and to the kernels, which never clear again; a lattice keeps its
Gram matrix cleared as ``(H, e)``.  The kernels run over the integers and
Z[x]: Berkowitz's division-free characteristic polynomial (run on each
diagonal block of the block-triangular form), the isometry test, r(M), the
squarefree part and the Sturm chain (primitive pseudo-remainder sequences),
the Gram matrix's signature (a division-free congruence), the lattice values
q(v, w) (of x + lambda y from q(x), q(x, y) and q(y)) and the exact
eigenvector of a rational or quadratic hyperbolic eigenvalue each scale back
to the same rationals they would have produced over Q.  A^T H A, Horner's
r(M) and the exact eigenvector's vectors follow the nonzeros of A through one
kernel, ``_sparse_times`` (a row ``{index: int}`` times a matrix listed by
its nonzero rows), and A^2 runs on ``linear.product``; none runs on
``linear.mat_mul``, which ``perfbench/tracer.py`` counts as scalar-field
work.  ``classify`` clears the characteristic polynomial to its primitive
integer multiple once, for the Sturm chain, the root isolation, the factor
and the eigenvector; its squarefree witnesses are the monic polynomial's.
Every Sturm root search takes a point as integers u / w:
one evaluator, ``_at``, gives w^deg q(u / w) for the sign counts, the
refinement and the test of the root -1; isolation halves integer ends whose
denominator doubles at each halving, building Fractions only for the
intervals it returns; and one loop with no step cap, ``_bisect``, halves
while wider than the asked width, for ``refine_interval`` (reading the sign
of the squarefree member alone) and both square-root bounds of
``spectral_radius_interval``.  The exact eigenvector needs no elimination:
for p = f g with f the eigenvalue's minimal polynomial, Cayley-Hamilton
turns a nonzero column of g(M) into it, by integer matrix-vector products
(``_eigenvector_coordinates``); only ``kernel_basis`` row reduces, over Q.
The minimal polynomial of a hyperbolic eigenvalue of an integral
characteristic polynomial with constant term +-1 is its squarefree part
without cyclotomic factors; sympy factors only a non-integral one.
``power_iterate`` after ``classify`` of one matrix on one Gram matrix reads
classify's hyperbolic verdict instead of testing again.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import sympy

from .linear import congruence_signature, product, rref


class LatticeError(ValueError):
    pass


class PowerIterationError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


# ---------------------------------------------------------------------------
# the boundary: every public entry validates and clears its matrix once
# ---------------------------------------------------------------------------


class _Exact(NamedTuple):
    """A validated rational matrix rows / denom: integer rows and a positive
    integer denominator."""

    rows: tuple
    denom: int


_INT = {int}


def _exact(matrix):
    """The matrix ``matrix`` as ``_Exact(A, d)``, validated once.

    Entries may be ints, Fractions or strings such as ``"3/4"``; a bad entry
    raises LatticeError naming its (row, col).  Rows of plain ints take a
    fast path that builds no Fraction.  An ``_Exact`` passes through, so a
    public entry handed one by another (``classify`` to ``char_poly``, say)
    neither checks nor clears it again."""
    if isinstance(matrix, _Exact):
        return matrix
    if not isinstance(matrix, (list, tuple)):
        raise LatticeError(f"expected a matrix (a list of rows), got {type(matrix).__name__}")
    rows = []
    plain = True
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise LatticeError(
                f"matrix row {i}: expected a list of entries, got {type(row).__name__}: {row!r}"
            )
        if rows and len(row) != len(rows[0]):
            raise LatticeError(
                f"ragged matrix: row {i} has {len(row)} entries, row 0 has {len(rows[0])}"
            )
        row = tuple(row)
        plain = plain and _INT.issuperset(map(type, row))
        rows.append(row)
    if plain:
        return _Exact(tuple(rows), 1)
    return _Exact(*_cleared(
        [[_as_fraction(x, f"matrix entry ({i}, {j})") for j, x in enumerate(row)]
         for i, row in enumerate(rows)]
    ))


def _as_fraction(x, where):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise LatticeError(f"{where}: zero denominator in {x!r}") from None
        except ValueError:
            raise LatticeError(f"{where}: not a rational number: {x!r}") from None
    raise LatticeError(
        f"{where}: expected an exact rational (an integer, a Fraction or a string "
        f"such as '3/4'), got {type(x).__name__}: {x!r}"
    )


def _cleared(m):
    """Integer rows A and a positive integer d with m = A / d, for rows of
    Fractions."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m), d


def _over_common(v):
    """A vector of rationals as integer numerators over their least common
    denominator."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _nonzero_rows(rows):
    """Each row as the list of its nonzero (column, entry) pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def _floats(a, d):
    """A / d as a numpy array; each entry is float(Fraction(x, d)), since
    int true division rounds correctly."""
    return np.array([[x / d for x in row] for row in a], dtype=float)


def _shifted(m, u):
    """A - d u I for M = A / d: an integer multiple of M - u I."""
    a, d = m
    du = d * u
    return _Exact(
        tuple(tuple(x - du if i == j else x for j, x in enumerate(row))
              for i, row in enumerate(a)),
        1,
    )


class QuadraticLattice:
    """An exact symmetric Gram matrix G = H / e with its cached signature.

    ``cleared`` holds the integer rows H and the positive denominator e."""

    def __init__(self, gram):
        self.cleared = h = _exact(gram)
        n = len(h.rows)
        if any(len(r) != n for r in h.rows):
            raise LatticeError("gram matrix must be square")
        if h.rows != tuple(zip(*h.rows)):
            raise LatticeError("gram matrix is not symmetric")
        self._nonzero = _nonzero_rows(h.rows)
        # H = e G with e > 0 has the signature of G
        self.signature = congruence_signature(
            [list(r) for r in h.rows], lambda d: d > 0, operator.floordiv
        )

    @property
    def dim(self):
        return len(self.cleared.rows)

    def endomorphism(self, matrix):
        """``matrix`` validated as ``_Exact(A, d)``; LatticeError unless it
        is dim x dim."""
        m = _exact(matrix)
        a, n = m.rows, self.dim
        if len(a) != n or any(len(r) != n for r in a):
            raise LatticeError(f"matrix is {len(a)}x{len(a[0]) if a else 0}, lattice has rank {n}")
        return m

    def seed_vector(self, v):
        """``v`` validated as a list of dim rationals (Fractions)."""
        if not isinstance(v, (list, tuple)) or len(v) != self.dim:
            raise LatticeError(f"seed vector must be a list of {self.dim} entries")
        return [_as_fraction(x, f"seed vector entry {k}") for k, x in enumerate(v)]

    def value(self, v, w=None):
        """q(v, w) = v^T G w for rational vectors (ints or Fractions), as
        one integer sum over the vectors' common denominators, then one
        division."""
        v, v_den = _over_common(v)
        w, w_den = (v, v_den) if w is None else _over_common(w)
        total = sum(x * sum(g * w[j] for j, g in row) for x, row in zip(v, self._nonzero) if x)
        return Fraction(total, v_den * w_den * self.cleared.denom)

    def __repr__(self):
        return f"QuadraticLattice(dim={self.dim}, signature={self.signature})"


@dataclass
class IsometryCheck:
    ok: bool
    residual: tuple | None = None


def _sparse_times(row, rows, out=None):
    """out + row R over the integers, for a row ``{index: int}`` and a matrix
    R listed by its nonzero rows, each (col, entry) pairs as ``_nonzero_rows``
    gives them, as ``{col: value}`` with zeros dropped; ``out`` (a dict,
    empty by default) is added into."""
    out = {} if out is None else out
    for k, x in row.items():
        for j, y in rows[k]:
            out[j] = out.get(j, 0) + x * y
    return {j: v for j, v in out.items() if v}


def verify_isometry(matrix, lattice: QuadraticLattice) -> IsometryCheck:
    """Exact test M^T G M = G, run as A^T H A = d^2 H over the integers for
    M = A / d and G = H / e, through the nonzeros of H and A; the residual
    M^T G M - G is that difference divided by d^2 e."""
    a, d = lattice.endomorphism(matrix)
    h, e = lattice.cleared
    d2 = d * d
    a_rows = _nonzero_rows(a)
    ha = [_sparse_times(dict(nz), a_rows).items() for nz in lattice._nonzero]
    lhs = [_sparse_times(dict(col), ha) for col in _nonzero_rows(zip(*a))]
    if all(row == {j: d2 * g for j, g in nz} for row, nz in zip(lhs, lattice._nonzero)):
        return IsometryCheck(True)
    den = d2 * e
    res = tuple(
        tuple(Fraction(row.get(j, 0) - d2 * y, den) for j, y in enumerate(rh))
        for row, rh in zip(lhs, h)
    )
    return IsometryCheck(False, res)


# ---------------------------------------------------------------------------
# exact polynomials (dense, ascending coefficients): over Q as Fraction lists,
# over Z as int lists for the remainder sequences
# ---------------------------------------------------------------------------


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    """p over Z divided by the positive gcd of its coefficients."""
    c = math.gcd(*p)
    return [x // c for x in p] if c > 1 else p


def _prem(a, b):
    """A positive integer multiple of the remainder of a by b over Z: each
    step scales by |lc(b)| before cancelling the top coefficient."""
    if b[-1] < 0:
        b = [-x for x in b]
    lc, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        c = r.pop()
        k = len(r) - db
        r = [lc * x for x in r]
        for i in range(db):
            r[k + i] -= c * b[i]
        poly_trim(r)
    return r


def _divmod_int(p, q):
    """Quotient and remainder of p by q over Z, for q monic or dividing p in
    Z[x] (then every step's division is exact)."""
    r = list(p)
    dq = len(q) - 1
    quo = [0] * max(0, len(p) - dq)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = r[k + dq] // q[-1]
        if c:
            for i in range(dq + 1):
                r[k + i] -= c * q[i]
    return quo, poly_trim(r[:dq])


def _int_poly(p):
    """The primitive integer positive multiple of a rational polynomial."""
    c, _ = _over_common(poly_trim(list(p)))
    return _primitive(c) if c else []


def _squarefree_int(q):
    """(q / g, g) for g = gcd(q, q') over Z, from a primitive remainder
    sequence.  g has a positive leading coefficient, so q / g is a positive
    multiple of q over the monic gcd; for a primitive q both are primitive."""
    a, b = q, _primitive(poly_derivative(q))
    while b:
        a, b = b, _primitive(_prem(a, b))
    g = a if a[-1] > 0 else [-x for x in a]
    if len(g) == 1:
        return q, [1]
    return _divmod_int(q, g)[0], g


def poly_derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def poly_eval_matrix(p, matrix):
    """p(M) exactly, as rows of Fractions."""
    out, den = _horner(p, _exact(matrix))
    return tuple(tuple(Fraction(row.get(j, 0), den) for j in range(len(out))) for row in out)


def _horner(p, m):
    """Integer rows R, as ``{col: value}`` dicts of their nonzeros, and a
    positive integer D with p(M) = R / D.  With M = A / d and L the lcm of
    p's denominators, the integer Horner sum sum_k (L c_k) d^(deg - k) A^k
    equals L d^deg p(M)."""
    a, d = m
    a_rows = _nonzero_rows(a)
    c, lc = _over_common(p)
    deg = len(c) - 1
    out = [{} for _ in a]
    for k in range(deg, -1, -1):
        ck = c[k] * d ** (deg - k)
        out = [_sparse_times(row, a_rows, {i: ck}) for i, row in enumerate(out)]
    return out, lc * d ** max(deg, 0)


def squarefree_part(p):
    """(r, g) with g = gcd(p, p') monic and r = p / g, as Fraction lists; the
    gcd comes from a primitive remainder sequence over Z."""
    q = _int_poly(p)
    if not q:
        return [], []
    r, g = _squarefree_int(q)
    if len(g) == 1:
        return list(p), [Fraction(1)]
    # r is a positive multiple of p / g, with p's leading coefficient
    lead = Fraction(p[len(q) - 1]) / r[-1]
    return [c * lead for c in r], [Fraction(c, g[-1]) for c in g]


def char_poly(matrix):
    """Exact characteristic polynomial det(t I - M); ascending coefficients,
    monic of degree n, in a new list on every call.

    Berkowitz runs over the integers on A = d M; the coefficient of t^(n-i)
    of det(t I - A) is d^i times that of det(t I - M)."""
    a, d = _exact(matrix)
    n = len(a)
    if any(len(r) != n for r in a):
        raise LatticeError("characteristic polynomial needs a square matrix")
    return [Fraction(c, d**i) for i, c in enumerate(_berkowitz(a))][::-1]


def _berkowitz(a):
    """The coefficients of det(t I - A) from t^n down to t^0, for integer
    rows A (a tuple of tuples).

    Ordering the strongly connected components of the digraph i -> j
    (A_ij != 0, i != j) topologically permutes A to block-triangular form, a
    similarity, so det(t I - A) is the product over the components of the
    characteristic polynomials of their principal submatrices; each comes
    from the division-free Berkowitz loop."""
    out = [1]
    for block in _components(a):
        q = _berkowitz_dense([[a[i][j] for j in block] for i in block])
        prod = [0] * (len(out) + len(q) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(q):
                prod[i + j] += x * y
        out = prod
    return tuple(out)


def _components(a):
    """The strongly connected components of the digraph i -> j for
    A_ij != 0, i != j, each as its indices in increasing order: Tarjan's
    algorithm with an explicit stack, so no dimension meets the recursion
    limit.  A vertex's ``low`` becomes n once its component is out, so it
    no longer lowers another's."""
    n = len(a)
    succ = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(a)]
    index, low = [n] * n, [n] * n
    stack, comps = [], []
    count = 0
    for root in range(n):
        if index[root] < n:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == n:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        low[comp[-1]] = n
                    comps.append(sorted(comp))
                else:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comps


def _berkowitz_dense(a):
    """The coefficients of det(t I - A) from t^n down to t^0, for n >= 1
    integer rows A, by the division-free Berkowitz algorithm."""
    n = len(a)
    # iteratively build the coefficient vector via Toeplitz products
    vec = [1, -a[0][0]]
    for k in range(1, n):
        row = a[k][:k]
        block = [r[:k] for r in a[:k]]
        # products row * block^s * col for s = 0..k-1
        cur = [r[k] for r in a[:k]]
        prods = [sum(map(operator.mul, row, cur))]
        for _ in range(k - 1):
            cur = [sum(map(operator.mul, r, cur)) for r in block]
            prods.append(sum(map(operator.mul, row, cur)))
        toep = [1, -a[k][k]] + [-p for p in prods]
        # vec_i = sum_j toep_(i-j) vec_j
        vec = [sum(map(operator.mul, toep[i::-1], vec)) for i in range(k + 2)]
    return vec


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation
# ---------------------------------------------------------------------------


def sturm_chain(p):
    """Sturm chain of the squarefree part of p as a primitive remainder
    sequence over Z: each pseudo-remainder has a positive multiplier and is
    divided by its content, so every member is a positive multiple of the
    Euclidean member over Q and every sign count is the same."""
    q = _int_poly(p)
    if not q:
        return [[], []]
    p0, _ = _squarefree_int(q)
    chain = [p0, _primitive(poly_derivative(p0))]
    while chain[-1]:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return chain


def _at(q, u, w):
    """The integer w^deg q(u / w) = sum_k c_k u^k w^(deg - k) for integers u
    and w > 0: it has the sign of q(u / w)."""
    v, wk = 0, 1
    for c in reversed(q):
        v = v * u + c * wk
        wk *= w
    return v


def _variations(chain, u, w):
    """Sign changes along the chain at u / w, for w > 0."""
    signs = [v > 0 for v in (_at(q, u, w) for q in chain) if v]
    return sum(map(operator.ne, signs, signs[1:]))


def sign_variations(chain, x):
    """Sign changes along the chain at the rational x."""
    return _variations(chain, x.numerator, x.denominator)


def count_roots_halfopen(chain, a, b):
    """Number of distinct real roots in (a, b]."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_bound(p):
    """1 + max |c_k| / |lc(p)|, above the absolute value of every root of p,
    as a Fraction for int and Fraction coefficients alike."""
    m = max((abs(c) for c in p[:-1]), default=0)
    return 1 + Fraction(m) / abs(p[-1])


def isolate_real_roots(chain, lo, hi):
    """Disjoint isolating intervals (a, b] for the distinct roots in (lo, hi]
    of the polynomial whose Sturm chain is ``chain``, in increasing order.

    The ends are integer numerators over one denominator per interval, which
    doubles at each halving; only the returned ends become Fractions."""
    (a, b), den = _over_common((lo, hi))
    work = [(a, b, den, _variations(chain, a, den), _variations(chain, b, den))]
    out = []
    while work:
        a, b, den, va, vb = work.pop()
        if va - vb == 1:
            out.append((Fraction(a, den), Fraction(b, den)))
        elif va > vb:
            # half-open intervals: a root exactly at the midpoint lands in (a, mid];
            # the right half goes on the stack first, so the left one is done first
            mid, den = a + b, den << 1
            vm = _variations(chain, mid, den)
            work += [(mid, b << 1, den, vm, vb), (a << 1, mid, den, va, vm)]
    return out


def refine_interval(chain, a, b, width=Fraction(1, 10**12)):
    """Bisect an isolating interval (a, b] of a root lambda until it is at
    most ``width`` wide; ``chain`` is the Sturm chain of the polynomial.

    The Sturm counts V(a) - V(b) = 1 certify that lambda is the only root
    in (a, b] of the chain's squarefree member p0, and a simple one, so p0
    changes sign at lambda and nowhere else in (a, b].  Each of the
    V(b) - V(+inf) roots above b flips the sign of p0 once more, so p0 has
    the sign sigma = sign(lc p0) (-1)^(V(b) - V(+inf)) just right of
    lambda, and lambda lies in (a, mid] exactly when p0(mid) = 0 or p0(mid)
    has the sign sigma: the intervals are those of bisecting by Sturm
    counts, found by ``_bisect`` from one evaluation of p0 per step."""
    if width <= 0:
        raise LatticeError(f"refine width must be positive, got {width}")
    vb = sign_variations(chain, b)
    found = sign_variations(chain, a) - vb
    if found != 1:
        raise LatticeError(f"({a}, {b}] holds {found} roots, not exactly one")
    p0 = chain[0]
    lead = [q[-1] > 0 for q in chain]
    v_inf = sum(map(operator.ne, lead, lead[1:]))
    sigma = (p0[-1] > 0) == ((vb - v_inf) % 2 == 0)  # p0 > 0 just right of lambda

    def upper(m, w):
        v = _at(p0, m, w)
        return v == 0 or (v > 0) == sigma

    (lo, hi), den = _over_common((a, b))
    lo, hi, den = _bisect(lo, hi, den, upper, Fraction(width))
    return Fraction(lo, den), Fraction(hi, den)


def _bisect(a, b, den, upper, width):
    """Halve [a / den, b / den] while it is wider than ``width``: a midpoint
    m / w where ``upper(m, w)`` holds becomes the upper end, any other the
    lower end.  The ends stay integer numerators over one denominator,
    doubled at each step; returns them and that denominator.  ``width`` must
    be positive, else the loop would not end."""
    w_num, w_den = width.numerator, width.denominator
    while (b - a) * w_den > w_num * den:
        mid, den = a + b, den << 1
        if upper(mid, den):
            a, b = a << 1, mid
        else:
            a, b = mid, b << 1
    return a, b, den


def real_roots_outside_unit(p, chain):
    """Isolating intervals for real roots of p with absolute value above 1;
    ``chain`` is the Sturm chain of p."""
    bound = cauchy_bound(p)
    below = isolate_real_roots(chain, -bound, Fraction(-1))
    # an interval (a, -1] isolates -1 itself exactly when -1 is a root
    if below and below[-1][1] == -1 and not _at(chain[0], -1, 1):
        below.pop()
    return isolate_real_roots(chain, Fraction(1), bound) + below


# ---------------------------------------------------------------------------
# classification with certificates
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    label: str  # "elliptic" | "parabolic" | "hyperbolic"
    certificate: dict = field(default_factory=dict)

    def __repr__(self):
        return f"Classification({self.label})"


def _min_poly_factor_for_interval(p, a, b):
    """The irreducible factor of the characteristic polynomial of a
    Lorentzian isometry that has a root in the isolating interval (a, b],
    for p that polynomial or its primitive integer multiple: the multiple
    is monic exactly when the polynomial is integral.

    When p is monic over Z with p(0) = +-1 the factor is the squarefree part
    of p with every cyclotomic factor divided out.  Proof: such an isometry
    has exactly one eigenvalue lambda with |lambda| > 1, a simple one, and
    all others are 1 / lambda or lie on the unit circle.  The monic
    irreducible factors of p are integral (Gauss) and each one's constant
    term divides p(0), so the product of its roots has absolute value 1:
    the factor f with root lambda also has the root 1 / lambda, and every
    other factor has all its roots on the unit circle, so it is a
    cyclotomic Phi_k (Kronecker) with phi(k) <= deg p.  Otherwise sympy
    factors p over Q.  Either way the factor's Sturm chain must isolate
    (a, b]."""
    if p[-1] == 1 and abs(p[0]) == 1 and all(c.denominator == 1 for c in p):
        r, _ = _squarefree_int([int(c) for c in p])
        candidates = [[Fraction(c) for c in _cyclotomic_free(r)]]
    else:
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(p)], x, domain="QQ")
        candidates = [
            [Fraction(c.p, c.q) for c in reversed(factor.all_coeffs())]
            for factor, _mult in poly.factor_list()[1]
        ]
    for factor in candidates:
        if count_roots_halfopen(sturm_chain(factor), a, b) == 1:
            return factor
    raise LatticeError("no factor isolates the interval (internal error)")


def _cyclotomic_free(r):
    """The monic squarefree r over Z with each cyclotomic factor divided out."""
    for phi in _cyclotomics(len(r) - 1):
        if len(phi) <= len(r):
            q, rem = _divmod_int(r, phi)
            if not rem:
                r = q
    return r


@functools.cache
def _cyclotomics(n):
    """Phi_k for every k with phi(k) <= n.  Since phi(k) >= sqrt(k / 2), no
    such k exceeds 2 n^2."""
    top = 2 * n * n
    totient = list(range(top + 1))
    for k in range(2, top + 1):
        if totient[k] == k:  # k is prime
            for j in range(k, top + 1, k):
                totient[j] -= totient[j] // k
    return tuple(_cyclotomic(k) for k in range(1, top + 1) if totient[k] <= n)


@functools.cache
def _cyclotomic(k):
    """Phi_k = (x^k - 1) / prod of Phi_d over the proper divisors d of k."""
    phi = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            phi = _divmod_int(phi, _cyclotomic(d))[0]
    return tuple(phi)


def _eigenvector_coordinates(m, p, f):
    """An eigenvector of M = A / d for a simple eigenvalue lambda with
    minimal polynomial f (primitive over Z, degree k), for p the primitive
    integer multiple of the characteristic polynomial, as k integer vectors
    w_0, .., w_(k-1): the eigenvector is sum_i lambda^i w_i, up to a nonzero
    rational factor.

    p = f g with g over Z (Gauss), and g(M) != 0 since lambda is simple, so
    some column z of g(M) is nonzero and f(M) z = p(M) e_j = 0
    (Cayley-Hamilton).  From f(x) - f(y) = (x - y) sum_i y^i sum_j
    f_(j+1+i) x^j, the vector v = sum_i lambda^i u_i with
    u_i = sum_j f_(j+1+i) M^j z has (M - lambda) v = f(M) z = 0, and
    u_(k-1) = f_k z != 0.  On integers: z is d^deg(g) g(M) e_j by Horner,
    U_i = d^(k-1-i) u_i by U_(k-1) = f_k z and U_i = A U_(i+1) +
    d^(k-1-i) f_(i+1) z, and w_i = d^i U_i, so d^(k-1) v = sum_i lambda^i w_i."""
    a, d = m
    n = len(a)
    g = _divmod_int(p, f)[0]
    # A v for v = {index: int} is v times the rows of A^T, the columns of A
    cols = _nonzero_rows(zip(*a))
    top = len(g) - 1
    for j in range(n):
        z = {j: g[top]}
        for i in range(top - 1, -1, -1):
            z = _sparse_times(z, cols, {j: g[i] * d ** (top - i)})
        if z:
            break
    else:
        raise LatticeError("g(M) = 0: the eigenvalue is not simple (internal error)")
    k = len(f) - 1
    us = [{j: f[k] * x for j, x in z.items()}]
    for i in range(k - 2, -1, -1):
        c = f[i + 1] * d ** (k - 1 - i)
        us.append(_sparse_times(us[-1], cols, {j: c * x for j, x in z.items()}))
    return [[d**i * u.get(j, 0) for j in range(n)] for i, u in enumerate(reversed(us))]


def _eigenvector_quadratic(m, p, f):
    """The eigenvector for an eigenvalue lambda with quadratic minimal
    polynomial f, as pairs (a, b) of Fractions meaning a + b lambda, divided
    by its last nonzero entry: the vector that the free column of the reduced
    echelon form of M - lambda I over Q(lambda) gives.

    For f's primitive multiple (F0, F1, F2) the norm of c + e lambda is
    N / F2 with N = F2 c^2 - F1 c e + F0 e^2, and
    (a + b lambda) / (c + e lambda) = (a (F2 c - F1 e) + F0 b e
    + F2 (b c - a e) lambda) / N."""
    f = _int_poly(f)
    f0, f1, f2 = f
    w0, w1 = _eigenvector_coordinates(m, p, f)
    c, e = next((x, y) for x, y in zip(reversed(w0), reversed(w1)) if x or y)
    norm = f2 * c * c - f1 * c * e + f0 * e * e
    u = f2 * c - f1 * e
    return [
        (Fraction(x * u + f0 * y * e, norm), Fraction(f2 * (y * c - x * e), norm))
        for x, y in zip(w0, w1)
    ]


def classify(matrix, lattice: QuadraticLattice) -> Classification:
    """Isometry trichotomy with certificates; exactly one branch is taken."""
    m = _exact(matrix)
    chk = verify_isometry(m, lattice)
    if not chk.ok:
        raise LatticeError("matrix is not an isometry of the lattice")
    if not _lorentzian(lattice):
        raise LatticeError(
            f"classification requires signature (1, n, 0), got {lattice.signature}; "
            "refusing to guess"
        )
    p = char_poly(m)
    q = _int_poly(p)  # the primitive integer multiple, cleared once
    chain = sturm_chain(q)
    off_unit = real_roots_outside_unit(q, chain)
    _remember_verdict((m, lattice.cleared), bool(off_unit))
    if off_unit:
        # take the interval with the largest absolute value endpoints
        best = max(off_unit, key=lambda ab: max(abs(ab[0]), abs(ab[1])))
        a, b = refine_interval(chain, best[0], best[1])
        factor = _min_poly_factor_for_interval(q, a, b)
        cert = {
            "lambda_interval": (a, b),
            "interval_width": b - a,
            "min_poly_degree": len(factor) - 1,
        }
        if len(factor) == 2:
            ev = _eigenvector_int_kernel(m, q, factor)
            cert["eigenvector"] = ev
            cert["eigenvector_field"] = "rational"
            cert["q_value"] = lattice.value(ev)
        elif len(factor) == 3:
            s = -factor[1] / factor[2]
            t = -factor[0] / factor[2]
            v = _eigenvector_quadratic(m, q, factor)
            cert["eigenvector"] = v
            cert["eigenvector_field"] = f"quadratic: x^2 = {s}*x + {t}"
            cert["q_value"] = _quad_q_value(lattice, v, s, t)
        else:
            lam_num = float((a + b) / 2)
            vec, res = _numeric_eigenvector(m, lam_num)
            cert["eigenvector"] = [float(x) for x in vec]
            cert["eigenvector_field"] = "numeric"
            cert["eigenvector_residual"] = res
        return Classification("hyperbolic", cert)
    # the witnesses are those of the monic p: q is not monic when d > 1
    r, g = squarefree_part(p)
    rm, _ = _horner(r, m)  # a positive multiple of r(M), as dict rows
    if not any(rm):
        return Classification(
            "elliptic",
            {
                "squarefree_witness": [str(c) for c in r],
                "note": "r(M) = 0 for the squarefree part r of the characteristic polynomial",
            },
        )
    witness = next((i, min(row)) for i, row in enumerate(rm) if row)
    fixed = kernel_basis(_shifted(m, 1))
    return Classification(
        "parabolic",
        {
            "repeated_factor": [str(c) for c in g],
            "nonzero_entry_of_r_of_M": witness,
            "eigenvalue_one_space": [[str(x) for x in v] for v in fixed],
            "eigenvalue_one_q_values": [str(lattice.value(v)) for v in fixed],
        },
    )


# classify's boolean hyperbolic verdict on the last 8 (M, lattice.cleared)
# pairs, oldest first, for power_iterate to read
_VERDICTS = {}


def _remember_verdict(key, hyperbolic):
    _VERDICTS.pop(key, None)
    _VERDICTS[key] = hyperbolic
    if len(_VERDICTS) > 8:
        del _VERDICTS[next(iter(_VERDICTS))]


def _lorentzian(lattice):
    """Signature (1, n, 0) with n >= 1, where the real-root test decides."""
    p_, q_, z_ = lattice.signature
    return p_ == 1 and z_ == 0 and q_ >= 1


def _eigenvector_int_kernel(m, p, f):
    """The eigenvector for a rational eigenvalue with minimal polynomial f:
    the primitive integer vector whose last nonzero entry is positive, which
    is what ``kernel_basis`` gives for the one-dimensional kernel."""
    (v,) = _eigenvector_coordinates(m, p, _int_poly(f))
    g = math.gcd(*v)
    if next(x for x in reversed(v) if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in v)


def _quad_q_value(lattice, v, s, t):
    """q(v, v) for a vector of pairs (a, b) meaning a + b lambda, with
    lambda^2 = s lambda + t, as a pair in the same coordinates: for
    v = x + lambda y, q(v) = q(x) + t q(y) + (2 q(x, y) + s q(y)) lambda."""
    x, y = zip(*v)
    qy = lattice.value(y)
    return lattice.value(x) + t * qy, 2 * lattice.value(x, y) + s * qy


def _numeric_eigenvector(m, lam):
    a = _floats(*m)
    evals, evecs = np.linalg.eig(a)
    k = int(np.argmin(np.abs(evals - lam)))
    v = np.real_if_close(evecs[:, k])
    v = np.real(v)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise LatticeError("numeric eigenvector is zero")
    v = v / nrm
    res = float(np.linalg.norm(a @ v - lam * v))
    if res > 1e-10:
        raise LatticeError(f"numeric eigenvector residual {res} above 1e-10")
    return v, res


def kernel_basis(matrix):
    """Exact kernel basis of a rational matrix, integer-cleared.  The
    reduced row echelon form of A = d M is that of M, so it is taken of A."""
    a = _exact(matrix).rows
    cols = len(a[0]) if a else 0
    m = [{c: Fraction(x) for c, x in enumerate(row) if x} for row in a]
    pivots, _, _ = rref(m, cols)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [0] * cols
        v[free] = 1
        for row, col in zip(m, pivots):
            v[col] = -row.get(free, 0)
        # primitive over the lcm L of its denominators: each prime power that
        # exactly divides L exactly divides some entry's denominator, and
        # that entry's numerator over L is prime to it
        v, _ = _over_common(v)
        basis.append(tuple(map(Fraction, v)))
    return basis


@dataclass
class InvariantClassReport:
    kernel: list
    q_values: list
    restricted_signature: tuple | None
    negativity_verified: bool | None  # None when not applicable (not hyperbolic)
    label: str
    invariant_positive_class_possible: bool | None


def invariant_classes(matrix, lattice: QuadraticLattice) -> InvariantClassReport:
    """Kernel of (M - Id) with q-values; for hyperbolic isometries the
    restriction of the form to the kernel is checked negative definite, which
    rules out any invariant class of nonnegative square (in particular an
    invariant Kahler-type class)."""
    m = _exact(matrix)
    chk = verify_isometry(m, lattice)
    if not chk.ok:
        raise LatticeError("matrix is not an isometry of the lattice")
    ker = kernel_basis(_shifted(m, 1))
    qv = [lattice.value(v) for v in ker]
    label = classify(m, lattice).label
    if label != "hyperbolic":
        return InvariantClassReport(ker, qv, None, None, label, None)
    if not ker:
        return InvariantClassReport(ker, qv, (0, 0, 0), True, label, False)
    k = len(ker)
    restricted = [
        [lattice.value(ker[i], ker[j]) for j in range(k)] for i in range(k)
    ]
    sig = QuadraticLattice(restricted).signature
    negdef = sig == (0, k, 0)
    return InvariantClassReport(ker, qv, sig, negdef, label, not negdef)


# ---------------------------------------------------------------------------
# power iteration (numeric, with exact cross-checks available)
# ---------------------------------------------------------------------------


@dataclass
class PowerIterationResult:
    eta: list
    lam: float
    residuals: list
    q_value: float
    iterations: int


def power_iterate(
    matrix,
    lattice: QuadraticLattice,
    seed_vector=None,
    tol: float = 1e-10,
    max_iters: int = 200,
) -> PowerIterationResult:
    """Normalized power iteration toward the dominant eigenvector.

    Requires a hyperbolic isometry (otherwise there is no dominant
    eigenvalue and the call fails); after ``classify`` of the same matrix on
    the same Gram matrix the test reads its verdict.  When the iteration
    stalls for 50 steps (a seed exactly inside the complementary invariant
    subspace) one deterministic perturbation of size 1e-8 is injected before
    giving up.
    """
    m = _exact(matrix)
    hyperbolic = _VERDICTS.get((m, lattice.cleared))
    if hyperbolic is None:
        # classify's hyperbolic test, without its certificate work
        hyperbolic = (
            verify_isometry(m, lattice).ok
            and _lorentzian(lattice)
            and real_roots_outside_unit(p := char_poly(m), sturm_chain(p))
        )
    if not hyperbolic:
        # classify raises the refusal, or names the label that has no dominant eigenvalue
        label = classify(m, lattice).label
        raise PowerIterationError(f"no dominant eigenvalue: isometry is {label}")
    n = len(m.rows)
    a = _floats(*m)
    g = _floats(*lattice.cleared)
    if seed_vector is None:
        x = np.ones(n) / np.sqrt(n)
    else:
        x = np.array([float(v) for v in lattice.seed_vector(seed_vector)])
        nx = np.linalg.norm(x)
        if nx == 0:
            raise PowerIterationError("seed vector is zero")
        x = x / nx
    residuals = []
    best = np.inf
    stalled = 0
    perturbed = False

    def perturb(v):
        bump = np.arange(1, n + 1, dtype=float)
        v = v + 1e-8 * bump / np.linalg.norm(bump)
        return v / np.linalg.norm(v)

    for it in range(1, max_iters + 1):
        y = a @ x
        ny = np.linalg.norm(y)
        if ny == 0:
            raise PowerIterationError("iterate fell into the kernel", residuals)
        x = y / ny
        lam = float(x @ (a @ x))
        res = float(np.linalg.norm(a @ x - lam * x))
        residuals.append(res)
        if res < tol:
            if abs(lam) <= 1.0:
                # converged inside the complementary invariant subspace (a
                # seed exactly on a non-dominant eigenvector); kick once
                if perturbed:
                    raise PowerIterationError(
                        "converged to a non-dominant eigenvalue "
                        f"{lam:.6g} even after perturbation",
                        residuals,
                    )
                x = perturb(x)
                perturbed = True
                best = np.inf
                stalled = 0
                continue
            qv = float(x @ g @ x)
            return PowerIterationResult([float(v) for v in x], lam, residuals, qv, it)
        if res < best * (1 - 1e-12):
            best = res
            stalled = 0
        else:
            stalled += 1
            if stalled >= 50 and not perturbed:
                x = perturb(x)
                perturbed = True
                stalled = 0
    raise PowerIterationError(
        f"no convergence within {max_iters} iterations (last residual {residuals[-1]:.3e})",
        residuals,
    )


# ---------------------------------------------------------------------------
# spectral radius certification through an all-real-spectrum square
# ---------------------------------------------------------------------------


def spectral_radius_interval(matrix, width=Fraction(1, 10**10)):
    """A certified rational interval around the spectral radius.

    Works through M^2: when every eigenvalue of M^2 is real (certified by
    Sturm counting on the squarefree part of its characteristic polynomial),
    the spectral radius of M is the square root of the largest absolute
    eigenvalue of M^2, and rational bounds follow by bisection.  Raises when
    the square has non-real spectrum, and on a width that is not positive.
    """
    if width <= 0:
        raise LatticeError(f"spectral radius width must be positive, got {width}")
    width = Fraction(width)
    a, d = _exact(matrix)
    # M^2 = A^2 / d^2, squared over the integers
    p2 = char_poly(_Exact(product(a, a, 0), d * d))
    sf, _g = squarefree_part(p2)
    chain = sturm_chain(sf)  # also the chain of p2, which has the same roots
    # every root lies strictly inside (-bound, bound), so none sits at -bound
    bound = cauchy_bound(sf)
    total = count_roots_halfopen(chain, -bound, bound)
    if total != len(sf) - 1:
        raise LatticeError(
            "spectral radius certification requires M^2 to have all-real spectrum"
        )
    roots = [refine_interval(chain, a, b, width=width / 4)
             for a, b in isolate_real_roots(chain, -bound, bound)]
    if not roots:
        raise LatticeError("matrix has no eigenvalues (empty spectrum?)")
    target = width / 4
    half = width / 2
    while True:
        # the k-th root's |root| lies between the least and the largest |x|
        # on its interval, so the largest |root| lies in [lo, hi]
        lo = max(min(abs(a), abs(b)) if a * b >= 0 else Fraction(0) for a, b in roots)
        hi = max(max(abs(a), abs(b)) for a, b in roots)
        # rational bounds s_lo^2 <= lo and s_hi^2 >= hi by bisecting [0, s2],
        # for s2 = max(1, hi) >= sqrt(hi); x = m / w has x^2 > lo as
        # m^2 lo.den > lo.num w^2, and x^2 >= hi alike
        s2 = max(Fraction(1), hi)
        top = s2.numerator
        s_lo, _, den = _bisect(
            0, top, s2.denominator,
            lambda m, w: m * m * lo.denominator > lo.numerator * w * w, half,
        )
        _, s_hi, den_hi = _bisect(
            s_lo, top * (den // s2.denominator), den,
            lambda m, w: m * m * hi.denominator >= hi.numerator * w * w, half,
        )
        if Fraction(s_hi, den_hi) - Fraction(s_lo, den) <= width:
            return Fraction(s_lo, den), Fraction(s_hi, den_hi)
        # near 0 the square root stretches the interval: sqrt(hi) - sqrt(lo)
        # can reach sqrt(hi - lo), so the roots of p2 are refined on to
        # (width / 4)^2, and further while the result is still too wide
        target = min(target / 4, (width / 4) ** 2)
        roots = [refine_interval(chain, a, b, width=target) for a, b in roots]
