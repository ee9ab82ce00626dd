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
``classify`` refuses instead of guessing.  All polynomial arithmetic is over
exact rationals (Berkowitz for characteristic polynomials, Sturm chains for
root counting); floating point only enters the explicitly numeric operations
(power iteration, residuals).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy

from .linear import congruence_signature, rref


class LatticeError(ValueError):
    pass


class PowerIterationError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------


def rational_matrix(rows):
    out = []
    width = None
    for r in rows:
        row = tuple(_as_fraction(x) for x in r)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise LatticeError("ragged matrix")
        out.append(row)
    return tuple(out)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise LatticeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)) for i in range(n)
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _transpose(a):
    return tuple(zip(*a))


def _identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _is_zero(a):
    return all(x == 0 for row in a for x in row)


class QuadraticLattice:
    """An exact symmetric Gram matrix with its cached signature."""

    def __init__(self, gram):
        self.gram = rational_matrix(gram)
        n = len(self.gram)
        if any(len(r) != n for r in self.gram):
            raise LatticeError("gram matrix must be square")
        if any(self.gram[i][j] != self.gram[j][i] for i in range(n) for j in range(i)):
            raise LatticeError("gram matrix is not symmetric")
        self.signature = congruence_signature(
            [list(row) for row in self.gram], operator.not_, Fraction
        )

    @property
    def dim(self):
        return len(self.gram)

    def value(self, v, w=None):
        w = v if w is None else w
        return sum(
            self.gram[i][j] * v[i] * w[j] for i in range(self.dim) for j in range(self.dim)
        )

    def __repr__(self):
        return f"QuadraticLattice(dim={self.dim}, signature={self.signature})"


@dataclass
class IsometryCheck:
    ok: bool
    residual: tuple | None = None


def verify_isometry(matrix, lattice: QuadraticLattice) -> IsometryCheck:
    """Exact test M^T G M = G."""
    m = rational_matrix(matrix)
    if len(m) != lattice.dim or any(len(r) != lattice.dim for r in m):
        raise LatticeError(
            f"matrix is {len(m)}x{len(m[0]) if m else 0}, lattice has rank {lattice.dim}"
        )
    lhs = _mat_mul(_mat_mul(_transpose(m), lattice.gram), m)
    res = _mat_sub(lhs, lattice.gram)
    if _is_zero(res):
        return IsometryCheck(True)
    return IsometryCheck(False, res)


# ---------------------------------------------------------------------------
# exact polynomials over Q (dense, ascending coefficients)
# ---------------------------------------------------------------------------


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_neg(p):
    return [-c for c in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    d = len(q) - 1
    lc = q[-1]
    quo = [Fraction(0)] * max(0, len(p) - d)
    while len(r) - 1 >= d and r:
        k = len(r) - 1 - d
        f = r[-1] / lc
        quo[k] = f
        for i in range(len(q)):
            r[k + i] -= f * q[i]
        poly_trim(r)
    return poly_trim(quo), r


def poly_gcd(p, q):
    a, b = list(p), list(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lc = a[-1]
        a = [c / lc for c in a]
    return a


def poly_derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def poly_eval(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def poly_eval_matrix(p, m):
    n = len(m)
    out = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for c in reversed(p):
        out = _mat_mul(out, m)
        out = tuple(
            tuple(out[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    return out


def squarefree_part(p):
    g = poly_gcd(p, poly_derivative(p))
    if len(g) <= 1:
        return list(p), g
    return poly_divmod(p, g)[0], g


def char_poly(matrix):
    """Exact characteristic polynomial det(t I - M) by the division-free
    Berkowitz algorithm; ascending coefficients, monic of degree n."""
    m = rational_matrix(matrix)
    n = len(m)
    if any(len(r) != n for r in m):
        raise LatticeError("characteristic polynomial needs a square matrix")
    if n == 0:
        return [Fraction(1)]
    # Berkowitz: iteratively build the coefficient vector via Toeplitz products
    vec = [Fraction(1), -m[0][0]]
    for k in range(1, n):
        a = m[k][k]
        row = [m[k][j] for j in range(k)]
        col = [m[j][k] for j in range(k)]
        block = [[m[i][j] for j in range(k)] for i in range(k)]
        # products row * block^s * col for s = 0..k-1
        prods = []
        cur = col
        prods.append(sum(r * c for r, c in zip(row, cur)))
        for _ in range(k - 1):
            cur = [sum(block[i][j] * cur[j] for j in range(k)) for i in range(k)]
            prods.append(sum(r * c for r, c in zip(row, cur)))
        toep = [Fraction(1), -a] + [-p for p in prods]
        new = [Fraction(0)] * (k + 2)
        for i in range(k + 2):
            for j in range(min(i + 1, len(vec))):
                t = i - j
                if t < len(toep):
                    new[i] += toep[t] * vec[j]
        vec = new
    # vec holds the coefficients of det(tI - M) from t^n down to t^0
    return list(reversed(vec))


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation
# ---------------------------------------------------------------------------


def sturm_chain(p):
    p0, _ = squarefree_part(list(p))
    chain = [p0, poly_derivative(p0)]
    while chain[-1]:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(poly_neg(r))
    return chain


def sign_variations(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain, a, b):
    """Number of distinct real roots in (a, b]."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_bound(p):
    lc = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + m / lc


def isolate_real_roots(p, lo, hi):
    """Disjoint isolating intervals (a, b] for distinct roots of p in (lo, hi]."""
    chain = sturm_chain(p)
    out = []

    def rec(a, b):
        k = count_roots_halfopen(chain, a, b)
        if k == 0:
            return
        if k == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        # half-open intervals: a root exactly at mid lands in (a, mid]
        rec(a, mid)
        rec(mid, b)

    rec(lo, hi)
    return sorted(out)


def refine_interval(p, a, b, width=Fraction(1, 10**12)):
    """Bisect an isolating interval (a, b] of p below the given width."""
    chain = sturm_chain(p)
    found = count_roots_halfopen(chain, a, b)
    if found != 1:
        raise LatticeError(f"({a}, {b}] holds {found} roots, not exactly one")
    while b - a > width:
        mid = (a + b) / 2
        if count_roots_halfopen(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return a, b


def real_roots_outside_unit(p):
    """Isolating intervals for real roots with absolute value above 1."""
    bound = cauchy_bound(p)
    out = []
    out.extend(isolate_real_roots(p, Fraction(1), bound))
    out.extend(isolate_real_roots(p, -bound, Fraction(-1)))
    # drop an interval that only captured the endpoint -1 as a root
    res = []
    for a, b in out:
        if b == -1:
            continue
        res.append((a, b))
    return res


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
    """The irreducible factor of p having a root in the isolating interval."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(p)], x, domain="QQ")
    for factor, _mult in poly.factor_list()[1]:
        coeffs = [Fraction(c.p, c.q) for c in reversed(factor.all_coeffs())]
        chain = sturm_chain(coeffs)
        if count_roots_halfopen(chain, a, b) == 1:
            return coeffs
    raise LatticeError("no factor isolates the interval (internal error)")


class _QuadNumber:
    """a + b x in Q(x) = Q[x]/(x^2 - s x - t), with exact field operations."""

    __slots__ = ("a", "b", "s", "t")

    def __init__(self, a, b, s, t):
        self.a, self.b, self.s, self.t = a, b, s, t

    def __bool__(self):
        return bool(self.a or self.b)

    def __neg__(self):
        return _QuadNumber(-self.a, -self.b, self.s, self.t)

    def __sub__(self, o):
        return _QuadNumber(self.a - o.a, self.b - o.b, self.s, self.t)

    def __mul__(self, o):
        a, b, c, d = self.a, self.b, o.a, o.b
        # (a + b x)(c + d x) = ac + (ad + bc) x + bd x^2, x^2 = s x + t
        return _QuadNumber(a * c + b * d * self.t, a * d + b * c + b * d * self.s, self.s, self.t)

    def __truediv__(self, o):
        c, d, s, t = o.a, o.b, self.s, self.t
        # conjugate root: x' = s - x, norm = (c + d x)(c + d x')
        # = c^2 + c d s + d^2 x x', x x' = -t
        n = c * c + c * d * s - d * d * t
        if n == 0:
            raise ZeroDivisionError("non-invertible quadratic element")
        # (c + d x)^-1 = (c + d s - d x)/n
        return self * _QuadNumber((c + d * s) / n, -d / n, s, t)


def _eigenvector_quadratic(m, s, t):
    """Exact kernel vector of (M - lambda I) over Q(lambda), lambda^2 = s lambda + t."""
    n = len(m)
    zero, one = Fraction(0), Fraction(1)
    a = [
        [_QuadNumber(m[i][j], -one if i == j else zero, s, t) for j in range(n)]
        for i in range(n)
    ]
    pivots, _, _ = rref(a, n, operator.not_)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        raise LatticeError("eigenvalue has no kernel (internal error)")
    v = [_QuadNumber(zero, zero, s, t)] * n
    v[free] = _QuadNumber(one, zero, s, t)
    for row, col in zip(a, pivots):
        v[col] = -row[free]
    return v


def classify(matrix, lattice: QuadraticLattice) -> Classification:
    """Isometry trichotomy with certificates; exactly one branch is taken."""
    m = rational_matrix(matrix)
    chk = verify_isometry(m, lattice)
    if not chk.ok:
        raise LatticeError("matrix is not an isometry of the lattice")
    p_, q_, z_ = lattice.signature
    if not (p_ == 1 and z_ == 0 and q_ >= 1):
        raise LatticeError(
            f"classification requires signature (1, n, 0), got {(p_, q_, z_)}; refusing to guess"
        )
    p = char_poly(m)
    off_unit = real_roots_outside_unit(p)
    if off_unit:
        # take the interval with the largest absolute value endpoints
        best = max(off_unit, key=lambda ab: max(abs(ab[0]), abs(ab[1])))
        a, b = refine_interval(p, best[0], best[1])
        factor = _min_poly_factor_for_interval(p, a, b)
        cert = {
            "lambda_interval": (a, b),
            "interval_width": b - a,
            "min_poly_degree": len(factor) - 1,
        }
        if len(factor) == 2:
            lam = -factor[0] / factor[1]
            ev = _eigenvector_int_kernel(m, lam)
            cert["eigenvector"] = ev
            cert["eigenvector_field"] = "rational"
            cert["q_value"] = lattice.value(ev)
        elif len(factor) == 3:
            s = -factor[1] / factor[2]
            t = -factor[0] / factor[2]
            v = _eigenvector_quadratic(m, s, t)
            cert["eigenvector"] = [(x.a, x.b) for x in v]
            cert["eigenvector_field"] = f"quadratic: x^2 = {s}*x + {t}"
            cert["q_value"] = _quad_q_value(lattice, v)
        else:
            lam_num = float((a + b) / 2)
            vec, res = _numeric_eigenvector(m, lam_num)
            cert["eigenvector"] = [float(x) for x in vec]
            cert["eigenvector_field"] = "numeric"
            cert["eigenvector_residual"] = res
        return Classification("hyperbolic", cert)
    r, g = squarefree_part(p)
    rm = poly_eval_matrix(r, m)
    if _is_zero(rm):
        return Classification(
            "elliptic",
            {
                "squarefree_witness": [str(c) for c in r],
                "note": "r(M) = 0 for the squarefree part r of the characteristic polynomial",
            },
        )
    witness = next(
        (i, j)
        for i in range(len(rm))
        for j in range(len(rm))
        if rm[i][j] != 0
    )
    fixed = kernel_basis(_mat_sub(m, _identity(len(m))))
    return Classification(
        "parabolic",
        {
            "repeated_factor": [str(c) for c in g],
            "nonzero_entry_of_r_of_M": witness,
            "eigenvalue_one_space": [[str(x) for x in v] for v in fixed],
            "eigenvalue_one_q_values": [str(lattice.value(v)) for v in fixed],
        },
    )


def _eigenvector_int_kernel(m, lam):
    n = len(m)
    shifted = tuple(
        tuple(m[i][j] - (lam if i == j else 0) for j in range(n)) for i in range(n)
    )
    basis = kernel_basis(shifted)
    if not basis:
        raise LatticeError("rational eigenvalue has empty kernel (internal error)")
    return basis[0]


def _quad_q_value(lattice, v):
    """q(v, v) for a vector over Q(lambda), as a pair (a, b) = a + b lambda."""
    total = (Fraction(0), Fraction(0))
    n = lattice.dim
    for i in range(n):
        for j in range(n):
            g = lattice.gram[i][j]
            if g == 0:
                continue
            prod = v[i] * v[j]
            total = (total[0] + g * prod.a, total[1] + g * prod.b)
    return total


def _numeric_eigenvector(m, lam):
    a = np.array([[float(x) for x in row] for row in m])
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
    """Exact kernel basis of a rational matrix, integer-cleared."""
    m = [list(row) for row in matrix]
    cols = len(m[0]) if m else 0
    pivots, _, _ = rref(m, cols, operator.not_)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, col in zip(m, pivots):
            v[col] = -row[free]
        den_lcm = 1
        for x in v:
            den_lcm = den_lcm * x.denominator // _gcd(den_lcm, x.denominator)
        v = [x * den_lcm for x in v]
        num_gcd = 0
        for x in v:
            num_gcd = _gcd(num_gcd, abs(x.numerator))
        if num_gcd > 1:
            v = [x / num_gcd for x in v]
        basis.append(tuple(v))
    return basis


def _gcd(a, b):
    a, b = int(a), int(b)
    while b:
        a, b = b, a % b
    return a


@dataclass
class InvariantClassReport:
    kernel: list
    q_values: list
    restricted_signature: tuple | None
    negativity_verified: bool | None  # None when not applicable (not hyperbolic)
    label: str
    invariant_positive_class_possible: bool | None

    @property
    def lemma_negativity(self):
        return self.negativity_verified


def invariant_classes(matrix, lattice: QuadraticLattice) -> InvariantClassReport:
    """Kernel of (M - Id) with q-values; for hyperbolic isometries the
    restriction of the form to the kernel is checked negative definite, which
    rules out any invariant class of nonnegative square (in particular an
    invariant Kahler-type class)."""
    m = rational_matrix(matrix)
    chk = verify_isometry(m, lattice)
    if not chk.ok:
        raise LatticeError("matrix is not an isometry of the lattice")
    ker = kernel_basis(_mat_sub(m, _identity(len(m))))
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
    eigenvalue and the call fails).  When the iteration stalls for 50 steps
    (a seed exactly inside the complementary invariant subspace) one
    deterministic perturbation of size 1e-8 is injected before giving up.
    """
    m = rational_matrix(matrix)
    label = classify(m, lattice).label
    if label != "hyperbolic":
        raise PowerIterationError(f"no dominant eigenvalue: isometry is {label}")
    n = len(m)
    a = np.array([[float(x) for x in row] for row in m])
    g = np.array([[float(x) for x in row] for row in lattice.gram])
    if seed_vector is None:
        x = np.ones(n) / np.sqrt(n)
    else:
        x = np.array([float(_as_fraction(v)) for v in seed_vector])
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
    the square has non-real spectrum.
    """
    m = rational_matrix(matrix)
    m2 = _mat_mul(m, m)
    p2 = char_poly(m2)
    sf, _g = squarefree_part(p2)
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    total = count_roots_halfopen(chain, -bound, bound)
    if total != len(sf) - 1:
        raise LatticeError(
            "spectral radius certification requires M^2 to have all-real spectrum"
        )
    intervals = isolate_real_roots(p2, -bound, bound)
    if poly_eval(p2, -bound) == 0:
        intervals.append((-bound - 1, -bound))
    # the largest |root| of p2
    best = None
    for a, b in intervals:
        a2, b2 = refine_interval(p2, a, b, width=width / 4)
        lo, hi = (abs(x) for x in sorted((a2, b2), key=abs))
        if best is None or hi > best[1]:
            best = (lo, hi)
    if best is None:
        raise LatticeError("matrix has no eigenvalues (empty spectrum?)")
    lo, hi = best
    # rational bounds on sqrt: s1^2 <= lo, s2^2 >= hi, s2 - s1 small
    s1, s2 = Fraction(0), max(Fraction(1), hi)
    while s2 * s2 < hi:
        s2 *= 2
    # bisect lower bound up
    a, b = Fraction(0), s2
    for _ in range(200):
        mid = (a + b) / 2
        if mid * mid <= lo:
            a = mid
        else:
            b = mid
        if b - a < width / 2:
            break
    s_lo = a
    a2_, b2_ = s_lo, s2
    for _ in range(200):
        mid = (a2_ + b2_) / 2
        if mid * mid >= hi:
            b2_ = mid
        else:
            a2_ = mid
        if b2_ - a2_ < width / 2:
            break
    s_hi = b2_
    return s_lo, s_hi
