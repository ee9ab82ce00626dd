"""Hypercomplex triples and quaternionic metric conditions: the quaternion
relations, pseudo-hyperkahler data, HKT and quaternionic balanced equations
for a (2,0)-form, and the holomorphic pairing that obstructs HKT metrics.

For a triple (I, J, K) the second structure J maps (1,0)-forms of I to
(0,1)-forms, so eta_a ^ J(conj(eta_b)) is again (2,0); restricted to a
greedily chosen half frame S (|S| = m/2) these products form a basis of the
J-anti-invariant (2,0)-forms, and a candidate decomposes with a uniquely
determined coefficient matrix which is Hermitian exactly when the candidate
is compatible with J.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linear
from .cealg import Form, FormError, solve_combination, top_coefficient, wedge, wedge_power
from .complexops import AlmostComplexStructure, _lift, bidegree, del_, real_basis
from .metrics import MetricError, gram_and_signature
from .scalars import Scalar


class QuaternionError(ValueError):
    pass


@dataclass
class SubCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class QuaternionReport:
    kind: str
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __bool__(self):
        return self.passed


class HypercomplexTriple:
    """Three anticommuting complex structures with K = IJ."""

    def __init__(self, I: AlmostComplexStructure, J: AlmostComplexStructure, K: AlmostComplexStructure):
        if not (I.presentation.same_algebra(J.presentation) and I.presentation.same_algebra(K.presentation)):
            raise QuaternionError("structures live over different presentations")
        self.I, self.J, self.K = I, J, K
        self.presentation = I.presentation
        self._frame = None

    def half_frame(self):
        """The greedy half frame S and the 2-forms eta_r ^ J(conj(eta_s))
        over the coframe of I (see ``_half_frame``), computed once."""
        if self._frame is None:
            self._frame = _half_frame(self)
        return self._frame


def check_hypercomplex(t: HypercomplexTriple) -> QuaternionReport:
    """Quaternion relations plus all three integrability checks.  The three
    squares are not recomputed: ``AlmostComplexStructure`` raises unless its
    matrix squares to -Id, so those subchecks pass by construction."""
    table = t.presentation.table
    checks = [SubCheck(f"{s.name}^2 = -Id", True) for s in (t.I, t.J, t.K)]
    ij = linear.mat_mul(t.I.matrix, t.J.matrix, table)
    ji = linear.mat_mul(t.J.matrix, t.I.matrix, table)
    checks.append(SubCheck("IJ = K", linear.mat_eq(ij, t.K.matrix)))
    checks.append(SubCheck("JI = -K", linear.mat_eq(ji, linear.mat_neg(t.K.matrix))))
    for s in (t.I, t.J, t.K):
        rep = s.nijenhuis_vanishes()
        detail = "" if rep.passed else f"witness pair {rep.witnesses[0][:2]}"
        checks.append(SubCheck(f"{s.name} integrable", rep.passed, detail))
    return QuaternionReport("hypercomplex", checks)


def check_pseudo_hyperkahler(t: HypercomplexTriple, omega_i: Form, omega_j: Form, omega_k: Form) -> QuaternionReport:
    """Closedness of the three fundamental forms, compatibility of each with
    its own structure, and the (2,0) bidegree of omega_J + i omega_K."""
    pres = t.presentation
    checks = []
    for s, w in ((t.I, omega_i), (t.J, omega_j), (t.K, omega_k)):
        dw = pres.d(w)
        checks.append(SubCheck(f"d omega_{s.name} = 0", dw.is_zero(), "" if dw.is_zero() else str(dw)))
        real_ok = (w.conjugate() - w).is_zero()
        pure = bidegree(w, s).is_pure(1, 1)
        checks.append(SubCheck(f"omega_{s.name} real (1,1) for {s.name}", real_ok and pure))
    omega20 = omega_j + pres.table.i * omega_k
    checks.append(
        SubCheck(
            "omega_J + i omega_K is (2,0) for I",
            bidegree(omega20, t.I).is_pure(2, 0),
        )
    )
    return QuaternionReport("pseudo_hyperkahler", checks)


class HKTCandidate:
    """A (2,0)-form candidate for the quaternionic metric equations.

    The derived data is the half frame S and the coefficient matrix a with
    Omega = sum_{r,s in S} a_rs eta_r ^ J(conj(eta_s)); the candidate is
    J-compatible iff the decomposition exists, and Hermitian iff a is.
    ``omega`` is the form as given, in the real basis or a complex coframe;
    it is also kept in the complex coframe of I as ``omega_c``.
    """

    def __init__(self, triple: HypercomplexTriple, omega20: Form):
        self.triple = triple
        self.presentation = triple.presentation
        if self.presentation.dim % 4:
            raise QuaternionError("quaternionic structures need dimension divisible by 4")
        self.quaternionic_dim = self.presentation.dim // 4
        self.omega_c = _lift(omega20, triple.I)[1]
        bg = bidegree(self.omega_c, triple.I)
        if not bg.is_pure(2, 0):
            raise QuaternionError(f"candidate is not pure (2,0): {bg.bidegrees()}")
        self.omega = omega20
        self.frame, self.coefficients = _half_frame_decomposition(triple, self.omega_c)

    def hermitian_violation(self):
        hot = linear.hermitian_violation(self.coefficients)
        return None if hot is None else (self.frame[hot[0]], self.frame[hot[1]])


def _half_frame(triple: HypercomplexTriple):
    """Greedy half frame S: eta_r for r in S plus J(conj(eta_s)) span (1,0).

    Returns S and the 2-forms eta_r ^ J(conj(eta_s)) for r, s in S (r-major)
    over the complex coframe of I."""
    model = triple.I.model()
    m = model.m
    n = triple.presentation.dim
    table = triple.presentation.table
    # the pivots of the columns eta_1, J(conj eta_1), eta_2, ... in coframe
    # coordinates.  phi = J o conj is antilinear with phi^2 = -1, so the span
    # of the chosen pairs is phi-invariant and J(conj eta_r) is a pivot
    # exactly when eta_r is; the even pivots are the greedy selection.
    jbars = [
        model.to_complex(triple.J.apply_to_one_form(model.eta(r).conjugate()))
        for r in range(1, m + 1)
    ]
    coords = [{} for _ in range(n)]
    for r, jb in enumerate(jbars):
        coords[r][2 * r] = table.one
        for (i,), x in jb.terms.items():
            coords[i - 1][2 * r + 1] = x
    pivots = linear.rref(coords, 2 * m)[0]
    # m/2 pairs span the (1,0) forms when J anticommutes with I; a J that
    # does not can yield more, and the first m/2 are the frame
    frame = [c // 2 + 1 for c in pivots if c % 2 == 0][: m // 2]
    # eta_r is complex generator r, so each basis element is built in the coframe
    return frame, [
        wedge(model.generator(r), jbars[s - 1]) for r in frame for s in frame
    ]


def _half_frame_decomposition(triple: HypercomplexTriple, target: Form):
    """Solve Omega = sum a_rs eta_r ^ J(conj(eta_s)) over the half frame;
    ``target`` is Omega in the complex coframe of I."""
    frame, cbasis = triple.half_frame()
    sol, _free = solve_combination(cbasis, target)
    if sol is None:
        raise QuaternionError(
            "candidate is not J-compatible: no decomposition over eta_r ^ J(conj(eta_s))"
        )
    k = len(frame)
    coeffs = tuple(tuple(sol[r * k + s] for s in range(k)) for r in range(k))
    return frame, coeffs


def check_hkt(c: HKTCandidate, valuation=None) -> QuaternionReport:
    """del(Omega) = 0 plus positive definiteness of the coefficient matrix."""
    checks = []
    viol = c.hermitian_violation()
    checks.append(
        SubCheck(
            "coefficient matrix Hermitian (J-anti-invariance)",
            viol is None,
            "" if viol is None else f"entry pair {viol}",
        )
    )
    res = del_(c.omega_c, c.triple.I)
    checks.append(_zero_check("del Omega = 0", res))
    if viol is None:
        checks.append(_positive_definite_check(c, valuation))
    return QuaternionReport("hkt", checks)


def _zero_check(name, res: Form) -> SubCheck:
    """The subcheck ``res = 0``; only a nonzero residual goes to the real basis."""
    return SubCheck(name, res.is_zero(), "" if res.is_zero() else str(real_basis(res)))


def _positive_definite_check(c: HKTCandidate, valuation):
    name = "coefficient matrix positive definite"
    try:
        res = gram_and_signature(c.coefficients, valuation)
    except MetricError:
        if valuation is not None:
            raise
        return SubCheck(name, False, "matrix has symbols and no valuation was supplied")
    _p, q, z = res.signature
    return SubCheck(name, q == 0 and z == 0, f"signature {res.signature}")


def check_quaternionic_balanced(c: HKTCandidate) -> QuaternionReport:
    """del(Omega^(q-1)) = 0 where q is the quaternionic dimension."""
    q = c.quaternionic_dim
    checks = []
    if q == 1:
        checks.append(SubCheck("del Omega^0 = 0", True, "trivial at quaternionic dimension 1"))
    else:
        res = del_(wedge_power(c.omega_c, q - 1), c.triple.I)
        checks.append(_zero_check(f"del Omega^{q - 1} = 0", res))
    return QuaternionReport("quaternionic_balanced", checks)


@dataclass
class PrimitiveReport:
    exists: bool
    primitive: Form | None = None


def del_primitive(form: Form, J: AlmostComplexStructure) -> PrimitiveReport:
    """Solve del(x) = form exactly for x of bidegree (p-1, 0); the primitive
    witnesses del-exactness constructively.  A form over the complex coframe
    of J is solved in place and its primitive stays there.  The columns, del
    of each (p-1,0)-monomial, are the model's ``del_columns``, built once per
    degree for every form solved over it."""
    model, cform, back = _lift(form, J)
    if cform.is_zero():
        return PrimitiveReport(True, back(cform))
    degs = {model.bidegree_of_indices(idx) for idx in cform.terms}
    if len(degs) != 1:
        raise FormError(f"primitive solving needs a pure bidegree, got {sorted(degs)}")
    (p, q), = degs
    if q != 0 or p < 1:
        raise FormError(f"del-exactness applies to (p,0)-forms with p >= 1, got {(p, q)}")
    unknowns, columns = model.del_columns(p - 1)
    sol, _free = solve_combination([Form(model, t, _canonical=True) for t in columns], cform)
    if sol is None:
        return PrimitiveReport(False)
    terms = {}
    for coeff, idx in zip(sol, unknowns):
        if not coeff.is_zero():
            terms[idx] = coeff
    candidate = Form(model, terms, _canonical=True)
    if not (del_(candidate, J) - cform).is_zero():
        raise QuaternionError("primitive verification failed")
    return PrimitiveReport(True, back(candidate))


def hkt_obstruction(
    t: HypercomplexTriple,
    alpha: Form,
    beta: Form,
    a_matrix,
) -> Scalar:
    """The pairing coefficient of Omega~ ^ alpha ^ conj(beta) against
    beta ^ conj(beta), for the symbolic candidate built from the Hermitian
    matrix ``a_matrix`` over the half frame.

    Preconditions checked here: alpha is a (4,0)-form and del-exact (a
    primitive is solved for; failure is an error), beta is an (m,0)-form
    and d-closed, and the matrix is Hermitian.  alpha and beta may be given
    in the real basis or a complex coframe; the pairing is evaluated in the
    coframe of I, where a closed (m,0)-form is a single monomial.  Numerator
    and volume are top forms in one basis, so their ratio does not depend on
    it.  The result is linear in the matrix entries.
    """
    table = t.presentation.table
    model, alpha_c, _back = _lift(alpha, t.I)
    beta_c = _lift(beta, t.I)[1]
    bg_a = bidegree(alpha_c, t.I)
    if not bg_a.is_pure(4, 0):
        raise FormError(f"alpha must be a (4,0)-form, got {bg_a.bidegrees()}")
    if not bidegree(beta_c, t.I).is_pure(model.m, 0):
        raise FormError(f"beta must be a ({model.m},0)-form")
    prim = del_primitive(alpha_c, t.I)
    if not prim.exists:
        raise QuaternionError("alpha is not del-exact: no primitive found")
    if not model.d(beta_c).is_zero():
        raise QuaternionError("beta is not closed")
    frame, basis = t.half_frame()
    k = len(frame)
    a_matrix = [list(row) for row in a_matrix]
    if len(a_matrix) != k or any(len(r) != k for r in a_matrix):
        raise QuaternionError(f"the Hermitian matrix must be {k}x{k} over the half frame {frame}")
    rows = [[table.scalar(x) for x in row] for row in a_matrix]
    if linear.hermitian_violation(rows) is not None:
        raise QuaternionError("the coefficient matrix is not Hermitian")
    omega_t = Form.zero(model)
    for r in range(k):
        for s in range(k):
            if not rows[r][s].is_zero():
                omega_t = omega_t + rows[r][s] * basis[r * k + s]
    beta_bar = beta_c.conjugate()
    vol = wedge(beta_c, beta_bar)
    return top_coefficient(wedge(wedge(omega_t, alpha_c), beta_bar), vol)
