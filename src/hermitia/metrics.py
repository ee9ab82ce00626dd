"""Hermitian metric predicates on invariant (1,1)-forms: Kahler, balanced,
pluriclosed, astheno-Kahler, k-pluriclosed and the conformally Kahler
equation, plus Bismut torsion, coframe Gram matrices with exact signatures,
and positivity testing for (p,p)-forms.

Every predicate is a vanishing statement evaluated in exact arithmetic; the
report carries the residual form on failure.  A candidate keeps omega in the
complex coframe as omega_c = sum_ab w_ab eta_a ^ conj(eta_b).

Balanced, d(omega^(m-1)) = (m-1) d omega ^ omega^(m-2) = 0, is decided by
the Lefschetz criterion when W = (w_ab) is invertible: wedging with
omega^(m-2) is injective on L(1-forms) and kills exactly the primitive
3-forms, so the product vanishes iff d omega is primitive, i.e. its
contraction with W^-1, sum_ab (W^-1)_ba A_(a, m+b, k) for A the
antisymmetric coefficients of d omega_c, is zero for every index k.
Pluriclosed is del(delbar(omega)) = 0.  Astheno-Kahler and k-pluriclosed
read del(delbar(omega^k)) (memoized per k), and for k >= 2 the Leibniz rule

    del delbar (omega^k) = k omega^(k-1) ^ del delbar omega
                           + k (k-1) omega^(k-2) ^ del omega ^ delbar omega

shows it vanishes for every k once del delbar omega = 0 and the single
wedge del omega ^ delbar omega = 0.

The powers omega_c^k are one ladder, each rung one wedge by omega_c above
the last, built only where these shortcuts do not decide: for a degenerate
W (balanced is then d omega_c^(m-1) = 0; to_complex is an algebra
isomorphism that commutes with d), for del(delbar(omega^k)) when del delbar
omega or del omega ^ delbar omega is nonzero, and when a balanced report's
residual d omega_c^(m-1) is read.  A residual left in the coframe is
converted to the real basis only when the report's ``residual`` is read.
Positivity of (p,p)-forms is only falsifiable here (sampling decomposable
tuples with a fixed, seeded generator) or certifiable syntactically through
an explicit strongly positive decomposition.

At a valuation, signatures, certificate coefficients and sampled violations
are decided on ``Scalar.at``'s exact value: a free symbol's number is the
dyadic rational it is, a related symbol's number selects the real root of
its relation nearest it, and sign hints are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import linear
from .cealg import Form, solve_combination, wedge
from .complexops import AlmostComplexStructure, _lift, bidegree, dc, del_, delbar, real_basis
from .scalars import ScalarError


class MetricError(ValueError):
    pass


class PredicateReport:
    """A predicate's verdict.  ``residual`` is None on a pass and otherwise
    the nonzero form in the real basis.  It may be given as a function that
    computes it, and a residual over a complex coframe is converted to the
    real basis; both happen on the first read."""

    def __init__(
        self, kind: str, passed: bool, residual: Form | Callable[[], Form] | None = None, notes=None
    ):
        self.kind = kind
        self.passed = passed
        self._residual = residual
        self.notes = {} if notes is None else notes

    @property
    def residual(self) -> Form | None:
        res = self._residual
        if callable(res):
            res = res()
        if res is not None:
            res = self._residual = real_basis(res)
        return res

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return f"PredicateReport({self.kind!r}, passed={self.passed})"


def _vanishing(kind: str, res: Form) -> PredicateReport:
    """The report of the statement ``res = 0``."""
    zero = res.is_zero()
    return PredicateReport(kind, zero, None if zero else res)


class HermitianCandidate:
    """A real (1,1)-form with respect to a named integrable structure, kept
    also in the structure's complex coframe as ``omega_c``, with the ladder
    of omega_c^k and a per-k memo of del(delbar(omega^k)), and the
    Leibniz test that decides the latter for k >= 2."""

    def __init__(self, J: AlmostComplexStructure, omega: Form):
        self.J = J
        self.presentation = J.presentation
        if self.presentation.dim % 2:
            raise MetricError("odd-dimensional presentation")
        self.m = self.presentation.dim // 2
        if any(c != c.conjugate() for c in omega.terms.values()):
            raise MetricError("fundamental form candidate is not real")
        self.omega_c = J.model().to_complex(omega)
        bg = bidegree(self.omega_c, J)
        if not bg.is_pure(1, 1):
            raise MetricError(f"fundamental form is not of pure bidegree (1,1): {bg.bidegrees()}")
        self.omega = omega
        self._powers = [self.omega_c]  # the ladder omega_c, omega_c^2, ..
        self._del_delbar = {}

    def power(self, k: int) -> Form:
        """omega_c^k (k >= 1) in the complex coframe: omega_c has no 0-form
        part, so omega_c^k = omega_c^(k-1) ^ omega_c as in ``wedge_power``.
        The ladder grows by one wedge per missing rung, up to its first zero."""
        if k < 1:
            raise MetricError(f"omega powers start at 1, got {k}")
        powers = self._powers
        while len(powers) < k and not powers[-1].is_zero():
            powers.append(wedge(powers[-1], self.omega_c))
        return powers[min(k, len(powers)) - 1]

    def del_delbar_power(self, k: int) -> Form:
        """del(delbar(omega^k)) in the real basis, memoized per k: zero for
        k >= 2 when ``leibniz_zero`` holds, else evaluated on omega_c^k in
        the complex coframe and converted to the real basis once."""
        res = self._del_delbar.get(k)
        if res is None:
            if k >= 2 and self.leibniz_zero:
                res = Form.zero(self.presentation)
            else:
                J = self.J
                half = self._d_omega[1] if k == 1 else delbar(self.power(k), J)
                res = J.model().to_real(del_(half, J))
            self._del_delbar[k] = res
        return res

    @cached_property
    def _d_omega(self):
        """(del omega_c, delbar omega_c): the (2,1) and (1,2) parts of
        d omega_c, which pluriclosed, the Leibniz test and balanced share."""
        J = self.J
        return del_(self.omega_c, J), delbar(self.omega_c, J)

    @cached_property
    def leibniz_zero(self) -> bool:
        """Whether del delbar omega = 0 and del omega ^ delbar omega = 0, so
        that by the Leibniz rule

            del delbar (omega^k) = k omega^(k-1) ^ del delbar omega
                                   + k (k-1) omega^(k-2) ^ del omega ^ delbar omega

        del(delbar(omega^k)) vanishes for every k.  The wedge is taken only
        when omega is pluriclosed."""
        return self.del_delbar_power(1).is_zero() and wedge(*self._d_omega).is_zero()

    @cached_property
    def w(self) -> tuple:
        """W = (w_ab), omega_c = sum_ab w_ab eta_a ^ conj(eta_b), as rows."""
        m = self.m
        zero = self.presentation.table.zero
        coeff = self.omega_c.terms
        return tuple(
            tuple(coeff.get((a, m + b), zero) for b in range(1, m + 1)) for a in range(1, m + 1)
        )

    def d_omega_primitive(self) -> bool | None:
        """Whether d omega is primitive, i.e. its contraction with the inverse
        of W = (w_ab), omega_c = sum_ab w_ab eta_a ^ conj(eta_b), vanishes:

            sum_ab (W^-1)_ba A_(a, m+b, k) = 0 for every index k,

        with A the antisymmetric coefficient of d omega_c = del omega_c +
        delbar omega_c, signed by the sort of (a, m+b, k).  None when W is not
        invertible (omega is degenerate)."""
        m = self.m
        try:
            w_inv = linear.invert(self.w, self.presentation.table)
        except (linear.LinearError, ScalarError):
            return None
        # the nonzero (W^-1)_ba by the pair (a, m+b) they contract
        pairing = {
            (a + 1, m + b + 1): y for b, row in enumerate(w_inv) for a, y in enumerate(row)
            if not y.is_zero()
        }
        del_omega, delbar_omega = self._d_omega
        trace = {}
        for (i, j, l), x in (*del_omega.terms.items(), *delbar_omega.terms.items()):
            # each pair of the monomial, with the third index k and the sign
            # that sorts (a, m+b, k)
            for pair, k, flip in (((i, j), l, False), ((i, l), j, True), ((j, l), i, False)):
                y = pairing.get(pair)
                if y is not None:
                    t = -(y * x) if flip else y * x
                    acc = trace.get(k)
                    trace[k] = t if acc is None else acc + t
        return all(v.is_zero() for v in trace.values())

    def __repr__(self):
        return f"HermitianCandidate(m={self.m}, omega={self.omega})"


def is_kahler(c: HermitianCandidate) -> PredicateReport:
    return _vanishing("kahler", c.presentation.d(c.omega))


def is_balanced(c: HermitianCandidate) -> PredicateReport:
    """d(omega^(m-1)) = 0: d omega is primitive for a nondegenerate omega,
    and otherwise d omega_c^(m-1) = 0.  That residual is built when read."""
    if c.m < 2:
        raise MetricError("balanced needs complex dimension >= 2")

    def top():
        return c.J.model().d(c.power(c.m - 1))

    primitive = c.d_omega_primitive()
    if primitive is None:
        return _vanishing("balanced", top())
    return PredicateReport("balanced", primitive, None if primitive else top)


def is_pluriclosed(c: HermitianCandidate) -> PredicateReport:
    return _vanishing("pluriclosed", c.del_delbar_power(1))


def is_astheno(c: HermitianCandidate) -> PredicateReport:
    if c.m < 3:
        raise MetricError("astheno-Kahler needs complex dimension >= 3")
    return _vanishing("astheno", c.del_delbar_power(c.m - 2))


def is_k_pluriclosed(c: HermitianCandidate, k: int) -> PredicateReport:
    """d d^c (omega^k) = 0, tested through the equivalent del(delbar(omega^k))."""
    if not 1 <= k <= c.m - 1:
        raise MetricError(f"k-pluriclosed needs 1 <= k <= {c.m - 1}, got {k}")
    rep = _vanishing("k_pluriclosed", c.del_delbar_power(k))
    rep.notes["k"] = k
    return rep


@dataclass
class LeeFormSolution:
    theta: Form | None
    d_theta_zero: bool | None
    unique: bool | None

    @property
    def exists(self):
        return self.theta is not None


def lee_form(c: HermitianCandidate) -> LeeFormSolution:
    """Solve d(omega) = theta ^ omega exactly for a 1-form theta.

    Returns one solution (free coefficients set to zero) together with the
    d(theta) = 0 verdict and whether the solution is unique; non-existence is
    a value, not an error.
    """
    if c.m < 2:
        raise MetricError("the conformally Kahler equation needs complex dimension >= 2")
    pres = c.presentation
    n = pres.dim
    cols = [wedge(pres.generator(r), c.omega) for r in range(1, n + 1)]
    sol, free = solve_combination(cols, pres.d(c.omega))
    if sol is None:
        return LeeFormSolution(None, None, None)
    theta = pres.form([(sol[r], (r + 1,)) for r in range(n) if not sol[r].is_zero()])
    return LeeFormSolution(theta, pres.d(theta).is_zero(), free == 0)


def bismut_torsion(c: HermitianCandidate):
    """The torsion 3-form -d^c(omega) and its differential in the real
    basis: d^c is taken on omega_c and the torsion converted once."""
    t = c.J.model().to_real(-dc(c.omega_c, c.J))
    return t, c.presentation.d(t)


def coframe_gram(c: HermitianCandidate):
    """The Hermitian matrix h with omega = i sum h_ab eta_a ^ conj(eta_b),
    that is h = -i W."""
    minus_i = -c.presentation.table.i
    return tuple(tuple(minus_i * x for x in row) for row in c.w)


@dataclass
class SignatureResult:
    matrix: tuple
    signature: tuple
    exact: bool  # the signature holds for every value of the symbols
    degenerate: bool


def gram_and_signature(candidate_or_matrix, valuation=None) -> SignatureResult:
    """Gram matrix plus signature (p, q, z).

    For a Hermitian candidate the matrix is its coframe Gram matrix; a raw
    square Scalar matrix (a bilinear form on the real basis) is used as is.
    A matrix with symbols is first taken at the valuation entry by entry
    (``Scalar.at``); then every matrix is diagonalized by exact congruence.
    ``exact`` says the matrix had no symbols, so the signature holds for
    every value of them.
    """
    c = candidate_or_matrix
    mat = coframe_gram(c) if isinstance(c, HermitianCandidate) else tuple(map(tuple, c))
    exact = all(x.is_gaussian_rational() for row in mat for x in row)
    if not exact and valuation is None:
        raise MetricError("matrix has symbols: a valuation is required for the signature")
    valued = mat if exact else tuple(tuple(x.at(valuation) for x in row) for row in mat)
    p, q, z = linear.hermitian_signature(valued, valuation)
    return SignatureResult(mat, (p, q, z), exact, z > 0)


@dataclass
class PositivityVerdict:
    status: str  # "violation" | "no_violation"
    samples: int
    witness: list | None = None
    value: float | None = None

    @property
    def violated(self):
        return self.status == "violation"


def positivity_falsify(
    a: Form,
    J: AlmostComplexStructure,
    samples: int = 10000,
    seed: int = 0,
    valuation=None,
) -> PositivityVerdict:
    """Search for a decomposable tuple violating weak positivity of a real
    (p,p)-form.

    Draws ``samples`` pseudorandom p-tuples of unit (1,0) vectors from
    numpy's PCG64 generator seeded with ``seed`` and evaluates
    i^p a(v_1, conj v_1, ..., v_p, conj v_p).  A sample whose float value
    is negative is evaluated again exactly, at its floats taken as dyadic
    rationals (``Scalar.at`` for the coefficients, ``linear.det``), and is a
    violation only if the real part is negative there.  Returns a certified
    violation (witness tuple and float value) or an inconclusive
    "no_violation" verdict.
    ``a`` may be given in the real basis or a complex coframe.
    """
    if not (a.conjugate() - a).is_zero():
        raise MetricError("positivity applies to real forms")
    model, ca, _back = _lift(a, J)
    if ca.is_zero():
        return PositivityVerdict("no_violation", 0)
    bidegs = {model.bidegree_of_indices(idx) for idx in ca.terms}
    if len(bidegs) != 1:
        raise MetricError(f"form is not of pure bidegree: {sorted(bidegs)}")
    (p, q), = bidegs
    if p != q:
        raise MetricError(f"positivity applies to (p,p)-forms, got {(p, q)}")
    valuation = valuation or {}
    m = model.m
    table = ca.presentation.table.related
    terms = []
    scale = 0.0
    for idx, cval in ca.terms.items():
        cnum = cval.evaluate(valuation)
        holo = [k - 1 for k in idx if k <= m]
        anti = [k - m - 1 for k in idx if k > m]
        terms.append((holo, anti, cnum, cval.at(valuation)))
        scale += abs(cnum)

    def exactly_negative(witness):
        """Whether the real part of the form's value at the witness, with
        every float taken as the dyadic rational it is, is negative."""
        i, zero = table.i, table.zero
        vecs = [[table.scalar(Fraction(z.real)) + i * Fraction(z.imag) for z in v] for v in witness]
        total = zero
        for holo, anti, _cnum, c in terms:
            rows = [[zero] * (2 * p) for _ in range(2 * p)]
            for t, v in enumerate(vecs):
                for rpos, aa in enumerate(holo):
                    rows[rpos][2 * t] = v[aa]
                for rpos, bb in enumerate(anti):
                    rows[p + rpos][2 * t + 1] = v[bb].conjugate()
            total = total + c * linear.det(rows, table)
        value = (-i) ** p * total
        return (value + value.conjugate()).sign_at(valuation) == -1

    rng = np.random.default_rng(seed)
    # evaluation constant fixed so that i * eta ^ conj(eta) (and products of
    # such blocks) come out nonnegative on every decomposable tuple
    ipow = (-1j) ** p
    # the tolerance only picks the samples that are checked exactly
    tol = 1e-9 * max(1.0, scale)
    for batch_start in range(0, samples, 512):
        count = min(512, samples - batch_start)
        vs = rng.normal(size=(count, p, m)) + 1j * rng.normal(size=(count, p, m))
        norms = np.linalg.norm(vs, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        vs = vs / norms
        values = np.zeros(count, dtype=complex)
        mats = np.zeros((count, 2 * p, 2 * p), dtype=complex)
        for holo, anti, cnum, _c in terms:
            mats[:] = 0
            for rpos, aa in enumerate(holo):
                mats[:, rpos, 0::2] = vs[:, :, aa]
            for rpos, bb in enumerate(anti):
                mats[:, p + rpos, 1::2] = np.conj(vs[:, :, bb])
            values += cnum * np.linalg.det(mats)
        values = ipow * values
        real = values.real
        for k in np.where(real < -tol)[0]:
            witness = [list(map(complex, vs[k, t])) for t in range(p)]
            if exactly_negative(witness):
                return PositivityVerdict(
                    "violation", batch_start + int(k) + 1, witness=witness, value=float(real[k])
                )
    return PositivityVerdict("no_violation", samples)


@dataclass
class CertificateReport:
    valid: bool
    residual: Form | None = None
    notes: dict = field(default_factory=dict)

    def __bool__(self):
        return self.valid


def strong_positivity_certificate(
    a: Form,
    J: AlmostComplexStructure,
    decomposition,
    valuation=None,
) -> CertificateReport:
    """Verify that ``a`` equals i^p sum_j c_j xi_j1 ^ conj(xi_j1) ^ ... with
    the stated coefficients, and that every coefficient is real and
    nonnegative, exactly: at the valuation (``Scalar.sign_at``) unless it is
    rational."""
    pres = a.presentation
    table = pres.table
    if not decomposition:
        raise MetricError("empty decomposition")
    p = len(decomposition[0][1])
    expanded = Form.zero(pres)
    for coeff, tuple_of_forms in decomposition:
        coeff = table.scalar(coeff)
        if len(tuple_of_forms) != p:
            raise MetricError("decomposition tuples must share one length p")
        if not coeff.is_gaussian_rational() and valuation is None:
            raise MetricError("symbolic coefficients need a valuation")
        value = coeff.at(valuation or {})
        sign = value.sign_at(valuation) if value == value.conjugate() else -1
        if sign is None:
            raise MetricError(f"the sign of the coefficient {coeff} is not decided at the valuation")
        if sign < 0:
            return CertificateReport(False, notes={"negative_coefficient": str(coeff)})
        block = None
        for xi in tuple_of_forms:
            if not bidegree(xi, J).is_pure(1, 0):
                raise MetricError("decomposition factors must be (1,0)-forms")
            pair = wedge(xi, xi.conjugate())
            block = pair if block is None else wedge(block, pair)
        expanded = expanded + (coeff * (table.i**p)) * block
    residual = a - expanded
    if residual.is_zero():
        return CertificateReport(True, notes={"terms": len(decomposition), "p": p})
    return CertificateReport(False, residual=residual)
