"""Almost complex structures on Lie algebra presentations: integrability via
the Nijenhuis tensor, (1,0)-coframes, (p,q) bigrading and the operators
del, delbar and d^c, all in exact arithmetic.

Conventions.  A structure J acts on the vector basis in column convention
(J e_j = sum_i J_ij e_i) and on 1-forms by (J alpha)(X) = -alpha(J X),
extended complex-linearly.  The coframe element built on a real index r is
eta = e^r - i (e^r o J), which satisfies eta(JX) = i eta(X).  The twisted
differential is fixed as d^c = i (delbar - del); with this choice
d d^c a = 2 i del(delbar(a)) on pure-bidegree inputs, so every
"d d^c (omega^k) = 0" style condition is tested through del(delbar(.)).

The operators act on the complex coframe of the structure's ComplexModel.
A real-basis form is converted once in and once out; a form over the
model's complex presentation (``model.cpres``) is acted on in place, so
del(delbar(omega^k)) computed there pays for one conversion in total.  The
conversions and the pullback by J multiply monomials in cealg's one kernel.
del and delbar are derivations: the model splits d of its coframe once into
their generator tables, and each operator runs cealg's derivation kernel on
one table, so it neither takes the full d nor sorts terms by bidegree.
Integrability is decided only when the model is built, by the same pass
that fills the tables.

Building a model reads J by its nonzero entries.  The structure's checks
square J from its nonzero products; the coframe is read off the rows of J;
the change of basis inverts only the m x m block J[sigma, tau] of the
selected rows on the other indices; and with real structure constants the
(0,1) half of the coframe's differential is the conjugate of the (1,0) half,
so only the (1,0) half is substituted and tested.
"""

from __future__ import annotations

from fractions import Fraction

from . import linear
from .cealg import (
    Form,
    FormError,
    LieAlgebraPresentation,
    PresentationError,
    _add_products,
    _d_terms,
)
from .scalars import Scalar


class IntegrabilityError(PresentationError):
    pass


class NijenhuisReport:
    def __init__(self, witnesses):
        # witnesses: list of (a, b, coefficient list of N(e_a, e_b))
        self.witnesses = witnesses

    @property
    def passed(self):
        return not self.witnesses

    def __repr__(self):
        if self.passed:
            return "NijenhuisReport(pass)"
        pairs = [(a, b) for a, b, _v in self.witnesses]
        return f"NijenhuisReport(fail on pairs {pairs})"


class AlmostComplexStructure:
    """An endomorphism J with J^2 = -Id on an even-dimensional presentation."""

    def __init__(self, presentation: LieAlgebraPresentation, matrix, name="J"):
        self.presentation = presentation
        self.name = name
        self.matrix = presentation._as_matrix(matrix)
        n = presentation.dim
        if n % 2:
            raise IntegrabilityError("almost complex structures need even dimension")
        table = presentation.table
        # the rows by their nonzero entries (column, value), listed once: the
        # checks, the pullback and the coframe read only those
        rows = self._rows = tuple(
            tuple((c, x) for c, x in enumerate(row) if not x.is_zero()) for row in self.matrix
        )
        # J^2 row by row from the nonzero products: -1 on the diagonal, 0
        # elsewhere
        zero, minus_one = table.zero, -table.one
        for r, row in enumerate(rows):
            square = {}
            for s, x in row:
                for c, y in rows[s]:
                    acc = square.get(c)
                    square[c] = x * y if acc is None else acc + x * y
            if square.pop(r, zero) != minus_one or any(not v.is_zero() for v in square.values()):
                raise IntegrabilityError(f"{name}^2 != -Id")
        # the conjugate of a (1,0) form is a (0,1) form only for a real J
        if any(x != x.conjugate() for row in rows for _c, x in row):
            raise IntegrabilityError(f"{name} has a non-real entry")
        self._model = None
        self._nijenhuis = None

    @classmethod
    def from_action(cls, presentation, action, name="J"):
        """Build J from a partial basis action {index or name: (coeff, index)
        or signed name like "-e2"}; the remaining half is forced by J^2 = -Id.
        """
        n = presentation.dim
        table = presentation.table
        cols = {}

        def res(x):
            return presentation.index_of(x) if isinstance(x, str) else int(x)

        for src, dst in action.items():
            j = res(src)
            if isinstance(dst, str):
                sgn = 1
                if dst.startswith("-"):
                    sgn, dst = -1, dst[1:]
                i, c = res(dst), table.scalar(sgn)
            else:
                coeff, tgt = dst
                i = res(tgt)
                c = table.scalar(coeff)
            cols[j] = (i, c)
        for j, (i, c) in list(cols.items()):
            if i not in cols:
                cols[i] = (j, -c)
        if len(cols) != n:
            raise IntegrabilityError("action does not determine J on the whole basis")
        zero = table.zero
        mat = [[zero] * n for _ in range(n)]
        for j, (i, c) in cols.items():
            mat[i - 1][j - 1] = c
        return cls(presentation, mat, name=name)

    # -- basic actions -------------------------------------------------------

    def apply_to_vector(self, coeffs):
        """J acting on a vector given by dense basis coefficients."""
        n = self.presentation.dim
        table = self.presentation.table
        out = [table.zero] * n
        for j, c in enumerate(coeffs):
            if c.is_zero():
                continue
            for i in range(n):
                m = self.matrix[i][j]
                if not m.is_zero():
                    out[i] = out[i] + m * c
        return out

    def pullback_one_form(self, form: Form) -> Form:
        """alpha o J on a 1-form: e^r o J is row r of the matrix."""
        if any(len(idx) != 1 for idx in form.terms):
            raise FormError("pullback_one_form expects a 1-form")
        out = {}
        for (r,), c in form.terms.items():
            _add_products(out, {(): c}, [((s + 1,), m) for s, m in self._rows[r - 1]])
        return Form(self.presentation, out, _canonical=True)

    def apply_to_one_form(self, form: Form) -> Form:
        """J alpha = -(alpha o J), extended complex-linearly."""
        return -self.pullback_one_form(form)

    # -- integrability ---------------------------------------------------------

    def nijenhuis_vanishes(self) -> NijenhuisReport:
        """Pass iff N(e_a, e_b) = [e_a,e_b] + J[Je_a,e_b] + J[e_a,Je_b] - [Je_a,Je_b]
        vanishes on all basis pairs a < b.

        The verdict comes from building the complex model, whose bidegree test
        on d of the coframe (no (0,2) part on a (1,0) element, no (2,0) part
        on a (0,1) element) is the algebraic Newlander-Nirenberg condition;
        the N(e_a, e_b) witnesses are computed only when that test fails."""
        if self._nijenhuis is None:
            try:
                self.model()
            except IntegrabilityError:
                if self._nijenhuis is None:
                    raise
        return self._nijenhuis

    def _nijenhuis_witnesses(self):
        """(a, b, coefficient list of N(e_a, e_b)) for every basis pair a < b
        on which the Nijenhuis tensor does not vanish."""
        pres = self.presentation
        pres.require_jacobi()
        n = pres.dim
        table = pres.table
        zero = table.zero
        brackets = [
            [pres.bracket_coefficients(i + 1, j + 1) for j in range(n)] for i in range(n)
        ]

        def bracket_vec(u, v):
            out = [zero] * n
            for i, ci in enumerate(u):
                if ci.is_zero():
                    continue
                for j, cj in enumerate(v):
                    if cj.is_zero():
                        continue
                    bk = brackets[i][j]
                    f = ci * cj
                    for k in range(n):
                        if not bk[k].is_zero():
                            out[k] = out[k] + f * bk[k]
            return out

        basis = []
        for a in range(n):
            v = [zero] * n
            v[a] = table.one
            basis.append(v)
        jbasis = [self.apply_to_vector(v) for v in basis]

        witnesses = []
        for a in range(n):
            for b in range(a + 1, n):
                t1 = brackets[a][b]
                t2 = self.apply_to_vector(bracket_vec(jbasis[a], basis[b]))
                t3 = self.apply_to_vector(bracket_vec(basis[a], jbasis[b]))
                t4 = bracket_vec(jbasis[a], jbasis[b])
                total = [t1[k] + t2[k] + t3[k] - t4[k] for k in range(n)]
                if any(not c.is_zero() for c in total):
                    witnesses.append((a + 1, b + 1, total))
        return witnesses

    def model(self) -> "ComplexModel":
        if self._model is None and self._nijenhuis is None:
            try:
                self._model = ComplexModel(self)
            except IntegrabilityError:
                witnesses = self._nijenhuis_witnesses()
                if not witnesses:  # the two tests disagree: never pass silently
                    raise
                self._nijenhuis = NijenhuisReport(witnesses)
            else:
                self._nijenhuis = NijenhuisReport([])
        if self._model is None:
            a, b, _v = self._nijenhuis.witnesses[0]
            raise IntegrabilityError(f"{self.name} is not integrable: N(e_{a}, e_{b}) != 0")
        return self._model

    def __repr__(self):
        return f"AlmostComplexStructure({self.name}, dim={self.presentation.dim})"


class CoframePresentation(LieAlgebraPresentation):
    """The complex presentation of a ComplexModel: generators eta_1 .. eta_m
    and their conjugates.  ``model`` leads back to the structure, so a form
    over a coframe can always be taken to the real basis."""

    def __init__(self, model: "ComplexModel", differential, names):
        super().__init__(model.real.dim, differential, names=names, table=model.real.table)
        self.model = model

    def same_algebra(self, other):
        """Only the coframe itself: the coframes of two structures can share
        their structure equations, and their forms must still not mix."""
        return self is other


class ComplexModel:
    """The (1,0)-coframe of an integrable structure and the induced complex
    presentation ``cpres``, with exact change of basis in both directions.

    Complex generator k <= m is eta_k; generator m + k is its conjugate.
    ``del_gen`` and ``delbar_gen`` split d of each generator into the part
    that adds a holomorphic index and the rest; del and delbar are the
    derivations with those tables (``derive``, ``d_split_complex``) and act
    on ``cpres`` forms.  A non-integrable J has no model: the split raises.
    The change of basis is an algebra isomorphism, applied as the wedge of
    the generators' images; to_complex and to_real keep nothing, so a caller
    that needs a form in both bases holds both.
    """

    def __init__(self, J: AlmostComplexStructure):
        self.J = J
        pres = J.presentation
        self.real = pres
        table = pres.table
        n = pres.dim
        m = n // 2
        self.m = m

        # greedy coframe selection: the lowest real indices r whose e^r is not
        # in the span of the chosen pairs e^s, e^s o J.  Those are the pivots
        # of the columns e^1, e^1 o J, e^2, e^2 o J, ...: the span of the
        # chosen pairs is J-invariant and J^2 = -Id, so e^r o J is a pivot
        # exactly when e^r is, and the even pivots are the selection.
        zero, one = table.zero, table.one
        duals = [
            [x for r in range(n) for x in (one if i == r else zero, J.matrix[r][i])]
            for i in range(n)
        ]
        pivots = linear.rref(duals, 2 * n, Scalar.is_zero)[0]
        self.sigma = tuple(c // 2 + 1 for c in pivots if c % 2 == 0)

        # eta_r = e^r - i (e^r o J), and e^r o J is row r of J
        i_unit = table.i
        self.eta_forms = []
        for r in self.sigma:
            terms = {(r,): one}
            for s, x in J._rows[r - 1]:
                c = -(x * i_unit)
                terms[(s + 1,)] = one + c if s + 1 == r else c
            self.eta_forms.append(Form(pres, terms, _canonical=True))

        # change of basis.  R stacks the real rows e^r and e^r o J (r in
        # sigma); the complex rows eta_r = e^r - i e^r o J and their
        # conjugates are C = [[I, -iI], [I, iI]] R, so C^-1 = R^-1 M with
        # M = 1/2 [[I, I], [iI, -iI]] and only the real R is inverted.  With
        # tau the other indices, R = [[I, 0], [B, A]] in the column order
        # (sigma, tau), for B = J[sigma, sigma] and A = J[sigma, tau]; so
        # R^-1 = [[I, 0], [-A^-1 B, A^-1]], and only the m x m block A is
        # inverted.  A is invertible because R is: the selection makes the
        # rows of R a basis.  The selection ``rref`` and this inverse stay two
        # eliminations while ``perfbench/tracer.py`` wraps ``linear.invert``
        # by name and requires its span to fire on the manifest workloads;
        # merging them waits for spans recorded in the library (ROADMAP
        # item 1b).

        # the position of each real index (0-based) in sigma and in tau
        in_sigma = {r - 1: k for k, r in enumerate(self.sigma)}
        tau = [t for t in range(1, n + 1) if t - 1 not in in_sigma]
        in_tau = {t - 1: k for k, t in enumerate(tau)}
        a_rows = [[zero] * m for _ in range(m)]
        b_rows = [[] for _ in range(m)]  # the nonzero (position, entry) of B
        for k, r in enumerate(self.sigma):
            for c, x in J._rows[r - 1]:
                if c in in_tau:
                    a_rows[k][in_tau[c]] = x
                else:
                    b_rows[k].append((in_sigma[c], x))
        a_inv = linear.invert(a_rows, table)
        half = table.scalar(Fraction(1, 2))
        half_i = half * i_unit

        # the image of each generator as sparse 1-form term pairs
        # ((index,), coeff): e^r for r in sigma is (eta_r + conj eta_r) / 2,
        # and e^t for t in tau is read off its row of R^-1 (x on the rows
        # e^s, y on the rows e^s o J) as x / 2 + i y / 2 on eta_s and
        # x / 2 - i y / 2 on conj eta_s
        self._real_to_cx = [None] * n
        for k, r in enumerate(self.sigma):
            self._real_to_cx[r - 1] = [((k + 1,), half), ((m + k + 1,), half)]
        for t, y_row in zip(tau, a_inv):
            x_row = [zero] * m
            for s, y in enumerate(y_row):
                if not y.is_zero():
                    for k, b in b_rows[s]:
                        x_row[k] = x_row[k] - y * b
            pairs = [
                (k, x if x.is_zero() else half * x, y if y.is_zero() else half_i * y)
                for k, (x, y) in enumerate(zip(x_row, y_row))
                if not (x.is_zero() and y.is_zero())
            ]
            self._real_to_cx[t - 1] = [((k + 1,), x + y) for k, x, y in pairs] + [
                ((m + k + 1,), x - y) for k, x, y in pairs
            ]
        # complex generator a -> its real expansion: eta_a, then the conjugates
        self._cx_to_real = [sorted(eta.terms.items()) for eta in self.eta_forms]
        self._cx_to_real += [[(idx, c.conjugate()) for idx, c in row] for row in self._cx_to_real]

        names = tuple(f"z{k}" for k in range(1, m + 1)) + tuple(
            f"zb{k}" for k in range(1, m + 1)
        )
        # differential of the complex coframe, rewritten in the coframe itself.
        # With real structure constants d commutes with conjugation (J is real
        # too), so d(conj eta_a) = conj(d eta_a): the (0,1) half is the
        # conjugate of the (1,0) half.  Complex constants break that, so then
        # both halves are substituted.  Each real 2-monomial is substituted
        # once, and the d of every element is a combination of those images.
        real_constants = all(
            c == c.conjugate() for terms in pres.d_gen.values() for c in terms.values()
        )
        coframe = list(self.eta_forms)
        if not real_constants:
            coframe += [eta.conjugate() for eta in self.eta_forms]
        images = {}
        dgen = {}
        for a, element in enumerate(coframe):
            cterms = {}
            for mono, c in pres.d(element).terms.items():
                image = images.get(mono)
                if image is None:
                    image = images[mono] = self._substitute({mono: one}, self._real_to_cx)
                _add_products(cterms, image, [((), c)])
            if cterms:
                dgen[a + 1] = cterms
        if real_constants:
            for a in range(1, m + 1):
                if a in dgen:
                    dgen[m + a] = self._conjugate_terms(dgen[a])
        # split d of the coframe into the generator tables of del and delbar:
        # a term of d eta_g with one holomorphic index more than eta_g is
        # del, one with as many is delbar.  Any other is the algebraic
        # Newlander-Nirenberg test failing: a (0,2) part in d of a (1,0)
        # element ([T01, T01] not in T01) or a (2,0) part in d of a (0,1)
        # element ([T10, T10] not in T10).  del and delbar are derivations,
        # so these tables are all they need.
        self.del_gen, self.delbar_gen = {}, {}
        for g, cterms in dgen.items():
            own = int(g <= m)  # holomorphic indices of eta_g
            bad = (0, 2) if own else (2, 0)
            dl, db = {}, {}
            for idx, c in cterms.items():
                holo = (idx[0] <= m) + (idx[1] <= m)
                if holo == bad[0]:
                    kind = "(1,0)" if own else "(0,1)"
                    raise IntegrabilityError(
                        f"non-integrable structure: d of a {kind} coframe "
                        f"element has a ({bad[0]},{bad[1]}) component"
                    )
                (dl if holo > own else db)[idx] = c
            if dl:
                self.del_gen[g] = dl
            if db:
                self.delbar_gen[g] = db
        self.cpres = CoframePresentation(
            self,
            {g: [(c, idx) for idx, c in t.items()] for g, t in dgen.items()},
            names=names,
        )
        self.cpres.require_jacobi()

    # -- index helpers ---------------------------------------------------------

    def bidegree_of_indices(self, idx):
        p = sum(1 for k in idx if k <= self.m)
        return p, len(idx) - p

    def conjugate(self, cform: Form) -> Form:
        """The complex conjugate of a coframe form: every coefficient is
        conjugated and eta_k trades places with its conjugate, so a (p,q)
        monomial maps to a (q,p) one."""
        if not self.cpres.same_algebra(cform.presentation):
            raise FormError("form does not live over this model's complex coframe")
        return Form(self.cpres, self._conjugate_terms(cform.terms), _canonical=True)

    def _conjugate_terms(self, terms):
        m = self.m
        out = {}
        for idx, c in terms.items():
            p = self.bidegree_of_indices(idx)[0]
            # idx is sorted, so its holomorphic indices come first; moving the
            # q antiholomorphic ones to the front costs the sign (-1)^(p q)
            mapped = tuple(k - m for k in idx[p:]) + tuple(k + m for k in idx[:p])
            cc = c.conjugate()
            out[mapped] = -cc if p * (len(idx) - p) % 2 else cc
        return out

    def _substitute(self, terms, rows):
        """The change of basis is an algebra map, so a monomial goes to the
        wedge of its generators' images ``rows[r - 1]``: a chain of
        ``_add_products`` calls, the last of which adds into the result (a
        degree-0 term is multiplied by the unit)."""
        out = {}
        unit = [((), self.real.table.one)]
        for idx, coeff in terms.items():
            partial = {(): coeff}
            for r in idx[:-1]:
                partial = _add_products({}, partial, rows[r - 1])
            _add_products(out, partial, rows[idx[-1] - 1] if idx else unit)
        return out

    # -- conversions ------------------------------------------------------------

    def to_complex(self, form: Form) -> Form:
        if not self.real.same_algebra(form.presentation):
            raise FormError("form does not live over this model's presentation")
        return Form(self.cpres, self._substitute(form.terms, self._real_to_cx), _canonical=True)

    def to_real(self, cform: Form) -> Form:
        if not self.cpres.same_algebra(cform.presentation):
            raise FormError("form does not live over this model's complex coframe")
        return Form(self.real, self._substitute(cform.terms, self._cx_to_real), _canonical=True)

    def eta(self, a: int) -> Form:
        """The a-th coframe element (1-based) as a real-basis form."""
        return self.eta_forms[a - 1]

    def eta_monomial(self, etas, conj_etas=()) -> Form:
        """eta_{a1} ^ .. ^ eta_{ap} ^ conj(eta_{b1}) ^ .. as a complex form."""
        idx = tuple(etas) + tuple(self.m + b for b in conj_etas)
        return self.cpres.form([(1, idx)])

    def split_bidegrees(self, cform: Form):
        buckets = {}
        for idx, c in cform.terms.items():
            buckets.setdefault(self.bidegree_of_indices(idx), {})[idx] = c
        return {
            pq: Form(self.cpres, t, _canonical=True) for pq, t in buckets.items()
        }

    def derive(self, gen, cform: Form) -> Form:
        """The derivation with generator table ``gen`` (``del_gen`` or
        ``delbar_gen``) applied to a coframe form."""
        if not self.cpres.same_algebra(cform.presentation):
            raise FormError("form does not live over this model's complex coframe")
        return Form(self.cpres, _d_terms(gen, cform.terms), _canonical=True)

    def d_split_complex(self, cform: Form):
        """(del part, delbar part) of d on a complex-basis form."""
        return self.derive(self.del_gen, cform), self.derive(self.delbar_gen, cform)


class BigradedForm:
    """The (p,q)-decomposition of a form with respect to a fixed structure.

    The parts stay in the complex coframe; a component is converted back to
    the basis of the decomposed form only when it is read."""

    def __init__(self, model, parts, back):
        self.model = model
        self.parts = parts  # {(p, q): Form over model.cpres}
        self._back = back  # model.to_real, or the identity for complex input

    def component(self, p, q) -> Form:
        return self._back(self.parts.get((p, q), Form.zero(self.model.cpres)))

    @property
    def components(self):
        return {pq: self.component(*pq) for pq in self.bidegrees()}

    def bidegrees(self):
        return sorted(self.parts)

    def total(self) -> Form:
        terms = {}
        for part in self.parts.values():
            terms.update(part.terms)
        return self._back(Form(self.model.cpres, terms, _canonical=True))

    def is_pure(self, p, q):
        return set(self.parts) <= {(p, q)}

    def __repr__(self):
        return f"BigradedForm({self.bidegrees()})"


def nijenhuis_vanishes(J: AlmostComplexStructure) -> NijenhuisReport:
    return J.nijenhuis_vanishes()


def coframe_10(J: AlmostComplexStructure):
    """The (1,0)-coframe as real-basis forms, in greedy selection order."""
    return list(J.model().eta_forms)


def real_basis(a: Form) -> Form:
    """``a`` in the real basis: a form over a structure's complex coframe is
    converted back, any other form is returned as it is."""
    pres = a.presentation
    return pres.model.to_real(a) if isinstance(pres, CoframePresentation) else a


def _lift(a: Form, J: AlmostComplexStructure):
    """(model, a in the complex coframe of J, the map back to a's basis).
    A form over another structure's coframe is taken to the real basis
    first, and answers for it come back in the real basis."""
    model = J.model()
    if a.presentation is model.cpres:
        return model, a, lambda f: f
    return model, model.to_complex(real_basis(a)), model.to_real


def bidegree(a: Form, J: AlmostComplexStructure) -> BigradedForm:
    model, ca, back = _lift(a, J)
    return BigradedForm(model, model.split_bidegrees(ca), back)


def del_(a: Form, J: AlmostComplexStructure) -> Form:
    model, ca, back = _lift(a, J)
    return back(model.derive(model.del_gen, ca))


def delbar(a: Form, J: AlmostComplexStructure) -> Form:
    model, ca, back = _lift(a, J)
    return back(model.derive(model.delbar_gen, ca))


def dc(a: Form, J: AlmostComplexStructure) -> Form:
    """d^c = i (delbar - del)."""
    model, ca, back = _lift(a, J)
    dl, db = model.d_split_complex(ca)
    return back(model.cpres.table.i * (db - dl))


def conjugate_form(a: Form, J: AlmostComplexStructure | None = None) -> Form:
    """The complex conjugate of ``a``; swaps (p,q) and (q,p) components.  A
    real-basis form has its coefficients conjugated; a form over a complex
    coframe is conjugated there (``ComplexModel.conjugate``), so J is not
    needed to tell the two apart."""
    pres = a.presentation
    return pres.model.conjugate(a) if isinstance(pres, CoframePresentation) else a.conjugate()


def weil_operator(a: Form, J: AlmostComplexStructure) -> Form:
    """Multiply each (p,q)-component by i^(p-q)."""
    model, ca, back = _lift(a, J)
    table = a.presentation.table
    out = {}
    for idx, c in ca.terms.items():
        p, q = model.bidegree_of_indices(idx)
        out[idx] = c * table.i ** ((p - q) % 4)
    return back(Form(model.cpres, out, _canonical=True))


def fundamental_form(J: AlmostComplexStructure, gram) -> Form:
    """The 2-form omega(X, Y) = g(JX, Y) of a J-compatible metric g."""
    pres = J.presentation
    table = pres.table
    n = pres.dim
    g = pres._as_matrix(gram)
    m = linear.mat_mul(linear.transpose(J.matrix), g, table)
    terms = []
    for r in range(n):
        for s in range(r + 1, n):
            if not (m[r][s] + m[s][r]).is_zero():
                raise FormError("metric is not compatible with the structure")
            if not m[r][s].is_zero():
                terms.append((m[r][s], (r + 1, s + 1)))
    return pres.form(terms)
