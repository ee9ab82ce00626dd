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

The operators act on the complex coframe of the structure, which is its
ComplexModel: a presentation in its own right, whose generators are the
coframe and its conjugates.  A real-basis form is converted once in and
once out; a form over the model is acted on in place, so
del(delbar(omega^k)) computed there pays for one conversion in total.  The
conversions and the pullback by J multiply monomials in cealg's one kernel.
A coframe form is also conjugated in place: ``Form.conjugate`` asks its
presentation, and the model swaps eta_k with its conjugate with the sign
(-1)^(pq) on a (p,q) monomial.  del and delbar are derivations: the model
splits d of its coframe once into their generator tables, and each operator
runs cealg's derivation kernel on one table, so it neither takes the full d
nor sorts terms by bidegree.

Integrability is decided once, when the model is built, by the pass that
fills the tables: a term of d of a coframe element that is neither del nor
delbar is forbidden (the algebraic Newlander-Nirenberg condition).  The
forbidden parts are the Nijenhuis tensor itself, since z(N(X, Y)) =
-4 beta(X, Y) for the forbidden part beta of d z, so the same pass names
the witnesses N(e_a, e_b) != 0 through the change of basis back to the real
coframe.  A non-integrable J has no model; the error carries the witnesses,
and the structure keeps them as its ``NijenhuisReport``.

Building a model reads J by its nonzero entries.  The structure's checks
square J from its nonzero products; the coframe is read off the rows of J;
one row reduction of the n x n matrix whose column t is eta_t, with row c
delta_ct - i J_tc, selects the coframe by its m pivot columns and leaves in
reduced row k the coordinates A_tk of eta_t = sum_k A_tk eta_(sigma_k), from
which the change of basis follows in closed form; and with real structure
constants the (0,1) half of the coframe's differential is the conjugate of
the (1,0) half, so only the (1,0) half is substituted.  The split yields
canonical tables, which the model keeps as its structure equations without
collecting them again.  d^2 = 0 on the coframe is not recomputed: the
coframe's d is the real d carried through an algebra isomorphism, so the
model's Jacobi report is the real presentation's, which the build has
already required; the tests recompute it on the coframe's tables as an
oracle.  The map from the coframe back to the real basis, which only
``to_real`` and the Nijenhuis witnesses read, is built on first read, and
del of the (p,0)-monomials (``del_columns``) once per degree p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import linear
from .cealg import (
    Form,
    FormError,
    LieAlgebraPresentation,
    PresentationError,
    _add_products,
    _d_terms,
)


class IntegrabilityError(PresentationError):
    """A matrix that is no almost complex structure, or a structure that is
    not integrable; the complex model's split then carries the witnesses of
    N != 0, as ``NijenhuisReport`` lists them."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = list(witnesses)


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
        """Build J from a partial basis action {generator: (coeff, generator)
        or signed name like "-e2"}, each generator a reference that
        ``presentation.resolve`` reads; the remaining half is forced by
        J^2 = -Id.
        """
        n = presentation.dim
        table = presentation.table
        cols = {}
        for src, dst in action.items():
            if isinstance(dst, str):
                coeff, tgt = (-1, dst[1:]) if dst.startswith("-") else (1, dst)
            else:
                coeff, tgt = dst
            cols[presentation.resolve(src)] = (presentation.resolve(tgt), table.scalar(coeff))
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

        The verdict and the witnesses both come from building the complex
        model: its bidegree split of d of the coframe is the algebraic
        Newlander-Nirenberg test, and its forbidden parts are N itself."""
        if self._nijenhuis is None:
            try:
                self.model()
            except IntegrabilityError:
                pass
        return self._nijenhuis

    def model(self) -> "ComplexModel":
        if self._nijenhuis is None:
            try:
                self._model = ComplexModel(self)
            except IntegrabilityError as err:
                if not err.witnesses:  # a forbidden part always names a pair
                    raise RuntimeError("internal error: no Nijenhuis witness") from err
                self._nijenhuis = NijenhuisReport(err.witnesses)
            else:
                self._nijenhuis = NijenhuisReport([])
        if self._model is None:
            a, b, _v = self._nijenhuis.witnesses[0]
            raise IntegrabilityError(f"{self.name} is not integrable: N(e_{a}, e_{b}) != 0")
        return self._model

    def __repr__(self):
        return f"AlmostComplexStructure({self.name}, dim={self.presentation.dim})"


def _conjugate_coframe_terms(terms, m):
    """Conjugate coframe terms: every coefficient conjugated and eta_k (k <= m)
    swapped with its conjugate, so a (p,q) monomial maps to a (q,p) one."""
    out = {}
    for idx, c in terms.items():
        p = sum(1 for k in idx if k <= m)
        # idx is sorted, so its holomorphic indices come first; moving the
        # q antiholomorphic ones to the front costs the sign (-1)^(p q)
        mapped = tuple(k - m for k in idx[p:]) + tuple(k + m for k in idx[:p])
        cc = c.conjugate()
        out[mapped] = -cc if p * (len(idx) - p) % 2 else cc
    return out


class ComplexModel(LieAlgebraPresentation):
    """The complex coframe of an integrable structure, as a presentation:
    generators eta_1 .. eta_m (z1 .. zm) and their conjugates (zb1 .. zbm),
    whose structure equations are d of the coframe rewritten in the coframe,
    with exact change of basis to and from the real presentation ``real``.

    Complex generator k <= m is eta_k; generator m + k is its conjugate.
    ``del_gen`` and ``delbar_gen`` split d of each generator into the part
    that adds a holomorphic index and the rest; del and delbar are the
    derivations with those tables (``derive``, ``d_split_complex``) and act
    on forms over the model.  A non-integrable J has no model: the split
    raises.  The change of basis is an algebra isomorphism, applied as the
    wedge of the generators' images; to_complex and to_real keep nothing, so
    a caller that needs a form in both bases holds both.  The model keeps no
    reference to its structure, so the two hold no cycle.

    The model's Jacobi report is that of ``real``: d^2 = 0 holds on the
    coframe because it holds on the real basis, and the tests check it on
    the model's own tables.  ``_cx_to_real`` (complex generator -> real
    expansion) is built on first read.
    """

    def __init__(self, J: AlmostComplexStructure):
        pres = J.presentation
        self.real = pres
        table = pres.table
        n = pres.dim
        m = n // 2
        self.m = m

        # greedy coframe selection: the lowest real indices r whose e^r is not
        # in the span of the chosen pairs e^s, e^s o J.  That span is
        # J-invariant, so e^r lies in it exactly when eta_r = e^r - i (e^r o J)
        # lies in the span of the chosen eta_s, and the selection is the pivot
        # columns of the matrix whose column t is eta_t.  e^t o J is row t of
        # J, so row c of that matrix is delta_ct - i J_tc.
        one, minus_i = table.one, -table.i
        etas = []
        for t, row in enumerate(J._rows):
            terms = {t: one}
            for c, x in row:
                y = x * minus_i
                terms[c] = one + y if c == t else y
            etas.append(terms)
        rows = [{} for _ in range(n)]
        for t, terms in enumerate(etas):
            for c, y in terms.items():
                rows[c][t] = y
        pivots = linear.rref(rows, n)[0]
        self.sigma = tuple(t + 1 for t in pivots)
        self.eta_forms = [
            Form(pres, {(c + 1,): y for c, y in etas[t].items()}, _canonical=True) for t in pivots
        ]

        # change of basis.  Reduced row k holds A_tk in column t, for eta_t =
        # sum_k A_tk eta_(sigma_k); with e^t = (eta_t + conj eta_t) / 2 and a
        # real J, the image of e^t as sparse 1-form term pairs ((index,),
        # coeff) is A_tk / 2 on eta_k and conj(A_tk) / 2 on conj eta_k.
        half = table.scalar(Fraction(1, 2))
        reduced = list(enumerate(rows[:m]))
        self._real_to_cx = []
        for t in range(n):
            pairs = [(k, half * row[t]) for k, row in reduced if t in row]
            holo = [((k + 1,), a) for k, a in pairs]
            self._real_to_cx.append(holo + [((m + k + 1,), a.conjugate()) for k, a in pairs])

        # differential of the complex coframe, rewritten in the coframe itself.
        # With real structure constants d commutes with conjugation (J is real
        # too), so d(conj eta_a) = conj(d eta_a): the (0,1) half is the
        # conjugate of the (1,0) half.  Complex constants break that, so then
        # both halves are substituted.  Each real 2-monomial is substituted
        # once, and the d of every element is a combination of those images.
        real_constants = all(
            c == c.conjugate() for terms in pres.d_gen.values() for c in terms.values()
        )
        coframe = self.eta_forms
        if not real_constants:
            coframe = coframe + [eta.conjugate() for eta in coframe]
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
                    dgen[m + a] = _conjugate_coframe_terms(dgen[a], m)
        # split d of the coframe into the generator tables of del and delbar:
        # a term of d eta_g with one holomorphic index more than eta_g is
        # del, one with as many is delbar.  Any other is forbidden, the
        # algebraic Newlander-Nirenberg test failing: a (0,2) part in d of a
        # (1,0) element ([T01, T01] not in T01) or a (2,0) part in d of a
        # (0,1) element ([T10, T10] not in T10).  del and delbar are
        # derivations, so these tables are all they need.
        self.del_gen, self.delbar_gen = {}, {}
        forbidden = {}
        for g, cterms in dgen.items():
            own = int(g <= m)  # holomorphic indices of eta_g
            banned = 2 - 2 * own  # those of its forbidden part
            dl, db, bad = {}, {}, {}
            for idx, c in cterms.items():
                holo = (idx[0] <= m) + (idx[1] <= m)
                (bad if holo == banned else dl if holo > own else db)[idx] = c
            for gen, part in ((self.del_gen, dl), (self.delbar_gen, db), (forbidden, bad)):
                if part:
                    gen[g] = part
        if forbidden:
            kind, part = ("(1,0)", "(0,2)") if min(forbidden) <= m else ("(0,1)", "(2,0)")
            raise IntegrabilityError(
                f"non-integrable structure: d of a {kind} coframe element has a {part} component",
                self._nijenhuis_from(forbidden),
            )
        names = tuple(f"z{k}" for k in range(1, m + 1)) + tuple(f"zb{k}" for k in range(1, m + 1))
        super().__init__(n, names=names, table=table)
        self.d_gen = dgen
        self._jacobi = pres.jacobi_check()
        self._del_columns = {}

    @cached_property
    def _cx_to_real(self):
        """Complex generator a -> its real expansion as sorted term pairs:
        eta_a, then the conjugates.  Only ``to_real`` and the Nijenhuis
        witnesses read it, so it is built on first read."""
        coframe = self.eta_forms + [eta.conjugate() for eta in self.eta_forms]
        return [sorted(eta.terms.items()) for eta in coframe]

    def same_algebra(self, other):
        """Only the coframe itself: the coframes of two structures can share
        their structure equations, and their forms must still not mix."""
        return self is other

    def conjugate_terms(self, terms):
        return _conjugate_coframe_terms(terms, self.m)

    def _nijenhuis_from(self, forbidden):
        """(a, b, coefficient list of N(e_a, e_b)) for every pair a < b on
        which N does not vanish, read off the forbidden parts beta_g of d of
        the complex generators z_g.  For a (1,0) generator (z_g o J = i z_g)
        and its (0,2) part, or a (0,1) one and its (2,0) part, z_g(N(X, Y)) =
        -4 beta_g(X, Y); and e^r = sum_g C_rg z_g (``_real_to_cx``), so
        coordinate r of N(e_a, e_b) is the (a, b) coefficient of the real form
        -4 sum_g C_rg beta_g."""
        n = self.real.dim
        zero, minus_four = self.real.table.zero, self.real.table.scalar(-4)
        vectors = {}
        for r, row in enumerate(self._real_to_cx):
            terms = {}
            for (g,), c in row:
                if g in forbidden:
                    _add_products(terms, forbidden[g], [((), minus_four * c)])
            for pair, v in self._substitute(terms, self._cx_to_real).items():
                vectors.setdefault(pair, [zero] * n)[r] = v
        return [(a, b, v) for (a, b), v in sorted(vectors.items())]

    # -- index helpers ---------------------------------------------------------

    def bidegree_of_indices(self, idx):
        p = sum(1 for k in idx if k <= self.m)
        return p, len(idx) - p

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
        return Form(self, self._substitute(form.terms, self._real_to_cx), _canonical=True)

    def to_real(self, cform: Form) -> Form:
        if not self.same_algebra(cform.presentation):
            raise FormError("form does not live over this model's complex coframe")
        return Form(self.real, self._substitute(cform.terms, self._cx_to_real), _canonical=True)

    def _coframe(self, indices):
        """``indices`` as a tuple, if each is an ``int`` (not a bool) in 1..m."""
        indices = tuple(indices)
        if not all(type(a) is int and 1 <= a <= self.m for a in indices):
            raise FormError(f"coframe indices {indices} are not all integers in 1..{self.m}")
        return indices

    def eta(self, a: int) -> Form:
        """The a-th coframe element (1-based) as a real-basis form."""
        return self.eta_forms[self._coframe((a,))[0] - 1]

    def eta_monomial(self, etas, conj_etas=()) -> Form:
        """eta_{a1} ^ .. ^ eta_{ap} ^ conj(eta_{b1}) ^ .. as a complex form."""
        idx = self._coframe(etas) + tuple(self.m + b for b in self._coframe(conj_etas))
        return self.form([(1, idx)])

    def split_bidegrees(self, cform: Form):
        buckets = {}
        for idx, c in cform.terms.items():
            buckets.setdefault(self.bidegree_of_indices(idx), {})[idx] = c
        return {pq: Form(self, t, _canonical=True) for pq, t in buckets.items()}

    def derive(self, gen, cform: Form) -> Form:
        """The derivation with generator table ``gen`` (``del_gen`` or
        ``delbar_gen``) applied to a coframe form."""
        if not self.same_algebra(cform.presentation):
            raise FormError("form does not live over this model's complex coframe")
        return Form(self, _d_terms(gen, cform.terms), _canonical=True)

    def d_split_complex(self, cform: Form):
        """(del part, delbar part) of d on a complex-basis form."""
        return self.derive(self.del_gen, cform), self.derive(self.delbar_gen, cform)

    def del_columns(self, p):
        """The (p,0)-monomials z_I (I increasing, in lexicographic order) and
        del z_I of each as a term dict, built once per degree p.  They are
        term dicts, not forms, so nothing the model keeps points back at it."""
        if p not in self._del_columns:
            monomials = list(combinations(range(1, self.m + 1), p))
            columns = [_d_terms(self.del_gen, {idx: self.table.one}) for idx in monomials]
            self._del_columns[p] = (monomials, columns)
        return self._del_columns[p]


class BigradedForm:
    """The (p,q)-decomposition of a form with respect to a fixed structure.

    The parts stay in the complex coframe; a component is converted back to
    the basis of the decomposed form only when it is read."""

    def __init__(self, model, parts, back):
        self.model = model
        self.parts = parts  # {(p, q): Form over model}
        self._back = back  # model.to_real, or the identity for complex input

    def component(self, p, q) -> Form:
        return self._back(self.parts.get((p, q), Form.zero(self.model)))

    @property
    def components(self):
        return {pq: self.component(*pq) for pq in self.bidegrees()}

    def bidegrees(self):
        return sorted(self.parts)

    def total(self) -> Form:
        terms = {}
        for part in self.parts.values():
            terms.update(part.terms)
        return self._back(Form(self.model, terms, _canonical=True))

    def is_pure(self, p, q):
        return set(self.parts) <= {(p, q)}

    def __repr__(self):
        return f"BigradedForm({self.bidegrees()})"


def nijenhuis_vanishes(J: AlmostComplexStructure) -> NijenhuisReport:
    return J.nijenhuis_vanishes()


def real_basis(a: Form) -> Form:
    """``a`` in the real basis: a form over a structure's complex coframe is
    converted back, any other form is returned as it is."""
    pres = a.presentation
    return pres.to_real(a) if isinstance(pres, ComplexModel) else a


def _lift(a: Form, J: AlmostComplexStructure):
    """(model, a in the complex coframe of J, the map back to a's basis).
    A form over another structure's coframe is taken to the real basis
    first, and answers for it come back in the real basis."""
    model = J.model()
    if a.presentation is model:
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
    return back(model.table.i * (db - dl))


def weil_operator(a: Form, J: AlmostComplexStructure) -> Form:
    """Multiply each (p,q)-component by i^(p-q)."""
    model, ca, back = _lift(a, J)
    table = a.presentation.table
    out = {}
    for idx, c in ca.terms.items():
        p, q = model.bidegree_of_indices(idx)
        out[idx] = c * table.i ** ((p - q) % 4)
    return back(Form(model, out, _canonical=True))


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
