"""Finite-dimensional Lie algebra presentations, the exterior algebra on the
dual, and the Chevalley-Eilenberg differential.

A presentation is given by structure equations: the image of each dual
generator under d, as a 2-form.  d^2 = 0 on all generators is equivalent to
the Jacobi identity for the underlying bracket; the check runs at
construction time and gates every downstream differential operation.

Forms are sparse sums of (coefficient, strictly increasing index tuple)
terms with a unique canonical representation: repeated indices vanish, terms
with zero coefficients are dropped, and term order is (degree, indices).
Mixed-degree forms are allowed.  Every term list that becomes a form (the
public ``Form`` constructor, ``LieAlgebraPresentation.form`` and each
structure equation) is made canonical in one place, ``_collect``.
``Form.conjugate`` is complex conjugation in the form's own basis, as its
presentation defines it (a complex coframe also swaps each generator with
its conjugate).

A generator reference is a name, which goes through ``index_of``, or an
``int`` (not a bool) in 1..dim; ``LieAlgebraPresentation.form`` reads every
reference by this rule, and each other reader goes through it (``resolve``).
``direct_sum`` joins the summands' symbol tables with ``SymbolTable.merge``.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Iterable, Mapping, Sequence

from . import linear
from .scalars import Scalar, SymbolTable, check_power_size


class PresentationError(ValueError):
    pass


class FormError(ValueError):
    pass


def _merge_signed(a, b):
    """Merge two strictly increasing index tuples, tracking the permutation
    sign; returns (None, 0) when an index repeats."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    sign = 1
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif x > y:
            if (la - i) & 1:
                sign = -sign
            out.append(y)
            j += 1
        else:
            return None, 0
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _sort_signed(indices):
    """Canonicalize an arbitrary index sequence; (None, 0) on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0
    return tuple(idx), sign


def _collect(presentation, pairs):
    """The canonical term dict of (coefficient, index tuple) pairs with
    integer indices: each coefficient lifted into the presentation's table,
    an index whose type is not ``int`` (so a bool too) or that lies outside
    1..dim refused, the indices sorted with their permutation sign,
    repeated-index terms and zero sums dropped."""
    scalar, dim = presentation.table.scalar, presentation.dim
    out = {}
    for coeff, indices in pairs:
        c = scalar(coeff)
        for k in indices:
            if type(k) is not int:
                raise FormError(f"index {k!r} is not an integer in {tuple(indices)}")
        if indices and not (1 <= min(indices) and max(indices) <= dim):
            raise FormError(f"index out of range in {tuple(indices)}")
        idx, sign = _sort_signed(indices)
        if idx is None:
            continue
        if sign < 0:
            c = -c
        s = out.get(idx)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(idx, None)
        else:
            out[idx] = s
    return out


class Form:
    """A sparse exterior form over a fixed presentation."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation, terms, _canonical=False):
        self.presentation = presentation
        if _canonical:
            self.terms = terms
        else:
            self.terms = _collect(presentation, ((c, idx) for idx, c in terms.items()))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(presentation):
        return Form(presentation, {}, _canonical=True)

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({len(idx) for idx in self.terms})

    def degree(self):
        ds = self.degrees()
        if len(ds) != 1:
            raise FormError(f"form is not homogeneous (degrees {ds})")
        return ds[0]

    # -- ring structure --------------------------------------------------------

    def _check_mate(self, other):
        if not isinstance(other, Form):
            raise FormError(f"expected a Form, got {type(other).__name__}")
        if not self.presentation.same_algebra(other.presentation):
            raise FormError("forms live over mismatched presentations")

    def __add__(self, other):
        self._check_mate(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return Form(self.presentation, out, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.presentation, {i: -c for i, c in self.terms.items()}, _canonical=True)

    def scale(self, scalar):
        scalar = self.presentation.table.scalar(scalar)
        if scalar.is_zero():
            return Form.zero(self.presentation)
        return Form(
            self.presentation,
            {i: c * scalar for i, c in self.terms.items()},
            _canonical=True,
        )

    def __mul__(self, scalar):
        return self.scale(scalar)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation in the form's own basis (``conjugate_terms``)."""
        pres = self.presentation
        return Form(pres, pres.conjugate_terms(self.terms), _canonical=True)

    def coefficient(self, indices):
        idx, sign = _sort_signed(indices)
        if idx is None:
            return self.presentation.table.zero
        c = self.terms.get(idx)
        if c is None:
            return self.presentation.table.zero
        return c if sign == 1 else -c

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if not self.presentation.same_algebra(other.presentation):
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted((i, c.key()) for i, c in self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.presentation.names
        parts = []
        for idx, c in self.sorted_terms():
            mono = "^".join(names[k - 1] for k in idx) if idx else "1"
            cs = str(c)
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if ("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}" if idx else cs)
        text = parts[0]
        for p in parts[1:]:
            text += p if p.startswith("-") else "+" + p
        return text

    def __repr__(self):
        return f"Form({self})"


def _add_products(out, terms, pairs):
    """Add the exterior product of the term dict ``terms`` and the
    (indices, coefficient) pairs into the term dict ``out``, dropping sums
    that vanish; returns ``out``.  Every product of exterior monomials goes
    through here (the derivations d, del and delbar keep their own loop in
    ``_d_terms``)."""
    for ia, ca in terms.items():
        for ib, cb in pairs:
            merged, sign = _merge_signed(ia, ib)
            if merged is None:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            s = out.get(merged)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = s
    return out


def _d_terms(d_gen, terms):
    """The degree-one derivation with generator table ``d_gen`` (generator
    index -> 2-form terms) applied to the term dict ``terms``: d with the
    presentation's table, del or delbar with a complex model's halves."""
    out = {}
    for idx, c in terms.items():
        for pos, g in enumerate(idx):
            dg = d_gen.get(g)
            if not dg:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            neg = pos & 1
            for pair, c2 in dg.items():
                merged, sign = _merge_signed(pair, rest)
                if merged is None:
                    continue
                cc = c * c2
                if (sign < 0) != bool(neg):
                    cc = -cc
                s = out.get(merged)
                s = cc if s is None else s + cc
                if s.is_zero():
                    out.pop(merged, None)
                else:
                    out[merged] = s
    return out


def wedge(a: Form, b: Form) -> Form:
    """Graded-commutative exterior product with canonical output."""
    a._check_mate(b)
    return Form(a.presentation, _add_products({}, a.terms, b.terms.items()), _canonical=True)


def wedge_all(forms: Sequence[Form]) -> Form:
    if not forms:
        raise FormError("wedge_all needs at least one form")
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def wedge_power(a: Form, k: int) -> Form:
    """a^k for k >= 1.  The 0-form part c of a is central and N = a - c is
    nilpotent, so a^k = sum_j C(k, j) c^(k-j) N^j, and the ladder of N^j
    stops at the first zero product: at most dim wedges, whatever k is.  A
    c^k far too long to print is refused before it is built
    (``scalars.check_power_size``)."""
    if k < 0:
        raise FormError("negative wedge power")
    if k == 0:
        raise FormError("wedge_power with k = 0 has no top-level unit form")
    pres = a.presentation
    c = a.terms.get((), pres.table.zero)
    check_power_size(c, k)
    rest = Form(pres, {idx: x for idx, x in a.terms.items() if idx}, _canonical=True)
    out = Form(pres, {} if c.is_zero() else {(): c**k}, _canonical=True)
    power = rest  # N^j
    for j in range(1, min(k, pres.dim) + 1):
        if j > 1:
            power = wedge(power, rest)
        if power.is_zero():
            break
        out = out + power.scale(c ** (k - j) * comb(k, j))
    return out


class JacobiReport:
    """Outcome of the d^2 = 0 check, with the residual d(d e^k) per generator."""

    def __init__(self, residuals):
        self.residuals = residuals  # {generator index: Form}, nonzero entries only

    @property
    def passed(self):
        return not self.residuals

    def witness(self):
        if self.passed:
            return None
        k = min(self.residuals)
        return k, self.residuals[k]

    def __repr__(self):
        if self.passed:
            return "JacobiReport(pass)"
        return f"JacobiReport(fail at generators {sorted(self.residuals)})"


class LieAlgebraPresentation:
    """A Lie algebra given through the differential of its dual generators.

    ``differential`` maps generator index (1-based) to the 2-form d e^k; the
    bracket is derived from it where needed.  Named endomorphisms (acting on
    the vector basis, column convention), bilinear Gram matrices and forms may
    be attached to the ``endomorphisms``, ``bilinears`` and ``forms`` dicts;
    attachments do not affect algebra identity.
    """

    def __init__(
        self,
        dim: int,
        differential: Mapping[int, Iterable] | None = None,
        names: Sequence[str] | None = None,
        table: SymbolTable | None = None,
    ):
        if dim <= 0:
            raise PresentationError("dimension must be positive")
        self.dim = dim
        self.table = table if table is not None else SymbolTable()
        if names is None:
            names = tuple(f"e{k}" for k in range(1, dim + 1))
        else:
            names = tuple(names)
            if len(names) != dim or len(set(names)) != dim:
                raise PresentationError("basis names must be distinct, one per generator")
        self.names = names
        self._name_index = {n: k + 1 for k, n in enumerate(names)}

        self.d_gen = {}
        for gen, two_form in (differential or {}).items():
            if not 1 <= gen <= dim:
                raise PresentationError(f"differential refers to generator {gen} outside 1..{dim}")
            try:
                terms = _collect(self, two_form)
            except FormError as e:
                raise PresentationError(f"{e} in d of generator {gen}") from None
            if any(len(idx) != 2 for idx in terms):
                raise PresentationError("structure equations must be 2-forms")
            if terms:
                self.d_gen[gen] = terms

        self._jacobi = None
        self.endomorphisms = {}
        self.bilinears = {}
        self.forms = {}

    # -- helpers -----------------------------------------------------------

    def _as_matrix(self, rows):
        """``rows`` as an n x n tuple of tuples of this table's scalars; one
        that already is one is returned as it is."""
        n = self.dim
        rows = rows if type(rows) is tuple else tuple(rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise PresentationError(f"matrices attached to this presentation must be {n}x{n}")
        table = self.table
        if all(type(r) is tuple and all(type(x) is Scalar and x.table is table for x in r)
               for r in rows):
            return rows
        return tuple(tuple(table.scalar(x) for x in r) for r in rows)

    def index_of(self, name):
        try:
            return self._name_index[name]
        except KeyError:
            raise PresentationError(f"unknown generator name {name!r}") from None

    @cached_property
    def _signature(self):
        """The algebra's identity for ``same_algebra`` besides its symbol
        table: dimension, names and structure constants.  Built on the first
        comparison of two distinct presentations; a complex model's coframe
        is compared by identity and never builds it."""
        return (
            self.dim,
            self.names,
            tuple(
                (g, tuple(sorted((i, c.key()) for i, c in t.items())))
                for g, t in sorted(self.d_gen.items())
            ),
        )

    def same_algebra(self, other):
        return self is other or (
            self.table.compatible(other.table) and self._signature == other._signature
        )

    def form(self, terms) -> Form:
        """Build a form from (coefficient, tuple of generator references)
        pairs: a name goes through ``index_of``, and ``_collect`` takes an
        ``int`` (not a bool) in 1..dim as it is and refuses anything else."""
        resolved = (
            (c, tuple(self.index_of(k) if isinstance(k, str) else k for k in indices))
            for c, indices in terms
        )
        return Form(self, _collect(self, resolved), _canonical=True)

    def generator(self, k) -> Form:
        return self.form([(1, (k,))])

    def resolve(self, ref) -> int:
        """The index of one generator reference, read as ``form`` reads it."""
        ((k,),) = self.generator(ref).terms
        return k

    def conjugate_terms(self, terms):
        """The conjugate's terms: the generators are real, so i -> -i."""
        return {idx: c.conjugate() for idx, c in terms.items()}

    # -- differential ----------------------------------------------------------

    def d_of_generator(self, k) -> Form:
        return Form(self, dict(self.d_gen.get(self.resolve(k), {})), _canonical=True)

    def jacobi_check(self) -> JacobiReport:
        """d(d e^k) for every generator; pass iff all vanish."""
        if self._jacobi is None:
            residuals = {}
            for g in range(1, self.dim + 1):
                dd = _d_terms(self.d_gen, self.d_gen.get(g, {}))
                if dd:
                    residuals[g] = Form(self, dd, _canonical=True)
            self._jacobi = JacobiReport(residuals)
        return self._jacobi

    def require_jacobi(self):
        rep = self.jacobi_check()
        if not rep.passed:
            g, res = rep.witness()
            raise PresentationError(
                f"presentation fails d^2 = 0: d(d {self.names[g - 1]}) = {res}"
            )

    def d(self, form: Form) -> Form:
        """Chevalley-Eilenberg differential, extended as an antiderivation."""
        if not self.same_algebra(form.presentation):
            raise FormError("form does not live over this presentation")
        self.require_jacobi()
        return Form(self, _d_terms(self.d_gen, form.terms), _canonical=True)

    # -- brackets (derived) ------------------------------------------------------

    def bracket_coefficients(self, i, j):
        """[e_i, e_j] = sum_k c_k e_k derived from the structure equations;
        returns the dense coefficient list (c_1 .. c_n)."""
        i, j = self.resolve(i), self.resolve(j)
        zero = self.table.zero
        out = [zero] * self.dim
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j = j, i
            sign = -1
        for k in range(1, self.dim + 1):
            c = self.d_gen.get(k, {}).get((i, j))
            if c is not None:
                # d e^k (e_i, e_j) = -e^k([e_i, e_j])
                out[k - 1] = c if sign < 0 else -c
        return out

    def __repr__(self):
        return f"LieAlgebraPresentation(dim={self.dim}, names={self.names[0]}..{self.names[-1]})"


def d(form: Form) -> Form:
    return form.presentation.d(form)


def top_coefficient(a: Form, vol: Form) -> Scalar:
    """The scalar c with (top-degree part of a) = c * vol.

    ``vol`` must be a nonzero top-degree form supported on one monomial;
    lower-degree parts of ``a`` are ignored.
    """
    a._check_mate(vol)
    pres = a.presentation
    if vol.is_zero() or len(vol.terms) != 1:
        raise FormError("volume must be a nonzero monomial-supported form")
    (vidx, vc), = vol.terms.items()
    if len(vidx) != pres.dim:
        raise FormError(f"volume must have top degree {pres.dim}")
    top = a.terms.get(vidx)
    if top is None:
        return pres.table.zero
    return top / vc


def solve_combination(forms: Sequence[Form], target: Form):
    """Coefficients x with sum_k x_k forms[k] = target, solved exactly over
    the monomials that occur, in (degree, index) order.  Returns
    (coefficients, number of free coefficients), the free ones set to zero,
    or (None, None) when target is no combination of the forms."""
    table = target.presentation.table
    zero = table.zero
    rows_idx = sorted(
        set(target.terms).union(*(f.terms for f in forms)), key=lambda u: (len(u), u)
    )
    if not rows_idx:
        return [zero] * len(forms), len(forms)
    mat = [[f.terms.get(idx, zero) for f in forms] for idx in rows_idx]
    rhs = [target.terms.get(idx, zero) for idx in rows_idx]
    return linear.solve(mat, rhs, table)


def direct_sum(g1: LieAlgebraPresentation, g2: LieAlgebraPresentation, names=None):
    """Direct sum of Lie algebras: bases concatenate (second block reindexed),
    differentials embed, attached structures embed block-diagonally.

    Colliding generator names from the second summand are renamed with a
    suffix automatically; explicitly supplied ``names`` must be collision
    free.
    """
    g1.require_jacobi()
    g2.require_jacobi()
    table = g1.table.merge(g2.table)
    n1, n2 = g1.dim, g2.dim
    if names is not None:
        names = tuple(names)
        if len(names) != n1 + n2 or len(set(names)) != n1 + n2:
            raise PresentationError("explicit names for a direct sum collide")
    else:
        out = list(g1.names)
        used = set(out)
        for nm in g2.names:
            new = nm
            while new in used:
                new = new + "'"
            used.add(new)
            out.append(new)
        names = tuple(out)

    remap1 = table.remapper(g1.table)
    remap2 = table.remapper(g2.table)

    def embed_terms(terms, remap, shift):
        return [(remap(c), tuple(k + shift for k in idx)) for idx, c in terms.items()]

    differential = {g: embed_terms(t, remap1, 0) for g, t in g1.d_gen.items()}
    differential.update({g + n1: embed_terms(t, remap2, n1) for g, t in g2.d_gen.items()})
    p = LieAlgebraPresentation(n1 + n2, differential, names=names, table=table)

    def embed_blocks(m1, m2):
        full = [[table.zero] * (n1 + n2) for _ in range(n1 + n2)]
        if m1 is not None:
            for r in range(n1):
                for c in range(n1):
                    full[r][c] = remap1(m1[r][c])
        if m2 is not None:
            for r in range(n2):
                for c in range(n2):
                    full[r + n1][c + n1] = remap2(m2[r][c])
        return tuple(tuple(row) for row in full)

    for name in sorted(set(g1.endomorphisms) | set(g2.endomorphisms)):
        p.endomorphisms[name] = embed_blocks(
            g1.endomorphisms.get(name), g2.endomorphisms.get(name)
        )
    for name in sorted(set(g1.bilinears) | set(g2.bilinears)):
        p.bilinears[name] = embed_blocks(g1.bilinears.get(name), g2.bilinears.get(name))
    empty = Form.zero(p)
    for name in sorted(set(g1.forms) | set(g2.forms)):
        p.forms[name] = p.form(
            embed_terms(g1.forms.get(name, empty).terms, remap1, 0)
            + embed_terms(g2.forms.get(name, empty).terms, remap2, n1)
        )
    return p


def abelian(dim: int, names=None, table=None) -> LieAlgebraPresentation:
    return LieAlgebraPresentation(dim, {}, names=names, table=table)
