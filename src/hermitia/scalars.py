"""Exact coefficient arithmetic: rationals extended by the imaginary unit and
by user-declared symbols with monic power rewrite rules.

A scalar is a canonical fraction of multivariate polynomials with rational
coefficients over the declared symbols and ``i``.  Symbols may carry a rewrite
relation ``s^k = p`` where ``p`` is a polynomial in symbols declared strictly
earlier; normalization keeps every exponent of a related symbol below ``k``.
The built-in symbol ``i`` has the relation ``i^2 = -1``.  Symbols without a
relation are free (transcendental) and are treated as real under conjugation.

Zero has a unique representation, so equality of canonical forms decides
equality of values.  All operations are pure; scalars are immutable.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping

from .linear import rref


class ScalarError(ValueError):
    pass


class ParseError(ScalarError):
    """Syntax or resolution error, with the byte offset of the offender."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(ScalarError):
    pass


# A monomial is a sorted tuple of (symbol_index, exponent) pairs with
# exponent > 0; the empty tuple is the constant monomial.  Index 0 is "i".
Monomial = tuple
_ONE_MONO: Monomial = ()


def _is_one_poly(p):
    return len(p) == 1 and p.get(_ONE_MONO) == 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Symbol:
    """A declared symbol: a name, an optional rewrite relation and a sign hint.

    ``relation`` is a pair ``(k, rhs)`` with ``k >= 2`` and ``rhs`` an
    expression string over previously declared symbols; ``sign_hint`` is one
    of ``"positive"``, ``"negative"``, ``"unknown"`` and is consulted only by
    numeric evaluation sanity checks.
    """

    __slots__ = ("name", "relation", "sign_hint")

    def __init__(self, name, relation=None, sign_hint=None):
        if not _NAME_RE.fullmatch(name):
            raise ScalarError(f"invalid symbol name {name!r}")
        if name == "i":
            raise ScalarError('"i" is reserved for the built-in imaginary unit')
        if sign_hint not in (None, "positive", "negative", "unknown"):
            raise ScalarError(f"invalid sign hint {sign_hint!r}")
        if relation is not None:
            k, rhs = relation
            if not isinstance(k, int) or k < 2:
                raise ScalarError(f"relation exponent for {name} must be an integer >= 2")
            relation = (k, rhs)
        self.name = name
        self.relation = relation
        self.sign_hint = sign_hint

    def __repr__(self):
        rel = f", {self.name}^{self.relation[0]}={self.relation[1]!r}" if self.relation else ""
        return f"Symbol({self.name!r}{rel})"


class SymbolTable:
    """Ordered symbol declarations defining one coefficient ring.

    Index 0 is always the imaginary unit with relation ``i^2 = -1``.  Relation
    right-hand sides are parsed against the earlier part of the table, must
    not involve ``i`` (so conjugation stays a ring automorphism) and must only
    use symbols that themselves carry a relation (so that fraction reduction
    works over a genuine coefficient field).
    """

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self.names = ["i"]
        self.relations = {0: (2, {_ONE_MONO: Fraction(-1)})}
        self.sign_hints = {}
        self._index = {"i": 0}
        for sym in symbols:
            self._declare(sym)
        self._sig = (
            tuple(self.names),
            tuple(sorted((i, k, tuple(sorted(p.items()))) for i, (k, p) in self.relations.items())),
        )

    def _declare(self, sym: Symbol):
        if sym.name in self._index:
            raise ScalarError(f"duplicate symbol {sym.name!r}")
        idx = len(self.names)
        self.names.append(sym.name)
        self._index[sym.name] = idx
        if sym.sign_hint:
            self.sign_hints[idx] = sym.sign_hint
        if sym.relation is not None:
            k, rhs_text = sym.relation
            rhs = _parse_poly(self, rhs_text)
            for mono in rhs:
                for j, _e in mono:
                    if j >= idx:
                        raise ScalarError(
                            f"relation for {sym.name} may only reference symbols "
                            "declared strictly earlier"
                        )
                    if j == 0:
                        raise ScalarError(
                            f"relation for {sym.name} must not involve i"
                        )
                    if j not in self.relations:
                        raise ScalarError(
                            f"relation for {sym.name} references the free symbol "
                            f"{self.names[j]!r}; relations may only use earlier "
                            "symbols that carry relations themselves"
                        )
            self.relations[idx] = (k, rhs)

    @property
    def _alg_indices(self):
        return tuple(sorted(self.relations))

    def index_of(self, name, offset=0):
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"undeclared identifier {name!r}", offset) from None

    def name_of(self, idx):
        return self.names[idx]

    def compatible(self, other):
        return self is other or self._sig == other._sig

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"SymbolTable({self.names[1:]!r})"

    # -- scalar constructors ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Lift an int, Fraction or Scalar into this table's ring."""
        if isinstance(value, Scalar):
            if not self.compatible(value.table):
                raise ScalarError("scalar belongs to an incompatible symbol table")
            return value
        q = Fraction(value)
        num = {} if q == 0 else {_ONE_MONO: q}
        return Scalar(self, num, {_ONE_MONO: Fraction(1)}, _normalized=True)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @property
    def i(self) -> "Scalar":
        return Scalar(self, {((0, 1),): Fraction(1)}, {_ONE_MONO: Fraction(1)}, _normalized=True)

    def symbol(self, name) -> "Scalar":
        idx = self._index.get(name)
        if idx is None:
            raise ScalarError(f"undeclared identifier {name!r}")
        return Scalar(self, {((idx, 1),): Fraction(1)}, {_ONE_MONO: Fraction(1)}, _normalized=True)

    def parse(self, text) -> "Scalar":
        return parse_expr(text, self)


# ---------------------------------------------------------------------------
# raw polynomial arithmetic on {monomial: Fraction} dicts
# ---------------------------------------------------------------------------


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for idx, e in b:
        merged[idx] = merged.get(idx, 0) + e
    return tuple(sorted(merged.items()))


def _poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _poly_neg(p):
    return {m: -c for m, c in p.items()}


def _poly_mul_raw(p, q):
    if len(p) == 1 and len(q) == 1:
        (m1, c1), = p.items()
        (m2, c2), = q.items()
        c = c1 * c2
        return {_mono_mul(m1, m2): c} if c else {}
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            s = out.get(m)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _reduce_poly(table: SymbolTable, p):
    """Rewrite every monomial so related-symbol exponents stay below bound."""
    rels = table.relations
    reduced = True
    for mono in p:
        for idx, e in mono:
            rel = rels.get(idx)
            if rel is not None and e >= rel[0]:
                reduced = False
                break
        if not reduced:
            break
    if reduced:
        return p
    out = {}
    work = list(p.items())
    while work:
        mono, coeff = work.pop()
        target = None
        for idx, e in mono:
            rel = rels.get(idx)
            if rel is not None and e >= rel[0]:
                # rewrite the highest such index first: its relation only
                # reintroduces strictly earlier symbols
                if target is None or idx > target:
                    target = idx
        if target is None:
            s = out.get(mono)
            s = coeff if s is None else s + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
            continue
        k, rhs = rels[target]
        e = dict(mono)[target]
        q, r = divmod(e, k)
        base = tuple((j, x) for j, x in mono if j != target)
        if r:
            base = _mono_mul(base, ((target, r),))
        repl = {base: coeff}
        for _ in range(q):
            repl = _poly_mul_raw(repl, rhs)
        work.extend(repl.items())
    return out


def _poly_mul(table, p, q):
    return _reduce_poly(table, _poly_mul_raw(p, q))


def _poly_conj(p):
    """i -> -i on a reduced polynomial (i-exponent is 0 or 1)."""
    out = {}
    for m, c in p.items():
        if m and m[0][0] == 0:
            out[m] = -c
        else:
            out[m] = c
    return out


def _mono_split(mono, alg_set):
    alg = tuple((i, e) for i, e in mono if i in alg_set)
    free = tuple((i, e) for i, e in mono if i not in alg_set)
    return free, alg


def _free_grlex_key(free_mono):
    return (sum(e for _i, e in free_mono), free_mono)


def _by_free_monomial(p, alg_set):
    """Group as {free monomial: {algebraic monomial: coeff}}."""
    out = {}
    for m, c in p.items():
        free, alg = _mono_split(m, alg_set)
        out.setdefault(free, {})[alg] = c
    return out


# ---------------------------------------------------------------------------
# arithmetic in the algebraic part (finite dimensional over Q)
# ---------------------------------------------------------------------------


def _alg_basis(table):
    basis = [_ONE_MONO]
    for idx in table._alg_indices:
        k = table.relations[idx][0]
        basis = [_mono_mul(b, ((idx, e),)) if e else b for b in basis for e in range(k)]
    return basis


def _alg_inverse(table, u):
    """Invert an element of the algebraic coefficient ring via a linear solve.

    Raises if the element is zero or a zero divisor (which can only happen
    when a declared relation is reducible over the earlier field).
    """
    if not u:
        raise ScalarError("division by zero")
    if list(u.keys()) == [_ONE_MONO]:
        return {_ONE_MONO: 1 / u[_ONE_MONO]}
    basis = _alg_basis(table)
    pos = {m: j for j, m in enumerate(basis)}
    n = len(basis)
    # solve M x = e_0, where column j of M holds the coordinates of u * basis[j]
    mat = [[Fraction(0)] * n + [Fraction(1 if i == 0 else 0)] for i in range(n)]
    for j, b in enumerate(basis):
        for m, c in _poly_mul(table, u, {b: Fraction(1)}).items():
            mat[pos[m]][j] = c
    pivots, _, _ = rref(mat, n, operator.not_)
    if any(row[n] for row in mat[len(pivots):]):
        raise ScalarError("element is a zero divisor (reducible relation?)")
    out = {basis[col]: row[n] for row, col in zip(mat, pivots) if row[n]}
    # verify (cheap, defends against zero divisors with consistent systems)
    if _poly_mul(table, u, out) != {_ONE_MONO: Fraction(1)}:
        raise ScalarError("element is a zero divisor (reducible relation?)")
    return out


# ---------------------------------------------------------------------------
# multivariate gcd over the algebraic coefficient field (free symbols only)
# ---------------------------------------------------------------------------


def _free_vars(p, alg_set):
    vs = set()
    for m in p:
        for i, _e in m:
            if i not in alg_set:
                vs.add(i)
    return vs


def _as_univariate(p, x):
    """View p as {degree in x: polynomial in the rest}."""
    out = {}
    for m, c in p.items():
        d = 0
        rest = []
        for i, e in m:
            if i == x:
                d = e
            else:
                rest.append((i, e))
        out.setdefault(d, {})[tuple(rest)] = c
    return out


def _from_univariate(u, x):
    out = {}
    for d, coef in u.items():
        for m, c in coef.items():
            full = _mono_mul(m, ((x, d),)) if d else m
            out[full] = c
    return out


def _poly_divexact(table, f, g):
    """Exact division f / g; raises if g does not divide f."""
    if not f:
        return {}
    alg = set(table._alg_indices) | {0}
    gf = _by_free_monomial(g, alg)
    if not gf:
        raise ScalarError("division by zero")
    glead = max(gf, key=_free_grlex_key)
    ginv = _alg_inverse(table, gf[glead])
    out = {}
    rem = dict(f)
    guard = 0
    while rem:
        guard += 1
        if guard > 10000:
            raise ScalarError("exact division failed to terminate")
        rf = _by_free_monomial(rem, alg)
        rlead = max(rf, key=_free_grlex_key)
        # monomial quotient
        ge = dict(glead)
        diff = {}
        ok = True
        for i, e in rlead:
            d = e - ge.pop(i, 0)
            if d < 0:
                ok = False
                break
            if d:
                diff[i] = d
        if not ok or ge:
            raise ScalarError("exact polynomial division has a remainder")
        qc = _poly_mul(table, rf[rlead], ginv)
        qterm = {}
        qmono = tuple(sorted(diff.items()))
        for am, ac in qc.items():
            qterm[_mono_mul(am, qmono)] = ac
        out = _poly_add(out, qterm)
        rem = _poly_add(rem, _poly_neg(_poly_mul(table, qterm, g)))
    return out


def _alg_normalize(table, p):
    """Divide by the leading algebraic coefficient so the result is monic."""
    if not p:
        return p
    alg = set(table._alg_indices) | {0}
    bf = _by_free_monomial(p, alg)
    lead = max(bf, key=_free_grlex_key)
    inv = _alg_inverse(table, bf[lead])
    return _poly_mul(table, p, inv)


def _poly_gcd(table, f, g):
    """Primitive PRS gcd over the algebraic coefficient field; monic result."""
    if not f:
        return _alg_normalize(table, g)
    if not g:
        return _alg_normalize(table, f)
    alg = set(table._alg_indices) | {0}
    fv = _free_vars(f, alg) | _free_vars(g, alg)
    if not fv:
        return {_ONE_MONO: Fraction(1)}
    x = max(fv)

    def content(p):
        u = _as_univariate(p, x)
        c = {}
        for coef in u.values():
            c = _poly_gcd(table, c, coef)
        return c

    cf, cg = content(f), content(g)
    cont = _poly_gcd(table, cf, cg)
    pf = _poly_divexact(table, f, cf)
    pg = _poly_divexact(table, g, cg)

    def degx(p):
        return max(_as_univariate(p, x)) if p else -1

    if degx(pf) < degx(pg):
        pf, pg = pg, pf
    while pg:
        pf_u, pg_u = _as_univariate(pf, x), _as_univariate(pg, x)
        dpf, dpg = max(pf_u), max(pg_u)
        if dpf < dpg:
            pf, pg = pg, pf
            continue
        lc = _from_univariate({0: pg_u[dpg]}, x)
        shift = dpf - dpg
        # pseudo-reduction step: lc * pf - lt(pf) * x^shift * pg
        lt_pf = _from_univariate({0: pf_u[dpf]}, x)
        xs = {((x, shift),): Fraction(1)} if shift else {_ONE_MONO: Fraction(1)}
        newf = _poly_add(
            _poly_mul(table, lc, pf),
            _poly_neg(_poly_mul(table, _poly_mul(table, lt_pf, xs), pg)),
        )
        if newf and degx(newf) >= dpf:
            raise ScalarError("pseudo-division failed")
        pf = pg
        pg = newf
        if pg:
            cg2 = content(pg)
            pg = _poly_divexact(table, pg, cg2)
    return _alg_normalize(table, _poly_mul(table, cont, pf))


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """A canonical fraction of reduced polynomials over one symbol table.

    Supports +, -, *, /, ** with other scalars or ints/Fractions.  Canonical
    form: numerator and denominator reduced modulo all relations, the fraction
    gcd-cancelled, and the denominator normalized so its leading coefficient
    (graded-lex over free symbols) is exactly 1.  Zero is ``({}, {1: 1})``.
    """

    __slots__ = ("table", "num", "den", "_key")

    def __init__(self, table, num, den, _normalized=False):
        self.table = table
        if not _normalized:
            num, den = _canonical_fraction(table, num, den)
        self.num = num
        self.den = den
        self._key = None

    # -- canonical key, equality, hashing -----------------------------------

    def key(self):
        if self._key is None:
            self._key = (
                tuple(sorted(self.num.items())),
                tuple(sorted(self.den.items())),
            )
        return self._key

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.table.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_zero(self):
        return not self.num

    def is_rational(self):
        return self.den == {_ONE_MONO: Fraction(1)} and (
            not self.num or set(self.num) == {_ONE_MONO}
        )

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"scalar {self} is not rational")
        return self.num.get(_ONE_MONO, Fraction(0))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if not self.table.compatible(other.table):
                raise ScalarError("scalars from incompatible symbol tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            total = _poly_add(self.num, o.num)
            if _is_one_poly(self.den):
                # sums of reduced polynomials stay reduced and canonical
                return Scalar(self.table, total, self.den, _normalized=True)
            return Scalar(self.table, total, self.den)
        t = self.table
        num = _poly_add(_poly_mul(t, self.num, o.den), _poly_mul(t, o.num, self.den))
        return Scalar(t, num, _poly_mul(t, self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        s = Scalar(self.table, _poly_neg(self.num), self.den, _normalized=True)
        return s

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.table
        if _is_one_poly(self.den) and _is_one_poly(o.den):
            # products of reduced polynomials over denominator 1 are canonical
            return Scalar(t, _poly_mul(t, self.num, o.num), self.den, _normalized=True)
        return Scalar(t, _poly_mul(t, self.num, o.num), _poly_mul(t, self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ScalarError("division by a scalar that normalizes to zero")
        t = self.table
        return Scalar(t, _poly_mul(t, self.num, o.den), _poly_mul(t, self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ScalarError("exponents must be non-negative integers")
        out = self.table.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conjugate(self):
        """i -> -i; declared symbols are fixed (they are real)."""
        return Scalar(self.table, _poly_conj(self.num), _poly_conj(self.den))

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, valuation: Mapping[str, complex], relation_tol=1e-7) -> complex:
        """Evaluate numerically at the valuation (a map symbol name -> number).

        Every symbol occurring in the scalar must be valued; values must
        satisfy the declared relations within ``relation_tol`` (relative) and
        respect sign hints.  A denominator within 1e-12 of zero is an error.
        """
        t = self.table
        needed = set()
        for part in (self.num, self.den):
            for m in part:
                for idx, _e in m:
                    if idx != 0:
                        needed.add(idx)
        vals = {0: 1j}
        for idx in sorted(needed):
            name = t.names[idx]
            if name not in valuation:
                raise EvaluationError(f"missing value for symbol {name!r}")
        # check relations and hints for every valued symbol we rely on
        for idx in sorted(needed):
            name = t.names[idx]
            v = complex(valuation[name])
            vals[idx] = v
            hint = t.sign_hints.get(idx)
            if hint in ("positive", "negative"):
                if abs(v.imag) > 1e-9 * max(1.0, abs(v)):
                    raise EvaluationError(f"symbol {name!r} with a sign hint must be real")
                if hint == "positive" and v.real <= 0:
                    raise EvaluationError(f"symbol {name!r} is hinted positive but valued {v.real}")
                if hint == "negative" and v.real >= 0:
                    raise EvaluationError(f"symbol {name!r} is hinted negative but valued {v.real}")
            rel = t.relations.get(idx)
            if rel is not None:
                k, rhs = rel
                rhs_val = 0.0
                for m, c in rhs.items():
                    term = complex(float(c))
                    for j, e in m:
                        jname = t.names[j]
                        if j in vals:
                            term *= vals[j] ** e
                        elif jname in valuation:
                            term *= complex(valuation[jname]) ** e
                        else:
                            raise EvaluationError(
                                f"missing value for symbol {jname!r} (needed by the relation of {name!r})"
                            )
                    rhs_val += term
                lhs_val = v**k
                scale = max(1.0, abs(lhs_val), abs(rhs_val))
                if abs(lhs_val - rhs_val) > relation_tol * scale:
                    raise EvaluationError(
                        f"valuation violates the relation {name}^{k}: "
                        f"|{lhs_val:.6g} - {rhs_val:.6g}| > {relation_tol:g} (relative)"
                    )

        def ev(poly):
            total = 0j
            for m, c in poly.items():
                term = complex(float(c))
                for idx, e in m:
                    term *= vals[idx] ** e
                total += term
            return total

        den_val = ev(self.den)
        scale = max(1.0, max((abs(float(c)) for c in self.den.values()), default=1.0))
        if abs(den_val) < 1e-12 * scale:
            raise EvaluationError("denominator evaluates to zero")
        return ev(self.num) / den_val

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        num_s, num_simple = _poly_str(self.table, self.num)
        if self.den == {_ONE_MONO: Fraction(1)}:
            return num_s
        den_s, den_simple = _poly_str(self.table, self.den)
        if not num_simple:
            num_s = f"({num_s})"
        if not den_simple:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"Scalar({self})"


def _canonical_fraction(table, num, den):
    num = _reduce_poly(table, num)
    den = _reduce_poly(table, den)
    if not den:
        raise ScalarError("division by a scalar that normalizes to zero")
    if not num:
        return {}, {_ONE_MONO: Fraction(1)}
    alg = set(table._alg_indices) | {0}
    if not (_free_vars(den, alg)):
        # denominator lies in the algebraic part: clear it entirely
        inv = _alg_inverse(table, den)
        return _poly_mul(table, num, inv), {_ONE_MONO: Fraction(1)}
    g = _poly_gcd(table, num, den)
    if g != {_ONE_MONO: Fraction(1)}:
        num = _poly_divexact(table, num, g)
        den = _poly_divexact(table, den, g)
        if not _free_vars(den, alg):
            inv = _alg_inverse(table, den)
            return _poly_mul(table, num, inv), {_ONE_MONO: Fraction(1)}
    bf = _by_free_monomial(den, alg)
    lead = max(bf, key=_free_grlex_key)
    inv = _alg_inverse(table, bf[lead])
    if inv != {_ONE_MONO: Fraction(1)}:
        num = _poly_mul(table, num, inv)
        den = _poly_mul(table, den, inv)
    return num, den


def normalize(s: Scalar) -> Scalar:
    """Idempotent canonicalization (scalars are already canonical)."""
    return Scalar(s.table, s.num, s.den)


def conjugate(s: Scalar) -> Scalar:
    return s.conjugate()


def evaluate(s: Scalar, valuation, relation_tol=1e-7) -> complex:
    return s.evaluate(valuation, relation_tol=relation_tol)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _mono_str(table, mono):
    parts = []
    for idx, e in mono:
        name = table.names[idx]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _poly_str(table, poly):
    """Deterministic, re-parseable rendering; returns (text, is_simple)."""
    if not poly:
        return "0", True
    items = sorted(poly.items(), key=lambda kv: (_free_grlex_key(kv[0]), kv[0]))
    pieces = []
    for mono, coeff in items:
        ms = _mono_str(table, mono)
        if not ms:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = ms
        else:
            body = f"{abs(coeff)}*{ms}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += sign + body
    simple = len(pieces) == 1 and pieces[0][0] == "+"
    return text, simple


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text, table):
        self.text = text
        self.table = table
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self):
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                value = value + self.term()
            elif c == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                value = value * self.factor()
            elif c == "/":
                self.pos += 1
                start = self.pos
                divisor = self.factor()
                if divisor.is_zero():
                    raise ParseError("division by a scalar that normalizes to zero", start)
                value = value / divisor
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            value = value ** self.uint()
        return value

    def uint(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer exponent", start)
        return int(self.text[start : self.pos])

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            value = self.expr()
            self.expect(")")
            return value
        if c == "-":
            self.pos += 1
            return -self.factor()
        if c.isdigit():
            return self.table.scalar(self.uint())
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group(0)
            idx = self.table.index_of(name, self.pos)
            self.pos = m.end()
            if idx == 0:
                return self.table.i
            return self.table.symbol(name)
        raise ParseError("expected a number, identifier or parenthesized expression", self.pos)


def parse_expr(text: str, table: SymbolTable) -> Scalar:
    """Parse an expression over the table's symbols into a canonical scalar.

    Grammar (ASCII):
        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := atom ('^' uint)?
        atom   := uint | identifier | '(' expr ')' | '-' factor
    """
    return _Parser(text, table).parse()


def _parse_poly(table, text):
    """Parse a relation right side; must normalize to a denominator-free value."""
    s = _Parser(text, table).parse()
    if s.den != {_ONE_MONO: Fraction(1)}:
        raise ScalarError(f"relation right side {text!r} must be polynomial")
    return s.num
