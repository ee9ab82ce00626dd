"""Exact coefficient arithmetic: rationals extended by the imaginary unit and
by user-declared symbols with monic power rewrite rules.

A scalar is a canonical fraction of multivariate polynomials with rational
coefficients over the declared symbols and ``i``.  Symbols may carry a rewrite
relation ``s^k = p`` where ``p`` is a polynomial in symbols declared strictly
earlier; normalization keeps every exponent of a related symbol below ``k``.
The built-in symbol ``i`` has the relation ``i^2 = -1``.  Symbols without a
relation are free (transcendental) and are treated as real under conjugation.

A scalar is stored in one of three ways:

* In a table whose only relation is ``i^2 = -1`` (``SymbolTable.gaussian``),
  every value with no free symbol lies in Q(i) and is held as one integer
  triple ``(a, b, d)`` meaning ``(a + b*i)/d`` with ``d > 0`` and
  ``gcd(a, b, d) = 1``.
* In such a table, a value with a free symbol and denominator 1 is held the
  same way, as integer terms ``{free monomial: (a, b)}`` over one integer
  ``d > 0`` with the gcd of every ``a``, every ``b`` and ``d`` equal to 1.
* Every other value (a quotient by a non-constant polynomial, or any value
  of a table that declares its own relations) is held as the polynomial
  fraction itself, over ``Fraction`` coefficients.

``+``, ``-``, ``*``, negation, conjugation and ``==`` on values of the two
integer kinds, and ``/`` of one by a value in Q(i), use ``int`` operations
only, with ``i^2 = -1`` applied inline; the polynomial ``num``/``den`` view
is built only when something reads it.  Any other operation takes the
polynomial path, and a result in a gaussian table whose denominator is 1
becomes one of the integer kinds again: a triple when no free symbol is
left.

Zero has a unique representation, so equality of canonical forms decides
equality of values; a scalar is falsy exactly at zero, as an int or a
``Fraction`` is.  ``key()``, hashes and printed forms depend only on the
value, not on how it is stored.  All operations are pure; scalars are
immutable.

A ``SymbolTable`` keeps its declarations (``symbols``), and only this module
reads their relations and sign hints: ``merge`` joins two tables by name, as
a direct sum of presentations needs, and ``remapper`` carries scalars across.
Scalars of two tables mix only when the tables are ``compatible`` (the same
names, relations and sign hints), and are equal only then or within Q(i).

At a valuation (symbol names -> real numbers) ``Scalar.at`` is exact: a free
symbol's number is the dyadic rational it is, a related symbol's number
selects the real root of its relation nearest it, and sign hints are checked
exactly.  ``Scalar.sign_at`` refines those roots by interval arithmetic.
"""

from __future__ import annotations

import cmath
import numbers
import re
import sys
from fractions import Fraction
from functools import cached_property
from math import ceil, comb, floor, gcd, isfinite, lcm, log10, prod
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
_I_MONO: Monomial = ((0, 1),)
_ONE_POLY = {_ONE_MONO: Fraction(1)}  # shared denominator of the integer kinds; never mutated


def _is_one_poly(p):
    return len(p) == 1 and p.get(_ONE_MONO) == 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Symbol:
    """A declared symbol: a name, an optional rewrite relation and a sign hint.

    ``relation`` is a pair ``(k, rhs)`` with ``k >= 2`` and ``rhs`` an
    expression string over previously declared symbols; ``sign_hint`` is one
    of ``"positive"``, ``"negative"``, ``"unknown"`` and is consulted only
    at a valuation, where ``Scalar.at`` checks it exactly.
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
        self.symbols = tuple(symbols)  # the declarations, in order; symbols[k - 1] has index k
        self.names = ["i"]
        self.relations = {0: (2, {_ONE_MONO: Fraction(-1)})}
        self._index = {"i": 0}
        self._parsed = {}  # expression string -> Scalar; the table is fixed after __init__
        # while only i is related, values with denominator 1 are held on integers
        self.gaussian = True
        for sym in self.symbols:
            self._declare(sym)
        self._sig = (
            tuple(self.names),
            tuple(sorted((i, k, tuple(sorted(p.items()))) for i, (k, p) in self.relations.items())),
            tuple(sym.sign_hint for sym in self.symbols),
        )

    def _declare(self, sym: Symbol):
        if sym.name in self._index:
            raise ScalarError(f"duplicate symbol {sym.name!r}")
        idx = len(self.names)
        self.names.append(sym.name)
        self._index[sym.name] = idx
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
            if set(rhs) <= {_ONE_MONO} and (over := self._splitting(k, rhs.get(_ONE_MONO, 0))):
                raise ScalarError(
                    f"relation for {sym.name} is reducible: x^{k} - ({rhs_text}) factors over {over}"
                )
            self.relations[idx] = (k, rhs)
            self.gaussian = False

    def _splitting(self, k, c):
        """A field over which x^k - c factors, for a rational c, or None: Q(i)
        by Capelli's test, else Q(i, s) for an earlier s^k' = a with a
        rational, a prime p dividing k and k', and x^p - c/a^e factoring over
        Q(i) for some e in 1..p-1: then x^p - c has the root
        (c/a^e)^(1/p) s^(e k'/p) in the field, and x^k - c the factor
        x^(k/p) minus it.  Products of several right sides and irrational
        right sides are not tested."""
        if _splits_over_gaussians(k, c):
            return "Q(i)"
        for j, (kj, a) in self.relations.items():
            if set(a) != {_ONE_MONO}:
                continue
            a = a[_ONE_MONO]
            for p in _prime_factors(gcd(k, kj)):
                if any(_splits_over_gaussians(p, c / a**e) for e in range(1, p)):
                    return f"Q(i, {self.names[j]})"
        return None

    @cached_property
    def related(self) -> "SymbolTable":
        """The table of this table's related symbols only, where ``Scalar.at``
        puts its values; this table itself when it declares no free symbol."""
        related = tuple(sym for sym in self.symbols if sym.relation is not None)
        return self if len(related) == len(self.symbols) else SymbolTable(related)

    @property
    def _alg_indices(self):
        return tuple(sorted(self.relations))

    def index_of(self, name, offset=0):
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"undeclared identifier {name!r}", offset) from None

    def compatible(self, other):
        return self is other or self._sig == other._sig

    def merge(self, other: "SymbolTable") -> "SymbolTable":
        """The table declaring this table's symbols, then the new names of
        ``other``, from the original declarations; this table itself when
        ``other`` adds no name.  A name declared in both must carry the same
        sign hint (``None`` included) and the same relation, compared as a
        polynomial over the declared names, not over table indices."""
        new = []
        for k, sym in enumerate(other.symbols, 1):
            mine = self._index.get(sym.name)
            if mine is None:
                new.append(sym)
            elif (hint := self.symbols[mine - 1].sign_hint) != sym.sign_hint:
                raise ScalarError(f"symbol {sym.name!r} is declared with the sign hints "
                                  f"{hint!r} and {sym.sign_hint!r}")
            elif self._named_relation(mine) != other._named_relation(k):
                raise ScalarError(f"symbol {sym.name!r} is declared with two different relations")
        return SymbolTable(self.symbols + tuple(new)) if new else self

    def _named_relation(self, idx):
        """The relation of symbol ``idx`` with each monomial a set of (name,
        exponent) pairs; None if the symbol is free."""
        rel = self.relations.get(idx)
        return rel and (rel[0], {
            frozenset((self.names[j], e) for j, e in m): c for m, c in rel[1].items()})

    def __repr__(self):
        return f"SymbolTable({self.names[1:]!r})"

    # -- scalar constructors ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Lift an int, float, Fraction, expression string or Scalar into
        this table's ring.  Scalars are immutable, so each expression string
        is parsed once per table; a string that fails to parse is not kept."""
        if type(value) is int and self.gaussian:
            return _gaussian(self, value, 0, 1)
        if isinstance(value, Scalar):
            if not self.compatible(value.table):
                raise ScalarError("scalar belongs to an incompatible symbol table")
            return value
        if isinstance(value, str):
            parsed = self._parsed.get(value)
            if parsed is None:
                parsed = self._parsed[value] = parse_expr(value, self)
            return parsed
        q = value if type(value) is int else Fraction(value)
        if self.gaussian:
            return _gaussian(self, q.numerator, 0, q.denominator)
        num = {} if q == 0 else {_ONE_MONO: Fraction(q)}
        return Scalar(self, num, {_ONE_MONO: Fraction(1)}, _normalized=True)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @property
    def i(self) -> "Scalar":
        if self.gaussian:
            return _gaussian(self, 0, 1, 1)
        return Scalar(self, {_I_MONO: Fraction(1)}, {_ONE_MONO: Fraction(1)}, _normalized=True)

    def symbol(self, name) -> "Scalar":
        idx = self._index.get(name)
        if idx is None:
            raise ScalarError(f"undeclared identifier {name!r}")
        if self.gaussian:
            return _int_scalar(self, {((idx, 1),): (1, 0)}, 1)
        return Scalar(self, {((idx, 1),): Fraction(1)}, {_ONE_MONO: Fraction(1)}, _normalized=True)

    def parse(self, text) -> "Scalar":
        return parse_expr(text, self)

    def remapper(self, old: "SymbolTable"):
        """A map taking scalars of ``old`` to the same values over this table,
        whose names must include every name of ``old``."""
        if old is self:
            return lambda s: s
        index_map = {i: self.index_of(n) for i, n in enumerate(old.names)}

        def remap_poly(p):
            return {
                tuple(sorted((index_map[i], e) for i, e in mono)): c for mono, c in p.items()
            }

        def remap(s: Scalar) -> Scalar:
            if self.gaussian:
                if s._t is not None:
                    return _gaussian(self, *s._t)
                if s._p is not None:
                    terms, d = s._p
                    return _int_scalar(self, remap_poly(terms), d)
            return Scalar(self, remap_poly(s.num), remap_poly(s.den))

        return remap


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


def _poly_pow(table, p, n):
    """p^n for n >= 1 by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = p if out is None else _poly_mul(table, out, p)
        n >>= 1
        if not n:
            return out
        p = _poly_mul(table, p, p)


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


def _monomial_order_key(mono):
    """Graded lex with the lower symbol index more significant.  Unlike
    ``_free_grlex_key`` (c > b but b*b > b*c), this order is kept by
    multiplication, so the leading monomial of a product is the product of
    the leading monomials, which exact division needs."""
    return (sum(e for _i, e in mono), tuple((-i, e) for i, e in mono))


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
    mat = [{} for _ in range(n)]
    mat[0][n] = Fraction(1)
    for j, b in enumerate(basis):
        for m, c in _poly_mul(table, u, {b: Fraction(1)}).items():
            mat[pos[m]][j] = c
    pivots, _, _ = rref(mat, n)
    if any(n in row for row in mat[len(pivots):]):
        raise ScalarError("element is a zero divisor (reducible relation?)")
    out = {basis[col]: row[n] for row, col in zip(mat, pivots) if n in row}
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
    glead = max(gf, key=_monomial_order_key)
    ginv = _alg_inverse(table, gf[glead])
    out = {}
    rem = dict(f)
    guard = 0
    while rem:
        guard += 1
        if guard > 10000:
            raise ScalarError("exact division failed to terminate")
        rf = _by_free_monomial(rem, alg)
        rlead = max(rf, key=_monomial_order_key)
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
    """One value of a symbol table's coefficient ring.

    Supports +, -, *, /, ** with other scalars or ints/Fractions.  In a
    gaussian table a value with denominator 1 is held on integers (see the
    module docstring): one with no free symbol as the triple ``_t``, one with
    a free symbol as the terms and denominator ``_p``.  Every other value is
    a canonical fraction of reduced polynomials: numerator and denominator
    reduced modulo all relations, the fraction gcd-cancelled, and the
    denominator normalized so its leading coefficient (graded-lex over free
    symbols) is exactly 1.  ``num`` and ``den`` read the canonical fraction
    of every kind, held as the pair ``_f`` (filled on the first read of
    ``num`` for the integer kinds); zero is ``({}, {1: 1})``.  ``+``, ``*``,
    ``/`` and negation compute two triples of one table inline; only an
    operand of another table, an int or a Fraction goes through
    ``_coerce``.
    """

    __slots__ = ("table", "_t", "_p", "_f")

    def __init__(self, table, num, den, _normalized=False):
        self.table = table
        if not _normalized:
            num, den = _canonical_fraction(table, num, den)
        self._f = (num, den)
        if table.gaussian and _is_one_poly(den):
            self._t, self._p = _int_kinds(*_int_terms(num))
        else:
            self._t = self._p = None

    @property
    def num(self):
        """The numerator {monomial: Fraction}; the integer kinds build the
        fraction view ``_f`` on first read."""
        f = self._f
        if f is None:
            x = self._t
            terms, d = ({_ONE_MONO: x[:2]}, x[2]) if x is not None else self._p
            num = {}
            for m, (a, b) in terms.items():
                if a:
                    num[m] = Fraction(a, d)
                if b:
                    num[_I_MONO + m] = Fraction(b, d)
            f = self._f = (num, _ONE_POLY)
        return f[0]

    @property
    def den(self):
        """The denominator {monomial: Fraction}; 1 for the integer kinds."""
        f = self._f
        return _ONE_POLY if f is None else f[1]

    # -- canonical key, equality, hashing -----------------------------------

    def key(self):
        return tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))

    def __eq__(self, other):
        x = self._t
        if isinstance(other, Scalar):
            if x is not None and other._t is not None:
                return x == other._t
            if not (self.table.compatible(other.table)
                    or self.is_gaussian_rational() and other.is_gaussian_rational()):
                return False
            if self._p is not None or other._p is not None:
                # compatible gaussian tables: a value with denominator 1 is
                # held on integers, and those forms are canonical
                return self._p == other._p
        elif isinstance(other, (int, Fraction)):
            if x is not None:
                return not x[1] and x[0] == other.numerator and x[2] == other.denominator
            if self._p is not None:
                return False
            other = self.table.scalar(other)
        else:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_zero(self):
        x = self._t
        if x is not None:
            return not (x[0] or x[1])
        return self._p is None and not self._f[0]

    def __bool__(self):
        """False exactly at zero, as for ints and Fractions."""
        x = self._t
        if x is not None:
            return bool(x[0] or x[1])
        return self._p is not None or bool(self._f[0])

    def is_rational(self):
        x = self._t
        if x is not None:
            return not x[1]
        return self._p is None and self._f[1] == _ONE_POLY and (
            not self._f[0] or set(self._f[0]) == {_ONE_MONO})

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"scalar {self} is not rational")
        x = self._t
        if x is not None:
            return Fraction(x[0], x[2])
        return self._f[0].get(_ONE_MONO, Fraction(0))

    def is_gaussian_rational(self):
        """True when no declared symbol occurs, i.e. the value lies in Q(i)."""
        if self._t is not None:
            return True
        if self._p is not None:
            return False
        return all(idx == 0 for part in self._f for mono in part for idx, _e in mono)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.table is not self.table and not self.table.compatible(other.table):
                raise ScalarError("scalars from incompatible symbol tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.scalar(other)
        return None

    def __add__(self, other):
        if type(other) is Scalar and other.table is self.table:
            o = other
        elif (o := self._coerce(other)) is None:
            return NotImplemented
        x, y = self._t, o._t
        if x is not None and y is not None:
            a1, b1, d = x
            a2, b2, d2 = y
            if d == d2:
                a, b = a1 + a2, b1 + b2
            else:
                a, b, d = a1 * d2 + a2 * d, b1 * d2 + b2 * d, d * d2
            if d != 1 and (g := gcd(a, b, d)) != 1:
                a, b, d = a // g, b // g, d // g
            s = _new(Scalar)
            s.table = self.table
            s._t = (a, b, d)
            s._p = s._f = None
            return s
        t = self.table
        if (p := _int_form(self)) is not None and (q := _int_form(o)) is not None:
            return _int_add(t, p, q)
        sden, oden = self.den, o.den
        if sden == oden:
            total = _poly_add(self.num, o.num)
            if _is_one_poly(sden):
                # sums of reduced polynomials stay reduced and canonical
                return Scalar(t, total, sden, _normalized=True)
            return Scalar(t, total, sden)
        num = _poly_add(_poly_mul(t, self.num, oden), _poly_mul(t, o.num, sden))
        return Scalar(t, num, _poly_mul(t, sden, oden))

    __radd__ = __add__

    def __neg__(self):
        x = self._t
        if x is not None:
            s = _new(Scalar)
            s.table = self.table
            s._t = (-x[0], -x[1], x[2])
            s._p = s._f = None
            return s
        if (p := self._p) is not None:
            terms, d = p
            return _int_scalar(self.table, {m: (-a, -b) for m, (a, b) in terms.items()}, d)
        num, den = self._f
        return Scalar(self.table, _poly_neg(num), den, _normalized=True)

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
        if type(other) is Scalar and other.table is self.table:
            o = other
        elif (o := self._coerce(other)) is None:
            return NotImplemented
        x, y = self._t, o._t
        if x is not None and y is not None:
            a1, b1, d1 = x
            a2, b2, d2 = y
            a, b, d = a1 * a2 - b1 * b2, a1 * b2 + a2 * b1, d1 * d2
            if d != 1 and (g := gcd(a, b, d)) != 1:
                a, b, d = a // g, b // g, d // g
            s = _new(Scalar)
            s.table = self.table
            s._t = (a, b, d)
            s._p = s._f = None
            return s
        t = self.table
        if x is not None:
            if (q := o._p) is not None:
                return _int_scale(t, q, *x)
        elif (p := self._p) is not None:
            if y is not None:
                return _int_scale(t, p, *y)
            if (q := o._p) is not None:
                return _int_mul(t, p, q)
        if _is_one_poly(self.den) and _is_one_poly(o.den):
            # products of reduced polynomials over denominator 1 are canonical
            return Scalar(t, _poly_mul(t, self.num, o.num), self.den, _normalized=True)
        return Scalar(t, _poly_mul(t, self.num, o.num), _poly_mul(t, self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Scalar and other.table is self.table:
            o = other
        elif (o := self._coerce(other)) is None:
            return NotImplemented
        x, y = self._t, o._t
        if x is not None and y is not None:
            # multiply by the conjugate of the divisor over its norm
            a1, b1, d1 = x
            a2, b2, d2 = y
            if not (a2 or b2):
                raise ScalarError("division by a scalar that normalizes to zero")
            a, b = (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2
            d = d1 * (a2 * a2 + b2 * b2)
            if d != 1 and (g := gcd(a, b, d)) != 1:
                a, b, d = a // g, b // g, d // g
            s = _new(Scalar)
            s.table = self.table
            s._t = (a, b, d)
            s._p = s._f = None
            return s
        if o.is_zero():
            raise ScalarError("division by a scalar that normalizes to zero")
        t = self.table
        if y is not None and (p := self._p) is not None:
            a2, b2, d2 = y
            return _int_scale(t, p, a2 * d2, -b2 * d2, a2 * a2 + b2 * b2)
        return Scalar(t, _poly_mul(t, self.num, o.den), _poly_mul(t, self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ScalarError("exponents must be non-negative integers")
        if n > 1 and not _is_one_poly(self.den):
            # a canonical fraction's numerator and denominator are coprime,
            # and so are their powers, so no gcd is taken.  The leading free
            # monomial L of the denominator has the coefficient 1, and L^n
            # leads its power with the coefficient 1: under ``_free_grlex_key``
            # (compare the (symbol, exponent) pairs from the lowest symbol on)
            # M N lies below L^2 for any M, N up to L but not both L
            t = self.table
            num, den = _poly_pow(t, self.num, n), _poly_pow(t, self.den, n)
            return Scalar(t, num, den, _normalized=True)
        out = self.table.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conjugate(self):
        """i -> -i; declared symbols are fixed (they are real).

        Conjugation is a ring automorphism that fixes every relation (none
        involves i) and the leading denominator coefficient 1, so the
        conjugate of a canonical fraction is canonical as it stands."""
        x = self._t
        if x is not None:
            return _gaussian(self.table, x[0], -x[1], x[2])
        if (p := self._p) is not None:
            terms, d = p
            return _int_scalar(self.table, {m: (a, -b) for m, (a, b) in terms.items()}, d)
        num, den = self._f
        return Scalar(self.table, _poly_conj(num), _poly_conj(den), _normalized=True)

    # -- evaluation ------------------------------------------------------------

    def at(self, valuation: Mapping[str, float]) -> "Scalar":
        """The exact value at the valuation (symbol name -> finite real) over
        ``table.related``.  A free symbol's number is the dyadic rational it
        is.  A related symbol's number selects the real root of s^k = rhs
        nearest it; a tie, or rhs < 0 with k even, is refused.  Every symbol
        needed must be valued; sign hints are checked exactly."""
        return self._at(valuation)[0]

    def _at(self, valuation):
        """``at`` and the signs of the selected roots, by related index."""
        t, rt = self.table, self.table.related
        needed = {idx for part in (self.num, self.den) for m in part for idx, _e in m if idx}
        for idx in range(len(t.names) - 1, 0, -1):  # relations refer to earlier symbols
            if idx in needed and idx in t.relations:
                needed.update(j for m in t.relations[idx][1] for j, _e in m)
        values, signs = {0: rt.i}, {}
        for idx in sorted(needed):
            name = t.names[idx]
            v = valuation.get(name)
            if not (isinstance(v, numbers.Rational) or isinstance(v, numbers.Real) and isfinite(v)):
                raise EvaluationError(f"symbol {name!r} needs a finite real value, got {v!r}")
            if idx in t.relations:
                j = rt.index_of(name)
                sign = signs[j] = _root_sign(rt, j, v, signs)
                values[idx] = rt.symbol(name)
            else:
                sign = (v > 0) - (v < 0)
                values[idx] = rt.scalar(Fraction(v))
            hint = t.symbols[idx - 1].sign_hint
            if hint == "positive" and sign <= 0 or hint == "negative" and sign >= 0:
                raise EvaluationError(f"symbol {name!r} is hinted {hint} but valued {v}")

        def value(poly):
            total = rt.zero
            for m, c in poly.items():
                total = total + prod((values[j] ** e for j, e in m), start=rt.scalar(c))
            return total

        den = value(self.den)
        if den.is_zero():
            raise EvaluationError("denominator evaluates to zero")
        return value(self.num) / den, signs

    def sign_at(self, valuation: Mapping[str, float]) -> int | None:
        """The sign of this real scalar at the valuation: exact for a rational
        value, else by interval arithmetic on the selected roots; None when
        ``_SIGN_BITS`` bits leave 0 in the interval."""
        if self.is_rational():
            x = self.as_rational()
            return (x > 0) - (x < 0)
        v, signs = self._at(valuation)
        if v != v.conjugate():
            raise EvaluationError(f"{self} is not real at the valuation")
        return _poly_sign(v.table, v.num, signs)

    def evaluate(self, valuation: Mapping[str, float]) -> complex:
        """The complex float of ``at(valuation)``."""
        v, signs = self._at(valuation)
        roots = {j: float(lo) for j, (lo, _hi) in _root_boxes(v.table, signs, 64).items()}
        roots[0] = 1j
        return sum((float(c) * prod(roots[j] ** e for j, e in m) for m, c in v.num.items()), 0j)

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        try:
            return self._text()
        except ValueError:  # an integer past Python's int-to-str digit limit
            digits = max(
                _digit_count(n)
                for part in (self.num, self.den)
                for c in part.values()
                for n in (c.numerator, c.denominator)
            )
            raise ScalarError(
                f"scalar too long to print: a coefficient has {digits} digits "
                f"(the limit is {sys.get_int_max_str_digits()})"
            ) from None

    def _text(self):
        num_s, num_simple = _poly_str(self.table, self.num)
        if _is_one_poly(self.den):
            return num_s
        den_s, den_simple = _poly_str(self.table, self.den)
        if not num_simple:
            num_s = f"({num_s})"
        if not den_simple:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__


def _gaussian(table, a, b, d) -> Scalar:
    """The scalar (a + b*i)/d of a gaussian table, for a normalized triple."""
    s = _new(Scalar)
    s.table = table
    s._t = (a, b, d)
    s._p = s._f = None
    return s


# ---------------------------------------------------------------------------
# the integer kinds of a gaussian table: terms {free monomial: (a, b)} over
# one denominator d > 0, the value sum (a + b*i)/d * monomial
# ---------------------------------------------------------------------------


def _int_terms(num):
    """The integer terms and least denominator of a canonical numerator."""
    d = 1
    for c in num.values():
        d = lcm(d, c.denominator)
    terms = {}
    for m, c in num.items():
        n = c.numerator * (d // c.denominator)
        if m and m[0][0] == 0:  # i times a free monomial
            a, b = terms.get(m[1:], (0, 0))
            terms[m[1:]] = (a, b + n)
        else:
            a, b = terms.get(m, (0, 0))
            terms[m] = (a + n, b)
    return terms, d


def _int_kinds(terms, d):
    """``(_t, _p)`` for normalized integer terms: a triple when no free
    monomial occurs."""
    if len(terms) > 1 or terms and _ONE_MONO not in terms:
        return None, (terms, d)
    a, b = terms.get(_ONE_MONO, (0, 0))
    return (a, b, d), None


def _int_scalar(table, terms, d) -> Scalar:
    """The scalar of normalized integer terms over d."""
    s = _new(Scalar)
    s.table = table
    s._t, s._p = _int_kinds(terms, d)
    s._f = None
    return s


def _int_value(table, terms, d) -> Scalar:
    """The scalar of integer terms over d, after dividing out their gcd."""
    if d != 1:
        g = d
        for a, b in terms.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            d //= g
            terms = {m: (a // g, b // g) for m, (a, b) in terms.items()}
    return _int_scalar(table, terms, d)


def _int_form(s):
    """The integer terms and denominator of a scalar held on integers, else None."""
    x = s._t
    if x is None:
        return s._p
    return ({_ONE_MONO: x[:2]} if x[0] or x[1] else {}), x[2]


def _int_add(table, p, q):
    (pt, pd), (qt, qd) = p, q
    g = gcd(pd, qd)
    f, h = qd // g, pd // g
    out = dict(pt) if f == 1 else {m: (a * f, b * f) for m, (a, b) in pt.items()}
    for m, (a, b) in qt.items():
        if h != 1:
            a, b = a * h, b * h
        c = out.get(m)
        if c is not None:
            a, b = a + c[0], b + c[1]
            if not (a or b):
                del out[m]
                continue
        out[m] = (a, b)
    return _int_value(table, out, pd * f)


def _int_scale(table, p, a2, b2, d2):
    """p times (a2 + b2*i)/d2, for integers a2, b2 and d2 > 0."""
    if not (a2 or b2):
        return _gaussian(table, 0, 0, 1)
    terms, d = p
    out = {m: (a * a2 - b * b2, a * b2 + a2 * b) for m, (a, b) in terms.items()}
    return _int_value(table, out, d * d2)


def _int_mul(table, p, q):
    (pt, pd), (qt, qd) = p, q
    out = {}
    for m1, (a1, b1) in pt.items():
        for m2, (a2, b2) in qt.items():
            m = _mono_mul(m1, m2)
            a, b = a1 * a2 - b1 * b2, a1 * b2 + a2 * b1
            c = out.get(m)
            if c is not None:
                a, b = a + c[0], b + c[1]
                if not (a or b):
                    del out[m]
                    continue
            out[m] = (a, b)
    return _int_value(table, out, pd * qd)


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


_SIGN_BITS = 4096  # the finest root precision of ``sign_at``, doubling from 16 bits


def _root_sign(table, idx, number, signs) -> int:
    """The sign of the real root of s^k = rhs (symbol ``idx``) nearest
    ``number``, given the ``signs`` of the earlier roots: with k odd the one
    real root, with k even and rhs > 0 the root of ``number``'s sign."""
    k, rhs = table.relations[idx]
    name, text = table.names[idx], table.symbols[idx - 1].relation[1]
    c = _poly_sign(table, rhs, signs)
    if c is None or c < 0 and k % 2 == 0:
        raise EvaluationError(f"{name}^{k} = {text} has no real root decided at the valuation")
    if k % 2:
        return c
    if c and not number:
        raise EvaluationError(f"{name} = {number!r} is equally near the roots "
                              f"-({text})^(1/{k}) and ({text})^(1/{k})")
    return c and (1 if number > 0 else -1)


def _poly_sign(table, poly, signs) -> int | None:
    """The sign of a real polynomial over the related symbols at the roots
    of the given ``signs``; None if ``_SIGN_BITS`` bits leave 0 in its interval."""
    bits = 16
    while bits <= _SIGN_BITS:
        lo, hi = _interval(poly, _root_boxes(table, signs, bits))
        if lo > 0 or hi < 0 or lo == hi == 0:
            return (lo > 0) - (hi < 0)
        bits *= 2
    return None


def _root_boxes(table, signs, bits):
    """Intervals around the roots of the given ``signs``: |s| = |rhs|^(1/k)
    lies between integer k-th roots at the scale 2^bits of rhs's interval."""
    boxes, scale = {}, 1 << bits
    for idx, sign in sorted(signs.items()):
        k, rhs = table.relations[idx]
        lo, hi = _interval(rhs, boxes)
        if sign < 0 and k % 2:  # the root of a negative rhs
            lo, hi = -hi, -lo
        r_lo = Fraction(_iroot(floor(max(lo, 0) * scale**k), k), scale)
        r_hi = Fraction(_iroot(ceil(hi * scale**k), k) + 1, scale)
        boxes[idx] = (r_lo, r_hi) if sign > 0 else (-r_hi, -r_lo)
    return boxes


def _interval(poly, boxes):
    """An interval holding the polynomial's value, by interval arithmetic."""
    lo = hi = 0
    for m, c in poly.items():
        a = b = c
        for idx, e in m:
            x, y = boxes[idx]
            for _ in range(e):
                a, b = min(a * x, a * y, b * x, b * y), max(a * x, a * y, b * x, b * y)
        lo, hi = lo + a, hi + b
    return lo, hi


def _splits_over_gaussians(k, c):
    """Whether x^k - c factors over Q(i), for a rational c.  By Capelli's
    theorem it does iff c = 0, or c is a p-th power in Q(i) for a prime p
    dividing k, or 4 | k and c is in -4 Q(i)^4.  -4 = (1+i)^4, so the last
    case is a square; a rational p-th power in Q(i) is a rational one for odd
    p, and a rational square up to sign for p = 2 (-1 = i^2).  So x^k - c
    factors iff c = 0 or |c| is a rational d-th power for some d > 1 dividing
    k."""
    num, den = abs(c.numerator), c.denominator
    if num in (0, den):  # c = 0, or |c| = 1, which is every d-th power
        return True
    # |c| = r^d with r != 1 needs 2^d <= num or den, so d is below the larger
    # bit length
    top = min(k, max(num.bit_length(), den.bit_length()))
    return any(
        k % d == 0 and _iroot(num, d) ** d == num and _iroot(den, d) ** d == den
        for d in range(2, top + 1)
    )


def _prime_factors(n):
    """The distinct primes dividing the integer n >= 1, by trial division."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n


def _iroot(n, k):
    """floor(n^(1/k)) for an integer n >= 0, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while x and (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _digit_count(n):
    """The number of decimal digits of the integer n, without printing it."""
    n = abs(n)
    # (bit length - 1) * log10(2), less one for rounding, is at most the
    # exponent of the leading digit
    d = max(1, int((n.bit_length() - 1) * 0.30102999566398120) - 1)
    while 10**d <= n:
        d += 1
    return d


# A power c^k whose digit bound is past the int-to-str limit but within this
# factor of it is still built, cheaply, so that printing it names its exact
# digit count; past the factor it is refused unbuilt, since at a manifest
# power such as 10^9 building it alone takes minutes.
_UNBUILT_POWER_FACTOR = 10


def _embedded_power_digits(q, k, rels):
    """``power_digits`` for q {monomial: Fraction} over i and the related
    symbols ``rels``, from the D points alpha that choose a root of each
    relation (s^n = r(alpha), in declaration order); q -> q(alpha) is a
    ring map at each.

    Numerators: q^k = sum_m b_m m over the reduced monomials has
    |q(alpha)|^k <= max |b_m| S for S = sum_m |m(alpha)| = prod_s
    sum_(e < n) |alpha_s|^e, so a numerator has more than k log10|q(alpha)|
    - log10 S digits.  Denominators, when every relation's right side has
    integer coefficients: each alpha_s is then an algebraic integer, so is
    L q^k for L the lcm of q^k's D or fewer coefficient denominators, and
    the product of (L q^k)(alpha) over the points is a rational integer,
    nonzero when no q(alpha) is 0.  So L^D |N|^k >= 1 for N the product of
    the q(alpha), and some denominator has more than -k log10|N| / D^2
    digits.  Each float |q(alpha)| (of q scaled to coefficients of at most
    1) is moved by 1e-12 of its terms' absolute sum, past its rounding
    error: lowered for the numerators, raised for the norm.  Where the
    lowered one, or a relation's right side, is not bounded away from 0 so
    (a zero divisor of a reducible tower, say), the norm gives no bound.
    0 if no bound is positive or a float overflows."""
    top = max(map(abs, q.values()))
    q = {m: x / top for m, x in q.items()}

    def at(poly, p):
        return [float(x) * prod(p[j] ** e for j, e in m) for m, x in poly.items()]

    points, best = [{}], 0.0
    log_top = log10(top.numerator) - log10(top.denominator)
    integral = all(x.denominator == 1 for _n, rhs in rels.values() for x in rhs.values())
    log_norm = 0.0
    try:
        for idx in sorted(rels):
            n, rhs = rels[idx]
            values = [at(rhs, p) for p in points]
            # a right side that may be 0 at a point (a zero divisor of a
            # reducible tower) has float roots too far off for the norm
            integral = integral and all(abs(sum(v)) > 1e-12 * sum(map(abs, v)) for v in values)
            # each point so far, extended by the n roots of s^n = rhs(point)
            points = [{**p, idx: root * cmath.exp(2j * cmath.pi * t / n)}
                      for p, v in zip(points, values)
                      for root in [complex(sum(v)) ** (1 / n)] for t in range(n)]
        for p in points:
            qs = at(q, p)
            margin = 1e-12 * sum(map(abs, qs))
            low = abs(sum(qs)) - margin
            size = prod(sum(abs(p[j]) ** e for e in range(n)) for j, (n, _r) in rels.items())
            if low > 0:
                best = max(best, k * (log10(low) + log_top) - log10(size))
            integral = integral and low > 0
            log_norm += log10(abs(sum(qs)) + margin) + log_top
        if integral:
            best = max(best, -k * log_norm / len(points) ** 2)
    except OverflowError:
        return 0.0
    return best


def power_digits(c: Scalar, k: int) -> float:
    """A number of decimal digits that the longest integer written in c^k
    exceeds, found without building c^k; 0 unless c = q m for m a monomial
    in the free symbols (m = 1 without them; a canonical denominator with one
    free monomial has the coefficient 1 on it): the integers of c^k = q^k m^k
    are q^k's.  A q over a related symbol is bounded at the relations' roots
    (``_embedded_power_digits``); the rest speaks of q in Q(i), neither 0
    nor a unit 1, -1, i, -i, as c.

    Write c^k = x + y i with x and y in lowest terms.  For |c| > 1 one of the
    numerators of x and y is at least |c|^k / sqrt(2), so it has more than
    k log10|c| - 0.16 digits.  For |c| < 1 the least common denominator of x
    and y times c^k is a nonzero Gaussian integer, so it is at least |c|^-k
    and one of the two denominators has more than k |log10|c|| / 2 digits.

    For |c| = 1 write c = (a + b i) / d with d the least common denominator
    of its parts, so gcd(a, b, d) = 1 and a^2 + b^2 = d^2.  Then gcd(a, b) =
    1, and d is odd since a square is not 2 mod 4.  A Gaussian prime that
    divides both a + b i and a - b i divides 2a, 2b and d^2, hence the
    coprime 2 and d^2: there is none.  So no rational prime p dividing d
    divides (a + b i)^k = X + Y i, or it would divide the conjugate
    (a - b i)^k too.  The least common denominator of x = X / d^k and
    y = Y / d^k is therefore d^k; it is at most the product of the two
    denominators, so one of them has more than k log10(d) / 2 digits.  The
    units 1, -1, i and -i have d = 1."""
    if c.is_zero():
        return 0.0
    if not c.is_gaussian_rational():
        rels = c.table.relations
        num, den = (_by_free_monomial(part, rels) for part in (c.num, c.den))
        if len(num) != 1 or len(den) != 1 or list(den.values()) != [_ONE_POLY]:
            return 0.0
        (q,) = num.values()  # the polynomial in i and the related symbols
        if not set(q) <= {_ONE_MONO, _I_MONO}:
            return _embedded_power_digits(q, k, rels)
        t = c.table
        return power_digits(t.scalar(q.get(_ONE_MONO, 0)) + t.scalar(q.get(_I_MONO, 0)) * t.i, k)
    norm = (c * c.conjugate()).as_rational()  # |c|^2
    if norm == 1:
        real = ((c + c.conjugate()) / 2).as_rational()
        imag = ((c.conjugate() - c) * c.table.i / 2).as_rational()
        return k * log10(lcm(real.denominator, imag.denominator)) / 2
    log_abs = (log10(norm.numerator) - log10(norm.denominator)) / 2
    return max(0.0, k * log_abs - 0.16) if log_abs > 0 else -k * log_abs / 2


# A power of a value with free symbols is expanded; one whose numerator or
# denominator could have more free monomials than this is refused unbuilt.
# (a+b+1)^30, with 496, takes about 0.05 s and (a+1)^499 about 0.2 s over
# Q(i), and about three times as long in a table that declares a relation.
_POWER_MONOMIALS = 500


def power_monomials(c: Scalar, k: int) -> int:
    """A number of free monomials that neither the numerator nor the
    denominator of c^k exceeds, found without building c^k.  A polynomial
    with t free monomials, of total degree at most D in v free symbols, has
    a k-th power with at most min(C(k + t - 1, t - 1), C(k D + v, v)) of
    them: each is a product of k of the t, of degree at most k D."""
    if c._t is not None:
        return 1
    rels = c.table.relations
    most = 1
    for part in (c.num, c.den):
        free = {_mono_split(mono, rels)[0] for mono in part}
        t = len(free)
        if t > 1:
            v = len({idx for mono in free for idx, _e in mono})
            degree = max(sum(e for _idx, e in mono) for mono in free)
            most = max(most, min(comb(k + t - 1, t - 1), comb(k * degree + v, v)))
    return most


def check_power_size(c: Scalar, k: int):
    """Raise ScalarError, without building c^k, when ``power_digits`` of it
    exceeds ``_UNBUILT_POWER_FACTOR`` times Python's int-to-str limit (no
    limit, no refusal), or when ``power_monomials`` of it exceeds
    ``_POWER_MONOMIALS``."""
    limit = sys.get_int_max_str_digits()
    digits = power_digits(c, k)
    if limit and digits > _UNBUILT_POWER_FACTOR * limit:
        raise ScalarError(
            f"scalar too long to print: a power would have a coefficient of at least "
            f"{int(digits)} digits (the limit is {limit})"
        )
    monomials = power_monomials(c, k)
    if monomials > _POWER_MONOMIALS:
        raise ScalarError(
            f"scalar too large to expand: a power could have {monomials} monomials "
            f"(the limit is {_POWER_MONOMIALS})"
        )


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
        size = abs(coeff)
        if not ms:
            body = str(size)
        elif size == 1:
            body = ms
        else:
            body = f"{size}*{ms}"
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
            exponent = self.uint()
            check_power_size(value, exponent)
            value = value ** exponent
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
