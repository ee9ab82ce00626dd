"""Manifests: the on-disk description of an algebra, its attached structures
and the checks to run, plus the check orchestrator and machine readable
reports.

A manifest resolves names against its own declarations (symbols, basis,
endomorphisms, bilinears, forms); the Jacobi gate is implicitly the first
check.  Each check kind is declared once, by ``_check`` on its handler,
with the types of its parameters; a manifest whose checks do not match
their declarations is a parse error.  The declared ``_Type`` tree is the one
statement of the schema: each type is compiled once, on first use, into a
checker closure that walks an accepted manifest without formatting a path
and names the path of the first value it refuses.  Reports are
deterministic: canonical scalar strings, floats printed to 12 significant
digits, sorted keys, and timing excluded on request.  Reports and emitted
manifests are written by ``json_text``, byte for byte what
``json.dumps(obj, indent=2, sort_keys=True)`` prints.

Form specifications (the ``form``/``equals``/``alpha`` style parameters)
are nested objects:

    {"name": N}                                  an attached form
    {"terms": [[coeff, [generator names]], ..]}  a literal form
    {"eta_terms": [[coeff, [holo], [anti]], ..], "endo": E}
                                                 built in the (1,0)-coframe
    {"d_of": SPEC}                               the differential of a spec
    {"wedge": [SPEC, ..]}                        a wedge product
    {"power": K, "base": SPEC}                   a wedge power
    {"combo": [[coeff, SPEC], ..]}               a linear combination

An ``eta_terms`` form stays in its coframe; operands from different bases
are combined in the real basis, and reported forms are always real.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from . import hyperbolic, linear, metrics, quaternion
from .cealg import (
    Form,
    FormError,
    LieAlgebraPresentation,
    PresentationError,
    top_coefficient,
    wedge_all,
    wedge_power,
)
from .complexops import AlmostComplexStructure, IntegrabilityError, dc, del_, real_basis, weil_operator
from .metrics import HermitianCandidate, MetricError
from .quaternion import HKTCandidate, HypercomplexTriple, QuaternionError
from .scalars import ScalarError, Symbol, SymbolTable

SCHEMA = "hermitia-manifest/1"
REPORT_SCHEMA = "hermitia-report/1"
DEFAULT_SEED = 20240


class ManifestError(ValueError):
    pass


def _fmt_float(x):
    return float(f"{float(x):.12g}")


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, written
    in one pass into one list of chunks (with ``indent`` set, json falls back
    to its generator-based encoder)."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write(value, out, newline):
    """Append the chunks of ``value`` at the indentation ``newline`` carries.
    What json would print another way (a non-finite float, a subclass of int
    or float, a dict with a key that is not a string, an unknown type) is
    json's own output for that subtree, re-indented: a JSON string holds no
    raw newline."""
    t = type(value)
    if t is str:
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif t is bool:
        out.append("true" if value else "false")
    elif t is int:
        out.append(int.__repr__(value))
    elif t is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in value:
            out.append(sep)
            if type(x) is str:
                out.append(_encode_str(x))
            else:
                _write(x, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif t is dict and all(type(k) is str for k in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(value):
            out.append(sep)
            out.append(_encode_str(k))
            out.append(": ")
            x = value[k]
            if type(x) is str:
                out.append(_encode_str(x))
            else:
                _write(x, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


@dataclass(frozen=True, eq=False)
class _Type:
    """A JSON value type of the manifest schema: what it is called in errors
    and the README, its membership test, and the type of what it holds: of
    every list entry or object value, a tuple of types for the positions of a
    fixed-length list, or a ``_Record`` for the keys of an object (or a
    function from the object to that record).  Types hash by identity: each
    is compiled once, by ``_checker``."""

    label: str
    test: Callable
    of: object = None


@dataclass(frozen=True, eq=False)
class _Record:
    fields: dict  # {key: (type, default)}
    alternatives: tuple = ()  # groups of keys of which an object gives exactly one


def _enum(*values):
    return _Type(" or ".join(json.dumps(v) for v in values), lambda v: v in values)


LIST = _Type("a list", lambda v: isinstance(v, list))
OBJECT = _Type("an object", lambda v: isinstance(v, dict))


def _list_of(item):
    return replace(LIST, of=item)


def _map_of(value):
    return replace(OBJECT, of=value)


def _entry(label, *positions, optional=0):
    """A list of one value of each type in ``positions``; the last
    ``optional`` of them may be left out."""
    lengths = range(len(positions) - optional, len(positions) + 1)
    return _Type(label, lambda v: LIST.test(v) and len(v) in lengths, positions)


STR = _Type("a string", lambda v: isinstance(v, str))
NAME = _Type("a nonempty string", lambda v: isinstance(v, str) and v != "")
BOOL = _Type("a boolean", lambda v: isinstance(v, bool))
INT = _Type("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
NATURAL = _Type("a non-negative integer", lambda v: INT.test(v) and v >= 0)
POSITIVE = _Type("a positive integer", lambda v: INT.test(v) and v > 0)
NUMBER = _Type(
    "a finite number", lambda v: INT.test(v) or (isinstance(v, float) and math.isfinite(v))
)
COEFF = _Type(
    "a coefficient (string or finite number)", lambda v: isinstance(v, str) or NUMBER.test(v)
)


def _is_rational(v):
    """An integer, a finite number or a string that Fraction reads."""
    if isinstance(v, str):
        try:
            Fraction(v)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return COEFF.test(v)


RATIONALS = _Type(
    'a list of rationals (integers, finite numbers or strings such as "3/4")',
    lambda v: LIST.test(v) and all(map(_is_rational, v)),
)
INTERVAL = _Type("a list of two rationals", lambda v: RATIONALS.test(v) and len(v) == 2)
# a positivity_falsify sample count: at least one draw, and bounded work
MAX_SAMPLES = 10**6
SAMPLES = _Type(
    f"an integer from 1 to {MAX_SAMPLES}", lambda v: INT.test(v) and 1 <= v <= MAX_SAMPLES
)
NAMES = _list_of(STR)
# coframe indices; their range 1..m is known only once the structure is built
INDICES = _list_of(INT)
TERMS = _list_of(_entry("[coefficient, [generator names]]", COEFF, NAMES))
MATRIX = _list_of(_list_of(COEFF))

_REQUIRED = object()


def _fields(params):
    """``{key: (type, default)}`` from keywords whose value is a type (a
    required key) or a ``(type, default)`` pair (an optional key)."""
    return {k: v if isinstance(v, tuple) else (v, _REQUIRED) for k, v in params.items()}


def _defaults(fields):
    return {k: d for k, (_, d) in fields.items() if d is not _REQUIRED}


# A form spec is the name of an attached form or an object with one
# constructor; the types of its keys refer back to SPEC.
_SPEC_FIELDS = {}
SPEC = _Type(
    "a form spec (string or object)",
    lambda v: isinstance(v, (str, dict)),
    _Record(_SPEC_FIELDS, (
        ("name",), ("terms",), ("eta_terms", "endo"), ("d_of",), ("wedge",), ("power", "base"),
        ("combo",),
    )),
)
_SPEC_FIELDS.update(_fields({
    "name": STR,
    "terms": TERMS,
    "eta_terms": _list_of(_entry(
        "[coefficient, [holo]] or [coefficient, [holo], [anti]]", COEFF, INDICES, INDICES,
        optional=1,
    )),
    "endo": STR,
    "d_of": SPEC,
    "wedge": _list_of(SPEC),
    "power": POSITIVE,
    "base": SPEC,
    "combo": _list_of(_entry("[coefficient, form spec]", COEFF, SPEC)),
}))
DECOMPOSITION = _list_of(_entry("[coefficient, [factors]]", COEFF, _list_of(_Type(
    "a form spec or a coframe index", lambda v: SPEC.test(v) or INT.test(v), SPEC.of
))))
SIGNATURE = _entry("a list [positive, negative, zero] of counts", NATURAL, NATURAL, NATURAL)


class _Rejected(Exception):
    """A value refused by a compiled checker: the end of its error line and
    the path segments from the value out to the manifest, innermost first.
    The path is joined only when the refusal becomes a ManifestError."""

    def __init__(self, tail, *segments):
        super().__init__(tail)
        self.tail = tail
        self.segments = list(segments)

    def line(self):
        path = "".join(reversed(self.segments)).removeprefix(".")
        return f"{path or 'manifest'}{self.tail}"


@functools.cache
def _checker(kind):
    """The checker compiled from a ``_Type`` or ``_Record``, once: a function
    of a JSON value that returns if the value has the type down to its leaves
    and raises ``_Rejected`` at the first value that does not, in declaration
    order."""
    return _compile_record(kind) if isinstance(kind, _Record) else _compile_type(kind)


def _compile_type(kind: _Type):
    test, label, of = kind.test, kind.label, kind.of

    def refuse(value):
        got = type(value).__name__ if isinstance(value, (list, dict)) else json.dumps(value)
        return _Rejected(f": expected {label}, got {got}")

    if of is None:
        def check(value):
            if not test(value):
                raise refuse(value)
    elif isinstance(of, _Record) or callable(of):
        # the keys of an object: a record, or the record a function picks for it
        fixed = _checker(of) if isinstance(of, _Record) else None

        def check(value):
            if not test(value):
                raise refuse(value)
            if isinstance(value, dict):
                (fixed or _checker(of(value)))(value)
    elif isinstance(of, tuple):
        positions = tuple(map(_checker, of))

        def check(value):
            if not test(value):
                raise refuse(value)
            k = 0
            try:
                for k, (x, position) in enumerate(zip(value, positions)):
                    position(x)
            except _Rejected as r:
                r.segments.append(f"[{k}]")
                raise
    else:
        entry = _checker(of)
        # leaf entries are tested in one pass; the loop runs only to name a failure
        leaf = of.test if of.of is None else None

        def check(value):
            if not test(value):
                raise refuse(value)
            is_map = isinstance(value, dict)
            if leaf is not None and all(map(leaf, value.values() if is_map else value)):
                return
            k = 0
            try:
                for k, x in value.items() if is_map else enumerate(value):
                    entry(x)
            except _Rejected as r:
                r.segments.append(f".{k}" if is_map else f"[{k}]")
                raise
    return check


def _compile_record(record: _Record):
    """The checker of a JSON object against ``record``: no unknown key, every
    required key present and every value of its type.  Of the key groups in
    its alternatives exactly one is given, and only its keys are required."""
    known = frozenset(record.fields)
    # compiled on the first call, when the types that hold this record (a
    # form spec's keys hold form specs) have their checkers
    fields = []
    group_of = {key: group for group in record.alternatives for key in group}
    not_chosen = {group: frozenset(group_of) - set(group) for group in record.alternatives}
    either = " or ".join(" with ".join(g) for g in record.alternatives)

    def check(obj):
        if not fields:
            fields.extend((key, _checker(kind), default is _REQUIRED)
                          for key, (kind, default) in record.fields.items())
        if not known.issuperset(obj):
            key = next(k for k in obj if k not in known)
            raise _Rejected(": unknown parameter", f".{key}")
        skip = ()
        if group_of:
            chosen = {group_of[k] for k in obj if k in group_of}
            if len(chosen) != 1:
                raise _Rejected(f": expected exactly one of {either}")
            skip = not_chosen[chosen.pop()]
        for key, value_check, required in fields:
            if key in obj:
                try:
                    value_check(obj[key])
                except _Rejected as r:
                    r.segments.append(f".{key}")
                    raise
            elif required and key not in skip:
                raise _Rejected(": missing required parameter", f".{key}")
    return check


def _check_kind(check):
    """The record the check's kind declares."""
    kind = check.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise _Rejected(f": unknown check kind {kind!r}", ".kind")
    return _KINDS[kind]


_RELATION = _Record(_fields({"power": INT, "rhs": STR}))
_SYMBOL = _Record(_fields({
    "name": STR,
    "relation": (_Type("null or an object", lambda v: v is None or OBJECT.test(v), _RELATION), None),
    "sign_hint": (_enum(None, "positive", "negative", "unknown"), None),
}))
_MANIFEST_FIELDS = _fields({
    "schema": (_enum(SCHEMA), SCHEMA),
    "name": NAME,
    "comment": (STR, ""),
    "symbols": (_list_of(_map_of(_SYMBOL)), []),
    "dimension": POSITIVE,
    "basis": NAMES,
    "differential": (_map_of(TERMS), {}),
    "endomorphisms": (_map_of(MATRIX), {}),
    "bilinears": (_map_of(MATRIX), {}),
    "forms": (_map_of(TERMS), {}),
    "valuations": (_map_of(_map_of(NUMBER)), {}),
    "checks": (_list_of(_map_of(_check_kind)), []),
})
_MANIFEST = _map_of(_Record(_MANIFEST_FIELDS))


class Manifest:
    """Validated manifest data; ``build`` materializes the presentation."""

    def __init__(self, data: dict):
        try:
            _checker(_MANIFEST)(data)
        except _Rejected as r:
            raise ManifestError(r.line()) from None
        for key, value in {**_defaults(_MANIFEST_FIELDS), **data}.items():
            setattr(self, key, copy.copy(value))
        if len(self.basis) != self.dimension:
            raise ManifestError("basis must list one name per dimension")
        ids = [c["id"] for c in self.checks]
        if len(set(ids)) != len(ids):
            raise ManifestError("check ids must be unique")

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            return cls(json.loads(text))
        except json.JSONDecodeError as e:
            raise ManifestError(f"malformed JSON at byte offset {e.pos}: {e.msg}") from None
        except RecursionError:
            raise ManifestError("manifest nests too deeply") from None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _MANIFEST_FIELDS}

    def to_json(self) -> str:
        return json_text(self.to_dict()) + "\n"

    def build(self) -> "BuildContext":
        symbols = []
        for s in self.symbols:
            rel = s.get("relation")
            relation = (rel["power"], rel["rhs"]) if rel else None
            symbols.append(
                Symbol(s["name"], relation=relation, sign_hint=s.get("sign_hint"))
            )
        table = SymbolTable(symbols)
        index = {nm: k for k, nm in enumerate(self.basis, 1)}
        diff = {}
        for gen, terms in self.differential.items():
            if gen not in index:
                raise ManifestError(f"differential refers to unknown generator {gen!r}")
            diff[index[gen]] = [self._term(t, index) for t in terms]
        pres = LieAlgebraPresentation(
            self.dimension, diff, names=self.basis, table=table
        )
        for nm, rows in self.endomorphisms.items():
            pres.endomorphisms[nm] = pres._as_matrix(rows)
        for nm, rows in self.bilinears.items():
            pres.bilinears[nm] = pres._as_matrix(rows)
        for nm, terms in self.forms.items():
            pres.forms[nm] = pres.form([self._term(t, index) for t in terms])
        return BuildContext(self, pres)

    @staticmethod
    def _term(t, index):
        """A manifest term [coeff, names] as (coeff, generator indices)."""
        coeff, names = t
        try:
            return coeff, tuple(index[nm] for nm in names)
        except KeyError as e:
            raise ManifestError(f"unknown generator {e.args[0]!r} in a form term") from None


def _one_basis(forms):
    """The forms as they are if they share one basis, else all in the real
    basis."""
    if all(f.presentation is forms[0].presentation for f in forms):
        return forms
    return [real_basis(f) for f in forms]


def _coframe_indices(indices, m, what):
    """The (1,0)-coframe ``indices`` as a tuple, if each is in 1..m."""
    if not all(1 <= k <= m for k in indices):
        raise ManifestError(f"{what}: expected a list of coframe indices in 1..{m}")
    return tuple(indices)


class BuildContext:
    """A materialized manifest: the presentation plus caches for derived
    structures (complex structures, candidates, triples)."""

    def __init__(self, manifest: Manifest, presentation: LieAlgebraPresentation):
        self.manifest = manifest
        self.presentation = presentation
        self.table = presentation.table
        self._acs = {}
        self._candidates = {}
        self._triples = {}

    def attached(self, section, name):
        """The structure ``name`` of ``section`` ("endomorphisms",
        "bilinears" or "forms") attached to the presentation."""
        found = getattr(self.presentation, section).get(name)
        if found is None:
            raise ManifestError(f"unknown {section[:-1]} {name!r}")
        return found

    def acs(self, name) -> AlmostComplexStructure:
        if name not in self._acs:
            mat = self.attached("endomorphisms", name)
            self._acs[name] = AlmostComplexStructure(self.presentation, mat, name=name)
        return self._acs[name]

    def candidate(self, omega_name, endo_name) -> HermitianCandidate:
        key = (omega_name, endo_name)
        if key not in self._candidates:
            omega = self.attached("forms", omega_name)
            self._candidates[key] = HermitianCandidate(self.acs(endo_name), omega)
        return self._candidates[key]

    def triple(self, i_name, j_name, k_name) -> HypercomplexTriple:
        key = (i_name, j_name, k_name)
        if key not in self._triples:
            self._triples[key] = HypercomplexTriple(
                self.acs(i_name), self.acs(j_name), self.acs(k_name)
            )
        return self._triples[key]

    def valuation(self, name):
        """The valuation ``name``; None for an undeclared "default"."""
        if name not in self.manifest.valuations and name != "default":
            raise ManifestError(f"unknown valuation {name!r}")
        v = self.manifest.valuations.get(name)
        return dict(v) if v else None

    def rational_endo(self, name):
        mat = self.attached("endomorphisms", name)
        if not all(x.is_rational() for row in mat for x in row):
            raise ManifestError(f"endomorphism {name!r} must be rational for this check")
        return [[x.as_rational() for x in row] for row in mat]

    # -- form spec resolution ------------------------------------------------

    def resolve_form(self, spec) -> Form:
        """The form a spec describes.  An ``eta_terms`` spec is built in the
        (1,0)-coframe of its structure and stays there through ``power`` and
        ``d_of``; ``combo`` and ``wedge`` keep one basis when their operands
        share it and convert every operand to the real basis when they do not."""
        if STR.test(spec):
            spec = {"name": spec}
        kind = next(group[0] for group in SPEC.of.alternatives if group[0] in spec)
        if kind == "name":
            return self.attached("forms", spec["name"])
        if kind == "terms":
            index = self.presentation._name_index
            return self.presentation.form([self.manifest._term(t, index) for t in spec["terms"]])
        if kind == "eta_terms":
            model = self.acs(spec["endo"]).model()
            m = model.m
            terms = []
            for entry in spec["eta_terms"]:
                coeff, holo, *anti = entry
                anti = anti[0] if anti else []
                _coframe_indices(holo + anti, m, f"eta_terms entry {json.dumps(entry)}")
                terms.append((self.table.scalar(coeff), (*holo, *(m + b for b in anti))))
            return model.cpres.form(terms)
        if kind == "d_of":
            sub = self.resolve_form(spec["d_of"])
            return sub.presentation.d(sub)
        if kind == "wedge":
            return wedge_all(_one_basis([self.resolve_form(s) for s in spec["wedge"]]))
        if kind == "power":
            return wedge_power(self.resolve_form(spec["base"]), spec["power"])
        forms = _one_basis([self.resolve_form(sub) for _c, sub in spec["combo"]])
        out = Form.zero(forms[0].presentation if forms else self.presentation)
        for (coeff, _sub), form in zip(spec["combo"], forms):
            out = out + self.table.scalar(coeff) * form
        return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    check_id: str
    kind: str
    verdict: str  # pass | fail | inconclusive | error
    detail: dict = field(default_factory=dict)
    informational: bool = False
    time_ms: float | None = None


@dataclass
class Report:
    manifest_name: str
    seed: int
    outcomes: list

    @property
    def overall(self) -> str:
        for o in self.outcomes:
            if o.informational:
                continue
            if o.verdict not in ("pass",):
                return "fail"
        return "pass"

    def to_dict(self, include_timing=True) -> dict:
        checks = []
        for o in self.outcomes:
            entry = {
                "id": o.check_id,
                "kind": o.kind,
                "verdict": o.verdict,
                "informational": o.informational,
                "detail": o.detail,
            }
            if include_timing and o.time_ms is not None:
                entry["time_ms"] = _fmt_float(o.time_ms)
            checks.append(entry)
        return {
            "schema": REPORT_SCHEMA,
            "manifest": self.manifest_name,
            "seed": self.seed,
            "checks": checks,
            "overall": self.overall,
        }

    def to_json(self, include_timing=True) -> str:
        return json_text(self.to_dict(include_timing)) + "\n"

    def to_text(self, include_timing=True) -> str:
        lines = []
        for o in self.outcomes:
            mark = o.verdict.upper()
            info = " [info]" if o.informational else ""
            timing = (
                f" ({o.time_ms:.1f} ms)" if include_timing and o.time_ms is not None else ""
            )
            extra = ""
            if o.verdict != "pass" and o.detail:
                extra = "  " + json.dumps(o.detail, sort_keys=True, default=str)[:200]
            lines.append(f"{mark:>6}  {o.check_id}{info}{timing}{extra}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def serialize_form(f: Form):
    """[coefficient, names] pairs of ``f`` in the real basis, converted here."""
    f = real_basis(f)
    return [[str(c), [f.presentation.names[k - 1] for k in idx]] for idx, c in f.sorted_terms()]


def serialize_matrix(m):
    return [[str(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# check kinds
# ---------------------------------------------------------------------------


_HANDLERS = {}  # kind -> handler(ctx, check, seed) -> (verdict, detail)
_KINDS = {}  # kind -> _Record, the common keys included
_DEFAULTS = {}  # kind -> {optional key: default}
_COMMON = {"id": NAME, "kind": STR, "informational": (BOOL, False)}
_VALUATION = (STR, "default")


def _check(kind, *alternatives, **params):
    """Declare the check kind ``kind``, run by the decorated handler.  Each
    keyword names a parameter and gives its type, or a ``(type, default)``
    pair when it is optional; ``alternatives`` are groups of parameters of
    which a check gives exactly one.  The handler receives the check with
    the defaults filled in."""
    fields = _fields({**_COMMON, **params})

    def register(handler):
        _HANDLERS[kind] = handler
        _KINDS[kind] = _Record(fields, alternatives)
        _DEFAULTS[kind] = _defaults(fields)
        return handler

    return register


def _verdict(ok):
    return "pass" if ok else "fail"


@_check("jacobi")
def _h_jacobi(ctx, check, seed):
    rep = ctx.presentation.jacobi_check()
    detail = {}
    if not rep.passed:
        g, res = rep.witness()
        detail = {
            "witness_generator": ctx.presentation.names[g - 1],
            "residual": serialize_form(res),
        }
    return _verdict(rep.passed), detail


@_check("endomorphism_square", endo=STR)
def _h_endomorphism_square(ctx, check, seed):
    try:
        ctx.acs(check["endo"])
    except IntegrabilityError as e:
        return "fail", {"reason": str(e)}
    return "pass", {}


@_check("integrable", endo=STR, expect=(BOOL, True))
def _h_integrable(ctx, check, seed):
    rep = ctx.acs(check["endo"]).nijenhuis_vanishes()
    detail = {}
    if not rep.passed:
        a, b, vec = rep.witnesses[0]
        detail = {
            "witness_pair": [ctx.presentation.names[a - 1], ctx.presentation.names[b - 1]],
            "value": [str(c) for c in vec],
        }
    return _verdict(rep.passed == check["expect"]), detail


@_check("hermitian_candidate", omega=STR, endo=STR)
def _h_hermitian_candidate(ctx, check, seed):
    try:
        ctx.candidate(check["omega"], check["endo"])
    except MetricError as e:
        return "fail", {"reason": str(e)}
    return "pass", {}


def _metric_predicate(predicate, **extra):
    @_check(predicate, omega=STR, endo=STR, expect=(BOOL, True), **extra)
    def handler(ctx, check, seed):
        cand = ctx.candidate(check["omega"], check["endo"])
        test = getattr(metrics, f"is_{predicate}")
        rep = test(cand, *(check[k] for k in extra))
        detail = {}
        # the residual is read, and so converted to the real basis, only
        # when it goes into the report
        if rep.passed != check["expect"] and rep.residual is not None:
            detail["residual"] = serialize_form(rep.residual)
        return _verdict(rep.passed == check["expect"]), detail


for _predicate in ("kahler", "balanced", "pluriclosed", "astheno"):
    _metric_predicate(_predicate)
_metric_predicate("k_pluriclosed", k=INT)


@_check("lee_form", omega=STR, endo=STR, expect=(_enum("none", "zero", "any"), "any"))
def _h_lee_form(ctx, check, seed):
    cand = ctx.candidate(check["omega"], check["endo"])
    sol = metrics.lee_form(cand)
    expect = check["expect"]
    detail = {}
    if sol.exists:
        detail = {
            "theta": serialize_form(sol.theta),
            "d_theta_zero": sol.d_theta_zero,
            "unique": sol.unique,
        }
        if expect == "none":
            return "fail", detail
        if expect == "zero" and not sol.theta.is_zero():
            return "fail", detail
        return "pass", detail
    detail = {"theta": None}
    return _verdict(expect == "none"), detail


@_check("bismut_torsion", omega=STR, endo=STR, expect_closed=(BOOL, True),
        expect_form=(TERMS, None), up_to_sign=(BOOL, False))
def _h_bismut_torsion(ctx, check, seed):
    cand = ctx.candidate(check["omega"], check["endo"])
    t, dt = metrics.bismut_torsion(cand)
    ok = True
    detail = {"torsion": serialize_form(t), "d_torsion_zero": dt.is_zero()}
    if check["expect_closed"] and not dt.is_zero():
        ok = False
        detail["d_torsion"] = serialize_form(dt)
    if check["expect_form"] is not None:
        target = ctx.resolve_form({"terms": check["expect_form"]})
        if check["up_to_sign"]:
            match = (t - target).is_zero() or (t + target).is_zero()
            detail["sign"] = (
                "+" if (t - target).is_zero() else "-" if (t + target).is_zero() else None
            )
        else:
            match = (t - target).is_zero()
        ok = ok and match
    return _verdict(ok), detail


@_check("weil_torsion_identity", omega=STR, endo=STR)
def _h_weil_torsion_identity(ctx, check, seed):
    cand = ctx.candidate(check["omega"], check["endo"])
    J, omega = cand.J, cand.omega_c
    d = J.model().cpres.d
    t = -dc(omega, J)
    via_weil = weil_operator(d(weil_operator(omega, J)), J)
    via_weil_short = weil_operator(d(omega), J)
    ok = (t - via_weil).is_zero() and (via_weil - via_weil_short).is_zero()
    return _verdict(ok), {}


@_check("gram_signature", ("bilinear",), ("omega", "endo"), bilinear=STR, omega=STR, endo=STR,
        valuation=_VALUATION, expect=(SIGNATURE, None))
def _h_gram_signature(ctx, check, seed):
    valuation = ctx.valuation(check["valuation"])
    if "bilinear" in check:
        mat = ctx.attached("bilinears", check["bilinear"])
        res = metrics.gram_and_signature(mat, valuation)
    else:
        cand = ctx.candidate(check["omega"], check["endo"])
        res = metrics.gram_and_signature(cand, valuation)
    detail = {
        "signature": list(res.signature),
        "exact": res.exact,
        "degenerate": res.degenerate,
        "gram": serialize_matrix(res.matrix),
    }
    if check["expect"] is not None:
        return _verdict(list(res.signature) == check["expect"]), detail
    return "pass", detail


@_check("positivity_falsify", form=SPEC, endo=STR, samples=(SAMPLES, 10000), seed=(NATURAL, None),
        valuation=_VALUATION, expect=(_enum("violation", "no_violation"), "no_violation"))
def _h_positivity_falsify(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    J = ctx.acs(check["endo"])
    verdict = metrics.positivity_falsify(
        form,
        J,
        samples=check["samples"],
        seed=seed if check["seed"] is None else check["seed"],
        valuation=ctx.valuation(check["valuation"]),
    )
    detail = {"status": verdict.status, "samples": verdict.samples}
    if verdict.violated:
        detail["value"] = _fmt_float(verdict.value)
        detail["witness"] = [
            [[_fmt_float(z.real), _fmt_float(z.imag)] for z in v] for v in verdict.witness
        ]
    if verdict.status == check["expect"]:
        if check["expect"] == "no_violation":
            detail["note"] = "sampling evidence only; positivity is not certified"
        return "pass", detail
    return "fail", detail


@_check("strong_positivity_certificate", form=SPEC, endo=STR, decomposition=DECOMPOSITION,
        valuation=_VALUATION)
def _h_strong_positivity_certificate(ctx, check, seed):
    form = real_basis(ctx.resolve_form(check["form"]))
    J = ctx.acs(check["endo"])
    model = J.model()
    decomposition = []
    for coeff, factors in check["decomposition"]:
        xs = []
        for xi in factors:
            if not INT.test(xi):
                xs.append(real_basis(ctx.resolve_form(xi)))
            elif 1 <= xi <= model.m:
                xs.append(model.eta(xi))
            else:
                raise ManifestError(
                    f"decomposition factor {xi}: expected a form spec "
                    f"or a coframe index in 1..{model.m}"
                )
        decomposition.append((coeff, tuple(xs)))
    rep = metrics.strong_positivity_certificate(
        form, J, decomposition, valuation=ctx.valuation(check["valuation"])
    )
    detail = dict(rep.notes)
    if rep.residual is not None:
        detail["residual"] = serialize_form(rep.residual)
    return _verdict(rep.valid), detail


_TRIPLE = {"I": STR, "J": STR, "K": STR}


@_check("hypercomplex", **_TRIPLE)
def _h_hypercomplex(ctx, check, seed):
    rep = quaternion.check_hypercomplex(ctx.triple(check["I"], check["J"], check["K"]))
    detail = {"subchecks": [[c.name, c.passed] for c in rep.checks]}
    return _verdict(rep.passed), detail


@_check("pseudo_hyperkahler", **_TRIPLE, omega_I=SPEC, omega_J=SPEC, omega_K=SPEC)
def _h_pseudo_hyperkahler(ctx, check, seed):
    t = ctx.triple(check["I"], check["J"], check["K"])
    rep = quaternion.check_pseudo_hyperkahler(
        t,
        *(real_basis(ctx.resolve_form(check[k])) for k in ("omega_I", "omega_J", "omega_K")),
    )
    detail = {"subchecks": [[c.name, c.passed] for c in rep.checks]}
    return _verdict(rep.passed), detail


def _hkt_candidate(ctx, check):
    t = ctx.triple(check["I"], check["J"], check["K"])
    return HKTCandidate(t, ctx.resolve_form(check["omega20"]))


@_check("hkt", **_TRIPLE, omega20=SPEC, valuation=_VALUATION, expect=(BOOL, True))
def _h_hkt(ctx, check, seed):
    cand = _hkt_candidate(ctx, check)
    rep = quaternion.check_hkt(cand, valuation=ctx.valuation(check["valuation"]))
    detail = {"subchecks": [[c.name, c.passed, c.detail] for c in rep.checks]}
    return _verdict(rep.passed == check["expect"]), detail


@_check("quaternionic_balanced", **_TRIPLE, omega20=SPEC, expect=(BOOL, True))
def _h_quaternionic_balanced(ctx, check, seed):
    cand = _hkt_candidate(ctx, check)
    rep = quaternion.check_quaternionic_balanced(cand)
    detail = {"subchecks": [[c.name, c.passed, c.detail] for c in rep.checks]}
    return _verdict(rep.passed == check["expect"]), detail


@_check("del_exact", form=SPEC, endo=STR, expect=(BOOL, True))
def _h_del_exact(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    J = ctx.acs(check["endo"])
    rep = quaternion.del_primitive(form, J)
    detail = {}
    if rep.exists and rep.primitive is not None:
        detail["primitive"] = serialize_form(rep.primitive)
    return _verdict(rep.exists == check["expect"]), detail


def _zero_verdict(res, expect):
    detail = {"residual": serialize_form(res)} if expect and not res.is_zero() else {}
    return _verdict(res.is_zero() == expect), detail


@_check("del_zero", form=SPEC, endo=STR, expect=(BOOL, True))
def _h_del_zero(ctx, check, seed):
    res = del_(ctx.resolve_form(check["form"]), ctx.acs(check["endo"]))
    return _zero_verdict(res, check["expect"])


@_check("d_zero", form=SPEC, expect=(BOOL, True))
def _h_d_zero(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    return _zero_verdict(form.presentation.d(form), check["expect"])


def _equal_verdict(lhs, rhs):
    lhs, rhs = _one_basis([lhs, rhs])
    diff = lhs - rhs
    detail = {} if diff.is_zero() else {"difference": serialize_form(diff)}
    return _verdict(diff.is_zero()), detail


@_check("d_equals", form=SPEC, equals=SPEC)
def _h_d_equals(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    return _equal_verdict(form.presentation.d(form), ctx.resolve_form(check["equals"]))


@_check("form_equals", lhs=SPEC, rhs=SPEC)
def _h_form_equals(ctx, check, seed):
    return _equal_verdict(ctx.resolve_form(check["lhs"]), ctx.resolve_form(check["rhs"]))


@_check("obstruction_pairing", **_TRIPLE, alpha=SPEC, beta_etas=INDICES, matrix=MATRIX,
        expect=COEFF)
def _h_obstruction_pairing(ctx, check, seed):
    t = ctx.triple(check["I"], check["J"], check["K"])
    alpha = ctx.resolve_form(check["alpha"])
    model = t.I.model()
    etas = check["beta_etas"]
    beta = model.eta_monomial(_coframe_indices(etas, model.m, f"beta_etas {json.dumps(etas)}"))
    value = quaternion.hkt_obstruction(t, alpha, beta, check["matrix"])
    detail = {"pairing": str(value)}
    return _verdict((value - ctx.table.scalar(check["expect"])).is_zero()), detail


@_check("det_equals", endo=STR, expect=COEFF)
def _h_det_equals(ctx, check, seed):
    value = linear.det(ctx.attached("endomorphisms", check["endo"]), ctx.table)
    return _verdict((value - ctx.table.scalar(check["expect"])).is_zero()), {"det": str(value)}


@_check("commute", endos=NAMES)
def _h_commute(ctx, check, seed):
    names = check["endos"]
    mats = [ctx.attached("endomorphisms", nm) for nm in names]
    ok = True
    detail = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            ab = linear.mat_mul(mats[a], mats[b], ctx.table)
            ba = linear.mat_mul(mats[b], mats[a], ctx.table)
            if not linear.mat_eq(ab, ba):
                ok = False
                detail.setdefault("noncommuting_pairs", []).append([names[a], names[b]])
    return _verdict(ok), detail


@_check("matrix_isometry", endo=STR, bilinear=STR)
def _h_matrix_isometry(ctx, check, seed):
    mat = ctx.attached("endomorphisms", check["endo"])
    gram = ctx.attached("bilinears", check["bilinear"])
    lhs = linear.mat_mul(linear.mat_mul(linear.transpose(mat), gram, ctx.table), mat, ctx.table)
    res = linear.mat_sub(lhs, gram)
    ok = linear.is_zero_matrix(res)
    detail = {} if ok else {"residual": serialize_matrix(res)}
    return _verdict(ok), detail


@_check("char_poly_equals", endo=STR, expect=RATIONALS)
def _h_char_poly_equals(ctx, check, seed):
    rows = ctx.rational_endo(check["endo"])
    cp = hyperbolic.char_poly(rows)
    expect = [Fraction(str(c)) for c in check["expect"]]
    ok = cp == expect
    return _verdict(ok), {"char_poly_ascending": [str(c) for c in cp]}


@_check("spectral_radius_in", endo=STR, interval=INTERVAL)
def _h_spectral_radius_in(ctx, check, seed):
    rows = ctx.rational_endo(check["endo"])
    lo_t, hi_t = (Fraction(str(x)) for x in check["interval"])
    lo, hi = hyperbolic.spectral_radius_interval(rows)
    ok = lo_t < lo and hi < hi_t
    return _verdict(ok), {
        "certified_interval": [f"{float(lo):.12g}", f"{float(hi):.12g}"],
        "target_interval": [str(x) for x in check["interval"]],
    }


@_check("trace_zero", endo=STR)
def _h_trace_zero(ctx, check, seed):
    mat = ctx.attached("endomorphisms", check["endo"])
    tr = ctx.table.zero
    for k in range(len(mat)):
        tr = tr + mat[k][k]
    return _verdict(tr.is_zero()), {"trace": str(tr)}


@_check("top_coefficient_equals", form=SPEC, volume=SPEC, expect=COEFF)
def _h_top_coefficient_equals(ctx, check, seed):
    a, vol = _one_basis([ctx.resolve_form(check[k]) for k in ("form", "volume")])
    value = top_coefficient(a, vol)
    return _verdict((value - ctx.table.scalar(check["expect"])).is_zero()), {"coefficient": str(value)}


# the errors a check reports in its own words; any other is the last resort's
_FORESEEN = (ManifestError, ScalarError, FormError, PresentationError, MetricError,
             QuaternionError, hyperbolic.LatticeError, linear.LinearError)


def run_check(manifest: Manifest, only=None, seed=None) -> Report:
    """Execute the manifest's checks (Jacobi implicitly first) and report.

    ``only`` restricts to one check id (the Jacobi gate still runs);
    ``seed`` feeds the samplers (env HERMITIA_SEED, handled by the CLI,
    overrides the built-in default)."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    if seed < 0:
        raise ManifestError(f"seed: expected a non-negative integer, got {seed}")
    try:
        ctx = manifest.build()
    except (ScalarError, PresentationError, FormError) as e:
        raise ManifestError(f"manifest does not materialize: {e}") from e
    outcomes = []
    checks = list(manifest.checks)
    has_jacobi = any(c["kind"] == "jacobi" for c in checks)
    if not has_jacobi:
        checks.insert(0, {"id": "jacobi-gate", "kind": "jacobi"})
    else:
        checks.sort(key=lambda c: 0 if c["kind"] == "jacobi" else 1)
    if only is not None:
        wanted = [c for c in checks if c["id"] == only]
        if not wanted:
            raise ManifestError(f"no check with id {only!r}")
        checks = [c for c in checks if c["kind"] == "jacobi" and c["id"] != only] + wanted
    jacobi_ok = True
    for check in checks:
        handler = _HANDLERS[check["kind"]]
        check = {**_DEFAULTS[check["kind"]], **check}
        start = time.perf_counter()
        try:
            if jacobi_ok or check["kind"] == "jacobi":
                verdict, detail = handler(ctx, check, seed)
            else:
                reason = "skipped: the presentation fails the Jacobi gate"
                verdict, detail = "error", {"reason": reason}
        except _FORESEEN as e:
            verdict, detail = "error", {"reason": str(e)}
        except Exception as e:  # last resort: an unforeseen failure is never a pass
            verdict, detail = "error", {"reason": f"{type(e).__name__}: {e}"}
        elapsed = (time.perf_counter() - start) * 1000.0
        outcomes.append(CheckOutcome(
            check["id"], check["kind"], verdict, detail, check["informational"], elapsed
        ))
        if check["kind"] == "jacobi" and verdict != "pass":
            jacobi_ok = False
    return Report(manifest.name, seed, outcomes)
