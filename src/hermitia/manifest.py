"""Manifests: the on-disk description of an algebra, its attached structures
and the checks to run, plus the check orchestrator and machine readable
reports.

A manifest resolves names against its own declarations (symbols, basis,
endomorphisms, bilinears, forms); the Jacobi gate is implicitly the first
check.  Check kinds form a closed enumeration and unknown kinds are parse
errors.  Reports are deterministic: canonical scalar strings, floats printed
to 12 significant digits, sorted keys, and timing excluded on request.

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
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

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
from .complexops import AlmostComplexStructure, IntegrabilityError, weil_operator
from .metrics import HermitianCandidate, MetricError
from .quaternion import HKTCandidate, HypercomplexTriple, QuaternionError
from .scalars import ScalarError, Symbol, SymbolTable

SCHEMA = "hermitia-manifest/1"
REPORT_SCHEMA = "hermitia-report/1"
DEFAULT_SEED = 20240

CHECK_KINDS = frozenset(
    {
        "jacobi",
        "endomorphism_square",
        "integrable",
        "hermitian_candidate",
        "kahler",
        "balanced",
        "pluriclosed",
        "astheno",
        "k_pluriclosed",
        "lee_form",
        "bismut_torsion",
        "weil_torsion_identity",
        "gram_signature",
        "positivity_falsify",
        "strong_positivity_certificate",
        "hypercomplex",
        "pseudo_hyperkahler",
        "hkt",
        "quaternionic_balanced",
        "del_exact",
        "del_zero",
        "d_zero",
        "d_equals",
        "form_equals",
        "obstruction_pairing",
        "det_equals",
        "commute",
        "matrix_isometry",
        "char_poly_equals",
        "spectral_radius_in",
        "trace_zero",
        "top_coefficient_equals",
    }
)


class ManifestError(ValueError):
    pass


def _fmt_float(x):
    return float(f"{float(x):.12g}")


def _typed(value, kind, path):
    """``value`` if it is a JSON ``kind`` (dict or list); else a ManifestError
    naming the manifest path."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ManifestError(f"{path}: expected {expected}, got {type(value).__name__}")
    return value


class Manifest:
    """Validated manifest data; ``build`` materializes the presentation."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ManifestError("manifest must be a JSON object")
        unknown = set(data) - {
            "schema",
            "name",
            "comment",
            "symbols",
            "dimension",
            "basis",
            "differential",
            "endomorphisms",
            "bilinears",
            "forms",
            "valuations",
            "checks",
        }
        if unknown:
            raise ManifestError(f"unknown manifest fields: {sorted(unknown)}")
        self.name = data.get("name")
        if not isinstance(self.name, str) or not self.name:
            raise ManifestError("manifest needs a nonempty string name")
        self.comment = data.get("comment", "")
        self.symbols = list(_typed(data.get("symbols", []), list, "symbols"))
        self.dimension = data.get("dimension")
        if not isinstance(self.dimension, int) or self.dimension <= 0:
            raise ManifestError("dimension must be a positive integer")
        self.basis = list(_typed(data.get("basis", []), list, "basis"))
        if len(self.basis) != self.dimension:
            raise ManifestError("basis must list one name per dimension")
        self.differential = dict(_typed(data.get("differential", {}), dict, "differential"))
        self.endomorphisms = dict(_typed(data.get("endomorphisms", {}), dict, "endomorphisms"))
        self.bilinears = dict(_typed(data.get("bilinears", {}), dict, "bilinears"))
        self.forms = dict(_typed(data.get("forms", {}), dict, "forms"))
        self.valuations = dict(_typed(data.get("valuations", {}), dict, "valuations"))
        self.checks = list(_typed(data.get("checks", []), list, "checks"))
        for k, s in enumerate(self.symbols):
            _typed(s, dict, f"symbols[{k}]")
        for section, table in (("differential", self.differential), ("forms", self.forms)):
            for nm, terms in table.items():
                for k, t in enumerate(_typed(terms, list, f"{section}.{nm}")):
                    _typed(t, list, f"{section}.{nm}[{k}]")
                    if len(t) != 2:
                        raise ManifestError(
                            f"{section}.{nm}[{k}]: expected [coefficient, [indices]], got {t!r}"
                        )
                    _typed(t[1], list, f"{section}.{nm}[{k}][1]")
        for section, table in (("endomorphisms", self.endomorphisms), ("bilinears", self.bilinears)):
            for nm, rows in table.items():
                for k, row in enumerate(_typed(rows, list, f"{section}.{nm}")):
                    _typed(row, list, f"{section}.{nm}[{k}]")
        for nm, v in self.valuations.items():
            _typed(v, dict, f"valuations.{nm}")
        for k, c in enumerate(self.checks):
            _typed(c, dict, f"checks[{k}]")
        ids = [c.get("id") for c in self.checks]
        if any(not isinstance(i, str) or not i for i in ids):
            raise ManifestError("every check needs a string id")
        if len(set(ids)) != len(ids):
            raise ManifestError("check ids must be unique")
        for c in self.checks:
            kind = c.get("kind")
            if kind not in CHECK_KINDS:
                raise ManifestError(f"unknown check kind {kind!r} (check {c.get('id')!r})")

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ManifestError(f"malformed JSON at byte offset {e.pos}: {e.msg}") from None
        return cls(data)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "comment": self.comment,
            "symbols": self.symbols,
            "dimension": self.dimension,
            "basis": self.basis,
            "differential": self.differential,
            "endomorphisms": self.endomorphisms,
            "bilinears": self.bilinears,
            "forms": self.forms,
            "valuations": self.valuations,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def build(self) -> "BuildContext":
        symbols = []
        for s in self.symbols:
            rel = s.get("relation")
            relation = (rel["power"], rel["rhs"]) if rel else None
            symbols.append(
                Symbol(s["name"], relation=relation, sign_hint=s.get("sign_hint"))
            )
        table = SymbolTable(symbols)
        name_ok = set(self.basis)
        diff = {}
        for gen, terms in self.differential.items():
            if gen not in name_ok:
                raise ManifestError(f"differential refers to unknown generator {gen!r}")
            diff[self.basis.index(gen) + 1] = [
                (coeff, tuple(self.basis.index(nm) + 1 for nm in idx))
                for coeff, idx in (self._term(t) for t in terms)
            ]
        pres = LieAlgebraPresentation(
            self.dimension, diff, names=self.basis, table=table
        )
        for nm, rows in self.endomorphisms.items():
            pres.endomorphisms[nm] = pres._as_matrix(rows)
        for nm, rows in self.bilinears.items():
            pres.bilinears[nm] = pres._as_matrix(rows)
        for nm, terms in self.forms.items():
            pres.forms[nm] = pres.form([self._term(t) for t in terms])
        return BuildContext(self, pres)

    def _term(self, t):
        if not isinstance(t, (list, tuple)) or len(t) != 2:
            raise ManifestError(f"form terms are [coefficient, [indices]]: got {t!r}")
        coeff, idx = t
        for nm in idx:
            if nm not in self.basis:
                raise ManifestError(f"unknown generator {nm!r} in a form term")
        return coeff, tuple(idx)


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

    def acs(self, name) -> AlmostComplexStructure:
        if name not in self._acs:
            mat = self.presentation.endomorphisms.get(name)
            if mat is None:
                raise ManifestError(f"unknown endomorphism {name!r}")
            self._acs[name] = AlmostComplexStructure(self.presentation, mat, name=name)
        return self._acs[name]

    def candidate(self, omega_name, endo_name) -> HermitianCandidate:
        key = (omega_name, endo_name)
        if key not in self._candidates:
            omega = self.presentation.forms.get(omega_name)
            if omega is None:
                raise ManifestError(f"unknown form {omega_name!r}")
            self._candidates[key] = HermitianCandidate(self.acs(endo_name), omega)
        return self._candidates[key]

    def triple(self, i_name, j_name, k_name) -> HypercomplexTriple:
        key = (i_name, j_name, k_name)
        if key not in self._triples:
            self._triples[key] = HypercomplexTriple(
                self.acs(i_name), self.acs(j_name), self.acs(k_name)
            )
        return self._triples[key]

    def valuation(self, name="default"):
        v = self.manifest.valuations.get(name)
        return dict(v) if v else None

    def rational_endo(self, name):
        mat = self.presentation.endomorphisms.get(name)
        if mat is None:
            raise ManifestError(f"unknown endomorphism {name!r}")
        rows = []
        for row in mat:
            out = []
            for x in row:
                if not x.is_rational():
                    raise ManifestError(
                        f"endomorphism {name!r} must be rational for this check"
                    )
                out.append(x.as_rational())
            rows.append(out)
        return rows

    # -- form spec resolution ------------------------------------------------

    def resolve_form(self, spec) -> Form:
        if isinstance(spec, str):
            spec = {"name": spec}
        if not isinstance(spec, dict):
            raise ManifestError(f"bad form specification: {spec!r}")
        keys = set(spec) & {"name", "terms", "eta_terms", "d_of", "wedge", "power", "combo"}
        if len(keys) != 1:
            raise ManifestError(f"a form spec needs exactly one constructor key: {spec!r}")
        (kind,) = keys
        if kind == "name":
            f = self.presentation.forms.get(spec["name"])
            if f is None:
                raise ManifestError(f"unknown form {spec['name']!r}")
            return f
        if kind == "terms":
            return self.presentation.form(
                [self.manifest._term(t) for t in spec["terms"]]
            )
        if kind == "eta_terms":
            endo = spec.get("endo")
            if endo is None:
                raise ManifestError("eta_terms specs need an 'endo' field")
            model = self.acs(endo).model()
            out = Form.zero(self.presentation)
            for entry in spec["eta_terms"]:
                if len(entry) == 2:
                    coeff, holo = entry
                    anti = []
                else:
                    coeff, holo, anti = entry
                c = self.table.parse(coeff) if isinstance(coeff, str) else self.table.scalar(coeff)
                out = out + c * model.to_real(model.eta_monomial(tuple(holo), tuple(anti)))
            return out
        if kind == "d_of":
            return self.presentation.d(self.resolve_form(spec["d_of"]))
        if kind == "wedge":
            return wedge_all([self.resolve_form(s) for s in spec["wedge"]])
        if kind == "power":
            return wedge_power(self.resolve_form(spec["base"]), int(spec["power"]))
        if kind == "combo":
            out = Form.zero(self.presentation)
            for coeff, sub in spec["combo"]:
                c = self.table.parse(coeff) if isinstance(coeff, str) else self.table.scalar(coeff)
                out = out + c * self.resolve_form(sub)
            return out
        raise ManifestError(f"unhandled form spec {spec!r}")


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
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True) + "\n"

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
    return [[str(c), [f.presentation.names[k - 1] for k in idx]] for idx, c in f.sorted_terms()]


def serialize_matrix(m):
    return [[str(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# check handlers
# ---------------------------------------------------------------------------


def _expect_bool(check, default=True):
    v = check.get("expect", default)
    if not isinstance(v, bool):
        raise ManifestError(f"check {check.get('id')!r}: 'expect' must be a boolean")
    return v


def _verdict(ok):
    return "pass" if ok else "fail"


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


def _h_endomorphism_square(ctx, check, seed):
    name = check["endo"]
    try:
        ctx.acs(name)
    except IntegrabilityError as e:
        return "fail", {"reason": str(e)}
    return "pass", {}


def _h_integrable(ctx, check, seed):
    rep = ctx.acs(check["endo"]).nijenhuis_vanishes()
    expect = _expect_bool(check)
    detail = {}
    if not rep.passed:
        a, b, vec = rep.witnesses[0]
        detail = {
            "witness_pair": [ctx.presentation.names[a - 1], ctx.presentation.names[b - 1]],
            "value": [str(c) for c in vec],
        }
    return _verdict(rep.passed == expect), detail


def _h_hermitian_candidate(ctx, check, seed):
    try:
        ctx.candidate(check["omega"], check["endo"])
    except MetricError as e:
        return "fail", {"reason": str(e)}
    return "pass", {}


def _metric_predicate(predicate):
    def handler(ctx, check, seed):
        cand = ctx.candidate(check["omega"], check["endo"])
        if predicate == "k_pluriclosed":
            rep = metrics.is_k_pluriclosed(cand, int(check["k"]))
        else:
            rep = getattr(metrics, f"is_{predicate}")(cand)
        expect = _expect_bool(check)
        detail = {}
        if rep.residual is not None and rep.passed != expect:
            detail["residual"] = serialize_form(rep.residual)
        return _verdict(rep.passed == expect), detail

    return handler


def _h_lee_form(ctx, check, seed):
    cand = ctx.candidate(check["omega"], check["endo"])
    sol = metrics.lee_form(cand)
    expect = check.get("expect", "any")
    if expect not in ("none", "zero", "any"):
        raise ManifestError("lee_form expect must be 'none', 'zero' or 'any'")
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


def _h_bismut_torsion(ctx, check, seed):
    cand = ctx.candidate(check["omega"], check["endo"])
    t, dt = metrics.bismut_torsion(cand)
    ok = True
    detail = {"torsion": serialize_form(t), "d_torsion_zero": dt.is_zero()}
    if check.get("expect_closed", True) and not dt.is_zero():
        ok = False
        detail["d_torsion"] = serialize_form(dt)
    if "expect_form" in check:
        target = ctx.resolve_form({"terms": check["expect_form"]})
        if check.get("up_to_sign", False):
            match = (t - target).is_zero() or (t + target).is_zero()
            detail["sign"] = (
                "+" if (t - target).is_zero() else "-" if (t + target).is_zero() else None
            )
        else:
            match = (t - target).is_zero()
        ok = ok and match
    return _verdict(ok), detail


def _h_weil_torsion_identity(ctx, check, seed):
    cand = ctx.candidate(check["omega"], check["endo"])
    J = cand.J
    t, _dt = metrics.bismut_torsion(cand)
    via_weil = weil_operator(ctx.presentation.d(weil_operator(cand.omega, J)), J)
    via_weil_short = weil_operator(ctx.presentation.d(cand.omega), J)
    ok = (t - via_weil).is_zero() and (via_weil - via_weil_short).is_zero()
    return _verdict(ok), {}


def _h_gram_signature(ctx, check, seed):
    if "bilinear" in check:
        mat = ctx.presentation.bilinears.get(check["bilinear"])
        if mat is None:
            raise ManifestError(f"unknown bilinear {check['bilinear']!r}")
        res = metrics.gram_and_signature(mat, ctx.valuation(check.get("valuation", "default")), table=ctx.table)
    else:
        cand = ctx.candidate(check["omega"], check["endo"])
        res = metrics.gram_and_signature(cand, ctx.valuation(check.get("valuation", "default")))
    detail = {
        "signature": list(res.signature),
        "exact": res.exact,
        "degenerate": res.degenerate,
        "gram": serialize_matrix(res.matrix),
    }
    if "expect" in check:
        return _verdict(list(res.signature) == list(check["expect"])), detail
    return "pass", detail


def _h_positivity_falsify(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    J = ctx.acs(check["endo"])
    samples = int(check.get("samples", 10000))
    verdict = metrics.positivity_falsify(
        form,
        J,
        samples=samples,
        seed=int(check.get("seed", seed)),
        valuation=ctx.valuation(check.get("valuation", "default")),
    )
    detail = {"status": verdict.status, "samples": verdict.samples}
    if verdict.violated:
        detail["value"] = _fmt_float(verdict.value)
        detail["witness"] = [
            [[_fmt_float(z.real), _fmt_float(z.imag)] for z in v] for v in verdict.witness
        ]
    expect = check.get("expect", "no_violation")
    if expect not in ("violation", "no_violation"):
        raise ManifestError("positivity_falsify expect must be 'violation' or 'no_violation'")
    if verdict.status == expect:
        if expect == "no_violation":
            detail["note"] = "sampling evidence only; positivity is not certified"
        return "pass", detail
    return "fail", detail


def _h_strong_positivity_certificate(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    J = ctx.acs(check["endo"])
    model = J.model()
    decomposition = []
    for coeff, tuple_spec in check["decomposition"]:
        xs = []
        for xi in tuple_spec:
            if isinstance(xi, int):
                xs.append(model.eta(xi))
            else:
                xs.append(ctx.resolve_form(xi))
        decomposition.append((coeff, tuple(xs)))
    rep = metrics.strong_positivity_certificate(
        form, J, decomposition, valuation=ctx.valuation(check.get("valuation", "default"))
    )
    detail = dict(rep.notes)
    if rep.residual is not None:
        detail["residual"] = serialize_form(rep.residual)
    return _verdict(rep.valid), detail


def _h_hypercomplex(ctx, check, seed):
    rep = quaternion.check_hypercomplex(ctx.triple(check["I"], check["J"], check["K"]))
    detail = {"subchecks": [[c.name, c.passed] for c in rep.checks]}
    return _verdict(rep.passed), detail


def _h_pseudo_hyperkahler(ctx, check, seed):
    t = ctx.triple(check["I"], check["J"], check["K"])
    rep = quaternion.check_pseudo_hyperkahler(
        t,
        ctx.resolve_form(check["omega_I"]),
        ctx.resolve_form(check["omega_J"]),
        ctx.resolve_form(check["omega_K"]),
    )
    detail = {"subchecks": [[c.name, c.passed] for c in rep.checks]}
    return _verdict(rep.passed), detail


def _hkt_candidate(ctx, check):
    t = ctx.triple(check["I"], check["J"], check["K"])
    return HKTCandidate(t, ctx.resolve_form(check["omega20"]))


def _h_hkt(ctx, check, seed):
    cand = _hkt_candidate(ctx, check)
    rep = quaternion.check_hkt(cand, valuation=ctx.valuation(check.get("valuation", "default")))
    expect = _expect_bool(check)
    detail = {"subchecks": [[c.name, c.passed, c.detail] for c in rep.checks]}
    return _verdict(rep.passed == expect), detail


def _h_quaternionic_balanced(ctx, check, seed):
    cand = _hkt_candidate(ctx, check)
    rep = quaternion.check_quaternionic_balanced(cand)
    expect = _expect_bool(check)
    detail = {"subchecks": [[c.name, c.passed, c.detail] for c in rep.checks]}
    return _verdict(rep.passed == expect), detail


def _h_del_exact(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    J = ctx.acs(check["endo"])
    rep = quaternion.del_primitive(form, J)
    expect = _expect_bool(check)
    detail = {}
    if rep.exists and rep.primitive is not None:
        detail["primitive"] = serialize_form(rep.primitive)
    return _verdict(rep.exists == expect), detail


def _h_del_zero(ctx, check, seed):
    from .complexops import del_

    form = ctx.resolve_form(check["form"])
    res = del_(form, ctx.acs(check["endo"]))
    expect = _expect_bool(check)
    detail = {}
    if not res.is_zero() and expect:
        detail["residual"] = serialize_form(res)
    return _verdict(res.is_zero() == expect), detail


def _h_d_zero(ctx, check, seed):
    form = ctx.resolve_form(check["form"])
    res = ctx.presentation.d(form)
    expect = _expect_bool(check)
    detail = {}
    if not res.is_zero() and expect:
        detail["residual"] = serialize_form(res)
    return _verdict(res.is_zero() == expect), detail


def _h_d_equals(ctx, check, seed):
    lhs = ctx.presentation.d(ctx.resolve_form(check["form"]))
    rhs = ctx.resolve_form(check["equals"])
    diff = lhs - rhs
    detail = {} if diff.is_zero() else {"difference": serialize_form(diff)}
    return _verdict(diff.is_zero()), detail


def _h_form_equals(ctx, check, seed):
    lhs = ctx.resolve_form(check["lhs"])
    rhs = ctx.resolve_form(check["rhs"])
    diff = lhs - rhs
    detail = {} if diff.is_zero() else {"difference": serialize_form(diff)}
    return _verdict(diff.is_zero()), detail


def _h_obstruction_pairing(ctx, check, seed):
    t = ctx.triple(check["I"], check["J"], check["K"])
    alpha = ctx.resolve_form(check["alpha"])
    model = t.I.model()
    beta = model.to_real(model.eta_monomial(tuple(check["beta_etas"])))
    value = quaternion.hkt_obstruction(t, alpha, beta, check["matrix"])
    expect = ctx.table.parse(check["expect"])
    detail = {"pairing": str(value)}
    return _verdict((value - expect).is_zero()), detail


def _h_det_equals(ctx, check, seed):
    mat = ctx.presentation.endomorphisms.get(check["endo"])
    if mat is None:
        raise ManifestError(f"unknown endomorphism {check['endo']!r}")
    value = linear.det(mat, ctx.table)
    expect = ctx.table.parse(str(check["expect"]))
    return _verdict((value - expect).is_zero()), {"det": str(value)}


def _h_commute(ctx, check, seed):
    names = check["endos"]
    mats = []
    for nm in names:
        m = ctx.presentation.endomorphisms.get(nm)
        if m is None:
            raise ManifestError(f"unknown endomorphism {nm!r}")
        mats.append(m)
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


def _h_matrix_isometry(ctx, check, seed):
    mat = ctx.presentation.endomorphisms.get(check["endo"])
    gram = ctx.presentation.bilinears.get(check["bilinear"])
    if mat is None or gram is None:
        raise ManifestError("matrix_isometry needs an endomorphism and a bilinear")
    lhs = linear.mat_mul(linear.mat_mul(linear.transpose(mat), gram, ctx.table), mat, ctx.table)
    res = linear.mat_sub(lhs, gram)
    ok = linear.is_zero_matrix(res)
    detail = {} if ok else {"residual": serialize_matrix(res)}
    return _verdict(ok), detail


def _h_char_poly_equals(ctx, check, seed):
    rows = ctx.rational_endo(check["endo"])
    cp = hyperbolic.char_poly(rows)
    expect = [Fraction(str(c)) for c in check["expect"]]
    ok = cp == expect
    return _verdict(ok), {"char_poly_ascending": [str(c) for c in cp]}


def _h_spectral_radius_in(ctx, check, seed):
    rows = ctx.rational_endo(check["endo"])
    lo_t, hi_t = (Fraction(str(x)) for x in check["interval"])
    lo, hi = hyperbolic.spectral_radius_interval(rows)
    ok = lo_t < lo and hi < hi_t
    return _verdict(ok), {
        "certified_interval": [f"{float(lo):.12g}", f"{float(hi):.12g}"],
        "target_interval": [str(x) for x in check["interval"]],
    }


def _h_trace_zero(ctx, check, seed):
    mat = ctx.presentation.endomorphisms.get(check["endo"])
    if mat is None:
        raise ManifestError(f"unknown endomorphism {check['endo']!r}")
    tr = ctx.table.zero
    for k in range(len(mat)):
        tr = tr + mat[k][k]
    return _verdict(tr.is_zero()), {"trace": str(tr)}


def _h_top_coefficient_equals(ctx, check, seed):
    a = ctx.resolve_form(check["form"])
    vol = ctx.resolve_form(check["volume"])
    value = top_coefficient(a, vol)
    expect = ctx.table.parse(str(check["expect"]))
    return _verdict((value - expect).is_zero()), {"coefficient": str(value)}


_HANDLERS = {
    "jacobi": _h_jacobi,
    "endomorphism_square": _h_endomorphism_square,
    "integrable": _h_integrable,
    "hermitian_candidate": _h_hermitian_candidate,
    "kahler": _metric_predicate("kahler"),
    "balanced": _metric_predicate("balanced"),
    "pluriclosed": _metric_predicate("pluriclosed"),
    "astheno": _metric_predicate("astheno"),
    "k_pluriclosed": _metric_predicate("k_pluriclosed"),
    "lee_form": _h_lee_form,
    "bismut_torsion": _h_bismut_torsion,
    "weil_torsion_identity": _h_weil_torsion_identity,
    "gram_signature": _h_gram_signature,
    "positivity_falsify": _h_positivity_falsify,
    "strong_positivity_certificate": _h_strong_positivity_certificate,
    "hypercomplex": _h_hypercomplex,
    "pseudo_hyperkahler": _h_pseudo_hyperkahler,
    "hkt": _h_hkt,
    "quaternionic_balanced": _h_quaternionic_balanced,
    "del_exact": _h_del_exact,
    "del_zero": _h_del_zero,
    "d_zero": _h_d_zero,
    "d_equals": _h_d_equals,
    "form_equals": _h_form_equals,
    "obstruction_pairing": _h_obstruction_pairing,
    "det_equals": _h_det_equals,
    "commute": _h_commute,
    "matrix_isometry": _h_matrix_isometry,
    "char_poly_equals": _h_char_poly_equals,
    "spectral_radius_in": _h_spectral_radius_in,
    "trace_zero": _h_trace_zero,
    "top_coefficient_equals": _h_top_coefficient_equals,
}

if set(_HANDLERS) != CHECK_KINDS:
    raise RuntimeError(
        f"check kinds and handlers differ: {sorted(set(_HANDLERS) ^ CHECK_KINDS)}"
    )


def run_check(manifest: Manifest, only=None, seed=None) -> Report:
    """Execute the manifest's checks (Jacobi implicitly first) and report.

    ``only`` restricts to one check id (the Jacobi gate still runs);
    ``seed`` feeds the samplers (env HERMITIA_SEED, handled by the CLI,
    overrides the built-in default)."""
    seed = DEFAULT_SEED if seed is None else int(seed)
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
        start = time.perf_counter()
        informational = bool(check.get("informational", False))
        if not jacobi_ok and check["kind"] != "jacobi":
            outcomes.append(
                CheckOutcome(
                    check["id"],
                    check["kind"],
                    "error",
                    {"reason": "skipped: the presentation fails the Jacobi gate"},
                    informational,
                    (time.perf_counter() - start) * 1000.0,
                )
            )
            continue
        try:
            verdict, detail = handler(ctx, check, seed)
        except (
            ManifestError,
            ScalarError,
            FormError,
            PresentationError,
            MetricError,
            QuaternionError,
            hyperbolic.LatticeError,
            linear.LinearError,
        ) as e:
            verdict, detail = "error", {"reason": str(e)}
        except Exception as e:  # last resort: an unforeseen failure is never a pass
            verdict, detail = "error", {"reason": f"{type(e).__name__}: {e}"}
        elapsed = (time.perf_counter() - start) * 1000.0
        outcomes.append(
            CheckOutcome(check["id"], check["kind"], verdict, detail, informational, elapsed)
        )
        if check["kind"] == "jacobi" and verdict != "pass":
            jacobi_ok = False
    return Report(manifest.name, seed, outcomes)
