"""Spans around hermitia's layers, recorded from outside the package.

Each layer function is replaced by a wrapper at every name that binds it:
the defining module, every hermitia module that imported it by name, the
package namespace and dispatch tables.  A wrapper records a span (name,
start, end, parent span, request id); spans stay in memory until the run
writes them out.  Self time is a span's duration minus its child spans.

Scalar arithmetic is called millions of times, so its spans are counted and
timed but not stored, and their self time includes the wrapper's own cost:
read ``scalars.*`` times as traced times, not as what the code costs untraced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

ALL = ("builtins", "hermitian_rational", "lattices")
HERMITIAN = ("hermitian_rational",)
MANIFEST = ("builtins", "hermitian_rational")

# Span name -> the (module, attribute) it wraps.  Module-level functions are
# wrapped at every binding site; "Class.method" names are wrapped on the class.
SPANS = {
    "manifest.parse": [("manifest", "Manifest.from_json")],
    "manifest.build": [("manifest", "Manifest.build")],
    "manifest.run_check": [("manifest", "run_check")],
    "manifest.jacobi": [("manifest", "_HANDLERS[jacobi]")],
    "manifest.report": [("manifest", "Report.to_json")],
    "cealg.wedge": [("cealg", "wedge")],
    "cealg.d": [("cealg", "LieAlgebraPresentation.d")],
    "complexops.model": [("complexops", "AlmostComplexStructure.model")],
    "complexops.to_complex": [("complexops", "ComplexModel.to_complex")],
    "complexops.to_real": [("complexops", "ComplexModel.to_real")],
    "complexops.del_delbar": [("complexops", f) for f in ("del_", "delbar", "dc")],
    # The "other" spans keep each layer's remaining work out of its caller's
    # self time (manifest.run_check.self_s above all).
    "complexops.other": [("complexops", f) for f in (
        "bidegree", "weil_operator", "fundamental_form",
        "AlmostComplexStructure.__init__", "AlmostComplexStructure.nijenhuis_vanishes")],
    "metrics.kahler": [("metrics", "is_kahler")],
    "metrics.balanced": [("metrics", "is_balanced")],
    "metrics.pluriclosed": [("metrics", "is_pluriclosed")],
    "metrics.astheno": [("metrics", "is_astheno")],
    "metrics.k_pluriclosed": [("metrics", "is_k_pluriclosed")],
    "metrics.other": [
        ("metrics", f)
        for f in ("lee_form", "bismut_torsion", "gram_and_signature", "positivity_falsify",
                  "strong_positivity_certificate")
    ],
    "quaternion.check_hypercomplex": [("quaternion", "check_hypercomplex")],
    "quaternion.hkt_obstruction": [("quaternion", "hkt_obstruction")],
    "quaternion.other": [
        ("quaternion", f)
        for f in ("check_pseudo_hyperkahler", "check_hkt", "check_quaternionic_balanced",
                  "del_primitive", "HypercomplexTriple.__init__", "HKTCandidate.__init__")
    ],
    "linear.solve": [("linear", "solve")],
    "linear.invert": [("linear", "invert")],
    "linear.other": [("linear", f) for f in ("det", "rank", "hermitian_signature", "mat_mul")],
    "hyperbolic.classify": [
        ("hyperbolic", "classify"), ("hyperbolic", "QuadraticLattice.__init__")],
    "hyperbolic.char_poly": [("hyperbolic", "char_poly")],
    "hyperbolic.roots": [
        ("hyperbolic", f)
        for f in ("real_roots_outside_unit", "isolate_real_roots", "refine_interval", "sturm_chain")
    ],
    "hyperbolic.factor": [("hyperbolic", "_min_poly_factor_for_interval")],
    "hyperbolic.eigenvector": [
        ("hyperbolic", f)
        for f in ("_eigenvector_int_kernel", "_eigenvector_quadratic", "_numeric_eigenvector")
    ],
    "hyperbolic.power": [("hyperbolic", "power_iterate")],
    "hyperbolic.other": [
        ("hyperbolic", f)
        for f in ("verify_isometry", "squarefree_part", "poly_eval_matrix", "kernel_basis",
                  "spectral_radius_interval")
    ],
}

# Scalar arithmetic: subtraction, reflected division and powers dispatch to
# the wrapped methods below, so they are counted there.
SCALAR_OPS = {
    "__add__": "scalars.add",
    "__radd__": "scalars.add",
    "__mul__": "scalars.mul",
    "__rmul__": "scalars.mul",
    "__truediv__": "scalars.div",
}


def _self(span):
    return lambda s: s["self"][span] / s["requests"]


def _calls(span):
    return lambda s: s["calls"][span] / s["requests"]


def _wall(span):
    return lambda s: s["wall"][span] / s["requests"]


def _layer_self(prefix):
    return lambda s: sum(v for k, v in s["self"].items() if k.startswith(prefix)) / s["requests"]


def _ratio(num, den):
    return lambda s: s[num] / s[den] if s[den] else 0.0


class Layer(NamedTuple):
    """How one per-layer metric is derived and where its spans must fire.
    BENCHMARK.json's per_layer list gives each metric's name, unit and
    direction; this is what it cannot hold."""

    moves: str  # the end-to-end metric it should move
    fires_on: tuple  # workloads where its spans must fire
    bypassed_by: tuple  # workloads that must not reach them
    spans: tuple  # the spans it reads
    derive: Callable  # stats -> value; times and counts are per request


LAYERS = {
    "import.hermitia_s": Layer("setup_s", ALL, (), (), lambda s: s["import"]["hermitia"]),
    "import.sympy_s": Layer("setup_s", ALL, (), (), lambda s: s["import"]["sympy"]),
    "import.numpy_s": Layer("setup_s", ALL, (), (), lambda s: s["import"]["numpy"]),
    "manifest.parse_s": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("manifest.parse",), _self("manifest.parse")),
    "manifest.build_s": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("manifest.build",), _self("manifest.build")),
    "manifest.jacobi_s": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("manifest.jacobi",), _self("manifest.jacobi")),
    "manifest.run_check.self_s": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("manifest.run_check",), _self("manifest.run_check")),
    "manifest.report_s": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("manifest.report",), _self("manifest.report")),
    "manifest.error_verdicts": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("manifest.run_check",), lambda s: s["error_verdicts"] / s["requests"]),
    "scalars.mul.calls": Layer("throughput_per_s", HERMITIAN, ("lattices",),
        ("scalars.mul",), _calls("scalars.mul")),
    "scalars.add.calls": Layer("throughput_per_s", HERMITIAN, ("lattices",),
        ("scalars.add",), _calls("scalars.add")),
    "scalars.div.calls": Layer("throughput_per_s", HERMITIAN, ("lattices",),
        ("scalars.div",), _calls("scalars.div")),
    "scalars.self_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("scalars.mul", "scalars.add"), _layer_self("scalars.")),
    "cealg.wedge.calls": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("cealg.wedge",), _calls("cealg.wedge")),
    "cealg.wedge.self_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("cealg.wedge",), _self("cealg.wedge")),
    "cealg.d.calls": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("cealg.d",), _calls("cealg.d")),
    "cealg.d.self_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("cealg.d",), _self("cealg.d")),
    "cealg.max_terms": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("cealg.wedge", "cealg.d"), lambda s: s["max_terms"]["cealg"]),
    "complexops.model.calls": Layer("throughput_per_s", MANIFEST, ("lattices",),
        ("complexops.model",), _calls("complexops.model")),
    "complexops.model.self_s": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("complexops.model",), _self("complexops.model")),
    "complexops.model_cache_hit_ratio": Layer("latency_p50_ms", MANIFEST,
        ("lattices",), ("complexops.model",), _ratio("model_hits", "model_calls")),
    "complexops.to_complex.calls": Layer("throughput_per_s", MANIFEST, ("lattices",),
        ("complexops.to_complex",), _calls("complexops.to_complex")),
    "complexops.to_complex.self_s": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("complexops.to_complex",), _self("complexops.to_complex")),
    "complexops.to_real.calls": Layer("throughput_per_s", MANIFEST, ("lattices",),
        ("complexops.to_real",), _calls("complexops.to_real")),
    "complexops.to_real.self_s": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("complexops.to_real",), _self("complexops.to_real")),
    "complexops.del_delbar.calls": Layer("throughput_per_s", MANIFEST, ("lattices",),
        ("complexops.del_delbar",), _calls("complexops.del_delbar")),
    "complexops.del_delbar.self_s": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("complexops.del_delbar",), _self("complexops.del_delbar")),
    "complexops.max_terms": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("complexops.to_complex", "complexops.to_real"), lambda s: s["max_terms"]["complexops"]),
    "metrics.kahler.wall_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("metrics.kahler",), _wall("metrics.kahler")),
    "metrics.balanced.wall_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("metrics.balanced",), _wall("metrics.balanced")),
    "metrics.pluriclosed.wall_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("metrics.pluriclosed",), _wall("metrics.pluriclosed")),
    "metrics.astheno.wall_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("metrics.astheno",), _wall("metrics.astheno")),
    "metrics.k_pluriclosed.wall_s": Layer("latency_p50_ms", HERMITIAN, ("lattices",),
        ("metrics.k_pluriclosed",), _wall("metrics.k_pluriclosed")),
    "quaternion.self_s": Layer("latency_p50_ms", ("builtins",), HERMITIAN + ("lattices",),
        ("quaternion.check_hypercomplex", "quaternion.hkt_obstruction", "quaternion.other"),
        _layer_self("quaternion.")),
    "quaternion.check_hypercomplex.wall_s": Layer("latency_p50_ms", ("builtins",),
        HERMITIAN + ("lattices",), ("quaternion.check_hypercomplex",),
        _wall("quaternion.check_hypercomplex")),
    "quaternion.hkt_obstruction.wall_s": Layer("latency_p50_ms", ("builtins",),
        HERMITIAN + ("lattices",), ("quaternion.hkt_obstruction",),
        _wall("quaternion.hkt_obstruction")),
    "linear.solve.calls": Layer("latency_p50_ms", ("builtins",), ("lattices",),
        ("linear.solve",), _calls("linear.solve")),
    "linear.invert.calls": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("linear.invert",), _calls("linear.invert")),
    "linear.self_s": Layer("latency_p50_ms", MANIFEST, ("lattices",),
        ("linear.solve", "linear.invert", "linear.other"), _layer_self("linear.")),
    "hyperbolic.char_poly.calls": Layer("latency_p50_ms", ("lattices", "builtins"),
        HERMITIAN, ("hyperbolic.char_poly",), _calls("hyperbolic.char_poly")),
    "hyperbolic.char_poly.self_s": Layer("latency_p50_ms", ("lattices", "builtins"),
        HERMITIAN, ("hyperbolic.char_poly",), _self("hyperbolic.char_poly")),
    "hyperbolic.roots.self_s": Layer("latency_p50_ms", ("lattices", "builtins"),
        HERMITIAN, ("hyperbolic.roots",), _self("hyperbolic.roots")),
    "hyperbolic.factor.self_s": Layer("latency_p50_ms", ("lattices",), HERMITIAN,
        ("hyperbolic.factor",), _self("hyperbolic.factor")),
    "hyperbolic.eigenvector.self_s": Layer("latency_p50_ms", ("lattices",), HERMITIAN,
        ("hyperbolic.eigenvector",), _self("hyperbolic.eigenvector")),
    "hyperbolic.power.self_s": Layer("latency_p50_ms", ("lattices",), HERMITIAN,
        ("hyperbolic.power",), _self("hyperbolic.power")),
    "hyperbolic.self_s": Layer("latency_p50_ms", ("lattices", "builtins"), HERMITIAN,
        ("hyperbolic.classify", "hyperbolic.char_poly"), _layer_self("hyperbolic.")),
    "trace.overhead_ratio": Layer("latency_p50_ms", ALL, (), (),
        lambda s: s["traced_wall"] / s["untraced_wall"]),
    "trace.unattributed_share": Layer("latency_p50_ms", ALL, (), (),
        lambda s: s["self"]["request"] / s["wall"]["request"]),
}


class Tracer:
    """Installs the wrappers, records spans and derives the per-layer stats."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.wall = defaultdict(float)
        self.max_terms = {"cealg": 0, "complexops": 0}
        self.model_calls = 0
        self.model_hits = 0
        self.error_verdicts = 0
        self.request = None
        self._restore = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        sid, name, child, start = frame
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self.wall[name] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((sid, parent[0] if parent else None, name, start, end, self.request))

    def span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def leaf(self, name, fn):
        """A counted, unrecorded span for scalar arithmetic."""
        stack, calls, self_time = self.stack, self.calls, self.self_time
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            frame = [0, name, 0.0, start]
            stack.append(frame)
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                stack.pop()
                calls[name] += 1
                self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def begin_request(self, ident):
        self.request = ident
        return self._enter("request")

    def end_request(self, frame):
        self._exit(frame)
        self.request = None

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _after(self, name):
        if name in ("cealg.wedge", "cealg.d"):
            def note(result):
                self.max_terms["cealg"] = max(self.max_terms["cealg"], len(result.terms))
            return note
        if name in ("complexops.to_complex", "complexops.to_real"):
            def note(result):
                self.max_terms["complexops"] = max(self.max_terms["complexops"], len(result.terms))
            return note
        if name == "manifest.run_check":
            def note(result):
                self.error_verdicts += sum(o.verdict == "error" for o in result.outcomes)
            return note
        return None

    def install(self, hermitia):
        modules = [m for k, m in sys.modules.items()
                   if k == "hermitia" or k.startswith("hermitia.")]
        for name, targets in SPANS.items():
            for modname, attr in targets:
                module = sys.modules[f"hermitia.{modname}"]
                after = self._after(name)
                if attr.startswith("_HANDLERS["):
                    key = attr[len("_HANDLERS["):-1]
                    table = module._HANDLERS
                    self._set(table, key, self.span(name, table[key], after))
                elif "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(self.span(name, raw.__func__, after)))
                    elif name == "complexops.model":
                        self._set(cls, meth, self._model_span(raw))
                    else:
                        self._set(cls, meth, self.span(name, raw, after))
                else:
                    original = getattr(module, attr)
                    wrapped = self.span(name, original, after)
                    for site in modules:
                        for key, value in list(vars(site).items()):
                            if value is original:
                                self._set(site, key, wrapped)
        scalar_cls = hermitia.Scalar
        for meth, name in SCALAR_OPS.items():
            self._set(scalar_cls, meth, self.leaf(name, scalar_cls.__dict__[meth]))

    def _model_span(self, raw):
        inner = self.span("complexops.model", raw)

        def model(acs):
            self.model_calls += 1
            if acs._model is not None:
                self.model_hits += 1
            return inner(acs)

        return model

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def stats(self, requests, untraced_wall, traced_wall, imports):
        return {
            "requests": requests,
            "calls": self.calls,
            "self": self.self_time,
            "wall": self.wall,
            "max_terms": self.max_terms,
            "model_calls": self.model_calls,
            "model_hits": self.model_hits,
            "error_verdicts": self.error_verdicts,
            "untraced_wall": untraced_wall,
            "traced_wall": traced_wall,
            "import": imports,
        }

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "request": request}) + "\n")


def layer_metrics(per_layer, stats):
    """{name: (value, unit)} for BENCHMARK.json's per_layer list."""
    return {m["name"]: (LAYERS[m["name"]].derive(stats), m["unit"]) for m in per_layer}


def spec_problems(per_layer):
    """Names in BENCHMARK.json's per_layer list that have no derivation here,
    and derivations that BENCHMARK.json does not list."""
    named = [m["name"] for m in per_layer]
    return ([f"{n}: listed in BENCHMARK.json but not derived" for n in named if n not in LAYERS]
            + [f"{n}: derived but not listed in BENCHMARK.json" for n in LAYERS if n not in named])


def coverage_problems(workload, stats):
    """Spans the mapping says must fire on this workload but did not, and
    spans that fired on a workload that should bypass them."""
    problems = []
    for name, layer in LAYERS.items():
        fired = sum(stats["calls"][s] for s in layer.spans)
        if workload in layer.fires_on and layer.spans and not fired:
            problems.append(f"{name}: no span of {list(layer.spans)} fired on {workload}")
        if workload in layer.fires_on and not layer.spans and not layer.derive(stats) > 0:
            problems.append(f"{name}: no measurement on {workload}")
        if workload in layer.bypassed_by and fired:
            problems.append(
                f"{name}: {list(layer.spans)} fired on {workload}, which should bypass it")
    return problems
