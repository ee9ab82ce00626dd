"""The three workloads: their seeded input cycles, one request each, and the
check of every answer against an expectation that does not come from hermitia.

A workload's inputs come in cycles, one input per shape of its grid.  A run
sends whole cycles, so every run sees the same mix of shapes and only the
seeded content changes.
``cycle_seconds`` is one cycle's duration at the commit that added the
benchmark, at the reference host speed of run.py; it only sets how many cycles
a run of --seconds measures.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

import gen
import oracle

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
BUILTIN_ORDER = ("AT4", "fp_solv8", "pseudoHK12", "lemma61")

# Shear-template grid of the Hermitian workload: Kahler block dimension k
# (the algebra has dimension k + 4) by number of shears.  Shear positions come
# from a fixed template seed, so every run draws from the same shapes; the run
# seed draws the shear signs.  Random positions make one request's cost vary
# tenfold with the seed, which no run-length could average out.  With three
# shears at k=8 the heaviest shape takes about half of a cycle and is sent
# often enough that the tail percentile falls inside its samples.
HERMITIAN_KS = (4, 6, 8)
HERMITIAN_SHEARS = (1, 2, 3)
TEMPLATE_SEED = 20220826

# Lattice grid: every dimension from 8 to 24, each with a number of
# reflections (cycling through 2..5) and a target label.  Like the shear
# templates, each slot's reflection product is drawn once from the template
# seed, with roots redrawn until the oracle's label (never hermitia's) is the
# target; the run seed conjugates it by a random signed permutation.  With
# roots drawn from the run seed the median latency of 34 requests varied by
# 10% from seed to seed, on top of the host's own noise.
LATTICE_DIMS = tuple(range(8, 25))
LATTICE_LABELS = ("hyperbolic", "elliptic", "hyperbolic", "elliptic", "hyperbolic",
                  "elliptic", "hyperbolic", "parabolic")
LATTICE_REFLECTIONS = (2, 3, 4, 5)


class Input(NamedTuple):
    """One request's input: an id for reports, the payload hermitia receives
    and the expected answer."""

    ident: str
    payload: object
    expected: object


class Builtins:
    """One request runs the four shipped models; every check must pass and
    the --no-timing report bytes must equal the goldens.  The models are
    fixed, so the seed changes nothing here, and every request is the same:
    the tail latency shows how identical requests spread (garbage
    collection, the host), not a heavier input."""

    name = "builtins"
    probe_kind = "builtin"
    cycle_seconds = 0.27

    def __init__(self, seed):
        self.goldens = {
            nm: (GOLDEN_DIR / f"{nm}.report.json").read_text(encoding="utf-8")
            for nm in BUILTIN_ORDER
        }
        self.count = 0

    def cycle(self):
        self.count += 1
        return [Input(f"builtins#{self.count}", BUILTIN_ORDER, self.goldens)]

    def first_payload(self):
        return BUILTIN_ORDER[0]

    @staticmethod
    def request(hermitia, inp):
        wrong = []
        for nm in inp.payload:
            text = hermitia.builtin(nm).to_json()
            report = hermitia.run_check(hermitia.Manifest.from_json(text))
            out = report.to_json(include_timing=False)
            if report.overall != "pass":
                bad = [o.check_id for o in report.outcomes if o.verdict != "pass"]
                wrong.append(f"{nm}: checks not passing: {bad}")
            elif out != inp.expected[nm]:
                wrong.append(f"{nm}: report differs from the golden")
        return wrong


class Hermitian:
    """Suspension models in a shear-transported coframe.  The expected
    verdicts hold for the base model and so in every basis:
      kahler fails: d omega = Phi ^ dt != 0.
      pluriclosed holds (the paper).
      astheno and every k_pluriclosed hold: d dc omega = 0, and
        d omega ^ dc omega is a multiple of Phi ^ Phi = 0 since Phi = e2 ^ e3.
      balanced fails: omega^(m-2) ^ Phi ^ dt = omega_base^(k/2) ^ Phi ^ dt != 0.
    The manifest carries these expectations, so each check must report pass."""

    name = "hermitian_rational"
    probe_kind = "manifest"
    cycle_seconds = 1.05

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        trng = random.Random(TEMPLATE_SEED)
        self.templates = [
            (k, gen.shear_positions(trng, k + 4, count))
            for k in HERMITIAN_KS
            for count in HERMITIAN_SHEARS
        ]
        self.count = 0

    def _input(self, k, positions):
        self.count += 1
        shears = gen.signed_shears(self.rng, positions)
        manifest = gen.hermitian_input(k, shears)[0]
        ident = f"{self.name}#{self.count}(k={k},shears={len(shears)})"
        expected = {c["id"]: "pass" for c in manifest["checks"]}
        expected["jacobi-gate"] = "pass"
        return Input(ident, gen.manifest_text(manifest), expected)

    def cycle(self):
        return [self._input(k, pos) for k, pos in self.templates]

    def first_payload(self):
        k, pos = self.templates[0]
        shears = gen.signed_shears(random.Random(self.seed), pos)
        return gen.manifest_text(gen.hermitian_input(k, shears)[0])

    @staticmethod
    def request(hermitia, inp):
        report = hermitia.run_check(hermitia.Manifest.from_json(inp.payload))
        got = {o.check_id: o.verdict for o in report.outcomes}
        if got != inp.expected:
            return [f"verdicts {got} != expected {inp.expected}"]
        return []


class Lattices:
    """Isometries of diag(1, -1, .., -1); classify must agree with the oracle
    label, and for hyperbolic ones the power-iteration eigenvalue must lie in
    the certified interval."""

    name = "lattices"
    probe_kind = "lattice"
    cycle_seconds = 3.2

    def __init__(self, seed):
        self.rng = random.Random(seed)
        trng = random.Random(TEMPLATE_SEED)
        self.templates = []
        for i, n in enumerate(LATTICE_DIMS):
            reflections = LATTICE_REFLECTIONS[i % len(LATTICE_REFLECTIONS)]
            target = LATTICE_LABELS[i % len(LATTICE_LABELS)]
            m = gen.lattice_input(trng, n, reflections)
            while oracle.label(m) != target:
                m = gen.lattice_input(trng, n, reflections)
            self.templates.append((reflections, m))
        self.count = 0

    def _input(self, reflections, template):
        self.count += 1
        m = gen.conjugate_by_signed_permutation(self.rng, template)
        n = len(m)
        payload = {"gram": gen.lorentz_gram(n), "matrix": m}
        ident = f"lattices#{self.count}(dim={n},reflections={reflections})"
        return Input(ident, payload, oracle.label(m))

    def cycle(self):
        return [self._input(*t) for t in self.templates]

    def first_payload(self):
        n = len(self.templates[0][1])
        return json.dumps({"gram": gen.lorentz_gram(n)})

    @staticmethod
    def request(hermitia, inp):
        lattice = hermitia.QuadraticLattice(inp.payload["gram"])
        result = hermitia.classify(inp.payload["matrix"], lattice)
        if result.label != inp.expected:
            return [f"label {result.label} != oracle {inp.expected}"]
        if result.label == "hyperbolic":
            a, b = result.certificate["lambda_interval"]
            lam = hermitia.power_iterate(inp.payload["matrix"], lattice).lam
            tol = 1e-6 * max(1.0, abs(float(b)))
            if not float(a) - tol <= lam <= float(b) + tol:
                return [f"power iteration lambda {lam} outside ({float(a)}, {float(b)}]"]
        return []


WORKLOADS = {
    "builtins": Builtins,
    "hermitian_rational": Hermitian,
    "lattices": Lattices,
}
