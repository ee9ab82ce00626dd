"""Self-tests of the benchmark's generators, oracle and bookkeeping.

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

import gen
import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def payload_bytes(cycle):
    return [json.dumps(inp.payload, sort_keys=True) + json.dumps(inp.expected, sort_keys=True)
            for inp in cycle]


@pytest.mark.parametrize("name", ["hermitian_rational", "lattices"])
def test_same_seed_same_inputs(name):
    a, b = workloads.WORKLOADS[name](7), workloads.WORKLOADS[name](7)
    for _ in range(2):
        assert payload_bytes(a.cycle()) == payload_bytes(b.cycle())
    assert payload_bytes(workloads.WORKLOADS[name](8).cycle()) != payload_bytes(a.cycle())


def test_hermitian_inputs_are_consistent():
    w = workloads.Hermitian(3)
    for k, positions in w.templates:
        manifest, p, q, dgen, fj = gen.hermitian_input(k, gen.signed_shears(w.rng, positions))
        n = k + 4
        assert gen.mat_mul(p, q) == gen.identity(n)
        for form in dgen.values():
            assert gen.d(form, dgen) == {}
        assert gen.mat_mul(fj, fj) == [[-x for x in row] for row in gen.identity(n)]
        assert len(manifest["basis"]) == n


def test_base_model_identities():
    # d omega = Phi ^ dt, with Phi = e2 ^ e3 and t the last generator.
    n, dgen, _jmat, omega = gen.base_model(4)
    assert gen.d(omega, dgen) == {(1, 2, n - 1): 1}


def is_isometry(m, g):
    mt = [list(r) for r in zip(*m)]
    return gen.mat_mul(gen.mat_mul(mt, g), m) == g


def test_lattice_inputs_are_isometries():
    for inp in workloads.Lattices(5).cycle():
        assert is_isometry(inp.payload["matrix"], inp.payload["gram"])


def test_oracle_hand_picked_cases():
    assert oracle.label([[3, 4], [2, 3]]) == "hyperbolic"
    assert is_isometry([[3, 4], [2, 3]], [[1, 0], [0, -2]])

    g = gen.lorentz_gram(5)
    signed_perm = [[1, 0, 0, 0, 0],
                   [0, 0, 0, 1, 0],
                   [0, -1, 0, 0, 0],
                   [0, 0, 1, 0, 0],
                   [0, 0, 0, 0, -1]]
    assert is_isometry(signed_perm, g)
    assert oracle.label(signed_perm) == "elliptic"

    # Eichler transvection x -> x + b(x,e) a - b(x,a) e - q(a)/2 b(x,e) e for
    # the isotropic e = (1,1,0,0) and a = (0,0,1,1), which is orthogonal to e.
    g4 = gen.lorentz_gram(4)
    e, a = [1, 1, 0, 0], [0, 0, 1, 1]

    def b(x, y):
        return sum(g4[i][i] * x[i] * y[i] for i in range(4))

    cols = []
    for j in range(4):
        x = [int(i == j) for i in range(4)]
        bxe, bxa = b(x, e), b(x, a)
        cols.append([x[i] + bxe * a[i] - bxa * e[i] - b(a, a) // 2 * bxe * e[i] for i in range(4)])
    eichler = [list(r) for r in zip(*cols)]
    assert is_isometry(eichler, g4)
    assert oracle.label(eichler) == "parabolic"


def test_tail_percentile():
    sys.path.insert(0, str(HERE))
    import run

    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([float(x) for x in range(1, 41)]) == (30.0, 75, 10)
    assert run.tail([float(x) for x in range(1, 31)]) == (20.0, 66, 10)


def test_a_request_that_raises_makes_the_run_incorrect():
    sys.path.insert(0, str(HERE))
    import run

    class Raising:
        @staticmethod
        def request(_hermitia, inp):
            if inp.ident == "b":
                raise TypeError("boom")
            return ["wrong"] if inp.ident == "c" else []

    inputs = [workloads.Input(i, None, None) for i in "abc"]
    sent = run.run_requests(None, Raising, inputs, calibrate=True)
    assert [ident for ident, _ in sent.failures] == ["b", "c"]
    assert sent.failures[0][1].startswith("RAISED TypeError")
    assert len(sent.kernels) == 4 and len(run.host_factors(sent.kernels)) == 3
    assert json.loads(run.result_line(3, sent.failures[:1], {}))["correct"] is False
    assert json.loads(run.result_line(3, [], {}))["correct"] is True


def test_benchmark_json_per_layer_is_derived():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tracer.spec_problems(spec["per_layer"]) == []
    assert tracer.spec_problems(spec["per_layer"][1:]) == [
        "import.hermitia_s: derived but not listed in BENCHMARK.json"]


def test_tracer_wraps_every_binding_site():
    sys.path.insert(0, str(SRC))
    import hermitia

    t = tracer.Tracer()
    t.install(hermitia)
    try:
        # every binding site of a wrapped function holds the same wrapper
        assert hasattr(hermitia.metrics.wedge, "__wrapped__")
        assert hermitia.metrics.wedge is hermitia.cealg.wedge is hermitia.wedge
        assert hermitia.quaternion.del_ is hermitia.complexops.del_
    finally:
        t.uninstall()
    assert not hasattr(hermitia.cealg.wedge, "__wrapped__")
    assert not hasattr(hermitia.metrics.del_, "__wrapped__")


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="classify's eigenvector residual bound is absolute")
def test_known_defect_large_hyperbolic_isometry():
    """A hyperbolic isometry whose entries reach 2e10 and whose minimal
    polynomial has degree above 2: classify raises 'numeric eigenvector
    residual ... above 1e-10' because the bound does not scale with the
    matrix.  The lattice workload's roots are too small to reach this; when
    the bound is fixed this test passes and its xfail marker must go."""
    sys.path.insert(0, str(SRC))
    import hermitia

    rng = random.Random(0)
    n = 10

    def root():
        while True:
            r = [rng.randint(-2, 2) for _ in range(n)]
            q = r[0] ** 2 - sum(x * x for x in r[1:])
            if q in (-1, -2):
                return r, q

    m = gen.identity(n)
    for _ in range(12):
        m = gen.mat_mul(m, gen.reflection(*root()))
    assert oracle.label(m) == "hyperbolic"
    lattice = hermitia.QuadraticLattice(gen.lorentz_gram(n))
    assert hermitia.classify(m, lattice).label == "hyperbolic"
