"""The benchmark's tracer still sees every layer it measures.

perfbench/tracer.py maps each per-layer metric to the spans it reads and to
the workloads on which those spans must fire; a traced benchmark run exits
with an error when one does not.  This runs the first seed-7 cycle of each
workload under the tracer, so a change that routes a layer around its span
(a product that no longer goes through ``cealg.wedge``, say) fails here, and
runs ``perfbench/run.py --trace 1`` itself, which also checks the import and
overhead layers.
"""

import json
import subprocess
import sys

import pytest

import hermitia
from conftest import PERFBENCH, perfbench


@pytest.mark.parametrize("name", ["builtins", "hermitian_rational", "lattices"])
def test_traced_cycle_fires_every_span_backed_layer(name):
    tracing, run = perfbench("tracer"), perfbench("run")
    workload = perfbench("workloads").WORKLOADS[name](7)
    tracer = tracing.Tracer()
    tracer.install(hermitia)
    try:
        sent = run.run_requests(hermitia, workload, workload.cycle(), tracer)
    finally:
        tracer.uninstall()
    assert not sent.failures
    # the import and overhead layers have no spans: they need the cold-start
    # probe and an untraced pass, which this test does not make, so their
    # inputs are placeholders and their verdicts are dropped
    imports = dict.fromkeys(("hermitia", "sympy", "numpy"), 0.0)
    stats = tracer.stats(len(sent.latencies), 1.0, 1.0, imports)
    problems = [p for p in tracing.coverage_problems(name, stats)
                if tracing.LAYERS[p.split(":")[0]].spans]
    assert not problems, problems


@pytest.mark.parametrize("name", ["builtins", "hermitian_rational", "lattices"])
def test_traced_benchmark_run_exits_zero(name):
    """The benchmark's own traced run, as it is run by hand: exit 0 means
    every layer's coverage held; its spans go to the ignored perfbench/out/."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
