"""hermitia's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; hermitia is imported from its src/.  The
load is a closed loop: one client in one process sends the next request when
the previous one has been answered and checked.  Inputs come from --seed.

--trace 0 sends a list of whole input cycles, sized to about --seconds of work
at the commit that added the benchmark (see cycle_seconds in workloads.py).
Every send is one latency sample.  Set-up time is the median of several cold
starts in fresh interpreters.

Host speed.  On a shared 2-vCPU KVM guest (Intel Xeon) phases lasting seconds
to minutes run everything up to 1.8 times slower, so raw wall times of the
same code moved by 30-50% between runs.  A fixed pure-Python calibration
kernel is therefore timed between requests and around every cold start,
and each wall time is scaled by REFERENCE_KERNEL_S over the kernel times next
to it: the reported times are wall times at the host speed where the kernel
takes REFERENCE_KERNEL_S.  A change to hermitia does not change the kernel, so
it moves the scaled times as it moves the raw ones.  The correction is not
exact: when the host runs at half speed the kernel slows a little more than
hermitia does, and the scaled times read up to 10% low.  The raw figures and
the host factor are printed too.

--trace 1 sends a fixed list (the first cycle, three for builtins) once
untraced and once traced, whatever --seconds says, and reports the per-layer
metrics of the traced pass; see tracer.py.  trace.overhead_ratio compares the
two passes' host-scaled totals.

Either mode prints its result as one JSON object on the last line of
standard output; `correct` is false if any request raised or answered wrong.
The trace run also writes its spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 7
IMPORT_PROBES = 3
WARMUP_SECONDS = 0.5
TAIL_BEYOND = 10
TRACE_CYCLES = {"builtins": 3}
# The calibration kernel's time on a quiet host (Intel Xeon, 2 vCPUs under KVM).
REFERENCE_KERNEL_S = 0.0042
KERNELS_PER_START = 3  # kernel samples before and after each cold start


def die(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def require_sources():
    if not (SRC / "hermitia" / "__init__.py").is_file():
        die(f"no hermitia sources under {SRC}; run from the root of a checkout")


def per_layer_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"no {path}; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))["per_layer"]


def import_hermitia():
    sys.path.insert(0, str(SRC))
    import hermitia

    if Path(hermitia.__file__).resolve().parent != SRC / "hermitia":
        die(f"imported hermitia from {hermitia.__file__}, not from {SRC}")
    return hermitia


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def kernel():
    """Time a fixed piece of pure-Python work of hermitia's own kind
    (Fraction matrix products, dicts keyed by sorted index tuples)."""
    start = time.perf_counter()
    for r in range(6):
        m = [[Fraction(i + r + 1, j + 2) for j in range(6)] for i in range(6)]
        [[sum(m[i][k] * m[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
        terms = {}
        for i in range(200):
            key = tuple(sorted((i * 7 % 13, i % 5, i * 3 % 11)))
            terms[key] = terms.get(key, 0) + i
    return time.perf_counter() - start


def host_factors(kernels):
    """kernels[i] was timed just before request i and kernels[i + 1] just
    after it.  Host speed changes within a second, so each request is scaled
    by the mean of the two kernel times around it; wider windows of kernel
    samples gave less steady figures."""
    return [2 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(kernels, kernels[1:])]


def scaled_busy(sent):
    """The requests' total latency, scaled to the reference host speed."""
    return sum(t * f for t, f in zip(sent.latencies, host_factors(sent.kernels)))


def cold_setup_seconds(workload):
    """Median over cold starts of the scaled wall time from process start to
    the first materialized input; also the raw median."""
    payload = workload.first_payload()
    scaled, raw = [], []
    for _ in range(SETUP_STARTS):
        kernels = [kernel() for _ in range(KERNELS_PER_START)]
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload.probe_kind],
            input=payload, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            die(f"cold-start probe failed:\n{proc.stderr}")
        took = float(proc.stdout.split()[-1]) - start
        kernels += [kernel() for _ in range(KERNELS_PER_START)]
        raw.append(took)
        scaled.append(took * REFERENCE_KERNEL_S / statistics.median(kernels))
    return statistics.median(scaled), statistics.median(raw)


def import_seconds():
    """Cumulative import times from -X importtime, median of fresh starts."""
    found = {"hermitia": [], "sympy": [], "numpy": []}
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hermitia"
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            die(f"import probe failed:\n{proc.stderr}")
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip() in found and parts[1].strip().isdigit():
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


class Sent(NamedTuple):
    """What a list of requests gave: each request's latency, the time between
    the kernels around it (the request and the loop's own work), the kernel
    samples (None without calibration) and the failures as (input, problem)."""

    latencies: list
    slots: list
    kernels: list
    failures: list


def run_requests(hermitia, workload, inputs, tracer=None, calibrate=False):
    """Send each input and time it to a checked answer."""
    latencies, slots, kernels, failures = [], [], [], []
    for inp in inputs:
        if calibrate:
            kernels.append(kernel())
        slot = time.perf_counter()
        frame = tracer.begin_request(inp.ident) if tracer else None
        start = time.perf_counter()
        try:
            wrong = workload.request(hermitia, inp)
            problem = f"WRONG {'; '.join(wrong)}" if wrong else None
        except Exception as e:  # a request that raises counts as failed
            where = traceback.extract_tb(e.__traceback__)[-1]
            place = f"{Path(where.filename).name}:{where.lineno}"
            problem = f"RAISED {type(e).__name__} at {place}: {e}"
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end_request(frame)
        if problem:
            failures.append((inp.ident, problem))
        slots.append(time.perf_counter() - slot)
    if calibrate:
        kernels.append(kernel())
    return Sent(latencies, slots, kernels if calibrate else None, failures)


def tail(latencies):
    """(value, percentile, samples beyond) for the highest whole percentile
    with at least TAIL_BEYOND samples above it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = (p * n + 99) // 100
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100, 0


def result_line(attempted, failures, metrics):
    """The result object; any failure, a raise as much as a wrong answer,
    makes it incorrect."""
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report_failures(failures):
    for ident, problem in failures:
        print(f"  FAILED {ident}: {problem}")


def warm_up(hermitia, workload):
    """Send untimed requests until first-call costs (lazy imports, caches
    inside sympy) are paid."""
    warm = 0.0
    for inp in workload.cycle():
        warm += sum(run_requests(hermitia, workload, [inp]).latencies)
        if warm > WARMUP_SECONDS:
            break


def untraced(name, seed, seconds):
    workload = WORKLOADS[name](seed)
    setup, setup_raw = cold_setup_seconds(workload)
    hermitia = import_hermitia()
    warm_up(hermitia, workload)
    cycles = max(1, round(seconds / workload.cycle_seconds))
    inputs = [inp for _ in range(cycles) for inp in workload.cycle()]
    sent = run_requests(hermitia, workload, inputs, calibrate=True)
    factors = host_factors(sent.kernels)
    latencies = [t * f for t, f in zip(sent.latencies, factors)]
    n = len(latencies)
    tail_value, tail_p, beyond = tail(latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "throughput_per_s": (n / sum(t * f for t, f in zip(sent.slots, factors)), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "latency_p50_ms": statistics.median(sent.latencies) * 1e3,
        "latency_tail_ms": tail(sent.latencies)[0] * 1e3,
        "throughput_per_s": n / sum(sent.slots),
        "setup_s": setup_raw,
    }
    print(f"workload {name} seed {seed}: {cycles} cycles, {n} requests; "
          f"host factor median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f}")
    print(f"  {'metric':<18} {'scaled':>12} {'raw':>12}")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{tail_p} of {n} samples, {beyond} beyond)"
        elif key == "setup_s":
            note = f"  (median of {SETUP_STARTS} cold starts)"
        shown_raw = f"{raw[key]:12.4f}" if key in raw else " " * 12
        print(f"  {key:<18} {value:12.4f} {shown_raw} {unit}{note}")
    print(f"  {'error_rate':<18} {len(sent.failures) / n:12.4f}"
          f"  ({len(sent.failures)} of {n} failed)")
    report_failures(sent.failures)
    print(result_line(n, sent.failures, metrics))


def traced(name, seed):
    per_layer = per_layer_spec()
    problems = tracing.spec_problems(per_layer)
    if problems:
        die("BENCHMARK.json and tracer.py disagree:\n  " + "\n  ".join(problems))
    workload = WORKLOADS[name](seed)
    imports = import_seconds()
    hermitia = import_hermitia()
    warm_up(hermitia, workload)
    inputs = [inp for _ in range(TRACE_CYCLES.get(name, 1)) for inp in workload.cycle()]
    plain = run_requests(hermitia, workload, inputs, calibrate=True)
    tracer = tracing.Tracer()
    tracer.install(hermitia)
    try:
        spanned = run_requests(hermitia, workload, inputs, tracer, calibrate=True)
    finally:
        tracer.uninstall()
    stats = tracer.stats(len(inputs), scaled_busy(plain), scaled_busy(spanned), imports)
    failures = plain.failures + spanned.failures
    problems = tracing.coverage_problems(name, stats)
    if problems:
        die("trace coverage check failed:\n  " + "\n  ".join(problems), code=3)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    metrics = tracing.layer_metrics(per_layer, stats)
    print(f"workload {name} seed {seed}: {len(inputs)} requests untraced, then traced; "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<38} {value:14.6g} {unit}")
    report_failures(failures)
    print(result_line(2 * len(inputs), failures, metrics))


def run_all(seed, seconds, trace):
    """Each workload in a fresh interpreter, then one summary table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            die(f"workload {name} exited with {proc.returncode}", code=proc.returncode)
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'workload':<20} {'attempted':>9} {'failed':>6} {'error_rate':>10}  metrics")
    for name, res in results.items():
        shown = (", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
                 if trace == 0 else "per-layer metrics above")
        print(f"{name:<20} {res['attempted']:>9} {res['failed']:>6} "
              f"{res['failed'] / res['attempted']:>10.4f}  {shown}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        traced(args.workload, args.seed)
    else:
        untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
