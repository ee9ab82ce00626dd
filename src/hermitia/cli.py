"""Command line interface: manifest checking, built-in models, isometry
classification and power iteration.

Exit codes: 0 all checks pass, 1 at least one check failed (or a numeric
operation reported failure), 2 parse or usage errors.  The environment
variable HERMITIA_SEED overrides the default sampler seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import builders, hyperbolic
from .manifest import DEFAULT_SEED, Manifest, ManifestError, _fmt_float, json_text, run_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path, option, build):
    """``build`` applied to the JSON in a file; a value it refuses, or JSON
    nested past the recursion limit, is a usage error (``LatticeError`` is a
    ``ValueError``) naming the option."""
    try:
        return build(json.loads(_read_text(path)))
    except hyperbolic.LatticeError as e:
        raise ValueError(f"{option}: {e}") from None
    except RecursionError:
        raise ValueError(f"{option}: the JSON nests too deeply") from None


def _load_isometry(args):
    """The lattice of ``--gram`` and the ``--matrix`` of its rank."""
    lattice = _load(args.gram, "--gram", hyperbolic.QuadraticLattice)
    return lattice, _load(args.matrix, "--matrix", lattice.endomorphism)


def _seed_from_env(explicit):
    if explicit is not None:
        return explicit
    env = os.environ.get("HERMITIA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ManifestError(f"HERMITIA_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _run(manifest, args):
    """Run the manifest's checks and write the report; a ManifestError (an
    unknown ``--only`` id, a bad seed) is a usage error."""
    try:
        report = run_check(manifest, only=args.only, seed=_seed_from_env(args.seed))
    except ManifestError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    include_timing = not args.no_timing
    if args.report == "json":
        sys.stdout.write(report.to_json(include_timing))
    else:
        sys.stdout.write(report.to_text(include_timing))
    return EXIT_PASS if report.overall == "pass" else EXIT_FAIL


def _cmd_check(args):
    try:
        manifest = Manifest.from_json(_read_text(args.manifest))
    except (ManifestError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return _run(manifest, args)


def _cmd_builtin(args):
    try:
        manifest = builders.builtin(args.name)
    except builders.BuilderError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.emit:
        sys.stdout.write(manifest.to_json())
        return EXIT_PASS
    return _run(manifest, args)


def _fmt12(x):
    return f"{float(x):.12g}"


def _cmd_classify(args):
    try:
        lattice, matrix = _load_isometry(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = hyperbolic.classify(matrix, lattice)
    except hyperbolic.LatticeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    if args.report == "json":
        cert = _jsonable(result.certificate)
        sys.stdout.write(json_text({"label": result.label, "certificate": cert}) + "\n")
    else:
        if result.label == "hyperbolic":
            a, b = result.certificate["lambda_interval"]
            print(f"hyperbolic lambda in ({_fmt12(a)}, {_fmt12(b)})")
        else:
            print(result.label)
    return EXIT_PASS


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    return obj


def _cmd_power(args):
    try:
        if args.max_iters < 1:
            raise ValueError(f"--max-iters: expected at least 1, got {args.max_iters}")
        if not 0 < args.tol < math.inf:
            raise ValueError(f"--tol: expected a finite positive number, got {args.tol}")
        lattice, matrix = _load_isometry(args)
        seed_vector = None
        if args.seed_vector:
            seed_vector = _load(args.seed_vector, "--seed-vector", lattice.seed_vector)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = hyperbolic.power_iterate(
            matrix,
            lattice,
            seed_vector=seed_vector,
            tol=args.tol,
            max_iters=args.max_iters,
        )
    except (hyperbolic.LatticeError, hyperbolic.PowerIterationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    out = {
        "lambda": _fmt_float(result.lam),
        "eta": [_fmt_float(v) for v in result.eta],
        "q_value": _fmt_float(result.q_value),
        "iterations": result.iterations,
        "final_residual": _fmt_float(result.residuals[-1]),
    }
    sys.stdout.write(json_text(out) + "\n")
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermitia",
        description=(
            "Exact verification of invariant Hermitian, quaternionic and "
            "isometry structures on Lie algebra models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks of a manifest file ('-' for stdin)")
    p_check.add_argument("manifest")
    p_check.add_argument("--report", choices=("json", "text"), default="text")
    p_check.add_argument("--only", metavar="ID", help="run a single check id (plus the Jacobi gate)")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--no-timing", action="store_true", help="exclude wall times from reports")
    p_check.set_defaults(func=_cmd_check)

    p_builtin = sub.add_parser("builtin", help="run or emit a built-in manifest")
    p_builtin.add_argument("name", choices=builders.BUILTIN_NAMES)
    p_builtin.add_argument("--emit", action="store_true", help="print the manifest JSON instead of running it")
    p_builtin.add_argument("--report", choices=("json", "text"), default="text")
    p_builtin.add_argument("--only", metavar="ID")
    p_builtin.add_argument("--seed", type=int, default=None)
    p_builtin.add_argument("--no-timing", action="store_true")
    p_builtin.set_defaults(func=_cmd_builtin)

    p_classify = sub.add_parser("classify", help="classify an isometry of an exact quadratic lattice")
    p_classify.add_argument("--gram", required=True)
    p_classify.add_argument("--matrix", required=True)
    p_classify.add_argument("--report", choices=("json", "text"), default="text")
    p_classify.set_defaults(func=_cmd_classify)

    p_power = sub.add_parser("power", help="power iteration toward the dominant eigenvector")
    p_power.add_argument("--gram", required=True)
    p_power.add_argument("--matrix", required=True)
    p_power.add_argument("--tol", type=float, default=1e-10)
    p_power.add_argument("--max-iters", type=int, default=200)
    p_power.add_argument("--seed-vector", default=None)
    p_power.set_defaults(func=_cmd_power)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with its own code (2 on usage errors)
        return int(e.code) if e.code else EXIT_PASS
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
