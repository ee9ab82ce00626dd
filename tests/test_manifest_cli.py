"""Manifest parsing, check orchestration, reports and the command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hermitia.builders import builtin
from hermitia.cli import main
from hermitia.manifest import Manifest, ManifestError, run_check


def _mini_manifest(**overrides):
    data = {
        "schema": "hermitia-manifest/1",
        "name": "mini",
        "comment": "",
        "symbols": [],
        "dimension": 3,
        "basis": ["e1", "e2", "e3"],
        "differential": {"e1": [["1", ["e2", "e3"]]]},
        "endomorphisms": {},
        "bilinears": {},
        "forms": {"eta": [["1", ["e1"]]]},
        "valuations": {},
        "checks": [
            {"id": "jacobi", "kind": "jacobi"},
            {"id": "phi-exact", "kind": "d_equals", "form": "eta", "equals": {"terms": [["1", ["e2", "e3"]]]}},
        ],
    }
    data.update(overrides)
    return data


def test_manifest_rejects_unknown_kind():
    with pytest.raises(ManifestError):
        Manifest(_mini_manifest(checks=[{"id": "x", "kind": "frobnicate"}]))


def test_manifest_rejects_duplicate_ids():
    with pytest.raises(ManifestError):
        Manifest(
            _mini_manifest(
                checks=[{"id": "x", "kind": "jacobi"}, {"id": "x", "kind": "jacobi"}]
            )
        )


def test_manifest_rejects_unknown_fields_and_bad_json():
    with pytest.raises(ManifestError):
        Manifest(_mini_manifest(extra_field=1))
    with pytest.raises(ManifestError) as err:
        Manifest.from_json('{"name": "x", ')
    assert "byte offset" in str(err.value)


def test_run_check_mini_manifest():
    rep = run_check(Manifest(_mini_manifest()))
    assert rep.overall == "pass"
    assert [o.check_id for o in rep.outcomes] == ["jacobi", "phi-exact"]


def test_run_check_jacobi_gate_skips_rest():
    data = _mini_manifest(
        differential={"e1": [["1", ["e2", "e3"]]], "e2": [["1", ["e1", "e2"]]]}
    )
    rep = run_check(Manifest(data))
    assert rep.overall == "fail"
    assert rep.outcomes[0].verdict == "fail"
    assert rep.outcomes[1].verdict == "error"
    assert "Jacobi" in rep.outcomes[1].detail["reason"]


def test_run_check_implicit_jacobi_first():
    data = _mini_manifest()
    data["checks"] = [c for c in data["checks"] if c["kind"] != "jacobi"]
    rep = run_check(Manifest(data))
    assert rep.outcomes[0].check_id == "jacobi-gate"


def test_run_check_only_restriction():
    rep = run_check(builtin("AT4"), only="balanced")
    ids = [o.check_id for o in rep.outcomes]
    assert ids == ["jacobi", "balanced"]
    with pytest.raises(ManifestError):
        run_check(builtin("AT4"), only="missing-id")


def test_report_determinism_byte_identical():
    for name in ("AT4", "fp_solv8", "pseudoHK12", "lemma61"):
        r1 = run_check(builtin(name), seed=123).to_json(include_timing=False)
        r2 = run_check(builtin(name), seed=123).to_json(include_timing=False)
        assert r1 == r2


def test_error_verdict_from_bad_check_parameters():
    data = _mini_manifest(
        checks=[{"id": "jacobi", "kind": "jacobi"}, {"id": "bad", "kind": "d_zero", "form": "nope"}]
    )
    rep = run_check(Manifest(data))
    assert rep.outcomes[1].verdict == "error"
    assert rep.overall == "fail"


# -- CLI ----------------------------------------------------------------------


def _run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hermitia", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_builtin_pass_exit_zero():
    code, out, _err = _run_cli(["builtin", "AT4", "--no-timing"])
    assert code == 0
    assert "overall: pass" in out


def test_cli_builtin_emit_and_check_roundtrip():
    code, manifest_text, _ = _run_cli(["builtin", "lemma61", "--emit"])
    assert code == 0
    code2, out, _ = _run_cli(["check", "-", "--no-timing"], stdin_text=manifest_text)
    assert code2 == 0
    assert "overall: pass" in out


def test_cli_check_malformed_json_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken": ')
    code, _out, err = _run_cli(["check", str(bad)])
    assert code == 2
    assert "byte offset" in err


def test_cli_check_failing_manifest_exit_one(tmp_path):
    data = _mini_manifest(
        differential={"e1": [["1", ["e2", "e3"]]], "e2": [["1", ["e1", "e2"]]]}
    )
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(data))
    code, out, _err = _run_cli(["check", str(path), "--no-timing"])
    assert code == 1
    assert "overall: fail" in out


def test_cli_json_report_deterministic():
    code1, out1, _ = _run_cli(["builtin", "pseudoHK12", "--report", "json", "--no-timing", "--seed", "5"])
    code2, out2, _ = _run_cli(["builtin", "pseudoHK12", "--report", "json", "--no-timing", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "hermitia-report/1"
    assert payload["overall"] == "pass"
    assert all("time_ms" not in c for c in payload["checks"])


def test_cli_classify_and_power(tmp_path):
    gram = tmp_path / "g.json"
    gram.write_text("[[1,0],[0,-2]]")
    mat = tmp_path / "m.json"
    mat.write_text("[[3,4],[2,3]]")
    code, out, _ = _run_cli(["classify", "--gram", str(gram), "--matrix", str(mat)])
    assert code == 0
    assert out.startswith("hyperbolic lambda in (5.82842712")
    code2, out2, _ = _run_cli(
        ["power", "--gram", str(gram), "--matrix", str(mat), "--tol", "1e-10"]
    )
    assert code2 == 0
    data = json.loads(out2)
    assert abs(data["lambda"] - 5.82842712475) < 1e-9
    assert abs(data["q_value"]) < 1e-9


def test_cli_power_identity_exit_one(tmp_path):
    gram = tmp_path / "g.json"
    gram.write_text("[[1,0],[0,-2]]")
    mat = tmp_path / "m.json"
    mat.write_text("[[1,0],[0,1]]")
    code, _out, err = _run_cli(["power", "--gram", str(gram), "--matrix", str(mat)])
    assert code == 1
    assert "no dominant eigenvalue" in err


def test_cli_classify_rational_entries(tmp_path):
    gram = tmp_path / "g.json"
    gram.write_text('[[0,0,"1/2"],[0,-1,0],["1/2",0,0]]')
    mat = tmp_path / "m.json"
    mat.write_text("[[1,0,0],[1,1,0],[1,2,1]]")
    code, out, _ = _run_cli(["classify", "--gram", str(gram), "--matrix", str(mat)])
    assert code == 0
    assert out.strip() == "parabolic"


def test_cli_check_missing_parameter_is_error_verdict(tmp_path):
    code, manifest_text, _ = _run_cli(["builtin", "AT4", "--emit"])
    assert code == 0
    data = json.loads(manifest_text)
    kahler = next(c for c in data["checks"] if c["kind"] == "kahler")
    del kahler["omega"]
    path = tmp_path / "no_omega.json"
    path.write_text(json.dumps(data))
    code, out, err = _run_cli(["check", str(path), "--report", "json", "--no-timing"])
    assert code == 1
    assert "Traceback" not in err
    outcome = next(c for c in json.loads(out)["checks"] if c["id"] == kahler["id"])
    assert outcome["verdict"] == "error"
    assert outcome["detail"]["reason"] == "KeyError: 'omega'"


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d["differential"].update(e1=5), "differential.e1"),
        (lambda d: d["forms"].update(eta=5), "forms.eta"),
        (lambda d: d.update(checks="x"), "checks"),
    ],
    ids=["differential.e1", "forms.eta", "checks"],
)
def test_cli_check_wrongly_typed_field_exit_two(tmp_path, mutate, path):
    data = json.loads(builtin("AT4").to_json())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _out, err = _run_cli(["check", str(bad)])
    assert code == 2
    assert err.startswith(f"error: {path}: expected ")
    assert len(err.splitlines()) == 1


GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12", "lemma61"])
def test_cli_builtin_report_equals_golden(name, capsys):
    assert main(["builtin", name, "--report", "json", "--no-timing"]) == 0
    golden = (GOLDENS / f"{name}.report.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_cli_usage_error_exit_two():
    code, _out, _err = _run_cli(["classify", "--gram", "only.json"])
    assert code == 2


def test_cli_seed_env_override(tmp_path, monkeypatch):
    import os

    env = dict(os.environ)
    env["HERMITIA_SEED"] = "99"
    proc = subprocess.run(
        [sys.executable, "-m", "hermitia", "builtin", "AT4", "--report", "json", "--no-timing"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 99
