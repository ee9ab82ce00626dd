"""Manifest parsing, check orchestration, reports and the command line."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import perfbench
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


def _solv8_balanced(expect):
    """fp_solv8 with one balanced check; its omega is pluriclosed, not balanced."""
    data = json.loads(builtin("fp_solv8").to_json())
    data["checks"] = [
        {"id": "balanced", "kind": "balanced", "omega": "omega", "endo": "I", "expect": expect}
    ]
    return Manifest(data)


def test_failed_balanced_check_reports_the_real_basis_residual():
    outcome = run_check(_solv8_balanced(True)).outcomes[-1]
    assert outcome.verdict == "fail"
    assert json.dumps(outcome.detail, sort_keys=True) == (
        '{"residual": [["-6", ["e1", "e2", "e4", "e5", "e6", "e7", "e8"]]]}'
    )


def _kt_times_kt(checks):
    """Two copies of the Kodaira-Thurston model: omega is pluriclosed, and
    neither astheno-Kahler nor balanced."""
    names = [f"f{k}" for k in range(1, 9)]
    J = [["0"] * 8 for _ in range(8)]
    for a, b in ((0, 3), (1, 2), (4, 7), (5, 6)):
        J[b][a], J[a][b] = "1", "-1"
    return Manifest({
        "schema": "hermitia-manifest/1", "name": "KTxKT", "symbols": [], "dimension": 8,
        "basis": names, "differential": {"f1": [["1", ["f2", "f3"]]], "f5": [["1", ["f6", "f7"]]]},
        "endomorphisms": {"J": J}, "bilinears": {}, "valuations": {},
        "forms": {"omega": [["1", [names[a], names[b]]] for a, b in ((0, 3), (1, 2), (4, 7), (5, 6))]},
        "checks": [dict(check, id="probe", omega="omega", endo="J", expect=True) for check in checks],
    })


def _hermitian_rational_expecting_balanced():
    """A benchmark input (k = 4, three shears, seed 7) whose balanced check
    expects true; its omega is not balanced."""
    data = json.loads(perfbench("workloads").Hermitian(7).cycle()[2].payload)
    for check in data["checks"]:
        if check["id"] == "balanced":
            check.update(id="probe", expect=True)
    return Manifest(data)


ASTHENO_RESIDUAL = [["-i", ["f1", "f2", "f3", "f6", "f7", "f8"]], ["i", ["f2", "f3", "f4", "f5", "f6", "f7"]]]


@pytest.mark.parametrize(
    "manifest, residual",
    [
        (_hermitian_rational_expecting_balanced,
         [["-6", ["f1", "f2", "f3", "f4", "f5", "f6", "f8"]],
          ["6", ["f2", "f3", "f4", "f5", "f6", "f7", "f8"]]]),
        (lambda: _kt_times_kt([{"kind": "astheno"}]), ASTHENO_RESIDUAL),
        (lambda: _kt_times_kt([{"kind": "k_pluriclosed", "k": 2}]), ASTHENO_RESIDUAL),
        (lambda: _kt_times_kt([{"kind": "balanced"}]),
         [["6", ["f1", "f2", "f3", "f4", "f6", "f7", "f8"]],
          ["6", ["f2", "f3", "f4", "f5", "f6", "f7", "f8"]]]),
    ],
    ids=["hermitian_rational-balanced", "KTxKT-astheno", "KTxKT-2-pluriclosed", "KTxKT-balanced"],
)
def test_failed_power_checks_print_the_ladder_residual(manifest, residual):
    """A verdict decided without the power ladder still prints, when it
    differs from its expect, the residual that d or del delbar of the
    ladder's rung gives."""
    outcome = run_check(manifest(), only="probe").outcomes[-1]
    assert (outcome.verdict, outcome.detail) == ("fail", {"residual": residual})


def test_matched_balanced_check_converts_nothing_to_the_real_basis(monkeypatch):
    from hermitia.complexops import ComplexModel

    calls = []
    original = ComplexModel.to_real

    def counting(model, cform):
        calls.append(None)
        return original(model, cform)

    monkeypatch.setattr(ComplexModel, "to_real", counting)
    outcome = run_check(_solv8_balanced(False)).outcomes[-1]
    assert (outcome.verdict, outcome.detail) == ("pass", {})
    assert calls == []


@pytest.fixture
def conversions(monkeypatch):
    """The number of ``ComplexModel.to_complex`` and ``to_real`` calls, by
    name, counted from here on."""
    from hermitia.complexops import ComplexModel

    counts = {"to_complex": 0, "to_real": 0}
    for name in counts:
        original = getattr(ComplexModel, name)

        def counting(model, form, _original=original, _name=name):
            counts[_name] += 1
            return _original(model, form)

        monkeypatch.setattr(ComplexModel, name, counting)
    return counts


def test_weil_torsion_identity_converts_nothing(conversions):
    """-d^c omega, W d W omega and W d omega are compared in the coframe."""
    from hermitia.manifest import _HANDLERS

    ctx = builtin("fp_solv8").build()
    ctx.candidate("omega", "I")
    conversions.update(to_complex=0, to_real=0)
    check = {"id": "torsion-via-weil", "kind": "weil_torsion_identity", "omega": "omega",
             "endo": "I"}
    assert _HANDLERS["weil_torsion_identity"](ctx, check, 0) == ("pass", {})
    assert conversions == {"to_complex": 0, "to_real": 0}


def test_bismut_torsion_converts_the_torsion_once(conversions):
    """d^c is taken on omega_c, and only the torsion goes to the real basis."""
    from hermitia.metrics import bismut_torsion

    cand = builtin("fp_solv8").build().candidate("omega", "I")
    conversions.update(to_complex=0, to_real=0)
    t, dt = bismut_torsion(cand)
    assert conversions == {"to_complex": 0, "to_real": 1}
    assert (str(t), dt.is_zero()) == ("-e1^e2^e3", True)


def test_builtin_models_convert_within_budget(conversions):
    """The four built-in models, built and checked once, convert at most 12
    forms to the coframe and 7 back."""
    from hermitia.builders import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        assert run_check(Manifest.from_json(builtin(name).to_json())).overall == "pass"
    assert conversions["to_complex"] <= 12 and conversions["to_real"] <= 7, conversions


def test_report_determinism_byte_identical():
    for name in ("AT4", "fp_solv8", "pseudoHK12", "lemma61"):
        r1 = run_check(builtin(name), seed=123).to_json(include_timing=False)
        r2 = run_check(builtin(name), seed=123).to_json(include_timing=False)
        assert r1 == r2


def test_number_coefficients_equal_their_strings():
    data = _mini_manifest(
        differential={"e1": [[1.0, ["e2", "e3"]]]}, forms={"eta": [[1, ["e1"]]]}
    )
    rep = run_check(Manifest(data))
    assert [o.verdict for o in rep.outcomes] == ["pass", "pass"]


def test_unknown_valuation_is_error_verdict():
    data = json.loads(builtin("AT4").to_json())
    next(c for c in data["checks"] if c["kind"] == "gram_signature")["valuation"] = "nope"
    outcome = run_check(Manifest(data), only="gram-positive").outcomes[-1]
    assert (outcome.verdict, outcome.detail) == ("error", {"reason": "unknown valuation 'nope'"})


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


@pytest.mark.parametrize("command", ["classify", "power"])
def test_cli_empty_lattice_is_refused_by_its_signature(tmp_path, command):
    """An empty Gram matrix and an empty matrix reach the exact kernels with
    no row to read a width from; the command refuses the signature (0, 0, 0)
    with exit 1 and one line, not a traceback."""
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, out, err = _run_cli([command, "--gram", str(empty), "--matrix", str(empty)])
    assert (code, out) == (1, "")
    assert err == "error: classification requires signature (1, n, 0), got (0, 0, 0); refusing to guess\n"


def test_cli_classify_rational_entries(tmp_path):
    gram = tmp_path / "g.json"
    gram.write_text('[[0,0,"1/2"],[0,-1,0],["1/2",0,0]]')
    mat = tmp_path / "m.json"
    mat.write_text("[[1,0,0],[1,1,0],[1,2,1]]")
    code, out, _ = _run_cli(["classify", "--gram", str(gram), "--matrix", str(mat)])
    assert code == 0
    assert out.strip() == "parabolic"


@pytest.mark.parametrize(
    "kind, mutate, message",
    [
        ("kahler", lambda c: c.pop("omega"), ".omega: missing required parameter"),
        (
            "kahler",
            lambda c: c.update(expect=True, informational="false"),
            '.informational: expected a boolean, got "false"',
        ),
        ("kahler", lambda c: c.update(expected=c.pop("expect")), ".expected: unknown parameter"),
        ("kahler", lambda c: c.update(expect="false"), ".expect: expected a boolean"),
        (
            "lee_form",
            lambda c: c.update(expect="nothing"),
            '.expect: expected "none" or "zero" or "any", got "nothing"',
        ),
        (
            "gram_signature",
            lambda c: c.update(bilinear="g"),
            ": expected exactly one of bilinear or omega with endo",
        ),
        ("gram_signature", lambda c: c.pop("endo"), ".endo: missing required parameter"),
        ("trace_zero", lambda c: c.update(kind="trace"), ".kind: unknown check kind 'trace'"),
    ],
    ids=[
        "missing-omega", "informational-string", "misspelled-key", "expect-string", "lee-enum",
        "gram-both-alternatives", "gram-half-alternative", "unknown-kind",
    ],
)
def test_cli_check_bad_parameter_exit_two(tmp_path, capsys, kind, mutate, message):
    """A check that does not match its kind's declaration fails at load with
    exit 2 and one line naming the path, before any check runs."""
    data = json.loads(builtin("AT4").to_json())
    k = next(k for k, c in enumerate(data["checks"]) if c["kind"] == kind)
    mutate(data["checks"][k])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check", str(bad), "--report", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: checks[{k}]{message}")
    assert len(err.splitlines()) == 1


def test_bismut_up_to_sign_string_is_rejected():
    """``"up_to_sign": "false"`` used to switch on the looser match."""
    data = json.loads(builtin("fp_solv8").to_json())
    next(c for c in data["checks"] if c["kind"] == "bismut_torsion")["up_to_sign"] = "false"
    with pytest.raises(ManifestError, match=r"up_to_sign: expected a boolean"):
        Manifest(data)


def test_run_check_unexpected_exception_is_error_verdict(monkeypatch):
    """An exception no handler foresaw ends as an error verdict naming it."""
    from hermitia import manifest

    def boom(ctx, check, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(manifest._HANDLERS, "d_equals", boom)
    rep = run_check(Manifest(_mini_manifest()))
    outcome = rep.outcomes[1]
    assert (outcome.check_id, outcome.verdict) == ("phi-exact", "error")
    assert outcome.detail == {"reason": "RuntimeError: boom"}
    assert rep.overall == "fail"


def _by_id(data, check_id):
    return next(c for c in data["checks"] if c["id"] == check_id)


def _decomposition(term):
    """A mutation adding a strong_positivity_certificate check with the one
    decomposition term ``term``."""
    return lambda d: d["checks"].append({
        "id": "probe", "kind": "strong_positivity_certificate", "form": "omega_I", "endo": "I",
        "decomposition": [term],
    })


def _falsified_at(values, seed=None):
    """A mutation setting AT4's default valuation to ``values`` and adding a
    positivity_falsify check of a form whose coefficients need it."""
    check = {"id": "probe", "kind": "positivity_falsify", "form": {"combo": [["a", "omega0"]]},
             "endo": "J", "samples": 10}
    return lambda d: (
        d["valuations"].update(default=values),
        d["checks"].append(check if seed is None else {**check, "seed": seed}),
    )


@pytest.mark.parametrize(
    "name, mutate, message",
    [
        ("AT4", lambda d: d["differential"].update(e1=5), "differential.e1: expected "),
        ("AT4", lambda d: d["forms"].update(eta=5), "forms.eta: expected "),
        ("AT4", lambda d: d.update(checks="x"), "checks: expected "),
        ("AT4", lambda d: d["endomorphisms"].update(J=5), "endomorphisms.J: expected "),
        ("AT4", lambda d: d.update(valuations=5), "valuations: expected "),
        ("AT4", lambda d: d.update(symbols=[5]), "symbols[0]: expected "),
        ("AT4", lambda d: d["differential"]["e1"].append(["1", 5]), "differential.e1[1][1]: expected "),
        ("AT4", lambda d: d.update(basis=5), "basis: expected "),
        ("AT4", lambda d: d["basis"].__setitem__(0, []), "basis[0]: expected "),
        ("AT4", lambda d: d["symbols"][0].update(relation=5), "symbols[0].relation: expected "),
        ("AT4", lambda d: d.update(symbols=[{"name": 5}]), "symbols[0].name: expected "),
        ("AT4", lambda d: d.update(symbols=[{}]), "symbols[0].name: missing required parameter"),
        ("AT4", lambda d: d["differential"]["e1"][0].__setitem__(0, [1]), "differential.e1[0][0]: expected "),
        ("AT4", lambda d: d["forms"]["omega0"][0].__setitem__(0, None), "forms.omega0[0][0]: expected "),
        ("AT4", lambda d: d["endomorphisms"]["J"][0].__setitem__(0, {}), "endomorphisms.J[0][0]: expected "),
        ("AT4", lambda d: d["endomorphisms"]["J"][1].__setitem__(0, float("inf")), "endomorphisms.J[1][0]: expected "),
        (
            "AT4",
            lambda d: d["symbols"][0].update(relation={"power": "2", "rhs": "3"}),
            "symbols[0].relation.power: expected ",
        ),
        ("AT4", lambda d: d["symbols"][0].update(sign_hint="big"), "symbols[0].sign_hint: expected "),
        ("pseudoHK12", lambda d: _by_id(d, "no-hkt-for-this-form")["omega20"].update(endo=["I"]),
         "checks[7].omega20.endo: expected a string, got list"),
        ("pseudoHK12", lambda d: _by_id(d, "obstruction-pairing")["matrix"][0].__setitem__(0, [1]),
         "checks[11].matrix[0][0]: expected a coefficient (string or finite number), got list"),
        ("pseudoHK12", lambda d: _by_id(d, "obstruction-pairing")["matrix"].__setitem__(0, True),
         "checks[11].matrix[0]: expected a list, got true"),
        ("pseudoHK12", _decomposition(["1", [1], 3]),
         "checks[12].decomposition[0]: expected [coefficient, [factors]], got list"),
        ("pseudoHK12", _decomposition(True),
         "checks[12].decomposition[0]: expected [coefficient, [factors]], got true"),
        ("pseudoHK12", _decomposition(["1", 2.5]),
         "checks[12].decomposition[0][1]: expected a list, got 2.5"),
        ("pseudoHK12", _decomposition([[1], [1]]),
         "checks[12].decomposition[0][0]: expected a coefficient (string or finite number), got list"),
        ("AT4", _falsified_at({"a": [1]}), "valuations.default.a: expected a finite number, got list"),
        ("AT4", _falsified_at({"a": "abc"}), 'valuations.default.a: expected a finite number, got "abc"'),
        ("AT4", _falsified_at({"a": None}), "valuations.default.a: expected a finite number, got null"),
        ("AT4", _falsified_at({"a": {}}), "valuations.default.a: expected a finite number, got dict"),
        ("AT4", _falsified_at({"a": True}), "valuations.default.a: expected a finite number, got true"),
        ("AT4", _falsified_at({"a": 1}, seed=-1), "checks[11].seed: expected a non-negative integer, got -1"),
    ],
    ids=[
        "differential.e1", "forms.eta", "checks", "endomorphisms.J", "valuations", "symbols",
        "differential.e1.term", "basis", "basis.entry", "symbols.relation", "symbols.name", "symbols.empty",
        "differential.coefficient", "forms.coefficient", "matrix.coefficient", "matrix.infinite",
        "symbols.relation.power",
        "symbols.sign_hint",
        "hkt.endo-list", "matrix.entry-list", "matrix.row-bool", "decomposition.triple",
        "decomposition.bool", "decomposition.float-factors", "decomposition.list-coefficient",
        "valuation.list", "valuation.string", "valuation.null", "valuation.object", "valuation.bool",
        "positivity.negative-seed",
    ],
)
def test_cli_check_wrongly_typed_field_exit_two(tmp_path, capsys, name, mutate, message):
    """A value of the wrong JSON type, at any depth, fails at load with exit 2
    and one line naming its path, before any check runs."""
    data = json.loads(builtin(name).to_json())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


class AtLoad(str):
    """The expectation that the manifest is refused at load, with this
    message: a JSON path, then the type expected there."""


_ETA_RHS = {"eta_terms": [["1", [], [1]]], "endo": "I"}


@pytest.mark.parametrize(
    "check, reason",
    [
        (
            # index 7 used to alias conj(eta_1), and this check passed
            {"kind": "form_equals", "lhs": {"eta_terms": [["1", [7]]], "endo": "I"}, "rhs": _ETA_RHS},
            'eta_terms entry ["1", [7]]: expected a list of coframe indices in 1..6',
        ),
        (
            {"kind": "form_equals", "lhs": {"eta_terms": [["1", [0]]], "endo": "I"}, "rhs": _ETA_RHS},
            'eta_terms entry ["1", [0]]: expected a list of coframe indices in 1..6',
        ),
        (
            {"kind": "d_zero", "form": {"eta_terms": [["1", [1], [9]]], "endo": "I"}},
            'eta_terms entry ["1", [1], [9]]: expected a list of coframe indices in 1..6',
        ),
        (
            {"kind": "d_zero", "form": {"eta_terms": [["1", [True]]], "endo": "I"}},
            AtLoad("checks[12].form.eta_terms[0][1][0]: expected an integer, got true"),
        ),
        (
            {"kind": "d_zero", "form": {"eta_terms": [["1"]], "endo": "I"}},
            AtLoad("checks[12].form.eta_terms[0]: "
                   "expected [coefficient, [holo]] or [coefficient, [holo], [anti]], got list"),
        ),
        (
            {"kind": "d_zero", "form": {"eta_terms": [[[1], [1]]], "endo": "I"}},
            AtLoad("checks[12].form.eta_terms[0][0]: "
                   "expected a coefficient (string or finite number), got list"),
        ),
        (
            {"kind": "d_zero", "form": {"eta_terms": "x", "endo": "I"}},
            AtLoad('checks[12].form.eta_terms: expected a list, got "x"'),
        ),
        (
            {"kind": "obstruction_pairing", "I": "I", "J": "J", "K": "K",
             "alpha": {"eta_terms": [["-1", [1, 3, 5, 6]], ["-1", [2, 4, 5, 6]]], "endo": "I"},
             "beta_etas": [1, 2, 3, 4, 5, 7], "matrix": [], "expect": "0"},
            "beta_etas [1, 2, 3, 4, 5, 7]: expected a list of coframe indices in 1..6",
        ),
        (
            # index 0 used to alias eta_6 through Python's negative indexing
            {"kind": "strong_positivity_certificate", "form": "omega_I", "endo": "I",
             "decomposition": [["1", [0]]]},
            "decomposition factor 0: expected a form spec or a coframe index in 1..6",
        ),
        (
            {"kind": "strong_positivity_certificate", "form": "omega_I", "endo": "I",
             "decomposition": [["1", [7]]]},
            "decomposition factor 7: expected a form spec or a coframe index in 1..6",
        ),
    ],
    ids=["holo-7-aliases-conjugate", "holo-0", "anti-9", "bool-index", "short-entry",
         "list-coefficient", "not-a-list", "beta-etas-7", "decomposition-0", "decomposition-7"],
)
def test_cli_check_bad_coframe_index_is_error_verdict(tmp_path, capsys, check, reason):
    """A coframe index outside 1..m ends as an error verdict that names the
    entry (exit 1): the range is known only once the structure is built.  An
    index or entry of the wrong JSON type is refused at load (exit 2)."""
    data = json.loads(builtin("pseudoHK12").to_json())
    data["checks"].append({"id": "probe", **check})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["check", str(bad), "--only", "probe", "--report", "json", "--no-timing"])
    out, err = capsys.readouterr()
    if isinstance(reason, AtLoad):
        assert (code, out, err) == (2, "", f"error: {reason}\n")
        return
    assert code == 1
    probe = json.loads(out)["checks"][-1]
    assert (probe["id"], probe["verdict"]) == ("probe", "error")
    assert probe["detail"] == {"reason": reason}


GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


@pytest.mark.parametrize("name", ["AT4", "fp_solv8", "pseudoHK12", "lemma61"])
def test_cli_builtin_report_equals_golden(name, capsys):
    assert main(["builtin", name, "--report", "json", "--no-timing"]) == 0
    golden = (GOLDENS / f"{name}.report.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# sha256 of `hermitia builtin NAME --emit`: the emitted manifests are part
# of the output that a refactor keeps byte for byte
EMIT_SHA256 = {
    "AT4": "2e2ba1a4323f3ea6e2d59cc62f33b462b65a6a7be49d8e2fe5c86ae16a2d2309",
    "fp_solv8": "865e27e97e69fd263884a092ec037a3b69310c1c2c9fbcbe7ca93a68a129f68c",
    "lemma61": "9340db0f2d72606d447f9a0ebb25c87ff741c426f21e60f1f0cb46416b055ad3",
    "pseudoHK12": "f54fc30fceaae16611c087bd13437f0136a9d9fad3eade324afe5a9df2a1ebd9",
}


@pytest.mark.parametrize("name", sorted(EMIT_SHA256))
def test_cli_builtin_emit_is_pinned(name, capsys):
    assert main(["builtin", name, "--emit"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == EMIT_SHA256[name]


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


@pytest.mark.parametrize(
    "args, seed_env, message",
    [
        (["builtin", "AT4", "--only", "nope"], None, "no check with id 'nope'"),
        (["check", "at4.json", "--only", "nope"], None, "no check with id 'nope'"),
        (["builtin", "AT4", "--seed", "-1"], None, "seed: expected a non-negative integer, got -1"),
        (["check", "at4.json"], "-3", "seed: expected a non-negative integer, got -3"),
        (["check", "bytes.json"], None,
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (["check", "deep.json"], None, "manifest nests too deeply"),
    ],
    ids=["builtin-unknown-only", "check-unknown-only", "negative-seed", "negative-env-seed",
         "not-utf8", "deep-nesting"],
)
def test_cli_run_errors_exit_two(tmp_path, capsys, monkeypatch, args, seed_env, message):
    """An input refused before any check runs, by ``check`` or ``builtin``,
    exits 2 with one line and no traceback."""
    files = {
        "at4.json": builtin("AT4").to_json().encode(),
        "bytes.json": b"\xff\xfe{",
        "deep.json": b"[" * 100000,
    }
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    if seed_env is not None:
        monkeypatch.setenv("HERMITIA_SEED", seed_env)
    args = [str(tmp_path / a) if a in files else a for a in args]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("power", ["(a+1)^1000", "(a+a^2+1)^100000", "(1/(a+1))^1000"])
def test_cli_check_power_past_the_monomial_limit_exit_two(tmp_path, capsys, power):
    """A structure-equation coefficient whose expansion could pass the
    monomial limit is refused, unbuilt, when the manifest materializes:
    exit 2 with one line, and no traceback."""
    data = json.loads(builtin("AT4").to_json())
    data["differential"]["e1"][0][0] = power
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: manifest does not materialize: scalar too large to expand: ")
    assert len(err.splitlines()) == 1


def test_cli_check_power_through_a_related_symbol_exit_two(tmp_path, capsys):
    """(1+s)^(10^9) with s^2 = 2 has one monomial but coefficients of about
    3.8e8 digits, and ((1+s)/3)^(10^9) denominators of more than 1.1e8
    digits (the norm of (1+s)/3 is -1/9): each is refused, unbuilt, when
    the manifest materializes, with exit 2 and one line."""
    for coefficient in ("(1+s)^1000000000", "((1+s)/3)^1000000000"):
        data = json.loads(builtin("AT4").to_json())
        data["symbols"].append({"name": "s", "relation": {"power": 2, "rhs": "2"}})
        data["differential"]["e1"][0][0] = coefficient
        path = tmp_path / "power.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: manifest does not materialize: scalar too long to print: ")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "samples", [0, -5, 10**6 + 1, True, 2.5], ids=["zero", "negative", "above-bound", "bool", "float"]
)
def test_positivity_samples_bounded_at_load(samples):
    """No draw would report no_violation, a vacuous pass; a huge count is
    unbounded work.  Both are refused when the manifest loads."""
    check = {"id": "pos", "kind": "positivity_falsify", "form": "eta", "endo": "J",
             "samples": samples}
    data = _mini_manifest(checks=[check])
    with pytest.raises(ManifestError, match=r"checks\[0\]\.samples: expected an integer from 1 to 1000000"):
        Manifest(data)
    for ok in (1, 10**6):
        Manifest(_mini_manifest(checks=[{**check, "samples": ok}]))


@pytest.mark.parametrize("command", ["classify", "power"])
@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--matrix", '[["1/0", 4], [2, 3]]', "--matrix: matrix entry (0, 0): zero denominator in '1/0'"),
        ("--matrix", "[5]", "--matrix: matrix row 0: expected a list of entries, got int: 5"),
        ("--matrix", "[[3, true], [2, 3]]", "--matrix: matrix entry (0, 1): expected an exact rational"),
        ("--matrix", "[[3, 4], [2, 3.0]]", "--matrix: matrix entry (1, 1): expected an exact rational"),
        ("--matrix", '[[3, 4], [2, "x"]]', "--matrix: matrix entry (1, 1): not a rational number: 'x'"),
        ("--matrix", "[[3, 4], [2]]", "--matrix: ragged matrix"),
        ("--gram", '{"rows": 2}', "--gram: expected a matrix (a list of rows), got dict"),
        ("--gram", '[[1, 0], [0, "-2/0"]]', "--gram: matrix entry (1, 1): zero denominator in '-2/0'"),
        ("--matrix", "[" * 100000, "--matrix: the JSON nests too deeply"),
        ("--gram", "[" * 100000, "--gram: the JSON nests too deeply"),
    ],
    ids=["zero-denominator", "row-not-list", "bool", "float", "bad-string", "ragged", "gram-object",
         "gram-zero-denominator", "matrix-too-deep", "gram-too-deep"],
)
def test_cli_lattice_input_fails_closed(tmp_path, capsys, command, option, text, message):
    """A malformed matrix file is a usage error: exit 2 and one line naming
    the option and the entry, never a traceback or a silently read value."""
    files = {"--gram": "[[1,0],[0,-2]]", "--matrix": "[[3,4],[2,3]]", option: text}
    args = [command]
    for opt, content in files.items():
        path = tmp_path / f"{opt[2:]}.json"
        path.write_text(content)
        args += [opt, str(path)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, files, message",
    [
        ("classify", {"--gram": "[[1,2],[0,-2]]"}, "--gram: gram matrix is not symmetric"),
        ("classify", {"--matrix": "[[1,0,0],[0,1,0],[0,0,1]]"},
         "--matrix: matrix is 3x3, lattice has rank 2"),
        ("power", {"--seed-vector": "[1, 2, 3]"},
         "--seed-vector: seed vector must be a list of 2 entries"),
    ],
    ids=["asymmetric-gram", "matrix-rank", "seed-vector-length"],
)
def test_cli_lattice_shape_errors_exit_two(tmp_path, capsys, command, files, message):
    """Inputs that do not fit together are usage errors (exit 2), not failed
    checks (exit 1)."""
    args = [command]
    for opt, content in {"--gram": "[[1,0],[0,-2]]", "--matrix": "[[3,4],[2,3]]", **files}.items():
        path = tmp_path / f"{opt[2:]}.json"
        path.write_text(content)
        args += [opt, str(path)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_power_max_iters_below_one_exit_two(tmp_path, capsys, value):
    """No iteration would leave no residual to report: a usage error, not
    an IndexError traceback."""
    args = ["power", "--max-iters", value]
    for opt, content in {"--gram": "[[1,0],[0,-2]]", "--matrix": "[[3,4],[2,3]]"}.items():
        path = tmp_path / f"{opt[2:]}.json"
        path.write_text(content)
        args += [opt, str(path)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: --max-iters: expected at least 1, got {value}\n")


@pytest.mark.parametrize("max_iters", [0, -3])
def test_power_iterate_refuses_max_iters_below_one(max_iters):
    from hermitia.hyperbolic import PowerIterationError, QuadraticLattice, power_iterate

    with pytest.raises(PowerIterationError) as err:
        power_iterate([[3, 4], [2, 3]], QuadraticLattice([[1, 0], [0, -2]]), max_iters=max_iters)
    assert str(err.value) == f"max_iters must be at least 1, got {max_iters}"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_power_tol_not_finite_and_positive_exit_two(tmp_path, capsys, value):
    """A tol of inf would accept the first iterate as converged, and one of
    0, -1 or nan would accept none: each is a usage error naming --tol."""
    args = ["power", "--tol", value]
    for opt, content in {"--gram": "[[1,0],[0,-2]]", "--matrix": "[[3,4],[2,3]]"}.items():
        path = tmp_path / f"{opt[2:]}.json"
        path.write_text(content)
        args += [opt, str(path)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    message = f"error: --tol: expected a finite positive number, got {float(value)}\n"
    assert (out, err) == ("", message)


@pytest.mark.parametrize("tol", [0, -1.0, math.nan, math.inf])
def test_power_iterate_refuses_tol_not_finite_and_positive(tol):
    from hermitia.hyperbolic import PowerIterationError, QuadraticLattice, power_iterate

    with pytest.raises(PowerIterationError) as err:
        power_iterate([[3, 4], [2, 3]], QuadraticLattice([[1, 0], [0, -2]]), tol=tol)
    assert str(err.value) == f"tol must be finite and positive, got {tol}"


def _lemma61_check(check_id, **params):
    data = json.loads(builtin("lemma61").to_json())
    k = next(k for k, c in enumerate(data["checks"]) if c["id"] == check_id)
    data["checks"][k].update(params)
    return data, k


@pytest.mark.parametrize(
    "check_id, params, message",
    [
        ("char-poly", {"expect": ["1", "i", "1"]}, ".expect: expected a list of rationals"),
        ("char-poly", {"expect": ["1", "1/0"]}, ".expect: expected a list of rationals"),
        ("spectral-radius", {"interval": ["2", "3", "4"]}, ".interval: expected a list of two rationals"),
        ("spectral-radius", {"interval": ["2", None]}, ".interval: expected a list of two rationals"),
    ],
    ids=["imaginary-coefficient", "zero-denominator", "three-endpoints", "null-endpoint"],
)
def test_lattice_check_lists_fail_closed_at_load(check_id, params, message):
    data, k = _lemma61_check(check_id, **params)
    with pytest.raises(ManifestError) as info:
        Manifest(data)
    assert str(info.value).startswith(f"checks[{k}]{message}")


@pytest.mark.parametrize(
    "check_id, convert",
    [
        ("char-poly", lambda c: {"expect": [float(x) for x in c["expect"]]}),
        ("char-poly", lambda c: {"expect": [int(x) for x in c["expect"]]}),
        ("spectral-radius", lambda c: {"interval": [float(x) for x in c["interval"]]}),
    ],
    ids=["float-coefficients", "int-coefficients", "float-interval"],
)
def test_lattice_check_lists_accept_numbers(check_id, convert):
    data = json.loads(builtin("lemma61").to_json())
    check = next(c for c in data["checks"] if c["id"] == check_id)
    check.update(convert(check))
    assert run_check(Manifest(data), only=check_id).outcomes[-1].verdict == "pass"


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"power": 2}, "checks[0].form.base: missing required parameter"),
        ({"power": "two", "base": "eta"}, 'checks[0].form.power: expected a positive integer, got "two"'),
        ({"power": None, "base": "eta"}, "checks[0].form.power: expected a positive integer, got null"),
    ],
    ids=["missing-base", "unreadable-power", "null-power"],
)
def test_power_spec_without_base_or_integer_is_manifest_error(spec, message):
    data = _mini_manifest(checks=[{"id": "probe", "kind": "d_zero", "form": spec}])
    with pytest.raises(ManifestError) as info:
        Manifest(data)
    assert str(info.value) == message


_COEFF_EXPECTED = "expected a coefficient (string or finite number)"


@pytest.mark.parametrize(
    "name, check_id, key, spec, message",
    [
        ("pseudoHK12", "omega-jk-in-coframe", "lhs",
         {"combo": [["1", "omega_J", "omega_K"], ["i", "omega_K"]]},
         "checks[3].lhs.combo[0]: expected [coefficient, form spec], got list"),
        ("pseudoHK12", "omega-jk-in-coframe", "lhs", {"combo": True},
         "checks[3].lhs.combo: expected a list, got true"),
        ("pseudoHK12", "omega-jk-in-coframe", "lhs", {"combo": 1.5},
         "checks[3].lhs.combo: expected a list, got 1.5"),
        ("pseudoHK12", "omega-jk-in-coframe", "lhs", {"combo": [[["1"], "omega_J"]]},
         f"checks[3].lhs.combo[0][0]: {_COEFF_EXPECTED}, got list"),
        ("AT4", "structure-equation", "equals", {"terms": True},
         "checks[4].equals.terms: expected a list, got true"),
        ("AT4", "structure-equation", "equals", {"wedge": "omega0"},
         'checks[4].equals.wedge: expected a list, got "omega0"'),
        ("AT4", "structure-equation", "equals", {"terms": [[None, ["e3", "e4", "e5"]]]},
         f"checks[4].equals.terms[0][0]: {_COEFF_EXPECTED}, got null"),
        ("AT4", "structure-equation", "equals", {"terms": [["2*a", 1.5]]},
         "checks[4].equals.terms[0][1]: expected a list, got 1.5"),
        ("AT4", "structure-equation", "equals", {"name": "omega0", "base": "omega0"},
         "checks[4].equals: expected exactly one of name or terms or eta_terms with endo or d_of "
         "or wedge or power with base or combo"),
        ("AT4", "structure-equation", "equals", {"name": "omega0", "note": "extra"},
         "checks[4].equals.note: unknown parameter"),
        ("pseudoHK12", "alpha1-del-exact", "form", {"eta_terms": [["1", [1, 3, 5, 6]]]},
         "checks[8].form.endo: missing required parameter"),
        ("pseudoHK12", "beta-closed", "form", {"d_of": {"wedge": [{"d_of": 5}]}},
         "checks[10].form.d_of.wedge[0].d_of: expected a form spec (string or object), got 5"),
    ],
    ids=["combo-triple", "combo-bool", "combo-float", "combo-list-coefficient",
         "terms-bool", "wedge-string", "terms-null-coefficient", "terms-float-indices",
         "two-constructors", "extra-key", "eta-terms-without-endo", "nested-spec"],
)
def test_malformed_form_specs_are_manifest_errors(name, check_id, key, spec, message):
    """A form spec is checked at load down to its leaves: a ``terms``,
    ``wedge`` or ``combo`` that is not a list, a term or combo entry that is
    not a [coefficient, ..] pair, a key no constructor takes or a nested spec
    of the wrong type is a ManifestError naming its path."""
    data = json.loads(builtin(name).to_json())
    _by_id(data, check_id)[key] = spec
    with pytest.raises(ManifestError) as info:
        Manifest(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "endo, got", [({}, "dict"), (["A"], "list"), (5, "5")], ids=["endo0", "endo1", "5"]
)
def test_commute_endos_that_are_not_names_are_manifest_errors(endo, got):
    data = json.loads(builtin("lemma61").to_json())
    _by_id(data, "A-commutes-J")["endos"] = [endo, "J"]
    with pytest.raises(ManifestError) as info:
        Manifest(data)
    assert str(info.value) == f"checks[4].endos[0]: expected a string, got {got}"


@pytest.mark.parametrize(
    "power, base, verdict, detail",
    [
        (20000, [["2", []], ["1", ["e1"]]], "error",
         {"reason": "scalar too long to print: a coefficient has 6021 digits (the limit is 4300)"}),
        (10**9, [["1", []], ["1", ["e1"]]], "fail", {"difference": [["1000000000", ["e1"]]]}),
        (10**9, [["2", []], ["1", ["e1"]]], "error",
         {"reason": "scalar too long to print: a power would have a coefficient of at least "
                    "301029995 digits (the limit is 4300)"}),
        (10**9, [["3/5+4/5*i", []], ["1", ["e1"]]], "error",
         {"reason": "scalar too long to print: a power would have a coefficient of at least "
                    "349485002 digits (the limit is 4300)"}),
    ],
    ids=[
        "digits-past-the-limit", "power-10-to-the-9", "unbuilt-power-of-2",
        "unbuilt-power-on-the-unit-circle",
    ],
)
def test_huge_power_of_a_base_with_a_constant_fails_closed(power, base, verdict, detail):
    """(c + N)^k is a binomial sum of at most dim wedges, so a huge power
    finishes at once; a coefficient too long to print is an error verdict in
    the check's own words, not the last resort's, and a c^k far past the
    limit is refused before it is built."""
    import time

    data = json.loads(builtin("AT4").to_json())
    data["checks"].append({
        "id": "probe", "kind": "form_equals",
        "lhs": {"power": power, "base": {"terms": base}}, "rhs": {"terms": [["1", []]]},
    })
    start = time.perf_counter()
    outcome = run_check(Manifest(data), only="probe").outcomes[-1]
    assert time.perf_counter() - start < 1.0
    assert (outcome.verdict, outcome.detail) == (verdict, detail)


def _at4_probe(check, **sections):
    data = json.loads(builtin("AT4").to_json())
    for section, entries in sections.items():
        data[section].update(entries)
    data["checks"].append(dict(check, id="probe"))
    return run_check(Manifest(data), only="probe").outcomes[-1]


def test_negative_decomposition_coefficient_near_zero_is_not_certified():
    """a - 1 is negative at a = 1 - 1e-13, exactly -901/2^53, so the
    decomposition is no strong positivity certificate."""
    outcome = _at4_probe(
        {"kind": "strong_positivity_certificate", "form": {"terms": [["2*a-2", ["e1", "e2"]]]},
         "endo": "J", "decomposition": [["a-1", [1]]], "valuation": "near"},
        valuations={"near": {"a": 1 - 1e-13}},
    )
    assert (outcome.verdict, outcome.detail) == ("fail", {"negative_coefficient": "-1+a"})


def test_small_positive_gram_entry_is_not_degenerate():
    """diag(a, 1, 1, 1, 1, 1) at a = 1e-10 has signature (6, 0, 0), decided
    exactly at the valuation."""
    diag = [["a" if i == j == 0 else "1" if i == j else "0" for j in range(6)] for i in range(6)]
    outcome = _at4_probe(
        {"kind": "gram_signature", "bilinear": "diag", "valuation": "tiny", "expect": [5, 0, 1]},
        valuations={"tiny": {"a": 1e-10}}, bilinears={"diag": diag},
    )
    assert outcome.verdict == "fail"
    assert outcome.detail["signature"] == [6, 0, 0]
    assert (outcome.detail["exact"], outcome.detail["degenerate"]) == (False, False)


def test_cli_classify_and_power_json_bytes_are_pinned(tmp_path, capsys):
    """The JSON reports of ``classify`` and ``power`` for a hyperbolic
    isometry, byte for byte: exact certificate entries print as fraction
    strings and floats are rounded to 12 significant digits."""
    gram = tmp_path / "g.json"
    gram.write_text("[[1,0],[0,-2]]")
    mat = tmp_path / "m.json"
    mat.write_text("[[3,4],[2,3]]")
    assert main(["classify", "--gram", str(gram), "--matrix", str(mat), "--report", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "certificate": {\n    "eigenvector": [\n      [\n        "-3/2",\n'
        '        "1/2"\n      ],\n      [\n        "1",\n        "0"\n      ]\n    ],\n'
        '    "eigenvector_field": "quadratic: x^2 = 6*x + -1",\n'
        '    "interval_width": "3/4398046511104",\n    "lambda_interval": [\n'
        '      "25633693581211/4398046511104",\n      "12816846790607/2199023255552"\n'
        '    ],\n    "min_poly_degree": 2,\n    "q_value": [\n      "0",\n      "0"\n'
        '    ]\n  },\n  "label": "hyperbolic"\n}\n'
    )
    assert main(["power", "--gram", str(gram), "--matrix", str(mat), "--tol", "1e-10"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "eta": [\n    0.816496580926,\n    0.577350269192\n  ],\n'
        '  "final_residual": 1.75280035387e-11,\n  "iterations": 7,\n'
        '  "lambda": 5.82842712475,\n  "q_value": -8.76390840603e-12\n}\n'
    )


def _check_probe(**check):
    return lambda d: d["checks"].append({"id": "probe", **check})


_EITHER_SPEC = ("expected exactly one of name or terms or eta_terms with endo or d_of or wedge "
                "or power with base or combo")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(dimension="3"), 'dimension: expected a positive integer, got "3"'),
        (lambda d: d["differential"].update(e1=[["1", "e2"]]),
         'differential.e1[0][1]: expected a list, got "e2"'),
        (lambda d: d["differential"].update(e1=[["1", ["e2"], ["e3"]]]),
         "differential.e1[0]: expected [coefficient, [generator names]], got list"),
        (lambda d: d.update(extra_field=1), "extra_field: unknown parameter"),
        (_check_probe(kind="jacobi", bogus=1), "checks[2].bogus: unknown parameter"),
        (lambda d: d.pop("dimension"), "dimension: missing required parameter"),
        (_check_probe(kind="d_zero"), "checks[2].form: missing required parameter"),
        (_check_probe(kind="d_zero", form={}), f"checks[2].form: {_EITHER_SPEC}"),
        (_check_probe(kind="d_zero", form={"name": "eta", "d_of": "eta"}),
         f"checks[2].form: {_EITHER_SPEC}"),
        (_check_probe(kind="frobnicate"), "checks[2].kind: unknown check kind 'frobnicate'"),
        (_check_probe(kind=7), "checks[2].kind: unknown check kind 7"),
        (_check_probe(kind="d_zero", form={"d_of": {"wedge": ["eta", {"d_of": []}]}}),
         "checks[2].form.d_of.wedge[1].d_of: expected a form spec (string or object), got list"),
        (_check_probe(kind="d_zero", form={"eta_terms": [["1", [1], [2], [3]]], "endo": "J"}),
         "checks[2].form.eta_terms[0]: "
         "expected [coefficient, [holo]] or [coefficient, [holo], [anti]], got list"),
        (lambda d: d.update(valuations={"v": {"a": 1, "b": float("nan")}}),
         "valuations.v.b: expected a finite number, got NaN"),
        (lambda d: d.update(symbols=[{"name": "a", "relation": {"power": 2}}]),
         "symbols[0].relation.rhs: missing required parameter"),
        (lambda d: d.update(symbols=[{"name": "a", "relation": ["2", "3"]}]),
         "symbols[0].relation: expected null or an object, got list"),
        (lambda d: d.update(symbols=[{"name": "a", "sign_hint": "big"}]),
         'symbols[0].sign_hint: expected null or "positive" or "negative" or "unknown", got "big"'),
        (lambda d: d["endomorphisms"].update(J=[["1", "0"], "x"]),
         'endomorphisms.J[1]: expected a list, got "x"'),
        (lambda d: d.clear(), "name: missing required parameter"),
    ],
    ids=["leaf", "entry-position", "entry-length", "unknown-key", "unknown-check-key",
         "missing-key", "missing-check-key", "spec-neither", "spec-both", "unknown-kind",
         "kind-not-a-string", "nested-spec", "optional-entry-length", "valuation-number",
         "relation-missing-key", "relation-type", "enum", "matrix-row", "empty-manifest"],
)
def test_manifest_load_error_lines_are_pinned(mutate, message):
    """Each way a manifest can fail its declared types, one per branch of the
    load check, and the exact line of its ManifestError: the first failing
    value in declaration order, named by its path."""
    data = _mini_manifest()
    mutate(data)
    with pytest.raises(ManifestError) as info:
        Manifest.from_json(json.dumps(data))
    assert str(info.value) == message
