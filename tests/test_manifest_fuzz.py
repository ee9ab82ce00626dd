"""Mutated built-in manifests through ``hermitia check``.

Whatever the mutation (a dropped key, a value of another JSON type, a
misspelled check key, a random coefficient string, reducible symbol
relations), the command exits 0, 1 or 2 with no exception escaping; a load
error is one line and a report is valid JSON.  No check ends in run_check's
last resort: every malformed value is refused at load, and every run-time
error is a typed one with its own message."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermitia.builders import BUILTIN_NAMES, builtin
from hermitia.cli import main

BUILTINS = {name: json.loads(builtin(name).to_json()) for name in BUILTIN_NAMES}
# run_check's last resort reports "TypeName: message" for an exception no
# handler foresaw; every foreseen error's reason begins in lower case
LAST_RESORT = re.compile(r"[A-Z]\w*: ")

JSON_BY_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 12),
    float: st.floats(allow_nan=True, allow_infinity=True),
    str: st.sampled_from(["", "e1", "J", "omega0", "none", "1/2", "true"]),
    list: st.lists(st.one_of(st.integers(-2, 2), st.sampled_from(["1", "e1"])), max_size=3),
    dict: st.dictionaries(st.sampled_from(["name", "terms", "x"]), st.integers(0, 2), max_size=2),
}


def _coefficients(symbols):
    """Expressions in the COEFF grammar over ``symbols``, ``s``, ``t``, ``i``
    and an undeclared name, plus short strings that rarely parse."""
    atoms = st.one_of(
        st.integers(0, 5).map(str), st.sampled_from(["i", "s", "t", "undeclared", *symbols])
    )
    exprs = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda x: f"-{x}"),
        ),
        max_leaves=5,
    )
    return st.one_of(exprs, st.text(alphabet="0123456789+-*/^()ist ", max_size=6))


def _paths(value, path=()):
    """The path of every value nested in ``value``."""
    if path:
        yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, path + (key,))


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def _mutate(data, draw):
    """Apply one drawn mutation to ``data``; return the index of the check it
    touched (or None) and the misspelled key it added to that check (or
    None)."""
    kind = draw(st.sampled_from(["drop", "retype", "misspell", "coeff", "reducible"]))
    symbols = data.get("symbols")
    if kind == "reducible":
        data["symbols"] = (symbols if isinstance(symbols, list) else []) + [
            {"name": name, "relation": {"power": 2, "rhs": "2"}} for name in ("s", "t")
        ]
        return None, None
    checks = data.get("checks")
    if kind == "misspell":
        if not isinstance(checks, list) or not checks:
            return None, None
        k = draw(st.integers(0, len(checks) - 1))
        if not isinstance(checks[k], dict) or not checks[k]:
            return None, None
        key = draw(st.sampled_from(sorted(checks[k])))
        typo = draw(st.sampled_from([key + "s", key[:-1], key.upper() + "_", "expected"]))
        if typo in checks[k]:
            return None, None
        checks[k][typo] = checks[k][key]
        return k, typo
    all_paths = list(_paths(data))
    check_paths = [p for p in all_paths if p[0] == "checks"] or all_paths
    path = draw(st.sampled_from(draw(st.sampled_from([check_paths, all_paths]))))
    parent, key = _get(data, path[:-1]), path[-1]
    if kind == "drop":
        if not isinstance(parent, dict):
            return None, None
        del parent[key]
    elif kind == "retype":
        others = [t for t in JSON_BY_TYPE if t is not type(parent[key])]
        parent[key] = draw(st.sampled_from(others).flatmap(JSON_BY_TYPE.get))
    else:
        entries = symbols if isinstance(symbols, list) else []
        names = [s["name"] for s in entries if isinstance(s, dict) and isinstance(s.get("name"), str)]
        parent[key] = draw(_coefficients(names))
    in_check = path[0] == "checks" and isinstance(checks, list) and len(path) > 1
    return (path[1] if in_check else None), None


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "manifest.json"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_check_mutated_builtin_fails_closed(name, manifest_path, data):
    manifest = json.loads(json.dumps(BUILTINS[name]))
    ids = [c["id"] for c in manifest["checks"]]
    touched, typos = None, []
    for _ in range(data.draw(st.integers(1, 2))):
        k, typo = _mutate(manifest, data.draw)
        touched = k if k is not None else touched
        typos += [(k, typo)] if typo else []
    manifest_path.write_text(json.dumps(manifest))
    args = ["check", str(manifest_path), "--report", "json", "--no-timing"]
    if touched is not None:
        args += ["--only", ids[touched]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        checks = manifest.get("checks")  # a misspelled key still present must not load
        assert not any(typo in checks[k] for k, typo in typos if isinstance(checks, list))
        report = json.loads(out.getvalue())
        assert report["overall"] == ("pass" if code == 0 else "fail")
        reasons = [c["detail"].get("reason", "") for c in report["checks"] if c["verdict"] == "error"]
        assert not any(LAST_RESORT.match(r) for r in reasons), reasons

