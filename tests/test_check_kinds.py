"""Verdicts and detail bytes of check kinds that no built-in manifest runs:
``top_coefficient_equals``, the sampling body of ``positivity_falsify`` and
the detail of a ``lee_form`` that exists."""

import json

import pytest

from hermitia.builders import builtin
from hermitia.manifest import Manifest, run_check

VOLUME = {"terms": [["1", ["e1", "e2", "e3", "e4", "e5", "e6"]]]}
TOP_ETA = {"eta_terms": [["1", [1, 2, 3], [1, 2, 3]]], "endo": "J"}
MINUS_OMEGA = {"combo": [["-1", "omega0"]]}
VIOLATION = (
    '{"samples": 1, "status": "violation", "value": -0.5, "witness": '
    "[[[0.576766332128, -0.250514704203], [-0.722234179108, -0.0824405076658], "
    "[0.118155264344, 0.249406631496]]]}"
)
ETA_VIOLATION = (
    '{"samples": 1, "status": "violation", "value": -0.395417018898, "witness": '
    "[[[0.576766332128, -0.250514704203], [-0.722234179108, -0.0824405076658], "
    "[0.118155264344, 0.249406631496]]]}"
)
LEE_DETAIL = '{"d_theta_zero": true, "theta": [], "unique": true}'

FLAT4 = {
    "schema": "hermitia-manifest/1",
    "name": "flat4",
    "comment": "",
    "symbols": [],
    "dimension": 4,
    "basis": ["e1", "e2", "e3", "e4"],
    "differential": {},
    "endomorphisms": {"J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                            ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "bilinears": {},
    "forms": {"omega": [["1", ["e1", "e2"]], ["1", ["e3", "e4"]]]},
    "valuations": {},
}


def _outcome(data, check):
    """The verdict and the detail, as sorted JSON, of ``check`` run on the
    manifest ``data`` after its Jacobi gate."""
    data = dict(data, checks=[{"id": "jacobi", "kind": "jacobi"}, {"id": "probe", **check}])
    (outcome,) = [o for o in run_check(Manifest(data)).outcomes if o.check_id == "probe"]
    return outcome.verdict, json.dumps(outcome.detail, sort_keys=True)


@pytest.fixture(scope="module")
def at4():
    return json.loads(builtin("AT4").to_json())


@pytest.mark.parametrize(
    "form, volume, expect, verdict, coefficient",
    [
        # z1^z2^z3^zb1^zb2^zb3 against the real volume e1^..^e6
        (TOP_ETA, VOLUME, "-8*i", "pass", "-8*i"),
        (TOP_ETA, VOLUME, "8*i", "fail", "-8*i"),
        ({"power": 3, "base": "omega0"}, VOLUME, "6", "pass", "6"),
        # both in the coframe of J, where they are compared in place
        (TOP_ETA, {"eta_terms": [["2", [1, 2, 3], [1, 2, 3]]], "endo": "J"}, "1/2", "pass", "1/2"),
    ],
    ids=["eta-terms", "eta-terms-wrong", "omega-cubed", "one-coframe"],
)
def test_top_coefficient_equals(at4, form, volume, expect, verdict, coefficient):
    check = {"kind": "top_coefficient_equals", "form": form, "volume": volume, "expect": expect}
    assert _outcome(at4, check) == (verdict, json.dumps({"coefficient": coefficient}))


@pytest.mark.parametrize(
    "form, expect, verdict, detail",
    [
        (MINUS_OMEGA, "violation", "pass", VIOLATION),
        (MINUS_OMEGA, "no_violation", "fail", VIOLATION),
        ("omega0", "no_violation", "pass",
         '{"note": "sampling evidence only; positivity is not certified", '
         '"samples": 10, "status": "no_violation"}'),
        # i z1^zb1 and its negative, sampled in the coframe of J
        ({"eta_terms": [["-i", [1], [1]]], "endo": "J"}, "violation", "pass", ETA_VIOLATION),
        ({"eta_terms": [["i", [1], [1]]], "endo": "J"}, "violation", "fail",
         '{"samples": 10, "status": "no_violation"}'),
    ],
    ids=["seeded-violation", "unexpected-violation", "no-violation", "coframe-violation",
         "coframe-no-violation"],
)
def test_positivity_falsify_samples(at4, form, expect, verdict, detail):
    """-omega0 is violated by the first draw of seed 3; omega0 survives all
    ten draws, and its pass says that it is sampling evidence only."""
    check = {"kind": "positivity_falsify", "form": form, "endo": "J", "samples": 10, "seed": 3,
             "expect": expect}
    assert _outcome(at4, check) == (verdict, detail)


@pytest.mark.parametrize("expect, verdict", [("zero", "pass"), ("any", "pass"), ("none", "fail")])
def test_lee_form_of_a_closed_omega(expect, verdict):
    """A closed omega on the flat R^4 has the unique Lee form 0, reported
    with its theta, d theta and uniqueness whatever the expectation."""
    check = {"kind": "lee_form", "omega": "omega", "endo": "J", "expect": expect}
    assert _outcome(FLAT4, check) == (verdict, LEE_DETAIL)
