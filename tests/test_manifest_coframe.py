"""Form specs resolved in the (1,0)-coframe: the real forms they stand for,
the real generator names in reports, and fail-closed coframe indices."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.builders import builtin
from hermitia.cealg import Form, wedge_all, wedge_power
from hermitia.complexops import real_basis
from hermitia.manifest import Manifest, run_check


@pytest.fixture(scope="module")
def hk12_ctx():
    return builtin("pseudoHK12").build()


def _real_resolution(ctx, spec):
    """Every spec resolved in the real basis, as before coframe resolution:
    an eta_terms entry is converted on its own and the sum is taken there."""
    if isinstance(spec, str):
        return ctx.attached("forms", spec)
    if "terms" in spec:
        return ctx.resolve_form(spec)
    if "eta_terms" in spec:
        model = ctx.acs(spec["endo"]).model()
        out = Form.zero(ctx.presentation)
        for coeff, holo, *anti in spec["eta_terms"]:
            mono = model.eta_monomial(tuple(holo), tuple(anti[0]) if anti else ())
            out = out + ctx.table.scalar(coeff) * model.to_real(mono)
        return out
    if "d_of" in spec:
        return ctx.presentation.d(_real_resolution(ctx, spec["d_of"]))
    if "wedge" in spec:
        return wedge_all([_real_resolution(ctx, s) for s in spec["wedge"]])
    if "power" in spec:
        return wedge_power(_real_resolution(ctx, spec["base"]), spec["power"])
    out = Form.zero(ctx.presentation)
    for coeff, sub in spec["combo"]:
        out = out + ctx.table.scalar(coeff) * _real_resolution(ctx, sub)
    return out


COEFFS = st.sampled_from(["1", "-1", "2", "i", "1/2-i", "-3*i"])
INDICES = st.lists(st.integers(1, 6), max_size=2, unique=True)
ETA_ENTRY = st.one_of(
    st.tuples(COEFFS, INDICES).map(list),
    st.tuples(COEFFS, INDICES, st.lists(st.integers(1, 6), max_size=1)).map(list),
)
LEAF = st.one_of(
    st.sampled_from(["omega_I", "omega_J", "omega_K"]),
    st.builds(
        lambda terms: {"terms": terms},
        st.lists(
            st.tuples(COEFFS, st.lists(st.sampled_from([f"f{k}" for k in range(1, 13)]),
                                       min_size=1, max_size=2, unique=True)).map(list),
            min_size=1, max_size=2,
        ),
    ),
    st.builds(
        lambda terms, endo: {"eta_terms": terms, "endo": endo},
        st.lists(ETA_ENTRY, min_size=1, max_size=3),
        st.sampled_from(["I", "J", "K"]),
    ),
)
SPEC = st.one_of(
    LEAF,
    LEAF.map(lambda s: {"d_of": s}),
    st.lists(LEAF, min_size=2, max_size=2).map(lambda ss: {"wedge": ss}),
    LEAF.map(lambda s: {"power": 2, "base": s}),
    st.lists(st.tuples(COEFFS, LEAF).map(list), min_size=1, max_size=3).map(
        lambda parts: {"combo": parts}
    ),
)


@settings(max_examples=150, deadline=None)
@given(spec=SPEC)
def test_coframe_resolution_is_the_real_resolution(hk12_ctx, spec):
    assert real_basis(hk12_ctx.resolve_form(spec)) == _real_resolution(hk12_ctx, spec)


def test_eta_terms_stay_in_the_coframe(hk12_ctx):
    model = hk12_ctx.acs("I").model()
    spec = {"eta_terms": [["1", [1, 3]], ["1", [2, 4]], ["1", [5, 6]]], "endo": "I"}
    form = hk12_ctx.resolve_form(spec)
    assert form.presentation is model and len(form.terms) == 3
    assert hk12_ctx.resolve_form({"power": 2, "base": spec}).presentation is model
    mixed = hk12_ctx.resolve_form({"combo": [["1", spec], ["1", "omega_J"]]})
    assert mixed.presentation is hk12_ctx.presentation


# Verdicts and details on pseudoHK12 as recorded when eta_terms specs were
# resolved in the real basis: failing outputs name the real generators.
OMEGA20 = [["1", [1, 3]], ["1", [2, 4]], ["1", [5, 6]]]
REAL_NAMED = [
    (
        {"kind": "del_zero", "form": {"eta_terms": OMEGA20, "endo": "I"}, "endo": "I"},
        "fail",
        {"residual": [
            ["-1", ["f1", "f5", "f9"]], ["-i", ["f1", "f5", "f10"]], ["i", ["f1", "f7", "f9"]],
            ["-1", ["f1", "f7", "f10"]], ["1", ["f2", "f6", "f9"]], ["i", ["f2", "f6", "f10"]],
            ["-i", ["f2", "f8", "f9"]], ["1", ["f2", "f8", "f10"]], ["-i", ["f3", "f5", "f9"]],
            ["1", ["f3", "f5", "f10"]], ["-1", ["f3", "f7", "f9"]], ["-i", ["f3", "f7", "f10"]],
            ["i", ["f4", "f6", "f9"]], ["-1", ["f4", "f6", "f10"]], ["1", ["f4", "f8", "f9"]],
            ["i", ["f4", "f8", "f10"]],
        ]},
    ),
    (
        {"kind": "d_zero", "form": {"eta_terms": [["1", [1]], ["i", [2], [3]]], "endo": "I"}},
        "fail",
        {"residual": [["1", ["f1", "f9"]], ["i", ["f3", "f9"]]]},
    ),
    (
        {"kind": "form_equals", "lhs": {"eta_terms": [["1", [1]]], "endo": "I"},
         "rhs": {"terms": [["1", ["f1"]]]}},
        "fail",
        {"difference": [["i", ["f3"]]]},
    ),
    (
        # both sides in the coframe of I: the difference is taken there
        {"kind": "form_equals", "lhs": {"eta_terms": [["1", [1]], ["2", [2, 3]]], "endo": "I"},
         "rhs": {"eta_terms": [["1", [2]], ["2", [2, 3]]], "endo": "I"}},
        "fail",
        {"difference": [["1", ["f1"]], ["-1", ["f2"]], ["i", ["f3"]], ["-i", ["f4"]]]},
    ),
    (
        {"kind": "del_exact", "form": {"eta_terms": [["1", [1, 3, 5, 6]]], "endo": "I"},
         "endo": "I"},
        "pass",
        {"primitive": [
            ["-1", ["f1", "f5", "f11"]], ["i", ["f1", "f5", "f12"]], ["i", ["f1", "f7", "f11"]],
            ["1", ["f1", "f7", "f12"]], ["-i", ["f3", "f5", "f11"]], ["-1", ["f3", "f5", "f12"]],
            ["-1", ["f3", "f7", "f11"]], ["i", ["f3", "f7", "f12"]],
        ]},
    ),
    (
        # a form built in the coframe of I, tested by del of J
        {"kind": "del_zero", "form": {"eta_terms": [["1", [1]]], "endo": "I"}, "endo": "J"},
        "fail",
        {"residual": [
            ["1/2", ["f1", "f9"]], ["1/2*i", ["f1", "f11"]], ["1/2*i", ["f3", "f9"]],
            ["-1/2", ["f3", "f11"]],
        ]},
    ),
    (
        {"kind": "d_equals", "form": {"eta_terms": [["1", [1]]], "endo": "I"},
         "equals": {"eta_terms": [["1", [1, 5]]], "endo": "J"}},
        "fail",
        {"difference": [
            ["-i", ["f1", "f11"]], ["i", ["f3", "f9"]], ["-i", ["f5", "f9"]], ["1", ["f5", "f11"]],
        ]},
    ),
]


def _run_one(check):
    data = json.loads(builtin("pseudoHK12").to_json())
    data["checks"] = [data["checks"][0], {"id": "probe", **check}]
    return run_check(Manifest(data), only="probe").outcomes[-1]


@pytest.mark.parametrize("check, verdict, detail", REAL_NAMED,
                         ids=["del_zero", "d_zero", "form_equals", "form_equals-one-coframe",
                              "del_exact", "del_zero-other-endo", "d_equals-two-coframes"])
def test_coframe_spec_reports_use_real_names(check, verdict, detail):
    outcome = _run_one(check)
    assert (outcome.verdict, outcome.detail) == (verdict, detail)
