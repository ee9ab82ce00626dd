"""Model constructors and the built-in manifests."""

import json

import pytest

from hermitia.builders import (
    BUILTIN_NAMES,
    BuilderError,
    almost_abelian,
    builtin,
    heisenberg3,
    sasaki_kahler_suspension,
)
from hermitia.cealg import abelian, wedge, wedge_power
from hermitia.complexops import AlmostComplexStructure
from hermitia.manifest import Manifest, run_check
from hermitia.metrics import HermitianCandidate, is_pluriclosed, strong_positivity_certificate
from hermitia.scalars import Symbol, SymbolTable


def test_almost_abelian_at4_structure_equations():
    t = SymbolTable([Symbol("a")])
    a = t.symbol("a")
    p = almost_abelian([[a, 0, 0, 0], [0, a, 0, 0], [0, 0, -a, 0], [0, 0, 0, -a]], flat_extra=1, table=t)
    assert p.dim == 6
    assert p.jacobi_check().passed
    assert p.d(p.generator(1)) == p.form([("a", (1, 5))])
    assert p.d(p.generator(4)) == p.form([("-a", (4, 5))])
    assert p.d(p.generator(5)).is_zero() and p.d(p.generator(6)).is_zero()
    assert p.metadata["trace_zero"]
    assert not p.metadata["nilpotent_derivation"]


def test_almost_abelian_remark_model_up_to_relabeling():
    d = [[0] * 8 for _ in range(8)]
    for k in range(8):
        d[k][k] = 1 if k % 2 == 0 else -1
    p = almost_abelian(d, flat_extra=3, name_prefix="f")
    assert p.dim == 12
    assert p.names[8] == "f9"
    for i in (1, 3, 5, 7):
        assert p.d(p.generator(i)) == p.form([(1, (i, 9))])
    for j in (2, 4, 6, 8):
        assert p.d(p.generator(j)) == p.form([(-1, (j, 9))])
    for k in (9, 10, 11, 12):
        assert p.d(p.generator(k)).is_zero()


def test_almost_abelian_zero_derivation_is_abelian():
    p = almost_abelian([[0, 0], [0, 0]], flat_extra=3)
    assert p.dim == 6
    assert all(p.d(p.generator(k)).is_zero() for k in range(1, 7))
    assert p.metadata["nilpotent_derivation"]


def test_almost_abelian_ad_action_matches_derivation():
    # the suspension generator acts on the ideal with the given matrix D
    t = SymbolTable([Symbol("a")])
    a = t.symbol("a")
    D = [[a, 1, 0, 0], [0, a, 0, 0], [0, 0, -a, 0], [0, 0, 0, -a]]
    p = almost_abelian(D, table=t)
    susp = 5
    for j in range(1, 5):
        # [e_susp, e_j] = sum_i D_ij e_i
        bracket = p.bracket_coefficients(susp, j)
        expected = [D[i][j - 1] if isinstance(D[i][j - 1], type(a)) else t.scalar(D[i][j - 1]) for i in range(4)]
        for i in range(4):
            assert (bracket[i] - expected[i]).is_zero()


def test_heisenberg3():
    h = heisenberg3()
    assert h.d(h.generator(1)) == h.form([(1, (2, 3))])
    assert h.forms["Phi"] == h.form([(1, (2, 3))])
    assert h.forms["contact"] == h.generator(1)


def test_sasaki_kahler_suspension_4():
    p = sasaki_kahler_suspension(4)
    assert p.dim == 8
    omega_tilde = p.forms["omega_tilde"]
    phi, dt = p.forms["Phi"], p.forms["dt"]
    assert (p.d(omega_tilde) - wedge(phi, dt)).is_zero()
    itilde = AlmostComplexStructure(p, p.endomorphisms["Itilde"], name="Itilde")
    cand = HermitianCandidate(itilde, omega_tilde)
    assert is_pluriclosed(cand).passed


def test_sasaki_kahler_suspension_0_still_pluriclosed():
    p = sasaki_kahler_suspension(0)
    assert p.dim == 4
    itilde = AlmostComplexStructure(p, p.endomorphisms["Itilde"], name="Itilde")
    cand = HermitianCandidate(itilde, p.forms["omega_tilde"])
    assert is_pluriclosed(cand).passed


def test_sasaki_kahler_bismut_torsion_closed():
    from hermitia.metrics import bismut_torsion

    p = sasaki_kahler_suspension(4)
    itilde = AlmostComplexStructure(p, p.endomorphisms["Itilde"], name="Itilde")
    cand = HermitianCandidate(itilde, p.forms["omega_tilde"])
    t, dt = bismut_torsion(cand)
    assert not t.is_zero()
    assert dt.is_zero()


def test_sasaki_kahler_harvey_lawson_witness():
    p = sasaki_kahler_suspension(4)
    itilde = AlmostComplexStructure(p, p.endomorphisms["Itilde"], name="Itilde")
    phi = p.forms["Phi"]
    # Phi = d eta is exact ...
    assert (p.d(p.forms["eta"]) - phi).is_zero()
    # ... and weakly positive: rank one certificate over the coframe
    model = itilde.model()
    cert = strong_positivity_certificate(phi, itilde, [("1/2", (model.eta(2),))])
    assert cert.valid


def test_sasaki_kahler_rejects_odd_dimension():
    with pytest.raises(BuilderError):
        sasaki_kahler_suspension(3)


def test_lemma61_automorphism_checks():
    """lemma61's A has determinant 1, commutes with I, J and K and is an
    isometry of h, as its own checks decide; with A's (1,1) entry negated
    the isometry check fails."""
    data = json.loads(builtin("lemma61").to_json())
    wanted = {"det-one", "A-commutes-I", "A-commutes-J", "A-commutes-K", "A-isometry-h"}
    data["checks"] = [c for c in data["checks"] if c["id"] in wanted]
    verdicts = {o.check_id: o.verdict for o in run_check(Manifest(data)).outcomes}
    assert verdicts == {"jacobi-gate": "pass", **dict.fromkeys(wanted, "pass")}
    a = data["endomorphisms"]["A"]
    a[0][0] = str(-int(a[0][0]))
    verdicts = {o.check_id: o.verdict for o in run_check(Manifest(data)).outcomes}
    assert verdicts["A-isometry-h"] == "fail"


def test_builtin_unknown_name():
    with pytest.raises(BuilderError):
        builtin("nope")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_all_checks_pass(name):
    report = run_check(builtin(name))
    failing = [o for o in report.outcomes if o.verdict != "pass"]
    assert report.overall == "pass", failing


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_byte_stable(name):
    m = builtin(name)
    text = m.to_json()
    reparsed = Manifest.from_json(text)
    assert reparsed.to_json() == text


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_roundtrip_same_verdicts(name):
    m = builtin(name)
    direct = run_check(m, seed=7)
    via_json = run_check(Manifest.from_json(m.to_json()), seed=7)
    assert direct.to_json(include_timing=False) == via_json.to_json(include_timing=False)
