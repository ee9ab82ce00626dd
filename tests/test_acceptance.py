"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is designed to finish in well under a minute.
"""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    fraction_rows,
    is_zero_matrix,
    make_at4,
    make_fp_solv8,
    make_hk12,
    mat_mul,
    random_form,
)
from hermitia.builders import builtin, sasaki_kahler_suspension
from hermitia.cealg import wedge, wedge_power
from hermitia.complexops import AlmostComplexStructure, bidegree
from hermitia.hyperbolic import (
    QuadraticLattice,
    char_poly,
    classify,
    invariant_classes,
    poly_eval_matrix,
    power_iterate,
    real_roots_outside_unit,
    refine_interval,
    squarefree_part,
    sturm_chain,
    verify_isometry,
)
from hermitia.manifest import run_check
from hermitia.metrics import (
    HermitianCandidate,
    is_pluriclosed,
    lee_form,
    strong_positivity_certificate,
)


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def _outcome(report, check_id):
    for o in report.outcomes:
        if o.check_id == check_id:
            return o
    raise AssertionError(f"no check {check_id!r} in report")


def test_criterion_1_fp_solv8():
    with criterion(1, "fp_solv8: jacobi, integrability, pluriclosed, torsion +-e1^e2^e3 closed, < 1 s"):
        start = time.perf_counter()
        report = run_check(builtin("fp_solv8"))
        elapsed = time.perf_counter() - start
        assert report.overall == "pass"
        for cid in ("jacobi", "I-integrable", "pluriclosed", "bismut-torsion"):
            assert _outcome(report, cid).verdict == "pass"
        torsion = _outcome(report, "bismut-torsion").detail
        assert torsion["sign"] in ("+", "-")
        assert torsion["d_torsion_zero"] is True
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_2_at4():
    with criterion(2, "AT4: d omega0 != 0, d(omega0^2) = 0, no Lee form, del delbar omega0 != 0"):
        report = run_check(builtin("AT4"))
        assert report.overall == "pass"
        assert _outcome(report, "balanced").verdict == "pass"
        assert _outcome(report, "not-kahler").verdict == "pass"
        assert _outcome(report, "not-pluriclosed").verdict == "pass"
        assert _outcome(report, "lee-form-none").verdict == "pass"
        # directly, in exact arithmetic
        p = make_at4()
        J = AlmostComplexStructure.from_action(p, {1: "e2", 3: "e4", 5: "e6"})
        w0 = p.form([(1, (1, 2)), (1, (3, 4)), (1, (5, 6))])
        assert not p.d(w0).is_zero()
        assert p.d(wedge_power(w0, 2)).is_zero()
        cand = HermitianCandidate(J, w0)
        assert not lee_form(cand).exists
        from hermitia.complexops import del_, delbar

        assert not del_(delbar(w0, J), J).is_zero()


def test_criterion_3_pseudo_hk12():
    with criterion(3, "pseudoHK12: hypercomplex, closed triple, del Omega != 0, del Omega^2 = 0, "
                      "alpha del-exact with primitive, pairing a11+a22"):
        report = run_check(builtin("pseudoHK12"))
        assert report.overall == "pass"
        for cid in (
            "hypercomplex",
            "pseudo-hyperkahler",
            "del-omega20-nonzero",
            "del-omega20-squared-zero",
            "quaternionic-balanced",
            "no-hkt-for-this-form",
            "alpha1-del-exact",
            "alpha2-del-exact",
            "beta-closed",
        ):
            assert _outcome(report, cid).verdict == "pass"
        assert _outcome(report, "alpha1-del-exact").detail.get("primitive")
        pairing = _outcome(report, "obstruction-pairing")
        assert pairing.verdict == "pass"
        assert pairing.detail["pairing"] == "a11+a22"


def test_criterion_4_lemma61():
    with criterion(4, "lemma61: det 1, commutations, isometry, char poly (t^4+6t^2+1)^2, "
                      "spectral radius in (2.41421356, 2.41421357)"):
        report = run_check(builtin("lemma61"))
        assert report.overall == "pass"
        for cid in ("det-one", "A-commutes-I", "A-commutes-J", "A-isometry-h", "char-poly", "spectral-radius"):
            assert _outcome(report, cid).verdict == "pass"
        cp = _outcome(report, "char-poly").detail["char_poly_ascending"]
        assert cp == ["1", "0", "12", "0", "38", "0", "12", "0", "1"]
        lo, hi = _outcome(report, "spectral-radius").detail["certified_interval"]
        assert 2.41421356 < float(lo) and float(hi) < 2.41421357


def test_criterion_5_trichotomy_suite():
    with criterion(5, "trichotomy: canonical hyperbolic/elliptic/parabolic plus 100 random "
                      "isometries, exactly one certified label each"):
        lorentz = QuadraticLattice([[1, 0], [0, -2]])
        pell = [[3, 4], [2, 3]]
        assert classify(pell, lorentz).label == "hyperbolic"
        assert classify([[1, 0], [0, 1]], lorentz).label == "elliptic"
        plat = QuadraticLattice([[0, 0, "1/2"], [0, -1, 0], ["1/2", 0, 0]])
        assert classify([[1, 0, 0], [1, 1, 0], [1, 2, 1]], plat).label == "parabolic"

        rng = random.Random(5005)
        gens = [
            fraction_rows(pell),
            fraction_rows([[3, -4], [-2, 3]]),
            fraction_rows([[1, 0], [0, -1]]),
            fraction_rows([[-1, 0], [0, -1]]),
        ]
        seen = {"hyperbolic": 0, "elliptic": 0, "parabolic": 0}
        for _ in range(100):
            m = fraction_rows([[1, 0], [0, 1]])
            for _k in range(rng.randint(1, 6)):
                m = mat_mul(m, gens[rng.randrange(4)])
            assert verify_isometry(m, lorentz).ok
            label = classify(m, lorentz).label
            seen[label] += 1
            # independent audit: the branch predicates are mutually exclusive
            p = char_poly(m)
            off_unit = bool(real_roots_outside_unit(p, sturm_chain(p)))
            r, _g = squarefree_part(p)
            diagonalizable = is_zero_matrix(poly_eval_matrix(r, m))
            expected = (
                "hyperbolic" if off_unit else "elliptic" if diagonalizable else "parabolic"
            )
            assert label == expected
        assert seen["hyperbolic"] > 0 and seen["elliptic"] > 0


def test_criterion_6_invariant_class_negativity():
    with criterion(6, "50 random hyperbolic isometries of rank-3 lattices: every invariant "
                      "class has exact q < 0"):
        rng = random.Random(6006)
        pell = fraction_rows([[3, 4], [2, 3]])
        pell_inv = fraction_rows([[3, -4], [-2, 3]])
        for _ in range(50):
            c = Fraction(rng.randint(1, 12), rng.randint(1, 5))
            lat = QuadraticLattice([[1, 0, 0], [0, -2, 0], [0, 0, -c]])
            word = pell
            for _k in range(rng.randint(0, 3)):
                word = mat_mul(word, pell if rng.random() < 0.75 else pell_inv)
            if word == ((1, 0), (0, 1)):
                word = pell
            m = [
                [word[0][0], word[0][1], 0],
                [word[1][0], word[1][1], 0],
                [0, 0, 1],
            ]
            rep = invariant_classes(m, lat)
            assert rep.label == "hyperbolic"
            assert rep.negativity_verified
            assert all(q < 0 for q in rep.q_values)
            assert rep.restricted_signature == (0, len(rep.kernel), 0)


def test_criterion_7_power_iteration():
    with criterion(7, "power iteration: residual < 1e-10 within 200 iterations, lambda within "
                      "1e-9 of the isolated root, |q(eta,eta)| < 1e-9"):
        lorentz = QuadraticLattice([[1, 0], [0, -2]])
        pell = [[3, 4], [2, 3]]
        res = power_iterate(pell, lorentz, seed_vector=[1, 0], tol=1e-10, max_iters=200)
        assert res.iterations <= 200
        assert res.residuals[-1] < 1e-10
        cl = classify(pell, lorentz)
        a, b = cl.certificate["lambda_interval"]
        sturm_lambda = (float(a) + float(b)) / 2
        assert abs(res.lam - sturm_lambda) < 1e-9
        assert abs(res.q_value) < 1e-9


def _property_models():
    at4 = make_at4()
    solv8 = make_fp_solv8()
    hk12 = make_hk12()
    at4_J = AlmostComplexStructure.from_action(at4, {1: "e2", 3: "e4", 5: "e6"})
    solv8_I = AlmostComplexStructure.from_action(solv8, {1: "-e2", 3: "e8", 4: "e5", 6: "e7"})
    hk12_I = AlmostComplexStructure.from_action(
        hk12, {"f1": "f3", "f2": "f4", "f5": "-f7", "f6": "-f8", "f9": "f10", "f11": "-f12"}
    )
    return (at4, at4_J), (solv8, solv8_I), (hk12, hk12_I)


N_PROPERTY = 10**4


def test_criterion_8a_d_squared():
    with criterion(8, f"(a) d^2 = 0 on {N_PROPERTY} random forms over the builtin models"):
        models = _property_models()
        rng = random.Random(801)
        syms = {0: ("a",), 1: ("b",), 2: ()}
        for k in range(N_PROPERTY):
            pres, _J = models[k % 3]
            f = random_form(pres, rng, symbol_names=syms[k % 3])
            assert pres.d(pres.d(f)).is_zero()


def test_criterion_8b_leibniz():
    with criterion(8, f"(b) Leibniz rule on {N_PROPERTY} random homogeneous pairs"):
        models = _property_models()
        rng = random.Random(802)
        for k in range(N_PROPERTY):
            pres, _J = models[k % 3]
            p_deg = rng.choice((1, 2))
            x = random_form(pres, rng, max_terms=2, degrees=(p_deg,))
            y = random_form(pres, rng, max_terms=2, degrees=(1, 2, 3))
            lhs = pres.d(wedge(x, y))
            rhs = wedge(pres.d(x), y) + (-1) ** p_deg * wedge(x, pres.d(y))
            assert (lhs - rhs).is_zero()


def test_criterion_8c_dolbeault_identities():
    with criterion(8, f"(c) del^2 = delbar^2 = del delbar + delbar del = 0, {N_PROPERTY} cases"):
        models = _property_models()
        for _pres, J in models:
            J.model()
        rng = random.Random(803)
        for k in range(N_PROPERTY):
            pres, J = models[k % 3]
            model = J.model()
            f = random_form(pres, rng, max_terms=2, degrees=(1, 2))
            cf = model.to_complex(f)
            dl, db = model.d_split_complex(cf)
            dl_dl, dl_db = model.d_split_complex(dl)
            db_dl, db_db = model.d_split_complex(db)
            assert dl_dl.is_zero()
            assert db_db.is_zero()
            assert (dl_db + db_dl).is_zero()


def test_criterion_8d_bidegree_sums():
    with criterion(8, f"(d) bidegree components sum back exactly, {N_PROPERTY} cases"):
        models = _property_models()
        rng = random.Random(804)
        for k in range(N_PROPERTY):
            pres, J = models[k % 3]
            f = random_form(pres, rng, degrees=(1, 2, 3))
            bg = bidegree(f, J)
            assert (bg.total() - f).is_zero()


def test_criterion_8e_conjugation():
    with criterion(8, f"(e) conjugation is an involution swapping (p,q) and (q,p), {N_PROPERTY} cases"):
        models = _property_models()
        rng = random.Random(805)
        for k in range(N_PROPERTY):
            pres, J = models[k % 3]
            model = J.model()
            f = random_form(pres, rng, max_terms=2, degrees=(1, 2, 3))
            conj = f.conjugate()
            assert conj.conjugate() == f
            cf = model.to_complex(f)
            cconj = model.to_complex(conj)
            assert cf.conjugate() == cconj


def test_criterion_9_suspension_construction():
    with criterion(9, "suspension: d omega~ = Phi ^ dt exactly, pluriclosed, and the exact "
                      "weakly positive witness Phi = d eta certified"):
        p = sasaki_kahler_suspension(4)
        itilde = AlmostComplexStructure(p, p.endomorphisms["Itilde"], name="Itilde")
        omega_tilde = p.forms["omega_tilde"]
        phi, dt = p.forms["Phi"], p.forms["dt"]
        assert (p.d(omega_tilde) - wedge(phi, dt)).is_zero()
        cand = HermitianCandidate(itilde, omega_tilde)
        assert is_pluriclosed(cand).passed
        # Harvey-Lawson witness: Phi is exact (= d eta) and strongly positive
        assert (p.d(p.forms["eta"]) - phi).is_zero()
        model = itilde.model()
        cert = strong_positivity_certificate(phi, itilde, [("1/2", (model.eta(2),))])
        assert cert.valid


def test_criterion_10_determinism():
    with criterion(10, "two runs of the full builtin suite with one seed produce byte-identical "
                       "JSON reports (timing excluded)"):
        for name in ("AT4", "fp_solv8", "pseudoHK12", "lemma61"):
            first = run_check(builtin(name), seed=31337).to_json(include_timing=False)
            second = run_check(builtin(name), seed=31337).to_json(include_timing=False)
            assert first == second
            assert '"overall": "pass"' in first
