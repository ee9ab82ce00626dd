"""The paper's claims ledger: one test per claim of the abstract of
arXiv 2208.12168.

Each test first asserts the part of its claim that today's checks decide,
then stops at the first capability the claim still needs, raising
``Undecided``.  The test is a strict xfail that names the ROADMAP items
that would supply the capability, so it fails (XPASS) on the day they land,
and its marker must then go.  Only ``Undecided`` is expected: a decided part
that fails is a real failure."""

from fractions import Fraction

import pytest
from conftest import perfbench

from hermitia import builders, manifest
from hermitia.builders import builtin, sasaki_kahler_suspension
from hermitia.complexops import AlmostComplexStructure
from hermitia.hyperbolic import (
    QuadraticLattice,
    char_poly,
    classify,
    invariant_classes,
    spectral_radius_interval,
)
from hermitia.metrics import HermitianCandidate, is_pluriclosed


class Undecided(Exception):
    """A claim needs a capability that hermitia does not have yet."""


def needs(*capabilities):
    """Raise ``Undecided`` unless every capability exists: a name is a
    builder of ``hermitia.builders``, or a check kind when it starts with
    ``kind:``."""
    missing = [
        name for name in capabilities
        if not (name[5:] in manifest._KINDS if name.startswith("kind:")
                else hasattr(builders, name))
    ]
    if missing:
        raise Undecided(f"missing: {', '.join(missing)}")


def verdicts(name):
    """{check id: verdict} of the built-in manifest ``name``."""
    return {o.check_id: o.verdict for o in manifest.run_check(builtin(name)).outcomes}


@pytest.mark.xfail(strict=True, raises=Undecided, reason=(
    "toric suspensions (item 12) of tori by integer matrices (item 9), and "
    "deciding that a balanced metric exists (item 7)"))
def test_toric_suspensions_of_calabi_yau_manifolds_are_balanced():
    """Claim: toric suspensions of Calabi-Yau manifolds are balanced.

    Decided today, on one model: AT4, the suspension of a flat 4-torus, has
    a balanced omega0 that is neither Kahler nor pluriclosed.  Not decided:
    any suspension hermitia builds itself, and existence of a balanced
    metric on one that is not typed in."""
    got = verdicts("AT4")
    assert [got[c] for c in ("balanced", "not-kahler", "not-pluriclosed")] == ["pass"] * 3
    needs("suspension", "torus_suspension", "kind:admits")


@pytest.mark.xfail(strict=True, raises=Undecided, reason=(
    "suspensions of tori by hyperbolic integer matrices (item 9) and "
    "deciding that no pluriclosed, astheno-Kahler or p-pluriclosed metric "
    "exists (item 7)"))
def test_hyperbolic_hyperkahler_suspensions_admit_no_pluriclosed_metric():
    """Claim: suspensions by hyperbolic automorphisms of hyperkahler
    manifolds admit no pluriclosed, astheno-Kahler or p-pluriclosed metric.

    Decided today, on the lattice side: on every hyperbolic isometry of the
    lattices benchmark (seeds 7 and 11, 9 of the 17 inputs of each cycle)
    the form is negative definite on the invariant classes, so no invariant
    class has a nonnegative square, a Kahler class least of all.  Not
    decided: any metric on a suspension, nor the step from lattice classes
    to metrics."""
    for seed in (7, 11):
        hyperbolic = 0
        for inp in perfbench("workloads").Lattices(seed).cycle():
            gram, m = inp.payload["gram"], inp.payload["matrix"]
            if classify(m, QuadraticLattice(gram)).label != "hyperbolic":
                continue
            hyperbolic += 1
            report = invariant_classes(m, QuadraticLattice(gram))
            assert report.negativity_verified is True
            assert report.invariant_positive_class_possible is False
        assert hyperbolic == 9
    needs("torus_suspension", "kind:admits")


@pytest.mark.xfail(strict=True, raises=Undecided, reason=(
    "the hypercomplex suspension of a quaternionic matrix (item 10) and "
    "exact cohomology for non-Kahlerness (item 15)"))
def test_hypercomplex_and_holomorphic_symplectic_non_kahler_examples():
    """Claim: explicit compact holomorphic symplectic and hypercomplex
    non-Kahler manifolds.

    Decided today, on the two halves typed in separately: pseudoHK12 is
    hypercomplex and pseudo-hyperkahler, and its obstruction pairing is
    a11 + a22; lemma61's integer matrix A commutes with I, J and K, has
    determinant 1 and spectral radius 1 + sqrt 2 (its characteristic
    polynomial is (t^4 + 6 t^2 + 1)^2, whose roots have absolute values
    sqrt 2 + 1 and sqrt 2 - 1, and the certified interval holds 1 + sqrt 2).
    Not decided: that the suspension of A is pseudoHK12, a compact quotient,
    and non-Kahlerness from cohomology."""
    got = verdicts("pseudoHK12")
    assert [got[c] for c in ("hypercomplex", "pseudo-hyperkahler", "obstruction-pairing")] == [
        "pass"] * 3
    got = verdicts("lemma61")
    checks = ("hypercomplex", "A-commutes-I", "A-commutes-J", "A-commutes-K", "det-one")
    assert [got[c] for c in checks] == ["pass"] * len(checks)
    a = builtin("lemma61").endomorphisms["A"]
    assert char_poly(a) == [Fraction(c) for c in (1, 0, 12, 0, 38, 0, 12, 0, 1)]
    lo, hi = spectral_radius_interval(a)
    # lo <= 1 + sqrt 2 <= hi, exactly
    assert (lo - 1 < 0 or (lo - 1) ** 2 <= 2) and hi > 1 and (hi - 1) ** 2 >= 2
    needs("hypercomplex_suspension", "kind:betti")


@pytest.mark.xfail(strict=True, raises=Undecided, reason=(
    "the modified (half-plane) suspension (item 16) over item 12's builder, "
    "with pluriclosed existence decided by item 7"))
def test_a_modified_suspension_has_pluriclosed_metrics():
    """Claim: a modified suspension construction gives examples with
    pluriclosed metrics.

    Decided today: the given omega-tilde of ``sasaki_kahler_suspension(k)``,
    a Heisenberg contact model times a flat Kahler block and a closed
    direction, is pluriclosed for k = 0, 2, 4.  Not decided: that this is
    the paper's modified construction, which PAPER.md does not carry, and
    any modified suspension of a hyperbolic fibre."""
    for k in (0, 2, 4):
        p = sasaki_kahler_suspension(k)
        itilde = AlmostComplexStructure(p, p.endomorphisms["Itilde"], name="Itilde")
        assert is_pluriclosed(HermitianCandidate(itilde, p.forms["omega_tilde"])).passed
    needs("suspension", "kind:admits")
