"""Constructors for the library's models: almost-abelian suspension algebras,
the Sasakian x Kahler pluriclosed suspension, and the four built-in example
manifests ("AT4", "fp_solv8", "pseudoHK12", "lemma61").

Built-in manifests are generated as plain data so that serializing and
re-parsing yields byte-identical canonical manifests; every built-in passes
all of its declared checks.
"""

from __future__ import annotations

from . import linear
from .cealg import LieAlgebraPresentation, wedge
from .complexops import AlmostComplexStructure
from .manifest import Manifest
from .scalars import SymbolTable

BUILTIN_NAMES = ("AT4", "fp_solv8", "pseudoHK12", "lemma61")


class BuilderError(ValueError):
    pass


def almost_abelian(derivation, flat_extra=0, table=None, name_prefix="e"):
    """The extension of an abelian ideal by one derivation direction, plus
    optional flat extra directions.

    For an m x m derivation matrix D the result has dimension m + 1 + k with
    the ideal duals first, the suspension direction at index m + 1 and the
    flat extras after it; the structure equations are de^i = sum_j D_ij
    e^j ^ e^(m+1), which makes the bracket of the suspension generator act on
    the ideal exactly by D.  The report flags nilpotency of D and whether
    trace D = 0 (a necessary condition for a compact quotient, informational).
    """
    m = len(derivation)
    if any(len(r) != m for r in derivation):
        raise BuilderError("derivation matrix must be square")
    if table is None:
        table = SymbolTable()
    dim = m + 1 + flat_extra
    names = tuple(f"{name_prefix}{k}" for k in range(1, dim + 1))
    dmat = tuple(tuple(table.scalar(x) for x in r) for r in derivation)
    susp = m + 1
    differential = {}
    for i in range(m):
        terms = []
        for j in range(m):
            c = dmat[i][j]
            if not c.is_zero():
                terms.append((c, (j + 1, susp)))
        if terms:
            differential[i + 1] = terms
    pres = LieAlgebraPresentation(dim, differential, names=names, table=table)
    pres.require_jacobi()
    # informational flags
    tr = table.zero
    for k in range(m):
        tr = tr + dmat[k][k]
    power = dmat
    nilpotent = False
    for _ in range(m):
        power = linear.mat_mul(power, dmat, table)
        if linear.is_zero_matrix(power):
            nilpotent = True
            break
    pres.endomorphisms["D_ideal"] = _embed_top_left(dmat, dim, table)
    meta = {"trace_zero": tr.is_zero(), "nilpotent_derivation": nilpotent}
    pres.metadata = meta
    return pres


def _embed_top_left(mat, dim, table):
    zero = table.zero
    k = len(mat)
    return tuple(
        tuple(mat[i][j] if i < k and j < k else zero for j in range(dim))
        for i in range(dim)
    )


def heisenberg3(table=None) -> LieAlgebraPresentation:
    """The 3-dimensional Heisenberg algebra with its contact form e1 and the
    curvature form Phi = d e1 = e2 ^ e3 attached."""
    pres = LieAlgebraPresentation(3, {1: [(1, (2, 3))]}, table=table)
    pres.forms["contact"] = pres.generator(1)
    pres.forms["Phi"] = pres.d_of_generator(1)
    return pres


def sasaki_kahler_suspension(kahler_dim: int) -> LieAlgebraPresentation:
    """The product of the Heisenberg contact model with a flat Kahler block
    and one extra closed direction t, carrying the complex structure that
    rotates the contact direction into t.

    Attaches: contact form "eta" (= e1), "Phi" (= d e1), "dt" (the last
    generator), the Kahler block form "omega_base", the combined form
    "omega_tilde" = eta ^ dt + d eta + omega_base, and the endomorphism
    "Itilde".  The identity d omega_tilde = Phi ^ dt is verified before
    returning.
    """
    if kahler_dim < 0 or kahler_dim % 2:
        raise BuilderError("the Kahler block needs even nonnegative dimension")
    dim = 3 + kahler_dim + 1
    pres = LieAlgebraPresentation(dim, {1: [(1, (2, 3))]})
    t_idx = dim
    eta = pres.generator(1)
    phi = pres.d_of_generator(1)
    dt = pres.generator(t_idx)
    pairs = [(a, a + 1) for a in range(4, 4 + kahler_dim, 2)]
    omega_base = pres.form([(1, pair) for pair in pairs])
    omega_tilde = wedge(eta, dt) + phi + omega_base
    action = {1: (1, t_idx), 2: (1, 3), **{a: (1, b) for a, b in pairs}}
    itilde = AlmostComplexStructure.from_action(pres, action, name="Itilde")
    check = pres.d(omega_tilde) - wedge(phi, dt)
    if not check.is_zero():
        raise BuilderError("internal verification failed: d omega_tilde != Phi ^ dt")
    pres.forms["eta"] = eta
    pres.forms["Phi"] = phi
    pres.forms["dt"] = dt
    pres.forms["omega_base"] = omega_base
    pres.forms["omega_tilde"] = omega_tilde
    pres.endomorphisms["Itilde"] = itilde.matrix
    return pres


# ---------------------------------------------------------------------------
# built-in manifests
# ---------------------------------------------------------------------------


def builtin(name: str) -> Manifest:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise BuilderError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return Manifest(factory())


def _sparse(n, entries):
    """An n x n matrix of coefficient strings: "0" except at the 1-based
    ``(row, column): value`` entries."""
    m = [["0"] * n for _ in range(n)]
    for (i, j), v in entries.items():
        m[i - 1][j - 1] = v
    return m


def _at4_manifest():
    basis = [f"e{k}" for k in range(1, 7)]
    return {
        "schema": "hermitia-manifest/1",
        "name": "AT4",
        "comment": (
            "Mapping-torus model of a flat 4-torus under a volume-preserving "
            "hyperbolic automorphism with weights (a, a, -a, -a); the weight a "
            "stays a free symbol because every checked identity holds for all "
            "a. The optional valuation sets a = log((3+sqrt 5)/2) for the "
            "matrix [[2,1],[1,1]] acting diagonally on two complex lines. "
            "omega0 is balanced but neither Kahler nor pluriclosed, and the "
            "conformally Kahler equation has no solution."
        ),
        "symbols": [{"name": "a", "relation": None, "sign_hint": "positive"}],
        "dimension": 6,
        "basis": basis,
        "differential": {
            "e1": [["a", ["e1", "e5"]]],
            "e2": [["a", ["e2", "e5"]]],
            "e3": [["-a", ["e3", "e5"]]],
            "e4": [["-a", ["e4", "e5"]]],
        },
        "endomorphisms": {
            "J": _sparse(6, {(2, 1): "1", (1, 2): "-1", (4, 3): "1", (3, 4): "-1", (6, 5): "1", (5, 6): "-1"}),
            "D": _sparse(6, {(1, 1): "a", (2, 2): "a", (3, 3): "-a", (4, 4): "-a"}),
        },
        "bilinears": {},
        "forms": {
            "omega0": [["1", ["e1", "e2"]], ["1", ["e3", "e4"]], ["1", ["e5", "e6"]]],
        },
        "valuations": {"default": {"a": 0.9624236501192069}},
        "checks": [
            {"id": "jacobi", "kind": "jacobi"},
            {"id": "J-square", "kind": "endomorphism_square", "endo": "J"},
            {"id": "J-integrable", "kind": "integrable", "endo": "J"},
            {"id": "omega0-hermitian", "kind": "hermitian_candidate", "omega": "omega0", "endo": "J"},
            {
                "id": "structure-equation",
                "kind": "d_equals",
                "form": "omega0",
                "equals": {"terms": [["-2*a", ["e1", "e2", "e5"]], ["2*a", ["e3", "e4", "e5"]]]},
            },
            {"id": "balanced", "kind": "balanced", "omega": "omega0", "endo": "J", "expect": True},
            {"id": "not-kahler", "kind": "kahler", "omega": "omega0", "endo": "J", "expect": False},
            {"id": "not-pluriclosed", "kind": "pluriclosed", "omega": "omega0", "endo": "J", "expect": False},
            {"id": "lee-form-none", "kind": "lee_form", "omega": "omega0", "endo": "J", "expect": "none"},
            {
                "id": "gram-positive",
                "kind": "gram_signature",
                "omega": "omega0",
                "endo": "J",
                "expect": [3, 0, 0],
            },
            {"id": "unimodular", "kind": "trace_zero", "endo": "D", "informational": True},
        ],
    }


def _fp_solv8_manifest():
    basis = [f"e{k}" for k in range(1, 9)]
    identity = [["1" if i == j else "0" for j in range(8)] for i in range(8)]
    return {
        "schema": "hermitia-manifest/1",
        "name": "fp_solv8",
        "comment": (
            "Three-step solvable model: a Heisenberg contact block suspended "
            "together with two rotating complex lines of angular speed b over "
            "a closed direction e8. The rotation speed b = 2 pi / log(2 + "
            "sqrt 3) only matters for the lattice quotient, so it stays a free "
            "symbol; the default valuation carries its numeric value. The "
            "standard metric is pluriclosed with torsion form -e1^e2^e3."
        ),
        "symbols": [{"name": "b", "relation": None, "sign_hint": "positive"}],
        "dimension": 8,
        "basis": basis,
        "differential": {
            "e1": [["1", ["e2", "e3"]]],
            "e2": [["-1", ["e2", "e8"]]],
            "e3": [["1", ["e3", "e8"]]],
            "e4": [["b", ["e5", "e8"]]],
            "e5": [["-b", ["e4", "e8"]]],
            "e6": [["b", ["e7", "e8"]]],
            "e7": [["-b", ["e6", "e8"]]],
        },
        "endomorphisms": {
            "I": _sparse(8, {
                (2, 1): "-1", (1, 2): "1",
                (8, 3): "1", (3, 8): "-1",
                (5, 4): "1", (4, 5): "-1",
                (7, 6): "1", (6, 7): "-1",
            }),
        },
        "bilinears": {"g": identity},
        "forms": {
            "omega": [
                ["-1", ["e1", "e2"]],
                ["1", ["e3", "e8"]],
                ["1", ["e4", "e5"]],
                ["1", ["e6", "e7"]],
            ],
        },
        "valuations": {"default": {"b": 4.770984191560898}},
        "checks": [
            {"id": "jacobi", "kind": "jacobi"},
            {"id": "I-square", "kind": "endomorphism_square", "endo": "I"},
            {"id": "I-integrable", "kind": "integrable", "endo": "I"},
            {"id": "omega-hermitian", "kind": "hermitian_candidate", "omega": "omega", "endo": "I"},
            {
                "id": "gram-positive",
                "kind": "gram_signature",
                "omega": "omega",
                "endo": "I",
                "expect": [4, 0, 0],
            },
            {"id": "pluriclosed", "kind": "pluriclosed", "omega": "omega", "endo": "I", "expect": True},
            {"id": "not-kahler", "kind": "kahler", "omega": "omega", "endo": "I", "expect": False},
            {
                "id": "bismut-torsion",
                "kind": "bismut_torsion",
                "omega": "omega",
                "endo": "I",
                "expect_form": [["1", ["e1", "e2", "e3"]]],
                "up_to_sign": True,
                "expect_closed": True,
            },
            {"id": "torsion-via-weil", "kind": "weil_torsion_identity", "omega": "omega", "endo": "I"},
        ],
    }


def _pseudo_hk12_manifest():
    basis = [f"f{k}" for k in range(1, 13)]
    # column convention: entry (i, j) means X f_j has coefficient on f_i
    i_mat = _sparse(12, {
        (3, 1): "1", (1, 3): "-1",
        (4, 2): "1", (2, 4): "-1",
        (7, 5): "-1", (5, 7): "1",
        (8, 6): "-1", (6, 8): "1",
        (10, 9): "1", (9, 10): "-1",
        (12, 11): "-1", (11, 12): "1",
    })
    j_mat = _sparse(12, {
        (5, 1): "1", (1, 5): "-1",
        (6, 2): "1", (2, 6): "-1",
        (7, 3): "1", (3, 7): "-1",
        (8, 4): "1", (4, 8): "-1",
        (11, 9): "1", (9, 11): "-1",
        (12, 10): "1", (10, 12): "-1",
    })
    k_mat = _sparse(12, {
        (7, 1): "-1", (1, 7): "1",
        (8, 2): "-1", (2, 8): "1",
        (5, 3): "1", (3, 5): "-1",
        (6, 4): "1", (4, 6): "-1",
        (12, 9): "-1", (9, 12): "1",
        (11, 10): "1", (10, 11): "-1",
    })
    hermitian_matrix = [
        ["a11", "x12+i*y12", "x15+i*y15"],
        ["x12-i*y12", "a22", "x25+i*y25"],
        ["x15-i*y15", "x25-i*y25", "a55"],
    ]
    omega20 = {
        "eta_terms": [["1", [1, 3]], ["1", [2, 4]], ["1", [5, 6]]],
        "endo": "I",
    }
    return {
        "schema": "hermitia-manifest/1",
        "name": "pseudoHK12",
        "comment": (
            "Twelve-dimensional almost-abelian model with an eight-dimensional "
            "ideal scaled by weights diag(1,-1,1,-1,1,-1,1,-1) along f9 and "
            "three flat directions. Basis convention: the odd-index ideal "
            "generators expand and the even-index ones contract (the weight "
            "list is +,-,+,-,+,-,+,- across f1..f8), and the coframe element "
            "on f11 carries the imaginary unit (f11 - i f12) so that it is a "
            "genuine (1,0)-form. The hypercomplex triple is pseudo-hyperkahler "
            "with closed omega_I, omega_J, omega_K; the (2,0)-form "
            "eta1^eta3 + eta2^eta4 + eta5^eta6 satisfies del(Omega^2) = 0 but "
            "del(Omega) != 0, and the pairing of a del-exact (4,0)-form "
            "against the closed (6,0)-form beta equals a11 + a22 for every "
            "candidate coefficient matrix, which rules out positive definite "
            "ones. The pairing check uses the sign of alpha that makes the "
            "coefficient come out as a11 + a22 exactly; both displayed "
            "(4,0)-forms are verified del-exact separately."
        ),
        "symbols": [
            {"name": "a11", "relation": None, "sign_hint": None},
            {"name": "a22", "relation": None, "sign_hint": None},
            {"name": "a55", "relation": None, "sign_hint": None},
            {"name": "x12", "relation": None, "sign_hint": None},
            {"name": "y12", "relation": None, "sign_hint": None},
            {"name": "x15", "relation": None, "sign_hint": None},
            {"name": "y15", "relation": None, "sign_hint": None},
            {"name": "x25", "relation": None, "sign_hint": None},
            {"name": "y25", "relation": None, "sign_hint": None},
        ],
        "dimension": 12,
        "basis": basis,
        "differential": {
            "f1": [["1", ["f1", "f9"]]],
            "f2": [["-1", ["f2", "f9"]]],
            "f3": [["1", ["f3", "f9"]]],
            "f4": [["-1", ["f4", "f9"]]],
            "f5": [["1", ["f5", "f9"]]],
            "f6": [["-1", ["f6", "f9"]]],
            "f7": [["1", ["f7", "f9"]]],
            "f8": [["-1", ["f8", "f9"]]],
        },
        "endomorphisms": {"I": i_mat, "J": j_mat, "K": k_mat},
        "bilinears": {},
        "forms": {
            "omega_I": [
                ["-2", ["f1", "f2"]], ["-2", ["f3", "f4"]], ["2", ["f5", "f6"]],
                ["2", ["f7", "f8"]], ["2", ["f9", "f10"]], ["-2", ["f11", "f12"]],
            ],
            "omega_J": [
                ["2", ["f1", "f8"]], ["2", ["f4", "f5"]], ["-2", ["f2", "f7"]],
                ["-2", ["f3", "f6"]], ["2", ["f9", "f11"]], ["2", ["f10", "f12"]],
            ],
            "omega_K": [
                ["2", ["f1", "f6"]], ["-2", ["f4", "f7"]], ["-2", ["f2", "f5"]],
                ["2", ["f3", "f8"]], ["-2", ["f9", "f12"]], ["2", ["f10", "f11"]],
            ],
        },
        "valuations": {
            "default": {
                "a11": 1.0, "a22": 1.0, "a55": 1.0,
                "x12": 0.0, "y12": 0.0, "x15": 0.0, "y15": 0.0, "x25": 0.0, "y25": 0.0,
            }
        },
        "checks": [
            {"id": "jacobi", "kind": "jacobi"},
            {"id": "hypercomplex", "kind": "hypercomplex", "I": "I", "J": "J", "K": "K"},
            {
                "id": "pseudo-hyperkahler",
                "kind": "pseudo_hyperkahler",
                "I": "I", "J": "J", "K": "K",
                "omega_I": "omega_I", "omega_J": "omega_J", "omega_K": "omega_K",
            },
            {
                "id": "omega-jk-in-coframe",
                "kind": "form_equals",
                "lhs": {"combo": [["1", "omega_J"], ["i", "omega_K"]]},
                "rhs": {
                    "eta_terms": [["2", [5, 6]], ["2*i", [1, 4]], ["-2*i", [2, 3]]],
                    "endo": "I",
                },
            },
            {"id": "del-omega20-nonzero", "kind": "del_zero", "form": omega20, "endo": "I", "expect": False},
            {
                "id": "del-omega20-squared-zero",
                "kind": "del_zero",
                "form": {"power": 2, "base": omega20},
                "endo": "I",
                "expect": True,
            },
            {
                "id": "quaternionic-balanced",
                "kind": "quaternionic_balanced",
                "I": "I", "J": "J", "K": "K",
                "omega20": omega20,
                "expect": True,
            },
            {
                "id": "no-hkt-for-this-form",
                "kind": "hkt",
                "I": "I", "J": "J", "K": "K",
                "omega20": omega20,
                "expect": False,
            },
            {
                "id": "alpha1-del-exact",
                "kind": "del_exact",
                "form": {"eta_terms": [["1", [1, 3, 5, 6]]], "endo": "I"},
                "endo": "I",
                "expect": True,
            },
            {
                "id": "alpha2-del-exact",
                "kind": "del_exact",
                "form": {"eta_terms": [["1", [2, 4, 5, 6]]], "endo": "I"},
                "endo": "I",
                "expect": True,
            },
            {
                "id": "beta-closed",
                "kind": "d_zero",
                "form": {"eta_terms": [["1", [1, 2, 3, 4, 5, 6]]], "endo": "I"},
                "expect": True,
            },
            {
                "id": "obstruction-pairing",
                "kind": "obstruction_pairing",
                "I": "I", "J": "J", "K": "K",
                "alpha": {
                    "eta_terms": [["-1", [1, 3, 5, 6]], ["-1", [2, 4, 5, 6]]],
                    "endo": "I",
                },
                "beta_etas": [1, 2, 3, 4, 5, 6],
                "matrix": hermitian_matrix,
                "expect": "a11+a22",
            },
        ],
    }


def _lemma61_manifest():
    basis = [f"e{k}" for k in range(1, 9)]
    a_rows = [
        [1, 0, 1, 0, -1, -1, 0, 1],
        [0, -1, 0, -1, -1, 0, 1, 1],
        [-1, 0, 1, 0, 0, 1, 1, 1],
        [0, 1, 0, -1, 1, 1, 1, 0],
        [1, 1, 0, -1, 1, 0, 1, 0],
        [1, 0, -1, -1, 0, -1, 0, -1],
        [0, -1, -1, -1, -1, 0, 1, 0],
        [-1, -1, -1, 0, 0, 1, 0, -1],
    ]
    i_mat = _sparse(8, {
        (3, 1): "1", (1, 3): "-1",
        (4, 2): "1", (2, 4): "-1",
        (7, 5): "-1", (5, 7): "1",
        (8, 6): "-1", (6, 8): "1",
    })
    j_mat = _sparse(8, {
        (5, 1): "-1", (1, 5): "1",
        (6, 2): "-1", (2, 6): "1",
        (7, 3): "-1", (3, 7): "1",
        (8, 4): "-1", (4, 8): "1",
    })
    # K = I J in column convention
    k_mat = _sparse(8, {
        (7, 1): "1", (1, 7): "-1",
        (8, 2): "1", (2, 8): "-1",
        (5, 3): "-1", (3, 5): "1",
        (6, 4): "-1", (4, 6): "1",
    })
    h_mat = [[str(1 if i == j and i % 2 == 0 else -1 if i == j else 0) for j in range(8)] for i in range(8)]
    char = [1, 0, 12, 0, 38, 0, 12, 0, 1]  # ascending: (t^4 + 6 t^2 + 1)^2
    return {
        "schema": "hermitia-manifest/1",
        "name": "lemma61",
        "comment": (
            "Flat 8-torus data: an integer matrix of determinant one that "
            "commutes with the hypercomplex structure (I, J, K = IJ), is an "
            "isometry of the split-signature metric h = diag(1,-1,...,1,-1), "
            "and has spectral radius 1 + sqrt 2 > 1 (so no power of it is the "
            "identity).  Its characteristic polynomial is (t^4 + 6 t^2 + 1)^2 "
            "with purely imaginary eigenvalues of moduli sqrt 2 +- 1."
        ),
        "symbols": [],
        "dimension": 8,
        "basis": basis,
        "differential": {},
        "endomorphisms": {
            "A": [[str(x) for x in row] for row in a_rows],
            "I": i_mat,
            "J": j_mat,
            "K": k_mat,
        },
        "bilinears": {"h": h_mat},
        "forms": {},
        "valuations": {},
        "checks": [
            {"id": "jacobi", "kind": "jacobi"},
            {"id": "hypercomplex", "kind": "hypercomplex", "I": "I", "J": "J", "K": "K"},
            {"id": "det-one", "kind": "det_equals", "endo": "A", "expect": "1"},
            {"id": "A-commutes-I", "kind": "commute", "endos": ["A", "I"]},
            {"id": "A-commutes-J", "kind": "commute", "endos": ["A", "J"]},
            {"id": "A-commutes-K", "kind": "commute", "endos": ["A", "K"]},
            {"id": "A-isometry-h", "kind": "matrix_isometry", "endo": "A", "bilinear": "h"},
            {"id": "h-signature", "kind": "gram_signature", "bilinear": "h", "expect": [4, 4, 0]},
            {
                "id": "char-poly",
                "kind": "char_poly_equals",
                "endo": "A",
                "expect": [str(c) for c in char],
            },
            {
                "id": "spectral-radius",
                "kind": "spectral_radius_in",
                "endo": "A",
                "interval": ["2.41421356", "2.41421357"],
            },
        ],
    }


_BUILTINS = {
    "AT4": _at4_manifest,
    "fp_solv8": _fp_solv8_manifest,
    "pseudoHK12": _pseudo_hk12_manifest,
    "lemma61": _lemma61_manifest,
}
