"""Shared fixtures and independent reference implementations (oracles).

The oracles deliberately avoid the library's merge-based sign bookkeeping:
signs come from explicit bubble-sort parity on concatenated index tuples and
the differential is expanded factor by factor from its definition, so the
two paths can disagree if either has a sign bug.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hermitia.cealg import Form, LieAlgebraPresentation
from hermitia.metrics import HermitianCandidate
from hermitia.scalars import Symbol, SymbolTable


# -- oracles ----------------------------------------------------------------


def sort_parity(indices):
    """(sorted tuple, sign) by explicit bubble sort; (None, 0) on repeats."""
    idx = list(indices)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(idx) - 1):
            if idx[k] == idx[k + 1]:
                return None, 0
            if idx[k] > idx[k + 1]:
                idx[k], idx[k + 1] = idx[k + 1], idx[k]
                sign = -sign
                changed = True
    return tuple(idx), sign


def oracle_wedge(a: Form, b: Form) -> Form:
    pres = a.presentation
    table = pres.table
    acc = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged, sign = sort_parity(ia + ib)
            if merged is None:
                continue
            c = ca * cb * table.scalar(sign)
            acc[merged] = acc.get(merged, table.zero) + c
    return Form(pres, acc)


def oracle_d(a: Form) -> Form:
    """Antiderivation expansion: d(e^{i1} ^ ... ^ e^{ip}) term by term."""
    pres = a.presentation
    out = Form.zero(pres)
    for idx, c in a.terms.items():
        for pos in range(len(idx)):
            dg = pres.d_of_generator(idx[pos])
            if dg.is_zero():
                continue
            rest = Form(pres, {idx[:pos] + idx[pos + 1 :]: pres.table.one})
            sign = pres.table.scalar((-1) ** pos)
            out = out + (c * sign) * oracle_wedge(dg, rest)
    return out


# -- the benchmark's own modules ---------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench(name):
    """A module of the benchmark in perfbench/, imported as the benchmark
    imports it: its modules import each other by bare name."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


# -- model fixtures ------------------------------------------------------------


def mat_mul(a, b):
    """Product of two exact matrices, as a tuple of row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def fraction_rows(rows):
    """An exact matrix (ints, Fractions or strings) as rows of Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def is_zero_matrix(m):
    return all(x == 0 for row in m for x in row)


def make_fp_solv8():
    table = SymbolTable([Symbol("b", sign_hint="positive")])
    diff = {
        1: [(1, (2, 3))],
        2: [(-1, (2, 8))],
        3: [(1, (3, 8))],
        4: [("b", (5, 8))],
        5: [("-b", (4, 8))],
        6: [("b", (7, 8))],
        7: [("-b", (6, 8))],
    }
    return LieAlgebraPresentation(8, diff, table=table)


def make_at4(table=None, weight="a"):
    """AT4's algebra; ``weight`` names a symbol of ``table`` (by default a
    table with the free symbol a)."""
    if table is None:
        table = SymbolTable([Symbol("a", sign_hint="positive")])
    diff = {
        1: [(weight, (1, 5))],
        2: [(weight, (2, 5))],
        3: [("-" + weight, (3, 5))],
        4: [("-" + weight, (4, 5))],
    }
    return LieAlgebraPresentation(6, diff, table=table)


def make_hk12(table=None):
    names = tuple(f"f{k}" for k in range(1, 13))
    diff = {}
    for i in (1, 3, 5, 7):
        diff[i] = [(1, (i, 9))]
    for j in (2, 4, 6, 8):
        diff[j] = [(-1, (j, 9))]
    return LieAlgebraPresentation(12, diff, names=names, table=table)


@pytest.fixture(scope="session")
def fp_solv8():
    return make_fp_solv8()


@pytest.fixture(scope="session")
def at4():
    return make_at4()


@pytest.fixture(scope="session")
def hk12():
    return make_hk12()


def random_form(pres, rng, max_terms=3, degrees=(1, 2, 3), symbol_names=()):
    """A small random form with integer or single-symbol coefficients."""
    terms = []
    n = pres.dim
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.choice([d for d in degrees if d <= n])
        idx = tuple(rng.sample(range(1, n + 1), deg))
        coeff = rng.randint(-3, 3)
        if coeff == 0:
            coeff = 1
        c = pres.table.scalar(coeff)
        if symbol_names and rng.random() < 0.3:
            c = c * pres.table.symbol(rng.choice(symbol_names))
        if rng.random() < 0.15:
            c = c * pres.table.i
        terms.append((c, idx))
    return pres.form(terms)


def draw_hermitian_candidate(data, J, empty_rows=frozenset()):
    """A candidate omega = i sum h_ab eta_a ^ conj(eta_b) with a random
    Gaussian-integer Hermitian h; the rows and columns in ``empty_rows`` are
    zero."""
    model = J.model()
    table = J.presentation.table
    m = model.m
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    h = {}
    for a in range(1, m + 1):
        h[a, a] = table.scalar(data.draw(st.integers(-2, 2)))
        for b in range(a + 1, m + 1):
            x, y = data.draw(entry)
            h[a, b] = table.scalar(x) + table.scalar(y) * table.i
            h[b, a] = h[a, b].conjugate()
    omega_c = sum(
        (
            table.i * c * model.eta_monomial((a,), (b,))
            for (a, b), c in h.items()
            if a not in empty_rows and b not in empty_rows
        ),
        Form.zero(model.cpres),
    )
    return HermitianCandidate(J, model.to_real(omega_c))
