"""Exact linear algebra: one row-reduction kernel, one congruence
diagonalization, and matrix identities over the scalar field.

``rref`` and ``congruence_signature`` are hermitia's only eliminations,
besides the incremental ``extend_span``.  Their field contract: entries
support ``+``, ``-``, ``*`` and ``/`` among themselves, and the caller
passes the exact zero test.  One loop therefore serves the scalar field
(zero test ``Scalar.is_zero``), the rationals of ``scalars._alg_inverse``
and ``hyperbolic.kernel_basis`` (``operator.not_``) and the quadratic
field Q(lambda) of ``hyperbolic._eigenvector_quadratic``.  Every pivot
decision is that zero test on exact values; nothing here is numeric.

``solve``, ``rank``, ``invert``, ``det`` and ``hermitian_signature`` are the
scalar-field entry points.  ``perfbench/tracer.py`` wraps them by name, so
they stay separate functions; ``rank`` has no caller in the package.
Matrices are tuples/lists of rows of scalars.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .scalars import Scalar, SymbolTable


class LinearError(ValueError):
    pass


def identity(table: SymbolTable, n):
    one, zero = table.one, table.zero
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(a, b, table):
    n, m = len(a), len(b[0])
    k = len(b)
    zero = table.zero
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = zero
            for t in range(k):
                if not a[i][t].is_zero() and not b[t][j].is_zero():
                    s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_sub(a, b):
    return mat_add(a, mat_neg(b))


def transpose(a):
    return tuple(zip(*a))


def extend_span(span, v):
    """Add the row v to a greedy echelon basis [(lead, row)] unless it lies
    in the span already; returns whether it was added."""
    v = list(v)
    for lead, rv in span:
        if not v[lead].is_zero():
            f = v[lead]
            v = [x - f * y for x, y in zip(v, rv)]
    lead = next((k for k, x in enumerate(v) if not x.is_zero()), None)
    if lead is None:
        return False
    pv = v[lead]
    span.append((lead, [x / pv for x in v]))
    return True


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a):
    return all(x.is_zero() for row in a for x in row)


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def rref(rows, ncols, is_zero):
    """Bring ``rows``, a list of row lists, to reduced row echelon form on its
    first ``ncols`` columns, in place; further columns (right-hand sides) are
    carried along.  Pivots are the first nonzero entry of their column.

    Returns (pivot columns, pivot values before scaling, number of row
    swaps), which is what solving, inverting and determinants need.
    """
    m = len(rows)
    pivots, values = [], []
    swaps = 0
    for col in range(ncols):
        top = len(pivots)
        if top == m:
            break
        pr = next((r for r in range(top, m) if not is_zero(rows[r][col])), None)
        if pr is None:
            continue
        if pr != top:
            rows[top], rows[pr] = rows[pr], rows[top]
            swaps += 1
        pv = rows[top][col]
        prow = rows[top] = [x if is_zero(x) else x / pv for x in rows[top]]
        for r in range(m):
            f = rows[r][col]
            if r != top and not is_zero(f):
                rows[r] = [x if is_zero(y) else x - f * y for x, y in zip(rows[r], prow)]
        pivots.append(col)
        values.append(pv)
    return pivots, values, swaps


def congruence_signature(a, is_zero, to_rational):
    """Signature (p, q, z) of a Hermitian matrix, given as a list of row
    lists that is diagonalized in place by congruence.  Entries need
    ``conjugate()`` (the identity on a real field); ``to_rational`` maps each
    diagonal value to the rational whose sign is counted."""
    n = len(a)
    p = q = 0
    for pos in range(n):
        piv = next((k for k in range(pos, n) if not is_zero(a[k][k])), None)
        if piv is None:
            hot = next(
                ((r, c) for r in range(pos, n) for c in range(r + 1, n) if not is_zero(a[r][c])),
                None,
            )
            if hot is None:
                return p, q, n - pos
            r, c = hot
            # congruence row r += a_rc * row c, col r += conj(a_rc) * col c
            # turns the zero diagonal entry a_rr into 2|a_rc|^2 > 0
            f = a[r][c]
            a[r] = [x + f * y for x, y in zip(a[r], a[c])]
            fc = f.conjugate()
            for row in a:
                row[r] = row[r] + fc * row[c]
            piv = r
        if piv != pos:
            a[piv], a[pos] = a[pos], a[piv]
            for row in a:
                row[piv], row[pos] = row[pos], row[piv]
        d = a[pos][pos]
        if to_rational(d) > 0:
            p += 1
        else:
            q += 1
        factors = {r: a[r][pos] / d for r in range(pos + 1, n) if not is_zero(a[r][pos])}
        for r, f in factors.items():
            a[r] = [x - f * y for x, y in zip(a[r], a[pos])]
        for r, f in factors.items():
            fc = f.conjugate()
            for row in a:
                row[r] = row[r] - fc * row[pos]
    return p, q, 0


def _zero_test(table):
    """``Scalar.is_zero``, found without importing scalars at run time."""
    return type(table.zero).is_zero


def solve(rows, rhs, table):
    """Solve A x = b exactly.  Returns (solution, free_count) or (None, None)
    when the system is inconsistent; free variables are set to zero."""
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots, _, _ = rref(aug, n, _zero_test(table))
    if any(not row[n].is_zero() for row in aug[len(pivots):]):
        return None, None
    x = [table.zero] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n]
    return x, n - len(pivots)


def rank(rows, table):
    ncols = len(rows[0]) if rows else 0
    return len(rref([list(r) for r in rows], ncols, _zero_test(table))[0])


def invert(rows, table):
    n = len(rows)
    one, zero = table.one, table.zero
    aug = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(rows)]
    pivots, _, _ = rref(aug, n, _zero_test(table))
    if len(pivots) < n:
        raise LinearError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def det(rows, table):
    n = len(rows)
    pivots, values, swaps = rref([list(r) for r in rows], n, _zero_test(table))
    if len(pivots) < n:
        return table.zero
    out = -table.one if swaps % 2 else table.one
    for pv in values:
        out = out * pv
    return out


def hermitian_signature(rows, table):
    """Signature (p, q, z) of an exact Hermitian matrix by congruence
    diagonalization.  Entries must be symbol free; diagonal values come out
    as real rationals whose signs are counted exactly."""
    n = len(rows)
    for r in range(n):
        for c in range(n):
            if not (rows[r][c] - rows[c][r].conjugate()).is_zero():
                raise LinearError("matrix is not Hermitian")
    return congruence_signature(
        [list(row) for row in rows], _zero_test(table), _require_real_rational
    )


def _require_real_rational(s: Scalar) -> Fraction:
    if not (s - s.conjugate()).is_zero():
        raise LinearError(f"expected a real value, got {s}")
    if not s.is_rational():
        raise LinearError(f"signature needs symbol-free entries, got {s}")
    return s.as_rational()
