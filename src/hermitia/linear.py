"""Exact linear algebra: one row reduction, one congruence diagonalization,
one sparse matrix product, and matrix identities over the scalar field.

The kernels ``rref``, ``congruence_signature`` and ``product`` take entries
under one contract: ``+``, ``-``, ``*`` and ``/`` among themselves,
``conjugate()``, and truthiness as the exact zero test.  ints, ``Fraction``s
and ``Scalar``s all meet it, so no caller passes a zero test.  ``rref``
divides by its pivots and so takes a field (``Fraction``s or ``Scalar``s);
``congruence_signature`` divides only exactly, with the ``exact_div`` that
its caller passes beside a sign test, so it also runs on the integer Gram
matrices of ``hyperbolic.QuadraticLattice``; ``product`` does not divide.
``rref`` reduces rows held as ``{column: value}`` dicts with the zeros
absent, and ``product`` lists each row of b by its nonzeros once, so their
work follows the nonzeros.  ``rref`` and ``congruence_signature`` are
hermitia's only eliminations, and ``product`` is its one product of two
matrices.  Every pivot decision is an exact zero or sign test; nothing here
is numeric.

``solve``, ``rank``, ``invert``, ``det``, ``hermitian_signature`` and
``mat_mul`` are the scalar-field entry points.  ``perfbench/tracer.py``
wraps them by name, so they stay separate functions; that is also why
``mat_mul`` (``product`` from ``table.zero``) and ``product`` are two names:
``hyperbolic`` calls the kernel, so lattice work fires no ``linear`` span.
``rank`` has no caller in the package.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .scalars import SymbolTable


class LinearError(ValueError):
    pass


def identity(table: SymbolTable, n):
    one, zero = table.one, table.zero
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(a, b, table):
    """a b over the scalar field (``product`` from ``table.zero``)."""
    return product(a, b, table.zero)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_sub(a, b):
    return mat_add(a, mat_neg(b))


def transpose(a):
    return tuple(zip(*a))


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a):
    return not any(map(any, a))


def rref(rows, ncols):
    """Bring ``rows``, a list of rows held as ``{column: value}`` dicts with
    the zero entries absent, to reduced row echelon form on the columns
    below ``ncols``, in place; further columns (right-hand sides) are
    carried along.  Pivots are the first nonzero entry of their column, in
    row order.  A row is scaled and eliminated by its entries only, and an
    entry that cancels is deleted, so the work follows the nonzeros.

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
        pr = next((r for r in range(top, m) if col in rows[r]), None)
        if pr is None:
            continue
        if pr != top:
            rows[top], rows[pr] = rows[pr], rows[top]
            swaps += 1
        pv = rows[top][col]
        prow = rows[top] = {c: x / pv for c, x in rows[top].items()}
        for r, row in enumerate(rows):
            f = row.get(col)
            if f is None or r == top:
                continue
            f = -f
            for c, y in prow.items():
                x = row.get(c)
                if x is None:
                    row[c] = f * y
                elif not (x := x + f * y):
                    del row[c]
                else:
                    row[c] = x
        pivots.append(col)
        values.append(pv)
    return pivots, values, swaps


def congruence_signature(a, positive, exact_div):
    """Signature (p, q, z) of a Hermitian matrix, given as a list of row
    lists that is reduced in place by congruence with no field division, so
    integer rows stay integers.  Entries need ``conjugate()`` (the identity on
    a real field); ``positive`` decides whether a (real) diagonal value is
    positive, and ``exact_div(x, y)`` divides where y is known to divide x
    (``//`` on integers, ``/`` on a field).

    A pivot d with column f below it is eliminated by row r <- d row r -
    f_r row p, then the same on columns: a congruence by an invertible matrix
    with the real d on its diagonal, which turns the trailing block X into
    d (d X - f f^*).  The factor d and the previous pivot pi divide that
    exactly (Sylvester's identity, as in Bareiss's elimination), so the
    block is kept as (d X - f f^*) / pi, whose entries are minors of the
    input and do not grow from step to step.  Each trailing block is thus a
    nonzero real multiple pi S of the Schur complement S, and a pivot counts
    positive when it has the sign of pi.  A pivot whose column is already
    zero leaves the block and pi as they are."""
    n = len(a)
    p = q = 0
    pi, pi_positive = 1, True  # the last pivot that eliminated
    for pos in range(n):
        piv = next((k for k in range(pos, n) if a[k][k]), None)
        if piv is None:
            hot = next(((r, c) for r in range(pos, n) for c in range(r + 1, n) if a[r][c]), None)
            if hot is None:
                return p, q, n - pos
            r, c = hot
            # congruence row r += a_rc * row c, col r += conj(a_rc) * col c
            # turns the zero diagonal entry a_rr into 2|a_rc|^2 > 0
            f = a[r][c]
            a[r] = [x + f * y for x, y in zip(a[r], a[c])]
            fc = f.conjugate()
            for row in a[pos:]:
                row[r] = row[r] + fc * row[c]
            piv = r
        if piv != pos:
            a[piv], a[pos] = a[pos], a[piv]
            for row in a[pos:]:
                row[piv], row[pos] = row[pos], row[piv]
        d = a[pos][pos]
        d_positive = positive(d)
        if d_positive == pi_positive:
            p += 1
        else:
            q += 1
        if not any(a[r][pos] for r in range(pos + 1, n)):
            continue
        prow = a[pos][pos + 1:]
        for row in a[pos + 1:]:
            f = row[pos]
            row[pos + 1:] = [exact_div(d * x - f * y, pi) for x, y in zip(row[pos + 1:], prow)]
        pi, pi_positive = d, d_positive
    return p, q, 0


def product(a, b, zero):
    """a b, with work proportional to the nonzero products: each row of b is
    listed by its nonzero entries once.  Every entry sums its products from
    ``zero`` in increasing inner index; an empty b gives rows of width 0."""
    width = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * width
        for x, nonzero in zip(row, b_rows):
            if nonzero and x:
                for j, y in nonzero:
                    acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def _dict_rows(rows):
    """Scalar rows as the ``{column: value}`` dicts of their nonzeros."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def solve(rows, rhs, table):
    """Solve A x = b exactly.  Returns (solution, free_count) or (None, None)
    when the system is inconsistent; free variables are set to zero."""
    n = len(rows[0]) if rows else 0
    aug = _dict_rows(list(row) + [b] for row, b in zip(rows, rhs))
    pivots, _, _ = rref(aug, n)
    if any(n in row for row in aug[len(pivots):]):
        return None, None
    x = [table.zero] * n
    for row, col in zip(aug, pivots):
        x[col] = row.get(n, table.zero)
    return x, n - len(pivots)


def rank(rows):
    ncols = len(rows[0]) if rows else 0
    return len(rref(_dict_rows(rows), ncols)[0])


def invert(rows, table):
    n = len(rows)
    aug = _dict_rows(rows)
    for i, row in enumerate(aug):
        row[n + i] = table.one
    pivots, _, _ = rref(aug, n)
    if len(pivots) < n:
        raise LinearError("matrix is singular")
    zero = table.zero
    return tuple(tuple(row.get(c, zero) for c in range(n, 2 * n)) for row in aug)


def det(rows, table):
    n = len(rows)
    pivots, values, swaps = rref(_dict_rows(rows), n)
    if len(pivots) < n:
        return table.zero
    out = -table.one if swaps % 2 else table.one
    for pv in values:
        out = out * pv
    return out


def hermitian_violation(rows):
    """The first (r, c), row-major, with rows[r][c] != conj(rows[c][r]), or
    None when the square matrix is Hermitian."""
    n = range(len(rows))
    return next(((r, c) for r in n for c in n if rows[r][c] - rows[c][r].conjugate()), None)


def hermitian_signature(rows, valuation=None):
    """Signature (p, q, z) of an exact Hermitian matrix by congruence
    diagonalization.  Each diagonal value is real, and ``Scalar.sign_at``
    decides its sign: exactly when it is rational, else at the valuation."""
    if hermitian_violation(rows) is not None:
        raise LinearError("matrix is not Hermitian")

    def positive(d):
        if (sign := d.sign_at(valuation or {})) is None:
            raise LinearError(f"the sign of the pivot {d} is not decided at the valuation")
        return sign > 0

    return congruence_signature([list(row) for row in rows], positive, operator.truediv)
