"""Exact linear algebra over the scalar field: solving, rank, inversion,
matrix identities and exact congruence diagonalization of Hermitian forms.

Matrices are tuples/lists of rows of scalars.  Elimination uses exact field
division, so every pivot decision is a decidable zero test on canonical
forms; nothing here is numeric.
"""

from __future__ import annotations

from fractions import Fraction

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


def solve(rows, rhs, table):
    """Solve A x = b exactly.  Returns (solution, free_count) or (None, None)
    when the system is inconsistent; free variables are set to zero."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    zero = table.zero
    pivots = []
    row = 0
    for col in range(n):
        pr = next((r for r in range(row, m) if not aug[r][col].is_zero()), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if not aug[r][n].is_zero():
            return None, None
    x = [zero] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return x, n - len(pivots)


def rank(rows, table):
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    a = [list(r) for r in rows]
    rk = 0
    for col in range(n):
        pr = next((r for r in range(rk, m) if not a[r][col].is_zero()), None)
        if pr is None:
            continue
        a[rk], a[pr] = a[pr], a[rk]
        pv = a[rk][col]
        a[rk] = [x / pv for x in a[rk]]
        for r in range(rk + 1, m):
            if not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        rk += 1
        if rk == m:
            break
    return rk


def invert(rows, table):
    n = len(rows)
    aug = [list(rows[i]) + list(identity(table, n)[i]) for i in range(n)]
    for col in range(n):
        pr = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pr is None:
            raise LinearError("matrix is singular")
        aug[col], aug[pr] = aug[pr], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det(rows, table):
    n = len(rows)
    a = [list(r) for r in rows]
    out = table.one
    for col in range(n):
        pr = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if pr is None:
            return table.zero
        if pr != col:
            a[col], a[pr] = a[pr], a[col]
            out = -out
        pv = a[col][col]
        out = out * pv
        inv = table.one / pv
        for r in range(col + 1, n):
            if not a[r][col].is_zero():
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def hermitian_signature(rows, table):
    """Signature (p, q, z) of an exact Hermitian matrix by congruence
    diagonalization.  Entries must be symbol free; diagonal values come out
    as real rationals whose signs are counted exactly."""
    n = len(rows)
    a = [[x for x in row] for row in rows]
    for r in range(n):
        for c in range(n):
            if not (a[r][c] - a[c][r].conjugate()).is_zero():
                raise LinearError("matrix is not Hermitian")
    p = q = z = 0

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    pos = 0
    while pos < n:
        piv = next((k for k in range(pos, n) if not a[k][k].is_zero()), None)
        if piv is None:
            hot = None
            for r in range(pos, n):
                for c in range(r + 1, n):
                    if not a[r][c].is_zero():
                        hot = (r, c)
                        break
                if hot:
                    break
            if hot is None:
                z += n - pos
                break
            r, c = hot
            # congruence row r += a_rc * row c, col r += conj(a_rc) * col c
            # turns the zero diagonal entry a_rr into 2|a_rc|^2 > 0
            f = a[r][c]
            for k in range(n):
                a[r][k] = a[r][k] + f * a[c][k]
            fc = f.conjugate()
            for k in range(n):
                a[k][r] = a[k][r] + fc * a[k][c]
            piv = r
        if piv != pos:
            swap(piv, pos)
        d = a[pos][pos]
        if _require_real_rational(d) > 0:
            p += 1
        else:
            q += 1
        factors = {}
        for r in range(pos + 1, n):
            if not a[r][pos].is_zero():
                factors[r] = a[r][pos] / d
        for r, f in factors.items():
            for k in range(n):
                a[r][k] = a[r][k] - f * a[pos][k]
        for r, f in factors.items():
            fc = f.conjugate()
            for k in range(n):
                a[k][r] = a[k][r] - fc * a[k][pos]
        pos += 1
    return p, q, z


def _require_real_rational(s: Scalar) -> Fraction:
    if not (s - s.conjugate()).is_zero():
        raise LinearError(f"expected a real value, got {s}")
    if not s.is_rational():
        raise LinearError(f"signature needs symbol-free entries, got {s}")
    return s.as_rational()
