"""Isometry labels for diag(1, -1, .., -1) that do not come from hermitia.

hyperbolic: some |tr(M^k)| exceeds the dimension.  Every eigenvalue of a
non-hyperbolic isometry of a signature (1, n) form lies on the unit circle,
so |tr(M^k)| <= dim for all k, and the trace test is an exact certificate.
elliptic: M^k = I exactly, for k the lcm of the eigenvalue orders that numpy
suggests.
parabolic: A = M^k is not I but (A - I)^3 = 0 exactly, so M has infinite
order without a real eigenvalue off the unit circle.
"""

from __future__ import annotations

import math

import numpy as np

from gen import identity, mat_mul


class OracleError(RuntimeError):
    pass


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def _power(m, k):
    out = identity(len(m))
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def _is_identity(m):
    return all(m[i][j] == int(i == j) for i in range(len(m)) for j in range(len(m)))


def _root_of_unity_order(z, max_order=720):
    turns = math.atan2(z.imag, z.real) / (2 * math.pi)
    for k in range(1, max_order + 1):
        if abs(k * turns - round(k * turns)) < 1e-6 * k:
            return k
    return None


def spectral_radius(m):
    return float(max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))


def label(m, max_doublings=7):
    """The isometry's label; raises OracleError when no certificate is found."""
    n = len(m)
    power = m
    for _ in range(max_doublings):
        if abs(_trace(power)) > n:
            return "hyperbolic"
        power = mat_mul(power, power)
    if spectral_radius(m) > 1.01:
        raise OracleError("numeric spectral radius above 1 without a trace certificate")
    order = 1
    for z in np.linalg.eigvals(np.array(m, dtype=float)):
        k = _root_of_unity_order(z)
        if k is not None:
            order = order * k // math.gcd(order, k)
    a = _power(m, order)
    if _is_identity(a):
        return "elliptic"
    shifted = [[a[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    if not any(any(row) for row in mat_mul(mat_mul(shifted, shifted), shifted)):
        return "parabolic"
    raise OracleError("no finite-order or unipotent certificate")
