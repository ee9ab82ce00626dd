"""Seeded input generators for the benchmark, with their own exact arithmetic.

Nothing here imports hermitia: the generators must not accept or reject an
input based on what the system under test does with it.

Hermitian inputs are the Sasakian x Kahler suspension of dimension k + 4
(de1 = e2^e3, J e1 = e_t, J e2 = e3, J e_{4+2j} = e_{5+2j}) written in a new
coframe f = P e, where P is a product of integer shears, so every coefficient
is an integer.

Lattice inputs are products of integral reflections of diag(1, -1, .., -1)
in roots with entries in {-1, 0, 1} and square -1 or -2, conjugated by signed
permutations.
"""

from __future__ import annotations

import json


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


# -- exterior algebra over Z: forms are {sorted index tuple: coefficient} -----


def _merge(ia, ib):
    """Sorted concatenation of two index tuples with its sign, or None."""
    if set(ia) & set(ib):
        return None, 0
    seq = list(ia + ib)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


def form_add_term(out, idx, c):
    acc = out.get(idx, 0) + c
    if acc:
        out[idx] = acc
    else:
        out.pop(idx, None)


def wedge(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            merged, sign = _merge(ia, ib)
            if merged is not None:
                form_add_term(out, merged, sign * ca * cb)
    return out


def d(form, dgen):
    """The antiderivation extending the generator differentials dgen."""
    out = {}
    for idx, c in form.items():
        for pos, g in enumerate(idx):
            dg = dgen.get(g)
            if not dg:
                continue
            left = {idx[:pos]: 1}
            right = {idx[pos + 1 :]: c if pos % 2 == 0 else -c}
            for k, v in wedge(wedge(left, dg), right).items():
                form_add_term(out, k, v)
    return out


def substitute(form, q):
    """Rewrite a form in e through e^b = sum_c q[b][c] f^c (0-based indices)."""
    n = len(q)
    out = {}
    for idx, c in form.items():
        acc = {(): c}
        for b in idx:
            acc = wedge(acc, {(k,): q[b][k] for k in range(n) if q[b][k]})
        for k, v in acc.items():
            form_add_term(out, k, v)
    return out


# -- the Hermitian workload ----------------------------------------------------


def shear_positions(rng, n, count):
    return [tuple(rng.sample(range(n), 2)) for _ in range(count)]


def signed_shears(rng, positions):
    """The shears I + c E_ij at the given positions, with c = +-1."""
    return [(i, j, rng.choice((-1, 1))) for i, j in positions]


def change_of_basis(n, shears):
    """P = prod (I + c E_ij) and Q = P^-1 = prod in reverse of (I - c E_ij)."""
    p, q = identity(n), identity(n)
    for i, j, c in shears:
        e = identity(n)
        e[i][j] = c
        p = mat_mul(p, e)
    for i, j, c in reversed(shears):
        e = identity(n)
        e[i][j] = -c
        q = mat_mul(q, e)
    return p, q


def base_model(k):
    """Structure equations, J and omega of the suspension, 0-based indices."""
    n = k + 4
    t = n - 1
    dgen = {0: {(1, 2): 1}}
    jmat = [[0] * n for _ in range(n)]
    pairs = [(0, t), (1, 2)] + [(3 + 2 * j, 4 + 2 * j) for j in range(k // 2)]
    omega = {}
    for a, b in pairs:
        jmat[b][a] = 1  # J e_a = e_b
        jmat[a][b] = -1  # J e_b = -e_a
        omega[(a, b)] = 1
    return n, dgen, jmat, omega


def hermitian_input(k, shears):
    """The transported model as (manifest dict, P, Q, dgen, J') for checking."""
    n, dgen, jmat, omega = base_model(k)
    p, q = change_of_basis(n, shears)
    # d f^a = sum_b P[a][b] d e^b, rewritten in f
    de = {b: substitute(dgen[b], q) for b in dgen}
    fdgen = {}
    for a in range(n):
        acc = {}
        for b, form in de.items():
            for idx, c in form.items():
                form_add_term(acc, idx, p[a][b] * c)
        if acc:
            fdgen[a] = acc
    fj = mat_mul(mat_mul(p, jmat), q)
    fomega = substitute(omega, q)
    names = [f"f{a + 1}" for a in range(n)]

    def terms(form):
        return [[str(c), [names[x] for x in idx]] for idx, c in sorted(form.items())]

    m = n // 2
    checks = [
        {"id": "integrable", "kind": "integrable", "endo": "J"},
        {"id": "hermitian", "kind": "hermitian_candidate", "omega": "omega", "endo": "J"},
        {"id": "kahler", "kind": "kahler", "omega": "omega", "endo": "J", "expect": False},
        {"id": "pluriclosed", "kind": "pluriclosed", "omega": "omega", "endo": "J", "expect": True},
        {"id": "balanced", "kind": "balanced", "omega": "omega", "endo": "J", "expect": False},
        {"id": "astheno", "kind": "astheno", "omega": "omega", "endo": "J", "expect": True},
    ] + [
        {"id": f"pluriclosed-{j}", "kind": "k_pluriclosed", "omega": "omega", "endo": "J",
         "k": j, "expect": True}
        for j in range(1, m)
    ]
    manifest = {
        "schema": "hermitia-manifest/1",
        "name": f"suspension-k{k}-{len(shears)}shears",
        "symbols": [],
        "dimension": n,
        "basis": names,
        "differential": {names[a]: terms(f) for a, f in sorted(fdgen.items())},
        "endomorphisms": {"J": [[str(x) for x in row] for row in fj]},
        "bilinears": {},
        "forms": {"omega": terms(fomega)},
        "valuations": {},
        "checks": checks,
    }
    return manifest, p, q, fdgen, fj


def manifest_text(manifest):
    return json.dumps(manifest, sort_keys=True)


# -- the lattice workload ----------------------------------------------------


def lorentz_gram(n):
    return [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]


def random_root(rng, n):
    """A root r with entries in {-1, 0, 1} and q(r) = r0^2 - sum r_i^2 in {-1, -2}."""
    q = rng.choice((-1, -2))
    r0 = rng.choice((-1, 0, 1))
    support = r0 * r0 - q  # how many of the negative coordinates are +-1
    r = [0] * n
    r[0] = r0
    for i in rng.sample(range(1, n), support):
        r[i] = rng.choice((-1, 1))
    return r, q


def reflection(r, q):
    """x -> x - (2 b(x, r) / q) r as an integer matrix, b = diag(1, -1, ..)."""
    n = len(r)
    gr = [r[0]] + [-x for x in r[1:]]  # G r
    f = -2 // q  # 2 for q = -1, 1 for q = -2
    return [[int(i == j) + f * r[i] * gr[j] for j in range(n)] for i in range(n)]


def lattice_input(rng, n, count):
    m = identity(n)
    for _ in range(count):
        m = mat_mul(m, reflection(*random_root(rng, n)))
    return m


def conjugate_by_signed_permutation(rng, m):
    """W M W^T for a random signed permutation W that fixes the first
    coordinate up to sign, so W^T G W = G for G = diag(1, -1, .., -1)."""
    n = len(m)
    perm = [0] + rng.sample(range(1, n), n - 1)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    # (W M W^T)[i][j] = sign[i] sign[j] M[perm[i]][perm[j]]
    return [[sign[i] * sign[j] * m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
