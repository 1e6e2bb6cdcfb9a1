"""Seeded construction of benchmark inputs in plain Python, without twistkit.

Scalars live in Q (``fractions.Fraction``, ``mod=None``) or in F_p (residues,
``mod=p``).  An algebra is a dict with ``lam[i][j][k]`` (coefficient of basis
k in basis_i * basis_j), ``unit`` and ``basis``; a candidate is a dict with
``A``, ``B`` and ``gamma[i][j]`` (a d x d matrix whose columns are images of
basis vectors).  Every candidate built here is a twisting map by
construction, so the expected verdict of each input is known without asking
the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction


def norm(x, mod):
    return Fraction(x) if mod is None else int(x) % mod


def inv(x, mod):
    if mod is None:
        return 1 / Fraction(x)
    return pow(int(x) % mod, mod - 2, mod)


def fmt(x, mod) -> str:
    return str(norm(x, mod))


# -- dense helpers --------------------------------------------------------------


def zeros(*shape):
    if len(shape) == 1:
        return [0] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def identity(n, mod):
    return [[norm(int(i == j), mod) for j in range(n)] for i in range(n)]


def matmul(x, y, mod):
    return [
        [norm(sum(x[i][k] * y[k][j] for k in range(len(y))), mod) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def matsub(x, y, mod):
    return [[norm(a - b, mod) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def matscale(c, x, mod):
    return [[norm(c * a, mod) for a in row] for row in x]


def matinv(m, mod):
    """Gauss-Jordan inverse; the caller guarantees invertibility."""
    n = len(m)
    aug = [list(row) + identity(n, mod)[i] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        s = inv(aug[c][c], mod)
        aug[c] = [norm(v * s, mod) for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [norm(a - f * b, mod) for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def to_json(value, mod):
    """Nested lists of canonical scalar strings."""
    if isinstance(value, list):
        return [to_json(v, mod) for v in value]
    return fmt(value, mod)


# -- algebras --------------------------------------------------------------------


def _algebra(lam, unit, basis):
    return {"lam": lam, "unit": unit, "basis": list(basis)}


def kn(d, mod):
    """K^d with orthogonal idempotents e_1..e_d."""
    lam = zeros(d, d, d)
    for i in range(d):
        lam[i][i][i] = 1
    lam = [[[norm(v, mod) for v in row] for row in plane] for plane in lam]
    return _algebra(lam, [norm(1, mod)] * d, [f"e{i + 1}" for i in range(d)])


def quadratic(alpha, beta, mod):
    """K[X]/(X^2 - alpha X + beta) with basis {1, X}."""
    z, o = norm(0, mod), norm(1, mod)
    lam = [[[o, z], [z, o]], [[z, o], [norm(-beta, mod), norm(alpha, mod)]]]
    return _algebra(lam, [o, z], ["1", "X"])


def duplicate(mod):
    return quadratic(1, 0, mod)


def truncated(n, mod):
    """K[Y]/(Y^n) with basis {1, Y, ..., Y^(n-1)}."""
    lam = [[[norm(int(i + j == k), mod) for k in range(n)] for j in range(n)] for i in range(n)]
    unit = [norm(int(i == 0), mod) for i in range(n)]
    return _algebra(lam, unit, ["1" if i == 0 else ("Y" if i == 1 else f"Y^{i}") for i in range(n)])


def algebra_json(alg, mod):
    field = {"kind": "Q"} if mod is None else {"kind": "Fp", "p": mod}
    return {
        "field": field,
        "dim": len(alg["unit"]),
        "basis": alg["basis"],
        "lambda": to_json(alg["lam"], mod),
        "unit": to_json(alg["unit"], mod),
    }


def candidate_json(cand, mod):
    return {
        "A": algebra_json(cand["A"], mod),
        "B": algebra_json(cand["B"], mod),
        "gamma": to_json(cand["gamma"], mod),
    }


# -- twisting maps by construction ----------------------------------------------


def idempotent_endo(rng: random.Random, d: int, mod):
    """Coordinate matrix of x -> (x_sigma(i))_i on K^d for an idempotent map
    sigma of {0..d-1}: a unital algebra endomorphism f with f o f = f."""
    image = sorted(rng.sample(range(d), rng.randint(1, d)))
    sigma = [i if i in image else rng.choice(image) for i in range(d)]
    return [[norm(int(sigma[r] == c), mod) for c in range(d)] for r in range(d)], sigma


def any_endo(rng: random.Random, d: int, mod):
    """Unital algebra endomorphism of K^d from an arbitrary map of indices."""
    sigma = [rng.randrange(d) for _ in range(d)]
    return [[norm(int(sigma[r] == c), mod) for c in range(d)] for r in range(d)]


def _grid(n, d, mod):
    return [[[[norm(0, mod)] * d for _ in range(d)] for _ in range(n)] for _ in range(n)]


def flip(A, B, mod):
    d, n = len(A["unit"]), len(B["unit"])
    g = _grid(n, d, mod)
    for i in range(n):
        g[i][i] = identity(d, mod)
    return {"A": A, "B": B, "gamma": g, "family": "flip"}


def ncd(A, f, delta, mod):
    """Duplicate candidate over K[X]/(X^2 - X): identity over 1, (delta, f) over X."""
    d = len(A["unit"])
    g = _grid(2, d, mod)
    g[0][0] = identity(d, mod)
    g[1][0] = delta
    g[1][1] = f
    return {"A": A, "B": duplicate(mod), "gamma": g, "family": "ncd", "f": f, "delta": delta}


def qdup(A, c, c2, f, mod):
    """Quantum duplicate over K[X]/(X^2 - (c + c2) X + c c2) with an idempotent
    endomorphism f and delta = c (id - f)."""
    d = len(A["unit"])
    alpha, beta = norm(c + c2, mod), norm(c * c2, mod)
    delta = matscale(c, matsub(identity(d, mod), f, mod), mod)
    g = _grid(2, d, mod)
    g[0][0] = identity(d, mod)
    g[1][0] = delta
    g[1][1] = f
    return {
        "A": A, "B": quadratic(alpha, beta, mod), "gamma": g, "family": "qdup",
        "alpha": alpha, "beta": beta, "f": f, "delta": delta,
    }


def kn2(A, f, mod):
    """K^2 candidate [[id, id - f], [0, f]] for an idempotent endomorphism f."""
    d = len(A["unit"])
    eye = identity(d, mod)
    g = [[eye, matsub(eye, f, mod)], [[[norm(0, mod)] * d for _ in range(d)], f]]
    return {"A": A, "B": kn(2, mod), "gamma": g, "family": "kn"}


def trunc(A, n, sigma, mod):
    """Truncated candidate over K[Y]/(Y^n) generated by the first row
    (0, sigma, 0, ...): gamma[r][r] = sigma^r and zero elsewhere."""
    d = len(A["unit"])
    g = _grid(n, d, mod)
    power = identity(d, mod)
    for r in range(n):
        g[r][r] = power
        power = matmul(power, sigma, mod)
    return {"A": A, "B": truncated(n, mod), "gamma": g, "family": "trunc"}


def rebase(cand, p, mod):
    """The candidate in the carrier basis whose i-th vector has old
    coordinates p[.][i]; a twisting map stays a twisting map."""
    B = cand["B"]
    n = len(B["unit"])
    pinv = matinv(p, mod)
    lam = B["lam"]
    new_lam = [
        [
            [
                norm(
                    sum(
                        p[a][i] * p[b][j] * lam[a][b][w] * pinv[k][w]
                        for a in range(n) for b in range(n) for w in range(n)
                        if lam[a][b][w] != 0
                    ),
                    mod,
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    new_unit = [norm(sum(pinv[k][w] * B["unit"][w] for w in range(n)), mod) for k in range(n)]
    G = cand["gamma"]
    d = len(cand["A"]["unit"])
    new_gamma = [
        [
            [
                [
                    norm(
                        sum(p[a][i] * pinv[j][b] * G[a][b][r][c] for a in range(n) for b in range(n)),
                        mod,
                    )
                    for c in range(d)
                ]
                for r in range(d)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    new_b = _algebra(new_lam, new_unit, [f"v{i + 1}" for i in range(n)])
    out = dict(cand, B=new_b, gamma=new_gamma)
    out["rebased"] = True
    return out


def invertible(rng: random.Random, n: int, mod, scales=(1,)):
    """L * D * U with unit-triangular L, U and a diagonal D drawn from
    ``scales`` (all nonzero), so the matrix is invertible by construction."""
    entries = range(-2, 3) if mod is None else range(mod)
    low = identity(n, mod)
    up = identity(n, mod)
    for i in range(n):
        for j in range(i):
            low[i][j] = norm(rng.choice(entries), mod)
            up[j][i] = norm(rng.choice(entries), mod)
    diag = [[norm(rng.choice(scales), mod) if i == j else norm(0, mod) for j in range(n)] for i in range(n)]
    return matmul(matmul(low, diag, mod), up, mod)


def perturb(cand, rng: random.Random, mod, rows=None):
    """One gamma entry shifted by a nonzero scalar in a column where the unit
    of A is nonzero.  That moves gamma_i^j(1_A) off delta_ij 1_A, so the
    result is never a twisting map.  ``rows`` limits the grid rows touched."""
    n = len(cand["B"]["unit"])
    d = len(cand["A"]["unit"])
    unit = cand["A"]["unit"]
    i = rng.choice(list(rows) if rows is not None else range(n))
    j = rng.randrange(n)
    r = rng.randrange(d)
    c = rng.choice([k for k in range(d) if unit[k] != 0])
    shift = rng.choice([1, 2, -1]) if mod is None else rng.randrange(1, mod)
    gamma = [[[list(row) for row in m] for m in grow] for grow in cand["gamma"]]
    gamma[i][j][r][c] = norm(gamma[i][j][r][c] + shift, mod)
    out = dict(cand, gamma=gamma)
    out["perturbed"] = (i, j, r, c)
    return out


def is_integral(cand) -> bool:
    values = [v for grow in cand["gamma"] for m in grow for row in m for v in row]
    values += [v for plane in cand["B"]["lam"] for row in plane for v in row] + list(cand["B"]["unit"])
    return all(Fraction(v).denominator == 1 for v in values)
