"""An independent exact reference for the rational arithmetic: sympy.

Random small Q candidates are rebased by a seeded rational change of basis.
The inverse, the rebased carrier and gamma grid, and the structure constants
of the twisted product are recomputed here from their definitions with
``sympy.Rational`` / ``sympy.Matrix`` and plain loops, using nothing from
twistkit but the inputs.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from twistkit import (
    GammaFamily,
    KMatrix,
    QQ,
    SingularMatrixError,
    build_twisted_product,
    certify,
    duplicate_algebra,
    kn_algebra,
    make_kn,
    make_ncd,
    make_quantum_duplicate,
    mat_inverse,
    quadratic_algebra,
    rebase,
    truncated_poly_algebra,
)
from twistkit.twisting import TwistingCandidate

sympy = pytest.importorskip("sympy")


def rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 5]))


def random_matrix(rng, n):
    return [[rational(rng) for _ in range(n)] for _ in range(n)]


def to_sympy(arr):
    """Nested lists of ``sympy.Rational`` for an array (or nested list) of rationals."""
    return _sympy_rational(np.asarray(arr, dtype=object).tolist())


def _sympy_rational(value):
    if isinstance(value, list):
        return [_sympy_rational(v) for v in value]
    value = Fraction(value)
    return sympy.Rational(value.numerator, value.denominator)


def accepted_candidates():
    k2 = kn_algebra(QQ, 2)
    eye, zero = QQ.identity(2), QQ.zeros((2, 2))
    f = QQ.asarray([[1, 0], [1, 0]])
    return [
        make_ncd(k2, f, zero),
        make_quantum_duplicate(k2, 0, -1, [[0, 1], [1, 0]], zero),
        make_kn(k2, 2, [[eye, QQ.sub(eye, f)], [zero, f]]),
        GammaFamily.flip(k2, truncated_poly_algebra(QQ, 3)),
        GammaFamily.flip(duplicate_algebra(QQ), kn_algebra(QQ, 3)),
    ]


def random_candidate(rng):
    """A random rational grid, forged as verified: the rebase and product
    formulas hold for any grid."""
    A = rng.choice(
        [kn_algebra(QQ, 2), truncated_poly_algebra(QQ, 2), quadratic_algebra(QQ, Fraction(1, 2), -3)]
    )
    B = rng.choice([kn_algebra(QQ, 2), duplicate_algebra(QQ), truncated_poly_algebra(QQ, 3)])
    n, d = B.dim, A.dim
    grid = QQ.asarray([[random_matrix(rng, d) for _ in range(n)] for _ in range(n)])
    return TwistingCandidate(GammaFamily(A, B, grid), verified=True)


def candidates():
    rng = random.Random(2015)
    accepted = [certify(c) for c in accepted_candidates()]
    assert all(c.verified for c in accepted)
    return accepted + [random_candidate(rng) for _ in range(6)]


def seeded_invertible(rng, n):
    while True:
        rows = random_matrix(rng, n)
        if sympy.Matrix(to_sympy(rows)).det() != 0:
            return rows


# -- the references -----------------------------------------------------------------


def rebase_reference(lam, unit, gamma, P):
    """New basis v_i = sum_u P[u, i] b_u: v_i v_j = sum_k new_lam[i][j][k] v_k,
    1 = sum_k new_unit[k] v_k, chi(a (x) v_i) = sum_k v_k (x) new_gamma[i][k](a)."""
    n = P.rows
    Pinv = P.inv()
    idx = range(n)
    new_lam = [
        [
            [
                sum(P[u, i] * P[w, j] * lam[u][w][s] * Pinv[k, s] for u, w, s in product(idx, repeat=3))
                for k in idx
            ]
            for j in idx
        ]
        for i in idx
    ]
    new_unit = list(Pinv * sympy.Matrix(unit))
    new_gamma = [
        [
            sum(
                (P[u, i] * Pinv[k, w] * sympy.Matrix(gamma[u][w]) for u, w in product(idx, idx)),
                sympy.zeros(len(gamma[0][0])),
            ).tolist()
            for k in idx
        ]
        for i in idx
    ]
    return new_lam, new_unit, new_gamma


def product_reference(lamA, unitA, lamB, unitB, gamma):
    """(b_i (x) a_p)(b_j (x) a_q) = b_i chi(a_p (x) b_j) a_q
    = sum_l (b_i b_l) (x) (gamma[j][l](a_p) a_q), basis b_i (x) a_p at i*d + p."""
    n, d = len(lamB), len(lamA)
    nd = n * d
    lam = [[[sympy.Integer(0)] * nd for _ in range(nd)] for _ in range(nd)]
    for i, p, j, q, k, w in product(range(n), range(d), range(n), range(d), range(n), range(d)):
        lam[i * d + p][j * d + q][k * d + w] = sum(
            lamB[i][l][k] * gamma[j][l][r][p] * lamA[r][q][w]
            for l, r in product(range(n), range(d))
        )
    unit = [unitB[i] * unitA[p] for i, p in product(range(n), range(d))]
    return lam, unit


# -- the comparisons ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_mat_inverse_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 4])
    rows = seeded_invertible(rng, n)
    inverse = mat_inverse(KMatrix(QQ, QQ.asarray(rows))).data
    assert to_sympy(inverse) == sympy.Matrix(to_sympy(rows)).inv().tolist()

    # the last row a rational combination of the others: rank n - 1
    weights = [rational(rng) for _ in range(n - 1)]
    last = [sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0)) for c in range(n)]
    singular = rows[:-1] + [last]
    with pytest.raises(SingularMatrixError) as err:
        mat_inverse(KMatrix(QQ, QQ.asarray(singular)))
    assert err.value.rank == sympy.Matrix(to_sympy(singular)).rank() == n - 1


@pytest.mark.parametrize("index", range(11))
def test_rebase_and_product_match_sympy(index):
    candidate = candidates()[index]
    family = candidate.family
    n = family.B.dim
    rng = random.Random(100 + index)
    rows = seeded_invertible(rng, n)
    P = sympy.Matrix(to_sympy(rows))

    result = rebase(candidate, KMatrix(QQ, QQ.asarray(rows)))
    new_lam, new_unit, new_gamma = rebase_reference(
        to_sympy(family.B.lam), to_sympy(family.B.unit), to_sympy(family.gamma), P
    )
    assert to_sympy(result.algebra.lam) == new_lam
    assert to_sympy(result.algebra.unit) == new_unit
    assert to_sympy(result.candidate.family.gamma) == new_gamma
    if index < len(accepted_candidates()):
        assert result.candidate.verified  # rebasing keeps a twisting map one

    rebased = TwistingCandidate(result.candidate.family, verified=True)
    built = build_twisted_product(rebased).algebra
    lam, unit = product_reference(
        to_sympy(family.A.lam), to_sympy(family.A.unit), new_lam, new_unit, new_gamma
    )
    assert to_sympy(built.lam) == lam
    assert to_sympy(built.unit) == unit
