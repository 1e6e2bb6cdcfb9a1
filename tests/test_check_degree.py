"""Every check is of degree at most 2 in the grid.

Each side of every family of every generator has at most two factors of G,
so the flattened residual r(G) = left - right is a polynomial of degree at
most 2 in the entries of G, and its third finite difference

    sum_{s in {0,1}^3} (-1)^(3 - |s|) r(x + s1 a + s2 b + s3 c)

vanishes at every x, a, b, c.  A solver of the quadratic system of a route,
and a reading of Q families off F_p sweeps, both rest on this bound.  The
eight grids of a trial are one stack of batch shape (2, 2, 2), so the
difference is a signed sum over the batch axes; a G o G o G family is the
control that the test can see degree 3.
"""

import numpy as np
import pytest

from test_search import _tri_algebra
from twistkit import (
    GF,
    direct_product,
    duplicate_algebra,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
)
from twistkit.extension import _extension_pairs, _lemma_pairs
from twistkit.twisting import CHECKS, ROUTES, route_pairs

PRIMES = (2, 3, 5, 7)
TRIALS = 6

#: (-1)^(3 - |s|) on the batch axes (s1, s2, s3).
_SIGNS = np.array([[[(-1) ** (3 - s1 - s2 - s3) for s3 in (0, 1)] for s2 in (0, 1)] for s1 in (0, 1)])


def _carrier(field, key):
    """The carrier a check is written for: K[Y]/(Y^2) for the routes."""
    if key in ROUTES:
        return truncated_poly_algebra(field, 2)
    B = {
        "ncd": duplicate_algebra(field),
        "qdup": quadratic_algebra(field, 1, 1),
        "kn": kn_algebra(field, 2),
        "trunc": truncated_poly_algebra(field, 3),
    }[key]
    assert CHECKS[key].carrier(B) == B
    return B


def _cube(field, G):
    """The control family G o G o G, of degree 3: axes (..., i, l, r, c)."""
    GG = field.einsum("...ijrs,...jksc->...ikrc", G, G)
    GGG = field.einsum("...ikrs,...klsc->...ilrc", GG, G)
    yield "cube", GGG, field.zeros(GGG.shape[-4:])


def _generators(field):
    """name -> (A, B, pairs(G)) for every check and the block criteria."""
    A = _tri_algebra(field)
    D = direct_product(kn_algebra(field, 1), truncated_poly_algebra(field, 2))
    out = {}
    for key in CHECKS:
        B = _carrier(field, key)
        out[key] = (A, B, lambda G, key=key, B=B: route_pairs(key, A, B, G))
    out["lemma"] = (A, D, lambda G: _lemma_pairs(route_pairs("rep", A, D, G), 1))
    for flag in (True, False):
        out[f"extension.{flag}"] = (
            A,
            D,
            lambda G, flag=flag: _extension_pairs(A, D, G, route_pairs("rep", A, D, G), 1, flag),
        )
    out["control"] = (A, D, lambda G: _cube(field, G))
    return out


def _third_difference(field, A, B, pairs, rng) -> np.ndarray:
    """The third difference of the flattened residual at random x, a, b, c."""
    shape = (B.dim, B.dim, A.dim, A.dim)
    x, a, b, c = (rng.integers(0, field.p, size=shape) for _ in range(4))
    s = np.arange(2)
    stack = field.reduce(
        x
        + s[:, None, None, None, None, None, None] * a
        + s[None, :, None, None, None, None, None] * b
        + s[None, None, :, None, None, None, None] * c
    )
    witnesses = [np.broadcast_shapes(left.shape, right.shape) for _, left, right in pairs(stack[0, 0, 0])]
    residual = np.concatenate(
        [
            np.broadcast_to(field.sub(left, right), (2, 2, 2) + witness).reshape(2, 2, 2, -1)
            for (_, left, right), witness in zip(pairs(stack), witnesses, strict=True)
        ],
        axis=-1,
    )
    return field.reduce(np.einsum("ijk,ijk...->...", _SIGNS, residual))


@pytest.mark.parametrize("p", PRIMES)
def test_every_check_has_degree_at_most_two(p):
    field = GF(p)
    rng = np.random.default_rng(p)
    generators = _generators(field)
    assert len(generators) == 13
    detected = 0
    for _ in range(TRIALS):
        for name, (A, B, pairs) in generators.items():
            difference = _third_difference(field, A, B, pairs, rng)
            if name == "control":
                detected += bool(difference.any())
            else:
                assert not difference.any(), (p, name)
    assert detected == TRIALS
