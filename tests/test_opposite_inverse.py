"""The opposite and inverse maps relate the accepted sets of different spaces.

``cross_validate`` compares three routes that share the coset, the walk, the
index codec and the contraction kernels, so a fault in that shared layer
passes it.  These two identities test the layer against the algebra instead.

* Opposite.  (B (x)_chi A)^op is A^op (x)_{tau chi tau} B^op; with
  chi(a (x) b_i) = sum_j b_j (x) gamma[i][j](a), the map of the pair
  (B^op, A^op) has the grid ``G.transpose(3, 2, 1, 0)``.  So the accepted
  set of (A, B), transposed, is the accepted set of (B^op, A^op).
* Inverse.  A bijective twisting map chi gives a twisting map chi^-1 of the
  pair (B, A).  With M[(j, r), (p, i)] = gamma[i][j][r][p], an nd x nd
  matrix, its grid is gamma'[r][p][i][j] = M^-1[(p, i), (j, r)].

Each space is enumerated with ``enumerate_space(..., "all")``; the counts are
those of a whole-space walk.  Both identities also hold of the products that
``build_twisted_product`` assembles: the twisted product of the opposite map
is the opposite product up to the swap of tensor factors, and chi itself is
an isomorphism from the product of chi^-1 onto the product of chi.
"""

import itertools
from functools import lru_cache

import pytest

from test_search import _presentations, _tri_algebra
from twistkit import (
    GF,
    GammaFamily,
    KMatrix,
    SearchSpace,
    SingularMatrixError,
    build_twisted_product,
    certify,
    enumerate_space,
    kn_algebra,
    make_morphism,
    mat_inverse,
    truncated_poly_algebra,
)

F2, F3 = GF(2), GF(3)


def _algebras(field) -> dict:
    return {
        **_presentations(field),
        "K1": kn_algebra(field, 1),
        "tri": _tri_algebra(field),
        "tri.op": _tri_algebra(field).opposite(),
    }


@lru_cache(maxsize=None)
def _accepted(p: int, a: str, b: str) -> frozenset:
    """The accepted grids of the space (A, B), as flat tuples of residues."""
    algebras = _algebras(GF(p))
    space = SearchSpace(algebras[a], algebras[b])
    return frozenset(tuple(space.gamma_of_index(i).ravel().tolist()) for i in enumerate_space(space, "all"))


def _grids(p: int, a: str, b: str) -> list:
    algebras = _algebras(GF(p))
    n, d = algebras[b].dim, algebras[a].dim
    return [GF(p).asarray(flat).reshape(n, n, d, d) for flat in sorted(_accepted(p, a, b))]


def _flat(G) -> tuple:
    return tuple(G.ravel().tolist())


def _opposite(name: str) -> str:
    """The name of the opposite algebra: the commutative ones are their own."""
    return {"tri": "tri.op", "tri.op": "tri"}.get(name, name)


def _inverse_grid(field, G):
    """The grid of chi^-1 on (B, A), or None when chi is not bijective."""
    n, d = G.shape[0], G.shape[2]
    M = G.transpose(1, 2, 3, 0).reshape(n * d, d * n)       # rows (j, r), columns (p, i)
    try:
        inverse = mat_inverse(KMatrix(field, M)).data       # rows (p, i), columns (j, r)
    except SingularMatrixError:
        return None
    return inverse.reshape(d, n, n, d).transpose(3, 0, 1, 2)


#: (p, spaces, maps, invertible maps) on the spaces of the identities.
_SPACES = {
    "F2 2x2": (2, list(itertools.product(_presentations(F2), repeat=2)), 72, 47),
    "F3 K2 and K[Y]/(Y^2)": (3, list(itertools.product(["K2", "trunc2"], repeat=2)), 25, 16),
    "F2 tri x {K, K2, K[Y]/(Y^2)}": (2, [("tri", b) for b in ("K1", "K2", "trunc2")], 37, 10),
}


@pytest.mark.parametrize("name", sorted(_SPACES))
def test_opposite_and_inverse_maps_are_accepted(name):
    p, spaces, maps, invertible = _SPACES[name]
    field = GF(p)
    inverses = []
    for a, b in spaces:
        grids = _grids(p, a, b)
        transposed = {_flat(G.transpose(3, 2, 1, 0)) for G in grids}
        assert transposed == _accepted(p, _opposite(b), _opposite(a)), (a, b)
        for G in grids:
            inverse = _inverse_grid(field, G)
            if inverse is not None:
                inverses.append(_flat(inverse) in _accepted(p, b, a))
    assert sum(len(_accepted(p, a, b)) for a, b in spaces) == maps
    assert inverses == [True] * invertible


def test_the_opposite_relation_needs_the_opposite_algebras():
    """On the upper-triangular spaces the transposed set is not the accepted
    set of (B, A): the relation is sensitive to the orientation."""
    differ = [
        b
        for b in ("K1", "K2", "trunc2")
        if {_flat(G.transpose(3, 2, 1, 0)) for G in _grids(2, "tri", b)} != _accepted(2, b, "tri")
    ]
    assert differ == ["K2", "trunc2"]


def _product(A, B, G):
    """The twisted product of (A, B, G), on the basis b_i (x) a_p at index
    i * dim A + p."""
    candidate = certify(GammaFamily(A, B, G))
    assert candidate.verified
    return build_twisted_product(candidate).algebra


def _swap(field, n: int, d: int):
    """The permutation matrix sending the column of (p, i), at p * n + i, to
    the row of (i, p), at i * d + p."""
    swap = field.zeros((n * d, d * n))
    for i, p in itertools.product(range(n), range(d)):
        swap[i * d + p, p * n + i] = 1
    return swap


def test_products_of_opposite_and_inverse_maps_are_isomorphic():
    """Over every space of the identities, for every accepted map chi with
    product P: the swap is an isomorphism from the product of the opposite
    map on (B^op, A^op) onto P^op, and the matrix M of chi, M[(j, r), (p, i)]
    = gamma[i][j][r][p], one from the product of chi^-1 on (B, A) onto P."""
    opposites = inverses = 0
    for p, spaces, _, _ in _SPACES.values():
        field = GF(p)
        algebras = _algebras(field)
        for a, b in spaces:
            A, B = algebras[a], algebras[b]
            n, d = B.dim, A.dim
            swap = _swap(field, n, d)
            for G in _grids(p, a, b):
                P = _product(A, B, G)
                opposite = _product(B.opposite(), A.opposite(), G.transpose(3, 2, 1, 0))
                make_morphism(opposite, P.opposite(), swap)
                opposites += 1
                inverse = _inverse_grid(field, G)
                if inverse is not None:
                    M = G.transpose(1, 2, 3, 0).reshape(n * d, d * n)
                    make_morphism(_product(B, A, inverse), P, M)
                    inverses += 1
    assert (opposites, inverses) == (134, 73)
