"""Constructors and acceptance predicates for the stock twisting families.

Each family comes with a constructor (which always builds; verification is a
separate call) and the family's own acceptance conditions, exposed as a
tagged report so the equivalence with the generic checkers can be swept
family by family.  The conditions are checks of the table
``twisting.CHECKS``, under the family's key: each ``*_conditions`` entry
validates its data once, through the constructor it mirrors, and reads the
report of that key off ``twisting.route_reports``, on the image of the check
like the routes.  The families and their keys:

* ``ncd``    duplicates          carrier K[X]/(X^2 - X), data a pair (f, delta);
* ``qdup``   quantum duplicates  carrier K[X]/(X^2 - alpha X + beta), same data;
* ``kn``     K^n twists          carrier K^n, data an n x n grid of endomorphisms;
* ``trunc``  truncated twists    carrier K[Y]/(Y^n), grid indexed by exponents 0..n-1.

K^n candidates also yield a quiver (one vertex per basis idempotent, an arrow
per nonzero grid entry) carrying the grid maps as a representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteDimAlgebra,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
)
from .errors import DimensionMismatchError, FieldMismatchError
from .fields import Field
from .linalg import KMatrix
from .report import VerificationReport
from .twisting import (
    GammaFamily,
    TwistingCandidate,
    _family_of,
    _require_carrier,
    _rule_compositions,
    route_reports,
)


def _endo_array(field: Field, d: int, value) -> np.ndarray:
    if isinstance(value, KMatrix) and value.field != field:
        raise FieldMismatchError(f"endomorphism over {value.field}, algebra over {field}")
    arr = value.data if isinstance(value, KMatrix) else field.asarray(value)
    if arr.shape != (d, d):
        raise DimensionMismatchError(f"endomorphism must be {d} x {d}, got {arr.shape}")
    return arr


def _grid_array(field: Field, n: int, d: int, grid) -> np.ndarray:
    """The (n, n, d, d) array of an n x n grid of d x d endomorphisms."""
    if isinstance(grid, np.ndarray) and grid.shape == (n, n, d, d):
        return field.asarray(grid)
    if len(grid) != n or any(len(row) != n for row in grid):
        raise DimensionMismatchError(f"grid must be {n} x {n} endomorphisms of size {d} x {d}")
    data = field.zeros((n, n, d, d))
    for i in range(n):
        for j in range(n):
            data[i, j] = _endo_array(field, d, grid[i][j])
    return data


def _grid_candidate(A: FiniteDimAlgebra, carrier: FiniteDimAlgebra, gamma_grid) -> TwistingCandidate:
    return TwistingCandidate(GammaFamily(A, carrier, _grid_array(A.field, carrier.dim, A.dim, gamma_grid)))


# -- duplicates (carrier K[X]/(X^2 - X)) -----------------------------------------


def make_ncd(A: FiniteDimAlgebra, f, delta) -> TwistingCandidate:
    """Duplicate candidate: identity over the unit basis vector, (delta, f)
    over X.  Verification is a separate call."""
    return make_quantum_duplicate(A, 1, 0, f, delta)


def ncd_conditions(A: FiniteDimAlgebra, f, delta) -> VerificationReport:
    """The seven duplicate conditions on (f, delta), individually tagged.

    ``ncd.1``  delta o delta = delta
    ``ncd.2``  f o delta + delta o f + f o f = f
    ``ncd.3``  (delta + f)^2 = delta + f
    ``ncd.4``  delta(1) = 0
    ``ncd.5``  f(1) = 1
    ``ncd.6``  delta(ab) = a delta(b) + delta(a) f(b)
    ``ncd.7``  f(ab) = f(a) f(b)

    1 and 2 imply 3, and 5 and 6 imply 4, so {1, 2, 5, 6, 7} generate.
    """
    return route_reports(make_ncd(A, f, delta), ["ncd"])["ncd"]


# -- quantum duplicates (carrier K[X]/(X^2 - alpha X + beta)) ---------------------


def make_quantum_duplicate(A: FiniteDimAlgebra, alpha, beta, f, delta) -> TwistingCandidate:
    field, d = A.field, A.dim
    grid = field.zeros((2, 2, d, d))
    grid[0, 0] = field.identity(d)
    grid[1, 0] = _endo_array(field, d, delta)
    grid[1, 1] = _endo_array(field, d, f)
    return TwistingCandidate(GammaFamily(A, quadratic_algebra(field, alpha, beta), grid))


def qdup_conditions(A: FiniteDimAlgebra, alpha, beta, f, delta) -> VerificationReport:
    """Quantum-duplicate conditions on (f, delta) for the polynomial
    X^2 - alpha X + beta.

    ``qdup.P``          delta^2 - alpha delta + beta id = beta f^2
    ``qdup.swap``       f o delta + delta o f = alpha (f - f^2)
    ``qdup.unital``     f(1) = 1
    ``qdup.derivation`` delta(ab) = a delta(b) + delta(a) f(b)
    ``qdup.mult``       f(ab) = f(a) f(b)
    """
    return route_reports(make_quantum_duplicate(A, alpha, beta, f, delta), ["qdup"])["qdup"]


# -- K^n twists -------------------------------------------------------------------


def make_kn(A: FiniteDimAlgebra, n: int, gamma_grid) -> TwistingCandidate:
    return _grid_candidate(A, kn_algebra(A.field, n), gamma_grid)


def kn_conditions(A: FiniteDimAlgebra, n: int, gamma_grid) -> VerificationReport:
    """The K^n family conditions on the grid.

    ``kn.1``  grid[i][p] o grid[j][p] = delta_ij grid[i][p]; witness (i, j, p, ...)
    ``kn.2``  sum_j grid[j][i] = id for every i; witness (i, ...)
    ``kn.3``  twisted multiplicativity on basis pairs
    ``kn.4``  grid[i][j](1) = delta_ij 1
    """
    return route_reports(make_kn(A, n, gamma_grid), ["kn"])["kn"]


# -- quivers of K^n twists ---------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """Vertices v_1..v_n; an arrow (source j, target i) per nonzero grid map."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class QuiverRep:
    """All vertex spaces equal the twisted algebra; arrow (j, i) carries grid[j][i]."""

    quiver: Quiver
    maps: dict[tuple[int, int], KMatrix]


def quiver_of(candidate: TwistingCandidate | GammaFamily) -> tuple[Quiver, QuiverRep]:
    """Quiver with an arrow j -> i exactly at each nonzero grid entry; the
    carrier must be K^n in the idempotent basis, that of the ``kn`` check."""
    family = _family_of(candidate)
    _require_carrier(family, "kn")
    field = family.field
    nonzero = field.mismatch(family.gamma, field.zero).any(axis=(2, 3))
    arrows = tuple((j, i) for j, i in np.argwhere(nonzero).tolist())
    maps = {(j, i): KMatrix(field, family.gamma[j, i]) for j, i in arrows}
    quiver = Quiver(tuple(f"v{i + 1}" for i in range(family.B.dim)), arrows)
    return quiver, QuiverRep(quiver, maps)


# -- truncated polynomial twists ----------------------------------------------------


def make_truncated(A: FiniteDimAlgebra, n: int, gamma_grid) -> TwistingCandidate:
    return _grid_candidate(A, truncated_poly_algebra(A.field, n), gamma_grid)


def truncated_conditions(A: FiniteDimAlgebra, n: int, gamma_grid) -> VerificationReport:
    """The truncated-carrier conditions on a grid indexed by exponents 0..n-1.

    ``trunc.1``  grid[0][j] = delta_0j id; witness (j, u, v)
    ``trunc.2``  grid[r][j] = sum_{l<=j} grid[r-i][j-l] o grid[i][l]
                 for 1 < r < n, 0 < i < r, j < n; witness (t, u, v) with
                 t the flat index of (r, i, j), r slowest and j fastest
    ``trunc.3``  sum_{l<=j} grid[n-i][j-l] o grid[i][l] = 0
                 for 0 < i < n, j < n; witness (t, u, v) with t = (i - 1) n + j
    ``trunc.4``  twisted multiplicativity on basis pairs
    ``trunc.5``  grid[i][j](1) = delta_ij 1

    (u, v) is the entry of the d x d coordinate matrix.
    """
    return route_reports(make_truncated(A, n, gamma_grid), ["trunc"])["trunc"]


def truncated_from_first_row(A: FiniteDimAlgebra, n: int, first_row) -> TwistingCandidate:
    """Grid generated from the exponent-1 row: row 0 is (id, 0, ..., 0) and
    each higher row is derived by the convolution rule with step 1."""
    field = A.field
    d = A.dim
    if n < 2 or len(first_row) != n:
        raise DimensionMismatchError(f"need n >= 2 and a first row of {n} endomorphisms of size {d} x {d}")
    carrier = truncated_poly_algebra(field, n)
    grid = field.zeros((n, n, d, d))
    grid[0, 0] = field.identity(d)
    grid[1] = [_endo_array(field, d, entry) for entry in first_row]
    for r in range(2, n):
        grid[r] = _rule_compositions(field, carrier.lam, grid[r - 1 : r], grid[1:2])[0, 0]
    return TwistingCandidate(GammaFamily(A, carrier, grid))
