"""Exhaustive enumeration of gamma grids over prime fields at tiny dimensions.

Candidates are totally ordered: flatten the grid row-major over (i, j) and
then row-major within each d x d matrix, read the entries as base-p digits,
most significant first.  Enumeration scans a half-open index range
[start, stop) in ascending order and is deterministic, so a run can be
restarted from any index: enumerating contiguous ranges one after another
and concatenating the results gives exactly the result of one run over
their union.  A non-empty range that starts below 0 raises ``IndexError``;
an empty one yields nothing.  Indices and bounds are ``int`` or numpy
integers, never ``bool``; a grid to encode is exact and of ``grid_shape``.

Only grids that can pass are visited.  Each route has unit families that
are affine in the gamma grid: ``direct.1`` / ``direct.3``, ``rho.unit`` /
``phi.unit``, ``oracle.chi-left-unit`` / ``oracle.chi-right-unit``, yielded
first by the generators ``twisting.UNIT_FAMILIES`` names (the routes' own, so
no formula is written twice and the oracle stays independent).  One pass of
them over the stack of the zero grid and the N = n^2 d^2 unit grids gives
the linear system of those families.  Its exact solution set
(``linalg.kernel_basis``) is an affine coset of F_p^N, expanded as digit rows
and mapped to full-space indices.  Off the coset the route rejects.
The coset points in range are evaluated in stacks of at most ``_CHUNK``
grids, one ``pairs_ok`` verdict per generator of ``twisting.ROUTES`` on the
grids that passed the generators before it (``all`` chains ``direct``,
``rep`` and ``oracle`` on the ``direct`` coset, which holds the
conjunction).  ``cross_validate`` runs the three routes on the union of the
three cosets, off which the verdicts are unanimous by construction.

``MAX_CANDIDATES`` still bounds the full space, not the coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import DimensionMismatchError, FieldError, SearchSpaceTooLargeError, _require_int
from .linalg import KMatrix, kernel_basis
from .report import Failure, VerificationReport, pairs_ok
from .twisting import ROUTES, UNIT_FAMILIES, GammaFamily

#: Hard guard on the number of candidates a space may hold.
MAX_CANDIDATES = 1 << 24

#: Most grids one verdict pass evaluates at once.  With zero units in A and B
#: the ``direct`` and ``oracle`` cosets are the whole space, up to the guard.
_CHUNK = 4096


def _place_values(p: int, length: int) -> np.ndarray:
    """p^(length-1-t) for t < length: the weight of each base-p digit.

    ``int64`` while every index fits, Python ints (object dtype) beyond.
    """
    dtype = np.int64 if p**length <= 1 << 63 else object
    return np.array([p**t for t in range(length - 1, -1, -1)], dtype=dtype)


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """All gamma grids for a fixed pair (A, B) over a prime field."""

    A: FiniteDimAlgebra
    B: FiniteDimAlgebra

    def __post_init__(self):
        if self.A.field != self.B.field:
            raise FieldError("A and B must share one field")
        if self.A.field.kind != "Fp":
            raise FieldError("enumeration requires a prime field")

    @property
    def p(self) -> int:
        return self.A.field.p

    @property
    def free_entries(self) -> int:
        return (self.B.dim * self.A.dim) ** 2

    @property
    def total(self) -> int:
        return self.p ** self.free_entries

    @property
    def grid_shape(self) -> tuple[int, int, int, int]:
        n, d = self.B.dim, self.A.dim
        return (n, n, d, d)

    def guard(self) -> None:
        if self.total > MAX_CANDIDATES:
            raise SearchSpaceTooLargeError(
                f"{self.total} candidates exceed the guard of {MAX_CANDIDATES}"
            )

    def gamma_of_index(self, index: int) -> np.ndarray:
        _require_int(index, "index")
        if not 0 <= index < self.total:
            raise IndexError(f"index {index} out of range for {self.total} candidates")
        digits = (index // _place_values(self.p, self.free_entries)) % self.p
        return digits.astype(np.int64).reshape(self.grid_shape)

    def index_of_gamma(self, gamma: np.ndarray) -> int:
        grid = self.A.field.asarray(gamma)
        if grid.shape != self.grid_shape:
            raise DimensionMismatchError(f"gamma grid has shape {grid.shape}, not {self.grid_shape}")
        return int(self._indices(grid.reshape(-1)))

    def _indices(self, digits: np.ndarray) -> np.ndarray:
        """Full-space indices of digit rows (the last axis holds the N digits)."""
        weights = _place_values(self.p, self.free_entries)
        return (digits % self.p).astype(weights.dtype) @ weights

    def family_at(self, index: int) -> GammaFamily:
        return GammaFamily(self.A, self.B, self.gamma_of_index(index))


def _unit_residual(space: SearchSpace, route: str, digits: np.ndarray) -> np.ndarray:
    """left - right of the route's unit families, flattened, at a stack of
    grids: digit rows (..., N) in, residual rows (..., R) out."""
    batch = digits.shape[:-1]
    G = digits.reshape(batch + space.grid_shape)
    parts = [
        (left - right).reshape(batch + (-1,))
        for pairs, count in UNIT_FAMILIES[route]
        for _, left, right in islice(pairs(space.A, space.B, G), count)
    ]
    return space.A.field.reduce(np.concatenate(parts, axis=-1))


def _coset(space: SearchSpace, route: str) -> np.ndarray:
    """Every grid passing the route's unit families, one digit row each.

    The families are affine, F(x) = F(0) + M x; one batched residual at the
    zero grid and the N unit grids gives F(0) and M.  The homogeneous system
    [M | F(0)] (x, t) = 0 has the coset as its t = 1 slice.  Its kernel basis
    has a 1 in the t coordinate only on its last vector, and only when t is
    free; otherwise the coset is empty.
    """
    field, N, p = space.A.field, space.free_entries, space.p
    F = _unit_residual(space, route, np.eye(N + 1, N, k=-1, dtype=np.int64))
    f0, M = F[0], field.sub(F[1:], F[0]).T
    kernel = kernel_basis(KMatrix(field, np.concatenate([M, f0[:, None]], axis=1)))
    if not kernel or kernel[-1][N] != 1:
        return np.zeros((0, N), dtype=np.int64)
    offset = kernel[-1][:N]
    basis = np.array([v[:N] for v in kernel[:-1]], dtype=np.int64).reshape(-1, N)
    k = len(basis)
    coeffs = (np.arange(p**k)[:, None] // _place_values(p, k)) % p
    return (offset + coeffs @ basis) % p


def _stacks(space: SearchSpace, routes, start: int, stop: int | None):
    """(indices, grids), ascending and at most ``_CHUNK`` at a time, of every
    grid in [start, stop) passing the unit families of one of ``routes``."""
    _require_int(start, "start")
    stop = space.total if stop is None else min(_require_int(stop, "stop"), space.total)
    if start >= stop:
        return
    if start < 0:
        raise IndexError(f"index {start} out of range for {space.total} candidates")
    points = np.concatenate([_coset(space, route) for route in routes])
    indices, rows = np.unique(space._indices(points), return_index=True)
    keep = (indices >= start) & (indices < stop)
    indices, grids = indices[keep], points[rows[keep]].reshape((-1,) + space.grid_shape)
    for lo in range(0, len(indices), _CHUNK):
        yield indices[lo : lo + _CHUNK], grids[lo : lo + _CHUNK]


def _verdict(A: FiniteDimAlgebra, B: FiniteDimAlgebra, routes, G: np.ndarray) -> np.ndarray:
    """One boolean per grid of the stack G (batch shape ``G.shape[:-4]``):
    every family of every generator of ``routes`` holds.  Each generator runs
    only on the grids that passed the ones before it."""
    ok = np.ones(G.shape[:-4], dtype=bool)
    for route in routes:
        for pairs in ROUTES[route]:
            live = np.nonzero(ok)
            ok[live] = pairs_ok(A.field, pairs(A, B, G[live]), live[0].shape)
    return ok


def enumerate_space(
    space: SearchSpace,
    checker: str = "direct",
    start: int = 0,
    stop: int | None = None,
) -> list[int]:
    """Ascending indices of accepted candidates in [start, stop).

    ``checker`` is one of ``direct``, ``rep``, ``oracle`` or ``all`` (the
    conjunction of the three).  Only the points of the route's unit-family
    coset are evaluated; ``all`` uses the ``direct`` coset.
    """
    space.guard()
    if checker == "all":
        route, routes = "direct", tuple(UNIT_FAMILIES)
    elif checker in UNIT_FAMILIES:
        route, routes = checker, (checker,)
    else:
        raise ValueError(f"unknown checker {checker!r}")
    accepted = []
    for indices, G in _stacks(space, (route,), start, stop):
        accepted += indices[_verdict(space.A, space.B, routes, G)].tolist()
    return accepted


def cross_validate(
    space: SearchSpace,
    start: int = 0,
    stop: int | None = None,
) -> VerificationReport:
    """Verdict unanimity of the three routes over the whole space.

    The first candidate on which the structure-constant route, the combined
    representation route and the definition-level oracle disagree is reported
    with its index, the three verdicts, and the full gamma grid.  The routes
    are evaluated on the union of their unit-family cosets; every route
    rejects every grid outside it.
    """
    space.guard()
    for indices, G in _stacks(space, tuple(UNIT_FAMILIES), start, stop):
        verdicts = np.array([_verdict(space.A, space.B, (route,), G) for route in UNIT_FAMILIES])
        split = np.flatnonzero((verdicts != verdicts[0]).any(axis=0))
        if split.size:
            direct, rep, oracle = verdicts[:, split[0]].tolist()
            failure = Failure(
                condition="cross.disagree",
                witness=(int(indices[split[0]]),),
                left=f"direct={direct} rep={rep} oracle={oracle}",
                right=space.A.field.format_array(G[split[0]]),
            )
            return VerificationReport(ok=False, failures=(failure,))
    return VerificationReport(ok=True)
