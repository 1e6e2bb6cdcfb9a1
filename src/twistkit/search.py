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
the linear system of those families.  Each call solves it once for each
route it walks, by one exact elimination with the digit columns reversed,
into an echelon description of its affine coset of F_p^N: an offset and a
basis whose vectors each lead with a 1 in their own free digit.  The coset
points then ascend by index as their coefficient vectors count up in base p,
so [start, stop) maps to a range of ranks by one pass down the
digits of each bound, and only the points of that range are built, at most
``_CHUNK`` at a time.  Off the coset the route rejects.  Each stack gets one
``pairs_ok`` verdict per generator of ``twisting.ROUTES``, on the grids that
passed the generators before it (``all`` chains ``direct``, ``rep`` and
``oracle`` on the ``direct`` coset, which holds the conjunction).
``cross_validate`` merges the three cosets' ranked walks window by window,
each window at most one chunk per route, and runs the three routes on their
union, off which the verdicts are unanimous by construction.

``MAX_CANDIDATES`` bounds the full space; memory per call is bounded by
``_CHUNK`` points per route whatever the coset's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import DimensionMismatchError, FieldError, SearchSpaceTooLargeError, _require_int
from .linalg import _rref
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


@dataclass(frozen=True, eq=False)
class _Coset:
    """The points (offset + c @ basis) mod p, c in F_p^k, as digit rows.

    ``basis[j]`` leads with a 1 in its free digit ``free[j]`` (ascending),
    and the offset and the other vectors are 0 there.  So the point of c
    holds c_j at ``free[j]``, and each of its other digits depends only on
    the coefficients of the free digits before it: the points ascend by index
    exactly as c counts up in base p, and the point of rank r is the one
    whose c is the k base-p digits of r.
    """

    p: int
    offset: np.ndarray  # (N,)
    basis: np.ndarray  # (k, N)
    free: tuple[int, ...]

    def rank(self, index: int) -> int:
        """How many points lie below ``index``, for 0 <= index <= p^N.

        One pass down the digits of ``index``: a free digit fixes its
        coefficient to the digit and counts the points with a smaller one;
        the first other digit where the fixed point differs ends the pass.
        """
        p, N, k = self.p, len(self.offset), len(self.free)
        if index >= p**N:
            return p**k
        point, rows, below, j = self.offset.tolist(), self.basis.tolist(), 0, 0
        for t in range(N):
            digit = index // p ** (N - 1 - t) % p
            if j < k and self.free[j] == t:
                point = [(x + digit * b) % p for x, b in zip(point, rows[j])]
                j += 1
                below += digit * p ** (k - j)
            elif point[t] != digit:
                return below + (p ** (k - j) if point[t] < digit else 0)
        return below

    def points(self, lo: int, hi: int) -> np.ndarray:
        """Digit rows of the points of rank lo to hi - 1, ascending."""
        p, ranks = self.p, np.arange(lo, hi)[:, None]
        return (self.offset + (ranks // _place_values(p, len(self.free)) % p) @ self.basis) % p


def _coset(space: SearchSpace, route: str) -> _Coset | None:
    """The grids passing the route's unit families, or None when none does.

    The families are affine, F(x) = F(0) + M x; one batched residual at the
    zero grid and the N unit grids gives F(0) and M.  The system
    [M | F(0)] (x, 1) = 0 is brought to reduced echelon form with the digit
    columns reversed.  There each free column's solution vector has a 1 on
    it, 0 on the other free columns, and its other entries on pivot columns
    before it, so read back in digit order it leads with that 1.  A pivot on
    the constant column means no grid passes.
    """
    field, N = space.A.field, space.free_entries
    F = _unit_residual(space, route, np.eye(N + 1, N, k=-1, dtype=np.int64))
    R, pivots = _rref(field, np.concatenate([field.sub(F[:0:-1], F[0]).T, F[:1].T], axis=1))
    if pivots and pivots[-1] == N:
        return None
    free = [c for c in range(N) if c not in pivots]
    vectors = np.zeros((len(free) + 1, N), dtype=np.int64)
    vectors[range(len(free)), free] = 1
    vectors[:, pivots] = field.reduce(-R[: len(pivots), free + [N]].T)
    return _Coset(space.p, vectors[-1, ::-1], vectors[-2::-1, ::-1], tuple(N - 1 - c for c in reversed(free)))


def _span(space: SearchSpace, start, stop) -> range:
    """The indices of [start, stop) in the space; a non-empty range may not
    start below 0."""
    _require_int(start, "start")
    stop = space.total if stop is None else min(_require_int(stop, "stop"), space.total)
    span = range(start, stop)
    if span and start < 0:
        raise IndexError(f"index {start} out of range for {space.total} candidates")
    return span


def _walk(space: SearchSpace, route: str, span: range):
    """(indices, grids, reach), ascending and at most ``_CHUNK`` points at a
    time, of the route's coset points in ``span``: every such point up to the
    index ``reach`` is in this chunk or an earlier one."""
    coset = _coset(space, route) if span else None
    if coset is None:
        return
    lo, hi = coset.rank(span.start), coset.rank(span.stop)
    for r in range(lo, hi, _CHUNK):
        points = coset.points(r, min(r + _CHUNK, hi))
        indices = space._indices(points)
        reach = indices[-1] if r + _CHUNK < hi else span.stop - 1
        yield indices, points.reshape((-1,) + space.grid_shape), reach


def _windows(walks: list):
    """The ascending union of the walks' points, one window at a time: every
    point up to the least reach of the walks' current chunks, so at most one
    chunk per walk.  A point on several walks appears once."""
    heads = [next(walk, None) for walk in walks]
    while any(head is not None for head in heads):
        bound = min(head[2] for head in heads if head is not None)
        parts = []
        for w, head in enumerate(heads):
            if head is not None:
                indices, grids, reach = head
                cut = int(np.searchsorted(indices, bound, side="right"))
                parts.append((indices[:cut], grids[:cut]))
                heads[w] = (indices[cut:], grids[cut:], reach) if cut < len(indices) else next(walks[w], None)
        indices, first = np.unique(np.concatenate([i for i, _ in parts]), return_index=True)
        yield indices, np.concatenate([grids for _, grids in parts])[first]


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
    for indices, G, _ in _walk(space, route, _span(space, start, stop)):
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
    span = _span(space, start, stop)
    for indices, G in _windows([_walk(space, route, span) for route in UNIT_FAMILIES]):
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
