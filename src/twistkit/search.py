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
``phi.unit``, ``oracle.chi-left-unit`` / ``oracle.chi-right-unit``, which
``twisting.unit_pairs`` yields for each route of ``twisting.UNIT_FAMILIES``
from the route's own generators (so no formula is written twice and the
oracle stays independent).  One pass of them over the stack of the zero grid
and the N = n^2 d^2 unit grids, folded by ``report.pairs_residual`` into one
residual row per grid, gives the linear system of those families.  Each call
solves it once for each route it walks, by one exact elimination with the
digit columns reversed, into an echelon description of its affine coset of
F_p^N: an offset and a basis whose vectors each lead with a 1 in their own
free digit.  The coset points then ascend by index as their coefficient
vectors count up in base p, so [start, stop) maps to a range of ranks by one
pass down the digits of each bound, and only the points of that range are
built, at most ``_CHUNK`` at a time.  Off the coset the route rejects.  Each stack gets one
``pairs_ok`` verdict per generator of ``twisting.CHECKS``, on the grids that
passed the generators before it, and the indices it accepts join the route's
ascending stream (``all`` chains ``direct``, ``rep`` and ``oracle`` on the
``direct`` coset, which holds the conjunction).  ``enumerate_space`` is one
such stream; ``cross_validate`` merges the three routes' streams, each walked
on its own coset, and reports the first index that not all three hold, with
the three verdicts at that one grid.

``MAX_CANDIDATES`` bounds the coset of each walked route, not the space;
memory per call is bounded by ``_CHUNK`` points per route whatever its size.
``MAX_FREE_ENTRIES`` bounds N before any coset is solved, since the system
of a route has N + 1 grids and about N rows, eliminated in Python ints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import DimensionMismatchError, FieldError, SearchSpaceTooLargeError, _require_int
from .linalg import _null_space
from .report import Failure, VerificationReport, pairs_ok, pairs_residual
from .twisting import CHECKS, UNIT_FAMILIES, GammaFamily, unit_pairs

#: Hard guard on the number of candidates the coset of a walked route may hold.
MAX_CANDIDATES = 1 << 24

#: Hard guard on the free entries N = (nd)^2 of a space whose cosets are
#: solved.  At N = 256 one route's solve took at most 0.3 s and 18 MB on a
#: 2-core x86 box (rep, B = K[x]/x^16, A = K); the cost grows about as N^3.
MAX_FREE_ENTRIES = 256

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
    return pairs_residual(space.A.field, unit_pairs(route, space.A, space.B, G), batch)


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
    zero grid and the N unit grids gives F(0) and M.  The solutions (x, 1)
    of [M | F(0)] (x, 1) = 0 are the null vector of the constant column (the
    last) plus the span of the others, with the digit columns reversed
    (``linalg._null_space``): each ends in a 1 on its free column, so read
    back in digit order it leads with it.  A pivot on the constant column
    means no grid passes.  A space of more than ``MAX_FREE_ENTRIES`` digits
    is refused before any of this work.
    """
    field, N = space.A.field, space.free_entries
    if N > MAX_FREE_ENTRIES:
        raise SearchSpaceTooLargeError(f"{N} free entries exceed the guard of {MAX_FREE_ENTRIES}")
    F = _unit_residual(space, route, np.eye(N + 1, N, k=-1, dtype=np.int64))
    vectors, free = _null_space(field, np.concatenate([field.sub(F[:0:-1], F[0]).T, F[:1].T], axis=1))
    if free[-1:] != [N]:
        return None
    digits = vectors[:, N - 1::-1]
    return _Coset(space.p, digits[-1], digits[-2::-1], tuple(N - 1 - c for c in free[-2::-1]))


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
    """(indices, grids), ascending and at most ``_CHUNK`` points at a time,
    of the route's coset points in ``span``.  The coset is solved and guarded
    on the call, before any chunk is built."""
    coset = _coset(space, route) if span else None
    if coset is None:
        return iter(())
    if (size := coset.p ** len(coset.free)) > MAX_CANDIDATES:
        raise SearchSpaceTooLargeError(f"{size} candidates on the {route} coset exceed the guard of {MAX_CANDIDATES}")
    lo, hi = coset.rank(span.start), coset.rank(span.stop)
    chunks = (coset.points(r, min(r + _CHUNK, hi)) for r in range(lo, hi, _CHUNK))
    return ((space._indices(points), points.reshape((-1,) + space.grid_shape)) for points in chunks)


def _verdict(A: FiniteDimAlgebra, B: FiniteDimAlgebra, checks, G: np.ndarray) -> np.ndarray:
    """One boolean per grid of the stack G (batch shape ``G.shape[:-4]``):
    every family of every generator of ``checks`` (keys of ``CHECKS``) holds.
    Each generator runs only on the grids that passed the ones before it."""
    ok = np.ones(G.shape[:-4], dtype=bool)
    for check in checks:
        for pairs in CHECKS[check].pairs:
            live = np.nonzero(ok)
            ok[live] = pairs_ok(A.field, pairs(A, B, G[live]), live[0].shape)
    return ok


def _accepted(space: SearchSpace, route: str, routes, span: range):
    """Ascending indices in ``span`` of the grids on the route's coset that
    pass every generator of ``routes``, one walked chunk at a time."""
    walk = _walk(space, route, span)
    return (i for indices, G in walk for i in indices[_verdict(space.A, space.B, routes, G)].tolist())


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
    if checker == "all":
        route, routes = "direct", tuple(UNIT_FAMILIES)
    elif checker in UNIT_FAMILIES:
        route, routes = checker, (checker,)
    else:
        raise ValueError(f"unknown checker {checker!r}")
    return list(_accepted(space, route, routes, _span(space, start, stop)))


def cross_validate(
    space: SearchSpace,
    start: int = 0,
    stop: int | None = None,
) -> VerificationReport:
    """Verdict unanimity of the three routes over the whole space.

    The first candidate on which the structure-constant route, the combined
    representation route and the definition-level oracle disagree is reported
    with its index, the three verdicts, and the full gamma grid.  Each route
    is evaluated on its own unit-family coset, off which it rejects, and the
    three ascending streams of accepted indices are compared index by index.
    """
    span = _span(space, start, stop)
    streams = [_accepted(space, route, (route,), span) for route in UNIT_FAMILIES]
    for index, holders in groupby(heapq.merge(*streams)):
        if len(list(holders)) < len(streams):
            G = space.gamma_of_index(index)
            direct, rep, oracle = (bool(_verdict(space.A, space.B, (route,), G[None])[0]) for route in UNIT_FAMILIES)
            failure = Failure(
                condition="cross.disagree",
                witness=(index,),
                left=f"direct={direct} rep={rep} oracle={oracle}",
                right=space.A.field.format_array(G),
            )
            return VerificationReport(ok=False, failures=(failure,))
    return VerificationReport(ok=True)
