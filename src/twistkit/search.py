"""Exhaustive enumeration of gamma grids over prime fields at tiny dimensions.

Candidates are totally ordered: flatten the grid row-major over (i, j) and
then row-major within each d x d matrix, read the entries as base-p digits,
most significant first.  Enumeration scans a half-open index range
[start, stop) in ascending order and is deterministic, so a run can be
restarted from any index: enumerating contiguous ranges one after another
and concatenating the results gives exactly the result of one run over
their union.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import FieldError, SearchSpaceTooLargeError
from .report import Failure, VerificationReport
from .twisting import GammaFamily, direct_ok, oracle_ok, rep_ok

#: Hard guard on the number of candidates a space may hold.
MAX_CANDIDATES = 1 << 24

_CHECKERS = {
    "direct": direct_ok,
    "rep": rep_ok,
    "oracle": oracle_ok,
}


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

    def guard(self) -> None:
        if self.total > MAX_CANDIDATES:
            raise SearchSpaceTooLargeError(
                f"{self.total} candidates exceed the guard of {MAX_CANDIDATES}"
            )

    def gamma_of_index(self, index: int) -> np.ndarray:
        if not 0 <= index < self.total:
            raise IndexError(f"index {index} out of range for {self.total} candidates")
        n, d, p = self.B.dim, self.A.dim, self.p
        length = self.free_entries
        digits = np.zeros(length, dtype=np.int64)
        for t in range(length - 1, -1, -1):
            index, digits[t] = divmod(index, p)
        return digits.reshape(n, n, d, d)

    def index_of_gamma(self, gamma: np.ndarray) -> int:
        p = self.p
        index = 0
        for digit in np.asarray(gamma).reshape(-1) % p:
            index = index * p + int(digit)
        return index

    def family_at(self, index: int) -> GammaFamily:
        return GammaFamily(self.A, self.B, self.gamma_of_index(index))


def enumerate_space(
    space: SearchSpace,
    checker: str = "direct",
    start: int = 0,
    stop: int | None = None,
) -> list[int]:
    """Ascending indices of accepted candidates in [start, stop).

    ``checker`` is one of ``direct``, ``rep``, ``oracle`` or ``all`` (the
    conjunction of the three).
    """
    space.guard()
    stop = space.total if stop is None else min(stop, space.total)
    if checker == "all":
        verdict = lambda fam: direct_ok(fam) and rep_ok(fam) and oracle_ok(fam)  # noqa: E731
    else:
        try:
            verdict = _CHECKERS[checker]
        except KeyError:
            raise ValueError(f"unknown checker {checker!r}") from None
    return [idx for idx in range(start, stop) if verdict(space.family_at(idx))]


def cross_validate(
    space: SearchSpace,
    start: int = 0,
    stop: int | None = None,
) -> VerificationReport:
    """Verdict unanimity of the three routes over the whole space.

    The first candidate on which the structure-constant route, the combined
    representation route and the definition-level oracle disagree is reported
    with its index, the three verdicts, and the full gamma grid.
    """
    space.guard()
    stop = space.total if stop is None else min(stop, space.total)
    for idx in range(start, stop):
        fam = space.family_at(idx)
        verdicts = (direct_ok(fam), rep_ok(fam), oracle_ok(fam))
        if len(set(verdicts)) != 1:
            failure = Failure(
                condition="cross.disagree",
                witness=(idx,),
                left=f"direct={verdicts[0]} rep={verdicts[1]} oracle={verdicts[2]}",
                right=space.A.field.format_array(fam.gamma),
            )
            return VerificationReport(ok=False, failures=(failure,))
    return VerificationReport(ok=True)
