"""Machine-readable pass/fail reports shared by every checker.

Every checker in the package scans one or more condition families.  A family
is a pair of equally-shaped exact arrays (left and right side of the claimed
identity, quantifier indices as leading axes).  A report carries at most one
``Failure`` per family: the first mismatching entry in row-major scan order
plus the family's total violation count.

Checkers yield their families lazily as ``(tag, left, right)`` triples, and
three folds read such a stream: ``pairs_report`` folds it into a report,
``pairs_ok`` into the verdict of one grid or of each grid of a stack, and
``pairs_residual`` into the flat residual ``left - right`` of each grid over
F_p.  The first two compare the two sides through ``Field.mismatch``, the one
comparison of exact arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Failure:
    """First witness of one violated condition family.

    ``condition`` is a stable tag (documented per checker), ``witness`` the
    0-based indices of the first violation in deterministic scan order,
    ``left``/``right`` the two sides at that witness as nested lists of
    canonical scalar strings, and ``count`` the total number of violations
    found in the family.
    """

    condition: str
    witness: tuple[int, ...] = ()
    left: object = None
    right: object = None
    count: int = 1


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[Failure, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def conditions(self) -> set[str]:
        return {f.condition for f in self.failures}

    @classmethod
    def from_failures(cls, failures: Iterable[Failure]) -> "VerificationReport":
        fails = tuple(failures)
        return cls(ok=not fails, failures=fails)


def family_failures(fld, tag: str, left: np.ndarray, right: np.ndarray) -> Iterator[Failure]:
    """Yield at most one Failure for the condition family ``left == right``."""
    mismatch = fld.mismatch(left, right)
    count = int(np.count_nonzero(mismatch))
    if not count:
        return
    witness = tuple(int(t) for t in np.argwhere(mismatch)[0])
    yield Failure(
        condition=tag,
        witness=witness,
        left=fld.format(left[witness]),
        right=fld.format(right[witness]),
        count=count,
    )


def pairs_report(fld, pairs) -> VerificationReport:
    """Fold an iterable of (tag, left, right) families into a report."""
    return VerificationReport.from_failures(
        failure for tag, left, right in pairs for failure in family_failures(fld, tag, left, right)
    )


def pairs_ok(fld, pairs, batch: tuple[int, ...] = ()):
    """Verdict of each grid of a stack of batch shape ``batch`` (``G.shape[:-4]``;
    the default, one grid, gives a ``bool``): no family mismatches on its
    non-batch axes.  Families are generated lazily, none once no grid passes."""
    if not batch:
        return not any(np.count_nonzero(fld.mismatch(left, right)) for _, left, right in pairs)
    ok = np.ones(batch, dtype=bool)
    if not ok.size:
        return ok
    for _, left, right in pairs:
        mismatch = fld.mismatch(left, right)
        ok &= ~np.logical_or.reduce(mismatch, axis=tuple(range(len(batch), mismatch.ndim)))
        if not np.count_nonzero(ok):
            break
    return ok


def pairs_residual(fld, pairs, batch: tuple[int, ...] = ()) -> np.ndarray:
    """The residual of each grid of a stack of batch shape ``batch`` over
    F_p: ``left - right`` of every family, flattened behind the batch axes in
    row-major order and concatenated in stream order, reduced once, as rows
    (*batch, R) (the default, one grid, gives one row).  Every family's
    difference carries the batch axes in front (a side that does not depend
    on the grid broadcasts)."""
    diffs = (left - right for _, left, right in pairs)
    parts = [diff.reshape(batch + (math.prod(diff.shape[len(batch):]),)) for diff in diffs]
    return fld.reduce(np.concatenate(parts, axis=-1))
