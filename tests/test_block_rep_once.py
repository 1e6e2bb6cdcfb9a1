"""The block criteria of D = B x C read one evaluation of the ``rep`` route.

``GammaFamily._rep`` holds the four ``rep`` families of a candidate on its
image, built once; ``check_extension_given_theta`` (both forms),
``check_lemma_blocks`` and ``check_remark_delta`` slice it.  These tests
count the evaluations, check that the cached arrays are frozen, and compare
every criterion run after the others, in every order, with the same
criterion on a fresh candidate.
"""

from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from twistkit import (
    BlockFormError,
    GF,
    GammaFamily,
    KMatrix,
    QQ,
    TwistingCandidate,
    UnverifiedCandidateError,
    certify,
    check_extension_given_theta,
    check_lemma_blocks,
    check_remark_delta,
    direct_sum,
    kn_algebra,
    make_ncd,
    rebase,
)
from twistkit import twisting
from twistkit.fields import _Cleared

CRITERIA = {
    "extension": check_extension_given_theta,
    "extension-staged": lambda c, n: check_extension_given_theta(c, n, require_gamma01_zero=False),
    "lemma": check_lemma_blocks,
    "remark": check_remark_delta,
}


def _summands(field):
    a = kn_algebra(field, 2)
    theta = certify(GammaFamily.flip(a, kn_algebra(field, 2)))
    ups = certify(make_ncd(a, [[1, 0], [1, 0]], [[0, 0], [0, 0]]))
    assert theta.verified and ups.verified
    return theta, ups


def _perturbed(psi: TwistingCandidate) -> TwistingCandidate:
    """The direct sum with one entry of its C-corner changed: the B-restriction
    stays a twisting map, the whole candidate is none."""
    grid = psi.family.gamma.copy()
    grid[3, 3, 0, 1] = psi.family.field.reduce(grid[3, 3, 0, 1] + 1)
    return TwistingCandidate(GammaFamily(psi.A, psi.B, grid))


def _candidates():
    """(candidate, cut) per case: direct sums over F_3, F_65521 and Q, over
    Q also of rebased summands (rational carriers, and one whose numerators
    leave int64), and the rejected perturbed sums."""
    out = {}
    for tag, field in (("F3", GF(3)), ("F65521", GF(65521)), ("Q", QQ)):
        out[tag] = (direct_sum(*_summands(field)), 2)
    theta, ups = _summands(QQ)
    rational = (
        rebase(theta, KMatrix.from_rows(QQ, [["1/2", 1], ["1/3", "-3"]])).candidate,
        rebase(ups, KMatrix.from_rows(QQ, [[1, "2/5"], ["-1/7", 3]])).candidate,
    )
    out["Q-rebased"] = (direct_sum(*rational), 2)
    large = rebase(ups, KMatrix(QQ, QQ.asarray([[2**40 + 1, 1], [1, 1]]))).candidate
    out["Q-rebased-large"] = (direct_sum(rational[0], large), 2)
    for tag in ("F3", "F65521", "Q"):
        out[f"{tag}-perturbed"] = (_perturbed(out[tag][0]), 2)
    return out


CANDIDATES = _candidates()


def _fresh(c: TwistingCandidate) -> TwistingCandidate:
    """The same candidate on a new family, so with nothing cached."""
    return TwistingCandidate(GammaFamily(c.A, c.B, c.family.gamma.copy()), c.verified)


def _outcome(criterion, c, n):
    """The report of a criterion, or the type of the error it raises."""
    try:
        return CRITERIA[criterion](c, n)
    except (BlockFormError, UnverifiedCandidateError) as error:
        return type(error)


@pytest.mark.parametrize("name", list(CANDIDATES))
def test_every_order_reports_like_a_fresh_candidate(name):
    c, n = CANDIDATES[name]
    alone = {criterion: _outcome(criterion, _fresh(c), n) for criterion in CRITERIA}
    if name.endswith("perturbed"):
        assert not any(alone[k].ok for k in ("extension", "extension-staged", "lemma"))
        assert alone["remark"] is UnverifiedCandidateError
    else:
        assert all(report.ok for report in alone.values())
    for order in permutations(CRITERIA):
        shared = _fresh(c)
        assert {criterion: _outcome(criterion, shared, n) for criterion in order} == alone, order


@pytest.mark.parametrize("name", list(CANDIDATES))
def test_rep_arrays_are_frozen(name):
    family = CANDIDATES[name][0].family
    rep = family._rep
    assert family._rep is rep
    assert [tag for tag, _, _ in rep] == ["rho.unit", "rho.mul", "phi.unit", "phi.mul"]
    for tag, *sides in rep:
        for side in sides:
            array = side.num if isinstance(side, _Cleared) else side
            assert isinstance(array, np.ndarray) and not array.flags.writeable, tag
            with pytest.raises(ValueError):
                array[...] = array


def test_block_criteria_run_rep_once_per_candidate(monkeypatch):
    """The four criteria on one direct sum evaluate ``_rho_pairs`` and
    ``_phi_pairs`` once each, and once more on a second, fresh candidate."""
    runs = Counter()

    def counting(pairs):
        def counted(*args):
            runs[pairs.__name__] += 1
            return pairs(*args)

        return counted

    counted = {pairs: counting(pairs) for entry in twisting.CHECKS.values() for pairs in entry.pairs}
    for check, entry in list(twisting.CHECKS.items()):
        monkeypatch.setitem(twisting.CHECKS, check, entry._replace(pairs=tuple(counted[p] for p in entry.pairs)))
    psi, n = CANDIDATES["F3"]
    for expected, c in ((1, _fresh(psi)), (2, _fresh(psi))):
        for criterion in CRITERIA.values():
            assert criterion(c, n).ok
        assert (runs["_rho_pairs"], runs["_phi_pairs"]) == (expected, expected)


@pytest.mark.parametrize("name", ["F3", "Q-rebased", "Q-perturbed"])
def test_routes_do_not_build_rep(name):
    """``route_ok`` and ``route_reports`` stay lazy generator folds: neither
    builds the cached families."""
    c = _fresh(CANDIDATES[name][0])
    expected = not name.endswith("perturbed")
    assert twisting.route_ok("rep", c) is expected
    assert twisting.route_reports(c, ["rep"])["rep"].ok is expected
    assert "_rep" not in vars(c.family)
