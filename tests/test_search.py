import numpy as np
import pytest

from twistkit import (
    GF,
    GammaFamily,
    QQ,
    SearchSpaceTooLargeError,
    SearchSpace,
    cross_validate,
    duplicate_algebra,
    enumerate_space,
    kn_algebra,
)
from twistkit import search as search_mod
from twistkit.errors import FieldError

F2 = GF(2)
F3 = GF(3)


def test_one_dimensional_space_accepts_only_identity():
    k1 = kn_algebra(F2, 1)
    space = SearchSpace(k1, k1)
    assert space.total == 2
    for checker in ("direct", "rep", "oracle", "all"):
        assert enumerate_space(space, checker) == [1]


def test_f3_one_dimensional():
    k1 = kn_algebra(F3, 1)
    space = SearchSpace(k1, k1)
    assert enumerate_space(space, "direct") == [1]
    assert cross_validate(space).ok


def test_index_codec_roundtrip():
    space = SearchSpace(kn_algebra(F3, 2), kn_algebra(F3, 2))
    for idx in (0, 1, 17, 3**15, space.total - 1):
        gamma = space.gamma_of_index(idx)
        assert space.index_of_gamma(gamma) == idx


def test_lex_order_matches_index_order():
    space = SearchSpace(kn_algebra(F2, 1), kn_algebra(F2, 2))
    flats = [space.gamma_of_index(i).reshape(-1).tolist() for i in range(space.total)]
    assert flats == sorted(flats)


def test_flip_is_always_accepted():
    for a_dim, b_dim in [(1, 2), (2, 1), (2, 2)]:
        space = SearchSpace(kn_algebra(F2, a_dim), kn_algebra(F2, b_dim))
        flip = GammaFamily.flip(space.A, space.B)
        idx = space.index_of_gamma(flip.gamma)
        lo, hi = idx, idx + 1
        assert enumerate_space(space, "all", start=lo, stop=hi) == [idx]


def test_enumeration_restartable_across_ranges():
    space = SearchSpace(kn_algebra(F2, 2), duplicate_algebra(F2))
    whole = enumerate_space(space, "direct", start=0, stop=8192)
    first = enumerate_space(space, "direct", start=0, stop=4096)
    second = enumerate_space(space, "direct", start=4096, stop=8192)
    assert first + second == whole


def test_default_range_is_whole_space():
    space = SearchSpace(kn_algebra(F2, 1), kn_algebra(F2, 2))
    assert enumerate_space(space, "direct") == enumerate_space(
        space, "direct", start=0, stop=space.total
    )


def test_guard_rejects_oversized():
    space = SearchSpace(kn_algebra(F3, 2), kn_algebra(F3, 2))  # 3^16 > 2^24
    with pytest.raises(SearchSpaceTooLargeError):
        enumerate_space(space)
    with pytest.raises(SearchSpaceTooLargeError):
        cross_validate(space)


def test_rational_field_rejected():
    with pytest.raises(FieldError):
        SearchSpace(kn_algebra(QQ, 1), kn_algebra(QQ, 1))


def test_unknown_checker():
    space = SearchSpace(kn_algebra(F2, 1), kn_algebra(F2, 1))
    with pytest.raises(ValueError):
        enumerate_space(space, checker="magic")


def test_cross_validate_subrange():
    space = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
    assert cross_validate(space, start=0, stop=4096).ok


def test_cross_validate_noncommutative_twisted_factor():
    """A need not be commutative: the full space over the upper-triangular
    3-dimensional algebra with a one-dimensional carrier."""
    from twistkit import FiniteDimAlgebra, validate_algebra

    lam = F2.zeros((3, 3, 3))
    lam[0, 0, 0] = 1  # e11 e11 = e11
    lam[1, 1, 1] = 1  # e22 e22 = e22
    lam[0, 2, 2] = 1  # e11 e12 = e12
    lam[2, 1, 2] = 1  # e12 e22 = e12
    tri = FiniteDimAlgebra(F2, 3, ("e11", "e22", "e12"), lam, F2.asarray([1, 1, 0]))
    assert validate_algebra(tri).ok
    space = SearchSpace(tri, kn_algebra(F2, 1))
    assert space.total == 512
    assert cross_validate(space).ok
    accepted = enumerate_space(space, "all")
    identity_idx = space.index_of_gamma(GammaFamily.flip(tri, space.B).gamma)
    assert identity_idx in accepted


def test_cross_validate_truncated_carrier_with_scalar_factor():
    """Non-idempotent carrier: K[Y]/(Y^3) twisted against the base field."""
    from twistkit import truncated_poly_algebra

    space = SearchSpace(kn_algebra(F2, 1), truncated_poly_algebra(F2, 3))
    assert space.total == 512
    assert cross_validate(space).ok


def test_cross_validate_mixed_dims_range():
    space = SearchSpace(duplicate_algebra(F2), kn_algebra(F2, 2))
    assert cross_validate(space, start=0, stop=8192).ok


def test_duplicate_carrier_enumeration_matches_predicate_count():
    """Full 65536-candidate run over the duplicate carrier: the accepted set
    is in bijection with the (f, delta) data passing the family predicate,
    through the forced identity-over-the-unit rows."""
    from twistkit import make_ncd, ncd_predicate

    a = kn_algebra(F2, 2)
    space = SearchSpace(a, duplicate_algebra(F2))
    accepted = enumerate_space(space, "direct")

    endos = []
    for idx in range(16):
        bits = [(idx >> t) & 1 for t in range(3, -1, -1)]
        endos.append(F2.asarray([bits[:2], bits[2:]]))
    predicate_indices = set()
    for f in endos:
        for delta in endos:
            if ncd_predicate(a, f, delta):
                cand = make_ncd(a, f, delta)
                predicate_indices.add(space.index_of_gamma(cand.family.gamma))
    assert set(accepted) == predicate_indices
    assert len(accepted) == 7


def test_fault_injection_is_caught(monkeypatch):
    """Corrupting one route on one candidate must surface as a disagreement
    with the candidate dump."""
    space = SearchSpace(kn_algebra(F2, 1), kn_algebra(F2, 2))
    flip_idx = space.index_of_gamma(GammaFamily.flip(space.A, space.B).gamma)
    true_rep_ok = search_mod.rep_ok

    def corrupted(fam):
        verdict = true_rep_ok(fam)
        if space.index_of_gamma(fam.gamma) == flip_idx:
            return not verdict
        return verdict

    monkeypatch.setattr(search_mod, "rep_ok", corrupted)
    report = cross_validate(space)
    assert not report.ok
    failure = report.failures[0]
    assert failure.condition == "cross.disagree"
    assert failure.witness == (flip_idx,)
    assert failure.right is not None  # the gamma dump travels with the report
