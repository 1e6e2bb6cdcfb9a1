import random
from fractions import Fraction

import numpy as np
import pytest

from test_acceptance import ACCEPTED_22
from twistkit import (
    GF,
    FiniteDimAlgebra,
    GammaFamily,
    QQ,
    SearchSpaceTooLargeError,
    SearchSpace,
    cross_validate,
    duplicate_algebra,
    enumerate_space,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
    validate_algebra,
)
from twistkit.twisting import UNIT_FAMILIES, direct_condition_flags, direct_ok, route_ok
from twistkit import search as search_mod
from twistkit.errors import DimensionMismatchError, FieldError
from twistkit.linalg import KMatrix, kernel_basis
from twistkit.report import Failure, VerificationReport

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def _tri_algebra(field):
    """Upper-triangular 2 x 2 matrices: non-commutative, dimension 3."""
    lam = field.zeros((3, 3, 3))
    lam[0, 0, 0] = 1  # e11 e11 = e11
    lam[1, 1, 1] = 1  # e22 e22 = e22
    lam[0, 2, 2] = 1  # e11 e12 = e12
    lam[2, 1, 2] = 1  # e12 e22 = e12
    return FiniteDimAlgebra(field, 3, ("e11", "e22", "e12"), lam, field.asarray([1, 1, 0]))


def _presentations(field):
    """The four 2-dimensional presentations: K^2, the duplicate, K[Y]/(Y^2), F_4."""
    return {
        "K2": kn_algebra(field, 2),
        "dup": duplicate_algebra(field),
        "trunc2": truncated_poly_algebra(field, 2),
        "F4": quadratic_algebra(field, 1, 1),
    }


def _scalar_verdict(checker):
    routes = UNIT_FAMILIES if checker == "all" else [checker]
    return lambda fam: all(route_ok(route, fam) for route in routes)


_VERDICTS = {checker: _scalar_verdict(checker) for checker in [*UNIT_FAMILIES, "all"]}


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


def test_index_codec_roundtrip_beyond_int64():
    """3 x 3 over F_2 has 2^81 grids: indices are Python ints, never int64."""
    space = SearchSpace(kn_algebra(F2, 3), kn_algebra(F2, 3))
    assert space.total == 1 << 81
    rng = random.Random(81)
    for idx in (0, 1, (1 << 63) - 1, 1 << 63, 1 << 64, rng.randrange(space.total), space.total - 1):
        gamma = space.gamma_of_index(idx)
        assert gamma.dtype == np.int64 and gamma.shape == (3, 3, 3, 3)
        assert space.index_of_gamma(gamma) == idx
    top = space.gamma_of_index(space.total - 1)
    assert (top == 1).all()
    with pytest.raises(IndexError):
        space.gamma_of_index(space.total)


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
    tri = _tri_algebra(F2)
    assert validate_algebra(tri).ok
    space = SearchSpace(tri, kn_algebra(F2, 1))
    assert space.total == 512
    assert cross_validate(space).ok
    accepted = enumerate_space(space, "all")
    identity_idx = space.index_of_gamma(GammaFamily.flip(tri, space.B).gamma)
    assert identity_idx in accepted


def test_cross_validate_truncated_carrier_with_scalar_factor():
    """Non-idempotent carrier: K[Y]/(Y^3) twisted against the base field."""
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
    _corrupt(monkeypatch, space, {"rep": {flip_idx}})
    report = cross_validate(space)
    assert not report.ok
    failure = report.failures[0]
    assert failure.condition == "cross.disagree"
    assert failure.witness == (flip_idx,)
    assert failure.right is not None  # the gamma dump travels with the report


# -- the coset walk against brute force --------------------------------------------


def _brute(space, verdict, lo, hi):
    return [i for i in range(lo, hi) if verdict(space.family_at(i))]


def _small_spaces():
    spaces = {}
    for field in (F2, F3):
        k1, k2 = kn_algebra(field, 1), kn_algebra(field, 2)
        spaces[f"K1xK2-F{field.p}"] = SearchSpace(k1, k2)
        spaces[f"K2xK1-F{field.p}"] = SearchSpace(k2, k1)
    spaces["tri x K"] = SearchSpace(_tri_algebra(F2), kn_algebra(F2, 1))
    spaces["K x trunc3"] = SearchSpace(kn_algebra(F2, 1), truncated_poly_algebra(F2, 3))
    return spaces


@pytest.mark.parametrize("name", sorted(_small_spaces()))
def test_coset_walk_matches_brute_force_on_whole_small_spaces(name):
    space = _small_spaces()[name]
    for checker, verdict in _VERDICTS.items():
        expected = _brute(space, verdict, 0, space.total)
        assert enumerate_space(space, checker) == expected, checker
    assert cross_validate(space).ok


@pytest.mark.parametrize("b_name", ["K2", "dup", "trunc2", "F4"])
@pytest.mark.parametrize("a_name", ["K2", "dup", "trunc2", "F4"])
def test_coset_walk_matches_brute_force_on_f2_slices(a_name, b_name):
    """Seeded 2048-candidate slices of all 16 pairs of F_2 presentations, and
    the slice that holds the flip (so every pair meets accepted grids)."""
    algebras = _presentations(F2)
    space = SearchSpace(algebras[a_name], algebras[b_name])
    rng = random.Random(f"slice/{a_name}/{b_name}")
    flip_idx = space.index_of_gamma(GammaFamily.flip(space.A, space.B).gamma)
    for lo in (rng.randrange(space.total // 2048) * 2048, flip_idx // 2048 * 2048):
        hi = lo + 2048
        flags = {i: (direct_ok(f), route_ok("rep", f), route_ok("oracle", f))
                 for i, f in ((i, space.family_at(i)) for i in range(lo, hi))}
        expected = {
            "direct": [i for i, v in flags.items() if v[0]],
            "rep": [i for i, v in flags.items() if v[1]],
            "oracle": [i for i, v in flags.items() if v[2]],
            "all": [i for i, v in flags.items() if all(v)],
        }
        for checker, want in expected.items():
            assert enumerate_space(space, checker, start=lo, stop=hi) == want, checker
        assert cross_validate(space, start=lo, stop=hi).ok


def _corrupt(monkeypatch, space, corruptions):
    """Flip each route's stack verdict on the grids at the given indices."""
    true_verdict = search_mod._verdict

    def corrupted(A, B, routes, G):
        verdict = true_verdict(A, B, routes, G)
        indices = space._indices(G.reshape(G.shape[:-4] + (-1,)))
        for route, flipped in corruptions.items():
            if routes == (route,):
                verdict = verdict ^ np.isin(indices, list(flipped))
        return verdict

    monkeypatch.setattr(search_mod, "_verdict", corrupted)


def _first_disagreement(space, lo, hi, corruptions=None):
    """A plain loop over the scalar verdicts, each route flipped on the
    indices ``corruptions`` gives it."""
    corruptions = corruptions or {}
    for i in range(lo, hi):
        fam = space.family_at(i)
        verdicts = {"direct": direct_ok(fam), "rep": route_ok("rep", fam), "oracle": route_ok("oracle", fam)}
        if len({v ^ (i in corruptions.get(route, ())) for route, v in verdicts.items()}) != 1:
            return i
    return None


_SLICE_22 = (36864, 40960)  # holds ACCEPTED_22[2] (the flip) to ACCEPTED_22[4]


def _check_witness(monkeypatch, space, corruptions):
    """Corrupt routes; the reported witness is the lowest index at which a
    plain loop over the same range sees a disagreement."""
    _corrupt(monkeypatch, space, corruptions)
    lo, hi = _SLICE_22
    witness = _first_disagreement(space, lo, hi, corruptions)
    assert witness == min(i for indices in corruptions.values() for i in indices)
    fam = space.family_at(witness)
    left = " ".join(
        f"{route}={route_ok(route, fam) ^ (witness in corruptions.get(route, ()))}" for route in UNIT_FAMILIES
    )
    for start, stop in (_SLICE_22, (0, None)):
        report = cross_validate(space, start=start, stop=stop)
        assert not report.ok
        failure = report.failures[0]
        assert failure.condition == "cross.disagree"
        assert failure.witness == (witness,)
        assert failure.left == left
        assert failure.right == F2.format_array(space.gamma_of_index(witness))


@pytest.mark.parametrize(
    "corruptions",
    [
        {"rep": {ACCEPTED_22[3]}},
        {"oracle": {ACCEPTED_22[4]}, "direct": {ACCEPTED_22[3]}},
        {"rep": {ACCEPTED_22[3], ACCEPTED_22[4]}},
    ],
)
def test_cross_validate_witness_at_accepted_indices(monkeypatch, corruptions):
    space = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
    flip_idx = space.index_of_gamma(GammaFamily.flip(space.A, space.B).gamma)
    assert all(flip_idx not in indices for indices in corruptions.values())
    _check_witness(monkeypatch, space, corruptions)


def test_cross_validate_witness_at_a_rejected_unit_solution(monkeypatch):
    """A grid that passes direct.1 and direct.3 but no route: a corrupted
    oracle there is caught although every true verdict is a rejection."""
    space = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
    lo, hi = _SLICE_22
    rejected = next(
        i for i in range(lo, hi)
        if (flags := direct_condition_flags(space.family_at(i)))[0] and flags[2] and not all(flags)
    )
    _check_witness(monkeypatch, space, {"oracle": {rejected}})


# -- each route's unit families are affine --------------------------------------------


def _route_spaces():
    spaces = []
    for field in (F2, F3, F5, F7):
        algebras = _presentations(field)
        spaces.append(SearchSpace(algebras["K2"], algebras["trunc2"]))
        spaces.append(SearchSpace(algebras["F4"], algebras["dup"]))
    spaces.append(SearchSpace(_tri_algebra(F3), kn_algebra(F3, 1)))
    return spaces


@pytest.mark.parametrize("route", sorted(UNIT_FAMILIES))
def test_unit_families_are_affine(route):
    rng = np.random.default_rng(7)
    for space in _route_spaces():
        p, N = space.p, space.free_entries

        def residual(x):
            return search_mod._unit_residual(space, route, x % p)

        f0 = residual(np.zeros(N, dtype=np.int64))
        for _ in range(5):
            g1, g2 = rng.integers(0, p, size=(2, N))
            c = int(rng.integers(0, p))
            left = (residual(g1 + c * g2) - f0) % p
            right = ((residual(g1) - f0) + c * (residual(g2) - f0)) % p
            assert (left == right).all(), (route, p)


def _reference_coset(space, route):
    """The full expansion the ranked walk replaced: every digit row of the
    route's unit-family coset, from the kernel basis of the unreversed
    system, in coefficient order (not index order)."""
    field, N, p = space.A.field, space.free_entries, space.p
    F = search_mod._unit_residual(space, route, np.eye(N + 1, N, k=-1, dtype=np.int64))
    f0, M = F[0], field.sub(F[1:], F[0]).T
    kernel = kernel_basis(KMatrix(field, np.concatenate([M, f0[:, None]], axis=1)))
    if not kernel or kernel[-1][N] != 1:
        return np.zeros((0, N), dtype=np.int64)
    offset = kernel[-1][:N]
    basis = np.array([v[:N] for v in kernel[:-1]], dtype=np.int64).reshape(-1, N)
    k = len(basis)
    coeffs = (np.arange(p**k)[:, None] // search_mod._place_values(p, k)) % p
    return (offset + coeffs @ basis) % p


def _walked(space, route, lo, hi):
    """(indices, digit rows) of the ranked walk over [lo, hi), concatenated;
    every chunk ascends, holds at most ``_CHUNK`` points and indexes its rows."""
    span = search_mod._span(space, lo, hi)
    walk = search_mod._walk(space, route, span)
    chunks = [(indices, grids.reshape(len(grids), -1)) for indices, grids in walk]
    for indices, points in chunks:
        assert 0 < len(indices) <= search_mod._CHUNK
        assert (indices == space._indices(points)).all()
    if not chunks:
        return np.zeros(0, dtype=np.int64), np.zeros((0, space.free_entries), dtype=np.int64)
    return np.concatenate([i for i, _ in chunks]), np.concatenate([r for _, r in chunks])


@pytest.mark.parametrize("route", sorted(UNIT_FAMILIES))
@pytest.mark.parametrize("name", ["K1xK2-F3", "K2xK1-F3", "tri x K"])
def test_coset_is_the_set_passing_the_unit_families(route, name):
    space = _small_spaces()[name]
    passing = [
        i for i in range(space.total)
        if not search_mod._unit_residual(space, route, space.gamma_of_index(i).reshape(-1)).any()
    ]
    assert sorted(space._indices(_reference_coset(space, route)).tolist()) == passing
    assert _walked(space, route, 0, None)[0].tolist() == passing


def _same_coset(x, y):
    return (x is None and y is None) or ((x.offset == y.offset).all() and (x.basis == y.basis).all())


@pytest.mark.parametrize("name", ["K1xK2-F3", "K2xK1-F3", "tri x K"])
def test_direct_coset_is_built_from_the_unit_families_alone(monkeypatch, name):
    """The ``direct`` system comes from ``direct.1`` and ``direct.3`` only:
    solving it evaluates neither ``direct.2`` nor ``direct.4``."""
    from twistkit import twisting

    space = _small_spaces()[name]
    expected = search_mod._coset(space, "direct")

    def refuse(*args):
        raise AssertionError("a non-unit direct family was evaluated")

    monkeypatch.setattr(twisting, "_twisted_products", refuse)
    monkeypatch.setattr(twisting, "_rule_compositions", refuse)
    assert _same_coset(search_mod._coset(space, "direct"), expected)
    with pytest.raises(AssertionError, match="non-unit"):
        direct_ok(GammaFamily.flip(space.A, space.B))


# -- the ranked walk against the full expansion --------------------------------------------------


def _reference_stacks(space, routes, lo, hi):
    """(indices, grids) in [lo, hi) of the union of the fully expanded cosets."""
    points = np.concatenate([_reference_coset(space, route) for route in routes])
    indices, rows = np.unique(space._indices(points), return_index=True)
    keep = (indices >= lo) & (indices < hi)
    return indices[keep], points[rows[keep]].reshape((-1,) + space.grid_shape)


def _reference_enumerate(space, checker, lo, hi):
    route, routes = ("direct", tuple(UNIT_FAMILIES)) if checker == "all" else (checker, (checker,))
    indices, G = _reference_stacks(space, (route,), lo, hi)
    return indices[search_mod._verdict(space.A, space.B, routes, G)].tolist()


def _reference_cross_validate(space, lo, hi):
    indices, G = _reference_stacks(space, tuple(UNIT_FAMILIES), lo, hi)
    if not len(indices):
        return VerificationReport(ok=True)
    verdicts = np.array([search_mod._verdict(space.A, space.B, (route,), G) for route in UNIT_FAMILIES])
    split = np.flatnonzero((verdicts != verdicts[0]).any(axis=0))
    if not split.size:
        return VerificationReport(ok=True)
    direct, rep, oracle = verdicts[:, split[0]].tolist()
    failure = Failure(
        condition="cross.disagree",
        witness=(int(indices[split[0]]),),
        left=f"direct={direct} rep={rep} oracle={oracle}",
        right=space.A.field.format_array(G[split[0]]),
    )
    return VerificationReport(ok=False, failures=(failure,))


def _zero_unit(algebra):
    field = algebra.field
    return FiniteDimAlgebra(field, algebra.dim, algebra.basis, algebra.lam, field.zeros(algebra.dim))


def _walk_spaces():
    """The 16 F_2 2 x 2 spaces, the small spaces, and three whose routes'
    cosets differ: the whole space, an empty one, or free digits 0, 2, ..., 14
    with a pivot digit after each."""
    f2 = _presentations(F2)
    spaces = {f"{a}x{b}-F2": SearchSpace(A, B) for a, A in f2.items() for b, B in f2.items()}
    zero_product = FiniteDimAlgebra(F3, 1, ("z",), F3.zeros((1, 1, 1)), F3.asarray([1]))
    return {
        **spaces,
        **_small_spaces(),
        "zero units F3": SearchSpace(_zero_unit(kn_algebra(F3, 1)), _zero_unit(kn_algebra(F3, 2))),
        "zero product F3": SearchSpace(kn_algebra(F3, 1), zero_product),
        "K2 x zero-unit dup F2": SearchSpace(f2["K2"], _zero_unit(f2["dup"])),
    }


def _ranges(space, rng):
    """Random ranges, ranges ending on coset points (both sides), empty ranges
    and ranges past the end of the space."""
    total = space.total
    points = sorted({int(i) for route in UNIT_FAMILIES for i in space._indices(_reference_coset(space, route))})
    ranges = [(0, None), (0, total)]
    ranges += [tuple(sorted(rng.randrange(total + 1) for _ in range(2))) for _ in range(3)]
    if points:
        x, y = sorted(rng.choice(points) for _ in range(2))
        ranges += [(x, y), (x, y + 1), (x + 1, y), (x, x + 1), (x + 1, x + 1)]
    ranges += [(5 % total, 5 % total), (total, None), (total - 1, total + 9), (total + 3, total + 4)]
    return ranges


@pytest.mark.parametrize("name", sorted(_walk_spaces()))
def test_ranked_walk_matches_the_full_expansion(monkeypatch, name):
    """Point sets and ascending order of each route's walk, then
    ``enumerate_space`` and ``cross_validate`` (witness included, on one
    corrupted coset point) equal the full expansion's, in stacks of 7 grids
    so that walks end on partial stacks."""
    space = _walk_spaces()[name]
    rng = random.Random(f"walk/{name}")
    monkeypatch.setattr(search_mod, "_CHUNK", 7)
    for lo, hi in _ranges(space, rng):
        end = space.total if hi is None else min(hi, space.total)
        for route in UNIT_FAMILIES:
            reference = _reference_coset(space, route)
            order = np.argsort(space._indices(reference))
            keep = [t for t in order if lo <= space._indices(reference[t]) < end]
            indices, points = _walked(space, route, lo, hi)
            assert (np.diff(indices) > 0).all()
            assert (points == reference[keep].reshape(-1, space.free_entries)).all(), (route, lo, hi)
        for checker in _VERDICTS:
            assert enumerate_space(space, checker, lo, hi) == _reference_enumerate(space, checker, lo, end)
        assert cross_validate(space, lo, hi) == _reference_cross_validate(space, lo, end)
    route = rng.choice(sorted(UNIT_FAMILIES))
    points = space._indices(_reference_coset(space, route)).tolist()
    if points:
        _corrupt(monkeypatch, space, {route: {rng.choice(points)}})
        for lo, hi in _ranges(space, rng):
            end = space.total if hi is None else min(hi, space.total)
            assert cross_validate(space, lo, hi) == _reference_cross_validate(space, lo, end)


@pytest.mark.parametrize("name", ["zero units F3", "zero product F3", "K1xK2-F3", "K2xK2-F2", "K2 x zero-unit dup F2"])
def test_rank_counts_the_points_below_an_index(name):
    """``_Coset.rank`` against the sorted full expansion: at every index of a
    small space, else at each coset point, its neighbours and random indices;
    and ``points`` at every rank."""
    space = _walk_spaces()[name]
    rng = random.Random(f"rank/{name}")
    for route in UNIT_FAMILIES:
        coset = search_mod._coset(space, route)
        indices = np.sort(space._indices(_reference_coset(space, route)))
        if coset is None:
            assert len(indices) == 0
            continue
        if space.total <= 1000:
            probes = list(range(space.total + 1))
        else:
            near = {int(i) + d for i in indices for d in (0, 1)}
            probes = sorted(near | {rng.randrange(space.total) for _ in range(200)} | {space.total})
        assert [coset.rank(i) for i in probes] == np.searchsorted(indices, probes).tolist()
        assert (space._indices(coset.points(0, len(indices))) == indices).all()


def test_walk_memory_is_bounded_on_a_whole_space_coset():
    """A of dimension 1 with unit 0 against K^2's constants with unit 0 over
    F_61: the ``direct`` and ``oracle`` cosets are all 13.8 M grids.  On a
    200-grid slice in the middle every checker and ``cross_validate`` equal
    brute force, and the walk allocates a bounded amount (the full expansion
    took over 400 MB)."""
    import tracemalloc

    space = SearchSpace(_zero_unit(kn_algebra(GF(61), 1)), _zero_unit(kn_algebra(GF(61), 2)))
    assert space.total == 61**4 <= search_mod.MAX_CANDIDATES
    lo = space.total // 2
    hi = lo + 200
    tracemalloc.start()
    try:
        accepted = {checker: enumerate_space(space, checker, lo, hi) for checker in _VERDICTS}
        report = cross_validate(space, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert [len(search_mod._coset(space, route).basis) for route in ("direct", "oracle")] == [4, 4]
    assert search_mod._coset(space, "rep") is None
    for checker, verdict in _VERDICTS.items():
        assert accepted[checker] == _brute(space, verdict, lo, hi), checker
    witness = _first_disagreement(space, lo, hi)
    assert report.ok == (witness is None)
    if witness is not None:
        assert report.failures[0].witness == (witness,)


# -- the index range contract -------------------------------------------------------------


def test_negative_start_of_a_nonempty_range_raises():
    space = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
    message = "index -1 out of range for 65536 candidates"
    for start, stop in ((-1, None), (-1, 5), (-1, 0)):
        with pytest.raises(IndexError, match=message):
            enumerate_space(space, "direct", start=start, stop=stop)
        with pytest.raises(IndexError, match=message):
            cross_validate(space, start=start, stop=stop)


def test_empty_ranges_are_empty():
    space = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
    for start, stop in ((5, 5), (9, 3), (space.total, None), (space.total + 7, None), (0, -1), (-3, -3)):
        for checker in _VERDICTS:
            assert enumerate_space(space, checker, start=start, stop=stop) == []
        assert cross_validate(space, start=start, stop=stop).ok


def test_unsolvable_unit_families_leave_nothing_to_walk():
    """Over a carrier whose product is zero, sum_k unit[k] R_k = identity has
    no solution: the rep coset is empty, and the walk still matches brute force,
    including the disagreement it provokes."""
    zero_product = FiniteDimAlgebra(F3, 1, ("z",), F3.zeros((1, 1, 1)), F3.asarray([1]))
    assert not validate_algebra(zero_product).ok
    space = SearchSpace(kn_algebra(F3, 1), zero_product)
    assert search_mod._coset(space, "rep") is None
    for checker, verdict in _VERDICTS.items():
        assert enumerate_space(space, checker) == _brute(space, verdict, 0, space.total)
    report = cross_validate(space)
    assert report.failures[0].witness == (_first_disagreement(space, 0, space.total),)


def test_zero_units_walk_the_whole_space_in_partial_chunks(monkeypatch):
    """With zero units in A and B every grid passes the ``direct`` and
    ``oracle`` unit families, so those cosets are the whole space (81 grids)
    and the ``rep`` coset is empty.  Stacks of 7 grids leave a partial last
    stack; the walk still matches brute force, witness included."""
    space = _walk_spaces()["zero units F3"]
    assert space.total == 81 and space.total % 7
    assert [len(_reference_coset(space, route)) for route in ("direct", "rep", "oracle")] == [81, 0, 81]
    monkeypatch.setattr(search_mod, "_CHUNK", 7)
    for checker, verdict in _VERDICTS.items():
        assert enumerate_space(space, checker) == _brute(space, verdict, 0, space.total), checker
    witness = _first_disagreement(space, 0, space.total)
    report = cross_validate(space)
    assert report.ok == (witness is None)
    if witness is not None:
        fam = space.family_at(witness)
        failure = report.failures[0]
        assert failure.witness == (witness,)
        direct, rep, oracle = (route_ok(route, fam) for route in UNIT_FAMILIES)
        assert failure.left == f"direct={direct} rep={rep} oracle={oracle}"
        assert failure.right == F3.format_array(fam.gamma)


@pytest.mark.parametrize("name", ["zero units F3", "zero product F3", "K2 x zero-unit dup F2"])
def test_cross_validate_evaluates_each_route_on_its_own_coset(monkeypatch, name):
    """Each route's verdict sees only the grids of its own coset, and the
    witness: on "zero units F3" the ``rep`` coset is empty, so ``rep`` sees
    the witness alone, not the 81 grids of the other two cosets."""
    space = _walk_spaces()[name]
    seen = {route: [] for route in UNIT_FAMILIES}
    true_verdict = search_mod._verdict

    def recording(A, B, routes, G):
        (route,) = routes
        seen[route] += space._indices(G.reshape(G.shape[:-4] + (-1,))).tolist()
        return true_verdict(A, B, routes, G)

    monkeypatch.setattr(search_mod, "_verdict", recording)
    report = cross_validate(space)
    witness = set(report.failures[0].witness) if report.failures else set()
    for route, indices in seen.items():
        coset = set(space._indices(_reference_coset(space, route)).tolist())
        assert set(indices) <= coset | witness, route
        assert len(indices) <= len(coset) + len(witness), route
    if name == "zero units F3":
        assert witness and len(seen["rep"]) == 1


# -- the index codec refuses inexact input ---------------------------------------------------


_CODEC_SPACE = SearchSpace(kn_algebra(F2, 2), kn_algebra(F2, 2))
_GRID = _CODEC_SPACE.gamma_of_index(20681)


@pytest.mark.parametrize(
    "grid, error",
    [
        (_GRID.astype(float) + 0.5, FieldError),
        (_GRID.astype(float), FieldError),
        (_GRID.astype(bool), FieldError),
        (_GRID.astype(str), FieldError),
        ((_GRID + 0.5).tolist(), FieldError),
        (_GRID.astype(bool).tolist(), FieldError),
        (_GRID.reshape(-1), DimensionMismatchError),
        (_GRID.reshape(4, 4), DimensionMismatchError),
        (_GRID[:1], DimensionMismatchError),
    ],
    ids=["float", "integral-float", "bool", "str", "float-list", "bool-list", "flat", "4x4", "short"],
)
def test_index_of_gamma_refuses_inexact_or_misshapen_grids(grid, error):
    with pytest.raises(error):
        _CODEC_SPACE.index_of_gamma(grid)


def test_index_of_gamma_accepts_exact_grids():
    for grid in (_GRID, _GRID.tolist(), _GRID.astype(np.uint8), _GRID + 2):
        assert _CODEC_SPACE.index_of_gamma(grid) == 20681


_BAD_INDICES = [3.5, 3.0, np.float64(3), True, np.bool_(False), "3", Fraction(3)]
_BAD_IDS = ["float", "integral-float", "np-float", "bool", "np-bool", "str", "fraction"]


@pytest.mark.parametrize("index", _BAD_INDICES, ids=_BAD_IDS)
def test_gamma_of_index_refuses_non_integers(index):
    with pytest.raises(TypeError, match="index must be an integer"):
        _CODEC_SPACE.gamma_of_index(index)


@pytest.mark.parametrize("bound", ["start", "stop"])
@pytest.mark.parametrize("value", _BAD_INDICES, ids=_BAD_IDS)
def test_range_bounds_refuse_non_integers(bound, value):
    with pytest.raises(TypeError, match=f"{bound} must be an integer"):
        enumerate_space(_CODEC_SPACE, "direct", **{bound: value})
    with pytest.raises(TypeError, match=f"{bound} must be an integer"):
        cross_validate(_CODEC_SPACE, **{bound: value})


def test_numpy_integers_index_the_space():
    assert (_CODEC_SPACE.gamma_of_index(np.int64(20681)) == _GRID).all()
    assert (_CODEC_SPACE.gamma_of_index(np.uint16(20681)) == _GRID).all()
    lo, hi = np.int32(20000), np.int64(21000)
    assert enumerate_space(_CODEC_SPACE, "direct", start=lo, stop=hi) == [20681]
    assert cross_validate(_CODEC_SPACE, start=lo, stop=hi).ok
