import itertools
import random

import numpy as np
import pytest

from twistkit import (
    DimensionMismatchError,
    FieldError,
    FieldMismatchError,
    GF,
    GammaFamily,
    KMatrix,
    QQ,
    certify,
    direct_sum,
    duplicate_algebra,
    kn_algebra,
    kn_conditions,
    make_kn,
    make_ncd,
    make_quantum_duplicate,
    make_truncated,
    ncd_conditions,
    qdup_conditions,
    quadratic_algebra,
    quiver_of,
    truncated_conditions,
    truncated_from_first_row,
    truncated_poly_algebra,
)
from twistkit.report import pairs_ok
from twistkit.twisting import direct_ok, route_ok, route_pairs

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def seeded_pairs(field, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f = [[rng.randrange(field.p) for _ in range(2)] for _ in range(2)]
        d = [[rng.randrange(field.p) for _ in range(2)] for _ in range(2)]
        out.append((f, d))
    return out


# -- duplicates -------------------------------------------------------------------


def test_ncd_flip_case():
    a = kn_algebra(QQ, 2)
    cand = make_ncd(a, QQ.identity(2), QQ.zeros((2, 2)))
    assert cand.family == GammaFamily.flip(a, duplicate_algebra(QQ))
    assert certify(cand).verified
    assert ncd_conditions(a, QQ.identity(2), QQ.zeros((2, 2))).ok


def test_ncd_idempotent_endomorphism_accepted():
    a = kn_algebra(QQ, 2)
    f = [[1, 0], [1, 0]]
    assert ncd_conditions(a, f, [[0, 0], [0, 0]]).ok
    assert certify(make_ncd(a, f, [[0, 0], [0, 0]])).verified


def test_ncd_nonvanishing_delta_at_unit_rejected():
    a = kn_algebra(QQ, 2)
    f = QQ.identity(2)
    delta = QQ.identity(2)
    report = ncd_conditions(a, f, delta)
    assert "ncd.4" in report.conditions()
    cand = make_ncd(a, f, delta)
    assert not direct_ok(cand.family)


def test_ncd_idempotency_of_delta_is_not_redundant():
    """Two data sets satisfy every condition except the idempotency of the
    derivation part; they are not twisting maps, which pins that condition
    as independent."""
    a = kn_algebra(F3, 2)
    for f, delta in [
        ([[0, 1], [0, 1]], [[2, 1], [0, 0]]),
        ([[1, 0], [1, 0]], [[0, 0], [1, 2]]),
    ]:
        report = ncd_conditions(a, f, delta)
        tags = report.conditions()
        # endomorphism, derivation and mixed-composition conditions all hold,
        # yet the data is not a twisting map: idempotency (and its derived
        # square condition) fail
        assert "ncd.1" in tags
        assert tags.isdisjoint({"ncd.2", "ncd.4", "ncd.5", "ncd.6", "ncd.7"})
        assert not direct_ok(make_ncd(a, f, delta).family)
        assert not route_ok("oracle", make_ncd(a, f, delta).family)


def test_ncd_implications_on_sampled_pairs():
    a = kn_algebra(F3, 2)
    hit_12 = hit_56 = 0
    for f, delta in seeded_pairs(F3, 200, seed=11):
        tags = ncd_conditions(a, f, delta).conditions()
        if "ncd.1" not in tags and "ncd.2" not in tags:
            assert "ncd.3" not in tags
            hit_12 += 1
        if "ncd.5" not in tags and "ncd.6" not in tags:
            assert "ncd.4" not in tags
            hit_56 += 1
    assert hit_12 and hit_56


def test_ncd_verdict_equals_predicate_sampled():
    a = kn_algebra(F3, 2)
    for f, delta in seeded_pairs(F3, 200, seed=12):
        assert ncd_conditions(a, f, delta).ok == direct_ok(make_ncd(a, f, delta).family)


# -- quantum duplicates --------------------------------------------------------------


def test_qdup_carrier_at_one_zero_is_duplicate():
    assert quadratic_algebra(QQ, 1, 0) == duplicate_algebra(QQ)


def test_qdup_swap_example():
    a = kn_algebra(QQ, 2)
    swap = [[0, 1], [1, 0]]
    zero = [[0, 0], [0, 0]]
    assert qdup_conditions(a, 0, -1, swap, zero).ok
    assert certify(make_quantum_duplicate(a, 0, -1, swap, zero)).verified


def test_qdup_swap_with_delta_f_fails():
    a = kn_algebra(QQ, 2)
    swap = [[0, 1], [1, 0]]
    report = qdup_conditions(a, 0, -1, swap, swap)
    assert "qdup.swap" in report.conditions()
    assert not qdup_conditions(a, 0, -1, swap, swap).ok
    assert not direct_ok(make_quantum_duplicate(a, 0, -1, swap, swap).family)


def test_qdup_at_one_zero_matches_ncd_sampled():
    a = kn_algebra(F3, 2)
    for f, delta in seeded_pairs(F3, 150, seed=13):
        assert qdup_conditions(a, 1, 0, f, delta).ok == ncd_conditions(a, f, delta).ok


def test_qdup_verdict_equals_predicate_sampled():
    a = kn_algebra(F3, 2)
    for alpha, beta in [(0, -1), (1, 1)]:
        for f, delta in seeded_pairs(F3, 120, seed=14 + alpha):
            cand = make_quantum_duplicate(a, alpha, beta, f, delta)
            assert qdup_conditions(a, alpha, beta, f, delta).ok == direct_ok(cand.family)


# -- K^n twists -------------------------------------------------------------------------


def test_kn_diagonal_identity_is_flip():
    a = kn_algebra(QQ, 2)
    eye = QQ.identity(2)
    zero = QQ.zeros((2, 2))
    cand = make_kn(a, 2, [[eye, zero], [zero, eye]])
    assert cand.family == GammaFamily.flip(a, kn_algebra(QQ, 2))
    assert kn_conditions(a, 2, cand.family.gamma).ok
    assert certify(cand).verified


def test_kn_dictionary_image_verifies():
    a = kn_algebra(QQ, 2)
    f = QQ.asarray([[1, 0], [1, 0]])
    eye = QQ.identity(2)
    zero = QQ.zeros((2, 2))
    grid = [[eye, QQ.sub(eye, f)], [zero, f]]
    cand = make_kn(a, 2, grid)
    assert kn_conditions(a, 2, cand.family.gamma).ok
    assert certify(cand).verified


def test_kn_non_idempotent_diagonal_rejected():
    a = kn_algebra(F3, 2)
    bad = F3.asarray([[1, 1], [0, 1]])  # not idempotent
    eye = F3.identity(2)
    grid = [[bad, F3.sub(eye, bad)], [F3.zeros((2, 2)), eye]]
    report = kn_conditions(a, 2, make_kn(a, 2, grid).family.gamma)
    assert "kn.1" in report.conditions()
    assert not direct_ok(make_kn(a, 2, grid).family)


def test_kn_conditions_match_checker_sampled():
    a = kn_algebra(F2, 2)
    rng = random.Random(77)
    for _ in range(200):
        grid = F2.asarray(
            [[[[rng.randrange(2) for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(2)]
        )
        cand = make_kn(a, 2, grid)
        assert kn_conditions(a, 2, grid).ok == direct_ok(cand.family)


# -- quivers -----------------------------------------------------------------------------


def test_quiver_of_flip_is_loops_only():
    a = kn_algebra(QQ, 2)
    cand = certify(make_kn(a, 2, [[QQ.identity(2), QQ.zeros((2, 2))], [QQ.zeros((2, 2)), QQ.identity(2)]]))
    quiver, rep = quiver_of(cand)
    assert quiver.arrows == ((0, 0), (1, 1))
    assert set(rep.maps) == {(0, 0), (1, 1)}


def test_quiver_arrows_match_nonzero_pattern():
    a = kn_algebra(F2, 2)
    rng = random.Random(99)
    seen_nontrivial = 0
    for _ in range(80):
        grid = F2.asarray(
            [[[[rng.randrange(2) for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(2)]
        )
        fam = make_kn(a, 2, grid).family
        quiver, rep = quiver_of(fam)
        expected = tuple(
            (j, i) for j in range(2) for i in range(2) if not F2.is_zero(grid[j, i])
        )
        assert quiver.arrows == expected
        seen_nontrivial += bool(expected)
    assert seen_nontrivial


def test_quiver_of_direct_sum_has_no_cross_arrows():
    a = kn_algebra(F2, 2)
    eye = F2.identity(2)
    zero = F2.zeros((2, 2))
    theta = certify(make_kn(a, 2, [[eye, zero], [zero, eye]]))
    ups = certify(make_kn(a, 1, [[eye]]))
    psi = direct_sum(theta, ups)
    quiver, _ = quiver_of(psi)
    for source, target in quiver.arrows:
        assert (source < 2) == (target < 2)


def test_quiver_rejects_other_carriers():
    a = kn_algebra(QQ, 2)
    cand = make_ncd(a, QQ.identity(2), QQ.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        quiver_of(cand)


# -- truncated twists ----------------------------------------------------------------------


def test_truncated_flip_verifies():
    a = kn_algebra(F2, 2)
    flip = GammaFamily.flip(a, truncated_poly_algebra(F2, 3))
    assert truncated_conditions(a, 3, flip.gamma).ok
    assert certify(flip).verified


def test_truncated_derivation_from_first_row_matches_oracle():
    a = kn_algebra(F2, 2)
    rng = random.Random(31337)
    eye = F2.identity(2)
    zero = F2.zeros((2, 2))
    nilpotent = F2.asarray([[0, 1], [0, 0]])
    rows = [[zero, eye, zero], [zero, eye, nilpotent], [zero, eye, eye]]
    rows += [
        [F2.asarray([[rng.randrange(2) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
        for _ in range(150)
    ]
    accepted = 0
    for row in rows:
        cand = truncated_from_first_row(a, 3, row)
        verdict = direct_ok(cand.family)
        assert verdict == route_ok("oracle", cand.family)
        assert verdict == truncated_conditions(a, 3, cand.family.gamma).ok
        accepted += verdict
    assert accepted > 0


def test_truncated_convolution_violation_tagged():
    a = kn_algebra(F2, 2)
    nilpotent = F2.asarray([[0, 1], [0, 0]])
    eye = F2.identity(2)
    zero = F2.zeros((2, 2))
    cand = truncated_from_first_row(a, 3, [nilpotent, eye, zero])
    report = truncated_conditions(a, 3, cand.family.gamma)
    assert "trunc.3" in report.conditions()
    assert not direct_ok(cand.family)


def test_truncated_first_row_must_satisfy_row_zero():
    a = kn_algebra(F2, 2)
    grid = F2.zeros((3, 3, 2, 2))
    grid[0, 1] = F2.identity(2)  # exponent-zero row leaks upward
    grid[0, 0] = F2.identity(2)
    report = truncated_conditions(a, 3, grid)
    assert "trunc.1" in report.conditions()


@pytest.mark.parametrize(
    "build", [make_kn, make_truncated, kn_conditions, truncated_conditions]
)
def test_grid_must_be_exactly_n_by_n(build):
    a = kn_algebra(F2, 2)
    eye, zero = F2.identity(2), F2.zeros((2, 2))
    square = [[eye, zero], [zero, eye]]
    bad_grids = {
        "oversized": (1, square),
        "undersized": (3, square),
        "ragged": (2, [[eye, zero], [eye]]),
        "long row": (2, [[eye, zero, zero], [zero, eye]]),
        "oversized array": (1, F2.zeros((2, 2, 2, 2))),
        "array of wrong entry size": (2, F2.zeros((2, 2, 3, 3))),
        "entry of wrong size": (2, [[eye, zero], [zero, F2.identity(3)]]),
    }
    for name, (n, grid) in bad_grids.items():
        with pytest.raises(DimensionMismatchError):
            build(a, n, grid)
            pytest.fail(name)
    build(a, 2, square)
    build(a, 2, np.array(square))


@pytest.mark.parametrize("field", [F7, QQ], ids=["F7", "Q"])
@pytest.mark.parametrize(
    "build", [make_kn, make_truncated, kn_conditions, truncated_conditions]
)
def test_grid_arrays_are_made_exact(field, build):
    """A grid given as an (n, n, d, d) array goes through ``field.asarray``:
    floats are rejected, and integers become canonical residues or Fractions."""
    a = kn_algebra(field, 2)
    with pytest.raises(FieldError):
        build(a, 2, np.full((2, 2, 2, 2), 0.5))
    grid = np.full((2, 2, 2, 2), 9)
    exact = field.asarray(grid)
    out = build(a, 2, grid)
    if build in (make_kn, make_truncated):
        gamma = out.family.gamma
        assert gamma.dtype == exact.dtype
        assert gamma.tolist() == exact.tolist()
        assert all(type(v) is type(field.zero) for v in gamma.ravel().tolist())
    else:
        assert out == build(a, 2, exact)


def test_first_row_must_have_exactly_n_entries():
    a = kn_algebra(F2, 2)
    eye, zero = F2.identity(2), F2.zeros((2, 2))
    bad_rows = {
        "long": (2, [zero, eye, zero]),
        "one entry broadcast": (3, [eye]),
        "short": (3, [zero, eye]),
        "no exponent-1 row": (1, [eye]),
        "entry of wrong size": (2, [zero, F2.identity(3)]),
    }
    for name, (n, row) in bad_rows.items():
        with pytest.raises(DimensionMismatchError):
            truncated_from_first_row(a, n, row)
            pytest.fail(name)
    gamma = truncated_from_first_row(a, 2, [zero, eye]).family.gamma
    assert gamma[1].tolist() == [zero.tolist(), eye.tolist()]


_SIZED_CONSTRUCTORS = {
    "kn_algebra": lambda n: kn_algebra(QQ, n),
    "truncated_poly_algebra": lambda n: truncated_poly_algebra(QQ, n),
    "make_kn": lambda n: make_kn(kn_algebra(QQ, 2), n, []),
    "make_truncated": lambda n: make_truncated(kn_algebra(QQ, 2), n, []),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", sorted(_SIZED_CONSTRUCTORS))
def test_non_positive_carrier_size_is_refused(build, n):
    with pytest.raises(DimensionMismatchError, match=f"carrier size n must be positive, got {n}$"):
        _SIZED_CONSTRUCTORS[build](n)


_F5_MATRIX = KMatrix.from_rows(GF(5), [[4, 0], [0, 4]])
_F3_EYE = KMatrix.from_rows(F3, [[1, 0], [0, 1]])

_FOREIGN_ENTRY_BUILDS = {
    "make_ncd": lambda a, m: make_ncd(a, m, _F3_EYE),
    "make_quantum_duplicate": lambda a, m: make_quantum_duplicate(a, 1, 0, _F3_EYE, m),
    "ncd_conditions": lambda a, m: ncd_conditions(a, _F3_EYE, m),
    "qdup_conditions": lambda a, m: qdup_conditions(a, 1, 0, m, _F3_EYE),
    "truncated_from_first_row": lambda a, m: truncated_from_first_row(a, 2, [m, _F3_EYE]),
    "make_kn": lambda a, m: make_kn(a, 2, [[_F3_EYE, m], [m, _F3_EYE]]),
    "kn_conditions": lambda a, m: kn_conditions(a, 2, [[_F3_EYE, m], [m, _F3_EYE]]),
}


@pytest.mark.parametrize("build", sorted(_FOREIGN_ENTRY_BUILDS))
def test_endomorphism_over_another_field_is_rejected(build):
    """A ``KMatrix`` entry over F_5 given to an algebra over F_3 would put
    the residue 4 into an F_3 grid; it is refused as ``mat_mul`` refuses it."""
    a = kn_algebra(F3, 2)
    with pytest.raises(FieldMismatchError):
        _FOREIGN_ENTRY_BUILDS[build](a, _F5_MATRIX)
    _FOREIGN_ENTRY_BUILDS[build](a, _F3_EYE)


# -- stack generators against the public scalar entries ----------------------------


def _duplicate_grids(field, rng):
    """Duplicate grids over K^2 (identity over 1, (delta, f) over X): the flip,
    then every (delta, f) when there are at most 6561, else 6561 seeded ones."""
    p = field.p
    if p**8 <= 6561:
        data = np.array(list(itertools.product(range(p), repeat=8)))
    else:
        data = rng.integers(p, size=(6561, 8))
    G = np.zeros((len(data) + 1, 2, 2, 2, 2), dtype=np.int64)
    G[:, 0, 0] = G[0, 1, 1] = np.identity(2, dtype=np.int64)
    G[1:, 1] = data.reshape(-1, 2, 2, 2)
    return G


def _kn_grids(field, rng):
    """The flip and a dictionary image over K^2, then 4096 seeded grids."""
    eye, zero, f = np.identity(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64), np.array([[1, 0], [1, 0]])
    known = [[[eye, zero], [zero, eye]], [[eye, (eye - f) % field.p], [zero, f]]]
    return np.concatenate([np.array(known), rng.integers(field.p, size=(4096, 2, 2, 2, 2))])


def _truncated_grids(field, rng):
    """The flip, then 512 grids derived from seeded exponent-1 rows."""
    a = kn_algebra(field, 2)
    flip = [field.zeros((2, 2)), field.identity(2), field.zeros((2, 2))]
    rows = [flip, *rng.integers(field.p, size=(512, 3, 2, 2))]
    return np.array([truncated_from_first_row(a, 3, list(row)).family.gamma for row in rows])


def _qdup_case(alpha, beta):
    return (
        "qdup",
        lambda field: quadratic_algebra(field, alpha, beta),
        _duplicate_grids,
        lambda a, G: qdup_conditions(a, alpha, beta, G[1, 1], G[1, 0]).ok,
    )


#: key of the table of checks, carrier, stack of grids and the public scalar
#: entry at one grid
_STACK_CASES = {
    "ncd": ("ncd", duplicate_algebra, _duplicate_grids, lambda a, G: ncd_conditions(a, G[1, 1], G[1, 0]).ok),
    "qdup(0,-1)": _qdup_case(0, -1),
    "qdup(1,1)": _qdup_case(1, 1),
    "kn": ("kn", lambda field: kn_algebra(field, 2), _kn_grids, lambda a, G: kn_conditions(a, 2, G).ok),
    "trunc": (
        "trunc",
        lambda field: truncated_poly_algebra(field, 3),
        _truncated_grids,
        lambda a, G: truncated_conditions(a, 3, G).ok,
    ),
}


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
@pytest.mark.parametrize("case", sorted(_STACK_CASES))
def test_stack_verdict_equals_scalar_entry(case, field):
    """The verdict of a catalog check on a stack equals the public scalar
    entry on a seeded sample of 512 of its grids (all of a smaller stack) and
    on every grid it accepts; a stack with two batch axes gives the same
    verdicts."""
    check, carrier, grids, scalar = _STACK_CASES[case]
    a, b = kn_algebra(field, 2), carrier(field)
    G = grids(field, np.random.default_rng(field.p))
    verdict = pairs_ok(field, route_pairs(check, a, b, G), G.shape[:-4])
    accepted = np.flatnonzero(verdict).tolist()
    assert verdict[0] and len(accepted) < len(G)  # the flip, and some rejection
    sample = set(random.Random(field.p).sample(range(len(G)), min(512, len(G)))) | set(accepted)
    assert [bool(verdict[i]) for i in sorted(sample)] == [scalar(a, G[i]) for i in sorted(sample)]
    even = len(G) // 2 * 2
    halves = G[:even].reshape(2, -1, *G.shape[1:])
    assert (pairs_ok(field, route_pairs(check, a, b, halves), halves.shape[:-4]) == verdict[:even].reshape(2, -1)).all()
