"""Route generators and verdicts on a stack of grids against the scalar ones.

Every kernel of the four route generators takes leading batch axes on the
gamma grid.  Each slice of a batched pass must equal the scalar pass at that
grid, family by family, with the same tags in the same order; sides that do
not depend on the grid carry no batch axes and broadcast.  The stack verdict
of each route must equal the scalar verdict slice by slice, and keep its
laziness: a stack no grid of which passes stops where one such grid would.
The block criteria of ``twistkit.extension``, slices of the ``rep`` route on
D = B x C, are held to the same slice-by-slice equality.
"""

from fractions import Fraction

import numpy as np
import pytest

from test_search import _tri_algebra
from twistkit import (
    GF,
    QQ,
    GammaFamily,
    SearchSpace,
    direct_product,
    duplicate_algebra,
    kn_algebra,
    truncated_poly_algebra,
)
from twistkit import search as search_mod
from twistkit.extension import _extension_pairs, _lemma_pairs
from twistkit.fields import Field
from twistkit.report import pairs_ok
from twistkit.twisting import (
    CHECKS,
    UNIT_FAMILIES,
    _direct_pairs,
    _oracle_pairs,
    _phi_pairs,
    _rho_pairs,
    route_ok,
    route_pairs,
)

GENERATORS = {
    "direct": _direct_pairs,
    "rho": _rho_pairs,
    "phi": _phi_pairs,
    "oracle": _oracle_pairs,
}

#: The block criteria at a cut n: the lemma and both forms of the extension criterion.
BLOCK_GENERATORS = {
    "lemma": lambda A, D, G, n: _lemma_pairs(route_pairs("rep", A, D, G), n),
    "extension": lambda A, D, G, n: _extension_pairs(A, D, G, route_pairs("rep", A, D, G), n, True),
    "extension-staged": lambda A, D, G, n: _extension_pairs(A, D, G, route_pairs("rep", A, D, G), n, False),
}

FIELDS = [GF(2), GF(3), GF(65521), QQ]
FIELD_IDS = ["F2", "F3", "F65521", "Q"]

BATCH = (2, 3)


def _random_entries(field, rng, shape):
    if field.kind == "Q":
        nums = rng.integers(-9, 10, size=shape).ravel().tolist()
        dens = rng.choice([1, 2, 3, 7], size=shape).ravel().tolist()
        entries = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
        return np.array(entries, dtype=object).reshape(shape)
    return rng.integers(0, field.p, size=shape).astype(np.int64)


def _pairs_of_algebras(field):
    """(A, B) with dim A != dim B, a non-commutative A, and both orders."""
    tri, trunc = _tri_algebra(field), truncated_poly_algebra(field, 2)
    return [(tri, trunc), (duplicate_algebra(field), _tri_algebra(field)), (kn_algebra(field, 2), trunc)]


def _products(field):
    """(A, D, n) with D = B x C cut at n != m and a non-commutative A."""
    tri = _tri_algebra(field)
    return [
        (tri, direct_product(truncated_poly_algebra(field, 2), kn_algebra(field, 1)), 2),
        (tri, direct_product(kn_algebra(field, 1), duplicate_algebra(field)), 1),
    ]


def _stack(field, A, B, rng):
    """Seeded grids of shape BATCH + (n, n, d, d); slice (0, 0) is the flip."""
    n, d = B.dim, A.dim
    stack = _random_entries(field, rng, BATCH + (n, n, d, d))
    stack[0, 0] = GammaFamily.flip(A, B).gamma
    return stack


def _assert_slices_equal_scalar(field, pairs, stack):
    """``pairs(G)`` on the stack, slice by slice, against ``pairs`` at each grid:
    the same tags in the same order and equal sides."""
    batched = list(pairs(stack))
    for b in np.ndindex(*BATCH):
        scalar = list(pairs(stack[b]))
        assert [tag for tag, _, _ in batched] == [tag for tag, _, _ in scalar]
        for (tag, left, right), (_, s_left, s_right) in zip(batched, scalar):
            for side, s_side in ((left, s_left), (right, s_right)):
                assert side.shape in (s_side.shape, BATCH + s_side.shape), tag
                sliced = np.broadcast_to(side, BATCH + s_side.shape)[b]
                assert field.equal(sliced, s_side), (tag, b)
                if field.kind == "Q":
                    assert all(isinstance(v, Fraction) for v in sliced.flat)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("route", sorted(GENERATORS))
def test_batched_generator_slices_equal_scalar_generator(field, route):
    rng = np.random.default_rng(11)
    for A, B in _pairs_of_algebras(field):
        _assert_slices_equal_scalar(field, lambda G: GENERATORS[route](A, B, G), _stack(field, A, B, rng))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("criterion", sorted(BLOCK_GENERATORS))
def test_batched_block_generator_slices_equal_scalar_generator(field, criterion):
    rng = np.random.default_rng(19)
    for A, D, n in _products(field):
        stack = _stack(field, A, D, rng)
        _assert_slices_equal_scalar(field, lambda G: BLOCK_GENERATORS[criterion](A, D, G, n), stack)


@pytest.mark.parametrize("route", sorted(UNIT_FAMILIES))
def test_unit_residual_rows_equal_single_grid_residuals(route):
    rng = np.random.default_rng(5)
    for field in (GF(2), GF(5)):
        A, B = _tri_algebra(field), truncated_poly_algebra(field, 2)
        space = SearchSpace(A, B)
        digits = rng.integers(0, field.p, size=BATCH + (space.free_entries,))
        rows = search_mod._unit_residual(space, route, digits)
        for b in np.ndindex(*BATCH):
            assert (rows[b] == search_mod._unit_residual(space, route, digits[b])).all()


@pytest.mark.parametrize("route", sorted(GENERATORS))
def test_scalar_generators_contract_only_through_tensordot(route, monkeypatch):
    """At one grid each contraction is one ``Field.tensordot`` call (einsum
    specs with an empty batch all have a dot form), so a hook on
    ``tensordot`` sees every contraction of a scalar verdict.  Over Q this
    holds for the ``Fraction`` grid and for the cleared grid of a check."""
    calls = {"tensordot": 0, "_contract": 0}
    for name in calls:
        original = getattr(Field, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Field, name, counted)
    for field in (GF(3), QQ):
        for A, B in _pairs_of_algebras(field):
            grid = _stack(field, A, B, np.random.default_rng(2))[0, 1]
            for G in ((grid,) if field.kind == "Fp" else (grid, field.cleared(grid))):
                calls.update(tensordot=0, _contract=0)
                list(GENERATORS[route](A, B, G))
                assert calls["tensordot"] == calls["_contract"] > 0, (field, type(G))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("route", sorted(UNIT_FAMILIES))
def test_stack_verdict_slices_equal_scalar_verdict(field, route):
    rng = np.random.default_rng(13)
    for A, B in _pairs_of_algebras(field):
        stack = _stack(field, A, B, rng)
        ok = search_mod._verdict(A, B, (route,), stack)
        assert ok.shape == BATCH and ok[0, 0]
        for b in np.ndindex(*BATCH):
            assert ok[b] == route_ok(route, GammaFamily(A, B, stack[b])), (route, b)


@pytest.mark.parametrize("route", sorted(UNIT_FAMILIES))
def test_stack_failing_the_first_family_costs_that_family(monkeypatch, route):
    """Every grid of the stack fails the route's first family: the verdict
    builds that family and no other, and an empty stack builds none."""
    field = GF(3)
    rng = np.random.default_rng(17)
    calls = []
    original = Field._contract

    def counted(self, contract, x, y):
        calls.append(contract)
        return original(self, contract, x, y)

    monkeypatch.setattr(Field, "_contract", counted)
    first = CHECKS[route].pairs[0]
    for A, B in _pairs_of_algebras(field):
        stack = _stack(field, A, B, rng).reshape((-1, B.dim, B.dim, A.dim, A.dim))
        family = next(first(A, B, stack))
        stack = stack[~pairs_ok(field, [family], stack.shape[:-4])]
        assert len(stack) >= 4
        calls.clear()
        next(first(A, B, stack))
        expected = len(calls)
        calls.clear()
        assert not search_mod._verdict(A, B, (route,), stack).any()
        assert len(calls) == expected > 0
        calls.clear()
        empty = search_mod._verdict(A, B, (route,), stack[:0])
        assert empty.shape == (0,) and calls == []
