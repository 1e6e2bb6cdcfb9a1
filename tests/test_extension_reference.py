"""The block families of the extension criteria against explicit loops.

Every family of ``check_lemma_blocks`` and of both forms of
``check_extension_given_theta`` is evaluated here entry by entry with Python
scalars, from the constants of the two factor algebras, the constants of A
and the gamma grid, following the per-block formulas in those checkers'
docstrings.  The violation count of each family (its number of mismatching
scalar entries, which does not depend on the order of its axes) must equal
the count in the report, so in particular the failing tags equal
``report.conditions()``.
"""

import random
from fractions import Fraction

import pytest

from twistkit import (
    GF,
    QQ,
    GammaFamily,
    check_extension_given_theta,
    check_lemma_blocks,
    direct_product,
    duplicate_algebra,
    kn_algebra,
    truncated_poly_algebra,
)

F5 = GF(5)

# factor algebras (B, C) of D = B x C at the cuts (n, m)
CUTS = {
    (1, 1): lambda f: (kn_algebra(f, 1), kn_algebra(f, 1)),
    (1, 2): lambda f: (kn_algebra(f, 1), duplicate_algebra(f)),
    (2, 1): lambda f: (truncated_poly_algebra(f, 2), kn_algebra(f, 1)),
    (2, 2): lambda f: (kn_algebra(f, 2), duplicate_algebra(f)),
}


# -- nested-list arithmetic ------------------------------------------------------


def _lin(terms):
    """sum of coefficient * array over a nonempty list of equally nested lists."""
    first = terms[0][1]
    if isinstance(first, list):
        return [_lin([(coef, arr[i]) for coef, arr in terms]) for i in range(len(first))]
    return sum(coef * arr for coef, arr in terms)


def _compose(x, y):
    """x o y for d x d coordinate matrices."""
    d = len(x)
    return [[sum(x[r][e] * y[e][s] for e in range(d)) for s in range(d)] for r in range(d)]


def _endo_mul(x, y):
    """Product of End-valued matrices: entry (i, j) = sum_w x[i][w] o y[w][j]."""
    return [
        [_lin([(1, _compose(x[i][w], y[w][j])) for w in range(len(y))]) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


class _Reference:
    """The block families of a candidate on (A, B x C), as violation counts."""

    def __init__(self, field, A, b, c, grid):
        if field.kind == "Fp":
            self.is_zero = lambda v: v % field.p == 0
        else:
            self.is_zero = lambda v: v == 0
        self.n, self.m, self.d = b.dim, c.dim, A.dim
        self.N = self.n + self.m
        self.lamA, self.unitA = A.lam.tolist(), A.unit.tolist()
        self.lamB, self.unitB = b.lam.tolist(), b.unit.tolist()
        self.lamC, self.unitC = c.lam.tolist(), c.unit.tolist()
        self.gamma = grid.tolist()
        self.B = range(self.n)
        self.C = range(self.n, self.N)

    def count(self, left, right):
        if isinstance(left, list):
            return sum(self.count(x, y) for x, y in zip(left, right))
        return 0 if self.is_zero(left - right) else 1

    def nonzero(self, arr):
        return self.count(arr, _lin([(0, arr)]))

    # End-valued side

    def block(self, k, l):
        """Diagonal block l of R_k[i, m] = sum_t lam[m, t, i] gamma[k][t]:
        l = 1 from the constants of B, l = 2 from those of C."""
        lam, offset, size = (self.lamB, 0, self.n) if l == 1 else (self.lamC, self.n, self.m)
        return [
            [_lin([(lam[mm][t][i], self.gamma[k][offset + t]) for t in range(size)]) for mm in range(size)]
            for i in range(size)
        ]

    def identity(self, size):
        eye = [[int(r == s) for s in range(self.d)] for r in range(self.d)]
        zero = [[0] * self.d for _ in range(self.d)]
        return [[eye if i == j else zero for j in range(size)] for i in range(size)]

    def stacks(self, l):
        """Block l of R_k at the B-basis vectors, then at the C-basis vectors."""
        return [self.block(k, l) for k in self.B], [self.block(k, l) for k in self.C]

    def end_counts(self, l):
        """``B.rep.l``, ``C.rep.l``, ``BC.zero.l``, ``CB.zero.l``, ``unit.sum.l``."""
        bs, cs = self.stacks(l)
        rep = {}
        for name, stack, lam in (("B", bs, self.lamB), ("C", cs, self.lamC)):
            rep[name] = sum(
                self.count(
                    _endo_mul(stack[i], stack[j]),
                    _lin([(lam[j][i][k], stack[k]) for k in range(len(stack))]),
                )
                for i in range(len(stack))
                for j in range(len(stack))
            )
        unit_sum = _lin(
            [(self.unitB[k], bs[k]) for k in range(self.n)]
            + [(self.unitC[k], cs[k]) for k in range(self.m)]
        )
        return {
            f"B.rep.{l}": rep["B"],
            f"C.rep.{l}": rep["C"],
            f"BC.zero.{l}": sum(self.nonzero(_endo_mul(x, y)) for x in bs for y in cs),
            f"CB.zero.{l}": sum(self.nonzero(_endo_mul(y, x)) for x in bs for y in cs),
            f"unit.sum.{l}": self.count(unit_sum, self.identity(len(bs[0]))),
        }

    # A-valued side

    def phi(self, a):
        """phi(a)[j][k] = gamma[k][j](a)."""
        N, d = self.N, self.d
        return [
            [[sum(self.gamma[k][j][r][s] * a[s] for s in range(d)) for r in range(d)] for k in range(N)]
            for j in range(N)
        ]

    def a_mul(self, u, v):
        d = self.d
        return [
            sum(u[s] * v[t] * self.lamA[s][t][w] for s in range(d) for t in range(d))
            for w in range(d)
        ]

    def basis(self, x):
        return [int(s == x) for s in range(self.d)]

    def unit_count(self, rows, cols):
        """Gamma^p_q(1_A) against the identity block."""
        phi1 = self.phi(self.unitA)
        zero = [0] * self.d
        return sum(
            self.count(phi1[j][k], self.unitA if j == k else zero) for j in rows for k in cols
        )

    def product_count(self, rows, cols, mids, left_zero=False):
        """phi(a_x a_y)[j][k] (or 0) against sum_{l in mids} phi(a_x)[j][l]
        phi(a_y)[l][k], over basis pairs and j in rows, k in cols."""
        total = 0
        for x in range(self.d):
            for y in range(self.d):
                px, py = self.phi(self.basis(x)), self.phi(self.basis(y))
                pxy = self.phi(self.lamA[x][y])
                for j in rows:
                    for k in cols:
                        right = _lin([(1, self.a_mul(px[j][l], py[l][k])) for l in mids])
                        left = _lin([(0, right)]) if left_zero else pxy[j][k]
                        total += self.count(left, right)
        return total

    # the checkers

    def lemma(self):
        counts = {}
        for l in (1, 2):
            counts.update(self.end_counts(l))
        parts = (self.B, self.C)
        for p in (0, 1):
            for q in (0, 1):
                counts[f"Gamma{p}{q}.unit"] = self.unit_count(parts[p], parts[q])
        D = range(self.N)
        for p in (0, 1):
            for q in (0, 1):
                counts[f"Gamma{p}{q}.mul"] = self.product_count(parts[p], parts[q], D)
        return counts

    def extension(self, require_gamma01_zero):
        second = self.end_counts(2)
        _, c1 = self.stacks(1)
        B, C, D = self.B, self.C, range(self.N)
        counts = {
            "B2.mul": second["B.rep.2"],
            "C1.zero": self.nonzero(c1),
            "C2.mul": second["C.rep.2"],
            "B2C2.zero": second["BC.zero.2"],
            "C2B2.zero": second["CB.zero.2"],
            "unit.sum": second["unit.sum.2"],
        }
        if require_gamma01_zero:
            counts["Gamma01"] = self.nonzero([[self.gamma[k][j] for j in B] for k in C])
            counts["Gamma11.mul"] = self.product_count(C, C, C)
        else:
            counts["Gamma01.rule"] = self.product_count(B, C, D)
            counts["Gamma11.rule"] = self.product_count(C, C, D)
            counts["Gamma01Gamma10.zero"] = self.product_count(B, B, C, left_zero=True)
            counts["Gamma01.unit"] = self.unit_count(B, C)
        counts["Gamma10.der"] = self.product_count(C, B, D)
        counts["Gamma11.unit"] = self.unit_count(C, C)
        counts["Gamma10.unit"] = self.unit_count(C, B)
        return counts


# -- candidates --------------------------------------------------------------------


def _scalar(field, rng, nonzero=False):
    if field.kind == "Fp":
        return rng.randrange(1 if nonzero else 0, field.p)
    values = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)] + ([] if nonzero else [0, 0])
    return Fraction(rng.choice(values))


def _candidates(field, cut, seed):
    """The flip on (A, B x C), the flip with one to three entries moved, and
    two random grids; each comes with the flip's B-corner restored too, so
    that the extension criterion applies."""
    rng = random.Random(seed)
    b, c = CUTS[cut](field)
    A = truncated_poly_algebra(field, 2)
    D = direct_product(b, c)
    flip = GammaFamily.flip(A, D).gamma
    grids = [flip]
    for moved in (1, 1, 2, 3, 3):
        grid = flip.copy()
        for _ in range(moved):
            idx = tuple(rng.randrange(s) for s in grid.shape)
            grid[idx] = field.reduce(grid[idx] + _scalar(field, rng, nonzero=True))
        grids.append(grid)
    for _ in range(2):
        values = [_scalar(field, rng) for _ in range(flip.size)]
        grids.append(field.asarray(values).reshape(flip.shape))
    out = []
    for grid in grids:
        out.append((grid, False))
        restored = grid.copy()
        restored[: cut[0], : cut[0]] = flip[: cut[0], : cut[0]]
        out.append((restored, True))
    return A, b, c, D, out


def _report_counts(report):
    return {f.condition: f.count for f in report.failures}


@pytest.mark.parametrize("cut", sorted(CUTS), ids=lambda cut: f"n{cut[0]}m{cut[1]}")
@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_block_families_match_explicit_loops(field, cut):
    n, m = cut
    A, b, c, D, candidates = _candidates(field, cut, seed=100 * n + 10 * m + (field.kind == "Q"))
    seen_ok, seen_fail = set(), set()
    for grid, b_corner_verified in candidates:
        psi = GammaFamily(A, D, grid)
        ref = _Reference(field, A, b, c, grid)
        expected = {tag: count for tag, count in ref.lemma().items() if count}
        report = check_lemma_blocks(psi, n)
        assert _report_counts(report) == expected
        assert report.conditions() == set(expected)
        (seen_ok if report.ok else seen_fail).add("lemma")
        if not b_corner_verified:
            continue
        for strengthened in (True, False):
            expected = {t: k for t, k in ref.extension(strengthened).items() if k}
            report = check_extension_given_theta(psi, n, require_gamma01_zero=strengthened)
            assert _report_counts(report) == expected, strengthened
            assert report.conditions() == set(expected)
            (seen_ok if report.ok else seen_fail).add(strengthened)
    assert seen_ok == seen_fail == {"lemma", True, False}
