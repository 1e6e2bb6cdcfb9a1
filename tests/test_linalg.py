import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistkit import (
    AlgMatrix,
    DimensionMismatchError,
    EndoMatrix,
    FieldMismatchError,
    GF,
    KMatrix,
    QQ,
    SingularMatrixError,
    algmat_mul,
    duplicate_algebra,
    endo_mat_mul,
    kernel_basis,
    kn_algebra,
    mat_inverse,
    mat_mul,
    rank,
    truncated_poly_algebra,
)
from twistkit import linalg
from twistkit.linalg import _P, _rref

try:
    import sympy
except ImportError:  # the sympy comparison is optional
    sympy = None


def km(field, rows):
    return KMatrix.from_rows(field, rows)


# -- mat_mul -------------------------------------------------------------------


def test_identity_product():
    eye = KMatrix.identity(QQ, 2)
    assert mat_mul(eye, eye) == eye


def test_structure_matrix_of_x_is_idempotent():
    x = duplicate_algebra(QQ).structure_matrix(1)
    assert x == km(QQ, [[0, 0], [1, 1]])
    assert mat_mul(x, x) == x


def test_truncated_shift_squares_to_corner():
    y = truncated_poly_algebra(QQ, 3).structure_matrix(1)
    assert mat_mul(y, y) == km(QQ, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])


def test_mat_mul_errors():
    with pytest.raises(DimensionMismatchError):
        mat_mul(km(QQ, [[1, 2]]), km(QQ, [[1, 2]]))
    with pytest.raises(FieldMismatchError):
        mat_mul(km(QQ, [[1]]), km(GF(2), [[1]]))


# -- mat_inverse ---------------------------------------------------------------


def test_inverse_identity():
    eye = KMatrix.identity(QQ, 3)
    assert mat_inverse(eye) == eye


def test_inverse_triangular():
    assert mat_inverse(km(QQ, [[1, 0], [1, 1]])) == km(QQ, [[1, 0], [-1, 1]])


def test_inverse_involution_mod2():
    swap = km(GF(2), [[0, 1], [1, 0]])
    assert mat_inverse(swap) == swap


def test_singular_reports_rank():
    with pytest.raises(SingularMatrixError) as err:
        mat_inverse(km(QQ, [[1, 2], [2, 4]]))
    assert err.value.rank == 1


# -- kernel_basis ----------------------------------------------------------------


def test_kernel_of_identity_empty():
    assert kernel_basis(KMatrix.identity(QQ, 4)) == []


def test_kernel_of_zero_full():
    basis = kernel_basis(KMatrix.zeros(QQ, 2, 2))
    assert len(basis) == 2


def test_kernel_rank_one():
    basis = kernel_basis(km(QQ, [[1, 1], [1, 1]]))
    assert len(basis) == 1
    assert basis[0].tolist() == [Fraction(-1), Fraction(1)]


@given(st.lists(st.integers(-4, 4), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates_and_counts(entries):
    mat = km(QQ, [entries[i * 4 : (i + 1) * 4] for i in range(3)])
    basis = kernel_basis(mat)
    assert len(basis) + rank(mat) == mat.cols
    for vec in basis:
        assert QQ.is_zero(mat.apply(vec))


def _rref_reference(field, mat):
    """The per-row numpy elimination ``_rref`` replaced, kept as the reference:
    one scaled pivot row and one numpy row operation per nonzero entry of
    its column, in the field's own arithmetic."""
    R = mat.copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if R[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            R[[r, pivot_row]] = R[[pivot_row, r]]
        inverse = Fraction(1) / R[r, c] if field.kind == "Q" else pow(int(R[r, c]), -1, field.p)
        R[r] = field.reduce(R[r] * inverse)
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i] = field.reduce(R[i] - R[i, c] * R[r])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def _kernel_reference(x):
    """One vector per free column: 1 there, minus the echelon entry of that
    column on each pivot coordinate."""
    R, pivots = _rref_reference(x.field, x.data)
    basis = []
    for free in range(x.cols):
        if free in pivots:
            continue
        v = x.field.zeros((x.cols,))
        v[free] = x.field.one
        for row, piv in enumerate(pivots):
            v[piv] = x.field.reduce(-R[row, free])
        basis.append(v)
    return basis


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_kernel_basis_matches_the_per_column_loop(field):
    rng = np.random.default_rng(23)
    for rows, cols in ((1, 1), (2, 5), (4, 4), (5, 3), (3, 7)):
        for _ in range(20):
            entries = rng.integers(0, 3, size=(rows, cols)) * rng.integers(0, 2, size=(1, cols))
            mat = km(field, entries.tolist())
            basis = kernel_basis(mat)
            expected = _kernel_reference(mat)
            assert len(basis) == len(expected)
            for vec, ref in zip(basis, expected):
                assert vec.dtype == ref.dtype and vec.tolist() == ref.tolist()
                assert all(type(v) is type(field.zero) for v in vec.tolist())
                assert not vec.flags.writeable


# -- the elimination against the per-row reference ----------------------------------


_FIELDS = {"F2": GF(2), "F3": GF(3), "F31": GF(31), "F65521": GF(65521), "Q": QQ, "Q-int": QQ}

#: (rows, cols, rank): empty, tall, wide, square, zero and rank-deficient shapes.
_SHAPES = [
    (0, 3, 0), (3, 0, 0), (0, 0, 0), (1, 1, 1), (2, 2, 0), (3, 3, 0),
    (6, 3, 3), (9, 4, 2), (3, 6, 3), (4, 9, 2), (5, 5, 5), (5, 5, 3), (7, 7, 4),
]


def _random_matrix(name, rows, cols, rank, rng):
    """A rows x cols matrix of rank at most ``rank`` over ``_FIELDS[name]``:
    canonical residues over F_p, ``Fraction`` s with denominators up to 6 over
    Q, and the Python-int object array ``verify_faithful`` passes for Q-int."""
    field = _FIELDS[name]
    scale = 9 if name.startswith("Q") else field.p
    left = [[rng.randrange(-scale, scale + 1) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(-scale, scale + 1) for _ in range(cols)] for _ in range(rank)]
    ints = [sum(left[i][k] * right[k][j] for k in range(rank)) for i in range(rows) for j in range(cols)]
    if name == "Q":
        entries = np.array([Fraction(v, rng.randrange(1, 7)) for v in ints], dtype=object)
    elif name == "Q-int":
        entries = np.array(ints, dtype=object)
    else:
        entries = np.array([v % field.p for v in ints], dtype=np.int64)
    return entries.reshape(rows, cols)


def _assert_same(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tolist() == expected.tolist()


def _public_results(x):
    """rank, kernel_basis and mat_inverse (or its refusal) of ``x``."""
    try:
        inverse = mat_inverse(x).data if x.is_square else None
    except SingularMatrixError as err:
        inverse = ("singular", err.rank)
    return rank(x), kernel_basis(x), inverse


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_elimination_matches_the_per_row_reference(monkeypatch, name):
    """``_rref`` and the three public functions over it give the values,
    dtypes and pivot lists of the per-row numpy elimination, on every shape,
    including the Python-int input of ``verify_faithful``."""
    field, rng = _FIELDS[name], random.Random(f"rref/{name}")
    for rows, cols, r in _SHAPES:
        for _ in range(4):
            mat = _random_matrix(name, rows, cols, r, rng)
            R, pivots = _rref(field, mat)
            R_ref, pivots_ref = _rref_reference(field, mat)
            _assert_same(R, R_ref)
            assert pivots == pivots_ref
            if not name.startswith("Q"):
                assert all(0 <= v < field.p for v in R.flat)
            if name == "Q":
                assert all(type(v) is Fraction for v in R.flat)
            x = KMatrix(field, mat)
            got = _public_results(x)
            with monkeypatch.context() as patched:
                patched.setattr(linalg, "_rref", _rref_reference)
                expected = _public_results(x)
            assert got[0] == expected[0]
            assert len(got[1]) == len(expected[1])
            for vec, ref in zip(got[1], expected[1]):
                _assert_same(vec, ref)
                assert not vec.flags.writeable
            if isinstance(expected[2], np.ndarray):
                _assert_same(got[2], expected[2])
                assert all(type(v) is type(field.zero) for v in got[2].ravel().tolist())
            else:
                assert got[2] == expected[2]


def _is_rref(field, R, pivots):
    """Pivots ascending, each a 1 alone in its column and the first nonzero
    entry of its row; the rows below the pivot rows are zero."""
    nonzero = [[v != 0 for v in row] for row in R.tolist()]
    if pivots != sorted(set(pivots)) or any(any(row) for row in nonzero[len(pivots) :]):
        return False
    for i, c in enumerate(pivots):
        if R[i, c] != 1 or sum(row[c] for row in nonzero) != 1 or any(nonzero[i][:c]):
            return False
    return True


@given(
    st.sampled_from(sorted(_FIELDS)),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_elimination_is_an_rref_with_the_same_row_space(name, rows, cols, r, seed):
    """The output is in reduced row echelon form, and stacking it under the
    input adds nothing to the input's rank (both ranks counted by the
    reference): the two row spaces are equal."""
    field = _FIELDS[name]
    mat = _random_matrix(name, rows, cols, r, random.Random(seed))
    R, pivots = _rref(field, mat)
    assert R.shape == mat.shape and _is_rref(field, R, pivots)
    rank_of = len(_rref_reference(field, mat)[1])
    both = np.concatenate([mat, R], axis=0)
    assert len(pivots) == rank_of == len(_rref_reference(field, both)[1])


# -- the injectivity certificate mod _P against the fraction-free path -------------


def _fraction_free_kernel(x):
    """``kernel_basis`` with the certificate switched off: the fraction-free
    elimination alone."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(linalg, "_injective_mod_p", lambda mat: False)
        return kernel_basis(x)


@st.composite
def _q_matrices(draw):
    """Integer, rational and rank-deficient matrices, zero-width and empty
    ones, entries that are multiples of _P, and full-rank matrices singular
    mod _P (a column times _P)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["int", "rational", "low-rank", "multiples", "column-times-p"]))
    if kind == "rational":
        entries = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    elif kind == "multiples":
        entries = st.builds(lambda k, r: k * _P + r, st.integers(-3, 3), st.integers(-1, 1))
    else:
        entries = st.integers(-9, 9)
    if kind == "low-rank":
        r = draw(st.integers(0, min(rows, cols)))
        left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=r, max_size=r))
        data = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if right else [0] * cols for row in left]
    else:
        data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if kind == "column-times-p" and cols:
        j = draw(st.integers(0, cols - 1))
        data = [[v * _P if k == j else v for k, v in enumerate(row)] for row in data]
    return KMatrix(QQ, np.array([[Fraction(v) for v in row] for row in data], dtype=object).reshape(rows, cols))


@given(_q_matrices())
@example(km(QQ, [[1, 0], [0, _P]]))
@example(km(QQ, [[_P, 2 * _P], [1, 2]]))
@example(km(QQ, [[_P, 1], [0, _P], [_P, _P]]))
@example(KMatrix.zeros(QQ, 3, 0))
@example(KMatrix.zeros(QQ, 0, 3))
@settings(max_examples=200, deadline=None)
def test_kernel_basis_over_q_equals_the_fraction_free_path(x):
    """The certificate only answers empty kernels, so ``kernel_basis`` gives
    the fraction-free path's basis on every matrix, and sympy's
    ``nullspace`` (same normalisation: a 1 on each free column) where sympy
    is installed."""
    basis, expected = kernel_basis(x), _fraction_free_kernel(x)
    assert len(basis) == len(expected) == x.cols - rank(x)
    for vec, ref in zip(basis, expected):
        _assert_same(vec, ref)
        assert not vec.flags.writeable
    if linalg._injective_mod_p(x.data):
        assert basis == []
    if sympy is not None:
        reference = sympy.Matrix(x.rows, x.cols, [sympy.Rational(v.numerator, v.denominator) for v in x.data.flat])
        assert [vec.tolist() for vec in basis] == [
            [Fraction(int(v.p), int(v.q)) for v in column] for column in reference.nullspace()
        ]


def test_full_rank_matrices_singular_mod_p_fall_back():
    """Rank over Q is full but drops mod _P: the certificate fails and the
    fraction-free path proves the kernel empty."""
    for rows in ([[1, 0], [0, _P]], [[_P, 1], [0, _P], [_P, _P]], [[2 * _P, 3 * _P], [1, 1]]):
        x = km(QQ, rows)
        assert not linalg._injective_mod_p(x.data)
        assert kernel_basis(x) == [] and rank(x) == x.cols


# -- exact algebra laws (random) ----------------------------------------------------


@given(st.lists(st.integers(0, 4), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_mat_mul_associative_mod5(entries):
    f5 = GF(5)
    x = km(f5, [entries[0:2], entries[2:4]])
    y = km(f5, [entries[4:6], entries[6:8]])
    z = km(f5, [entries[8:10], entries[10:12]])
    assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))
    eye = KMatrix.identity(f5, 2)
    assert mat_mul(eye, x) == x
    assert mat_mul(x, eye) == x


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_inverse_two_sided_over_q(entries):
    mat = km(QQ, [entries[0:2], entries[2:4]])
    try:
        inv = mat_inverse(mat)
    except SingularMatrixError:
        return
    eye = KMatrix.identity(QQ, 2)
    assert mat_mul(mat, inv) == eye
    assert mat_mul(inv, mat) == eye


# -- endomorphism-valued matrices -----------------------------------------------------


def test_endo_mat_mul_composes_entries():
    field = QQ
    a = field.asarray([[0, 1], [0, 0]])
    b = field.asarray([[0, 0], [1, 0]])
    x = EndoMatrix(field, np.stack([np.stack([a, field.zeros((2, 2))]),
                                    np.stack([field.zeros((2, 2)), a])]))
    y = EndoMatrix(field, np.stack([np.stack([b, field.zeros((2, 2))]),
                                    np.stack([field.zeros((2, 2)), b])]))
    prod = endo_mat_mul(x, y)
    assert prod.entry(0, 0) == KMatrix(field, field.matmul(a, b))
    assert prod.entry(0, 1).is_zero()
    # composition order matters: a then b differs from b then a
    assert endo_mat_mul(x, y) != endo_mat_mul(y, x)


# -- algebra-valued matrices -----------------------------------------------------------


def test_algmat_identity_neutral():
    alg = kn_algebra(QQ, 2)
    eye = AlgMatrix.identity(alg, 2)
    data = QQ.zeros((2, 2, 2))
    data[0, 1] = QQ.asarray([1, 2])
    data[1, 0] = QQ.asarray([3, 0])
    z = AlgMatrix(alg, data)
    assert algmat_mul(eye, z) == z
    assert algmat_mul(z, eye) == z


def test_faithful_scalar_matrix_idempotent():
    alg = kn_algebra(QQ, 2)
    data = QQ.zeros((2, 2, 2))
    data[1, 0] = alg.unit
    data[1, 1] = alg.unit
    phi_x = AlgMatrix(alg, data)
    assert algmat_mul(phi_x, phi_x) == phi_x


def test_algmat_ambient_mismatch():
    a2 = kn_algebra(QQ, 2)
    dup = duplicate_algebra(QQ)
    with pytest.raises(FieldMismatchError):
        algmat_mul(AlgMatrix.identity(a2, 2), AlgMatrix.identity(dup, 2))


@given(st.lists(st.integers(0, 2), min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_algmat_mul_matches_regular_block_expansion(entries):
    """Expand A-entries into scalar blocks via left multiplication and compare."""
    f3 = GF(3)
    alg = kn_algebra(f3, 2)
    vals = iter(entries)

    def random_algmat():
        data = f3.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                data[i, j] = f3.asarray([next(vals), next(vals)])
        return AlgMatrix(alg, data)

    x = random_algmat()
    y = random_algmat()
    prod = algmat_mul(x, y)

    def blocks(mat):
        out = f3.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = alg.left_mul_matrix(mat.data[i, j]).data
        return out

    assert f3.equal(blocks(prod), f3.matmul(blocks(x), blocks(y)))


def test_alg_entry_product_exact_at_worst_case_int64_bound():
    """All entries p - 1 at p = 65521 with s * d^2 = 2^16: contracting both
    stages before reducing would pass 2^63; the result must equal the
    Python-int contraction."""
    from twistkit.linalg import _alg_entry_product

    p = 65521
    field = GF(p)
    x = np.full((1, 1, 64, 32), p - 1, dtype=np.int64)
    y = np.full((1, 64, 1, 32), p - 1, dtype=np.int64)
    lam = np.full((32, 32, 32), p - 1, dtype=np.int64)
    pairs = np.tensordot(x.astype(object), y.astype(object), axes=([2], [1]))
    expected = np.tensordot(pairs, lam.astype(object), axes=([2, 5], [0, 1]))
    expected = (expected.transpose(0, 2, 1, 3, 4) % p).astype(np.int64)
    out = _alg_entry_product(field, lam, x, y)
    assert out.shape == (1, 1, 1, 1, 32)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_stacked_products_match_entrywise_definition(field):
    """Both stacked kernels against the defining sums, pair by pair."""
    import itertools
    import random

    from twistkit.linalg import _alg_entry_product, _endo_products

    rng = random.Random(31)

    def rand(shape):
        values = np.array([rng.randrange(-3, 4) for _ in range(int(np.prod(shape)))], dtype=object)
        return field.asarray(values.reshape(shape).tolist())

    d = 2
    lam = rand((d, d, d))
    x, y = rand((3, 2, 3, d)), rand((2, 3, 1, d))
    out = _alg_entry_product(field, lam, x, y)
    assert out.shape == (3, 2, 2, 1, d)
    for a, b, i, j, w in itertools.product(*map(range, out.shape)):
        expected = sum(
            x[a, i, k, u] * y[b, k, j, v] * lam[u, v, w]
            for k in range(3) for u in range(d) for v in range(d)
        )
        assert field.equal(out[a, b, i, j, w], field.reduce(np.array(expected)))

    ex, ey = rand((2, 2, 3, d, d)), rand((3, 3, 2, d, d))
    prod = _endo_products(field, ex, ey)
    assert prod.shape == (2, 3, 2, 2, d, d)
    for a, b, i, j in itertools.product(*map(range, prod.shape[:4])):
        expected = sum(field.matmul(ex[a, i, k], ey[b, k, j]) for k in range(3))
        assert field.equal(prod[a, b, i, j], expected)


# -- the lift and transport kernels against per-entry loops -----------------------------


def _rand_exact(field, rng, shape):
    values = [rng.choice([Fraction(v, rng.choice((1, 2, 3))) for v in range(-3, 4)]) for _ in range(int(np.prod(shape)))]
    if field.kind == "Fp":
        values = [int(v.numerator * pow(v.denominator, -1, field.p)) for v in values]
    return field.asarray(np.array(values, dtype=object).reshape(shape).tolist())


def _lift_reference(field, m, tail):
    """out[idx + t] = m[idx] * tail[t], one entry at a time."""
    out = field.zeros(m.shape + tail.shape)
    for idx in np.ndindex(*m.shape):
        for t in np.ndindex(*tail.shape):
            out[idx + t] = field.reduce(m[idx] * tail[t])
    return out


def _transport_reference(field, z, x, axes):
    """out[.., i, ..] = sum_u z[u, i] x[.., u, ..] on each axis in turn, one
    output entry at a time."""
    for axis in axes:
        shape = x.shape[:axis] + (z.shape[1],) + x.shape[axis + 1:]
        out = field.zeros(shape)
        for idx in np.ndindex(*shape):
            terms = (z[u, idx[axis]] * x[idx[:axis] + (u,) + idx[axis + 1:]] for u in range(x.shape[axis]))
            out[idx] = field.reduce(sum(terms, field.zero))
        x = out
    return x


_KERNEL_FIELDS = [GF(7), QQ, "Q cleared"]


@pytest.mark.parametrize("which", _KERNEL_FIELDS, ids=["F7", "Q", "Q-cleared"])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["one", "batch"])
def test_lifts_match_the_per_entry_loop(which, batch):
    """``_alg_lift`` (m (x) x) and ``_endo_lift`` (m (x) id_d) against the
    loop, on a matrix or a stack of them; over Q also with either operand
    cleared, which keeps the lift cleared."""
    from twistkit.fields import _Cleared
    from twistkit.linalg import _alg_lift, _endo_lift

    field = QQ if which == "Q cleared" else which
    rng = random.Random(f"lifts/{which}/{batch}")
    m, x = _rand_exact(field, rng, batch + (3, 2)), _rand_exact(field, rng, (4,))
    expected_alg = _lift_reference(field, m, x)
    expected_endo = _lift_reference(field, m, field.identity(3))
    if which == "Q cleared":
        cases = [(field.cleared(m), x), (m, field.cleared(x)), (field.cleared(m), field.cleared(x))]
        for mm, xx in cases:
            lifted = _alg_lift(field, mm, xx)
            assert isinstance(lifted, _Cleared) and field.equal(lifted, expected_alg)
        lifted = _endo_lift(field, field.cleared(m), 3)
        assert isinstance(lifted, _Cleared) and field.equal(lifted, expected_endo)
        return
    lifted = _alg_lift(field, m, x)
    assert lifted.shape == batch + (3, 2, 4) and field.equal(lifted, expected_alg)
    lifted = _endo_lift(field, m, 3)
    assert lifted.shape == batch + (3, 2, 3, 3) and field.equal(lifted, expected_endo)


@pytest.mark.parametrize("which", _KERNEL_FIELDS, ids=["F7", "Q", "Q-cleared"])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["one", "batch"])
def test_transports_match_the_per_entry_loop(which, batch):
    """``_pull_back`` along a non-square z, on one axis and on several, with
    the other axes (a leading batch among them) in place; over Q also on a
    cleared tensor."""
    from twistkit.linalg import _pull_back

    field = QQ if which == "Q cleared" else which
    rng = random.Random(f"transports/{which}/{batch}")
    z = _rand_exact(field, rng, (3, 2))
    lead = len(batch)
    x = _rand_exact(field, rng, batch + (3, 3, 2, 3))
    clear = field.cleared if which == "Q cleared" else (lambda arr: arr)
    for axes in ((0,), (1,), (0, 1), (1, 3), (0, 1, 3)):
        shifted = tuple(a + lead for a in axes)
        out = _pull_back(field, z, clear(x), *shifted)
        assert field.equal(out, _transport_reference(field, z, x, shifted)), axes
