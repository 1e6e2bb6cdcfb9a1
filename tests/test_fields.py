import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from twistkit import Field, FieldError, GF, GammaFamily, KMatrix, QQ, chi_eval, fields, kn_algebra, make_morphism, serialize
from twistkit.fields import _Cleared, _dot_plan
from twistkit.twisting import direct_ok


def test_rational_scalars_canonical():
    assert QQ.parse("3/7") == Fraction(3, 7)
    assert QQ.format(Fraction(6, -4)) == "-3/2"
    assert QQ.format(Fraction(12, 4)) == "3"
    assert QQ.scalar(5) == Fraction(5)
    with pytest.raises(FieldError, match="zero denominator"):
        QQ.parse("1/0")


def test_prime_field_scalars():
    f7 = GF(7)
    assert f7.parse("-3") == 4
    assert f7.format(12) == "5"
    assert f7.scalar(Fraction(10)) == 3


def test_prime_validation():
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(1)
    with pytest.raises(FieldError):
        GF(65537)  # prime, but at the size cap
    with pytest.raises(FieldError):
        GF(2**61 - 1)  # prime; trial division up to its root would not end
    GF(65521)  # largest prime below 2**16
    with pytest.raises(FieldError):
        Field("R")


@pytest.mark.parametrize("modulus", [7.0, 7.5, np.int64(7), True, "7"], ids=repr)
def test_modulus_must_be_an_integer(modulus):
    """A float, bool or string modulus is refused; a numpy integer is stored
    as an int, so residues, JSON and equality are those of ``GF(7)``."""
    if not isinstance(modulus, np.integer):
        with pytest.raises(FieldError, match="not an integer"):
            Field("Fp", modulus)
        return
    field = Field("Fp", modulus)
    assert type(field.p) is int and field == GF(7) and hash(field) == hash(GF(7))
    assert type(field.scalar(10)) is int and field.asarray(np.array([3, 9])).dtype == np.int64
    algebra = kn_algebra(field, 2)
    assert serialize.algebra_from_json(json.loads(serialize.dumps(serialize.algebra_to_json(algebra)))) == algebra



def test_asarray_shapes_and_reduction():
    f3 = GF(3)
    arr = f3.asarray([[4, -1], [0, "5"]])
    assert arr.dtype == np.int64
    assert arr.tolist() == [[1, 2], [0, 2]]
    q = QQ.asarray([["1/2", 3], [0, "-2/6"]])
    assert q[0, 0] == Fraction(1, 2)
    assert q[1, 1] == Fraction(-1, 3)
    assert q.shape == (2, 2)


def test_asarray_reduces_unsigned_arrays():
    """uint64 values above 2**63 are reduced before the int64 cast."""
    assert GF(7).asarray(np.array([2**64 - 1], dtype=np.uint64)).tolist() == [1]
    assert GF(65521).asarray(np.array([255, 3], dtype=np.uint8)).tolist() == [255, 3]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("data", [[[1, 2], []], [[1], [[2]]], [[1, 2], [3]]], ids=repr)
def test_asarray_rejects_ragged_input(field, data):
    with pytest.raises(FieldError, match="ragged nested input"):
        field.asarray(data)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_scalar_grammar(field):
    """A scalar string is [sign] digits, optionally "/" and digits: every
    integer or fraction form that ``int()`` and ``Fraction`` agree on is read,
    and nothing with a decimal point or an exponent is."""
    for text, value in [("3", 3), ("-3", -3), ("+3", 3), (" 7 ", 7), ("1_000", 1000),
                        ("6/2", 3), ("-10/5", -2), (" 4/2\n", 2), ("0/7", 0)]:
        assert field.parse(text) == field.scalar(value)
        assert field.parse(text) == field.scalar(Fraction(text))
    for text in ["1e999999999", "1e-999999999", "0.5", "1.", ".5", "1E3", "1/2.0", "3 /4",
                 "3/ 4", "1/-2", "1/+2", "1//2", "1/2/3", "", " ", "-", "/2", "2/", "x", "0x10",
                 "inf", "nan", "1__0", "_1"]:
        with pytest.raises(FieldError, match="not an exact scalar"):
            field.parse(text)
    with pytest.raises(FieldError, match="zero denominator"):
        field.parse("-3/0")
    with pytest.raises(FieldError, match="not an exact scalar"):
        field.parse("9" * 5000)  # int() reads at most 4300 digits


def test_rational_scalars_read_with_their_sign():
    assert QQ.parse("-2/6") == Fraction(-1, 3)
    assert QQ.parse("+1_0/4") == Fraction(5, 2)


def test_prime_field_takes_fractions_with_denominator_one():
    """F_p reads a fraction string exactly when ``scalar`` takes the equal
    ``Fraction``: "6/2" is 3, "1/2" is refused."""
    f5 = GF(5)
    assert f5.parse("6/2") == 3 == f5.scalar(Fraction(6, 2))
    assert f5.parse("-14/7") == 3
    for text in ("1/2", "5/10"):
        with pytest.raises(FieldError, match="cannot coerce"):
            f5.parse(text)


def test_fraction_rejected_mod_p():
    with pytest.raises(FieldError):
        GF(5).scalar(Fraction(1, 2))


# -- Field.asarray against a recursive reference ------------------------------------


def _reference_asarray(field, data):
    """``Field.asarray`` as a recursive walk: the nesting is turned into
    lists entry by entry, and over Q the shape is read off the first entries.
    A ragged nesting is a ``FieldError``, whichever step of numpy finds it."""

    def integer_array(node) -> bool:
        if not isinstance(node, np.ndarray) or node.dtype == object:
            return False
        if not np.issubdtype(node.dtype, np.integer):
            raise FieldError(f"non-integer array dtype {node.dtype} rejected")
        return True

    def intify(node):
        if integer_array(node):
            return node.astype(np.uint64) % field.p if node.dtype.kind == "u" else node
        if isinstance(node, (list, tuple, np.ndarray)):
            return [intify(x) for x in node]
        return int(field.scalar(node))

    def fractionify(node):
        integer_array(node)
        if isinstance(node, (list, tuple, np.ndarray)):
            return [fractionify(x) for x in node]
        return field.scalar(node)

    try:
        if field.kind == "Fp":
            return np.asarray(intify(data), dtype=np.int64) % field.p
        nested = fractionify(data)
        shape, node = [], nested
        while isinstance(node, list):
            shape.append(len(node))
            if not node:
                break
            node = node[0]
        arr = np.empty(tuple(shape), dtype=object)
        arr[...] = nested
    except ValueError:
        raise FieldError("ragged nested input") from None
    if not all(isinstance(x, Fraction) for x in arr.flat):
        raise FieldError("ragged nested input")
    return arr


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _leaf(draw):
    """An int (beyond int64 too), a numpy integer, a ``Fraction`` or a
    canonical string of one; now and then a value every field refuses."""
    value = draw(RATIONALS | st.integers(-(2**70), 2**70).map(Fraction))
    kind = draw(st.sampled_from(["int", "np", "fraction", "string", "string", "bad"]))
    if kind == "bad":
        return draw(st.sampled_from([0.5, True, None, "x", "1/0", {}]))
    if kind == "string":
        return str(value)
    if kind == "fraction" or value.denominator != 1:
        return value
    n = value.numerator
    return np.int64(n) if kind == "np" and -(2**63) <= n < 2**63 else n


@st.composite
def _array_shape(draw, walked, min_ndim=0):
    """An ndarray shape with up to three axes.  An empty one is (0,) if the
    reference walks the array (all arrays over Q, object arrays over F_p): it
    reads the shape off first entries, so it drops the axes of an empty array
    after the first (``test_asarray_keeps_empty_array_shapes``)."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=min_ndim, max_size=3)))
    return (0,) if walked and 0 in shape else shape


@st.composite
def _int_ndarray(draw, field, min_ndim=0):
    """An integer ndarray of any integer dtype over its full range (uint64
    above 2**63 included), zero-length axes included."""
    dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
    shape = draw(_array_shape(field.kind == "Q", min_ndim))
    info = np.iinfo(dtype)
    bounds = st.integers(int(info.min), int(info.max))
    values = draw(st.lists(bounds | st.sampled_from([int(info.min), int(info.max)]),
                           min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def _exact_input(draw, field):
    """Nested lists and tuples over a regular shape, integer ndarrays,
    object arrays, the same with ndarrays among the items, and ragged
    nestings."""
    form = draw(st.sampled_from(["nested", "nested", "int array", "object array", "arrays", "ragged"]))
    if form == "int array":
        return draw(_int_ndarray(field))
    if form == "ragged":
        return draw(st.recursive(_leaf(), lambda inner: st.lists(inner, max_size=3), max_leaves=10))
    shape = draw(_array_shape(walked=True))
    leaves = draw(st.lists(_leaf(), min_size=math.prod(shape), max_size=math.prod(shape)))
    arr = np.empty(len(leaves), dtype=object)
    arr[:] = leaves
    arr = arr.reshape(shape)
    if form == "object array":
        return arr
    if form == "arrays":
        # 0-d arrays among the items are refused as ragged (see CHANGES.md)
        items = [draw(_int_ndarray(field, min_ndim=1)) for _ in range(draw(st.integers(1, 4)))]
        return items if draw(st.booleans()) else [items[:2], items[2:]]

    def nest(node):
        if not isinstance(node, np.ndarray) or node.ndim == 0:
            return node[()] if isinstance(node, np.ndarray) else node
        items = [nest(x) for x in node]
        return tuple(items) if draw(st.booleans()) else items

    return nest(arr)


def _assert_same_asarray(field, data):
    """``field.asarray(data)`` against the reference; over Q a 0-d array,
    which the walk cannot iterate (a ``TypeError``), against its scalar."""
    reference_data = data[()] if isinstance(data, np.ndarray) and data.ndim == 0 else data
    try:
        expected = _reference_asarray(field, reference_data)
    except FieldError:
        with pytest.raises(FieldError):
            field.asarray(data)
        return
    out = field.asarray(data)
    assert (out.dtype, out.shape) == (expected.dtype, expected.shape)
    assert out.ravel().tolist() == expected.ravel().tolist()
    assert [type(x) for x in out.ravel().tolist()] == [type(x) for x in expected.ravel().tolist()]


@settings(max_examples=400, deadline=None)
@given(st.data())
@pytest.mark.parametrize("field", [QQ, GF(2), GF(65521)], ids=str)
def test_asarray_matches_recursive_reference(field, data):
    """The flat pass gives the values, dtype and shape of the recursive walk,
    and raises ``FieldError`` on the same inputs."""
    _assert_same_asarray(field, data.draw(_exact_input(field)))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_asarray_edge_cases_match_recursive_reference(field):
    """Empty shapes, 0-d input, uint64 above 2**63 and ragged nestings that
    numpy meets at different steps."""
    big = np.array([2**64 - 1, 2**63, 5], dtype=np.uint64)
    cases = [
        [], [[]], [[], []], ((), ()), np.zeros((0,), dtype=np.int64), np.empty((0,), dtype=object),
        5, "-3/6" if field.kind == "Q" else "6/3", Fraction(4), big, [big, big], [big, big[:2]],
        [[1, 2], 3], [[1], [2, 3]], [[[1]], [2]], [[], [1]], [[1, [2, 3]], [4, [5, 6]]],
        [np.zeros(2, dtype=np.int8), np.zeros(3, dtype=np.int8)],
        [np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)],
        np.array([[1, 2], [3]], dtype=object), [[1, 2], (3,)],
        [np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.int64)],
        [[np.ones(2, dtype=np.int64)], [np.ones((1, 2), dtype=np.int64)]],
    ]
    for data in cases:
        _assert_same_asarray(field, data)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_asarray_keeps_empty_array_shapes(field):
    """An empty array keeps every axis, and empty arrays of different shapes
    are ragged; the recursive walk over Q read both as ``[]``."""
    for shape in [(0, 3), (2, 0, 4), (0, 0)]:
        for data in (np.zeros(shape, dtype=np.int64), np.empty(shape, dtype=object)):
            assert field.asarray(data).shape == shape
    assert field.asarray([np.zeros((0, 2), dtype=np.int64)] * 3).shape == (3, 0, 2)
    with pytest.raises(FieldError, match="ragged"):
        field.asarray([np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64)])


def test_asarray_refuses_arrays_among_the_items():
    """An ndarray left in an entry is ragged, a 0-d one too."""
    for field in (QQ, GF(7)):
        with pytest.raises(FieldError, match="ragged"):
            field.asarray([np.array(5), np.array(6)])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_asarray_refuses_non_integer_array_dtypes_on_both_fields(field):
    """A non-object ndarray must have an integer dtype: numpy strings,
    floats and booleans are refused alike, before any entry is read."""
    for data in (
        np.array(["1/2", "3"]),
        np.array([["6"]]),
        np.array([0.5, 1.0]),
        np.array([[2.0]]),
        np.array([True, False]),
        np.zeros((0,), dtype=np.float64),
    ):
        with pytest.raises(FieldError, match=f"non-integer array dtype {data.dtype} rejected"):
            field.asarray(data)
    # the same entries in lists are read by ``scalar``
    assert field.asarray(["6", 3]).tolist() == [field.scalar(6), field.scalar(3)]


_MIXED = {
    "Q": [[["1/2", 3, Fraction(-2, 3)], ["1/2", "-4", "1/2"]], [[0, "-4", Fraction(5)], ["7/1", "1/2", -1]]],
    "F_7": [[["6/2", 3, Fraction(10)], ["6/2", "-4", "6/2"]], [[0, "-4", Fraction(-9)], ["8", "6/2", -1]]],
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_asarray_parses_each_distinct_string_once(field, monkeypatch):
    """One ``parse`` per distinct string of a call, results equal to the
    per-entry ``scalar``; a boolean never shares the slot of an equal int,
    and the first bad entry in row-major order names the error."""
    data = _MIXED["Q" if field.kind == "Q" else f"F_{field.p}"]
    flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(data)))
    reference = [field.scalar(x) for x in flat]
    calls = []
    parse = Field.parse

    def counting(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(Field, "parse", counting)
    got = field.asarray(data)
    assert sorted(calls) == sorted({x for x in flat if isinstance(x, str)})
    assert got.shape == (2, 2, 3) and got.ravel().tolist() == reference
    if field.kind == "Q":
        assert all(type(x) is Fraction for x in got.ravel())
    else:
        assert got.dtype == np.int64
    for bad in (["1", True], [1, True], [True, "1"]):
        with pytest.raises(FieldError, match="boolean"):
            field.asarray(bad)
    with pytest.raises(FieldError, match="floating point value"):
        field.asarray([1.5, "x"])
    with pytest.raises(FieldError, match="not an exact scalar"):
        field.asarray(["x", 1.5])


def test_floats_rejected_everywhere():
    with pytest.raises(FieldError):
        QQ.scalar(0.5)
    with pytest.raises(FieldError):
        GF(5).scalar(0.9)
    with pytest.raises(FieldError):
        GF(5).asarray(np.array([[0.5, 1.0]]))
    with pytest.raises(FieldError):
        QQ.asarray([[0.25]])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_booleans_rejected_everywhere(field):
    """``bool`` is an ``int`` subclass, but JSON ``true`` is no field element."""
    for value in (True, False, np.bool_(True)):
        with pytest.raises(FieldError, match="boolean"):
            field.scalar(value)
    for data in ([True, 0], [[1, 0], [0, False]], [[[0, np.True_]]]):
        with pytest.raises(FieldError, match="boolean"):
            field.asarray(data)
    assert field.asarray([[1, 0]]).tolist() == [[field.one, field.zero]]


def _element_calls(field):
    """Each public entry point that takes raw element coordinates, given one
    float coordinate, and the same call with exact coordinates."""
    a = kn_algebra(field, 2)
    flip = GammaFamily.flip(a, kn_algebra(field, 2))
    return {
        "multiply.x": lambda v: a.multiply([v, 0], [1, 0]),
        "multiply.y": lambda v: a.multiply([1, 0], [v, 0]),
        "left_mul_matrix": lambda v: a.left_mul_matrix([v, 0]).data,
        "chi_eval.a": lambda v: chi_eval(flip, [v, 0], [1, 0]),
        "chi_eval.b": lambda v: chi_eval(flip, [1, 0], [v, 0]),
        "KMatrix.apply": lambda v: KMatrix.identity(field, 2).apply([v, 0]),
        "MorphismData.apply": lambda v: make_morphism(a, a, a.field.identity(a.dim)).apply([v, 0]),
    }


@pytest.mark.parametrize("name", sorted(_element_calls(QQ)))
@pytest.mark.parametrize("field", [GF(7), QQ], ids=["F7", "Q"])
def test_float_elements_rejected(field, name):
    call = _element_calls(field)[name]
    with pytest.raises(FieldError):
        call(0.5)
    # exact coordinates are accepted, and reduced mod p
    assert field.equal(call(1), call(1 + (field.p or 0)))


def test_tensordot_is_exact_mod_p():
    f5 = GF(5)
    x = f5.asarray([[4, 4], [4, 4]])
    y = f5.asarray([[4, 4], [4, 4]])
    prod = f5.tensordot(x, y, axes=([1], [0]))
    assert prod.tolist() == [[2, 2], [2, 2]]  # 32 mod 5


#: Rationals with zero, negative, integral and large coprime-denominator values.
RATIONALS = st.builds(
    Fraction,
    st.sampled_from([0, 1, -1]) | st.integers(-(10**12), 10**12),
    st.sampled_from([1, 1, 1, 2, 3, 4, 9, 10**9 + 7, 998244353, 2**61 - 1]),
)


@st.composite
def rational_array(draw, shape):
    size = int(np.prod(shape))
    entries = draw(st.lists(RATIONALS, min_size=size, max_size=size))
    return np.array(entries, dtype=object).reshape(shape)


@st.composite
def contraction(draw):
    """Operands of random shape (zero-length axes and 0-d included) and their
    ``axes`` in one of the three forms: 0, an integer, or two lists."""
    form = draw(st.sampled_from(["outer", "int", "list"]))
    dims = st.lists(st.integers(0, 3), max_size=2)
    free_x, free_y = draw(dims), draw(dims)
    shared = [] if form == "outer" else draw(dims)
    if form == "list":
        x_order = draw(st.permutations(range(len(free_x) + len(shared))))
        y_order = draw(st.permutations(range(len(shared) + len(free_y))))
        x_shape = [(free_x + shared)[i] for i in x_order]
        y_shape = [(shared + free_y)[i] for i in y_order]
        pairs = draw(st.permutations(range(len(shared))))
        axes = (
            [x_order.index(len(free_x) + k) for k in pairs],
            [y_order.index(k) for k in pairs],
        )
    else:
        x_shape, y_shape, axes = free_x + shared, shared + free_y, len(shared)
    return draw(rational_array(tuple(x_shape))), draw(rational_array(tuple(y_shape))), axes


@settings(max_examples=300, deadline=None)
@given(contraction())
def test_rational_tensordot_matches_fraction_reference(case):
    x, y, axes = case
    expected = np.tensordot(x, y, axes=axes)  # Fraction multiply and add per term
    out = QQ.tensordot(x, y, axes)
    assert out.dtype == object and out.shape == expected.shape
    assert out.ravel().tolist() == expected.ravel().tolist()
    assert all(isinstance(v, Fraction) for v in out.flat)


def test_rational_tensordot_takes_integer_entries():
    """int64 arrays and boxed numpy integers contract as exact Python ints."""
    x = QQ.asarray([["1/2", 3], [-2, "5/7"]])
    ints = np.array([[2**40, -1], [0, 3]], dtype=np.int64)
    boxed = np.array(list(ints.ravel()), dtype=object).reshape(2, 2)  # np.int64 entries
    exact = ints.astype(object)  # Python-int entries
    cases = [(x, ints, x, exact), (ints, x, exact, x), (boxed, boxed, exact, exact)]
    for left, right, ref_left, ref_right in cases:
        out = QQ.tensordot(left, right, 1)
        expected = np.tensordot(ref_left, ref_right, 1)
        assert out.ravel().tolist() == expected.ravel().tolist()
        assert all(isinstance(v, Fraction) for v in out.flat)


def _operand(field, shape, rng):
    """Random canonical entries: residues over F_p, ``Fraction``s over Q."""
    if field.kind == "Fp":
        return rng.integers(0, field.p, size=shape, dtype=np.int64)
    nums, dens = rng.integers(-50, 50, size=shape), rng.choice([1, 2, 3, 10**9 + 7], size=shape)
    entries = [Fraction(int(a), int(b)) for a, b in zip(np.ravel(nums), np.ravel(dens))]
    return np.array(entries, dtype=object).reshape(shape)


def _check_tensordot(field, x, y, axes):
    """``field.tensordot`` (and over Q its cleared form) against
    ``np.tensordot`` on object arrays, one exact multiply and add per term;
    the operands are left as they were."""
    before = (x.copy(), y.copy())
    expected = np.tensordot(x.astype(object), y.astype(object), axes=axes)
    out = field.tensordot(x, y, axes)
    if field.kind == "Fp":
        expected = np.asarray(expected % field.p)
        assert out.dtype == np.int64
    else:
        assert out.dtype == object and all(isinstance(v, Fraction) for v in out.flat)
        cleared = field.tensordot(field.cleared(x), y, axes)
        assert isinstance(cleared, _Cleared) and cleared.shape == expected.shape
        assert _value(cleared) == _value(expected)
    assert out.shape == expected.shape
    assert out.ravel().tolist() == expected.ravel().tolist()
    for arr, old in zip((x, y), before):
        assert arr.dtype == old.dtype and arr.ravel().tolist() == old.ravel().tolist()


TENSORDOT_FIELDS = [GF(2), GF(3), GF(65521), QQ]

#: (x shape, y shape, axes): int axes, lists, tuples, negative indices, a bare
#: int per side and the outer product; zero-size extents, 0-d results, 1-D · 1-D.
TENSORDOT_CASES = [
    ((2, 3), (4,), 0),
    ((2, 3), (3, 4), 1),
    ((2, 3, 4), (3, 4, 2), 2),
    ((3, 2, 4), (4, 3), ([0, 2], [1, 0])),
    ((3, 2, 4), (4, 3), ((0, 2), (1, 0))),
    ((3, 2, 4), (4, 3), ([-3, -1], [-1, 0])),
    ((3, 4), (2, 4), (1, -1)),
    ((3, 4), (4, 2), (np.int64(1), [0])),
    ((2, 3), (4,), ([], [])),
    ((5,), (5,), 1),
    ((5,), (5,), ([0], [0])),
    ((2, 3), (2, 3), 2),
    ((0, 3), (3, 2), 1),
    ((2, 0), (0, 3), 1),
    ((2, 0, 3), (3, 0), ([2], [0])),
    ((), (3,), 0),
    ((), (), 0),
]


@pytest.mark.parametrize("x_shape, y_shape, axes", TENSORDOT_CASES, ids=repr)
@pytest.mark.parametrize("field", TENSORDOT_FIELDS, ids=str)
def test_tensordot_matches_numpy_reference(field, x_shape, y_shape, axes):
    rng = np.random.default_rng(len(x_shape) + 7 * len(y_shape))
    _check_tensordot(field, _operand(field, x_shape, rng), _operand(field, y_shape, rng), axes)


def test_tensordot_is_exact_mod_the_largest_prime_over_long_sums():
    """All entries p - 1 at p = 65521 over summed lengths up to 4096."""
    p = 65521
    for summed in (1024, 4096):
        x = np.full((3, summed), p - 1, dtype=np.int64)
        y = np.full((summed, 2), p - 1, dtype=np.int64)
        _check_tensordot(GF(p), x, y, 1)
        _check_tensordot(GF(p), x.reshape(3, 4, summed // 4), y.reshape(4, summed // 4, 2), ([-2, 2], [0, 1]))


def test_tensordot_rejects_mismatched_axes():
    x, y = np.zeros((2, 3), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)
    for axes in (([0], [0]), ([1], []), 3):
        with pytest.raises(ValueError):
            GF(5).tensordot(x, y, axes)


@st.composite
def tensordot_case(draw):
    """A field, operands of random shape (zero-length axes and 0-d included)
    and their ``axes``: an int, two lists, two tuples or a bare int per side,
    each index possibly negative."""
    field = draw(st.sampled_from(TENSORDOT_FIELDS))
    form = draw(st.sampled_from(["int", "list", "tuple", "bare"]))
    dims = st.lists(st.integers(0, 3), max_size=2)
    free_x, free_y = draw(dims), draw(dims)
    shared = [draw(st.integers(0, 3))] if form == "bare" else draw(dims)
    if form == "int":
        x_shape, y_shape, axes = free_x + shared, shared + free_y, len(shared)
    else:
        x_order = draw(st.permutations(range(len(free_x) + len(shared))))
        y_order = draw(st.permutations(range(len(shared) + len(free_y))))
        x_shape = [(free_x + shared)[i] for i in x_order]
        y_shape = [(shared + free_y)[i] for i in y_order]
        pairs = draw(st.permutations(range(len(shared))))
        ax = [x_order.index(len(free_x) + k) - draw(st.sampled_from([0, len(x_shape)])) for k in pairs]
        ay = [y_order.index(k) - draw(st.sampled_from([0, len(y_shape)])) for k in pairs]
        axes = (ax[0], ay[0]) if form == "bare" else (ax, ay) if form == "list" else (tuple(ax), tuple(ay))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return field, _operand(field, tuple(x_shape), rng), _operand(field, tuple(y_shape), rng), axes


@settings(max_examples=300, deadline=None)
@given(tensordot_case())
def test_tensordot_matches_numpy_reference_on_random_shapes_and_axes(case):
    _check_tensordot(*case)


def test_every_planned_contraction_goes_through_tensordot(monkeypatch):
    """The traced benchmark hooks ``Field.tensordot``: every contraction of a
    route check and of a one-sided batch ``einsum`` reaches it, each plan
    lookup from inside it.  The plan caches are bounded."""
    calls = {"tensordot": 0, "contract": 0, "plan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    plan = fields._tensordot_plan
    monkeypatch.setattr(Field, "tensordot", counted("tensordot", Field.tensordot))
    monkeypatch.setattr(Field, "_contract", counted("contract", Field._contract))
    monkeypatch.setattr(fields, "_tensordot_plan", counted("plan", plan))
    f3 = GF(3)
    assert direct_ok(GammaFamily.flip(kn_algebra(f3, 2), kn_algebra(f3, 3)))
    routed = calls["tensordot"]
    stack = np.arange(5 * 2 * 3 * 4).reshape(5, 2, 3, 4) % 3
    f3.einsum("...ijk,kl->...ilj", stack, np.ones((4, 2), dtype=np.int64))
    assert 0 < routed < calls["tensordot"]
    assert calls["tensordot"] == calls["contract"] == calls["plan"]
    assert plan.cache_info().maxsize is not None
    assert fields._dot_plan.cache_info().maxsize is not None


def _einsum_reference(spec, x, y):
    """Plain-loop ``np.einsum(spec, x, y)`` without ellipsis: one multiply and
    add per term, in whatever scalar type the operands hold."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    sizes = dict(zip(xs, x.shape)) | dict(zip(ys, y.shape))
    summed = sorted(set(xs + ys) - set(out))
    result = np.empty(tuple(sizes[c] for c in out), dtype=object)
    for idx in np.ndindex(*result.shape):
        at = dict(zip(out, idx))
        total = 0
        for inner in itertools.product(*(range(sizes[c]) for c in summed)):
            at.update(zip(summed, inner))
            total += x[tuple(at[c] for c in xs)] * y[tuple(at[c] for c in ys)]
        result[idx] = total
    return result


@st.composite
def einsum_case(draw):
    """A two-operand spec, its explicit form and Fraction operands.

    Each letter is free in x, free in y, summed, or shared and kept (paired
    up slice by slice); letters appear in random order, extents are 0-3.  A
    batch of 0-2 axes, written ``...``, leads x, y or both, so specs without
    ellipsis are drawn too.  The explicit form spells the batch as
    upper-case letters."""
    letters = draw(st.lists(st.sampled_from("abcdefg"), unique=True, max_size=5))
    roles = {c: draw(st.sampled_from(["x", "y", "sum", "keep"])) for c in letters}
    sizes = {c: draw(st.integers(0, 3)) for c in letters}
    batch = draw(st.lists(st.integers(0, 2), max_size=2))
    upper = "ABC"[: len(batch)]
    sizes.update(zip(upper, batch))
    x_has, y_has = draw(st.booleans()), draw(st.booleans())
    x_lets = draw(st.permutations([c for c in letters if roles[c] in ("x", "sum", "keep")]))
    y_lets = draw(st.permutations([c for c in letters if roles[c] in ("y", "sum", "keep")]))
    o_lets = draw(st.permutations([c for c in letters if roles[c] in ("x", "y", "keep")]))

    def side(has, lets):
        return ("..." if has else "") + "".join(lets), (upper if has else "") + "".join(lets)

    (xe, xx), (ye, yx) = side(x_has, x_lets), side(y_has, y_lets)
    oe, ox = side(x_has or y_has, o_lets)
    x = draw(rational_array(tuple(sizes[c] for c in xx)))
    y = draw(rational_array(tuple(sizes[c] for c in yx)))
    return f"{xe},{ye}->{oe}", f"{xx},{yx}->{ox}", x, y


@settings(max_examples=300, deadline=None)
@given(einsum_case())
def test_rational_einsum_matches_fraction_reference(case):
    spec, explicit, x, y = case
    expected = _einsum_reference(explicit, x, y)  # Fraction multiply and add per term
    out = QQ.einsum(spec, x, y)
    assert out.dtype == object and out.shape == expected.shape
    assert out.ravel().tolist() == expected.ravel().tolist()
    assert all(isinstance(v, Fraction) for v in out.flat)


#: The longest sums the route kernels take at n = d = 4 (16 terms each), with a
#: batch on both operands (einsum's own loop) and without one (a dot).
LONGEST_SUMS = [
    ("...xys,...szw->...xyzw", (2, 1, 2, 16), (2, 16, 1, 2), "loop"),  # oracle.assoc, n*d
    ("...xys,...szw->...xyzw", (8, 8, 16), (16, 8, 8), "dot"),
    ("...arswz,...bstw->...abrtz", (2, 1, 1, 4, 4, 2), (2, 1, 4, 1, 4), "loop"),  # A-valued products
    ("...arswz,...bstw->...abrtz", (4, 4, 4, 4, 4), (4, 4, 4, 4), "dot"),
    ("...arspe,...bstec->...abrtpc", (2, 1, 1, 4, 2, 4), (2, 1, 4, 1, 4, 2), "loop"),  # compositions
    ("...arspe,...bstec->...abrtpc", (4, 4, 4, 4, 4), (4, 4, 4, 4, 4), "dot"),
    ("klm,...jlrikc->...ijmrc", (4, 4, 2), (3, 1, 4, 1, 1, 4, 1), "dot"),  # rule compositions, n^2
    ("klm,...jlrikc->...ijmrc", (4, 4, 4), (4, 4, 4, 4, 4, 4), "dot"),
]


@pytest.mark.parametrize("spec, x_shape, y_shape, path", LONGEST_SUMS)
def test_einsum_is_exact_mod_the_largest_prime(spec, x_shape, y_shape, path):
    """All entries p - 1 at p = 65521, against Python ints."""
    p = 65521
    assert (_dot_plan(spec, len(x_shape), len(y_shape)) is None) == (path == "loop")
    x, y = np.full(x_shape, p - 1, dtype=np.int64), np.full(y_shape, p - 1, dtype=np.int64)
    expected = np.einsum(spec, x.astype(object), y.astype(object)) % p  # Python-int terms
    out = GF(p).einsum(spec, x, y)
    assert out.dtype == np.int64
    assert out.tolist() == expected.tolist()


@pytest.mark.parametrize("spec, x_shape, y_shape, path", LONGEST_SUMS)
def test_rational_einsum_on_both_paths_matches_fraction_loop(spec, x_shape, y_shape, path):
    rng = np.random.default_rng(3)

    def rationals(shape):
        nums, dens = rng.integers(-50, 50, size=shape), rng.choice([1, 2, 3, 10**9 + 7], size=shape)
        entries = [Fraction(int(a), int(b)) for a, b in zip(nums.flat, dens.flat)]
        return np.array(entries, dtype=object).reshape(shape)

    x, y = rationals(x_shape), rationals(y_shape)
    expected = np.einsum(spec, x, y)  # Fraction multiply and add per term
    out = QQ.einsum(spec, x, y)
    assert out.ravel().tolist() == expected.ravel().tolist()
    assert all(isinstance(v, Fraction) for v in out.flat)


def test_dot_plan_takes_one_sided_batches_and_leaves_the_rest_to_einsum():
    assert _dot_plan("...ab,...bc->...ac", 3, 3) is None  # a batch on both operands
    assert _dot_plan("ab,bc->abc", 2, 2) is None  # a kept shared letter
    assert _dot_plan("ab,bc->a", 2, 2) is None  # a letter summed in one operand
    assert _dot_plan("aab,bc->ac", 3, 2) is None  # a diagonal
    assert _dot_plan("...ab,...bc->...ac", 2, 2) == (([1], [0]), [0, 1])  # empty batches
    assert _dot_plan("...ab,cb->...ca", 4, 2) == (([3], [1]), [0, 1, 3, 2])  # batch axes lead
    assert _dot_plan("ab,...cb->...ca", 2, 3) == (([1], [2]), [1, 2, 0])
    assert _dot_plan("i,p->ip", 1, 1) == (([], []), [0, 1])  # an outer product


def test_equal_and_is_zero():
    f2 = GF(2)
    assert f2.equal(f2.asarray([2, 3]), f2.asarray([0, 1]))
    assert f2.is_zero(f2.asarray([2, 4]))
    assert not QQ.is_zero(QQ.asarray([0, "1/3"]))


def _differ(field, u, v) -> bool:
    """Per-entry reference: cross-multiplied over Q, the difference mod p over F_p."""
    if field.kind == "Q":
        return u.numerator * v.denominator != v.numerator * u.denominator
    return (int(u) - int(v)) % field.p != 0


@st.composite
def comparison_case(draw):
    """Two exact arrays with entries from one small pool, so that entries often
    agree: over F_p ``int64`` residues 0, 1, p - 1 shifted by k * p for small
    and large k (values >= p and negative values, equal residues in distinct
    entries), over Q the ``RATIONALS``.  The right side has the left side's
    shape or a shape that broadcasts against it."""
    field = draw(st.sampled_from([GF(2), GF(7), GF(65521), QQ]))
    if field.kind == "Q":
        values = RATIONALS
    else:
        residues = sorted({0, 1, field.p - 1})
        shifts = st.integers(-2, 2) | st.integers(-(2**40), 2**40)
        values = st.builds(lambda r, k: r + k * field.p, st.sampled_from(residues), shifts)
    pool = draw(st.lists(values, min_size=1, max_size=3))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    y_shape = shape
    if draw(st.booleans()):  # leading axes dropped, some kept axes of length 1
        y_shape = tuple(draw(st.sampled_from([1, k])) for k in shape[draw(st.integers(0, len(shape))):])

    def array(shape):
        size = int(np.prod(shape))
        entries = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        return np.array(entries, dtype=object if field.kind == "Q" else np.int64).reshape(shape)

    return field, array(shape), array(y_shape)


@settings(max_examples=400, deadline=None)
@given(comparison_case())
def test_mismatch_equal_and_is_zero_match_per_entry_reference(case):
    field, x, y = case
    xb, yb = np.broadcast_arrays(x, y)
    pairs = zip(xb.ravel().tolist(), yb.ravel().tolist())
    expected = np.array([_differ(field, u, v) for u, v in pairs], dtype=bool).reshape(xb.shape)
    out = field.mismatch(x, y)
    assert out.dtype == bool and out.shape == expected.shape
    assert out.tolist() == expected.tolist()
    assert field.equal(x, y) is field.equal(y, x) is (x.shape == y.shape and not expected.any())
    assert field.is_zero(x) is not any(_differ(field, u, field.zero) for u in x.ravel().tolist())
    # against the scalar zero, and, over F_p, against the same residues written
    # identically (no raw entry differs) and shifted by p (raw entries differ)
    zero = np.array([_differ(field, u, field.zero) for u in x.ravel().tolist()], dtype=bool).reshape(x.shape)
    same = [(field.zero, zero)] + ([(x.copy(), False), (x + field.p, False)] if field.kind == "Fp" else [])
    for other, want in same:
        for out in (field.mismatch(x, other), field.mismatch(other, x)):
            assert out.dtype == bool and out.shape == x.shape
            assert out.tolist() == np.broadcast_to(want, x.shape).tolist()
    # the same verdicts with either side, or both, in the cleared form of a check
    for cx, cy in ((field.cleared(x), y), (x, field.cleared(y)), (field.cleared(x), field.cleared(y))):
        assert field.mismatch(cx, cy).tolist() == expected.tolist()
        assert field.equal(cx, cy) is (x.shape == y.shape and not expected.any())
    assert field.is_zero(field.cleared(x)) is field.is_zero(x)


def _l1(arr) -> int:
    """Sum of |numerator| of ``arr`` over the lcm of its denominators."""
    fractions = [Fraction(v) for v in np.asarray(arr).ravel().tolist()]
    den = math.lcm(*(v.denominator for v in fractions))
    return sum(abs(v.numerator) * (den // v.denominator) for v in fractions)


def _check_numerators(c, bound: int, small: bool) -> None:
    """``c`` is cleared with bound ``bound``, which holds, and exact numerators:
    ``int64`` when ``small``, Python ints otherwise."""
    assert isinstance(c, _Cleared) and c.bound == bound
    assert sum(abs(v) for v in np.ravel(c.num).tolist()) <= bound
    if small:
        assert c.num.dtype == np.int64
    else:
        assert c.num.dtype == object and all(type(v) is int for v in c.num.flat)


def _value(arr):
    """Entries of an exact array as Fractions (a cleared array's ``num / den``)."""
    if isinstance(arr, _Cleared):
        return [Fraction(v, arr.den) for v in np.asarray(arr.num).ravel().tolist()]
    return [Fraction(v) for v in np.asarray(arr).ravel().tolist()]


@settings(max_examples=200, deadline=None)
@given(einsum_case(), st.sampled_from(["x", "y", "both"]))
def test_cleared_einsum_stays_cleared_and_matches_fraction_path(case, which):
    """A contraction with a cleared operand returns the cleared product, whose
    value is the ``Fraction`` product, with the product of the operands' L1
    bounds as its bound and ``int64`` numerators exactly when that bound and
    both operand bounds are below 2**63; views keep the denominator."""
    spec, _, x, y = case
    cx = QQ.cleared(x) if which in ("x", "both") else x
    cy = QQ.cleared(y) if which in ("y", "both") else y
    expected = QQ.einsum(spec, x, y)
    out = QQ.einsum(spec, cx, cy)
    assert isinstance(out, _Cleared) and out.den > 0
    assert out.shape == expected.shape and out.ndim == expected.ndim
    bx, by = _l1(x), _l1(y)
    _check_numerators(out, bx * by, max(bx, by, bx * by) < 2**63)
    assert _value(out) == _value(expected)
    assert _value(out.reshape(-1)) == _value(expected.reshape(-1))
    if out.ndim and out.shape[0]:
        assert _value(out[0]) == _value(expected[0])
        order = tuple(reversed(range(out.ndim)))
        assert _value(out.transpose(*order)) == _value(expected.transpose(*order))


def test_cleared_is_the_identity_over_fp_and_formats_one_fraction_over_q():
    f7 = GF(7)
    x = f7.asarray([[1, 2], [3, 4]])
    assert f7.cleared(x) is x and f7.numerators(x) is x
    q = QQ.asarray([["1/2", "-2/3"], [0, 5]])
    c = QQ.cleared(q)
    assert c.den == 6 and c.num.tolist() == [[3, -4], [0, 30]]
    assert c.bound == 37 and c.num.dtype == np.int64
    # the numerators leave as Python ints, whatever the cleared dtype
    nums = QQ.numerators(c)
    assert nums.dtype == object and nums.tolist() == c.num.tolist()
    assert all(type(v) is int for v in nums.flat) and QQ.numerators(q) is q
    assert [QQ.format(c[i, j]) for i in range(2) for j in range(2)] == ["1/2", "-2/3", "0", "5"]
    assert QQ.cleared(c).num is c.num  # clearing a cleared array does no work


# -- the int64 guard on cleared numerators ------------------------------------
#
# Every case below is compared with the ``Fraction`` path, then its dtype is
# checked: ``int64`` exactly when the proven bound allows it.

#: Numerator scales of the two operands: L1 bounds below 2**63 and products
#: below it (2**20 x 2**31), and products at or above it (the rest).
GUARD_SCALES = [(2**20, 2**31), (2**31, 2**31), (2**31, 2**40), (2**40, 2**40)]


@pytest.mark.parametrize("which", ["x", "y", "both", "neither"])
@pytest.mark.parametrize("sx, sy", GUARD_SCALES)
def test_contraction_near_2_31_and_2_40_falls_back_to_python_ints(sx, sy, which):
    x = QQ.asarray([[sx + 1, Fraction(-sx, 3)], [sx - 1, sx]])
    y = QQ.asarray([[sy, -sy - 1], [Fraction(sy, 7), sy + 3]])
    expected = _einsum_reference("ij,jk->ik", x, y)  # one Fraction multiply and add per term
    cx = QQ.cleared(x) if which in ("x", "both") else x
    cy = QQ.cleared(y) if which in ("y", "both") else y
    out = QQ.einsum("ij,jk->ik", cx, cy)
    assert _value(out) == _value(expected)
    if which == "neither":
        assert _fractions(out)
    else:
        bx, by = _l1(x), _l1(y)
        _check_numerators(out, bx * by, bx * by < 2**63)


def test_zero_operand_next_to_a_huge_one_stays_exact():
    """A zero operand has bound 0, so the product's bound is 0 even when the
    other operand's numerators do not fit ``int64``."""
    huge = QQ.asarray([[2**70, Fraction(-(2**64), 5)], [3, 2**63]])
    zero = QQ.zeros((2, 2))
    assert QQ.cleared(zero).bound == 0 and QQ.cleared(huge).num.dtype == object
    for x, y in ((zero, huge), (huge, zero)):
        for cx, cy in ((QQ.cleared(x), y), (x, QQ.cleared(y)), (QQ.cleared(x), QQ.cleared(y))):
            for out in (QQ.tensordot(cx, cy, 1), cx * cy):
                _check_numerators(out, 0, False)
                assert _value(out) == [0] * 4
            assert QQ.mismatch(cx, cy).tolist() == QQ.mismatch(x, y).tolist() == [[True, True], [True, True]]
    # a zero side scaled by a denominator above 2**63 in the comparison
    tiny = QQ.asarray([[Fraction(1, 2**70), 0], [0, 0]])
    assert QQ.mismatch(QQ.cleared(zero), tiny).tolist() == [[True, False], [False, False]]
    assert QQ.mismatch(tiny, QQ.cleared(zero)).tolist() == [[True, False], [False, False]]


def test_mismatch_whose_cross_multiplication_alone_crosses_2_63():
    """Both sides fit ``int64`` and so do their bounds, but (2**39 + 1) * 2**25
    = 2**64 + 2**25 would wrap to 2**25 and make the first entries equal."""
    x = QQ.asarray([2**39 + 1, 0])  # over 1
    y = QQ.asarray([1, Fraction(1, 2**25)])  # over 2**25
    cx, cy = QQ.cleared(x), QQ.cleared(y)
    assert cx.num.dtype == cy.num.dtype == np.int64 and cx.bound * cy.den >= 2**63
    for a, b in ((cx, cy), (cx, y), (x, cy)):
        assert QQ.mismatch(a, b).tolist() == QQ.mismatch(b, a).tolist() == [True, True]
    # equal values over different denominators
    z = QQ.asarray([2**39 + 1, Fraction(1, 2**25)])
    for a in (x, cx):
        assert QQ.mismatch(a, QQ.cleared(z)).tolist() == [False, True]
        assert QQ.mismatch(QQ.cleared(z), a).tolist() == [False, True]


@pytest.mark.parametrize("scale", [1, 2**20, 2**31])
def test_einsum_on_numpys_loop_with_a_batch_on_both_operands(scale):
    """The ``oracle.assoc`` contraction: a batch on both operands runs
    einsum's own loop, whose partial sums the bound covers too."""
    spec = "...xys,...szw->...xyzw"
    assert _dot_plan(spec, 4, 4) is None
    rng = np.random.default_rng(scale)

    def operand():
        nums, dens = rng.integers(-9, 9, 16), rng.choice([1, 2, 3], 16)
        entries = [Fraction(int(a) * scale + 1, int(b)) for a, b in zip(nums, dens)]
        return np.array(entries, dtype=object).reshape(2, 2, 2, 2)

    x, y = operand(), operand()
    expected = np.stack([_einsum_reference("xys,szw->xyzw", x[b], y[b]) for b in range(2)])
    out = QQ.einsum(spec, QQ.cleared(x), QQ.cleared(y))
    bx, by = _l1(x), _l1(y)
    _check_numerators(out, bx * by, max(bx, by, bx * by) < 2**63)
    assert _value(out) == _value(expected)
    assert QQ.equal(out, expected) and QQ.equal(expected, out)


@pytest.mark.parametrize("scale", [1, 2**31])
def test_broadcast_product_of_a_cleared_and_a_fraction_array_both_ways(scale):
    """``ndarray * cleared`` defers to the cleared side, so both orders give
    the cleared broadcast product (as in the unit sides of ``direct.3``)."""
    unit = QQ.asarray([Fraction(scale, 3), -1, Fraction(1, 2)])
    diagonal = QQ.asarray([[scale * scale, 0], [0, Fraction(-scale, 5)]])
    expected = diagonal[:, :, None] * unit[None, None, :]
    c = QQ.cleared(unit)
    for out in (diagonal[:, :, None] * c[None, None, :], c[None, None, :] * diagonal[:, :, None]):
        bx, by = _l1(diagonal), _l1(unit)
        _check_numerators(out, bx * by, max(bx, by, bx * by) < 2**63)
        assert out.shape == expected.shape and _value(out) == _value(expected)


#: Entries of cleared sums: small ones, and numerators and denominators near
#: 2**31 and 2**62, so that the scaled bounds land on both sides of 2**63.
SUM_ENTRIES = st.builds(
    Fraction,
    st.integers(-9, 9) | st.sampled_from([2**31, 2**62, -(2**62)]).flatmap(lambda s: st.integers(s - 3, s + 3)),
    st.sampled_from([1, 1, 2, 3, 2**31 - 1, 2**33]),
)


@st.composite
def cleared_operands(draw):
    """Two ``Fraction`` arrays of mutually broadcastable shapes."""
    shapes = draw(mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3)).input_shapes
    return [
        np.array(draw(st.lists(SUM_ENTRIES, min_size=math.prod(s), max_size=math.prod(s))), dtype=object).reshape(s)
        for s in shapes
    ]


def _true_l1(c) -> int:
    return sum(abs(v) for v in np.ravel(c.num).tolist())


def _check_dtype(c) -> None:
    """The bound holds, and the numerators are ``int64`` exactly when it is
    below 2**63 (the scales of a sum are checked by the caller)."""
    assert _true_l1(c) <= c.bound
    assert (c.num.dtype == np.int64) is (c.bound < 2**63)
    assert c.num.dtype == np.int64 or all(type(v) is int for v in c.num.flat)


@settings(max_examples=300, deadline=None)
@given(cleared_operands())
def test_cleared_sums_differences_negation_and_axis_sums_match_fractions(operands):
    """``+`` and ``-`` of two cleared arrays, broadcast, take the lcm of the
    denominators and the bound sx * bx * (N / Nx) + sy * by * (N / Ny); ``-x``
    and ``sum(axis)`` keep the bound.  Each value equals the ``Fraction``
    arithmetic and each dtype is ``int64`` exactly when the bound (and, for a
    sum, both scales) allow it."""
    x, y = operands
    cx, cy = QQ.cleared(x), QQ.cleared(y)
    size = math.prod(np.broadcast_shapes(x.shape, y.shape))
    den = math.lcm(cx.den, cy.den)
    scales = [den // cx.den, den // cy.den]
    bound = sum(s * c.bound * (size // max(c.num.size, 1)) for s, c in zip(scales, (cx, cy)))
    for out, expected in ((cx + cy, x + y), (cx - cy, x - y)):
        assert out.shape == np.shape(expected) and out.den == den and out.bound == bound
        assert _value(out) == _value(expected)
        assert _true_l1(out) <= bound
        assert (out.num.dtype == np.int64) is (max(bound, *scales) < 2**63)
    for c, a in ((cx, x), (cy, y)):
        neg = -c
        assert (neg.den, neg.bound, neg.num.dtype) == (c.den, c.bound, c.num.dtype)
        assert _value(neg) == _value(-a)
        _check_dtype(neg)
        for axis in range(a.ndim):
            total = c.sum(axis=axis)
            assert (total.den, total.bound, total.num.dtype) == (c.den, c.bound, c.num.dtype)
            expected = np.sum(a, axis=axis, initial=Fraction(0))
            assert total.shape == np.shape(expected) and _value(total) == _value(expected)
            _check_dtype(total)


def test_cleared_sums_take_cleared_operands_only():
    c = QQ.cleared(QQ.asarray([1, "1/2"]))
    for other in (QQ.asarray([1, 2]), 1):
        with pytest.raises(TypeError):
            c + other
        with pytest.raises(TypeError):
            other - c


def test_cleared_indexing_gives_arrays_and_counts_repeated_picks():
    """An integer index gives one entry of the numerators' dtype (a 0-d
    array for Python ints) and a slice keeps the bound; an integer-array index
    that picks one entry k times multiplies the bound by k, so it still holds."""
    for entries in ([1, "-1/2", 3], [2**70, "-1/2", 3]):
        c = QQ.cleared(QQ.asarray(entries))
        scalar = c[1]
        assert scalar.num.dtype == c.num.dtype and scalar.shape == ()
        assert QQ.format(scalar) == "-1/2" and QQ.format(-scalar) == "1/2"
        _check_dtype(scalar * scalar)  # numpy gives the 0-d product as a scalar
        picked = c[np.array([0, 0, 2, 0])]
        assert picked.bound == 3 * c.bound and _value(picked) == _value(QQ.asarray(entries)[[0, 0, 2, 0]])
        assert _true_l1(picked) <= picked.bound
        assert c[1:].bound == c[[1, 2]].bound == c.bound and c[np.array([], dtype=int)].bound == 0


def _fractions(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype == object and all(type(v) is Fraction for v in arr.flat)


def _format_nested(field, arr):
    """Reference: one ``Field.format`` call per scalar, one list per sub-array."""
    if isinstance(arr, np.ndarray) and arr.ndim > 0:
        return [_format_nested(field, sub) for sub in arr]
    return field.format(arr[()] if isinstance(arr, np.ndarray) else arr)


def test_format_array_nested():
    assert QQ.format_array(QQ.asarray([[1, "1/2"]])) == [["1", "1/2"]]
    rng = np.random.default_rng(5)
    nums, dens = rng.integers(-9, 10, size=(3, 4, 2)), rng.integers(1, 5, size=(3, 4, 2))
    arrays = [
        (QQ, np.array([Fraction(int(a), int(b)) for a, b in zip(nums.flat, dens.flat)], dtype=object).reshape(3, 4, 2)),
        (QQ, np.array([[1, Fraction(4, 2)], [-3, 0]], dtype=object)),
        (GF(5), rng.integers(-20, 20, size=(2, 3, 2, 2))),
        (GF(5), np.int64(7) * np.ones((), dtype=np.int64)),
        (QQ, np.empty((2, 0, 3), dtype=object)),
    ]
    for field, arr in arrays:
        assert field.format_array(arr) == _format_nested(field, arr)
