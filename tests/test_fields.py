from fractions import Fraction

import numpy as np
import pytest

from twistkit import Field, FieldError, GF, QQ


def test_rational_scalars_canonical():
    assert QQ.parse("3/7") == Fraction(3, 7)
    assert QQ.format(Fraction(6, -4)) == "-3/2"
    assert QQ.format(Fraction(12, 4)) == "3"
    assert QQ.scalar(5) == Fraction(5)


def test_prime_field_scalars():
    f7 = GF(7)
    assert f7.parse("-3") == 4
    assert f7.format(12) == "5"
    assert f7.inv(3) == 5
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
    with pytest.raises((FieldError, ValueError)):
        field.asarray(data)


def test_fraction_rejected_mod_p():
    with pytest.raises(FieldError):
        GF(5).scalar(Fraction(1, 2))


def test_floats_rejected_everywhere():
    with pytest.raises(FieldError):
        QQ.scalar(0.5)
    with pytest.raises(FieldError):
        GF(5).scalar(0.9)
    with pytest.raises(FieldError):
        GF(5).asarray(np.array([[0.5, 1.0]]))
    with pytest.raises(FieldError):
        QQ.asarray([[0.25]])


def test_tensordot_is_exact_mod_p():
    f5 = GF(5)
    x = f5.asarray([[4, 4], [4, 4]])
    y = f5.asarray([[4, 4], [4, 4]])
    prod = f5.tensordot(x, y, axes=([1], [0]))
    assert prod.tolist() == [[2, 2], [2, 2]]  # 32 mod 5


def test_equal_and_is_zero():
    f2 = GF(2)
    assert f2.equal(f2.asarray([2, 3]), f2.asarray([0, 1]))
    assert f2.is_zero(f2.asarray([2, 4]))
    assert not QQ.is_zero(QQ.asarray([0, "1/3"]))


def test_format_array_nested():
    assert QQ.format_array(QQ.asarray([[1, "1/2"]])) == [["1", "1/2"]]
