"""Exact base-field arithmetic on numpy arrays.

Two kinds of field are supported: the rationals (elements are
``fractions.Fraction`` stored in object arrays) and prime fields F_p with
p < 2**16 (elements are canonical residues in ``int64`` arrays).  All array
operations are exact; there is no floating point anywhere in the package.

The Q arrays this module builds hold ``Fraction`` entries only, integral or
not.  Contractions over Q (``Field.tensordot`` and ``matmul``, which every
structure-constant product in the package goes through) clear denominators:
each operand becomes Python-int numerators over one common denominator, the
numerators are contracted, and the results are put back over the product of
the two denominators as ``Fraction`` entries.  A term then costs one integer
multiply and add, not a ``Fraction`` multiply and add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FieldError

_PRIME_CAP = 1 << 16


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    q = 3
    while q * q <= p:
        if p % q == 0:
            return False
        q += 2
    return True


@dataclass(frozen=True)
class Field:
    """Base field: ``Field("Q")`` for the rationals, ``Field("Fp", p)`` for F_p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise FieldError("rational field takes no modulus")
        elif self.kind == "Fp":
            # the cap comes first: trial division of a huge modulus runs for hours
            if self.p is not None and self.p >= _PRIME_CAP:
                raise FieldError(f"modulus {self.p} exceeds the 2**16 cap")
            if self.p is None or not _is_prime(self.p):
                raise FieldError(f"modulus {self.p!r} is not prime")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    # -- scalars ------------------------------------------------------------

    def scalar(self, value) -> Fraction | int:
        """Coerce an int, Fraction or canonical string to a field element.

        Floats are rejected: every value in the package is exact.
        """
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, (float, np.floating)):
            raise FieldError(f"floating point value {value!r} rejected")
        if self.kind == "Q":
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, np.integer)):
                return Fraction(int(value))
            raise FieldError(f"cannot coerce {value!r} into Q")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise FieldError(f"cannot coerce {value} into F_{self.p}")
            value = value.numerator
        if not isinstance(value, (int, np.integer)):
            raise FieldError(f"cannot coerce {value!r} into F_{self.p}")
        return int(value) % self.p

    def parse(self, text: str) -> Fraction | int:
        if self.kind == "Q":
            return Fraction(text)
        return int(text) % self.p

    def format(self, x) -> str:
        """Canonical string form: "3", "-2/5" over Q; residue "5" over F_p."""
        if self.kind == "Q":
            return str(Fraction(x))
        return str(int(x) % self.p)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def inv(self, x):
        if self.kind == "Q":
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / x
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    # -- arrays -------------------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        """Exact array from nested ints / Fractions / canonical strings."""
        if self.kind == "Fp":
            arr = np.asarray(self._intify(data), dtype=np.int64)
            return arr % self.p
        nested = self._fractionify(data)
        arr = np.empty(_shape_of(nested), dtype=object)
        arr[...] = nested
        # ragged input leaves lists in (or broadcasts them over) the entries
        if not all(isinstance(x, Fraction) for x in arr.flat):
            raise FieldError("ragged nested input")
        return arr

    def _intify(self, data):
        if isinstance(data, np.ndarray) and data.dtype != object:
            if not np.issubdtype(data.dtype, np.integer):
                raise FieldError(f"non-integer array dtype {data.dtype} rejected")
            # unsigned values above 2**63 would wrap in the int64 cast: reduce first
            return data.astype(np.uint64) % self.p if data.dtype.kind == "u" else data
        if isinstance(data, (list, tuple, np.ndarray)):
            return [self._intify(x) for x in data]
        return int(self.scalar(data))

    def _fractionify(self, data):
        if isinstance(data, (list, tuple, np.ndarray)):
            return [self._fractionify(x) for x in data]
        return self.scalar(data)

    def zeros(self, shape) -> np.ndarray:
        if self.kind == "Fp":
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, Fraction(0), dtype=object)

    def identity(self, n: int) -> np.ndarray:
        out = self.zeros((n, n))
        for i in range(n):
            out[i, i] = self.one
        return out

    def unit_vector(self, n: int, i: int) -> np.ndarray:
        out = self.zeros((n,))
        out[i] = self.one
        return out

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p if self.kind == "Fp" else arr

    def tensordot(self, x: np.ndarray, y: np.ndarray, axes) -> np.ndarray:
        """Exact tensor contraction with the ``axes`` of ``np.tensordot``.

        Over F_p the int64 contraction is reduced mod p.  Over Q each operand
        is written as Python-int numerators over one common denominator (the
        lcm of its entries' denominators), the numerators are contracted by
        the same ``np.tensordot`` call, and the output numerators are put over
        the product of the two denominators: one int multiply per term instead
        of a ``Fraction`` multiply and add.  Each distinct output numerator
        becomes one ``Fraction``, shared by the entries that hold it, so every
        entry of a Q result is a ``Fraction``.
        """
        if self.kind == "Fp":
            return self.reduce(np.tensordot(x, y, axes=axes))
        nx, dx = _clear_denominators(x)
        ny, dy = _clear_denominators(y)
        z = np.tensordot(nx, ny, axes=axes)
        flat = z.ravel().tolist()
        by_numerator = {v: Fraction(v, dx * dy) for v in set(flat)}
        return np.array([by_numerator[v] for v in flat], dtype=object).reshape(z.shape)

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.tensordot(x, y, axes=([x.ndim - 1], [0]))

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.reduce(x + y)

    def sub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.reduce(x - y)

    def scale(self, c, x: np.ndarray) -> np.ndarray:
        return self.reduce(c * x)

    def equal(self, x: np.ndarray, y: np.ndarray) -> bool:
        return bool(np.array_equal(self.reduce(x), self.reduce(y)))

    def is_zero(self, arr: np.ndarray) -> bool:
        if self.kind == "Fp":
            return not (arr % self.p).any()
        return all(v == 0 for v in arr.reshape(-1))

    def format_array(self, arr):
        """Nested lists of canonical scalar strings (for reports and JSON)."""
        if isinstance(arr, np.ndarray) and arr.ndim > 0:
            return [self.format_array(sub) for sub in arr]
        return self.format(arr[()] if isinstance(arr, np.ndarray) else arr)


def _clear_denominators(arr) -> tuple[np.ndarray, int]:
    """Python-int object array N and int D > 0 with N / D equal to ``arr``.

    ``int`` and numpy integers carry ``numerator`` / ``denominator`` too, so
    integral entries of any type are accepted.
    """
    arr = np.asarray(arr)
    flat = arr.ravel().tolist()
    dens = [v.denominator for v in flat]
    den = math.lcm(*dens)
    nums = [int(v.numerator) * (den // d) for v, d in zip(flat, dens)]
    return np.array(nums, dtype=object).reshape(arr.shape), den


def _shape_of(nested) -> tuple[int, ...]:
    shape = []
    node = nested
    while isinstance(node, list):
        shape.append(len(node))
        if not node:
            break
        node = node[0]
    return tuple(shape)


#: The field of rational numbers.
QQ = Field("Q")


def GF(p: int) -> Field:
    """The prime field with ``p`` elements."""
    return Field("Fp", p)
