"""Exact base-field arithmetic on numpy arrays.

Two kinds of field are supported: the rationals (elements are
``fractions.Fraction`` stored in object arrays) and prime fields F_p with
p < 2**16 (elements are canonical residues in ``int64`` arrays).  All array
operations are exact; there is no floating point anywhere in the package.

Every structure-constant product goes through ``Field.tensordot`` (and
``matmul``) or ``Field.einsum`` (the route kernels, ``...`` being a batch of
grids), which passes ``tensordot`` each contraction it can write, or is one
of the broadcast lifts ``linalg._alg_lift`` and ``linalg._endo_lift``.
``tensordot`` runs one planned ``np.dot``: a bounded cache keyed on the
operand shapes and the normalised axes gives each operand's transpose and 2-D
shape and the output shape, so a call does none of ``np.tensordot``'s
per-call setup but the same transpose, reshape and dot.  Both share one
exactness wrapper: over F_p the fresh product is reduced mod p in place (an
input never is), exact while summed length * (p - 1)**2 < 2**63, so for any
summed length below 2**31; over Q one integer multiply and add per term,
on numerators over common denominators (``int64`` under the bound below).

Over Q a checker keeps its arrays in cleared form from its inputs to the
comparison.  Every check on a candidate (``twisting.route_ok`` and
``twisting.route_reports`` behind ``twisting.CHECKS``, ``verify_faithful``,
and the criteria of ``extension`` and ``basischange``) runs on the image of
its family (``twisting.GammaFamily._image``): the structure constants and
units of A and B and the gamma grid, each turned into integer numerators
over one denominator once per family with ``Field.cleared``, as are the
base-change matrices.  The field of the image
builds the constants of the check (``zeros``, ``identity``,
``unit_vector``) cleared, as ``int64`` numerators over 1, so nothing but
those inputs is ever cleared in a check.  A contraction with a cleared
operand returns the cleared product (the denominators multiply), a
broadcast ``*`` of a cleared array with an exact array, ``+`` and ``-`` of
two cleared arrays and ``sum`` do too, and ``Field.mismatch`` compares
cleared sides by cross-multiplied numerators.

Each cleared array carries an upper bound on the sum of the absolute values
of its numerators (its L1 norm): ``Field.cleared`` counts it, views keep it,
and a contraction or broadcast product of operands with bounds bx and by gets
bx * by.  That is proven: every output entry, and every partial sum that
``np.dot`` or ``np.einsum`` forms on the way, is a sum of products
x_a * y_b over distinct pairs (a, b) of operand entries, so its absolute
value is at most sum|x| * sum|y|, and so is the sum of the outputs.  A sum
``x + y`` scales the numerators to the lcm of the denominators, by sx and
sy, and gets sx * bx * (N / Nx) + sy * by * (N / Ny) for N entries out of Nx
and Ny; ``sum`` keeps the bound.  The numerators are ``int64`` while the
bounds allow it: a contraction or product runs in ``int64`` when bx, by and
bx * by are all below 2**63, a sum when its bound and both scales are, and a
comparison when both cross-multiplied bounds (and both factors) are; it runs
on Python ints (``object`` arrays) otherwise.  The bound alone picks the
dtype, so no ``int64`` value can wrap.

No ``Fraction`` is built inside a route: the cleared form leaves only
through ``Field.format``, one ``Fraction`` per witness entry of a report,
``Field.numerators``, which hands Python ints to the exact elimination of
``linalg``, and ``_Cleared.fractions``, which turns the twisted product that
``twisting.build_twisted_product`` computes on the image into ``Fraction``
arrays once.  Contractions of ``Fraction`` operands alone (the public
constructions, ``linalg``) return ``Fraction`` arrays, and no public function
returns a cleared array.  Over F_p ``cleared`` is the identity.

``Field.mismatch`` is the one comparison of exact arrays: ``equal``,
``is_zero`` and every checker's report decide equality through it.  Over F_p
it compares the raw ``int64`` entries first and reduces both sides only when
some entry differs: equal entries are equal residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
            # a float, bool or string modulus would leak into every residue
            if isinstance(self.p, (bool, np.bool_)) or not isinstance(self.p, (int, np.integer)):
                raise FieldError(f"modulus {self.p!r} is not an integer")
            object.__setattr__(self, "p", int(self.p))
            # the cap comes first: trial division of a huge modulus runs for hours
            if self.p >= _PRIME_CAP:
                raise FieldError(f"modulus {self.p} exceeds the 2**16 cap")
            if not _is_prime(self.p):
                raise FieldError(f"modulus {self.p!r} is not prime")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    # -- scalars ------------------------------------------------------------

    def scalar(self, value) -> Fraction | int:
        """Coerce an int, Fraction or canonical string to a field element.

        Floats are rejected: every value in the package is exact.  So are
        booleans, although ``bool`` is an ``int``: JSON ``true`` is no number.
        """
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, (bool, np.bool_)):
            raise FieldError(f"boolean value {value!r} rejected")
        # ints come before Fractions: ``isinstance(1, Fraction)`` is an ABC check
        if isinstance(value, (int, np.integer)):
            return Fraction(int(value)) if self.kind == "Q" else int(value) % self.p
        if isinstance(value, (float, np.floating)):
            raise FieldError(f"floating point value {value!r} rejected")
        name = "Q" if self.kind == "Q" else f"F_{self.p}"
        if not isinstance(value, Fraction):
            raise FieldError(f"cannot coerce {value!r} into {name}")
        if self.kind == "Fp" and value.denominator != 1:
            raise FieldError(f"cannot coerce {value} into {name}")
        return value if self.kind == "Q" else value.numerator % self.p

    def parse(self, text: str) -> Fraction | int:
        """A scalar string: an optionally signed integer, optionally followed
        by ``/`` and an unsigned integer, each read with ``int()`` and then
        coerced by ``scalar`` (so F_p takes "6/2" but not "1/2").  Decimal
        points and exponents are refused: ``Fraction("1e999999999")`` hangs."""
        num, slash, den = text.partition("/")
        # int() also reads a sign and whitespace at either end: none may touch the slash
        if slash and not (num[-1:].isdecimal() and den[:1].isdecimal()):
            raise FieldError(f"not an exact scalar: {text!r}")
        try:
            value = Fraction(int(num), int(den)) if slash else int(num)
        except ValueError:  # not an integer, or more digits than int() reads
            raise FieldError(f"not an exact scalar: {text!r}") from None
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in {text!r}") from None
        return self.scalar(value)

    def format(self, x) -> str:
        """Canonical string form: "3", "-2/5" over Q; residue "5" over F_p."""
        if self.kind == "Q":
            if isinstance(x, _Cleared):
                return str(Fraction(int(x.num), x.den))
            return str(Fraction(x))
        return str(int(x) % self.p)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    # -- arrays -------------------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        """Exact array from nested ints / Fractions / canonical strings in one
        flat pass: numpy reads the nesting and ``scalar`` converts each entry,
        in row-major order, so the first bad entry names the error.  Each
        distinct ``str`` entry is parsed once per call: an array of structure
        constants holds a few distinct strings in many entries.  Only entries
        of exact type ``str`` are looked up among the parses, so ``True`` is
        never read as an equal ``1``.  A non-object array must have an integer
        dtype on both fields; over F_p it skips the pass and is reduced."""
        if isinstance(data, np.ndarray) and data.dtype != object:
            if data.dtype.kind not in "iu":
                raise FieldError(f"non-integer array dtype {data.dtype} rejected")
            if self.kind == "Fp":
                # unsigned values above 2**63 would wrap in the int64 cast: reduce first
                data = data.astype(np.uint64) % self.p if data.dtype.kind == "u" else data
                return np.asarray(data, dtype=np.int64) % self.p
        try:
            arr = np.array(data, dtype=object)
        except ValueError:  # nested arrays of clashing shapes
            raise FieldError("ragged nested input") from None
        # numpy fills a slot from a nested array by broadcasting (a 1 x 1 array
        # fills a slot of shape (1,)), so each nested array needs its slot's shape
        level = [data]
        for depth in range(1, arr.ndim):
            level = [x for node in level if not isinstance(node, np.ndarray) for x in node]
            if any(isinstance(x, np.ndarray) and x.shape != arr.shape[depth:] for x in level):
                raise FieldError("ragged nested input")
        flat = arr.ravel().tolist()
        parsed = {}  # each distinct string is parsed once, on its first occurrence
        try:
            values = [
                (parsed[x] if x in parsed else parsed.setdefault(x, self.parse(x)))
                if type(x) is str
                else self.scalar(x)
                for x in flat
            ]
        except FieldError:
            # ragged input leaves lists (or arrays) in the entries
            if any(isinstance(x, (list, tuple, np.ndarray)) for x in flat):
                raise FieldError("ragged nested input") from None
            raise
        # np.array would probe every Fraction for a nested sequence; fromiter does not
        dtype = object if self.kind == "Q" else np.int64
        return np.fromiter(values, dtype=dtype, count=len(values)).reshape(arr.shape)

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
        """Exact tensor contraction with the ``axes`` of ``np.tensordot``: an
        int, or one int or sequence of (possibly negative) axes per operand.
        It is one ``np.dot`` of the operands transposed and reshaped to 2-D by
        the cached ``_tensordot_plan``; over F_p exact for any summed length
        below 2**31."""
        px, sx, py, sy, out = _tensordot_plan(x.shape, y.shape, _axes_key(axes))
        return self._contract(
            lambda a, b: np.dot(a.transpose(px).reshape(sx), b.transpose(py).reshape(sy)).reshape(out), x, y
        )

    def einsum(self, spec: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact ``np.einsum(spec, x, y)``: ``tensordot`` (one planned ``np.dot``)
        plus a transpose where ``_dot_plan`` finds one, else einsum's own loop
        (a batch on both operands, a diagonal or a kept shared letter).  Over
        F_p it is exact while summed length * (p - 1)**2 < 2**63: any length
        below 2**31."""
        plan = _dot_plan(spec, x.ndim, y.ndim)
        if plan is None:
            return self._contract(lambda a, b: np.asarray(np.einsum(spec, a, b)), x, y)
        axes, order = plan
        return self.tensordot(x, y, axes).transpose(order)

    def cleared(self, x):
        """``x`` in the cleared form of a check over Q (integer numerators
        over one denominator, see the module docstring); ``x`` itself over F_p."""
        if self.kind == "Fp":
            return x
        return _Cleared(*_clear_denominators(x))

    def numerators(self, x) -> np.ndarray:
        """An exact array equal to ``x`` times a positive integer: the
        numerators of a cleared ``x`` as Python ints (an object array),
        ``x`` itself otherwise."""
        return x.num.astype(object) if isinstance(x, _Cleared) else x

    def _contract(self, contract, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``contract(x, y)``, exactly (a contraction, or the broadcast product
        ``np.multiply``).  Over Q it contracts numerators over each operand's
        lcm denominator, in ``int64`` when both L1 bounds and their product
        are below 2**63 (see the module docstring).  With a cleared
        operand the product stays cleared; otherwise a distinct output
        numerator makes one ``Fraction``.  Over F_p it reduces the fresh
        product mod p in place."""
        if self.kind == "Fp":
            z = contract(x, y)
            return np.remainder(z, self.p, out=z)
        nx, dx, bx = _clear_denominators(x)
        ny, dy, by = _clear_denominators(y)
        bound = bx * by
        dtype = _dtype(bx, by, bound)
        z = np.asarray(contract(nx.astype(dtype, copy=False), ny.astype(dtype, copy=False)), dtype=dtype)
        product = _Cleared(z, dx * dy, bound)
        return product if isinstance(x, _Cleared) or isinstance(y, _Cleared) else product.fractions()

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.tensordot(x, y, axes=([x.ndim - 1], [0]))

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.reduce(x + y)

    def sub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.reduce(x - y)

    def mismatch(self, x, y) -> np.ndarray:
        """Boolean array, broadcast like ``x != y``, true where the reduced
        exact values differ.  Over F_p the raw comparison is the answer when
        no entry differs; otherwise both sides are reduced.  Over Q a cleared
        side compares by cross multiplication over lcm(dx, dy),
        ``nx * (dy / g) != ny * (dx / g)`` with g = gcd(dx, dy), in ``int64``
        when both scaled bounds are below 2**63 (``Fraction`` equality when
        neither side is cleared)."""
        if self.kind == "Fp":
            raw = np.asarray(x != y)
            return np.asarray(self.reduce(x) != self.reduce(y)) if np.count_nonzero(raw) else raw
        if not (isinstance(x, _Cleared) or isinstance(y, _Cleared)):
            return np.asarray(x != y)
        nx, dx, bx = _clear_denominators(x)
        ny, dy, by = _clear_denominators(y)
        g = math.gcd(dx, dy)
        sx, sy = dy // g, dx // g
        dtype = _dtype(bx * sx, by * sy, sx, sy)
        nx, ny = nx.astype(dtype, copy=False), ny.astype(dtype, copy=False)
        # sides with one denominator (such as both sides of oracle.assoc)
        # compare without building scaled copies
        return np.asarray((nx if sx == 1 else nx * sx) != (ny if sy == 1 else ny * sy))

    def equal(self, x: np.ndarray, y: np.ndarray) -> bool:
        # np.shape reads a cleared array's ``shape``, and takes scalars too
        return np.shape(x) == np.shape(y) and not np.count_nonzero(self.mismatch(x, y))

    def is_zero(self, arr: np.ndarray) -> bool:
        return not np.count_nonzero(self.mismatch(arr, self.zero))

    def format_array(self, arr):
        """Nested lists of canonical scalar strings (for reports and JSON),
        formatted in one flat pass."""
        if not isinstance(arr, np.ndarray):
            return self.format(arr)
        flat = arr.ravel().tolist()
        if self.kind == "Q":
            strings = [str(x) if type(x) is Fraction else self.format(x) for x in flat]
        else:
            strings = [str(int(x) % self.p) for x in flat]
        return np.array(strings, dtype=object).reshape(arr.shape).tolist()


_INT = (int, np.integer)

#: Numerators are ``int64`` only below this bound; at or above it, Python ints.
_INT64_LIMIT = 1 << 63


def _dtype(*bounds: int):
    """``int64`` when every bound (on an operand, a product or a sum) is below
    2**63, else ``object``: Python ints, which cannot overflow."""
    return np.int64 if max(bounds) < _INT64_LIMIT else object


def _axes_key(axes):
    """The ``axes`` of ``tensordot`` in hashable form: an int, or one int or
    tuple per operand."""
    if isinstance(axes, _INT):
        return axes
    a, b = axes
    return (a if isinstance(a, _INT) else tuple(a), b if isinstance(b, _INT) else tuple(b))


@lru_cache(maxsize=1024)
def _tensordot_plan(x_shape: tuple[int, ...], y_shape: tuple[int, ...], axes):
    """``(px, sx, py, sy, out)`` with ``np.dot(x.transpose(px).reshape(sx),
    y.transpose(py).reshape(sy)).reshape(out)`` equal to
    ``np.tensordot(x, y, axes)``: ``x``'s free axes then its summed ones, the
    summed axes of ``y`` in the same order then its free ones.  ``axes`` is
    normalised here: an int ``k`` sums the last ``k`` axes of ``x`` with the
    first ``k`` of ``y``, a bare int per side is one axis, negative indices
    count from the end, and ``([], [])`` is the outer product."""
    if isinstance(axes, _INT):
        if not 0 <= axes <= min(len(x_shape), len(y_shape)):
            raise ValueError(f"cannot sum {axes} axes of shapes {x_shape} and {y_shape}")
        ax, ay = range(len(x_shape) - axes, len(x_shape)), range(axes)
    else:
        ax, ay = ((a,) if isinstance(a, _INT) else a for a in axes)
    ax = [a + len(x_shape) if a < 0 else a for a in ax]
    ay = [a + len(y_shape) if a < 0 else a for a in ay]
    if len(ax) != len(ay) or any(x_shape[i] != y_shape[j] for i, j in zip(ax, ay)):
        raise ValueError(f"shape-mismatch for sum: axes {axes} of shapes {x_shape} and {y_shape}")
    free_x = [i for i in range(len(x_shape)) if i not in ax]
    free_y = [j for j in range(len(y_shape)) if j not in ay]
    summed = math.prod(x_shape[i] for i in ax)
    out_x, out_y = tuple(x_shape[i] for i in free_x), tuple(y_shape[j] for j in free_y)
    return (
        tuple(free_x + ax), (math.prod(out_x), summed),
        tuple(ay + free_y), (summed, math.prod(out_y)),
        out_x + out_y,
    )


@lru_cache(maxsize=1024)
def _dot_plan(spec: str, x_ndim: int, y_ndim: int):
    """``(axes, order)`` with ``Field.tensordot(x, y, axes).transpose(order)``
    (one planned ``np.dot``) equal to ``np.einsum(spec, x, y)``, or None: then
    ``Field.einsum`` runs einsum's own loop.  A batch ``...`` with axes in one
    operand only becomes letters free in it; then each letter must be summed
    over both operands or free in one."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    x_batch, y_batch = x_ndim - len(xs.replace("...", "")), y_ndim - len(ys.replace("...", ""))
    batch = "ABCDEFGH"[: x_batch + y_batch]  # the specs use lower-case letters
    xs, ys = xs.replace("...", batch if x_batch else ""), ys.replace("...", batch if y_batch else "")
    out = out.replace("...", batch)
    summed = [c for c in xs if c in ys]
    free = [c for c in xs + ys if c not in summed]
    if x_batch and y_batch or len(set(xs)) + len(set(ys)) < len(xs + ys) or sorted(free) != sorted(out):
        return None
    return ([xs.index(c) for c in summed], [ys.index(c) for c in summed]), [free.index(c) for c in out]


@dataclass(frozen=True, eq=False)
class _Cleared:
    """The exact array ``num / den`` over Q: ``num`` an integer array,
    ``den`` a positive int and ``bound`` an upper bound on the sum of
    ``|num|``; ``num`` is ``int64`` only when ``bound`` is below 2**63, and
    Python ints (an object array) otherwise.  It has the view operations the
    check generators apply to a grid and to contraction outputs, each keeping
    ``den`` and ``bound``, ``sum`` along an axis, the broadcast product with
    an exact array on either side, and the broadcast ``+`` and ``-`` of two
    cleared arrays."""

    num: np.ndarray
    den: int
    bound: int

    # numpy defers ``ndarray * _Cleared`` to ``__rmul__``
    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    @property
    def ndim(self) -> int:
        return self.num.ndim

    def transpose(self, *axes) -> "_Cleared":
        return _Cleared(self.num.transpose(*axes), self.den, self.bound)

    def reshape(self, *shape) -> "_Cleared":
        return _Cleared(self.num.reshape(*shape), self.den, self.bound)

    def __getitem__(self, key) -> "_Cleared":
        """The entries at ``key``; one entry of an object array is a 0-d
        array, not a Python int.  A view picks each entry at most once and
        keeps the bound; a copy (an integer-array index) may pick one entry k
        times, and the bound grows k-fold."""
        num = self.num[key]
        if type(num) is int:
            num = np.asarray(num, dtype=object)
        elif type(num) is np.ndarray and not np.may_share_memory(num, self.num):
            picks = np.arange(self.num.size).reshape(self.shape)[key].ravel()
            return _Cleared(num, self.den, self.bound * int(np.bincount(picks, minlength=1).max()))
        return _Cleared(num, self.den, self.bound)

    def sum(self, axis) -> "_Cleared":
        return _Cleared(np.asarray(self.num.sum(axis=axis), dtype=self.num.dtype), self.den, self.bound)

    def __neg__(self) -> "_Cleared":
        return _Cleared(np.asarray(-self.num, dtype=self.num.dtype), self.den, self.bound)

    def __add__(self, other) -> "_Cleared":
        return self._combine(other, np.add)

    def __sub__(self, other) -> "_Cleared":
        return self._combine(other, np.subtract)

    def _combine(self, other, op) -> "_Cleared":
        """``op`` (``np.add`` or ``np.subtract``) of two cleared arrays over
        the lcm of their denominators, broadcast: a side of Nx entries holds
        each one N / Nx times among the N entries out."""
        if not isinstance(other, _Cleared):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        size = math.prod(np.broadcast_shapes(self.shape, other.shape))
        sides = [(side.num, den // side.den, side.bound * (size // max(side.num.size, 1))) for side in (self, other)]
        bound = sum(s * b for _, s, b in sides)
        dtype = _dtype(bound, *(s for _, s, _ in sides))
        # numpy gives 0-d results as scalars: keep each one an array of ``dtype``
        nx, ny = (np.asarray(num.astype(dtype, copy=False) * s, dtype=dtype) for num, s, _ in sides)
        return _Cleared(np.asarray(op(nx, ny), dtype=dtype), den, bound)

    def __mul__(self, other) -> "_Cleared":
        """The broadcast product, through the exactness wrapper of the
        contractions: each entry is one product ``x_a * y_b`` of a distinct
        pair, so the bounds multiply."""
        return QQ._contract(np.multiply, self, other)

    __rmul__ = __mul__

    def fractions(self) -> np.ndarray:
        """The ``Fraction`` array ``num / den``: one ``Fraction`` per distinct
        numerator, shared by the entries that hold it."""
        flat = self.num.ravel().tolist()
        by_numerator = {v: Fraction(v, self.den) for v in set(flat)}
        return np.array([by_numerator[v] for v in flat], dtype=object).reshape(self.shape)


class _ClearedField(Field):
    """Q as the image of a family sees it (``twisting.GammaFamily._image``):
    ``zeros``, ``identity`` and ``unit_vector`` are cleared ``int64``
    constants over the denominator 1, so a check contracts and compares them
    without clearing them first."""

    def zeros(self, shape) -> _Cleared:
        return _Cleared(np.zeros(shape, dtype=np.int64), 1, 0)

    def identity(self, n: int) -> _Cleared:
        return _Cleared(np.eye(n, dtype=np.int64), 1, n)

    def unit_vector(self, n: int, i: int) -> _Cleared:
        return _Cleared(np.eye(1, n, i, dtype=np.int64)[0], 1, 1)


def _clear_denominators(arr) -> tuple[np.ndarray, int, int]:
    """Integer array N, int D > 0 and the bound sum(|N|), with N / D equal to
    ``arr`` and N in the dtype ``_dtype`` gives the bound; a cleared ``arr``
    gives its own triple without any work.

    ``int`` and numpy integers carry ``numerator`` / ``denominator`` too, so
    integral entries of any type are accepted.
    """
    if isinstance(arr, _Cleared):
        return arr.num, arr.den, arr.bound
    arr = np.asarray(arr)
    flat = arr.ravel().tolist()
    dens = [v.denominator for v in flat]
    den = math.lcm(*dens)
    nums = [int(v.numerator) * (den // d) for v, d in zip(flat, dens)]
    bound = sum(map(abs, nums))
    return np.array(nums, dtype=_dtype(bound)).reshape(arr.shape), den, bound


#: The field of rational numbers.
QQ = Field("Q")

#: The rationals of a check's image, whose constants are cleared.
_CLEARED_QQ = _ClearedField("Q")


def GF(p: int) -> Field:
    """The prime field with ``p`` elements."""
    return Field("Fp", p)
