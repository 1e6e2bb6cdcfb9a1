"""Canonical JSON encoding of every value the package exchanges.

Schemas (all arrays 0-based, scalars as canonical strings "3", "-2/5", "5"):

* scalar     an optionally signed integer, optionally followed by "/" and an
             unsigned integer ("3", "-2/5"); decimal points and exponents
             ("0.5", "1e9") are refused.  Over F_p a fraction is accepted
             when its reduced denominator is 1 ("6/2" is 3)
* field      {"kind": "Q"} or {"kind": "Fp", "p": 7}
* algebra    {"field": ..., "dim": n, "basis": [labels],
              "lambda": [[[...]]], "unit": [...]}
             with lambda[i][j][k] the coefficient of basis k in basis_i * basis_j
* candidate  {"A": algebra, "B": algebra, "gamma": [[M, ...], ...]}
             with gamma[i][j] a (dim A) x (dim A) matrix of scalar strings
* report     {"ok": bool, "failures": [{"condition": str, "witness": [...],
              "left": ..., "right": ..., "count": int}]}

Serialization is canonical: sorted keys, no floats, stable scalar strings.
Every emitted value but a report re-parses to an equal value.

``dumps`` writes the indented form, byte for byte
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`` and a
newline.  The json module has no C encoder for ``indent``, so ``_indented``
writes the canonical grammar itself: dicts with ``str`` keys (sorted), lists
and tuples, ``str`` (through ``json.encoder.encode_basestring``), ``int``,
``bool`` and ``None``.  A list of strings that the ``json.encoder.ESCAPE``
pattern does not match, such as every row of scalar strings, is one
``join``.  A value outside the grammar (a float, a numpy scalar, a non-``str``
key, a ``str`` subclass key, a cycle) goes to that exact ``json.dumps`` call,
so its bytes or its error are json's own.
"""

from __future__ import annotations

import json
from json.encoder import ESCAPE, encode_basestring
from typing import Any

import numpy as np

from .algebra import FiniteDimAlgebra
from .errors import FieldError, SchemaError
from .fields import Field
from .linalg import AlgMatrix, EndoMatrix, KMatrix
from .report import VerificationReport
from .twisting import GammaFamily, TwistingCandidate, _family_of


def dumps(obj: Any, *, compact: bool = False) -> str:
    """Canonical JSON text of ``obj``: sorted keys, non-ASCII kept as is.

    The default form is ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline, written by ``_indented`` when ``obj``
    is in the canonical grammar.  A value outside it goes to that exact
    ``json.dumps`` call, so its bytes or its error are json's own.  The
    ``compact`` form is one line, without the newline."""
    if compact:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    try:
        return _indented(obj, "") + "\n"
    except (_OutsideGrammar, RecursionError):  # a cycle recurses until json names it
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class _OutsideGrammar(Exception):
    """A value that ``_indented`` leaves to ``json.dumps``."""


def _indented(obj: Any, pad: str) -> str:
    """``obj`` as ``json.dumps`` writes it with ``indent=2`` at indentation
    ``pad``: dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
    ``bool`` and ``None``, and nothing else.  A list of strings that need no
    escape is one ``join``."""
    kind = type(obj)
    if kind is str:
        return encode_basestring(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        if type(obj[0]) is str:
            try:
                text = "".join(obj)
            except TypeError:  # a later entry is no string
                pass
            else:
                if not ESCAPE.search(text):
                    return "[\n" + inner + '"' + ('",\n' + inner + '"').join(obj) + '"\n' + pad + "]"
        return "[\n" + inner + (",\n" + inner).join([_indented(x, inner) for x in obj]) + "\n" + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(key) is str for key in obj):
            raise _OutsideGrammar
        inner = pad + "  "
        items = [encode_basestring(key) + ": " + _indented(obj[key], inner) for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return int.__repr__(obj)
    raise _OutsideGrammar


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None


def _expect(obj: Any, key: str, context: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{context}: missing key {key!r}")
    return obj[key]


def _expect_int(obj: Any, key: str, context: str) -> int:
    value = _expect(obj, key, context)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{context}: {key} must be an integer, got {value!r}")
    return value


# -- field ---------------------------------------------------------------------


def field_to_json(field: Field) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def field_from_json(obj: Any) -> Field:
    kind = _expect(obj, "kind", "field")
    if kind == "Q":
        return Field("Q")
    if kind == "Fp":
        return Field("Fp", _expect_int(obj, "p", "field"))
    raise SchemaError(f"field: unknown kind {kind!r}")


# -- arrays ----------------------------------------------------------------------


def array_to_json(field: Field, arr: np.ndarray):
    return field.format_array(arr)


def array_from_json(field: Field, data, shape: tuple[int, ...] | None, context: str) -> np.ndarray:
    """The exact array of ``data``, of the given ``shape`` (any shape for None)."""
    try:
        arr = field.asarray(data)
    except FieldError as exc:
        raise SchemaError(f"{context}: {exc}") from None
    if shape is not None and arr.shape != shape:
        raise SchemaError(f"{context}: shape {arr.shape}, expected {shape}")
    return arr


# -- algebra ---------------------------------------------------------------------


def algebra_to_json(algebra: FiniteDimAlgebra) -> dict:
    field = algebra.field
    return {
        "field": field_to_json(field),
        "dim": algebra.dim,
        "basis": list(algebra.basis),
        "lambda": array_to_json(field, algebra.lam),
        "unit": array_to_json(field, algebra.unit),
    }


def algebra_from_json(obj: Any) -> FiniteDimAlgebra:
    field = field_from_json(_expect(obj, "field", "algebra"))
    dim = _expect_int(obj, "dim", "algebra")
    if dim <= 0:
        raise SchemaError(f"algebra: dim must be a positive integer, got {dim!r}")
    basis = _expect(obj, "basis", "algebra")
    if not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError("algebra: basis must list one label per dimension")
    lam = array_from_json(field, _expect(obj, "lambda", "algebra"), (dim, dim, dim), "algebra.lambda")
    unit = array_from_json(field, _expect(obj, "unit", "algebra"), (dim,), "algebra.unit")
    return FiniteDimAlgebra(field, dim, tuple(str(b) for b in basis), lam, unit)


# -- candidate --------------------------------------------------------------------


def candidate_to_json(c: TwistingCandidate | GammaFamily) -> dict:
    family = _family_of(c)
    return {
        "A": algebra_to_json(family.A),
        "B": algebra_to_json(family.B),
        "gamma": array_to_json(family.field, family.gamma),
    }


def candidate_from_json(obj: Any) -> TwistingCandidate:
    """Parse a candidate; the verified flag is never serialized, so the
    result is always unverified."""
    a = algebra_from_json(_expect(obj, "A", "candidate"))
    b = algebra_from_json(_expect(obj, "B", "candidate"))
    if a.field != b.field:
        raise SchemaError("candidate: A and B fields differ")
    gamma = array_from_json(
        a.field,
        _expect(obj, "gamma", "candidate"),
        (b.dim, b.dim, a.dim, a.dim),
        "candidate.gamma",
    )
    return TwistingCandidate(GammaFamily(a, b, gamma))


# -- matrices ---------------------------------------------------------------------


def kmatrix_to_json(mat: KMatrix):
    return array_to_json(mat.field, mat.data)


def kmatrix_from_json(field: Field, data, context: str = "matrix") -> KMatrix:
    arr = array_from_json(field, data, None, context)
    if arr.ndim != 2:
        raise SchemaError(f"{context}: expected a 2-D array, got shape {arr.shape}")
    return KMatrix(field, arr)


def algmatrix_to_json(mat: AlgMatrix):
    return array_to_json(mat.algebra.field, mat.data)


def endomatrix_to_json(mat: EndoMatrix):
    return array_to_json(mat.field, mat.data)


# -- reports -----------------------------------------------------------------------


def report_to_json(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "failures": [
            {
                "condition": f.condition,
                "witness": list(f.witness),
                "left": f.left,
                "right": f.right,
                "count": f.count,
            }
            for f in report.failures
        ],
    }
