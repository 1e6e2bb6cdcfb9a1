import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistkit import (
    Failure,
    GF,
    GammaFamily,
    QQ,
    SchemaError,
    VerificationReport,
    certify,
    duplicate_algebra,
    kn_algebra,
    make_ncd,
    quadratic_algebra,
)
from twistkit import serialize


def test_field_roundtrip():
    for field in (QQ, GF(2), GF(65521)):
        assert serialize.field_from_json(serialize.field_to_json(field)) == field


def test_field_schema_errors():
    with pytest.raises(SchemaError):
        serialize.field_from_json({"kind": "R"})
    with pytest.raises(SchemaError):
        serialize.field_from_json({})


def test_algebra_roundtrip():
    for alg in (duplicate_algebra(QQ), kn_algebra(GF(3), 3), quadratic_algebra(QQ, "1/2", "-2")):
        back = serialize.algebra_from_json(serialize.algebra_to_json(alg))
        assert back == alg
        assert back.basis == alg.basis


def test_algebra_scalars_are_canonical_strings():
    payload = serialize.algebra_to_json(quadratic_algebra(QQ, "1/2", "-2"))
    assert payload["lambda"][1][1][0] == "2"
    assert payload["lambda"][1][1][1] == "1/2"


def test_candidate_roundtrip_drops_verified_flag():
    cand = certify(make_ncd(kn_algebra(QQ, 2), [[1, 0], [1, 0]], [[0, 0], [0, 0]]))
    assert cand.verified
    back = serialize.candidate_from_json(serialize.candidate_to_json(cand))
    assert back.family == cand.family
    assert not back.verified


def test_candidate_roundtrip_prime_field():
    cand = make_ncd(kn_algebra(GF(7), 2), [[6, 0], [1, 3]], [[0, 2], [5, 0]])
    back = serialize.candidate_from_json(serialize.candidate_to_json(cand))
    assert back.family == cand.family


def test_candidate_schema_validation():
    cand = make_ncd(kn_algebra(QQ, 2), [[1, 0], [1, 0]], [[0, 0], [0, 0]])
    payload = serialize.candidate_to_json(cand)
    del payload["gamma"]
    with pytest.raises(SchemaError):
        serialize.candidate_from_json(payload)
    payload2 = serialize.candidate_to_json(cand)
    payload2["gamma"] = [[["1"]]]
    with pytest.raises(SchemaError):
        serialize.candidate_from_json(payload2)


def test_report_roundtrip():
    report = VerificationReport(
        ok=False,
        failures=(
            Failure(condition="direct.1", witness=(0, 1, 0), left="1", right="0", count=3),
        ),
    )
    back = serialize.report_from_json(serialize.report_to_json(report))
    assert back == report


def test_dumps_is_canonical():
    one = serialize.dumps({"b": 1, "a": [2, 3]})
    two = serialize.dumps({"a": [2, 3], "b": 1})
    assert one == two
    assert one.startswith("{\n")
    compact = serialize.dumps({"b": 1, "a": 2}, compact=True)
    assert compact == '{"a":2,"b":1}'


def _reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _outcome(dump, obj):
    """The text of ``dump(obj)``, or the type and message of its error."""
    try:
        return dump(obj)
    except Exception as exc:  # any error: it is compared with json's own
        return type(exc), str(exc)


_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é中-123') | st.characters(), max_size=6)
_LEAF = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | _TEXT
    | st.sampled_from(["0", "1", "-2/5", "13/7"])
)
_GRAMMAR = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(_TEXT, max_size=4)
    | st.builds(lambda head, tail: [head, *tail], _TEXT, st.lists(inner, min_size=1, max_size=3))
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


def _as_loaded(obj):
    """What ``loads`` gives back for ``obj``: tuples become lists."""
    if isinstance(obj, (list, tuple)):
        return [_as_loaded(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _as_loaded(v) for k, v in obj.items()}
    return obj


@settings(max_examples=300, deadline=None)
@given(_GRAMMAR)
@example(['a"b', "c"])
@example(["c", "a\\b"])
@example(["x", "\x01"])
@example({"k": ["1", 2, "3"], "": [], "\n": {}, "é": ()})
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    """The indented writer is byte-identical to ``json.dumps`` with
    ``sort_keys=True, indent=2, ensure_ascii=False`` on the canonical
    grammar, and ``loads`` reads its text back."""
    text = serialize.dumps(obj)
    assert text == _reference_dumps(obj)
    assert serialize.loads(text) == _as_loaded(obj)


class _Str(str):
    pass


_CIRCULAR = []
_CIRCULAR.append(_CIRCULAR)
_DEEP = ["deep"]
for _ in range(5000):  # deeper than the recursion limit
    _DEEP = [_DEEP]
_OUTSIDE = {
    "float": 1.5,
    "nan": float("nan"),
    "inf-in-list": [1, float("inf")],
    "negative-zero-in-dict": {"a": ["x", -0.0]},
    "int-key": {1: "a"},
    "mixed-keys": {"a": 1, 2: "b"},
    "tuple-key": {(1, 2): "a"},
    "int64-entry": [np.int64(3)],
    "nested-int64": {"a": [np.int64(3)]},
    "str-subclass-entry": [_Str("a")],
    "str-subclass-after-str": ["a", _Str("b\n")],
    "str-subclass-key": {_Str("k"): "v"},
    "str-subclass": _Str("s"),
    "object": [object()],
    "set": {"x": {1, 2}},
    "circular": _CIRCULAR,
    "too-deep": _DEEP,
    "int-beyond-the-str-digit-limit": [10**5000],
}


@pytest.mark.parametrize("name", sorted(_OUTSIDE))
def test_dumps_outside_the_grammar_is_json_dumps(name):
    """Values outside the canonical grammar, and an int too long for
    ``str``, give json's own bytes or error."""
    obj = _OUTSIDE[name]
    assert _outcome(serialize.dumps, obj) == _outcome(_reference_dumps, obj)


def test_loads_rejects_bad_json():
    with pytest.raises(SchemaError):
        serialize.loads("{not json")


def test_field_mismatch_between_factors_rejected():
    a = serialize.algebra_to_json(kn_algebra(QQ, 2))
    b = serialize.algebra_to_json(kn_algebra(GF(2), 2))
    gamma = [[[["0", "0"], ["0", "0"]]]]
    with pytest.raises(SchemaError):
        serialize.candidate_from_json({"A": a, "B": b, "gamma": gamma})
