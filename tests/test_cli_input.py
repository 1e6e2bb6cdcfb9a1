"""Malformed input files are usage errors for every subcommand: exit 2 with
``error: ...`` on stderr, never an uncaught exception (exit 1 is reserved for
a verdict)."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit import GF, QQ, GammaFamily, SchemaError, certify, direct_sum, kn_algebra, make_ncd, serialize
from twistkit.cli import main

F2 = GF(2)


def _valid_files(directory: Path) -> dict:
    a = kn_algebra(F2, 2)
    psi = direct_sum(
        certify(GammaFamily.flip(a, kn_algebra(F2, 2))),
        certify(GammaFamily.flip(a, kn_algebra(F2, 1))),
    )
    payloads = {
        "algebra": serialize.algebra_to_json(kn_algebra(F2, 1)),
        "candidate": serialize.candidate_to_json(
            make_ncd(kn_algebra(QQ, 2), [[1, 0], [1, 0]], [[0, 0], [0, 0]])
        ),
        "matrix": [["1", "0"], ["0", "1"]],
        "psi": serialize.candidate_to_json(psi),
    }
    paths = {}
    for name, payload in payloads.items():
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(serialize.dumps(payload), encoding="utf-8")
    return paths


# argv of each subcommand with ``bad`` in one input position, ``ok`` the valid files
COMMANDS = {
    "validate-algebra": lambda bad, ok: ["validate-algebra", bad],
    "check-twisting": lambda bad, ok: ["check-twisting", bad],
    "build-product": lambda bad, ok: ["build-product", bad],
    "represent": lambda bad, ok: ["represent", bad],
    "rebase": lambda bad, ok: ["rebase", bad, "--matrix", ok["matrix"]],
    "rebase-matrix": lambda bad, ok: ["rebase", ok["candidate"], "--matrix", bad],
    "extend": lambda bad, ok: ["extend", bad, "--n", "1"],
    "quiver": lambda bad, ok: ["quiver", bad],
    "catalog-ncd": lambda bad, ok: ["catalog", "ncd", bad],
    "catalog-qdup": lambda bad, ok: ["catalog", "qdup", bad],
    "catalog-kn": lambda bad, ok: ["catalog", "kn", bad],
    "catalog-trunc": lambda bad, ok: ["catalog", "trunc", bad],
    "enumerate-A": lambda bad, ok: ["enumerate", "--A", bad, "--B", ok["algebra"]],
    "enumerate-B": lambda bad, ok: ["enumerate", "--A", ok["algebra"], "--B", bad],
    "cross-validate-A": lambda bad, ok: ["cross-validate", "--A", bad, "--B", ok["algebra"]],
    "cross-validate-B": lambda bad, ok: ["cross-validate", "--A", ok["algebra"], "--B", bad],
}


def _run(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _run_on(command: str, payload) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        ok = _valid_files(directory)
        bad = directory / "bad.json"
        bad.write_text(serialize.dumps(payload), encoding="utf-8")
        return _run(COMMANDS[command](str(bad), ok))


@pytest.mark.parametrize("payload", [[], [1, 2], 3, "x", None], ids=repr)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_non_object_top_level_is_usage_error(command, payload):
    code, _, err = _run_on(command, payload)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


_DEEP = "[" * 5000 + "]" * 5000  # deeper than the JSON decoder's recursion limit


@pytest.mark.parametrize("text", [_DEEP, '{"field": ' + _DEEP + "}"], ids=["list", "in-object"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_deeply_nested_json_is_usage_error(command, text, tmp_path):
    ok = _valid_files(tmp_path)
    bad = tmp_path / "deep.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = _run(COMMANDS[command](str(bad), ok))
    assert code == 2 and out == ""
    assert err == "error: invalid JSON: nested too deeply\n"


_A = serialize.algebra_to_json(kn_algebra(QQ, 2))
_ENDO = [["1", "0"], ["0", "1"]]
_ZERO = [["0", "0"], ["0", "0"]]
_NON_INTEGERS = [[1], 1.5, "2", None, True]


def _integer_field_cases():
    """(id, build) pairs; build(valid files) gives the argv with the bad payload last."""

    def psi(ok):
        return serialize.loads(Path(ok["psi"]).read_text(encoding="utf-8"))

    for value in _NON_INTEGERS:
        yield "extend-n", lambda ok, v=value: ["extend", {"psi": psi(ok), "n": v}]
        yield "extend-m", lambda ok, v=value: ["extend", {"psi": psi(ok), "n": 2, "m": v}]
        yield "kn-n", lambda ok, v=value: [
            "catalog", "kn", {"A": _A, "n": v, "gamma": [[_ENDO] * 2] * 2}
        ]
        yield "trunc-n", lambda ok, v=value: [
            "catalog", "trunc", {"A": _A, "n": v, "first_row": [_ENDO] * 2}
        ]
        field = {"kind": "Fp", "p": value}
        yield "field-p", lambda ok, f=field: [
            "validate-algebra", {**serialize.algebra_to_json(kn_algebra(F2, 1)), "field": f}
        ]
        yield "algebra-dim", lambda ok, v=value: [
            "validate-algebra", {**serialize.algebra_to_json(kn_algebra(F2, 1)), "dim": v}
        ]


@pytest.mark.parametrize("case", list(_integer_field_cases()), ids=lambda c: c[0])
def test_non_integer_size_field_is_usage_error(case, tmp_path):
    _, build = case
    ok = _valid_files(tmp_path)
    *args, payload = build(ok)
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps(payload), encoding="utf-8")
    code, _, err = _run([*args, str(bad)])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize(
    "family, key", [("kn", "gamma"), ("kn", "first_row"), ("trunc", "gamma"), ("trunc", "first_row")]
)
def test_non_positive_catalog_size_is_usage_error(family, key, n, tmp_path):
    """n <= 0 is refused by name, before any grid is read against it."""
    grid = [[_ENDO] * 2] * 2 if key == "gamma" else [_ENDO] * 2
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps({"A": _A, "n": n, key: grid}), encoding="utf-8")
    code, out, err = _run(["catalog", family, str(bad)])
    assert (code, out) == (2, "")
    assert err == f"error: catalog: n must be a positive integer, got {n}\n"


_KEYS = st.sampled_from(
    ["A", "B", "gamma", "psi", "n", "m", "f", "delta", "alpha", "beta", "first_row",
     "field", "kind", "p", "dim", "basis", "lambda", "unit"]
)
_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from(["x", "1", "1/2", "1/0", "Q", "Fp"])
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _valid_payloads() -> dict:
    """A well-formed input file for each entry of COMMANDS."""
    with tempfile.TemporaryDirectory() as tmp:
        ok = {k: serialize.loads(Path(v).read_text(encoding="utf-8"))
              for k, v in _valid_files(Path(tmp)).items()}
    f5 = serialize.algebra_to_json(kn_algebra(GF(5), 2))
    ncd = {"A": _A, "f": [["1", "0"], ["1", "0"]], "delta": _ZERO}
    out = {name: ok["candidate"] for name in COMMANDS}
    out.update({
        "validate-algebra": f5,
        "rebase-matrix": ok["matrix"],
        "extend": {"psi": ok["psi"], "n": 2, "m": 1},
        "quiver": ok["psi"],
        "catalog-ncd": ncd,
        "catalog-qdup": {**ncd, "alpha": "1", "beta": "0"},
        "catalog-kn": {"A": _A, "n": 2, "gamma": [[_ENDO, _ZERO], [_ZERO, _ENDO]]},
        "catalog-trunc": {"A": _A, "n": 3, "first_row": [_ZERO, _ENDO, _ZERO]},
    })
    for name in ("enumerate-A", "enumerate-B", "cross-validate-A", "cross-validate-B"):
        out[name] = ok["algebra"]
    return out


_VALID = _valid_payloads()


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield from _paths(child, (*prefix, key))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_fuzzed_input_never_escapes(command, data):
    """A well-formed input with one subtree replaced by arbitrary JSON."""
    valid = _VALID[command]
    path = data.draw(st.sampled_from(list(_paths(valid))))
    payload = _replaced(valid, path, data.draw(_JSON))
    code, out, err = _run_on(command, payload)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:  # a verdict: the written report says ok = false
        written = json.loads(out)
        assert written.get("ok", written.get("verdict", {}).get("ok")) is False
    if code == 2:
        assert err.startswith("error: ")


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_zero_denominator_is_usage_error(key):
    """``Fraction("1/0")`` raises ``ZeroDivisionError``; the parameter is bad input."""
    code, out, err = _run_on("catalog-qdup", {**_VALID["catalog-qdup"], key: "1/0"})
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err and "Traceback" not in err


def _unwritable_outputs(tmp_path: Path, ok: dict):
    """(argv, out) pairs: each subcommand that writes ``--out`` given a path in
    a missing directory, and given a directory."""
    missing = str(tmp_path / "missing" / "out.json")
    for out in (missing, str(tmp_path)):
        yield ["check-twisting", ok["candidate"], "--out", out], out
        yield ["build-product", ok["candidate"], "--out", out], out
        yield ["enumerate", "--A", ok["algebra"], "--B", ok["algebra"], "--out", out], out


def test_unwritable_out_is_usage_error(tmp_path):
    ok = _valid_files(tmp_path)
    cases = list(_unwritable_outputs(tmp_path, ok))
    assert len(cases) == 6
    for argv, out in cases:
        code, _, err = _run(argv)
        assert code == 2, argv
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


_BOOLEAN_MATRICES = [[[True, False], [False, True]], [[1, 0], [0, True]], [[True]]]


@pytest.mark.parametrize("matrix", _BOOLEAN_MATRICES, ids=repr)
def test_boolean_matrix_entries_are_usage_error(matrix, tmp_path):
    """JSON ``true`` is no field element, although Python's ``bool`` is an ``int``."""
    ok = _valid_files(tmp_path)
    bad = tmp_path / "matrix.json"
    bad.write_text(json.dumps(matrix), encoding="utf-8")
    code, out, err = _run(["rebase", ok["candidate"], "--matrix", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error: change-of-basis matrix: ") and "boolean" in err


@pytest.mark.parametrize("kind", ["Q", "Fp"])
def test_boolean_algebra_entries_are_usage_error(kind, tmp_path):
    field = QQ if kind == "Q" else GF(5)
    payload = serialize.algebra_to_json(kn_algebra(field, 2))
    payload["unit"] = [True, True]
    bad = tmp_path / "algebra.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = _run(["validate-algebra", str(bad)])
    assert code == 2
    assert err.startswith("error: algebra.unit: ") and "boolean" in err


def _placed(value) -> dict:
    """argv heads and payloads with the Q scalar ``value`` as an algebra
    entry, a grid entry and the ``alpha`` of a quantum duplicate."""
    algebra = serialize.algebra_to_json(kn_algebra(QQ, 1))
    candidate = _VALID["check-twisting"]
    gamma = json.loads(json.dumps(candidate["gamma"]))
    gamma[1][1][0][0] = value
    return {
        "algebra": (["validate-algebra"], {**algebra, "lambda": [[[value]]]}),
        "grid": (["check-twisting"], {**candidate, "gamma": gamma}),
        "alpha": (["catalog", "qdup"], {**_VALID["catalog-qdup"], "alpha": value}),
    }


def _run_process(args, payload, tmp_path) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, killed after 10 s: a parse that runs
    without bound fails the test instead of hanging it."""
    path = tmp_path / "input.json"
    path.write_text(serialize.dumps(payload), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "twistkit", *args, str(path)], capture_output=True, text=True, timeout=10
    )


@pytest.mark.parametrize("place", ["algebra", "grid", "alpha"])
@pytest.mark.parametrize("value", ["1e999999999", "1e-999999999", "0.5"])
def test_decimal_and_exponent_scalars_are_usage_errors(value, place, tmp_path):
    """``Fraction("1e999999999")`` builds 10**999999999: the scalar grammar
    refuses decimal points and exponents before any arithmetic."""
    args, payload = _placed(value)[place]
    proc = _run_process(args, payload, tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "not an exact scalar" in proc.stderr and "Traceback" not in proc.stderr


def test_prime_field_exponent_is_usage_error(tmp_path):
    algebra = serialize.algebra_to_json(kn_algebra(GF(5), 1))
    proc = _run_process(["validate-algebra"], {**algebra, "unit": ["1e9"]}, tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: algebra.unit: ") and len(proc.stderr.splitlines()) == 1


def test_prime_field_reads_fractions_with_denominator_one():
    """Over F_5 "6/2" is 3 and "2/2" is 1: the algebra equals its canonical form."""
    canonical = serialize.algebra_to_json(kn_algebra(GF(5), 1))
    spelled = {**canonical, "lambda": [[["2/2"]]], "unit": ["6/6"]}
    assert serialize.algebra_from_json(spelled) == serialize.algebra_from_json(canonical)
    three = {**canonical, "lambda": [[["6/2"]]], "unit": ["2"]}
    assert serialize.algebra_from_json(three).lam.tolist() == [[[3]]]
    code, _, err = _run_on("validate-algebra", {**canonical, "unit": ["1/2"]})
    assert code == 2 and err.startswith("error: algebra.unit: ")


@pytest.mark.parametrize("label", [None, True, 3, {"x": 1}, ["x"]], ids=repr)
def test_non_string_basis_label_is_usage_error(label):
    """A basis label is a JSON string: any other value is refused by name,
    by the parser and by the CLI, instead of being kept through ``str``."""
    algebra = {**serialize.algebra_to_json(kn_algebra(F2, 2)), "basis": ["e1", label]}
    with pytest.raises(SchemaError, match=r"^algebra\.basis: a label must be a string, got "):
        serialize.algebra_from_json(algebra)
    candidate = _VALID["build-product"]
    code, out, err = _run_on("build-product", {**candidate, "B": {**candidate["B"], "basis": [label, "X"]}})
    assert (code, out) == (2, "")
    assert err == f"error: algebra.basis: a label must be a string, got {json.dumps(label)}\n"


def _missing_catalog_keys():
    """(family, payload, key): a valid catalog input of the family with one
    required key removed.  A truncated grid is required only without a first row."""
    trunc_grid = {"A": _A, "n": 2, "gamma": [[_ENDO, _ZERO], [_ZERO, _ENDO]]}
    for family, valid in (
        ("ncd", _VALID["catalog-ncd"]),
        ("qdup", _VALID["catalog-qdup"]),
        ("kn", _VALID["catalog-kn"]),
        ("trunc", _VALID["catalog-trunc"]),
        ("trunc", trunc_grid),
    ):
        for key in valid:
            if key != "first_row":
                yield family, {k: v for k, v in valid.items() if k != key}, key
    for family in ("ncd", "qdup", "kn", "trunc"):
        yield family, {}, "A"


@pytest.mark.parametrize("family, payload, key", list(_missing_catalog_keys()))
def test_missing_catalog_key_is_named(family, payload, key, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps(payload), encoding="utf-8")
    code, out, err = _run(["catalog", family, str(bad)])
    assert (code, out) == (2, "")
    assert err == f"error: catalog: missing key {key!r}\n"
