import json
from pathlib import Path

import pytest

from twistkit import (
    GF,
    QQ,
    certify,
    duplicate_algebra,
    kn_algebra,
    make_ncd,
    validate_algebra,
)
from twistkit import serialize, twisting
from twistkit.cli import main

F2 = GF(2)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(serialize.dumps(payload), encoding="utf-8")
    return str(path)


def read(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def dup_file(tmp_path):
    return write(tmp_path, "dup.json", serialize.algebra_to_json(duplicate_algebra(QQ)))


@pytest.fixture
def ncd_file(tmp_path):
    cand = make_ncd(kn_algebra(QQ, 2), [[1, 0], [1, 0]], [[0, 0], [0, 0]])
    return write(tmp_path, "ncd.json", serialize.candidate_to_json(cand))


@pytest.fixture
def bad_ncd_file(tmp_path):
    cand = make_ncd(kn_algebra(QQ, 2), QQ.identity(2), QQ.identity(2))  # delta(1) != 0
    return write(tmp_path, "bad.json", serialize.candidate_to_json(cand))


def test_validate_algebra_ok(dup_file, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["validate-algebra", dup_file, "--out", out]) == 0
    assert read(out)["ok"] is True


def test_validate_algebra_failure_writes_report(tmp_path, capsys):
    alg = serialize.algebra_to_json(kn_algebra(QQ, 2))
    alg["lambda"][0][1][0] = "1"
    path = write(tmp_path, "broken.json", alg)
    out = str(tmp_path / "report.json")
    assert main(["validate-algebra", path, "--out", out]) == 1
    report = read(out)
    assert report["ok"] is False
    assert report["failures"][0]["condition"] == "assoc"


def test_check_twisting_ok(ncd_file, tmp_path):
    out = str(tmp_path / "verdict.json")
    assert main(["check-twisting", ncd_file, "--out", out]) == 0
    payload = read(out)
    assert payload["ok"] is True
    assert set(payload["reports"]) == {"direct", "rho", "phi", "rep", "oracle"}


def test_check_twisting_negative_tags_condition(bad_ncd_file, tmp_path):
    out = str(tmp_path / "verdict.json")
    assert main(["check-twisting", bad_ncd_file, "--checker", "direct", "--out", out]) == 1
    payload = read(out)
    assert payload["ok"] is False
    assert payload["failures"][0]["condition"].startswith("direct.")


def test_build_product_roundtrips(ncd_file, tmp_path):
    out = str(tmp_path / "product.json")
    assert main(["build-product", ncd_file, "--out", out]) == 0
    payload = read(out)
    assert payload["ok"] is True
    product = serialize.algebra_from_json(payload["product"])
    assert product.dim == 4
    assert validate_algebra(product).ok


@pytest.mark.parametrize("command", ["build-product", "represent", "rebase"])
def test_build_product_refuses_nontwisting(command, bad_ncd_file, tmp_path, capsys):
    """Every certified subcommand writes the same refusal, the direct report,
    and exits 1; ``rebase`` refuses before it reads ``--matrix``, so a
    missing matrix file is never opened."""
    extra = ["--matrix", str(tmp_path / "missing.json")] if command == "rebase" else []
    out = str(tmp_path / "product.json")
    assert main([command, bad_ncd_file, *extra, "--out", out]) == 1
    assert read(out)["ok"] is False
    family = serialize.candidate_from_json(read(bad_ncd_file)).family
    report = twisting.route_reports(family, ["direct"])["direct"]
    refusal = serialize.dumps({"ok": False, "report": serialize.report_to_json(report)})
    assert Path(out).read_text(encoding="utf-8") == refusal
    assert main([command, bad_ncd_file, *extra]) == 1
    assert capsys.readouterr() == (refusal, "")


def test_refused_candidate_builds_its_report_once(bad_ncd_file, tmp_path, monkeypatch):
    """``certify`` decides with the lazy verdict; only the refusal report is full."""
    full = twisting.route_reports
    calls = []

    def counted(c, routes):
        calls.append((c, routes))
        return full(c, routes)

    monkeypatch.setattr(twisting, "route_reports", counted)
    out = str(tmp_path / "product.json")
    assert main(["build-product", bad_ncd_file, "--out", out]) == 1
    assert len(calls) == 1
    assert read(out)["report"] == serialize.report_to_json(full(*calls[0])["direct"])


def test_represent_shows_duplicate_matrices(ncd_file, tmp_path):
    out = str(tmp_path / "rep.json")
    assert main(["represent", ncd_file, "--out", out]) == 0
    payload = read(out)
    # the X image is the scalar structure matrix with unit-coordinate entries
    phi_x = payload["phi_chi"]["B"][1]
    assert phi_x == [
        [["0", "0"], ["0", "0"]],
        [["1", "1"], ["1", "1"]],
    ]
    assert len(payload["rho_hat"]) == 2


def test_rebase_cli(ncd_file, tmp_path):
    pfile = write(tmp_path, "p.json", [["1", "0"], ["-1", "1"]])
    out = str(tmp_path / "rebased.json")
    assert main(["rebase", ncd_file, "--matrix", pfile, "--out", out]) == 0
    payload = read(out)
    assert payload["ok"] is True
    rebased = serialize.candidate_from_json(payload["candidate"])
    assert rebased.B == kn_algebra(QQ, 2)


def _extend_input(tmp_path, **fields):
    from twistkit import direct_sum, GammaFamily

    a = kn_algebra(F2, 2)
    theta = certify(GammaFamily.flip(a, kn_algebra(F2, 2)))
    ups = certify(GammaFamily.flip(a, kn_algebra(F2, 1)))
    psi = serialize.candidate_to_json(direct_sum(theta, ups))
    return write(tmp_path, "psi.json", {"psi": psi, **fields})


def test_extend_cli(tmp_path):
    path = _extend_input(tmp_path, n=2, m=1)
    out = str(tmp_path / "ext.json")
    assert main(["extend", path, "--blocks", "--out", out]) == 0
    result = read(out)
    assert result["ok"] is True
    assert set(result["blocks"]) == {"B1", "B2", "C1", "C2"}


def test_extend_blocks_splits_once(tmp_path, monkeypatch):
    """``--blocks`` splits the candidate once, for the block dump."""
    from twistkit import extension

    calls = []
    split = extension.split_blocks
    monkeypatch.setattr(extension, "split_blocks", lambda *a, **k: calls.append(a) or split(*a, **k))
    path = _extend_input(tmp_path, n=2)
    assert main(["extend", path, "--blocks", "--out", str(tmp_path / "ext.json")]) == 0
    assert len(calls) == 1


def test_extend_wrong_m_is_usage_error(tmp_path, capsys):
    path = _extend_input(tmp_path, n=2, m=2)
    assert main(["extend", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: expected m = 1, got 2\n"


def test_extend_conflicting_n_is_usage_error(tmp_path, capsys):
    """A ``--n`` that differs from the file's ``n`` is refused, not dropped."""
    path = _extend_input(tmp_path, n=2)
    assert main(["extend", path, "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --n 1 conflicts with n = 2 in the input\n")
    assert main(["extend", path, "--n", "2", "--out", str(tmp_path / "ext.json")]) == 0


def test_quiver_cli(tmp_path):
    from twistkit import GammaFamily

    a = kn_algebra(F2, 2)
    cand = certify(GammaFamily.flip(a, kn_algebra(F2, 2)))
    path = write(tmp_path, "kn.json", serialize.candidate_to_json(cand))
    out = str(tmp_path / "quiver.json")
    assert main(["quiver", path, "--out", out]) == 0
    payload = read(out)
    assert payload["vertices"] == ["v1", "v2"]
    assert [(arrow["source"], arrow["target"]) for arrow in payload["arrows"]] == [(0, 0), (1, 1)]


def test_catalog_cli(tmp_path):
    params = {
        "A": serialize.algebra_to_json(kn_algebra(QQ, 2)),
        "f": [["1", "0"], ["1", "0"]],
        "delta": [["0", "0"], ["0", "0"]],
    }
    path = write(tmp_path, "params.json", params)
    out = str(tmp_path / "cand.json")
    assert main(["catalog", "ncd", path, "--out", out]) == 0
    payload = read(out)
    assert payload["verdict"]["ok"] is True
    assert payload["family_conditions"]["ok"] is True
    cand = serialize.candidate_from_json(payload["candidate"])
    assert cand.B == duplicate_algebra(QQ)


_ENDO, _ZERO = [["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]
_CATALOG_PARAMS = {
    "ncd": {"f": [["1", "0"], ["1", "0"]], "delta": _ZERO},
    "qdup": {"f": _ENDO, "delta": _ZERO, "alpha": "1", "beta": "0"},
    "kn": {"n": 2, "gamma": [[_ENDO, _ZERO], [_ZERO, _ENDO]]},
    "trunc": {"n": 3, "first_row": [_ZERO, _ENDO, _ZERO]},
    "trunc-gamma": {"n": 2, "gamma": [[_ENDO, _ZERO], [_ZERO, _ENDO]]},
}


@pytest.mark.parametrize("name", sorted(_CATALOG_PARAMS))
def test_catalog_cli_builds_its_candidate_once(name, tmp_path, monkeypatch):
    """The family conditions run on the candidate the command builds and
    validates, not on a second one built from the same parameters."""
    from twistkit import catalog

    built = []

    def counted(*args):
        built.append(args)
        return twisting.GammaFamily(*args)

    monkeypatch.setattr(catalog, "GammaFamily", counted)
    params = {"A": serialize.algebra_to_json(kn_algebra(QQ, 2)), **_CATALOG_PARAMS[name]}
    path = write(tmp_path, "params.json", params)
    assert main(["catalog", name.split("-")[0], path, "--out", str(tmp_path / "out.json")]) in (0, 1)
    assert len(built) == 1


def test_enumerate_cli(tmp_path):
    k1 = serialize.algebra_to_json(kn_algebra(F2, 1))
    a_path = write(tmp_path, "a.json", k1)
    b_path = write(tmp_path, "b.json", k1)
    out = str(tmp_path / "hits.jsonl")
    assert main(["enumerate", "--A", a_path, "--B", b_path, "--checker", "all", "--out", out]) == 0
    lines = [json.loads(line) for line in Path(out).read_text(encoding="utf-8").splitlines()]
    assert [line["index"] for line in lines] == [1]
    assert lines[0]["gamma"] == [[[["1"]]]]


def test_cross_validate_cli(tmp_path):
    k1 = serialize.algebra_to_json(kn_algebra(F2, 1))
    a_path = write(tmp_path, "a.json", k1)
    b_path = write(tmp_path, "b.json", k1)
    out = str(tmp_path / "cv.json")
    assert main(["cross-validate", "--A", a_path, "--B", b_path, "--out", out]) == 0
    assert read(out)["ok"] is True


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["validate-algebra", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_search_is_usage_error(tmp_path, capsys):
    """Every route's coset of F_2 K^3 x K^3 holds 2^36 grids, over the guard."""
    k3 = serialize.algebra_to_json(kn_algebra(F2, 3))
    a_path = write(tmp_path, "a.json", k3)
    assert main(["enumerate", "--A", a_path, "--B", a_path]) == 2
    assert main(["cross-validate", "--A", a_path, "--B", a_path]) == 2
    assert capsys.readouterr().err.count("exceed the guard of 16777216") == 2


def test_unsolvable_coset_system_is_usage_error(tmp_path, capsys, monkeypatch):
    """Two 10-dimensional algebras give N = 10^4 free entries, over the guard
    on N: both commands exit 2 before any unit-family system is built."""
    from twistkit import search

    built = []
    monkeypatch.setattr(search, "_unit_residual", lambda *args: built.append(args))
    a_path = write(tmp_path, "a.json", serialize.algebra_to_json(kn_algebra(F2, 10)))
    assert main(["enumerate", "--A", a_path, "--B", a_path, "--checker", "rep"]) == 2
    assert main(["cross-validate", "--A", a_path, "--B", a_path]) == 2
    assert capsys.readouterr().err.count("10000 free entries exceed the guard of 256") == 2
    assert built == []


def test_negative_start_is_usage_error(tmp_path, capsys):
    k2 = serialize.algebra_to_json(kn_algebra(F2, 2))
    a_path = write(tmp_path, "a.json", k2)
    common = ["--A", a_path, "--B", a_path, "--from", "-1"]
    for command in (["enumerate", *common], ["cross-validate", *common], ["enumerate", *common, "--to", "5"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err == "error: index -1 out of range for 65536 candidates\n"


def test_empty_ranges_exit_zero(tmp_path):
    k2 = serialize.algebra_to_json(kn_algebra(F2, 2))
    a_path = write(tmp_path, "a.json", k2)
    out = str(tmp_path / "out")
    for rng in (["--from", "9", "--to", "3"], ["--from", "65536"], ["--to", "-1"]):
        common = ["--A", a_path, "--B", a_path, *rng, "--out", out]
        assert main(["enumerate", *common]) == 0
        assert Path(out).read_text(encoding="utf-8") == ""
        assert main(["cross-validate", *common]) == 0
        assert read(out) == {"failures": [], "ok": True}


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["validate-algebra", str(path)]) == 2


def test_output_roundtrip_stdout(ncd_file, capsys):
    assert main(["check-twisting", ncd_file, "--checker", "oracle"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["ok"] is True


def test_module_entry_point(ncd_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "twistkit", "check-twisting", ncd_file, "--checker", "direct"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    help_proc = subprocess.run(
        [sys.executable, "-m", "twistkit", "enumerate", "--help"],
        capture_output=True,
        text=True,
    )
    assert help_proc.returncode == 0
    assert "--checker" in help_proc.stdout


def test_parser_is_built_once_per_process(dup_file, ncd_file, bad_ncd_file, tmp_path, capsys, monkeypatch):
    """Different subcommands in one process share one parser, and give the
    stdout, stderr and exit codes of runs that each build a fresh parser."""
    from twistkit import cli

    k1 = write(tmp_path, "k1.json", serialize.algebra_to_json(kn_algebra(F2, 1)))
    commands = [
        ["validate-algebra", dup_file],
        ["check-twisting", ncd_file],
        ["check-twisting", bad_ncd_file, "--checker", "rho"],
        ["build-product", bad_ncd_file],
        ["represent", ncd_file],
        ["enumerate", "--A", k1, "--B", k1, "--checker", "all"],
        ["cross-validate", "--A", k1, "--B", k1, "--from", "1"],
        ["extend", ncd_file],
        ["check-twisting", ncd_file, "--checker", "none"],
        ["validate-algebra", str(tmp_path / "missing.json")],
    ]

    def run_all():
        results = []
        for command in commands:
            try:
                code = cli.main(command)
            except SystemExit as exc:  # argparse usage error
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cli._build_parser.cache_clear()
    shared = run_all()
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 0, 1, 1, 0, 0, 0, 2, 2, 2]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == shared


def test_check_twisting_all_runs_each_representation_once(ncd_file, bad_ncd_file, tmp_path, monkeypatch):
    """``--checker all`` runs each generator of the route table once: the rep
    report is the rho failures, then the phi failures."""
    runs = []

    def counting(pairs):
        def counted(*args):
            runs.append(pairs.__name__)
            return pairs(*args)

        return counted

    counted = {pairs: counting(pairs) for entry in twisting.CHECKS.values() for pairs in entry.pairs}
    for check, entry in list(twisting.CHECKS.items()):
        monkeypatch.setitem(twisting.CHECKS, check, entry._replace(pairs=tuple(counted[pairs] for pairs in entry.pairs)))
    out = str(tmp_path / "verdict.json")
    for path, code in ((ncd_file, 0), (bad_ncd_file, 1)):
        runs.clear()
        assert main(["check-twisting", path, "--out", out]) == code
        assert sorted(runs) == ["_direct_pairs", "_oracle_pairs", "_phi_pairs", "_rho_pairs"]
        reports = read(out)["reports"]
        joined = reports["rho"]["failures"] + reports["phi"]["failures"]
        assert reports["rep"] == {"failures": joined, "ok": not joined}


def _f2_candidate_files(tmp_path):
    a = kn_algebra(F2, 2)
    flip = twisting.GammaFamily.flip(a, a)
    grid = [[[[1, 0], [0, 1]], [[0, 0], [1, 0]]], [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]]
    bad = twisting.GammaFamily(a, a, F2.asarray(grid))
    return {
        "f2-flip": (write(tmp_path, "f2_flip.json", serialize.candidate_to_json(flip)), 0),
        "f2-bad": (write(tmp_path, "f2_bad.json", serialize.candidate_to_json(bad)), 1),
    }


def test_each_checker_prints_its_report_of_checker_all(ncd_file, bad_ncd_file, tmp_path):
    """``--checker X`` writes exactly ``reports[X]`` of ``--checker all``, for
    every route of the table, on accepted and rejected candidates over F_2 and Q."""
    files = {"q-ncd": (ncd_file, 0), "q-bad": (bad_ncd_file, 1), **_f2_candidate_files(tmp_path)}
    out = str(tmp_path / "verdict.json")
    for name, (path, code) in files.items():
        assert main(["check-twisting", path, "--checker", "all", "--out", out]) == code, name
        reports = read(out)["reports"]
        assert list(reports) == sorted(twisting.ROUTES)
        for route in twisting.ROUTES:
            single = main(["check-twisting", path, "--checker", route, "--out", out])
            assert read(out) == reports[route], (name, route)
            assert single == (0 if reports[route]["ok"] else 1), (name, route)
        assert {r["ok"] for r in reports.values()} == {code == 0}, name


def test_check_twisting_all_clears_the_grid_once(ncd_file, bad_ncd_file, tmp_path, monkeypatch):
    """One image per check: the grid and the structure constants and units of
    A and B are each cleared once (``Field.cleared``), and none of them is
    cleared again in any contraction, product or comparison of the check."""
    from twistkit import fields
    from twistkit.fields import Field

    inputs, clears = [], []
    original, clear = Field.cleared, fields._clear_denominators

    def cleared(self, x):
        inputs.append(x)
        return original(self, x)

    def counted(arr):
        clears.append(arr)  # held, so no two arrays share an id
        return clear(arr)

    monkeypatch.setattr(Field, "cleared", cleared)
    monkeypatch.setattr(fields, "_clear_denominators", counted)
    out = str(tmp_path / "verdict.json")
    for path, code in ((ncd_file, 0), (bad_ncd_file, 1)):
        inputs.clear()
        clears.clear()
        assert main(["check-twisting", path, "--checker", "all", "--out", out]) == code
        n, d = inputs[-1].shape[:2], inputs[-1].shape[-1]
        assert [x.shape for x in inputs] == [(d, d, d), (d,), n + (n[0],), n[:1], (*n, d, d)]
        assert len({id(x) for x in inputs}) == len(inputs)
        assert [sum(a is x for a in clears) for x in inputs] == [1] * len(inputs)
