"""Command-line surface: JSON files in, canonical JSON reports out.

Exit codes: 0 when every verification passed (or the construction succeeded),
1 when a verification returned ok = false (the report is still written),
2 on input or usage errors (including oversized enumeration requests).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import basischange, catalog, extension, search, serialize, twisting
from .errors import DimensionMismatchError, SchemaError, TwistKitError
from .report import VerificationReport


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TwistKitError(f"cannot read {path}: {exc}") from None
    return serialize.loads(text)


def _read_object(path: str, context: str) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise TwistKitError(f"cannot write {out}: {exc}") from None


def _write_output(payload, out: str | None) -> None:
    _write_text(serialize.dumps(payload), out)


def _exit_for(report: VerificationReport) -> int:
    return 0 if report.ok else 1


# -- subcommand handlers ---------------------------------------------------------


def _cmd_validate_algebra(args) -> int:
    from .algebra import validate_algebra

    algebra = serialize.algebra_from_json(_read_json(args.input))
    report = validate_algebra(algebra)
    _write_output(serialize.report_to_json(report), args.out)
    return _exit_for(report)


def _cmd_check_twisting(args) -> int:
    candidate = serialize.candidate_from_json(_read_json(args.input))
    if args.checker == "all":
        reports = twisting.route_reports(candidate.family, twisting.ROUTES)
        ok = all(r.ok for r in reports.values())
        payload = {"ok": ok, "reports": {k: serialize.report_to_json(r) for k, r in reports.items()}}
        _write_output(payload, args.out)
        return 0 if ok else 1
    report = twisting.route_reports(candidate.family, [args.checker])[args.checker]
    _write_output(serialize.report_to_json(report), args.out)
    return _exit_for(report)


def _certified(args) -> twisting.TwistingCandidate:
    """The input candidate, certified; a refused one has its report written."""
    candidate = twisting.certify(serialize.candidate_from_json(_read_json(args.input)))
    if not candidate.verified:
        report = twisting.route_reports(candidate.family, ["direct"])["direct"]
        _write_output({"ok": False, "report": serialize.report_to_json(report)}, args.out)
    return candidate


def _cmd_build_product(args) -> int:
    candidate = _certified(args)
    if not candidate.verified:
        return 1
    product = twisting.build_twisted_product(candidate)
    _write_output(
        {"ok": True, "product": serialize.algebra_to_json(product.algebra)}, args.out
    )
    return 0


def _cmd_represent(args) -> int:
    candidate = _certified(args)
    if not candidate.verified:
        return 1
    family = candidate.family
    n, d = family.B.dim, family.A.dim
    payload = {
        "ok": True,
        "phi_chi": {
            "B": [
                serialize.algmatrix_to_json(twisting.lift_structure_matrix(family, k))
                for k in range(n)
            ],
            "A": [
                serialize.algmatrix_to_json(twisting.phi_hat(family, family.A.basis_element(p)))
                for p in range(d)
            ],
        },
        "rho_hat": [
            serialize.endomatrix_to_json(twisting.rho_hat(family, k)) for k in range(n)
        ],
    }
    _write_output(payload, args.out)
    return 0


def _cmd_rebase(args) -> int:
    candidate = _certified(args)
    if not candidate.verified:
        return 1
    p_mat = serialize.kmatrix_from_json(
        candidate.family.field, _read_json(args.matrix), "change-of-basis matrix"
    )
    result = basischange.rebase(candidate, p_mat)
    payload = {
        "ok": result.conjugation.ok and result.candidate.verified,
        "candidate": serialize.candidate_to_json(result.candidate),
        "conjugation": serialize.report_to_json(result.conjugation),
        "verified": result.candidate.verified,
    }
    _write_output(payload, args.out)
    return 0 if payload["ok"] else 1


def _cmd_extend(args) -> int:
    obj = _read_object(args.input, "extend")
    family = serialize.candidate_from_json(obj.get("psi", obj)).family
    n = serialize._expect_int(obj, "n", "extend") if "n" in obj else args.n
    if n is None:
        raise TwistKitError("the cut position n is required (in the file or via --n)")
    if args.n is not None and args.n != n:
        raise DimensionMismatchError(f"--n {args.n} conflicts with n = {n} in the input")
    _, second = extension.factor_algebras(family, n)
    m = serialize._expect_int(obj, "m", "extend") if "m" in obj else second.dim
    if m != second.dim:
        raise DimensionMismatchError(f"expected m = {second.dim}, got {m}")
    report = extension.check_extension_given_theta(family, n, require_gamma01_zero=not args.lemma_stage)
    payload = {"ok": report.ok, "report": serialize.report_to_json(report)}
    if args.blocks:
        blocks = extension.split_blocks(family, n)
        payload["blocks"] = {
            name: serialize.array_to_json(family.field, getattr(blocks, name))
            for name in ("B1", "B2", "C1", "C2")
        }
    _write_output(payload, args.out)
    return 0 if report.ok else 1


def _cmd_quiver(args) -> int:
    candidate = serialize.candidate_from_json(_read_json(args.input))
    quiver, rep = catalog.quiver_of(candidate)
    payload = {
        "vertices": list(quiver.vertices),
        "arrows": [
            {
                "source": source,
                "target": target,
                "map": serialize.kmatrix_to_json(rep.maps[(source, target)]),
            }
            for source, target in quiver.arrows
        ],
    }
    _write_output(payload, args.out)
    return 0


def _catalog_n(params: dict) -> int:
    """The size n of a K^n or truncated-polynomial carrier."""
    n = serialize._expect_int(params, "n", "catalog")
    if n <= 0:
        raise SchemaError(f"catalog: n must be a positive integer, got {n!r}")
    return n


def _cmd_catalog(args) -> int:
    params = _read_object(args.input, "catalog")
    a = serialize.algebra_from_json(params["A"])
    field = a.field
    d = a.dim
    if args.family == "ncd":
        f = serialize.kmatrix_from_json(field, params["f"], "f")
        delta = serialize.kmatrix_from_json(field, params["delta"], "delta")
        candidate = catalog.make_ncd(a, f, delta)
    elif args.family == "qdup":
        f = serialize.kmatrix_from_json(field, params["f"], "f")
        delta = serialize.kmatrix_from_json(field, params["delta"], "delta")
        alpha, beta = params["alpha"], params["beta"]
        candidate = catalog.make_quantum_duplicate(a, alpha, beta, f, delta)
    elif args.family == "kn":
        n = _catalog_n(params)
        grid = serialize.array_from_json(field, params["gamma"], (n, n, d, d), "catalog.gamma")
        candidate = catalog.make_kn(a, n, grid)
    else:  # trunc: argparse restricts the choices
        n = _catalog_n(params)
        if "first_row" in params:
            row = serialize.array_from_json(
                field, params["first_row"], (n, d, d), "catalog.first_row"
            )
            candidate = catalog.truncated_from_first_row(a, n, row)
        else:
            grid = serialize.array_from_json(field, params["gamma"], (n, n, d, d), "catalog.gamma")
            candidate = catalog.make_truncated(a, n, grid)
    reports = twisting.route_reports(candidate, [args.family, "direct"])
    payload = {
        "candidate": serialize.candidate_to_json(candidate),
        "verdict": serialize.report_to_json(reports["direct"]),
        "family_conditions": serialize.report_to_json(reports[args.family]),
    }
    _write_output(payload, args.out)
    return _exit_for(reports["direct"])


def _space_from_args(args) -> search.SearchSpace:
    a = serialize.algebra_from_json(_read_json(args.A))
    b = serialize.algebra_from_json(_read_json(args.B))
    return search.SearchSpace(a, b)


def _cmd_enumerate(args) -> int:
    space = _space_from_args(args)
    accepted = search.enumerate_space(space, checker=args.checker, start=args.start, stop=args.to)
    field = space.A.field
    lines = (
        serialize.dumps(
            {"index": idx, "gamma": serialize.array_to_json(field, space.gamma_of_index(idx))},
            compact=True,
        )
        + "\n"
        for idx in accepted
    )
    _write_text("".join(lines), args.out)
    return 0


def _cmd_cross_validate(args) -> int:
    space = _space_from_args(args)
    report = search.cross_validate(space, start=args.start, stop=args.to)
    _write_output(serialize.report_to_json(report), args.out)
    return _exit_for(report)


# -- parser -------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="twistkit",
        description="Exact verification and construction of twisting maps and "
        "twisted tensor products of finite-dimensional algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = add("validate-algebra", _cmd_validate_algebra, "check structure constants")
    p.add_argument("input", help="algebra JSON file")

    p = add("check-twisting", _cmd_check_twisting, "run twisting checkers on a candidate")
    p.add_argument("input", help="candidate JSON file")
    p.add_argument("--checker", choices=[*twisting.ROUTES, "all"], default="all")

    p = add("build-product", _cmd_build_product, "build the twisted tensor product")
    p.add_argument("input", help="candidate JSON file")

    p = add("represent", _cmd_represent, "emit the matrix representations")
    p.add_argument("input", help="candidate JSON file")

    p = add("rebase", _cmd_rebase, "rewrite a candidate in a new carrier basis")
    p.add_argument("input", help="candidate JSON file")
    p.add_argument("--matrix", required=True, help="JSON file with the new-basis columns")

    p = add("extend", _cmd_extend, "check the extension criterion on a product carrier")
    p.add_argument("input", help='JSON file {"psi": candidate, "n": cut} or candidate with --n')
    p.add_argument("--n", type=int, default=None, help="cut position (dim of the first factor); must agree with the file's n")
    p.add_argument("--lemma-stage", action="store_true", help="stop before the corner-vanishing strengthening")
    p.add_argument("--blocks", action="store_true", help="include the block dump")

    p = add("quiver", _cmd_quiver, "quiver and representation of a K^n candidate")
    p.add_argument("input", help="candidate JSON file")

    p = add("catalog", _cmd_catalog, "build a stock family candidate")
    p.add_argument("family", choices=["ncd", "qdup", "kn", "trunc"])
    p.add_argument("input", help="family parameter JSON file")

    p = add("enumerate", _cmd_enumerate, "enumerate accepted candidates over a prime field")
    p.add_argument("--A", required=True, help="algebra JSON file for A")
    p.add_argument("--B", required=True, help="algebra JSON file for B")
    p.add_argument("--checker", choices=[*twisting.UNIT_FAMILIES, "all"], default="direct")
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--to", dest="to", type=int, default=None)

    p = add("cross-validate", _cmd_cross_validate, "verdict unanimity of the three routes")
    p.add_argument("--A", required=True, help="algebra JSON file for A")
    p.add_argument("--B", required=True, help="algebra JSON file for B")
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--to", dest="to", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TwistKitError, ValueError, IndexError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
