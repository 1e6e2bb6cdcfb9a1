#!/usr/bin/env python3
"""Recompute the expected answers in ``pinned.json``.

    python3 bench/pin.py [sweep|verify]...

``sweep``: the accepted index list of each of the 16 F_2 spaces, from a full
``twistkit enumerate --checker direct``; every space must also pass
``twistkit cross-validate`` (three-route unanimity) before its list is kept.
``verify``: the SHA-256 digest of every verify-q request's output bytes at
the default seed.  Run this only at a commit whose outputs are trusted; the
benchmark then holds every later commit to the same answers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"


def pin_sweep(workdir: Path) -> dict:
    import sweep_f2
    from twistkit import cli

    inputs = sweep_f2.make_inputs(0, workdir, {"sweep_f2": {}})
    lists = {}
    for a in sweep_f2.PRESENTATIONS:
        for b in sweep_f2.PRESENTATIONS:
            args = ["--A", inputs.files[a], "--B", inputs.files[b]]
            out = workdir / "cross.json"
            if cli.main(["cross-validate", *args, "--out", str(out)]) != 0:
                raise SystemExit(f"cross-validate failed on {a}/{b}: {out.read_text()}")
            out = workdir / "enum.jsonl"
            if cli.main(["enumerate", *args, "--checker", "direct", "--out", str(out)]) != 0:
                raise SystemExit(f"enumerate failed on {a}/{b}")
            lines = out.read_text(encoding="utf-8").splitlines()
            lists[sweep_f2.space_key(a, b)] = [json.loads(line)["index"] for line in lines]
            print(a, b, lists[sweep_f2.space_key(a, b)], flush=True)
    return lists


def pin_verify(workdir: Path) -> dict:
    import verify_q

    inputs = verify_q.make_inputs(verify_q.DEFAULT_SEED, workdir, {})
    digests = []
    ops = [op for r in range(verify_q.PASSES) for op in verify_q.pass_ops(inputs, r)]
    for op in ops:
        out = op.run()
        error = op.check(out)
        if error:
            raise SystemExit(f"request failed: {error}")
        digests.append(out["digest"])
    return {"seed": verify_q.DEFAULT_SEED, "digests": digests}


def main(argv: list[str]) -> int:
    import run

    run.import_twistkit()
    pinned = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    parts = argv or ["sweep", "verify"]
    with tempfile.TemporaryDirectory(dir=run.out_dir()) as tmp:
        if "sweep" in parts:
            pinned["sweep_f2"] = pin_sweep(Path(tmp))
        if "verify" in parts:
            pinned["verify_q"] = pin_verify(Path(tmp))
    text = json.dumps(pinned, sort_keys=True, indent=1)
    PINNED.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
