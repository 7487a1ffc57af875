"""Golden standing-rule runs: small-grid versions of the runs whose
artifacts a pure refactor must keep byte for byte.

Each `*.json` beside this script holds one run: the CLI command, its
config document and the manifest `files` list (path, SHA-256, bytes) the
run wrote at `--seed 7`.  `tests/test_golden.py` reruns every config
through `specret.cli.main` and names each file whose hash moved.  This
script reruns them too, prints the files that changed, and writes the
new lists:

    PYTHONPATH=src python tests/golden/regen.py

A change that moves artifacts on purpose regenerates the goldens and
says in its notes which files moved.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
SEED = 7


def goldens() -> dict:
    """{name: golden document} of every run, by file name."""
    return {p.stem: json.loads(p.read_text()) for p in sorted(GOLDEN_DIR.glob("*.json"))}


def run(golden: dict, work: Path) -> list:
    """The manifest `files` list of the golden's run, made in `work`."""
    from specret.cli import main

    config = work / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([golden["command"], "--config", str(config), "--out", str(out),
                     "--seed", str(SEED)])
    if code != 0:
        raise RuntimeError(f"{golden['command']} exited {code}")
    return json.loads((out / "manifest.json").read_text())["files"]


def moved(want: list, have: list) -> list:
    """The paths whose entry differs between two `files` lists, or that
    only one of them holds."""
    want, have = ({f["path"]: f for f in files} for files in (want, have))
    return sorted(p for p in want.keys() | have.keys() if want.get(p) != have.get(p))


def main() -> int:
    for name, golden in goldens().items():
        with tempfile.TemporaryDirectory() as work:
            files = run(golden, Path(work))
        for path in moved(golden["files"], files):
            print(f"{name}: {path}")
        golden["files"] = files
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
