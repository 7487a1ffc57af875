"""Full-size standing-rule runs: every run whose artifacts a pure refactor
must keep byte for byte, compared between this tree and another checkout
(for example a `git archive` of the parent commit):

    python tests/golden/standing.py --against DIR [--only NAME ...]

Each run goes through `python -m specret COMMAND --seed 7` in a fresh
process, once with this tree's `src` and once with DIR's.  For every run
the script prints each manifest file as identical or changed (a file only
one side wrote counts as changed), and it exits 1 on any change or any
nonzero exit.  The small-grid versions of these runs are pinned in tier-1
by `tests/test_golden.py`.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 7
ROOT = Path(__file__).resolve().parents[2]

MIXTURE = {"signal": {"kind": "mixture"}}
W2 = {**MIXTURE, "scheme": {"kind": "hermite", "degrees": [50, 100]}, "epsilon": 0.5,
      "noise": {"model": "multiplicative", "level": 0.05}, "grid": {"T": 8.0, "L": 1024}}
FAN8 = {**MIXTURE, "scheme": {"kind": "frft_gauss", "a": 2.0, "n_windows": 8},
        "epsilon": 1e-3, "grid": {"T": 8.0, "L": 512}}
HERMITE3 = {**MIXTURE, "scheme": {"kind": "hermite", "degrees": [0, 5, 10]}, "epsilon": 0.5,
            "noise": {"model": "multiplicative", "level": 0.05}}
MULT5 = {"model": "multiplicative", "level": 0.05}

# name: (command, config document)
RUNS = {
    "w1": ("retrieve", {}),  # the default config: chirp, 40-window fan, L=1024
    "w2": ("retrieve", W2),
    "w2-json-off": ("retrieve", {**W2, "emit": {"json": False}}),
    "alg1-noisy-retrieve": ("retrieve", {**FAN8, "noise": MULT5}),
    "verify-bounds-fan": ("verify-bounds",
                          {**FAN8, "noise": {"model": "additive", "level": 0.01}}),
    "verify-bounds-hermite-50-100": ("verify-bounds", {**W2, "grid": {"T": 8.0, "L": 512}}),
    "verify-bounds-hermite-1024": ("verify-bounds", {**HERMITE3, "grid": {"T": 8.0, "L": 1024}}),
    "verify-bounds-hermite-256": ("verify-bounds", {**HERMITE3, "grid": {"T": 8.0, "L": 256}}),
    "random-study": ("random-study", {**MIXTURE, "epsilon": 0.5, "noise": MULT5,
                                      "grid": {"T": 8.0, "L": 512},
                                      "study": {"count": 6, "degree_min": 0, "degree_max": 50,
                                                "trials": 12}}),
    "baseline": ("baseline", {**MIXTURE, "epsilon": 1e-3, "noise": MULT5,
                              "grid": {"T": 8.0, "L": 512}}),
    "coverage-fan": ("coverage", {"scheme": {"kind": "frft_gauss", "a": 15.0, "n_windows": 40},
                                  "epsilon": 1e-3, "grid": {"T": 8.0, "L": 1024}}),
    "coverage-hermite": ("coverage", {"scheme": {"kind": "hermite", "degrees": [0, 5, 10, 20]},
                                      "epsilon": 0.1, "grid": {"T": 8.0, "L": 1024}}),
}


def run(tree: Path, command: str, config: Path, out: Path) -> list | None:
    """The manifest `files` list of one run with tree's `src`, or None if
    the run exited nonzero."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "specret", command, "--config", str(config),
            "--out", str(out), "--seed", str(SEED)]
    done = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  {tree}: exit {done.returncode}: {done.stderr.strip()}")
        return None
    return json.loads((out / "manifest.json").read_text())["files"]


def compare(name: str, command: str, doc: dict, against: Path) -> bool:
    """Run one config on both trees and print each file's verdict; True if
    every file is identical."""
    print(f"{name} ({command})")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = work / "config.json"
        config.write_text(json.dumps(doc))
        sides = [run(tree, command, config, work / label)
                 for tree, label in ((ROOT, "this"), (against, "base"))]
    if None in sides:
        return False
    this, base = ({f["path"]: f for f in files} for files in sides)
    same = True
    for path in sorted(this.keys() | base.keys()):
        verdict = "identical" if this.get(path) == base.get(path) else "changed"
        same &= verdict == "identical"
        print(f"  {path}: {verdict}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="checkout to compare with, holding src/specret")
    parser.add_argument("--only", nargs="+", choices=sorted(RUNS), help="run only these")
    args = parser.parse_args(argv)
    names = args.only or list(RUNS)
    results = [compare(name, *RUNS[name], args.against.resolve()) for name in names]
    print(f"{sum(results)} of {len(results)} runs identical")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
