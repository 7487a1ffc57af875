"""Full-size standing-rule runs: every run whose artifacts a pure refactor
must keep byte for byte, compared between this tree and another checkout
(for example a `git archive` of the parent commit):

    python tests/golden/standing.py --against DIR [--only NAME ...]

Each run goes through `python -m specret COMMAND --seed 7` in a fresh
process, once with this tree's `src` and once with DIR's.  For every run
the script prints each side's wall time and minor page faults (the
kernel filling in fresh pages) and each manifest file as identical or
changed (a file only one side wrote counts as changed), and it exits 1
on any change or any nonzero exit; the times and faults never decide it.
A run's wall time covers the whole process, the interpreter and the
imports included, and one run of each side is a rough reading only.  Under a changed
`result.json`, `bounds.json` or `summary.json` it prints each numeric
field, this tree's value and its move relative to DIR's; under a changed
`reconstruction.bin`, the largest sample move relative to DIR's largest
sample.  The small-grid versions of these runs are pinned in tier-1 by
`tests/test_golden.py`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEED = 7
ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
from specret.container import read_signal  # noqa: E402

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


def minor_faults() -> int:
    """Minor page faults of every child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run(tree: Path, command: str, config: Path, out: Path) -> tuple[list | None, float, int]:
    """The manifest `files` list of one run with tree's `src`, or None if
    the run exited nonzero, the run's wall time in seconds and its minor
    page faults."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "specret", command, "--config", str(config),
            "--out", str(out), "--seed", str(SEED)]
    before, start = minor_faults(), time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True, text=True)
    wall, faults = time.perf_counter() - start, minor_faults() - before
    if done.returncode != 0:
        print(f"  {tree}: exit {done.returncode}: {done.stderr.strip()}")
        return None, wall, faults
    return json.loads((out / "manifest.json").read_text())["files"], wall, faults


def leaves(doc, key=""):
    """Yield (dotted key, value) for every scalar in a JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from leaves(v, f"{key}[{i}]")
    else:
        yield key, doc


def relative(this: float, base: float) -> float:
    return 0.0 if this == base else abs(this - base) / abs(base) if base else float("inf")


def moves(path: str, this: Path, base: Path) -> list[str]:
    """The lines that say how a changed file moved: each numeric field of a
    report, or the largest move of a reconstruction."""
    name = Path(path).name
    if not ((this / path).exists() and (base / path).exists()):
        return []
    if name == "reconstruction.bin":
        a, b = (read_signal(side / path).values for side in (this, base))
        if a.shape != b.shape:
            return [f"{a.shape} samples against {b.shape}"]
        move = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
        return [f"largest sample move {move:.2g} of the maximum"]
    if name not in ("result.json", "bounds.json", "summary.json"):
        return []
    a, b = (dict(leaves(json.loads((side / path).read_text()))) for side in (this, base))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numeric:
            lines.append(f"{key}: {x!r} (moved {relative(x, y):.2g} relative)")
        elif x != y:
            lines.append(f"{key}: {x!r}, was {y!r}")
    return lines


def compare(name: str, command: str, doc: dict, against: Path) -> bool:
    """Run one config on both trees and print each file's verdict; True if
    every file is identical."""
    print(f"{name} ({command})")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = work / "config.json"
        config.write_text(json.dumps(doc))
        sides, walls, faults = zip(*(run(tree, command, config, work / label)
                                     for tree, label in ((ROOT, "this"), (against, "base"))))
        print(f"  wall time: this {walls[0]:.3f} s, base {walls[1]:.3f} s")
        print(f"  minor page faults: this {faults[0]}, base {faults[1]}")
        if None in sides:
            return False
        this, base = ({f["path"]: f for f in files} for files in sides)
        same = True
        for path in sorted(this.keys() | base.keys()):
            verdict = "identical" if this.get(path) == base.get(path) else "changed"
            same &= verdict == "identical"
            print(f"  {path}: {verdict}")
            if verdict == "changed":
                for line in moves(path, work / "this", work / "base"):
                    print(f"    {line}")
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
