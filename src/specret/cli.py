"""Experiment driver: coverage maps, end-to-end retrieval runs, the
single-window baseline, the randomized Hermite-window study, and
noise-bound verification, with JSON/CSV/PGM/WAV artifact emission.

Exit codes: 0 success, 2 config error or invalid input value, 3 numeric
failure (degenerate anchor, empty reconstruction region, or any float
overflow, division by zero or NaN in a run), 4 I/O error.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import container
from .ambiguity import hermite_ladder, hermite_rows, mirror_quadrant
from .config import ConfigError, load_config
from .exceptions import RetrievalError
from .grid import Grid, Signal
from .metrics import misfit, verify_noise_bounds
from .retrieval import RetrievalConfig, check_anchor, measure_lines, run_alg1, run_alg2, stored_plan
from .signals import chirp_preset, gen_chirp, gen_mixture, mixture_preset
from .wavio import load_wav, save_wav
from .windows import (
    COVERAGE_DIRECTIONS,
    WindowFamily,
    _check_unit_epsilon,
    build_frft_family,
    build_hermite_family,
    check_hermite_degree,
    coverage_radii,
    gauss_window_member,
)

AUDIO_MAX_SAMPLES = 8192
AUDIO_TAPER_FRACTION = 0.05
# L x L complex workspaces, 16 bytes a cell each, counted beside one power
# a window, which the measurement stream (`_measure`) no longer holds: a
# noisy retrieve peaked at 1.0-1.8 of them above the powers and
# `verify-bounds` at 1.0-1.7 when it did (L=512), and the margin covers
# the fixed overheads below L=512.
WORKSPACE_COMPLEX_ARRAYS = 8


def audio_grid(L: int) -> Grid:
    """Square-ish lattice for an audio segment: dt = 1/s with s the next
    power of two above sqrt(L), so the ambiguity lattice is balanced."""
    s = 2 ** math.ceil(math.log2(math.sqrt(L)))
    return Grid(T=L / (2.0 * s), L=L)


def prepare_audio(sig: Signal, L: int) -> tuple[Signal, int]:
    """Center-crop to at most L samples (hard cap 8192), taper the edges,
    and rebind to the square audio lattice.  Returns the sample rate."""
    rate = int(round(1.0 / sig.grid.dt))
    L = min(L, AUDIO_MAX_SAMPLES, sig.grid.L)
    if L % 2 == 1:
        L -= 1
    start = (sig.grid.L - L) // 2
    chunk = sig.values[start: start + L].copy()
    ramp = max(2, int(AUDIO_TAPER_FRACTION * L))
    window = np.ones(L)
    edge = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
    window[:ramp] = edge
    window[-ramp:] = edge[::-1]
    return Signal(grid=audio_grid(L), values=chunk * window), rate


def _build_grid(cfg: dict) -> Grid:
    return Grid(T=float(cfg["grid"]["T"]), L=int(cfg["grid"]["L"]))


def _build_signal(cfg: dict) -> tuple[Signal, int | None]:
    kind = cfg["signal"]["kind"]
    if kind == "wav":
        raw = load_wav(cfg["signal"]["path"])
        sig, rate = prepare_audio(raw, int(cfg["grid"]["L"]))
        return sig, rate
    grid = _build_grid(cfg)
    if kind == "chirp":
        return gen_chirp(chirp_preset(), grid), None
    return gen_mixture(mixture_preset(), grid), None


def _window_count(scheme: dict) -> int:
    if scheme["kind"] == "frft_gauss":
        return int(scheme["n_windows"]) if "n_windows" in scheme else len(scheme["angles"])
    return len(scheme["degrees"])


def _build_family(cfg: dict, grid: Grid):
    scheme = cfg["scheme"]
    if scheme["kind"] == "frft_gauss":
        return build_frft_family(float(scheme["a"]), _window_count(scheme), grid,
                                 angles=scheme.get("angles"))
    return build_hermite_family(scheme["degrees"], grid)


def _retrieval_config(cfg: dict) -> RetrievalConfig:
    algorithm = cfg.get("algorithm") or (
        "alg1" if cfg["scheme"]["kind"] == "frft_gauss" else "alg2"
    )
    return RetrievalConfig(
        epsilon=float(cfg["epsilon"]),
        anchor=cfg.get("anchor"),
        algorithm=algorithm,
    )


def _measure(command: str, cfg: dict, f: Signal, family: WindowFamily, rcfg: RetrievalConfig):
    """The run path of every measuring command: the anchor check, the plan,
    built first while nothing else is held and stored in the family for
    rcfg's runner, and the measurement stream (`measure_lines`), which
    holds no power.  Returns (lines, report): each group's lines for the
    runner (None for `verify-bounds`) and, for `verify-bounds` (against f
    as the true signal) and a `retrieve` that writes result.json,
    `verify_noise_bounds`' report on the noise lines, else None.
    """
    check_anchor(rcfg, f.grid)  # before the plan, the STFTs and the noise
    plan = stored_plan(family, rcfg)
    noise = cfg["noise"]
    if noise["model"] == "none":
        return measure_lines(f, family, plan)[0], None
    draws = (noise["model"], float(noise["level"]), int(noise.get("seed", cfg["seed"])))
    bounds = command == "verify-bounds"
    # nothing reads a bound report but result.json
    check = bounds or (command == "retrieve" and cfg["emit"].get("json", True))
    lines, noise_lines = measure_lines(f, family, plan, draws, sums=not bounds, noise_sums=check)
    return lines, (verify_noise_bounds(noise_lines, plan, f_true=f if bounds else None)
                   if check else None)


def estimate_bytes(command: str, cfg: dict) -> int:
    """Upper estimate of the peak bytes a command needs, from L, the number
    of windows and the noise model alone.  It counts one float64 L x L
    power a window, which the stream (`_measure`) no longer holds: each
    group's lines take its place, at most L/2 + 1 complex lines of L
    cells, twice with the noise-bound check, which the count covers up to
    14 groups of full-width lines beside the plan and J.  A fan's `coverage` adds its polar scan
    (`coverage_radii`), a few float arrays of COVERAGE_DIRECTIONS cells
    whatever L is, and a Hermite `coverage` its members' quadrant mask
    bits."""
    L = int(cfg["grid"]["L"])
    if cfg["signal"]["kind"] == "wav":
        L = min(L, AUDIO_MAX_SAMPLES)
    if command == "coverage":
        held = 0
    elif command == "baseline":
        held = 1
    elif command == "random-study":
        held = int(cfg["study"]["count"])
    else:
        held = _window_count(cfg["scheme"])
    lines = 2 * 16 * L * (L // 2 + 1) if held and cfg["noise"]["model"] != "none" else 0
    extra = 0
    if command == "coverage" and cfg["scheme"]["kind"] == "frft_gauss":
        extra = 6 * 8 * COVERAGE_DIRECTIONS  # the polar scan
    elif command == "coverage":
        extra = _window_count(cfg["scheme"]) * (L // 2 + 1) ** 2  # a quadrant mask a member
    return L * L * (8 * held + 16 * WORKSPACE_COMPLEX_ARRAYS) + lines + extra


def check_size(command: str, cfg: dict):
    """Reject, before anything is allocated, a run whose estimate exceeds
    the machine's physical memory."""
    need = estimate_bytes(command, cfg)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"{command} at L={cfg['grid']['L']} needs about {need / 2**30:.1f} GiB, "
                          f"more than the {have / 2**30:.1f} GiB of physical memory")


class ArtifactWriter:
    """Serializes all artifact writes and records hashes for the manifest."""

    def __init__(self, out_dir: Path, command: str, cfg: dict):
        self.dir = out_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.cfg = cfg
        self.files: list[dict] = []

    def path(self, name: str) -> Path:
        return self.dir / name

    def record(self, name: str):
        p = self.path(name)
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        self.files.append({"path": name, "sha256": digest, "bytes": p.stat().st_size})

    def write_json(self, name: str, payload: dict):
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")
        self.record(name)

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "config": self.cfg,
            "files": sorted(self.files, key=lambda f: f["path"]),
            "metadata": {
                "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()
            },
        }
        path = self.path("manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")
        return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _emit_reconstruction(writer: ArtifactWriter, cfg: dict, recon, f: Signal,
                         rate: int | None, extra: dict | None = None):
    d, theta = misfit(f, recon.signal)
    print(f"misfit d = {d:.6g}  theta* = {theta:.6g}")
    emit = cfg["emit"]
    if emit.get("csv", True):
        container.signal_to_csv(recon.signal, writer.path("reconstruction.csv"))
        writer.record("reconstruction.csv")
    container.write_signal(recon.signal, writer.path("reconstruction.bin"), desc="reconstruction")
    writer.record("reconstruction.bin")
    if emit.get("pgm", True):
        container.write_pgm_mask(recon.plan.omega, writer.path("omega.pgm"))
        writer.record("omega.pgm")
    if emit.get("wav", False) and rate is not None:
        save_wav(recon.signal, writer.path("reconstruction.wav"), sample_rate=rate)
        writer.record("reconstruction.wav")
    if emit.get("json", True):
        payload = {
            "misfit": d,
            "theta_star": theta,
            "anchor_index": recon.anchor_c,
            "omega_area_fraction": recon.omega_area_fraction,
            "epsilon": cfg["epsilon"],
        }
        if extra:
            payload.update(extra)
        writer.write_json("result.json", payload)
    return d, theta


def cmd_retrieve(cfg: dict, out_dir: Path) -> int:
    f, rate = _build_signal(cfg)
    rcfg = _retrieval_config(cfg)
    family = _build_family(cfg, f.grid)
    # the bound report goes only into result.json, and J is never alive beside the noise
    lines, report = _measure("retrieve", cfg, f, family, rcfg)
    runner = run_alg1 if rcfg.algorithm == "alg1" else run_alg2
    recon = runner(lines, family, rcfg)
    writer = ArtifactWriter(out_dir, "retrieve", cfg)
    _emit_reconstruction(writer, cfg, recon, f, rate,
                         None if report is None else {"noise_bounds": report._asdict()})
    writer.finish()
    return 0


def cmd_baseline(cfg: dict, out_dir: Path) -> int:
    """Single standard-Gauss window baseline at the configured tolerance:
    `retrieve`'s alg2 path on a one-window family."""
    f, rate = _build_signal(cfg)
    rcfg = replace(_retrieval_config(cfg), algorithm="alg2")
    family = WindowFamily(members=(gauss_window_member(1.0, f.grid),), grid=f.grid)
    lines, _ = _measure("baseline", cfg, f, family, rcfg)
    recon = run_alg2(lines, family, rcfg)
    writer = ArtifactWriter(out_dir, "baseline", cfg)
    _emit_reconstruction(writer, cfg, recon, f, rate)
    writer.finish()
    return 0


def cmd_coverage(cfg: dict, out_dir: Path) -> int:
    """Emit the joint ambiguity coverage of the configured window family.

    Coverage maps threshold the raw analytic ambiguity values (unit
    peaks), matching the stability-set definition.
    """
    grid = _build_grid(cfg)
    family = _build_family(cfg, grid)
    eps = float(cfg["epsilon"])
    writer = ArtifactWriter(out_dir, "coverage", cfg)
    emit = cfg["emit"]
    scheme = cfg["scheme"]
    payload: dict = {"epsilon": eps, "scheme": scheme["kind"]}
    if scheme["kind"] == "frft_gauss":
        summed = family.summed_on_lattice()
        if emit.get("pgm", True):
            container.write_pgm_heatmap(summed, writer.path("summed_ambiguity.pgm"))
            writer.record("summed_ambiguity.pgm")
        union = summed > eps
        a = float(scheme["a"])
        N = len(family.members)
        # the radii are those of the pi/N fan; listed angles make another union
        if "angles" not in scheme and a > 1 and N >= 3 and eps < 2 ** -0.5:
            payload["coverage_radii"] = coverage_radii(a, N, eps)._asdict()
        else:
            payload["coverage_radii"] = None
    else:
        # each member's stability mask |A h_n| > eps, held as quadrant bits
        # from one Laguerre run, with eps as the floor, and mirrored once
        _check_unit_epsilon(eps)
        h1 = grid.L // 2 + 1
        quadrants = np.zeros((len(family), h1, h1), dtype=bool)
        degrees = [m.evaluator.n for m in family.members]
        for rows in hermite_rows(degrees, grid, eps):
            ladder = hermite_ladder(degrees, grid, rows)
            for quadrant in quadrants[:, rows]:
                np.greater(np.abs(next(ladder)), eps, out=quadrant)
        union = np.zeros((grid.L, grid.L), dtype=bool)
        bits = np.empty_like(union)
        payload["member_areas"] = []
        for member, quadrant in zip(family.members, quadrants):
            bits[:h1, :h1] = quadrant
            mirror_quadrant(bits)
            union |= bits
            if emit.get("pgm", True):
                name = f"mask_{member.window_id.replace('(', '_').replace(')', '').replace('=', '')}.pgm"
                container.write_pgm_mask(bits, writer.path(name))
                writer.record(name)
            payload["member_areas"].append(float(bits.sum() * grid.dt * grid.dy))
    if emit.get("pgm", True):
        container.write_pgm_mask(union, writer.path("union_mask.pgm"))
        writer.record("union_mask.pgm")
    container.write_mask(union, grid, writer.path("union_mask.bin"), desc="union mask")
    writer.record("union_mask.bin")
    payload["union_area"] = float(union.sum() * grid.dt * grid.dy)
    payload["union_cell_fraction"] = float(union.mean())
    if emit.get("json", True):
        writer.write_json("coverage.json", payload)
    writer.finish()
    return 0


def cmd_random_study(cfg: dict, out_dir: Path) -> int:
    """Repeated retrieval with randomly drawn Hermite degree sets."""
    study = cfg["study"]
    lo, hi, count, trials = (int(study["degree_min"]), int(study["degree_max"]),
                             int(study["count"]), int(study["trials"]))
    f, _ = _build_signal(cfg)
    check_hermite_degree(hi, f.grid)  # before the first draw
    rcfg = replace(_retrieval_config(cfg), algorithm="alg2")
    rng = np.random.default_rng(int(cfg["seed"]))
    rows = []
    for trial in range(trials):
        degrees = np.sort(rng.choice(np.arange(lo, hi + 1), size=count, replace=False))
        family = build_hermite_family(degrees.tolist(), f.grid)
        lines, _ = _measure("random-study", cfg, f, family, rcfg)
        recon = run_alg2(lines, family, rcfg)
        d, theta = misfit(f, recon.signal)
        del family, lines, recon  # the next trial measures beside none of them
        rows.append((trial, degrees.tolist(), d, theta))
        print(f"trial {trial}: degrees {degrees.tolist()} misfit {d:.6g}")
    writer = ArtifactWriter(out_dir, "random-study", cfg)
    with open(writer.path("trials.csv"), "w", newline="") as fh:
        fh.write("trial,degrees,misfit,theta_star\r\n")
        for trial, degrees, d, theta in rows:
            fh.write(f"{trial},{'|'.join(map(str, degrees))},{d!r},{theta!r}\r\n")
    writer.record("trials.csv")
    misfits = np.array([r[2] for r in rows])
    summary = {
        "trials": trials,
        "count": count,
        "degree_range": [lo, hi],
        "mean": float(misfits.mean()),
        "p90": float(np.percentile(misfits, 90)),
        "max": float(misfits.max()),
        "min": float(misfits.min()),
    }
    writer.write_json("summary.json", summary)
    print(f"mean misfit {summary['mean']:.6g}  p90 {summary['p90']:.6g}")
    writer.finish()
    return 0


def cmd_verify_bounds(cfg: dict, out_dir: Path) -> int:
    if cfg["noise"]["model"] == "none":
        raise ConfigError("verify-bounds needs a noise model")
    f, _ = _build_signal(cfg)
    family = _build_family(cfg, f.grid)
    _, report = _measure("verify-bounds", cfg, f, family, _retrieval_config(cfg))
    writer = ArtifactWriter(out_dir, "verify-bounds", cfg)
    writer.write_json("bounds.json", report._asdict())
    ok = all(report.satisfied)
    print(f"noise bounds satisfied: {ok}")
    writer.finish()
    return 0 if ok else 3


COMMANDS = {
    "coverage": cmd_coverage,
    "retrieve": cmd_retrieve,
    "baseline": cmd_baseline,
    "random-study": cmd_random_study,
    "verify-bounds": cmd_verify_bounds,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specret",
        description="Multi-window STFT phase retrieval experiments",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config document")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="base RNG seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, {"out": args.out, "seed": args.seed})
        check_size(args.command, cfg)
        out_dir = Path(cfg["out"])
        # a float overflow, zero division or NaN fails the run, not just warns
        with np.errstate(all="raise", under="ignore"):
            return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (RetrievalError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
