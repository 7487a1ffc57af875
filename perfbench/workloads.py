"""The benchmark's workloads.

Each workload builds its inputs from the seed during set-up (or, per op,
in `prepare`, which runs outside the timed region), runs one operation per
`op` call and checks its output with the acceptance gate's thresholds.

* fan-chirp-1024: ROADMAP W1 through the library.  The seed sets a global
  phase on the chirp, which leaves every spectrogram and the misfit
  unchanged, so each seed is the same work on different bits.
* hermite-noisy-1024: ROADMAP W2 through the real user path, an
  in-process `specret.cli.main(["retrieve", ...])`; the seed is the CLI's
  `--seed`, which seeds the measurement noise.
* hermite-study-512: ROADMAP W3, the loop body of the `random-study`
  command through the library; the seed drives the degree draws, one
  fresh degree set per op.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class OpResult:
    op_s: float
    retrieve_s: float | None = None
    misfit: float | None = None
    problem: str | None = None   # None: the op passed its check
    recon: bytes = b""            # reconstruction bits, for the traced/untraced comparison
    artifact_bytes: int = 0


class Workload:
    """Defaults: no per-op preparation and no run-level check."""

    def prepare(self, i):
        pass

    def run_problems(self, results):
        return []


class FanChirp(Workload):
    name = "fan-chirp-1024"
    imports = ("specret",)
    default_L = 1024
    T = 8.0
    A = 15.0
    N_ANGLES = 40
    EPSILON = 1e-3
    MAX_MISFIT = 0.02  # acceptance criterion 5

    def setup(self, mods, seed, L, workdir):
        sr = mods["specret"]
        self.sr = sr
        grid = sr.make_grid(T=self.T, L=L)
        theta = 2 * np.pi * np.random.default_rng(seed).random()
        chirp = sr.gen_chirp(sr.chirp_preset(), grid)
        self.f = sr.Signal(grid=grid, values=chirp.values * np.exp(1j * theta))
        self.family = sr.build_frft_family(a=self.A, N=self.N_ANGLES, grid=grid)
        self.cfg = sr.RetrievalConfig(epsilon=self.EPSILON)
        self.L = L

    def op(self, i) -> OpResult:
        sr = self.sr
        t0 = time.perf_counter()
        measurements = sr.measure_family(self.f, self.family)
        t1 = time.perf_counter()
        recon = sr.run_alg1(measurements, self.family, self.cfg)
        t2 = time.perf_counter()
        d, _ = sr.misfit(self.f, recon.signal)
        t3 = time.perf_counter()
        problem = None if d < self.MAX_MISFIT else f"misfit {d:.4g} >= {self.MAX_MISFIT}"
        return OpResult(op_s=t3 - t0, retrieve_s=t2 - t1, misfit=d, problem=problem,
                        recon=recon.signal.values.tobytes())

    def working_set(self):
        return {"measurements_held": self.N_ANGLES,
                "measurement_bytes": self.N_ANGLES * self.L * self.L * 8}


class HermiteNoisyCli(Workload):
    name = "hermite-noisy-1024"
    imports = ("specret", "specret.cli", "specret.config")
    default_L = 1024
    MAX_MISFIT = 0.15  # acceptance criterion 6

    def setup(self, mods, seed, L, workdir):
        self.cli = mods["specret.cli"]
        self.workdir = Path(workdir)
        self.config_path = self.workdir / "noisy.json"
        doc = {
            "signal": {"kind": "mixture"},
            "scheme": {"kind": "hermite", "degrees": [50, 100]},
            "epsilon": 0.5,
            "noise": {"model": "multiplicative", "level": 0.05},
            "grid": {"T": 8.0, "L": L},
            "emit": {"csv": True, "pgm": True, "json": True, "wav": False},
        }
        if not self.config_path.exists() or json.loads(self.config_path.read_text()) != doc:
            self.config_path.write_text(json.dumps(doc))
        mods["specret.config"].load_config(str(self.config_path))
        self.out_dir = self.workdir / "noisy-out"
        self.argv = ["retrieve", "--config", str(self.config_path),
                     "--out", str(self.out_dir), "--seed", str(seed)]
        self.L = L
        self.retrieve_s = None
        # one timer around the runner the CLI calls
        for runner in ("run_alg1", "run_alg2"):
            original = getattr(self.cli, runner, None)
            if callable(original):
                setattr(self.cli, runner, self._timed(original))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.retrieve_s = time.perf_counter() - t0
        return timed

    def prepare(self, i):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.retrieve_s = None

    def op(self, i) -> OpResult:
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            rc = self.cli.main(self.argv)
        op_s = time.perf_counter() - t0
        result = OpResult(op_s=op_s, retrieve_s=self.retrieve_s)
        if rc != 0:
            result.problem = f"exit code {rc}"
            return result
        payload = json.loads((self.out_dir / "result.json").read_text())
        result.misfit = float(payload["misfit"])
        result.recon = (self.out_dir / "reconstruction.bin").read_bytes()
        result.artifact_bytes = sum(p.stat().st_size for p in self.out_dir.iterdir())
        satisfied = payload.get("noise_bounds", {}).get("satisfied")
        if result.misfit >= self.MAX_MISFIT:
            result.problem = f"misfit {result.misfit:.4g} >= {self.MAX_MISFIT}"
        elif satisfied != [True, True]:
            result.problem = f"noise bounds satisfied = {satisfied}"
        return result

    def working_set(self):
        return {"measurements_held": 4,  # clean and noisy copies of 2 windows
                "measurement_bytes": 4 * self.L * self.L * 8}


class HermiteStudy(Workload):
    name = "hermite-study-512"
    imports = ("specret",)
    default_L = 512
    COUNT = 6
    DEGREE_MIN, DEGREE_MAX = 0, 50
    EPSILON = 1e-3
    MAX_MEAN_P90 = 0.1  # acceptance criterion 9

    def setup(self, mods, seed, L, workdir):
        sr = mods["specret"]
        self.sr = sr
        grid = sr.make_grid(T=8.0, L=L)
        self.f = sr.gen_chirp(sr.chirp_preset(), grid)
        self.cfg = sr.RetrievalConfig(epsilon=self.EPSILON, algorithm="alg2")
        self.rng = np.random.default_rng(seed)
        self.degree_sets: list[list[int]] = []
        self.L = L

    def prepare(self, i):
        # the same draw sequence as the random-study command for this seed
        pool = np.arange(self.DEGREE_MIN, self.DEGREE_MAX + 1)
        while len(self.degree_sets) <= i:
            draw = self.rng.choice(pool, size=self.COUNT, replace=False)
            self.degree_sets.append(np.sort(draw).tolist())

    def op(self, i) -> OpResult:
        sr = self.sr
        degrees = self.degree_sets[i]
        t0 = time.perf_counter()
        family = sr.build_hermite_family(degrees, self.f.grid)
        measurements = sr.measure_family(self.f, family)
        t1 = time.perf_counter()
        recon = sr.run_alg2(measurements, family, self.cfg)
        t2 = time.perf_counter()
        d, _ = sr.misfit(self.f, recon.signal)
        t3 = time.perf_counter()
        return OpResult(op_s=t3 - t0, retrieve_s=t2 - t1, misfit=d,
                        recon=recon.signal.values.tobytes())

    def run_problems(self, results):
        misfits = [r.misfit for r in results if r.misfit is not None]
        if not misfits:
            return []
        mean, p90 = float(np.mean(misfits)), float(np.percentile(misfits, 90))
        if mean >= self.MAX_MEAN_P90 or p90 >= self.MAX_MEAN_P90:
            return [f"study misfit mean {mean:.4g}, p90 {p90:.4g}: not below {self.MAX_MEAN_P90}"]
        return []

    def working_set(self):
        return {"measurements_held": self.COUNT,
                "measurement_bytes": self.COUNT * self.L * self.L * 8}


WORKLOADS = {w.name: w for w in (FanChirp, HermiteNoisyCli, HermiteStudy)}
