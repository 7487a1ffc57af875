import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specret
from specret import (
    RetrievalConfig,
    Signal,
    add_noise,
    build_hermite_family,
    load_wav,
    make_grid,
    make_plan,
    save_wav,
)
from specret import container
from specret.cli import COMMANDS, check_size, estimate_bytes, main
from specret.config import load_config
from specret.retrieval import row_span
from oracles import group_lines, noisy_powers, two_list_bounds


def assert_lines_equal(got, want):
    """Each group's first-pass lines, bit for bit: X and the L1."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.X is None) == (b.X is None) and a.l1 == b.l1
        assert a.X is None or np.array_equal(a.X, b.X)


def write_config(tmp_path, name="cfg.json", **fields):
    base = {
        "signal": {"kind": "mixture"},
        "scheme": {"kind": "hermite", "degrees": [0, 5]},
        "epsilon": 1e-3,
        "grid": {"T": 8.0, "L": 256},
        "emit": {"csv": True, "pgm": True, "json": True, "wav": False},
    }
    base.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


class TestRetrieve:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "misfit d =" in printed and "theta*" in printed
        for name in ("result.json", "reconstruction.csv", "reconstruction.bin",
                     "omega.pgm", "manifest.json"):
            assert (out / name).exists(), name
        result = json.loads((out / "result.json").read_text())
        assert result["misfit"] < 0.05
        manifest = json.loads((out / "manifest.json").read_text())
        assert {f["path"] for f in manifest["files"]} >= {
            "result.json", "reconstruction.csv", "reconstruction.bin", "omega.pgm"}
        assert all("sha256" in f for f in manifest["files"])

    def test_bit_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, noise={"model": "multiplicative", "level": 0.05, "seed": 3})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["retrieve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["retrieve", "--config", str(cfg), "--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["files"] == m2["files"]  # hashes match; timestamps live elsewhere
        for f in m1["files"]:
            assert (out1 / f["path"]).read_bytes() == (out2 / f["path"]).read_bytes()

    def test_noise_run_reports_bounds(self, tmp_path):
        cfg = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 1})
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["noise_bounds"]["satisfied"] == [True, True]

    def test_noise_run_plans_once(self, tmp_path, monkeypatch):
        # the noise-bound check reuses the retrieval's plan and noisy assembly
        from specret import ambiguity, cli
        path = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 1})
        cfg = load_config(str(path))
        f, _ = cli._build_signal(cfg)
        family = cli._build_family(cfg, f.grid)
        clean = specret.measure_family(f, family)
        noisy = [add_noise(p, "additive", 0.01, 1 + j) for j, p in enumerate(clean)]
        fresh = two_list_bounds(clean, noisy, make_plan(family, cli._retrieval_config(cfg)))
        runs = []  # (degrees, rows) of each block of the plan's one Laguerre run
        original = ambiguity.laguerre_ladder
        monkeypatch.setattr(ambiguity, "laguerre_ladder", lambda ns, z: (
            np.ndim(z) == 2 and runs.append((list(ns), len(z)))) or original(ns, z))
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(path), "--out", str(out)]) == 0
        assert runs and all(ns == [0, 5] for ns, _ in runs)
        # each quadrant row once: a second plan would evaluate its live rows,
        # more than half of the quadrant's L/2 + 1 here, again
        rows = sum(n for _, n in runs)
        assert f.grid.L // 4 < rows <= f.grid.L // 2 + 1
        result = json.loads((out / "result.json").read_text())
        assert result["noise_bounds"] == json.loads(json.dumps(fresh._asdict()))

    def test_noisy_j_is_freed_before_the_bound_check(self, tmp_path, monkeypatch):
        # the check and the artifacts read the measurements, the plan and the
        # signal; the noisy J, one complex L x L array, is freed before them
        from specret import cli
        L = 256
        path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=0.5,
                            scheme={"kind": "hermite", "degrees": [5, 10]},
                            noise={"model": "multiplicative", "level": 0.05})
        held = []
        check = cli.verify_noise_bounds

        def traced_check(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_noise_bounds", traced_check)
        argv = ["retrieve", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
            finally:
                tracemalloc.stop()
        # clean and noisy powers of two windows, den and the owner labels
        alive = 4 * 8 * L * L + 8 * L * L + L * L
        assert held[-1] - start < alive + 8 * L * L  # J would add 16 L^2

    def test_noisy_peak_holds_one_list_of_powers(self, tmp_path):
        # the 8 noisy powers, alg1's group sum, J, one half-plane transform
        # and the plan; the clean list held beside the noisy one peaked at
        # 21 powers
        L, N = 256, 8
        path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=1e-2,
                            scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": N},
                            noise={"model": "multiplicative", "level": 0.05})
        argv = ["retrieve", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak < (N + 6) * 8 * L * L

    def test_noisy_hermite_peak_holds_one_noise_sum(self, tmp_path):
        # the N noisy powers and one noise sum, the plan, J on omega's rows
        # and one half-plane transform, with one power's worth of slack for
        # the blocks and the fixed overheads; every noise sum held at once,
        # J on the whole lattice and a lattice per degree peaked at 62.7 L^2
        L, degrees = 256, [5, 10]
        path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=0.5,
                            scheme={"kind": "hermite", "degrees": degrees},
                            noise={"model": "multiplicative", "level": 0.05})
        argv = ["retrieve", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        plan = make_plan(build_hermite_family(degrees, make_grid(8.0, L)),
                         RetrievalConfig(epsilon=0.5, algorithm="alg2"))
        first, stop = row_span(plan.omega)
        assert stop - first < L  # J is narrower than the lattice here
        powers = (len(degrees) + 1) * 8 * L * L
        J, H = 16 * (stop - first) * L, 16 * (L // 2 + 1) * L
        assert peak < powers + plan.den.nbytes + plan.owner.nbytes + J + H + 8 * L * L

    @pytest.mark.parametrize("noise", [{"model": "none"},
                                       {"model": "multiplicative", "level": 0.05}])
    def test_default_fan_holds_no_power(self, tmp_path, noise):
        # the default 40-window fan at L = 512 measures straight into its
        # group's first pass: the plan, J, the lines of the noisy sum and of
        # the noise sum (a power's bytes each at most) and the stream's
        # blocks; a list of the 40 powers peaked at 43 powers
        L = 512
        path = write_config(tmp_path, signal={"kind": "chirp"}, scheme={
            "kind": "frft_gauss", "a": 15.0, "n_windows": 40}, grid={"T": 8.0, "L": L},
            noise=noise)
        argv = ["retrieve", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak < 5 * 8 * L * L

    def test_w2_peak_holds_four_and_a_half_powers(self, tmp_path):
        # W2 through the CLI: the two noisy powers, one noise sum, the
        # plan's den on omega's 371 rows, J there and the pruned transform
        # of one group's rows; one half-plane transform per group sum and
        # den on the whole lattice peaked at 5.4 powers
        L = 1024
        path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=0.5,
                            scheme={"kind": "hermite", "degrees": [50, 100]},
                            noise={"model": "multiplicative", "level": 0.05})
        argv = ["retrieve", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak <= 4.5 * 8 * L * L

    def test_run_without_the_check_holds_no_more_than_with_it(self, tmp_path, monkeypatch):
        # W2's shape at L = 512, up to the retrieval: without result.json the
        # noise is drawn into the powers in place, two windows at a time;
        # drawing each noisy power beside its clean one held 0.35 powers more
        # than the check's stream
        from specret import cli
        L = 512
        peaks = {}
        runner = cli.run_alg2

        def traced_runner(*args):
            if tracemalloc.is_tracing():
                peaks[json_on] = tracemalloc.get_traced_memory()[1] - start
            return runner(*args)

        monkeypatch.setattr(cli, "run_alg2", traced_runner)
        for json_on in (True, False):
            path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=0.5,
                                scheme={"kind": "hermite", "degrees": [50, 100]},
                                noise={"model": "multiplicative", "level": 0.05},
                                emit={"csv": True, "pgm": True, "json": json_on, "wav": False})
            argv = ["retrieve", "--config", str(path), "--out", str(tmp_path / "out")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0  # the lazy imports, which stay loaded
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    assert main(argv) == 0
                finally:
                    tracemalloc.stop()
        assert peaks[False] <= peaks[True]
        assert peaks[False] <= 3.8 * 8 * L * L  # the two powers, the plan and the blocks

    def test_bound_check_skipped_without_json(self, tmp_path, monkeypatch):
        # the report goes only into result.json
        from specret import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the noise bounds were checked")

        monkeypatch.setattr(cli, "verify_noise_bounds", refuse)
        path = write_config(tmp_path, noise={"model": "multiplicative", "level": 0.05},
                            emit={"csv": True, "pgm": True, "json": False, "wav": False})
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(path), "--out", str(out)]) == 0
        assert not (out / "result.json").exists()

    def test_frft_scheme(self, tmp_path):
        cfg = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": 8})
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["misfit"] < 0.05


class TestNoiseSums:
    """The noise of `_measure`, which sums each group's noise as the noise
    is drawn when the bounds are checked, against the two-list oracle:
    `retrieve` keeps the lines of the noisy group sums, `verify-bounds`
    makes none and checks against the true signal (truth)."""

    @pytest.mark.parametrize("scheme", [
        {"kind": "frft_gauss", "a": 2.0, "n_windows": 4},  # alg1
        {"kind": "frft_gauss", "a": 2.0, "n_windows": 5},  # alg1, an odd member count
        {"kind": "hermite", "degrees": [0, 5, 10]},  # alg2, a last pair of one
    ], ids=["fan4", "fan5", "hermite3"])
    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    @pytest.mark.parametrize("truth", [False, True])
    @pytest.mark.parametrize("cores", [{0}, {0, 1}])
    def test_matches_two_list_oracle(self, tmp_path, monkeypatch, scheme, model, truth, cores):
        from specret import cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        path = write_config(tmp_path, scheme=scheme, epsilon=1e-2,
                            noise={"model": model, "level": 0.05, "seed": 9})
        cfg = load_config(str(path))
        f, _ = cli._build_signal(cfg)
        family = cli._build_family(cfg, f.grid)
        rcfg = cli._retrieval_config(cfg)
        clean = specret.measure_family(f, family)
        noisy = noisy_powers(clean, cfg["noise"], 9)
        plan = make_plan(family, rcfg)
        want = two_list_bounds(clean, noisy, plan, f if truth else None)
        lines, got = cli._measure("verify-bounds" if truth else "retrieve", cfg, f, family, rcfg)
        if not truth:
            assert_lines_equal(lines, group_lines(noisy, plan))
        else:
            assert lines is None
        for name in want._fields:
            assert getattr(got, name) == getattr(want, name), name


class TestNoiseStream:
    """`_measure`'s lines, each group's noisy powers and, with the check,
    its noise summed a row block at a time straight into its first pass,
    two groups at a time or a group's members split between the cores,
    against the list path: each window's `add_noise`, the group sums'
    first passes and the two-list check."""

    @pytest.mark.parametrize("scheme, algorithm", [
        ({"kind": "frft_gauss", "a": 2.0, "n_windows": 7}, "alg1"),  # 4 + 3 members a block
        ({"kind": "frft_gauss", "a": 2.0, "n_windows": 5}, "alg2"),  # pairs, then one group
        ({"kind": "hermite", "degrees": [0, 5, 10]}, "alg1"),  # 2 + 1 members a block
        ({"kind": "hermite", "degrees": [0, 5, 10]}, "alg2"),
    ], ids=["fan7-alg1", "fan5-alg2", "hermite3-alg1", "hermite3-alg2"])
    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("cores", [{0}, {0, 1}])
    def test_matches_the_list_path(self, tmp_path, monkeypatch, scheme, algorithm, model, check,
                                   cores):
        # L = 250: the last row block is 58 rows
        from specret import cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        path = write_config(tmp_path, scheme=scheme, algorithm=algorithm, epsilon=1e-2,
                            grid={"T": 8.0, "L": 250},
                            noise={"model": model, "level": 0.05, "seed": 9},
                            emit={"csv": True, "pgm": True, "json": check, "wav": False})
        cfg = load_config(str(path))
        f, _ = cli._build_signal(cfg)
        family = cli._build_family(cfg, f.grid)
        rcfg = cli._retrieval_config(cfg)
        clean = specret.measure_family(f, family)
        noisy = noisy_powers(clean, cfg["noise"], 9)
        lines, got = cli._measure("retrieve", cfg, f, family, rcfg)
        assert_lines_equal(lines, group_lines(noisy, make_plan(family, rcfg)))
        if check:
            assert got == two_list_bounds(clean, noisy, make_plan(family, rcfg))
        else:
            assert got is None


class TestBaseline:
    def test_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["baseline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "result.json").exists()

    def test_noisy_baseline_is_alg2_on_the_one_window_family(self, tmp_path):
        from specret import measure_family, run_alg2
        from specret.cli import _build_signal, _retrieval_config
        from specret.container import read_signal
        from oracles import gauss_baseline_family
        path = write_config(tmp_path, noise={"model": "multiplicative", "level": 0.05, "seed": 3})
        out = tmp_path / "run"
        assert main(["baseline", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_config(str(path), {"out": str(out), "seed": None})
        f, _ = _build_signal(cfg)
        fam = gauss_baseline_family(f.grid)
        powers = noisy_powers(measure_family(f, fam), cfg["noise"], 3)
        want = run_alg2(powers, fam, _retrieval_config(cfg))
        assert np.array_equal(read_signal(out / "reconstruction.bin").values, want.signal.values)


class TestCoverage:
    def test_frft_coverage_report(self, tmp_path):
        cfg = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 10.0, "n_windows": 40},
                           epsilon=0.1)
        out = tmp_path / "run"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert payload["coverage_radii"]["R1"] > payload["coverage_radii"]["R2"]
        assert (out / "summed_ambiguity.pgm").exists()
        assert (out / "union_mask.pgm").exists()
        assert (out / "union_mask.bin").exists()

    def test_listed_angles_report_no_fan_radii(self, tmp_path):
        # the radii hold for the pi/N fan; three nearly equal ellipses cover
        # only the disc of one, of radius sqrt(C/a), not the pi/3 fan's R1
        cfg = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 10.0,
                                             "angles": [0.0, 0.01, 0.02]}, epsilon=0.1)
        out = tmp_path / "run"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert payload["coverage_radii"] is None
        assert (out / "summed_ambiguity.pgm").exists()

    def test_hermite_masks(self, tmp_path):
        cfg = write_config(tmp_path, scheme={"kind": "hermite", "degrees": [1, 5, 10]},
                           epsilon=0.1)
        out = tmp_path / "run"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert len(payload["member_areas"]) == 3
        assert payload["union_area"] >= max(payload["member_areas"])
        masks = list(out.glob("mask_hermite*.pgm"))
        assert len(masks) == 3

    def test_hermite_masks_from_one_laguerre_run(self, tmp_path, monkeypatch):
        # one `hermite_rows` run over the degrees gives each member's
        # stability mask, bit for bit
        from specret import HermiteAmbiguity, cli
        from oracles import stability_mask
        runs = []
        blocks = cli.hermite_rows
        monkeypatch.setattr(cli, "hermite_rows",
                            lambda *args: runs.append(args[0]) or blocks(*args))
        degrees, eps = [1, 5, 10], 0.1
        cfg = write_config(tmp_path, scheme={"kind": "hermite", "degrees": degrees},
                           epsilon=eps)
        out = tmp_path / "run"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        assert runs == [degrees]
        grid = make_grid(8.0, 256)
        payload = json.loads((out / "coverage.json").read_text())
        union = np.zeros((grid.L, grid.L), dtype=bool)
        for n, area in zip(degrees, payload["member_areas"], strict=True):
            bits = stability_mask(HermiteAmbiguity(n), eps, grid)
            raw = (out / f"mask_hermite_n{n}.pgm").read_bytes()
            img = np.frombuffer(raw[-grid.L * grid.L:], dtype=np.uint8).reshape(grid.L, grid.L)
            assert np.array_equal(img == 255, bits)
            assert area == float(bits.sum() * grid.dt * grid.dy)
            union |= bits
        assert np.array_equal(container.read_mask(out / "union_mask.bin")[1], union)


class TestRandomStudy:
    def test_deterministic_trials(self, tmp_path):
        cfg = write_config(tmp_path, study={"count": 3, "degree_min": 0, "degree_max": 12,
                                            "trials": 2})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["random-study", "--config", str(cfg), "--out", str(out1), "--seed", "11"]) == 0
        assert main(["random-study", "--config", str(cfg), "--out", str(out2), "--seed", "11"]) == 0
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["trials"] == 2
        assert 0 <= summary["p90"] <= 1.5
        assert summary["min"] <= summary["mean"] <= summary["max"]

    def test_range_too_small(self, tmp_path):
        cfg = write_config(tmp_path, study={"count": 6, "degree_min": 0, "degree_max": 0,
                                            "trials": 1})
        assert main(["random-study", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_no_trial_measures_beside_the_last_trials_powers(self, tmp_path, monkeypatch,
                                                             l1024_blocks):
        # each trial drops its family, lines and reconstruction before the
        # next one measures: beside the new trial's own plan only small
        # arrays are alive, and while it measures no power, only the
        # blocks of two groups' streams (8-row blocks, L = 1024's share);
        # the last trial's count noisy powers and its plan put every later
        # measurement 3.7 powers higher at L = 256
        from specret import cli
        L, count = 256, 3
        path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=0.5,
                            noise={"model": "multiplicative", "level": 0.05},
                            study={"count": count, "degree_min": 0, "degree_max": 12,
                                   "trials": 3})
        held = []
        measure = cli.measure_lines

        def traced_measure(f, family, plan, *args, **kwargs):
            plan_bytes = sum(p.den.nbytes + p.owner.nbytes for p in family.plans.values())
            now = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = measure(f, family, plan, *args, **kwargs)
            made = sum(x.X.nbytes for x in out[0] if x.X is not None)  # the lines returned
            held.append((now - plan_bytes, tracemalloc.get_traced_memory()[1] - made - plan_bytes))
            return out

        monkeypatch.setattr(cli, "measure_lines", traced_measure)
        argv = ["random-study", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            held.clear()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
            finally:
                tracemalloc.stop()
        assert len(held) == 3
        for now, peak in held:
            assert now - start < 0.1 * 8 * L * L
            # the blocks of two groups' streams at a time, and no power
            assert peak - start < 8 * L * L


class TestVerifyBounds:
    def test_satisfied(self, tmp_path):
        cfg = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 4},
                           scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": 8})
        out = tmp_path / "run"
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["satisfied"] == [True, True]
        assert payload["approx_term"] is not None

    def test_requires_noise(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_each_draw_holds_no_block_of_the_last_group(self, tmp_path, monkeypatch):
        # on one core the groups stream one after another: each group's
        # noise is drawn beside the plan and the noise lines made so far,
        # and no power, no block of the group before and none of its
        # product blocks are held; a group streams with its own lines and
        # its blocks: a coefficient block, the clean block, the noisy and
        # noise sums and the first pass's buffer
        from specret import cli, retrieval
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        L, degrees = 512, [0, 5, 10]
        path = write_config(tmp_path, grid={"T": 8.0, "L": L}, epsilon=0.5,
                            scheme={"kind": "hermite", "degrees": degrees},
                            noise={"model": "multiplicative", "level": 0.05})
        draws, plans = [], []
        stream, plan_for = retrieval._group_lines, cli.stored_plan

        def traced_stream(rows, factors, plan, i, *args):
            now = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = stream(rows, factors, plan, i, *args)
            draws.append((plan.groups[i], out[0], now, tracemalloc.get_traced_memory()[1]))
            return out

        def kept_plan(*args):
            plans.append(plan_for(*args))
            return plans[-1]

        monkeypatch.setattr(retrieval, "_group_lines", traced_stream)
        monkeypatch.setattr(cli, "stored_plan", kept_plan)
        argv = ["verify-bounds", "--config", str(path), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the lazy imports, which stay loaded
            draws.clear()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
            finally:
                tracemalloc.stop()
        plan = plans[-1]
        plan_bytes = plan.den.nbytes + plan.owner.nbytes
        h, R = L // 2, L // 8  # the stream's block rows
        lines = [16 * L * (max(h - r0, r1 - 1 - h) + 1) for r0, r1 in plan.spans]
        # numpy reads the overlapping spectrum rows through 2**18 bytes of ufunc buffers
        blocks = (16 + 8 + 8 + 8) * R * L + 8 * R * (L + 2) + 2**18
        # verify-bounds makes no lines of the noisy sums, only checks them
        assert [(group, sums) for group, sums, *_ in draws] == [((j,), (None, None))
                                                                 for j in range(3)]
        for i, (_, _, now, peak) in enumerate(draws):
            # the fixed overheads (config, signal, windows) take about 60 KB
            assert now - start <= plan_bytes + sum(lines[:i]) + 2**17
            assert peak - start <= plan_bytes + sum(lines[:i + 1]) + blocks + 2**17


class TestOneRunPath:
    """Each measuring command, clean and noisy, against the library pipeline
    assembled by hand: `measure_family`, each window's `add_noise`, the
    runner and `verify_noise_bounds`.  Every command builds the plan before
    it takes its first STFT, once, where its runner finds it stored, and
    measures through the one stream (`measure_lines`)."""

    L = 128
    FAN = {"kind": "frft_gauss", "a": 2.0, "n_windows": 4}
    HERMITE = {"kind": "hermite", "degrees": [0, 5, 10]}
    NOISE = {"model": "multiplicative", "level": 0.05, "seed": 5}

    def run(self, tmp_path, monkeypatch, command, noisy, **fields):
        """(exit code, out dir, loaded config, the calls in order) of one run."""
        from specret import cli, retrieval
        calls, lock = [], threading.Lock()
        for module, name in ((cli, "stored_plan"), (retrieval, "make_plan"),
                             (cli, "measure_lines"), (retrieval, "stft_block")):
            fn = getattr(module, name)

            def traced(*args, fn=fn, name=name, **kwargs):
                with lock:  # the STFT's first block of each measurement, from either thread
                    if name != "stft_block" or calls[-1] != name:
                        calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, traced)
        path = write_config(tmp_path, grid={"T": 8.0, "L": self.L}, epsilon=1e-2,
                            noise=self.NOISE if noisy else {"model": "none"}, **fields)
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", str(path), "--out", str(out)])
        return rc, out, load_config(str(path)), calls

    def powers(self, f, family, cfg):
        """Clean and noisy powers, the noisy ones None for a clean run."""
        clean = specret.measure_family(f, family)
        noisy = None if cfg["noise"]["model"] == "none" else noisy_powers(clean, self.NOISE, 5)
        return clean, noisy

    def recon_bits(self, out):
        return container.read_signal(out / "reconstruction.bin").values

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("scheme", [FAN, HERMITE], ids=["fan", "hermite"])
    def test_retrieve(self, tmp_path, monkeypatch, scheme, noisy):
        from specret import cli
        rc, out, cfg, calls = self.run(tmp_path, monkeypatch, "retrieve", noisy, scheme=scheme)
        assert rc == 0
        assert calls == ["stored_plan", "make_plan", "measure_lines", "stft_block"]
        f, _ = cli._build_signal(cfg)
        family = cli._build_family(cfg, f.grid)
        rcfg = cli._retrieval_config(cfg)
        clean, noisy_list = self.powers(f, family, cfg)
        runner = specret.run_alg1 if scheme is self.FAN else specret.run_alg2
        want = runner(noisy_list or clean, family, rcfg)
        assert np.array_equal(self.recon_bits(out), want.signal.values)
        bounds = json.loads((out / "result.json").read_text()).get("noise_bounds")
        if noisy:
            report = two_list_bounds(clean, noisy_list, make_plan(family, rcfg))
            assert bounds == json.loads(json.dumps(report._asdict()))
        else:
            assert bounds is None

    @pytest.mark.parametrize("noisy", [False, True])
    def test_baseline(self, tmp_path, monkeypatch, noisy):
        # the fan's alg1 setting still retrieves the one window with alg2
        from specret import cli
        from oracles import gauss_baseline_family
        rc, out, cfg, calls = self.run(tmp_path, monkeypatch, "baseline", noisy, scheme=self.FAN)
        assert rc == 0
        assert calls == ["stored_plan", "make_plan", "measure_lines", "stft_block"]
        f, _ = cli._build_signal(cfg)
        family = gauss_baseline_family(f.grid)
        clean, noisy_list = self.powers(f, family, cfg)
        want = specret.run_alg2(noisy_list or clean, family, cli._retrieval_config(cfg))
        assert np.array_equal(self.recon_bits(out), want.signal.values)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_random_study(self, tmp_path, monkeypatch, noisy):
        from specret import cli
        study = {"count": 3, "degree_min": 0, "degree_max": 12, "trials": 2}
        rc, out, cfg, calls = self.run(tmp_path, monkeypatch, "random-study", noisy, study=study)
        assert rc == 0
        assert calls == ["stored_plan", "make_plan", "measure_lines", "stft_block"] * 2
        f, _ = cli._build_signal(cfg)
        rng = np.random.default_rng(int(cfg["seed"]))
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            degrees = np.sort(rng.choice(np.arange(0, 13), size=3, replace=False)).tolist()
            family = specret.build_hermite_family(degrees, f.grid)
            clean, noisy_list = self.powers(f, family, cfg)
            want = specret.run_alg2(noisy_list or clean, family, cli._retrieval_config(cfg))
            d, theta = specret.misfit(f, want.signal)
            assert row.split(",")[1:] == ["|".join(map(str, degrees)), repr(d), repr(theta)]

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("scheme", [FAN, HERMITE], ids=["fan", "hermite"])
    def test_verify_bounds(self, tmp_path, monkeypatch, scheme, noisy):
        from specret import cli
        rc, out, cfg, calls = self.run(tmp_path, monkeypatch, "verify-bounds", noisy, scheme=scheme)
        if not noisy:  # the check needs a noise model
            assert (rc, calls) == (2, [])
            return
        assert rc == 0
        assert calls == ["stored_plan", "make_plan", "measure_lines", "stft_block"]
        f, _ = cli._build_signal(cfg)
        family = cli._build_family(cfg, f.grid)
        clean, noisy_list = self.powers(f, family, cfg)
        report = two_list_bounds(clean, noisy_list, make_plan(family, cli._retrieval_config(cfg)), f)
        bounds = json.loads((out / "bounds.json").read_text())
        assert bounds == json.loads(json.dumps(report._asdict()))

    @pytest.mark.parametrize("anchor", [-L, L])
    def test_verify_bounds_refuses_an_anchor_off_the_grid(self, tmp_path, monkeypatch, capsys,
                                                          anchor):
        rc, out, _, calls = self.run(tmp_path, monkeypatch, "verify-bounds", True, anchor=anchor)
        assert (rc, calls) == (2, [])
        err = capsys.readouterr().err
        assert err == f"invalid input: anchor {anchor} lies outside (-{self.L}, {self.L})\n"
        assert not out.exists()


class TestWavPipeline:
    def _tone_wav(self, tmp_path, L=2048, rate=8000, silent=False):
        grid = make_grid(L / (2 * rate), L)
        t = np.arange(L) / rate
        values = np.zeros(L) if silent else 0.4 * np.sin(2 * np.pi * 440.0 * t)
        path = tmp_path / "clip.wav"
        save_wav(Signal(grid=grid, values=values.astype(complex)), path, sample_rate=rate)
        return path

    def test_wav_retrieve_emits_wav(self, tmp_path):
        clip = self._tone_wav(tmp_path)
        cfg = write_config(
            tmp_path,
            signal={"kind": "wav", "path": str(clip)},
            scheme={"kind": "hermite", "degrees": [0, 5, 10]},
            grid={"T": 8.0, "L": 1024},
            emit={"csv": False, "pgm": False, "json": True, "wav": True},
        )
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "reconstruction.wav").exists()
        back = load_wav(out / "reconstruction.wav")
        assert back.grid.L == 1024  # cropped segment length
        result = json.loads((out / "result.json").read_text())
        assert 0.0 < result["misfit"] < 1.2  # wiring check; tones are hard for small families

    def test_silent_wav_is_numeric_failure(self, tmp_path):
        clip = self._tone_wav(tmp_path, silent=True)
        cfg = write_config(tmp_path, signal={"kind": "wav", "path": str(clip)},
                           grid={"T": 8.0, "L": 1024})
        assert main(["retrieve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_missing_wav_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, signal={"kind": "wav", "path": str(tmp_path / "no.wav")})
        assert main(["retrieve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("damage, code", [("empty", 4), ("cut", 4), ("rate0", 2)])
    def test_damaged_header_exits_without_traceback(self, tmp_path, capsys, damage, code):
        clip = self._tone_wav(tmp_path)
        raw = clip.read_bytes()
        # the sample rate and byte rate fields sit at bytes 24-31 of the header
        clip.write_bytes({"empty": b"", "cut": raw[:20],
                          "rate0": raw[:24] + bytes(8) + raw[32:]}[damage])
        cfg = write_config(tmp_path, signal={"kind": "wav", "path": str(clip)})
        assert main(["retrieve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestAudioPreparation:
    def test_segment_cap(self):
        from specret.cli import AUDIO_MAX_SAMPLES, prepare_audio
        grid = make_grid(1.25, 20000)  # 8 kHz natural units
        sig = Signal(grid=grid, values=np.random.default_rng(0).standard_normal(20000))
        out, rate = prepare_audio(sig, 100000)
        assert out.grid.L == AUDIO_MAX_SAMPLES
        assert rate == 8000
        out, _ = prepare_audio(sig, 1024)
        assert out.grid.L == 1024
        # square-ish lattice: dy/dx aspect within a factor of four
        aspect = out.grid.dy / out.grid.dt
        assert 0.25 <= aspect <= 4.0

    def test_taper_kills_edges(self):
        from specret.cli import prepare_audio
        grid = make_grid(0.5, 8000)
        sig = Signal(grid=grid, values=np.ones(8000))
        out, _ = prepare_audio(sig, 4096)
        assert abs(out.values[0]) < 1e-12
        assert abs(out.values[-1]) < 0.01
        mid = out.grid.L // 2
        assert abs(out.values[mid] - 1.0) < 1e-12


# documents that pass the schema but hold an impossible value, and the
# commands that reach that value
INVALID_VALUE_DOCS = {
    "chirp-above-nyquist": ({"grid": {"T": 8, "L": 128}}, ("retrieve", "baseline")),
    "mixture-shift-outside-grid": ({"signal": {"kind": "mixture"}, "grid": {"T": 1, "L": 64}},
                                   ("retrieve", "baseline")),
    "epsilon-above-unit-peak": ({"signal": {"kind": "mixture"},
                                 "scheme": {"kind": "hermite", "degrees": [0, 3]},
                                 "epsilon": 1000, "grid": {"T": 8, "L": 64}},
                                ("retrieve", "baseline", "coverage")),
    "angle-list-too-short": ({"scheme": {"kind": "frft_gauss", "a": 15.0, "n_windows": 3,
                                         "angles": [0.1]}},
                             ("retrieve", "coverage")),
}


class TestConfigErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["retrieve", "--config", str(path)]) == 2

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epsilon": -1.0}))
        assert main(["retrieve", "--config", str(path)]) == 2

    def test_non_increasing_degrees(self, tmp_path):
        cfg = write_config(tmp_path, scheme={"kind": "hermite", "degrees": [5, 3]})
        assert main(["retrieve", "--config", str(cfg)]) == 2

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mystery": 1}))
        assert main(["retrieve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text", ['{"grid": {"T": NaN, "L": 64}}',
                                      '{"epsilon": Infinity}', '{"epsilon": 1e400}'])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, text):
        # NaN passes every schema bound, so it must be refused while parsing
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["coverage", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_invalid_override_exit_2(self, tmp_path, capsys):
        assert main(["retrieve", "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name, command", [
        (name, command) for name, (_, commands) in INVALID_VALUE_DOCS.items()
        for command in commands
    ])
    def test_invalid_values_exit_2_without_traceback(self, tmp_path, capsys, name, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(INVALID_VALUE_DOCS[name][0]))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["retrieve", "coverage"])
    def test_unresolved_fan_window_exit_2(self, tmp_path, capsys, command):
        # at a = 1e12 every window samples to one spike at t = 0, which no
        # denominator can divide out
        path = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 1e12, "n_windows": 40})
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: frft_gauss(a=1e+12, alpha=0.000000)")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()


class TestFixedAnchor:
    @pytest.mark.parametrize("anchor", [64, -64, 10**30])
    def test_anchor_off_the_grid_exits_2(self, tmp_path, capsys, anchor):
        path = write_config(tmp_path, grid={"T": 8.0, "L": 64}, anchor=anchor)
        assert main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "anchor" in err

    @pytest.mark.parametrize("command", ["retrieve", "baseline", "random-study"])
    def test_anchor_is_refused_before_the_plan_and_the_stfts(self, tmp_path, capsys, command):
        # the default config at L = 1024: no power, 8 L^2 bytes, is made
        L = 1024
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"anchor": 5000}))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * L * L
        err = capsys.readouterr().err
        assert err == f"invalid input: anchor 5000 lies outside (-{L}, {L})\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("anchor", [-1, 63])
    def test_edge_anchors_run(self, tmp_path, anchor):
        path = write_config(tmp_path, grid={"T": 8.0, "L": 64}, anchor=anchor)
        out = tmp_path / "x"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["retrieve", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["anchor_index"] == 63


class TestNumericErrors:
    def test_numeric_overflow_exits_3_without_traceback(self, tmp_path, capsys):
        # a degree-900 Hermite window underflows on a T=40 grid; at L=4096 the
        # grid holds it (it turns at 16.9, inside the Nyquist 25.6)
        path = write_config(tmp_path, scheme={"kind": "hermite", "degrees": [900]},
                            grid={"T": 40.0, "L": 4096})
        assert main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "underflows" in err

    def test_overflow_in_a_worker_window_exits_3(self, tmp_path, capsys, monkeypatch):
        # window 1 is measured on the second thread, which must run under the
        # CLI's errstate: with numpy's default it would only warn, and the
        # run would end in exit 2 on the non-finite measurement
        from specret import cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        build = cli._build_family

        def huge_second_window(cfg, grid):
            family = build(cfg, grid)
            members = list(family.members)
            members[1] = members[1]._replace(samples=members[1].samples * 1e200)
            return dataclasses.replace(family, members=tuple(members))

        monkeypatch.setattr(cli, "_build_family", huge_second_window)
        path = write_config(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert not caught
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "overflow" in err

    @pytest.mark.parametrize("group", [0, 1], ids=["caller", "worker"])
    @pytest.mark.parametrize("stage", [0, 1], ids=["division", "bound-check"])
    @pytest.mark.parametrize("bad, code", [("non-finite", 2), ("inf", 2), ("overflow", 3)])
    def test_a_bad_group_in_either_thread_exits_without_traceback(
            self, tmp_path, capsys, monkeypatch, group, stage, bad, code):
        # the division and the noise-bound check take two groups at a time:
        # group 1 on the worker, under the CLI's errstate.  A NaN or an inf
        # in its lines is refused by name; lines of 1e307 overflow in the
        # product's transform, in the group's own thread
        from specret import cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        measure = cli.measure_lines

        def spoil(*args, **kwargs):
            made = measure(*args, **kwargs)
            X = made[stage][group].X
            if bad == "overflow":
                X[:] = 1e307
            else:
                X[7, 2] = np.inf if bad == "inf" else np.nan
            return made

        monkeypatch.setattr(cli, "measure_lines", spoil)
        path = write_config(tmp_path, noise={"model": "multiplicative", "level": 0.05})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == code
        assert not caught
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert (f"invalid input: group {group}'s lines hold a non-finite value" if code == 2
                else "numeric failure: overflow encountered in fft") in err

    def test_overflow_in_a_worker_noise_draw_exits_3(self, tmp_path, capsys, monkeypatch):
        # window 1's noise is drawn on the second thread, two groups at a
        # time, under the CLI's errstate; scaled by 1e306, the sum of its
        # first block's |.| overflows there.  numpy's generators release the
        # GIL while they fill a block, so the two windows' draws overlap
        from specret import retrieval
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        draw = retrieval.draw_noise
        drawn = []

        def huge_second_draw(rng, clean, model, level, out):
            if rng.bit_generator.seed_seq.entropy == 3 + 1:  # window 1's generator
                drawn.append(threading.get_ident())
                level = 1e306
            return draw(rng, clean, model, level, out)

        monkeypatch.setattr(retrieval, "draw_noise", huge_second_draw)
        path = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 3})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert not caught
        assert len(drawn) == 1 and drawn[0] != threading.get_ident()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "overflow" in err

    @pytest.mark.parametrize("window", [0, 3])
    def test_overflow_in_either_half_of_a_groups_draws_exits_3(self, tmp_path, capsys,
                                                                monkeypatch, window):
        # alg1's one group draws windows 0 and 1 on the calling thread and
        # 2 and 3 on the second, a row block at a time
        from specret import retrieval
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        draw = retrieval.draw_noise
        drawn = []

        def huge_draw(rng, clean, model, level, out):
            if rng.bit_generator.seed_seq.entropy != 3 + window:
                return draw(rng, clean, model, level, out)
            drawn.append(threading.get_ident())  # the thread that draws the window
            return draw(rng, clean, model, 1e306, out)

        monkeypatch.setattr(retrieval, "draw_noise", huge_draw)
        path = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 3},
                            scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": 4},
                            epsilon=1e-2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert not caught
        # one thread drew the window, at most one block past the one that overflowed:
        # side 0 draws block b while side 1 takes the first passes of block b - 1
        assert 1 <= len(drawn) <= 2 and len(set(drawn)) == 1
        assert (drawn[0] == threading.get_ident()) == (window == 0)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "overflow" in err

    def test_overflow_in_the_second_half_of_a_clean_group_exits_3(self, tmp_path, capsys,
                                                                  monkeypatch):
        # a clean alg1 run measures windows 2 and 3 of its one group on the
        # second thread; window 3, scaled by 1e200, overflows |V|^2 there
        from specret import cli, retrieval
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        build, kernel = cli._build_family, retrieval.stft_block
        measured = []

        def huge_last_window(cfg, grid):
            family = build(cfg, grid)
            members = list(family.members)
            members[3] = members[3]._replace(samples=members[3].samples * 1e200)
            return dataclasses.replace(family, members=tuple(members))

        def traced_kernel(rows, factor, m0, out):
            if np.max(np.abs(factor)) > 1e100:  # window 3's spectrum
                measured.append(threading.get_ident())
            return kernel(rows, factor, m0, out)

        monkeypatch.setattr(cli, "_build_family", huge_last_window)
        monkeypatch.setattr(retrieval, "stft_block", traced_kernel)
        path = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": 4},
                            epsilon=1e-2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert not caught
        assert len(measured) == 1 and measured[0] != threading.get_ident()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "overflow" in err

    @pytest.fixture
    def plan_thread(self, monkeypatch):
        # two cores, and the threads make_plan ran on; an alg1 retrieve builds
        # its plan in the calling thread before both cores sum the powers
        from specret import retrieval
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen = []
        build = retrieval.make_plan

        def make_plan_here(*args):
            seen.append(threading.get_ident())
            return build(*args)

        monkeypatch.setattr(retrieval, "make_plan", make_plan_here)
        return seen

    def test_empty_mask_in_the_plan_thread_exits_3(self, tmp_path, capsys, plan_thread):
        path = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": 8},
                            epsilon=1e6, grid={"T": 8.0, "L": 64})
        assert main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")]) == 3
        assert plan_thread == [threading.get_ident()]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "tolerance" in err

    def test_overflow_in_the_plan_thread_exits_3(self, tmp_path, capsys, monkeypatch,
                                                 plan_thread):
        # under numpy's default errstate the overflow would only warn
        from specret import retrieval
        build = retrieval.make_plan

        def overflowing_plan(*args):
            plan = build(*args)
            plan.den[0, 0] = np.float64(1e300) * np.float64(1e300)
            return plan

        monkeypatch.setattr(retrieval, "make_plan", overflowing_plan)
        path = write_config(tmp_path, scheme={"kind": "frft_gauss", "a": 2.0, "n_windows": 8},
                            grid={"T": 8.0, "L": 64})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert not caught
        assert plan_thread == [threading.get_ident()]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "overflow" in err

    @pytest.mark.parametrize("command", ["coverage", "retrieve"])
    @pytest.mark.parametrize("scheme, field, value", [
        (scheme, "T", value) for scheme in ("frft_gauss", "hermite")
        for value in (1e300, 1e-300)
    ] + [("frft_gauss", "a", value) for value in (1e300, 1e-300)])
    def test_absurd_grid_exits_with_one_line(self, tmp_path, capsys, command,
                                             scheme, field, value):
        # lattices of such grids leave the float range; no run may end in 0
        # with a one-cell map or a garbage reconstruction
        doc = {"grid": {"T": 8.0, "L": 64},
               "scheme": {"kind": "frft_gauss", "a": 15.0, "n_windows": 4}
               if scheme == "frft_gauss" else {"kind": "hermite", "degrees": [0, 5]}}
        (doc["grid"] if field == "T" else doc["scheme"])[field] = value
        path = write_config(tmp_path, **doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc in (2, 3)
        assert not caught
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def checkout_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout."""
    src = str(Path(specret.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_entry_point(tmp_path):
    # `python -m specret` from an uninstalled checkout runs the same CLI
    cfg = write_config(tmp_path, grid={"T": 8.0, "L": 64})
    proc = subprocess.run(
        [sys.executable, "-m", "specret", "coverage", "--config", str(cfg),
         "--out", str(tmp_path / "cov")],
        env=checkout_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cov" / "manifest.json").exists()


def test_cli_import_leaves_out_jsonschema():
    # jsonschema is a test-only dependency
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, specret.cli; print('jsonschema' in sys.modules)"],
        env=checkout_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_out_concurrent_futures():
    # the measurement threads need only threading and contextvars, which
    # every import loads anyway; concurrent.futures adds about 6 ms to it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, specret, specret.cli; print('concurrent.futures' in sys.modules)"],
        env=checkout_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestHermiteGuard:
    """Hermite windows the grid cannot hold exit 2 before any window is
    sampled or any degree drawn."""

    @pytest.mark.parametrize("command, fields", [
        ("retrieve", {"scheme": {"kind": "hermite", "degrees": [600]}, "epsilon": 0.5}),
        ("retrieve", {"scheme": {"kind": "hermite", "degrees": [0, 10 ** 6]}}),
        ("coverage", {"scheme": {"kind": "hermite", "degrees": [600]}, "epsilon": 0.1}),
        ("random-study", {"study": {"count": 6, "degree_min": 0, "degree_max": 100000,
                                    "trials": 3}}),
    ])
    def test_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, command, fields):
        from specret import cli, windows
        sampled, built = [], []
        monkeypatch.setattr(windows, "hermite_samples", lambda n, grid: sampled.append(n))
        build = cli.build_hermite_family
        monkeypatch.setattr(cli, "build_hermite_family",
                            lambda *args: built.append(args) or build(*args))
        path = write_config(tmp_path, **fields)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "does not fit the grid" in err and "Traceback" not in err
        assert sampled == []
        if command == "random-study":  # refused on degree_max, before the first draw
            assert built == []
        assert not (tmp_path / "x").exists()


class TestSizeGuard:
    def test_huge_fan_exits_2_before_allocating(self, tmp_path, capsys):
        path = write_config(tmp_path, signal={"kind": "chirp"},
                            scheme={"kind": "frft_gauss", "a": 15.0, "n_windows": 40},
                            grid={"T": 8.0, "L": 65536})
        tracemalloc.start()
        try:
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "physical memory" in err
        assert peak < 10 * 2**20  # one 65536^2 array alone would be 32 GiB
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, doc", [
        ("retrieve", {}),  # W1: the default 40-window fan at L=1024
        ("retrieve", {"signal": {"kind": "mixture"},
                      "scheme": {"kind": "hermite", "degrees": [50, 100]}, "epsilon": 0.5,
                      "noise": {"model": "multiplicative", "level": 0.05}}),  # W2
        ("random-study", {"scheme": {"kind": "hermite", "degrees": [0]},
                          "grid": {"T": 8.0, "L": 512},
                          "study": {"count": 6, "degree_min": 0, "degree_max": 50,
                                    "trials": 20}}),  # W3
        ("retrieve", {"grid": {"T": 8.0, "L": 2048}}),  # W4
    ])
    def test_fixed_workloads_pass(self, tmp_path, command, doc):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(str(path))
        check_size(command, cfg)
        assert estimate_bytes(command, cfg) < 2**31

    def test_estimate_counts_windows_and_noise(self):
        cfg = load_config(None)
        L = cfg["grid"]["L"]
        clean = estimate_bytes("retrieve", cfg)
        lines = 2 * 16 * L * (L // 2 + 1)  # the first-pass lines of two window groups
        cfg["noise"] = {"model": "additive", "level": 0.1}
        # one rule for every noisy run, whatever checks the bounds: the noise
        # is drawn into the powers in place, beside at most two groups' lines
        for algorithm in ("alg1", "alg2"):
            for emit_json in (True, False):
                cfg["algorithm"], cfg["emit"]["json"] = algorithm, emit_json
                assert estimate_bytes("retrieve", cfg) - clean == lines
                assert estimate_bytes("verify-bounds", cfg) - clean == lines
        assert estimate_bytes("coverage", cfg) < estimate_bytes("baseline", cfg) < clean
        cfg["scheme"] = {"kind": "hermite", "degrees": [50, 100]}  # W2 with json off
        # coverage holds one quadrant of mask bits a member, (L/2 + 1)^2 bytes
        assert estimate_bytes("retrieve", cfg) - estimate_bytes("coverage", cfg) == \
            2 * 8 * L * L + lines - 2 * (L // 2 + 1) ** 2

    @pytest.mark.parametrize("doc", [
        {"signal": {"kind": "chirp"}, "scheme": {"kind": "frft_gauss", "a": 15.0, "n_windows": 12}},
        {"signal": {"kind": "mixture"}, "scheme": {"kind": "hermite", "degrees": [5, 10]}},
        {"signal": {"kind": "mixture"}, "scheme": {"kind": "hermite", "degrees": [50, 100]},
         "epsilon": 0.5, "emit": {"csv": True, "pgm": True, "json": False, "wav": False}},
    ], ids=["fan12", "hermite", "w2-json-off"])
    def test_estimate_covers_noisy_retrieve_peak(self, tmp_path, doc):
        # below L=512 the fixed overheads outgrow the per-cell estimate
        path = write_config(tmp_path, grid={"T": 8.0, "L": 512},
                            noise={"model": "multiplicative", "level": 0.05}, **doc)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert estimate_bytes("retrieve", load_config(str(path))) >= peak

    @pytest.mark.parametrize("doc", [
        {"scheme": {"kind": "frft_gauss", "a": 2.0, "n_windows": 8}},
        {"scheme": {"kind": "hermite", "degrees": [0, 5, 10]}},
    ], ids=["fan8", "hermite"])
    def test_estimate_covers_verify_bounds_peak(self, tmp_path, doc):
        # below L=512 the fixed overheads outgrow the per-cell estimate
        path = write_config(tmp_path, grid={"T": 8.0, "L": 512}, epsilon=1e-2,
                            noise={"model": "additive", "level": 0.01}, **doc)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert estimate_bytes("verify-bounds", load_config(str(path))) >= peak

    @pytest.mark.parametrize("L", [256, 1024])
    def test_estimate_covers_coverage_peak(self, tmp_path, L):
        # the default 40-window fan, whose polar scan of the union's extent
        # costs the same at every L
        path = write_config(tmp_path, grid={"T": 8.0, "L": L},
                            scheme={"kind": "frft_gauss", "a": 15.0, "n_windows": 40})
        tracemalloc.start()
        try:
            rc = main(["coverage", "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert estimate_bytes("coverage", load_config(str(path))) >= peak


ODD_NUMBERS = (0.0, -1.0, 1e-300, 1e300, float("nan"), float("inf"))


def config_doc(signal, T, L, top):
    """Documents that run on one signal and grid, whose Hermite degrees go
    up to `top`."""
    return st.fixed_dictionaries({
        "grid": st.just({"T": T, "L": L}),
        "study": st.fixed_dictionaries({"trials": st.integers(1, 3), "count": st.integers(1, 2),
                                        "degree_min": st.integers(0, 1),
                                        "degree_max": st.integers(2, top)}),
        "noise": st.one_of(st.just({"model": "none"}), *[st.fixed_dictionaries({
            "model": st.sampled_from(["additive", "multiplicative"]),
            "level": st.floats(0, 0.5)}, optional={"seed": st.integers(0, 5)})] * 2),
        **({"signal": st.just(signal)} if signal else {}),
    }, optional={
        "scheme": st.one_of(
            st.fixed_dictionaries({"kind": st.just("frft_gauss"), "a": st.floats(0.5, 4),
                                   "n_windows": st.integers(1, 6)}),
            st.fixed_dictionaries({"kind": st.just("frft_gauss"), "a": st.floats(0.5, 4),
                                   "angles": st.lists(st.floats(-10, 10), min_size=1,
                                                      max_size=6)}),
            st.fixed_dictionaries({"kind": st.just("hermite"), "degrees": st.lists(
                st.integers(0, top), min_size=1, max_size=3, unique=True).map(sorted)})),
        "epsilon": st.floats(-3.0, np.log10(0.5)).map(lambda e: 10.0 ** e),
        "anchor": st.one_of(st.none(), st.integers(-16, 16)),
        "algorithm": st.sampled_from(["alg1", "alg2"]),
        "emit": st.fixed_dictionaries({}, optional={
            key: st.booleans() for key in ("csv", "pgm", "json", "wav")}),
        "seed": st.integers(0, 10),
    })


# documents that run: every grid is small (L <= 64), so no example falls
# back to the L=1024 default.  The chirp (also the default signal) needs
# L/(4T) above its reach of 13.4, so T < 1.2 at L = 64, where the Hermite
# guard holds degrees up to 2; the mixture's shifts need T > 2, and with
# L/(4T) >= 3 it holds degrees up to 12
VALID_DOCS = st.one_of(
    st.tuples(st.sampled_from([None, {"kind": "chirp"}]), st.floats(1.0, 1.15), st.just(64),
              st.just(2)),
    st.integers(16, 32).flatmap(lambda n: st.tuples(
        st.just({"kind": "mixture"}), st.floats(2.5, n / 6), st.just(2 * n), st.just(12))),
).flatmap(lambda drawn: config_doc(*drawn))


def break_one(doc, field):
    """A copy of doc with the value at one key path replaced by a broken one."""
    *path, value = field
    node = doc = json.loads(json.dumps(doc))
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return doc


# one broken field: an odd number, a bad enum, an absent or unknown key, a
# degree or degree range up to 10**7, which the Hermite guard refuses
# before sampling, or an anchor off the grid.  Hypothesis draws the first
# entries most often, so they name a different key each.
BROKEN_FIELDS = [
    ("scheme", {"kind": "hermite", "degrees": [3, 10 ** 7]}), ("grid", "T", float("nan")),
    ("noise", {"model": "multiplicative", "level": float("inf")}), ("epsilon", 1e300),
    ("study", "degree_max", 10 ** 6), ("grid", "L", 63), ("signal", {"kind": "sine"}),
    ("anchor", 5000), ("algorithm", "alg3"), ("seed", -1),
    ("scheme", {"kind": "frft_gauss", "a": 40.0, "n_windows": 2}), ("signal", {"kind": "chirp"}),
    *(("grid", "T", x) for x in ODD_NUMBERS), *(("grid", "L", n) for n in (-2, 0, 2)),
    ("study", "count", 0), ("study", "count", 30), ("study", "degree_min", -1),
    ("signal", {"kind": "wav"}), ("signal", {"kind": "wav", "path": "no-such.wav"}),
    *(("scheme", {"kind": "frft_gauss", "a": x, "n_windows": 2}) for x in ODD_NUMBERS),
    ("scheme", {"kind": "frft_gauss"}), ("scheme", {"kind": "frft_gauss", "a": 2.0, "n_windows": 0}),
    ("scheme", {"kind": "frft_gauss", "a": 2.0, "angles": [0.5, float("nan")]}),
    *(("scheme", {"kind": "hermite", "degrees": d}) for d in ([], [-1], [5, 3], [10 ** 7])),
    ("scheme", {"kind": "hermite"}),
    *(("epsilon", x) for x in ODD_NUMBERS),
    ("noise", {"model": "poisson"}), ("noise", {"model": "additive"}),
    *(("noise", {"model": "multiplicative", "level": x}) for x in ODD_NUMBERS),
    ("noise", {"model": "additive", "level": 0.1, "seed": -1}),
]
# a minority of documents has a broken field (hypothesis draws the 0 in
# about a third of the examples), so most draws run a command
CONFIG_DOCS = st.builds(lambda doc, odds, field: break_one(doc, field) if odds == 0 else doc,
                        VALID_DOCS, st.integers(0, 5), st.sampled_from(BROKEN_FIELDS))


# valid Hermite runs on the mixture's small grids, with degrees up to 10**7
# and study ranges up to 10**6: most reach the guard, which CONFIG_DOCS
# reaches only through a broken field
HERMITE_DOCS = st.fixed_dictionaries({
    "signal": st.just({"kind": "mixture"}),
    "grid": st.fixed_dictionaries({"T": st.floats(4.0, 8.0),
                                   "L": st.integers(8, 32).map(lambda n: 2 * n)}),
    "scheme": st.fixed_dictionaries({"kind": st.just("hermite"), "degrees": st.lists(
        st.integers(0, 40) | st.integers(0, 10 ** 7), min_size=1, max_size=4,
        unique=True).map(sorted)}),
    "study": st.fixed_dictionaries({
        "trials": st.integers(1, 2), "count": st.integers(1, 3),
        "degree_min": st.integers(0, 10),
        "degree_max": st.integers(10, 40) | st.integers(10, 10 ** 6)}),
    "epsilon": st.floats(1e-3, 0.9),
    "noise": st.sampled_from([{"model": "none"}, {"model": "multiplicative", "level": 0.05}]),
    "emit": st.just({"csv": False, "pgm": False, "json": True, "wav": False}),
})


def run_exit_code(doc, command):
    """(exit code, seconds, RuntimeWarnings, stderr) of one CLI run of doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            rc = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
            elapsed = time.perf_counter() - start
    return rc, elapsed, [w for w in caught if issubclass(w.category, RuntimeWarning)], err.getvalue()


class TestConfigFuzz:
    """Every config exits 0, 2, 3 or 4 with one line at most on stderr, and
    no traceback.  Every grid here has L <= 64, where no run takes a
    second; a degree of 10**7 sampled before the Hermite guard would take
    minutes, so each run is held to 5 s."""

    @settings(max_examples=50, deadline=None)
    @given(doc=CONFIG_DOCS, command=st.sampled_from(sorted(COMMANDS)))
    def test_documented_exit_codes_only(self, doc, command):
        rc, elapsed, caught, err = run_exit_code(doc, command)
        assert rc in (0, 2, 3, 4)
        assert elapsed < 5.0
        if rc == 0:  # a successful run passed through no overflow or NaN
            assert not caught
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) <= 1

    @settings(max_examples=30, deadline=None)
    @given(doc=HERMITE_DOCS, command=st.sampled_from(sorted(COMMANDS)))
    def test_hermite_degrees_of_any_size(self, doc, command):
        rc, elapsed, caught, err = run_exit_code(doc, command)
        assert rc in (0, 2, 3, 4)
        assert elapsed < 5.0
        if rc == 0:
            assert not caught
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) <= 1
