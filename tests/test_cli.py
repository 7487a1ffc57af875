import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specret
from specret import Signal, add_noise, load_wav, make_grid, make_plan, save_wav
from specret import container
from specret.cli import COMMANDS, check_size, estimate_bytes, main
from specret.config import load_config
from oracles import two_list_bounds


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
        from specret import cli, windows
        path = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 1})
        cfg = load_config(str(path))
        f, _ = cli._build_signal(cfg)
        family = cli._build_family(cfg, f.grid)
        clean = cli.measure_family(f, family)
        noisy = [add_noise(p, "additive", 0.01, 1 + j) for j, p in enumerate(clean)]
        fresh = two_list_bounds(clean, noisy, make_plan(family, cli._retrieval_config(cfg)))
        degrees = []
        original = windows.hermite_lattices
        monkeypatch.setattr(windows, "hermite_lattices",
                            lambda ns, grid, *args, **kwargs:
                            degrees.extend(ns) or original(ns, grid, *args, **kwargs))
        out = tmp_path / "run"
        assert main(["retrieve", "--config", str(path), "--out", str(out)]) == 0
        assert degrees == [0, 5]
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
    """`_apply_noise` with a plan, which sums each group's noise as the
    noise is drawn, against the two-list oracle."""

    @pytest.mark.parametrize("scheme", [
        {"kind": "frft_gauss", "a": 2.0, "n_windows": 4},  # alg1
        {"kind": "frft_gauss", "a": 2.0, "n_windows": 5},  # alg1, a last pair of one
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
        plan = make_plan(family, cli._retrieval_config(cfg))
        f_true = f if truth else None
        clean = cli.measure_family(f, family)
        noisy = [add_noise(p, model, 0.05, 9 + j) for j, p in enumerate(clean)]
        want = two_list_bounds(clean, noisy, plan, f_true)
        for keep in (True, False):
            powers = cli.measure_family(f, family)
            sums = cli._apply_noise(powers, cfg, plan, keep)
            assert len(sums) == len(plan.groups)
            if keep:
                assert all(np.array_equal(p, q) for p, q in zip(powers, noisy, strict=True))
            else:
                assert powers == [None] * len(family)
            got = cli.verify_noise_bounds(sums, plan, f_true)
            for name in want._fields:
                assert getattr(got, name) == getattr(want, name), name


class TestBaseline:
    def test_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["baseline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "result.json").exists()

    def test_noisy_baseline_is_alg2_on_the_one_window_family(self, tmp_path):
        from specret import measure_family, run_alg2
        from specret.cli import _apply_noise, _build_signal, _retrieval_config
        from specret.container import read_signal
        from oracles import gauss_baseline_family
        path = write_config(tmp_path, noise={"model": "multiplicative", "level": 0.05, "seed": 3})
        out = tmp_path / "run"
        assert main(["baseline", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_config(str(path), {"out": str(out), "seed": None})
        f, _ = _build_signal(cfg)
        fam = gauss_baseline_family(f.grid)
        powers = measure_family(f, fam)
        _apply_noise(powers, cfg)
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
        # one `hermite_lattices` run over the degrees gives each member's
        # stability mask, bit for bit
        from specret import HermiteAmbiguity, cli, stability_mask
        runs = []
        lattices = cli.hermite_lattices
        monkeypatch.setattr(cli, "hermite_lattices",
                            lambda *args: runs.append(args[0]) or lattices(*args))
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
        # a degree-900 Hermite window underflows on a T=40 grid
        path = write_config(tmp_path, scheme={"kind": "hermite", "degrees": [900]},
                            grid={"T": 40.0, "L": 1024})
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

    def test_overflow_in_a_worker_noise_draw_exits_3(self, tmp_path, capsys, monkeypatch):
        # window 1's noise is drawn on the second thread, under the CLI's
        # errstate; scaled by 1e300, its first block of draws overflows
        from specret import cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        draw = cli.add_noise
        threads = []

        def huge_second_draw(power, model, level, seed):
            if seed == 3 + 1:
                threads.append(threading.get_ident())
                level = 1e300
            return draw(power, model, level, seed)

        monkeypatch.setattr(cli, "add_noise", huge_second_draw)
        path = write_config(tmp_path, noise={"model": "additive", "level": 0.01, "seed": 3})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["retrieve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert not caught
        assert len(threads) == 1 and threads[0] != threading.get_ident()
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
        cfg["noise"] = {"model": "additive", "level": 0.1}
        # alg1 sums the noise into one buffer as two noisy powers replace their clean ones
        assert estimate_bytes("retrieve", cfg) - clean == 3 * L * L * 8
        assert estimate_bytes("verify-bounds", cfg) - clean == 3 * L * L * 8
        assert estimate_bytes("coverage", cfg) < estimate_bytes("baseline", cfg) < clean
        # alg2 keeps every window's noise beside its noisy power until the bound check
        cfg["algorithm"] = "alg2"
        assert estimate_bytes("retrieve", cfg) - clean == 40 * L * L * 8
        assert estimate_bytes("verify-bounds", cfg) - clean == 3 * L * L * 8

    @pytest.mark.parametrize("doc", [
        {"signal": {"kind": "chirp"}, "scheme": {"kind": "frft_gauss", "a": 15.0, "n_windows": 12}},
        {"signal": {"kind": "mixture"}, "scheme": {"kind": "hermite", "degrees": [5, 10]}},
    ], ids=["fan12", "hermite"])
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


def mostly(valid, *odd):
    """Draw `valid` about seven times in eight, else one of the odd values."""
    return st.one_of(*[valid] * 7, st.sampled_from(odd))


ODD_NUMBERS = (0.0, -1.0, 1e-300, 1e300, float("nan"), float("inf"))
CONFIG_DOCS = st.fixed_dictionaries(
    {
        # always present and small, so no example falls back to the L=1024 default
        "grid": st.fixed_dictionaries({
            "T": mostly(st.floats(0.5, 8), *ODD_NUMBERS),
            "L": mostly(st.integers(8, 32).map(lambda n: 2 * n), -2, 0, 2, 63)}),
        "study": st.fixed_dictionaries({"trials": st.integers(1, 3)}, optional={
            "count": mostly(st.integers(1, 4), 0, 30), "degree_min": mostly(st.integers(0, 10), -1),
            "degree_max": st.integers(10, 20)}),
    },
    optional={
        "signal": mostly(st.sampled_from([{"kind": "mixture"}, {"kind": "mixture"},
                                          {"kind": "chirp"}]),
                         {"kind": "wav"}, {"kind": "wav", "path": "no-such.wav"},
                         {"kind": "sine"}),
        "scheme": st.one_of(
            st.fixed_dictionaries({"kind": st.just("frft_gauss")}, optional={
                "a": mostly(st.floats(0.2, 40), *ODD_NUMBERS),
                "n_windows": mostly(st.integers(1, 6), -1, 0),
                "angles": st.lists(mostly(st.floats(-10, 10), *ODD_NUMBERS), max_size=6)}),
            st.fixed_dictionaries({"kind": st.just("hermite")}, optional={
                "degrees": mostly(st.lists(st.integers(0, 40), min_size=1, max_size=4,
                                           unique=True).map(sorted), [], [-1], [5, 3])})),
        "epsilon": mostly(st.floats(1e-6, 0.9), *ODD_NUMBERS),
        "noise": mostly(st.sampled_from([{"model": "none"}]), {"model": "poisson"},
                        {"model": "additive"}) | st.fixed_dictionaries({
            "model": st.sampled_from(["additive", "multiplicative"]),
            "level": mostly(st.floats(0, 0.5), *ODD_NUMBERS)},
            optional={"seed": mostly(st.integers(0, 5), -1)}),
        "anchor": st.one_of(st.none(), st.integers(-100, 100)),
        "algorithm": mostly(st.sampled_from(["alg1", "alg2"]), "alg3"),
        "emit": st.fixed_dictionaries({}, optional={
            key: st.booleans() for key in ("csv", "pgm", "json", "wav")}),
        "seed": mostly(st.integers(0, 10), -1),
    },
)


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(doc=CONFIG_DOCS, command=st.sampled_from(sorted(COMMANDS)))
    def test_documented_exit_codes_only(self, doc, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert rc in (0, 2, 3, 4)
        if rc == 0:  # a successful run passed through no overflow or NaN
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) <= 1
