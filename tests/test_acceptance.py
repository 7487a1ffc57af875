"""Acceptance gate: every criterion checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The full module is sized to finish in a few minutes.
"""
import json
import time

import numpy as np
import pytest

from specret import (
    HermiteAmbiguity,
    RetrievalConfig,
    Signal,
    add_noise,
    build_frft_family,
    build_hermite_family,
    chirp_preset,
    coverage_radii,
    dilated_gauss_samples,
    eval_frft_gauss_ambiguity,
    eval_gauss_ambiguity,
    eval_hermite_ambiguity,
    frft_gauss_samples,
    gen_chirp,
    gen_mixture,
    hermite_samples,
    make_grid,
    make_plan,
    measure_family,
    misfit,
    mixture_preset,
    numeric_ambiguity,
    run_alg1,
    run_alg2,
)
from specret.stft import stft_power
from oracles import (
    gauss_baseline_family,
    peel_masks,
    stability_mask,
    stft_coeffs,
    stft_energy,
    two_list_bounds,
)


def announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def torus_closed_form(evaluator_xy, grid):
    """Closed-form ambiguity evaluated as the lattice sees it: the V-plane
    values are periodized over the (2T, 1/dt) torus before the ambiguity
    phase is reapplied.  evaluator_xy(x, y) must accept arrays."""
    X, Y = np.meshgrid(grid.x, grid.y)
    acc = np.zeros_like(X, dtype=complex)
    for p in (-1, 0, 1):
        for q in (-1, 0, 1):
            Xa = X + 2 * grid.T * p
            Ya = Y + q / grid.dt
            acc += np.exp(-1j * np.pi * Xa * Ya) * evaluator_xy(Xa, Ya)
    return np.exp(1j * np.pi * X * Y) * acc


class TestCriterion1MasterOracle:
    def test_closed_form_vs_numeric_ambiguity(self):
        start = time.time()
        grid = make_grid(8.0, 512)
        cases = []
        for a in (1.0, 2.0, 10.0, 15.0, 50.0):
            cases.append((f"gauss(a={a:g})",
                          dilated_gauss_samples(a, grid),
                          lambda x, y, a=a: eval_gauss_ambiguity(a, x, y)))
        for alpha in (0.0, np.pi / 7, np.pi / 5, np.pi / 2):
            cases.append((f"frft(a=15, alpha={alpha:.3f})",
                          frft_gauss_samples(15.0, alpha, grid),
                          lambda x, y, al=alpha: eval_frft_gauss_ambiguity(15.0, al, x, y)))
        for n in (0, 1, 5, 10, 50, 100):
            cases.append((f"hermite(n={n})",
                          hermite_samples(n, grid),
                          lambda x, y, n=n: eval_hermite_ambiguity(n, x, y)))
        worst = 0.0
        for name, samples, closed in cases:
            numeric = numeric_ambiguity(samples, grid)
            expected = torus_closed_form(closed, grid)
            dev = float(np.max(np.abs(numeric - expected)))
            assert dev < 1e-5, f"{name}: deviation {dev}"
            worst = max(worst, dev)
        elapsed = time.time() - start
        assert elapsed < 60.0
        announce(1, f"15 windows, worst lattice deviation {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2Isometry:
    def test_weighted_energy_matches_norm_product(self):
        grid = make_grid(8.0, 1024)
        f = gen_chirp(chirp_preset(), grid)
        worst = 0.0
        for g in (dilated_gauss_samples(1.0, grid), hermite_samples(5, grid)):
            c = stft_coeffs(f, g)
            nf = grid.dt * np.sum(np.abs(f.values) ** 2)
            ng = grid.dt * np.sum(np.abs(g) ** 2)
            rel = abs(stft_energy(c) - nf * ng) / (nf * ng)
            assert rel < 1e-6
            worst = max(worst, rel)
        announce(2, f"relative energy defect {worst:.2e}")


class TestCriterion3CoverageGeometry:
    def test_formula_vs_brute_force_and_ordering(self):
        start = time.time()
        rep = coverage_radii(10.0, 40, 0.1)
        rel = abs(rep.covered_disc_radius_numeric - rep.R1) / rep.R1
        assert rel < 1e-3
        for a in range(2, 51):
            for N in range(3, 65):
                r = coverage_radii(float(a), N, 0.1, n_theta=2000)
                assert r.R1 > r.R2, (a, N)
        elapsed = time.time() - start
        assert elapsed < 30.0
        announce(3, f"R1 vs scan {rel:.2e}; R1>R2 on 49x62 grid; {elapsed:.1f}s")


class TestCriterion4NoiselessExactness:
    def test_covered_signals_reconstruct_exactly(self):
        start = time.time()
        grid = make_grid(8.0, 512)
        phi1 = Signal(grid=grid, values=dilated_gauss_samples(1.0, grid).astype(complex))

        fam_g = gauss_baseline_family(grid)
        d_gauss, _ = misfit(phi1, run_alg2(
            measure_family(phi1, fam_g), fam_g, RetrievalConfig(epsilon=1e-6)).signal)
        assert d_gauss < 1e-4

        fam0 = build_hermite_family([0], grid)
        d_h0, _ = misfit(phi1, run_alg2(
            measure_family(phi1, fam0), fam0,
            RetrievalConfig(epsilon=1e-6, algorithm="alg2")).signal)
        assert d_h0 < 1e-4

        mix = gen_mixture(mixture_preset(), grid)
        angles = [(j - 1) * np.pi / 40 for j in range(1, 81)]
        fam = build_frft_family(50.0, 80, grid, angles=angles)
        d_mix, _ = misfit(mix, run_alg1(
            measure_family(mix, fam), fam, RetrievalConfig(epsilon=0.5)).signal)
        assert d_mix < 1e-2

        elapsed = time.time() - start
        assert elapsed < 120.0
        announce(4, f"gauss {d_gauss:.2e}, hermite0 {d_h0:.2e}, "
                    f"mixture80 {d_mix:.2e}, {elapsed:.1f}s")


class TestCriterion5MultiVsSingleWindow:
    def test_chirp_separation(self):
        start = time.time()
        grid = make_grid(8.0, 1024)
        f = gen_chirp(chirp_preset(), grid)

        fam1 = build_frft_family(15.0, 40, grid)
        d_alg1, _ = misfit(f, run_alg1(
            measure_family(f, fam1), fam1, RetrievalConfig(epsilon=1e-3)).signal)
        assert d_alg1 < 0.02

        fam_g = gauss_baseline_family(grid)
        d_single, _ = misfit(f, run_alg2(
            measure_family(f, fam_g), fam_g, RetrievalConfig(epsilon=1e-3)).signal)
        assert d_single > 0.5

        fam2 = build_hermite_family([0, 10, 20, 30, 40, 50], grid)
        d_alg2, _ = misfit(f, run_alg2(
            measure_family(f, fam2), fam2,
            RetrievalConfig(epsilon=1e-3, algorithm="alg2")).signal)
        assert d_alg2 < 0.02

        elapsed = time.time() - start
        assert elapsed < 300.0
        announce(5, f"alg1 {d_alg1:.4f} / baseline {d_single:.3f} / "
                    f"alg2 {d_alg2:.4f}, {elapsed:.1f}s")


class TestCriterion6NoisyMultiModal:
    def test_two_windows_beat_one_under_noise(self):
        start = time.time()
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        level, seed = 0.05, 2026

        pair = build_hermite_family([50, 100], grid)
        clean_pair = measure_family(f, pair)
        noisy_pair = [add_noise(m, "multiplicative", level, seed + j)
                      for j, m in enumerate(clean_pair)]
        d_pair, _ = misfit(f, run_alg2(
            noisy_pair, pair, RetrievalConfig(epsilon=0.5, algorithm="alg2")).signal)
        assert d_pair < 0.15

        single = build_hermite_family([100], grid)
        clean_single = measure_family(f, single)
        noisy_single = [add_noise(m, "multiplicative", level, seed)
                        for m in clean_single]
        d_single, _ = misfit(f, run_alg2(
            noisy_single, single, RetrievalConfig(epsilon=0.5, algorithm="alg2")).signal)
        assert d_single >= 2.0 * d_pair

        elapsed = time.time() - start
        assert elapsed < 300.0
        announce(6, f"pair {d_pair:.4f}, single {d_single:.4f}, "
                    f"ratio {d_single / d_pair:.2f}, {elapsed:.1f}s")


class TestCriterion7StabilityBounds:
    def test_fifty_randomized_trials(self):
        start = time.time()
        grid = make_grid(8.0, 256)
        mix = gen_mixture(mixture_preset(), grid)
        fam_alg1 = build_frft_family(2.0, 8, grid)
        fam_alg2 = build_hermite_family([0, 5, 10], grid)
        clean = {"alg1": measure_family(mix, fam_alg1),
                 "alg2": measure_family(mix, fam_alg2)}
        families = {"alg1": fam_alg1, "alg2": fam_alg2}
        plans = {alg: make_plan(fam, RetrievalConfig(epsilon=1e-2, algorithm=alg))
                 for alg, fam in families.items()}
        master = np.random.default_rng(777)
        levels = [1e-3, 1e-2, 1e-1]
        checked = 0
        for trial in range(50):
            algorithm = ("alg1", "alg2")[trial % 2]
            model = ("additive", "multiplicative")[(trial // 2) % 2]
            level = levels[trial % 3]
            seed = int(master.integers(0, 2 ** 31))
            noisy = [add_noise(m, model, level, seed + j)
                     for j, m in enumerate(clean[algorithm])]
            report = two_list_bounds(clean[algorithm], noisy, plans[algorithm])
            assert report.satisfied == (True, True), (trial, algorithm, model, level)
            checked += 1
        elapsed = time.time() - start
        assert checked == 50
        assert elapsed < 600.0
        announce(7, f"50/50 trials satisfied both bounds, {elapsed:.1f}s")


class TestCriterion8PropertySuites:
    def test_misfit_pseudometric(self, rng):
        grid = make_grid(8.0, 256)
        values = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        f = Signal(grid=grid, values=values)
        assert misfit(f, f)[0] < 1e-12
        for theta in rng.uniform(0, 2 * np.pi, 8):
            g = Signal(grid=grid, values=np.exp(1j * theta) * values)
            assert misfit(f, g)[0] < 1e-10

    def test_peel_masks_disjoint_union_exact(self):
        grid = make_grid(8.0, 256)
        fam = build_hermite_family([0, 5, 10, 20], grid)
        peeled = peel_masks(fam, 0.1)
        union = np.zeros_like(peeled[0])
        for i, a in enumerate(peeled):
            for b in peeled[i + 1:]:
                assert not (a & b).any()
            union |= a
        direct = np.zeros_like(union)
        for m in fam.members:
            direct |= stability_mask(m.evaluator, 0.1, grid)
        assert np.array_equal(union, direct)

    def test_stability_mask_monotone(self):
        grid = make_grid(8.0, 256)
        ev = HermiteAmbiguity(8)
        previous = stability_mask(ev, 0.02, grid)
        for eps in (0.05, 0.1, 0.2, 0.4):
            current = stability_mask(ev, eps, grid)
            assert not (current & ~previous).any()
            previous = current

    def test_global_phase_invariance(self, rng):
        grid = make_grid(8.0, 256)
        f = Signal(grid=grid, values=(rng.standard_normal(grid.L)
                                      + 1j * rng.standard_normal(grid.L))
                   * np.exp(-0.5 * (grid.t / 2.5) ** 2))
        rotated = Signal(grid=grid, values=1j * f.values)  # exact re/im swap
        g = dilated_gauss_samples(1.0, grid)
        p1 = stft_power(f, g)
        p2 = stft_power(rotated, g)
        assert np.array_equal(p1, p2)

        # real-valued windows keep the whole pipeline bit-identical
        herm = build_hermite_family([0, 4, 8], grid)
        cfg2 = RetrievalConfig(epsilon=1e-3, algorithm="alg2")
        r1 = run_alg2(measure_family(f, herm), herm, cfg2)
        r2 = run_alg2(measure_family(rotated, herm), herm, cfg2)
        assert np.array_equal(r1.signal.values, r2.signal.values)

        # complex chirped windows agree to rounding (complex products are
        # not exactly equivariant under re/im swaps)
        fam = build_frft_family(2.0, 8, grid)
        cfg1 = RetrievalConfig(epsilon=1e-3)
        r1 = run_alg1(measure_family(f, fam), fam, cfg1)
        r2 = run_alg1(measure_family(rotated, fam), fam, cfg1)
        scale = np.max(np.abs(r1.signal.values))
        assert np.max(np.abs(r1.signal.values - r2.signal.values)) < 1e-10 * scale
        announce(8, "misfit identities, peeling exactness, mask monotonicity, "
                    "phase invariance")


class TestCriterion9RandomWindowStudy:
    def test_hundred_trial_study(self, tmp_path):
        from specret.cli import main
        start = time.time()
        cfg = {
            "signal": {"kind": "chirp"},
            "scheme": {"kind": "hermite", "degrees": [0, 10, 20, 30, 40, 50]},
            "epsilon": 1e-3,
            "grid": {"T": 8.0, "L": 512},
            "study": {"count": 6, "degree_min": 0, "degree_max": 50, "trials": 100},
            "seed": 0,
            "emit": {"csv": True, "pgm": False, "json": True, "wav": False},
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study"
        assert main(["random-study", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 100
        assert summary["mean"] < 0.1
        assert summary["p90"] < 0.1
        elapsed = time.time() - start
        assert elapsed < 1200.0
        announce(9, f"mean {summary['mean']:.4f}, p90 {summary['p90']:.4f}, {elapsed:.1f}s")
