import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specret import (
    AmbiguityGrid,
    FrftGaussAmbiguity,
    GridMismatchError,
    RetrievalConfig,
    Signal,
    add_noise,
    build_frft_family,
    build_hermite_family,
    gen_mixture,
    make_grid,
    make_plan,
    measure_family,
    misfit,
    mixture_preset,
    run_alg1,
    run_alg2,
    verify_noise_bounds,
)
from specret import ambiguity
from oracles import assemble, lattice_norm, mixed_norm, two_assembly_bounds
from conftest import random_signal

SMALL = make_grid(2.0, 16)

signal_values = st.builds(
    lambda re, im: np.array(re) + 1j * np.array(im),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=16, max_size=16),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=16, max_size=16),
)


class TestMisfit:
    def test_identical_signals(self, grid256, rng):
        f = random_signal(grid256, rng)
        d, theta = misfit(f, f)
        assert d < 1e-12
        assert min(theta, 2 * np.pi - theta) < 1e-12

    def test_pure_phase_offset(self, grid256, rng):
        f = random_signal(grid256, rng)
        g = Signal(grid=grid256, values=np.exp(1j * np.pi / 3) * f.values)
        d, theta = misfit(f, g)
        assert d < 1e-12
        # e^{i theta*} g must align with f
        assert_allclose(np.exp(1j * theta) * g.values, f.values, rtol=0, atol=1e-9)
        assert_allclose(theta, 2 * np.pi - np.pi / 3, rtol=1e-9)

    def test_double_amplitude(self, grid256, rng):
        f = random_signal(grid256, rng)
        f = Signal(grid=grid256, values=f.values / np.linalg.norm(f.values))
        g = Signal(grid=grid256, values=2.0 * f.values)
        d, theta = misfit(f, g)
        assert_allclose(d, 1.0, rtol=1e-12)
        assert_allclose(theta % (2 * np.pi), 0.0, atol=1e-12)

    def test_zero_reference_rejected(self, grid256, rng):
        z = Signal(grid=grid256, values=np.zeros(grid256.L))
        f = random_signal(grid256, rng)
        with pytest.raises(ValueError):
            misfit(z, f)

    def test_grid_mismatch_rejected(self, grid256, grid512, rng):
        with pytest.raises(ValueError):
            misfit(random_signal(grid256, rng), random_signal(grid512, rng))

    @settings(max_examples=40, deadline=None)
    @given(values=signal_values, theta=st.floats(0, 2 * np.pi - 1e-9))
    def test_pseudometric_modulo_phase(self, values, theta):
        if np.linalg.norm(values) < 1e-6:
            return
        f1 = Signal(grid=SMALL, values=values)
        f2 = Signal(grid=SMALL, values=np.conj(values[::-1]))
        d_plain = misfit(f1, f2)[0]
        rotated = Signal(grid=SMALL, values=np.exp(1j * theta) * f2.values)
        d_rot = misfit(f1, rotated)[0]
        assert abs(d_plain - d_rot) < 1e-10


class TestMixedNorm:
    def test_single_cell(self):
        grid = make_grid(2.0, 16)
        values = np.zeros((16, 16), dtype=complex)
        values[3, 5] = 1.0
        G = AmbiguityGrid(grid=grid, values=values)
        for p in (1.0, 2.0, 3.5):
            assert_allclose(mixed_norm(G, p), grid.dy * grid.dt ** (1 / p), rtol=1e-12)

    def test_p1_is_plain_l1(self, grid256, rng):
        values = rng.standard_normal((grid256.L, grid256.L)) * 1j
        values += rng.standard_normal((grid256.L, grid256.L))
        G = AmbiguityGrid(grid=grid256, values=values)
        l1 = grid256.dt * grid256.dy * np.sum(np.abs(values))
        assert_allclose(mixed_norm(G, 1.0), l1, rtol=1e-12)

    def test_gauss_ambiguity_analytic_value(self):
        # closed form: the L^{2,1} norm of A phi_1 is exactly 1; the fine
        # quadrature oracle cross-checks the lattice value
        grid = make_grid(8.0, 512)
        G = AmbiguityGrid(grid=grid,
                          values=FrftGaussAmbiguity(1.0, 0.0).on_lattice(grid).astype(complex))
        val = mixed_norm(G, 2.0)
        fine = make_grid(8.0, 4096)
        Gf = FrftGaussAmbiguity(1.0, 0.0).on_lattice(fine)
        oracle = lattice_norm(Gf, fine.dt, fine.dy, 2.0)
        assert_allclose(val, oracle, rtol=1e-6)
        assert_allclose(val, 1.0, rtol=1e-6)

    def test_rejects_p_below_one(self, grid256):
        G = AmbiguityGrid(grid=grid256, values=np.zeros((grid256.L, grid256.L), dtype=complex))
        with pytest.raises(ValueError):
            mixed_norm(G, 0.5)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.lists(st.floats(-3, 3, allow_nan=False), min_size=64, max_size=64),
        b=st.lists(st.floats(-3, 3, allow_nan=False), min_size=64, max_size=64),
        scale=st.floats(-4, 4, allow_nan=False),
        p=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    )
    def test_homogeneity_and_triangle(self, a, b, scale, p):
        grid = SMALL
        A = np.array(a, dtype=complex).reshape(8, 8)
        B = np.array(b, dtype=complex).reshape(8, 8)
        pad = np.zeros((16, 16), dtype=complex)
        GA, GB, GS = pad.copy(), pad.copy(), pad.copy()
        GA[:8, :8] = A
        GB[:8, :8] = B
        GS[:8, :8] = A + B
        na = mixed_norm(AmbiguityGrid(grid=grid, values=GA), p)
        nb = mixed_norm(AmbiguityGrid(grid=grid, values=GB), p)
        ns = mixed_norm(AmbiguityGrid(grid=grid, values=GS), p)
        assert ns <= na + nb + 1e-10
        GHom = pad.copy()
        GHom[:8, :8] = scale * A
        assert abs(mixed_norm(AmbiguityGrid(grid=grid, values=GHom), p) - abs(scale) * na) < 1e-10


class TestNoiseBounds:
    def _setup(self, algorithm, L=256):
        grid = make_grid(8.0, L)
        f = gen_mixture(mixture_preset(), grid)
        if algorithm == "alg1":
            family = build_frft_family(2.0, 8, grid)
        else:
            family = build_hermite_family([0, 5, 10], grid)
        clean = measure_family(f, family)
        return grid, f, family, clean

    def test_zero_noise_trivially_satisfied(self):
        grid, f, family, clean = self._setup("alg1")
        cfg = RetrievalConfig(epsilon=1e-3)
        report = verify_noise_bounds(clean, clean, make_plan(family, cfg))
        assert report.lhs_A_norm == 0.0
        assert report.rhs_bound == 0.0
        assert report.satisfied == (True, True)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("model,level", [("additive", 0.01), ("multiplicative", 0.05)])
    def test_bounds_hold(self, algorithm, model, level):
        grid, f, family, clean = self._setup(algorithm)
        cfg = RetrievalConfig(epsilon=1e-2, algorithm=algorithm)
        plan = make_plan(family, cfg)
        for seed in range(3):
            noisy = [add_noise(m, model, level, seed=100 * seed + j)
                     for j, m in enumerate(clean)]
            report = verify_noise_bounds(clean, noisy, plan)
            assert report.satisfied == (True, True)
            assert report.lhs_A_norm <= report.rhs_bound
            assert report.lhs_slice <= report.rhs_slice_bound

    def test_slice_constant_is_row_measure(self):
        grid, f, family, clean = self._setup("alg2")
        cfg = RetrievalConfig(epsilon=1e-2, algorithm="alg2")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, cfg)
        report = verify_noise_bounds(clean, noisy, plan)
        omega = assemble(clean, plan).mask
        expected = grid.dt * omega[grid.L // 2, :].sum()
        assert_allclose(report.C_R_Omega, expected, rtol=0, atol=0)

    def test_noise_norm_convention_differs_by_algorithm(self):
        grid, f, family, clean = self._setup("alg1")
        noisy = [add_noise(m, "additive", 0.02, seed=j) for j, m in enumerate(clean)]
        cfg = RetrievalConfig(epsilon=1e-2)
        r1 = verify_noise_bounds(clean, noisy, make_plan(family, cfg))
        etas = [n - c for c, n in zip(clean, noisy)]
        dxdy = grid.dt * grid.dy
        assert_allclose(r1.noise_norm, dxdy * np.abs(sum(etas)).sum(), rtol=1e-12)

    def test_approximation_terms_with_truth(self):
        grid, f, family, clean = self._setup("alg2")
        cfg = RetrievalConfig(epsilon=1e-2, algorithm="alg2")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        report = verify_noise_bounds(clean, noisy, make_plan(family, cfg), f_true=f)
        assert report.approx_term is not None and report.approx_term >= 0
        assert report.approx_slice_term is not None and report.approx_slice_term >= 0

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_non_finite_noisy_power_rejected(self, algorithm):
        grid, f, family, clean = self._setup(algorithm)
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        noisy[1][3, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            verify_noise_bounds(clean, noisy, plan)

    def test_true_signal_on_another_grid_rejected(self):
        # same L, other T: the approximation terms would take the plan's dt
        grid, f, family, clean = self._setup("alg2")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        other = Signal(grid=make_grid(6.0, grid.L), values=f.values)
        with pytest.raises(GridMismatchError):
            verify_noise_bounds(clean, noisy, plan, f_true=other)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("p", [2.0])
    @pytest.mark.parametrize("L", [200, 256])
    def test_matches_two_assembly_oracle(self, algorithm, L, p):
        # the transformed noise sums against the difference of the clean and
        # noisy assemblies; only the summation order of the lhs norms differs
        grid, f, family, clean = self._setup(algorithm, L)
        cfg = RetrievalConfig(epsilon=1e-2, algorithm=algorithm)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = (run_alg1 if algorithm == "alg1" else run_alg2)(noisy, family, cfg).plan
        got = verify_noise_bounds(clean, noisy, plan, f_true=f)
        want = two_assembly_bounds(clean, noisy, plan, p=p, f_true=f)
        for name in ("epsilon", "p", "C_p", "C_R_Omega", "rhs_bound", "rhs_slice_bound",
                     "noise_norm", "satisfied", "approx_term", "approx_slice_term"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.lhs_A_norm > 0
        assert_allclose(got.lhs_A_norm, want.lhs_A_norm, rtol=1e-12, atol=0)
        assert_allclose(got.lhs_slice, want.lhs_slice, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_peak_memory(self, algorithm):
        # no clean or noisy J: one noise sum, its half-plane transform and
        # its region's row band at a time (two assemblies peaked at 37.3 and
        # 32.0 L^2 bytes on these families)
        L = 512
        grid, f, family, clean = self._setup(algorithm, L)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_noise_bounds(clean, noisy, plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 30 * L * L

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_block_size_keeps_the_bits(self, monkeypatch, algorithm):
        # each row's |.|^p sum covers the whole row in every block size, so
        # the report is the same to the bit; row spans exceed 64 rows here
        grid, f, family, clean = self._setup(algorithm)
        noisy = [add_noise(m, "multiplicative", 0.05, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        reports = []
        for rows in (1, 7, 64, 1000):
            monkeypatch.setattr(ambiguity, "PRODUCT_ROWS", rows)
            reports.append(verify_noise_bounds(clean, noisy, plan, f_true=f))
        assert all(r == reports[0] for r in reports[1:])

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_peak_memory_in_blocks(self, l1024_blocks, algorithm):
        # a noise sum and its half-plane transform, 8 L^2 bytes each, and
        # blocks of the read-out; the whole-band check also held the band,
        # its two gathers and its |.| (40 L^2 on the Hermite family)
        L = 256
        grid, f, family, clean = self._setup(algorithm, L)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        verify_noise_bounds(clean, noisy, plan)  # FFT plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_noise_bounds(clean, noisy, plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * L * L + 4 * L * L

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_peak_memory_with_truth(self, l1024_blocks, algorithm):
        # the true signal's ambiguity, 16 L^2 bytes, beside its |.|, 8 L^2;
        # the whole-table ambiguity peaked at 40 L^2
        L = 256
        grid, f, family, clean = self._setup(algorithm, L)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        verify_noise_bounds(clean, noisy, plan, f_true=f)  # FFT plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_noise_bounds(clean, noisy, plan, f_true=f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (16 + 8 + 4) * L * L

    def test_json_round_trip(self):
        import json
        grid, f, family, clean = self._setup("alg1")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        report = verify_noise_bounds(clean, noisy,
                                     make_plan(family, RetrievalConfig(epsilon=1e-2)))
        blob = json.dumps(report._asdict())
        assert json.loads(blob)["satisfied"] == [True, True]
