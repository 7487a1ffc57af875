import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specret import (
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
from specret import stft
from specret.ambiguity import Lines, lines_of
from specret.stft import block_height
from oracles import (
    lattice_norm,
    mixed_norm,
    noise_lines,
    noise_sums,
    row_l1,
    two_assembly_bounds,
    two_list_bounds,
)
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
        for p in (1.0, 2.0, 3.5):
            assert_allclose(mixed_norm(values, grid, p), grid.dy * grid.dt ** (1 / p), rtol=1e-12)

    def test_p1_is_plain_l1(self, grid256, rng):
        values = rng.standard_normal((grid256.L, grid256.L)) * 1j
        values += rng.standard_normal((grid256.L, grid256.L))
        l1 = grid256.dt * grid256.dy * np.sum(np.abs(values))
        assert_allclose(mixed_norm(values, grid256, 1.0), l1, rtol=1e-12)

    def test_gauss_ambiguity_analytic_value(self):
        # closed form: the L^{2,1} norm of A phi_1 is exactly 1; the fine
        # quadrature oracle cross-checks the lattice value
        grid = make_grid(8.0, 512)
        val = mixed_norm(FrftGaussAmbiguity(1.0, 0.0).on_lattice(grid).astype(complex), grid, 2.0)
        fine = make_grid(8.0, 4096)
        Gf = FrftGaussAmbiguity(1.0, 0.0).on_lattice(fine)
        oracle = lattice_norm(Gf, fine.dt, fine.dy, 2.0)
        assert_allclose(val, oracle, rtol=1e-6)
        assert_allclose(val, 1.0, rtol=1e-6)

    def test_rejects_p_below_one(self, grid256):
        with pytest.raises(ValueError):
            mixed_norm(np.zeros((grid256.L, grid256.L), dtype=complex), grid256, 0.5)

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
        na = mixed_norm(GA, grid, p)
        nb = mixed_norm(GB, grid, p)
        ns = mixed_norm(GS, grid, p)
        assert ns <= na + nb + 1e-10
        GHom = pad.copy()
        GHom[:8, :8] = scale * A
        assert abs(mixed_norm(GHom, grid, p) - abs(scale) * na) < 1e-10


class TestBlockwiseL1:
    """The noise sums' L1 norm (`ambiguity.FirstPass`): each row's sum of
    |.| added in row order, with the bits of `oracles.row_l1` in either
    layout, within rounding of the whole-array np.sum(np.abs(.)), and
    never the |.| of more than one `block_height` block."""

    @pytest.mark.parametrize("shape", [(16, 16), (256, 256), (250, 250), (1024, 1024)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_has_the_whole_sums_bits(self, rng, shape, order):
        grid = make_grid(8.0, shape[0])
        for scale in (1e-3, 1.0, 1e5):
            x = np.asarray(scale * rng.standard_normal(shape), order=order)
            l1 = lines_of(x, grid, None, l1=True).l1
            assert l1 == row_l1(x)
            assert abs(l1 - np.sum(np.abs(x))) <= 1e-13 * l1

    def test_holds_no_abs_of_the_whole_array(self, rng):
        grid = make_grid(8.0, 1024)
        x = rng.standard_normal((1024, 1024))
        lines_of(x, grid, None, l1=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lines_of(x, grid, None, l1=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the |.| of the whole array is 8 MB
        assert peak <= 8 * block_height(1024) * 1024 + 4096


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
        report = two_list_bounds(clean, clean, make_plan(family, cfg))
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
            report = two_list_bounds(clean, noisy, plan)
            assert report.satisfied == (True, True)
            assert report.lhs_A_norm <= report.rhs_bound
            assert report.lhs_slice <= report.rhs_slice_bound

    def test_slice_constant_is_row_measure(self):
        grid, f, family, clean = self._setup("alg2")
        cfg = RetrievalConfig(epsilon=1e-2, algorithm="alg2")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, cfg)
        report = two_list_bounds(clean, noisy, plan)
        omega = plan.omega
        expected = grid.dt * omega[grid.L // 2, :].sum()
        assert_allclose(report.C_R_Omega, expected, rtol=0, atol=0)

    def test_noise_norm_convention_differs_by_algorithm(self):
        grid, f, family, clean = self._setup("alg1")
        noisy = [add_noise(m, "additive", 0.02, seed=j) for j, m in enumerate(clean)]
        cfg = RetrievalConfig(epsilon=1e-2)
        r1 = two_list_bounds(clean, noisy, make_plan(family, cfg))
        etas = [n - c for c, n in zip(clean, noisy)]
        dxdy = grid.dt * grid.dy
        assert_allclose(r1.noise_norm, dxdy * np.abs(sum(etas)).sum(), rtol=1e-12)

    def test_approximation_terms_with_truth(self):
        grid, f, family, clean = self._setup("alg2")
        cfg = RetrievalConfig(epsilon=1e-2, algorithm="alg2")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        report = two_list_bounds(clean, noisy, make_plan(family, cfg), f_true=f)
        assert report.approx_term is not None and report.approx_term >= 0
        assert report.approx_slice_term is not None and report.approx_slice_term >= 0

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_non_finite_noisy_power_rejected(self, algorithm):
        grid, f, family, clean = self._setup(algorithm)
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        noisy[1][3, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            two_list_bounds(clean, noisy, plan)

    def test_wrong_count_of_noise_sums_names_sums_and_groups(self):
        grid = make_grid(8.0, 64)
        plan = make_plan(build_frft_family(2.0, 4, grid), RetrievalConfig(epsilon=1e-2))
        zero = np.zeros((64, 64))  # one per window, not per group
        lines = [lines_of(zero, grid, plan.spans[0], l1=True) for _ in range(4)]
        with pytest.raises(ValueError, match="4 noise sums for 1 window groups"):
            verify_noise_bounds(lines, plan)

    @staticmethod
    def refuse_transforms(monkeypatch):
        from specret import retrieval

        def refuse(*args):
            raise AssertionError("a noise sum was transformed")

        monkeypatch.setattr(retrieval, "product_blocks", refuse)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_list_of_the_wrong_length_is_refused_before_any_transform(self, monkeypatch, count):
        # alg2 on three windows: three groups
        grid, f, family, clean = self._setup("alg2")
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        lines = noise_lines(clean, clean, plan)
        self.refuse_transforms(monkeypatch)
        with pytest.raises(ValueError, match=f"^{count} noise sums for 3 window groups$"):
            verify_noise_bounds((lines * 2)[:count], plan)

    @pytest.mark.parametrize("group", [0, 2])
    def test_lines_without_their_l1_are_refused_before_any_transform(self, monkeypatch, group):
        # the runners' lines, passed by mistake, carry no L1
        grid, f, family, clean = self._setup("alg2")
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        lines = noise_lines(clean, clean, plan)
        lines[group] = lines_of(clean[group], grid, plan.spans[group])
        self.refuse_transforms(monkeypatch)
        with pytest.raises(ValueError, match=f"^group {group}'s noise lines have no L1"):
            verify_noise_bounds(lines, plan)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_noise_lines_serve_one_check(self, algorithm):
        # the check transforms its lines in place: a second check of the same
        # lines would read them transformed twice and report a tiny lhs
        grid, f, family, clean = self._setup(algorithm)
        noisy = [add_noise(m, "multiplicative", 0.05, seed=7 + j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        lines = noise_lines(clean, noisy, plan)
        first = verify_noise_bounds(lines, plan)
        assert first == two_list_bounds(clean, noisy, plan)
        with pytest.raises(ValueError, match="measure again"):
            verify_noise_bounds(lines, plan)

    def test_non_finite_sum_of_a_group_with_no_cells_rejected(self):
        # window 1 repeats window 0, so under alg2 its group claims no cell;
        # its first pass keeps no line, yet its L1 refuses a non-finite sum
        grid = make_grid(8.0, 256)
        family = build_frft_family(2.0, 2, grid, angles=[0.0, 0.0])
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        assert not (plan.owner == 1).any() and plan.spans[1] is None
        sums = [np.zeros((256, 256)) for _ in range(2)]
        lines = [lines_of(eta, grid, span, l1=True) for eta, span in zip(sums, plan.spans)]
        assert verify_noise_bounds(lines, plan).noise_norm == 0
        sums[1][3, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lines_of(sums[1], grid, plan.spans[1], l1=True)

    def test_true_signal_on_another_grid_rejected(self):
        # same L, other T: the approximation terms would take the plan's dt
        grid, f, family, clean = self._setup("alg2")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        other = Signal(grid=make_grid(6.0, grid.L), values=f.values)
        with pytest.raises(GridMismatchError):
            two_list_bounds(clean, noisy, plan, f_true=other)

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
        got = two_list_bounds(clean, noisy, plan, f_true=f)
        want = two_assembly_bounds(clean, noisy, plan, p=p, f_true=f)
        for name in ("epsilon", "p", "C_p", "C_R_Omega", "rhs_bound", "rhs_slice_bound",
                     "noise_norm", "satisfied", "approx_term", "approx_slice_term"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.lhs_A_norm > 0
        assert_allclose(got.lhs_A_norm, want.lhs_A_norm, rtol=1e-12, atol=0)
        assert_allclose(got.lhs_slice, want.lhs_slice, rtol=1e-12, atol=0)

    @staticmethod
    def check_peak(lines, plan, f_true=None):
        """The peak of `verify_noise_bounds` beyond its input lines."""
        fresh = [Lines(x.X.copy(order="K"), x.l1) for x in lines]
        verify_noise_bounds(fresh, plan, f_true)  # FFT plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_noise_bounds(lines, plan, f_true)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_peak_memory(self, algorithm):
        # no clean or noisy J, and no noise sum: a block of the read-out, its
        # quotient's |.| and numpy's 2^18 bytes of ufunc buffers for the
        # division where the group's cells are (two assemblies peaked at
        # 37.3 and 32.0 L^2 bytes on these families)
        L = 512
        grid, f, family, clean = self._setup(algorithm, L)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        peak = self.check_peak(noise_lines(clean, noisy, plan), plan)
        assert peak < 2 * 16 * block_height(L) * L + 2 ** 18

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_block_size_keeps_the_bits(self, monkeypatch, algorithm):
        # each row's |.|^p sum covers the whole row in every block height,
        # up to the cap of L/8 rows, so the report is the same to the bit
        grid, f, family, clean = self._setup(algorithm)
        noisy = [add_noise(m, "multiplicative", 0.05, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        reports = []
        for rows in (1, 7, grid.L // 8):
            monkeypatch.setattr(stft, "POWER_BLOCK_BYTES", rows * 16 * grid.L)
            assert block_height(grid.L) == rows
            reports.append(two_list_bounds(clean, noisy, plan, f_true=f))
        assert all(r == reports[0] for r in reports[1:])

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_peak_memory_in_blocks(self, l1024_blocks, algorithm):
        # beyond its lines, 8-row blocks of the read-out as in
        # `test_peak_memory`; the whole-band check also held the band, its two
        # gathers and its |.| (40 L^2 on the Hermite family), and the check
        # from whole noise sums a sum's |.| and half-plane transform
        L = 256
        grid, f, family, clean = self._setup(algorithm, L)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        peak = self.check_peak(noise_lines(clean, noisy, plan), plan)
        assert peak < 2 * 16 * block_height(L) * L + 2 ** 18

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_peak_memory_with_truth(self, l1024_blocks, algorithm):
        # the true signal's ambiguity, 16 L^2 bytes, beside its |.|, 8 L^2;
        # the whole-table ambiguity peaked at 40 L^2
        L = 256
        grid, f, family, clean = self._setup(algorithm, L)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        plan = make_plan(family, RetrievalConfig(epsilon=1e-2, algorithm=algorithm))
        assert self.check_peak(noise_lines(clean, noisy, plan), plan, f) < (16 + 8 + 4) * L * L

    def test_json_round_trip(self):
        import json
        grid, f, family, clean = self._setup("alg1")
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        report = two_list_bounds(clean, noisy,
                                     make_plan(family, RetrievalConfig(epsilon=1e-2)))
        blob = json.dumps(report._asdict())
        assert json.loads(blob)["satisfied"] == [True, True]
