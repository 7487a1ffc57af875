import os
import signal
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specret import (
    DegenerateAnchorError,
    EmptyMaskError,
    FrftGaussAmbiguity,
    GridMismatchError,
    HermiteAmbiguity,
    RetrievalConfig,
    Signal,
    WindowFamily,
    WindowMember,
    add_noise,
    build_frft_family,
    build_hermite_family,
    chirp_preset,
    dilated_gauss_samples,
    eval_frft_gauss_ambiguity,
    frft_gauss_samples,
    gen_chirp,
    gen_mixture,
    hermite_samples,
    make_grid,
    make_plan,
    mixture_preset,
    measure_family,
    misfit,
    numeric_ambiguity,
    raw_threshold,
    run_alg1,
    run_alg2,
    reconstruct_from_ambiguity,
    verify_noise_bounds,
)
from specret import ambiguity, retrieval, stft
from specret.ambiguity import Lines, lines_of
from specret.stft import block_height, stft_blocks, stft_power
from specret.windows import LATTICE_FLOOR
from specret.retrieval import _divide, _two_at_a_time, measure_lines, row_span, stored_plan
from oracles import (
    assemble,
    den_lattice,
    dense_noise_bounds,
    dense_retrieve,
    gauss_baseline_family,
    group_lines,
    masked_inversion,
    noise_sums,
    noisy_powers,
    padded,
    peel_masks,
    power_of,
    product_band,
    serial_divide,
    serial_noise_bounds,
    stft_coeffs,
    two_list_bounds,
    xy_phase,
)
from conftest import ANGLES, DEGREE_SETS, DILATIONS, EPSILONS, GRIDS, random_signal


def gauss_signal(grid, a=1.0):
    return Signal(grid=grid, values=dilated_gauss_samples(a, grid).astype(complex))


@pytest.fixture
def divided(monkeypatch):
    """Every J the runners divide out, in call order, padded to the (L, L)
    lattice: a `Reconstruction` keeps the signal and the plan, not J."""
    seen = []
    divide = retrieval._divide

    def kept(sums, plan):
        J = divide(sums, plan)
        seen.append(padded(J, plan))
        return J

    monkeypatch.setattr(retrieval, "_divide", kept)
    return seen


# small families for the dense reference: fans of 1-5 windows with a in
# [1, 3], and Hermite degree sets from [0, 8), each member built directly
DENSE_FAMILIES = st.one_of(
    st.tuples(st.just("fan"), st.floats(1.0, 3.0),
              st.lists(st.floats(0.0, np.pi), min_size=1, max_size=5)),
    st.tuples(st.just("hermite"), st.just(None),
              st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True).map(sorted)))


def dense_family(spec, grid):
    kind, a, params = spec
    if kind == "fan":
        members = [WindowMember(window_id=f"frft_gauss({a}, {alpha})",
                                samples=frft_gauss_samples(a, alpha, grid),
                                evaluator=FrftGaussAmbiguity(a, alpha)) for alpha in params]
    else:
        members = [WindowMember(window_id=f"hermite({n})", samples=hermite_samples(n, grid),
                                evaluator=HermiteAmbiguity(n)) for n in params]
    return WindowFamily(members=members, grid=grid)


class TestDenseReference:
    """The whole retrieval, from the powers to the samples, against the
    dense sums of the paper's formulas (`oracles.dense_retrieve`), clean
    or noisy, through two runners: the runner on the list of powers and
    the measurement stream (`measure_lines`) into the runner, whose noise
    lines are also checked against the dense noise bounds
    (`oracles.dense_noise_bounds`)."""

    # no shrink phase: a failing example reports in seconds, not minutes
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(T=st.sampled_from([1.5, 2.0, 2.5]), L=st.sampled_from([16, 24, 32]),
           spec=DENSE_FAMILIES, algorithm=st.sampled_from(["alg1", "alg2"]),
           epsilon=st.floats(-3.0, np.log10(0.5)).map(lambda e: 10.0 ** e),
           seed=st.integers(0, 2 ** 32 - 1),
           model=st.sampled_from([None, "additive", "multiplicative"]))
    def test_runners_match_the_dense_sums(self, T, L, spec, algorithm, epsilon, seed, model):
        grid = make_grid(T, L)
        family = dense_family(spec, grid)
        f = random_signal(grid, np.random.default_rng(seed))
        cfg = RetrievalConfig(epsilon=epsilon, algorithm=algorithm)
        runner = run_alg1 if algorithm == "alg1" else run_alg2
        noise = None if model is None else (model, 0.05, seed % 1000)
        powers = measure_family(f, family)
        if noise is not None:
            powers = noisy_powers(powers, {"model": model, "level": 0.05}, noise[2])

        def streamed():  # the third runner
            lines, noise_lines = measure_lines(f, family, stored_plan(family, cfg), noise)
            return runner(lines, family, cfg), noise_lines

        try:
            samples, anchor, owner, den = dense_retrieve(f, family, cfg, noise)
        except (EmptyMaskError, DegenerateAnchorError) as exc:
            for run in (lambda: runner(powers, family, cfg), streamed):
                with pytest.raises(type(exc)):
                    run()
            return
        got = runner(powers, family, cfg)
        assert np.array_equal(got.plan.owner, owner)
        assert got.anchor_c == anchor
        assert np.max(np.abs(den_lattice(got.plan) - den)) <= 1e-12 * np.max(np.abs(den))
        assert np.max(np.abs(got.signal.values - samples)) <= 1e-10 * np.max(np.abs(samples))
        recon, noise_lines = streamed()
        assert recon.anchor_c == anchor
        assert np.max(np.abs(recon.signal.values - samples)) <= 1e-10 * np.max(np.abs(samples))
        if noise is None:
            assert noise_lines is None
            return
        report = verify_noise_bounds(noise_lines, recon.plan)
        want = dense_noise_bounds(f, family, cfg, noise)
        got = (report.lhs_A_norm, report.rhs_bound, report.lhs_slice, report.rhs_slice_bound)
        assert_allclose(got, want, rtol=1e-10, atol=1e-12 * max(want))


class TestReconstructFromAmbiguity:
    def test_exact_closed_form_round_trip(self):
        grid = make_grid(8.0, 256)
        values = FrftGaussAmbiguity(1.0, 0.0).on_lattice(grid).astype(complex)
        rec = reconstruct_from_ambiguity(values, grid, RetrievalConfig(epsilon=1e-6))
        d, _ = misfit(gauss_signal(grid), rec.signal)
        assert d < 1e-6

    def test_anchor_profile_tracks_signal_power(self):
        # w(c) should be proportional to |f(c)|^2 = e^{-2 pi c^2}
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        A = numeric_ambiguity(f.values, grid)
        rec = reconstruct_from_ambiguity(A, grid, RetrievalConfig(epsilon=1e-6))
        assert rec.anchor_c == grid.L // 2  # f peaks at t = 0
        # the profile's maximum |u_c(0)| is |f(c)|^2 estimated at the anchor
        assert_allclose(abs(rec.signal.values[rec.anchor_c]) ** 2, 1.0, atol=1e-6)

    def test_shifted_signal_moves_anchor(self, rng):
        grid = make_grid(8.0, 256)
        values = dilated_gauss_samples(1.0, grid) * np.exp(2j * np.pi * 0.8 * grid.t)
        f = Signal(grid=grid, values=np.roll(values, 32))
        A = numeric_ambiguity(f.values, grid)
        rec = reconstruct_from_ambiguity(A, grid, RetrievalConfig(epsilon=1e-6))
        assert abs(rec.anchor_c - (grid.L // 2 + 32)) <= 1
        d, _ = misfit(f, rec.signal)
        assert d < 1e-6

    def test_fixed_anchor(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        A = numeric_ambiguity(f.values, grid)
        rec = reconstruct_from_ambiguity(A, grid,
                                         RetrievalConfig(epsilon=1e-6, anchor=grid.L // 2 + 8))
        assert rec.anchor_c == grid.L // 2 + 8
        d, _ = misfit(f, rec.signal)
        assert d < 1e-6

    def test_empty_mask_is_degenerate(self):
        grid = make_grid(8.0, 256)
        values = FrftGaussAmbiguity(1.0, 0.0).on_lattice(grid).astype(complex)
        with pytest.raises(DegenerateAnchorError):
            reconstruct_from_ambiguity(values, grid, RetrievalConfig(epsilon=1e-6),
                                       np.zeros((grid.L, grid.L), dtype=bool))

    @pytest.mark.parametrize("shape", [(64, 63), (63, 64), (64,), (64, 64, 1)])
    def test_refuses_a_lattice_of_another_shape(self, shape):
        grid = make_grid(2.0, 64)
        with pytest.raises(ValueError, match=r"lattice shape .* does not match"):
            reconstruct_from_ambiguity(np.ones(shape, dtype=complex), grid,
                                       RetrievalConfig(epsilon=1e-6))

    @pytest.mark.parametrize("shape", [(64, 63), (63, 64), (64,), (64, 64, 1)])
    def test_refuses_a_mask_of_another_shape(self, shape):
        grid = make_grid(2.0, 64)
        with pytest.raises(ValueError, match=r"mask shape .* does not match"):
            reconstruct_from_ambiguity(np.ones((64, 64), dtype=complex), grid,
                                       RetrievalConfig(epsilon=1e-6), np.ones(shape, dtype=bool))


class TestAlg1:
    def test_gauss_self_consistency(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = build_frft_family(2.0, 8, grid)
        rec = run_alg1(measure_family(f, fam), fam, RetrievalConfig(epsilon=1e-3))
        d, _ = misfit(f, rec.signal)
        assert d < 1e-3

    def test_chirp_preset_recovery(self):
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        fam = build_frft_family(15.0, 40, grid)
        rec = run_alg1(measure_family(f, fam), fam, RetrievalConfig(epsilon=1e-3))
        d, _ = misfit(f, rec.signal)
        assert d < 0.02

    def test_zero_signal_fails_with_degenerate_anchor(self):
        grid = make_grid(8.0, 256)
        f = Signal(grid=grid, values=np.zeros(grid.L))
        fam = build_frft_family(2.0, 4, grid)
        with pytest.raises(DegenerateAnchorError):
            run_alg1(measure_family(f, fam), fam, RetrievalConfig(epsilon=1e-3))

    def test_count_mismatch_rejected(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = build_frft_family(2.0, 4, grid)
        meas = measure_family(f, fam)
        with pytest.raises(ValueError, match="3 measurements for 4 windows"):
            run_alg1(meas[:-1], fam, RetrievalConfig(epsilon=1e-3))

    def test_non_square_lattice_rejected(self):
        # keeping every other shift row gives the L/2 x L spectrograms of hop 2
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = build_frft_family(2.0, 4, grid)
        with pytest.raises(ValueError):
            meas = [m[::2] for m in measure_family(f, fam)]
            run_alg1(meas, fam, RetrievalConfig(epsilon=1e-3))

    def test_unreachable_tolerance_gives_empty_mask(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = build_frft_family(2.0, 4, grid)
        meas = measure_family(f, fam)
        # eps in discrete units; 10*L/(2T) exceeds the summed peak
        with pytest.raises(EmptyMaskError):
            run_alg1(meas, fam, RetrievalConfig(epsilon=10.0 * grid.L / (2 * grid.T)))


class TestMeasurementChecks:
    def test_signal_on_another_grid_rejected(self):
        # same L, other T: the family's windows would measure the signal as
        # if it were sampled on their grid
        family = build_hermite_family([0, 5, 10], make_grid(8.0, 256))
        f = gen_mixture(mixture_preset(), make_grid(4.0, 256))
        with pytest.raises(GridMismatchError):
            measure_family(f, family)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_non_finite_cell_rejected(self, algorithm, value):
        # one check on each group sum: the fan's one sum, or each window's own power
        grid = make_grid(8.0, 256)
        if algorithm == "alg1":
            fam, run = build_frft_family(2.0, 4, grid), run_alg1
        else:
            fam, run = build_hermite_family([0, 5, 10], grid), run_alg2
        meas = measure_family(gauss_signal(grid), fam)
        meas[1][40, 100] = value
        with pytest.raises(ValueError, match="non-finite"):
            run(meas, fam, RetrievalConfig(epsilon=1e-3, algorithm=algorithm))

    def test_non_finite_power_of_a_group_with_no_cells_rejected(self):
        # window 1 repeats window 0, so under alg2 its group claims no cell
        # and no row of its power is read out; it is still checked
        grid = make_grid(8.0, 256)
        fam = build_frft_family(2.0, 2, grid, angles=[0.0, 0.0])
        cfg = RetrievalConfig(epsilon=1e-2, algorithm="alg2")
        assert not (make_plan(fam, cfg).owner == 1).any()
        meas = measure_family(gauss_signal(grid), fam)
        run_alg2(meas, fam, cfg)
        meas[1][40, 100] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            run_alg2(meas, fam, cfg)


class TestAlg2:
    def test_ground_state_self_consistency(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = build_hermite_family([0], grid)
        rec = run_alg2(measure_family(f, fam), fam,
                       RetrievalConfig(epsilon=1e-3, algorithm="alg2"))
        d, _ = misfit(f, rec.signal)
        assert d < 1e-3

    def test_chirp_preset_recovery(self):
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        fam = build_hermite_family([0, 10, 20, 30, 40, 50], grid)
        rec = run_alg2(measure_family(f, fam), fam,
                       RetrievalConfig(epsilon=1e-3, algorithm="alg2"))
        d, _ = misfit(f, rec.signal)
        assert d < 0.02

    def test_noiseless_mixture_pair_beats_single(self):
        # high-degree pair: the second window fills the first one's root
        # rings; retrieval tolerances arrive on the discrete scale
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        pair = build_hermite_family([50, 100], grid)
        single = build_hermite_family([100], grid)
        d_pair, _ = misfit(f, run_alg2(measure_family(f, pair), pair, cfg).signal)
        d_single, _ = misfit(f, run_alg2(measure_family(f, single), single, cfg).signal)
        assert d_pair <= 0.15
        assert d_single >= 2.0 * d_pair


class CountingEvaluator:
    """Delegates to an evaluator and counts its lattice evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def on_lattice(self, grid, *args, **kwargs):
        self.calls += 1
        return self.inner.on_lattice(grid, *args, **kwargs)


def counted(family):
    return WindowFamily(
        members=[WindowMember(window_id=m.window_id, samples=m.samples,
                              evaluator=CountingEvaluator(m.evaluator))
                 for m in family.members],
        grid=family.grid,
    )


class TestRetrievalPlan:
    """The plan-based assembly against the per-window loops it replaces."""

    def test_alg2_plan_matches_peel_masks_and_lattices(self):
        grid = make_grid(8.0, 256)
        fam = build_hermite_family([0, 5, 20], grid)
        cfg = RetrievalConfig(epsilon=1e-3, algorithm="alg2")
        plan = make_plan(fam, cfg)
        masks = peel_masks(fam, raw_threshold(cfg, grid))
        den = den_lattice(plan)
        union = np.zeros((grid.L, grid.L), dtype=bool)
        for i, (mask, member) in enumerate(zip(masks, fam.members, strict=True)):
            region = plan.owner == i
            assert np.array_equal(region, mask)
            assert np.array_equal(den[region], member.evaluator.on_lattice(grid)[region])
            union |= region
        assert np.array_equal(plan.omega, union)
        assert not den[~union].any()

    def test_alg2_assembly_matches_per_window_division(self):
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        fam = build_hermite_family([10, 50, 100], grid)
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        meas = measure_family(f, fam)
        J = assemble(meas, make_plan(fam, cfg))
        # oracle: each measurement divided by its own window on its peeled region
        expected = np.zeros((grid.L, grid.L), dtype=complex)
        for mea, member, mask in zip(meas, fam.members,
                                     peel_masks(fam, raw_threshold(cfg, grid))):
            G = product_band(mea, grid, (0, grid.L))
            expected[mask] = G[mask] / member.evaluator.on_lattice(grid)[mask]
        assert np.array_equal(J, expected)

    def test_alg1_one_fft_matches_per_window_sum(self):
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        fam = build_frft_family(15.0, 12, grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        meas = measure_family(f, fam)
        plan = make_plan(fam, cfg)
        J = assemble(meas, plan)
        # oracle: one spectrogram -> product transform per window, summed
        num = sum(product_band(mea, grid, (0, grid.L)) for mea in meas)
        den = fam.summed_on_lattice()
        omega = den > raw_threshold(cfg, grid)
        expected = np.where(omega, num / np.where(omega, den, 1.0), 0.0)
        assert np.array_equal(plan.omega, omega)
        assert np.max(np.abs(J - expected)) <= 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("algorithm, degrees", [("alg1", None), ("alg2", [0, 4, 9])])
    def test_each_ambiguity_evaluated_once(self, algorithm, degrees):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        if degrees is None:
            fam = build_frft_family(2.0, 4, grid)
        else:
            fam = build_hermite_family(degrees, grid)
        clean = measure_family(f, fam)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        cfg = RetrievalConfig(epsilon=1e-3, algorithm=algorithm)
        fam = counted(fam)
        two_list_bounds(clean, noisy, make_plan(fam, cfg))
        assert [m.evaluator.calls for m in fam.members] == [1] * len(fam)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_plan_groups(self, algorithm):
        grid = make_grid(8.0, 256)
        fam = build_hermite_family([0, 4, 9], grid)
        plan = make_plan(fam, RetrievalConfig(epsilon=1e-3, algorithm=algorithm))
        if algorithm == "alg1":
            assert plan.groups == ((0, 1, 2),)
        else:
            assert plan.groups == ((0,), (1,), (2,))
        assert plan.owner.max() == len(plan.groups) - 1

    def test_alg1_hermite_divides_where_sum_magnitude_exceeds_tolerance(self):
        # the summed Hermite ambiguity changes sign; alg1 divides wherever
        # |sum A h_n| > eps, on its negative lobes too
        grid = make_grid(8.0, 256)
        fam = build_hermite_family([0, 4, 9], grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        plan = make_plan(fam, cfg)
        summed = fam.summed_on_lattice()
        eps = raw_threshold(cfg, grid)
        assert np.array_equal(plan.omega, np.abs(summed) > eps)
        assert (plan.omega & (summed < -eps)).any()
        assert np.array_equal(den_lattice(plan)[plan.omega], summed[plan.omega])
        meas = measure_family(gen_mixture(mixture_preset(), grid), fam)
        J = assemble(meas, plan)
        num = sum(product_band(mea, grid, (0, grid.L)) for mea in meas)
        expected = np.where(plan.omega, num / np.where(plan.omega, summed, 1.0), 0.0)
        assert np.max(np.abs(J - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_alg2_tolerance_must_stay_below_unit_peak(self):
        grid = make_grid(8.0, 256)
        fam = build_hermite_family([0, 3], grid)
        cfg = RetrievalConfig(epsilon=2.0 / grid.dt, algorithm="alg2")  # analytic 2
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\), got "):
            make_plan(fam, cfg)


    @pytest.mark.parametrize("algorithm, degrees", [("alg1", None), ("alg2", [0, 4, 9])])
    def test_retrieval_plan_reused_for_noise_bounds(self, algorithm, degrees):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        if degrees is None:
            fam = build_frft_family(2.0, 4, grid)
        else:
            fam = build_hermite_family(degrees, grid)
        clean = measure_family(f, fam)
        noisy = [add_noise(m, "additive", 0.01, seed=j) for j, m in enumerate(clean)]
        cfg = RetrievalConfig(epsilon=1e-3, algorithm=algorithm)
        plan = make_plan(fam, cfg)
        fresh = two_list_bounds(clean, noisy, plan)
        fam = counted(fam)
        recon = (run_alg1 if algorithm == "alg1" else run_alg2)(noisy, fam, cfg)
        assert recon.plan.groups == plan.groups
        reused = two_list_bounds(clean, noisy, recon.plan)
        assert [m.evaluator.calls for m in fam.members] == [1] * len(fam)
        assert reused == fresh

    @pytest.mark.parametrize("reuse", [False, True])
    def test_noisy_measurements_must_share_the_grid(self, reuse):
        # one noise sum's lines per window group of the plan, on its grid
        grid = make_grid(8.0, 256)
        fam = build_hermite_family([0, 3], grid)
        cfg = RetrievalConfig(epsilon=1e-3, algorithm="alg2")
        clean = measure_family(gauss_signal(grid), fam)
        plan = run_alg2(clean, fam, cfg).plan if reuse else make_plan(fam, cfg)
        other = make_grid(8.0, 128)
        smaller = measure_family(gauss_signal(other), build_hermite_family([0, 3], other))

        def lines(powers, g=grid, spans=plan.spans):
            return [lines_of(p, g, span, l1=True) for p, span in zip(powers, spans)]

        for wrong, match in (
                (lambda: lines(clean[:1]), "1 noise sums for 2 window groups"),
                (lambda: lines(clean) + lines(clean[:1]), "3 noise sums for 2 window groups"),
                (lambda: lines(smaller, other, [(0, 128)] * 2),
                 r"lines of shape \(128, 65\) .* L = 256 .* read shape \(256, "),
                (lambda: lines(clean, spans=plan.spans[::-1]), r"lines of shape \(256, \d+\)"),
                (lambda: lines([m[::2] for m in clean]), r"the blocks hold 128 rows of an \(256, 256\)")):
            with pytest.raises(ValueError, match=match):
                verify_noise_bounds(wrong(), plan)

    def test_refused_noise_lines_serve_a_plan_they_fit(self):
        # a refusal leaves the lines untransformed, so they still serve their own plan
        grid, other = make_grid(8.0, 256), make_grid(8.0, 128)
        cfg = RetrievalConfig(epsilon=1e-3, algorithm="alg2")
        plan = make_plan(build_hermite_family([0, 3], grid), cfg)
        small = build_hermite_family([0, 3], other)
        small_plan = make_plan(small, cfg)
        powers = measure_family(gauss_signal(other), small)

        def lines():
            return [lines_of(p, other, span, l1=True) for p, span in zip(powers, small_plan.spans)]

        refused = lines()
        with pytest.raises(ValueError, match="lines of shape"):
            verify_noise_bounds(refused, plan)
        assert verify_noise_bounds(refused, small_plan) == verify_noise_bounds(lines(), small_plan)

    @pytest.mark.parametrize("scheme, algorithm", [
        ("fan", "alg1"), ("hermite", "alg1"), ("hermite", "alg2")])
    def test_den_on_omegas_rows_and_each_groups_span(self, scheme, algorithm):
        grid = make_grid(8.0, 256)
        if scheme == "fan":
            fam, cfg = build_frft_family(2.0, 8, grid), RetrievalConfig(epsilon=1e-2)
        else:
            fam = build_hermite_family([0, 5, 20], grid)
            cfg = RetrievalConfig(epsilon=0.5, algorithm=algorithm)
        plan = make_plan(fam, cfg)
        first, stop = row_span(plan.omega)
        assert stop - first < grid.L
        assert plan.first == first and plan.den.shape == (stop - first, grid.L)
        assert plan.den.flags.c_contiguous and plan.den.base is None  # no (L, L) buffer kept
        assert plan.spans == tuple(row_span(plan.owner == i) for i in range(len(plan.groups)))
        # the group loop reads the spans, not the labels
        lines = [lines_of(np.ones((grid.L, grid.L)), grid, span) for span in plan.spans]
        spans = [(i, m0, m0 + len(G)) for i, group in enumerate(lines)
                 for m0, G in retrieval.group_blocks(group, plan._replace(owner=None), i)]
        for i, span in enumerate(plan.spans):
            rows = [(m0, m1) for j, m0, m1 in spans if j == i]
            assert (rows[0][0], rows[-1][1]) == span

    def test_w2_den_holds_omegas_371_rows(self):
        grid = make_grid(8.0, 1024)
        plan = make_plan(build_hermite_family([50, 100], grid),
                         RetrievalConfig(epsilon=0.5, algorithm="alg2"))
        assert plan.spans == ((378, 647), (327, 698))
        assert (plan.first, plan.den.shape) == (327, (371, 1024))
        assert plan.den.nbytes < 3.1e6  # 8.4 MB on the whole lattice

    def test_w1_omega_unchanged(self):
        # W1: the 40-angle a = 15 fan at T = 8, L = 1024, eps = 1e-3
        grid = make_grid(8.0, 1024)
        fam = build_frft_family(15.0, 40, grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        plan = make_plan(fam, cfg)
        X, Y = np.meshgrid(grid.x, grid.y)
        den = eval_frft_gauss_ambiguity(15.0, fam.members[0].evaluator.alpha, X, Y)
        for m in fam.members[1:]:
            den += eval_frft_gauss_ambiguity(15.0, m.evaluator.alpha, X, Y)
        assert np.array_equal(plan.omega, den > raw_threshold(cfg, grid))
        summed = fam.summed_on_lattice()
        assert np.max(np.abs(summed - den)) <= 1e-12 * np.max(den)
        assert np.array_equal(den_lattice(plan)[plan.omega], summed[plan.omega])


def full_lattice_plan(family, cfg):
    """Oracle for `make_plan`'s (den, owner) on a Hermite family: each
    group's sum of the floored full lattices (`HermiteAmbiguity.on_lattice`),
    claimed on the whole lattice in group order."""
    grid = family.grid
    eps = raw_threshold(cfg, grid)
    n = len(family)
    groups = [range(n)] if cfg.algorithm == "alg1" else [[j] for j in range(n)]
    lattices = [m.evaluator.on_lattice(grid, LATTICE_FLOOR * eps) for m in family.members]
    den = np.zeros((grid.L, grid.L))
    owner = np.full((grid.L, grid.L), -1, dtype=np.min_scalar_type(-len(groups)))
    for i, group in enumerate(groups):
        values = lattices[group[0]].copy()
        for j in group[1:]:
            values += lattices[j]
        bits = (np.abs(values) > eps) & (owner < 0)
        owner[bits] = i
        den[bits] = values[bits]
    return den, owner


class TestFlooredPlan:
    """`make_plan`, which evaluates each Gauss window only above a floor,
    against the full-lattice sum."""

    @settings(max_examples=60, deadline=None)
    @given(a=DILATIONS, angles=st.lists(ANGLES, min_size=1, max_size=5),
           epsilon=EPSILONS, shape=GRIDS)
    def test_omega_and_den_match_full_lattice_sum(self, a, angles, epsilon, shape):
        grid = make_grid(*shape)
        # built from evaluators: most of these dilations fail the energy
        # check of build_frft_family on these grids
        fam = WindowFamily(members=[
            WindowMember(window_id=str(j), samples=np.zeros(grid.L),
                         evaluator=FrftGaussAmbiguity(a, alpha))
            for j, alpha in enumerate(angles)], grid=grid)
        cfg = RetrievalConfig(epsilon=epsilon)
        summed = fam.summed_on_lattice()
        omega = summed > raw_threshold(cfg, grid)
        if not omega.any():
            with pytest.raises(EmptyMaskError):
                make_plan(fam, cfg)
            return
        plan = make_plan(fam, cfg)
        assert np.array_equal(plan.omega, omega)
        assert np.array_equal(den_lattice(plan)[omega], summed[omega])

    @settings(max_examples=40, deadline=None)
    @given(degrees=DEGREE_SETS, epsilon=EPSILONS, shape=GRIDS,
           algorithm=st.sampled_from(["alg1", "alg2"]))
    def test_cropped_hermite_plan_matches_full_lattices(self, degrees, epsilon, shape,
                                                        algorithm):
        grid = make_grid(*shape)
        fam = WindowFamily(members=[
            WindowMember(window_id=str(n), samples=np.zeros(grid.L),
                         evaluator=HermiteAmbiguity(n)) for n in degrees], grid=grid)
        cfg = RetrievalConfig(epsilon=epsilon, algorithm=algorithm)
        eps = raw_threshold(cfg, grid)
        full = [m.evaluator.on_lattice(grid) for m in fam.members]
        sums = [sum(full[1:], full[0])] if algorithm == "alg1" else full
        plan = make_plan(fam, cfg)
        den = den_lattice(plan)
        claimed = np.zeros((grid.L, grid.L), dtype=bool)
        assert len(sums) == len(plan.groups)
        for i, values in enumerate(sums):
            region = plan.owner == i
            bits = (np.abs(values) > eps) & ~claimed
            assert np.array_equal(region, bits)
            assert np.array_equal(den[region], values[region])
            claimed |= bits
        assert np.array_equal(plan.omega, claimed)

    @settings(max_examples=40, deadline=None)
    @given(degrees=DEGREE_SETS, epsilon=EPSILONS, shape=GRIDS,
           algorithm=st.sampled_from(["alg1", "alg2"]), rows=st.integers(1, 80))
    # the default height on 51 live quadrant rows, one short block, and on
    # 129, two full blocks and a row
    @example(degrees=[0, 50, 200], epsilon=1e-3, shape=(1.3, 250), algorithm="alg2", rows=64)
    @example(degrees=[0, 7, 30], epsilon=1e-3, shape=(8.0, 256), algorithm="alg1", rows=64)
    def test_quadrant_blocks_of_any_height_match_full_lattices(self, degrees, epsilon, shape,
                                                               algorithm, rows):
        # the Hermite plan is claimed on the quadrant, a block of rows at a
        # time, and mirrored: each block height gives the full lattices' plan
        grid = make_grid(*shape)
        fam = WindowFamily(members=[
            WindowMember(window_id=str(n), samples=np.zeros(grid.L),
                         evaluator=HermiteAmbiguity(n)) for n in degrees], grid=grid)
        cfg = RetrievalConfig(epsilon=epsilon, algorithm=algorithm)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ambiguity, "PLAN_ROWS", rows)
            plan = make_plan(fam, cfg)
        den, owner = full_lattice_plan(fam, cfg)
        assert np.array_equal(den_lattice(plan), den)
        assert np.array_equal(plan.owner, owner)

    def test_hermite_plan_holds_no_lattice_per_degree(self):
        # den (8 L^2 bytes), the int8 labels (L^2) and blocks of quadrant
        # rows; a full lattice per degree, mirrored to be peeled, peaked at
        # 24.3 L^2 on W2's family and grid
        L = 1024
        grid = make_grid(8.0, L)
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        make_plan(build_hermite_family([50, 100], grid), cfg)  # lazy imports
        family = build_hermite_family([50, 100], grid)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            make_plan(family, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 12 * L * L

    def test_labels_hold_more_groups_than_int8(self):
        # degrees 0..129 at T = 16: the last groups claim the outermost rings,
        # and an int8 label would wrap their indices 128 and 129 to negatives
        grid = make_grid(16.0, 128)
        fam = WindowFamily(members=[
            WindowMember(window_id=str(n), samples=np.zeros(grid.L),
                         evaluator=HermiteAmbiguity(n)) for n in range(130)], grid=grid)
        cfg = RetrievalConfig(epsilon=1e-3 / grid.dt, algorithm="alg2")
        first = WindowFamily(members=fam.members[:128], grid=grid)
        assert make_plan(first, cfg).owner.dtype == np.int8
        plan = make_plan(fam, cfg)
        assert plan.owner.dtype == np.int16
        assert (plan.owner == 128).any() and (plan.owner == 129).any()
        eps = raw_threshold(cfg, grid)
        claimed = np.zeros((grid.L, grid.L), dtype=bool)
        for i, member in enumerate(fam.members):
            bits = (np.abs(member.evaluator.on_lattice(grid)) > eps) & ~claimed
            assert np.array_equal(plan.owner == i, bits)
            claimed |= bits
        assert np.array_equal(plan.omega, claimed)


def e_matrix_reconstruct(values, grid, mask=None, anchor=None):
    """Oracle: the inversion `reconstruct_from_ambiguity` replaced, with the
    phase factor from a direct exp and the diagonal read through an L x L
    table E = exp(2i*pi*m*(k + s)/L).  Returns (signal values, anchor)."""
    L, dy = grid.L, grid.dy
    sgn = (-1.0) ** np.arange(L)
    constL = 1j ** (L % 4)
    Vff = values * np.exp(-1j * np.pi * grid.x[None, :] * grid.y[:, None])
    if mask is not None:
        Vff = np.where(mask, Vff, 0.0)
    col = Vff[:, L // 2] * sgn
    wprof = sgn * (dy * constL * L * np.fft.ifft(col))
    anchor = int(np.argmax(np.abs(wprof))) if anchor is None else anchor % L
    u0 = wprof[anchor]
    s = anchor - L // 2
    m = k = np.arange(L)
    E = np.exp(2j * np.pi * np.outer(m, k + s) / L)
    u_diag = dy * constL * ((-1.0) ** (k + s)) * np.einsum("mk,m,mk->k", Vff, sgn, E)
    out = np.zeros(L, dtype=complex)
    out[(k + s) % L] = u_diag / np.sqrt(abs(u0))
    return out, anchor


class TestInversionOracle:
    """The FFT-diagonal inversion against the E-matrix formula."""

    def check(self, values, grid, mask=None, anchor=None):
        want, want_anchor = e_matrix_reconstruct(values, grid, mask, anchor)
        rec = reconstruct_from_ambiguity(values, grid, RetrievalConfig(epsilon=1e-3, anchor=anchor),
                                         mask)
        assert rec.anchor_c == want_anchor
        assert np.max(np.abs(rec.signal.values - want)) <= 1e-9 * np.max(np.abs(want))

    def test_alg1_assembly(self):
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        fam = build_frft_family(15.0, 8, grid)
        plan = make_plan(fam, RetrievalConfig(epsilon=1e-3))
        self.check(assemble(measure_family(f, fam), plan), grid, plan.omega)

    def test_alg2_assembly_non_dyadic(self):
        grid = make_grid(6.5, 250)
        f = gen_mixture(mixture_preset(), grid)
        fam = build_hermite_family([0, 10, 30], grid)
        plan = make_plan(fam, RetrievalConfig(epsilon=0.5, algorithm="alg2"))
        self.check(assemble(measure_family(f, fam), plan), grid, plan.omega)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("anchor", [None, 3, -40])
    def test_random_lattice(self, rng, masked, anchor):
        grid = make_grid(1.3, 250)
        values = rng.standard_normal((250, 250)) + 1j * rng.standard_normal((250, 250))
        mask = rng.random((250, 250)) < 0.4 if masked else None
        self.check(values, grid, mask, anchor)



def fft_diagonal_reconstruct(values, grid, mask=None, anchor=None):
    """Oracle: the inversion `reconstruct_from_ambiguity` replaced.  The
    phase-corrected lattice on the mask's rows goes through one L x L
    inverse FFT along y, and the signal is read off its (k + c, k)
    diagonal.  Returns (signal values, anchor)."""
    L = grid.L
    sgn = (-1.0) ** np.arange(L)
    scale = grid.dy * 1j ** (L % 4) * L
    Vff = np.zeros((L, L), dtype=np.complex128)
    rows = (0, L) if mask is None else row_span(mask)
    if rows is not None:
        band = slice(*rows)
        np.multiply(values[band], xy_phase(grid, -1)[band], out=Vff[band],
                    where=True if mask is None else mask[band])
    Vff *= sgn[:, None]
    k0 = L // 2
    slice_l1 = grid.dy * float(np.sum(np.abs(Vff[:, k0])))
    U = np.fft.ifft(Vff, axis=0, out=Vff)
    wprof = sgn * (scale * U[:, k0])
    anchor = int(np.argmax(np.abs(wprof))) if anchor is None else int(anchor) % L
    u0 = wprof[anchor]
    if slice_l1 <= 0 or abs(u0) < 1e-10 * slice_l1:
        raise DegenerateAnchorError(f"anchor {anchor} has |u_c(0)| ~ 0")
    s = anchor - L // 2
    k = np.arange(L)
    u_diag = scale * ((-1.0) ** (k + s)) * U[(k + s) % L, k]
    out = np.zeros(L, dtype=np.complex128)
    out[(k + s) % L] = u_diag / np.sqrt(abs(u0))
    return out, anchor


def assembly(algorithm, T, L):
    """(J, grid, omega) of a mixture's assembly on the (T, L) grid."""
    grid = make_grid(T, L)
    f = gen_mixture(mixture_preset(), grid)
    if algorithm == "alg1":
        fam = build_frft_family(15.0, 8, grid)
        cfg = RetrievalConfig(epsilon=1e-3)
    else:
        fam = build_hermite_family([0, 10, 30], grid)
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
    plan = make_plan(fam, cfg)
    return assemble(measure_family(f, fam), plan), grid, plan.omega


class TestDiagonalInversion:
    """The inversion that sums only the diagonal it reads, against the
    L x L inverse FFT it replaced."""

    def check(self, values, grid, mask=None, anchor=None):
        want, want_anchor = fft_diagonal_reconstruct(values, grid, mask, anchor)
        rec = reconstruct_from_ambiguity(values, grid, RetrievalConfig(epsilon=1e-3, anchor=anchor),
                                         mask)
        assert rec.anchor_c == want_anchor
        assert np.max(np.abs(rec.signal.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("T, L", [(8.0, 512), (6.5, 250)])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("anchor", [None, "positive", "negative"])
    def test_assemblies(self, algorithm, T, L, anchor):
        # fixed anchors near t = 0, where the signal is not small
        fixed = {None: None, "positive": L // 2 + 8, "negative": L // 2 - 5 - L}
        self.check(*assembly(algorithm, T, L), fixed[anchor])

    @pytest.mark.parametrize("T, L", [(1.3, 250), (6.5, 250), (8.0, 256)])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("anchor", [None, 3, -40, 1000])
    def test_random_lattice(self, rng, T, L, masked, anchor):
        values = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        mask = rng.random((L, L)) < 0.4 if masked else None
        self.check(values, make_grid(T, L), mask, anchor)

    @pytest.mark.parametrize("T, L", [(1.3, 250), (8.0, 256), (8.0, 1024)])
    @pytest.mark.parametrize("anchor", [None, 3])
    def test_no_mask_is_an_all_true_mask(self, rng, T, L, anchor):
        grid = make_grid(T, L)
        values = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        cfg = RetrievalConfig(epsilon=1e-3, anchor=anchor)
        bare = reconstruct_from_ambiguity(values, grid, cfg)
        full = reconstruct_from_ambiguity(values, grid, cfg, np.ones((L, L), dtype=bool))
        assert bare.anchor_c == full.anchor_c
        assert bare.omega_area_fraction == full.omega_area_fraction == 1.0
        assert np.array_equal(bare.signal.values, full.signal.values)

    @pytest.mark.parametrize("first, stop", [(120, 123), (60, 190), (0, 250)])
    def test_row_bands_of_any_length(self, rng, first, stop):
        # a mask on a few rows, on a span that is no multiple of the block,
        # and on every row
        L = 250
        values = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        mask = np.zeros((L, L), dtype=bool)
        mask[first:stop] = rng.random((stop - first, L)) < 0.7
        mask[first:stop, L // 2] = True
        self.check(values, make_grid(6.5, L), mask)

    @pytest.mark.parametrize("mask", ["empty", "off-axis"])
    def test_degenerate_masks(self, mask):
        # no cell at all (row_span is None), or none on the x = 0 column
        grid = make_grid(6.5, 250)
        bits = np.zeros((250, 250), dtype=bool)
        if mask == "off-axis":
            bits[100:150, :100] = True
        values = np.ones((250, 250), dtype=complex)
        with pytest.raises(DegenerateAnchorError):
            fft_diagonal_reconstruct(values, grid, bits)
        with pytest.raises(DegenerateAnchorError):
            reconstruct_from_ambiguity(values, grid, RetrievalConfig(epsilon=1e-3), bits)

    def test_holds_less_than_one_complex_lattice(self):
        # the replaced inversion held an L x L complex buffer: 16 L^2 bytes
        J, grid, omega = assembly("alg1", 8.0, 512)
        cfg = RetrievalConfig(epsilon=1e-3)
        reconstruct_from_ambiguity(J, grid, cfg, omega)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            reconstruct_from_ambiguity(J, grid, cfg, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 512 * 512


class TestInversionReadsJ:
    """The inversion reads J and its first row alone, against the masked
    inversion it replaced (`oracles.masked_inversion`): samples, anchor
    and area keep their bits."""

    @staticmethod
    def same(rec, want):
        samples, anchor, area = want
        assert np.array_equal(rec.signal.values, samples)
        assert rec.anchor_c == anchor
        assert rec.omega_area_fraction == area and type(rec.omega_area_fraction) is float

    @pytest.mark.parametrize("cores", [{0, 1}, {0}], ids=["two-cores", "one-core"])
    @pytest.mark.parametrize("T, L", [(8.0, 256), (6.5, 250)])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_runners_match_the_masked_inversion(self, monkeypatch, cores, T, L, algorithm):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        grid = make_grid(T, L)
        if algorithm == "alg1":
            fam, cfg, run = build_frft_family(15.0, 40, grid), RetrievalConfig(epsilon=1e-3), run_alg1
        else:
            fam = build_hermite_family([0, 5, 10, 20], grid)
            cfg, run = RetrievalConfig(epsilon=0.5, algorithm="alg2"), run_alg2
        meas = measure_family(gen_mixture(mixture_preset(), grid), fam)
        plan = make_plan(fam, cfg)
        want = masked_inversion(assemble(meas, plan), 0, grid, cfg, plan.omega)
        self.same(run(meas, fam, cfg), want)

    @staticmethod
    def mask(kind, L, rng):
        h = L // 2
        bits = np.zeros((L, L), dtype=bool)
        if kind == "inner-band":  # empty leading and trailing rows
            bits[37:201] = rng.random((164, L)) < 0.6
            bits[37:201, h] = True
        elif kind == "one-row":
            bits[120] = rng.random(L) < 0.6
            bits[120, h] = True
        elif kind == "65-rows":  # one row past a block of INVERT_ROWS
            bits[50:115] = rng.random((65, L)) < 0.6
            bits[50:115, h] = True
        else:  # "x0-off": the x = 0 column off the mask but on a few rows
            bits[:] = rng.random((L, L)) < 0.6
            bits[:, h] = False
            bits[100:140, h] = True
        return bits

    @pytest.mark.parametrize("anchor", [None, 3])
    @pytest.mark.parametrize("T, L", [(6.5, 250), (8.0, 256)])
    @pytest.mark.parametrize("kind", ["inner-band", "one-row", "65-rows", "x0-off", "none"])
    def test_random_lattices_match_the_masked_inversion(self, rng, kind, T, L, anchor):
        assert retrieval.INVERT_ROWS == 64
        grid = make_grid(T, L)
        cfg = RetrievalConfig(epsilon=1e-3, anchor=anchor)
        values = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        mask = None if kind == "none" else self.mask(kind, L, rng)
        want = masked_inversion(values, 0, grid, cfg,
                                np.ones((L, L), dtype=bool) if mask is None else mask)
        if mask is not None:
            values[~mask] = np.nan  # never read
        self.same(reconstruct_from_ambiguity(values, grid, cfg, mask), want)

    @pytest.mark.parametrize("T, L", [(8.0, 256), (6.5, 250)])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_j_is_positive_zero_off_omega(self, T, L, algorithm):
        # the inversion multiplies J's unclaimed cells without a mask; each
        # must be +0.0, which array_equal cannot tell from -0.0
        grid = make_grid(T, L)
        if algorithm == "alg1":
            fam, cfg = build_frft_family(2.0, 8, grid), RetrievalConfig(epsilon=1e-2)
        else:  # Laguerre functions change sign: den has negative cells
            fam = build_hermite_family([0, 5, 10, 20], grid)
            cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        meas = measure_family(gen_mixture(mixture_preset(), grid), fam)
        plan = make_plan(fam, cfg)
        J = retrieval._divide(group_lines(meas, plan), plan)
        assert len(J) % block_height(L)
        assert (algorithm == "alg1") == (plan.den >= 0).all()
        off = plan.owner[plan.first:plan.first + len(J)] < 0
        assert off.any()
        assert np.all(J[off] == 0)
        assert not np.signbit(J[off].real).any() and not np.signbit(J[off].imag).any()


class TestPlanBesideSums:
    """A first run builds the plan in the calling thread, then adds the
    group's powers on both cores; the plan and J are the serial ones, bit
    for bit."""

    @pytest.fixture
    def plan_threads(self, monkeypatch):
        # the thread each make_plan call ran on
        seen = []
        build = retrieval.make_plan

        def make_plan_here(*args):
            seen.append(threading.get_ident())
            return build(*args)

        monkeypatch.setattr(retrieval, "make_plan", make_plan_here)
        return seen

    @pytest.mark.parametrize("cores", [{0, 1}, {0}], ids=["two-cores", "one-core"])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_matches_serial_plan_and_assembly(self, monkeypatch, plan_threads, divided, cores,
                                              algorithm):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        if algorithm == "alg1":
            fam = build_frft_family(15.0, 40, grid)
            cfg = RetrievalConfig(epsilon=1e-3)
        else:
            fam = build_hermite_family([0, 5, 10, 20], grid)
            cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        meas = measure_family(f, fam)
        plan = make_plan(fam, cfg)
        J = assemble(meas, plan)
        rec = (run_alg1 if algorithm == "alg1" else run_alg2)(meas, fam, cfg)
        assert np.array_equal(rec.plan.den, plan.den)
        assert np.array_equal(rec.plan.owner, plan.owner)
        assert np.array_equal(divided[-1], J)
        assert np.array_equal(rec.signal.values,
                              reconstruct_from_ambiguity(J, grid, cfg, plan.omega).signal.values)
        if algorithm == "alg1":  # the powers are added in member order
            power = meas[0].copy(order="K")
            for mea in meas[1:]:
                power += mea
            G = product_band(power, grid, (0, grid.L))
            omega = plan.omega
            assert np.array_equal(divided[-1][omega], G[omega] / plan.den[omega])
        assert plan_threads == [threading.get_ident()]  # one build, in the caller

    def test_empty_mask_in_the_plan_thread_reaches_the_caller(self, monkeypatch,
                                                              plan_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = make_grid(8.0, 64)
        fam = build_frft_family(2.0, 8, grid)
        meas = measure_family(gauss_signal(grid), fam)
        with pytest.raises(EmptyMaskError):
            run_alg1(meas, fam, RetrievalConfig(epsilon=1e6))
        assert plan_threads == [threading.get_ident()]


class TestPlanReuse:
    """A family keeps the last plan it retrieved with: a second run on the
    same grid, tolerance and algorithm builds nothing, adds its sums in two
    halves on both cores, and has a fresh family's bits."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # one entry per make_plan call
        calls = []
        build = retrieval.make_plan

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(retrieval, "make_plan", counted)
        return calls

    @staticmethod
    def family(algorithm, grid):
        if algorithm == "alg1":
            return build_frft_family(15.0, 40, grid), RetrievalConfig(epsilon=1e-3), run_alg1
        return (build_hermite_family([0, 5, 10, 20], grid),
                RetrievalConfig(epsilon=0.5, algorithm="alg2"), run_alg2)

    @pytest.mark.parametrize("cores", [{0, 1}, {0}], ids=["two-cores", "one-core"])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_reuse_matches_a_fresh_family(self, monkeypatch, builds, divided, cores, algorithm):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        grid = make_grid(8.0, 256)
        fam, cfg, run = self.family(algorithm, grid)
        first = run(measure_family(gen_mixture(mixture_preset(), grid), fam), fam, cfg)
        assert len(builds) == 1
        # other data through the stored plan
        meas = [add_noise(m, "additive", 1e-3, seed=j)
                for j, m in enumerate(measure_family(gauss_signal(grid), fam))]
        second = run(meas, fam, cfg)
        assert len(builds) == 1
        assert second.plan is first.plan
        fresh_fam = self.family(algorithm, grid)[0]
        fresh = run(meas, fresh_fam, cfg)
        assert len(builds) == 2
        assert np.array_equal(divided[1], divided[2])  # second's J, fresh's J
        assert np.array_equal(second.plan.omega, fresh.plan.omega)
        assert np.array_equal(second.signal.values, fresh.signal.values)
        assert second.anchor_c == fresh.anchor_c

    def test_another_key_rebuilds_and_replaces_the_plan(self, builds):
        grid = make_grid(8.0, 128)
        fam = build_frft_family(4.0, 8, grid)
        meas = measure_family(gauss_signal(grid), fam)
        cfg = RetrievalConfig(epsilon=1e-3)
        runs = [
            (meas, cfg, run_alg1),
            (meas, RetrievalConfig(epsilon=2e-3), run_alg1),  # tolerance
            (meas, cfg, run_alg2),                             # algorithm
            (meas, cfg, run_alg1),  # only the last plan is kept
        ]
        plans = []
        for k, (m, c, run) in enumerate(runs, start=1):
            plans.append(run(m, fam, c).plan)
            assert len(builds) == k
            assert list(fam.plans.values()) == [plans[-1]]
        assert len({id(plan) for plan in plans}) == len(plans)
        assert run_alg1(meas, fam, cfg).plan is plans[-1]
        assert len(builds) == len(runs)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_plan_is_read_only(self, algorithm):
        grid = make_grid(8.0, 128)
        fam, cfg, run = self.family(algorithm, grid)
        plan = run(measure_family(gen_mixture(mixture_preset(), grid), fam), fam, cfg).plan
        for array in (plan.den, plan.owner):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_stored_plan_keeps_den_and_one_label_byte_per_cell(self):
        # den (8 L^2) and the int8 owner labels (L^2): a plan keeps no
        # boolean mask per window, nor omega
        L = 256
        grid = make_grid(8.0, L)
        degrees = [3, 11, 20, 28, 37, 49]
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        retrieval.stored_plan(build_hermite_family(degrees, grid), cfg)  # lazy imports
        family = build_hermite_family(degrees, grid)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            plan = retrieval.stored_plan(family, cfg)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert list(family.plans.values()) == [plan]
        assert kept <= plan.den.nbytes + L * L + 4096  # and the plan's few small objects

    def test_overflow_in_the_second_half_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = make_grid(8.0, 64)
        fam = build_frft_family(2.0, 8, grid)
        meas = measure_family(gauss_signal(grid), fam)
        cfg = RetrievalConfig(epsilon=1e-3)
        run_alg1(meas, fam, cfg)  # stores the plan
        # the powers are C-ordered, so the second half is the last rows,
        # which the second thread adds
        assert meas[0].flags.c_contiguous
        huge = []
        for mea in meas:
            power = mea.copy(order="K")
            power[-1] = 1e308
            huge.append(power)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run_alg1(huge, fam, cfg)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sums_in_halves_match_the_serial_sum(self, monkeypatch, cores, order):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        grid = make_grid(8.0, 64)
        rng = np.random.default_rng(3)
        meas = [np.asarray(rng.random((64, 64)), order=order) for _ in range(5)]
        sums = [retrieval._group_sum(meas, g) for g in ((0, 1, 2, 3, 4), (2,))]
        serial = meas[0].copy()
        for mea in meas[1:]:
            serial += mea
        assert np.array_equal(sums[0], serial)
        assert sums[0].flags[f"{order}_CONTIGUOUS"]
        assert sums[1] is meas[2]


class TestSingleWindowBaseline:
    def test_matched_support_self_test(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = gauss_baseline_family(grid)
        rec = run_alg2(measure_family(f, fam), fam, RetrievalConfig(epsilon=1e-6))
        d, _ = misfit(f, rec.signal)
        assert d < 1e-4

    def test_chirp_baseline_fails_and_improves_with_epsilon(self):
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        fam = gauss_baseline_family(grid)
        meas = measure_family(f, fam)
        rec3 = run_alg2(meas, fam, RetrievalConfig(epsilon=1e-3))
        rec9 = run_alg2(meas, fam, RetrievalConfig(epsilon=1e-9))
        d3, _ = misfit(f, rec3.signal)
        d9, _ = misfit(f, rec9.signal)
        assert d3 > 0.5
        assert d9 < d3
        assert d9 > 0.1


class TestInvariants:
    def test_global_phase_equivariance(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        rotated = Signal(grid=grid, values=1j * f.values)  # exact rotation
        fam = build_frft_family(2.0, 8, grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        rec_a = run_alg1(measure_family(f, fam), fam, cfg)
        rec_b = run_alg1(measure_family(rotated, fam), fam, cfg)
        assert np.array_equal(rec_a.signal.values, rec_b.signal.values)

    def test_noiseless_consistency_bound(self):
        # misfit < 10 * sqrt(relative ambiguity mass outside Omega) + 1e-4
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        fam = build_frft_family(15.0, 40, grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        rec = run_alg1(measure_family(f, fam), fam, cfg)
        Af = numeric_ambiguity(f.values, grid)
        total = np.sum(np.abs(Af) ** 2)
        outside = np.sum(np.abs(Af[~rec.plan.omega]) ** 2)
        d, _ = misfit(f, rec.signal)
        assert d < 10.0 * np.sqrt(outside / total) + 1e-4

    def test_monotone_coverage_alg1_contained_signal(self):
        # strict monotonicity needs the signal ambiguity inside the lattice;
        # the mixture preset satisfies that
        grid = make_grid(8.0, 512)
        f = gen_mixture(mixture_preset(), grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        angles = [(j - 1) * np.pi / 16 for j in range(1, 17)]
        small = build_frft_family(15.0, 8, grid, angles=angles[:8])
        large = build_frft_family(15.0, 16, grid, angles=angles)
        d_small, _ = misfit(f, run_alg1(measure_family(f, small), small, cfg).signal)
        d_large, _ = misfit(f, run_alg1(measure_family(f, large), large, cfg).signal)
        assert d_large <= d_small + 1e-6

    def test_monotone_coverage_alg1_chirp(self):
        # the chirp ridge reaches the lattice edge, where the torus wrap of
        # the spectrogram product perturbs boundary cells; coverage growth
        # may cost up to that wrap magnitude
        grid = make_grid(8.0, 512)
        f = gen_chirp(chirp_preset(), grid)
        cfg = RetrievalConfig(epsilon=1e-3)
        angles40 = [(j - 1) * np.pi / 40 for j in range(1, 41)]
        small = build_frft_family(15.0, 20, grid, angles=angles40[:20])
        large = build_frft_family(15.0, 40, grid, angles=angles40)
        d_small, _ = misfit(f, run_alg1(measure_family(f, small), small, cfg).signal)
        d_large, _ = misfit(f, run_alg1(measure_family(f, large), large, cfg).signal)
        assert d_large <= d_small + 1e-3

    def test_monotone_coverage_alg2(self):
        grid = make_grid(8.0, 512)
        f = gen_mixture(mixture_preset(), grid)
        cfg = RetrievalConfig(epsilon=1e-3, algorithm="alg2")
        small = build_hermite_family([0, 10, 20], grid)
        large = build_hermite_family([0, 10, 20, 30, 40, 50], grid)
        d_small, _ = misfit(f, run_alg2(measure_family(f, small), small, cfg).signal)
        d_large, _ = misfit(f, run_alg2(measure_family(f, large), large, cfg).signal)
        assert d_large <= d_small + 1e-6

    def test_omega_area_fraction_reported(self):
        grid = make_grid(8.0, 256)
        f = gauss_signal(grid)
        fam = build_frft_family(2.0, 8, grid)
        rec = run_alg1(measure_family(f, fam), fam, RetrievalConfig(epsilon=1e-3))
        assert 0.0 < rec.omega_area_fraction < 1.0
        assert_allclose(rec.omega_area_fraction, rec.plan.omega.mean(), rtol=0, atol=0)


class TestConfigValidation:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            RetrievalConfig(epsilon=0.0)

    def test_rejects_bad_algorithm(self):
        with pytest.raises(ValueError):
            RetrievalConfig(epsilon=1e-3, algorithm="alg3")

    @pytest.mark.parametrize("anchor", [64, -64, 10**30])
    def test_run_refuses_anchor_off_the_grid(self, anchor):
        # taken mod L it would silently read another time index
        grid = make_grid(2.0, 64)
        fam = build_hermite_family([0, 5], grid)
        meas = measure_family(gauss_signal(grid), fam)
        with pytest.raises(ValueError, match="anchor"):
            run_alg2(meas, fam, RetrievalConfig(epsilon=0.5, anchor=anchor))

    @pytest.mark.parametrize("anchor", [-1, 63])
    def test_run_takes_the_edge_anchors(self, anchor):
        grid = make_grid(2.0, 64)
        fam = build_hermite_family([0, 5], grid)
        meas = measure_family(gauss_signal(grid), fam)
        rec = run_alg2(meas, fam, RetrievalConfig(epsilon=0.5, anchor=anchor))
        assert rec.anchor_c == 63


class TestBlockedDivision:
    """J divided block by block against the whole-band division it replaced."""

    @staticmethod
    def whole_band_j(meas, plan):
        L = plan.grid.L
        den = den_lattice(plan)
        J = np.zeros((L, L), dtype=complex)
        for i, group in enumerate(plan.groups):
            bits = plan.owner == i
            rows = row_span(bits)
            if rows is None:
                continue
            power = meas[group[0]].copy(order="K")
            for j in group[1:]:
                power += meas[j]
            band = slice(*rows)
            np.divide(product_band(power, plan.grid, rows),
                      den[band], out=J[band], where=bits[band])
        return J

    @pytest.mark.parametrize("rows", [1, 7, 32])  # 32 rows: the cap at L = 256
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_matches_whole_band_division(self, monkeypatch, divided, algorithm, rows):
        monkeypatch.setattr(stft, "POWER_BLOCK_BYTES", rows * 16 * 256)
        assert block_height(256) == rows
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        build = ((lambda: build_frft_family(2.0, 8, grid)) if algorithm == "alg1"
                 else (lambda: build_hermite_family([0, 5, 10, 20], grid)))
        cfg = RetrievalConfig(epsilon=1e-3 if algorithm == "alg1" else 0.5, algorithm=algorithm)
        family = build()
        meas = measure_family(f, family)
        plan = make_plan(family, cfg)
        want = self.whole_band_j(meas, plan)
        spans = [row_span(plan.owner == i) for i in range(len(plan.groups))]
        assert max(stop - first for first, stop in spans) > 64
        assert np.array_equal(assemble(meas, plan), want)
        (run_alg1 if algorithm == "alg1" else run_alg2)(meas, build(), cfg)
        assert np.array_equal(divided[-1], want)

    def test_group_sum_is_freed_once_transformed(self, l1024_blocks):
        # the fan's summed power dies once it is lines, as `_run` makes
        # them, and J is allocated after that: the peak holds H and J, not
        # the sum beside them
        grid = make_grid(8.0, 256)
        L = grid.L
        family = build_frft_family(2.0, 8, grid)
        meas = measure_family(gen_mixture(mixture_preset(), grid), family)
        plan = make_plan(family, RetrievalConfig(epsilon=1e-3))

        def lines():
            return (lines_of(retrieval._group_sum(meas, g), grid, span)
                    for g, span in zip(plan.groups, plan.spans))

        retrieval._divide(lines(), plan)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            J = retrieval._divide(lines(), plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # J 16 L^2, H 8 L^2, and a 16-row block (L^2) with numpy's copy of it
        assert peak < 16 * L * L + 8 * L * L + 4 * L * L
        assert (plan.first, plan.first + len(J)) == row_span(plan.omega)
        assert J.shape[1] == L

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_j_holds_omegas_rows_only(self, algorithm):
        # J is allocated on the rows from omega's first to its last, and
        # equals the whole-lattice J there; the whole lattice is zero outside
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        if algorithm == "alg1":
            family, cfg = build_frft_family(2.0, 8, grid), RetrievalConfig(epsilon=1e-2)
        else:
            family = build_hermite_family([5, 10], grid)
            cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        meas = measure_family(f, family)
        plan = make_plan(family, cfg)
        J = retrieval._divide(group_lines(meas, plan), plan)
        first, stop = row_span(plan.omega)
        assert (plan.first, len(J)) == (first, stop - first)
        assert len(J) < grid.L
        want = self.whole_band_j(meas, plan)
        assert np.array_equal(J, want[first:stop])
        assert not want[:first].any() and not want[stop:].any()

    def test_run_holds_the_plan_j_and_one_half_plane(self, l1024_blocks):
        # the whole-band read-out held the band and its two gathers beside
        # J and H; blocks leave a block, numpy's copy of it in an in-place
        # broadcast multiply, and the plan's own build buffers
        L = 256
        grid = make_grid(8.0, L)
        meas = measure_family(gen_mixture(mixture_preset(), grid),
                              build_hermite_family([0, 5, 10, 20], grid))
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        run_alg2(meas, build_hermite_family([0, 5, 10, 20], grid), cfg)  # FFT plans
        family = build_hermite_family([0, 5, 10, 20], grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            plan = run_alg2(meas, family, cfg).plan
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plan_bytes = plan.den.nbytes + plan.owner.nbytes
        J, H = 16 * L * L, 16 * (L // 2 + 1) * L
        assert peak < plan_bytes + J + H + 8 * L * L

    def test_j_is_freed_when_the_run_returns(self):
        # a Reconstruction keeps the signal and the stored plan, not J
        L = 256
        grid = make_grid(8.0, L)
        family = build_hermite_family([0, 5, 10, 20], grid)
        meas = measure_family(gen_mixture(mixture_preset(), grid), family)
        cfg = RetrievalConfig(epsilon=0.5, algorithm="alg2")
        run_alg2(meas, family, cfg)  # FFT plans, and the plan stored in the family
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rec = run_alg2(meas, family, cfg)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert rec.plan is family.plans[(raw_threshold(cfg, grid), "alg2")]
        assert kept < 16 * L * L  # J alone is 16 L^2 bytes


class TestTwoWindowsInFlight:
    """`measure_family` measures two windows at a time and stores each power
    at its member's index: the list is the serial loop's, bit for bit."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        # the odd indices go to a second thread even on a one-core host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_odd_indices_run_on_a_second_thread(self):
        here = threading.get_ident()
        ids = _two_at_a_time(lambda j: (j, threading.get_ident()), 5)
        assert [j for j, _ in ids] == list(range(5))
        assert {t for j, t in ids if j % 2 == 0} == {here}
        assert len({t for j, t in ids if j % 2 == 1} - {here}) == 1

    def test_order_holds_under_fast_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert _two_at_a_time(lambda j: j * j, 1001) == [j * j for j in range(1001)]
        finally:
            sys.setswitchinterval(interval)

    def test_one_core_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _two_at_a_time(lambda j: threading.get_ident(), 3) == [threading.get_ident()] * 3

    @pytest.mark.parametrize("build", [
        lambda grid: build_hermite_family([5], grid),
        lambda grid: build_hermite_family([0, 5, 10], grid),
        lambda grid: build_frft_family(15.0, 40, grid),
    ], ids=["N1", "N3", "fan40"])
    def test_matches_serial_loop(self, build):
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        family = build(grid)
        serial = [power_of(stft_coeffs(f, m.samples)) for m in family.members]
        threaded = measure_family(f, family)
        assert len(threaded) == len(serial)
        for a, b in zip(threaded, serial):
            assert a.dtype == np.float64
            assert a.flags.c_contiguous
            assert np.array_equal(a, b)

    def test_worker_sees_the_callers_errstate(self):
        # window 1 overflows |V|^2; it is measured on the worker thread, which
        # would only warn (and the retrieval reject its inf) under numpy's
        # default errstate
        grid = make_grid(8.0, 64)
        f = gauss_signal(grid)
        family = build_hermite_family([0, 5, 10], grid)
        with np.errstate(all="raise", under="ignore"):  # the CLI's setting
            measure_family(f, family)  # the other windows measure cleanly
        members = list(family.members)
        members[1] = WindowMember(window_id="huge", samples=members[1].samples * 1e200,
                                  evaluator=members[1].evaluator)
        huge = WindowFamily(members=tuple(members), grid=grid)
        with np.errstate(all="raise", under="ignore"), \
                pytest.raises(FloatingPointError, match="overflow"):
            measure_family(f, huge)

    def test_holds_no_product_per_window_in_flight(self, l1024_blocks):
        # each window in flight held its 16 L^2-byte complex product and its
        # |.| beside the powers; blocks of them are all that is left
        L = 256
        grid = make_grid(8.0, L)
        f = gen_mixture(mixture_preset(), grid)
        family = build_hermite_family([0, 5, 10, 20], grid)
        measure_family(f, family)  # FFT plans
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            measure_family(f, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - len(family) * 8 * L * L < 8 * L * L

    @pytest.mark.parametrize("bad", [0, 1], ids=["caller", "worker"])
    def test_failure_is_raised_and_stops_the_other_side(self, bad):
        # every other call waits until the bad one has failed, so a side that
        # does not stop runs through all of its indices
        calls = []
        failing = threading.Event()

        def fn(j):
            calls.append(j)
            if j == bad:
                failing.set()
                raise KeyError(j)
            assert failing.wait(timeout=10)
            return j

        with pytest.raises(KeyError):
            _two_at_a_time(fn, 200)
        assert len(calls) < 20


class TestOneWorker:
    """`_two_at_a_time` hands its odd indices to one worker thread kept for
    the process's life, which holds nothing of a call once it returns."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_back_to_back_calls_use_at_most_two_threads(self):
        # kernel thread ids: a thread started per call would get a new one
        ids = set()
        for _ in range(50):
            ids.update(_two_at_a_time(lambda j: threading.get_native_id(), 4))
        assert threading.get_native_id() in ids and len(ids) <= 2

    def test_a_call_inside_a_call_runs_serially(self):
        # from the caller's indices and from the worker's alike
        def fn(j):
            return threading.get_native_id(), _two_at_a_time(lambda k: threading.get_native_id(), 3)

        calls = _two_at_a_time(fn, 4)
        assert len({tid for tid, _ in calls}) == 2
        assert all(inner == [tid] * 3 for tid, inner in calls)

    def test_the_worker_keeps_nothing_of_a_call(self):
        # it would otherwise keep the last call's fn, and what fn reads, alive
        class Held:
            pass

        held = Held()
        ref = weakref.ref(held)
        assert _two_at_a_time(lambda j, held=held: held is not None, 2) == [True, True]
        del held
        assert ref() is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_starts_its_own_worker(self):
        _two_at_a_time(lambda j: j, 2)  # the parent's worker exists
        pid = os.fork()
        if pid == 0:  # the child: no worker thread came with it
            signal.alarm(10)
            ok = _two_at_a_time(lambda j: threading.get_native_id(), 2)
            os._exit(0 if len(set(ok)) == 2 else 1)
        assert os.waitpid(pid, 0)[1] == 0


class TestGroupSplit:
    """`_divide` on a list of lines and `verify_noise_bounds` take two groups
    at a time; J and every `BoundReport` field against the serial loops
    (`serial_divide`, `serial_noise_bounds`), bit for bit."""

    @staticmethod
    def copies(lines):
        return [Lines(None if x.X is None else x.X.copy(order="K"), x.l1) for x in lines]

    @staticmethod
    def measured(n, algorithm, model, cores, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        family = build_hermite_family([0, 5, 10, 15, 20, 25][:n], grid)
        plan = stored_plan(family, RetrievalConfig(epsilon=0.5, algorithm=algorithm))
        # seed 2 draws noise whose row sums, added in another group order,
        # move the 6-group lhs in its last bit
        return plan, *measure_lines(f, family, plan, (model, 0.05, 2))

    @pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["one-core", "two-cores"])
    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_the_serial_loops(self, monkeypatch, n, algorithm, model, cores):
        plan, lines, noise_lines = self.measured(n, algorithm, model, cores, monkeypatch)
        assert len(plan.groups) == (1 if algorithm == "alg1" else n)
        want = serial_divide(self.copies(lines), plan)
        assert _divide(lines, plan).tobytes() == want.tobytes()  # +0.0 off omega too
        want = serial_noise_bounds(self.copies(noise_lines), plan)
        report = verify_noise_bounds(noise_lines, plan)
        assert report == want and report.satisfied == (True, True)

    def test_a_group_with_no_cells(self, monkeypatch):
        # window 1 repeats window 0, so under alg2 its group claims no cell
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = make_grid(8.0, 256)
        family = build_frft_family(2.0, 2, grid, angles=[0.0, 0.0])
        plan = stored_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        assert plan.spans[1] is None
        lines, noise_lines = measure_lines(gauss_signal(grid), family, plan,
                                           ("additive", 0.01, 4))
        want = serial_divide(self.copies(lines), plan)
        assert _divide(lines, plan).tobytes() == want.tobytes()
        want = serial_noise_bounds(self.copies(noise_lines), plan)
        assert verify_noise_bounds(noise_lines, plan) == want

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["one-core", "two-cores"])
    def test_non_finite_lines_of_the_workers_group_are_named(self, monkeypatch, cores, value):
        # group 1 runs on the worker with two cores, in the caller with one
        plan, lines, noise_lines = self.measured(3, "alg2", "additive", cores, monkeypatch)
        for group in (lines, noise_lines):
            group[1].X[7, 2] = value
        check = lambda: verify_noise_bounds(noise_lines, plan)  # noqa: E731
        for run in (lambda: _divide(lines, plan), check):
            # an inf makes NaNs in the transform, which only warns by default
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="^group 1's lines hold a non-finite value$"):
                run()


class TestMeasureLines:
    """`measure_lines`, the one measurement stream, against the list path:
    `measure_family`, each window's `add_noise`, the group sums
    (`_group_sum`) and their first passes, the runner on the powers and the
    two-list noise-bound check.  Every output is bit for bit the list
    path's."""

    @pytest.mark.parametrize("L", [250, 200])  # short last blocks, no power of two
    @pytest.mark.parametrize("cores", [{0}, {0, 1}])
    @pytest.mark.parametrize("model", [None, "additive", "multiplicative"])
    @pytest.mark.parametrize("kind, n, algorithm", [
        ("fan", 7, "alg1"),  # 4 + 3 members a block
        ("fan", 5, "alg2"),  # pairs of groups, then one
        ("hermite", 3, "alg1"),  # 2 + 1 members a block
        ("hermite", 3, "alg2"),
        ("hermite", 1, "alg1"),  # one member, its first passes on the second core
    ], ids=["fan7-alg1", "fan5-alg2", "hermite3-alg1", "hermite3-alg2", "hermite1-alg1"])
    def test_matches_the_list_path(self, monkeypatch, kind, n, algorithm, model, cores, L):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        grid = make_grid(8.0, L)
        f = gen_mixture(mixture_preset(), grid)
        family = (build_frft_family(2.0, n, grid) if kind == "fan"
                  else build_hermite_family([0, 5, 10][:n], grid))
        cfg = RetrievalConfig(epsilon=1e-2, algorithm=algorithm)
        runner = run_alg1 if algorithm == "alg1" else run_alg2
        plan = stored_plan(family, cfg)
        clean = measure_family(f, family)
        noise = None if model is None else (model, 0.05, 9)
        noisy = clean if model is None else noisy_powers(clean, {"model": model, "level": 0.05}, 9)

        lines, noise_lines = measure_lines(f, family, plan, noise)
        etas = [] if model is None else noise_sums(clean, noisy, plan)
        want_eta = [lines_of(eta, grid, span, l1=True)
                    for eta, span in zip(etas, plan.spans)]
        for got, want in [*zip(lines, group_lines(noisy, plan), strict=True),
                          *zip(noise_lines or [], want_eta, strict=True)]:
            assert (got.X is None) == (want.X is None)
            assert got.X is None or np.array_equal(got.X, want.X)
            assert got.l1 == want.l1
        assert len(want_eta) == (0 if model is None else len(plan.groups))
        assert noise_lines is None if model is None else len(noise_lines) == len(plan.groups)
        # J, from the lines that the runner transforms in place
        assert np.array_equal(padded(_divide(iter(lines), plan), plan), assemble(noisy, plan))
        lines, noise_lines = measure_lines(f, family, plan, noise)
        got, want = runner(lines, family, cfg), runner(noisy, family, cfg)
        assert np.array_equal(got.signal.values, want.signal.values)
        assert got.anchor_c == want.anchor_c and got.plan is want.plan is plan
        if model is not None:
            assert verify_noise_bounds(noise_lines, plan) == two_list_bounds(clean, noisy, plan)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_lines_serve_one_run(self, algorithm):
        # the runner transforms its lines in place: a second run on them
        # would read them transformed twice (misfit 2068 against 0.0617 for
        # alg2 here), so it is refused, and lines measured again run alike
        grid = make_grid(8.0, 256)
        f = gen_mixture(mixture_preset(), grid)
        family = build_hermite_family([5, 10], grid)
        cfg = RetrievalConfig(epsilon=0.5, algorithm=algorithm)
        runner = run_alg1 if algorithm == "alg1" else run_alg2
        noise = ("multiplicative", 0.05, 7)
        lines, _ = measure_lines(f, family, stored_plan(family, cfg), noise)
        first = runner(lines, family, cfg)
        assert misfit(f, first.signal)[0] < 0.2  # alg1 0.172
        with pytest.raises(ValueError, match="transformed already: measure again"):
            runner(lines, family, cfg)
        again, _ = measure_lines(f, family, first.plan, noise)
        assert np.array_equal(runner(again, family, cfg).signal.values, first.signal.values)

    @pytest.mark.parametrize("sums, noise_sums", [(True, False), (False, True)])
    def test_makes_only_the_lines_asked_for(self, sums, noise_sums):
        grid = make_grid(8.0, 128)
        f = gen_mixture(mixture_preset(), grid)
        family = build_hermite_family([0, 5], grid)
        plan = stored_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        both = measure_lines(f, family, plan, ("additive", 0.01, 3))
        got = measure_lines(f, family, plan, ("additive", 0.01, 3), sums, noise_sums)
        for asked, lines, want in zip((sums, noise_sums), got, both):
            assert lines is None if not asked else all(
                np.array_equal(a.X, b.X) and a.l1 == b.l1 for a, b in zip(lines, want, strict=True))

    def test_refuses_bad_input_before_measuring(self, monkeypatch):
        grid = make_grid(8.0, 64)
        family = build_hermite_family([0, 5], grid)
        plan = stored_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        monkeypatch.setattr(retrieval, "stft_block", None)  # any STFT would fail
        with pytest.raises(GridMismatchError):
            measure_lines(gen_mixture(mixture_preset(), make_grid(8.0, 128)), family, plan)
        f = gen_mixture(mixture_preset(), grid)
        with pytest.raises(ValueError, match="nonnegative"):
            measure_lines(f, family, plan, ("additive", -0.1, 0))
        with pytest.raises(ValueError, match="unknown noise model"):
            measure_lines(f, family, plan, ("uniform", 0.1, 0))

    def test_refuses_a_plan_of_another_family(self):
        grid = make_grid(8.0, 64)
        f = gen_mixture(mixture_preset(), grid)
        plan = stored_plan(build_hermite_family([0, 5, 10], grid),
                           RetrievalConfig(epsilon=1e-2, algorithm="alg2"))
        with pytest.raises(ValueError, match="do not cover 2 windows"):
            measure_lines(f, build_hermite_family([0, 5], grid), plan)

    def test_bits_hold_under_fast_switching(self, monkeypatch):
        # the two sides of one group share its sum blocks, one block apart;
        # switching threads every microsecond must not move a bit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = make_grid(8.0, 64)
        f = gen_mixture(mixture_preset(), grid)
        family = build_frft_family(2.0, 7, grid)
        plan = stored_plan(family, RetrievalConfig(epsilon=1e-2, algorithm="alg1"))
        noise = ("multiplicative", 0.05, 4)
        clean = measure_family(f, family)
        noisy = noisy_powers(clean, {"model": noise[0], "level": noise[1]}, noise[2])
        want = group_lines(noisy, plan) + [lines_of(noise_sums(clean, noisy, plan)[0],
                                                               grid, plan.spans[0], l1=True)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                lines, noise_lines = measure_lines(f, family, plan, noise)
                for got, w in zip(lines + noise_lines, want, strict=True):
                    assert np.array_equal(got.X, w.X) and got.l1 == w.l1
        finally:
            sys.setswitchinterval(interval)

    def test_runner_refuses_lines_for_other_groups(self):
        grid = make_grid(8.0, 64)
        f = gen_mixture(mixture_preset(), grid)
        family = build_hermite_family([0, 5], grid)
        lines, _ = measure_lines(f, family, stored_plan(family, RetrievalConfig(
            epsilon=1e-2, algorithm="alg1")))
        with pytest.raises(ValueError, match="1 line sets for 2 window groups"):
            run_alg2(lines, family, RetrievalConfig(epsilon=1e-2))


class TestOneBlockHeight:
    """`stft.block_height` is the one row-block height: every block of
    `stft_blocks`, of the stream's first passes, of `lines_of` and of the
    product read-out holds it, but for each pass's last block and the
    read-out's blocks at its cut at row L/2."""

    @pytest.mark.parametrize("T, L, height, patched", [
        (0.7, 2, 1, False), (1.2, 6, 1, False), (6.5, 250, 31, False), (8.0, 256, 32, False),
        (8.0, 1024, 32, False), (8.0, 256, 8, True)],
        ids=["L2", "L6", "L250", "L256", "L1024", "L256-l1024_blocks"])
    def test_every_block_holds_block_height_rows(self, request, monkeypatch, T, L, height,
                                                 patched):
        if patched:
            request.getfixturevalue("l1024_blocks")
        assert block_height(L) == height
        grid = make_grid(T, L)
        f = random_signal(grid, np.random.default_rng(3))
        family = build_frft_family(1.0, 3, grid)
        plan = stored_plan(family, RetrievalConfig(epsilon=1e-2))
        passes = {}  # each first pass's block heights
        add = ambiguity.FirstPass.add

        def recorded(self, block):
            passes.setdefault(id(self), []).append(len(block))
            return add(self, block)

        def held(heights):  # whole blocks, then one of at most `height` rows
            return (sum(heights) == L and set(heights[:-1]) <= {height}
                    and 0 < heights[-1] <= height)

        monkeypatch.setattr(ambiguity.FirstPass, "add", recorded)
        g = family.members[0].samples
        assert held([len(block) for _, block in stft_blocks(f, g)])
        measure_lines(f, family, plan, ("additive", 0.01, 5))
        assert len(passes) == 2 and all(map(held, passes.values()))  # sums and noise
        passes.clear()
        power = stft_power(f, g)
        lines_of(power, grid, (0, L), l1=True)
        (heights,) = passes.values()
        assert held(heights)
        h = L // 2
        for r0, r1 in [(0, L), plan.spans[0]]:
            nxt = r0
            for m0, G in ambiguity.product_blocks(lines_of(power, grid, (r0, r1)), grid, (r0, r1)):
                assert m0 == nxt and 0 < len(G) <= height
                nxt = m0 + len(G)
                assert len(G) == height or nxt in (h, r1) or m0 == h
            assert nxt == r1
