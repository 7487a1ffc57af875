import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specret import (
    FrftGaussAmbiguity,
    HermiteAmbiguity,
    build_frft_family,
    build_hermite_family,
    coverage_radii,
    dilated_gauss_samples,
    make_grid,
)
from specret import special, windows
from specret.ambiguity import PLAN_ROWS, hermite_rows
from specret.windows import LATTICE_FLOOR, TWO_CORE_BLOCKS, check_hermite_degree, peel
from oracles import full_ladder_peel, peel_masks, stability_mask


def member_sum(family, x, y):
    """Pointwise sum of the member ambiguities at (x, y)."""
    return sum(m.evaluator(x, y) for m in family.members)


class TestFamilies:
    def test_single_standard_gauss(self, grid256):
        fam = build_frft_family(1.0, 1, grid256)
        assert len(fam) == 1
        assert fam.grid == grid256
        assert_allclose(fam.members[0].samples,
                        dilated_gauss_samples(1.0, grid256).astype(complex), atol=1e-14)

    def test_default_angles(self, grid256):
        fam = build_frft_family(10.0, 4, grid256)
        angles = [m.evaluator.alpha for m in fam.members]
        assert_allclose(angles, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])

    def test_angle_list_override(self, grid256):
        angles = [(j - 1) * np.pi / 40 for j in range(1, 81)]
        fam = build_frft_family(50.0, 80, grid256, angles=angles)
        assert len(fam) == 80
        assert_allclose([m.evaluator.alpha for m in fam.members], angles)

    def test_daffodil_petal_count(self, grid256):
        # the summed ambiguity of 4 rotated ellipses has 8 angular lobes
        fam = build_frft_family(10.0, 4, grid256)
        theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        ring = member_sum(fam, 2.0 * np.cos(theta), 2.0 * np.sin(theta))
        peaks = 0
        for i in range(len(ring)):
            if ring[i] > ring[i - 1] and ring[i] > ring[(i + 1) % len(ring)]:
                peaks += 1
        assert peaks == 8

    def test_hermite_family(self, grid256):
        fam = build_hermite_family([0, 5, 10], grid256)
        assert [m.evaluator.n for m in fam.members] == [0, 5, 10]
        assert fam.grid == grid256

    def test_hermite_rejects_non_increasing(self, grid256):
        with pytest.raises(ValueError):
            build_hermite_family([5, 3], grid256)
        with pytest.raises(ValueError):
            build_hermite_family([2, 2], grid256)
        with pytest.raises(ValueError):
            build_hermite_family([], grid256)

    @pytest.mark.parametrize("T, L, fits, refused", [
        (8.0, 256, 200, 201),  # both edges at 8: degree 200 turns at 7.99, 201 at 8.01
        (8.0, 1024, 200, 201),  # the half-width binds
        (8.0, 128, 49, 50),  # the Nyquist L/(4T) = 4 binds, well inside T
        (40.0, 2048, 514, 515),  # Nyquist 12.8: the n = 400 lattice's window fits
    ])
    def test_hermite_refuses_degrees_the_grid_cannot_hold(self, T, L, fits, refused):
        grid = make_grid(T, L)
        check_hermite_degree(fits, grid)
        with pytest.raises(ValueError, match=rf"hermite\(n={refused}\) does not fit the grid"):
            build_hermite_family([0, refused], grid)

    def test_hermite_guard_is_o1_for_any_degree(self, grid256):
        # 10**400 has no float; the guard compares it with an exact int-float comparison
        for n in (10 ** 6, 10 ** 7, 10 ** 400):
            with pytest.raises(ValueError, match="does not fit the grid"):
                check_hermite_degree(n, grid256)

    def test_frft_rejects_bad_parameters(self, grid256):
        with pytest.raises(ValueError):
            build_frft_family(-1.0, 4, grid256)
        with pytest.raises(ValueError):
            build_frft_family(2.0, 0, grid256)

    @pytest.mark.parametrize("a", [1e8, 1e12, 1e16])
    def test_frft_rejects_windows_the_grid_cannot_resolve(self, grid256, a):
        # at T=8, L=256 such a window samples to one spike at t=0
        with pytest.raises(ValueError, match=r"frft_gauss\(a=1e\+\d+, alpha=0\.000000\)"):
            build_frft_family(a, 4, grid256)

    def test_frft_resolved_energy(self, grid256):
        # resolved windows keep their closed-form norm^2 1/sqrt(2) on the grid
        for a in (1.0, 15.0, 50.0):
            fam = build_frft_family(a, 40, grid256)
            for m in fam.members:
                energy = grid256.dt * np.sum(np.abs(m.samples) ** 2)
                assert abs(energy * np.sqrt(2.0) - 1.0) <= 1e-3

    def test_summed_rotation_invariance(self, grid256, rng):
        # rotating by the angular step maps the family onto itself
        N = 8
        fam = build_frft_family(10.0, N, grid256)
        step = np.pi / N
        for _ in range(40):
            x, y = rng.uniform(-4, 4, size=2)
            xr = x * np.cos(step) - y * np.sin(step)
            yr = x * np.sin(step) + y * np.cos(step)
            assert_allclose(member_sum(fam, x, y), member_sum(fam, xr, yr),
                            rtol=1e-9, atol=1e-30)


class TestStabilityMask:
    def test_gauss_disc_radius(self):
        # |A h_0| > 0.1 is the disc of radius sqrt(2 ln 10 / pi)
        grid = make_grid(8.0, 512)
        mask = stability_mask(HermiteAmbiguity(0), 0.1, grid)
        r_expect = np.sqrt(2 * np.log(10.0) / np.pi)
        X, Y = np.meshgrid(grid.x, grid.y)
        R = np.hypot(X, Y)
        assert np.array_equal(mask, R < r_expect)

    def test_hermite_annular_gap_count(self):
        grid = make_grid(8.0, 512)
        mask = stability_mask(HermiteAmbiguity(10), 0.1, grid)
        m0 = grid.L // 2
        profile = mask[m0, m0:]
        # gaps: maximal False runs strictly inside the radial support
        gaps = 0
        in_gap = False
        last_true = np.flatnonzero(profile).max()
        for i in range(last_true + 1):
            if not profile[i] and not in_gap:
                gaps += 1
                in_gap = True
            elif profile[i]:
                in_gap = False
        assert gaps == 10

    def test_gauss_above_peak_is_empty(self, grid256):
        mask = stability_mask(FrftGaussAmbiguity(3.0, 0.0), 0.8, grid256)
        assert not mask.any()

    def test_epsilon_validation(self, grid256):
        with pytest.raises(ValueError):
            stability_mask(FrftGaussAmbiguity(1.0, 0.0), 0.0, grid256)
        with pytest.raises(ValueError):
            stability_mask(HermiteAmbiguity(2), 1.5, grid256)

    @pytest.mark.parametrize("eps_pair", [(0.05, 0.2), (0.1, 0.5)])
    def test_monotone_in_epsilon(self, grid256, eps_pair):
        lo, hi = eps_pair
        ev = HermiteAmbiguity(7)
        m_lo = stability_mask(ev, lo, grid256)
        m_hi = stability_mask(ev, hi, grid256)
        assert not (m_hi & ~m_lo).any()  # mask(hi) subset of mask(lo)


class TestPeeling:
    def test_single_member_equals_mask(self, grid256):
        fam = build_hermite_family([4], grid256)
        peeled = peel_masks(fam, 0.1)
        direct = stability_mask(HermiteAmbiguity(4), 0.1, grid256)
        assert np.array_equal(peeled[0], direct)

    def test_nested_set_algebra(self, grid256):
        fam = build_hermite_family([0, 6], grid256)
        peeled = peel_masks(fam, 0.1)
        m0 = stability_mask(HermiteAmbiguity(0), 0.1, grid256)
        m6 = stability_mask(HermiteAmbiguity(6), 0.1, grid256)
        assert np.array_equal(peeled[0], m0)
        assert np.array_equal(peeled[1], m6 & ~m0)

    def test_disjoint_and_union_exact(self, grid256):
        fam = build_hermite_family([0, 3, 9, 15], grid256)
        peeled = peel_masks(fam, 0.08)
        union = np.zeros_like(peeled[0])
        for i, a in enumerate(peeled):
            for b in peeled[i + 1:]:
                assert not (a & b).any()
            union |= a
        full = np.zeros_like(union)
        for m in fam.members:
            full |= stability_mask(m.evaluator, 0.08, grid256)
        assert np.array_equal(union, full)

    def test_high_degree_pair_fills_rings(self):
        # thresholds on the retrieval side arrive pre-scaled by dt; the
        # second window must claim ring cells the first one loses
        grid = make_grid(8.0, 512)
        eps = 0.5 * grid.dt
        fam = build_hermite_family([50, 100], grid)
        peeled = peel_masks(fam, eps)
        s50 = stability_mask(HermiteAmbiguity(50), eps, grid)
        s100 = stability_mask(HermiteAmbiguity(100), eps, grid)
        union = peeled[0] | peeled[1]
        assert peeled[1].sum() > 0
        assert union.sum() > s50.sum()
        assert union.sum() > s100.sum()

    def test_union_beats_any_single_member(self, grid256):
        degrees = [0, 5, 10, 15, 20, 25]
        fam = build_hermite_family(degrees, grid256)
        peeled = peel_masks(fam, 0.1)
        union = np.zeros_like(peeled[0])
        for m in peeled:
            union |= m
        for n in degrees:
            single = stability_mask(HermiteAmbiguity(n), 0.1, grid256)
            assert union.sum() > single.sum()


class TestHermitePlan:
    """`peel` on a Hermite family, whose later degrees skip the cells that
    earlier groups claimed and whose row blocks run two at a time, against
    the serial full-ladder oracle: den, first, owner and the spans bit for
    bit."""

    @staticmethod
    def same_plan(family, groups, epsilon):
        got, want = peel(family, groups, epsilon), full_ladder_peel(family, groups, epsilon)
        assert got[1] == want[1]
        for a, b in ((got[0], want[0]), (got[2], want[2])):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        owner = got[2]
        spans = [windows.row_span(owner == i) for i in range(len(groups))]
        assert spans == [windows.row_span(want[2] == i) for i in range(len(groups))]
        return got

    @staticmethod
    def blocks(family, groups, epsilon):
        degrees = [family.members[j].evaluator.n for group in groups for j in group]
        return hermite_rows(degrees, family.grid, LATTICE_FLOOR * epsilon)

    @pytest.fixture(params=[{0}, {0, 1}], ids=["one-core", "two-cores"])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: request.param, raising=False)
        return len(request.param)

    def test_w2(self, cores):
        grid = make_grid(8.0, 1024)
        family = build_hermite_family([50, 100], grid)
        eps = 0.5 * grid.dt
        assert len(self.blocks(family, [(0,), (1,)], eps)) >= TWO_CORE_BLOCKS
        self.same_plan(family, [(0,), (1,)], eps)

    @pytest.mark.parametrize("seed", [3, 11, 77])
    def test_w3_like(self, cores, seed):
        grid = make_grid(8.0, 512)
        degrees = np.sort(np.random.default_rng(seed).choice(51, 6, replace=False)).tolist()
        self.same_plan(build_hermite_family(degrees, grid), [(j,) for j in range(6)],
                       1e-3 * grid.dt)

    def test_degrees_out_of_order_restart_the_ladder(self, cores):
        grid = make_grid(8.0, 512)
        family = build_hermite_family([5, 20, 40, 45], grid)
        self.same_plan(family, [(2,), (0,), (3,), (1,)], 1e-3 * grid.dt)

    def test_one_group_of_several_members(self, cores):
        # alg1 on a Hermite family: one sum, claimed once, no cell dropped
        grid = make_grid(8.0, 512)
        self.same_plan(build_hermite_family([0, 5, 10, 20], grid), [(0, 1, 2, 3)], 0.5 * grid.dt)

    def test_short_last_block(self, cores):
        # degree 200 reaches the grid's edge, so all 257 quadrant rows live:
        # four whole blocks and one of a single row, run two at a time
        grid = make_grid(8.0, 512)
        family = build_hermite_family([100, 150, 200], grid)
        groups, eps = [(0,), (1,), (2,)], 1e-3 * grid.dt
        blocks = self.blocks(family, groups, eps)
        assert len(blocks) >= TWO_CORE_BLOCKS
        assert blocks[-1].stop - blocks[-1].start < PLAN_ROWS
        self.same_plan(family, groups, eps)

    def test_w2_steps_77_percent_of_the_full_ladders_cells(self, monkeypatch):
        # every cell step of the recurrence, counted by wrapping the step; a
        # plan that stops dropping claimed cells shows here without a timing
        grid = make_grid(8.0, 1024)
        family = build_hermite_family([50, 100], grid)
        groups, eps = [(0,), (1,)], 0.5 * grid.dt
        cells = []  # list.append holds across the two threads
        step = special._laguerre_step
        monkeypatch.setattr(special, "_laguerre_step",
                            lambda k, z, *args: (cells.append(z.size), step(k, z, *args))[1])
        peel(family, groups, eps)
        steps = sum(cells)
        cells.clear()
        full_ladder_peel(family, groups, eps)
        # the live-row scan's 513 cells and 4 blocks of 225 live rows, 100 steps each
        assert sum(cells) == 100 * 513 * (1 + 225)
        assert steps == 8_922_950
        assert round(steps / sum(cells), 2) == 0.77


class TestSummedMask:
    def test_contains_R1_disc(self):
        grid = make_grid(8.0, 512)
        fam = build_frft_family(10.0, 40, grid)
        rep = coverage_radii(10.0, 40, 0.1)
        bits = fam.summed_on_lattice() > 0.1
        X, Y = np.meshgrid(grid.x, grid.y)
        inside = np.hypot(X, Y) <= rep.R1
        assert np.all(bits[inside])


class TestCoverageRadii:
    def test_reference_point_agrees_with_scan(self):
        rep = coverage_radii(10.0, 40, 0.1)
        assert abs(rep.covered_disc_radius_numeric - rep.R1) / rep.R1 < 1e-3

    def test_brute_force_lattice_membership(self):
        # independent oracle: direct membership test of ray points against
        # the N ellipse inequalities
        a, N, eps = 10.0, 40, 0.1
        rep = coverage_radii(a, N, eps)
        C = (2 / np.pi) * abs(np.log(np.sqrt(2) * eps))
        alphas = np.pi * np.arange(N) / N
        theta = np.linspace(0, 2 * np.pi, 3601)
        r_probe = rep.R1 * (1 - 1e-4)
        x = r_probe * np.cos(theta)
        y = r_probe * np.sin(theta)
        covered = np.zeros_like(theta, dtype=bool)
        for al in alphas:
            xr = x * np.cos(al) - y * np.sin(al)
            yr = x * np.sin(al) + y * np.cos(al)
            covered |= a * xr ** 2 + yr ** 2 / a < C
        assert covered.all()
        # beyond the numeric radius some direction must be uncovered; the
        # uncovered arcs open linearly (boundary kinks), so probe 1% out on
        # a dense angular grid
        theta = np.linspace(0, 2 * np.pi, 20001)
        r_probe = rep.covered_disc_radius_numeric * 1.01
        x = r_probe * np.cos(theta)
        y = r_probe * np.sin(theta)
        covered = np.zeros_like(theta, dtype=bool)
        for al in alphas:
            xr = x * np.cos(al) - y * np.sin(al)
            yr = x * np.sin(al) + y * np.cos(al)
            covered |= a * xr ** 2 + yr ** 2 / a < C
        assert not covered.all()

    def test_r1_exceeds_r2(self):
        for a in (2.0, 5.0, 20.0, 50.0):
            for N in (3, 8, 33, 64):
                rep = coverage_radii(a, N, 0.1)
                assert rep.R1 > rep.R2

    def test_near_isotropic_limit(self):
        rep = coverage_radii(1.0 + 1e-9, 12, 0.1)
        C = (2 / np.pi) * abs(np.log(np.sqrt(2) * 0.1))
        assert_allclose(rep.R1, np.sqrt(C), rtol=1e-6)
        assert_allclose(rep.R2, np.sqrt(C), rtol=1e-6)

    def test_area_fraction_in_unit_interval(self):
        rep = coverage_radii(10.0, 40, 0.1)
        assert 0.0 < rep.area_fraction <= 1.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            coverage_radii(0.5, 10, 0.1)
        with pytest.raises(ValueError):
            coverage_radii(10.0, 2, 0.1)
        with pytest.raises(ValueError):
            coverage_radii(10.0, 10, 0.9)
