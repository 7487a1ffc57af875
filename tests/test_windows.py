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
    stability_mask,
)
from oracles import peel_masks


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
        assert np.array_equal(mask.bits, R < r_expect)

    def test_hermite_annular_gap_count(self):
        grid = make_grid(8.0, 512)
        mask = stability_mask(HermiteAmbiguity(10), 0.1, grid)
        m0 = grid.L // 2
        profile = mask.bits[m0, m0:]
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
        assert not mask.bits.any()

    def test_epsilon_validation(self, grid256):
        with pytest.raises(ValueError):
            stability_mask(FrftGaussAmbiguity(1.0, 0.0), 0.0, grid256)
        with pytest.raises(ValueError):
            stability_mask(HermiteAmbiguity(2), 1.5, grid256)

    @pytest.mark.parametrize("eps_pair", [(0.05, 0.2), (0.1, 0.5)])
    def test_monotone_in_epsilon(self, grid256, eps_pair):
        lo, hi = eps_pair
        ev = HermiteAmbiguity(7)
        m_lo = stability_mask(ev, lo, grid256).bits
        m_hi = stability_mask(ev, hi, grid256).bits
        assert not (m_hi & ~m_lo).any()  # mask(hi) subset of mask(lo)


class TestPeeling:
    def test_single_member_equals_mask(self, grid256):
        fam = build_hermite_family([4], grid256)
        peeled = peel_masks(fam, 0.1)
        direct = stability_mask(HermiteAmbiguity(4), 0.1, grid256)
        assert np.array_equal(peeled[0].bits, direct.bits)

    def test_nested_set_algebra(self, grid256):
        fam = build_hermite_family([0, 6], grid256)
        peeled = peel_masks(fam, 0.1)
        m0 = stability_mask(HermiteAmbiguity(0), 0.1, grid256).bits
        m6 = stability_mask(HermiteAmbiguity(6), 0.1, grid256).bits
        assert np.array_equal(peeled[0].bits, m0)
        assert np.array_equal(peeled[1].bits, m6 & ~m0)

    def test_disjoint_and_union_exact(self, grid256):
        fam = build_hermite_family([0, 3, 9, 15], grid256)
        peeled = peel_masks(fam, 0.08)
        union = np.zeros_like(peeled[0].bits)
        for i, a in enumerate(peeled):
            for b in peeled[i + 1:]:
                assert not (a.bits & b.bits).any()
            union |= a.bits
        full = np.zeros_like(union)
        for m in fam.members:
            full |= stability_mask(m.evaluator, 0.08, grid256).bits
        assert np.array_equal(union, full)

    def test_high_degree_pair_fills_rings(self):
        # thresholds on the retrieval side arrive pre-scaled by dt; the
        # second window must claim ring cells the first one loses
        grid = make_grid(8.0, 512)
        eps = 0.5 * grid.dt
        fam = build_hermite_family([50, 100], grid)
        peeled = peel_masks(fam, eps)
        s50 = stability_mask(HermiteAmbiguity(50), eps, grid).bits
        s100 = stability_mask(HermiteAmbiguity(100), eps, grid).bits
        union = peeled[0].bits | peeled[1].bits
        assert peeled[1].bits.sum() > 0
        assert union.sum() > s50.sum()
        assert union.sum() > s100.sum()

    def test_union_beats_any_single_member(self, grid256):
        degrees = [0, 5, 10, 15, 20, 25]
        fam = build_hermite_family(degrees, grid256)
        peeled = peel_masks(fam, 0.1)
        union = np.zeros_like(peeled[0].bits)
        for m in peeled:
            union |= m.bits
        for n in degrees:
            single = stability_mask(HermiteAmbiguity(n), 0.1, grid256).bits
            assert union.sum() > single.sum()


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
