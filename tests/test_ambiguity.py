import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from specret import (
    FrftGaussAmbiguity,
    HermiteAmbiguity,
    Signal,
    WindowFamily,
    WindowMember,
    dilated_gauss_samples,
    eval_frft_gauss_ambiguity,
    eval_gauss_ambiguity,
    eval_hermite_ambiguity,
    frft_gauss_samples,
    hermite_samples,
    laguerre_function,
    make_grid,
    numeric_ambiguity,
)
from specret import ambiguity
from specret.ambiguity import PRODUCT_ROWS, hermite_lattices, product_blocks
from specret.stft import stft_power
from oracles import (
    gathered_product,
    product_band,
    stft_coeffs,
    whole_ambiguity,
    xy_phase,
)
from specret.windows import LATTICE_FLOOR
from conftest import ANGLES, DEGREE_SETS, DILATIONS, EPSILONS, FLOORS, GRIDS


class TestClosedForms:
    def test_gauss_peak(self):
        assert_allclose(eval_gauss_ambiguity(1.0, 0.0, 0.0), 2 ** -0.5, rtol=1e-15)

    def test_gauss_axis_swap_symmetry(self, rng):
        pts = rng.uniform(-3, 3, size=(50, 2))
        for x, y in pts:
            assert_allclose(eval_gauss_ambiguity(2.0, x, y),
                            eval_gauss_ambiguity(0.5, y, x), rtol=1e-13)

    def test_frft_zero_angle_matches_gauss(self, rng):
        pts = rng.uniform(-4, 4, size=(30, 2))
        for x, y in pts:
            assert eval_frft_gauss_ambiguity(3.0, 0.0, x, y) == eval_gauss_ambiguity(3.0, x, y)

    def test_frft_quarter_turn(self, rng):
        pts = rng.uniform(-4, 4, size=(30, 2))
        for x, y in pts:
            assert_allclose(eval_frft_gauss_ambiguity(3.0, np.pi / 2, x, y),
                            eval_gauss_ambiguity(3.0, -y, x), rtol=1e-12, atol=1e-300)

    def test_hermite_unit_peak(self):
        for n in (0, 1, 7, 40):
            assert_allclose(eval_hermite_ambiguity(n, 0.0, 0.0), 1.0, rtol=1e-14)

    def test_hermite_rotation_invariance(self, rng):
        for _ in range(25):
            x, y = rng.uniform(-4, 4, size=2)
            phi = rng.uniform(0, 2 * np.pi)
            xr = x * np.cos(phi) - y * np.sin(phi)
            yr = x * np.sin(phi) + y * np.cos(phi)
            assert_allclose(eval_hermite_ambiguity(6, x, y),
                            eval_hermite_ambiguity(6, xr, yr), rtol=1e-9, atol=1e-12)


class TestNumericAmbiguity:
    def test_gauss_peak_value(self, grid256):
        amb = numeric_ambiguity(dilated_gauss_samples(1.0, grid256), grid256)
        k0 = grid256.L // 2
        assert_allclose(amb.values[k0, k0], 2 ** -0.5, atol=1e-8)

    def test_maximum_at_origin(self, grid256):
        for g in (dilated_gauss_samples(2.0, grid256), hermite_samples(3, grid256)):
            amb = numeric_ambiguity(g, grid256)
            m, k = np.unravel_index(np.argmax(np.abs(amb.values)), amb.values.shape)
            assert (m, k) == (grid256.L // 2, grid256.L // 2)

    def test_requires_square_lattice(self):
        # a window sampled on every other time point would give an L/2 x L table
        grid = make_grid(8.0, 256)
        with pytest.raises(ValueError):
            numeric_ambiguity(dilated_gauss_samples(1.0, grid)[::2], grid)

    def test_matches_gauss_closed_form(self):
        grid = make_grid(8.0, 512)
        amb = numeric_ambiguity(dilated_gauss_samples(10.0, grid), grid)
        closed = FrftGaussAmbiguity(10.0, 0.0).on_lattice(grid)
        assert np.max(np.abs(amb.values - closed)) < 1e-6

    def test_matches_frft_closed_form(self):
        grid = make_grid(8.0, 1024)
        g = frft_gauss_samples(15.0, np.pi / 5, grid)
        amb = numeric_ambiguity(g, grid)
        X, Y = np.meshgrid(grid.x, grid.y)
        closed = eval_frft_gauss_ambiguity(15.0, np.pi / 5, X, Y)
        assert np.max(np.abs(amb.values - closed)) < 1e-5

    def test_matches_hermite_closed_form(self):
        grid = make_grid(8.0, 512)
        amb = numeric_ambiguity(hermite_samples(5, grid), grid)
        closed = HermiteAmbiguity(5).on_lattice(grid)
        assert np.max(np.abs(amb.values - closed)) < 1e-6

    def test_hermite_root_circles(self):
        # radial zero crossings must sit at the Laguerre roots of L_3
        grid = make_grid(8.0, 512)
        amb = numeric_ambiguity(hermite_samples(3, grid), grid)
        m0 = grid.L // 2
        profile = np.real(amb.values[m0, m0:])
        radii = grid.x[m0:]
        crossings = radii[np.flatnonzero(np.sign(profile[1:]) * np.sign(profile[:-1]) < 0)]
        # oracle: roots of the explicit cubic L_3(z) = 1 - 3z + 1.5z^2 - z^3/6
        roots = np.sort(np.roots([-1.0 / 6, 1.5, -3.0, 1.0]))
        expected = np.sqrt(roots / np.pi)
        assert len(crossings) >= 3
        for want in expected:
            assert np.min(np.abs(crossings - want)) < grid.dt


class TestBlockedNumericAmbiguity:
    """`numeric_ambiguity` by blocks of shift rows against the whole phase
    table times the whole coefficient matrix."""

    @pytest.mark.parametrize("blocks", ["default", "l1024"])
    @pytest.mark.parametrize("T", [8.0, 1.3])
    @pytest.mark.parametrize("L", [2, 6, 250, 256])
    def test_matches_whole_table_product(self, request, rng, L, T, blocks):
        if blocks == "l1024":  # 8-row blocks, which do not divide 250
            request.getfixturevalue("l1024_blocks")
        grid = make_grid(T, L)
        for g in (dilated_gauss_samples(1.0, grid),
                  rng.standard_normal(L) + 1j * rng.standard_normal(L)):
            got = numeric_ambiguity(g, grid).values
            assert got.flags.c_contiguous
            assert np.array_equal(got, whole_ambiguity(g, grid))

    def test_peak_memory_in_blocks(self, l1024_blocks):
        # the C-ordered output, 16 L^2 bytes, and one block of coefficients,
        # phases and phase indices; the whole-table product also held the
        # coefficients, the index table and the phase table (40 L^2)
        grid = make_grid(8.0, 256)
        g = dilated_gauss_samples(1.0, grid)
        numeric_ambiguity(g, grid)  # FFT plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            numeric_ambiguity(g, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20 * grid.L * grid.L


class TestSpectrogramToProduct:
    def test_gauss_product_closed_form(self):
        grid = make_grid(8.0, 256)
        g = dilated_gauss_samples(1.0, grid)
        f = Signal(grid=grid, values=g.astype(complex))
        G = product_band(stft_power(f, g), grid, (0, grid.L))
        X, Y = np.meshgrid(grid.x, grid.y)
        closed = 0.5 * np.exp(-np.pi * (X ** 2 + Y ** 2))
        assert np.max(np.abs(G - closed)) < 1e-6

    def test_dc_bin_is_total_energy(self, grid256, rng):
        from conftest import random_signal
        f = random_signal(grid256, rng)
        g = dilated_gauss_samples(1.0, grid256)
        mea = stft_power(f, g)
        G = product_band(mea, grid256, (0, grid256.L))
        k0 = grid256.L // 2
        total = grid256.dt * grid256.dy * mea.sum()
        assert_allclose(G[k0, k0], total, rtol=1e-12)

    def test_conjugate_symmetry(self, grid256, rng):
        from conftest import random_signal
        f = random_signal(grid256, rng)
        mea = stft_power(f, dilated_gauss_samples(1.0, grid256))
        G = product_band(mea, grid256, (0, grid256.L))
        L = grid256.L
        flipped = np.conj(G[(-np.arange(L)) % L][:, (-np.arange(L)) % L])
        assert np.max(np.abs(G - flipped)) < 1e-10 * np.max(np.abs(G))

    def test_pointwise_division_recovers_signal_ambiguity(self):
        # on the region where |A g| > 0.1 the ratio reproduces A f
        grid = make_grid(8.0, 512)
        g = dilated_gauss_samples(1.0, grid)
        f_samples = dilated_gauss_samples(2.0, grid)
        f = Signal(grid=grid, values=f_samples.astype(complex))
        G = product_band(stft_power(f, g), grid, (0, grid.L))
        Ag = FrftGaussAmbiguity(1.0, 0.0).on_lattice(grid)
        Af = FrftGaussAmbiguity(2.0, 0.0).on_lattice(grid)
        region = np.abs(Ag) > 0.1
        ratio = G[region] / np.conj(Ag[region])
        rel = np.abs(ratio - Af[region]) / np.abs(Af[region])
        assert np.max(rel) < 1e-4


    def test_requires_square_lattice(self, rng):
        # keeping every other shift row gives the L/2 x L spectrogram of hop 2
        from conftest import random_signal
        grid = make_grid(8.0, 256)
        f = random_signal(grid, rng)
        power = stft_power(f, dilated_gauss_samples(1.0, grid))
        with pytest.raises(ValueError):
            product_band(power[::2], grid, (0, grid.L))


def two_pass_product(mea, grid):
    """The spectrogram -> product map as two full complex passes: modulate
    by (-1)^(m+k), inverse FFT along m, forward FFT along k, transpose,
    modulate and scale; the half-plane kernel's oracle."""
    L = grid.L
    sgn = (-1.0) ** np.arange(L)
    Q = np.multiply(mea, sgn[:, None], dtype=np.complex128)
    Q *= sgn[None, :]
    np.fft.ifft(Q, axis=0, out=Q)
    Q *= L
    np.fft.fft(Q, axis=1, out=Q)
    G = np.multiply(Q.T, sgn[:, None], order="C")
    G *= sgn[None, :]
    G *= grid.dt * grid.dy
    return G


class TestHalfPlaneProduct:
    @pytest.fixture(params=[(8.0, 8), (1.3, 10), (8.0, 64)], ids=lambda p: f"L{p[1]}")
    def powers(self, request, rng):
        from conftest import random_signal
        grid = make_grid(*request.param)
        f = random_signal(grid, rng)
        power = stft_power(f, dilated_gauss_samples(1.0, grid))
        assert power.flags.f_contiguous
        return grid, [power, np.ascontiguousarray(power)]

    def test_matches_two_pass_transform(self, powers):
        grid, powers = powers
        for mea in powers:
            want = two_pass_product(mea, grid)
            got = product_band(mea, grid, (0, grid.L))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_every_band_has_the_full_rows(self, powers):
        grid, powers = powers
        for mea in powers:
            L = grid.L
            full = product_band(mea, grid, (0, L))
            for r0 in range(L):
                for r1 in range(r0 + 1, L + 1):
                    band = product_band(mea, grid, (r0, r1))
                    assert band.shape == (r1 - r0, L)
                    assert np.array_equal(band, full[r0:r1])

    def test_exact_hermitian_symmetry(self, powers):
        grid, powers = powers
        for mea in powers:
            G = product_band(mea, grid, (0, grid.L))
            flip = (-np.arange(grid.L)) % grid.L
            assert np.array_equal(G, np.conj(G[flip][:, flip]))


class TestProductBlocks:
    """The block read-out against the whole-band gather it replaced."""

    @pytest.fixture(params=[(8.0, 256), (1.3, 250)], ids=["L256", "L250"])
    def mea(self, request, rng):
        from conftest import random_signal
        grid = make_grid(*request.param)
        f = random_signal(grid, rng)
        return stft_power(f, dilated_gauss_samples(1.0, grid)), grid

    # a stop of 0 or below counts from L; L/2 is 125 or 128
    @pytest.mark.parametrize("rows", [(0, 0), (60, 70), (63, 65), (100, 200), (120, 131),
                                      (124, 126), (125, 127), (128, 130), (1, -1), (190, 0)])
    def test_bands_across_block_edges(self, mea, rows):
        mea, grid = mea
        L = grid.L
        r0, r1 = rows[0], rows[1] if rows[1] > 0 else L + rows[1]
        full = product_band(mea, grid, (0, L))
        want = gathered_product(mea, grid, (r0, r1))
        got = np.empty_like(want)
        nxt = r0
        for m0, block in product_blocks(mea, grid, (r0, r1)):
            assert m0 == nxt and 0 < len(block) <= PRODUCT_ROWS
            got[m0 - r0:m0 - r0 + len(block)] = block
            nxt = m0 + len(block)
        assert nxt == r1
        assert np.array_equal(got, want)
        assert np.array_equal(got, full[r0:r1])
        assert np.array_equal(product_band(mea, grid, (r0, r1)), want)

    def test_no_rows_transform_nothing(self, mea, monkeypatch):
        monkeypatch.setattr(np.fft, "rfft", None)  # a transform would fail
        assert list(product_blocks(*mea, None)) == []


class TestEvaluatorObjects:
    def test_summed_matches_parts(self, grid256):
        parts = [FrftGaussAmbiguity(2.0, 0.0), HermiteAmbiguity(3)]
        family = WindowFamily(
            members=[WindowMember(window_id=repr(p), samples=np.zeros(grid256.L), evaluator=p)
                     for p in parts],
            grid=grid256,
        )
        lattice = family.summed_on_lattice()
        assert_allclose(lattice, parts[0].on_lattice(grid256) + parts[1].on_lattice(grid256),
                        rtol=0, atol=0)

    @pytest.mark.parametrize("T, L", [(1.3, 250), (8.0, 256)])
    def test_summed_fan_is_the_member_order_sum(self, T, L):
        grid = make_grid(T, L)
        parts = [FrftGaussAmbiguity(15.0, alpha) for alpha in np.pi * np.arange(8) / 8]
        family = WindowFamily(
            members=[WindowMember(window_id=repr(p), samples=np.zeros(L), evaluator=p)
                     for p in parts],
            grid=grid,
        )
        want = parts[0].on_lattice(grid)
        for p in parts[1:]:
            want = want + p.on_lattice(grid)
        assert np.array_equal(family.summed_on_lattice(), want)

    def test_hermite_lattice_fast_path_matches_meshgrid(self, grid256):
        ev = HermiteAmbiguity(12)
        X, Y = np.meshgrid(grid256.x, grid256.y)
        assert_allclose(ev.on_lattice(grid256), ev(X, Y), rtol=1e-12, atol=1e-300)


class TestGaussLattice:
    """The rotated-form `FrftGaussAmbiguity.on_lattice` against the closed
    form evaluated on a meshgrid."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 15.0])
    @pytest.mark.parametrize("alpha", [0.0, np.pi / 7, np.pi / 2, 3 * np.pi / 4])
    @pytest.mark.parametrize("T, L", [(1.3, 250), (8.0, 256)])
    def test_matches_meshgrid(self, a, alpha, T, L):
        grid = make_grid(T, L)
        X, Y = np.meshgrid(grid.x, grid.y)
        want = eval_frft_gauss_ambiguity(a, alpha, X, Y)
        got = FrftGaussAmbiguity(a, alpha).on_lattice(grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", [1e8, 1e12, 1e16])
    def test_large_dilation_has_no_cancellation(self, a):
        # an expanded quadratic form A x^2 + 2B xy + C y^2 cancels terms of
        # size a here; the rotated form does not
        grid = make_grid(8.0, 64)
        X, Y = np.meshgrid(grid.x, grid.y)
        for alpha in np.pi * np.arange(8) / 8:
            want = eval_frft_gauss_ambiguity(a, alpha, X, Y)
            got = FrftGaussAmbiguity(a, alpha).on_lattice(grid)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_nonpositive_dilation(self, grid256):
        with pytest.raises(ValueError):
            FrftGaussAmbiguity(0.0, 0.3).on_lattice(grid256)

    @pytest.mark.parametrize("T, L", [(1.3, 250), (8.0, 256)])
    def test_full_lattice_adds_into_out(self, T, L, rng):
        # floor 0: every row spans [0, L), and the values are added into out
        grid = make_grid(T, L)
        ev = FrftGaussAmbiguity(15.0, np.pi / 7)
        buf = rng.standard_normal((L, L))
        want = buf + ev.on_lattice(grid)
        assert ev.on_lattice(grid, out=buf) is buf
        assert np.array_equal(buf, want)


class TestFlooredGaussLattice:
    """`on_lattice` with a floor against the full lattice it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(a=DILATIONS, alpha=ANGLES, epsilon=EPSILONS, shape=GRIDS)
    def test_spans_hold_every_cell_above_floor(self, a, alpha, epsilon, shape):
        grid = make_grid(*shape)
        floor = LATTICE_FLOOR * epsilon * grid.dt  # a plan's floor at this tolerance
        ev = FrftGaussAmbiguity(a, alpha)
        full = ev.on_lattice(grid)
        lo, hi = ev.row_spans(grid, floor)
        cols = np.arange(grid.L)
        inside = (cols >= lo[:, None]) & (cols < hi[:, None])
        assert not (full > floor)[~inside].any()
        # evaluated cells carry the full lattice's bits, the rest stay 0
        part = ev.on_lattice(grid, floor)
        assert np.array_equal(part[inside], full[inside])
        assert ((part == full) | (part == 0)).all()
        into = np.ones((grid.L, grid.L))
        assert ev.on_lattice(grid, floor, out=into) is into
        assert np.array_equal(into, 1.0 + part)

    def test_floor_above_peak_evaluates_nothing(self, grid256):
        ev = FrftGaussAmbiguity(15.0, 0.3)
        lo, hi = ev.row_spans(grid256, 1.0)
        assert (lo >= hi).all()
        assert not ev.on_lattice(grid256, 1.0).any()


class TestPhaseTable:
    @pytest.mark.parametrize("T, L", [(1.3, 250), (8.0, 256)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_direct_exp(self, T, L, sign):
        grid = make_grid(T, L)
        want = np.exp(sign * 1j * np.pi * grid.x[None, :] * grid.y[:, None])
        assert_allclose(xy_phase(grid, sign), want, rtol=0, atol=1e-12)


class TestHermiteQuadrant:
    """The quadrant-and-mirror `on_lattice` against the recurrence run on
    every lattice cell."""

    @staticmethod
    def full_lattice(n, grid):
        return laguerre_function(n, np.pi * (grid.y[:, None] ** 2 + grid.x[None, :] ** 2))

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_exact_on_dyadic_grid(self, n):
        grid = make_grid(8.0, 256)  # x and y are exact multiples of powers of two
        assert np.array_equal(HermiteAmbiguity(n).on_lattice(grid), self.full_lattice(n, grid))

    @pytest.mark.parametrize("n", [0, 3, 40])
    def test_close_on_non_dyadic_grid(self, n):
        grid = make_grid(1.3, 250)  # grid.t is not exactly antisymmetric here
        assert not np.array_equal(grid.t[1:], -grid.t[:0:-1])
        full = self.full_lattice(n, grid)
        quad = HermiteAmbiguity(n).on_lattice(grid)
        assert np.max(np.abs(quad - full)) <= 1e-12 * np.max(np.abs(full))

    def test_unpaired_edge_row_and_column(self):
        # x = -T and y = -Nyquist have no mirror partner on the lattice
        grid = make_grid(8.0, 64)
        quad = HermiteAmbiguity(5).on_lattice(grid)
        full = self.full_lattice(5, grid)
        assert np.array_equal(quad[0], full[0]) and np.array_equal(quad[:, 0], full[:, 0])
        assert quad[0, 0] != quad[0, -1]


class TestCroppedHermiteLattices:
    """`hermite_lattices` with a floor against the full lattices of
    `HermiteAmbiguity.on_lattice`."""

    @settings(max_examples=60, deadline=None)
    @given(degrees=DEGREE_SETS, floor=FLOORS, shape=GRIDS)
    def test_skipped_rows_hold_nothing_above_floor(self, degrees, floor, shape):
        grid = make_grid(*shape)
        for n, part in zip(degrees, hermite_lattices(degrees, grid, floor), strict=True):
            full = HermiteAmbiguity(n).on_lattice(grid)
            same = (part == full).all(axis=1)
            assert not part[~same].any()
            assert (np.abs(full[~same]) <= floor).all()

    def test_w2_cell_steps(self, monkeypatch):
        # W2's plan: degrees [50, 100] at T = 8, L = 1024, floor at eps = 0.5;
        # two full-quadrant runs took (50 + 100) * 513^2 = 39.5M cell steps
        steps = []
        original = ambiguity.laguerre_ladder
        monkeypatch.setattr(ambiguity, "laguerre_ladder", lambda degrees, z:
                            steps.append(max(degrees) * np.size(z)) or original(degrees, z))
        grid = make_grid(8.0, 1024)
        lattices = list(hermite_lattices([50, 100], grid, LATTICE_FLOOR * 0.5 * grid.dt))
        assert sum(steps) <= 12e6
        # 225 of the 513 quadrant rows, mirrored
        assert [lat.any(axis=1).sum() for lat in lattices] == [2 * 225 - 1] * 2
