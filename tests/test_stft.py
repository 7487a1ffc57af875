import numpy as np
import pytest
from numpy.testing import assert_allclose

from specret import (
    GridMismatchError,
    Signal,
    add_noise,
    chirp_preset,
    dilated_gauss_samples,
    gen_chirp,
    hermite_samples,
    make_grid,
)
from specret import ambiguity, stft
from specret.stft import draw_noise, stft_power
from oracles import power_of, stft_coeffs, stft_energy
from conftest import random_signal


def direct_stft(f, g, grid):
    """Oracle: direct summation of the defining coefficient formula via an
    explicit exponential matrix (no FFT factorization)."""
    L = grid.L
    E = np.exp(-2j * np.pi * np.outer(grid.y, grid.t))  # (L, L)
    out = np.empty((L, L), dtype=complex)
    l = np.arange(L)
    for k in range(L):
        prod = f.values * np.conj(g[(l - k + L // 2) % L])
        out[:, k] = grid.dt * (E @ prod)
    return out


class TestForwardStft:
    def test_zero_signal(self, grid256):
        f = Signal(grid=grid256, values=np.zeros(grid256.L))
        g = dilated_gauss_samples(1.0, grid256)
        c = stft_coeffs(f, g)
        assert not c.values.any()

    def test_matches_direct_summation_random(self, rng):
        grid = make_grid(2.0, 32)
        f = random_signal(grid, rng, localized=False)
        g = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        got = stft_coeffs(f, g).values
        want = direct_stft(f, g, grid)
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_matches_direct_summation_gauss(self):
        grid = make_grid(8.0, 256)
        g = dilated_gauss_samples(1.0, grid)
        f = Signal(grid=grid, values=g.astype(complex))
        got = stft_coeffs(f, g).values
        want = direct_stft(f, g, grid)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-10 * scale

    def test_linearity(self, grid256, rng):
        f1 = random_signal(grid256, rng)
        f2 = random_signal(grid256, rng)
        g = dilated_gauss_samples(2.0, grid256)
        both = Signal(grid=grid256, values=f1.values + f2.values)
        lhs = stft_coeffs(both, g).values
        rhs = stft_coeffs(f1, g).values + stft_coeffs(f2, g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_shift_covariance_on_torus(self, grid256, rng):
        f = random_signal(grid256, rng, localized=False)
        g = dilated_gauss_samples(1.0, grid256)
        s = 17
        shifted = Signal(grid=grid256, values=np.roll(f.values, s))
        a = np.abs(stft_coeffs(shifted, g).values)
        b = np.abs(stft_coeffs(f, g).values)
        assert_allclose(a, np.roll(b, s, axis=1), rtol=0, atol=1e-10 * b.max())

    def test_grid_mismatch_rejected(self, grid256, grid512, rng):
        f = random_signal(grid256, rng)
        with pytest.raises(GridMismatchError):
            stft_coeffs(f, dilated_gauss_samples(1.0, grid512))


def gather_stft(f, g, grid):
    """Oracle: the index-gather construction the slice-built `stft_blocks`
    replaced; an L x L index array picks conj(g) at (l - k + L/2) mod L and
    the FFT runs along the strided l axis."""
    L = grid.L
    l = np.arange(L)
    sgn = (-1.0) ** l
    idx = (l[:, None] - l[None, :] + L // 2) % L
    out = np.fft.fft((f.values * sgn)[:, None] * np.conj(g.astype(complex))[idx], axis=0)
    out *= grid.dt * (-1j) ** (L % 4)
    out *= sgn[:, None]
    return out


class TestSliceConstruction:
    """The sliding-window-view `stft_blocks` against the index gather."""

    @pytest.mark.parametrize("T, L", [(2.0, 32), (1.3, 250), (8.0, 256)])
    def test_matches_index_gather(self, rng, T, L):
        grid = make_grid(T, L)
        f = random_signal(grid, rng, localized=False)
        g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        want = gather_stft(f, g, grid)
        got = stft_coeffs(f, g).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_every_column_uses_its_own_shift(self, rng):
        # a window with a single nonzero sample makes each column one
        # shifted copy of the signal, so a row off by one lands elsewhere
        grid = make_grid(2.0, 32)
        f = random_signal(grid, rng, localized=False)
        for j in (0, 1, 15, 16, 17, 31):
            g = np.zeros(grid.L, dtype=complex)
            g[j] = 1.0
            assert_allclose(stft_coeffs(f, g).values, gather_stft(f, g, grid),
                            rtol=0, atol=1e-13 * np.max(np.abs(f.values)))

    def test_power_is_c_ordered(self, grid256, rng):
        c = stft_coeffs(random_signal(grid256, rng), dilated_gauss_samples(1.0, grid256))
        assert c.values.flags.c_contiguous
        assert power_of(c).flags.c_contiguous


def output_scaled_stft(f, g, grid):
    """Oracle: the time-domain construction, the signal times the slices
    of the doubled conjugate window transformed along l, with dt *
    exp(-i*pi*L/2) and the sign (-1)^m applied in one pass over the FFT's
    output."""
    L = grid.L
    h = L // 2
    sgn = (-1.0) ** np.arange(L)
    base = f.values * sgn
    gc = np.conj(g.astype(complex))
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([gc, gc]), L)
    prod = np.empty((L, L), dtype=complex)
    np.multiply(rows[h::-1], base, out=prod[:h + 1])
    np.multiply(rows[L - 1:h:-1], base, out=prod[h + 1:])
    out = np.fft.fft(prod, axis=1)
    out *= (grid.dt * (-1j) ** (L % 4)) * sgn
    return out.T


def output_scaled_spectral_stft(f, g, grid):
    """Oracle: the frequency-row construction with no sign or scale folded
    in: row m is the inverse FFT of F[(q + m - L/2) mod L] * conj(G[q]) *
    (-1)^q, gathered by an L x L index table, and dt * (-1)^(m - L/2) is
    applied in one pass over the inverse FFT's output."""
    L = grid.L
    h = L // 2
    q = np.arange(L)
    spectrum = np.fft.fft(f.values)[(q[None, :] + q[:, None] - h) % L]
    out = np.fft.ifft(np.multiply(np.conj(np.fft.fft(g)) * (-1.0) ** q, spectrum), axis=1)
    out *= (grid.dt * (-1.0) ** (q - h))[:, None]
    return out


class TestFoldedSign:
    """The signs (-1)^m and (-1)^q folded into the doubled spectrum, and the
    scale on the window's spectrum."""

    def windows(self, grid, rng):
        return (dilated_gauss_samples(1.0, grid), hermite_samples(5, grid),
                rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L))

    @pytest.mark.parametrize("L", [32, 250, 1024])
    def test_power_bits_on_dyadic_step(self, rng, L):
        # T = L / 128 gives dt = 2^-6, where the scale is exact anywhere
        grid = make_grid(L / 128, L)
        f = random_signal(grid, rng, localized=False)
        for g in self.windows(grid, rng):
            want = np.abs(output_scaled_spectral_stft(f, g, grid)) ** 2
            assert np.array_equal(stft_power(f, g), want)

    @pytest.mark.parametrize("T, L", [(1.3, 250), (6.0, 512)])
    def test_within_rounding_on_other_steps(self, rng, T, L):
        grid = make_grid(T, L)
        f = random_signal(grid, rng, localized=False)
        for g in self.windows(grid, rng):
            want = output_scaled_stft(f, g, grid)
            got = stft_coeffs(f, g).values
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 16 * np.finfo(float).eps


class TestBlockedPower:
    """`stft_power` against the power of the whole coefficient matrix."""

    @pytest.mark.parametrize("rows", [None, 7], ids=["default-blocks", "7-row-blocks"])
    @pytest.mark.parametrize("T", [8.0, 5.0])
    @pytest.mark.parametrize("L", [2, 6, 96, 160, 256])
    def test_matches_whole_transform(self, monkeypatch, rng, L, T, rows):
        if rows is not None:  # blocks that do not divide L
            monkeypatch.setattr(stft, "POWER_BLOCK_BYTES", rows * 16 * L)
        grid = make_grid(T, L)
        f = random_signal(grid, rng, localized=False)
        for g in (dilated_gauss_samples(1.0, grid),
                  rng.standard_normal(L) + 1j * rng.standard_normal(L)):
            want = power_of(stft_coeffs(f, g))
            got = stft_power(f, g)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_grid_mismatch_rejected(self, grid256, grid512, rng):
        f = random_signal(grid256, rng)
        with pytest.raises(GridMismatchError):
            stft_power(f, dilated_gauss_samples(1.0, grid512))


class TestIsometry:
    @pytest.mark.parametrize("window", ["gauss", "hermite5"])
    def test_energy_identity(self, window):
        grid = make_grid(8.0, 1024)
        f = gen_chirp(chirp_preset(), grid)
        g = dilated_gauss_samples(1.0, grid) if window == "gauss" else hermite_samples(5, grid)
        c = stft_coeffs(f, g)
        nf = grid.dt * np.sum(np.abs(f.values) ** 2)
        ng = grid.dt * np.sum(np.abs(g) ** 2)
        assert_allclose(stft_energy(c), nf * ng, rtol=1e-6)


class TestMeasurement:
    def test_power_is_squared_magnitude(self, grid256, rng):
        f = random_signal(grid256, rng)
        c = stft_coeffs(f, dilated_gauss_samples(1.0, grid256))
        mea = stft_power(f, dilated_gauss_samples(1.0, grid256))
        assert_allclose(mea, np.abs(c.values) ** 2, rtol=0, atol=0)

    def test_global_phase_invariance_exact(self, grid256, rng):
        # multiplication by i is an exact re/im permutation, so the
        # measurement must agree bit for bit; generic phases agree to
        # rounding
        f = random_signal(grid256, rng)
        g = dilated_gauss_samples(1.0, grid256)
        base = stft_power(f, g)
        for phase in (1j, -1.0):
            rot = Signal(grid=grid256, values=phase * f.values)
            power = stft_power(rot, g)
            assert np.array_equal(power, base)
        rot = Signal(grid=grid256, values=np.exp(0.37j) * f.values)
        power = stft_power(rot, g)
        assert_allclose(power, base, rtol=1e-11, atol=1e-13 * base.max())


class TestNoise:
    def _measurement(self, grid, rng):
        f = random_signal(grid, rng, localized=False)
        return stft_power(f, dilated_gauss_samples(1.0, grid))

    def test_zero_level_is_identity(self, grid256, rng):
        mea = self._measurement(grid256, rng)
        noisy = add_noise(mea, "additive", 0.0, seed=5)
        assert np.array_equal(noisy, mea)
        noisy = add_noise(mea, "multiplicative", 0.0, seed=5)
        assert np.array_equal(noisy, mea)

    def test_deterministic_given_seed(self, grid256, rng):
        mea = self._measurement(grid256, rng)
        a = add_noise(mea, "additive", 0.1, seed=42)
        b = add_noise(mea, "additive", 0.1, seed=42)
        assert np.array_equal(a, b)
        c = add_noise(mea, "additive", 0.1, seed=43)
        assert not np.array_equal(a, c)

    def test_multiplicative_mean_ratio(self, rng):
        # E[(1 + N(0, s^2))^2] = 1 + s^2 = 1.0025 at s = 0.05
        grid = make_grid(8.0, 512)
        mea = self._measurement(grid, rng)
        noisy = add_noise(mea, "multiplicative", 0.05, seed=7)
        keep = mea > 1e-6
        assert keep.sum() >= 100_000
        ratio = float(np.mean(noisy[keep] / mea[keep]))
        assert 1.0 <= ratio <= 1.006

    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    def test_noisy_power_keeps_clean_layout_and_draws(self, grid256, rng, model):
        # cell [m, k] gets the C-ordered draw m*L + k, whatever the layout
        mea = np.asfortranarray(self._measurement(grid256, rng))
        noisy = add_noise(mea, model, 0.1, seed=3)
        assert noisy.flags.f_contiguous
        eta = np.random.default_rng(3).standard_normal(mea.shape) * 0.1
        want = eta + mea if model == "additive" else np.square(eta + 1.0) * mea
        assert np.array_equal(noisy, want)
        c_ordered = np.ascontiguousarray(mea)
        noisy = add_noise(c_ordered, model, 0.1, seed=3)
        assert noisy.flags.c_contiguous
        assert np.array_equal(noisy, want)

    @pytest.mark.parametrize("model", ["additive", "multiplicative"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [7, 64])
    def test_kernel_writes_add_noises_bits_in_place(self, rng, model, order, rows):
        # the kernel a block of `rows` rows at a time from one generator, the
        # last block short at L = 250, into one C-ordered buffer: the noisy
        # blocks are add_noise's rows, and noisy - clean its noise; the clean
        # rows, in either layout, are only read
        mea = np.asarray(self._measurement(make_grid(8.0, 250), rng), order=order)
        want = add_noise(mea, model, 0.1, seed=3)
        clean = mea.copy(order="K")
        gen, out = np.random.default_rng(3), np.empty((rows, 250))
        noisy, noise = [], []
        for m0 in range(0, 250, rows):
            block = draw_noise(gen, clean[m0:m0 + rows], model, 0.1, out[:len(clean[m0:m0 + rows])])
            assert np.shares_memory(block, out)
            noisy.append(block.copy())
            noise.append(block - clean[m0:m0 + rows])
        assert [len(eta) for eta in noise] == [rows] * (250 // rows) + [250 % rows]
        assert np.array_equal(np.concatenate(noisy), want)
        assert np.array_equal(np.concatenate(noise), want - mea)
        assert np.array_equal(clean, mea) and clean.flags.f_contiguous == (order == "F")

    def test_streams_sharing_work_buffers_keep_their_bits(self, grid256, rng):
        # two windows advanced in turn through one work buffer, each from its
        # own generator, as one side of a group's stream advances its members
        mea = [self._measurement(grid256, rng) for _ in range(2)]
        want = [add_noise(p, "multiplicative", 0.05, seed=j) for j, p in enumerate(mea)]
        gens, work = [np.random.default_rng(j) for j in range(2)], np.empty((32, 256))
        got = [np.empty_like(p) for p in mea]
        for m0 in range(0, 256, 32):
            for gen, p, q in zip(gens, mea, got):
                q[m0:m0 + 32] = draw_noise(gen, p[m0:m0 + 32], "multiplicative", 0.05, work)
        assert all(np.array_equal(p, q) for p, q in zip(got, want))

    def test_rejects_bad_arguments(self, grid256, rng):
        mea = self._measurement(grid256, rng)
        with pytest.raises(ValueError):
            add_noise(mea, "additive", -0.1, seed=0)
        with pytest.raises(ValueError):
            add_noise(mea, "uniform", 0.1, seed=0)
