import numpy as np
import pytest
from numpy.testing import assert_allclose

from specret import (
    ChirpSpec,
    MixtureSpec,
    Signal,
    chirp_preset,
    dilated_gauss_samples,
    gen_chirp,
    gen_mixture,
    make_grid,
    mixture_preset,
    numeric_ambiguity,
)


class TestGrid:
    def test_reference_lattice(self):
        grid = make_grid(8.0, 1024)
        assert grid.dt == 1 / 64
        assert grid.x.shape == grid.y.shape == (1024,)
        assert_allclose(grid.t[0], -8.0)
        assert_allclose(grid.y[0], -32.0)

    def test_small_frequency_lattice(self):
        # dt = 2T/L = 1/2, so y_m = (1/dt)(-1/2 + m/L) = (-1, -1/2, 0, 1/2)
        grid = make_grid(1.0, 4)
        assert grid.dt == 0.5
        assert_allclose(grid.y, [-1.0, -0.5, 0.0, 0.5])

    def test_length_must_be_even(self):
        with pytest.raises(ValueError):
            make_grid(8.0, 1001)

    def test_square_contract(self):
        # shifts advance one sample and there are L frequency bins
        grid = make_grid(8.0, 64)
        assert grid.x is grid.t
        assert grid.y.shape == (64,)
        assert_allclose(grid.dy * grid.dt * grid.L, 1.0, rtol=1e-15)

    def test_signal_validation(self):
        grid = make_grid(8.0, 64)
        with pytest.raises(ValueError):
            Signal(grid=grid, values=np.zeros(63))
        with pytest.raises(ValueError):
            Signal(grid=grid, values=np.full(64, np.nan))

    def test_signal_norm(self):
        grid = make_grid(8.0, 512)
        f = Signal(grid=grid, values=dilated_gauss_samples(1.0, grid).astype(complex))
        norm = np.sqrt(grid.dt * np.sum(np.abs(f.values) ** 2))
        assert_allclose(norm, 2 ** -0.25, atol=1e-10)


class TestChirp:
    def test_zero_amplitude(self, grid512):
        f = gen_chirp(ChirpSpec(amplitude=0.0), grid512)
        assert not f.values.any()

    def test_rejects_super_nyquist(self):
        grid = make_grid(8.0, 256)  # Nyquist 8
        with pytest.raises(ValueError):
            gen_chirp(ChirpSpec(f_end=9.0), grid)

    def test_deterministic(self, grid512):
        a = gen_chirp(chirp_preset(), grid512)
        b = gen_chirp(chirp_preset(), grid512)
        assert np.array_equal(a.values, b.values)

    def test_preset_ambiguity_concentration(self):
        # oracle: numeric ambiguity of the generated signal; the support is
        # an elongated slanted ridge with >99% of its energy in |x|,|y|<=12
        grid = make_grid(8.0, 1024)
        f = gen_chirp(chirp_preset(), grid)
        A = numeric_ambiguity(f.values, grid)
        X, Y = np.meshgrid(grid.x, grid.y)
        inside = (np.abs(X) <= 12) & (np.abs(Y) <= 12)
        mass = np.abs(A) ** 2
        assert mass[inside].sum() / mass.sum() > 0.99
        # elongation: the dominant second-moment axis is slanted
        w = mass / mass.sum()
        cxy = np.sum(w * X * Y)
        cxx = np.sum(w * X * X)
        cyy = np.sum(w * Y * Y)
        assert cxy > 0.1 * np.sqrt(cxx * cyy)


class TestMixture:
    def test_single_centered_term(self, grid512):
        f = gen_mixture(MixtureSpec(components=((0.0, 1.0),)), grid512)
        assert_allclose(f.values, dilated_gauss_samples(4.0, grid512).astype(complex),
                        rtol=0, atol=0)

    def test_symmetric_pair_is_even(self, grid512):
        f = gen_mixture(MixtureSpec(components=((-2.0, 1.0), (2.0, 1.0))), grid512)
        L = grid512.L
        reflected = f.values[(-np.arange(L)) % L]
        assert np.max(np.abs(f.values - reflected)) < 1e-12

    def test_linearity_exact(self, grid512):
        c1 = ((-2.0, 1.0), (0.5, 0.3 + 0.1j))
        c2 = ((1.5, -0.7j),)
        both = gen_mixture(MixtureSpec(components=c1 + c2), grid512)
        f1 = gen_mixture(MixtureSpec(components=c1), grid512)
        f2 = gen_mixture(MixtureSpec(components=c2), grid512)
        assert np.array_equal(both.values, f1.values + f2.values)

    def test_rejects_out_of_range_shift(self, grid512):
        with pytest.raises(ValueError):
            gen_mixture(MixtureSpec(components=((9.0, 1.0),)), grid512)

    def test_three_bumps_show_disjoint_blobs(self):
        # oracle: numeric ambiguity; well-separated bumps give >=3 disjoint
        # blobs along the x axis at half the peak level
        grid = make_grid(8.0, 512)
        spec = MixtureSpec(components=((-2.5, 1.0), (0.0, 1.0), (2.5, 1.0)))
        f = gen_mixture(spec, grid)
        A = numeric_ambiguity(f.values, grid)
        row = np.abs(A[grid.L // 2, :])
        above = row > 0.5 * row.max()
        blobs = int(np.sum(above[1:] & ~above[:-1])) + int(above[0])
        assert blobs >= 3

    def test_preset_blob_structure(self):
        grid = make_grid(8.0, 512)
        f = gen_mixture(mixture_preset(), grid)
        A = numeric_ambiguity(f.values, grid)
        row = np.abs(A[grid.L // 2, :])
        above = row > 0.5 * row.max()
        blobs = int(np.sum(above[1:] & ~above[:-1])) + int(above[0])
        assert blobs >= 3
