import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from specret import (
    OverflowGuardError,
    dilated_gauss_samples,
    frft_gauss_samples,
    hermite_samples,
    laguerre_function,
    make_grid,
)
from specret.special import frft_gauss_coeffs, hermite_values, laguerre_ladder
from oracles import laguerre_eval
from conftest import DEGREE_SETS


def laguerre_reference(n, z, dps=None):
    """Independent oracle: direct evaluation of the defining binomial sum
    in extended precision.  The alternating terms reach ~exp(z), so the
    working precision must absorb that cancellation."""
    if dps is None:
        dps = 60 + int(1.2 * abs(z))
    with mpmath.workdps(dps):
        zz = mpmath.mpf(repr(z))
        total = mpmath.mpf(0)
        for k in range(n + 1):
            total += mpmath.binomial(n, k) * (-zz) ** k / mpmath.factorial(k)
        return float(total)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_eval(0, 7.3) == 1.0

    def test_degree_one(self):
        assert laguerre_eval(1, 2.0) == -1.0

    def test_matches_extended_precision_sum(self):
        expected = laguerre_reference(10, 5.0)
        assert_allclose(laguerre_eval(10, 5.0), expected, rtol=1e-12)

    @pytest.mark.parametrize("n,z", [(25, 13.7), (50, 80.0), (100, 3.0), (200, 250.0)])
    def test_recurrence_against_oracle(self, n, z):
        assert_allclose(laguerre_eval(n, z), laguerre_reference(n, z), rtol=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 10, 25, 50])
    def test_sign_change_count(self, n):
        # L_n has exactly n positive roots, all below 4n+4
        z = np.linspace(0.0, 4 * n + 4, 200 * n + 200)
        vals = laguerre_eval(n, z)
        changes = int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))
        assert changes == n

    def test_vectorized_matches_scalar(self):
        z = np.array([0.0, 1.5, 30.0])
        vec = laguerre_eval(7, z)
        assert_allclose(vec, [laguerre_eval(7, v) for v in z], rtol=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre_eval(-1, 0.0)


class TestLaguerreFunction:
    def test_matches_damped_polynomial(self):
        z = np.linspace(0.0, 40.0, 101)
        assert_allclose(laguerre_function(12, z),
                        np.exp(-z / 2) * laguerre_eval(12, z), rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 5, 50, 150])
    def test_bounded_by_one_on_positive_axis(self, n):
        z = np.linspace(0.0, 5000.0, 20001)
        assert np.max(np.abs(laguerre_function(n, z))) <= 1.0 + 1e-12

    def test_no_overflow_at_large_argument(self):
        # the bare polynomial would overflow here
        val = laguerre_function(200, 4000.0)
        assert np.isfinite(val)

    @pytest.mark.parametrize("n,z", [(0, 3.0), (25, 13.7), (50, 80.0), (100, 3.0),
                                     (100, 602.0), (200, 250.0)])
    def test_matches_damped_extended_precision_sum(self, n, z):
        with mpmath.workdps(60):
            damping = float(mpmath.exp(-mpmath.mpf(z) / 2))
        assert_allclose(laguerre_function(n, z), damping * laguerre_reference(n, z), rtol=1e-9)


class TestLaguerreLadder:
    Z = np.concatenate([np.linspace(0.0, 1500.0, 3001), [1e-300, 0.5, 4.0 * 200 + 2]])

    @settings(max_examples=40, deadline=None)
    @given(degrees=DEGREE_SETS)
    def test_matches_one_degree_runs(self, degrees):
        for n, values in zip(degrees, laguerre_ladder(degrees, self.Z), strict=True):
            assert np.array_equal(values, laguerre_function(n, self.Z))

    def test_descending_degree_restarts(self):
        degrees = [7, 3, 3, 12, 0]
        for n, values in zip(degrees, laguerre_ladder(degrees, self.Z), strict=True):
            assert np.array_equal(values, laguerre_function(n, self.Z))

    def test_yields_fresh_arrays(self):
        a, b = laguerre_ladder([4, 4], self.Z)
        a[:] = 0
        assert np.array_equal(b, laguerre_function(4, self.Z))


class TestHermite:
    def test_ground_state_closed_form(self, grid512):
        expected = 2 ** 0.25 * np.exp(-np.pi * grid512.t ** 2)
        assert_allclose(hermite_samples(0, grid512), expected, rtol=1e-12)

    def test_first_function_vanishes_at_origin(self):
        assert hermite_values(1, 0.0) == 0.0

    def test_norm_via_fine_quadrature(self):
        # oracle: Riemann quadrature of the normalization integral on a
        # much finer and wider lattice than the working grid
        fine = make_grid(12.0, 16384)
        h = hermite_samples(5, fine)
        assert_allclose(fine.dt * np.sum(h * h), 1.0, atol=1e-10)
        work = make_grid(8.0, 1024)
        hw = hermite_samples(5, work)
        assert_allclose(work.dt * np.sum(hw * hw), 1.0, atol=1e-8)

    def test_orthonormal_family(self):
        grid = make_grid(10.0, 2048)
        H = np.stack([hermite_samples(n, grid) for n in range(31)])
        gram = grid.dt * (H @ H.T)
        assert np.max(np.abs(gram - np.eye(31))) < 1e-8

    def test_stable_to_degree_200(self):
        grid = make_grid(16.0, 4096)
        h = hermite_samples(200, grid)
        assert np.all(np.isfinite(h))
        assert_allclose(grid.dt * np.sum(h * h), 1.0, atol=1e-8)

    def test_underflowing_start_raises(self):
        # exp(-u^2/2) is subnormal inside the oscillatory region |u| <= sqrt(2n+1):
        # the recurrence would return a window with sampled norm^2 0.73 at n=900
        grid = make_grid(40.0, 4096)
        with pytest.raises(OverflowGuardError):
            hermite_samples(900, grid)

    @pytest.mark.parametrize("L", [256, 512, 1024])
    def test_benchmark_grids_do_not_raise_to_degree_200(self, L):
        grid = make_grid(8.0, L)
        for n in range(201):
            hermite_samples(n, grid)

    def test_rejects_negative_degree(self, grid256):
        with pytest.raises(ValueError):
            hermite_samples(-2, grid256)


class TestDilatedGauss:
    def test_unit_value_at_origin(self):
        grid = make_grid(8.0, 512)
        k0 = grid.L // 2  # t = 0
        assert_allclose(dilated_gauss_samples(1.0, grid)[k0], 1.0, rtol=1e-15)
        assert_allclose(dilated_gauss_samples(16.0, grid)[k0], 2.0, rtol=1e-15)

    def test_squared_norm(self):
        grid = make_grid(8.0, 1024)
        g = dilated_gauss_samples(10.0, grid)
        assert_allclose(grid.dt * np.sum(g * g), 2 ** -0.5, atol=1e-10)

    def test_rejects_nonpositive_dilation(self, grid256):
        with pytest.raises(ValueError):
            dilated_gauss_samples(0.0, grid256)


def frft_quadrature_oracle(a, alpha, u, T=8.0, n=8192):
    """Left-Riemann quadrature of the fractional-transform integral at 8x
    the working resolution (independent of the closed form)."""
    s, c = np.sin(alpha), np.cos(alpha)
    cot = c / s
    c_alpha = complex(np.sqrt(complex(1.0, -cot)))
    dt = 2 * T / n
    t = -T + dt * np.arange(n)
    phi = a ** 0.25 * np.exp(-a * np.pi * t ** 2)
    kernel = phi * np.exp(1j * np.pi * t ** 2 * cot)
    out = np.empty(len(u), dtype=complex)
    for i, uu in enumerate(u):
        out[i] = dt * np.sum(kernel * np.exp(-2j * np.pi * t * uu / s))
    return c_alpha * np.exp(1j * np.pi * np.asarray(u) ** 2 * cot) * out


class TestFrftGauss:
    def test_identity_angle(self, grid512):
        got = frft_gauss_samples(2.0, 0.0, grid512)
        assert_allclose(got, dilated_gauss_samples(2.0, grid512).astype(complex), rtol=1e-14)

    def test_gauss_is_fourier_invariant(self, grid512):
        got = frft_gauss_samples(1.0, np.pi / 2, grid512)
        assert_allclose(got, dilated_gauss_samples(1.0, grid512), atol=1e-14)

    def test_quarter_turn_dilates(self, grid512):
        # the plain Fourier transform maps phi_a to phi_{1/a}
        got = frft_gauss_samples(4.0, np.pi / 2, grid512)
        assert_allclose(got, dilated_gauss_samples(0.25, grid512), atol=1e-14)

    def test_against_quadrature_oracle(self):
        grid = make_grid(8.0, 1024)
        got = frft_gauss_samples(15.0, np.pi / 7, grid)
        want = frft_quadrature_oracle(15.0, np.pi / 7, grid.t)
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("a,alpha", [(2.0, 1.1), (30.0, 2.8), (7.0, -0.4)])
    def test_more_quadrature_angles(self, a, alpha):
        grid = make_grid(8.0, 1024)
        got = frft_gauss_samples(a, alpha, grid)
        want = frft_quadrature_oracle(a, alpha, grid.t)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_half_turn_reflects(self, grid512):
        # alpha and alpha + pi differ by the parity substitution t -> -t
        f1 = frft_gauss_samples(5.0, 0.6, grid512)
        f2 = frft_gauss_samples(5.0, 0.6 + np.pi, grid512)
        L = grid512.L
        reflected = f2[(-np.arange(L)) % L]
        assert np.max(np.abs(f1 - reflected)) < 1e-12

    def test_tiny_sine_falls_back(self, grid512):
        got = frft_gauss_samples(3.0, 1e-12, grid512)
        assert_allclose(got, dilated_gauss_samples(3.0, grid512).astype(complex), rtol=1e-14)

    def test_chirp_coefficient_has_positive_real_part(self):
        for a in (0.3, 1.0, 15.0, 80.0):
            for alpha in np.linspace(0.05, 2 * np.pi - 0.05, 23):
                _, w = frft_gauss_coeffs(a, alpha)
                assert w.real > 0

    def test_rejects_nonpositive_dilation(self, grid256):
        with pytest.raises(ValueError):
            frft_gauss_samples(-1.0, 0.3, grid256)


class TestFrftEigenrelation:
    def test_hermite_eigenvalues(self):
        # quadrature of F_alpha h_n against h_n recovers exp(-i*alpha*n)
        grid = make_grid(8.0, 1024)
        alpha = 0.7
        s, c = np.sin(alpha), np.cos(alpha)
        cot = c / s
        c_alpha = complex(np.sqrt(complex(1.0, -cot)))
        t = grid.t
        kernel = c_alpha * np.exp(1j * np.pi * (np.add.outer(t ** 2, t ** 2)) * cot
                                  - 2j * np.pi * np.multiply.outer(t, t) / s)
        for n in range(11):
            h = hermite_samples(n, grid)
            frft_h = grid.dt * (kernel @ h)
            inner = grid.dt * np.sum(frft_h * h)
            assert abs(inner - np.exp(-1j * alpha * n)) < 1e-6
