"""Helpers that only the tests call, kept out of the library: whole-family
peeled masks, the bare Laguerre polynomial, the whole STFT coefficient
matrix and its measurement, the L x L phase table and the whole-table
numeric ambiguity, the STFT energy, the mixed norm of a lattice, the
assembly of J from a list of measurements, the noise-bound check in its
two-list form and the one that assembles both J and J^eta, the
whole-band product read-out, and the one-window family of the
single-window baseline."""
from typing import NamedTuple

import numpy as np

from specret import (
    BoundReport,
    Grid,
    Signal,
    WindowFamily,
    gauss_window_member,
    numeric_ambiguity,
    verify_noise_bounds,
)
from specret import stft
from specret.ambiguity import product_blocks, unit_roots
from specret.metrics import _outer_l1
from specret.retrieval import _divide, _group_sums, check_powers
from specret.special import _laguerre_run
from specret.stft import stft_blocks
from specret.windows import _check_unit_epsilon, peel


def peel_masks(family, epsilon):
    """Pairwise-disjoint boolean masks from `peel`'s owner labels, one
    group per member."""
    _check_unit_epsilon(epsilon)
    _, owner = peel(family, [(j,) for j in range(len(family))], epsilon)
    return [owner == j for j in range(len(family))]


def laguerre_eval(n, z):
    """Laguerre polynomial L_n(z) by the three-term recurrence.

    Stable for n <= 200, |z| <= 1e3.  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=float)
    out = next(_laguerre_run([n], z, np.ones_like(z)))
    return out if out.ndim else float(out)


class Coeffs(NamedTuple):
    grid: Grid
    values: np.ndarray  # complex, shape (L, L), Fortran-ordered


def stft_coeffs(f, g):
    """The whole coefficient matrix c[m, k]: all of `stft_blocks` in one
    block of L rows, transposed."""
    L = f.grid.L
    saved = stft.POWER_BLOCK_BYTES
    stft.POWER_BLOCK_BYTES = 16 * L * L
    try:
        (_, block), = stft_blocks(f, g)
    finally:
        stft.POWER_BLOCK_BYTES = saved
    return Coeffs(grid=f.grid, values=block.T)


def power_of(c):
    """Squared-magnitude measurement |c|^2 of a whole coefficient matrix."""
    return np.abs(c.values) ** 2


def xy_phase(grid, sign):
    """exp(sign * i*pi * x_k * y_m) on the (m, k) lattice: the 2L-th root
    of unity at (k - L/2)(m - L/2) mod 2L, from an L x L index table."""
    L = grid.L
    c = np.arange(L) - L // 2
    idx = np.multiply.outer(c, c)
    idx %= 2 * L
    roots = unit_roots(L)
    return (roots if sign > 0 else roots.conj())[idx]


def whole_ambiguity(g, grid):
    """Oracle for `numeric_ambiguity`: the whole phase table times the
    whole coefficient matrix of g against itself, phase first."""
    c = stft_coeffs(Signal(grid=grid, values=np.asarray(g, dtype=np.complex128)), g)
    return np.multiply(xy_phase(grid, 1), c.values)


def stft_energy(c):
    """Quadrature-weighted energy (1/L) * sum |c|^2.

    Approximates ||V_g f||^2 over the time-frequency plane, which equals
    ||f||^2 * ||g||^2 in discrete norms; on the square lattice the
    discrete identity is exact.
    """
    return float(1 / c.grid.L * np.sum(np.abs(c.values) ** 2))


def lattice_norm(values, dx, dy, p):
    """The mixed L^{p,1} norm of a lattice: `_outer_l1` of each row's sum of |.|^p."""
    return _outer_l1(np.sum(np.abs(values) ** p, axis=1), dx, dy, p)


def mixed_norm(values, grid, p):
    """Discrete mixed norm of a lattice on grid: outer L1 sum over y of the
    inner L^p norm in x."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return lattice_norm(values, grid.dt, grid.dy, p)


def assemble(measurements, plan):
    """J = F(sum_{j in group} |V_{g_j} f|^2) / sum_{j in group} A g_j on each
    group's region, zero off omega: what `run_alg1` and `run_alg2` invert."""
    powers = check_powers(measurements, sum(map(len, plan.groups)), plan.grid)
    return _divide(_group_sums(powers, plan.groups), plan)


def noise_sums(clean, noisy, plan):
    """Each plan group's noise sum, eta = noisy - clean added over the
    group in member order, from whole lists of clean and noisy powers."""
    n = sum(map(len, plan.groups))
    clean, noisy = check_powers(clean, n, plan.grid), check_powers(noisy, n, plan.grid)
    sums = []
    for group in plan.groups:
        eta = noisy[group[0]] - clean[group[0]]
        for j in group[1:]:
            eta += noisy[j] - clean[j]
        sums.append(eta)
    return sums


def two_list_bounds(clean, noisy, plan, f_true=None):
    """Oracle for the CLI's noise sums: `verify_noise_bounds` in its
    two-list form, the noise sums made from whole clean and noisy lists
    (`noise_sums`) rather than as the noise is drawn."""
    return verify_noise_bounds(noise_sums(clean, noisy, plan), plan, f_true)


def two_assembly_bounds(clean, noisy, plan, p=2.0, f_true=None):
    """Oracle for `verify_noise_bounds`: the check as it stood before it
    transformed the noise sums.  A and A^eta are assembled from the clean
    and the noisy measurements, and the norms are taken of their
    difference over the whole plane."""
    A, A_eta = assemble(clean, plan), assemble(noisy, plan)
    grid, eps, omega = plan.grid, plan.epsilon, plan.omega
    dx, dy = grid.dt, grid.dy
    k0 = grid.L // 2
    noise_norm = max(dx * dy * float(np.sum(np.abs(eta)))
                     for eta in noise_sums(clean, noisy, plan))
    C_p = lattice_norm(omega.astype(float), dx, dy, p)
    C_R = dx * float(np.sum(omega[k0, :]))
    lhs = lattice_norm(A - A_eta, dx, dy, p)
    lhs_slice = dy * float(np.sum(np.abs(A[:, k0] - A_eta[:, k0])))
    rhs, rhs_slice = C_p / eps * noise_norm, C_R / eps * noise_norm
    approx = approx_slice = None
    if f_true is not None:
        outside = np.where(omega, 0.0, numeric_ambiguity(f_true.values, grid))
        approx = lattice_norm(outside, dx, dy, p)
        approx_slice = dy * float(np.sum(np.abs(outside[:, k0])))
    return BoundReport(
        epsilon=eps, p=p, C_p=C_p, C_R_Omega=C_R, lhs_A_norm=lhs, rhs_bound=rhs,
        lhs_slice=lhs_slice, rhs_slice_bound=rhs_slice, noise_norm=noise_norm,
        satisfied=(bool(lhs <= rhs), bool(lhs_slice <= rhs_slice)),
        approx_term=approx, approx_slice_term=approx_slice)


def gauss_baseline_family(grid):
    """The one standard-Gauss window `specret baseline` retrieves with."""
    return WindowFamily(members=(gauss_window_member(1.0, grid),), grid=grid)


def product_band(power, grid, rows):
    """The blocks of `product_blocks` for rows = (first, stop), gathered into
    one band: the lattice rows of F(|V_g f|^2)(y, -x), which approximates
    A f(x, y) * conj(A g(x, y))."""
    r0, r1 = rows
    G = np.empty((r1 - r0, grid.L), dtype=np.complex128)
    for m0, block in product_blocks(power, grid, rows):
        G[m0 - r0:m0 - r0 + len(block)] = block
    return G


def gathered_product(power, grid, rows):
    """Oracle for `product_blocks`: the whole-band read-out before it went
    by blocks.  The band's rows are gathered from the half
    plane in one fancy index per half, then scaled and modulated whole."""
    L = grid.L
    h = L // 2
    r0, r1 = rows
    H = np.fft.rfft(power, axis=0)
    np.fft.fft(H, axis=1, out=H)
    for line in (H[0], H[h]):
        line[h + 1:] = line[h - 1:0:-1].conj()
        line.imag[[0, h]] = 0.0
    i = np.arange(r0, r1)
    G = np.empty((r1 - r0, L), dtype=np.complex128)
    G[:, :h + 1] = H[h::-1, (i + h) % L].T
    np.conjugate(H[1:h, (h - i) % L].T, out=G[:, h + 1:])
    sgn = (-1.0) ** np.arange(L)
    G *= ((grid.dt * grid.dy) * sgn[r0:r1])[:, None]
    G *= sgn
    return G
