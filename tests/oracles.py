"""Helpers that only the tests call, kept out of the library: whole-family
peeled masks, the bare Laguerre polynomial, the STFT energy and the mixed
norm of an ambiguity grid."""
import numpy as np

from specret import RegionMask
from specret.metrics import _mixed_norm
from specret.special import _laguerre_run
from specret.windows import _check_unit_epsilon, peel


def peel_masks(family, epsilon, grid):
    """Pairwise-disjoint masks from `peel`, one group per member."""
    _check_unit_epsilon(epsilon)
    return [RegionMask(grid=grid, bits=bits)
            for _, bits in peel(family, [(j,) for j in range(len(family))], epsilon, grid)]


def laguerre_eval(n, z):
    """Laguerre polynomial L_n(z) by the three-term recurrence.

    Stable for n <= 200, |z| <= 1e3.  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=float)
    out = next(_laguerre_run([n], z, np.ones_like(z)))
    return out if out.ndim else float(out)


def stft_energy(c):
    """Quadrature-weighted energy (1/L) * sum |c|^2.

    Approximates ||V_g f||^2 over the time-frequency plane, which equals
    ||f||^2 * ||g||^2 in discrete norms; on the square lattice the
    discrete identity is exact.
    """
    return float(1 / c.grid.L * np.sum(np.abs(c.values) ** 2))


def mixed_norm(G, p):
    """Discrete mixed norm: outer L1 sum over y of the inner L^p norm in x."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _mixed_norm(G.values, G.grid.dt, G.grid.dy, p)
