"""Discrete STFT by left-Riemann quadrature, squared-magnitude measurements,
and measurement noise models.

The coefficient convention is

    c[m, k] = dt * sum_l f_l * conj(g[(l - k + L/2) mod L])
                 * exp(-2i*pi * t_l * y_m)

so c[m, k] approximates V_g f(x_k, y_m) with a periodized window.  The
modular window index realizes periodization by cyclic indexing.

The factor exp(-2i*pi*t_l*y_m) splits into (-1)^l * exp(-2i*pi*l*m/L) *
(-1)^m * exp(-i*pi*L/2).  The output sign (-1)^m of a length-L FFT is the
FFT of its input rolled by L/2, so `forward_stft` takes it as a shift of
the window slices and rolls the signal vector by L/2; the unit constant
exp(-i*pi*L/2) and the step dt ride on that L-vector.  Column k's
window, conj(g) at (l - k) mod L over the rolled l, is then the
contiguous slice of the doubled conjugate window concat(gc, gc) that
starts at L - k.  The (k, l) products come from reversed rows of a
sliding-window view of the doubled window, with no index array, no
gathered copy and no pass over the output; the FFT runs in place along
the contiguous l axis, and the (m, k) transpose is returned as a view.
`stft_power` takes the same rows a block at a time and squares each
block's |.| into its columns of the power, with no L x L complex array.
Coefficients and powers are therefore Fortran-ordered.  Elementwise
consumers see the same values in either layout; a running sum of powers
should keep their layout (``copy(order="K")``), since a C-ordered
accumulator makes every add a strided transpose, and `add_noise` writes
its noisy power in the clean power's layout.

The records hold a grid and values only: which window a measurement came
from is its position in the family, and the noise model, level and seed
are part of the run's config.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError
from .grid import Grid, Signal

DRAW_ROWS = 64  # rows of noise drawn at a time: 512 KB at L = 1024
POWER_BLOCK_BYTES = 2 ** 19  # product rows `stft_power` takes at a time: 32 at L = 1024


@dataclass(frozen=True)
class StftCoeffs:
    grid: Grid
    values: np.ndarray  # complex, shape (L, L)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.L, self.grid.L):
            raise ValueError(f"expected shape {(self.grid.L, self.grid.L)}, got {v.shape}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Measurement:
    grid: Grid
    power: np.ndarray  # real, shape (L, L), |V_g f|^2 (possibly noisy)

    def __post_init__(self):
        p = np.asarray(self.power, dtype=np.float64)
        if p.shape != (self.grid.L, self.grid.L):
            raise ValueError(f"expected shape {(self.grid.L, self.grid.L)}, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("measurement contains non-finite entries")
        object.__setattr__(self, "power", p)


def _product_blocks(f: Signal, g: np.ndarray, grid: Grid, n: int):
    """Yield (k0, block), rows k0, k0 + 1, ... of the (k, l) product, n at a
    time in one buffer and transformed in place along l (see `forward_stft`)."""
    if grid != f.grid:
        raise GridMismatchError("signal grid differs from requested grid")
    g = np.asarray(g)
    if g.shape != (grid.L,):
        raise GridMismatchError(f"window has {g.shape} samples, grid needs {grid.L}")
    L = grid.L
    sgn = (-1.0) ** np.arange(L)  # exp(i*pi*l); exact
    # exp(-i*pi*L/2) = (-i)^L is a unit, exact for integer L
    sig = np.roll(f.values * sgn, L // 2) * (grid.dt * (-1j) ** (L % 4))
    gc = np.conj(g.astype(np.complex128))
    # row s is concat(gc, gc)[s:s + L], a view: no index array, no gathered copy
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([gc, gc]), L)
    prod = np.empty((n, L), dtype=np.complex128)
    for k0 in range(0, L, n):
        k1 = min(k0 + n, L)
        block = np.multiply(rows[L - k0:L - k1:-1], sig, out=prod[:k1 - k0])
        yield k0, np.fft.fft(block, axis=1, out=block)


def forward_stft(f: Signal, g: np.ndarray, grid: Grid | None = None) -> StftCoeffs:
    """STFT coefficients of f against the periodized window g.

    Row k of the (k, l) product is the signal vector (-1)^l f, rolled by
    L/2 and scaled by dt * exp(-i*pi*L/2), times the slice of
    concat(gc, gc) starting at L - k: rows L, L - 1, ..., 1 of its
    sliding-window view (see the module docstring).  The FFT runs in place
    along l and the (m, k) transpose view is returned, Fortran-ordered.
    When dt is a power of two, as on the T = 8 grids, the scale is exact
    wherever it is applied, so the powers have the bits of scaling the
    FFT's output instead.
    """
    grid = grid or f.grid
    (_, out), = _product_blocks(f, g, grid, grid.L)
    return StftCoeffs(grid=grid, values=out.T)


def stft_power(f: Signal, g: np.ndarray, grid: Grid | None = None) -> Measurement:
    """`to_measurement(forward_stft(f, g, grid))` with its bits, from blocks of
    POWER_BLOCK_BYTES of the product's k rows, whose |.|^2 fill columns k."""
    grid = grid or f.grid
    L = grid.L
    n = min(max(POWER_BLOCK_BYTES // (16 * L), 1), L)
    mag, power = np.empty((n, L)), np.empty((L, L), order="F")
    for k0, block in _product_blocks(f, g, grid, n):
        np.square(np.abs(block, out=mag[:len(block)]), out=power.T[k0:k0 + len(block)])
    return Measurement(grid=grid, power=power)


def to_measurement(c: StftCoeffs) -> Measurement:
    """Squared-magnitude measurement |V_g f|^2 of a coefficient matrix."""
    return Measurement(grid=c.grid, power=np.abs(c.values) ** 2)


def add_noise(mea: Measurement, model: str, level: float, seed: int) -> Measurement:
    """Contaminate a measurement.

    additive:        power' = power + eta, eta ~ N(0, level^2) i.i.d.
    multiplicative:  |V| is scaled by i.i.d. N(1, level^2) factors and
                     then squared, i.e. power' = power * (1 + g)^2.
    Deterministic for a fixed seed (PCG64).  The noisy power has the
    clean power's memory layout.
    """
    if level < 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")
    if model not in ("additive", "multiplicative"):
        raise ValueError(f"unknown noise model {model!r}")
    rng = np.random.default_rng(seed)
    power = np.empty_like(mea.power)  # the clean layout: passes over both run contiguously
    # cell [m, k] keeps C-order draw m*L + k: successive calls continue one
    # stream, and a block of draws is still in cache when it lands in a
    # Fortran-ordered power
    for first in range(0, power.shape[0], DRAW_ROWS):
        rows = power[first:first + DRAW_ROWS]
        np.multiply(rng.standard_normal(rows.shape), level, out=rows)
    if model == "additive":
        power += mea.power
    else:
        power += 1.0
        np.square(power, out=power)
        power *= mea.power
    return Measurement(grid=mea.grid, power=power)
