"""Discrete STFT by left-Riemann quadrature, squared-magnitude measurements,
and measurement noise models.

The coefficient convention is

    c[m, k] = dt * sum_l f_l * conj(g[(l - k + L/2) mod L])
                 * exp(-2i*pi * t_l * y_m)

so c[m, k] approximates V_g f(x_k, y_m) with a periodized window.  The
modular window index realizes periodization by cyclic indexing.

`stft_blocks(f, g)` is the one coefficient path: on the signal's grid, it
yields the (k, m) coefficients a block of k rows at a time, transformed
in place along the contiguous frequency axis; POWER_BLOCK_BYTES sets the
block height.  `stft_power` squares each block's |.| into
its columns of a Fortran-ordered power, so no L x L complex array is
made.  Elementwise consumers see the same values in either layout; a
running sum of powers should keep their layout (``copy(order="K")``),
since a C-ordered accumulator makes every add a strided transpose, and
`add_noise` writes its noisy power in the clean power's layout.

A measurement is its float64 (L, L) power only: its grid is its window
family's, which window it came from is its position in the family, and
the noise model, level and seed are part of the run's config.
"""
from __future__ import annotations

import numpy as np

from .exceptions import GridMismatchError
from .grid import Signal

DRAW_ROWS = 64  # rows of noise drawn at a time: 512 KB at L = 1024
POWER_BLOCK_BYTES = 2 ** 19  # bytes a `stft_blocks` block holds: 32 rows at L = 1024


def stft_blocks(f: Signal, g: np.ndarray):
    """Yield (k0, block), block[r, m] being c[m, k0 + r] on the signal's
    grid, for consecutive blocks of as many shift rows as POWER_BLOCK_BYTES
    holds, each a view of one buffer that the next block overwrites.

    The factor exp(-2i*pi*t_l*y_m) splits into (-1)^l * exp(-2i*pi*l*m/L) *
    (-1)^m * exp(-i*pi*L/2).  The output sign (-1)^m of a length-L FFT is
    the FFT of its input rolled by L/2, so the signal vector (-1)^l f is
    rolled by L/2, and the unit constant exp(-i*pi*L/2) and the step dt
    ride on it.  Row k's window, conj(g) at (l - k) mod L over the rolled
    l, is then the contiguous slice of the doubled conjugate window
    concat(gc, gc) that starts at L - k: rows L, L - 1, ..., 1 of its
    sliding-window view, with no index array and no gathered copy.  Each
    block of (k, l) products is transformed in place along l.  When dt is
    a power of two, as on the T = 8 grids, the scale is exact wherever it
    is applied, so the powers have the bits of scaling the FFT's output
    instead.
    """
    grid = f.grid
    g = np.asarray(g)
    if g.shape != (grid.L,):
        raise GridMismatchError(f"window has {g.shape} samples, grid needs {grid.L}")
    L = grid.L
    n = min(max(POWER_BLOCK_BYTES // (16 * L), 1), L)
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


def stft_power(f: Signal, g: np.ndarray) -> np.ndarray:
    """|V_g f|^2 on the signal's grid, Fortran-ordered: each block of
    `stft_blocks` has its |.| squared in place into its columns k of the
    power."""
    grid = f.grid
    power = np.empty((grid.L, grid.L), order="F")
    for k0, block in stft_blocks(f, g):
        cols = power.T[k0:k0 + len(block)]  # contiguous in the Fortran order
        np.square(np.abs(block, out=cols), out=cols)
    return power


def add_noise(power: np.ndarray, model: str, level: float, seed: int) -> np.ndarray:
    """Contaminate a measured power; the input is not modified.

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
    noisy = np.empty_like(power)  # the clean layout: passes over both run contiguously
    # cell [m, k] keeps C-order draw m*L + k: successive calls continue one
    # stream, and a block of draws is still in cache when it lands in a
    # Fortran-ordered power
    for first in range(0, noisy.shape[0], DRAW_ROWS):
        rows = noisy[first:first + DRAW_ROWS]
        np.multiply(rng.standard_normal(rows.shape), level, out=rows)
    if model == "additive":
        noisy += power
    else:
        noisy += 1.0
        np.square(noisy, out=noisy)
        noisy *= power
    return noisy
