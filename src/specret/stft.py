"""Discrete STFT by left-Riemann quadrature, squared-magnitude measurements,
and measurement noise models.

The coefficient convention is

    c[m, k] = dt * sum_l f_l * conj(g[(l - k + L/2) mod L])
                 * exp(-2i*pi * t_l * y_m)

so c[m, k] approximates V_g f(x_k, y_m) with a periodized window.  The
modular window index realizes periodization by cyclic indexing.

`stft_block` is the one coefficient kernel: a block of frequency rows,
each the inverse FFT of the window's conjugate spectrum times the
signal's shifted spectrum, the second operand so that a global phase i
of the signal keeps the powers' bits.  `stft_blocks` runs it through one
buffer, and `stft_power` squares each block's |.| into its rows of a
C-ordered power; the measurement stream (`retrieval.measure_lines`) runs
it itself and holds no power.  The noise kernel `draw_noise`
contaminates a block of clean rows with a window's next draws, and
`add_noise` is a copy, then the kernel a block at a time.  A measurement
is its float64 (L, L) power only: the grid, the window and the noise
model, level and seed are its family's and its run's.
"""
from __future__ import annotations

import numpy as np

from .exceptions import GridMismatchError
from .grid import Signal

POWER_BLOCK_BYTES = 2 ** 19  # bytes a block of complex rows holds: 32 rows at L = 1024


def block_height(L: int) -> int:
    """The one row-block height of the measurement, its first pass and the
    product read-out: as many rows as POWER_BLOCK_BYTES of complex rows
    hold, at most L/8, so that small grids stream too, and at least 1."""
    return max(min(POWER_BLOCK_BYTES // (16 * L), L // 8), 1)


def signal_rows(f: Signal) -> np.ndarray:
    """Row m's spectrum factor of f, for every m: a read-only (L, L) view."""
    L, h = f.grid.L, f.grid.L // 2
    spectrum = np.tile(np.roll(np.fft.fft(f.values), -h), 2) * (-1.0) ** np.arange(2 * L)
    return np.lib.stride_tricks.sliding_window_view(spectrum, L)  # row m is rows[m]


def window_factor(g: np.ndarray, grid) -> np.ndarray:
    """The window's factor: conj(G) with the folds of `stft_blocks`."""
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (grid.L,):
        raise GridMismatchError(f"window has {g.shape} samples, grid needs {grid.L}")
    L = grid.L
    return np.conj(np.fft.fft(g)) * (grid.dt * (-1.0) ** (L // 2) / (L if L & (L - 1) == 0 else 1))


def stft_block(rows: np.ndarray, gq: np.ndarray, m0: int, out: np.ndarray) -> np.ndarray:
    """The kernel: out[r, k] = c[m0 + r, k] from f's `signal_rows` and g's
    `window_factor`, transformed in place."""
    exact = len(gq) & (len(gq) - 1) == 0  # 1/L rides on gq
    # the signal's spectrum goes second: numpy's (2.4) complex multiply
    # keeps b * (1j*a) == 1j * (b*a) exactly, not (1j*a) * b == 1j * (a*b)
    block = np.multiply(gq, rows[m0:m0 + len(out)], out=out)
    return np.fft.ifft(block, axis=1, out=block, norm="forward" if exact else None)


def stft_blocks(f: Signal, g: np.ndarray):
    """Yield (m0, block), block[r, k] being c[m0 + r, k] on the signal's
    grid, for consecutive blocks of `block_height` frequency rows
    (`stft_block`), each a view of one buffer that the next overwrites.

    With F and G the DFTs of f and g, the correlation identity makes row m
    one inverse FFT along the spectrum index q:

        c[m, k] = dt (-1)^(m - L/2) IDFT_q(F[(q + m - L/2) mod L]
                                           * conj(G[q]) * (-1)^q)[k].

    F rolled by -L/2, doubled and multiplied by (-1)^j holds row m's
    factor, with both signs, in the slice that starts at m, so a block of
    rows is a view (`signal_rows`).  (-1)^(L/2), dt and, when L is a power
    of two, 1/L ride on conj(G) (`window_factor`), which saves the inverse
    FFT's scaling pass; on a dyadic dt, as on the T = 8 grids, every scale
    is exact, so the powers have the bits of scaling its output instead.
    """
    gq, rows, L = window_factor(g, f.grid), signal_rows(f), f.grid.L
    buf = np.empty((block_height(L), L), dtype=np.complex128)
    for m0 in range(0, L, len(buf)):
        yield m0, stft_block(rows, gq, m0, buf[:L - m0])


def stft_power(f: Signal, g: np.ndarray) -> np.ndarray:
    """|V_g f|^2 on the signal's grid, C-ordered: each block of
    `stft_blocks` has its |.| squared in place into its rows of the
    power."""
    power = np.empty((f.grid.L, f.grid.L))
    for m0, block in stft_blocks(f, g):
        rows = power[m0:m0 + len(block)]
        np.square(np.abs(block, out=rows), out=rows)
    return power


def check_noise(model: str, level: float):
    if level < 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")
    if model not in ("additive", "multiplicative"):
        raise ValueError(f"unknown noise model {model!r}")


def draw_noise(rng: np.random.Generator, clean: np.ndarray, model: str, level: float,
               out: np.ndarray) -> np.ndarray:
    """The noise kernel: the noisy rows of the clean rows `clean`, made in
    the C-ordered buffer `out` from rng's next draws, in row order.

    additive:        power' = power + eta, eta ~ N(0, level^2) i.i.d.
    multiplicative:  |V| is scaled by i.i.d. N(1, level^2) factors and
                     then squared, i.e. power' = power * (1 + g)^2.
    """
    block = rng.standard_normal(out=out)
    block *= level
    if model == "additive":
        block += clean
    else:
        block += 1.0
        np.square(block, out=block)
        block *= clean
    return block


def add_noise(power: np.ndarray, model: str, level: float, seed: int) -> np.ndarray:
    """A noisy copy of a measured power, in its memory layout: cell [m, k]
    takes draw m*L + k of a PCG64 generator seeded `seed`, in any layout,
    through the kernel (`draw_noise`), a `block_height` of rows at a time.
    The input is not modified."""
    check_noise(model, level)
    noisy = np.array(power, dtype=np.float64, order="K")
    rng = np.random.default_rng(seed)
    work = np.empty(noisy[:block_height(noisy.shape[-1])].shape)
    for m0 in range(0, len(noisy), len(work)):
        rows = noisy[m0:m0 + len(work)]
        np.copyto(rows, draw_noise(rng, rows, model, level, work[:len(rows)]))
    return noisy
