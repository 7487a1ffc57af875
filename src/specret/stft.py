"""Discrete STFT by left-Riemann quadrature, squared-magnitude measurements,
and measurement noise models.

The coefficient convention is

    c[m, k] = dt * sum_l f_l * conj(g[(l - k + L/2) mod L])
                 * exp(-2i*pi * t_l * y_m)

so c[m, k] approximates V_g f(x_k, y_m) with a periodized window.  The
modular window index realizes periodization by cyclic indexing.

`stft_blocks(f, g)` is the one coefficient path: it yields a block of
frequency rows m at a time, each row the inverse FFT of the window's
conjugate spectrum times the signal's shifted spectrum, the second
operand so that a global phase i of the signal keeps the powers' bits.
`stft_power` squares each block's |.| into its rows of a C-ordered
power, so no L x L complex array is made.

The noise kernel `draw_noise` writes a power's noisy rows over its clean
ones in place, a block of ambiguity.PRODUCT_ROWS rows at a time, the
blocks the product transform's first pass takes, and hands each block's
noise on; `add_noise` is a copy, then the kernel.

A measurement is its float64 (L, L) power only: its grid is its window
family's, which window it came from is its position in the family, and
the noise model, level and seed are part of the run's config.
"""
from __future__ import annotations

import numpy as np

from . import ambiguity  # a cycle: the noise kernel reads PRODUCT_ROWS when it runs
from .exceptions import GridMismatchError
from .grid import Signal

POWER_BLOCK_BYTES = 2 ** 19  # bytes a `stft_blocks` block holds: 32 rows at L = 1024


def stft_blocks(f: Signal, g: np.ndarray):
    """Yield (m0, block), block[r, k] being c[m0 + r, k] on the signal's
    grid, for consecutive blocks of as many frequency rows as
    POWER_BLOCK_BYTES holds, each a view of one buffer that the next block
    overwrites.

    With F and G the DFTs of f and g, the correlation identity makes row m
    one inverse FFT along the spectrum index q:

        c[m, k] = dt (-1)^(m - L/2) IDFT_q(F[(q + m - L/2) mod L]
                                           * conj(G[q]) * (-1)^q)[k].

    F rolled by -L/2, doubled and multiplied by (-1)^j holds, in the
    slice of its sliding-window view that starts at m, row m's spectrum
    factor with both signs (-1)^m and (-1)^q, so a block of rows is a view
    with no index array and no gathered copy.  The unit (-1)^(L/2) and the
    step dt ride on conj(G), and so does 1/L when L is a power of two,
    which saves the inverse FFT's own scaling pass; other L leave 1/L to
    the inverse FFT.  When dt is a power of two, as on the T = 8 grids,
    every scale is exact, so the powers have the bits of scaling the
    inverse FFT's output instead.
    """
    grid = f.grid
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (grid.L,):
        raise GridMismatchError(f"window has {g.shape} samples, grid needs {grid.L}")
    L, h = grid.L, grid.L // 2
    n = min(max(POWER_BLOCK_BYTES // (16 * L), 1), L)
    spectrum = np.tile(np.roll(np.fft.fft(f.values), -h), 2) * (-1.0) ** np.arange(2 * L)
    rows = np.lib.stride_tricks.sliding_window_view(spectrum, L)  # row m is rows[m]
    exact = L & (L - 1) == 0  # 1/L is a power of two
    gq = np.conj(np.fft.fft(g)) * (grid.dt * (-1.0) ** h / (L if exact else 1))
    buf = np.empty((n, L), dtype=np.complex128)
    for m0 in range(0, L, n):
        m1 = min(m0 + n, L)
        # the signal's spectrum goes second: numpy's (2.4) complex multiply
        # keeps b * (1j*a) == 1j * (b*a) exactly, not (1j*a) * b == 1j * (a*b)
        block = np.multiply(gq, rows[m0:m1], out=buf[:m1 - m0])
        yield m0, np.fft.ifft(block, axis=1, out=block, norm="forward" if exact else None)


def stft_power(f: Signal, g: np.ndarray) -> np.ndarray:
    """|V_g f|^2 on the signal's grid, C-ordered: each block of
    `stft_blocks` has its |.| squared in place into its rows of the
    power."""
    power = np.empty((f.grid.L, f.grid.L))
    for m0, block in stft_blocks(f, g):
        rows = power[m0:m0 + len(block)]
        np.square(np.abs(block, out=rows), out=rows)
    return power


def draw_noise(power: np.ndarray, model: str, level: float, seed: int,
               noise: np.ndarray | None = None, work: np.ndarray | None = None):
    """The noise kernel: contaminate `power` in place, a block of
    ambiguity.PRODUCT_ROWS rows at a time, yielding after each block its
    noise, noisy - clean, in the leading rows of the buffer `noise`, or
    None when no buffer is given.

    additive:        power' = power + eta, eta ~ N(0, level^2) i.i.d.
    multiplicative:  |V| is scaled by i.i.d. N(1, level^2) factors and
                     then squared, i.e. power' = power * (1 + g)^2.
    Cell [m, k] takes draw m*L + k of a PCG64 generator seeded `seed`, in
    any layout: a block is drawn and contaminated in the C-ordered buffer
    `work` (`block_buffer`), which streams advanced by one thread may
    share, and copied into the power's rows.
    """
    if level < 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")
    if model not in ("additive", "multiplicative"):
        raise ValueError(f"unknown noise model {model!r}")
    rng = np.random.default_rng(seed)
    work = block_buffer(power) if work is None else work
    for m0 in range(0, len(power), len(work)):
        rows = power[m0:m0 + len(work)]
        block = rng.standard_normal(out=work[:len(rows)])
        block *= level
        if model == "additive":
            block += rows
        else:
            block += 1.0
            np.square(block, out=block)
            block *= rows
        if noise is not None:
            np.subtract(block, rows, out=noise[:len(rows)])
        np.copyto(rows, block)
        yield None if noise is None else noise[:len(rows)]


def block_buffer(power: np.ndarray) -> np.ndarray:
    """An empty C-ordered block of ambiguity.PRODUCT_ROWS rows of `power`."""
    return np.empty(power[:ambiguity.PRODUCT_ROWS].shape)


def add_noise(power: np.ndarray, model: str, level: float, seed: int) -> np.ndarray:
    """A noisy copy of a measured power, in its memory layout: the copy,
    then the kernel (`draw_noise`).  The input is not modified."""
    noisy = np.array(power, dtype=np.float64, order="K")
    for _ in draw_noise(noisy, model, level, seed):
        pass
    return noisy
