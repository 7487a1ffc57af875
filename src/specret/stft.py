"""Discrete STFT by left-Riemann quadrature, squared-magnitude measurements,
and measurement noise models.

The coefficient convention is

    c[m, k] = dt * sum_l f_l * conj(g[(l - k + L/2) mod L])
                 * exp(-2i*pi * t_l * y_m)

so c[m, k] approximates V_g f(x_k, y_m) with a periodized window.  The
modular window index realizes periodization by cyclic indexing.

Column k's window, conj(g) at (l - k + L/2) mod L over l, is a contiguous
slice of the doubled conjugate window concat(gc, gc), starting at
(L/2 - k) mod L.  `forward_stft` therefore builds the (k, l) products from
reversed rows of a sliding-window view of the doubled window, with no
index array and no gathered copy, runs the FFT along the contiguous l
axis and returns the (m, k) transpose as a view.  Coefficients, and the
powers `to_measurement` takes from them, are therefore Fortran-ordered.
Elementwise consumers see the same values in either layout; a running
sum of powers should keep their layout (``copy(order="K")``), since a
C-ordered accumulator makes every add a strided transpose, and
`add_noise` writes its noisy power in the clean power's layout.

The records hold a grid and values only: which window a measurement came
from is its position in the family, and the noise model, level and seed
are part of the run's config.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError
from .grid import Grid, Signal


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


def forward_stft(f: Signal, g: np.ndarray, grid: Grid | None = None) -> StftCoeffs:
    """STFT coefficients of f against the periodized window g.

    Factors the defining sum through length-L FFTs: the exponential
    splits into (-1)^l * exp(-2i*pi*l*m/L) times the constant per-m
    phases (-1)^m.  Row k of the (k, l) product is the signal times the
    slice of concat(gc, gc) starting at (L/2 - k) mod L: rows
    L/2, L/2 - 1, ..., 0 and then L - 1, ..., L/2 + 1 of its sliding-window
    view.  The FFT runs along l and the result is returned as the (m, k)
    transpose view, Fortran-ordered.
    """
    grid = grid or f.grid
    if grid != f.grid:
        raise GridMismatchError("signal grid differs from requested grid")
    g = np.asarray(g)
    if g.shape != (grid.L,):
        raise GridMismatchError(f"window has {g.shape} samples, grid needs {grid.L}")

    L = grid.L
    h = L // 2
    sgn = (-1.0) ** np.arange(L)  # exp(i*pi*l) on the signal, exp(i*pi*m) on the output; exact
    base = f.values * sgn
    gc = np.conj(g.astype(np.complex128))
    const = (-1j) ** (L % 4)  # exp(-i*pi*L/2), exact for integer L

    # row s is concat(gc, gc)[s:s + L], a view: no index array, no gathered copy
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([gc, gc]), L)
    prod = np.empty((L, L), dtype=np.complex128)
    np.multiply(rows[h::-1], base, out=prod[:h + 1])
    np.multiply(rows[L - 1:h:-1], base, out=prod[h + 1:])
    out = np.fft.fft(prod, axis=1)
    del prod
    out *= (grid.dt * const) * sgn  # sign flips are exact, so one pass for both factors
    return StftCoeffs(grid=grid, values=out.T)


def to_measurement(c: StftCoeffs) -> Measurement:
    """Squared-magnitude measurement |V_g f|^2 of a coefficient matrix."""
    return Measurement(grid=c.grid, power=np.abs(c.values) ** 2)


def stft_energy(c: StftCoeffs) -> float:
    """Quadrature-weighted energy (1/L) * sum |c|^2.

    Approximates ||V_g f||^2 over the time-frequency plane, which equals
    ||f||^2 * ||g||^2 in discrete norms; on the square lattice the
    discrete identity is exact.
    """
    return float(1 / c.grid.L * np.sum(np.abs(c.values) ** 2))


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
    draws = np.random.default_rng(seed).standard_normal(mea.power.shape)
    power = np.empty_like(mea.power)  # the clean layout: passes over both run contiguously
    np.multiply(draws, level, out=power)  # cell [m, k] keeps C-order draw m*L + k
    del draws
    if model == "additive":
        power += mea.power
    else:
        power += 1.0
        np.square(power, out=power)
        power *= mea.power
    return Measurement(grid=mea.grid, power=power)
