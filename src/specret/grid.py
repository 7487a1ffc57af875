"""Uniform square time/frequency lattice and sampled signals.

Time samples are t_l = -T + l*dt for l = 0..L-1 with dt = 2T/L.  The
frequency lattice covers [-1/(2dt), 1/(2dt)) with L equispaced bins,
y_m = (1/dt) * (-1/2 + m/L).  Windows shift by one sample, so the shift
lattice x_k equals the time lattice and every lattice is the square
L x L grid on which the ambiguity-plane axis swap is an exact index
permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    T: float
    L: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.L <= 0 or self.L % 2 != 0:
            raise ValueError(f"L must be an even positive integer, got {self.L}")

    @property
    def dt(self) -> float:
        return 2.0 * self.T / self.L

    @property
    def dy(self) -> float:
        return 1.0 / (self.L * self.dt)

    @property
    def nyquist(self) -> float:
        return 0.5 / self.dt

    @cached_property
    def t(self) -> np.ndarray:
        """Time lattice, length L."""
        return -self.T + self.dt * np.arange(self.L)

    @property
    def x(self) -> np.ndarray:
        """Shift lattice, length L; the same array as the time lattice."""
        return self.t

    @cached_property
    def y(self) -> np.ndarray:
        """Frequency lattice, length L."""
        return (1.0 / self.dt) * (-0.5 + np.arange(self.L) / self.L)


def make_grid(T: float, L: int) -> Grid:
    """Build a validated grid."""
    return Grid(T=float(T), L=int(L))


@dataclass(frozen=True)
class Signal:
    """Complex samples bound to a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.L,):
            raise ValueError(f"expected {self.grid.L} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "values", v)
