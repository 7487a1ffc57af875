"""Test-signal generators and the experiment presets.

The chirp preset is the documented stand-in for the published
experiments (whose exact parameters are not available): a Gaussian
envelope exp(-pi (t/6.5)^2) with instantaneous frequency sweeping
linearly from 0 to 13.4 cycles per time unit across [-T, T], emitted
as the complex (analytic) chirp so its ambiguity support is a single
slanted ridge through the origin.  The parameters were calibrated so
that, at the reference tolerance, the multi-window schemes recover the
signal to ~1e-2 while a single standard Gauss window loses half of the
energy; all error targets that reference the preset are comparative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Grid, Signal
from .special import dilated_gauss_values

MIXTURE_BASE_DILATION = 4.0  # mixtures are time-shifts of phi_4


class ChirpSpec(NamedTuple):
    amplitude: float = 1.0
    env_width: float = 6.5       # Gaussian envelope exp(-pi ((t-c)/width)^2)
    env_center: float = 0.0
    f_start: float = 0.0         # instantaneous frequency at t = -T (cycles/unit)
    f_end: float = 13.4          # instantaneous frequency at t = +T


@dataclass(frozen=True)
class MixtureSpec:
    components: tuple = ()  # (shift, complex weight) pairs

    def __post_init__(self):
        comps = tuple((float(tau), complex(w)) for tau, w in self.components)
        object.__setattr__(self, "components", comps)


def gen_chirp(spec: ChirpSpec, grid: Grid) -> Signal:
    """Analytic linear chirp with a Gaussian envelope; deterministic in the spec."""
    nyq = grid.nyquist
    if max(abs(spec.f_start), abs(spec.f_end)) >= nyq:
        raise ValueError(
            f"instantaneous frequency reaches {max(abs(spec.f_start), abs(spec.f_end))}, "
            f"Nyquist is {nyq}"
        )
    t = grid.t
    T = grid.T
    rate = (spec.f_end - spec.f_start) / (2.0 * T)
    phase = spec.f_start * (t + T) + 0.5 * rate * (t + T) ** 2
    env = spec.amplitude * np.exp(-np.pi * ((t - spec.env_center) / spec.env_width) ** 2)
    return Signal(grid=grid, values=env * np.exp(2j * np.pi * phase))


def gen_mixture(spec: MixtureSpec, grid: Grid) -> Signal:
    """Weighted time-shifts of the dilated Gaussian phi_4."""
    out = np.zeros(grid.L, dtype=np.complex128)
    for tau, w in spec.components:
        if not (-grid.T < tau < grid.T):
            raise ValueError(f"shift {tau} outside (-{grid.T}, {grid.T})")
        out += w * dilated_gauss_values(MIXTURE_BASE_DILATION, grid.t - tau)
    return Signal(grid=grid, values=out)


def chirp_preset() -> ChirpSpec:
    return ChirpSpec()


def mixture_preset() -> MixtureSpec:
    """Five overlapping-support bumps; ambiguity mass stays inside r ~ 5."""
    return MixtureSpec(components=(
        (-2.0, 1.0),
        (-1.0, 0.9),
        (0.0, 1.1),
        (1.0, 0.95),
        (2.0, 1.05),
    ))
