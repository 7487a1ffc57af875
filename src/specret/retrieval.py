"""Direct phase retrieval: masked pointwise division of spectrogram
products, assembly of the signal ambiguity function, anchor selection,
and the final one-dimensional inversion back to the signal.

Retrieval plan
--------------
The denominators and regions of the division depend only on the window
family, the grid and the tolerance, so `make_plan` builds them once, in
the spirit of an FFTW plan, and every assembly with that family reuses
them (`verify_noise_bounds` assembles clean and noisy data from one
plan).  A `RetrievalPlan` holds a real L x L denominator and boolean
region masks: for alg1 the summed ambiguity and its superlevel set
Omega; for alg2, on each peeled cell, the ambiguity of the member that
claims it, and one disjoint region per member.  Each member's ambiguity
is evaluated exactly once per plan.  Because the spectrogram -> product
map is linear, alg1 sums the spectrograms in member order and
transforms the sum with one 2D FFT, instead of one per window.

Tolerance convention
--------------------
``RetrievalConfig.epsilon`` is expressed on the discrete scale of an
unweighted DFT pipeline, where a unit-norm window's ambiguity peak sits
near 1/dt rather than 1; the analytic threshold actually applied to the
closed-form window ambiguities is ``epsilon * grid.dt``.  Cutoffs like
0.5 are only meaningful on this scale: an analytic 0.5 would shrink
every high-degree Hermite stability set to a few lattice cells (the
Laguerre-function envelope decays like (n*z)^(-1/4)) and no signal
could be reconstructed through it.  The windows module, by contrast,
always thresholds raw analytic values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ambiguity import AmbiguityGrid, spectrogram_to_product, xy_phase
from .exceptions import DegenerateAnchorError, EmptyMaskError, GridMismatchError
from .grid import Grid, Signal
from .stft import Measurement, forward_stft, to_measurement
from .windows import WindowFamily, WindowMember, peel


@dataclass(frozen=True)
class RetrievalConfig:
    epsilon: float
    anchor: int | None = None       # None: auto-select; int: fixed time index
    algorithm: str = "alg1"          # alg1 (summed gauss) | alg2 (peeled hermite)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.algorithm not in ("alg1", "alg2"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass(frozen=True)
class Reconstruction:
    signal: Signal
    ambiguity: AmbiguityGrid
    omega_area_fraction: float
    anchor_c: int
    diagnostics: dict | None = None
    plan: RetrievalPlan | None = None  # the plan `ambiguity` was assembled with


def raw_threshold(cfg: RetrievalConfig, grid: Grid) -> float:
    """Analytic ambiguity threshold corresponding to the config tolerance."""
    return cfg.epsilon * grid.dt


def measure_family(f: Signal, family: WindowFamily) -> list[Measurement]:
    """Noiseless squared-magnitude measurements, one per family member."""
    return [
        to_measurement(forward_stft(f, m.samples, f.grid, window_id=m.window_id))
        for m in family.members
    ]


def measurement_grid(measurements, n_windows: int) -> Grid:
    """The grid the measurements share, after checking there is one per window."""
    if len(measurements) != n_windows:
        raise ValueError(f"{len(measurements)} measurements for {n_windows} windows")
    grid = measurements[0].grid
    for mea in measurements:
        if mea.grid != grid:
            raise GridMismatchError("measurements live on different grids")
    return grid


class RetrievalPlan(NamedTuple):
    """The measurement-independent part of an assembly, built once by `make_plan`.

    den is real, shape (L, L): the summed ambiguity for alg1; for alg2, on
    each peeled cell the ambiguity of the member that claims it, 0 elsewhere.
    regions are boolean (L, L) masks: (omega,) for alg1, one disjoint region
    per member for alg2; omega is their union.

    A NamedTuple rather than a frozen dataclass: the class is built on every
    fresh import, where a frozen dataclass costs about 1.5 ms.
    """

    grid: Grid
    algorithm: str
    n_windows: int
    den: np.ndarray
    regions: tuple
    omega: np.ndarray


def make_plan(family: WindowFamily, grid: Grid, cfg: RetrievalConfig) -> RetrievalPlan:
    """Denominator and regions of `family` on `grid` for cfg.algorithm; each
    member's ambiguity is evaluated once."""
    eps = raw_threshold(cfg, grid)
    if cfg.algorithm == "alg1":
        den = family.summed_on_lattice(grid)  # real, so conj(den) = den
        omega = den > eps
        if not omega.any():
            raise EmptyMaskError("summed ambiguity nowhere exceeds the tolerance")
        regions = (omega,)
    else:
        den = np.zeros((grid.L, grid.L))
        omega = np.zeros((grid.L, grid.L), dtype=bool)
        regions = []
        for values, bits in peel(family, eps, grid):
            den[bits] = values[bits]  # |A g| > eps on bits, and A g is real
            omega |= bits
            regions.append(bits)
        if not omega.any():
            raise EmptyMaskError("no stability set exceeds the tolerance")
        regions = tuple(regions)
    return RetrievalPlan(grid=grid, algorithm=cfg.algorithm, n_windows=len(family),
                         den=den, regions=regions, omega=omega)


def _check_plan(measurements, plan: RetrievalPlan, algorithm: str) -> Grid:
    if plan.algorithm != algorithm:
        raise ValueError(f"{algorithm} assembly needs an {algorithm} plan, got {plan.algorithm}")
    grid = measurement_grid(measurements, plan.n_windows)
    if grid != plan.grid:
        raise GridMismatchError("measurements and plan live on different grids")
    return grid


def assemble_alg1(measurements, plan: RetrievalPlan) -> AmbiguityGrid:
    """Summed-denominator assembly: J = F(sum_j |V_{g_j} f|^2) / sum_j A g_j
    on the superlevel set of the sum, zero outside.  The map from a
    spectrogram to its product is linear, so one 2D FFT of the summed
    spectrogram replaces one per window."""
    grid = _check_plan(measurements, plan, "alg1")
    power = measurements[0].power.copy(order="K")  # keep the powers' own layout
    for mea in measurements[1:]:
        power += mea.power
    J = spectrogram_to_product(Measurement(grid=grid, window_id="sum", power=power)).values
    np.divide(J, plan.den, out=J, where=plan.omega)
    J[~plan.omega] = 0
    return AmbiguityGrid(grid=grid, values=J, mask=plan.omega)


def assemble_alg2(measurements, plan: RetrievalPlan) -> AmbiguityGrid:
    """Peeled assembly: on each disjoint region the corresponding
    measurement alone is divided by its window's ambiguity."""
    grid = _check_plan(measurements, plan, "alg2")
    J = np.zeros((grid.L, grid.L), dtype=np.complex128)
    for mea, bits in zip(measurements, plan.regions):
        if not bits.any():
            continue
        G = spectrogram_to_product(mea).values
        np.divide(G, plan.den, out=J, where=bits)
    return AmbiguityGrid(grid=grid, values=J, mask=plan.omega)


def reconstruct_from_ambiguity(A: AmbiguityGrid, cfg: RetrievalConfig) -> Reconstruction:
    """Invert a (masked) ambiguity lattice to a signal, up to global phase.

    The lattice is first converted to the V_f f convention by the exact
    phase factor exp(-i*pi*x*y), read from a table of 2L-th roots of unity
    (`xy_phase`); the inverse transform along y then lands on integer
    lattice offsets, f(x + c) for lattice anchors c, so no interpolation
    is needed.  One inverse FFT along y serves every column, and the
    signal is read off its (k + c, k) diagonal.  The anchor maximizes
    |w(c)| for the profile w(c) = (inverse transform of A(0, .))(c), an
    estimate of |f(c)|^2, and the output is normalized by sqrt(|u_c(0)|),
    which fixes the phase factor at the anchor instead of requiring
    knowledge of f(c).
    """
    grid = A.grid
    L = grid.L
    sgn = (-1.0) ** np.arange(L)
    scale = grid.dy * 1j ** (L % 4) * L  # dy * exp(+i*pi*L/2) * L undoes ifft's 1/L

    Vff = np.zeros((L, L), dtype=np.complex128)
    np.multiply(A.values, xy_phase(grid, -1), out=Vff,
                where=True if A.mask is None else A.mask)
    Vff *= sgn[:, None]
    k0 = L // 2  # the x = 0 column, where the phase factor is 1
    slice_l1 = grid.dy * float(np.sum(np.abs(Vff[:, k0])))
    U = np.fft.ifft(Vff, axis=0)  # U[j, k] = (1/L) sum_m Vff[m, k] sgn[m] exp(2i*pi*m*j/L)
    del Vff

    # anchor profile from the x=0 column
    wprof = sgn * (scale * U[:, k0])  # w carries a (-1)^l factor
    if cfg.anchor is not None:
        anchor = int(cfg.anchor) % L
    else:
        if slice_l1 <= 0 or np.max(np.abs(wprof)) < 1e-10 * slice_l1:
            raise DegenerateAnchorError("anchor profile is numerically zero")
        anchor = int(np.argmax(np.abs(wprof)))
    u0 = wprof[anchor]
    if slice_l1 <= 0 or abs(u0) < 1e-10 * slice_l1:
        raise DegenerateAnchorError(f"anchor {anchor} has |u_c(0)| ~ 0")

    # diagonal of the inverse transform: u_c(x_k) = uhat(x_k, x_k + c)
    s = anchor - L // 2
    k = np.arange(L)
    u_diag = scale * ((-1.0) ** (k + s)) * U[(k + s) % L, k]
    vals = u_diag / np.sqrt(abs(u0))
    out = np.zeros(L, dtype=np.complex128)
    out[(k + s) % L] = vals

    omega_frac = float(A.mask.mean()) if A.mask is not None else 1.0
    return Reconstruction(
        signal=Signal(grid=grid, values=out),
        ambiguity=A,
        omega_area_fraction=omega_frac,
        anchor_c=anchor,
        diagnostics={"u0": complex(u0), "anchor_profile_max": float(np.max(np.abs(wprof)))},
    )


def _run(assemble, measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    plan = make_plan(family, measurement_grid(measurements, len(family)), cfg)
    return replace(reconstruct_from_ambiguity(assemble(measurements, plan), cfg), plan=plan)


def run_alg1(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Multi-window retrieval with the summed positive denominator
    (fractional-Gauss window families)."""
    return _run(assemble_alg1, measurements, family, replace(cfg, algorithm="alg1"))


def run_alg2(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Multi-window retrieval on peeled disjoint regions (Hermite window
    families with ascending degrees)."""
    return _run(assemble_alg2, measurements, family, replace(cfg, algorithm="alg2"))


def single_window_retrieve(measurement: Measurement, evaluator,
                           cfg: RetrievalConfig) -> Reconstruction:
    """Single-window pointwise inversion (the instability baseline)."""
    family = WindowFamily(
        members=(WindowMember(window_id=measurement.window_id,
                              samples=np.zeros(measurement.grid.L),
                              evaluator=evaluator),),
        scheme="single",
    )
    return run_alg2([measurement], family, cfg)
