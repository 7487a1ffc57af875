"""Direct phase retrieval: masked pointwise division of spectrogram
products, assembly of the signal ambiguity function, anchor selection,
and the final one-dimensional inversion back to the signal.

Retrieval plan
--------------
Both algorithms divide spectrogram products by window ambiguities where
those exceed the tolerance; they differ only in how the windows are
grouped, and the single-window baseline is alg2 on a one-window family.
A `RetrievalPlan` partitions the family into groups (alg1: one group of
every member; alg2: one group per member), and each group claims the
cells where |sum of its ambiguities| > eps that no earlier group claimed
(`windows.peel`); the plan labels each cell with its group's index, -1
off omega (`owner`).  `make_plan` builds it, evaluating each
member's ambiguity once, and the family keeps the last plan it was run
with (`WindowFamily.plans`), like an FFTW plan: a setup that retrieves
many signals builds it once per tolerance and algorithm.  The plan's
arrays are read-only, since every run after the first shares them.
A measurement is its float64 (L, L) power on the family's grid, and one
finiteness check on each group sum covers every member of the group.
Since the spectrogram -> product map is linear, a group's
spectrograms are summed and the sum is transformed once, over half the
plane (`ambiguity.product_blocks`), and freed.  Only the rows from the
first to the last row of the group's cells are read out, a block at a
time, and divided straight into J on the block's cells labelled with the
group; J is zero off omega.  J is a bare complex (L, L) array on the
plan's grid, inverted on the plan's omega (`reconstruct_from_ambiguity`)
and freed when the runner returns: a `Reconstruction` keeps the signal
and the plan, whose omega is the mask.
`run_alg1` and `run_alg2` take the family's stored plan, or build it in
the calling thread and store it (`stored_plan`); then the powers of each
group of two or more members are added in two contiguous halves, one on
each core (`_two_at_a_time`), so the sums, den and J have the serial bits.
A caller that needs the plan before it measures, as the CLI does to sum
each group's noise while drawing it, calls `stored_plan` first, and the
retrieval then finds that plan stored.

A fractional-Gauss window's ambiguity is an ellipse that covers a few
percent of the lattice, so `peel` evaluates each one only where it
exceeds floor = windows.LATTICE_FLOOR * eps = 1e-20 * eps.  A Hermite
window's ambiguity exp(-z/2) L_n(z), z = pi (x^2 + y^2), decreases in
|.| once z >= 6n + 2: every zero of L_n lies below 4n + 2, so there each
term of d/dz ln|L_n| = sum 1/(z - z_i) is below 1/(2n) and the sum below
1/2.  `peel` runs the Laguerre recurrence once for all Hermite members
(`ambiguity.hermite_lattices`) and skips the outer lattice rows whose
x = 0 cell lies in that tail at or below floor for every degree; every
cell of those rows is at most floor too.  The cells left out hold
values of magnitude <= floor, so a group of N windows loses at most
N * floor, about 1e-18 of eps for a 40-window fan: a cell's sum can
cross eps only if it lies that close to eps, so omega is the full
lattices' omega.  Every evaluated cell has the bits of the full lattice,
and on omega the dropped terms lie below the rounding of the much larger
sum, so den has matched the full-lattice sum there bit for bit on W1, W2
and on every family the property tests draw.

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

import contextvars
import os
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ambiguity import product_blocks, unit_roots
from .exceptions import DegenerateAnchorError, EmptyMaskError, GridMismatchError
from .grid import Grid, Signal
from .stft import stft_power
from .windows import WindowFamily, peel


@dataclass(frozen=True)
class RetrievalConfig:
    epsilon: float
    anchor: int | None = None       # None: auto-select; int: fixed time index in (-L, L)
    algorithm: str = "alg1"          # alg1 (summed gauss) | alg2 (peeled hermite)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.algorithm not in ("alg1", "alg2"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


class Reconstruction(NamedTuple):
    signal: Signal
    omega_area_fraction: float
    anchor_c: int
    plan: RetrievalPlan | None = None  # the plan J was divided with; omega is its mask


def raw_threshold(cfg: RetrievalConfig, grid: Grid) -> float:
    """Analytic ambiguity threshold corresponding to the config tolerance."""
    return cfg.epsilon * grid.dt


def _two_at_a_time(fn, n: int) -> list:
    """[fn(j) for j in range(n)], with the odd j on a second thread when the
    process may run on two cores.

    numpy's FFTs and random draws release the GIL, so two independent calls
    overlap.  Each result is stored at its own index, so the list has the
    serial loop's bits.  The worker runs in a copy of the caller's context,
    which carries np.errstate (a bare thread starts from numpy's defaults);
    an exception it raises is raised here after the join, and a failure on
    either side stops the other at its next index.
    """
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if n < 2 or cores < 2:
        return [fn(j) for j in range(n)]
    out = [None] * n
    failed = []

    def run(first):
        for j in range(first, n, 2):
            if failed:
                return
            out[j] = fn(j)

    def odd():
        try:
            run(1)
        except BaseException as exc:  # handed to the caller, which raises it
            failed.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(odd,))
    worker.start()
    try:
        run(0)
    except BaseException:
        failed.append(None)  # stops the worker at its next index
        raise
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return out


def measure_family(f: Signal, family: WindowFamily) -> list[np.ndarray]:
    """Noiseless |V_g f|^2 of f on the family's grid, one power per member.

    Two windows are in flight at a time (`_two_at_a_time`), each in
    `stft_power`, and each power is stored at its member's index, in member
    order, with the bits of the serial loop.
    """
    if f.grid != family.grid:
        raise GridMismatchError(f"signal grid {f.grid} differs from the family's {family.grid}")
    members = family.members
    return _two_at_a_time(lambda j: stft_power(f, members[j].samples), len(members))


def check_powers(powers, n_windows: int, grid: Grid) -> list[np.ndarray]:
    """One float64 (L, L) power per window; float64 arrays pass uncopied."""
    if len(powers) != n_windows:
        raise ValueError(f"{len(powers)} measurements for {n_windows} windows")
    powers = [np.asarray(p, dtype=np.float64) for p in powers]
    if any(p.shape != (grid.L, grid.L) for p in powers):
        raise ValueError(f"a measurement's shape is not {(grid.L, grid.L)}")
    return powers


def check_finite(power: np.ndarray) -> np.ndarray:
    """power, after checking that every entry is finite."""
    if not np.isfinite(power).all():
        raise ValueError("measurement contains non-finite entries")
    return power


class RetrievalPlan(NamedTuple):
    """The measurement-independent part of an assembly, built once by `make_plan`.

    epsilon is the raw threshold the cells were claimed at (`raw_threshold`).
    groups partitions the member indices in order (alg1: one group of all,
    alg2: one per member).  owner is the (L, L) lattice of the index of the
    group that claimed each cell, -1 off omega, and omega is owner >= 0.
    den, real (L, L), is each group's ambiguity sum on its cells, 0 off omega.

    A NamedTuple rather than a frozen dataclass: the class is built on every
    fresh import, where a frozen dataclass costs about 1.5 ms.
    """

    grid: Grid
    epsilon: float
    groups: tuple
    den: np.ndarray
    owner: np.ndarray

    @property
    def omega(self) -> np.ndarray:
        return self.owner >= 0


def make_plan(family: WindowFamily, cfg: RetrievalConfig) -> RetrievalPlan:
    """Denominator and owner labels of `family` on its grid for
    cfg.algorithm, each member's ambiguity evaluated once; both are
    read-only, since the family stores the plan for every later run."""
    grid = family.grid
    eps = raw_threshold(cfg, grid)
    if cfg.algorithm == "alg2" and eps >= 1:  # a single window's ambiguity peaks at 1
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    n = len(family)  # alg1: one group of all n members, alg2: one group per member
    groups = (tuple(range(n)),) if cfg.algorithm == "alg1" else tuple((j,) for j in range(n))
    den, owner = peel(family, groups, eps)
    if owner.max() < 0:
        raise EmptyMaskError("no window group's ambiguity exceeds the tolerance")
    den.flags.writeable = owner.flags.writeable = False  # a stored plan is shared by every run
    return RetrievalPlan(grid=grid, epsilon=eps, groups=groups, den=den, owner=owner)


def row_span(bits: np.ndarray) -> tuple[int, int] | None:
    """(first, stop) of the rows holding a True cell of bits; None if none."""
    live = np.flatnonzero(bits.any(axis=1))
    return (int(live[0]), int(live[-1]) + 1) if live.size else None


def _group_sums(powers, groups):
    """Each group's `_group_sum`, made as the iterator reaches it and not kept."""
    return (_group_sum(powers, group) for group in groups)


def _group_sum(powers, group) -> np.ndarray:
    """The group's powers added in member order and checked finite; a
    group of one is its member's own power.

    A sum of two or more powers is added in two halves, cut along the
    powers' axis of largest stride so that each half is one contiguous run
    of memory.  The halves go through `_two_at_a_time`, so the second one
    is added on a second thread when there are two cores.  Every cell is
    still added in member order, so the sums have the serial loop's bits.
    """
    if len(group) == 1:
        return check_finite(powers[group[0]])
    members = [powers[j] for j in group]
    power = np.empty_like(members[0])  # keep the powers' own layout
    axis = int(np.argmax(power.strides))
    n = power.shape[axis]

    def add(i):
        block = (slice(None),) * axis + (slice(n * i // 2, n * (i + 1) // 2),)
        out = power[block]
        np.copyto(out, members[0][block])
        for p in members[1:]:
            out += p[block]

    _two_at_a_time(add, 2)
    return check_finite(power)


def _divide(sums, plan: RetrievalPlan) -> np.ndarray:
    """J = F(group sum) / den on each group's cells, zero off omega, block
    by block (`product_blocks`); J, complex (L, L), is allocated once a sum
    is transformed."""
    J = None
    sums = iter(sums)  # no loop variable or zip tuple keeps a sum alive
    for i in range(len(plan.groups)):
        for m0, block in product_blocks(next(sums), plan.grid, row_span(plan.owner == i)):
            if J is None:
                J = np.zeros(plan.den.shape, dtype=np.complex128)
            m1 = m0 + len(block)
            np.divide(block, plan.den[m0:m1], out=J[m0:m1], where=plan.owner[m0:m1] == i)
    return J


# lattice rows `reconstruct_from_ambiguity` sums at a time
INVERT_ROWS = 64


def reconstruct_from_ambiguity(values, grid: Grid, cfg: RetrievalConfig,
                               mask: np.ndarray | None = None) -> Reconstruction:
    """Invert the ambiguity lattice `values`, complex (L, L) on `grid`, read
    on the boolean (L, L) mask (all of it when there is none), to a signal,
    up to global phase.  Raises ValueError for a lattice or a mask of
    another shape.

    The lattice is converted to the V_f f convention by the exact phase
    factor exp(-i*pi*x*y); the inverse transform along y then lands on
    integer lattice offsets, f(x + c) for lattice anchors c, so no
    interpolation is needed.  Only the cells the signal is read from are
    computed: with s = c - L/2 and j_k = (k + s) mod L,

        u_c(x_k) = dy i^L (-1)^(k+s) sum_m A[m, k] zeta^e,
        e = -(k - L/2)(m - L/2) + L m + 2 m j_k  (mod 2L),

    summed over the mask's rows, with zeta = exp(i*pi/L) read from the
    2L-entry table of `unit_roots`.  As e = m a_k + b_k, the rows are
    taken INVERT_ROWS at a time: a block starting at row m0 multiplies its
    cells by one block of powers zeta^((m - m0) a_k), sums each column,
    and scales the column sums by zeta^(m0 a_k + b_k).  That is O(L R)
    work for R rows and two blocks of memory, with no L x L buffer.

    The anchor maximizes |w(c)| for the profile w(c), one length-L inverse
    FFT of the x = 0 column, where the phase factor is 1: an estimate of
    |f(c)|^2.  The output is normalized by sqrt(|u_c(0)|), which fixes the
    phase factor at the anchor instead of requiring knowledge of f(c).
    """
    L = grid.L
    values = np.asarray(values, dtype=np.complex128)
    mask = np.ones((L, L), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    for name, array in (("lattice", values), ("mask", mask)):
        if array.shape != (L, L):
            raise ValueError(f"{name} shape {array.shape} does not match the grid's {(L, L)}")
    h = L // 2
    k = np.arange(L)
    sgn = (-1.0) ** k

    col = np.where(mask[:, h], values[:, h], 0) * sgn
    slice_l1 = grid.dy * float(np.sum(np.abs(col)))
    wprof = sgn * ((grid.dy * 1j ** (L % 4) * L) * np.fft.ifft(col))  # w carries (-1)^l
    anchor = int(np.argmax(np.abs(wprof))) if cfg.anchor is None else int(cfg.anchor) % L
    u0 = wprof[anchor]  # at the auto anchor |u0| = max |w|, so one check covers both
    if slice_l1 <= 0 or abs(u0) < 1e-10 * slice_l1:  # also an empty mask
        raise DegenerateAnchorError(f"anchor {anchor} has |u_c(0)| ~ 0")

    # the diagonal u_c(x_k) = uhat(x_k, x_k + c), at time index j_k
    s = anchor - h
    j = (k + s) % L
    roots = unit_roots(L)
    a = (L - (k - h) + 2 * j) % (2 * L)
    b = (h * (k - h)) % (2 * L)
    r0, r1 = row_span(mask)
    powers = roots[np.multiply.outer(np.arange(min(INVERT_ROWS, r1 - r0)), a) % (2 * L)]
    terms = np.empty_like(powers)
    diag = np.zeros(L, dtype=np.complex128)
    for m0 in range(r0, r1, INVERT_ROWS):
        m1 = min(m0 + INVERT_ROWS, r1)
        block = terms[:m1 - m0]
        block.fill(0)
        np.multiply(values[m0:m1], powers[:m1 - m0], out=block, where=mask[m0:m1])
        diag += roots[(m0 * a + b) % (2 * L)] * block.sum(axis=0)
    out = np.zeros(L, dtype=np.complex128)
    out[j] = (grid.dy * 1j ** (L % 4)) * ((-1.0) ** (k + s)) * diag / np.sqrt(abs(u0))

    return Reconstruction(signal=Signal(grid=grid, values=out),
                          omega_area_fraction=float(mask.mean()), anchor_c=anchor)


def check_anchor(cfg: RetrievalConfig, grid: Grid):
    """Refuse a fixed anchor outside (-L, L): taken mod L it would silently
    read another time index."""
    if cfg.anchor is not None and not -grid.L < cfg.anchor < grid.L:
        raise ValueError(f"anchor {cfg.anchor} lies outside (-{grid.L}, {grid.L})")


def stored_plan(family: WindowFamily, cfg: RetrievalConfig) -> RetrievalPlan:
    """The family's stored plan for cfg's tolerance and algorithm, or one
    built in the calling thread (`make_plan`) and stored in place of the
    last one."""
    key = (raw_threshold(cfg, family.grid), cfg.algorithm)
    plan = family.plans.get(key)
    if plan is None:
        plan = make_plan(family, cfg)
        family.plans.clear()  # one plan per family bounds what it keeps
        family.plans[key] = plan
    return plan


def _run(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Retrieve with the family's `stored_plan` for this tolerance and
    algorithm.  Each group sum of two or more powers is then added on
    both cores, one half each (`_group_sums`), checked, divided out and
    inverted.
    """
    grid = family.grid
    powers = check_powers(measurements, len(family), grid)
    check_anchor(cfg, grid)
    plan = stored_plan(family, cfg)
    # each group sum is made as _divide reaches it and dies once transformed
    J = _divide(_group_sums(powers, plan.groups), plan)
    return reconstruct_from_ambiguity(J, grid, cfg, plan.omega)._replace(plan=plan)


def run_alg1(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Multi-window retrieval with the summed positive denominator
    (fractional-Gauss window families)."""
    return _run(measurements, family, replace(cfg, algorithm="alg1"))


def run_alg2(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Multi-window retrieval on peeled disjoint regions (Hermite window
    families with ascending degrees); on a one-window family it is the
    single-window baseline."""
    return _run(measurements, family, replace(cfg, algorithm="alg2"))
