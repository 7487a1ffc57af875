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
off omega (`owner`), records each group's first and last row (`spans`)
and holds den only on omega's row band, from its first row (`first`) to
its last.  `make_plan` builds it, evaluating each member's ambiguity
once, and the family keeps the last plan it was run with
(`WindowFamily.plans`), like an FFTW plan: a setup that retrieves many
signals builds it once per tolerance and algorithm.  The plan's
arrays are read-only, since every run after the first shares them.

The spectrogram -> product map is linear, so a group's spectrograms are
summed and the sum transformed once, its first pass keeping only the
lines that the group's span reads (`ambiguity.FirstPass`, whose
finiteness check covers every member).  `measure_lines`, the one
measurement stream, makes these lines from the STFT's row blocks, and no
power is held.  Callers with measured data keep the list API:
`measure_family` returns one float64 (L, L) power per member, which the
runners add by group in two halves, one on each core (`_group_sum`), and
turn into each group's lines as the division reaches it: only `Lines`
reach the map.  `run_alg1` and `run_alg2` take either form, with the
family's `stored_plan`;
`_divide` divides each block of a group's product (`group_blocks`, the
noise-bound check's reader too) straight into J on the group's cells,
two groups at a time when it is handed their lines in a list.  J,
complex, holds den's rows, from row `first` on, +0.0 off omega, and the
inversion reads J and `first` alone (`_invert`).  A `Reconstruction`
keeps the signal and the plan, whose omega is the mask.

The plan evaluates each window's ambiguity only where it exceeds a floor
far below eps, so a fan window costs its ellipse, a few percent of the
lattice, and omega is the full lattices' omega (the bound is in
`windows.peel`).  A Hermite family's ambiguities are radial: `peel`
claims its cells on the quadrant x, y <= 0 only and skips the outer rows
that lie in every degree's decreasing tail at or below the floor (the
tail argument is in `ambiguity.hermite_rows`).

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

from .ambiguity import FirstPass, Lines, lines_of, product_blocks, unit_roots
from .exceptions import DegenerateAnchorError, EmptyMaskError, GridMismatchError
from .grid import Grid, Signal
from .stft import (block_height, check_noise, draw_noise, signal_rows, stft_block, stft_power,
                   window_factor)
from .windows import WindowFamily, _check_unit_epsilon, peel, row_span
from .workers import _two_at_a_time


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


def measure_lines(f: Signal, family: WindowFamily, plan: RetrievalPlan, noise=None,
                  sums: bool = True, noise_sums: bool = True):
    """Measure f through the family straight into each plan group's first
    pass: (lines, noise_lines), one `Lines` per group in plan order, None
    when not asked for: those of the group's summed (noisy) powers on its
    span, for the runners, and with noise = (model, level, seed) those of
    its summed noise with the L1, for the noise-bound check.  Each
    member's STFT row block (`stft.stft_block`) is squared, contaminated
    by window j's own generator, seeded seed + j, in row order
    (`stft.draw_noise`), and added into the group's sum blocks in member
    order: the list path's bits, and no power held.  Two groups stream at
    a time, one on each core; one group is split by its members.
    """
    if f.grid != family.grid or plan.grid != family.grid:
        raise GridMismatchError(f"signal grid {f.grid} differs from the family's or the plan's")
    if sorted(j for g in plan.groups for j in g) != list(range(len(family))):
        raise ValueError(f"the plan's groups {plan.groups} do not cover {len(family)} windows")
    if noise is not None:
        check_noise(*noise[:2])
    rows, factors = signal_rows(f), [window_factor(m.samples, family.grid) for m in family.members]
    noise_sums = noise is not None and noise_sums
    lines, noise_lines = zip(*_two_at_a_time(
        lambda i: _group_lines(rows, factors, plan, i, noise, sums, noise_sums),
        len(plan.groups)))
    return (list(lines) if sums else None), (list(noise_lines) if noise_sums else None)


def _group_lines(rows, factors, plan, i, noise, sums, noise_sums):
    """Group i's (lines, noise_lines) for `measure_lines`, a block of rows
    at a time.  Side 0 adds the first half of the members into row block
    c and side 1 the rest into block c - 1, then feeds its sums to the
    first passes, so every cell is added in member order.  A plan of one
    group splits: its sides run on the two cores, two blocks of sums in
    turn.  The first member is measured straight into the sums."""
    group, L, split = plan.groups[i], plan.grid.L, len(plan.groups) == 1
    n, half = block_height(L), (len(group) + 1) // 2
    rngs = {j: np.random.default_rng(noise[2] + j) for j in group} if noise else None
    passes = (FirstPass(plan.grid, plan.spans[i] if sums else None),
              FirstPass(plan.grid, plan.spans[i], l1=True) if noise_sums else None)
    totals = np.empty((1 + split, 1 + noise_sums, n, L))  # block c's sums in totals[c % len]
    work = ({}, {})  # each side's blocks, made as first needed

    def buf(side, name, h, dtype=np.float64):
        if name not in work[side]:
            work[side][name] = np.empty((n, L), dtype=dtype)
        return work[side][name][:h]

    def step(side, c):
        if not 0 <= (m0 := c * n) < L:  # the pipeline's first and last step
            return
        h = min(n, L - m0)
        total = totals[c % len(totals), :, :h]
        for k in range(half, len(group)) if side else range(half):
            coeffs = stft_block(rows, factors[group[k]], m0, buf(side, "coeffs", h, np.complex128))
            clean = buf(side, "clean", h) if k or rngs is not None else total[0]
            np.square(np.abs(coeffs, out=clean), out=clean)
            if rngs is not None:
                noisy = draw_noise(rngs[group[k]], clean, noise[0], noise[1],
                                   buf(side, "noisy", h) if k else total[0])
                if noise_sums:  # the noise, noisy - clean
                    eta = np.subtract(noisy, clean, out=clean if k else total[1])
                    if k:
                        total[1] += eta
            if k:
                total[0] += clean if rngs is None else noisy
        for p, t in zip(passes, total) if side else ():  # no noise sums: one layer, one pass
            p.add(t)

    for c in range(-(-L // n) + split):  # split: side 1 takes block c - 1
        if split:
            _two_at_a_time(lambda side: step(side, c - side), 2)
        else:
            step(0, c), step(1, c)
    return tuple(None if p is None else p.lines() for p in passes)


def check_powers(powers, n: int, grid: Grid) -> list:
    """n float64 (L, L) arrays, one per window; float64 arrays pass uncopied."""
    if len(powers) != n:
        raise ValueError(f"{len(powers)} measurements for {n} windows")
    powers = [np.asarray(p, dtype=np.float64) for p in powers]
    if any(p.shape != (grid.L, grid.L) for p in powers):
        raise ValueError(f"an array's shape is not {(grid.L, grid.L)}")
    return powers


class RetrievalPlan(NamedTuple):
    """The measurement-independent part of an assembly, built once by `make_plan`.

    epsilon is the raw threshold the cells were claimed at (`raw_threshold`).
    groups partitions the member indices in order (alg1: one group of all,
    alg2: one per member).  owner is the (L, L) lattice of the index of the
    group that claimed each cell, -1 off omega, and omega is owner >= 0.
    den, real, is each group's ambiguity sum on its cells, 0 off omega, on
    omega's row band only: row r of den is lattice row first + r, and the
    band runs from omega's first row to its last, the rows J is held on.
    spans holds each group's
    `row_span` of its cells, None for a group that claimed none: the rows
    its product is read out on (`group_blocks`).

    A NamedTuple rather than a frozen dataclass: the class is built on every
    fresh import, where a frozen dataclass costs about 1.5 ms.
    """

    grid: Grid
    epsilon: float
    groups: tuple
    den: np.ndarray
    first: int
    owner: np.ndarray
    spans: tuple

    @property
    def omega(self) -> np.ndarray:
        return self.owner >= 0


def make_plan(family: WindowFamily, cfg: RetrievalConfig) -> RetrievalPlan:
    """Denominator, owner labels and group row spans of `family` on its grid
    for cfg.algorithm, each member's ambiguity evaluated once; the arrays
    are read-only, since the family stores the plan for every later run."""
    grid = family.grid
    eps = raw_threshold(cfg, grid)
    if cfg.algorithm == "alg2":  # a single window's ambiguity peaks at 1
        _check_unit_epsilon(eps)
    n = len(family)  # alg1: one group of all n members, alg2: one group per member
    groups = (tuple(range(n)),) if cfg.algorithm == "alg1" else tuple((j,) for j in range(n))
    den, first, owner = peel(family, groups, eps)
    if not len(den):
        raise EmptyMaskError("no window group's ambiguity exceeds the tolerance")
    spans = tuple(row_span(owner == i) for i in range(len(groups)))
    den.flags.writeable = owner.flags.writeable = False  # a stored plan is shared by every run
    return RetrievalPlan(grid=grid, epsilon=eps, groups=groups, den=den, first=first,
                         owner=owner, spans=spans)


def _group_sum(powers, group) -> np.ndarray:
    """The group's powers added in member order; a group of one is its
    member's own power.

    A sum of two or more powers is added in two halves, cut along the
    powers' axis of largest stride so that each half is one contiguous run
    of memory.  The halves go through `_two_at_a_time`, so the second one
    is added on a second thread when there are two cores.  Every cell is
    still added in member order, so the sums have the serial loop's bits.
    """
    if len(group) == 1:
        return powers[group[0]]
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
    return power


def group_blocks(lines: Lines, plan: RetrievalPlan, i: int):
    """Yield (m0, G), the `product_blocks` of group i's lines on its rows
    (plan.spans[i]); lines holding a non-finite value are refused with a
    ValueError naming the group."""
    return product_blocks(lines, plan.grid, plan.spans[i], f"group {i}'s lines")


def _divide_group(lines: Lines, plan: RetrievalPlan, i: int, J: np.ndarray | None):
    """Divide group i's product, block by block (`group_blocks`), into J on
    the group's cells, and return J; a J of None is made, zeros, once the
    lines are transformed."""
    first = plan.first
    for m0, block in group_blocks(lines, plan, i):
        if J is None:
            J = np.zeros(plan.den.shape, dtype=np.complex128)
        m1 = m0 + len(block)
        band = slice(m0 - first, m1 - first)
        np.divide(block, plan.den[band], out=J[band], where=plan.owner[m0:m1] == i)
    return J


def _divide(lines, plan: RetrievalPlan) -> np.ndarray:
    """J = F(group sum) / den on each group's cells, +0.0 off omega, on
    den's rows: row r of J is lattice row plan.first + r, from one `Lines`
    per group, each divided by the one kernel `_divide_group`.

    From a list of lines, as `measure_lines` makes them, J is made first
    and two groups are divided into it at a time (`_two_at_a_time`): each
    writes its own cells, and no cell is written twice, so J has the
    serial loop's bits.  Lines from an iterator, as `_run` makes them from
    powers, are taken one group at a time as the division reaches them,
    and J is made once the first group's are transformed: no two groups'
    lines are alive at once.
    """
    if isinstance(lines, list):
        J = np.zeros(plan.den.shape, dtype=np.complex128)
        _two_at_a_time(lambda i: _divide_group(lines[i], plan, i, J), len(plan.groups))
        return J
    lines, J = iter(lines), None
    for i in range(len(plan.groups)):
        J = _divide_group(next(lines), plan, i, J)  # no name keeps the lines alive
    return J


# lattice rows `_invert` sums at a time: the grouping of its column sums,
# so another height moves the reconstruction's bits
INVERT_ROWS = 64


def reconstruct_from_ambiguity(values, grid: Grid, cfg: RetrievalConfig,
                               mask: np.ndarray | None = None) -> Reconstruction:
    """Invert the ambiguity lattice `values`, complex (L, L) on `grid`, read
    on the boolean (L, L) mask (all of it when there is none), to a signal,
    up to global phase.  Raises ValueError for a lattice or a mask of
    another shape.  The mask's row band is copied with +0.0 off the mask,
    the form of the runners' J, and inverted (`_invert`); without a mask
    nothing is copied."""
    L = grid.L
    values = np.asarray(values, dtype=np.complex128)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    for name, array in (("lattice", values), ("mask", mask)):
        if array is not None and array.shape != (L, L):
            raise ValueError(f"{name} shape {array.shape} does not match the grid's {(L, L)}")
    first, area = 0, 1.0
    if mask is not None:
        first, stop = row_span(mask) or (0, 0)
        values = np.where(mask[first:stop], values[first:stop], 0)
        area = float(np.count_nonzero(mask) / mask.size)  # mask.mean()'s bits
    samples, anchor = _invert(values, first, grid, cfg)
    return Reconstruction(Signal(grid=grid, values=samples), area, anchor)


def _invert(J: np.ndarray, first: int, grid: Grid, cfg: RetrievalConfig) -> tuple:
    """(samples, anchor) of the signal, up to global phase, from the
    complex rows J, lattice rows first on, of an ambiguity lattice that is
    zero elsewhere.

    The lattice is converted to the V_f f convention by the exact phase
    factor exp(-i*pi*x*y); the inverse transform along y then lands on
    integer lattice offsets, f(x + c) for lattice anchors c, so no
    interpolation is needed.  Only the cells the signal is read from are
    computed: with s = c - L/2 and j_k = (k + s) mod L,

        u_c(x_k) = dy i^L (-1)^(k+s) sum_m A[m, k] zeta^e,
        e = -(k - L/2)(m - L/2) + L m + 2 m j_k  (mod 2L),

    summed over J's rows, with zeta = exp(i*pi/L) read from the 2L-entry
    table of `unit_roots`.  As e = m a_k + b_k, the rows are taken
    INVERT_ROWS at a time: a block starting at row m0 multiplies its cells
    by one block of powers zeta^((m - m0) a_k), sums each column, and
    scales the column sums by zeta^(m0 a_k + b_k).  That is O(L R) work for
    R rows and two blocks of memory, with no L x L buffer.  J's +0.0 cells
    off omega leave every diagonal entry's bits as a mask would.

    The anchor maximizes |w(c)| for the profile w(c), one length-L inverse
    FFT of the x = 0 column, where the phase factor is 1: an estimate of
    |f(c)|^2.  The output is normalized by sqrt(|u_c(0)|), which fixes the
    phase factor at the anchor instead of requiring knowledge of f(c).
    """
    L = grid.L
    h = L // 2
    k = np.arange(L)
    sgn = (-1.0) ** k

    col = np.zeros(L, dtype=np.complex128)
    col[first:first + len(J)] = J[:, h]
    col *= sgn
    slice_l1 = grid.dy * float(np.sum(np.abs(col)))
    wprof = sgn * ((grid.dy * 1j ** (L % 4) * L) * np.fft.ifft(col))  # w carries (-1)^l
    anchor = int(np.argmax(np.abs(wprof))) if cfg.anchor is None else int(cfg.anchor) % L
    u0 = wprof[anchor]  # at the auto anchor |u0| = max |w|, so one check covers both
    if slice_l1 <= 0 or abs(u0) < 1e-10 * slice_l1:  # also no rows, or none on x = 0
        raise DegenerateAnchorError(f"anchor {anchor} has |u_c(0)| ~ 0")

    # the diagonal u_c(x_k) = uhat(x_k, x_k + c), at time index j_k
    s = anchor - h
    j = (k + s) % L
    roots = unit_roots(L)
    a = (L - (k - h) + 2 * j) % (2 * L)
    b = (h * (k - h)) % (2 * L)
    powers = roots[np.multiply.outer(np.arange(min(INVERT_ROWS, len(J))), a) % (2 * L)]
    terms = np.empty_like(powers)
    diag = np.zeros(L, dtype=np.complex128)
    for r0 in range(0, len(J), INVERT_ROWS):
        rows = J[r0:r0 + INVERT_ROWS]
        block = np.multiply(rows, powers[:len(rows)], out=terms[:len(rows)])
        diag += roots[((first + r0) * a + b) % (2 * L)] * block.sum(axis=0)
    out = np.zeros(L, dtype=np.complex128)
    out[j] = (grid.dy * 1j ** (L % 4)) * ((-1.0) ** (k + s)) * diag / np.sqrt(abs(u0))
    return out, anchor


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
    algorithm, from one `Lines` per group (`measure_lines`), which the
    division transforms in place, or from one power per member: each group
    sum, of two or more added on both cores (`_group_sum`), turns into its
    lines here, the one place a power does.
    """
    grid = family.grid
    lined = len(measurements) > 0 and all(isinstance(m, Lines) for m in measurements)
    if not lined:
        powers = check_powers(measurements, len(family), grid)
    elif len(measurements) != (groups := 1 if cfg.algorithm == "alg1" else len(family)):
        raise ValueError(f"{len(measurements)} line sets for {groups} window groups")
    check_anchor(cfg, grid)
    plan = stored_plan(family, cfg)
    # each group sum is made as _divide reaches it and dies once it is lines
    J = _divide(list(measurements) if lined else (lines_of(_group_sum(powers, g), grid, span)
                                                  for g, span in zip(plan.groups, plan.spans)),
                plan)
    samples, anchor = _invert(J, plan.first, grid, cfg)
    area = float(np.count_nonzero(plan.owner >= 0) / plan.owner.size)  # omega.mean()'s bits
    return Reconstruction(Signal(grid=grid, values=samples), area, anchor, plan)


def run_alg1(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Multi-window retrieval with the summed positive denominator
    (fractional-Gauss window families)."""
    return _run(measurements, family, replace(cfg, algorithm="alg1"))


def run_alg2(measurements, family: WindowFamily, cfg: RetrievalConfig) -> Reconstruction:
    """Multi-window retrieval on peeled disjoint regions (Hermite window
    families with ascending degrees); on a one-window family it is the
    single-window baseline."""
    return _run(measurements, family, replace(cfg, algorithm="alg2"))
