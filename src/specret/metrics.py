"""Global-phase misfit and numerical verification of the
noise-propagation inequalities in the mixed L^{2,1} lattice norm.

The misfit between two signals is

    d(f1, f2) = min_theta ||f1 - e^{i theta} f2|| / ||f1||

with the minimizer theta* = arg <f1, f2> available in closed form; it
is also the missing global phase angle.

The noise-bound check takes one noise sum per window group, the group's
noisy minus clean powers added in member order, as its first-pass lines
with its L1 (`ambiguity.Lines`), which the measurement stream
(`retrieval.measure_lines`) makes from the STFT's row blocks, so that no
run makes an (L, L) noise or power.  It transforms each group's lines
once (the spectrogram -> product map is linear) instead of assembling
the clean and the noisy ambiguities, in the loop J is divided in
(`retrieval.group_blocks`), and keeps no block of a group once the next
group's lines are transformed.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ambiguity import numeric_ambiguity
from .exceptions import GridMismatchError
from .grid import Signal
from .retrieval import RetrievalPlan, group_blocks


def misfit(f1: Signal, f2: Signal) -> tuple[float, float]:
    """Relative error modulo global phase and the aligning angle.

    Returns (d, theta_star) with theta_star in [0, 2*pi); e^{i theta*} f2
    is the best phase alignment of f2 to f1.
    """
    if f1.grid != f2.grid:
        raise ValueError("signals live on different grids")
    n1 = np.linalg.norm(f1.values)
    if n1 == 0:
        raise ValueError("reference signal is zero")
    inner = np.sum(f1.values * np.conj(f2.values))
    theta = float(np.angle(inner)) if inner != 0 else 0.0
    d = float(np.linalg.norm(f1.values - np.exp(1j * theta) * f2.values) / n1)
    return d, theta % (2 * np.pi)


def _outer_l1(row_sums: np.ndarray, dx: float, dy: float, p: float) -> float:
    """dy * sum over rows of (dx * row_sum)^(1/p), where row_sum holds each
    row's sum of |.|^p: the outer L1 norm of the inner L^p norms in x."""
    return float(dy * np.sum((dx * row_sums) ** (1.0 / p)))


class BoundReport(NamedTuple):
    """Both sides of the data-noise propagation inequalities, evaluated
    with discrete Riemann-weighted norms, the mixed ones with p = 2.

    epsilon is the plan's raw threshold (cfg.epsilon * dt), which bounds
    |den| below on omega; C_p and C_R_Omega are the mixed norm of omega's
    indicator and the length of its y = 0 row.  noise_norm is the largest
    L1 norm of a window group's summed noise: the summed noise for alg1,
    the largest single-window noise for alg2.
    satisfied = (full bound holds, slice bound holds).
    """

    epsilon: float
    p: float
    C_p: float
    C_R_Omega: float
    lhs_A_norm: float
    rhs_bound: float
    lhs_slice: float
    rhs_slice_bound: float
    noise_norm: float
    satisfied: tuple[bool, bool]
    approx_term: float | None = None
    approx_slice_term: float | None = None


def verify_noise_bounds(noise_lines, plan: RetrievalPlan,
                        f_true: Signal | None = None) -> BoundReport:
    """Evaluate the noise-propagation inequalities from one noise sum per
    window group of `plan`.

    `plan` is the retrieval plan of the noisy measurements (`make_plan`,
    `stored_plan` or `Reconstruction.plan`); epsilon, C_p and C_R_Omega
    come from it.  noise_lines holds, for each group of plan.groups in
    order, the `Lines` of its summed noise eta = sum of (noisy - clean)
    over the group's powers in member order, on the group's rows
    (plan.spans) with the L1: the noise lines of `measure_lines`.  They
    are transformed in place, so they serve one check.  A sequence of the
    wrong length, or lines without their L1, are refused with a
    ValueError before any transform.  On a group's cells A - A^eta =
    -F(eta) / den, the division J is made of, so the sums are read out as
    `_divide` reads them (`group_blocks`), and the mixed L^{2,1} norm of
    A - A^eta and the L1 norm of its x = 0 slice are taken from the
    blocks.  With the true signal supplied, on the plan's grid, also
    reports the approximation-error terms (the ambiguity mass left
    outside omega), from its ambiguity's |.|, once the sums are done.
    """
    grid, eps, owner = plan.grid, plan.epsilon, plan.owner
    p = 2.0  # the mixed norm's inner exponent
    if len(noise_lines) != len(plan.groups):
        raise ValueError(f"{len(noise_lines)} noise sums for {len(plan.groups)} window groups")
    for i, lines in enumerate(noise_lines):
        if lines.l1 is None:  # the runner's lines, say
            raise ValueError(f"group {i}'s noise lines have no L1: pass measure_lines' noise lines")
    if f_true is not None and f_true.grid != grid:
        raise GridMismatchError("true signal and plan live on different grids")
    dx, dy = grid.dt, grid.dy
    k0 = grid.L // 2  # x = 0 column
    row_sums = np.zeros(grid.L)  # each row's sum of |A - A^eta|^p
    slice_abs = np.zeros(grid.L)  # |A - A^eta| on the x = 0 column
    for i, m0, diff in group_blocks(noise_lines, plan):
        m1 = m0 + len(diff)
        bits = owner[m0:m1] == i
        np.divide(diff, plan.den[m0 - plan.first:m1 - plan.first], out=diff, where=bits)
        a = np.abs(diff)
        a *= bits  # zero off the group's cells
        slice_abs[m0:m1] += a[:, k0]
        row_sums[m0:m1] += np.sum(np.power(a, p, out=a), axis=1)
        del diff, a, bits  # nothing of the block is held while the next group is transformed
    noise_norm = dx * dy * max(lines.l1 for lines in noise_lines)  # every L1 is finite
    approx = approx_slice = None
    if f_true is not None:
        outside = numeric_ambiguity(f_true.values, grid)
        outside[owner >= 0] = 0
        a = np.abs(outside)
        del outside  # |.| is all the terms read
        approx_slice = dy * float(np.sum(a[:, k0]))
        approx = _outer_l1(np.sum(np.power(a, p, out=a), axis=1), dx, dy, p)

    # the mixed norm of omega's indicator: each row's sum of |1|^p is its cell count
    C_p = _outer_l1(plan.omega.sum(axis=1), dx, dy, p)
    C_R = dx * float(np.sum(owner[k0] >= 0))  # the y = 0 row
    lhs = _outer_l1(row_sums, dx, dy, p)
    rhs = C_p / eps * noise_norm
    lhs_slice = dy * float(np.sum(slice_abs))
    rhs_slice = C_R / eps * noise_norm

    return BoundReport(
        epsilon=eps, p=p, C_p=C_p, C_R_Omega=C_R,
        lhs_A_norm=lhs, rhs_bound=rhs,
        lhs_slice=lhs_slice, rhs_slice_bound=rhs_slice,
        noise_norm=noise_norm,
        satisfied=(bool(lhs <= rhs), bool(lhs_slice <= rhs_slice)),
        approx_term=approx, approx_slice_term=approx_slice,
    )
