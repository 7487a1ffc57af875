"""Global-phase misfit and numerical verification of the
noise-propagation inequalities in the mixed L^{2,1} lattice norm.

The misfit between two signals is

    d(f1, f2) = min_theta ||f1 - e^{i theta} f2|| / ||f1||

with the minimizer theta* = arg <f1, f2> available in closed form; it
is also the missing global phase angle.

The noise-bound check takes one noise sum per window group, the group's
noisy minus clean powers added in member order, and transforms each once
(the spectrogram -> product map is linear) instead of assembling the
clean and the noisy ambiguities.  The caller builds the sums as the
noise is drawn, so no list of clean powers is held beside the noisy one.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ambiguity import numeric_ambiguity, product_blocks
from .exceptions import GridMismatchError
from .grid import Signal
from .retrieval import RetrievalPlan, check_finite, check_powers, row_span


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


def verify_noise_bounds(noise_sums, plan: RetrievalPlan,
                        f_true: Signal | None = None) -> BoundReport:
    """Evaluate the noise-propagation inequalities from one noise sum per
    window group of `plan`.

    `plan` is the retrieval plan of the noisy measurements (`make_plan`,
    `stored_plan` or `Reconstruction.plan`); epsilon, C_p and C_R_Omega
    come from it.  noise_sums[i] is the summed noise eta = sum of (noisy -
    clean) over the powers of plan.groups[i], in member order; there must
    be one per group, each a finite (L, L) array.  On a group's cells
    A - A^eta = -F(eta) / den, so each sum is transformed once and read out
    on its cells' rows a block at a time (`product_blocks`), and the
    mixed L^{2,1} norm of A - A^eta and the L1 norm of its x = 0 slice are
    taken from those blocks.  The sums are only read.  With the true
    signal supplied, on the plan's grid, also reports the
    approximation-error terms (the ambiguity mass left outside omega),
    from its ambiguity's |.|.
    """
    grid, eps, owner = plan.grid, plan.epsilon, plan.owner
    p = 2.0  # the mixed norm's inner exponent
    noise_sums = check_powers(noise_sums, len(plan.groups), grid)
    dx, dy = grid.dt, grid.dy
    k0 = grid.L // 2  # x = 0 column
    approx = approx_slice = None
    if f_true is not None:
        if f_true.grid != grid:
            raise GridMismatchError("true signal and plan live on different grids")
        outside = numeric_ambiguity(f_true.values, grid)
        outside[owner >= 0] = 0
        a = np.abs(outside)
        del outside  # |.| is all the terms read
        approx_slice = dy * float(np.sum(a[:, k0]))
        approx = _outer_l1(np.sum(np.power(a, p, out=a), axis=1), dx, dy, p)
    noise_norm = 0.0
    row_sums = np.zeros(grid.L)  # each row's sum of |A - A^eta|^p
    slice_abs = np.zeros(grid.L)  # |A - A^eta| on the x = 0 column
    for i, eta in enumerate(noise_sums):
        check_finite(eta)
        noise_norm = max(noise_norm, dx * dy * float(np.sum(np.abs(eta))))
        for m0, diff in product_blocks(eta, grid, row_span(owner == i)):
            m1 = m0 + len(diff)
            bits = owner[m0:m1] == i
            np.divide(diff, plan.den[m0:m1], out=diff, where=bits)
            a = np.abs(diff)
            a *= bits  # zero off the group's cells
            slice_abs[m0:m1] += a[:, k0]
            row_sums[m0:m1] += np.sum(np.power(a, p, out=a), axis=1)

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
