"""Global-phase misfit, mixed L^{p,1} lattice norms, and numerical
verification of the noise-propagation inequalities.

The misfit between two signals is

    d(f1, f2) = min_theta ||f1 - e^{i theta} f2|| / ||f1||

with the minimizer theta* = arg <f1, f2> available in closed form; it
is also the missing global phase angle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import numeric_ambiguity
from .exceptions import GridMismatchError
from .grid import Signal
from .retrieval import (
    Reconstruction,
    RetrievalConfig,
    assemble,
    make_plan,
    measurement_grid,
    raw_threshold,
)
from .windows import WindowFamily

NORM_ROWS = 64  # rows of A - A^eta held at a time in the noise-bound norm


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


def _row_norms(values: np.ndarray, dx: float, p: float) -> np.ndarray:
    """Inner L^p norm in x of each row."""
    return (dx * np.sum(np.abs(values) ** p, axis=1)) ** (1.0 / p)


def _mixed_norm(values: np.ndarray, dx: float, dy: float, p: float) -> float:
    return float(dy * np.sum(_row_norms(values, dx, p)))


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the data-noise propagation inequalities, evaluated
    with discrete Riemann-weighted norms.

    epsilon is the raw analytic threshold that lower-bounds the
    denominators on the reconstruction region (cfg.epsilon * dt).
    noise_norm is the largest L1 norm of a window group's summed noise: the
    summed noise for alg1, the largest single-window noise for alg2.
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


def verify_noise_bounds(clean, noisy, family: WindowFamily, cfg: RetrievalConfig,
                        p: float = 2.0, f_true: Signal | None = None,
                        recon: Reconstruction | None = None) -> BoundReport:
    """Evaluate the noise-propagation inequalities on a clean/noisy pair.

    Assembles the masked reconstructions A and A^eta from one retrieval
    plan of cfg.algorithm and compares ||A - A^eta|| in the mixed L^{p,1}
    norm (and the x=0 slice in L1) against the constants-times-noise
    bounds.  Given `recon`, the retrieval of `noisy` with this family, its
    plan and its assembly are reused as the plan and A^eta; the plan must
    have cfg's algorithm and threshold and this family's window ids, or
    ValueError is raised.  With the true signal supplied, also reports the
    approximation-error terms (the ambiguity mass left outside the
    reconstruction region).
    """
    grid = measurement_grid(clean, len(family))
    if measurement_grid(noisy, len(family)) != grid:
        raise GridMismatchError("clean and noisy measurements live on different grids")
    eps = raw_threshold(cfg, grid)
    if recon is None:
        plan = make_plan(family, grid, cfg)
        A_eta = assemble(noisy, plan)
    else:
        plan, A_eta = recon.plan, recon.ambiguity
        if plan is None or ((plan.algorithm, plan.epsilon, plan.window_ids)
                            != (cfg.algorithm, eps, tuple(m.window_id for m in family.members))):
            raise ValueError(f"recon was not assembled with an {cfg.algorithm} plan "
                             f"of this family at threshold {eps:g}")
    A = assemble(clean, plan)
    dx, dy = grid.dt, grid.dy
    noise_norm = 0.0
    for group in plan.groups:  # one summed noise array alive at a time
        eta = noisy[group[0]].power - clean[group[0]].power
        for j in group[1:]:
            eta += noisy[j].power - clean[j].power
        noise_norm = max(noise_norm, dx * dy * float(np.sum(np.abs(eta))))

    omega = A.mask
    # the mixed norm of omega's indicator: each row's sum of |1|^p is its cell count
    C_p = float(dy * np.sum((dx * omega.sum(axis=1)) ** (1.0 / p)))
    m0 = grid.L // 2  # y = 0 row
    C_R = dx * float(np.sum(omega[m0, :]))

    # ||A - A^eta|| row block by row block: no L x L difference or |.|^p is held
    inner = np.concatenate([
        _row_norms(A.values[r:r + NORM_ROWS] - A_eta.values[r:r + NORM_ROWS], dx, p)
        for r in range(0, grid.L, NORM_ROWS)])
    lhs = float(dy * np.sum(inner))
    rhs = C_p / eps * noise_norm
    k0 = grid.L // 2  # x = 0 column
    lhs_slice = dy * float(np.sum(np.abs(A.values[:, k0] - A_eta.values[:, k0])))
    rhs_slice = C_R / eps * noise_norm

    approx = approx_slice = None
    if f_true is not None:
        Af = numeric_ambiguity(f_true.values, grid)
        outside = np.where(omega, 0.0, Af.values)
        approx = _mixed_norm(outside, dx, dy, p)
        approx_slice = dy * float(np.sum(np.abs(outside[:, k0])))

    return BoundReport(
        epsilon=eps, p=p, C_p=C_p, C_R_Omega=C_R,
        lhs_A_norm=lhs, rhs_bound=rhs,
        lhs_slice=lhs_slice, rhs_slice_bound=rhs_slice,
        noise_norm=noise_norm,
        satisfied=(bool(lhs <= rhs), bool(lhs_slice <= rhs_slice)),
        approx_term=approx, approx_slice_term=approx_slice,
    )
