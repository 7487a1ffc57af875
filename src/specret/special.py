"""Special-function kernels: Laguerre polynomials, Hermite functions,
dilated Gaussians, and the closed-form fractional Fourier transform of a
dilated Gaussian.

Conventions
-----------
The dilated Gaussian is ``phi_a(t) = a**(1/4) * exp(-a*pi*t**2)`` with
``||phi_a||_2 = 2**(-1/4)``.  Hermite functions use the exp(-pi t^2)
weight and are L2-normalized, ``h_0(t) = 2**(1/4) * exp(-pi*t**2)``;
higher degrees carry the conventional positive leading coefficient.
"""
from __future__ import annotations

import numpy as np

from .exceptions import OverflowGuardError
from .grid import Grid

_SIN_EPS = 1e-8  # below this |sin(alpha)| the FrFT falls back to alpha in pi*Z
_EXP_ARG_MIN = 708.3964185322641  # -log(smallest normal float64)


def laguerre_function(n: int, z):
    """Laguerre function exp(-z/2) * L_n(z): the one-degree `laguerre_ladder`."""
    out = next(laguerre_ladder([n], z))
    return out if out.ndim else float(out)


def laguerre_ladder(degrees, z):
    """Yield the Laguerre function exp(-z/2) * L_n(z) for each n in degrees,
    in order, from one run of the recurrence up to the largest degree.

    The recurrence runs on the pre-damped values, so intermediates stay
    bounded by 1 for z >= 0; safe for the large lattice arguments that
    would overflow the bare polynomial.  A degree below the previous one
    restarts the run.  Each yielded array is fresh, and a degree gets the
    same bits whichever degrees come before it.

    A reader that needs only some cells for the later degrees sends a
    boolean mask of the cells to keep, of the last yielded array's shape,
    in place of `next`: from then on the run steps and yields those cells
    alone, flattened in order, each with the bits it has in the full run.
    """
    z = np.asarray(z, dtype=float)
    return _laguerre_run(degrees, z, np.exp(-z / 2.0))


def _laguerre_step(k: int, z, cur, prev, out):
    """Degree k + 1 into out from cur (degree k) and prev (k - 1):
    ((2k+1 - z) * cur - k * prev) / (k+1), with the operations in that
    order; prev is scaled in place."""
    np.subtract(2 * k + 1, z, out=out)
    out *= cur
    prev *= k
    out -= prev
    out /= k + 1


def _laguerre_run(degrees, z, start):
    # three rotating buffers; from degree 0 (start) to 1 the prev term is
    # 0 * zeros, so the one step also gives (1 - z) * start
    k = None
    for n in degrees:
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if k is None or n < k:
            cur, prev, t, k = np.array(start), np.zeros_like(start), np.empty_like(start), 0
        while k < n:
            _laguerre_step(k, z, cur, prev, t)
            prev, cur, t = cur, t, prev
            k += 1
        keep = yield cur.copy()
        if keep is not None:  # the reader's cells, for the later degrees
            z, start, cur, prev = z[keep], start[keep], cur[keep], prev[keep]
            t = np.empty_like(cur)


def hermite_values(n: int, t) -> np.ndarray:
    """L2-normalized Hermite function of degree n at arbitrary points.

    Uses the normalized three-term recurrence in the scaled variable
    u = sqrt(2*pi)*t; never differentiates the Gaussian numerically.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    t = np.asarray(t, dtype=float)
    u = np.sqrt(2.0 * np.pi) * t
    # exp(-u^2/2) leaves the normal range past u^2/2 = _EXP_ARG_MIN; inside the
    # oscillatory region |u| <= sqrt(2n+1) the recurrence then starts from
    # (sub)zero and the window comes out silently too small
    u2 = u * u
    if np.any((u2 / 2.0 > _EXP_ARG_MIN) & (u2 <= 2 * n + 1)):
        raise OverflowGuardError(
            f"Hermite recurrence underflows for n={n}; grid extent too large for this degree"
        )
    scale = (2.0 * np.pi) ** 0.25
    prev = np.pi ** -0.25 * np.exp(-u2 / 2.0)
    if n == 0:
        out = scale * prev
    else:
        cur = np.sqrt(2.0) * u * prev
        for k in range(1, n):
            cur, prev = np.sqrt(2.0 / (k + 1)) * u * cur - np.sqrt(k / (k + 1.0)) * prev, cur
        out = scale * cur
    if not np.all(np.isfinite(out)):
        raise OverflowGuardError(
            f"Hermite recurrence overflowed for n={n}; grid extent too large for this degree"
        )
    return out


def hermite_samples(n: int, grid: Grid) -> np.ndarray:
    """Samples of h_n on the grid's time lattice."""
    return hermite_values(n, grid.t)


def dilated_gauss_values(a: float, t) -> np.ndarray:
    if a <= 0:
        raise ValueError(f"dilation must be positive, got {a}")
    t = np.asarray(t, dtype=float)
    return a ** 0.25 * np.exp(-a * np.pi * t * t)


def dilated_gauss_samples(a: float, grid: Grid) -> np.ndarray:
    """Samples of phi_a(t) = a^{1/4} exp(-a pi t^2) on the time lattice."""
    return dilated_gauss_values(a, grid.t)


def frft_gauss_coeffs(a: float, alpha: float) -> tuple[complex, complex]:
    """Closed-form coefficients (C, w) with F_alpha phi_a (u) = C * exp(-pi*w*u^2).

    Derived by completing the square in the FrFT integral of the dilated
    Gaussian; c_alpha is the square root of 1 - i*cot(alpha) with positive
    real part (the principal branch, since the real part of the radicand
    is 1).  Re(w) > 0 for every a > 0 and every angle.
    """
    if a <= 0:
        raise ValueError(f"dilation must be positive, got {a}")
    s = np.sin(alpha)
    c = np.cos(alpha)
    if abs(s) < _SIN_EPS:
        # alpha in pi*Z: identity or reflection, and phi_a is even either way
        return complex(a ** 0.25), complex(a)
    cot = c / s
    c_alpha = np.sqrt(complex(1.0, -cot))
    beta = complex(a, -cot)  # Gaussian integral parameter, Re(beta) = a > 0
    w = complex(s, -a * c) / complex(a * s, -c)
    C = c_alpha * a ** 0.25 / np.sqrt(beta)
    return complex(C), complex(w)


def frft_gauss_samples(a: float, alpha: float, grid: Grid) -> np.ndarray:
    """Samples of the fractional Fourier transform of phi_a (a chirped
    Gaussian) on the time lattice."""
    C, w = frft_gauss_coeffs(a, alpha)
    return C * np.exp(-np.pi * w * grid.t * grid.t)
