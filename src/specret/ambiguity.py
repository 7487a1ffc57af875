"""Ambiguity functions: closed-form evaluators, the numerically computed
lattice, and the FFT map from spectrograms to products Af * conj(Ag).

The ambiguity function of f is A f(x, y) = exp(i*pi*x*y) * V_f f(x, y).
For the window families used here it has a closed form:

    gauss(a):             (1/sqrt(2)) * exp(-(pi/2) * (a x^2 + y^2 / a))
    frft_gauss(a, alpha): gauss(a) evaluated at the rotation R_alpha(x, y)
    hermite(n):           exp(-pi (x^2+y^2) / 2) * L_n(pi (x^2+y^2))

The two evaluator classes cover these kinds (gauss(a) is frft_gauss(a, 0)).
All are real-valued; gauss kinds are positive, the hermite kind changes
sign across its n root circles.

`FrftGaussAmbiguity.on_lattice` evaluates the rotated form a xr^2 + yr^2/a,
which does not cancel at large a, in one loop over bands of rows.  Given
a floor > 0 it evaluates only the ellipse where the value exceeds the
floor: on each row that is one x interval in closed form (`row_spans`),
and each band is evaluated on the box around its rows' intervals; with
no floor every row spans the whole lattice.  A window family adds its
members into one buffer this way; see retrieval.py for the floor a
retrieval plan uses.

`hermite_lattices` evaluates a Hermite family with one Laguerre
recurrence up to its largest degree, run on the quadrant x, y <= 0 and
mirrored by slices, handing out each degree's lattice on the way.  Given
a floor > 0 it skips the outer rows whose cells are all at most the
floor, found from the monotone tail of the Laguerre functions; with no
floor it evaluates every cell.  `HermiteAmbiguity.on_lattice` is its
one-degree case.

`numeric_ambiguity` is exp(i*pi*x*y) V_g g.  On the square lattice
x_k * y_m = (k - L/2)(m - L/2)/L, so each phase is a 2L-th root of unity
from the `unit_roots` table: each block of `stft.stft_blocks` rows is
multiplied by its phases in place and copied into its output columns,
with no L x L phase or coefficient table beside the output.

`product_blocks` takes the 2D DFT of a real power, which is Hermitian,
so it transforms half the plane: one real-input FFT along the frequency
bins and one complex FFT over the L/2 + 1 lines that gives.  It reads out
only the rows asked for, PRODUCT_ROWS at a time through one buffer, and
fills the other half of each row from the exact symmetry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, Signal
from .special import laguerre_function, laguerre_ladder
from .stft import stft_blocks


@dataclass(frozen=True)
class AmbiguityGrid:
    """Complex lattice over (x_k, y_m) with an optional validity mask."""

    grid: Grid
    values: np.ndarray  # complex, shape (L, L)
    mask: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        shape = (self.grid.L, self.grid.L)
        if v.shape != shape:
            raise ValueError(f"expected shape {shape}, got {v.shape}")
        object.__setattr__(self, "values", v)
        if self.mask is not None:
            b = np.asarray(self.mask, dtype=bool)
            if b.shape != shape:
                raise ValueError(f"mask shape {b.shape} does not match {shape}")
            object.__setattr__(self, "mask", b)


def eval_gauss_ambiguity(a: float, x, y):
    """A phi_a at (x, y); elliptical decay with the x-axis shrunk by a."""
    if a <= 0:
        raise ValueError(f"dilation must be positive, got {a}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (1.0 / np.sqrt(2.0)) * np.exp(-(np.pi / 2.0) * (a * x * x + y * y / a))
    return out if out.ndim else float(out)


def eval_frft_gauss_ambiguity(a: float, alpha: float, x, y):
    """A(F_alpha phi_a) = A phi_a composed with the rotation by alpha."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xr = x * np.cos(alpha) - y * np.sin(alpha)
    yr = x * np.sin(alpha) + y * np.cos(alpha)
    return eval_gauss_ambiguity(a, xr, yr)


def eval_hermite_ambiguity(n: int, x, y):
    """A h_n at (x, y): the Laguerre function of pi*(x^2 + y^2), signed."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return laguerre_function(n, np.pi * (x * x + y * y))


# lattice rows evaluated together by `FrftGaussAmbiguity.on_lattice`
BAND_ROWS = 16
PRODUCT_ROWS = 64  # lattice rows `product_blocks` reads out at a time: 1 MB at L = 1024


class FrftGaussAmbiguity:
    def __init__(self, a: float, alpha: float):
        self.a = float(a)
        self.alpha = float(alpha)

    def __call__(self, x, y):
        return eval_frft_gauss_ambiguity(self.a, self.alpha, x, y)

    def on_lattice(self, grid: Grid, floor: float = 0.0,
                   out: np.ndarray | None = None) -> np.ndarray:
        """The ambiguity on the (y, x) lattice, added into `out` (zeros if None).

        The rows are taken BAND_ROWS at a time, and each band evaluates
        only the box of columns spanned by its rows' `row_spans` intervals;
        with floor <= 0 every row spans [0, L).  Cells outside every box
        hold values <= floor and are left untouched.  Every cell is
        computed by `_rotated` in the same order of operations, so an
        evaluated cell has the same bits whatever the floor.
        """
        if self.a <= 0:
            raise ValueError(f"dilation must be positive, got {self.a}")
        c, s = np.cos(self.alpha), np.sin(self.alpha)
        x, y, L = grid.x, grid.y, grid.L
        xc, xs, ys, yc = x * c, x * s, (y * s)[:, None], (y * c)[:, None]
        if out is None:
            out = np.zeros((L, L))
        starts = np.arange(0, L, BAND_ROWS)
        if floor > 0:
            lo, hi = self.row_spans(grid, floor)
            first, last = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
        else:
            first, last = np.zeros_like(starts), np.full_like(starts, L)
        for r0, c0, c1 in zip(starts.tolist(), first.tolist(), last.tolist()):
            if c0 < c1:
                r1 = r0 + BAND_ROWS
                out[r0:r1, c0:c1] += self._rotated(xc[c0:c1], xs[c0:c1], ys[r0:r1], yc[r0:r1])
        return out

    def row_spans(self, grid: Grid, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """Half-open column ranges [lo, hi), one per lattice row, holding
        every cell of the row whose value exceeds floor, widened by one
        cell on each side; rows with no such cell get lo = L, hi = 0.

        The value exceeds floor where Q = A x^2 + 2B xy + C y^2 < K, with
        K = (2/pi)(-ln floor - ln 2 / 2).  As AC - B^2 = 1, on row y that
        is |x + By/A| < sqrt(AK - y^2) / A.
        """
        a, c, s = self.a, np.cos(self.alpha), np.sin(self.alpha)
        A = a * c * c + s * s / a
        B = c * s * (1.0 / a - a)
        K = (2.0 / np.pi) * (-np.log(floor) - 0.5 * np.log(2.0))
        y = grid.y
        room = A * K - y * y
        live = room > 0
        half = np.sqrt(np.where(live, room, 0.0)) / A
        centre = -B * y / A
        x0, dt, L = grid.x[0], grid.dt, grid.L
        lo = np.clip(np.ceil((centre - half - x0) / dt) - 1, 0, L)
        hi = np.clip(np.floor((centre + half - x0) / dt) + 2, 0, L)
        empty = ~live | (hi <= lo)
        lo[empty] = L
        hi[empty] = 0
        return lo.astype(np.intp), hi.astype(np.intp)

    def _rotated(self, xc, xs, ys, yc):
        # (1/sqrt(2)) exp(-(pi/2)(a xr^2 + yr^2 / a)) at xr = x cos - y sin,
        # yr = x sin + y cos, from the four products; the rotated form has
        # no cancellation at large a, and 1/sqrt(2) rides in the exponent
        q = xc - ys
        q *= q
        q *= self.a
        yr = xs + yc
        yr *= yr
        yr /= self.a
        q += yr
        q *= -np.pi / 2.0
        q -= 0.5 * np.log(2.0)
        return np.exp(q, out=q)

    def __repr__(self):
        return f"FrftGaussAmbiguity(a={self.a}, alpha={self.alpha})"


class HermiteAmbiguity:
    def __init__(self, n: int):
        self.n = int(n)

    def __call__(self, x, y):
        return eval_hermite_ambiguity(self.n, x, y)

    def on_lattice(self, grid: Grid, floor: float = 0.0,
                   out: np.ndarray | None = None) -> np.ndarray:
        """The ambiguity on the (y, x) lattice, or added into `out`: the
        one-degree `hermite_lattices`, so rows whose every cell is at most
        floor stay 0; with floor <= 0 every cell is evaluated."""
        values = next(hermite_lattices([self.n], grid, floor))
        if out is None:
            return values
        out += values
        return out

    def __repr__(self):
        return f"HermiteAmbiguity(n={self.n})"


def hermite_lattices(degrees, grid: Grid, floor: float):
    """Yield A h_n on the (y, x) lattice for each n in degrees, in order,
    from one `laguerre_ladder` run on the quadrant x, y <= 0, mirrored.

    Every lattice is fresh.  With floor > 0 the quadrant's leading rows
    (the largest |y|) whose x = 0 cell is dead are skipped and stay 0: a
    cell is dead where z = pi y^2 >= 6 n_max + 2 and its value is at most
    floor for every degree.  All zeros of L_n lie below 4n + 2, so past
    z = 6n + 2 each term of d/dz ln|L_n| = sum 1/(z - z_i) is below 1/(2n)
    and |exp(-z/2) L_n(z)| decreases; every cell of a dead row, and of
    every row beyond it, is then at most floor.
    """
    # radial dependence: index L/2 + j mirrors L/2 - j, and index 0
    # (x = -T, y = -Nyquist) has no partner; rows before r0 stay 0
    degrees = list(degrees)
    h = grid.L // 2
    x2 = grid.x[:h + 1] ** 2
    y2 = grid.y[:h + 1] ** 2
    r0 = 0
    if floor > 0:
        z0 = np.pi * (y2 + x2[h])  # the x = 0 column, as the quadrant computes it
        dead = z0 >= 6 * max(degrees) + 2
        for v in laguerre_ladder(degrees, z0):
            dead &= np.abs(v) <= floor
        r0 = int(np.argmin(dead))  # the x = 0 cell of row h is never dead
    m = max(r0, 1)
    for q in laguerre_ladder(degrees, np.pi * (y2[r0:, None] + x2[None, :])):
        out = np.zeros((grid.L, grid.L))
        out[r0:h + 1, :h + 1] = q
        out[r0:h + 1, h + 1:] = q[:, h - 1:0:-1]
        out[h + 1:2 * h + 1 - m] = out[h - 1:m - 1:-1]
        yield out


def unit_roots(L: int) -> np.ndarray:
    """The 2L-entry table exp(i*pi * e / L), e = 0, ..., 2L - 1."""
    return np.exp(1j * np.pi / L * np.arange(2 * L))


def numeric_ambiguity(g: np.ndarray, grid: Grid) -> AmbiguityGrid:
    """A g on the (m, k) lattice, C-ordered, from blocks of shift rows."""
    sig = Signal(grid=grid, values=np.asarray(g, dtype=np.complex128))
    L = grid.L
    roots, c = unit_roots(L), np.arange(L) - L // 2
    out = np.empty((L, L), dtype=np.complex128)
    for k0, block in stft_blocks(sig, g):
        k = slice(k0, k0 + len(block))
        # phase first: a complex product's last bits depend on the operand order
        np.multiply(roots[np.multiply.outer(c[k], c) % (2 * L)], block, out=block)
        out[:, k] = block.T
    return AmbiguityGrid(grid=grid, values=out, mask=None)


def product_blocks(power: np.ndarray, grid: Grid, rows: tuple[int, int] | None):
    """Yield (m0, G), G[r] being lattice row m0 + r, for consecutive blocks
    of rows = (first, stop), or nothing for rows = None.  Each G is a view
    of one PRODUCT_ROWS-row buffer, overwritten by the next block, and the
    (L, L) power is dropped once transformed: a sum made for the call dies
    first.

    On the centred lattice the map is

        G[i, j] = dt dy s(i + j) sum_{m, k} P[m, k] s(m + k)
                  exp(2i pi (m j - k i) / L),   s(n) = (-1)^n,

    a 2D DFT of the real power P: forward over shifts k, inverse over
    frequency bins m, with the (u, v) -> (v, -u) axis swap an index
    permutation.  For even L the input signs are exact index shifts, so
    one real-input FFT along m gives the half plane of columns j <= L/2
    with its lines in reverse order (the inverse sign and s(m) together
    turn bin j into L/2 - j), and one complex FFT along k over those
    L/2 + 1 lines gives every row i, shifted by L/2.  Each block is sliced
    out of that half plane, then scaled and modulated.  Columns j > L/2
    follow from the Hermitian symmetry of a real input's transform,
    G[i, j] = conj(G[(L - i) mod L, L - j]), which the output satisfies
    exactly: the two self-paired lines j = 0 and j = L/2 are made
    Hermitian before any row is read.
    """
    if rows is None:
        return
    L = grid.L
    if power.shape != (L, L):
        raise ValueError(f"expected shape {(L, L)}, got {power.shape}")
    h = L // 2
    r0, r1 = rows
    # H[b, n] = sum_{m, k} P[m, k] exp(-2i pi (m b + k n) / L), b <= L/2
    H = np.fft.rfft(power, axis=0)  # along m, contiguous in a clean power
    del power
    np.fft.fft(H, axis=1, out=H)
    for line in (H[0], H[h]):  # transforms of real lines: make them exactly Hermitian
        line[h + 1:] = line[h - 1:0:-1].conj()
        line.imag[[0, h]] = 0.0
    sgn = (-1.0) ** np.arange(L)
    buf = np.empty((min(PRODUCT_ROWS, r1 - r0), L), dtype=np.complex128)
    # G[i, j] = c s(i + j) H[L/2 - j, (i + L/2) mod L] for j <= L/2; no block
    # straddles row L/2 or L/2 + 1, where the columns read wrap around
    cuts = sorted({*range(r0, r1, PRODUCT_ROWS), *(c for c in (h, h + 1) if r0 < c < r1), r1})
    for m0, m1 in zip(cuts, cuts[1:]):
        n = m1 - m0
        G = buf[:n]
        c = (m0 + h) % L
        np.copyto(G[:, :h + 1], H[h::-1, c:c + n].T)
        c = (h - m0) % L  # the column falls by one a row
        np.conjugate(H[1:h, c - n + 1:c + 1][:, ::-1].T, out=G[:, h + 1:])
        G *= ((grid.dt * grid.dy) * sgn[m0:m1])[:, None]
        G *= sgn
        yield m0, G
