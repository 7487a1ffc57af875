"""Ambiguity functions: closed-form evaluators, the numerically computed
lattice, and the FFT map from spectrograms to products Af * conj(Ag).

The ambiguity function of f is A f(x, y) = exp(i*pi*x*y) * V_f f(x, y).
For the window families used here it has a closed form:

    gauss(a):             (1/sqrt(2)) * exp(-(pi/2) * (a x^2 + y^2 / a))
    frft_gauss(a, alpha): gauss(a) evaluated at the rotation R_alpha(x, y)
    hermite(n):           exp(-pi (x^2+y^2) / 2) * L_n(pi (x^2+y^2))

The two evaluator classes cover these kinds (gauss(a) is frft_gauss(a, 0)).
All are real-valued; gauss kinds are positive, the hermite kind changes
sign across its n root circles.  Every lattice here is a bare (L, L)
array, row m at y_m and column k at x_k of a grid its caller holds.

`FrftGaussAmbiguity.on_lattice` evaluates the rotated form a xr^2 + yr^2/a,
which does not cancel at large a, in one loop over bands of rows.  Given
a floor > 0 it evaluates only the ellipse where the value exceeds the
floor: on each row that is one x interval in closed form (`row_spans`),
and each band is evaluated on the box around its rows' intervals; with
no floor every row spans the whole lattice.  A window family adds its
members into one buffer this way; `windows.peel` bounds what the floor
of a retrieval plan leaves out.

Hermite lattices are run on the quadrant x, y <= 0, in the blocks of
PLAN_ROWS rows that `hermite_rows` cuts, skipping the outer rows whose
cells are all at most a floor; `hermite_ladder` runs the Laguerre
recurrence over a family's degrees on one block, and `hermite_blocks`
pairs the two.  Their readers mirror what they keep from the quadrant by
slices (`mirror_quadrant`): `HermiteAmbiguity.on_lattice` the one
degree's values and the CLI's `coverage` each member's stability mask
from the full ladder, and a retrieval plan (`windows.peel`) its labels
from ladders that drop each group's claimed cells, so neither of the
last two makes a lattice per degree.

`numeric_ambiguity` is exp(i*pi*x*y) V_g g.  On the square lattice
x_k * y_m = (k - L/2)(m - L/2)/L, so each phase is a 2L-th root of unity
from the `unit_roots` table: each block of `stft.stft_blocks` rows is
multiplied by its phases straight into its output rows, with no L x L
phase or coefficient table beside the output.

`product_blocks` takes the 2D DFT of a real power on a band of rows
only.  Row i of the product reads one shift frequency, |i - L/2| by the
exact symmetry of a real input's transform, so the shift axis goes
first: the first pass (`FirstPass`) takes a power's row blocks one at a
time, a real-input FFT along k each, and keeps only the q + 1
frequencies the band reads (q = the band's largest |i - L/2|), its
`Lines`.  The measurement stream (`retrieval.measure_lines`) feeds it
each block of a group's sums as it is made, and `lines_of` a whole
power's own row blocks.  `product_blocks` takes the Lines alone: one
complex FFT along the frequency bins runs over them in place, and the
rows are read out through one buffer.  Every row block here is
`stft.block_height` rows high.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import Grid, Signal
from .special import laguerre_function, laguerre_ladder
from .stft import block_height, stft_blocks


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


# lattice rows evaluated together by `FrftGaussAmbiguity.on_lattice`; a
# band's box of columns is the union of its rows' ellipse spans, so the
# height sets which cells the plan evaluates
BAND_ROWS = 16
# quadrant rows `hermite_blocks` evaluates together: 256 KB a degree at
# L = 1024.  The Laguerre recurrence loops in Python once per block and
# degree step, so the stream's 32-row blocks would double W2's loop count
PLAN_ROWS = 64


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
        quadrant blocks of `hermite_blocks`, mirrored, so rows whose every
        cell is at most floor stay 0; with floor <= 0 every cell is
        evaluated."""
        values = np.zeros((grid.L, grid.L))
        for rows, ladder in hermite_blocks([self.n], grid, floor):
            values[rows, :grid.L // 2 + 1] = next(ladder)
        mirror_quadrant(values)
        if out is None:
            return values
        out += values
        return out

    def __repr__(self):
        return f"HermiteAmbiguity(n={self.n})"


def hermite_blocks(degrees, grid: Grid, floor: float):
    """Yield (rows, ladder) for each block of `hermite_rows`: rows is a
    slice of the quadrant x, y <= 0 (lattice rows and columns 0, ...,
    L/2), and ladder is its `hermite_ladder`, A h_n for each n in degrees
    in order."""
    for rows in hermite_rows(degrees, grid, floor):
        yield rows, hermite_ladder(degrees, grid, rows)


def hermite_rows(degrees, grid: Grid, floor: float) -> list:
    """The blocks of PLAN_ROWS quadrant rows, as slices, from the first
    live row to row L/2.

    With floor > 0 the leading rows (the largest |y|) whose x = 0 cell is
    dead are skipped: a cell is dead where z = pi y^2 >= 6 n_max + 2 and
    its value is at most floor for every degree.  All zeros of L_n lie
    below 4n + 2, so past z = 6n + 2 each term of d/dz ln|L_n| =
    sum 1/(z - z_i) is below 1/(2n) and |exp(-z/2) L_n(z)| decreases;
    every cell of a dead row, and of every row beyond it, is then at most
    floor.  With floor <= 0 every row is evaluated.
    """
    degrees = list(degrees)
    h = grid.L // 2
    r0 = 0
    if floor > 0:
        # the x = 0 column, as the blocks compute it
        z0 = np.pi * (grid.y[:h + 1] ** 2 + grid.x[h] ** 2)
        dead = z0 >= 6 * max(degrees) + 2
        for v in laguerre_ladder(degrees, z0):
            dead &= np.abs(v) <= floor
        r0 = int(np.argmin(dead))  # the x = 0 cell of row L/2 is never dead
    return [slice(b0, min(b0 + PLAN_ROWS, h + 1)) for b0 in range(r0, h + 1, PLAN_ROWS)]


def hermite_ladder(degrees, grid: Grid, rows: slice):
    """`laguerre_ladder(degrees, pi (y^2 + x^2))` on the quadrant's rows."""
    x2, y2 = grid.x[:grid.L // 2 + 1] ** 2, grid.y[rows] ** 2
    return laguerre_ladder(degrees, np.pi * (y2[:, None] + x2[None, :]))


def mirror_quadrant(out: np.ndarray):
    """Fill the (L, L) lattice `out` in place from its quadrant, rows and
    columns 0, ..., L/2, by the radial symmetry: index L/2 + j mirrors
    L/2 - j, and index 0 (x = -T, y = -Nyquist) has no partner."""
    h = out.shape[0] // 2
    out[:h + 1, h + 1:] = out[:h + 1, h - 1:0:-1]
    out[h + 1:] = out[h - 1:0:-1]


def unit_roots(L: int) -> np.ndarray:
    """The 2L-entry table exp(i*pi * e / L), e = 0, ..., 2L - 1."""
    return np.exp(1j * np.pi / L * np.arange(2 * L))


def numeric_ambiguity(g: np.ndarray, grid: Grid) -> np.ndarray:
    """A g on the (m, k) lattice, complex (L, L) and C-ordered, from blocks
    of frequency rows."""
    sig = Signal(grid=grid, values=np.asarray(g, dtype=np.complex128))
    L = grid.L
    roots, c = unit_roots(L), np.arange(L) - L // 2
    out = np.empty((L, L), dtype=np.complex128)
    for m0, block in stft_blocks(sig, g):
        m = slice(m0, m0 + len(block))
        # phase first: a complex product's last bits depend on the operand order
        np.multiply(roots[np.multiply.outer(c[m], c) % (2 * L)], block, out=out[m])
    return out


class Lines(NamedTuple):
    """A power's `FirstPass` on a band: X, the shift lines 0, ..., q it
    reads, complex (L, q + 1) and Fortran-ordered (None for no rows), and
    l1, if asked for, the sum of the power's |.|.  `product_blocks`
    transforms X in place once and then marks it read-only."""

    X: np.ndarray | None
    l1: float | None


class FirstPass:
    """The first pass of `product_blocks` over the consecutive real row
    blocks of an (L, L) power, fed one at a time (`add`), each transformed
    along k as it comes, so the power need never be whole; `lines` ends
    the pass.  A non-finite cell refuses the power.  With l1, each row's
    sum of |.| is taken in a C-ordered buffer and added in row order, the
    same bits in any layout and block height, and a non-finite L1 refuses
    the power in place of the cell check.  The |.| rows and the spectra
    take turns in one buffer of `block_height` rows, the most a block may
    hold.
    """

    def __init__(self, grid: Grid, rows: tuple[int, int] | None, l1: bool = False):
        L, h = grid.L, grid.L // 2
        self.L, self.m0, self.norm = L, 0, 0.0 if l1 else None
        self.q = None if rows is None else max(h - rows[0], rows[1] - 1 - h)
        # lines contiguous along m
        self.X = None if rows is None else np.empty((self.q + 1, L), dtype=np.complex128).T
        # |.| rows, then spectra
        self.buf = None if rows is None and not l1 else np.empty(block_height(L) * (L + 2))

    def add(self, block: np.ndarray):
        n, m0, L = len(block), self.m0, self.L
        if self.norm is not None:
            for row in np.sum(np.abs(block, out=self.buf[:n * L].reshape(n, L)), axis=1).tolist():
                self.norm += row
        if not (math.isfinite(self.norm) if self.norm is not None else np.isfinite(block).all()):
            raise ValueError("power contains non-finite entries")
        if self.X is not None:
            spectra = self.buf[:n * (L + 2)].view(np.complex128).reshape(n, L // 2 + 1)
            self.X[m0:m0 + n] = np.fft.rfft(block, axis=1, out=spectra)[:, :self.q + 1]
        self.m0 += n

    def lines(self) -> Lines:
        if self.m0 != self.L:
            raise ValueError(f"the blocks hold {self.m0} rows of an {(self.L, self.L)} power")
        return Lines(self.X, self.norm)


def lines_of(power: np.ndarray, grid: Grid, rows: tuple[int, int] | None,
             l1: bool = False) -> Lines:
    """The `FirstPass` on rows of a float64 (L, L) power (`retrieval.check_powers`),
    over its own row blocks."""
    p, n = FirstPass(grid, rows, l1), block_height(grid.L)
    for m in range(0, grid.L, n):
        p.add(power[m:m + n])
    return p.lines()


def product_blocks(lines: Lines, grid: Grid, rows: tuple[int, int] | None,
                   name: str = "the lines"):
    """Yield (m0, G), G[r] being lattice row m0 + r, for consecutive blocks
    of rows = (first, stop), or nothing for rows = None, from a power's
    `FirstPass` Lines on these rows.  Each G is a view of one
    `block_height`-row buffer, overwritten by the next block.  The lines
    are transformed in place and then read-only: lines transformed before,
    and lines whose X is not (L, q + 1) for the grid and rows (q below),
    are refused with a ValueError before any transform, and lines holding
    a non-finite value with a ValueError naming them (name) once
    transformed, before any block.

    On the centred lattice the map is

        G[i, j] = dt dy s(i + j) sum_{m, k} P[m, k] s(m + k)
                  exp(2i pi (m j - k i) / L),   s(n) = (-1)^n,

    a 2D DFT of the real power P: forward over shifts k, inverse over
    frequency bins m, with the (u, v) -> (v, -u) axis swap an index
    permutation.  For even L the input signs are exact index shifts, and
    with h = L/2 the transform X[b, n] = sum P[m, k] exp(-2i pi (m b + k n) / L)
    gives G[i, j] = c s(i + j) X[(h - j) mod L, (i + h) mod L].  Row i reads
    only the shift frequency n = i - h for i >= h, and n = i + h for i < h,
    which a real input's symmetry X[b, n] = conj(X[-b, L - n]) turns into
    the conjugate of line h - i.  So the band reads lines 0, ..., q,
    q = max(h - first, stop - 1 - h), and no others are made:

    - first pass (`FirstPass`): one real-input FFT along k, a block of
      rows of P at a time, keeping lines 0, ..., q of each in one
      Fortran-ordered (L, q + 1) complex X;
    - second pass: one complex FFT along m over those q + 1 lines, in place.

    Each block is then read out of X, a line per row (reversed for i >= h,
    conjugated for i < h), and scaled and modulated.  Lines 0 and h are
    transforms of real lines and are made exactly Hermitian first, so the
    output satisfies G[i, j] = conj(G[(L - i) mod L, (L - j) mod L])
    exactly; every line is transformed alone, so no row's bits depend on
    the band asked for.
    """
    if rows is None:
        return
    L, height = grid.L, block_height(grid.L)
    r0, r1 = rows
    h = L // 2
    q = max(h - r0, r1 - 1 - h)
    X = lines.X
    shape = None if X is None else X.shape
    if shape != (L, q + 1):
        raise ValueError(f"lines of shape {shape} for rows {rows} of an L = {L} grid,"
                         f" which read shape {(L, q + 1)}")
    if not X.flags.writeable:
        raise ValueError("these lines were transformed already: measure again")
    np.fft.fft(X, axis=0, out=X)
    if not np.isfinite(X[0]).all():  # bin 0 of a line sums its cells: non-finite if one is
        X.flags.writeable = False
        raise ValueError(f"{name} hold a non-finite value")
    for line in (X[:, n] for n in (0, h) if n <= q):  # make them exactly Hermitian
        line[h + 1:] = line[h - 1:0:-1].conj()
        line.imag[[0, h]] = 0.0
    X.flags.writeable = False
    sgn = (-1.0) ** np.arange(L)
    buf = np.empty((min(height, r1 - r0), L), dtype=np.complex128)
    cuts = sorted({*range(r0, r1, height), *([h] if r0 < h < r1 else []), r1})
    for m0, m1 in zip(cuts, cuts[1:]):  # no block straddles row h
        G = buf[:m1 - m0]
        if m0 >= h:  # G[i, j] = c s(i + j) X[(h - j) mod L, i - h]
            lines = X[:, m0 - h:m1 - h]
            np.copyto(G[:, :h + 1], lines[h::-1].T)
            np.copyto(G[:, h + 1:], lines[:h:-1].T)
        else:  # G[i, j] = c s(i + j) conj(X[(j - h) mod L, h - i])
            lines = X[:, h - m1 + 1:h - m0 + 1][:, ::-1]
            np.conjugate(lines[h:].T, out=G[:, :h])
            np.conjugate(lines[:h].T, out=G[:, h:])
        G *= ((grid.dt * grid.dy) * sgn[m0:m1])[:, None]
        G *= sgn
        yield m0, G
