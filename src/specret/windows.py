"""Window families, the peeling of their stability sets into disjoint
regions, and the coverage geometry of rotated elliptical supports.

Thresholds here compare against the raw analytic ambiguity values (the
peak of A h_n is 1, the peak of A phi_a is 1/sqrt(2)).  The retrieval
layer rescales its tolerance before calling in; see retrieval.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ambiguity import (FrftGaussAmbiguity, HermiteAmbiguity, hermite_ladder, hermite_rows,
                        mirror_quadrant)
from .grid import Grid
from .special import dilated_gauss_samples, frft_gauss_samples, hermite_samples
from .workers import _two_at_a_time


# window-ambiguity cells at or below this fraction of the threshold are
# not evaluated when `peel` sums a group (see `peel` for the bound)
LATTICE_FLOOR = 1e-20
# a group's cells leave a Hermite block's Laguerre ladder (`_peel_block`)
# once their count times the steps left reaches this many steps of the
# whole block: dropping them gathers the ladder's arrays and the cells'
# indices, about as much work as that, and W3-like plans ran fastest at 4-8
DROP_STEPS = 8
# row blocks from which a Hermite plan claims its blocks on two cores; with
# fewer, the second thread costs more than it saves
TWO_CORE_BLOCKS = 4
# largest relative deviation of a fan window's grid energy dt * sum |g|^2
# from its closed-form norm^2; resolved windows deviate by under 1e-3
ENERGY_TOLERANCE = 0.5
# directions `coverage_radii` scans the union's extent along by default
COVERAGE_DIRECTIONS = 200_000


class WindowMember(NamedTuple):
    window_id: str
    samples: np.ndarray
    evaluator: object  # closed-form ambiguity evaluator


@dataclass(frozen=True)
class WindowFamily:
    """The windows of one measurement setup and the grid they are sampled on.

    plans holds the last retrieval plan built for the family, keyed by
    (raw tolerance, algorithm): the plan depends on nothing else, so a
    family that retrieves many signals builds it once (see
    `retrieval._run`).  It holds at most one plan and frees it with the
    family.
    """

    members: tuple
    grid: Grid
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("window family must be nonempty")
        object.__setattr__(self, "members", tuple(self.members))

    def __len__(self):
        return len(self.members)

    def summed_on_lattice(self) -> np.ndarray:
        """Sum of the member ambiguities on the family's lattice, added in
        member order into the first member's buffer."""
        out = self.members[0].evaluator.on_lattice(self.grid)
        for m in self.members[1:]:
            m.evaluator.on_lattice(self.grid, out=out)
        return out


class CoverageReport(NamedTuple):
    R1: float
    R2: float
    covered_disc_radius_numeric: float
    area_fraction: float  # pi*R1^2 relative to the area of the ellipse union


def build_frft_family(a: float, N: int, grid: Grid,
                      angles: list[float] | None = None) -> WindowFamily:
    """Family of fractionally transformed dilated Gaussians.

    Default angles are alpha_j = (j-1)*pi/N for j = 1..N; pass an explicit
    angle list to reproduce other conventions (e.g. 80 angles spaced pi/40).
    Raises ValueError for a window whose grid energy is more than
    ENERGY_TOLERANCE (relative) away from its closed-form norm^2.
    """
    if a <= 0:
        raise ValueError(f"dilation must be positive, got {a}")
    if N < 1:
        raise ValueError(f"need at least one window, got N={N}")
    if angles is None:
        angles = [(j - 1) * np.pi / N for j in range(1, N + 1)]
    elif len(angles) != N:
        raise ValueError(f"angle list has {len(angles)} entries, expected N={N}")
    members = []
    for alpha in angles:
        window_id = f"frft_gauss(a={a:g}, alpha={alpha:.6f})"
        samples = frft_gauss_samples(a, alpha, grid)
        # the closed-form norm^2 is A g(0, 0) = 1/sqrt(2); a window far
        # narrower than dt or wider than the grid samples to a spike or a
        # truncated plateau that no denominator can divide out
        energy = grid.dt * np.vdot(samples, samples).real
        deviation = abs(energy * np.sqrt(2.0) - 1.0)
        if not deviation <= ENERGY_TOLERANCE:
            raise ValueError(
                f"{window_id} is not resolved by the grid (T={grid.T:g}, L={grid.L}): "
                f"its grid energy {energy:.4g} is {deviation:.3g} away from 1/sqrt(2) "
                f"in relative terms, above the {ENERGY_TOLERANCE:g} tolerance")
        members.append(WindowMember(window_id=window_id, samples=samples,
                                    evaluator=FrftGaussAmbiguity(a, alpha)))
    return WindowFamily(members=tuple(members), grid=grid)


def check_hermite_degree(n: int, grid: Grid):
    """Refuse, in O(1), a Hermite degree the grid cannot hold: h_n turns at
    |t| = sqrt((2n + 1) / (2 pi)) in time and in frequency alike, which
    must lie within both the half-width T and the Nyquist L / (4T); past
    either the window is truncated or aliased, and retrieves nothing."""
    reach = min(grid.T, grid.nyquist)
    if not 2 * n + 1 <= 2 * np.pi * reach * reach:  # int-float: exact for any n
        raise ValueError(f"hermite(n={n}) does not fit the grid (T={grid.T:g}, L={grid.L}): it "
                         f"turns at sqrt((2n + 1) / (2 pi)), beyond min(T, L/(4T)) = {reach:.4g}")


def build_hermite_family(degrees, grid: Grid) -> WindowFamily:
    """Family of Hermite windows with strictly increasing degrees, the
    largest of which the grid holds (`check_hermite_degree`)."""
    degrees = [int(n) for n in degrees]
    if not degrees:
        raise ValueError("need at least one degree")
    if any(n < 0 for n in degrees):
        raise ValueError(f"degrees must be nonnegative, got {degrees}")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError(f"degrees must be strictly increasing, got {degrees}")
    check_hermite_degree(degrees[-1], grid)
    members = []
    for n in degrees:
        members.append(WindowMember(
            window_id=f"hermite(n={n})",
            samples=hermite_samples(n, grid),
            evaluator=HermiteAmbiguity(n),
        ))
    return WindowFamily(members=tuple(members), grid=grid)


def gauss_window_member(a: float, grid: Grid) -> WindowMember:
    """Single dilated-Gauss window (the standard single-window baseline)."""
    return WindowMember(
        window_id=f"gauss(a={a:g})",
        samples=dilated_gauss_samples(a, grid).astype(np.complex128),
        evaluator=FrftGaussAmbiguity(a, 0.0),
    )


def _check_unit_epsilon(epsilon: float):
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def row_span(bits: np.ndarray) -> tuple[int, int] | None:
    """(first, stop) of the rows holding a True cell of bits; None if none."""
    live = np.flatnonzero(bits.any(axis=1))
    return (int(live[0]), int(live[-1]) + 1) if live.size else None


def peel(family: WindowFamily, groups, epsilon: float):
    """Onion peeling over a partition of the family into groups of member
    indices: each group's ambiguities are summed in member order on the
    family's lattice, and the group claims the cells where |sum| > epsilon
    that no earlier group claimed.

    Returns (den, first, owner).  owner labels each (L, L) cell with the
    index of the group that claimed it, -1 off omega, in the smallest
    signed type that holds the group count.  den is each group's sum on
    its cells, 0 off omega, on omega's row band only: row r of den is
    lattice row first + r, and the band runs from omega's first row to its
    last (`row_span`; no rows, first 0, for an empty omega).  Each
    ambiguity is evaluated once, with the floor LATTICE_FLOOR * epsilon.
    A family of Hermite windows alone is evaluated on the quadrant
    x, y <= 0 only, in the row blocks of `hermite_rows`, which skips the
    outer rows whose cells all lie at or below the floor.  Each block runs
    one Laguerre ladder over the degrees in the order the groups take them
    (`_peel_block`): each group claims its cells of the block into the
    quadrant's den, and those cells leave the ladder, so the later degrees
    step only on the cells still unclaimed (W2's [50, 100] takes 77% of
    the full ladder's cell steps).  A plan of TWO_CORE_BLOCKS blocks or
    more claims them two at a time (`_two_at_a_time`); each block writes
    its own rows only.  The labels are mirrored once at the end, and den's
    band is read from the quadrant by the same mirror.  Any other family
    adds each member's `on_lattice` into its group's buffer, the first
    group's sum being den's buffer, so one more group's sum is alive at a
    time, and den's band is copied out at the end; a Gauss member leaves
    out its cells at or below the floor.
    The cells left out hold values of magnitude at most floor, so a group
    of N windows loses at most N * floor, 4e-19 of epsilon for a
    40-window fan: a cell's sum can cross epsilon only if it lies that
    close to it, so the labels are those of the full lattices.  Every
    evaluated cell has the full lattice's bits, and on omega the dropped
    terms lie below the rounding of the much larger sum, so den has
    matched the full-lattice sum there bit for bit on W1, W2 and on every
    family the property tests draw.
    """
    grid = family.grid
    L, h = grid.L, grid.L // 2
    floor = LATTICE_FLOOR * epsilon
    evaluators = [[family.members[j].evaluator for j in group] for group in groups]
    owner = np.full((L, L), -1, dtype=np.min_scalar_type(-len(groups)))
    if all(isinstance(ev, HermiteAmbiguity) for group in evaluators for ev in group):
        degrees = [ev.n for group in evaluators for ev in group]
        h1 = h + 1  # the quadrant is rows and columns 0, ..., L/2
        quadrant = np.zeros((h1, h1))
        blocks = hermite_rows(degrees, grid, floor)

        def claim(b):
            rows = blocks[b]
            _peel_block(hermite_ladder(degrees, grid, rows), groups, degrees, epsilon,
                        quadrant[rows], owner[rows, :h1])

        if len(blocks) >= TWO_CORE_BLOCKS:
            _two_at_a_time(claim, len(blocks))
        else:
            for b in range(len(blocks)):
                claim(b)
        mirror_quadrant(owner)
        first, stop = row_span(owner >= 0) or (0, 0)
        band = np.arange(first, stop)
        den = np.empty((stop - first, L))
        den[:, :h1] = quadrant[np.minimum(band, L - band)]  # row L - r mirrors row r
        den[:, h1:] = den[:, h - 1:0:-1]  # and column L - k column k
        return den, first, owner
    for i, group in enumerate(evaluators):
        values = None
        for ev in group:
            values = ev.on_lattice(grid, floor, out=values)
        if i == 0:  # the first sum is den: no extra L x L buffer
            den = values
        _claim(values, i, epsilon, den, owner)
    first, stop = row_span(owner >= 0) or (0, 0)
    return den[first:stop].copy(), first, owner


def _peel_block(ladder, groups, degrees, epsilon: float, den: np.ndarray, owner: np.ndarray):
    """Claim one block's cells for each group in turn into den and owner,
    views of the block's quadrant rows, from its `laguerre_ladder` over
    degrees (A h_n for the groups' members in order).  The claimed cells
    leave the ladder once that saves DROP_STEPS whole-block steps or more
    (the steps left count as for ascending degrees): it is sent the mask
    of the unclaimed cells, and the later degrees step on those alone,
    flattened, with the bits the full block gives them.  Each group claims
    only unclaimed cells, so the labels and den are those of `_claim` on
    full blocks."""
    cells = keep = free = None  # the ladder's cells as (rows, columns), once it has dropped some
    taken = 0  # degrees taken from the ladder
    for i, group in enumerate(groups):
        values = ladder.send(keep)  # send(None) is next()
        for _ in group[1:]:
            values += next(ladder)
        taken += len(group)
        bits = _above(values, epsilon)
        if free is not None:  # the ladder's cells no group has claimed
            bits &= free
        claimed = bits if cells is None else tuple(c[bits] for c in cells)
        owner[claimed] = i
        den[claimed] = values[bits]
        keep = None
        if bits.any():
            if free is None:
                free = ~bits
            else:
                free[bits] = False
            steps = degrees[-1] - degrees[taken - 1]
            if (free.size - np.count_nonzero(free)) * steps >= DROP_STEPS * free.size:
                keep, free = free, None
                cells = np.nonzero(keep) if cells is None else tuple(c[keep] for c in cells)


def _above(values, epsilon: float) -> np.ndarray:
    """|values| > epsilon, without a float temporary."""
    bits = values > epsilon
    bits |= values < -epsilon
    return bits


def _claim(values, i: int, epsilon: float, den: np.ndarray, owner: np.ndarray):
    """Give the cells of owner still unclaimed where |values| > epsilon the
    label i and den's value there; den may be values' own buffer, which is
    then cleared everywhere else."""
    bits = _above(values, epsilon)
    bits &= owner < 0
    owner[bits] = i
    if den is values:
        den[~bits] = 0
    else:
        den[bits] = values[bits]  # |sum A g| > epsilon on bits, and A g is real


def _ellipse_level(a: float, epsilon: float) -> float:
    """Constant C with {A phi_a > eps} = {a x^2 + y^2/a < C}."""
    return (2.0 / np.pi) * abs(np.log(np.sqrt(2.0) * epsilon))


def coverage_radii(a: float, N: int, epsilon: float,
                   n_theta: int = COVERAGE_DIRECTIONS) -> CoverageReport:
    """Guaranteed covered-disc radii for N ellipses rotated by pi/N steps.

    R1 comes from the far pair of intersection points of adjacent rotated
    ellipses, R2 from the near pair; the union covers the disc of radius
    R1.  The numeric field scans a fine polar grid and takes, over all
    directions, the smallest radial extent of the union; it must not fall
    below R1 (asserted at 0.1% slack).
    """
    if a <= 1:
        raise ValueError(f"need a > 1, got {a}")
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if not (0 < epsilon < 2 ** -0.5):
        raise ValueError(f"epsilon must lie in (0, 1/sqrt(2)), got {epsilon}")
    C = _ellipse_level(a, epsilon)
    half = np.pi / (2 * N)
    D1 = np.cos(half) ** 2 / a + a * np.sin(half) ** 2
    D2 = a * np.cos(half) ** 2 + np.sin(half) ** 2 / a
    R1 = float(np.sqrt(C / D1))
    R2 = float(np.sqrt(C / D2))

    # union extent along each direction: r(theta)^2 = C / min_j E(theta + alpha_j)
    theta = np.linspace(0.0, np.pi, n_theta, endpoint=False)
    emin = np.full(n_theta, np.inf)
    for alpha in np.pi * np.arange(N) / N:  # a few n_theta arrays, whatever N is
        psi = theta + alpha
        np.minimum(emin, a * np.cos(psi) ** 2 + np.sin(psi) ** 2 / a, out=emin)
    r2 = C / emin
    numeric = float(np.sqrt(r2.min()))
    if numeric < R1 * (1.0 - 1e-3):
        raise AssertionError(
            f"polar scan found covered radius {numeric} below formula R1={R1}"
        )
    union_area = float(0.5 * np.sum(r2) * (np.pi / n_theta) * 2.0)  # symmetric halves
    area_fraction = float(min(1.0, np.pi * R1 ** 2 / union_area))
    return CoverageReport(R1=R1, R2=R2, covered_disc_radius_numeric=numeric,
                          area_fraction=area_fraction)
