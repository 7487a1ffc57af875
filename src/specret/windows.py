"""Window families, stability sets, disjoint-region peeling, and the
coverage geometry of rotated elliptical supports.

Thresholds here compare against the raw analytic ambiguity values (the
peak of A h_n is 1, the peak of A phi_a is 1/sqrt(2)).  The retrieval
layer rescales its tolerance before calling in; see retrieval.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ambiguity import FrftGaussAmbiguity, HermiteAmbiguity, hermite_lattices
from .grid import Grid
from .special import dilated_gauss_samples, frft_gauss_samples, hermite_samples


# window-ambiguity cells at or below this fraction of the threshold are
# not evaluated when `peel` sums a group (see "Retrieval plan" in retrieval.py)
LATTICE_FLOOR = 1e-20
# largest relative deviation of a fan window's grid energy dt * sum |g|^2
# from its closed-form norm^2; resolved windows deviate by under 1e-3
ENERGY_TOLERANCE = 0.5


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
    `retrieval._run`).  It holds at most one plan, about 9 MB for the
    40-window fan at L = 1024, and frees it with the family.
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


def build_hermite_family(degrees, grid: Grid) -> WindowFamily:
    """Family of Hermite windows with strictly increasing degrees."""
    degrees = [int(n) for n in degrees]
    if not degrees:
        raise ValueError("need at least one degree")
    if any(n < 0 for n in degrees):
        raise ValueError(f"degrees must be nonnegative, got {degrees}")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError(f"degrees must be strictly increasing, got {degrees}")
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


def stability_mask(evaluator, epsilon: float, grid: Grid) -> np.ndarray:
    """Boolean (L, L) lattice mask of {(x, y): |evaluator(x, y)| > epsilon}.

    epsilon must lie in (0, 1), below the unit peak of the closed forms;
    note the gauss kinds peak at 1/sqrt(2), so epsilon >= 1/sqrt(2) yields
    an empty mask there.
    """
    _check_unit_epsilon(epsilon)
    return np.abs(evaluator.on_lattice(grid)) > epsilon


def _check_unit_epsilon(epsilon: float):
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def peel(family: WindowFamily, groups, epsilon: float):
    """Onion peeling over a partition of the family into groups of member
    indices: each group's ambiguities are summed in member order on the
    family's lattice, and the group claims the cells where |sum| > epsilon
    that no earlier group claimed.

    Returns (den, owner).  owner labels each (L, L) cell with the index of
    the group that claimed it, -1 off omega, in the smallest signed type
    that holds the group count; den is each group's sum on its cells, 0
    off omega.  Each ambiguity is evaluated once, the first group's sum is
    den's buffer, and one more group's sum is alive at a time.  The first
    member of a group gives the group's buffer and every later member adds
    into it.  The Hermite members' lattices come from one `hermite_lattices`
    run over their degrees in the order the groups take them.  Every member
    is evaluated with the floor LATTICE_FLOOR * epsilon: a Gauss member
    leaves out its cells at or below the floor, and the Hermite run the
    outer rows whose cells all are.  Those add at most N * floor to a sum
    of N members, and the labels are those of the full lattices (see
    retrieval.py).
    """
    grid = family.grid
    floor = LATTICE_FLOOR * epsilon
    evaluators = [[family.members[j].evaluator for j in group] for group in groups]
    hermite = hermite_lattices([ev.n for group in evaluators for ev in group
                                if isinstance(ev, HermiteAmbiguity)], grid, floor)
    owner = np.full((grid.L, grid.L), -1, dtype=np.min_scalar_type(-len(groups)))
    for i, group in enumerate(evaluators):
        values = None
        for ev in group:
            if not isinstance(ev, HermiteAmbiguity):
                values = ev.on_lattice(grid, floor, out=values)
            elif values is None:
                values = next(hermite)
            else:
                values += next(hermite)
        bits = values > epsilon  # |values| > epsilon without an L x L float temporary
        bits |= values < -epsilon
        bits &= owner < 0
        owner[bits] = i
        if i == 0:  # the first sum is den: no extra L x L buffer
            den = values
            den[~bits] = 0
        else:
            den[bits] = values[bits]  # |sum A g| > epsilon on bits, and A g is real
    return den, owner


def _ellipse_level(a: float, epsilon: float) -> float:
    """Constant C with {A phi_a > eps} = {a x^2 + y^2/a < C}."""
    return (2.0 / np.pi) * abs(np.log(np.sqrt(2.0) * epsilon))


def coverage_radii(a: float, N: int, epsilon: float,
                   n_theta: int = 200_000) -> CoverageReport:
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
    alphas = np.pi * np.arange(N) / N
    psi = theta[:, None] + alphas[None, :]
    E = a * np.cos(psi) ** 2 + np.sin(psi) ** 2 / a
    r2 = C / E.min(axis=1)
    numeric = float(np.sqrt(r2.min()))
    if numeric < R1 * (1.0 - 1e-3):
        raise AssertionError(
            f"polar scan found covered radius {numeric} below formula R1={R1}"
        )
    union_area = float(0.5 * np.sum(r2) * (np.pi / n_theta) * 2.0)  # symmetric halves
    area_fraction = float(min(1.0, np.pi * R1 ** 2 / union_area))
    return CoverageReport(R1=R1, R2=R2, covered_disc_radius_numeric=numeric,
                          area_fraction=area_fraction)
