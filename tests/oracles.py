"""Helpers that only the tests call, kept out of the library: a window's
stability mask, whole-family peeled masks, the bare Laguerre polynomial,
the whole STFT coefficient matrix and its measurement, the L x L phase
table and the whole-table numeric ambiguity, the STFT energy, the mixed
norm of a lattice and the noise bound's L1, the assembly of J from a
list of measurements, a plan's den on the whole lattice, the inversion
that read omega's mask, each group's first-pass lines from a list of
powers, the CLI's noisy powers drawn window by window, the noise-bound
check in its two-list form and the one that assembles both J and J^eta,
the whole-band product read-out, the one-window family of the
single-window baseline, the whole retrieval and the noise bounds
evaluated densely from the paper's formulas, and the serial loops that
the two-core schedules replace: the Hermite plan on the full Laguerre
ladder, the division and the noise-bound check one group after
another."""
from typing import NamedTuple

import numpy as np

from specret import (
    BoundReport,
    DegenerateAnchorError,
    EmptyMaskError,
    Grid,
    Signal,
    WindowFamily,
    add_noise,
    gauss_window_member,
    numeric_ambiguity,
    verify_noise_bounds,
)
from specret.ambiguity import (hermite_blocks, lines_of, mirror_quadrant, product_blocks,
                               unit_roots)
from specret.metrics import _outer_l1
from specret.retrieval import INVERT_ROWS, _divide, _group_sum, check_powers
from specret.special import _laguerre_run
from specret.stft import signal_rows, stft_block, window_factor
from specret.windows import LATTICE_FLOOR, _check_unit_epsilon, _claim, peel, row_span


def peel_masks(family, epsilon):
    """Pairwise-disjoint boolean masks from `peel`'s owner labels, one
    group per member."""
    _check_unit_epsilon(epsilon)
    *_, owner = peel(family, [(j,) for j in range(len(family))], epsilon)
    return [owner == j for j in range(len(family))]


def full_ladder_peel(family, groups, epsilon):
    """Oracle for `peel` on a Hermite family: one serial pass over its row
    blocks (`hermite_blocks`), each running the full Laguerre ladder on
    every cell of the block, and each group claiming its cells against
    the labels of the groups before (`_claim`).  Returns (den, first,
    owner) as `peel` does."""
    grid = family.grid
    L, h1 = grid.L, grid.L // 2 + 1
    degrees = [family.members[j].evaluator.n for group in groups for j in group]
    owner = np.full((L, L), -1, dtype=np.min_scalar_type(-len(groups)))
    quadrant = np.zeros((h1, h1))
    for rows, ladder in hermite_blocks(degrees, grid, LATTICE_FLOOR * epsilon):
        for i, group in enumerate(groups):
            values = next(ladder)
            for _ in group[1:]:
                values += next(ladder)
            _claim(values, i, epsilon, quadrant[rows], owner[rows, :h1])
    mirror_quadrant(owner)
    first, stop = row_span(owner >= 0) or (0, 0)
    band = np.arange(first, stop)
    den = np.empty((stop - first, L))
    den[:, :h1] = quadrant[np.minimum(band, L - band)]
    den[:, h1:] = den[:, h1 - 2:0:-1]
    return den, first, owner


def stability_mask(evaluator, epsilon, grid):
    """Boolean (L, L) lattice mask of {(x, y): |evaluator(x, y)| > epsilon}.

    epsilon must lie in (0, 1), below the unit peak of the closed forms;
    note the gauss kinds peak at 1/sqrt(2), so epsilon >= 1/sqrt(2) yields
    an empty mask there.
    """
    _check_unit_epsilon(epsilon)
    return np.abs(evaluator.on_lattice(grid)) > epsilon


def laguerre_eval(n, z):
    """Laguerre polynomial L_n(z) by the three-term recurrence.

    Stable for n <= 200, |z| <= 1e3.  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=float)
    out = next(_laguerre_run([n], z, np.ones_like(z)))
    return out if out.ndim else float(out)


class Coeffs(NamedTuple):
    grid: Grid
    values: np.ndarray  # complex, shape (L, L), C-ordered


def stft_coeffs(f, g):
    """The whole coefficient matrix c[m, k]: the kernel of `stft_blocks`
    (`stft.stft_block`) on one block of L rows."""
    L = f.grid.L
    block = np.empty((L, L), dtype=np.complex128)
    stft_block(signal_rows(f), window_factor(g, f.grid), 0, block)
    return Coeffs(grid=f.grid, values=block)


def power_of(c):
    """Squared-magnitude measurement |c|^2 of a whole coefficient matrix."""
    return np.abs(c.values) ** 2


def xy_phase(grid, sign):
    """exp(sign * i*pi * x_k * y_m) on the (m, k) lattice: the 2L-th root
    of unity at (k - L/2)(m - L/2) mod 2L, from an L x L index table."""
    L = grid.L
    c = np.arange(L) - L // 2
    idx = np.multiply.outer(c, c)
    idx %= 2 * L
    roots = unit_roots(L)
    return (roots if sign > 0 else roots.conj())[idx]


def whole_ambiguity(g, grid):
    """Oracle for `numeric_ambiguity`: the whole phase table times the
    whole coefficient matrix of g against itself, phase first."""
    c = stft_coeffs(Signal(grid=grid, values=np.asarray(g, dtype=np.complex128)), g)
    return np.multiply(xy_phase(grid, 1), c.values)


def stft_energy(c):
    """Quadrature-weighted energy (1/L) * sum |c|^2.

    Approximates ||V_g f||^2 over the time-frequency plane, which equals
    ||f||^2 * ||g||^2 in discrete norms; on the square lattice the
    discrete identity is exact.
    """
    return float(1 / c.grid.L * np.sum(np.abs(c.values) ** 2))


def lattice_norm(values, dx, dy, p):
    """The mixed L^{p,1} norm of a lattice: `_outer_l1` of each row's sum of |.|^p."""
    return _outer_l1(np.sum(np.abs(values) ** p, axis=1), dx, dy, p)


def mixed_norm(values, grid, p):
    """Discrete mixed norm of a lattice on grid: outer L1 sum over y of the
    inner L^p norm in x."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return lattice_norm(values, grid.dt, grid.dy, p)


def padded(rows, plan):
    """The (L, L) lattice of rows held on omega's row band, as `_divide`'s
    J and the plan's den are: row r is lattice row plan.first + r, and
    the other rows are zeros."""
    out = np.zeros((plan.grid.L, plan.grid.L), dtype=rows.dtype)
    out[plan.first:plan.first + len(rows)] = rows
    return out


def den_lattice(plan):
    """A plan's den, held on omega's row band, padded back to the (L, L)
    lattice with zeros."""
    return padded(plan.den, plan)


def assemble(measurements, plan):
    """J = F(sum_{j in group} |V_{g_j} f|^2) / sum_{j in group} A g_j on each
    group's region, zero off omega, on the whole (L, L) lattice: what
    `run_alg1` and `run_alg2` invert."""
    powers = check_powers(measurements, sum(map(len, plan.groups)), plan.grid)
    return padded(_divide(group_lines(powers, plan), plan), plan)


def masked_inversion(values, first, grid, cfg, mask):
    """Oracle for `retrieval._invert`: the inversion as it stood when it
    read the (L, L) mask, of the complex rows `values`, lattice rows
    first, first + 1, ...  The x = 0 column is zeroed off the mask, the
    rows summed are the mask's row span, and each block is multiplied
    only on the mask into a cleared buffer.  Returns (samples, anchor,
    omega_area_fraction)."""
    L = grid.L
    h = L // 2
    k = np.arange(L)
    sgn = (-1.0) ** k
    col = np.zeros(L, dtype=np.complex128)
    col[first:first + len(values)] = values[:, h]
    col = np.where(mask[:, h], col, 0) * sgn
    slice_l1 = grid.dy * float(np.sum(np.abs(col)))
    wprof = sgn * ((grid.dy * 1j ** (L % 4) * L) * np.fft.ifft(col))
    anchor = int(np.argmax(np.abs(wprof))) if cfg.anchor is None else int(cfg.anchor) % L
    u0 = wprof[anchor]
    if slice_l1 <= 0 or abs(u0) < 1e-10 * slice_l1:
        raise DegenerateAnchorError(f"anchor {anchor} has |u_c(0)| ~ 0")
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
        np.multiply(values[m0 - first:m1 - first], powers[:m1 - m0], out=block,
                    where=mask[m0:m1])
        diag += roots[(m0 * a + b) % (2 * L)] * block.sum(axis=0)
    out = np.zeros(L, dtype=np.complex128)
    out[j] = (grid.dy * 1j ** (L % 4)) * ((-1.0) ** (k + s)) * diag / np.sqrt(abs(u0))
    return out, anchor, float(mask.mean())


def noise_sums(clean, noisy, plan):
    """Each plan group's noise sum, eta = noisy - clean added over the
    group in member order, from whole lists of clean and noisy powers."""
    n = sum(map(len, plan.groups))
    clean, noisy = check_powers(clean, n, plan.grid), check_powers(noisy, n, plan.grid)
    sums = []
    for group in plan.groups:
        eta = noisy[group[0]] - clean[group[0]]
        for j in group[1:]:
            eta += noisy[j] - clean[j]
        sums.append(eta)
    return sums


def group_lines(powers, plan, l1=False):
    """Oracle for `measure_lines`: each plan group's first pass on its span
    of its powers summed from a whole list (`_group_sum`)."""
    return [lines_of(_group_sum(powers, g), plan.grid, span, l1)
            for g, span in zip(plan.groups, plan.spans, strict=True)]


def noisy_powers(clean, noise, seed):
    """The CLI's noisy powers, drawn window by window from whole clean
    ones: window j's from its own generator, seeded seed + j."""
    return [add_noise(p, noise["model"], float(noise["level"]), seed + j)
            for j, p in enumerate(clean)]


def noise_lines(clean, noisy, plan):
    """Oracle for `measure_lines`' noise lines: each group's first pass on
    its span, with the L1, of its `noise_sums` from whole lists."""
    return [lines_of(eta, plan.grid, span, l1=True)
            for eta, span in zip(noise_sums(clean, noisy, plan), plan.spans, strict=True)]


def two_list_bounds(clean, noisy, plan, f_true=None):
    """Oracle for the CLI's noise sums: `verify_noise_bounds` in its
    two-list form, the noise lines made from whole clean and noisy lists
    (`noise_lines`) rather than as the noise is drawn."""
    return verify_noise_bounds(noise_lines(clean, noisy, plan), plan, f_true)


def row_l1(x):
    """sum |x| by the noise bound's rule: each row's pairwise sum, on a
    C-ordered copy, added in row order."""
    return float(np.add.accumulate(np.sum(np.abs(np.ascontiguousarray(x)), axis=1))[-1])


def two_assembly_bounds(clean, noisy, plan, p=2.0, f_true=None):
    """Oracle for `verify_noise_bounds`: the check as it stood before it
    transformed the noise sums.  A and A^eta are assembled from the clean
    and the noisy measurements, and the norms are taken of their
    difference over the whole plane."""
    A, A_eta = assemble(clean, plan), assemble(noisy, plan)
    grid, eps, omega = plan.grid, plan.epsilon, plan.omega
    dx, dy = grid.dt, grid.dy
    k0 = grid.L // 2
    noise_norm = max(dx * dy * row_l1(eta) for eta in noise_sums(clean, noisy, plan))
    C_p = lattice_norm(omega.astype(float), dx, dy, p)
    C_R = dx * float(np.sum(omega[k0, :]))
    lhs = lattice_norm(A - A_eta, dx, dy, p)
    lhs_slice = dy * float(np.sum(np.abs(A[:, k0] - A_eta[:, k0])))
    rhs, rhs_slice = C_p / eps * noise_norm, C_R / eps * noise_norm
    approx = approx_slice = None
    if f_true is not None:
        outside = np.where(omega, 0.0, numeric_ambiguity(f_true.values, grid))
        approx = lattice_norm(outside, dx, dy, p)
        approx_slice = dy * float(np.sum(np.abs(outside[:, k0])))
    return BoundReport(
        epsilon=eps, p=p, C_p=C_p, C_R_Omega=C_R, lhs_A_norm=lhs, rhs_bound=rhs,
        lhs_slice=lhs_slice, rhs_slice_bound=rhs_slice, noise_norm=noise_norm,
        satisfied=(bool(lhs <= rhs), bool(lhs_slice <= rhs_slice)),
        approx_term=approx, approx_slice_term=approx_slice)


def gauss_baseline_family(grid):
    """The one standard-Gauss window `specret baseline` retrieves with."""
    return WindowFamily(members=(gauss_window_member(1.0, grid),), grid=grid)


def product_band(power, grid, rows):
    """The blocks of `product_blocks` for rows = (first, stop), gathered into
    one band: the lattice rows of F(|V_g f|^2)(y, -x), which is
    A f(x, y) * conj(A g(x, y)) on the finite lattice."""
    r0, r1 = rows
    G = np.empty((r1 - r0, grid.L), dtype=np.complex128)
    for m0, block in product_blocks(lines_of(power, grid, rows), grid, rows):
        G[m0 - r0:m0 - r0 + len(block)] = block
    return G


def gathered_product(power, grid, rows):
    """Oracle for `product_blocks`: the whole-band read-out before it went
    by blocks.  The band's rows are gathered from the half
    plane in one fancy index per half, then scaled and modulated whole."""
    L = grid.L
    h = L // 2
    r0, r1 = rows
    H = np.fft.rfft(power, axis=0)
    np.fft.fft(H, axis=1, out=H)
    for line in (H[0], H[h]):
        line[h + 1:] = line[h - 1:0:-1].conj()
        line.imag[[0, h]] = 0.0
    i = np.arange(r0, r1)
    G = np.empty((r1 - r0, L), dtype=np.complex128)
    G[:, :h + 1] = H[h::-1, (i + h) % L].T
    np.conjugate(H[1:h, (h - i) % L].T, out=G[:, h + 1:])
    sgn = (-1.0) ** np.arange(L)
    G *= ((grid.dt * grid.dy) * sgn[r0:r1])[:, None]
    G *= sgn
    return G


def _roots(L, sign):
    """exp(sign 2i pi m k / L) on the (m, k) lattice, the exponent reduced mod L."""
    k = np.arange(L)
    return np.exp(sign * 2j * np.pi / L * (np.multiply.outer(k, k) % L))


def dense_groups(f, family, cfg, noise=None):
    """Each plan group's (P, eta, values) as dense sums, with no FFT: P its
    summed powers, each the direct sum over l of the `stft` convention,
    made noisy with noise = (model, level, seed) (window j's cell [m, k]
    takes draw m*L + k of a generator seeded seed + j); eta its summed
    noise, noisy - clean; values its ambiguity sum, the closed forms at
    (x_k, y_m).  The groups are alg1's one group of all members or alg2's
    one per member."""
    grid = family.grid
    L, h, dt = grid.L, grid.L // 2, grid.dt
    k = np.arange(L)
    # c[m, k] = dt sum_l f_l conj(g[(l - k + L/2) mod L]) exp(-2i pi t_l y_m)
    shifts = np.exp(-2j * np.pi * np.multiply.outer(grid.y, grid.t))
    lags = (k[:, None] - k[None, :] + h) % L
    X, Y = np.meshgrid(grid.x, grid.y)
    n = len(family)
    for group in [list(range(n))] if cfg.algorithm == "alg1" else [[j] for j in range(n)]:
        P, eta, values = np.zeros((L, L)), np.zeros((L, L)), np.zeros((L, L))
        for j in group:
            g = family.members[j].samples
            clean = np.abs(dt * (shifts @ (f.values[:, None] * np.conj(g[lags])))) ** 2
            noisy = clean
            if noise is not None:
                model, level, seed = noise
                z = level * np.random.default_rng(seed + j).standard_normal((L, L))
                noisy = clean + z if model == "additive" else clean * (1 + z) ** 2
            P += noisy
            eta += noisy - clean
            values += family.members[j].evaluator(X, Y)
        yield P, eta, values


def dense_product(P, grid):
    """The direct double sum of the `product_blocks` docstring:
    G[i, j] = dt dy s(i + j) sum_{m, k} P[m, k] s(m + k) exp(2i pi (m j - k i) / L)."""
    s = (-1.0) ** np.arange(grid.L)
    return grid.dt * grid.dy * np.outer(s, s) * (_roots(grid.L, -1) @ (P * np.outer(s, s)).T
                                                 @ _roots(grid.L, 1))


def dense_noise_bounds(f, family, cfg, noise):
    """Reference for `verify_noise_bounds` on the noise of `dense_groups`:
    (lhs, rhs, lhs_slice, rhs_slice) as dense sums.  On group i's cells,
    the ones where |values| > epsilon * dt that no earlier group claimed,
    A - A^eta = -G(eta) / values (`dense_product`); with p = 2,

        lhs = dy sum_m (dx sum_k |A - A^eta|^2)^(1/2),
        lhs_slice = dy sum_m |A - A^eta|[m, L/2],
        rhs = C_p / eps * max_i dx dy sum |eta_i|,  C_p = dy sum_m (dx #omega_m)^(1/2),
        rhs_slice = C_R / eps * max_i dx dy sum |eta_i|,  C_R = dx #omega[L/2, :].
    """
    grid = family.grid
    L, h, dx, dy = grid.L, grid.L // 2, grid.dt, grid.dy
    eps = cfg.epsilon * dx
    owner = np.full((L, L), -1)
    diff = np.zeros((L, L), dtype=np.complex128)
    norms = []
    for i, (_, eta, values) in enumerate(dense_groups(f, family, cfg, noise)):
        bits = (np.abs(values) > eps) & (owner < 0)
        owner[bits] = i
        diff[bits] = -dense_product(eta, grid)[bits] / values[bits]
        norms.append(dx * dy * np.sum(np.abs(eta)))
    omega = owner >= 0
    noise_norm = max(norms)
    C_p = dy * np.sum(np.sqrt(dx * omega.sum(axis=1)))
    C_R = dx * np.sum(omega[h])
    lhs = dy * np.sum(np.sqrt(dx * np.sum(np.abs(diff) ** 2, axis=1)))
    lhs_slice = dy * np.sum(np.abs(diff[:, h]))
    return lhs, C_p / eps * noise_norm, lhs_slice, C_R / eps * noise_norm


def dense_retrieve(f, family, cfg, noise=None):
    """Reference for `run_alg1` and `run_alg2`: the whole retrieval as dense
    sums of the paper's formulas on the grid of `grid.py`, with no FFT and
    no library numerics beyond the window samples and the closed-form
    evaluators (each member's `evaluator(x, y)`).

    - The powers, their group sums and each group's ambiguity sum are
      `dense_groups`', noisy with `noise`.
    - The product is the direct double sum of `dense_product`.
    - The groups (alg1: all members; alg2: one per member) claim the
      cells where |sum| > epsilon * dt in order.
    - The inversion takes V = exp(-i pi x y) J, its inverse DFT along y,
      U[j, k] = sum_m V[m, k] (-1)^m exp(2i pi m j / L), the anchor from
      the x = 0 column and the diagonal k -> (k + c - L/2, k).

    Returns (samples, anchor, owner, den), den on the whole lattice; raises
    EmptyMaskError and DegenerateAnchorError as the runners do.
    """
    grid = family.grid
    L, h, dt, dy = grid.L, grid.L // 2, grid.dt, grid.dy
    k = np.arange(L)
    s = (-1.0) ** k
    inverse = _roots(L, 1)
    eps = cfg.epsilon * dt
    owner = np.full((L, L), -1)
    den = np.zeros((L, L))
    J = np.zeros((L, L), dtype=np.complex128)
    for i, (P, _, values) in enumerate(dense_groups(f, family, cfg, noise)):
        G = dense_product(P, grid)
        bits = (np.abs(values) > eps) & (owner < 0)
        owner[bits] = i
        den[bits] = values[bits]
        J[bits] = G[bits] / values[bits]
    if not (owner >= 0).any():
        raise EmptyMaskError("no window group's ambiguity exceeds the tolerance")
    V = np.exp(-1j * np.pi * np.multiply.outer(grid.y, grid.x)) * J
    U = inverse @ (V * s[:, None])
    scale = dy * 1j ** (L % 4)
    profile = scale * s * U[:, h]  # |f(c)|^2 up to the normalization
    anchor = int(np.argmax(np.abs(profile))) if cfg.anchor is None else int(cfg.anchor) % L
    u0 = profile[anchor]
    slice_l1 = dy * float(np.sum(np.abs(J[:, h])))
    if slice_l1 <= 0 or abs(u0) < 1e-10 * slice_l1:
        raise DegenerateAnchorError(f"anchor {anchor} has |u_c(0)| ~ 0")
    rows = (k + anchor - h) % L
    samples = np.zeros(L, dtype=np.complex128)
    samples[rows] = scale * (-1.0) ** (k + anchor - h) * U[rows, k] / np.sqrt(abs(u0))
    return samples, anchor, owner, den


def serial_divide(lines, plan):
    """Oracle for `retrieval._divide`: J made once the first group's lines
    are transformed, and each group's product divided into it block by
    block, one group after another."""
    J = None
    for i, group_lines_i in enumerate(lines):
        for m0, block in product_blocks(group_lines_i, plan.grid, plan.spans[i]):
            if J is None:
                J = np.zeros(plan.den.shape, dtype=np.complex128)
            m1 = m0 + len(block)
            band = slice(m0 - plan.first, m1 - plan.first)
            np.divide(block, plan.den[band], out=J[band], where=plan.owner[m0:m1] == i)
    return J


def serial_noise_bounds(noise_lines, plan):
    """Oracle for `verify_noise_bounds` without a true signal: one loop over
    the groups in order, each block's row sums of |A - A^eta|^2 and x = 0
    cells added straight into the lattice's, and the report's figures
    from these by the paper's formulas."""
    grid, eps, owner, p = plan.grid, plan.epsilon, plan.owner, 2.0
    dx, dy, k0 = grid.dt, grid.dy, grid.L // 2
    row_sums, slice_abs = np.zeros(grid.L), np.zeros(grid.L)
    for i, lines in enumerate(noise_lines):
        for m0, diff in product_blocks(lines, grid, plan.spans[i]):
            m1 = m0 + len(diff)
            bits = owner[m0:m1] == i
            np.divide(diff, plan.den[m0 - plan.first:m1 - plan.first], out=diff, where=bits)
            a = np.abs(diff) * bits
            slice_abs[m0:m1] += a[:, k0]
            row_sums[m0:m1] += np.sum(np.power(a, p), axis=1)
    noise_norm = dx * dy * max(lines.l1 for lines in noise_lines)
    C_p = _outer_l1(plan.omega.sum(axis=1), dx, dy, p)
    C_R = dx * float(np.sum(owner[k0] >= 0))
    lhs, lhs_slice = _outer_l1(row_sums, dx, dy, p), dy * float(np.sum(slice_abs))
    rhs, rhs_slice = C_p / eps * noise_norm, C_R / eps * noise_norm
    return BoundReport(epsilon=eps, p=p, C_p=C_p, C_R_Omega=C_R, lhs_A_norm=lhs, rhs_bound=rhs,
                       lhs_slice=lhs_slice, rhs_slice_bound=rhs_slice, noise_norm=noise_norm,
                       satisfied=(bool(lhs <= rhs), bool(lhs_slice <= rhs_slice)))
