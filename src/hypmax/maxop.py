"""Discretized uncentred maximal operators over the set families.

The operator value at a point is the supremum, over the finite lattice of
family members containing it, of the average of |f| on the member.
Averages use closed-form denominators (ball/half-ball/trigonon/rectangle
areas, cylinder volumes) and grid integrals in the numerator.  A numerator
counts the cells whose centres lie in the member, so each value is a grid
estimate of the continuum average that can err in either direction; it is
not a certified bound.

A half-plane family is an ``hyp2.H2Family`` (what ``h2_lattice`` and
``admissible_family_for_grid`` return) or a list of ``H2Set``, which
``maximal_field`` and ``maximal_fn`` turn into columns first; a witness
index is a position in either, and ``MaxField.members`` is the family as
the caller passed it.  Cylinder families are lists.

``maximal_field`` does each family's work once, before its member loop.
``measure.member_blocks`` computes the block of every member in one pass:
the axis-aligned sub-block of the tensor grid outside which the member
holds no point.  The index range of the support of f is found once per
axis, and only the members whose block meets that range are masked,
summed and painted.  Skipping the others is exact: such a block holds
only cells with |f| = 0, so the member's numerator is exactly 0.0 and it
would paint no point, as a full-grid loop would skip it too.  Areas and
the predicate's radius constants are taken once per distinct (kind,
radius), and the loop reads plain floats from the columns.  A rectangle
(plain or admissible) needs no 2-D mask: its cells are one sub-block of
the grid (see ``hyp2``), so its numerator sums ``wv[block].ravel()``, the
same floats in the same C order as a masked gather, and it paints the
sub-block directly.

``maximal_fn`` tests the point against every half-plane member in one
vectorized call per kind and takes numerators only for the members that
contain it; it keeps the first member that attains the maximum.  On a
cylinder family it tests the point member by member, then shares
``_cells`` and ``_meets_support`` with ``maximal_field``: the blocks of
all containing cylinders come from one ``member_blocks`` call, and a
containing cylinder whose block misses supp f gets no numerator (it is
exactly 0.0 and attains no maximum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import drsets, hyp2
from .hyp2 import H2Family, H2Set, SetKind
from .measure import SampleGrid, block_mask, member_blocks
from .measure import membership_mask  # noqa: F401  (perfbench/tracing.py wraps maxop.membership_mask)
from .report import ExperimentReport


def radius_ladder(r_min: float, steps: int) -> np.ndarray:
    """Radii r_min + k log 2 for k = 0..steps-1 (geometric in e^R)."""
    return r_min + math.log(2.0) * np.arange(steps)


def grid_centers(grid: SampleGrid, max_per_axis: int = 24) -> np.ndarray:
    """(m, 2) array of lattice centers subsampled from the grid cells."""
    xs, ys = grid.axes
    xs = xs[:: max(1, len(xs) // max_per_axis)]
    ys = ys[:: max(1, len(ys) // max_per_axis)]
    Xg, Yg = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([Xg.ravel(), Yg.ravel()])


def h2_lattice(kind: str, centers, radii) -> H2Family:
    """Half-plane sets of one kind, named as in ``SetKind``, over the
    lattice centers x radii, in that product order, as columns."""
    k = SetKind(kind)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    n = radii.size
    return H2Family(k, np.repeat(centers[:, 0], n), np.repeat(centers[:, 1], n), np.tile(radii, len(centers)))


def admissible_family_for_grid(grid: SampleGrid, k_max: int, max_x: int = 64) -> H2Family:
    """Admissible rectangles whose lattice is induced by the grid: x on the
    cell lattice, j spanning the window heights, K = 2..k_max, in the
    product order xs x js x Ks, as columns."""
    xs = grid.axes[0]
    xs = xs[:: max(1, len(xs) // max_x)]
    _, _, u_lo, u_hi = grid.window
    js = np.arange(math.floor(u_lo), math.ceil(u_hi) + 1)
    ks = np.arange(2, k_max + 1)
    per_x = js.size * ks.size
    # centre heights e^j as math.exp gives them, as admissible_rectangle does
    heights = np.repeat([math.exp(j) for j in js.tolist()], ks.size)
    return H2Family(
        SetKind.ADMISSIBLE_RECTANGLE,
        np.repeat(xs, per_x),
        np.tile(heights, xs.size),
        np.tile(ks.astype(float), xs.size * js.size),
        np.tile(np.repeat(js, ks.size), xs.size),
    )


@dataclass
class MaxField:
    """Operator values over all grid points, with per-point witness index
    into ``members``, the family as the caller passed it."""

    values: np.ndarray
    witness_idx: np.ndarray
    members: object


@dataclass
class MaxResult:
    value: float
    witness: Optional[object]
    empty: bool = False


def _check_omega(members, omega) -> None:
    if omega is None and not isinstance(members, H2Family) and not all(isinstance(s, H2Set) for s in members):
        raise ValueError("cylinder members need omega, the volume of the unit gauge ball")


def _support_range(nz: np.ndarray) -> tuple:
    """(lo, hi), one entry per axis of nz: the smallest index range
    [lo, hi) on each axis that holds every True cell; (0, 0) on every axis
    when nz holds none."""
    lo, hi = np.zeros(nz.ndim, dtype=np.int64), np.zeros(nz.ndim, dtype=np.int64)
    for k in range(nz.ndim):
        hit = np.flatnonzero(nz.any(axis=tuple(j for j in range(nz.ndim) if j != k)))
        if hit.size:
            lo[k], hi[k] = hit[0], hit[-1] + 1
    return lo, hi


_SEPARABLE = (SetKind.RECTANGLE, SetKind.ADMISSIBLE_RECTANGLE)


def _h2_cells(grid: SampleGrid, fam: H2Family, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(idx, block, mask, area) for each member fam[idx], idx in ``rows``,
    whose blocks are the rows of (lo, hi): the cells of the member are the
    True cells of ``mask`` on ``block``, or all of ``block`` when ``mask``
    is None.  A rectangle with no cell is not yielded.

    Strict membership is one ``hyp2.mask`` call per member, on floats read
    from the columns.  A rectangle is separable (see ``hyp2``): its cells
    are the columns that the top row of its block holds (none if that row
    lies below the rectangle) times the heights above e^{-R} zy, a suffix
    found by ``searchsorted``, so it needs no 2-D mask."""
    xs, ys = grid.axes
    sub = fam[rows]
    s2, em, ep = hyp2.radius_terms(sub).T
    area = hyp2.areas(sub)
    # first height index with y > e^{-R} zy; used by rectangles only
    top = ys.searchsorted(em * sub.y, side="right")
    cols = (rows, sub.kind, sub.x, sub.y, s2, em, ep, area, *lo.T, *hi.T, top)
    for idx, code, zx, zy, a, b, c, measure, x0, y0, x1, y1, t in zip(*(col.tolist() for col in cols)):
        kind = hyp2.KINDS[code]
        if kind in _SEPARABLE:
            inside = np.flatnonzero(hyp2.mask(kind, zx, zy, a, b, c, xs[x0:x1], ys[y1 - 1]))
            if inside.size:
                yield idx, (slice(x0 + int(inside[0]), x0 + int(inside[-1]) + 1), slice(max(t, y0), y1)), None, measure
        else:
            block = (slice(x0, x1), slice(y0, y1))
            yield idx, block, hyp2.mask(kind, zx, zy, a, b, c, xs[block[0], None], ys[None, block[1]]), measure


def _cylinder_cells(grid: SampleGrid, members, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, omega: float):
    """(idx, block, mask, volume) for each cylinder members[idx], idx in
    ``rows``, whose blocks are the rows of (lo, hi)."""
    for idx, l, h in zip(rows.tolist(), lo.tolist(), hi.tolist()):
        s = members[idx]
        block = tuple(map(slice, l, h))
        yield idx, block, block_mask(grid, s, block), drsets.cylinder_volume(grid.alg, s, omega)


def _cells(grid: SampleGrid, fam, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, omega: float):
    """``_h2_cells`` or ``_cylinder_cells``, by the space of the grid."""
    if grid.space == "h2":
        return _h2_cells(grid, fam, rows, lo, hi)
    return _cylinder_cells(grid, fam, rows, lo, hi, omega)


def _meets_support(wv: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per block row of (lo, hi): whether it meets the index range of the
    support of wv.  A block that misses it holds only wv == 0, so its
    member's integral is exactly 0.0 and the member paints nothing."""
    s_lo, s_hi = _support_range(wv != 0)
    return (np.maximum(lo, s_lo) < np.minimum(hi, s_hi)).all(axis=1)


def _numerator(wv: np.ndarray, block: tuple, mask) -> float:
    # a 1-D array of the member's cells in C order, as a full-grid gather
    # gives them, so numpy's pairwise sum adds the same floats in the same way
    return float((wv[block].ravel() if mask is None else wv[block][mask]).sum())


def maximal_field(grid: SampleGrid, members, omega: float = None) -> MaxField:
    """Operator values at every grid point over the family ``members`` (an
    ``H2Family``, a list of ``H2Set`` or a list of cylinders); ties keep
    the earliest member.  Cylinder families need ``omega``."""
    _check_omega(members, omega)
    fam = H2Family.of(members) if grid.space == "h2" else members
    wv = (grid.weights * np.abs(grid.values)).reshape(grid.shape)
    out = np.zeros(grid.shape)
    widx = np.full(grid.shape, -1, dtype=np.int64)
    lo, hi = member_blocks(grid, fam)
    rows = np.flatnonzero(_meets_support(wv, lo, hi))
    for idx, block, mask, measure in _cells(grid, fam, rows, lo[rows], hi[rows], omega):
        integ = _numerator(wv, block, mask)
        if integ == 0.0:
            continue
        avg = integ / measure
        out_b = out[block]
        better = avg > out_b if mask is None else mask & (avg > out_b)
        out_b[better] = avg
        widx[block][better] = idx
    return MaxField(out.reshape(grid.size), widx.reshape(grid.size), members)


def maximal_fn(grid: SampleGrid, x, members, omega: float = None) -> MaxResult:
    """Operator value at one point with its witness set (the first member
    attaining it).  Half-plane members are tested against the point in one
    call per kind (``H2Family.contains_point``), cylinders one by one;
    for either family, numerators are taken only for the members that
    contain it and whose block meets supp f."""
    _check_omega(members, omega)
    wv = (grid.weights * np.abs(grid.values)).reshape(grid.shape)
    if grid.space == "h2":
        fam = H2Family.of(members)
        rows = np.flatnonzero(fam.contains_point(x.x, x.y))
        lo, hi = member_blocks(grid, fam[rows])
    else:
        fam = members
        rows = np.flatnonzero([drsets.cylinder_contains(grid.alg, s.as_cylinder(), x) for s in members])
        lo, hi = member_blocks(grid, [members[i] for i in rows.tolist()])
    keep = _meets_support(wv, lo, hi)
    best, best_idx = 0.0, None
    for idx, block, mask, measure in _cells(grid, fam, rows[keep], lo[keep], hi[keep], omega):
        avg = _numerator(wv, block, mask) / measure
        if avg > best:
            best, best_idx = avg, idx
    return MaxResult(best, None if best_idx is None else members[best_idx], empty=not rows.size)


def level_set_measure(grid: SampleGrid, members, alpha: float, fld: MaxField = None, omega: float = None) -> float:
    """Grid measure of { max fn > alpha }; nonincreasing in alpha.
    Cylinder families need ``omega``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if fld is None:
        fld = maximal_field(grid, members, omega)
    return float(grid.weights[fld.values > alpha].sum())


def level_set_table(grid: SampleGrid, members, alphas, omega: float = None) -> tuple:
    """(rows, field): one (alpha, level-set measure) row per alpha, from one
    ``maximal_field``.  Cylinder families need ``omega``."""
    fld = maximal_field(grid, members, omega)
    rows = [(float(a), level_set_measure(grid, members, a, fld)) for a in alphas]
    return rows, fld


# -------------------------------------------------------- L log L machinery

def llogl_lambda(nu: float) -> float:
    """The level-set bound's scale constant (e^nu - 1)(sqrt(e) - 1)/(4 e^{2 nu})."""
    return 0.25 * (math.exp(nu) - 1.0) * (math.sqrt(math.e) - 1.0) / math.exp(2.0 * nu)


def llogl_rhs(grid: SampleGrid, alpha: float, lam: float) -> float:
    """Weighted integral of (|f|/alpha) log(1 + |f|/(alpha lam))."""
    if alpha <= 0 or lam <= 0:
        raise ValueError("alpha and lambda must be positive")
    v = np.abs(grid.values) / alpha
    return float(np.sum(grid.weights * v * np.log1p(v / lam)))


def young_check(a: float, b: float, lam: float) -> tuple:
    """Margin of a b <= 2 lam e^{a/2} + 2 b log(b/lam + 1); (holds, margin)."""
    if min(a, b, lam) <= 0:
        raise ValueError("arguments must be positive")
    margin = 2.0 * lam * math.exp(a / 2.0) + 2.0 * b * math.log1p(b / lam) - a * b
    return margin >= 0.0, margin


def lp_norm(grid: SampleGrid, p: float) -> float:
    v = np.abs(grid.values)
    if math.isinf(p):
        return float(v.max(initial=0.0))
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    return float(np.sum(grid.weights * v**p) ** (1.0 / p))


# ------------------------------------------------------ operator comparisons

def comparison_constants(r_hi: float = 40.0, n: int = 40_000) -> dict:
    """Sharp family-comparison constants, maximized numerically over R >= 1:

    K1 = sup |T_R| / |b_R|              (half-ball average vs trigonon)
    K2 = sup |b_{R+log 2}| / |T_R|      (trigonon average vs half ball)
    K3 = sup 2 e^{ceil(R)+2} / |b_R|    (half ball vs admissible rectangle hull)
    """
    R = np.linspace(1.0, r_hi, n)
    T = 2 * np.exp(R) * np.sqrt(1 - np.exp(-2 * R)) - 2 * np.arccos(np.exp(-R))
    b = 2 * np.pi * np.sinh(R / 2) ** 2
    b_shift = 2 * np.pi * np.sinh((R + math.log(2)) / 2) ** 2
    # hull area 2 e^{ceil(R)+2} <= 2 e^{R+3}, and e^R / sinh^2(R/2) peaks at R = 1
    k3 = 2.0 * math.exp(4.0) / (2.0 * math.pi * math.sinh(0.5) ** 2)
    return {
        "K1": float((T / b).max()),
        "K2": float((b_shift / T).max()),
        "K3": k3,
    }


def operator_compare(grid: SampleGrid, ladder_steps: int = 4, max_per_axis: int = 14) -> ExperimentReport:
    """Pointwise comparison of the half-ball, trigonon and admissible
    rectangle operators over one aligned lattice of centers.

    Asserts, with the constants of ``comparison_constants``:
    N^b <= K1 N^T, N^T <= K2 N^b and N^b <= K3 N^Q' across the grid.
    The radius ladders are arranged so each witness member has its
    comparison counterpart inside the opposing family.
    """
    centers = grid_centers(grid, max_per_axis)
    ladder = radius_ladder(1.0, ladder_steps + 1)  # one extra top rung
    sub = ladder[:-1]

    k_hull = math.ceil(float(sub[-1])) + 2

    # each family is built at its call, so only one is held at a time
    nb_sub = maximal_field(grid, h2_lattice("half_ball", centers, sub)).values
    nb = np.maximum(nb_sub, maximal_field(grid, h2_lattice("half_ball", centers, ladder[-1:])).values)
    nt_sub = maximal_field(grid, h2_lattice("trigonon", centers, sub)).values
    nt = np.maximum(nt_sub, maximal_field(grid, h2_lattice("trigonon", centers, ladder[-1:])).values)
    nq = maximal_field(grid, admissible_family_for_grid(grid, k_max=k_hull)).values

    K = comparison_constants()
    tol = 1e-9

    def worst_ratio(lhs, rhs):
        pos = rhs > 0
        if not pos.any():
            return 0.0
        return float((lhs[pos] / rhs[pos]).max())

    r1 = worst_ratio(nb, nt)
    r2 = worst_ratio(nt_sub, nb)
    r3 = worst_ratio(nb_sub, nq)

    rep = ExperimentReport(
        "operator_compare",
        meta={"ladder_steps": ladder_steps, "centers": len(centers)},
    )
    rep.add_table(
        "constants",
        ["name", "value"],
        [["K1", K["K1"]], ["K2", K["K2"]], ["K3", K["K3"]]],
    )
    rep.add_table(
        "worst_ratios",
        ["comparison", "observed", "bound"],
        [
            ["half_ball_vs_trigonon", r1, K["K1"]],
            ["trigonon_vs_half_ball", r2, K["K2"]],
            ["half_ball_vs_admissible", r3, K["K3"]],
        ],
    )
    rep.check("half_ball_le_K1_trigonon", K["K1"] * (1 + tol), r1, r1 <= K["K1"] * (1 + tol))
    rep.check("trigonon_le_K2_half_ball", K["K2"] * (1 + tol), r2, r2 <= K["K2"] * (1 + tol))
    rep.check("half_ball_le_K3_admissible", K["K3"] * (1 + tol), r3, r3 <= K["K3"] * (1 + tol))
    return rep
