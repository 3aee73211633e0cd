"""Discretized uncentred maximal operators over the set families.

The operator value at a point is the supremum, over the finite lattice of
family members containing it, of the average of |f| on the member.
Averages use closed-form denominators (ball/half-ball/trigonon/rectangle
areas, cylinder volumes) and grid integrals in the numerator.  A numerator
counts the cells whose centres lie in the member, so each value is a grid
estimate of the continuum average that can err in either direction; it is
not a certified bound.

A half-plane family is an ``hyp2.H2Family`` (what ``h2_lattice`` and
``admissible_family_for_grid`` return) or a list of ``H2Set``, which the
operators turn into columns first; a witness index is a position in
either, and ``MaxField.members`` is the family as the caller passed it.
A cylinder family is a ``drsets.CylFamily`` or a list of cylinders.

Both operators read one member pass, ``_member_pass``: it yields
(idx, block, mask, average) for each member whose cells hold part of
supp f, in family order.  ``measure.member_blocks`` computes the block of
every member at once: the axis-aligned sub-block of the tensor grid
outside which the member holds no point.  Only the members whose block
meets the index range of supp f are masked, each once; skipping the
others is exact, since their average is exactly 0.0.  Areas and the
predicate's radius constants are taken once per distinct (kind, radius).

Half-plane members are masked in centre runs: maximal runs of consecutive
members with the same kind, centre and block columns, as the product
orders centres x radii and xs x js x Ks give them.  A run evaluates the
terms of the predicate that do not read the radius (``hyp2.centre_terms``)
once, on the union of its members' blocks, and each member reads the slice
on its own rows.  This is exact: every cell's verdict is the float
expression of ``hyp2.mask``, only evaluated once per centre, so every
numerator gathers the same cells in the same C order.  A trigonon's mask
is the half disc on the heights above its cut e^{-R} zy, a suffix of the
height axis; a rectangle needs no 2-D mask: its
cells are one sub-block of the grid (see ``hyp2``), whose numerator sums
``wv[block].ravel()``, the same floats in the same C order as a masked
gather.

The constants of ``operator_compare`` (``comparison_constants``) are
closed forms in the areas of ``hyp2``: each ratio decreases in R, so
each supremum over R >= 1 is its value (for K3 its limit) at R = 1.

``member_averages`` is the pass as a table: one average per member, 0.0
where the member holds no cell of supp f.  ``maximal_field`` paints each
yielded average onto the member's cells where it beats the value there.
``maximal_fn`` finds the members that contain the point (one vectorized
call per half-plane kind, one for all cylinders) and takes the first
maximum of their ``member_averages``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import drsets, hyp2
from .drsets import CylFamily
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
    """Admissible rectangles (``hyp2.admissible_rectangle``) whose lattice is
    induced by the grid: x on the cell lattice, centre heights e^j with j
    spanning the window heights, radii K = 2..k_max, in the product order
    xs x js x Ks, as columns."""
    xs = grid.axes[0]
    xs = xs[:: max(1, len(xs) // max_x)]
    _, _, u_lo, u_hi = grid.window
    js = np.arange(math.floor(u_lo), math.ceil(u_hi) + 1)
    ks = np.arange(2, k_max + 1)
    per_x = js.size * ks.size
    # centre heights e^j as math.exp gives them, as admissible_rectangle does
    heights = np.repeat([math.exp(j) for j in js.tolist()], ks.size)
    return H2Family(
        SetKind.RECTANGLE, np.repeat(xs, per_x), np.tile(heights, xs.size), np.tile(ks.astype(float), xs.size * js.size)
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


# the kinds that hold only points above e^{-R} zy
_CUT_CODES = [hyp2.KINDS.index(k) for k in (SetKind.TRIGONON, SetKind.RECTANGLE)]


def _numerator(wv: np.ndarray, block: tuple, mask) -> float:
    # a 1-D array of the member's cells in C order, as a full-grid gather
    # gives them, so numpy's pairwise sum adds the same floats in the same way
    return float((wv[block].ravel() if mask is None else wv[block][mask]).sum())


def _centre_runs(*keys) -> list:
    """[start, stop) of each maximal run of consecutive rows on which every
    key column is constant."""
    n = keys[0].size
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    return list(zip(starts.tolist(), np.append(starts[1:], n).tolist()))


def _h2_cells(grid: SampleGrid, fam: H2Family, wv: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(idx, block, mask, average) for each member fam[idx], idx in
    ``rows``, whose blocks are the rows of (lo, hi) and whose cells hold
    part of supp wv: the cells of the member are the True cells of ``mask``
    on ``block``, or all of ``block`` when ``mask`` is None.

    The members are walked in centre runs: maximal runs of consecutive
    rows with the same kind, centre and block columns (a lattice of
    centres x radii gives one run per centre).  A run evaluates
    ``hyp2.centre_terms`` once, on its union block (its columns x the union
    of its members' heights), and each member reads the slice of those
    terms on its own heights.  Every cell's verdict is the float expression
    of ``hyp2.mask``, evaluated once per centre instead of once per member,
    so each mask holds the bits of a ``mask`` call on the member's block.

    A ball, half ball or modified half ball applies ``hyp2.radius_test`` to
    its slice.  Trigona and rectangles lie above e^{-R} zy, a suffix of the
    height axis found by ``searchsorted`` for all members at once: their
    block starts at its first row (it is empty when the suffix misses the
    block), so the height test holds on every row of it.  A trigonon's mask
    is then the run's half disc on its rows, a slice.  A rectangle is
    separable (see ``hyp2``): its cells are the run's strip of columns times
    its rows, one sub-block with no 2-D mask.  Cutting rows where the mask
    is all False keeps the other cells in the same C order."""
    xs, ys = grid.axes
    sub = fam[rows]
    s2, em, ep = hyp2.radius_terms(sub).T
    area = hyp2.areas(sub)
    x0, y0 = lo.T
    x1, y1 = hi.T
    # the first height above the cut; it is at most y1, since a block
    # reaches above its centre's height zy > e^{-R} zy
    top = ys.searchsorted(hyp2.cut_height(em, sub.y), side="right")
    y0 = np.where(np.isin(sub.kind, _CUT_CODES), np.maximum(top, y0), y0)
    members = list(zip(*(col.tolist() for col in (rows, s2, em, ep, area, y0, y1))))
    for start, stop in _centre_runs(sub.kind, sub.x, sub.y, x0, x1):
        kind = hyp2.KINDS[int(sub.kind[start])]
        zx, zy, c0, c1 = sub.x[start].item(), sub.y[start].item(), int(x0[start]), int(x1[start])
        run = members[start:stop]
        u0, u1 = min(m[5] for m in run), max(m[6] for m in run)
        X, Y = xs[c0:c1, None], ys[None, u0:u1]
        terms = hyp2.centre_terms(kind, zx, zy, X, Y)
        if kind is SetKind.RECTANGLE:
            # the strip |x - zx| < zy is one run of columns, on every row
            strip = np.flatnonzero(terms[0][:, 0])
            if not strip.size:
                continue
            cols = slice(c0 + int(strip[0]), c0 + int(strip[-1]) + 1)
        for idx, a, b, c, measure, r0, r1 in run:
            own = slice(r0 - u0, r1 - u0)
            if kind is SetKind.RECTANGLE:
                block, mask = (cols, slice(r0, r1)), None
            elif kind is SetKind.TRIGONON:
                block, mask = (slice(c0, c1), slice(r0, r1)), terms[0][:, own]
            else:
                block = (slice(c0, c1), slice(r0, r1))
                mask = hyp2.radius_test(kind, tuple(t[:, own] for t in terms), zx, zy, a, b, c, X, Y[:, own])
            integ = _numerator(wv, block, mask)
            if integ:
                yield idx, block, mask, integ / measure
        # the run's terms go before the next run computes its own
        del terms


def _cylinder_cells(
    grid: SampleGrid, fam: CylFamily, wv: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, omega: float
):
    """(idx, block, mask, average) for each cylinder fam[idx], idx in
    ``rows``, whose blocks are the rows of (lo, hi) and whose cells hold
    part of supp wv."""
    for idx, l, h in zip(rows.tolist(), lo.tolist(), hi.tolist()):
        s = fam[idx]
        block = tuple(map(slice, l, h))
        mask = block_mask(grid, s, block)
        integ = _numerator(wv, block, mask)
        if integ:
            yield idx, block, mask, integ / drsets.cylinder_volume(grid.alg, s, omega)


def _member_pass(grid: SampleGrid, members, omega: float):
    """(idx, block, mask, average) for each member members[idx] whose
    cells hold part of supp f, in family order; only the members whose
    block meets the index range of supp f reach the cell generator."""
    _check_omega(members, omega)
    # the blocks first: member_blocks refuses a member of the other space
    lo, hi = member_blocks(grid, members)
    fam = H2Family.of(members) if grid.space == "h2" else CylFamily.of(grid.alg, members)
    wv = (grid.weights * np.abs(grid.values)).reshape(grid.shape)
    s_lo, s_hi = _support_range(wv != 0)
    rows = np.flatnonzero((np.maximum(lo, s_lo) < np.minimum(hi, s_hi)).all(axis=1))
    if grid.space == "h2":
        return _h2_cells(grid, fam, wv, rows, lo[rows], hi[rows])
    return _cylinder_cells(grid, fam, wv, rows, lo[rows], hi[rows], omega)


def member_averages(grid: SampleGrid, members, omega: float = None) -> np.ndarray:
    """One grid average of |f| per member of ``members``, in family order;
    0.0 for a member that holds no cell of supp f.  Cylinder families need
    ``omega``."""
    out = np.zeros(len(members))
    for idx, _, _, avg in _member_pass(grid, members, omega):
        out[idx] = avg
    return out


def maximal_field(grid: SampleGrid, members, omega: float = None) -> MaxField:
    """Operator values at every grid point over the family ``members`` (an
    ``H2Family``, a ``CylFamily`` or a list of either's members); ties keep
    the earliest member.  Cylinder families need ``omega``."""
    out = np.zeros(grid.shape)
    widx = np.full(grid.shape, -1, dtype=np.int64)
    for idx, block, mask, avg in _member_pass(grid, members, omega):
        out_b = out[block]
        better = avg > out_b if mask is None else mask & (avg > out_b)
        out_b[better] = avg
        widx[block][better] = idx
    return MaxField(out.reshape(grid.size), widx.reshape(grid.size), members)


def maximal_fn(grid: SampleGrid, x, members, omega: float = None) -> MaxResult:
    """Operator value at one point with its witness set (the first member
    attaining it): the first maximum of ``member_averages`` over the members
    that contain the point.  Half-plane members are tested in one call per
    kind (``H2Family.contains_point``), cylinders in one batch call."""
    # on the whole family: a point that no member contains still needs omega
    _check_omega(members, omega)
    if grid.space == "h2":
        fam = H2Family.of(members)
        inside = fam.contains_point(x.x, x.y)
    else:
        fam = CylFamily.of(grid.alg, members)
        inside = drsets.cylinder_contains_batch(grid.alg, fam, x.X[:, None], x.Z[:, None], np.array([x.a]))
    rows = np.flatnonzero(inside)
    sub = fam[rows]
    avg = member_averages(grid, sub, omega)
    best = float(avg.max(initial=0.0))
    return MaxResult(best, members[int(rows[avg.argmax()])] if best > 0 else None, empty=not rows.size)


def level_set_table(grid: SampleGrid, members, alphas, omega: float = None) -> tuple:
    """(rows, field): one (alpha, grid measure of { max fn > alpha }) row per
    alpha, from one ``maximal_field``; the measure is nonincreasing in
    alpha.  Every alpha must be positive.  Cylinder families need ``omega``."""
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha must be positive")
    fld = maximal_field(grid, members, omega)
    rows = [(float(a), float(grid.weights[fld.values > a].sum())) for a in alphas]
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


def lp_norm(grid: SampleGrid, p: float) -> float:
    v = np.abs(grid.values)
    if math.isinf(p):
        return float(v.max(initial=0.0))
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    return float(np.sum(grid.weights * v**p) ** (1.0 / p))


# ------------------------------------------------------ operator comparisons

def comparison_constants() -> dict:
    """Sharp family-comparison constants over R >= 1, closed forms in the
    areas of ``hyp2`` (|b_R| of the half ball, |T_R| of the trigonon):

    K1 = sup |T_R| / |b_R|              (half-ball average vs trigonon)
    K2 = sup |b_{R+log 2}| / |T_R|      (trigonon average vs half ball)
    K3 = sup 2 e^{ceil(R)+2} / |b_R|    (half ball vs admissible rectangle hull)

    Each supremum is the value at R = 1 (for K3 the limit from above).
    With |b_R| = pi (cosh R - 1), d|b_R|/dR = pi sinh R and
    d|T_R|/dR = 2 sqrt(e^{2R} - 1):
    - |T_R| / |b_R| decreases iff sqrt(e^{2R} - 1)(1 - tanh(R/2)) exceeds
      arccos e^{-R}; with u = tanh(R/2)^{1/2} these are 2u and 2 arctan u,
      and u > arctan u for u > 0.  The limit is 4/pi.
    - |b_{R+log 2}| / |T_R| decreases iff theta (2 + cos theta) > 2 sin theta
      with theta = arccos e^{-R} in (0, pi/2), which holds as sin theta < theta.
      The limit is pi/2.
    - 2 e^{ceil(R)+2} / |b_R| is 2 e^3 / |b_1| at R = 1 and decreases on
      each (k - 1, k], k >= 2, from the limit e^3 2 e^{k-1} / |b_{k-1}|.
      As 2 e^R / |b_R| = 4 / (pi (1 - e^{-R})^2) decreases, the largest
      limit is k = 2's, 2 e^4 / |b_1|.
    """
    b1 = hyp2.area(hyp2.half_ball(hyp2.HPoint(0.0, 1.0), 1.0))
    t1 = hyp2.trigonon_area(1.0)
    return {
        "K1": t1 / b1,
        "K2": hyp2.area(hyp2.half_ball(hyp2.HPoint(0.0, 1.0), 1.0 + math.log(2.0))) / t1,
        "K3": 2.0 * math.exp(4.0) / b1,
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

    rep = ExperimentReport(meta={"ladder_steps": ladder_steps, "centers": len(centers)})
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
