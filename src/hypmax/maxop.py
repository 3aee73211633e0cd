"""Discretized uncentred maximal operators over the set families.

The operator value at a point is the supremum, over the finite lattice of
family members containing it, of the average of |f| on the member.
Averages use closed-form denominators (ball/half-ball/trigonon/rectangle
areas, cylinder volumes) and grid integrals in the numerator.  A numerator
counts the cells whose centres lie in the member, so each value is a grid
estimate of the continuum average that can err in either direction; it is
not a certified bound.

A half-plane family is an ``hyp2.H2Family`` (what ``h2_lattice`` and
``admissible_family_for_grid`` return) or a list of ``H2Set``; a cylinder
family is a ``drsets.CylFamily`` or a list of cylinders.  Each operator
turns its members into the family class of the grid's space once, with
``measure.family_of``, which refuses a member of the other space; a witness
index is a position in either form, and ``MaxField.members`` is the family
as the caller passed it.  The family class owns everything that depends on
the space: its boxes (``boxes``, spanned by ``measure.member_blocks``), its
block masks (``block_mask``), its cells and averages (``cells``) and its
point test (``contains``), so nothing here tests the space.

Both operators read one member pass, ``_member_pass``: it yields
(idx, block, mask, average) for each member whose cells hold part of
supp f, in family order, where (block, mask) is the member's paint region,
or (None, None) when it is empty.  A block is the axis-aligned sub-block
of the tensor grid outside which the member holds no point.  Only the
members whose block meets the index range of supp f reach ``cells``;
skipping the others is exact, since their average is exactly 0.0.  A
cylinder, ball, half ball or modified half ball paints all of its cells.
``H2Family.cells`` walks half-plane members in centre runs, evaluating
the radius-free terms of the predicate once per centre, and a trigonon or
rectangle run sums each distinct row range once and paints each member
only on the rows no better run-mate holds (``hyp2._suffix_run``); the
field gets the values and witnesses of every member painting all of its
cells, bit for bit.

The constants of ``operator_compare`` (``comparison_constants``) are
closed forms in the areas of ``hyp2``: each ratio decreases in R, so
each supremum over R >= 1 is its value (for K3 its limit) at R = 1.

``member_averages`` is the pass as a table: one average per member, 0.0
where the member holds no cell of supp f.  ``maximal_field`` paints each
yielded average onto the member's paint region where it beats the value
there.
``maximal_fn`` finds the members that contain the point (the family's
``contains``) and takes the first maximum of their ``member_averages``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hyp2
from .hyp2 import H2Family, SetKind
from .measure import SampleGrid, family_of, member_blocks
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


def _member_pass(grid: SampleGrid, members, omega: float):
    """(idx, block, mask, average) for each member members[idx] whose
    cells hold part of supp f, in family order; only the members whose
    block meets the index range of supp f reach the family's ``cells``.
    (block, mask) is the member's paint region, or (None, None) when it is
    empty: the member's cells that no member of its centre run with a
    higher average, or an equal one earlier in the family, holds (all of its
    cells for a cylinder, a ball, a half ball or a modified half ball).
    Painting every region with strict ``>`` in family order gives the field
    of painting every member's cells."""
    fam = family_of(grid, members)
    lo, hi = member_blocks(grid, fam)
    wv = (grid.weights * np.abs(grid.values)).reshape(grid.shape)
    s_lo, s_hi = _support_range(wv != 0)
    rows = np.flatnonzero((np.maximum(lo, s_lo) < np.minimum(hi, s_hi)).all(axis=1))
    return fam.cells(grid, wv, rows, lo[rows], hi[rows], omega)


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
        if block is None:
            continue
        out_b = out[block]
        better = np.less(out_b, avg)
        if mask is not None:
            better &= mask
        out_b[better] = avg
        widx[block][better] = idx
    return MaxField(out.reshape(grid.size), widx.reshape(grid.size), members)


def maximal_fn(grid: SampleGrid, x, members, omega: float = None) -> MaxResult:
    """Operator value at one point with its witness set (the first member
    attaining it): the first maximum of ``member_averages`` over the members
    that contain the point, found by the family's ``contains``."""
    fam = family_of(grid, members)
    rows = np.flatnonzero(fam.contains(x))
    # on the whole family: a point that no member contains still needs omega
    avg = member_averages(grid, fam[rows], omega)
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
