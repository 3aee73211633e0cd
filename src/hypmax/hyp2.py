"""Exact geometry of the hyperbolic upper half-plane.

Points are (x, y) with y > 0, metric ds^2 = (dx^2 + dy^2)/y^2 and measure
dx dy / y^2.  The module provides distances, the set families used by the
half-ball maximal operators (balls, half balls, trigona, infinite
rectangles, modified half balls), closed-form areas, boundary markers and
admissible hulls.  Every member has a kind, a centre and a radius; an
admissible rectangle is the rectangle on the lattice of centres (x, e^j)
and integer radii K >= 2 (``admissible_rectangle``).

A member is one frozen ``H2Set``; a family of members can also be held as
columns, an ``H2Family``: one kind code and the floats x, y, radius per
member, with no object per member.  Every membership test, one set
against many points (``contains_mask``) or many sets against one point
(``H2Family.contains``), goes through one strict-predicate kernel,
``mask``, whose per-radius constants sinh^2(R/2), e^{-R} and e^{R} are
computed once per radius with ``math`` (``radius_terms``), so a column
member tests exactly as its ``H2Set`` does.  ``mask`` is the composition
``radius_test(centre_terms(...))``: ``centre_terms`` evaluates what does
not read the radius (the half disc, the two sides of the ball inequality
before its factor sinh^2(R/2), the strip of a rectangle), and
``radius_test`` finishes the predicate of one radius from them.
``H2Family.cells`` evaluates the centre terms once per centre and slices
them, and gets the bits of ``mask`` for each radius.
Boxes (``bounding_boxes``) and areas (``areas``) of a family likewise take
their ``math`` constants once per distinct radius; ``bounding_box`` and
``area`` are their one-member forms.  ``H2Family`` has the family
interface of ``drsets.CylFamily`` (see ``measure.family_of``).

Rectangles are separable on a tensor grid: the test is |x - zx| < zy and
y > e^{-R} zy, one condition per axis.  On a sorted x axis the rounded
difference x - zx is monotone and keeps the sign of x - zx, so
|x - zx| < zy holds on one contiguous run of indices; on a sorted y axis
y > e^{-R} zy holds on a suffix.  The cells of a rectangle
are therefore one sub-block of the grid, found from those two runs.  A
trigonon is the half disc above the same height, so its cells are the half
disc's cells on that suffix of heights.

The rows of the half-ball packing (``packing_construct``) are pure
half-plane geometry too, so the CLI and the figures read them from here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np


@dataclass(frozen=True)
class HPoint:
    """A point x + iy of the upper half-plane, y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"HPoint requires y > 0, got y={self.y}")


class SetKind(Enum):
    BALL = "ball"
    HALF_BALL = "half_ball"
    TRIGONON = "trigonon"
    RECTANGLE = "rectangle"
    MODIFIED_HALF_BALL = "modified_half_ball"


@dataclass(frozen=True)
class H2Set:
    """Tagged descriptor of one member of the half-plane set families:
    its kind, its centre and its hyperbolic radius R > 0."""

    kind: SetKind
    center: HPoint
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"{self.kind.value} requires a positive radius")
        if self.kind is SetKind.MODIFIED_HALF_BALL and self.radius < 1:
            raise ValueError("modified half ball requires R >= 1")


def ball(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.BALL, z, R)


def half_ball(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.HALF_BALL, z, R)


def trigonon(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.TRIGONON, z, R)


def rectangle(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.RECTANGLE, z, R)


def admissible_rectangle(x: float, j: int, K: int) -> H2Set:
    """The rectangle of the admissible lattice: centre (x, e^j), radius K,
    an integer >= 2."""
    if not (K >= 2 and float(K).is_integer()):
        raise ValueError("admissible rectangle radius must be an integer >= 2")
    return rectangle(HPoint(x, math.exp(j)), float(K))


def modified_half_ball(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.MODIFIED_HALF_BALL, z, R)


# the kind code of an H2Family member is the position of its SetKind here
KINDS = tuple(SetKind)
_CODE = {k: i for i, k in enumerate(KINDS)}
_ROW = np.dtype([("kind", np.int8), ("x", float), ("y", float), ("radius", float)])


def _row(s) -> tuple:
    if not isinstance(s, H2Set):
        raise TypeError(f"an H2Family holds H2Set members, got {type(s)}")
    return (_CODE[s.kind], s.center.x, s.center.y, s.radius)


class H2Family:
    """A family of half-plane sets held as columns: ``kind`` (int8, the
    position of the member's ``SetKind`` in ``tuple(SetKind)``), the
    float64 arrays ``x``, ``y`` (the centre) and ``radius``.

    It behaves as the sequence of ``H2Set`` it stands for: ``len``,
    ``fam[i]`` builds the member as an ``H2Set`` (``fam[rows]`` with a
    slice or an index array is a sub-family), and iteration yields the
    members in order.  The constructor refuses, with the same
    error, every member that ``H2Set`` or ``HPoint`` would refuse.
    """

    __slots__ = ("kind", "x", "y", "radius")

    def __init__(self, kind, x, y, radius):
        if isinstance(kind, SetKind):
            kind = _CODE[kind]
        n = np.broadcast(*(np.asarray(v) for v in (kind, x, y, radius))).shape
        if len(n) > 1:
            raise ValueError("H2Family columns must be one-dimensional")
        cols = []
        for v, dtype in ((kind, np.int8), (x, float), (y, float), (radius, float)):
            col = np.empty(n, dtype)
            col[...] = v
            cols.append(col.reshape(-1))
        self._set(*cols)
        if ((self.kind < 0) | (self.kind >= len(KINDS))).any():
            raise ValueError("unknown set kind code")
        self._check()

    def _set(self, kind, x, y, radius) -> "H2Family":
        self.kind, self.x, self.y, self.radius = kind, x, y, radius
        return self

    @classmethod
    def _columns(cls, kind, x, y, radius) -> "H2Family":
        """A family over columns already checked."""
        return object.__new__(cls)._set(kind, x, y, radius)

    @classmethod
    def of(cls, sets) -> "H2Family":
        """The family of an iterable of ``H2Set``, in one pass; a family is
        returned as it is.  The members are valid already, as ``H2Set``
        checks itself."""
        if isinstance(sets, H2Family):
            return sets
        rows = np.fromiter((_row(s) for s in sets), dtype=_ROW)
        return cls._columns(*(np.ascontiguousarray(rows[name]) for name in _ROW.names))

    def _check(self) -> None:
        """Raise the error of the first member that ``H2Set`` or ``HPoint``
        refuses: the mask below flags exactly those members, and the first
        one, built as an ``H2Set``, raises with its own message."""
        k, y, r = self.kind, self.y, self.radius
        bad = np.flatnonzero(~(y > 0) | ~(r > 0) | ((k == _CODE[SetKind.MODIFIED_HALF_BALL]) & ~(r >= 1)))
        if bad.size:
            self[int(bad[0])]

    def __len__(self) -> int:
        return self.x.size

    def _cols(self) -> tuple:
        return self.kind, self.x, self.y, self.radius

    def __getitem__(self, i):
        if isinstance(i, slice) or (isinstance(i, np.ndarray) and i.ndim == 1):
            return H2Family._columns(*(c[i] for c in self._cols()))
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError("H2Family index out of range")
        return _member(*(c[i].item() for c in self._cols()))

    def __iter__(self):
        return (_member(*row) for row in zip(*(c.tolist() for c in self._cols())))

    def __repr__(self) -> str:
        return f"H2Family({len(self)} members)"

    def groups(self):
        """(SetKind, rows) for each kind present, rows the int indices of its
        members in family order."""
        for code in np.flatnonzero(np.bincount(self.kind, minlength=len(KINDS))).tolist():
            yield KINDS[code], np.flatnonzero(self.kind == code)

    def per_kind_radius(self, fn, width: int) -> np.ndarray:
        """(len, width) float array: row i is fn(kind_i, radius_i), evaluated
        once per distinct (kind, radius) of the family."""
        out = np.empty((len(self), width))
        for kind, rows in self.groups():
            u, inv = np.unique(self.radius[rows], return_inverse=True)
            out[rows] = np.array([fn(kind, R) for R in u.tolist()], dtype=float).reshape(-1, width)[inv]
        return out

    # the family interface shared with ``drsets.CylFamily``: the grids of
    # ``space`` take its members, boxes, block masks, cells and point tests
    space, member_types = "h2", H2Set

    @classmethod
    def on(cls, grid, sets) -> "H2Family":
        """The family of ``sets`` on ``grid``: ``of``, which needs no grid."""
        return cls.of(sets)

    def boxes(self) -> tuple:
        """(lo, hi), each of shape (m, 2): the corners (x_lo, y_lo) and
        (x_hi, y_hi) of the boxes of ``bounding_boxes``."""
        box = bounding_boxes(self)
        return box[:, 0::2], box[:, 1::2]

    def block_mask(self, i: int, grid, block: tuple) -> np.ndarray:
        """Strict membership in member i of the points of ``block`` (one
        slice per axis of the tensor ``grid``), with the block's shape,
        tested on the block's axes."""
        xs, ys = grid.axes
        return contains_mask(self[i], xs[block[0], None], ys[None, block[1]])

    def contains(self, point) -> np.ndarray:
        """Bool array, one per member: strict membership of the ``HPoint``,
        with one call of ``mask`` per kind and the verdicts of ``contains``."""
        if not isinstance(point, HPoint):
            raise ValueError(f"a point of an h2 grid is an HPoint, got {type(point).__name__}")
        x, y = np.asarray(point.x, dtype=float), np.asarray(point.y, dtype=float)
        terms = radius_terms(self)
        out = np.zeros(len(self), dtype=bool)
        for kind, rows in self.groups():
            s2, em, ep = terms[rows].T
            out[rows] = mask(kind, self.x[rows], self.y[rows], s2, em, ep, x, y)
        return out

    def cells(self, grid, wv: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, omega=None):
        """(idx, block, mask, average) for each member self[idx], idx in
        ``rows``, whose blocks are the rows of (lo, hi) and whose cells hold
        part of supp wv: (block, mask) is the member's paint region, the True
        cells of ``mask`` on ``block``, or all of ``block`` when ``mask`` is
        None; both are None when the region is empty.  A ball, half ball or
        modified half ball paints all of its cells, a trigonon or rectangle
        the rows of ``_suffix_run``.  Areas need no ``omega``.

        The members are walked in centre runs: maximal runs of consecutive
        rows with the same kind, centre and block columns (a lattice of
        centres x radii gives one run per centre).  A run evaluates
        ``centre_terms`` once, on its union block (its columns x the union
        of its members' heights), and each member reads the slice on its own
        heights, so each mask holds the bits of a ``mask`` call on the
        member's block.  A ball, half ball or modified half ball applies
        ``radius_test`` to its slice.  Trigona and rectangles lie above
        e^{-R} zy, a suffix of the height axis found by ``searchsorted`` for
        all members at once, where their block starts (it is empty when the
        suffix misses the block).  A trigonon's mask is then the run's half
        disc on its rows; a rectangle's cells are the run's strip of columns
        times its rows, one sub-block with no 2-D mask (see above)."""
        xs, ys = grid.axes
        sub = self[rows]
        s2, em, ep = radius_terms(sub).T
        area = areas(sub)
        x0, y0 = lo.T
        x1, y1 = hi.T
        # the first height above the cut; it is at most y1, since a block
        # reaches above its centre's height zy > e^{-R} zy
        top = ys.searchsorted(cut_height(em, sub.y), side="right")
        y0 = np.where(np.isin(sub.kind, _CUT_CODES), np.maximum(top, y0), y0)
        members = list(zip(*(col.tolist() for col in (rows, s2, em, ep, area, y0, y1))))
        for start, stop in _centre_runs(sub.kind, sub.x, sub.y, x0, x1):
            kind = KINDS[int(sub.kind[start])]
            zx, zy, c0, c1 = sub.x[start].item(), sub.y[start].item(), int(x0[start]), int(x1[start])
            run = members[start:stop]
            u0, u1 = min(m[5] for m in run), max(m[6] for m in run)
            X, Y = xs[c0:c1, None], ys[None, u0:u1]
            terms = centre_terms(kind, zx, zy, X, Y)
            if kind is SetKind.RECTANGLE:
                # the strip |x - zx| < zy is one run of columns, on every row
                strip = np.flatnonzero(terms[0][:, 0])
                if strip.size:
                    cols = slice(c0 + int(strip[0]), c0 + int(strip[-1]) + 1)
                    yield from _suffix_run(wv, run, cols, None, u0)
            elif kind is SetKind.TRIGONON:
                yield from _suffix_run(wv, run, slice(c0, c1), terms[0], u0)
            else:
                for idx, a, b, c, measure, r0, r1 in run:
                    own = slice(r0 - u0, r1 - u0)
                    block = (slice(c0, c1), slice(r0, r1))
                    mask = radius_test(kind, tuple(t[:, own] for t in terms), zx, zy, a, b, c, X, Y[:, own])
                    integ = _numerator(wv, block, mask)
                    if integ:
                        yield idx, block, mask, integ / measure
            # the run's terms go before the next run computes its own
            del terms


def _member(code: int, x: float, y: float, radius: float) -> H2Set:
    return H2Set(KINDS[code], HPoint(x, y), radius)


# the kinds that hold only points above e^{-R} zy
_CUT_CODES = [_CODE[k] for k in (SetKind.TRIGONON, SetKind.RECTANGLE)]


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


def _suffix_run(wv: np.ndarray, run: list, cols: slice, disc, u0: int):
    """(idx, block, mask, average) for the members of one trigonon or
    rectangle run whose cells hold part of supp wv, in family order, with
    (block, mask) the member's paint region, or (None, None) when it is
    empty.

    Member k's cells are the run's shared cells on its rows [r0_k, r1):
    the columns ``cols`` times those rows, masked by the rows of ``disc``
    (the run's half disc, its row 0 at height index u0) for a trigonon,
    unmasked for a rectangle.  r1, the end of the block, is common to the
    run, since the box top zy of a trigonon and the open top of a rectangle
    do not read R.  So the numerator is summed once per distinct (r0, r1):
    equal rows are equal cells in the same C order, and equal bits.

    Member j beats member k when avg_j > avg_k, or avg_j == avg_k and j
    comes first in the family.  On every row at or above r0_j, j holds the
    same cells as k, so k can keep a cell only on the rows below the
    smallest r0_j of the run-mates j that beat it: its paint region is the
    rows [r0_k, stop_k) of its cells.  Beating is a strict total order, so
    on each cell of the run the first maximum of the run's averages keeps
    that cell, the regions are disjoint, and painting with strict ``>`` in
    family order gives every cell the value and witness it gets when every
    member paints all of its cells."""

    def cells(r0, r1):
        return (cols, slice(r0, r1)), None if disc is None else disc[:, r0 - u0 : r1 - u0]

    sums = {}
    kept = []
    for idx, _, _, _, measure, r0, r1 in run:
        if (r0, r1) not in sums:
            sums[r0, r1] = _numerator(wv, *cells(r0, r1))
        if sums[r0, r1]:
            kept.append((idx, sums[r0, r1] / measure, r0, r1))
    # best first: sorted is stable, so equal averages keep family order
    stops = [0] * len(kept)
    low = math.inf
    for k in sorted(range(len(kept)), key=lambda k: -kept[k][1]):
        stops[k] = low
        low = min(low, kept[k][2])
    for (idx, avg, r0, r1), stop in zip(kept, stops):
        stop = min(stop, r1)
        yield (idx, *cells(r0, stop), avg) if stop > r0 else (idx, None, None, avg)


@dataclass(frozen=True)
class BoundaryMarkers:
    """Euclidean data of the geodesic ball together with the points where
    the ball circle meets the half-disc boundary |w - Re z| = Im z (q-) and
    where the bottom horocycle of the trigonon meets it (p-)."""

    euclid_center: tuple
    euclid_radius: float
    q_minus: HPoint
    q_plus: HPoint
    p_minus: HPoint
    p_plus: HPoint


def distance(z: HPoint, w: HPoint) -> float:
    """Hyperbolic distance 2 asinh(|z - w| / (2 sqrt(Im z Im w)))."""
    d2 = (z.x - w.x) ** 2 + (z.y - w.y) ** 2
    return 2.0 * math.asinh(math.sqrt(d2) / (2.0 * math.sqrt(z.y * w.y)))


def contains_mask(s: H2Set, x, y):
    """Vectorized strict membership of points (x, y) in the open set s: one
    call of ``mask``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return mask(s.kind, s.center.x, s.center.y, *_terms(s.kind, s.radius), x, y)


def _terms(kind: SetKind, R) -> tuple:
    """(s2, em, ep) = (sinh^2(R/2), e^{-R}, e^{R}) as ``math`` computes them,
    NaN for each one the predicate of ``kind`` does not read (so a large R
    overflows only where the predicate needs e^R)."""
    nan = math.nan
    if kind in (SetKind.BALL, SetKind.HALF_BALL):
        return math.sinh(R / 2.0) ** 2, nan, nan
    if kind in (SetKind.TRIGONON, SetKind.RECTANGLE):
        return nan, math.exp(-R), nan
    # the modified half ball
    return math.sinh(R / 2.0) ** 2, nan, math.exp(R)


def radius_terms(fam: "H2Family") -> np.ndarray:
    """(m, 3): the constants (s2, em, ep) of ``mask`` per member, computed
    once per distinct (kind, radius)."""
    return fam.per_kind_radius(_terms, 3)


def mask(kind: SetKind, zx, zy, s2, em, ep, x, y):
    """The strict membership predicate of every kind: points (x, y) in the
    open set of ``kind`` about (zx, zy) with the radius constants
    s2 = sinh^2(R/2), em = e^{-R}, ep = e^{R} of ``_terms``.  Centres and
    constants may be arrays (one per member) and broadcast against x, y;
    every element is the same float expression either way."""
    return radius_test(kind, centre_terms(kind, zx, zy, x, y), zx, zy, s2, em, ep, x, y)


def centre_terms(kind: SetKind, zx, zy, x, y) -> tuple:
    """The terms of the predicate of ``kind`` about (zx, zy) at the points
    (x, y) that do not read the radius: for balls, half balls and modified
    half balls the ball's sides |z - w|^2 and 4 Im z Im w (before the factor
    sinh^2(R/2)), for half balls, trigona and modified half balls the half
    disc |w - Re z|^2 < (Im z)^2, and for rectangles the strip
    |x - zx| < zy.  Each term has the broadcast shape of its operands, so on
    a tensor block (x a column, y a row) 4 Im z Im w is one row."""
    if kind is SetKind.RECTANGLE:
        return (np.abs(x - zx) < zy,)
    dxx = _dx2(zx, x)
    if kind is SetKind.BALL:
        return _ball_sides(dxx, zy, y)
    half_disc = dxx + y * y < zy * zy
    if kind is SetKind.TRIGONON:
        return (half_disc,)
    if kind in (SetKind.HALF_BALL, SetKind.MODIFIED_HALF_BALL):
        return (*_ball_sides(dxx, zy, y), half_disc)
    raise ValueError(f"unknown kind {kind}")


def radius_test(kind: SetKind, terms: tuple, zx, zy, s2, em, ep, x, y):
    """The predicate of ``kind`` from its ``centre_terms`` (evaluated at the
    same points) and the radius constants of ``mask``.  Trigona and
    rectangles lie above the height ``cut_height(em, zy)``; a modified half
    ball's satellite ball is centred at a radius-dependent height, so it is
    evaluated here in full."""
    if kind is SetKind.BALL:
        return _ball_test(*terms, s2)
    if kind in (SetKind.TRIGONON, SetKind.RECTANGLE):
        return terms[0] & (y > cut_height(em, zy))
    lhs, rhs, half_disc = terms
    base = _ball_test(lhs, rhs, s2) & half_disc
    if kind is SetKind.HALF_BALL:
        return base
    if kind is SetKind.MODIFIED_HALF_BALL:
        return base | _ball_test(*_ball_sides(_dx2(zx, x), ep * zy, y), _SINH2_HALF)
    raise ValueError(f"unknown kind {kind}")


def cut_height(em, zy):
    """e^{-R} zy: a trigonon or rectangle holds only points strictly above
    it.  On a sorted height axis those points are the suffix that
    ``searchsorted(cut_height(em, zy), side="right")`` starts."""
    return em * zy


# sinh^2(1/2): the constant of the unit satellite ball of a modified half ball
_SINH2_HALF = math.sinh(1.0 / 2.0) ** 2


def _dx2(zx, x):
    # squares are products, so a scalar and an array give the same bits (a
    # scalar's ** 2 rounds through pow, which differs from x * x in the last
    # bit for some x)
    dx = x - zx
    return dx * dx


def _ball_sides(dxx, zy, y) -> tuple:
    # d(z, w) < R  <=>  |z - w|^2 < 4 Im z Im w sinh^2(R/2); the sides before
    # the factor sinh^2(R/2)
    dy = y - zy
    return dxx + dy * dy, 4.0 * zy * y


def _ball_test(lhs, rhs, s2):
    return lhs < rhs * s2


def contains(s: H2Set, w: HPoint) -> bool:
    return bool(contains_mask(s, w.x, w.y))


def area(s: H2Set) -> float:
    """Closed-form Riemannian area of the descriptor."""
    return _area(s.kind, s.radius)


def areas(fam: "H2Family") -> np.ndarray:
    """``area`` of every member, computed once per distinct (kind, radius)."""
    return fam.per_kind_radius(_area, 1)[:, 0]


def _area(kind: SetKind, R) -> float:
    if kind is SetKind.BALL:
        return 4.0 * math.pi * math.sinh(R / 2.0) ** 2
    if kind is SetKind.HALF_BALL:
        return 2.0 * math.pi * math.sinh(R / 2.0) ** 2
    if kind is SetKind.TRIGONON:
        return trigonon_area(R)
    if kind is SetKind.RECTANGLE:
        return 2.0 * math.exp(R)
    # the modified half ball: its satellite ball is disjoint from the half
    # ball for R >= 1
    return 2.0 * math.pi * math.sinh(R / 2.0) ** 2 + 4.0 * math.pi * math.sinh(0.5) ** 2


# below this radius trigonon_area sums the Taylor series of tan t - t
TRIGONON_SERIES_R = 2.0**-10

# tan t - t = sum of c_k t^(2k+1) for k = 1..5, truncated where the next
# term is below 2^-51 of the sum for t^2 < 2 TRIGONON_SERIES_R
_TAN_MINUS_T = (1.0 / 3.0, 2.0 / 15.0, 17.0 / 315.0, 62.0 / 2835.0, 1382.0 / 155925.0)


def trigonon_area(R: float) -> float:
    """2 (tan t - t) with cos t = e^{-R}: the half disc above the height
    e^{-R} zy, whose corners sit at the angle t from the vertical.

    The closed form 2 e^R sqrt(1 - e^{-2R}) - 2 arccos e^{-R} subtracts two
    terms of about 2 t, each moved by about 2^-53 / t by the rounding of
    e^{-R}, from an area of about 2 t^3 / 3, t^2 ~ 2R: a relative error of
    about 2^-52 / R^2, 2e-10 at R = 2^-10 and over 1 at R = 1e-8.  Below
    ``TRIGONON_SERIES_R`` the area is the series of tan t - t in
    t = atan2(sqrt(-expm1(-2R)), e^{-R}), which carries no cancellation;
    at and above it the closed form is kept to the bit."""
    if R < TRIGONON_SERIES_R:
        t = math.atan2(math.sqrt(-math.expm1(-2.0 * R)), math.exp(-R))
        t2 = t * t
        acc = 0.0
        for c in reversed(_TAN_MINUS_T):
            acc = acc * t2 + c
        return 2.0 * t * t2 * acc
    return 2.0 * math.exp(R) * math.sqrt(1.0 - math.exp(-2.0 * R)) - 2.0 * math.acos(math.exp(-R))


def boundary_markers(z: HPoint, R: float) -> BoundaryMarkers:
    """Euclidean center/radius of B_R(z) and the four marker points."""
    if not R > 0:
        raise ValueError("R must be positive")
    ec = (z.x, z.y * math.cosh(R))
    er = z.y * math.sinh(R)
    qy = z.y / math.cosh(R)
    qdx = z.y * math.tanh(R)
    py = math.exp(-R) * z.y
    pdx = z.y * math.sqrt(1.0 - math.exp(-2.0 * R))
    return BoundaryMarkers(
        euclid_center=ec,
        euclid_radius=er,
        q_minus=HPoint(z.x - qdx, qy),
        q_plus=HPoint(z.x + qdx, qy),
        p_minus=HPoint(z.x - pdx, py),
        p_plus=HPoint(z.x + pdx, py),
    )


def admissible_hull(q: H2Set) -> H2Set:
    """Smallest-lattice admissible rectangle containing the rectangle q.

    Same horizontal center, center height e^j with j = ceil(log Im z),
    radius K = ceil(R) + 2.  The area ratio e^(K - R) lies in [e^2, e^3).
    """
    if q.kind is not SetKind.RECTANGLE:
        raise ValueError("admissible_hull expects a rectangle")
    if not q.radius > 1:
        raise ValueError("hull construction assumes R > 1")
    j = math.ceil(math.log(q.center.y) - 1e-15)
    K = math.ceil(q.radius - 1e-15) + 2
    return admissible_rectangle(q.center.x, j, K)


def bounding_box(s: H2Set):
    """(x_lo, x_hi, y_lo, y_hi) enclosing s; y_hi may be inf.  A one-row
    call of ``bounding_boxes``."""
    return tuple(bounding_boxes(H2Family.of([s]))[0].tolist())


def _box_terms(kind: SetKind, R) -> tuple:
    """(a, b, c) with box (zx - zy a, zx + zy a, zy b, zy c); for a modified
    half ball a = e^R and the half width is max(zy, zy e^R sinh 1).

    A half ball or a trigonon lies in its half disc, of half width zy.  A
    half ball lies in its ball too, of half width zy sinh R.  A trigonon's
    lower corners (zx -+ zy sqrt(1 - e^{-2R}), zy e^{-R}) lie at distance
    arccosh e^R from z, its farthest points, so it lies in the ball of that
    radius, of half width zy sqrt(e^{2R} - 1).  Each takes the smaller
    width: the ball's for R < asinh 1 and R < ln(2)/2."""
    if kind is SetKind.BALL:
        return math.sinh(R), math.exp(-R), math.exp(R)
    if kind is SetKind.HALF_BALL:
        return min(1.0, math.sinh(R)), math.exp(-R), 1.0
    if kind is SetKind.TRIGONON:
        return min(1.0, math.sqrt(math.expm1(2.0 * R))), math.exp(-R), 1.0
    if kind is SetKind.RECTANGLE:
        return 1.0, math.exp(-R), math.inf
    # the modified half ball
    return math.exp(R), math.exp(-R), math.exp(R + 1.0)


def bounding_boxes(fam: "H2Family") -> np.ndarray:
    """(m, 4): row i is the box (x_lo, x_hi, y_lo, y_hi) enclosing member i;
    y_hi may be inf.  The ``math`` constants are taken once per distinct
    (kind, radius), and multiplying them by zy (exact for 1 and inf)
    rounds as the one-member formulas do."""
    a, b, c = fam.per_kind_radius(_box_terms, 3).T
    zx, zy = fam.x, fam.y
    half = zy * a
    mhb = fam.kind == _CODE[SetKind.MODIFIED_HALF_BALL]
    # the satellite ball of a modified half ball is wider than its half ball
    half[mhb] = np.maximum(zy[mhb], half[mhb] * math.sinh(1.0))
    return np.column_stack([zx - half, zx + half, zy * b, zy * c])


# ------------------------------------------------------------ half-ball packing

# Level 6 is out of reach in float64: its adjacent centres near +-1 are
# ~6e-28 apart, far below ulp(1) = 2.2e-16, so they round to equal doubles.
MAX_PACKING_LEVEL = 5


@dataclass
class PackingLevel:
    level: int
    rho: float
    n_count: int
    e_measure: float

    @property
    def radius(self) -> float:
        return 2.0**self.level

    @property
    def center_height(self) -> float:
        return math.exp(-(2.0**self.level))

    def center(self, i: int) -> float:
        """The i-th of the n_count equally spaced centres spanning [-1, 1],
        bit-equal to ``np.linspace(-1.0, 1.0, n_count)[i]`` (the same
        formula) without building the row; a one-centre row sits at 0."""
        n = self.n_count
        if n == 1:
            return 0.0
        if i == n - 1:
            return 1.0
        return float(i) * (2.0 / (n - 1)) + -1.0


def packing_construct(max_level: int) -> list:
    """Equally spaced maximal rows of disjoint half balls, level by level:
    on the horocycle at height e^{-2^l}, n_l = floor(1/rho_l) + 1 translates
    of the half ball of radius 2^l spanning [-1, 1].  Levels run
    0..MAX_PACKING_LEVEL (5)."""
    if not 0 <= max_level <= MAX_PACKING_LEVEL:
        raise ValueError(f"packing levels run 0..{MAX_PACKING_LEVEL}, got {max_level}")
    out = []
    for lev in range(max_level + 1):
        s = 2.0**lev
        rho = 2.0 * math.exp(-s) * math.tanh(s)
        n = int(math.floor(1.0 / rho)) + 1
        e_meas = n * 2.0 * math.pi * math.sinh(s / 2.0) ** 2
        out.append(PackingLevel(lev, rho, n, e_meas))
    return out
