"""Exact geometry of the hyperbolic upper half-plane.

Points are (x, y) with y > 0, metric ds^2 = (dx^2 + dy^2)/y^2 and measure
dx dy / y^2.  The module provides distances, the set families used by the
half-ball maximal operators (balls, special half planes, half balls,
trigona, infinite rectangles and their admissible hulls, modified half
balls), closed-form areas and boundary markers.

A member is one frozen ``H2Set``; a family of members can also be held as
columns, an ``H2Family``: one kind code and the floats x, y, radius (and
the integer j of an admissible rectangle) per member, with no object per
member.  Every membership test, one set against many points
(``contains_mask``) or many sets against one point
(``H2Family.contains_point``), goes through one strict-predicate kernel,
``mask``, whose per-radius constants sinh^2(R/2), e^{-R} and e^{R} are
computed once per radius with ``math`` (``radius_terms``), so a column
member tests exactly as its ``H2Set`` does.  ``mask`` is the composition
``radius_test(centre_terms(...))``: ``centre_terms`` evaluates what does
not read the radius (the half disc, the two sides of the ball inequality
before its factor sinh^2(R/2), the strip of a rectangle), and
``radius_test`` finishes the predicate of one radius from them.  A caller
that tests several radii about one centre may evaluate the centre terms
once and slice them, and gets the bits of ``mask`` for each radius.
Boxes (``bounding_boxes``) and areas (``areas``) of a family likewise take
their ``math`` constants once per distinct radius; ``bounding_box`` and
``area`` are their one-member forms.

Rectangles, plain and admissible, are separable on a tensor grid: the
test is |x - zx| < zy and y > e^{-R} zy, one condition per axis.  On a
sorted x axis the rounded difference x - zx is monotone and keeps the sign
of x - zx, so |x - zx| < zy holds on one contiguous run of indices; on a
sorted y axis y > e^{-R} zy holds on a suffix.  The cells of a rectangle
are therefore one sub-block of the grid, found from those two runs.  A
trigonon is the half disc above the same height, so its cells are the half
disc's cells on that suffix of heights.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
    HALF_PLANE = "half_plane"
    HALF_BALL = "half_ball"
    TRIGONON = "trigonon"
    RECTANGLE = "rectangle"
    ADMISSIBLE_RECTANGLE = "admissible_rectangle"
    MODIFIED_HALF_BALL = "modified_half_ball"


@dataclass(frozen=True)
class H2Set:
    """Tagged descriptor of one member of the half-plane set families.

    ``radius`` is the hyperbolic radius R (absent for the half plane).
    Admissible rectangles store the integer ``j`` with center height e^j
    and carry an integer radius >= 2.
    """

    kind: SetKind
    center: HPoint
    radius: Optional[float] = None
    j: Optional[int] = None

    def __post_init__(self):
        if self.kind is SetKind.HALF_PLANE:
            if self.radius is not None:
                raise ValueError("half plane carries no radius")
            return
        if self.radius is None or not self.radius > 0:
            raise ValueError(f"{self.kind.value} requires a positive radius")
        if self.kind is SetKind.ADMISSIBLE_RECTANGLE:
            if self.j is None:
                raise ValueError("admissible rectangle requires the height exponent j")
            K = self.radius
            if K != int(K) or K < 2:
                raise ValueError("admissible rectangle radius must be an integer >= 2")
            if not math.isclose(self.center.y, math.exp(self.j), rel_tol=1e-12):
                raise ValueError("admissible rectangle center height must equal e^j")
        if self.kind is SetKind.MODIFIED_HALF_BALL and self.radius < 1:
            raise ValueError("modified half ball requires R >= 1")


def ball(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.BALL, z, R)


def half_plane(z: HPoint) -> H2Set:
    return H2Set(SetKind.HALF_PLANE, z)


def half_ball(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.HALF_BALL, z, R)


def trigonon(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.TRIGONON, z, R)


def rectangle(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.RECTANGLE, z, R)


def admissible_rectangle(x: float, j: int, K: int) -> H2Set:
    return H2Set(SetKind.ADMISSIBLE_RECTANGLE, HPoint(x, math.exp(j)), float(K), j)


def modified_half_ball(z: HPoint, R: float) -> H2Set:
    return H2Set(SetKind.MODIFIED_HALF_BALL, z, R)


# the kind code of an H2Family member is the position of its SetKind here
KINDS = tuple(SetKind)
_CODE = {k: i for i, k in enumerate(KINDS)}
# the j column of a member without a height exponent
_NO_J = np.iinfo(np.int64).min
_ROW = np.dtype([("kind", np.int8), ("x", float), ("y", float), ("radius", float), ("j", np.int64)])


def _row(s) -> tuple:
    if not isinstance(s, H2Set):
        raise TypeError(f"an H2Family holds H2Set members, got {type(s)}")
    r = math.nan if s.radius is None else s.radius
    return (_CODE[s.kind], s.center.x, s.center.y, r, _NO_J if s.j is None else s.j)


class H2Family:
    """A family of half-plane sets held as columns: ``kind`` (int8, the
    position of the member's ``SetKind`` in ``tuple(SetKind)``), the
    float64 arrays ``x``, ``y`` (the centre) and ``radius`` (NaN for a half
    plane), and the int64 array ``j`` (the height exponent of an admissible
    rectangle; the minimum int64 for a member without one).

    It behaves as the sequence of ``H2Set`` it stands for: ``len``,
    ``fam[i]`` builds the member as an ``H2Set`` (``fam[rows]`` with a
    slice or an index array is a sub-family), iteration yields the members
    in order, and ``+`` joins it with another family or a list of
    ``H2Set`` in either order.  The constructor refuses, with the same
    error, every member that ``H2Set`` or ``HPoint`` would refuse.
    """

    __slots__ = ("kind", "x", "y", "radius", "j")

    def __init__(self, kind, x, y, radius=None, j=None):
        if isinstance(kind, SetKind):
            kind = _CODE[kind]
        n = np.broadcast(*(np.asarray(np.nan if v is None else v) for v in (kind, x, y, radius, j))).shape
        if len(n) > 1:
            raise ValueError("H2Family columns must be one-dimensional")
        cols = []
        for v, dtype, missing in ((kind, np.int8, None), (x, float, None), (y, float, None),
                                  (radius, float, math.nan), (j, np.int64, _NO_J)):
            col = np.empty(n, dtype)
            col[...] = missing if v is None else v
            cols.append(col.reshape(-1))
        self._set(*cols)
        if ((self.kind < 0) | (self.kind >= len(KINDS))).any():
            raise ValueError("unknown set kind code")
        self._check()

    def _set(self, kind, x, y, radius, j) -> "H2Family":
        self.kind, self.x, self.y, self.radius, self.j = kind, x, y, radius, j
        return self

    @classmethod
    def _columns(cls, kind, x, y, radius, j) -> "H2Family":
        """A family over columns already checked."""
        return object.__new__(cls)._set(kind, x, y, radius, j)

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
        """Raise the error of the first member that ``H2Set`` refuses.

        The mask below flags a superset of the refused members (the e^j
        test is tighter than ``math.isclose``'s), and each flagged member is
        then built as an ``H2Set``, which raises for it with its own
        message or passes it."""
        k, y, r, j = self.kind, self.y, self.radius, self.j
        adm = k == _CODE[SetKind.ADMISSIBLE_RECTANGLE]
        with np.errstate(over="ignore", invalid="ignore"):
            ej = np.exp(np.where(adm, j, 0).astype(float))
            bad = ~(y > 0) | np.where(k == _CODE[SetKind.HALF_PLANE], ~np.isnan(r), ~(r > 0))
            bad |= (k == _CODE[SetKind.MODIFIED_HALF_BALL]) & ~(r >= 1)
            bad |= adm & ((j == _NO_J) | ~np.isfinite(r) | (r != np.floor(r)) | (r < 2)
                          | ~(np.abs(y - ej) <= 0.5e-12 * np.maximum(y, ej)))
        for i in np.flatnonzero(bad).tolist():
            self[i]

    def __len__(self) -> int:
        return self.x.size

    def _cols(self) -> tuple:
        return self.kind, self.x, self.y, self.radius, self.j

    def __getitem__(self, i):
        if isinstance(i, slice) or (isinstance(i, np.ndarray) and i.ndim == 1):
            return H2Family._columns(*(c[i] for c in self._cols()))
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError("H2Family index out of range")
        return _member(*(c[i].item() for c in self._cols()))

    def __iter__(self):
        return (_member(*row) for row in zip(*(c.tolist() for c in self._cols())))

    def __add__(self, other):
        if isinstance(other, (list, tuple)):
            other = H2Family.of(other)
        if not isinstance(other, H2Family):
            return NotImplemented
        return H2Family._columns(*(np.concatenate(p) for p in zip(self._cols(), other._cols())))

    def __radd__(self, other):
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return H2Family.of(other) + self

    def __repr__(self) -> str:
        return f"H2Family({len(self)} members)"

    def groups(self):
        """(SetKind, rows) for each kind present, rows the int indices of its
        members in family order."""
        for code in np.flatnonzero(np.bincount(self.kind, minlength=len(KINDS))).tolist():
            yield KINDS[code], np.flatnonzero(self.kind == code)

    def per_kind_radius(self, fn, width: int) -> np.ndarray:
        """(len, width) float array: row i is fn(kind_i, radius_i), evaluated
        once per distinct (kind, radius) of the family; a half plane is
        passed its radius NaN."""
        out = np.empty((len(self), width))
        for kind, rows in self.groups():
            u, inv = np.unique(self.radius[rows], return_inverse=True)
            out[rows] = np.array([fn(kind, R) for R in u.tolist()], dtype=float).reshape(-1, width)[inv]
        return out

    def contains_point(self, x, y) -> np.ndarray:
        """Bool array, one per member: strict membership of the point (x, y),
        with one call of ``mask`` per kind and the verdicts of ``contains``."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        terms = radius_terms(self)
        out = np.zeros(len(self), dtype=bool)
        for kind, rows in self.groups():
            s2, em, ep = terms[rows].T
            out[rows] = mask(kind, self.x[rows], self.y[rows], s2, em, ep, x, y)
        return out


def _member(code: int, x: float, y: float, radius: float, j: int) -> H2Set:
    return H2Set(KINDS[code], HPoint(x, y), None if radius != radius else radius, None if j == _NO_J else j)


@dataclass(frozen=True)
class BoundaryMarkers:
    """Euclidean data of the geodesic ball together with the points where
    the ball circle meets the special half plane boundary (q-) and where
    the bottom horocycle of the trigonon meets it (p-)."""

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
    if kind in (SetKind.TRIGONON, SetKind.RECTANGLE, SetKind.ADMISSIBLE_RECTANGLE):
        return nan, math.exp(-R), nan
    if kind is SetKind.MODIFIED_HALF_BALL:
        return math.sinh(R / 2.0) ** 2, nan, math.exp(R)
    return nan, nan, nan


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
    sinh^2(R/2)), for every kind but the ball and the rectangles the half
    disc |w - Re z|^2 < (Im z)^2, and for rectangles the strip
    |x - zx| < zy.  Each term has the broadcast shape of its operands, so on
    a tensor block (x a column, y a row) 4 Im z Im w is one row."""
    if kind in (SetKind.RECTANGLE, SetKind.ADMISSIBLE_RECTANGLE):
        return (np.abs(x - zx) < zy,)
    dxx = _dx2(zx, x)
    if kind is SetKind.BALL:
        return _ball_sides(dxx, zy, y)
    # the special half plane: the half disc
    half_disc = dxx + y * y < zy * zy
    if kind in (SetKind.HALF_PLANE, SetKind.TRIGONON):
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
    if kind is SetKind.HALF_PLANE:
        return terms[0]
    if kind in (SetKind.TRIGONON, SetKind.RECTANGLE, SetKind.ADMISSIBLE_RECTANGLE):
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
    """Closed-form Riemannian area of the descriptor.

    Raises for the half plane, which has infinite measure.
    """
    return _area(s.kind, s.radius)


def areas(fam: "H2Family") -> np.ndarray:
    """``area`` of every member, computed once per distinct (kind, radius).
    Raises as ``area`` does when the family holds a half plane."""
    return fam.per_kind_radius(_area, 1)[:, 0]


def _area(kind: SetKind, R) -> float:
    if kind is SetKind.BALL:
        return 4.0 * math.pi * math.sinh(R / 2.0) ** 2
    if kind is SetKind.HALF_BALL:
        return 2.0 * math.pi * math.sinh(R / 2.0) ** 2
    if kind is SetKind.TRIGONON:
        return trigonon_area(R)
    if kind in (SetKind.RECTANGLE, SetKind.ADMISSIBLE_RECTANGLE):
        return 2.0 * math.exp(R)
    if kind is SetKind.MODIFIED_HALF_BALL:
        # the satellite ball is disjoint from the half ball for R >= 1
        return 2.0 * math.pi * math.sinh(R / 2.0) ** 2 + 4.0 * math.pi * math.sinh(0.5) ** 2
    raise ValueError("half plane has infinite measure")


def trigonon_area(R: float) -> float:
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

    Same horizontal center, height exponent j = ceil(log Im z), radius
    K = ceil(R) + 2.  The area ratio e^(K - R) lies in [e^2, e^3).
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
    half ball a = e^R and the half width is max(zy, zy e^R sinh 1)."""
    if kind is SetKind.BALL:
        return math.sinh(R), math.exp(-R), math.exp(R)
    if kind is SetKind.HALF_PLANE:
        return 1.0, 0.0, 1.0
    if kind in (SetKind.HALF_BALL, SetKind.TRIGONON):
        return 1.0, math.exp(-R), 1.0
    if kind in (SetKind.RECTANGLE, SetKind.ADMISSIBLE_RECTANGLE):
        return 1.0, math.exp(-R), math.inf
    if kind is SetKind.MODIFIED_HALF_BALL:
        return math.exp(R), math.exp(-R), math.exp(R + 1.0)
    raise ValueError(f"unknown kind {kind}")


def bounding_boxes(fam: "H2Family") -> np.ndarray:
    """(m, 4): row i is the box (x_lo, x_hi, y_lo, y_hi) enclosing member i;
    y_hi may be inf.  The ``math`` constants are taken once per distinct
    (kind, radius), and multiplying them by zy (exact for 1, 0 and inf)
    rounds as the one-member formulas do."""
    a, b, c = fam.per_kind_radius(_box_terms, 3).T
    zx, zy = fam.x, fam.y
    half = zy * a
    mhb = fam.kind == _CODE[SetKind.MODIFIED_HALF_BALL]
    # the satellite ball of a modified half ball is wider than its half ball
    half[mhb] = np.maximum(zy[mhb], half[mhb] * math.sinh(1.0))
    return np.column_stack([zx - half, zx + half, zy * b, zy * c])
