"""H-type algebras and the solvable NA groups built on them.

An algebra is v + z with bracket mapping v x v into z, encoded by its
structure coefficients.  The group N = exp(v + z) carries the gauge
(|X|^4/16 + |Z|^2)^(1/4); the group S = NA adds the height coordinate
a > 0 acting by anisotropic dilations.  The degenerate abelian case with
q = 1 reproduces the hyperbolic upper half-plane under (Z, a) <-> (x, y).

The gauge is subadditive, |n m| <= |n| + |m| (J. Cygan, Proc. AMS 83
(1981) 69-70), so d(n, m) = |n^{-1} m| obeys the triangle inequality.
Two certificates in ``experiments`` rest on it: bases whose centres are at
least the sum of their radii apart are disjoint (the greedy selection),
and a base ball whose centre lies within r_b - r_s of a larger centre lies
inside that larger ball (the Vitali union measure drops it before
sampling, with a margin for rounding).  Every such distance goes through
one translate, ``left_translate_cols`` by n0^{-1}, and then one of two
kernels.  Where the value is needed (``dist_n``, the containment
certificate's margin) it is ``dist_n_cols``, the gauge of the translate.
Where it is only compared with a radius (the membership, covering,
disjointness and containment tests, and the unit-ball Monte Carlo) the
verdict is ``dist_below_cols`` (``gauge_below_cols`` for a gauge), which
reads it from the fourth power |X|^4/16 + |Z|^2 and takes the quarter
power only where that lies within a relative 1e-9 of r^4, with the bits
of ``dist_n_cols(...) < r``.

Every bracket [X, X'] (``bracket``, the group laws and the left
translations) goes through one kernel, ``HTypeAlgebra.bracket_cols``: for
each z coordinate k it starts at 0.0 and adds X[i] X'[j] c[i, j, k] over
the nonzero coefficients in row-major (i, j) order.  That is the order in
which ``np.einsum`` summed the same products, so the kernel gives einsum's
bits; the order is pinned because on H^2 and higher another order
(column-major (j, i), say) rounds differently in most rows, and the greedy
selections and union measures compare these sums against radii.

The gauge pins its sums of squares the same way: |X|^2 and |Z|^2 add one
coordinate column at a time, in index order.  ``np.einsum`` chose its
order by the layout of its input: on C-ordered rows with p >= 3 it paired
the coordinates (x0^2 + x2^2) + (x1^2 + x3^2) for p = 4, while on
column-major input, or with p <= 2, it added them in index order.  The
gauge is compared against radii and the unit, so its bits must not depend
on whether the caller holds its points as rows or as columns; where
p, q <= 2 the pinned sums are einsum's bits.

The kernels work on columns: ``left_translate_cols``, ``gauge_cols``,
``dist_n_cols`` and the verdicts ``gauge_below_cols`` and
``dist_below_cols`` take a point set as its p columns X and q columns Z,
arrays that broadcast together, and every float is one elementwise
expression of the coordinates of its own point.  An (n, p) matrix passes as its columns
``X.T``; a tensor block of a grid passes as its axes, each shaped to run
along its own dimension, so no meshgrid of the block is built and each
term is formed on the axes it depends on (``measure.block_mask``).
``gauge_batch``, ``left_translate_batch`` and ``dist_n_batch`` are the same
kernels on (n, p) and (n, q) rows, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HTypeAlgebra:
    """Structure data of v + z: dimensions p = dim v, q = dim z and the
    bracket coefficients c[i, j, k] with [e_i, e_j] = sum_k c[i,j,k] f_k."""

    p: int
    q: int
    bracket_coeffs: np.ndarray = field(repr=False)
    label: str = ""
    # per z coordinate k, the nonzero terms (i, j, c[i, j, k]) in row-major
    # (i, j) order; derived once from the coefficients
    bracket_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.bracket_coeffs
        terms = tuple(
            tuple((i, j, float(c[i, j, k])) for i in range(self.p) for j in range(self.p) if c[i, j, k] != 0.0)
            for k in range(self.q)
        )
        object.__setattr__(self, "bracket_terms", terms)

    @property
    def nu(self) -> float:
        """Homogeneous dimension p/2 + q."""
        return self.p / 2.0 + self.q

    def bracket(self, X, Xp):
        """[X, X'] in z coordinates."""
        return self.bracket_batch(np.atleast_2d(X), np.atleast_2d(Xp))[0]

    def bracket_batch(self, X, Xp):
        """[X, Xp] row by row, shape (n, q), for Xp (n, p) and X either one
        vector (p,) or one per row (n, p); ``bracket_cols`` on the columns."""
        out = np.zeros((self.q, Xp.shape[0]))
        for acc, col in zip(out, self.bracket_cols(X.T, Xp.T)):
            acc[...] = col
        return out.T

    def bracket_cols(self, X, Xp) -> list:
        """[X, Xp] as q columns, for X and Xp given as p columns each (see
        the module docstring): per k, 0.0 plus the terms X[i] Xp[j]
        c[i, j, k] in row-major (i, j) order.  Adding t * -1 and subtracting
        t round alike, so the unit coefficients skip their multiplication."""
        out = []
        for terms in self.bracket_terms:
            acc = 0.0
            for i, j, c in terms:
                t = X[i] * Xp[j]
                if c == 1.0:
                    acc = acc + t
                elif c == -1.0:
                    acc = acc - t
                else:
                    acc = acc + t * c
            out.append(acc)
        return out

    def j_z(self, Z, X):
        """The map J_Z applied to X, defined by <J_Z X, X'> = <Z, [X, X']>."""
        return self.j_z_batch(np.atleast_2d(Z), np.atleast_2d(X))[0]

    def j_z_batch(self, Z, X):
        if self.p == 0:
            return np.zeros((Z.shape[0], 0))
        return np.einsum("ni,nk,ijk->nj", X, Z, self.bracket_coeffs)


def degenerate_abelian(q: int) -> HTypeAlgebra:
    """Abelian algebra with v = 0 and dim z = q; nu = q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return HTypeAlgebra(0, q, np.zeros((0, 0, q)), label=f"dr-abelian:{q}")


def heisenberg(d: int) -> HTypeAlgebra:
    """Heisenberg algebra of dimension 2d + 1: p = 2d, q = 1, symplectic
    bracket [e_i, e_{d+i}] = f_1, so that J_Z is |Z| times the standard
    complex structure and J_Z^2 = -|Z|^2 I exactly."""
    if d < 1:
        raise ValueError("d must be >= 1")
    p = 2 * d
    c = np.zeros((p, p, 1))
    for i in range(d):
        c[i, d + i, 0] = 1.0
        c[d + i, i, 0] = -1.0
    return HTypeAlgebra(p, 1, c, label=f"dr-heisenberg:{d}")


def make_algebra(spec: str) -> HTypeAlgebra:
    """Parse 'dr-abelian:q' or 'dr-heisenberg:d' (also accepts 'h2' as the
    abelian q = 1 backend)."""
    if spec == "h2":
        return degenerate_abelian(1)
    kind, _, dim = spec.partition(":")
    makers = {"dr-abelian": degenerate_abelian, "dr-heisenberg": heisenberg}
    if kind not in makers or not dim.isdigit():
        raise ValueError(f"unknown algebra spec {spec!r}; expected h2, dr-abelian:q or dr-heisenberg:d")
    return makers[kind](int(dim))


def validate_algebra(alg: HTypeAlgebra, samples: int = 10_000, seed: int = 0) -> dict:
    """Max residuals of the four defining identities over random draws:
    antisymmetry of the bracket, the relation <J_Z X, X'> = <Z, [X, X']>,
    J_Z^2 = -|Z|^2 I, and <J_Z X, J_Z Y> = |Z|^2 <X, Y>."""
    rng = np.random.default_rng(seed)
    p, q = alg.p, alg.q
    X = rng.standard_normal((samples, p))
    Xp = rng.standard_normal((samples, p))
    Z = rng.standard_normal((samples, q))
    res = {}
    br = alg.bracket_batch(X, Xp)
    res["antisymmetry"] = float(np.abs(br + alg.bracket_batch(Xp, X)).max())
    jzx = alg.j_z_batch(Z, X)
    lhs = np.einsum("ni,ni->n", jzx, Xp)
    rhs = np.einsum("nk,nk->n", Z, br)
    res["defining_relation"] = float(np.abs(lhs - rhs).max())
    z2 = np.einsum("nk,nk->n", Z, Z)
    jj = alg.j_z_batch(Z, jzx)
    res["h_type"] = float(np.abs(jj + z2[:, None] * X).max()) if p else 0.0
    Y = rng.standard_normal((samples, p))
    jzy = alg.j_z_batch(Z, Y)
    pl = np.einsum("ni,ni->n", jzx, jzy) - z2 * np.einsum("ni,ni->n", X, Y)
    res["polarisation"] = float(np.abs(pl).max())
    return res


# ------------------------------------------------------------------ points

@dataclass(frozen=True, eq=False, slots=True)
class NPoint:
    X: np.ndarray
    Z: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
class SPoint:
    X: np.ndarray
    Z: np.ndarray
    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("height a must be positive")

    @property
    def n_part(self) -> NPoint:
        return NPoint(self.X, self.Z)


def npoint(alg: HTypeAlgebra, X=(), Z=()) -> NPoint:
    X = np.atleast_1d(np.asarray(X, dtype=float)).reshape(-1)
    Z = np.atleast_1d(np.asarray(Z, dtype=float)).reshape(-1)
    if X.shape != (alg.p,) or Z.shape != (alg.q,):
        raise ValueError(f"expected dimensions ({alg.p},), ({alg.q},)")
    return NPoint(X, Z)


def spoint(alg: HTypeAlgebra, X=(), Z=(), a: float = 1.0) -> SPoint:
    n = npoint(alg, X, Z)
    return SPoint(n.X, n.Z, float(a))


def identity(alg: HTypeAlgebra) -> SPoint:
    return SPoint(np.zeros(alg.p), np.zeros(alg.q), 1.0)


def identity_n(alg: HTypeAlgebra) -> NPoint:
    return NPoint(np.zeros(alg.p), np.zeros(alg.q))


def random_downward_tangents(alg: HTypeAlgebra, count: int, rng) -> tuple:
    """Arrays (X, Z, t) of ``count`` unit tangents drawn uniformly from the
    hemisphere t < 0."""
    dim = alg.p + alg.q + 1
    v = rng.standard_normal((count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[:, -1] = -np.abs(v[:, -1])
    return v[:, : alg.p], v[:, alg.p : alg.p + alg.q], v[:, -1]


# --------------------------------------------------------------- group laws

def n_inv(n: NPoint) -> NPoint:
    return NPoint(-n.X, -n.Z)


def na_mul(alg: HTypeAlgebra, x: SPoint, y: SPoint) -> SPoint:
    rs = math.sqrt(x.a)
    return SPoint(
        x.X + rs * y.X,
        x.Z + x.a * y.Z + 0.5 * rs * alg.bracket(x.X, y.X),
        x.a * y.a,
    )


def na_inv(x: SPoint) -> SPoint:
    return SPoint(-x.X / math.sqrt(x.a), -x.Z / x.a, 1.0 / x.a)


# ------------------------------------------------------------------- gauge

def gauge(n: NPoint) -> float:
    return float(gauge_batch(n.X[None, :], n.Z[None, :])[0])


def _sum_squares(cols):
    """The squares of the columns added in index order i = 0, 1, ... (see
    the module docstring); 0.0 for no column.  Starting from the first
    square gives the bits of starting from 0.0: 0.0 + s = s for every
    square s."""
    out = None
    for col in cols:
        out = col * col if out is None else out + col * col
    return 0.0 if out is None else out


def _gauge4_cols(X, Z):
    """The fourth power |X|^4/16 + |Z|^2 of the gauge, with |X|^2 and |Z|^2
    summed one coordinate column at a time, in index order."""
    return _sum_squares(X) ** 2 / 16.0 + _sum_squares(Z)


def gauge_cols(X, Z):
    """Gauge of the points with columns X and Z: the quarter power of
    ``_gauge4_cols``."""
    return _gauge4_cols(X, Z) ** 0.25


# relative half-width of the band about r^4 inside which ``gauge_below_cols``
# takes the quarter power, and the absolute floor that covers r^4 below the
# normal range
_BELOW_BAND = 1e-9
_BELOW_FLOOR = np.finfo(float).tiny


def gauge_below_cols(X, Z, r):
    """The verdict gauge < r for the points with columns X and Z, with the
    bits of ``gauge_cols(X, Z) < r``; r is a scalar or an array that
    broadcasts to the points' shape, with r >= 0.

    The verdict is read from the fourth power s (``_gauge4_cols``, the
    float ``gauge_cols`` takes the root of) against r^4, computed as
    (r r)(r r): s < r^4 (1 - 1e-9) is below, s > r^4 (1 + 1e-9) is not.
    Only where s lies in that band is the quarter power taken, on the
    contiguous gather of those s, which numpy's ``power`` evaluates element
    by element as on the whole array.  Why the bits match: the two products
    put the computed r^4 within 2^-51 of the exact one, relative, and
    numpy's quarter power is within a few units in the last place
    (<= 1e-15, relative) of the exact root.  Outside the band the exact
    root of s differs from r by at least 2.4e-10 relative (about a quarter
    of the band), so the computed root and r compare as s and the computed
    r^4 do.  The absolute floor ``np.finfo(float).tiny`` added to the band
    keeps this true where r^4 is subnormal or zero; r = inf puts every s in
    the band, and a NaN r or s is not below, as in the root's comparison."""
    return _quarter_root_below(_gauge4_cols(X, Z), r)


def _quarter_root_below(s, r):
    """s^(1/4) < r from the fourth powers (see ``gauge_below_cols``)."""
    r2 = r * r
    r4 = r2 * r2
    band = _BELOW_BAND * r4 + _BELOW_FLOOR
    out = s < r4 - band
    near = s <= r4 + band
    near ^= out
    if np.count_nonzero(near):
        near = np.nonzero(near)
        out[near] = s[near] ** 0.25 < (np.broadcast_to(r, s.shape)[near] if isinstance(r, np.ndarray) else r)
    return out


def gauge_batch(X, Z):
    """Gauge of the rows (X, Z), whatever the layout of X and Z."""
    return gauge_cols(X.T, Z.T)


def _translate_z_cols(alg: HTypeAlgebra, n0: NPoint, X, Z) -> list:
    """The z columns Z0 + Z + [X0, X]/2 of n0 n, as in ``left_translate_cols``."""
    Zt = [z0 + z for z0, z in zip(n0.Z.T, Z)]
    if alg.p:
        Zt = [zt + 0.5 * b for zt, b in zip(Zt, alg.bracket_cols(n0.X.T, X))]
    return Zt


def left_translate_cols(alg: HTypeAlgebra, n0: NPoint, X, Z) -> tuple:
    """Columns of n0 n for the points n with columns X and Z:
    (X0 + X, Z0 + Z + [X0, X]/2).

    n0 is one centre (X0 of shape (p,)) or one centre per point (X0 of
    shape (n, p), Z0 of shape (n, q)).  Pass ``n_inv(n0)`` for n0^{-1} n;
    negating n0 negates every term of the bracket exactly, so both
    directions round like the expanded forms."""
    return [x0 + x for x0, x in zip(n0.X.T, X)], _translate_z_cols(alg, n0, X, Z)


def left_translate_batch(alg: HTypeAlgebra, n0: NPoint, X, Z) -> tuple:
    """Rows (n, p) and (n, q) of n0 n for the rows n = (X, Z), n0 as in
    ``left_translate_cols``: X0 + X in one addition of rows, which adds
    what the columns add, and the z columns stacked."""
    return n0.X + X, np.array(_translate_z_cols(alg, n0, X.T, Z.T)).T


def dist_n_cols(alg: HTypeAlgebra, n0: NPoint, X, Z):
    """Gauge distance |n0^{-1} n| of the points n with columns X and Z from
    n0, which is one centre or one centre per point as in
    ``left_translate_cols``."""
    return gauge_cols(*left_translate_cols(alg, n_inv(n0), X, Z))


def dist_below_cols(alg: HTypeAlgebra, n0: NPoint, X, Z, r):
    """The verdict |n0^{-1} n| < r for the points n with columns X and Z,
    n0 as in ``dist_n_cols``: ``gauge_below_cols`` of the same translate,
    so it has the bits of ``dist_n_cols(alg, n0, X, Z) < r``."""
    return gauge_below_cols(*left_translate_cols(alg, n_inv(n0), X, Z), r)


def dist_n_batch(alg: HTypeAlgebra, n0: NPoint, X, Z):
    """Gauge distance |n0^{-1} n| of the rows n = (X, Z): ``dist_n_cols``
    on the columns ``X.T`` and ``Z.T``."""
    return dist_n_cols(alg, n0, X.T, Z.T)


def dist_n(alg: HTypeAlgebra, n1: NPoint, n2: NPoint) -> float:
    return float(dist_n_batch(alg, n1, n2.X[None, :], n2.Z[None, :])[0])


def dilate_batch(a, X, Z) -> tuple:
    """Rows of the anisotropic dilation (sqrt(a) X, a Z), one factor per
    row; scales the gauge by sqrt(a)."""
    return np.sqrt(a)[:, None] * X, a[:, None] * Z


def dilate(a: float, n: NPoint) -> NPoint:
    """A one-row call of ``dilate_batch``."""
    X, Z = dilate_batch(np.array([a], dtype=float), n.X[None, :], n.Z[None, :])
    return NPoint(X[0], Z[0])


# ---------------------------------------------------------------- distances

def dist_from_identity(alg: HTypeAlgebra, x: SPoint) -> float:
    """Radial distance of (X, Z, a) from (0, 0, 1)."""
    return float(dist_from_identity_batch(alg, x.X[None, :], x.Z[None, :], np.array([x.a]))[0])


def dist_from_identity_batch(alg: HTypeAlgebra, X, Z, a):
    x2 = np.einsum("ni,ni->n", X, X)
    z2 = np.einsum("nk,nk->n", Z, Z)
    rs = np.sqrt(a)
    A = np.cosh(np.log(rs)) + x2 / (8.0 * rs)
    c2 = np.maximum(A * A + z2 / (4.0 * a), 1.0)
    out = 2.0 * np.arccosh(np.sqrt(c2))
    flat = (x2 == 0.0) & (z2 == 0.0)
    if flat.any():
        out = np.where(flat, np.abs(np.log(a)), out)
    return out


def dist_s(alg: HTypeAlgebra, x: SPoint, y: SPoint) -> float:
    return dist_from_identity(alg, na_mul(alg, na_inv(x), y))


# ---------------------------------------------------------------- geodesics

def geodesic_batch(alg: HTypeAlgebra, X, Z, t, tau):
    theta = np.tanh(tau / 2.0)
    z2 = np.einsum("nk,nk->n", Z, Z)
    chi = (1.0 - t * theta) ** 2 + z2 * theta**2
    jzx = alg.j_z_batch(Z, X)
    coef_x = 2.0 * theta * (1.0 - t * theta) / chi
    coef_j = 2.0 * theta**2 / chi
    Xout = coef_x[:, None] * X - coef_j[:, None] * jzx
    Zout = (2.0 * theta / chi)[:, None] * Z
    aout = (1.0 - theta**2) / chi
    return Xout, Zout, aout


# ------------------------------------------------ boundary shadow machinery

def alpha_bounds(h: float) -> tuple:
    """Gauge envelope (alpha_1, alpha_2) = ((1-h)^(1/2), (1-h^2)^(1/4)) of
    the boundary shadow at height h in (0, 1)."""
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    return math.sqrt(1.0 - h), (1.0 - h * h) ** 0.25


def shadow_boundary(alg: HTypeAlgebra, h: float, X_dir, Z) -> tuple:
    """Boundary point of the downward-geodesic region at height h.

    The horizontal unit tangent is (X, Z, 0) with X = sqrt(1-|Z|^2) X_dir;
    returns the N-part (2aX - 2b J_Z X, 2aZ) of the boundary point together
    with its fourth gauge power, which equals
    (1-h)^2 + 4(1-h)h |Z|^2/(1+|Z|^2).
    """
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    Z = np.atleast_1d(np.asarray(Z, dtype=float)).reshape(-1)
    if Z.shape != (alg.q,):
        raise ValueError(f"Z must have dimension {alg.q}")
    z2 = float(Z @ Z)
    if z2 > 1.0 + 1e-12:
        raise ValueError("|Z| must be <= 1 for a horizontal unit tangent")
    z2 = min(z2, 1.0)
    if alg.p == 0:
        if abs(z2 - 1.0) > 1e-12:
            raise ValueError("degenerate algebra requires |Z| = 1")
        X = np.zeros(0)
    else:
        X_dir = np.asarray(X_dir, dtype=float).reshape(-1)
        if X_dir.shape != (alg.p,):
            raise ValueError(f"X_dir must have dimension {alg.p}")
        nrm = float(np.linalg.norm(X_dir))
        if abs(nrm - 1.0) > 1e-12 and z2 < 1.0:
            raise ValueError("X_dir must be a unit vector")
        X = math.sqrt(max(0.0, 1.0 - z2)) * (X_dir / nrm if nrm > 0 else X_dir)
    theta2 = (1.0 - h) / (1.0 + h * z2)
    theta = math.sqrt(theta2)
    chi = (1.0 + z2) / (1.0 + h * z2)
    a_c = theta / chi
    b_c = theta2 / chi
    n = NPoint(2.0 * a_c * X - 2.0 * b_c * alg.j_z(Z, X), 2.0 * a_c * Z)
    return n, gauge(n) ** 4
