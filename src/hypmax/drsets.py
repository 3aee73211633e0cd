"""Cylinders, horizontal slices, admissible hulls, trigonon volume
sandwiches and half-ball sampling on the solvable groups NA.

A cylinder over n0 at height a0 with parameter R > 1 is, in coordinates,
the product of the gauge ball of radius sqrt(a0) around n0 with the
height interval (a0 e^{-R}, infinity).  The admissible subfamily pins
log a0 to an integer and R to an integer >= 2, so base heights live on
the integer-log horocycle lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import htype as ht
from . import hyp2
from .htype import HTypeAlgebra, NPoint, SPoint
from .report import ExperimentReport, VolumeEstimate


@dataclass(frozen=True, eq=False, slots=True)
class Cylinder:
    n0: NPoint
    a0: float
    R: float

    def __post_init__(self):
        if not self.a0 > 0:
            raise ValueError("a0 must be positive")
        if not self.R > 1:
            raise ValueError("cylinder family requires R > 1")

    @property
    def base_height(self) -> float:
        return self.a0 * math.exp(-self.R)

    @property
    def base_radius(self) -> float:
        return math.sqrt(self.a0)


@dataclass(frozen=True, eq=False, slots=True)
class AdmissibleCylinder:
    n0: NPoint
    j: int
    R: int

    def __post_init__(self):
        if int(self.R) != self.R or self.R < 2:
            raise ValueError("admissible cylinder requires integer R >= 2")

    @property
    def a0(self) -> float:
        return math.exp(self.j)

    @property
    def base_log(self) -> int:
        """log of the base height; an integer by admissibility."""
        return self.j - self.R

    @property
    def base_height(self) -> float:
        return math.exp(self.j - self.R)

    @property
    def base_radius(self) -> float:
        return math.exp(self.j / 2.0)


# -------------------------------------------------------------- membership

def cylinder_contains(alg: HTypeAlgebra, c, x: SPoint) -> bool:
    return bool(cylinder_contains_batch(alg, c, x.X[:, None], x.Z[:, None], np.array([x.a]))[0])


def cylinder_contains_batch(alg: HTypeAlgebra, c, X, Z, a):
    """Strict membership of points (X, Z, a) in the open cylinder c, either
    kind, read through its ``n0``, ``base_radius`` and ``base_height``.

    X and Z are the points' p and q horizontal columns, as in
    ``htype.dist_n_cols``: (n, p) and (n, q) rows pass as ``X.T`` and
    ``Z.T``.  The base-ball verdict comes from ``htype.dist_below_cols``,
    once per horizontal point; the height verdict a > base height once per
    height.  The two are ANDed by broadcasting, so the heights either run
    with the points (one per point) or along an axis of their own: a grid
    block passes its heights as a 1-D last axis and its columns with a
    last dimension of length 1, and the verdict has the block's shape."""
    return ht.dist_below_cols(alg, c.n0, X, Z, c.base_radius) & (a > c.base_height)


# ----------------------------------------------------------------- volumes

_UNIT_BALL_VOL = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


_MC_CHUNK = 65_536


def omega_n(alg: HTypeAlgebra, method: str = "analytic", samples: int = 1_000_000, seed: int = 0):
    """Lebesgue volume of the unit gauge ball of N.

    Analytic evaluation is available for the degenerate abelian algebras,
    where the gauge of (0, Z) is |Z|^(1/2) and the ball is the Euclidean
    unit ball of z.  Otherwise a seeded Monte Carlo estimate over the
    bounding box |X_i| <= 2, |Z_k| <= 1 is returned as a VolumeEstimate.
    """
    if method == "analytic":
        if alg.p != 0:
            raise ValueError("analytic unit-ball volume only for degenerate abelian algebras")
        q = alg.q
        if q in _UNIT_BALL_VOL:
            return _UNIT_BALL_VOL[q]
        return math.pi ** (q / 2.0) / math.gamma(q / 2.0 + 1.0)
    if method != "mc":
        raise ValueError("method must be 'analytic' or 'mc'")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (samples, alg.p))
    Z = rng.uniform(-1.0, 1.0, (samples, alg.q))
    # the gauge is row by row, so testing in chunks keeps its temporaries
    # small and counts the same hits
    hits = sum(
        int(np.count_nonzero(ht.gauge_below_cols(X[i : i + _MC_CHUNK].T, Z[i : i + _MC_CHUNK].T, 1.0)))
        for i in range(0, samples, _MC_CHUNK)
    )
    return VolumeEstimate.of_hits(4.0**alg.p * 2.0**alg.q, hits, samples, seed)


def cylinder_volume(alg: HTypeAlgebra, c, omega: float) -> float:
    """(omega/nu) e^{nu R}; independent of the base point by invariance."""
    return omega / alg.nu * math.exp(alg.nu * c.R)


def slice_volume(alg: HTypeAlgebra, c, k: int, omega: float) -> float:
    """Volume of the k-th horizontal slice: heights in
    (base e^k, base e^{k+1}].  Equals e^{-k nu} times the bottom slice."""
    if k < 0:
        raise ValueError("slice index must be nonnegative")
    beta0 = (1.0 - math.exp(-alg.nu)) * cylinder_volume(alg, c, omega)
    return math.exp(-k * alg.nu) * beta0


def admissible_hull_cyl(alg: HTypeAlgebra, c: Cylinder) -> AdmissibleCylinder:
    """Admissible cylinder over the same n0 with j = ceil(log a0) and
    K = ceil(R) + 2; contains c with volume ratio e^{nu (K - R)}."""
    j = math.ceil(math.log(c.a0) - 1e-15)
    K = math.ceil(c.R - 1e-15) + 2
    return AdmissibleCylinder(c.n0, j, K)


# ------------------------------------------------------- trigonon sandwich

def sandwich_constants(alg: HTypeAlgebra, omega: float) -> tuple:
    """(c_nu, C_nu) with c_nu e^{nu R} <= |T_R| <= C_nu e^{nu R} for R > 1."""
    nu = alg.nu
    c_nu = omega / nu * (1.0 - math.exp(-0.5)) ** (nu / 2.0) * (1.0 - math.exp(-nu / 2.0))
    return c_nu, omega / nu


def trig_sandwich_volume(alg: HTypeAlgebra, R: float, omega: float) -> tuple:
    """Volumes of the inner/outer envelopes of the trigonon of radius R:
    omega * int_{e^{-R}}^{1} alpha_i(h)^nu h^{-nu-1} dh for i = 1, 2,
    integrated in u = log h with adaptive quadrature.

    scipy is imported here, at the first call, so that importing the
    package (and every CLI run) does not pay for it."""
    from scipy import integrate

    if not R > 1:
        raise ValueError("sandwich defined for R > 1")
    nu = alg.nu

    def lower_integrand(u):
        return (1.0 - math.exp(u)) ** (nu / 2.0) * math.exp(-nu * u)

    def upper_integrand(u):
        return (1.0 - math.exp(2.0 * u)) ** (nu / 4.0) * math.exp(-nu * u)

    vals = []
    for f in (lower_integrand, upper_integrand):
        val, err = integrate.quad(f, -R, 0.0, epsrel=1e-10, epsabs=0.0, limit=400)
        if err > 1e-8 * abs(val):
            raise RuntimeError("quadrature failed to converge")
        vals.append(omega * val)
    return vals[0], vals[1]


# ----------------------------------------------------------------- sampling

def sample_halfball_arrays(alg: HTypeAlgebra, R: float, count: int, seed: int):
    """Points of the half ball of radius R at the identity, produced by
    following downward unit-speed geodesics: v uniform on the hemisphere
    t < 0 and tau uniform in (0, R).  The law is forward-parametric, not
    uniform in the Riemannian measure; use only for containment tests."""
    rng = np.random.default_rng(seed)
    X, Z, t = ht.random_downward_tangents(alg, count, rng)
    tau = rng.uniform(0.0, R, count)
    tau = np.where(tau == 0.0, R / 2.0, tau)
    return ht.geodesic_batch(alg, X, Z, t, tau)


# ------------------------------------------------------------ annulus check

def annulus_check(alg: HTypeAlgebra, a: float, samples: int = 10_000, seed: int = 0) -> ExperimentReport:
    """Gauge annulus separating adjacent special half-plane regions.

    For n with gauge in (1, sqrt(e-1)) and any height a in (0, 1), the
    point na lies outside the downward region of the identity, because
    gauge(n) exceeds alpha_2(a), while its dilate by 1/e has gauge below
    alpha_1(a/e), placing na inside the region of the point at height e.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, alg.p))
    Z = rng.standard_normal((samples, alg.q))
    g_raw = ht.gauge_batch(X, Z)
    target = rng.uniform(1.0, math.sqrt(math.e - 1.0), samples)
    X, Z = ht.dilate_batch((target / g_raw) ** 2, X, Z)
    g = ht.gauge_batch(X, Z)

    a1_low, a2_low = ht.alpha_bounds(a)
    a1_up, _ = ht.alpha_bounds(a / math.e)
    outside_margin = g - a2_low
    inside_margin = a1_up - g / math.sqrt(math.e)

    rep = ExperimentReport(
        "annulus_check",
        meta={"space": alg.label, "a": a, "samples": samples, "seed": seed},
    )
    rep.add_table(
        "margins",
        ["quantity", "min", "max"],
        [
            ["gauge", float(g.min()), float(g.max())],
            ["outside_margin", float(outside_margin.min()), float(outside_margin.max())],
            ["inside_margin", float(inside_margin.min()), float(inside_margin.max())],
        ],
    )
    rep.check("outside_identity_region", 0.0, float(outside_margin.min()), bool((outside_margin > 0).all()))
    rep.check("inside_shifted_region", 0.0, float(inside_margin.min()), bool((inside_margin > 0).all()))
    return rep


# ------------------------------------------------------------ h2 converters

def h2_to_na(z: hyp2.HPoint) -> SPoint:
    """Identify x + iy with (Z=(x,), a=y) in the abelian q = 1 backend."""
    return SPoint(np.zeros(0), np.array([z.x]), z.y)


def na_to_h2(x: SPoint) -> hyp2.HPoint:
    if x.X.size or x.Z.size != 1:
        raise ValueError("only the abelian q = 1 backend maps to the half-plane")
    return hyp2.HPoint(float(x.Z[0]), x.a)
