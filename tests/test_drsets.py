"""Cylinder membership/volumes, slices, hulls, trigonon sandwich and the
annulus separation check."""

import math

import numpy as np
import pytest

from hypmax import drsets as dr
from hypmax import htype as ht
from hypmax import hyp2 as h2

AB1 = ht.degenerate_abelian(1)
AB2 = ht.degenerate_abelian(2)
HEI1 = ht.heisenberg(1)


def cyl_at_identity(alg, R):
    return dr.Cylinder(ht.identity_n(alg), 1.0, R)


def sample_in_cylinder(alg, c, n, rng):
    """Interior points of c: gauge-dilated directions in the base ball,
    log-uniform heights above the base."""
    X = rng.standard_normal((n, alg.p))
    Z = rng.standard_normal((n, alg.q))
    g = ht.gauge_batch(X, Z)
    target = rng.uniform(0.05, 0.999, n) * c.base_radius
    scale = (target / g) ** 2
    X = np.sqrt(scale)[:, None] * X
    Z = scale[:, None] * Z
    # left-translate the gauge ball to n0: n0 . n
    X0, Z0 = c.n0.X, c.n0.Z
    if alg.p:
        Zt = Z0[None, :] + Z + 0.5 * np.einsum("i,nj,ijk->nk", X0, X, alg.bracket_coeffs)
    else:
        Zt = Z0[None, :] + Z
    Xt = X0[None, :] + X
    a = c.base_height * np.exp(rng.uniform(1e-9, 5.0, n))
    return Xt, Zt, a


# -------------------------------------------------------------- membership

def test_cylinder_contains_examples():
    c = cyl_at_identity(HEI1, 2.0)
    assert dr.cylinder_contains(HEI1, c, ht.identity(HEI1))
    boundary = ht.spoint(HEI1, np.zeros(2), np.zeros(1), math.exp(-2.0))
    assert not dr.cylinder_contains(HEI1, c, boundary)


def test_cylinder_agrees_with_rectangle_on_h2():
    rng = np.random.default_rng(1)
    n = 10_000
    xs = rng.uniform(-3, 3, n)
    ys = np.exp(rng.uniform(-4, 2, n))
    for R in (1.5, 2.0, 3.0):
        c = cyl_at_identity(AB1, R)
        na_mask = dr.cylinder_contains_batch(AB1, c, (), [xs], ys)
        h2_mask = h2.contains_mask(h2.rectangle(h2.HPoint(0, 1), R), xs, ys)
        assert (na_mask == h2_mask).all()


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_cylinder_coordinate_form_matches_translate(alg):
    # membership in C_R(n0 a0) computed in coordinates agrees with
    # membership of (n0 a0)^{-1} x in C_R(e)
    rng = np.random.default_rng(3)
    n0 = ht.NPoint(rng.normal(size=alg.p), rng.normal(size=alg.q))
    a0 = 1.7
    base = ht.SPoint(n0.X, n0.Z, a0)
    c = dr.Cylinder(n0, a0, 2.0)
    ce = cyl_at_identity(alg, 2.0)
    inv = ht.na_inv(base)
    for _ in range(2000):
        x = ht.spoint(alg, rng.normal(size=alg.p) * 2, rng.normal(size=alg.q) * 2, math.exp(rng.uniform(-3, 2)))
        y = ht.na_mul(alg, inv, x)
        lhs = dr.cylinder_contains(alg, c, x)
        rhs = bool(ht.gauge(y.n_part) < 1.0 and y.a > math.exp(-2.0))
        assert lhs == rhs


# ----------------------------------------------------------------- volumes

def test_omega_analytic():
    assert dr.omega_n(AB1) == 2.0
    assert dr.omega_n(AB2) == pytest.approx(math.pi, rel=1e-14)
    assert dr.omega_n(ht.degenerate_abelian(3)) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    with pytest.raises(ValueError):
        dr.omega_n(HEI1, method="analytic")


def test_omega_heisenberg_mc():
    est = dr.omega_n(HEI1, method="mc", samples=400_000, seed=42)
    est2 = dr.omega_n(HEI1, method="mc", samples=400_000, seed=42)
    assert est == est2  # bit-identical under the same seed
    # quadrature oracle: the unit gauge ball of the 3-dim Heisenberg group
    # has Lebesgue volume 2 pi^2
    assert abs(est.mean - 2 * math.pi**2) < 3 * est.stderr


@pytest.mark.parametrize("alg", [HEI1, ht.heisenberg(2)], ids=lambda a: a.label)
@pytest.mark.parametrize("samples", [1_000, 150_001])
def test_omega_mc_chunks_match_one_pass(alg, samples):
    """Testing the samples chunk by chunk gives the estimate of one gauge
    call over all of them, bit for bit."""
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, (samples, alg.p))
    Z = rng.uniform(-1.0, 1.0, (samples, alg.q))
    frac = (ht.gauge_batch(X, Z) < 1.0).mean()
    box = 4.0**alg.p * 2.0**alg.q
    est = dr.omega_n(alg, "mc", samples, 5)
    assert (est.mean, est.stderr) == (box * frac, box * math.sqrt(frac * (1.0 - frac) / samples))


def test_cylinder_volume_formula():
    c = cyl_at_identity(AB1, 1.0 + 1e-12)
    assert dr.cylinder_volume(AB1, c, 2.0) == pytest.approx(2 * math.e, rel=1e-9)

    class _Stub:
        R = 0.0

    assert dr.cylinder_volume(HEI1, _Stub(), 5.0) == pytest.approx(2.5, rel=1e-14)
    # independence of the base point
    rng = np.random.default_rng(5)
    n0 = ht.NPoint(rng.normal(size=2), rng.normal(size=1))
    assert dr.cylinder_volume(HEI1, dr.Cylinder(n0, 3.0, 2.0), 1.0) == dr.cylinder_volume(
        HEI1, cyl_at_identity(HEI1, 2.0), 1.0
    )


@pytest.mark.parametrize("alg,omega", [(AB1, 2.0), (HEI1, 2 * math.pi**2)])
def test_slice_identities(alg, omega):
    c = cyl_at_identity(alg, 2.5)
    vol = dr.cylinder_volume(alg, c, omega)
    nu = alg.nu
    b0 = dr.slice_volume(alg, c, 0, omega)
    assert b0 == pytest.approx((1 - math.exp(-nu)) * vol, rel=1e-14)
    for k in range(0, 12):
        bk = dr.slice_volume(alg, c, k, omega)
        assert bk == pytest.approx(math.exp(-k * nu) * b0, rel=1e-13)
        if k:
            assert bk / dr.slice_volume(alg, c, k - 1, omega) == pytest.approx(
                math.exp(-nu), rel=1e-13
            )
    total = sum(dr.slice_volume(alg, c, k, omega) for k in range(200))
    assert total == pytest.approx(vol, rel=1e-12)
    partial = sum(dr.slice_volume(alg, c, k, omega) for k in range(11))
    assert partial >= 0.9999 * vol


# ------------------------------------------------------------------- hulls

def test_hull_examples():
    c = cyl_at_identity(AB1, 1.5)
    hull = dr.admissible_hull_cyl(AB1, c)
    assert hull.j == 0 and hull.R == 4
    ratio = dr.cylinder_volume(AB1, hull, 2.0) / dr.cylinder_volume(AB1, c, 2.0)
    assert ratio == pytest.approx(math.exp(2.5 * AB1.nu), rel=1e-12)

    c2 = cyl_at_identity(HEI1, 2.0)
    hull2 = dr.admissible_hull_cyl(HEI1, c2)
    assert hull2.j == 0 and hull2.R == 4
    ratio2 = dr.cylinder_volume(HEI1, hull2, 1.0) / dr.cylinder_volume(HEI1, c2, 1.0)
    assert ratio2 == pytest.approx(math.exp(2 * HEI1.nu), rel=1e-12)


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_hull_contains_and_ratio(alg):
    rng = np.random.default_rng(11)
    for trial in range(20):
        n0 = ht.NPoint(rng.normal(size=alg.p), rng.normal(size=alg.q))
        a0 = math.exp(rng.uniform(-2, 2))
        R = rng.uniform(1.0 + 1e-9, 5.0)
        c = dr.Cylinder(n0, a0, R)
        hull = dr.admissible_hull_cyl(alg, c)
        # base-height and base-ball certificates
        assert hull.a0 >= a0 - 1e-12 and hull.a0 < math.e * a0 * (1 + 1e-12)
        assert hull.base_height <= c.base_height * (1 + 1e-12)
        X, Z, a = sample_in_cylinder(alg, c, 500, rng)
        assert dr.cylinder_contains_batch(alg, hull, X.T, Z.T, a).all()
        ratio = math.exp(alg.nu * (hull.R - c.R))
        assert math.exp(2 * alg.nu) - 1e-9 <= ratio <= math.exp(3 * alg.nu) + 1e-9


# --------------------------------------------------------- trigonon volumes

@pytest.mark.parametrize(
    "alg,omega", [(AB1, 2.0), (AB2, math.pi), (HEI1, 2 * math.pi**2)]
)
def test_sandwich_ordering_and_proof_bounds(alg, omega):
    nu = alg.nu
    for R in (1.5, 2.0, 4.0, 6.0):
        lo, up = dr.trig_sandwich_volume(alg, R, omega)
        assert lo <= up
        assert up <= omega / nu * (math.exp(nu * R) - 1.0) * (1 + 1e-9)
        lower_proof = (
            omega / nu * (1 - math.exp(-0.5)) ** (nu / 2.0) * (math.exp(nu * R) - math.exp(nu / 2.0))
        )
        assert lo >= lower_proof * (1 - 1e-9)


def test_sandwich_brackets_h2_trigonon_area():
    for R in (1.5, 2.0, 3.0):
        lo, up = dr.trig_sandwich_volume(AB1, R, 2.0)
        t = h2.trigonon_area(R)
        assert lo <= t <= up


@pytest.mark.parametrize("alg,omega", [(AB1, 2.0), (HEI1, 2 * math.pi**2)])
def test_sandwich_growth_rate(alg, omega):
    c_nu, C_nu = dr.sandwich_constants(alg, omega)
    for R in range(2, 9):
        lo, up = dr.trig_sandwich_volume(alg, float(R), omega)
        scale = math.exp(alg.nu * R)
        assert c_nu / 2 <= lo / scale <= 2 * C_nu
        assert c_nu / 2 <= up / scale <= 2 * C_nu


# ---------------------------------------------------------------- sampling

@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_sample_halfball_distances_and_heights(alg):
    R = 2.0
    X, Z, a = dr.sample_halfball_arrays(alg, R, 5000, seed=7)
    d = ht.dist_from_identity_batch(alg, X, Z, a)
    assert (d < R + 1e-8).all()
    assert (a > math.exp(-R) - 1e-12).all()


def test_sample_halfball_matches_h2_halfball():
    R = 1.5
    X, Z, a = dr.sample_halfball_arrays(AB1, R, 3000, seed=9)
    hb = h2.half_ball(h2.HPoint(0.0, 1.0), R + 1e-9)
    for x in zip(X, Z, a):
        assert h2.contains(hb, dr.na_to_h2(ht.SPoint(*x)))


# ------------------------------------------------------------ annulus check

@pytest.mark.parametrize("alg", [AB1, HEI1])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_annulus_check_no_violations(alg, a):
    rep = dr.annulus_check(alg, a, samples=5000, seed=13)
    assert rep.all_pass


def test_annulus_check_margins():
    # alpha_2(0.5) ~ 0.9306 < 1 <= sampled gauges, and
    # sqrt(e-1)/sqrt(e) < alpha_1(a/e) for every a < 1
    rep = dr.annulus_check(AB1, 0.5, samples=1000, seed=17)
    margins = {r[0]: r for r in rep.tables[0].rows}
    assert margins["gauge"][1] > 1.0
    assert margins["outside_margin"][1] > 1.0 - 0.9306048591021
    a1_up = math.sqrt(1 - 0.5 / math.e)
    assert margins["inside_margin"][1] <= a1_up - 1.0 / math.sqrt(math.e) + 1e-9


def test_annulus_check_domain():
    with pytest.raises(ValueError):
        dr.annulus_check(AB1, 1.5)


# --------------------------------------------------------------- converters

def test_h2_na_round_trip():
    z = h2.HPoint(0.3, 2.0)
    assert dr.na_to_h2(dr.h2_to_na(z)) == z
    with pytest.raises(ValueError):
        dr.na_to_h2(ht.identity(HEI1))
