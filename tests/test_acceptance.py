"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (visible with pytest -s)."""

import math

import numpy as np

from hypmax import drsets as dr
from hypmax import experiments as ex
from hypmax import htype as ht
from hypmax import hyp2 as h2
from hypmax import maxop as mx
from hypmax import measure as ms
from hypmax.hyp2 import HPoint


AB1 = ht.degenerate_abelian(1)
HEI1 = ht.heisenberg(1)


def criterion(num, desc, ok):
    print(f"[AC{num:02d}] {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num}: {desc}"


# -------------------------------------------------------------------- AC 1

def test_ac01_closed_form_areas_monte_carlo():
    ok = True
    for R in (1.0, 2.0, 3.0):
        for mk in (h2.ball, h2.half_ball, h2.trigonon, h2.rectangle):
            s = mk(HPoint(0.0, 1.0), R)
            est = ms.mc_volume("h2", s, ms.suggested_box_h2(s), 1_000_000, seed=int(R * 10))
            ok &= abs(est.mean - h2.area(s)) <= 3 * est.stderr
        ok &= h2.area(h2.half_ball(HPoint(0.0, 1.0), R)) == 0.5 * h2.area(h2.ball(HPoint(0.0, 1.0), R))
    criterion(1, "closed-form areas match Monte Carlo within 3 stderr; |b_R| = |B_R|/2", ok)


# -------------------------------------------------------------------- AC 2

def test_ac02_inclusion_chain():
    rng = np.random.default_rng(2)
    n = 100_000
    ok = True
    for _ in range(5):
        z = HPoint(rng.uniform(-3, 3), math.exp(rng.uniform(-1.5, 1.5)))
        R = rng.uniform(1.0, 4.0)
        # inner trigonon sample stays in the half ball
        K = R - math.log(2.0)
        hgt = np.exp(rng.uniform(-K, 0.0, n)) * (1 - 1e-9)
        half_w = np.sqrt(1.0 - hgt**2) * z.y * (1 - 1e-9)
        xs = z.x + rng.uniform(-1, 1, n) * half_w
        ys = hgt * z.y
        ok &= bool(h2.contains_mask(h2.trigonon(z, K), xs, ys).all())
        ok &= bool(h2.contains_mask(h2.half_ball(z, R), xs, ys).all())
        # half-ball sample stays in the trigonon
        bb = h2.bounding_box(h2.half_ball(z, R))
        xs = rng.uniform(bb[0], bb[1], 3 * n)
        ys = np.exp(rng.uniform(math.log(bb[2]), math.log(bb[3]), 3 * n))
        m = h2.contains_mask(h2.half_ball(z, R), xs, ys)
        xs, ys = xs[m][:n], ys[m][:n]
        ok &= bool(h2.contains_mask(h2.trigonon(z, R), xs, ys).all())
    criterion(2, "inclusion chain trigonon/half-ball: zero violations in 1e5 samples x 5", ok)


# -------------------------------------------------------------------- AC 3

def test_ac03_h_type_validation():
    ok = True
    for alg in (HEI1, AB1, ht.degenerate_abelian(2), ht.degenerate_abelian(3)):
        res = ht.validate_algebra(alg, samples=10_000, seed=3)
        ok &= all(v < 1e-10 for v in res.values())
    criterion(3, "algebra identities < 1e-10 over 1e4 draws (Heisenberg + abelian q=1,2,3)", ok)


# -------------------------------------------------------------------- AC 4

def test_ac04_geodesic_metric_consistency():
    ok = True
    for alg in (AB1, HEI1):
        rng = np.random.default_rng(4)
        n = 10_000
        X, Z, t = ht.random_downward_tangents(alg, n, rng)
        tau = rng.uniform(1e-6, 5.0, n)
        gx, gz, ga = ht.geodesic_batch(alg, X, Z, t, tau)
        d = ht.dist_from_identity_batch(alg, gx, gz, ga)
        ok &= bool(np.abs(d - tau).max() < 1e-8)
        # vertical identity, exact to 1e-12
        for _ in range(200):
            s, sp = np.exp(rng.uniform(-3, 3, 2))
            got = ht.dist_s(
                alg,
                ht.spoint(alg, np.zeros(alg.p), np.zeros(alg.q), s),
                ht.spoint(alg, np.zeros(alg.p), np.zeros(alg.q), sp),
            )
            ok &= abs(got - abs(math.log(s / sp))) < 1e-12
        # height window of the geodesic flow
        for R in (1.0, 2.0, 4.0):
            _, _, ga = ht.geodesic_batch(alg, X, Z, t, np.full(n, R))
            ok &= bool((ga >= math.exp(-R) - 1e-12).all())
            ok &= bool((ga <= 1.0 / math.cosh(R / 2) ** 2 + 1e-12).all())
    criterion(4, "unit-speed geodesics (1e-8), vertical distances (1e-12), height bounds", ok)


# -------------------------------------------------------------------- AC 5

def test_ac05_shadow_identity_and_sandwich():
    ok = True
    for alg in (AB1, HEI1):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            h_lvl = rng.uniform(1e-4, 1 - 1e-4)
            if alg.p == 0:
                Z = np.array([rng.choice([-1.0, 1.0])])
                xdir = None
            else:
                Z = rng.normal(size=alg.q)
                Z = Z / np.linalg.norm(Z) * rng.uniform(0.0, 1.0)
                xdir = rng.normal(size=alg.p)
                xdir /= np.linalg.norm(xdir)
            npt, g4 = ht.shadow_boundary(alg, h_lvl, xdir, Z)
            z2 = float(Z @ Z)
            ident = (1 - h_lvl) ** 2 + 4 * (1 - h_lvl) * h_lvl * z2 / (1 + z2)
            ok &= abs(g4 - ident) < 1e-10
            a1, a2 = ht.alpha_bounds(h_lvl)
            g = ht.gauge(npt)
            ok &= a1 - 1e-10 <= g <= a2 + 1e-10
    criterion(5, "shadow gauge identity (1e-10) and alpha_1 <= gauge <= alpha_2, both backends", ok)


# -------------------------------------------------------------------- AC 6

def test_ac06_slices_and_cylinder_volumes():
    ok = True
    for alg, omega in ((AB1, 2.0), (HEI1, 2 * math.pi**2)):
        c = dr.Cylinder(ht.identity_n(alg), 1.0, 2.0)
        vol = dr.cylinder_volume(alg, c, omega)
        b0 = dr.slice_volume(alg, c, 0, omega)
        ok &= abs(b0 - (1 - math.exp(-alg.nu)) * vol) < 1e-12 * vol
        for k in range(1, 30):
            ok &= (
                abs(dr.slice_volume(alg, c, k, omega) - math.exp(-k * alg.nu) * b0)
                < 1e-12 * b0
            )
        ok &= abs(sum(dr.slice_volume(alg, c, k, omega) for k in range(300)) - vol) < 1e-10 * vol
        box = ([(-2.2, 2.2)] * alg.p, [(-1.2, 1.2)] * alg.q, (c.base_height, math.inf))
        est = ms.mc_volume("na", c, box, 600_000, seed=6, alg=alg)
        ok &= abs(est.mean - vol) <= 3 * est.stderr
    criterion(6, "slice identities exact; MC cylinder volume within 3 stderr for nu in {1,2}", ok)


# -------------------------------------------------------------------- AC 7

def test_ac07_vitali_bound():
    ok = True
    rng = np.random.default_rng(7)
    for trial in range(100):
        fam = ex.random_horocycle_family(AB1, int(rng.integers(2, 51)), -2, rng)
        _sel, rep = ex.vitali_select(AB1, fam, samples=0, seed=trial)
        ok &= rep.all_pass
    omega = dr.omega_n(HEI1, "mc", 400_000, 7).mean
    for trial in range(100):
        fam = ex.random_horocycle_family(HEI1, int(rng.integers(2, 51)), -2, rng, spread=5.0)
        _sel, rep = ex.vitali_select(HEI1, fam, samples=20_000, seed=trial, omega=omega)
        ok &= rep.all_pass
    criterion(7, "Vitali 5^nu union bound on 100 same-horocycle families, both backends", ok)


# -------------------------------------------------------------------- AC 8

def test_ac08_overlap_decay():
    ok = True
    rng = np.random.default_rng(8)
    chain_depths = (8, 9, 10, 11, 12)
    profiles = []
    for depth in chain_depths:
        fam = ex.stacked_chain(AB1, depth)
        prof = ex.overlap_profile_exact(fam)
        ok &= prof.max_overlap() >= 8
        profiles.append(prof)
    for _ in range(100 - len(chain_depths)):
        fam = ex.build_maximal_family(
            AB1, ex.random_admissible_cylinders(AB1, 25, rng), seed=int(rng.integers(1 << 30))
        )
        profiles.append(ex.overlap_profile_exact(fam))
    for prof in profiles:
        rep = ex.overlap_report(prof, r_values=(1, 2, 3))
        ok &= rep.all_pass
    criterion(8, "overlap decay + L^r overlap norms on 100 maximal families (chains with max >= 8)", ok)


# -------------------------------------------------------------------- AC 9

def test_ac09_llogl_level_set_bound():
    window, res = (-8.0, 8.0, -3.0, 3.0), (160, 90)
    grid = ms.build_grid("h2", window, res)
    lam = mx.llogl_lambda(1.0)
    alphas = [2.0**-m for m in range(1, 9)]
    small1 = h2.ball(HPoint(0.0, 1.0), 1.0)
    small2 = h2.ball(HPoint(1.5, 2.0), 1.0)
    small3 = h2.ball(HPoint(-2.0, 0.7), 0.8)
    rect = h2.rectangle(HPoint(0.0, 1.0), 2.0)
    hb = h2.half_ball(HPoint(0.5, 1.0), 2.0)
    profiles = [
        lambda x, y: h2.contains_mask(small1, x, y).astype(float),
        lambda x, y: h2.contains_mask(rect, x, y).astype(float),
        lambda x, y: h2.contains_mask(small2, x, y) + 1.0 * h2.contains_mask(small3, x, y),
        lambda x, y: np.minimum(1.0 / y, 16.0) * (np.abs(x) < 2.0) * (y < 4.0),
        lambda x, y: 3.0 * h2.contains_mask(hb, x, y) + h2.contains_mask(small3, x, y),
    ]
    fam = mx.admissible_family_for_grid(grid, k_max=9)
    ok = True
    for f in profiles:
        grid.set_values(f)
        rows, _ = mx.level_set_table(grid, fam, alphas)
        for alpha, measure_val in rows:
            rhs = 4.0 * mx.llogl_rhs(grid, alpha, lam)
            ok &= measure_val <= rhs + 0.02 * max(rhs, 1.0)
    criterion(9, "level sets obey 4x the L log L integral at lambda* over a dyadic ladder", ok)


# ------------------------------------------------------------------- AC 10

def test_ac10_weak_11_failure_trend():
    rep = ex.dirac_level_growth(range(6, 15))
    fit = dict(zip(rep.tables[1].columns, rep.tables[1].rows[0]))
    ok = rep.all_pass and fit["slope"] > 0 and fit["r_squared"] > 0.9
    criterion(10, "alpha |E(alpha)| grows linearly in log(1/alpha); witnesses in bracket", ok)


# ------------------------------------------------------------------- AC 11

def test_ac11_lp_divergence_trend():
    ok = True
    cases = ((1.0, "increments_grow"), (2.0, "increments_bounded_below"), (3.0, "increments_decay"))
    reps = ex.modified_lp_sums([p for p, _ in cases], 4, samples=250_000, check_points=100, seed=11)
    for (p, key), rep in zip(cases, reps):
        ok &= rep.all_pass
        ok &= any(a.name == key and a.passed for a in rep.assertions)
        ok &= any(a.name == "witness_bounds" and a.passed for a in rep.assertions)
    criterion(11, "modified half-ball L^p increments: grow at p=1, flat at p=2, decay at p=3", ok)


# ------------------------------------------------------------------- AC 12

def test_ac12_cross_backend_oracle():
    rng = np.random.default_rng(12)
    ok = True
    # distances
    worst = 0.0
    for _ in range(10_000):
        z = HPoint(rng.uniform(-4, 4), math.exp(rng.uniform(-2, 2)))
        w = HPoint(rng.uniform(-4, 4), math.exp(rng.uniform(-2, 2)))
        worst = max(worst, abs(ht.dist_s(AB1, dr.h2_to_na(z), dr.h2_to_na(w)) - h2.distance(z, w)))
    ok &= worst < 1e-10
    # memberships: cylinders against rectangles on shared points
    xs = rng.uniform(-4, 4, 10_000)
    ys = np.exp(rng.uniform(-4, 2, 10_000))
    for R in (1.5, 2.5):
        c = dr.Cylinder(ht.identity_n(AB1), 1.0, R)
        got = dr.cylinder_contains_batch(AB1, c, (), [xs], ys)
        want = h2.contains_mask(h2.rectangle(HPoint(0.0, 1.0), R), xs, ys)
        ok &= bool((got == want).all())
    # forward-geodesic half-ball samples land in the half-plane half ball
    X, Z, a = dr.sample_halfball_arrays(AB1, 2.0, 10_000, seed=12)
    ok &= bool(
        h2.contains_mask(h2.half_ball(HPoint(0.0, 1.0), 2.0 + 1e-9), Z[:, 0], a).all()
    )
    # measures: MC cylinder volume against the rectangle closed form
    for R in (1.5, 2.0):
        c = dr.Cylinder(ht.identity_n(AB1), 1.0, R)
        box = ([], [(-1.2, 1.2)], (c.base_height, math.inf))
        est = ms.mc_volume("na", c, box, 400_000, seed=12, alg=AB1)
        ok &= abs(est.mean - 2.0 * math.exp(R)) <= 3 * est.stderr
    # trigonon sandwich brackets the closed-form area
    for R in (1.5, 2.0, 4.0):
        lo, up = dr.trig_sandwich_volume(AB1, R, 2.0)
        ok &= lo <= h2.trigonon_area(R) <= up
    criterion(12, "abelian q=1 backend reproduces half-plane distances/memberships/measures", ok)
