"""Vitali selection, maximal families, overlap decay, point-mass level
growth and the modified half-ball packing sums."""

import math

import numpy as np
import pytest
from scipy import integrate

from hypmax import drsets as dr
from hypmax import experiments as ex
from hypmax import htype as ht
from hypmax import hyp2 as h2
from hypmax import measure as ms
from hypmax.drsets import AdmissibleCylinder
from hypmax.htype import NPoint


AB1 = ht.degenerate_abelian(1)
HEI1 = ht.heisenberg(1)


def ab_cyl(x, j, R):
    return AdmissibleCylinder(NPoint(np.zeros(0), np.array([float(x)])), j, R)


# ------------------------------------------------------------------- vitali

def test_vitali_single_and_duplicate():
    c = ab_cyl(0.0, 0, 2)
    sel, rep = ex.vitali_select(AB1, [c], samples=10_000, seed=1)
    assert len(sel) == 1 and rep.all_pass
    ratios = {r[0]: r[1] for r in rep.tables[0].rows}
    assert ratios["ratio"] == pytest.approx(1.0, rel=1e-12)

    sel, rep = ex.vitali_select(AB1, [c, ab_cyl(0.0, 0, 2)], samples=10_000, seed=1)
    assert len(sel) == 1 and rep.all_pass
    assert {r[0]: r[1] for r in rep.tables[0].rows}["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_vitali_mixed_horocycles_rejected():
    with pytest.raises(ValueError):
        ex.vitali_select(AB1, [ab_cyl(0, 0, 2), ab_cyl(0, 0, 3)])


def test_vitali_random_families_h2_backend():
    rng = np.random.default_rng(7)
    for trial in range(50):
        fam = ex.random_horocycle_family(AB1, int(rng.integers(2, 51)), -2, rng)
        sel, rep = ex.vitali_select(AB1, fam, samples=20_000, seed=trial)
        assert rep.all_pass, rep.to_json()
        assert ex._all_disjoint(AB1, sel)


def unblocked_left_out(alg, family, kept):
    """Brute force over all pairs: the members of ``family`` outside ``kept``
    that meet no kept member on their horocycle with base radius at least
    their own.  A maximal greedy selection leaves none."""
    kept_ids = {id(c) for c in kept}
    return [
        m for m in family
        if id(m) not in kept_ids
        and not any(
            s.base_log == m.base_log and s.base_radius >= m.base_radius and not ex._certified_disjoint(alg, m, s)
            for s in kept
        )
    ]


@pytest.mark.parametrize("alg,spread", [(AB1, 60.0), (HEI1, 20.0)])
def test_vitali_selection_is_maximal(alg, spread):
    rng = np.random.default_rng(23)
    for trial in range(5):
        fam = ex.random_horocycle_family(alg, 60, -2, rng, r_hi=4, spread=spread)
        sel, _rep = ex.vitali_select(alg, fam, samples=2_000, seed=trial, omega=2 * math.pi**2)
        assert ex._all_disjoint(alg, sel)
        assert 0 < len(sel) < len(fam)
        assert not unblocked_left_out(alg, fam, sel)


@pytest.mark.parametrize("alg", [AB1, HEI1, ht.heisenberg(2)], ids=lambda a: a.label)
def test_greedy_order_is_the_tuple_key_order(alg):
    """The greedy order from ``np.lexsort`` on the base columns is the order
    of ``sorted`` with the tuple key (-r, tuple(X), tuple(Z)), ties in input
    order, on a family with equal radii, equal first coordinates, duplicate
    centres (the same object and copies) and 0.0 against -0.0."""
    rng = np.random.default_rng(41)
    vals = np.array([-1.0, -0.0, 0.0, 0.5])
    fam = [
        AdmissibleCylinder(NPoint(rng.choice(vals, alg.p), rng.choice(vals, alg.q)), int(rng.integers(-1, 2)), 2)
        for _ in range(60)
    ]
    fam += fam[:6] + [AdmissibleCylinder(NPoint(c.n0.X.copy(), c.n0.Z.copy()), c.j, c.R) for c in fam[6:12]]
    X, Z, r = ms.cylinder_bases(alg, fam)
    first = np.hstack([X, Z])[:, 0]
    assert len(set(r.tolist())) < len(fam) and len(set(first.tolist())) < len(fam)
    assert (np.signbit(first) & (first == 0.0)).any() and (~np.signbit(first) & (first == 0.0)).any()
    want = sorted(fam, key=lambda c: (-c.base_radius, tuple(c.n0.X), tuple(c.n0.Z)))
    assert [id(fam[i]) for i in ex._greedy_order(X, Z, r)] == [id(c) for c in want]


def test_vitali_union_measure_exact_vs_mc():
    rng = np.random.default_rng(11)
    fam = ex.random_horocycle_family(AB1, 30, -1, rng)
    exact = ex._interval_union_measure(fam)
    mc = ex._sampled_union_measure(AB1, fam, 200_000, 3)
    assert abs(mc.mean - exact) < 3 * max(mc.stderr, 1e-12)


def test_union_base_measure_takes_the_half_of_its_backend():
    """The exact interval merge on the abelian q = 1 backend, sampling on
    every other, bit for bit, each times the height tail."""
    rng = np.random.default_rng(4)
    fam = ex.random_horocycle_family(AB1, 20, -1, rng)
    tail = fam[0].base_height ** -AB1.nu / AB1.nu
    assert ex._union_base_measure(AB1, fam, 5_000, 2) == (ex._interval_union_measure(fam) * tail, 0.0)
    fam = ex.random_horocycle_family(HEI1, 20, -1, rng, spread=4.0)
    tail = fam[0].base_height ** -HEI1.nu / HEI1.nu
    est = ex._sampled_union_measure(HEI1, fam, 5_000, 2)
    assert ex._union_base_measure(HEI1, fam, 5_000, 2) == (est.mean * tail, est.stderr * tail)
    assert est.stderr > 0


def test_vitali_heisenberg_backend():
    rng = np.random.default_rng(13)
    omega = dr.omega_n(HEI1, "mc", 400_000, 0).mean
    for trial in range(5):
        fam = ex.random_horocycle_family(HEI1, 20, -1, rng, spread=4.0)
        sel, rep = ex.vitali_select(HEI1, fam, samples=40_000, seed=trial, omega=omega)
        assert rep.all_pass, rep.to_json()


# --------------------------------------------------------- maximal families

def test_build_family_nested_collapses():
    nested = [ab_cyl(0.0, j, 2 * j) for j in range(1, 5)]
    fam = ex.build_maximal_family(AB1, nested, seed=1)
    assert len(fam.cylinders) == 1
    assert fam.cylinders[0].j == 4


def test_build_family_one_horocycle_disjoint():
    rng = np.random.default_rng(17)
    gen = ex.random_horocycle_family(AB1, 30, 0, rng)
    fam = ex.build_maximal_family(AB1, gen, seed=2)
    assert ex._all_disjoint(AB1, fam.cylinders)
    assert not ex.verify_maximal_family(fam)


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_build_family_mixed_random_verifies(alg):
    rng = np.random.default_rng(19)
    for trial in range(5):
        gen = ex.random_admissible_cylinders(alg, 40, rng)
        fam = ex.build_maximal_family(alg, gen, seed=trial)
        assert fam.cylinders
        assert not ex.verify_maximal_family(fam, seed=trial)


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_build_family_horocycle_step_is_maximal(alg):
    """Two horocycles far apart in Z, and no member whose center lies in the
    base of a member at least as large: no member is nested in another, so
    pruning keeps the whole batch and the oracle sees the horocycle step."""
    rng = np.random.default_rng(29)
    gen = []
    for base_log, shift in ((-2, -300.0), (-1, 300.0)):
        for c in ex.random_horocycle_family(alg, 40, base_log, rng, r_hi=4, spread=30.0):
            c = AdmissibleCylinder(NPoint(c.n0.X, c.n0.Z + shift), c.j, c.R)
            small_in_large = (
                ht.dist_n(alg, big.n0, small.n0) < big.base_radius
                for d in gen
                for small, big in [sorted((c, d), key=lambda e: e.base_radius)]
            )
            if not any(small_in_large):
                gen.append(c)
    fam = ex.build_maximal_family(alg, gen, seed=3)
    assert len({c.base_log for c in fam.cylinders}) == 2
    assert len(fam.cylinders) < len(gen)
    assert not unblocked_left_out(alg, gen, fam.cylinders)


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_stacked_chain_is_maximal_family(alg):
    fam = ex.stacked_chain(alg, 10)
    assert len(fam.cylinders) == 10
    assert len({c.base_log for c in fam.cylinders}) == 10
    assert not ex.verify_maximal_family(fam)
    # all members contain the identity
    e = ht.identity(alg)
    assert all(dr.cylinder_contains(alg, c, e) for c in fam.cylinders)


# ----------------------------------------------------------------- overlap

def test_overlap_disjoint_family():
    fam = ex.MaximalFamily(AB1, [ab_cyl(-5.0, 0, 2), ab_cyl(5.0, 0, 2)])
    prof = ex.overlap_profile_exact(fam)
    assert prof.max_overlap() == 1
    assert dict(prof.omega_k)[1] == pytest.approx(prof.g_measure, rel=1e-12)
    # the k = 1 bound constant e^{2 nu - 1}/(e^nu - 1) stays above 1
    assert prof.bound_constant * math.exp(-1) >= 1.0
    rep = ex.overlap_report(prof)
    assert rep.all_pass


def test_overlap_chain_decay_and_sum():
    fam = ex.stacked_chain(AB1, 10)
    prof = ex.overlap_profile_exact(fam)
    assert prof.max_overlap() == 10
    assert sum(m for _, m in prof.omega_k) == pytest.approx(prof.g_measure, rel=1e-12)
    rep = ex.overlap_report(prof)
    assert rep.all_pass, rep.to_json()


def test_overlap_exact_matches_known_chain_value():
    # three cylinders over staggered intervals all containing the origin:
    # the deepest overlap region is the center cell above the highest base
    fam = ex.stacked_chain(AB1, 3)
    prof = ex.overlap_profile_exact(fam)
    centers = [float(c.n0.Z[0]) for c in fam.cylinders]
    lo = max(c - math.e for c in centers)
    hi = min(c + math.e for c in centers)
    top_base = max(c.base_height for c in fam.cylinders)
    expect = (hi - lo) / top_base
    assert dict(prof.omega_k)[3] == pytest.approx(expect, rel=1e-12)


def test_overlap_grid_matches_exact_sweep():
    fam = ex.stacked_chain(AB1, 6)
    prof_e = ex.overlap_profile_exact(fam)
    grid = ms.build_grid("na", ([], [(-4.2, 4.2)], (-6.5, 3.5)), ([], [700], 900), alg=AB1)
    prof_g = ex.overlap_profile(fam, grid)
    assert prof_g.max_overlap() == prof_e.max_overlap()
    # window truncation loses the heights above e^{3.5}; compare loosely
    for k, m in prof_e.omega_k:
        assert dict(prof_g.omega_k)[k] == pytest.approx(m, rel=0.05)


def test_overlap_heisenberg_grid():
    fam = ex.stacked_chain(HEI1, 6)
    grid = ms.build_grid(
        "na",
        ([(-3.4, 3.4), (-3.4, 3.4)], [(-3.3, 3.3)], (-6.5, 2.0)),
        ([12, 12], [16], 36),
        alg=HEI1,
    )
    prof = ex.overlap_profile(fam, grid)
    assert prof.max_overlap() == 6
    rep = ex.overlap_report(prof)
    assert rep.all_pass, rep.to_json()


def test_a_r_constants():
    assert ex.a_r_constant(1, 1) == pytest.approx(3.959134, rel=1e-5)
    assert ex.a_r_constant(1, 2) == pytest.approx(2.927009, rel=1e-5)
    assert ex.a_r_constant(1, 3) == pytest.approx(2.956008, rel=1e-5)


# -------------------------------------------------- point-mass level growth

def test_dirac_level_growth_report():
    rep = ex.dirac_level_growth(range(6, 15))
    assert rep.all_pass, rep.to_json()
    fit = dict(zip(rep.tables[1].columns, rep.tables[1].rows[0]))
    assert fit["slope"] > 0 and fit["r_squared"] > 0.9
    levels = rep.tables[0].rows
    # R_alpha = floor(log(c1 / (4 e alpha))) with c1 = 2 (1 - e^{-1/2})^{3/2}
    c1 = 2 * (1 - math.exp(-0.5)) ** 1.5
    for row in levels:
        m, alpha, r_alpha = row[0], row[1], row[2]
        assert r_alpha == math.floor(math.log(c1 / (4 * math.e * alpha)))
    assert any(row[10] == "ok" for row in levels)


def test_dirac_chain_regime_required():
    with pytest.raises(ValueError):
        ex.dirac_level_growth(range(2, 5))


def test_dirac_witness_lattice_maximal_set():
    alpha = 2.0**-8
    cand, maximal = ex.dirac_witness_lattice(alpha, r_cap=12.0)
    assert cand
    r_star = max(R for _, R in cand)
    expect = {(j, r_star) for j in range(1, math.ceil(r_star - 1e-9))}
    assert set(maximal) == expect
    # witness measures of the maximal trigona sit in the level bracket
    c1 = 2 * (1 - math.exp(-0.5)) ** 1.5
    for _, R in maximal:
        t = h2.trigonon_area(R)
        assert c1 / (2 * math.e * alpha) <= t < 1.0 / alpha


def test_dirac_exact_union_measure_against_grid():
    alpha = 2.0**-6
    cand, _ = ex.dirac_witness_lattice(alpha, r_cap=10.0)
    r_star = max(R for _, R in cand)
    J = math.ceil(r_star - 1e-9) - 1
    exact = h2.trigonon_area(r_star) + (J - 1) * (
        h2.trigonon_area(r_star) - h2.trigonon_area(r_star - 1.0)
    )
    span = math.exp(J) * 1.05
    grid = ms.build_grid("h2", (-span, span, 1.0 - r_star - 0.2, J + 0.2), (720, 360))
    mask = np.zeros(grid.size, dtype=bool)
    for j, R in cand:
        mask |= h2.contains_mask(h2.trigonon(h2.HPoint(0.0, math.exp(j)), R), grid.x, grid.y)
    tally = float(grid.weights[mask].sum())
    assert tally == pytest.approx(exact, rel=0.02)


def test_dirac_chain_difference_mc_oracle():
    # Monte Carlo volume of the difference of consecutive chain trigona
    r_alpha = 4
    inner = h2.trigonon(h2.HPoint(0.0, 1.0), float(r_alpha))
    outer = h2.trigonon(h2.HPoint(0.0, math.e), float(r_alpha))
    rng = np.random.default_rng(23)
    box = (-math.e, math.e, math.exp(1.0 - r_alpha), math.e)
    x, y, total = ms.sample_h2_box(box, 400_000, rng)
    mask = h2.contains_mask(outer, x, y) & ~h2.contains_mask(inner, x, y)
    frac = mask.mean()
    mc = total * frac
    err = total * math.sqrt(frac * (1 - frac) / mask.size)
    exact = h2.trigonon_area(r_alpha) - h2.trigonon_area(r_alpha - 1)
    assert abs(mc - exact) < 3 * err
    kappa = 2 * (math.sqrt(math.e - 1) - 1) * math.exp(-1) * (1 - math.exp(-1))
    assert mc >= kappa * math.exp(r_alpha)


# ----------------------------------------------------------------- packing

def test_packing_level_values():
    levels = ex.packing_construct(4)
    assert levels[0].rho == pytest.approx(2 * math.exp(-1) * math.tanh(1), rel=1e-12)
    assert levels[0].n_count == 2
    assert levels[1].rho == pytest.approx(2 * math.exp(-2) * math.tanh(2), rel=1e-12)
    assert levels[1].n_count == 4
    assert levels[2].n_count == 28
    for lv in levels:
        assert lv.n_count == math.floor(1 / lv.rho) + 1
        assert lv.e_measure == pytest.approx(
            lv.n_count * 2 * math.pi * math.sinh(2.0 ** (lv.level - 1)) ** 2, rel=1e-12
        )


def test_packing_centers_match_linspace():
    """center(i) is bit-equal to the np.linspace row it replaces: every
    index up to level 3, the ends, the middle and 1,000 seeded random
    indices at level 4."""
    rng = np.random.default_rng(11)
    for lv in ex.packing_construct(4):
        n = lv.n_count
        row = np.linspace(-1.0, 1.0, n)
        if lv.level <= 3:
            idx = np.arange(n)
        else:
            idx = np.concatenate([[0, 1, n // 2, n // 2 + 1, n - 2, n - 1], rng.integers(0, n, 1000)])
        got = np.array([lv.center(int(i)) for i in idx])
        np.testing.assert_array_equal(got.view(np.int64), row[idx].view(np.int64))


@pytest.mark.parametrize("max_level", [-1, ex.MAX_PACKING_LEVEL + 1])
def test_packing_construct_level_range(max_level):
    with pytest.raises(ValueError):
        ex.packing_construct(max_level)


def test_packing_report_disjointness():
    levels = ex.packing_construct(4)
    rep = ex.packing_report(levels, samples=2000, seed=3)
    assert rep.all_pass, rep.to_json()


def test_satellite_lens_nonempty():
    assert 2.0 < 2 * math.sinh(1.0)
    # a point of the lens: the midpoint of the satellite centers
    mid = h2.HPoint(0.0, math.cosh(1.0))
    assert h2.contains(h2.ball(h2.HPoint(-1.0, 1.0), 1.0), mid)
    assert h2.contains(h2.ball(h2.HPoint(1.0, 1.0), 1.0), mid)


# ------------------------------------------------------- modified lp sums

def lens_quadrature():
    c, s = math.cosh(1.0), math.sinh(1.0)

    def width(y):
        d2 = s * s - (y - c) ** 2
        if d2 <= 0:
            return 0.0
        d = math.sqrt(d2)
        return max(0.0, min(-1 + d, 1 + d) - max(-1 - d, 1 - d))

    val, _ = integrate.quad(lambda y: width(y) / y**2, c - s, c + s, epsrel=1e-10, limit=300)
    return val


def test_lens_region_measure_vs_quadrature():
    mc, err = ex.lens_region_measure(samples=300_000, seed=5)
    assert abs(mc - lens_quadrature()) < 3 * err


@pytest.mark.parametrize("p,key", [(1.0, "increments_grow"), (2.0, "increments_bounded_below"), (3.0, "increments_decay")])
def test_modified_lp_sums(p, key):
    (rep,) = ex.modified_lp_sums([p], 4, samples=150_000, check_points=40, seed=7)
    assert rep.all_pass, rep.to_json()
    assert any(a.name == key for a in rep.assertions)


def test_modified_lp_sums_share_their_p_independent_work():
    """The reports of one call over several p equal those of one call per
    p: the lens, c_l and witness draws come from the same seeded stream."""
    together = ex.modified_lp_sums([1.0, 2.0, 3.0], 3, samples=20_000, check_points=20, seed=3)
    alone = [ex.modified_lp_sums([p], 3, samples=20_000, check_points=20, seed=3)[0] for p in (1.0, 2.0, 3.0)]
    assert [r.to_json() for r in together] == [r.to_json() for r in alone]


def test_modified_lp_domain():
    with pytest.raises(ValueError):
        ex.modified_lp_sums([5.0], 2)
