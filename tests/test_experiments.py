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
from hypmax.report import NoHits, VolumeEstimate


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
        assert ex._all_disjoint(dr.CylFamily(AB1, sel))


def unblocked_left_out(alg, family, kept):
    """Brute force over all pairs: the members of ``family`` outside ``kept``
    that meet no kept member on their horocycle with base radius at least
    their own, read from ``htype.dist_n`` per pair.  A maximal greedy
    selection leaves none."""
    kept_ids = {id(c) for c in kept}
    return [
        m for m in family
        if id(m) not in kept_ids
        and not any(
            s.base_log == m.base_log and s.base_radius >= m.base_radius
            and ht.dist_n(alg, m.n0, s.n0) < m.base_radius + s.base_radius
            for s in kept
        )
    ]


@pytest.mark.parametrize("alg,spread", [(AB1, 60.0), (HEI1, 20.0)])
def test_vitali_selection_is_maximal(alg, spread):
    rng = np.random.default_rng(23)
    for trial in range(5):
        fam = ex.random_horocycle_family(alg, 60, -2, rng, r_hi=4, spread=spread)
        sel, _rep = ex.vitali_select(alg, fam, samples=2_000, seed=trial, omega=2 * math.pi**2)
        assert ex._all_disjoint(dr.CylFamily(alg, sel))
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
    cols = dr.CylFamily(alg, fam)
    X, Z, r = cols.n0.X, cols.n0.Z, cols.base_radius
    first = np.hstack([X, Z])[:, 0]
    assert len(set(r.tolist())) < len(fam) and len(set(first.tolist())) < len(fam)
    assert (np.signbit(first) & (first == 0.0)).any() and (~np.signbit(first) & (first == 0.0)).any()
    want = sorted(fam, key=lambda c: (-c.base_radius, tuple(c.n0.X), tuple(c.n0.Z)))
    assert [id(fam[i]) for i in ex._greedy_order(cols)] == [id(c) for c in want]


def test_vitali_union_measure_exact_vs_mc():
    rng = np.random.default_rng(11)
    fam = dr.CylFamily(AB1, ex.random_horocycle_family(AB1, 30, -1, rng))
    exact = ex._interval_union_measure(fam)
    mc = ex._sampled_union_measure(fam, 200_000, 3)
    assert abs(mc.mean - exact) < 3 * max(mc.stderr, 1e-12)


def _union_box(fam):
    """The bounding box (lo, hi) that ``_sampled_union_measure`` samples."""
    X0, Z0, r = fam.n0.X, fam.n0.Z, fam.base_radius
    pad = np.array([math.sqrt(x.dot(x)) for x in X0]) * r + fam.a0
    lo = np.concatenate([(X0 - 2 * r[:, None]).min(axis=0), (Z0 - pad[:, None]).min(axis=0)])
    hi = np.concatenate([(X0 + 2 * r[:, None]).max(axis=0), (Z0 + pad[:, None]).max(axis=0)])
    return lo, hi


def _one_shot_union_measure(fam, samples, seed):
    """The union measure of ``_sampled_union_measure`` with every sample
    drawn, sorted and gathered at once, and compacted only after each
    radius, as it was before the draws streamed."""
    rng = np.random.default_rng(seed)
    alg, r = fam.alg, fam.base_radius
    lo, hi = _union_box(fam)
    rows = rng.uniform(lo, hi, (samples, alg.p + alg.q))
    cols, hits = np.ascontiguousarray(rows[np.argsort(rows[:, 0])].T), 0
    b_lo, b_hi = dr.base_ball_box_batch(fam)
    contained = ex._contained_bases(fam, b_lo, b_hi)
    for group in ex._radius_groups(r):
        group = group[~contained[group]]
        if not group.size:
            continue
        outside = np.ones(cols.shape[1], dtype=bool)
        ends = cols[0].searchsorted(np.stack([b_lo[group, 0], np.nextafter(b_hi[group, 0], -np.inf)]), side="right")
        for i, j0, j1 in zip(group.tolist(), ends[0].tolist(), ends[1].tolist()):
            in_box = outside[j0:j1].copy()
            for k in range(1, cols.shape[0]):
                seg = cols[k, j0:j1]
                in_box &= (seg > b_lo[i, k]) & (seg < b_hi[i, k])
            idx = j0 + np.flatnonzero(in_box)
            if idx.size:
                cand = cols.take(idx, axis=1)
                outside[idx[ht.dist_below_cols(alg, fam[i].n0, cand[: alg.p], cand[alg.p :], r[i])]] = False
        hits += outside.size - int(np.count_nonzero(outside))
        cols = cols[:, outside]
    return VolumeEstimate.of_hits(float(np.prod(hi - lo)), hits, samples)


@pytest.mark.parametrize("samples", [dr.MC_CHUNK - 1, 2 * dr.MC_CHUNK + 7])
@pytest.mark.parametrize(
    "alg,count", [(HEI1, 1), (HEI1, 25), (ht.heisenberg(2), 8), (ht.degenerate_abelian(2), 12)], ids=lambda v: str(getattr(v, "label", v))
)
def test_sampled_union_measure_streams_the_one_shot_estimate(alg, count, samples):
    """Drawn a chunk of rows at a time, permuted and compacted in place and
    gathered a chunk at a time, the estimate is the one-shot one bit for
    bit.  In each family the largest ball holds more than a chunk of the
    2 C + 7 samples, so its candidates reach the gauge test in pieces."""
    fam = dr.CylFamily(alg, ex.random_horocycle_family(alg, count, -1, np.random.default_rng(count)))
    assert ex._sampled_union_measure(fam, samples, 6) == _one_shot_union_measure(fam, samples, 6)


@pytest.mark.parametrize(
    "alg,count,seed,dense",
    [(HEI1, 1000, 0, True), (HEI1, 1000, 1, True), (HEI1, 1000, 2, True), (ht.heisenberg(2), 400, 1, True),
     (ht.heisenberg(3), 6, 3, False)],
    ids=lambda v: str(getattr(v, "label", v)),
)
def test_sampled_union_measure_compacts_as_balls_cover_it(alg, count, seed, dense):
    """The union sampler compacts its samples whenever the hits since the
    last compaction reach an eighth of the live samples; the estimate is
    the one-shot one bit for bit.  The dense families have the na-cover
    shape (1,000 horocycle cylinders on dr-heisenberg:1 at 50,000 samples)
    or 400 cylinders on dr-heisenberg:2, where the hits pass an eighth of
    the samples and compaction fires (4 or 5 times and once); the sparse
    dr-heisenberg:3 family draws fewer hits than an eighth, so it never
    fires."""
    fam = dr.CylFamily(alg, ex.random_horocycle_family(alg, count, -2, np.random.default_rng(seed)))
    est, want = ex._sampled_union_measure(fam, 50_000, seed), _one_shot_union_measure(fam, 50_000, seed)
    assert (est.mean.hex(), est.stderr.hex()) == (want.mean.hex(), want.stderr.hex())
    lo, hi = _union_box(fam)
    assert (est.mean / np.prod(hi - lo) > 1 / 8) == dense


def test_sampled_union_measure_with_no_hit_raises_no_hits():
    """One sample of the family of ``vitali --space dr-heisenberg:1 --count
    30 --seed 1`` misses every base, so the union is not estimated."""
    fam = dr.CylFamily(HEI1, ex.random_horocycle_family(HEI1, 30, -2, np.random.default_rng(1)))
    with pytest.raises(NoHits, match="samples 1,"):
        ex._sampled_union_measure(fam, 1, 1)
    with pytest.raises(NoHits):
        ex.vitali_select(HEI1, fam.cylinders, samples=1, seed=1)


def test_union_base_measure_takes_the_half_of_its_backend():
    """The exact interval merge on the abelian q = 1 backend, sampling on
    every other, bit for bit, each times the height tail."""
    rng = np.random.default_rng(4)
    fam = dr.CylFamily(AB1, ex.random_horocycle_family(AB1, 20, -1, rng))
    tail = fam[0].base_height ** -AB1.nu / AB1.nu
    assert ex._union_base_measure(fam, 5_000, 2) == (ex._interval_union_measure(fam) * tail, 0.0)
    fam = dr.CylFamily(HEI1, ex.random_horocycle_family(HEI1, 20, -1, rng, spread=4.0))
    tail = fam[0].base_height ** -HEI1.nu / HEI1.nu
    est = ex._sampled_union_measure(fam, 5_000, 2)
    assert ex._union_base_measure(fam, 5_000, 2) == (est.mean * tail, est.stderr * tail)
    assert est.stderr > 0


def test_vitali_heisenberg_backend():
    rng = np.random.default_rng(13)
    omega = dr.omega_n(HEI1, "mc", 400_000, 0).mean
    for trial in range(5):
        fam = ex.random_horocycle_family(HEI1, 20, -1, rng, spread=4.0)
        sel, rep = ex.vitali_select(HEI1, fam, samples=40_000, seed=trial, omega=omega)
        assert rep.all_pass, rep.to_json()


@pytest.mark.parametrize("alg", [AB1, HEI1, ht.heisenberg(2)], ids=lambda a: a.label)
def test_selections_are_the_callers_objects(alg):
    """``vitali_select`` returns a list of the family's own cylinders (the
    benchmark matches them by ``id``), and so does a family passed as a
    ``CylFamily``; ``build_maximal_family`` keeps the generator's own
    objects in its ``cylinders`` list."""
    rng = np.random.default_rng(31)
    fam = ex.random_horocycle_family(alg, 40, -2, rng, spread=6.0)
    ids = {id(c) for c in fam}
    sel, _rep = ex.vitali_select(alg, fam, samples=2_000, seed=1, omega=2.0)
    assert isinstance(sel, list) and 0 < len(sel) < len(fam)
    assert all(id(c) in ids for c in sel)
    sel2, _rep = ex.vitali_select(alg, dr.CylFamily(alg, fam), samples=2_000, seed=1, omega=2.0)
    assert len(sel2) == len(sel) and all(a is b for a, b in zip(sel2, sel))
    gen = ex.random_admissible_cylinders(alg, 30, rng)
    built = ex.build_maximal_family(alg, gen, seed=2)
    assert isinstance(built, dr.CylFamily) and isinstance(built.cylinders, list) and built.alg is alg
    assert built.cylinders and all(any(c is g for g in gen) for c in built.cylinders)


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
    assert ex._all_disjoint(fam)
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
    assert dr.cylinder_contains_batch(alg, fam, e.X[:, None], e.Z[:, None], np.array([e.a])).all()


# ----------------------------------------------------------------- overlap

def test_overlap_disjoint_family():
    fam = dr.CylFamily(AB1, [ab_cyl(-5.0, 0, 2), ab_cyl(5.0, 0, 2)])
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


def _full_grid_overlap_sums(fam, grid):
    """The level and union sums of ``overlap_profile`` as it took them
    before it gathered the covered cells: one pass over the whole grid per
    overlap level k, plus one for the union."""
    counts = np.zeros(grid.shape, dtype=np.min_scalar_type(len(fam)))
    lo, hi = ms.member_blocks(grid, fam)
    for i, (c_lo, c_hi) in enumerate(zip(lo.tolist(), hi.tolist())):
        block = tuple(map(slice, c_lo, c_hi))
        counts[block] += fam.block_mask(i, grid, block)
    counts = counts.reshape(-1, grid.shape[-1])
    weights = np.broadcast_to(grid.height_weights, counts.shape)
    levels = [(k, float(weights[counts == k].sum())) for k in range(1, int(counts.max(initial=0)) + 1)]
    return levels, float(weights[counts >= 1].sum())


@pytest.mark.parametrize(
    "alg,window,shape",
    [
        (ht.heisenberg(2), ([(-8.0, 8.0)] * 4, [(-8.0, 8.0)], (-9.0, 3.0)), ([8] * 4, [10], 30)),
        (AB1, ([], [(-8.0, 8.0)], (-9.0, 3.0)), ([], [400], 300)),
    ],
    ids=["dr-heisenberg:2", "dr-abelian:1"],
)
def test_overlap_profile_sums_covered_cells_as_the_full_grid(alg, window, shape):
    """Summed over the covered cells only, each level measure and the
    union measure keep the bits of the full-grid sums: the na-cover window
    on dr-heisenberg:2 and a dr-abelian:1 window, each with a maximal
    family of 40 random admissible cylinders."""
    fam = ex.build_maximal_family(alg, ex.random_admissible_cylinders(alg, 40, np.random.default_rng(1)), seed=1)
    grid = ms.build_grid("na", window, shape, alg=alg)
    prof = ex.overlap_profile(fam, grid)
    levels, union = _full_grid_overlap_sums(fam, grid)
    assert len(levels) > 1
    assert [(k, m.hex()) for k, m in prof.omega_k] == [(k, m.hex()) for k, m in levels]
    assert prof.g_measure.hex() == union.hex()


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
    levels = h2.packing_construct(4)
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
    for lv in h2.packing_construct(4):
        n = lv.n_count
        row = np.linspace(-1.0, 1.0, n)
        if lv.level <= 3:
            idx = np.arange(n)
        else:
            idx = np.concatenate([[0, 1, n // 2, n // 2 + 1, n - 2, n - 1], rng.integers(0, n, 1000)])
        got = np.array([lv.center(int(i)) for i in idx])
        np.testing.assert_array_equal(got.view(np.int64), row[idx].view(np.int64))


@pytest.mark.parametrize("max_level", [-1, h2.MAX_PACKING_LEVEL + 1])
def test_packing_construct_level_range(max_level):
    with pytest.raises(ValueError):
        h2.packing_construct(max_level)


def test_packing_report_disjointness():
    levels = h2.packing_construct(4)
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


@pytest.mark.parametrize("samples", [dr.MC_CHUNK - 1, 2 * dr.MC_CHUNK + 7])
def test_lens_region_measure_streams_the_one_shot_estimate(samples):
    """The lens estimate, and ``sample_h2_box``'s points, from all the draws
    at once, as before they streamed."""
    rng, (x_lo, x_hi, y_lo, y_hi) = np.random.default_rng(9), ex._LENS_BOX
    x = rng.uniform(x_lo, x_hi, samples)
    y = 1.0 / (1.0 / y_lo - rng.uniform(0.0, 1.0, samples) * (1.0 / y_lo - 1.0 / y_hi))
    total = (x_hi - x_lo) * (1.0 / y_lo - 1.0 / y_hi)
    est = VolumeEstimate.of_hits(total, int(np.count_nonzero(ex._in_lens(x, y))), samples)
    assert ex.lens_region_measure(samples, 9) == (est.mean, est.stderr)
    sx, sy, s_total = ms.sample_h2_box(ex._LENS_BOX, samples, np.random.default_rng(9))
    assert (sx.tobytes(), sy.tobytes(), s_total) == (x.tobytes(), y.tobytes(), total)


def test_lens_with_no_hit_raises_no_hits():
    """One lens sample at seed 0 misses the lens (``pack --samples 1``), so
    neither the lens measure nor the sums built on it are formed."""
    with pytest.raises(NoHits, match="samples 1,"):
        ex.lens_region_measure(samples=1, seed=0)
    with pytest.raises(NoHits):
        ex.modified_lp_sums([1.0], 2, samples=1, check_points=5, seed=0)


@pytest.mark.parametrize("p,key", [(1.0, "increments_grow"), (2.0, "increments_bounded_below"), (3.0, "increments_decay")])
def test_modified_lp_sums(p, key):
    (rep,) = ex.modified_lp_sums([p], 4, samples=150_000, check_points=40, seed=7)
    assert rep.all_pass, rep.to_json()
    assert any(a.name == key for a in rep.assertions)


def test_modified_lp_sums_share_their_p_independent_work():
    """The reports of one call over several p equal those of one call per
    p: the lens, c_l and witness draws come from the same seeded streams."""
    together = ex.modified_lp_sums([1.0, 2.0, 3.0], 3, samples=20_000, check_points=20, seed=3)
    alone = [ex.modified_lp_sums([p], 3, samples=20_000, check_points=20, seed=3)[0] for p in (1.0, 2.0, 3.0)]
    assert [r.to_json() for r in together] == [r.to_json() for r in alone]


def test_modified_lp_domain():
    with pytest.raises(ValueError):
        ex.modified_lp_sums([5.0], 2)
