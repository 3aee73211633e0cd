"""Grids with exact measure weights, member averages, Monte Carlo volumes."""

import math
import tracemalloc

import numpy as np
import pytest

from hypmax import drsets as dr
from hypmax import htype as ht
from hypmax import hyp2 as h2
from hypmax import maxop as mx
from hypmax import measure as ms
from hypmax.report import NoHits, VolumeEstimate


AB1 = ht.degenerate_abelian(1)
HEI1 = ht.heisenberg(1)
I = h2.HPoint(0.0, 1.0)


# ------------------------------------------------------------------- grids

def test_grid_weight_sum_matches_box_measure():
    g = ms.build_grid("h2", (-1.0, 1.0, -1.0, 1.0), (40, 40))
    expect = 2.0 * (math.e - 1.0 / math.e)
    assert g.total_measure() == pytest.approx(expect, rel=1e-12)


def test_single_cell_grid():
    g = ms.build_grid("h2", (0.0, 1.0, 0.0, 1.0), (1, 1))
    assert g.size == 1
    assert g.weights[0] == pytest.approx(1.0 * (1.0 - math.exp(-1.0)), rel=1e-14)


def test_refinement_keeps_weight_sum():
    w1 = ms.build_grid("h2", (-2.0, 3.0, -1.5, 0.5), (10, 10)).total_measure()
    w2 = ms.build_grid("h2", (-2.0, 3.0, -1.5, 0.5), (20, 20)).total_measure()
    w3 = ms.build_grid("h2", (-2.0, 3.0, -1.5, 0.5), (160, 160)).total_measure()
    assert w1 == pytest.approx(w2, rel=1e-12)
    assert w1 == pytest.approx(w3, rel=1e-12)


def test_degenerate_window_raises():
    with pytest.raises(ValueError):
        ms.build_grid("h2", (1.0, 1.0, 0.0, 1.0), (4, 4))


def test_na_grid_weight_sum():
    g = ms.build_grid(
        "na", ([(-1.0, 1.0), (-1.0, 1.0)], [(-0.5, 0.5)], (-1.0, 1.0)), ([6, 6], [6], 8), alg=HEI1
    )
    nu = HEI1.nu
    expect = 2.0 * 2.0 * 1.0 * (math.exp(nu) - math.exp(-nu)) / nu
    assert g.total_measure() == pytest.approx(expect, rel=1e-12)
    assert g.X.shape[1] == 2 and g.Z.shape[1] == 1


def test_na_abelian_grid_matches_h2_grid():
    gh = ms.build_grid("h2", (-1.0, 1.0, -1.0, 1.0), (12, 9))
    gn = ms.build_grid("na", ([], [(-1.0, 1.0)], (-1.0, 1.0)), ([], [12], 9), alg=AB1)
    assert gn.total_measure() == pytest.approx(gh.total_measure(), rel=1e-12)


def test_set_values_keeps_scalar_and_per_point_results():
    g = ms.build_grid("h2", (-1.0, 1.0, -1.0, 1.0), (8, 4))
    assert np.array_equal(g.set_values(lambda x, y: 2.5).values, np.full(32, 2.5))
    assert np.array_equal(g.set_values(lambda x, y: x * y).values, g.x * g.y)
    n = ms.build_grid("na", ([(-1.0, 1.0)] * 2, [(-0.5, 0.5)], (-1.0, 1.0)), ([3, 2], [4], 5), alg=HEI1)
    assert np.array_equal(n.set_values(lambda X, Z, a: -1.0).values, np.full(120, -1.0))
    assert np.array_equal(n.set_values(lambda X, Z, a: X[:, 1] + Z[:, 0] * a).values, n.X[:, 1] + n.Z[:, 0] * n.a)


def test_set_values_rejects_a_result_of_another_shape():
    # an (n, 1) result used to broadcast to an (n, n) array of values
    g = ms.build_grid("h2", (-1.0, 1.0, -1.0, 1.0), (8, 4))
    with pytest.raises(ValueError):
        g.set_values(lambda x, y: x[:, None])
    n = ms.build_grid("na", ([(-1.0, 1.0)] * 2, [(-0.5, 0.5)], (-1.0, 1.0)), ([3, 2], [4], 5), alg=HEI1)
    with pytest.raises(ValueError):
        n.set_values(lambda X, Z, a: a[:, None])
    with pytest.raises(ValueError):
        n.set_values(lambda X, Z, a: X)


# ------------------------------------------------------------- integration
# A member's average of f = 1 is its grid measure over its closed-form
# area, so it is within grid quantization of 1.

def test_integrate_indicator_rectangle():
    g = ms.build_grid("h2", (-1.2, 1.2, -1.2, 5.0), (240, 300))
    g.set_values(lambda x, y: 1.0)
    # the tail above e^5 has measure 2 e^{-5}, about 0.25% of the area 2e
    [avg] = mx.member_averages(g, [h2.rectangle(I, 1.0)])
    assert avg == pytest.approx(1.0, rel=0.01)


def test_integrate_indicator_ball():
    g = ms.build_grid("h2", (-1.5, 1.5, -1.2, 1.2), (300, 300))
    g.set_values(lambda x, y: 1.0)
    [avg] = mx.member_averages(g, [h2.ball(I, 1.0)])
    assert avg == pytest.approx(1.0, rel=0.01)


def test_integrate_zero_function():
    g = ms.build_grid("h2", (-1.0, 1.0, -1.0, 1.0), (16, 16))
    g.set_values(lambda x, y: 0.0)
    assert mx.member_averages(g, [h2.ball(I, 0.5)]).tolist() == [0.0]


def test_integrate_error_decreases_with_resolution():
    # boundary-cell quantization error is noisy, so compare coarse vs fine
    errs = []
    for n in (40, 320):
        g = ms.build_grid("h2", (-1.5, 1.5, -1.5, 1.5), (n, n))
        g.set_values(lambda x, y: 1.0)
        [avg] = mx.member_averages(g, [h2.ball(I, 1.0)])
        errs.append(abs(avg - 1.0))
    assert errs[-1] < errs[0]
    assert errs[-1] < 2e-3


# ------------------------------------------------------------- Monte Carlo

def test_mc_halfball_matches_closed_form():
    s = h2.half_ball(I, 1.0)
    est = ms.mc_volume("h2", s, ms.suggested_box_h2(s), 200_000, seed=5)
    expect = 2 * math.pi * math.sinh(0.5) ** 2
    assert expect == pytest.approx(1.7061381326424512, rel=1e-12)
    assert abs(est.mean - expect) < 3 * est.stderr


def test_mc_tiny_radius_raises_no_hits():
    s = h2.ball(I, 1e-9)
    with pytest.raises(NoHits, match="samples 1,000"):
        ms.mc_volume("h2", s, (-2.0, 2.0, 0.1, 10.0), 1000, seed=3)


def test_mc_na_box_beside_the_cylinder_raises_no_hits():
    # the base ball of radius 1 about the identity lies in |X| < 2
    c = dr.Cylinder(ht.identity_n(HEI1), 1.0, 2.0)
    box = ([(3.0, 4.0)] * HEI1.p, [(-1.0, 1.0)], (c.base_height, math.inf))
    with pytest.raises(NoHits):
        ms.mc_volume("na", c, box, 5000, seed=1, alg=HEI1)


def test_omega_n_mc_with_no_hit_raises_no_hits():
    # the unit gauge ball fills a tiny share of [-2, 2]^16 x [-1, 1]: none
    # of the draws of ``volume --space dr-heisenberg:8`` hits it
    with pytest.raises(NoHits, match="samples 200,000"):
        dr.omega_n(ht.heisenberg(8), "mc", 200_000, 0)


def _former_box_h2(s):
    """The box suggested_box_h2 gave every set before it was fitted to the
    small ones: the bounding box, a tenth wider on each side, its heights
    by a factor 1.1."""
    x_lo, x_hi, y_lo, y_hi = h2.bounding_box(s)
    w = x_hi - x_lo
    return (x_lo - 0.1 * w, x_hi + 0.1 * w, y_lo / 1.1, y_hi * 1.1)


@pytest.mark.parametrize("mk", [h2.ball, h2.half_ball, h2.trigonon, h2.rectangle])
def test_suggested_box_keeps_its_bits_from_radius_1(mk):
    for R in (1.0, 1.5, 2.0, 3.0, 10.0, 354.0):
        for z in (I, h2.HPoint(1.5, 2.0), h2.HPoint(-3.0, 0.01)):
            got, want = ms.suggested_box_h2(mk(z, R)), _former_box_h2(mk(z, R))
            assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("mk", [h2.ball, h2.half_ball, h2.trigonon, h2.rectangle])
@pytest.mark.parametrize("R", [1e-9, 1e-4, 0.5])
def test_suggested_box_holds_the_set_at_small_radii(mk, R):
    """The fitted box holds every sampled point of the set, and the set
    fills a fair share of it, so the Monte Carlo gets hits."""
    s = mk(I, R)
    box = x_lo, x_hi, y_lo, y_hi = ms.suggested_box_h2(s)
    # the box widened threefold about its middle, in x and in log y (a
    # rectangle's box, open above, is cut at y = 4)
    xm, xh = 0.5 * (x_lo + x_hi), 1.5 * (x_hi - x_lo)
    um, uh = 0.5 * math.log(y_lo * min(y_hi, 4.0)), 1.5 * math.log(min(y_hi, 4.0) / y_lo)
    x, y, _ = ms.sample_h2_box((xm - xh, xm + xh, math.exp(um - uh), math.exp(um + uh)), 200_000, np.random.default_rng(1))
    inside = h2.contains_mask(s, x, y)
    assert inside.any()
    assert np.all((x_lo <= x[inside]) & (x[inside] <= x_hi) & (y_lo <= y[inside]) & (y[inside] <= y_hi))
    est = ms.mc_volume("h2", s, box, 20_000, seed=4)
    assert est.mean > 0.0 and abs(est.mean - h2.area(s)) <= 4 * est.stderr


def test_mc_rectangle_infinite_box():
    s = h2.rectangle(I, 1.0)
    box = (-1.3, 1.3, math.exp(-1.0), math.inf)
    est = ms.mc_volume("h2", s, box, 200_000, seed=7)
    assert abs(est.mean - 2 * math.e) < 3 * est.stderr


def test_mc_determinism():
    s = h2.ball(I, 1.0)
    box = ms.suggested_box_h2(s)
    a = ms.mc_volume("h2", s, box, 50_000, seed=11)
    b = ms.mc_volume("h2", s, box, 50_000, seed=11)
    assert a == b


def test_mc_unbiased_coverage():
    s = h2.ball(I, 2.0)
    box = ms.suggested_box_h2(s)
    expect = 4 * math.pi * math.sinh(1.0) ** 2
    hits = 0
    for seed in range(20):
        est = ms.mc_volume("h2", s, box, 40_000, seed=seed)
        if abs(est.mean - expect) <= 3 * est.stderr:
            hits += 1
    assert hits >= 18


@pytest.mark.parametrize(
    "alg,omega", [(AB1, 2.0), (HEI1, 2 * math.pi**2)]
)
def test_mc_cylinder_volume_both_backends(alg, omega):
    for R in (2.0, 3.0):
        c = dr.Cylinder(ht.identity_n(alg), 1.0, R)
        box = (
            [(-2.2, 2.2)] * alg.p,
            [(-1.2, 1.2)] * alg.q,
            (c.base_height, math.inf),
        )
        est = ms.mc_volume("na", c, box, 300_000, seed=int(R), alg=alg)
        expect = dr.cylinder_volume(alg, c, omega)
        assert abs(est.mean - expect) < 3 * est.stderr


def test_mc_admissible_cylinder_descriptor():
    c = dr.AdmissibleCylinder(ht.identity_n(AB1), 0, 2)
    box = ([], [(-1.2, 1.2)], (c.base_height, math.inf))
    est = ms.mc_volume("na", c, box, 200_000, seed=2, alg=AB1)
    assert abs(est.mean - 2 * math.exp(2.0)) < 3 * est.stderr


# ------------------------------------------------------ streamed sampling

C = dr.MC_CHUNK
BOUNDS = [(-2.0, 3.0), (0.0, 1.0), (-1.5, -0.25), (1e-3, 7.0)]


@pytest.mark.parametrize("samples", [1, C - 1, C, C + 1, 2 * C + 7])
@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered32"])
def test_uniform_chunks_match_the_one_shot_draws(samples, ncols, buffered):
    """Concatenated, the chunks are the one-shot columns bit for bit, each
    chunk holds at most C samples, and the generator ends in the one-shot
    draws' state, including a buffered 32-bit half left by ``integers``."""
    bounds = BOUNDS[:ncols]
    one, streamed = np.random.default_rng(8), np.random.default_rng(8)
    if buffered:
        one.integers(0, 5, 3), streamed.integers(0, 5, 3)
        assert streamed.bit_generator.state["has_uint32"] == 1
    want = [one.uniform(lo, hi, samples) for lo, hi in bounds]
    chunks = list(ms.uniform_chunks(streamed, bounds, samples))
    assert streamed.bit_generator.state == one.bit_generator.state
    assert [len(c) for c in chunks] == [ncols] * -(-samples // C)
    assert all(col.size == min(C, samples - i * C) for i, c in enumerate(chunks) for col in c)
    for k in range(ncols):
        assert np.concatenate([c[k] for c in chunks]).tobytes() == want[k].tobytes()
    assert streamed.random() == one.random()


def test_uniform_chunks_refuse_other_bit_generators():
    with pytest.raises(TypeError):
        ms.uniform_chunks(np.random.Generator(np.random.MT19937(0)), BOUNDS, 10)


def _one_shot_mc_volume(space, s, box, samples, seed, alg=None):
    """The estimate of ``mc_volume`` from all the draws at once, as the
    samplers drew them before they streamed."""
    rng = np.random.default_rng(seed)
    if space == "h2":
        x_lo, x_hi, y_lo, y_hi = box
        inv_hi = 0.0 if math.isinf(y_hi) else 1.0 / y_hi
        x = rng.uniform(x_lo, x_hi, samples)
        v = rng.uniform(0.0, 1.0, samples)
        y = 1.0 / (1.0 / y_lo - v * (1.0 / y_lo - inv_hi))
        total, mask = (x_hi - x_lo) * (1.0 / y_lo - inv_hi), h2.contains_mask(s, x, y)
    else:
        x_boxes, z_boxes, (a_lo, a_hi) = box
        nu = alg.nu
        X = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in x_boxes]) if alg.p else np.zeros((samples, 0))
        Z = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in z_boxes])
        hi_term = 0.0 if math.isinf(a_hi) else a_hi**-nu
        v = rng.uniform(0.0, 1.0, samples)
        a = (a_lo**-nu - v * (a_lo**-nu - hi_term)) ** (-1.0 / nu)
        horiz = math.prod(hi - lo for lo, hi in list(x_boxes) + list(z_boxes))
        total = horiz * (a_lo**-nu - hi_term) / nu
        mask = dr.cylinder_contains_batch(alg, s, X.T, Z.T, a)
    return VolumeEstimate.of_hits(total, int(np.count_nonzero(mask)), samples)


@pytest.mark.parametrize("samples", [C - 1, 2 * C + 7])
@pytest.mark.parametrize(
    "case",
    [
        ("h2", h2.half_ball(I, 1.0), None),
        ("h2", h2.rectangle(I, 1.0), None),
        ("na", dr.Cylinder(ht.identity_n(AB1), 1.0, 2.0), AB1),
        ("na", dr.Cylinder(ht.identity_n(ht.degenerate_abelian(3)), 1.0, 3.0), ht.degenerate_abelian(3)),
        ("na", dr.Cylinder(ht.identity_n(HEI1), 1.0, 2.0), HEI1),
        ("na", dr.AdmissibleCylinder(ht.identity_n(ht.heisenberg(2)), 0, 2), ht.heisenberg(2)),
    ],
    ids=["h2-half-ball", "h2-rectangle", "na-abelian1", "na-abelian3", "na-heisenberg1", "na-heisenberg2"],
)
def test_mc_volume_streams_the_one_shot_estimate(case, samples):
    space, s, alg = case
    if space == "h2":
        box = ms.suggested_box_h2(s)
    else:
        box = ([(-2.2, 2.2)] * alg.p, [(-1.2, 1.2)] * alg.q, (s.base_height, math.inf))
    assert ms.mc_volume(space, s, box, samples, 13, alg=alg) == _one_shot_mc_volume(space, s, box, samples, 13, alg)


def test_mc_volume_memory_stays_within_a_few_chunks():
    """The draws and temporaries held at a time are a few dozen float
    columns of one chunk, whatever the sample count: 2,000,000 samples on
    dr-heisenberg:1 peak below 32 chunk columns (16.8 MB), where holding
    every draw at once took 160 MB."""
    c = dr.Cylinder(ht.identity_n(HEI1), 1.0, 2.0)
    box = ([(-2.2, 2.2)] * 2, [(-1.2, 1.2)], (c.base_height, math.inf))
    tracemalloc.start()
    try:
        ms.mc_volume("na", c, box, 2_000_000, 3, alg=HEI1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * C
