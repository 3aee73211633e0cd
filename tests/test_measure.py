"""Grids with exact measure weights, member averages, Monte Carlo volumes."""

import math

import numpy as np
import pytest

from hypmax import drsets as dr
from hypmax import htype as ht
from hypmax import hyp2 as h2
from hypmax import maxop as mx
from hypmax import measure as ms


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


def test_mc_tiny_radius_warns_zero_hits():
    s = h2.ball(I, 1e-9)
    with pytest.warns(UserWarning):
        est = ms.mc_volume("h2", s, (-2.0, 2.0, 0.1, 10.0), 1000, seed=3)
    assert est.mean == 0.0


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
