"""Hypothesis property tests for the scalar-level invariants: metric
axioms, gauge homogeneity, Young-type margins, envelope ordering and
admissible hulls over arbitrary admissible inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypmax import drsets as dr
from hypmax import htype as ht
from hypmax import hyp2 as h2
from hypmax.hyp2 import HPoint
from hypmax.report import NoHits, VolumeEstimate


finite_x = st.floats(min_value=-50.0, max_value=50.0)
log_y = st.floats(min_value=-5.0, max_value=5.0)


def hpoints():
    return st.builds(lambda x, u: HPoint(x, math.exp(u)), finite_x, log_y)


@given(hpoints(), hpoints(), hpoints())
def test_triangle_inequality(a, b, c):
    assert h2.distance(a, b) + h2.distance(b, c) >= h2.distance(a, c) - 1e-12


@given(hpoints(), hpoints())
def test_distance_symmetry_and_positivity(a, b):
    d = h2.distance(a, b)
    assert d == h2.distance(b, a)
    assert d >= 0.0
    if a == b:
        assert d == 0.0


@given(hpoints(), st.floats(min_value=1.0 + 1e-6, max_value=8.0))
def test_admissible_hull_property(z, R):
    q = h2.rectangle(z, R)
    hull = h2.admissible_hull(q)
    ratio = h2.area(hull) / h2.area(q)
    assert math.e**2 * (1 - 1e-12) <= ratio <= math.e**3 * (1 + 1e-12)
    assert hull.center.y >= z.y * (1 - 1e-12)
    assert hull.center.y * math.exp(-hull.radius) <= z.y * math.exp(-R) * (1 + 1e-12)


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_alpha_envelope_ordering(h):
    a1, a2 = ht.alpha_bounds(h)
    assert 0.0 <= a1 <= a2 <= 1.0


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_gauge_homogeneity(xv, zv, log_a):
    alg = ht.heisenberg(1)
    n = ht.npoint(alg, xv, [zv])
    a = math.exp(log_a)
    lhs = float(ht.gauge_cols(*ht.dilate_cols(np.array([a]), n.X[:, None], n.Z[:, None]))[0])
    rhs = math.sqrt(a) * ht.gauge(n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=2, max_value=8))
def test_admissible_cylinder_base_is_integer_log(j, R):
    c = dr.AdmissibleCylinder(ht.identity_n(ht.heisenberg(1)), j, R)
    assert c.base_log == j - R
    assert abs(math.log(c.base_height) - (j - R)) < 1e-12


@given(st.floats(min_value=1.0 + 1e-6, max_value=6.0), st.floats(min_value=0.05, max_value=0.95))
def test_trigonon_membership_consistent_with_markers(R, frac):
    # the bottom segment of the trigonon, strictly inside, is a member set
    z = HPoint(0.3, 1.7)
    m = h2.boundary_markers(z, R)
    x = m.p_minus.x + frac * (m.p_plus.x - m.p_minus.x)
    y = m.p_minus.y * (1 + 1e-9)
    assert h2.contains(h2.trigonon(z, R + 1e-9), HPoint(x, y))


@given(st.integers(1, 1_000_000), st.data(), st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
def test_of_hits_has_the_bits_of_the_four_former_estimates(samples, data, total, tail):
    # a draw with no hit has no estimate
    with pytest.raises(NoHits):
        VolumeEstimate.of_hits(total, 0, samples)
    hits = data.draw(st.integers(1, samples))
    est = VolumeEstimate.of_hits(total, hits, samples)
    got = (est.mean, est.stderr)
    # measure.mc_volume and experiments.lens_region_measure: the hit mask's mean
    frac = float((np.arange(samples) < hits).mean())
    assert got == (total * frac, total * math.sqrt(frac * (1.0 - frac) / samples))
    assert got == (total * frac, total * math.sqrt(frac * (1 - frac) / samples))
    # drsets.omega_n: hits / samples
    frac = hits / samples
    assert got == (total * frac, total * math.sqrt(frac * (1.0 - frac) / samples))
    # the sampled union measure: box * frac, then times the height tail
    want = (total * frac * tail, total * math.sqrt(frac * (1 - frac) / samples) * tail)
    assert (est.mean * tail, est.stderr * tail) == want
