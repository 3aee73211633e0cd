"""Upper half-plane geometry: distances, memberships, closed-form areas,
boundary markers, admissible hulls and invariance under the affine isometries."""

import math

import numpy as np
import pytest

from hypmax import hyp2 as h2
from hypmax.hyp2 import HPoint, SetKind


I = HPoint(0.0, 1.0)


def random_points(rng, n, x_scale=5.0, log_y=2.0):
    xs = rng.uniform(-x_scale, x_scale, n)
    ys = np.exp(rng.uniform(-log_y, log_y, n))
    return xs, ys


# ---------------------------------------------------------------- distance

def test_vertical_distance_is_log_ratio():
    assert h2.distance(I, HPoint(0.0, math.e)) == pytest.approx(1.0, abs=1e-14)
    assert h2.distance(HPoint(2.0, 0.5), HPoint(2.0, 0.5 * math.e**3)) == pytest.approx(3.0, rel=1e-13)


def test_distance_identity():
    z = HPoint(1.3, 0.7)
    assert h2.distance(z, z) == 0.0


def test_distance_closed_form_value():
    # 2 asinh(|(-1+i)-(1+i)| / 2) = 2 log(1 + sqrt 2)
    got = h2.distance(HPoint(-1.0, 1.0), HPoint(1.0, 1.0))
    assert got == pytest.approx(2.0 * math.log(1.0 + math.sqrt(2.0)), rel=1e-14)
    assert got == pytest.approx(1.762747174039086, abs=1e-12)


def test_distance_symmetry_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x1, y1, x2, y2 = rng.uniform(-3, 3, 4)
        z, w = HPoint(x1, math.exp(y1)), HPoint(x2, math.exp(y2))
        assert h2.distance(z, w) == h2.distance(w, z)


def test_triangle_inequality_bulk():
    rng = np.random.default_rng(11)
    n = 100_000
    xs, ys = random_points(rng, 3 * n)
    x, y = xs.reshape(3, n), ys.reshape(3, n)

    def dist(i, j):
        d2 = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2
        return 2.0 * np.arcsinh(np.sqrt(d2) / (2.0 * np.sqrt(y[i] * y[j])))

    slack = dist(0, 1) + dist(1, 2) - dist(0, 2)
    assert slack.min() >= -1e-12


# ------------------------------------------------------------- membership

def test_half_plane_membership():
    T = h2.half_plane(I)
    assert h2.contains(T, HPoint(0.0, 0.5))
    assert not h2.contains(T, I)  # boundary point, strict


def test_half_ball_contains_perturbed_marker():
    m = h2.boundary_markers(I, 1.0)
    q = m.q_plus
    # move q+ slightly toward the center i
    eps = 1e-6
    w = HPoint(q.x + eps * (I.x - q.x), q.y + eps * (I.y - q.y))
    assert h2.contains(h2.half_ball(I, 1.0), w)
    # q+ itself is on both boundaries, hence excluded
    assert not h2.contains(h2.half_ball(I, 1.0), q)


def test_rectangle_membership_open():
    Q = h2.rectangle(I, 1.0)
    assert h2.contains(Q, HPoint(0.0, 10.0))
    assert h2.contains(Q, HPoint(0.99, math.exp(-1.0) + 1e-9))
    assert not h2.contains(Q, HPoint(1.0, 1.0))
    assert not h2.contains(Q, HPoint(0.0, math.exp(-1.0)))


def test_modified_half_ball_membership():
    b = h2.modified_half_ball(I, 2.0)
    # satellite ball around i e^2
    assert h2.contains(b, HPoint(0.0, math.exp(2.0)))
    assert h2.contains(b, HPoint(0.0, 0.5))
    # gap between the half ball and the satellite
    assert not h2.contains(b, HPoint(0.0, 2.0))


# ------------------------------------------------------------------ areas

def test_closed_form_areas():
    z = HPoint(1.5, 2.0)
    assert h2.area(h2.ball(z, 1.0)) == pytest.approx(4 * math.pi * math.sinh(0.5) ** 2, rel=1e-14)
    assert h2.area(h2.half_ball(z, 1.0)) == pytest.approx(0.5 * h2.area(h2.ball(z, 1.0)), rel=1e-14)
    assert h2.area(h2.rectangle(z, 1.0)) == pytest.approx(2 * math.e, rel=1e-14)
    assert h2.area(h2.rectangle(z, 1.0)) == pytest.approx(5.43656365691809, abs=1e-12)
    # evaluate the trigonon formula independently from its pieces
    R = 1.0
    expect = 2 * math.exp(R) * math.sqrt(1 - math.exp(-2 * R)) - 2 * math.acos(math.exp(-R))
    assert h2.area(h2.trigonon(z, R)) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(2.6671788111507855, abs=1e-12)


def test_area_independent_of_center():
    for kind_ctor in (h2.ball, h2.half_ball, h2.trigonon, h2.rectangle):
        a1 = h2.area(kind_ctor(HPoint(0, 1), 2.5))
        a2 = h2.area(kind_ctor(HPoint(-7, 0.03), 2.5))
        assert a1 == a2


def test_modified_area_is_sum_of_disjoint_pieces():
    z = HPoint(0.3, 1.7)
    got = h2.area(h2.modified_half_ball(z, 1.5))
    assert got == pytest.approx(
        2 * math.pi * math.sinh(0.75) ** 2 + 4 * math.pi * math.sinh(0.5) ** 2, rel=1e-14
    )


def test_half_plane_area_raises():
    with pytest.raises(ValueError):
        h2.area(h2.half_plane(I))


def test_area_monte_carlo_ball():
    # crude grid Monte Carlo oracle for |B_1(i)|, uniform in (x, u=log y)
    rng = np.random.default_rng(3)
    n = 400_000
    R = 1.0
    x = rng.uniform(-math.sinh(R), math.sinh(R), n)
    u = rng.uniform(-R, R, n)
    y = np.exp(u)
    inside = h2.contains_mask(h2.ball(I, R), x, y)
    # dmu = e^{-u} dx du on the (x, u) box
    box = 2 * math.sinh(R) * 2 * R
    vals = np.where(inside, np.exp(-u), 0.0)
    est = box * vals.mean()
    se = box * vals.std() / math.sqrt(n)
    assert abs(est - h2.area(h2.ball(I, R))) < 3 * se


# ------------------------------------------------------- boundary markers

def test_boundary_markers_at_origin():
    m = h2.boundary_markers(I, 1.0)
    assert m.euclid_center == pytest.approx((0.0, math.cosh(1.0)))
    assert m.euclid_radius == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert m.q_plus.x == pytest.approx(math.tanh(1.0), rel=1e-14)
    assert m.q_plus.y == pytest.approx(1.0 / math.cosh(1.0), rel=1e-14)
    assert m.q_minus.x == pytest.approx(-math.tanh(1.0), rel=1e-14)
    assert m.p_plus.x == pytest.approx(math.sqrt(1 - math.exp(-2.0)), rel=1e-14)
    assert m.p_plus.y == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_markers_lie_on_their_circles():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = HPoint(rng.uniform(-3, 3), math.exp(rng.uniform(-1.5, 1.5)))
        R = rng.uniform(0.2, 4.0)
        m = h2.boundary_markers(z, R)
        cx, cy = m.euclid_center
        for q in (m.q_minus, m.q_plus):
            # on the ball circle
            assert abs(math.hypot(q.x - cx, q.y - cy) - m.euclid_radius) < 1e-9
            # on the boundary circle of the special half plane
            assert abs(math.hypot(q.x - z.x, q.y) - z.y) < 1e-9
        for p in (m.p_minus, m.p_plus):
            assert abs(p.y - math.exp(-R) * z.y) < 1e-12
            assert abs(math.hypot(p.x - z.x, p.y) - z.y) < 1e-9


def test_markers_degenerate_limit():
    m = h2.boundary_markers(I, 1e-8)
    assert m.euclid_radius < 2e-8
    assert abs(m.q_plus.x) < 2e-8
    assert m.q_plus.y == pytest.approx(1.0, abs=1e-12)


def test_segment_q_in_halfball_closure():
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = HPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-1, 1)))
        R = rng.uniform(0.5, 3.0)
        m = h2.boundary_markers(z, R)
        t = rng.uniform(0.05, 0.95, 50)
        xs = m.q_minus.x + t * (m.q_plus.x - m.q_minus.x)
        ys = np.full_like(xs, m.q_minus.y)
        assert h2.contains_mask(h2.half_ball(z, R + 1e-9), xs, ys).all()


# -------------------------------------------------------- admissible hulls

def test_hull_example_values():
    q = h2.rectangle(HPoint(0.0, 0.9), 1.5)
    hull = h2.admissible_hull(q)
    assert hull.j == 0 and hull.radius == 4
    ratio = h2.area(hull) / h2.area(q)
    assert ratio == pytest.approx(math.exp(2.5), rel=1e-12)

    q2 = h2.rectangle(I, 2.0)
    hull2 = h2.admissible_hull(q2)
    assert hull2.j == 0 and hull2.radius == 4
    assert h2.area(hull2) / h2.area(q2) == pytest.approx(math.e**2, rel=1e-12)


def test_hull_contains_and_ratio_bounds():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        z = HPoint(rng.uniform(-5, 5), math.exp(rng.uniform(-3, 3)))
        R = rng.uniform(1.0 + 1e-9, 6.0)
        q = h2.rectangle(z, R)
        hull = h2.admissible_hull(q)
        # corner containment: base corners and high-up corners of q
        eps = 1e-12
        for cx in (z.x - z.y * (1 - eps), z.x + z.y * (1 - eps)):
            for cy in (z.y * math.exp(-R) * (1 + 1e-12) + 1e-300, z.y * math.exp(4)):
                assert h2.contains(hull, HPoint(cx, cy))
        ratio = h2.area(hull) / h2.area(q)
        assert math.e**2 - 1e-9 <= ratio <= math.e**3 + 1e-9


# ------------------------------------------------------- affine isometries
# w -> w Im(z0) + Re(z0) is an isometry that maps i to z0; the image of a
# set is the set of its kind about the image of its centre


def affine(z0, x, y):
    return x * z0.y + z0.x, y * z0.y


def test_affine_preserves_distance():
    rng = np.random.default_rng(23)
    z0 = HPoint(1.7, 0.35)
    for _ in range(10_000):
        a = HPoint(rng.uniform(-4, 4), math.exp(rng.uniform(-2, 2)))
        b = HPoint(rng.uniform(-4, 4), math.exp(rng.uniform(-2, 2)))
        d0 = h2.distance(a, b)
        d1 = h2.distance(HPoint(*affine(z0, a.x, a.y)), HPoint(*affine(z0, b.x, b.y)))
        assert abs(d0 - d1) < 1e-12 * max(1.0, d0)


def test_affine_transforms_descriptors_consistently():
    rng = np.random.default_rng(29)
    z0 = HPoint(-0.8, 2.5)
    sets = [
        h2.ball(HPoint(0.5, 1.2), 1.3),
        h2.half_ball(HPoint(-1.0, 0.8), 2.0),
        h2.trigonon(HPoint(0.0, 1.0), 1.7),
        h2.rectangle(HPoint(2.0, 0.5), 2.2),
        h2.half_plane(HPoint(0.3, 1.1)),
        h2.modified_half_ball(HPoint(0.0, 1.0), 1.4),
    ]
    xs, ys = (rng.uniform(-6, 6, 4000), np.exp(rng.uniform(-3, 3, 4000)))
    for s in sets:
        img = h2.H2Set(s.kind, HPoint(*affine(z0, s.center.x, s.center.y)), s.radius)
        before = h2.contains_mask(s, xs, ys)
        after = h2.contains_mask(img, *affine(z0, xs, ys))
        assert (before == after).all()
        if s.kind not in (SetKind.HALF_PLANE,):
            assert h2.area(img) == pytest.approx(h2.area(s), rel=1e-13)


def test_affine_admissible_rectangle_kind():
    """An admissible rectangle's image is admissible, with j shifted by
    log Im z0, when that is an integer, and the plain rectangle of its
    centre and radius otherwise."""
    rng = np.random.default_rng(31)
    xs, ys = (rng.uniform(-6, 6, 4000), np.exp(rng.uniform(-4, 6, 4000)))
    s = h2.admissible_rectangle(0.0, 0, 3)
    for z0, img in [
        (HPoint(4.0, math.exp(2.0)), h2.admissible_rectangle(4.0, 2, 3)),
        (HPoint(4.0, 2.0), h2.rectangle(HPoint(4.0, 2.0), 3.0)),
    ]:
        assert (h2.contains_mask(s, xs, ys) == h2.contains_mask(img, *affine(z0, xs, ys))).all()
        assert h2.area(img) == h2.area(s)


# ------------------------------------------------------- inclusion chains

@pytest.mark.parametrize("R", [1.0, 2.0, 4.0])
def test_inclusion_chain_trigona_halfballs(R):
    rng = np.random.default_rng(int(R * 100))
    z = HPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-1, 1)))
    n = 100_000

    # sample the inner trigonon T_{R - log 2}(z), check it lies in b_R(z)
    K = R - math.log(2.0)
    h = np.exp(rng.uniform(math.log(math.exp(-K) + 1e-12), 0.0, n)) * (1 - 1e-12)
    half_w = np.sqrt(np.maximum(0.0, 1.0 - h * h)) * z.y
    xs = z.x + rng.uniform(-1, 1, n) * half_w * (1 - 1e-12)
    ys = h * z.y
    inner = h2.contains_mask(h2.trigonon(z, K), xs, ys)
    assert inner.all()
    assert h2.contains_mask(h2.half_ball(z, R), xs[inner], ys[inner]).all()

    # sample b_R(z) by rejection from its bounding box, check it lies in T_R(z)
    bb = h2.bounding_box(h2.half_ball(z, R))
    xs = rng.uniform(bb[0], bb[1], 4 * n)
    ys = np.exp(rng.uniform(math.log(bb[2]), math.log(bb[3]), 4 * n))
    m = h2.contains_mask(h2.half_ball(z, R), xs, ys)
    xs, ys = xs[m][:n], ys[m][:n]
    assert len(xs) > n // 2
    assert h2.contains_mask(h2.trigonon(z, R), xs, ys).all()
    # and inside the infinite rectangle Q_R(z)
    assert h2.contains_mask(h2.rectangle(z, R), xs, ys).all()
