"""H-type algebra identities, NA group arithmetic, gauge, distances,
geodesics and the boundary-shadow gauge sandwich."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypmax import htype as ht
from hypmax import hyp2 as h2


AB1 = ht.degenerate_abelian(1)
HEI1 = ht.heisenberg(1)


# ---------------------------------------------------------------- algebras

def test_nu_values():
    assert AB1.nu == 1.0
    assert ht.degenerate_abelian(3).nu == 3.0
    assert HEI1.nu == 2.0
    assert ht.heisenberg(2).nu == 3.0


@pytest.mark.parametrize("alg", [AB1, ht.degenerate_abelian(2), ht.degenerate_abelian(3), HEI1, ht.heisenberg(2)])
def test_algebra_identities(alg):
    res = ht.validate_algebra(alg, samples=10_000, seed=1)
    assert res["antisymmetry"] < 1e-12
    assert res["defining_relation"] < 1e-10
    assert res["h_type"] < 1e-10
    assert res["polarisation"] < 1e-10


def test_heisenberg_jz_rotation_structure():
    # on the basis: J_{f1} e1 = e2, J_{f1} e2 = -e1, so J^2 = -I exactly
    Z = np.array([1.0])
    assert np.array_equal(HEI1.j_z(Z, np.array([1.0, 0.0])), np.array([0.0, 1.0]))
    assert np.array_equal(HEI1.j_z(Z, np.array([0.0, 1.0])), np.array([-1.0, 0.0]))


def test_make_algebra_parser():
    assert ht.make_algebra("dr-abelian:2").q == 2
    assert ht.make_algebra("dr-heisenberg:1").p == 2
    assert ht.make_algebra("h2").label == "dr-abelian:1"
    with pytest.raises(ValueError):
        ht.make_algebra("nope:3")


# --------------------------------------------------------------- group laws

def test_neutral_and_inverse():
    rng = np.random.default_rng(2)
    e = ht.identity(HEI1)
    for _ in range(100):
        x = ht.spoint(HEI1, rng.normal(size=2), rng.normal(size=1), math.exp(rng.normal()))
        xe = ht.na_mul(HEI1, e, x)
        assert np.allclose(xe.X, x.X) and np.allclose(xe.Z, x.Z) and xe.a == pytest.approx(x.a)
        xi = ht.na_mul(HEI1, x, ht.na_inv(x))
        assert abs(xi.a - 1.0) < 1e-12
        assert np.abs(xi.X).max() < 1e-12 and np.abs(xi.Z).max() < 1e-12


def test_heisenberg_product_example():
    x = ht.spoint(HEI1, [1.0, 0.0], [0.0], 1.0)
    y = ht.spoint(HEI1, [0.0, 1.0], [0.0], 1.0)
    xy = ht.na_mul(HEI1, x, y)
    assert np.allclose(xy.X, [1.0, 1.0])
    assert xy.Z[0] == pytest.approx(0.5, abs=1e-15)
    assert xy.a == 1.0


def test_restriction_to_height_one_is_n_law():
    rng = np.random.default_rng(3)
    for _ in range(200):
        X1, X2 = rng.normal(size=(2, 2))
        Z1, Z2 = rng.normal(size=(2, 1))
        s = ht.na_mul(HEI1, ht.spoint(HEI1, X1, Z1, 1.0), ht.spoint(HEI1, X2, Z2, 1.0))
        nX, nZ = ht.left_translate_batch(HEI1, ht.NPoint(X1, Z1), X2[None, :], Z2[None, :])
        assert np.allclose(s.X, nX[0], atol=1e-14) and np.allclose(s.Z, nZ[0], atol=1e-14)
        assert s.a == 1.0


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_associativity(alg):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10_000):
        pts = [
            ht.spoint(alg, rng.normal(size=alg.p), rng.normal(size=alg.q), math.exp(rng.normal()))
            for _ in range(3)
        ]
        lhs = ht.na_mul(alg, ht.na_mul(alg, pts[0], pts[1]), pts[2])
        rhs = ht.na_mul(alg, pts[0], ht.na_mul(alg, pts[1], pts[2]))
        err = max(
            np.abs(lhs.X - rhs.X).max(initial=0.0),
            np.abs(lhs.Z - rhs.Z).max(initial=0.0),
            abs(lhs.a - rhs.a) / max(1.0, lhs.a),
        )
        worst = max(worst, err)
    assert worst < 1e-10


# ---------------------------------------------------------- bracket kernel

KERNEL_ALGEBRAS = [ht.heisenberg(d) for d in (1, 2, 3, 4)] + [AB1, ht.degenerate_abelian(3)]


def same_bits(a, b):
    """Equal shapes and equal doubles, the sign of zero included."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def einsum_translate(alg, X0, Z0, X, Z, form):
    """The einsum left translations the kernel replaces: one centre
    ("i,nj,ijk->nk") or one centre per row ("ni,nj,ijk->nk")."""
    Zt = Z0 + Z
    if alg.p:
        Zt = Zt + 0.5 * np.einsum(form, X0, X, alg.bracket_coeffs)
    return X0 + X, Zt


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=lambda a: a.label)
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_bracket_kernel_matches_einsum_bit_for_bit(alg, scale):
    rng = np.random.default_rng(21)
    n = 400
    X, Z = scale * rng.standard_normal((n, alg.p)), scale * rng.standard_normal((n, alg.q))
    X0, Z0 = scale * rng.standard_normal((n, alg.p)), scale * rng.standard_normal((n, alg.q))
    X[::7] = 0.0  # exact zeros and negative zeros in the products
    X0[::5] = -0.0
    for sign in (1.0, -1.0):  # n0 and n0^{-1}
        for r in range(4):
            n0 = ht.NPoint(sign * X0[r], sign * Z0[r])
            got = ht.left_translate_batch(alg, n0, X, Z)
            want = einsum_translate(alg, n0.X, n0.Z, X, Z, "i,nj,ijk->nk")
            assert all(same_bits(g, w) for g, w in zip(got, want))
        rows = ht.NPoint(sign * X0, sign * Z0)
        got = ht.left_translate_batch(alg, rows, X, Z)
        want = einsum_translate(alg, rows.X, rows.Z, X, Z, "ni,nj,ijk->nk")
        assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=lambda a: a.label)
def test_bracket_batch_matches_einsum_bit_for_bit(alg):
    rng = np.random.default_rng(22)
    for scale in (1e-6, 1.0, 1e6):
        X, Xp = scale * rng.standard_normal((300, alg.p)), scale * rng.standard_normal((300, alg.p))
        want = np.einsum("ni,nj,ijk->nk", X, Xp, alg.bracket_coeffs) if alg.p else np.zeros((300, alg.q))
        assert same_bits(alg.bracket_batch(X, Xp), want)
        assert same_bits(alg.bracket(X[0], Xp[0]), want[0])


def test_bracket_terms_are_the_nonzero_coefficients_in_row_major_order():
    alg = ht.heisenberg(2)
    assert alg.bracket_terms == (((0, 2, 1.0), (1, 3, 1.0), (2, 0, -1.0), (3, 1, -1.0)),)
    # each algebra derives its own terms, whatever was built before it
    assert len(ht.heisenberg(3).bracket_terms[0]) == 6
    assert AB1.bracket_terms == ((),)


# ------------------------------------------------------------------- gauge

def test_gauge_values():
    assert ht.gauge(ht.npoint(AB1, Z=[0.25])) == pytest.approx(0.5, rel=1e-14)
    assert ht.gauge(ht.identity_n(HEI1)) == 0.0


def test_gauge_homogeneity_under_dilation():
    rng = np.random.default_rng(7)
    for alg in (AB1, HEI1):
        for _ in range(2000):
            n = ht.NPoint(rng.normal(size=alg.p), rng.normal(size=alg.q))
            g = ht.gauge(n)
            assert abs(ht.gauge(ht.dilate(4.0, n)) - 2.0 * g) < 1e-12 * max(1.0, g)
            a = math.exp(rng.normal())
            assert ht.gauge(ht.dilate(a, n)) == pytest.approx(math.sqrt(a) * g, rel=1e-12)


def gauge_rows(p, q, n=500, seed=23):
    """Rows (X, Z) spread over eleven orders of magnitude, with exact zeros,
    so that sums of squares in another order round differently."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-6, 6, (n, p))
    Z = rng.standard_normal((n, q)) * 10.0 ** rng.integers(-6, 6, (n, q))
    X[::9] = 0.0
    Z[::11] = -0.0
    return X, Z


def layouts(A):
    """A in C order, in F order, as the transpose of a C array and as every
    other row of a larger array."""
    wide = np.repeat(A, 2, axis=0)
    return [np.ascontiguousarray(A), np.asfortranarray(A), np.ascontiguousarray(A.T).T, wide[::2]]


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2, 4, 6])
def test_gauge_batch_sums_squares_in_index_order_for_every_layout(p, q):
    X, Z = gauge_rows(p, q)
    want = ht.gauge_batch(np.ascontiguousarray(X), np.ascontiguousarray(Z))
    for Xl, Zl in zip(layouts(X), layouts(Z)):
        assert same_bits(ht.gauge_batch(Xl, Zl), want)
    # the sums in index order, one Python float at a time
    rows = range(0, X.shape[0], 7)
    x2, z2 = np.zeros(len(rows)), np.zeros(len(rows))
    for j, k in enumerate(rows):
        for v in X[k]:
            x2[j] += v * v
        for v in Z[k]:
            z2[j] += v * v
        # the scalar gauge is one row of the batch
        assert ht.gauge(ht.NPoint(X[k], Z[k])) == want[k]
    assert same_bits((x2**2 / 16.0 + z2) ** 0.25, want[::7])
    # stride-0 rows give the bits of the same rows written out
    Xb, Zb = np.broadcast_to(X[3], X.shape), np.broadcast_to(Z[3], Z.shape)
    assert same_bits(ht.gauge_batch(Xb, Zb), ht.gauge_batch(Xb.copy(), Zb.copy()))
    assert same_bits(ht.gauge_batch(Xb, Zb), np.full(X.shape[0], want[3]))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_gauge_batch_matches_einsum_bit_for_bit_up_to_two_coordinates(p, q):
    X, Z = gauge_rows(p, q)
    for Xl, Zl in zip(layouts(X), layouts(Z)):
        want = (np.einsum("ni,ni->n", Xl, Xl) ** 2 / 16.0 + np.einsum("nk,nk->n", Zl, Zl)) ** 0.25
        assert same_bits(ht.gauge_batch(Xl, Zl), want)


def test_dist_n_left_invariance():
    rng = np.random.default_rng(9)
    for _ in range(500):
        n1 = ht.NPoint(rng.normal(size=2), rng.normal(size=1))
        n2 = ht.NPoint(rng.normal(size=2), rng.normal(size=1))
        g = ht.NPoint(rng.normal(size=2), rng.normal(size=1))
        d0 = ht.dist_n(HEI1, n1, n2)
        # g n1 and g n2, through the one left-translation kernel
        (X1, X2), (Z1, Z2) = ht.left_translate_batch(HEI1, g, np.array([n1.X, n2.X]), np.array([n1.Z, n2.Z]))
        d1 = ht.dist_n(HEI1, ht.NPoint(X1, Z1), ht.NPoint(X2, Z2))
        assert abs(d0 - d1) < 1e-10 * max(1.0, d0)


@pytest.mark.parametrize("alg", [ht.heisenberg(d) for d in (1, 2, 3)] + [ht.degenerate_abelian(3)], ids=lambda a: a.label)
def test_dist_n_batch_rows_are_dist_n_bit_for_bit(alg):
    """With one centre and with one centre per row, every row of
    ``dist_n_batch`` is ``dist_n`` of that pair and the gauge of the
    expanded translate n0^{-1} n, bit for bit."""
    X, Z = gauge_rows(alg.p, alg.q, seed=31)
    X0, Z0 = gauge_rows(alg.p, alg.q, seed=37)
    points = [ht.NPoint(x, z) for x, z in zip(X, Z)]
    for k in range(4):
        n0 = ht.NPoint(X0[k], Z0[k])
        got = ht.dist_n_batch(alg, n0, X, Z)
        assert same_bits(got, np.array([ht.dist_n(alg, n0, n) for n in points]))
        assert same_bits(got, ht.gauge_batch(*einsum_translate(alg, -n0.X, -n0.Z, X, Z, "i,nj,ijk->nk")))
    got = ht.dist_n_batch(alg, ht.NPoint(X0, Z0), X, Z)
    assert same_bits(got, np.array([ht.dist_n(alg, ht.NPoint(x, z), n) for x, z, n in zip(X0, Z0, points)]))
    assert same_bits(got, ht.gauge_batch(*einsum_translate(alg, -X0, -Z0, X, Z, "ni,nj,ijk->nk")))


@pytest.mark.parametrize("r", [1.0, math.e, math.e**2, 0.7, 3.3])
def test_quarter_root_verdict_at_every_float_near_r4(r):
    """At each of the 401 floats s within 200 units in the last place of
    fl(r^4), the verdict from the fourth powers is s^(1/4) < r taken on
    the whole array; the band-free test s < fl(r^4) differs on some of
    them, so the band is what makes the verdicts agree."""
    s = (np.float64(r**4).view(np.int64) + np.arange(-200, 201)).view(np.float64)
    want = s**0.25 < r
    assert np.array_equal(ht._quarter_root_below(s, r), want)
    assert not np.array_equal(s < r**4, want)


BELOW_ALGS = [ht.degenerate_abelian(2), HEI1, ht.heisenberg(2), ht.heisenberg(3)]


@pytest.mark.parametrize("alg", BELOW_ALGS, ids=lambda a: a.label)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dist_below_cols_is_the_distance_verdict_bit_for_bit(alg, data):
    """``dist_below_cols`` equals ``dist_n_cols(...) < r`` bit for bit: with
    one centre or one centre per point, r one scalar or one per point, and
    on block-shaped columns, each coordinate along its own axis as
    ``measure.block_mask`` passes them.  The radii lie a few units in the
    last place from the distances themselves, where the fourth powers
    alone can give another verdict."""
    form = data.draw(st.sampled_from(["one centre", "centre per point", "block"]), label="form")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dim = alg.p + alg.q
    if form == "block":
        axes = [rng.uniform(-3.0, 3.0, 3) for _ in range(dim)]
        cols = [ax.reshape([-1 if i == k else 1 for i in range(dim)]) for k, ax in enumerate(axes)]
    else:
        cols = list((rng.uniform(-3.0, 3.0, (200, dim)) * 10.0 ** rng.integers(-3, 2, (200, dim))).T)
    rows = (200,) if form == "centre per point" else ()
    n0 = ht.NPoint(rng.uniform(-2.0, 2.0, rows + (alg.p,)), rng.uniform(-2.0, 2.0, rows + (alg.q,)))
    X, Z = cols[: alg.p], cols[alg.p :]
    dist = ht.dist_n_cols(alg, n0, X, Z)
    shift = data.draw(st.integers(-4, 4), label="ulps")
    if data.draw(st.booleans(), label="one r per point"):
        r = dist + shift * np.spacing(dist)
    else:
        at = dist.flat[data.draw(st.integers(0, dist.size - 1), label="r from point")]
        r = float(at + shift * np.spacing(at))
    got = ht.dist_below_cols(alg, n0, X, Z, r)
    assert got.shape == dist.shape
    assert np.array_equal(got, dist < r)


# --------------------------------------------------------------- distances

def test_vertical_distance_identity_exact():
    rng = np.random.default_rng(11)
    for alg in (AB1, HEI1):
        for _ in range(500):
            s, sp = np.exp(rng.uniform(-2, 2, 2))
            x = ht.spoint(alg, np.zeros(alg.p), np.zeros(alg.q), s)
            y = ht.spoint(alg, np.zeros(alg.p), np.zeros(alg.q), sp)
            assert abs(ht.dist_s(alg, x, y) - abs(math.log(s / sp))) < 1e-12


def test_dist_zero_and_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = ht.spoint(HEI1, rng.normal(size=2), rng.normal(size=1), math.exp(rng.normal()))
        y = ht.spoint(HEI1, rng.normal(size=2), rng.normal(size=1), math.exp(rng.normal()))
        # x^{-1} x carries ~1e-17 coordinate noise; arccosh near 1 maps it to ~1e-8
        assert ht.dist_s(HEI1, x, x) < 1e-7
        assert abs(ht.dist_s(HEI1, x, y) - ht.dist_s(HEI1, y, x)) < 1e-10


def test_height_increment_bound():
    # d(na, a') >= |log(a/a')|
    rng = np.random.default_rng(17)
    for alg in (AB1, HEI1):
        for _ in range(2000):
            na = ht.spoint(alg, rng.normal(size=alg.p), rng.normal(size=alg.q), math.exp(rng.normal()))
            ap = math.exp(rng.normal())
            target = ht.spoint(alg, np.zeros(alg.p), np.zeros(alg.q), ap)
            assert ht.dist_s(alg, na, target) >= abs(math.log(na.a / ap)) - 1e-12


def test_abelian_backend_matches_half_plane_distance():
    rng = np.random.default_rng(19)
    n = 10_000
    xs, ys = rng.uniform(-4, 4, (2, n)), np.exp(rng.uniform(-2, 2, (2, n)))
    worst = 0.0
    for k in range(n):
        z = h2.HPoint(xs[0, k], ys[0, k])
        w = h2.HPoint(xs[1, k], ys[1, k])
        sz = ht.spoint(AB1, Z=[z.x], a=z.y)
        sw = ht.spoint(AB1, Z=[w.x], a=w.y)
        worst = max(worst, abs(ht.dist_s(AB1, sz, sw) - h2.distance(z, w)))
    assert worst < 1e-10


# ---------------------------------------------------------------- geodesics

def test_vertical_geodesic_exact():
    taus = np.array([0.0, 0.5, 1.0, 3.0])
    n = taus.size
    gx, gz, ga = ht.geodesic_batch(HEI1, np.zeros((n, 2)), np.zeros((n, 1)), np.full(n, -1.0), taus)
    assert np.abs(gx).max(initial=0.0) == 0.0 and np.abs(gz).max(initial=0.0) == 0.0
    for a, tau in zip(ga, taus):
        assert a == pytest.approx(math.exp(-tau), rel=1e-14)


def test_geodesic_at_zero_is_identity():
    rng = np.random.default_rng(23)
    X, Z, t = ht.random_downward_tangents(HEI1, 1, rng)
    gx, gz, ga = ht.geodesic_batch(HEI1, X, Z, t, np.zeros(1))
    assert ga[0] == 1.0 and np.abs(gx).max() == 0.0 and np.abs(gz).max() == 0.0


@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_unit_speed_property(alg):
    rng = np.random.default_rng(29)
    n = 10_000
    X, Z, t = ht.random_downward_tangents(alg, n, rng)
    tau = rng.uniform(0.0, 5.0, n)
    gx, gz, ga = ht.geodesic_batch(alg, X, Z, t, tau)
    d = ht.dist_from_identity_batch(alg, gx, gz, ga)
    assert np.abs(d - tau).max() < 1e-8


@pytest.mark.parametrize("R", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("alg", [AB1, HEI1])
def test_geodesic_height_bounds(alg, R):
    rng = np.random.default_rng(int(R))
    n = 10_000
    X, Z, t = ht.random_downward_tangents(alg, n, rng)
    _, _, ga = ht.geodesic_batch(alg, X, Z, t, np.full(n, R))
    assert (ga >= math.exp(-R) - 1e-12).all()
    assert (ga <= 1.0 / math.cosh(R / 2.0) ** 2 + 1e-12).all()


# ------------------------------------------------------------------ shadow

def test_alpha_bounds_values():
    a1, a2 = ht.alpha_bounds(0.5)
    assert a1 == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert a2 == pytest.approx(0.75**0.25, rel=1e-14)
    assert ht.alpha_bounds(1e-12)[0] == pytest.approx(1.0, abs=1e-9)
    assert ht.alpha_bounds(1 - 1e-12)[1] == pytest.approx(0.0, abs=2e-3)
    with pytest.raises(ValueError):
        ht.alpha_bounds(1.5)


def test_shadow_gauge_identity_pure_x():
    for h in (0.1, 0.5, 0.9):
        n, g4 = ht.shadow_boundary(HEI1, h, np.array([1.0, 0.0]), np.zeros(1))
        assert g4 == pytest.approx((1.0 - h) ** 2, rel=1e-12)
        a1, _ = ht.alpha_bounds(h)
        assert ht.gauge(n) == pytest.approx(a1, rel=1e-12)


def test_shadow_gauge_identity_full_z():
    n, g4 = ht.shadow_boundary(HEI1, 0.5, np.array([1.0, 0.0]), np.array([1.0]))
    assert g4 == pytest.approx(0.75, rel=1e-12)
    # degenerate backend forces |Z| = 1 and lands on alpha_2 exactly
    n, g4 = ht.shadow_boundary(AB1, 0.5, None, np.array([1.0]))
    assert g4 == pytest.approx(1.0 - 0.25, rel=1e-12)


def test_shadow_gauge_vanishes_at_top():
    n, g4 = ht.shadow_boundary(HEI1, 1.0 - 1e-9, np.array([1.0, 0.0]), np.array([0.5]))
    assert ht.gauge(n) < 1e-2 and g4 < 1e-8


@pytest.mark.parametrize("alg", [AB1, ht.degenerate_abelian(2), HEI1])
def test_shadow_identity_and_sandwich(alg):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(2000):
        h = rng.uniform(1e-3, 1 - 1e-3)
        zdir = rng.normal(size=alg.q)
        zdir /= np.linalg.norm(zdir)
        if alg.p == 0:
            Z = zdir
            xdir = None
        else:
            Z = zdir * rng.uniform(0.0, 1.0)
            xdir = rng.normal(size=alg.p)
            xdir /= np.linalg.norm(xdir)
        n, g4 = ht.shadow_boundary(alg, h, xdir, Z)
        z2 = float(Z @ Z)
        expect = (1 - h) ** 2 + 4 * (1 - h) * h * z2 / (1 + z2)
        worst = max(worst, abs(g4 - expect))
        a1, a2 = ht.alpha_bounds(h)
        g = ht.gauge(n)
        assert a1 - 1e-10 <= g <= a2 + 1e-10
    assert worst < 1e-10


def test_shadow_domain_errors():
    with pytest.raises(ValueError):
        ht.shadow_boundary(HEI1, 1.2, np.array([1.0, 0.0]), np.zeros(1))
    with pytest.raises(ValueError):
        ht.shadow_boundary(HEI1, 0.5, np.array([1.0, 0.0]), np.array([2.0]))
