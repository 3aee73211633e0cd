"""Half-plane families held as columns (``hyp2.H2Family``) against the
list of ``H2Set`` they stand for: the same members, boxes, blocks, areas,
verdicts and errors, and the same maximal values and witnesses bit for
bit, with the full-grid evaluation as the oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypmax import hyp2 as h2
from hypmax import maxop as mx
from hypmax import measure as ms
from hypmax.hyp2 import H2Family, H2Set, HPoint, SetKind
from test_block_membership import full_maximal_field, full_maximal_fn, span_oracle


# ------------------------------------------------------------------ oracles

def old_contains_mask(s, x, y):
    """The membership predicate as it was written per kind, before the
    shared kernel."""
    zx, zy, R = s.center.x, s.center.y, s.radius

    def ball_mask(zx, zy, R):
        s2 = math.sinh(R / 2.0) ** 2
        return (x - zx) ** 2 + (y - zy) ** 2 < 4.0 * zy * y * s2

    kind = s.kind
    if kind is SetKind.BALL:
        return ball_mask(zx, zy, R)
    if kind is SetKind.HALF_BALL:
        return ball_mask(zx, zy, R) & ((x - zx) ** 2 + y * y < zy * zy)
    if kind is SetKind.TRIGONON:
        return ((x - zx) ** 2 + y * y < zy * zy) & (y > math.exp(-R) * zy)
    if kind is SetKind.RECTANGLE:
        return (np.abs(x - zx) < zy) & (y > math.exp(-R) * zy)
    base = ball_mask(zx, zy, R) & ((x - zx) ** 2 + y * y < zy * zy)
    return base | ball_mask(zx, math.exp(R) * zy, 1.0)


def old_bounding_box(s):
    """The box of one member as it was computed member by member; a half
    ball or a trigonon takes the narrower of its half disc and its ball
    (radius R, resp. arccosh e^R)."""
    zx, zy, R = s.center.x, s.center.y, s.radius
    kind = s.kind
    if kind is SetKind.BALL:
        sh = zy * math.sinh(R)
        return (zx - sh, zx + sh, zy * math.exp(-R), zy * math.exp(R))
    if kind in (SetKind.HALF_BALL, SetKind.TRIGONON):
        a = min(1.0, math.sinh(R) if kind is SetKind.HALF_BALL else math.sqrt(math.expm1(2.0 * R)))
        return (zx - zy * a, zx + zy * a, zy * math.exp(-R), zy)
    if kind is SetKind.RECTANGLE:
        return (zx - zy, zx + zy, zy * math.exp(-R), math.inf)
    half_width = max(zy, zy * math.exp(R) * math.sinh(1.0))
    return (zx - half_width, zx + half_width, zy * math.exp(-R), zy * math.exp(R + 1.0))


def first_max_witness(grid, x, members):
    """The first member containing x whose full-grid average is the max."""
    best, witness = 0.0, None
    wv = grid.weights * np.abs(grid.values)
    for s in members:
        if h2.contains(s, x):
            avg = float(wv[h2.contains_mask(s, grid.x, grid.y)].sum()) / h2.area(s)
            if avg > best:
                best, witness = avg, s
    return witness


# --------------------------------------------------------------- strategies

# "admissible_rectangle" draws a rectangle of the admissible lattice
RADIUS_KINDS = ["ball", "half_ball", "trigonon", "rectangle", "admissible_rectangle", "modified_half_ball"]


@st.composite
def members(draw, kind=None):
    kind = draw(st.sampled_from(RADIUS_KINDS)) if kind is None else kind
    x = draw(st.floats(min_value=-3.5, max_value=3.5))
    if kind == "admissible_rectangle":
        return h2.admissible_rectangle(x, draw(st.integers(-2, 1)), draw(st.integers(2, 5)))
    y = math.exp(draw(st.floats(min_value=-2.0, max_value=2.0)))
    lo = 1.0 if kind == "modified_half_ball" else 0.1
    R = draw(st.floats(min_value=lo, max_value=3.0))
    return H2Set(SetKind(kind), HPoint(x, y), R)


def families(kind=None):
    return st.lists(members(kind), min_size=1, max_size=10)


def grid_for(seed, density):
    g = ms.build_grid("h2", (-3.0, 3.0, -1.5, 1.5), (24, 16))
    rng = np.random.default_rng(seed)
    g.values = rng.random(g.size) * (rng.random(g.size) < density)
    return g


seeds = st.integers(0, 2**32 - 1)
densities = st.sampled_from([0.0, 0.02, 0.3, 1.0])


def assert_same_field(g, fam, expected_members):
    fld = mx.maximal_field(g, fam)
    values, widx = full_maximal_field(g, expected_members)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)
    assert fld.members is fam
    return fld


# ----------------------------------------------------------------- members

@given(families())
def test_columns_are_the_members(sets):
    fam = H2Family.of(sets)
    assert len(fam) == len(sets)
    assert list(fam) == sets
    assert all(fam[i] == s and fam[i - len(sets)] == s for i, s in enumerate(sets))
    assert all(fam[np.int64(i)] == s for i, s in enumerate(sets))
    assert list(fam[1:]) == sets[1:]
    assert list(fam[np.arange(len(sets))[::-1]]) == sets[::-1]
    with pytest.raises(IndexError):
        fam[len(sets)]
    assert H2Family.of(fam) is fam
    # one pass over any iterable
    assert list(H2Family.of(iter(sets))) == sets


def test_lattices_are_the_old_product_order():
    g = ms.build_grid("h2", (-4.0, 4.0, -2.0, 2.0), (96, 64))
    centers = mx.grid_centers(g, 12)
    radii = mx.radius_ladder(1.0, 4)
    for kind in RADIUS_KINDS[:4] + ["modified_half_ball"]:
        fam = mx.h2_lattice(kind, centers, radii)
        old = [H2Set(SetKind(kind), HPoint(float(cx), float(cy)), float(R)) for cx, cy in centers for R in radii]
        assert isinstance(fam, H2Family) and list(fam) == old
    xs = g.axes[0][:: max(1, len(g.axes[0]) // 64)]
    old = [h2.admissible_rectangle(float(x), j, K) for x in xs for j in range(-2, 3) for K in range(2, 7)]
    assert list(mx.admissible_family_for_grid(g, k_max=6)) == old
    assert len(mx.h2_lattice("ball", centers, [])) == 0
    assert len(mx.admissible_family_for_grid(g, k_max=1)) == 0


BAD_MEMBERS = [
    (SetKind.BALL, 0.0, -1.0, 1.0),
    (SetKind.BALL, 0.0, 0.0, 1.0),
    (SetKind.TRIGONON, 0.0, 1.0, -0.5),
    (SetKind.MODIFIED_HALF_BALL, 0.0, 1.0, 0.5),
    # every kind refuses a NaN radius
    *((kind, 0.0, 1.0, math.nan) for kind in SetKind),
]


def refusal(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", BAD_MEMBERS, ids=lambda b: f"{b[0].value}-y{b[2]}-R{b[3]}")
def test_columns_refuse_what_h2set_refuses(bad):
    kind, x, y, R = bad
    want = refusal(lambda: H2Set(kind, HPoint(x, y), R))
    good = h2.admissible_rectangle(0.5, 1, 3)
    # the bad member alone, and after a valid one
    assert refusal(lambda: H2Family(kind, [x], [y], [R])) == want
    codes = [h2.KINDS.index(good.kind), h2.KINDS.index(kind)]
    assert refusal(lambda: H2Family(codes, [0.5, x], [good.center.y, y], [3.0, R])) == want


def test_lattices_refuse_as_before():
    centers = np.array([[0.0, 1.0], [0.5, -1.0]])
    with pytest.raises(ValueError, match="'half_plane' is not a valid SetKind"):
        mx.h2_lattice("half_plane", centers[:1], [1.0])
    with pytest.raises(ValueError, match="HPoint requires y > 0, got y=-1.0"):
        mx.h2_lattice("ball", centers, [1.0])
    with pytest.raises(ValueError, match="modified half ball requires R >= 1"):
        mx.h2_lattice("modified_half_ball", centers[:1], [0.5])
    with pytest.raises(ValueError, match="is not a valid SetKind"):
        mx.h2_lattice("cylinder", centers[:1], [1.0])
    with pytest.raises(TypeError):
        H2Family.of([h2.ball(HPoint(0.0, 1.0), 1.0), "ball"])


# ------------------------------------------------- boxes, blocks and areas

@given(families())
def test_column_boxes_blocks_and_areas_match_members(sets):
    fam = H2Family.of(sets)
    boxes = h2.bounding_boxes(fam)
    for row, s in zip(boxes, sets):
        assert tuple(row.tolist()) == h2.bounding_box(s) == old_bounding_box(s)
        assert h2.area(s) == h2.areas(H2Family.of([s]))[0]
    assert h2.areas(fam).tolist() == [h2.area(s) for s in sets]
    g = grid_for(0, 1.0)
    lo, hi = ms.member_blocks(g, fam)
    lo_l, hi_l = ms.member_blocks(g, sets)
    assert np.array_equal(lo, lo_l) and np.array_equal(hi, hi_l)
    for i, s in enumerate(sets):
        b = old_bounding_box(s)
        want = tuple(span_oracle(ax, l, h) for ax, l, h in zip(g.axes, b[0::2], b[1::2]))
        assert tuple(slice(int(a), int(c)) for a, c in zip(lo[i], hi[i])) == want


@settings(max_examples=100)
@given(families(), seeds)
def test_kernel_is_the_per_kind_predicate(sets, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-6, 6, 500), np.exp(rng.uniform(-3, 3, 500))
    fam = H2Family.of(sets)
    for s in sets:
        assert np.array_equal(h2.contains_mask(s, x, y), old_contains_mask(s, x, y))
        # points on the bottom line y = e^{-R} zy and on the ball circle
        m = h2.boundary_markers(s.center, s.radius)
        for p in (m.p_minus, m.p_plus, m.q_minus, m.q_plus, HPoint(s.center.x, s.center.y * math.exp(-s.radius))):
            assert fam.contains(p).tolist() == [h2.contains(t, p) for t in sets]
    for k in range(0, 500, 50):
        assert fam.contains(HPoint(x[k], y[k])).tolist() == [h2.contains(s, HPoint(x[k], y[k])) for s in sets]


# ------------------------------------------------------ maximal operators

@settings(max_examples=80)
@given(st.sampled_from(RADIUS_KINDS).flatmap(families), seeds, densities)
def test_field_of_one_kind_matches_list_and_full_grid(sets, seed, density):
    g = grid_for(seed, density)
    fam = H2Family.of(sets)
    a = assert_same_field(g, fam, sets)
    b = assert_same_field(g, sets, sets)
    assert np.array_equal(a.witness_idx, b.witness_idx)


@settings(max_examples=80)
@given(families(), families(), seeds, densities)
def test_field_of_mixed_joined_families_matches_full_grid(a, b, seed, density):
    g = grid_for(seed, density)
    joined = H2Family.of(a + b)
    fld = assert_same_field(g, joined, a + b)
    # witnesses index the joined family and the list alike
    for k in np.flatnonzero(fld.witness_idx >= 0)[:5]:
        assert joined[fld.witness_idx[k]] == (a + b)[fld.witness_idx[k]]


@settings(max_examples=60)
@given(families(), seeds, st.sampled_from([0.3, 1.0]))
def test_maximal_fn_matches_full_grid_at_boundary_points(sets, seed, density):
    g = grid_for(seed, density)
    # an equal copy of the first member ties with it, and loses the tie
    sets = sets + [dataclasses.replace(sets[0])]
    fam = H2Family.of(sets)
    points = [HPoint(float(g.x[k]), float(g.y[k])) for k in range(0, g.size, 37)]
    for s in sets:
        m = h2.boundary_markers(s.center, s.radius)
        points += [m.p_minus, m.q_plus, HPoint(s.center.x + 0.1 * s.center.y, s.center.y * math.exp(-s.radius))]
    for x in points:
        res, res_list = mx.maximal_fn(g, x, fam), mx.maximal_fn(g, x, sets)
        assert res.value == res_list.value == full_maximal_fn(g, x, sets)
        witness = first_max_witness(g, x, sets)
        assert res.witness == res_list.witness == witness
        # a list's witness is its own member, the first to attain the max
        assert res_list.witness is witness
        assert res.empty == res_list.empty == (not any(h2.contains(s, x) for s in sets))
