"""Block membership against brute force: every restricted kernel must give
the bits the full-grid (resp. all-samples) evaluation gives."""

import errno
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypmax import drsets as dr
from hypmax import experiments as ex
from hypmax import htype as ht
from hypmax import hyp2 as h2
from hypmax import maxop as mx
from hypmax import measure as ms
from hypmax.htype import NPoint
from hypmax.report import NoHits

HEI1 = ht.heisenberg(1)
HEI2 = ht.heisenberg(2)
AB2 = ht.degenerate_abelian(2)


# ------------------------------------------------------------------ oracles

def full_mask(grid, s):
    if isinstance(s, h2.H2Set):
        return h2.contains_mask(s, grid.x, grid.y)
    return dr.cylinder_contains_batch(grid.alg, s, grid.X.T, grid.Z.T, grid.a)


def member_measure(grid, s, omega):
    return h2.area(s) if isinstance(s, h2.H2Set) else dr.cylinder_volume(grid.alg, s, omega)


def full_maximal_field(grid, members, omega=None):
    wv = grid.weights * np.abs(grid.values)
    out = np.zeros(grid.size)
    widx = np.full(grid.size, -1, dtype=np.int64)
    for idx, s in enumerate(members):
        mask = full_mask(grid, s)
        integ = float(wv[mask].sum())
        if integ == 0.0:
            continue
        avg = integ / member_measure(grid, s, omega)
        better = mask & (avg > out)
        out[better] = avg
        widx[better] = idx
    return out, widx


def full_overlap(fam, grid):
    counts = np.zeros(grid.size, dtype=np.int64)
    for c in fam.cylinders:
        counts += full_mask(grid, c)
    out = [(k, float(grid.weights[counts == k].sum())) for k in range(1, counts.max(initial=0) + 1)]
    return out, float(grid.weights[counts >= 1].sum())


def unsorted_union_measure(alg, cyls, samples, seed):
    """The Monte Carlo union measure with every cylinder tested against
    every sample, in draw order."""
    u = cyls[0].base_height
    tail = u**-alg.nu / alg.nu
    rng = np.random.default_rng(seed)
    x_los = np.array([[c.n0.X[i] - 2 * c.base_radius for i in range(alg.p)] for c in cyls])
    x_his = np.array([[c.n0.X[i] + 2 * c.base_radius for i in range(alg.p)] for c in cyls])
    pad = np.array([[abs(np.linalg.norm(c.n0.X)) * c.base_radius + c.a0 for _ in range(alg.q)] for c in cyls])
    z_ctr = np.array([c.n0.Z for c in cyls])
    lo = np.concatenate([x_los.min(axis=0), (z_ctr - pad).min(axis=0)] if alg.p else [(z_ctr - pad).min(axis=0)])
    hi = np.concatenate([x_his.max(axis=0), (z_ctr + pad).max(axis=0)] if alg.p else [(z_ctr + pad).max(axis=0)])
    pts = rng.uniform(lo, hi, (samples, alg.p + alg.q))
    X, Z = pts[:, : alg.p], pts[:, alg.p :]
    inside = np.zeros(samples, dtype=bool)
    for c in cyls:
        X0, Z0 = c.n0.X, c.n0.Z
        Xd = X - X0[None, :]
        Zd = Z - Z0[None, :]
        if alg.p:
            Zd = Zd - 0.5 * np.einsum("i,nj,ijk->nk", X0, X, alg.bracket_coeffs)
        inside |= ht.gauge_batch(Xd, Zd) < c.base_radius
    if not inside.any():
        raise NoHits("no sample in the union")
    box = float(np.prod(hi - lo))
    frac = inside.mean()
    return box * frac * tail, box * math.sqrt(frac * (1 - frac) / samples) * tail


def union_or_no_hits(union, *args):
    """union(*args), or the class ``NoHits`` when its draw has no hit."""
    try:
        return union(*args)
    except NoHits:
        return NoHits


def per_candidate_greedy(alg, cyls):
    """The greedy selection one candidate at a time: keep a candidate when
    gauge(n_c^{-1} n_k) >= r_c + r_k for every kept k, with the translation
    written out through the einsum bracket."""
    order = sorted(cyls, key=lambda c: (-c.base_radius, tuple(c.n0.X), tuple(c.n0.Z)))
    kept = []
    for c in order:
        X = np.array([k.n0.X for k in kept]).reshape(len(kept), alg.p)
        Z = np.array([k.n0.Z for k in kept]).reshape(len(kept), alg.q)
        r = np.array([k.base_radius for k in kept])
        Zd = -c.n0.Z[None, :] + Z
        if alg.p:
            Zd = Zd + 0.5 * np.einsum("i,nj,ijk->nk", -c.n0.X, X, alg.bracket_coeffs)
        if (ht.gauge_batch(-c.n0.X[None, :] + X, Zd) >= c.base_radius + r).all():
            kept.append(c)
    return kept


def per_pair_refutes(alg, inner, outer, n_dirs, rng):
    """One containment refutation per (inner, outer) pair: the prechecks,
    then 2 (p + q) axis probes and n_dirs random probes of ``inner`` at
    gauge (1 - 1e-9) r, drawn by one call of their own."""
    if inner.base_radius > outer.base_radius + 1e-12 or inner.base_height < outer.base_height - 1e-12:
        return True
    d = alg.p + alg.q
    dirs = np.vstack([np.eye(d), -np.eye(d), rng.standard_normal((n_dirs, d))])
    X, Z = dirs[:, : alg.p], dirs[:, alg.p :]
    scale = ((1.0 - 1e-9) * inner.base_radius / ht.gauge_batch(X, Z)) ** 2
    X, Z = ht.left_translate_cols(alg, inner.n0, np.sqrt(scale) * X.T, scale * Z.T)
    return bool((ht.dist_n_cols(alg, outer.n0, X, Z) >= outer.base_radius).any())


def per_pair_maximal_family(alg, cyls, rng, n_dirs=24):
    """The maximal family one pair at a time: each member against the
    others in index order until the first pair not refuted, with the reverse
    test when that member comes later; then the per-candidate greedy on
    each horocycle."""
    uniq = []
    for c in cyls:
        if not any(
            c.j == d.j and c.R == d.R and np.array_equal(c.n0.X, d.n0.X) and np.array_equal(c.n0.Z, d.n0.Z)
            for d in uniq
        ):
            uniq.append(c)
    kept = []
    for i, c in enumerate(uniq):
        contained = False
        for k, d in enumerate(uniq):
            if k != i and not per_pair_refutes(alg, c, d, n_dirs, rng):
                if k < i or per_pair_refutes(alg, d, c, n_dirs, rng):
                    contained = True
                    break
        if not contained:
            kept.append(c)
    logs = sorted({c.base_log for c in kept})
    return [s for log in logs for s in per_candidate_greedy(alg, [c for c in kept if c.base_log == log])]


def per_pair_violations(fam, rng, n_dirs=24):
    """``verify_maximal_family`` one pair at a time, through ``dist_n``."""
    out = []
    for i, ci in enumerate(fam.cylinders):
        for k, ck in enumerate(fam.cylinders):
            if i == k:
                continue
            if i < k and ci.base_log == ck.base_log and ht.dist_n(fam.alg, ci.n0, ck.n0) < ci.base_radius + ck.base_radius:
                out.append(f"members {i},{k} share horocycle {ci.base_log} but overlap")
            if not per_pair_refutes(fam.alg, ci, ck, n_dirs, rng):
                out.append(f"member {i} appears to be contained in member {k}")
    return out


# -------------------------------------------------------------- half-plane

def h2_grid():
    g = ms.build_grid("h2", (-3.0, 3.0, -1.5, 1.5), (40, 24))
    bump = h2.ball(h2.HPoint(0.4, 1.3), 0.9)
    g.set_values(lambda x, y: h2.contains_mask(bump, x, y) + 0.25 * np.cos(x) / (1.0 + y))
    return g


# centres on the grid lattice plus centres off the window, so that members
# stick out on every side
OFF_WINDOW = np.array([[-3.6, 0.4], [3.3, 2.0], [0.1, 5.5], [1.0, 0.15]])


def meshgrid_build(space, window, resolution, alg=None):
    """Per-point columns and weights as the lattice was once built: a
    meshgrid of every axis, flattened, with the heights taken through
    np.exp over the whole flattened log-height lattice."""
    def centers(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1)
        return 0.5 * (edges[:-1] + edges[1:]), edges

    if space == "h2":
        (x_lo, x_hi, u_lo, u_hi), (nx, nu) = window, resolution
        xc, _ = centers(x_lo, x_hi, nx)
        uc, ue = centers(u_lo, u_hi, nu)
        wu = np.exp(-ue[:-1]) - np.exp(-ue[1:])
        Xg, Ug = np.meshgrid(xc, uc, indexing="ij")
        n = Xg.size
        weights = np.broadcast_to(((x_hi - x_lo) / nx * wu)[None, :], Xg.shape).reshape(n).copy()
        return {"x": Xg.reshape(n).copy(), "y": np.exp(Ug.reshape(n)), "weights": weights}
    x_boxes, z_boxes, (u_lo, u_hi) = window
    nx_list, nz_list, nu = resolution
    axes, steps = [], []
    for (lo, hi), n in zip(list(x_boxes) + list(z_boxes), list(nx_list) + list(nz_list)):
        axes.append(centers(lo, hi, n)[0])
        steps.append((hi - lo) / n)
    uc, ue = centers(u_lo, u_hi, nu)
    wu = (np.exp(-alg.nu * ue[:-1]) - np.exp(-alg.nu * ue[1:])) / alg.nu
    grids = np.meshgrid(*axes, uc, indexing="ij")
    n = grids[0].size
    flat = [g.reshape(n) for g in grids]
    X = np.stack(flat[: alg.p], axis=1) if alg.p else np.zeros((n, 0))
    Z = np.stack(flat[alg.p : alg.p + alg.q], axis=1)
    cell = math.prod(steps) if steps else 1.0
    weights = (cell * np.broadcast_to(wu, grids[-1].shape)).reshape(n).copy()
    return {"X": X, "Z": Z, "a": np.exp(flat[-1]), "weights": weights}


GRID_CASES = [
    ("h2", (-3.0, 3.0, -1.5, 1.5), (40, 24), None),
    ("h2", (-2.7, 4.1, -9.3, 5.9), (33, 71), None),
    ("na", ([(-2, 2)] * 2, [(-3, 3)], (-2, 1)), ([3, 4], [5], 6), HEI1),
    ("na", ([(-3.1, 2.9), (-0.7, 1.3)], [(-4.4, 3.3)], (-7.7, 4.1)), ([7, 5], [9], 41), HEI1),
    ("na", ([], [(-2.5, 1.5), (-0.3, 3.9)], (-6.1, 2.3)), ([], [6, 7], 29), AB2),
]


@pytest.mark.parametrize("space, window, resolution, alg", GRID_CASES)
def test_grid_columns_and_weights_match_meshgrid_construction(space, window, resolution, alg):
    g = ms.build_grid(space, window, resolution, alg=alg)
    want = meshgrid_build(space, window, resolution, alg)
    for name, col in want.items():
        got = getattr(g, name)
        assert got.shape == col.shape and got.dtype == col.dtype
        assert got.tobytes() == col.tobytes(), name


def test_grid_coordinates_are_built_per_access():
    g = na_grid()
    assert g.X is not g.X and np.array_equal(g.X, g.X)
    with pytest.raises(AttributeError):
        g.x
    with pytest.raises(AttributeError):
        h2_grid().a


def test_na_grid_allocates_at_most_24_bytes_per_cell():
    # the na-cover overlap grid: 8^4 x 10 x 30 = 1,228,800 cells on dr-heisenberg:2
    shape = ([8] * 4, [10], 30)
    cells = 8**4 * 10 * 30
    tracemalloc.start()
    try:
        g = ms.build_grid("na", ([(-8.0, 8.0)] * 4, [(-8.0, 8.0)], (-9.0, 3.0)), shape, alg=HEI2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.size == cells
    assert peak <= 24 * cells
    # of the per-cell arrays only the values stay: one double per cell
    assert held <= 8 * cells + 65_536


def tiled_weights(space, window, resolution, alg=None):
    """The per-cell weights as the grid once stored them: the per-height
    factor tiled once per horizontal cell."""
    if space == "h2":
        (x_lo, x_hi, u_lo, u_hi), (nx, nu) = window, resolution
        ue = np.linspace(u_lo, u_hi, nu + 1)
        return np.tile((x_hi - x_lo) / nx * (np.exp(-ue[:-1]) - np.exp(-ue[1:])), nx)
    x_boxes, z_boxes, (u_lo, u_hi) = window
    nx_list, nz_list, nu = resolution
    sizes = list(nx_list) + list(nz_list)
    cell = math.prod((hi - lo) / n for (lo, hi), n in zip(list(x_boxes) + list(z_boxes), sizes)) if sizes else 1.0
    ue = np.linspace(u_lo, u_hi, nu + 1)
    wu = (np.exp(-alg.nu * ue[:-1]) - np.exp(-alg.nu * ue[1:])) / alg.nu
    return np.tile(cell * wu, math.prod(sizes))


@pytest.mark.parametrize("space, window, resolution, alg", GRID_CASES)
def test_grid_weights_and_total_measure_match_the_tiled_weights(space, window, resolution, alg):
    g = ms.build_grid(space, window, resolution, alg=alg)
    want = tiled_weights(space, window, resolution, alg)
    assert g.weights.tobytes() == want.tobytes() and g.size == want.size
    assert g.total_measure() == float(want.sum())
    # one weight per height is stored, and no per-cell weight array
    assert g.height_weights.shape == (g.shape[-1],)
    assert [name for name, v in vars(g).items() if isinstance(v, np.ndarray) and v.size == g.size] == ["values"]


def test_grid_is_an_exact_tensor_of_its_axes():
    g = h2_grid()
    assert np.array_equal(g.x.reshape(g.shape), np.broadcast_to(g.axes[0][:, None], g.shape))
    assert np.array_equal(g.y.reshape(g.shape), np.broadcast_to(g.axes[1][None, :], g.shape))
    n = ms.build_grid("na", ([(-2, 2)] * 2, [(-3, 3)], (-2, 1)), ([3, 4], [5], 6), alg=HEI1)
    for k, col in enumerate([n.X[:, 0], n.X[:, 1], n.Z[:, 0], n.a]):
        shape = [1] * len(n.shape)
        shape[k] = -1
        assert np.array_equal(col.reshape(n.shape), np.broadcast_to(n.axes[k].reshape(shape), n.shape))


@pytest.mark.parametrize("kind", ["ball", "half_ball", "trigonon", "rectangle", "modified_half_ball"])
def test_maximal_field_matches_full_grid(kind):
    g = h2_grid()
    centers = np.vstack([mx.grid_centers(g, 8), OFF_WINDOW])
    fam = mx.h2_lattice(kind, centers, mx.radius_ladder(1.0, 4))
    fld = mx.maximal_field(g, fam)
    values, widx = full_maximal_field(g, fam)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)
    assert (widx >= 0).any()


def test_maximal_field_admissible_rectangles_match_full_grid():
    g = h2_grid()
    # the grid's lattice followed by two columns off the window, in product order
    js = range(math.floor(-1.5), math.ceil(1.5) + 1)
    off = [h2.admissible_rectangle(x, j, K) for x in (-3.4, 3.7) for j in js for K in range(2, 7)]
    fam = h2.H2Family.of([*mx.admissible_family_for_grid(g, k_max=6), *off])
    # every admissible rectangle is unbounded above, so it reaches the window top
    assert all(math.isinf(h2.bounding_box(s)[3]) for s in fam)
    fld = mx.maximal_field(g, fam)
    values, widx = full_maximal_field(g, fam)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)


def test_membership_block_scatters_to_full_mask():
    g = h2_grid()
    z = h2.HPoint(0.5, 0.6)
    # the satellite ball of the modified half ball leaves the box of its half ball
    mhb = h2.modified_half_ball(z, 1.5)
    assert h2.bounding_box(mhb)[3] > h2.bounding_box(h2.half_ball(z, 1.5))[3]
    sets = [h2.ball(z, 2.5), mhb, h2.trigonon(h2.HPoint(-2.9, 4.0), 1.2),
            h2.rectangle(h2.HPoint(2.9, 0.3), 2.0), h2.ball(h2.HPoint(40.0, 1.0), 0.5)]
    for s in sets:
        block, sub = ms.membership_mask(g, s)
        got = np.zeros(g.shape, dtype=bool)
        got[block] = sub
        assert np.array_equal(got.reshape(g.size), full_mask(g, s)), s
    # the far ball's block is at most one padded cell wide
    block, sub = ms.membership_mask(g, sets[-1])
    assert sub.shape[0] <= 1 and not sub.any()


def test_maximal_fn_matches_full_grid():
    g = h2_grid()
    fam = mx.h2_lattice("half_ball", mx.grid_centers(g, 6), mx.radius_ladder(1.0, 3))
    x = h2.HPoint(0.3, 0.9)
    assert mx.maximal_fn(g, x, fam).value == full_maximal_fn(g, x, fam)


def full_maximal_fn(grid, x, members, omega=None):
    wv = grid.weights * np.abs(grid.values)
    if isinstance(x, h2.HPoint):
        inside = [h2.contains(s, x) for s in members]
    else:
        X, Z, a = x.X[:, None], x.Z[:, None], np.array([x.a])
        inside = [dr.cylinder_contains_batch(grid.alg, s, X, Z, a)[0] for s in members]
    averages = (
        float(wv[full_mask(grid, s)].sum()) / member_measure(grid, s, omega) for s, ok in zip(members, inside) if ok
    )
    return max(averages, default=0.0)


# ------------------------------------------------------------------ NA grid

def na_grid():
    g = ms.build_grid("na", ([(-3.0, 3.0)] * 2, [(-4.0, 4.0)], (-3.0, 2.0)), ([7, 8], [9], 10), alg=HEI1)
    return g.set_values(lambda X, Z, a: 1.0 + np.sin(X[:, 0]) * np.cos(Z[:, 0]) / (1.0 + a))


NA_CENTERS = [NPoint(np.array([0.2, -0.4]), np.array([0.5])),
              NPoint(np.array([2.8, -3.5]), np.array([3.9])),  # partly outside the window
              NPoint(np.array([-1.0, 1.5]), np.array([-3.0]))]


OMEGA_HEI1 = 2 * math.pi**2


def cylinder_family(kind):
    if kind == "admissible_cylinder":
        return [dr.AdmissibleCylinder(n0, j, R) for n0 in NA_CENTERS for j in range(-2, 2) for R in range(2, 5)]
    return [dr.Cylinder(n0, a0, R) for n0 in NA_CENTERS for a0 in (0.3, 1.0, 2.5) for R in (1.5, 3.0)]


@pytest.mark.parametrize("kind", ["admissible_cylinder", "cylinder"])
def test_maximal_field_cylinders_match_full_grid(kind):
    g = na_grid()
    fam = cylinder_family(kind)
    fld = mx.maximal_field(g, fam, omega=OMEGA_HEI1)
    values, widx = full_maximal_field(g, fam, OMEGA_HEI1)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)
    assert (widx >= 0).any()
    with pytest.raises(ValueError):
        mx.maximal_field(g, fam)


@pytest.mark.parametrize("kind", ["admissible_cylinder", "cylinder"])
def test_maximal_fn_cylinders_match_full_grid(kind):
    g = na_grid()
    fam = cylinder_family(kind)
    # grid points inside and outside the family's reach, and one off the lattice
    X, Z, a = g.X, g.Z, g.a
    points = [ht.SPoint(X[k], Z[k], float(a[k])) for k in range(0, g.size, 97)]
    points.append(ht.spoint(HEI1, [0.25, -0.5], [0.4], 1.7))
    hits = 0
    for x in points:
        res = mx.maximal_fn(g, x, fam, omega=OMEGA_HEI1)
        assert res.value == full_maximal_fn(g, x, fam, OMEGA_HEI1)
        hits += res.value > 0
    assert 0 < hits < len(points)
    with pytest.raises(ValueError):
        mx.maximal_fn(g, points[0], fam)


# ------------------------------------------------------------ small support

def small_support_values(g, case):
    """Per-cell values of f with small support: an off-centre ball
    indicator, a block on the window's low-x and top-height edges, a single
    cell, or f = 0."""
    v = np.zeros(g.shape)
    if case == "ball":
        if g.space == "h2":
            return h2.contains_mask(h2.ball(h2.HPoint(1.2, 0.6), 0.5), g.x, g.y).astype(float)
        # a gauge ball of radius 1.2 about an off-origin centre, over a band of heights
        n0 = NPoint(np.array([0.5, -1.0]), np.array([1.0]))
        inside = ht.dist_n_cols(g.alg, n0, g.X.T, g.Z.T) < 1.2
        return (inside & (g.a > 0.2) & (g.a < 1.0)).astype(float)
    if case == "edge":
        v[(slice(0, 2),) + tuple(slice(k // 2, k // 2 + 2) for k in g.shape[1:-1]) + (slice(-3, None),)] = 1.5
    elif case == "cell":
        v[tuple(k // 3 for k in g.shape)] = 2.0
    return v.reshape(g.size)


SUPPORTS = ["ball", "edge", "cell", "zero"]
H2_KINDS = ["ball", "half_ball", "trigonon", "rectangle", "modified_half_ball", "admissible_rectangle"]


def h2_family(g, kind):
    if kind == "admissible_rectangle":
        return mx.admissible_family_for_grid(g, k_max=6)
    centers = np.vstack([mx.grid_centers(g, 8), OFF_WINDOW])
    return mx.h2_lattice(kind, centers, mx.radius_ladder(1.0, 4))


def full_averages(grid, members, omega=None):
    wv = grid.weights * np.abs(grid.values)
    return [float(wv[full_mask(grid, s)].sum()) / member_measure(grid, s, omega) for s in members]


def assert_field_matches_full_grid(g, fam, case, omega=None):
    fld = mx.maximal_field(g, fam, omega=omega)
    values, widx = full_maximal_field(g, fam, omega)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)
    # f = 0 paints nothing; every other support is met by some member
    assert (widx >= 0).any() == (case != "zero")
    assert mx.member_averages(g, fam, omega).tolist() == full_averages(g, fam, omega)


@pytest.mark.parametrize("case", SUPPORTS)
@pytest.mark.parametrize("kind", H2_KINDS)
def test_maximal_field_small_support_matches_full_grid(kind, case):
    g = h2_grid()
    g.values = small_support_values(g, case)
    assert_field_matches_full_grid(g, h2_family(g, kind), case)


@pytest.mark.parametrize("case", SUPPORTS)
@pytest.mark.parametrize("kind", ["admissible_cylinder", "cylinder"])
def test_maximal_field_cylinders_small_support_matches_full_grid(kind, case):
    g = na_grid()
    g.values = small_support_values(g, case)
    assert_field_matches_full_grid(g, cylinder_family(kind), case, OMEGA_HEI1)


@pytest.mark.parametrize("case", SUPPORTS)
@pytest.mark.parametrize("kind", H2_KINDS + ["admissible_cylinder", "cylinder"])
def test_maximal_fn_small_support_matches_full_grid(kind, case):
    # maximal_fn skips containing members whose block misses supp f: the
    # value, the first-max witness (the caller's own object) and the empty
    # flag stay the full-grid ones
    if kind.endswith("cylinder"):
        g, fam, omega = na_grid(), cylinder_family(kind), OMEGA_HEI1
        X, Z, a = g.X, g.Z, g.a
        points = [ht.SPoint(X[k], Z[k], float(a[k])) for k in range(0, g.size, 97)]

        def contains(s, x):
            return bool(dr.cylinder_contains_batch(g.alg, s, x.X[:, None], x.Z[:, None], np.array([x.a]))[0])
    else:
        g, omega = h2_grid(), None
        fam = list(h2_family(g, kind))
        # every grid point lies in some member; the last point lies in none
        points = [h2.HPoint(float(x), float(y)) for x, y in zip(g.x[::37], g.y[::37])] + [h2.HPoint(40.0, 1.0)]
        contains = h2.contains
    g.values = small_support_values(g, case)
    averages = full_averages(g, fam, omega)
    zero_members_met = 0
    for x in points:
        inside = [i for i, s in enumerate(fam) if contains(s, x)]
        best = max((averages[i] for i in inside), default=0.0)
        res = mx.maximal_fn(g, x, fam, omega=omega)
        assert res.value == best
        assert res.empty == (not inside)
        assert res.witness is (fam[next(i for i in inside if averages[i] == best)] if best > 0 else None)
        zero_members_met += sum(averages[i] == 0.0 for i in inside)
    assert zero_members_met > 0


def member_pass(g, members, omega=None):
    """The member pass as one generator: the family's ``cells`` over the
    members of ``maxop._pass_inputs``, as every chunk of ``maxop._split_pass``
    runs it; it yields (idx, block, mask, average) in family order."""
    fam, wv, rows, lo, hi = mx._pass_inputs(g, members)
    return fam.cells(g, wv, rows, lo, hi, omega)


def misses_support(g, lo, hi):
    """Per member: its block and the index box of supp f are disjoint."""
    idx = np.nonzero((g.weights * np.abs(g.values)).reshape(g.shape))
    s_lo = np.array([i.min() for i in idx])
    s_hi = np.array([i.max() + 1 for i in idx])
    return ((lo >= s_hi) | (hi <= s_lo) | (lo >= hi)).any(axis=1)


def h2_key(vals):
    # NaN marks a constant the kind does not read and is keyed as -1.0,
    # since NaN != NaN
    return tuple(-1.0 if v != v else v for v in vals)


def h2_member_key(s):
    """A half-plane member as the kernels receive it: its kind, centre and
    radius constants (s2, em, ep)."""
    return h2_key((s.kind, s.center.x, s.center.y, *h2._terms(s.kind, s.radius)))


def expected_runs(g, fam, keep):
    """(kind, zx, zy) of each centre run of the kept members: maximal runs of
    consecutive kept members with the same kind, centre and block columns."""
    lo, hi = ms.member_blocks(g, fam)
    keys = [(s.kind, s.center.x, s.center.y, int(lo[i, 0]), int(hi[i, 0])) for i, s in enumerate(fam) if keep[i]]
    return [k[:3] for k, _ in itertools.groupby(keys)]


@pytest.mark.parametrize("kind", H2_KINDS + ["admissible_cylinder", "cylinder"])
def test_members_off_the_support_are_never_masked(kind, monkeypatch):
    if kind.endswith("cylinder"):
        g, fam, omega = na_grid(), cylinder_family(kind), OMEGA_HEI1
    else:
        g, omega = h2_grid(), None
        fam = h2_family(g, kind)
        # the key tells every member of the family apart
        assert len(set(map(h2_member_key, fam))) == len(fam)
    g.values = small_support_values(g, "cell")
    lo, hi = ms.member_blocks(g, fam)
    missing = misses_support(g, lo, hi)
    assert 0 < missing.sum() < len(fam)
    on_support = [s for s, miss in zip(fam, missing) if not miss]

    seen = {}

    def spy(owner, attr, called):
        inner = getattr(owner, attr)
        calls = seen.setdefault(attr, [])
        monkeypatch.setattr(owner, attr, lambda *a: calls.append(called(a)) or inner(*a))

    if kind.endswith("cylinder"):
        # a cylinder reaches the mask as the member object itself
        spy(dr, "cylinder_contains_batch", lambda a: id(a[1]))
        list(member_pass(g, fam, omega))
        assert seen["cylinder_contains_batch"] == [id(s) for s in on_support]
        return
    cut = ("trigonon", "rectangle", "admissible_rectangle")
    keys = [h2_member_key(s) for s in on_support]
    if kind in cut:
        # the block each on-support member's cells lie on: its columns (a
        # rectangle's strip |x - zx| < zy, and a rectangle with no column is
        # skipped) times its heights above the cut; it is summed once per
        # distinct block of its centre run, in family order
        xs, ys = g.axes
        blocks = []
        for (k, zx, zy, _, em, _), a, b in zip(keys, lo[~missing], hi[~missing]):
            c0, c1 = int(a[0]), int(b[0])
            r0 = max(int(ys.searchsorted(h2.cut_height(em, zy), side="right")), int(a[1]))
            if kind != "trigonon":
                strip = np.flatnonzero(np.abs(xs[c0:c1] - zx) < zy)
                if not strip.size:
                    continue
                c0, c1 = c0 + int(strip[0]), c0 + int(strip[-1]) + 1
            blocks.append(((k, zx, zy, int(a[0]), int(b[0])), (c0, c1, r0, int(b[1]), kind == "trigonon")))
        assert len(blocks) > len(on_support) // 2
        sums = [list(dict.fromkeys(b for _, b in run)) for _, run in itertools.groupby(blocks, key=lambda kb: kb[0])]
        # lattice radii whose cuts fall between the same heights share a sum
        assert sum(map(len, sums)) < len(blocks)
        blocks = [b for run in sums for b in run]
        spy(h2, "_numerator", lambda a: (a[1][0].start, a[1][0].stop, a[1][1].start, a[1][1].stop, a[2] is not None))
    spy(h2, "mask", lambda a: a)
    spy(h2, "centre_terms", lambda a: tuple(a[:3]))
    spy(h2, "radius_test", lambda a: h2_key((a[0], *a[2:7])))
    spy(h2, "cut_height", lambda a: (list(h2_key(a[0].tolist())), a[1].tolist()))
    list(member_pass(g, fam, omega))
    assert seen["mask"] == []
    # the centre terms run once per run, and only for runs of members that
    # meet the support
    assert seen["centre_terms"] == expected_runs(g, fam, ~missing)
    # the radius test runs for exactly the members that meet the support, in
    # family order; for trigona and rectangles it is the height cut, taken in
    # one call, after which the member's cells are a slice of its run's terms,
    # summed once per member in family order
    assert seen["cut_height"] == [([k[4] for k in keys], [k[2] for k in keys])]
    assert seen["radius_test"] == ([] if kind in cut else keys)
    if kind in cut:
        assert seen["_numerator"] == blocks


def adversarial_families(g):
    """Half-plane families whose centre runs are not one per lattice centre.
    Returns {case: list of H2Set}."""
    xs, ys = g.axes
    c = h2.HPoint(0.35, 1.1)
    d = h2.HPoint(-1.2, 0.6)
    edges = [h2.HPoint(-3.0, 1.0), h2.HPoint(3.0, 0.5), h2.HPoint(0.2, math.exp(1.5)), h2.HPoint(-0.7, math.exp(-1.5)),
             h2.HPoint(-3.4, 0.9), h2.HPoint(1.4, 7.0), h2.HPoint(0.5, 0.1)]
    low, top = h2.HPoint(1.3, 0.3), h2.HPoint(-1.0, float(ys[-1]) * math.e * 1.01)
    return {
        # one centre whose members come in two runs, with another centre between
        "split_centre": [h2.half_ball(c, 1.0), h2.half_ball(c, 2.0), h2.trigonon(c, 1.0), h2.half_ball(d, 1.5),
                         h2.half_ball(c, 1.5), h2.half_ball(c, 3.0), h2.trigonon(c, 2.0)],
        "radii_order": [h2.half_ball(c, R) for R in (3.0, 2.0, 2.0, 1.0, 0.4, 1.0, 3.0)]
        + [h2.trigonon(d, R) for R in (2.5, 2.5, 0.7, 1.9, 0.7)],
        "mixed_kinds": [h2.half_ball(c, 1.0), h2.trigonon(c, 1.0), h2.half_ball(c, 2.0), h2.ball(c, 1.0),
                        h2.ball(c, 1.0), h2.modified_half_ball(c, 1.5), h2.modified_half_ball(c, 1.0),
                        h2.rectangle(c, 2.0), h2.rectangle(c, 1.0), h2.trigonon(c, 2.0), h2.half_ball(c, 0.5),
                        h2.admissible_rectangle(0.35, 0, 3), h2.admissible_rectangle(0.35, 0, 2)],
        "runs_of_one": [h2.half_ball(h2.HPoint(float(x), float(y)), 1.2) if i % 2 else
                        h2.trigonon(h2.HPoint(float(x), float(y)), 1.2)
                        for i, (x, y) in enumerate(zip(xs[1::7], ys[::4]))],
        # heights e^{-R} zy above the top row (and one above the last row of
        # its block only), and a centre below the window
        "empty_suffix": [h2.trigonon(h2.HPoint(0.3, 20.0), 1.0), h2.trigonon(h2.HPoint(0.3, 20.0), 3.0),
                         h2.trigonon(h2.HPoint(-1.0, float(ys[-1]) * math.e * 1.01), 1.0),
                         h2.trigonon(h2.HPoint(-1.0, float(ys[-1]) * math.e * 1.01), 4.0),
                         h2.trigonon(h2.HPoint(1.1, 0.15), 0.5)],
        "window_edge": [kind(z, R) for z in edges for kind in (h2.half_ball, h2.trigonon, h2.ball) for R in (0.6, 2.2)],
        # trigonon and rectangle runs with duplicate members (equal averages),
        # shuffled and descending radii, radii 1.0 and 1.02 whose cuts fall
        # between the same heights, cuts below the window (one block for
        # every radius at d and at low), and cuts above the window's top row
        "cut_ties": [h2.trigonon(c, R) for R in (2.0, 1.0, 2.0, 0.7, 3.0, 1.0, 1.02)]
        + [h2.trigonon(d, R) for R in (3.0, 2.0, 1.5, 1.0, 0.5)]
        + [h2.trigonon(low, R) for R in (3.0, 2.0, 4.0)]
        + [h2.trigonon(top, R) for R in (1.0, 4.0)]
        + [h2.rectangle(c, R) for R in (2.0, 0.5, 2.0, 3.0, 1.0)]
        + [h2.rectangle(top, R) for R in (1.0, 4.0)],
    }


def test_adversarial_families_reach_their_cases():
    g = h2_grid()
    fams = adversarial_families(g)
    ys = g.axes[1]

    def runs(fam):
        return expected_runs(g, fam, np.ones(len(fam), dtype=bool))

    # c's half balls form two runs, with d's and a trigonon between them
    assert runs(fams["split_centre"]).count((h2.SetKind.HALF_BALL, 0.35, 1.1)) == 2
    assert len(runs(fams["runs_of_one"])) == len(fams["runs_of_one"])
    fam = fams["empty_suffix"]
    lo, hi = ms.member_blocks(g, fam)
    top = np.array([ys.searchsorted(math.exp(-s.radius) * s.center.y, side="right") for s in fam])
    # some trigona meet the window with a block but hold no row above their cut
    assert ((top >= hi[:, 1]) & (lo[:, 1] < hi[:, 1])).sum() >= 2
    # cuts below the window's first height and above its last
    cut = np.array([math.exp(-s.radius) * s.center.y for s in fams["cut_ties"]])
    assert (cut < ys[0]).sum() >= 6 and (cut > ys[-1]).sum() == 2


@pytest.mark.parametrize("support", ["full", "ball"])
@pytest.mark.parametrize("case", ["split_centre", "radii_order", "mixed_kinds", "runs_of_one", "empty_suffix",
                                  "window_edge", "cut_ties"])
def test_centre_runs_match_full_grid_on_adversarial_families(case, support):
    g = h2_grid()
    if support == "ball":
        g.values = small_support_values(g, "ball")
    fam = adversarial_families(g)[case]
    fld = mx.maximal_field(g, fam)
    values, widx = full_maximal_field(g, fam)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)
    assert fld.members is fam
    assert mx.member_averages(g, fam).tolist() == full_averages(g, fam)


@pytest.mark.parametrize("support", ["full", "ball"])
def test_cut_runs_sum_each_row_range_once_and_paint_disjoint_regions(support, monkeypatch):
    g = h2_grid()
    if support == "ball":
        g.values = small_support_values(g, "ball")
    fam = adversarial_families(g)["cut_ties"]
    calls = []
    numerator = h2._numerator
    monkeypatch.setattr(h2, "_numerator", lambda *a: calls.append(a[1]) or numerator(*a))
    yields = list(member_pass(g, fam))
    assert len(calls) < len(fam)
    # a member beaten on all of its rows paints nothing (members 0 and 2 are
    # equal, and the first wins), one beaten on its upper rows paints its
    # lower ones
    lo, hi = ms.member_blocks(g, fam)
    regions = {idx: block for idx, block, _, _ in yields}
    assert fam[0] == fam[2] and regions[0] is not None and regions[2] is None
    assert any(block is not None and block[1].stop < hi[idx, 1] for idx, block, _, _ in yields)
    # each cell of a run is painted by one member at most
    painted = {}
    for idx, block, mask, _ in yields:
        if block is None:
            continue
        s = fam[idx]
        count = painted.setdefault((s.kind, s.center.x, s.center.y, int(lo[idx, 0]), int(hi[idx, 0])),
                                   np.zeros(g.shape, dtype=np.int64))
        count[block] += True if mask is None else mask
    assert len(painted) >= 4
    assert all(count.max() == 1 for count in painted.values())


# a pool of centres with repeats, window edges and points beyond the window
RUN_CENTRES = [(0.35, 1.1), (-1.2, 0.6), (-3.0, 1.0), (3.0, math.exp(-1.5)), (0.2, 6.0), (-3.5, 0.3), (1.0, 0.12)]


def h2_members():
    def build(kind, centre, R, j):
        x, y = centre
        if kind == "admissible_rectangle":
            return h2.admissible_rectangle(x, j, int(R) + 2)
        if kind == "modified_half_ball":
            R = max(R, 1.0)
        return h2.H2Set(h2.SetKind(kind), h2.HPoint(x, y), R)

    radii = st.sampled_from([0.4, 1.0, 1.0, 1.7, 2.5, 3.0])
    return st.builds(build, st.sampled_from(H2_KINDS), st.sampled_from(RUN_CENTRES), radii, st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(h2_members(), min_size=1, max_size=24), st.booleans())
def test_centre_runs_match_full_grid_on_drawn_families(fam, small_support):
    g = h2_grid()
    if small_support:
        g.values = small_support_values(g, "ball")
    fld = mx.maximal_field(g, fam)
    values, widx = full_maximal_field(g, fam)
    assert np.array_equal(fld.values, values)
    assert np.array_equal(fld.witness_idx, widx)
    assert mx.member_averages(g, fam).tolist() == full_averages(g, fam)


@pytest.mark.parametrize("case", ["lattice", "split_centre", "mixed_kinds", "runs_of_one"])
def test_centre_terms_run_once_per_run(case, monkeypatch):
    g = h2_grid()
    if case == "lattice":
        fam = list(mx.h2_lattice("half_ball", mx.grid_centers(g, 4), mx.radius_ladder(1.0, 4)))
        fam += list(mx.h2_lattice("trigonon", mx.grid_centers(g, 4), mx.radius_ladder(1.0, 4)))
    else:
        fam = adversarial_families(g)[case]
    calls = []
    terms = h2.centre_terms
    monkeypatch.setattr(h2, "centre_terms", lambda *a: calls.append(tuple(a[:3])) or terms(*a))
    mx.member_averages(g, fam)
    # f is nonzero on every cell, so every member in the window meets supp f
    want = expected_runs(g, fam, np.ones(len(fam), dtype=bool))
    assert calls == want
    if case == "lattice":
        # one run per centre and kind: the lattice's four radii share it
        assert len(calls) == 2 * len(mx.grid_centers(g, 4)) < len(fam)


def span_oracle(centres, lo, hi):
    """The block of one axis, as computed member by member before blocks
    came in one pass."""
    i0 = int(centres.searchsorted(lo, side="right")) - 1
    i1 = int(centres.searchsorted(hi, side="left")) + 1
    return slice(max(i0, 0), min(i1, centres.size))


@pytest.mark.parametrize("kind", H2_KINDS + ["admissible_cylinder", "cylinder"])
def test_member_blocks_rows_match_membership_mask(kind):
    if kind.endswith("cylinder"):
        g = na_grid()
        fam = cylinder_family(kind)
        boxes = []
        for s in fam:
            (b_lo,), (b_hi,) = dr.base_ball_box_batch(dr.CylFamily(g.alg, [s]))
            boxes.append((list(b_lo) + [s.base_height], list(b_hi) + [math.inf]))
    else:
        g = h2_grid()
        fam = h2_family(g, kind)
        boxes = [(h2.bounding_box(s)[0::2], h2.bounding_box(s)[1::2]) for s in fam]
    lo, hi = ms.member_blocks(g, fam)
    assert lo.shape == hi.shape == (len(fam), len(g.shape))
    for i, (s, (b_lo, b_hi)) in enumerate(zip(fam, boxes)):
        block, mask = ms.membership_mask(g, s)
        assert block == tuple(slice(int(a), int(b)) for a, b in zip(lo[i], hi[i]))
        assert block == tuple(span_oracle(ax, l, h) for ax, l, h in zip(g.axes, b_lo, b_hi))
        assert mask.shape == g.values.reshape(g.shape)[block].shape
    # an empty family has no rows
    empty_lo, empty_hi = ms.member_blocks(g, [])
    assert empty_lo.shape == empty_hi.shape == (0, len(g.shape))


def test_member_blocks_reject_foreign_descriptors():
    fam = cylinder_family("cylinder")
    with pytest.raises(ValueError):
        ms.member_blocks(h2_grid(), fam[:1])
    with pytest.raises(ValueError):
        ms.member_blocks(na_grid(), [h2.half_ball(h2.HPoint(0.0, 1.0), 1.0)])
    with pytest.raises(TypeError):
        ms.member_blocks(na_grid(), [fam[0], "cylinder"])
    # every operator refuses them with the error of member_blocks, with or
    # without omega, before it asks for omega
    hb = h2.half_ball(h2.HPoint(0.0, 1.0), 1.0)
    h2_point, na_point = h2.HPoint(0.3, 0.9), ht.spoint(HEI1, [0.2, -0.4], [0.5], 1.0)
    cases = [(h2_grid(), h2_point, members) for members in (fam[:1], dr.CylFamily(HEI1, fam), ["x"], [hb, "x"])]
    cases += [(na_grid(), na_point, members) for members in ([hb], h2.H2Family.of([hb]), [fam[0], "cylinder"])]
    for g, x, members in cases:
        with pytest.raises((ValueError, TypeError)) as want:
            ms.member_blocks(g, members)
        for omega in (None, OMEGA_HEI1):
            for op in (lambda: mx.maximal_field(g, members, omega=omega),
                       lambda: mx.member_averages(g, members, omega=omega),
                       lambda: mx.maximal_fn(g, x, members, omega=omega),
                       lambda: mx.level_set_table(g, members, [0.5], omega=omega)):
                with pytest.raises(want.type) as got:
                    op()
                assert str(got.value) == str(want.value)
    # an iterator of members is refused, not read as an empty family
    for op in (lambda m: mx.maximal_field(h2_grid(), m), lambda m: mx.maximal_fn(h2_grid(), h2_point, m),
               lambda m: mx.level_set_table(h2_grid(), m, [0.5]), lambda m: ms.member_blocks(h2_grid(), m)):
        with pytest.raises(TypeError):
            op(iter([hb]))
    # and maximal_fn refuses a point of the other space, naming the grid's
    for point in (na_point, NPoint(np.zeros(2), np.zeros(1))):
        with pytest.raises(ValueError, match="h2 grid"):
            mx.maximal_fn(h2_grid(), point, [hb])
    with pytest.raises(ValueError, match="na grid"):
        mx.maximal_fn(na_grid(), h2_point, fam, omega=OMEGA_HEI1)


# ------------------------------------------------------- the split member pass

def serial_field(g, fam, omega=None):
    """The member pass painted in one go, as one chunk paints it."""
    values, widx = np.zeros(g.shape), np.full(g.shape, -1, dtype=np.int64)
    mx._paint(member_pass(g, fam, omega), values, widx)
    return values, widx


def serial_averages(g, fam, omega=None):
    out = np.zeros(len(fam))
    for idx, _, _, avg in member_pass(g, fam, omega):
        out[idx] = avg
    return out


def split_case(case):
    """(grid, members, omega) of a case of the split tests: an h2 kind's
    lattice or a cylinder family followed by its own copy (so every member
    of the copy ties an earlier one), or an adversarial family."""
    if case in H2_KINDS:
        g = h2_grid()
        return g, list(h2_family(g, case)) * 2, None
    if case.endswith("cylinder"):
        return na_grid(), cylinder_family(case) * 2, OMEGA_HEI1
    g = h2_grid()
    return g, adversarial_families(g)[case], None


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def children() -> set:
    """The pids of this process's children, from the parent pid of every
    process in /proc."""
    out = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process left
            continue
        if int(fields[1]) == os.getpid():
            out.add(int(stat.parent.name))
    return out


def assert_only_workers(n):
    """The pool holds n workers, and they are this process's only children."""
    assert len(mx._pool) == n
    assert children() == {w.pid for w in mx._pool}


@pytest.fixture
def no_pool():
    """A test that counts forks or patches what a worker runs starts with no
    pool, so its workers are forked after its patches; it leaves none."""
    mx._close_pool()
    yield
    mx._close_pool()


def in_chunks(monkeypatch, chunks, op, *args):
    """op(*args) with every member pass forced into ``chunks`` chunks,
    whatever its size."""
    with monkeypatch.context() as m:
        m.setattr(mx, "_chunk_count", lambda cells: chunks)
        return op(*args)


def counted_forks(monkeypatch, fails=()):
    """Count the calls of ``os.fork``; the calls numbered in ``fails`` (from
    1) raise as a fork does when processes run out.  Returns the list of
    calls, which the caller may clear."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        if len(calls) in fails:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def assert_same_pass(monkeypatch, chunks, g, fam, omega=None):
    """The field and the table of a pass forced into ``chunks`` chunks equal
    the one-chunk pass's, byte for byte."""
    for op in (mx.maximal_field, mx.member_averages):
        want, got = (in_chunks(monkeypatch, n, op, g, fam, omega) for n in (1, chunks))
        if op is mx.maximal_field:
            assert got.values.tobytes() == want.values.tobytes()
            assert got.witness_idx.tobytes() == want.witness_idx.tobytes()
        else:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunks", [2, 3])
@pytest.mark.parametrize("case", H2_KINDS + ["admissible_cylinder", "cylinder", "split_centre", "radii_order",
                                             "mixed_kinds", "runs_of_one", "empty_suffix", "window_edge", "cut_ties"])
def test_split_pass_is_bit_identical_to_the_serial_pass(case, chunks, monkeypatch, no_pool):
    g, fam, omega = split_case(case)
    want_values, want_widx = serial_field(g, fam, omega)
    want_avg = serial_averages(g, fam, omega)
    assert (want_widx >= 0).any()
    forks = counted_forks(monkeypatch)
    # below the split size the operators run one chunk, with no fork
    assert mx.maximal_field(g, fam, omega).values.tobytes() == want_values.reshape(-1).tobytes()
    assert mx.member_averages(g, fam, omega).tobytes() == want_avg.tobytes()
    assert forks == []
    # the first pass in n chunks forks n - 1 workers, and the next reuses them
    fld = in_chunks(monkeypatch, chunks, mx.maximal_field, g, fam, omega)
    assert fld.values.tobytes() == want_values.reshape(-1).tobytes()
    assert fld.witness_idx.tobytes() == want_widx.reshape(-1).tobytes()
    avg = in_chunks(monkeypatch, chunks, mx.member_averages, g, fam, omega)
    assert avg.tobytes() == want_avg.tobytes()
    assert len(forks) == chunks - 1
    assert_only_workers(chunks - 1)
    mx._close_pool()
    assert_no_child()
    if case == "cut_ties" and chunks == 3:
        # a chunk boundary falls between two members of one centre run
        sub, _, rows, lo, hi = mx._pass_inputs(g, fam)
        keys = [(sub[int(r)].kind, sub[int(r)].center, int(a), int(b)) for r, a, b in zip(rows, lo[:, 0], hi[:, 0])]
        cuts = mx._cuts(np.prod(hi - lo, axis=1), chunks)[1:-1]
        assert any(keys[k - 1] == keys[k] for k in cuts)


@pytest.mark.parametrize("fails", [{1}, {2}, {1, 2}])
@pytest.mark.parametrize("case", ["half_ball", "cylinder", "cut_ties"])
def test_a_chunk_that_cannot_fork_runs_in_the_caller(case, fails, monkeypatch, no_pool):
    g, fam, omega = split_case(case)
    want = in_chunks(monkeypatch, 1, mx.maximal_field, g, fam, omega)
    want_avg = in_chunks(monkeypatch, 1, mx.member_averages, g, fam, omega)
    forks = counted_forks(monkeypatch, fails)
    # each of chunks 1 and 2 tries a fork; a chunk whose fork raised runs here
    fld = in_chunks(monkeypatch, 3, mx.maximal_field, g, fam, omega)
    assert len(forks) == 2
    assert_only_workers(2 - len(fails))
    # the next pass forks only the workers the pool lacks
    avg = in_chunks(monkeypatch, 3, mx.member_averages, g, fam, omega)
    assert len(forks) == 2 + len(fails)
    assert_only_workers(2)
    assert fld.values.tobytes() == want.values.tobytes()
    assert fld.witness_idx.tobytes() == want.witness_idx.tobytes()
    assert avg.tobytes() == want_avg.tobytes()
    mx._close_pool()
    assert_no_child()


def large_h2_case():
    """An h2-field request's grid and half-ball lattice: enough block cells
    for the operators to split the pass wherever more than one CPU is
    usable."""
    g = ms.build_grid("h2", (-4.0, 4.0, -2.0, 2.0), (256, 128))
    g.set_values(lambda x, y: h2.contains_mask(h2.ball(h2.HPoint(0.4, 1.2), 1.1), x, y).astype(float))
    return g, mx.h2_lattice("half_ball", mx.grid_centers(g, 24), mx.radius_ladder(1.0, 4))


def test_split_operators_reap_every_worker(monkeypatch, no_pool):
    g, fam = large_h2_case()
    _, _, _, lo, hi = mx._pass_inputs(g, fam)
    chunks = mx._chunk_count(int(np.prod(hi - lo, axis=1).sum()))
    assert chunks > 1 or len(os.sched_getaffinity(0)) == 1
    forks = counted_forks(monkeypatch)
    fld = mx.maximal_field(g, fam)
    assert_only_workers(chunks - 1)
    avg = mx.member_averages(g, fam)
    assert_only_workers(chunks - 1)
    assert len(forks) == chunks - 1
    values, widx = serial_field(g, fam)
    assert fld.values.tobytes() == values.reshape(-1).tobytes()
    assert fld.witness_idx.tobytes() == widx.reshape(-1).tobytes()
    assert avg.tobytes() == serial_averages(g, fam).tobytes()
    # closing the pool reaps every worker
    mx._close_pool()
    assert_no_child()


def test_consecutive_split_passes_run_in_one_pool(monkeypatch, no_pool):
    big, half_balls = large_h2_case()
    small, trigona = h2_grid(), h2_family(h2_grid(), "trigonon")
    forks = counted_forks(monkeypatch)
    for g, fam, omega in ((big, half_balls, None), split_case("cylinder"), (small, trigona, None)):
        want = in_chunks(monkeypatch, 1, mx.maximal_field, g, fam, omega)
        got = in_chunks(monkeypatch, 3, mx.maximal_field, g, fam, omega)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.witness_idx.tobytes() == want.witness_idx.tobytes()
    want = in_chunks(monkeypatch, 1, mx.member_averages, big, half_balls)
    assert in_chunks(monkeypatch, 3, mx.member_averages, big, half_balls).tobytes() == want.tobytes()
    # two workers, forked by the first pass, ran every later one
    assert len(forks) == 2
    assert_only_workers(2)


def test_a_failing_chunk_raises_in_the_caller_and_every_worker_is_reaped(monkeypatch, no_pool):
    g = h2_grid()
    fam = h2_family(g, "half_ball")
    caller = os.getpid()
    numerator = h2._numerator

    def fail(where, exc=ZeroDivisionError):
        def spy(*a):
            if (os.getpid() == caller) == (where == "caller"):
                raise exc(f"in the {where}")
            return numerator(*a)
        return spy

    # the workers are forked after the patch, so they run it
    monkeypatch.setattr(h2, "_numerator", fail("worker"))
    for op in (mx.maximal_field, mx.member_averages):
        with pytest.raises(RuntimeError, match="member-pass worker failed: ZeroDivisionError: in the worker") as exc:
            in_chunks(monkeypatch, 3, op, g, fam)
        # the worker sends its traceback with its exception
        assert "Traceback (most recent call last)" in str(exc.value)
        assert mx._pool == []
        assert_no_child()
    # chunk 0 raising, or Ctrl-C in the caller, while the workers run theirs
    for exc in (ZeroDivisionError, KeyboardInterrupt):
        monkeypatch.setattr(h2, "_numerator", fail("caller", exc))
        with pytest.raises(exc, match="in the caller"):
            in_chunks(monkeypatch, 3, mx.maximal_field, g, fam)
        assert mx._pool == []
        assert_no_child()
    # the pass after a failed one forks a new pool and reads no stale result
    monkeypatch.setattr(h2, "_numerator", numerator)
    assert_same_pass(monkeypatch, 3, g, fam)
    assert_only_workers(2)


def test_a_killed_worker_fails_the_next_pass_only(monkeypatch, no_pool):
    g, fam, _ = split_case("cut_ties")
    assert_same_pass(monkeypatch, 3, g, fam)
    # Ctrl-C reaches the caller alone: a worker ignores SIGINT
    workers = list(mx._pool)
    for w in workers:
        os.kill(w.pid, signal.SIGINT)
    assert_same_pass(monkeypatch, 3, g, fam)
    assert mx._pool == workers
    pid = mx._pool[1].pid
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    with pytest.raises(RuntimeError, match="member-pass worker died"):
        in_chunks(monkeypatch, 3, mx.maximal_field, g, fam)
    assert mx._pool == []
    assert_no_child()
    assert_same_pass(monkeypatch, 3, g, fam)
    assert_only_workers(2)


def test_threads_take_turns_on_the_pool(monkeypatch, no_pool):
    g, fam, _ = split_case("cut_ties")
    want = in_chunks(monkeypatch, 1, mx.maximal_field, g, fam)
    # the pool is forked before the threads start, so no thread forks
    assert_same_pass(monkeypatch, 3, g, fam)
    monkeypatch.setattr(mx, "_chunk_count", lambda cells: 3)
    results = []

    def passes():
        for _ in range(5):
            results.append(mx.maximal_field(g, fam))

    threads = [threading.Thread(target=passes) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 20
    for got in results:
        assert got.values.tobytes() == want.values.tobytes()
        assert got.witness_idx.tobytes() == want.witness_idx.tobytes()
    assert_only_workers(2)


def test_a_forked_child_drops_the_pool_and_forks_its_own(monkeypatch, no_pool):
    g, fam, _ = split_case("cut_ties")
    assert_same_pass(monkeypatch, 3, g, fam)
    workers = list(mx._pool)
    pid = os.fork()
    if pid == 0:
        try:
            # the parent's workers are gone from the child's pool, and a
            # split pass in the child forks two of its own
            assert mx._pool == [] and children() == set()
            assert_same_pass(monkeypatch, 3, g, fam)
            assert_only_workers(2)
            mx._close_pool()
            os._exit(0)
        finally:
            os._exit(1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    # the parent's pool is untouched
    assert mx._pool == workers
    assert_same_pass(monkeypatch, 3, g, fam)
    assert mx._pool == workers


SRC = Path(__file__).resolve().parent.parent / "src"
SPLIT_CHILD = """
import os, signal, sys
from hypmax import hyp2 as h2, maxop as mx, measure as ms
g = ms.build_grid("h2", (-3.0, 3.0, -1.5, 1.5), (40, 24))
g.set_values(lambda x, y: h2.contains_mask(h2.ball(h2.HPoint(0.4, 1.3), 0.9), x, y).astype(float))
mx._chunk_count = lambda cells: 3
mx.maximal_field(g, mx.h2_lattice("half_ball", mx.grid_centers(g, 8), mx.radius_ladder(1.0, 4)))
print(*(w.pid for w in mx._pool), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def running(pid) -> bool:
    """The process exists and has not exited (a zombie has)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] not in "ZX"
    except OSError:
        return False


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_no_worker_outlives_its_caller(how):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SPLIT_CHILD, how], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == (0 if how == "exit" else -signal.SIGKILL), proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 2
    if how == "exit":
        # the caller's exit reaped its workers
        assert not any(map(running, pids))
    else:
        # a caller killed by a signal closes its task pipes, and each
        # worker leaves at their end
        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))


def test_split_pass_raises_the_serial_errors_before_any_fork(monkeypatch, no_pool):
    # the refusals of test_member_blocks_reject_foreign_descriptors, each
    # after a family of its grid large enough to split, with and without
    # omega, and a large cylinder family without omega
    g, big = large_h2_case()
    na = na_grid()
    cyl = cylinder_family("cylinder")
    many = cyl * 64
    for grid, fam in ((g, big), (na, many)):
        _, _, _, lo, hi = mx._pass_inputs(grid, fam)
        assert int(np.prod(hi - lo, axis=1).sum()) >= 2 * mx._CHUNK_CELLS
    hb = h2.half_ball(h2.HPoint(0.0, 1.0), 1.0)
    cases = [(g, list(big) + tail) for tail in (cyl[:1], ["x"], [hb, "x"])] + [(g, dr.CylFamily(HEI1, many))]
    cases += [(na, many + tail) for tail in ([hb], [cyl[0], "cylinder"])] + [(na, big)]
    cases = [(grid, members, omega) for grid, members in cases for omega in (None, OMEGA_HEI1)]
    cases += [(na, many, None), (na, dr.CylFamily(HEI1, many), None)]

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for grid, members, omega in cases:
        with pytest.raises((ValueError, TypeError)) as want:
            list(member_pass(grid, members, omega))
        for op in (lambda: mx.maximal_field(grid, members, omega=omega),
                   lambda: mx.member_averages(grid, members, omega=omega),
                   lambda: mx.level_set_table(grid, members, [0.5], omega=omega),
                   lambda: in_chunks(monkeypatch, 2, mx.maximal_field, grid, members, omega),
                   lambda: in_chunks(monkeypatch, 3, mx.member_averages, grid, members, omega)):
            with pytest.raises(want.type) as got:
                op()
            assert str(got.value) == str(want.value)
    assert_no_child()


def materialised_block_mask(g, s, block):
    """The membership of a block's points written out: every point of the
    block as one row (meshgrid over all its axes), tested through
    ``cylinder_contains_batch`` on the rows, reshaped to the block."""
    pts = np.meshgrid(*(ax[sl] for ax, sl in zip(g.axes, block)), indexing="ij")
    rows = np.stack([q.ravel() for q in pts], axis=1)
    X, Z, a = rows[:, : g.alg.p], rows[:, g.alg.p : -1], rows[:, -1]
    return dr.cylinder_contains_batch(g.alg, s, X.T, Z.T, a).reshape(pts[0].shape)


def property_grid(alg, n):
    return ms.build_grid("na", ([(-2.0, 2.0)] * alg.p, [(-3.0, 3.0)] * alg.q, (-3.0, 2.0)), ([n] * alg.p, [n + 1] * alg.q, n + 2), alg=alg)


PROPERTY_GRIDS = [property_grid(AB2, 6), property_grid(HEI1, 5), property_grid(HEI2, 4), property_grid(ht.heisenberg(3), 3)]


def axis_slices(n):
    """Slices of an axis of n cells: empty, one cell, clipped by the
    window's far edge, or any (start past stop included)."""
    i = st.integers(0, n)
    return st.one_of(
        i.map(lambda k: slice(k, k)),
        st.integers(0, n - 1).map(lambda k: slice(k, k + 1)),
        st.tuples(i, st.integers(1, 3)).map(lambda t: slice(t[0], n + t[1])),
        st.tuples(i, i).map(lambda t: slice(*t)),
    )


def drawn_cylinders(alg):
    """Both kinds of cylinder, with centres inside, on the edge of and
    beyond the property grid's window."""
    coords = lambda k, w: st.lists(st.floats(-w, w, allow_subnormal=False), min_size=k, max_size=k)
    centre = st.builds(lambda X, Z: NPoint(np.array(X, dtype=float), np.array(Z, dtype=float)), coords(alg.p, 3.0), coords(alg.q, 4.0))
    return st.one_of(
        st.builds(dr.Cylinder, centre, st.floats(0.02, 6.0), st.floats(1.01, 5.0)),
        st.builds(dr.AdmissibleCylinder, centre, st.integers(-3, 2), st.integers(2, 5)),
    )


@pytest.mark.parametrize("g", PROPERTY_GRIDS, ids=lambda g: g.alg.label)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_mask_matches_materialised_points(g, data):
    """The block mask, formed on the block's axes, has the bits of the
    test on the block's points written out row by row: on drawn blocks and
    on the member's own block, with ``cylinder_contains_batch`` called once
    per block."""
    s = data.draw(drawn_cylinders(g.alg), label="cylinder")
    if data.draw(st.booleans(), label="member block"):
        block, _ = ms.membership_mask(g, s)
    else:
        block = tuple(data.draw(axis_slices(n), label=f"axis {k}") for k, n in enumerate(g.shape))
    got = dr.CylFamily(g.alg, [s]).block_mask(0, g, block)
    want = materialised_block_mask(g, s, block)
    assert got.shape == want.shape == g.values.reshape(g.shape)[block].shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("g", PROPERTY_GRIDS, ids=lambda g: g.alg.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cylinder_contains_batch_with_one_dimensional_heights_matches_the_block_form(g, data):
    """Heights passed as a block's 1-D last axis give the verdict of the
    same heights broadcast to the block's shape, and of the two tests
    written out on the whole block.  Each horizontal axis also holds the
    cylinder's centre coordinate, so the block meets the base ball, and
    the heights include the base height and its neighbours, where the
    strict height test decides."""
    s = data.draw(drawn_cylinders(g.alg), label="cylinder")
    block = tuple(data.draw(axis_slices(n), label=f"axis {k}") for k, n in enumerate(g.shape[:-1]))
    centre = np.concatenate([s.n0.X, s.n0.Z])
    horiz = [np.append(ax[sl], c) for ax, sl, c in zip(g.axes, block, centre)]
    h = s.base_height
    a = np.concatenate([g.axes[-1], [np.nextafter(h, 0.0), h, np.nextafter(h, np.inf)]])
    d = len(g.shape)
    cols = [ax.reshape([-1 if i == k else 1 for i in range(d)]) for k, ax in enumerate(horiz)]
    X, Z = cols[: g.alg.p], cols[g.alg.p :]
    shape = tuple(ax.size for ax in horiz) + a.shape
    got = dr.cylinder_contains_batch(g.alg, s, X, Z, a)
    assert got.shape == shape
    assert np.array_equal(got, dr.cylinder_contains_batch(g.alg, s, X, Z, np.broadcast_to(a, shape)))
    written_out = (ht.dist_n_cols(g.alg, s.n0, X, Z) < s.base_radius) & (np.broadcast_to(a, shape) > h)
    assert np.array_equal(got, written_out)


def test_overlap_profile_matches_full_grid():
    fam = ex.stacked_chain(HEI1, 6)
    grid = ms.build_grid(
        "na",
        ([(-3.4, 3.4), (-3.4, 3.4)], [(-3.3, 3.3)], (-6.5, 2.0)),
        ([12, 12], [16], 36),
        alg=HEI1,
    )
    prof = ex.overlap_profile(fam, grid)
    assert (prof.omega_k, prof.g_measure) == full_overlap(fam, grid)


def test_overlap_profile_heisenberg2_matches_full_grid():
    rng = np.random.default_rng(11)
    fam = ex.build_maximal_family(HEI2, ex.random_admissible_cylinders(HEI2, 20, rng), seed=11)
    grid = ms.build_grid("na", ([(-8.0, 8.0)] * 4, [(-8.0, 8.0)], (-9.0, 3.0)), ([5] * 4, [6], 12), alg=HEI2)
    prof = ex.overlap_profile(fam, grid)
    assert (prof.omega_k, prof.g_measure) == full_overlap(fam, grid)


def test_overlap_profile_counts_past_255_members_match_full_grid():
    # 300 cylinders about nearby centres, all holding the cells just above
    # the identity, so the tallies need more than 8 bits
    cyls = [dr.Cylinder(NPoint(np.array([0.001 * k, 0.0]), np.array([0.0])), 1.0 + 0.01 * k, 2.0) for k in range(300)]
    fam = dr.CylFamily(HEI1, cyls)
    grid = ms.build_grid("na", ([(-1.5, 1.5)] * 2, [(-1.5, 1.5)], (-3.0, 1.5)), ([4, 4], [5], 6), alg=HEI1)
    prof = ex.overlap_profile(fam, grid)
    assert prof.omega_k[-1][0] > 255 and prof.omega_k[-1][1] > 0
    assert (prof.omega_k, prof.g_measure) == full_overlap(fam, grid)


# ------------------------------------------------------------- Monte Carlo

@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_union_measure_matches_unsorted_loop(alg):
    rng = np.random.default_rng(2)
    fam = ex.random_horocycle_family(alg, 200, -2, rng)
    got = ex._union_base_measure(dr.CylFamily(alg, fam), 20_000, 9)
    assert got == unsorted_union_measure(alg, fam, 20_000, 9)
    assert got[0] > 0


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_union_measure_skips_covered_samples(alg, monkeypatch):
    """One large base holds the bases of many small members, some members
    come twice (the same object, or a copy), and a few lie apart: most
    members find no uncovered sample in their box, and the sample columns
    are compacted after each radius."""
    rng = np.random.default_rng(5)
    big = dr.AdmissibleCylinder(NPoint(np.zeros(alg.p), np.zeros(alg.q)), 4, 6)
    small = ex.random_horocycle_family(alg, 60, -2, rng, r_lo=2, r_hi=3, spread=1.0)
    apart = ex.random_horocycle_family(alg, 10, -2, rng, r_lo=2, r_hi=4, spread=40.0)
    copies = [dr.AdmissibleCylinder(NPoint(c.n0.X.copy(), c.n0.Z.copy()), c.j, c.R) for c in small[:10]]
    fam = small[:30] + [big] + small[30:] + small[:5] + copies + apart + [big]
    calls = []
    translate = ht.left_translate_cols
    monkeypatch.setattr(ht, "left_translate_cols", lambda *a: calls.append(1) or translate(*a))
    got = ex._union_base_measure(dr.CylFamily(alg, fam), 20_000, 4)
    assert len(calls) < len(fam) // 2
    monkeypatch.undo()
    assert got == unsorted_union_measure(alg, fam, 20_000, 4)
    assert got[0] > 0


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_union_measure_one_radius_matches_unsorted_loop(alg):
    rng = np.random.default_rng(6)
    fam = ex.random_horocycle_family(alg, 150, -2, rng, r_lo=3, r_hi=3)
    got = ex._union_base_measure(dr.CylFamily(alg, fam), 20_000, 8)
    assert got == unsorted_union_measure(alg, fam, 20_000, 8)
    assert got[0] > 0


def test_union_measure_at_the_vitali_benchmark_shape_matches_unsorted_loop():
    """1,000 dr-heisenberg:1 bases on one horocycle with 50,000 samples, as
    a Vitali request of the benchmark draws them: certification leaves one
    radius group, whose balls gather their candidates from the columns."""
    rng = np.random.default_rng(16)
    fam = ex.random_horocycle_family(HEI1, 1000, -2, rng)
    r = dr.CylFamily(HEI1, fam).base_radius
    assert len({float(v) for v, inside in zip(r, contained_mask(HEI1, fam)) if not inside}) == 1
    got = ex._union_base_measure(dr.CylFamily(HEI1, fam), 50_000, 17)
    assert got == unsorted_union_measure(HEI1, fam, 50_000, 17)
    assert got[0] > 0


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_batched_disjointness_matches_dist_n(alg):
    """One left translation and gauge per candidate give every pairwise
    ``dist_n`` bit for bit, and with it the per-pair disjointness test."""
    rng = np.random.default_rng(8)
    for scale in (1e-3, 1.0, 1e3):
        fam = ex.random_horocycle_family(alg, 40, -2, rng, r_lo=2, r_hi=6, spread=scale)
        cols = dr.CylFamily(alg, fam)
        for c in fam:
            dist = [ht.dist_n(alg, c.n0, s.n0) for s in fam]
            assert np.array_equal(ht.dist_n_cols(alg, c.n0, cols.n0.X.T, cols.n0.Z.T), dist)
            per_pair = [d >= c.base_radius + s.base_radius for d, s in zip(dist, fam)]
            assert list(ex._disjoint_from(c, cols)) == per_pair


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
@pytest.mark.parametrize("spread", [40.0, 100.0, 1e3])
def test_greedy_matches_per_candidate_oracle(alg, spread, monkeypatch):
    """One translation per kept base, against all later live candidates,
    keeps the members the one-candidate-at-a-time loop keeps, in its order."""
    rng = np.random.default_rng(13)
    fam = ex.random_horocycle_family(alg, 300, -2, rng, spread=spread)
    fam += fam[:5] + [dr.AdmissibleCylinder(NPoint(c.n0.X.copy(), c.n0.Z.copy()), c.j, c.R) for c in fam[5:10]]
    calls = []
    translate = ht.left_translate_cols
    monkeypatch.setattr(ht, "left_translate_cols", lambda *a: calls.append(1) or translate(*a))
    kept = ex._greedy_disjoint(dr.CylFamily(alg, fam))
    monkeypatch.undo()
    assert [id(c) for c in kept] == [id(c) for c in per_candidate_greedy(alg, fam)]
    assert 1 < len(kept) < len(fam)
    assert len(calls) <= len(kept)


def test_union_measure_tests_no_sample_after_its_hit(monkeypatch):
    """Five radius groups of overlapping bases on dr-heisenberg:2: the union
    matches the unsorted loop, and no sample is translated again once a
    base holds it, neither later in its radius group (the outside flags)
    nor in a later group (the compaction)."""
    rng = np.random.default_rng(12)
    fam = ex.random_horocycle_family(HEI2, 150, -2, rng, spread=2.0)
    assert len({c.base_radius for c in fam}) == 5
    radius = {tuple(-c.n0.X) + tuple(-c.n0.Z): c.base_radius for c in fam}
    held, again = set(), []
    translate = ht.left_translate_cols

    def spy(alg, n0, X, Z):
        out = translate(alg, n0, X, Z)
        if n0.X.ndim == 2:
            return out  # one centre per row: the containment certificate, not a sample test
        keys = [tuple(row) for row in np.vstack([X, Z]).T]
        again.extend(k for k in keys if k in held)
        hit = ht.gauge_cols(*out) < radius[tuple(n0.X) + tuple(n0.Z)]
        held.update(k for k, h in zip(keys, hit) if h)
        return out

    monkeypatch.setattr(ht, "left_translate_cols", spy)
    got = ex._union_base_measure(dr.CylFamily(HEI2, fam), 20_000, 3)
    monkeypatch.undo()
    assert got == unsorted_union_measure(HEI2, fam, 20_000, 3)
    assert again == [] and len(held) > 1000



def nested_batch(alg, rng):
    """Random admissible cylinders with duplicates (the same object, copies,
    and a copy whose centre has -0.0 where the original has 0.0), members
    nested in a later and in an earlier member, and near-copies whose
    containment is refuted neither way."""
    base = ex.random_admissible_cylinders(alg, 30, rng, r_lo=3)
    base[12].n0.Z[0] = 0.0
    signed = NPoint(base[12].n0.X.copy(), base[12].n0.Z.copy())
    signed.Z[0] = -0.0

    def shifted(c, j, R, eps):
        return dr.AdmissibleCylinder(NPoint(c.n0.X + eps, c.n0.Z + eps), j, R)

    inner = [shifted(c, c.j - 1, c.R - 1, 1e-3) for c in base[:6]]
    twins = [shifted(c, c.j, c.R, 1e-15) for c in base[6:9]]
    copies = [dr.AdmissibleCylinder(NPoint(c.n0.X.copy(), c.n0.Z.copy()), c.j, c.R) for c in base[9:12]]
    return inner[:3] + base[:15] + twins + inner[3:] + base[15:] + base[:2] + copies + [
        dr.AdmissibleCylinder(signed, base[12].j, base[12].R)
    ]


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_maximal_family_matches_per_pair_oracle(alg):
    """One refutation call per member keeps the members, in the order, and
    leaves the generator in the state of one refutation per pair."""
    for trial in range(3):
        batch = nested_batch(alg, np.random.default_rng(trial))
        rng, ref_rng = np.random.default_rng(100 + trial), np.random.default_rng(100 + trial)
        fam = ex.build_maximal_family(alg, batch, seed=rng)
        ref = per_pair_maximal_family(alg, batch, ref_rng)
        assert [id(c) for c in fam.cylinders] == [id(c) for c in ref]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert 1 < len(fam.cylinders) < len(batch) - 12


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_verify_maximal_family_matches_per_pair_oracle(alg):
    """A batch that was never pruned has overlaps and containments: the
    violations and the random stream are those of one test per pair."""
    fam = dr.CylFamily(alg, nested_batch(alg, np.random.default_rng(3)))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = ex.verify_maximal_family(fam, seed=rng)
    assert got == per_pair_violations(fam, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert any("contained" in v for v in got) and any("overlap" in v for v in got)


def horocycle_cylinder(alg, X, Z, j):
    return dr.AdmissibleCylinder(NPoint(np.asarray(X, float), np.asarray(Z, float)), j, j + 2)


def contained_mask(alg, cyls):
    fam = dr.CylFamily(alg, cyls)
    return ex._contained_bases(fam, *dr.base_ball_box_batch(fam))


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_union_measure_certifies_nested_chains(alg, scale):
    """Chains of bases each nested in the next, duplicates of a chain member
    (kept: equal radii certify nothing), and internally tangent pairs,
    which must not be certified: the union matches the unsorted loop."""
    rng = np.random.default_rng(int(scale * 1e3) % 97)
    d = alg.p + alg.q
    fam, nested = [], []
    for _ in range(4):
        at = NPoint(scale * rng.uniform(-1, 1, alg.p), scale * rng.uniform(-1, 1, alg.q))
        steps = np.outer(0.05 * np.arange(5), np.ones(d))
        X, Z = ht.left_translate_cols(alg, at, steps[:, : alg.p].T, steps[:, alg.p :].T)
        chain = [horocycle_cylinder(alg, [x[j] for x in X], [z[j] for z in Z], j) for j in range(5)]
        twin = horocycle_cylinder(alg, [x[2] for x in X], [z[2] for z in Z], 2)
        fam += chain + [chain[2], twin]
        nested += chain[:4] + [twin]
    # a radius-1 base about a point at gauge distance e - 1 from the centre
    # of a radius-e base, which it touches from inside; the pairs lie beyond
    # the boxes of the chains
    gap = math.e - 1.0
    for k in range(3):
        at = np.eye(d)[0] * (3e3 + 100.0 * k) + rng.uniform(-1, 1, d)
        big = horocycle_cylinder(alg, at[: alg.p], at[alg.p :], 2)
        step = np.eye(d)[0] * (2 * gap if alg.p else gap**2)
        X, Z = ht.left_translate_cols(alg, big.n0, step[: alg.p], step[alg.p :])
        small = horocycle_cylinder(alg, X, Z, 0)
        assert abs(ht.dist_n(alg, big.n0, small.n0) + small.base_radius - big.base_radius) < 1e-9
        fam += [small, big]
    inside = contained_mask(alg, fam)
    assert {id(c) for c, flag in zip(fam, inside) if flag} == {id(c) for c in nested}
    got = union_or_no_hits(ex._union_base_measure, dr.CylFamily(alg, fam), 20_000, 2)
    assert got == union_or_no_hits(unsorted_union_measure, alg, fam, 20_000, 2)
    # at scale 1e3 the Heisenberg box, whose Z sides grow with |X0| r, is so
    # large that neither the package nor the oracle draws a hit
    assert (got is NoHits) == (scale == 1e3 and alg.p > 0)


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_union_measure_sparse_family_matches_unsorted_loop(alg):
    rng = np.random.default_rng(14)
    fam = ex.random_horocycle_family(alg, 2000, -2, rng, spread=60.0)
    got = ex._union_base_measure(dr.CylFamily(alg, fam), 5_000, 6)
    assert got == unsorted_union_measure(alg, fam, 5_000, 6)
    assert got[0] > 0


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_union_measure_without_nested_centres_makes_no_certificate_translate(alg, monkeypatch):
    """No smaller centre lies in the box of a larger base (the centres are
    1,000 apart along the first coordinate): no candidate pair, so no
    translation with one centre per row."""
    rng = np.random.default_rng(15)
    fam = ex.random_horocycle_family(alg, 300, -2, rng, spread=5.0)
    for k, c in enumerate(fam):
        (c.n0.X if alg.p else c.n0.Z)[0] = 1e3 * k
    cols = dr.CylFamily(alg, fam)
    r = cols.base_radius
    lo, hi = dr.base_ball_box_batch(cols)
    cent = np.hstack([cols.n0.X, cols.n0.Z])
    in_box = ((cent[None, :, :] > lo[:, None, :]) & (cent[None, :, :] < hi[:, None, :])).all(axis=2)
    assert not (in_box & (r[None, :] < r[:, None])).any()
    calls = []
    translate = ht.left_translate_cols
    monkeypatch.setattr(ht, "left_translate_cols", lambda alg, n0, X, Z: calls.append(n0.X.ndim) or translate(alg, n0, X, Z))
    got = union_or_no_hits(ex._union_base_measure, dr.CylFamily(alg, fam), 20_000, 5)
    monkeypatch.undo()
    assert 2 not in calls and calls
    assert got == union_or_no_hits(unsorted_union_measure, alg, fam, 20_000, 5)
    # the Heisenberg box, whose Z sides grow with |X0| r, draws no hit
    assert (got is NoHits) == (alg.p > 0)


def test_left_translate_matches_expanded_group_law():
    rng = np.random.default_rng(0)
    X, Z = rng.standard_normal((50, HEI2.p)), rng.standard_normal((50, HEI2.q))
    n0 = NPoint(rng.standard_normal(HEI2.p), rng.standard_normal(HEI2.q))
    shift = np.einsum("i,nj,ijk->nk", n0.X, X, HEI2.bracket_coeffs)
    Xf, Zf = ht.left_translate_cols(HEI2, n0, X.T, Z.T)
    assert np.array_equal(Xf, (n0.X + X).T) and np.array_equal(Zf, (n0.Z + Z + 0.5 * shift).T)
    Xb, Zb = ht.left_translate_cols(HEI2, ht.n_inv(n0), X.T, Z.T)
    assert np.array_equal(Xb, (X - n0.X).T) and np.array_equal(Zb, (Z - n0.Z - 0.5 * shift).T)


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
@pytest.mark.parametrize("scale,a0", [(1.0, 0.25), (1e3, 1e-6), (1.0, 1e-16), (1e-3, 1e6)])
def test_base_ball_box_holds_every_accepted_point(alg, scale, a0):
    """The box must hold whatever the rounded gauge test accepts, also when
    the rounding of the bracket is as large as the ball itself."""
    rng = np.random.default_rng(4)
    c = dr.Cylinder(NPoint(scale * rng.standard_normal(alg.p), scale * rng.standard_normal(alg.q)), a0, 2.0)
    X, Z = ex._probe_points(alg, c, 2000, rng)
    accepted = ht.dist_n_cols(alg, c.n0, X, Z) < c.base_radius
    assert accepted.any()
    (lo,), (hi,) = dr.base_ball_box_batch(dr.CylFamily(alg, [c]))
    pts = np.column_stack([*X, *Z])[accepted]
    assert ((pts > lo) & (pts < hi)).all()


@pytest.mark.parametrize("alg", [HEI1, HEI2, AB2], ids=lambda a: a.label)
def test_base_ball_box_batch_rows_match_one_row_calls(alg):
    rng = np.random.default_rng(7)
    cyls = [
        dr.Cylinder(NPoint(s * rng.standard_normal(alg.p), s * rng.standard_normal(alg.q)), a0, 2.0)
        for s, a0 in zip(10.0 ** rng.uniform(-3, 3, 300), np.exp(rng.uniform(-16, 16, 300)))
    ]
    lo, hi = dr.base_ball_box_batch(dr.CylFamily(alg, cyls))
    for i, c in enumerate(cyls):
        (lo1,), (hi1,) = dr.base_ball_box_batch(dr.CylFamily(alg, [c]))
        assert np.array_equal(lo[i], lo1) and np.array_equal(hi[i], hi1)
