"""Covering, overlap and counterexample experiments.

The pieces here exercise, at desk scale, the machinery behind the
boundedness results: greedy disjoint selection of same-horocycle
cylinders with the 5^nu union bound, maximal admissible families with
exponential overlap decay, the point-mass level-set growth that defeats
the weak (1,1) bound for trigona, and the modified half-ball packing
whose L^p sums diverge for p <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drsets, htype as ht, hyp2, measure as ms
from .drsets import AdmissibleCylinder, CylFamily
from .htype import HTypeAlgebra, NPoint
from .hyp2 import HPoint
from .report import ExperimentReport, VolumeEstimate


# ----------------------------------------------------------- family basics
# A maximal family is a CylFamily of admissible cylinders, pairwise disjoint
# on each base horocycle and with no member containing another.

def _disjoint_from(c, fam: CylFamily):
    """Per member i of the family: the base of c is certified disjoint from
    the base of fam[i] by the gauge triangle inequality (centres farther
    apart than the radius sum)."""
    return ~ht.dist_below_cols(fam.alg, c.n0, fam.n0.X.T, fam.n0.Z.T, c.base_radius + fam.base_radius)


def _greedy_disjoint(fam: CylFamily) -> CylFamily:
    """Greedy largest-first selection among cylinders on one horocycle: in
    order of decreasing base radius with a lexicographic center tie-break,
    keep each cylinder whose base is certified disjoint from every kept
    base; returns the sub-family of the kept members, in the order kept.

    Each kept base is tested against all later live candidates in one call,
    with the roles of ``_disjoint_from``: the candidate n_c is the centre,
    so the test is gauge(n_c^{-1} n_b) >= r_c + r_b row by row, with the
    kept base's coordinates as scalar columns."""
    order = _greedy_order(fam)
    X, Z, r = fam.n0.X[order], fam.n0.Z[order], fam.base_radius[order]
    kept, live = [], np.arange(order.size)
    while live.size:
        b, live = live[0], live[1:]
        kept.append(order[b])
        live = live[~ht.dist_below_cols(fam.alg, NPoint(X[live], Z[live]), X[b], Z[b], r[live] + r[b])]
    return fam[np.array(kept, dtype=np.intp)]


def _greedy_order(fam: CylFamily):
    """The greedy order of the bases of the family: decreasing radius, then
    the centre coordinates X_1.., Z_1.. ascending, ties in input order.
    ``np.lexsort`` is stable and compares like the tuple key
    (-r, tuple(X), tuple(Z)) of ``sorted``, 0.0 equal to -0.0."""
    return np.lexsort([*fam.n0.Z.T[::-1], *fam.n0.X.T[::-1], -fam.base_radius])


def _probe_points(alg, c, n_dirs: int, rng):
    """The p columns X and q columns Z of points just inside the base ball
    of c at gauge (1 - 1e-9) * radius: the +-coordinate-axis extremes plus
    random directions."""
    axes = np.vstack([np.eye(alg.p + alg.q), -np.eye(alg.p + alg.q)])
    rand = rng.standard_normal((n_dirs, alg.p + alg.q))
    dirs = np.vstack([axes, rand])
    X, Z = dirs[:, : alg.p], dirs[:, alg.p :]
    scale = ((1.0 - 1e-9) * c.base_radius / ht.gauge_batch(X, Z)) ** 2
    return ht.left_translate_cols(alg, c.n0, *ht.dilate_cols(scale, X.T, Z.T))


def _containment_refuted(inner, outer: CylFamily, n_dirs: int, rng):
    """Per member k of ``outer``: True when a certified point of ``inner``
    lies outside the cylinder outer[k].  Returns the verdicts and the rows
    that drew directions.

    A row is refuted outright when the base of ``inner`` is wider (by more
    than 1e-12) or lower.  Every other row draws n_dirs probe directions;
    the draws of all rows come from one ``rng.standard_normal`` call, in
    row order, which is the stream one call per row would take.  Each row
    tests the 2 (p + q) axis probes and its own n_dirs random probes, with
    its own centre per translated point; every step is row by row, so a
    row's verdict has the bits of a one-row call."""
    alg, r = outer.alg, outer.base_radius
    refuted = (inner.base_radius > r + 1e-12) | (inner.base_height < outer.base_height - 1e-12)
    drew = np.flatnonzero(~refuted)
    if drew.size:
        m, n_ax = drew.size, 2 * (alg.p + alg.q)
        PX, PZ = _probe_points(alg, inner, m * n_dirs, rng)
        probe = np.hstack([np.broadcast_to(np.arange(n_ax), (m, n_ax)), n_ax + np.arange(m * n_dirs).reshape(m, n_dirs)]).ravel()
        own = np.repeat(drew, n_ax + n_dirs)
        PX, PZ = [x[probe] for x in PX], [z[probe] for z in PZ]
        far = ~ht.dist_below_cols(alg, NPoint(outer.n0.X[own], outer.n0.Z[own]), PX, PZ, r[own])
        refuted[drew] = far.reshape(m, -1).any(axis=1)
    return refuted, drew


# random probe directions per containment test, besides the 2 (p + q) axes
_N_DIRS = 24


def verify_maximal_family(fam: CylFamily, seed: int = 0) -> list:
    """Exhaustive O(n^2) invariant check; returns human-readable violations.

    Each member is tested against all others in one disjointness call and
    one refutation call, which draws in the order of one call per pair."""
    rng = np.random.default_rng(seed)
    logs = np.array([c.base_log for c in fam])
    out = []
    for i, ci in enumerate(fam):
        rest = np.delete(np.arange(len(fam)), i)
        refuted, _ = _containment_refuted(ci, fam[rest], _N_DIRS, rng)
        later = rest[(rest > i) & (logs[rest] == ci.base_log)]
        overlap = set(later[~_disjoint_from(ci, fam[later])].tolist())
        for k, ref in zip(rest.tolist(), refuted.tolist()):
            if k in overlap:
                out.append(f"members {i},{k} share horocycle {ci.base_log} but overlap")
            if not ref:
                out.append(f"member {i} appears to be contained in member {k}")
    return out


# ---------------------------------------------------------- Vitali selection

def _radius_groups(r) -> list:
    """Indices of r in decreasing radius (stable), split into runs of equal
    radius."""
    order = np.argsort(-r, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(r[order])) + 1)


def _contained_bases(fam: CylFamily, b_lo, b_hi):
    """Mask of the members whose base is certified inside a base ball of
    strictly larger radius, given the boxes (b_lo, b_hi) of ``base_ball_box_batch``.

    Ball s is certified inside ball b when the computed distance
    D = gauge(n_b^{-1} n_s) satisfies D + r_s <= r_b - margin.  Then every
    point that the rounded test gauge(n_s^{-1} x) < r_s accepts, the rounded
    test of b accepts too: by the subadditivity of the gauge, the exact
    gauge of n_b^{-1} x is at most the exact D plus the exact gauge of
    n_s^{-1} x, and the margin covers the rounding of all three gauges.
    Take for T the largest coordinate magnitude in the two boxes (the
    centres and every accepted x lie in them), TX the largest in their
    X columns and K the largest sum_ij |c_ijk|.  Each coordinate of a
    computed translate is then within e = 1e-12 (1 + T + K TX^2) of the
    exact one, far beyond the few roundings (each at most 2^-53 relative)
    of its sums and products.  The gauge is the l^4 norm of
    (|X| / 2, |Z|^(1/2)), so an error of e per coordinate moves it by at
    most (p + q) e + ((p + q) e)^(1/2), which also covers the rounding of
    the gauge formula; the margin is three times that.  Internally tangent
    balls are never certified, nor are balls of equal radius, so a
    duplicate is kept.

    The radii are visited in decreasing order.  A ball already certified
    certifies nothing, and only centres not yet certified and of smaller
    radius are candidates: they are held sorted by their first coordinate,
    and a ball b takes the slice that its box spans, then the rows inside
    its box (a certified centre has D < r_b, so it lies in the box).  The
    balls of one radius go in chunks of 1, 2, 4, ... balls; the pairs of a
    chunk are tested in one translation with one centre per row, so a
    family with no smaller centre in a larger box makes none."""
    alg, X0, Z0, r = fam.alg, fam.n0.X, fam.n0.Z, fam.base_radius
    inside = np.zeros(r.size, dtype=bool)
    # column-major centres and box sides, for the per-coordinate gathers
    cent, lo_t, hi_t = np.hstack([X0, Z0]).T.copy(), b_lo.T.copy(), b_hi.T.copy()
    reach = np.maximum(np.abs(b_lo), np.abs(b_hi))
    t, tx = reach.max(axis=1), reach[:, : alg.p].max(axis=1, initial=0.0)
    K = np.abs(alg.bracket_coeffs).sum(axis=(0, 1)).max(initial=0.0)
    live = np.argsort(cent[0], kind="stable")
    # the smallest radius has no smaller centre to certify
    for group in _radius_groups(r)[:-1]:
        live = live[r[live] < r[group[0]]]
        big = group[~inside[group]]
        # in a dense family the first balls certify most centres, and the
        # later, larger chunks search only the rest
        k0, k1 = 0, 1
        while k0 < big.size and live.size:
            chunk, k0, k1 = big[k0:k1], k1, 2 * k1 + 1
            ends = cent[0, live].searchsorted(
                np.stack([lo_t[0, chunk], np.nextafter(hi_t[0, chunk], -np.inf)]), side="right"
            )
            n = ends[1] - ends[0]
            b = np.repeat(chunk, n)
            s = live[np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - ends[0], n)]
            for c, lo_k, hi_k in zip(cent[1:], lo_t[1:], hi_t[1:]):
                box = (c[s] > lo_k[b]) & (c[s] < hi_k[b])
                b, s = b[box], s[box]
            if s.size:
                D = ht.dist_n_cols(alg, NPoint(X0[b], Z0[b]), X0[s].T, Z0[s].T)
                T, TX = np.maximum(t[b], t[s]), np.maximum(tx[b], tx[s])
                err = (alg.p + alg.q) * 1e-12 * (1.0 + T + K * TX * TX)
                inside[s[D + r[s] <= r[b] - 3.0 * (err + np.sqrt(err))]] = True
                live = live[~inside[live]]
    return inside


def _union_base_measure(fam: CylFamily, samples: int, seed: int):
    """Measure of the union of a family of same-horocycle cylinders, as
    (measure, stderr).

    All bases share one horocycle, so the union is (union of base balls)
    x (height tail) and only the N-Lebesgue measure of the base union is
    needed, times the measure of the heights above the base.  On the
    abelian q = 1 backend the base balls are intervals, which
    ``_interval_union_measure`` merges exactly; otherwise
    ``_sampled_union_measure`` samples a bounding box."""
    tail = fam[0].base_height ** -fam.alg.nu / fam.alg.nu
    if fam.alg.p == 0 and fam.alg.q == 1:
        return _interval_union_measure(fam) * tail, 0.0
    est = _sampled_union_measure(fam, samples, seed)
    return est.mean * tail, est.stderr * tail


def _interval_union_measure(fam: CylFamily) -> float:
    """The length of the union of the base balls of q = 1 abelian
    cylinders, the intervals Z0 -+ a0, merged exactly."""
    z = fam.n0.Z[:, 0]
    ivs = sorted(zip((z - fam.a0).tolist(), (z + fam.a0).tolist()))
    total, cur_lo, cur_hi = 0.0, *ivs[0]
    for lo, hi in ivs[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def _sampled_union_measure(fam: CylFamily, samples: int, seed: int) -> VolumeEstimate:
    """The N-Lebesgue measure of the union of the base balls of
    same-horocycle cylinders, by Monte Carlo over a bounding box.

    Before sampling, the base balls that ``_contained_bases`` certifies
    inside a larger base ball are dropped: whatever their test accepts,
    the larger ball's test accepts too (gauge subadditivity, with a margin
    for rounding), so the hit set is unchanged.  The bounding box is still
    taken over every base, so the samples are the same.

    The Monte Carlo samples are sorted once by the first horizontal
    coordinate; the sort need not be stable, because samples with equal
    first coordinates fall in the same slices.  Base balls are visited
    largest first, and each tests only the samples of its slice that lie
    in its box (``drsets.base_ball_box_batch``) and are not yet known to
    be inside the union.  The live samples are compacted in place to
    those still outside whenever the hits since the last compaction reach
    an eighth of the live samples, and the visit stops once none is left.
    The hit set is an OR of the same per-sample tests, so it does not
    depend on the order, and ``htype.dist_below_cols`` pins its sums, so
    a test does not depend on the layout of the samples either.

    The eighth: one compaction costs one pass over the d live rows.  With
    a threshold t of n live samples, each compaction leaves at most
    (1 - t) of them, so all compactions together move at most n / t
    samples a row, while between two of them at most t n dead samples
    stay in the rows.  If B balls scan slices of a fraction s of the
    samples each, and the dead samples spread like the live ones, the
    scans carry about t B s n dead samples a row; t B s + 1 / t is least
    at t = (B s)^(-1/2).  The 1,000-cylinder dr-heisenberg:1 family of
    the na-cover benchmark (B s ≈ 130: 199 live balls scanning about 65 %
    of the samples each) gives ≈ 1/11, and 1/8 is the power of two next
    to it."""
    rng = np.random.default_rng(seed)
    alg, X0, Z0, r = fam.alg, fam.n0.X, fam.n0.Z, fam.base_radius
    # the bounding box seeds the sample positions: keep the per-row norm,
    # sqrt(x.dot(x)) as np.linalg.norm takes it for a real vector
    pad = np.array([math.sqrt(x.dot(x)) for x in X0]) * r + fam.a0
    lo = np.concatenate([(X0 - 2 * r[:, None]).min(axis=0), (Z0 - pad[:, None]).min(axis=0)])
    hi = np.concatenate([(X0 + 2 * r[:, None]).max(axis=0), (Z0 + pad[:, None]).max(axis=0)])
    # the one-shot draws rng.uniform(lo, hi, (samples, p + q)) run row by
    # row, so they are drawn a chunk of rows at a time, straight into a
    # column-major array.  cols holds its rows, the samples of one
    # coordinate each, contiguous for the box tests and the candidate
    # gathers.  Sorted by the first horizontal coordinate, each base ball
    # meets one contiguous slice (|X_1 - X0_1| < 2r, or |Z_1 - Z0_1| < r^2
    # when p = 0); each row is permuted in place.  outside drops the samples
    # a ball already holds, and at each compaction each row keeps, in place,
    # the samples left outside
    chunk, d = drsets.MC_CHUNK, alg.p + alg.q
    cols = np.empty((d, samples))
    for i in range(0, samples, chunk):
        cols[:, i : i + chunk] = rng.uniform(lo, hi, (min(chunk, samples - i), d)).T
    order, cols = np.argsort(cols[0]), list(cols)
    for row in cols:
        row[:] = row[order]
    del order
    b_lo, b_hi = drsets.base_ball_box_batch(fam)
    balls = np.argsort(-r, kind="stable")
    balls = balls[~_contained_bases(fam, b_lo, b_hi)[balls]]
    outside = np.ones(samples, dtype=bool)
    while balls.size and outside.size:
        # the slice holds exactly the samples with b_lo < X_1 < b_hi; X_1 < b
        # is X_1 <= nextafter(b, -inf), so one side="right" search takes both
        ends = cols[0].searchsorted(np.stack([b_lo[balls, 0], np.nextafter(b_hi[balls, 0], -np.inf)]), side="right")
        fresh = 0
        for done, (i, j0, j1) in enumerate(zip(balls.tolist(), ends[0].tolist(), ends[1].tolist()), 1):
            in_box = outside[j0:j1].copy()
            for k in range(1, d):
                seg = cols[k][j0:j1]
                in_box &= (seg > b_lo[i, k]) & (seg < b_hi[i, k])
            idx = j0 + np.flatnonzero(in_box)
            # the candidates are gathered at most a chunk at a time, one row
            # per coordinate: cand[:p] and cand[p:] are their p and q columns
            for piece in (idx[j : j + chunk] for j in range(0, idx.size, chunk)):
                cand = [row.take(piece) for row in cols]
                hit = piece[ht.dist_below_cols(alg, fam[i].n0, cand[: alg.p], cand[alg.p :], r[i])]
                outside[hit] = False
                fresh += hit.size
            if 8 * fresh >= outside.size:
                break
        balls, kept = balls[done:], outside.size - fresh
        if balls.size and kept:
            for row in cols:
                row[:kept] = row[outside]
            cols = [row[:kept] for row in cols]
        outside = outside[:kept]
        outside[:] = True
    return VolumeEstimate.of_hits(float(np.prod(hi - lo)), samples - outside.size, samples)


def vitali_select(alg: HTypeAlgebra, family, samples: int = 100_000, seed: int = 0, omega: float = None):
    """Greedy largest-first disjoint subfamily of same-horocycle admissible
    cylinders, as a list of the caller's cylinders, with the 5^nu
    union-measure bound report.

    Selection order is decreasing base radius with a lexicographic center
    tie-break; a candidate is kept when its base is certified disjoint
    (gauge triangle inequality) from every kept base.  A sampled union or
    unit-ball volume with no hit raises ``report.NoHits``.
    """
    if not family:
        raise ValueError("empty family")
    logs = {c.base_log for c in family}
    if len(logs) > 1:
        raise ValueError(f"bases on mixed horocycles: {sorted(logs)}")
    fam = CylFamily.of(alg, family)
    selected = _greedy_disjoint(fam)

    if omega is None:
        omega = drsets.omega_n(alg) if alg.p == 0 else drsets.omega_n(alg, "mc", 400_000, seed).mean
    union_all, stderr = _union_base_measure(fam, samples, seed)
    union_sel = sum(drsets.cylinder_volume(alg, c, omega) for c in selected)
    bound = 5.0**alg.nu
    ratio = union_all / union_sel
    rep = ExperimentReport(meta={"space": alg.label, "family_size": len(family), "seed": seed, "samples": samples})
    rep.add_table(
        "measures",
        ["quantity", "value", "stderr"],
        [
            ["union_family", union_all, stderr],
            ["union_selected", union_sel, 0.0],
            ["ratio", ratio, stderr / union_sel],
        ],
    )
    rep.check("selected_pairwise_disjoint", 0, 0, _all_disjoint(selected))
    rep.check("union_bound_5_nu", bound, ratio, union_all <= bound * union_sel + 3 * stderr)
    return selected.cylinders, rep


def _all_disjoint(fam: CylFamily) -> bool:
    return all(_disjoint_from(c, fam[i + 1 :]).all() for i, c in enumerate(fam))


# ------------------------------------------------------ family construction

def random_horocycle_family(alg, count, base_log, rng, r_lo=2, r_hi=6, spread=8.0):
    """Random admissible cylinders with all bases on one horocycle."""
    out = []
    for _ in range(count):
        R = int(rng.integers(r_lo, r_hi + 1))
        n0 = NPoint(
            spread * rng.uniform(-1, 1, alg.p),
            spread * rng.uniform(-1, 1, alg.q),
        )
        out.append(AdmissibleCylinder(n0, base_log + R, R))
    return out


def random_admissible_cylinders(alg, count, rng, r_lo=2):
    """Random admissible cylinders: centre coordinates uniform in [-6, 6),
    j in -2..2 and R in r_lo..6."""
    out = []
    for _ in range(count):
        out.append(
            AdmissibleCylinder(
                NPoint(6.0 * rng.uniform(-1, 1, alg.p), 6.0 * rng.uniform(-1, 1, alg.q)),
                int(rng.integers(-2, 3)),
                int(rng.integers(r_lo, 7)),
            )
        )
    return out


def build_maximal_family(alg: HTypeAlgebra, generator, seed: int = 0) -> CylFamily:
    """Prune a generated batch into a maximal family: drop duplicates and
    members not refutably outside another member, then run the greedy
    disjoint selection on each base horocycle.  The family's cylinders are
    the generator's own objects.

    The result and the random stream are those of testing each member
    against the others one pair at a time, in index order, until the first
    pair whose containment is not refuted.  Each member is instead tested
    against all others in one ``_containment_refuted`` call, which takes
    the draws of every outer it probes in one pinned order.  When some
    outer k is not refuted, the generator is rewound to its state before
    the call and draws again what the pairs up to k would have drawn; then
    the reverse test for k > i draws its own, and the member goes on with
    the outers after k."""
    rng = np.random.default_rng(seed)
    cyls = list(generator)
    # duplicates: identical lattice data and identical centers, the first
    # kept; float keys compare like np.array_equal (0.0 == -0.0)
    first = {}
    for c in cyls:
        first.setdefault((c.j, c.R, tuple(c.n0.X.tolist()), tuple(c.n0.Z.tolist())), c)
    uniq = CylFamily(alg, first.values())
    # drop members that cannot be refuted as subsets of another member
    kept = []
    for i, c in enumerate(uniq):
        contained, rest = False, np.delete(np.arange(len(uniq)), i)
        while rest.size and not contained:
            state = rng.bit_generator.state
            refuted, drew = _containment_refuted(c, uniq[rest], _N_DIRS, rng)
            if refuted.all():
                break
            f = int(refuted.argmin())
            # one pair at a time, the draws would stop after outer f
            rng.bit_generator.state = state
            rng.standard_normal((int(np.count_nonzero(drew <= f)) * _N_DIRS, alg.p + alg.q))
            k = int(rest[f])
            # symmetric ties (identical geometry is impossible after dedup):
            # keep the earlier one; a later k is refuted against c as outer
            contained = k < i or bool(_containment_refuted(uniq[k], uniq[i : i + 1], _N_DIRS, rng)[0][0])
            rest = rest[f + 1 :]
        if not contained:
            kept.append(c)
    final = []
    for log_h in sorted({c.base_log for c in kept}):
        final.extend(_greedy_disjoint(CylFamily(alg, [c for c in kept if c.base_log == log_h])))
    return CylFamily(alg, final)


def stacked_chain(alg: HTypeAlgebra, depth: int) -> CylFamily:
    """Adversarial maximal family: ``depth`` cylinders with distinct base
    heights e^{-1}..e^{-depth}, all containing the identity, with centers
    staggered so no member contains another."""
    cyls = []
    for k in range(1, depth + 1):
        offset = (-1.0) ** k * (0.3 + 0.02 * k)
        n0 = NPoint(np.zeros(alg.p), np.full(alg.q, offset) / math.sqrt(alg.q))
        cyls.append(AdmissibleCylinder(n0, 1, k + 1))
    return CylFamily(alg, cyls)


# ----------------------------------------------------------- overlap decay

@dataclass
class OverlapProfile:
    nu: float
    omega_k: list  # (k, measure)
    g_measure: float

    @property
    def bound_constant(self) -> float:
        return math.exp(2 * self.nu) / (math.exp(self.nu) - 1.0)

    def max_overlap(self) -> int:
        return max((k for k, m in self.omega_k if m > 0), default=0)

    def lr_norm(self, r: float) -> float:
        return sum(k**r * m for k, m in self.omega_k) ** (1.0 / r)


def a_r_constant(nu: float, r: float) -> float:
    s = sum(k**r * math.exp(-k) for k in range(1, 500))
    return (math.exp(2 * nu) / (math.exp(nu) - 1.0) * s) ** (1.0 / r)


def overlap_profile_exact(fam: CylFamily) -> OverlapProfile:
    """Exact overlap measures for the abelian q = 1 backend via a sweep
    over the base-interval arrangement.

    Within one cell of the arrangement the active member set is constant,
    and the overlap count as a function of height is the number of member
    base heights below it, so each cell contributes closed-form slabs.
    """
    alg = fam.alg
    if alg.p != 0 or alg.q != 1:
        raise ValueError("exact sweep requires the abelian q = 1 backend")
    nu = alg.nu
    if not fam:
        return OverlapProfile(nu, [], 0.0)
    z = fam.n0.Z[:, 0]
    endpoints = sorted(set((z - fam.a0).tolist()) | set((z + fam.a0).tolist()))
    acc: dict = {}
    g_total = 0.0
    for lo, hi in zip(endpoints[:-1], endpoints[1:]):
        mid, width = 0.5 * (lo + hi), hi - lo
        heights = sorted(fam.base_height[np.abs(mid - z) < fam.a0].tolist())
        if not heights:
            continue
        if any(h2 - h1 < 1e-15 for h1, h2 in zip(heights, heights[1:])):
            raise ValueError("equal base heights overlap a cell; family not maximal")
        for k in range(1, len(heights) + 1):
            top = heights[k] ** -nu if k < len(heights) else 0.0
            slab = width * (heights[k - 1] ** -nu - top) / nu
            acc[k] = acc.get(k, 0.0) + slab
            g_total += slab
    return OverlapProfile(nu, sorted(acc.items()), g_total)


def overlap_profile(fam: CylFamily, grid: ms.SampleGrid) -> OverlapProfile:
    """Grid-tally overlap profile for any backend."""
    # a point lies in at most every member, so the tallies fit the smallest
    # unsigned type that holds the family size
    counts = np.zeros(grid.shape, dtype=np.min_scalar_type(len(fam)))
    lo, hi = ms.member_blocks(grid, fam)
    for i, (c_lo, c_hi) in enumerate(zip(lo.tolist(), hi.tolist())):
        block = tuple(map(slice, c_lo, c_hi))
        counts[block] += fam.block_mask(i, grid, block)
    # one row per horizontal cell: selecting from the broadcast per-height
    # weights yields the cells' weights in C order, as grid.weights would.
    # The covered cells are gathered once; w[c == k] is then the 1-D array
    # weights[counts == k] (the same floats in the same order), so each
    # level's sum has the bits of a pass over the whole grid
    counts = counts.reshape(-1, grid.shape[-1])
    covered = counts >= 1
    c, w = counts[covered], np.broadcast_to(grid.height_weights, counts.shape)[covered]
    out = [(k, float(w[c == k].sum())) for k in range(1, int(c.max(initial=0)) + 1)]
    return OverlapProfile(fam.alg.nu, out, float(w.sum()))


def overlap_report(prof: OverlapProfile, r_values=(1, 2, 3)) -> ExperimentReport:
    rep = ExperimentReport(meta={"nu": prof.nu})
    c = prof.bound_constant
    rows = [
        [k, m, c * prof.g_measure * math.exp(-k), m <= c * prof.g_measure * math.exp(-k) + 1e-9 * prof.g_measure]
        for k, m in prof.omega_k
    ]
    rep.add_table("omega_k", ["k", "measure", "bound", "pass"], rows)
    rep.check("decay_bound_all_k", c, float(prof.max_overlap()), all(row[3] for row in rows))
    total = sum(m for _, m in prof.omega_k)
    rep.check("partition_of_union", prof.g_measure, total, abs(total - prof.g_measure) <= 1e-6 * max(prof.g_measure, 1.0))
    for r in r_values:
        lhs = prof.lr_norm(r)
        rhs = a_r_constant(prof.nu, r) * prof.g_measure ** (1.0 / r)
        rep.check(f"overlap_l{r}_norm", rhs, lhs, lhs <= rhs * (1 + 1e-9))
    return rep


# ------------------------------------------------- point-mass level growth

# the radius step of the point-mass witness ladders
_R_STEP = 0.125


def dirac_level_growth(m_values=range(6, 15)) -> ExperimentReport:
    """Level sets of the sharpest trigonon average seen by a unit point
    mass at the origin of the half-plane.

    The witness lattice has centers on the vertical axis at heights e^j
    and radii on a step-1/8 ladder; the level-set measure of
    eta(x) = sup { 1/|T| : T in lattice, T contains x and the origin }
    has a closed form via a band decomposition of the union, so the
    growth of alpha |E(alpha)| in log(1/alpha) is measured exactly.  The
    trend is a least-squares line through the rungs; its r^2 is 1 on any
    two points, so the ladder needs at least three rungs.
    """
    if len(m_values) < 3:
        raise ValueError(f"the trend fit needs at least three rungs, got {len(m_values)}")
    omega = 2.0
    c1, C1 = drsets.sandwich_constants(ht.degenerate_abelian(1), omega)
    alphas = [2.0**-m for m in m_values]
    r_cap = math.log(1.0 / min(alphas)) + 3.0
    ladder = np.arange(1.0 + _R_STEP, r_cap, _R_STEP)
    areas = np.array([hyp2.trigonon_area(R) for R in ladder])
    kappa = omega * (math.sqrt(math.e - 1.0) - 1.0) * math.exp(-1.0) * (1.0 - math.exp(-1.0))

    rep = ExperimentReport(meta={"r_step": _R_STEP, "r_cap": float(r_cap), "m_values": list(m_values)})
    rows = []
    xs, ys = [], []
    witness_ok = True
    chain_ok = True
    any_chain = False
    for m, alpha in zip(m_values, alphas):
        idx = int(np.searchsorted(areas, 1.0 / alpha) - 1)
        if idx < 0:
            raise ValueError(f"no lattice trigonon below measure 1/alpha for m={m}")
        r_star = float(ladder[idx])
        if idx + 1 >= len(ladder):
            raise ValueError("radius ladder cap too small")
        J = math.ceil(r_star - 1e-9) - 1
        t_star = areas[idx]
        band = t_star - hyp2.trigonon_area(r_star - 1.0)
        e_meas = t_star + (J - 1) * band
        # maximal witnesses all have measure t_star; lattice-exact bracket
        lo_bracket = c1 / (C1 * math.e * alpha)
        witness_ok &= lo_bracket <= t_star < 1.0 / alpha
        # proof-formula radius and the stacked-chain checks
        r_alpha = math.floor(math.log(c1 / (C1**2 * math.e * alpha)))
        chain_row = ""
        if r_alpha > 2:
            any_chain = True
            diff = hyp2.trigonon_area(r_alpha) - hyp2.trigonon_area(r_alpha - 1)
            ok = diff >= kappa * math.exp(r_alpha)
            for j in range(1, r_alpha):
                w = HPoint(0.0, math.exp(j))
                ok &= hyp2.contains(hyp2.trigonon(w, float(r_alpha)), HPoint(0.0, 1.0))
                ok &= hyp2.trigonon_area(r_alpha) < 1.0 / alpha
                ok &= abs(hyp2.distance(w, HPoint(0.0, 1.0)) - j) < 1e-12
            chain_ok &= ok
            chain_row = "ok" if ok else "FAIL"
        xs.append(math.log(1.0 / alpha))
        ys.append(alpha * e_meas)
        rows.append(
            [m, alpha, r_alpha, r_star, J, e_meas, alpha * e_meas, t_star, lo_bracket, 1.0 / alpha, chain_row]
        )
    if not any_chain:
        raise ValueError("alpha ladder never reaches the chain regime (R_alpha > 2)")
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = np.polyval([slope, intercept], xs)
    ss_res = float(np.sum((np.array(ys) - fit) ** 2))
    ss_tot = float(np.sum((np.array(ys) - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    rep.add_table(
        "levels",
        ["m", "alpha", "R_alpha", "R_star", "J", "E_measure", "alpha_E", "witness_measure",
         "witness_lo", "witness_hi", "chain"],
        rows,
    )
    rep.add_table("fit", ["slope", "intercept", "r_squared", "kappa"], [[float(slope), float(intercept), r2, kappa]])
    rep.check("slope_positive", 0.0, float(slope), slope > 0)
    rep.check("r_squared", 0.9, r2, r2 > 0.9)
    rep.check("witness_measures_in_bracket", 1.0, 1.0, bool(witness_ok))
    rep.check("chain_differences", 1.0, 1.0, bool(chain_ok))
    return rep


def dirac_witness_lattice(alpha: float, r_cap: float = 12.0):
    """All lattice trigona containing the origin with measure below
    1/alpha, as (j, R) pairs, plus the subset maximal under inclusion."""
    ladder = np.arange(1.0 + _R_STEP, r_cap, _R_STEP)
    cand = []
    for R in ladder:
        if hyp2.trigonon_area(R) >= 1.0 / alpha:
            continue
        for j in range(1, math.ceil(R - 1e-9)):
            cand.append((j, float(R)))
    cand_arr = np.array(cand) if cand else np.zeros((0, 2))
    maximal = []
    for i, (j, R) in enumerate(cand):
        others = np.delete(cand_arr, i, axis=0)
        inside = (j <= others[:, 0]) & (j - R >= others[:, 0] - others[:, 1])
        if not inside.any():
            maximal.append((j, R))
    return cand, maximal


# ------------------------------------------------------------ half-ball packing

def packing_report(levels, samples: int = 4000, seed: int = 0) -> ExperimentReport:
    rep = ExperimentReport(meta={"levels": len(levels), "samples": samples, "seed": seed})
    rng = np.random.default_rng(seed)
    rows = []
    disjoint_ok = True
    for lv in levels:
        violations = 0
        if lv.n_count > 1:
            pairs = [(0, 1), (lv.n_count // 2, lv.n_count // 2 + 1), (lv.n_count - 2, lv.n_count - 1)]
            for i, k in {p for p in pairs if p[1] < lv.n_count}:
                b1 = hyp2.half_ball(HPoint(lv.center(i), lv.center_height), lv.radius)
                b2 = hyp2.half_ball(HPoint(lv.center(k), lv.center_height), lv.radius)
                x, y = _sample_halfball_h2(b1, samples, rng)
                violations += int(hyp2.contains_mask(b2, x, y).sum())
        disjoint_ok &= violations == 0
        rows.append([lv.level, lv.rho, lv.n_count, lv.e_measure, violations])
    rep.add_table("levels", ["level", "rho", "n", "E_measure", "disjoint_violations"], rows)
    rep.check("adjacent_half_balls_disjoint", 0, 0, disjoint_ok)
    # the two satellite balls at the top intersect: Euclidean center
    # distance 2 below the radius sum 2 sinh 1
    rep.check("satellite_lens_nonempty", 2 * math.sinh(1.0), 2.0, 2.0 < 2 * math.sinh(1.0))
    for lv in levels:
        if lv.level >= 2:
            ratio = math.log(lv.n_count) / 2.0**lv.level
            rep.check(f"growth_exponent_level_{lv.level}", 1.2, ratio, 0.8 <= ratio <= 1.2)
    return rep


def _sample_halfball_h2(s, count, rng):
    x_lo, x_hi, y_lo, y_hi = hyp2.bounding_box(s)
    xs = np.empty(0)
    ys = np.empty(0)
    while xs.size < count:
        x = rng.uniform(x_lo, x_hi, 4 * count)
        y = np.exp(rng.uniform(math.log(y_lo), math.log(y_hi), 4 * count))
        m = hyp2.contains_mask(s, x, y)
        xs = np.concatenate([xs, x[m]])
        ys = np.concatenate([ys, y[m]])
    return xs[:count], ys[:count]


# ------------------------------------------------ modified half-ball sums

# the lens: the intersection of the two satellite balls of radius 1 at
# -1 + i and 1 + i, which lies in the box (1 - sinh 1, sinh 1 - 1) x (1/e, e)
_LENS_BALLS = (hyp2.ball(HPoint(-1.0, 1.0), 1.0), hyp2.ball(HPoint(1.0, 1.0), 1.0))
_LENS_BOX = (1.0 - math.sinh(1.0), math.sinh(1.0) - 1.0, math.exp(-1.0), math.e)


def _in_lens(x, y):
    return hyp2.contains_mask(_LENS_BALLS[0], x, y) & hyp2.contains_mask(_LENS_BALLS[1], x, y)


def lens_region_measure(samples: int = 400_000, seed: int = 0):
    """(measure, stderr): the Monte Carlo measure of the lens, from
    ``samples`` draws of the hyperbolic measure on its box, counted chunk
    by chunk (``measure.h2_box_chunks``)."""
    chunks, total = ms.h2_box_chunks(_LENS_BOX, samples, np.random.default_rng(seed))
    hits = sum(int(np.count_nonzero(_in_lens(x, y))) for x, y in chunks)
    est = VolumeEstimate.of_hits(total, hits, samples)
    return est.mean, est.stderr


def modified_lp_sums(
    ps, max_level: int, samples: int = 200_000, check_points: int = 100, seed: int = 0
) -> list:
    """Partial L^p sums of the modified half-ball averages of the lens
    indicator over the packing levels, with per-level witness checks: one
    report for each p of ``ps``, in order.

    Every point of a level-l half ball sees the witness modified half
    ball built on that member: the satellite ball of the witness sits at
    height 1 and contains the lens, so the average is at least
    c_l = |lens| / |modified half ball| (``hyp2.area``: the half ball's
    area plus the unit ball's).  The witness bound is the containment of
    the lens in the witness: for each sampled member, the witness check
    tests that the witness holds points sampled from the member and from
    the lens.  The lens measure, the c_l and the witness verdicts do not
    depend on p, so they are computed once, from two generators seeded
    alike with ``seed``: ``lens_region_measure`` draws the lens measure
    from its own, the witness checks from the other.  Each report takes
    the increments |E_l| c_l^p.  A lens draw with no hit raises
    ``report.NoHits``.
    """
    if not all(1.0 <= p <= 4.0 for p in ps):
        raise ValueError("p must lie in [1, 4]")
    if max_level > 4:
        raise ValueError("desk scale: levels 0..4")
    rng = np.random.default_rng(seed)
    lens, lens_err = lens_region_measure(samples, seed)
    levels = hyp2.packing_construct(max_level)

    c_ls, oks = [], []
    for lv in levels:
        c_ls.append(lens / hyp2.area(hyp2.modified_half_ball(HPoint(lv.center(0), lv.center_height), lv.radius)))
        # witness verification at sampled points of the level set
        members = rng.integers(0, lv.n_count, check_points)
        ok = True
        for i in set(members.tolist()):
            cx = lv.center(i)
            member = hyp2.half_ball(HPoint(cx, lv.center_height), lv.radius)
            witness = hyp2.modified_half_ball(HPoint(cx, lv.center_height), lv.radius)
            n_pts = int((members == i).sum())
            x, y = _sample_halfball_h2(member, n_pts, rng)
            ok &= bool(hyp2.contains_mask(witness, x, y).all())
            # the lens sits inside the witness satellite ball
            lx, ly, _ = ms.sample_h2_box(_LENS_BOX, 200, rng)
            lm = _in_lens(lx, ly)
            ok &= bool(hyp2.contains_mask(witness, lx[lm], ly[lm]).all())
        oks.append(ok)

    reports = []
    for p in ps:
        increments = [lv.e_measure * c_l**p for lv, c_l in zip(levels, c_ls)]
        rows = [
            [lv.level, c_l, lv.e_measure, inc, "ok" if ok else "FAIL"]
            for lv, c_l, inc, ok in zip(levels, c_ls, increments, oks)
        ]
        rep = ExperimentReport(
            meta={"p": p, "max_level": max_level, "seed": seed, "lens": lens, "lens_stderr": lens_err}
        )
        rep.add_table("levels", ["level", "c_l", "E_measure", "increment", "witness"], rows)
        rep.add_table("partial_sums", ["S_L"], [[float(np.cumsum(increments)[-1])]])
        rep.check("witness_bounds", 1.0, 1.0, all(oks))
        if p <= 1.0:
            grows = all(b >= a for a, b in zip(increments, increments[1:]))
            rep.check("increments_grow", 1.0, float(increments[-1] / increments[0]), grows)
        elif p <= 2.0:
            ratio = min(increments) / max(increments)
            rep.check("increments_bounded_below", 0.1, ratio, ratio >= 0.1)
        else:
            decay = increments[-1] / increments[0]
            rep.check("increments_decay", 1e-3, decay, decay < 1e-3)
        reports.append(rep)
    return reports
