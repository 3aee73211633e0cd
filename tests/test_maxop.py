"""Maximal operator lattice suprema, level sets, the L log L machinery and
the family comparison constants."""

import math

import numpy as np
import pytest

from hypmax import hyp2 as h2
from hypmax import maxop as mx
from hypmax import measure as ms


I = h2.HPoint(0.0, 1.0)


def indicator(s):
    return lambda x, y: h2.contains_mask(s, x, y).astype(float)


def make_grid(window=(-4.0, 4.0, -2.0, 2.0), res=(96, 64)):
    return ms.build_grid("h2", window, res)


# -------------------------------------------------------------- maximal_fn

def test_indicator_of_member_gives_value_one():
    g = make_grid()
    Q = h2.admissible_rectangle(0.0, 0, 2)
    g.set_values(indicator(Q))
    fam = [h2.admissible_rectangle(0.0, 0, K) for K in (2, 3)]
    res = mx.maximal_fn(g, h2.HPoint(0.0, 1.0), fam)
    assert not res.empty
    # the witness achieving the max is Q itself, up to grid quantization
    assert res.value == pytest.approx(1.0, abs=0.02)
    assert h2.area(res.witness) <= h2.area(Q) * 1.001


def test_zero_function_gives_zero():
    g = make_grid(res=(32, 32))
    g.set_values(lambda x, y: 0.0)
    fam = [h2.ball(I, 1.0)]
    res = mx.maximal_fn(g, I, fam)
    assert res.value == 0.0 and res.witness is None


def test_empty_witness_flag():
    g = make_grid(res=(16, 16))
    g.set_values(lambda x, y: 1.0)
    fam = [h2.ball(h2.HPoint(100.0, 1.0), 0.5)]
    res = mx.maximal_fn(g, I, fam)
    assert res.empty and res.value == 0.0


def test_halfball_family_against_bruteforce():
    g = make_grid(window=(-3.0, 3.0, -3.0, 1.5), res=(90, 90))
    small = h2.ball(I, 0.1)
    g.set_values(indicator(small))
    centers = np.array([[0.0, 1.0], [0.0, math.exp(-0.5)], [0.3, 1.2]])
    radii = np.array([2.0, 2.5, 3.0, 3.5])
    fam = mx.h2_lattice("half_ball", centers, radii)
    x = h2.HPoint(0.0, math.exp(-2.0))
    got = mx.maximal_fn(g, x, fam)

    # independent brute force over the same lattice
    wv = g.weights * g.values
    best = 0.0
    for cx, cy in centers:
        for R in radii:
            s = h2.half_ball(h2.HPoint(cx, cy), R)
            if not h2.contains(s, x):
                continue
            avg = float(wv[h2.contains_mask(s, g.x, g.y)].sum()) / h2.area(s)
            best = max(best, avg)
    assert got.value == pytest.approx(best, rel=1e-12)
    assert best > 0


def test_field_agrees_with_pointwise():
    g = make_grid(window=(-2.0, 2.0, -1.0, 1.0), res=(24, 20))
    g.set_values(indicator(h2.ball(I, 0.8)))
    fam = mx.h2_lattice("rectangle", mx.grid_centers(g, 6), [1.5, 2.0])
    fld = mx.maximal_field(g, fam)
    for k in (0, 57, 213, 400):
        res = mx.maximal_fn(g, h2.HPoint(float(g.x[k]), float(g.y[k])), fam)
        assert res.value == fld.values[k]
        assert res.witness == fam[fld.witness_idx[k]]


# --------------------------------------------------- operator properties

def test_sublinearity_homogeneity_monotonicity():
    g = make_grid(window=(-2.0, 2.0, -1.5, 1.5), res=(40, 30))
    rng = np.random.default_rng(3)
    fam = mx.h2_lattice("half_ball", mx.grid_centers(g, 8), [1.0, 1.7])
    f = np.abs(rng.normal(size=g.size))
    h = np.abs(rng.normal(size=g.size))

    def field_for(vals):
        g.values = vals
        return mx.maximal_field(g, fam).values

    nf, nh = field_for(f), field_for(h)
    nfh = field_for(f + h)
    assert (nfh <= nf + nh + 1e-12).all()
    assert np.allclose(field_for(3.0 * f), 3.0 * nf, rtol=1e-12)
    assert (field_for(f + 0.5 * h) >= nf - 1e-12).all()


def test_indicator_never_exceeds_one_plus_grid_tol():
    g = make_grid(window=(-3.0, 3.0, -2.0, 2.0), res=(120, 80))
    Q = h2.rectangle(h2.HPoint(0.0, 1.1), 1.4)
    g.set_values(indicator(Q))
    fam = mx.h2_lattice("rectangle", mx.grid_centers(g, 10), mx.radius_ladder(1.1, 4))
    fld = mx.maximal_field(g, fam)
    assert fld.values.max() <= 1.0 + 0.03


# ---------------------------------------------------------------- level sets

def test_level_sets_monotone_and_trivial_cases():
    g = make_grid(window=(-2.0, 2.0, -1.5, 1.5), res=(40, 30))
    g.set_values(indicator(h2.ball(I, 0.5)))
    fam = mx.h2_lattice("rectangle", mx.grid_centers(g, 8), mx.radius_ladder(1.2, 3))
    rows, fld = mx.level_set_table(g, fam, [1.5] + [2.0 ** (-m) for m in range(0, 10)] + [1e-12])
    meas = [r[1] for r in rows]
    assert all(m2 >= m1 - 1e-15 for m1, m2 in zip(meas, meas[1:]))
    # alpha above sup f: empty level set
    assert rows[0] == (1.5, 0.0)
    # alpha -> 0 saturates at the measure of the set the family reaches
    reach = float(g.weights[fld.values > 0].sum())
    assert rows[-1][1] == pytest.approx(reach, rel=1e-12)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            mx.level_set_table(g, fam, [0.5, alpha])


def test_level_set_table_on_cylinders_takes_omega():
    from hypmax import drsets, htype

    # the README's dr-heisenberg:1 grid and admissible cylinders
    hei = htype.heisenberg(1)
    na = ms.build_grid("na", ([(-3.0, 3.0)] * 2, [(-4.0, 4.0)], (-3.0, 2.0)), ([7, 8], [9], 10), alg=hei)
    na.set_values(lambda X, Z, a: 1.0 / (1.0 + a))
    cylinders = [drsets.AdmissibleCylinder(htype.identity_n(hei), j, R) for j in (-1, 0, 1) for R in (2, 3)]
    omega = 2 * math.pi**2
    alphas = [2.0 ** (-m) for m in range(-1, 4)]
    rows, fld = mx.level_set_table(na, cylinders, alphas, omega=omega)
    ref = mx.maximal_field(na, cylinders, omega=omega)
    assert np.array_equal(fld.values, ref.values)
    assert np.array_equal(fld.witness_idx, ref.witness_idx)
    assert rows == [(a, float(na.weights[ref.values > a].sum())) for a in alphas]
    # the ladder runs from an empty level set to a nonempty one
    assert rows[0][1] == 0.0 < rows[-1][1]
    with pytest.raises(ValueError, match="omega"):
        mx.level_set_table(na, cylinders, alphas)


# ------------------------------------------------------------------ L log L

def test_llogl_lambda_value():
    got = mx.llogl_lambda(1.0)
    assert got == pytest.approx(0.25 * (math.e - 1) * (math.sqrt(math.e) - 1) / math.e**2, rel=1e-14)
    assert got == pytest.approx(0.037714085407343494, abs=1e-14)


def test_llogl_rhs_zero_and_monotonicity():
    g = make_grid(res=(24, 16))
    g.set_values(lambda x, y: 0.0)
    assert mx.llogl_rhs(g, 0.5, 0.1) == 0.0
    rng = np.random.default_rng(5)
    g.values = np.abs(rng.normal(size=g.size))
    base = mx.llogl_rhs(g, 0.5, 0.1)
    g2 = make_grid(res=(24, 16))
    g2.values = g.values * 1.3
    assert mx.llogl_rhs(g2, 0.5, 0.1) > base
    assert mx.llogl_rhs(g, 0.5, 0.2) < base


# ------------------------------------------------------------------ lp_norm

def test_lp_norm_indicator_and_scaling():
    g = make_grid(window=(-1.5, 1.5, -1.5, 6.0), res=(150, 300))
    g.set_values(indicator(h2.rectangle(I, 1.0)))
    assert mx.lp_norm(g, 1.0) == pytest.approx(2 * math.e, rel=0.01)
    v1 = mx.lp_norm(g, 2.0)
    g.values = g.values * -2.5
    assert mx.lp_norm(g, 2.0) == pytest.approx(2.5 * v1, rel=1e-12)
    assert mx.lp_norm(g, math.inf) == 2.5


def test_cylinder_family_matches_rectangle_family():
    from hypmax import htype as ht
    from hypmax.drsets import AdmissibleCylinder
    from hypmax.htype import NPoint

    ab1 = ht.degenerate_abelian(1)
    gh = ms.build_grid("h2", (-3.0, 3.0, -2.0, 1.5), (48, 28))
    gn = ms.build_grid("na", ([], [(-3.0, 3.0)], (-2.0, 1.5)), ([], [48], 28), alg=ab1)
    support = h2.ball(I, 0.8)
    gh.set_values(indicator(support))
    gn.values = gh.values.copy()  # same lattice layout by construction

    xs = np.unique(gh.x)[::8]
    js = (-1, 0)
    Ks = (2, 3)
    fam_h = [h2.admissible_rectangle(float(x), j, K) for x in xs for j in js for K in Ks]
    fam_n = [AdmissibleCylinder(NPoint(np.zeros(0), np.array([x])), j, K) for x in xs for j in js for K in Ks]
    fh = mx.maximal_field(gh, fam_h).values
    fn = mx.maximal_field(gn, fam_n, omega=2.0).values
    # same points in the same order: (x, u) lattice vs (Z, u) lattice
    assert np.allclose(np.sort(fh), np.sort(fn), rtol=1e-12)
    assert fh.max() > 0


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_lp_boundedness_across_refinements(p):
    # operator norms on the admissible-rectangle family stay bounded as the
    # grid refines
    ratios = []
    for res in ((40, 24), (80, 48), (160, 96)):
        g = ms.build_grid("h2", (-4.0, 4.0, -2.0, 2.0), res)
        g.set_values(lambda x, y: np.minimum(1.0 / y, 8.0) * (np.abs(x) < 2.0) * (y < 4.0))
        fam = mx.admissible_family_for_grid(g, k_max=6, max_x=32)
        fld = mx.maximal_field(g, fam)
        f_norm = mx.lp_norm(g, p)
        g.values = fld.values
        ratios.append(mx.lp_norm(g, p) / f_norm)
    assert max(ratios) <= 10.0
    assert max(ratios) / min(ratios) <= 1.5


# ----------------------------------------------------------- op comparison

def test_comparison_constants():
    K = mx.comparison_constants()
    assert K["K1"] == pytest.approx(2.6671788111507855 / 1.7061381326424512, rel=1e-6)
    assert K["K2"] == pytest.approx(2.132243021261012, rel=1e-6)
    assert K["K3"] == pytest.approx(2 * math.e**4 / (2 * math.pi * math.sinh(0.5) ** 2), rel=1e-12)
    # trigonon/half-ball area ratio approaches 4/pi from above at large R
    big = 60.0
    tail = (2 * math.exp(big) * math.sqrt(1 - math.exp(-2 * big)) - 2 * math.acos(math.exp(-big))) / (
        2 * math.pi * math.sinh(big / 2) ** 2
    )
    assert tail == pytest.approx(4 / math.pi, rel=1e-9)
    assert K["K1"] > 4 / math.pi


def test_comparison_constants_are_the_ratios_at_R_1():
    """K1 and K2 are the largest of their area ratios on a 0.01 grid of
    [1, 60], and at R = 60 the ratios are at their limits 4/pi and pi/2
    (beyond R ~ 30 the float ratios plateau with 1-ulp noise)."""
    K = mx.comparison_constants()

    def half(R):
        return h2.area(h2.half_ball(h2.HPoint(0.0, 1.0), R))

    radii = [1.0 + k / 100 for k in range(5901)]
    k1 = [h2.trigonon_area(R) / half(R) for R in radii]
    k2 = [half(R + math.log(2.0)) / h2.trigonon_area(R) for R in radii]
    assert max(k1) == k1[0] == K["K1"] and max(k2) == k2[0] == K["K2"]
    assert radii[-1] == 60.0
    assert abs(k1[-1] - 4 / math.pi) < 1e-12 and abs(k2[-1] - math.pi / 2) < 1e-12


def test_comparison_constants_are_computed_once_per_process(monkeypatch):
    # the constants of the sweep, each call a new dict with the same bits
    R = np.linspace(1.0, 40.0, 40_000)
    T = 2 * np.exp(R) * np.sqrt(1 - np.exp(-2 * R)) - 2 * np.arccos(np.exp(-R))
    b = 2 * np.pi * np.sinh(R / 2) ** 2
    b_shift = 2 * np.pi * np.sinh((R + math.log(2)) / 2) ** 2
    want = {"K1": float((T / b).max()), "K2": float((b_shift / T).max()),
            "K3": 2.0 * math.exp(4.0) / (2.0 * math.pi * math.sinh(0.5) ** 2)}
    first = mx.comparison_constants()
    assert first == want
    first["K1"] = 0.0
    calls = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
    assert mx.comparison_constants() == want
    assert mx.comparison_constants() is not mx.comparison_constants()
    assert calls == []


def test_operator_compare_random_fields():
    rng = np.random.default_rng(11)
    g = make_grid(window=(-4.0, 4.0, -2.0, 2.0), res=(64, 48))
    for trial in range(3):
        g.values = np.abs(rng.normal(size=g.size))
        rep = mx.operator_compare(g, ladder_steps=3, max_per_axis=10)
        assert rep.all_pass, rep.to_json()
