"""Command-line driver: validation, area/volume tables, maximal-function
experiments, level-set bound tables, overlap/covering reports, packing
sums and SVG figures.

Configuration precedence is flags > config file > defaults; the config
file is flat ``key=value`` lines whose keys are flag names.  Every
stochastic run requires a seed (the default seed is 0) and reports are
byte-identical for identical (config, seed).  Exit status is 0 iff every
asserted bound passes, 1 when one fails, and 2 on invalid input, on a
Monte Carlo estimate whose draw has no hit (``report.NoHits``) or on a
report that cannot be written, reported as one ``hypmax: error:`` line on
stderr.

Importing this module loads only ``hyp2`` and ``report`` of the package
(and numpy through them).  Each subcommand imports the modules it runs
inside its ``cmd_*`` function, so a fresh process pays only for those:
``areas`` and ``figures`` load no other module, ``maxfn`` loads neither
``experiments`` nor ``figures``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, hyp2
from .hyp2 import HPoint
from .report import ExperimentReport, NoHits

DEFAULTS = {
    "space": "h2",
    "family": "half_ball",
    "seed": 0,
    "samples": 200_000,
    "grid": "-4:4:-2:2:96:64",
    "alpha_ladder": "2^-1..2^-8",
    "R": "1",
    "profile": "ball",
    "levels": 4,
    "count": 40,
    "figure": "rectangle",
    "z": "1.5,2.0",
    "level": 0,
    "format": "json",
    "out": None,
    "nu": 1,
}


@dataclass
class RunConfig:
    subcommand: str
    options: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name)


class UsageError(ValueError):
    """Invalid command-line or config input; exit status 2."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals (an unknown flag or subcommand, a
    flag value of the wrong type) raise ``UsageError``, so that ``main``
    prints them as one line, instead of the usage block and exit."""

    def error(self, message):
        raise UsageError(message)


# the most cells of any grid a subcommand builds, checked before anything is
# allocated.  The overlap grid has 10^p 12^q 36 cells and stores 8 bytes per
# cell (its values; the cell weights are one factor per height); the whole
# command peaks at about 40 MB RSS on dr-abelian:4 (746,496 cells) and 48 MB
# on dr-heisenberg:2 (4,320,000).  The cap admits dr-heisenberg:1-2 and
# dr-abelian:1-4, and refuses dr-heisenberg:3 (432,000,000 cells, 3.5 GB of
# values alone) and dr-abelian:5 and up; a --grid of maxfn or levelset above
# it is refused too
MAX_GRID_CELLS = 5_000_000

# the half-plane kernels square the heights y = e^u (y * y, and products of
# y with the families' centre heights) and the weights take e^(-u).  For
# |u| <= 177, the integer part of -ln(DBL_MIN) / 4 = 177.09..., y * y lies
# in [e^-354, e^354], inside [2^-511, 2^511]: a normal float with a factor
# of 2^511 to spare on either side for those products, and e^(+-u) are far
# from overflow and underflow
GRID_LOG_HEIGHT_MAX = math.floor(-math.log(sys.float_info.min) / 4.0)

# the half-plane kernels square the difference x - zx of a grid point and a
# member's centre, both inside the window (``hyp2._dx2``), and add to it the
# square of a difference of heights, which the bound above keeps within
# 2^1022 (y * y and its 2^511 to spare).  For |x| <= 2^510 the difference
# is at most 2^511 and its square at most 2^1022, so the sum stays within
# 2^1023, below the largest float (2 - 2^-52) 2^1023; the cell widths
# (x1 - x0) / nx and their products with the height weights stay far below
GRID_X_MAX = 2.0**510

# the largest radius of each subcommand that reads --R, from the largest
# expression it forms.  areas forms the ball area 4 pi sinh^2(R/2) < pi e^R
# (the half ball, trigonon, rectangle (2 e^R) and modified half ball are
# smaller), finite for R <= ln(DBL_MAX / pi) = 708.63...  volume samples
# the ball about (0, 1) in its padded box |x| < 1.2 sinh R < 0.6 e^R,
# e^-R / 1.1 < y < 1.1 e^R: the box measure 2.4 sinh(R) (1.1 e^R - e^-R / 1.1)
# < 1.32 e^(2R) and the ball test's x^2 + (y - 1)^2 < (0.6^2 + 1.1^2) e^(2R)
# stay below 2 e^(2R) (the other sets' boxes are smaller), finite for
# R <= ln(DBL_MAX / 2) / 2 = 354.54...  The rectangle figure forms only
# e^-R Im z, which underflows to 0.0 without error, so any finite R draws
RADIUS_MAX = {
    "areas": math.floor(math.log(sys.float_info.max / math.pi)),
    "volume": math.floor(math.log(sys.float_info.max / 2.0) / 2.0),
    "figures": math.inf,
}

# the smallest radius of each subcommand that reads --R.  volume samples the
# sets about (0, 1), whose heights span a log-height of about R next to 1,
# where floats are 2^-53 or 2^-52 apart: rounding the sampled heights moves
# the estimate by about 2^-52 / R of itself.  From R = 2^-32 that bias is
# 2^-20, below 3 stderr for fewer than 2^40 samples, more than a desk-scale
# run can hold; at the default 200,000 samples it reached the stderr near
# R = 1e-14.  areas and the rectangle figure form every value for any R > 0
RADIUS_MIN = {"areas": 0.0, "volume": 2.0**-32, "figures": 0.0}

# the smallest alpha 2^-m of each subcommand that reads --alpha-ladder, from
# the largest expression it forms.  levelset: |f| <= 20 and the weights sum
# to at most 2^511 e^177 (GRID_X_MAX, GRID_LOG_HEIGHT_MAX), so its check's
# 1.02 * 4 sum w (|f|/alpha) log1p(|f|/(alpha lam)), lam = 0.0377..., stays
# below 2^773 2^m log1p(530 2^m) < 2^1024 for m <= 243 (its admissible
# rectangles then reach K = 170).  eta: its chain check squares e^j - 1 for
# j < R_alpha = floor(ln(c1 / (C1^2 e alpha))), finite for j <= 354, so for
# R_alpha <= 355, which holds for m <= 518
ALPHA_EXPONENT_MAX = {"levelset": 243, "eta": 518}

# the rectangle figure maps Re z -+ 2 Im z onto 540 pixels, printed to 4
# decimals.  Each rounded end is off by at most 2^-53 (|Re z| + 2 Im z), so
# for |Re z| <= 2^31 Im z by at most 135 (2^31 + 2) 2^-53 < 5e-5 pixels.
# Im z in [2^-1000, 2^990] keeps both ends and both scales normal and finite
Z_RE_PER_IM_MAX = 2.0**31
Z_IM_RANGE = (2.0**-1000, 2.0**990)


def parse_grid(spec: str):
    """The --grid window and shape x0:x1:u0:u1:nx:nu (u = log y): finite
    bounds with x0 < x1 and u0 < u1, x within ``GRID_X_MAX`` and
    log-heights within ``GRID_LOG_HEIGHT_MAX`` of 0, and at least one and
    at most ``MAX_GRID_CELLS`` cells."""
    parts = spec.split(":")
    if len(parts) != 6:
        raise UsageError("grid spec must be x0:x1:u0:u1:nx:nu")
    try:
        x0, x1, u0, u1 = map(float, parts[:4])
        nx, nu = int(parts[4]), int(parts[5])
    except ValueError:
        raise UsageError(f"grid spec {spec!r}: bounds must be numbers and nx, nu integers") from None
    if not all(map(math.isfinite, (x0, x1, u0, u1))):
        raise UsageError(f"grid spec {spec!r}: bounds must be finite")
    if not (x0 < x1 and u0 < u1):
        raise UsageError(f"grid spec {spec!r}: need x0 < x1 and u0 < u1")
    if not -GRID_X_MAX <= x0 < x1 <= GRID_X_MAX:
        raise UsageError(
            f"grid spec {spec!r}: x0, x1 must lie in [-2^510, 2^510], where squared differences of x stay finite"
        )
    if not -GRID_LOG_HEIGHT_MAX <= u0 < u1 <= GRID_LOG_HEIGHT_MAX:
        lim = GRID_LOG_HEIGHT_MAX
        raise UsageError(
            f"grid spec {spec!r}: log-heights u0, u1 must lie in [-{lim}, {lim}], where y*y and e^(+-u) stay finite and positive"
        )
    if nx < 1 or nu < 1:
        raise UsageError(f"grid spec {spec!r}: nx and nu must be >= 1")
    if nx * nu > MAX_GRID_CELLS:
        raise UsageError(f"grid spec {spec!r}: {nx * nu:,} cells, above the cap of {MAX_GRID_CELLS:,}")
    return (x0, x1, u0, u1), (nx, nu)


def parse_alpha_ladder(cfg):
    """The --alpha-ladder of the run ``cfg`` as (alphas, exponents):
    '2^-3..2^-10' gives the dyadic ladder 2^-m and the list of its m, comma
    floats give None.  Every alpha must lie in [2^-m, 2^1023], m the
    subcommand's ``ALPHA_EXPONENT_MAX``."""
    spec, most = str(cfg.alpha_ladder), ALPHA_EXPONENT_MAX[cfg.subcommand]
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            m1 = int(lo.replace("2^", ""))
            m2 = int(hi.replace("2^", ""))
            ms_range = range(min(-m1, -m2), max(-m1, -m2) + 1)
        else:
            vals, ms_range = [float(v) for v in spec.split(",")], None
    except ValueError:
        raise UsageError(f"alpha ladder {spec!r}: expected 2^-a..2^-b or comma floats") from None
    # a dyadic ladder is checked on its exponents, before any 2^-m is formed
    if ms_range is not None and -1023 <= ms_range[0] and ms_range[-1] <= most:
        return [2.0**-m for m in ms_range], list(ms_range)
    if ms_range is not None or not all(2.0**-most <= v <= 2.0**1023 for v in vals):
        raise UsageError(f"alpha ladder {spec!r}: {cfg.subcommand} takes alphas in [2^-{most}, 2^1023], where its numbers stay finite")
    return vals, None


def parse_int(value, flag: str, least: int = None) -> int:
    """An integer option, given as a flag or as a config-file string,
    checked to be at least ``least`` when that is given."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} {value!r}: expected an integer") from None
    if least is not None and n < least:
        raise UsageError(f"{flag} {n}: must be at least {least}")
    return n


def parse_radii(cfg) -> list:
    """The --R comma list of radii of the run ``cfg``, given as a flag or as
    a config-file string, each checked to be positive, finite and within
    the ``RADIUS_MIN`` and ``RADIUS_MAX`` of its subcommand."""
    value, least, most = cfg.R, RADIUS_MIN[cfg.subcommand], RADIUS_MAX[cfg.subcommand]
    try:
        radii = [float(v) for v in str(value).split(",")]
    except ValueError:
        raise UsageError(f"--R {value!r}: expected a comma list of numbers") from None
    if not all(0.0 < R < math.inf for R in radii):
        raise UsageError(f"--R {value!r}: every radius must be positive and finite")
    if not all(least <= R for R in radii):
        raise UsageError(f"--R {value!r}: {cfg.subcommand} takes radii from 2^{math.log2(least):.0f}, where its sampled heights resolve the sets")
    if not all(R <= most for R in radii):
        raise UsageError(f"--R {value!r}: {cfg.subcommand} takes radii up to {most}, where its areas and boxes stay finite")
    return radii


# the least valid value of each integer option: numpy seeds are non-negative,
# family sizes and sample counts positive
_INT_LEAST = {"seed": 0, "samples": 1, "count": 1, "nu": None}

# the most --samples of each subcommand that reads it, where memory does not
# bind: run time does.  The Monte Carlo hit counts stream their draws in
# chunks of drsets.MC_CHUNK, so their memory does not grow with the count.
# volume: 25,000,000 samples ran in 3.5 s on h2 (one radius, four sets) and
# 3.1 s on dr-abelian:3, at 40 MB RSS; pack: about 46 ns a lens sample, so
# 1,000,000,000 run for about 46 s (measured on one core of an Intel Xeon).
# validate draws min(--samples, 20,000); vitali on the abelian q = 1 backend
# takes its union exactly and draws nothing for it, so both take any count
SAMPLES_MAX = {"validate": math.inf, "volume": 25_000_000, "vitali": math.inf, "pack": 1_000_000_000}

# the bytes of draws a run may hold whole, whatever its space.  What still
# grows with --samples takes a fixed number of bytes a sample, which grows
# with p + q: drsets.omega_n's draws in volume off the abelian backend,
# 8 (p + q), and the Vitali union's sample columns, their sort order and one
# permuted row, 8 (p + q + 2).  dr-heisenberg:2 volume at 25,000,000
# samples (its cap) peaked at 990 MB RSS in 5.5 s and vitali at 16,000,000
# (--count 30) at 893 MB in 9.6 s; at 2,000,000 samples dr-heisenberg:8
# (p + q = 17) volume peaked at 296 MB and vitali at 336 MB, about 30 MB
# above these bytes
SAMPLES_BUDGET_BYTES = 1_000_000_000

# the most p + q of a --space, refused in _algebra before anything is built.
# Whatever its other flags, a run holds arrays whose bytes grow with p + q:
# the bracket coefficients, 8 p^2 q (0.8 MB at most within this cap);
# validate's 20,000-row draws and J_Z products, seven of at most
# 160,000 (p + q); an NA mc_volume chunk, 8 MC_CHUNK (p + q + 1); and the
# largest, the 400,000 draws of experiments.vitali_select's omega_n,
# 3,200,000 (p + q).  SAMPLES_BUDGET_BYTES of those admit p + q <= 312:
# dr-abelian:1-312 and dr-heisenberg:1-155
MAX_SPACE_DIM = SAMPLES_BUDGET_BYTES // (8 * 400_000)


def samples_max(cfg):
    """The most --samples the run ``cfg`` takes: its subcommand's
    ``SAMPLES_MAX``, and no more than ``SAMPLES_BUDGET_BYTES`` hold of the
    draws it keeps whole on its space."""
    held = 0
    if cfg.subcommand in ("volume", "vitali") and cfg.space != "h2":
        alg = _algebra(cfg.space)
        if cfg.subcommand == "volume" and alg.p:
            held = 8 * (alg.p + alg.q)
        elif cfg.subcommand == "vitali" and (alg.p, alg.q) != (0, 1):
            held = 8 * (alg.p + alg.q + 2)
    most = SAMPLES_MAX[cfg.subcommand]
    return min(most, SAMPLES_BUDGET_BYTES // held) if held else most


def _int(cfg, name: str) -> int:
    """The integer option ``name`` of the run ``cfg``; --samples is checked
    against ``samples_max`` too, before any draw."""
    n = parse_int(cfg.options[name], f"--{name}", _INT_LEAST[name])
    most = samples_max(cfg) if name == "samples" else math.inf
    if n > most:
        raise UsageError(
            f"--samples {n}: {cfg.subcommand} on {cfg.space} takes at most {most:,}, where its draws stay within their memory and run-time budget"
        )
    return n


def parse_point(value) -> tuple:
    """The --z figure centre x,y, given as a flag or as a config-file
    string: two numbers with y in ``Z_IM_RANGE`` and |x| at most
    ``Z_RE_PER_IM_MAX`` y."""
    try:
        zx, zy = (float(v) for v in str(value).split(","))
    except ValueError:
        raise UsageError(f"--z {value!r}: expected two comma-separated numbers x,y") from None
    if not (Z_IM_RANGE[0] <= zy <= Z_IM_RANGE[1] and abs(zx) <= Z_RE_PER_IM_MAX * zy):
        raise UsageError(f"--z {value!r}: need 2^-1000 <= y <= 2^990 and |x| <= 2^31 y, where the figure's scale is exact")
    return zx, zy


def parse_packing_level(value, flag: str) -> int:
    """A packing level from --level/--levels, checked against the range
    0..``hyp2.MAX_PACKING_LEVEL`` that ``hyp2.packing_construct`` can
    represent."""
    level = parse_int(value, flag)
    if not 0 <= level <= hyp2.MAX_PACKING_LEVEL:
        raise UsageError(f"{flag} {level}: packing levels run 0..{hyp2.MAX_PACKING_LEVEL}")
    return level


def load_config(path: str) -> dict:
    """The flat key=value lines of a config file; every key must name a
    flag (a key of ``DEFAULTS``, with - or _)."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise UsageError(f"--config {path!r}: {exc.strerror}") from None
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS:
            raise UsageError(f"--config {path!r}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def _profile_fn(name: str):
    if name == "ball":
        s = hyp2.ball(HPoint(0.0, 1.0), 1.0)
        return lambda x, y: hyp2.contains_mask(s, x, y).astype(float)
    if name == "rect":
        s = hyp2.rectangle(HPoint(0.0, 1.0), 1.0)
        return lambda x, y: hyp2.contains_mask(s, x, y).astype(float)
    if name == "height":
        return lambda x, y: np.minimum(1.0 / y, 20.0) * (np.abs(x) < 2.0) * (y < 4.0)
    raise UsageError(f"unknown profile {name!r}")


def _family_for(grid, name: str):
    from . import maxop as mx

    if name == "admissible_rectangle":
        return mx.admissible_family_for_grid(grid, k_max=6)
    try:
        return mx.h2_lattice(name, mx.grid_centers(grid, 12), mx.radius_ladder(1.0, 4))
    except ValueError as exc:
        raise UsageError(f"--family {name!r} is not a half-plane family with radii ({exc})") from None


def _require_h2(cfg) -> None:
    if cfg.space != "h2":
        raise UsageError(f"--space {cfg.space!r}: {cfg.subcommand} runs on the half-plane only; use --space h2")


def _algebra(spec: str):
    from . import htype as ht

    kind, _, dim = spec.partition(":")
    try:  # p + q of dr-abelian:q and dr-heisenberg:d, read from the spec alone
        dims = {"dr-abelian": int(dim), "dr-heisenberg": 2 * int(dim) + 1}.get(kind, 0)
    except ValueError:
        dims = 0  # not a number: make_algebra refuses the spec
    if dims > MAX_SPACE_DIM:
        raise UsageError(f"--space {spec!r}: p + q = {dims:,}, above the cap of {MAX_SPACE_DIM}, where its arrays stay within 1 GB")
    try:
        return ht.make_algebra(spec)
    except ValueError as exc:
        raise UsageError(f"--space {spec!r}: {exc}") from None


# ------------------------------------------------------------- subcommands

def cmd_validate(cfg) -> ExperimentReport:
    from . import htype as ht

    alg = _algebra(cfg.space)
    res = ht.validate_algebra(alg, samples=min(_int(cfg, "samples"), 20_000), seed=_int(cfg, "seed"))
    rep = ExperimentReport(meta=_meta(cfg))
    rep.add_table("residuals", ["identity", "residual"], [[k, v] for k, v in res.items()])
    rep.check("antisymmetry", 1e-12, res["antisymmetry"], res["antisymmetry"] < 1e-12)
    for key in ("defining_relation", "h_type", "polarisation"):
        rep.check(key, 1e-10, res[key], res[key] < 1e-10)
    return rep


def cmd_areas(cfg) -> ExperimentReport:
    _require_h2(cfg)
    rep = ExperimentReport(meta=_meta(cfg))
    rows = []
    ok = True
    for R in parse_radii(cfg):
        z = HPoint(0.0, 1.0)
        ball = hyp2.area(hyp2.ball(z, R))
        half = hyp2.area(hyp2.half_ball(z, R))
        rows.append(
            [R, ball, half, hyp2.area(hyp2.trigonon(z, R)), hyp2.area(hyp2.rectangle(z, R)),
             hyp2.area(hyp2.modified_half_ball(z, max(R, 1.0)))]
        )
        ok &= half == 0.5 * ball
    rep.add_table("areas", ["R", "ball", "half_ball", "trigonon", "rectangle", "modified_half_ball"], rows)
    rep.check("half_ball_is_half_ball_area", 0.5, 0.5, ok)
    return rep


def cmd_volume(cfg) -> ExperimentReport:
    from . import measure as ms

    rep = ExperimentReport(meta=_meta(cfg))
    seed, samples = _int(cfg, "seed"), _int(cfg, "samples")
    rows = []
    ok = True
    if cfg.space == "h2":
        for R in parse_radii(cfg):
            for name in ("ball", "half_ball", "trigonon", "rectangle"):
                s = hyp2.H2Set(hyp2.SetKind(name), HPoint(0.0, 1.0), R)
                est = ms.mc_volume("h2", s, ms.suggested_box_h2(s), samples, seed)
                exact = hyp2.area(s)
                good = abs(est.mean - exact) <= 3 * est.stderr
                ok &= good
                rows.append([name, R, exact, est.mean, est.stderr, good])
    else:
        from . import drsets, htype as ht

        alg = _algebra(cfg.space)
        omega = drsets.omega_n(alg) if alg.p == 0 else drsets.omega_n(alg, "mc", samples, seed).mean
        for R in (2.0, 3.0):
            c = drsets.Cylinder(ht.identity_n(alg), 1.0, R)
            box = ([(-2.2, 2.2)] * alg.p, [(-1.2, 1.2)] * alg.q, (c.base_height, math.inf))
            est = ms.mc_volume("na", c, box, samples, seed, alg=alg)
            exact = drsets.cylinder_volume(alg, c, omega)
            good = abs(est.mean - exact) <= 3 * est.stderr
            ok &= good
            rows.append(["cylinder", R, exact, est.mean, est.stderr, good])
    rep.add_table("volumes", ["set", "R", "closed_form", "mc", "stderr", "pass"], rows)
    rep.check("mc_within_3_stderr", 3.0, 3.0, ok)
    return rep


def cmd_maxfn(cfg) -> ExperimentReport:
    from . import maxop as mx, measure as ms

    _require_h2(cfg)
    window, res = parse_grid(cfg.grid)
    grid = ms.build_grid("h2", window, res)
    grid.set_values(_profile_fn(cfg.profile))
    fam = _family_for(grid, cfg.family)
    fld = mx.maximal_field(grid, fam)
    rep = ExperimentReport(meta=_meta(cfg))
    rep.add_table("grid", ["window", "shape", "total_measure"], [[str(window), str(res), grid.total_measure()]])
    rep.add_table(
        "field",
        ["statistic", "value"],
        [
            ["sup", float(fld.values.max())],
            ["mean", float(fld.values.mean())],
            ["support_measure", float(grid.weights[fld.values > 0].sum())],
        ],
    )
    if cfg.profile in ("ball", "rect"):
        rep.check("indicator_average_le_one", 1.03, float(fld.values.max()), fld.values.max() <= 1.03)
    return rep


def cmd_levelset(cfg) -> ExperimentReport:
    from . import maxop as mx, measure as ms

    _require_h2(cfg)
    if _int(cfg, "nu") != 1:
        raise UsageError("level-set tables are computed on the nu = 1 backend")
    window, res = parse_grid(cfg.grid)
    grid = ms.build_grid("h2", window, res)
    grid.set_values(_profile_fn(cfg.profile))
    alphas, _ = parse_alpha_ladder(cfg)
    fam = mx.admissible_family_for_grid(grid, k_max=max(4, math.ceil(math.log(1.0 / min(alphas))) + 1))
    rows, _fld = mx.level_set_table(grid, fam, alphas)
    lam = mx.llogl_lambda(1.0)
    rep = ExperimentReport(meta=_meta(cfg))
    rep.add_table("grid", ["window", "shape", "total_measure"], [[str(window), str(res), grid.total_measure()]])
    table = []
    ok = True
    for alpha, measure_val in rows:
        rhs = 4.0 * mx.llogl_rhs(grid, alpha, lam)
        passed = measure_val <= rhs + 0.02 * max(rhs, 1.0)
        ok &= passed
        table.append([alpha, measure_val, rhs, passed])
    rep.add_table("levelset", ["alpha", "measure", "rhs_bound", "pass"], table)
    rep.check("llogl_bound", 4.0, lam, ok)
    return rep


def cmd_overlap(cfg) -> ExperimentReport:
    from . import experiments as ex, measure as ms

    alg = _algebra(cfg.space)
    exact = alg.p == 0 and alg.q == 1
    shape = ([10] * alg.p, [12] * alg.q, 36)
    cells = math.prod(shape[0] + shape[1]) * shape[2]
    if not exact and cells > MAX_GRID_CELLS:
        raise UsageError(
            f"--space {cfg.space!r}: the overlap grid would have {cells:,} cells, above the cap of {MAX_GRID_CELLS:,}"
        )
    rng = np.random.default_rng(_int(cfg, "seed"))
    fam = ex.build_maximal_family(
        alg, ex.random_admissible_cylinders(alg, _int(cfg, "count"), rng), seed=_int(cfg, "seed")
    )
    if exact:
        prof = ex.overlap_profile_exact(fam)
    else:
        grid = ms.build_grid("na", ([(-8.0, 8.0)] * alg.p, [(-8.0, 8.0)] * alg.q, (-9.0, 3.0)), shape, alg=alg)
        prof = ex.overlap_profile(fam, grid)
    rep = ex.overlap_report(prof)
    rep.meta = _meta(cfg) | {"family_size": len(fam.cylinders)}
    return rep


def cmd_vitali(cfg) -> ExperimentReport:
    from . import experiments as ex

    samples, alg = _int(cfg, "samples"), _algebra(cfg.space)
    rng = np.random.default_rng(_int(cfg, "seed"))
    fam = ex.random_horocycle_family(alg, _int(cfg, "count"), -2, rng)
    _sel, rep = ex.vitali_select(alg, fam, samples=samples, seed=_int(cfg, "seed"))
    rep.meta = _meta(cfg)
    return rep


def cmd_eta(cfg) -> ExperimentReport:
    from . import experiments as ex

    _, m_range = parse_alpha_ladder(cfg)
    if m_range is None:
        raise UsageError("eta requires a dyadic ladder like 2^-6..2^-14")
    try:
        rep = ex.dirac_level_growth(m_range)
    except ValueError as exc:
        raise UsageError(f"--alpha-ladder {cfg.alpha_ladder!r}: {exc}") from None
    rep.meta = _meta(cfg) | rep.meta
    return rep


def cmd_pack(cfg) -> ExperimentReport:
    from . import experiments as ex

    samples = _int(cfg, "samples")
    levels = hyp2.packing_construct(parse_packing_level(cfg.levels, "--levels"))
    rep = ex.packing_report(levels, seed=_int(cfg, "seed"))
    rep.meta = _meta(cfg)
    # the L^p increments are calibrated on the full desk-scale depth 0..4
    ps = (1.0, 2.0, 3.0)
    subs = ex.modified_lp_sums(ps, 4, samples=samples, check_points=30, seed=_int(cfg, "seed"))
    for p, sub in zip(ps, subs):
        for t in sub.tables:
            rep.tables.append(type(t)(f"p={p}:{t.name}", t.columns, t.rows))
        for a in sub.assertions:
            rep.check(f"p={p}:{a.name}", a.bound, a.observed, a.passed)
    return rep


def cmd_figures(cfg) -> str:
    from . import figures

    if cfg.figure not in figures.FIGURES:
        raise UsageError(f"--figure {cfg.figure!r}: expected one of {' | '.join(figures.FIGURES)}")
    params = {}
    if cfg.figure == "rectangle":
        params = {"z": parse_point(cfg.z), "R": parse_radii(cfg)[0]}
    elif cfg.figure == "halfballs":
        params = {"level": parse_packing_level(cfg.level, "--level")}
    elif cfg.figure == "packing":
        params = {"levels": parse_packing_level(cfg.levels, "--levels")}
    return figures.emit_figure(cfg.figure, params)


COMMANDS = {
    "validate": cmd_validate,
    "areas": cmd_areas,
    "volume": cmd_volume,
    "maxfn": cmd_maxfn,
    "levelset": cmd_levelset,
    "overlap": cmd_overlap,
    "vitali": cmd_vitali,
    "eta": cmd_eta,
    "pack": cmd_pack,
}


def _meta(cfg) -> dict:
    return {
        "seed": _int(cfg, "seed"),
        "version": __version__,
        "config": {k: cfg.options[k] for k in sorted(cfg.options) if cfg.options[k] is not None},
    }


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hypmax",
        description="Numerical experiments for half-ball maximal operators "
        "on the hyperbolic half-plane and NA group backends.",
        epilog="CSV output is one block per table. The levelset table has "
        "columns alpha,measure,rhs_bound,pass; every report ends with an "
        "assertions block name,bound,observed,pass. Values starting with a "
        "dash need the --flag=value form (e.g. --grid=-4:4:-2:2:96:64).",
    )
    ap.add_argument("subcommand", choices=list(COMMANDS) + ["figures"])
    ap.add_argument("--space", help="h2 | dr-abelian:q | dr-heisenberg:d")
    ap.add_argument("--family", help="set family for maxfn (half_ball, trigonon, rectangle, admissible_rectangle, ...)")
    ap.add_argument("--seed", type=int, help="RNG seed (required for reproducibility; default 0)")
    ap.add_argument("--samples", type=int, help="Monte Carlo sample count (validate draws min(samples, 20000))")
    ap.add_argument("--grid", help="grid window x0:x1:u0:u1:nx:nu (u = log y)")
    ap.add_argument("--alpha-ladder", dest="alpha_ladder", help="dyadic ladder 2^-a..2^-b or comma floats")
    ap.add_argument("--R", help="radius or comma list of radii")
    ap.add_argument("--profile", help="test function: ball | rect | height")
    ap.add_argument("--levels", type=int, help=f"max packing level, 0..{hyp2.MAX_PACKING_LEVEL}")
    ap.add_argument("--count", type=int, help="generated family size")
    ap.add_argument("--figure", help="figure kind: rectangle | halfballs | packing")
    ap.add_argument("--z", help="figure center as x,y")
    ap.add_argument("--level", type=int, help=f"packing level for the halfballs figure, 0..{hyp2.MAX_PACKING_LEVEL}")
    ap.add_argument("--nu", type=int, help="homogeneous dimension for levelset tables")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--out", help="output path (default: stdout, or $HYPMAX_OUT/<subcommand>.<ext>)")
    ap.add_argument("--format", help="output format: json | csv for reports, svg for figures")
    return ap


def resolve_config(argv) -> RunConfig:
    args = vars(build_parser().parse_args(argv))
    sub = args.pop("subcommand")
    cfg_path = args.pop("config", None)
    user = load_config(cfg_path) if cfg_path else {}
    user.update({k: v for k, v in args.items() if v is not None})
    # only a format the user set is checked: the default json is a report's
    formats = ("svg",) if sub == "figures" else ("json", "csv")
    if user.get("format", formats[0]) not in formats:
        raise UsageError(f"--format {user['format']!r}: {sub} writes {' | '.join(formats)}")
    return RunConfig(sub, DEFAULTS | user)


def run(cfg: RunConfig):
    """Execute one subcommand; returns (exit status, rendered output)."""
    if cfg.subcommand == "figures":
        body = cmd_figures(cfg)
        _write(cfg, body, "svg")
        return 0, body
    rep = COMMANDS[cfg.subcommand](cfg)
    body = rep.to_json() if cfg.format == "json" else rep.to_csv()
    _write(cfg, body, cfg.format)
    if not rep.all_pass:
        failures = [
            {"name": a.name, "bound": a.bound, "observed": a.observed} for a in rep.failures()
        ]
        print(json.dumps({"failed_assertions": failures}), file=sys.stderr)
        return 1, body
    return 0, body


def _write(cfg, body: str, ext: str) -> None:
    out = cfg.options.get("out")
    if out is None and os.environ.get("HYPMAX_OUT"):
        out = os.path.join(os.environ["HYPMAX_OUT"], f"{cfg.subcommand}.{ext}")
    if out:
        try:
            os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
            with open(out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from None
    else:
        sys.stdout.write(body + "\n")


def main(argv=None) -> int:
    try:
        return run(resolve_config(argv))[0]
    except (UsageError, NoHits) as exc:
        print(f"hypmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
