"""Command-line driver: validation, area/volume tables, maximal-function
experiments, level-set bound tables, overlap/covering reports, packing
sums and SVG figures.

Configuration precedence is flags > config file > defaults; the config
file is flat ``key=value`` lines whose keys are flag names.  Every
stochastic run requires a seed (the default seed is 0) and reports are
byte-identical for identical (config, seed).  Exit status is 0 iff every asserted bound passes, 1 when
one fails, and 2 on invalid input, reported as one ``hypmax: error:`` line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, drsets, experiments as ex, figures, htype as ht, hyp2, maxop as mx, measure as ms
from .hyp2 import HPoint
from .report import ExperimentReport

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


def parse_grid(spec: str):
    """The --grid window and shape x0:x1:u0:u1:nx:nu (u = log y): finite
    bounds with x0 < x1 and u0 < u1, log-heights within
    ``GRID_LOG_HEIGHT_MAX`` of 0, and at least one and at most
    ``MAX_GRID_CELLS`` cells."""
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


def parse_alpha_ladder(spec: str):
    """'2^-3..2^-10' gives the dyadic ladder; otherwise comma floats."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            m1 = int(lo.replace("2^", ""))
            m2 = int(hi.replace("2^", ""))
            ms_range = range(min(-m1, -m2), max(-m1, -m2) + 1)
            return [2.0**-m for m in ms_range], list(ms_range)
        vals = [float(v) for v in spec.split(",")]
    except ValueError:
        raise UsageError(f"alpha ladder {spec!r}: expected 2^-a..2^-b or comma floats") from None
    if not all(0.0 < v < math.inf for v in vals):
        raise UsageError(f"alpha ladder {spec!r}: every alpha must be positive and finite")
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


def parse_radii(value) -> list:
    """The --R comma list of radii, given as a flag or as a config-file
    string, each checked to be positive and finite."""
    try:
        radii = [float(v) for v in str(value).split(",")]
    except ValueError:
        raise UsageError(f"--R {value!r}: expected a comma list of numbers") from None
    if not all(0.0 < R < math.inf for R in radii):
        raise UsageError(f"--R {value!r}: every radius must be positive and finite")
    return radii


# the least valid value of each integer option: numpy seeds are non-negative,
# family sizes and sample counts positive
_INT_LEAST = {"seed": 0, "samples": 1, "count": 1, "nu": None}


def _int(cfg, name: str) -> int:
    return parse_int(cfg.options[name], f"--{name}", _INT_LEAST[name])


def parse_point(value) -> tuple:
    """The --z figure centre x,y, given as a flag or as a config-file
    string: two numbers, x finite and y positive and finite."""
    try:
        zx, zy = (float(v) for v in str(value).split(","))
    except ValueError:
        raise UsageError(f"--z {value!r}: expected two comma-separated numbers x,y") from None
    if not (math.isfinite(zx) and 0.0 < zy < math.inf):
        raise UsageError(f"--z {value!r}: x must be finite and y positive and finite")
    return zx, zy


def parse_packing_level(value, flag: str) -> int:
    """A packing level from --level/--levels, checked against the range
    that experiments.packing_construct can represent."""
    level = parse_int(value, flag)
    if not 0 <= level <= ex.MAX_PACKING_LEVEL:
        raise UsageError(f"{flag} {level}: packing levels run 0..{ex.MAX_PACKING_LEVEL}")
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
    try:
        return ht.make_algebra(spec)
    except ValueError as exc:
        raise UsageError(f"--space {spec!r}: {exc}") from None


# ------------------------------------------------------------- subcommands

def cmd_validate(cfg) -> ExperimentReport:
    alg = _algebra(cfg.space)
    res = ht.validate_algebra(alg, samples=min(_int(cfg, "samples"), 20_000), seed=_int(cfg, "seed"))
    rep = ExperimentReport("validate", meta=_meta(cfg))
    rep.add_table("residuals", ["identity", "residual"], [[k, v] for k, v in res.items()])
    rep.check("antisymmetry", 1e-12, res["antisymmetry"], res["antisymmetry"] < 1e-12)
    for key in ("defining_relation", "h_type", "polarisation"):
        rep.check(key, 1e-10, res[key], res[key] < 1e-10)
    return rep


def cmd_areas(cfg) -> ExperimentReport:
    _require_h2(cfg)
    rep = ExperimentReport("areas", meta=_meta(cfg))
    rows = []
    ok = True
    for R in parse_radii(cfg.R):
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
    rep = ExperimentReport("volume", meta=_meta(cfg))
    seed, samples = _int(cfg, "seed"), _int(cfg, "samples")
    rows = []
    ok = True
    if cfg.space == "h2":
        makers = {
            "ball": hyp2.ball,
            "half_ball": hyp2.half_ball,
            "trigonon": hyp2.trigonon,
            "rectangle": hyp2.rectangle,
        }
        for R in parse_radii(cfg.R):
            for name, mk in makers.items():
                s = mk(HPoint(0.0, 1.0), R)
                est = ms.mc_volume("h2", s, ms.suggested_box_h2(s), samples, seed)
                exact = hyp2.area(s)
                good = abs(est.mean - exact) <= 3 * est.stderr
                ok &= good
                rows.append([name, R, exact, est.mean, est.stderr, good])
    else:
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
    _require_h2(cfg)
    window, res = parse_grid(cfg.grid)
    grid = ms.build_grid("h2", window, res)
    grid.set_values(_profile_fn(cfg.profile))
    fam = _family_for(grid, cfg.family)
    fld = mx.maximal_field(grid, fam)
    rep = ExperimentReport("maxfn", meta=_meta(cfg))
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
    _require_h2(cfg)
    if _int(cfg, "nu") != 1:
        raise UsageError("level-set tables are computed on the nu = 1 backend")
    window, res = parse_grid(cfg.grid)
    grid = ms.build_grid("h2", window, res)
    grid.set_values(_profile_fn(cfg.profile))
    alphas, _ = parse_alpha_ladder(cfg.alpha_ladder)
    fam = mx.admissible_family_for_grid(grid, k_max=max(4, math.ceil(math.log(1.0 / min(alphas))) + 1))
    rows, _fld = mx.level_set_table(grid, fam, alphas)
    lam = mx.llogl_lambda(1.0)
    rep = ExperimentReport("levelset", meta=_meta(cfg))
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
    rep.name = "overlap"
    rep.meta = _meta(cfg) | {"family_size": len(fam.cylinders)}
    return rep


def cmd_vitali(cfg) -> ExperimentReport:
    alg = _algebra(cfg.space)
    rng = np.random.default_rng(_int(cfg, "seed"))
    fam = ex.random_horocycle_family(alg, _int(cfg, "count"), -2, rng)
    _sel, rep = ex.vitali_select(alg, fam, samples=_int(cfg, "samples"), seed=_int(cfg, "seed"))
    rep.meta = _meta(cfg)
    return rep


def cmd_eta(cfg) -> ExperimentReport:
    _, m_range = parse_alpha_ladder(cfg.alpha_ladder)
    if m_range is None:
        raise UsageError("eta requires a dyadic ladder like 2^-6..2^-14")
    try:
        rep = ex.dirac_level_growth(m_range)
    except ValueError as exc:
        raise UsageError(f"--alpha-ladder {cfg.alpha_ladder!r}: {exc}") from None
    rep.meta = _meta(cfg) | rep.meta
    return rep


def cmd_pack(cfg) -> ExperimentReport:
    levels = ex.packing_construct(parse_packing_level(cfg.levels, "--levels"))
    rep = ex.packing_report(levels, seed=_int(cfg, "seed"))
    rep.name = "pack"
    rep.meta = _meta(cfg)
    # the L^p increments are calibrated on the full desk-scale depth 0..4
    ps = (1.0, 2.0, 3.0)
    subs = ex.modified_lp_sums(ps, 4, samples=_int(cfg, "samples"), check_points=30, seed=_int(cfg, "seed"))
    for p, sub in zip(ps, subs):
        for t in sub.tables:
            rep.tables.append(type(t)(f"p={p}:{t.name}", t.columns, t.rows))
        for a in sub.assertions:
            rep.check(f"p={p}:{a.name}", a.bound, a.observed, a.passed)
    return rep


def cmd_figures(cfg) -> str:
    if cfg.figure not in figures.FIGURES:
        raise UsageError(f"--figure {cfg.figure!r}: expected one of {' | '.join(figures.FIGURES)}")
    params = {}
    if cfg.figure == "rectangle":
        params = {"z": parse_point(cfg.z), "R": parse_radii(cfg.R)[0]}
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
    ap = argparse.ArgumentParser(
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
    ap.add_argument("--samples", type=int, help="Monte Carlo sample count")
    ap.add_argument("--grid", help="grid window x0:x1:u0:u1:nx:nu (u = log y)")
    ap.add_argument("--alpha-ladder", dest="alpha_ladder", help="dyadic ladder 2^-a..2^-b or comma floats")
    ap.add_argument("--R", help="radius or comma list of radii")
    ap.add_argument("--profile", help="test function: ball | rect | height")
    ap.add_argument("--levels", type=int, help=f"max packing level, 0..{ex.MAX_PACKING_LEVEL}")
    ap.add_argument("--count", type=int, help="generated family size")
    ap.add_argument("--figure", help="figure kind: rectangle | halfballs | packing")
    ap.add_argument("--z", help="figure center as x,y")
    ap.add_argument("--level", type=int, help=f"packing level for the halfballs figure, 0..{ex.MAX_PACKING_LEVEL}")
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
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body + "\n")


def main(argv=None) -> int:
    try:
        return run(resolve_config(argv))[0]
    except UsageError as exc:
        print(f"hypmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
