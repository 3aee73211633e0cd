"""CLI parsing, config precedence, deterministic outputs, report schema,
figure generation and exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import hypmax
from hypmax import cli, experiments as ex, figures, hyp2
from hypmax.report import ExperimentReport


def run_cli(argv):
    return cli.run(cli.resolve_config(argv))


def _samples_cap(subcommand: str, space: str):
    return cli.samples_max(cli.resolve_config([subcommand, "--space", space]))


# ----------------------------------------------------------------- parsing

def test_parse_grid():
    window, res = cli.parse_grid("-6:6:-2.5:2.5:100:60")
    assert window == (-6.0, 6.0, -2.5, 2.5) and res == (100, 60)
    with pytest.raises(ValueError):
        cli.parse_grid("1:2:3")


def test_parse_alpha_ladder():
    vals, m_range = cli.parse_alpha_ladder(cli.resolve_config(["levelset", "--alpha-ladder", "2^-3..2^-5"]))
    assert vals == [2.0**-3, 2.0**-4, 2.0**-5]
    assert list(m_range) == [3, 4, 5]
    vals, m_range = cli.parse_alpha_ladder(cli.resolve_config(["eta", "--alpha-ladder", "0.5,0.25"]))
    assert vals == [0.5, 0.25] and m_range is None


def test_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("R=2\nseed=7\n")
    cfg = cli.resolve_config(["areas", "--config", str(cfg_file), "--R", "3"])
    assert cfg.R == "3"  # flag beats config
    assert int(cfg.seed) == 7  # config beats default
    assert cfg.space == "h2"  # default


# ------------------------------------------------------------ determinism

def test_byte_identical_output():
    status1, body1 = run_cli(["vitali", "--seed", "5", "--samples", "20000", "--count", "10"])
    status2, body2 = run_cli(["vitali", "--seed", "5", "--samples", "20000", "--count", "10"])
    assert status1 == status2 == 0
    assert body1 == body2


# ----------------------------------------------------------------- schema

def test_json_schema():
    status, body = run_cli(["areas", "--R", "1,2"])
    assert status == 0
    doc = json.loads(body)
    assert set(doc) == {"meta", "tables", "assertions"}
    assert {"seed", "version", "config"} <= set(doc["meta"])
    for t in doc["tables"]:
        assert {"name", "columns", "rows"} == set(t)
    for a in doc["assertions"]:
        assert {"name", "bound", "observed", "pass"} == set(a)


def test_csv_levelset_columns():
    status, body = run_cli(
        ["levelset", "--alpha-ladder", "2^-1..2^-4", "--grid=-3:3:-1.5:1.5:40:24", "--format", "csv"]
    )
    assert status == 0
    assert "alpha,measure,rhs_bound,pass" in body


# ------------------------------------------------------------- subcommands

@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--space", "dr-heisenberg:1"],
        ["validate", "--space", "dr-abelian:2"],
        ["areas", "--R", "1,2,3"],
        ["volume", "--samples", "40000", "--R", "1"],
        ["volume", "--space", "dr-abelian:1", "--samples", "40000"],
        ["maxfn", "--grid=-3:3:-1.5:1.5:40:24", "--family", "half_ball"],
        ["overlap", "--count", "20", "--seed", "3"],
        ["vitali", "--count", "15", "--samples", "20000"],
        ["eta", "--alpha-ladder", "2^-6..2^-12"],
        ["pack", "--levels", "3", "--samples", "60000"],
        ["volume", "--space", "dr-abelian:2", "--samples", "40000"],
        ["volume", "--space", "dr-heisenberg:1", "--samples", "40000"],
        ["volume", "--space", "dr-heisenberg:2", "--samples", "40000"],
        ["pack", "--levels", "5"],
        ["overlap", "--space", "dr-heisenberg:1", "--count", "12", "--seed", "1"],
        ["overlap", "--space", "dr-heisenberg:2", "--count", "12", "--seed", "1"],
        ["overlap", "--space", "dr-abelian:2", "--count", "12", "--seed", "1"],
        ["vitali", "--space", "dr-heisenberg:1", "--count", "15", "--samples", "20000"],
        ["vitali", "--space", "dr-heisenberg:2", "--count", "15", "--samples", "20000"],
        ["vitali", "--space", "dr-abelian:2", "--count", "15", "--samples", "20000"],
    ],
)
def test_subcommands_pass(argv):
    status, body = run_cli(argv)
    assert status == 0, body


def test_exit_code_on_failure(monkeypatch):
    def failing(cfg):
        rep = ExperimentReport(meta={})
        rep.check("always_fails", 1.0, 2.0, False)
        return rep

    monkeypatch.setitem(cli.COMMANDS, "areas", failing)
    status, _body = run_cli(["areas"])
    assert status == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["maxfn", "--grid=-4:4:-2:2:0:64"],
        ["maxfn", "--grid=-4:4:-2:2:96:0"],
        ["levelset", "--alpha-ladder", "0"],
        ["maxfn", "--grid=-3:3:-1.5:1.5:40:24", "--family", "foo"],
        ["maxfn", "--grid=-3:3:-1.5:1.5:40:24", "--family", "half_plane"],
        ["maxfn", "--grid=-3:3:-1.5:1.5:40:24", "--family", "cylinder"],
        ["overlap", "--space", "dr-foo:1"],
        ["validate", "--space", "dr-heisenberg:x"],
        ["vitali", "--space", "dr-heisenberg:0"],
        ["maxfn", "--space", "dr-heisenberg:1", "--grid=-3:3:-1.5:1.5:40:24"],
        ["levelset", "--space", "dr-heisenberg:1", "--grid=-3:3:-1.5:1.5:40:24"],
        ["areas", "--space", "dr-abelian:2", "--R", "1,2"],
        ["pack", "--levels", "6"],
        ["pack", "--levels=-1"],
        ["figures", "--figure", "halfballs", "--level", "6"],
        ["figures", "--figure", "halfballs", "--level=-1"],
        ["figures", "--figure", "packing", "--levels", "6"],
        # after --config comes the content of the config file the test writes
        ["areas", "--config", "seed=abc"],
        ["vitali", "--config", "count=x"],
        ["vitali", "--config", "samples=2e4"],
        ["validate", "--space", "dr-heisenberg:1", "--config", "samples=ten"],
        ["levelset", "--config", "nu=one"],
        ["overlap", "--config", "seed=-1"],
        ["vitali", "--config", "count=0"],
        ["overlap", "--seed=-1"],
        ["vitali", "--samples", "0"],
        # a sample count above the run's cap, before any draw: run time
        # binds on h2, the abelian volume and pack, the held draws' bytes
        # (which grow with p + q) on the others
        ["volume", "--space", "dr-abelian:1", "--samples", str(_samples_cap("volume", "dr-abelian:1") + 1)],
        ["volume", "--space", "h2", "--samples", str(_samples_cap("volume", "h2") + 1)],
        ["volume", "--space", "dr-heisenberg:2", "--samples", str(_samples_cap("volume", "dr-heisenberg:2") + 1)],
        ["volume", "--space", "dr-heisenberg:8", "--samples", str(_samples_cap("volume", "dr-heisenberg:8") + 1)],
        ["vitali", "--space", "dr-heisenberg:1", "--count", "5", "--samples", str(_samples_cap("vitali", "dr-heisenberg:1") + 1)],
        ["vitali", "--space", "dr-heisenberg:8", "--count", "5", "--samples", str(_samples_cap("vitali", "dr-heisenberg:8") + 1)],
        ["pack", "--levels", "2", "--samples", str(_samples_cap("pack", "h2") + 1)],
        ["pack", "--levels", "2", "--config", "samples=100000000000"],
        # a Monte Carlo estimate whose draw has no hit (report.NoHits):
        # omega_n's box on dr-heisenberg:8, the sets' boxes at R = 14 and at
        # the largest radius, a Vitali union of one sample, and the union of a
        # dr-heisenberg:6 family, whose box is too large for 20,000 samples
        ["volume", "--space", "dr-heisenberg:8"],
        ["volume", "--R", "14"],
        ["volume", "--R", str(cli.RADIUS_MAX["volume"]), "--samples", "2000"],
        ["vitali", "--space", "dr-heisenberg:1", "--count", "30", "--samples", "1", "--seed", "1"],
        ["vitali", "--space", "dr-heisenberg:6", "--count", "5", "--samples", "20000"],
        # a space above the dimension cap, refused before it is built
        ["validate", "--space", "dr-heisenberg:100000"],
        ["overlap", "--space", f"dr-abelian:{cli.MAX_SPACE_DIM + 1}"],
        # refused by the cell cap before any grid or family is allocated
        ["overlap", "--space", "dr-heisenberg:3"],
        ["overlap", "--space", "dr-abelian:6"],
        ["areas", "--R", "abc"],
        ["areas", "--R", "0"],
        ["areas", "--R=-1"],
        ["areas", "--R", "nan"],
        ["areas", "--R", "1,inf"],
        # radii whose areas or sampling boxes overflow
        ["areas", "--R", "709"],
        ["areas", "--R", "1,710"],
        ["areas", "--config", "R=708.0000001"],
        ["volume", "--R", "355"],
        ["volume", "--R", "800"],
        # radii whose sampled heights no longer resolve the sets
        ["volume", "--R", "2e-10"],
        ["volume", "--R", "1,1e-300"],
        ["eta", "--alpha-ladder", "2^-4..2^-5"],
        ["eta", "--alpha-ladder", "2^-1..2^-2"],
        ["figures", "--figure", "foo"],
        ["figures", "--config", "figure=foo"],
        ["figures", "--z", "1.5"],
        ["figures", "--z", "a,b"],
        ["figures", "--z=1.5,-2"],
        ["figures", "--config", "z=1.5,inf"],
        ["areas", "--config", None],
        # a key that is not a flag name
        ["areas", "--config", "sed=1"],
        # a format the subcommand does not write
        ["areas", "--format", "svg"],
        ["areas", "--config", "format=xml"],
        ["figures", "--format", "csv"],
        # non-finite bounds, log-heights whose squares overflow or vanish, and
        # a grid above the cell cap
        ["maxfn", "--grid=-inf:4:-2:2:8:8"],
        ["maxfn", "--grid=-4:4:-2:800:8:8"],
        ["maxfn", "--grid=-4:4:-800:2:8:8"],
        ["levelset", "--grid=-4:4:-800:2:8:8"],
        ["maxfn", "--grid=-4:4:-2:2:100000:100000"],
        # x bounds whose squared differences overflow
        ["maxfn", "--grid=-1e160:1e160:-2:2:8:8"],
        ["levelset", "--grid=-4:3.4e153:-2:2:8:8"],
        ["maxfn", "--config", "grid=-3.4e153:4:-2:2:8:8"],
        # alphas below the subcommand's least (1/alpha overflows, the
        # admissible areas or the L log L sum overflow, 2^-1100 is 0.0,
        # the eta chain's squared distances overflow), above 2^1023, or a
        # dyadic end whose power of two overflows
        ["levelset", "--alpha-ladder", "1e-310"],
        ["levelset", "--alpha-ladder", "1e-308"],
        ["levelset", "--alpha-ladder", "1e-305"],
        ["levelset", "--alpha-ladder", "0.5," + repr(2.0**-244)],
        ["levelset", "--alpha-ladder", "2^-3..2^-1100"],
        ["levelset", "--alpha-ladder", "2^-3..2^-244"],
        ["levelset", "--alpha-ladder", "1e308"],
        ["levelset", "--config", "alpha_ladder=2^2000..2^1"],
        ["eta", "--alpha-ladder", "2^-6..2^-900"],
        ["eta", "--alpha-ladder", "2^-6..2^-1070"],
        ["eta", "--alpha-ladder", "2^-6..2^-519"],
        # a trend fit on fewer than three rungs, and a lens estimate with no hit
        ["eta", "--alpha-ladder", "2^-14..2^-14"],
        ["eta", "--alpha-ladder", "2^-9..2^-9"],
        ["pack", "--samples", "1", "--seed", "0"],
        ["pack", "--samples", "2", "--seed", "1"],
        ["pack", "--samples", "10", "--seed", "2"],
        # Re z -+ 2 Im z round to one float, and Im z whose scales overflow
        ["figures", "--figure", "rectangle", "--z", "1e17,1"],
        ["figures", "--figure", "rectangle", "--z", "1e308,1"],
        ["figures", "--z", f"{2.0**31 * 2.0 + 1e-6},2"],
        ["figures", "--z", "0,1e-320"],
        ["figures", "--z", "0,1e308"],
        # a report that cannot be written: --out names a directory or a path
        # under a file, or $HYPMAX_OUT names a file ({tmp} is the test's
        # tmp_path, which holds the file a_file)
        ["areas", "--out", "{tmp}"],
        ["areas", "--out", "{tmp}/a_file/areas.json"],
        ["HYPMAX_OUT={tmp}/a_file", "areas"],
    ],
)
def test_invalid_input_exits_2(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "a_file").write_text("")
    argv = [a.replace("{tmp}", str(tmp_path)) if a else a for a in argv]
    if argv[0].startswith("HYPMAX_OUT="):
        monkeypatch.setenv("HYPMAX_OUT", argv.pop(0).partition("=")[2])
    if "--config" in argv:
        k = argv.index("--config") + 1
        cfg_file = tmp_path / "bad.cfg"
        if argv[k] is not None:  # None stands for a config file that does not exist
            cfg_file.write_text(argv[k] + "\n")
        argv = argv[:k] + [str(cfg_file)] + argv[k + 1 :]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hypmax: error: ")


def finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(finite_numbers(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


X_MAX = repr(cli.GRID_X_MAX)
U_MAX = cli.GRID_LOG_HEIGHT_MAX


@pytest.mark.parametrize(
    "argv",
    [
        ["areas", "--R", str(cli.RADIUS_MAX["areas"])],
        ["volume", "--R", str(cli.RADIUS_MIN["volume"]), "--samples", "2000"],
        ["figures", "--R", "1e300"],
        *(
            ["maxfn", f"--grid=-{X_MAX}:{X_MAX}:-{U_MAX}:{U_MAX}:16:16", "--family", family, "--profile", "height"]
            for family in ("half_ball", "trigonon", "rectangle", "ball", "modified_half_ball", "admissible_rectangle")
        ),
        ["levelset", f"--grid=-{X_MAX}:{X_MAX}:-{U_MAX}:{U_MAX}:16:16"],
        # the smallest alphas: on one x cell of the widest window, the
        # height profile puts |f| = 20 on cells of the largest weights
        [
            "levelset", f"--grid=-{X_MAX}:{X_MAX}:-{U_MAX}:{U_MAX}:1:16", "--profile", "height",
            "--alpha-ladder", f"2^-{cli.ALPHA_EXPONENT_MAX['levelset'] - 1}..2^-{cli.ALPHA_EXPONENT_MAX['levelset']}",
        ],
        ["levelset", "--profile", "height", "--alpha-ladder", f"{2.0 ** -cli.ALPHA_EXPONENT_MAX['levelset']!r},{2.0**1023!r}"],
        ["eta", "--alpha-ladder", f"2^-6..2^-{cli.ALPHA_EXPONENT_MAX['eta']}"],
        # the widest Re z per Im z at the smallest and largest Im z
        ["figures", f"--z={2.0**31 * 2.0**-1000!r},{2.0**-1000!r}"],
        ["figures", f"--z=-{2.0**31 * 2.0**990!r},{2.0**990!r}"],
    ],
)
def test_numeric_input_at_its_bound_runs_clean(argv):
    """At the largest radius (the smallest for volume, whose largest draws
    no hit), grid, alpha and figure-centre bounds the CLI admits, no numpy
    overflow is raised, every check passes and every number of the report
    (or of the figure) is finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, body = run_cli(argv)
    assert status == 0
    if argv[0] == "figures":
        assert body.startswith("<svg")
        assert "nan" not in body and "inf" not in body
        return
    assert finite_numbers(json.loads(body))


def test_space_cap_admits_the_largest_spaces_and_refuses_beyond():
    """The largest abelian and Heisenberg spaces within the cap build (and
    with them every space of the README and the tests); one more dimension
    is refused before anything is built."""
    assert cli.MAX_SPACE_DIM == 312
    for spec, pq in [("dr-abelian:312", 312), ("dr-heisenberg:155", 311), ("dr-heisenberg:8", 17)]:
        alg = cli._algebra(spec)
        assert alg.p + alg.q == pq
    for spec in ("dr-abelian:313", "dr-heisenberg:156"):
        with pytest.raises(cli.UsageError, match="p \\+ q = 313, above the cap of 312"):
            cli._algebra(spec)


def test_samples_cap_shrinks_with_the_held_draws():
    """Where draws are held whole, the cap keeps them to the byte budget,
    so it falls as p + q grows; where every draw streams, run time binds."""
    budget = cli.SAMPLES_BUDGET_BYTES
    assert _samples_cap("volume", "dr-heisenberg:8") == budget // (8 * 17) < _samples_cap("volume", "dr-heisenberg:2")
    assert _samples_cap("vitali", "dr-heisenberg:8") == budget // (8 * 19) < _samples_cap("vitali", "dr-heisenberg:2")
    for sub, space in [("volume", "h2"), ("volume", "dr-abelian:3"), ("vitali", "dr-abelian:1"), ("pack", "h2")]:
        assert _samples_cap(sub, space) == cli.SAMPLES_MAX[sub]


@pytest.mark.parametrize("R", ["1e-3", "1e-6", "1e-9", repr(cli.RADIUS_MIN["volume"])])
def test_volume_passes_at_small_radii(R):
    """The sampling boxes fit the sets down to the smallest radius volume
    admits: every set gets hits (a zero-hit warning fails the test) and
    every estimate lies within 3 stderr of its closed form."""
    status, body = run_cli(["volume", "--R", R, "--samples", "50000"])
    assert status == 0, body


class Admitted(Exception):
    pass


def test_pack_measures_the_lens_once(monkeypatch):
    """The lens measure, c_l and the witness checks do not depend on p, so
    one pack run estimates the lens once for its three L^p blocks."""
    calls = []
    lens = ex.lens_region_measure
    monkeypatch.setattr(ex, "lens_region_measure", lambda *a: calls.append(a) or lens(*a))
    status, body = run_cli(["pack", "--levels", "2", "--samples", "20000"])
    assert status == 0
    assert len(calls) == 1
    assert [t["name"] for t in json.loads(body)["tables"]][1:] == [
        f"p={p}:{name}" for p in (1.0, 2.0, 3.0) for name in ("levels", "partial_sums")
    ]


@pytest.mark.parametrize("spec", ["dr-heisenberg:1", "dr-heisenberg:2"] + [f"dr-abelian:{q}" for q in (1, 2, 3, 4)])
def test_overlap_cell_cap_admits_the_small_spaces(spec, monkeypatch):
    """These spaces pass the cap and go on to build their family (stopped
    there, so no grid is allocated)."""

    def stop(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(ex, "build_maximal_family", stop)
    with pytest.raises(Admitted):
        cli.main(["overlap", "--space", spec])


def test_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    out = tmp_path / "areas.json"
    status, _ = run_cli(["areas", "--out", str(out)])
    assert status == 0 and json.loads(out.read_text())["assertions"]
    monkeypatch.setenv("HYPMAX_OUT", str(tmp_path / "env"))
    status, _ = run_cli(["areas"])
    assert status == 0
    assert (tmp_path / "env" / "areas.json").exists()
    # figures write svg with no --format, past the report default json
    assert cli.main(["figures"]) == 0
    assert (tmp_path / "env" / "figures.svg").read_text().startswith("<svg")


# ----------------------------------------------------------------- figures

def test_figure_rectangle_labels():
    status, svg = run_cli(["figures", "--figure", "rectangle", "--z", "1.5,2.0", "--R", "1"])
    assert status == 0
    assert svg.startswith("<svg")
    for label in ("Re z - Im z", "Re z + Im z", "e^-R Im z", "Q_R(z)"):
        assert label in svg


def test_figure_halfballs_level0_draws_two():
    status, svg = run_cli(["figures", "--figure", "halfballs", "--level", "0"])
    assert status == 0
    assert svg.count("<polygon") == 2


def _halfballs_svg_from_linspace(level):
    """The halfballs figure drawn from the materialised np.linspace row of
    centres, thinned with the stride used before centres were computed on
    demand."""
    lv = hyp2.packing_construct(level)[level]
    height, R = lv.center_height, lv.radius
    centers = np.linspace(-1.0, 1.0, lv.n_count)
    if len(centers) > 64:
        stride = len(centers) // 64 + 1
        centers = np.concatenate([centers[::stride], centers[-1:]])
    pad = height * math.sinh(R) * 0.2
    x_lo = float(centers[0]) - height - pad
    x_hi = float(centers[-1]) + height + pad
    cv = figures._Canvas(x_lo, x_hi, 0.0, height * 1.8)
    cv.line(x_lo, height, x_hi, height, width=1.0)
    for c in centers:
        outline = figures._halfball_outline(hyp2.HPoint(float(c), height), R)
        cv.polygon(outline, fill="#bcd2ee", stroke="#3b6ea5", opacity=0.85)
    cv.dot(float(centers[0]), height)
    cv.dot(float(centers[-1]), height)
    cv.text(float(centers[0]), height, f"-1+ie^-{2**level}", dy=-10)
    cv.text(float(centers[-1]), height, f"1+ie^-{2**level}", dy=-10)
    return cv.render()


@pytest.mark.parametrize("level", [2, 4])
def test_figure_halfballs_matches_linspace_oracle(level):
    status, svg = run_cli(["figures", "--figure", "halfballs", "--level", str(level)])
    assert status == 0
    assert svg == _halfballs_svg_from_linspace(level)


def test_figure_unknown_kind_raises():
    with pytest.raises(ValueError):
        figures.emit_figure("nope", {})


def test_figure_deterministic():
    a = cli.cmd_figures(cli.resolve_config(["figures", "--figure", "packing", "--levels", "2"]))
    b = cli.cmd_figures(cli.resolve_config(["figures", "--figure", "packing", "--levels", "2"]))
    assert a == b


# ----------------------------------------------------------- import path

# a fresh interpreter imports the CLI, runs the subcommands of argv[1] (a
# JSON list of argument lists) and prints, after the import and after each
# run, the exit status and the loaded modules of hypmax and scipy
_IMPORT_PROBE = textwrap.dedent(
    """
    import io, json, sys
    from contextlib import redirect_stdout
    from hypmax import cli

    def loaded(status):
        return [status, sorted(m for m in sys.modules if m.split(".")[0] in ("hypmax", "scipy"))]

    seen = [loaded(None)]
    for argv in json.loads(sys.argv[1]):
        with redirect_stdout(io.StringIO()):
            seen.append(loaded(cli.run(cli.resolve_config(argv))[0]))
    print(json.dumps(seen))
    """
)


def _import_probe(*argvs) -> list:
    """(status, set of loaded modules) after importing the CLI, then after
    each run of ``argvs`` in that order, all in one fresh interpreter."""
    src = str(Path(hypmax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [(status, set(mods)) for status, mods in json.loads(proc.stdout)]


KERNELS = {f"hypmax.{m}" for m in ("htype", "drsets", "measure", "experiments", "maxop")}


def test_cli_runs_without_importing_scipy():
    """Importing the CLI loads only cli, hyp2 and report of the package;
    areas and the three figures load none of the kernel modules, and no
    subcommand loads scipy."""
    # other test modules import scipy and the whole package into this
    # process, so the checks run in fresh ones
    light = [
        ["areas", "--R", "1,2,3"],
        ["figures", "--figure", "rectangle"],
        ["figures", "--figure", "halfballs", "--level", "1"],
        ["figures", "--figure", "packing", "--levels", "2"],
    ]
    seen = _import_probe(*light, ["pack", "--levels", "4"], ["volume", "--space", "dr-heisenberg:1"])
    assert seen[0] == (None, {"hypmax", "hypmax.cli", "hypmax.hyp2", "hypmax.report"})
    for argv, (status, mods) in zip(light, seen[1:]):
        assert status == 0 and not mods & KERNELS, (argv, mods)
    for status, mods in seen[1:]:
        assert status == 0 and "scipy" not in mods, mods


def test_maxfn_imports_neither_experiments_nor_figures():
    (_, _), (status, mods) = _import_probe(["maxfn", "--grid=-3:3:-1.5:1.5:20:12"])
    assert status == 0 and "hypmax.maxop" in mods
    assert not mods & {"hypmax.experiments", "hypmax.figures", "scipy"}, mods
