"""CLI parsing, config precedence, deterministic outputs, report schema,
figure generation and exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hypmax
from hypmax import cli, experiments as ex, figures, hyp2
from hypmax.report import ExperimentReport


def run_cli(argv):
    return cli.run(cli.resolve_config(argv))


# ----------------------------------------------------------------- parsing

def test_parse_grid():
    window, res = cli.parse_grid("-6:6:-2.5:2.5:100:60")
    assert window == (-6.0, 6.0, -2.5, 2.5) and res == (100, 60)
    with pytest.raises(ValueError):
        cli.parse_grid("1:2:3")


def test_parse_alpha_ladder():
    vals, m_range = cli.parse_alpha_ladder("2^-3..2^-5")
    assert vals == [2.0**-3, 2.0**-4, 2.0**-5]
    assert list(m_range) == [3, 4, 5]
    vals, m_range = cli.parse_alpha_ladder("0.5,0.25")
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
        rep = ExperimentReport("stub", meta={})
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
        # refused by the cell cap before any grid or family is allocated
        ["overlap", "--space", "dr-heisenberg:3"],
        ["overlap", "--space", "dr-abelian:6"],
        ["areas", "--R", "abc"],
        ["areas", "--R", "0"],
        ["areas", "--R=-1"],
        ["areas", "--R", "nan"],
        ["areas", "--R", "1,inf"],
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
    ],
)
def test_invalid_input_exits_2(argv, tmp_path, capsys):
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
    lv = ex.packing_construct(level)[level]
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


def test_figure_empty_params_minimal():
    svg = figures.emit_figure("")
    assert svg.startswith("<svg") and "<line" in svg
    with pytest.raises(ValueError):
        figures.emit_figure("nope")


def test_figure_deterministic():
    a = cli.cmd_figures(cli.resolve_config(["figures", "--figure", "packing", "--levels", "2"]))
    b = cli.cmd_figures(cli.resolve_config(["figures", "--figure", "packing", "--levels", "2"]))
    assert a == b


# ----------------------------------------------------------- import path

def test_cli_runs_without_importing_scipy():
    # other test modules import scipy into this process, so check in a fresh one
    script = textwrap.dedent(
        """
        import sys
        from hypmax import cli
        assert "scipy" not in sys.modules, "import hypmax.cli"
        for argv in (["pack", "--levels", "4"], ["volume", "--space", "dr-heisenberg:1"]):
            status, _body = cli.run(cli.resolve_config(argv))
            assert status == 0, argv
            assert "scipy" not in sys.modules, argv
        """
    )
    src = str(Path(hypmax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
