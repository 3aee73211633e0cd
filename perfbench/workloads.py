"""The three benchmark workloads.

Each workload is a closed loop with one client.  ``unit(seed, n)`` returns
the n-th unit of requests, generated from the seed alone; ``execute`` runs one
request and returns its ``Outcome``; ``invariants`` lists what is wrong with
an outcome without looking at a recorded reference.

* ``cli-cold``: every README invocation, plus ``volume --space
  dr-heisenberg:1``, each as a fresh ``python -m hypmax.cli`` process.  A unit
  is one pass over the 13 invocations in a seed-drawn order.
* ``h2-field``: ``maxop.operator_compare`` on a 256 x 128 half-plane grid for
  the indicator of a seed-drawn hyperbolic ball.
* ``na-cover``: an overlap study on ``dr-heisenberg:2`` (40 cylinders, grid
  of 1,228,800 cells) and a Vitali selection on ``dr-heisenberg:1`` (1,000
  cylinders, 50,000 samples).
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shlex
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

CHILD_TIMEOUT_S = 120


@dataclass
class Request:
    rid: str  # request id, unique within a run
    key: str  # reference key
    label: str
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    text: str = None  # the report as the user receives it; None when none was printed
    error: str = None  # last line of the error, when the request raised or printed nothing
    detail: dict = field(default_factory=dict)
    rss_kb: int = 0  # peak resident memory of the child process (cli-cold)


def json_reports(text: str) -> list:
    """Every JSON document in ``text``, in order."""
    dec, out, i = json.JSONDecoder(), [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return out
        obj, i = dec.raw_decode(text, i)
        out.append(obj)


def assertion_passes(text: str) -> list:
    """The ``pass`` verdict of every report assertion in a JSON or CSV report."""
    if text.lstrip().startswith("{"):
        return [bool(a["pass"]) for rep in json_reports(text) for a in rep.get("assertions", [])]
    if "# table: assertions" in text:
        block = text.split("# table: assertions", 1)[1].strip().splitlines()[1:]
        return [line.rsplit(",", 1)[1] == "True" for line in block if line]
    return []


def _table(rep: dict, name: str) -> list:
    for t in rep["tables"]:
        if t["name"] == name:
            return t["rows"]
    raise KeyError(f"report has no table {name!r}")


# ----------------------------------------------------------------- cli-cold

README_INVOCATIONS = [
    "areas --R 1,2,3",
    "validate --space dr-heisenberg:1",
    "volume --space dr-abelian:1 --seed 7",
    "maxfn --grid=-4:4:-2:2:96:64 --family half_ball",
    "levelset --nu 1 --alpha-ladder 2^-3..2^-10 --format csv",
    "overlap --space dr-abelian:1 --count 40 --seed 1",
    "vitali --space dr-heisenberg:1 --count 30 --seed 1",
    "eta --alpha-ladder 2^-6..2^-14",
    "pack --levels 4",
    "figures --figure rectangle --z 1.5,2.0 --R 1 --out fig1.svg",
    "figures --figure halfballs --level 1",
    "figures --figure packing --levels 2",
]
HEISENBERG_VOLUME = "volume --space dr-heisenberg:1 --seed {seed}"


def _out_file(argv) -> str:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _wait(pid: int, timeout: int):
    """os.wait4 with a timeout; the child is killed when it runs over."""

    def on_alarm(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(timeout)
    try:
        return os.wait4(pid, 0), False
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        return os.wait4(pid, 0), True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class CliCold:
    name = "cli-cold"

    def setup(self, root: Path, workdir: Path, seed: int) -> dict:
        # reports go to standard output, as in the README, in children and in process
        os.environ.pop("HYPMAX_OUT", None)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        return {"env": env, "workdir": workdir}

    def unit(self, state, seed: int, n: int) -> list:
        labels = README_INVOCATIONS + [HEISENBERG_VOLUME.format(seed=seed)]
        keys = README_INVOCATIONS + [HEISENBERG_VOLUME.format(seed="<seed>")]
        order = random.Random(f"cli-cold:{seed}:{n}").sample(range(len(labels)), len(labels))
        return [Request(f"{n}.{k}", keys[i], labels[i]) for k, i in enumerate(order)]

    def _collect(self, workdir: Path, argv, stdout: str, stderr: str, error: str = None) -> Outcome:
        out = _out_file(argv)
        text = stdout
        if not text and out and (workdir / out).is_file():
            text = (workdir / out).read_text()
        if not text:
            lines = [ln for ln in stderr.splitlines() if ln.strip()]
            return Outcome(error=error or (lines[-1] if lines else "no report printed"))
        return Outcome(text=text, error=error)

    def execute(self, state, req: Request) -> Outcome:
        workdir, argv = state["workdir"], shlex.split(req.label)
        if _out_file(argv):
            (workdir / _out_file(argv)).unlink(missing_ok=True)
        so_path, se_path = workdir / "child.stdout", workdir / "child.stderr"
        with open(so_path, "w") as so, open(se_path, "w") as se:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hypmax.cli", *argv], cwd=workdir, env=state["env"], stdout=so, stderr=se
            )
            (_, status, usage), timed_out = _wait(proc.pid, CHILD_TIMEOUT_S)
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode
        error = None
        if timed_out:
            error = f"killed after {CHILD_TIMEOUT_S} s"
        elif code not in (0, 1):
            error = f"exit status {code}"
        outcome = self._collect(workdir, argv, so_path.read_text(), se_path.read_text(), error)
        outcome.rss_kb = usage.ru_maxrss
        return outcome

    def execute_in_process(self, state, req: Request) -> Outcome:
        """The same invocation through ``cli.run`` in this process (traced runs)."""
        from hypmax import cli

        workdir, argv = state["workdir"], shlex.split(req.label)
        if _out_file(argv):
            (workdir / _out_file(argv)).unlink(missing_ok=True)
        out, err, error = io.StringIO(), io.StringIO(), None
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                cli.run(cli.resolve_config(argv))
        except Exception as exc:  # the request failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            os.chdir(cwd)
        return self._collect(workdir, argv, out.getvalue(), err.getvalue(), error)

    def invariants(self, req: Request, outcome: Outcome, ref_data: dict) -> list:
        text = outcome.text.lstrip()
        if text.startswith("{"):
            reps = json_reports(text)
            if len(reps) != 1 or not {"meta", "tables", "assertions"} <= set(reps[0]):
                return ["not a single JSON report"]
            return []
        if text.startswith("<svg") or text.startswith("<?xml"):
            return [] if text.rstrip().endswith("</svg>") else ["truncated SVG"]
        if text.startswith("# table:"):
            return [] if "# table: assertions" in text else ["CSV report without assertions"]
        return ["unrecognised report format"]


# ----------------------------------------------------------------- h2-field

class H2Field:
    name = "h2-field"
    window = (-4.0, 4.0, -2.0, 2.0)
    shape = (256, 128)
    expected_assertions = ["half_ball_le_K1_trigonon", "trigonon_le_K2_half_ball", "half_ball_le_K3_admissible"]

    def setup(self, root: Path, workdir: Path, seed: int) -> dict:
        from hypmax import measure

        return {"grid": measure.build_grid("h2", self.window, self.shape)}

    def unit(self, state, seed: int, n: int) -> list:
        import numpy as np

        rng = np.random.default_rng([seed, n])
        cx = float(rng.uniform(-2.0, 2.0))
        cy = math.exp(float(rng.uniform(-1.0, 1.0)))
        R = float(rng.uniform(0.5, 1.5))
        label = f"ball x={cx:.6f} y={cy:.6f} R={R:.6f}"
        return [Request(str(n), f"{seed}:{n}", label, {"cx": cx, "cy": cy, "R": R})]

    def execute(self, state, req: Request) -> Outcome:
        from hypmax import hyp2, maxop

        p, grid = req.params, state["grid"]
        ball = hyp2.ball(hyp2.HPoint(p["cx"], p["cy"]), p["R"])
        grid.set_values(lambda x, y: hyp2.contains_mask(ball, x, y).astype(float))
        rep = maxop.operator_compare(grid, ladder_steps=4, max_per_axis=24)
        return Outcome(text=rep.to_json())

    execute_in_process = execute

    def invariants(self, req: Request, outcome: Outcome, ref_data: dict) -> list:
        (rep,) = json_reports(outcome.text)
        problems = []
        if [a["name"] for a in rep["assertions"]] != self.expected_assertions:
            problems.append("unexpected assertions")
        for a in rep["assertions"]:
            if not (math.isfinite(a["observed"]) and a["observed"] > 0):
                problems.append(f"{a['name']}: observed {a['observed']}")
        for name, value in _table(rep, "constants"):
            want = ref_data.get("constants", {}).get(name)
            if want is not None and not math.isclose(value, want, rel_tol=1e-12):
                problems.append(f"constant {name} = {value}, expected {want}")
        return problems


# ----------------------------------------------------------------- na-cover

class NACover:
    name = "na-cover"
    overlap_space, vitali_space = "dr-heisenberg:2", "dr-heisenberg:1"
    # the window of `hypmax overlap`, at 8 cells per horizontal axis and 10 / 30 in z / u
    overlap_window = ([(-8.0, 8.0)] * 4, [(-8.0, 8.0)], (-9.0, 3.0))
    overlap_shape = ([8] * 4, [10], 30)
    overlap_count, vitali_count, vitali_samples = 40, 1000, 50_000

    def setup(self, root: Path, workdir: Path, seed: int) -> dict:
        from hypmax import htype, measure

        alg2 = htype.make_algebra(self.overlap_space)
        alg1 = htype.make_algebra(self.vitali_space)
        grid = measure.build_grid("na", self.overlap_window, self.overlap_shape, alg=alg2)
        return {"alg2": alg2, "alg1": alg1, "grid": grid}

    def unit(self, state, seed: int, n: int) -> list:
        import numpy as np
        from hypmax.drsets import AdmissibleCylinder
        from hypmax.htype import NPoint

        rng = np.random.default_rng([seed, n])
        alg2, alg1 = state["alg2"], state["alg1"]
        # overlap: centres in [-6, 6]^dim, j in -2..2, R in 2..6
        k = self.overlap_count
        X, Z = 6.0 * rng.uniform(-1, 1, (k, alg2.p)), 6.0 * rng.uniform(-1, 1, (k, alg2.q))
        js, Rs = rng.integers(-2, 3, k), rng.integers(2, 7, k)
        cyls = [AdmissibleCylinder(NPoint(X[i], Z[i]), int(js[i]), int(Rs[i])) for i in range(k)]
        # Vitali: bases on the horocycle log a = -2, centres in [-8, 8]^dim, R in 2..6
        k = self.vitali_count
        X, Z = 8.0 * rng.uniform(-1, 1, (k, alg1.p)), 8.0 * rng.uniform(-1, 1, (k, alg1.q))
        Rs = rng.integers(2, 7, k)
        horo = [AdmissibleCylinder(NPoint(X[i], Z[i]), int(Rs[i]) - 2, int(Rs[i])) for i in range(k)]
        fam_seed, vit_seed = (int(v) for v in rng.integers(0, 2**31, 2))
        label = f"overlap {self.overlap_count} cyl seed {fam_seed}; vitali {self.vitali_count} cyl seed {vit_seed}"
        params = {"cyls": cyls, "horo": horo, "fam_seed": fam_seed, "vit_seed": vit_seed}
        return [Request(str(n), f"{seed}:{n}", label, params)]

    def execute(self, state, req: Request) -> Outcome:
        from hypmax import experiments as ex

        p = req.params
        fam = ex.build_maximal_family(state["alg2"], p["cyls"], seed=p["fam_seed"])
        overlap = ex.overlap_report(ex.overlap_profile(fam, state["grid"]))
        selected, vitali = ex.vitali_select(
            state["alg1"], p["horo"], samples=self.vitali_samples, seed=p["vit_seed"]
        )
        text = overlap.to_json() + "\n" + vitali.to_json()
        return Outcome(text=text, detail={"alg": state["alg1"], "family": p["horo"], "selected": selected})

    execute_in_process = execute

    def invariants(self, req: Request, outcome: Outcome, ref_data: dict) -> list:
        overlap, vitali = json_reports(outcome.text)
        problems = []
        rows = _table(overlap, "omega_k")
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            problems.append("overlap counts k are not 1..K")
        if any(r[1] < 0 for r in rows):
            problems.append("negative overlap measure")
        if not {"union_family", "union_selected", "ratio"} <= {r[0] for r in _table(vitali, "measures")}:
            problems.append("Vitali measures table incomplete")
        d = outcome.detail
        problems += vitali_problems(d["alg"], d["family"], d["selected"])
        return problems


def vitali_problems(alg, family, selected, tol: float = 1e-9) -> list:
    """Check a greedy largest-first disjoint selection with the benchmark's
    own gauge and group law: selected bases are pairwise disjoint, and every
    other base meets a selected base at least as large."""
    import numpy as np

    index = {id(c): i for i, c in enumerate(family)}
    if any(id(s) not in index for s in selected):
        return ["selected a cylinder outside the family"]
    X = np.array([c.n0.X for c in family]).reshape(len(family), alg.p)
    Z = np.array([c.n0.Z for c in family]).reshape(len(family), alg.q)
    r = np.exp(np.array([c.j for c in family]) / 2.0)
    sel = np.array([index[id(s)] for s in selected])
    # n_s^{-1} n_m = (X_m - X_s, Z_m - Z_s - [X_s, X_m] / 2)
    dX = X[None, :, :] - X[sel][:, None, :]
    dZ = Z[None, :, :] - Z[sel][:, None, :] - 0.5 * np.einsum("si,mj,ijk->smk", X[sel], X, alg.bracket_coeffs)
    dist = ((dX**2).sum(-1) ** 2 / 16.0 + (dZ**2).sum(-1)) ** 0.25
    reach = r[sel][:, None] + r[None, :]
    problems = []
    for a in range(len(sel)):
        for b in range(a + 1, len(sel)):
            if dist[a, sel[b]] < reach[a, sel[b]] * (1 - tol):
                problems.append(f"selected members {sel[a]} and {sel[b]} overlap")
    blocked = (dist < reach * (1 + tol)) & (r[sel][:, None] >= r[None, :] * (1 - tol))
    unselected = np.setdiff1d(np.arange(len(family)), sel)
    missed = unselected[~blocked[:, unselected].any(axis=0)]
    if missed.size:
        problems.append(f"{missed.size} members could have been selected (e.g. {int(missed[0])})")
    return problems


WORKLOADS = {w.name: w for w in (CliCold(), H2Field(), NACover())}
