"""hypmax benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {cli-cold,h2-field,na-cover}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
One client sends the next request only when the previous report is
complete.  Inputs come from ``--seed`` alone.  Every report is checked
against the recorded references in ``perfbench/references`` when one
exists for the request, and against the workload's invariants always.

``--trace 0`` measures the end-to-end metrics with tracing off; request and
set-up times are rescaled to the machine's reference speed by the kernel of
``calib.py``, run after every request and every set-up process.
``--trace 1`` runs every request twice, untraced and traced (in alternating
order), and reports the per-layer metrics from the traced spans plus
``trace.overhead_frac``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and traces are written under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / ".work"
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
IMPORT_PROBES = 3  # fresh processes timed for cli.import_s

import calib  # noqa: E402
import envinfo  # noqa: E402
import refs  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, Outcome, assertion_passes  # noqa: E402


@dataclass
class Record:
    req: object
    outcome: Outcome
    latency_s: float
    status: str = ""
    failed: bool = False
    correct: bool = True
    problems: tuple = ()
    asserts: tuple = (0, 0)  # (evaluated, failed)
    untraced: Outcome = None  # the untraced twin of a traced request
    slot_s: float = 0.0  # wall time of the request's share of the loop (inputs, request, bookkeeping)
    scale: float = 1.0  # calib.scale() around the request


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _time_to_first_line(cmd) -> float:
    """Seconds from spawning ``cmd`` until it prints its first line."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_python_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline().strip()
    elapsed = perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or not line:
        raise RuntimeError(f"set-up probe {cmd[1:3]} failed")
    return elapsed if line == "ready" else float(line)


def setup_probe_cmd(workload: str, seed: int) -> list:
    if workload == "cli-cold":
        return [sys.executable, "-c", "import hypmax.cli; print('ready', flush=True)"]
    return [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]


IMPORT_CMD = [
    sys.executable,
    "-c",
    "import time; t = time.perf_counter(); import hypmax.cli; print(time.perf_counter() - t, flush=True)",
]


def _attempt(execute, state, req) -> Outcome:
    try:
        return execute(state, req)
    except Exception as exc:  # a failed request is counted, the run goes on
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def closed_loop(wl, state, seed: int, seconds: float, step, rescale: bool = False) -> tuple:
    """Run units of requests back to back; a new unit starts only while its
    expected end is nearer the deadline than stopping now would be.  With
    ``rescale``, the speed kernel runs after every request and each record
    gets the scale factor measured around it."""
    records, unit_s, n = [], [], 0
    k_prev = calib.kernel_s() if rescale else None
    t_start = perf_counter()
    while n == 0 or perf_counter() - t_start < seconds - 0.5 * statistics.fmean(unit_s):
        u0 = slot0 = perf_counter()
        for req in wl.unit(state, seed, n):
            rec = step(req)
            rec.slot_s = perf_counter() - slot0
            if rescale:
                k = calib.kernel_s()
                rec.scale, k_prev = calib.scale(k_prev, k), k
            records.append(rec)
            slot0 = perf_counter()
        unit_s.append(perf_counter() - u0)
        n += 1
    return records, perf_counter() - t_start


def judge(wl, rec: Record, ref_data: dict) -> None:
    out, ref = rec.outcome, ref_data["requests"].get(rec.req.key)
    if out.text is None or out.error:
        rec.failed = True
        if out.text is None and ref is not None and ref.get("error") == out.error:
            rec.status = "known-defect"  # recorded from the reference commit: counted, not hidden
        else:
            rec.status, rec.correct = "error", False
            rec.problems = (out.error or "no report",)
        return
    problems = []
    try:
        problems += wl.invariants(rec.req, out, ref_data)
        passes = assertion_passes(out.text)
        rec.asserts = (len(passes), passes.count(False))
    except Exception as exc:  # a malformed report
        problems.append(f"report check raised {type(exc).__name__}: {exc}")
    if ref is not None and "sha256" in ref:
        rec.status, detail = refs.compare(out.text, ref)
        if rec.status == "mismatch":
            problems.append(detail)
    else:
        rec.status = "no-reference"
    if problems:
        rec.failed, rec.correct, rec.problems = True, False, tuple(problems)


def _request_line(rec: Record, extra: str = "") -> str:
    digest = refs.sha256(rec.outcome.text)[:16] if rec.outcome.text is not None else "-" * 16
    verdict = "FAILED" if rec.failed else "ok"
    n, bad = rec.asserts
    line = (
        f"req {rec.req.rid:>6} {rec.latency_s:9.4f} s  digest {digest}  ref {rec.status:<12} "
        f"{verdict:<6} asserts failed {bad}/{n}{extra}  {rec.req.label}"
    )
    if rec.problems:
        line += "  [" + "; ".join(rec.problems) + "]"
    return line


def _summary(records) -> dict:
    attempted = len(records)
    failed = sum(r.failed for r in records)
    asserts = sum(r.asserts[0] for r in records)
    asserts_failed = sum(r.asserts[1] for r in records)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": all(r.correct for r in records),
        "failed_frac": failed / attempted,
        "bound_fail_frac": asserts_failed / asserts if asserts else 0.0,
        "asserts": asserts,
        "asserts_failed": asserts_failed,
    }


def run_timed(wl, seed: int, seconds: float, ref_data: dict):
    setup_raw, setup = [], []
    k_prev = calib.kernel_s()
    for _ in range(SETUP_PROBES):
        t = _time_to_first_line(setup_probe_cmd(wl.name, seed))
        k = calib.kernel_s()
        setup_raw.append(t)
        setup.append(t * calib.scale(k_prev, k))
        k_prev = k
    state = wl.setup(ROOT, WORKDIR, seed)

    def step(req):
        t0 = perf_counter()
        out = _attempt(wl.execute, state, req)
        return Record(req, out, perf_counter() - t0)

    records, loop_s = closed_loop(wl, state, seed, seconds, step, rescale=True)
    for rec in records:
        judge(wl, rec, ref_data)
        print(_request_line(rec, f"  x{rec.scale:.3f}"))
    summ = _summary(records)
    raw = [r.latency_s for r in records]
    lat = [r.latency_s * r.scale for r in records]
    busy = sum(r.slot_s * r.scale for r in records)
    tail, pct, beyond = stats.tail(lat)
    if wl.name == "cli-cold":
        rss_kb = max(r.outcome.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput": ((summ["attempted"] - summ["failed"]) / busy, "req/s"),
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.tail": (tail, "s"),
        "peak_rss_mb": (rss_kb * 1024 / 1e6, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes; raw median {statistics.median(setup_raw):.4f} s",
        "throughput": f"{summ['attempted'] - summ['failed']} reports in {busy:.3f} s; raw {loop_s:.3f} s of loop",
        "latency_s.p50": f"n={len(lat)}; raw median {statistics.median(raw):.4f} s",
        "latency_s.tail": f"p{pct:.1f}, n={len(lat)}, {beyond} samples beyond; raw {stats.tail(raw)[0]:.4f} s",
        "peak_rss_mb": "largest child process" if wl.name == "cli-cold" else "benchmark process",
    }
    printed = dict(metrics)
    printed["failed_frac"] = (summ["failed_frac"], "ratio")
    printed["bound_fail_frac"] = (summ["bound_fail_frac"], "ratio")
    notes["failed_frac"] = f"{summ['failed']}/{summ['attempted']} requests"
    notes["bound_fail_frac"] = f"{summ['asserts_failed']}/{summ['asserts']} report assertions with pass: false"
    details = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setup,
        "setup_samples_raw_s": setup_raw,
        "loop_s": loop_s,
        "kernel_reference_s": calib.REFERENCE_S,
    }
    return records, summ, metrics, printed, notes, details


def run_traced(wl, seed: int, seconds: float, ref_data: dict):
    import hypmax.cli  # noqa: F401  (every traced module is loaded before patching)
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(ROOT, WORKDIR, seed)
    finally:
        tracer.uninstall()
    pairs = []

    def timed(req):
        t0 = perf_counter()
        out = _attempt(wl.execute_in_process, state, req)
        return out, perf_counter() - t0

    def step(req):
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install()
                try:
                    with tracer.request_span(req.rid):
                        out_t, dt_t = timed(req)
                finally:
                    tracer.uninstall()
            else:
                out_u, dt_u = timed(req)
        pairs.append((dt_u, dt_t))
        return Record(req, out_t, dt_t, untraced=out_u)

    records, loop_s = closed_loop(wl, state, seed, seconds, step)
    field_match = field_total = 0
    for rec in records:
        judge(wl, rec, ref_data)
        if rec.untraced.text != rec.outcome.text:
            rec.failed, rec.correct = True, False
            rec.problems += ("tracing changed the report",)
        got = tracer.field_digests.get(rec.req.rid, [])
        want = ref_data.get("fields", {}).get(rec.req.key)
        extra = f"  fields {len(got)}"
        if want is not None:
            same = sum(g == w for g, w in zip(got, want)) if len(got) == len(want) else 0
            field_match, field_total = field_match + same, field_total + len(want)
            extra += f" ({same}/{len(want)} bit-identical to reference)"
        print(_request_line(rec, extra))
    summ = _summary(records)
    metrics = layer_metrics(tracer.spans)
    imports = [_time_to_first_line(IMPORT_CMD) for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    untraced, traced = sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    notes = {
        "cli.import_s": f"median of {IMPORT_PROBES} fresh processes",
        "trace.overhead_frac": f"{traced:.3f} s traced / {untraced:.3f} s untraced over {len(pairs)} requests",
    }
    if field_total:
        notes["maxop.maximal_field.calls"] = f"{field_match}/{field_total} fields bit-identical to reference"
    WORKDIR.mkdir(exist_ok=True)
    trace_doc = {
        "workload": wl.name,
        "seed": seed,
        "requests": [
            {
                "rid": r.req.rid,
                "key": r.req.key,
                "label": r.req.label,
                "traced_s": r.latency_s,
                "untraced_s": p[0],
                "report_sha256": refs.sha256(r.outcome.text) if r.outcome.text is not None else None,
                "maximal_field": tracer.field_digests.get(r.req.rid, []),
            }
            for r, p in zip(records, pairs)
        ],
        **tracer.to_json_dict(),
    }
    (WORKDIR / f"trace-{wl.name}.json").write_text(json.dumps(trace_doc, separators=(",", ":")))
    details = {"loop_s": loop_s, "import_samples_s": imports, "trace_file": f"perfbench/.work/trace-{wl.name}.json"}
    return records, summ, metrics, dict(metrics), notes, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypmax" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'hypmax'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        state = wl.setup(ROOT, WORKDIR, args.seed)
        wl.unit(state, args.seed, 0)
        print("ready", flush=True)
        return 0

    ref_data = refs.load(wl.name)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"reference tolerance: rel {refs.REL_TOL:g}, abs {refs.ABS_TOL:g}")
    runner = run_traced if args.trace else run_timed
    records, summ, metrics, printed, notes, details = runner(wl, args.seed, args.seconds, ref_data)
    for name, (value, unit) in printed.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    env = envinfo.record(ROOT, wl.name, args.seed, summ["attempted"], bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": summ["correct"],
        "attempted": summ["attempted"],
        "failed": summ["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    doc = {
        "env": env,
        "summary": summ,
        "details": details,
        "printed_metrics": {n: {"value": v, "unit": u, "note": notes.get(n, "")} for n, (v, u) in printed.items()},
        "requests": [
            {
                "rid": r.req.rid,
                "key": r.req.key,
                "label": r.req.label,
                "latency_s": r.latency_s,
                "slot_s": r.slot_s,
                "scale": r.scale,
                "sha256": refs.sha256(r.outcome.text) if r.outcome.text is not None else None,
                "status": r.status,
                "failed": r.failed,
                "problems": list(r.problems),
            }
            for r in records
        ],
        "result": result,
    }
    (WORKDIR / f"result-{wl.name}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
