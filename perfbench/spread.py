"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload h2-field --seeds 1-10 [--seconds 30] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric its median, first and third quartile (``statistics.quantiles``,
n=4) and the spread (Q3 - Q1) / median.  The runs' last lines are appended to
``perfbench/.work/spread-<workload>-trace<t>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_refs import parse_seeds

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    log = BENCH / ".work" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        doc = json.loads((BENCH / ".work" / f"result-{args.workload}-trace{args.trace}.json").read_text())
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result, "details": doc["details"], "requests": doc["requests"]}) + "\n")
        if args.trace == "0":  # the same statistics from unscaled wall-clock times
            lat = [r["latency_s"] for r in doc["requests"]]
            ok = sum(not r["failed"] for r in doc["requests"])
            for name, value in (
                ("raw.setup_s", statistics.median(doc["details"]["setup_samples_raw_s"])),
                ("raw.throughput", ok / doc["details"]["loop_s"]),
                ("raw.latency_s.p50", statistics.median(lat)),
            ):
                values.setdefault(name, []).append(value)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
