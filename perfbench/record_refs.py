"""Record the reference outputs that the benchmark checks reports against.

    python3 perfbench/record_refs.py [--workload W ...] [--seeds 0-10,97]

Run it on the commit whose outputs define "correct"; it rewrites
``perfbench/references/<workload>.json``.  For every seed and every request
of the first ``UNITS[workload]`` units it stores the report fingerprint (or,
for a request that raises, its error line) and the digests of the ``values``
and ``witness_idx`` of each ``maximal_field`` call.  ``cli-cold`` reports do
not depend on the seed except for the Heisenberg ``volume`` call, so they are
recorded once, from fresh processes, and checked against the in-process run.
"""

from __future__ import annotations

import argparse
import sys

import envinfo
import refs
import run
from tracing import Tracer
from workloads import WORKLOADS, json_reports

DEFAULT_SEEDS = "0-10,97"  # 0 is the default seed, 97 the held-out seed
UNITS = {"cli-cold": 1, "h2-field": 32, "na-cover": 8}


def parse_seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def record(wl, seeds) -> dict:
    import hypmax.cli  # noqa: F401  (every traced module is loaded before patching)

    data = {
        "recorded_from": {"commit": envinfo.commit(run.ROOT), "src_sha256": envinfo.src_digest(run.ROOT)},
        "tolerance": {"rel": refs.REL_TOL, "abs": refs.ABS_TOL},
        "seeds": seeds,
        "units": UNITS[wl.name],
        "requests": {},
        "fields": {},
    }
    run.WORKDIR.mkdir(exist_ok=True)
    state = wl.setup(run.ROOT, run.WORKDIR, seeds[0])
    tracer = Tracer()
    for seed in seeds:
        for n in range(UNITS[wl.name]):
            for req in wl.unit(state, seed, n):
                if req.key in data["requests"]:
                    continue
                rid = f"{seed}:{req.rid}"
                tracer.install()
                try:
                    with tracer.request_span(rid):
                        out = run._attempt(wl.execute_in_process, state, req)
                finally:
                    tracer.uninstall()
                if wl.name == "cli-cold":
                    fresh = run._attempt(wl.execute, state, req)
                    if (fresh.text, fresh.error) != (out.text, out.error):
                        raise SystemExit(f"{req.label}: fresh process and in-process outputs differ")
                if out.text is None:
                    data["requests"][req.key] = {"error": out.error}
                else:
                    data["requests"][req.key] = refs.fingerprint(out.text)
                fields = tracer.field_digests.pop(rid, [])
                if fields:
                    data["fields"][req.key] = fields
                tracer.spans.clear()
                print(f"{wl.name} {req.key}: {data['requests'][req.key].get('sha256', out.error)}", flush=True)
                if wl.name == "h2-field" and "constants" not in data:
                    (rep,) = json_reports(out.text)
                    table = next(t for t in rep["tables"] if t["name"] == "constants")
                    data["constants"] = dict(table["rows"])
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", default=DEFAULT_SEEDS, help="comma list of seeds or ranges lo-hi")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    for name in args.workload or sorted(WORKLOADS):
        refs.save(name, record(WORKLOADS[name], parse_seeds(args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
