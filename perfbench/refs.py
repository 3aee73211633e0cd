"""Report fingerprints and the comparison against recorded references.

A fingerprint of a report's text is its sha256, the sha256 of its skeleton
(the text with every number replaced by ``#``) and the list of its numbers.
A report agrees with its reference when the skeletons are equal and every
number is within ``REL_TOL`` relative or ``ABS_TOL`` absolute of the
recorded one.  A changed digest with agreeing numbers is reported, not
counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
REF_DIR = Path(__file__).resolve().parent / "references"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(text: str) -> dict:
    return {
        "sha256": sha256(text),
        "skeleton_sha256": sha256(NUMBER.sub("#", text)),
        "numbers": [float(m) for m in NUMBER.findall(text)],
    }


def compare(text: str, ref: dict) -> tuple:
    """Return (status, detail): status is 'match' (identical bytes),
    'within_tol' (same skeleton, numbers within tolerance) or 'mismatch'."""
    fp = fingerprint(text)
    if fp["sha256"] == ref["sha256"]:
        return "match", ""
    if fp["skeleton_sha256"] != ref["skeleton_sha256"] or len(fp["numbers"]) != len(ref["numbers"]):
        return "mismatch", "report layout differs from the reference"
    worst, where = 0.0, -1
    for i, (got, want) in enumerate(zip(fp["numbers"], ref["numbers"])):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            err = abs(got - want) / max(abs(want), ABS_TOL)
            if err > worst:
                worst, where = err, i
    if where >= 0:
        return "mismatch", f"number {where} off by {worst:.3g} relative"
    return "within_tol", "digest differs, numbers within tolerance"


def load(workload: str) -> dict:
    path = REF_DIR / f"{workload}.json"
    if not path.is_file():
        return {"requests": {}, "fields": {}}
    return json.loads(path.read_text())


def save(workload: str, data: dict) -> None:
    REF_DIR.mkdir(exist_ok=True)
    (REF_DIR / f"{workload}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
