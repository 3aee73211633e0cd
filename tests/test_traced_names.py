"""Every function that the benchmark's tracer wraps resolves under the name
it looks up.

``perfbench/tracing.py`` replaces each ``TRACED`` target at its module (or
class) attribute, so deleting or renaming one of them (``gauge_batch``,
``dist_n``, ``membership_mask`` in ``measure`` or its re-export in
``maxop``, ``emit_figure``, ...) breaks the traced benchmark run.  The
tracer is loaded from its path, as it stands, and every target is looked
up on the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for module, cls, attr, *_ in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(".".join(filter(None, (module, cls, attr))))
    assert not missing, f"traced by perfbench/tracing.py but not found: {missing}"
