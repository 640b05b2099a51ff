"""The benchmark's tracer wraps library names; each of them must still exist.

``bench/test_smoke.py`` runs the traced benchmark in a subprocess and sits
outside the default test paths, so without this check a deleted or renamed
library attribute would only show up as a failing ``bench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import loopspace
import loopspace.cli  # noqa: F401  layer_table reads it; the package does not import it

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.layer_table(loopspace)
    assert table
    missing = [name for owner, attr, name, _ in table if not callable(getattr(owner, attr, None))]
    assert missing == []
