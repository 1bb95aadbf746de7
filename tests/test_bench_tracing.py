"""The benchmark's tracer wraps library functions by their names in
`bench/tracing.py`; a name that no longer resolves drops its per-layer
metric from the benchmark's table."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    rec = tracing.Recorder()
    rec.install()
    try:
        assert rec.missing == []
    finally:
        rec.uninstall()
