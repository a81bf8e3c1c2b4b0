"""The benchmark's trace rebinds internal calls by module attribute name; a
rename in the package would make every traced op fail."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_hooks_name_callables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.INTERNAL_CALLS
    for mod, attr, _span in tracing.INTERNAL_CALLS:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
