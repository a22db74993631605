"""The benchmark's tracer names brickrank functions by (module, name);
a rename would silently turn its layer metric to 0."""

import importlib
import importlib.util
from pathlib import Path
import types

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{fname}" for module, fname, _ in tracing.WRAPPED
        if not isinstance(getattr(importlib.import_module(f"brickrank.{module}"),
                                  fname, None), types.FunctionType)
    ]
    assert missing == []
