"""The benchmark's tracer names brickrank functions by (module, name);
a rename would silently turn its layer metric to 0.  The package's
__all__ lists are names too, and must stay true."""

import importlib
import importlib.util
import pkgutil
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


def test_all_lists_are_true():
    """Every name in a module's __all__ exists, and every public name the
    package re-exports is in its home module's __all__."""
    import brickrank

    stale, unlisted = [], []
    for info in pkgutil.iter_modules(brickrank.__path__):
        module = importlib.import_module(f"brickrank.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    for name, value in vars(brickrank).items():
        home = getattr(value, "__module__", None)
        if name.startswith("_") or not (home or "").startswith("brickrank."):
            continue
        if name not in importlib.import_module(home).__all__:
            unlisted.append(f"{home}.{name}")
    assert (stale, unlisted) == ([], [])
