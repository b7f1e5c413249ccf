"""The benchmark's tracer (perfbench/tracer.py) patches public functions at
the module attributes where their callers look them up. A call site that is
renamed, inlined or moved to another module silently drops its per-layer
metric, so every traced name must still resolve here."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    wraps = _load_tracer().WRAPS
    assert wraps
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in wraps
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
