"""The benchmark's trace mode wraps otfsim functions by name.

``bench/tracing.py`` replaces ``getattr(module, name)`` for every entry
of its ``WRAPPED`` table; a name that the library stops importing would
break ``bench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("otfsim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module, name, layer, _ in tracing.WRAPPED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} ({layer})"
