"""The per-layer tracer of perfbench/ rebinds package names by string.

A rename or deletion in the package would leave `perfbench/run.py --trace 1`
failing at install time; this pins every name it wraps.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_the_package():
    tracer = _load_tracer()
    entries = [entry[:2] for entry in tracer.SPAN_ENTRIES + tracer.LEAF_ENTRIES]
    assert entries
    missing = [f"{mod}.{attr}" for mod, attr in entries
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
