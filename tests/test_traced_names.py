"""The benchmark's tracer (perfbench/spans.py) wraps public functions that
it looks up by name; a deleted or renamed one must fail here, not there."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_are_callable_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED_FUNCTIONS.items():
        home = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
