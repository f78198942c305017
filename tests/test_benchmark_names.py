"""The traced benchmark pass (perfbench/tracing.py) rebinds module attributes
listed in INSTRUMENTED; a rename or deletion in the package must not leave
one of them dangling, or the traced pass crashes."""

import importlib.util
from importlib import import_module
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_instrumented_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.INSTRUMENTED
    missing = [
        f"{module}.{attr}"
        for module, attr, _span, _capture in tracing.INSTRUMENTED
        if not callable(getattr(import_module(module), attr, None))
    ]
    assert missing == []
