"""The traced benchmark wraps library functions by name (perfbench/spans.py).

A library change that drops or renames a wrapped function breaks
`perfbench/run.py --trace 1`, which nothing else in the suite runs.  This
installs every wrapper and takes them off again.
"""

import importlib
import importlib.util
from pathlib import Path

import bcpart

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    spans = _spans()
    modules = [bcpart] + [importlib.import_module(f"bcpart.{m}") for m in spans.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patched = list(tracer._patches)
        assert patched
        for module, attr, original in patched:
            assert callable(original), (module.__name__, attr)
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.restore()
    assert not tracer._patches
    assert [dict(vars(m)) for m in modules] == before
