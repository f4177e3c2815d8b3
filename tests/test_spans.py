"""Every span the benchmark tracer names still exists in the library.

``perfbench/spans.py`` rebinds the functions its ``SPANS`` list names, by
module and attribute path.  A rename or deletion in ``src/pinchflow``
would otherwise surface only when a traced benchmark run crashes.  The
tracer is loaded by file path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_resolves_to_a_library_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans
    for name, module_name, path in spans:
        assert module_name.startswith("pinchflow."), name
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                pytest.fail(f"span {name}: {module_name}.{path} does not exist")
        assert callable(owner), f"span {name}: {module_name}.{path} is not callable"
