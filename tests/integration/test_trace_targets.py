"""Every function the end-to-end benchmark traces still exists.

``perfbench/run.py --trace 1`` wraps each ``TRACE_TARGETS`` entry of
``perfbench/ledger.py`` in a span.  A refactor that renames or moves
one of those functions would otherwise pass the unit tests and only
break the traced benchmark run.  The benchmark's modules are loaded by
path and only read.
"""

import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        name, PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    spans = _load("spans", monkeypatch)  # ledger imports it by name
    ledger = _load("ledger", monkeypatch)
    assert ledger.TRACE_TARGETS
    missing = []
    for span, module, qualname, _ in ledger.TRACE_TARGETS:
        try:
            owner, attr = spans._resolve(module, qualname)
        except (ImportError, AttributeError):
            missing.append(f"{span}: {module}.{qualname}")
            continue
        if not hasattr(owner, attr):
            missing.append(f"{span}: {module}.{qualname}")
    assert not missing, missing
