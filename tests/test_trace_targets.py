"""The benchmark's span tracer finds every program attribute it traces.

``perfbench/spans.py`` patches named functions and methods of
``chainlogic``; a target that no longer exists is skipped silently and its
metrics read zero calls.  This test loads that file, without changing it,
and fails when a rename or deletion in the package leaves a target behind.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
