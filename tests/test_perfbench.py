"""The benchmark's tracer wraps program attributes by name; they must exist."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_attributes_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing._PATCHES
        if attr not in owner.__dict__
    ]
    assert missing == []
