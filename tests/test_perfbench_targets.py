"""Every function the benchmark's traced run wraps must still exist, so a
rename fails here rather than in the traced benchmark run."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACING = ROOT / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("metric, module, path", _targets())
def test_traced_target_resolves(metric, module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), metric


def test_traced_modules_are_bound_after_cli_import():
    """The traced run wraps targets right after ``import etbell.cli`` and one
    untraced pass, reading each target's module from ``sys.modules``; every
    one must be bound there by the import alone, executed or not."""
    modules = sorted({module for _, module, _ in _targets()})
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    unbound = "import sys, etbell.cli; print([m for m in sys.argv[1:] if m not in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", unbound, *modules],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
