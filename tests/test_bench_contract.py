"""The library names the benchmark under ``perfbench/`` relies on.

The tracer wraps pgquant functions by module and attribute name, so a
library change that renames or drops one of them would only show when the
benchmark runs.  These tests read ``perfbench/`` and change nothing there.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for label, mod_name, attr, _ in tracer.LAYERS:
        owner = importlib.import_module(f"pgquant.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{label}: pgquant.{mod_name} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner), label


def test_benchmark_selftest_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
