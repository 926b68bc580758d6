"""The benchmark's own self-test passes against this checkout's library.

The bench tracer patches library functions by name, so renaming or
splitting one that it wraps shows here, not only in traced bench runs.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
