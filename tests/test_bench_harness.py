import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    """The benchmark harness calls the public API by name and signature;
    its self-test fails when a change breaks one of those calls."""
    script = os.path.join(ROOT, "bench", "selftest.py")
    proc = subprocess.run([sys.executable, script],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
