import json
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


def _zero_second_run(workload):
    """The result line of ``bench/run.py --seconds 0`` on one workload."""
    script = os.path.join(ROOT, "bench", "run.py")
    proc = subprocess.run([sys.executable, script, "--workload", workload,
                           "--seed", "1", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def test_bench_minor_descent_run_is_correct():
    """A zero-second run of the minor-descent workload: at least 100
    operations, each checked against the benchmark's numpy-only
    Cauchy-Binet and planted-rank checks."""
    assert _zero_second_run("minor-descent")["attempted"] >= 100


def test_bench_certify_refute_run_is_correct():
    """A zero-second run of the certify-refute workload: at least 100
    refutations, each witness and collision re-checked against the raw
    operators, including those the complement property finds."""
    assert _zero_second_run("certify-refute")["attempted"] >= 100


def test_bench_certify_exhaust_run_is_correct():
    """A zero-second run of the certify-exhaust workload: at least 100
    operations, each checked, including the real_phase_d7_m13 frames the
    complement property certifies exactly."""
    assert _zero_second_run("certify-exhaust")["attempted"] >= 100


def test_bench_recover_run_is_correct():
    """A zero-second run of the recover workload: at least 100
    recover_low_rank calls, each estimate checked against the drawn
    truth."""
    assert _zero_second_run("recover")["attempted"] >= 100
