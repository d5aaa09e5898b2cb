"""Benchmark of varietyrec: one workload per run, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-exhaust --seed 1 --seconds 20 --trace 0

The run builds its inputs from ``--seed`` (the set-up), then calls the
workload's operations in whole rounds, one operation of each input
family per round, until the operations have taken ``--seconds`` seconds
and at least ``MIN_OPS`` have been attempted.  Every result is checked
against a computation made apart from the program (``checks.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary per
input family and the unscaled times go to standard error.  The program
runs in this process with one BLAS thread.

Times are reported at a reference machine speed.  After every round the
run times a fixed numpy calibration block (small SVD, eigh and product
calls, the same kind of work as the program's); every time is multiplied
by ``CAL_REF_S`` over the block's mean time in the run.  On a shared
machine whose speed drifts by 10-20% within minutes, this keeps runs
comparable; a change to the program does not touch the block.
"""

import os
import sys
import time

_T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# the 90th percentile needs ten samples beyond it
MIN_OPS = 100
# set-up is repeated this many times and its median reported
SETUP_BUILDS = 3
# seconds the calibration block takes at the reference speed: its median
# on the machine where the benchmark was defined (2 vCPUs at 2.0 GHz,
# numpy 2.4 with OpenBLAS 0.3.31, one thread)
CAL_REF_S = 1.4e-3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _calibration_block():
    """Seconds taken by a fixed amount of small dense linear algebra."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    start = time.perf_counter()
    for _ in range(30):
        np.linalg.svd(a)
        np.linalg.eigh(h)
        a @ h
    return time.perf_counter() - start


def _build_pool(families, rounds, seed, tracer):
    import numpy as np

    pool = []
    for rnd in range(rounds):
        cases = []
        for fi, fam in enumerate(families):
            tracer.family = fam.name
            cases.append(fam.build(np.random.default_rng([seed, fi, rnd]),
                                   tracer))
        pool.append(cases)
    return pool


def _run_case(case, tracer, label):
    """Time one operation; returns (seconds, result or None, problems)."""
    start = time.perf_counter()
    try:
        out = case.run()
    except Exception:  # one operation's fault must not end the run
        seconds = time.perf_counter() - start
        print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return seconds, None, []
    end = time.perf_counter()
    if case.failed(out):
        print(f"{label}: the program gave up", file=sys.stderr)
        return end - start, None, []
    problems = [f"{label}: {p}" for p in case.check(out)]
    if tracer is not None:
        tracer.operation(start, end)
        probe_start = time.perf_counter()
        case.probe(tracer, out)
        tracer.overhead_s += time.perf_counter() - probe_start
    return end - start, out, problems


def _reference_probes(tracer, families, tracing):
    """Time the layers the workload does not reach on fixed cases."""
    import numpy as np

    tracer.source = "reference"
    problems = []
    for layer in tracing.missing_layers(tracer.records):
        if layer not in tracing.missing_layers(tracer.records):
            continue  # timed by an earlier reference case
        fam = families.REFERENCE[layer]
        tracer.op, tracer.family = None, fam.name
        case = fam.build(np.random.default_rng(0), tracer)
        label = f"reference {fam.name}"
        _, out, probs = _run_case(case, tracer, label)
        problems += probs if out is not None else [f"{label}: failed"]
    return problems


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "varietyrec", "__init__.py")):
        print(f"error: no varietyrec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np  # noqa: F401  (part of the timed import)
    import varietyrec  # noqa: F401
    import families
    import tracing
    import_s = time.perf_counter() - _T_START

    if args.workload not in families.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(families.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = families.WORKLOADS[args.workload]
    fams = workload.families
    tracer = tracing.Tracer() if args.trace else None

    builds = []
    for i in range(SETUP_BUILDS):
        start = time.perf_counter()
        last = i == SETUP_BUILDS - 1
        pool = _build_pool(fams, workload.pool_rounds, args.seed,
                           tracer if last and tracer else tracing.NullTracer())
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    lat = []
    by_family = {f.name: [] for f in fams}
    problems = []
    attempted = failed = 0
    busy = cal_s = 0.0
    rnd = 0
    while busy < args.seconds or attempted < MIN_OPS:
        cases = pool[rnd % len(pool)]
        for fam, case in zip(fams, cases):
            if tracer is not None:
                tracer.op, tracer.family = attempted, fam.name
            label = f"{fam.name}[{rnd % len(pool)}]"
            seconds, out, probs = _run_case(case, tracer, label)
            attempted += 1
            busy += seconds
            problems += probs
            if out is None:
                failed += 1
            else:
                lat.append(seconds)
                by_family[fam.name].append(seconds)
        rnd += 1
        cal_s += _calibration_block()
    scale = CAL_REF_S * rnd / cal_s

    for name, ts in by_family.items():
        if ts:
            print(f"{args.workload} {name}: {len(ts)} ops, "
                  f"{100 * sum(ts) / busy:.1f}% of op time, "
                  f"median {statistics.median(ts):.4f} s", file=sys.stderr)
    for p in problems[:20]:
        print(f"INCORRECT {p}", file=sys.stderr)
    if not lat:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(f"unscaled: setup {setup_s:.4f} s, {len(lat) / busy:.3f} ops/s, "
          f"median {statistics.median(lat):.4f} s; time scale {scale:.4f}",
          file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "ops_per_s": {"value": len(lat) / (busy * scale),
                          "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(lat) * scale,
                         "unit": "s"},
            "op_p90_s": {"value": statistics.quantiles(lat, n=10)[8] * scale,
                         "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    else:
        overhead = 100.0 * tracer.overhead_s / busy
        problems += _reference_probes(tracer, families, tracing)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = tracing.layer_metrics(tracer.records, scale)
        metrics[tracing.OVERHEAD] = {"value": overhead, "unit": "%"}

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
