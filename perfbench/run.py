"""ptwell benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0

Run from the root of a ptwell checkout; the program is imported from its
``src`` directory.  The inputs and the references are made here from the
seed; the program runs in fresh worker processes (see ``worker.py``): a
few that only measure set-up, then one that runs whole rounds of the
workload's operations for ``--seconds``, one operation in flight.  Every
distinct output is then checked against ``reference``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes; the median is reported
# op_tail_ms: a percentile that keeps at least ten operations beyond it in
# a 15-second run of the workload (spectrum at least two rounds of 77
# operations, census ~500, eigenstates ~160, oracle one round of 51);
# fixed, so runs stay comparable
TAIL_PERCENTILE = {"spectrum": 90, "census": 95, "eigenstates": 90, "oracle": 80}
WORKER_TIMEOUT_S = 150


def _worker(job):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ptwell", "__init__.py")):
        raise SystemExit("run from the root of a ptwell checkout: src/ptwell is missing here")
    sys.path.insert(0, HERE)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")

    t0 = time.perf_counter()
    ops, refs, notes = W.make_inputs(args.workload, args.seed)
    t_inputs = time.perf_counter() - t0

    job = {"root": root, "workload": args.workload, "ops": ops, "seconds": args.seconds, "trace": args.trace}
    setups = [_worker({**job, "mode": "setup"})["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    tag = f"{args.workload}-seed{args.seed}"
    trace_out = os.path.join(HERE, "out", f"trace-{tag}.csv") if args.trace else None
    res = _worker({**job, "mode": "run", "trace_out": trace_out})
    setups.append(res["setup_s"])

    t0 = time.perf_counter()
    rounds = res["rounds"]
    attempted = rounds * len(ops)
    failed = 0
    unexplained = []
    fault_msgs = []
    for i, op in enumerate(ops):
        for err in res["errors"][i]:
            failed += 1
            unexplained.append(f"op {i} ({op['label']}): raised {err}")
        for output, times in res["outputs"][i]:
            fails = W.check(args.workload, op, output, refs[i])
            if not fails:
                continue
            failed += times
            for f in fails:
                msg = f"op {i} ({op['label']}, a={op['a']}, omega={op['omega']}, eta={op['eta']}): {f.message}"
                (fault_msgs if f.fault else unexplained).append(msg)
    t_checks = time.perf_counter() - t0
    correct = not unexplained

    times_ms = np.array(res["op_times_s"]) * 1e3
    if args.trace:
        layers = res["layers"]
        if layers["self_time_residual"] > 1e-6:
            correct = False
            unexplained.append(f"self times do not add up to operation durations: {layers['self_time_residual']:.2e}")
        metrics = layers["metrics"]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        table = [f"per-layer metrics, {args.workload}, seed {args.seed}, per operation over {attempted} operations"]
        table += [f"  {k:40s} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
        table.append(f"  {'traced op_mean_ms':40s} {layers['op_ms']:14.6g} ms")
        table.append(f"  {'unattributed (benchmark) ms':40s} {layers['unattributed_ms']:14.6g} ms")
        table.append(f"  {'spans':40s} {layers['spans']:14d}")
        with open(os.path.join(HERE, "out", f"layers-{tag}.txt"), "w") as fh:
            fh.write("\n".join(table) + "\n")
        print("\n".join(table))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / res["elapsed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": float(np.percentile(times_ms, 50)), "unit": "ms"},
            "op_tail_ms": {"value": float(np.percentile(times_ms, TAIL_PERCENTILE[args.workload])), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        for k, v in metrics.items():
            print(f"{k:12s} {v['value']:.6g} {v['unit']}")
    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, {attempted} attempted, "
        f"{failed} failed; inputs {t_inputs:.1f} s, checks {t_checks:.1f} s; {notes}"
    )
    for msg in fault_msgs[:8]:
        print(f"known fault: {msg}")
    for msg in unexplained[:20]:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
