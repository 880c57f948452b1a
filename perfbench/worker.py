"""One workload in a fresh process: import ptwell, warm up, run the timed loop.

Reads a job (JSON) on stdin and prints one JSON line on stdout.  The job
names the workload, the operations of one round and the run length; the
worker runs whole rounds until the run length has passed.  Outputs are
serialized after the timed loop, and only distinct outputs per operation
are sent back, so the checks in the parent see every answer the program
gave.  With ``trace`` set, the run goes through ``tracing.Tracer``.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time


def _load_ptwell(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ptwell", "__init__.py")):
        raise SystemExit(f"no ptwell sources under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ptwell  # noqa: F401
    import ptwell.complexroots
    import ptwell.oracle
    import ptwell.realroots
    import ptwell.wavefunction

    if not os.path.abspath(ptwell.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported ptwell from {ptwell.__file__}, not from {src}")
    return time.perf_counter() - t0


def _params(op):
    from ptwell.secular import WellParameters

    return WellParameters(op["a"], op["omega"], op["eta"])


# Each runner takes one operation and returns the program's answer; every
# public function is looked up on its module at call time, so the tracer's
# wrappers are the ones called in a traced run.


def run_spectrum(op):
    from ptwell import realroots

    cfg = realroots.ScanConfig(kappa_max=op["kappa_max"], kappa_min=op["kappa_min"])
    return realroots.compute_spectrum(_params(op), cfg)


def run_census(op):
    from ptwell import complexroots

    return complexroots.breaking_search(_params(op), op["kappa_max"])


def run_eigenstates(op):
    from ptwell import wavefunction

    psi = wavefunction.build_wavefunction(_params(op), op["kappa"])
    parts = wavefunction.parity_decompose(psi)
    return psi, parts, wavefunction.norms(psi)


def _problem(op):
    from ptwell import oracle

    return oracle.RegularizedProblem(parameters=_params(op), sigma=op["sigma"], grid_step=op["sigma"] / 10.0)


def run_oracle(op):
    from ptwell import oracle

    return oracle.shoot_eigenvalue(_problem(op), complex(op["energy_seed"]))


RUNNERS = {
    "spectrum": run_spectrum,
    "census": run_census,
    "eigenstates": run_eigenstates,
    "oracle": run_oracle,
}


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def serialize(workload, op, out):
    """The program's answer as plain JSON; eigenstates also sample psi for the checks."""
    if workload == "spectrum":
        return [[r.n, r.kappa, r.energy, r.flag, r.gap_prev] for r in out.levels]
    if workload == "census":
        return {
            "real_root_count": out.real_root_count,
            "winding_total": out.winding_total,
            "strip_height": out.strip_height,
            "off_axis": [_c(z) for z in out.off_axis],
            "tiles": [list(t) for t in out.tiles],
        }
    if workload == "eigenstates":
        import numpy as np

        psi, parts, (l2, pseudo) = out
        a = op["a"]
        x = np.linspace(-1.0, 1.0, 401)
        return {
            "kappa": _c(psi.kappa),
            "coeffs": [_c(c) for c in (psi.alpha, psi.beta, psi.gamma, psi.delta)],
            "l2": l2,
            "pseudo": _c(pseudo),
            "x": x.tolist(),
            "psi": [_c(v) for v in psi.value(x)],
            "psi_mirror": [_c(v) for v in psi.value(-x)],
            "psi_S": np.asarray(parts.psi_S(x), dtype=float).tolist(),
            "psi_A": np.asarray(parts.psi_A(x), dtype=float).tolist(),
            "walls": [_c(psi.value(-1.0)), _c(psi.value(1.0))],
            # at x = -a and +a: value and derivative from below ("-") and above ("+")
            "sides": [
                [_c(psi.value(s * a, side)) for side in ("-", "+")]
                + [_c(psi.derivative(s * a, side)) for side in ("-", "+")]
                for s in (-1.0, 1.0)
            ],
        }
    if workload == "oracle":
        return {"energy": _c(out)}
    raise ValueError(workload)


def timed_rounds(workload, ops, seconds, on_op=None):
    """Run whole rounds of ``ops`` until ``seconds`` have passed; one op in flight."""
    runner = RUNNERS[workload]
    results = [[] for _ in ops]
    errors = [[] for _ in ops]
    times = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(i, op)
            t0 = time.perf_counter()
            try:
                out = runner(op)
            except Exception as exc:  # a raising operation is a failed one, not a crash
                out = None
                errors[i].append(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
            results[i].append(out)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return results, errors, times, time.perf_counter() - start, rounds


def main():
    job = json.loads(sys.stdin.read())
    workload, ops = job["workload"], job["ops"]
    setup_import = _load_ptwell(job["root"])
    t0 = time.perf_counter()
    RUNNERS[workload](ops[0])  # warm-up call
    setup_s = setup_import + time.perf_counter() - t0
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    on_op = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        on_op = tracer.begin_op
    results, errors, times, elapsed, rounds = timed_rounds(workload, ops, job["seconds"], on_op)
    layer = None
    if tracer is not None:
        tracer.end_op()
        tracer.uninstall()
        if workload == "oracle":
            tracing.oracle_extras(tracer, ops, results)
        layer = tracer.report(len(times), job.get("trace_out"))

    distinct = []
    for i, op in enumerate(ops):
        seen = {}
        for out in results[i]:
            if out is None:
                continue
            key = json.dumps(serialize(workload, op, out))
            seen[key] = seen.get(key, 0) + 1
        distinct.append([[json.loads(k), n] for k, n in seen.items()])
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "elapsed_s": elapsed,
                "rounds": rounds,
                "op_times_s": times,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "outputs": distinct,
                "errors": errors,
                "layers": layer,
            }
        )
    )


if __name__ == "__main__":
    main()
