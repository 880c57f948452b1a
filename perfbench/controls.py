"""Corrupted-output controls: every check must fail on a deliberately broken answer.

    python3 perfbench/controls.py

Run from the root of a ptwell checkout.  For each workload the program
answers one operation, the answer is checked as the benchmark checks it
(it must pass, or fail only by the known fault), and then a corrupted copy
is checked (it must fail, and not by the known fault):

- spectrum: a regular level shifted by 1e-6, and a dropped level;
- census: one zero of an off-axis conjugate pair removed;
- eigenstates: the L2 norm, then the pseudo-norm, scaled by 1 + 1e-6;
- oracle: the energy taken from the neighbouring level, the shot's own
  seed returned as its answer, and the energy moved by 1e-4 of itself
  (a shot stopped before it converged);
- spectrum's pair check, on regime 4: the known fault is reported as such.

Exits with code 1 if any control does not behave so.
"""
from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, HERE)
    import worker
    import workloads as W
    import reference as R

    worker._load_ptwell(os.getcwd())

    def answer(workload, op):
        return json.loads(json.dumps(worker.serialize(workload, op, worker.RUNNERS[workload](op))))

    bad = 0

    def expect(name, fails, want_fail, want_fault=False):
        nonlocal bad
        failed = bool(fails)
        fault = failed and all(f.fault for f in fails)
        ok = failed == want_fail and (not failed or fault == want_fault)
        bad += not ok
        detail = fails[0].message if fails else "passes"
        print(f"{'ok  ' if ok else 'BAD '} {name}: {detail}")

    # spectrum: regime 1, all levels regular
    a, w, e, (lo, hi) = W.CANONICAL[1]
    p = R.Params(a, w, e)
    op = W._op(p, kappa_min=lo, kappa_max=hi, label="regime 1")
    ref, _ = R.real_roots(p, lo, hi, precisions=(50,))
    levels = answer("spectrum", op)
    expect("spectrum, clean", W.check("spectrum", op, levels, ref), False)
    shifted = copy.deepcopy(levels)
    shifted[2][1] += 1e-6
    shifted[2][2] = shifted[2][1] ** 2
    expect("spectrum, level 3 shifted by 1e-6", W.check("spectrum", op, shifted, ref), True)
    dropped = [lv for i, lv in enumerate(levels) if i != 2]
    for i, lv in enumerate(dropped):
        lv[0] = i + 1
    expect("spectrum, level 3 dropped", W.check("spectrum", op, dropped, ref), True)

    # spectrum: regime 4 holds the known fault; regime 3's pairs are real
    for rid, fault in ((4, True), (3, False)):
        a, w, e, (lo, hi) = W.CANONICAL[rid]
        p = R.Params(a, w, e)
        op = W._op(p, kappa_min=lo, kappa_max=hi, label=f"regime {rid}")
        ref, _ = R.real_roots(p, lo, hi, precisions=(50,))
        expect(f"spectrum, regime {rid}", W.check("spectrum", op, answer("spectrum", op), ref), fault, fault)

    # census: a PT-broken point with off-axis zeros
    p = R.Params(0.3, 7.5, 45.0)
    op = W._op(p, kappa_max=W.CENSUS_KAPPA_MAX, label="broken")
    ref, _ = W._census_ref(p)
    res = answer("census", op)
    expect(f"census, clean ({len(res['off_axis'])} off-axis)", W.check("census", op, res, ref), False)
    removed = copy.deepcopy(res)
    removed["off_axis"].pop()
    expect("census, one conjugate removed", W.check("census", op, removed, ref), True)

    # eigenstates: the lowest level of regime 1
    a, w, e, _ = W.CANONICAL[1]
    p = R.Params(a, w, e)
    op = W._op(p, kappa=R.lowest_isolated_roots(p, 1, 20.0)[0], label="regime 1")
    res = answer("eigenstates", op)
    expect("eigenstates, clean", W.check("eigenstates", op, res, None), False)
    for key in ("l2", "pseudo"):
        scaled = copy.deepcopy(res)
        scaled[key] = scaled[key] * (1 + 1e-6) if key == "l2" else [v * (1 + 1e-6) for v in scaled[key]]
        expect(f"eigenstates, {key} scaled by 1 + 1e-6", W.check("eigenstates", op, scaled, None), True)

    # oracle: two levels of one point; each energy checked against the other's reference
    ops, refs, _ = W.make_inputs("oracle", 1)
    ops, refs = ops[:2], refs[:2]
    res = [answer("oracle", o) for o in ops]
    expect("oracle, clean", W.check("oracle", ops[0], res[0], refs[0]), False)
    expect("oracle, energy of the neighbouring level", W.check("oracle", ops[0], res[1], refs[0]), True)
    expect("oracle, the shot's seed returned", W.check("oracle", ops[0], {"energy": [ops[0]["energy_seed"], 0.0]}, refs[0]), True)
    loose = {"energy": [res[0]["energy"][0] * (1 + 1e-4), res[0]["energy"][1]]}
    expect("oracle, energy moved by 1e-4 of itself", W.check("oracle", ops[0], loose, refs[0]), True)

    print(f"{bad} control(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
