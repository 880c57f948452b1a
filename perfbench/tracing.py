"""Spans and counts around calls into ptwell's public functions.

The tracer replaces module attributes with wrappers for the length of a
traced run.  Where ptwell imports a function by name into another module
(``ptwell.realroots.secular``, ``ptwell.complexroots.entire_secular``) the
same wrapper goes on that name too.  Each span records its name, start,
end, parent and operation id; spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its child
spans.  ptwell's scan may evaluate F on a thread pool, so children can
overlap: at every instant the elapsed time is shared equally among the
innermost open spans, which makes the self times of one operation add up
to its duration.

One count goes on a private helper, not around a public function:
``ptwell.oracle._potential_grid``, which every RK4 shot calls once for its
grid of n steps.  It gives the shots per operation and the steps per shot
as the oracle takes them.  A name that no longer exists is skipped and its
metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_F(tr, args, kwargs, out):
    n = np.size(_arg(args, kwargs, 1, "kappa"))
    tr.add("secular.F_evals", n)
    if tr.parent_name() == "realroots.scan_brackets":
        tr.add("realroots.grid_points", n)  # the base grid and the dip densification


def _count_scan(tr, args, kwargs, out):
    tr.add("realroots.brackets", len(out[0]))
    tr.add("realroots.dip_sites", len(out[1]))


def _count_shot(tr, args, kwargs, out):
    tr.add("oracle.shots", 1)
    tr.add("oracle.rk4_steps", out[2])  # the grid of n steps the shot runs over


# (module, attribute, span name or None for count-only, counter)
_TARGETS = [
    ("ptwell.secular", "secular", "secular.F", _count_F),
    ("ptwell.secular", "entire_secular", "secular.H", lambda tr, a, k, out: tr.add("secular.H_evals", np.size(_arg(a, k, 1, "kappa")))),
    ("ptwell.realroots", "scan_brackets", "realroots.scan_brackets", _count_scan),
    ("ptwell.realroots", "refine_root", "realroots.refine_root", lambda tr, a, k, out: tr.add("realroots.refine_root_calls", 1)),
    ("ptwell.realroots", "resolve_cluster", "realroots.resolve_cluster", lambda tr, a, k, out: tr.add("realroots.resolve_cluster_calls", 1)),
    ("ptwell.realroots", "compute_spectrum", "realroots.compute_spectrum", None),
    (
        "ptwell.complexroots",
        "winding_count",
        "complexroots.winding_count",
        lambda tr, a, k, out: (tr.add("complexroots.winding_calls", 1), tr.add("complexroots.contour_samples", out.samples_used)),
    ),
    ("ptwell.complexroots", "locate_complex_zero", "complexroots.locate_complex_zero", lambda tr, a, k, out: tr.add("complexroots.newton_calls", 1)),
    ("ptwell.complexroots", "breaking_search", "complexroots.breaking_search", lambda tr, a, k, out: tr.add("complexroots.off_axis_zeros", len(out.off_axis))),
    ("ptwell.wavefunction", "build_wavefunction", "wavefunction.build", None),
    ("ptwell.wavefunction", "parity_decompose", "wavefunction.parity", None),
    ("ptwell.wavefunction", "norms", "wavefunction.norms", None),
    ("ptwell.oracle", "shoot_eigenvalue", "oracle.shoot_eigenvalue", None),
    # count only: every RK4 shot fetches the potential on its grid of n steps
    ("ptwell.oracle", "_potential_grid", None, _count_shot),
]
# modules that import a traced function under the same name
_ALIASES = {
    ("ptwell.secular", "secular"): ["ptwell.realroots"],
    ("ptwell.secular", "entire_secular"): ["ptwell.complexroots"],
}

# per-layer metric -> (kind, source); "self" sums span self times per operation
METRICS = {
    "secular.F_evals": ("count", "secular.F_evals"),
    "secular.F_eval_ms": ("self", "secular.F"),
    "secular.H_evals": ("count", "secular.H_evals"),
    "secular.H_eval_ms": ("self", "secular.H"),
    "realroots.grid_points": ("count", "realroots.grid_points"),
    "realroots.brackets": ("count", "realroots.brackets"),
    "realroots.dip_sites": ("count", "realroots.dip_sites"),
    "realroots.scan_brackets_ms": ("self", "realroots.scan_brackets"),
    "realroots.refine_root_calls": ("count", "realroots.refine_root_calls"),
    "realroots.refine_root_ms": ("self", "realroots.refine_root"),
    "realroots.resolve_cluster_calls": ("count", "realroots.resolve_cluster_calls"),
    "realroots.resolve_cluster_ms": ("self", "realroots.resolve_cluster"),
    "realroots.compute_spectrum_ms": ("self", "realroots.compute_spectrum"),
    "complexroots.winding_calls": ("count", "complexroots.winding_calls"),
    "complexroots.contour_samples": ("count", "complexroots.contour_samples"),
    "complexroots.winding_count_ms": ("self", "complexroots.winding_count"),
    "complexroots.newton_calls": ("count", "complexroots.newton_calls"),
    "complexroots.off_axis_zeros": ("count", "complexroots.off_axis_zeros"),
    "complexroots.locate_complex_zero_ms": ("self", "complexroots.locate_complex_zero"),
    "complexroots.breaking_search_ms": ("self", "complexroots.breaking_search"),
    "wavefunction.build_ms": ("self", "wavefunction.build"),
    "wavefunction.parity_ms": ("self", "wavefunction.parity"),
    "wavefunction.psi_evals": ("count", "wavefunction.psi_evals"),
    "wavefunction.norms_ms": ("self", "wavefunction.norms"),
    "oracle.shots": ("count", "oracle.shots"),
    "oracle.rk4_steps_per_shot": ("ratio", ("oracle.rk4_steps", "oracle.shots")),
    "oracle.integrate_ode_ms": ("extra", "oracle.integrate_ode_ms"),
    "oracle.shoot_eigenvalue_ms": ("self", "oracle.shoot_eigenvalue"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.counts = defaultdict(int)
        self.extras = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack = []
        self._saved = []
        self._op = None  # (span id, op id, start_ns)
        self._names = {}  # span id -> name, for spans still open
        self._n_ops = 0

    def add(self, key, n):
        with self._lock:  # the scan's thread pool counts too
            self.counts[key] += int(n)

    def parent_name(self):
        """Name of the span the calling thread is inside."""
        stack = self._stack()
        sid = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        return self._names.get(sid)

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn, counter):
        tracer = self

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if tracer._op is not None:
                    counter(tracer, args, kwargs, out)
                return out

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            op = tracer._op[1] if tracer._op else None
            tracer._names[sid] = name
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                del tracer._names[sid]
                tracer.spans.append((sid, name, t0, t1, parent, op))
            if counter is not None:
                counter(tracer, args, kwargs, out)  # parent_name() is now this span's parent
            return out

        return wrapper

    def install(self):
        for mod_name, attr, name, counter in _TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue  # the layer no longer has this function: its metrics read 0
            w = self._wrap(name, fn, counter)
            for target in [mod_name] + _ALIASES.get((mod_name, attr), []):
                m = importlib.import_module(target)
                if getattr(m, attr, None) is fn:
                    self._saved.append((m, attr, fn))
                    setattr(m, attr, w)
        wf = importlib.import_module("ptwell.wavefunction").Wavefunction
        value = wf.value

        @functools.wraps(value)
        def counted_value(psi, x, *args, **kwargs):
            self.counts["wavefunction.psi_evals"] += int(np.size(x))
            return value(psi, x, *args, **kwargs)

        self._saved.append((wf, "value", value))
        wf.value = counted_value

    def uninstall(self):
        for obj, attr, fn in reversed(self._saved):
            setattr(obj, attr, fn)
        self._saved = []

    def begin_op(self, index, op):
        self.end_op()
        sid = next(self._ids)
        self._op = (sid, self._n_ops, time.perf_counter_ns())
        self._n_ops += 1
        self._main_stack.append(sid)

    def end_op(self):
        if self._op is None:
            return
        sid, op_id, t0 = self._op
        self._main_stack.pop()
        self.spans.append((sid, "op", t0, time.perf_counter_ns(), None, op_id))
        self._op = None

    def report(self, n_ops, out_path=None):
        """Per-layer metrics per operation, plus the self-time accounting check."""
        by_op = defaultdict(list)
        for s in self.spans:
            if s[5] is not None:
                by_op[s[5]].append(s)
        self_ns = defaultdict(float)
        worst = 0.0
        for spans in by_op.values():
            st = _self_times(spans)
            root = next(s for s in spans if s[1] == "op")
            total = sum(st.values())
            dur = root[3] - root[2]
            worst = max(worst, abs(total - dur) / max(dur, 1))
            names = {s[0]: s[1] for s in spans}
            for sid, v in st.items():
                self_ns[names[sid]] += v
        metrics = {}
        for metric, (kind, src) in METRICS.items():
            if kind == "count":
                metrics[metric] = {"value": self.counts.get(src, 0) / n_ops, "unit": "count"}
            elif kind == "ratio":
                num, den = (self.counts.get(k, 0) for k in src)
                metrics[metric] = {"value": num / den if den else 0.0, "unit": "count"}
            elif kind == "self":
                metrics[metric] = {"value": self_ns.get(src, 0.0) / n_ops / 1e6, "unit": "ms"}
            else:
                metrics[metric] = {"value": self.extras.get(src, 0.0), "unit": "ms"}
        op_ms = sum(s[3] - s[2] for s in self.spans if s[1] == "op") / n_ops / 1e6
        if out_path:
            os.makedirs(os.path.dirname(out_path), exist_ok=True)
            with open(out_path, "w") as fh:
                fh.write("id,name,start_ns,end_ns,parent,op\n")
                for s in self.spans:
                    fh.write(",".join("" if v is None else str(v) for v in s) + "\n")
        return {
            "metrics": metrics,
            "op_ms": op_ms,
            "unattributed_ms": self_ns.get("op", 0.0) / n_ops / 1e6,
            "self_time_residual": worst,
            "spans": len(self.spans),
        }


def _self_times(spans):
    """Self time of each span of one operation, sharing overlapped time equally."""
    parent = {s[0]: s[4] for s in spans}
    events = sorted([(s[2], 1, s[0]) for s in spans] + [(s[3], 0, s[0]) for s in spans])
    active, leaves = set(), set()
    open_children = defaultdict(int)
    out = defaultdict(float)
    prev = None
    for t, kind, sid in events:
        if prev is not None and leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = t
        par = parent[sid]
        if kind == 1:
            if par in active:
                open_children[par] += 1
                leaves.discard(par)
            active.add(sid)
            leaves.add(sid)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if par in active:
                open_children[par] -= 1
                if open_children[par] == 0:
                    leaves.add(par)
    return out


def oracle_extras(tracer, ops, results):
    """Time one untraced shot at each distinct converged energy; the median is the metric."""
    from ptwell import oracle
    from ptwell.secular import WellParameters

    shots = []
    for op, outs in zip(ops, results):
        energy = next((e for e in outs if e is not None), None)
        if energy is None:
            continue
        rp = oracle.RegularizedProblem(
            parameters=WellParameters(op["a"], op["omega"], op["eta"]),
            sigma=op["sigma"],
            grid_step=op["sigma"] / 10.0,
        )
        t0 = time.perf_counter_ns()
        oracle.integrate_ode(rp, energy)
        shots.append(time.perf_counter_ns() - t0)
    if shots:
        tracer.extras["oracle.integrate_ode_ms"] = float(np.median(shots)) / 1e6
