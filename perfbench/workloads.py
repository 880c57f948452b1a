"""Workload inputs (from the seed) and the checks on the program's outputs.

Inputs and references come from ``reference`` only; nothing here imports
ptwell.  Each check returns a list of ``Failure``s; a failure whose
``fault`` is True is one that the known fault in
``ptwell.realroots.resolve_cluster`` explains: a dip holding a complex
conjugate pair reported as a real quasi-degenerate pair.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

import reference as R

# canonical regimes of the paper: (a, omega, eta, (kappa_min, kappa_max))
CANONICAL = {
    1: (0.95, 1.5, 20.0, (1e-3, 15.0)),
    2: (0.95, 15000.0, 20.0, (1e-3, 60.0)),
    3: (0.85, 15000.0, 20.0, (1e-3, 60.0)),
    4: (0.65, 15000.0, 20.0, (1e-3, 60.0)),
    5: (0.65, 150.0, 20.0, (1e-3, 60.0)),
    6: (0.35, 15000.0, 20.0, (1e-3, 60.0)),
    7: (0.35, 150.0, 20.0, (1e-3, 60.0)),
}
WORKLOADS = ("spectrum", "census", "eigenstates", "oracle")

# Seeded points per round, besides the seven regimes and the fixed panel:
# (count, a, omega), omega log-uniform.  Above omega ~ 30 nearly every point
# with a < 0.7 has a conjugate pair at a deep dip below kappa = 40, which the
# known fault turns into a failure on some seeds only; seeded strong coupling
# is therefore sampled at a in (0.7, 0.95), where most points are clear of it.
SPECTRUM_SWEEP = [(20, (0.05, 0.95), (0.1, 30.0)), (20, (0.7, 0.95), (30.0, 15000.0))]
# A fixed panel over the whole weak-to-strong range, a in (0.05, 0.95) and
# omega log-uniform in [0.1, 15000], the same in every run whatever the
# seed.  It keeps the known fault in full: 8 of its 30 points have a
# conjugate pair that ptwell reports as a real pair, and those fail in
# every round.  It is drawn from PANEL_SEED and leaves out only points with
# crowded zeros (see _hazards), of which it has none.
SPECTRUM_PANEL = 30
PANEL_SEED = 7
CENSUS_SWEEP = 79  # seeded points per round, besides regime 5
CENSUS_KAPPA_MAX = 40.0
CENSUS_STRIP = 0.5  # breaking_search's default strip half-height
EIGEN_POINTS = 40
# With the wells close to the centre (small a) the lowest level reaches
# kappa ~ 17, and the cost of norms' adaptive quadrature grows steeply with
# kappa (a few such states took 0.4-0.6 s against a median near 0.07 s);
# a from 0.2 keeps a round's cost from hanging on one or two states.
EIGEN_A = (0.2, 0.95)
ORACLE_POINTS = 17  # more than the 16 entries of the oracle's potential-grid cache
ORACLE_LEVELS = 3
ORACLE_SIGMA = 1e-3
# The Gaussian regularization shifts a level to first order in sigma, by
# (sigma / sqrt(pi)) sum g^2 psi(+-a)^2 / int psi^2 with |g|^2 = omega^4 +
# eta^2 (reference.regularization_shift), and more where two levels are
# close to merging.  These bounds keep (omega^4 + eta^2) sigma below 5e-3
# and the levels apart, so agreement to criterion 10's 1e-2 holds.
ORACLE_OMEGA_MAX = 1.2
ORACLE_ETA_MAX = 1.5
# Each shot starts this far above the reference energy, three times the
# 1e-2 tolerance, so a shot that returns its seed fails the check.
ORACLE_SEED_OFFSET = 0.03

# A seeded point is left out when the reference finds a conjugate pair whose
# dip comes within this share of the local |F| envelope.  ptwell calls a dip
# "zero-consistent" below 1e-9 of its local scale; this margin keeps every
# seeded point clear of the known fault, which the canonical regimes and the
# fixed panel show.
CONJUGATE_DIP_MARGIN = 1e-7


class Failure(NamedTuple):
    message: str
    fault: bool = False


class Sampler:
    """Latin-hypercube points in (a, omega, eta), omega on a log scale.

    Each of ``n`` points gets its own cell in every coordinate, so every
    seed spreads its points over the whole range in the same proportions
    and the cost of a round varies little from seed to seed.  A point the
    workload cannot use is drawn again inside the same cell; where a cell
    holds hardly any usable point, one comes from the whole range.
    """

    def __init__(self, seed, workload, n, a, omega, eta, log_omega=True, stream=0):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload), stream])
        self.ranges = [a, (math.log10(omega[0]), math.log10(omega[1])) if log_omega else omega, eta]
        self.log_omega = log_omega
        self.n = n
        # The pairing of cells is the same for every seed (a fixed design);
        # the seed places each point inside its cells.
        design = np.random.default_rng([n, WORKLOADS.index(workload), stream])
        self.cells = [design.permutation(n), np.arange(n), design.permutation(n)]

    def draw(self, j) -> R.Params:
        """A point in cell j, or anywhere in the ranges for j = None."""
        u = [self.rng.uniform() if j is None else (c[j] + self.rng.uniform()) / self.n for c in self.cells]
        a, w, e = (lo + (hi - lo) * v for (lo, hi), v in zip(self.ranges, u))
        return R.Params(float(a), float(10.0**w if self.log_omega else w), float(e))

    def points(self, usable, cell_draws=20, max_draws=200):
        """One usable point per cell; ``usable(p)`` returns a reference or None.

        A cell with no usable point after ``cell_draws`` draws gets one drawn
        from the whole range instead.
        """
        out, skipped = [], 0
        for j in range(self.n):
            for attempt in range(max_draws):
                p = self.draw(j if attempt < cell_draws else None)
                try:
                    ref = usable(p)
                except R.ReferenceError:
                    ref = None
                if ref is not None:
                    out.append((p, ref))
                    break
                skipped += 1
            else:
                raise R.ReferenceError(f"no usable point for cell {j} after {max_draws} draws")
        return out, skipped


def _hazards(p: R.Params, k_lo: float, k_hi: float, conjugates: bool = True):
    """Reference roots, and the dips at which ptwell's answer would depend on the seed.

    These are conjugate-pair dips deep enough to reach the known fault
    (skipped with ``conjugates=False``), and clusters of three or more zeros
    (a pair dip counts two) whose neighbours lie within three of ptwell's
    grid cells: its scan sees one sign change there and misses the rest
    (see CHANGES.md).
    """
    roots, s = R.real_roots(p, k_lo, k_hi, precisions=(50,))
    out = []
    for v in roots.conjugates if conjugates else ():
        env = float(np.interp(v.k_crit, s.grid, s.env))
        if abs(v.f_crit) < CONJUGATE_DIP_MARGIN * env:
            out.append(v.k_crit)
    cell = 1.0 / (64.0 * max(1.0, math.log10(1.0 + p.omega**2)))
    sites = sorted([(k, 1) for k in roots.simple] + [(v.k_crit, 2) for v in roots.pairs + roots.conjugates])
    cluster = []
    for site in sites + [(math.inf, 0)]:
        if cluster and site[0] - cluster[-1][0] >= 3 * cell:
            if sum(n for _, n in cluster) >= 3:
                out.append(cluster[0][0])
            cluster = []
        cluster.append(site)
    return roots, out


def _op(p: R.Params, **extra):
    return dict(a=p.a, omega=p.omega, eta=p.eta, **extra)


def make_inputs(workload: str, seed: int):
    """(ops of one round, references, notes) for a workload and seed."""
    return _MAKERS[workload](seed)


def _clear_of_hazards(k_lo, k_hi, conjugates=True):
    def usable(p):
        roots, near = _hazards(p, k_lo, k_hi, conjugates)
        return None if near else roots

    return usable


def _spectrum_inputs(seed):
    ops, refs = [], []
    for rid, (a, w, e, (lo, hi)) in CANONICAL.items():
        p = R.Params(a, w, e)
        roots, _ = R.real_roots(p, lo, hi, precisions=(50,))
        ops.append(_op(p, kappa_min=lo, kappa_max=hi, label=f"regime {rid}"))
        refs.append(roots)
    panel = Sampler(PANEL_SEED, "spectrum", SPECTRUM_PANEL, (0.05, 0.95), (0.1, 15000.0), (0.0, 50.0), stream=len(SPECTRUM_SWEEP))
    points, skipped_panel = panel.points(_clear_of_hazards(1e-3, 40.0, conjugates=False))
    groups = [("panel", points)]
    skipped = 0
    for stream, (n, a_range, w_range) in enumerate(SPECTRUM_SWEEP):
        sampler = Sampler(seed, "spectrum", n, a_range, w_range, (0.0, 50.0), stream=stream)
        points, skips = sampler.points(_clear_of_hazards(1e-3, 40.0))
        skipped += skips
        groups.append(("sweep", points))
    for label, points in groups:
        for p, roots in points:
            ops.append(_op(p, kappa_min=1e-3, kappa_max=40.0, label=label))
            refs.append(roots)
    return ops, refs, {"skipped_hazards": skipped, "panel_skipped_crowded": skipped_panel}


def _census_ref(p):
    roots, near = _hazards(p, 0.1, CENSUS_KAPPA_MAX)
    strip = R.zero_count(p, 0.1, CENSUS_KAPPA_MAX, -CENSUS_STRIP, CENSUS_STRIP)
    return {"roots": roots, "strip": strip}, near


def _census_inputs(seed):
    a, w, e, _ = CANONICAL[5]
    p5 = R.Params(a, w, e)
    ops, refs = [_op(p5, kappa_max=CENSUS_KAPPA_MAX, label="regime 5")], [_census_ref(p5)[0]]

    def usable(p):
        ref, near = _census_ref(p)
        return None if near else ref

    sampler = Sampler(seed, "census", CENSUS_SWEEP, (0.05, 0.95), (0.1, 30.0), (0.0, 50.0))
    points, skipped = sampler.points(usable)
    for p, ref in points:
        ops.append(_op(p, kappa_max=CENSUS_KAPPA_MAX, label="sweep"))
        refs.append(ref)
    return ops, refs, {"skipped_hazards": skipped}


def _eigen_inputs(seed):
    sampler = Sampler(seed, "eigenstates", EIGEN_POINTS, EIGEN_A, (0.1, 150.0), (0.0, 50.0))
    points, skipped = sampler.points(lambda p: R.lowest_isolated_roots(p, 1, 20.0))
    ops = [_op(p, kappa=roots[0], label="lowest regular level") for p, roots in points]
    return ops, [None] * len(ops), {"skipped_no_isolated_level": skipped}


def _oracle_levels(p):
    roots = R.lowest_isolated_roots(p, ORACLE_LEVELS + 1, 30.0, min_rel_gap=0.5)
    if roots is None:
        return None
    energies = [k * k for k in roots]
    # every seed must lie nearer its own level than the next one
    if any(2.0 * ORACLE_SEED_OFFSET * e0 >= e1 - e0 for e0, e1 in zip(energies, energies[1:])):
        return None
    return roots


def _oracle_inputs(seed):
    ops, refs = [], []
    sampler = Sampler(
        seed, "oracle", ORACLE_POINTS, (0.1, 0.9), (0.1, ORACLE_OMEGA_MAX), (0.0, ORACLE_ETA_MAX), log_omega=False
    )
    points, skipped = sampler.points(_oracle_levels)
    for p, roots in points:
        for level in range(ORACLE_LEVELS):
            energy = roots[level] ** 2
            shift, scale = R.regularization_shift(p, roots[level], ORACLE_SIGMA)
            ops.append(_op(p, sigma=ORACLE_SIGMA, energy_seed=energy * (1.0 + ORACLE_SEED_OFFSET), label=f"level {level + 1}"))
            refs.append({"energy": energy, "shift": shift, "shift_scale": scale})
    return ops, refs, {"skipped_no_isolated_levels": skipped}


_MAKERS = {
    "spectrum": _spectrum_inputs,
    "census": _census_inputs,
    "eigenstates": _eigen_inputs,
    "oracle": _oracle_inputs,
}


# ---------------------------------------------------------------------------
# checks


def _sign_mp(p: R.Params, k: float, dps: int = 50) -> int:
    with mpmath.workdps(dps):
        f, _ = R.mp_functions(p)
        v = f(mpmath.mpf(k))
    return (v > 0) - (v < 0)


def _sign(p: R.Params, k: float) -> int:
    v = float(R.secular(p, k))
    if abs(v) > 64.0 * R.EPS * float(R.term_scale(p, k)):
        return (v > 0) - (v < 0)
    return _sign_mp(p, k)


def _brackets_zero(p: R.Params, k: float) -> bool:
    d = 1e-9 * (1.0 + k)
    return _sign(p, k - d) * _sign(p, k + d) < 0


def _pair_groups(levels):
    """Index pairs (i, i+1) of pair-flagged levels closer to each other than to either other neighbour.

    A flagged level left over is checked like a regular one.
    """
    k = [lv[1] for lv in levels]
    flagged = [lv[3] == "quasi-degenerate-pair-member" for lv in levels]
    pairs, single = [], []
    i = 0
    while i < len(levels):
        if flagged[i] and i + 1 < len(levels) and flagged[i + 1]:
            gap = k[i + 1] - k[i]
            left = k[i] - k[i - 1] if i > 0 else math.inf
            right = k[i + 2] - k[i + 1] if i + 2 < len(levels) else math.inf
            if gap < min(left, right):
                pairs.append((i, i + 1))
                i += 2
                continue
        if flagged[i]:
            single.append(i)
        i += 1
    return pairs, single


def check_real_pair(p: R.Params, k1: float, k2: float, room: float):
    """Is the reported pair (k1, k2) two real zeros at 50 digits, at the reported places?

    The dip is looked for in windows around the pair's midpoint that widen
    until F' changes sign across them, up to ``room`` (half the distance to
    the nearest other level).
    """
    mid, gap = 0.5 * (k1 + k2), k2 - k1
    d = max(2.0 * gap, 1e-8 * (1.0 + mid))
    while True:
        try:
            v = R.classify_dip(p, mid - d, mid + d)
            break
        except R.ReferenceError as exc:
            d *= 2.0
            if d > room:
                return [Failure(f"pair at {mid:.9f}: no dip holding two zeros ({exc})")]
    if v.kind == "complex-pair":
        return [
            Failure(
                f"pair at {mid:.9f} is a conjugate pair at 50 digits: F keeps its sign, "
                f"F_crit = {v.f_crit:.3e}, |Im kappa| ~ {v.im_estimate:.2e}",
                fault=True,
            )
        ]
    # position resolution of a double zero in double precision
    res = 2.0 * math.sqrt(64.0 * R.EPS * float(R.term_scale(p, v.k_crit)) / max(abs(v.curvature), 1e-300))
    tol = 4.0 * res + 1e-9 * (1.0 + mid)
    out = []
    for k, z in zip((k1, k2), v.zeros):
        if abs(k - z) > tol:
            out.append(Failure(f"pair member {k:.12f} is {abs(k - z):.2e} from the zero {z:.12f} (resolution {tol:.1e})"))
    return out


def check_spectrum(op, levels, ref: R.RealRoots):
    p = R.Params(op["a"], op["omega"], op["eta"])
    out = []
    if [lv[0] for lv in levels] != list(range(1, len(levels) + 1)):
        out.append(Failure("level indices do not run 1..N"))
    pairs, single = _pair_groups(levels)
    simple = set(single)
    for i, (n, k, e, flag, _) in enumerate(levels):
        if abs(e - k * k) > 2.0 * R.EPS * k * k:
            out.append(Failure(f"level {n}: energy {e!r} is not kappa^2"))
        if flag not in ("regular", "quasi-degenerate-pair-member"):
            out.append(Failure(f"level {n}: unexpected flag {flag!r}"))
        if (flag == "regular" or i in simple) and not _brackets_zero(p, k):
            out.append(Failure(f"{flag} level {n} at {k:.12f} brackets no sign change of F"))
    kappas = np.array([lv[1] for lv in levels])
    s = R.scan(p, op["kappa_min"], op["kappa_max"])
    for i in R.certain_flips(s):
        lo, hi = s.grid[i], s.grid[i + 1]
        tol = 1e-9 * (1.0 + hi)
        if not np.any((kappas >= lo - tol) & (kappas <= hi + tol)):
            out.append(Failure(f"sign change of F in ({lo:.9f}, {hi:.9f}) has no reported level"))
    for v in ref.pairs:
        lo, hi = v.zeros[0] - 1e-4, v.zeros[1] + 1e-4
        if np.count_nonzero((kappas >= lo) & (kappas <= hi)) < 2:
            out.append(Failure(f"real pair at {v.k_crit:.9f} (gap {v.gap:.1e}) is not reported"))
    for i, j in pairs:
        # a pair resolved in double precision brackets two sign changes; the
        # multiprecision dip classifier settles the unresolved ones
        if not all(_brackets_zero(p, levels[m][1]) for m in (i, j)):
            left = kappas[i] - kappas[i - 1] if i > 0 else math.inf
            right = kappas[j + 1] - kappas[j] if j + 1 < len(kappas) else math.inf
            out.extend(check_real_pair(p, levels[i][1], levels[j][1], min(0.5 * min(left, right), 0.5)))
    return out


def _h_ok(p, z):
    return abs(complex(R.entire(p, z))) <= 1e-8 * (abs(z) ** 2 + 1.0) * float(R.term_scale(p, z))


def check_census(op, res, ref):
    p = R.Params(op["a"], op["omega"], op["eta"])
    roots: R.RealRoots = ref["roots"]
    strip = ref["strip"]
    out = []
    off = [complex(*z) for z in res["off_axis"]]
    if res["real_root_count"] + len(off) != strip:
        out.append(Failure(f"strip holds {strip} zeros; report has {res['real_root_count']} real + {len(off)} off-axis"))
    for z in off:
        if not any(abs(w - z.conjugate()) <= 1e-9 * (1.0 + abs(z)) for w in off):
            out.append(Failure(f"off-axis zero {z} has no conjugate"))
        if not _h_ok(p, z):
            out.append(Failure(f"off-axis zero {z}: reference |H| is not small"))
    tiles = res["tiles"]
    edges_ok = abs(tiles[0][0] - 0.1) < 1e-12 and abs(tiles[-1][1] - op["kappa_max"]) < 1e-12
    edges_ok &= all(abs(t1[1] - t2[0]) < 1e-12 for t1, t2 in zip(tiles, tiles[1:]))
    if not edges_ok:
        out.append(Failure("tiles do not cover the strip edge to edge"))
    for lo, hi, wind, real in tiles:
        n_off = sum(1 for z in off if lo <= z.real < hi)
        if wind != real + n_off:
            out.append(Failure(f"tile ({lo:.4f}, {hi:.4f}): winding {wind} != {real} real + {n_off} off-axis"))
    if sum(t[2] for t in tiles) != res["winding_total"] or res["winding_total"] != strip:
        out.append(Failure(f"tile windings sum to {sum(t[2] for t in tiles)}, total {res['winding_total']}, strip {strip}"))
    n_real = len(roots.simple) + 2 * len(roots.pairs)
    # a conjugate-pair dip on the real axis sits below its zero to second order in Im kappa
    missing = [
        v
        for v in roots.conjugates
        if not any(abs(z - complex(v.k_crit, v.im_estimate)) <= 0.5 * v.im_estimate + 1e-6 * (1 + v.k_crit) for z in off)
    ]
    if res["real_root_count"] != n_real:
        extra = res["real_root_count"] - n_real
        explained = extra > 0 and extra == 2 * len(missing)
        out.append(
            Failure(
                f"{res['real_root_count']} real roots reported, {n_real} real at 50 digits; "
                + ", ".join(f"{v.k_crit:.6f} +- {v.im_estimate:.1e}i" for v in missing)
                + " reported as real",
                fault=explained,
            )
        )
    elif missing:
        out.append(Failure("conjugate pairs missing from off_axis: " + ", ".join(f"{v.k_crit:.6f}" for v in missing)))
    return out


def check_eigenstate(op, res, _ref=None):
    p = R.Params(op["a"], op["omega"], op["eta"])
    out = []
    kappa = complex(*res["kappa"])
    if kappa != op["kappa"]:
        out.append(Failure(f"wavefunction built at {kappa}, asked for {op['kappa']}"))
    kappa = kappa.real
    coeffs = [complex(*c) for c in res["coeffs"]]
    x = np.array(res["x"])
    v = np.array([complex(*c) for c in res["psi"]])
    vm = np.array([complex(*c) for c in res["psi_mirror"]])
    m = float(np.max(np.abs(v)))
    ref_v = R.psi(p, kappa, coeffs, x)
    if np.max(np.abs(v - ref_v)) > 1e-10 * m:
        out.append(Failure("psi samples differ from the matching ansatz"))
    for end, val in zip((-1, 1), res["walls"]):
        if abs(complex(*val)) > 1e-10 * m:
            out.append(Failure(f"psi({end}) = {complex(*val):.2e}, not 0"))
    for sgn, (vl, vr, dl, dr) in zip((-1.0, 1.0), res["sides"]):
        vl, vr, dl, dr = (complex(*c) for c in (vl, vr, dl, dr))
        if abs(vr - vl) > 1e-10 * m:
            out.append(Failure(f"psi jumps at x = {sgn * p.a:+.4f}"))
        g = complex(-p.omega**2, sgn * p.eta)
        jump = dr - dl - g * vl
        if abs(jump) > 1e-8 * (abs(g) + kappa + 1.0) * m:
            out.append(Failure(f"derivative jump at x = {sgn * p.a:+.4f} misses (-w^2 {'+' if sgn > 0 else '-'} i eta) psi by {abs(jump):.2e}"))
    if np.max(np.abs(vm - np.conj(v))) > 1e-9 * m:
        out.append(Failure("psi(-x) != conj psi(x)"))
    ps, pa = np.array(res["psi_S"]), np.array(res["psi_A"])
    if np.max(np.abs(ps + 1j * pa - v)) > 1e-10 * m or np.max(np.abs(ps - ps[::-1])) > 1e-10 * m or np.max(np.abs(pa + pa[::-1])) > 1e-10 * m:
        out.append(Failure("parity parts are not the even and odd parts of psi"))
    l2, pseudo = R.gauss_legendre_norms(p, kappa, coeffs)
    if abs(res["l2"] - l2) > 1e-7 * l2:
        out.append(Failure(f"L2 norm {res['l2']!r} vs Gauss-Legendre {l2!r}"))
    pt = complex(*res["pseudo"])
    if abs(pt - pseudo) > 1e-7 * abs(pseudo):
        out.append(Failure(f"pseudo-norm {pt!r} vs Gauss-Legendre {pseudo!r}"))
    return out


ORACLE_TOL = 1e-2  # relative agreement with the delta-limit energy (acceptance criterion 10)
# The shift from the delta-limit energy must match the first-order
# regularization shift to within this share of its size before
# cancellation, plus SHIFT_ABS_TOL relative to E: room for the terms of
# higher order in sigma (seen up to 3.4e-6 E) and for the integrator's error.
SHIFT_TOL = 0.25
SHIFT_ABS_TOL = 1e-5


def check_oracle(op, res, ref):
    e = complex(*res["energy"])
    e_ref = ref["energy"]
    out = []
    if abs(e - e_ref) > ORACLE_TOL * abs(e_ref):
        out.append(Failure(f"oracle energy {e} vs reference {e_ref:.9g}: relative error {abs(e - e_ref) / abs(e_ref):.2e}"))
    if abs(e.imag) > 1e-6 * abs(e):
        out.append(Failure(f"oracle energy {e} is not real"))
    shift, pred = e - e_ref, ref["shift"]
    if abs(shift - pred) > SHIFT_TOL * ref["shift_scale"] + SHIFT_ABS_TOL * e_ref:
        out.append(Failure(f"oracle shift {shift:.3e} from the delta limit vs first-order regularization shift {pred:.3e}"))
    return out


CHECKS = {
    "spectrum": check_spectrum,
    "census": check_census,
    "eigenstates": check_eigenstate,
    "oracle": check_oracle,
}


def check(workload, op, output, ref):
    return CHECKS[workload](op, output, ref)
