"""Sampled verification of closed-loop properties and certificate structure.

Every check returns a VerificationReport: pass flag, worst observed value,
witness (time, state) when one is meaningful, and the tolerances used.
These are sampled proxies, not formal proofs; sample counts and shell
widths are configurable and reported.  The history sup is rebuilt on the
run's own rows, as its controller took it (see `history`).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import halanay
from . import history as hist
from .fields import EXAMPLE_BOX, combine_clbrf, example_hazard

HAZARD_THRESHOLD = 4.0
SAFETY_TOL = 1e-3
DECREASE_C = 10.0
SEPARATION_TOL = 1e-6


class UnsafeSet:
    """Hazard sublevel region D = {x in region : hazard(x) < threshold}."""

    def __init__(self, region, hazard, threshold=HAZARD_THRESHOLD):
        self.region = region
        self.hazard = hazard
        self.threshold = float(threshold)

    def membership_many(self, X):
        X = np.asarray(X, dtype=float)
        inside = self.region.contains_many(X)
        out = np.zeros(X.shape[0], dtype=bool)
        if inside.any():
            out[inside] = self.hazard.value_many(X[inside]) < self.threshold
        return out

    def membership(self, x):
        return bool(self.membership_many(np.asarray(x, dtype=float)[None])[0])

    def boundary_margin(self, X):
        """threshold - hazard: positive inside D, continuous on the region."""
        return self.threshold - self.hazard.value_many(np.asarray(X, dtype=float))

    def refined_membership(self, field):
        """Predicate for the enlarged set {x in region : field(x) > 0}.

        With field = W this is the region excluded from admissible initial
        data; it contains D whenever the construction checks pass.
        """
        def member(X):
            X = np.asarray(X, dtype=float)
            single = X.ndim == 1
            if single:
                X = X[None]
            res = self.region.contains_many(X) & (field.value_many(X) > 0.0)
            return bool(res[0]) if single else res
        return member


def example_unsafe_set():
    return UnsafeSet(EXAMPLE_BOX, example_hazard(), HAZARD_THRESHOLD)


class VerificationReport:
    """Uniform check result; as_dict() gives a JSON-ready plain structure."""

    def __init__(self, name, passed, worst=None, witness=None,
                 tolerances=None, details=None):
        self.name = name
        self.passed = bool(passed)
        self.worst = worst
        self.witness = witness
        self.tolerances = dict(tolerances or {})
        self.details = dict(details or {})

    def __bool__(self):
        return self.passed

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"VerificationReport({self.name}: {state}, worst={self.worst})"

    def as_dict(self):
        return {
            "check": self.name,
            "pass": self.passed,
            "worst": self.worst,
            "witness": self.witness,
            "tolerances": self.tolerances,
            "details": self.details,
        }


def _witness(t, x):
    # purely spatial witnesses carry no time; keep the dict JSON-clean
    tv = float(t) if t is not None and np.isfinite(t) else None
    return {"time": tv, "state": [float(v) for v in np.atleast_1d(x)]}


def window_states(traj):
    """The history read x(t_i - delta) behind every sample: (N, n).

    The integrator's cubic Hermite scheme on traj.slopes; with delta/h an
    integer D the read is row i - D itself.  Reads at or before t = 0 go
    through the initial window, with the run's k1 as its slope at t = 0, as
    the integrators read it after their first stage; the rows gathered for
    them are clipped to row 0.
    """
    delta = traj.meta["delta"]
    h = traj.h
    xs = traj.xs
    ms = traj.slopes
    N = xs.shape[0]
    i0, b00, b10, b01, b11 = hist.hermite_tables(
        np.array([-hist.delay_steps(delta, h)]), h)
    row = np.maximum(np.arange(N) + int(i0[0]), 0)
    nxt = np.minimum(row + 1, N - 1)
    vals = (b00[0] * xs[row] + b10[0] * ms[row]
            + b01[0] * xs[nxt] + b11[0] * ms[nxt])
    tread = traj.ts - delta
    pre = tread <= 1e-15
    if pre.any():
        w = traj.ic_window.copy()
        w.ms[w.count - 1] = ms[0]
        vals[pre] = w.interp_times((traj.ts + w.latest_time - delta)[pre])
    return vals


# samples per block of field_sup_series' sliding max, to bound its memory
SUP_BLOCK = 2048


def field_sup_series(traj, field, mu=0.0):
    """Weighted history sup of the field at every sample, rebuilt on the
    run's rows as the integrators take it: (N,).

    A sliding max over the field at the samples, weighted by lag from
    `history.lag_weights`, the read at theta = -delta and the initial
    window's samples in reach.
    """
    delta = traj.meta["delta"]
    h = traj.h
    fv = field.value_many(traj.xs)
    N = fv.shape[0]
    lagw = hist.lag_weights(mu, h, hist.delay_steps(delta, h))[::2][::-1]
    R = lagw.shape[0]
    rows = sliding_window_view(np.concatenate([np.full(R - 1, -np.inf), fv]),
                               R)
    out = np.empty(N)
    for start in range(0, N, SUP_BLOCK):
        blk = rows[start:start + SUP_BLOCK]
        if mu:
            blk = blk * lagw
        out[start:start + blk.shape[0]] = blk.max(axis=1)
    end = field.value_many(window_states(traj))
    if mu:
        end = end * math.exp(-mu * delta)
    np.maximum(out, end, out=out)
    s, X = hist.pre_rows(traj.ic_window)
    n = int(np.searchsorted(traj.ts, delta + hist.ROW_TOL))
    return np.maximum(out, np.concatenate([hist.row_sup(
        s, field.value_many(X), traj.ts[:n], delta, mu), out[n:]]))


def safety_check(traj, unsafe, tol=SAFETY_TOL):
    """No sample (initial history included) in D, and hazard clearance of at
    least tol on every sample inside the region."""
    if traj.xs.shape[0] == 0:
        raise ValueError("trajectory must be non-empty")
    # the initial function: its read at -delta and its samples after that
    ic = traj.ic_window
    delta = traj.meta["delta"]
    s, X = hist.pre_rows(ic)
    keep = s > -delta + hist.ROW_TOL
    states = np.concatenate([ic.interp_times(ic.latest_time - delta),
                             X[keep], traj.xs])
    times = np.concatenate([[-delta], s[keep], traj.ts])

    member = unsafe.membership_many(states)
    in_region = unsafe.region.contains_many(states)
    tvalues = {"safety_tol": tol}
    details = {"samples": int(states.shape[0]),
               "samples_in_region": int(in_region.sum())}
    if member.any():
        k = int(np.argmax(member))
        clearance = -float(unsafe.boundary_margin(states[k][None])[0])
        return VerificationReport("safety", False, clearance,
                                  _witness(times[k], states[k]),
                                  tvalues, details)
    if in_region.any():
        clear = -unsafe.boundary_margin(states[in_region])
        k_loc = int(np.argmin(clear))
        idx = np.flatnonzero(in_region)[k_loc]
        worst = float(clear[k_loc])
        details["vacuous"] = False
        return VerificationReport("safety", worst >= tol, worst,
                                  _witness(times[idx], states[idx]),
                                  tvalues, details)
    details["vacuous"] = True
    return VerificationReport("safety", True, None, None, tvalues, details)


def decrease_check(traj, field, gains, c=DECREASE_C):
    """Forward-difference d(field)/dt against -gamma*field + eta*sup at each
    interior sample; pass iff every residual is within c*h.

    The sup series is rebuilt from the samples by field_sup_series, for a
    run in memory as for one read back from CSV."""
    h = traj.h
    tol = c * h
    tvalues = {"c": c, "h": h, "tol": tol}
    N = traj.xs.shape[0]
    if N < 2:
        return VerificationReport("decrease", True, 0.0, None, tvalues,
                                  {"samples": N, "violations": 0})
    sup = field_sup_series(traj, field, gains.mu)
    fv = field.value_many(traj.xs)
    fwd = np.diff(fv) / h
    res = fwd - (-gains.gamma * fv[:-1] + gains.eta * sup[:-1])
    k = int(np.argmax(res))
    worst = float(res[k])
    bad = res > tol
    details = {"samples": N, "violations": int(bad.sum())}
    if bad.any():
        j = int(np.argmax(bad))
        details["first_violation_time"] = float(traj.ts[j])
        return VerificationReport("decrease", False, worst,
                                  _witness(traj.ts[j], traj.xs[j]),
                                  tvalues, details)
    return VerificationReport("decrease", True, worst,
                              _witness(traj.ts[k], traj.xs[k]),
                              tvalues, details)


def envelope_check(traj, field, certificate, tol=1e-6):
    """Field values along the run against the exponential envelope.

    Non-negative start: ratio test against field(0)*e^{-rho t}.  Negative
    start (the barrier-side case): the envelope statement degenerates to
    forward invariance of the nonpositive sublevel set, so the check is
    that the field never becomes positive.
    """
    vs = field.value_many(traj.xs)
    v0 = float(vs[0])
    if v0 < 0.0:
        k = int(np.argmax(vs))
        worst = float(vs[k])
        ok = worst <= 0.0
        return VerificationReport(
            "envelope", ok, worst, _witness(traj.ts[k], traj.xs[k]),
            {"tol": 0.0, "rho": certificate.rho},
            {"form": "signed", "start": v0})
    r = halanay.check_envelope(traj.ts, vs, v0, certificate.rho, tol)
    witness = None
    if r["first_violation"] is not None:
        j = int(np.searchsorted(traj.ts, r["first_violation"]))
        j = min(j, len(traj.ts) - 1)
        witness = _witness(traj.ts[j], traj.xs[j])
    return VerificationReport(
        "envelope", r["pass"], r["max_ratio"], witness,
        {"tol": tol, "rho": certificate.rho},
        {"form": "ratio", "start": v0,
         "first_violation": r["first_violation"]})


def _boundary_grid(region, per_edge):
    """Points along each face of a planar box, corners included."""
    lo, hi = region.lo, region.hi
    t = np.linspace(0.0, 1.0, per_edge)
    edges = []
    x0, x1 = lo[0], hi[0]
    y0, y1 = lo[1], hi[1]
    edges.append(np.stack([x0 + (x1 - x0) * t, np.full_like(t, y0)], axis=1))
    edges.append(np.stack([x0 + (x1 - x0) * t, np.full_like(t, y1)], axis=1))
    edges.append(np.stack([np.full_like(t, x0), y0 + (y1 - y0) * t], axis=1))
    edges.append(np.stack([np.full_like(t, x1), y0 + (y1 - y0) * t], axis=1))
    return np.concatenate(edges, axis=0)


def clbrf_construction_check(V, B, bounds, region, phi_m, boundary_grid=256,
                             psi=None, gains=None, unsafe=None, seed=0,
                             exterior_samples=2000, unsafe_samples=10000):
    """Structural conditions for merging V and B into W = V + psi*B.

    (a) B <= -phi_m(|x|) on random exterior samples; (b) psi_min = max of
    alpha2(|x|)/phi_m(|x|) over a boundary grid; (c) optional gain-ordering
    condition min(gammas) > max(etas) when a (lyapunov, barrier) gains pair
    is supplied; (d) with a concrete psi: psi must exceed psi_min, W must
    be positive on a dense unsafe-set sample, and a state with W < 0 must
    exist.  The returned report carries psi_min as an attribute.
    """
    if boundary_grid < 100:
        raise ValueError("need at least 100 boundary points per edge")
    if region.n != 2:
        raise ValueError("boundary grid construction assumes a planar box")
    rng = np.random.default_rng(seed)
    tvalues = {"exterior_slack": 1e-12, "boundary_grid": boundary_grid}
    details = {}
    passed = True
    witness = None

    # (a) exterior bound: sample a dilated box, reject interior points
    span = region.hi - region.lo
    lo = region.lo - 1.5 * span
    hi = region.hi + 1.5 * span
    pts = rng.uniform(lo, hi, size=(4 * exterior_samples, region.n))
    pts = pts[~region.contains_many(pts)][:exterior_samples]
    slack = B.value_many(pts) + phi_m(np.linalg.norm(pts, axis=1))
    k = int(np.argmax(slack))
    details["exterior"] = {"samples": int(pts.shape[0]),
                           "worst_slack": float(slack[k])}
    if slack[k] > 1e-12:
        passed = False
        witness = _witness(np.nan, pts[k])

    # (b) the viability threshold for psi
    bpts = _boundary_grid(region, boundary_grid)
    r = np.linalg.norm(bpts, axis=1)
    ratio = bounds.alpha2(r) / phi_m(r)
    kb = int(np.argmax(ratio))
    psi_min = float(ratio[kb])
    details["psi_min"] = psi_min

    # (c) gain ordering across the two certificates
    if gains is not None:
        g_lyap, g_barrier = gains
        ok = min(g_lyap.gamma, g_barrier.gamma) > max(g_lyap.eta, g_barrier.eta)
        details["gain_ordering"] = {"pass": bool(ok),
                                    "min_gamma": min(g_lyap.gamma, g_barrier.gamma),
                                    "max_eta": max(g_lyap.eta, g_barrier.eta)}
        passed = passed and ok
    else:
        details["gain_ordering"] = "skipped (no gains supplied)"

    # (d) a concrete psi: above threshold, W positive on the unsafe set,
    # and the nonpositive sublevel set is nonempty
    if psi is not None:
        details["psi"] = float(psi)
        W = combine_clbrf(V, B, psi)
        if psi <= psi_min:
            passed = False
            if witness is None:
                witness = _witness(np.nan, bpts[kb])
            details["psi_above_min"] = False
        else:
            details["psi_above_min"] = True
        if unsafe is None:
            unsafe = example_unsafe_set()
        cand = rng.uniform(region.lo, region.hi,
                           size=(8 * unsafe_samples, region.n))
        cand = cand[unsafe.membership_many(cand)][:unsafe_samples]
        wv = W.value_many(cand)
        kw = int(np.argmin(wv))
        details["unsafe_positivity"] = {"samples": int(cand.shape[0]),
                                        "min_W": float(wv[kw])}
        if wv[kw] <= 0.0:
            passed = False
            if witness is None:
                witness = _witness(np.nan, cand[kw])
        wb = W.value_many(bpts)
        neg = wb < 0.0
        if neg.any():
            j = int(np.argmax(neg))
            details["sublevel_witness"] = [float(v) for v in bpts[j]]
        else:
            wneg = W.value_many(pts)
            jn = np.flatnonzero(wneg < 0.0)
            if jn.size:
                details["sublevel_witness"] = [float(v) for v in pts[jn[0]]]
            else:
                details["sublevel_witness"] = None
                passed = False

    rep = VerificationReport("clbrf-construction", passed, psi_min, witness,
                             tvalues, details)
    rep.psi_min = psi_min
    return rep


# rays per block of separation_check's coarse scan, to bound its memory
RAY_BLOCK = 256


def separation_check(unsafe, W, budget=4096, eps=1e-2, tol=SEPARATION_TOL,
                     anchor=None):
    """Shell sampling of the separation between the excluded set and the
    W <= 0 region.

    Casts rays from an interior anchor, locates the outermost boundary of
    {x in region : W(x) > 0} on each ray, and asserts W <= -tol on points
    just outside it (distances eps/10, eps/2, eps).  Degenerate empty sets
    pass vacuously.
    """
    if budget < 1000:
        raise ValueError("sample budget must be at least 1e3")
    region = unsafe.region
    if region.n != 2:
        raise ValueError("ray casting assumes a planar box")
    member = unsafe.refined_membership(W)
    dists = np.array([eps / 10.0, eps / 2.0, eps])
    nrays = max(64, budget // dists.size)
    tvalues = {"eps": eps, "tol": tol, "budget": budget}

    if anchor is None:
        anchor = 0.5 * (region.lo + region.hi)
    anchor = np.asarray(anchor, dtype=float)
    if not member(anchor):
        gx = np.linspace(region.lo[0], region.hi[0], 33)[1:-1]
        gy = np.linspace(region.lo[1], region.hi[1], 33)[1:-1]
        gpts = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
        inside = member(gpts)
        if not inside.any():
            return VerificationReport("separation", True, None, None, tvalues,
                                      {"vacuous": True, "rays": 0})
        anchor = gpts[int(np.argmax(inside))]

    ang = 2.0 * np.pi * np.arange(nrays) / nrays
    d = np.stack([np.cos(ang), np.sin(ang)], axis=1)

    # distance from the anchor to the box wall along each ray
    with np.errstate(divide="ignore"):
        lo_t = (region.lo - anchor) / d
        hi_t = (region.hi - anchor) / d
    t_wall = np.minimum(np.where(d < 0, lo_t, np.inf).min(axis=1),
                        np.where(d > 0, hi_t, np.inf).min(axis=1))

    # coarse scan for the outermost member point on each ray
    nscan = 64
    frac = np.linspace(0.0, 1.0, nscan)
    tgrid = t_wall[:, None] * frac[None, :]
    inside = np.empty((nrays, nscan), dtype=bool)
    for r0 in range(0, nrays, RAY_BLOCK):
        r1 = min(r0 + RAY_BLOCK, nrays)
        pts = anchor[None, None, :] + tgrid[r0:r1, :, None] * d[r0:r1, None, :]
        inside[r0:r1] = member(pts.reshape(-1, 2)).reshape(r1 - r0, nscan)
    last = np.where(inside.any(axis=1),
                    nscan - 1 - np.argmax(inside[:, ::-1], axis=1), -1)

    boundary = np.empty(nrays)
    at_wall = last == nscan - 1
    boundary[at_wall] = t_wall[at_wall]
    vac = last < 0
    boundary[vac] = 0.0
    live = ~(at_wall | vac)
    lo_b = np.take_along_axis(tgrid, last[:, None], axis=1)[:, 0]
    hi_b = np.take_along_axis(tgrid, np.minimum(last + 1, nscan - 1)[:, None],
                              axis=1)[:, 0]
    lo_b = lo_b[live].copy()
    hi_b = hi_b[live].copy()
    dl = d[live]
    al = anchor[None, :]
    for _ in range(45):
        mid = 0.5 * (lo_b + hi_b)
        m = member(al + mid[:, None] * dl)
        lo_b = np.where(m, mid, lo_b)
        hi_b = np.where(m, hi_b, mid)
    boundary[live] = 0.5 * (lo_b + hi_b)

    rays = np.flatnonzero(~vac)
    if rays.size == 0:
        return VerificationReport("separation", True, None, None, tvalues,
                                  {"vacuous": True, "rays": int(nrays)})
    shell = (anchor[None, None, :]
             + (boundary[rays, None] + dists[None, :])[:, :, None]
             * d[rays, None, :])
    shell = shell.reshape(-1, 2)
    # shell points must already be clear of the excluded set
    still_in = member(shell)
    wv = W.value_many(shell)
    score = np.where(still_in, np.maximum(wv, tol), wv)
    k = int(np.argmax(score))
    worst = float(wv[k])
    ok = not still_in.any() and worst <= -tol
    return VerificationReport(
        "separation", ok, worst, _witness(np.nan, shell[k]), tvalues,
        {"vacuous": False, "rays": int(nrays), "shell_samples": int(shell.shape[0]),
         "anchor": [float(v) for v in anchor]})
