"""Sampled verification of closed-loop properties and certificate structure.

Every check returns a VerificationReport: pass flag, worst observed value,
witness (time, state) when one is meaningful, and the tolerances used.
These are sampled proxies, not formal proofs; sample counts and shell
widths are module constants and are reported.  The history sup is rebuilt
on the run's own rows, as its controller took it, in the same anchored
blocks at every mu (see `history`).

The per-trajectory checks are accumulators fed a run's rows a block at a
time, in order (`feed(block)`, then `report()`), each carrying only the
rows its reads still reach and its worst value so far, so that a run is
checked as the lockstep or a CSV hands its rows on; any split of a run
gives the report of the whole.  `safety_check(traj, ...)` and the other
whole-run forms feed the run as one block.
"""

import numpy as np

from . import halanay
from . import history as hist
from .fields import EXAMPLE_BOX, example_hazard

HAZARD_THRESHOLD = 4.0
SAFETY_TOL = 1e-3
DECREASE_C = 10.0
SEPARATION_EPS = 1e-2
SEPARATION_TOL = 1e-6
EXTERIOR_SAMPLES = 2000
UNSAFE_SAMPLES = 10000


class UnsafeSet:
    """Hazard sublevel region D = {x in region : hazard(x) < threshold}.

    Its predicates test the region once per call and evaluate a field only
    on the rows inside it."""

    def __init__(self, region, hazard, threshold=HAZARD_THRESHOLD):
        self.region = region
        self.hazard = hazard
        self.threshold = float(threshold)

    def _test(self, X, field, keep):
        """keep(field's values) on the rows of X inside the region, False
        on the others: (len(X),) bools."""
        out = np.zeros(X.shape[0], dtype=bool)
        idx, Xin = self.region.rows_in(X)
        if Xin.shape[0]:
            out[idx] = keep(field.value_many(Xin))
        return out

    def membership_many(self, X):
        return self._test(np.asarray(X, dtype=float), self.hazard,
                          lambda v: v < self.threshold)

    def membership(self, x):
        return bool(self.membership_many(np.asarray(x, dtype=float)[None])[0])

    def boundary_margin(self, X):
        """threshold - hazard: positive inside D, continuous on the region."""
        return self.threshold - self.hazard.value_many(np.asarray(X, dtype=float))

    def refined_membership(self, field):
        """Predicate on rows X, (len(X),) bools, for the enlarged set
        {x in region : field(x) > 0}.

        With field = W this is the region excluded from admissible initial
        data; it contains D whenever the construction checks pass.
        """
        def member(X):
            return self._test(np.asarray(X, dtype=float), field,
                              lambda v: v > 0.0)
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


def beats(v, best):
    """Whether v takes the place of best in a running argmax as np.argmax
    takes it: the first NaN wins, otherwise the first of the largest."""
    return best is None or (best == best and (v != v or v > best))


def _whole(check, traj, values=None):
    """A check's report on the whole run traj, fed as one block."""
    check.feed(traj, values)
    return check.report()


class _WindowReads:
    """The history read x(t_i - delta) behind each row of a run fed a block
    of rows at a time, from the run's first block on.

    The integrator's cubic Hermite scheme on the rows' slopes; with
    delta/h an integer D the read is row i - D itself.  Reads at or before
    t = 0 go through the initial window, with the run's k1 as its slope at
    t = 0, as the integrators read it after their first stage; the rows
    gathered for them are clipped to row 0 and to the rows fed so far.
    Only the rows the next block's reads reach are carried."""

    def __init__(self, first):
        self.delta = first.meta["delta"]
        i0, *b = hist.hermite_tables(
            np.array([-hist.delay_steps(self.delta, first.h)]), first.h)
        self.i0, self.b = int(i0[0]), [w[0] for w in b]
        self.w = first.ic_window.copy()
        self.w.ms[self.w.count - 1] = first.slopes[0]
        self.xs = first.xs[:0]
        self.ms = first.slopes[:0]
        self.count = 0

    def feed(self, block):
        """The reads behind the rows of block, the run's next: (n, dim)."""
        xs = np.concatenate([self.xs, block.xs])
        ms = np.concatenate([self.ms, block.slopes])
        base = self.count - self.xs.shape[0]
        i = self.count + np.arange(block.xs.shape[0])
        row = np.maximum(i + self.i0, 0) - base
        nxt = np.minimum(row + 1, xs.shape[0] - 1)
        vals = hist.hermite_rows(self.b, xs, ms, row, nxt)
        tread = block.ts - self.delta
        pre = tread <= hist.EARLY_TOL
        if pre.any():
            w = self.w
            vals[pre] = w.interp_times((block.ts + w.latest_time
                                        - self.delta)[pre])
        self.count += block.xs.shape[0]
        keep = max(self.count + self.i0, 0) - base
        self.xs, self.ms = xs[keep:].copy(), ms[keep:].copy()
        return vals


def window_states(traj):
    """The history read x(t_i - delta) behind every sample: (N, n); see
    `_WindowReads`."""
    return _WindowReads(traj).feed(traj)


def sliding_max(a, M, wt):
    """For each entry i of a, whose entries are the rows from the start of
    a block of M rows on, the max over the rows i + 1 - M .. i in reach of
    a read one step after row i, each row weighted by its lag from that
    read by wt (`history.sup_blocks`), as `history.LaneWindowMax` takes
    it: (len(a),).  A NaN in reach propagates; there are no rows before
    a's first.  Van Herk/Gil-Werman: the rows in reach are a prefix of
    i's block and a suffix of the block before, so prefix and suffix
    running maxima per block give every max in O(len(a))."""
    n = a.shape[0]
    blocks = np.full((-(-n // M), M), -np.inf)
    blocks.ravel()[:n] = a
    blocks *= wt[4 * M:2 * M:-2]
    # suffix maxima of the block before each block, -inf past its end
    suf = np.full((blocks.shape[0] + 1, M + 1), -np.inf)
    suf[1:, :M] = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1]
    pre = np.maximum.accumulate(blocks, axis=1, out=blocks)
    pre *= wt[2:2 * M + 1:2]
    suf[:-1, 1:] *= wt[2 * M + 2::2]
    return np.maximum(pre, suf[:-1, 1:], out=pre).ravel()[:n]


class _SupSeries:
    """Weighted history sup of a field at each row of a run fed a block of
    rows at a time, rebuilt on the run's rows as the integrators take it.

    The row itself, the weighted max over the M rows behind it
    (`sliding_max`), the read at theta = -delta and the initial window's
    samples in reach.  The field values from the start of the block of M
    rows before the last row's are carried, with the window reads' rows."""

    def __init__(self, field, mu, first):
        self.field, self.mu, self.delta = field, mu, first.meta["delta"]
        self.M, _, self.wt = hist.sup_blocks(mu, self.delta, first.h)
        self.rows = np.empty(0)
        self.reads = _WindowReads(first)
        s, X = hist.pre_rows(first.ic_window)
        self.pre = s, field.value_many(X)

    def feed(self, block, fv):
        """The sup at the rows of block, the run's next, fv the field on
        them: (n,)."""
        M, c, n = self.M, self.rows.shape[0], fv.shape[0]
        a = np.concatenate([self.rows, fv])
        # row p's window is the one behind row p - 1; row 0 has none
        out = np.concatenate([[-np.inf], sliding_max(a, M, self.wt)])[c:c + n]
        np.maximum(out, fv, out=out)
        # the rows from the start of the block before the last row's, the
        # carried rows starting on a block as the run does
        self.rows = a[max(((c + n - 1) // M - 1) * M, 0):].copy()
        end = self.field.value_many(self.reads.feed(block))
        np.maximum(out, end * hist.lag_weights(self.mu, self.delta), out=out)
        k = int(np.searchsorted(block.ts, self.delta + hist.ROW_TOL))
        if k:
            np.maximum(out[:k], hist.row_sup(*self.pre, block.ts[:k],
                                             self.delta, self.mu),
                       out=out[:k])
        return out


def field_sup_series(traj, field, mu=0.0, values=None):
    """Weighted history sup of the field at every sample: (N,); see
    `_SupSeries`.  values is the field on traj.xs, when the caller has it
    already."""
    fv = field.value_many(traj.xs) if values is None else values
    return _SupSeries(field, mu, traj).feed(traj, fv)


class FiniteCheck:
    """The run reached its horizon: steps + 1 rows, every state finite, not
    cut short as diverged.  The other checks judge the rows they are given,
    so a run cut at its first overflow, or a truncated CSV, passes them on
    what is left; this check does not.  Fed the run's rows a block at a
    time."""

    def __init__(self, steps):
        self.steps = int(steps)
        self.rows = 0
        self.last = None
        self.witness = None
        self.diverged = False

    def feed(self, block, values=None):
        n = block.xs.shape[0]
        self.diverged = self.diverged or bool(block.diverged)
        if not n:
            return
        if self.witness is None:
            bad = ~np.isfinite(block.xs).all(axis=1)
            if bad.any():
                k = int(np.argmax(bad))
                self.witness = _witness(block.ts[k], block.xs[k])
        self.rows += n
        self.last = float(block.ts[-1])

    def report(self):
        ok = (self.rows == self.steps + 1 and self.witness is None
              and not self.diverged)
        return VerificationReport(
            "finite", ok, self.last, self.witness, {},
            {"rows": self.rows, "expected_rows": self.steps + 1})


class SafetyCheck:
    """No sample (initial history included) in D, and hazard clearance of at
    least SAFETY_TOL on every sample inside the region.  Fed the run's rows
    a block at a time; the initial function, its read at -delta and its
    samples after that, comes with the first block."""

    def __init__(self, unsafe):
        self.unsafe = unsafe
        self.samples = self.in_region = 0
        self.member = None      # (clearance, witness) of the first member
        self.worst = None       # least clearance in the region so far
        self.witness = None

    def feed(self, block, values=None):
        if not self.samples:
            ic = block.ic_window
            delta = block.meta["delta"]
            s, X = hist.pre_rows(ic)
            keep = s > -delta + hist.ROW_TOL
            self._states(np.concatenate([[-delta], s[keep]]),
                         np.concatenate([ic.interp_times(ic.latest_time
                                                         - delta), X[keep]]))
        self._states(block.ts, block.xs)

    def _states(self, times, states):
        unsafe = self.unsafe
        self.samples += states.shape[0]
        in_region = unsafe.region.contains_many(states)
        self.in_region += int(in_region.sum())
        if self.member is not None:
            return
        member = unsafe.membership_many(states)
        if member.any():
            k = int(np.argmax(member))
            clearance = -float(unsafe.boundary_margin(states[k][None])[0])
            self.member = clearance, _witness(times[k], states[k])
        elif in_region.any():
            clear = -unsafe.boundary_margin(states[in_region])
            k_loc = int(np.argmin(clear))
            # the first least clearance, as the argmax of its negation
            least = None if self.worst is None else -self.worst
            if beats(-clear[k_loc], least):
                idx = np.flatnonzero(in_region)[k_loc]
                self.worst = float(clear[k_loc])
                self.witness = _witness(times[idx], states[idx])

    def report(self):
        tvalues = {"safety_tol": SAFETY_TOL}
        details = {"samples": self.samples,
                   "samples_in_region": self.in_region}
        if self.member is not None:
            clearance, witness = self.member
            return VerificationReport("safety", False, clearance, witness,
                                      tvalues, details)
        if self.in_region:
            details["vacuous"] = False
            return VerificationReport("safety", self.worst >= SAFETY_TOL,
                                      self.worst, self.witness, tvalues,
                                      details)
        details["vacuous"] = True
        return VerificationReport("safety", True, None, None, tvalues, details)


def safety_check(traj, unsafe):
    if traj.xs.shape[0] == 0:
        raise ValueError("trajectory must be non-empty")
    return _whole(SafetyCheck(unsafe), traj)


class DecreaseCheck:
    """Forward-difference d(field)/dt against -gamma*field + eta*sup at each
    interior sample; pass iff every residual is within DECREASE_C*h.

    The sup series is rebuilt from the samples (see `_SupSeries`), for a
    run in memory as for one read back from CSV.  Fed the run's rows a
    block at a time, with the field on them when the caller has it; the
    last row's residual waits for the next row."""

    def __init__(self, field, gains):
        self.field, self.gains = field, gains
        self.sup = None
        self.samples = self.violations = 0
        self.last = None        # the last row: field, sup, time, state
        self.worst = None
        self.witness = None
        self.first_violation = None     # (time, witness)

    def feed(self, block, values=None):
        self.h = block.h
        n = block.xs.shape[0]
        if not n:
            return
        if self.sup is None:
            self.sup = _SupSeries(self.field, self.gains.mu, block)
        fv = self.field.value_many(block.xs) if values is None else values
        sup = self.sup.feed(block, fv)
        self.samples += n
        ts, xs = block.ts, block.xs
        if self.last is not None:
            lf, ls, lt, lx = self.last
            fv, sup = np.concatenate([[lf], fv]), np.concatenate([[ls], sup])
            ts, xs = np.concatenate([[lt], ts]), np.concatenate([[lx], xs])
        self.last = fv[-1], sup[-1], ts[-1], xs[-1].copy()
        if fv.shape[0] < 2:
            return
        gains = self.gains
        res = np.diff(fv) / self.h - (-gains.gamma * fv[:-1]
                                      + gains.eta * sup[:-1])
        k = int(np.argmax(res))
        if beats(res[k], self.worst):
            self.worst = float(res[k])
            self.witness = _witness(ts[k], xs[k])
        bad = res > DECREASE_C * self.h
        if bad.any():
            self.violations += int(bad.sum())
            if self.first_violation is None:
                j = int(np.argmax(bad))
                self.first_violation = float(ts[j]), _witness(ts[j], xs[j])

    def report(self):
        h = self.h
        tvalues = {"c": DECREASE_C, "h": h, "tol": DECREASE_C * h}
        N = self.samples
        if N < 2:
            return VerificationReport("decrease", True, 0.0, None, tvalues,
                                      {"samples": N, "violations": 0})
        details = {"samples": N, "violations": self.violations}
        if self.first_violation is not None:
            details["first_violation_time"], witness = self.first_violation
            return VerificationReport("decrease", False, self.worst,
                                      witness, tvalues, details)
        return VerificationReport("decrease", True, self.worst,
                                  self.witness, tvalues, details)


def decrease_check(traj, field, gains, values=None):
    return _whole(DecreaseCheck(field, gains), traj, values)


class EnvelopeCheck:
    """Field values along the run against the exponential envelope.

    Non-negative start: ratio test against field(0)*e^{-rho t}
    (`halanay.check_envelope`, block by block).  Negative start (the
    barrier-side case): the envelope statement degenerates to forward
    invariance of the nonpositive sublevel set, so the check is that the
    field never becomes positive.  Fed the run's rows a block at a time,
    with the field on them when the caller has it.
    """

    def __init__(self, field, certificate):
        self.field, self.certificate = field, certificate
        self.v0 = None
        self.worst = None
        self.witness = None
        self.passed = True
        self.first_violation = None

    def feed(self, block, values=None):
        if not block.xs.shape[0]:
            return
        vs = self.field.value_many(block.xs) if values is None else values
        if self.v0 is None:
            self.v0 = float(vs[0])
        if self.v0 < 0.0:
            k = int(np.argmax(vs))
            if beats(vs[k], self.worst):
                self.worst = float(vs[k])
                self.witness = _witness(block.ts[k], block.xs[k])
            return
        r = halanay.check_envelope(block.ts, vs, self.v0,
                                   self.certificate.rho)
        if beats(r["max_ratio"], self.worst):
            self.worst = r["max_ratio"]
        if not r["pass"] and self.passed:
            self.passed = False
            self.first_violation = r["first_violation"]
            j = int(np.searchsorted(block.ts, r["first_violation"]))
            j = min(j, len(block.ts) - 1)
            self.witness = _witness(block.ts[j], block.xs[j])

    def report(self):
        if self.v0 is None:
            raise ValueError("need at least one sample")
        rho = self.certificate.rho
        if self.v0 < 0.0:
            return VerificationReport(
                "envelope", self.worst <= 0.0, self.worst, self.witness,
                {"tol": 0.0, "rho": rho},
                {"form": "signed", "start": self.v0})
        return VerificationReport(
            "envelope", self.passed, self.worst, self.witness,
            {"tol": halanay.ENVELOPE_TOL, "rho": rho},
            {"form": "ratio", "start": self.v0,
             "first_violation": self.first_violation})


def envelope_check(traj, field, certificate, values=None):
    return _whole(EnvelopeCheck(field, certificate), traj, values)


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


def _unsafe_sample(rng, region, unsafe):
    """The first UNSAFE_SAMPLES members of unsafe among 8 * UNSAFE_SAMPLES
    uniform draws in region, drawn UNSAFE_SAMPLES rows at a time until that
    many members are found.  The sample is an array of its own, with no
    rows beyond it."""
    kept, found = [], 0
    for _ in range(8):
        chunk = rng.uniform(region.lo, region.hi,
                            size=(UNSAFE_SAMPLES, region.n))
        chunk = chunk[unsafe.membership_many(chunk)][:UNSAFE_SAMPLES - found]
        kept.append(chunk)
        found += chunk.shape[0]
        if found == UNSAFE_SAMPLES:
            break
    return np.concatenate(kept)


def construction_samples(V, B, bounds, region, phi_m, boundary_grid=256,
                         unsafe=None, seed=0):
    """The half of the construction check that does not depend on psi, as
    the dict clbrf_construction_check reads: the seeded exterior sample and
    its worst slack B + phi_m, the boundary grid and psi_min, the
    unsafe-set sample drawn after the exterior one, V and B on all three
    samples, and the grid size.  Every array is held whole, with no rows
    beyond the sample's.

    The unsafe-set sample is the first UNSAFE_SAMPLES members of
    8 * UNSAFE_SAMPLES uniform candidates in the region.  They are drawn a
    chunk at a time, stopping once that many members are found: the
    generator's stream is sequential, so the chunks hold the rows of one
    whole draw, and a row's membership does not depend on its batch, so the
    sample is the one a whole draw would keep.  Nothing draws after it.
    """
    if boundary_grid < 100:
        raise ValueError("need at least 100 boundary points per edge")
    if region.n != 2:
        raise ValueError("boundary grid construction assumes a planar box")
    rng = np.random.default_rng(seed)
    # (a) exterior bound: sample a dilated box, reject interior points
    span = region.hi - region.lo
    lo = region.lo - 1.5 * span
    hi = region.hi + 1.5 * span
    pts = rng.uniform(lo, hi, size=(4 * EXTERIOR_SAMPLES, region.n))
    pts = pts[np.flatnonzero(~region.contains_many(pts))[:EXTERIOR_SAMPLES]]
    ext_B = B.value_many(pts)
    slack = ext_B + phi_m(np.linalg.norm(pts, axis=1))
    k = int(np.argmax(slack))
    # (b) the viability threshold for psi
    bpts = _boundary_grid(region, boundary_grid)
    r = np.linalg.norm(bpts, axis=1)
    ratio = bounds.alpha2(r) / phi_m(r)
    kb = int(np.argmax(ratio))
    if unsafe is None:
        unsafe = example_unsafe_set()
    cand = _unsafe_sample(rng, region, unsafe)
    return {"exterior": pts, "exterior_V": V.value_many(pts),
            "exterior_B": ext_B, "worst_slack": (k, float(slack[k])),
            "grid": bpts, "grid_V": V.value_many(bpts),
            "grid_B": B.value_many(bpts), "psi_min": (kb, float(ratio[kb])),
            "unsafe": cand, "unsafe_V": V.value_many(cand),
            "unsafe_B": B.value_many(cand), "boundary_grid": boundary_grid}


def clbrf_construction_check(samples, psi=None, gains=None):
    """Structural conditions for merging V and B into W = V + psi*B, on
    the samples that construction_samples drew for V and B.

    (a) B <= -phi_m(|x|) on random exterior samples; (b) psi_min = max of
    alpha2(|x|)/phi_m(|x|) over a boundary grid; (c) optional gain-ordering
    condition min(gammas) > max(etas) when a (lyapunov, barrier) gains pair
    is supplied; (d) with a concrete psi: psi must exceed psi_min, W must
    be positive on a dense unsafe-set sample, and a state with W < 0 must
    exist.  The returned report carries psi_min as an attribute.

    W's values are V + psi B on the samples, the rows W.value_many gives,
    so a sweep over psi that passes one dict to every check draws and
    evaluates once.
    """
    if psi is not None and psi <= 0:
        raise ValueError("psi must be positive")
    tvalues = {"exterior_slack": 1e-12,
               "boundary_grid": samples["boundary_grid"]}
    details = {}
    passed = True
    witness = None

    # (a) exterior bound
    pts = samples["exterior"]
    k, worst = samples["worst_slack"]
    details["exterior"] = {"samples": int(pts.shape[0]),
                           "worst_slack": worst}
    if worst > 1e-12:
        passed = False
        witness = _witness(np.nan, pts[k])

    # (b) the viability threshold for psi
    bpts = samples["grid"]
    kb, psi_min = samples["psi_min"]
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
        psi = float(psi)
        details["psi"] = psi
        if psi <= psi_min:
            passed = False
            if witness is None:
                witness = _witness(np.nan, bpts[kb])
            details["psi_above_min"] = False
        else:
            details["psi_above_min"] = True
        cand = samples["unsafe"]
        if cand.shape[0]:
            wv = samples["unsafe_V"] + psi * samples["unsafe_B"]
            kw = int(np.argmin(wv))
            details["unsafe_positivity"] = {"samples": int(cand.shape[0]),
                                            "min_W": float(wv[kw])}
            if wv[kw] <= 0.0:
                passed = False
                if witness is None:
                    witness = _witness(np.nan, cand[kw])
        else:
            details["unsafe_positivity"] = {"samples": 0, "min_W": None}
            details["unsafe_sample"] = (
                "empty: no candidate in the region is in the unsafe set, so "
                "no sample shows W > 0 on it")
            passed = False
        neg = samples["grid_V"] + psi * samples["grid_B"] < 0.0
        if neg.any():
            j = int(np.argmax(neg))
            details["sublevel_witness"] = [float(v) for v in bpts[j]]
        else:
            jn = np.flatnonzero(samples["exterior_V"]
                                + psi * samples["exterior_B"] < 0.0)
            if jn.size:
                details["sublevel_witness"] = [float(v) for v in pts[jn[0]]]
            else:
                details["sublevel_witness"] = None
                passed = False

    rep = VerificationReport("clbrf-construction", passed, psi_min, witness,
                             tvalues, details)
    rep.psi_min = psi_min
    return rep


# points per membership call of separation_check's coarse scan, to bound
# its memory
SCAN_POINTS = 16384


def _outermost_member(member, anchor, d, t_wall, frac):
    """Per ray i, the last column j of the scan grid t_wall[i] * frac[j]
    whose point anchor + t * d[i] is a member, or -1 if none is: blocks of
    columns from the last one inward, each ray leaving the scan at the
    first block with a member.  A block's grid values are formed as it is
    tested, so the whole (rays, columns) grid is never held."""
    width = 8
    nrays, nscan = t_wall.shape[0], frac.shape[0]
    last = np.full(nrays, -1)
    todo = np.arange(nrays)
    c1 = nscan
    while todo.size and c1 > 0:
        c0 = max(c1 - width, 0)
        per_call = max(1, SCAN_POINTS // (c1 - c0))
        hit = np.empty((todo.size, c1 - c0), dtype=bool)
        for r0 in range(0, todo.size, per_call):
            rows = todo[r0:r0 + per_call]
            t = t_wall[rows, None] * frac[None, c0:c1]
            # anchor + t d, the sum taken in place on the products
            pts = t[:, :, None] * d[rows, None, :]
            pts += anchor
            hit[r0:r0 + rows.size] = member(pts.reshape(-1, 2)).reshape(
                rows.size, c1 - c0)
        found = hit.any(axis=1)
        last[todo[found]] = c1 - 1 - np.argmax(hit[found, ::-1], axis=1)
        todo = todo[~found]
        c1 = c0
    return last


def separation_check(unsafe, W, budget=4096):
    """Shell sampling of the separation between the excluded set and the
    W <= 0 region.

    Casts rays from an interior anchor, locates the outermost boundary of
    {x in region : W(x) > 0} on each ray, and asserts W <= -tol on points
    just outside it (distances eps/10, eps/2, eps; SEPARATION_EPS and _TOL).
    Degenerate empty sets pass vacuously.

    The boundary is bracketed by a coarse scan of 64 points per ray, from
    the anchor to the wall, then bisected.  The scan tests blocks of
    columns from the wall inward and drops a ray at the first block with a
    member, so its hit is the outermost member point of the whole scan,
    found without testing the columns inside it; each membership call
    takes at most SCAN_POINTS points.
    """
    if budget < 1000:
        raise ValueError("sample budget must be at least 1e3")
    region = unsafe.region
    if region.n != 2:
        raise ValueError("ray casting assumes a planar box")
    member = unsafe.refined_membership(W)
    eps, tol = SEPARATION_EPS, SEPARATION_TOL
    dists = np.array([eps / 10.0, eps / 2.0, eps])
    nrays = max(64, budget // dists.size)
    tvalues = {"eps": eps, "tol": tol, "budget": budget}

    anchor = 0.5 * (region.lo + region.hi)
    if not member(anchor[None])[0]:
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
    last = _outermost_member(member, anchor, d, t_wall, frac)

    # column 0 is the anchor, a member, so every ray has a member
    boundary = np.empty(nrays)
    at_wall = last == nscan - 1
    boundary[at_wall] = t_wall[at_wall]
    live = ~at_wall
    # the grid values at the bracket, t_wall * frac as the scan forms them
    lo_b = t_wall[live] * frac[last[live]]
    hi_b = t_wall[live] * frac[np.minimum(last[live] + 1, nscan - 1)]
    dl = d[live]
    al = anchor[None, :]
    for _ in range(45):
        mid = 0.5 * (lo_b + hi_b)
        m = member(al + mid[:, None] * dl)
        lo_b = np.where(m, mid, lo_b)
        hi_b = np.where(m, hi_b, mid)
    boundary[live] = 0.5 * (lo_b + hi_b)

    shell = (anchor[None, None, :]
             + (boundary[:, None] + dists[None, :])[:, :, None]
             * d[:, None, :])
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
