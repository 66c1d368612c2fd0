"""Exponential decay certificates for the delayed decrease inequality.

Root-solves the transcendental gain equation Gamma(rho) = 0 (two published
variants of Gamma are in circulation; both are implemented) and validates
e^{-rho t} envelopes against scalar comparison simulations.

The comparison simulation is an RK4 method of steps on uniform samples of
v, with the history sup taken on its own rows as in `history`.  Its reads
at theta = -delta are fixed cubic Hermite tables over the accepted samples
(`history.hermite_tables`), gathered in numpy once per block of steps
together with the max over the rows the block's steps share, while the RK
stages and the rows accepted inside the block run in Python floats, kept
in a buffer that is written into the sample arrays before each block's
reads and at the end.
"""

import math

import numpy as np

from . import history as hist

VARIANT_PROOF = "proof"
VARIANT_STATEMENT = "statement"
# decay_rate's bisection width; check_envelope's slack above the envelope
RATE_TOL = 1e-10
ENVELOPE_TOL = 1e-6


def gamma_fn(rho, gamma, eta, delta, variant=VARIANT_PROOF):
    rho = np.asarray(rho, dtype=float)
    if variant == VARIANT_PROOF:
        out = rho - gamma + eta * np.exp(delta * rho)
    elif variant == VARIANT_STATEMENT:
        out = 2.0 * rho - gamma + eta * np.exp(delta * rho)
    else:
        raise ValueError("variant must be 'proof' or 'statement'")
    return out if out.ndim else float(out)


def decay_rate(gamma, eta, delta, variant=VARIANT_PROOF):
    """Unique positive root of Gamma on [0, gamma] by bisection.

    Gamma(0) = eta - gamma < 0 and Gamma(gamma) > 0, and Gamma is strictly
    increasing, so the bracket is guaranteed.  An infinite gain would
    bisect forever, and a NaN delta passes no comparison, so both are
    refused.
    """
    if not (math.isfinite(gamma) and math.isfinite(eta) and gamma > eta > 0):
        raise ValueError("need finite gamma > eta > 0")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("need a finite delta > 0")
    lo, hi = 0.0, float(gamma)
    flo = gamma_fn(lo, gamma, eta, delta, variant)
    if flo >= 0:
        raise ValueError("no sign change on [0, gamma]")
    while hi - lo > RATE_TOL:
        mid = 0.5 * (lo + hi)
        if gamma_fn(mid, gamma, eta, delta, variant) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class DecayCertificate:
    """Root rho_bar plus a chosen working rate rho in (0, rho_bar); the
    unweighted (mu = 0) rate, which bounds every mu >= 0."""

    def __init__(self, gamma, eta, delta, variant=VARIANT_PROOF,
                 safety_factor=0.9):
        self.rho_bar = decay_rate(gamma, eta, delta, variant)
        if not (0.0 < safety_factor < 1.0):
            raise ValueError("safety factor must be in (0, 1)")
        self.rho = safety_factor * self.rho_bar

    def envelope(self, v0, t):
        return v0 * np.exp(-self.rho * np.asarray(t, dtype=float))


def scalar_comparison_sim(gamma, eta, mu, delta, v0, T, step):
    """Integrate the worst-case comparison dynamics
    vdot = -gamma*v + eta*sup_theta e^{mu theta} v(t+theta)
    from the constant history v == v0, by RK4 method of steps.

    Returns (t, v) arrays including t=0.  Non-negative data stays
    non-negative (the sup term only feeds growth).

    The sup at a stage at t = t_i + c*step, c in {1/2, 1}, is the max of
    the read at theta = -delta, of every accepted row in [t - delta, t] and
    of the stage value, each weighted by e^{mu theta}.  The read is the
    cubic Hermite fit through the accepted samples and their slopes (each
    sample's k1, as in the closed-loop integrators), v0 at and before
    t = 0, from fixed `hist.hermite_tables` per c.  A block of as many
    steps as have their rows final, from step r, gathers those reads and
    the max over the rows up to r in reach; the rows written after r join
    as a running max, both weighted relative to row r.  Stages 2 and 3
    share the c = 1/2 terms, stage 4 and the next step's k1 the c = 1 ones.
    """
    if step > delta:
        raise ValueError("step must not exceed the delay horizon")
    if v0 < 0:
        raise ValueError("initial history must be non-negative")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    h = float(step)
    v0 = float(v0)
    nsteps = int(round(T / h))
    ts = np.arange(nsteps + 1) * h
    # NaN until written, so a read of a row that is not final yet shows
    vs = np.full(nsteps + 1, np.nan)
    ms = np.full(nsteps + 1, np.nan)
    # every read at t = 0 is v0, and e^{mu theta} <= 1
    k1 = -gamma * v0 + eta * v0
    vs[0], ms[0] = v0, k1

    cs = np.array([0.5, 1.0])
    dsteps = hist.delay_steps(delta, h)
    ri0, *rb = hist.hermite_tables(cs - dsteps, h)       # (2,) each
    ew = math.exp(-mu * delta)
    # the rows i - l, l = 0 .. reach[c], lie in [t - delta, t] for the
    # stage at t = t_i + c*step; back[l] = e^{-mu l step}
    reach = np.floor(dsteps - cs).astype(int)
    M = int(reach.max())
    back = np.exp(-mu * h * np.arange(M + 1))

    # the reads of step i touch rows up to i + top; after step r - 1 rows
    # 0..r are final, so the reads of steps r .. r + L - 1 can all be made.
    # L - 1 <= reach[1] <= reach[0], so every row before the block's first
    # is in reach of the block's first step
    L = 1 - min(int(ri0.max()) + 1, 0)
    # per step j of a block and offset c, e^{-mu (j + c) step}: the weight
    # relative to the block's first row
    rel = np.exp(-mu * h * (np.arange(L)[:, None] + cs))    # (L, 2)
    rel_f = rel.tolist()
    fwd = np.exp(mu * h * np.arange(L)).tolist()

    def block(steps):
        """Per step of the block and offset c, the max of the weighted read
        at theta = -delta and of the rows up to the block's first: (n, 2)."""
        r = int(steps[0])
        base = steps[:, None]
        rows = np.maximum(base + ri0, 0)
        nxt = np.minimum(rows + 1, base)
        end = hist.hermite_rows(rb, vs, ms, rows, nxt)
        # reads at or before t = 0 are the constant history
        end = np.where((base + cs) * h - delta <= hist.EARLY_TOL, v0, end)
        # suffix maxima of the rows a .. r weighted relative to row r
        a = max(r - M, 0)
        u = vs[a:r + 1] * back[r - a::-1]
        suf = np.maximum.accumulate(u[::-1])[::-1]
        old = suf[np.maximum(base - reach - a, 0)] * rel[:len(steps)]
        return np.maximum(end * ew, old)

    hh = 0.5 * h
    h6 = h / 6.0
    v = v0
    # the rows accepted since the last write, (v, slope) each, as floats
    buf = []

    def write(stop):
        """The buffered rows, which end at row stop - 1, into vs and ms."""
        lo = stop - len(buf) // 2
        vs[lo:stop] = buf[0::2]
        ms[lo:stop] = buf[1::2]
        buf.clear()

    for i in range(nsteps):
        j = i % L
        if j == 0:
            write(i + 1)
            terms = block(i + np.arange(min(L, nsteps - i))).tolist()
            z = -math.inf
        else:
            # row i joins the rows written since the block's first
            u = fwd[j] * v
            if u > z:
                z = u
        s_half, s_one = terms[j]
        w_half, w_one = rel_f[j]
        u = w_half * z
        if u > s_half:
            s_half = u
        u = w_one * z
        if u > s_one:
            s_one = u
        y = v + hh * k1
        k2 = -gamma * y + eta * (y if y > s_half else s_half)
        y = v + hh * k2
        k3 = -gamma * y + eta * (y if y > s_half else s_half)
        y = v + h * k3
        k4 = -gamma * y + eta * (y if y > s_one else s_one)
        vn = v + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if -1e-12 < vn < 0.0:
            vn = 0.0
        # the new row's slope is its k1; no read of it touches its slope
        k1 = -gamma * vn + eta * (vn if vn > s_one else s_one)
        v = vn
        buf += (vn, k1)
    write(nsteps + 1)
    return ts, vs


def check_envelope(ts, vs, v0, rho):
    """Compare samples against the envelope v0*e^{-rho t}.

    Pass iff max ratio v(t)/(v0 e^{-rho t}) <= 1 + ENVELOPE_TOL.  v0 must be
    positive for the ratio form; v0 == 0 passes iff the samples stay at 0
    (within ENVELOPE_TOL absolute).  A non-finite sample fails either form
    with max_ratio NaN; first_violation is the time of the first sample
    that is non-finite or violates.
    """
    tol = ENVELOPE_TOL
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if ts.size == 0:
        raise ValueError("need at least one sample")
    if np.any(ts < 0):
        raise ValueError("sample times must be non-negative")
    if v0 == 0.0:
        bad = ~(np.abs(vs) <= tol)
        worst = np.inf if bad.any() else 1.0
    elif v0 < 0:
        raise ValueError("ratio envelope needs v0 > 0 (signed form is the caller's job)")
    else:
        ratio = vs / (v0 * np.exp(-rho * ts))
        bad = ~(ratio <= 1.0 + tol)
        worst = float(np.max(ratio))
    # a non-finite sample fails, and then the worst value is NaN
    finite = np.isfinite(vs)
    if not finite.all():
        bad |= ~finite
        worst = np.nan
    ok = not bad.any()
    first = None if ok else float(ts[int(np.argmax(bad))])
    return {"pass": ok, "max_ratio": worst, "first_violation": first}
