"""Exponential decay certificates for the delayed decrease inequality.

Root-solves the transcendental gain equation Gamma(rho) = 0 (two published
variants of Gamma are in circulation; both are implemented) and validates
e^{-rho t} envelopes against scalar comparison simulations.

The comparison simulation is an RK4 method of steps on uniform samples of
v.  Its history reads are fixed cubic Hermite tables over the accepted
samples (`history.hermite_tables`), gathered in numpy once per block of
steps, while the RK stages run in Python floats.  When the sup grid is
finer than the step, the reads inside the current step come from the
Hermite fit between the newest sample and the stage value.
"""

import numpy as np

from . import history as hist

VARIANT_PROOF = "proof"
VARIANT_STATEMENT = "statement"


def gamma_fn(rho, gamma, eta, delta, variant=VARIANT_PROOF):
    rho = np.asarray(rho, dtype=float)
    if variant == VARIANT_PROOF:
        out = rho - gamma + eta * np.exp(delta * rho)
    elif variant == VARIANT_STATEMENT:
        out = 2.0 * rho - gamma + eta * np.exp(delta * rho)
    else:
        raise ValueError("variant must be 'proof' or 'statement'")
    return out if out.ndim else float(out)


def decay_rate(gamma, eta, delta, variant=VARIANT_PROOF, tol=1e-10):
    """Unique positive root of Gamma on [0, gamma] by bisection.

    Gamma(0) = eta - gamma < 0 and Gamma(gamma) > 0, and Gamma is strictly
    increasing, so the bracket is guaranteed.
    """
    if not (gamma > eta > 0):
        raise ValueError("need gamma > eta > 0")
    if delta <= 0:
        raise ValueError("need delta > 0")
    lo, hi = 0.0, float(gamma)
    flo = gamma_fn(lo, gamma, eta, delta, variant)
    if flo >= 0:
        raise ValueError("no sign change on [0, gamma]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gamma_fn(mid, gamma, eta, delta, variant) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class DecayCertificate:
    """Root rho_bar plus a chosen working rate rho in (0, rho_bar)."""

    def __init__(self, gamma, eta, delta, mu=0.0, variant=VARIANT_PROOF,
                 safety_factor=0.9):
        self.gamma = float(gamma)
        self.eta = float(eta)
        self.delta = float(delta)
        self.mu = float(mu)
        self.variant = variant
        self.rho_bar = decay_rate(gamma, eta, delta, variant)
        if not (0.0 < safety_factor < 1.0):
            raise ValueError("safety factor must be in (0, 1)")
        self.rho = safety_factor * self.rho_bar

    def envelope(self, v0, t):
        return v0 * np.exp(-self.rho * np.asarray(t, dtype=float))


def scalar_comparison_sim(gamma, eta, mu, delta, v0, T, step,
                          grid=hist.DEFAULT_GRID):
    """Integrate the worst-case comparison dynamics
    vdot = -gamma*v + eta*sup_theta e^{mu theta} v(t+theta)
    from the constant history v == v0, by RK4 method of steps.

    Returns (t, v) arrays including t=0.  Non-negative data stays
    non-negative (the sup term only feeds growth).

    The history is the cubic Hermite fit through the accepted samples and
    their slopes (each sample's k1, as in the closed-loop integrators),
    with the constant v0 at and before t = 0.  The sample grid and the theta
    grid are both uniform, so each sup-grid read of a stage at t_i + c*step
    is a fixed combination of rows: its weights come from
    `hist.hermite_tables` once per stage offset c in {1/2, 1}.  The reads
    of accepted rows are made in blocks of steps, one gather for as many
    steps as have their rows final; stages 2 and 3 share the c = 1/2
    reads, and stage 4 shares the c = 1 reads with the next step's k1.
    The theta = 0 read is the stage value itself.

    On a fine grid (spacing delta/(grid-1) at most the step) some reads
    land inside the current step.  Those come from the Hermite fit between
    the newest row (value, slope k1) and the stage point (stage value, the
    previous stage's slope), whose weights are fixed per stage too; there
    k1 is also recomputed once the new row's slope is stored.
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

    thetas = hist.theta_grid(delta, grid)[:-1]       # theta = 0 is the stage
    cs = np.array([0.5, 1.0])
    off = cs[:, None] + thetas / h                   # (2, grid-1) in steps
    # reads of accepted rows (off <= 0), padded to one length with the
    # theta = -delta read, which every stage has since step <= delta
    idx = [np.flatnonzero(o <= 0.0) for o in off]
    width = max(len(ix) for ix in idx)
    idx = np.stack([np.pad(ix, (width - len(ix), 0), mode="edge")
                    for ix in idx])
    th = thetas[idx]
    ri0, *rb = hist.hermite_tables(cs[:, None] + th / h, h)
    wexp = np.exp(mu * th) if mu else None
    # reads inside the step, between row i and the stage point at c*h:
    # per stage a list of (b00, b10, b01, b11, e^{mu theta}) in floats
    inner = []
    for c, o in zip(cs, off):
        sel = o > 0.0
        _, *b = hist.hermite_tables(o[sel] / c, c * h)
        e = np.exp(mu * thetas[sel])
        inner.append(list(zip(*(w.tolist() for w in b), e.tolist())))
    in_half, in_one = inner

    # the reads of step i touch rows up to i + top; after step r - 1 rows
    # 0..r are final, so the reads of steps r .. r + L - 1 can all be made
    top = min(int(ri0.max()) + 1, 0)
    L = 1 - top
    # during the first delta + step of model time some reads reach into
    # the constant history; those blocks clip their rows and mask
    i_split = int(np.ceil(delta / h)) + 2

    def row_max(steps):
        """Weighted max over the row reads of the steps at c = 1/2 and
        c = 1: (len(steps), 2)."""
        base = steps[:, None, None]
        rows = base + ri0
        if steps[0] < i_split:
            rows = np.maximum(rows, 0)
        nxt = np.minimum(rows + 1, base)
        vals = rb[0] * vs[rows] + rb[1] * ms[rows] + rb[2] * vs[nxt] \
            + rb[3] * ms[nxt]
        if steps[0] < i_split:
            tread = (base + cs[:, None]) * h + th
            vals = np.where(tread <= 1e-15, v0, vals)
        if wexp is not None:
            vals = vals * wexp
        return vals.max(axis=-1)

    def sup(row, reads, v, m, y, ym):
        """Sup at a stage with value y and slope guess ym, given the max of
        the row reads, the in-step reads and the newest row's value v and
        slope m."""
        s = row if row > y else y
        for b00, b10, b01, b11, e in reads:
            r = e * (b00 * v + b10 * m + b01 * y + b11 * ym)
            if r > s:
                s = r
        return s

    hh = 0.5 * h
    h6 = h / 6.0
    v, m = v0, k1
    for i in range(nsteps):
        j = i % L
        if j == 0:
            maxes = row_max(i + np.arange(min(L, nsteps - i))).tolist()
        r_half, r_one = maxes[j]
        y = v + hh * k1
        k2 = -gamma * y + eta * sup(r_half, in_half, v, m, y, k1)
        y = v + hh * k2
        k3 = -gamma * y + eta * sup(r_half, in_half, v, m, y, k2)
        y = v + h * k3
        k4 = -gamma * y + eta * sup(r_one, in_one, v, m, y, k3)
        vn = v + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if -1e-12 < vn < 0.0:
            vn = 0.0
        # the new row's slope is its k1 read with the provisional slope k4
        mn = -gamma * vn + eta * sup(r_one, in_one, v, m, vn, k4)
        k1 = mn
        if in_one:
            k1 = -gamma * vn + eta * sup(r_one, in_one, v, m, vn, mn)
        vs[i + 1] = v = vn
        ms[i + 1] = m = mn
    return ts, vs


def check_envelope(ts, vs, v0, rho, tol=1e-6):
    """Compare samples against the envelope v0*e^{-rho t}.

    Pass iff max ratio v(t)/(v0 e^{-rho t}) <= 1 + tol.  v0 must be
    positive for the ratio form; v0 == 0 passes iff the samples stay at 0
    (within tol absolute).
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if ts.size == 0:
        raise ValueError("need at least one sample")
    if np.any(ts < 0):
        raise ValueError("sample times must be non-negative")
    if v0 == 0.0:
        worst = float(np.max(np.abs(vs)))
        return {"pass": worst <= tol, "max_ratio": np.inf if worst > tol else 1.0,
                "first_violation": None if worst <= tol else float(ts[np.argmax(np.abs(vs) > tol)])}
    if v0 < 0:
        raise ValueError("ratio envelope needs v0 > 0 (signed form is the caller's job)")
    env = v0 * np.exp(-rho * ts)
    ratio = vs / env
    mx = float(np.max(ratio))
    ok = mx <= 1.0 + tol
    first = None
    if not ok:
        first = float(ts[int(np.argmax(ratio > 1.0 + tol))])
    return {"pass": ok, "max_ratio": mx, "first_violation": first}
