"""Exponential decay certificates for the delayed decrease inequality.

Root-solves the transcendental gain equation Gamma(rho) = 0 (two published
variants of Gamma are in circulation; both are implemented) and validates
e^{-rho t} envelopes against scalar comparison simulations.
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


class _IdentityField:
    """Scalar pass-through so windows of a scalar v can reuse weighted_sup."""

    n = 1

    @staticmethod
    def value_many(X):
        return X[..., 0]

    @staticmethod
    def grad_many(X):
        return np.ones_like(X)

    @staticmethod
    def value(x):
        return float(x[0])

    @staticmethod
    def grad(x):
        return np.ones(1)


def scalar_comparison_sim(gamma, eta, mu, delta, v0, T, step,
                          grid=hist.DEFAULT_GRID):
    """Integrate the worst-case comparison dynamics
    vdot = -gamma*v + eta*sup_theta e^{mu theta} v(t+theta)
    from the constant history v == v0, by RK4 method of steps.

    Returns (t, v) arrays including t=0.  Non-negative data stays
    non-negative (the sup term only feeds growth).

    When the sup grid's spacing delta/(grid-1) exceeds the step, no grid
    read lies inside the newest step, so the sup taken right after a push,
    while the newest sample still carries the provisional slope k4, is the
    same number as a fresh one: the next step's k1 reuses it.  On a finer
    grid k1 is recomputed over the accepted window.
    """
    if step > delta:
        raise ValueError("step must not exceed the delay horizon")
    if v0 < 0:
        raise ValueError("initial history must be non-negative")
    field = _IdentityField()
    w = hist.from_constant(np.array([float(v0)]), delta)
    nsteps = int(round(T / step))
    ts = np.empty(nsteps + 1)
    vs = np.empty(nsteps + 1)
    ts[0], vs[0] = 0.0, v0

    def sup_now():
        return hist.weighted_sup(w, field, mu, grid)

    def stage_rate(t_stage, v_stage, slope_guess):
        # extend the window provisionally so the history sup is evaluated
        # at the stage time, then retract
        w.push_scratch(t_stage, np.array([v_stage]), np.array([slope_guess]))
        s = sup_now()
        w.pop_scratch()
        return -gamma * v_stage + eta * s

    # the margin keeps a grid read that rounds onto the newest step's left
    # end out of the reuse
    reuse = delta / (grid - 1) > step * (1.0 + 1e-9)
    t = 0.0
    v = float(v0)
    k1 = -gamma * v + eta * sup_now()
    for i in range(nsteps):
        k2 = stage_rate(t + 0.5 * step, v + 0.5 * step * k1, k1)
        k3 = stage_rate(t + 0.5 * step, v + 0.5 * step * k2, k2)
        k4 = stage_rate(t + step, v + step * k3, k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if -1e-12 < v < 0.0:
            v = 0.0
        t = (i + 1) * step
        # accepted slope needs the sup over the accepted window; push with
        # a provisional slope, then overwrite in place
        w.push(t, np.array([v]), np.array([k4]))
        k1 = -gamma * v + eta * sup_now()
        w.ms[w.count - 1, 0] = k1
        if not reuse:
            k1 = -gamma * v + eta * sup_now()
        ts[i + 1] = t
        vs[i + 1] = v
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
