"""Reference computations for the benchmark's output checks.

Everything here is derived from the worked example's printed definitions
and imports nothing from rzk, so a fault in the package cannot hide in
its own checker.  The example:

    x1' = x2,  x2' = -h(x2(t - tau)) - x1 + u,
    h(v) = (0.8 + 2 e^{-100|v|}) tanh(10 v) + v,
    V = x1^2 + x1 x2 + x2^2,
    B = (e^{-H} - e^{-4}) |x|^2 in the box (-3,-1) x (0,2), -e^{-4} |x|^2 off it,
    H = 1/(1-(x1+2)^2) + 1/(1-(x2-1)^2) (the raw hazard),
    W = V + psi B.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial

E4 = math.exp(-4.0)
# psi_min = max over the box boundary of alpha2(r)/phi_m(r)
#         = 1.5 r^2 / (e^{-4} r^2), the same at every r
PSI_MIN = 1.5 * math.exp(4.0)
HAZARD_THRESHOLD = 4.0
SAFETY_TOL = 1e-3
# the package clamps H with a blend above this raw value; below it the
# stored barrier is the raw closed form
RAW_EXACT_BELOW = 45.0


def in_box(X):
    X = np.asarray(X, dtype=float)
    return ((X[:, 0] > -3.0) & (X[:, 0] < -1.0)
            & (X[:, 1] > 0.0) & (X[:, 1] < 2.0))


def raw_hazard(X):
    """Raw hazard inside the box, +inf outside."""
    X = np.asarray(X, dtype=float)
    inside = in_box(X)
    out = np.full(X.shape[0], np.inf)
    xi = X[inside]
    out[inside] = (1.0 / (1.0 - (xi[:, 0] + 2.0) ** 2)
                   + 1.0 / (1.0 - (xi[:, 1] - 1.0) ** 2))
    return out


def friction(v):
    v = np.asarray(v, dtype=float)
    return (0.8 + 2.0 * np.exp(-100.0 * np.abs(v))) * np.tanh(10.0 * v) + v


def certificate_columns(X, psi):
    """(V, B, W, known): closed forms at states X; known marks rows where
    the closed form is the package's definition (off the box, or in it
    with raw hazard below the blend)."""
    X = np.asarray(X, dtype=float)
    x1, x2 = X[:, 0], X[:, 1]
    V = x1 * x1 + x1 * x2 + x2 * x2
    r2 = x1 * x1 + x2 * x2
    raw = raw_hazard(X)
    inside = np.isfinite(raw)
    coef = np.full(X.shape[0], -E4)
    coef[inside] = np.exp(-raw[inside]) - E4
    B = coef * r2
    W = V + psi * B
    known = ~inside | (raw < RAW_EXACT_BELOW)
    return V, B, W, known


def certificate_errors(X, V, B, W, psi):
    """Worst relative error of stored V, B, W columns against the closed
    forms, each relative to its own scale; also the rows compared."""
    Vr, Br, Wr, known = certificate_columns(X, psi)
    vs = np.maximum(1.0, np.abs(Vr))
    bs = np.maximum(1.0, np.abs(Br))
    ws = np.maximum(1.0, np.abs(Vr) + psi * np.abs(Br))
    errs = {
        "V": np.abs(V - Vr)[known] / vs[known],
        "B": np.abs(B - Br)[known] / bs[known],
        "W": np.abs(W - Wr)[known] / ws[known],
    }
    return ({k: float(e.max()) if e.size else 0.0 for k, e in errs.items()},
            int(known.sum()))


def delayed_x2(ts, X, tau, hist_times, hist_states):
    """x2(t - tau) at every sample time: a stored sample when t >= tau (tau
    is a whole number of steps), else a sample of the given pre-history."""
    h = ts[1] - ts[0]
    m = int(round(tau / h))
    if abs(m * h - tau) > 1e-9 * max(1.0, tau):
        raise ValueError("tau must be a whole number of steps")
    N = ts.shape[0]
    out = np.empty(N)
    out[m:] = X[: max(N - m, 0), 1]
    pre_t = ts[: min(m, N)] - tau
    hist_times = np.asarray(hist_times, dtype=float)
    hist_states = np.asarray(hist_states, dtype=float)
    if hist_times.shape[0] == 1:
        out[: pre_t.shape[0]] = hist_states[0, 1]
    else:
        k = np.searchsorted(hist_times, pre_t - 1e-9)
        k = np.minimum(k, hist_times.shape[0] - 1)
        if np.any(np.abs(hist_times[k] - pre_t) > 1e-9):
            raise ValueError("pre-history has no sample at a delayed time")
        out[: pre_t.shape[0]] = hist_states[k, 1]
    return out


def plant_residuals(ts, X, U, tau, hist_times, hist_states):
    """Simpson-rule residual of the plant equation over each pair of steps,
    relative to the state scale max(1, |x|) there: (N-2,)."""
    ts = np.asarray(ts, dtype=float)
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    h = ts[1] - ts[0]
    xd = delayed_x2(ts, X, tau, hist_times, hist_states)
    F = np.column_stack([X[:, 1], -friction(xd) - X[:, 0] + U])
    quad = (h / 3.0) * (F[:-2] + 4.0 * F[1:-1] + F[2:])
    inc = X[2:] - X[:-2]
    size = np.abs(X).max(axis=1)
    scale = np.maximum(1.0, np.maximum(np.maximum(size[:-2], size[1:-1]),
                                       size[2:]))
    return np.abs(inc - quad).max(axis=1) / scale


def control_sign_violations(X, U, psi):
    """Off-box samples where u * dW/dx2 is not negative although dW/dx2 is
    not negligible.  The universal feedback gives
    u q = -(a + sqrt(a^2 + lambda q^4)) < 0 whenever q != 0."""
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    off = ~in_box(X)
    q = X[:, 0] + 2.0 * X[:, 1] - 2.0 * psi * E4 * X[:, 1]
    live = off & (np.abs(q) > 1e-9 * (1.0 + np.abs(X).max(axis=1)))
    bad = live & ~(U * q < 0.0)
    return int(bad.sum()), int(live.sum())


def safety_passes(states):
    """The safety verdict from membership alone: no sample in the box with
    hazard below threshold + tolerance."""
    return bool(np.all(raw_hazard(states) >= HAZARD_THRESHOLD + SAFETY_TOL))


def construction_passes(psi):
    return bool(psi > PSI_MIN)


def comparison_solution(gamma, eta, delta, t):
    """Exact solution of v' = -gamma v + eta v(t - delta), v = 1 on
    [-delta, 0], at times t >= 0.

    For gamma > eta > 0 this solution does not increase, so it is also the
    solution of the Halanay comparison equation with the history sup: the
    sup over [t - delta, t] is v(t - delta).  Method of steps in closed
    form: on [k delta, (k+1) delta], v = c_k + e^{-gamma s} P_k(s) with
    s = t - k delta, c_k = eta c_{k-1} / gamma and
    P_k(s) = v(k delta) - c_k + eta int_0^s P_{k-1}.
    """
    t = np.asarray(t, dtype=float)
    kmax = int(np.max(t) // delta) + 1
    c_prev, P_prev = 1.0, Polynomial([0.0])
    v_start = 1.0
    pieces = []
    for _ in range(kmax + 1):
        c = eta * c_prev / gamma
        P = Polynomial([v_start - c]) + eta * P_prev.integ()
        pieces.append((c, P))
        v_start = c + math.exp(-gamma * delta) * P(delta)
        c_prev, P_prev = c, P
    k = np.minimum((t // delta).astype(int), kmax)
    out = np.empty_like(t)
    for j in np.unique(k):
        sel = k == j
        s = t[sel] - j * delta
        c, P = pieces[j]
        out[sel] = c + np.exp(-gamma * s) * P(s)
    return out


def decay_root(gamma, eta, delta):
    """Positive root of rho - gamma + eta e^{delta rho} by Newton's method
    from rho = 0.  The function is increasing and convex, so the first step
    lands right of the root and the iterates then fall monotonically."""
    rho = 0.0
    for _ in range(100):
        f = rho - gamma + eta * math.exp(delta * rho)
        step = f / (1.0 + eta * delta * math.exp(delta * rho))
        rho -= step
        if abs(step) < 1e-15 * max(1.0, rho):
            break
    return rho


def root_residual(rho, gamma, eta, delta):
    return rho - gamma + eta * math.exp(delta * rho)
