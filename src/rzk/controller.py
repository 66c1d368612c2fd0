"""Closed-form universal controller and its one closed-loop evaluation.

The feedback is kappa(lambda, a, q) with a the certificate's drift-side
activation (Lie derivative plus gain terms minus the delay-weighted history
sup) and q the input-side Lie derivative.  One formula serves the
stabilizing, safety, and combined designs; only the certificate changes.
`law` is that formula's one copy: `kappa`, the window-form `evaluate` that
the general integrator steps on (its sup on the window's own rows), and
the lockstep's per-lane stages all call it.
"""

import logging
import math
from collections import namedtuple

import numpy as np

from . import history as hist

log = logging.getLogger("rzk.controller")

# ||q|| at or below this is the dead zone, where u = 0
Q_THRESHOLD = 1e-12
_Q2_THRESHOLD = Q_THRESHOLD ** 2


class RazumikhinGains:
    """(gamma, eta, mu) with gamma > eta >= 0, mu >= 0."""

    def __init__(self, gamma, eta, mu=0.0):
        if not gamma > eta:
            raise ValueError("need gamma > eta")
        if eta < 0 or mu < 0:
            raise ValueError("need eta >= 0 and mu >= 0")
        self.gamma = float(gamma)
        self.eta = float(eta)
        self.mu = float(mu)

    def as_dict(self):
        return {"gamma": self.gamma, "eta": self.eta, "mu": self.mu}


class ControllerSpec:
    """Certificate field + gains + Sontag parameter lambda."""

    def __init__(self, certificate, gains, lam):
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.certificate = certificate
        self.gains = gains
        self.lam = float(lam)


def law(a, q2, lam):
    """The universal formula at activation a and q2 = ||q||^2: (c, margin)
    with u = c q.  Above the threshold c = -(a + r)/q2 and margin = -r,
    r = sqrt(a^2 + lambda q2^2), so a + q.u = margin.  In the dead zone c is
    None and margin = a: u is exactly zero there (not 0 q, whose zeros
    would carry the signs of q)."""
    if q2 > _Q2_THRESHOLD:
        root = math.sqrt(a * a + lam * q2 * q2)
        return -(a + root) / q2, -root
    return None, a


def kappa(lam, p, q):
    """Sontag-type formula: 0 when ||q|| is numerically zero, otherwise
    -((p + sqrt(p^2 + lambda*||q||^4)) / ||q||^2) * q."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    q = np.asarray(q, dtype=float).ravel()
    c, _ = law(p, float(q @ q), lam)
    return np.zeros_like(q) if c is None else c * q


# one closed-loop evaluation at a window head: the state derivative
# xdot = f + g u, the control u, the Lie derivatives lf = grad.f and
# q = grad^T g, the activation a and the margin a + q.u
Evaluation = namedtuple("Evaluation", "xdot u lf q a margin")


def evaluate(spec, dyn, window):
    """The closed loop at the head of window, its history sup taken on the
    window's rows: a = lf + gamma*field(x) - eta*sup and
    u = kappa(lambda, a, q).  spec None is the open loop: u = 0, xdot = f,
    and lf, q, a and the margin are not defined (None or NaN)."""
    f = dyn.f(window)
    if spec is None:
        return Evaluation(f, np.zeros(dyn.m), math.nan, None, math.nan,
                          math.nan)
    cert = spec.certificate
    G = dyn.g(window)
    vx, gr = cert.value_grad(window.latest_state.tolist())
    gr = np.array(gr)
    # an elementwise sum, not a BLAS dot, which may fuse its products: the
    # lockstep's per-lane floats form the same sum
    lf = float((gr * f).sum())
    q = (gr @ G).ravel()
    sup = hist.weighted_sup(window, cert, spec.gains.mu)
    a = lf + spec.gains.gamma * vx - spec.gains.eta * sup
    c, margin = law(a, float(q @ q), spec.lam)
    u = np.zeros_like(q) if c is None else c * q
    return Evaluation(f + G @ u, u, lf, q, a, margin)


def control(spec, dyn, window, details=None):
    """u = kappa(lambda, a, q) at the head of window.

    Closed-loop margin Lf + q.u + gamma*field - eta*sup equals
    -sqrt(a^2 + lambda*||q||^4) when ||q|| is above threshold, else a.
    If ||q|| is below threshold while a > 0 (the only way the margin is
    positive) the certificate's strict decrease condition failed at this
    window; that is reported (it falsifies the candidate certificate)
    rather than hidden.

    `details`, when given, is a dict filled with a/q/margin/flags.
    """
    ev = evaluate(spec, dyn, window)
    if ev.margin > 0:
        log.warning("certificate violation: q ~ 0 but a = %.3e > 0", ev.a)
        if details is not None:
            details["certificate_violation"] = True
    if details is not None:
        details["a"] = float(ev.a)
        details["q"] = ev.q
        details["margin"] = float(ev.margin)
    return ev.u


def scp_probe(spec, dyn, deltas, samples_per_delta=64, seed=0):
    """Small-control-property probe: max ||u|| over random windows with
    sup-norm below each delta.

    The same random window shapes (constant states and jittered histories,
    normalized into the unit sup-norm ball) are reused across deltas and
    scaled into each delta-ball, so the rows isolate the delta dependence.
    Returns a list of (delta, sup||u||) rows; decay as delta -> 0 evidences
    controller continuity at 0.
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("need a non-empty delta grid")
    rng = np.random.default_rng(seed)
    n = dyn.n
    m = 8
    shapes = []
    for _ in range(samples_per_delta):
        x0 = rng.uniform(-1.0, 1.0, size=n)
        nx = np.linalg.norm(x0)
        if nx == 0.0:
            x0[0] = 1.0
            nx = 1.0
        x0 = x0 / nx
        if rng.uniform() < 0.5:
            path = None
        else:
            path = x0 + 0.3 * rng.standard_normal((m, n)) / np.sqrt(n)
        peak = 1.0
        if path is not None:
            peak = max(peak, float(np.max(np.linalg.norm(path, axis=1))))
        scale = rng.uniform(0.2, 0.999) / peak
        shapes.append((scale * x0, None if path is None else scale * path))
    rows = []
    for d in deltas:
        worst = 0.0
        for x0, path in shapes:
            w = hist.from_constant(d * x0, dyn.delta)
            if path is not None:
                for k in range(m):
                    w.push((k + 1) * dyn.delta / m, d * path[k])
            u = control(spec, dyn, w)
            worst = max(worst, float(np.linalg.norm(u)))
        rows.append((float(d), worst))
    return rows
