"""Method-of-steps closed-loop integration.

Fixed-step classic RK4; delayed reads go through the history window, with
provisional scratch extensions so every RK stage sees a stage-consistent
history.  The feedback is recomputed at every stage.  A vectorized fast
path integrates whole batches of constant-start runs of the example plant
in lockstep; it reproduces the general path's arithmetic (same reads, same
formulas) and exists purely for speed.
"""

import numpy as np

from . import history as hist
from .system import friction

_EXAMPLE_NAME = "example"


class IntegrationSettings:
    """Step, horizon, and which certificate fields to log."""

    def __init__(self, h=1e-3, T=20.0, records=("V", "B", "W"),
                 grid=hist.DEFAULT_GRID):
        if h <= 0 or T <= 0:
            raise ValueError("need h > 0 and T > 0")
        self.h = float(h)
        self.T = float(T)
        self.records = tuple(records)
        self.grid = int(grid)


class Trajectory:
    """Uniform-step samples of a single run plus recorded certificates.

    slopes holds the closed-loop state derivative at each sample (used by
    verifiers to reconstruct history windows at full order).
    """

    def __init__(self, ts, xs, us, margins, slopes, fields, meta, ic_window,
                 diverged=False):
        self.ts = ts
        self.xs = xs
        self.us = us
        self.margins = margins
        self.slopes = slopes
        self.fields = fields          # name -> (N,) array
        self.meta = dict(meta)
        self.ic_window = ic_window
        self.diverged = diverged

    @property
    def n(self):
        return self.xs.shape[1]

    @property
    def h(self):
        return self.meta["h"]

    def final_state(self):
        return self.xs[-1]


class IntegrationDiverged(RuntimeError):
    """Raised when a state goes non-finite; carries the partial trajectory."""

    def __init__(self, trajectory, step_index):
        super().__init__(f"integration diverged at step {step_index}")
        self.trajectory = trajectory
        self.step_index = step_index


def _check_settings(dyn, settings):
    if settings.h > dyn.delta / 4.0 + 1e-15:
        raise ValueError("step must satisfy h <= Delta/4")


def _stage_eval(dyn, ctrl, window):
    """Closed-loop derivative plus controller bookkeeping at the window head."""
    x = window.latest_state
    f = dyn.f(window)
    if ctrl is None:
        u = np.zeros(dyn.m)
        a = np.nan
        margin = np.nan
        return f, u, a, margin
    G = dyn.g(window)
    gr = ctrl.certificate.grad(x)
    Lf = float(gr @ f)
    q = (gr @ G).ravel()
    vx = ctrl.certificate.value(x)
    sup = hist.weighted_sup(window, ctrl.certificate, ctrl.gains.mu, ctrl.grid)
    a = Lf + ctrl.gains.gamma * vx - ctrl.gains.eta * sup
    q2 = float(q @ q)
    if np.sqrt(q2) > ctrl.q_threshold:
        root = np.sqrt(a * a + ctrl.lam * q2 * q2)
        u = (-(a + root) / q2) * q
        margin = -root
    else:
        u = np.zeros_like(q)
        margin = a
    return f + G @ u, u, a, margin


def _record_fields(names, field_map, X):
    out = {}
    for name in names:
        fld = field_map.get(name)
        if fld is not None:
            out[name] = fld.value_many(X)
    return out


def integrate(dyn, ctrl, xi, settings, fields=None, meta=None):
    """Integrate the closed loop from the initial window xi.

    ctrl is a ControllerSpec or None (None means u == 0; margins are then
    recorded with u = 0 against ctrl_margin if supplied in meta).  fields
    maps record names to ScalarFields for logging.  Raises
    IntegrationDiverged (carrying the partial trajectory) on non-finite
    states.
    """
    _check_settings(dyn, settings)
    if not xi.span_ok():
        raise ValueError("initial window must span the delay horizon")
    fields = dict(fields or {})
    meta = dict(meta or {})
    fast = _fast_eligible(dyn, xi, settings)
    if fast:
        trajs = _lockstep_example(dyn, ctrl, [xi], settings, fields, meta)
        tr = trajs[0]
        if tr.diverged:
            # step index = first sample the integrator failed to produce
            raise IntegrationDiverged(tr, tr.xs.shape[0])
        return tr
    return _integrate_general(dyn, ctrl, xi, settings, fields, meta)


def _integrate_general(dyn, ctrl, xi, settings, fields, meta):
    h = settings.h
    nsteps = int(round(settings.T / h))
    w = xi.copy()
    n = dyn.n
    m = dyn.m
    t0 = w.latest_time
    N = nsteps + 1

    ts = np.arange(N) * h
    xs = np.empty((N, n))
    us = np.empty((N, m))
    margins = np.empty(N)
    slopes = np.empty((N, n))

    x = w.latest_state.copy()
    xs[0] = x

    def finish(count, diverged):
        rec = _record_fields(settings.records, fields, xs[:count])
        md = dict(meta)
        md.update(h=h, T=settings.T, delta=dyn.delta, grid=settings.grid)
        return Trajectory(ts[:count], xs[:count], us[:count], margins[:count],
                          slopes[:count], rec, md, xi.copy(), diverged)

    def stage(t_stage, y, slope):
        # a non-finite stage state means the step blew up mid-evaluation
        if not np.all(np.isfinite(y)):
            return None
        w.push_scratch(t_stage, y, slope)
        k, _, _, _ = _stage_eval(dyn, ctrl, w)
        w.pop_scratch()
        return k

    for i in range(nsteps + 1):
        # stage 1 doubles as the recorded sample evaluation; overwrite the
        # stored slope so the just-closed interval interpolates at full order
        k1, u, a, margin = _stage_eval(dyn, ctrl, w)
        w.ms[w.count - 1] = k1
        us[i] = u
        margins[i] = margin
        slopes[i] = k1
        if i == nsteps:
            break
        t = t0 + i * h
        k2 = stage(t + 0.5 * h, x + 0.5 * h * k1, k1)
        k3 = None if k2 is None else stage(t + 0.5 * h, x + 0.5 * h * k2, k2)
        k4 = None if k3 is None else stage(t + h, x + h * k3, k3)
        if k4 is not None:
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k4 is None or not np.all(np.isfinite(x)):
            return_traj = finish(i + 1, True)
            raise IntegrationDiverged(return_traj, i + 1)
        xs[i + 1] = x
        # provisional slope; replaced by the next stage-1 evaluation
        w.push(t + h, x, k4)
    return finish(N, False)


# ---------------------------------------------------------------------------
# lockstep fast path for the example plant


def _fast_eligible(dyn, xi, settings):
    if dyn.name != _EXAMPLE_NAME:
        return False
    if xi.const_state is None or xi.count != 1:
        return False
    tau = -min(dyn.read_points)
    if tau < settings.h:
        return False
    # all sup-grid stage reads must stay within already-accepted history
    if settings.h >= dyn.delta / (settings.grid - 1):
        return False
    return True


def _hermite_tables(offsets, h):
    """Integer row offsets and Hermite basis weights for fixed fractional
    read positions (index units relative to the current row)."""
    i0 = np.floor(offsets).astype(int)
    s = offsets - i0
    s2 = s * s
    s3 = s2 * s
    b00 = 2.0 * s3 - 3.0 * s2 + 1.0
    b10 = (s3 - 2.0 * s2 + s) * h
    b01 = -2.0 * s3 + 3.0 * s2
    b11 = (s3 - s2) * h
    return i0, b00, b10, b01, b11


def _lockstep_example(dyn, ctrl, ics, settings, fields, meta):
    """Integrate K constant-start runs of the example plant in lockstep.

    Same reads and formulas as the general path; arrays carry a lane axis.
    """
    h = settings.h
    grid = settings.grid
    nsteps = int(round(settings.T / h))
    N = nsteps + 1
    tau = -min(dyn.read_points)
    K = len(ics)
    ic = np.stack([w.const_state for w in ics])          # (K, 2)

    xs = np.empty((N, K, 2))
    ms = np.empty((N, K, 2))
    us = np.empty((N, K))
    margins = np.empty((N, K))
    xs[0] = ic

    thetas = hist.theta_grid(dyn.delta, grid)[:-1]       # exclude theta = 0
    if ctrl is not None and ctrl.gains.mu:
        wexp = np.exp(ctrl.gains.mu * thetas)[:, None]
    else:
        wexp = None

    # read tables by stage offset c (in steps): index offsets and basis
    # weights are constant because both the sample grid and the theta grid
    # are uniform.  A sup-grid read at (i + 1) h uses the c = 0 table one
    # row on, so it is the same number for stage 3 of step i and stage 0 of
    # step i + 1.  That table equals the c = 1 one bit for bit: every grid
    # offset theta/h is <= -1 here (h < delta/(grid-1)), so adding 1 and
    # taking the fractional part are exact
    gtab = {c: _hermite_tables(c + thetas / h, h) for c in (0.0, 0.5)}
    dtab = {c: _hermite_tables(np.array([c - tau / h]), h)
            for c in (0.0, 0.5, 1.0)}

    cert = ctrl.certificate if ctrl is not None else None
    lam = ctrl.lam if ctrl is not None else 0.0
    qthr2 = ctrl.q_threshold ** 2 if ctrl is not None else 0.0
    gam = ctrl.gains.gamma if ctrl is not None else 0.0
    eta = ctrl.gains.eta if ctrl is not None else 0.0

    # during the first delta+h of model time some reads reach into the
    # constant pre-history; handle those steps with masked gathers
    i_split = int(np.ceil(dyn.delta / h)) + 2

    def read_grid(r, c):
        """History states at the sup grid at time (r + c) h: (g-1, K, 2)."""
        i0, b00, b10, b01, b11 = gtab[c]
        rows = r + i0
        if r < i_split:
            safe = np.clip(rows, 0, r)
            nxt = np.minimum(safe + 1, r)
            vals = (b00[:, None, None] * xs[safe]
                    + b10[:, None, None] * ms[safe]
                    + b01[:, None, None] * xs[nxt]
                    + b11[:, None, None] * ms[nxt])
            # reads at or before t=0 return the constant initial state
            tread = (r + c) * h + thetas
            pre = tread <= 1e-15
            return np.where(pre[:, None, None], ic[None], vals)
        return (b00[:, None, None] * xs[rows]
                + b10[:, None, None] * ms[rows]
                + b01[:, None, None] * xs[rows + 1]
                + b11[:, None, None] * ms[rows + 1])

    def read_delay(i, c):
        i0, b00, b10, b01, b11 = dtab[c]
        row = i + int(i0[0])
        tread = (i + c) * h - tau
        if tread <= 1e-15:
            return ic[:, 1]
        row = max(row, 0)
        nxt = min(row + 1, i)
        return (b00[0] * xs[row, :, 1] + b10[0] * ms[row, :, 1]
                + b01[0] * xs[nxt, :, 1] + b11[0] * ms[nxt, :, 1])

    def stage(i, c, S, fric=None, gmax=None):
        """Closed-loop derivative, control and margin at the stage states
        S (K, 2) of stage offset c in step i, plus the delayed friction and
        the weighted sup-grid max, which a stage at the same read time can
        pass back in rather than recompute."""
        if fric is None:
            fric = friction(read_delay(i, c))
        f1 = S[:, 1]
        f2 = -fric - S[:, 0]
        if cert is None:
            return (np.stack([f1, f2], axis=1), np.zeros(K), np.full(K, np.nan),
                    fric, None)
        if gmax is None:
            # one field call for the grid reads and the stage states
            flat = read_grid(i + int(c), c % 1.0).reshape(-1, 2)
            vall = cert.value_many(np.concatenate([flat, S], axis=0))
            gv = vall[: flat.shape[0]].reshape(-1, K)
            v0 = vall[flat.shape[0]:]
            if wexp is not None:
                gv = gv * wexp
            gmax = gv.max(axis=0)
        else:
            v0 = cert.value_many(S)
        sup = np.maximum(gmax, v0)                        # theta = 0 included
        gr = cert.grad_many(S)                            # (K, 2)
        Lf = gr[:, 0] * f1 + gr[:, 1] * f2
        q = gr[:, 1]                                      # g = (0, 1)
        a = Lf + gam * v0 - eta * sup
        q2 = q * q
        act = q2 > qthr2
        root = np.sqrt(a * a + lam * q2 * q2)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_on = -(a + root) / q2 * q
        u = np.where(act, u_on, 0.0)
        margin = np.where(act, -root, a)
        return np.stack([f1, f2 + u], axis=1), u, margin, fric, gmax

    x = ic.copy()
    g_end = None      # grid max at t_i, from stage 3 of the previous step
    for i in range(nsteps + 1):
        k1, u, margin, _, _ = stage(i, 0.0, x, gmax=g_end)
        ms[i] = k1
        us[i] = u
        margins[i] = margin
        if i == nsteps:
            break
        k2, _, _, fric, g_mid = stage(i, 0.5, x + 0.5 * h * k1)
        k3, _, _, _, _ = stage(i, 0.5, x + 0.5 * h * k2, fric, g_mid)
        k4, _, _, _, g_end = stage(i, 1.0, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        xs[i + 1] = x

    ts = np.arange(N) * h
    out = []
    md = dict(meta)
    md.update(h=h, T=settings.T, delta=dyn.delta, grid=grid)
    for k in range(K):
        lane_ok = np.isfinite(xs[:, k, :]).all()
        if lane_ok:
            cut = N
        else:
            bad = np.argmax(~np.isfinite(xs[:, k, :]).all(axis=1))
            cut = int(bad)
        rec = _record_fields(settings.records, fields, xs[:cut, k, :])
        out.append(Trajectory(ts[:cut], xs[:cut, k, :].copy(),
                              us[:cut, k].reshape(-1, 1),
                              margins[:cut, k].copy(), ms[:cut, k, :].copy(),
                              rec, md, ics[k].copy(), not lane_ok))
    return out


def batch_integrate(dyn, ctrl, ics, settings, fields=None, meta=None):
    """Independent integrations from each initial window, order preserved.

    Diverged members come back as truncated trajectories with
    .diverged = True rather than raising.  Constant-start batches of the
    example plant run in lockstep (bit-for-bit deterministic either way).
    """
    fields = dict(fields or {})
    meta = dict(meta or {})
    ics = list(ics)
    if not ics:
        return []
    _check_settings(dyn, settings)
    if all(_fast_eligible(dyn, w, settings) for w in ics):
        return _lockstep_example(dyn, ctrl, ics, settings, fields, meta)
    out = []
    for w in ics:
        try:
            out.append(integrate(dyn, ctrl, w, settings, fields, meta))
        except IntegrationDiverged as e:
            out.append(e.trajectory)
    return out


def convergence_study(dyn, ctrl, xi, T, h_list, fields=None, grid=hist.DEFAULT_GRID):
    """Step-halving study: integrate at each h, report final states and the
    empirical order slope between successive refinements.

    slope between (h1, h2): log(|x_{h1}(T) - x_{h2}(T)| / |x_{h2}(T) - x_{h3}(T)|)
    scaled by log(h1/h2); order-4 integration gives slopes near 4.
    """
    h_list = sorted(h_list, reverse=True)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
    finals = []
    max_margins = []
    for h in h_list:
        s = IntegrationSettings(h=h, T=T, records=(), grid=grid)
        tr = integrate(dyn, ctrl, xi, s, fields=fields or {})
        finals.append(tr.final_state())
        max_margins.append(float(np.max(tr.margins)) if ctrl is not None
                           else float("nan"))
    diffs = [float(np.linalg.norm(finals[i] - finals[i + 1]))
             for i in range(len(finals) - 1)]
    slopes = []
    for i in range(len(diffs) - 1):
        ratio = diffs[i] / diffs[i + 1]
        slopes.append(float(np.log(ratio) / np.log(h_list[i] / h_list[i + 1])))
    return {"h": h_list, "finals": finals, "diffs": diffs, "slopes": slopes,
            "max_margins": max_margins}
