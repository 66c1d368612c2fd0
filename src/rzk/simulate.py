"""Method-of-steps closed-loop integration.

Fixed-step classic RK4; delayed reads go through the history window, with
provisional scratch extensions so every RK stage sees a stage-consistent
history.  The feedback is recomputed at every stage.  A fast path
integrates whole batches of constant-start runs of the example plant in
lockstep; it reproduces the general path's arithmetic (same reads, same
formulas) and exists purely for speed.  Its history reads stay vectorized
over lanes and blocks of steps, while each RK stage runs per lane in plain
floats on the certificate's per-point form, so a lane's result does not
depend on the other lanes.
"""

import math
from collections import namedtuple

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


# the weighted history sup sup_theta e^{mu theta} field(x(t + theta)) at
# every sample, as the integrator computed it, with the field object, mu and
# sup-grid size it was computed for; values is a read-only (N,) array
HistorySup = namedtuple("HistorySup", "field mu grid values")


class Trajectory:
    """Uniform-step samples of a single run plus recorded certificates.

    slopes holds the closed-loop state derivative at each sample (used by
    verifiers to reconstruct history windows at full order).  history_sup
    is a HistorySup or None: the lockstep records the controller's weighted
    history sup on every lane that did not diverge and has no NaN margin,
    so that verify.field_sup_series need not rebuild the windows; other
    runs and trajectories read back from CSV carry None.
    """

    def __init__(self, ts, xs, us, margins, slopes, fields, meta, ic_window,
                 diverged=False, history_sup=None):
        self.ts = ts
        self.xs = xs
        self.us = us
        self.margins = margins
        self.slopes = slopes
        self.fields = fields          # name -> (N,) array
        self.meta = dict(meta)
        self.ic_window = ic_window
        self.diverged = diverged
        self.history_sup = history_sup

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
    vx, gr = ctrl.certificate.value_grad(x.tolist())
    gr = np.array(gr)
    Lf = float(gr @ f)
    q = (gr @ G).ravel()
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


def _lockstep_example(dyn, ctrl, ics, settings, fields, meta):
    """Integrate K constant-start runs of the example plant in lockstep.

    Same reads and formulas as the general path.  History reads are done
    in blocks of L steps on arrays with a lane axis, each block as soon as
    every row its reads touch is final; the RK stages run lane by lane in
    floats, and the xs/ms/us/margins rows are written every step, with
    the weighted history sup of each sample's first stage.
    """
    h = settings.h
    grid = settings.grid
    nsteps = int(round(settings.T / h))
    N = nsteps + 1
    tau = -min(dyn.read_points)
    K = len(ics)
    ic = np.stack([w.const_state for w in ics])          # (K, 2)

    # NaN until written, so a read of a row that is not final yet shows
    xs = np.full((N, K, 2), np.nan)
    ms = np.full((N, K, 2), np.nan)
    us = np.empty((N, K))
    margins = np.empty((N, K))
    sups = np.empty((N, K))
    xs[0] = ic

    thetas = hist.theta_grid(dyn.delta, grid)[:-1]       # exclude theta = 0
    if ctrl is not None and ctrl.gains.mu:
        wexp = np.exp(ctrl.gains.mu * thetas)[:, None]
    else:
        wexp = None

    # read tables by stage offset c (in steps): index offsets and basis
    # weights are constant because both the sample grid and the theta grid
    # are uniform.  Stages 1 and 2 share the reads at t_i + h/2; stage 3 of
    # step i and stage 0 of step i + 1 share those at t_{i+1}.  The sup grid
    # reads the latter through the c = 0 table one row on, which equals the
    # c = 1 table bit for bit: every grid offset theta/h is <= -1 here
    # (h < delta/(grid-1)), so adding 1 and taking the fractional part are
    # exact.  The same holds for the delayed read's c = 1 table against
    # c = 0, since tau >= h.
    gc = np.array([0.5, 0.0])
    gi0, *gb = hist.hermite_tables(gc[:, None] + thetas / h, h)  # (2, g-1)
    gb = np.stack(gb)                                     # (4, 2, g-1)
    di0, *db = hist.hermite_tables(np.array([0.5, 1.0]) - tau / h, h)
    db = np.stack(db)                                     # (4, 2)

    # the reads of step i touch rows up to i + top (the delayed read's
    # next row is clamped to i); after stage 0 of step r rows 0..r are
    # final, so the reads of steps r .. r + L - 1 can all be made then
    top = max(gi0[0].max() + 1, gi0[1].max() + 2, min(di0.max() + 1, 0))
    L = 1 - int(top)

    cert = ctrl.certificate if ctrl is not None else None
    lam = ctrl.lam if ctrl is not None else 0.0
    qthr2 = ctrl.q_threshold ** 2 if ctrl is not None else 0.0
    gam = ctrl.gains.gamma if ctrl is not None else 0.0
    eta = ctrl.gains.eta if ctrl is not None else 0.0

    # during the first delta+h of model time some reads reach into the
    # constant pre-history; handle those blocks with masked gathers
    i_split = int(np.ceil(dyn.delta / h)) + 2

    def gather(rows, nxt, b):
        """Hermite reads between rows and nxt; b holds the four basis
        weights, each broadcast against xs[rows]."""
        return (b[0] * xs[rows] + b[1] * ms[rows]
                + b[2] * xs[nxt] + b[3] * ms[nxt])

    def grid_max(base, t):
        """Weighted sup-grid max at the times (base + gc[t]) h, through the
        tables t (T,) at rows base (T, n): (T, n, K); zero without a
        certificate, since nothing reads it then."""
        if cert is None:
            return np.zeros(base.shape + (K,))
        rows = base[..., None] + gi0[t][:, None, :]       # (T, n, g-1)
        b = gb[:, t, None, :, None, None]
        if base.min() < i_split:
            R = base[..., None]
            safe = np.clip(rows, 0, R)
            states = gather(safe, np.minimum(safe + 1, R), b)
            # reads at or before t=0 return the constant initial state
            tread = (base + gc[t][:, None])[..., None] * h + thetas
            states = np.where((tread <= 1e-15)[..., None, None], ic, states)
        else:
            states = gather(rows, rows + 1, b)
        gv = cert.value_many(states.reshape(-1, 2)).reshape(states.shape[:-1])
        if wexp is not None:
            gv = gv * wexp
        return gv.max(axis=-2)

    def friction_reads(steps):
        """Delayed friction at t_i + h/2 and t_{i+1} for the steps i:
        (2, n, K)."""
        rows = np.maximum(steps + di0[:, None], 0)        # (2, n)
        nxt = np.minimum(rows + 1, steps)
        v = gather(rows, nxt, db[:, :, None, None, None])[..., 1]
        tread = (steps + np.array([0.5, 1.0])[:, None]) * h - tau
        return friction(np.where((tread <= 1e-15)[..., None], ic[:, 1], v))

    vg = cert.value_grad if cert is not None else None
    hh = 0.5 * h
    h6 = h / 6.0

    def stage(s0, s1, fric, gmax):
        """Closed-loop derivative (k0, k1), control, margin and weighted
        history sup of one lane at the stage state (s0, s1), given its
        delayed friction and weighted sup-grid max at the stage's read
        time."""
        f2 = -fric - s0
        if vg is None:
            return s1, f2, 0.0, math.nan, math.nan
        v0, (g0, q) = vg((s0, s1))
        # theta = 0 included; a NaN grid max stays NaN, as in np.maximum
        sup = v0 if v0 > gmax else gmax
        a = g0 * s1 + q * f2 + gam * v0 - eta * sup       # g = (0, 1)
        q2 = q * q
        if q2 > qthr2:
            root = math.sqrt(a * a + lam * q2 * q2)
            u = -(a + root) / q2 * q
            return s1, f2 + u, u, -root, sup
        return s1, f2 + 0.0, 0.0, a, sup

    # per-lane state and the stage-0 reads at t_i, which are those of
    # stage 3 of the previous step
    x = ic.tolist()
    f_end = friction(ic[:, 1]).tolist()
    g_end = grid_max(np.zeros((1, 1), int), [1])[0, 0].tolist()
    lanes = range(K)
    for i in range(nsteps + 1):
        k1 = [stage(x[k][0], x[k][1], f_end[k], g_end[k]) for k in lanes]
        ms[i] = [r[:2] for r in k1]
        us[i] = [r[2] for r in k1]
        margins[i] = [r[3] for r in k1]
        sups[i] = [r[4] for r in k1]
        if i == nsteps:
            break
        j = i % L
        if j == 0:
            steps = i + np.arange(min(L, nsteps - i))
            fr = friction_reads(steps).tolist()
            gm = grid_max(np.stack([steps, steps + 1]), [0, 1]).tolist()
        f_mid, g_mid = fr[0][j], gm[0][j]
        f_end, g_end = fr[1][j], gm[1][j]
        for k in lanes:
            x0, x1 = x[k]
            a0, a1 = k1[k][:2]
            b0, b1, _, _, _ = stage(x0 + hh * a0, x1 + hh * a1, f_mid[k],
                                    g_mid[k])
            c0, c1, _, _, _ = stage(x0 + hh * b0, x1 + hh * b1, f_mid[k],
                                    g_mid[k])
            d0, d1, _, _, _ = stage(x0 + h * c0, x1 + h * c1, f_end[k],
                                    g_end[k])
            x[k] = (x0 + h6 * (a0 + 2.0 * (b0 + c0) + d0),
                    x1 + h6 * (a1 + 2.0 * (b1 + c1) + d1))
        xs[i + 1] = x

    ts = np.arange(N) * h
    out = []
    md = dict(meta)
    md.update(h=h, T=settings.T, delta=dyn.delta, grid=grid)
    sups.flags.writeable = False
    for k in range(K):
        lane_ok = np.isfinite(xs[:, k, :]).all()
        if lane_ok:
            cut = N
        else:
            bad = np.argmax(~np.isfinite(xs[:, k, :]).all(axis=1))
            cut = int(bad)
        rec = _record_fields(settings.records, fields, xs[:cut, k, :])
        # the stage's max differs from np.max only at a NaN certificate
        # value, which makes the margin NaN: such lanes record nothing
        sup = None
        if cert is not None and lane_ok and not np.isnan(margins[:, k]).any():
            sup = HistorySup(cert, ctrl.gains.mu, grid, sups[:, k])
        out.append(Trajectory(ts[:cut], xs[:cut, k, :].copy(),
                              us[:cut, k].reshape(-1, 1),
                              margins[:cut, k].copy(), ms[:cut, k, :].copy(),
                              rec, md, ics[k].copy(), not lane_ok, sup))
    return out


def batch_integrate(dyn, ctrl, ics, settings, fields=None, meta=None):
    """Independent integrations from each initial window, order preserved.

    Diverged members come back as truncated trajectories with
    .diverged = True rather than raising.  The constant starts of the
    example plant run together in one lockstep, any others on the general
    path (bit-for-bit deterministic either way).
    """
    fields = dict(fields or {})
    meta = dict(meta or {})
    ics = list(ics)
    if not ics:
        return []
    _check_settings(dyn, settings)
    out = [None] * len(ics)
    fast = [k for k, w in enumerate(ics) if _fast_eligible(dyn, w, settings)]
    if fast:
        trajs = _lockstep_example(dyn, ctrl, [ics[k] for k in fast], settings,
                                  fields, meta)
        for k, tr in zip(fast, trajs):
            out[k] = tr
    for k, w in enumerate(ics):
        if out[k] is None:
            try:
                out[k] = integrate(dyn, ctrl, w, settings, fields, meta)
            except IntegrationDiverged as e:
                out[k] = e.trajectory
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
