"""Method-of-steps closed-loop integration.

`batch_integrate(dyn, ctrl, ics, settings)` is the one entry: it checks the
settings and every initial window, then picks a path once for the whole
batch; `integrate` is its one-start form.  Trajectories carry states,
inputs, margins and slopes; callers evaluate the certificate fields they
need on `Trajectory.xs`.

Fixed-step classic RK4; delayed reads go through the history window, with
provisional scratch extensions so every RK stage sees a stage-consistent
history.  The feedback is recomputed at every stage.  A fast path
integrates whole batches of runs of the example plant in lockstep, from
constant and sampled initial windows alike; it reproduces the general
path's arithmetic (same reads, same formulas) and exists purely for
speed.  Its history reads stay vectorized over lanes and blocks of steps,
reads at t <= 0 going through each lane's own initial window, while each
RK stage runs per lane in plain floats on the certificate's per-point
form, so a lane's result does not depend on the other lanes.  Other
plants, tau < h and sup grids spaced no wider than h still take the
general path.  Both paths take the feedback from `controller`: the
general path steps on `controller.evaluate`, the lockstep's stages on
`controller.law`, and both read the history sup on the run's grid,
`IntegrationSettings.grid`.
"""

import math
from collections import namedtuple

import numpy as np

from . import history as hist
from .controller import evaluate, law
from .system import ExampleDynamics, friction


class IntegrationSettings:
    """Step, horizon and the number of theta points of the controller's
    history sup grid."""

    def __init__(self, h=1e-3, T=20.0, grid=hist.DEFAULT_GRID):
        if h <= 0 or T <= 0:
            raise ValueError("need h > 0 and T > 0")
        if int(grid) < 2:
            raise ValueError("need grid >= 2")
        self.h = float(h)
        self.T = float(T)
        self.grid = int(grid)


# the weighted history sup sup_theta e^{mu theta} field(x(t + theta)) at
# every sample, as the integrator computed it on the run's grid
# (meta["grid"]), with the field object and mu it was computed for; values
# is a read-only (N,) array
HistorySup = namedtuple("HistorySup", "field mu values")


class Trajectory:
    """Uniform-step samples of a single run.

    slopes holds the closed-loop state derivative at each sample (used by
    verifiers to reconstruct history windows at full order).  history_sup
    is a HistorySup or None: the lockstep records the controller's weighted
    history sup on every constant-start lane that did not diverge and has
    no NaN margin, so that verify.field_sup_series need not rebuild the
    windows; sampled starts, other runs and trajectories read back from
    CSV carry None.
    """

    def __init__(self, ts, xs, us, margins, slopes, meta, ic_window,
                 diverged=False, history_sup=None):
        self.ts = ts
        self.xs = xs
        self.us = us
        self.margins = margins
        self.slopes = slopes
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


def batch_integrate(dyn, ctrl, ics, settings):
    """Independent integrations from each initial window, order preserved.

    ctrl is a ControllerSpec or None (None means u == 0; margins are then
    NaN).  Raises ValueError before any work if the settings or any window
    cannot serve the plant's delay horizon.  Diverged members come back as
    truncated trajectories with .diverged = True rather than raising.  The
    whole batch of the example plant, constant and sampled starts alike,
    runs in one lockstep when tau >= h and the sup grid is spaced wider
    than h; other plants and settings take the general path, start by
    start (bit-for-bit deterministic either way).
    """
    ics = list(ics)
    _check_settings(dyn, settings)
    if not all(w.span_ok() for w in ics):
        raise ValueError("initial window must span the delay horizon")
    if not ics:
        return []
    if _fast_eligible(dyn, settings):
        return _lockstep_example(dyn, ctrl, ics, settings)
    return [_integrate_general(dyn, ctrl, w, settings) for w in ics]


def integrate(dyn, ctrl, xi, settings):
    """Integrate the closed loop from the initial window xi: the one-start
    batch_integrate, except that a run going non-finite raises
    IntegrationDiverged, carrying the partial trajectory.
    """
    tr, = batch_integrate(dyn, ctrl, [xi], settings)
    if tr.diverged:
        # step index = first sample the integrator failed to produce
        raise IntegrationDiverged(tr, tr.xs.shape[0])
    return tr


def _integrate_general(dyn, ctrl, xi, settings):
    h = settings.h
    grid = settings.grid
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
        md = dict(h=h, T=settings.T, delta=dyn.delta, grid=grid)
        return Trajectory(ts[:count], xs[:count], us[:count], margins[:count],
                          slopes[:count], md, xi.copy(), diverged)

    def stage(t_stage, y, slope):
        # a non-finite stage state means the step blew up mid-evaluation
        if not np.all(np.isfinite(y)):
            return None
        w.push_scratch(t_stage, y, slope)
        k = evaluate(ctrl, dyn, w, grid).xdot
        w.pop_scratch()
        return k

    for i in range(nsteps + 1):
        # stage 1 doubles as the recorded sample evaluation; overwrite the
        # stored slope so the just-closed interval interpolates at full order
        ev = evaluate(ctrl, dyn, w, grid)
        k1 = ev.xdot
        w.ms[w.count - 1] = k1
        us[i] = ev.u
        margins[i] = ev.margin
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
            return finish(i + 1, True)
        xs[i + 1] = x
        # provisional slope; replaced by the next stage-1 evaluation
        w.push(t + h, x, k4)
    return finish(N, False)


# ---------------------------------------------------------------------------
# lockstep fast path for the example plant


def _fast_eligible(dyn, settings):
    # all sup-grid stage reads must stay within already-accepted history
    return (isinstance(dyn, ExampleDynamics) and dyn.tau >= settings.h
            and settings.h < dyn.delta / (settings.grid - 1))


def _lockstep_example(dyn, ctrl, ics, settings):
    """Integrate K runs of the example plant in lockstep, each from its own
    initial window, constant or sampled.

    Same reads and formulas as the general path.  History reads are done
    in blocks of L steps on arrays with a lane axis, each block as soon as
    every row its reads touch is final; reads at t <= 0 go through each
    lane's own initial window, whose t = 0 slope becomes the lane's k1
    after the first stage, as on the general path.  The RK stages run lane
    by lane in floats, and the xs/ms/us/margins rows are written every
    step, with the weighted history sup of each sample's first stage.
    """
    h = settings.h
    grid = settings.grid
    nsteps = int(round(settings.T / h))
    N = nsteps + 1
    tau = dyn.tau
    K = len(ics)
    wins = [w.copy() for w in ics]

    # NaN until written, so a read of a row that is not final yet shows
    xs = np.full((N, K, 2), np.nan)
    ms = np.full((N, K, 2), np.nan)
    us = np.empty((N, K))
    margins = np.empty((N, K))
    sups = np.empty((N, K))
    xs[0] = [w.latest_state for w in wins]

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
    gam = ctrl.gains.gamma if ctrl is not None else 0.0
    eta = ctrl.gains.eta if ctrl is not None else 0.0
    if cert is None:
        # nothing reads the sup grid without a certificate
        thetas, gi0, gb = thetas[:0], gi0[:, :0], gb[..., :0]

    # during the first delta+h of model time some reads reach into the
    # initial windows; handle those blocks with masked gathers
    i_split = int(np.ceil(dyn.delta / h)) + 2

    def gather(rows, nxt, b):
        """Hermite reads between rows and nxt; b holds the four basis
        weights, each broadcast against xs[rows]."""
        return (b[0] * xs[rows] + b[1] * ms[rows]
                + b[2] * xs[nxt] + b[3] * ms[nxt])

    def early(*treads):
        """The reads at or before t = 0 among the read times of each array
        in treads, through each lane's own initial window, in one
        interp_times per lane: per array, (mask, values (P, K, 2))."""
        masks = [tread <= 1e-15 for tread in treads]
        times = np.concatenate([tread[m] for tread, m in zip(treads, masks)])
        vals = np.empty((times.shape[0], K, 2))
        for k, w in enumerate(wins):
            vals[:, k] = w.interp_times(times + w.latest_time)
        out = []
        start = 0
        for m in masks:
            stop = start + np.count_nonzero(m)
            out.append((m, vals[start:stop]))
            start = stop
        return out

    def weighted_max(states):
        """Weighted sup-grid max of states (..., g-1, K, 2): (..., K); zero
        without a certificate, since nothing reads it then."""
        if cert is None:
            return np.zeros(states.shape[:-3] + (K,))
        gv = cert.value_many(states.reshape(-1, 2)).reshape(states.shape[:-1])
        if wexp is not None:
            gv = gv * wexp
        return gv.max(axis=-2)

    def block_reads(steps):
        """Delayed friction and weighted sup-grid max at t_i + h/2 and
        t_{i+1} for the steps i: two (2, n, K) arrays."""
        rows = np.maximum(steps + di0[:, None], 0)        # (2, n)
        nxt = np.minimum(rows + 1, steps)
        v = gather(rows, nxt, db[:, :, None, None, None])
        base = np.stack([steps, steps + 1])
        rows = base[..., None] + gi0[:, None, :]          # (2, n, g-1)
        b = gb[:, :, None, :, None, None]
        if steps[0] < i_split:
            R = base[..., None]
            safe = np.clip(rows, 0, R)
            states = gather(safe, np.minimum(safe + 1, R), b)
            fread = (steps + np.array([0.5, 1.0])[:, None]) * h - tau
            gread = (base + gc[:, None])[..., None] * h + thetas
            (fm, fv), (gm, gv) = early(fread, gread)
            v[fm] = fv
            states[gm] = gv
        else:
            states = gather(rows, rows + 1, b)
        return friction(v[..., 1]), weighted_max(states)

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
        c, margin = law(a, q * q, lam)
        u = 0.0 if c is None else c * q
        return s1, f2 + u, u, margin, sup

    # per-lane state and the stage-0 reads at t_i, which are those of
    # stage 3 of the previous step.  Stage 0 of step 0 reads the initial
    # windows with their stored slopes at t = 0; every later read finds
    # the lane's k1 there instead
    x = xs[0].tolist()
    (_, fv), (_, gv) = early(np.array([-tau]), thetas)
    f_end = friction(fv[0, :, 1]).tolist()
    g_end = weighted_max(gv).tolist()
    lanes = range(K)
    for i in range(nsteps + 1):
        k1 = [stage(x[k][0], x[k][1], f_end[k], g_end[k]) for k in lanes]
        ms[i] = [r[:2] for r in k1]
        if i == 0:
            for w, m in zip(wins, ms[0]):
                w.ms[w.count - 1] = m
        us[i] = [r[2] for r in k1]
        margins[i] = [r[3] for r in k1]
        sups[i] = [r[4] for r in k1]
        if i == nsteps:
            break
        j = i % L
        if j == 0:
            steps = i + np.arange(min(L, nsteps - i))
            fr, gm = (r.tolist() for r in block_reads(steps))
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
    md = dict(h=h, T=settings.T, delta=dyn.delta, grid=grid)
    sups.flags.writeable = False
    for k in range(K):
        lane_ok = np.isfinite(xs[:, k, :]).all()
        if lane_ok:
            cut = N
        else:
            bad = np.argmax(~np.isfinite(xs[:, k, :]).all(axis=1))
            cut = int(bad)
        # the stage's max differs from np.max only at a NaN certificate
        # value, which makes the margin NaN: such lanes record nothing.
        # Nor do sampled starts: the verifier reads their last pre-history
        # interval with the stored slope at t = 0, the lanes with k1
        sup = None
        if (cert is not None and lane_ok and ics[k].count == 1
                and ics[k].const_state is not None
                and not np.isnan(margins[:, k]).any()):
            sup = HistorySup(cert, ctrl.gains.mu, sups[:, k])
        out.append(Trajectory(ts[:cut], xs[:cut, k, :].copy(),
                              us[:cut, k].reshape(-1, 1),
                              margins[:cut, k].copy(), ms[:cut, k, :].copy(),
                              md, ics[k].copy(), not lane_ok, sup))
    return out


def convergence_study(dyn, ctrl, xi, T, h_list):
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
        tr = integrate(dyn, ctrl, xi, IntegrationSettings(h=h, T=T))
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
