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
plants and tau < h still take the general path.  Both paths take the
feedback from `controller`: the general path steps on
`controller.evaluate`, the lockstep's stages on `controller.law`.  Both
take the history sup on the run's own rows (see `history`): the read at
theta = -Delta, every accepted row in [t - Delta, t], the initial window's
samples included, and the stage value at theta = 0.
"""

import math

import numpy as np

from . import history as hist
from .controller import evaluate, law
from .system import ExampleDynamics, friction


class IntegrationSettings:
    """Step and horizon of a run, both finite and positive."""

    def __init__(self, h=1e-3, T=20.0):
        self.h, self.T = float(h), float(T)
        if not (0.0 < self.h < math.inf and 0.0 < self.T < math.inf):
            raise ValueError("need finite h > 0 and T > 0")


class Trajectory:
    """Uniform-step samples of a single run.

    slopes holds the closed-loop state derivative at each sample (used by
    verifiers to reconstruct history reads at full order).  The weighted
    history sup is not kept: verify.field_sup_series rebuilds it from the
    rows, for a run in memory and one read back from CSV alike.
    """

    def __init__(self, ts, xs, us, margins, slopes, meta, ic_window,
                 diverged=False):
        self.ts = ts
        self.xs = xs
        self.us = us
        self.margins = margins
        self.slopes = slopes
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


def batch_integrate(dyn, ctrl, ics, settings):
    """Independent integrations from each initial window, order preserved.

    ctrl is a ControllerSpec or None (None means u == 0; margins are then
    NaN).  Raises ValueError before any work if the settings or any window
    cannot serve the plant's delay horizon.  Diverged members come back as
    truncated trajectories with .diverged = True rather than raising.  The
    whole batch of the example plant, constant and sampled starts alike,
    runs in one lockstep when tau >= h; other plants and settings take the
    general path, start by start (bit-for-bit deterministic either way).
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
        md = dict(h=h, T=settings.T, delta=dyn.delta)
        return Trajectory(ts[:count], xs[:count], us[:count], margins[:count],
                          slopes[:count], md, xi.copy(), diverged)

    def stage(t_stage, y, slope):
        # a non-finite stage state means the step blew up mid-evaluation
        if not np.all(np.isfinite(y)):
            return None
        w.push_scratch(t_stage, y, slope)
        k = evaluate(ctrl, dyn, w).xdot
        w.pop_scratch()
        return k

    for i in range(nsteps + 1):
        # stage 1 doubles as the recorded sample evaluation; overwrite the
        # stored slope so the just-closed interval interpolates at full order
        ev = evaluate(ctrl, dyn, w)
        k1 = ev.xdot
        w.ms[w.count - 1] = k1
        us[i] = ev.u
        margins[i] = ev.margin
        slopes[i] = k1
        if i == nsteps:
            break
        # stage times and the RK sum as the lockstep forms them, so that
        # the two paths round alike
        tm, t1 = t0 + (i + 0.5) * h, t0 + (i + 1) * h
        k2 = stage(tm, x + 0.5 * h * k1, k1)
        k3 = None if k2 is None else stage(tm, x + 0.5 * h * k2, k2)
        k4 = None if k3 is None else stage(t1, x + h * k3, k3)
        if k4 is not None:
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if k4 is None or not np.all(np.isfinite(x)):
            return finish(i + 1, True)
        xs[i + 1] = x
        # provisional slope; replaced by the next stage-1 evaluation
        w.push(t1, x, k4)
    return finish(N, False)


# ---------------------------------------------------------------------------
# lockstep fast path for the example plant


def _fast_eligible(dyn, settings):
    # every stage's delayed read must stay within already-accepted history
    return isinstance(dyn, ExampleDynamics) and dyn.tau >= settings.h


def _lockstep_example(dyn, ctrl, ics, settings):
    """Integrate K runs of the example plant in lockstep, each from its own
    initial window, constant or sampled.

    Same reads and formulas as the general path.  The delayed reads and the
    sup's reads at theta = -delta are made in blocks of L steps with a lane
    axis, each block once every row it touches is final; reads at t <= 0
    go through each lane's own initial window, whose t = 0 slope becomes
    the lane's k1 after the first stage.  The sup's rows are each step's
    first-stage certificate values, weighted from `history.lag_weights`,
    and the initial windows' own samples.  The RK stages run lane by lane
    in floats; each step writes the xs/ms/us/margins rows.
    """
    h = settings.h
    nsteps = int(round(settings.T / h))
    N = nsteps + 1
    tau = dyn.tau
    delta = dyn.delta
    K = len(ics)
    wins = [w.copy() for w in ics]

    # NaN until written, so a read of a row that is not final yet shows
    xs = np.full((N, K, 2), np.nan)
    ms = np.full((N, K, 2), np.nan)
    us = np.empty((N, K))
    margins = np.empty((N, K))
    wv = np.empty((K, N))             # certificate per lane and row
    xs[0] = [w.latest_state for w in wins]

    # read tables by stage offset c (in steps past t_i): stages 1 and 2 read
    # at t_i + h/2, stage 3 of step i and stage 0 of step i + 1 at t_{i+1}.
    # Row 0 holds the delayed reads at t - tau, row 1 the sup's reads at
    # t - delta; the sample grid is uniform, so index offsets and basis
    # weights are constant.  With delta/h an integer D the read at
    # t_{i+1} - delta is row i + 1 - D itself, weights (1, 0, 0, 0)
    cs = np.array([0.5, 1.0])
    delays = np.array([tau, delta]).reshape(2, 1, 1)
    dsteps = hist.delay_steps(delta, h)
    ri0, *rb = hist.hermite_tables(np.stack([cs - tau / h, cs - dsteps]), h)
    rb = np.stack(rb)[..., None, None, None]              # (4, 2, 2, 1, 1, 1)
    # the reads of step i touch rows up to i + top (the next row of a read
    # is clamped to i); after stage 0 of step r rows 0..r are final, so the
    # reads of steps r .. r + L - 1 can all be made then
    L = 1 - min(int(ri0.max()) + 1, 0)

    cert = ctrl.certificate if ctrl is not None else None
    lam, gam, eta, mu = ((ctrl.lam, ctrl.gains.gamma, ctrl.gains.eta,
                          ctrl.gains.mu) if ctrl is not None else (0.0,) * 4)
    # the rows i - l behind the reads at t_i + h/2 and t_{i+1} have lags
    # l + 1/2 and l + 1: their weights, oldest row first
    lagw = hist.lag_weights(mu, h, dsteps)
    tabs = [lagw[1::2][::-1], lagw[2::2][::-1]]
    ew = math.exp(-mu * delta)
    if cert is not None:
        pre = [(s, cert.value_many(X)) for s, X in map(hist.pre_rows, wins)]

    def reads(t, v):
        """From the reads v (2, ..., K, 2) at t - tau and t - delta, those
        at or before t = 0 made again in each lane's initial window: the
        delayed friction at the read times t (...), and the sup's terms
        besides the run's rows, e^{-mu delta} W at theta = -delta and the
        initial windows' samples in reach (None without a certificate)."""
        tread = t - delays
        early = tread <= 1e-15
        if early.any():
            for k, w in enumerate(wins):
                # the read time as the general path's window forms it
                v[early, k] = w.interp_times(
                    ((t + w.latest_time) - delays)[early])
        fric = friction(v[0, ..., 1])
        if cert is None:
            return fric, None
        g = cert.value_many(v[1].reshape(-1, 2)).reshape(fric.shape)
        if mu:
            g = g * ew
        if t.min() < delta + hist.ROW_TOL:
            rs = [hist.row_sup(s, p, t.ravel(), delta, mu) for s, p in pre]
            g = np.maximum(g, np.stack(rs, axis=-1).reshape(g.shape))
        return fric, g

    def block_reads(steps):
        """`reads` at t_i + h/2 and t_{i+1} for the steps i: (2, n, K)."""
        rows = np.maximum(steps + ri0[..., None], 0)       # (2, 2, n)
        nxt = np.minimum(rows + 1, steps)
        return reads((steps + cs[:, None]) * h,
                     rb[0] * xs[rows] + rb[1] * ms[rows]
                     + rb[2] * xs[nxt] + rb[3] * ms[nxt])

    def row_max(i):
        """Weighted max over the rows behind the reads at t_i + h/2 and
        t_{i+1}: (2, K)."""
        out = np.empty((2, K))
        for c, w in enumerate(tabs):
            a = wv[:, max(i + 1 - w.shape[0], 0):i + 1]
            if mu:
                a = a * w[w.shape[0] - a.shape[1]:]
            a.max(axis=1, out=out[c])
        return out

    vg = cert.value_grad if cert is not None else None
    hh = 0.5 * h
    h6 = h / 6.0

    def stage(s0, s1, fric, gmax):
        """Closed-loop derivative (k0, k1), control, margin and certificate
        value of one lane at the stage state (s0, s1), given its delayed
        friction and the max of its sup terms behind theta = 0 at the
        stage's read time."""
        f2 = -fric - s0
        if vg is None:
            return s1, f2, 0.0, math.nan, math.nan
        v0, (g0, q) = vg((s0, s1))
        # theta = 0 included; a NaN history max stays NaN, as in np.maximum
        sup = v0 if v0 > gmax else gmax
        a = g0 * s1 + q * f2 + gam * v0 - eta * sup       # g = (0, 1)
        c, margin = law(a, q * q, lam)
        u = 0.0 if c is None else c * q
        return s1, f2 + u, u, margin, v0

    # per-lane state and the stage-0 reads at t_i, which are those of
    # stage 3 of the previous step.  Stage 0 of step 0 reads the initial
    # windows with their stored slopes at t = 0; every later read finds
    # the lane's k1 there instead
    x = xs[0].tolist()
    fr, far = reads(np.zeros((1, 1)), np.empty((2, 1, 1, K, 2)))
    f_end = fr[0, 0].tolist()
    g_mid = g_end = [0.0] * K if cert is None else far[0, 0].tolist()
    lanes = range(K)
    for i in range(nsteps + 1):
        k1 = [stage(x[k][0], x[k][1], f_end[k], g_end[k]) for k in lanes]
        ms[i] = [r[:2] for r in k1]
        if i == 0:
            for w, m in zip(wins, ms[0]):
                w.ms[w.count - 1] = m
        us[i] = [r[2] for r in k1]
        margins[i] = [r[3] for r in k1]
        if i == nsteps:
            break
        j = i % L
        if j == 0:
            steps = i + np.arange(min(L, nsteps - i))
            fr, far = block_reads(steps)
            fr = fr.tolist()
        f_mid, f_end = fr[0][j], fr[1][j]
        if cert is not None:
            wv[:, i] = [r[4] for r in k1]
            g_mid, g_end = np.maximum(row_max(i), far[:, j]).tolist()
        for k in lanes:
            x0, x1 = x[k]
            a0, a1 = k1[k][:2]
            b0, b1 = stage(x0 + hh * a0, x1 + hh * a1, f_mid[k],
                           g_mid[k])[:2]
            c0, c1 = stage(x0 + hh * b0, x1 + hh * b1, f_mid[k],
                           g_mid[k])[:2]
            d0, d1 = stage(x0 + h * c0, x1 + h * c1, f_end[k],
                           g_end[k])[:2]
            x[k] = (x0 + h6 * (a0 + 2.0 * (b0 + c0) + d0),
                    x1 + h6 * (a1 + 2.0 * (b1 + c1) + d1))
        xs[i + 1] = x

    ts = np.arange(N) * h
    out = []
    md = dict(h=h, T=settings.T, delta=delta)
    for k in range(K):
        finite = np.isfinite(xs[:, k, :]).all(axis=1)
        lane_ok = bool(finite.all())
        cut = N if lane_ok else int(np.argmax(~finite))
        out.append(Trajectory(ts[:cut], xs[:cut, k, :].copy(),
                              us[:cut, k].reshape(-1, 1),
                              margins[:cut, k].copy(), ms[:cut, k, :].copy(),
                              md, ics[k].copy(), not lane_ok))
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
