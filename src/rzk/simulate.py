"""Method-of-steps closed-loop integration.

`batch_integrate(dyn, ctrl, ics, settings)` is the one entry: it checks the
plant, the settings and every initial window, then integrates the whole
batch of runs of the example plant in one lockstep, at tau = 0 or tau >= h,
each run under one controller for all or its own; `integrate` is its
one-start form.  Trajectories carry states, inputs, margins and slopes;
callers evaluate the certificate fields they need on `Trajectory.xs`.

Fixed-step classic RK4, the feedback recomputed at every stage.  The
lockstep's history reads are vectorized over lanes and blocks of steps,
reads at t <= 0 going through each lane's own initial window, constant or
sampled, while each RK stage runs per lane in plain floats on its
certificate's per-point form and `controller.law`, so a lane's result does
not depend on the other lanes.  A lane holds only the rows its reads still
reach, in a ring, and hands its final rows on in blocks of
BLOCK_LANE_ROWS lane-rows: to a sink that takes them as they come, or
joined into one Trajectory per run.
Each lane takes the sup's rows as a running max over anchored blocks, in
O(1) per lane and step at any mu.  The history sup is taken on the run's
own rows (see `history`): the read at theta = -Delta, every accepted row
in [t - Delta, t], the initial window's samples included, and the stage
value at theta = 0.  `_integrate_general` is the tests' reference
integrator.
"""

import math

import numpy as np

from . import history as hist
from .controller import evaluate, law
from .system import ExampleDynamics, friction


class IntegrationSettings:
    """Step and horizon of a run, both finite and positive, the horizon at
    least one step."""

    def __init__(self, h=1e-3, T=20.0):
        self.h, self.T = float(h), float(T)
        if not (0.0 < self.h < math.inf and 0.0 < self.T < math.inf):
            raise ValueError("need finite h > 0 and T > 0")
        if self.T < self.h:
            raise ValueError("need T >= h: a run takes at least one step")


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


def _joined(blocks):
    """One run from its blocks of rows, in order."""
    if len(blocks) == 1:
        return blocks[0]

    def cat(name):
        return np.concatenate([getattr(b, name) for b in blocks])
    return Trajectory(cat("ts"), cat("xs"), cat("us"), cat("margins"),
                      cat("slopes"), blocks[0].meta, blocks[0].ic_window,
                      blocks[-1].diverged)


class IntegrationDiverged(RuntimeError):
    """Raised when a state goes non-finite; carries the partial trajectory."""

    def __init__(self, trajectory, step_index):
        super().__init__(f"integration diverged at step {step_index}")
        self.trajectory = trajectory
        self.step_index = step_index


# the largest mu * delta: every weight e^{-mu lag}, |lag| <= delta, of the
# history sup (`history.sup_blocks`) is then a finite normal float
MU_DELTA_MAX = 700.0


def _check_settings(dyn, settings, mu=0.0):
    if mu * dyn.delta > MU_DELTA_MAX:
        raise ValueError(f"need mu * delta <= {MU_DELTA_MAX:g}: the history "
                         "sup weighs its rows by up to e^(mu delta)")
    if settings.h > dyn.delta / 4.0 + 1e-15:
        raise ValueError("step must satisfy h <= Delta/4")
    if 0.0 < dyn.tau < settings.h:
        raise ValueError("need tau = 0 or tau >= h: a delayed read at "
                         "0 < tau < h falls inside the step being taken")


def batch_integrate(dyn, ctrl, ics, settings, sink=None):
    """Independent integrations from each initial window, order preserved.

    dyn is an ExampleDynamics (TypeError otherwise); ctrl is a
    ControllerSpec or None for every start (None means u == 0; margins are
    then NaN), or a list of one of them per start, which must share mu and
    be all controlled or all open-loop.  Raises ValueError before any work
    if the controllers do not fit the starts, or the settings, mu (see
    MU_DELTA_MAX) or any window cannot serve the plant's delays.  Diverged
    members come back as truncated trajectories with .diverged = True
    rather than raising.  The whole batch, constant and sampled starts
    alike, runs in one lockstep.

    With a sink, sink(k, block) takes the rows of run k as they become
    final, a Trajectory block at a time, in order (see
    `_lockstep_example`), and nothing is returned.
    """
    if not isinstance(dyn, ExampleDynamics):
        raise TypeError("batch_integrate integrates the example plant only, "
                        f"not {type(dyn).__name__}")
    ics = list(ics)
    ctrl = _lane_controllers(ctrl, len(ics))
    _check_settings(dyn, settings, max(
        (c.gains.mu for c in ctrl if c is not None), default=0.0))
    if not all(w.span_ok() for w in ics):
        raise ValueError("initial window must span the delay horizon")
    if not ics:
        return None if sink else []
    return _lockstep_example(dyn, ctrl, ics, settings, sink)


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
    """Reference integrator for any DelayDynamics, not called by the
    package: each RK stage is `controller.evaluate` on the window with the
    stage pushed as a provisional sample."""
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
# the lockstep engine for the example plant

# lane-rows a lockstep holds in floats before it writes them to its ring
ROW_FLUSH = 128
# lane-rows per block a lockstep hands on, so that a block's memory does
# not grow with the lanes either: 4096 rows at the demo's 4 lanes
BLOCK_LANE_ROWS = 16384


def _lane_controllers(ctrl, K):
    """ctrl as one controller per lane of K: a list or tuple gives each lane
    its own, anything else (a ControllerSpec or None) serves every lane.
    ValueError unless there is one per lane, the lanes share mu and they
    are all controlled or all open-loop."""
    ctrls = list(ctrl) if isinstance(ctrl, (list, tuple)) else [ctrl] * K
    if len(ctrls) != K:
        raise ValueError(f"need one controller per lane, got {len(ctrls)} "
                         f"for {K} lanes")
    closed = [c is not None for c in ctrls]
    if any(closed) and not all(closed):
        raise ValueError("lanes must be all controlled or all open-loop")
    if len({c.gains.mu for c in ctrls if c is not None}) > 1:
        raise ValueError("lanes must share mu")
    return ctrls


def _lockstep_example(dyn, ctrl, ics, settings, sink=None):
    """Integrate K runs of the example plant in lockstep, each from its own
    initial window, constant or sampled, and under its own controller.

    ctrl is one controller for every lane or a list of one per lane (see
    `_lane_controllers`); the lanes share mu and are all controlled or all
    open-loop.  Same reads and formulas as `_integrate_general`.  The
    delayed reads and the sup's reads at theta = -delta are made in blocks
    of L steps with a lane axis, each block once every row it touches is
    final, one field call per distinct certificate; reads at t <= 0 go
    through each lane's own initial window, whose t = 0 slope becomes the
    lane's k1 after the first stage.  The sup's rows are each step's
    first-stage certificate values and the initial windows' own samples,
    each under the lane's own certificate, weighted from
    `history.lag_weights`.  The RK stages run lane by lane in floats,
    through one stage closure per distinct controller; a lane's first
    stage of step i + 1 closes its step i, and its row goes into a float
    buffer that is written every few rows, and before each block of reads,
    to a ring of the (state, slope, input, margin) rows the reads still
    reach and to the block of rows being handed on.  `history.LaneWindowMax` takes the
    weighted max over the rows behind each lane's read times, in anchored
    blocks at any mu, in one pass over the lanes per step.

    Every BLOCK_LANE_ROWS // K rows, and at the end, sink(k, block) takes
    lane k's block as a Trajectory of views into the block, which is not
    written again.  A lane's rows end before its first non-finite state:
    that block is its last, with .diverged = True (and no rows when the
    previous block ended just before it).  Without a sink the blocks are
    joined into one Trajectory per lane, and the list is returned.
    """
    parts = None
    if sink is None:
        parts = [[] for _ in ics]

        def sink(k, block):
            parts[k].append(block)
    h = settings.h
    nsteps = int(round(settings.T / h))
    N = nsteps + 1
    tau = dyn.tau
    delta = dyn.delta
    K = len(ics)
    ctrls = _lane_controllers(ctrl, K)
    wins = [w.copy() for w in ics]

    # read tables by stage offset c (in steps past t_i): stages 1 and 2 read
    # at t_i + h/2, stage 3 of step i and stage 0 of step i + 1 at t_{i+1}.
    # Row 0 holds the delayed reads at t - tau, row 1 the sup's reads at
    # t - delta; the sample grid is uniform, so index offsets and basis
    # weights are constant.  With delta/h an integer D the read at
    # t_{i+1} - delta is row i + 1 - D itself, weights (1, 0, 0, 0).
    # At tau = 0 the friction reads the stage's own x2 (see `lane_stage`),
    # so row 0 is aimed at t - delta too, where every row it touches is
    # final
    cs = np.array([0.5, 1.0])
    delays = np.array([tau or delta, delta]).reshape(2, 1, 1)
    dsteps = hist.delay_steps(delta, h)
    ri0, *rb = hist.hermite_tables(np.stack([cs - (tau / h if tau else dsteps),
                                             cs - dsteps]), h)
    rb = np.stack(rb)[..., None, None, None]              # (4, 2, 2, 1, 1, 1)
    # the reads of step i touch rows up to i + top (the next row of a read
    # is clamped to i); after stage 0 of step r rows 0..r are final, so the
    # reads of steps r .. r + L - 1 can all be made then
    L = 1 - min(int(ri0.max()) + 1, 0)
    # per lane the state, its k1, the input and the margin of the rows those
    # reads reach, row r at r % R: the reads made at step r reach back to
    # row r + min(ri0)
    R = 1 - int(ri0.min())
    ring = np.full((R, K, 6), np.nan)
    xs, ms = ring[..., :2], ring[..., 2:4]

    closed = ctrls[0] is not None
    mu = ctrls[0].gains.mu if closed else 0.0

    def lane_certs(keep):
        """Each distinct certificate with its lanes among keep, all K of them
        as a slice."""
        lanes_of = {}
        for k in keep:
            c = ctrls[k].certificate
            lanes_of.setdefault(id(c), (c, []))[1].append(k)
        return [(cert, slice(None) if len(ks) == K else np.array(ks))
                for cert, ks in lanes_of.values()]

    if closed:
        certs = lane_certs(range(K))
        pre = [(s, c.certificate.value_many(X))
               for c, (s, X) in zip(ctrls, map(hist.pre_rows, wins))]
        wmax = hist.LaneWindowMax(*hist.sup_blocks(mu, delta, h), K)

    def reads(t, v):
        """From the reads v (2, ..., K, 2) at t - tau and t - delta, those
        at or before t = 0 made again in each lane's initial window: the
        delayed friction at the read times t (...), and the sup's terms
        besides the run's rows, e^{-mu delta} W at theta = -delta and the
        initial windows' samples in reach (None without a certificate).
        A dropped lane's terms are NaN, without a certificate call."""
        tread = t - delays
        early = tread <= hist.EARLY_TOL
        if early.any():
            for k, w in enumerate(wins):
                # the read time as the reference's window forms it
                v[early, k] = w.interp_times(
                    ((t + w.latest_time) - delays)[early])
        fric = friction(v[0, ..., 1])
        if not closed:
            return fric, None
        g = np.full(fric.shape, np.nan)
        for cert, ks in certs:
            vk = v[1][..., ks, :]
            g[..., ks] = cert.value_many(vk.reshape(-1, 2)).reshape(
                vk.shape[:-1])
        g = g * hist.lag_weights(mu, delta)
        if t.min() < delta + hist.ROW_TOL:
            rs = [hist.row_sup(s, p, t.ravel(), delta, mu) for s, p in pre]
            g = np.maximum(g, np.stack(rs, axis=-1).reshape(g.shape))
        return fric, g

    def block_reads(steps):
        """`reads` at t_i + h/2 and t_{i+1} for the steps i: (2, n, K)."""
        rows = np.maximum(steps + ri0[..., None], 0)       # (2, 2, n)
        nxt = np.minimum(rows + 1, steps)
        rows %= R
        nxt %= R
        return reads((steps + cs[:, None]) * h,
                     hist.hermite_rows(rb, xs, ms, rows, nxt))

    hh = 0.5 * h
    h6 = h / 6.0

    def lane_stage(c):
        """The RK stage of the lanes under controller c: closed-loop
        derivative (k0, k1), control, margin and certificate value of one
        lane at the stage state (s0, s1), given its delayed friction and
        the max of its sup terms behind theta = 0 at the stage's read
        time."""
        if c is None:
            def stage(s0, s1, fric, gmax):
                return s1, -fric - s0, 0.0, math.nan, math.nan
        else:
            vg, lam = c.certificate.value_grad, c.lam
            gam, eta = c.gains.gamma, c.gains.eta

            def stage(s0, s1, fric, gmax):
                f2 = -fric - s0
                v0, g0, q = vg(s0, s1)
                # theta = 0 included; a NaN history max stays NaN, as in
                # np.maximum
                sup = v0 if v0 > gmax else gmax
                a = g0 * s1 + q * f2 + gam * v0 - eta * sup   # g = (0, 1)
                cu, margin = law(a, q * q, lam)
                u = 0.0 if cu is None else cu * q
                return s1, f2 + u, u, margin, v0
        if tau:
            return stage

        def own(s0, s1, fric, gmax):
            # the friction of the stage's own x2, which the reference's
            # read at the latest time returns exactly (weights (0, 0, 1, 0))
            return stage(s0, s1, friction(s1), gmax)
        return own

    made = {}
    for c in ctrls:
        if id(c) not in made:
            made[id(c)] = lane_stage(c)
    stages = [made[id(c)] for c in ctrls]

    def cut_stage(s0, s1, fric, gmax):
        # a lane past its first non-finite state calls no certificate
        return (math.nan,) * 5

    def drop(k):
        """Lane k past its first non-finite state: from now on it takes
        `cut_stage`, and the block reads evaluate no certificate on it."""
        stages[k] = cut_stage
        if closed:
            certs[:] = lane_certs(
                [q for q in range(K) if stages[q] is not cut_stage])

    # the block of rows first .. being handed on, and what each lane's
    # blocks carry
    md = dict(h=h, T=settings.T, delta=delta)
    ic_windows = [w.copy() for w in ics]
    live = list(range(K))
    B = max(1, BLOCK_LANE_ROWS // K)
    block = np.empty((min(B, N), K, 6))
    first = 0

    def write(buf, start, stop):
        """The rows start .. stop - 1 from the buffer buf into the ring and
        the block, emptying buf."""
        rows = np.array(buf).reshape(stop - start, K, 7)[..., :6]
        buf.clear()
        block[start - first:stop - first] = rows
        p = start % R
        q = min(R - p, stop - start)
        ring[p:p + q] = rows[:q]
        ring[:stop - start - q] = rows[q:]

    def hand_on(stop):
        """The rows first .. stop - 1 of each live lane to the sink, cut
        before a lane's first non-finite state, which is dropped from
        then on; a fresh block for the rows after."""
        nonlocal block, first
        n = stop - first
        ts = (first + np.arange(n)) * h
        for k in list(live):
            x = block[:n, k, :2]
            bad = ~np.isfinite(x).all(axis=1)
            cut = int(np.argmax(bad)) if bad.any() else n
            if cut < n:
                live.remove(k)
                drop(k)
            sink(k, Trajectory(ts[:cut], x[:cut], block[:cut, k, 4:5],
                               block[:cut, k, 5], block[:cut, k, 2:4], md,
                               ic_windows[k], cut < n))
        # the sink keeps no view of the block, unless it collects: the
        # last one goes before the next is made
        first, block = stop, None
        block = np.empty((min(B, N - stop), K, 6))

    # per-lane state and the stage-0 reads at t_i, which are those of
    # stage 3 of the previous step.  Stage 0 of step 0 reads the initial
    # windows with their stored slopes at t = 0; every later read finds
    # the lane's k1 there instead
    x = [tuple(w.latest_state.tolist()) for w in wins]
    fr, far = reads(np.zeros((1, 1)), np.empty((2, 1, 1, K, 2)))
    f_end = fr[0, 0].tolist()
    g_mid = g_end = [0.0] * K if far is None else far[0, 0].tolist()
    k1 = [st(x0, x1, f, g)
          for st, (x0, x1), f, g in zip(stages, x, f_end, g_end)]
    # the rows r0 .. not written yet, 7 floats per lane: the state, the
    # stage-0 derivative, input and margin, and the certificate value,
    # which the ring does not keep
    buf = [v for y, t in zip(x, k1) for v in y + t]
    r0 = 0
    flush = max(1, ROW_FLUSH // K)
    lanes = range(K)
    until = B           # rows 0 .. until - 1 fill the block
    for i in range(nsteps):
        j = i % L
        full = i + 1 >= until
        if j == 0 or i + 1 - r0 >= flush or full:
            write(buf, r0, i + 1)
            r0 = i + 1
            if full:
                hand_on(i + 1)
                until = i + 1 + B
            if i == 0:
                for w, m in zip(wins, ms[0]):
                    w.ms[w.count - 1] = m
        if j == 0:
            # a non-finite state stays non-finite, so a lane whose state is
            # not finite now is past its first non-finite row
            for k in live:
                if stages[k] is not cut_stage and not (
                        math.isfinite(x[k][0]) and math.isfinite(x[k][1])):
                    drop(k)
            steps = i + np.arange(min(L, nsteps - i))
            fr, far = block_reads(steps)
            fr = fr.tolist()
        f_mid, f_end = fr[0][j], fr[1][j]
        if closed:
            g_mid, g_end = wmax.step(i, [t[4] for t in k1], far, j)
        for k in lanes:
            st = stages[k]
            x0, x1 = x[k]
            a0, a1, _, _, _ = k1[k]
            gm, ge = g_mid[k], g_end[k]
            fm = f_mid[k]
            b0, b1, _, _, _ = st(x0 + hh * a0, x1 + hh * a1, fm, gm)
            c0, c1, _, _, _ = st(x0 + hh * b0, x1 + hh * b1, fm, gm)
            fe = f_end[k]
            d0, d1, _, _, _ = st(x0 + h * c0, x1 + h * c1, fe, ge)
            y0 = x0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
            y1 = x1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
            y = x[k] = (y0, y1)
            t = k1[k] = st(y0, y1, fe, ge)
            buf += y
            buf += t
    write(buf, r0, N)
    hand_on(N)
    if parts is not None:
        return [_joined(p) for p in parts]
    return None


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
