"""Bounded-history trajectory windows and the Razumikhin history sup.

A HistoryWindow is the computational stand-in for a continuous history
segment: it stores time-stamped state samples spanning at least the delay
horizon and answers interpolation queries at offsets theta in [-Delta, 0]
measured from the latest sample.  Integrators on a uniform step read their
own sample rows through the fixed weights of `hermite_tables` instead: the
same cubic Hermite fit, with the interval and fraction of each read fixed
by its offset in steps.

The weighted history sup sup_{theta in [-Delta, 0]} e^{mu theta} W(x(t +
theta)) is taken on the run's own rows: the max of the read at theta =
-Delta and of every sample in [t - Delta, t], theta = 0 included, the
rows at every mu through one anchored block max (`sup_blocks`), step by
step in the lockstep (`LaneWindowMax`) and whole in `verify.sliding_max`.
"""

import math

import numpy as np

# a row this close behind t - Delta still counts as inside the window
ROW_TOL = 1e-12
# a read this close after t = 0 still reads the initial history
EARLY_TOL = 1e-15


class HistoryWindow:
    """Time-stamped samples with cubic-Hermite interpolation.

    Samples before `const_until` are implied: the window was initialized
    from a constant initial function and reads there return `const_state`
    exactly.  Slopes are stored per sample; when a sample is pushed without
    a slope the interpolation falls back to a finite-difference slope for
    the affected interval.
    """

    __slots__ = ("n", "delta", "ts", "xs", "ms", "count",
                 "const_state", "const_until", "_scratch")

    def __init__(self, n, delta):
        if delta <= 0:
            raise ValueError("horizon must be positive")
        self.n = int(n)
        self.delta = float(delta)
        cap = 256
        self.ts = np.empty(cap)
        self.xs = np.empty((cap, self.n))
        self.ms = np.empty((cap, self.n))
        self.count = 0
        self.const_state = None
        self.const_until = None
        self._scratch = 0  # number of trailing scratch samples

    # -- construction ---------------------------------------------------

    def copy(self):
        w = HistoryWindow.__new__(HistoryWindow)
        w.n = self.n
        w.delta = self.delta
        w.ts = self.ts[: self.count].copy()
        w.xs = self.xs[: self.count].copy()
        w.ms = self.ms[: self.count].copy()
        w.count = self.count
        w.const_state = None if self.const_state is None else self.const_state.copy()
        w.const_until = self.const_until
        w._scratch = 0
        return w

    @property
    def latest_time(self):
        return self.ts[self.count - 1]

    @property
    def latest_state(self):
        return self.xs[self.count - 1]

    def _grow(self):
        cap = max(256, 2 * self.ts.shape[0])
        ts = np.empty(cap)
        xs = np.empty((cap, self.n))
        ms = np.empty((cap, self.n))
        ts[: self.count] = self.ts[: self.count]
        xs[: self.count] = self.xs[: self.count]
        ms[: self.count] = self.ms[: self.count]
        self.ts, self.xs, self.ms = ts, xs, ms

    def _append(self, t, x, m):
        if self.count == self.ts.shape[0]:
            self._grow()
        i = self.count
        self.ts[i] = t
        self.xs[i] = x
        self.ms[i] = m
        self.count = i + 1

    # -- mutation -------------------------------------------------------

    def push(self, t, x, slope=None):
        """Append a sample at time t > latest time.

        `slope` is dx/dt at the sample if known (exact-slope Hermite keeps
        the integrator's full order); otherwise the previous interval uses
        a secant slope.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError("state dimension mismatch")
        if not np.isfinite(t):
            raise ValueError("non-finite sample time")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite sample state")
        if self.count and t <= self.latest_time:
            raise ValueError("sample times must be strictly increasing")
        if slope is None:
            if self.count:
                dt = t - self.ts[self.count - 1]
                m = (x - self.xs[self.count - 1]) / dt
            else:
                m = np.zeros(self.n)
        else:
            m = np.asarray(slope, dtype=float)
        self._append(t, x, m)

    def push_scratch(self, t, x, slope=None):
        """Push a provisional stage sample, as the reference integrator
        does at each RK stage; removable with pop_scratch."""
        self.push(t, x, slope)
        self._scratch += 1

    def pop_scratch(self):
        if self._scratch <= 0:
            raise ValueError("no scratch samples to pop")
        self.count -= 1
        self._scratch -= 1

    # -- queries --------------------------------------------------------

    def span_ok(self):
        """True when the window covers [-Delta, 0] behind its latest time."""
        t1 = self.latest_time
        t0 = self.const_until if self.const_until is not None else self.ts[0]
        return (t1 - t0) >= self.delta - 1e-12 or self.const_state is not None

    def interp_times(self, times):
        """Interpolate the state at absolute times (vectorized).

        Times at or before `const_until` return the constant initial state.
        Times must not exceed the latest sample time.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((times.shape[0], self.n))
        c = self.count
        ts = self.ts[:c]
        if times.size and times.max() > ts[c - 1] + 1e-9:
            raise ValueError("interpolation beyond the latest sample")
        if self.const_state is not None:
            pre = times <= self.const_until + EARLY_TOL
        else:
            pre = np.zeros(times.shape, dtype=bool)
            if times.size and times.min() < ts[0] - 1e-9:
                raise ValueError("interpolation before the earliest sample")
        live = ~pre
        if pre.any():
            out[pre] = self.const_state
        if live.any() and c == 1:
            # only the initial sample exists; live times can at most be
            # within rounding of it
            out[live] = self.xs[0]
        elif live.any():
            tq = np.minimum(times[live], ts[c - 1])
            i1 = np.searchsorted(ts, tq, side="left")
            i1 = np.clip(i1, 1, c - 1)
            i0 = i1 - 1
            t0 = ts[i0]
            dt = ts[i1] - t0
            s = ((tq - t0) / dt)[:, None]
            m0 = self.ms[i0] * dt[:, None]
            m1 = self.ms[i1] * dt[:, None]
            s2 = s * s
            s3 = s2 * s
            out[live] = ((2.0 * s3 - 3.0 * s2 + 1.0) * self.xs[i0]
                         + (s3 - 2.0 * s2 + s) * m0
                         + (-2.0 * s3 + 3.0 * s2) * self.xs[i1]
                         + (s3 - s2) * m1)
        return out


def from_constant(x0, delta):
    """Window covering [-Delta, 0] that equals x0 everywhere on it."""
    x0 = np.asarray(x0, dtype=float).ravel()
    w = HistoryWindow(x0.shape[0], delta)
    w.const_state = x0.copy()
    w.const_until = 0.0
    w._append(0.0, x0, np.zeros(x0.shape[0]))
    return w


def from_samples(times, states, delta):
    """Window holding the samples (times[k], states[k]) with the slopes
    that pushing them one by one gives: zero at the first sample, the
    secant from the previous sample at every other."""
    ts = np.array(times, dtype=float)
    xs = np.array(states, dtype=float)
    if ts.ndim != 1 or xs.ndim != 2 or xs.shape[0] != ts.shape[0] or not ts.size:
        raise ValueError("need one state row per sample time")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(xs))):
        raise ValueError("non-finite sample")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample times must be strictly increasing")
    w = HistoryWindow(xs.shape[1], delta)
    ms = np.zeros_like(xs)
    ms[1:] = np.diff(xs, axis=0) / np.diff(ts)[:, None]
    w.ts, w.xs, w.ms = ts, xs, ms
    w.count = ts.shape[0]
    return w


def delay_steps(delta, h):
    """delta/h, snapped to the nearest integer D when within rounding of it
    (0.3/1e-3 is 299.99999999999994), so that the read at theta = -delta of
    a sample lands on the row D steps back with weights (1, 0, 0, 0)."""
    q = delta / h
    d = round(q)
    return float(d) if abs(q - d) < 1e-9 else q


def hermite_tables(offsets, h):
    """Integer row offsets and cubic-Hermite basis weights for reads at
    fixed fractional positions on a uniform grid of spacing h.

    offsets are in grid steps relative to a current row; a read at offset
    o is b00*x[i0] + b10*m[i0] + b01*x[i0+1] + b11*m[i0+1], with i0 the
    floor of o and m the stored slopes.  Returns (i0, b00, b10, b01, b11).
    """
    i0 = np.floor(offsets).astype(int)
    s = offsets - i0
    s2 = s * s
    s3 = s2 * s
    b00 = 2.0 * s3 - 3.0 * s2 + 1.0
    b10 = (s3 - 2.0 * s2 + s) * h
    b01 = -2.0 * s3 + 3.0 * s2
    b11 = (s3 - s2) * h
    return i0, b00, b10, b01, b11


def hermite_rows(b, xs, ms, rows, nxt):
    """The reads b00 x[rows] + b10 m[rows] + b01 x[nxt] + b11 m[nxt] with
    the weights b = (b00, b10, b01, b11) of `hermite_tables`, on the rows xs
    and their slopes ms.  Summed in place in that order, so that two arrays
    of the reads' shape are held at a time.  A run cut at its first
    overflow may end on a finite state with a non-finite slope, and a lane
    past it reads inf and NaN rows; zero weights times inf are NaN there,
    without a warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = xs[rows]
        out *= b[0]
        for w, col, r in zip(b[1:], (ms, xs, ms), (rows, nxt, nxt)):
            part = col[r]
            part *= w
            out += part
    return out


def lag_weights(mu, lags):
    """e^{-mu lag} at each lag, in time: every weight of the history sup,
    so that the lockstep, the verifier and the reference take equal ones."""
    return np.exp(-mu * lags)


def sup_blocks(mu, delta, h):
    """(M, old, wt) for the history sup's rows on a uniform step h: the
    reads at t_i + h/2 and t_{i+1} reach back to row i + 1 - M, M =
    floor(delta/h) snapped by `delay_steps`, the first one also to row
    i - M when `old`; wt is `lag_weights` at lags m/2 - M steps, m = 0 ..
    4M.  As e^{-mu(t - t_j)} = e^{-mu(t - t_a)} e^{-mu(t_a - t_j)}, row
    bM + r takes entry 4M - 2r, relative to the anchor t_a = (b + 1) M h
    of its block of M rows from row 0, and a max over block b read c steps
    past row bM + r' entry 2(r' + c), or 2(r' + c) + 2M from block b + 1:
    every factor stays within e^{mu M h} of 1, however long the run."""
    m2 = math.floor(2.0 * delay_steps(delta, h))
    M = m2 // 2
    return M, m2 % 2 == 1, lag_weights(
        mu, h * (0.5 * np.arange(4 * M + 1) - M))


def row_sup(s, vals, times, delta, mu=0.0):
    """For each read time t in times, the max of e^{mu s_k} vals_k over the
    rows at times s_k in [t - delta, t], times e^{-mu t}; -inf where no row
    is in reach: (len(times),).

    The row times s ascend and none is after a read time, as for the rows
    of an initial window read at t >= 0, so the rows in reach of t are a
    suffix of them; ValueError otherwise."""
    if s.size and times.size and s[-1] > times.min():
        raise ValueError("rows after a read time")
    vals = vals * lag_weights(mu, -s)
    # suf[k] is the max over rows k.. (a NaN among them propagates), with
    # -inf past the last row
    suf = np.full(s.shape[0] + 1, -np.inf)
    suf[:-1] = np.maximum.accumulate(vals[::-1])[::-1]
    # past delta + ROW_TOL no row is in reach: no 0 weight turns -inf NaN
    return suf[np.searchsorted(s, times - delta - ROW_TOL)] \
        * lag_weights(mu, np.minimum(times, delta + ROW_TOL))


class LaneWindowMax:
    """The rows' part of the history sup for K lanes stepped in lockstep,
    in O(1) per lane and step, at any mu.

    Each step i brings its row of K certificate values.  The reads of step
    i at t_i + h/2 and t_{i+1} reach rows i + 1 - M .. i, the first one
    also row i - M when `old`; there are no rows before row 0.  That window
    is a suffix of the last finished block of M rows and a prefix of the
    current one (van Herk/Gil-Werman), weighted by wt (`sup_blocks`): the
    suffix maxima of a block are taken once, when it is finished, and
    combined with the reads' own sup terms once per block of either; per
    step only each lane's running max over the current block moves, in
    one pass over the lanes.  Only the current block's rows are kept,
    flat.  Maxima are taken as np.maximum takes them: a NaN propagates (a
    tie of 0.0 and -0.0 may come out either way).
    """

    __slots__ = ("M", "od", "per", "back", "rows", "suf", "run", "seg", "mid",
                 "end")

    def __init__(self, M, old, wt, K):
        self.M = M
        self.od = 0 if old else 1
        # per offset r in a block: row r's weight and the two reads' ones,
        # and the reads' ones on the block before (back)
        self.per = np.stack([wt[4 * M:2 * M:-2], wt[1:2 * M:2],
                             wt[2:2 * M + 1:2]], axis=1).tolist()
        self.back = wt[2 * M + 1:].reshape(M, 2, 1)
        self.rows = []
        # suffix maxima of the last finished block, -inf past its end
        self.suf = np.full((M + 1, K), -np.inf)

    def step(self, i, w, far, j):
        """The maxima of step i's reads at t_i + h/2 and at t_{i+1}, two
        lists of K floats.  w holds row i as a list of K floats; far
        (2, n, K) the reads' own sup terms for a block of n steps, step i
        at j, a new block coming in at j = 0.  Steps are taken in order
        from i = 0."""
        M = self.M
        r = i % M
        if r == 0:
            if i:
                self.suf[:M] = np.maximum.accumulate(
                    np.array(self.rows).reshape(M, -1)[::-1])[::-1]
                self.rows.clear()
            self.run = [-math.inf] * len(w)
        if r == 0 or j == 0:
            # the last block's rows in reach with far, for the steps up to
            # the end of the current block or of far's
            n = min(M - r, far.shape[1] - j)
            lo = r + self.od
            g = self.back[r:r + n]
            self.seg = i
            self.mid = np.maximum(far[0, j:j + n],
                                  self.suf[lo:lo + n] * g[:, 0]).tolist()
            self.end = np.maximum(far[1, j:j + n],
                                  self.suf[r + 1:r + 1 + n] * g[:, 1]).tolist()
        wr, cm, ce = self.per[r]
        push, run = self.rows.append, self.run
        mid, end = self.mid[i - self.seg], self.end[i - self.seg]
        # each lane's running max, row i included, then with the block
        # terms, in place: each step's terms are read once
        for k, v in enumerate(w):
            v *= wr
            push(v)
            a = run[k]
            if v >= a or v != v:
                run[k] = a = v
            b = a * cm
            if b >= mid[k] or b != b:
                mid[k] = b
            b = a * ce
            if b >= end[k] or b != b:
                end[k] = b
        return mid, end


def pre_rows(window):
    """The samples before the latest, at times relative to it: (s, states);
    of an initial window, the pre-history rows."""
    c = window.count - 1
    return window.ts[:c] - window.latest_time, window.xs[:c]


def weighted_sup(window, field, mu=0.0):
    """sup over theta in [-Delta, 0] of e^{mu theta} field(x(t + theta)) at
    the window's latest time t, on its rows: the max over the read at theta
    = -Delta and every sample in [t - Delta, t], the latest one included.
    Signed, so for sign-indefinite fields the result can be negative."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    t, d, c = window.latest_time, window.delta, window.count
    lo = int(np.searchsorted(window.ts[:c], t - d - ROW_TOL))
    vals = field.value_many(np.concatenate([window.interp_times(t - d),
                                            window.xs[lo:c]]))
    rows = row_sup(window.ts[lo:c] - t, vals[1:], np.zeros(1), d, mu)
    return float(np.maximum(vals[0] * lag_weights(mu, d), rows[0]))
