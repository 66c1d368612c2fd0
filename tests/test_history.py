import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rzk import history as hist
from rzk import verify
from rzk.simulate import Trajectory


def test_from_constant_covers_delay_horizon():
    w = hist.from_constant(np.array([1.0, 2.0]), 0.3)
    assert w.span_ok()
    assert np.allclose(w.interp_times([-0.3, -0.17, 0.0]), [1.0, 2.0])


def test_push_requires_increasing_times_and_matching_dimension():
    w = hist.from_constant(np.zeros(2), 0.3)
    w.push(0.1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        w.push(0.1, np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        w.push(0.05, np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        w.push(0.2, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        w.push(0.2, np.array([np.nan, 0.0]))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), count=st.integers(1, 40))
def test_from_samples_equals_pushing_each_sample(data, count):
    gaps = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=count,
                              max_size=count), label="gaps")
    times = np.cumsum(gaps) - 1.0
    states = np.array(data.draw(st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        min_size=count, max_size=count), label="states"))
    w = hist.from_samples(times.tolist(), states.tolist(), 0.3)
    ref = hist.HistoryWindow(2, 0.3)
    for t, x in zip(times, states):
        ref.push(t, x)
    assert w.count == ref.count
    for name in ("ts", "xs", "ms"):
        a, b = getattr(w, name)[:w.count], getattr(ref, name)[:ref.count]
        assert a.tobytes() == b.tobytes(), name
    # later pushes grow the window as usual
    w.push(times[-1] + 1.0, np.ones(2))
    assert w.count == count + 1


def test_from_samples_rejects_bad_samples():
    with pytest.raises(ValueError):
        hist.from_samples([0.0, 0.0], [[1.0, 2.0], [1.0, 2.0]], 0.3)
    with pytest.raises(ValueError):
        hist.from_samples([0.0, 0.1], [[1.0, np.nan], [1.0, 2.0]], 0.3)
    with pytest.raises(ValueError):
        hist.from_samples([0.0, 0.1], [[1.0, 2.0]], 0.3)
    with pytest.raises(ValueError):
        hist.from_samples([], [], 0.3)


def test_cubic_hermite_reproduces_cubic_polynomials(rng):
    # degree-3 data with exact slopes interpolates exactly
    c = rng.standard_normal(4)
    p = np.polynomial.Polynomial(c)
    dp = p.deriv()
    w = hist.HistoryWindow(1, 1.0)
    ts = np.linspace(0.0, 1.0, 6)
    for t in ts:
        w.push(t, np.array([p(t)]), np.array([dp(t)]))
    tq = rng.uniform(0.0, 1.0, size=50)
    got = w.interp_times(tq)[:, 0]
    assert np.max(np.abs(got - p(tq))) < 1e-12


_COEF = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(c1=_COEF, c2=_COEF, h=st.floats(0.01, 0.1),
       nrows=st.integers(2, 20), delta=st.floats(0.05, 0.5),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_every_hermite_reader_is_exact_on_cubics(c1, c2, h, nrows, delta,
                                                 fracs):
    # samples and slopes of a cubic, read back by each Hermite reader:
    # HistoryWindow.interp_times, a hermite_tables gather and
    # verify.window_states must all return the cubic itself
    ps = [np.polynomial.Polynomial(c) for c in (c1, c2)]

    def cubic(t):
        return np.stack([p(t) for p in ps], axis=-1)

    def slope(t):
        return np.stack([p.deriv()(t) for p in ps], axis=-1)

    ts = np.arange(nrows) * h
    xs, ms = cubic(ts), slope(ts)
    span = ts[-1]

    w = hist.HistoryWindow(2, span)
    for t, x, m in zip(ts, xs, ms):
        w.push(t, x, m)
    tq = np.array(fracs) * span
    np.testing.assert_allclose(w.interp_times(tq), cubic(tq), rtol=0,
                               atol=1e-12)

    # offsets in steps behind the last row, as the integrators read them
    last = nrows - 1
    off = -np.array(fracs) * last
    i0, b00, b10, b01, b11 = hist.hermite_tables(off, h)
    rows = last + i0
    nxt = np.minimum(rows + 1, last)
    vals = (b00[:, None] * xs[rows] + b10[:, None] * ms[rows]
            + b01[:, None] * xs[nxt] + b11[:, None] * ms[nxt])
    np.testing.assert_allclose(vals, cubic((last + off) * h), rtol=0,
                               atol=1e-12)

    # the initial window carries the same cubic on [-delta, 0]
    pre_n = int(np.ceil(delta / h)) + 1
    ic = hist.HistoryWindow(2, delta)
    for t in np.linspace(-delta, 0.0, pre_n):
        ic.push(t, cubic(t), slope(t))
    traj = Trajectory(ts, xs, np.zeros((nrows, 1)), np.zeros(nrows), ms,
                      {"h": h, "delta": delta}, ic)
    np.testing.assert_allclose(verify.window_states(traj), cubic(ts - delta),
                               rtol=0, atol=1e-12)


def test_finite_difference_slope_fallback_is_linear_exact():
    # seed the first slope; the secant fallback then keeps linear data exact
    w = hist.HistoryWindow(1, 1.0)
    w.push(0.0, np.array([1.0]), np.array([2.0]))
    for t in (0.25, 0.5, 0.75, 1.0):
        w.push(t, np.array([2.0 * t + 1.0]))
    tq = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(w.interp_times(tq)[:, 0] - (2.0 * tq + 1.0))) < 1e-12


def test_scratch_push_pop_restores_state():
    w = hist.from_constant(np.array([1.0]), 0.3)
    w.push(0.1, np.array([2.0]), np.array([0.5]))
    before = (w.count, w.latest_time, float(w.latest_state[0]))
    w.push_scratch(0.15, np.array([3.0]), np.array([0.5]))
    assert w.latest_time == pytest.approx(0.15)
    w.pop_scratch()
    assert (w.count, w.latest_time, float(w.latest_state[0])) == before


def test_delay_steps_snap_to_rows():
    # 0.3/1e-3 is 299.99999999999994: snapped, so the read at theta = -delta
    # of a sample is the row 300 back with weights (1, 0, 0, 0)
    q = hist.delay_steps(0.3, 1e-3)
    assert q == 300.0
    i0, b00, b10, b01, b11 = hist.hermite_tables(np.array([-q, 1.0 - q]), 1e-3)
    assert i0.tolist() == [-300, -299]
    for b, want in ((b00, 1.0), (b10, 0.0), (b01, 0.0), (b11, 0.0)):
        assert b.tolist() == [want, want]
    assert hist.delay_steps(0.3, 0.0017) == 0.3 / 0.0017
    # the rows in reach: M = floor(delta/h), one more for the read at
    # t_i + h/2 where floor(2 delta/h) is odd
    assert hist.sup_blocks(0.5, 0.3, 1e-3)[:2] == (300, False)
    assert hist.sup_blocks(0.5, 0.3, 0.3 / 176.5)[:2] == (176, True)
    # block weights: entry m is lag m/2 - M steps, lag 0 weighing 1.0
    M, old, w = hist.sup_blocks(0.5, 0.3, 0.0017)
    assert (M, old) == (176, False)
    assert w.shape == (4 * 176 + 1,) and w[2 * 176] == 1.0
    np.testing.assert_allclose(
        w, np.exp(-0.5 * 0.0017 * (0.5 * np.arange(705) - 176)), rtol=1e-15)
    assert np.all(hist.sup_blocks(0.0, 0.3, 1e-3)[2] == 1.0)


def test_weighted_sup_constant_window_is_field_value():
    w = hist.from_constant(np.array([3.0, 4.0]), 0.3)

    class Norm2:
        n = 2

        @staticmethod
        def value_many(X):
            return np.sum(X * X, axis=-1)

    assert hist.weighted_sup(w, Norm2, 0.0) == pytest.approx(25.0)
    # negative mu weights e^{mu theta} <= 1, sup still at theta = 0 here
    assert hist.weighted_sup(w, Norm2, 1.0) == pytest.approx(25.0)


def test_weighted_sup_ramp_oracle():
    # value along the window is 1 - theta; weight e^{theta} makes the
    # weighted profile e^{theta}(1 - theta) with max exactly 1 at theta = 0
    class Ident:
        n = 1

        @staticmethod
        def value_many(X):
            return X[..., 0]

    w = hist.from_constant(np.array([1.3]), 0.3)
    for t in np.linspace(0.05, 0.3, 6):
        w.push(t, np.array([1.3 - t]), np.array([-1.0]))
    assert hist.weighted_sup(w, Ident, 1.0) == pytest.approx(1.0, abs=1e-9)
    # unweighted sup picks the oldest (largest) value 1 - (-0.3)
    assert hist.weighted_sup(w, Ident, 0.0) == pytest.approx(1.3, abs=1e-9)


def test_weighted_sup_is_signed_not_absolute():
    class Ident:
        n = 1

        @staticmethod
        def value_many(X):
            return X[..., 0]

    w = hist.from_constant(np.array([-5.0]), 0.3)
    assert hist.weighted_sup(w, Ident, 0.0) == pytest.approx(-5.0)


def test_copy_is_independent():
    w = hist.from_constant(np.array([1.0]), 0.3)
    c = w.copy()
    w.push(0.1, np.array([9.0]))
    assert c.count == 1
    assert c.latest_time == 0.0



# values for the sup forms: ordinary, infinite and NaN.  + 0.0 folds -0.0
# into 0.0, since a tie of the two zeros may come out either way in a max
_SUP_VALUE = st.one_of(
    st.floats(-1e3, 1e3).map(lambda v: v + 0.0),
    st.sampled_from([np.inf, -np.inf, np.nan]))


def _brute_max(vals):
    """np.max of vals, -inf when empty."""
    return np.max(vals, initial=-np.inf)


def _lagged(rows, lags, mu, h):
    """The rows, each weighted by e^{-mu h lag}, its lag in steps."""
    return np.exp(-mu * h * np.asarray(lags, dtype=float)) * rows


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _assert_weighted(got, want, mu, span):
    """Bit for bit at mu = 0, where every weight is 1.0; else within the
    rounding of a weight formed as two anchored factors, and of a row
    weighted relative to its anchor, which may be as small as e^{-span}
    times the row: below the normal floats it keeps 2^-1074 absolute."""
    if mu:
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=2.0 ** -1072 * np.exp(span))
    else:
        assert _bits(got) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), M=st.integers(1, 80),
       mu=st.sampled_from([0.0, 0.5, 40.0]), h=st.sampled_from([1e-3, 0.05]))
def test_sliding_max_equals_each_window_max(data, n, M, mu, h):
    # the rows i + 1 - M .. i behind a read one step after row i, weighted
    # by lag from it; M need not divide the length, and may exceed the run
    vals = np.array(data.draw(st.lists(_SUP_VALUE, min_size=n, max_size=n)))
    want = [_brute_max(_lagged(vals[lo:i + 1], i + 1 - np.arange(lo, i + 1),
                               mu, h))
            for i in range(n) for lo in [max(i + 1 - M, 0)]]
    _assert_weighted(verify.sliding_max(vals, M,
                                        hist.sup_blocks(mu, M * h, h)[2]),
                     want, mu, mu * h * M)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), K=st.integers(1, 2), N=st.integers(1, 30),
       M=st.integers(1, 12), L=st.integers(1, 15), old=st.booleans(),
       mu=st.sampled_from([0.0, 0.5, 40.0]))
def test_lane_window_max_equals_the_window_max(data, K, N, M, L, old, mu):
    # every step's maxima against the max over its window of rows, each
    # weighted by its lag from the read, and its reads' own terms; M need
    # not divide N nor L, and may exceed N; with `old` (odd floor(2
    # delta/h)) the first read reaches one row more
    h = 0.05
    rows = np.array(data.draw(st.lists(
        st.lists(_SUP_VALUE, min_size=K, max_size=K), min_size=N,
        max_size=N)))
    far_all = np.array(data.draw(st.lists(
        st.lists(_SUP_VALUE, min_size=2 * K, max_size=2 * K), min_size=N,
        max_size=N))).reshape(N, 2, K).transpose(1, 0, 2)
    wm = hist.LaneWindowMax(M, old, hist.sup_blocks(mu, M * h, h)[2], K)
    for i in range(N):
        # far comes in blocks of L steps, as the lockstep's block reads do
        j = i % L
        far = far_all[:, i - j:i - j + L]
        mid, end = wm.step(i, rows[i].tolist(), far, j)
        for c, lo, got, f in ((0.5, max(i + 1 - M - old, 0), mid, far_all[0]),
                              (1.0, max(i + 1 - M, 0), end, far_all[1])):
            lags = i + c - np.arange(lo, i + 1)[:, None]
            lagged = _lagged(rows[lo:i + 1], lags, mu, h)
            want = [_brute_max(np.append(lagged[:, k], f[i, k]))
                    for k in range(K)]
            _assert_weighted(got, want, mu, mu * h * M)


def _row_sup_mask(s, vals, times, delta, mu):
    """row_sup as a (times x rows) mask: each time's rows in reach."""
    if mu:
        vals = vals * np.exp(mu * s)
    inside = ((s >= times[:, None] - delta - hist.ROW_TOL)
              & (s <= times[:, None]))
    out = np.where(inside, vals, -np.inf).max(axis=1, initial=-np.inf)
    if mu:
        out = out * np.exp(-mu * times)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), m=st.integers(1, 20),
       mu=st.sampled_from([0.0, 0.5]))
def test_row_sup_equals_the_masked_max(data, n, m, mu):
    # rows at or before 0 and read times at or after it, as the callers
    # make them; a read time a row's lag exactly delta behind included
    s = np.sort(np.array(data.draw(st.lists(
        st.floats(-0.5, 0.0), min_size=n, max_size=n, unique=True))))
    vals = np.array(data.draw(st.lists(_SUP_VALUE, min_size=n, max_size=n)))
    times = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.0, 0.5), st.sampled_from(list(s + 0.3) or [0.0])
                  .filter(lambda t: t >= 0.0)),
        min_size=m, max_size=m)))
    assert _bits(hist.row_sup(s, vals, times, 0.3, mu)) \
        == _bits(_row_sup_mask(s, vals, times, 0.3, mu))


def test_row_sup_rejects_rows_after_a_read_time():
    with pytest.raises(ValueError):
        hist.row_sup(np.array([-0.1, 0.2]), np.ones(2), np.array([0.1]), 0.3)
