import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, controller, history as hist, simulate, verify
from rzk.simulate import IntegrationDiverged, IntegrationSettings


def exponential_plant():
    """xdot = -x(t), no delayed reads; exact solution e^{-t}."""
    return rzk.DelayDynamics(1, 1, lambda w: -w.latest_state.copy(),
                             lambda w: np.zeros((1, 1)), 0.3)


def blowup_plant():
    """xdot = x^2 escapes to infinity in finite time."""
    return rzk.DelayDynamics(1, 1, lambda w: w.latest_state ** 2,
                             lambda w: np.zeros((1, 1)), 0.3)


def test_pure_delay_matches_method_of_steps_exactly():
    pd = rzk.pure_delay_system(0.3)
    xi = hist.from_constant(np.array([1.0]), 0.3)
    tr = rzk.integrate(pd, None, xi, IntegrationSettings(h=0.01, T=0.6))
    ts = tr.ts
    # hand integration: constant history 1 gives x = 1 - t on [0, 0.3],
    # then x = t^2/2 - 1.3 t + 1.045 on [0.3, 0.6]
    exact = np.where(ts <= 0.3, 1.0 - ts, 0.5 * ts ** 2 - 1.3 * ts + 1.045)
    assert np.max(np.abs(tr.xs[:, 0] - exact)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(0.05, 1.0), k=st.integers(4, 24), data=st.data(),
       x0=st.floats(-5.0, 5.0))
def test_pure_delay_matches_method_of_steps_on_random_grids(tau, k, data,
                                                            x0):
    # h = tau/k <= tau/4 puts the jump of x'' at t = tau on the grid; the
    # constant history x0 gives x = x0 (1 - t) on [0, tau] and
    # x = x0 (1 - tau - s + s^2/2), s = t - tau, on [tau, 2 tau]
    h = tau / k
    steps = data.draw(st.integers(1, 2 * k), label="steps")
    pd = rzk.pure_delay_system(tau)
    tr = rzk.integrate(pd, None, hist.from_constant(np.array([x0]), tau),
                       IntegrationSettings(h=h, T=steps * h))
    t = tr.ts
    s = t - tau
    exact = x0 * np.where(t <= tau, 1.0 - t, 1.0 - tau - s + 0.5 * s * s)
    assert t.shape == (steps + 1,)
    assert np.max(np.abs(tr.xs[:, 0] - exact)) <= 1e-8


def test_delay_free_exponential_decay():
    dyn = exponential_plant()
    xi = hist.from_constant(np.array([1.0]), 0.3)
    tr = rzk.integrate(dyn, None, xi, IntegrationSettings(h=1e-2, T=1.0))
    assert abs(tr.final_state()[0] - np.exp(-1.0)) < 1e-8


def _assert_paths_agree(dyn, ctrl, s, xi=None, tol=1e-10):
    # the lockstep against the general path, from the same initial window
    if xi is None:
        xi = hist.from_constant(np.array([-2.0, -1.0]), 0.3)
    assert simulate._fast_eligible(dyn, s)
    fast = rzk.integrate(dyn, ctrl, xi.copy(), s)
    slow = simulate._integrate_general(dyn, ctrl, xi.copy(), s)
    assert not fast.diverged and fast.xs.shape == slow.xs.shape
    for name in ("xs", "us", "slopes"):
        assert np.max(np.abs(getattr(fast, name) - getattr(slow, name))) < tol, \
            name
    # an open-loop run has no certificate, so its margins are NaN on both
    # paths; a controlled run's margins must be finite and agree
    np.testing.assert_allclose(fast.margins, slow.margins, rtol=0, atol=tol,
                               equal_nan=ctrl is None)


def _window(times, states, slopes=None):
    w = hist.HistoryWindow(2, 0.3)
    for k, (t, x) in enumerate(zip(times, states)):
        w.push(t, np.asarray(x, dtype=float),
               None if slopes is None else slopes[k])
    return w


def _hazard_line(last=0.0):
    """A straight history through the hazard centre (-2, 1) that ends
    outside the box at (-0.5, 2.5), its last sample at t = last."""
    times = np.linspace(-0.3, 0.0, 61)
    times[-1] = last
    s = np.linspace(0.0, 1.0, 61)[:, None]
    return _window(times, np.array([-2.5, 0.5]) + 2.0 * s)


def _sampled_windows():
    """Sampled starts for the lockstep-vs-general comparisons: the hazard
    line, a radial history x(theta) = (1 + 0.3 (-theta/delta)^1.5) x0,
    a curve on non-uniform sample times with given slopes, and the hazard
    line ending at t = 1e-13 instead of 0."""
    t = np.linspace(-0.3, 0.0, 31)
    radial = (1.0 + 0.3 * (-t / 0.3) ** 1.5)[:, None] * np.array([1.2, -0.5])
    u = np.linspace(0.0, 1.0, 17) ** 1.7
    tn = -0.3 * (1.0 - u)
    curve = np.column_stack([0.8 + np.sin(5.0 * tn), -0.4 + tn * tn])
    dcurve = np.column_stack([5.0 * np.cos(5.0 * tn), 2.0 * tn])
    return {"hazard": _hazard_line(), "radial": _window(t, radial),
            "nonuniform": _window(tn, curve, dcurve),
            "last=1e-13": _hazard_line(1e-13)}


def test_fast_and_general_paths_agree(example_setup):
    _assert_paths_agree(example_setup["dyn"], example_setup["ctrl"],
                        IntegrationSettings(h=1e-3, T=1.0))


def test_lockstep_takes_the_example_plant_by_type_not_by_name():
    # a plant with the example's shape and input map integrates its own
    # equations: xdot = 0 stays at its start exactly
    still = rzk.DelayDynamics(2, 1, lambda w: np.zeros(2),
                              lambda w: np.array([[0.0], [1.0]]), 0.3)
    xi = hist.from_constant(np.array([1.0, 1.0]), 0.3)
    s = IntegrationSettings(h=1e-3, T=0.5)
    assert not simulate._fast_eligible(still, s)
    for tr in (rzk.integrate(still, None, xi, s),
               rzk.batch_integrate(still, None, [xi], s)[0]):
        assert np.array_equal(tr.xs, np.ones((501, 2)))
    # the example plant itself, built directly, is recognised
    assert simulate._fast_eligible(rzk.ExampleDynamics(0.3, 0.3), s)


def test_integration_is_deterministic(example_setup):
    dyn = example_setup["dyn"]
    ctrl = example_setup["ctrl"]
    s = IntegrationSettings(h=1e-3, T=0.5)
    runs = []
    for _ in range(2):
        xi = hist.from_constant(np.array([1.0, 2.0]), 0.3)
        runs.append(rzk.integrate(dyn, ctrl, xi, s))
    assert np.array_equal(runs[0].xs, runs[1].xs)
    assert np.array_equal(runs[0].us, runs[1].us)
    assert np.array_equal(runs[0].margins, runs[1].margins)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_carries_partial_trajectory():
    dyn = blowup_plant()
    xi = hist.from_constant(np.array([2.0]), 0.3)
    with pytest.raises(IntegrationDiverged) as ei:
        rzk.integrate(dyn, None, xi, IntegrationSettings(h=0.05, T=2.0))
    tr = ei.value.trajectory
    assert tr.diverged
    assert np.all(np.isfinite(tr.xs))
    # analytic blowup is t=0.5; float overflow trails it by a few steps
    assert tr.ts[-1] < 1.0
    assert ei.value.step_index == tr.xs.shape[0]
    # the batch wrapper reports instead of raising
    got = rzk.batch_integrate(dyn, None, [hist.from_constant(np.array([2.0]), 0.3)],
                              IntegrationSettings(h=0.05, T=2.0))
    assert len(got) == 1 and got[0].diverged


def test_batch_matches_single_runs(example_setup):
    dyn = example_setup["dyn"]
    ctrl = example_setup["ctrl"]
    s = IntegrationSettings(h=1e-3, T=0.5)
    ics = [np.array([-2.0, -1.0]), np.array([1.0, 2.0])]
    batch = rzk.batch_integrate(dyn, ctrl,
                                [hist.from_constant(x, 0.3) for x in ics], s)
    for x, tr in zip(ics, batch):
        single = rzk.integrate(dyn, ctrl, hist.from_constant(x, 0.3), s)
        assert np.array_equal(single.xs, tr.xs)
        assert np.array_equal(single.us, tr.us)
    assert rzk.batch_integrate(dyn, ctrl, [], s) == []


def test_settings_and_window_validation(example_setup, monkeypatch):
    with pytest.raises(ValueError):
        IntegrationSettings(h=0.0, T=1.0)
    with pytest.raises(ValueError):
        IntegrationSettings(h=1e-3, T=0.0)
    # NaN fails every comparison, so it must be refused by name, as must
    # an unbounded horizon, before the run divides T by h
    for h, T in ((math.nan, 1.0), (1e-3, math.nan), (1e-3, math.inf),
                 (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            IntegrationSettings(h=h, T=T)
    dyn = example_setup["dyn"]
    with pytest.raises(ValueError):
        rzk.integrate(dyn, None, hist.from_constant(np.zeros(2), 0.3),
                      IntegrationSettings(h=0.1, T=1.0))  # h > Delta/4
    # a sampled window covering only [-0.1, 0] cannot serve a 0.3 horizon
    short = hist.HistoryWindow(2, 0.3)
    short.push(-0.1, np.zeros(2))
    short.push(0.0, np.zeros(2))
    assert not short.span_ok()
    with pytest.raises(ValueError):
        rzk.integrate(dyn, None, short, IntegrationSettings(h=1e-3, T=1.0))
    # the batch checks every window before it integrates any
    ran = []
    monkeypatch.setattr(simulate, "_lockstep_example",
                        lambda *args: ran.append(args))
    good = hist.from_constant(np.zeros(2), 0.3)
    with pytest.raises(ValueError, match="span the delay horizon"):
        rzk.batch_integrate(dyn, None, [good, short],
                            IntegrationSettings(h=1e-3, T=1.0))
    assert ran == []


def test_convergence_study_orders_on_smooth_plant():
    dyn = exponential_plant()
    xi = hist.from_constant(np.array([1.0]), 0.3)
    study = rzk.convergence_study(dyn, None, xi, 1.0, [4e-2, 2e-2, 1e-2])
    assert study["h"] == [4e-2, 2e-2, 1e-2]
    assert len(study["slopes"]) == 1
    assert study["slopes"][0] == pytest.approx(4.0, abs=0.3)
    assert np.isnan(study["max_margins"][0])
    with pytest.raises(ValueError):
        rzk.convergence_study(dyn, None, xi, 1.0, [1e-2, 5e-3])


def test_lockstep_evaluates_the_certificate_on_rows_and_endpoints(
        example_setup):
    # the sup's rows are the values each step's first stage computes per
    # point; the only batch evaluations are the reads at theta = -delta,
    # K at t = 0 and then 2 K per step (t_i + h/2 and t_{i+1}), made for
    # blocks of L = 299 steps at delta/h = 300
    W = example_setup["W"]
    batch_calls = []

    def counted(X):
        if X.shape[0]:
            batch_calls.append(X.shape[0])
        return W.value_many(X)

    cert = rzk.ScalarField(2, counted, W.grad_many, name="W",
                           value_grad=W.value_grad)
    ctrl = rzk.ControllerSpec(cert, example_setup["gains"], 2.0)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in ((-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0))]
    s = IntegrationSettings(h=1e-3, T=0.7)
    out = rzk.batch_integrate(example_setup["dyn"], ctrl, ics, s)
    assert batch_calls == [4] + [2 * 299 * 4] * 2 + [2 * 102 * 4]
    ref = rzk.batch_integrate(example_setup["dyn"], example_setup["ctrl"],
                              ics, s)
    for a, b in zip(out, ref):
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)


def test_mixed_batch_runs_constant_starts_in_one_lockstep(example_setup,
                                                          monkeypatch):
    dyn = example_setup["dyn"]
    ctrl = example_setup["ctrl"]
    s = IntegrationSettings(h=2e-3, T=0.35)
    sampled = hist.HistoryWindow(2, 0.3)
    for t in np.linspace(-0.3, 0.0, 31):
        sampled.push(t, np.array([-2.0 + t, 1.0 - t]), np.array([1.0, -1.0]))
    consts = [hist.from_constant(np.array(x), 0.3)
              for x in ((-2.0, -1.0), (1.0, 2.0))]
    lanes = []
    lockstep = simulate._lockstep_example

    def counted(dyn, ctrl, ics, *args):
        lanes.append(len(ics))
        return lockstep(dyn, ctrl, ics, *args)

    monkeypatch.setattr(simulate, "_lockstep_example", counted)
    out = rzk.batch_integrate(dyn, ctrl, [sampled] + consts, s)
    assert lanes == [3]
    single = rzk.integrate(dyn, ctrl, sampled.copy(), s)
    assert np.array_equal(out[0].xs, single.xs)
    pair = rzk.batch_integrate(dyn, ctrl, consts, s)
    for a, b in zip(out[1:], pair):
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)


@pytest.mark.parametrize("case", [
    {"tau": 2e-3}, {"tau": 3e-3}, {"h": 1.7e-3}, {"h": 4e-3}, {"mu": 0.5},
    {"kind": "V"}, {"kind": "B"}, {"kind": None}],
    ids=["tau=h", "tau=1.5h", "h=1.7e-3", "h=4e-3", "mu", "V", "B", "open"])
def test_lockstep_matches_general_path(example_setup, case):
    # the lockstep's unwritten rows are NaN, so a read ahead of the accepted
    # history would show here; tau = h and 1.5 h put the delayed read next
    # to the frontier (blocks of one step), h = 1.7e-3 puts the read at
    # theta = -delta between rows (delta/h = 176.5), h = 4e-3 on a row of
    # a coarse run
    dyn = rzk.example_system(rzk.ExampleConfig(case.get("tau", 0.3)))
    kind = case.get("kind", "W")
    ctrl = None
    if kind is not None:
        gains = rzk.RazumikhinGains(2.5, 2.0, case.get("mu", 0.0))
        ctrl = rzk.ControllerSpec(example_setup[kind], gains, 2.0)
    s = IntegrationSettings(h=case.get("h", 2e-3), T=0.4)
    _assert_paths_agree(dyn, ctrl, s)
    for name, xi in _sampled_windows().items():
        try:
            _assert_paths_agree(dyn, ctrl, s, xi)
        except AssertionError as e:
            raise AssertionError(f"{name}: {e}") from e


@settings(max_examples=30, deadline=None)
@given(data=st.data(), count=st.integers(2, 25),
       slopes=st.booleans(), last=st.sampled_from([0.0, 1e-13]))
def test_lockstep_matches_general_path_on_random_sampled_windows(
        example_setup, data, count, slopes, last):
    # random sample times spanning [-delta, 0], states around the box
    # (-3, -1) x (0, 2), with given or secant slopes
    gaps = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=count - 1,
                                       max_size=count - 1), label="gaps"))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times = -0.3 + 0.3 * times / times[-1]
    times[-1] = last
    coord = st.floats(-4.0, 2.0)
    states = data.draw(st.lists(st.tuples(coord, coord), min_size=count,
                                max_size=count), label="states")
    m = None
    if slopes:
        m = data.draw(st.lists(st.tuples(coord, coord), min_size=count,
                               max_size=count), label="slopes")
    xi = _window(times, states, m)
    _assert_paths_agree(example_setup["dyn"], example_setup["ctrl"],
                        IntegrationSettings(h=2e-3, T=0.1), xi)


def test_general_path_equals_lockstep_before_tau(example_setup):
    # while every delayed read falls in the initial window (t <= tau) the
    # two paths make the same reads at the same times and combine the
    # same products in the same order, so they agree bit for bit.  From
    # the boundary start (-1.96875, 0) the closed loop grows any rounding
    # difference, to 6e-10 in u by T = 0.1 at h = 2e-3
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 5.625])
    times = -0.3 + 0.3 * times / times[-1]
    times[-1] = 0.0
    boundary = _window(times, [(0.0, 0.0), (0.0, -1.75), (0.0, -3.0),
                               (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                               (0.0, 0.0), (-1.96875, 0.0)])
    wins = dict(_sampled_windows(), boundary=boundary,
                constant=hist.from_constant(np.array([-2.0, -1.0]), 0.3))
    s = IntegrationSettings(h=2e-3, T=0.3)
    for name, xi in wins.items():
        fast = rzk.integrate(example_setup["dyn"], example_setup["ctrl"],
                             xi.copy(), s)
        slow = simulate._integrate_general(example_setup["dyn"],
                                           example_setup["ctrl"], xi.copy(), s)
        for col in ("xs", "us", "margins", "slopes"):
            np.testing.assert_array_equal(getattr(fast, col),
                                          getattr(slow, col),
                                          err_msg=f"{name} {col}")


def _bits(a):
    # bit patterns, so 0.0 and -0.0 differ
    return np.ascontiguousarray(a, dtype=float).tobytes()


def test_each_lockstep_lane_equals_its_one_lane_run(example_setup):
    # the block reads pack every lane into one field call, so a lane's
    # result must not depend on the other lanes or its place among them
    dyn = example_setup["dyn"]
    ctrl = example_setup["ctrl"]
    s = IntegrationSettings(h=1e-3, T=1.0)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in cli.DEMO_INITIAL_CONDITIONS]
    batch = rzk.batch_integrate(dyn, ctrl, ics, s)
    for w, tr in zip(ics, batch):
        single = rzk.integrate(dyn, ctrl, w.copy(), s)
        for name in ("xs", "us", "margins", "slopes"):
            assert _bits(getattr(tr, name)) == _bits(getattr(single, name)), \
                name


def test_each_lane_of_a_mixed_batch_equals_its_one_lane_run(example_setup):
    # a sampled lane reads its own window, so it neither disturbs nor
    # depends on the constant lanes
    dyn = example_setup["dyn"]
    ctrl = example_setup["ctrl"]
    s = IntegrationSettings(h=1e-3, T=0.5)
    ics = [_hazard_line(), hist.from_constant(np.array([-2.0, -1.0]), 0.3),
           hist.from_constant(np.array([1.0, 2.0]), 0.3)]
    slopes = [_bits(w.ms[:w.count]) for w in ics]
    batch = simulate._lockstep_example(dyn, ctrl, ics, s)
    for w, m, tr in zip(ics, slopes, batch):
        # k1 goes into the lockstep's own copy of the window, not w
        assert _bits(w.ms[:w.count]) == m
        single = simulate._lockstep_example(dyn, ctrl, [w], s)[0]
        for name in ("xs", "us", "margins", "slopes"):
            assert _bits(getattr(tr, name)) == _bits(getattr(single, name)), \
                name


def _dead_zone(field):
    """field's values with a zero gradient: the feedback is u = 0 and the
    margin is the activation a = gamma field(x) - eta sup, so a run's
    margins show the sup its engine acted on."""
    return rzk.ScalarField(2, field.value_many, lambda X: np.zeros(X.shape),
                           name="dead-zone")


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_sampled_lanes_act_on_the_rebuilt_sup(example_setup, mu):
    # the verifier reads a sampled start's last pre-history interval with
    # the lane's k1 at t = 0, as the lockstep does, and takes the initial
    # window's own samples as rows: the sup each lane acted on is the
    # rebuilt one, bit for bit
    dyn = example_setup["dyn"]
    cert = _dead_zone(example_setup["W"])
    gains = rzk.RazumikhinGains(2.5, 2.0, mu)
    ctrl = rzk.ControllerSpec(cert, gains, 2.0)
    wins = _sampled_windows()
    trajs = rzk.batch_integrate(dyn, ctrl, list(wins.values()),
                                IntegrationSettings(h=1e-3, T=0.5))
    for name, tr in zip(wins, trajs):
        assert not tr.diverged and np.all(tr.us == 0.0), name
        sup = verify.field_sup_series(tr, cert, mu)
        np.testing.assert_array_equal(
            tr.margins,
            gains.gamma * cert.value_many(tr.xs) - gains.eta * sup,
            err_msg=name)


def _whole_history(tr):
    """One HistoryWindow holding the initial window and every row of tr,
    each row with its slope, at the initial window's times."""
    w = tr.ic_window.copy()
    t0 = w.latest_time
    w.ms[w.count - 1] = tr.slopes[0]
    for t, x, m in zip(tr.ts[1:], tr.xs[1:], tr.slopes[1:]):
        w.push(t0 + t, x, m)
    return w, t0


def _brute_force_sup(tr, field, mu):
    """The weighted history sup at every sample of tr by brute force: every
    row in [t - delta, t], the initial window's samples and the sample
    itself included, and the read at theta = -delta through
    HistoryWindow.interp_times, each weighted by e^{mu theta}.  Sample 0
    reads the initial window with its own slope at t = 0, as the
    integrators' first stage does."""
    delta = tr.meta["delta"]
    whole, t0 = _whole_history(tr)
    times = whole.ts[:whole.count]
    vals = field.value_many(whole.xs[:whole.count])
    out = np.empty(tr.ts.shape[0])
    for i, t in enumerate(t0 + tr.ts):
        reader = tr.ic_window if i == 0 else whole
        end = field.value(reader.interp_times([t - delta])[0])
        rows = (times >= t - delta - 1e-12) & (times <= t + 1e-12)
        theta = np.concatenate([[-delta], times[rows] - t])
        out[i] = np.max(np.exp(mu * theta)
                        * np.concatenate([[end], vals[rows]]))
    return out


@settings(max_examples=20, deadline=None)
@given(steps=st.one_of(st.integers(4, 60).map(float),
                       st.floats(4.0, 60.0)),
       mu=st.sampled_from([0.0, 0.5]),
       start=st.sampled_from(["constant", "hazard", "radial", "nonuniform",
                              "last=1e-13"]))
def test_engines_take_the_sup_on_rows_endpoint_and_stage(example_setup,
                                                         steps, mu, start):
    # delta/h integer or not; under a dead-zone certificate each sample's
    # margin is gamma W(x_i) - eta sup_i, so the sup each engine acted on
    # is read back from its margins
    dyn = example_setup["dyn"]
    cert = _dead_zone(example_setup["W"])
    gains = rzk.RazumikhinGains(2.5, 2.0, mu)
    ctrl = rzk.ControllerSpec(cert, gains, 2.0)
    h = 0.3 / steps
    s = IntegrationSettings(h=h, T=round(0.75 / h) * h)
    if start == "constant":
        xi = hist.from_constant(np.array([-2.0, -1.0]), 0.3)
    else:
        xi = _sampled_windows()[start]
    fast = rzk.integrate(dyn, ctrl, xi.copy(), s)
    slow = simulate._integrate_general(dyn, ctrl, xi.copy(), s)
    for tr in (fast, slow):
        got = (gains.gamma * cert.value_many(tr.xs) - tr.margins) / gains.eta
        ref = _brute_force_sup(tr, cert, mu)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


_Q = st.one_of(st.floats(1e-5, 1e3), st.floats(-1e3, -1e-5),
               st.floats(-1e-13, 1e-13))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1e6, 1e6), q=_Q, lam=st.floats(0.1, 10.0))
def test_lane_stage_meets_the_margin_identity(example_setup, a, q, lam):
    # a field of constant value a and gradient (0, q), gamma = 1 and
    # eta = 0, at the state 0 where the drift and friction vanish: the
    # first stage's activation is exactly a, its input-side term q
    cert = rzk.ScalarField(2, lambda X: np.full(X.shape[0], a),
                           lambda X: np.tile([0.0, q], (X.shape[0], 1)))
    ctrl = rzk.ControllerSpec(cert, rzk.RazumikhinGains(1.0, 0.0), lam)
    tr = simulate._lockstep_example(
        example_setup["dyn"], ctrl, [hist.from_constant(np.zeros(2), 0.3)],
        IntegrationSettings(h=1e-3, T=1e-3))[0]
    u, margin = float(tr.us[0, 0]), float(tr.margins[0])
    if q * q <= controller.Q_THRESHOLD ** 2:
        assert u == 0.0 and margin == a
        return
    root = math.sqrt(a * a + lam * q ** 4)
    assert margin == pytest.approx(-root, rel=1e-14, abs=0.0)
    # closed loop: a + q u = -sqrt(a^2 + lambda q^4), up to rounding
    assert abs(a + q * u + root) <= 8 * np.finfo(float).eps * (abs(a) + root)
