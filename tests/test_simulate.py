import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, controller, history as hist, io, simulate, verify
from rzk.simulate import IntegrationDiverged, IntegrationSettings

from plants import blowup_plant, exponential_plant, pure_delay_system

# the reference integrator, for any DelayDynamics
reference = simulate._integrate_general


def test_pure_delay_matches_method_of_steps_exactly():
    pd = pure_delay_system(0.3)
    xi = hist.from_constant(np.array([1.0]), 0.3)
    tr = reference(pd, None, xi, IntegrationSettings(h=0.01, T=0.6))
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
    pd = pure_delay_system(tau)
    tr = reference(pd, None, hist.from_constant(np.array([x0]), tau),
                   IntegrationSettings(h=h, T=steps * h))
    t = tr.ts
    s = t - tau
    exact = x0 * np.where(t <= tau, 1.0 - t, 1.0 - tau - s + 0.5 * s * s)
    assert t.shape == (steps + 1,)
    assert np.max(np.abs(tr.xs[:, 0] - exact)) <= 1e-8


def test_delay_free_exponential_decay():
    dyn = exponential_plant()
    xi = hist.from_constant(np.array([1.0]), 0.3)
    tr = reference(dyn, None, xi, IntegrationSettings(h=1e-2, T=1.0))
    assert abs(tr.final_state()[0] - np.exp(-1.0)) < 1e-8


def _assert_paths_agree(dyn, ctrl, s, xi=None, tol=1e-10):
    # the lockstep against the reference, from the same initial window
    if xi is None:
        xi = hist.from_constant(np.array([-2.0, -1.0]), 0.3)
    fast = rzk.integrate(dyn, ctrl, xi.copy(), s)
    slow = reference(dyn, ctrl, xi.copy(), s)
    assert not fast.diverged and fast.xs.shape == slow.xs.shape
    for name in ("xs", "us", "slopes"):
        assert np.max(np.abs(getattr(fast, name) - getattr(slow, name))) < tol, \
            name
    # an open-loop run has no certificate, so its margins are NaN on both
    # sides; a controlled run's margins must be finite and agree
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
    # a plant with the example's shape and input map is refused before any
    # work; on the reference it integrates its own equations: xdot = 0
    # stays at its start exactly
    still = rzk.DelayDynamics(2, 1, lambda w: np.zeros(2),
                              lambda w: np.array([[0.0], [1.0]]), 0.3)
    xi = hist.from_constant(np.array([1.0, 1.0]), 0.3)
    s = IntegrationSettings(h=1e-3, T=0.5)
    with pytest.raises(TypeError, match="example plant"):
        rzk.integrate(still, None, xi, s)
    with pytest.raises(TypeError, match="example plant"):
        rzk.batch_integrate(still, None, [xi], s)
    assert np.array_equal(reference(still, None, xi, s).xs, np.ones((501, 2)))
    # the example plant itself, built directly, is recognised
    tr = rzk.integrate(rzk.ExampleDynamics(0.3, 0.3), None, xi, s)
    assert tr.xs.shape == (501, 2) and not tr.diverged


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
def test_divergence_carries_partial_trajectory(example_setup):
    # the reference cuts a blow-up at its last finite row
    tr = reference(blowup_plant(), None,
                   hist.from_constant(np.array([2.0]), 0.3),
                   IntegrationSettings(h=0.05, T=2.0))
    assert tr.diverged
    assert np.all(np.isfinite(tr.xs))
    # analytic blowup is t=0.5; float overflow trails it by a few steps
    assert tr.ts[-1] < 1.0
    # the lockstep cuts a lane that goes non-finite: from (3, 1e154)
    # under V the first step overflows, leaving the finite start row
    dyn = example_setup["dyn"]
    ctrl = rzk.ControllerSpec(example_setup["V"], example_setup["gains"], 2.0)
    s = IntegrationSettings(h=1e-3, T=0.5)
    start = np.array([3.0, 1e154])
    with pytest.raises(IntegrationDiverged) as ei:
        rzk.integrate(dyn, ctrl, hist.from_constant(start, 0.3), s)
    tr = ei.value.trajectory
    assert tr.diverged and ei.value.step_index == tr.xs.shape[0] == 1
    assert np.array_equal(tr.xs, [start])
    # the batch reports instead of raising, and the other lane runs on
    got = rzk.batch_integrate(dyn, ctrl, [hist.from_constant(start, 0.3),
                                          hist.from_constant(np.ones(2), 0.3)],
                              s)
    assert [g.diverged for g in got] == [True, False]
    assert got[0].xs.shape == (1, 2) and got[1].xs.shape == (501, 2)


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
    # a horizon shorter than one step would give a one-sample run, which
    # the decrease check would pass vacuously
    with pytest.raises(ValueError, match="at least one step"):
        IntegrationSettings(h=1e-3, T=4e-4)
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
    # at 0 < tau < h the delayed read falls inside the step being taken
    with pytest.raises(ValueError, match="tau = 0 or tau >= h"):
        rzk.batch_integrate(rzk.ExampleDynamics(5e-4, 0.3), None,
                            [hist.from_constant(np.zeros(2), 0.3)],
                            IntegrationSettings(h=1e-3, T=1.0))
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
    # every weight e^{-mu lag} of the sup, |lag| <= delta, must be a finite
    # normal float: past simulate.MU_DELTA_MAX the batch is refused
    ctrl = rzk.ControllerSpec(example_setup["V"],
                              rzk.RazumikhinGains(2.5, 2.0, 701.0 / 0.3), 2.0)
    with pytest.raises(ValueError, match=r"need mu \* delta <= 700"):
        rzk.batch_integrate(dyn, ctrl, [good],
                            IntegrationSettings(h=1e-3, T=1.0))
    assert ran == []


def test_convergence_study_orders_on_smooth_plant(example_setup):
    # the open-loop example plant: every h divides tau and T, and x2 stays
    # positive, away from the friction's kink at 0
    dyn = example_setup["dyn"]
    xi = hist.from_constant(np.array([-2.0, 3.0]), 0.3)
    study = rzk.convergence_study(dyn, None, xi, 0.6, [6e-2, 3e-2, 1.5e-2])
    assert study["h"] == [6e-2, 3e-2, 1.5e-2]
    assert len(study["slopes"]) == 1
    assert study["slopes"][0] == pytest.approx(4.0, abs=0.3)
    assert np.isnan(study["max_margins"][0])
    with pytest.raises(ValueError):
        rzk.convergence_study(dyn, None, xi, 0.6, [3e-2, 1.5e-2])


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
    {"tau": 2e-3}, {"tau": 3e-3}, {"h": 1.7e-3}, {"h": 0.3 / 176.5},
    {"h": 0.3 / 176.5, "mu": 0.5}, {"h": 4e-3}, {"mu": 0.5},
    {"kind": "V"}, {"kind": "B"}, {"kind": None}, {"tau": 0.0},
    {"tau": 0.0, "mu": 0.5}],
    ids=["tau=h", "tau=1.5h", "h=1.7e-3", "D=176.5", "D=176.5,mu",
         "h=4e-3", "mu", "V", "B", "open", "tau=0", "tau=0,mu"])
def test_lockstep_matches_general_path(example_setup, case):
    # the lockstep's unwritten rows are NaN, so a read ahead of the accepted
    # history would show here; tau = h and 1.5 h put the delayed read next
    # to the frontier (blocks of one step), tau = 0 reads the stage itself
    # (blocks set by the read at theta = -delta), h = 1.7e-3 puts the read at
    # theta = -delta between rows (delta/h = 176.47), h = 4e-3 on a row of
    # a coarse run.  At delta/h = 176.5 the read at t_i + h/2 reaches one
    # row more than the read at t_{i+1}, the oldest, at lag 176.5 steps
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
        slow = reference(example_setup["dyn"], example_setup["ctrl"],
                         xi.copy(), s)
        for col in ("xs", "us", "margins", "slopes"):
            np.testing.assert_array_equal(getattr(fast, col),
                                          getattr(slow, col),
                                          err_msg=f"{name} {col}")


def _bits(a):
    # bit patterns, so 0.0 and -0.0 differ
    return np.ascontiguousarray(a, dtype=float).tobytes()


def test_each_lockstep_lane_equals_its_one_lane_run(example_setup,
                                                    monkeypatch):
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
    # a lane whose certificate goes NaN, then +inf, mid-window.  Under a
    # zero gradient its margins show the sup it acted on, which must carry
    # the NaN and the inf for the whole window behind them, as np.maximum
    # and the rebuilt sup take them; under W's gradient the NaN sup cuts
    # the run
    ics = [ics[0], hist.from_constant(np.array([0.0, 1.0]), 0.3)]
    s = IntegrationSettings(h=1e-3, T=0.6)
    for cert, cut in ((_holes(_dead_zone(example_setup["W"])), False),
                      (_holes(example_setup["W"]), True)):
        ctrl = rzk.ControllerSpec(cert, example_setup["gains"], 2.0)
        batch = rzk.batch_integrate(dyn, ctrl, ics, s)
        for w, tr in zip(ics, batch):
            single, = rzk.batch_integrate(dyn, ctrl, [w.copy()], s)
            for name in ("xs", "us", "margins", "slopes"):
                assert _bits(getattr(tr, name)) \
                    == _bits(getattr(single, name)), name
        assert batch[-1].diverged == cut
        if cut:
            continue
        for tr in batch:
            sup = verify.field_sup_series(tr, cert)
            with np.errstate(invalid="ignore"):
                want = 2.5 * cert.value_many(tr.xs) - 2.0 * sup
            np.testing.assert_array_equal(tr.margins, want)
        holed = batch[-1].margins
        # the NaN band holds the sup for the 300 rows of a window behind
        # it, the inf band, crossed inside that window, for the rest of its
        assert np.isnan(holed).sum() >= 300 and np.isneginf(holed).sum() >= 150
    # lanes under their own certificate and gains: the block reads make
    # one field call per certificate and the stages run one closure per
    # controller, at either mu and either delay kind
    starts = [(-4.0, 1.0), (1.0, 2.0), (-2.0, -1.0), (-2.0, 3.0),
              (1.0, 2.0), (-4.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    ics = [hist.from_constant(np.array(x), 0.3) for x in starts]
    ics[3] = _hazard_line()
    for tau, mu in itertools.product((0.0, 0.3), (0.0, 0.5)):
        dyn = rzk.example_system(rzk.ExampleConfig(tau, 0.3))
        ctrls = _own_controllers(example_setup, mu)
        batch = rzk.batch_integrate(dyn, ctrls, ics, s)
        for c, w, tr in zip(ctrls, ics, batch):
            single, = rzk.batch_integrate(dyn, c, [w.copy()], s)
            for name in ("xs", "us", "margins", "slopes"):
                assert _bits(getattr(tr, name)) \
                    == _bits(getattr(single, name)), (tau, mu, name)
        # the NaN certificate cuts its own lane only
        assert [tr.diverged for tr in batch] == [False] * 7 + [True]
    # one controller per lane, one mu, all controlled or all open-loop;
    # refused before any field is evaluated
    ctrl = example_setup["ctrl"]
    other_mu = rzk.ControllerSpec(example_setup["W"],
                                  rzk.RazumikhinGains(2.5, 2.0, 0.5), 2.0)
    monkeypatch.setattr(rzk.ScalarField, "value_many", None)
    for ctrls, match in (([ctrl, other_mu], "share mu"),
                         ([ctrl, None], "all controlled"),
                         ([None, ctrl], "all controlled"),
                         ([ctrl], "one controller per lane"),
                         ((ctrl, ctrl, ctrl), "one controller per lane")):
        for run in (rzk.batch_integrate, simulate._lockstep_example):
            with pytest.raises(ValueError, match=match):
                run(dyn, ctrls, ics[:2], s)
    with pytest.raises(ValueError, match="one controller per lane"):
        rzk.batch_integrate(dyn, [ctrl], [], s)


def _own_controllers(example_setup, mu):
    """Controllers at mu that differ in psi, lambda, gamma and eta, one of
    them shared by two lanes, then the NaN/+inf certificates of
    `test_each_lockstep_lane_equals_its_one_lane_run`, the cutting one
    last."""
    V, B, W = example_setup["V"], example_setup["B"], example_setup["W"]
    g = rzk.RazumikhinGains(2.5, 2.0, mu)
    W10 = rzk.ControllerSpec(rzk.combine_clbrf(V, B, 10.0), g, 2.0)
    return [W10, W10,
            rzk.ControllerSpec(W, g, 2.0),
            rzk.ControllerSpec(W, g, 0.5),
            rzk.ControllerSpec(W, rzk.RazumikhinGains(4.0, 2.0, mu), 2.0),
            rzk.ControllerSpec(W, rzk.RazumikhinGains(2.5, 0.5, mu), 2.0),
            rzk.ControllerSpec(_holes(_dead_zone(W)), g, 2.0),
            rzk.ControllerSpec(_holes(W), g, 2.0)]


def _holes(field):
    """field's values, NaN for 0.1 < x1 < 0.101 and +inf for 0.2 < x1 <
    0.201, with field's gradient."""
    def value_many(X):
        v = field.value_many(X).copy()
        v[(X[:, 0] > 0.1) & (X[:, 0] < 0.101)] = np.nan
        v[(X[:, 0] > 0.2) & (X[:, 0] < 0.201)] = np.inf
        return v
    return rzk.ScalarField(2, value_many, field.grad_many, name="holes")


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


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_csv_recheck_reads_the_sampled_start_with_the_runs_k1(
        example_setup, mu, tmp_path):
    # a CSV holds no slopes; the re-check takes the one at t = 0, through
    # which the reads of the last pre-history interval go, from the plant
    # and the recorded u, so it rebuilds the run's sup exactly
    dyn = example_setup["dyn"]
    V, B, W = example_setup["V"], example_setup["B"], example_setup["W"]
    ctrl = rzk.ControllerSpec(W, rzk.RazumikhinGains(2.5, 2.0, mu), 2.0)
    wins = _sampled_windows()
    trajs = rzk.batch_integrate(dyn, ctrl, list(wins.values()),
                                IntegrationSettings(h=1e-3, T=1.0))
    for (name, w), tr in zip(wins.items(), trajs):
        path = tmp_path / "tr.csv"
        io.write_trajectory_csv(path, *io.trajectory_columns(tr, V, B, W))
        back = io.trajectory_from_csv(*io.read_trajectory_csv(path), dyn, w)
        assert _bits(back.slopes[0]) == _bits(tr.slopes[0]), name
        assert _bits(verify.field_sup_series(back, W, mu)) \
            == _bits(verify.field_sup_series(tr, W, mu)), name


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
    slow = reference(dyn, ctrl, xi.copy(), s)
    for tr in (fast, slow):
        got = (gains.gamma * cert.value_many(tr.xs) - tr.margins) / gains.eta
        ref = _brute_force_sup(tr, cert, mu)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("steps", [176.5, 176.9, 300.0])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_lockstep_mid_step_sup_takes_every_row_in_reach(example_setup,
                                                        monkeypatch, steps,
                                                        mu):
    # the margins show the sup at the samples only; the sup at t_i + h/2,
    # which stages 1 and 2 act on, is read back from each stage's
    # activation a = gamma W - eta sup under a dead-zone certificate.  Where
    # floor(2 delta/h) is odd (176.5, 176.9) that read reaches one row more
    # than the read at t_{i+1}, the oldest, at lag floor(2 delta/h)/2 steps;
    # from this start, at 176.9, it beats every other row and the endpoint
    # read at three steps
    W = example_setup["W"]
    vals, acts = [], []

    def point(*x):
        v = float(W.value_many(np.array([x]))[0])
        vals.append(v)
        return v, 0.0, 0.0

    def law(a, qq, lam):
        acts.append(a)
        return controller.law(a, qq, lam)

    cert = rzk.ScalarField(2, W.value_many, lambda X: np.zeros(X.shape),
                           value_grad=point)
    gains = rzk.RazumikhinGains(2.5, 2.0, mu)
    monkeypatch.setattr(simulate, "law", law)
    h = 0.3 / steps
    tr = simulate._lockstep_example(
        example_setup["dyn"], rzk.ControllerSpec(cert, gains, 2.0),
        [hist.from_constant(np.array([0.5, -2.0]), 0.3)],
        IntegrationSettings(h=h, T=3.0))[0]
    got = ((gains.gamma * np.array(vals) - np.array(acts))
           / gains.eta)[:-1].reshape(-1, 4)
    whole, _ = _whole_history(tr)
    times = whole.ts[:whole.count]
    rows = W.value_many(whole.xs[:whole.count])
    for i, t in enumerate(tr.ts[:-1] + 0.5 * h):
        end = W.value(whole.interp_times([t - 0.3])[0])
        near = (times >= t - 0.3 - 1e-12) & (times <= t)
        ref = np.max(np.exp(mu * np.concatenate([[-0.3], times[near] - t]))
                     * np.concatenate([[end], rows[near]]))
        for k in (1, 2):
            v = vals[4 * i + k]
            np.testing.assert_allclose(got[i, k], max(ref, v), rtol=1e-10,
                                       atol=1e-10, err_msg=f"step {i}")


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


def _cut_lane_run(example_setup, monkeypatch, rows=None):
    """A finite start and (3, 1e154), which goes non-finite at row 1, to
    T = 0.4 in one lockstep, handing on blocks of `rows` rows (one block
    for the run when None): the two runs, the one-lane run of the finite
    start, the law calls of the lockstep and the `value_many` points of
    the lockstep and of the one-lane run."""
    dyn, ctrl = example_setup["dyn"], example_setup["ctrl"]
    s = IntegrationSettings(h=1e-3, T=0.4)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in ([-2.0, -1.0], [3.0, 1e154])]
    points = []
    value_many = ctrl.certificate.value_many

    def counted(X):
        points.append(np.asarray(X).reshape(-1, 2).shape[0])
        return value_many(X)

    monkeypatch.setattr(ctrl.certificate, "value_many", counted)
    alone = rzk.batch_integrate(dyn, ctrl, ics[:1], s)[0]
    alone_points = sum(points)
    points.clear()
    calls = []

    def law(a, qq, lam):
        calls.append(a)
        return controller.law(a, qq, lam)

    monkeypatch.setattr(simulate, "law", law)
    if rows:
        monkeypatch.setattr(simulate, "BLOCK_LANE_ROWS", 2 * rows)
    fine, cut = simulate._lockstep_example(dyn, ctrl, ics, s)
    assert cut.diverged and cut.xs.shape[0] == 1 and not fine.diverged
    for name in ("xs", "us", "margins", "slopes"):
        assert _bits(getattr(fine, name)) == _bits(getattr(alone, name)), name
    return len(calls), sum(points), alone_points


def test_a_cut_lane_stops_calling_its_certificate_and_law(example_setup,
                                                          monkeypatch):
    # the start (3, 1e154) is cut when its first block of 50 rows is
    # handed on, before step 49; from then on its stage returns NaNs
    # without a law call and the block reads evaluate no certificate on
    # it, while the finite lane next to it keeps its bits
    calls, points, alone = _cut_lane_run(example_setup, monkeypatch, 50)
    # one call per stage: the first, then four per step
    assert calls == (1 + 4 * 400) + (1 + 4 * 49)
    # the cut lane is read at t = 0 and in the reads of steps 0 .. 298,
    # made before step 0: two points a step, as for the finite lane
    assert points == alone + 1 + 2 * 299


def test_a_lane_is_dropped_at_the_first_block_read_after_it_diverges(
        example_setup, monkeypatch):
    # with one block for the whole run nothing is handed on before the
    # end: the lane is dropped at the block reads of step 299, the first
    # made after row 1, and reads no more than in the test above
    calls, points, alone = _cut_lane_run(example_setup, monkeypatch)
    assert calls == (1 + 4 * 400) + (1 + 4 * 299)
    assert points == alone + 1 + 2 * 299


def test_the_largest_accepted_mu_keeps_every_weight_finite(example_setup):
    # at the largest mu the config accepts every block weight is a finite
    # normal float, and the sup each lane acts on, read back from its
    # margins under a dead-zone certificate, is finite, the rebuilt one bit
    # for bit, and the brute-force one within the anchored rows' floor
    delta, h = 0.3, 1e-3
    mu = simulate.MU_DELTA_MAX / delta
    while mu * delta > simulate.MU_DELTA_MAX:
        mu = math.nextafter(mu, 0.0)
    cfg = cli.demo_config()
    cfg["gains"]["mu"] = mu
    assert cli.RunConfig(cfg).mu == mu
    wt = hist.sup_blocks(mu, delta, h)[2]
    assert np.all(np.isfinite(wt)) and wt.min() >= np.finfo(float).tiny
    cert = _dead_zone(example_setup["W"])
    gains = rzk.RazumikhinGains(2.5, 2.0, mu)
    ics = [hist.from_constant(np.array([-2.0, -1.0]), delta),
           _sampled_windows()["hazard"]]
    for tr in rzk.batch_integrate(example_setup["dyn"],
                                  rzk.ControllerSpec(cert, gains, 2.0), ics,
                                  IntegrationSettings(h=h, T=0.8)):
        sup = verify.field_sup_series(tr, cert, mu)
        assert not tr.diverged and np.all(np.isfinite(sup))
        np.testing.assert_array_equal(
            tr.margins, gains.gamma * cert.value_many(tr.xs) - gains.eta * sup)
        np.testing.assert_allclose(sup, _brute_force_sup(tr, cert, mu),
                                   rtol=1e-12, atol=1e-18)


# kind V at mu = 0.5 from the demo starts to T = 3, a converging run: the
# final state, and u and the margin at rows 0, 150, 300, 1000 and 3000, as
# the rows' weights formed per lag in an O(M) max over the rows in reach
# gave them before the sup took anchored block weights
_MU_PINS = [
    ([-0.6074206406148703, 0.19849801607929224],
     [1.29199144727489, 0.14888116582240427, 0.0009707211412976266,
      -0.46030608292731107, 0.3288493781940713],
     [-7.4839829011454695, -7.087389893299089, -7.887209075288781,
      -6.628275388644828, -0.06293200060217687]),
    ([-0.49911120748626997, 0.16201997719703237],
     [4.224629227999363, 0.9820609565659537, 0.07963231733711176,
      -0.14221830338467417, 0.38592185122062267],
     [-23.598516898806068, -12.31207784081109, -9.288939632046985,
      -2.3819385774828836, -0.04768608368109887]),
    ([0.3871056726883121, -0.12924939598353954],
     [-5.72841614740048, -1.6955967817180495, -0.308763500200732,
      0.0783174765717139, -0.4263180656056695],
     [-36.1420807370024, -18.764353325281256, -13.96391866667281,
      -1.27083206817637, -0.032403239570272434]),
    ([-0.30847765209449346, 0.10607611703928384],
     [-4.224629225637829, -1.8097901663439586, -0.7470786352373469,
      -0.01468408522181866, 0.4324498166556263],
     [-23.598516902551314, -16.6450616636722, -14.448978803766352,
      -0.9639068225839579, -0.022894700128146924]),
]


def test_mu_runs_keep_their_pinned_outputs(example_setup):
    # the anchored weights round differently from the per-lag ones by an
    # ulp; on a converging run that stays within 1e-12
    ctrl = rzk.ControllerSpec(example_setup["V"],
                              rzk.RazumikhinGains(2.5, 2.0, 0.5), 2.0)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in cli.DEMO_INITIAL_CONDITIONS]
    rows = [0, 150, 300, 1000, 3000]
    trajs = rzk.batch_integrate(example_setup["dyn"], ctrl, ics,
                                IntegrationSettings(h=1e-3, T=3.0))
    for tr, (final, us, margins) in zip(trajs, _MU_PINS):
        for got, want in ((tr.xs[-1], final), (tr.us[rows, 0], us),
                          (tr.margins[rows], margins)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
