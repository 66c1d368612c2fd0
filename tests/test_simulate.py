import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, history as hist, simulate
from rzk.simulate import IntegrationDiverged, IntegrationSettings


def exponential_plant():
    """xdot = -x(t), no delayed reads; exact solution e^{-t}."""
    return rzk.DelayDynamics(1, 1, lambda w: -w.latest_state.copy(),
                             lambda w: np.zeros((1, 1)), 0.3, name="exp")


def blowup_plant():
    """xdot = x^2 escapes to infinity in finite time."""
    return rzk.DelayDynamics(1, 1, lambda w: w.latest_state ** 2,
                             lambda w: np.zeros((1, 1)), 0.3, name="blowup")


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


def _assert_paths_agree(dyn, ctrl, s, tol=1e-10):
    # a plant of another name takes the general path
    clone = rzk.DelayDynamics(dyn.n, dyn.m, dyn.f, dyn.g, dyn.delta,
                              read_points=dyn.read_points, name="clone")
    xi = hist.from_constant(np.array([-2.0, -1.0]), 0.3)
    fast = rzk.integrate(dyn, ctrl, xi.copy(), s)
    slow = rzk.integrate(clone, ctrl, xi.copy(), s)
    assert not fast.diverged and fast.xs.shape == slow.xs.shape
    assert np.max(np.abs(fast.xs - slow.xs)) < tol
    assert np.max(np.abs(fast.us - slow.us)) < tol
    # an open-loop run has no certificate, so its margins are NaN on both
    # paths; a controlled run's margins must be finite and agree
    np.testing.assert_allclose(fast.margins, slow.margins, rtol=0, atol=tol,
                               equal_nan=ctrl is None)


def test_fast_and_general_paths_agree(example_setup):
    _assert_paths_agree(example_setup["dyn"], example_setup["ctrl"],
                        IntegrationSettings(h=1e-3, T=1.0))


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


def test_settings_and_window_validation(example_setup):
    with pytest.raises(ValueError):
        IntegrationSettings(h=0.0, T=1.0)
    with pytest.raises(ValueError):
        IntegrationSettings(h=1e-3, T=0.0)
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


def test_trajectory_field_logging(example_setup):
    dyn = example_setup["dyn"]
    V = example_setup["V"]
    xi = hist.from_constant(np.array([0.5, -0.5]), 0.3)
    s = IntegrationSettings(h=1e-2, T=0.2, records=("V",))
    tr = rzk.integrate(dyn, None, xi, s, fields={"V": V})
    assert "V" in tr.fields
    assert np.allclose(tr.fields["V"], V.value_many(tr.xs))


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


def test_lockstep_evaluates_two_sup_grids_per_step(example_setup):
    # stages 1 and 2 read the sup grid at t_i + h/2, stage 3 of step i and
    # stage 0 of step i + 1 at t_{i+1}.  Those reads lie at least 4.6 steps
    # back, so they are made for blocks of L = 4 steps in one field call:
    # one call at t = 0, then one of 2 L grids per block
    W = example_setup["W"]
    grid_calls = []

    def counted(X):
        if X.shape[0] >= 65 * 4:
            grid_calls.append(X.shape[0])
        return W.value_many(X)

    cert = rzk.ScalarField(2, counted, W.grad_many, name="W")
    ctrl = rzk.ControllerSpec(cert, example_setup["gains"], 2.0)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in ((-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0))]
    s = IntegrationSettings(h=1e-3, T=0.05)
    out = rzk.batch_integrate(example_setup["dyn"], ctrl, ics, s)
    grid = 65 * 4
    assert grid_calls == [grid] + [2 * 4 * grid] * 12 + [2 * 2 * grid]
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
    assert lanes == [2]
    single = rzk.integrate(dyn, ctrl, sampled.copy(), s)
    assert np.array_equal(out[0].xs, single.xs)
    pair = rzk.batch_integrate(dyn, ctrl, consts, s)
    for a, b in zip(out[1:], pair):
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)


@pytest.mark.parametrize("case", [
    {"tau": 2e-3}, {"tau": 3e-3}, {"grid": 10}, {"h": 4e-3}, {"mu": 0.5},
    {"kind": "V"}, {"kind": "B"}, {"kind": None}],
    ids=["tau=h", "tau=1.5h", "grid=10", "h=4e-3", "mu", "V", "B", "open"])
def test_lockstep_matches_general_path(example_setup, case):
    # the lockstep's unwritten rows are NaN, so a read ahead of the accepted
    # history would show here; tau = h and 1.5 h put the delayed read next
    # to the frontier, grid = 10 gives blocks of L = 33 steps, h = 4e-3
    # blocks of one step
    dyn = rzk.example_system(rzk.ExampleConfig(case.get("tau", 0.3)))
    kind = case.get("kind", "W")
    ctrl = None
    if kind is not None:
        gains = rzk.RazumikhinGains(2.5, 2.0, case.get("mu", 0.0))
        ctrl = rzk.ControllerSpec(example_setup[kind], gains, 2.0)
    _assert_paths_agree(dyn, ctrl, IntegrationSettings(
        h=case.get("h", 2e-3), T=0.4, grid=case.get("grid", 66)))


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
        IntegrationSettings(h=1e-3, T=1e-3, records=()), {}, {})[0]
    u, margin = float(tr.us[0, 0]), float(tr.margins[0])
    if q * q <= ctrl.q_threshold ** 2:
        assert u == 0.0 and margin == a
        return
    root = math.sqrt(a * a + lam * q ** 4)
    assert margin == pytest.approx(-root, rel=1e-14, abs=0.0)
    # closed loop: a + q u = -sqrt(a^2 + lambda q^4), up to rounding
    assert abs(a + q * u + root) <= 8 * np.finfo(float).eps * (abs(a) + root)
