import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, io, history as hist, verify
from rzk.simulate import IntegrationSettings, Trajectory


@pytest.fixture(scope="module")
def runs(example_setup):
    """Short closed- and open-loop example runs shared across checks."""
    dyn = example_setup["dyn"]
    V = example_setup["V"]
    fields = {"V": V, "B": example_setup["B"], "W": example_setup["W"]}
    ctrlV = rzk.ControllerSpec(V, example_setup["gains"], 2.0)
    closedV = rzk.integrate(dyn, ctrlV,
                            hist.from_constant(np.array([-2.0, -1.0]), 0.3),
                            IntegrationSettings(h=1e-3, T=2.0), fields=fields)
    closedW = rzk.integrate(dyn, example_setup["ctrl"],
                            hist.from_constant(np.array([-2.0, -1.0]), 0.3),
                            IntegrationSettings(h=1e-3, T=1.0), fields=fields)
    open_far = rzk.integrate(dyn, None,
                             hist.from_constant(np.array([2.0, 2.0]), 0.3),
                             IntegrationSettings(h=1e-3, T=5.0), fields=fields)
    return {"closedV": closedV, "closedW": closedW, "open_far": open_far}


def test_unsafe_set_membership_oracles():
    unsafe = verify.example_unsafe_set()
    assert unsafe.membership(np.array([-2.0, 1.0]))          # box center
    assert not unsafe.membership(np.array([-2.9, 0.05]))     # near corner, H > 4
    assert not unsafe.membership(np.array([0.0, 0.0]))       # outside the box
    # margin positive inside D, negative on the in-box complement
    assert unsafe.boundary_margin(np.array([[-2.0, 1.0]]))[0] > 0
    assert unsafe.boundary_margin(np.array([[-2.9, 0.05]]))[0] < 0


def test_refined_membership_intersects_candidate_sign():
    unsafe = verify.example_unsafe_set()
    neg = rzk.quadratic_field(-np.eye(2), name="neg")
    pred = unsafe.refined_membership(neg)
    assert not pred(np.array([[-2.0, 1.0]]))[0]    # in D but W < 0 there
    pos = rzk.example_lyapunov()
    predp = unsafe.refined_membership(pos)
    assert predp(np.array([[-2.0, 1.0]]))[0]


def test_barrier_sign_tracks_membership(rng):
    unsafe = verify.example_unsafe_set()
    B = rzk.example_barrier()
    X = rng.uniform(-4.0, 4.0, size=(500, 2))
    assert np.array_equal(B.value_many(X) > 0, unsafe.membership_many(X))


def test_safety_check_vacuous_outside_region(example_setup):
    tr = rzk.integrate(example_setup["dyn"], None,
                       hist.from_constant(np.zeros(2), 0.3),
                       IntegrationSettings(h=1e-2, T=0.3))
    rep = verify.safety_check(tr, example_setup["unsafe"])
    assert rep.passed and bool(rep)
    assert rep.details["vacuous"] and rep.details["samples_in_region"] == 0


def test_safety_check_catches_unsafe_initial_history(example_setup):
    # constant history parked inside D: the witness is a history sample,
    # reported at negative time
    tr = rzk.integrate(example_setup["dyn"], None,
                       hist.from_constant(np.array([-2.5, 0.9]), 0.3),
                       IntegrationSettings(h=1e-2, T=0.1))
    rep = verify.safety_check(tr, example_setup["unsafe"])
    assert not rep.passed
    assert rep.witness["time"] == pytest.approx(-0.3)
    assert rep.witness["state"] == pytest.approx([-2.5, 0.9])


def test_safety_check_catches_excursion_mid_run(example_setup):
    ts = np.array([0.0, 0.5, 1.0])
    xs = np.array([[0.0, 0.5], [-2.0, 1.0], [0.0, 1.5]])
    tr = Trajectory(ts, xs, np.zeros((3, 1)), np.zeros(3), np.zeros((3, 2)),
                    {}, {"delta": 0.3, "h": 0.5}, hist.from_constant(xs[0], 0.3),
                    False)
    rep = verify.safety_check(tr, example_setup["unsafe"])
    assert not rep.passed
    assert rep.witness["time"] == pytest.approx(0.5)
    assert rep.witness["state"] == pytest.approx([-2.0, 1.0])


def test_decrease_check_passes_closed_loop(runs, example_setup):
    rep = verify.decrease_check(runs["closedV"], example_setup["V"],
                                example_setup["gains"])
    assert rep.passed
    assert rep.worst < 0.0
    assert rep.tolerances["tol"] == pytest.approx(10 * 1e-3)


def test_decrease_check_fails_open_loop(runs, example_setup):
    rep = verify.decrease_check(runs["open_far"], example_setup["V"],
                                example_setup["gains"])
    assert not rep.passed
    assert rep.worst > 0.3
    assert rep.details["violations"] > 0
    assert rep.details["first_violation_time"] == pytest.approx(2.593, abs=1e-3)


def test_decrease_tolerance_scales_with_step(example_setup):
    dyn = example_setup["dyn"]
    for h in (1e-3, 2e-3):
        tr = rzk.integrate(dyn, None, hist.from_constant(np.zeros(2), 0.3),
                           IntegrationSettings(h=h, T=0.1))
        rep = verify.decrease_check(tr, example_setup["V"], example_setup["gains"])
        assert rep.tolerances["tol"] == pytest.approx(10 * h)
        assert rep.passed    # the rest state satisfies the inequality exactly


def test_envelope_check_ratio_form(runs, example_setup):
    rep = verify.envelope_check(runs["closedV"], example_setup["V"],
                                example_setup["cert"])
    assert rep.passed
    assert rep.details["form"] == "ratio"
    assert rep.details["start"] == pytest.approx(7.0)
    assert rep.worst <= 1.0 + 1e-6


def test_envelope_check_signed_form(runs, example_setup):
    # W starts negative outside the box; the envelope then just asserts it
    # never crosses zero
    rep = verify.envelope_check(runs["closedW"], example_setup["W"],
                                example_setup["cert"])
    assert rep.passed
    assert rep.details["form"] == "signed"
    assert rep.worst < 0.0


def test_envelope_check_recomputes_unlogged_field(runs, example_setup):
    tr = runs["closedV"]
    stripped = Trajectory(tr.ts, tr.xs, tr.us, tr.margins, tr.slopes,
                          {}, dict(tr.meta), tr.ic_window, False)
    a = verify.envelope_check(tr, example_setup["V"], example_setup["cert"])
    b = verify.envelope_check(stripped, example_setup["V"], example_setup["cert"])
    assert a.worst == pytest.approx(b.worst, rel=1e-12)


def test_construction_check_full_pass(example_setup):
    rep = verify.clbrf_construction_check(
        example_setup["V"], example_setup["B"], rzk.example_sandwich(),
        rzk.EXAMPLE_BOX, rzk.example_margin, boundary_grid=256, psi=82.0,
        gains=(example_setup["gains"], example_setup["gains"]),
        unsafe=example_setup["unsafe"])
    assert rep.passed
    assert rep.psi_min == pytest.approx(81.89722504971638, abs=5e-4)
    assert rep.details["gain_ordering"]["pass"]
    assert rep.details["sublevel_witness"] is not None
    assert rep.details["exterior"]["worst_slack"] <= 1e-12


def test_construction_check_flags_psi_at_threshold(example_setup):
    rep = verify.clbrf_construction_check(
        example_setup["V"], example_setup["B"], rzk.example_sandwich(),
        rzk.EXAMPLE_BOX, rzk.example_margin, boundary_grid=128, psi=10.0)
    assert not rep.passed
    assert rep.witness is not None and rep.witness["state"] is not None
    assert rep.details["psi_above_min"] is False
    # gains not supplied: the ordering item is reported as skipped
    assert "skipped" in rep.details["gain_ordering"]


def test_construction_check_validates_grid(example_setup):
    with pytest.raises(ValueError):
        verify.clbrf_construction_check(
            example_setup["V"], example_setup["B"], rzk.example_sandwich(),
            rzk.EXAMPLE_BOX, rzk.example_margin, boundary_grid=64)


def test_separation_check_passes_merged_candidate(example_setup):
    rep = verify.separation_check(example_setup["unsafe"], example_setup["W"])
    assert rep.passed
    assert rep.worst < -1e-6
    assert rep.tolerances["eps"] == pytest.approx(1e-2)


def test_separation_check_fails_without_barrier(example_setup):
    # V alone stays positive across the boundary shell
    rep = verify.separation_check(example_setup["unsafe"], example_setup["V"])
    assert not rep.passed
    assert rep.worst > 0.0
    assert rep.witness is not None


def test_separation_check_vacuous_and_validation(example_setup):
    neg = rzk.quadratic_field(-np.eye(2), name="neg")
    rep = verify.separation_check(example_setup["unsafe"], neg)
    assert rep.passed and rep.details["vacuous"]
    with pytest.raises(ValueError):
        verify.separation_check(example_setup["unsafe"], example_setup["W"],
                                budget=500)


def test_window_states_reconstruction(runs, example_setup):
    tr = runs["closedV"]
    ws = verify.window_states(tr, 66)
    assert ws.shape == (tr.xs.shape[0], 66, 2)
    # sample 0: the whole window is the constant initial history
    assert np.allclose(ws[0], tr.xs[0], atol=1e-12)
    # the head of every window is the sample itself
    assert np.allclose(ws[:, -1, :], tr.xs, atol=1e-12)
    V = example_setup["V"]
    sup = verify.field_sup_series(tr, V, 0.0, 66)
    assert sup[0] == pytest.approx(V.value(tr.xs[0]))
    assert np.all(sup >= V.value_many(tr.xs) - 1e-12)


def test_report_shape():
    rep = verify.VerificationReport("demo", True, -0.5, None,
                                    {"tol": 1e-3}, {"extra": 1})
    d = rep.as_dict()
    assert set(d) == {"check", "pass", "worst", "witness", "tolerances",
                      "details"}
    assert bool(rep)


def _crossing_history_run(example_setup, T=0.05):
    """Closed-loop run from a sampled history through the hazard centre
    (-2, 1): the pre-history reads go through the initial window."""
    w = hist.HistoryWindow(2, 0.3)
    for k in range(31):
        s = k / 30.0
        w.push(-0.3 + 0.01 * k, np.array([-2.5 + 2.0 * s, 0.5 + 2.0 * s]))
    return rzk.integrate(example_setup["dyn"], example_setup["ctrl"], w,
                         IntegrationSettings(h=1e-3, T=T))


def test_window_states_row_range(example_setup):
    tr = _crossing_history_run(example_setup)
    full = verify.window_states(tr, 66)
    np.testing.assert_array_equal(verify.window_states(tr, 66, 17, 40),
                                  full[17:40])
    np.testing.assert_array_equal(verify.window_states(tr, 66, 0, 1),
                                  full[:1])


def test_blocked_sup_series_equals_unblocked(example_setup, monkeypatch):
    tr = _crossing_history_run(example_setup)
    W = example_setup["W"]
    N = tr.xs.shape[0]
    for mu in (0.0, 0.7):
        ws = verify.window_states(tr, 66)
        ref = W.value_many(ws.reshape(-1, 2)).reshape(N, 66)
        if mu:
            ref = ref * np.exp(mu * hist.theta_grid(0.3, 66))[None, :]
        ref = ref.max(axis=1)
        # 7 does not divide N = 51: six full blocks and a short last one
        monkeypatch.setattr(verify, "SUP_BLOCK", 7)
        np.testing.assert_array_equal(verify.field_sup_series(tr, W, mu, 66),
                                      ref)
        monkeypatch.undo()
        np.testing.assert_array_equal(verify.field_sup_series(tr, W, mu, 66),
                                      ref)


def test_safety_check_reads_initial_window_only(example_setup, runs,
                                                monkeypatch):
    trajs = [_crossing_history_run(example_setup), runs["closedW"],
             runs["open_far"]]
    new = [verify.safety_check(tr, example_setup["unsafe"]).as_dict()
           for tr in trajs]
    calls = []
    full_build = verify.window_states

    def every_window(traj, grid=None, start=0, stop=None):
        # the earlier build: all N windows, of which the check keeps row 0
        calls.append((start, stop))
        return full_build(traj, grid)

    monkeypatch.setattr(verify, "window_states", every_window)
    old = [verify.safety_check(tr, example_setup["unsafe"]).as_dict()
           for tr in trajs]
    assert calls == [(0, 1)] * 3
    assert new == old
    # the crossing history runs through D: the witness is a history sample
    assert not new[0]["pass"] and new[0]["witness"]["time"] < 0.0


def _fancy_window_states(traj, grid, start, stop):
    """The earlier gather: one fancy-index copy of every row read, clipped
    to [0, N - 1], then the pre-history through the initial window."""
    h = traj.h
    xs, ms = traj.xs, traj.slopes
    N = xs.shape[0]
    thetas = hist.theta_grid(traj.meta["delta"], grid)
    i0, b00, b10, b01, b11 = hist.hermite_tables(thetas / h, h)
    rows = np.arange(start, stop)[:, None] + i0[None, :]
    safe = np.clip(rows, 0, N - 1)
    nxt = np.clip(safe + 1, 0, N - 1)
    vals = (b00[None, :, None] * xs[safe] + b10[None, :, None] * ms[safe]
            + b01[None, :, None] * xs[nxt] + b11[None, :, None] * ms[nxt])
    tread = traj.ts[start:stop, None] + thetas[None, :]
    pre = tread <= 1e-15
    if pre.any():
        vals[pre] = traj.ic_window.interp_times(tread[pre])
    return vals


def _bits(a):
    # bit patterns, so 0.0 and -0.0 differ
    return np.ascontiguousarray(a, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(grid=st.sampled_from([2, 10, 66]), h=st.floats(1e-3, 0.05),
       span=st.floats(1.0, 40.0), nrows=st.integers(2, 120),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_window_states_slices_equal_fancy_gather(grid, h, span, nrows, seed,
                                                 data):
    # delta = span steps; start near 0 clips columns at row 0, stop = N
    # the theta = 0 column at row N - 1, and the first delta of samples
    # reads the sampled pre-history
    rng = np.random.default_rng(seed)
    delta = span * h
    ic = hist.HistoryWindow(2, delta)
    m = data.draw(st.integers(2, 12), label="history samples")
    for t in np.linspace(-delta, 0.0, m):
        ic.push(t, rng.normal(size=2), rng.normal(size=2))
    xs = rng.normal(size=(nrows, 2))
    xs[0] = ic.latest_state
    tr = Trajectory(np.arange(nrows) * h, xs, np.zeros((nrows, 1)),
                    np.zeros(nrows), rng.normal(size=(nrows, 2)), {},
                    {"h": h, "delta": delta, "grid": grid}, ic)
    start = data.draw(st.integers(0, nrows - 1), label="start")
    stop = data.draw(st.integers(start, nrows), label="stop")
    got = verify.window_states(tr, grid, start, stop)
    assert got.shape == (stop - start, grid, 2)
    assert _bits(got) == _bits(_fancy_window_states(tr, grid, start, stop))


def _without_sup(tr):
    """tr without the integrator's recorded sup, so checks rebuild it."""
    return Trajectory(tr.ts, tr.xs, tr.us, tr.margins, tr.slopes, tr.fields,
                      tr.meta, tr.ic_window, tr.diverged)


@pytest.mark.parametrize("grid", [10, 66])
@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["V", "B", "W"])
def test_recorded_sup_equals_rebuilt_sup(example_setup, kind, mu, grid):
    # the lockstep's first-stage sup is the same arithmetic on the same
    # rows as the windows the verifier rebuilds, so handing it over must
    # not move a bit of the series or of the decrease report
    field = example_setup[kind]
    gains = rzk.RazumikhinGains(2.5, 2.0, mu)
    ctrl = rzk.ControllerSpec(field, gains, 2.0, grid=grid)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in cli.DEMO_INITIAL_CONDITIONS]
    trajs = rzk.batch_integrate(example_setup["dyn"], ctrl, ics,
                                IntegrationSettings(h=1e-3, T=0.6,
                                                    records=(), grid=grid))
    for tr in trajs:
        rec = tr.history_sup
        assert not tr.diverged and rec is not None
        assert rec.field is field and rec.mu == mu and rec.grid == grid
        assert not rec.values.flags.writeable
        plain = _without_sup(tr)
        got = verify.field_sup_series(tr, field, mu, grid)
        assert got is rec.values
        assert _bits(got) == _bits(verify.field_sup_series(plain, field, mu,
                                                           grid))
        assert (repr(verify.decrease_check(tr, field, gains).as_dict())
                == repr(verify.decrease_check(plain, field, gains).as_dict()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sup_is_rebuilt_unless_recorded_for_that_field(example_setup, runs,
                                                       tmp_path, monkeypatch):
    dyn = example_setup["dyn"]
    V, B, W = example_setup["V"], example_setup["B"], example_setup["W"]
    gains = example_setup["gains"]
    # the first control of a field this steep overflows away from the
    # origin, so that lane diverges; the lane at rest does not
    steep = rzk.quadratic_field(1e200 * np.eye(2), name="steep")
    blown, rest = rzk.batch_integrate(
        dyn, rzk.ControllerSpec(steep, gains, 2.0),
        [hist.from_constant(np.array(x), 0.3) for x in ((1.0, 1.0), (0, 0))],
        IntegrationSettings(h=1e-3, T=0.05, records=()))
    assert blown.diverged and blown.history_sup is None
    assert not rest.diverged and rest.history_sup.field is steep
    # NaN for x1 > 0.5, flat elsewhere: the open-loop state crosses into
    # it at t = 0.1 while the older history reads stay finite, where the
    # lockstep's max would skip the NaN that np.max keeps
    holed = rzk.ScalarField(
        2, lambda X: np.where(X[:, 0] > 0.5, np.nan, 0.0),
        lambda X: np.zeros_like(X), name="holed")
    crossed, = rzk.batch_integrate(
        dyn, rzk.ControllerSpec(holed, gains, 2.0),
        [hist.from_constant(np.array([0.4, 1.0]), 0.3)],
        IntegrationSettings(h=1e-3, T=0.2, records=()))
    assert not crossed.diverged and crossed.history_sup is None
    general = _crossing_history_run(example_setup)
    assert general.history_sup is None
    lockstep = runs["closedW"]
    assert lockstep.history_sup.field is W
    path = tmp_path / "closedW.csv"
    names, table = io.trajectory_columns(lockstep, V, B, W, bound=None)
    io.write_trajectory_csv(path, names, table)
    from_csv = io.trajectory_from_csv(*io.read_trajectory_csv(path), 0.3)
    assert from_csv.history_sup is None

    builds = []
    build = verify.window_states

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(verify, "window_states", counted)
    verify.field_sup_series(lockstep, W, 0.0)
    verify.field_sup_series(rest, steep, gains.mu, 66)
    assert builds == []
    other_W = rzk.combine_clbrf(V, B, 82.0)
    for tr, field, mu, grid in ((blown, steep, 0.0, None),
                                (crossed, holed, 0.0, None),
                                (general, W, 0.0, None),
                                (from_csv, W, 0.0, None),
                                (lockstep, other_W, 0.0, None),
                                (lockstep, V, 0.0, None),
                                (lockstep, W, 0.5, None),
                                (lockstep, W, 0.0, 10)):
        builds.clear()
        verify.field_sup_series(tr, field, mu, grid)
        assert builds and builds[0] is tr
