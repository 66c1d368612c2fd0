import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, fields, io, history as hist, verify
from rzk.simulate import IntegrationSettings, Trajectory
from test_fields import (_COORD, _IN, _NAN, _NEAR_WALL, _OUT, _WALL,
                         _blend_band, _by_a_wall)


@pytest.fixture(scope="module")
def runs(example_setup):
    """Short closed- and open-loop example runs shared across checks."""
    dyn = example_setup["dyn"]
    V = example_setup["V"]
    ctrlV = rzk.ControllerSpec(V, example_setup["gains"], 2.0)
    closedV = rzk.integrate(dyn, ctrlV,
                            hist.from_constant(np.array([-2.0, -1.0]), 0.3),
                            IntegrationSettings(h=1e-3, T=2.0))
    closedW = rzk.integrate(dyn, example_setup["ctrl"],
                            hist.from_constant(np.array([-2.0, -1.0]), 0.3),
                            IntegrationSettings(h=1e-3, T=1.0))
    open_far = rzk.integrate(dyn, None,
                             hist.from_constant(np.array([2.0, 2.0]), 0.3),
                             IntegrationSettings(h=1e-3, T=5.0))
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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_IN, _OUT, _WALL, _blend_band(), _NEAR_WALL,
                          _by_a_wall(), st.tuples(_COORD, _COORD), _NAN),
                min_size=1, max_size=40),
       st.sampled_from([None, 4103]),
       st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
def test_membership_batches_equal_one_row_calls(example_setup, points, length,
                                                psi):
    # each predicate tests the region once and evaluates the field on the
    # rows inside only: a row's verdict in a batch, short or long (the
    # points repeated), is its verdict alone
    unsafe = example_setup["unsafe"]
    W = rzk.combine_clbrf(example_setup["V"], example_setup["B"], psi)
    X = np.array(points, dtype=float)
    rows = np.arange(len(X)) if length is None else np.resize(
        np.arange(len(X)), length)
    for pred in (unsafe.membership_many, unsafe.refined_membership(W)):
        alone = np.array([pred(x[None])[0] for x in X])
        batch = pred(X[rows])
        assert batch.dtype == bool and batch.shape == rows.shape
        assert np.array_equal(batch, alone[rows])


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
                    {"delta": 0.3, "h": 0.5}, hist.from_constant(xs[0], 0.3),
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


def _samples(setup, region=rzk.EXAMPLE_BOX, **kw):
    return verify.construction_samples(setup["V"], setup["B"],
                                       rzk.example_sandwich(), region,
                                       rzk.example_margin, **kw)


def test_construction_check_full_pass(example_setup):
    rep = verify.clbrf_construction_check(
        _samples(example_setup, boundary_grid=256,
                 unsafe=example_setup["unsafe"]),
        psi=82.0, gains=(example_setup["gains"], example_setup["gains"]))
    assert rep.passed
    assert rep.tolerances["boundary_grid"] == 256
    assert rep.psi_min == pytest.approx(81.89722504971638, abs=5e-4)
    assert rep.details["gain_ordering"]["pass"]
    assert rep.details["sublevel_witness"] is not None
    assert rep.details["exterior"]["worst_slack"] <= 1e-12


def test_construction_check_flags_psi_at_threshold(example_setup):
    rep = verify.clbrf_construction_check(
        _samples(example_setup, boundary_grid=128), psi=10.0)
    assert not rep.passed
    assert rep.witness is not None and rep.witness["state"] is not None
    assert rep.details["psi_above_min"] is False
    # gains not supplied: the ordering item is reported as skipped
    assert "skipped" in rep.details["gain_ordering"]


def test_construction_check_validates_grid(example_setup):
    # fewer than 100 points per edge, or a box that is not planar
    for grid, region in ((64, rzk.EXAMPLE_BOX),
                         (256, fields.RegionBox([(-1.0, 1.0)] * 3))):
        with pytest.raises(ValueError):
            _samples(example_setup, region, boundary_grid=grid)


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
    ws = verify.window_states(tr)
    assert ws.shape == (tr.xs.shape[0], 2)
    # through t = delta the read at theta = -delta is the constant initial
    # history; after it, delta/h = 300 puts it on the row 300 back exactly
    assert np.array_equal(ws[:301], np.tile(tr.xs[0], (301, 1)))
    assert np.array_equal(ws[300:], tr.xs[:-300])
    V = example_setup["V"]
    sup = verify.field_sup_series(tr, V, 0.0)
    assert sup[0] == V.value(tr.xs[0])
    assert np.all(sup >= V.value_many(tr.xs))


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


def _pieces(tr, n):
    """tr as blocks of n rows, the last one shorter."""
    return [Trajectory(tr.ts[a:a + n], tr.xs[a:a + n], tr.us[a:a + n],
                       tr.margins[a:a + n], tr.slopes[a:a + n], tr.meta,
                       tr.ic_window) for a in range(0, len(tr.ts), n)]


def test_blocked_sup_series_equals_unblocked(example_setup):
    tr = _crossing_history_run(example_setup)
    W = example_setup["W"]
    delta = tr.meta["delta"]
    ic = tr.ic_window
    whole = np.concatenate([ic.xs[:ic.count - 1], tr.xs])
    times = np.concatenate([ic.ts[:ic.count - 1], tr.ts])
    for mu in (0.0, 0.7):
        # every row in [t - delta, t], pre-history samples included, and
        # the read at theta = -delta
        ref = np.array([max(
            np.max(np.exp(mu * (times[sel] - t)) * W.value_many(whole[sel])),
            np.exp(-mu * delta) * W.value(end))
            for t, end in zip(tr.ts, verify.window_states(tr))
            for sel in [(times >= t - delta - 1e-12) & (times <= t)]])
        # fed 7 rows at a time, and 7 does not divide N = 51: six full
        # blocks and a short last one
        series = verify._SupSeries(W, mu, tr)
        blocked = np.concatenate([series.feed(block, W.value_many(block.xs))
                                  for block in _pieces(tr, 7)])
        whole_run = verify.field_sup_series(tr, W, mu)
        assert _bits(blocked) == _bits(whole_run)
        np.testing.assert_allclose(whole_run, ref, rtol=1e-14, atol=0.0)


def test_safety_check_reads_initial_window_only(example_setup, runs,
                                                monkeypatch):
    trajs = [_crossing_history_run(example_setup), runs["closedW"],
             runs["open_far"]]
    new = [verify.safety_check(tr, example_setup["unsafe"]).as_dict()
           for tr in trajs]
    calls = []

    def every_window(*args):
        calls.append(args)

    # the pre-history is the initial window's read at -delta and its own
    # samples; no history read behind a later sample enters
    monkeypatch.setattr(verify, "window_states", every_window)
    again = [verify.safety_check(tr, example_setup["unsafe"]).as_dict()
             for tr in trajs]
    assert calls == []
    assert new == again
    # the crossing history runs through D: the witness is a history sample
    assert not new[0]["pass"] and new[0]["witness"]["time"] < 0.0
    assert new[0]["details"]["samples"] == 30 + trajs[0].xs.shape[0]


def _bits(a):
    # bit patterns, so 0.0 and -0.0 differ
    return np.ascontiguousarray(a, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(k=st.integers(5, 10),
       span=st.one_of(st.integers(1, 40), st.floats(1.0, 40.0).filter(
           lambda q: q.is_integer() or abs(q - round(q)) > 1e-6)),
       nrows=st.integers(2, 120), seed=st.integers(0, 2 ** 32 - 1),
       constant=st.booleans(), data=st.data())
def test_window_states_equal_whole_history_reads(k, span, nrows, seed,
                                                 constant, data):
    # h = 2^-k keeps every sample time and, for an integer span, delta and
    # each read time t_i - delta exact; the oracle reads one HistoryWindow
    # holding the initial window and every row with its slope, the initial
    # window's slope at t = 0 being the run's k1.  Spans within 1e-6 of an
    # integer are left out: delay_steps snaps those within 1e-9 to the row
    rng = np.random.default_rng(seed)
    h = 2.0 ** -k
    delta = span * h
    if constant:
        ic = hist.from_constant(rng.normal(size=2), delta)
    else:
        ic = hist.HistoryWindow(2, delta)
        m = data.draw(st.integers(2, 12), label="history samples")
        for t in np.linspace(-delta, 0.0, m):
            ic.push(t, rng.normal(size=2), rng.normal(size=2))
    xs = rng.normal(size=(nrows, 2))
    xs[0] = ic.latest_state
    tr = Trajectory(np.arange(nrows) * h, xs, np.zeros((nrows, 1)),
                    np.zeros(nrows), rng.normal(size=(nrows, 2)),
                    {"h": h, "delta": delta}, ic)
    whole = ic.copy()
    whole.ms[whole.count - 1] = tr.slopes[0]
    for t, x, m in zip(tr.ts[1:], tr.xs[1:], tr.slopes[1:]):
        whole.push(t, x, m)
    ref = whole.interp_times(tr.ts - delta)
    got = verify.window_states(tr)
    assert got.shape == (nrows, 2)
    if float(span).is_integer():
        assert _bits(got) == _bits(ref)
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("steps", [10, 66, 300])
@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["V", "B", "W"])
def test_recorded_sup_equals_rebuilt_sup(example_setup, kind, mu, steps,
                                         tmp_path):
    # the re-check from a run's CSV rebuilds the sup of the run recorded in
    # memory bit for bit, and so reaches the same decrease report: an
    # integer delta/h (steps rows per window; 300 is the demo's h = 1e-3)
    # puts every read at theta = -delta on a row, so no estimated slope
    # enters
    field = example_setup[kind]
    gains = rzk.RazumikhinGains(2.5, 2.0, mu)
    ctrl = rzk.ControllerSpec(field, gains, 2.0)
    ics = [hist.from_constant(np.array(x), 0.3)
           for x in cli.DEMO_INITIAL_CONDITIONS]
    trajs = rzk.batch_integrate(example_setup["dyn"], ctrl, ics,
                                IntegrationSettings(h=0.3 / steps, T=0.6))
    V, B, W = example_setup["V"], example_setup["B"], example_setup["W"]
    for k, tr in enumerate(trajs):
        assert not tr.diverged
        path = tmp_path / f"{k}.csv"
        io.write_trajectory_csv(path, *io.trajectory_columns(tr, V, B, W))
        from_csv = io.trajectory_from_csv(*io.read_trajectory_csv(path),
                                          example_setup["dyn"], ics[k])
        assert _bits(verify.field_sup_series(from_csv, field, mu)) \
            == _bits(verify.field_sup_series(tr, field, mu))
        assert (repr(verify.decrease_check(from_csv, field, gains).as_dict())
                == repr(verify.decrease_check(tr, field, gains).as_dict()))
