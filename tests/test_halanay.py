import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rzk import halanay
from rzk import history as hist


@pytest.fixture(scope="module")
def comparison_run():
    return halanay.scalar_comparison_sim(2.5, 2.0, 0.0, 0.3, 1.0, 5.0, 1e-3)


def test_root_oracles_default_gains():
    # gamma=2.5, eta=2, delta=0.3; values pinned from a converged bisection
    pr = halanay.decay_rate(2.5, 2.0, 0.3, halanay.VARIANT_PROOF)
    st = halanay.decay_rate(2.5, 2.0, 0.3, halanay.VARIANT_STATEMENT)
    assert pr == pytest.approx(0.3070308054, abs=2e-10)
    assert st == pytest.approx(0.1910201452, abs=2e-10)
    # each root actually solves its own equation
    assert abs(halanay.gamma_fn(pr, 2.5, 2.0, 0.3, "proof")) < 1e-9
    assert abs(halanay.gamma_fn(st, 2.5, 2.0, 0.3, "statement")) < 1e-9


def test_statement_variant_is_more_conservative():
    # the 2*rho term steepens Gamma, pulling the root down
    for gamma, eta, delta in [(2.5, 2.0, 0.3), (4.0, 1.0, 0.5), (1.0, 0.1, 1.0)]:
        pr = halanay.decay_rate(gamma, eta, delta, "proof")
        st = halanay.decay_rate(gamma, eta, delta, "statement")
        assert st < pr


def test_root_shrinks_with_delay_and_coupling():
    base = halanay.decay_rate(2.5, 2.0, 0.3)
    assert halanay.decay_rate(2.5, 2.0, 0.6) < base
    assert halanay.decay_rate(2.5, 2.2, 0.3) < base
    assert halanay.decay_rate(2.5, 1.0, 0.3) > base


def test_decay_rate_validation():
    with pytest.raises(ValueError):
        halanay.decay_rate(2.0, 2.0, 0.3)       # gamma must exceed eta
    with pytest.raises(ValueError):
        halanay.decay_rate(2.0, 0.0, 0.3)       # eta must be positive
    with pytest.raises(ValueError):
        halanay.decay_rate(2.5, 2.0, 0.0)       # delta must be positive
    with pytest.raises(ValueError):
        halanay.gamma_fn(0.1, 2.5, 2.0, 0.3, variant="bogus")


def test_certificate_envelope_and_safety_factor():
    cert = halanay.DecayCertificate(2.5, 2.0, 0.3)
    assert cert.rho == pytest.approx(0.9 * cert.rho_bar, rel=1e-15)
    assert cert.envelope(2.0, 0.0) == pytest.approx(2.0)
    t = np.array([0.0, 1.0, 2.0])
    env = cert.envelope(3.0, t)
    assert np.allclose(env, 3.0 * np.exp(-cert.rho * t))
    with pytest.raises(ValueError):
        halanay.DecayCertificate(2.5, 2.0, 0.3, safety_factor=1.0)


def test_comparison_sim_decays_and_respects_bound(comparison_run):
    ts, vs = comparison_run
    assert ts[0] == 0.0 and vs[0] == 1.0
    assert np.all(vs >= 0.0)
    assert np.all(vs <= 1.0 + 1e-12)
    assert vs[-1] < vs[0] * np.exp(-0.2 * 5.0)  # clearly decaying


def test_envelope_check_passes_below_root_rate(comparison_run):
    cert = halanay.DecayCertificate(2.5, 2.0, 0.3)
    ts, vs = comparison_run
    rep = halanay.check_envelope(ts, vs, 1.0, cert.rho)
    assert rep["pass"]
    assert rep["max_ratio"] <= 1.0 + 1e-6
    assert rep["first_violation"] is None


def test_envelope_check_fails_above_root_rate(comparison_run):
    # claiming a faster rate than the root supports must be caught
    ts, vs = comparison_run
    rho_bar = halanay.decay_rate(2.5, 2.0, 0.3)
    rep = halanay.check_envelope(ts, vs, 1.0, 1.2 * rho_bar)
    assert not rep["pass"]
    assert rep["max_ratio"] > 1.0 + 1e-6
    assert rep["first_violation"] is not None and rep["first_violation"] > 0.0


def test_envelope_check_zero_and_negative_v0():
    ts = np.array([0.0, 1.0])
    rep = halanay.check_envelope(ts, np.zeros(2), 0.0, 0.3)
    assert rep["pass"]
    rep = halanay.check_envelope(ts, np.array([0.0, 1.0]), 0.0, 0.3)
    assert not rep["pass"] and rep["first_violation"] == 1.0
    with pytest.raises(ValueError):
        halanay.check_envelope(ts, np.zeros(2), -1.0, 0.3)
    with pytest.raises(ValueError):
        halanay.check_envelope(np.array([-1.0, 0.0]), np.zeros(2), 1.0, 0.3)


def test_comparison_sim_validation():
    with pytest.raises(ValueError):
        halanay.scalar_comparison_sim(2.5, 2.0, 0.0, 0.3, -1.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        halanay.scalar_comparison_sim(2.5, 2.0, 0.0, 0.3, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        halanay.scalar_comparison_sim(2.5, 2.0, -0.1, 0.3, 1.0, 1.0, 1e-3)


class _Identity:
    """Scalar pass-through, so a window of v goes through weighted_sup."""

    @staticmethod
    def value_many(X):
        return X[..., 0]


def _scratch_push_comparison(gamma, eta, mu, delta, v0, T, step,
                             grid=hist.DEFAULT_GRID, zero_start_slope=False):
    """Reference: the comparison run on a HistoryWindow, with a scratch push
    and a weighted_sup for every RK stage.  Same scheme as
    halanay.scalar_comparison_sim (every accepted row, the t = 0 one
    included, keeps its first k1 as slope, k1 recomputed only when sup
    reads reach the newest step), read through interp_times instead of
    fixed tables.  zero_start_slope keeps the slope 0 of the constant
    history at t = 0 instead, as the comparison run once did."""
    w = hist.from_constant(np.array([float(v0)]), delta)
    nsteps = int(round(T / step))
    ts = np.empty(nsteps + 1)
    vs = np.empty(nsteps + 1)
    ts[0], vs[0] = 0.0, v0

    def sup_now():
        return hist.weighted_sup(w, _Identity, mu, grid)

    def stage_rate(t_stage, v_stage, slope_guess):
        w.push_scratch(t_stage, np.array([v_stage]), np.array([slope_guess]))
        s = sup_now()
        w.pop_scratch()
        return -gamma * v_stage + eta * s

    reuse = delta / (grid - 1) > step * (1.0 + 1e-9)
    t = 0.0
    v = float(v0)
    k1 = -gamma * v + eta * sup_now()
    if not zero_start_slope:
        w.ms[0, 0] = k1
    for i in range(nsteps):
        k2 = stage_rate(t + 0.5 * step, v + 0.5 * step * k1, k1)
        k3 = stage_rate(t + 0.5 * step, v + 0.5 * step * k2, k2)
        k4 = stage_rate(t + step, v + step * k3, k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if -1e-12 < v < 0.0:
            v = 0.0
        t = (i + 1) * step
        w.push(t, np.array([v]), np.array([k4]))
        k1 = -gamma * v + eta * sup_now()
        w.ms[w.count - 1, 0] = k1
        if not reuse:
            k1 = -gamma * v + eta * sup_now()
        ts[i + 1] = t
        vs[i + 1] = v
    return ts, vs


def _assert_matches_reference(gamma, eta, mu, delta, T, step=1e-3):
    ts, vs = halanay.scalar_comparison_sim(gamma, eta, mu, delta, 1.0, T,
                                           step)
    ts_ref, vs_ref = _scratch_push_comparison(gamma, eta, mu, delta, 1.0, T,
                                              step)
    np.testing.assert_array_equal(ts, ts_ref)
    np.testing.assert_allclose(vs, vs_ref, rtol=1e-13, atol=0.0)
    return ts, vs


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(0.5, 5.0), ratio=st.floats(0.05, 0.95),
       mu=st.floats(0.0, 1.0), delta=st.floats(0.01, 0.5),
       T=st.floats(0.05, 1.0), step=st.sampled_from([1e-3, 2.5e-3, 1e-2]))
def test_comparison_sim_matches_scratch_push_reference(gamma, ratio, mu,
                                                       delta, T, step):
    assume(step <= delta)
    _assert_matches_reference(gamma, ratio * gamma, mu, delta, T, step)


@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("delta", [0.01, 0.064, 0.065, 0.066])
def test_comparison_sim_matches_reference_across_fine_grid_edge(delta, mu):
    # at step 1e-3 and 66 grid points, sup reads land inside the current
    # step for delta <= 0.065 and stay on accepted rows above it.  With
    # mu = gamma - eta, the initial decay rate, the weighted history is
    # nearly flat, so reads inside the step can hold the sup
    _assert_matches_reference(2.5, 2.0, mu, delta, 0.5)


@pytest.mark.parametrize("delta", [0.3, 0.05])
def test_comparison_sim_matches_reference_and_envelope(delta):
    ts, vs = _assert_matches_reference(2.5, 2.0, 0.0, delta, 1.0)
    cert = halanay.DecayCertificate(2.5, 2.0, delta)
    assert halanay.check_envelope(ts, vs, 1.0, cert.rho)["pass"]


@pytest.mark.parametrize("mu, move", [(0.0, 9.3e-8), (0.5, 5.1e-6)])
def test_start_slope_move_is_pinned(mu, move):
    # storing k1 instead of 0 as the slope at t = 0 moves the samples by
    # this much relative to the earlier scheme; the largest move is just
    # after t = delta, so T = 1 sees the same maximum as T = 10
    ts, vs = halanay.scalar_comparison_sim(2.5, 2.0, mu, 0.3, 1.0, 1.0, 1e-3)
    _, old = _scratch_push_comparison(2.5, 2.0, mu, 0.3, 1.0, 1.0, 1e-3,
                                      zero_start_slope=True)
    rel = np.abs(vs - old) / old
    assert rel.max() == pytest.approx(move, rel=0.01)
    assert 0.3 < ts[np.argmax(rel)] < 0.31


def _exact_comparison(gamma, eta, delta, t):
    """v on [0, 2 delta] from v == 1 at mu = 0: v decreases, so the sup is
    the read at theta = -delta and the method of steps solves
    v' = -gamma v + eta v(t - delta) in closed form."""
    c = eta / gamma
    v1 = c + (1.0 - c) * np.exp(-gamma * t)
    s = t - delta
    v_delta = c + (1.0 - c) * np.exp(-gamma * delta)
    v2 = (eta * c / gamma + eta * (1.0 - c) * s * np.exp(-gamma * s)
          + (v_delta - eta * c / gamma) * np.exp(-gamma * s))
    return np.where(t <= delta, v1, v2)


@pytest.mark.parametrize("step", [1e-3, 1e-2, 2.5e-2])
def test_start_slope_does_not_grow_error_against_exact_solution(step):
    gamma, eta, delta = 2.5, 2.0, 0.3
    ts, vs = halanay.scalar_comparison_sim(gamma, eta, 0.0, delta, 1.0,
                                           2.0 * delta, step)
    _, old = _scratch_push_comparison(gamma, eta, 0.0, delta, 1.0,
                                      2.0 * delta, step,
                                      zero_start_slope=True)
    exact = _exact_comparison(gamma, eta, delta, ts)
    err = np.max(np.abs(vs - exact))
    assert err <= np.max(np.abs(old - exact))
    if step == 1e-3:
        assert err < 1e-12
