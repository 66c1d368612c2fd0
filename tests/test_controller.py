import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import controller, history as hist


def scalar_plant(g_gain):
    """xdot = -x(t) + g_gain * u, no delayed reads, window span 0.3."""

    def drift(w):
        return -w.latest_state.copy()

    def input_map(w):
        return np.array([[g_gain]])

    return rzk.DelayDynamics(1, 1, drift, input_map, 0.3)


def make_spec(g_gain, gamma=2.0, eta=0.5, lam=2.0):
    V = rzk.quadratic_field(np.array([[1.0]]), name="V")
    gains = rzk.RazumikhinGains(gamma, eta)
    return rzk.ControllerSpec(V, gains, lam), scalar_plant(g_gain)


def test_kappa_matches_closed_form():
    for lam, p, q in [(2.0, -1.0, [2.0]), (1.0, 0.5, [1.0, -1.0]), (3.0, 0.0, [0.2])]:
        q = np.asarray(q)
        q2 = float(q @ q)
        want = -(p + math.sqrt(p * p + lam * q2 * q2)) / q2 * q
        assert np.allclose(rzk.kappa(lam, p, q), want, rtol=1e-14)
    assert rzk.kappa(2.0, -1.0, [2.0])[0] == pytest.approx(-2.3722813232690143, rel=1e-15)


def test_kappa_zero_when_q_vanishes():
    u = rzk.kappa(2.0, 5.0, [1e-13, 0.0])
    assert u.shape == (2,)
    assert np.all(u == 0.0)


def test_kappa_rejects_bad_lambda():
    with pytest.raises(ValueError):
        rzk.kappa(0.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        rzk.kappa(-1.0, 1.0, [1.0])


def test_control_details_match_hand_computation():
    # x = 1 constant history, V = x^2:
    #   Lf V = 2*1*(-1) = -2,  q = Lg V = 2*1*0.5 = 1
    #   sup_theta V = 1, so a = -2 + 2*1 - 0.5*1 = -0.5
    #   u = -((-0.5 + sqrt(0.25 + 2)) / 1) * 1 = -1
    #   margin = -sqrt(a^2 + lam*q^4) = -1.5
    spec, dyn = make_spec(0.5)
    w = hist.from_constant(np.array([1.0]), 0.3)
    u = rzk.control(spec, dyn, w)
    assert u[0] == pytest.approx(-1.0, abs=1e-14)
    ev = rzk.evaluate(spec, dyn, w)
    assert ev.lf == pytest.approx(-2.0, abs=1e-14)
    assert ev.a == pytest.approx(-0.5, abs=1e-14)
    assert np.allclose(ev.q, [1.0])
    assert ev.u[0] == pytest.approx(-1.0, abs=1e-14)
    assert ev.margin == pytest.approx(-1.5, abs=1e-14)
    # closed loop: xdot = -x + 0.5 u
    assert ev.xdot[0] == pytest.approx(-1.5, abs=1e-14)


_Q = st.one_of(st.floats(1e-5, 1e3), st.floats(-1e3, -1e-5),
               st.floats(-1e-13, 1e-13))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1e6, 1e6), lam=st.floats(0.1, 10.0),
       q=st.lists(_Q, min_size=1, max_size=3))
def test_evaluate_meets_the_margin_identity(a, lam, q):
    # x in R^1 with xdot = g u, g the row q; a field of constant value a
    # and gradient 1 with gamma = 1 and eta = 0, so the activation is
    # exactly a and the input-side Lie derivative exactly q
    q = np.array(q)
    dyn = rzk.DelayDynamics(1, q.size, lambda w: np.zeros(1),
                            lambda w: q[None, :], 0.3)
    cert = rzk.ScalarField(1, lambda X: np.full(X.shape[0], a),
                           lambda X: np.ones_like(X))
    spec = rzk.ControllerSpec(cert, rzk.RazumikhinGains(1.0, 0.0), lam)
    ev = rzk.evaluate(spec, dyn, hist.from_constant(np.zeros(1), 0.3))
    assert ev.a == a and np.array_equal(ev.q, q)
    q2 = float(q @ q)
    if q2 <= controller.Q_THRESHOLD ** 2:
        # the dead zone: u is +0.0 exactly, whatever the signs of q
        assert ev.u.tobytes() == np.zeros(q.size).tobytes()
        assert ev.margin == a
        return
    root = math.sqrt(a * a + lam * q2 * q2)
    assert ev.margin == pytest.approx(-root, rel=1e-14, abs=0.0)
    # closed loop: a + q.u = -sqrt(a^2 + lambda ||q||^4), up to rounding
    assert (abs(a + float(q @ ev.u) - ev.margin)
            <= 16 * np.finfo(float).eps * (abs(a) + root))


def test_margin_falls_back_to_a_when_input_side_dead(caplog):
    spec, dyn = make_spec(0.0)
    w = hist.from_constant(np.array([1.0]), 0.3)
    with caplog.at_level(logging.WARNING, logger="rzk.controller"):
        u = rzk.control(spec, dyn, w)
    assert np.all(u == 0.0)
    assert rzk.evaluate(spec, dyn, w).margin == pytest.approx(-0.5,
                                                              abs=1e-14)
    # a < 0: no certificate violation to report
    assert not caplog.records


def test_certificate_violation_is_reported(caplog):
    # constant field: zero gradient kills both Lie derivatives, but
    # gamma*1 - eta*1 > 0 leaves a positive a the input cannot cancel
    flat = rzk.ScalarField(1, lambda X: np.ones(len(X)),
                           lambda X: np.zeros_like(X), name="flat")
    spec = rzk.ControllerSpec(flat, rzk.RazumikhinGains(2.0, 0.5), 2.0)
    dyn = scalar_plant(1.0)
    w = hist.from_constant(np.array([1.0]), 0.3)
    with caplog.at_level(logging.WARNING, logger="rzk.controller"):
        u = rzk.control(spec, dyn, w)
    assert np.all(u == 0.0)
    ev = rzk.evaluate(spec, dyn, w)
    assert ev.margin > 0
    assert ev.a == pytest.approx(1.5)
    assert any("certificate violation" in r.message for r in caplog.records)


def test_gains_validation():
    with pytest.raises(ValueError):
        rzk.RazumikhinGains(1.0, 1.0)
    with pytest.raises(ValueError):
        rzk.RazumikhinGains(1.0, -0.1)
    with pytest.raises(ValueError):
        rzk.RazumikhinGains(1.0, 0.5, mu=-1.0)
    g = rzk.RazumikhinGains(2.5, 2.0)
    assert g.as_dict() == {"gamma": 2.5, "eta": 2.0, "mu": 0.0}


def test_spec_validation():
    V = rzk.example_lyapunov()
    gains = rzk.RazumikhinGains(2.5, 2.0)
    with pytest.raises(ValueError):
        rzk.ControllerSpec(V, gains, 0.0)


def test_scp_probe_decays_with_delta(example_setup):
    spec = rzk.ControllerSpec(example_setup["V"], example_setup["gains"], 2.0)
    dyn = example_setup["dyn"]
    rows = rzk.scp_probe(spec, dyn, np.geomspace(1e-1, 1e-3, 5),
                         samples_per_delta=16, seed=3)
    sups = [s for _, s in rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    # coarse band here; the sharp <1e-2 ratio is checked on the full grid
    # in the acceptance suite
    assert sups[-1] < 5e-2 * sups[0]


def test_scp_probe_rejects_empty_grid(example_setup):
    spec = rzk.ControllerSpec(example_setup["V"], example_setup["gains"], 2.0)
    with pytest.raises(ValueError):
        rzk.scp_probe(spec, example_setup["dyn"], [])
