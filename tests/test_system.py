import numpy as np
import pytest

import rzk
from rzk import history as hist

from plants import pure_delay_system


def test_friction_oracles():
    assert rzk.friction(1.0) == pytest.approx(1.7999999967021543, rel=1e-14)
    assert rzk.friction(-0.01) == pytest.approx(-0.1630660080305788, rel=1e-14)
    assert rzk.friction(0.0) == 0.0


def test_friction_is_odd_and_vectorized():
    v = np.linspace(-2, 2, 41)
    hv = np.asarray(rzk.friction(v))
    assert np.allclose(hv, -np.asarray(rzk.friction(-v)))
    assert hv.shape == v.shape
    # steep near zero: the exponential term boosts the slope
    assert (rzk.friction(0.001) - rzk.friction(-0.001)) / 0.002 > 20.0


def test_example_drift_reads_delayed_velocity():
    dyn = rzk.example_system(rzk.ExampleConfig(0.3))
    w = hist.from_constant(np.array([1.0, 0.0]), 0.3)
    f = dyn.f(w)
    assert np.allclose(f, [0.0, -1.0])    # friction(0) = 0, then -x1
    # ramp the velocity so the delayed read differs from the head value
    for t in np.linspace(0.05, 0.3, 6):
        w.push(t, np.array([1.0, t]), np.array([0.0, 1.0]))
    f = dyn.f(w)
    # x2(t - 0.3) = 0.0 still, so the friction term stays zero
    assert f[0] == pytest.approx(0.3)
    assert f[1] == pytest.approx(-1.0)


def test_example_input_map_is_constant_column():
    dyn = rzk.example_system()
    w = hist.from_constant(np.array([3.0, -2.0]), 0.3)
    G = dyn.g(w)
    assert G.shape == (2, 1)
    assert np.allclose(G.ravel(), [0.0, 1.0])


def test_lie_derivative_oracles():
    dyn = rzk.example_system(rzk.ExampleConfig(0.3))
    spec = rzk.ControllerSpec(rzk.example_lyapunov(),
                              rzk.RazumikhinGains(2.5, 2.0), 2.0)
    ev = rzk.evaluate(spec, dyn, hist.from_constant(np.array([1.0, 0.0]), 0.3))
    assert ev.lf == pytest.approx(-1.0)
    assert np.allclose(ev.q, [1.0])
    ev = rzk.evaluate(spec, dyn, hist.from_constant(np.array([0.0, 1.0]), 0.3))
    assert ev.lf == pytest.approx(-2.5999999934043085, rel=1e-14)
    assert np.allclose(ev.q, [2.0])


def test_example_config_validates_tau():
    with pytest.raises(ValueError):
        rzk.ExampleConfig(tau=0.4, delta=0.3)
    with pytest.raises(ValueError):
        rzk.ExampleConfig(tau=-0.1)
    cfg = rzk.ExampleConfig(tau=0.0)
    assert cfg.tau == 0.0


def test_zero_delay_reads_head_state():
    dyn = rzk.example_system(rzk.ExampleConfig(tau=0.0))
    w = hist.from_constant(np.array([0.0, 1.0]), 0.3)
    f = dyn.f(w)
    assert f[1] == pytest.approx(-rzk.friction(1.0))


def test_pure_delay_system_shape():
    pd = pure_delay_system(0.3)
    assert pd.n == 1 and pd.m == 1
    w = hist.from_constant(np.array([2.0]), 0.3)
    assert np.allclose(pd.f(w), [-2.0])
    assert np.allclose(pd.g(w), 0.0)    # input channel present but dead
