"""Test plants: DelayDynamics with known solutions, for the reference
integrator `simulate._integrate_general` (the package integrates only the
example plant)."""

import numpy as np

import rzk


def exponential_plant():
    """xdot = -x(t), no delayed reads; exact solution e^{-t}."""
    return rzk.DelayDynamics(1, 1, lambda w: -w.latest_state.copy(),
                             lambda w: np.zeros((1, 1)), 0.3)


def blowup_plant():
    """xdot = x^2 escapes to infinity in finite time."""
    return rzk.DelayDynamics(1, 1, lambda w: w.latest_state ** 2,
                             lambda w: np.zeros((1, 1)), 0.3)


def pure_delay_system(tau=0.3, delta=None):
    """Scalar plant xdot = -x(t - tau), u unused (m=1, g=0).

    Method of steps gives piecewise polynomials, handy as an exact oracle.
    """
    if delta is None:
        delta = tau

    def drift(window):
        xd = window.interp_times(np.array([window.latest_time - tau]))[0]
        return -xd

    def input_map(window):
        return np.zeros((1, 1))

    return rzk.DelayDynamics(1, 1, drift, input_map, delta)
