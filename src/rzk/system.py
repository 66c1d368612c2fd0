"""Control-affine delay dynamics xdot = f(x_t) + g(x_t) u and the
mechanical example plant (mass-spring with delayed nonlinear friction).
"""

import numpy as np


class DelayDynamics:
    """The pair of history functionals (f, g).

    drift(window) -> (n,) vector, input_map(window) -> (n, m) matrix.
    """

    def __init__(self, n, m, drift, input_map, delta):
        self.n = int(n)
        self.m = int(m)
        self.drift = drift
        self.input_map = input_map
        self.delta = float(delta)

    def f(self, window):
        return np.asarray(self.drift(window), dtype=float)

    def g(self, window):
        G = np.asarray(self.input_map(window), dtype=float)
        return G.reshape(self.n, self.m)


class ExampleConfig:
    """Delays of the example plant: the friction's tau in [0, delta] and
    the history horizon delta."""

    def __init__(self, tau=0.3, delta=0.3):
        if not (0.0 <= tau <= delta):
            raise ValueError("tau must lie in [0, delta]")
        self.tau = float(tau)
        self.delta = float(delta)


def friction(v):
    """h(v) = (0.8 + 2 e^{-100|v|}) tanh(10 v) + v, elementwise."""
    v = np.asarray(v, dtype=float)
    out = (0.8 + 2.0 * np.exp(-100.0 * np.abs(v))) * np.tanh(10.0 * v) + v
    return out if out.ndim else float(out)


class ExampleDynamics(DelayDynamics):
    """The example plant x1dot = x2, x2dot = -h(x2(t-tau)) - x1 + u, with g
    the constant column (0, 1).  It carries tau, so an integrator can
    recognise this plant by its type and read its delay; f and g are the
    base class's."""

    def __init__(self, tau, delta):
        tau = self.tau = float(tau)

        def drift(window):
            now = window.latest_state
            xd = window.interp_times(np.array([window.latest_time - tau]))[0]
            return np.array([now[1], -friction(xd[1]) - now[0]])

        G = np.array([[0.0], [1.0]])

        def input_map(window):
            return G

        super().__init__(2, 1, drift, input_map, delta)


def example_system(cfg=None):
    """x1dot = x2, x2dot = -h(x2(t-tau)) - x1 + u; g is the constant column
    (0, 1) (kept as printed even though it does not vanish at the origin;
    the closed loop still has an equilibrium there because u does)."""
    if cfg is None:
        cfg = ExampleConfig()
    return ExampleDynamics(cfg.tau, cfg.delta)
