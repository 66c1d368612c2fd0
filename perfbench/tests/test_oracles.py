"""The benchmark's oracles against cases with known answers.

Run with: python3 -m pytest perfbench/tests
"""

import math

import numpy as np
import pytest

import oracles as orc


def test_certificate_closed_forms_at_known_points():
    X = np.array([[1.0, 2.0], [-2.0, 1.0], [-1.0005, 1.0]])
    V, B, W, known = orc.certificate_columns(X, 82.0)
    assert V[0] == 7.0
    assert B[0] == pytest.approx(-5.0 * math.exp(-4.0), rel=1e-15)
    # the hazard centre: raw hazard 1 + 1
    assert B[1] == pytest.approx(5.0 * (math.exp(-2.0) - math.exp(-4.0)),
                                 rel=1e-15)
    assert W[1] == pytest.approx(3.0 + 82.0 * B[1], rel=1e-15)
    # next to the wall the raw hazard exceeds the blend: no closed form
    assert list(known) == [True, True, False]
    errs, rows = orc.certificate_errors(X, V, B, W, 82.0)
    assert rows == 2 and max(errs.values()) == 0.0
    errs, _ = orc.certificate_errors(X, V, B * 1.001, W, 82.0)
    assert errs["B"] > 1e-6


def _circle_run(tau=0.3, h=1e-3, T=1.0):
    """x = (sin t, cos t) solves the plant with u = h(cos(t - tau))."""
    t = np.arange(int(round(T / h)) + 1) * h
    X = np.column_stack([np.sin(t), np.cos(t)])
    U = orc.friction(np.cos(t - tau))
    ht = (np.arange(int(round(tau / h)) + 1) - int(round(tau / h))) * h
    hs = np.column_stack([np.sin(ht), np.cos(ht)])
    return t, X, U, ht, hs


def test_plant_residual_vanishes_on_an_exact_solution():
    t, X, U, ht, hs = _circle_run()
    res = orc.plant_residuals(t, X, U, 0.3, ht, hs)
    assert res.max() < 1e-12


def test_plant_residual_flags_a_wrong_control_or_delay():
    t, X, U, ht, hs = _circle_run()
    res = orc.plant_residuals(t, X, U + 1e-3, 0.3, ht, hs)
    assert np.median(res) > 1e-6
    t2, X2, U2, ht2, hs2 = _circle_run(tau=0.2)
    res = orc.plant_residuals(t2, X2, U2, 0.3, ht, hs)
    assert np.median(res[300:]) > 1e-6


def test_control_sign():
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 3.0, size=(50, 2))
    q = X[:, 0] + 2.0 * X[:, 1] - 2.0 * 82.0 * math.exp(-4.0) * X[:, 1]
    bad, live = orc.control_sign_violations(X, -0.5 * q, 82.0)
    assert (bad, live) == (0, 50)
    bad, _ = orc.control_sign_violations(X, 0.5 * q, 82.0)
    assert bad == 50


def test_safety_membership():
    assert not orc.safety_passes(np.array([[0.0, 0.0], [-2.0, 1.0]]))
    assert orc.safety_passes(np.array([[0.0, 0.0], [-1.0, 1.0], [-0.5, 2.5]]))
    # raw hazard 1/(1 - 0.75) + 1 = 5 clears the threshold 4 + 1e-3
    assert orc.safety_passes(np.array([[-2.0 + math.sqrt(0.75), 1.0]]))


def test_construction_threshold():
    assert orc.PSI_MIN == pytest.approx(81.897, abs=5e-4)
    assert orc.construction_passes(82.0)
    assert not orc.construction_passes(81.8)


def test_comparison_solution_without_delay_term_is_exponential():
    t = np.linspace(0.0, 2.0, 41)
    v = orc.comparison_solution(2.5, 0.0, 0.3, t)
    assert np.max(np.abs(v - np.exp(-2.5 * t))) < 1e-14


def test_comparison_solution_solves_the_delay_equation():
    g, e, d = 3.0, 2.0, 0.25
    t = np.linspace(0.26, 2.0, 200)
    eps = 1e-5
    v = orc.comparison_solution(g, e, d, t)
    dv = (orc.comparison_solution(g, e, d, t + eps)
          - orc.comparison_solution(g, e, d, t - eps)) / (2 * eps)
    rhs = -g * v + e * orc.comparison_solution(g, e, d, t - d)
    assert np.max(np.abs(dv - rhs)) < 1e-8
    # first piece in closed form: v = e/g + (1 - e/g) e^{-g t}
    s = np.linspace(0.0, d, 11)
    assert np.allclose(orc.comparison_solution(g, e, d, s),
                       e / g + (1 - e / g) * np.exp(-g * s), rtol=0, atol=1e-15)
    # continuous and non-increasing across piece boundaries
    grid = np.linspace(0.0, 2.0, 2001)
    assert np.all(np.diff(orc.comparison_solution(g, e, d, grid)) <= 0.0)


def test_decay_root_recovers_a_planted_root():
    g, d, rho = 3.0, 0.4, 0.7
    e = (g - rho) * math.exp(-d * rho)
    assert orc.decay_root(g, e, d) == pytest.approx(rho, abs=1e-14)
    assert abs(orc.root_residual(rho, g, e, d)) < 1e-14
