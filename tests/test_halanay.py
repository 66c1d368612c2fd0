import numpy as np
import pytest

from rzk import halanay


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


@pytest.mark.parametrize("delta, sups_per_step", [(0.3, 4), (0.05, 5)])
def test_comparison_sim_reuses_sup_only_on_coarse_grids(monkeypatch, delta,
                                                         sups_per_step):
    # at step 1e-3 and 66 grid points the reuse needs delta > 0.065; below
    # that every step recomputes k1 over the accepted window
    calls = []
    sup = halanay.hist.weighted_sup

    def counted(*args):
        calls.append(1)
        return sup(*args)

    monkeypatch.setattr(halanay.hist, "weighted_sup", counted)
    ts, vs = halanay.scalar_comparison_sim(2.5, 2.0, 0.0, delta, 1.0, 1.0,
                                           1e-3)
    assert len(calls) == 1 + sups_per_step * 1000
    cert = halanay.DecayCertificate(2.5, 2.0, delta)
    assert halanay.check_envelope(ts, vs, 1.0, cert.rho)["pass"]
