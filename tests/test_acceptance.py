"""End-to-end checks of the worked example at pinned tolerances.

The closed-loop convergence assertions state the intended behavior for the
published gain set (psi = 82).  They currently fail: with that weight the
merged certificate W = V + psi B is negative definite outside the operating
box, so the decrease condition is satisfiable without bounding the state,
and the trajectories grow.  The failures are kept as-is rather than being
masked; every certificate-level check the suite runs is green, which is
exactly the gap these tests document.  README covers the analysis; the
psi-threshold demo script shows a small weight restoring convergence.
"""

import time

import numpy as np
import pytest

import rzk
from rzk import halanay, history as hist, io, simulate, verify
from rzk.simulate import IntegrationSettings

from plants import pure_delay_system


@pytest.fixture(scope="module")
def demo_summary(demo_run):
    return io.read_json(demo_run.path / "summary.json")


@pytest.fixture(scope="module")
def study(example_setup):
    return rzk.convergence_study(
        example_setup["dyn"], example_setup["ctrl"],
        hist.from_constant(np.array([-2.0, -1.0]), 0.3),
        2.0, [2e-3, 1e-3, 5e-4, 2.5e-4])


def _construction(setup, psi, boundary_grid=256):
    """The construction check at psi, the draw of its samples included."""
    return verify.clbrf_construction_check(
        verify.construction_samples(
            setup["V"], setup["B"], rzk.example_sandwich(), rzk.EXAMPLE_BOX,
            rzk.example_margin, boundary_grid=boundary_grid), psi=psi)


def test_threshold_weight_is_cheap_and_grid_stable(example_setup):
    t0 = time.time()
    rep = _construction(example_setup, 82.0)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert rep.psi_min == pytest.approx(81.8972, abs=5e-4)
    rep2 = _construction(example_setup, 82.0, boundary_grid=512)
    # refining the boundary grid must not move the threshold materially
    assert rep2.psi_min == pytest.approx(rep.psi_min, abs=1e-4)


def test_demo_completes_within_budget(demo_run):
    assert demo_run.exit_code == 0
    assert demo_run.wall_time < 30.0


def test_demo_safety_with_clearance(demo_summary):
    for row in demo_summary["trajectories"]:
        rep = row["checks"]["safety"]
        assert rep["pass"], row["file"]
        # worst is the minimum hazard clearance when the run enters the
        # operating box, None when it never does
        if rep["worst"] is not None:
            assert rep["worst"] >= 1e-3


def test_demo_decrease_condition_holds(demo_summary):
    for row in demo_summary["trajectories"]:
        assert row["checks"]["decrease"]["pass"], row["file"]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_demo_trajectory_converges(demo_summary, k):
    # intended closed-loop behavior at psi = 82; see the module docstring
    # for why this is red
    row = demo_summary["trajectories"][k]
    assert row["final_norm"] < 5e-2, (
        f"{row['file']}: |x(T)| = {row['final_norm']:.3e}")


def test_decay_roots_and_envelope_within_budget():
    t0 = time.time()
    roots = {}
    for variant in ("proof", "statement"):
        r = halanay.decay_rate(2.5, 2.0, 0.3, variant)
        roots[variant] = r
        assert abs(halanay.gamma_fn(r, 2.5, 2.0, 0.3, variant)) < 1e-9
        # bracket evidence: the root is pinned to the bisection tolerance
        assert halanay.gamma_fn(r - 2e-10, 2.5, 2.0, 0.3, variant) < 0
        assert halanay.gamma_fn(r + 2e-10, 2.5, 2.0, 0.3, variant) > 0
    ts, vs = halanay.scalar_comparison_sim(2.5, 2.0, 0.0, 0.3, 1.0, 10.0, 1e-3)
    rep = halanay.check_envelope(ts, vs, 1.0, 0.9 * roots["proof"])
    elapsed = time.time() - t0
    assert rep["pass"]
    assert rep["max_ratio"] <= 1.0 + 1e-6
    assert elapsed < 5.0


def test_margins_reported_negative_everywhere(demo_run, study):
    for k in range(4):
        names, data = io.read_trajectory_csv(
            demo_run.path / f"trajectory_{k:02d}.csv")
        assert np.max(data[:, names.index("margin")]) <= 1e-9
    assert max(study["max_margins"]) <= 1e-9


def test_step_refinement_shows_fourth_order(study):
    assert len(study["slopes"]) == 2
    assert min(study["slopes"]) >= 3.5


def test_pure_delay_reference_is_exact():
    pd = pure_delay_system(0.3)
    tr = simulate._integrate_general(
        pd, None, hist.from_constant(np.array([1.0]), 0.3),
        IntegrationSettings(h=1e-3, T=0.6))
    exact = np.where(tr.ts <= 0.3, 1.0 - tr.ts,
                     0.5 * tr.ts ** 2 - 1.3 * tr.ts + 1.045)
    assert np.max(np.abs(tr.xs[:, 0] - exact)) <= 1e-8


@pytest.mark.parametrize("kind", ["V", "W"])
def test_controller_vanishes_with_window_size(example_setup, kind):
    spec = rzk.ControllerSpec(example_setup[kind], example_setup["gains"], 2.0)
    rows = rzk.scp_probe(spec, example_setup["dyn"],
                         np.geomspace(1e-1, 1e-4, 7), samples_per_delta=64,
                         seed=0)
    sups = [s for _, s in rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1e-2 * sups[0]


def test_gradients_match_finite_differences(example_setup, rng):
    fields = [example_setup["V"], example_setup["B"], example_setup["W"]]
    count = 0
    worst = 0.0
    while count < 1000:
        x = rng.uniform(-4.0, 4.0, size=2)
        # skip the 1e-3 shell around the box walls where the barrier's
        # one-sided pieces meet
        if (min(abs(x[0] + 3.0), abs(x[0] + 1.0)) < 1e-3
                or min(abs(x[1]), abs(x[1] - 2.0)) < 1e-3):
            continue
        count += 1
        for f in fields:
            worst = max(worst, rzk.finite_diff_check(f, x))
    assert worst < 1e-4


def test_low_weight_candidate_is_rejected(example_setup):
    rep = _construction(example_setup, 10.0)
    assert not rep.passed
    assert rep.witness is not None and rep.witness["state"] is not None
    assert rep.details["psi_above_min"] is False


def test_open_loop_far_start_fails_decrease(example_setup):
    tr = rzk.integrate(example_setup["dyn"], None,
                       hist.from_constant(np.array([2.0, 2.0]), 0.3),
                       IntegrationSettings(h=1e-3, T=5.0))
    rep = verify.decrease_check(tr, example_setup["V"], example_setup["gains"])
    assert not rep.passed
    assert rep.worst > 0.1
    assert rep.details["first_violation_time"] is not None
