"""The benchmark's span tracer (perfbench/spans.py) wraps rzk entry points
by name and reads some of their arguments by position.  This runs it on
tiny simulate and sweep calls, so a rename that would break a traced
benchmark run shows here.  It only reads the benchmark's files."""

import collections
import json
import os

import pytest

import rzk
from rzk import cli

# the tracer records spans in this process only
pytestmark = pytest.mark.usefixtures("one_worker")

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _traced(command, cfg, tmp_path, monkeypatch):
    """Run `rzk <command>` on cfg under the tracer: (exit code, per-layer
    metrics, traced calls by span name)."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert {"simulate.lockstep", "simulate.general"} <= set(tracer.names)
    name, _, _, _ = tracer.arrays()
    calls = collections.Counter(tracer.names[k] for k in name.tolist())
    # uninstalled: the package's own functions are back in place
    assert not hasattr(rzk.simulate._lockstep_example, "__wrapped__")
    return code, metrics, calls


def test_tracer_sees_sampled_and_constant_starts_in_one_lockstep(
        tmp_path, monkeypatch):
    cfg = cli.demo_config()
    cfg["integration"]["T"] = 0.02
    times = [-0.3 + 0.01 * k for k in range(31)]
    times[-1] = 0.0
    cfg["initial_conditions"] = [
        {"times": times, "states": [[1.0 + t, 2.0 - t] for t in times]},
        [1.0, 2.0]]
    code, metrics, calls = _traced("simulate", cfg, tmp_path, monkeypatch)
    assert code == 0
    assert calls["simulate.general"] == 0
    assert metrics["simulate.lanes"][0] == 2
    assert metrics["simulate.calls"][0] == 1


def test_tracer_sees_tau_zero_on_the_lockstep(tmp_path, monkeypatch):
    cfg = cli.demo_config()
    cfg["system"]["tau"] = 0.0
    cfg["integration"]["T"] = 0.02
    code, metrics, calls = _traced("simulate", cfg, tmp_path, monkeypatch)
    assert code == 0
    assert calls["simulate.lockstep"] == 1
    assert calls["simulate.general"] == 0
    assert metrics["simulate.lanes"][0] == 4


def test_tracer_sees_point_checks_once_per_psi(tmp_path, monkeypatch):
    # the construction and separation checks depend on psi, not on the
    # start: a sweep computes them once per psi and reuses them
    cfg = cli.demo_config()
    cfg["integration"]["T"] = 0.02
    cfg["sweep"] = {"psi": [10.0, 82.0],
                    "initial_conditions": [[1.0, 2.0], [-4.0, 1.0]]}
    code, metrics, calls = _traced("sweep", cfg, tmp_path, monkeypatch)
    assert code == 1            # psi = 10 fails the construction
    # the two starts of both psi run as four lanes of one lockstep
    assert calls["simulate.lockstep"] == 1
    assert metrics["simulate.calls"][0] == 1
    assert metrics["simulate.lanes"][0] == 4
    assert calls["verify.construction"] == 2
    assert calls["verify.separation"] == 2
    assert metrics["verify.construction_s"][0] > 0.0
