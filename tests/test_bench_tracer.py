"""The benchmark's span tracer (perfbench/spans.py) wraps rzk entry points
by name and reads some of their arguments by position.  This runs it on a
tiny simulate call, so a rename that would break a traced benchmark run
shows here.  It only reads the benchmark's files."""

import json
import os

import rzk
from rzk import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_sees_sampled_and_constant_starts_in_one_lockstep(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    cfg = cli.demo_config()
    cfg["integration"]["T"] = 0.02
    times = [-0.3 + 0.01 * k for k in range(31)]
    times[-1] = 0.0
    cfg["initial_conditions"] = [
        {"times": times, "states": [[1.0 + t, 2.0 - t] for t in times]},
        [1.0, 2.0]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "o")])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    name, _, _, _ = tracer.arrays()
    general = tracer.names.index("simulate.general")
    assert int((name == general).sum()) == 0
    assert metrics["simulate.lanes"][0] == 2
    assert metrics["simulate.calls"][0] == 1
    # uninstalled: the package's own functions are back in place
    assert not hasattr(rzk.simulate._lockstep_example, "__wrapped__")
