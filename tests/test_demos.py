"""What ships under demos/ runs end to end: the script, so a change to a
public name it uses shows here, and the sweep config at its own horizon,
whose rows carry the worked example's findings."""

import importlib.util
import os

import pytest

from rzk import cli, io

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", os.path.join(DEMOS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["decay_envelope"])
def test_demo_script_runs(name, tmp_path, monkeypatch, capsys):
    mod = _load(name)
    monkeypatch.chdir(tmp_path)
    mod.main()
    assert capsys.readouterr().out


def test_threshold_study_sweep(tmp_path):
    # psi = 10 lies below psi_min: the construction fails at every start and
    # the start (-2, -1) crosses the hazard region, yet all four settle.
    # psi = 82 keeps every start clear of it; that these runs pass their
    # checks without settling is the documented gap, not asserted here
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config",
                     os.path.join(DEMOS, "threshold_study.json"),
                     "--out", str(out)]) == 1
    names, data = io.read_trajectory_csv(out / "sweep.csv")
    rows = [dict(zip(names, r)) for r in data.tolist()]
    assert [r["psi"] for r in rows] == [10.0] * 4 + [82.0] * 4
    for r in rows[:4]:
        assert r["checks_pass"] == 0.0
        assert r["converged"] == 1.0
        assert r["final_norm"] < cli.CONVERGED_NORM
        crosses = (r["x0_1"], r["x0_2"]) == (-2.0, -1.0)
        assert (r["min_safety_margin"] < 0) == crosses
    assert sum(r["min_safety_margin"] < 0 for r in rows[:4]) == 1
    for r in rows[4:]:
        assert r["min_safety_margin"] >= 0
