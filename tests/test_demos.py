"""The scripts under demos/ run end to end on a short horizon, so a change
to a public name they use shows here."""

import importlib.util
import os

import pytest

from rzk import simulate

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", os.path.join(DEMOS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _short(**kw):
    kw["T"] = 0.05
    return simulate.IntegrationSettings(**kw)


@pytest.mark.parametrize("name", ["closed_loop", "threshold_study",
                                  "decay_envelope"])
def test_demo_script_runs(name, tmp_path, monkeypatch, capsys):
    mod = _load(name)
    if hasattr(mod, "IntegrationSettings"):
        monkeypatch.setattr(mod, "IntegrationSettings", _short)
    monkeypatch.chdir(tmp_path)
    mod.main()
    assert capsys.readouterr().out
