"""A planted-defect matrix for `rzk verify`: each case plants one defect
in the CSVs of a clean `rzk simulate` run, or runs another closed loop in
their place, and asserts that `rzk verify` on the clean run's config exits
non-zero and names the check or the file that failed.

The runs are a converging one under V and one on the demo config (W at psi
82), both short.  A case that `rzk verify` passes today is a strict xfail
naming ROADMAP item 2, which makes the verifier check that a CSV is the
configured closed loop row by row, so that its fix shows here; the clean
CSVs must pass, so that a verifier failing everything shows too."""

import json
import shutil

import pytest

from rzk import cli, io

T = 2.0
# the V run's starts converge without entering the hazard box
STARTS = {"V": [[1.0, 2.0], [2.0, -1.0]],
          "W": [list(x) for x in cli.DEMO_INITIAL_CONDITIONS]}
FILE = "trajectory_00.csv"


def _config(kind):
    cfg = cli.demo_config()
    cfg["certificate"]["kind"] = kind
    cfg["initial_conditions"] = STARTS[kind]
    cfg["integration"]["T"] = T
    return cfg


def _simulate(cfg, out):
    path = out / "planted.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path), "--out",
                     str(out)]) == 0


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """kind -> the clean run's config path and output directory."""
    root = tmp_path_factory.mktemp("planted")
    runs = {}
    for kind in STARTS:
        out = root / kind
        out.mkdir()
        _simulate(_config(kind), out)
        runs[kind] = (out / "planted.json", out)
    return runs


def _rerun(section, key, value):
    """Another closed loop in the clean run's place: the config with
    section.key (or the top-level key) set to value."""
    def plant(kind, out):
        cfg = _config(kind)
        (cfg[section] if section else cfg)[key] = value
        _simulate(cfg, out)
    return plant


def _edit(change):
    """The first CSV with change(names, data) applied to its rows."""
    def plant(kind, out):
        names, data = io.read_trajectory_csv(out / FILE)
        data = change(names, data)
        io.write_trajectory_csv(out / FILE, names, data)
    return plant


def _column(name, fn):
    def change(names, data):
        k = names.index(name)
        data[:, k] = fn(data[:, k])
        return data
    return change


def _at_one_row(dx):
    def change(names, data):
        data[data.shape[0] // 2, names.index("x1")] += dx
        return data
    return change


def _row_duplicated(names, data):
    k = data.shape[0] // 2
    data[k + 1:] = data[k:-1].copy()
    return data


def _other_kind(kind, out):
    _rerun("certificate", "kind", "W" if kind == "V" else "V")(kind, out)


# (case id, plant, the kinds the case is a defect for)
DEFECTS = [
    ("tau=0.05", _rerun("system", "tau", 0.05), "VW"),
    ("tau=0.1", _rerun("system", "tau", 0.1), "VW"),
    ("tau=0", _rerun("system", "tau", 0.0), "VW"),
    # V and its CSV do not depend on psi, but for the W column
    ("psi=10", _rerun("certificate", "psi", 10.0), "W"),
    ("gamma=3", _rerun("gains", "gamma", 3.0), "VW"),
    ("lambda=5", _rerun(None, "lambda", 5.0), "VW"),
    ("open-loop", _rerun("certificate", "kind", "none"), "VW"),
    ("other-kind", _other_kind, "VW"),
    ("u1*1.01", _edit(_column("u1", lambda c: c * 1.01)), "VW"),
    ("u1=0", _edit(_column("u1", lambda c: 0.0 * c)), "VW"),
    ("margin-negated", _edit(_column("margin", lambda c: -c)), "VW"),
    ("W/2", _edit(_column("W", lambda c: 0.5 * c)), "VW"),
    ("V=0", _edit(_column("V", lambda c: 0.0 * c)), "VW"),
    ("B=0", _edit(_column("B", lambda c: 0.0 * c)), "VW"),
    ("envelope-bound=0", _edit(_column("envelope-bound",
                                       lambda c: 0.0 * c)), "VW"),
    ("x1+1e-3", _edit(_at_one_row(1e-3)), "VW"),
    ("x1+1e-6", _edit(_at_one_row(1e-6)), "VW"),
    ("row-duplicated", _edit(_row_duplicated), "VW"),
    ("t*1.001", _edit(_column("t", lambda c: c * 1.001)), "VW"),
]
# the defects `rzk verify` fails on today, measured at T above; it passes
# every other one
CAUGHT = {"V": {"open-loop", "other-kind"},
          "W": {"psi=10", "open-loop", "other-kind"}}


def _cases():
    for name, plant, kinds in DEFECTS:
        for kind in kinds:
            marks = () if name in CAUGHT[kind] else pytest.mark.xfail(
                strict=True, reason="ROADMAP item 2")
            yield pytest.param(kind, plant, id=f"{kind}-{name}", marks=marks)


def _verify(config, out, capsys):
    capsys.readouterr()
    code = cli.main(["verify", "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("kind", sorted(STARTS))
def test_the_clean_runs_pass(clean, kind, capsys):
    code, std = _verify(*clean[kind], capsys)
    assert code == 0 and "FAIL" not in std.out, std.out + std.err


@pytest.mark.parametrize("kind, plant", _cases())
def test_a_planted_defect_fails_verify(clean, kind, plant, tmp_path,
                                       capsys):
    config, base = clean[kind]
    out = tmp_path / "out"
    shutil.copytree(base, out)
    plant(kind, out)
    code, std = _verify(config, out, capsys)
    assert code != 0, std.out
    # a failing check is printed as FAIL on its line, a file that cannot
    # be the run's is named in the config error
    assert "FAIL" in std.out or FILE in std.err, std.out + std.err
