import itertools
import json
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from rzk import cli, halanay, io, verify


def write_config(path, **over):
    """Small fast config; overrides are applied onto the demo layout."""
    cfg = cli.demo_config(82.0, 0)
    cfg["integration"]["T"] = 0.5
    cfg["initial_conditions"] = [[0.5, 0.5]]
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return cfg


def test_demo_artifacts(demo_run):
    assert demo_run.exit_code == 0
    files = sorted(p.name for p in demo_run.path.iterdir())
    assert files == ["config.json", "run.json", "summary.json",
                     "trajectory_00.csv", "trajectory_01.csv",
                     "trajectory_02.csv", "trajectory_03.csv"]
    summary = io.read_json(demo_run.path / "summary.json")
    assert summary["all_pass"] is True
    run = io.read_json(demo_run.path / "run.json")
    assert len(run["trajectories"]) == 4
    for row in run["trajectories"]:
        assert row["diverged"] is False


def _assert_peaks_match_csv(out):
    run = io.read_json(out / "run.json")
    for row in run["trajectories"]:
        names, data = io.read_trajectory_csv(out / row["file"])
        norms = np.linalg.norm(data[:, 1:3], axis=1)
        assert row["peak_norm"] == norms.max()
        assert row["peak_norm_time"] == data[np.argmax(norms), 0]
        assert row["peak_abs_u"] == np.abs(data[:, names.index("u1")]).max()
    return run["trajectories"]


def test_run_json_peak_diagnostics_match_csv(demo_run, tmp_path):
    for row in _assert_peaks_match_csv(demo_run.path):
        assert row["peak_norm"] >= row["final_norm"]
    # at psi = 10 the start decays, so its peak is not its last sample
    cfgp = tmp_path / "decay.json"
    write_config(cfgp, certificate={"psi": 10.0})
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfgp), "--out", str(out)])
    (row,) = _assert_peaks_match_csv(out)
    assert row["peak_norm"] > row["final_norm"]


def test_simulate_round_trip_is_bytewise(demo_run, tmp_path):
    out = tmp_path / "rt"
    code = cli.main(["simulate", "--config", str(demo_run.path / "config.json"),
                     "--out", str(out)])
    assert code == 0
    for name in ["config.json", "run.json", "trajectory_00.csv",
                 "trajectory_01.csv", "trajectory_02.csv", "trajectory_03.csv"]:
        assert (out / name).read_bytes() == (demo_run.path / name).read_bytes()


def test_zero_start_stays_at_zero(tmp_path):
    cfgp = tmp_path / "zero.json"
    write_config(cfgp, initial_conditions=[[0.0, 0.0]],
                 outputs={"prefix": "zero"})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    text = (out / "zero_00.csv").read_text()
    assert "-0," not in text and ",-0\n" not in text
    names, data = io.read_trajectory_csv(out / "zero_00.csv")
    for col in ("x1", "x2", "u1", "V", "B", "W", "envelope-bound"):
        assert np.all(data[:, names.index(col)] == 0.0)


@pytest.mark.parametrize("mangle", [
    {"bogus_key": 1},
    {"integration": {"h": 0.2}},                       # h > delta/4
    {"gains": {"gamma": 1.0, "eta": 2.0}},
    {"certificate": {"kind": "Q"}},
    {"certificate": {"kind": "W", "psi": None}},
    {"certificate": {"kind": "V", "psi": -1.0}},       # W is still written
    {"certificate": {"kind": "none", "psi": 0.0}},
    {"initial_conditions": [[1.0]]},
    {"initial_conditions": [{"times": [-0.1, 0.0],
                             "states": [[0.0, 0.0], [0.0, 0.0]]}]},
    {"system": {"name": "other"}},
    {"outputs": {"prefix": "../escape"}},
    {"integration": {"T": 4e-4}},                      # T < h: no step
    {"seed": "x"},
    {"seed": 1.7},
    {"system": []},
    {"outputs": "a"},
    {"integration": [1]},
    {"gains": None},
    {"system": {"tau": 5e-4}},                          # 0 < tau < h
    {"initial_conditions": [{"times": 0.0, "states": [[0.0, 0.0]]}]},
    {"initial_conditions": [{"times": [-0.3, 0.0],
                             "states": [["nan", 0.0], [0.0, 0.0]]}]},
    {"lambda": "inf"},
])
def test_config_validation_exits_2(tmp_path, capsys, mangle):
    cfgp = tmp_path / "bad.json"
    write_config(cfgp, **mangle)
    code = cli.main(["simulate", "--config", str(cfgp), "--out",
                     str(tmp_path / "o")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_mu_past_the_sup_weights_is_a_config_error(tmp_path, capsys):
    # the history sup weighs its rows by up to e^(mu delta), which must
    # stay a finite float: mu delta = 720 is refused before any run
    cfgp = tmp_path / "mu.json"
    write_config(cfgp, gains={"mu": 2400.0})
    code = cli.main(["simulate", "--config", str(cfgp), "--out",
                     str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: need mu * delta <= 700: the history sup weighs its "
        "rows by up to e^(mu delta)\n")
    assert not (tmp_path / "o").exists()


def test_malformed_json_reports_position(tmp_path, capsys):
    cfgp = tmp_path / "broken.json"
    cfgp.write_text('{"schema_version": 1,,}')
    code = cli.main(["simulate", "--config", str(cfgp), "--out",
                     str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "line 1" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "ok.json"
    write_config(cfgp)
    blocker = tmp_path / "plain_file"
    blocker.write_text("x")
    code = cli.main(["simulate", "--config", str(cfgp),
                     "--out", str(blocker / "sub")])
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


def test_halanay_prints_ten_digits(capsys):
    assert cli.main(["halanay", "--gamma", "2.5", "--eta", "2.0",
                     "--delta", "0.3"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"rho_bar\(proof\) = 0\.3070308054\b", out)
    assert cli.main(["halanay", "--gamma", "2.5", "--eta", "2.0",
                     "--delta", "0.3", "--variant", "statement"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"rho_bar\(statement\) = 0\.1910201452\b", out)


def test_halanay_rejects_bad_gains(capsys):
    assert cli.main(["halanay", "--gamma", "2.0", "--eta", "2.0",
                     "--delta", "0.3"]) == 2
    assert cli.main(["halanay", "--gamma", "2.5", "--eta", "2.0",
                     "--delta", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err


@pytest.mark.parametrize("args", [
    "--gamma inf --eta 2 --delta 0.3", "--gamma 2.5 --eta 2 --delta nan",
    "--gamma 2.5 --eta 2 --delta 0.0005 --envelope",
    "--gamma 2.5 --eta 2 --delta 0.3 --T -1",
    "--gamma 2.5 --eta 2 --delta 0.3 --T nan",
    "--gamma 2.5 --eta 2 --delta inf --envelope"])
def test_halanay_bad_arguments_are_config_errors(args):
    # an infinite gain once bisected forever, a NaN delta printed a rate of
    # 0, and the others (a delta below the comparison run's step, a T
    # below one step or not finite) ended in a traceback
    r = subprocess.run([sys.executable, "-m", "rzk.cli", "halanay"]
                       + args.split(), capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 2
    assert r.stderr.startswith("config error:")
    assert r.stdout == ""


def test_halanay_envelope_table(capsys):
    assert cli.main(["halanay", "--gamma", "2.5", "--eta", "2.0",
                     "--delta", "0.3", "--envelope", "--T", "2"]) == 0
    out = capsys.readouterr().out
    assert "t,v,bound" in out
    assert "max ratio" in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        cli.main([])
    assert ei.value.code == 2


def test_one_process_builds_one_parser(tmp_path, capsys):
    # main builds its parser on its first call and reuses it: after usage
    # errors and a config error the same process prints what a fresh one
    # does
    cli._parser.cache_clear()
    for argv in ([], ["halanay", "--gamma", "x"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 2
    cfgp = tmp_path / "bad.json"
    write_config(cfgp, integration={"T": 4e-4})
    assert cli.main(["simulate", "--config", str(cfgp), "--out",
                     str(tmp_path / "o")]) == 2
    capsys.readouterr()
    argv = ["halanay", "--gamma", "2.5", "--eta", "2.0", "--delta", "0.3",
            "--envelope", "--T", "2"]
    code = cli.main(argv)
    got = capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "rzk.cli"] + argv,
                           capture_output=True, text=True, timeout=60)
    assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr)
    assert cli._parser.cache_info().misses == 1


def test_a_base_exception_from_the_comparison_run_passes_through(
        monkeypatch, capsys):
    # perfbench's set-up probe stops `rzk halanay --envelope` by patching
    # the module's comparison run to raise a BaseException, which the
    # command must let through before it prints anything
    class Reached(BaseException):
        pass

    def stop(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(halanay, "scalar_comparison_sim", stop)
    with pytest.raises(Reached):
        cli.main(["halanay", "--gamma", "2.5", "--eta", "2.0", "--delta",
                  "0.3", "--envelope"])
    assert capsys.readouterr().out == ""


def test_sweep_over_tau_passes(tmp_path, capsys):
    cfgp = tmp_path / "s.json"
    write_config(cfgp, initial_conditions=[[-4.0, 1.0]],
                 sweep={"tau": [0.0, 0.15, 0.3]})
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    names, data = io.read_trajectory_csv(out / "sweep.csv")
    assert data.shape[0] == 3
    tau_col = data[:, names.index("tau")]
    assert np.allclose(sorted(tau_col), [0.0, 0.15, 0.3])
    assert np.all(data[:, names.index("checks_pass")] == 1.0)


def test_sweep_flags_failing_point(tmp_path):
    # an initial history parked inside the unsafe region fails the safety
    # check at every psi
    cfgp = tmp_path / "s.json"
    write_config(cfgp, initial_conditions=[[-2.5, 0.9]],
                 integration={"T": 0.2}, sweep={"psi": [82.0]})
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 1
    names, data = io.read_trajectory_csv(out / "sweep.csv")
    assert data.shape[0] == 1
    assert data[0, names.index("checks_pass")] == 0.0


def test_sweep_rows_carry_their_start(tmp_path):
    # x0_1, x0_2 and then final_norm follow the older columns, which keep
    # their place
    cfgp = tmp_path / "s.json"
    starts = [[-4.0, 1.0], [1.0, 2.0]]
    write_config(cfgp, integration={"T": 0.05},
                 sweep={"psi": [82.0], "initial_conditions": starts})
    out = tmp_path / "sw"
    cli.main(["sweep", "--config", str(cfgp), "--out", str(out)])
    names, data = io.read_trajectory_csv(out / "sweep.csv")
    assert names == ["index", "tau", "psi", "lambda", "gamma", "eta",
                     "trajectories", "converged", "checks_pass",
                     "min_safety_margin", "max_envelope_ratio", "x0_1",
                     "x0_2", "final_norm"]
    assert data[:, -3:-1].tolist() == starts


def test_sweep_groups_equal_each_point_on_its_own(tmp_path, monkeypatch,
                                                  one_worker):
    # the points of one tau share one lockstep, a lane each under its own
    # point's controller; sweep.csv is the one the points write run one at
    # a time.  The starts: a sampled history through the box, a constant
    # one, and one that diverges
    times = [-0.3 + 0.01 * k for k in range(31)]
    times[-1] = 0.0
    starts = [{"times": times, "states": [[-1.5 + t, 2.2 + t] for t in times]},
              [-4.0, 1.0], [3.0, 1e154]]
    taus, psis = [0.0, 0.3], [10.0, 82.0]
    calls = []
    integrate = cli.batch_integrate

    def counted(dyn, ctrl, ics, settings, sink=None):
        calls.append(len(ics))
        return integrate(dyn, ctrl, ics, settings, sink)

    def sweep(name, grid):
        cfgp = tmp_path / f"{name}.json"
        write_config(cfgp, integration={"T": 0.05}, sweep=grid)
        cli.main(["sweep", "--config", str(cfgp), "--out",
                  str(tmp_path / name)])
        return (tmp_path / name / "sweep.csv").read_text().splitlines()

    monkeypatch.setattr(cli, "batch_integrate", counted)
    grid = {"tau": taus, "psi": psis, "initial_conditions": starts}
    lines = sweep("all", grid)
    assert calls == [6, 6]
    own = [lines[0]]
    for idx, (tau, psi, start) in enumerate(
            itertools.product(taus, psis, starts)):
        _, row = sweep(f"p{idx}", {"tau": [tau], "psi": [psi],
                                   "initial_conditions": [start]})
        own.append(f"{idx}," + row.split(",", 1)[1])
    assert calls[2:] == [1] * 12
    want = ("\n".join(own) + "\n").encode()
    assert (tmp_path / "all" / "sweep.csv").read_bytes() == want
    # more lanes than the cap: neighbouring points of one tau share a
    # lockstep up to the cap
    for cap, runs in ((4, [4, 2, 4, 2]), (2, [2] * 6), (6, [6, 6])):
        monkeypatch.setattr(cli, "SWEEP_LANES", cap)
        del calls[:]
        sweep(f"cap{cap}", grid)
        assert calls == runs
        assert (tmp_path / f"cap{cap}" / "sweep.csv").read_bytes() == want
    # the diverging start does not converge at any point, and fails its
    # checks there: it did not reach T
    assert [r.split(",")[7] for r in lines[3::3]] == ["0"] * 4
    assert [r.split(",")[8] for r in lines[3::3]] == ["0"] * 4


def test_sweep_points_differing_in_their_start_share_a_build(
        tmp_path, monkeypatch, one_worker):
    # two tau and two psi, two starts each: one build per (tau, psi)
    builds = []
    build = cli._Build

    def counted(cfg):
        builds.append((cfg.tau, cfg.psi))
        return build(cfg)

    monkeypatch.setattr(cli, "_Build", counted)
    cfgp = tmp_path / "s.json"
    write_config(cfgp, integration={"T": 0.02},
                 sweep={"tau": [0.0, 0.3], "psi": [10.0, 82.0],
                        "initial_conditions": [[-4.0, 1.0], [1.0, 2.0]]})
    cli.main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "sw")])
    assert builds == [(0.0, 10.0), (0.0, 82.0), (0.3, 10.0), (0.3, 82.0)]


def test_sweep_with_a_diverging_start_warns_nothing(tmp_path):
    # a lane that overflows in its first step keeps stepping on inf and NaN
    # rows, and its CSV-less checks see its last slope non-finite: neither
    # the lockstep's reads nor the checks' warn
    cfgp = tmp_path / "s.json"
    write_config(cfgp, integration={"T": 0.05},
                 sweep={"tau": [0.0, 0.3],
                        "initial_conditions": [[-4.0, 1.0], [3.0, 1e154]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", "--config", str(cfgp),
                         "--out", str(tmp_path / "sw")]) == 1
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[8] for r in rows] == ["1", "0", "1", "0"]


@pytest.mark.parametrize("sweep", [{}, {"psi": [], "tau": [0.3]}],
                         ids=["no-axes", "empty-axis"])
def test_sweep_empty_grid_writes_header_only(tmp_path, sweep):
    cfgp = tmp_path / "s.json"
    write_config(cfgp, sweep=sweep)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("index,")


def test_verify_recheck_of_demo(demo_run, tmp_path, capsys):
    # copy the artifacts so the session demo directory stays untouched
    work = tmp_path / "copy"
    work.mkdir()
    for p in demo_run.path.iterdir():
        if p.suffix == ".csv" or p.name == "config.json":
            (work / p.name).write_bytes(p.read_bytes())
    code = cli.main(["verify", "--config", str(work / "config.json"),
                     "--out", str(work)])
    assert code == 0
    summary = io.read_json(work / "verify_summary.json")
    assert summary["all_pass"] is True
    assert set(summary["checks"]) == {"construction", "separation"}
    out = capsys.readouterr().out
    assert "trajectory_00.csv" in out
    # the re-check reaches the in-memory checks exactly: delta/h = 300 puts
    # every history read on a CSV row, so no estimated slope enters the sup
    demo = io.read_json(demo_run.path / "summary.json")
    assert [r["file"] for r in summary["results"]] \
        == [r["file"] for r in demo["trajectories"]]
    for again, first in zip(summary["results"], demo["trajectories"]):
        assert set(again["checks"]) == set(first["checks"])
        for name, check in again["checks"].items():
            for key in ("pass", "worst", "witness", "details"):
                assert check[key] == first["checks"][name][key], (
                    again["file"], name, key)


def test_verify_fails_a_truncated_demo_csv(demo_run, tmp_path, capsys):
    # the rows left pass every other check; the run did not reach T
    work = tmp_path / "cut"
    work.mkdir()
    for p in demo_run.path.iterdir():
        if p.suffix == ".csv" or p.name == "config.json":
            (work / p.name).write_bytes(p.read_bytes())
    path = work / "trajectory_02.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:10002]))
    capsys.readouterr()
    code = cli.main(["verify", "--config", str(work / "config.json"),
                     "--out", str(work)])
    assert code == 1
    summary = io.read_json(work / "verify_summary.json")
    for row in summary["results"]:
        checks = row["checks"]
        cut = row["file"] == "trajectory_02.csv"
        assert checks["finite"]["pass"] is not cut, row["file"]
        assert all(c["pass"] for n, c in checks.items() if n != "finite")
    assert summary["results"][2]["checks"]["finite"]["details"] \
        == {"rows": 10001, "expected_rows": 20001}
    assert "trajectory_02.csv: safety: pass, decrease: pass, envelope: " \
        "pass, finite: FAIL" in capsys.readouterr().out


def test_verify_flags_low_psi(tmp_path):
    # psi below the construction threshold: simulate runs, verify rejects
    cfgp = tmp_path / "c.json"
    write_config(cfgp, certificate={"kind": "W", "psi": 10.0},
                 integration={"T": 0.2})
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 1


@pytest.mark.parametrize("mangle", ["no u1 and margin", "one row"])
def test_verify_reports_an_unreadable_csv_as_config_error(tmp_path, capsys,
                                                          mangle):
    cfgp = tmp_path / "c.json"
    write_config(cfgp, integration={"T": 0.05})
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    path = out / "trajectory_00.csv"
    names, data = io.read_trajectory_csv(path)
    if mangle == "one row":
        data = data[:1]
    else:
        keep = [k for k, n in enumerate(names) if n not in ("u1", "margin")]
        names, data = [names[k] for k in keep], data[:, keep]
    io.write_trajectory_csv(path, names, data)
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


def test_verify_holds_one_run_at_a_time(tmp_path, capsys, monkeypatch,
                                        one_worker):
    # each CSV is checked as it is read: the run before it is gone by then
    cfgp = tmp_path / "c.json"
    write_config(cfgp, initial_conditions=[[0.5, 0.5], [1.0, 2.0],
                                           [-4.0, 1.0]],
                 integration={"T": 0.05})
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    read = io.trajectory_from_csv
    runs, alive = [], []

    def tracked(*args):
        alive.append(sum(r() is not None for r in runs))
        tr = read(*args)
        runs.append(weakref.ref(tr))
        return tr

    monkeypatch.setattr(io, "trajectory_from_csv", tracked)
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 0
    assert alive == [0, 0, 0]
    # a bad last file: exit 2 before the certificate-level checks, with
    # nothing printed and no summary written
    (out / "verify_summary.json").unlink()
    (out / "trajectory_02.csv").write_text("t,x1\n0,1\n")
    checked = []
    monkeypatch.setattr(verify, "clbrf_construction_check",
                        lambda *a, **kw: checked.append(kw))
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not (out / "verify_summary.json").exists()
    assert checked == []


def _hazard_crossing():
    """A straight history through the hazard centre (-2, 1) that ends at
    (-0.5, 2.5), outside the box."""
    times = [-0.3 + 0.01 * k for k in range(31)]
    times[-1] = 0.0
    states = [[-2.5 + 2.0 * k / 30.0, 0.5 + 2.0 * k / 30.0] for k in range(31)]
    return {"times": times, "states": states}


def test_verify_reads_the_configured_initial_windows(tmp_path, capsys):
    # only the history passes through the unsafe set; a re-check against a
    # constant pre-history at x(0) would pass it
    cfgp = tmp_path / "c.json"
    write_config(cfgp, initial_conditions=[_hazard_crossing(), [1.0, 2.0]],
                 integration={"T": 0.1})
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("trajectory_00.csv: safety: FAIL")
    assert lines[3].startswith("trajectory_01.csv: safety: pass")
    build = cli._Build(cli.RunConfig.from_file(cfgp))
    trajs = cli.batch_integrate(build.dyn, build.ctrl,
                                cli._windows(build.cfg), build.settings)
    assert not verify.safety_check(trajs[0], build.unsafe).passed
    assert verify.safety_check(trajs[1], build.unsafe).passed
    # CSVs that did not start from the config's windows are not re-checked
    write_config(cfgp, initial_conditions=[_hazard_crossing(), [1.0, 2.5]],
                 integration={"T": 0.1})
    assert cli.main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
    assert "trajectory_01.csv does not start at" in capsys.readouterr().err


def test_log_level_env_var(tmp_path):
    cfgp = tmp_path / "c.json"
    write_config(cfgp, initial_conditions=[[-2.5, 0.9]],
                 integration={"T": 0.1})
    env = dict(os.environ)
    env.pop("RZK_LOG", None)
    base = [sys.executable, "-m", "rzk.cli", "simulate", "--config", str(cfgp)]
    r1 = subprocess.run(base + ["--out", str(tmp_path / "a")],
                        capture_output=True, text=True, env=env)
    assert r1.returncode == 0
    assert "starts inside" in r1.stderr       # warning shown by default
    env["RZK_LOG"] = "ERROR"
    r2 = subprocess.run(base + ["--out", str(tmp_path / "b")],
                        capture_output=True, text=True, env=env)
    assert r2.returncode == 0
    assert "starts inside" not in r2.stderr   # suppressed at ERROR level


def test_excluded_set_warning_reads_whole_initial_history(tmp_path, caplog):
    # only a history sample of the hazard crossing lies in the excluded set
    for ics, warned in (([_hazard_crossing()], True), ([[4.0, -3.0]], False)):
        cfgp = tmp_path / "c.json"
        write_config(cfgp, initial_conditions=ics, integration={"T": 0.01})
        caplog.clear()
        with caplog.at_level("WARNING", logger="rzk.cli"):
            assert cli.main(["simulate", "--config", str(cfgp),
                             "--out", str(tmp_path / "o")]) == 0
        assert any("starts inside the excluded set" in r.getMessage()
                   for r in caplog.records) is warned


def test_config_dict_round_trip():
    d = cli.demo_config(82.0, 0)
    assert cli.RunConfig(d).to_dict() == d


def test_integration_grid_is_accepted_and_ignored(tmp_path, caplog):
    # configs written before the sup was taken on the run's rows carry
    # integration.grid; they still run, with one warning, and the config
    # the run writes drops the key
    cfgp = tmp_path / "c.json"
    write_config(cfgp, integration={"T": 0.05, "grid": 66})
    caplog.clear()
    with caplog.at_level("WARNING", logger="rzk"):
        assert cli.main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 0
    warned = [r for r in caplog.records if "integration.grid" in r.getMessage()]
    assert len(warned) == 1 and warned[0].name.startswith("rzk")
    written = io.read_json(tmp_path / "o" / "config.json")
    assert written["integration"] == {"h": 1e-3, "T": 0.05}
    base = tmp_path / "base"
    write_config(cfgp, integration={"T": 0.05})
    assert cli.main(["simulate", "--config", str(cfgp),
                     "--out", str(base)]) == 0
    for name in ("trajectory_00.csv", "run.json", "config.json"):
        assert (base / name).read_bytes() \
            == (tmp_path / "o" / name).read_bytes()
