"""Batches of runs split over processes (`cli._split`), and sweeps whose
certificate-level checks run in a child beside their locksteps (both
through `cli._beside`): the
artifacts, the output and the exit codes are those of the serial run,
byte for byte; the first failure in run order is the one reported; and no
child process outlives the command, however it ends."""

import json
import os

import pytest

from rzk import cli


class Boom(Exception):
    pass


class Bust(Exception):
    pass


class Reached(BaseException):
    """Not an Exception, as the benchmark's set-up probe raises from a
    patched `batch_integrate`."""


def _config(tmp_path, starts, T=0.3):
    cfg = cli.demo_config()
    cfg["integration"]["T"] = T
    cfg["initial_conditions"] = starts
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return path


def _split_over(monkeypatch, cores):
    monkeypatch.setattr(cli, "SPLIT_ROWS", 0)
    monkeypatch.setattr(cli, "_cores", lambda: cores)


def _counted_forks(monkeypatch):
    """The forks this process makes; a child's land in its own copy."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _commands(tmp_path, name, capsys):
    """Exit code, stdout and stderr of a short `rzk demo`, of `rzk
    simulate` on three starts (uneven shares over two workers) the last of
    which diverges, and of `rzk simulate` and `rzk verify` on three others;
    and every artifact."""
    out = tmp_path / name
    cfgp = _config(tmp_path, [[-4.0, 1.0], [1.0, 2.0], [-2.0, 3.0]])
    cfgd = tmp_path / "d.json"
    cfgd.write_text(cfgp.read_text().replace("[-2.0, 3.0]", "[3.0, 1e154]"))
    runs = []
    for argv in (["demo", "--out", str(out / "demo")],
                 ["simulate", "--config", str(cfgd), "--out", str(out / "d")],
                 ["simulate", "--config", str(cfgp), "--out", str(out / "s")],
                 ["verify", "--config", str(cfgp), "--out", str(out / "s")]):
        code = cli.main(argv)
        std = capsys.readouterr()
        runs.append((code, std.out.replace(name, "*"), std.err))
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return runs, files


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_split_runs_equal_the_serial_ones(tmp_path, capsys, monkeypatch,
                                          cores):
    def short_demo(**kw):
        cfg = demo(**kw)
        cfg["integration"]["T"] = 0.4
        return cfg

    demo = cli.demo_config
    monkeypatch.setattr(cli, "demo_config", short_demo)
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    serial = _commands(tmp_path, "serial", capsys)
    _split_over(monkeypatch, cores)
    forks = _counted_forks(monkeypatch)
    split = _commands(tmp_path, "split", capsys)
    # min(runs, cores) - 1 children per command: four demo runs, three
    # runs in each of the other three
    assert len(forks) == min(4, cores) - 1 + 3 * (min(3, cores) - 1)
    assert [code for code, _, _ in serial[0]] == [0, 1, 0, 0]
    assert split[0] == serial[0]
    assert len(serial[1]) == 18
    assert split[1] == serial[1]
    _no_children()


def _simulated(tmp_path, starts=3):
    cfgp = _config(tmp_path, [[-4.0, 1.0], [1.0, 2.0], [-2.0, 3.0],
                              [0.5, 0.5]][:starts], T=0.05)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfgp),
                     "--out", str(out)]) == 0
    return cfgp, out


def _verify(cfgp, out, capsys):
    capsys.readouterr()
    code = cli.main(["verify", "--config", str(cfgp), "--out", str(out)])
    std = capsys.readouterr()
    return code, std.out, std.err


@pytest.mark.parametrize("cores,bad,named", [
    (2, [2], 2), (2, [0, 2], 0), (2, [1, 2], 1), (3, [1, 2], 1),
    (3, [2, 0], 0)])
def test_the_first_bad_csv_in_run_order_wins(tmp_path, capsys, monkeypatch,
                                             cores, bad, named):
    # three files over two workers: run 0 in this process, runs 1 and 2 in
    # a child; over three, one each.  As serially: exit 2, the first bad
    # file named, nothing printed and no summary written
    cfgp, out = _simulated(tmp_path)
    for k in bad:
        (out / f"trajectory_{k:02d}.csv").write_text("t,x1\n0,1\n")
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    serial = _verify(cfgp, out, capsys)
    _split_over(monkeypatch, cores)
    assert _verify(cfgp, out, capsys) == serial
    code, stdout, err = serial
    assert code == 2 and stdout == ""
    assert err.startswith("config error:")
    assert f"trajectory_{named:02d}.csv" in err
    assert not (out / "verify_summary.json").exists()
    _no_children()


@pytest.mark.parametrize("cores", [2, 3])
def test_a_missing_csv_gives_the_serial_io_error(tmp_path, capsys,
                                                 monkeypatch, cores):
    cfgp, out = _simulated(tmp_path)
    (out / "trajectory_02.csv").unlink()
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    serial = _verify(cfgp, out, capsys)
    _split_over(monkeypatch, cores)
    assert _verify(cfgp, out, capsys) == serial
    assert serial[0] == 2 and serial[1] == ""
    assert serial[2].startswith("i/o error: [Errno 2]")
    _no_children()


def _sweep_config(tmp_path, grid, kind="W", name="w"):
    cfg = cli.demo_config()
    cfg["integration"]["T"] = 0.05
    cfg["certificate"]["kind"] = kind
    cfg["sweep"] = grid
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("where,raised,seen", [
    ("parent", Boom, Boom), ("child", Boom, Boom),
    ("everywhere", Reached, Reached), ("child", Reached, RuntimeError),
    ("sweep-checks", Boom, Boom), ("sweep-checks", Reached, RuntimeError),
    ("sweep-lockstep", Boom, Boom), ("sweep-lockstep", Reached, Reached),
    ("sweep-both", Boom, Boom), ("sweep-both-on-one-core", Boom, Boom)])
def test_no_child_outlives_the_command(tmp_path, monkeypatch, where, raised,
                                       seen):
    # simulate: three runs over two workers, this process integrates one
    # window and the child two.  sweep: a child computes the
    # certificate-level checks while this process runs the lockstep, and
    # the raise comes in the child's checks, in this process's lockstep or
    # in both, when the lockstep's, first in task order, is the one raised;
    # on one core the two run one after the other, and nothing forks.  A
    # child that leaves by an exception that is not an Exception sends
    # nothing back
    cfgp = _config(tmp_path, [[-4.0, 1.0], [1.0, 2.0], [-2.0, 3.0]],
                   T=0.05)
    integrate = cli.batch_integrate

    def failing(dyn, ctrl, ics, settings, sink=None):
        if where == "everywhere" or (len(ics) == 2) == (where == "child"):
            raise raised
        return integrate(dyn, ctrl, ics, settings, sink)

    def raising(*args, **kwargs):
        raise raised

    def busting(*args, **kwargs):
        raise Bust

    _split_over(monkeypatch, 1 if where.endswith("one-core") else 2)
    argv = ["simulate", "--config", str(cfgp)]
    if where.startswith("sweep"):
        failing = raising
        if where == "sweep-checks":
            monkeypatch.setattr(cli, "_point_checks", raising)
        elif where.startswith("sweep-both"):
            monkeypatch.setattr(cli, "_point_checks", busting)
        argv = ["sweep", "--config", str(_sweep_config(
            tmp_path, {"psi": [10.0, 82.0],
                       "initial_conditions": [[-4.0, 1.0], [1.0, 2.0]]}))]
    if where != "sweep-checks":
        monkeypatch.setattr(cli, "batch_integrate", failing)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(seen):
        cli.main(argv + ["--out", str(tmp_path / "o")])
    assert len(forks) == (0 if where.endswith("one-core") else 1)
    _no_children()


# sweeps over W: one that passes, over psi and the gains; one over psi = 10
# and 82, which fails the construction at psi = 10; and one whose second
# start diverges, over two tau, so two locksteps.  One under V, which has no
# certificate-level checks
_SWEEPS = (
    ("W", {"psi": [82.0, 85.1], "gamma": [2.5, 3.0],
           "initial_conditions": [[-4.0, 1.0], [1.0, 2.0]]}),
    ("W", {"psi": [10.0, 82.0],
           "initial_conditions": [[-4.0, 1.0], [-2.0, -1.0]]}),
    ("W", {"tau": [0.0, 0.3],
           "initial_conditions": [[-4.0, 1.0], [3.0, 1e154]]}),
    ("V", {"psi": [10.0, 82.0], "tau": [0.0, 0.3]}))


def _sweeps(tmp_path, name, capsys):
    """Exit code, stdout and stderr, and sweep.csv, of each of _SWEEPS."""
    out = []
    for k, (kind, grid) in enumerate(_SWEEPS):
        cfgp = _sweep_config(tmp_path, grid, kind, f"{name}{k}")
        code = cli.main(["sweep", "--config", str(cfgp),
                         "--out", str(tmp_path / name / str(k))])
        std = capsys.readouterr()
        out.append((code, std.out.replace(name, "*"), std.err,
                    (tmp_path / name / str(k) / "sweep.csv").read_bytes()))
    return out


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_sweeps_with_a_checks_child_equal_the_serial_ones(
        tmp_path, capsys, monkeypatch, cores):
    # the calls of _point_checks made in this process; a child's calls
    # land in the child's copy of the list
    here = []
    point_checks = cli._point_checks

    def counted(build, samples=None):
        here.append(build.cfg.psi)
        return point_checks(build, samples)

    monkeypatch.setattr(cli, "_point_checks", counted)
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    forks = _counted_forks(monkeypatch)
    serial = _sweeps(tmp_path, "serial", capsys)
    assert not forks
    assert [code for code, *_ in serial] == [0, 1, 1, 0]
    # once per (psi, gamma, eta) of each W sweep; the V sweep computes none
    assert len(here) == 4 + 2 + 1
    del here[:]
    monkeypatch.setattr(cli, "_cores", lambda: cores)
    assert _sweeps(tmp_path, "forked", capsys) == serial
    # one checks child per W sweep, which computes all of its checks; none
    # on one core
    assert len(forks) == (3 if cores > 1 else 0)
    assert len(here) == (0 if cores > 1 else 7)
    _no_children()


def test_a_batch_below_the_split_size_forks_nothing(tmp_path, capsys,
                                                    monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_cores", lambda: 2)
    cfgp, out = _simulated(tmp_path, starts=4)
    assert 4 * (0.05 / 1e-3 + 1) < cli.SPLIT_ROWS
    assert _verify(cfgp, out, capsys)[0] == 0
