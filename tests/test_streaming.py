"""Runs streamed a block of rows at a time: every per-trajectory check and
every run.json reduction gives on any split of a run the report it gives
on the whole run, the CLI's artifacts do not depend on the block sizes,
and the memory a run holds does not grow with its horizon."""

import functools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, history as hist, io, simulate, verify
from rzk.simulate import IntegrationSettings, Trajectory

GAINS = {0.0: rzk.RazumikhinGains(2.5, 2.0, 0.0),
         0.5: rzk.RazumikhinGains(2.5, 2.0, 0.5)}


def _hazard_crossing(delta=0.3):
    w = hist.HistoryWindow(2, delta)
    for k in range(31):
        s = k / 30.0
        w.push(-delta + 0.01 * k, np.array([-2.5 + 2.0 * s, 0.5 + 2.0 * s]))
    return w


def _radial(delta=0.3):
    times = np.linspace(-delta, 0.0, 41)
    grow = 1.0 + 0.3 * (-times / delta) ** 1.5
    return hist.from_samples(times, grow[:, None] * [1.2, -0.7], delta)


@functools.lru_cache(maxsize=None)
def _runs():
    """name -> (run, field, gains): constant and sampled starts, delta/h =
    300 and 176.9, mu = 0 and 0.5, a run truncated at divergence, a run
    cut at its first overflow, and one with inf and NaN rows."""
    dyn = rzk.example_system(rzk.ExampleConfig(0.3))
    V, B = rzk.example_lyapunov(), rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    out = {}
    for name, field, mu, steps, start in (
            ("W const 300", W, 0.0, 300.0, np.array([-2.0, -1.0])),
            ("W hazard 300 mu", W, 0.5, 300.0, _hazard_crossing()),
            ("V const 176.9", V, 0.0, 176.9, np.array([-4.0, 1.0])),
            ("B radial 176.9 mu", B, 0.5, 176.9, _radial()),
            ("W overflow", W, 0.0, 300.0, np.array([3.0, 1e154]))):
        if not isinstance(start, hist.HistoryWindow):
            start = hist.from_constant(start, 0.3)
        ctrl = rzk.ControllerSpec(field, GAINS[mu], 2.0)
        out[name] = (rzk.batch_integrate(
            dyn, ctrl, [start], IntegrationSettings(h=0.3 / steps,
                                                    T=0.55))[0],
            field, GAINS[mu])
    tr, field, gains = out["W const 300"]
    # a lane cut at row 420 as the lockstep cuts one: its last state
    # finite, its slope not
    slopes = tr.slopes[:420].copy()
    slopes[-1] = [np.inf, -np.inf]
    out["W cut 300"] = (Trajectory(tr.ts[:420], tr.xs[:420], tr.us[:420],
                                   tr.margins[:420], slopes, tr.meta,
                                   tr.ic_window, True), field, gains)
    tr, field, gains = out["B radial 176.9 mu"]
    xs, us, slopes = tr.xs.copy(), tr.us.copy(), tr.slopes.copy()
    xs[150], xs[151, 1], xs[300] = np.inf, np.nan, [-np.inf, 2.0]
    us[200], slopes[151] = np.nan, np.inf
    out["B non-finite 176.9 mu"] = (Trajectory(
        tr.ts, xs, us, tr.margins, slopes, tr.meta, tr.ic_window), field,
        gains)
    return out


def _blocks(tr, cuts):
    """tr as blocks of rows split at the row indices cuts."""
    edges = [0] + sorted(c for c in set(cuts) if 0 < c < len(tr.ts)) \
        + [len(tr.ts)]
    return [Trajectory(tr.ts[a:b], tr.xs[a:b], tr.us[a:b], tr.margins[a:b],
                       tr.slopes[a:b], tr.meta, tr.ic_window,
                       tr.diverged and b == len(tr.ts))
            for a, b in zip(edges, edges[1:])]


def _reports(blocks, field, gains):
    """Every accumulator fed the blocks, as the CLI feeds a run: the
    reports as dicts and the run.json row."""
    cert = rzk.DecayCertificate(2.5, 2.0, 0.3)
    checks = [verify.SafetyCheck(verify.example_unsafe_set()),
              verify.DecreaseCheck(field, gains),
              verify.EnvelopeCheck(field, cert),
              verify.FiniteCheck(round(blocks[0].meta["T"] / blocks[0].h))]
    run = blocks[0]
    record = cli._Run(SimpleNamespace(settings=IntegrationSettings(
        h=run.h, T=run.meta["T"])), checked=False, file="run.csv")
    for block in blocks:
        fv = field.value_many(block.xs) if block.xs.shape[0] else None
        for check in checks:
            check.feed(block, fv)
        record.feed(block)
    return [c.report().as_dict() for c in checks] + [record.row()]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_runs())), data=st.data())
def test_any_split_of_a_run_gives_the_whole_runs_reports(name, data):
    tr, field, gains = _runs()[name]
    n = len(tr.ts)
    delta, h = tr.meta["delta"], tr.h
    # row D, the first row past t = delta, and blocks of one row
    cuts = [int(hist.delay_steps(delta, h)),
            int(np.searchsorted(tr.ts, delta + hist.ROW_TOL))]
    if data.draw(st.booleans(), label="one row a block"):
        cuts += range(n)
    else:
        cuts += data.draw(st.lists(st.integers(1, max(n - 1, 1)),
                                   max_size=12), label="cuts")
        a = data.draw(st.integers(0, n), label="first one-row block")
        cuts += range(a, a + data.draw(st.integers(0, 8), label="rows"))
    with np.errstate(all="ignore"):
        whole = _reports([tr], field, gains)
        split = _reports(_blocks(tr, cuts), field, gains)
    assert repr(split) == repr(whole)


def test_whole_run_checks_are_the_accumulators_on_one_block():
    # the whole-run functions the library and the tests call are one-block
    # feeds of the same accumulators
    tr, field, gains = _runs()["W hazard 300 mu"]
    cert = rzk.DecayCertificate(2.5, 2.0, 0.3)
    unsafe = verify.example_unsafe_set()
    got = [verify.safety_check(tr, unsafe),
           verify.decrease_check(tr, field, gains),
           verify.envelope_check(tr, field, cert)]
    want = _reports(_blocks(tr, [7, 300, 301]), field, gains)[:3]
    assert repr([r.as_dict() for r in got]) == repr(want)
    assert not got[0].passed and got[0].witness["time"] < 0.0


def _cli_artifacts(tmp_path, name):
    """Every artifact and the stdout of simulate + verify and of a sweep on
    configs with sampled and constant starts, delta/h = 176.9, mu = 0.5 and
    a start that diverges."""
    out = tmp_path / name
    cfg = cli.demo_config()
    cfg["gains"]["mu"] = 0.5
    cfg["integration"] = {"h": 0.3 / 176.9, "T": 0.9}
    times = [-0.3 + 0.01 * k for k in range(31)]
    times[-1] = 0.0
    cfg["initial_conditions"] = [
        {"times": times, "states": [[-2.5 + 2.0 * k / 30.0,
                                     0.5 + 2.0 * k / 30.0]
                                    for k in range(31)]},
        [-4.0, 1.0], [1.0, 2.0]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    codes = [cli.main(["simulate", "--config", str(path), "--out", str(out)]),
             cli.main(["verify", "--config", str(path), "--out", str(out)])]
    cfg["sweep"] = {"tau": [0.0, 0.3], "psi": [10.0, 82.0],
                    "initial_conditions": [[-4.0, 1.0], [3.0, 1e154]]}
    path.write_text(json.dumps(cfg))
    codes.append(cli.main(["sweep", "--config", str(path),
                           "--out", str(out)]))
    return codes, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_artifacts_do_not_depend_on_the_block_sizes(tmp_path, capsys,
                                                        monkeypatch):
    # 8 rows per lockstep block of 3 lanes, 6 of 4, and 5 per CSV block:
    # blocks that split the sup's reach, the runs' first delta and the
    # diverging lane
    base = _cli_artifacts(tmp_path, "base"), capsys.readouterr().out
    monkeypatch.setattr(simulate, "BLOCK_LANE_ROWS", 24)
    monkeypatch.setattr(io, "CSV_ROWS", 5)
    monkeypatch.setattr(verify, "SUP_BLOCK", 3)
    small = _cli_artifacts(tmp_path, "small"), capsys.readouterr().out
    assert small[0][0] == base[0][0] == [0, 1, 1]
    assert set(base[0][1]) == {"config.json", "run.json", "sweep.csv",
                               "trajectory_00.csv", "trajectory_01.csv",
                               "trajectory_02.csv", "verify_summary.json"}
    assert small[0][1] == base[0][1]
    assert small[1].replace("small", "base") == base[1]


def test_memory_of_simulate_and_verify_does_not_grow_with_the_horizon(
        tmp_path, capsys, monkeypatch):
    # the tracemalloc peak of simulate plus verify on two demo starts at
    # T = 10 against T = 2.  tracemalloc slows the lockstep tenfold, so
    # the runs take h = 5e-3 (delta/h = 60, 401 and 2001 rows) under V,
    # which has no certificate-level checks to set the peak, with blocks
    # of 128 rows; holding each run whole took 2.4 times the memory at
    # T = 10
    for owner, name, size in ((simulate, "BLOCK_LANE_ROWS", 256),
                              (io, "CSV_ROWS", 128),
                              (verify, "SUP_BLOCK", 128)):
        monkeypatch.setattr(owner, name, size, raising=False)

    def peak(T, traced=True):
        cfg = cli.demo_config()
        cfg["certificate"]["kind"] = "V"
        cfg["initial_conditions"] = cfg["initial_conditions"][:2]
        cfg["integration"] = {"h": 5e-3, "T": T}
        path = tmp_path / f"c{T}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"o{T}")
        if traced:
            tracemalloc.start()
        try:
            assert cli.main(["simulate", "--config", str(path),
                             "--out", out]) == 0
            cli.main(["verify", "--config", str(path), "--out", out])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.5, traced=False)          # imports and first-call caches
    short, long = peak(2.0), peak(10.0)
    assert long <= 1.15 * short, (short, long)


def _malformed_rows(line):
    """Ways to break one CSV row: one column short, one column over (x1
    twice, every later value shifted), and a value that is not a number
    in x1, V, B and W."""
    fields = line.rstrip("\n").split(",")

    def put(k, value):
        return ",".join(fields[:k] + [value] + fields[k + 1:]) + "\n"

    yield ",".join(fields[:-1]) + "\n"
    yield put(1, fields[1] + "," + fields[1])
    for k in (1, 4, 5, 6):
        yield put(k, "abc")


@pytest.mark.parametrize("row", [1, 1 + 100, 5, 150])
def test_a_malformed_row_fails_the_block_reader(tmp_path, monkeypatch,
                                                row):
    # rows that open a block (1, 101) and rows inside one (5, 150) fail
    # both readers, as a whole-file loadtxt fails on them
    monkeypatch.setattr(io, "CSV_ROWS", 100)
    tr, field, gains = _runs()["W const 300"]
    V, B, W = rzk.example_lyapunov(), rzk.example_barrier(), field
    path = tmp_path / "run.csv"
    io.write_trajectory_csv(path, *io.trajectory_columns(tr, V, B, W))
    lines = path.read_text().splitlines(True)
    dyn = rzk.example_system(rzk.ExampleConfig(0.3))
    for bad in _malformed_rows(lines[row]):
        path.write_text("".join(lines[:row] + [bad] + lines[row + 1:]))
        with pytest.raises(ValueError):
            np.loadtxt(path, delimiter=",", skiprows=1)
        with pytest.raises(ValueError):
            io.read_trajectory_csv(path)
        with pytest.raises(ValueError):
            for _ in io.trajectory_blocks(path, dyn, tr.ic_window):
                pass
