"""Trajectory CSV and report JSON serialization.

CSV contract: comma separator, '.' decimal, '\n' line endings, 17
significant digits, columns t, x1..xn, u1..um, V, B, W, margin,
envelope-bound.  Identical inputs produce byte-identical files.  A run's
CSV is written and read a block of rows at a time: `write_trajectory_csv`
appends each block of rows as it comes, and `trajectory_blocks` reads the
run back in blocks of CSV_ROWS rows, so neither holds a whole run.
"""

import itertools
import json

import numpy as np

from .simulate import Trajectory


def trajectory_columns(traj, V, B, W, bound=None):
    """Assemble the CSV column (names, matrix) for the rows of traj, a run
    or a block of one.

    bound is the per-sample envelope column; None means no active
    certificate, written as zeros.
    """
    n = traj.xs.shape[1]
    m = traj.us.shape[1]
    if bound is None:
        bound = np.zeros(traj.ts.shape[0])
    names = (["t"] + [f"x{i + 1}" for i in range(n)]
             + [f"u{j + 1}" for j in range(m)]
             + ["V", "B", "W", "margin", "envelope-bound"])
    cols = ([traj.ts] + [traj.xs[:, i] for i in range(n)]
            + [traj.us[:, j] for j in range(m)]
            + [V.value_many(traj.xs), B.value_many(traj.xs),
               W.value_many(traj.xs), traj.margins,
               np.asarray(bound, dtype=float)])
    return names, np.column_stack(cols)


# rows per formatted block of write_trajectory_csv: one format call per
# block, and no copy of the whole table
CSV_BLOCK = 32


def write_trajectory_csv(path, names, data, append=False):
    """Write the header and the rows data, or with append only the rows,
    after those already in the file."""
    data = np.asarray(data, dtype=float)
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "a" if append else "w", newline="\n") as f:
        if not append:
            f.write(",".join(names) + "\n")
        for start in range(0, data.shape[0], CSV_BLOCK):
            # + 0.0 folds negative zero into plain 0
            blk = data[start:start + CSV_BLOCK] + 0.0
            f.write(fmt * blk.shape[0] % tuple(blk.ravel().tolist()))


# data rows per block of trajectory_blocks: on the demo's CSVs a larger
# block saves `rzk verify` little time (1.7 % at 4096 rows) and sets its
# memory peak
CSV_ROWS = 2048


def _rows(lines, names, done=0):
    """The next CSV_ROWS rows of lines, as loadtxt parses them, done data
    rows into the file; ValueError when a value is not a number, a row is
    not as wide as the one before it (loadtxt's checks, whose row numbers
    count from done), or the first is not as wide as the header."""
    try:
        data = np.loadtxt(lines, delimiter=",", max_rows=CSV_ROWS, ndmin=2)
    except ValueError as e:
        if not done:
            raise
        raise ValueError(f"past data row {done}: {e}") from None
    if data.shape[1] != len(names):
        raise ValueError(f"{len(names)} columns in header, "
                         f"{data.shape[1]} in data")
    return data


def _next_line(f):
    """The next line of f that holds a row ('' at the end): blank and
    comment lines, which loadtxt skips, are skipped."""
    line = f.readline()
    while line and (not line.strip() or line.lstrip().startswith("#")):
        line = f.readline()
    return line


def _row_blocks(f, names):
    """The data rows of the open CSV f, past its header, as arrays of at
    most CSV_ROWS rows, each with the row after it (None after the last):
    one block is held at a time, and loadtxt is never left an empty input.
    Every row is checked as `_rows` checks a block."""
    line, done = _next_line(f), 0
    while line:
        data = _rows(itertools.chain([line], f), names, done)
        line, done = _next_line(f), done + data.shape[0]
        yield data, _rows([line], names, done)[0] if line else None


def read_trajectory_csv(path):
    """Read a trajectory CSV back into (column names, data matrix)."""
    with open(path) as f:
        names = f.readline().strip().split(",")
        blocks = [data for data, _ in _row_blocks(f, names)]
    data = (np.concatenate(blocks) if blocks
            else np.empty((0, len(names))))
    return names, data


def _run_columns(names):
    """The state and input column names of a trajectory CSV, (x1.., u1..);
    ValueError when one of them, t or margin is missing."""
    nx = sum(1 for name in names if name.startswith("x") and name[1:].isdigit())
    nu = sum(1 for name in names if name.startswith("u") and name[1:].isdigit())
    xn = [f"x{i + 1}" for i in range(max(nx, 1))]
    un = [f"u{j + 1}" for j in range(max(nu, 1))]
    missing = [c for c in ["t", *xn, *un, "margin"] if c not in names]
    if missing:
        raise ValueError(f"missing columns: {', '.join(missing)}")
    return xn, un


def trajectory_from_csv(names, data, dyn, ic, h=None, before=None,
                        after=None):
    """Rebuild a Trajectory from CSV rows of a run of the plant dyn: the
    whole table, or a block of it.

    State derivatives are estimated by central differences (one-sided at
    the end); the verifier's reads at theta = -delta need them where
    delta/h is not an integer and the read falls between rows.  The one at
    t = 0, the initial window's slope in the reads at or before t = 0, is
    the run's own: the plant's xdot on the window with the recorded u.
    ic is the run's initial window, as its config gives it: the pre-history
    is not recoverable from the CSV.  For a block, before is the CSV row
    ahead of it and after the one behind it (None at the start and the end
    of the run), and h the step between the run's first two rows (None:
    taken from the block, or its after row).  Raises ValueError when a
    column is missing or the run has fewer than two samples.
    """
    xn, un = _run_columns(names)
    col = {name: data[:, k] for k, name in enumerate(names)}
    # copies, so that the trajectory does not hold the whole table
    ts = col["t"].copy()
    xs = np.column_stack([col[c] for c in xn])
    us = np.column_stack([col[c] for c in un])
    margins = col["margin"].copy()
    N = ts.shape[0]
    if h is None:
        t = ts if after is None else np.append(ts, after[names.index("t")])
        if t.shape[0] < 2:
            raise ValueError("need at least two samples")
        h = float(t[1] - t[0])
    # the states with the rows around them, for the differences
    ix = [names.index(c) for c in xn]
    X = xs
    if before is not None:
        X = np.concatenate([before[None, ix], X])
    if after is not None:
        X = np.concatenate([X, after[None, ix]])
    lo, hi = before is not None, after is not None
    slopes = np.empty_like(xs)
    slopes[1 - lo:N - 1 + hi] = (X[2:] - X[:-2]) / (2.0 * h)
    if not lo:
        slopes[0] = dyn.f(ic) + dyn.g(ic) @ us[0]
    if not hi:
        slopes[-1] = (X[-1] - X[-2]) / h
    meta = {"h": h, "T": float(ts[-1]), "delta": dyn.delta}
    return Trajectory(ts, xs, us, margins, slopes, meta, ic)


def trajectory_blocks(path, dyn, ic):
    """The run in the trajectory CSV at path as Trajectory blocks of at
    most CSV_ROWS rows (`trajectory_from_csv` on each), read as they are
    taken: a block is made once the row after it is read.  Every column
    is parsed, so a malformed row fails as it does in
    `read_trajectory_csv`.  Raises ValueError as `trajectory_from_csv`
    and `read_trajectory_csv` do."""
    with open(path) as f:
        names = f.readline().strip().split(",")
        h = before = None
        for data, after in _row_blocks(f, names):
            tr = trajectory_from_csv(names, data, dyn, ic, h, before, after)
            h, before = tr.h, data[-1].copy()
            yield tr
            del tr
        if before is None:
            # no rows: the message of a run too short to rebuild
            trajectory_from_csv(names, np.empty((0, len(names))), dyn, ic)


def _clean(obj):
    """Replace non-finite floats with None so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    return obj


def write_report_json(path, obj):
    with open(path, "w", newline="\n") as f:
        json.dump(_clean(obj), f, indent=2)
        f.write("\n")


def read_json(path):
    with open(path) as f:
        return json.load(f)
