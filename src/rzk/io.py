"""Trajectory CSV and report JSON serialization.

CSV contract: comma separator, '.' decimal, '\n' line endings, 17
significant digits, columns t, x1..xn, u1..um, V, B, W, margin,
envelope-bound.  Identical inputs produce byte-identical files.
"""

import json

import numpy as np

from .simulate import Trajectory


def trajectory_columns(traj, V, B, W, bound=None):
    """Assemble the CSV column (names, matrix) for one trajectory.

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


def write_trajectory_csv(path, names, data):
    data = np.asarray(data, dtype=float)
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(names) + "\n")
        for start in range(0, data.shape[0], CSV_BLOCK):
            # + 0.0 folds negative zero into plain 0
            blk = data[start:start + CSV_BLOCK] + 0.0
            f.write(fmt * blk.shape[0] % tuple(blk.ravel().tolist()))


def read_trajectory_csv(path):
    """Read a trajectory CSV back into (column names, data matrix)."""
    with open(path) as f:
        header = f.readline().strip()
    names = header.split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{len(names)} columns in header, "
                         f"{data.shape[1]} in data")
    return names, data


def trajectory_from_csv(names, data, dyn, ic):
    """Rebuild a Trajectory from CSV columns of a run of the plant dyn.

    State derivatives are estimated by central differences (one-sided at
    the end); the verifier's reads at theta = -delta need them where
    delta/h is not an integer and the read falls between rows.  The one at
    t = 0, the initial window's slope in the reads at or before t = 0, is
    the run's own: the plant's xdot on the window with the recorded u.
    ic is the run's initial window, as its config gives it: the pre-history
    is not recoverable from the CSV.  Raises ValueError when a column is
    missing or there are fewer than two samples.
    """
    col = {name: data[:, k] for k, name in enumerate(names)}
    nx = sum(1 for name in names if name.startswith("x") and name[1:].isdigit())
    nu = sum(1 for name in names if name.startswith("u") and name[1:].isdigit())
    xn = [f"x{i + 1}" for i in range(max(nx, 1))]
    un = [f"u{j + 1}" for j in range(max(nu, 1))]
    missing = [c for c in ["t", *xn, *un, "margin"] if c not in col]
    if missing:
        raise ValueError(f"missing columns: {', '.join(missing)}")
    # copies, so that the trajectory does not hold the whole table
    ts = col["t"].copy()
    xs = np.column_stack([col[c] for c in xn])
    us = np.column_stack([col[c] for c in un])
    margins = col["margin"].copy()
    N = ts.shape[0]
    if N < 2:
        raise ValueError("need at least two samples")
    h = float(ts[1] - ts[0])
    slopes = np.empty_like(xs)
    slopes[1:-1] = (xs[2:] - xs[:-2]) / (2.0 * h)
    slopes[0] = dyn.f(ic) + dyn.g(ic) @ us[0]
    slopes[-1] = (xs[-1] - xs[-2]) / h
    meta = {"h": h, "T": float(ts[-1]), "delta": dyn.delta}
    return Trajectory(ts, xs, us, margins, slopes, meta, ic)


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
