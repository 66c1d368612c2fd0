"""Trajectory CSV and report JSON serialization.

CSV contract: comma separator, '.' decimal, '\n' line endings, 17
significant digits, columns t, x1..xn, u1..um, V, B, W, margin,
envelope-bound.  Identical inputs produce byte-identical files.
"""

import json

import numpy as np

from . import history as hist
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


def write_trajectory_csv(path, names, data):
    # + 0.0 folds negative zero into plain 0
    data = np.asarray(data, dtype=float) + 0.0
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(names) + "\n")
        # one row at a time, so no copy of the whole table is held
        f.writelines(fmt % tuple(row.tolist()) for row in data)


def read_trajectory_csv(path):
    """Read a trajectory CSV back into (column names, data matrix)."""
    with open(path) as f:
        header = f.readline().strip()
    names = header.split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {len(names)} columns in header, "
                         f"{data.shape[1]} in data")
    return names, data


def trajectory_from_csv(names, data, delta, ic=None):
    """Rebuild a Trajectory from CSV columns.

    State derivatives are estimated by central differences (one-sided at
    the ends); the verifier's reads at theta = -delta need them where
    delta/h is not an integer and the read falls between rows.
    ic is the run's initial window, as its config gives it; without one
    the pre-history is taken as constant at the first sample, since
    sampled-function starts are not recoverable from the CSV.
    """
    col = {name: data[:, k] for k, name in enumerate(names)}
    ts = col["t"]
    nx = sum(1 for name in names if name.startswith("x") and name[1:].isdigit())
    nu = sum(1 for name in names if name.startswith("u") and name[1:].isdigit())
    xs = np.column_stack([col[f"x{i + 1}"] for i in range(nx)])
    us = np.column_stack([col[f"u{j + 1}"] for j in range(nu)])
    margins = col["margin"]
    N = ts.shape[0]
    if N < 2:
        raise ValueError("need at least two samples")
    h = float(ts[1] - ts[0])
    slopes = np.empty_like(xs)
    slopes[1:-1] = (xs[2:] - xs[:-2]) / (2.0 * h)
    slopes[0] = (xs[1] - xs[0]) / h
    slopes[-1] = (xs[-1] - xs[-2]) / h
    meta = {"h": h, "T": float(ts[-1]), "delta": float(delta)}
    if ic is None:
        ic = hist.from_constant(xs[0].copy(), delta)
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
