"""Span tracing of rzk from outside the package.

Each traced callable is replaced, at the name its callers look up, by a
wrapper that records a span: name, the wrapper's entry and exit, the
call's own start and end, the enclosing span, and counts taken from the
arguments.  A layer's self time is the call's duration minus the entry-to-
exit time of its child spans, so the tracer's own bookkeeping inside a
child is not charged to the parent.  Spans stay in memory; write() saves
them when the run ends.
"""

import os
import time

import numpy as np

FIELD_METHODS = ("value", "grad", "value_many", "grad_many")


def _points(X):
    X = np.asarray(X)
    return X.size // X.shape[-1]


def _inbox(X, box):
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    return int(np.count_nonzero(box.contains_many(X)))


class Tracer:
    """clock: the time source of every span (the benchmark passes one that
    leaves out the speed probe's time)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.layers = []
        self.spans = []
        self.stack = []
        self._undo = []
        self._depth = {}

    def wrap(self, owner, attr, name, layer, count=None, flat=False):
        """Replace owner.attr by a tracing wrapper.  flat: calls made while
        a flat span of the same layer is open pass straight through, so a
        field built from fields counts once."""
        fn = getattr(owner, attr)
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans = self.spans
        stack = self.stack
        clock = self.clock
        depth = self._depth.setdefault(layer, [0])

        def traced(*args, **kwargs):
            if flat and depth[0]:
                return fn(*args, **kwargs)
            enter = clock()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            depth[0] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                c = count(args, result) if count is not None else ()
                spans[idx] = (nid, enter, start, end, clock(), parent, c)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def install(self):
        """Wrap the rzk entry points each layer is called through."""
        from rzk import cli, fields, halanay, history, io, simulate, system, verify

        box = fields.EXAMPLE_BOX
        for meth in FIELD_METHODS:
            many = meth.endswith("_many")
            kind = meth.split("_")[0]

            def count(args, result, many=many):
                X = args[1]
                return ((_points(X) if many else 1), _inbox(X, box))
            self.wrap(fields.ScalarField, meth, f"fields.{kind}", "fields",
                      count, flat=True)

        self.wrap(cli, "batch_integrate", "simulate.batch_integrate",
                  "simulate")
        steps = lambda s: int(round(s.T / s.h))
        self.wrap(simulate, "_lockstep_example", "simulate.lockstep",
                  "simulate", lambda a, r: (len(a[2]), steps(a[3])))
        self.wrap(simulate, "_integrate_general", "simulate.general",
                  "simulate", lambda a, r: (1, steps(a[3])))

        self.wrap(history.HistoryWindow, "interp_times", "history.interp",
                  "history", lambda a, r: (int(np.size(a[1])),))
        self.wrap(history.HistoryWindow, "push", "history.push", "history")
        self.wrap(history, "weighted_sup", "history.sup", "history")
        self.wrap(system.DelayDynamics, "f", "system.drift", "system")

        self.wrap(halanay, "decay_rate", "halanay.decay_rate", "halanay")
        self.wrap(halanay, "scalar_comparison_sim", "halanay.comparison",
                  "halanay", lambda a, r: (int(round(a[5] / a[6])),))

        self.wrap(verify, "window_states", "verify.window_states", "verify")
        self.wrap(verify, "safety_check", "verify.safety", "verify",
                  lambda a, r: (int(a[0].xs.shape[0]),))
        for fn, short in (("decrease_check", "decrease"),
                          ("envelope_check", "envelope"),
                          ("clbrf_construction_check", "construction"),
                          ("separation_check", "separation")):
            self.wrap(verify, fn, f"verify.{short}", "verify")

        size = lambda a, r: (os.path.getsize(a[0]),)
        self.wrap(io, "write_trajectory_csv", "io.csv_write", "io", size)
        self.wrap(io, "read_trajectory_csv", "io.csv_read", "io", size)
        self.wrap(io, "write_report_json", "io.json_write", "io")
        self.wrap(cli, "_Build", "cli.build", "cli")

    # -- results --------------------------------------------------------

    def arrays(self):
        sp = self.spans
        name = np.array([s[0] for s in sp], dtype=np.int32)
        t = np.array([s[1:5] for s in sp], dtype=float).reshape(-1, 4)
        parent = np.array([s[5] for s in sp], dtype=np.int64)
        return name, t, parent, [s[6] for s in sp]

    def write(self, path):
        name, t, parent, _ = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            enter=t[:, 0], start=t[:, 1], end=t[:, 2],
                            exit=t[:, 3], parent=parent)

    def layer_metrics(self):
        """Per-layer metrics of the traced calls: name -> (value, unit)."""
        name, t, parent, counts = self.arrays()
        names = self.names
        dur = t[:, 2] - t[:, 1]
        outer = t[:, 3] - t[:, 0]
        child = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], outer[has_parent])
        self_t = dur - child
        layer_of = np.array([self.layers[i] for i in name]) if len(name) else np.array([])

        def sel(n):
            ids = [i for i, x in enumerate(names) if x == n]
            return np.isin(name, ids)

        def total(n):
            return float(dur[sel(n)].sum())

        def calls(n):
            return int(sel(n).sum())

        def csum(n, k):
            return sum(counts[i][k] for i in np.flatnonzero(sel(n)))

        out = {}
        pts = csum("fields.value", 0) + csum("fields.grad", 0)
        inbox = csum("fields.value", 1) + csum("fields.grad", 1)
        out.update({
            "fields.value_calls": (calls("fields.value"), "count"),
            "fields.value_points": (csum("fields.value", 0), "count"),
            "fields.value_s": (total("fields.value"), "s"),
            "fields.grad_calls": (calls("fields.grad"), "count"),
            "fields.grad_points": (csum("fields.grad", 0), "count"),
            "fields.grad_s": (total("fields.grad"), "s"),
            "fields.inbox_share": (inbox / pts if pts else 0.0, "ratio"),
        })
        sim = layer_of == "simulate"
        top = sim & ~np.isin(parent, np.flatnonzero(sim))
        lanes = csum("simulate.lockstep", 0) + csum("simulate.general", 0)
        lane_steps = sum(counts[i][0] * counts[i][1] for i in np.flatnonzero(
            sel("simulate.lockstep") | sel("simulate.general")))
        busy = float(dur[top].sum())
        out.update({
            "simulate.calls": (calls("simulate.lockstep")
                               + calls("simulate.general"), "count"),
            "simulate.lanes": (lanes, "count"),
            "simulate.lane_steps": (lane_steps, "count"),
            "simulate.busy_s": (busy, "s"),
            "simulate.self_s": (float(self_t[sim].sum()), "s"),
            "simulate.us_per_lane_stage": (
                1e6 * busy / (4 * lane_steps) if lane_steps else 0.0, "us"),
        })
        out.update({
            "history.interp_calls": (calls("history.interp"), "count"),
            "history.interp_points": (csum("history.interp", 0), "count"),
            "history.interp_s": (total("history.interp"), "s"),
            "history.pushes": (calls("history.push"), "count"),
            "history.sup_calls": (calls("history.sup"), "count"),
            "history.sup_s": (total("history.sup"), "s"),
            "system.drift_calls": (calls("system.drift"), "count"),
            "system.drift_s": (total("system.drift"), "s"),
            "halanay.decay_rate_s": (total("halanay.decay_rate"), "s"),
            "halanay.comparison_steps": (csum("halanay.comparison", 0), "count"),
            "halanay.comparison_s": (total("halanay.comparison"), "s"),
            "verify.samples": (csum("verify.safety", 0), "count"),
            "verify.window_states_s": (total("verify.window_states"), "s"),
            "verify.safety_s": (total("verify.safety"), "s"),
            "verify.decrease_s": (total("verify.decrease"), "s"),
            "verify.envelope_s": (total("verify.envelope"), "s"),
            "verify.construction_s": (total("verify.construction"), "s"),
            "verify.separation_s": (total("verify.separation"), "s"),
            "io.csv_write_s": (total("io.csv_write"), "s"),
            "io.csv_write_bytes": (csum("io.csv_write", 0), "bytes"),
            "io.csv_read_s": (total("io.csv_read"), "s"),
            "io.csv_read_bytes": (csum("io.csv_read", 0), "bytes"),
            "io.json_write_s": (total("io.json_write"), "s"),
            "cli.build_s": (total("cli.build"), "s"),
            "cli.points": (calls("cli.build"), "count"),
            "trace.spans": (len(name), "count"),
        })
        return out
