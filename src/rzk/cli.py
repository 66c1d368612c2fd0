"""Config-driven command line.

Subcommands: demo (build the worked example, simulate, verify, emit
artifacts), simulate (one batch from a config), halanay (decay-rate
roots), sweep (parameter grid), verify (re-check existing CSVs).

Exit codes: 0 all checks pass, 1 check failure or divergence, 2 usage or
config error.  Set RZK_LOG to a logging level name for diagnostics.
`main` may be called repeatedly in one process; it builds its parser on
the first call and reuses it.

demo, simulate and verify split a batch of SPLIT_ROWS rows or more over
the cores the process may run on, its CPU affinity (`_split`): one
process per core, each running its share of the runs.  A lockstep lane
equals its one-lane run bit for bit, so every output byte is the one a
single process writes.  With a core to spare, a W sweep computes its
certificate-level checks in one child while it runs its locksteps
(`_beside`), and forms every row in point order once both are done.
`taskset -c 0` keeps any command on one core.
"""

import argparse
import functools
import itertools
import json
import logging
import math
import os
import pickle
import signal
import sys

import numpy as np

from . import halanay, io, verify
from . import history as hist
from .controller import ControllerSpec, RazumikhinGains
from .fields import (EXAMPLE_BOX, combine_clbrf, example_barrier,
                     example_lyapunov, example_margin, example_sandwich)
from .simulate import IntegrationSettings, _check_settings, batch_integrate
from .system import ExampleConfig, example_system

log = logging.getLogger("rzk.cli")

SCHEMA_VERSION = 1
DEFAULT_PSI = 82.0
CONVERGED_NORM = 5e-2

# documented demo starts: outside the refined excluded set, spread around
# the obstacle box so approach paths differ
DEMO_INITIAL_CONDITIONS = ((-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0))

# lanes of one sweep lockstep: neighbouring points of one tau share a
# lockstep up to this many, so its table stops growing with the number of
# psi and gain points.  On demos/threshold_study.json with 16 psi values
# (64 lanes, T = 10; x86-64, Python 3.11) caps of 16, 32 and 64 lanes ran
# the sweep equally fast within noise, 6.1 to 7.0 s, while peak RSS rose
# from 47 to 56 to 72 MB; a lane-step cost 8.8 us at 16 lanes, 8.2 us at 64
SWEEP_LANES = 16

# rows a batch must hold, over all its runs, before `_split` splits it.
# A fork and join cost about 3 ms, and a child's first writes to the
# memory it shares with its parent more.  Splitting 2 to 4 demo starts
# over 2 cores (x86-64, Python 3.11; medians of 21 alternated calls)
# saved `rzk simulate` 5 % at 1504 rows, 14 % at 2004 and 23 to 35 %
# from 6000; `rzk verify` lost 14 to 31 % at 1504 to 4004 rows and saved
# 8 to 22 % at 8004, the value taken
SPLIT_ROWS = 8000

_TOP_KEYS = {"schema_version", "system", "certificate", "gains", "lambda",
             "initial_conditions", "integration", "outputs", "seed", "sweep"}
_SWEEP_KEYS = ("tau", "psi", "lambda", "gamma", "eta", "initial_conditions")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def demo_config(psi=DEFAULT_PSI, seed=0):
    return {
        "schema_version": SCHEMA_VERSION,
        "system": {"name": "example", "tau": 0.3, "delta": 0.3},
        "certificate": {"kind": "W", "psi": float(psi)},
        "gains": {"gamma": 2.5, "eta": 2.0, "mu": 0.0},
        "lambda": 2.0,
        "initial_conditions": [list(p) for p in DEMO_INITIAL_CONDITIONS],
        "integration": {"h": 1e-3, "T": 20.0},
        "outputs": {"prefix": "trajectory"},
        "seed": int(seed),
    }


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _number(val, name):
    try:
        out = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number") from None
    _require(math.isfinite(out), f"{name} must be finite")
    return out


def _section(data, key):
    sec = data.get(key, {})
    _require(isinstance(sec, dict), f"{key} must be an object")
    return sec


class RunConfig:
    """Validated run description; see demo_config() for the full shape."""

    def __init__(self, data):
        _require(isinstance(data, dict), "config must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        _require(data.get("schema_version") == SCHEMA_VERSION,
                 f"schema_version must be {SCHEMA_VERSION}")

        system = _section(data, "system")
        _require(system.get("name") == "example",
                 "system.name must be 'example'")
        self.delta = _number(system.get("delta", 0.3), "system.delta")
        _require(self.delta > 0, "system.delta must be positive")
        self.tau = _number(system.get("tau", self.delta), "system.tau")

        cert = _section(data, "certificate")
        self.kind = cert.get("kind", "W")
        _require(self.kind in ("V", "B", "W", "none"),
                 "certificate.kind must be one of V, B, W, none")
        self.psi = _number(cert.get("psi", DEFAULT_PSI), "certificate.psi")
        # every kind writes W = V + psi B to its CSVs
        _require(self.psi > 0, "certificate.psi must be positive")

        gains = _section(data, "gains")
        self.gamma = _number(gains.get("gamma", 2.5), "gains.gamma")
        self.eta = _number(gains.get("eta", 2.0), "gains.eta")
        self.mu = _number(gains.get("mu", 0.0), "gains.mu")
        _require(self.gamma > self.eta >= 0.0,
                 "gains must satisfy gamma > eta >= 0")
        _require(self.mu >= 0.0, "gains.mu must be non-negative")

        self.lam = _number(data.get("lambda", 2.0), "lambda")
        _require(self.lam > 0, "lambda must be positive")

        ics = data.get("initial_conditions")
        _require(isinstance(ics, list) and ics,
                 "initial_conditions must be a non-empty list")
        self.initial_conditions = []
        for k, entry in enumerate(ics):
            if isinstance(entry, dict):
                _require(set(entry) == {"times", "states"},
                         f"initial_conditions[{k}]: sampled entries need "
                         "exactly 'times' and 'states'")
                _require(isinstance(entry["times"], list)
                         and isinstance(entry["states"], list)
                         and all(isinstance(s, list) for s in entry["states"]),
                         f"initial_conditions[{k}]: times and states must be "
                         "lists")
                times = [_number(t, f"initial_conditions[{k}].times")
                         for t in entry["times"]]
                states = [[_number(v, f"initial_conditions[{k}].states")
                           for v in s] for s in entry["states"]]
                _require(len(times) == len(states) >= 2,
                         f"initial_conditions[{k}]: times/states mismatch")
                _require(all(t2 > t1 for t1, t2 in zip(times, times[1:])),
                         f"initial_conditions[{k}]: times must increase")
                _require(abs(times[0] + self.delta) < 1e-12
                         and abs(times[-1]) < 1e-12,
                         f"initial_conditions[{k}]: times must span "
                         "[-delta, 0]")
                _require(all(len(s) == 2 for s in states),
                         f"initial_conditions[{k}]: states must have 2 "
                         "components")
                self.initial_conditions.append({"times": times,
                                                "states": states})
            else:
                _require(isinstance(entry, list),
                         f"initial_conditions[{k}] must be a list or a "
                         "times/states object")
                vec = [_number(v, f"initial_conditions[{k}]") for v in entry]
                _require(len(vec) == 2,
                         f"initial_conditions[{k}] must have 2 components")
                self.initial_conditions.append(vec)

        integ = _section(data, "integration")
        self.h = _number(integ.get("h", 1e-3), "integration.h")
        self.T = _number(integ.get("T", 20.0), "integration.T")
        if "grid" in integ:
            # written by configs from before the sup was taken on the rows
            log.warning("integration.grid is ignored: the history sup is "
                        "taken on the run's own sample rows")
        # the plant's, step's and mu's rules, checked as batch_integrate does
        try:
            _check_settings(example_system(ExampleConfig(self.tau,
                                                         self.delta)),
                            IntegrationSettings(h=self.h, T=self.T), self.mu)
        except ValueError as e:
            raise ConfigError(str(e)) from None

        self.prefix = str(_section(data, "outputs").get("prefix",
                                                        "trajectory"))
        _require(self.prefix and all(c.isalnum() or c in "-_"
                                     for c in self.prefix),
                 "outputs.prefix must be a plain file name stem")
        self.seed = data.get("seed", 0)
        _require(type(self.seed) is int, "seed must be an integer")

        self.sweep = data.get("sweep")
        if self.sweep is not None:
            _require(isinstance(self.sweep, dict), "sweep must be an object")
            unknown = set(self.sweep) - set(_SWEEP_KEYS)
            _require(not unknown, f"unknown sweep keys: {sorted(unknown)}")
            for key, vals in self.sweep.items():
                _require(isinstance(vals, list),
                         f"sweep.{key} must be a list")

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: line {e.lineno} column {e.colno}: "
                              f"{e.msg}") from e
        return cls(data)

    def to_dict(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "system": {"name": "example", "tau": self.tau,
                       "delta": self.delta},
            "certificate": {"kind": self.kind, "psi": self.psi},
            "gains": {"gamma": self.gamma, "eta": self.eta, "mu": self.mu},
            "lambda": self.lam,
            "initial_conditions": [dict(e) if isinstance(e, dict) else list(e)
                                   for e in self.initial_conditions],
            "integration": {"h": self.h, "T": self.T},
            "outputs": {"prefix": self.prefix},
            "seed": self.seed,
        }
        if self.sweep is not None:
            out["sweep"] = self.sweep
        return out


class _Build:
    """Concrete objects for one run configuration."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.dyn = example_system(ExampleConfig(cfg.tau, cfg.delta))
        self.V = example_lyapunov()
        self.B = example_barrier()
        self.W = combine_clbrf(self.V, self.B, cfg.psi)
        self.gains = RazumikhinGains(cfg.gamma, cfg.eta, cfg.mu)
        self.active = {"V": self.V, "B": self.B, "W": self.W,
                       "none": None}[cfg.kind]
        if self.active is None:
            self.ctrl = None
        else:
            self.ctrl = ControllerSpec(self.active, self.gains, cfg.lam)
        self.settings = IntegrationSettings(h=cfg.h, T=cfg.T)
        self.unsafe = verify.example_unsafe_set()
        if cfg.eta > 0:
            self.cert = halanay.DecayCertificate(cfg.gamma, cfg.eta,
                                                 cfg.delta)
        else:
            self.cert = None

    def bound_column(self, ts, x0):
        """Envelope-bound column at the times ts of a run from x0: v0
        e^{-rho t}, v0 the active certificate at x0, when it starts
        positive, otherwise 0 (the signed form's bound)."""
        if self.active is None or self.cert is None:
            return np.zeros(ts.shape[0])
        v0 = float(self.active.value(x0))
        if v0 > 0:
            return self.cert.envelope(v0, ts)
        return np.zeros(ts.shape[0])


def _windows(cfg):
    """The initial windows of cfg's starts, in order."""
    out = []
    for entry in cfg.initial_conditions:
        if isinstance(entry, dict):
            out.append(hist.from_samples(entry["times"], entry["states"],
                                         cfg.delta))
        else:
            out.append(hist.from_constant(np.asarray(entry, dtype=float),
                                          cfg.delta))
    return out


def _trajectory_file(prefix, k):
    return f"{prefix}_{k:02d}.csv"


class _Run:
    """One run, fed its rows a block at a time as the lockstep or a CSV
    hands them on: its CSV when it has a path, the reductions of its
    run.json row (first and final state, steps, peak norm and its time,
    peak |u|) when reduced, and, when checked, its per-trajectory checks;
    it must also reach the configured T.  Unreduced, it keeps only its
    first state."""

    def __init__(self, build, checked=True, file=None, path=None,
                 reduced=True):
        self.build, self.file, self.path = build, file, path
        self.reduced = reduced
        self.start = self.final = self.peak = None
        self.peak_abs_u = 0.0
        # the run's row count and divergence, reported only when checked
        self.finite = verify.FiniteCheck(
            int(round(build.settings.T / build.settings.h)))
        self.checks = {}
        if checked:
            self.checks["safety"] = verify.SafetyCheck(build.unsafe)
            if build.active is not None:
                self.checks["decrease"] = verify.DecreaseCheck(build.active,
                                                               build.gains)
                if build.cert is not None:
                    self.checks["envelope"] = verify.EnvelopeCheck(
                        build.active, build.cert)
            self.checks["finite"] = self.finite

    @property
    def rows(self):
        return self.finite.rows

    @property
    def diverged(self):
        return self.finite.diverged

    def feed(self, block):
        b = self.build
        n = block.xs.shape[0]
        if n:
            first = self.start is None
            if first:
                self.start = block.xs[0].copy()
            if self.reduced:
                norms = np.linalg.norm(block.xs, axis=1)
                k = int(np.argmax(norms))
                if verify.beats(norms[k], self.peak and self.peak[0]):
                    self.peak = float(norms[k]), float(block.ts[k])
                u = float(np.max(np.abs(block.us), initial=0.0))
                if verify.beats(u, self.peak_abs_u):
                    self.peak_abs_u = u
                self.final = block.xs[-1].copy()
            if self.path is not None:
                io.write_trajectory_csv(
                    self.path, *io.trajectory_columns(
                        block, b.V, b.B, b.W,
                        b.bound_column(block.ts, self.start)),
                    append=not first)
        if not self.checks:
            self.finite.feed(block)
            return
        # the certificate on the rows, once for every check that reads it
        fv = (b.active.value_many(block.xs)
              if b.active is not None and n else None)
        for check in self.checks.values():
            check.feed(block, fv)

    def report(self):
        return {name: check.report() for name, check in self.checks.items()}

    @property
    def final_norm(self):
        return float(np.linalg.norm(self.final))

    @property
    def converged(self):
        return bool(self.final_norm < CONVERGED_NORM and not self.diverged)

    def row(self):
        return {
            "file": self.file,
            "initial_state": [float(v) for v in self.start],
            "steps": self.rows - 1,
            "diverged": self.diverged,
            "final_state": [float(v) for v in self.final],
            "final_norm": self.final_norm,
            "converged": self.converged,
            "peak_norm": self.peak[0],
            "peak_norm_time": self.peak[1],
            "peak_abs_u": self.peak_abs_u,
        }


def _cores():
    """The cores this process may run on: 1 without fork or CPU affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _beside(tasks):
    """[task() for task in tasks], each task but the first run beside this
    process's.

    This process runs tasks[0], and a child forked after the imports runs
    each other task and sends back its result, or the exception it raised,
    pickled through a pipe.  The results come back in task order, and the
    first exception in task order is raised.  A child leaves by os._exit,
    whatever it raises, so it never returns into its caller's stack, and
    no child outlives the call: on any exit each is killed and reaped.
    Forking, not spawning, spares each child the imports; rzk starts no
    threads.
    """
    children = []
    try:
        for task in tasks[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if not pid:
                status = 1
                try:
                    os.close(r)
                    try:
                        out = task(), None
                    except Exception as e:
                        out = None, e
                    with os.fdopen(w, "wb") as f:
                        pickle.dump(out, f)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        outs = [tasks[0]()]
        for pid, f in children:
            data = f.read()
            if not data:
                raise RuntimeError(f"worker process {pid} died before it "
                                   "sent its records")
            out, err = pickle.loads(data)
            if err is not None:
                raise err
            outs.append(out)
        return outs
    finally:
        for pid, f in children:
            f.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _split(build, n, share):
    """share(0, n), the list of the records of runs 0..n-1 of a batch of n
    runs of build's settings, with the runs split over the usable cores
    when the batch holds SPLIT_ROWS rows or more.

    share(lo, hi) gives the records of runs lo..hi-1.  The runs are cut
    into contiguous shares in run order, at most one per run and per core,
    and run `_beside` each other, so the caller writes every artifact and
    line from the records in run order.
    """
    rows = n * (build.settings.T / build.settings.h + 1)
    jobs = min(n, _cores()) if rows >= SPLIT_ROWS else 1
    cuts = [n * j // jobs for j in range(jobs + 1)]
    shares = _beside([lambda lo=lo, hi=hi: share(lo, hi)
                      for lo, hi in zip(cuts, cuts[1:])])
    return [record for out in shares for record in out]


def _run_batch(build, out_dir, checked):
    """Simulate, each run's rows streamed into its CSV, its run.json row
    and, when checked, its per-trajectory checks, with the runs split over
    the usable cores (`_split`); write config + CSVs + run.json.  Returns
    each run's (run.json row, check reports), in run order."""
    cfg = build.cfg
    wins = _windows(cfg)
    if build.ctrl is not None and cfg.kind == "W":
        member = build.unsafe.refined_membership(build.W)
        for k, w in enumerate(wins):
            if member(w.xs[:w.count]).any():
                log.warning("initial condition %d starts inside the "
                            "excluded set", k)
    files = [_trajectory_file(cfg.prefix, k) for k in range(len(wins))]

    def share(lo, hi):
        runs = [_Run(build, checked, f, os.path.join(out_dir, f))
                for f in files[lo:hi]]
        batch_integrate(build.dyn, build.ctrl, wins[lo:hi], build.settings,
                        lambda k, block: runs[k].feed(block))
        return [(run.row(), run.report()) for run in runs]

    records = _split(build, len(wins), share)
    io.write_report_json(os.path.join(out_dir, "config.json"), cfg.to_dict())
    io.write_report_json(os.path.join(out_dir, "run.json"),
                         {"schema_version": SCHEMA_VERSION,
                          "trajectories": [row for row, _ in records]})
    return records


# the example's sandwich bounds, box and exterior margin, which the
# construction check reads
_CONSTRUCTION = (example_sandwich(), EXAMPLE_BOX, example_margin)


def _point_checks(build, samples=None):
    """Certificate-level checks, construction and separation, of a W run:
    they depend on psi, the gains and the seed, not on the starts.  samples
    is the construction check's psi-free half from
    `verify.construction_samples`, drawn afresh when None."""
    if build.cfg.kind != "W":
        return {}
    return {
        "construction": verify.clbrf_construction_check(
            build.V, build.B, *_CONSTRUCTION,
            psi=build.cfg.psi, gains=(build.gains, build.gains),
            unsafe=build.unsafe, seed=build.cfg.seed, samples=samples),
        "separation": verify.separation_check(build.unsafe, build.W),
    }


def _all_pass(point, per):
    """Whether the certificate-level checks and every run's checks pass."""
    return (all(r.passed for r in point.values())
            and all(c.passed for checks in per for c in checks.values()))


def cmd_demo(args):
    cfg = RunConfig(demo_config(psi=args.psi, seed=args.seed))
    build = _Build(cfg)
    os.makedirs(args.out, exist_ok=True)
    records = _run_batch(build, args.out, checked=True)
    point = _point_checks(build)
    ok = _all_pass(point, [checks for _, checks in records])

    summary = {"schema_version": SCHEMA_VERSION,
               "checks": {k: r.as_dict() for k, r in point.items()},
               "trajectories": [], "all_pass": bool(ok)}
    for row, checks in records:
        summary["trajectories"].append({
            "file": row["file"],
            "final_norm": row["final_norm"],
            "converged": row["converged"],
            "checks": {name: r.as_dict() for name, r in checks.items()},
        })
    io.write_report_json(os.path.join(args.out, "summary.json"), summary)
    for name, rep in point.items():
        print(f"{name}: {'pass' if rep.passed else 'FAIL'}")
    for row in summary["trajectories"]:
        states = ", ".join(f"{name}: {'pass' if c['pass'] else 'FAIL'}"
                           for name, c in row["checks"].items())
        print(f"{row['file']}: {states}, |x(T)| = {row['final_norm']:.6g}")
    if not ok:
        bad = [k for k, r in point.items() if not r.passed]
        for row in summary["trajectories"]:
            bad += [f"{row['file']}:{n}" for n, c in row["checks"].items()
                    if not c["pass"]]
        print("failing checks: " + ", ".join(bad), file=sys.stderr)
    return 0 if ok else 1


def cmd_simulate(args):
    cfg = RunConfig.from_file(args.config)
    build = _Build(cfg)
    os.makedirs(args.out, exist_ok=True)
    rows = [row for row, _ in _run_batch(build, args.out, checked=False)]
    for row in rows:
        state = "diverged" if row["diverged"] else "ok"
        print(f"{row['file']}: {state}, {row['steps']} steps")
    return 1 if any(row["diverged"] for row in rows) else 0


def cmd_halanay(args):
    # the comparison run's step; its input errors are config errors too,
    # and it is run before anything is printed
    step = 1e-3
    try:
        _require(math.isfinite(args.T) and args.T >= step,
                 f"T must be finite and at least the step {step}")
        cert = halanay.DecayCertificate(args.gamma, args.eta, args.delta,
                                        variant=args.variant)
        if args.envelope:
            ts, vs = halanay.scalar_comparison_sim(
                args.gamma, args.eta, 0.0, args.delta, 1.0, args.T, step)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    print(f"rho_bar({args.variant}) = {cert.rho_bar:.10f}")
    if not args.envelope:
        return 0
    rep = halanay.check_envelope(ts, vs, 1.0, cert.rho)
    stride = max(1, ts.shape[0] // 10)
    print("t,v,bound")
    for k in range(0, ts.shape[0], stride):
        print(f"{ts[k]:.3f},{vs[k]:.10e},{cert.envelope(1.0, ts[k]):.10e}")
    print(f"max ratio = {rep['max_ratio']:.12f} at rho = {cert.rho:.10f}")
    return 0 if rep["pass"] else 1


def _sweep_points(cfg):
    axes = [(k, cfg.sweep[k]) for k in _SWEEP_KEYS if k in cfg.sweep]
    if not axes or any(not v for _, v in axes):
        return [], []
    names = [k for k, _ in axes]
    points = list(itertools.product(*(v for _, v in axes)))
    return names, points


def _sweep_config(base, names, pt):
    """The run config of the sweep point pt: base with each named axis set
    to the point's value."""
    d = json.loads(json.dumps(base))
    for key, val in zip(names, pt):
        if key == "tau":
            d["system"]["tau"] = val
        elif key == "psi":
            d["certificate"]["psi"] = val
        elif key == "lambda":
            d["lambda"] = val
        elif key in ("gamma", "eta"):
            d["gains"][key] = val
        else:
            d["initial_conditions"] = [val]
    return RunConfig(d)


def cmd_sweep(args):
    cfg = RunConfig.from_file(args.config)
    if cfg.sweep is None:
        raise ConfigError("config has no sweep section")
    os.makedirs(args.out, exist_ok=True)
    names, points = _sweep_points(cfg)
    base = cfg.to_dict()
    base.pop("sweep")
    subs = [_sweep_config(base, names, pt) for pt in points]
    # points whose configs differ only in their start share one build.  The
    # starts axis comes last; the other axes' values are compared as JSON
    # text, which keeps -0.0 apart from 0.0
    fixed = len(names) - (names[-1:] == ["initial_conditions"])
    shared, builds = {}, []
    for pt, sub in zip(points, subs):
        key = json.dumps(pt[:fixed])
        if key not in shared:
            shared[key] = _Build(sub)
        builds.append(shared[key])
    # neighbouring points of one tau share a lockstep of up to SWEEP_LANES
    # lanes, one per start under its own point's controller; a point with
    # more starts runs alone
    packs, lanes, tau = [], 0, None
    for k, sub in enumerate(subs):
        n = len(sub.initial_conditions)
        if not packs or json.dumps(sub.tau) != tau or lanes + n > SWEEP_LANES:
            packs.append([])
            lanes = 0
        packs[-1].append(k)
        lanes += n
        tau = json.dumps(sub.tau)
    # the certificate-level checks of W points depend on psi and the gains,
    # not on the starts: once per (psi, gamma, eta), every construction
    # check reading the one draw of its psi-free samples
    firsts = {}
    if cfg.kind == "W":
        for sub, build in zip(subs, builds):
            firsts.setdefault((sub.psi, sub.gamma, sub.eta), build)
    samples = None
    if firsts:
        first = next(iter(firsts.values()))
        samples = verify.construction_samples(
            first.V, first.B, *_CONSTRUCTION, unsafe=first.unsafe,
            seed=cfg.seed)

    def locksteps():
        """Each point's runs as (reports, final norm, converged, start): a
        lane equals its one-lane run bit for bit."""
        out = []
        for pack in packs:
            runs = [[_Run(builds[k]) for _ in subs[k].initial_conditions]
                    for k in pack]
            flat = [run for point in runs for run in point]
            wins = [w for k in pack for w in _windows(subs[k])]
            batch_integrate(builds[pack[0]].dyn,
                            [run.build.ctrl for run in flat], wins,
                            builds[pack[0]].settings,
                            lambda k, block: flat[k].feed(block))
            out += [[(run.report(), run.final_norm, run.converged, run.start)
                     for run in point] for point in runs]
        return out

    def checks():
        return {key: _point_checks(build, samples)
                for key, build in firsts.items()}

    tasks = [locksteps, checks]
    if firsts and _cores() > 1:
        ran, point_checks = _beside(tasks)
    else:
        ran, point_checks = [task() for task in tasks]
    header = ["index", "tau", "psi", "lambda", "gamma", "eta", "trajectories",
              "converged", "checks_pass", "min_safety_margin",
              "max_envelope_ratio", "x0_1", "x0_2", "final_norm"]
    lines = [",".join(header)]
    all_ok = True
    for idx, (sub, runs) in enumerate(zip(subs, ran)):
        per, finals, convs, starts = zip(*runs)
        ok = _all_pass(point_checks.get((sub.psi, sub.gamma, sub.eta), {}),
                       per)
        margins = [c["safety"].worst for c in per
                   if c["safety"].worst is not None]
        ratios = [c["envelope"].worst for c in per
                  if "envelope" in c and c["envelope"].details["form"] == "ratio"]
        # x(0) of the point's start; NaN when the point has several
        x0 = starts[0].tolist() if len(runs) == 1 else [float("nan")] * 2
        row = [idx, sub.tau, sub.psi, sub.lam, sub.gamma, sub.eta, len(runs),
               int(all(convs)), int(ok),
               min(margins) if margins else float("inf"),
               max(ratios) if ratios else float("nan")] + x0 + [max(finals)]
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row))
        all_ok = all_ok and ok
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines))
        f.write("\n")
    print(f"{len(points)} sweep points -> {path}")
    return 0 if all_ok else 1


def cmd_verify(args):
    cfg = RunConfig.from_file(args.config)
    build = _Build(cfg)
    files = [_trajectory_file(cfg.prefix, k)
             for k in range(len(cfg.initial_conditions))]

    def blocks(path, w):
        try:
            yield from io.trajectory_blocks(path, build.dyn, w)
        except ValueError as e:
            raise ConfigError(f"{path} is not a trajectory CSV: {e}") from None

    def check(k, w):
        path = os.path.join(args.out, files[k])
        run = _Run(build, reduced=False)
        for block in blocks(path, w):
            if run.start is None and not np.array_equal(block.xs[0],
                                                        w.latest_state):
                raise ConfigError(f"{path} does not start at "
                                  f"initial_conditions[{k}]")
            run.feed(block)
        return run.report()

    # same suite the demo runs: per-file checks plus certificate-level ones.
    # Each CSV is checked a block at a time as it is read, the files split
    # over the usable cores (`_split`); the first bad file in run order
    # raises before anything is printed
    wins = _windows(cfg)
    per = _split(build, len(wins),
                 lambda lo, hi: [check(k, wins[k]) for k in range(lo, hi)])
    point = _point_checks(build)
    ok = _all_pass(point, per)
    for name, rep in point.items():
        print(f"{name}: {'pass' if rep.passed else 'FAIL'}")
    results = []
    for fname, checks in zip(files, per):
        results.append({"file": fname,
                        "checks": {n: c.as_dict()
                                   for n, c in checks.items()}})
        states = ", ".join(f"{n}: {'pass' if c.passed else 'FAIL'}"
                           for n, c in checks.items())
        print(f"{fname}: {states}")
    io.write_report_json(os.path.join(args.out, "verify_summary.json"),
                         {"schema_version": SCHEMA_VERSION,
                          "checks": {k: r.as_dict() for k, r in point.items()},
                          "results": results, "all_pass": bool(ok)})
    return 0 if ok else 1


@functools.cache
def _parser():
    """The command line's parser, built on the first `main` call of a
    process and reused by every later one: parse_args keeps no state in
    it."""
    p = argparse.ArgumentParser(
        prog="rzk",
        description="Delay-system certificates: simulate, verify, sweep.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", help="worked example end to end")
    d.add_argument("--out", default="rzk_demo", help="output directory")
    d.add_argument("--psi", type=float, default=DEFAULT_PSI,
                   help="barrier weight in W = V + psi B")
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_demo)

    s = sub.add_parser("simulate", help="run one config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default="rzk_out")
    s.set_defaults(fn=cmd_simulate)

    h = sub.add_parser("halanay", help="decay-rate roots")
    h.add_argument("--gamma", type=float, required=True)
    h.add_argument("--eta", type=float, required=True)
    h.add_argument("--delta", type=float, required=True)
    h.add_argument("--variant", choices=("proof", "statement"),
                   default="proof")
    h.add_argument("--envelope", action="store_true",
                   help="also run the comparison simulation")
    h.add_argument("--T", type=float, default=10.0)
    h.set_defaults(fn=cmd_halanay)

    w = sub.add_parser("sweep", help="parameter grid")
    w.add_argument("--config", required=True)
    w.add_argument("--out", default="rzk_sweep")
    w.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("verify", help="re-check existing trajectory CSVs")
    v.add_argument("--config", required=True)
    v.add_argument("--out", default="rzk_out",
                   help="directory holding the CSVs")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    level = os.environ.get("RZK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
