"""Config-driven command line.

Subcommands: simulate (one batch from a config), demo (simulate the
worked example's config, then check it), verify (re-check existing CSVs),
sweep (parameter grid), halanay (decay-rate roots).

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

_SWEEP_KEYS = ("tau", "psi", "lambda", "gamma", "eta", "initial_conditions")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _number(val, name, positive=False):
    """val as a float: a finite JSON number, not a boolean or a string.
    It reads each sample of a sampled start, so builds no unused message."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        out = float(val)
    except OverflowError:       # an integer past the largest float
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite")
    if positive and not out > 0:
        raise ConfigError(f"{name} must be positive")
    return out


_positive = functools.partial(_number, positive=True)


def _kind(val, name):
    _require(val in ("V", "B", "W", "none"),
             f"{name} must be one of V, B, W, none")
    return val


def _starts(val, name):
    """The starts, as floats; RunConfig then builds their windows."""
    _require(isinstance(val, list) and val, f"{name} must be a non-empty list")
    out = []
    for k, entry in enumerate(val):
        at = f"{name}[{k}]"
        if isinstance(entry, dict):
            _require(set(entry) == {"times", "states"},
                     f"{at}: sampled entries need exactly 'times' and "
                     "'states'")
            times, states = entry["times"], entry["states"]
            _require(isinstance(times, list) and isinstance(states, list)
                     and all(isinstance(s, list) and len(s) == 2
                             for s in states),
                     f"{at}: times must be a list and states a list of "
                     "2-vectors")
            out.append({"times": [_number(t, f"{at}.times") for t in times],
                        "states": [[_number(v, f"{at}.states") for v in s]
                                   for s in states]})
        else:
            _require(isinstance(entry, list),
                     f"{at} must be a list or a times/states object")
            out.append([_number(v, at) for v in entry])
            _require(len(entry) == 2, f"{at} must have 2 components")
    return out


def _stem(val, name):
    out = str(val)
    _require(out and all(c.isalnum() or c in "-_" for c in out),
             f"{name} must be a plain file name stem")
    return out


def _integer(val, name):
    _require(type(val) is int, f"{name} must be an integer")
    return val


def _sweep(val, name):
    if val is not None:
        _require(isinstance(val, dict), f"{name} must be an object")
        unknown = set(val) - set(_SWEEP_KEYS)
        _require(not unknown, f"unknown sweep keys: {sorted(unknown)}")
        for key, vals in val.items():
            _require(isinstance(vals, list), f"{name}.{key} must be a list")
    return val


# Every field of a run config, in config.json order: its JSON path, the
# RunConfig attribute it sets, its default and its reader, which takes the
# field's value (the default when absent) and path and returns the
# attribute or raises ConfigError.  A field with no reader must be given
# and equal its default.  A default of None is no value: initial_conditions
# must be given, system.tau reads as delta and no sweep is written
_FIELDS = (
    ("schema_version", "schema_version", SCHEMA_VERSION, None),
    ("system.name", "system_name", "example", None),
    ("system.tau", "tau", None,
     lambda v, name: None if v is None else _number(v, name)),
    ("system.delta", "delta", 0.3, _positive),
    ("certificate.kind", "kind", "W", _kind),
    # every kind writes W = V + psi B to its CSVs
    ("certificate.psi", "psi", DEFAULT_PSI, _positive),
    ("gains.gamma", "gamma", 2.5, _number),
    ("gains.eta", "eta", 2.0, _number),
    ("gains.mu", "mu", 0.0, _number),
    ("lambda", "lam", 2.0, _positive),
    ("initial_conditions", "initial_conditions", None, _starts),
    ("integration.h", "h", 1e-3, _number),
    ("integration.T", "T", 20.0, _number),
    ("outputs.prefix", "prefix", "trajectory", _stem),
    ("seed", "seed", 0, _integer),
    ("sweep", "sweep", None, _sweep),
)
_TOP_KEYS = {path.split(".")[0] for path, *_ in _FIELDS}
# the path of each field by its last name, which names its sweep axis
_PATHS = {path.split(".")[-1]: path for path, *_ in _FIELDS}


def _put(data, path, val):
    *outer, key = path.split(".")
    for sec in outer:
        data = data.setdefault(sec, {})
    data[key] = val


def demo_config(psi=DEFAULT_PSI, seed=0):
    """The shipped demo: its starts, psi and seed over the defaults."""
    d = {}
    for path, _, default, _ in _FIELDS:
        _put(d, path, default)
    d["initial_conditions"] = [list(p) for p in DEMO_INITIAL_CONDITIONS]
    d["certificate"]["psi"] = float(psi)
    d["seed"] = int(seed)
    return RunConfig(d).to_dict()


class RunConfig:
    """Validated run description: one attribute per field of _FIELDS, and
    windows, each start's initial window, the one its run starts from."""

    def __init__(self, data):
        _require(isinstance(data, dict), "config must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        for path, attr, default, read in _FIELDS:
            *outer, key = path.split(".")
            sec = data
            for name in outer:
                sec = sec.get(name, {})
                _require(isinstance(sec, dict), f"{name} must be an object")
            val = sec.get(key, default if read else None)
            if read is None:
                _require(type(val) is type(default) and val == default,
                         f"{path} must be {default!r}")
            setattr(self, attr, default if read is None else read(val, path))
        if self.tau is None:
            self.tau = self.delta
        _require(self.gamma > self.eta >= 0.0,
                 "gains must satisfy gamma > eta >= 0")
        _require(self.mu >= 0.0, "gains.mu must be non-negative")
        if "grid" in data.get("integration", {}):
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
        self.windows = [self._window(k, e)
                        for k, e in enumerate(self.initial_conditions)]

    def _window(self, k, entry):
        if isinstance(entry, list):
            return hist.from_constant(entry, self.delta)
        try:
            w = hist.from_samples(entry["times"], entry["states"], self.delta)
        except ValueError as e:
            raise ConfigError(f"initial_conditions[{k}]: {e}") from None
        _require(w.count > 1 and abs(w.ts[0] + self.delta) < 1e-12
                 and abs(w.ts[-1]) < 1e-12,
                 f"initial_conditions[{k}]: times must span [-delta, 0]")
        return w

    @classmethod
    def from_file(cls, path):
        """The config in the JSON file at path.  A delta/h off the integers
        logs a warning, which the configs of a sweep's points do not repeat."""
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: line {e.lineno} column {e.colno}: "
                              f"{e.msg}") from e
        cfg = cls(data)
        if not hist.delay_steps(cfg.delta, cfg.h).is_integer():
            log.warning("delta/h = %.17g is not an integer: rzk verify then "
                        "reads x(t - delta) between CSV rows with central-"
                        "difference slopes, so the history sup it rebuilds "
                        "can differ from the run's", cfg.delta / cfg.h)
        return cfg

    def to_dict(self):
        out = {}
        for path, attr, _, _ in _FIELDS:
            if getattr(self, attr) is not None:
                _put(out, path, getattr(self, attr))
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


def _trajectory_file(prefix, k):
    return f"{prefix}_{k:02d}.csv"


class _Run:
    """One run, fed its rows a block at a time as the lockstep or a CSV
    hands them on: its CSV when it has a path, the reductions of its
    run.json row (first and final state, steps, peak norm and its time,
    peak |u|), and, when checked, its per-trajectory checks; it must also
    reach the configured T."""

    def __init__(self, build, checked=True, file=None, path=None):
        self.build, self.file, self.path = build, file, path
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

    def feed(self, block):
        b = self.build
        n = block.xs.shape[0]
        if n:
            first = self.start is None
            if first:
                self.start = block.xs[0].copy()
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

    def row(self):
        """Its run.json row."""
        final_norm = float(np.linalg.norm(self.final))
        return {
            "file": self.file,
            "initial_state": [float(v) for v in self.start],
            "steps": self.finite.rows - 1,
            "diverged": self.finite.diverged,
            "final_state": [float(v) for v in self.final],
            "final_norm": final_norm,
            "converged": bool(final_norm < CONVERGED_NORM
                              and not self.finite.diverged),
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


# the example's sandwich bounds, box and exterior margin, which the
# construction check reads
_CONSTRUCTION = (example_sandwich(), EXAMPLE_BOX, example_margin)


def _samples(build):
    """The construction check's psi-free samples for build's V, B, unsafe
    set and seed."""
    return verify.construction_samples(build.V, build.B, *_CONSTRUCTION,
                                       unsafe=build.unsafe,
                                       seed=build.cfg.seed)


def _point_checks(build, samples):
    """Certificate-level checks, construction and separation, of a W run:
    they depend on psi, the gains and the seed, not on the starts.  samples
    is the construction check's psi-free half, `_samples`."""
    return {
        "construction": verify.clbrf_construction_check(
            samples, psi=build.cfg.psi, gains=(build.gains, build.gains)),
        "separation": verify.separation_check(build.unsafe, build.W),
    }


def cmd_simulate(args):
    """Simulate, each run's rows streamed into its CSV, its run.json row
    and, checked, its per-trajectory checks, the runs split over the usable
    cores (`_split`); write config + CSVs + run.json.  `rzk demo` runs its
    config checked, then `_verdicts`; `rzk simulate` prints a line per run."""
    checked = args.command == "demo"
    cfg = (RunConfig(demo_config(psi=args.psi, seed=args.seed)) if checked
           else RunConfig.from_file(args.config))
    build = _Build(cfg)
    os.makedirs(args.out, exist_ok=True)
    if build.ctrl is not None and cfg.kind == "W":
        member = build.unsafe.refined_membership(build.W)
        for k, w in enumerate(cfg.windows):
            if member(w.xs[:w.count]).any():
                log.warning("initial condition %d starts inside the "
                            "excluded set", k)
    files = [_trajectory_file(cfg.prefix, k) for k in range(len(cfg.windows))]

    def share(lo, hi):
        runs = [_Run(build, checked, f, os.path.join(args.out, f))
                for f in files[lo:hi]]
        batch_integrate(build.dyn, build.ctrl, cfg.windows[lo:hi],
                        build.settings, lambda k, block: runs[k].feed(block))
        return [(run.row(), run.report()) for run in runs]

    records = _split(build, len(files), share)
    io.write_report_json(os.path.join(args.out, "config.json"), cfg.to_dict())
    io.write_report_json(os.path.join(args.out, "run.json"),
                         {"schema_version": SCHEMA_VERSION,
                          "trajectories": [row for row, _ in records]})
    if checked:
        return _verdicts(build, args.out, "summary.json", "trajectories",
                         records, ("final_norm", "converged"))
    for row, _ in records:
        state = "diverged" if row["diverged"] else "ok"
        print(f"{row['file']}: {state}, {row['steps']} steps")
    return 1 if any(row["diverged"] for row, _ in records) else 0


def _verdicts(build, out_dir, name, key, records, shown=()):
    """Print a line per certificate-level check, then per run, and write
    name: the checks' reports and, under key, each run's file, the fields
    shown of its run.json row and its reports, from the runs' records
    (row, reports).  Exit 1, naming the failing checks on stderr, if any."""
    point = (_point_checks(build, _samples(build)) if build.cfg.kind == "W"
             else {})
    bad = [n for n, rep in point.items() if not rep.passed]
    for n, rep in point.items():
        print(f"{n}: {'pass' if rep.passed else 'FAIL'}")
    rows = []
    for row, checks in records:
        rows.append({"file": row["file"], **{k: row[k] for k in shown},
                     "checks": {n: c.as_dict() for n, c in checks.items()}})
        line = ", ".join(f"{n}: {'pass' if c.passed else 'FAIL'}"
                         for n, c in checks.items())
        if "final_norm" in shown:
            line += f", |x(T)| = {row['final_norm']:.6g}"
        print(f"{row['file']}: {line}")
        bad += [f"{row['file']}:{n}" for n, c in checks.items()
                if not c.passed]
    io.write_report_json(os.path.join(out_dir, name),
                         {"schema_version": SCHEMA_VERSION,
                          "checks": {n: r.as_dict() for n, r in point.items()},
                          key: rows, "all_pass": not bad})
    if bad:
        print("failing checks: " + ", ".join(bad), file=sys.stderr)
    return 1 if bad else 0


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


def _sweep_config(cfg, names, pt):
    """The run config of the sweep point pt: cfg's, less its sweep, with
    each named axis's field set through its path to the point's value, a
    starts axis's as the point's one start."""
    d = cfg.to_dict()
    del d["sweep"]
    for key, val in zip(names, pt):
        _put(d, _PATHS[key], [val] if key == "initial_conditions" else val)
    return RunConfig(d)


def cmd_sweep(args):
    cfg = RunConfig.from_file(args.config)
    _require(cfg.sweep is not None, "config has no sweep section")
    names = [k for k in _SWEEP_KEYS if k in cfg.sweep]
    points = (list(itertools.product(*(cfg.sweep[k] for k in names)))
              if names else [])
    _require(points, "sweep has no points")
    os.makedirs(args.out, exist_ok=True)
    subs = [_sweep_config(cfg, names, pt) for pt in points]
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
    samples = _samples(next(iter(firsts.values()))) if firsts else None

    def locksteps():
        """Each point's runs as (run.json row, reports): a lane equals its
        one-lane run bit for bit."""
        out = []
        for pack in packs:
            runs = [[_Run(builds[k]) for _ in subs[k].initial_conditions]
                    for k in pack]
            flat = [run for point in runs for run in point]
            wins = [w for k in pack for w in subs[k].windows]
            batch_integrate(builds[pack[0]].dyn,
                            [run.build.ctrl for run in flat], wins,
                            builds[pack[0]].settings,
                            lambda k, block: flat[k].feed(block))
            out += [[(run.row(), run.report()) for run in point]
                    for point in runs]
        return out

    def checks():
        return {key: _point_checks(build, samples)
                for key, build in firsts.items()}

    tasks = [locksteps, checks]
    ran, point_checks = (_beside(tasks) if firsts and _cores() > 1
                         else [task() for task in tasks])
    header = ["index", "tau", "psi", "lambda", "gamma", "eta", "trajectories",
              "converged", "checks_pass", "min_safety_margin",
              "max_envelope_ratio", "x0_1", "x0_2", "final_norm"]
    lines = [",".join(header)]
    all_ok = True
    for idx, (sub, runs) in enumerate(zip(subs, ran)):
        rows, per = zip(*runs)
        point = point_checks.get((sub.psi, sub.gamma, sub.eta), {})
        ok = all(r.passed for r in itertools.chain(
            point.values(), *(checks.values() for checks in per)))
        margins = [c["safety"].worst for c in per
                   if c["safety"].worst is not None]
        ratios = [c["envelope"].worst for c in per
                  if "envelope" in c and c["envelope"].details["form"] == "ratio"]
        # x(0) of the point's start; NaN when the point has several
        x0 = (rows[0]["initial_state"] if len(runs) == 1
              else [float("nan")] * 2)
        row = [idx, sub.tau, sub.psi, sub.lam, sub.gamma, sub.eta, len(runs),
               int(all(r["converged"] for r in rows)), int(ok),
               min(margins) if margins else float("inf"),
               max(ratios) if ratios else float("nan")] + x0 + [
                   max(r["final_norm"] for r in rows)]
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row))
        all_ok = all_ok and ok
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    print(f"{len(points)} sweep points -> {path}")
    return 0 if all_ok else 1


def cmd_verify(args):
    cfg = RunConfig.from_file(args.config)
    build = _Build(cfg)

    def blocks(path, w):
        try:
            yield from io.trajectory_blocks(path, build.dyn, w)
        except ValueError as e:
            raise ConfigError(f"{path} is not a trajectory CSV: {e}") from None

    def check(k):
        w, file = cfg.windows[k], _trajectory_file(cfg.prefix, k)
        path = os.path.join(args.out, file)
        run = _Run(build, file=file)
        for block in blocks(path, w):
            if run.start is None and not np.array_equal(block.xs[0],
                                                        w.latest_state):
                raise ConfigError(f"{path} does not start at "
                                  f"initial_conditions[{k}]")
            run.feed(block)
        return run.row(), run.report()

    # same suite the demo runs: per-file checks plus certificate-level ones.
    # Each CSV is checked a block at a time as it is read, the files split
    # over the usable cores (`_split`); the first bad file in run order
    # raises before anything is printed
    records = _split(build, len(cfg.windows),
                     lambda lo, hi: [check(k) for k in range(lo, hi)])
    return _verdicts(build, args.out, "verify_summary.json", "results",
                     records)


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
    d.set_defaults(fn=cmd_simulate)

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
