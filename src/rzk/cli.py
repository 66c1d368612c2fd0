"""Config-driven command line.

Subcommands: demo (build the worked example, simulate, verify, emit
artifacts), simulate (one batch from a config), halanay (decay-rate
roots), sweep (parameter grid), verify (re-check existing CSVs).

Exit codes: 0 all checks pass, 1 check failure or divergence, 2 usage or
config error.  Set RZK_LOG to a logging level name for diagnostics.
"""

import argparse
import itertools
import json
import logging
import os
import sys

import numpy as np

from . import halanay, io, verify
from . import history as hist
from .controller import ControllerSpec, RazumikhinGains
from .fields import (EXAMPLE_BOX, combine_clbrf, example_barrier,
                     example_lyapunov, example_margin, example_sandwich)
from .simulate import IntegrationSettings, batch_integrate
from .system import ExampleConfig, example_system

log = logging.getLogger("rzk.cli")

SCHEMA_VERSION = 1
DEFAULT_PSI = 82.0
CONVERGED_NORM = 5e-2

# documented demo starts: outside the refined excluded set, spread around
# the obstacle box so approach paths differ
DEMO_INITIAL_CONDITIONS = ((-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0))

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
    _require(np.isfinite(out), f"{name} must be finite")
    return out


class RunConfig:
    """Validated run description; see demo_config() for the full shape."""

    def __init__(self, data):
        _require(isinstance(data, dict), "config must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        _require(data.get("schema_version") == SCHEMA_VERSION,
                 f"schema_version must be {SCHEMA_VERSION}")

        system = data.get("system", {})
        _require(system.get("name") == "example",
                 "system.name must be 'example'")
        self.delta = _number(system.get("delta", 0.3), "system.delta")
        _require(self.delta > 0, "system.delta must be positive")
        self.tau = _number(system.get("tau", self.delta), "system.tau")
        _require(0.0 <= self.tau <= self.delta,
                 "system.tau must lie in [0, system.delta]")

        cert = data.get("certificate", {})
        self.kind = cert.get("kind", "W")
        _require(self.kind in ("V", "B", "W", "none"),
                 "certificate.kind must be one of V, B, W, none")
        self.psi = _number(cert.get("psi", DEFAULT_PSI), "certificate.psi")
        if self.kind == "W":
            _require(self.psi > 0, "certificate.psi must be positive")

        gains = data.get("gains", {})
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

        integ = data.get("integration", {})
        self.h = _number(integ.get("h", 1e-3), "integration.h")
        self.T = _number(integ.get("T", 20.0), "integration.T")
        if "grid" in integ:
            # written by configs from before the sup was taken on the rows
            log.warning("integration.grid is ignored: the history sup is "
                        "taken on the run's own sample rows")
        _require(self.h > 0 and self.T > 0, "integration.h and .T must be "
                 "positive")
        _require(self.T >= self.h,
                 "integration.T must be at least one step, integration.h")
        _require(self.h <= self.delta / 4.0 + 1e-15,
                 "integration.h must satisfy h <= delta/4")

        self.prefix = str(data.get("outputs", {}).get("prefix", "trajectory"))
        _require(self.prefix and all(c.isalnum() or c in "-_"
                                     for c in self.prefix),
                 "outputs.prefix must be a plain file name stem")
        self.seed = int(data.get("seed", 0))

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
                                                 cfg.delta, mu=cfg.mu)
        else:
            self.cert = None

    def windows(self):
        out = []
        for entry in self.cfg.initial_conditions:
            if isinstance(entry, dict):
                out.append(hist.from_samples(entry["times"], entry["states"],
                                             self.cfg.delta))
            else:
                out.append(hist.from_constant(np.asarray(entry, dtype=float),
                                              self.cfg.delta))
        return out

    def bound_column(self, traj):
        """Envelope-bound column: v0 e^{-rho t} when the active certificate
        starts positive, otherwise 0 (the signed form's bound)."""
        if self.active is None or self.cert is None:
            return np.zeros(traj.ts.shape[0])
        v0 = float(self.active.value(traj.xs[0]))
        if v0 > 0:
            return self.cert.envelope(v0, traj.ts)
        return np.zeros(traj.ts.shape[0])


def _trajectory_file(prefix, k):
    return f"{prefix}_{k:02d}.csv"


def _run_batch(build, out_dir):
    """Simulate, write config + CSVs + run.json; returns (trajs, diverged)."""
    cfg = build.cfg
    wins = build.windows()
    if build.ctrl is not None and cfg.kind == "W":
        member = build.unsafe.refined_membership(build.W)
        for k, w in enumerate(wins):
            if member(w.xs[:w.count]).any():
                log.warning("initial condition %d starts inside the "
                            "excluded set", k)
    trajs = batch_integrate(build.dyn, build.ctrl, wins, build.settings)
    io.write_report_json(os.path.join(out_dir, "config.json"), cfg.to_dict())
    rows = []
    for k, tr in enumerate(trajs):
        fname = _trajectory_file(cfg.prefix, k)
        names, data = io.trajectory_columns(tr, build.V, build.B, build.W,
                                            build.bound_column(tr))
        io.write_trajectory_csv(os.path.join(out_dir, fname), names, data)
        final = tr.xs[-1]
        norms = np.linalg.norm(tr.xs, axis=1)
        peak = int(np.argmax(norms))
        rows.append({
            "file": fname,
            "initial_state": [float(v) for v in tr.xs[0]],
            "steps": int(tr.ts.shape[0] - 1),
            "diverged": bool(tr.diverged),
            "final_state": [float(v) for v in final],
            "final_norm": float(np.linalg.norm(final)),
            "converged": bool(np.linalg.norm(final) < CONVERGED_NORM
                              and not tr.diverged),
            "peak_norm": float(norms[peak]),
            "peak_norm_time": float(tr.ts[peak]),
            "peak_abs_u": float(np.max(np.abs(tr.us), initial=0.0)),
        })
    io.write_report_json(os.path.join(out_dir, "run.json"),
                         {"schema_version": SCHEMA_VERSION,
                          "trajectories": rows})
    return trajs, any(tr.diverged for tr in trajs)


def _point_checks(build):
    """Certificate-level checks, construction and separation, of a W run:
    they depend on psi, the gains and the seed, not on the starts."""
    if build.cfg.kind != "W":
        return {}
    return {
        "construction": verify.clbrf_construction_check(
            build.V, build.B, example_sandwich(), EXAMPLE_BOX, example_margin,
            psi=build.cfg.psi, gains=(build.gains, build.gains),
            unsafe=build.unsafe, seed=build.cfg.seed),
        "separation": verify.separation_check(build.unsafe, build.W),
    }


def _verify_batch(build, trajs, point=None):
    """Certificate-level checks (computed here unless point gives them)
    plus per-trajectory checks; returns (point, per-trajectory list,
    all_pass)."""
    if point is None:
        point = _point_checks(build)
    ok = all(r.passed for r in point.values())
    per = []
    for tr in trajs:
        checks = {"safety": verify.safety_check(tr, build.unsafe)}
        if build.active is not None:
            checks["decrease"] = verify.decrease_check(tr, build.active,
                                                       build.gains)
            if build.cert is not None:
                checks["envelope"] = verify.envelope_check(tr, build.active,
                                                           build.cert)
        per.append(checks)
        ok = ok and all(c.passed for c in checks.values())
    return point, per, ok


def cmd_demo(args):
    cfg = RunConfig(demo_config(psi=args.psi, seed=args.seed))
    build = _Build(cfg)
    os.makedirs(args.out, exist_ok=True)
    trajs, _ = _run_batch(build, args.out)
    point, per, ok = _verify_batch(build, trajs)

    summary = {"schema_version": SCHEMA_VERSION,
               "checks": {k: r.as_dict() for k, r in point.items()},
               "trajectories": [], "all_pass": bool(ok)}
    for k, (tr, checks) in enumerate(zip(trajs, per)):
        final_norm = float(np.linalg.norm(tr.xs[-1]))
        summary["trajectories"].append({
            "file": _trajectory_file(cfg.prefix, k),
            "final_norm": final_norm,
            "converged": bool(final_norm < CONVERGED_NORM and not tr.diverged),
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
    trajs, diverged = _run_batch(build, args.out)
    for k, tr in enumerate(trajs):
        state = "diverged" if tr.diverged else "ok"
        print(f"{_trajectory_file(cfg.prefix, k)}: {state}, "
              f"{tr.ts.shape[0] - 1} steps")
    return 1 if diverged else 0


def cmd_halanay(args):
    if not (args.gamma > args.eta > 0):
        raise ConfigError("need gamma > eta > 0")
    if args.delta <= 0:
        raise ConfigError("need delta > 0")
    rho_bar = halanay.decay_rate(args.gamma, args.eta, args.delta,
                                 args.variant)
    print(f"rho_bar({args.variant}) = {rho_bar:.10f}")
    if not args.envelope:
        return 0
    rho = 0.9 * rho_bar
    ts, vs = halanay.scalar_comparison_sim(args.gamma, args.eta, 0.0,
                                           args.delta, 1.0, args.T, 1e-3)
    rep = halanay.check_envelope(ts, vs, 1.0, rho)
    stride = max(1, ts.shape[0] // 10)
    print("t,v,bound")
    for k in range(0, ts.shape[0], stride):
        print(f"{ts[k]:.3f},{vs[k]:.10e},{np.exp(-rho * ts[k]):.10e}")
    print(f"max ratio = {rep['max_ratio']:.12f} at rho = {rho:.10f}")
    return 0 if rep["pass"] else 1


def _sweep_points(cfg):
    axes = [(k, cfg.sweep[k]) for k in _SWEEP_KEYS if k in cfg.sweep]
    if not axes or any(not v for _, v in axes):
        return [], []
    names = [k for k, _ in axes]
    points = list(itertools.product(*(v for _, v in axes)))
    return names, points


def cmd_sweep(args):
    cfg = RunConfig.from_file(args.config)
    if cfg.sweep is None:
        raise ConfigError("config has no sweep section")
    os.makedirs(args.out, exist_ok=True)
    names, points = _sweep_points(cfg)
    header = ["index", "tau", "psi", "lambda", "gamma", "eta", "trajectories",
              "converged", "checks_pass", "min_safety_margin",
              "max_envelope_ratio", "x0_1", "x0_2"]
    lines = [",".join(header)]
    all_ok = True
    point_checks = {}
    base = cfg.to_dict()
    base.pop("sweep")
    for idx, pt in enumerate(points):
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
        sub = RunConfig(d)
        build = _Build(sub)
        trajs = batch_integrate(build.dyn, build.ctrl, build.windows(),
                                build.settings)
        # kind and seed are fixed across the sweep
        key = (sub.psi, sub.gamma, sub.eta)
        if key not in point_checks:
            point_checks[key] = _point_checks(build)
        point, per, ok = _verify_batch(build, trajs, point_checks[key])
        conv = all(not tr.diverged
                   and np.linalg.norm(tr.xs[-1]) < CONVERGED_NORM
                   for tr in trajs)
        margins = [c["safety"].worst for c in per
                   if c["safety"].worst is not None]
        ratios = [c["envelope"].worst for c in per
                  if "envelope" in c and c["envelope"].details["form"] == "ratio"]
        # x(0) of the point's start; NaN when the point has several
        x0 = trajs[0].xs[0].tolist() if len(trajs) == 1 else [float("nan")] * 2
        row = [idx, sub.tau, sub.psi, sub.lam, sub.gamma, sub.eta, len(trajs),
               int(conv), int(ok),
               min(margins) if margins else float("inf"),
               max(ratios) if ratios else float("nan")] + x0
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
    trajs = []
    files = []
    for k, w in enumerate(build.windows()):
        path = os.path.join(args.out, _trajectory_file(cfg.prefix, k))
        try:
            tr = io.trajectory_from_csv(*io.read_trajectory_csv(path),
                                        cfg.delta, w)
        except ValueError as e:
            raise ConfigError(f"{path} is not a trajectory CSV: {e}") from None
        if not np.array_equal(tr.xs[0], w.latest_state):
            raise ConfigError(f"{path} does not start at "
                              f"initial_conditions[{k}]")
        trajs.append(tr)
        files.append(os.path.basename(path))
    # same suite the demo runs: certificate-level checks plus per-file ones
    point, per, ok = _verify_batch(build, trajs)
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


def _parser():
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
