"""The benchmark's workloads: seeded inputs, the rzk commands that run
them, and the checks of their outputs.

An operation is one trajectory, sweep point or envelope run together with
its verdicts.  Every round of a workload runs the same commands on the
same inputs, so a round always attempts the same operations.
"""

import json
import os

import numpy as np

import oracles as orc

WORKLOADS = ("demo", "sweep", "sampled", "halanay")

DELTA = 0.3
H = 1e-3
# the example's shipped settings, shared by every config written here
BASE = {
    "schema_version": 1,
    "system": {"name": "example", "tau": DELTA, "delta": DELTA},
    "certificate": {"kind": "W", "psi": 82.0},
    "gains": {"gamma": 2.5, "eta": 2.0, "mu": 0.0},
    "lambda": 2.0,
    "integration": {"h": H, "T": 20.0, "grid": 66},
    "outputs": {"prefix": "trajectory"},
}
DEMO_STARTS = ((-4.0, 1.0), (-2.0, -1.0), (1.0, 2.0), (-2.0, 3.0))

SWEEP_T = 0.5
SWEEP_STARTS = 2
SAMPLED_T = 0.5
SAMPLED_SEEDED = 2
HALANAY_T = 1.5
HALANAY_TRIPLES = 3
# history samples every step, so each delayed read of the plant equation
# at a sample time is a given sample
HIST_TIMES = [(k - 300) / 1000.0 for k in range(301)]

# Simpson-rule residual of the plant equation over a step pair, relative
# to the state scale.  RK4 and Simpson are both fourth order, so smooth
# stretches leave about h^5 |f^(4)| / |x|, 1e-16 to 1e-10 here: the median
# over t >= tau, where every delayed read is the integrator's own sample,
# must stay below PLANT_MEDIAN.  Single step pairs leave up to about 1e-4
# where the integrand is only C^1: where the friction's second derivative
# jumps (x2(t - tau) = 0), at t = tau, and where the state crosses the box
# wall.  Before tau the delayed reads between history samples also carry
# the O(h^2) of secant-slope Hermite interpolation.  A wrong u, x or delay
# column gives O(h) = 1e-3 or more on every pair.
PLANT_WORST = 1e-3
PLANT_MEDIAN = 1e-8
# stored V, B, W against their closed forms: 17 significant digits and a
# different summation order
CERT_TOL = 1e-12
# RK4 on the comparison equation with the sup read through cubic Hermite
# interpolation; the zero slope stored at t = 0 against the solution's
# jump there costs about 1e-7 relative
HALANAY_TOL = 1e-6


class Inputs:
    """Generated inputs of one workload run: the rzk argument lists, the
    directory they write, and what the checks need to know."""

    def __init__(self, commands, out, expect):
        self.commands = commands
        self.out = out
        self.expect = expect


def _write_config(path, cfg):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=1)


def _config(T, starts, seed):
    cfg = json.loads(json.dumps(BASE))
    cfg["integration"]["T"] = T
    cfg["initial_conditions"] = starts
    cfg["seed"] = seed
    return cfg


def _free_start(rng):
    """A constant start well clear of the box (-3,-1) x (0,2)."""
    return [float(rng.uniform(0.3, 2.0)), float(rng.uniform(-2.0, 1.0))]


def hazard_history():
    """The fixed sampled start: a straight history through the hazard
    centre (-2, 1) at theta = -0.225 that ends outside the box at
    (-0.5, 2.5)."""
    states = [[-2.5 + 2.0 * s, 0.5 + 2.0 * s]
              for s in ((k / 300.0) for k in range(301))]
    return {"times": list(HIST_TIMES), "states": states}


def radial_history(rng):
    """A seeded sampled start: x(theta) = (1 + beta (-theta/delta)^p) x0.

    The history comes in along the ray through x0, where W = V + 82 B is
    negative definite, so W on the history stays below W(x0) and a re-check
    that replaces the history by the constant x0 reaches the verdicts of
    the true history.
    """
    x0 = np.array(_free_start(rng))
    beta = rng.uniform(0.1, 0.5)
    p = rng.uniform(1.0, 2.0)
    states = [list((1.0 + beta * (-t / DELTA) ** p) * x0) for t in HIST_TIMES]
    states[-1] = list(x0)
    return {"times": list(HIST_TIMES), "states": states}


def make_inputs(name, seed, work):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    out = os.path.join(work, "out")
    if name == "demo":
        cfg_path = os.path.join(out, "config.json")
        commands = [["demo", "--out", out, "--seed", str(seed)],
                    ["verify", "--config", cfg_path, "--out", out]]
        hist = [{"times": [0.0], "states": [list(s)]} for s in DEMO_STARTS]
        return Inputs(commands, out, {"histories": hist})
    if name == "sweep":
        starts = [_free_start(rng) for _ in range(SWEEP_STARTS)]
        psis = [float(rng.uniform(78.0, 81.5)), float(rng.uniform(82.3, 86.0))]
        cfg = _config(SWEEP_T, [starts[0]], seed=seed)
        cfg["sweep"] = {"psi": psis, "initial_conditions": starts}
        cfg_path = os.path.join(work, "sweep.json")
        _write_config(cfg_path, cfg)
        return Inputs([["sweep", "--config", cfg_path, "--out", out]], out,
                      {"config": cfg, "psis": psis, "starts": starts})
    if name == "sampled":
        hist = [hazard_history()] + [radial_history(rng)
                                     for _ in range(SAMPLED_SEEDED)]
        cfg = _config(SAMPLED_T, hist, seed=seed)
        cfg_path = os.path.join(work, "sampled.json")
        _write_config(cfg_path, cfg)
        commands = [["simulate", "--config", cfg_path, "--out", out],
                    ["verify", "--config", cfg_path, "--out", out]]
        return Inputs(commands, out,
                      {"histories": hist, "known_failures": [0]})
    if name == "halanay":
        triples = []
        commands = []
        for _ in range(HALANAY_TRIPLES):
            g = float(rng.uniform(2.0, 4.0))
            e = float(g * rng.uniform(0.3, 0.8))
            d = float(rng.uniform(0.1, 0.5))
            triples.append((g, e, d))
            commands.append(["halanay", "--gamma", repr(g), "--eta", repr(e),
                             "--delta", repr(d), "--envelope",
                             "--T", repr(HALANAY_T)])
        return Inputs(commands, out, {"triples": triples})
    raise ValueError(f"unknown workload {name!r}")


def setup_argv(inputs, out):
    """The workload's first command, writing into out."""
    argv = list(inputs.commands[0])
    if "--out" in argv:
        argv[argv.index("--out") + 1] = out
    return argv


# ---------------------------------------------------------------------------
# checks


class Verdicts:
    """Operations attempted and failed in one round, plus run-level
    problems that make the whole run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.problems = []

    def op(self, label, faults):
        self.attempted += 1
        if faults:
            self.failed.append(f"{label}: " + "; ".join(faults))

    def need(self, cond, msg):
        if not cond:
            self.problems.append(msg)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _read_csv(path):
    with open(path) as f:
        names = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, k] for k, n in enumerate(names)}


def _verdicts(rows):
    """summary.json "trajectories" or verify_summary.json "results" rows
    -> {file: {check: bool}}."""
    return {r["file"]: {n: c["pass"] for n, c in r["checks"].items()}
            for r in rows}


def _trajectory_faults(col, hist, cfg):
    """Oracle checks of one trajectory CSV against its pre-history."""
    faults = []
    psi = cfg["certificate"]["psi"]
    X = np.column_stack([col["x1"], col["x2"]])
    U = col["u1"]
    errs, _ = orc.certificate_errors(X, col["V"], col["B"], col["W"], psi)
    for k, e in errs.items():
        if not e <= CERT_TOL:
            faults.append(f"{k} column off its closed form by {e:.3g}")
    tau = cfg["system"]["tau"]
    res = orc.plant_residuals(col["t"], X, U, tau, hist["times"],
                              hist["states"])
    med = np.median(res[col["t"][:-2] >= tau])
    if not (res.max() <= PLANT_WORST and med <= PLANT_MEDIAN):
        faults.append(f"plant equation residual worst {res.max():.3g}, "
                      f"median after tau {med:.3g}")
    bad, _ = orc.control_sign_violations(X, U, psi)
    if bad:
        faults.append(f"u dW/dx2 >= 0 at {bad} off-box samples")
    return faults, X


def _check_batch(v, inputs, cfg, per_file, recheck, run_rows):
    """Shared checks of demo and sampled batches; per_file holds the
    in-memory verdicts (demo only)."""
    hists = inputs.expect["histories"]
    for k, hist in enumerate(hists):
        fname = f"trajectory_{k:02d}.csv"
        col = _read_csv(os.path.join(inputs.out, fname))
        faults, X = _trajectory_faults(col, hist, cfg)
        row = run_rows[k]
        if row["steps"] != X.shape[0] - 1 or row["final_state"] != list(X[-1]):
            faults.append("run.json disagrees with the CSV")
        safe = orc.safety_passes(np.concatenate([np.asarray(hist["states"]),
                                                 X]))
        recheck_k = recheck.get(fname, {})
        mem = per_file.get(fname, {}) if per_file is not None else None
        for src, checks in (("re-check", recheck_k), ("in-memory", mem)):
            if checks is not None and checks.get("safety") != safe:
                faults.append(f"{src} safety {checks.get('safety')}, "
                              f"membership says {safe}")
        # a constant start is recovered exactly from the CSV, so the
        # re-check must reach the in-memory verdicts; the seeded sampled
        # histories are built so that the re-check's constant pre-history
        # cannot change a verdict, and the feedback enforces the decrease
        for name in ("decrease", "envelope"):
            if mem is not None:
                if recheck_k.get(name) != mem.get(name):
                    faults.append(f"re-check {name} differs from in-memory")
            elif k not in inputs.expect.get("known_failures", ()) \
                    and not recheck_k.get(name):
                faults.append(f"re-check {name} fails")
        v.op(fname, faults)


def check_demo(inputs, outputs):
    v = Verdicts()
    (rc_demo, _), (rc_ver, _) = outputs
    out = inputs.out
    cfg = _read_json(os.path.join(out, "config.json"))
    summary = _read_json(os.path.join(out, "summary.json"))
    vsum = _read_json(os.path.join(out, "verify_summary.json"))
    run = _read_json(os.path.join(out, "run.json"))
    v.need([tuple(s) for s in cfg["initial_conditions"]] == list(DEMO_STARTS),
           "demo starts differ from the shipped ones")
    want = orc.construction_passes(cfg["certificate"]["psi"])
    for src, checks in (("demo", summary["checks"]), ("verify", vsum["checks"])):
        cons = checks["construction"]
        v.need(cons["pass"] == want, f"{src} construction verdict {cons['pass']}")
        v.need(abs(cons["details"]["psi_min"] - orc.PSI_MIN) <= 1e-9 * orc.PSI_MIN,
               f"{src} psi_min {cons['details']['psi_min']}")
    v.need(rc_demo == (0 if summary["all_pass"] else 1), "demo exit code")
    v.need(rc_ver == (0 if vsum["all_pass"] else 1), "verify exit code")
    _check_batch(v, inputs, cfg, _verdicts(summary["trajectories"]),
                 _verdicts(vsum["results"]), run["trajectories"])
    return v


def check_sampled(inputs, outputs):
    v = Verdicts()
    (rc_sim, _), (rc_ver, _) = outputs
    out = inputs.out
    cfg = _read_json(os.path.join(out, "config.json"))
    run = _read_json(os.path.join(out, "run.json"))
    vsum = _read_json(os.path.join(out, "verify_summary.json"))
    v.need(rc_sim == 0 and not any(r["diverged"] for r in run["trajectories"]),
           "simulate diverged or failed")
    v.need(rc_ver == (0 if vsum["all_pass"] else 1), "verify exit code")
    v.need(vsum["checks"]["construction"]["pass"]
           == orc.construction_passes(cfg["certificate"]["psi"]),
           "construction verdict")
    _check_batch(v, inputs, cfg, None, _verdicts(vsum["results"]),
                 run["trajectories"])
    return v


def check_sweep(inputs, outputs):
    v = Verdicts()
    ((rc, so),) = outputs
    psis = inputs.expect["psis"]
    starts = inputs.expect["starts"]
    cfg = inputs.expect["config"]
    with open(os.path.join(inputs.out, "sweep.csv")) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    npts = len(psis) * len(starts)
    v.need(len(rows) == npts, f"{len(rows)} sweep rows, expected {npts}")
    v.need(so.strip().startswith(f"{npts} sweep points -> "), "sweep summary line")
    all_ok = True
    for idx, row in enumerate(rows):
        # cross product in axis order: psi outer, initial_conditions inner
        psi = psis[idx // len(starts)]
        want = orc.construction_passes(psi)
        all_ok = all_ok and want
        faults = []
        params = {"tau": cfg["system"]["tau"], "psi": psi,
                  "lambda": cfg["lambda"], "gamma": cfg["gains"]["gamma"],
                  "eta": cfg["gains"]["eta"]}
        for key, val in params.items():
            if float(row[key]) != val:
                faults.append(f"{key} {row[key]} != {val!r}")
        if int(row["index"]) != idx or row["trajectories"] != "1":
            faults.append("index or trajectory count")
        if row["converged"] not in ("0", "1"):
            faults.append("converged flag")
        if row["checks_pass"] != str(int(want)):
            faults.append(f"checks_pass {row['checks_pass']} at psi {psi:.6g}, "
                          f"psi_min {orc.PSI_MIN:.6g}")
        v.op(f"point {idx}", faults)
    v.need(rc == (0 if all_ok else 1), f"sweep exit code {rc}")
    return v


def _parse_halanay(stdout):
    lines = stdout.strip().splitlines()
    rho_bar = float(lines[0].split("=")[1])
    table = np.array([[float(x) for x in ln.split(",")]
                      for ln in lines[2:-1]])
    last = lines[-1].split()
    return rho_bar, table, float(last[3]), float(last[-1])


def check_halanay(inputs, outputs):
    v = Verdicts()
    for (g, e, d), (rc, so) in zip(inputs.expect["triples"], outputs):
        faults = []
        rho_bar, table, max_ratio, rho = _parse_halanay(so)
        if abs(orc.root_residual(rho_bar, g, e, d)) > 1e-9 * (1.0 + g):
            faults.append(f"root residual {orc.root_residual(rho_bar, g, e, d):.3g}")
        if abs(rho_bar - orc.decay_root(g, e, d)) > 1e-9:
            faults.append("rho_bar off the independent root")
        if abs(rho - 0.9 * rho_bar) > 1e-9:
            faults.append("working rate is not 0.9 rho_bar")
        t, vals, bound = table[:, 0], table[:, 1], table[:, 2]
        ref = orc.comparison_solution(g, e, d, t)
        err = np.max(np.abs(vals - ref) / np.abs(ref))
        if not err <= HALANAY_TOL:
            faults.append(f"v off the comparison solution by {err:.3g}")
        if np.max(np.abs(bound - np.exp(-rho * t)) / np.exp(-rho * t)) > 1e-9:
            faults.append("bound column")
        steps = np.arange(int(round(HALANAY_T / H)) + 1) * H
        ratio = np.max(orc.comparison_solution(g, e, d, steps)
                       * np.exp(rho * steps))
        if abs(max_ratio - ratio) > HALANAY_TOL * ratio:
            faults.append(f"max ratio {max_ratio} against {ratio}")
        if rc != (0 if ratio <= 1.0 + 1e-6 else 1):
            faults.append(f"exit code {rc}")
        v.op(f"gamma={g:.4g} eta={e:.4g} delta={d:.4g}", faults)
    return v


CHECKS = {"demo": check_demo, "sweep": check_sweep,
          "sampled": check_sampled, "halanay": check_halanay}
