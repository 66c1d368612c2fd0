"""Reach profile: the functions of the rzk package that no command calls.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/reach.py [--demos DIR]

Imports rzk.cli and runs fourteen command-line runs in this process:
`rzk demo`; `rzk simulate` plus `rzk verify` at mu = 0.5, at tau = 0,
under V, under B and from a sampled start; `rzk sweep` on
demos/threshold_study.json; and `rzk halanay` in both variants, the proof
one with --envelope.  The import and every run stay under
`sys.setprofile`, which records each Python function that is entered, so
that what the package calls at import counts as reached.  Every run stays
in this process: `cli._cores` is patched to 1, so that no forked child
hides a call.  Then prints each function of the rzk package that was
never entered, with its line count (decorators and body, a nested
function only where the function around it was entered), and the total;
the functions this script patches are listed apart and not counted.  The
runs' outputs go to a temporary directory.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# (file, function) of what entered() replaces before the runs
PATCHED = {("cli.py", "_cores")}


def _configs(cli):
    """name -> config of the simulate plus verify runs."""
    def config(**change):
        cfg = cli.demo_config()
        cfg["integration"]["T"] = 2.0
        for section, (key, value) in change.items():
            cfg[section][key] = value
        return cfg
    sampled = config()
    times = [-0.3 + 0.01 * k for k in range(31)]
    times[-1] = 0.0
    sampled["initial_conditions"] = [{
        "times": times,
        "states": [[-2.5 + 2.0 * k / 30.0, 0.5 + 2.0 * k / 30.0]
                   for k in range(31)]}]
    return {"mu": config(gains=("mu", 0.5)),
            "tau0": config(system=("tau", 0.0)),
            "V": config(certificate=("kind", "V")),
            "B": config(certificate=("kind", "B")), "sampled": sampled}


def _commands(cli, work, demos):
    yield ["demo", "--out", os.path.join(work, "demo")]
    for name, cfg in _configs(cli).items():
        path = os.path.join(work, name + ".json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        out = os.path.join(work, name)
        yield ["simulate", "--config", path, "--out", out]
        yield ["verify", "--config", path, "--out", out]
    yield ["sweep", "--config", os.path.join(demos, "threshold_study.json"),
           "--out", os.path.join(work, "sweep")]
    for extra in (["--variant", "proof", "--envelope"],
                  ["--variant", "statement"]):
        yield ["halanay", "--gamma", "2.5", "--eta", "2", "--delta", "0.3",
               "--T", "3"] + extra


def entered(work, demos):
    """rzk.cli's directory and the (file, first line) of each code object
    entered while rzk.cli was imported and the commands ran."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        cli = importlib.import_module("rzk.cli")
    finally:
        sys.setprofile(None)
    cli._cores = lambda: 1
    for argv in list(_commands(cli, work, demos)):
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    return (os.path.dirname(os.path.abspath(cli.__file__)),
            {(os.path.abspath(c.co_filename), c.co_firstlineno)
             for c in seen})


def unreached(path, reached):
    """(first line, qualified name, lines) of each function in the file at
    path that was not entered, nested ones only inside entered ones."""
    with open(path) as f:
        tree = ast.parse(f.read())
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                name = prefix + child.name
                if (path, first) in reached:
                    walk(child, name + ".")
                else:
                    out.append((first, name, child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
    walk(tree, "")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--demos", default=os.path.join(HERE, "..", "demos"),
                   help="directory holding threshold_study.json")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        pkg, reached = entered(work, args.demos)
    total = count = 0
    patched = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        for first, func, lines in unreached(os.path.join(pkg, name), reached):
            line = f"{name}:{first} {func} {lines}"
            if (name, func) in PATCHED:
                patched.append(line)
                continue
            print(line)
            total += lines
            count += 1
    print(f"total: {total} lines in {count} functions never called")
    for line in patched:
        print(f"patched by this script, not counted: {line}")


if __name__ == "__main__":
    main()
