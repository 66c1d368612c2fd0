import time

import numpy as np
import pytest

import rzk
from rzk import cli


class DemoRun:
    """One shared `rzk demo` execution: artifacts, exit code, wall time."""

    def __init__(self, path, exit_code, wall_time):
        self.path = path
        self.exit_code = exit_code
        self.wall_time = wall_time


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    t0 = time.perf_counter()
    code = cli.main(["demo", "--out", str(out)])
    wall = time.perf_counter() - t0
    return DemoRun(out, code, wall)


@pytest.fixture()
def one_worker(monkeypatch):
    """Keep every rzk command's runs in this process, so that what a test
    observes in the process (tracemalloc, a tracer, weak references,
    counted calls) sees all of their work."""
    monkeypatch.setattr(cli, "_cores", lambda: 1)


@pytest.fixture(scope="session")
def example_setup():
    """Shared example objects: system, fields, gains, controller."""
    dyn = rzk.example_system(rzk.ExampleConfig(0.3))
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    gains = rzk.RazumikhinGains(2.5, 2.0, 0.0)
    ctrl = rzk.ControllerSpec(W, gains, 2.0)
    return {"dyn": dyn, "V": V, "B": B, "W": W, "gains": gains, "ctrl": ctrl,
            "unsafe": rzk.example_unsafe_set(),
            "cert": rzk.DecayCertificate(2.5, 2.0, 0.3)}


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
