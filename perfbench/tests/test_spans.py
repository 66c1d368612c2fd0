"""Span bookkeeping and the reference-speed clock.

Run with: python3 -m pytest perfbench/tests
"""

import types

from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, dt):
        self.now += dt


def test_self_time_is_duration_less_children():
    clock = FakeClock()
    tr = Tracer(clock)
    ns = types.SimpleNamespace()
    ns.inner = lambda: clock.work(10.0)
    ns.outer = lambda: (clock.work(1.0), ns.inner(), ns.inner())
    tr.wrap(ns, "inner", "inner", "b")
    tr.wrap(ns, "outer", "outer", "a")
    ns.outer()
    name, t, parent, _ = tr.arrays()
    assert [tr.names[i] for i in name] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    dur = t[:, 2] - t[:, 1]
    cover = t[:, 3] - t[:, 0]
    assert list(dur) == [21.0, 10.0, 10.0]
    assert dur[0] - cover[1:].sum() == 1.0
    tr.uninstall()
    assert not hasattr(ns.outer, "__wrapped__")


def test_flat_layer_counts_outermost_calls_only():
    tr = Tracer()
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: x
    ns.pair = lambda x: ns.leaf(x) + ns.leaf(x)
    tr.wrap(ns, "leaf", "f.leaf", "f", lambda a, r: (a[0],), flat=True)
    tr.wrap(ns, "pair", "f.pair", "f", lambda a, r: (a[0],), flat=True)
    assert ns.pair(3) == 6
    assert ns.leaf(4) == 4
    name, _, _, counts = tr.arrays()
    assert [tr.names[i] for i in name] == ["f.pair", "f.leaf"]
    assert counts == [(3,), (4,)]


def test_reference_seconds_weights_each_stretch_by_its_kernel_time():
    from speed import REF_S, reference_seconds
    ticks = [(0.0, None), (1.0, REF_S), (3.0, 2.0 * REF_S)]
    # 1 s at reference speed, then 2 s at half speed
    assert reference_seconds(ticks) == 2.0
