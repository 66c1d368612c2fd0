"""tools/perfpairs.py's summary of interleaved benchmark pairs."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfpairs", ROOT / "tools" / "perfpairs.py")
perfpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfpairs)


def _pairs(**runs):
    """Ten pairs from each metric's (before, after) run lists."""
    pairs = []
    for k in range(10):
        pair = {"seed": k + 1}
        for side, i in (("before", 0), ("after", 1)):
            pair[side] = {key: vals[i][k] for key, vals in runs.items()}
            pair[side].update(correct=True, failed=0, attempted=4)
        pairs.append(pair)
    return pairs


def test_bounds_are_the_benchmarks_end_to_end_bounds():
    assert perfpairs.bounds() == {"setup_s": 0.25, "run_s": 0.25,
                                  "peak_rss_mb": 0.1}


def test_summary_gives_each_bounded_metric_its_verdict():
    steady = [1.0 + 0.01 * k for k in range(10)]
    wide = [0.5 + 0.1 * k for k in range(10)]     # quartile spread ~0.55
    table = perfpairs.summary(_pairs(
        run_s=(steady, [1.4 + 0.01 * k for k in range(10)]),
        setup_s=(wide, wide[::-1]),
        peak_rss_mb=([40.0] * 10, [40.5] * 10),
        round_s=(steady, steady)), perfpairs.bounds())
    assert table["run_s"]["verdict"] == "worse"
    assert table["setup_s"]["verdict"] == "unresolved"
    assert table["peak_rss_mb"]["verdict"] == "within bound"
    assert "verdict" not in table["round_s"]
    assert table["before"] == {"incorrect": 0, "failed_share": 0.0}


@pytest.mark.parametrize("after, want", [
    ([0.4] * 10, "within bound"),       # every change run beats the parent's
    ([0.6] * 10, "unresolved"),
    ([1.3] * 10, "worse")])
def test_a_wide_spread_is_unresolved_unless_every_run_is_lower(after, want):
    before = [0.5 + 0.1 * k for k in range(10)]
    assert perfpairs.verdict(before, after, 0.25) == want
