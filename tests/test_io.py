import numpy as np
import pytest

import rzk
from rzk import history as hist, io
from rzk.simulate import IntegrationSettings


@pytest.fixture(scope="module")
def short_run(example_setup):
    return rzk.integrate(example_setup["dyn"], example_setup["ctrl"],
                         hist.from_constant(np.array([-2.0, -1.0]), 0.3),
                         IntegrationSettings(h=1e-3, T=0.5))


def test_column_layout(short_run, example_setup):
    names, data = io.trajectory_columns(
        short_run, example_setup["V"], example_setup["B"], example_setup["W"],
        bound=None)
    assert names == ["t", "x1", "x2", "u1", "V", "B", "W", "margin",
                     "envelope-bound"]
    assert data.shape == (short_run.xs.shape[0], len(names))
    assert np.array_equal(data[:, 0], short_run.ts)
    # no active certificate: bound column all zero
    assert np.all(data[:, -1] == 0.0)


def test_csv_round_trip_preserves_floats(tmp_path, short_run, example_setup):
    p = tmp_path / "tr.csv"
    names, data = io.trajectory_columns(
        short_run, example_setup["V"], example_setup["B"], example_setup["W"],
        bound=None)
    io.write_trajectory_csv(p, names, data)
    names2, data2 = io.read_trajectory_csv(p)
    assert names2 == names
    assert np.array_equal(data, data2)    # 17 significant digits round-trip


def test_csv_never_prints_negative_zero(tmp_path):
    p = tmp_path / "z.csv"
    io.write_trajectory_csv(p, ["a", "b"], np.array([[-0.0, 1.5]]))
    text = p.read_text()
    assert "-0," not in text and "-0\n" not in text
    assert text.splitlines()[0] == "a,b"
    assert text.endswith("\n")


def test_csv_column_count_validated(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        io.read_trajectory_csv(p)


def test_trajectory_from_csv_reconstruction(tmp_path, short_run, example_setup):
    p = tmp_path / "tr.csv"
    names, data = io.trajectory_columns(
        short_run, example_setup["V"], example_setup["B"], example_setup["W"],
        bound=None)
    io.write_trajectory_csv(p, names, data)
    names2, data2 = io.read_trajectory_csv(p)
    tr = io.trajectory_from_csv(names2, data2, example_setup["dyn"],
                                short_run.ic_window)
    assert np.array_equal(tr.xs, short_run.xs)
    assert np.array_equal(tr.ts, short_run.ts)
    assert tr.meta["delta"] == 0.3
    # slopes are finite-difference estimates: tight except at isolated
    # friction-kink samples, so compare in quantiles rather than the max
    d = np.abs(tr.slopes[1:-1] - short_run.slopes[1:-1])
    assert np.quantile(d, 0.99) < 5e-3
    assert np.median(d) < 1e-4


def test_report_json_sanitizes_non_finite(tmp_path):
    p = tmp_path / "r.json"
    io.write_report_json(p, {"a": float("nan"), "b": [1.0, float("inf")],
                             "c": {"d": 2.0}})
    back = io.read_json(p)
    assert back == {"a": None, "b": [1.0, None], "c": {"d": 2.0}}
