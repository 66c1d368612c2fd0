"""The certificate-level checks against their whole-pool references, and
the construction check's shared psi-free samples against fresh draws.

`verify._unsafe_sample` draws the construction check's unsafe-set
candidates a chunk at a time and stops once it has enough members;
`verify._outermost_member` scans the separation rays from the wall inward
and drops a ray at its first hit.  The references below draw the whole
8 * UNSAFE_SAMPLES pool and scan every column of every ray, as the checks
once did.  Swapping them in must leave every report unchanged, bit for
bit, including on the paths the example never reaches.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import cli, verify
from rzk.fields import EXAMPLE_BOX, ScalarField, example_hazard

CENTRE = np.array([-2.0, 1.0])


def whole_pool_sample(rng, region, unsafe):
    cand = rng.uniform(region.lo, region.hi,
                       size=(8 * verify.UNSAFE_SAMPLES, region.n))
    return cand[unsafe.membership_many(cand)][:verify.UNSAFE_SAMPLES]


def full_scan(member, anchor, d, t_wall, frac):
    tgrid = t_wall[:, None] * frac[None, :]
    nrays, nscan = tgrid.shape
    inside = np.empty((nrays, nscan), dtype=bool)
    for r0 in range(0, nrays, 256):
        r1 = min(r0 + 256, nrays)
        pts = anchor[None, None, :] + tgrid[r0:r1, :, None] * d[r0:r1, None, :]
        inside[r0:r1] = member(pts.reshape(-1, 2)).reshape(r1 - r0, nscan)
    return np.where(inside.any(axis=1),
                    nscan - 1 - np.argmax(inside[:, ::-1], axis=1), -1)


def _both(check, *args, **kw):
    """check's report as JSON text, as shipped and on the references."""
    new = json.dumps(check(*args, **kw).as_dict(), sort_keys=True)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_unsafe_sample", whole_pool_sample)
        m.setattr(verify, "_outermost_member", full_scan)
        ref = json.dumps(check(*args, **kw).as_dict(), sort_keys=True)
    return new, ref


def _construction(setup, psi, seed, unsafe=None):
    return _both(verify.clbrf_construction_check, setup["V"], setup["B"],
                 rzk.example_sandwich(), EXAMPLE_BOX, rzk.example_margin,
                 psi=psi, gains=(setup["gains"], setup["gains"]),
                 unsafe=unsafe or setup["unsafe"], seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_shared_samples_equal_fresh_checks(example_setup, seed):
    # one dict of psi-free samples from construction_samples serves every
    # psi, unchanged; the reports are those of fresh calls
    setup = example_setup
    args = (setup["V"], setup["B"], rzk.example_sandwich(), EXAMPLE_BOX,
            rzk.example_margin)
    kw = dict(gains=(setup["gains"], setup["gains"]), unsafe=setup["unsafe"],
              seed=seed)
    samples = verify.construction_samples(*args, unsafe=setup["unsafe"],
                                          seed=seed)
    filled = dict(samples)
    for psi in (10.0, 27.0, 28.0, 79.3, 82.0, 85.1):
        shared = verify.clbrf_construction_check(*args, psi=psi,
                                                 samples=samples, **kw)
        fresh = verify.clbrf_construction_check(*args, psi=psi, **kw)
        assert (json.dumps(shared.as_dict(), sort_keys=True)
                == json.dumps(fresh.as_dict(), sort_keys=True)), psi
    assert all(samples[k] is v for k, v in filled.items())
    with pytest.raises(ValueError):
        verify.clbrf_construction_check(*args, psi=82.0, samples=samples,
                                        **dict(kw, seed=seed + 1))


def test_sweep_draws_the_construction_samples_once(tmp_path, monkeypatch):
    # three psi values, two starts each: one generator for the whole sweep
    cfg = cli.demo_config()
    cfg["integration"]["T"] = 0.02
    cfg["sweep"] = {"psi": [10.0, 82.0, 85.1],
                    "initial_conditions": [[1.0, 2.0], [-4.0, 1.0]]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    calls = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        calls.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    assert cli.main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 1    # psi = 10 fails
    assert calls == [0]


def _radial(fn, name):
    """A field of the distance to the box centre; no gradient is needed."""
    def value_many(X):
        return fn(np.linalg.norm(X - CENTRE, axis=1))
    return ScalarField(2, value_many, None, name=name)


class CountingUnsafe(verify.UnsafeSet):
    """The example's unsafe set, counting the points its predicates test."""

    def __init__(self, threshold=verify.HAZARD_THRESHOLD):
        super().__init__(EXAMPLE_BOX, example_hazard(), threshold)
        self.points = 0

    def membership_many(self, X):
        self.points += len(X)
        return super().membership_many(X)

    def refined_membership(self, field):
        inner = super().refined_membership(field)

        def member(X):
            self.points += len(np.atleast_2d(X))
            return inner(X)
        return member


@pytest.mark.parametrize("psi", [10.0, 27.0, 28.0, 79.3, 82.0, 85.1])
def test_point_checks_equal_whole_pool_references(example_setup, psi):
    for seed in (0, 1, 7):
        new, ref = _construction(example_setup, psi, seed)
        assert new == ref
    W = rzk.combine_clbrf(example_setup["V"], example_setup["B"], psi)
    new, ref = _both(verify.separation_check, example_setup["unsafe"], W)
    assert new == ref


def test_point_checks_test_half_the_points(example_setup):
    # the construction stops after two chunks of candidates, and the scan
    # of the shipped W stops well inside the wall
    unsafe = CountingUnsafe()
    verify.clbrf_construction_check(
        example_setup["V"], example_setup["B"], rzk.example_sandwich(),
        EXAMPLE_BOX, rzk.example_margin, psi=82.0, unsafe=unsafe)
    assert unsafe.points == 2 * verify.UNSAFE_SAMPLES
    counts = {}
    for name, scan in (("lazy", verify._outermost_member), ("full", full_scan)):
        unsafe.points = 0
        with pytest.MonkeyPatch.context() as m:
            m.setattr(verify, "_outermost_member", scan)
            verify.separation_check(unsafe, example_setup["W"])
        counts[name] = unsafe.points
    full_grid = 1365 * 64
    assert counts["lazy"] <= counts["full"] - full_grid // 2


def test_construction_draws_every_chunk_for_a_small_unsafe_set(example_setup):
    # hazard < 2.05 is a disc of radius about 0.22 around the centre: about
    # 4 % of the box, so the 80k pool has fewer than UNSAFE_SAMPLES members
    unsafe = CountingUnsafe(2.05)
    new, ref = _construction(example_setup, 82.0, 0, unsafe=unsafe)
    assert new == ref
    assert unsafe.points == 2 * 8 * verify.UNSAFE_SAMPLES
    samples = json.loads(new)["details"]["unsafe_positivity"]["samples"]
    assert 0 < samples < verify.UNSAFE_SAMPLES


@pytest.mark.parametrize("field", [
    # the centre is not a member but a ring around it is: fallback anchor
    _radial(lambda r: r * r - 0.25, "ring"),
    # members only within 0.01 of the anchor, inside the first column:
    # every ray's scan runs through every block down to the anchor
    _radial(lambda r: 1e-4 - r * r, "dot"),
    # members alternate along each ray: the first hit from the anchor is
    # not the outermost one
    _radial(lambda r: np.cos(12.0 * r), "rings"),
    # V alone: every ray's outermost member is at the wall
    rzk.example_lyapunov(),
], ids=["fallback-anchor", "anchor-only", "rings", "V"])
def test_separation_edge_paths_equal_full_scan(example_setup, field):
    new, ref = _both(verify.separation_check, example_setup["unsafe"], field)
    assert new == ref
    rep = json.loads(new)
    assert rep["details"]["vacuous"] is False
    if field.name == "ring":
        assert rep["details"]["anchor"] != CENTRE.tolist()


@settings(max_examples=15, deadline=None)
@given(k=st.floats(0.5, 40.0), phase=st.floats(0.0, 6.3),
       ax=st.floats(-2.9, -1.1), ay=st.floats(0.1, 1.9),
       nrays=st.integers(1, 40), nscan=st.integers(1, 70),
       cap=st.integers(1, 300))
def test_inward_scan_equals_full_scan(k, phase, ax, ay, nrays, nscan, cap):
    # rings about a point in the box, seen from another point of the box;
    # some rays may have no member at all.  A small SCAN_POINTS splits the
    # rays of a block over several calls, none of them larger than it.
    c = np.array([-2.3, 0.8])

    def member(X):
        sizes.append(len(X))
        return np.cos(k * np.linalg.norm(X - c, axis=1) + phase) > 0.5

    anchor = np.array([ax, ay])
    ang = 2.0 * np.pi * np.arange(nrays) / nrays
    d = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    t_wall = np.full(nrays, 1.5)
    frac = np.linspace(0.0, 1.0, nscan)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "SCAN_POINTS", cap)
        sizes = []
        last = verify._outermost_member(member, anchor, d, t_wall, frac)
        assert max(sizes) <= max(cap, 8)
    assert np.array_equal(last, full_scan(member, anchor, d, t_wall, frac))


def test_inward_scan_reports_rays_without_members():
    t_wall = np.ones(5)
    frac = np.linspace(0.0, 1.0, 64)
    d = np.tile([1.0, 0.0], (5, 1))
    calls = []

    def member(X):
        calls.append(len(X))
        return np.zeros(len(X), dtype=bool)

    last = verify._outermost_member(member, CENTRE, d, t_wall, frac)
    assert last.tolist() == [-1] * 5
    # every column of every ray was tested, a block at a time
    assert sum(calls) == 5 * 64 and len(calls) == 8


def test_construction_fails_on_an_empty_unsafe_sample(example_setup):
    # the hazard is at least 2 in the box, so no candidate is below 1.5
    unsafe = CountingUnsafe(1.5)
    new, ref = _construction(example_setup, 82.0, 0, unsafe=unsafe)
    assert new == ref
    assert unsafe.points == 2 * 8 * verify.UNSAFE_SAMPLES
    rep = json.loads(new)
    assert rep["pass"] is False
    assert rep["details"]["unsafe_positivity"] == {"samples": 0,
                                                   "min_W": None}
    assert rep["details"]["unsafe_sample"].startswith("empty")
