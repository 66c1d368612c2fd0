import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzk
from rzk import fields


def test_lyapunov_value_and_gradient():
    V = rzk.example_lyapunov()
    x = np.array([1.0, 1.0])
    assert V.value(x) == pytest.approx(3.0)
    assert np.allclose(V.grad(x), [3.0, 3.0])
    # quadratic-form eigenvalues pin the sandwich constants
    Q = np.array([[1.0, 0.5], [0.5, 1.0]])
    eigs = np.linalg.eigvalsh(Q)
    assert eigs == pytest.approx([0.5, 1.5])


def test_quadratic_field_requires_symmetric_matrix():
    with pytest.raises(ValueError):
        rzk.quadratic_field(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sandwich_bounds_hold_on_circle(rng):
    V = rzk.example_lyapunov()
    bounds = rzk.example_sandwich()
    theta = rng.uniform(0, 2 * np.pi, size=200)
    r = rng.uniform(0.1, 5.0, size=200)
    X = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    res = rzk.check_sandwich(V, bounds, X)
    assert res["pass"]
    bad = rzk.SandwichBounds(0.9, 2, 1.5, 2)   # lower bound too optimistic
    res = rzk.check_sandwich(V, bad, X)
    assert not res["pass"]
    assert res["witness"] is not None


def test_hazard_center_and_interior_values():
    H = rzk.example_hazard()
    assert H.value(np.array([-2.0, 1.0])) == pytest.approx(2.0)
    assert H.value(np.array([-2.0, 1.9])) == pytest.approx(
        6.263157894736842, rel=1e-12)


def test_hazard_clamps_to_plateau_and_exterior():
    H = rzk.example_hazard()
    # just inside a wall the raw value explodes; the clamp caps it at 50
    assert H.value(np.array([-1.0 - 1e-9, 1.0])) == pytest.approx(50.0)
    assert H.value(np.array([0.0, 0.0])) == pytest.approx(50.0)
    assert H.value(np.array([5.0, -3.0])) == pytest.approx(50.0)
    # the blend keeps H continuous and C1; check small finite differences
    # across the blend window [45, 50]
    x = np.array([-2.0, 1.989])   # raw value sits inside the blend window
    assert 45.0 < H.value(x) < 50.0
    g = H.grad(x)
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (H.value(x + e) - H.value(x - e)) / (2 * eps)
        assert fd == pytest.approx(g[i], rel=1e-3, abs=1e-4)


def test_hazard_gradient_vanishes_outside_box():
    H = rzk.example_hazard()
    assert np.allclose(H.grad(np.array([4.0, 4.0])), 0.0)


def test_barrier_oracles():
    B = rzk.example_barrier()
    assert B.value(np.array([-2.0, 1.0])) == pytest.approx(
        0.5850982217393926, rel=1e-12)
    assert B.value(np.array([5.0, 5.0])) == pytest.approx(
        -0.9157819444367089, rel=1e-12)
    # exterior closed form
    x = np.array([2.0, -1.5])
    assert B.value(x) == pytest.approx(-np.exp(-4.0) * float(x @ x), rel=1e-12)


def test_barrier_sign_tracks_hazard_threshold():
    B = rzk.example_barrier()
    H = rzk.example_hazard()
    # inside the box, B > 0 exactly where H < 4
    pts = np.array([[-2.0, 1.0], [-2.5, 0.9], [-1.2, 1.0], [-2.0, 1.9]])
    hv = H.value_many(pts)
    bv = B.value_many(pts)
    assert np.all((bv > 0) == (hv < 4.0))


def test_barrier_nearly_continuous_across_box_wall():
    B = rzk.example_barrier()
    eps = 1e-9
    inside = np.array([-1.0 - eps, 1.0])
    outside = np.array([-1.0 + eps, 1.0])
    # the clamp makes the interior value e^{-50}-close to the exterior form
    assert abs(B.value(inside) - B.value(outside)) < 1e-8


def test_example_margin_matches_exterior_barrier():
    B = rzk.example_barrier()
    x = np.array([3.0, 2.0])
    r = np.linalg.norm(x)
    assert B.value(x) + rzk.example_margin(r) == pytest.approx(0.0, abs=1e-15)


def test_combine_clbrf_oracle_and_affinity():
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    x = np.array([-2.0, 1.0])
    assert W.value(x) == pytest.approx(50.978054182630196, rel=1e-12)
    assert W.value(x) == pytest.approx(V.value(x) + 82.0 * B.value(x))
    assert np.allclose(W.grad(x), V.grad(x) + 82.0 * B.grad(x))
    with pytest.raises(ValueError):
        rzk.combine_clbrf(V, B, 0.0)


def test_clbrf_sign_structure_at_psi_82():
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    # positive on the hazard core, negative outside the box
    assert W.value(np.array([-2.0, 1.0])) > 0
    assert W.value(np.array([1.0, 1.0])) < 0     # top eigenvector direction
    assert W.value(np.array([10.0, 10.0])) < 0


def test_gradient_finite_difference_agreement(rng):
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    box = rzk.EXAMPLE_BOX
    worst = 0.0
    n = 0
    while n < 200:
        x = rng.uniform(-6.0, 6.0, size=2)
        # skip the box wall itself where B is only piecewise smooth
        if np.min(np.abs(np.concatenate([x - box.lo, x - box.hi]))) < 1e-3:
            continue
        n += 1
        for f in (V, B, W):
            worst = max(worst, rzk.finite_diff_check(f, x, 1e-5))
    assert worst < 1e-4


def test_region_box_membership_is_strict():
    box = rzk.EXAMPLE_BOX
    assert box.contains(np.array([-2.0, 1.0]))
    assert not box.contains(np.array([-3.0, 1.0]))
    assert not box.contains(np.array([-2.0, 0.0]))
    out = box.contains_many(np.array([[-2.0, 1.0], [0.0, 0.0]]))
    assert out.tolist() == [True, False]


def test_scalar_field_shapes():
    V = rzk.example_lyapunov()
    X = np.zeros((5, 2))
    assert V.value_many(X).shape == (5,)
    assert V.grad_many(X).shape == (5, 2)


# -- in-box hazard against the whole-batch masked formula ------------------


def _masked_reference(X):
    """B, grad B, H, grad H by the masked whole-batch formula: the hazard
    pipeline runs on every row and np.where picks the in-box results."""
    x1, x2 = X[:, 0], X[:, 1]
    inside = rzk.EXAMPLE_BOX.contains_many(X)
    d1 = np.maximum(np.where(inside, 1.0 - (x1 + 2.0) ** 2, 1.0), 1e-150)
    d2 = np.maximum(np.where(inside, 1.0 - (x2 - 1.0) ** 2, 1.0), 1e-150)
    raw = 1.0 / d1 + 1.0 / d2
    s = np.clip((raw - 45.0) / 5.0, 0.0, 1.0)
    H = np.where(raw < 45.0, raw, 45.0 + 5.0 * fields._quintic_blend(s))
    H = np.where(inside, H, 50.0)
    dval = np.where(raw < 45.0, 1.0, fields._quintic_blend_d(s))
    dval = np.where(inside & (raw < 50.0), dval, 0.0)
    g1 = np.where(inside, 2.0 * (x1 + 2.0) / (d1 * d1), 0.0)
    g2 = np.where(inside, 2.0 * (x2 - 1.0) / (d2 * d2), 0.0)
    r2 = np.sum(X * X, axis=-1)
    eH = np.exp(-H)
    coef = np.where(inside, eH - np.exp(-4.0), -np.exp(-4.0))
    gB = 2.0 * coef[:, None] * X
    gB[:, 0] -= eH * dval * g1 * r2
    gB[:, 1] -= eH * dval * g2 * r2
    return coef * r2, gB, H, np.stack([dval * g1, dval * g2], axis=-1)


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


_IN = st.tuples(_open(-3.0, -1.0), _open(0.0, 2.0))
_OUT = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(
    lambda p: not (-3.0 < p[0] < -1.0 and 0.0 < p[1] < 2.0))
_WALL = st.one_of(
    st.tuples(st.sampled_from([-3.0, -1.0]), st.floats(-1.0, 3.0)),
    st.tuples(st.floats(-4.0, 0.0), st.sampled_from([0.0, 2.0])))


@st.composite
def _blend_band(draw):
    """An in-box point whose raw hazard lies in the blend band [45, 50]."""
    raw = draw(st.floats(45.0, 50.0))
    a = draw(st.floats(1.0, raw - 1.0))           # 1/d2, so 1/d1 = raw - a
    s1, s2 = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    return (-2.0 + s1 * np.sqrt(1.0 - 1.0 / (raw - a)),
            1.0 + s2 * np.sqrt(1.0 - 1.0 / a))


_BATCHES = st.one_of(
    st.lists(_IN, min_size=1, max_size=40),
    st.lists(_OUT, min_size=1, max_size=40),
    st.lists(_WALL, min_size=1, max_size=40),
    st.lists(_blend_band(), min_size=1, max_size=40),
    st.lists(st.one_of(_IN, _OUT, _WALL, _blend_band()), min_size=1,
             max_size=60))


@settings(max_examples=300, deadline=None)
@given(_BATCHES)
def test_in_box_hazard_equals_masked_formula(points):
    # the hazard runs on the same per-row arithmetic either way, so the
    # values agree bit for bit
    X = np.array(points, dtype=float)
    B_ref, gB_ref, H_ref, gH_ref = _masked_reference(X)
    B = rzk.example_barrier()
    H = rzk.example_hazard()
    np.testing.assert_array_equal(B.value_many(X), B_ref)
    np.testing.assert_array_equal(B.grad_many(X), gB_ref)
    np.testing.assert_array_equal(H.value_many(X), H_ref)
    np.testing.assert_array_equal(H.grad_many(X), gH_ref)
    V = rzk.example_lyapunov()
    W = rzk.combine_clbrf(V, B, 82.0)
    np.testing.assert_array_equal(W.value_many(X),
                                  V.value_many(X) + 82.0 * B_ref)
    np.testing.assert_array_equal(W.grad_many(X),
                                  V.grad_many(X) + 82.0 * gB_ref)


def test_gradient_is_finite_next_to_a_wall():
    # next to the wall x2 = 0, at x2 = 1e-17, x2 - 1 rounds to -1, so the
    # distance 1 - (x2 - 1)^2 rounds to 0 and is floored; the floor keeps
    # d * d a normal number, so the gradient stays finite (the hazard's
    # weight there is 0, which picks the exterior gradient).  The other
    # walls leave a distance of at least 4e-16 at the nearest float inside.
    x = np.array([-2.0, 1e-17])
    assert rzk.EXAMPLE_BOX.contains(x)
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(rzk.example_lyapunov(), B, 82.0)
    assert np.all(np.isfinite(B.grad(x)))
    assert np.all(np.isfinite(W.grad(x)))
    np.testing.assert_array_equal(B.grad(x), -2.0 * np.exp(-4.0) * x)
    np.testing.assert_array_equal(rzk.example_hazard().grad(x), [0.0, 0.0])


def _bits(*vals):
    # bit patterns, so 0.0 and -0.0 differ
    return np.array(vals, dtype=float).tobytes()


# next to the wall x2 = 0, where the floored distance keeps the gradient
# finite
_NEAR_WALL = st.tuples(_open(-3.0, -1.0),
                       st.floats(0.0, 1e-12, exclude_min=True))


# exactly on each box wall, signed zeros, subnormals, and magnitudes whose
# squares overflow (so that inf - inf may give NaN)
_EDGE_COORD = st.sampled_from([-3.0, -1.0, 0.0, -0.0, 2.0, 5e-324, -5e-324,
                               1e-310, -1e-310, 1e154, -1e154, 1e200, -3e300])
_EDGE = st.tuples(st.one_of(_EDGE_COORD, st.floats(-4.0, 0.0)),
                  st.one_of(_EDGE_COORD, st.floats(-1.0, 3.0)))


# each wall of the box: the axis, the wall and the direction into the box
_WALL_SIDES = [(0, -3.0, 1.0), (0, -1.0, -1.0), (1, 0.0, 1.0), (1, 2.0, -1.0)]


@st.composite
def _by_a_wall(draw):
    """An in-box point a small gap inside one wall, or two at a corner: one
    ulp (where the distance to the wall x2 = 0 floors at 1e-150), or a gap
    on a log scale through the plateau and the blend band (the raw hazard
    passes 45 within about 0.011 of a wall)."""
    pt = [draw(_open(-3.0, -1.0)), draw(_open(0.0, 2.0))]
    for axis, wall, inward in draw(st.lists(st.sampled_from(_WALL_SIDES),
                                            min_size=1, max_size=2,
                                            unique_by=lambda w: w[0])):
        gap = draw(st.one_of(st.just(0.0), st.floats(-17.0, -1.5).map(
            lambda e: 10.0 ** e)))
        x = wall + inward * gap
        pt[axis] = x if x != wall else float(np.nextafter(wall, wall + inward))
    assert -3.0 < pt[0] < -1.0 and 0.0 < pt[1] < 2.0
    return tuple(pt)


_NAN = st.sampled_from([(np.nan, 1.0), (-2.0, np.nan), (np.nan, np.nan)])


_Q3 = [[2.0, -0.3, 0.7], [-0.3, 1.5, 0.1], [0.7, 0.1, 0.9]]
_Q3_NEG = [[-0.4, 0.2, 0.0], [0.2, -1.1, 0.3], [0.0, 0.3, -0.6]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_IN, _OUT, _WALL, _blend_band(), _NEAR_WALL, _EDGE,
                          _by_a_wall(), _NAN), min_size=1, max_size=40))
def test_per_point_form_equals_batch_rows(points):
    # V and W (unrolled for n = 2) and B have a native per-point form, a
    # 3x3 quadratic and a W built from two of them the generic loops, the
    # hazard the one-row fallback; each must give its batch row bit for
    # bit, B's and W's in the box through B's flat in-box form
    X = np.array(points, dtype=float)
    X3 = np.column_stack([X, X[:, 0] - 2.0 * X[:, 1]])
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    Q3 = rzk.quadratic_field(np.array(_Q3), name="Q3")
    W3 = rzk.combine_clbrf(Q3, rzk.quadratic_field(np.array(_Q3_NEG)), 82.0)
    for fld, pts in ((V, X), (B, X), (W, X), (rzk.example_hazard(), X),
                     (Q3, X3), (W3, X3)):
        # huge coordinates overflow, on both forms alike
        with np.errstate(over="ignore", invalid="ignore"):
            val = fld.value_many(pts)
            grad = fld.grad_many(pts)
            rows = [fld.value_grad(*p) for p in pts.tolist()]
        for row, (p, out) in enumerate(zip(pts.tolist(), rows)):
            v, g = out[0], out[1:]
            assert type(v) is float and type(g) is tuple
            assert all(type(c) is float for c in g)
            assert _bits(v, *g) == _bits(val[row], *grad[row]), (fld.name, p)


@settings(max_examples=200, deadline=None)
@given(st.lists(_IN, min_size=1, max_size=5),
       st.lists(st.one_of(_WALL, _blend_band(), _NEAR_WALL, _EDGE),
                max_size=40))
def test_in_box_form_equals_batch_rows(inside, points):
    # the in-box forms skip the box test on rows known to lie in the box:
    # each must give value_many's rows bit for bit, and a field without a
    # box has value_many itself as its in-box form
    X = np.array(inside + points, dtype=float)
    X = X[rzk.EXAMPLE_BOX.contains_many(X)]
    V = rzk.example_lyapunov()
    B = rzk.example_barrier()
    W = rzk.combine_clbrf(V, B, 82.0)
    assert V.box is None
    for fld in (rzk.example_hazard(), B, W, V):
        assert fld.box in (None, rzk.EXAMPLE_BOX)
        assert _bits(*fld.value_in_box(X)) == _bits(*fld.value_many(X)), \
            fld.name
        assert fld.value_in_box(np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("Q", [
    [[1.0, 0.5], [0.5, 1.0]],
    _Q3], ids=["V", "3x3"])
def test_quadratic_rows_do_not_depend_on_batch_position(rng, Q):
    F = rzk.quadratic_field(np.array(Q))
    X = rng.normal(scale=3.0, size=(1003, len(Q)))
    val = F.value_many(X)
    grad = F.grad_many(X)
    one_val = np.array([F.value_many(X[k:k + 1])[0] for k in range(len(X))])
    one_grad = np.array([F.grad_many(X[k:k + 1])[0] for k in range(len(X))])
    assert val.tobytes() == one_val.tobytes()
    assert grad.tobytes() == one_grad.tobytes()


def test_value_many_in_blocks_equals_the_whole_batch(rng):
    # a batch longer than FIELD_BLOCK is evaluated a block at a time; half
    # the rows inside the box, so the barrier's in-box path runs per block
    n = 2 * fields.FIELD_BLOCK + 3
    X = np.concatenate([rng.normal(scale=3.0, size=(n // 2, 2)),
                        rng.uniform((-3.0, 0.0), (-1.0, 2.0),
                                    size=(n - n // 2, 2))])[rng.permutation(n)]
    V, B = rzk.example_lyapunov(), rzk.example_barrier()
    for fld in (V, B, rzk.combine_clbrf(V, B, 82.0), rzk.example_hazard()):
        assert fld.value_many(X).tobytes() == fld._value_many(X).tobytes()


# -- column forms against the row reductions they replace -----------------

_EDGE = st.sampled_from([
    -3.0, -1.0, 0.0, -0.0, 2.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf,
    np.nan, 1e154, -1e154, 1e200, -1.7976931348623157e308,
    np.nextafter(-3.0, 0.0), np.nextafter(-1.0, -2.0),
    np.nextafter(2.0, 0.0)])
_COORD = st.one_of(_EDGE, st.floats(-4.0, 3.0), st.floats(allow_nan=True,
                                                          allow_infinity=True))


def _old_contains(box, X):
    X = np.asarray(X, dtype=float)
    return ((X > box.lo) & (X < box.hi)).all(axis=-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40),
       st.integers(1, 4), st.data())
def test_column_forms_equal_row_reductions(points, lanes, data):
    # the box test compares each axis's column with its bounds and the
    # barrier's squared norm adds the squared columns; both must give the
    # reductions over the state axis bit for bit, on contiguous rows and on
    # a strided lane of a lockstep-shaped (rows, lanes, 6) table
    P = np.array(points, dtype=float)
    tab = np.full((P.shape[0], lanes, 6), np.nan)
    k = data.draw(st.integers(0, lanes - 1))
    tab[:, k, :2] = P
    box = rzk.EXAMPLE_BOX
    B = rzk.example_barrier()
    for X in (P, tab[..., :2][:, k]):
        np.testing.assert_array_equal(box.contains_many(X),
                                      _old_contains(box, X))
        with np.errstate(all="ignore"):
            val, grad = B.value_many(X), B.grad_many(X)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(fields.RegionBox, "contains_many", _old_contains)
                m.setattr(fields, "_sq_norm",
                          lambda Y: np.sum(Y * Y, axis=-1))
                ref_val, ref_grad = B.value_many(X), B.grad_many(X)
        assert val.tobytes() == ref_val.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
