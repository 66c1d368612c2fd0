"""Scalar certificate fields: quadratic Lyapunov candidates, the example
hazard/barrier pair, and the psi-weighted Lyapunov-barrier combination.

Every field exposes value(x), grad(x) and vectorized value_many/grad_many,
plus value_grad for both at one point in plain floats; grad must track
value to finite-difference accuracy (see finite_diff_check).  A row's value
does not depend on its position in a batch.  Piecewise definitions cover
all of R^n.
"""

import numpy as np

# hazard ceiling and the C^1 blend region feeding it; e^{-50} ~ 2e-22 so the
# barrier's exp term is numerically dead well before the box boundary
H_MAX = 50.0
H_BLEND_LO = 45.0


class ScalarField:
    """C^1 scalar function of the state with an analytic gradient.

    value_grad(x), for a point x given as a sequence of floats, returns the
    value as a float and the gradient as a tuple of floats, bit for bit the
    value_many/grad_many row of x.  Fields built without a per-point form
    take it from one-row batch calls.
    """

    def __init__(self, n, value_many, grad_many, name="", value_grad=None):
        self.n = int(n)
        self._value_many = value_many
        self._grad_many = grad_many
        self.value_grad = value_grad or self._value_grad_row
        self.name = name

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(self._value_many(x[None, :])[0])

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self._grad_many(x[None, :])[0]

    def value_many(self, X):
        X = np.asarray(X, dtype=float)
        return self._value_many(X)

    def grad_many(self, X):
        X = np.asarray(X, dtype=float)
        return self._grad_many(X)

    def _value_grad_row(self, x):
        X = np.asarray(x, dtype=float)[None, :]
        return (float(self._value_many(X)[0]),
                tuple(self._grad_many(X)[0].tolist()))


class SandwichBounds:
    """Class-Kinf envelopes alpha1(v) = c1*v^p1 <= field <= alpha2(v) = c2*v^p2."""

    def __init__(self, c1, p1, c2, p2):
        if c1 <= 0 or c2 <= 0 or p1 <= 0 or p2 <= 0:
            raise ValueError("bounds must be strictly increasing from 0")
        self.c1, self.p1, self.c2, self.p2 = float(c1), float(p1), float(c2), float(p2)

    def alpha1(self, v):
        return self.c1 * np.asarray(v, dtype=float) ** self.p1

    def alpha2(self, v):
        return self.c2 * np.asarray(v, dtype=float) ** self.p2


class RegionBox:
    """Open axis-aligned box; per-axis (lower, upper) with lower < upper."""

    def __init__(self, bounds):
        b = np.asarray(bounds, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] >= b[:, 1]):
            raise ValueError("bounds must be per-axis (lower, upper), lower < upper")
        self.lo = b[:, 0].copy()
        self.hi = b[:, 1].copy()

    @property
    def n(self):
        return self.lo.shape[0]

    def contains_many(self, X):
        X = np.asarray(X, dtype=float)
        return ((X > self.lo) & (X < self.hi)).all(axis=-1)

    def contains(self, x):
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :])[0])


# the example's obstacle region X = (-3,-1) x (0,2)
EXAMPLE_BOX = RegionBox([(-3.0, -1.0), (0.0, 2.0)])


def quadratic_field(Q, name="quadratic"):
    """x^T Q x with gradient 2 Q x; Q must be symmetric.

    Both are built coordinate by coordinate in one fixed order, (Q x)_i =
    sum_j Q_ij x_j and x^T Q x = sum_i x_i (Q x)_i, by the same arithmetic
    on a batch's columns as on one point's floats, so a row's value does
    not depend on its place in the batch.  For n = 2 the per-point form is
    unrolled, in the same operation order.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    n = Q.shape[0]
    rows = Q.tolist()

    def qx(xs):
        # xs: the n coordinates, as batch columns or as floats
        out = []
        for qi in rows:
            acc = qi[0] * xs[0]
            for j in range(1, n):
                acc = acc + qi[j] * xs[j]
            out.append(acc)
        return out

    def form(xs, y):
        acc = xs[0] * y[0]
        for i in range(1, n):
            acc = acc + xs[i] * y[i]
        return acc

    def value_many(X):
        return form(X.T, qx(X.T))

    def grad_many(X):
        return np.stack([2.0 * c for c in qx(X.T)], axis=-1)

    if n == 2:
        (q00, q01), (q10, q11) = rows

        def value_grad(x):
            x0, x1 = x
            y0 = q00 * x0 + q01 * x1
            y1 = q10 * x0 + q11 * x1
            return x0 * y0 + x1 * y1, (2.0 * y0, 2.0 * y1)
    else:
        def value_grad(x):
            y = qx(x)
            return form(x, y), tuple([2.0 * c for c in y])

    return ScalarField(n, value_many, grad_many, name=name,
                       value_grad=value_grad)


def example_lyapunov():
    """V(x) = x1^2 + x1 x2 + x2^2 (eigenvalues 0.5 and 1.5)."""
    return quadratic_field(np.array([[1.0, 0.5], [0.5, 1.0]]), name="V")


def example_sandwich():
    return SandwichBounds(0.5, 2, 1.5, 2)


def _quintic_blend(s):
    # P(0)=0, P(1)=1, P'(0)=1, P'(1)=0: C^1 ramp onto the plateau
    return ((3.0 * s - 7.0) * s + 4.0) * s * s * s + s


def _quintic_blend_d(s):
    return ((15.0 * s - 28.0) * s + 12.0) * s * s + 1.0


def _hazard_inbox(X, grad=True):
    """Value of the clamped hazard on rows that all lie inside EXAMPLE_BOX,
    where both reciprocal arguments are positive; with grad, the tuple
    (value, d/draw wrt raw, raw gradient)."""
    x1 = X[:, 0]
    x2 = X[:, 1]
    # floored so that d * d in the gradient stays a normal number at a wall
    d1 = np.maximum(1.0 - (x1 + 2.0) ** 2, 1e-150)
    d2 = np.maximum(1.0 - (x2 - 1.0) ** 2, 1e-150)
    raw = 1.0 / d1 + 1.0 / d2
    if raw.max() < H_BLEND_LO:
        # below the blend band the clamp is the identity
        val, dval = raw, 1.0
    else:
        s = np.clip((raw - H_BLEND_LO) / (H_MAX - H_BLEND_LO), 0.0, 1.0)
        val = np.where(raw < H_BLEND_LO, raw,
                       H_BLEND_LO + (H_MAX - H_BLEND_LO) * _quintic_blend(s))
        dval = np.where(raw < H_BLEND_LO, 1.0, _quintic_blend_d(s))
        dval = np.where(raw < H_MAX, dval, 0.0)
    if not grad:
        return val
    g1 = 2.0 * (x1 + 2.0) / (d1 * d1)
    g2 = 2.0 * (x2 - 1.0) / (d2 * d2)
    return val, dval, g1, g2


def _in_box(X):
    """Index of the rows of X inside EXAMPLE_BOX (a plain slice when every
    row is, so no copy is made) and those rows."""
    inside = EXAMPLE_BOX.contains_many(X)
    idx = slice(None) if inside.all() else np.flatnonzero(inside)
    return idx, X[idx]


def example_hazard():
    """H(x) = 1/(1-(x1+2)^2) + 1/(1-(x2-1)^2) inside the box, clamped at
    H_MAX with a C^1 quintic blend over [45, 50]; H == H_MAX outside."""

    def value_many(X):
        out = np.full(X.shape[0], H_MAX)
        idx, Xin = _in_box(X)
        if Xin.shape[0]:
            out[idx] = _hazard_inbox(Xin, grad=False)
        return out

    def grad_many(X):
        out = np.zeros(X.shape)
        idx, Xin = _in_box(X)
        if Xin.shape[0]:
            _, dval, g1, g2 = _hazard_inbox(Xin)
            out[idx] = np.stack([dval * g1, dval * g2], axis=-1)
        return out

    return ScalarField(2, value_many, grad_many, name="H")


_E4 = float(np.exp(-4.0))
_BOX_LO = tuple(EXAMPLE_BOX.lo.tolist())
_BOX_HI = tuple(EXAMPLE_BOX.hi.tolist())


def example_margin(r):
    """Exterior envelope phi_m(r) = e^{-4} r^2; the barrier satisfies
    B(x) <= -phi_m(|x|) outside the box."""
    return _E4 * np.asarray(r, dtype=float) ** 2


def _barrier(X, value=True, grad=True):
    """The example barrier's (value, gradient) on the rows of X, None for
    the one not asked for; one box test and one hazard pass serve both."""
    val = out = None
    if value:
        r2 = np.sum(X * X, axis=-1)
        val = -_E4 * r2
    if grad:
        out = (-2.0 * _E4) * X
    idx, Xin = _in_box(X)
    if Xin.shape[0]:
        hz = _hazard_inbox(Xin, grad)
        eH = np.exp(-hz[0] if grad else -hz)
        r2in = r2[idx] if value else np.sum(Xin * Xin, axis=-1)
        if value:
            val[idx] = (eH - _E4) * r2in
        if grad:
            _, dval, g1, g2 = hz
            gin = 2.0 * (eH - _E4)[:, None] * Xin
            gin[:, 0] -= eH * dval * g1 * r2in
            gin[:, 1] -= eH * dval * g2 * r2in
            out[idx] = gin
    return val, out


def _hazard_point(x1, x2):
    """_hazard_inbox with gradient at one in-box point, in floats: the same
    arithmetic in the same order."""
    t1 = x1 + 2.0
    t2 = x2 - 1.0
    d1 = max(1.0 - t1 * t1, 1e-150)
    d2 = max(1.0 - t2 * t2, 1e-150)
    raw = 1.0 / d1 + 1.0 / d2
    if raw < H_BLEND_LO:
        val, dval = raw, 1.0
    else:
        s = min((raw - H_BLEND_LO) / (H_MAX - H_BLEND_LO), 1.0)
        val = H_BLEND_LO + (H_MAX - H_BLEND_LO) * _quintic_blend(s)
        dval = _quintic_blend_d(s) if raw < H_MAX else 0.0
    return val, dval, 2.0 * t1 / (d1 * d1), 2.0 * t2 / (d2 * d2)


def _barrier_point(x):
    """_barrier's value and gradient row at the point x, in floats; e^{-H}
    goes through np.exp, which math.exp does not match in the last bit."""
    x1, x2 = x
    r2 = x1 * x1 + x2 * x2
    if _BOX_LO[0] < x1 < _BOX_HI[0] and _BOX_LO[1] < x2 < _BOX_HI[1]:
        hv, dval, g1, g2 = _hazard_point(x1, x2)
        eH = float(np.exp(-hv))
        c = 2.0 * (eH - _E4)
        return ((eH - _E4) * r2, (c * x1 - eH * dval * g1 * r2,
                                  c * x2 - eH * dval * g2 * r2))
    c = -2.0 * _E4
    return -_E4 * r2, (c * x1, c * x2)


def example_barrier():
    """B = (e^{-H} - e^{-4})||x||^2 inside the box, -e^{-4}||x||^2 outside.

    Positive exactly on the unsafe set D = {H < 4}, <= -e^{-4}||x||^2 off
    the box.  C^1 via the hazard clamp (the e^{-H} term dies with zero
    gradient before the box boundary).
    """
    return ScalarField(2, lambda X: _barrier(X, grad=False)[0],
                       lambda X: _barrier(X, value=False)[1], name="B",
                       value_grad=_barrier_point)


def combine_clbrf(V, B, psi):
    """W = V + psi*B, combined value and gradient (exactly affine)."""
    if V.n != B.n:
        raise ValueError("field dimensions differ")
    if psi <= 0:
        raise ValueError("psi must be positive")
    psi = float(psi)
    v_point = V.value_grad
    b_point = B.value_grad

    def value_many(X):
        return V.value_many(X) + psi * B.value_many(X)

    def grad_many(X):
        return V.grad_many(X) + psi * B.grad_many(X)

    def value_grad(x):
        v, gv = v_point(x)
        b, gb = b_point(x)
        return v + psi * b, tuple([g + psi * c for g, c in zip(gv, gb)])

    return ScalarField(V.n, value_many, grad_many, name="W",
                       value_grad=value_grad)


def finite_diff_check(field, x, h=1e-5):
    """Max componentwise |analytic grad - central difference| at x."""
    x = np.asarray(x, dtype=float)
    g = field.grad(x)
    worst = 0.0
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd = (field.value(x + e) - field.value(x - e)) / (2.0 * h)
        worst = max(worst, abs(g[i] - fd))
    return worst


def check_sandwich(field, bounds, states):
    """Verify alpha1(||x||) <= field(x) <= alpha2(||x||) on the samples.

    Returns a dict with pass flag, worst slack (most negative means worst
    violation) and a witness state if any sample violates.
    """
    X = np.asarray(states, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty 2-d sample array")
    v = np.sqrt(np.sum(X * X, axis=1))
    f = field.value_many(X)
    lo_slack = f - bounds.alpha1(v)
    hi_slack = bounds.alpha2(v) - f
    slack = np.minimum(lo_slack, hi_slack)
    i = int(np.argmin(slack))
    ok = bool(slack[i] >= -1e-12)
    return {
        "pass": ok,
        "worst_slack": float(slack[i]),
        "witness": None if ok else X[i].copy(),
    }
