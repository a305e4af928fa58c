"""Fields on R^n: grid values on a box plus an explicit exterior rule, and
closed-form analytic fields.

A ``GridField`` evaluates anywhere in R^n.  Inside the box the value is
multilinear interpolation of the lattice values (the sole smoothing
assumption of the toolkit); outside, the exterior rule applies.  Exterior
data is first-class: it may be a constant, an affine function or an
arbitrary bounded callable.  Each rule states its ``sup_bound``, a bound
on |value| (inf for an affine rule), and the ``far`` value to which the
lattice scheme's tail reaction couples each point: its own value for
constant and affine data; 0, the middle of +-sup_bound, for a callable.
A ``ScaledExterior`` scales all three of another rule's.
The shell quadrature takes ``AnalyticField``s only; each brackets its own
far tail by ``tail_delta_range``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstantExterior:
    value: float

    def __call__(self, pts):
        return np.full(pts.shape[0], float(self.value))

    @property
    def sup_bound(self):
        return abs(float(self.value))

    def far(self, pts):
        return self(pts)


@dataclass(frozen=True)
class AffineExterior:
    """u(y) = offset + slope . y outside the box."""
    offset: float
    slope: tuple

    def __call__(self, pts):
        return self.offset + pts @ np.asarray(self.slope, dtype=float)

    sup_bound = math.inf

    def far(self, pts):
        return self(pts)


class CallableExterior:
    def __init__(self, fn, sup_bound):
        self.fn = fn
        self.sup_bound = float(sup_bound)

    def __call__(self, pts):
        return np.asarray(self.fn(pts), dtype=float)

    def far(self, pts):
        return np.zeros(pts.shape[0])


@dataclass(frozen=True)
class ScaledExterior:
    """The exterior rule ``rule`` times ``scale`` > 0, far value included."""
    rule: object
    scale: float

    def __call__(self, pts):
        return self.rule(pts) * self.scale

    @property
    def sup_bound(self):
        return self.rule.sup_bound * self.scale

    def far(self, pts):
        return self.rule.far(pts) * self.scale


def _interp(pts, lo, inv_h, shape, flat_vals):
    """Multilinear interpolation on a regular grid (points inside the box)."""
    npts, n = pts.shape
    t = (pts - lo[None, :]) * inv_h[None, :]
    i0 = np.floor(t).astype(np.int64)
    np.clip(i0, 0, np.asarray(shape)[None, :] - 2, out=i0)
    frac = t - i0
    out = np.zeros(npts)
    strides = np.ones(n, dtype=np.int64)
    for d in range(n - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    for corner in range(1 << n):
        w = np.ones(npts)
        idx = np.zeros(npts, dtype=np.int64)
        for d in range(n):
            bit = (corner >> d) & 1
            w = w * (frac[:, d] if bit else 1.0 - frac[:, d])
            idx += (i0[:, d] + bit) * strides[d]
        out += w * flat_vals[idx]
    return out


class GridField:
    """Lattice values on an axis-aligned box, evaluable on all of R^n."""

    def __init__(self, lo, hi, values, exterior):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        self.values = np.asarray(values, dtype=float)
        self.n = self.lo.size
        if self.values.ndim != self.n:
            raise ValueError("grid values rank must equal the dimension")
        if any(s < 2 for s in self.values.shape):
            raise ValueError("need at least two lattice points per axis")
        self.shape = np.array(self.values.shape, dtype=np.int64)
        self.h = (self.hi - self.lo) / (self.shape - 1)
        self._inv_h = 1.0 / self.h
        self._flat = self.values.ravel()
        if isinstance(exterior, (int, float)):
            exterior = ConstantExterior(float(exterior))
        self.exterior = exterior

    @classmethod
    def from_function(cls, fn, lo, hi, shape, exterior):
        pts = cls(lo, hi, np.zeros(shape), exterior).grid_points()
        vals = np.asarray(fn(pts), dtype=float).reshape(shape)
        return cls(lo, hi, vals, exterior)

    def axes(self):
        return [np.linspace(self.lo[i], self.hi[i], self.values.shape[i])
                for i in range(self.n)]

    def grid_points(self):
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_overlaps(self, lo, hi):
        """Each lattice point's cell, the box of half-width h/2 around it,
        overlapped with the box [lo, hi], on the block of the cells that
        meet it: (overlaps, index), ``index`` the open mesh (``np.ix_``)
        of the block's lattice indices, so ``values[index]`` is the block."""
        out, block = np.ones(()), []
        for ax, r, a, b in zip(self.axes(), 0.5 * self.h, lo, hi):
            side = np.minimum(ax + r, b) - np.maximum(ax - r, a)
            k = np.flatnonzero(side > 0.0)
            out = np.multiply.outer(out, side[k])
            block.append(k)
        return out, np.ix_(*block)

    def eval(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = np.all((pts >= self.lo[None, :]) & (pts <= self.hi[None, :]),
                        axis=1)
        out = np.empty(pts.shape[0])
        if inside.any():
            out[inside] = _interp(pts[inside], self.lo, self._inv_h,
                                  self.shape, self._flat)
        if not inside.all():
            out[~inside] = self.exterior(pts[~inside])
        return out


class AnalyticField:
    """Field given by a closed-form rule; no grid, no interpolation error."""

    def __init__(self, fn, sup_bound, range_outside=None):
        self.fn = fn
        self._sup = float(sup_bound)
        self._range_outside = range_outside

    def eval(self, pts):
        return np.asarray(self.fn(np.atleast_2d(np.asarray(pts, dtype=float))),
                          dtype=float)

    @property
    def sup_bound(self):
        return self._sup

    def tail_delta_range(self, X, ux, far):
        """Arrays (lo, hi) bounding delta(u, x, y) over |y| > ``far`` at
        the rows x of ``X``, ``ux`` = u(X); x +- y lies outside B_r for
        r = far - |x|."""
        lo = np.full(len(X), -self._sup)
        hi = np.full(len(X), self._sup)
        if self._range_outside is not None:
            for i, x in enumerate(X):
                r = far - float(np.linalg.norm(x))
                if r > 0:
                    lo[i], hi[i] = self._range_outside(r)
        return 2.0 * lo - 2.0 * ux, 2.0 * hi - 2.0 * ux


def _pair_points(X, Y, op):
    """``op(x, y)`` for every row x of ``X`` and every row y of ``Y``, as a
    Fortran-ordered (len(X) * len(Y), n) array whose row i * len(Y) + j
    holds x_i, y_j: the rows of ``op(X[:, None, :], Y[None, :, :])``, bit
    for bit.  Each column is written by one (len(X), len(Y)) broadcast, so
    the inner loop runs over the pairs, not over the n coordinates."""
    rows, n = X.shape
    k = Y.shape[0]
    out = np.empty((rows * k, n), order="F")
    for j in range(n):
        op(X[:, j, None], Y[None, :, j], out=out[:, j].reshape(rows, k))
    return out


def pair_deltas(u, X, ux, Y):
    """delta(u, x, y) for every row x of ``X`` and every row y of ``Y``,
    shape (len(X), len(Y)); ``ux`` holds u at the rows of ``X``.  ``u`` is
    evaluated once per sign, on all pairs at once."""
    up = u.eval(_pair_points(X, Y, np.add))
    d = up + u.eval(_pair_points(X, Y, np.subtract))
    d = d.reshape(X.shape[0], Y.shape[0])
    d -= 2.0 * ux[:, None]
    return d


def second_difference(u, x, y):
    """delta(u, x, y) = u(x+y) + u(x-y) - 2 u(x), vectorized over y rows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ux = float(u.eval(x[None, :])[0])
    return u.eval(x[None, :] + y) + u.eval(x[None, :] - y) - 2.0 * ux


# estimate_c11_many's factor for curvature between probes
C11_SAFETY = 2.0


def estimate_c11_many(u, X, scale):
    """Probe-based bounds M with |delta(u,x,y)| <= 2 M |y|^2 near each row
    x of ``X``, one per row.

    Samples second differences along the coordinate axes plus seed-7
    random directions, 16 in all, at a few radii around ``scale``; every
    row is probed with the same directions and radii.  A measurement, not
    a certificate; ``C11_SAFETY`` covers curvature between probes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows, n = X.shape
    rng = np.random.default_rng(7)
    dirs = [np.eye(n)[i] for i in range(n)]
    extra = rng.normal(size=(max(16 - n, 0), n))
    for v in extra:
        nv = np.linalg.norm(v)
        if nv > 0:
            dirs.append(v / nv)
    dirs = np.array(dirs)
    ux = u.eval(X)
    worst = np.zeros(rows)
    for fac in (0.5, 1.0, 2.0):
        y = dirs * (fac * scale)
        d = np.abs(pair_deltas(u, X, ux, y))
        r2 = np.sum(y ** 2, axis=1)
        # fmax, like a running max(), skips a radius whose largest ratio is nan
        worst = np.fmax(worst, np.max(d / (2.0 * r2)[None, :], axis=1))
    return C11_SAFETY * worst
