"""Concave envelopes over B_3, contact sets and gradient-image measures.

The envelope of a field u (nonpositive outside B_1) is the least concave
majorant of u^+ sampled over B_3, held at zero outside.  Dimensions 1 and
2 only: there the hull, the supporting planes and the superdifferential
cells (the normal fan) are all exact.

Gradient-image measure of a region: the union of superdifferentials over
the region is, for a piecewise-linear concave hull, the union of the
gradient cells of the hull vertices lying in the region (facets and edges
contribute measure zero); the cells have pairwise disjoint interiors, so
the measure is the sum of their areas (interval lengths in 1-D).
"""

from __future__ import annotations

import math

import numpy as np

from . import PreconditionError


# u <= POSITIVE_TOL outside B_1 counts as nonpositive: the slack absorbs
# interpolation round-off
POSITIVE_TOL = 1e-9


class PositiveExteriorError(PreconditionError):
    """The field is positive outside B_1, where the envelope needs it
    nonpositive."""


class ConcaveEnvelope1D:
    dimension = 1

    def __init__(self, vx, vy):
        # hull vertices, x strictly increasing, slopes strictly decreasing
        self.vx = np.asarray(vx, dtype=float)
        self.vy = np.asarray(vy, dtype=float)
        if self.vx.size >= 2:
            self.slopes = np.diff(self.vy) / np.diff(self.vx)
        else:
            self.slopes = np.zeros(0)

    @staticmethod
    def from_samples(pts, vals):
        x = np.asarray(pts, dtype=float).reshape(-1)
        order = np.argsort(x)
        x, v = x[order], np.asarray(vals, dtype=float)[order]
        # collapse duplicate abscissae to their max value
        keep_x, keep_v = [], []
        for xi, vi in zip(x, v):
            if keep_x and xi - keep_x[-1] < 1e-14:
                keep_v[-1] = max(keep_v[-1], vi)
            else:
                keep_x.append(xi)
                keep_v.append(vi)
        hull = []
        for p in zip(keep_x, keep_v):
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # pop the middle point when it lies below chord(prev, new)
                if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(p)
        vx = np.array([h[0] for h in hull])
        vy = np.array([h[1] for h in hull])
        return ConcaveEnvelope1D(vx, vy)

    def eval(self, pts):
        x = np.atleast_2d(np.asarray(pts, dtype=float))[:, 0]
        out = np.interp(x, self.vx, self.vy)
        out[(x < self.vx[0]) | (x > self.vx[-1])] = 0.0
        return out

    def _slope_left(self, x):
        if x <= self.vx[0]:
            return self.slopes[0] if self.slopes.size else 0.0
        k = int(np.searchsorted(self.vx, x, side="left"))
        return self.slopes[min(k, self.slopes.size) - 1]

    def _slope_right(self, x):
        if x >= self.vx[-1]:
            return self.slopes[-1] if self.slopes.size else 0.0
        k = int(np.searchsorted(self.vx, x, side="right"))
        return self.slopes[min(k - 1, self.slopes.size - 1)] \
            if k - 1 < self.slopes.size else self.slopes[-1]

    def lipschitz(self):
        return float(np.max(np.abs(self.slopes))) if self.slopes.size else 0.0

    def grad_image_measure(self, lo, hi):
        """Length of the slope interval attained over [lo, hi] (clipped)."""
        lo = float(np.atleast_1d(lo)[0])
        hi = float(np.atleast_1d(hi)[0])
        a = max(lo, self.vx[0])
        b = min(hi, self.vx[-1])
        if a > b or self.slopes.size == 0:
            return 0.0
        return max(self._slope_left(a) - self._slope_right(b), 0.0)

    def supporting_planes(self):
        """(slope, intercept) rows, one per hull segment."""
        out = []
        for k in range(self.slopes.size):
            s = self.slopes[k]
            out.append((s, self.vy[k] - s * self.vx[k]))
        return np.array(out) if out else np.zeros((0, 2))


class ConcaveEnvelope2D:
    dimension = 2

    def __init__(self, points, values, facet_planes, facet_grads,
                 vertex_cells):
        self.points = points            # cloud (m, 2)
        self.values = values
        self.facet_planes = facet_planes   # (F, 3): z = a x + b y + c
        self.facet_grads = facet_grads     # (F, 2)
        self.vertex_cells = vertex_cells   # {point index: (2,k) gradients}

    @staticmethod
    def from_samples(pts, vals):
        from scipy.spatial import ConvexHull, QhullError
        pts = np.asarray(pts, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if np.max(vals) <= 0.0:
            return ConcaveEnvelope2D(pts, np.zeros_like(vals),
                                     np.array([[0.0, 0.0, 0.0]]),
                                     np.zeros((1, 2)), {})
        cloud = np.column_stack([pts, vals])
        try:
            hull = ConvexHull(cloud)
        except QhullError:
            try:
                hull = ConvexHull(cloud, qhull_options="QJ Pp")
            except QhullError:
                # fully degenerate cloud: single supporting plane
                return ConcaveEnvelope2D(
                    pts, vals, np.array([[0.0, 0.0, float(vals.max())]]),
                    np.zeros((1, 2)), {})
        eqs = hull.equations          # normal . x + offset = 0, normal outward
        up = eqs[:, 2] > 1e-12
        nz = eqs[up, 2]
        planes = np.column_stack([-eqs[up, 0] / nz, -eqs[up, 1] / nz,
                                  -eqs[up, 3] / nz])
        grads = planes[:, :2].copy()
        cells = {}
        for f_local, f_global in enumerate(np.nonzero(up)[0]):
            for v in hull.simplices[f_global]:
                cells.setdefault(int(v), []).append(f_local)
        vertex_cells = {v: grads[idx] for v, idx in cells.items()}
        return ConcaveEnvelope2D(pts, vals, planes, grads, vertex_cells)

    def eval(self, q):
        q = np.atleast_2d(np.asarray(q, dtype=float))
        out = np.empty(q.shape[0])
        chunk = 4096
        a = self.facet_planes
        for s in range(0, q.shape[0], chunk):
            block = q[s:s + chunk]
            best = np.full(block.shape[0], np.inf)
            for fs in range(0, a.shape[0], chunk):
                sub = a[fs:fs + chunk]
                vals = block @ sub[:, :2].T + sub[None, :, 2]
                np.minimum(best, vals.min(axis=1), out=best)
            out[s:s + chunk] = best
        np.maximum(out, 0.0, out=out)
        out[np.linalg.norm(q, axis=1) > 3.0] = 0.0
        return out

    def lipschitz(self):
        if self.facet_grads.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.facet_grads, axis=1)))

    def grad_image_measure(self, lo, hi):
        """Area of gradients attained over the closed rectangle [lo, hi]."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        total = 0.0
        for v, grads in self.vertex_cells.items():
            p = self.points[v]
            if np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12):
                total += _polygon_area(grads)
        return total

    def supporting_planes(self):
        return self.facet_planes.copy()


def _polygon_area(grads):
    """Shoelace area of the (convex) gradient cell; the facet gradients
    around a hull vertex are exactly the cell's corners."""
    g = np.asarray(grads, dtype=float)
    if g.shape[0] < 3:
        return 0.0
    c = g.mean(axis=0)
    ang = np.arctan2(g[:, 1] - c[1], g[:, 0] - c[0])
    o = np.argsort(ang)
    x, y = g[o, 0], g[o, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1))
                           - np.dot(y, np.roll(x, -1))))


def concave_envelope(u):
    """Concave envelope of u^+ over B_3 from the field's own grid.

    Requires u <= POSITIVE_TOL outside B_1 (checked on grid points and
    exterior probe rings) and dimension <= 2.  Sample points on the B_3
    sphere (256 in 2-D) pin the hull domain; they carry value zero because
    u is nonpositive there.
    """
    n = u.n
    if n > 2:
        raise ValueError("exact envelopes are implemented for n <= 2 only")
    pts = u.grid_points()
    vals = u.eval(pts)
    r = np.linalg.norm(pts, axis=1)
    bad = (r > 1.0) & (vals > POSITIVE_TOL)
    if bad.any():
        worst = pts[np.argmax(np.where(bad, vals, -np.inf))]
        raise PositiveExteriorError(
            f"field is positive outside B_1 (e.g. at {worst})")
    for rad in (1.5, 2.0, 3.0, 5.0):
        probe = _sphere_points(n, rad, 64)
        pv = u.eval(probe)
        if np.any(pv > POSITIVE_TOL):
            raise PositiveExteriorError(
                f"field is positive outside B_1 at radius {rad}")

    keep = r <= 3.0
    cloud = pts[keep]
    cvals = np.maximum(vals[keep], 0.0)
    boundary = _sphere_points(n, 3.0, 256)
    cloud = np.vstack([cloud, boundary])
    cvals = np.concatenate([cvals, np.zeros(boundary.shape[0])])
    if n == 1:
        return ConcaveEnvelope1D.from_samples(cloud, cvals)
    return ConcaveEnvelope2D.from_samples(cloud, cvals)


def _sphere_points(n, radius, count):
    """``count`` equally spaced points on the circle of ``radius``, or the
    two endpoints of the interval in 1-D."""
    if n == 1:
        return np.array([[-radius], [radius]])
    ang = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return radius * np.column_stack([np.cos(ang), np.sin(ang)])


def contact_set(u, env, tol):
    """Grid points of B_3 where the envelope touches u (within tol).

    Returns (points, degenerate): degenerate flags the everything-touches
    case (u identically equal to its envelope on the sampled ball).
    """
    if tol <= 0:
        raise ValueError("contact tolerance must be positive")
    pts = u.grid_points()
    r = np.linalg.norm(pts, axis=1)
    keep = r <= 3.0
    pts = pts[keep]
    gap = env.eval(pts) - u.eval(pts)
    mask = gap <= tol
    return pts[mask], bool(mask.all())


def default_contact_tol(u, env):
    """2 * (grid spacing) * Lip(envelope): hull vertices rarely sit on
    lattice points, so one cell of slack is needed on each side."""
    h = float(np.max(u.h))
    return max(2.0 * h * env.lipschitz(), 1e-12)
