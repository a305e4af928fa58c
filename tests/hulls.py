"""Exact upper hulls of point clouds in 1D and 2D: the oracles of the
grid envelope (``anisonl.envelope``) and the envelopes of the point-cloud
instances of the ABP, acceptance and lemma tests.  The 2D hull is
scipy's Qhull, which only the tests load.

Gradient-image measure of a region: the union of superdifferentials over
the region is, for a piecewise-linear concave hull, the union of the
gradient cells of the hull vertices lying in the region (facets and edges
contribute measure zero); the cells have pairwise disjoint interiors, so
the measure is the sum of their areas (interval lengths in 1-D).
"""

import numpy as np


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
                 vertex_cells, cell_edges=(np.zeros((0, 2), int),
                                           np.zeros(0))):
        self.points = points            # cloud (m, 2)
        self.values = values
        self.facet_planes = facet_planes   # (F, 3): z = a x + b y + c
        self.facet_grads = facet_grads     # (F, 2)
        self.vertex_cells = vertex_cells   # {point index: (2,k) gradients}
        # the edges between gradient cells: the two hull vertices whose
        # cells share each one, and its length
        self.edge_vertices, self.edge_lengths = cell_edges

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
        # two upward facets across a hull edge bound the cells of its ends
        local = np.cumsum(up) - 1
        edges, lengths = [], []
        for f in np.flatnonzero(up):
            for k, g in enumerate(hull.neighbors[f]):
                if f < g and up[g]:
                    edges.append(np.delete(hull.simplices[f], k))
                    lengths.append(np.linalg.norm(grads[local[f]]
                                                  - grads[local[g]]))
        return ConcaveEnvelope2D(pts, vals, planes, grads, vertex_cells,
                                 (np.array(edges), np.array(lengths)))

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


def cell_tube(hull, lo, hi, r):
    """A bound on the area within ``r`` of the boundary of the union of the
    hull's vertex cells in the closed rectangle [lo, hi]: 2 r per endpoint
    of that interval in 1D, and 2 r L + pi r^2 per boundary edge of
    length L (an edge between a cell in and a cell out) in 2D.  A slope
    grid of spacing ds counts a slope wrongly only within sqrt(n) ds / 2
    of that boundary."""
    if hull.dimension == 1:
        inside = (hull.vx >= lo[0] - 1e-12) & (hull.vx <= hi[0] + 1e-12)
        return 4.0 * r if inside.any() else 0.0
    inside = np.all((hull.points >= lo - 1e-12)
                    & (hull.points <= hi + 1e-12), axis=1)
    cut = inside[hull.edge_vertices].sum(axis=1) == 1
    return 2.0 * r * float(np.sum(hull.edge_lengths[cut])) \
        + np.pi * r * r * np.count_nonzero(cut)


def lattice_hull(env):
    """The exact hull of a grid envelope's own samples: its lattice points
    of B_3 and u^+ there."""
    mesh = np.meshgrid(*env.axes, indexing="ij")
    pts = np.stack([m[env.ball] for m in mesh], axis=1)
    vals = env.samples[env.ball]
    hull = ConcaveEnvelope1D if len(env.axes) == 1 else ConcaveEnvelope2D
    return hull.from_samples(pts, vals), pts
