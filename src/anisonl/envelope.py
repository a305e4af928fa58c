"""Concave envelopes over B_3, contact sets and gradient-image measures.

The envelope Gamma of a field u, nonpositive outside B_1, is the least
concave majorant of u^+ on the lattice samples of B_3: u's lattice,
extended with its own spacing over B_3, carries u^+ in B_1 and zero in
the rest of B_3.  Outside B_3 Gamma is held at zero.  In any dimension
it is a double discrete Legendre transform on a product grid of slopes,

    u*(s) = max_y (u^+(y) - s.y),    Gamma_D(x) = min_s (s.x + u*(s)),

each taken as one maximum per axis in turn, with one maximiser y(s)
tracked per slope: the separable scheme of Lucet ("Faster than the fast
Legendre transform, the linear-time Legendre transform", Numer.
Algorithms 16, 1997).  ``_legendre`` takes one argmax along the axis for
every slope, so each axis costs O(lattice x slopes), not Lucet's linear
time; the linear-time merge is ROADMAP item 24.

Slopes: every facet of Gamma has a vertex in B_1, where u^+ lives, and
its plane, at most sup u^+ there, stays nonnegative at the lattice points
up to 2 beyond it along each axis.  So |s_i| <= sup u^+ / t, with
t = h_i floor(2 / h_i) the most whole lattice steps within 2 (one step
if h_i > 2; t = 2 on the CLI's grids).  The slope grid spacing is
ds = (that bound) / ceil(1 / h), h the finest lattice spacing, and
Gamma <= Gamma_D <= Gamma + ds max_{B_3} |y|_1 <= Gamma + 3 sqrt(n) ds at
the samples: a bracket of the lattice's own order h sup u^+.  At any
other point of B_3, Gamma_D is the minimum of the active planes, those
that attain it at a sample.

Gradient image of a rectangle: each slope s is a supergradient of Gamma
at its maximiser y(s), so ds^n times the count of slopes whose maximiser
lies in the rectangle measures the union of superdifferentials over it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import PreconditionError


# u <= POSITIVE_TOL outside B_1 counts as nonpositive: the slack absorbs
# interpolation round-off
POSITIVE_TOL = 1e-9


class PositiveExteriorError(PreconditionError):
    """The field is positive outside B_1, where the envelope needs it
    nonpositive."""


def _legendre(f, xs, ts):
    """g(t) = max_x (f(x) - t.x) from the product grid ``xs`` to the product
    grid ``ts``, one axis at a time, and per axis the index into ``xs`` of
    a maximiser of each t (the first, on ties)."""
    n = len(xs)
    picks = []
    for i in range(n):
        # f's axes are t_0..t_{i-1}, x_i..x_{n-1}: reduce x_i, kept last,
        # into g, whose t_i axis comes first until it moves into place
        f = np.ascontiguousarray(np.moveaxis(f, i, -1))
        g = np.empty((len(ts[i]),) + f.shape[:-1])
        pick = np.empty(g.shape, dtype=np.int32)
        for j, t in enumerate(ts[i]):
            w = f - t * xs[i]
            pick[j] = np.argmax(w, axis=-1)
            g[j] = np.take_along_axis(w, pick[j][..., None], axis=-1)[..., 0]
        f = np.moveaxis(g, 0, i)
        picks.append(np.moveaxis(pick, 0, i))
    # picks[i] has axes t_0..t_i, x_{i+1}..x_{n-1}: read back from the last
    open_t = np.ix_(*[np.arange(len(t)) for t in ts])
    args = [picks[-1]]
    for i in range(n - 2, -1, -1):
        args.insert(0, picks[i][open_t[:i + 1] + tuple(args)])
    return f, args


class GridEnvelope:
    """Gamma_D of the samples over B_3 of the grid field u, kept as
    ``field`` (see the module text): the sample lattice ``axes``, u's own
    extended (``first``: u's index of its first point per axis),
    ``samples`` (-inf outside B_3; u's lattice values in B_1, which u's
    box must hold), the slope grid ``slopes`` of
    spacing ``step``, u* and the maximiser of each slope (its flat index
    into ``samples``), Gamma_D on the lattice (zero outside B_3) and the
    active planes."""

    def __init__(self, u):
        if np.any(u.lo > -1.0) or np.any(u.hi < 1.0):
            raise ValueError("the field's box must hold B_1")
        self.field = u
        self.first = [math.ceil((-3.0 - lo) / h - 1e-9)
                      for lo, h in zip(u.lo, u.h)]
        last = [math.floor((3.0 - lo) / h + 1e-9) for lo, h in zip(u.lo, u.h)]
        self.axes = [lo + h * np.arange(k, j + 1)
                     for lo, h, k, j in zip(u.lo, u.h, self.first, last)]
        grid = np.ix_(*self.axes)
        r2 = sum(g ** 2 for g in grid)
        self.ball, unit = r2 <= 9.0, r2 <= 1.0
        del r2
        self.samples = np.where(self.ball, 0.0, -np.inf)
        at = tuple(i + f for i, f in zip(np.nonzero(unit), self.first))
        self.samples[unit] = np.maximum(u.values[at], 0.0)

        reach = min(h * max(1, math.floor(2.0 / h + 1e-9)) for h in u.h)
        bound = float(self.samples.max()) / reach
        k = math.ceil(1.0 / float(np.min(u.h)) - 1e-9) if bound > 0 else 0
        self.step = bound / max(k, 1)
        # least steep first: the first of tied planes is the least steep
        self.slopes = self.step * np.array(sorted(range(-k, k + 1), key=abs))
        n = u.n
        self.conjugate, arg_y = _legendre(self.samples, self.axes,
                                          [self.slopes] * n)
        self.maximisers = np.ravel_multi_index(tuple(arg_y),
                                               self.samples.shape)
        # sorted once for every gradient-image count
        self._sorted_maximisers = np.sort(self.maximisers, axis=None)
        # max_s (-u*(s) - s.x) = -Gamma_D(x), with the argmin plane at x
        self.values, arg_s = _legendre(-self.conjugate, [self.slopes] * n,
                                       self.axes)
        self.values *= -1.0
        self.values[~self.ball] = 0.0
        active = np.zeros(self.conjugate.shape, dtype=bool)
        active[tuple(i[self.ball] for i in arg_s)] = True
        self.gradients = np.stack(
            np.meshgrid(*[self.slopes] * n, indexing="ij"), axis=-1)
        self.planes = np.column_stack([self.gradients[active],
                                       self.conjugate[active]])
        # slopes whose maximiser carries a positive sample
        self.lifted = self.samples[tuple(arg_y)] > 0.0

    def lipschitz(self):
        """The largest |s| of a slope whose maximiser is positive: each
        facet of Gamma has a positive vertex, whose superdifferential holds
        the facet's gradient."""
        s = self.gradients[self.lifted]
        return float(np.max(np.linalg.norm(s, axis=-1))) if s.size else 0.0

    def grad_image_measure(self, lo, hi):
        """step^n times the count of slopes whose maximiser lies in the
        closed rectangle [lo, hi] (to 1e-12).  Its lattice points span one
        index range per axis, so they are one run of flat indices along the
        last axis per index of the others, each counted in the sorted
        maximisers."""
        a = [np.searchsorted(ax, x - 1e-12) for ax, x in zip(self.axes, lo)]
        b = [np.searchsorted(ax, x + 1e-12, "right")
             for ax, x in zip(self.axes, hi)]
        # clip: a run that starts past its axis is empty
        first = np.ravel_multi_index(
            np.ix_(*map(np.arange, a[:-1], b[:-1]), a[-1:]),
            self.samples.shape, mode="clip")
        run = max(b[-1] - a[-1], 0)
        flat = self._sorted_maximisers
        count = np.sum(np.searchsorted(flat, first + run)
                       - np.searchsorted(flat, first))
        return float(count) * self.step ** len(self.axes)

    def supporting_planes(self):
        """(s_1..s_n, u*(s)) rows of the active planes, z = s.x + u*(s)."""
        return self.planes.copy()


def concave_envelope(u):
    """Gamma_D of u^+ over B_3 from the grid field ``u``'s own lattice.

    Requires u <= POSITIVE_TOL outside B_1, checked on the lattice and at
    radii 1.5, 2, 3 and 5 along the 3^n - 1 directions of {-1, 0, 1}^n.
    """
    n = u.n
    pts = u.grid_points()
    vals = u.values.ravel()
    bad = (np.linalg.norm(pts, axis=1) > 1.0) & (vals > POSITIVE_TOL)
    if bad.any():
        worst = pts[np.argmax(np.where(bad, vals, -np.inf))]
        raise PositiveExteriorError(
            f"field is positive outside B_1 (e.g. at {worst})")
    dirs = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=n)
                     if any(d)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for rad in (1.5, 2.0, 3.0, 5.0):
        if np.any(u.eval(rad * dirs) > POSITIVE_TOL):
            raise PositiveExteriorError(
                f"field is positive outside B_1 at radius {rad}")
    return GridEnvelope(u)


def lattice_gap(env, index):
    """Gamma_D - u at ``u.values[index]``, u the envelope's field and
    ``index`` a tuple of u's per-axis index arrays, both read off their
    lattices: u's index k is ``env``'s k - first, and Gamma_D is zero
    outside B_3, off ``env``'s lattice too."""
    on, at = True, []
    for k, f, ax in zip(index, env.first, env.axes):
        on = on & (k >= f) & (k < f + len(ax))
        at.append(np.clip(k - f, 0, len(ax) - 1))
    return np.where(on, env.values[tuple(at)], 0.0) - env.field.values[index]


def contact_set(env):
    """The lattice points in B_1 of the envelope's field u where
    Gamma_D - u <= default_contact_tol (``lattice_gap``).

    Returns (points, degenerate): degenerate when every lattice point of
    B_1 touches.
    """
    tol = default_contact_tol(env)
    axes = env.field.axes()
    # per axis, the lattice indices within [-1, 1]
    near = [np.flatnonzero(np.abs(ax) <= 1.0 + 1e-9) for ax in axes]
    sub = [ax[k] for ax, k in zip(axes, near)]
    ball = np.sqrt(sum(g ** 2 for g in np.ix_(*sub))) <= 1.0 + 1e-9
    touch = ball & (lattice_gap(env, np.ix_(*near)) <= tol)
    pts = np.column_stack([x[k] for x, k in zip(sub, np.nonzero(touch))])
    return pts, bool(touch[ball].all())


def default_contact_tol(env):
    """2 * (the field's grid spacing) * Lip(envelope): hull vertices
    rarely sit on lattice points, so one cell of slack is needed on each
    side."""
    h = float(np.max(env.field.h))
    return max(2.0 * h * env.lipschitz(), 1e-12)
