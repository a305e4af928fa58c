"""Barrier functions and their sampled supersolution certificates.

The radial barrier min(cap, |x|^-p) is a supersolution of the minimal
operator on an annulus once p is large enough; ``find_p`` searches the
smallest integer exponent whose sampled margins certify it.  The bump
barrier (power annulus glued to an axis-separable quadratic cap, capped
at zero outside a large ellipse) is positive on a fixed rectangle and has
nonnegative minimal operator outside the small ellipse;
``verify_supersolution`` samples that margin.
"""

from __future__ import annotations

import math

import numpy as np

from . import PreconditionError
from .fields import AnalyticField
from .geometry import ScalingMap, ellipse, rect, row_norm
from .operators import eval_extremal_many
from .quadrature import QuadratureScheme


# ---------------------------------------------------------------------------
# barrier fields
# ---------------------------------------------------------------------------

class RadialBarrier(AnalyticField):
    """f(x) = min(cap, |x|^-p), radially non-increasing, bounded by cap."""

    def __init__(self, p, cap):
        if p <= 0 or cap <= 0:
            raise ValueError("barrier needs positive exponent and cap")
        self.p = float(p)
        self.cap = float(cap)

        def fn(pts):
            r = row_norm(pts)
            with np.errstate(divide="ignore"):
                r **= -self.p
            return np.minimum(r, self.cap, out=r)

        super().__init__(fn, sup_bound=cap,
                         range_outside=self._range_outside)

    def _range_outside(self, R):
        return 0.0, min(self.cap, R ** -self.p)


# ---------------------------------------------------------------------------
# exponent search
# ---------------------------------------------------------------------------

class BarrierSearchError(PreconditionError):
    def __init__(self, worst_margin, worst_point, p_max):
        self.worst_margin = worst_margin
        self.worst_point = worst_point
        super().__init__(
            f"no admissible exponent up to p = {p_max}; worst margin "
            f"{worst_margin:.3e} at {worst_point}")


def annulus_points(n, r_lo, r_hi, count, seed):
    """Deterministic sample of the Euclidean annulus r_lo <= |x| <= r_hi."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        d = rng.normal(size=n)
        nd = np.linalg.norm(d)
        if nd == 0:
            continue
        radius = r_lo + (r_hi - r_lo) * rng.random()
        pts.append(d / nd * radius)
    return np.array(pts)


# find_p refuses profiles with sigma_min at or below this floor
SIGMA_FLOOR = 0.5


def _margins(barrier, pts, profile, quad):
    return [(ov.value, ov.error) for ov in
            eval_extremal_many(barrier, pts, profile, quad, which="minus")]


def find_p(profile, R, quad=None, n_points=200, p_max=64, seed=11,
           screen_points=24):
    """Smallest integer p in [1, p_max] with M^- min(2^p, |x|^-p) >= 0
    (within quadrature error) on a sample of {1 <= |x| <= R}.

    Strategy: screen the first ``screen_points`` sample points at
    p = 1, 2, 4, ... (capped at ``p_max``) until a screen passes, then
    bisect between the last failing and the passing exponent (margins are
    monotone in p, so this is the smallest p whose screen passes).  Full
    certification follows at that candidate, advancing p if the full
    sample disagrees with the screen.  A screened exponent's margins are
    kept, so certifying it evaluates only the points past the screen.
    """
    if R <= 1:
        raise ValueError("the annulus needs R > 1")
    if n_points < 1:
        raise ValueError("need at least one sample point")
    if profile.sigma_min <= SIGMA_FLOOR:
        raise PreconditionError(
            f"profile sigma_min {profile.sigma_min} at or below the barrier "
            f"floor {SIGMA_FLOOR}: barrier certification refused")
    if quad is None:
        quad = QuadratureScheme(shells=20, nodes_per_shell=1500,
                                far_radius=8.0 * R, r_inner=1e-8, seed=seed)
    pts = annulus_points(profile.n, 1.0, R, n_points, seed)
    screen = pts[:screen_points]
    # margins of the screen rows per screened p; rows of eval_extremal_many
    # do not depend on the batch, so they stand in for a full evaluation's
    screened = {}

    def screen_ok(p):
        screened[p] = _margins(RadialBarrier(p, 2.0 ** p), screen, profile,
                               quad)
        return all(v >= -e for v, e in screened[p])

    def full_margins(p):
        head = screened.get(p, [])
        rest = pts[len(head):]
        if not len(rest):
            return head
        return head + _margins(RadialBarrier(p, 2.0 ** p), rest, profile,
                               quad)

    def search_error(margins):
        worst = min(range(len(margins)), key=lambda i: margins[i][0])
        return BarrierSearchError(margins[worst][0], pts[worst], p_max)

    lo, hi = 0, 1
    while True:
        hi = min(hi, p_max)
        if screen_ok(hi):
            break
        if hi == p_max:
            raise search_error(full_margins(p_max))
        lo, hi = hi, 2 * hi
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if screen_ok(mid):
            hi = mid
        else:
            lo = mid + 1
    for p in range(lo, p_max + 1):
        margins = full_margins(p)
        if all(v >= -e for v, e in margins):
            worst = min(range(len(margins)), key=lambda i: margins[i][0])
            return {
                "p": p,
                "min_margin": margins[worst][0],
                "worst_point": pts[worst],
                "quadrature_error": margins[worst][1],
                "n_points": len(pts),
            }
    raise search_error(margins)


# ---------------------------------------------------------------------------
# the bump barrier
# ---------------------------------------------------------------------------

class PsiBarrier(AnalyticField):
    """Power annulus glued C^{1,1} to a per-axis quadratic cap.

    In the straightened coordinates w = T_{1/4}^{-1} x the unscaled shape
    is |w|^-p - (3 sqrt n)^-p on 1 <= |w| <= 3 sqrt n, a quadratic
    c_q - (p/2)|w|^2 inside the unit ball, and 0 outside; value and
    gradient match on |w| = 1 by construction.  quad_coeffs are the
    x-coordinate coefficients (a_1..a_n, c) of the cap.
    """

    def __init__(self, profile, p, tilde_c, quad_coeffs):
        self.profile = profile
        self.p = p
        self.tilde_c = tilde_c
        self.quad_coeffs = quad_coeffs   # (n + 1,): a_i, then the constant c
        self.map = ScalingMap(profile, 0.25)
        self._t = self.map.diagonal()
        self._outer = 3.0 * math.sqrt(profile.n)
        self._c = float(quad_coeffs[-1])
        self._support_radius = self._outer * float(np.max(self._t))
        super().__init__(self._shape, sup_bound=tilde_c * self._c,
                         range_outside=self._range_outside)

    def _shape(self, pts):
        w = pts / self._t[None, :]
        r = row_norm(w)
        outer_val = self._outer ** -self.p
        # both pieces at every point, then the one that applies; r = 0
        # sends the annulus piece to inf, where the cap piece is taken
        with np.errstate(divide="ignore", over="ignore"):
            mid = r ** -self.p
        mid -= outer_val
        # q(x) = sum a_i x_i^2 + c collapses to c - (p/2)|w|^2 in w-space
        core = r ** 2
        core *= 0.5 * self.p
        np.subtract(self._c, core, out=core)
        out = np.where(r < 1.0, core, np.where(r < self._outer, mid, 0.0))
        return self.tilde_c * out

    def _range_outside(self, R):
        # x +- y lies at least R from the origin: past the support once R
        # reaches its radius
        return 0.0, (0.0 if R >= self._support_radius else self.sup_bound)

    def support_set(self):
        return ellipse(self.profile, 0.25, self._outer)

    def floor_set(self):
        return rect(self.profile, 0.25, 3.0)


def build_psi(profile, p):
    """Solve the per-axis gluing systems and scale so the barrier clears
    3 on the rectangle R_{1/4,3}, with a 5% margin."""
    n = profile.n
    t = ScalingMap(profile, 0.25).diagonal()
    outer = 3.0 * math.sqrt(n)
    outer_val = outer ** -p

    # per-axis 2x2 system: value and gradient match at x = t_i e_i
    a = np.empty(n)
    cs = np.empty(n)
    for i in range(n):
        ti = t[i]
        sys = np.array([[ti ** 2, 1.0], [2.0 * ti, 0.0]])
        rhs = np.array([1.0 - outer_val, -p / ti])
        try:
            sol = np.linalg.solve(sys, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"gluing system singular on axis {i}") from exc
        a[i] = sol[0]
        cs[i] = sol[1]
    if not np.allclose(cs, cs[0], rtol=1e-10, atol=1e-12):
        raise RuntimeError(f"inconsistent gluing constants across axes: {cs}")
    c_x = cs[0]

    # the unscaled minimum over R_{1/4,3} sits at the box corner
    corner = 3.0 ** (1.0 / (n + profile.sigma_min)) * math.sqrt(n)
    min_val = corner ** -p - outer_val
    if min_val <= 0:
        raise RuntimeError("degenerate floor: the box corner reaches the "
                           "support boundary")
    tilde_c = 1.05 * 3.0 / min_val
    coeffs = np.concatenate([a, [c_x]])
    return PsiBarrier(profile, float(p), float(tilde_c), coeffs)


def verify_supersolution(barrier, points, profile, quad):
    """Minimum of M^- barrier over the sample; PASS iff the minimum clears
    minus the local quadrature error."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError("need at least one sample point")
    ovs = eval_extremal_many(barrier, points, profile, quad, which="minus")
    margins = np.array([ov.value for ov in ovs])
    errors = np.array([ov.error for ov in ovs])
    worst = int(np.argmin(margins))
    return {
        "min_margin": float(margins[worst]),
        "worst_point": points[worst],
        "quadrature_error": float(errors[worst]),
        "passed": bool(np.all(margins >= -errors)),
        "n_points": len(points),
    }
