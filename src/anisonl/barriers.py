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
from .geometry import ScalingMap, row_norm
from .operators import eval_extremal_many


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
    """No exponent up to P_MAX passes; ``cert`` is the sample's
    certificate at P_MAX."""

    def __init__(self, cert):
        self.worst_margin = cert["min_margin"]
        self.worst_point = cert["worst_point"]
        super().__init__(
            f"no admissible exponent up to p = {P_MAX}; worst margin "
            f"{self.worst_margin:.3e} at {self.worst_point}")


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


# find_p refuses profiles with sigma_min at or below this floor, searches
# p up to P_MAX and screens each exponent on its first SCREEN_POINTS points
SIGMA_FLOOR = 0.5
P_MAX = 64
SCREEN_POINTS = 24


def _certificate(pts, value, error):
    """The sampled supersolution record of the margins ``value``, with
    errors ``error``, at ``pts``: the worst margin with its point and
    error, PASS iff every margin clears minus its error, and the count of
    points whose margin minus its error is nonnegative."""
    worst = int(np.argmin(value))
    return {
        "min_margin": float(value[worst]),
        "worst_point": pts[worst],
        "quadrature_error": float(error[worst]),
        "passed": bool(np.all(value >= -error)),
        "certified": int(np.count_nonzero(value - error >= 0.0)),
        "n_points": len(pts),
    }


def find_p(profile, R, quad, n_points, seed):
    """Smallest integer p in [1, P_MAX] with M^- min(2^p, |x|^-p) >= 0
    (within quadrature error) on a sample of {1 <= |x| <= R}.

    Strategy: screen the first ``SCREEN_POINTS`` sample points at
    p = 1, 2, 4, ... (capped at ``P_MAX``) until a screen passes, then
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
    pts = annulus_points(profile.n, 1.0, R, n_points, seed)
    screen = min(SCREEN_POINTS, n_points)
    # (margins, errors) so far per p, a column per point: the shell sums,
    # probe and tail bracket of eval_extremal_many are rowwise, so a
    # screen's columns stand in for a full pass's
    done = {}

    def certify(p, rows):
        have = done.get(p, np.empty((2, 0)))
        if have.shape[1] < rows:
            have = done[p] = np.hstack([have, eval_extremal_many(
                RadialBarrier(p, 2.0 ** p), pts[have.shape[1]:rows], profile,
                quad, "minus")])
        return _certificate(pts[:rows], *have[:, :rows])

    lo, hi = 0, 1
    while True:
        hi = min(hi, P_MAX)
        if certify(hi, screen)["passed"]:
            break
        if hi == P_MAX:
            raise BarrierSearchError(certify(P_MAX, n_points))
        lo, hi = hi, 2 * hi
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if certify(mid, screen)["passed"]:
            hi = mid
        else:
            lo = mid + 1
    for p in range(lo, P_MAX + 1):
        cert = certify(p, n_points)
        if cert["passed"]:
            return dict(cert, p=p)
    raise BarrierSearchError(cert)


# ---------------------------------------------------------------------------
# the bump barrier
# ---------------------------------------------------------------------------

class PsiBarrier(AnalyticField):
    """Power annulus glued C^{1,1} to a per-axis quadratic cap.

    In the straightened coordinates w = T_{1/4}^{-1} x the unscaled shape
    is |w|^-p - (3 sqrt n)^-p on 1 <= |w| <= 3 sqrt n, a quadratic
    c - (p/2)|w|^2 inside the unit ball, and 0 outside.  Value and
    gradient match on |w| = 1 for c = 1 - (3 sqrt n)^-p + p/2, which is
    a_i = -p / (2 t_i^2) in x = t w, t the diagonal of T_{1/4} (public: it
    places the annulus psi is sampled on).  quad_coeffs are the x-coordinate
    coefficients (a_1..a_n, c) of the cap; tilde_c scales the shape so it
    clears 3 on the rectangle R_{1/4,3}, with a 5% margin.
    """

    def __init__(self, profile, p):
        n = profile.n
        self.p = float(p)
        self.t = t = ScalingMap(profile, 0.25).diagonal()
        self._outer = 3.0 * math.sqrt(n)
        self._outer_val = outer_val = self._outer ** -self.p
        self._c = 1.0 - outer_val + self.p / 2
        self.quad_coeffs = np.append(-self.p / t / (2.0 * t), self._c)
        # the unscaled minimum over R_{1/4,3} sits at the box corner
        corner = 3.0 ** (1.0 / (n + profile.sigma_min)) * math.sqrt(n)
        self.tilde_c = 1.05 * 3.0 / (corner ** -self.p - outer_val)
        self._support_radius = self._outer * float(np.max(t))
        super().__init__(self._shape, sup_bound=self.tilde_c * self._c,
                         range_outside=self._range_outside)

    def _shape(self, pts):
        r = row_norm(pts / self.t)
        # the annulus piece; r = 0 sends it to inf, where the cap is taken
        with np.errstate(divide="ignore", over="ignore"):
            out = r ** -self.p
        out -= self._outer_val
        out[~(r < self._outer)] = 0.0
        # q(x) = sum a_i x_i^2 + c collapses to c - (p/2)|w|^2 in w-space
        cap = r < 1.0
        out[cap] = self._c - r[cap] ** 2 * (0.5 * self.p)
        out *= self.tilde_c
        return out

    def _range_outside(self, R):
        # x +- y lies at least R from the origin: past the support once R
        # reaches its radius
        return 0.0, (0.0 if R >= self._support_radius else self.sup_bound)


def verify_supersolution(barrier, points, profile, quad):
    """The sampled certificate of M^- barrier >= 0 at ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError("need at least one sample point")
    return _certificate(points, *eval_extremal_many(barrier, points, profile,
                                                    quad, "minus"))
