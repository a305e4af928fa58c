"""Kernel families and the analytic tail/near-field bounds.

A power-law member is m(y) * c_sigma / gauge(y) with a multiplier m taking
values in [lambda, Lambda]; a truncated member adds an integrable part
with a declared L1 budget.  The closed-form bounds below drive every
reported quadrature error:

* ``tail_gauge_bounds``: two-sided bounds for the tail mass
  int_{|y| >= R} dy / gauge(y); the upper bound halves at least by
  2^{-sigma_min} under doubling of R.
* ``near_moment_bound``: upper bound for int_{Theta_s} |y|^2 / gauge(y) dy
  via dyadic Theta-annuli; the per-annulus exponents are exactly the q_i,
  so the geometric sums converge for every admissible profile.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import gauge, sphere_area


class PowerLawKernel:
    """K(y) = m(y) c_sigma / sum_i |y_i|^(n+sigma_i), m in [mult_lo, mult_hi]."""

    def __init__(self, profile, multiplier, mult_lo=None, mult_hi=None):
        self.profile = profile
        self.multiplier = multiplier
        if callable(multiplier):
            if mult_lo is None or mult_hi is None:
                raise ValueError(
                    "callable multipliers need declared mult_lo/mult_hi")
            self.mult_lo, self.mult_hi = float(mult_lo), float(mult_hi)
        else:
            self.mult_lo = self.mult_hi = float(multiplier)

    def mult_values(self, y):
        if callable(self.multiplier):
            return np.asarray(self.multiplier(y), dtype=float)
        return np.full(y.shape[0], self.mult_lo)

    def eval(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return self.mult_values(y) * self.profile.c_sigma / gauge(self.profile, y)


class TruncatedKernel:
    """K = K1 + K2 with K1 a power-law member and ||K2||_L1 <= l1_budget."""

    def __init__(self, base: PowerLawKernel, k2, l1_budget):
        self.base = base
        self.k2 = k2
        self.l1_budget = float(l1_budget)
        self.profile = base.profile
        self.mult_lo = base.mult_lo
        self.mult_hi = base.mult_hi

    def eval(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return self.base.eval(y) + np.asarray(self.k2(y), dtype=float)


class KernelFamily:
    """Finite family indexed by (alpha, beta): inf over alpha, sup over beta."""

    def __init__(self, members):
        members = [list(row) for row in members]
        if not members or any(len(row) == 0 for row in members):
            raise ValueError("kernel family must be nonempty")
        width = len(members[0])
        if any(len(row) != width for row in members):
            raise ValueError("kernel family rows must have equal length")
        self.members = members

    @property
    def n_inf(self):
        return len(self.members)

    @property
    def n_sup(self):
        return len(self.members[0])

    @staticmethod
    def extremal_pair(profile):
        """Two constant-multiplier members {lambda, Lambda} on the sup level."""
        return KernelFamily([[PowerLawKernel(profile, profile.lambda_lo),
                              PowerLawKernel(profile, profile.lambda_hi)]])


# ---------------------------------------------------------------------------
# closed-form gauge integrals
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _iso_angular_constant(n, sigma):
    """int over the unit sphere of dw / sum_i |w_i|^(n+sigma), exact for
    equal orders (the gauge is then (n+sigma)-homogeneous).

    2^n times the positive orthant, onto which x -> x/|x| maps the unit
    simplex with dw = dx / |x|^n: the integrand is |x|^sigma / sum_i
    x_i^(n+sigma).  Collapsed coordinates carry the simplex to [0,1]^(n-1),
    summed by composite Gauss-Legendre, 4 panels of 64 nodes per axis."""
    if n == 1:
        return 2.0
    t, w = np.polynomial.legendre.leggauss(64)
    u = ((t + 1.0) / 8.0 + np.arange(4.0)[:, None] / 4.0).ravel()
    axes = np.meshgrid(*[u] * (n - 1), indexing="ij")
    wts = np.prod(np.meshgrid(*[np.tile(w / 8.0, 4)] * (n - 1),
                              indexing="ij"), axis=0)
    x, rest = [], 1.0
    for a in axes:               # x_k = rest a_k; the Jacobian is prod rest
        x.append(rest * a)
        wts, rest = wts * rest, rest * (1.0 - a)
    x = np.array(x + [rest])
    return 2.0 ** n * float(np.sum(wts * np.sum(x * x, axis=0) ** (sigma / 2)
                                   / np.sum(x ** (n + sigma), axis=0)))


def tail_gauge_bounds(profile, R):
    """(lower, upper) bounds for int_{|y| >= R} dy / gauge(y).

    Equal orders: the polar closed form S(n, sigma) R^-sigma / sigma is
    exact (a point bracket).  Mixed orders: upper via gauge >=
    (|y|/sqrt n)^(n+sigma) with sigma = sigma_max below |y| = sqrt n and
    sigma_min above; lower via gauge <= n max(|y|^(n+s_min), |y|^(n+s_max)).
    """
    if R <= 0:
        raise ValueError("tail radius must be positive")
    n = profile.n
    smin, smax = profile.sigma_min, profile.sigma_max
    if smax - smin < 1e-14 and n <= 3:
        s = _iso_angular_constant(n, smin)
        exact = s * R ** -smin / smin
        return exact * (1.0 - 1e-9), exact * (1.0 + 1e-9)
    rn = math.sqrt(n)
    area = sphere_area(n)

    up = 0.0
    if R < rn:
        up += n ** ((n + smax) / 2.0) * (R ** -smax - rn ** -smax) / smax
    up += n ** ((n + smin) / 2.0) * max(R, rn) ** -smin / smin
    up *= area

    low = 0.0
    if R < 1.0:
        low += (R ** -smin - 1.0) / smin
    low += max(R, 1.0) ** -smax / smax
    low *= area / n
    return low, up


def near_moment_bound(profile, s):
    """Upper bound for int_{Theta_s} |y|^2 / gauge(y) dy.

    Dyadic annuli Theta_{s 2^-m} \\ Theta_{s 2^-m-1} give the exact
    per-axis exponents q_i of the profile; |Theta_t| <= (2t^{1/(n+s_i)})
    box volume closes the bound.
    """
    if s <= 0:
        raise ValueError("inner radius must be positive")
    total = 0.0
    for i in range(profile.n):
        qi = profile.q[i]
        total += s ** qi / (1.0 - 2.0 ** -qi)
    return 2.0 ** (profile.n + 1) * total


def near_field_bound(profile, s, c11_bound, mult_hi):
    """|int_{Theta_s} delta K| <= 2 M mult_hi c_sigma * moment bound."""
    return 2.0 * c11_bound * mult_hi * profile.c_sigma \
        * near_moment_bound(profile, s)
