"""Level sets, anisotropic boxes/ellipses, scaling maps and their measures.

The four set kinds share one membership convention (all centered,
strict inequalities):

    Theta(r):     sum_i |y_i - x_i|^(n+sigma_i) < r
    Ellipse(r,s): sum_i (y_i - x_i)^2 / r^(2/(n+sigma_i)) < s^2
    Rect(r,s):    |y_i - x_i| < s^(1/(n+sigma_min)) * r^(1/(n+sigma_i))
    TildeRect(r,s): |y_i - x_i| < (s r)^(1/(n+sigma_i))

Measures of Ellipse/Rect/TildeRect are closed-form.  |Theta_r| follows the
exact scaling r^(sum_i 1/(n+sigma_i)) |Theta_1|, with |Theta_1| estimated
once per profile by Monte Carlo (cached, standard error reported).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .profile import AnisotropyProfile

THETA = "Theta"
ELLIPSE = "Ellipse"
RECT = "Rect"
TILDE_RECT = "TildeRect"
_KINDS = (THETA, ELLIPSE, RECT, TILDE_RECT)


def gauge(profile, y):
    """sum_i |y_i|^(n+sigma_i) for a batch of points (m, n)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.sum(np.abs(y) ** profile.exponents[None, :], axis=1)


def row_norm(pts):
    """Euclidean norm of each row of ``pts`` (m, n).

    The squares are accumulated column by column, which is the order numpy's
    reduce uses below eight columns, so for n <= 7 the result equals
    ``np.linalg.norm(pts, axis=1)`` bit for bit; columnwise adds avoid the
    slow strided reduce over a short axis.
    """
    pts = np.asarray(pts, dtype=float)
    acc = pts[:, 0] * pts[:, 0]
    for i in range(1, pts.shape[1]):
        acc += pts[:, i] * pts[:, i]
    return np.sqrt(acc, out=acc)


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(n):
    """Surface measure of the unit sphere in R^n (2 for n=1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class AnisoSet:
    kind: str
    profile: AnisotropyProfile
    center: tuple
    r: float
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.r <= 0 or self.s <= 0:
            raise ValueError("set scales r, s must be positive")
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        if len(c) != self.profile.n:
            raise ValueError("center dimension mismatch")
        object.__setattr__(self, "center", c)

    # half widths of the tight axis-parallel bounding box
    def half_widths(self):
        p = self.profile
        ex = p.exponents
        if self.kind == THETA:
            return self.r ** (1.0 / ex)
        if self.kind == ELLIPSE:
            return self.s * self.r ** (1.0 / ex)
        if self.kind == RECT:
            return (self.s ** (1.0 / (p.n + p.sigma_min))) * self.r ** (1.0 / ex)
        return (self.s * self.r) ** (1.0 / ex)

    def contains(self, y):
        """Vectorized membership test (exact defining inequality)."""
        p = self.profile
        y = np.atleast_2d(np.asarray(y, dtype=float))
        d = y - np.asarray(self.center)[None, :]
        if self.kind == THETA:
            return gauge(p, d) < self.r
        if self.kind == ELLIPSE:
            scale = self.r ** (1.0 / p.exponents)
            return np.sum((d / scale[None, :]) ** 2, axis=1) < self.s ** 2
        hw = self.half_widths()
        return np.all(np.abs(d) < hw[None, :], axis=1)

    def measure(self, mode="exact", samples=200_000, seed=0):
        """Lebesgue measure with an error bound; see module docstring."""
        p = self.profile
        if mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown measure mode {mode!r}")
        if mode == "monte_carlo":
            if samples < 1:
                raise ValueError("need at least one sample")
            rng = np.random.default_rng(seed)
            hw = self.half_widths()
            box = float(np.prod(2.0 * hw))
            hits = 0
            chunk = 500_000
            for start in range(0, samples, chunk):
                pts = rng.uniform(-hw, hw,
                                  size=(min(chunk, samples - start), p.n)) \
                    + np.asarray(self.center)[None, :]
                hits += int(np.count_nonzero(self.contains(pts)))
            frac = hits / samples
            se = box * math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
            return box * frac, se
        ex = p.exponents
        if self.kind == ELLIPSE:
            semi = self.s * self.r ** (1.0 / ex)
            return unit_ball_volume(p.n) * float(np.prod(semi)), 0.0
        if self.kind == RECT:
            val = 2.0 ** p.n * self.s ** (p.n / (p.n + p.sigma_min)) \
                * self.r ** float(np.sum(1.0 / ex))
            return val, 0.0
        if self.kind == TILDE_RECT:
            return 2.0 ** p.n * (self.s * self.r) ** float(np.sum(1.0 / ex)), 0.0
        # Theta: exact scaling off the cached unit-level estimate
        v1, se1 = theta_unit_volume(p)
        scale = self.r ** float(np.sum(1.0 / ex))
        return scale * v1, scale * se1


def theta_unit_volume(profile):
    """|Theta_1| by Monte Carlo over the bounding box [-1, 1]^n: two
    million seed-1234 samples, cached per (n, sigma)."""
    return _theta_unit_volume(profile.n, profile.sigma)


@functools.lru_cache(maxsize=None)
def _theta_unit_volume(n, sigma):
    return theta(AnisotropyProfile(n, sigma), 1.0).measure(
        "monte_carlo", 2_000_000, 1234)


def theta(profile, r):
    return AnisoSet(THETA, profile, (0.0,) * profile.n, r)


def ellipse(profile, r, s):
    return AnisoSet(ELLIPSE, profile, (0.0,) * profile.n, r, s)


def rect(profile, r, s):
    return AnisoSet(RECT, profile, (0.0,) * profile.n, r, s)


def tilde_rect(profile, r, s):
    return AnisoSet(TILDE_RECT, profile, (0.0,) * profile.n, r, s)


# ---------------------------------------------------------------------------
# diagonal scaling maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingMap:
    """Diagonal anisotropic scaling, either T_r or the directional T_{j,r}.

    T_r e_i = r^{1/(n+sigma_i)} e_i
    T_{j,r} e_j = r e_j,  T_{j,r} e_i = r^{(n+sigma_j)/(n+sigma_i)} e_i
    """

    profile: AnisotropyProfile
    r: float
    j: int = None   # None -> T_r, otherwise T_{j,r}

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("scaling parameter must be positive")
        if self.j is not None and not 0 <= self.j < self.profile.n:
            raise ValueError("axis index out of range")

    def diagonal(self):
        p = self.profile
        ex = p.exponents
        if self.j is None:
            return self.r ** (1.0 / ex)
        d = self.r ** ((p.n + p.sigma[self.j]) / ex)
        d[self.j] = self.r
        return d

    def apply(self, y, inverse=False):
        y = np.asarray(y, dtype=float)
        d = self.diagonal()
        return y / d if inverse else y * d
