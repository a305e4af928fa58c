"""Level sets, anisotropic boxes/ellipses, scaling maps and their measures.

The four set kinds, each centered at x and open (strict inequalities):

    Theta(r):     sum_i |y_i - x_i|^(n+sigma_i) < r
    Ellipse(r,s): sum_i (y_i - x_i)^2 / r^(2/(n+sigma_i)) < s^2
    Rect(r,s):    |y_i - x_i| < s^(1/(n+sigma_min)) * r^(1/(n+sigma_i))
    TildeRect(r,s): |y_i - x_i| < (s r)^(1/(n+sigma_i))

Every measure is closed-form.  |Theta_r| is a Dirichlet integral: with
a_i = 1/(n+sigma_i) and A = sum_i a_i,

    |Theta_r| = r^A 2^n prod_i Gamma(1 + a_i) / Gamma(1 + A).

The diagonal r^(a_i) of T_r, which is also the half-width of the
bounding box of Theta_r, is ``theta_half_widths``.
"""

from __future__ import annotations

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
        if self.kind == TILDE_RECT:
            return theta_half_widths(p, self.s * self.r)
        hw = theta_half_widths(p, self.r)
        if self.kind == ELLIPSE:
            return self.s * hw
        if self.kind == RECT:
            return (self.s ** (1.0 / (p.n + p.sigma_min))) * hw
        return hw

    def measure(self):
        """Lebesgue measure in closed form; see module docstring."""
        p = self.profile
        a = 1.0 / p.exponents
        big_a = float(np.sum(a))
        if self.kind == ELLIPSE:
            return unit_ball_volume(p.n) * float(np.prod(self.half_widths()))
        if self.kind == RECT:
            return 2.0 ** p.n * self.s ** (p.n / (p.n + p.sigma_min)) \
                * self.r ** big_a
        if self.kind == TILDE_RECT:
            return 2.0 ** p.n * (self.s * self.r) ** big_a
        unit = 2.0 ** p.n * math.prod(math.gamma(1.0 + ai) for ai in a) \
            / math.gamma(1.0 + big_a)
        return self.r ** big_a * unit


def theta_half_widths(profile, r):
    """r^(1/(n+sigma_i)) per axis: the diagonal of T_r and the half-widths
    of the bounding box of Theta_r (0 at r = 0)."""
    return r ** (1.0 / profile.exponents)


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
        if self.j is None:
            return theta_half_widths(p, self.r)
        d = self.r ** ((p.n + p.sigma[self.j]) / p.exponents)
        d[self.j] = self.r
        return d

    def apply(self, y, inverse=False):
        y = np.asarray(y, dtype=float)
        d = self.diagonal()
        return y / d if inverse else y * d
