"""Singular-integral quadrature on dyadic Theta-annuli.

The plane splits into four zones around the singularity:

    Theta_{r_inner}                  -> analytic C^{1,1} remainder bound
    Theta_{r_outer} \\ Theta_{r_inner} -> geometric Theta-shells, stratified
                                        Monte Carlo nodes per shell
    B_far \\ Theta_{r_outer}          -> one bounded stratum
    R^n \\ B_far                      -> bracketed tail (exterior-rule aware)

r_outer is the largest level with Theta_{r_outer} inside the Euclidean
ball B_far, so the strata partition B_far \\ Theta_{r_inner} exactly.
Node positions are reproducible: shell m draws from a child stream of the
scheme seed.  Symmetric integrands make sign-flips of the nodes a no-op.
The nodes depend only on (profile, scheme), so they are drawn once into a
read-only node table that every evaluation shares.  The table keeps only
the accepted nodes: a rejected draw is a zero of the integrand, so its
share of a stratum's moments has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .geometry import gauge, theta_half_widths

# node multiplier for the B_far stratum
OUTER_FACTOR = 4
# Monte Carlo confidence multiplier of the reported error
Z_SCORE = 3.0


@dataclass(frozen=True)
class QuadratureScheme:
    shells: int = 24
    nodes_per_shell: int = 2048
    far_radius: float = 16.0
    r_inner: float = 1e-6
    seed: int = 2024

    def __post_init__(self):
        if self.shells < 1 or self.nodes_per_shell < 2:
            raise ValueError("need at least one shell and two nodes per shell")
        if self.far_radius <= 0 or self.r_inner <= 0:
            raise ValueError("far_radius and r_inner must be positive")

    @staticmethod
    def from_dict(obj):
        """The scheme of a JSON object, each key cast as its default."""
        return QuadratureScheme(**{
            f.name: type(f.default)(obj[f.name])
            for f in fields(QuadratureScheme) if f.name in obj})


def outer_theta_radius(profile, far_radius):
    """Largest r with Theta_r inside the Euclidean ball B_far."""
    rn = math.sqrt(profile.n)
    ratio = far_radius / rn
    expo = profile.n + (profile.sigma_min if ratio >= 1.0 else profile.sigma_max)
    return ratio ** expo


def shell_radii(profile, quad):
    """Geometric gauge radii r_outer = rho_0 > rho_1 > ... > rho_S = r_inner."""
    r_outer = outer_theta_radius(profile, quad.far_radius)
    if quad.r_inner >= r_outer:
        raise ValueError("r_inner must be below the outer Theta radius "
                         f"({quad.r_inner} >= {r_outer})")
    t = np.linspace(0.0, 1.0, quad.shells + 1)
    return r_outer * (quad.r_inner / r_outer) ** t


def _shell_rng(quad, index):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=quad.seed, spawn_key=(index,)))


@dataclass(frozen=True, eq=False)
class Stratum:
    """One stratum of the node table; every array is read-only.

    ``pts`` and ``gauge`` hold the accepted nodes and their gauge values,
    in draw order; they were accepted among ``count`` nodes drawn
    uniform on a box of volume ``box``.
    """
    pts: np.ndarray
    gauge: np.ndarray
    box: float
    count: int


def _stratum(pts, g, mask, box):
    arrays = (pts[mask], g[mask])
    for a in arrays:
        a.flags.writeable = False
    return Stratum(*arrays, box=box, count=len(mask))


@lru_cache(maxsize=8)
def node_table(profile, quad):
    """The ``quad.shells + 1`` strata of B_far \\ Theta_{r_inner}: the Theta
    shells, outermost first, then the stratum out to the Euclidean far
    ball.  Built once per (profile, scheme) and shared by every caller."""
    n = profile.n
    radii = shell_radii(profile, quad)
    table = []
    for m in range(quad.shells):
        r_hi, r_lo = radii[m], radii[m + 1]
        hw = theta_half_widths(profile, r_hi)
        pts = _shell_rng(quad, m).uniform(-hw, hw,
                                          size=(quad.nodes_per_shell, n))
        g = gauge(profile, pts)
        table.append(_stratum(pts, g, (g < r_hi) & (g >= r_lo),
                              float(np.prod(2.0 * hw))))

    count = quad.nodes_per_shell * OUTER_FACTOR
    pts = _shell_rng(quad, quad.shells).uniform(
        -quad.far_radius, quad.far_radius, size=(count, n))
    g = gauge(profile, pts)
    mask = (g >= radii[0]) & (np.linalg.norm(pts, axis=1) < quad.far_radius)
    table.append(_stratum(pts, g, mask, (2.0 * quad.far_radius) ** n))
    return tuple(table)


def stratum_moments(stratum, vals):
    """Per-row contributions (box * mean, box^2 * var / count) of one
    stratum to the estimate and to its variance.

    ``vals`` has shape (rows, k): the integrand at the k accepted nodes,
    overwritten here.  The count - k rejected draws are zeros: they add
    nothing to a row's sum and (count - k) * mean^2 to its squared
    deviations from the mean.
    """
    count = stratum.count
    mean = np.add.reduce(vals, axis=1) / count
    vals -= mean[:, None]
    np.square(vals, out=vals)
    var = np.add.reduce(vals, axis=1)
    var += (count - vals.shape[1]) * np.square(mean)
    var /= count
    return stratum.box * mean, (stratum.box ** 2) * var / count
