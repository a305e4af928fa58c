import math
from dataclasses import replace

import numpy as np
import pytest

from anisonl.fields import AnalyticField
from anisonl.geometry import ELLIPSE, THETA, gauge
from anisonl.profile import AnisotropyProfile, isotropic
from anisonl.quadrature import QuadratureScheme


@pytest.fixture(scope="session")
def iso1():
    """n=1, sigma=1, lambda=Lambda=1: c_sigma = 1/2."""
    return isotropic(1, 1.0)


@pytest.fixture(scope="session")
def iso1_ell():
    return isotropic(1, 1.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def iso2():
    return isotropic(2, 1.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def aniso2():
    return AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)


@pytest.fixture(scope="session")
def quad_fast():
    return QuadratureScheme(shells=16, nodes_per_shell=800, far_radius=16.0,
                            r_inner=1e-8, seed=42)


@pytest.fixture(scope="session")
def quad_tight():
    return QuadratureScheme(shells=28, nodes_per_shell=4000, far_radius=64.0,
                            r_inner=1e-9, seed=42)


def refined(quad):
    """A finer scheme: twice the shells and nodes, squared inner cut."""
    return replace(quad, shells=quad.shells * 2,
                   r_inner=quad.r_inner ** 2
                   if quad.r_inner < 1 else quad.r_inner,
                   nodes_per_shell=quad.nodes_per_shell * 2)


def random_profile(rng, n=None):
    n = n or int(rng.integers(1, 4))
    sigma = tuple(rng.uniform(0.1, 1.99, size=n))
    lam = rng.uniform(0.5, 2.0)
    return AnisotropyProfile(n, sigma, lam, lam * rng.uniform(1.0, 3.0))


def bump_field(amp, centre, width):
    """u(p) = sum_k amp_k exp(-|p - centre_k|^2 / width_k^2), bounded by
    sum |amp_k|.  Its range outside B_R takes each bump at its largest
    value there, at distance max(R - |centre_k|, 0) from its centre, so
    it holds exactly; negating ``amp`` negates every value and swaps the
    range, bit for bit."""
    amp, centre, width = (np.asarray(a, dtype=float)
                          for a in (amp, centre, width))
    dist = np.linalg.norm(centre, axis=1)

    def fn(p):
        d2 = np.sum((p[:, None, :] - centre[None, :, :]) ** 2, axis=2)
        return np.sum(amp * np.exp(-d2 / width ** 2), axis=1)

    def range_outside(r):
        far = amp * np.exp(-np.maximum(r - dist, 0.0) ** 2 / width ** 2)
        return (float(np.sum(np.minimum(far, 0.0))),
                float(np.sum(np.maximum(far, 0.0))))

    return AnalyticField(fn, float(np.sum(np.abs(amp))), range_outside)


def random_bumps(rng, n=1, count=8):
    """(amp, centre, width) of ``count`` random bumps in [-2, 2]^n, rough
    on the scale of a 33-point lattice of [-2, 2]."""
    return (rng.normal(size=count), rng.uniform(-2.0, 2.0, size=(count, n)),
            rng.uniform(0.15, 0.5, size=count))


def contains(aset, y):
    """Membership of the rows of ``y`` in ``aset`` by its defining strict
    inequality (the table in ``anisonl.geometry``)."""
    p = aset.profile
    d = np.atleast_2d(np.asarray(y, dtype=float)) - np.asarray(aset.center)
    if aset.kind == THETA:
        return gauge(p, d) < aset.r
    if aset.kind == ELLIPSE:
        scale = aset.r ** (1.0 / p.exponents)
        return np.sum((d / scale) ** 2, axis=1) < aset.s ** 2
    return np.all(np.abs(d) < aset.half_widths(), axis=1)


def mc_measure(aset, samples, seed):
    """|aset| and its standard error by Monte Carlo: the hit fraction of
    ``samples`` uniform points of the bounding box, drawn from ``seed``."""
    hw = aset.half_widths()
    pts = np.random.default_rng(seed).uniform(-hw, hw,
                                              size=(samples, aset.profile.n))
    frac = np.count_nonzero(contains(aset, pts + np.asarray(aset.center))) \
        / samples
    box = float(np.prod(2.0 * hw))
    return box * frac, box * math.sqrt(frac * (1.0 - frac) / samples)


@pytest.fixture
def rng():
    """A fresh generator per test, so no test's draw depends on which
    tests ran before it."""
    return np.random.default_rng(20240817)
