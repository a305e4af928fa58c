import math

import numpy as np
import pytest

from anisonl.geometry import (AnisoSet, ScalingMap, ellipse, gauge, rect,
                              row_norm, theta, theta_half_widths, tilde_rect)
from anisonl.profile import AnisotropyProfile, isotropic
from conftest import contains, mc_measure, random_profile


def sample_members(aset, count, rng):
    """Rejection-sample points of the set from its bounding box."""
    hw = aset.half_widths()
    out = []
    while len(out) < count:
        pts = rng.uniform(-hw, hw, size=(4 * count, aset.profile.n)) \
            + np.asarray(aset.center)[None, :]
        good = pts[contains(aset, pts)]
        out.extend(good[: count - len(out)])
    return np.array(out)


def test_theta_membership_1d(iso1):
    t = theta(iso1, 1.0)
    assert contains(t, [0.9])[0]          # |0.9|^2 < 1
    assert not contains(t, [1.1])[0]


def test_inclusion_relations_sampled(rng):
    for _ in range(6):
        p = random_profile(rng)
        r = float(rng.uniform(0.05, 5.0))
        # E_{r,1/2} subset Theta_r subset E_{r, sqrt n}
        inner = sample_members(ellipse(p, r, 0.5), 2000, rng)
        assert contains(theta(p, r), inner).all()
        mid = sample_members(theta(p, r), 2000, rng)
        assert contains(ellipse(p, r, math.sqrt(p.n)), mid).all()
        # Theta_{2^-frak_c r} subset E_{r, 1/8}
        small = sample_members(theta(p, 2.0 ** -p.frak_c * r), 2000, rng)
        assert contains(ellipse(p, r, 0.125), small).all()
        # R_{r,s} subset R~_{r,s} for s in (0,1)
        boxed = sample_members(rect(p, r, 0.3), 2000, rng)
        assert contains(tilde_rect(p, r, 0.3), boxed).all()


def test_theta_measure_1d_closed_form(iso1, rng):
    # n = 1: Theta_1 is the interval (-1, 1) whatever the order
    for _ in range(5):
        assert theta(random_profile(rng, 1), 1.0).measure() == 2.0
    for r in (0.5, 1.0, 2.0):
        assert theta(iso1, r).measure() == pytest.approx(2.0 * r ** 0.5,
                                                         rel=1e-15)


def test_theta_unit_area_2d():
    # area of |y1|^3 + |y2|^3 < 1 is 4 Gamma(1/3)Gamma(4/3)/(3 Gamma(5/3))
    p = isotropic(2, 1.0)
    assert theta(p, 1.0).measure() == pytest.approx(3.5332775005709,
                                                    rel=1e-13)


def _unit_theta_by_quad(p):
    """|Theta_1| by nested adaptive quadrature of its orthant graph:
    2^n times the integral of the last axis' extent over the first axes'
    part of Theta_1."""
    from scipy.integrate import quad
    ex = p.exponents

    def extent(rest, last):
        return max(1.0 - rest, 0.0) ** (1.0 / ex[last])

    if p.n == 2:
        val, _ = quad(lambda x: extent(x ** ex[0], 1), 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        return 4.0 * val
    assert p.n == 3

    def inner(x):
        rest = x ** ex[0]
        top = (1.0 - rest) ** (1.0 / ex[1])
        val, _ = quad(lambda y: extent(rest + y ** ex[1], 2), 0.0, top,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        return val

    val, _ = quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    return 8.0 * val


@pytest.mark.parametrize("sigma, rel", [
    ((1.0, 1.0), 1e-12), ((1.0, 1.5), 1e-12), ((1.9, 1.99), 1e-12),
    ((0.1, 1.7), 1e-12), ((0.5, 1.2, 1.9), 1e-9), ((1.0, 1.0, 1.0), 1e-9)])
def test_theta_measure_matches_nested_quadrature(sigma, rel):
    p = AnisotropyProfile(len(sigma), sigma)
    assert theta(p, 1.0).measure() == pytest.approx(_unit_theta_by_quad(p),
                                                    rel=rel)


@pytest.mark.parametrize("sigma", [(1.0, 1.0), (1.0, 1.5), (0.5, 1.2, 1.9),
                                   (1.9, 1.99)])
def test_theta_measure_within_monte_carlo_error(sigma):
    p = AnisotropyProfile(len(sigma), sigma)
    est, se = mc_measure(theta(p, 1.0), 2_000_000, 1234)
    assert abs(est - theta(p, 1.0).measure()) <= 3.0 * se


def test_theta_half_widths_are_the_t_r_diagonal(aniso2):
    for r in (0.0, 1e-300, 0.37, 2.5):
        hw = theta_half_widths(aniso2, r)
        assert hw.tolist() == [r ** (1.0 / 3.0), r ** (1.0 / 3.5)]
        if r > 0:
            assert np.array_equal(hw, ScalingMap(aniso2, r).diagonal())
            assert np.array_equal(hw, theta(aniso2, r).half_widths())


def test_rect_measure_formula(rng):
    for _ in range(5):
        p = random_profile(rng)
        r, s = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 0.9))
        expected = 2.0 ** p.n * s ** (p.n / (p.n + p.sigma_min)) \
            * r ** float(np.sum(1.0 / p.exponents))
        assert rect(p, r, s).measure() == pytest.approx(expected, rel=1e-12)
        assert tilde_rect(p, r, s).measure() == pytest.approx(
            2.0 ** p.n * (s * r) ** float(np.sum(1.0 / p.exponents)),
            rel=1e-12)


def test_theta_scaling_law_within_mc_error(iso2):
    v1 = theta(iso2, 1.0).measure()
    ssum = float(np.sum(1.0 / iso2.exponents))
    for r in (0.1, 1.0, 10.0):
        direct, se = mc_measure(theta(iso2, r), 400_000, 7)
        assert abs(direct - r ** ssum * v1) <= 3.0 * se


def test_measure_errors(iso1):
    with pytest.raises(ValueError):
        AnisoSet("Blob", iso1, (0.0,), 1.0)
    with pytest.raises(ValueError):
        theta(iso1, -1.0)


def test_scaling_identity_and_roundtrip(aniso2, rng):
    t1 = ScalingMap(aniso2, 1.0)
    y = rng.normal(size=(50, 2))
    assert np.allclose(t1.apply(y), y)
    tr = ScalingMap(aniso2, 0.37)
    back = tr.apply(tr.apply(y, inverse=False), inverse=True)
    assert np.allclose(back, y, atol=1e-15)


def test_directional_scaling_determinant(aniso2):
    for j in (0, 1):
        for r in (0.2, 1.7):
            m = ScalingMap(aniso2, r, j=j)
            expected = r * np.prod([
                r ** ((aniso2.n + aniso2.sigma[j]) / (aniso2.n + aniso2.sigma[i]))
                for i in range(aniso2.n) if i != j])
            det = np.prod(m.diagonal())
            assert det == pytest.approx(float(expected), rel=1e-12)
            assert np.all(m.diagonal() > 0)


def test_scaling_maps_annulus_to_ball(aniso2, rng):
    # T_r^{-1}(E_{r,R} \ E_{r,1}) = B_R \ B_1 on sampled points
    r, big_r = 0.42, 3.0
    m = ScalingMap(aniso2, r)
    outer = sample_members(ellipse(aniso2, r, big_r), 3000, rng)
    inner_mask = contains(ellipse(aniso2, r, 1.0), outer)
    shell = outer[~inner_mask]
    w = m.apply(shell, inverse=True)
    radii = np.linalg.norm(w, axis=1)
    assert np.all(radii < big_r) and np.all(radii >= 1.0)


def test_gauge_matches_membership(aniso2, rng):
    pts = rng.normal(size=(500, 2))
    g = gauge(aniso2, pts)
    t = theta(aniso2, 1.3)
    assert np.array_equal(contains(t, pts), g < 1.3)


def test_gauge_closed_form(aniso2):
    # exponents n + sigma_i = (3, 3.5)
    pts = [(2.0, -3.0), (0.0, 0.0), (-1.0, 0.5), (0.0, -2.0)]
    expected = [8.0 + 3.0 ** 3.5, 0.0, 1.0 + 0.5 ** 3.5, 2.0 ** 3.5]
    assert gauge(aniso2, pts).tolist() == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_row_norm_matches_linalg_norm_bitwise(rng, n):
    pts = rng.normal(size=(5000, n)) * rng.uniform(1e-3, 1e3, size=(5000, 1))
    pts[0] = 0.0
    assert np.array_equal(row_norm(pts), np.linalg.norm(pts, axis=1))
    # non-contiguous rows, as sliced callers pass them
    assert np.array_equal(row_norm(pts[::3]),
                          np.linalg.norm(pts[::3], axis=1))
