import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.integrate import quad as squad

from anisonl.geometry import gauge
from anisonl.kernels import (KernelFamily, PowerLawKernel, TruncatedKernel,
                             _iso_angular_constant, near_field_bound,
                             near_moment_bound, tail_gauge_bounds)
from lemmas import kernel_bounds_verify


def test_lower_envelope_kernel_ratio_one(iso1_ell):
    k = PowerLawKernel(iso1_ell, iso1_ell.lambda_lo)
    ok, worst, _ = kernel_bounds_verify(k, iso1_ell, samples=2000, seed=1)
    assert ok
    assert worst == pytest.approx(1.0, abs=1e-12)


def test_multiplier_above_lambda_hi_fails(iso1_ell):
    k = PowerLawKernel(iso1_ell, iso1_ell.lambda_hi + 0.01)
    ok, worst, y = kernel_bounds_verify(k, iso1_ell, samples=500, seed=2)
    assert not ok and worst > 1.0
    assert np.isfinite(y).all()


def test_asymmetric_kernel_fails(iso1_ell):
    k = PowerLawKernel(iso1_ell,
                       lambda y: np.where(y[:, 0] > 0, 1.5, 1.4),
                       mult_lo=1.4, mult_hi=1.5)
    ok, _, _ = kernel_bounds_verify(k, iso1_ell, samples=2000, seed=3)
    assert not ok


def test_truncated_kernel_passes_near_origin_only(iso1_ell):
    base = PowerLawKernel(iso1_ell, 1.0)

    def k2(y):
        r = np.linalg.norm(y, axis=1)
        return 5.0 * np.exp(-((r - 3.0) ** 2) * 8.0)   # bump far from 0

    trunc = TruncatedKernel(base, k2, l1_budget=5.0)
    ok_global, worst, _ = kernel_bounds_verify(trunc, iso1_ell, samples=4000,
                                               seed=4)
    assert not ok_global and worst > 1.0
    ok_near, _, _ = kernel_bounds_verify(trunc, iso1_ell, samples=4000,
                                         seed=4, mode="near_origin",
                                         neighborhood=1.0)
    assert ok_near


def test_family_shapes(iso1_ell):
    fam = KernelFamily.extremal_pair(iso1_ell)
    assert [len(row) for row in fam.members] == [2]
    with pytest.raises(ValueError):
        KernelFamily([])
    with pytest.raises(ValueError):
        KernelFamily([[PowerLawKernel(iso1_ell, 1.0)], []])


def test_tail_bound_doubling(rng):
    from conftest import random_profile
    for _ in range(20):
        p = random_profile(rng)
        far = float(rng.uniform(0.2, 50.0))
        b1 = tail_gauge_bounds(p, far)[1]
        b2 = tail_gauge_bounds(p, 2.0 * far)[1]
        assert b2 <= 2.0 ** (-p.sigma_min) * b1 * (1.0 + 1e-12)
        assert b2 < b1


def test_tail_gauge_bracket_contains_truth_1d(iso1):
    # n=1: int_{|y|>=R} dy / |y|^2 = 2/R exactly
    for R in (0.5, 1.0, 4.0):
        lo, hi = tail_gauge_bounds(iso1, R)
        assert lo <= 2.0 / R <= hi


def test_tail_gauge_bracket_contains_truth_2d(iso2):
    # Monte Carlo the tail mass between R and a large cap, add the
    # analytic remainder, and check the bracket contains it.  Its own
    # generator: a 3-sigma check on a draw from the shared session stream
    # would change verdict whenever an earlier test draws more or less.
    rng = np.random.default_rng(20240817)
    R = 2.0
    cap = 400.0
    pts = rng.uniform(-cap, cap, size=(400_000, 2))
    r = np.linalg.norm(pts, axis=1)
    sel = (r >= R) & (r < cap)
    vals = np.zeros(len(pts))
    vals[sel] = 1.0 / gauge(iso2, pts[sel])
    est = (2 * cap) ** 2 * vals.mean()
    se = (2 * cap) ** 2 * vals.std() / np.sqrt(len(pts))
    lo, hi = tail_gauge_bounds(iso2, R)
    lo_cap, hi_cap = tail_gauge_bounds(iso2, cap)
    assert lo <= est + hi_cap + 3 * se
    assert est <= hi + 3 * se


# int over the unit sphere of dw / sum_i |w_i|^(n+sigma), rounded from
# 30-digit (n = 2) and 25-digit (n = 3) evaluations
ISO_ANGULAR_REFERENCES = [
    (2, 0.05, 6.343814456203819), (2, 0.5, 6.889641532947767),
    (2, 1.0, 7.512658152200954), (2, 1.5, 8.172597710126373),
    (2, 1.99, 8.870884763804446), (3, 0.05, 17.33947227099742),
    (3, 1.0, 22.71428188401991), (3, 1.99, 30.04485851109711),
]


def test_iso_angular_constant_1d_builds_no_nodes(monkeypatch):
    def refuse(deg):
        raise AssertionError("n = 1 needs no quadrature nodes")
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for sigma in (0.05, 1.0, 1.99):
        assert _iso_angular_constant(1, sigma) == 2.0


@pytest.mark.parametrize("n, sigma, ref", ISO_ANGULAR_REFERENCES)
def test_iso_angular_constant_matches_references(n, sigma, ref):
    assert abs(_iso_angular_constant(n, sigma) / ref - 1.0) <= 1e-14


@pytest.mark.parametrize("n, sigma, ref", ISO_ANGULAR_REFERENCES)
def test_iso_angular_constant_agrees_with_quadpack(n, sigma, ref):
    """scipy's adaptive QUADPACK in polar angles: the circle for n = 2,
    (theta, phi) with the sin(theta) factor for n = 3."""
    p = n + sigma
    if n == 2:
        oracle, _ = squad(lambda t: 1.0 / (abs(np.cos(t)) ** p
                                           + abs(np.sin(t)) ** p),
                          0.0, 2.0 * np.pi, limit=200)
    else:
        def g(phi, th):
            w = np.array([np.sin(th) * np.cos(phi),
                          np.sin(th) * np.sin(phi), np.cos(th)])
            return np.sin(th) / np.sum(np.abs(w) ** p)
        oracle, _ = dblquad(g, 0.0, np.pi, 0.0, 2.0 * np.pi)
    assert abs(_iso_angular_constant(n, sigma) / oracle - 1.0) <= 1e-11


def test_tail_gauge_mixed_orders_bracket(aniso2, rng):
    R = 2.0
    cap = 400.0
    pts = rng.uniform(-cap, cap, size=(400_000, 2))
    r = np.linalg.norm(pts, axis=1)
    sel = (r >= R) & (r < cap)
    vals = np.zeros(len(pts))
    vals[sel] = 1.0 / gauge(aniso2, pts[sel])
    est = (2 * cap) ** 2 * vals.mean()
    se = (2 * cap) ** 2 * vals.std() / np.sqrt(len(pts))
    lo, hi = tail_gauge_bounds(aniso2, R)
    lo_cap, hi_cap = tail_gauge_bounds(aniso2, cap)
    assert lo <= est + hi_cap + 3 * se
    assert est <= hi + 3 * se


def test_near_moment_bound_dominates_exact_1d(iso1):
    # 1-D sigma=1: int_{Theta_s} y^2/|y|^2 dy = 2 s (Theta_s = (-s, s))
    for s in (1e-6, 1e-3, 0.1):
        assert near_moment_bound(iso1, s) >= 2.0 * s


def test_near_moment_bound_dominates_quadrature(aniso2):
    # 2-D numeric check on a moderate inner set
    s = 0.01
    rng = np.random.default_rng(5)
    hw = s ** (1.0 / aniso2.exponents)
    pts = rng.uniform(-hw, hw, size=(200_000, 2))
    g = gauge(aniso2, pts)
    inside = g < s
    integrand = np.zeros(len(pts))
    integrand[inside] = np.sum(pts[inside] ** 2, axis=1) / g[inside]
    est = float(np.prod(2 * hw)) * integrand.mean()
    assert near_moment_bound(aniso2, s) >= est


def test_near_field_bound_scales_with_m(iso1):
    b1 = near_field_bound(iso1, 1e-4, 1.0, 1.0)
    b2 = near_field_bound(iso1, 1e-4, 3.0, 1.0)
    assert b2 == pytest.approx(3.0 * b1, rel=1e-12)


def test_bad_inputs(iso1):
    with pytest.raises(ValueError):
        tail_gauge_bounds(iso1, 0.0)
    with pytest.raises(ValueError):
        near_moment_bound(iso1, 0.0)
    with pytest.raises(ValueError):
        kernel_bounds_verify(PowerLawKernel(iso1, 1.0), iso1, samples=0)
    with pytest.raises(ValueError):
        PowerLawKernel(iso1, lambda y: y[:, 0])   # callable without bounds


def test_oneD_tail_upper_matches_quadrature(iso1):
    # upper bound vs direct quadrature of the true 1-D tail
    _, hi = tail_gauge_bounds(iso1, 3.0)
    truth, _ = squad(lambda t: 2.0 / t ** 2, 3.0, np.inf)
    assert hi >= truth
    assert hi <= 10.0 * truth
