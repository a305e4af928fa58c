from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad as squad

from anisonl import barriers
from anisonl.barriers import (BarrierSearchError, PsiBarrier, RadialBarrier,
                              annulus_points, find_p, verify_supersolution)
from anisonl.fields import AnalyticField, second_difference
from anisonl.geometry import ScalingMap, ellipse, rect
from anisonl.operators import eval_extremal_many
from anisonl.profile import AnisotropyProfile, isotropic
from anisonl.quadrature import QuadratureScheme
from conftest import contains
from lemmas import (delta_lower_bound, elementary_inequality_bernoulli,
                    elementary_inequality_convexity)


def draw_inequality_samples(rng, count):
    a2 = rng.uniform(0.2, 5.0, size=count)
    a1 = a2 * rng.uniform(0.01, 0.99, size=count)
    s = rng.uniform(0.05, 8.0, size=count)
    return a1, a2, s


def test_elementary_inequalities_random(rng):
    a1, a2, s = draw_inequality_samples(rng, 10_000)
    assert np.all(elementary_inequality_convexity(a1, a2, s) >= 0.0)
    assert np.all(elementary_inequality_bernoulli(a1, a2, s) >= 0.0)


def test_delta_lower_bound_spot_check(rng):
    # the proof's pointwise bound under the two elementary inequalities
    p = 6.0
    f = RadialBarrier(p, 2.0 ** p)
    e1 = np.zeros(2)
    e1[0] = 1.0
    y = rng.uniform(-0.45, 0.45, size=(4000, 2))
    y = y[np.linalg.norm(y, axis=1) < 0.45]
    d = second_difference(f, e1, y)
    assert np.all(d >= delta_lower_bound(p, y) - 1e-10)


def test_radial_symmetry_exact(rng):
    f = RadialBarrier(4.0, 16.0)
    base = rng.normal(size=3)
    # sign-flip orbit: bitwise-identical norms, so values agree exactly
    orbit = np.array([base * s for s in
                      [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
                       (-1, -1, 1), (-1, -1, -1)]])
    vals = f.eval(orbit)
    assert np.all(vals == vals[0])
    # equal-radius points in arbitrary directions agree to rounding
    d = rng.normal(size=(50, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    vals2 = f.eval(1.3 * d)
    assert np.allclose(vals2, vals2[0], rtol=1e-12)


def test_cap_activation():
    p = 5.0
    f = RadialBarrier(p, 2.0 ** p)
    assert f.eval(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
    kink = f.cap ** (-1.0 / f.p)      # where |x|^-p meets the cap
    assert kink == pytest.approx(0.5)
    assert f.eval(np.array([[0.4, 0.0]]))[0] == 2.0 ** p
    assert f.eval(np.array([[0.6, 0.0]]))[0] == pytest.approx(0.6 ** -p)


def test_find_p_margin_monotone(iso1_ell):
    quad = QuadratureScheme(shells=16, nodes_per_shell=800, far_radius=48.0,
                            r_inner=1e-8, seed=9)
    pts = annulus_points(1, 1.0, 6.0, 24, seed=3)
    margins = {}
    for p in (2, 6):
        values, _ = eval_extremal_many(RadialBarrier(p, 2.0 ** p), pts,
                                       iso1_ell, quad, "minus")
        margins[p] = min(values)
    assert margins[6] >= margins[2]


def test_find_p_returns_smallest_certified(iso1_ell):
    quad = QuadratureScheme(shells=16, nodes_per_shell=800, far_radius=48.0,
                            r_inner=1e-8, seed=9)
    res = find_p(iso1_ell, 6.0, quad, n_points=40, seed=5)
    assert 1 <= res["p"] <= 64
    assert res["min_margin"] >= -res["quadrature_error"]


def brute_force_p(profile, R, quad, n_points, seed, p_max, screen_points):
    """find_p's answer by exhaustion, one ``eval_extremal_many`` row at a
    time: the smallest p whose screen clears, advanced while the full
    sample fails.  Returns p (None when no p <= p_max certifies) and the worst
    (margin, error, point) at p, or at p_max when none does."""
    pts = annulus_points(profile.n, 1.0, R, n_points, seed)

    def margins(p, rows):
        """(margin, error) at each row, one evaluation per row."""
        f = RadialBarrier(p, 2.0 ** p)
        out = []
        for x in rows:
            (value,), (error,) = eval_extremal_many(f, [x], profile, quad,
                                                    "minus")
            out.append((value, error))
        return out

    def clears(ms):
        return all(value >= -error for value, error in ms)

    def worst(ms):
        i = int(np.argmin([value for value, _ in ms]))
        return ms[i] + (pts[i],)

    p = 1
    while p <= p_max and not clears(margins(p, pts[:screen_points])):
        p += 1
    while p <= p_max:
        full = margins(p, pts)
        if clears(full):
            return p, worst(full)
        p += 1
    return None, worst(margins(p_max, pts))


SEARCH_QUAD = QuadratureScheme(shells=10, nodes_per_shell=300,
                               far_radius=16.0, r_inner=1e-8, seed=3)


@pytest.mark.parametrize("sigma, screen_points, want_p", [
    ((1.0, 1.5), 24, 1),
    ((0.8, 0.8), 24, 3),
    # a one-point screen clears at p = 2, the full sample only at p = 3
    ((0.8, 0.8), 1, 3),
])
def test_find_p_matches_brute_force(monkeypatch, sigma, screen_points,
                                    want_p):
    monkeypatch.setattr(barriers, "SCREEN_POINTS", screen_points)
    prof = AnisotropyProfile(2, sigma, 1.0, 2.0)
    res = find_p(prof, 4.0, SEARCH_QUAD, n_points=30, seed=5)
    p, (margin, error, point) = brute_force_p(prof, 4.0, SEARCH_QUAD, 30, 5,
                                              64, screen_points)
    assert res["p"] == p == want_p
    assert res["min_margin"] == margin
    assert res["quadrature_error"] == error
    assert np.array_equal(res["worst_point"], point)


def test_find_p_search_error_matches_brute_force(monkeypatch):
    monkeypatch.setattr(barriers, "P_MAX", 2)
    prof = isotropic(2, 0.8, 1.0, 2.0)
    p, (margin, _, point) = brute_force_p(prof, 4.0, SEARCH_QUAD, 30, 5, 2,
                                          24)
    assert p is None
    with pytest.raises(BarrierSearchError) as err:
        find_p(prof, 4.0, SEARCH_QUAD, n_points=30, seed=5)
    assert err.value.worst_margin == margin
    assert np.array_equal(err.value.worst_point, point)


@pytest.mark.parametrize("sigma, want_p, want_rows", [
    # the 24-point screen passes at p = 1; certifying p = 1 adds the rest
    ((1.0, 1.5), 1, [24, 6]),
    # screens at p = 1, 2 (fail), 4 (pass), then 3 (pass); certify p = 3
    ((0.8, 0.8), 3, [24, 24, 24, 24, 6]),
])
def test_find_p_reuses_screened_rows(monkeypatch, sigma, want_p, want_rows):
    rows = []
    batched = barriers.eval_extremal_many

    def counted(u, X, *args, **kwargs):
        rows.append(len(X))
        return batched(u, X, *args, **kwargs)

    monkeypatch.setattr(barriers, "eval_extremal_many", counted)
    prof = AnisotropyProfile(2, sigma, 1.0, 2.0)
    res = find_p(prof, 4.0, SEARCH_QUAD, n_points=30, seed=5)
    assert res["p"] == want_p
    assert rows == want_rows


def test_find_p_refuses_low_sigma():
    prof = isotropic(1, 0.4, 1.0, 2.0)
    with pytest.raises(ValueError):
        find_p(prof, 4.0, SEARCH_QUAD, n_points=200, seed=11)
    with pytest.raises(ValueError):
        find_p(isotropic(1, 1.0), 0.5, SEARCH_QUAD, n_points=200, seed=11)


def test_sign_of_m_minus_matches_dense_reference(iso1):
    # n=1 isotropic lambda=Lambda: M^- f(x) = c_sigma int delta(f,x,y)/y^2
    p = 4.0
    f = RadialBarrier(p, 2.0 ** p)
    x0 = 1.5

    def fx(t):
        return min(2.0 ** p, abs(t) ** -p)

    ref, _ = squad(lambda y: (fx(x0 + y) + fx(x0 - y) - 2 * fx(x0)) / y ** 2,
                   1e-12, 200.0, limit=800, points=[0.5, 1.5, 2.0, 3.5])
    ref *= iso1.c_sigma * 2.0
    quad = QuadratureScheme(shells=24, nodes_per_shell=3000, far_radius=64.0,
                            r_inner=1e-9, seed=11)
    (got,), _ = eval_extremal_many(f, [[x0]], iso1, quad, "minus")
    assert np.sign(got) == np.sign(ref) == 1.0
    assert got == pytest.approx(ref, rel=0.05)


def scaled_barrier(f, smap):
    """g = f o T_r^-1 for a radial barrier f, bounded by f's cap.  A point
    at least R from the origin keeps a norm of at least R / max_i t_i
    under T_r^-1, which bounds g there."""
    top = float(np.max(smap.diagonal()))
    return AnalyticField(lambda pts: f.eval(smap.apply(pts, inverse=True)),
                         sup_bound=f.cap, range_outside=lambda R: (
                             0.0, min(f.cap, (R / top) ** -f.p)))


def test_build_barrier_variants(iso1_ell):
    f2 = RadialBarrier(4.0, 2.0 ** 4.0)
    assert f2.cap == 16.0
    fs = RadialBarrier(4.0, 0.25 ** -4.0)
    assert fs.cap == pytest.approx(0.25 ** -4.0)
    g1 = scaled_barrier(fs, ScalingMap(iso1_ell, 1.0))
    pts = np.random.default_rng(0).normal(size=(40, 1)) * 2.0
    assert np.allclose(g1.eval(pts), fs.eval(pts))    # r = 1 collapses to f
    with pytest.raises(ValueError):
        RadialBarrier(4.0, 0.0)
    with pytest.raises(ValueError):
        RadialBarrier(-4.0, 16.0)


def test_scaling_identity_for_m_minus(iso2):
    # M^- g(x) = r^{-1} |det T_r| M^- f(T_r^{-1} x), both sides by
    # independent quadratures
    p, s, r = 3.0, 0.5, 0.3
    f = RadialBarrier(p, s ** -p)
    smap = ScalingMap(iso2, r)
    g = scaled_barrier(f, smap)
    factor = np.prod(smap.diagonal()) / r
    quad_g = QuadratureScheme(shells=22, nodes_per_shell=4000,
                              far_radius=24.0, r_inner=1e-9, seed=21)
    quad_f = QuadratureScheme(shells=22, nodes_per_shell=4000,
                              far_radius=24.0, r_inner=1e-9, seed=87)
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 12:
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        w = d * rng.uniform(1.3, 2.5)      # straightened annulus point
        x = smap.apply(w)
        (lhs,), (lhs_err,) = eval_extremal_many(g, [x], iso2, quad_g,
                                                "minus")
        (rhs,), (rhs_err,) = eval_extremal_many(f, [w], iso2, quad_f,
                                                "minus")
        scale = max(abs(rhs), 1e-12)
        tol = 0.02 + (lhs_err / factor + rhs_err) / scale
        assert abs(lhs / factor - rhs) <= tol * scale
        checked += 1


def test_psi_invariants(iso2):
    psi = PsiBarrier(iso2, 6.0)
    rng = np.random.default_rng(3)
    sup_set = ellipse(iso2, 0.25, psi._outer)
    hw = sup_set.half_widths()
    pts = rng.uniform(-3 * hw, 3 * hw, size=(5000, 2))
    outside = ~contains(sup_set, pts)
    assert np.all(psi.eval(pts[outside]) == 0.0)
    floor = rect(iso2, 0.25, 3.0)
    fh = floor.half_widths()
    inner = rng.uniform(-fh, fh, size=(5000, 2))
    assert np.min(psi.eval(inner)) > 3.0
    assert psi.eval(np.zeros((1, 2)))[0] > 3.0
    # continuity across the inner gluing ellipse, axis by axis
    t = psi.t
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        for h in (1e-4, 1e-5):
            left = psi.eval((t[i] - h) * e[None, :])[0]
            right = psi.eval((t[i] + h) * e[None, :])[0]
            assert abs(left - right) < 20.0 * psi.tilde_c * h


def masked_psi(psi, pts):
    """The bump barrier by boolean masks: each piece only where it
    applies, zero elsewhere."""
    w = pts / psi.t[None, :]
    r = np.linalg.norm(w, axis=1)
    out = np.zeros(len(pts))
    mid = (r >= 1.0) & (r < psi._outer)
    out[mid] = r[mid] ** -psi.p - psi._outer ** -psi.p
    core = r < 1.0
    out[core] = psi._c - 0.5 * psi.p * r[core] ** 2
    return psi.tilde_c * out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 3.0, 5.5])
def test_barrier_fields_bitwise_equal_masked_formulas(rng, n, p):
    prof = AnisotropyProfile(n, (1.0, 1.5, 1.2)[:n], 1.0, 2.0)
    psi = PsiBarrier(prof, p)
    # all three pieces, the origin, the glue sphere and the support edge
    dirs = rng.normal(size=(3, n))
    edges = [psi.t * d / np.linalg.norm(d) * rad
             for d in dirs for rad in (1.0, psi._outer)]
    pts = np.vstack([rng.uniform(-3.0, 3.0, size=(4000, n))
                     * rng.uniform(0.0, 1.0, size=(4000, 1)),
                     np.zeros((1, n)), edges])
    pts = np.asfortranarray(pts)
    assert np.array_equal(psi.eval(pts), masked_psi(psi, pts))
    radial = RadialBarrier(p, 2.0 ** p)
    with np.errstate(divide="ignore"):
        want = np.minimum(2.0 ** p, np.linalg.norm(pts, axis=1) ** -p)
    assert np.array_equal(radial.eval(pts), want)


def test_psi_gluing_first_derivative(iso2):
    psi = PsiBarrier(iso2, 6.0)
    t = psi.t
    e1 = np.array([1.0, 0.0])
    for h in (1e-3, 1e-4):
        inner_slope = (psi.eval(t[0] * e1[None, :])
                       - psi.eval((t[0] - h) * e1[None, :]))[0] / h
        outer_slope = (psi.eval((t[0] + h) * e1[None, :])
                       - psi.eval(t[0] * e1[None, :]))[0] / h
        assert abs(inner_slope - outer_slope) <= 60.0 * psi.tilde_c * h


@pytest.mark.parametrize("sigma", [(1.3,), (1.0, 1.5), (0.7, 1.5, 1.9)])
@pytest.mark.parametrize("p", [1.0, 2.5, 6.0, 64.0])
def test_psi_closed_form_matches_gluing_solve(sigma, p):
    """The cap sum a_i x_i^2 + c against the per-axis 2x2 system that
    matches value and slope of |x/t|^-p - (3 sqrt n)^-p at x = t_i e_i:
    the a_i bit for bit, c within one ulp of each axis's solve and of
    the exact sum."""
    prof = AnisotropyProfile(len(sigma), sigma, 1.0, 2.0)
    psi = PsiBarrier(prof, p)
    *a, c = psi.quad_coeffs
    outer_val = psi._outer ** -p
    glue = 1.0 - outer_val          # the annulus piece on |w| = 1
    exact = 1 - Fraction(outer_val) + Fraction(p) / 2
    assert abs(Fraction(c) - exact) <= Fraction(np.spacing(c))
    for ai, ti in zip(a, psi.t):
        sol = np.linalg.solve([[ti ** 2, 1.0], [2.0 * ti, 0.0]],
                              [glue, -p / ti])
        assert ai == sol[0]
        assert abs(c - sol[1]) <= np.spacing(c)
        # value and slope continuity on the axis
        assert ai * ti ** 2 + c == pytest.approx(glue, rel=1e-14)
        assert 2.0 * ai * ti == pytest.approx(-p / ti, rel=1e-14)


def test_psi_quadratic_matches_straightened_form(aniso2):
    psi = PsiBarrier(aniso2, 5.0)
    rng = np.random.default_rng(4)
    w = rng.normal(size=(200, 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w *= rng.uniform(0.0, 0.99, size=(200, 1))
    x = w * psi.t[None, :]
    a = psi.quad_coeffs[:2]
    c = psi.quad_coeffs[2]
    direct = psi.tilde_c * (x ** 2 @ a + c)
    assert np.allclose(psi.eval(x), direct, rtol=1e-12, atol=1e-12)


def test_verify_supersolution_constant_barrier(iso1, quad_fast):
    const = AnalyticField(lambda p: np.full(p.shape[0], 2.0), sup_bound=2.0,
                          range_outside=lambda R: (2.0, 2.0))
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    rep = verify_supersolution(const, pts, iso1, quad_fast)
    assert rep["passed"]
    assert rep["min_margin"] == pytest.approx(0.0, abs=1e-12)


def test_verify_supersolution_psi_outside_inner_ellipse(iso2):
    psi = PsiBarrier(iso2, 6.0)
    quad = QuadratureScheme(shells=18, nodes_per_shell=1200, far_radius=16.0,
                            r_inner=1e-8, seed=31)
    rng = np.random.default_rng(6)
    d = rng.normal(size=(12, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    w = d * rng.uniform(1.1, 2.5, size=(12, 1))
    pts = w * psi.t[None, :]
    rep = verify_supersolution(psi, pts, iso2, quad)
    assert rep["passed"]
    values, errors = eval_extremal_many(psi, pts, iso2, quad, "minus")
    assert rep["certified"] == sum(values - errors >= 0)


def test_certificate_counts_strict_rule_beside_verdict():
    """PASS reads margin >= -error at every point; ``certified`` counts
    the points with margin - error >= 0, a verdict it does not change."""
    pts = np.arange(8.0).reshape(4, 2)
    margins = np.array([[1.0, 0.5], [0.2, 0.5], [-0.1, 0.5], [0.5, 0.5]])
    cert = barriers._certificate(pts, *margins.T)
    assert cert["passed"] and cert["certified"] == 2
    assert (cert["min_margin"], cert["quadrature_error"]) == (-0.1, 0.5)
    assert np.array_equal(cert["worst_point"], pts[2])
    assert cert["n_points"] == 4
    margins[:, 1] = 0.05
    cert = barriers._certificate(pts, *margins.T)
    assert not cert["passed"] and cert["certified"] == 3


def test_verify_supersolution_adversarial_bump(iso2):
    psi = PsiBarrier(iso2, 6.0)
    spike_center = psi.t * np.array([1.8, 0.0])

    def spiked(p):
        base = psi.eval(p)
        d2 = np.sum((p - spike_center[None, :]) ** 2, axis=1)
        return base + 40.0 * psi.tilde_c * np.maximum(0.0, 0.02 - d2)

    bad = AnalyticField(spiked, sup_bound=50.0 * psi.tilde_c,
                        range_outside=lambda R: (0.0, 0.0) if R >
                        3.0 * np.sqrt(2) * float(np.max(psi.t)) + 1.0
                        else (0.0, 50.0 * psi.tilde_c))
    quad = QuadratureScheme(shells=18, nodes_per_shell=1200, far_radius=16.0,
                            r_inner=1e-8, seed=32)
    rng = np.random.default_rng(7)
    d = rng.normal(size=(10, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    w = d * rng.uniform(1.1, 2.5, size=(10, 1))
    pts = np.vstack([w * psi.t[None, :], spike_center[None, :]])
    rep = verify_supersolution(bad, pts, iso2, quad)
    assert not rep["passed"]
    assert np.allclose(rep["worst_point"], spike_center)
