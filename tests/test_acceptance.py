"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
every criterion also asserts, so a plain pytest run enforces the gate.
"""

import math
import time

import numpy as np
import pytest

from anisonl.fields import (AffineExterior, CallableExterior, ConstantExterior,
                            GridField)
from anisonl.geometry import ellipse, rect, theta, tilde_rect
from anisonl.kernels import KernelFamily, PowerLawKernel, TruncatedKernel
from anisonl.operators import eval_extremal_many, eval_linear
from anisonl.profile import AnisotropyProfile, isotropic
from anisonl.quadrature import QuadratureScheme
from conftest import contains, mc_measure, random_profile, refined


def _report(num, name, ok, budget, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {verdict} {name} "
          f"({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 1. constants
# -------------------------------------------------------------------------

def test_acceptance_1_constants():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        p = random_profile(rng)
        ok &= all(q > 0 for q in p.q)
        ok &= abs(p.c_sigma - min(p.q)) <= 1e-15
    for n in (1, 2):
        for sig in np.linspace(0.1, 1.99, 60):
            p = isotropic(n, float(sig))
            ok &= abs(p.c_sigma - (2.0 - sig) / (n + sig)) <= 1e-12
            x = p.frak_c * (n + p.sigma_min) * p.c_sigma
            val = p.c_sigma / (1.0 - 2.0 ** -x)
            ok &= 1e-6 < val < 1e6
    _report(1, "constants suite", ok, 1.0, time.time() - t0)


# -------------------------------------------------------------------------
# 2. geometry
# -------------------------------------------------------------------------

def _sample_members(aset, count, rng):
    hw = aset.half_widths()
    out = []
    while len(out) < count:
        pts = rng.uniform(-hw, hw, size=(2 * count, aset.profile.n))
        good = pts[contains(aset, pts)]
        out.extend(good[: count - len(out)])
    return np.array(out)


def test_acceptance_2_geometry():
    t0 = time.time()
    rng = np.random.default_rng(202)
    violations = 0
    n_samples = 10_000
    for p, r in ((isotropic(1, 1.2, 1.0, 2.0), 0.8),
                 (isotropic(2, 1.0, 1.0, 2.0), 1.0),
                 (AnisotropyProfile(2, (0.9, 1.6), 1.0, 2.0), 2.5)):
        inner = _sample_members(ellipse(p, r, 0.5), n_samples, rng)
        violations += int(np.count_nonzero(~contains(theta(p, r), inner)))
        mid = _sample_members(theta(p, r), n_samples, rng)
        violations += int(np.count_nonzero(
            ~contains(ellipse(p, r, math.sqrt(p.n)), mid)))
        small = _sample_members(theta(p, 2.0 ** -p.frak_c * r),
                                n_samples, rng)
        violations += int(np.count_nonzero(
            ~contains(ellipse(p, r, 0.125), small)))
        boxed = _sample_members(rect(p, r, 0.3), n_samples, rng)
        violations += int(np.count_nonzero(
            ~contains(tilde_rect(p, r, 0.3), boxed)))

    p2 = isotropic(2, 1.0, 1.0, 2.0)
    v1 = theta(p2, 1.0).measure()
    ssum = float(np.sum(1.0 / p2.exponents))
    scaling_ok = True
    for r in (0.1, 1.0, 10.0):
        direct, se = mc_measure(theta(p2, r), 400_000, 9)
        scaling_ok &= abs(direct - r ** ssum * v1) <= 3.0 * se
    ok = violations == 0 and scaling_ok
    _report(2, "geometry suite", ok, 30.0, time.time() - t0,
            f"violations={violations}")


# -------------------------------------------------------------------------
# 3. operators
# -------------------------------------------------------------------------

def test_acceptance_3_operators():
    t0 = time.time()
    prof = isotropic(1, 1.0, 1.0, 2.0)
    quad = QuadratureScheme(shells=16, nodes_per_shell=700, far_radius=16.0,
                            r_inner=1e-8, seed=303)
    ok = True

    u_aff = GridField.from_function(lambda p: 0.5 - 1.5 * p[:, 0],
                                    [-2.0], [2.0], (65,),
                                    AffineExterior(0.5, (-1.5,)))
    for which in ("plus", "minus"):
        ov = eval_extremal_many(u_aff, [[0.2]], prof, quad, which)[0]
        ok &= abs(ov.value) <= max(ov.error, 1e-9)

    rng = np.random.default_rng(303)
    duality_ok = True
    ordering_ok = True
    for trial in range(100):
        vals = rng.normal(size=33)
        u = GridField([-2.0], [2.0], vals, ConstantExterior(0.0))
        w = GridField([-2.0], [2.0], -vals, ConstantExterior(0.0))
        x = [float(rng.uniform(-1.5, 1.5))]
        a = eval_extremal_many(w, [x], prof, quad, "plus")[0]
        b = eval_extremal_many(u, [x], prof, quad, "minus")[0]
        duality_ok &= (a.value == -b.value)
        mult = float(rng.uniform(prof.lambda_lo, prof.lambda_hi))
        lv = eval_linear(u, x, PowerLawKernel(prof, mult), quad)
        mm = eval_extremal_many(u, [x], prof, quad, "minus")[0]
        mp = eval_extremal_many(u, [x], prof, quad, "plus")[0]
        ordering_ok &= (mm.value <= lv.value + mm.error + lv.error)
        ordering_ok &= (lv.value <= mp.value + mp.error + lv.error)

    from anisonl.fields import AnalyticField
    ug = AnalyticField(lambda p: np.exp(-np.sum(p ** 2, axis=1)),
                       sup_bound=1.0,
                       range_outside=lambda R: (0.0, float(np.exp(-R * R))))
    coarse = eval_extremal_many(ug, [[0.0]], prof, quad, "plus")[0]
    fine = eval_extremal_many(ug, [[0.0]], prof, refined(quad), "plus")[0]
    refine_ok = abs(fine.value - coarse.value) <= coarse.error

    ok &= duality_ok and ordering_ok and refine_ok
    _report(3, "operator suite", ok, 300.0, time.time() - t0,
            f"duality={duality_ok} ordering={ordering_ok} "
            f"refinement={refine_ok}")


# -------------------------------------------------------------------------
# 4. barriers
# -------------------------------------------------------------------------

def test_acceptance_4_barriers(monkeypatch):
    from anisonl import barriers
    from anisonl.barriers import PsiBarrier, find_p, verify_supersolution
    from lemmas import (elementary_inequality_bernoulli,
                        elementary_inequality_convexity)
    monkeypatch.setattr(barriers, "SCREEN_POINTS", 16)
    t0 = time.time()
    ok = True
    details = []
    for n in (1, 2):
        big_r = 8.0 * math.sqrt(n)
        for sig in (0.8, 1.0, 1.5, 1.9):
            prof = isotropic(n, sig, 1.0, 2.0)
            quad = QuadratureScheme(shells=14, nodes_per_shell=500,
                                    far_radius=8.0 * big_r, r_inner=1e-8,
                                    seed=404)
            res = find_p(prof, big_r, quad, n_points=200, seed=7)
            good = res["min_margin"] >= -res["quadrature_error"]
            ok &= good
            details.append(f"n={n} s={sig}: p={res['p']}")

    prof2 = isotropic(2, 1.0, 1.0, 2.0)
    psi = PsiBarrier(prof2, 6.0)
    quadp = QuadratureScheme(shells=14, nodes_per_shell=600, far_radius=16.0,
                             r_inner=1e-8, seed=405)
    rng = np.random.default_rng(404)
    d = rng.normal(size=(200, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    w = d * rng.uniform(1.05, 2.8, size=(200, 1))
    pts = w * psi.t[None, :]
    rep = verify_supersolution(psi, pts, prof2, quadp)
    ok &= rep["passed"]

    a2 = rng.uniform(0.2, 5.0, size=10_000)
    a1 = a2 * rng.uniform(0.01, 0.99, size=10_000)
    s = rng.uniform(0.05, 8.0, size=10_000)
    ineq_ok = bool(np.all(elementary_inequality_convexity(a1, a2, s) >= 0.0)
                   and np.all(elementary_inequality_bernoulli(a1, a2, s)
                              >= 0.0))
    ok &= ineq_ok
    _report(4, "barrier certification", ok, 600.0, time.time() - t0,
            "; ".join(details) + f"; psi_margin={rep['min_margin']:.3g}")


# -------------------------------------------------------------------------
# 5. ABP
# -------------------------------------------------------------------------

def test_acceptance_5_abp():
    from anisonl.abp import abp_cover, verify_cover
    from anisonl.envelope import ConcaveEnvelope2D, concave_envelope
    t0 = time.time()
    prof = AnisotropyProfile(2, (1.0, 1.0), 1.0, 2.0, rho0=0.05, frak_c=2)
    prof_mixed = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0, rho0=0.05,
                                  frak_c=2)

    def f_const(v):
        return GridField.from_function(lambda p: np.full(p.shape[0], v),
                                       [-2.0] * 2, [2.0] * 2, (9, 9), v)

    def poly_cap(p):
        planes = [1.0 - 2.0 * p[:, 0] - 0.5 * p[:, 1], 1.0 + 1.8 * p[:, 0],
                  1.0 - 1.3 * p[:, 1], 1.0 + 1.6 * p[:, 1] + 0.3 * p[:, 0]]
        return np.minimum.reduce(planes) - 0.55

    def flat_top(p):
        r = np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1]))
        return np.minimum(0.3, 3.0 * (0.5 - r))

    instances = [
        (GridField.from_function(poly_cap, [-2.0] * 2, [2.0] * 2,
                                 (129, 129), -0.55), prof),
        (GridField.from_function(flat_top, [-2.0] * 2, [2.0] * 2,
                                 (129, 129), -4.5), prof),
        (GridField.from_function(poly_cap, [-2.0] * 2, [2.0] * 2,
                                 (129, 129), -0.55), prof_mixed),
    ]
    ok = True
    details = []
    for i, (u, pp) in enumerate(instances):
        cover = abp_cover(u, f_const(8.0), pp, concave_envelope(u),
                          mc_samples=500, seed=i)
        rep = verify_cover(cover, pp)
        good = (rep["disjoint"] and rep["contact_covered"]
                and rep["all_meet_contact"] and rep["diameter_ok"])
        ok &= good
        details.append(f"inst{i}: rects={rep['n_rectangles']} "
                       f"Cgrad={rep['grad_constant_measured']:.3g} "
                       f"sigma={rep['varsigma_measured']:.3g}")

    ax = np.linspace(-3.0, 3.0, 257)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 3.0]
    vals = np.maximum(poly_cap(pts), 0.0)
    env = ConcaveEnvelope2D.from_samples(pts, vals)
    g = env.eval(pts)
    env2 = ConcaveEnvelope2D.from_samples(pts, g)
    idem_ok = bool(np.allclose(env2.eval(pts), g, atol=1e-9))
    bump = 0.2 * np.maximum(0.0, 1.0 - np.sum(pts ** 2, axis=1))
    env3 = ConcaveEnvelope2D.from_samples(pts, vals + bump)
    mono_ok = bool(np.all(g <= env3.eval(pts) + 1e-9))
    ok &= idem_ok and mono_ok
    _report(5, "ABP suite", ok, 300.0, time.time() - t0,
            "; ".join(details) + f"; idem={idem_ok} mono={mono_ok}")


# -------------------------------------------------------------------------
# 6. covering / CZ
# -------------------------------------------------------------------------

def test_acceptance_6_coverings():
    from anisonl.coverings import CellSet, cz_decompose
    from lemmas import ParamRectangleFamily, cc_cover
    t0 = time.time()
    rng = np.random.default_rng(606)
    ok = True
    worst = {}
    caps = {1: 4, 2: 16, 3: 64}
    for n in (1, 2, 3):
        worst[n] = 0
        for _ in range(1000 // 3 + 1):
            m = int(rng.integers(3, 60))
            pts = rng.uniform(-1.0, 1.0, size=(m, n))
            t = rng.uniform(0.05, 0.7, size=m)
            fam = ParamRectangleFamily(pts, t, tuple([lambda s: s] * n))
            _, mult = cc_cover(fam)
            worst[n] = max(worst[n], mult)
        ok &= worst[n] <= caps[n]

    cz_ok = True
    for gen in (4, 5, 6):
        m = 2 ** gen
        b = CellSet(2, gen, np.ones((m, m), dtype=bool))
        mask = rng.random((m, m)) < 0.25
        a = CellSet(2, gen, mask)
        res = cz_decompose(a, b, 0.5)
        cz_ok &= res.covered and res.certified
        cz_ok &= a.measure <= 0.5 * res.c_measured * b.measure + 1e-12
    ok &= cz_ok
    _report(6, "covering/CZ suite", ok, 120.0, time.time() - t0,
            f"multiplicity={worst} cz={cz_ok}")


# -------------------------------------------------------------------------
# 7. solver
# -------------------------------------------------------------------------

def test_acceptance_7_solver():
    from anisonl.solver import DiscreteProblem, dense_matrix, solve_dirichlet
    t0 = time.time()
    prof = isotropic(1, 1.0)
    fam = KernelFamily([[PowerLawKernel(prof, 1.0)]])
    ok = True

    prob0 = DiscreteProblem(prof, (-2.0,), (2.0,), (65,), fam,
                            ConstantExterior(0.0), tolerance=1e-10, window=64)
    f0, r0 = solve_dirichlet(prob0)
    ok &= r0.converged and float(np.max(np.abs(f0.values))) <= 1e-10

    prob_a = DiscreteProblem(prof, (-2.0,), (2.0,), (65,), fam,
                             AffineExterior(1.0, (2.0,)), tolerance=1e-10,
                             window=64)
    fa, ra = solve_dirichlet(prob_a)
    pts = fa.grid_points()
    ok &= ra.converged
    ok &= float(np.max(np.abs(fa.values.ravel()
                              - (1.0 + 2.0 * pts[:, 0])))) <= 1e-10

    def ind(p):
        x = p[:, 0]
        return ((x >= 1.0) & (x <= 2.0)).astype(float)

    prob_i = DiscreteProblem(prof, (-0.9,), (0.9,), (49,), fam,
                             CallableExterior(ind, 1.0), tolerance=1e-10,
                             window=96)
    fi, ri = solve_dirichlet(prob_i)
    a, b = dense_matrix(prob_i)
    direct = np.linalg.solve(a, b)
    dense_gap = float(np.max(np.abs(direct - fi.values.ravel())))
    ok &= ri.converged and dense_gap <= 10.0 * 1e-10

    prof2 = isotropic(1, 1.0, 1.0, 2.0)
    fam2 = KernelFamily.extremal_pair(prof2)
    rng = np.random.default_rng(707)
    comparison_ok = True
    for _ in range(20):
        lo_val = float(rng.uniform(0.0, 0.5))
        hi_val = lo_val + float(rng.uniform(0.0, 0.5))
        pa = DiscreteProblem(prof2, (-1.0,), (1.0,), (33,), fam2,
                             ConstantExterior(lo_val), tolerance=1e-10,
                             window=48)
        pb = DiscreteProblem(prof2, (-1.0,), (1.0,), (33,), fam2,
                             ConstantExterior(hi_val), tolerance=1e-10,
                             window=48)
        ua, _ = solve_dirichlet(pa)
        ub, _ = solve_dirichlet(pb)
        comparison_ok &= bool(np.all(ua.values <= ub.values + 1e-12))
    ok &= comparison_ok
    _report(7, "solver suite", ok, 300.0, time.time() - t0,
            f"dense_gap={dense_gap:.2e} comparison={comparison_ok}")


# -------------------------------------------------------------------------
# 8. Harnack / decay / Hoelder sweep
# -------------------------------------------------------------------------

def _sweep_instance(prof, seed):
    from anisonl.solver import DiscreteProblem, solve_dirichlet

    def ext(p):
        r2 = np.sum((p - 2.5) ** 2, axis=1)
        return np.exp(-4.0 * r2)

    fam = KernelFamily.extremal_pair(prof)
    prob = DiscreteProblem(prof, (-4.0,), (4.0,), (257,), fam,
                           CallableExterior(ext, 1.0), tolerance=1e-8,
                           max_iters=400_000, window=256)
    field, rep = solve_dirichlet(prob)
    origin = float(field.eval(np.zeros((1, 1)))[0])
    scale = 1.0 / max(origin, 1e-12)
    scaled_ext = CallableExterior(lambda p: scale * ext(p), scale)
    u = GridField(prob.lo, prob.hi, np.maximum(field.values, 0.0) * scale,
                  scaled_ext)
    prob_scaled = DiscreteProblem(prof, (-4.0,), (4.0,), (257,), fam,
                                  scaled_ext, tolerance=1e-8, window=256)
    return u, prob_scaled, rep, scale


def test_acceptance_8_sweep_stability():
    from anisonl.experiments import distribution_decay, harnack_quotient
    from lemmas import holder_estimate
    t0 = time.time()
    sigmas = (1.0, 1.5, 1.9, 1.99)
    quotients, gammas, epsilons, xs = [], [], [], []
    converged = True
    for sig in sigmas:
        prof = isotropic(1, sig, 1.0, 2.0)
        u, prob, rep, scale = _sweep_instance(prof, seed=1)
        converged &= rep.converged
        # the normalized solution satisfies the operator bounds at the
        # rescaled residual level: that is its data scale C_0
        c0 = max(1e-6, 10.0 * scale * prob.tolerance)
        hq = harnack_quotient(u, c0=c0, problem=prob)
        dec = distribution_decay(u, 1.02, 8)
        hol = holder_estimate(u, [0.0], [0.4, 0.2, 0.1, 0.05])
        quotients.append(hq.scalars["quotient"])
        gammas.append(hol.scalars["gamma_fit"])
        epsilons.append(dec.scalars["epsilon_fit"])
        xs.append(1.0 / (2.0 - sig))

    def slope_test(ys):
        x = np.array(xs)
        y = np.array(ys)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        s2 = float(np.sum(resid ** 2)) / max(len(xs) - 2, 1)
        sxx = float(np.sum((x - x.mean()) ** 2))
        se = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
        return slope <= 2.0 * se, slope, se

    q_ok, q_slope, q_se = slope_test(quotients)
    g_ok, g_slope, g_se = slope_test(gammas)
    eps_ok = all(e >= 0.05 for e in epsilons)
    ok = converged and q_ok and g_ok and eps_ok
    _report(8, "Harnack/decay/Hoelder stability", ok, 1800.0,
            time.time() - t0,
            f"quotients={[round(q, 3) for q in quotients]} "
            f"gammas={[round(g, 3) for g in gammas]} "
            f"eps={[round(e, 3) for e in epsilons]} "
            f"q_slope={q_slope:.3g}+-{q_se:.3g} "
            f"g_slope={g_slope:.3g}+-{g_se:.3g}")


# -------------------------------------------------------------------------
# 9. truncated kernels
# -------------------------------------------------------------------------

def test_acceptance_9_truncated_control():
    from anisonl.solver import DiscreteProblem
    from lemmas import truncated_control_check
    t0 = time.time()
    prof = isotropic(1, 1.0)
    base = PowerLawKernel(prof, 1.0)
    rng = np.random.default_rng(909)
    ok = True
    gaps = []
    for trial in range(10):
        c0 = float(rng.uniform(0.2, 1.5))
        lo_r = float(rng.uniform(0.3, 0.8))
        width = float(rng.uniform(0.2, 1.0))
        level = c0 / (2.0 * width)          # L1 mass c0 split over two sides

        def k2(y, lo_r=lo_r, width=width, level=level):
            r = np.abs(y[:, 0])
            return np.where((r > lo_r) & (r < lo_r + width), level, 0.0)

        trunc = TruncatedKernel(base, k2, l1_budget=c0)
        vals = rng.normal(size=33)
        prob_full = DiscreteProblem(
            prof, (-1.0,), (1.0,), (33,), KernelFamily([[trunc]]),
            ConstantExterior(0.0), window=48)
        prob_base = DiscreteProblem(
            prof, (-1.0,), (1.0,), (33,), KernelFamily([[base]]),
            ConstantExterior(0.0), window=48)
        out = truncated_control_check(prob_full, prob_base, vals, c0=c0)
        ok &= out["ok"]
        gaps.append(out["max_gap"] / out["budget"])
    _report(9, "truncated-kernel control", ok, 60.0, time.time() - t0,
            f"worst gap/budget={max(gaps):.3f}")
