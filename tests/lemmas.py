"""The paper's lemma checks and the measurements no command runs yet.

Each function here is an independent check of one step of the argument:
the two elementary inequalities and the lower bound for delta behind
the radial barrier, the bounded-overlap rectangle cover, the annulus
detachment measure of the ABP estimate, the sampled two-sided kernel
bounds, the truncated-kernel control, and the point-estimate and Hoelder
measurements on a solved field.  Test modules import them as
``from lemmas import ...``; ``test_source_hygiene`` checks that every
public function here has a caller among them.
"""

import math
from dataclasses import dataclass

import numpy as np

from anisonl import PreconditionError
from anisonl.abp import DegenerateTileError
from anisonl.experiments import ExperimentResult
from anisonl.geometry import gauge, theta
from anisonl.solver import AssembledOperator, discrete_extremal


# ---------------------------------------------------------------------------
# the two elementary inequalities behind every barrier estimate
# ---------------------------------------------------------------------------

def elementary_inequality_convexity(a1, a2, s):
    """(a2+a1)^-s + (a2-a1)^-s - [2 a2^-s + s(s+1) a1^2 a2^(-s-2)] >= 0."""
    a1, a2, s = (np.asarray(v, dtype=float) for v in (a1, a2, s))
    lhs = (a2 + a1) ** -s + (a2 - a1) ** -s
    rhs = 2.0 * a2 ** -s + s * (s + 1.0) * a1 ** 2 * a2 ** (-s - 2.0)
    return lhs - rhs


def elementary_inequality_bernoulli(a1, a2, s):
    """(a2+a1)^-s - a2^-s (1 - s a1/a2) >= 0."""
    a1, a2, s = (np.asarray(v, dtype=float) for v in (a1, a2, s))
    return (a2 + a1) ** -s - a2 ** -s * (1.0 - s * a1 / a2)


def delta_lower_bound(p, y):
    """Proof-side lower bound for delta(f, e1, y), |y| < 1/2, f = |x|^-p:
    p [ -|y|^2 + (p+2) y1^2 - (p+2)(p+4) y1^2 |y|^2 / 2 ]."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    r2 = np.sum(y ** 2, axis=1)
    y1sq = y[:, 0] ** 2
    return p * (-r2 + (p + 2.0) * y1sq
                - (p + 2.0) * (p + 4.0) * y1sq * r2 / 2.0)


# ---------------------------------------------------------------------------
# bounded-overlap rectangle covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamRectangleFamily:
    """Points with per-point parameters and shared monotone edge laws.

    ``edge_laws[i](t)`` is the full edge length along axis i; increasing
    in t, continuous at 0, zero at 0.
    """
    points: np.ndarray
    t: np.ndarray
    edge_laws: tuple

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "t",
                           np.asarray(self.t, dtype=float).reshape(-1))
        if self.points.shape[0] != self.t.size:
            raise ValueError("one parameter per point required")
        if len(self.edge_laws) != self.points.shape[1]:
            raise ValueError("one edge law per axis required")

    def half_widths(self, t):
        return np.array([0.5 * law(t) for law in self.edge_laws])


def _check_monotone(laws, t_values):
    ts = np.unique(np.concatenate([[0.0], t_values]))
    for law in laws:
        vals = np.array([law(t) for t in ts])
        if vals[0] != 0.0:
            raise ValueError("edge law must vanish at t = 0")
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("edge law must be monotone increasing")


def cc_cover(family: ParamRectangleFamily):
    """Greedy cover; returns (selected list, max multiplicity over points).

    Selection order is descending parameter, ties broken by lexicographic
    center; the rectangle of the chosen point removes every still-uncovered
    center it contains.
    """
    pts, t = family.points, family.t
    _check_monotone(family.edge_laws, t)
    m = pts.shape[0]
    order = sorted(range(m), key=lambda i: (-t[i],) + tuple(pts[i]))
    covered = np.zeros(m, dtype=bool)
    selected = []
    for i in order:
        if covered[i]:
            continue
        hw = family.half_widths(t[i])
        selected.append((pts[i].copy(), hw))
        inside = np.all(np.abs(pts - pts[i][None, :]) <= hw[None, :] + 1e-15,
                        axis=1)
        covered |= inside
    mult = np.zeros(m, dtype=int)
    for c, hw in selected:
        mult += np.all(np.abs(pts - c[None, :]) <= hw[None, :] + 1e-15,
                       axis=1)
    if np.any(mult == 0):
        raise AssertionError("greedy cover failed to cover every point")
    return selected, int(mult.max())


# ---------------------------------------------------------------------------
# the detachment set W_k of the ABP estimate
# ---------------------------------------------------------------------------

def inf_quad_outside(profile, r):
    """inf of <Az, z> over gauge(z) >= r.

    The infimum of the diagonal quadratic over the region outside the
    level set Theta_r sits on a coordinate axis (the per-axis powers
    2/(n+sigma_i) < 1 make the constrained problem concave), so it is
    min_i a_ii * r^{2/(n+sigma_i)}.
    """
    a = profile.matrix_a()
    return min(a[i] * r ** (2.0 / (profile.n + profile.sigma[i]))
               for i in range(profile.n))


def _gradient_at(env, x):
    """Gradient of the 2D concave envelope ``env`` at x: that of its
    lowest facet plane there."""
    vals = env.facet_planes[:, :2] @ x + env.facet_planes[:, 2]
    return env.facet_grads[int(np.argmin(vals))]


def detachment_measure(u, env, x, k, profile, m_threshold, samples=20000,
                       seed=0):
    """Monte Carlo measure of the detachment set W_k at a contact point.

    W_k lives on the annulus Theta_{r_k} \\ Theta_{r_k+1}; the threshold is
    m_threshold * inf_{annulus} <Az, z> below the tangent plane of the
    envelope.  Also reports the annulus measure and the y -> -y symmetry
    rate of the sampled membership.  An annulus whose inner radius
    underflows to zero is refused with ``DegenerateTileError``.
    """
    if not 0 <= k <= 200:
        raise ValueError(f"annulus index {k} outside 0..200")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r_hi, r_lo = profile.radius(k), profile.radius(k + 1)
    hw = r_hi ** (1.0 / profile.exponents)
    if r_lo == 0.0:
        raise DegenerateTileError(
            f"annulus {k}: its inner radius r_{k + 1} underflows to zero "
            f"(r_{k} = {r_hi:.3e})", k, 2.0 * hw)
    grad = _gradient_at(env, x)
    ux = float(u.eval(x[None, :])[0])
    inf_quad = inf_quad_outside(profile, r_lo)
    cut = m_threshold * inf_quad

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-hw, hw, size=(samples, profile.n))
    box = float(np.prod(2.0 * hw))
    g = gauge(profile, pts)
    shell = (g < r_hi) & (g >= r_lo)

    def in_w(y):
        return u.eval(x[None, :] + y) < ux + y @ grad - cut

    member = shell & in_w(pts)
    frac = float(np.mean(member))
    w_measure = box * frac
    w_se = box * math.sqrt(max(frac * (1 - frac), 0.0) / samples)

    shell_measure = theta(profile, r_hi).measure() \
        - theta(profile, r_lo).measure()

    sym_rate = 1.0
    if member.any():
        mirrored = in_w(-pts[member])
        sym_rate = float(np.mean(mirrored))
    return {
        "k": k,
        "w_measure": w_measure,
        "w_se": w_se,
        "shell_measure": shell_measure,
        "ratio": w_measure / shell_measure,
        "symmetry_rate": sym_rate,
        "inf_quad": inf_quad,
    }


# ---------------------------------------------------------------------------
# kernel bounds
# ---------------------------------------------------------------------------

def kernel_bounds_verify(kernel, profile, samples=4000, seed=0,
                         mode="global", neighborhood=1.0):
    """Sample-check symmetry and the two-sided power-law bounds.

    Points are drawn from log-uniform Euclidean shells spanning radii
    1e-3..1e3 (or up to ``neighborhood`` in near-origin mode).  Returns
    (ok, worst_ratio, worst_point): worst_ratio is the largest of
    K/(upper bound) and (lower bound)/K over the sample; a value <= 1
    (up to 1e-9) passes.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = profile.n
    lo_exp, hi_exp = -3.0, 3.0
    if mode == "near_origin":
        hi_exp = math.log10(neighborhood)
    elif mode != "global":
        raise ValueError(f"unknown verification mode {mode!r}")
    radii = 10.0 ** rng.uniform(lo_exp, hi_exp, size=samples)
    dirs = rng.normal(size=(samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * radii[:, None]

    kv = kernel.eval(pts)
    kv_neg = kernel.eval(-pts)
    sym_ok = np.allclose(kv, kv_neg, rtol=1e-8, atol=0.0)

    base = profile.c_sigma / gauge(profile, pts)
    upper = profile.lambda_hi * base
    lower = profile.lambda_lo * base
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_up = kv / upper
        ratio_lo = np.where(kv > 0, lower / kv, np.inf)
    worst_idx = int(np.argmax(np.maximum(ratio_up, ratio_lo)))
    worst = float(max(ratio_up[worst_idx], ratio_lo[worst_idx]))
    ok = sym_ok and worst <= 1.0 + 1e-9
    return ok, worst, pts[worst_idx]


# ---------------------------------------------------------------------------
# measurements on a solved field
# ---------------------------------------------------------------------------

def point_estimate_experiment(u, m_level, problem=None, eps0=None):
    """Measure of the sublevel set {u <= M} in the unit cube.

    Preconditions (u >= 0 everywhere, u(0) <= 1, M^- u <= eps0 on the
    grid) are verified; the violated ones raise one PreconditionError.
    """
    pts = u.grid_points()
    vals = u.eval(pts)
    origin = float(u.eval(np.zeros((1, pts.shape[1])))[0])
    failed = []
    if np.min(vals) < -1e-9:
        failed.append("precondition u >= 0 fails on the grid")
    if origin > 1.0 + 1e-9:
        failed.append(f"precondition u(0) <= 1 fails: u(0) = {origin}")
    if problem is not None and eps0 is not None:
        mminus, _ = discrete_extremal(problem, u)
        if float(np.max(mminus)) > eps0 + 1e-9:
            failed.append("precondition M^- u <= eps0 fails")
    if failed:
        raise PreconditionError("; ".join(failed))
    block, at = u.cell_overlaps(np.full(u.n, -0.5), np.full(u.n, 0.5))
    overlap = np.zeros(u.values.shape)
    overlap[at] = block
    measure = float(np.sum(overlap[u.values <= m_level]))
    q1 = float(np.sum(overlap))
    result = ExperimentResult()
    result.scalars = {"measure": measure, "q1_measure": q1,
                      "varsigma_measured": measure / q1 if q1 else 0.0}
    result.columns = ("level", "measure")
    result.rows = [(m_level, measure)]
    return result


def holder_estimate(u, center, radii):
    """Oscillation of u over shrinking balls and the log-log slope."""
    radii = sorted({float(r) for r in radii}, reverse=True)
    if len(radii) < 3:
        raise ValueError("need at least three radii")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    result = ExperimentResult()
    pts = u.grid_points()
    vals = u.eval(pts)
    dist = np.linalg.norm(pts - center[None, :], axis=1)
    rows = []
    for r in radii:
        sel = dist <= r
        if np.count_nonzero(sel) < 2:
            continue
        osc = float(np.max(vals[sel]) - np.min(vals[sel]))
        rows.append((r, osc))
    result.columns = ("radius", "oscillation")
    result.rows = rows
    osc = np.array([r[1] for r in rows])
    if np.all(osc == 0.0):
        result.scalars = {"gamma_fit": math.nan, "constant": True}
        return result
    keep = osc > 0
    x = np.log([r[0] for r in rows])
    x = x[keep]
    y = np.log(osc[keep])
    if x.size < 2:
        result.scalars = {"gamma_fit": math.nan, "constant": False}
        return result
    coef = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2)))
    result.scalars = {"gamma_fit": float(coef[0]), "residual": resid}
    return result


def truncated_control_check(problem_full, problem_base, values, c0):
    """|I_K u - I_K1 u| <= 4 c0 sup|u| at every lattice point."""
    v = np.asarray(values, dtype=float).ravel()
    i_full = AssembledOperator(problem_full).apply(v)
    i_base = AssembledOperator(problem_base).apply(v)
    # sup |u| over the lattice values and the exterior rule
    sup_u = max(float(np.max(np.abs(v))), problem_full.exterior.sup_bound)
    gap = float(np.max(np.abs(i_full - i_base)))
    budget = 4.0 * c0 * sup_u
    return {"max_gap": gap, "budget": budget, "ok": gap <= budget + 1e-12}
