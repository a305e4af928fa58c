"""Linear, extremal and inf-sup nonlocal operators by shell quadrature.

Every evaluation reports a value together with an error bound that folds
in three parts: the Monte Carlo confidence band of the shell quadrature,
the analytic C^{1,1} remainder inside Theta_{r_inner}, and a two-sided
bracket of the far tail built from the field's exterior rule.  For
constant/affine exterior data the tail bracket is a point, so affine
fields come out exactly (value 0, near-zero bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .fields import estimate_c11_many, pair_deltas
from .kernels import (KernelFamily, TruncatedKernel, near_field_bound,
                      tail_gauge_bounds)
from .quadrature import Z_SCORE, QuadratureScheme, node_table, stratum_moments

# (point, drawn node) pairs per evaluation block of eval_extremal_many: the
# block's temporaries are a few arrays of this many floats.
BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True)
class OpValue:
    value: float
    error: float
    parts: dict = dfield(default_factory=dict)

    def __float__(self):
        return self.value


def _c11_many(u, X, profile, quad):
    """C^{1,1} bound at every row of ``X``, from one batched probe."""
    scale = (2.0 * quad.r_inner) ** (1.0 / (profile.n + profile.sigma_max))
    # probe at the inner-cutoff length scale, but not below fp resolution
    scale = max(scale, 1e-7)
    return estimate_c11_many(u, X, scale).tolist()


def _bracket(candidates):
    return min(candidates), max(candidates)


def _tail_bracket_linear(u, x, quad, kernel, profile, tg):
    """Tail contribution interval for int_{|y|>far} delta * K, given the
    tail gauge bounds ``tg``."""
    dlo, dhi = u.tail_delta_range(x, quad.far_radius)
    cs = profile.c_sigma
    cands = [cs * m * d * t
             for m in (kernel.mult_lo, kernel.mult_hi)
             for d in (dlo, dhi)
             for t in tg]
    lo, hi = _bracket(cands)
    if isinstance(kernel, TruncatedKernel):
        extra = 2.0 * max(abs(dlo), abs(dhi)) * kernel.l1_budget
        lo, hi = lo - extra, hi + extra
    return lo, hi


def _tail_bracket_extremal(u, x, profile, quad, which, tg):
    dlo, dhi = u.tail_delta_range(x, quad.far_radius)
    lam, Lam = profile.lambda_lo, profile.lambda_hi
    if which == "plus":
        g = lambda d: Lam * max(d, 0.0) - lam * max(-d, 0.0)
    else:
        g = lambda d: lam * max(d, 0.0) - Lam * max(-d, 0.0)
    cs = profile.c_sigma
    cands = [cs * g(d) * t for d in (dlo, dhi) for t in tg]
    return _bracket(cands)


def _finish(mid_value, se, near, tail_lo, tail_hi):
    mid_value, se = float(mid_value), float(se)
    value = mid_value + 0.5 * (tail_lo + tail_hi)
    err = Z_SCORE * se + near + 0.5 * (tail_hi - tail_lo)
    return OpValue(value, err, parts={
        "quadrature_value": mid_value,
        "mc_se": se,
        "near_bound": near,
        "tail_lo": tail_lo,
        "tail_hi": tail_hi,
    })


def _linear_members(u, x, kernels, quad, profile):
    """OpValues of L_k u(x) for each kernel k; delta(u, x, .) is evaluated
    once per stratum and shared by every kernel."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    X = x[None, :]
    ux = u.eval(X)
    total = np.zeros(len(kernels))
    var = np.zeros(len(kernels))
    for s in node_table(profile, quad):
        if not s.pts.shape[0]:
            continue
        d = pair_deltas(u, X, ux, s.pts)[0]
        vals = np.stack([d * k.eval(s.pts) for k in kernels])
        mean_part, var_part = stratum_moments(s, vals)
        total += mean_part
        var += var_part
    se = np.sqrt(var)
    m = _c11_many(u, X, profile, quad)[0]
    tg = tail_gauge_bounds(profile, quad.far_radius)
    out = []
    for i, kernel in enumerate(kernels):
        near = near_field_bound(profile, quad.r_inner, m, kernel.mult_hi)
        if isinstance(kernel, TruncatedKernel):
            hw = quad.r_inner ** (1.0 / profile.exponents)
            near += 2.0 * m * float(np.sum(hw ** 2)) * kernel.l1_budget
        tail_lo, tail_hi = _tail_bracket_linear(u, x, quad, kernel, profile,
                                                tg)
        out.append(_finish(total[i], se[i], near, tail_lo, tail_hi))
    return out


def eval_linear(u, x, kernel, quad: QuadratureScheme) -> OpValue:
    """L u(x) = int delta(u, x, y) K(y) dy with a reported error bound."""
    return _linear_members(u, x, [kernel], quad, kernel.profile)[0]


def eval_extremal_many(u, X, profile, quad: QuadratureScheme,
                       which="plus") -> list:
    """M^+ or M^- at every row of ``X``, one OpValue per row.

    Every point is integrated on the same node table.  The integrand is
    evaluated in row blocks of at most ``BLOCK_PAIRS`` (point, drawn node)
    pairs, or one point when a stratum alone draws more nodes, so memory
    stays bounded for any batch size; the C^{1,1} probe runs once for the
    batch and the tail bracket is taken per point.
    """
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam, Lam = profile.lambda_lo, profile.lambda_hi
    pos_w, neg_w = (Lam, lam) if which == "plus" else (lam, Lam)
    cs = profile.c_sigma
    ux = u.eval(X)
    total = np.zeros(len(X))
    var = np.zeros(len(X))
    for s in node_table(profile, quad):
        if not s.pts.shape[0]:
            continue
        step = max(1, BLOCK_PAIRS // s.count)
        for a in range(0, len(X), step):
            b = a + step
            d = pair_deltas(u, X[a:b], ux[a:b], s.pts)
            # cs * (pos_w * max(d, 0) - neg_w * max(-d, 0)) / gauge, in place
            neg = np.negative(d)
            np.maximum(neg, 0.0, out=neg)
            neg *= neg_w
            np.maximum(d, 0.0, out=d)
            d *= pos_w
            d -= neg
            d *= cs
            d /= s.gauge
            mean_part, var_part = stratum_moments(s, d)
            total[a:b] += mean_part
            var[a:b] += var_part
    se = np.sqrt(var)
    tg = tail_gauge_bounds(profile, quad.far_radius)
    c11 = _c11_many(u, X, profile, quad)
    out = []
    for i, x in enumerate(X):
        near = near_field_bound(profile, quad.r_inner, c11[i], Lam)
        tail_lo, tail_hi = _tail_bracket_extremal(u, x, profile, quad, which,
                                                  tg)
        out.append(_finish(total[i], se[i], near, tail_lo, tail_hi))
    return out


def eval_extremal(u, x, profile, quad: QuadratureScheme,
                  which="plus") -> OpValue:
    """M^+ or M^- via the closed form with per-node sign split of delta."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return eval_extremal_many(u, x[None, :], profile, quad, which)[0]


def eval_inf_sup(u, x, family: KernelFamily, quad: QuadratureScheme) -> OpValue:
    """I u(x) = inf_alpha sup_beta L_{alpha beta} u(x), exact enumeration.

    All members are integrated on the same node set with one evaluation of
    delta(u, x, .), so the inf-sup acts on consistently coupled estimates.
    """
    ovs = _linear_members(u, x, family.flat(), quad, family.profile)
    width = family.n_sup
    rows = [max(ov.value for ov in ovs[i:i + width])
            for i in range(0, len(ovs), width)]
    return OpValue(min(rows), max(ov.error for ov in ovs),
                   parts={"n_members": len(ovs)})
