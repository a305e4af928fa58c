"""Linear, extremal and inf-sup nonlocal operators by shell quadrature.

The fields are ``AnalyticField``s.  Every evaluation reports a value
together with an error bound that folds in three parts: the Monte Carlo
confidence band of the shell quadrature, the analytic C^{1,1} remainder
inside Theta_{r_inner}, and a two-sided bracket of the far tail built from
the field's range outside a ball.  Where that range is a point the tail
bracket is one too, so constant fields come out exactly (value 0,
near-zero bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .fields import estimate_c11_many, pair_deltas
from .geometry import theta_half_widths
from .kernels import (KernelFamily, TruncatedKernel, near_field_bound,
                      tail_gauge_bounds)
from .quadrature import Z_SCORE, QuadratureScheme, node_table, stratum_moments

# (point, accepted node) pairs per evaluation block of _shell_sums: the
# block's temporaries are a few arrays of this many floats.
BLOCK_PAIRS = 1 << 13


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


def _shell_sums(u, X, profile, quad, integrand):
    """Shell-quadrature estimates over B_far \\ Theta_{r_inner} and their
    standard errors at every row of ``X``.

    ``integrand(d, s)`` maps the second differences ``d`` of a row block
    at the accepted nodes of stratum ``s`` to the integrand there, and may
    overwrite ``d``.  Every point is integrated on the same node table, in
    row blocks of at most ``BLOCK_PAIRS`` (point, accepted node) pairs, or
    one point when a stratum alone accepts more nodes, so memory stays
    bounded for any batch size.
    """
    ux = u.eval(X)
    total = np.zeros(len(X))
    var = np.zeros(len(X))
    for s in node_table(profile, quad):
        k = s.pts.shape[0]
        if not k:
            continue
        step = max(1, BLOCK_PAIRS // k)
        for a in range(0, len(X), step):
            b = a + step
            d = pair_deltas(u, X[a:b], ux[a:b], s.pts)
            mean_part, var_part = stratum_moments(s, integrand(d, s))
            total[a:b] += mean_part
            var[a:b] += var_part
    return total, np.sqrt(var)


def _tail_bracket(drange, profile, tg, laws):
    """Interval of the far tail int_{|y| > far} c_sigma g(delta) / gauge
    over the integrand laws g, for delta in the range ``drange`` and the
    tail gauge mass bounds ``tg``."""
    cands = [profile.c_sigma * g(d) * t
             for g in laws for d in drange for t in tg]
    return min(cands), max(cands)


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


def eval_linear(u, x, kernel, quad: QuadratureScheme) -> OpValue:
    """L u(x) = int delta(u, x, y) K(y) dy with a reported error bound."""
    profile = kernel.profile
    x = np.atleast_1d(np.asarray(x, dtype=float))
    X = x[None, :]
    total, se = _shell_sums(u, X, profile, quad,
                            lambda d, s: d * kernel.eval(s.pts))
    m = _c11_many(u, X, profile, quad)[0]
    near = near_field_bound(profile, quad.r_inner, m, kernel.mult_hi)
    drange = u.tail_delta_range(x, quad.far_radius)
    tail_lo, tail_hi = _tail_bracket(
        drange, profile, tail_gauge_bounds(profile, quad.far_radius),
        [lambda d: kernel.mult_lo * d, lambda d: kernel.mult_hi * d])
    if isinstance(kernel, TruncatedKernel):
        # the integrable part: |delta| times its L1 budget, near and far
        hw = theta_half_widths(profile, quad.r_inner)
        near += 2.0 * m * float(np.sum(hw ** 2)) * kernel.l1_budget
        extra = 2.0 * max(map(abs, drange)) * kernel.l1_budget
        tail_lo, tail_hi = tail_lo - extra, tail_hi + extra
    return _finish(total[0], se[0], near, tail_lo, tail_hi)


def eval_extremal_many(u, X, profile, quad: QuadratureScheme,
                       which="plus") -> list:
    """M^+ or M^- at every row of ``X``, one OpValue per row.

    The shell sums split each second difference by sign in place; the
    C^{1,1} probe runs once for the batch and the tail bracket is taken
    per point.
    """
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lam, Lam = profile.lambda_lo, profile.lambda_hi
    pos_w, neg_w = (Lam, lam) if which == "plus" else (lam, Lam)
    extremum = np.maximum if which == "plus" else np.minimum
    cs = profile.c_sigma

    def sign_split(d, s):
        # cs * (pos_w * max(d, 0) - neg_w * max(-d, 0)) / gauge, in place:
        # the sup (plus) or inf (minus) of a * d over a in {lam, Lam}
        extremum(d * lam, d * Lam, out=d)
        d *= cs
        d /= s.gauge
        return d

    total, se = _shell_sums(u, X, profile, quad, sign_split)
    tg = tail_gauge_bounds(profile, quad.far_radius)
    c11 = _c11_many(u, X, profile, quad)
    law = [lambda d: pos_w * max(d, 0.0) - neg_w * max(-d, 0.0)]
    out = []
    for i, x in enumerate(X):
        near = near_field_bound(profile, quad.r_inner, c11[i], Lam)
        tail_lo, tail_hi = _tail_bracket(
            u.tail_delta_range(x, quad.far_radius), profile, tg, law)
        out.append(_finish(total[i], se[i], near, tail_lo, tail_hi))
    return out


def eval_inf_sup(u, x, family: KernelFamily, quad: QuadratureScheme) -> OpValue:
    """I u(x) = inf_alpha sup_beta L_{alpha beta} u(x), exact enumeration.

    Every member is integrated on the same node table, so the inf-sup
    acts on consistently coupled estimates.
    """
    table = [[eval_linear(u, x, k, quad) for k in row]
             for row in family.members]
    return OpValue(min(max(ov.value for ov in row) for row in table),
                   max(ov.error for row in table for ov in row),
                   parts={"n_members": family.n_inf * family.n_sup})
