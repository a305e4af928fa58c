"""Linear, extremal and inf-sup nonlocal operators by shell quadrature.

The fields are ``AnalyticField``s.  One batched core returns the values
at every row of a point array and their error bounds, as two arrays.  A
bound folds in the Monte Carlo confidence band of the shell quadrature,
the analytic C^{1,1} remainder inside Theta_{r_inner}, and a two-sided
bracket of the far tail built from the field's range outside a ball.
Where that range is a point the tail bracket is one too, so constant
fields come out exactly (value 0, near-zero bound).
"""

from __future__ import annotations

import numpy as np

from .fields import estimate_c11_many, pair_deltas
from .geometry import theta_half_widths
from .kernels import (KernelFamily, TruncatedKernel, near_field_bound,
                      tail_gauge_bounds)
from .quadrature import Z_SCORE, QuadratureScheme, node_table, stratum_moments

# (point, accepted node) pairs per evaluation block of _shell_sums: the
# block's temporaries are a few arrays of this many floats.
BLOCK_PAIRS = 1 << 13


def _shell_sums(u, X, ux, profile, quad, integrand):
    """Shell-quadrature estimates over B_far \\ Theta_{r_inner} and their
    standard errors at every row of ``X``; ``ux`` holds u at those rows.

    ``integrand(d, s)`` maps the second differences ``d`` of a row block
    at the accepted nodes of stratum ``s`` to the integrand there, and may
    overwrite ``d``.  Every point is integrated on the same node table, in
    row blocks of at most ``BLOCK_PAIRS`` (point, accepted node) pairs, or
    one point when a stratum alone accepts more nodes, so memory stays
    bounded for any batch size.
    """
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


def _evaluate(u, X, profile, quad, integrand, laws, mult_hi, l1_budget=None):
    """(values, errors) at every row of ``X``: the shell sums of
    ``integrand`` plus the middle of the far-tail bracket, and Z_SCORE
    standard errors plus the near-field bound (multiplier ``mult_hi``)
    plus the bracket's half width.  The bracket spans c_sigma g(delta) t
    over the laws g, each row's delta range and the tail gauge masses t; a
    truncated kernel's ``l1_budget`` widens the near and far terms.
    """
    ux = u.eval(X)
    total, se = _shell_sums(u, X, ux, profile, quad, integrand)
    # probe at the inner-cutoff length scale, but not below fp resolution
    c11 = estimate_c11_many(u, X, max(1e-7, (2.0 * quad.r_inner) ** (
        1.0 / (profile.n + profile.sigma_max))))
    near = near_field_bound(profile, quad.r_inner, c11, mult_hi)
    d_lo, d_hi = u.tail_delta_range(X, ux, quad.far_radius)
    tg = tail_gauge_bounds(profile, quad.far_radius)
    cands = [profile.c_sigma * g(d) * t for g in laws for d in (d_lo, d_hi)
             for t in tg]
    tail_lo, tail_hi = np.min(cands, axis=0), np.max(cands, axis=0)
    if l1_budget is not None:
        hw = theta_half_widths(profile, quad.r_inner)
        near = near + 2.0 * c11 * float(np.sum(hw ** 2)) * l1_budget
        extra = 2.0 * np.maximum(np.abs(d_lo), np.abs(d_hi)) * l1_budget
        tail_lo, tail_hi = tail_lo - extra, tail_hi + extra
    value = total + 0.5 * (tail_lo + tail_hi)
    error = Z_SCORE * se + near + 0.5 * (tail_hi - tail_lo)
    return value, error


def eval_linear(u, x, kernel, quad: QuadratureScheme) -> tuple:
    """L u(x) = int delta(u, x, y) K(y) dy with an error bound, as the
    floats (value, error)."""
    X = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    budget = (kernel.l1_budget if isinstance(kernel, TruncatedKernel)
              else None)
    value, error = _evaluate(
        u, X, kernel.profile, quad, lambda d, s: d * kernel.eval(s.pts),
        [lambda d: kernel.mult_lo * d, lambda d: kernel.mult_hi * d],
        kernel.mult_hi, budget)
    return float(value[0]), float(error[0])


def eval_extremal_many(u, X, profile, quad: QuadratureScheme,
                       which) -> tuple:
    """M^+ (``which`` "plus") or M^- ("minus") at every row of ``X``, as
    the arrays (values, errors)."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    lam, Lam = profile.lambda_lo, profile.lambda_hi
    extremum = np.maximum if which == "plus" else np.minimum
    cs = profile.c_sigma

    def sign_split(d, s):
        # cs * (sup (plus) or inf (minus) of a d, a in {lam, Lam}) / gauge
        extremum(d * lam, d * Lam, out=d)
        d *= cs
        d /= s.gauge
        return d

    return _evaluate(u, np.atleast_2d(np.asarray(X, dtype=float)), profile,
                     quad, sign_split, [lambda d: extremum(d * lam, d * Lam)],
                     Lam)


def eval_inf_sup(u, x, family: KernelFamily, quad: QuadratureScheme) -> tuple:
    """I u(x) = inf_alpha sup_beta L_{alpha beta} u(x), exact enumeration,
    as (value, error): the error is the largest member's.

    Every member is integrated on the same node table, so the inf-sup
    acts on consistently coupled estimates.
    """
    table = [[eval_linear(u, x, k, quad) for k in row]
             for row in family.members]
    return (min(max(v for v, _ in row) for row in table),
            max(e for row in table for _, e in row))
