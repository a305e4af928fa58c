"""Measurement experiments: the normalised solver solution, distribution
decay, Harnack quotients, order sweeps and the kernel modulus check.

All quantities here are measured, never assumed; the runs report the
empirical constants the qualitative theory asserts exist.  Each function
decides what it measures: a failed hypothesis raises PreconditionError
(the run is invalid, not failed), the verdict is ``passed``, and a value
it cannot measure is None beside a ``<key>_reason`` string, never an
inf or NaN.  A sweep flags a row whose solve or Harnack hypotheses fail
by catching that PreconditionError, and goes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import PreconditionError
from .kernels import tail_gauge_bounds
from .quadrature import Z_SCORE
# the solver is imported inside the functions that call it, so
# kernel_modulus_check does not load it

# Euclidean dyadic shells of kernel_modulus_check, B_tau0 out to tau0 2^12,
# and the Monte Carlo nodes it spreads over them
MODULUS_SHELLS = 12
MODULUS_NODES = 20000


@dataclass
class ExperimentResult:
    scalars: dict = dfield(default_factory=dict)
    rows: list = dfield(default_factory=list)     # per-step CSV rows
    columns: tuple = ()
    # always True: a failed hypothesis raises instead.  Kept because the
    # benchmark's sweep oracle still reads it.
    valid: bool = True
    passed: bool = True


def fit_decay_exponent(ks, measures, m_level):
    """Least-squares fit of log measure against k log M.

    Returns (epsilon, prefactor, rms residual) over the nonzero measures;
    fewer than two of them fix no exponent, a PreconditionError.
    """
    ks = np.asarray(ks, dtype=float)
    meas = np.asarray(measures, dtype=float)
    nz = meas > 0
    if np.count_nonzero(nz) < 2:
        raise PreconditionError(
            "fewer than two levels {u > M^k} in Q_1 have a nonzero measure, "
            f"no decay exponent to fit: measures {meas.tolist()}")
    y = np.log(meas[nz])
    x = ks[nz] * math.log(m_level)
    coef = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2)))
    return float(-coef[0]), float(math.exp(coef[1])), resid


def distribution_decay(u, m_level, k_max):
    """|{u > M^k} cap Q_1| for k = 1..k_max and the fitted decay exponent.

    Fits log-measure against k log M by least squares over the nonzero
    entries; fewer than two nonzero levels raise PreconditionError.  The
    cell overlaps with Q_1 = [-1/2,1/2]^n are read once for all levels.
    """
    if k_max < 2:
        raise ValueError("need at least two levels to fit a decay exponent")
    result = ExperimentResult()
    # the full lattice: the masked sums run over zero overlaps too
    block, at = u.cell_overlaps(np.full(u.n, -0.5), np.full(u.n, 0.5))
    overlap = np.zeros(u.values.shape)
    overlap[at] = block
    rows = []
    for k in range(1, k_max + 1):
        try:
            t = m_level ** k
        except OverflowError:       # a level past the float range
            t = math.inf            # leaves {u > t} empty
        rows.append((k, float(np.sum(overlap[u.values > t]))))
    result.columns = ("k", "measure")
    result.rows = rows
    eps, d_fit, resid = fit_decay_exponent([r[0] for r in rows],
                                           [r[1] for r in rows], m_level)
    result.scalars = {"epsilon_fit": eps, "residual": resid, "d_fit": d_fit}
    return result


def normalized_solution(problem):
    """The solution of ``problem`` scaled to u(0) = 1, its exterior data
    scaled the same way.  An unconverged solve, or u(0) <= 0, which
    cannot be normalised, raises PreconditionError."""
    from .fields import CallableExterior, GridField
    from .solver import solve_dirichlet
    field, report = solve_dirichlet(problem)
    if not report.converged:
        raise PreconditionError(
            f"solver did not converge: residual {report.residual:.3e} > "
            f"tolerance {problem.tolerance:.3e} after {report.iterations} "
            "iterations")
    origin = float(field.eval(np.zeros((1, problem.profile.n)))[0])
    if origin <= 0.0:
        raise PreconditionError(
            f"u(0) = {origin:.3e} <= 0 at solver tolerance "
            f"{problem.tolerance:.3e}: the solution cannot be normalised "
            "to u(0) = 1")
    scale = 1.0 / origin
    ext = problem.exterior
    return GridField(problem.lo, problem.hi, field.values * scale,
                     CallableExterior(lambda pts: ext(pts) * scale,
                                      ext.sup_bound * scale))


def harnack_quotient(u, c0, problem):
    """sup_{B_1/2} u / (u(0) + C_0), with precondition checks of the grid
    field ``u`` on the lattice of ``problem``, its exterior data included;
    a failed one raises PreconditionError, both operator checks in one."""
    vals = u.values.ravel()
    # each check reads "not within the bound", so a NaN fails it
    if not np.min(vals) >= -1e-9:
        raise PreconditionError("precondition u >= 0 fails")
    radius = np.linalg.norm(problem.lattice.points, axis=1)
    in_half = radius <= 0.5
    if not np.any(in_half):                 # B_1/2 lies in B_2: both empty
        raise PreconditionError("no lattice point in B_1/2")
    from .solver import discrete_extremal
    in_b2 = radius <= 2.0
    mminus, mplus = discrete_extremal(problem, u)
    failed = []
    if not float(np.max(mminus.ravel()[in_b2])) <= c0 + 1e-7:
        failed.append("precondition M^- u <= C0 fails on B_2")
    if not float(np.min(mplus.ravel()[in_b2])) >= -c0 - 1e-7:
        failed.append("precondition M^+ u >= -C0 fails on B_2")
    if failed:
        raise PreconditionError("; ".join(failed))
    sup_half = float(np.max(vals[in_half]))
    origin = float(u.eval(np.zeros((1, u.n)))[0])
    q = sup_half / (origin + c0)
    return ExperimentResult(
        scalars={"quotient": q, "sup_b_half": sup_half, "u0": origin,
                 "c0": c0},
        rows=[(q,)], columns=("quotient",))


def sigma_sweep(measured, flagged):
    """Flag monotone divergence of measured (sigma_min, quantity) rows
    against x = 1/(2 - sigma_min): a fitted slope above twice its standard
    error.  Fewer than three rows, or one sigma_min, fix no slope.  No
    measured row at all raises PreconditionError with the ``flagged``
    notes of the rows that failed."""
    if not measured:
        raise PreconditionError("no valid sweep row"
                                + "".join(f"; {n}" for n in flagged))
    x = np.array([1.0 / (2.0 - s) for s, _ in measured])
    y = np.array([value for _, value in measured], dtype=float)
    sxx = float(np.sum((x - x.mean()) ** 2)) if len(x) >= 3 else 0.0
    result = ExperimentResult()
    if sxx > 0:
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        se = math.sqrt(float(np.sum(resid ** 2)) / (len(x) - 2) / sxx)
        result.scalars = {"slope": float(slope), "slope_se": se,
                          "diverging": bool(slope > 2.0 * se)}
    else:
        result.scalars = {"slope": None, "slope_se": None, "diverging": False,
                          "slope_reason": "all valid rows share one sigma_min"
                          if len(x) >= 3 else "fewer than three valid rows",
                          "slope_se_reason": "fewer than three valid rows, "
                                             "or all share one sigma_min"}
    result.passed = not result.scalars["diverging"]
    return result


def kernel_modulus_check(kernel, profile, tau0, h_scales, c0, seed):
    """Translation-difference integral outside B_tau0, per shift
    h = s tau0 e_1 for s in ``h_scales``.

    Checks int_{R^n \\ B_tau0} |K(y) - K(y - h)| / |h| dy <= c0 + error.
    Euclidean dyadic shells carry the Monte Carlo; the remainder beyond
    the last shell is bounded by the gradient-tail estimate.  Scales with
    no nonzero entry leave nothing to check, a PreconditionError.
    """
    if not any(h_scales):
        raise PreconditionError(
            f"no nonzero shift to check: h_scales {h_scales}")
    n = profile.n
    h_samples = [np.concatenate([[s * tau0], np.zeros(n - 1)])
                 for s in h_scales]
    # math.hypot, not np.linalg.norm: |h| squared overflows past 1e154
    for h in h_samples:
        if math.hypot(*h) >= tau0 / 2.0:
            raise ValueError("shifts must satisfy |h| < tau0 / 2")
    result = ExperimentResult()
    rows = []
    rng_master = np.random.default_rng(seed)
    far = tau0 * 2.0 ** MODULUS_SHELLS
    for h in h_samples:
        hn = math.hypot(*h)
        if hn == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        total = 0.0
        var = 0.0
        for m in range(MODULUS_SHELLS):
            r_lo, r_hi = tau0 * 2.0 ** m, tau0 * 2.0 ** (m + 1)
            cnt = MODULUS_NODES // MODULUS_SHELLS
            pts = rng_master.uniform(-r_hi, r_hi, size=(cnt, n))
            rad = np.linalg.norm(pts, axis=1)
            mask = (rad >= r_lo) & (rad < r_hi)
            box = (2.0 * r_hi) ** n
            f = np.zeros(cnt)
            if mask.any():
                f[mask] = np.abs(kernel.eval(pts[mask])
                                 - kernel.eval(pts[mask] - h[None, :])) / hn
            total += box * float(np.mean(f))
            var += box ** 2 * float(np.var(f)) / cnt
        # gradient tail: |K(y)-K(y-h)|/|h| <= sup |grad K| on the segment
        _, tg = tail_gauge_bounds(profile, far / 2.0)
        tail = profile.lambda_hi * profile.c_sigma \
            * (n + profile.sigma_max) * math.sqrt(n) * 2.0 / far * tg
        err = Z_SCORE * math.sqrt(var) + tail
        rows.append((hn, total, err))
        result.passed = result.passed and (total <= c0 + err)
    result.columns = ("h_norm", "integral", "error")
    result.rows = rows
    result.scalars = {"worst_integral": max(r[1] for r in rows),
                      "c0": c0}
    return result
