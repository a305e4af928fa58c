import math

import numpy as np
import pytest

from anisonl import PreconditionError, experiments
from anisonl.cli import _solve_setup
from anisonl.envelope import GridEnvelope
from anisonl.experiments import (distribution_decay, fit_decay_exponent,
                                 harnack_quotient, kernel_modulus_check,
                                 normalized_solution, sigma_sweep)
from anisonl.fields import CallableExterior, ConstantExterior, GridField
from anisonl.kernels import KernelFamily, PowerLawKernel
from anisonl.profile import AnisotropyProfile, isotropic
from lemmas import holder_estimate, point_estimate_experiment
from anisonl.solver import DiscreteProblem, discrete_extremal, solve_dirichlet


def const_field(value, n=1, shape=65, box=2.0):
    return GridField.from_function(lambda p: np.full(p.shape[0], value),
                                   [-box] * n, [box] * n, (shape,) * n, value)


def field_problem(u, profile):
    """The extremal-pair problem on the lattice of the grid field ``u``:
    the lattice of harnack_quotient's M^+- checks."""
    return DiscreteProblem(profile, u.lo, u.hi, u.values.shape,
                           KernelFamily.extremal_pair(profile), u.exterior)


def bump_problem(profile, height=1.0, center=2.5, shape=129, box=4.0,
                 tol=1e-9):
    def ext(pts):
        r2 = np.sum((pts - center) ** 2, axis=1)
        return height * np.exp(-4.0 * r2)

    fam = KernelFamily.extremal_pair(profile)
    n = profile.n
    return DiscreteProblem(profile, (-box,) * n, (box,) * n, (shape,) * n,
                           fam, CallableExterior(ext, height),
                           tolerance=tol, window=None)


def test_point_estimate_trivial_zero():
    res = point_estimate_experiment(const_field(0.0), 2.0)
    assert res.scalars["measure"] == pytest.approx(1.0, rel=0.05)
    assert res.scalars["varsigma_measured"] == pytest.approx(1.0)


def test_point_estimate_invalid_precondition():
    with pytest.raises(PreconditionError, match=r"^precondition u\(0\) "
                       r"<= 1 fails: u\(0\) = 3\.0$"):
        point_estimate_experiment(const_field(3.0), 2.0)


def test_point_estimate_solved_instance_stable(iso1_ell):
    prob = bump_problem(iso1_ell)
    field, rep = solve_dirichlet(prob)
    assert rep.converged
    origin = float(field.eval(np.zeros((1, 1)))[0])
    scaled = GridField(prob.lo, prob.hi, field.values / max(origin, 1e-9),
                       ConstantExterior(0.0))
    res = point_estimate_experiment(scaled, 2.0)
    assert res.scalars["varsigma_measured"] > 0.0
    prob2 = bump_problem(iso1_ell, shape=257)
    field2, _ = solve_dirichlet(prob2)
    origin2 = float(field2.eval(np.zeros((1, 1)))[0])
    scaled2 = GridField(prob2.lo, prob2.hi, field2.values / max(origin2, 1e-9),
                        ConstantExterior(0.0))
    res2 = point_estimate_experiment(scaled2, 2.0)
    assert res2.scalars["varsigma_measured"] == pytest.approx(
        res.scalars["varsigma_measured"], rel=0.10)


def test_point_estimate_minus_operator_precondition(iso1_ell):
    # the point estimate's hypothesis M^- u <= eps0, on the solved bump
    prob = bump_problem(iso1_ell)
    field, rep = solve_dirichlet(prob)
    assert rep.converged
    top = float(np.max(discrete_extremal(prob, field)[0]))
    point_estimate_experiment(field, 2.0, prob, top + 1e-3)
    with pytest.raises(PreconditionError,
                       match=r"^precondition M\^- u <= eps0 fails$"):
        point_estimate_experiment(field, 2.0, prob, top - 1e-3)


def test_decay_bounded_field_all_zero():
    # every level is empty: no exponent to fit, a failed hypothesis
    with pytest.raises(PreconditionError, match=r"measures \[0\.0, 0\.0, "
                       r"0\.0, 0\.0, 0\.0\]$"):
        distribution_decay(const_field(0.5), 2.0, 5)


def test_decay_fit_recovers_synthetic_exponent():
    # geometric toy sequence: measures c (1 - s)^k at levels M^k
    m_level, varsigma = 2.0, 0.3
    ks = np.arange(1, 9)
    meas = 0.7 * (1.0 - varsigma) ** ks
    eps, d, resid = fit_decay_exponent(ks, meas, m_level)
    expected = -math.log(1.0 - varsigma) / math.log(m_level)
    assert eps == pytest.approx(expected, rel=0.01)
    assert resid < 1e-12


def test_decay_monotone_on_solved_instance(iso1_ell):
    prob = bump_problem(iso1_ell)
    field, _ = solve_dirichlet(prob)
    origin = float(field.eval(np.zeros((1, 1)))[0])
    scaled = GridField(prob.lo, prob.hi, field.values / max(origin, 1e-9),
                       ConstantExterior(0.0))
    # M = 1.02: u/u(0) stays below 1.14 on Q_1, and every level holds
    # points, so the comparison is not between empty levels
    res = distribution_decay(scaled, 1.02, 6)
    meas = [r[1] for r in res.rows]
    assert meas[-1] > 0.0
    assert all(a >= b - 1e-15 for a, b in zip(meas, meas[1:]))


def test_point_estimate_decay_consistency():
    # nested-interval staircase: |{u > M^k}| = (1 - s)^k exactly, u(0) = 0,
    # so the decay exponent and the point-estimate fraction must satisfy
    # the iteration identity eps = -log(1 - varsigma) / log M
    m_level, varsigma = 2.0, 0.55
    k_max = 5

    def fn(p):
        x = p[:, 0]
        out = np.zeros(p.shape[0])
        for k in range(1, k_max + 2):
            left = 0.5 - (1.0 - varsigma) ** k
            out = np.where((x >= left) & (x <= 0.5),
                           m_level ** (k + 0.5), out)
        return out

    u = GridField.from_function(fn, [-0.6], [0.6], (4801,), 0.0)
    res = distribution_decay(u, m_level, k_max)
    pe = point_estimate_experiment(u, m_level)
    vs = pe.scalars["varsigma_measured"]
    predicted = -math.log(1.0 - vs) / math.log(m_level)
    assert res.scalars["epsilon_fit"] == pytest.approx(predicted, rel=0.25)


def test_harnack_constant_field(iso1_ell):
    for value in (1.0, 5.0):
        u = const_field(value)
        res = harnack_quotient(u, 0.0, field_problem(u, iso1_ell))
        assert res.scalars["quotient"] == pytest.approx(1.0)


def test_harnack_scale_covariance_exact(iso1_ell):
    prob = bump_problem(iso1_ell)
    field, _ = solve_dirichlet(prob)
    u = GridField(prob.lo, prob.hi, np.abs(field.values),
                  ConstantExterior(0.0))
    c0 = 0.7
    q1 = harnack_quotient(u, c0, prob).scalars["quotient"]
    scaled = GridField(prob.lo, prob.hi, 3.0 * np.abs(field.values),
                       ConstantExterior(0.0))
    q2 = harnack_quotient(scaled, 3.0 * c0, prob).scalars["quotient"]
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_harnack_family_bounded(iso1_ell):
    quotients = []
    for center in (2.2, 2.6, 3.0, -2.4, -3.2):
        prob = bump_problem(iso1_ell, center=center)
        field, rep = solve_dirichlet(prob)
        assert rep.converged
        vals = np.maximum(field.values, 0.0)
        u = GridField(prob.lo, prob.hi, vals, ConstantExterior(0.0))
        origin = float(u.eval(np.zeros((1, 1)))[0])
        try:
            res = harnack_quotient(u, c0=prob.tolerance * 10 + 1e-6,
                                   problem=prob)
        except PreconditionError:
            continue
        quotients.append(res.scalars["sup_b_half"] / (origin + 1e-6))
    assert quotients
    assert max(quotients) < 1e4


def test_harnack_invalid_on_negative_field(iso1_ell):
    u = const_field(-1.0)
    with pytest.raises(PreconditionError,
                       match=r"^precondition u >= 0 fails$"):
        harnack_quotient(u, 1.0, field_problem(u, iso1_ell))


def test_harnack_names_both_failed_operator_checks(iso1_ell):
    # inside B_2, a strict maximum at 0 and strict minima at +-1 against
    # the exterior value 1: at C0 = 0, M^+ u < 0 at the maximum and
    # M^- u > 0 at the minima, and one error names both checks
    u = GridField.from_function(
        lambda p: 1.0 + 0.5 * np.cos(np.pi * p[:, 0]), [-2.0], [2.0], (65,),
        ConstantExterior(1.0))
    with pytest.raises(PreconditionError) as err:
        harnack_quotient(u, 0.0, field_problem(u, iso1_ell))
    assert str(err.value) == ("precondition M^- u <= C0 fails on B_2; "
                              "precondition M^+ u >= -C0 fails on B_2")


def test_harnack_refuses_nan(iso1_ell):
    """A NaN is not within any precondition's bound: one value of the
    normalised 1D solution set to NaN fails u >= 0, and NaN exterior data
    fail both operator checks."""
    prob = _solve_setup(iso1_ell, {"grid": 33})
    u = normalized_solution(prob)
    vals = u.values.copy()
    vals[22] = np.nan                       # x = 1.5
    with pytest.raises(PreconditionError,
                       match=r"^precondition u >= 0 fails$"):
        harnack_quotient(GridField(u.lo, u.hi, vals, u.exterior), 1.0, prob)
    u = GridField(u.lo, u.hi, np.ones(33), CallableExterior(
        lambda p: np.full(p.shape[0], np.nan), 1.0))
    with pytest.raises(PreconditionError) as err:
        harnack_quotient(u, 1.0, field_problem(u, iso1_ell))
    assert str(err.value) == ("precondition M^- u <= C0 fails on B_2; "
                              "precondition M^+ u >= -C0 fails on B_2")


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("box, shape, sigma", [
    (4.0, (25,), (1.0,)), (2.0, (15, 15), (1.0, 1.5))], ids=["1d", "2d"])
def test_lattice_reads_are_the_lattice_values(seed, box, shape, sigma):
    """On order-sweep's 1D lattice (25 points on [-4, 4]) and dirichlet-2d's
    (15^2 on [-2, 2]^2), whose spacings are not dyadic, the decay cells,
    the Harnack sup over B_1/2 and the envelope's B_1 samples are u's
    lattice values bit for bit, not multilinear reads at u's own nodes."""
    n = len(shape)
    values = np.random.default_rng(seed).uniform(0.1, 1.0, shape)
    u = GridField([-box] * n, [box] * n, values, ConstantExterior(0.0))
    # each level's measure sums the cell overlaps with Q_1 of u's values
    pts, half = u.grid_points(), 0.5 * u.h
    cells = np.prod(np.maximum(np.minimum(pts + half, 0.5)
                               - np.maximum(pts - half, -0.5), 0.0), axis=1)
    levels = [0.8 ** k for k in (1, 2, 3)]
    assert [m for _, m in distribution_decay(u, 0.8, 3).rows] == [
        float(np.sum(cells[values.ravel() > t])) for t in levels]
    profile = isotropic(n, 1.0, 1.0, 2.0) if n == 1 else \
        AnisotropyProfile(n, sigma, 1.0, 2.0)
    res = harnack_quotient(u, 1e12, field_problem(u, profile))
    in_half = np.linalg.norm(u.grid_points(), axis=1) <= 0.5
    assert res.scalars["sup_b_half"] == np.max(values.ravel()[in_half])
    env = GridEnvelope(u)
    # u >= 0.1 in B_1 and the envelope samples are 0 in B_3 \ B_1
    at = np.nonzero(env.samples > 0.0)
    assert at[0].size > 0
    assert np.array_equal(
        env.samples[at],
        values[tuple(i + f for i, f in zip(at, env.first))])


def test_holder_affine_exponent_one():
    u = GridField.from_function(lambda p: 0.3 + 2.0 * p[:, 0],
                                [-1.0], [1.0], (513,), 0.0)
    res = holder_estimate(u, [0.0], [0.5, 0.25, 0.125, 0.0625])
    assert res.scalars["gamma_fit"] == pytest.approx(1.0, abs=0.05)


def test_holder_sqrt_exponent_half():
    u = GridField.from_function(lambda p: np.sqrt(np.abs(p[:, 0])),
                                [-1.0], [1.0], (4097,), 0.0)
    res = holder_estimate(u, [0.0], [0.4, 0.2, 0.1, 0.05])
    assert res.scalars["gamma_fit"] == pytest.approx(0.5, rel=0.05)


def test_holder_constant_sentinel():
    res = holder_estimate(const_field(2.0), [0.0], [0.5, 0.25, 0.125])
    assert math.isnan(res.scalars["gamma_fit"])
    assert res.scalars.get("constant")
    with pytest.raises(ValueError):
        holder_estimate(const_field(2.0), [0.0], [0.5, 0.25])


def test_sweep_degenerate_single_profile(iso1_ell):
    prob = bump_problem(iso1_ell)
    field, _ = solve_dirichlet(prob)
    u = GridField(prob.lo, prob.hi, np.abs(field.values),
                  ConstantExterior(0.0))
    single = harnack_quotient(u, 1.0, prob).scalars["quotient"]

    res = sigma_sweep([(iso1_ell.sigma_min, single)], [])
    assert res.scalars["slope"] is None and res.scalars["slope_se"] is None
    assert res.scalars["slope_reason"] == "fewer than three valid rows"
    assert res.passed and not res.scalars["diverging"]


def test_sweep_flags_divergence():
    profiles = [isotropic(1, s, 1.0, 2.0) for s in (1.0, 1.5, 1.9, 1.99)]

    # blows up by design
    res = sigma_sweep([(p.sigma_min, 1.0 / (2.0 - p.sigma_min))
                       for p in profiles], [])
    assert res.scalars["diverging"] and not res.passed

    res2 = sigma_sweep([(p.sigma_min, 42.0) for p in profiles], [])
    assert not res2.scalars["diverging"] and res2.passed


def test_sweep_without_measured_row_raises():
    # no row to fit: invalid, with the note of every flagged row
    with pytest.raises(PreconditionError) as err:
        sigma_sweep([], ["sigma_min 1.0: a", "sigma_min 1.5: b"])
    assert str(err.value) == ("no valid sweep row; sigma_min 1.0: a; "
                              "sigma_min 1.5: b")


def test_kernel_modulus_zero_shift(iso1_ell):
    k = PowerLawKernel(iso1_ell, 1.0)
    res = kernel_modulus_check(k, iso1_ell, tau0=0.5,
                               h_scales=[0.0, 0.1], c0=100.0, seed=3)
    assert res.rows[0] == (0.0, 0.0, 0.0) and res.passed


@pytest.mark.parametrize("scales", [[], [0.0], [0, -0.0]])
def test_kernel_modulus_without_nonzero_shift(iso1_ell, scales):
    # the scales are named as they were passed
    k = PowerLawKernel(iso1_ell, 1.0)
    with pytest.raises(PreconditionError) as err:
        kernel_modulus_check(k, iso1_ell, 0.5, scales, c0=100.0, seed=3)
    assert str(err.value) == f"no nonzero shift to check: h_scales {scales}"


def test_kernel_modulus_smooth_finite_ratio(monkeypatch, iso1_ell):
    monkeypatch.setattr(experiments, "MODULUS_NODES", 40000)
    k = PowerLawKernel(iso1_ell, 1.0)
    res = kernel_modulus_check(k, iso1_ell, tau0=0.5,
                               h_scales=[0.04, 0.08], c0=1e4, seed=3)
    vals = [r[1] for r in res.rows]
    # difference quotient has a finite limit: the two integrals agree
    assert vals[0] == pytest.approx(vals[1], rel=0.25)
    assert res.passed


def test_kernel_modulus_jump_kernel_fails(monkeypatch, iso1_ell):
    smooth = PowerLawKernel(iso1_ell, 1.0)
    jump = PowerLawKernel(
        iso1_ell, lambda y: np.where(np.abs(y[:, 0]) < 1.0, 1.0, 2.0),
        mult_lo=1.0, mult_hi=2.0)
    tau0 = 0.5
    # measured beforehand: smooth = 3.96 +- 0.13, jump = 5.79 +- 0.35
    # (the jump alone contributes 2 dK = 2 (Lam-lam) c_sigma at |y| = 1)
    tight_c0 = 4.5
    monkeypatch.setattr(experiments, "MODULUS_NODES", 120000)
    ok = kernel_modulus_check(smooth, iso1_ell, tau0, [0.02], c0=tight_c0,
                              seed=3)
    assert ok.passed
    verdict = kernel_modulus_check(jump, iso1_ell, tau0, [0.02],
                                   c0=tight_c0, seed=3)
    assert not verdict.passed
    assert verdict.rows[0][1] > ok.rows[0][1] + 0.8
    with pytest.raises(ValueError):
        kernel_modulus_check(smooth, iso1_ell, tau0, [0.6], c0=1.0, seed=3)
