import dataclasses
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from anisonl import solver
from anisonl.cli import _solve_setup, main
from anisonl.experiments import harnack_quotient, normalized_solution
from anisonl.fields import (AffineExterior, CallableExterior, ConstantExterior,
                            GridField)
from anisonl.kernels import KernelFamily, PowerLawKernel, TruncatedKernel
from anisonl.profile import AnisotropyProfile, isotropic
from anisonl.solver import (AssembledOperator, DiscreteProblem, Lattice,
                            assemble_weights, dense_matrix,
                            discrete_extremal, lattice_offsets,
                            solve_dirichlet)
from lemmas import truncated_control_check


@pytest.fixture(scope="module")
def prob1(iso1):
    fam = KernelFamily([[PowerLawKernel(iso1, 1.0)]])
    return DiscreteProblem(iso1, (-2.0,), (2.0,), (65,), fam,
                           ConstantExterior(0.0), tolerance=1e-10, window=64)


def test_weights_symmetric_nonnegative(iso1):
    k = PowerLawKernel(iso1, 1.0)
    off, w, tail = assemble_weights(k, np.array([0.0625]), 32)
    key = {tuple(o): i for i, o in enumerate(off)}
    for i, o in enumerate(off):
        assert w[i] == w[key[tuple(-o)]]
    assert np.all(w >= 0.0) and tail >= 0.0


def test_weights_far_field_scaling(iso1):
    # far offsets: w ~ 2 h |y|^-2 for the 1-D unit-multiplier kernel
    h = np.array([0.0625])
    k = PowerLawKernel(iso1, 1.0)
    off, w, _ = assemble_weights(k, h, 64)
    for j in (20, 40, 60):
        idx = int(np.nonzero(off[:, 0] == j)[0][0])
        y = j * h[0]
        # refined per-cell quadrature oracle (far weights are midpoint)
        fine = cell_weight(k, np.array([y]), h, 64)
        assert w[idx] == pytest.approx(2.0 * fine, rel=1e-3)
        assert w[idx] == pytest.approx(2.0 * iso1.c_sigma * h[0] / y ** 2,
                                       rel=0.01)


def test_operator_kills_affine(iso1):
    fam = KernelFamily([[PowerLawKernel(iso1, 1.0)]])
    prob = DiscreteProblem(iso1, (-2.0,), (2.0,), (33,), fam,
                           AffineExterior(0.7, (1.3,)), window=48)
    op = AssembledOperator(prob)
    pts = GridField(prob.lo, prob.hi, np.zeros(prob.shape),
                    prob.exterior).grid_points()
    res = op.apply(0.7 + 1.3 * pts[:, 0])
    assert np.max(np.abs(res)) < 1e-12


def test_solve_zero_case(prob1):
    field, rep = solve_dirichlet(prob1)
    assert rep.converged and rep.residual <= 1e-10
    assert np.max(np.abs(field.values)) == 0.0


def test_solve_affine_case(iso1):
    fam = KernelFamily([[PowerLawKernel(iso1, 1.0)]])
    prob = DiscreteProblem(iso1, (-2.0,), (2.0,), (65,), fam,
                           AffineExterior(1.0, (2.0,)), tolerance=1e-10,
                           window=64)
    field, rep = solve_dirichlet(prob)
    pts = field.grid_points()
    assert rep.converged
    assert np.max(np.abs(field.values.ravel() - (1.0 + 2.0 * pts[:, 0]))) \
        <= 1e-10


def test_dense_direct_solve_oracle(iso1):
    # 1-D isotropic single kernel, indicator exterior data on [1, 2]
    def ind(pts):
        x = pts[:, 0]
        return ((x >= 1.0) & (x <= 2.0)).astype(float)

    fam = KernelFamily([[PowerLawKernel(iso1, 1.0)]])
    prob = DiscreteProblem(iso1, (-0.9,), (0.9,), (49,), fam,
                           CallableExterior(ind, 1.0), tolerance=1e-10,
                           window=96)
    field, rep = solve_dirichlet(prob)
    assert rep.converged
    a, b = dense_matrix(prob)
    direct = np.linalg.solve(a, b)
    assert np.max(np.abs(direct - field.values.ravel())) <= 10.0 * 1e-10
    assert np.all(field.values >= 0.0)        # comparison with zero data


def test_discrete_comparison_principle(iso1_ell, rng):
    fam = KernelFamily.extremal_pair(iso1_ell)
    for _ in range(3):
        lo_val = float(rng.uniform(0.0, 0.5))
        hi_val = lo_val + float(rng.uniform(0.0, 0.5))
        pa = DiscreteProblem(iso1_ell, (-1.0,), (1.0,), (33,), fam,
                             ConstantExterior(lo_val), tolerance=1e-10,
                             window=48)
        pb = DiscreteProblem(iso1_ell, (-1.0,), (1.0,), (33,), fam,
                             ConstantExterior(hi_val), tolerance=1e-10,
                             window=48)
        ua, _ = solve_dirichlet(pa)
        ub, _ = solve_dirichlet(pb)
        assert np.all(ua.values <= ub.values + 1e-12)


def test_residual_at_convergence(iso1_ell):
    def ind(pts):
        x = pts[:, 0]
        return ((x >= 1.0) & (x <= 2.0)).astype(float)

    fam = KernelFamily.extremal_pair(iso1_ell)
    prob = DiscreteProblem(iso1_ell, (-1.0,), (1.0,), (33,), fam,
                           CallableExterior(ind, 1.0), tolerance=1e-9,
                           window=48)
    field, rep = solve_dirichlet(prob)
    assert rep.converged
    op = AssembledOperator(prob)
    res = op.apply(field.values.ravel())
    assert np.max(np.abs(res)) <= 1e-9


def test_solution_bracketed_by_extremal_operators(iso1_ell):
    def ind(pts):
        x = pts[:, 0]
        return ((x >= 1.0) & (x <= 2.0)).astype(float)

    fam = KernelFamily.extremal_pair(iso1_ell)
    prob = DiscreteProblem(iso1_ell, (-1.0,), (1.0,), (33,), fam,
                           CallableExterior(ind, 1.0), tolerance=1e-9,
                           window=48)
    field, _ = solve_dirichlet(prob)
    mm, mp = discrete_extremal(prob, field)
    assert np.max(mm) <= 1e-8       # M^- u <= I u = 0
    assert np.min(mp) >= -1e-8      # M^+ u >= I u = 0


def test_max_iters_reports_partial(iso1):
    def ind(pts):
        x = pts[:, 0]
        return ((x >= 1.0) & (x <= 2.0)).astype(float)

    fam = KernelFamily([[PowerLawKernel(iso1, 1.0)]])
    prob = DiscreteProblem(iso1, (-0.9,), (0.9,), (33,), fam,
                           CallableExterior(ind, 1.0), tolerance=1e-14,
                           max_iters=5, window=48)
    _, rep = solve_dirichlet(prob)
    assert not rep.converged and rep.iterations == 5
    assert rep.residual > 0.0


def _shell_kernel(prof, c0):
    """The power-law kernel plus c0 on the 1D shell 0.5 < |y| < 1.5."""
    def k2(y):
        r = np.abs(y[:, 0])
        return np.where((r > 0.5) & (r < 1.5), c0, 0.0)

    return TruncatedKernel(PowerLawKernel(prof, 1.0), k2, l1_budget=2.0 * c0)


def test_truncated_kernel_control(iso1, rng):
    # |I_K u - I_K1 u| <= 4 c0 sup|u| at every grid point
    c0 = 0.8
    trunc = _shell_kernel(iso1, c0)
    base = trunc.base
    for trial in range(2):
        vals = rng.normal(size=33)
        prob_full = DiscreteProblem(
            iso1, (-1.0,), (1.0,), (33,),
            KernelFamily([[trunc]]), ConstantExterior(0.0), window=48)
        prob_base = DiscreteProblem(
            iso1, (-1.0,), (1.0,), (33,),
            KernelFamily([[base]]), ConstantExterior(0.0), window=48)
        out = truncated_control_check(prob_full, prob_base, vals,
                                      c0=2.0 * c0)
        assert out["ok"]
        assert out["max_gap"] <= out["budget"]


def test_lattice_offsets_involution():
    # assemble_weights computes the first half and mirrors it: negation is
    # the index reversal, which lexicographic order gives
    for n in (1, 2, 3):
        off = lattice_offsets(n, 3)
        assert off.shape == (7 ** n - 1, n)
        as_set = {tuple(o) for o in off}
        assert len(as_set) == len(off) and (0,) * n not in as_set
        assert all(tuple(-np.array(o)) in as_set for o in as_set)
        assert np.array_equal(off[::-1], -off)
        assert [tuple(o) for o in off] == sorted(as_set)


def test_bad_spacing_rejected(iso1):
    fam = KernelFamily([[PowerLawKernel(iso1, 1.0)]])
    with pytest.raises(ValueError):
        DiscreteProblem(iso1, (0.0,), (0.0,), (5,), fam, ConstantExterior(0.0))


def cell_weight(kernel, center, h, level):
    """Cell integral of the kernel by tensor-midpoint refinement, one cell
    at a time: the oracle of the batched weight assembly."""
    n = center.size
    if level == 1:
        pts = center[None, :]
    else:
        axes = [center[d] - h[d] / 2 + (np.arange(level) + 0.5) * h[d] / level
                for d in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    vol = float(np.prod(h))
    return float(np.mean(kernel.eval(pts))) * vol


def _loop_weights(kernel, h, profile, window):
    """Reference assembly: one ``cell_weight`` call per canonical offset,
    mirrored onto its negative."""
    off = lattice_offsets(h.size, window)
    key = {tuple(o): i for i, o in enumerate(off)}
    w = np.zeros(off.shape[0])
    done = np.zeros(off.shape[0], dtype=bool)
    for i, o in enumerate(off):
        if done[i]:
            continue
        j_inf = int(np.max(np.abs(o)))
        level = 16 if j_inf <= 1 else 4 if j_inf <= 3 else 1
        w[i] = w[key[tuple(-o)]] = cell_weight(kernel, o * h, h, level)
        done[i] = done[key[tuple(-o)]] = True
    return off, 2.0 * w


@pytest.mark.parametrize("dim", [1, 2])
def test_assembly_matches_cell_weight_loop(dim, iso1_ell, aniso2):
    prof = iso1_ell if dim == 1 else aniso2
    h = np.array([0.0625]) if dim == 1 else np.array([2.0 / 7.0, 0.25])
    window = 40 if dim == 1 else 12
    kernels = [PowerLawKernel(prof, 1.3),
               PowerLawKernel(prof, lambda y: 1.5 + 0.5 * np.cos(y[:, 0]),
                              1.0, 2.0)]
    for k in kernels:
        off, w, _ = assemble_weights(k, h, window)
        off_ref, w_ref = _loop_weights(k, h, prof, window)
        assert np.array_equal(off, off_ref)
        assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-15


def _ind(pts):
    x = pts[:, 0]
    return ((x >= 1.0) & (x <= 2.0)).astype(float)


def _dense_policy_iteration(problem, max_rounds=50):
    """Nested Howard iteration on the dense member matrices of
    ``dense_matrix`` (rows A_ab u - b_ab = L_ab u - f), solved by LU."""
    fam = problem.family
    mats = [[dense_matrix(problem, (a, b)) for b in range(len(row))]
            for a, row in enumerate(fam.members)]
    big_a = np.array([[m[0] for m in row] for row in mats])
    big_b = np.array([[m[1] for m in row] for row in mats])
    rows = np.arange(big_b.shape[-1])
    u = np.zeros(rows.size)
    alpha = None
    for _ in range(max_rounds):
        new_alpha = (big_a @ u - big_b).max(axis=1).argmin(axis=0)
        if alpha is not None and np.array_equal(new_alpha, alpha):
            return u, alpha, beta
        alpha, beta = new_alpha, None
        for _ in range(max_rounds):
            new_beta = (big_a @ u - big_b)[alpha, :, rows].argmax(axis=1)
            if beta is not None and np.array_equal(new_beta, beta):
                break
            beta = new_beta
            u = np.linalg.solve(big_a[alpha, beta, rows],
                                big_b[alpha, beta, rows])
    raise AssertionError("dense policy iteration did not settle")


def _mixed_rhs(pts):
    return 2.0 * np.sin(3.0 * pts[:, 0])


def test_mixed_sign_rhs_extremal_pair_dense_oracle(iso1_ell):
    fam = KernelFamily.extremal_pair(iso1_ell)
    prob = DiscreteProblem(iso1_ell, (-1.0,), (1.0,), (33,), fam,
                           CallableExterior(_ind, 1.0), rhs=_mixed_rhs,
                           tolerance=1e-11, window=48)
    field, rep = solve_dirichlet(prob)
    assert rep.converged and rep.residual <= 1e-11
    oracle, _, beta = _dense_policy_iteration(prob)
    assert set(beta) == {0, 1}                 # both members active
    assert np.max(np.abs(field.values.ravel() - oracle)) <= 1e-9


def _wave_kernel(prof):
    """A 2D power-law kernel with a callable multiplier in [1, 2]."""
    return PowerLawKernel(
        prof, lambda y: 1.5 + 0.5 * np.cos(y[:, 0] - y[:, 1]), 1.0, 2.0)


def _wave_rhs(pts):
    return np.cos(2.0 * pts[:, 0]) * pts[:, 1]


@pytest.mark.parametrize("kind", ["callable", "truncated"])
def test_one_member_solve_dense_oracle(kind, iso1, aniso2):
    """A one-member family of any kernel is its own base stencil: CG on
    it matches the dense solve of its ``dense_matrix``."""
    if kind == "callable":
        prob = DiscreteProblem(aniso2, (-1.0, -0.8), (1.0, 0.8), (9, 7),
                               KernelFamily([[_wave_kernel(aniso2)]]),
                               AffineExterior(0.3, (0.5, -0.2)),
                               rhs=_wave_rhs, tolerance=1e-11)
    else:
        prob = DiscreteProblem(iso1, (-1.0,), (1.0,), (33,),
                               KernelFamily([[_shell_kernel(iso1, 0.8)]]),
                               CallableExterior(_ind, 1.0), rhs=_mixed_rhs,
                               tolerance=1e-11, window=48)
    field, rep = solve_dirichlet(prob)
    assert rep.converged
    a, b = dense_matrix(prob)
    direct = np.linalg.solve(a, b)
    assert np.max(np.abs(direct - field.values.ravel())) <= 1e-9


def _switching_family(prof):
    """2x2 inf-sup family with non-constant multipliers in [1, 2]."""
    def wave(y):
        return 1.5 + 0.5 * np.cos(4.0 * y[:, 0])

    def dip(y):
        return 2.0 - np.sin(3.0 * y[:, 0]) ** 2

    return KernelFamily([
        [PowerLawKernel(prof, 1.0), PowerLawKernel(prof, wave, 1.0, 2.0)],
        [PowerLawKernel(prof, 2.0), PowerLawKernel(prof, dip, 1.0, 2.0)]])


@pytest.mark.parametrize("kind, member", [("switching", "(0, 1)"),
                                          ("zero", "(0, 0)")])
def test_other_families_are_refused(kind, member, iso1_ell):
    """A family that is not m_ab times one base kernel, m_ab > 0, has no
    single SPD system: the operator names the first member that breaks
    the rule."""
    fam = _switching_family(iso1_ell) if kind == "switching" \
        else KernelFamily([[PowerLawKernel(iso1_ell, 0.0)]])
    prob = DiscreteProblem(iso1_ell, (-1.0,), (1.0,), (33,), fam,
                           CallableExterior(_ind, 1.0), window=48)
    with pytest.raises(ValueError, match=re.escape(
            f"member {member}, a PowerLawKernel")):
        AssembledOperator(prob)


@pytest.mark.parametrize("family", ["pair", "callable"])
def test_apply_matches_dense_2d(family, aniso2, rng):
    if family == "pair":
        fam = KernelFamily.extremal_pair(aniso2)
        ext = CallableExterior(
            lambda p: np.exp(-np.sum((p - 1.2) ** 2, axis=1)), 1.0)
    else:
        fam = KernelFamily([[_wave_kernel(aniso2)]])
        ext = AffineExterior(0.3, (0.5, -0.2))    # tail couples to far data
    prob = DiscreteProblem(aniso2, (-1.0, -0.8), (1.0, 0.8), (9, 7), fam,
                           ext, rhs=_wave_rhs)
    u = rng.normal(size=9 * 7)
    got = AssembledOperator(prob).apply(u)
    dense = [dense_matrix(prob, (0, b)) for b in range(len(fam.members[0]))]
    want = np.max([a @ u - b for a, b in dense], axis=0)
    scale = max(np.max(np.abs(a)) for a, _ in dense) * np.max(np.abs(u))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


EXTERIORS = {
    "constant": lambda n: ConstantExterior(0.4),
    "affine": lambda n: AffineExterior(0.3, (0.5, -0.2)[:n]),
    "bump": lambda n: CallableExterior(
        lambda p: np.exp(-np.sum((p - 1.2) ** 2, axis=1)), 1.0),
}


BOXES = [((-1.0,), (1.0,), (17,)), ((-1.0, -0.8), (1.0, 0.8), (9, 7))]


@pytest.mark.parametrize("kind", sorted(EXTERIORS))
@pytest.mark.parametrize("box", BOXES)
def test_discrete_extremal_matches_dense(kind, box, rng):
    """M^-_h and M^+_h against the dense rows A u - b of the members
    lambda L and Lambda L: equal to both at lambda = Lambda; otherwise
    they bracket each member and sum to the two members' sum."""
    lo, hi, shape = box
    n = len(shape)
    ext = EXTERIORS[kind](n)
    vals = rng.normal(size=shape)
    for lam_hi in (1.0, 2.0):
        prof = AnisotropyProfile(n, (1.0, 1.5)[:n], 1.0, lam_hi)
        prob = DiscreteProblem(prof, lo, hi, shape,
                               KernelFamily.extremal_pair(prof), ext)
        mm, mp = (m.ravel() for m in discrete_extremal(
            prob, GridField(lo, hi, vals, ext)))
        u = vals.ravel()
        # at lambda = Lambda both members are the same matrix
        dense = [dense_matrix(prob, (0, b)) for b in range(1 + (lam_hi > 1))]
        members = [a @ u - b for a, b in dense]
        tol = 1e-12 * max(np.max(np.abs(a)) for a, _ in dense) \
            * np.max(np.abs(u))
        if len(members) == 1:
            assert np.max(np.abs(mm - members[0])) <= tol
            assert np.max(np.abs(mp - members[0])) <= tol
        else:
            assert np.max(np.abs(mm + mp - members[0] - members[1])) <= tol
            for m in members:
                assert np.all(mm <= m + tol) and np.all(m <= mp + tol)


@pytest.mark.parametrize("kind", sorted(EXTERIORS))
@pytest.mark.parametrize("box", BOXES)
def test_extremal_at_lambda_equal_is_the_solver_operator(kind, box, rng):
    """At lambda = Lambda, M^-_h and M^+_h of a field carrying the
    problem's own exterior are the solver's I_h u, bit for bit: L_h u is
    read off the FFT stencil that CG applies."""
    lo, hi, shape = box
    n = len(shape)
    ext = EXTERIORS[kind](n)
    prof = AnisotropyProfile(n, (1.0, 1.5)[:n], 1.0, 1.0)
    prob = DiscreteProblem(prof, lo, hi, shape,
                           KernelFamily.extremal_pair(prof), ext)
    vals = rng.normal(size=shape)
    want = AssembledOperator(prob).apply(vals)
    for got in discrete_extremal(prob, GridField(lo, hi, vals, ext)):
        assert np.array_equal(got.ravel(), want)


def test_extremal_of_normalised_affine_data_is_finite(iso1_ell):
    """normalized_solution scales affine exterior data, whose sup_bound
    is infinite, with its own far value, not the midpoint of +-inf, so
    M^-+_h are finite."""
    prob = DiscreteProblem(iso1_ell, (-2.0,), (2.0,), (17,),
                           KernelFamily.extremal_pair(iso1_ell),
                           AffineExterior(1.0, (0.1,)))
    for m in discrete_extremal(prob, normalized_solution(prob)):
        assert np.all(np.isfinite(m))


@pytest.mark.parametrize("rule", [
    lambda n: ConstantExterior(2.0),
    lambda n: AffineExterior(1.0, (0.1, -0.05)[:n]),
], ids=["constant", "affine"])
@pytest.mark.parametrize("shape", [(33,), (17, 17)], ids=["1d", "2d"])
def test_normalised_extremal_is_the_scaled_solved_extremal(rule, shape):
    """normalized_solution scales the exterior rule's far value with its
    values, so M^-+_h of the normalised field are the scale times those of
    the solved field, whose data (f = 0, harmonic exterior) make them 0."""
    n = len(shape)
    prof = AnisotropyProfile(n, (1.0, 1.5)[:n], 1.0, 2.0)
    prob = DiscreteProblem(prof, (-2.0,) * n, (2.0,) * n, shape,
                           KernelFamily.extremal_pair(prof), rule(n),
                           tolerance=1e-10)
    field, _ = solve_dirichlet(prob)
    scale = 1.0 / float(field.eval(np.zeros((1, n)))[0])
    got = discrete_extremal(prob, normalized_solution(prob))
    for m, want in zip(got, discrete_extremal(prob, field)):
        assert np.max(np.abs(m - scale * want)) <= 1e-12


def test_discrete_extremal_memory_is_bounded():
    """Peak allocation on the 2D 33^2 normalised Harnack solution stays
    below an eighth of one (canonical offsets x lattice points) float64
    array: the pair sums hold one offset's second differences at a time."""
    prof = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)
    prob = _solve_setup(prof, {"grid": 33})
    u = normalized_solution(prob)
    tracemalloc.start()
    try:
        discrete_extremal(prob, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = len(lattice_offsets(2, prob.window)) // 2
    assert peak < pairs * 33 ** 2 * 8 // 8      # bytes of the array / 8


def test_lattice_assembled_once_per_problem(monkeypatch, tmp_path):
    """One lattice per problem: a harnack run (the normalised solve, then
    the quotient's M^-+_h) assembles the base weights once and pads each
    exterior rule once; a 3-row sweep assembles once per row."""
    assembled, padded = [], []
    whole_assemble, whole_padded = solver.assemble_weights, Lattice.padded

    def count_assemble(*args):
        assembled.append(args[0])
        return whole_assemble(*args)

    def count_padded(self, rule):
        padded.append(rule)
        return whole_padded(self, rule)

    monkeypatch.setattr(solver, "assemble_weights", count_assemble)
    monkeypatch.setattr(Lattice, "padded", count_padded)
    prof = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)
    problem = _solve_setup(prof, {"grid": 17})
    harnack_quotient(normalized_solution(problem), 1.0, problem)
    assert len(assembled) == 1
    # the problem's exterior in the solve, u's scaled one in M^-+_h
    assert len(padded) == 2 and max(Counter(map(id, padded)).values()) == 1
    assembled.clear()
    padded.clear()
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "command": "sweep",
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"sigma_min_values": [1.0, 1.5, 1.9], "grid": 25,
                   "tolerance": 1e-10}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(assembled) == 3
    assert len(padded) == 6 and max(Counter(map(id, padded)).values()) == 1


def test_extremal_reads_the_class_lattice(aniso2, rng):
    """M^-+_h belong to the class, not to the family: on a problem whose
    one member is a callable-multiplier kernel, solved on a lattice of its
    own, they equal bit for bit those of the same box with the extremal
    pair, whose solve shares the problem's lattice."""
    lo, hi, shape = (-1.0, -0.8), (1.0, 0.8), (9, 7)
    ext = AffineExterior(0.3, (0.5, -0.2))
    wave = DiscreteProblem(aniso2, lo, hi, shape,
                           KernelFamily([[_wave_kernel(aniso2)]]), ext)
    pair = DiscreteProblem(aniso2, lo, hi, shape,
                           KernelFamily.extremal_pair(aniso2), ext)
    assert AssembledOperator(wave).lattice is not wave.lattice
    assert AssembledOperator(pair).lattice is pair.lattice
    u = GridField(lo, hi, rng.normal(size=shape), ext)
    for got, want in zip(discrete_extremal(wave, u),
                         discrete_extremal(pair, u)):
        assert np.array_equal(got, want)


def test_quotient_on_an_unsolved_problem(iso1_ell):
    """The benchmark oracle's path: a dense solve, then harnack_quotient on
    a problem the lattice solver never saw, which builds its lattice on
    first use.  The quotient equals the one on a solved problem."""
    fresh, solved = (_solve_setup(iso1_ell, {"grid": 25}) for _ in range(2))
    solve_dirichlet(solved)
    assert "lattice" not in vars(fresh) and "lattice" in vars(solved)
    a, b = dense_matrix(fresh)
    ext = fresh.exterior
    field = GridField(fresh.lo, fresh.hi, np.linalg.solve(a, b), ext)
    scale = 1.0 / float(field.eval(np.zeros((1, 1)))[0])
    u = GridField(fresh.lo, fresh.hi, field.values * scale,
                  CallableExterior(lambda p: ext(p) * scale,
                                   ext.sup_bound * scale))
    got = harnack_quotient(u, 1.0, fresh).scalars
    assert got == harnack_quotient(u, 1.0, solved).scalars
    assert got["u0"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("change", [{}, {"lambda_lo": 0.5},
                                    {"lambda_hi": 3.0}, {"rho0": 0.01}],
                         ids=["equal", "lambda", "Lambda", "rho0"])
def test_class_membership_is_by_value(aniso2, change):
    """A power-law kernel depends on n and sigma alone: the extremal pair
    of a profile q with the problem's orders, another object than the
    problem's profile (equal to it, or not in lambda, Lambda or rho0),
    shares the class lattice and solves bit for bit as the same
    multipliers on the problem's own profile object."""
    q = dataclasses.replace(aniso2, **change)
    assert q is not aniso2 and q.sigma == aniso2.sigma
    box = ((-1.0, -1.0), (1.0, 1.0), (9, 9))
    ext = AffineExterior(0.3, (0.5, -0.2))
    prob = DiscreteProblem(aniso2, *box, KernelFamily.extremal_pair(q), ext)
    assert AssembledOperator(prob).lattice is prob.lattice
    same = DiscreteProblem(aniso2, *box, KernelFamily([[
        PowerLawKernel(aniso2, q.lambda_lo),
        PowerLawKernel(aniso2, q.lambda_hi)]]), ext)
    got, report = solve_dirichlet(prob)
    want, _ = solve_dirichlet(same)
    assert report.converged
    assert np.array_equal(got.values, want.values)


def test_member_of_other_orders_keeps_its_own_tail(aniso2):
    """One member of orders (0.5, 0.5) on a sigma = (1, 1.5) problem: its
    lattice is assembled with its own orders, so its tail is that of a
    problem whose profile is the member's (8.141, where the problem's
    orders give 0.868), and the dense oracle agrees with the FFT solve."""
    q = isotropic(2, 0.5)
    box = ((-1.0, -1.0), (1.0, 1.0), (9, 9))
    ext = AffineExterior(0.3, (0.5, -0.2))
    member = KernelFamily([[PowerLawKernel(q, 1.0)]])
    prob = DiscreteProblem(aniso2, *box, member, ext, tolerance=1e-10)
    own = DiscreteProblem(q, *box, member, ext)
    tail = AssembledOperator(prob).lattice.tail
    assert tail == own.lattice.tail
    assert tail == pytest.approx(8.141, abs=1e-3)
    A, b = dense_matrix(prob)
    field, report = solve_dirichlet(prob)
    assert report.converged
    # |u - A^-1 b| <= residual * ||A^-1||_inf <= residual / tail
    np.testing.assert_allclose(field.values.ravel(), np.linalg.solve(A, b),
                               rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("lo, hi, shape", [
    ((-2.0, -2.0), (2.0, 2.0), (9, 9)),
    ((-1.0, -1.5), (1.0, 1.0), (9, 9)),
    ((-1.0, -1.0), (1.0, 1.5), (9, 9)),
    ((-1.0, -1.0), (1.0, 1.0), (9, 7))], ids=["box", "lo", "hi", "shape"])
def test_extremal_refuses_a_field_on_another_lattice(aniso2, lo, hi, shape):
    """M^-+_h read u's values as the problem's lattice values: a field of
    another box or shape is refused, by ``harnack_quotient`` too, rather
    than measured as the wrong field."""
    prob = DiscreteProblem(aniso2, (-1.0, -1.0), (1.0, 1.0), (9, 9),
                           KernelFamily.extremal_pair(aniso2),
                           ConstantExterior(0.0))
    u = GridField(lo, hi, np.ones(shape), 1.0)
    with pytest.raises(ValueError, match="is not the problem's"):
        discrete_extremal(prob, u)
    with pytest.raises(ValueError, match="is not the problem's"):
        harnack_quotient(u, 1.0, prob)
