import tracemalloc

import numpy as np
import pytest

from anisonl import operators
from anisonl.barriers import PsiBarrier, RadialBarrier
from anisonl.fields import AnalyticField
from anisonl.kernels import KernelFamily, PowerLawKernel, TruncatedKernel
from anisonl.operators import eval_extremal_many, eval_inf_sup, eval_linear
from anisonl.profile import AnisotropyProfile
from anisonl.quadrature import (OUTER_FACTOR, QuadratureScheme, Stratum,
                                node_table, shell_radii, stratum_moments)

QUAD = QuadratureScheme(shells=10, nodes_per_shell=600, far_radius=12.0,
                        r_inner=1e-7, seed=5)


def redrawn_strata(profile, quad):
    """(points, accepted, box) per stratum, drawn here straight from the
    scheme's seed streams."""
    ex = np.array([profile.n + s for s in profile.sigma])
    radii = shell_radii(profile, quad)
    out = []
    for m in range(quad.shells + 1):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=quad.seed, spawn_key=(m,)))
        if m < quad.shells:
            hw = radii[m] ** (1.0 / ex)
            pts = rng.uniform(-hw, hw, size=(quad.nodes_per_shell, profile.n))
            g = np.sum(np.abs(pts) ** ex, axis=1)
            ok = (g < radii[m]) & (g >= radii[m + 1])
            box = float(np.prod(2.0 * hw))
        else:
            far = quad.far_radius
            pts = rng.uniform(-far, far, size=(quad.nodes_per_shell
                                               * OUTER_FACTOR,
                                               profile.n))
            g = np.sum(np.abs(pts) ** ex, axis=1)
            ok = (g >= radii[0]) & (np.linalg.norm(pts, axis=1) < far)
            box = (2.0 * far) ** profile.n
        out.append((pts, ok, box))
    return out


def oracle_extremal(u, x, profile, quad, which):
    """(quadrature value, standard error) of M^+/- u(x), one point at a
    time over the redrawn nodes."""
    lam, Lam = profile.lambda_lo, profile.lambda_hi
    a, b = (Lam, lam) if which == "plus" else (lam, Lam)
    ex = np.array([profile.n + s for s in profile.sigma])
    total, var = 0.0, 0.0
    for pts, ok, box in redrawn_strata(profile, quad):
        y = pts[ok]
        ux = u.eval(x[None, :])[0]
        d = u.eval(x + y) + u.eval(x - y) - 2.0 * ux
        vals = np.zeros(len(pts))
        vals[ok] = profile.c_sigma * (a * np.maximum(d, 0.0)
                                      - b * np.maximum(-d, 0.0)) \
            / np.sum(np.abs(y) ** ex, axis=1)
        total += box * vals.mean()
        var += box ** 2 * vals.var() / len(pts)
    return total, np.sqrt(var)


def broadcast_extremal(u, X, profile, quad, which):
    """(quadrature value, standard error) per row of ``X`` by the plain
    formulas over the redrawn nodes: x +- y as a (rows, nodes, n)
    broadcast, the sign split as pos * max(d, 0) - neg * max(-d, 0), and
    each stratum's mean and variance over its k accepted of its count
    drawn nodes, the rejected draws entering as zeros: mean = sum / count
    and var = (sum of squared deviations + (count - k) mean^2) / count."""
    lam, Lam = profile.lambda_lo, profile.lambda_hi
    a, b = (Lam, lam) if which == "plus" else (lam, Lam)
    ex = np.array([profile.n + s for s in profile.sigma])
    rows, n = X.shape
    ux = u.eval(X)
    total, var = np.zeros(rows), np.zeros(rows)
    for pts, ok, box in redrawn_strata(profile, quad):
        y = pts[ok]
        if not len(y):
            continue
        up = u.eval((X[:, None, :] + y[None, :, :]).reshape(-1, n))
        um = u.eval((X[:, None, :] - y[None, :, :]).reshape(-1, n))
        d = (up + um).reshape(rows, -1) - 2.0 * ux[:, None]
        num = a * np.maximum(d, 0.0) - b * np.maximum(-d, 0.0)
        vals = profile.c_sigma * num / np.sum(np.abs(y) ** ex, axis=1)
        count, k = len(pts), len(y)
        mean = np.sum(vals, axis=1) / count
        sq = np.sum((vals - mean[:, None]) ** 2, axis=1)
        total += box * mean
        var += box ** 2 * ((sq + (count - k) * mean ** 2) / count) / count
    return total, np.sqrt(var)


def sign_split_sums(u, X, profile, quad, which):
    """(shell sums, standard errors) of M^+/- u at the rows of ``X``, as
    ``eval_extremal_many`` takes them from ``_shell_sums``."""
    whole, seen = operators._shell_sums, []

    def spy(*args):
        seen.append(whole(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_shell_sums", spy)
        eval_extremal_many(u, X, profile, quad, which)
    return seen[0]


def oracle_fields(profile):
    return {
        "radial": RadialBarrier(3.0, 8.0),
        "psi": PsiBarrier(profile, 3.0),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["radial", "psi"])
def test_extremal_many_bitwise_equals_broadcast_formulas(n, name, rng):
    profile = AnisotropyProfile(n, (1.0, 1.5, 1.2)[:n], 1.0, 2.0)
    u = oracle_fields(profile)[name]
    # inside and outside the cap radius and the psi core
    X = np.vstack([rng.uniform(-2.5, 2.5, size=(6, n)), np.zeros((1, n)),
                   np.full((1, n), 0.5 / np.sqrt(n))])
    for which in ("plus", "minus"):
        total, se = broadcast_extremal(u, X, profile, QUAD, which)
        got_total, got_se = sign_split_sums(u, X, profile, QUAD, which)
        assert got_total.tolist() == total.tolist()
        assert got_se.tolist() == se.tolist()


@pytest.mark.parametrize("name", ["radial", "psi"])
def test_extremal_many_memory_is_bounded(aniso2, name):
    """Peak allocation of a 400-point batch stays within a fixed number of
    BLOCK_PAIRS-pair blocks plus the node table: it does not grow with the
    batch, whose x + y pairs over one shell's 512 drawn nodes would take
    up to 400 * 512 * 2 floats (3.3 MB, 12.5 blocks) in one piece.  No
    other test uses the scheme, so its table is built inside the
    measurement."""
    u = oracle_fields(aniso2)[name]
    X = np.random.default_rng(0).uniform(-2.5, 2.5, size=(400, 2))
    quad = QuadratureScheme(shells=4, nodes_per_shell=512, far_radius=12.0,
                            seed=9001)
    tracemalloc.start()
    try:
        eval_extremal_many(u, X, aniso2, quad, "minus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(a.nbytes for s in node_table(aniso2, quad)
                for a in (s.pts, s.gauge))
    block = operators.BLOCK_PAIRS * aniso2.n * 8
    assert peak < 8 * block + table


def test_node_table_matches_redrawn_nodes(aniso2):
    table = node_table(aniso2, QUAD)
    ref = redrawn_strata(aniso2, QUAD)
    assert len(table) == QUAD.shells + 1
    ex = np.array([3.0, 3.5])
    for s, (pts, ok, box) in zip(table, ref):
        assert s.count == len(pts)
        assert np.array_equal(s.pts, pts[ok])
        assert np.array_equal(s.gauge, np.sum(np.abs(pts[ok]) ** ex, axis=1))
        assert s.box == box
    assert node_table(aniso2, QUAD) is table


def test_node_table_is_read_only_and_bounded(aniso2):
    for s in node_table(aniso2, QUAD):
        assert len(s.pts) == len(s.gauge) <= s.count
        for arr in (s.pts, s.gauge):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    assert node_table.cache_info().maxsize == 8


def _stratum_of(k, count, box=2.5):
    return Stratum(np.zeros((k, 1)), np.ones(k), box=box, count=count)


def _mixed_cancelling(rng):
    # integer values of both signs summing to 1: every summation order
    # gives the same sum, so the mean 1 / count is exact and the variance
    # alone tests the closed form
    v = rng.integers(-2 ** 20, 2 ** 20, size=(3, 40)).astype(float)
    v[:, -1] += 1.0 - v.sum(axis=1)
    return v


@pytest.mark.parametrize("case", ["k=1", "k=count", "mixed", "cancelling"])
def test_stratum_moments_equal_zero_filled_formula(case, rng):
    count = 40 if case == "k=count" else 97
    vals = {"k=1": lambda: rng.normal(size=(3, 1)),
            "k=count": lambda: rng.normal(size=(3, 40)),
            "mixed": lambda: rng.normal(size=(3, 40)) * 1e3,
            "cancelling": lambda: _mixed_cancelling(rng)}[case]()
    k = vals.shape[1]
    full = np.zeros((3, count))
    full[:, np.sort(rng.choice(count, size=k, replace=False))] = vals
    s = _stratum_of(k, count)
    mean_part, var_part = stratum_moments(s, vals.copy())
    assert mean_part == pytest.approx(s.box * np.mean(full, axis=1),
                                      rel=1e-13)
    assert var_part == pytest.approx(
        s.box ** 2 * np.var(full, axis=1) / count, rel=1e-13)


def test_stratum_moments_allocate_no_drawn_row():
    """With count >> k one call peaks far below one (rows, count) array
    of floats."""
    rows, k, count = 8, 16, 1 << 16
    vals = np.random.default_rng(1).normal(size=(rows, k))
    s = _stratum_of(k, count)
    tracemalloc.start()
    try:
        stratum_moments(s, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * count * 8


@pytest.mark.parametrize("which", ["plus", "minus"])
def test_extremal_many_matches_pointwise_oracle(aniso2, which, rng):
    u = RadialBarrier(3.0, 8.0)
    X = rng.uniform(-2.0, 2.0, size=(7, 2))
    values, errors = eval_extremal_many(u, X, aniso2, QUAD, which)
    assert len(values) == len(errors) == len(X)
    total, se = sign_split_sums(u, X, aniso2, QUAD, which)
    for i, x in enumerate(X):
        val, oracle_se = oracle_extremal(u, x, aniso2, QUAD, which)
        assert total[i] == pytest.approx(val, rel=1e-12)
        assert se[i] == pytest.approx(oracle_se, rel=1e-12)
        (one,), (one_err,) = eval_extremal_many(u, [x], aniso2, QUAD, which)
        assert (one, one_err) == (values[i], errors[i])


@pytest.mark.parametrize("pairs", [1, 700, 5000])
def test_row_blocks_are_bit_identical(aniso2, rng, monkeypatch, pairs):
    u = RadialBarrier(2.0, 4.0)
    X = rng.uniform(-3.0, 3.0, size=(9, 2))
    whole = (eval_extremal_many(u, X, aniso2, QUAD, "minus")
             + sign_split_sums(u, X, aniso2, QUAD, "minus"))
    monkeypatch.setattr(operators, "BLOCK_PAIRS", pairs)
    blocked = (eval_extremal_many(u, X, aniso2, QUAD, "minus")
               + sign_split_sums(u, X, aniso2, QUAD, "minus"))
    # values, errors, shell sums and standard errors
    assert [a.tolist() for a in blocked] == [a.tolist() for a in whole]


def test_inf_sup_shares_delta_with_linear_members(aniso2, rng):
    u = AnalyticField(lambda p: np.cos(p[:, 0]) * np.exp(-p[:, 1] ** 2),
                      sup_bound=1.0)
    lam, Lam = aniso2.lambda_lo, aniso2.lambda_hi
    wavy = PowerLawKernel(aniso2, lambda y: 1.5 + 0.5 * np.cos(y[:, 0]),
                          mult_lo=lam, mult_hi=Lam)
    trunc = TruncatedKernel(PowerLawKernel(aniso2, lam),
                            lambda y: np.exp(-np.sum(y ** 2, axis=1)), 3.2)
    fam = KernelFamily([[PowerLawKernel(aniso2, Lam), wavy],
                        [trunc, PowerLawKernel(aniso2, 1.3)]])
    x = rng.uniform(-1.0, 1.0, size=2)
    got = eval_inf_sup(u, x, fam, QUAD)
    table = [[eval_linear(u, x, k, QUAD) for k in row] for row in fam.members]
    assert got == (min(max(v for v, _ in row) for row in table),
                   max(e for row in table for _, e in row))


def test_field_with_no_accepted_nodes_in_a_stratum(iso1):
    # two nodes per shell: some strata accept none and contribute zero
    quad = QuadratureScheme(shells=12, nodes_per_shell=2, far_radius=4.0,
                            r_inner=1e-6, seed=3)
    assert any(s.pts.shape[0] == 0 for s in node_table(iso1, quad))
    u = AnalyticField(lambda p: np.exp(-p[:, 0] ** 2), sup_bound=1.0)
    (total,), (se,) = sign_split_sums(u, [[0.1]], iso1, quad, "plus")
    val, oracle_se = oracle_extremal(u, np.array([0.1]), iso1, quad, "plus")
    assert total == pytest.approx(val, rel=1e-12)
    assert se == pytest.approx(oracle_se, rel=1e-12)
    values, errors = eval_extremal_many(u, [[0.1]], iso1, quad, "plus")
    assert np.isfinite(values[0]) and np.isfinite(errors[0])
