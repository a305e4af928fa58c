import numpy as np
import pytest

from anisonl.fields import AnalyticField, second_difference
from anisonl.kernels import KernelFamily, PowerLawKernel, TruncatedKernel
from anisonl.operators import eval_extremal_many, eval_inf_sup, eval_linear
from anisonl.quadrature import QuadratureScheme, shell_radii
from conftest import bump_field, random_bumps, refined

# frozen reference values, computed beforehand with scipy.integrate.quad
# (independent dense quadrature of the exact integrands)
L_EXP_AT_0 = -3.5449077018110    # n=1, sigma=1, c_sigma=1/2, u=exp(-x^2), x=0
L_EXP_AT_04 = -2.5241345647482   # same kernel, x=0.4
MPLUS_CAP_2D = -20.0337550725    # n=2 iso sigma=1, lam=1, u=-min(|x|^2,4), x=0


def gaussian_field():
    return AnalyticField(lambda p: np.exp(-np.sum(p ** 2, axis=1)),
                         sup_bound=1.0,
                         range_outside=lambda R: (0.0, float(np.exp(-R * R))))


def test_constant_field_zero(iso1, quad_fast):
    u = AnalyticField(lambda p: np.full(p.shape[0], 3.0), sup_bound=3.0,
                      range_outside=lambda R: (3.0, 3.0))
    k = PowerLawKernel(iso1, 1.0)
    value, error = eval_linear(u, [0.0], k, quad_fast)
    assert value == 0.0
    assert error < 1e-10
    for which in ("plus", "minus"):
        values, _ = eval_extremal_many(u, [[0.0]], iso1, quad_fast, which)
        assert values[0] == 0.0


def test_linear_oracle_1d(iso1, quad_tight):
    k = PowerLawKernel(iso1, 1.0)
    u = gaussian_field()
    for x, ref in (([0.0], L_EXP_AT_0), ([0.4], L_EXP_AT_04)):
        value, error = eval_linear(u, x, k, quad_tight)
        assert value == pytest.approx(ref, rel=0.01)
        assert abs(value - ref) <= error


def test_extremal_oracle_2d_cap():
    from anisonl.profile import isotropic
    prof = isotropic(2, 1.0, 1.0, 2.0)

    def cap(p):
        return -np.minimum(np.sum(p ** 2, axis=1), 4.0)

    u = AnalyticField(cap, sup_bound=4.0,
                      range_outside=lambda R: (-4.0, -min(R * R, 4.0)))
    quad = QuadratureScheme(shells=28, nodes_per_shell=16000, far_radius=16.0,
                            r_inner=1e-9, seed=7)
    (value,), (error,) = eval_extremal_many(u, [[0.0, 0.0]], prof, quad,
                                            "plus")
    assert value == pytest.approx(MPLUS_CAP_2D, rel=0.01)
    assert abs(value - MPLUS_CAP_2D) <= error


def test_sign_duality_exact(iso1_ell, quad_fast, rng):
    amp, centre, width = random_bumps(rng)
    u = bump_field(amp, centre, width)
    w = bump_field(-amp, centre, width)
    for x in ([0.1], [-0.7], [0.9]):
        a, _ = eval_extremal_many(w, [x], iso1_ell, quad_fast, "plus")
        b, _ = eval_extremal_many(u, [x], iso1_ell, quad_fast, "minus")
        assert a[0] == -b[0]


def test_ordering_random_triples(iso1_ell, quad_fast, rng):
    for trial in range(10):
        u = bump_field(*random_bumps(rng))
        x = [float(rng.uniform(-1.5, 1.5))]
        mult = float(rng.uniform(iso1_ell.lambda_lo, iso1_ell.lambda_hi))
        k = PowerLawKernel(iso1_ell, mult)
        lv, le = eval_linear(u, x, k, quad_fast)
        (mm,), (me,) = eval_extremal_many(u, [x], iso1_ell, quad_fast,
                                          "minus")
        (mp,), (pe,) = eval_extremal_many(u, [x], iso1_ell, quad_fast, "plus")
        assert mm <= lv + me + le
        assert lv <= mp + pe + le


def test_inf_sup_singleton_equals_linear(iso1_ell, quad_fast, rng):
    u = bump_field(*random_bumps(rng))
    k = PowerLawKernel(iso1_ell, 1.3)
    fam = KernelFamily([[k]])
    assert eval_inf_sup(u, [0.2], fam, quad_fast) \
        == eval_linear(u, [0.2], k, quad_fast)


def test_inf_sup_monotone_multiplier_on_convex(iso1_ell, quad_fast):
    # delta >= 0 everywhere: the inf picks the small-multiplier branch
    u = AnalyticField(lambda p: np.minimum(p[:, 0] ** 2, 9.0), sup_bound=9.0,
                      range_outside=lambda R: (min(R * R, 9.0), 9.0))
    lam, Lam = iso1_ell.lambda_lo, iso1_ell.lambda_hi
    fam = KernelFamily([[PowerLawKernel(iso1_ell, lam)],
                        [PowerLawKernel(iso1_ell, Lam)]])   # inf over two rows
    got, _ = eval_inf_sup(u, [0.0], fam, quad_fast)
    low, _ = eval_linear(u, [0.0], PowerLawKernel(iso1_ell, lam), quad_fast)
    assert got == low


def test_inf_sup_full_enumeration(iso1_ell, quad_fast, rng):
    u = bump_field(*random_bumps(rng))
    mults = rng.uniform(iso1_ell.lambda_lo, iso1_ell.lambda_hi, size=(3, 3))
    fam = KernelFamily([[PowerLawKernel(iso1_ell, float(m)) for m in row]
                        for row in mults])
    got, _ = eval_inf_sup(u, [0.4], fam, quad_fast)
    table = [[eval_linear(u, [0.4], PowerLawKernel(iso1_ell, float(m)),
                          quad_fast)[0] for m in row] for row in mults]
    assert got == min(max(row) for row in table)


def test_comparison_surrogate(iso1_ell, quad_fast, rng):
    for _ in range(5):
        ua, uc, uw = random_bumps(rng)
        va, vc, vw = random_bumps(rng)
        u = bump_field(ua, uc, uw)
        v = bump_field(va, vc, vw)
        w = bump_field(np.concatenate([ua, -va]), np.vstack([uc, vc]),
                       np.concatenate([uw, vw]))
        x = [float(rng.uniform(-1.0, 1.0))]
        (lhs,), (le,) = eval_extremal_many(w, [x], iso1_ell, quad_fast,
                                           "plus")
        (a,), (ae,) = eval_extremal_many(u, [x], iso1_ell, quad_fast, "minus")
        (b,), (be,) = eval_extremal_many(v, [x], iso1_ell, quad_fast, "plus")
        assert lhs >= a - b - (le + ae + be)


def test_integrand_symmetry_under_reflection(iso1, rng):
    # the quadrature integrand delta * K is pointwise even
    u = gaussian_field()
    k = PowerLawKernel(iso1, 1.0)
    x = np.array([0.3])

    def f(pts):
        return second_difference(u, x, pts) * k.eval(pts)

    pts = rng.normal(size=(500, 1))
    assert np.allclose(f(pts), f(-pts), rtol=1e-12)


def test_refinement_convergence(iso1, quad_fast):
    u = gaussian_field()
    k = PowerLawKernel(iso1, 1.0)
    coarse, error = eval_linear(u, [0.0], k, quad_fast)
    fine, _ = eval_linear(u, [0.0], k, refined(quad_fast))
    assert abs(fine - coarse) <= error


def test_continuity_surrogate(iso1, quad_fast):
    # C^{1,1} field: extremal values along a segment obey a Lipschitz bound
    u = gaussian_field()
    xs = np.linspace(-0.5, 0.5, 9)
    vals, _ = eval_extremal_many(u, xs[:, None], iso1, quad_fast, "plus")
    slopes = np.abs(np.diff(vals)) / np.diff(xs)
    assert np.max(slopes) < 50.0


def test_truncated_kernel_linear_budget(iso1, quad_fast):
    base = PowerLawKernel(iso1, 1.0)

    def k2(y):
        r = np.linalg.norm(y, axis=1)
        return np.exp(-((r - 2.0) ** 2) * 4.0)

    c0 = float(np.sqrt(np.pi / 4.0) * 2.0 * 1.05)   # generous L1 budget
    trunc = TruncatedKernel(base, k2, l1_budget=c0)
    u = gaussian_field()
    a, ae = eval_linear(u, [0.0], trunc, quad_fast)
    b, be = eval_linear(u, [0.0], base, quad_fast)
    assert abs(a - b) <= 4.0 * c0 * u.sup_bound + ae + be


def test_empty_family_rejected(iso1_ell, quad_fast):
    with pytest.raises(ValueError):
        KernelFamily([])


def test_shell_radii_partition(iso1, quad_fast):
    radii = shell_radii(iso1, quad_fast)
    assert radii[0] > radii[-1] == quad_fast.r_inner
    assert np.all(np.diff(radii) < 0)


# eval_linear's (value, error) at x = (0.3, -0.2) for the Gaussian on
# aniso2 and quad_fast, frozen from the per-point evaluator that the
# batched core replaced: the truncated member pins its L1-budget widening
LINEAR_BITS = {
    "constant": (-6.0834279857264635, 2.3144882708172902),
    "callable": (-8.575138145785491, 3.545828212969314),
    "truncated": (-7.230663080802394, 13.16606236823485),
}


@pytest.mark.parametrize("name", sorted(LINEAR_BITS))
def test_linear_bits_are_frozen(aniso2, quad_fast, name):
    kernel = {
        "constant": lambda: PowerLawKernel(aniso2, 1.3),
        "callable": lambda: PowerLawKernel(
            aniso2, lambda y: 1.5 + 0.5 * np.cos(y[:, 0]), mult_lo=1.0,
            mult_hi=2.0),
        "truncated": lambda: TruncatedKernel(
            PowerLawKernel(aniso2, 1.0),
            lambda y: np.exp(-np.sum(y ** 2, axis=1)), 3.2),
    }[name]()
    assert eval_linear(gaussian_field(), [0.3, -0.2], kernel, quad_fast) \
        == LINEAR_BITS[name]
