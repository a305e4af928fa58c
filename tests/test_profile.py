import math

import numpy as np
import pytest

from anisonl.profile import AnisotropyProfile, isotropic
from conftest import random_profile
from lemmas import inf_quad_outside


def test_isotropic_reduction_exact():
    p = AnisotropyProfile(2, (1.0, 1.0), 1.0, 1.0)
    assert p.c_sigma == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p.q == pytest.approx((1.0 / 3.0, 1.0 / 3.0), abs=1e-15)
    assert np.allclose(p.matrix_a(), [1.0, 1.0])


def test_mixed_orders_frozen_values():
    # q_1 = 2/7, q_2 = 4/21, checked independently by symbolic evaluation
    p = AnisotropyProfile(2, (1.0, 1.5))
    assert p.q[0] == pytest.approx(2.0 / 7.0, rel=1e-14)
    assert p.q[1] == pytest.approx(4.0 / 21.0, rel=1e-14)
    assert p.c_sigma == pytest.approx(4.0 / 21.0, rel=1e-14)
    assert p.q_max == pytest.approx(2.0 / 7.0, rel=1e-14)
    assert p.i_min == 0
    assert p.matrix_a()[1] == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-14)
    assert p.matrix_a()[0] == 1.0


def test_near_two_orders_stay_positive():
    p = AnisotropyProfile(2, (1.999, 1.999))
    assert p.c_sigma == pytest.approx((2.0 - 1.999) / (2.0 + 1.999), rel=1e-10)
    assert p.c_sigma > 0
    assert all(q > 0 for q in p.q)


@pytest.mark.parametrize("bad", [
    dict(n=2, sigma=(1.0, 2.0)),
    dict(n=2, sigma=(0.0, 1.0)),
    dict(n=2, sigma=(-0.5, 1.0)),
    dict(n=1, sigma=(1.0,), lambda_lo=2.0, lambda_hi=1.0),
    dict(n=1, sigma=(1.0,), lambda_lo=-1.0, lambda_hi=1.0),
    dict(n=0, sigma=()),
])
def test_rejects_bad_inputs(bad):
    with pytest.raises(ValueError):
        AnisotropyProfile(**bad)


def test_radii_sequence():
    p = AnisotropyProfile(2, (1.0, 1.0), rho0=1.0, frak_c=7)
    assert p.radius(0) == pytest.approx(2.0 ** (-1.0 / p.q_max))
    # rho0=1, frak_c=7, k=1: 2^-3 * 2^-21 = 2^-24
    assert p.radius(1) == pytest.approx(2.0 ** -24, rel=1e-14)
    for k in range(5):
        ratio = p.radius(k + 1) / p.radius(k)
        assert ratio == pytest.approx(2.0 ** (-p.frak_c * (p.n + p.sigma_min)),
                                      rel=1e-12)
    with pytest.raises(ValueError):
        p.radius(-1)


def test_constants_invariants_random(rng):
    for _ in range(100):
        p = random_profile(rng)
        assert all(q > 0 for q in p.q)
        assert p.c_sigma == pytest.approx(min(p.q), abs=1e-15)
        a = p.matrix_a()
        assert np.max(a) == 1.0 and np.min(a) > 0.0
        # c_sigma is attained at the largest order
        i0 = p.sigma.index(p.sigma_max)
        assert p.q[i0] == pytest.approx(p.c_sigma, abs=1e-15)


def test_series_factor_bounded_towards_two():
    # the factor closing the annulus series stays away from 0 and infinity
    for sig in np.linspace(0.1, 1.99, 40):
        for n in (1, 2, 3):
            p = isotropic(n, float(sig))
            x = p.frak_c * (n + p.sigma_min) * p.c_sigma
            val = p.c_sigma / (1.0 - 2.0 ** -x)
            assert 1e-6 < val < 1e6


def test_i_min_tie_break_smallest_index():
    p = AnisotropyProfile(3, (0.7, 0.7, 1.2))
    assert p.i_min == 0


def test_matrix_a_identity_iso(rng):
    for n in (1, 2, 3):
        s = float(rng.uniform(0.2, 1.9))
        assert np.allclose(isotropic(n, s).matrix_a(), np.ones(n))


def test_inf_quad_outside_on_axis(aniso2):
    # concave per-axis allocation puts the minimum on a coordinate axis
    r = 1e-3
    a = aniso2.matrix_a()
    expected = min(a[i] * r ** (2.0 / (2 + aniso2.sigma[i])) for i in range(2))
    assert inf_quad_outside(aniso2, r) == pytest.approx(expected, rel=1e-14)
    # brute force over the gauge sphere
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20000, 2))
    from anisonl.geometry import gauge
    g = gauge(aniso2, z)
    z = z * (r / g[:, None]) ** (1.0 / aniso2.exponents[None, :])
    vals = (a[None, :] * z ** 2).sum(axis=1)
    assert vals.min() >= inf_quad_outside(aniso2, r) - 1e-12


def test_serialization_recomputes_derived():
    p = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)
    # derived constants in the input are ignored, never trusted
    q = AnisotropyProfile.from_dict({"n": 2, "sigma": [1.0, 1.5],
                                     "lambda_lo": 1.0, "lambda_hi": 2.0,
                                     "c_sigma": 123.0})
    assert q.c_sigma == p.c_sigma and q.frak_c == p.frak_c


def test_default_frak_c_guarantee():
    for n in (1, 2, 3):
        assert isotropic(n, 1.0).frak_c \
            >= (n + 2) * math.log2(8 * math.sqrt(n)) - 1e-9
