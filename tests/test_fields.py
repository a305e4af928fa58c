import numpy as np
import pytest

from anisonl import fields
from anisonl.barriers import PsiBarrier, RadialBarrier
from anisonl.fields import (AffineExterior, AnalyticField, CallableExterior,
                            ConstantExterior, GridField, estimate_c11_many,
                            second_difference)
from anisonl.profile import AnisotropyProfile


def make_affine_field(n=1, offset=1.0, slope=2.0):
    sl = (slope,) * n

    def fn(pts):
        return offset + pts @ np.asarray(sl)

    return GridField.from_function(fn, [-2.0] * n, [2.0] * n, (33,) * n,
                                   AffineExterior(offset, sl))


def test_second_difference_affine_zero(rng):
    u = make_affine_field()
    y = rng.normal(size=(200, 1)) * 3.0
    d = second_difference(u, [0.3], y)
    assert np.max(np.abs(d)) < 1e-12


def test_second_difference_quadratic():
    u = AnalyticField(lambda p: p[:, 0] ** 2, sup_bound=np.inf)
    y = np.array([[0.5, 1.0], [2.0, -1.0], [0.0, 3.0]])
    d = second_difference(u, [0.7, -0.2], y)
    assert np.allclose(d, 2.0 * y[:, 0] ** 2)


def test_second_difference_symmetry(rng):
    vals = rng.normal(size=(17, 17))
    u = GridField([-1.0, -1.0], [1.0, 1.0], vals, ConstantExterior(0.0))
    y = rng.normal(size=(100, 2))
    assert np.allclose(second_difference(u, [0.1, 0.2], y),
                       second_difference(u, [0.1, 0.2], -y))


def test_second_difference_concave_touching(rng):
    # concave function touched from above by its tangent: delta <= 0
    u = AnalyticField(lambda p: -np.sum(p ** 2, axis=1), sup_bound=np.inf)
    y = rng.normal(size=(500, 2))
    assert np.all(second_difference(u, [0.0, 0.0], y) <= 1e-14)


def test_grid_eval_interior_exterior():
    u = GridField.from_function(lambda p: np.cos(p[:, 0]),
                                [-1.0], [1.0], (201,), ConstantExterior(7.0))
    inside = u.eval(np.array([[0.5]]))
    assert inside[0] == pytest.approx(np.cos(0.5), abs=1e-4)
    assert u.eval(np.array([[1.5]]))[0] == 7.0


def test_grid_eval_reproduces_multilinear(rng):
    def fn(p):
        return 1.0 + 2.0 * p[:, 0] - p[:, 1] + 3.0 * p[:, 0] * p[:, 1]

    lo, hi = np.array([-1.0, 0.5]), np.array([2.0, 1.5])
    u = GridField.from_function(fn, lo, hi, (7, 5), ConstantExterior(0.0))
    # points on the hi faces sit in the last cell (clipped cell index)
    faces = np.array([[2.0, 1.0], [0.3, 1.5], [2.0, 1.5], [2.0, 0.5],
                      [-1.0, 1.5]])
    pts = np.vstack([rng.uniform(lo, hi, size=(500, 2)), faces])
    assert np.max(np.abs(u.eval(pts) - fn(pts))) <= 1e-12


def test_exterior_rules_vectorized():
    pts = np.array([[2.0, 0.0], [3.0, 1.0]])
    assert np.allclose(ConstantExterior(2.5)(pts), [2.5, 2.5])
    assert np.allclose(AffineExterior(1.0, (1.0, -1.0))(pts), [3.0, 3.0])
    ce = CallableExterior(lambda p: p[:, 0] * 0.0 + 4.0, sup_bound=4.0)
    assert np.allclose(ce(pts), [4.0, 4.0])
    assert ce.sup_bound == 4.0


def _cli_bump(height):
    from anisonl.cli import _solve_setup
    return _solve_setup(AnisotropyProfile(1, (1.0,)),
                        {"grid": 5, "bump_height": height}).exterior


@pytest.mark.parametrize("make, bound", [
    (lambda: ConstantExterior(0.25), 0.25),
    (lambda: ConstantExterior(-3.0), 3.0),
    (lambda: AffineExterior(0.5, (1.0,)), np.inf),
    (lambda: CallableExterior(lambda p: 0.0 * p[:, 0], 9.0), 9.0),
    # the CLI's bump exterior bounds itself by |height|, whatever the sign
    (lambda: _cli_bump(-4.0), 4.0),
], ids=["constant", "negative-constant", "affine", "callable",
        "cli-negative-bump"])
def test_exterior_sup_bound_and_far_range(make, bound):
    """Each exterior rule states its own ``sup_bound``, and its far value:
    its own value for constant and affine data, 0 for a callable."""
    ext = make()
    assert ext.sup_bound == bound
    pts = np.array([[5.0]])
    far = ext.far(pts)
    if isinstance(ext, CallableExterior):
        assert far.tolist() == [0.0]
    else:
        assert far.tolist() == ext(pts).tolist()
    assert -bound <= far[0] <= bound


def test_estimate_c11_quadratic(monkeypatch):
    monkeypatch.setattr(fields, "C11_SAFETY", 1.0)
    u = AnalyticField(lambda p: np.sum(p ** 2, axis=1), sup_bound=np.inf)
    m = estimate_c11_many(u, np.array([[0.0, 0.0]]), scale=1e-3)[0]
    # |delta| = 2|y|^2 means the probe sees exactly M = 1
    assert m == pytest.approx(1.0, rel=1e-6)


def probe_one_point(u, x, scale):
    """The C^{1,1} probe at one point, from ``second_difference``: the
    axes plus unit seed-7 normal directions (16 in all), at 0.5, 1 and 2
    times ``scale``, with safety factor 2."""
    n = len(x)
    normals = np.random.default_rng(7).normal(size=(16 - n, n))
    dirs = np.vstack([np.eye(n),
                      normals / np.linalg.norm(normals, axis=1)[:, None]])
    worst = 0.0
    for fac in (0.5, 1.0, 2.0):
        y = dirs * (fac * scale)
        d = np.abs(second_difference(u, x, y))
        worst = max(worst, float(np.max(d / (2.0 * np.sum(y ** 2, axis=1)))))
    return 2.0 * worst


def c11_probe_fields():
    prof = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)
    grid = GridField.from_function(
        lambda p: np.sin(3.0 * p[:, 0]) * np.abs(p[:, 1]),
        [-1.0, -1.0], [1.0, 1.0], (17, 13), ConstantExterior(0.5))
    return {"radial": RadialBarrier(3.0, 8.0), "psi": PsiBarrier(prof, 4.0),
            "grid": grid}


@pytest.mark.parametrize("name", ["radial", "psi", "grid"])
def test_estimate_c11_many_matches_per_point_probe(rng, name):
    u = c11_probe_fields()[name]
    # kinks (cap radius 1/2, the psi gluing ellipse, grid cells and box
    # faces) lie among the points
    X = np.vstack([rng.uniform(-1.2, 1.2, size=(9, 2)),
                   [[0.5, 0.0], [0.0, 1.0], [1.0, 0.3]]])
    for scale in (1e-3, 0.1):
        want = [probe_one_point(u, x, scale) for x in X]
        got = estimate_c11_many(u, X, scale)
        assert got.tolist() == want
        # one row at a time, as a batch of one
        assert [float(estimate_c11_many(u, x[None, :], scale)[0])
                for x in X[:3]] == want[:3]


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GridField([-1.0, -1.0], [1.0, 1.0], np.zeros(9), 0.0)
    with pytest.raises(ValueError):
        GridField([-1.0], [1.0], np.zeros(1), 0.0)
