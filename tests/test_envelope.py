import itertools
import math
import tracemalloc

import numpy as np
import pytest

from anisonl.abp import abp_cover
from anisonl.envelope import concave_envelope, contact_set, lattice_gap
from anisonl.fields import GridField
from anisonl.profile import AnisotropyProfile
from hulls import (ConcaveEnvelope1D, ConcaveEnvelope2D, cell_tube,
                   lattice_hull)


def tent_field(peak=0.0, steep=1.0, shape=257):
    def fn(p):
        return np.maximum(0.0, 1.0 - steep * np.abs(p[:, 0] - peak))
    return GridField.from_function(fn, [-4.0], [4.0], (shape,), 0.0)


def hull_oracle_1d(xs, vs, q):
    """Exhaustive upper hull: min over dominating lines through pairs."""
    best = np.inf
    m = len(xs)
    for i in range(m):
        for j in range(i + 1, m):
            if xs[j] - xs[i] < 1e-12:
                continue
            s = (vs[j] - vs[i]) / (xs[j] - xs[i])
            b = vs[i] - s * xs[i]
            if np.all(s * xs + b >= vs - 1e-12):
                best = min(best, s * q + b)
    return best


def test_tent_envelope_two_lines():
    # the exact hull of the lattice samples is two lines of slope +-1/3;
    # the slope grid brackets it, and its steepest lifted slope is 1/3
    u = tent_field()
    env = concave_envelope(u)
    hull, pts = lattice_hull(env)
    assert np.allclose(hull.vx, [-3.0, 0.0, 3.0])
    assert np.allclose(hull.vy, [0.0, 1.0, 0.0])
    assert np.allclose(hull.slopes, [1.0 / 3.0, -1.0 / 3.0])
    gap = env.values[env.ball] - (1.0 - np.abs(pts[:, 0]) / 3.0)
    assert np.all(gap >= -1e-12) and np.all(gap <= 3.0 * env.step + 1e-12)
    assert env.lipschitz() == pytest.approx(1.0 / 3.0, abs=env.step)
    planes = env.supporting_planes()
    assert planes.shape[1] == 2 and len(planes) >= 2


def test_tent_contact_is_origin():
    u = tent_field()
    env = concave_envelope(u)
    pts, degen = contact_set(env)
    assert not degen
    # the peak is in the set; the tolerance may admit its direct neighbours
    assert np.min(np.abs(pts[:, 0])) == pytest.approx(0.0)
    assert np.max(np.abs(pts[:, 0])) <= 2.0 * float(u.h[0]) + 1e-12


def test_shifted_tent_contact():
    u = tent_field(peak=0.3, steep=2.0, shape=401)
    env = concave_envelope(u)
    pts, _ = contact_set(env)
    assert pts.shape[0] >= 1
    assert np.all(np.abs(pts[:, 0]) <= 1.0 + 1e-9)
    assert np.min(np.abs(pts[:, 0] - 0.3)) < 1e-9


def test_nonpositive_field_gives_zero_envelope():
    u = GridField.from_function(lambda p: -1.0 - p[:, 0] ** 2,
                                [-4.0], [4.0], (129,), -1.0)
    env = concave_envelope(u)
    assert np.allclose(env.values[env.ball], 0.0)
    u2 = GridField.from_function(lambda p: -1.0 - np.sum(p ** 2, axis=1),
                                 [-4.0, -4.0], [4.0, 4.0], (33, 33), -1.0)
    env2 = concave_envelope(u2)
    assert np.allclose(env2.values[env2.ball], 0.0)


def test_envelope_matches_exhaustive_hull_oracle(rng):
    xs = np.linspace(-3.0, 3.0, 41)
    vs = np.maximum(0.0, 1.0 - xs ** 2 / 4.0) + 0.05 * rng.normal(size=41)
    vs = np.maximum(vs, 0.0)
    vs[np.abs(xs) > 1.0] = 0.0     # keep the u <= 0 outside B_1 shape
    env = ConcaveEnvelope1D.from_samples(xs, vs)
    for q in rng.uniform(-2.9, 2.9, size=12):
        assert env.eval([[q]])[0] == pytest.approx(
            hull_oracle_1d(xs, vs, q), abs=1e-9)


def test_concave_samples_reproduced_exactly(rng):
    # random concave u+ on the grid: the hull passes through every sample
    xs = np.linspace(-3.0, 3.0, 33)
    slopes = np.sort(rng.uniform(-1.0, 1.0, size=32))[::-1]
    vs = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    vs -= vs.min()
    env = ConcaveEnvelope1D.from_samples(xs, vs)
    assert np.allclose(env.eval(xs[:, None]), vs, atol=1e-10)


def test_idempotence_1d(rng):
    u = tent_field(steep=2.0)
    env = concave_envelope(u)
    xs, vals = env.axes[0][env.ball], env.values[env.ball]
    env2 = ConcaveEnvelope1D.from_samples(xs, vals)
    assert np.allclose(env2.eval(xs[:, None]), vals, atol=1e-12)


def polyhedral_cloud(shape, rng=None, drop=0.55):
    ax = np.linspace(-3.0, 3.0, shape)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 3.0]
    planes = [1.0 - 2.0 * pts[:, 0] - 0.5 * pts[:, 1], 1.0 + 1.8 * pts[:, 0],
              1.0 - 1.3 * pts[:, 1], 1.0 + 1.6 * pts[:, 1] + 0.3 * pts[:, 0]]
    vals = np.maximum(np.minimum.reduce(planes) - drop, 0.0)
    return pts, vals


def test_idempotence_2d_257():
    pts, vals = polyhedral_cloud(257)
    env = ConcaveEnvelope2D.from_samples(pts, vals)
    g = env.eval(pts)
    assert np.all(g >= vals - 1e-9)
    env2 = ConcaveEnvelope2D.from_samples(pts, g)
    assert np.allclose(env2.eval(pts), g, atol=1e-9)


def test_monotonicity_2d_257():
    pts, v1 = polyhedral_cloud(257)
    v2 = v1 + 0.2 * np.maximum(0.0, 1.0 - np.sum(pts ** 2, axis=1))
    e1 = ConcaveEnvelope2D.from_samples(pts, v1)
    e2 = ConcaveEnvelope2D.from_samples(pts, v2)
    assert np.all(e1.eval(pts) <= e2.eval(pts) + 1e-9)


def test_monotonicity_1d(rng):
    xs = np.linspace(-3.0, 3.0, 65)
    v1 = np.maximum(0.0, 1.0 - np.abs(xs))
    v1[np.abs(xs) > 1.0] = 0.0
    v2 = v1 + np.maximum(0.0, 0.3 - xs ** 2)
    e1 = ConcaveEnvelope1D.from_samples(xs, v1)
    e2 = ConcaveEnvelope1D.from_samples(xs, v2)
    q = np.linspace(-3, 3, 301)[:, None]
    assert np.all(e1.eval(q) <= e2.eval(q) + 1e-12)


def test_grad_image_affine_zero():
    xs = np.linspace(-3.0, 3.0, 11)
    env = ConcaveEnvelope1D.from_samples(xs, 0.5 + 0.1 * xs)
    assert env.grad_image_measure([-1.0], [1.0]) == 0.0


def test_grad_image_tent_peak():
    env = ConcaveEnvelope1D.from_samples(np.array([-3.0, 0.0, 3.0]),
                                         np.array([0.0, 1.0, 0.0]))
    assert env.grad_image_measure([-0.5], [0.5]) == pytest.approx(2.0 / 3.0)
    # away from the kink the image is a single slope: measure zero
    assert env.grad_image_measure([0.5], [1.0]) == pytest.approx(0.0)


def test_grad_image_paraboloid_vs_mc_oracle(rng):
    from scipy.interpolate import LinearNDInterpolator
    ax = np.linspace(-3.0, 3.0, 129)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 3.0]
    vals = 1.0 - np.sum(pts ** 2, axis=1) / 9.0
    ang = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    ring = 3.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    cloud = np.vstack([pts, ring])
    cvals = np.concatenate([vals, np.zeros(512)])
    env = ConcaveEnvelope2D.from_samples(cloud, cvals)
    # measure away from the domain boundary (ring-chord slivers live there)
    measured = env.grad_image_measure([-2.9, -2.9], [2.9, 2.9])

    # Monte Carlo footprint of finite-difference gradients of the sampled
    # surface itself (independent of the hull machinery)
    surf = LinearNDInterpolator(cloud, cvals)
    q = rng.uniform(-2.9, 2.9, size=(300_000, 2))
    h = 1e-5
    gx = (surf(q + [h, 0.0]) - surf(q - [h, 0.0])) / (2 * h)
    gy = (surf(q + [0.0, h]) - surf(q - [0.0, h])) / (2 * h)
    good = np.isfinite(gx) & np.isfinite(gy)
    hist, xe, ye = np.histogram2d(gx[good], gy[good], bins=64,
                                  range=[[-0.75, 0.75], [-0.75, 0.75]])
    oracle = (hist > 0).sum() * (xe[1] - xe[0]) * (ye[1] - ye[0])
    assert measured == pytest.approx(oracle, rel=0.05)


def test_grad_image_additive_over_split():
    ax = np.linspace(-3.0, 3.0, 65)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 3.0]
    vals = 1.0 - np.sum(pts ** 2, axis=1) / 9.0
    env = ConcaveEnvelope2D.from_samples(pts, vals)
    c = float(ax[33])   # split through a lattice line, mass spread out
    whole = env.grad_image_measure([-3.0, -3.0], [3.0, 3.0])
    parts = (env.grad_image_measure([-3.0, -3.0], [c, c])
             + env.grad_image_measure([c, -3.0], [3.0, c])
             + env.grad_image_measure([-3.0, c], [c, 3.0])
             + env.grad_image_measure([c, c], [3.0, 3.0]))
    # vertices on the split lines are shared; the sum may only overcount
    assert parts >= whole - 1e-12
    assert parts <= whole * 1.25 + 1e-12


def _cap(p):
    return np.maximum(0.0, 1.0 - 2.0 * np.sum(p ** 2, axis=1))


def _tent(p):
    """Slope 2 in l^1 off its peak at (0.2, -0.2) (0.2 in 1D)."""
    peak = 0.2 * (-1.0) ** np.arange(p.shape[1])
    return np.maximum(0.0, 1.0 - 2.0 * np.sum(np.abs(p - peak), axis=1))


def _paraboloid(p):
    return 1.0 - np.sum(p ** 2, axis=1)


def _oracle_field(kind, n, arg):
    """The field of an oracle case: ``arg`` is the grid of a closed form,
    or the seed of uniform values on B_0.9 of a 41^n lattice (zero
    elsewhere)."""
    if kind == "random":
        g = GridField([-2.0] * n, [2.0] * n, np.zeros((41,) * n), 0.0)
        pts = g.grid_points()
        v = np.random.default_rng(arg).uniform(0.0, 1.0, len(pts))
        v[np.linalg.norm(pts, axis=1) > 0.9] = 0.0
        return GridField(g.lo, g.hi, v.reshape(g.values.shape), 0.0)
    fn, exterior = {"cap": (_cap, 0.0), "tent": (_tent, 0.0),
                    "paraboloid": (_paraboloid, -3.0)}[kind]
    return GridField.from_function(fn, [-2.0] * n, [2.0] * n, (arg,) * n,
                                   exterior)


# the CLI cap at its grids 33 and 129, a tent, a paraboloid and seeded
# random fields, in 1D and 2D
ORACLE_CASES = [(kind, n, arg) for n in (1, 2) for kind, arg in
                [("cap", 33), ("cap", 129), ("tent", 65), ("paraboloid", 65),
                 ("random", 0), ("random", 1), ("random", 2)]]
ORACLE_IDS = [f"{kind}-{n}d-{arg}" for kind, n, arg in ORACLE_CASES]


@pytest.mark.parametrize("kind, n, arg", ORACLE_CASES, ids=ORACLE_IDS)
def test_grid_envelope_brackets_the_lattice_hull(kind, n, arg):
    """At every lattice point of B_3, Gamma <= Gamma_D <= Gamma + 3 sqrt(n)
    ds, with Gamma the exact hull of the same lattice samples."""
    env = concave_envelope(_oracle_field(kind, n, arg))
    hull, pts = lattice_hull(env)
    gap = env.values[env.ball] - hull.eval(pts)
    assert gap.min() >= -1e-12
    assert gap.max() <= 3.0 * math.sqrt(n) * env.step + 1e-12


def maximiser_points(env):
    """The lattice point of each slope's maximiser, (slopes..., n)."""
    at = np.unravel_index(env.maximisers, env.samples.shape)
    return np.stack([ax[i] for ax, i in zip(env.axes, at)], axis=-1)


def brute_grad_image(env, lo, hi):
    """step^n times the count of slopes whose maximiser lies in [lo, hi]
    to 1e-12, by one pass over every slope's maximiser."""
    y = maximiser_points(env)
    hit = np.all((y >= np.asarray(lo) - 1e-12)
                 & (y <= np.asarray(hi) + 1e-12), axis=-1)
    return float(np.count_nonzero(hit)) * env.step ** y.shape[-1]


@pytest.mark.parametrize("n, grid", [(1, 65), (2, 33), (3, 17)])
def test_grad_image_lookup_equals_brute_count(n, grid, rng):
    """The sorted-index count equals the pass over every maximiser, bit for
    bit, on random rectangles and on rectangles whose faces lie on lattice
    points, where the 1e-12 slack decides."""
    u = GridField.from_function(
        lambda p: _cap(p) - 0.1 * np.sum(np.abs(p), axis=1),
        [-2.0] * n, [2.0] * n, (grid,) * n, -1.0)
    env = concave_envelope(u)
    rects = [(np.full(n, -3.0), np.full(n, 3.0))]
    for _ in range(100):
        a = rng.uniform(-3.5, 3.5, size=(2, n))
        rects.append((a.min(axis=0), a.max(axis=0)))
        lo = np.array([ax[rng.integers(len(ax))] for ax in env.axes])
        rects.append((lo, lo + rng.integers(0, 5, size=n) * u.h))
    for lo, hi in rects:
        assert env.grad_image_measure(lo, hi) == brute_grad_image(env, lo, hi)
    assert env.grad_image_measure(*rects[0]) > 0.0


def _coarse_measure(env, lo, hi):
    """The gradient image at slope spacing 2 ds: the nested grid of the
    even multiples of ds, whose maximisers are those of the fine grid."""
    even = np.all(np.rint(env.gradients / env.step) % 2 == 0, axis=-1)
    y = maximiser_points(env)
    hit = even & np.all((y >= lo - 1e-12) & (y <= hi + 1e-12), axis=-1)
    return float(np.count_nonzero(hit)) * (2.0 * env.step) ** y.shape[-1]


@pytest.mark.parametrize("kind, n, arg", ORACLE_CASES, ids=ORACLE_IDS)
def test_grad_image_matches_hull_at_two_nested_levels(kind, n, arg):
    """On the tiles of a 4^n split of [-1, 1]^n and on [-1, 1]^n itself,
    the gradient image at ds and at the nested 2 ds each lies within its
    band of the exact hull's cell areas: the area within sqrt(n) ds / 2
    of the cell boundaries, the only slopes a grid can count wrongly."""
    env = concave_envelope(_oracle_field(kind, n, arg))
    hull, _ = lattice_hull(env)
    edges = np.linspace(-1.0, 1.0, 5)
    rects = [(edges[list(i)], edges[[k + 1 for k in i]])
             for i in itertools.product(range(4), repeat=n)]
    rects.append((np.full(n, -1.0), np.full(n, 1.0)))
    for lo, hi in rects:
        exact = hull.grad_image_measure(lo, hi)
        fine = env.grad_image_measure(lo, hi)
        coarse = _coarse_measure(env, lo, hi)
        for measured, ds in ((fine, env.step), (coarse, 2.0 * env.step)):
            band = cell_tube(hull, lo, hi, math.sqrt(n) * ds / 2.0)
            assert abs(measured - exact) <= band + 1e-12


def _cap_3d(grid):
    u = GridField.from_function(_cap, [-2.0] * 3, [2.0] * 3, (grid,) * 3,
                                0.0)
    return u, concave_envelope(u)


def test_cap_envelope_in_three_dimensions():
    """The radial cap's envelope over B_3 is a cone off the cap at slope
    0.338 (the tangent from the rim |x| = 3): its gradient image over B_1
    is the ball of that radius."""
    _, env = _cap_3d(33)
    r0 = 3.0 - math.sqrt(9.0 - 0.5)     # tangent point: 2 r^2 - 12 r + 1
    lip = 4.0 * r0
    origin = tuple(np.argmin(np.abs(ax)) for ax in env.axes)
    assert env.values[origin] == pytest.approx(1.0)
    assert lip - math.sqrt(3) * env.step <= env.lipschitz() <= lip
    ball = 4.0 / 3.0 * math.pi * lip ** 3
    assert env.grad_image_measure([-1.0] * 3, [1.0] * 3) \
        == pytest.approx(ball, rel=0.05)
    assert np.all(env.values[env.ball] >= env.samples[env.ball] - 1e-12)


def test_envelope_memory_is_not_slopes_times_samples():
    """No temporary of (slopes x samples) entries: at the 2D cap on 129^2
    that would be 1.3 GB; the transform peaks near the sample arrays."""
    u = GridField.from_function(_cap, [-2.0] * 2, [2.0] * 2, (129, 129), 0.0)
    tracemalloc.start()
    try:
        env = concave_envelope(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 8 * (env.samples.size + env.conjugate.size)


def test_contact_degenerate_flag():
    u = GridField.from_function(lambda p: 0.0 * p[:, 0], [-4.0], [4.0],
                                (65,), 0.0)
    env = concave_envelope(u)
    pts, degen = contact_set(env)
    # every lattice point of B_1 touches, and only those are returned
    assert degen and pts.shape[0] == 17
    assert np.all(np.abs(pts[:, 0]) <= 1.0)


def test_contact_set_is_the_cover_contact_set_in_three_dimensions():
    """In 3D the box [-2, 2]^3 reaches radius 3.46, where Gamma_D and u
    are both about 0: the contact set still holds B_1's lattice points
    only, the set the ABP cover covers."""
    u, env = _cap_3d(33)
    pts, degen = contact_set(env)
    assert not degen and pts.shape == (57, 3)
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9)
    f = GridField.from_function(lambda p: np.full(p.shape[0], 8.0),
                                [-2.0] * 3, [2.0] * 3, (5,) * 3, 8.0)
    prof = AnisotropyProfile(3, (1.0, 1.5, 1.2), rho0=0.05, frak_c=2)
    cover = abp_cover(env, f, prof)
    assert np.array_equal(cover.contact_points, pts)


def test_lattice_gap_beyond_the_envelope_lattice():
    """Gamma_D is zero outside B_3: u's lattice points on [-4, 4] past the
    envelope's lattice over [-3, 3] read Gamma_D - u = -u, not a value
    of the envelope's lattice found by a wrapped index."""
    u = GridField.from_function(lambda p: 1.0 - p[:, 0] ** 2, [-4.0], [4.0],
                                (65,), -15.0)
    env = concave_envelope(u)
    gap = lattice_gap(env, (np.arange(65),))
    far = np.abs(u.axes()[0]) > 3.0
    assert np.count_nonzero(far) == 16
    assert np.array_equal(gap[far], -u.values[far])
    inner = np.abs(u.axes()[0]) <= 1.0
    assert np.all(gap[inner] >= -1e-12)


def test_contact_set_memory_is_below_the_field():
    """The contact set reads Gamma_D - u off the two lattices in B_1: no
    temporary of all lattice points, let alone (points x dimension)."""
    u, env = _cap_3d(65)
    tracemalloc.start()
    try:
        contact_set(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= u.values.nbytes


def test_envelope_preconditions():
    bad = GridField.from_function(lambda p: np.ones(p.shape[0]),
                                  [-4.0], [4.0], (65,), 1.0)
    with pytest.raises(ValueError):
        concave_envelope(bad)
    # the B_1 samples are lattice values, so the box must hold B_1
    small = GridField.from_function(lambda p: -np.ones(p.shape[0]),
                                    [-0.5], [4.0], (65,), -1.0)
    with pytest.raises(ValueError, match="box must hold B_1"):
        concave_envelope(small)
    # any dimension: a nonpositive 3D field has the zero envelope
    cube = GridField.from_function(lambda p: -np.ones(p.shape[0]),
                                   [-2.0] * 3, [2.0] * 3, (9,) * 3, -1.0)
    zero = concave_envelope(cube)
    assert np.all(zero.values[zero.ball] == 0.0)
    assert zero.lipschitz() == 0.0
    assert zero.grad_image_measure([-1.0] * 3, [1.0] * 3) == 0.0


def _annulus_points(rng, count, r_lo, r_hi):
    d = rng.normal(size=(count, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * np.sqrt(rng.uniform(r_lo ** 2, r_hi ** 2, size=(count, 1)))


def concave_portion_check(tmap, slope_a, h, rng):
    """Flat-cone instance of the small-violation -> core-bound implication.

    Gamma is zero inside a cone shoulder sitting just inside the mapped
    annulus and drops steeply outside: the plane (zero) is violated by h
    on a thin outer sliver only, and the core stays clean.
    """
    t = tmap if tmap is not None else np.ones(2)
    reach = float(np.max(t))          # max |T y| over the unit ball

    def gamma(y):
        return np.minimum(0.0, slope_a * (0.98 * reach
                                          - np.linalg.norm(y * t, axis=1)))

    ann = _annulus_points(rng, 40_000, 0.5, 1.0)
    frac = float(np.mean(gamma(ann) < -h))
    core = _annulus_points(rng, 8_000, 0.0, 0.5)
    holds = bool(np.all(gamma(core) >= -h))
    return frac, holds


def test_concave_portion_lemma_flat_cone(rng, aniso2):
    # small violation fraction on the annulus forces the bound in the core
    frac, holds = concave_portion_check(None, 40.0, 0.2, rng)
    assert 0.0 < frac <= 0.05
    assert holds
    # same statement after straightening by the anisotropic map T_{1/4}
    from anisonl.geometry import ScalingMap
    t = ScalingMap(aniso2, 0.25).diagonal()
    frac2, holds2 = concave_portion_check(t, 40.0, 0.1, rng)
    assert 0.0 < frac2 <= 0.1 and holds2


def test_concave_portion_adversarial_failure(rng):
    # a large violation fraction defeats the conclusion: the threshold works
    def gamma(y):
        return np.minimum(0.0, 4.0 * (0.2 - np.linalg.norm(y, axis=1)))

    ann = rng.normal(size=(20_000, 2))
    ann /= np.linalg.norm(ann, axis=1, keepdims=True)
    ann *= rng.uniform(0.5, 1.0, size=(20_000, 1)) ** 0.5
    h = 0.4
    frac = float(np.mean(gamma(ann) < -h))
    core = rng.normal(size=(5_000, 2))
    core /= np.linalg.norm(core, axis=1, keepdims=True)
    core *= rng.uniform(0.0, 0.5, size=(5_000, 1)) ** 0.5
    assert frac > 0.5
    assert not np.all(gamma(core) >= -h)
