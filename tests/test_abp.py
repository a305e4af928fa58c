import tracemalloc

import numpy as np
import pytest

from anisonl import abp
from anisonl.abp import (CoverDepthError, CoverRectangle,
                         DegenerateTileError, _eval_rect, _tiles_for_points,
                         abp_cover, tile_half_widths, tilde_half_widths,
                         verify_cover)
from anisonl.envelope import concave_envelope
from anisonl.fields import AnalyticField, GridField
from anisonl.profile import AnisotropyProfile
from hulls import ConcaveEnvelope2D
from lemmas import detachment_measure


# the envelope of a nonpositive field is one flat plane, whose zero
# gradient is the exact tangent at a symmetric maximum
FLAT = ConcaveEnvelope2D.from_samples(np.zeros((1, 2)), np.zeros(1))


@pytest.fixture(scope="module")
def prof2():
    # desk-scale cover geometry: rho0 and frak_c are configurable inputs
    return AnisotropyProfile(2, (1.0, 1.0), 1.0, 2.0, rho0=0.05, frak_c=2)


@pytest.fixture(scope="module")
def prof2_mixed():
    return AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0, rho0=0.05, frak_c=2)


def const_field(value, n=2, shape=9):
    return GridField.from_function(lambda p: np.full(p.shape[0], value),
                                   [-2.0] * n, [2.0] * n, (shape,) * n, value)


def polyhedral_cap_field(shape=129, drop=0.55):
    def cap(p):
        planes = [1.0 - 2.0 * p[:, 0] - 0.5 * p[:, 1], 1.0 + 1.8 * p[:, 0],
                  1.0 - 1.3 * p[:, 1], 1.0 + 1.6 * p[:, 1] + 0.3 * p[:, 0]]
        return np.minimum.reduce(planes) - drop
    return GridField.from_function(cap, [-2.0, -2.0], [2.0, 2.0],
                                   (shape,) * 2, -drop)


def flat_top_cap_field(shape=129):
    # u equals its own envelope on a broad plateau: a big contact set
    def fn(p):
        r = np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1]))
        return np.minimum(0.3, 3.0 * (0.5 - r))
    return GridField.from_function(fn, [-2.0, -2.0], [2.0, 2.0],
                                   (shape,) * 2, -4.5)


def test_tile_geometry_matches_radii(prof2):
    a = prof2.radius(0)
    assert a == pytest.approx(prof2.rho0 * 2.0 ** (-1.0 / prof2.q_max))
    for gen in (0, 1, 3):
        h = tile_half_widths(prof2, gen)
        s = 2.0 ** (-prof2.frak_c * (prof2.n + prof2.sigma_min))
        expected = (s ** (gen + 1)) ** (1.0 / (prof2.n + prof2.sigma_min)) \
            * a ** (1.0 / prof2.exponents)
        assert np.allclose(h, expected)
        # tilde rectangle is the bounding box of Theta_{r_{gen+1}}
        th = tilde_half_widths(prof2, gen)
        assert np.allclose(th, prof2.radius(gen + 1)
                           ** (1.0 / prof2.exponents))
        assert np.all(h <= th + 1e-15)


def test_detachment_zero_for_constant_field(prof2):
    u = const_field(0.5)
    pts = u.grid_points()
    env = ConcaveEnvelope2D.from_samples(pts, u.eval(pts))
    for k in (0, 1, 3):
        for m in (1e-6, 1.0, 100.0):
            d = detachment_measure(u, env, [0.1, 0.0], k, prof2, m, 4000, 1)
            assert d["w_measure"] == 0.0
            assert d["symmetry_rate"] == 1.0


def test_detachment_deep_well(prof2):
    # an exterior well far below the tangent plane detaches the whole shell
    def fn(p):
        r2 = np.sum(p ** 2, axis=1)
        return np.where(r2 < 0.01, 1.0 - r2, -50.0)

    u = AnalyticField(fn, sup_bound=50.0)
    ratios = [detachment_measure(u, FLAT, [0.0, 0.0], k, prof2,
                                 m_threshold=1.0, samples=8000,
                                 seed=3)["ratio"] for k in (2, 3)]
    assert max(ratios) > 0.9
    d = detachment_measure(u, FLAT, [0.0, 0.0], 2, prof2, m_threshold=1.0,
                           samples=8000, seed=3)
    assert d["symmetry_rate"] == 1.0     # radially symmetric instance


def test_detachment_lemma_scaling(prof2):
    # smooth quadratic cap: with M = C0 f / eps the detachment ratio drops
    # below eps at some annulus index (here it vanishes outright)
    kappa = 1.0

    def fn(p):
        return 0.25 - kappa * np.sum(p ** 2, axis=1)

    u = AnalyticField(fn, sup_bound=10.0)
    ax = np.linspace(-3, 3, 61)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    env = ConcaveEnvelope2D.from_samples(pts, np.maximum(fn(pts), 0.0))
    eps = 0.1
    f_x = 4.0 * kappa                      # curvature scale of M+ u
    c0 = prof2.n * 2.0 ** (2 * prof2.frak_c) * 4.0
    m_threshold = c0 * f_x / eps
    ratios = [detachment_measure(u, env, [0.0, 0.0], k, prof2, m_threshold,
                                 4000, 5)["ratio"] for k in range(6)]
    assert min(ratios) <= eps


def test_detachment_refuses_underflowed_annulus():
    # default rho0 and frak_c: r_26 underflows to zero at sigma = (1, 1.5)
    prof = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)
    assert prof.radius(26) == 0.0

    def fn(p):
        r2 = np.sum(p ** 2, axis=1)
        return np.where(r2 < 0.01, 1.0 - r2, -50.0)

    u = AnalyticField(fn, sup_bound=50.0)
    with pytest.raises(DegenerateTileError) as err:
        detachment_measure(u, FLAT, [0.0, 0.0], 30, prof, 1.0, 4000, 3)
    assert err.value.gen == 30 and "r_31 underflows" in str(err.value)
    # a representable annulus: its sampled W_k and the exact shell measure
    d = detachment_measure(u, FLAT, [0.0, 0.0], 0, prof, 1.0, 4000, 3)
    assert d == {"k": 0, "w_measure": 0.0019489624237246739,
                 "w_se": 1.0888901749367957e-05,
                 "shell_measure": 0.0019663086412074157,
                 "ratio": 0.9911782834499012, "symmetry_rate": 1.0,
                 "inf_quad": 1.145891519531574e-12}


def test_detachment_rejects_bad_k(prof2):
    u = const_field(0.5)
    pts = u.grid_points()
    env = ConcaveEnvelope2D.from_samples(pts, u.eval(pts))
    with pytest.raises(ValueError):
        detachment_measure(u, env, [0.0, 0.0], -1, prof2, 1.0)
    with pytest.raises(ValueError):
        detachment_measure(u, env, [0.0, 0.0], 999, prof2, 1.0)


def test_cover_single_contact_instance(prof2):
    u = polyhedral_cap_field()
    f = const_field(8.0)
    cover = abp_cover(concave_envelope(u), f, prof2)
    assert 1 <= len(cover.rectangles) <= 8
    rep = verify_cover(cover)
    assert rep["disjoint"] and rep["contact_covered"]
    assert rep["all_meet_contact"] and rep["diameter_ok"]


def test_cover_concave_cap_instance(prof2):
    u = flat_top_cap_field()
    f = const_field(8.0)
    cover = abp_cover(concave_envelope(u), f, prof2)
    assert len(cover.rectangles) >= 10
    rep = verify_cover(cover)
    assert rep["disjoint"] and rep["contact_covered"]
    assert rep["all_meet_contact"] and rep["diameter_ok"]
    assert rep["varsigma_measured"] > 0.0
    assert np.isfinite(rep["grad_constant_measured"])


def test_cover_mixed_orders(prof2_mixed):
    u = polyhedral_cap_field()
    f = const_field(8.0)
    cover = abp_cover(concave_envelope(u), f, prof2_mixed)
    rep = verify_cover(cover)
    assert rep["disjoint"] and rep["contact_covered"] and rep["diameter_ok"]


def test_cover_sup_bound_chain(prof2):
    # sup u <= C (sum_j (max f+)^n |R_j|)^{1/n} with a moderate constant
    for field_maker in (polyhedral_cap_field, flat_top_cap_field):
        u = field_maker()
        f = const_field(8.0)
        cover = abp_cover(concave_envelope(u), f, prof2)
        rep = verify_cover(cover)
        sup_u = float(np.max(u.values))
        rhs = rep["sup_u_bound_sum"] ** (1.0 / prof2.n)
        assert rhs > 0
        assert sup_u <= 2e3 * rhs


def test_cover_depth_cap_diagnostic(monkeypatch, prof2):
    u = polyhedral_cap_field()
    f = const_field(8.0)
    # varsigma above the geometric maximum of expand_c^n forces splits
    # forever; the lattice (h = 1/32) resolves C R~ down to generation 1
    monkeypatch.setattr(abp, "VARSIGMA", 5.0)
    monkeypatch.setattr(abp, "DEPTH_CAP", 1)
    with pytest.raises(CoverDepthError) as err:
        abp_cover(concave_envelope(u), f, prof2)
    assert len(err.value.chain) == 2     # gen 0 and gen 1
    assert err.value.gen == 1
    assert np.array_equal(err.value.width, 2.0 * tile_half_widths(prof2, 1))
    assert [g for g, _ in err.value.chain] == [0, 1]
    # plain ints: the chain reads "gen 0 idx (2, 1)", no numpy reprs
    assert "np." not in str(err.value)
    # each link is the parent tile of the next: frak_c halvings per axis
    factor = 2 ** prof2.frak_c
    for (_, parent), (_, child) in zip(err.value.chain, err.value.chain[1:]):
        assert parent == tuple(i // factor for i in child)


def test_degenerate_tiles_name_generation_and_width(prof2):
    # generation 30 edges are ~1e-20: a point at distance 1/2 has a tile
    # index past 2^52, where float coordinates skip integers
    with pytest.raises(DegenerateTileError) as err:
        _tiles_for_points(prof2, np.array([[0.5, 0.25]]), 30)
    assert err.value.gen == 30
    assert np.array_equal(err.value.width, 2.0 * tile_half_widths(prof2, 30))
    assert "generation 30, tile width" in str(err.value)
    # the origin keeps index 0 at every depth, but the tilde rectangle of
    # a deep enough tile has zero volume
    gen = next(g for g in range(400) if prof2.radius(g + 1) == 0.0)
    assert (0, 0) in _tiles_for_points(prof2, np.zeros((1, 2)), gen)
    u = polyhedral_cap_field(shape=33)
    with pytest.raises(DegenerateTileError) as err:
        _eval_rect(concave_envelope(u), const_field(8.0),
                   CoverRectangle(gen, (0, 0), prof2), np.zeros((1, 2)))
    assert err.value.gen == gen


def test_face_tolerance_is_relative_to_tile_edge():
    # at the paper's default constants generation-2 edges are ~1e-14: an
    # absolute face tolerance of 1e-12 put this interior point on every
    # face, so it claimed all nine tiles around it
    prof = AnisotropyProfile(2, (1.0, 1.5), 1.0, 2.0)
    x = np.array([[0.3, 0.2]])
    tiles = _tiles_for_points(prof, x, 2)
    assert len(tiles) == 1
    (i, j), = tiles
    holders = [(a, b) for a in (i - 1, i, i + 1) for b in (j - 1, j, j + 1)
               if CoverRectangle(2, (a, b), prof).closure_contains(x)[0]]
    assert holders == tiles


def test_cover_rejects_positive_exterior(prof2):
    bad = GridField.from_function(lambda p: np.ones(p.shape[0]),
                                  [-2.0, -2.0], [2.0, 2.0], (17, 17), 1.0)
    f = const_field(1.0)
    with pytest.raises(ValueError):
        abp_cover(concave_envelope(bad), f, prof2)


def test_w_k_symmetry_on_symmetric_instance(prof2):
    # even field around the contact point: membership is exactly mirrored
    def fn(p):
        return 0.25 - np.abs(p[:, 0]) - 0.5 * np.abs(p[:, 1])

    u = AnalyticField(fn, sup_bound=10.0)
    ax = np.linspace(-3, 3, 41)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    env = ConcaveEnvelope2D.from_samples(pts, np.maximum(fn(pts), 0.0))
    d = detachment_measure(u, env, [0.0, 0.0], 1, prof2, m_threshold=0.5,
                           samples=6000, seed=8)
    assert d["w_measure"] > 0.0
    assert d["symmetry_rate"] == 1.0


def test_cover_dump_json_ready(prof2):
    import json
    u = polyhedral_cap_field()
    f = const_field(8.0)
    cover = abp_cover(concave_envelope(u), f, prof2)
    from anisonl.abp import cover_dump
    dump = cover_dump(cover)
    text = json.dumps(dump)
    back = json.loads(text)
    assert len(back) == len(cover.rectangles)
    assert all("lo" in r and "hi" in r and "record" in r for r in back)


def cap_cover(grid, f_const, sigma=(1.0, 1.5)):
    """The CLI's cap on a ``grid``^2 lattice over [-2, 2]^2, its envelope
    and cover at rho0 0.05, frak_c 2 and f = ``f_const``."""
    def cap(p):
        return np.maximum(0.0, 1.0 - 2.0 * np.sum(p ** 2, axis=1))
    prof = AnisotropyProfile(2, sigma, rho0=0.05, frak_c=2)
    u = GridField.from_function(cap, [-2.0] * 2, [2.0] * 2, (grid,) * 2,
                                0.0)
    env = concave_envelope(u)
    return u, env, abp_cover(env, const_field(f_const), prof)


def mc_detach_measure(u, env, rect, draws, rng):
    """|{u >= Gamma_D - slack} cap C R~| by ``draws`` uniform points of
    C R~: u by multilinear interpolation, Gamma_D the minimum of the
    supporting planes in B_3 and zero outside."""
    t_half = abp.EXPAND_C * rect.tilde_half
    slack = (abp.DETACH_CONSTANT * rect.record["max_f"]
             * rect.tilde_diameter ** 2)
    planes = env.supporting_planes()
    hits = 0
    for _ in range(draws // 10_000):
        q = rng.uniform(rect.center - t_half, rect.center + t_half,
                        size=(10_000, t_half.size))
        gamma = np.min(q @ planes[:, :-1].T + planes[:, -1], axis=1)
        gamma[np.sum(q ** 2, axis=1) > 9.0] = 0.0
        hits += int(np.count_nonzero(u.eval(q) >= gamma - slack))
    return hits / (draws // 10_000 * 10_000) * float(np.prod(2.0 * t_half))


def test_detachment_node_rule_converges_to_the_sampled_measure():
    """At f = 0.2 the slack is small and the detachment is partial.  The
    node rule's error against 10^5 draws per C R~, as a share of its
    volume, falls from about 1.7% (mean) and 3.7% (max) at grid 129 to
    about 0.1% and 0.2% at grid 257, on the cover's first quadrant (the
    cap and both lattices are symmetric under each axis flip)."""
    rng = np.random.default_rng(11)
    errors = {}
    for grid in (129, 257):
        u, env, cover = cap_cover(grid, 0.2)
        errs = []
        for r in cover.rectangles:
            if np.all(r.center > 0.0):
                vol = float(np.prod(2.0 * abp.EXPAND_C * r.tilde_half))
                mc = mc_detach_measure(u, env, r, 100_000, rng)
                errs.append(abs(r.record["detach_measure"] - mc) / vol)
        assert len(errs) == 4
        errors[grid] = np.array(errs)
    assert errors[129].max() <= 0.05 and errors[129].mean() <= 0.025
    assert errors[257].max() <= 0.006 and errors[257].mean() <= 0.004
    assert errors[257].mean() <= errors[129].mean() / 4.0


def test_eval_rect_reads_only_the_block_of_c_r_tilde(prof2):
    """One rectangle's measures allocate O(cells of C R~), not O(lattice):
    on 257^2 C R~ of generation 0 meets at most 13^2 cells, while one
    lattice-sized float array is 528 kB."""
    u = polyhedral_cap_field(shape=257)
    env = concave_envelope(u)
    f = const_field(8.0)
    rect = CoverRectangle(0, (0, 0), prof2)
    width = 2.0 * abp.EXPAND_C * rect.tilde_half
    assert np.prod(np.floor(width / u.h) + 2) <= 13 ** 2
    tracemalloc.start()
    try:
        rec = _eval_rect(env, f, rect, np.zeros((1, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < rec["detach_measure"] <= np.prod(width)
    assert rec["grad_image"] > 0.0
    assert peak < u.values.nbytes / 16


def test_all_pass_detachment_is_the_box_volume():
    """Where every cell passes, the measure is |C R~| bit for bit."""
    _, _, cover = cap_cover(65, 8.0)
    assert len(cover.rectangles) == 24
    for r in cover.rectangles:
        box = float(np.prod(2.0 * abp.EXPAND_C * r.tilde_half))
        assert r.record["detach_measure"] == box
        assert r.record["varsigma_ratio"] == 4.0


def test_detachment_refuses_a_box_the_lattice_cannot_resolve(prof2):
    """C R~ of generation 2 is 0.0115 wide against h = 1/32 on 129^2: the
    node rule would read one point there.  A C R~ past the cells of the
    field's lattice has no node to read."""
    u = polyhedral_cap_field()
    env = concave_envelope(u)
    f = const_field(8.0)
    _eval_rect(env, f, CoverRectangle(1, (0, 0), prof2), np.zeros((1, 2)))
    with pytest.raises(DegenerateTileError) as err:
        _eval_rect(env, f, CoverRectangle(2, (0, 0), prof2),
                   np.zeros((1, 2)))
    assert err.value.gen == 2
    assert str(err.value).startswith(
        "C R~ is narrower than the lattice spacing 3.125e-02 (generation 2")
    wide = AnisotropyProfile(1, (1.0,), rho0=10.0, frak_c=1)
    u1 = GridField.from_function(lambda p: 0.5 - p[:, 0] ** 2, [-2.0],
                                 [2.0], (65,), -3.5)
    with pytest.raises(abp.CoverError, match="past the field's lattice"):
        _eval_rect(concave_envelope(u1), const_field(8.0, 1),
                   CoverRectangle(0, (0,), wide), np.zeros((1, 1)))
