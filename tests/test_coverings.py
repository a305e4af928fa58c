import numpy as np
import pytest

from anisonl.coverings import (CellSet, CzHypothesisError, DyadicCube,
                               cz_decompose)
from anisonl.profile import AnisotropyProfile
from lemmas import ParamRectangleFamily, cc_cover


def linear_family(points, t=None):
    points = np.atleast_2d(points)
    n = points.shape[1]
    if t is None:
        t = np.ones(points.shape[0])
    laws = tuple([lambda s: s] * n)
    return ParamRectangleFamily(points, t, laws)


def cell_set(n, gen, cells):
    """The CellSet of the listed generation-``gen`` cells."""
    out = CellSet(n, gen, np.zeros((2 ** gen,) * n, dtype=bool))
    for c in cells:
        out.mask[tuple(c)] = True
    return out


def covered_by_boxes(cells, boxes):
    """True when every cell of the CellSet lies inside one of the boxes."""
    side = 1.0 / cells.m
    for cell in np.argwhere(cells.mask):
        lo_c = cell * side
        hi_c = lo_c + side
        if not any(np.all(lo_c >= lo - 1e-12) and np.all(hi_c <= hi + 1e-12)
                   for lo, hi in boxes):
            return False
    return True


def brute_force_multiplicity(points, selected):
    mult = np.zeros(points.shape[0], dtype=int)
    for c, hw in selected:
        mult += np.all(np.abs(points - c[None, :]) <= hw[None, :] + 1e-15,
                       axis=1)
    return mult


def test_single_point_cover():
    fam = linear_family([[0.3, -0.2]])
    selected, mult = cc_cover(fam)
    assert len(selected) == 1 and mult == 1


def test_coincident_points_one_rectangle():
    pts = np.zeros((7, 2)) + 0.5
    fam = linear_family(pts)
    selected, mult = cc_cover(fam)
    assert len(selected) == 1
    assert mult == 1


def test_cc_cover_random_multiplicity(rng):
    worst = {1: 0, 2: 0, 3: 0}
    for n in (1, 2, 3):
        for trial in range(40):
            m = int(rng.integers(5, 101))
            pts = rng.uniform(-1.0, 1.0, size=(m, n))
            t = rng.uniform(0.05, 0.6, size=m)
            fam = linear_family(pts, t)
            selected, mult = cc_cover(fam)
            check = brute_force_multiplicity(pts, selected)
            assert np.all(check >= 1)
            assert int(check.max()) == mult
            worst[n] = max(worst[n], mult)
    # dimension-only bound (calibrated: greedy stays well below 4^n)
    assert worst[1] <= 4 and worst[2] <= 16 and worst[3] <= 64


def test_cc_cover_anisotropic_edge_laws(rng):
    pts = rng.uniform(-1.0, 1.0, size=(60, 2))
    t = rng.uniform(0.1, 0.5, size=60)
    fam = ParamRectangleFamily(pts, t, (lambda s: s, lambda s: s ** 1.5))
    selected, mult = cc_cover(fam)
    assert mult <= 16
    assert np.all(brute_force_multiplicity(pts, selected) >= 1)


def test_cc_cover_rejects_bad_law(rng):
    pts = rng.uniform(-1.0, 1.0, size=(5, 1))
    fam = ParamRectangleFamily(pts, np.ones(5), (lambda s: 1.0 - s,))
    with pytest.raises(ValueError):
        cc_cover(fam)
    fam2 = ParamRectangleFamily(pts, np.ones(5), (lambda s: s + 1.0,))
    with pytest.raises(ValueError):
        cc_cover(fam2)


def test_dyadic_children_partition():
    for n in (1, 2, 3):
        root = DyadicCube(n, 0, (0,) * n)
        kids = root.children()
        assert len(kids) == 2 ** n
        vol = sum(float(np.prod(k.box()[1] - k.box()[0])) for k in kids)
        assert vol == pytest.approx(1.0)
        for k in kids:
            assert k.predecessor() == root
    with pytest.raises(ValueError):
        DyadicCube(2, 0, (0, 0)).predecessor()


def test_dyadic_tilde_law(aniso2):
    # half widths follow (s r)^(1/(n+sigma_i)) with r=1, s = side-law
    q = DyadicCube(2, 3, (2, 5))
    lo, hi = q.tilde_box(aniso2)
    c = q.center
    s_param = 2.0 ** (-(q.gen + 1) * (aniso2.n + aniso2.sigma_min))
    for i in range(2):
        expected = s_param ** (1.0 / (aniso2.n + aniso2.sigma[i]))
        assert hi[i] - c[i] == pytest.approx(expected, rel=1e-12)
        assert c[i] - lo[i] == pytest.approx(expected, rel=1e-12)
    # isotropic tilde is the cube itself
    iso = AnisotropyProfile(2, (1.0, 1.0))
    lo2, hi2 = q.tilde_box(iso)
    blo, bhi = q.box()
    assert np.allclose(lo2, blo) and np.allclose(hi2, bhi)


def test_cz_empty_a():
    b = CellSet(2, 3, np.ones((8, 8), dtype=bool))
    a = CellSet(2, 3, np.zeros((8, 8), dtype=bool))
    res = cz_decompose(a, b, 0.5)
    assert res.selected == [] and res.covered and res.certified


def test_cz_single_cube_instance():
    # A = one deep cube, B = its predecessor: the cube itself is selected
    gen = 3
    a = cell_set(2, gen, [(2, 2), (2, 3), (3, 2), (3, 3)])
    pred_cells = [(i, j) for i in range(0, 4) for j in range(0, 4)]
    b = cell_set(2, gen, pred_cells)
    res = cz_decompose(a, b, 0.9)
    assert len(res.selected) == 1
    sel = res.selected[0]
    assert sel.gen == 2 and sel.index == (1, 1)
    assert res.covered and res.certified


def test_cz_random_fraction(rng):
    delta = 0.5
    gen = 6
    m = 2 ** gen
    b = CellSet(2, gen, np.ones((m, m), dtype=bool))
    mask = rng.random((m, m)) < delta / 2.0
    a = CellSet(2, gen, mask)
    res = cz_decompose(a, b, delta)
    assert res.covered
    assert res.certified
    assert a.measure <= delta * res.c_measured * b.measure + 1e-12
    # measured overlap constant stays at the dimensional scale
    assert res.max_multiplicity <= 16


def test_cz_relabeling_invariance(rng):
    gen = 4
    m = 2 ** gen
    cells = [(i, j) for i in range(m) for j in range(m)
             if rng.random() < 0.2]
    b = CellSet(2, gen, np.ones((m, m), dtype=bool))
    a1 = cell_set(2, gen, cells)
    perm = list(cells)
    rng.shuffle(perm)
    a2 = cell_set(2, gen, perm)
    r1 = cz_decompose(a1, b, 0.5)
    r2 = cz_decompose(a2, b, 0.5)
    assert [c.index for c in r1.selected] == [c.index for c in r2.selected]
    assert r1.c_measured == r2.c_measured


def test_cz_density_properties_exact(rng):
    # every returned box holds at most a delta fraction of A, and A is
    # covered: both facts checked exactly on the lattice
    delta = 0.4
    gen = 5
    m = 2 ** gen
    b = CellSet(2, gen, np.ones((m, m), dtype=bool))
    mask = rng.random((m, m)) < delta / 3.0
    a = CellSet(2, gen, mask)
    res = cz_decompose(a, b, delta)
    for lo, hi in res.boxes:
        vol = float(np.prod(hi - lo))
        assert a.overlap_measure(lo, hi) <= delta * vol + 1e-12
    assert covered_by_boxes(a, res.boxes)


@pytest.mark.parametrize("n, gen", [(1, 6), (2, 4), (3, 3), (4, 2)])
def test_overlap_measure_matches_per_cell_sum(n, gen):
    """|A cap [lo, hi]| against a sum over A's cells, one cell at a time,
    of the product of its per-axis interval overlaps."""
    rng = np.random.default_rng(n)
    m = 2 ** gen
    a = CellSet(n, gen, rng.random((m,) * n) < 0.4)
    for _ in range(5):
        lo = rng.uniform(-0.2, 0.6, size=n)
        hi = lo + rng.uniform(0.1, 0.8, size=n)
        want = 0.0
        for cell in np.argwhere(a.mask):
            piece = 1.0
            for d in range(n):
                piece *= max(min((cell[d] + 1) / m, hi[d])
                             - max(cell[d] / m, lo[d]), 0.0)
            want += piece
        assert a.overlap_measure(lo, hi) == pytest.approx(want, rel=1e-12,
                                                          abs=1e-15)


def test_cz_hypothesis_violation_witness():
    gen = 3
    a = cell_set(2, gen, [(0, 0)])

    # B too small: the dense cube's predecessor box is not inside B
    b = cell_set(2, gen, [(0, 0), (0, 1), (1, 0), (1, 1)])
    bsmall = cell_set(2, gen, [(0, 0)])
    with pytest.raises(CzHypothesisError) as err:
        cz_decompose(a, bsmall, 0.9)
    assert err.value.cube.gen >= 1
    res = cz_decompose(a, b, 0.9)
    assert res.certified


def test_cz_rejects_bad_inputs(rng):
    b = CellSet(2, 2, np.ones((4, 4), dtype=bool))
    a = cell_set(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        cz_decompose(a, b, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(a, b, 0.0)
    big = CellSet(2, 2, np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        cz_decompose(big, b, 0.5)       # |A| > delta
    a3 = cell_set(2, 3, [(0, 0)])
    with pytest.raises(ValueError):
        cz_decompose(a3, b, 0.5)        # lattice mismatch
    not_subset = cell_set(2, 2, [(1, 1)])
    bsub = cell_set(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        cz_decompose(not_subset, bsub, 0.5)


def test_cz_anisotropic_tilde_flags(aniso2, rng):
    # with genuinely anisotropic tilde boxes the literal hypothesis can be
    # vacuous for deep cells; the result reports rather than certifies
    gen = 5
    m = 2 ** gen
    b = CellSet(2, gen, np.ones((m, m), dtype=bool))
    mask = rng.random((m, m)) < 0.05
    a = CellSet(2, gen, mask)
    try:
        res = cz_decompose(a, b, 0.5, profile=aniso2)
        assert res.covered or res.vacuous_cells > 0
    except CzHypothesisError as err:
        assert err.cube is not None
