import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from anisonl import PreconditionError
from anisonl.coverings import (CellSet, CzHypothesisError, CzResult,
                               cz_decompose, tilde_boxes)
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


def covered_by_boxes(cells, box_lo, box_hi):
    """True when every cell of the CellSet lies inside one of the boxes
    [box_lo[j], box_hi[j]]."""
    side = 1.0 / cells.m
    for cell in np.argwhere(cells.mask):
        lo_c = cell * side
        hi_c = lo_c + side
        if not any(np.all(lo_c >= lo - 1e-12) and np.all(hi_c <= hi + 1e-12)
                   for lo, hi in zip(box_lo, box_hi)):
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


def test_dyadic_tilde_law(aniso2):
    # half widths follow (s r)^(1/(n+sigma_i)) with r=1, s = side-law
    gen, index = 3, (2, 5)
    lo, hi = tilde_boxes(2, gen, aniso2)
    assert lo.shape == hi.shape == (2, 2 ** gen)
    centre = (np.asarray(index) + 0.5) * 2.0 ** -gen
    s_param = 2.0 ** (-(gen + 1) * (aniso2.n + aniso2.sigma_min))
    for i in range(2):
        expected = s_param ** (1.0 / (aniso2.n + aniso2.sigma[i]))
        assert hi[i, index[i]] - centre[i] == pytest.approx(expected,
                                                            rel=1e-12)
        assert centre[i] - lo[i, index[i]] == pytest.approx(expected,
                                                            rel=1e-12)
    # isotropic tilde is the cube itself
    edges = np.arange(2 ** gen) * 2.0 ** -gen
    cube = np.tile(edges, (2, 1)), np.tile(edges + 2.0 ** -gen, (2, 1))
    iso = tilde_boxes(2, gen, AnisotropyProfile(2, (1.0, 1.0)))
    assert np.array_equal(iso[0], cube[0]) and np.array_equal(iso[1], cube[1])
    plain = tilde_boxes(2, gen, None)
    assert np.array_equal(plain[0], cube[0])
    assert np.array_equal(plain[1], cube[1])
    # so is every equal-order tilde box, to the bit: at n = 3, sigma = 0.04,
    # generation 2, (g+1)(n+s) / (n+s) is not g+1 in floating point
    for n, sigma, g in [(3, 0.04, 2), (2, 1.0, 3), (4, 1.3, 7)]:
        tilde = tilde_boxes(n, g, AnisotropyProfile(n, (sigma,) * n))
        plain = tilde_boxes(n, g, None)
        assert np.array_equal(tilde[0], plain[0])
        assert np.array_equal(tilde[1], plain[1])


def test_cz_empty_a():
    b = CellSet(2, 3, np.ones((8, 8), dtype=bool))
    a = CellSet(2, 3, np.zeros((8, 8), dtype=bool))
    res = cz_decompose(a, b, 0.5)
    assert res.gen.shape == (0,) and res.index.shape == (0, 2)
    assert res.box_lo.shape == res.box_hi.shape == (0, 2)
    assert res.covered and res.certified


def test_cz_single_cube_instance():
    # A = one deep cube, B = its predecessor: the cube itself is selected
    gen = 3
    a = cell_set(2, gen, [(2, 2), (2, 3), (3, 2), (3, 3)])
    pred_cells = [(i, j) for i in range(0, 4) for j in range(0, 4)]
    b = cell_set(2, gen, pred_cells)
    res = cz_decompose(a, b, 0.9)
    assert res.gen.tolist() == [2] and res.index.tolist() == [[1, 1]]
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
    assert r1.gen.tolist() == r2.gen.tolist()
    assert r1.index.tolist() == r2.index.tolist()
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
    assert len(res.gen) > 0
    for lo, hi in zip(res.box_lo, res.box_hi):
        vol = float(np.prod(hi - lo))
        assert a.box_measures(lo[:, None], hi[:, None]).item() \
            <= delta * vol + 1e-12
    assert covered_by_boxes(a, res.box_lo, res.box_hi)


def per_cell_measure(cells, lo, hi):
    """|cells cap [lo, hi]|: a sum over the cells, one cell at a time, of
    the product of its per-axis interval overlaps."""
    m = cells.m
    total = 0.0
    for cell in np.argwhere(cells.mask):
        piece = 1.0
        for d in range(cells.n):
            piece *= max(min((cell[d] + 1) / m, hi[d])
                         - max(cell[d] / m, lo[d]), 0.0)
        total += piece
    return total


@pytest.mark.parametrize("n, gen", [(1, 6), (2, 4), (3, 3), (4, 2)])
def test_overlap_measure_matches_per_cell_sum(n, gen):
    """Every box of a product grid, and a single box, against a sum over
    A's cells of the product of their per-axis interval overlaps."""
    rng = np.random.default_rng(n)
    m = 2 ** gen
    a = CellSet(n, gen, rng.random((m,) * n) < 0.4)
    for _ in range(5):
        lo = rng.uniform(-0.2, 0.6, size=(n, 2))
        hi = lo + rng.uniform(0.1, 0.8, size=(n, 2))
        got = a.box_measures(lo, hi)
        assert got.shape == (2,) * n
        for i in np.ndindex(got.shape):
            want = per_cell_measure(a, lo[np.arange(n), i],
                                    hi[np.arange(n), i])
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert a.box_measures(lo[:, :1], hi[:, :1]).item() \
            == pytest.approx(got[(0,) * n], rel=1e-12, abs=1e-15)


def test_cz_hypothesis_violation_witness():
    gen = 3
    a = cell_set(2, gen, [(0, 0)])

    # B too small: the dense cube's predecessor box is not inside B
    b = cell_set(2, gen, [(0, 0), (0, 1), (1, 0), (1, 1)])
    bsmall = cell_set(2, gen, [(0, 0)])
    with pytest.raises(CzHypothesisError) as err:
        cz_decompose(a, bsmall, 0.9)
    assert err.value.gen >= 1
    res = cz_decompose(a, b, 0.9)
    assert res.certified


def test_cz_witness_is_plain_integers():
    """The witness of a failed hypothesis (2) is an int generation and a
    tuple of int indices, and the message prints them as Python does."""
    profile = AnisotropyProfile(2, (1.0, 1.5))
    rng = np.random.default_rng(0)
    a = CellSet(2, 5, rng.random((32, 32)) < 0.25)
    b = CellSet(2, 5, np.ones((32, 32), dtype=bool))
    with pytest.raises(CzHypothesisError) as err:
        cz_decompose(a, b, 0.5, profile)
    assert type(err.value.gen) is int and err.value.gen == 5
    assert type(err.value.index) is tuple and err.value.index == (1, 0)
    assert all(type(i) is int for i in err.value.index)
    assert str(err.value) == ("hypothesis (2) fails at gen 5 index (1, 0): "
                              "predecessor tilde box not in B")


def test_cz_peak_memory_per_selected_cube():
    """The selected cubes are held as arrays, a few machine words each,
    so the peak stays near 186 B per cube at 2D generation 9, most of it
    the lattice passes; Python objects per cube bring it to about 650 B."""
    rng = np.random.default_rng(0)
    m = 2 ** 9
    a = CellSet(2, 9, rng.random((m, m)) < 0.25)
    b = CellSet(2, 9, np.ones((m, m), dtype=bool))
    tracemalloc.start()
    try:
        res = cz_decompose(a, b, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.gen) > 50_000
    assert peak / len(res.gen) < 400


def test_box_measures_peak_memory_per_cell():
    """Per axis, ``box_measures`` holds the cumulative sum and three arrays
    of the boxes' shape, gathered and combined in place: about 32 B per
    lattice cell at 2D generation 10 with the generation-10 boxes, where
    the gathered temporaries of an out-of-place combination take 48 B."""
    rng = np.random.default_rng(0)
    a = CellSet(2, 10, rng.random((2 ** 10,) * 2) < 0.25)
    lo, hi = tilde_boxes(2, 10, None)
    tracemalloc.start()
    try:
        a.box_measures(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / a.mask.size < 36


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
        assert err.gen >= 1 and len(err.index) == 2


def depth_first_cz(a_set, b_set, delta, profile=None):
    """The reference of ``cz_decompose``: the depth-first walk of the
    dyadic tree, one cube at a time, each box measure summed over the
    set's cells and each box's multiplicity over every cell centre."""
    n, m = a_set.n, a_set.m
    if a_set.measure > delta:
        raise PreconditionError("hypothesis |A| <= delta violated")

    def tilde_box(gen, index):
        side = 2.0 ** (-gen)
        lo = np.asarray(index, dtype=float) * side
        centre = 0.5 * (lo + (lo + side))
        if profile is None:
            h = np.full(n, 0.5 * side)
        else:
            h = 2.0 ** (-((gen + 1) * ((profile.n + profile.sigma_min)
                                       / profile.exponents)))
        return centre - h, centre + h

    def measure(cells, lo, hi):
        corner = np.argwhere(cells.mask)
        part = np.minimum((corner + 1) / m, hi) - np.maximum(corner / m, lo)
        return float(np.sum(np.prod(np.maximum(part, 0.0), axis=1)))

    selected, boxes = [], []
    covered = np.zeros_like(a_set.mask)

    def walk(gen, index):
        lo, hi = tilde_box(gen, index)
        if measure(a_set, lo, hi) > delta * float(np.prod(hi - lo)):
            if gen == 0:
                raise CzHypothesisError(gen, index, "root cube is delta-dense")
            plo, phi = tilde_box(gen - 1, tuple(i // 2 for i in index))
            inside = np.all(plo >= -1e-12) and np.all(phi <= 1 + 1e-12)
            if not (inside and measure(b_set, plo, phi)
                    >= float(np.prod(phi - plo)) - 1e-12):
                raise CzHypothesisError(gen, index, "hypothesis (2) fails")
            selected.append((gen, index))
            boxes.append((plo, phi))
            k = 2 ** (a_set.gen - gen)
            covered[tuple(slice(i * k, (i + 1) * k) for i in index)] = True
            return
        if gen < a_set.gen:
            for corner in range(2 ** n):
                walk(gen + 1, tuple(2 * index[d] + ((corner >> d) & 1)
                                    for d in range(n)))

    walk(0, (0,) * n)
    vacuous = int(np.count_nonzero(a_set.mask & ~covered))
    total = sum(float(np.prod(np.minimum(hi, 1.0) - np.maximum(lo, 0.0)))
                for lo, hi in boxes)
    c_measured = (total / b_set.measure if b_set.measure > 0 else math.inf) \
        if boxes else 0.0
    centres = (np.argwhere(np.ones_like(a_set.mask)) + 0.5) / m
    mult = np.zeros(len(centres), dtype=int)
    for lo, hi in boxes:
        mult += np.all((centres >= lo) & (centres <= hi), axis=1)
    certified = vacuous == 0 and (a_set.measure
                                  <= delta * c_measured * b_set.measure
                                  + 1e-12)
    cubes = np.array([(g,) + i for g, i in selected]).reshape(-1, n + 1)
    bounds = np.array(boxes).reshape(-1, 2, n)
    return CzResult(cubes[:, 0], cubes[:, 1:], bounds[:, 0], bounds[:, 1],
                    vacuous == 0, vacuous, c_measured,
                    int(mult.max()) if boxes else 0, certified)


def cz_outcome(decompose, a, b, delta, profile):
    """Everything a decomposition reports, to the bit: its result, or the
    kind of its refusal with the witness cube."""
    try:
        res = decompose(a, b, delta, profile)
    except CzHypothesisError as err:
        kind = "root" if "root" in str(err) else "hypothesis (2)"
        return kind, (err.gen, err.index)
    except PreconditionError:
        return "|A| > delta", None
    return "result", (res.gen.tolist(), res.index.tolist(),
                      res.box_lo.tobytes(), res.box_hi.tobytes(),
                      res.covered, res.vacuous_cells, res.c_measured.hex(),
                      res.max_multiplicity, res.certified)


def test_cz_matches_depth_first_walk(rng):
    """The generation-at-a-time decomposition selects the same cubes in
    the same order, with the same boxes, constants and verdicts, and
    names the same witness as the cube-by-cube depth-first walk, in one
    to four dimensions, with and without (anisotropic) profiles, for a
    full B and for a partial one."""
    kinds = Counter()
    for trial in range(240):
        n = trial % 4 + 1
        gen = int(rng.integers(1, (8, 5, 3, 3)[n - 1] + 1))
        m = 2 ** gen
        delta = float(rng.uniform(0.05, 0.95))
        a_mask = rng.random((m,) * n) < rng.uniform(0.0, delta)
        b_mask = a_mask | (rng.random(a_mask.shape) < rng.uniform(0.5, 1.0)) \
            if trial // 4 % 2 else np.ones_like(a_mask)
        profile = (None, AnisotropyProfile(n, (1.0,) * n),
                   AnisotropyProfile(n, tuple(rng.uniform(0.1, 1.99, n))))[
            trial // 8 % 3]
        a, b = CellSet(n, gen, a_mask), CellSet(n, gen, b_mask)
        got = cz_outcome(cz_decompose, a, b, delta, profile)
        assert got == cz_outcome(depth_first_cz, a, b, delta, profile)
        kinds[got[0], got[0] == "result" and len(got[1][0]) > 0] += 1
    assert kinds["result", True] > 60 and kinds["hypothesis (2)", False] > 60


def test_box_measures_once_per_set_and_generation(monkeypatch, rng):
    """One lattice pass per set and generation: the A-densities of all
    the generation's cubes, and the B-measures of their predecessors."""
    seen = []
    whole = CellSet.box_measures

    def counted(self, lo, hi):
        seen.append((self is a, lo.shape[1]))
        return whole(self, lo, hi)

    monkeypatch.setattr(CellSet, "box_measures", counted)
    gen = 6
    a = CellSet(2, gen, rng.random((2 ** gen,) * 2) < 0.2)
    b = CellSet(2, gen, np.ones_like(a.mask))
    res = cz_decompose(a, b, 0.5)
    assert len(res.gen) > 0
    assert len(seen) <= 2 * (gen + 1)
    assert max(Counter(seen).values()) == 1
