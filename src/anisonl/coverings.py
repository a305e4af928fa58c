"""The dyadic rectangle (Calderon-Zygmund) decomposition.

``cz_decompose``: dyadic selection on the unit cube with tilde-box
densities.  Sets are unions of generation-G lattice cells, so every
measure is an exact cell-overlap computation.  The hypothesis is the
literal one: a dyadic cube whose tilde box holds more than a delta
fraction of A forces the tilde box of its predecessor inside B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import PreconditionError


# ---------------------------------------------------------------------------
# dyadic cubes on Q_1 = [0, 1)^n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicCube:
    n: int
    gen: int
    index: tuple

    def __post_init__(self):
        if self.gen < 0 or len(self.index) != self.n:
            raise ValueError("malformed dyadic cube")
        if any(not 0 <= i < 2 ** self.gen for i in self.index):
            raise ValueError("cube index out of range for its generation")

    @property
    def side(self):
        return 2.0 ** (-self.gen)

    def box(self):
        lo = np.asarray(self.index, dtype=float) * self.side
        return lo, lo + self.side

    @property
    def center(self):
        lo, hi = self.box()
        return 0.5 * (lo + hi)

    def children(self):
        out = []
        for corner in range(2 ** self.n):
            idx = tuple(2 * self.index[d] + ((corner >> d) & 1)
                        for d in range(self.n))
            out.append(DyadicCube(self.n, self.gen + 1, idx))
        return out

    def predecessor(self):
        if self.gen == 0:
            raise ValueError("the root cube has no predecessor")
        return DyadicCube(self.n, self.gen - 1,
                          tuple(i // 2 for i in self.index))

    def tilde_box(self, profile=None):
        """Tilde rectangle: same center, half-widths following the
        R_{r,s} -> R~_{r,s} law with r = 1 (cube side = 2 s^{1/(n+s_min)})."""
        c = self.center
        if profile is None:
            h = np.full(self.n, 0.5 * self.side)
            return c - h, c + h
        expo = (self.gen + 1) * (profile.n + profile.sigma_min) \
            / profile.exponents
        h = 2.0 ** (-expo)
        return c - h, c + h


# ---------------------------------------------------------------------------
# lattice cell sets and exact box overlaps
# ---------------------------------------------------------------------------

class CellSet:
    """Union of generation-G lattice cells of Q_1 as a boolean array."""

    def __init__(self, n, gen, mask):
        self.n = n
        self.gen = gen
        self.m = 2 ** gen
        self.mask = mask

    def cells(self):
        return sorted(map(tuple, np.argwhere(self.mask)))

    @property
    def measure(self):
        return float(np.count_nonzero(self.mask)) / self.m ** self.n

    def issubset(self, other):
        return bool(np.all(other.mask[self.mask]))

    def _axis_overlap(self, lo, hi):
        """Per-axis vectors of cell-interval overlap lengths."""
        edges = np.linspace(0.0, 1.0, self.m + 1)
        out = []
        for d in range(self.n):
            left = np.maximum(edges[:-1], lo[d])
            right = np.minimum(edges[1:], hi[d])
            out.append(np.maximum(right - left, 0.0))
        return out

    def overlap_measure(self, lo, hi):
        """Exact measure of (set intersect box [lo, hi])."""
        w = self._axis_overlap(np.asarray(lo, float), np.asarray(hi, float))
        total = self.mask.astype(float)
        for wd in reversed(w):
            total = total @ wd
        return float(total)


class CzHypothesisError(PreconditionError):
    def __init__(self, cube, message):
        self.cube = cube
        super().__init__(message)


@dataclass
class CzResult:
    selected: list          # maximal dyadic cubes with dense tilde boxes
    boxes: list             # R_j = tilde boxes of their predecessors
    covered: bool           # A subset of union R_j
    vacuous_cells: int      # A-cells never captured by a dense cube
    c_measured: float       # sum |R_j cap Q_1| / |B|
    max_multiplicity: int
    certified: bool         # |A| <= delta * C * |B| with the above C


def cz_decompose(a_set: CellSet, b_set: CellSet, delta, profile=None):
    """Rectangle Calderon-Zygmund decomposition on exact lattice sets.

    Walks the dyadic tree from the root, selecting maximal cubes whose
    tilde boxes are delta-dense in A.  Every selected cube must satisfy
    the containment hypothesis (tilde box of the predecessor inside B),
    otherwise CzHypothesisError reports the witness cube.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if a_set.gen != b_set.gen or a_set.n != b_set.n:
        raise ValueError("A and B must share lattice and dimension")
    if not a_set.issubset(b_set):
        raise ValueError("A must be a subset of B")
    if a_set.measure > delta:
        raise PreconditionError(f"hypothesis |A| <= delta violated: "
                                f"|A| = {a_set.measure} > {delta}")

    n, gen_max = a_set.n, a_set.gen
    selected = []
    covered_cells = np.zeros_like(a_set.mask)

    def dense(cube):
        lo, hi = cube.tilde_box(profile)
        t_vol = float(np.prod(hi - lo))
        return a_set.overlap_measure(lo, hi) > delta * t_vol

    def recurse(cube):
        if dense(cube):
            if cube.gen == 0:
                raise CzHypothesisError(
                    cube, "root cube is delta-dense; predecessor undefined "
                          "(hypothesis (1) should exclude this)")
            pred_lo, pred_hi = cube.predecessor().tilde_box(profile)
            inside_q1 = np.all(pred_lo >= -1e-12) and np.all(pred_hi <= 1 + 1e-12)
            pb_vol = float(np.prod(pred_hi - pred_lo))
            covered = b_set.overlap_measure(pred_lo, pred_hi) \
                >= pb_vol - 1e-12
            if not (inside_q1 and covered):
                raise CzHypothesisError(
                    cube, f"hypothesis (2) fails at gen {cube.gen} index "
                          f"{cube.index}: predecessor tilde box not in B")
            selected.append(cube)
            lo, hi = cube.box()
            m = a_set.m
            sl = tuple(slice(int(round(lo[d] * m)), int(round(hi[d] * m)))
                       for d in range(n))
            covered_cells[sl] = True
            return
        if cube.gen < gen_max:
            for child in cube.children():
                recurse(child)

    recurse(DyadicCube(n, 0, (0,) * n))

    boxes = [c.predecessor().tilde_box(profile) for c in selected]
    vacuous = int(np.count_nonzero(a_set.mask & ~covered_cells))
    covered = vacuous == 0

    b_measure = b_set.measure
    if boxes:
        total = sum(float(np.prod(np.minimum(hi, 1.0) - np.maximum(lo, 0.0)))
                    for lo, hi in boxes)
        c_measured = total / b_measure if b_measure > 0 else math.inf
    else:
        c_measured = 0.0

    # overlap multiplicity of the R_j at cell centers
    max_mult = 0
    if boxes:
        centers = (np.argwhere(np.ones_like(a_set.mask)) + 0.5) / a_set.m
        mult = np.zeros(centers.shape[0], dtype=int)
        for lo, hi in boxes:
            mult += np.all((centers >= lo) & (centers <= hi), axis=1)
        max_mult = int(mult.max())

    certified = covered and (a_set.measure <= delta * c_measured * b_measure
                             + 1e-12)
    return CzResult(selected, boxes, covered, vacuous, c_measured,
                    max_mult, certified)
