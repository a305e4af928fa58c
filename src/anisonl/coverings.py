"""The dyadic rectangle (Calderon-Zygmund) decomposition.

``cz_decompose``: dyadic selection on the unit cube with tilde-box
densities.  Sets are unions of generation-G lattice cells, so every
measure is an exact cell-overlap computation.  The hypothesis is the
literal one: a dyadic cube whose tilde box holds more than a delta
fraction of A forces the tilde box of its predecessor inside B.

Each generation is tested in one pass over the lattice: the tilde boxes
of its cubes form a product grid, and a set's measure in every box of
that grid is read off its cumulative measure along each axis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import PreconditionError


def tilde_boxes(n, gen, profile):
    """Lower and upper edges, each of shape (n, 2^gen), of the tilde boxes
    of the generation-``gen`` cubes along every axis: same centre as the
    cube, half-widths following the R_{r,s} -> R~_{r,s} law with r = 1
    (cube side = 2 s^{1/(n+s_min)}); without a profile, the cube itself."""
    side = 2.0 ** (-gen)
    lo = np.arange(2 ** gen, dtype=float) * side
    centre = 0.5 * (lo + (lo + side))
    if profile is None:
        h = np.full((n, 1), 0.5 * side)
    else:
        # ratio first: exactly 1 on a sigma_min axis (every axis of an
        # equal-order profile), whose half-width is then the cube's
        expo = (gen + 1) * ((profile.n + profile.sigma_min)
                            / profile.exponents)
        h = 2.0 ** (-expo)[:, None]
    return centre - h, centre + h


def _outer(ufunc, rows):
    """``ufunc`` of the per-axis rows over the product grid, taken over
    the axes in order (for ``np.multiply``, the order of ``np.prod``)."""
    return functools.reduce(ufunc.outer, rows)


def _cumulative_between(cum, lo_d, hi_d, m):
    """The cumulative measure ``cum`` (along axis 0, in cell units, with a
    leading zero) at the ``hi_d`` coordinates minus at the ``lo_d`` ones,
    linear inside a cell: cum[k] + frac (cum[k + 1] - cum[k]), gathered
    into preallocated arrays and combined in place."""
    shape = hi_d.shape + cum.shape[1:]
    at_hi, at_lo, step = np.empty(shape), np.empty(shape), np.empty(shape)
    for at, edges in ((at_hi, hi_d), (at_lo, lo_d)):
        x = np.clip(edges * m, 0.0, m)
        k = np.minimum(x.astype(int), m - 1)
        frac = (x - k).reshape((-1,) + (1,) * (cum.ndim - 1))
        # every index is in range; mode "clip" gathers without a buffer
        np.take(cum, k, axis=0, out=at, mode="clip")
        np.take(cum, k + 1, axis=0, out=step, mode="clip")
        step -= at
        step *= frac
        at += step
    at_hi -= at_lo
    return at_hi


class CellSet:
    """Union of generation-G lattice cells of Q_1 as a boolean array."""

    def __init__(self, n, gen, mask):
        self.n = n
        self.gen = gen
        self.m = 2 ** gen
        self.mask = mask

    @property
    def measure(self):
        return float(np.count_nonzero(self.mask)) / self.m ** self.n

    def issubset(self, other):
        return bool(np.all(other.mask[self.mask]))

    def box_measures(self, lo, hi):
        """Exact measure of (set intersect box) for every box of the
        product grid prod_d [lo[d][i_d], hi[d][i_d]], as an array indexed
        by (i_0, ..., i_{n-1})."""
        out = self.mask
        for lo_d, hi_d in zip(lo, hi):
            cum = np.zeros((self.m + 1,) + out.shape[1:])
            np.cumsum(out, axis=0, dtype=float, out=cum[1:])
            del out                 # summed: freed before the gathers
            out = np.moveaxis(_cumulative_between(cum, lo_d, hi_d, self.m),
                              0, -1)
        return np.divide(out, self.m ** self.n, out=out)


class CzHypothesisError(PreconditionError):
    """A hypothesis of the decomposition fails; the witness is the cube
    prod_d [index_d, index_d + 1) * 2^-gen of Q_1 = [0, 1)^n."""

    def __init__(self, gen, index, message):
        self.gen = gen          # int
        self.index = index      # tuple of int
        super().__init__(message)


@dataclass
class CzResult:
    """The maximal dyadic cubes with dense tilde boxes, one row each in
    depth-first order: cube j is prod_d [index[j, d], index[j, d] + 1)
    * 2^-gen[j], and R_j = [box_lo[j], box_hi[j]] the tilde box of its
    predecessor."""
    gen: np.ndarray         # (k,) int
    index: np.ndarray       # (k, n) int, at the cube's own generation
    box_lo: np.ndarray      # (k, n)
    box_hi: np.ndarray      # (k, n)
    covered: bool           # A subset of union R_j
    vacuous_cells: int      # A-cells never captured by a dense cube
    c_measured: float       # sum |R_j cap Q_1| / |B|
    max_multiplicity: int
    certified: bool         # |A| <= delta * C * |B| with the above C


def cz_decompose(a_set: CellSet, b_set: CellSet, delta, profile=None):
    """Rectangle Calderon-Zygmund decomposition on exact lattice sets.

    Selects the maximal dyadic cubes whose tilde boxes are delta-dense in
    A, one generation at a time, and lists them in the depth-first order
    of the dyadic tree (children by the binary number whose bit d is the
    cube's half along axis d).  Every selected cube must satisfy the
    containment hypothesis (tilde box of the predecessor inside B),
    otherwise CzHypothesisError reports the first failing cube in that
    order as the witness.
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

    n, top, m = a_set.n, a_set.gen, a_set.m
    alive = np.ones((1,) * n, dtype=bool)
    covered = ~alive
    # the dense cubes of every generation: generation, lattice corner at
    # generation G, predecessor tilde box and whether hypothesis (2) holds
    gens, corners = [np.zeros(0, int)], [np.zeros((0, n), int)]
    box_lo, box_hi = [np.zeros((0, n))], [np.zeros((0, n))]
    holds = [np.zeros(0, bool)]
    for gen in range(top + 1):
        lo, hi = tilde_boxes(n, gen, profile)
        dense = alive & (a_set.box_measures(lo, hi)
                         > delta * _outer(np.multiply, hi - lo))
        index = np.argwhere(dense)
        if len(index) and gen == 0:
            raise CzHypothesisError(
                0, (0,) * n, "root cube is delta-dense; predecessor "
                "undefined (hypothesis (1) should exclude this)")
        if len(index):
            inside = _outer(np.logical_and,
                            (pred_lo >= -1e-12) & (pred_hi <= 1 + 1e-12))
            in_b = b_set.box_measures(pred_lo, pred_hi) \
                >= _outer(np.multiply, pred_hi - pred_lo) - 1e-12
            pred = index // 2
            gens.append(np.full(len(index), gen))
            corners.append(index << (top - gen))
            box_lo.append(pred_lo[np.arange(n), pred])
            box_hi.append(pred_hi[np.arange(n), pred])
            holds.append((inside & in_b)[tuple(pred.T)])
        covered |= dense
        alive &= ~dense
        if gen == top or not alive.any():
            break
        children = np.ones((2,) * n, dtype=bool)
        alive, covered = np.kron(alive, children), np.kron(covered, children)
        pred_lo, pred_hi = lo, hi
    covered = np.kron(covered, np.ones((2 ** (top - gen),) * n, dtype=bool))

    # depth-first order: the bits of the lattice corners interleaved, the
    # coarsest level first; the dense cubes are disjoint, so keys differ
    gens, corners, box_lo, box_hi, holds = map(
        np.concatenate, (gens, corners, box_lo, box_hi, holds))
    key = np.zeros(len(gens), dtype=int)
    for b in range(top):
        for d in range(n):
            key |= ((corners[:, d] >> b) & 1) << (b * n + d)
    order = np.argsort(key)
    gens, corners, box_lo, box_hi, holds = (
        x[order] for x in (gens, corners, box_lo, box_hi, holds))
    index = corners >> (top - gens)[:, None]
    if not holds.all():
        j = int(np.argmin(holds))
        g, witness = int(gens[j]), tuple(index[j].tolist())
        raise CzHypothesisError(
            g, witness, f"hypothesis (2) fails at gen {g} index {witness}: "
                        "predecessor tilde box not in B")
    vacuous = int(np.count_nonzero(a_set.mask & ~covered))
    covered = vacuous == 0

    b_measure = b_set.measure
    c_measured, max_mult = 0.0, 0
    if len(gens):
        total = sum(np.prod(np.minimum(box_hi, 1.0) - np.maximum(box_lo, 0.0),
                            axis=1).tolist())
        c_measured = total / b_measure if b_measure > 0 else math.inf
        # overlap multiplicity of the R_j at the cell centres c, each box
        # holding those with lo <= c <= hi on every axis: +-1 at the 2^n
        # corners of each box's cell range, summed up along every axis
        centres = (np.arange(m) + 0.5) / m
        ends = (np.searchsorted(centres, box_lo, "left"),
                np.searchsorted(centres, box_hi, "right"))
        mult = np.zeros((m + 1,) * n, dtype=int)
        for corner in itertools.product((0, 1), repeat=n):
            np.add.at(mult, tuple(ends[c][:, d] for d, c in enumerate(corner)),
                      (-1) ** sum(corner))
        for d in range(n):
            np.cumsum(mult, axis=d, out=mult)
        max_mult = int(mult[(slice(m),) * n].max())

    certified = covered and (a_set.measure <= delta * c_measured * b_measure
                             + 1e-12)
    return CzResult(gens, index, box_lo, box_hi, covered, vacuous,
                    c_measured, max_mult, certified)
