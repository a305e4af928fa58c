"""Monotone discrete Dirichlet solver for the inf-sup operator.

The lattice operator replaces each kernel by per-offset cell integrals
(symmetric, nonnegative: a monotone scheme) inside a finite window, plus
a scalar reaction term for the mass beyond the window that couples the
point to its far exterior value: the finite-difference quadrature of
Huang and Oberman (SIAM J. Numer. Anal. 52, 2014).

A ``Lattice`` holds that operator for one kernel on one box, from one
``assemble_weights`` call: L_K u = e - (d u - T u) on interior values.
The weights do not change under translation, so T is (block-)Toeplitz,
applied by FFT convolution (``matvec``, which CG reads); d = sum of
weights + tail; e, the exterior couplings plus the tail reaction, is one
FFT convolution of the padded exterior (``exterior``).  d I - T is a
symmetric, strictly diagonally dominant Z-matrix.  ``pair_sums`` gives
L_h u = e - (d u - T u) and |L|_h u = sum w |second difference|.

The extremal operators M^-+_h u = a L_h u -+ b |L|_h u belong to the
class, not to a family: they read the lattice of the class's base kernel
PowerLawKernel(profile, 1), which each problem builds on first use.  The
solver takes families m_ab K, m_ab > 0, for one base kernel K: constant
multiples of power-law kernels of the problem's orders, which share the
problem's lattice, or one member of any other kernel with positive
multiplier bounds, its own base (m = 1) on a lattice of its own; it
refuses any other family.  Then I_h u = phi(L_K u) with phi(r) = min_a
max_b m_ab r, strictly increasing and piecewise linear: I_h u = f is the
SPD system L_K u = phi^-1(f), solved by conjugate gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import PreconditionError
from .fields import GridField
from .kernels import KernelFamily, PowerLawKernel, tail_gauge_bounds
from .profile import AnisotropyProfile


@dataclass
class DiscreteProblem:
    profile: AnisotropyProfile
    lo: tuple
    hi: tuple
    shape: tuple
    family: KernelFamily
    exterior: object
    rhs: object = None             # callable or None (zero)
    tolerance: float = 1e-8
    max_iters: int = 20000         # cap on the total CG iterations
    window: int = None             # offset extent in cells per axis

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if min(self.shape) < 2:
            raise ValueError("need at least two lattice points per axis")
        # the counts may arrive as integral floats, such as 33.0
        self.max_iters = int(self.max_iters)
        self.window = 2 * (max(self.shape) - 1) if self.window is None \
            else int(self.window)
        h = (self.hi - self.lo) / (np.array(self.shape) - 1)
        if np.any(h <= 0):
            raise ValueError("grid spacing must be positive")
        self.h = h

    @cached_property
    def lattice(self):
        """The class's base lattice; not a field, so not in eq or repr."""
        return Lattice(self, PowerLawKernel(self.profile, 1.0))


@dataclass
class SolveReport:
    converged: bool
    iterations: int                # CG iterations, all restarts
    residual: float                # sup |I_h u - f|


def lattice_offsets(n, window):
    """All integer offsets in [-window, window]^n except the origin, in
    lexicographic order (the ``ij`` mesh lists them so), which makes
    offset negation the index reversal: off[::-1] == -off."""
    rng = np.arange(-window, window + 1)
    mesh = np.meshgrid(*[rng] * n, indexing="ij")
    off = np.stack([m.ravel() for m in mesh], axis=1)
    return off[np.any(off != 0, axis=1)]


def _refinement_level(j_inf):
    if j_inf <= 1:
        return 16
    if j_inf <= 3:
        return 4
    return 1


def _cell_weights(kernel, centers, h, level):
    """Cell integrals of the kernel by tensor-midpoint refinement, for
    many cells of one refinement level in one ``kernel.eval`` call: the
    midpoints of a ``level``^n subdivision of each cell (the cell centre
    alone at level 1), averaged and times the cell volume."""
    g, n = centers.shape
    vol = float(np.prod(h))
    if level == 1:
        return kernel.eval(centers) * vol
    sub = np.arange(level) + 0.5
    pts = np.empty((g,) + (level,) * n + (n,))
    for d in range(n):
        coord = (centers[:, d] - h[d] / 2)[:, None] + (sub * h[d] / level)
        shape = [g] + [1] * n
        shape[1 + d] = level
        pts[..., d] = coord.reshape(shape)
    vals = kernel.eval(pts.reshape(-1, n)).reshape(g, level ** n)
    return np.mean(vals, axis=1) * vol


def assemble_weights(kernel, h, window):
    """Per-offset operator weights (2x cell integrals) and the tail mass.

    Weights are computed on the canonical half of the offsets, grouped by
    refinement level, and mirrored, so w(-y) = w(y) holds exactly.  The
    tail reaction weight models the kernel mass beyond the window via the
    closed-form gauge-tail bracket of the kernel's own orders.
    """
    profile = kernel.profile
    h = np.atleast_1d(np.asarray(h, dtype=float))
    n = h.size
    if n != profile.n:
        raise ValueError(f"{n} grid spacings for a kernel in dimension "
                         f"{profile.n}")
    if np.any(h <= 0):
        raise ValueError("grid spacing must be positive")
    off = lattice_offsets(n, window)
    half = off[:off.shape[0] // 2]          # off[-1 - i] == -off[i]
    level_of = np.array([_refinement_level(j) for j in range(window + 1)])
    levels = level_of[np.max(np.abs(half), axis=1)]
    w_half = np.empty(half.shape[0])
    # a sorted set, not np.unique, which imports numpy.ma on numpy 2.4
    for level in sorted(set(levels.tolist())):
        sel = levels == level
        w_half[sel] = _cell_weights(kernel, half[sel] * h, h, int(level))
    w = np.concatenate([w_half, w_half[::-1]])
    r_ins = (window + 0.5) * float(np.min(h))
    tg_lo, tg_hi = tail_gauge_bounds(profile, r_ins)
    mult_mid = 0.5 * (kernel.mult_lo + kernel.mult_hi)
    tail_mass = mult_mid * profile.c_sigma * 0.5 * (tg_lo + tg_hi)
    return off, 2.0 * w, 2.0 * tail_mass


def _fast_len(n):
    """Smallest 2^a 3^b 5^c >= n: an FFT length without large prime factors
    (pocketfft falls back to Bluestein's algorithm on those)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _circulant_stencil(off, w, fft_shape):
    """Offsets' weights placed at their indices modulo ``fft_shape``: the
    stencil's convolution kernel, transformed."""
    ker = np.zeros(fft_shape)
    ker[tuple((off % np.array(fft_shape)).T)] = w
    return np.fft.rfftn(ker)


class Lattice:
    """L u = e - (d u - T u) of one kernel on the box of ``problem``."""

    def __init__(self, problem, kernel):
        p = problem
        self.offsets, self.weights, self.tail = assemble_weights(
            kernel, p.h, p.window)
        self.diag = float(np.sum(self.weights)) + self.tail
        self.shape = p.shape
        # lattice points of the box, one row per point in C order
        self.points = GridField(p.lo, p.hi, np.zeros(p.shape),
                                0.0).grid_points()
        # the box and ``window`` cells beyond it on each side, per axis
        self.window = pad = p.window
        self.axes = [np.concatenate([
            p.lo[d] + p.h[d] * np.arange(-pad, 0),
            np.linspace(p.lo[d], p.hi[d], p.shape[d]),
            p.hi[d] + p.h[d] * np.arange(1, pad + 1)])
            for d in range(p.lo.size)]
        self._core = tuple(slice(pad, pad + s) for s in p.shape)
        self._dims = tuple(range(len(p.shape)))
        # interior coupling: offsets within +-(N-1) cells; on a grid of
        # at least 2N-1 points per axis no wrapped term reaches the box
        inner = np.all(np.abs(self.offsets) < np.array(p.shape), axis=1)
        self.fft_shape = tuple(_fast_len(2 * s - 1) for s in p.shape)
        self._ker_hat = _circulant_stencil(
            self.offsets[inner], self.weights[inner], self.fft_shape)

    def padded(self, rule):
        """The padded lattice of ``rule``'s data with the box zeroed, and
        the rule's far value at each lattice point."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        out = rule(pts).reshape([a.size for a in self.axes])
        out[self._core] = 0.0
        return out, rule.far(self.points)

    def _coupling(self, ext_pad, far):
        """e (flat): the whole stencil against the padded exterior
        ``ext_pad`` (no box point's term wraps) plus the tail times far."""
        pad_shape = tuple(_fast_len(s) for s in ext_pad.shape)
        conv = np.fft.irfftn(
            np.fft.rfftn(ext_pad, pad_shape, self._dims)
            * _circulant_stencil(self.offsets, self.weights, pad_shape),
            pad_shape, self._dims)
        return conv[self._core].ravel() + self.tail * far

    def exterior(self, rule):
        """e (flat) of the exterior rule ``rule``."""
        return self._coupling(*self.padded(rule))

    def matvec(self, u):
        """(d I - T) u for interior values u (flat): symmetric positive
        definite."""
        full = np.fft.irfftn(
            np.fft.rfftn(u.reshape(self.shape), self.fft_shape, self._dims)
            * self._ker_hat, self.fft_shape, self._dims)
        return self.diag * u - full[tuple(slice(0, s)
                                          for s in self.shape)].ravel()

    def pair_sums(self, u):
        """(L_h u, |L|_h u) of the grid field ``u`` with its own exterior
        data: L_h u = e - (d I - T) u, the solver's two FFT products, and
        the weights times |second differences| over the canonical offsets."""
        u_pad, far = self.padded(u.exterior)
        u0, pad, shape = u.values, self.window, self.shape
        lin = self._coupling(u_pad, far) - self.matvec(u0.ravel())
        u_pad[self._core] = u0
        mag = np.abs(self.tail * (far.reshape(shape) - u0))
        half = len(self.offsets) // 2
        for o, w in zip(self.offsets[half:], self.weights[half:]):
            sl_p = tuple(slice(pad + i, pad + i + s) for i, s in zip(o, shape))
            sl_m = tuple(slice(pad - i, pad - i + s) for i, s in zip(o, shape))
            # w holds twice the cell integral: exactly the +-pair's mass
            mag += w * np.abs(u_pad[sl_p] + u_pad[sl_m] - 2.0 * u0)
        return lin.reshape(shape), mag


def _base_lattice(problem):
    """The lattice of the base kernel K and the (alpha, beta) multipliers
    m of a family of members m_ab K, m_ab > 0: the problem's own when K is
    the class's base, else a new one; any other family is refused.  A
    power-law kernel depends on n and sigma alone, so a member of the
    problem's orders is a multiple of the class's base kernel, whichever
    profile object it holds."""
    rows = problem.family.members
    for a, row in enumerate(rows):
        for b, k in enumerate(row):
            if type(k) is not PowerLawKernel or callable(k.multiplier) \
                    or k.profile.sigma != problem.profile.sigma \
                    or k.mult_lo <= 0.0:
                if len(rows) == len(row) == 1 and k.mult_lo > 0.0:
                    return Lattice(problem, k), np.ones((1, 1))
                raise ValueError(
                    f"member ({a}, {b}), a {type(k).__name__} with "
                    f"multiplier bounds [{k.mult_lo}, {k.mult_hi}], is not "
                    "a positive constant multiple of a power-law kernel of "
                    "the problem's orders; the lattice solver takes only "
                    "such families, or one member with positive bounds")
    m = np.array([[k.mult_lo for k in row] for row in rows])
    return problem.lattice, m


class AssembledOperator:
    """One base lattice L_K and the inf-sup operator phi(L_K u) - f of a
    family m_ab K, with phi(r) = min_a max_b m_ab r: ``up`` r for r >= 0,
    ``down`` r for r < 0."""

    lattice: Lattice

    def __init__(self, problem):
        self.lattice, m = _base_lattice(problem)
        self.up = m.max(axis=1).min()
        self.down = m.min(axis=1).max()
        self.exterior = self.lattice.exterior(problem.exterior)
        pts = self.lattice.points
        self.rhs = np.zeros(len(pts)) if problem.rhs is None \
            else np.asarray(problem.rhs(pts), dtype=float)

    def apply(self, values):
        """I_h u - f for interior values u (exterior from the problem)."""
        u = np.asarray(values, dtype=float).ravel()
        r = self.exterior - self.lattice.matvec(u)
        return np.where(r >= 0.0, self.up * r, self.down * r) - self.rhs

    def solve(self, u, target, budget):
        """CG steps on L_K u = phi^-1(f) toward sup |I_h u - f| <= target;
        returns (u, iterations)."""
        g = np.where(self.rhs >= 0.0, self.rhs / self.up,
                     self.rhs / self.down)
        return _cg(self.lattice.matvec, self.exterior - g, u,
                   target / max(self.up, self.down), budget)


def _cg(matvec, b, x, target, budget):
    """Conjugate gradients from x until ||b - A x||_2 <= target or
    ``budget`` iterations; returns (x, iterations).  An inner product past
    the float range raises PreconditionError: CG cannot recover from it."""
    def dot(v, w, name):
        out = float(v @ w)
        if not math.isfinite(out):
            raise PreconditionError(f"non-finite {name} = {out} in _cg")
        return out
    r = b - matvec(x)
    p = r.copy()
    rr = dot(r, r, "r @ r")
    k = 0
    while k < budget and math.sqrt(rr) > target:
        q = matvec(p)
        a = rr / dot(p, q, "p @ q")
        x = x + a * p
        r = r - a * q
        rr, rr_old = dot(r, r, "r @ r"), rr
        p = r + (rr / rr_old) * p
        k += 1
    return x, k


def solve_dirichlet(problem):
    """Solve I_h u = f to residual sup-norm <= tolerance.

    Starts from the exterior rule sampled on the grid, which makes
    globally harmonic data (constants, affine functions) exact with no
    iteration.  The linear system is solved to half the tolerance; if
    the true residual, taken from ``apply``, still misses the tolerance
    (the CG residual drifts), it is solved again to a tenth of the
    previous target, until ``max_iters`` CG iterations in total.
    """
    op = AssembledOperator(problem)
    u = np.asarray(problem.exterior(op.lattice.points), dtype=float).ravel()
    res_sup = float(np.max(np.abs(op.apply(u))))
    it = 0
    target = 0.5 * problem.tolerance
    while res_sup > problem.tolerance and it < problem.max_iters:
        u, k = op.solve(u, target, problem.max_iters - it)
        it += k
        res_sup = float(np.max(np.abs(op.apply(u))))
        if k == 0:
            break
        target *= 0.1
    field = GridField(problem.lo, problem.hi, u.reshape(problem.shape),
                      problem.exterior)
    return field, SolveReport(res_sup <= problem.tolerance, it, res_sup)


def dense_matrix(problem, member=(0, 0)):
    """Dense matrix and right-hand side of one linear member.

    For the oracle comparison: solve A u = b directly and match the
    solver's solution.  Exterior data and the tail term land in b; the
    rows are built one offset at a time, over all lattice points.
    """
    p = problem
    kernel = p.family.members[member[0]][member[1]]
    off, w, tail = assemble_weights(kernel, p.h, p.window)
    size = int(np.prod(p.shape))
    rows = np.arange(size)
    multi = np.indices(p.shape).reshape(len(p.shape), size).T
    pts = GridField(p.lo, p.hi, np.zeros(p.shape), 0.0).grid_points()
    A = np.zeros((size, size))
    A[rows, rows] = -(float(np.sum(w)) + tail)
    b = np.zeros(size)
    for k, o in enumerate(off):
        nb = multi + o
        inside = np.all((nb >= 0) & (nb < np.array(p.shape)), axis=1)
        A[rows[inside], np.ravel_multi_index(nb[inside].T, p.shape)] += w[k]
        b[~inside] -= w[k] * p.exterior(pts[~inside] + o * p.h)
    b -= tail * p.exterior.far(pts)
    if p.rhs is not None:
        b += np.asarray(p.rhs(pts))
    return A, b


def discrete_extremal(problem: DiscreteProblem, u):
    """Cellwise extremal operators (M^-_h u, M^+_h u) of the grid field
    ``u`` on the problem's lattice, with ``u``'s own exterior data.

    With a = (Lambda + lambda) / 2 and b = (Lambda - lambda) / 2, M^-+_h u
    = a L_h u -+ b |L|_h u, from the pair sums of the class's base lattice.
    ``u`` must lie on that lattice: its box and shape are the problem's.
    """
    if u.values.shape != problem.shape or not (
            np.array_equal(u.lo, problem.lo)
            and np.array_equal(u.hi, problem.hi)):
        raise ValueError(
            f"the field's lattice is not the problem's: {u.values.shape} "
            f"points on {u.lo} to {u.hi}, not {problem.shape} on "
            f"{problem.lo} to {problem.hi}")
    lin, mag = problem.lattice.pair_sums(u)
    a = 0.5 * (problem.profile.lambda_hi + problem.profile.lambda_lo)
    b = 0.5 * (problem.profile.lambda_hi - problem.profile.lambda_lo)
    return a * lin - b * mag, a * lin + b * mag
