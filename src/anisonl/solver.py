"""Monotone discrete Dirichlet solver for the inf-sup operator.

The lattice operator replaces each kernel by per-offset cell integrals
(symmetric, nonnegative: a monotone scheme) inside a finite window, plus
a scalar reaction term for the mass beyond the window that couples the
point to its far exterior value: the finite-difference quadrature of
Huang and Oberman (SIAM J. Numer. Anal. 52, 2014).

On interior values the lattice operator of a kernel K reads L_K u =
e - (d u - T u).  The weights do not change under translation, so the
interior coupling T is a (block-)Toeplitz matrix, applied by FFT
convolution with the stencil truncated to +-(N-1) cells per axis; d =
sum of weights + tail; and e, the exterior couplings plus the tail
reaction, is one FFT convolution of the padded exterior, computed once.
d I - T is a symmetric, strictly diagonally dominant Z-matrix.

The solver takes families whose members are m_ab K with m_ab > 0, for
one base kernel K: positive constant multiples of power-law kernels of
the family's profile (base multiplier 1), or one member of any kernel
with positive multiplier bounds (its own base, m = 1); it refuses any
other family.  Then I_h u = phi(L_K u) with phi(r) = min_a max_b m_ab r,
strictly increasing and piecewise linear, so I_h u = f is the single SPD
system L_K u = phi^-1(f), solved by conjugate gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def grid_points(self):
        """Lattice points of the box, one row per point in C order."""
        return GridField(self.lo, self.hi, np.zeros(self.shape),
                         self.exterior).grid_points()


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


def assemble_weights(kernel, h, profile, window):
    """Per-offset operator weights (2x cell integrals) and the tail mass.

    Weights are computed on the canonical half of the offsets, grouped by
    refinement level, and mirrored, so w(-y) = w(y) holds exactly.  The
    tail reaction weight models the kernel mass beyond the window via the
    closed-form gauge-tail bracket.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    n = h.size
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


def _padded(problem, exterior, interior):
    """The lattice padded by ``problem.window`` cells of ``exterior`` data
    per side, with ``interior`` written into the box, and the far value at
    each lattice point: the midpoint of the exterior's far range."""
    pad = problem.window
    axes = [np.concatenate([
        problem.lo[d] + problem.h[d] * np.arange(-pad, 0),
        np.linspace(problem.lo[d], problem.hi[d], problem.shape[d]),
        problem.hi[d] + problem.h[d] * np.arange(1, pad + 1)])
        for d in range(problem.lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    out = exterior(pts).reshape([a.size for a in axes])
    out[tuple(slice(pad, pad + s) for s in problem.shape)] = interior
    lo, hi = exterior.far_range(problem.grid_points())
    return out, 0.5 * (lo + hi)


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


class _Stencil:
    """The lattice operator of one kernel: L u = e - (d u - T u)."""

    def __init__(self, problem, kernel, ext_pad, far):
        p = problem
        off, w, tail = assemble_weights(kernel, p.h, p.profile, p.window)
        self.shape = p.shape
        self._axes = tuple(range(len(p.shape)))
        self.diag = float(np.sum(w)) + tail
        # interior coupling: offsets within +-(N-1) cells; on a grid of
        # at least 2N-1 points per axis no wrapped term reaches the box
        inner = np.all(np.abs(off) < np.array(p.shape), axis=1)
        self._fft_shape = tuple(_fast_len(2 * s - 1) for s in p.shape)
        self._ker_hat = _circulant_stencil(off[inner], w[inner],
                                           self._fft_shape)
        # exterior couplings: the whole stencil against the padded exterior
        # (interior zeroed); no term of a box point wraps around
        pad_shape = tuple(_fast_len(s) for s in ext_pad.shape)
        conv = np.fft.irfftn(
            np.fft.rfftn(ext_pad, pad_shape, self._axes)
            * _circulant_stencil(off, w, pad_shape), pad_shape, self._axes)
        core = tuple(slice(p.window, p.window + s) for s in p.shape)
        self.exterior = conv[core].ravel() + tail * far

    def matvec(self, u):
        """(d I - T) u for interior values u (flat): symmetric positive
        definite."""
        full = np.fft.irfftn(
            np.fft.rfftn(u.reshape(self.shape), self._fft_shape, self._axes)
            * self._ker_hat, self._fft_shape, self._axes)
        return self.diag * u - full[tuple(slice(0, s)
                                          for s in self.shape)].ravel()

    def apply(self, u):
        return self.exterior - self.matvec(u)


def _base_kernel(family):
    """The base kernel K and the (n_inf, n_sup) multipliers m of a family
    whose members are m_ab K with m_ab > 0.

    Positive constant multiples of power-law kernels of the family's
    profile have base ``PowerLawKernel(profile, 1.0)``; a one-member family
    of any other kernel with positive multiplier bounds is its own base,
    with m = [[1]].  Any other family is refused."""
    rows = family.members
    for a, row in enumerate(rows):
        for b, k in enumerate(row):
            if type(k) is not PowerLawKernel or callable(k.multiplier) \
                    or k.profile is not family.profile or k.mult_lo <= 0.0:
                if len(rows) == len(row) == 1 and k.mult_lo > 0.0:
                    return k, np.ones((1, 1))
                raise ValueError(
                    f"member ({a}, {b}), a {type(k).__name__} with "
                    f"multiplier bounds [{k.mult_lo}, {k.mult_hi}], is not "
                    "a positive constant multiple of a power-law kernel of "
                    "the family's profile; the lattice solver takes only "
                    "such families, or one member with positive bounds")
    m = np.array([[k.mult_lo for k in row] for row in rows])
    return PowerLawKernel(family.profile, 1.0), m


class AssembledOperator:
    """One base stencil L_K and the inf-sup operator phi(L_K u) - f of a
    family m_ab K, with phi(r) = min_a max_b m_ab r: ``up`` r for r >= 0,
    ``down`` r for r < 0."""

    def __init__(self, problem):
        self.problem = problem
        kernel, m = _base_kernel(problem.family)
        self.up = m.max(axis=1).min()
        self.down = m.min(axis=1).max()
        ext_pad, far = _padded(problem, problem.exterior, 0.0)
        self.stencil = _Stencil(problem, kernel, ext_pad, far)
        self.rhs = self._rhs_values()

    def _rhs_values(self):
        p = self.problem
        if p.rhs is None:
            return np.zeros(int(np.prod(p.shape)))
        return np.asarray(p.rhs(p.grid_points()), dtype=float)

    def apply(self, values):
        """I_h u - f for interior values u (exterior from the problem)."""
        r = self.stencil.apply(np.asarray(values, dtype=float).ravel())
        return np.where(r >= 0.0, self.up * r, self.down * r) - self.rhs

    def solve(self, u, target, budget):
        """CG steps on L_K u = phi^-1(f) toward sup |I_h u - f| <= target;
        returns (u, iterations)."""
        g = np.where(self.rhs >= 0.0, self.rhs / self.up,
                     self.rhs / self.down)
        st = self.stencil
        return _cg(st.matvec, st.exterior - g, u,
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
    u = np.asarray(problem.exterior(problem.grid_points()),
                   dtype=float).ravel()
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
    off, w, tail = assemble_weights(kernel, p.h, p.profile, p.window)
    size = int(np.prod(p.shape))
    rows = np.arange(size)
    multi = np.indices(p.shape).reshape(len(p.shape), size).T
    pts = p.grid_points()
    A = np.zeros((size, size))
    A[rows, rows] = -(float(np.sum(w)) + tail)
    b = np.zeros(size)
    for k, o in enumerate(off):
        nb = multi + o
        inside = np.all((nb >= 0) & (nb < np.array(p.shape)), axis=1)
        A[rows[inside], np.ravel_multi_index(nb[inside].T, p.shape)] += w[k]
        b[~inside] -= w[k] * p.exterior(pts[~inside] + o * p.h)
    lo, hi = p.exterior.far_range(pts)
    b -= tail * (0.5 * (lo + hi))
    if p.rhs is not None:
        b += np.asarray(p.rhs(pts))
    return A, b


def discrete_extremal(problem, u):
    """Cellwise extremal operators (M^-_h u, M^+_h u) of the grid field
    ``u`` on the problem lattice, with ``u``'s own exterior data.

    With a = (Lambda + lambda) / 2 and b = (Lambda - lambda) / 2, M^-+_h u
    = a L_h u -+ b |L|_h u: the multiplier-one base weights times the second
    differences and their absolute values, summed in one pass over the
    canonical half of the offsets, off[len // 2:], with doubled weights.
    """
    p = problem
    base = PowerLawKernel(p.profile, 1.0)
    off, w, tail = assemble_weights(base, p.h, p.profile, p.window)
    pad = p.window
    u_pad, far = _padded(p, u.exterior, u.values)
    u0 = u.values
    lin = tail * (far.reshape(p.shape) - u0)
    mag = np.abs(lin)
    for k in range(len(off) // 2, len(off)):
        o = off[k]
        sl_p = tuple(slice(pad + i, pad + i + s) for i, s in zip(o, p.shape))
        sl_m = tuple(slice(pad - i, pad - i + s) for i, s in zip(o, p.shape))
        delta = u_pad[sl_p] + u_pad[sl_m] - 2.0 * u0
        # w[k] holds twice the cell integral: exactly the +-pair's mass
        lin += w[k] * delta
        mag += w[k] * np.abs(delta)
    a = 0.5 * (p.profile.lambda_hi + p.profile.lambda_lo)
    b = 0.5 * (p.profile.lambda_hi - p.profile.lambda_lo)
    return a * lin - b * mag, a * lin + b * mag
