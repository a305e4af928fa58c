"""Rectangle covers of the contact set and their verification.

The cover construction tiles B_1 by translates of the rectangle
R_{a, s}(0) with a = rho0 2^{-1/q_max} and s = 2^{-frak_c (n+sigma_min)};
only tiles whose closure meets the contact set are materialized (the
construction discards the rest anyway, and the full tiling at the default
rho0 is astronomically large).  A split divides every edge by 2^{frak_c},
so generation g tiles are translates of R_{a, s^{g+1}} and their tilde
rectangles have the bounding-box half-widths of Theta_{r_{g+1}}.

Per rectangle the two measure properties are evaluated:

  gradient image: |grad Gamma(R_j)| <= C_grad (max_{R_j} f+)^n |R_j|
  detachment:     |{y in C R~_j : u >= Gamma - C_det (max f) d~_j^2}|
                    >= varsigma |R~_j|

The detachment measure is |C R~_j| minus its overlap with the cells of
u's lattice points where Gamma_D - u exceeds the slack.  Rectangles
failing either are split, up to a depth cap.  The thresholds C_grad and
varsigma, the depth cap, C_det and the expansion constant C are module
constants; ``verify_cover`` re-checks the cover's geometry, reports the
measured constants and decides the verdict, ``passed``.  A constant an
empty cover cannot measure is None beside a ``<key>_reason`` string,
never a non-finite sentinel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import PreconditionError
from .envelope import contact_set, lattice_gap
from .geometry import theta_half_widths
from .profile import AnisotropyProfile

# C_det and the expansion constant C of the detachment test; a rectangle
# passes at gradient-image ratio at most GRAD_THRESHOLD and detachment
# ratio at least VARSIGMA, and splits stop at generation DEPTH_CAP
DETACH_CONSTANT = 4.0
EXPAND_C = 2.0
GRAD_THRESHOLD = 1e6
VARSIGMA = 1e-3
DEPTH_CAP = 40
# a point within this fraction of a tile edge of a face lies in both tiles
# the face separates; relative, so it holds at every generation's scale
FACE_EPS = 1e-9


class CoverError(PreconditionError):
    """The cover cannot be built at these constants; ``gen`` and ``width``
    (the tile edges) name the generation where it stopped."""

    def __init__(self, message, gen, width):
        self.gen = gen
        self.width = width
        super().__init__(
            f"{message} (generation {gen}, tile width "
            + ", ".join(f"{w:.3e}" for w in width) + ")")


class CoverDepthError(CoverError):
    def __init__(self, chain, width):
        self.chain = chain
        super().__init__(
            "cover recursion exceeded the depth cap; offending chain: "
            + " -> ".join(f"gen {g} idx {i}" for g, i in chain),
            chain[-1][0], width)


class DegenerateTileError(CoverError):
    """A tile too small to represent: its lattice index leaves the exact
    integers, or its C R~ is narrower than the field's lattice spacing."""


def tile_half_widths(profile, gen):
    a = profile.radius(0)
    shrink = 2.0 ** (-profile.frak_c * (gen + 1))
    return shrink * theta_half_widths(profile, a)


def tilde_half_widths(profile, gen):
    """Half-widths of the tilde rectangle: the Theta_{r_{gen+1}} box."""
    return theta_half_widths(profile, profile.radius(gen + 1))


@dataclass
class CoverRectangle:
    gen: int
    index: tuple
    profile: AnisotropyProfile
    record: dict = dfield(default_factory=dict)

    @property
    def half(self):
        return tile_half_widths(self.profile, self.gen)

    @property
    def center(self):
        h = self.half
        return (np.asarray(self.index, dtype=float) + 0.5) * (2.0 * h)

    @property
    def lo(self):
        return self.center - self.half

    @property
    def hi(self):
        return self.center + self.half

    @property
    def diameter(self):
        return 2.0 * float(np.linalg.norm(self.half))

    @property
    def tilde_half(self):
        return tilde_half_widths(self.profile, self.gen)

    @property
    def tilde_diameter(self):
        return 2.0 * float(np.linalg.norm(self.tilde_half))

    def closure_contains(self, pts):
        pts = np.atleast_2d(pts)
        slack = FACE_EPS * 2.0 * self.half
        return np.all((pts >= self.lo - slack) & (pts <= self.hi + slack),
                      axis=1)


def _tiles_for_points(profile, pts, gen):
    """Every generation-``gen`` tile whose closure holds one of the points."""
    h = tile_half_widths(profile, gen)
    edge = 2.0 * h
    pts = np.atleast_2d(pts)
    # float coordinates hold every integer only below 2^53
    if not np.all(np.abs(pts / edge) < 2.0 ** 52):
        raise DegenerateTileError("tile index beyond exact integers", gen,
                                  edge)
    found = set()
    for p in pts:
        t = p / edge
        # Python ints, so that a chain of indices prints as (2, 1)
        base = np.floor(t).astype(int).tolist()
        # points within FACE_EPS edges of a face belong to both neighbours
        choices = []
        for d in range(len(base)):
            frac = t[d] - base[d]
            opts = [base[d]]
            if frac < FACE_EPS:
                opts.append(base[d] - 1)
            if frac > 1.0 - FACE_EPS:
                opts.append(base[d] + 1)
            choices.append(opts)
        found.update(itertools.product(*choices))
    return sorted(found)


def _children_with_points(profile, rect, pts):
    factor = 2 ** profile.frak_c
    child_idx = _tiles_for_points(profile, pts, rect.gen + 1)
    out = []
    for idx in child_idx:
        parent = tuple(i // factor for i in idx)
        if parent == rect.index:
            out.append(CoverRectangle(rect.gen + 1, idx, profile))
    return out


def _max_f(f, rect, extra_pts):
    """max f^+ over the rows of ``extra_pts`` and the rectangle's 3^n
    corners, edge and face midpoints and centre."""
    mesh = np.meshgrid(*np.stack([rect.lo, rect.center, rect.hi], axis=1),
                       indexing="ij")
    pts = np.vstack([np.stack([m.ravel() for m in mesh], axis=1), extra_pts])
    return float(np.max(np.maximum(f.eval(pts), 0.0)))


@dataclass
class AbpCover:
    rectangles: list
    contact_points: np.ndarray


def _eval_rect(u, env, f, rect, contact_pts):
    in_rect = rect.closure_contains(contact_pts)
    max_f = _max_f(f, rect, contact_pts[in_rect])
    grad_img = env.grad_image_measure(rect.lo, rect.hi)
    vol = float(np.prod(2.0 * rect.half))
    denom = (max_f ** rect.lo.size) * vol
    grad_ratio = grad_img / denom if denom > 0 else (
        0.0 if grad_img == 0.0 else math.inf)

    t_half = EXPAND_C * rect.tilde_half
    t_vol_plain = float(np.prod(2.0 * rect.tilde_half))
    # at least one spacing wide: the cells resolve it, no volume underflows
    if np.any(2.0 * t_half < u.h):
        raise DegenerateTileError(
            f"C R~ is narrower than the lattice spacing {np.max(u.h):.3e}",
            rect.gen, 2.0 * rect.half)
    lo, hi = rect.center - t_half, rect.center + t_half
    if np.any(lo < u.lo - 0.5 * u.h) or np.any(hi > u.hi + 0.5 * u.h):
        raise CoverError("C R~ reaches past the field's lattice cells",
                         rect.gen, 2.0 * rect.half)
    overlap, block = u.cell_overlaps(lo, hi)
    slack = DETACH_CONSTANT * max_f * rect.tilde_diameter ** 2
    detached = lattice_gap(u, env, block) > slack
    detach_measure = (float(np.prod(2.0 * t_half))
                      - float(np.sum(overlap[detached])))
    rect.record = {
        "max_f": max_f,
        "grad_image": grad_img,
        "volume": vol,
        "grad_ratio": grad_ratio,
        "detach_measure": detach_measure,
        "tilde_volume": t_vol_plain,
        "varsigma_ratio": detach_measure / t_vol_plain,
        "contact_count": int(np.count_nonzero(in_rect)),
    }
    return rect.record


def abp_cover(u, f, profile, env):
    """Build the disjoint rectangle family covering the contact set of
    ``u`` under its concave envelope ``env``.

    Splits rectangles violating the measured gradient-image or detachment
    properties until all pass or the depth cap trips (CoverDepthError
    with the offending chain).  Each rectangle carries its record.
    """
    pts, _ = contact_set(u, env)
    if pts.shape[0] == 0:
        return AbpCover([], pts)

    queue = [CoverRectangle(0, idx, profile)
             for idx in _tiles_for_points(profile, pts, 0)]
    final = []
    while queue:
        rect = queue.pop()
        rec = _eval_rect(u, env, f, rect, pts)
        grad_ok = rec["grad_ratio"] <= GRAD_THRESHOLD
        detach_ok = rec["varsigma_ratio"] >= VARSIGMA
        if grad_ok and detach_ok:
            final.append(rect)
            continue
        if rect.gen + 1 > DEPTH_CAP:
            # ancestor g: index // 2^(frak_c (gen - g)), a shift: no overflow
            chain = [(g, tuple(i >> profile.frak_c * (rect.gen - g)
                               for i in rect.index))
                     for g in range(rect.gen + 1)]
            raise CoverDepthError(chain, 2.0 * rect.half)
        queue.extend(_children_with_points(profile, rect, pts))
    final.sort(key=lambda r: (r.gen, r.index))
    return AbpCover(final, pts)


def cover_dump(cover):
    """JSON-ready cover description: corners, flags and measures."""
    out = []
    for r in cover.rectangles:
        out.append({
            "gen": int(r.gen),
            "index": [int(i) for i in r.index],
            "lo": r.lo.tolist(),
            "hi": r.hi.tolist(),
            "diameter": float(r.diameter),
            "tilde_diameter": float(r.tilde_diameter),
            "record": {k: (float(v) if np.isscalar(v) else v)
                       for k, v in r.record.items()},
        })
    return out


def verify_cover(cover, profile):
    """Re-check the cover contract (disjointness, contact coverage and
    meeting, diameter bound, gradient-image and detachment measures),
    aggregate the empirical constants and decide ``passed``: disjoint,
    covering the contact set and within the diameter bound."""
    rects = cover.rectangles
    report = {"n_rectangles": len(rects)}

    disjoint = True
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            slack = FACE_EPS * 2.0 * np.minimum(a.half, b.half)
            if np.all(a.lo < b.hi - slack) and np.all(b.lo < a.hi - slack):
                disjoint = False
    report["disjoint"] = disjoint

    pts = cover.contact_points
    if len(pts):
        covered = np.zeros(len(pts), dtype=bool)
        for r in rects:
            covered |= r.closure_contains(pts)
        report["contact_covered"] = bool(covered.all())
    else:
        report["contact_covered"] = True
    report["all_meet_contact"] = all(
        bool(r.closure_contains(pts).any()) for r in rects) if len(pts) else True

    a = profile.radius(0)
    dmax = math.sqrt(float(np.sum(a ** (2.0 / profile.exponents))))
    report["diameter_bound"] = dmax
    report["diameter_ok"] = all(r.diameter <= dmax + 1e-12 for r in rects)

    if rects:
        report["grad_constant_measured"] = max(r.record["grad_ratio"]
                                               for r in rects)
        report["varsigma_measured"] = min(r.record["varsigma_ratio"]
                                          for r in rects)
        report["sup_u_bound_sum"] = sum(
            (r.record["max_f"] ** profile.n) * r.record["volume"]
            for r in rects)
    else:
        report["grad_constant_measured"] = 0.0
        report["varsigma_measured"] = None
        report["varsigma_measured_reason"] = "the cover has no rectangle"
        report["sup_u_bound_sum"] = 0.0
    report["passed"] = (report["disjoint"] and report["contact_covered"]
                        and report["diameter_ok"])
    return report
