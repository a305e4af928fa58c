"""Span tracer that wraps anisonl's public functions from outside.

``install()`` imports every ``anisonl`` module, then replaces each traced
function under every name it is bound to (a function imported with
``from .x import f`` lives on in the importing module too), and each traced
method on its class.  A span records calls, total time and self time (total
minus the time of traced calls made inside it); hooks add work counts.
Targets missing from the program are skipped and report zero.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []      # per open span: time spent in traced children
        self._open = []         # names of the open spans, outermost first

    def wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            self._child_s.append(0.0)
            self._open.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
            if post is not None:
                post(self, args, out)
            return out
        return traced

    def inside(self, name):
        return name in self._open

    def dump(self):
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# hooks: work counts taken at the layer boundary
# ---------------------------------------------------------------------------

def _count_rows(key):
    def post(tr, args, out):
        tr.counts[key] += len(out)
    return post


def _integrate_pre(tr, args, kwargs):
    """Count the rows ``integrate(profile, quad, integrand)`` passes on."""
    if len(args) != 3:
        return args, kwargs
    profile, quad, fn = args

    def counted(pts):
        tr.counts["quadrature.nodes_accepted"] += len(pts)
        return fn(pts)

    return (profile, quad, counted), kwargs


def _integrate_post(tr, args, out):
    quad = args[1]
    tr.counts["quadrature.nodes_drawn"] += (
        quad.shells * quad.nodes_per_shell
        + quad.nodes_per_shell * quad.outer_factor)
    tr.counts["quadrature.rng_streams"] += quad.shells + 1


def _eval_extremal_post(tr, args, out):
    if tr.inside("barriers.find_p"):
        tr.counts["barriers.find_p.margin_evals"] += 1


def _verify_post(tr, args, out):
    tr.counts["barriers.verify_supersolution.points"] += len(args[1])


def _assemble_post(tr, args, out):
    tr.counts["solver.assemble_weights.offsets"] += len(out[0])


def _solve_post(tr, args, out):
    tr.counts["solver.solve_dirichlet.iterations"] += out[1].iterations


def _sweep_post(tr, args, out):
    # the numpy sweep holds one shifted copy of the field per offset
    n_off, n_pts = len(args[2]), len(out[0])
    key = "accel.solver_sweep.temp_bytes"
    tr.counts[key] = max(tr.counts[key], 8 * n_off * n_pts)


# (span name, module, attribute path, pre hook, post hook)
TARGETS = [
    ("cli.load_config", "anisonl.cli", "load_config", None, None),
    ("cli.emit_results", "anisonl.cli", "emit_results", None, None),
    ("geometry.gauge", "anisonl.geometry", "gauge", None,
     _count_rows("geometry.gauge.points")),
    ("fields.second_difference", "anisonl.fields", "second_difference",
     None, _count_rows("fields.second_difference.points")),
    ("fields.estimate_c11", "anisonl.fields", "estimate_c11", None, None),
    ("kernels.PowerLawKernel.eval", "anisonl.kernels", "PowerLawKernel.eval",
     None, _count_rows("kernels.PowerLawKernel.eval.points")),
    ("kernels.tail_gauge_bounds", "anisonl.kernels", "tail_gauge_bounds",
     None, None),
    ("quadrature.integrate", "anisonl.quadrature", "integrate",
     _integrate_pre, _integrate_post),
    ("operators.eval_extremal", "anisonl.operators", "eval_extremal", None,
     _eval_extremal_post),
    ("barriers.find_p", "anisonl.barriers", "find_p", None, None),
    ("barriers.verify_supersolution", "anisonl.barriers",
     "verify_supersolution", None, _verify_post),
    ("solver.AssembledOperator.build", "anisonl.solver",
     "AssembledOperator.__init__", None, None),
    ("solver.assemble_weights", "anisonl.solver", "assemble_weights", None,
     _assemble_post),
    ("solver.solve_dirichlet", "anisonl.solver", "solve_dirichlet", None,
     _solve_post),
    ("solver.discrete_extremal", "anisonl.solver", "discrete_extremal",
     None, None),
    ("experiments.harnack_quotient", "anisonl.experiments",
     "harnack_quotient", None, None),
    ("experiments.sigma_sweep", "anisonl.experiments", "sigma_sweep", None,
     None),
    ("accel.solver_sweep", "anisonl._accel", "solver_sweep", None,
     _sweep_post),
    ("accel.interp_many", "anisonl._accel", "interp_many", None,
     _count_rows("accel.interp_many.points")),
]


def _import_all():
    import anisonl
    for info in pkgutil.iter_modules(anisonl.__path__):
        importlib.import_module("anisonl." + info.name)
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "anisonl"
                                  or name.startswith("anisonl."))]


def install():
    """Patch every target; returns the tracer and the names patched."""
    tracer = Tracer()
    modules = _import_all()
    patched = []
    for name, mod_name, attr, pre, post in TARGETS:
        mod = sys.modules.get(mod_name)
        owner_path, _, leaf = attr.rpartition(".")
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, pre, post)
        if owner_path:                       # a method: patch the class
            setattr(owner, leaf, wrapper)
            patched.append(f"{mod_name}.{attr}")
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patched.append(f"{m.__name__}.{key}")
    return tracer, patched
