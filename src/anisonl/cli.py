"""Batch front-end: JSON config in, results.json + data.csv out.

One process runs one named command read from the config file.  Runs are
deterministic: the emitted files embed the config digest and seed, carry
no timestamps, and re-running an identical config reproduces identical
bytes.  Exit codes: 0 pass, 1 property failure, 2 config error, 3 invalid
experiment preconditions.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from . import PreconditionError
from .profile import AnisotropyProfile
from .quadrature import QuadratureScheme, shell_radii

_NUMBER = {"type": "number"}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_ORDER = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 2}
# numpy's generators take no negative seed
_SEED = {"type": "integer", "minimum": 0}

# The ``properties`` of each command's ``params`` object: every key the
# command reads, and no other.  A bound is declared only where a value
# outside it crashes the command; an integer may arrive as 33.0, so the
# commands take int() of the integer params.
_GRID = {"type": "integer", "minimum": 2}
_COUNT = {"type": "integer", "minimum": 1}
_SIZE = {"type": "integer", "minimum": 0}
_SOLVER = {"grid": _GRID, "box": _POSITIVE, "bump_center": _NUMBER,
           "bump_height": _NUMBER, "tolerance": _POSITIVE,
           "max_iters": _SIZE, "window": _SIZE}
PARAMS_SCHEMA = {
    "constants": {},
    "barrier-verify": {"R": {"type": "number", "exclusiveMinimum": 1},
                       "n_points": _COUNT, "psi_points": _COUNT},
    "envelope": {"grid": _GRID},
    "abp-cover": {"grid": _GRID, "f_const": _NUMBER},
    "cz": {"generation": _SIZE,
           "delta": {"type": "number", "exclusiveMinimum": 0,
                     "exclusiveMaximum": 1}},
    "solve": _SOLVER,
    "harnack": dict(_SOLVER, c0=_NONNEGATIVE),
    "decay": dict(_SOLVER, M={"type": "number", "exclusiveMinimum": 1},
                  k_max={"type": "integer", "minimum": 2}),
    "sweep": dict(_SOLVER, c0=_NONNEGATIVE,
                  sigma_min_values={"type": "array", "items": _ORDER}),
    "kernel-check": {"tau0": _POSITIVE, "c0": _NUMBER,
                     "h_scales": {"type": "array",
                                  "items": {"type": "number",
                                            "exclusiveMinimum": -0.5,
                                            "exclusiveMaximum": 0.5}}},
}

COMMANDS = tuple(PARAMS_SCHEMA)

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["command", "profile"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "profile": {
            "type": "object",
            "required": ["n", "sigma"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "sigma": {"type": "array", "items": _ORDER},
                "lambda_lo": _POSITIVE,
                "lambda_hi": _POSITIVE,
                "rho0": _POSITIVE,
                "frak_c": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "quadrature": {
            "type": "object",
            "properties": {
                "shells": {"type": "integer", "minimum": 1},
                "nodes_per_shell": {"type": "integer", "minimum": 2},
                "far_radius": _POSITIVE,
                "r_inner": _POSITIVE,
                "seed": _SEED,
            },
            "additionalProperties": False,
        },
        "seed": _SEED,
        "out": {"type": "string"},
        "params": {"type": "object"},
    },
    "additionalProperties": False,
}

# JSON-Schema type predicates, as jsonschema defines them: a bool is
# neither integer nor number, and a float with no fractional part is an
# integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: (not isinstance(v, bool)
                          and (isinstance(v, int)
                               or isinstance(v, float) and v.is_integer())),
}


def schema_errors(instance, schema, path=()):
    """Yield ``(path, message)`` for each violation of ``schema``.

    Covers the JSON-Schema subset the config schemas use (``type``,
    ``required``, ``properties``, ``additionalProperties: false``,
    ``items``, ``enum`` of strings, ``minimum``, ``exclusiveMinimum``,
    ``exclusiveMaximum``) with jsonschema's messages.
    """
    path = list(path)
    if "type" in schema and not _TYPES[schema["type"]](instance):
        yield path, f"{instance!r} is not of type {schema['type']!r}"
    if "enum" in schema and instance not in schema["enum"]:
        yield path, f"{instance!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](instance):
        if "minimum" in schema and instance < schema["minimum"]:
            yield path, (f"{instance!r} is less than the minimum of "
                         f"{schema['minimum']!r}")
        if "exclusiveMinimum" in schema and \
                instance <= schema["exclusiveMinimum"]:
            yield path, (f"{instance!r} is less than or equal to the minimum "
                         f"of {schema['exclusiveMinimum']!r}")
        if "exclusiveMaximum" in schema and \
                instance >= schema["exclusiveMaximum"]:
            yield path, (f"{instance!r} is greater than or equal to the "
                         f"maximum of {schema['exclusiveMaximum']!r}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                yield path, f"{key!r} is a required property"
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                yield from schema_errors(instance[key], sub, path + [key])
        extra = sorted(set(instance) - set(schema.get("properties", {})))
        if extra and schema.get("additionalProperties") is False:
            verb = "was" if len(extra) == 1 else "were"
            yield path, ("Additional properties are not allowed ("
                         f"{', '.join(map(repr, extra))} {verb} unexpected)")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            yield from schema_errors(item, schema["items"], path + [i])


class ConfigError(Exception):
    pass


def _invalid_config(error, exc):
    return ConfigError(json.dumps({"error": error, "detail": str(exc)}))


def _schema_violation(path, message):
    return ConfigError(json.dumps({"error": "config schema violation",
                                   "path": path, "detail": message}))


# number hooks of the config parser: NaN, Infinity, 1e999 and an integer
# too large for a float are unreadable
def _finite(literal):
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal} in the config")
    return value


def _finite_int(literal):
    _finite(literal)
    return int(literal)


def _raise_first(errors):
    errors = list(errors)
    if errors:
        # jsonschema's choice among several: the shallowest, then the
        # greatest path, then the first found
        raise _schema_violation(*max(errors,
                                     key=lambda e: (-len(e[0]), e[0])))


def load_config(path):
    try:
        with open(path) as fh:
            obj = json.load(fh, parse_float=_finite, parse_int=_finite_int,
                            parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise _invalid_config("unreadable config", exc)
    errors = list(schema_errors(obj, CONFIG_SCHEMA))
    command = obj.get("command") if isinstance(obj, dict) else None
    if isinstance(command, str) and command in PARAMS_SCHEMA:
        errors += schema_errors(obj.get("params"),
                                {"properties": PARAMS_SCHEMA[command],
                                 "additionalProperties": False},
                                ["params"])
    _raise_first(errors)
    return obj


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _non_finite(value, path=()):
    """``path = value`` of the first non-finite float in a summary, or None."""
    if isinstance(value, (dict, list, tuple)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        return next(filter(None, (_non_finite(value[k], path + (k,))
                                  for k in keys)), None)
    if isinstance(value, float) and not math.isfinite(value):
        return f"{'.'.join(map(str, path))} = {value}"


def emit_results(out_dir, summary, rows, columns):
    # serialised first, so a value strict JSON refuses truncates no file
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        fh.write(text + "\n")
    emit_plotdata(os.path.join(out_dir, "data.csv"), rows, columns)


def emit_plotdata(path, rows, columns):
    """Write one CSV series, header-only when the series is empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_constants(profile, quad, params, seed):
    rows = [(i, profile.sigma[i], profile.q[i]) for i in range(profile.n)]
    summary = {
        "c_sigma": profile.c_sigma,
        "q": list(profile.q),
        "q_max": profile.q_max,
        "i_min": profile.i_min,
        "frak_c": profile.frak_c,
        "rho0": profile.rho0,
        "matrix_a": profile.matrix_a().tolist(),
        "r0": profile.radius(0),
    }
    return summary, rows, ("index", "sigma", "q"), True


def _cmd_barrier_verify(profile, quad, params, seed):
    from .barriers import (PsiBarrier, annulus_points, find_p,
                           verify_supersolution)
    R = params.get("R", 8.0 * math.sqrt(profile.n))
    n_points = int(params.get("n_points", 60))
    psi_points = int(params.get("psi_points", 40))
    try:
        shell_radii(profile, quad)
    except ValueError as exc:
        raise _invalid_config("invalid quadrature", exc)
    found = find_p(profile, R, quad, n_points, seed)
    psi = PsiBarrier(profile, found["p"])
    pts = annulus_points(profile.n, 1.05 * float(np.max(psi.t)),
                         2.0 * float(np.max(psi.t)), psi_points, seed + 1)
    rep = verify_supersolution(psi, pts, profile, quad)
    summary = {"p": found["p"], "min_margin_f": found["min_margin"],
               "certified_f": found["certified"],
               "tilde_c": psi.tilde_c,
               "quad_coeffs": psi.quad_coeffs.tolist(),
               "min_margin": rep["min_margin"],
               "worst_point": rep["worst_point"].tolist(),
               "quadrature_error": rep["quadrature_error"],
               "certified": rep["certified"]}
    rows = [(found["p"], found["min_margin"], rep["min_margin"])]
    return summary, rows, ("p", "margin_f", "margin_psi"), rep["passed"]


def _cap_envelope(profile, shape):
    """The cap max(0, 1 - 2|x|^2) on a ``shape``^n grid and its envelope;
    a grid too coarse to keep the cap inside B_1 fails a precondition."""
    n = profile.n
    from .envelope import concave_envelope
    from .fields import GridField

    def cap(pts):
        r2 = np.sum(pts ** 2, axis=1)
        return np.maximum(0.0, 1.0 - 2.0 * r2)

    u = GridField.from_function(cap, [-2.0] * n, [2.0] * n, (shape,) * n, 0.0)
    return u, concave_envelope(u)


def _cmd_envelope(profile, quad, params, seed):
    from .envelope import contact_set, default_contact_tol
    u, env = _cap_envelope(profile, int(params.get("grid", 129)))
    pts, degenerate = contact_set(u, env)
    planes = env.supporting_planes()
    summary = {"contact_points": len(pts), "degenerate": degenerate,
               "contact_tol": default_contact_tol(u, env),
               "n_planes": int(planes.shape[0]),
               "lipschitz": env.lipschitz()}
    rows = [tuple(p) for p in planes]
    cols = tuple(f"plane_c{i}" for i in range(planes.shape[1] if planes.size
                                              else 2))
    return summary, rows, cols, True


def _cmd_abp_cover(profile, quad, params, seed):
    from .abp import abp_cover, cover_dump, verify_cover
    from .fields import GridField
    u, env = _cap_envelope(profile, int(params.get("grid", 65)))
    fconst = params.get("f_const", 8.0)
    f = GridField.from_function(
        lambda pts: np.full(pts.shape[0], fconst),
        [-2.0] * profile.n, [2.0] * profile.n, (17,) * profile.n, fconst)
    cover = abp_cover(u, f, profile, env)
    report = verify_cover(cover, profile)
    report["rectangles"] = cover_dump(cover)
    rows = [(r.gen,) + tuple(r.center) + (r.record["varsigma_ratio"],)
            for r in cover.rectangles]
    cols = ("gen",) + tuple(f"c{i}" for i in range(profile.n)) + ("varsigma",)
    return report, rows, cols, report["passed"]


def _cmd_cz(profile, quad, params, seed):
    from .coverings import CellSet, cz_decompose
    gen = int(params.get("generation", 5))
    delta = params.get("delta", 0.5)
    n = profile.n
    if gen * n > 24:
        raise _schema_violation(["params", "generation"], f"(2^{gen})^{n} "
                                "cells: generation * n must be at most 24")
    rng = np.random.default_rng(seed)
    m = 2 ** gen
    b = CellSet(n, gen, np.ones((m,) * n, dtype=bool))
    a_mask = rng.random((m,) * n) < delta / 2.0
    a = CellSet(n, gen, a_mask)
    res = cz_decompose(a, b, delta)
    summary = {"selected": len(res.gen), "covered": res.covered,
               "c_measured": res.c_measured, "certified": res.certified,
               "a_measure": a.measure, "b_measure": b.measure}
    # listed a block at a time: one list of all cubes outweighs the arrays
    rows = (row for k in range(0, len(res.gen), 65536)
            for row in np.column_stack([res.gen[k:k + 65536],
                                        res.index[k:k + 65536]]).tolist())
    cols = ("gen",) + tuple(f"i{i}" for i in range(n))
    return summary, rows, cols, res.certified


def _solve_setup(profile, params):
    from .kernels import KernelFamily
    from .solver import DiscreteProblem
    n = profile.n
    shape = int(params.get("grid", 129 if n == 1 else 33))
    box = params.get("box", 4.0)
    bump_center = params.get("bump_center", 2.5)
    bump_height = params.get("bump_height", 1.0)
    # a solver setting the config omits keeps DiscreteProblem's default
    settings = {"tolerance": params.get("tolerance"),
                "max_iters": params.get("max_iters"),
                "window": params.get("window")}

    def exterior_fn(pts):
        r2 = np.sum((pts - bump_center) ** 2, axis=1)
        return bump_height * np.exp(-4.0 * r2)

    from .fields import CallableExterior
    family = KernelFamily.extremal_pair(profile)
    return DiscreteProblem(
        profile, (-box,) * n, (box,) * n, (shape,) * n, family,
        CallableExterior(exterior_fn, abs(bump_height)),
        **{key: value for key, value in settings.items() if value is not None})


def _cmd_solve(profile, quad, params, seed):
    from .solver import solve_dirichlet
    problem = _solve_setup(profile, params)
    field, report = solve_dirichlet(problem)
    summary = {"converged": report.converged, "iterations": report.iterations,
               "residual": report.residual,
               "sup": float(np.max(field.values)),
               "origin": float(field.eval(np.zeros((1, profile.n)))[0])}
    rows = [(report.iterations, report.residual)]
    return summary, rows, ("iterations", "residual"), report.converged


def _cmd_harnack(profile, quad, params, seed):
    from .experiments import harnack_quotient, normalized_solution
    problem = _solve_setup(profile, params)
    res = harnack_quotient(normalized_solution(problem),
                           params.get("c0", 1.0), problem)
    # an unconverged solve never reaches here
    return dict(res.scalars, converged=True), res.rows, res.columns, True


def _cmd_decay(profile, quad, params, seed):
    from .experiments import distribution_decay, normalized_solution
    u = normalized_solution(_solve_setup(profile, params))
    res = distribution_decay(u, params.get("M", 2.0),
                             int(params.get("k_max", 6)))
    return res.scalars, res.rows, res.columns, True


def _cmd_sweep(profile, quad, params, seed):
    from .experiments import (harnack_quotient, normalized_solution,
                              sigma_sweep)
    c0 = params.get("c0", 1.0)
    rows, measured, flagged = [], [], []
    for s in params.get("sigma_min_values", [1.0, 1.5, 1.9, 1.99]):
        prof = AnisotropyProfile(profile.n, (s,) * profile.n,
                                 profile.lambda_lo, profile.lambda_hi)
        # a failed solve or precondition flags the row, written with a nan
        # quantity and left out of the fit; other errors raise
        try:
            problem = _solve_setup(prof, params)
            quotient = harnack_quotient(normalized_solution(problem), c0,
                                        problem).scalars["quotient"]
            measured.append((prof.sigma_min, quotient))
        except PreconditionError as exc:
            quotient = math.nan
            flagged.append(f"sigma_min {prof.sigma_min}: {exc}")
        rows.append((prof.sigma_min, quotient))
    res = sigma_sweep(measured, flagged)
    return res.scalars, rows, ("sigma_min", "quantity"), res.passed


def _cmd_kernel_check(profile, quad, params, seed):
    from .experiments import kernel_modulus_check
    from .kernels import PowerLawKernel
    kernel = PowerLawKernel(profile, profile.lambda_lo)
    res = kernel_modulus_check(kernel, profile, params.get("tau0", 0.5),
                               params.get("h_scales", [0.05, 0.1]),
                               params.get("c0", 1e3), seed)
    return res.scalars, res.rows, res.columns, res.passed


_DISPATCH = {
    "constants": _cmd_constants,
    "barrier-verify": _cmd_barrier_verify,
    "envelope": _cmd_envelope,
    "abp-cover": _cmd_abp_cover,
    "cz": _cmd_cz,
    "solve": _cmd_solve,
    "harnack": _cmd_harnack,
    "decay": _cmd_decay,
    "sweep": _cmd_sweep,
    "kernel-check": _cmd_kernel_check,
}
assert _DISPATCH.keys() == PARAMS_SCHEMA.keys()


def config_digest(obj):
    # the built-in SHA-256, as random takes its SHA-512: hashlib maps OpenSSL
    try:
        from _sha2 import sha256            # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256      # CPython before 3.12
        except ImportError:
            from hashlib import sha256
    text = json.dumps(obj, sort_keys=True)
    return sha256(text.encode()).hexdigest()[:16]


def run(config, out_dir=None):
    """Execute one config; returns the process exit status."""
    command = config["command"]
    try:
        profile = AnisotropyProfile.from_dict(config["profile"])
    except ValueError as exc:
        raise _invalid_config("invalid profile", exc)
    quad = QuadratureScheme.from_dict(config.get("quadrature", {}))
    params = config.get("params", {})
    seed = int(config.get("seed", 0))
    out_dir = out_dir or config.get("out", "anisonl-out")
    # refused before any work: an empty output directory, or one whose
    # nearest existing path is no writable directory, cannot be made
    if not out_dir:
        raise _invalid_config("unwritable output directory", "empty path")
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise _invalid_config("unwritable output directory",
                              f"{out_dir}: {path} is not a writable directory")
    digest = config_digest({k: v for k, v in config.items() if k != "out"})

    head = {"command": command, "digest": digest, "seed": seed}
    # failed hypotheses, float overflows and non-finite results: invalid
    try:
        # warnings wait in ``held`` until the run is known to be valid
        with warnings.catch_warnings(record=True) as held:
            summary, rows, columns, ok = _DISPATCH[command](profile, quad,
                                                            params, seed)
            where = _non_finite(summary)
            if where:
                raise PreconditionError(f"non-finite result {where}")
    except (PreconditionError, OverflowError) as exc:
        held.clear()            # an invalid run writes nothing to stderr
        reason = str(exc)
        if isinstance(exc, OverflowError):     # name where it overflowed
            import traceback
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            reason = f"float overflow in {frame.name}: {frame.line}"
        emit_results(out_dir, dict(head, invalid=reason), [], ("empty",))
        return 3
    finally:
        for w in held:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    emit_results(out_dir, {**head, "passed": bool(ok), **summary}, rows,
                 columns)
    print(f"[anisonl] {command} digest={digest} passed={bool(ok)}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisonl",
        description="anisotropic nonlocal operator experiments")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        return run(load_config(args.config), out_dir=args.out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
