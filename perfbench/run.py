"""End-to-end and per-layer benchmark of the anisonl CLI.

Each workload is one CLI command run as a fresh process, by one client in a
closed loop: the next command starts when the previous one has exited, for
about ``--seconds`` seconds (at least one command).  Every command's outputs
are checked against oracles that do not share the solve path; a command
that exits nonzero or fails its check counts as failed.

    python3 perfbench/run.py --workload order-sweep --seed 7 --seconds 40 \\
        --trace 0

``--trace 0`` times the commands untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced commands and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit, the
sample quartiles and the run metadata.  Each run is also appended to
``BENCH_<label>.json`` at the repository root, and

    python3 perfbench/run.py --compare BENCH_old.json BENCH_new.json

prints both medians and their ratio per workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench-cache")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 10
# commands still running this long after the first one started are killed
COMMAND_DEADLINE_S = 150.0

sys.path.insert(0, SRC)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


def _layer(base, *fields):
    return [f"{base}.{f}" for f in fields]


PER_LAYER = (
    ["cli.load_config.s", "cli.emit_results.s"]
    + _layer("geometry.gauge", "calls", "points", "self_s")
    + _layer("fields.second_difference", "calls", "points", "self_s")
    + _layer("fields.estimate_c11", "calls", "self_s")
    + _layer("kernels.PowerLawKernel.eval", "calls", "points", "self_s")
    + _layer("kernels.tail_gauge_bounds", "calls", "self_s")
    + _layer("quadrature.integrate", "calls", "self_s", "total_s")
    + _layer("quadrature", "nodes_drawn", "rng_streams", "nodes_accepted",
             "accept_ratio")
    + _layer("operators.eval_extremal", "calls", "self_s", "total_s")
    + _layer("barriers.find_p", "total_s", "margin_evals")
    + _layer("barriers.verify_supersolution", "total_s", "points")
    + ["solver.AssembledOperator.build_s"]
    + _layer("solver.assemble_weights", "calls", "offsets", "self_s")
    + _layer("solver.solve_dirichlet", "calls", "total_s", "self_s",
             "iterations")
    + _layer("solver.discrete_extremal", "calls", "self_s")
    + _layer("experiments.harnack_quotient", "calls", "self_s")
    + ["experiments.sigma_sweep.total_s"]
    + _layer("accel.solver_sweep", "calls", "self_s", "temp_bytes")
    + _layer("accel.interp_many", "calls", "points", "self_s")
    + ["trace.overhead_s"]
)


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("temp_bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def layer_value(name, tr):
    """Per-layer metric ``name`` from one traced command's dump."""
    if name == "quadrature.accept_ratio":
        drawn = tr["counts"].get("quadrature.nodes_drawn", 0)
        return tr["counts"].get("quadrature.nodes_accepted", 0) / drawn \
            if drawn else 0.0
    if name == "solver.AssembledOperator.build_s":
        return tr["total_s"].get("solver.AssembledOperator.build", 0.0)
    base, _, field = name.rpartition(".")
    if field == "s":
        return tr["total_s"].get(base, 0.0)
    if field in ("calls", "self_s", "total_s"):
        return tr[field].get(base, 0)
    return tr["counts"].get(name, 0)


def exact_counts(tr):
    """The work counts of one traced command: these must repeat exactly."""
    return {**{f"{k}.calls": v for k, v in tr["calls"].items()},
            **tr["counts"]}


# ---------------------------------------------------------------------------
# metadata, caches
# ---------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "anisonl")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _blas_threads():
    """Thread count of the BLAS numpy loaded, asked through its C API."""
    import ctypes
    import numpy  # noqa: F401  (loads the BLAS library)
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def metadata(seed):
    import numpy
    import scipy
    import anisonl
    using_numba = getattr(anisonl, "using_numba", None)
    return {
        "using_numba": using_numba() if using_numba else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def _cached(path, compute):
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    value = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(value, fh)
    os.replace(tmp, path)
    return value


def workloads_digest():
    with open(os.path.join(HERE, "workloads.py"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def oracle_for(name, digest):
    """Oracle data of a workload, computed once per source and workload
    definition."""
    compute = WORKLOADS[name]["oracle"]
    if compute is None:
        return None
    return _cached(os.path.join(CACHE, f"oracle-{name}-{digest}-"
                                f"{workloads_digest()}.json"), compute)


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def run_command(mode, config_path, out_dir, trace_path, deadline):
    """Spawn one CLI command; returns its wall, CPU, peak RSS and status.

    A command still running at ``deadline`` (monotonic) is killed and
    counts as failed, so that a hung program cannot hang the benchmark.
    """
    os.makedirs(out_dir, exist_ok=True)
    argv = [sys.executable, CHILD, mode]
    if mode == "trace":
        argv.append(trace_path)
    argv += ["--", "--config", config_path, "--out", out_dir]
    log_path = os.path.join(out_dir, "child.log")
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "log": log_path}


def setup_probe(config_path):
    """Spawn to ``load_config`` returned, on the shared monotonic clock."""
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, CHILD, "setup", config_path],
                         capture_output=True, text=True, cwd=ROOT,
                         timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.split()[-1]) - t0


def check_command(name, rec, out_dir, seed, oracle, trace=None):
    """Problems with one command's outputs (empty list: correct)."""
    if rec["exit"] != 0:
        with open(rec["log"]) as fh:
            tail = fh.read()[-500:]
        return [f"exit status {rec['exit']}: {tail}"]
    try:
        problems = WORKLOADS[name]["check"](out_dir, seed, oracle)
        if trace is not None:
            problems += cross_check(trace, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    return problems


def cross_check(tr, out_dir):
    """Count identities that hold for any correct traced run."""
    problems = []
    sweeps = tr["calls"].get("accel.solver_sweep", 0)
    iters = tr["counts"].get("solver.solve_dirichlet.iterations", 0)
    if sweeps and sweeps != iters:
        problems.append(f"solver_sweep calls {sweeps} != reported "
                        f"iterations {iters}")
    with open(os.path.join(out_dir, "results.json")) as fh:
        reported = json.load(fh).get("iterations")
    if sweeps and reported is not None and reported != sweeps:
        problems.append(f"solver_sweep calls {sweeps} != results.json "
                        f"iterations {reported}")
    n_int = tr["calls"].get("quadrature.integrate", 0)
    n_ext = tr["calls"].get("operators.eval_extremal", 0)
    if n_int and n_ext and n_int != n_ext:
        problems.append(f"integrate calls {n_int} != eval_extremal calls "
                        f"{n_ext}")
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(name, seed, seconds, trace):
    work = os.path.join(CACHE, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name, seed, seconds, trace, work):
    meta = metadata(seed)
    oracle = oracle_for(name, meta["source_digest"])
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(WORKLOADS[name]["config"](seed), fh)

    # set-up probes: half before and half after the commands, so that
    # their median spans the run rather than one moment of it
    samples = {"setup_s": []}
    probes = 0 if trace else SETUP_PROBES // 2
    if probes:
        setup_probe(config_path)           # compile bytecode, warm caches
    samples["setup_s"] += [setup_probe(config_path) for _ in range(probes)]

    runs, traces, problems = [], [], []
    modes = ("run", "trace") if trace else ("run",)
    start = time.monotonic()
    deadline = start + COMMAND_DEADLINE_S
    round_s = []
    while True:
        t_round = time.monotonic()
        for mode in modes:
            k = len(runs)
            out_dir = os.path.join(work, f"out{k}")
            trace_path = os.path.join(work, f"trace{k}.json")
            rec = run_command(mode, config_path, out_dir, trace_path,
                              deadline)
            rec["mode"] = mode
            tr = None
            if mode == "trace" and rec["exit"] == 0:
                with open(trace_path) as fh:
                    tr = json.load(fh)
                traces.append(tr)
            rec["problems"] = check_command(name, rec, out_dir, seed,
                                            oracle, tr)
            problems += [f"command {k} ({mode}): {p}"
                         for p in rec["problems"]]
            runs.append(rec)
            shutil.rmtree(out_dir, ignore_errors=True)
        round_s.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(round_s) > seconds:
            break

    samples["setup_s"] += [setup_probe(config_path) for _ in range(probes)]
    if trace:
        problems += repeat_check(name, seed, meta["source_digest"], traces)
    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    plain = [r for r in runs if r["mode"] == "run"]
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for r in plain]

    if trace:
        traced_wall = [r["wall_s"] for r in runs if r["mode"] == "trace"]
        metrics = {m: (statistics.median([layer_value(m, t) for t in traces])
                       if traces else 0) for m in PER_LAYER if
                   m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(traced_wall)
                                       - statistics.median(samples["wall_s"]))
        units = {m: layer_unit(m) for m in PER_LAYER}
    else:
        metrics = {k: statistics.median(samples[k])
                   for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        metrics["ok_frac"] = (attempted - failed) / attempted
        units = dict(END_TO_END)
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "meta": meta, "samples": samples,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "problems": problems,
            "correct": not problems,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def repeat_check(name, seed, digest, traces):
    """Work counts must be identical across commands and across runs."""
    problems = []
    if not traces:
        return ["no traced command completed"]
    first = exact_counts(traces[0])
    for i, tr in enumerate(traces[1:], 1):
        if exact_counts(tr) != first:
            problems.append(f"traced command {i} counts differ from the "
                            "first")
    path = os.path.join(CACHE, f"counts-{name}-seed{seed}-{digest}-"
                              f"{workloads_digest()}.json")
    stored = _cached(path, lambda: first)
    if stored != first:
        diff = sorted(k for k in set(stored) | set(first)
                      if stored.get(k) != first.get(k))
        problems.append(f"counts differ from an earlier run: {diff}")
    return problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_report(rec):
    print(f"# workload {rec['workload']}  seed {rec['seed']}  "
          f"trace {rec['trace']}  closed loop, 1 client")
    for k, v in rec["meta"].items():
        print(f"#   {k}: {v}")
    for k, m in rec["metrics"].items():
        line = f"{k:<40} {m['value']:<12.10g} {m['unit']}"
        if rec["samples"].get(k):
            q1, _, q3 = quartiles(rec["samples"][k])
            line += f"  (median of {len(rec['samples'][k])}: q1 {q1:.6g}, " \
                    f"q3 {q3:.6g})"
        print(line)
    for k, samples in rec["samples"].items():
        if samples and k not in rec["metrics"]:
            q1, med, q3 = quartiles(samples)
            print(f"untraced {k:<31} {med:<12.6g} (median of {len(samples)}"
                  f": q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{'failed_frac':<40} {rec['failed_frac']:<12.6g} ratio "
          f"({rec['failed']} of {rec['attempted']})")
    for p in rec["problems"]:
        print(f"! {p}")


def append_record(label, rec):
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    data = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["runs"].append(rec)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1)
    os.replace(tmp, path)


def _medians(path):
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    values = {}
    for r in runs:
        for k, m in r["metrics"].items():
            values.setdefault((r["workload"], k), []).append(m["value"])
    return {key: (statistics.median(v), len(v)) for key, v in values.items()}


def compare(old_path, new_path):
    old, new = _medians(old_path), _medians(new_path)
    print(f"{'workload':<16} {'metric':<40} {'old':>12} {'new':>12} "
          f"{'new/old':>8}  runs")
    for key in sorted(set(old) | set(new)):
        (a, na), (b, nb) = old.get(key, (None, 0)), new.get(key, (None, 0))
        ratio = f"{b / a:8.3f}" if a and b is not None else f"{'-':>8}"
        fa = f"{a:12.6g}" if a is not None else f"{'-':>12}"
        fb = f"{b:12.6g}" if b is not None else f"{'-':>12}"
        print(f"{key[0]:<16} {key[1]:<40} {fa} {fb} {ratio}  {na}/{nb}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="local",
                    help="run records go to BENCH_<label>.json")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print medians and ratios of two record files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "anisonl", "cli.py")):
        print(f"no anisonl sources under {SRC}", file=sys.stderr)
        return 2
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    append_record(args.label, rec)
    print_report(rec)
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
