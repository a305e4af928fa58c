import ast
import copy
import csv
import functools
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from anisonl import PreconditionError, cli
from anisonl.cli import (COMMANDS, CONFIG_SCHEMA, PARAMS_SCHEMA, ConfigError,
                         emit_plotdata, load_config, main)


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_constants_run_isotropic(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "constants",
        "profile": {"n": 2, "sigma": [1.0, 1.0]},
    })
    out = str(tmp_path / "out")
    code = main(["--config", cfg, "--out", out])
    assert code == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["c_sigma"] == pytest.approx(1.0 / 3.0)
    assert results["passed"] is True
    assert "digest" in results and "seed" in results
    csv_text = (tmp_path / "out" / "data.csv").read_text()
    assert csv_text.startswith("index,sigma,q")


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    cfg = write_config(tmp_path, {"command": "nope",
                                  "profile": {"n": 1, "sigma": [1.0]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    cfg2 = write_config(tmp_path, {"command": "constants",
                                   "profile": {"n": 1, "sigma": [2.5]}},
                        name="c2.json")
    assert main(["--config", cfg2, "--out", str(tmp_path / "o3")]) == 2


def test_schema_violation_reports_machine_readable(tmp_path):
    cfg = write_config(tmp_path, {"profile": {"n": 1, "sigma": [1.0]}})
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    detail = json.loads(str(err.value))
    assert detail["error"] == "config schema violation"


def test_rerun_reproduces_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "cz",
        "profile": {"n": 2, "sigma": [1.0, 1.0]},
        "seed": 5,
        "params": {"generation": 4, "delta": 0.5},
    })
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--config", cfg, "--out", out1]) == 0
    assert main(["--config", cfg, "--out", out2]) == 0
    for name in ("data.csv", "results.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2


def test_config_seed_reaches_results_and_digest(tmp_path):
    """The config's ``seed`` is the one place a seed is set: it is
    written to results.json and enters the digest; there is no --seed."""
    config = {
        "command": "cz",
        "profile": {"n": 2, "sigma": [1.0, 1.0]},
        "params": {"generation": 4, "delta": 0.5},
    }
    digests = []
    for seed in (5, 11):
        cfg = write_config(tmp_path, dict(config, seed=seed))
        out = tmp_path / f"s{seed}"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["seed"] == seed
        digests.append(results["digest"])
    assert digests[0] != digests[1]
    with pytest.raises(SystemExit) as err:
        main(["--config", cfg, "--seed", "11"])
    assert err.value.code == 2


def test_envelope_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "envelope",
        "profile": {"n": 1, "sigma": [1.0]},
        "params": {"grid": 129},
    })
    out = str(tmp_path / "env")
    assert main(["--config", cfg, "--out", out]) == 0
    results = json.loads((tmp_path / "env" / "results.json").read_text())
    assert results["contact_points"] >= 1
    assert results["n_planes"] >= 1


def test_abp_cover_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "abp-cover",
        "profile": {"n": 2, "sigma": [1.0, 1.0], "rho0": 0.05, "frak_c": 2},
        "params": {"grid": 65},
    })
    out = str(tmp_path / "abp")
    assert main(["--config", cfg, "--out", out]) == 0
    results = json.loads((tmp_path / "abp" / "results.json").read_text())
    assert results["disjoint"] and results["contact_covered"]


def test_solve_and_decay_commands(tmp_path):
    base = {
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "seed": 1,
        "params": {"grid": 65, "tolerance": 1e-7, "window": 64},
    }
    cfg = write_config(tmp_path, dict(base, command="solve"))
    assert main(["--config", cfg, "--out", str(tmp_path / "sv")]) == 0
    results = json.loads((tmp_path / "sv" / "results.json").read_text())
    assert results["converged"]

    # at the default M = 2 fewer than two levels hold points (exit 3)
    decay = dict(base, command="decay", params=dict(base["params"], M=1.05))
    cfg2 = write_config(tmp_path, decay, name="d.json")
    assert main(["--config", cfg2, "--out", str(tmp_path / "dec")]) == 0
    text = (tmp_path / "dec" / "data.csv").read_text()
    assert text.splitlines()[0] == "k,measure"


def test_harnack_command_and_invalid_exit_3(tmp_path):
    base = {
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "seed": 1,
        "params": {"grid": 65, "tolerance": 1e-7, "window": 64},
    }
    cfg = write_config(tmp_path, dict(base, command="harnack"))
    assert main(["--config", cfg, "--out", str(tmp_path / "h")]) == 0

    bad = dict(base, command="harnack")
    bad["params"] = dict(base["params"], bump_height=-1.0)
    cfg2 = write_config(tmp_path, bad, name="h2.json")
    assert main(["--config", cfg2, "--out", str(tmp_path / "h2")]) == 3
    results = json.loads((tmp_path / "h2" / "results.json").read_text())
    assert "invalid" in results


def test_sweep_command_columns(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "sweep",
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "seed": 1,
        "params": {"grid": 33, "tolerance": 1e-6, "window": 32,
                   "sigma_min_values": [1.0, 1.5]},
    })
    out = str(tmp_path / "sw")
    code = main(["--config", cfg, "--out", out])
    assert code == 0
    text = (tmp_path / "sw" / "data.csv").read_text()
    assert text.splitlines()[0] == "sigma_min,quantity"


def test_kernel_check_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "kernel-check",
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"tau0": 0.5, "c0": 100.0},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "kc")]) == 0


def test_emit_plotdata_empty_series(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_plotdata(path, [], ("k", "measure"))
    text = (tmp_path / "empty.csv").read_text()
    assert text == "k,measure\r\n" or text == "k,measure\n"


def test_emit_results_refuses_unknown_types(tmp_path):
    """A value the encoder does not know fails, not lands as its repr."""
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli.emit_results(str(tmp_path / "o"), {"value": object()}, [],
                         ("empty",))
    assert not (tmp_path / "o" / "results.json").exists()


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "constants",
        "profile": {"n": 1, "sigma": [0.7]},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "anisonl.cli", "--config", cfg,
         "--out", str(tmp_path / "cp")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "constants" in proc.stdout


def test_property_failure_exit_1(tmp_path):
    # jump-discontinuous kernels cannot clear a tight modulus budget
    cfg = write_config(tmp_path, {
        "command": "kernel-check",
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"tau0": 0.5, "c0": 1e-6},
    }, name="fail.json")
    assert main(["--config", cfg, "--out", str(tmp_path / "f1")]) == 1
    results = json.loads((tmp_path / "f1" / "results.json").read_text())
    assert results["passed"] is False


SOLVER_BASE = {
    "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0, "lambda_hi": 2.0},
    "seed": 1,
    "params": {"grid": 33, "tolerance": 1e-7, "window": 32},
}
# a Krylov budget of one iteration cannot reach the tolerance
STARVED = dict(SOLVER_BASE["params"], max_iters=1)


@pytest.mark.parametrize("command", ["harnack", "decay"])
def test_unconverged_solve_is_invalid(tmp_path, command):
    cfg = write_config(tmp_path, dict(SOLVER_BASE, command=command,
                                      params=STARVED))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert "did not converge" in results["invalid"]
    assert "passed" not in results


def test_sweep_unconverged_rows_are_invalid(tmp_path):
    cfg = write_config(tmp_path, dict(
        SOLVER_BASE, command="sweep",
        params=dict(STARVED, sigma_min_values=[1.0, 1.5])))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"].count("did not converge") == 2
    assert "passed" not in results


def test_sweep_propagates_errors_other_than_preconditions(tmp_path,
                                                          monkeypatch):
    # only a failed solve or precondition flags a row; a fault is raised
    from anisonl import experiments

    def broken(*args):
        raise RuntimeError("broken measurement")

    monkeypatch.setattr(experiments, "harnack_quotient", broken)
    cfg = write_config(tmp_path, dict(
        SOLVER_BASE, command="sweep",
        params=dict(SOLVER_BASE["params"], sigma_min_values=[1.0, 1.5])))
    with pytest.raises(RuntimeError, match="broken measurement"):
        main(["--config", cfg, "--out", str(tmp_path / "o")])


def test_sweep_without_valid_row_does_not_pass(tmp_path):
    # one Krylov iteration: the solve converges at no order
    cfg = write_config(tmp_path, {
        "command": "sweep",
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"sigma_min_values": [1.0, 1.5, 1.9], "grid": 25,
                   "tolerance": 1e-10, "box": 2, "max_iters": 1},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"].startswith("no valid sweep row")
    assert "passed" not in results


def test_harnack_checks_the_normalized_exterior(tmp_path):
    # box 2 puts the exterior bump near B_2: checked against the solution's
    # own exterior, scaled by 1/u(0) with it, M^+ u >= -C0 holds there
    cfg = write_config(tmp_path, {
        "command": "harnack",
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"grid": 33, "tolerance": 1e-10, "box": 2},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["passed"] is True and "invalid" not in results


@pytest.mark.parametrize("command", ["harnack", "sweep"])
@pytest.mark.parametrize("profile, grid", [
    ({"n": 1, "sigma": [1.0]}, 4),               # nodes +-4/3 and +-4
    ({"n": 2, "sigma": [1.0, 1.5]}, 2),          # corners only: B_2 empty
])
def test_no_lattice_point_in_half_ball_exit_3(tmp_path, command, profile,
                                              grid):
    cfg = write_config(tmp_path, {"command": command, "profile": profile,
                                  "params": {"grid": grid}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert "no lattice point in B_1/2" in results["invalid"]
    assert "passed" not in results


def test_nonpositive_origin_exit_3_names_u0(tmp_path, capsys):
    """At grid 9 the 3D bump's value at the origin lies below the solver's
    resolution and comes out negative: the solution cannot be normalised
    to u(0) = 1, so the run is invalid and says so with u(0) and the
    solver tolerance, instead of dividing by a clamped u(0)."""
    cfg = write_config(tmp_path, {
        "command": "harnack",
        "profile": {"n": 3, "sigma": [1.0, 1.5, 1.2], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"grid": 9},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    head, _, tail = results["invalid"].partition(" <= 0 at solver tolerance ")
    assert head.startswith("u(0) = ")
    assert -1e-8 < float(head[len("u(0) = "):]) <= 0.0
    assert tail == "1.000e-08: the solution cannot be normalised to u(0) = 1"
    assert "passed" not in results
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scales", [[], [0.0]])
def test_kernel_check_without_nonzero_shift_exit_3(tmp_path, scales):
    cfg = write_config(tmp_path, {
        "command": "kernel-check", "profile": {"n": 1, "sigma": [1.0]},
        "params": {"h_scales": scales}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"].startswith("no nonzero shift to check")
    assert "passed" not in results


P1 = {"n": 1, "sigma": [1.0], "lambda_lo": 1.0, "lambda_hi": 2.0}
P2 = {"n": 2, "sigma": [1.0, 1.5], "lambda_lo": 1.0, "lambda_hi": 2.0}
SMALL_SOLVE = {"grid": 33, "tolerance": 1e-7, "window": 32,
               "max_iters": 20000}
SMALL_CONFIGS = {
    "constants": {"profile": P2},
    "barrier-verify": {"profile": P2, "seed": 7,
                       "quadrature": {"shells": 12, "nodes_per_shell": 256},
                       "params": {"n_points": 8, "psi_points": 8}},
    "envelope": {"profile": P1, "params": {"grid": 33}},
    "abp-cover": {"profile": {"n": 2, "sigma": [1.0, 1.0], "rho0": 0.05,
                              "frak_c": 2},
                  "params": {"grid": 33}},
    "cz": {"profile": P2, "seed": 5, "params": {"generation": 3}},
    "solve": {"profile": P1, "params": SMALL_SOLVE},
    "harnack": {"profile": P1, "params": SMALL_SOLVE},
    # M = 1.05: the first two levels hold points, enough for the fit
    "decay": {"profile": P1, "params": dict(SMALL_SOLVE, k_max=6, M=1.05)},
    "sweep": {"profile": P1, "params": dict(
        SMALL_SOLVE, sigma_min_values=[1.0, 1.5, 1.9])},
    "kernel-check": {"profile": P1, "params": {"c0": 100.0}},
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command", COMMANDS)
def test_results_json_is_strict(tmp_path, command):
    cfg = write_config(tmp_path, dict(SMALL_CONFIGS[command],
                                      command=command))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "results.json").read_text()
    results = json.loads(text, parse_constant=_reject_constant)
    assert results["command"] == command


@pytest.mark.parametrize("command", COMMANDS)
def test_data_csv_cells_are_numbers(tmp_path, command):
    """Every data.csv cell below the header is a plain number: a numpy
    scalar is written as the float it is, not as its numpy repr."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIGS[command],
                                      command=command))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        for cell in row:
            float(cell)


# configs whose results.json holds a null: a value the command could not
# measure
NULL_CONFIGS = {
    "abp-cover-empty": {"command": "abp-cover",
                        "profile": SMALL_CONFIGS["abp-cover"]["profile"],
                        "params": {"grid": 2}},
    "sweep-two-rows": dict(SOLVER_BASE, command="sweep", params=dict(
        SOLVER_BASE["params"], sigma_min_values=[1.0, 1.5])),
    "sweep-one-order": {"command": "sweep", "profile": P1,
                        "params": {"grid": 17,
                                   "sigma_min_values": [1.0, 1.0, 1.0]}},
}


def _nulls(value, path=()):
    """``(path, reason)`` of every null in ``value``, with the value of
    the ``<key>_reason`` key beside it."""
    if isinstance(value, dict):
        for key, item in value.items():
            if item is None:
                yield path + (key,), value.get(f"{key}_reason")
            yield from _nulls(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nulls(item, path + (i,))


@pytest.mark.parametrize("config", [
    dict(cfg, command=command) for command, cfg in SMALL_CONFIGS.items()
] + list(NULL_CONFIGS.values()), ids=list(SMALL_CONFIGS) + list(NULL_CONFIGS))
def test_every_null_has_a_reason(tmp_path, config):
    """A value a command could not measure is null with a reason string
    beside it, decided by the module that measures."""
    cfg = write_config(tmp_path, config)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    nulls = list(_nulls(results))
    assert [(path, reason) for path, reason in nulls
            if not (isinstance(reason, str) and reason)] == []
    assert bool(nulls) == (config in NULL_CONFIGS.values())


def test_sweep_slope_without_three_rows_is_null(tmp_path):
    params = dict(SOLVER_BASE["params"], sigma_min_values=[1.0, 1.5])
    cfg = write_config(tmp_path, dict(SOLVER_BASE, command="sweep",
                                      params=params))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "results.json").read_text()
    results = json.loads(text, parse_constant=_reject_constant)
    assert results["slope"] is None and results["slope_se"] is None
    assert results["slope_reason"] == "fewer than three valid rows"


def test_sweep_slope_at_one_sigma_min_is_null(tmp_path):
    """Three valid rows at one sigma_min fix no slope: no fit is made, so
    no rank warning either."""
    params = {"grid": 17, "sigma_min_values": [1.0, 1.0, 1.0]}
    cfg = write_config(tmp_path, {"command": "sweep", "profile": P1,
                                  "params": params})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "results.json").read_text()
    results = json.loads(text, parse_constant=_reject_constant)
    assert results["slope"] is None and results["slope_se"] is None
    assert results["slope_reason"] == "all valid rows share one sigma_min"


def _config_error(capsys):
    detail = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(detail) == {"error", "detail"}
    return detail


def test_sigma_length_mismatch_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "constants",
                                  "profile": {"n": 2, "sigma": [1.0]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    detail = _config_error(capsys)
    assert detail["error"] == "invalid profile"
    assert "order exponents" in detail["detail"]


BARRIER_BASE = {"command": "barrier-verify",
                "profile": {"n": 2, "sigma": [1.0, 1.5], "lambda_lo": 1.0,
                            "lambda_hi": 2.0},
                "quadrature": {"shells": 8, "nodes_per_shell": 64}}


def _exit_2_line(tmp_path, capsys, config, argv=()):
    """Run ``config`` (a dict, or the text of the config file), with the
    extra CLI arguments ``argv``; it must exit 2 with exactly one JSON
    stderr line and write no outputs.  Returns that line, parsed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 *argv]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    detail = json.loads(lines[0])
    assert {"error", "detail"} <= set(detail) <= {"error", "path", "detail"}
    assert not (tmp_path / "o").exists()
    return detail


def _schema_exit_2(tmp_path, capsys, config, path):
    detail = _exit_2_line(tmp_path, capsys, config)
    assert detail["error"] == "config schema violation"
    assert detail["path"] == path
    return detail


# single configs at the bounds of grid, quadrature, R, the point counts
# and the sweep orders, and null R and point counts
@pytest.mark.parametrize("command", ["solve", "harnack", "decay", "sweep"])
def test_grid_below_two_exit_2(tmp_path, capsys, command):
    params = dict(SOLVER_BASE["params"], grid=1)
    if command == "sweep":
        params["sigma_min_values"] = [1.0, 1.5]
    _schema_exit_2(tmp_path, capsys, dict(SOLVER_BASE, command=command,
                                          params=params), ["params", "grid"])


def test_rejected_quadrature_exit_2(tmp_path, capsys):
    _schema_exit_2(tmp_path, capsys, dict(
        BARRIER_BASE, quadrature={"shells": 8, "nodes_per_shell": 1}),
        ["quadrature", "nodes_per_shell"])


def test_barrier_radius_not_above_one_exit_2(tmp_path, capsys):
    _schema_exit_2(tmp_path, capsys, dict(BARRIER_BASE, params={"R": 1.0}),
                   ["params", "R"])


def test_barrier_zero_points_exit_2(tmp_path, capsys):
    _schema_exit_2(tmp_path, capsys,
                   dict(BARRIER_BASE, params={"n_points": 0}),
                   ["params", "n_points"])


@pytest.mark.parametrize("key, value", [
    (key, value) for key in ("n_points", "psi_points")
    for value in ("x", True, 2.5, None)
] + [("R", "x"), ("R", True), ("R", None)])
def test_barrier_bad_params_exit_2(tmp_path, capsys, key, value):
    _schema_exit_2(tmp_path, capsys, dict(BARRIER_BASE, params={key: value}),
                   ["params", key])


def test_sweep_order_outside_range_exit_2(tmp_path, capsys):
    params = dict(SOLVER_BASE["params"], sigma_min_values=[1.0, 2.5])
    _schema_exit_2(tmp_path, capsys,
                   dict(SOLVER_BASE, command="sweep", params=params),
                   ["params", "sigma_min_values", 1])


@pytest.mark.parametrize("command", ["envelope", "abp-cover"])
def test_cap_grid_below_two_exit_2(tmp_path, capsys, command):
    _schema_exit_2(tmp_path, capsys, {
        "command": command, "profile": {"n": 2, "sigma": [1.0, 1.0]},
        "params": {"grid": 1}}, ["params", "grid"])


# an integer literal too large for a float: 401 digits
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("field, literal", [
    (field, literal)
    for field in ("profile.rho0", "quadrature.far_radius", "params.R")
    for literal in ("NaN", "Infinity", "-Infinity", "1e999", HUGE_INT)],
    ids=lambda value: value if len(value) < 40 else f"{len(value)}-digits")
def test_non_finite_number_exit_2(tmp_path, capsys, field, literal):
    """JSON's non-standard constants, and literals (integer ones too) that
    overflow to inf as a float, make the config unreadable wherever they
    stand."""
    config = copy.deepcopy(BARRIER_BASE)
    section, key = field.split(".")
    config.setdefault(section, {})[key] = "@"
    detail = _exit_2_line(tmp_path, capsys,
                          json.dumps(config).replace('"@"', literal))
    assert detail["error"] == "unreadable config"
    assert literal in detail["detail"]


# (a negative quadrature seed is among test_typed_quadrature_exit_2's cases)
@pytest.mark.parametrize("config", [
    dict(SMALL_CONFIGS["cz"], command="cz", seed=-1),
], ids=["config-seed"])
def test_negative_seed_exit_2(tmp_path, capsys, config):
    """numpy's generators take no negative seed: the config's seed is
    refused before the command runs."""
    detail = _schema_exit_2(tmp_path, capsys, config, ["seed"])
    assert detail["detail"] == "-1 is less than the minimum of 0"


@pytest.mark.parametrize("command, key, value", [
    ("solve", "max_iters", -5),
    ("harnack", "c0", -1),
    ("harnack", "c0", -0.999),
    ("sweep", "c0", -1),
])
def test_negative_solver_setting_exit_2(tmp_path, capsys, command, key,
                                        value):
    """A negative iteration cap or Harnack constant C_0 is a config error:
    the cap counts iterations, and the Harnack class needs C_0 >= 0."""
    config = {"command": command, "profile": P1,
              "params": {"grid": 9, key: value}}
    detail = _schema_exit_2(tmp_path, capsys, config, ["params", key])
    assert detail["detail"] == f"{value} is less than the minimum of 0"


def test_zero_max_iters_runs(tmp_path):
    """No iteration allowed is a setting, not an error: the solve reports
    that it did not converge."""
    cfg = write_config(tmp_path, {"command": "solve", "profile": P1,
                                  "params": {"grid": 9, "max_iters": 0}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["converged"] is False and results["iterations"] == 0


@pytest.mark.parametrize("below", [(), ("o",), ("o", "p")],
                         ids=["file", "child", "grandchild"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_unwritable_output_directory_exit_2(tmp_path, capsys, monkeypatch,
                                            below, where):
    """An output directory at or under a regular file cannot be made: the
    run is refused before the command runs, with one JSON line."""
    monkeypatch.setitem(cli._DISPATCH, "constants", None)   # never called
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker.joinpath(*below))
    config = dict(SMALL_CONFIGS["constants"], command="constants")
    if where == "flag":
        detail = _exit_2_line(tmp_path, capsys, config, ["--out", out])
    else:
        cfg = write_config(tmp_path, dict(config, out=out))
        assert main(["--config", cfg]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        detail = json.loads(lines[0])
    assert detail["error"] == "unwritable output directory"
    assert detail["detail"].startswith(out)
    assert blocker.read_text() == ""


def test_empty_output_directory_exit_2(tmp_path, capsys, monkeypatch):
    """The config's ``out`` may not be empty: no directory has that name."""
    monkeypatch.setitem(cli._DISPATCH, "constants", None)   # never called
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, dict(SMALL_CONFIGS["constants"],
                                      command="constants", out=""))
    assert main(["--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "unwritable output directory", "detail": "empty path"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


P3 = {"n": 3, "sigma": [1.0, 1.5, 1.2]}


@pytest.mark.parametrize("command, profile", [
    ("envelope", P3),
    ("abp-cover", P3),
    ("abp-cover", dict(P3, rho0=0.05, frak_c=2)),
], ids=["envelope", "abp-cover", "abp-cover-rho0"])
def test_cap_envelope_in_three_dimensions(tmp_path, command, profile):
    """The grid envelope runs in any dimension: in 3D both commands
    measure (exit 0) or stop at a failed hypothesis (exit 3), never fail
    a property; they write strict JSON, and a rerun the same bytes."""
    cfg = write_config(tmp_path, {"command": command, "profile": profile,
                                  "params": {"grid": 17}})
    outs = []
    for name in ("a", "b"):
        assert main(["--config", cfg, "--out", str(tmp_path / name)]) in (0, 3)
        text = (tmp_path / name / "results.json").read_text()
        json.loads(text, parse_constant=_reject_constant)
        outs.append([(tmp_path / name / f).read_bytes()
                     for f in ("results.json", "data.csv")])
    assert outs[0] == outs[1]


def test_barrier_sigma_below_floor_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(
        BARRIER_BASE, profile=dict(BARRIER_BASE["profile"], sigma=[0.4, 1.5])))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert "sigma_min 0.4" in results["invalid"]
    assert "passed" not in results
    assert capsys.readouterr().err == ""


def test_barrier_without_certified_exponent_exit_3(tmp_path, capsys):
    """At Lambda / lambda = 1e20 no exponent up to p = 64 certifies: a
    failed precondition with the search's worst margin, not a crash."""
    cfg = write_config(tmp_path, {
        "command": "barrier-verify",
        "profile": {"n": 1, "sigma": [0.51], "lambda_lo": 1.0,
                    "lambda_hi": 1e20},
        "params": {"n_points": 10, "psi_points": 5}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"].startswith(
        "no admissible exponent up to p = 64; worst margin ")
    assert " at [" in results["invalid"]
    assert "passed" not in results
    assert capsys.readouterr().err == ""


def test_barrier_verify_benchmark_config_frozen(tmp_path):
    """barrier-verify at the benchmark's barrier-certify config and
    reference seed: the recorded values, exactly."""
    cfg = write_config(tmp_path, {
        "command": "barrier-verify", "profile": P2, "seed": 7,
        "quadrature": {"seed": 7},
        "params": {"n_points": 50, "psi_points": 50}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["p"] == 1
    assert results["min_margin"] == -42.988934693534645
    assert results["min_margin_f"] == -1.4711167141205312
    assert results["quadrature_error"] == 193.39104239113632
    assert results["tilde_c"] == 12.373408321831254
    assert results["worst_point"] == [-0.4163482679171053, -0.5811874863781361]
    assert results["quad_coeffs"] == [
        -1.259921049894873, -1.1040895136738123, 1.2642977396044843]
    # passed under margin >= -error, yet no point has margin - error >= 0
    assert results["passed"] is True
    assert results["certified_f"] == results["certified"] == 0


def test_sweep_benchmark_config_frozen(tmp_path):
    """sweep at the benchmark's order-sweep config: the recorded quotients
    and divergence fit, exactly."""
    cfg = write_config(tmp_path, {
        "command": "sweep", "profile": P1, "seed": 7,
        "params": {"sigma_min_values": [1.0, 1.5, 1.9], "grid": 25,
                   "tolerance": 1e-10}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["slope"] == -0.00014994220812341588
    assert results["slope_se"] == 9.966999758591856e-05
    with open(tmp_path / "o" / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(q) for _, q in rows] == [
        0.5399781846626193, 0.5388499859555776, 0.5382258932899537]


def test_solve_benchmark_config_frozen(tmp_path):
    """solve at the benchmark's dirichlet-2d config: the recorded
    iterations, residual and solution values, exactly."""
    cfg = write_config(tmp_path, {
        "command": "solve", "profile": P2, "seed": 7,
        "params": {"grid": 15, "box": 2.0, "tolerance": 1e-8}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["iterations"] == 29
    assert results["residual"] == 5.25745689171353e-10
    assert results["sup"] == 0.1910402093873886
    assert results["origin"] == 0.007733151384507515


def test_harnack_2d_frozen(tmp_path):
    """2D harnack at sigma = (1, 1.5), grid 33, other params at their
    defaults: the recorded quotient and sup over B_1/2, exactly."""
    cfg = write_config(tmp_path, {"command": "harnack", "profile": P2,
                                  "params": {"grid": 33}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["quotient"] == 0.5864688097723552
    assert results["sup_b_half"] == 1.1729376195447103


@pytest.mark.parametrize("profile, expected", [
    ({"n": 1, "sigma": [1.0]},
     {"contact_points": 11, "n_planes": 11, "lipschitz": 0.328125,
      "contact_tol": 0.0205078125}),
    ({"n": 2, "sigma": [1.0, 1.5]},
     {"contact_points": 109, "n_planes": 225,
      "lipschitz": 0.338020432074749,
      "contact_tol": 0.021126277004671814}),
], ids=["1d", "2d"])
def test_envelope_default_frozen(tmp_path, profile, expected):
    """envelope at its default grid 129: the recorded contact count,
    plane count, Lipschitz bound and contact tolerance, exactly."""
    cfg = write_config(tmp_path, {"command": "envelope", "profile": profile})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert {k: results[k] for k in expected} == expected
    assert results["degenerate"] is False


def test_abp_cover_2d_frozen(tmp_path):
    """2D abp-cover at sigma = (1, 1.5), rho0 0.05, frak_c 2 and the
    default grid 65: the recorded cover and constants, exactly."""
    cfg = write_config(tmp_path, {
        "command": "abp-cover",
        "profile": {"n": 2, "sigma": [1.0, 1.5], "rho0": 0.05, "frak_c": 2}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["n_rectangles"] == len(results["rectangles"]) == 24
    assert results["varsigma_measured"] == 4.0
    assert results["grad_constant_measured"] == 0.36414518693060827
    assert results["sup_u_bound_sum"] == 13.387517328161152
    assert results["passed"] is True


@pytest.mark.parametrize("profile", [
    SMALL_CONFIGS["abp-cover"]["profile"], P1])
def test_abp_cover_without_rectangle_is_null(tmp_path, capsys, profile):
    """At grid 2 the contact set yields no rectangle, so the cover has no
    measured varsigma: null and a reason, not a non-finite number."""
    cfg = write_config(tmp_path, {"command": "abp-cover", "profile": profile,
                                  "params": {"grid": 2}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "results.json").read_text()
    results = json.loads(text, parse_constant=_reject_constant)
    assert results["n_rectangles"] == 0
    assert results["varsigma_measured"] is None
    assert results["varsigma_measured_reason"] == "the cover has no rectangle"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["envelope", "abp-cover"])
def test_cap_outside_unit_ball_exit_3(tmp_path, capsys, command):
    """On a 3^2 grid the interpolated cap is positive outside B_1, which
    the concave envelope requires it not to be."""
    cfg = write_config(tmp_path, {"command": command, "profile": P2,
                                  "params": {"grid": 3}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert "positive outside B_1" in results["invalid"]
    assert "passed" not in results
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("profile,params", [
    # the paper's default rho0 and frak_c: tiles past generation 2 are
    # narrower than 1e-18
    (P2, {"grid": 33}),
    (dict(P2, rho0=0.05), {"grid": 33}),
    # frak_c 3: C R~ is narrower than the lattice spacing at generation 0
    ({"n": 2, "sigma": [1.5, 1.5], "rho0": 0.05, "frak_c": 3},
     {"grid": 33}),
], ids=["defaults", "rho0", "frak_c-3"])
def test_abp_cover_degenerate_tiles_exit_3(tmp_path, capsys, profile,
                                           params):
    """A cover that splits below representable tiles is an invalid
    experiment that names where it stopped: no traceback, no verdict
    drawn from overflowed tile indices."""
    cfg = write_config(tmp_path, {"command": "abp-cover", "profile": profile,
                                  "params": params})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert "generation" in results["invalid"]
    assert "tile width" in results["invalid"]
    assert "passed" not in results
    assert capsys.readouterr().err == ""


def test_abp_cover_refuses_what_the_lattice_cannot_resolve(tmp_path, capsys):
    """At frak_c 3 the generation-0 C R~ is 0.0531 wide against the grid-33
    spacing 0.125: the lattice holds no node to tell its cells apart."""
    cfg = write_config(tmp_path, {
        "command": "abp-cover",
        "profile": {"n": 2, "sigma": [1.5, 1.5], "rho0": 0.05, "frak_c": 3},
        "params": {"grid": 33}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"] == (
        "C R~ is narrower than the lattice spacing 1.250e-01 (generation 0, "
        "tile width 2.656e-02, 2.656e-02)")
    assert capsys.readouterr().err == ""


def test_abp_cover_mc_samples_exit_2(tmp_path, capsys):
    """The detachment is read off the lattice: no sample count to set."""
    detail = _schema_exit_2(tmp_path, capsys, dict(
        SMALL_CONFIGS["abp-cover"], command="abp-cover",
        params={"grid": 33, "mc_samples": 200}), ["params"])
    assert detail["detail"] == ("Additional properties are not allowed "
                                "('mc_samples' was unexpected)")


def test_abp_cover_depth_cap_exit_3(tmp_path, capsys, monkeypatch):
    """A tripped depth cap is an invalid experiment, with the chain's last
    generation and its tile width."""
    from anisonl import abp
    # every rectangle fails the gradient test; no split is allowed
    monkeypatch.setattr(abp, "GRAD_THRESHOLD", -1.0)
    monkeypatch.setattr(abp, "DEPTH_CAP", 0)
    cfg = write_config(tmp_path, dict(SMALL_CONFIGS["abp-cover"],
                                      command="abp-cover"))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert "depth cap" in results["invalid"]
    assert "(generation 0, tile width" in results["invalid"]
    assert capsys.readouterr().err == ""


def test_cz_cell_count_bounded_by_profile(tmp_path, capsys):
    """(2^generation)^n cells: generation 40 in 2D is refused before any
    array is allocated."""
    detail = _exit_2_line(tmp_path, capsys, dict(
        SMALL_CONFIGS["cz"], command="cz", params={"generation": 40}))
    assert detail["error"] == "config schema violation"
    assert detail["path"] == ["params", "generation"]
    assert "at most 24" in detail["detail"]


def test_cz_runs_in_four_dimensions(tmp_path):
    """The density test reads cumulative measures along any number of
    axes."""
    cfg = write_config(tmp_path, {"command": "cz",
                                  "profile": {"n": 4, "sigma": [1, 1, 1, 1]},
                                  "params": {"generation": 3}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["covered"] and results["certified"]


@pytest.mark.parametrize("profile, seed, delta", [
    ({"n": 1, "sigma": [1.0]}, 3, 0.5),
    ({"n": 2, "sigma": [1.0, 1.5]}, 2, 0.9),
    ({"n": 2, "sigma": [1.0, 1.5]}, 3, 0.9),
])
def test_cz_dense_root_cell_exit_3(tmp_path, capsys, profile, seed, delta):
    """At generation 0 the single cell can fall in A, so |A| = 1 > delta:
    the decomposition's hypothesis fails, which is no crash."""
    cfg = write_config(tmp_path, {"command": "cz", "profile": profile,
                                  "seed": seed,
                                  "params": {"generation": 0,
                                             "delta": delta}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"].startswith("hypothesis |A| <= delta violated")
    assert "passed" not in results
    assert capsys.readouterr().err == ""


def test_cz_hypothesis_2_exit_3_names_witness(tmp_path, capsys,
                                              monkeypatch):
    """A decomposition whose hypothesis (2) fails is an invalid run; its
    message names the witness cube.  The command uses a full B, so it
    decomposes here with the anisotropic tilde boxes of its profile,
    under which the first dense cube's predecessor box leaves Q_1."""
    from anisonl import coverings
    from anisonl.profile import AnisotropyProfile
    profile = AnisotropyProfile(2, (1.0, 1.5))
    whole = coverings.cz_decompose
    monkeypatch.setattr(coverings, "cz_decompose",
                        lambda a, b, delta: whole(a, b, delta, profile))
    cfg = write_config(tmp_path, {"command": "cz", "profile": P2, "seed": 0,
                                  "params": {"generation": 5,
                                             "delta": 0.5}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"] == ("hypothesis (2) fails at gen 5 index "
                                  "(1, 0): predecessor tilde box not in B")
    assert "passed" not in results
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("config, reason", [
    ({"command": "solve", "profile": P1,
      "params": {"grid": 9, "box": 1e-200}}, "non-finite result "),
    ({"command": "solve", "profile": P1,
      "params": {"grid": 9, "bump_height": 1e300}},
     "non-finite r @ r = inf in _cg"),
    # weights near h^-sigma = 4e150: CG's p @ q overflows at the first step
    ({"command": "solve", "profile": P1,
      "params": {"grid": 9, "box": 1e-150}},
     "non-finite p @ q = inf in _cg"),
    ({"command": "barrier-verify", "profile": P1,
      "quadrature": {"shells": 2, "nodes_per_shell": 16, "far_radius": 1e300},
      "params": {"n_points": 3, "psi_points": 2}},
     "float overflow in outer_theta_radius: "),
    ({"command": "kernel-check", "profile": P2, "params": {"tau0": 1e80}},
     "float overflow in kernel_modulus_check: "),
    # |h| = 5e158 is below tau0 / 2, though |h|^2 overflows
    ({"command": "kernel-check", "profile": P1, "params": {"tau0": 1e160}},
     "float overflow in kernel_modulus_check: "),
], ids=["solve-box", "solve-bump", "solve-box-1e-150",
        "barrier-far-radius", "kernel-check-2d", "kernel-check-1d"])
def test_out_of_range_numbers_exit_3(tmp_path, capsys, recwarn, config,
                                     reason):
    """Data whose numbers leave the double range make an invalid run that
    names the quantity, in strict JSON, with nothing on stderr: no
    traceback and no numpy warning."""
    cfg = write_config(tmp_path, config)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    text = (tmp_path / "o" / "results.json").read_text()
    results = json.loads(text, parse_constant=_reject_constant)
    assert results["invalid"].startswith(reason)
    assert "passed" not in results
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in recwarn] == []


def test_decay_levels_past_float_range_are_empty(tmp_path):
    """A level M^k past the double range holds no point: every measure is
    0, so no exponent can be fitted and the run is invalid, naming the
    measures."""
    cfg = write_config(tmp_path, {"command": "decay", "profile": P1,
                                  "params": {"grid": 17, "M": 1e300,
                                             "k_max": 3}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"] == (
        "fewer than two levels {u > M^k} in Q_1 have a nonzero measure, "
        "no decay exponent to fit: measures [0.0, 0.0, 0.0]")
    assert "passed" not in results


def test_decay_with_one_nonempty_level_is_invalid(tmp_path):
    """One level with points fixes no exponent either."""
    cfg = write_config(tmp_path, {"command": "decay", "profile": P1,
                                  "params": dict(SMALL_SOLVE, M=1.1)})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["invalid"].endswith(
        "measures [0.125, 0.0, 0.0, 0.0, 0.0, 0.0]")


@pytest.mark.parametrize("outcome, code", [(True, 0), (False, 1),
                                           (None, 3)])
def test_warnings_shown_unless_invalid(tmp_path, monkeypatch, outcome, code):
    """A command's warnings reach the caller when its run passes or fails,
    and an invalid run drops them."""
    def command(profile, quad, params, seed):
        warnings.warn("held back", RuntimeWarning)
        if outcome is None:
            raise PreconditionError("hypothesis fails")
        return {}, [], ("empty",), outcome

    monkeypatch.setitem(cli._DISPATCH, "constants", command)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.run({"command": "constants", "profile": P1},
                       out_dir=str(tmp_path)) == code
    assert [str(w.message) for w in seen] == \
        ([] if code == 3 else ["held back"])


# modules each command must not load: jsonschema and scipy nowhere, since
# the library runs on numpy alone; the extremal operators only in
# barrier-verify; the solver (and the numpy.fft it uses) only where a
# command solves; numpy.ma not on the solver path; the experiments only
# in the commands that run one; numpy.random only where a command draws,
# and OpenSSL's _hashlib only where numpy.random loads it (through secrets
# and hmac), since the config digest does not.
NO_SOLVER = ["jsonschema", "scipy", "anisonl.solver", "numpy.fft"]
SOLVER = ["jsonschema", "scipy", "anisonl.operators", "numpy.ma",
          "_hashlib"]
CAP = NO_SOLVER + ["anisonl.operators", "numpy.ma"]
NO_EXPERIMENT = ["anisonl.experiments"]
IMPORT_BUDGET = {
    "constants": NO_SOLVER + ["anisonl.operators", "_hashlib"]
    + NO_EXPERIMENT,
    "barrier-verify": NO_SOLVER + NO_EXPERIMENT,
    "envelope": CAP + ["_hashlib"] + NO_EXPERIMENT,
    "abp-cover": CAP + ["numpy.random", "_hashlib"] + NO_EXPERIMENT,
    "cz": NO_SOLVER + ["anisonl.operators"] + NO_EXPERIMENT,
    "solve": SOLVER + NO_EXPERIMENT,
    "harnack": SOLVER,
    "decay": SOLVER,
    "sweep": SOLVER,
    "kernel-check": NO_SOLVER + ["anisonl.operators"],
}


def _run_loading(tmp_path, config, modules):
    """``"<exit code> <loaded>"``: one CLI run of ``config`` in a fresh
    interpreter, and which of ``modules`` it loaded."""
    cfg = write_config(tmp_path, config)
    code = (
        "import sys\n"
        "from anisonl.cli import main\n"
        f"rc = main(['--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        f"print(rc, [m for m in {modules!r} if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", COMMANDS)
def test_import_budget(tmp_path, command):
    config = dict(SMALL_CONFIGS[command], command=command)
    assert _run_loading(tmp_path, config, IMPORT_BUDGET[command]) == "0 []"


P2_EQUAL = {"n": 2, "sigma": [1.0, 1.0], "lambda_lo": 1.0, "lambda_hi": 2.0}


# equal orders take the tail constant from a numpy rule: scipy stays
# unloaded (the 2D sweep fails its divergence fit)
@pytest.mark.parametrize("config, code", [
    ({"command": "solve", "profile": P2_EQUAL, "params": {"grid": 17}}, 0),
    ({"command": "harnack", "profile": P2_EQUAL, "params": {"grid": 17}}, 0),
    ({"command": "sweep", "profile": P2_EQUAL,
      "params": {"grid": 17, "sigma_min_values": [1.0, 1.5, 1.9]}}, 1),
    (dict(SMALL_CONFIGS["barrier-verify"], command="barrier-verify",
          profile=P2_EQUAL), 0),
    ({"command": "kernel-check", "profile": P2_EQUAL,
      "params": {"c0": 100.0}}, 0),
    ({"command": "abp-cover",
      "profile": {"n": 1, "sigma": [1.0], "rho0": 0.05, "frak_c": 2},
      "params": {"grid": 65}}, 0),
], ids=["solve-2d", "harnack-2d", "sweep-2d", "barrier-verify-2d",
        "kernel-check-2d", "abp-cover-1d"])
def test_equal_orders_and_1d_hulls_load_no_scipy(tmp_path, config, code):
    assert _run_loading(tmp_path, config, ["scipy"]) == f"{code} []"


# the grid envelope is numpy alone in every dimension (the 1D abp-cover is
# among the cases above)
@pytest.mark.parametrize("command, n", [
    ("envelope", 1), ("envelope", 2), ("envelope", 3),
    ("abp-cover", 2), ("abp-cover", 3),
], ids=["envelope-1d", "envelope-2d", "envelope-3d", "abp-cover-2d",
        "abp-cover-3d"])
def test_no_command_loads_scipy(tmp_path, command, n):
    profile = {"n": n, "sigma": [1.0, 1.5, 1.2][:n], "rho0": 0.05,
               "frak_c": 2}
    config = {"command": command, "profile": profile, "params": {"grid": 17}}
    code, loaded = _run_loading(tmp_path, config, ["scipy"]).split(" ", 1)
    assert code in ("0", "3") and loaded == "[]"


@pytest.mark.parametrize("config", [
    dict(cfg, command=command) for command, cfg in SMALL_CONFIGS.items()
] + [{"command": "constants", "profile": {"n": 1, "sigma": [0.7]},
      "note": "\u03c3 \u2208 (0, 2)"}], ids=list(SMALL_CONFIGS) + ["unicode"])
def test_config_digest_is_sha256_prefix(config):
    """The digest is the first 16 hex digits of the SHA-256 of the sorted
    JSON text, whichever module computes it."""
    text = json.dumps(config, sort_keys=True).encode()
    assert cli.config_digest(config) == hashlib.sha256(text).hexdigest()[:16]


def test_package_import_loads_no_numpy():
    """``import anisonl`` leaves numpy unloaded, so the package can pin
    the BLAS threads before numpy starts them."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, anisonl; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# the thread count of every OpenBLAS loaded after importing {module},
# asked through its C API; "none" when no OpenBLAS symbol is found
BLAS_THREADS = """
import ctypes
import {module}
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh
                   if "blas" in line.lower() and ".so" in line})
counts = []
for lib in libs:
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        continue
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            counts.append(fn())
            break
print(counts or "none")
"""


def _blas_threads(module):
    """The OpenBLAS thread counts a fresh interpreter reports after
    importing ``module`` with OPENBLAS_NUM_THREADS=2 in its environment."""
    if not sys.platform.startswith("linux"):
        pytest.skip("finds the loaded libraries through /proc/self/maps")
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS.replace("{module}", module)],
        capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("no OpenBLAS symbol found in the loaded libraries")
    return proc.stdout.strip()


def test_cli_pins_one_blas_thread():
    """The CLI runs OpenBLAS on one thread, whatever the environment
    asks for."""
    assert _blas_threads("anisonl.cli") == "[1]"


def test_package_pins_one_blas_thread():
    """So does a library script: importing the package pins the thread,
    before any submodule loads numpy."""
    assert _blas_threads("anisonl.solver") == "[1]"


def test_outputs_independent_of_blas_threads(tmp_path):
    """A 2D solve of 103^2 unknowns, where OpenBLAS would split CG's dot
    products across threads, writes the same bytes whatever
    OPENBLAS_NUM_THREADS the CLI is started with."""
    cfg = write_config(tmp_path, {
        "command": "solve", "profile": {"n": 2, "sigma": [1.0, 1.5]},
        "params": {"grid": 103, "tolerance": 1e-6}})
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "anisonl.cli", "--config", cfg,
             "--out", str(out)], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outs.append([(out / name).read_bytes()
                     for name in ("results.json", "data.csv")])
    assert outs[0] == outs[1]


def _bad_values(schema):
    """``(value, subpath)`` pairs that each break ``schema`` once: a wrong
    type ("x", true, and 2.5 for an integer), and a value just outside each
    declared bound (the bound minus 1 for ``minimum``, an exclusive bound
    itself), in ``items`` too."""
    wrong = ["x", True] + ([2.5] if schema["type"] == "integer" else [])
    bad = [(value, []) for value in wrong]
    if "minimum" in schema:
        bad.append((schema["minimum"] - 1, []))
    bad += [(schema[k], []) for k in ("exclusiveMinimum", "exclusiveMaximum")
            if k in schema]
    if "items" in schema:
        bad += [([value], [0] + sub)
                for value, sub in _bad_values(schema["items"])]
    return bad


QUADRATURE_SCHEMA = CONFIG_SCHEMA["properties"]["quadrature"]["properties"]
PARAM_CASES = [(command, key, value, ["params", key] + sub)
               for command, props in PARAMS_SCHEMA.items()
               for key, schema in props.items()
               for value, sub in _bad_values(schema)]


@pytest.mark.parametrize("command, key, value, path", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}")
    for case in PARAM_CASES])
def test_typed_params_exit_2(tmp_path, capsys, command, key, value, path):
    config = copy.deepcopy(dict(SMALL_CONFIGS[command], command=command))
    config.setdefault("params", {})[key] = value
    _schema_exit_2(tmp_path, capsys, config, path)


@pytest.mark.parametrize("key, value, path", [
    (key, value, ["quadrature", key] + sub)
    for key, schema in QUADRATURE_SCHEMA.items()
    for value, sub in _bad_values(schema)])
def test_typed_quadrature_exit_2(tmp_path, capsys, key, value, path):
    config = copy.deepcopy(dict(SMALL_CONFIGS["barrier-verify"],
                                command="barrier-verify"))
    config["quadrature"][key] = value
    _schema_exit_2(tmp_path, capsys, config, path)


@pytest.mark.parametrize("config, path", [
    ({"command": "solve", "profile": P1, "params": {"gird": 33}},
     ["params"]),
    ({"command": "constants", "profile": P2, "params": {"x": 1}},
     ["params"]),
    ({"command": "constants", "profile": P2, "quadrature": {"shell": 8}},
     ["quadrature"]),
    ({"command": "constants", "profile": dict(P2, lamda_hi=2.0)},
     ["profile"]),
    ({"command": "constants", "profile": P2, "output": "o"}, []),
])
def test_unknown_key_exit_2(tmp_path, capsys, config, path):
    """A key no command reads, such as the typo "gird", is refused instead
    of silently running the default."""
    _schema_exit_2(tmp_path, capsys, config, path)


def test_params_read_are_typed():
    """Each command reads exactly the params its PARAMS_SCHEMA entry types:
    the ``params.get`` keys of ``_cmd_<command>``, and of ``_solve_setup``
    for the solver commands."""
    def reads(fn):
        return {node.args[0].value for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and getattr(node.func.value, "id", None) == "params"}

    tree = ast.parse(inspect.getsource(cli))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for command, props in PARAMS_SCHEMA.items():
        keys = reads(fns["_cmd_" + command.replace("-", "_")])
        if command in ("solve", "harnack", "decay", "sweep"):
            keys |= reads(fns["_solve_setup"])
        assert keys == set(props), command


@pytest.mark.parametrize("command, key", [
    (command, key) for command, props in PARAMS_SCHEMA.items()
    for key, schema in props.items() if schema["type"] == "integer"])
def test_integral_float_params_run(tmp_path, command, key):
    """33.0 is an integer to the schema, so the command must accept it and
    write the same results as for 33."""
    outs = []
    base = dict(SMALL_CONFIGS[command], command=command)
    for value in (base["params"][key], float(base["params"][key])):
        config = copy.deepcopy(base)
        config["params"][key] = value
        cfg = write_config(tmp_path, config, name=f"{value!r}.json")
        out = tmp_path / repr(value)
        assert main(["--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        outs.append({k: v for k, v in results.items() if k != "digest"})
    assert outs[0] == outs[1]


def _perfbench_configs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [w["config"](7) for w in workloads.WORKLOADS.values()]


def _with(config, *path_value):
    """A deep copy of ``config`` with ``path_value[:-1]`` set to the last
    item, or deleted when it is ``DELETE``."""
    out = copy.deepcopy(config)
    *path, value = path_value
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


DELETE = object()
VALID = dict(SMALL_CONFIGS["constants"], command="constants")
VALID_CONFIGS = (
    [dict(cfg, command=command) for command, cfg in SMALL_CONFIGS.items()]
    + [dict(SOLVER_BASE, command=c) for c in ("solve", "harnack", "decay",
                                              "sweep")]
    + [BARRIER_BASE, dict(SOLVER_BASE, command="sweep", params=STARVED)]
    + [_with(VALID, "profile", "n", 2.0),
       _with(VALID, "seed", 3.0),
       _with(VALID, "profile", "frak_c", 2),
       _with(VALID, "profile", "sigma", []),
       _with(VALID, "out", "o"),
       _with(VALID, "params", {}),
       _with(VALID, "quadrature", {"shells": 4, "nodes_per_shell": 16,
                                   "far_radius": 8.0, "r_inner": 1e-6,
                                   "seed": 3}),
       _with(dict(SMALL_CONFIGS["cz"], command="cz"),
             "params", "generation", 2.0),
       _with(dict(SMALL_CONFIGS["envelope"], command="envelope"),
             "params", "grid", 33.0),
       _with(dict(SMALL_CONFIGS["solve"], command="solve"),
             "params", "tolerance", 1)])
# one violation each: every keyword of the schemas at least once
SINGLE_VIOLATIONS = [
    [],                                             # type object
    _with(VALID, "profile", "x"),                   # type object, nested
    _with(VALID, "command", DELETE),                # required
    _with(VALID, "profile", DELETE),
    _with(VALID, "profile", "n", DELETE),
    _with(VALID, "profile", "sigma", DELETE),
    _with(VALID, "command", "nope"),                # enum
    _with(VALID, "command", True),
    _with(VALID, "profile", "n", True),             # type integer
    _with(VALID, "profile", "n", 2.5),
    _with(VALID, "profile", "n", "2"),
    _with(VALID, "seed", "x"),
    _with(VALID, "seed", False),
    _with(VALID, "seed", -1),                       # minimum
    _with(VALID, "profile", "frak_c", 1.5),
    _with(VALID, "profile", "n", 0),                # minimum
    _with(VALID, "profile", "frak_c", 0),
    _with(VALID, "profile", "sigma", 1.0),          # type array
    _with(VALID, "profile", "sigma", [1.0, "x"]),   # items, type number
    _with(VALID, "profile", "sigma", [1.0, None]),
    _with(VALID, "profile", "sigma", [True, 1.0]),
    _with(VALID, "profile", "sigma", [1.0, 0.0]),   # exclusiveMinimum
    _with(VALID, "profile", "sigma", [2.0, 1.0]),   # exclusiveMaximum
    _with(VALID, "profile", "sigma", [1.0, 2.5]),
    _with(VALID, "profile", "lambda_lo", 0),
    _with(VALID, "profile", "lambda_hi", True),
    _with(VALID, "profile", "rho0", -1.0),
    _with(VALID, "out", 5),                         # type string
    _with(VALID, "quadrature", []),
    _with(VALID, "params", 3),
    _with(VALID, "extra", [1, "x"]),                # additionalProperties
    _with(VALID, "profile", "extra", 1),
    _with(VALID, "quadrature", {"extra": 1}),
    _with(VALID, "params", {"grid": 33}),           # constants reads none
    _with(dict(SMALL_CONFIGS["solve"], command="solve"), "params", "gird", 33),
] + [_with(dict(SMALL_CONFIGS[c], command=c, params={}), "params", k, v)
     for c, props in PARAMS_SCHEMA.items() for k, schema in props.items()
     for v in [None] + [value for value, _ in _bad_values(schema)]
] + [_with(VALID, "quadrature", {k: v})
     for k, schema in QUADRATURE_SCHEMA.items()
     for v in [None] + [value for value, _ in _bad_values(schema)]]
ABP = dict(SMALL_CONFIGS["abp-cover"], command="abp-cover")
MULTI_VIOLATIONS = [
    {},
    {"command": 1, "profile": {"n": True, "sigma": [0.0, 2.0, "x"]}},
    _with(_with(VALID, "command", DELETE), "profile", "n", True),
    _with(_with(VALID, "seed", "x"), "profile", "sigma", [3.0]),
    _with(_with(VALID, "profile", "n", 0), "profile", "frak_c", 0),
    _with(VALID, "profile", "sigma", [0.0, 3.0]),
    _with(dict(SMALL_CONFIGS["sweep"], command="sweep"), "params",
          {"tolerance": "x", "c0": True}),
    _with(dict(SMALL_CONFIGS["cz"], command="cz", seed="x"),
          "params", "generation", -1),
    _with(_with(VALID, "extra", 1), "profile", "n", DELETE),
    _with(_with(VALID, "profile", "extra", 1), "profile", "n", DELETE),
    _with(VALID, "params", {"b": 1, "a": 2}),
    _with(dict(SMALL_CONFIGS["solve"], command="solve"), "params",
          {"gird": 1, "tolerance": "x"}),
] + [
    # the retired detachment sample count, alone and beside other faults
    _with(ABP, "params", params) for params in (
        {"grid": 33, "mc_samples": 200}, {"mc_samples": None},
        {"grid": 1, "mc_samples": 200}, {"f_const": "x", "mc_samples": 0})
] + [_with(_with(ABP, "params", "mc_samples", 200), "seed", -1)]


@functools.cache
def _oracle_validator():
    """jsonschema's validator of CONFIG_SCHEMA with each command's
    PARAMS_SCHEMA as an if/then; the schema itself is checked once."""
    import jsonschema
    schema = dict(CONFIG_SCHEMA, allOf=[
        {"if": {"properties": {"command": {"const": command}},
                "required": ["command"]},
         "then": {"properties": {"params": {
             "properties": props, "additionalProperties": False}}}}
        for command, props in PARAMS_SCHEMA.items()])
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@pytest.mark.parametrize("config", VALID_CONFIGS + SINGLE_VIOLATIONS
                         + MULTI_VIOLATIONS + _perfbench_configs())
def test_load_config_agrees_with_jsonschema(tmp_path, config):
    jsonschema = pytest.importorskip("jsonschema")
    cfg = write_config(tmp_path, config)
    # what jsonschema.validate raises, without re-checking the schema
    exc = jsonschema.exceptions.best_match(
        _oracle_validator().iter_errors(config))
    if exc is None:
        assert load_config(cfg) == config
    else:
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        detail = json.loads(str(err.value))
        assert detail["error"] == "config schema violation"
        # among several violations, the one jsonschema reports
        assert detail["path"] == list(exc.absolute_path)
        assert detail["detail"] == exc.message
