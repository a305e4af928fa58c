"""Outputs as data: the SHA-256 of ``results.json`` and ``data.csv`` of
each named config, run in process through ``cli.run``, against the table
``digests.txt`` beside this file.

A refactor leaves every entry unchanged.  A change that moves bytes on
purpose updates the moved entries in the same change and says which
number moved and why.  The digests hold for the Python and numpy versions
and the one BLAS thread that the table's header names; on another stack a
moved entry says to rerun the table, not that the change is at fault.
``python tests/test_digests.py`` prints the table of the running code.
"""

import hashlib
import os
import platform
import sys
from pathlib import Path

# first: the package pins one BLAS thread before numpy loads
import anisonl  # noqa: F401
import numpy as np
import pytest

from anisonl import cli
from test_cli import SMALL_CONFIGS

TABLE = Path(__file__).with_name("digests.txt")

P2 = {"n": 2, "sigma": [1.0, 1.5], "lambda_lo": 1.0, "lambda_hi": 2.0}

CONFIGS = {f"small-{command}": dict(config, command=command)
           for command, config in SMALL_CONFIGS.items()}
CONFIGS.update({
    # the three benchmark workloads at their reference seed
    "bench-order-sweep": {
        "command": "sweep", "seed": 7,
        "profile": {"n": 1, "sigma": [1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0},
        "params": {"sigma_min_values": [1.0, 1.5, 1.9], "grid": 25,
                   "tolerance": 1e-10}},
    "bench-dirichlet-2d": {
        "command": "solve", "profile": P2, "seed": 7,
        "params": {"grid": 15, "box": 2.0, "tolerance": 1e-8}},
    "bench-barrier-certify": {
        "command": "barrier-verify", "profile": P2, "seed": 7,
        "quadrature": {"seed": 7},
        "params": {"n_points": 50, "psi_points": 50}},
    "barrier-2d-default": {"command": "barrier-verify", "profile": P2},
    "barrier-1d-seed3": {
        "command": "barrier-verify", "profile": {"n": 1, "sigma": [1.0]},
        "seed": 3, "quadrature": {"seed": 3}},
    "barrier-2d-steep-seed11": {
        "command": "barrier-verify", "seed": 11, "quadrature": {"seed": 11},
        "profile": {"n": 2, "sigma": [1.9, 1.99], "lambda_hi": 3.0}},
    "barrier-3d-seed5": {
        "command": "barrier-verify", "seed": 5, "quadrature": {"seed": 5},
        "profile": {"n": 3, "sigma": [1.0, 1.5, 1.2]}},
    "harnack-2d-33": {"command": "harnack", "profile": P2,
                      "params": {"grid": 33}},
    "harnack-2d-33-equal": {
        "command": "harnack", "params": {"grid": 33},
        "profile": {"n": 2, "sigma": [1.0, 1.0], "lambda_lo": 1.0,
                    "lambda_hi": 2.0}},
    "sweep-2d-17": {"command": "sweep", "profile": P2,
                    "params": {"grid": 17}},
    "decay-2d": {"command": "decay", "profile": P2, "params": {"M": 1.05}},
    "envelope-1d": {"command": "envelope",
                    "profile": {"n": 1, "sigma": [1.0]}},
    "envelope-2d": {"command": "envelope",
                    "profile": {"n": 2, "sigma": [1.0, 1.5]}},
    "abp-cover-2d": {
        "command": "abp-cover",
        "profile": {"n": 2, "sigma": [1.0, 1.5], "rho0": 0.05,
                    "frak_c": 2}},
})


def stack():
    """The versions the digests depend on, as the table's header names
    them."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def read_table():
    """(header, {name: (results digest, data digest)}): the header is
    the ``key value`` pairs of the ``#`` lines."""
    header, table = {}, {}
    for line in TABLE.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            header[key] = value
        elif line.strip():
            name, results, data = line.split()
            table[name] = (results, data)
    return header, table


def output_digests(name, out_dir):
    """SHA-256 of the config's results.json and data.csv."""
    assert cli.run(CONFIGS[name], out_dir=str(out_dir)) in (0, 1, 3)
    return tuple(hashlib.sha256((Path(out_dir) / f).read_bytes()).hexdigest()
                 for f in ("results.json", "data.csv"))


@pytest.fixture(scope="module")
def table():
    return read_table()


@pytest.fixture(scope="module")
def moved():
    """The entries moved so far in the run: each failure lists them all."""
    return {}


def test_table_lists_every_config(table):
    assert sorted(table[1]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_the_table(tmp_path, table, moved, name):
    header, recorded = table
    got = output_digests(name, tmp_path)
    if got != recorded.get(name):
        moved[name] = got
        running = stack()
        pytest.fail(
            "moved entries (name, results.json, data.csv):\n"
            + "".join(f"{k} {r} {d}\n" for k, (r, d) in sorted(moved.items()))
            + "table header against the running stack:\n"
            + "".join(f"  {key}: {header.get(key)} / {value}\n"
                      for key, value in running.items())
            + ("on another stack, rerun the table"
               if any(header.get(k) != v for k, v in running.items())
               else "same stack: the outputs moved"))


if __name__ == "__main__":
    import contextlib
    import tempfile
    # the runs' own lines go to stderr, the table alone to stdout
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        rows = [(name, *output_digests(name, Path(tmp) / name))
                for name in sorted(CONFIGS)]
    print("# results.json and data.csv SHA-256 of each config of "
          "test_digests.py")
    for key, value in stack().items():
        print(f"# {key} {value}")
    for row in rows:
        print(*row)
