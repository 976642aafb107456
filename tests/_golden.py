"""Golden outputs: a fixed list of small commands and the digests of their data files.

Each command runs ``randset_pde.cli.main`` in process.  Every data file it
writes (all but ``manifest.json`` and the SVG plots) is recorded by its
sha256 and, per column of its table (a CSV's rows below the header, a JSON
file's ``rows``), the sum and the largest magnitude of its values as
``float.hex``.  ``tests/test_golden.py`` compares a fresh run with the record:
the digests exactly under the recorded numpy and scipy versions, the column
statistics within ``RTOL`` of each column's recorded scale under others.

Regenerate ``golden/digests.json`` after a change that is meant to move an
output, from the repository root:

    PYTHONPATH=src python tests/_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import scipy

from randset_pde import cli

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DIGESTS = GOLDEN / "digests.json"
SCENARIOS = HERE.parent / "perfbench" / "scenarios"
RTOL = 1e-10


def _commands() -> dict:
    """Run name -> CLI arguments (without ``--out-dir``)."""
    runs = {}
    for seed in ("0", "1"):
        for command, scenario in (("propagate", "membrane"), ("propagate", "wave_point"),
                                  ("compare", "gauss_family")):
            runs[f"{command}-{scenario}-seed{seed}"] = [
                command, "--config", str(SCENARIOS / f"{scenario}.cfg"), "--seed", seed]
    runs.update({
        "elliptic-membrane": ["elliptic", "--config", "membrane"],
        "transport-transport_demo": ["transport", "--config", "transport_demo"],
        "wave-wave_dalembert": ["wave", "--config", "wave_dalembert"],
        "kl_table-membrane": ["kl-table", "--config", "membrane", "--ell", "1.0"],
        # the table writer's JSON path
        "kl_table-membrane-json": ["kl-table", "--config", "membrane", "--ell", "1.0",
                                   "--format", "json"],
        "propagate-gauss_family-json": ["propagate", "--config", "gauss_family",
                                        "--format", "json"],
        "sample_field-wave_point": ["sample-field", "--config", "wave_point"],
        # f = g = 0: the solver calls them at placeholder points
        "propagate-transport_point_small": [
            "propagate", "--config", str(GOLDEN / "transport_point_small.cfg")],
        # a, f and g read t: per-node curves, f and g at each group's own feet
        "transport-transport_t": ["transport", "--config", str(GOLDEN / "transport_t.cfg")],
    })
    return runs


COMMANDS = _commands()


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def file_digest(path) -> dict:
    """sha256 of a CSV or JSON data file, and per column its sum and max |value|."""
    data = pathlib.Path(path).read_bytes()
    if str(path).endswith(".json"):
        table = np.array(json.loads(data)["rows"], dtype=float, ndmin=2)
    else:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "sum": _hex(table.sum(axis=0)),
            "max_abs": _hex(np.abs(table).max(axis=0))}


def run(name) -> dict:
    """Run one command in a fresh directory: its exit code and file digests."""
    with tempfile.TemporaryDirectory() as out_dir:
        code = cli.main([*COMMANDS[name], "--out-dir", out_dir])
        files = {f: file_digest(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))
                 if f != "manifest.json" and not f.endswith(".svg")}
    return {"exit_code": code, "files": files}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def main() -> int:
    record = {"versions": versions(), "runs": {name: run(name) for name in COMMANDS}}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS} ({DIGESTS.stat().st_size} bytes, {len(COMMANDS)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
