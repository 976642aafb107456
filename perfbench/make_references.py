"""Regenerate the stored reference outputs that ``ref_dev`` compares against.

    python3 perfbench/make_references.py

Runs one operation per workload and CLI seed exactly as run.py does, for
the CLI seeds of the run seeds in SEEDS (``run.op_seeds``),
requires it to pass every invariant check, and writes the checked outputs (interval
bounds and mean-field values, or the comparison bounds for gauss_family) to
perfbench/references/<workload>.json.  Regenerate only when a change of
outputs is intended and stated.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checker import check_operation

SEEDS = list(range(11)) + [42]


def main():
    cli = run.import_package()
    capture = run.Capture(cli)
    out_dir = run.OUT / "references"
    try:
        for name, workload in run.WORKLOADS.items():
            stored = {}
            for seed in (s for run_seed in SEEDS for s in run.op_seeds(run_seed)):
                code, wall, text = run.run_operation(cli, workload, seed, out_dir)
                check = check_operation(workload.command, code, out_dir, capture.result)
                if not check.ok:
                    print(text, file=sys.stderr)
                    raise SystemExit(f"{name} seed {seed}: {'; '.join(check.problems)}")
                stored[str(seed)] = {k: v.tolist() for k, v in check.outputs.items()}
                print(f"{name} seed {seed}: {wall:.2f} s")
            path = run.HERE / "references" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(stored, fh)
                fh.write("\n")
    finally:
        capture.remove()
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
