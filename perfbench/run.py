"""randset-pde benchmark.

    python3 perfbench/run.py --workload membrane --seed 1 --seconds 25 --trace 0

Runs one workload through the package's own entry point,
``randset_pde.cli.main([...])``, in this process with ``--workers 1``: a
closed loop with one client, each operation started after the previous one
ended and its outputs were checked.  Every operation of a run uses the
workload's scenario file; the operations take their CLI seeds in turn from a
round of ROUND seeds derived from the run's ``--seed`` (see op_seeds).

``--trace 0`` reports the end-to-end metrics, in seconds of a reference host
speed (see HostSpeed).  ``--trace 1`` alternates rounds of
untraced and traced operations and reports per-layer self times and counts
from the traced ones (see tracer.py); end-to-end numbers never come from
traced operations.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: a second one would wait on the other vCPU, which the host
# shares, and add its slow phases to every operation.  Set before numpy loads;
# the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Operations cycle through this many CLI seeds, so a run's figures average the
# seed-dependent work (CG iterations, Picard sweeps) of ROUND inputs.
ROUND = 4
# HostSpeed.kernel's time on a quiet host of the 2-vCPU VM the README
# describes; the end-to-end times are given at this speed.
REFERENCE_KERNEL_S = 0.003


@dataclass(frozen=True)
class Workload:
    command: str      # CLI subcommand
    scenario: str     # file under perfbench/scenarios


WORKLOADS = {
    "membrane": Workload("propagate", "membrane.cfg"),
    "gauss_family": Workload("compare", "gauss_family.cfg"),
    "wave_point": Workload("propagate", "wave_point.cfg"),
}

# Reported with --trace 0, in BENCHMARK.json's end_to_end order.  wall_s is
# the mean over the round's seeds of each seed's median operation time at the
# reference speed.  The readable report gives the measured times too.
END_TO_END = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Zero on a correct run, so they gate `correct` and `failed` rather than
# carry a relative bound.  Printed in both modes, reported with --trace 1.
CORRECTNESS = {"error_rate": "ratio", "sample_failure_share": "ratio",
               "chain_violations": "count", "ref_dev": "abs"}

# Reported with --trace 1: the median over traced operations of each value.
PER_LAYER = {
    "sampling.self_s": "s", "sampling.calls": "count", "sampling.normals": "count",
    "fields.self_s": "s", "fields.calls": "count", "fields.points": "count",
    "fields.term_evals": "count", "fields.kl_s": "s", "fields.kl_calls": "count",
    "fem.self_s": "s", "fem.cg_s": "s", "fem.cg_calls": "count",
    "fem.cg_iterations": "count", "fem.assemble_s": "s", "fem.coeff_s": "s",
    "characteristics.self_s": "s", "characteristics.solves": "count",
    "characteristics.picard_sweeps": "count", "characteristics.reconstruct_s": "s",
    "models.self_s": "s", "models.evals": "count",
    "propagation.self_s": "s", "propagation.reduce_s": "s",
    "randomsets.pbox_s": "s",
    "cli.self_s": "s", "svg.self_s": "s", "config.parse_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
LAYERS = ("sampling", "fields", "fem", "characteristics", "models", "propagation",
          "randomsets", "cli", "svg", "config")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import randset_pde from this checkout's src/, never from elsewhere."""
    if not (SRC / "randset_pde" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'randset_pde'}")
    sys.path.insert(0, str(SRC))
    from randset_pde import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"randset_pde was imported from {cli.__file__}, not {SRC}")
    return cli


def op_seeds(seed):
    """The CLI seeds of one run's round of operations, in the order they run."""
    return [(seed * ROUND + j) % 2**64 for j in range(ROUND)]


def load_references(name):
    """Stored outputs per CLI seed for one workload: {seed: {output name: rows}}."""
    path = HERE / "references" / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return {int(seed): outputs for seed, outputs in json.load(fh).items()}


class Capture:
    """Keeps the RandomSetResult each operation gets from cli.propagate_random_set."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.propagate_random_set
        self.result = None

        def propagate_random_set(*args, **kwargs):
            self.result = self.original(*args, **kwargs)
            return self.result

        cli.propagate_random_set = propagate_random_set

    def remove(self):
        self.cli.propagate_random_set = self.original


class HostSpeed:
    """How fast the host runs this process now, from a fixed kernel's time.

    The host slows the VM in phases lasting seconds to minutes, and a whole
    run can fall inside one.  A span's time at the reference speed is its
    measured time times REFERENCE_KERNEL_S over the mean time of the kernel
    run just before and just after it.  The kernel is benchmark code only,
    so a change to the package moves the scaled time as much as the measured.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self.kernel_s = []      # every kernel time measured, for the report

    def kernel(self):
        """Seconds to build 200 small random generators and draw from each.

        Work made of many short calls into numpy, like the workloads'.  Of the
        kernels tried (see the README), this one's time followed the busy
        phases most closely; dense products and long array passes slow less.
        """
        np = self._np
        t0 = time.perf_counter()
        for key in range(200):
            np.random.Generator(np.random.Philox(key=key)).standard_normal(10)
        elapsed = time.perf_counter() - t0
        self.kernel_s.append(elapsed)
        return elapsed

    def around(self, fn, *args):
        """(fn's result, the factor taking a time measured in it to the reference speed)."""
        before = self.kernel()
        result = fn(*args)
        after = self.kernel()
        return result, REFERENCE_KERNEL_S / ((before + after) / 2)


def measure_setup(scenario):
    """Seconds from starting a fresh interpreter to a prepared model."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(scenario)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    ready = None
    lines = []
    for line in proc.stdout:
        if line.strip() == "ready":
            ready = time.perf_counter() - t0
            break
        lines.append(line)
    try:
        rest, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        rest, _ = proc.communicate()
    if proc.returncode != 0 or ready is None:
        raise BenchError("set-up probe failed:\n" + "".join(lines) + rest)
    return ready


def run_operation(cli, workload, seed, out_dir):
    """One CLI invocation; returns (exit code or None, wall seconds, captured text)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [workload.command, "--config", str(HERE / "scenarios" / workload.scenario),
            "--seed", str(seed), "--workers", "1", "--out-dir", str(out_dir)]
    sink = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a failed benchmark
        code = None
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return code, wall, sink.getvalue()


def layer_values(self_s, calls, counts, m_pairs):
    """Per-layer metrics of one traced operation from its span totals."""
    def layer(name):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == name)

    points = counts.get("fields.eval", 0)
    return {
        "sampling.self_s": layer("sampling"),
        "sampling.calls": calls.get("sampling.normals", 0),
        "sampling.normals": counts.get("sampling.normals", 0),
        "fields.self_s": layer("fields"),
        "fields.calls": calls.get("fields.eval", 0),
        "fields.points": points,
        "fields.term_evals": points * 2 * m_pairs,
        "fields.kl_s": self_s.get("fields.kl", 0.0),
        "fields.kl_calls": calls.get("fields.kl", 0),
        "fem.self_s": layer("fem"),
        "fem.cg_s": self_s.get("fem.cg", 0.0),
        "fem.cg_calls": calls.get("fem.cg", 0),
        "fem.cg_iterations": counts.get("fem.cg", 0),
        "fem.assemble_s": self_s.get("fem.assemble", 0.0),
        "fem.coeff_s": self_s.get("fem.coeff", 0.0),
        "characteristics.self_s": layer("characteristics"),
        "characteristics.solves": calls.get("characteristics.solve", 0),
        "characteristics.picard_sweeps": counts.get("characteristics.solve", 0),
        "characteristics.reconstruct_s": self_s.get("characteristics.reconstruct", 0.0),
        "models.self_s": layer("models"),
        "models.evals": counts.get("models.evaluate", 0),
        "propagation.self_s": layer("propagation"),
        "propagation.reduce_s": self_s.get("propagation.reduce", 0.0),
        "randomsets.pbox_s": self_s.get("randomsets.pbox", 0.0),
        "cli.self_s": layer("cli"),
        "svg.self_s": layer("svg"),
        "config.parse_s": self_s.get("config.parse", 0.0),
    }


def per_seed(values, seeds, stat):
    """Mean over the round's seeds of ``stat`` of that seed's values."""
    return statistics.fmean(stat([v for v, s in zip(values, seeds) if s == seed])
                            for seed in dict.fromkeys(seeds))


def run(name, seed, seconds, trace):
    """Run one workload; returns (result dict, lines of the readable report)."""
    cli = import_package()
    from checker import check_operation
    from tracer import Tracer, op_roots, op_summary

    workload = WORKLOADS[name]
    scenario = HERE / "scenarios" / workload.scenario
    m_pairs = cli.parse_config(str(scenario)).field.m_terms or 0
    references = load_references(name)
    seeds = op_seeds(seed)

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{name}-{os.getpid()}"
    capture = Capture(cli)
    tracer = Tracer()
    speed = HostSpeed()
    walls, traced_walls, checks, op_layers, setup = [], [], [], [], []
    ref_walls, raw_setup = [], []     # at the reference speed; setup as measured
    wall_seeds, traced_seeds = [], []     # the CLI seed of each entry above
    op_evals = 0     # model evaluations per operation: samples x grid points
    report, missing = [], []
    try:
        start = time.perf_counter()
        cycles = []
        op = 0
        # Every seed of the round runs at least once (traced runs: once untraced,
        # once traced); then another operation starts only if a typical one
        # still ends in time.
        while op < (2 if trace else 1) * ROUND or (
                time.perf_counter() - start + statistics.median(cycles) <= seconds):
            # Probe i is due at i/SETUP_REPEATS of the run: spread over the run, the
            # probes' median spans the same host phases as the operations.
            due = (time.perf_counter() - start) * SETUP_REPEATS >= len(setup) * seconds
            if not trace and len(setup) < SETUP_REPEATS and due:
                _measure_setup(speed, scenario, setup, raw_setup)
            cycle_start = time.perf_counter()
            # Traced runs alternate whole rounds: untraced, traced, untraced, ...
            traced = trace and (op // ROUND) % 2 == 1
            op_seed = seeds[op % ROUND]
            capture.result = None
            if traced:
                tracer.op = op
                missing = tracer.install()
            try:
                (code, wall, text), factor = speed.around(
                    run_operation, cli, workload, op_seed, run_dir)
            finally:
                tracer.remove()
                tracer.op = None
            check = check_operation(workload.command, code, run_dir, capture.result,
                                    reference=references.get(op_seed))
            if op_seed not in references and check.ok:
                # later operations of this seed must repeat the first
                references[op_seed] = check.outputs
            if traced:
                self_s, calls, counts = op_summary(tracer.spans, op)
                # One root, cli.main, so the self times partition the traced operation.
                roots = op_roots(tracer.spans, op)
                if roots != ["cli.main"]:
                    check.problems.append(f"traced spans have roots {roots}, not one cli.main")
                values = layer_values(self_s, calls, counts, m_pairs)
                values["cli.bytes_written"] = check.bytes_written
                values["trace.wall_s"] = wall
                op_layers.append(values)
                traced_walls.append(wall)
                traced_seeds.append(op_seed)
            else:
                walls.append(wall)
                ref_walls.append(wall * factor)
                wall_seeds.append(op_seed)
                if check.ok:
                    op_evals = capture.result.n_samples * capture.result.grid.m
            if not check.ok:
                report.append(f"operation {op} failed: {'; '.join(check.problems)}")
                report.extend("  " + line for line in text.splitlines()[-20:])
            checks.append(check)
            cycles.append(time.perf_counter() - cycle_start)
            op += 1
        if trace:
            tracer.write_csv(OUT / f"trace-{name}-seed{seed}.csv")
    finally:
        capture.remove()
        shutil.rmtree(run_dir, ignore_errors=True)

    while not trace and len(setup) < SETUP_REPEATS:
        _measure_setup(speed, scenario, setup, raw_setup)
    failed = sum(not c.ok for c in checks)
    correctness = {
        "error_rate": failed / len(checks),
        "sample_failure_share": max(c.sample_failure_share for c in checks),
        "chain_violations": max(c.chain_violations for c in checks),
        "ref_dev": max(c.ref_dev for c in checks),
    }
    if trace:
        # Per operation, averaged over the round: each seed's median, then the mean.
        values = {k: per_seed([v[k] for v in op_layers], traced_seeds, statistics.median)
                  for k in PER_LAYER if k in op_layers[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - per_seed(
            walls, wall_seeds, statistics.median)
        reported = {**PER_LAYER, **CORRECTNESS}
        report += _layer_table(values)
        report += [f"  not traced, absent from this version: {module}.{path}"
                   for module, path in missing]
    else:
        wall = per_seed(ref_walls, wall_seeds, statistics.median)
        values = {
            "wall_s": wall,
            "evals_per_s": op_evals / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = END_TO_END
        report += _wall_lines(wall, walls, setup, raw_setup, speed.kernel_s)
    values.update(correctness)
    report += [f"  {k:<32} {values[k]:.6g} {CORRECTNESS[k]}" for k in CORRECTNESS]
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in reported.items()}
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    return result, [f"workload {name}  seed {seed} (CLI seeds {seeds[0]}..{seeds[-1]})  "
                    f"trace {int(trace)}  "
                    f"operations {len(checks)}  failed {failed}"] + report


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _measure_setup(speed, scenario, setup, raw_setup):
    ready, factor = speed.around(measure_setup, scenario)
    raw_setup.append(ready)
    setup.append(ready * factor)


def _wall_lines(wall, walls, setup, raw_setup, kernel_s):
    q1, q3 = _quartiles(walls)
    s1, s3 = _quartiles(raw_setup)
    k1, k3 = _quartiles(kernel_s)
    return [f"  {'wall_s':<32} {wall:.6g} s at the reference speed, n={len(walls)}",
            f"  {'setup_s':<32} {statistics.median(setup):.6g} s at the reference speed",
            f"  measured operation time: median {statistics.median(walls):.6g} s, "
            f"q1 {q1:.6g}, q3 {q3:.6g}, fastest {min(walls):.6g}",
            "  operations: " + " ".join(f"{w:.3f}" for w in walls),
            f"  measured set-up time: median {statistics.median(raw_setup):.6g} s "
            f"(q1 {s1:.6g}, q3 {s3:.6g}, n={len(raw_setup)})",
            f"  kernel time: median {statistics.median(kernel_s) * 1e3:.4g} ms "
            f"(q1 {k1 * 1e3:.4g}, q3 {k3 * 1e3:.4g}, n={len(kernel_s)}); "
            f"reference {REFERENCE_KERNEL_S * 1e3:.4g} ms"]


def _layer_table(values):
    wall = values["trace.wall_s"]
    lines = [f"  {'layer':<16} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        key = {"randomsets": "randomsets.pbox_s", "config": "config.parse_s"}.get(
            layer, f"{layer}.self_s")
        lines.append(f"  {layer:<16} {values[key]:>10.4f} {values[key] / wall:>7.1%}")
    lines += [f"  {k:<32} {values[k]:.6g} {PER_LAYER[k]}" for k in PER_LAYER
              if not k.endswith(".self_s")]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    sys.path.insert(0, str(HERE))
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
