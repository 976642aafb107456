"""Tests of the benchmark itself: tracer arithmetic, wrapping, checker, output contract.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from randset_pde import cli, fem, models  # noqa: E402
from randset_pde.propagation import ParameterGrid  # noqa: E402
from randset_pde.randomsets import Interval  # noqa: E402

SMALL_MEMBRANE = """
[meta]
schema_version = 1
[model]
kind = elliptic
[field]
ell_min = 0.5
ell_max = 1.5
m_terms = 3
[mesh]
shape = l_shape
nx = 6
ny = 6
[propagation]
samples = 5
ell_points = 3
thresholds = 21
[qoi]
kind = elliptic_slice
x2 = 0.3333
pbox_x1 = 0.3333
"""


# --- tracer -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, None),
        ("fem.cg", 1.0, 4.0, 0, 0, 7),
        ("fields.eval", 2.0, 3.0, 1, 0, 5),
        ("fem.assemble", 3.5, 6.0, 0, 0, None),    # overlaps fem.cg by 0.5
        ("svg.write", 9.0, 12.0, 0, 0, None),      # ends past its parent
        ("cli.main", 20.0, 21.0, -1, 1, None),     # another operation
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    self_s, calls, counts = tracer.op_summary(spans, 0)
    assert self_s == pytest.approx({"cli.main": 4.0, "fem.cg": 2.0, "fields.eval": 1.0,
                                    "fem.assemble": 2.5, "svg.write": 3.0})
    assert calls["cli.main"] == 1 and counts == {"fem.cg": 7, "fields.eval": 5}
    assert tracer.op_roots(spans, 0) == ["cli.main"]
    # Without the cli.main wrapper its children become roots of their own.
    orphans = [(n, a, b, p - 1 if p > 0 else -1, o, c) for n, a, b, p, o, c in spans[1:]]
    assert tracer.op_roots(orphans, 0) == ["fem.cg", "fem.assemble", "svg.write"]


def test_nested_self_times_sum_to_the_root_duration():
    spans = [("a.x", 0.0, 8.0, -1, 0, None), ("b.x", 1.0, 5.0, 0, 0, None),
             ("c.x", 2.0, 4.0, 1, 0, None), ("b.x", 6.0, 7.5, 0, 0, None)]
    assert sum(tracer.self_times(spans)) == pytest.approx(8.0)


def _installed_objects():
    out = {}
    for _, module, path, _, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def test_wrapper_catches_calls_through_the_importing_module_and_removal_restores():
    before = _installed_objects()
    t = tracer.Tracer()
    t.op = 3
    try:
        assert t.install() == []
        assert models.solve_cg is not fem.solve_cg
        mesh = fem.build_mesh("l_shape", 4, 4)
        model = models.EllipticModel(mesh=mesh, m_pairs=2, slice_x2=0.5)
        model.prepare(ParameterGrid.regular([Interval(0.5, 1.5)], [2]))
        model.evaluate(model.draw(1, 0), (1.0,))
    finally:
        t.remove()
    after = _installed_objects()
    assert all(after[k] is before[k] for k in before)
    assert models.solve_cg is fem.solve_cg
    assert models.EllipticModel.evaluate is before[("randset_pde.models", "EllipticModel.evaluate")]

    by_name = {}
    for i, span in enumerate(t.spans):
        by_name.setdefault(span[0], []).append((i, span))
    (ev_idx, _), = by_name["models.evaluate"]
    (_, cg), = by_name["fem.cg"]
    assert cg[3] == ev_idx and cg[4] == 3 and cg[5] > 0     # parent, op, CG iterations
    assert sum(s[5] for _, s in by_name["fields.eval"]) == 2 * mesh.n_nodes
    assert len(by_name["sampling.normals"]) == 1 and by_name["sampling.normals"][0][1][5] == 8


# --- checker ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    scenario = base / "small.cfg"
    scenario.write_text(SMALL_MEMBRANE)
    out = base / "out"
    capture = bench.Capture(cli)
    try:
        code = cli.main(["propagate", "--config", str(scenario), "--seed", "4",
                         "--out-dir", str(out)])
    finally:
        capture.remove()
    return code, out, capture.result


@pytest.fixture
def outputs(small_run, tmp_path):
    code, out, rs = small_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return code, copy, rs


def _edit_row(path, row, edit):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    lines[row] = ",".join(edit(fields))
    path.write_text("\n".join(lines) + "\n")


def test_checker_accepts_a_correct_run(outputs):
    code, out, rs = outputs
    check = checker.check_operation("propagate", code, out, rs)
    assert check.ok, check.problems
    assert check.chain_violations == 0 and check.sample_failure_share == 0.0
    ref = {k: v.copy() for k, v in check.outputs.items()}
    assert checker.check_operation("propagate", code, out, rs, reference=ref).ref_dev == 0.0


def test_checker_rejects_a_corrupted_pbox_row(outputs):
    code, out, rs = outputs
    _edit_row(out / "pbox.csv", 5, lambda f: [f[0], "0.3x", f[2]])
    check = checker.check_operation("propagate", code, out, rs)
    assert not check.ok and "pbox.csv row 5" in check.problems[0]


def test_checker_rejects_swapped_bounds(outputs):
    code, out, rs = outputs
    _, pbox = checker.read_table(out / "pbox.csv")
    row = int(np.nonzero(pbox[:, 1] < pbox[:, 2])[0][0]) + 1
    _edit_row(out / "pbox.csv", row, lambda f: [f[0], f[2], f[1]])
    check = checker.check_operation("propagate", code, out, rs)
    assert not check.ok and "f_lower > f_upper" in check.problems[0]


def test_checker_rejects_a_mean_outside_its_aumann_interval(outputs):
    code, out, rs = outputs
    _edit_row(out / "mean_field.csv", 2, lambda f: f[:3] + ["1e3"] + f[4:])
    check = checker.check_operation("propagate", code, out, rs)
    assert not check.ok and "Aumann" in check.problems[0]


def test_checker_rejects_a_nonzero_exit_and_a_reference_mismatch(outputs):
    code, out, rs = outputs
    assert checker.check_operation("propagate", 3, out, rs).problems == ["exit code 3"]
    good = checker.check_operation("propagate", code, out, rs)
    ref = {k: v.copy() for k, v in good.outputs.items()}
    ref["intervals"][0, 0] += 1e-6
    check = checker.check_operation("propagate", code, out, rs, reference=ref)
    assert not check.ok and check.ref_dev == pytest.approx(1e-6)


def test_checker_counts_chain_violations_of_a_command_that_exited_3(outputs):
    _, out, rs = outputs
    # Every sample moved far above the thresholds: each per-parameter ECDF is 0
    # where the p-box's lower bound is not.
    broken = dataclasses.replace(rs, per_lambda_values=rs.per_lambda_values + 100.0)
    check = checker.check_operation("compare", 3, out, broken)
    assert check.problems[0] == "exit code 3"
    assert check.chain_violations > 0 and not check.ok


# --- seed rounds and host speed ----------------------------------------------


def test_op_seeds_are_distinct_across_runs_and_valid_cli_seeds():
    rounds = [bench.op_seeds(s) for s in (0, 1, 42, 2**64 - 1)]
    assert all(len(r) == bench.ROUND and all(0 <= s < 2**64 for s in r) for r in rounds)
    assert len({s for r in rounds[:3] for s in r}) == 3 * bench.ROUND


def test_host_speed_scales_by_the_mean_kernel_time_around_the_span(monkeypatch):
    speed = bench.HostSpeed()
    kernel_times = iter([0.004, 0.008])
    monkeypatch.setattr(speed, "kernel", lambda: next(kernel_times))
    result, factor = speed.around(lambda x: x + 1, 1)
    assert result == 2
    assert factor == pytest.approx(bench.REFERENCE_KERNEL_S / 0.006)


def test_per_seed_averages_each_seeds_statistic():
    walls = [3.0, 1.0, 2.0, 5.0, 4.0]
    seeds = [7, 8, 7, 8, 7]
    assert bench.per_seed(walls, seeds, min) == pytest.approx((2.0 + 1.0) / 2)


# --- the command's output contract ----------------------------------------------


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "gauss_family", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_printing_a_result_where_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "membrane", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
