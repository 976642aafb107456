"""Output checks run on every benchmark operation, outside the timed region.

An operation passes when the command exited 0, its manifest lists every
expected output and no failed sample, the ordering chain
``f_lower <= f_low <= f_upp <= f_upper``
holds on the captured random-set result, the p-box and interval bounds are
ordered, every per-parameter mean lies inside its Aumann interval, and the
outputs lie within ``REF_ATOL`` of the reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Largest absolute deviation from the reference outputs that still passes.
# Interval bounds, mean-field values and CDF levels are all O(1) or smaller;
# a change of draws or ECDF steps moves them by 1e-4 or more.
REF_ATOL = 1e-8

EXPECTED_OUTPUTS = {
    "propagate": ("pbox.csv", "intervals.csv", "mean_field.csv",
                  "pbox.svg", "slice.svg", "field.svg"),
    "compare": ("compare.csv",),
}


@dataclass
class OpCheck:
    """Outcome of checking one operation."""

    problems: list = field(default_factory=list)
    chain_violations: int = 0
    sample_failure_share: float = 0.0
    ref_dev: float = 0.0
    outputs: dict = field(default_factory=dict)   # name -> array, for ref_dev
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def read_table(path):
    """(header, float matrix) of a CSV data file; ValueError on a bad row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} is empty")
    header, body = rows[0], rows[1:]
    values = np.empty((len(body), len(header)))
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"{os.path.basename(path)} row {i + 1}: "
                             f"{len(row)} fields, expected {len(header)}")
        try:
            values[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{os.path.basename(path)} row {i + 1}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{os.path.basename(path)} holds non-finite values")
    return header, values


def _columns(header, values, *names):
    return [values[:, header.index(n)] for n in names]


def _check_propagate(out_dir, check):
    header, pbox = read_table(os.path.join(out_dir, "pbox.csv"))
    f_lower, f_upper = _columns(header, pbox, "f_lower", "f_upper")
    bad = int(np.count_nonzero(f_lower > f_upper))
    if bad:
        check.problems.append(f"pbox.csv: f_lower > f_upper at {bad} thresholds")

    header, iv = read_table(os.path.join(out_dir, "intervals.csv"))
    lower, upper = _columns(header, iv, "lower", "upper")
    bad = int(np.count_nonzero(lower > upper))
    if bad:
        check.problems.append(f"intervals.csv: lower > upper in {bad} samples")

    header, mf = read_table(os.path.join(out_dir, "mean_field.csv"))
    lo, hi = _columns(header, mf, "lower", "upper")
    means = mf[:, [i for i, n in enumerate(header) if n.startswith("mean_lambda_")]]
    outside = int(np.count_nonzero((means < lo[:, None]) | (means > hi[:, None])))
    if outside:
        check.problems.append(f"mean_field.csv: {outside} per-parameter means "
                              "outside their Aumann interval")
    check.outputs = {"intervals": iv[:, 1:], "mean_field": mf}


def _check_compare(out_dir, check, mean_field):
    header, cmp_rows = read_table(os.path.join(out_dir, "compare.csv"))
    fl, flow, fupp, fu, ok = _columns(header, cmp_rows,
                                      "f_lower", "f_low", "f_upp", "f_upper", "chain_ok")
    bad = int(np.count_nonzero((fl > flow) | (flow > fupp) | (fupp > fu) | (ok != 1)))
    if bad:
        check.problems.append(f"compare.csv: ordering chain fails at {bad} thresholds")
    means = mean_field.per_lambda_means
    lo = np.array([iv.lo for iv in mean_field.aumann])
    hi = np.array([iv.hi for iv in mean_field.aumann])
    outside = int(np.count_nonzero((means < lo) | (means > hi)))
    if outside:
        check.problems.append(f"{outside} per-parameter means outside the Aumann interval")
    check.outputs = {
        "compare": cmp_rows[:, 1:5],
        "mean_field": np.column_stack([lo, hi, means.T]),
    }


def check_operation(command, exit_code, out_dir, rs, reference=None):
    """Check one operation's outputs.

    ``rs`` is the RandomSetResult the command computed (None if it raised
    first); ``reference`` maps output names to arrays.  The invariants are
    checked on every seed, the reference deviation only when given.
    """
    from randset_pde.propagation import (
        compare_bounds,
        interval_mean_field,
        parametric_from_random_set,
    )

    check = OpCheck()
    if exit_code != 0:
        check.problems.append(f"exit code {exit_code}")
    # Counted before any early return: compare exits 3 exactly when the chain fails.
    if rs is not None:
        check.chain_violations = compare_bounds(rs, parametric_from_random_set(rs)).violations
        if check.chain_violations:
            check.problems.append(
                f"ordering chain violated at {check.chain_violations} thresholds")
    if exit_code != 0:
        return check
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        check.problems.append(f"manifest.json unreadable: {exc}")
        return check
    missing = [n for n in EXPECTED_OUTPUTS[command] if n not in manifest.get("outputs", ())]
    if missing:
        check.problems.append(f"outputs missing from the manifest: {', '.join(missing)}")
        return check
    check.bytes_written = sum(os.path.getsize(os.path.join(out_dir, n))
                              for n in manifest["outputs"])
    if rs is None:
        check.problems.append("no random-set result was captured")
        return check
    # compare leaves failure_count out of its manifest; the captured result has it
    n_failed = max(manifest.get("failure_count", 0), len(rs.failures))
    check.sample_failure_share = n_failed / rs.n_samples
    if n_failed:
        check.problems.append(f"{n_failed} of {rs.n_samples} samples failed")
    try:
        if command == "compare":
            _check_compare(out_dir, check, interval_mean_field(rs))
        else:
            _check_propagate(out_dir, check)
    except (OSError, ValueError) as exc:
        check.problems.append(str(exc))
        return check
    if reference is not None:
        check.ref_dev = reference_deviation(check.outputs, reference)
        if not check.ref_dev <= REF_ATOL:
            check.problems.append(f"outputs deviate from the reference by {check.ref_dev:.3g}")
    return check


def reference_deviation(outputs, reference):
    """Largest absolute difference over all named arrays; inf on a shape mismatch."""
    dev = 0.0
    for name, ref in reference.items():
        got = outputs.get(name)
        ref = np.asarray(ref, dtype=float)
        if got is None or got.shape != ref.shape:
            return math.inf
        if ref.size:
            dev = max(dev, float(np.max(np.abs(got - ref))))
    return dev
