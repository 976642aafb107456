"""Outside-in span tracer for the randset-pde benchmark.

The tracer replaces public functions and methods of the package with thin
wrappers, at the name each caller actually looks up: a module that did
``from .fem import solve_cg`` calls ``randset_pde.models.solve_cg``, so that
is the attribute wrapped.  Every wrapped call records one span
(name, start, end, parent span, operation id, count).  Spans stay in memory
until the run ends; :meth:`Tracer.remove` puts every original back.

A span's name is ``<layer>.<part>``; the layer is the package module whose
work the span measures.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _n_arg(args, kwargs):
    """``standard_normals(seed, index, n)``: the number of normals drawn."""
    return int(args[2] if len(args) > 2 else kwargs["n"])


def _x_size(args, kwargs):
    """``FieldEvaluator.value/derivative(self, x)``: points evaluated."""
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _grid_rows(args, kwargs):
    """``evaluate_grid(self, draw, points)``: one evaluation per grid row."""
    points = args[2] if len(args) > 2 else kwargs["points"]
    return int(np.shape(points)[0])


def _one(args, kwargs):
    return 1


# (span name, module, attribute path, count read from the arguments,
#  count read from the return value).  Counts of one span name are summed.
TARGETS = [
    ("cli.main", "randset_pde.cli", "main", None, None),
    ("cli.write_table", "randset_pde.cli", "_write_table", None, None),
    ("cli.write_manifest", "randset_pde.cli", "_write_manifest", None, None),
    ("cli.emit_plots", "randset_pde.cli", "emit_plots", None, None),
    ("config.parse", "randset_pde.cli", "parse_config", None, None),
    ("svg.line_plot", "randset_pde.cli", "line_plot", None, None),
    ("svg.step_points", "randset_pde.cli", "step_points", None, None),
    ("svg.write", "randset_pde.cli", "write_svg", None, None),
    ("propagation.random_set", "randset_pde.cli", "propagate_random_set", None, None),
    ("propagation.reduce", "randset_pde.cli", "parametric_from_random_set", None, None),
    ("propagation.reduce", "randset_pde.cli", "compare_bounds", None, None),
    ("propagation.reduce", "randset_pde.cli", "interval_mean_field", None, None),
    ("randomsets.pbox", "randset_pde.propagation", "empirical_pbox", None, None),
    ("sampling.normals", "randset_pde.propagation", "standard_normals", _n_arg, None),
    ("sampling.normals", "randset_pde.models", "standard_normals", _n_arg, None),
    ("sampling.normals", "randset_pde.fields", "standard_normals", _n_arg, None),
    ("models.build", "randset_pde.models", "build_model", None, None),
    ("models.evaluate", "randset_pde.models", "EllipticModel.evaluate", _one, None),
    ("models.evaluate", "randset_pde.models", "TransportPointModel.evaluate", _one, None),
    ("models.evaluate", "randset_pde.models", "WavePointModel.evaluate", _one, None),
    ("models.evaluate", "randset_pde.propagation", "GaussianFamilyModel.evaluate", _one, None),
    ("models.evaluate", "randset_pde.propagation", "GaussianFamilyModel.evaluate_grid",
     _grid_rows, None),
    ("fields.eval", "randset_pde.fields", "FieldEvaluator.value", _x_size, None),
    ("fields.eval", "randset_pde.fields", "FieldEvaluator.derivative", _x_size, None),
    ("fields.cutoff", "randset_pde.fields", "CutoffField.value", None, None),
    ("fields.cutoff", "randset_pde.fields", "CutoffField.derivative", None, None),
    ("fields.kl", "randset_pde.models", "kl_eigenpairs", None, None),
    ("fields.kl", "randset_pde.cli", "kl_eigenpairs", None, None),
    ("fem.mesh", "randset_pde.models", "build_mesh", None, None),
    ("fem.mesh", "randset_pde.cli", "build_mesh", None, None),
    ("fem.coeff", "randset_pde.models", "element_coefficients", None, None),
    ("fem.coeff", "randset_pde.cli", "element_coefficients", None, None),
    ("fem.assemble", "randset_pde.models", "assemble", None, None),
    ("fem.assemble", "randset_pde.cli", "assemble", None, None),
    ("fem.cg", "randset_pde.models", "solve_cg", None, lambda r: r.iterations),
    ("fem.cg", "randset_pde.cli", "solve_cg", None, lambda r: r.iterations),
    ("characteristics.setup", "randset_pde.models", "build_grids", None, None),
    ("characteristics.setup", "randset_pde.models", "wave_to_system", None, None),
    ("characteristics.solve", "randset_pde.models", "solve_2x2_system", None,
     lambda r: r.sweeps),
    ("characteristics.solve", "randset_pde.models", "solve_transport", None,
     lambda r: r.sweeps),
    ("characteristics.solve", "randset_pde.cli", "solve_2x2_system", None, lambda r: r.sweeps),
    ("characteristics.solve", "randset_pde.cli", "solve_transport", None, lambda r: r.sweeps),
    ("characteristics.reconstruct", "randset_pde.models", "reconstruct_displacement",
     None, None),
    ("characteristics.reconstruct", "randset_pde.cli", "reconstruct_displacement", None, None),
]


def _resolve(module_name, path):
    """(owner object, attribute name) for ``module:Class.attr`` style paths."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans from the wrappers it installs.

    ``op`` is the id of the operation in progress; spans recorded while it
    is None still carry it, so callers set it around each operation.
    """

    def __init__(self):
        self.spans = []     # (name, start, end, parent index or -1, op, count)
        self.op = None
        self._stack = []
        self._installed = []  # (owner, attr, original, owned) in install order

    def _wrap(self, name, fn, count_args, count_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            count = count_args(args, kwargs) if count_args is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op, count)
            if count_result is not None:
                tracer.spans[idx] = (name, start, end, parent, tracer.op,
                                     int(count_result(result)))
            return result

        return wrapper

    def wrap(self, owner, attr, name, count_args=None, count_result=None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, count_args, count_result))
        self._installed.append((owner, attr, original, owned))

    def install(self):
        """Wrap every target; returns the (module, path) pairs not found."""
        missing = []
        for name, module, path, count_args, count_result in TARGETS:
            try:
                owner, attr = _resolve(module, path)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append((module, path))
                continue
            self.wrap(owner, attr, name, count_args, count_result)
        return missing

    def remove(self):
        """Restore every wrapped attribute, last wrapped first."""
        while self._installed:
            owner, attr, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_csv(self, path):
        """Write the spans with their self times, one row per span."""
        selfs = self_times(self.spans)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "op", "count", "self"])
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                name, start, end, parent, op, count = span
                writer.writerow([i, name, repr(start), repr(end), parent, op,
                                 "" if count is None else count, repr(own)])


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def op_summary(spans, op):
    """Totals of one operation's spans: self seconds, calls and counts per name."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for span, own in zip(spans, selfs):
        if span[4] != op:
            continue
        name = span[0]
        self_s[name] += own
        calls[name] += 1
        if span[5] is not None:
            counts[name] += span[5]
    return dict(self_s), dict(calls), dict(counts)


def op_roots(spans, op):
    """Names of one operation's spans that have no parent span."""
    return [span[0] for span in spans if span[4] == op and span[3] < 0]
