"""Command-line front end.

Subcommands: kl-table, sample-field, elliptic, transport, wave, propagate,
compare.  Every run writes its data files plus a RunManifest into --out-dir;
reruns with identical config and seed produce byte-identical data files
(manifest timing fields excluded).  Exit codes: 0 success, 2 configuration
error, 3 numerical failure, 4 coefficient-bound violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import pathlib
import sys
import time
from importlib import resources

import numpy as np

from . import _IMPORT_STARTED, __version__
from .characteristics import (
    DeterminacyRegion,
    TransportCoefficients,
    WaveMaterial,
    build_grids,
    reconstruct_displacement,
    solve_2x2_system,
    solve_transport,
    wave_to_system,
)
from .config import ScenarioConfig, parse_config, require
from .errors import (
    BoundViolationError,
    ConfigError,
    DomainError,
    NumericalError,
)
from .fem import assemble, build_mesh, element_coefficients, extract_slice, solve_cg
from .fields import (
    ExpCovarianceParams,
    field_values,
    kl_eigenpairs,
)
from .models import PLOT_SAMPLES, EllipticModel
from .propagation import (
    ParameterGrid,
    QoISpec,
    compare_bounds,
    interval_mean_field,
    parametric_from_random_set,
    propagate_random_set,
)
from .randomsets import Interval
from .svg import line_plot, step_points, write_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BOUNDS = 4

ENVELOPE_COLOR = "#b03030"
MEMBER_COLOR = "#7090c0"


# --- output helpers -----------------------------------------------------------


def _csv_body(columns) -> str:
    """The CSV rows of equal-length columns, from one ``%`` template.

    Integer and boolean columns print as ``%d``, all others as ``%.17g`` of
    their Python floats, and each row ends in ``\\r\\n``: what ``csv.writer``
    writes for ``str(int(v))`` and ``format(float(v), ".17g")`` cells, none
    of which needs quoting.
    """
    n_rows, n_cols = len(columns[0]), len(columns)
    cells = [None] * (n_rows * n_cols)
    specs = []
    for j, col in enumerate(columns):
        integral = col.dtype.kind in "biu"
        specs.append("%d" if integral else "%.17g")
        cells[j::n_cols] = col.tolist()     # raises if the column's length differs
    return (",".join(specs) + "\r\n") * n_rows % tuple(cells)


def _write_table(out_dir, name, header, columns, formats):
    """Write one logical table, given as one array-like per header cell, in
    each requested format; returns file names.  A file that cannot be
    written is a ConfigError that names it."""
    written = []
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header):
        raise ValueError(f"{name}: {len(header)} header cells but {len(columns)} columns")
    try:
        if "csv" in formats:
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(header)
                fh.write(_csv_body(columns))
            written.append(f"{name}.csv")
        if "json" in formats:
            path = os.path.join(out_dir, f"{name}.json")
            payload = {"columns": list(header),
                       "rows": np.column_stack([col.astype(float) for col in columns]).tolist()}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
            written.append(f"{name}.json")
    except OSError as exc:
        raise ConfigError([f"cannot write output file {path}: {exc.strerror or exc}"]) from exc
    return written


def _write_manifest(out_dir, payload) -> None:
    path = os.path.join(out_dir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class _Stages:
    def __init__(self):
        self.seconds = {}
        self._t0 = time.perf_counter()

    def mark(self, name):
        now = time.perf_counter()
        self.seconds[name] = round(now - self._t0, 6)
        self._t0 = now


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


# --- plotting -----------------------------------------------------------------


def _write_plot(out_dir, name, what, make_svg) -> list:
    """[name] after writing the SVG text make_svg() returns to out_dir/name,
    or [] after a warning that the ``what`` plot failed."""
    try:
        write_svg(os.path.join(out_dir, name), make_svg())
    except Exception as exc:  # plots must never kill a run
        _warn(f"{what} plot failed: {exc}")
        return []
    return [name]


def emit_plots(rs, mean_field, out_dir, field_sampler=None):
    """Write pbox.svg / slice.svg / field.svg; failures downgrade to warnings."""

    def pbox():
        bx_lo, by_lo = step_points(rs.pbox.thresholds, rs.pbox.f_lower)
        bx_up, by_up = step_points(rs.pbox.thresholds, rs.pbox.f_upper)
        return line_plot(
            [
                {"x": bx_up, "y": by_up, "color": ENVELOPE_COLOR, "width": 2.0},
                {"x": bx_lo, "y": by_lo, "color": "#2050a0", "width": 2.0},
            ],
            title="lower/upper distribution functions",
            xlabel="threshold b",
            ylabel="probability",
        )

    def mean_slice():
        series = []
        labels = mean_field.labels
        if labels.size > 1:
            for m in range(mean_field.per_lambda_means.shape[0]):
                series.append({"x": labels, "y": mean_field.per_lambda_means[m],
                               "color": MEMBER_COLOR, "width": 1.0})
            series.append({"x": labels, "y": [iv.lo for iv in mean_field.aumann],
                           "color": ENVELOPE_COLOR, "width": 2.2})
            series.append({"x": labels, "y": [iv.hi for iv in mean_field.aumann],
                           "color": ENVELOPE_COLOR, "width": 2.2})
            xlabel = "x1"
        else:
            # scalar quantity: per-parameter means over the grid index instead
            idx = np.arange(mean_field.per_lambda_means.shape[0], dtype=float)
            series.append({"x": idx, "y": mean_field.per_lambda_means[:, 0],
                           "color": MEMBER_COLOR, "width": 1.2})
            for bound in (mean_field.aumann[0].lo, mean_field.aumann[0].hi):
                series.append({"x": idx, "y": np.full(idx.size, bound),
                               "color": ENVELOPE_COLOR, "width": 2.2})
            xlabel = "parameter grid index"
        return line_plot(series, title="interval mean field with per-parameter means",
                         xlabel=xlabel, ylabel="mean value")

    def field_paths():
        xs, paths = field_sampler()
        return line_plot([{"x": xs, "y": p, "width": 1.2} for p in paths],
                         title="coefficient field sample trajectories",
                         xlabel="x", ylabel="q(x)")

    written = _write_plot(out_dir, "pbox.svg", "pbox", pbox)
    written += _write_plot(out_dir, "slice.svg", "slice", mean_slice)
    if field_sampler is not None:
        written += _write_plot(out_dir, "field.svg", "field", field_paths)
    return written


# --- shared argument plumbing ---------------------------------------------------


def _resolve_config_path(name: str):
    """The file ``name``, or else the preset of that name.

    A preset is an ``importlib.resources`` Traversable, which need not be a
    real file (a zipped package); read it through ``open``/``read_bytes``.
    """
    if os.path.isfile(name):
        return pathlib.Path(name)
    base = resources.files("randset_pde").joinpath("presets")
    for cand in (name, name + ".cfg"):
        preset = base.joinpath(cand)
        if preset.is_file():
            return preset
    raise ConfigError([f"config file or preset {name!r} not found"])


def _load_config(args, kind=None) -> ScenarioConfig:
    """The parsed --config; with ``kind``, which must be its model.kind."""
    if not args.config:
        raise ConfigError(["--config is required for this command"])
    cfg = parse_config(_resolve_config_path(args.config))
    if kind is not None and cfg.kind != kind:
        raise ConfigError([f"model.kind: must be {kind!r} for the {args.command} command, "
                           f"got {cfg.kind!r}"])
    return cfg


def _seed(args, cfg: ScenarioConfig, required=True, default=0):
    if args.seed is not None:
        seed = int(args.seed)
    elif cfg is not None and cfg.propagation.seed is not None:
        seed = int(cfg.propagation.seed)
    elif required:
        raise ConfigError(["propagation.seed: required (or pass --seed)"])
    else:
        seed = default
    if not 0 <= seed < 2**64:
        raise ConfigError([f"seed must be an unsigned 64-bit integer, got {seed}"])
    return seed


def _formats(args, cfg):
    if args.format:
        return (args.format,)
    return cfg.output.formats if cfg is not None else ("csv",)


def _config_sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- model/grid construction from config ----------------------------------------


def _region_from_config(cfg, what: str) -> DeterminacyRegion:
    """The cone of the [region] section, which ``what`` requires."""
    rc = cfg.region
    if rc is None:
        raise ConfigError([f"region: section required for {what}"])
    return DeterminacyRegion(rc.kappa, rc.horizon, rc.speed_bound)


def _elliptic_fields(cfg) -> dict:
    """EllipticModel keyword arguments of the [field] section."""
    return {
        "m_pairs": cfg.field.m_terms,
        "sigma": cfg.field.sigma,
        "a_min": cfg.field.a_min,
        "mean": cfg.field.mean,
    }


def _elliptic_model(cfg) -> EllipticModel:
    """The single-solve membrane model: slice at qoi.x2, or at x2 = 0.5."""
    mesh = build_mesh(cfg.mesh.shape, cfg.mesh.nx, cfg.mesh.ny)
    x2 = cfg.qoi.x2 if cfg.qoi.x2 is not None else 0.5
    return EllipticModel(mesh=mesh, slice_x2=x2, **_elliptic_fields(cfg))


def _single_ell(cfg) -> float:
    """field.ell, else the midpoint of [ell_min, ell_max] (a one-point grid's value)."""
    if cfg.field.ell is not None:
        return cfg.field.ell
    if cfg.field.ell_min is None or cfg.field.ell_max is None:
        raise ConfigError(["field.ell: required (or field.ell_min and field.ell_max)"])
    return float(ParameterGrid.regular([cfg.field.ell_interval()], [1]).points[0, 0])


def _build_qoi(cfg: ScenarioConfig):
    """(QoISpec, ParameterGrid) for the propagate/compare commands."""
    require(cfg, "qoi.kind")
    kind = cfg.qoi.kind
    prop = cfg.propagation
    if kind == "gauss_identity":
        if cfg.family is None:
            raise ConfigError(["family: section required for the Gaussian family"])
        grid = ParameterGrid.regular([cfg.family.mu, cfg.family.sigma],
                                     [prop.mu_points, prop.sigma_points])
        return QoISpec("gauss_identity", (), {}), grid

    require(cfg, "field.ell_min", "field.ell_max", "field.m_terms")
    grid = ParameterGrid.regular([cfg.field.ell_interval()], [prop.ell_points])
    if kind in ("elliptic_node", "elliptic_slice"):
        scenario = {
            "shape": cfg.mesh.shape,
            "nx": cfg.mesh.nx,
            "ny": cfg.mesh.ny,
            **_elliptic_fields(cfg),
        }
        if kind == "elliptic_slice":
            require(cfg, "qoi.x2")
            scenario["pbox_x1"] = cfg.qoi.pbox_x1
            return QoISpec("elliptic_slice", (cfg.qoi.x2,), scenario), grid
        require(cfg, "qoi.x1", "qoi.x2")
        return QoISpec("elliptic_node", (cfg.qoi.x1, cfg.qoi.x2), scenario), grid

    region = _region_from_config(cfg, "hyperbolic models")
    require(cfg, "qoi.x", "qoi.t")
    if kind == "transport_point":
        require(cfg, "transport.a_mean", "transport.a_lo", "transport.a_hi")
        tc = cfg.transport
        scenario = {
            "region": region,
            "nx": cfg.region.nx,
            "nt": cfg.region.nt,
            "m_pairs": cfg.field.m_terms,
            "sigma": cfg.field.sigma,
            "a_mean": tc.a_mean,
            "a_lo": tc.a_lo,
            "a_hi": tc.a_hi,
            "f": tc.f,
            "g": tc.g,
            "u0": tc.u0 if tc.u0 is not None else 0.0,
        }
        return QoISpec("transport_point", (cfg.qoi.x, cfg.qoi.t), scenario), grid
    if kind == "wave_point":
        require(cfg, "wave.e_mean", "wave.e_min", "wave.e_max", "wave.w", "wave.w_prime")
        wc = cfg.wave
        scenario = {
            "region": region,
            "nx": cfg.region.nx,
            "nt": cfg.region.nt,
            "m_pairs": cfg.field.m_terms,
            "sigma": cfg.field.sigma,
            "e_mean": wc.e_mean,
            "e_min": wc.e_min,
            "e_max": wc.e_max,
            "w": wc.w,
            "w_prime": wc.w_prime,
            "rho": wc.rho,
        }
        return QoISpec("wave_point", (cfg.qoi.x, cfg.qoi.t), scenario), grid
    raise ConfigError([f"qoi.kind: cannot propagate {kind!r}"])


def _plot_ell(grid) -> float:
    """field.svg's correlation length: the middle of the grid's interval."""
    return grid.dims[0].mid


def _field_sampler(model, ell, seed, n_paths=PLOT_SAMPLES, n_points=201):
    """Closure for field.svg: the model's first KL field of samples 0..n_paths-1
    at correlation length ell, on the model's field domain.  The draws are
    the run's own when it drew those samples (``model.first_draws``).  The
    paths share one basis, so its trig at the abscissae is evaluated once."""

    def sampler():
        domain = model.field_domain
        xs = np.linspace(domain.lo, domain.hi, n_points)
        draws = model.first_draws(seed, n_paths)
        return xs, field_values([model.fields(draw, ell)[0] for draw in draws], xs)

    return sampler


# --- subcommand implementations ---------------------------------------------------


def _cmd_kl_table(args, out_dir, stages, manifest):
    cfg = _load_config(args) if args.config else None
    ell = args.ell if args.ell is not None else (cfg.field.ell if cfg else None)
    terms = args.terms if args.terms is not None else (cfg.field.m_terms if cfg else None)
    problems = []
    if ell is None:
        problems.append("field.ell: required (or pass --ell)")
    elif not 0.0 < ell < np.inf:     # only --ell can be: parse_config checks field.ell
        problems.append(f"--ell: must be a finite number > 0, got {ell:g}")
    if terms is None:
        problems.append("field.m_terms: required (or pass --terms)")
    if problems:
        raise ConfigError(problems)
    basis = kl_eigenpairs(ExpCovarianceParams(1.0, float(ell), Interval(-1.0, 1.0)), int(terms))
    stages.mark("solve")
    columns = [np.arange(1, basis.m_pairs + 1), basis.alphas, basis.eigvals,
               basis.alphas_star, basis.eigvals_star]
    files = _write_table(out_dir, "kl_table",
                         ["k", "alpha_k", "c_k", "alpha_star_k", "c_star_k"],
                         columns, _formats(args, cfg))
    stages.mark("report")
    manifest["outputs"] = files
    manifest["seed"] = None
    return EXIT_OK


def _cmd_sample_field(args, out_dir, stages, manifest):
    """Trajectories of the first KL field of the config's model, on its field domain."""
    bad = [f"--{flag}: must be >= {low}, got {value}" for flag, value, low in
           (("paths", args.paths, 1), ("grid-points", args.grid_points, 2)) if value < low]
    if bad:
        raise ConfigError(bad)
    cfg = _load_config(args)
    require(cfg, "field.m_terms")
    ell = _single_ell(cfg)
    seed = _seed(args, cfg, required=False, default=0)
    model = _elliptic_model(cfg) if cfg.kind == "elliptic" else _build_qoi(cfg)[0].build()
    if not hasattr(model, "fields"):
        raise ConfigError(["sample-field: needs an elliptic, transport_point or wave_point model"])
    xs, paths = _field_sampler(model, ell, seed, args.paths, args.grid_points)()
    stages.mark("solve")
    header = ["x"] + [f"q_{k}" for k in range(args.paths)]
    files = _write_table(out_dir, "field", header, [xs, *paths], _formats(args, cfg))
    files += _write_plot(out_dir, "field.svg", "field", lambda: line_plot(
        [{"x": xs, "y": p, "width": 1.2} for p in paths],
        title=f"field trajectories (ell={ell:g})", xlabel="x", ylabel="q(x)"))
    stages.mark("report")
    manifest.update(outputs=files, seed=seed, ell=ell)
    return EXIT_OK


def _cmd_elliptic(args, out_dir, stages, manifest):
    cfg = _load_config(args, "elliptic")
    require(cfg, "field.m_terms")
    ell = _single_ell(cfg)
    seed = _seed(args, cfg, required=False, default=0)
    model = _elliptic_model(cfg)
    mesh, x2 = model.mesh, model.slice_x2
    coeffs = element_coefficients(mesh, model.coefficient(model.draw(seed, 0), ell))
    solution = solve_cg(assemble(mesh, coeffs, model.load))
    stages.mark("solve")

    nodal = [mesh.nodes[:, 0], mesh.nodes[:, 1], solution.values]
    files = _write_table(out_dir, "nodal", ["x1", "x2", "u"], nodal, _formats(args, cfg))
    sl = extract_slice(solution, x2)
    files += _write_table(out_dir, "slice", ["x1", "value"], [sl.x1, sl.values],
                          _formats(args, cfg))
    files += _write_plot(out_dir, "slice.svg", "slice", lambda: line_plot(
        [{"x": sl.x1, "y": sl.values, "width": 2.0}],
        title=f"displacement slice at x2={sl.x2:.4f}", xlabel="x1", ylabel="u"))
    stages.mark("report")
    manifest.update(outputs=files, seed=seed, ell=ell,
                    cg_iterations=solution.iterations, **_point_entry(model))
    return EXIT_OK


def _cmd_transport(args, out_dir, stages, manifest):
    cfg = _load_config(args, "transport")
    region = _region_from_config(cfg, "transport runs")
    require(cfg, "transport.a", "transport.u0")
    tc = cfg.transport
    xs, ts = build_grids(region, cfg.region.nx, cfg.region.nt)
    coeffs = TransportCoefficients(a=tc.a, f=tc.f, g=tc.g, u0=tc.u0, c=region.c)
    sol = solve_transport(coeffs, region, xs, ts)
    stages.mark("solve")
    jj, ii = np.nonzero(sol.inside)     # the cone's nodes, level by level
    files = _write_table(out_dir, "solution", ["x", "t", "u"],
                         [xs[ii], ts[jj], sol.values[jj, ii]], _formats(args, cfg))
    stages.mark("report")
    manifest.update(outputs=files, seed=None)
    return EXIT_OK


def _cmd_wave(args, out_dir, stages, manifest):
    cfg = _load_config(args, "wave")
    region = _region_from_config(cfg, "wave runs")
    require(cfg, "wave.e", "wave.e_prime", "wave.w", "wave.w_prime")
    wc = cfg.wave
    xs, ts = build_grids(region, cfg.region.nx, cfg.region.nt)
    a, f, g = wave_to_system(WaveMaterial(rho=wc.rho, E=(wc.e, wc.e_prime), q=None))
    u01 = lambda x: -np.asarray(a(x)) * wc.w_prime(x)
    u02 = lambda x: np.asarray(a(x)) * wc.w_prime(x)
    sol = solve_2x2_system(a, f, g, u01, u02, region, xs, ts)
    displacement = reconstruct_displacement(sol, wc.w)
    stages.mark("solve")
    jj, ii = np.nonzero(sol.inside)     # the cone's nodes, level by level
    columns = [xs[ii], ts[jj], sol.values[0, jj, ii], sol.values[1, jj, ii],
               displacement[jj, ii]]
    files = _write_table(out_dir, "solution", ["x", "t", "u1", "u2", "u"],
                         columns, _formats(args, cfg))
    stages.mark("report")
    manifest.update(outputs=files, seed=None)
    return EXIT_OK


def _run_counts(rs):
    """Manifest entries of a random-set run: failed samples, samples, grid points."""
    return dict(failure_count=len(rs.failures), n_samples=rs.n_samples, grid_points=rs.grid.m)


def _point_entry(model) -> dict:
    """Manifest entry of a model with an output node: the requested point ((x, t)
    of a point model, (x1, x2) of an elliptic node, x2 of a slice) and the
    solved node's."""
    if not hasattr(model, "solved_point"):
        return {}
    return {"point": {"requested": list(model.requested_point),
                      "solved": list(model.solved_point)}}


def _propagation_outputs(args, cfg, out_dir, model, rs, stages, manifest):
    formats = _formats(args, cfg)
    pbox = rs.pbox
    files = _write_table(out_dir, "pbox", ["b", "f_lower", "f_upper"],
                         [pbox.thresholds, pbox.f_lower, pbox.f_upper], formats)
    files += _write_table(out_dir, "intervals", ["sample_index", "lower", "upper"],
                          [rs.sample_indices, rs.intervals.lowers, rs.intervals.uppers],
                          formats)
    mf = interval_mean_field(rs)
    m = mf.per_lambda_means.shape[0]
    header = ["x1", "lower", "upper"] + [f"mean_lambda_{i:03d}" for i in range(m)]
    columns = [mf.labels, [iv.lo for iv in mf.aumann], [iv.hi for iv in mf.aumann],
               *mf.per_lambda_means]
    files += _write_table(out_dir, "mean_field", header, columns, formats)
    sampler = None
    if hasattr(model, "fields"):
        sampler = _field_sampler(model, _plot_ell(rs.grid), rs.seed)
    files += emit_plots(rs, mf, out_dir, field_sampler=sampler)
    stages.mark("report")
    manifest.update(outputs=files, seed=rs.seed, **_run_counts(rs), **_point_entry(model))
    return files


def _cmd_propagate(args, out_dir, stages, manifest):
    cfg = _load_config(args)
    require(cfg, "propagation.samples")
    seed = _seed(args, cfg, required=True)
    qoi, grid = _build_qoi(cfg)
    model = qoi.build()
    if hasattr(model, "fields"):     # field.svg's basis joins the grid's root solve
        model.prepare(grid, extra_ells=(_plot_ell(grid),))
    else:
        model.prepare(grid)
    stages.mark("prepare")
    # prepares the model again, which finds every basis and table built
    rs = propagate_random_set(model, grid, cfg.propagation.samples, seed,
                              threshold_count=cfg.propagation.thresholds)
    stages.mark("solve")
    _propagation_outputs(args, cfg, out_dir, model, rs, stages, manifest)
    return EXIT_OK


def _cmd_compare(args, out_dir, stages, manifest):
    cfg = _load_config(args)
    require(cfg, "propagation.samples")
    seed = _seed(args, cfg, required=True)
    qoi, grid = _build_qoi(cfg)
    model = qoi.build()
    model.prepare(grid)
    stages.mark("prepare")
    rs = propagate_random_set(model, grid, cfg.propagation.samples, seed,
                              threshold_count=cfg.propagation.thresholds)
    pm = parametric_from_random_set(rs)
    cb = compare_bounds(rs, pm)
    stages.mark("solve")
    lo, fl, fu, up = cb.f_lower, cb.f_low, cb.f_upp, cb.f_upper
    chain_ok = ((lo <= fl) & (fl <= fu) & (fu <= up)).astype(int)
    files = _write_table(out_dir, "compare",
                         ["b", "f_lower", "f_low", "f_upp", "f_upper", "chain_ok"],
                         [cb.thresholds, lo, fl, fu, up, chain_ok], _formats(args, cfg))
    stages.mark("report")
    manifest.update(outputs=files, seed=seed, violations=cb.violations, **_run_counts(rs),
                    **_point_entry(model))
    if not cb.chain_holds:
        print(f"ordering chain violated at {cb.violations} thresholds", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"ordering chain holds at all {cb.thresholds.size} thresholds")
    return EXIT_OK


_COMMANDS = {
    "kl-table": _cmd_kl_table,
    "sample-field": _cmd_sample_field,
    "elliptic": _cmd_elliptic,
    "transport": _cmd_transport,
    "wave": _cmd_wave,
    "propagate": _cmd_propagate,
    "compare": _cmd_compare,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="randset-pde",
        description="Random-set uncertainty propagation through PDE models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("kl-table", "dump the KL eigenpair table as CSV"),
        ("sample-field", "sample coefficient-field trajectories"),
        ("elliptic", "single elliptic solve (nodal + slice output)"),
        ("transport", "single transport solve on the cone"),
        ("wave", "single wave-system solve on the cone"),
        ("propagate", "random-set double loop (p-box, intervals, mean field)"),
        ("compare", "random-set vs parametric bound ordering report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario file or preset name")
        p.add_argument("--seed", type=int, help="seed override (uint64)")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--workers", type=int,
                       help="accepted for compatibility; samples run in blocks in one thread")
        p.add_argument("--format", choices=("csv", "json"), help="output format override")
        if name == "kl-table":
            p.add_argument("--ell", type=float, help="correlation length")
            p.add_argument("--terms", type=int, help="number of eigenpair terms")
        if name == "sample-field":
            p.add_argument("--paths", type=int, default=5, help="number of trajectories")
            p.add_argument("--grid-points", type=int, default=201)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stages = _Stages()
    started = time.time()
    out_dir = args.out_dir
    import scipy

    manifest = {
        "package_version": __version__,
        "library_versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "import_seconds": IMPORT_SECONDS,
        "schema_version": 1,
        "command": args.command,
        "argv_overrides": {
            "seed": args.seed,
            "workers": args.workers,
            "format": args.format,
        },
    }
    try:
        # resolved before the output directory exists, so that directory
        # can never stand in for the config file
        if args.config:
            path = _resolve_config_path(args.config)
            manifest["config_path"] = str(path)
            manifest["config_sha256"] = _config_sha(path)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError([f"--out-dir {out_dir!r}: cannot create the output "
                               f"directory: {exc.strerror or exc}"]) from exc
        code = _COMMANDS[args.command](args, out_dir, stages, manifest)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        code = EXIT_CONFIG
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        code = EXIT_BOUNDS
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    manifest["exit_code"] = code
    manifest["wall_clock_seconds"] = round(time.time() - started, 6)
    manifest["stage_seconds"] = stages.seconds
    manifest.setdefault("failure_count", 0)
    if os.path.isdir(out_dir):
        try:
            _write_manifest(out_dir, manifest)
        except OSError as exc:
            _warn(f"could not write manifest: {exc}")
    return code


# Seconds from the start of the package import to here, the end of this
# module's import.  A process pays it once, so every main() call in one
# process reports the same value.
IMPORT_SECONDS = round(time.perf_counter() - _IMPORT_STARTED, 6)


if __name__ == "__main__":
    raise SystemExit(main())
