"""Configuration parsing and the command-line front end."""

import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest

import _oracles as oracle
from randset_pde import cli, models
from randset_pde.cli import main
from randset_pde.config import QOI_KINDS, compile_expression, parse_config, require
from randset_pde.errors import ConfigError
from randset_pde.fem import build_mesh
from randset_pde.fields import (
    ExpCovarianceParams,
    FieldEvaluator,
    GaussianDraw,
    field_tables,
    kl_eigenpairs,
)
from randset_pde.models import EllipticModel
from randset_pde.propagation import ParameterGrid, QoISpec
from randset_pde.randomsets import Interval
from randset_pde.sampling import standard_normals
from test_propagation import FailingModel

PRESETS = os.path.join(os.path.dirname(__file__), "..", "src", "randset_pde", "presets")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
# the commands each script runs, each into its own <out>/<command> directory
SCRIPT_COMMANDS = {
    "run_gauss_family.py": ("propagate", "compare"),
    "run_membrane.py": ("propagate", "compare"),
    "run_hyperbolic_demos.py": ("transport", "wave"),
}


def readme_commands():
    """The randset-pde commands of the README's "Command line" block, as argv lists."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "randset-pde":
            commands.append(argv[1:])
    return commands


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GAUSS_SMALL = """
[meta]
schema_version = 1
[model]
kind = gauss
[family]
mu_min = -1.0
mu_max = 1.0
sigma_min = 1.0
sigma_max = 2.0
[propagation]
samples = 300
seed = 7
mu_points = 5
sigma_points = 5
thresholds = 41
[qoi]
kind = gauss_identity
"""

MEMBRANE_SMALL = """
[meta]
schema_version = 1
[model]
kind = elliptic
[field]
sigma = 1.0
ell_min = 0.5
ell_max = 1.5
m_terms = 4
a_min = 0.1
[mesh]
shape = l_shape
nx = 6
ny = 6
[propagation]
samples = 3
seed = 5
ell_points = 3
thresholds = 21
[qoi]
kind = elliptic_slice
x2 = 0.3333
"""

ELLIPTIC_SINGLE = """
[meta]
schema_version = 1
[model]
kind = elliptic
[field]
sigma = 1.0
ell = 1.0
m_terms = 30
a_min = 0.1
[mesh]
shape = l_shape
nx = 10
ny = 10
[qoi]
x2 = 0.4
"""


class TestParseConfig:
    def test_membrane_preset_values(self):
        cfg = parse_config(os.path.join(PRESETS, "membrane.cfg"))
        assert cfg.kind == "elliptic"
        assert cfg.mesh.nx == cfg.mesh.ny == 18
        assert cfg.field.m_terms == 130
        assert cfg.propagation.samples == 500
        assert cfg.field.ell_min == 0.5 and cfg.field.ell_max == 1.5
        assert cfg.propagation.ell_points == 11
        assert cfg.field.a_min == 0.1
        assert cfg.qoi.x2 == pytest.approx(0.4444)

    def test_all_presets_parse(self):
        for name in ("membrane.cfg", "gauss_family.cfg", "transport_demo.cfg",
                     "wave_dalembert.cfg", "transport_point.cfg", "wave_point.cfg"):
            cfg = parse_config(os.path.join(PRESETS, name))
            assert cfg.schema_version == 1

    @pytest.mark.parametrize("name", ["transport_point", "wave_point"])
    def test_hyperbolic_propagate_presets_build_and_prepare(self, name):
        cfg = parse_config(os.path.join(PRESETS, f"{name}.cfg"))
        spec, grid = cli._build_qoi(cfg)
        assert spec.model == name and spec.location == (0.0, 0.3)
        assert (cfg.region.nx, cfg.region.nt, cfg.field.m_terms) == (201, 201, 40)
        assert (cfg.propagation.samples, grid.m) == (200, 11)
        model = spec.build()
        model.prepare(grid)
        assert sorted(model._bases) == sorted(grid.points[:, 0])
        # the preset's point is a lattice node, up to the rounding of the grid
        np.testing.assert_allclose(model.solved_point, spec.location, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["membrane", "transport_point", "wave_point"])
    def test_prepare_builds_every_basis_in_one_stacked_pass(self, name):
        # each basis from the stacked root solve equals the one-ell kl_eigenpairs
        spec, grid = cli._build_qoi(parse_config(os.path.join(PRESETS, f"{name}.cfg")))
        model = spec.build()
        model.prepare(grid)
        assert sorted(model._bases) == sorted(grid.points[:, 0])
        for ell, basis in model._bases.items():
            params = ExpCovarianceParams(model.sigma, ell, model.field_domain)
            ref = kl_eigenpairs(params, model.m_pairs)
            assert (basis.m_pairs, basis.ell_effective) == (ref.m_pairs, ref.ell_effective)
            for field in ("alphas", "alphas_star", "eigvals", "eigvals_star",
                          "norms", "norms_star"):
                np.testing.assert_array_equal(getattr(basis, field), getattr(ref, field))

    def test_elliptic_tables_equal_per_ell_tables(self):
        spec, grid = cli._build_qoi(parse_config(os.path.join(PRESETS, "membrane.cfg")))
        model = spec.build()
        model.prepare(grid)
        ells = grid.points[:, 0]
        pairs = [model._basis(ell) for ell in ells]     # (params, basis) per ell
        for table, (xs, _) in zip(model._field_tables(ells), model._abscissae):
            per_ell = np.stack([field_tables([basis], [params], xs)[0] for params, basis in pairs])
            np.testing.assert_array_equal(table, per_ell)

    @pytest.mark.parametrize("shape, nx, ny", [("l_shape", 18, 18), ("rectangle", 6, 4)])
    def test_elliptic_axes_share_a_table_only_with_equal_abscissae(self, shape, nx, ny):
        model = EllipticModel(mesh=build_mesh(shape, nx, ny), m_pairs=7, slice_x2=0.5)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        model.prepare(grid)
        ells = grid.points[:, 0]
        tables = model._field_tables(ells)
        assert (tables[0] is tables[1]) == (nx == ny)
        pairs = [model._basis(ell) for ell in ells]
        for table, xs in zip(tables, (np.linspace(0, 1, nx + 1), np.linspace(0, 1, ny + 1))):
            per_ell = np.stack([field_tables([basis], [params], xs)[0] for params, basis in pairs])
            np.testing.assert_array_equal(table, per_ell)

    @pytest.mark.parametrize("name, ell", [("membrane", 1.0), ("membrane", 0.77),
                                           ("wave_point", 1.0)])
    def test_field_sampler_paths_are_the_field_values(self, name, ell):
        # 0.77 is no grid point of the membrane preset: its basis is built on demand
        spec, grid = cli._build_qoi(parse_config(os.path.join(PRESETS, f"{name}.cfg")))
        model = spec.build()
        model.prepare(grid)
        xs, paths = cli._field_sampler(model, ell, seed=9, n_paths=4, n_points=57)()
        assert len(paths) == 4 and xs.size == 57
        for draw, path in zip(model.draws(9, range(4)), paths):
            np.testing.assert_array_equal(path, model.fields(draw, ell)[0].value(xs))

    def test_missing_seed_named(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL.replace("seed = 7\n", ""))
        cfg = parse_config(path)
        with pytest.raises(ConfigError) as err:
            require(cfg, "propagation.seed")
        assert any("propagation.seed" in p for p in err.value.problems)

    def test_negative_ell_rejected(self, tmp_path):
        path = write_cfg(tmp_path, """
[meta]
schema_version = 1
[model]
kind = elliptic
[field]
ell = -0.5
""")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("field.ell" in p and "positive" in p for p in err.value.problems)

    def test_all_violations_collected(self, tmp_path):
        path = write_cfg(tmp_path, """
[meta]
schema_version = 1
[model]
kind = teapot
[field]
sigma = -1
ell = 0
m_terms = 0
""")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        joined = "\n".join(err.value.problems)
        for needle in ("model.kind", "field.sigma", "field.ell", "field.m_terms"):
            assert needle in joined
        assert len(err.value.problems) >= 4

    def test_unsupported_schema_version(self, tmp_path):
        path = write_cfg(tmp_path, "[meta]\nschema_version = 99\n[model]\nkind = gauss\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("schema_version" in p for p in err.value.problems)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.cfg"))

    def test_family_ordering_violations_all_reported(self, tmp_path):
        text = GAUSS_SMALL.replace("mu_min = -1.0", "mu_min = 2.0")
        text = text.replace("sigma_min = 1.0", "sigma_min = 3.0")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert "family.mu_min: must not exceed family.mu_max" in err.value.problems
        assert "family.sigma_min: must not exceed family.sigma_max" in err.value.problems

    def test_every_kind_of_violation_in_order(self, tmp_path):
        # each section's keys in schema order, its cross-key checks right
        # after them, then the unknown keys and sections in file order
        text = """
[meta]
schema_version = 2
[model]
kind = teapot
[field]
sigma = abc
ell = -1
ell_min = 2.0
ell_max = 1.0
m_terms = 0
sigmaa = 1
[family]
mu_min = 1.0
mu_max = 0.0
sigma_min = 3.0
sigma_max = 2.0
[mesh]
shape = hexagon
nx = 1
[region]
kappa = -2.0
horizon = 1.0
speed_bound = -1.0
nx = 1
nt = 4
[transport]
a = 2 +* x
f = open(x)
a_mean = zz
[wave]
rho = 0
[propagation]
samples = 0
seed = 1.5
workers = 0
[qoi]
kind = nope
[output]
formats = csv, xml
[outptu]
formats = csv
"""
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == [
            "meta.schema_version: unsupported version 2",
            "model.kind: must be one of gauss, elliptic, transport, wave, got 'teapot'",
            "field.sigma: expected a number, got 'abc'",
            "field.ell: must be positive, got -1.0",
            "field.m_terms: must be >= 1, got 0",
            "field.ell_min: must not exceed field.ell_max",
            "family.mu_min: must not exceed family.mu_max",
            "family.sigma_min: must not exceed family.sigma_max",
            "mesh.shape: must be one of rectangle, l_shape, got 'hexagon'",
            "mesh.nx: must be >= 2, got 1",
            "region.kappa: must be positive, got -2.0",
            "region.speed_bound: must be nonnegative, got -1.0",
            "region.nx: must be >= 2, got 1",
            "region.nt: must be odd so t = 0 is a grid level",
            "region: kappa must exceed speed_bound * horizon",
            "transport.a: bad expression '2 +* x': invalid syntax",
            "transport.f: unknown name(s) open in expression 'open(x)'",
            "transport.a_mean: expected a number, got 'zz'",
            "wave.rho: must be positive, got 0.0",
            "propagation.samples: must be >= 1, got 0",
            "propagation.seed: expected an integer, got '1.5'",
            "propagation.workers: must be >= 1, got 0",
            "qoi.kind: must be one of gauss_identity, elliptic_node, elliptic_slice, "
            "transport_point, wave_point, got 'nope'",
            "output.formats: unknown format(s) xml",
            "field.sigmaa: unknown key (did you mean 'sigma'?)",
            "[outptu]: unknown section (did you mean 'output'?)",
        ]

    def test_minimal_config_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "[meta]\nschema_version = 1\n"
                                               "[model]\nkind = gauss\n"))
        assert (cfg.schema_version, cfg.kind, cfg.family, cfg.region) == (1, "gauss", None, None)
        f = cfg.field
        assert (f.sigma, f.ell, f.ell_min, f.ell_max, f.m_terms, f.a_min, f.mean) == \
            (1.0, None, None, None, None, 0.1, 1.0)
        assert (cfg.mesh.shape, cfg.mesh.nx, cfg.mesh.ny) == ("l_shape", 18, 18)
        t = cfg.transport
        assert t.f == t.g == 0.0
        assert (t.a, t.u0, t.a_mean, t.a_lo, t.a_hi) == (None,) * 5
        w = cfg.wave
        assert w.rho == 1.0
        assert (w.e, w.e_prime, w.w, w.w_prime, w.e_mean, w.e_min, w.e_max) == (None,) * 7
        p = cfg.propagation
        assert (p.samples, p.seed, p.ell_points, p.mu_points, p.sigma_points, p.thresholds) \
            == (None, None, 11, 11, 11, 201)
        q = cfg.qoi
        assert (q.kind, q.x1, q.x2, q.pbox_x1, q.x, q.t) == (None,) * 6
        assert cfg.output.formats == ("csv",)

    def test_sections_and_intervals(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MEMBRANE_SMALL + "[region]\nkappa = 1.0\n"
                                     "horizon = 0.4\nspeed_bound = 1.0\nnx = 41\nnt = 41\n"))
        assert cfg.field.ell_interval() == Interval(0.5, 1.5)
        assert (cfg.region.kappa, cfg.region.horizon, cfg.region.speed_bound,
                cfg.region.nx, cfg.region.nt) == (1.0, 0.4, 1.0, 41, 41)
        family = parse_config(write_cfg(tmp_path, GAUSS_SMALL)).family
        assert (family.mu, family.sigma) == (Interval(-1.0, 1.0), Interval(1.0, 2.0))


# the smallest scenario of each QoI kind: its sections, and its [qoi] keys
# besides the kind
HYPERBOLIC = ("[field]\nell_min = 0.5\nell_max = 1.5\nm_terms = 3\n"
              "[region]\nkappa = 1.0\nhorizon = 0.4\nspeed_bound = 1.0\nnx = 11\nnt = 9\n")
MINIMAL_QOI = {
    "gauss_identity": ("[model]\nkind = gauss\n[family]\nmu_min = -1.0\nmu_max = 1.0\n"
                       "sigma_min = 1.0\nsigma_max = 2.0\n", ""),
    "elliptic_node": ("[model]\nkind = elliptic\n[field]\nell_min = 0.5\nell_max = 1.5\n"
                      "m_terms = 3\n[mesh]\nshape = rectangle\nnx = 4\nny = 4\n",
                      "x1 = 0.5\nx2 = 0.5\n"),
    "elliptic_slice": ("[model]\nkind = elliptic\n[field]\nell_min = 0.5\nell_max = 1.5\n"
                       "m_terms = 3\n[mesh]\nshape = rectangle\nnx = 4\nny = 4\n",
                       "x2 = 0.5\n"),
    "transport_point": ("[model]\nkind = transport\n" + HYPERBOLIC
                        + "[transport]\na_mean = 0.5\na_lo = 0.1\na_hi = 1.0\n",
                        "x = 0.0\nt = 0.2\n"),
    "wave_point": ("[model]\nkind = wave\n" + HYPERBOLIC
                   + "[wave]\ne_mean = 0.5\ne_min = 0.1\ne_max = 1.0\nw = exp(-16*x**2)\n"
                   "w_prime = -32*x*exp(-16*x**2)\n", "x = 0.0\nt = 0.2\n"),
}


def minimal_qoi_config(tmp_path, kind):
    sections, qoi = MINIMAL_QOI[kind]
    return parse_config(write_cfg(tmp_path, f"[meta]\nschema_version = 1\n{sections}"
                                            f"[qoi]\nkind = {kind}\n{qoi}"))


class TestQoIKinds:
    def test_the_minimal_scenarios_cover_exactly_the_schema_kinds(self):
        assert sorted(MINIMAL_QOI) == sorted(QOI_KINDS)

    @pytest.mark.parametrize("kind", QOI_KINDS)
    def test_every_schema_kind_builds_its_model(self, tmp_path, kind):
        spec, grid = cli._build_qoi(minimal_qoi_config(tmp_path, kind))
        assert spec.model == kind
        model = spec.build()
        model.prepare(grid)
        values, failures = model.evaluate_block(model.draws(0, range(2)), grid.points)
        assert failures == {} and np.all(np.isfinite(values))

    def test_a_kind_outside_the_schema_is_a_configuration_error(self, tmp_path):
        # the schema admits no such kind, so only a forged config reaches the check
        cfg = minimal_qoi_config(tmp_path, "wave_point")
        forged = dataclasses.replace(cfg, qoi=SimpleNamespace(**{**vars(cfg.qoi),
                                                                "kind": "membrane_flux"}))
        with pytest.raises(ConfigError) as err:
            cli._build_qoi(forged)
        assert err.value.problems == ["qoi.kind: cannot propagate 'membrane_flux'"]


class TestUnknownNames:
    """A section or key the parser does not read is an error, never a default."""

    def test_misspelt_key_and_section_are_named_with_a_suggestion(self, tmp_path):
        text = GAUSS_SMALL.replace("samples = ", "sampels = ") + "\n[famly]\nmu_min = 0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert "propagation.sampels: unknown key (did you mean 'samples'?)" in err.value.problems
        assert "[famly]: unknown section (did you mean 'family'?)" in err.value.problems

    @pytest.mark.parametrize("typo, section", [("famly", "family"), ("regoin", "region")])
    def test_misspelt_optional_section_is_suggested_when_absent(self, tmp_path, typo,
                                                                 section):
        # the real section is not in the file: the suggestion comes from the schema
        text = "[meta]\nschema_version = 1\n[model]\nkind = gauss\n" \
               f"[{typo}]\nkappa = 1.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == [f"[{typo}]: unknown section (did you mean {section!r}?)"]

    def test_a_name_without_a_close_match_gets_no_suggestion(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, GAUSS_SMALL + "\n[zzz]\nqqq = 1\n"))
        assert err.value.problems == ["[zzz]: unknown section"]

    def test_every_preset_and_benchmark_scenario_parses(self):
        scenarios = os.path.join(os.path.dirname(__file__), "..", "perfbench", "scenarios")
        names = [os.path.join(PRESETS, name) for name in sorted(os.listdir(PRESETS))]
        names += [os.path.join(scenarios, name) for name in sorted(os.listdir(scenarios))]
        assert len(names) >= 9
        for name in names:
            parse_config(name)

    def test_workers_is_accepted_and_checked(self, tmp_path):
        text = GAUSS_SMALL.replace("[propagation]\n", "[propagation]\nworkers = 4\n")
        assert "workers = 4" in text
        parse_config(write_cfg(tmp_path, text))
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text.replace("workers = 4", "workers = many")))
        assert err.value.problems == ["propagation.workers: expected an integer, got 'many'"]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        text = GAUSS_SMALL.replace("[qoi]\n", "[qoi]\nkindd = x\n")
        code = main(["propagate", "--config", write_cfg(tmp_path, text),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "qoi.kindd: unknown key (did you mean 'kind'?)" in capsys.readouterr().err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("raw", ["-inf", "nan", "+Infinity", "1e999"])
    def test_every_number_key_rejects_nan_and_inf(self, tmp_path, raw):
        text = GAUSS_SMALL.replace("sigma_max = 2.0", f"sigma_max = {raw}")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == [f"family.sigma_max: must be finite, got {raw!r}"]

    def test_infinite_family_bound_is_reported_with_the_other_problems(self, tmp_path,
                                                                        capsys):
        text = GAUSS_SMALL.replace("mu_min = -1.0", "mu_min = -inf") + "[mesh]\nnx = 0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == ["family.mu_min: must be finite, got '-inf'",
                                      "mesh.nx: must be >= 2, got 0"]
        assert main(["compare", "--config", write_cfg(tmp_path, text),
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "family.mu_min: must be finite, got '-inf'" in err
        assert "mesh.nx: must be >= 2, got 0" in err

    def test_nan_speed_bound_exits_2_with_its_key(self, tmp_path, capsys):
        with open(os.path.join(PRESETS, "transport_demo.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        assert "speed_bound = 1.0" in text
        path = write_cfg(tmp_path, text.replace("speed_bound = 1.0", "speed_bound = nan"))
        assert main(["transport", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "region.speed_bound: must be finite, got 'nan'" in capsys.readouterr().err


class TestPointSnapping:
    """A point model solves at a lattice node, and says which."""

    @staticmethod
    def _wave_point(tmp_path, nx, nt):
        # the wave_point preset, cut to one sample, two ell values and 10 KL pairs
        with open(os.path.join(PRESETS, "wave_point.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        for key, value in (("nx", nx), ("nt", nt), ("samples", 1), ("ell_points", 2),
                           ("m_terms", 10)):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        return write_cfg(tmp_path, text, name=f"wave_{nx}x{nt}.cfg")

    def test_off_grid_point_exits_2_and_names_a_grid_that_hits_it(self, tmp_path, capsys):
        # on 101 levels over [-0.4, 0.4] the spacing is 0.008, and t = 0.3
        # lies half way between the levels 0.296 and 0.304
        path = self._wave_point(tmp_path, 101, 101)
        assert main(["propagate", "--config", path, "--out-dir", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "the nearest node is (0, 0.296), 0.5 of a spacing away" in err
        nt = int(re.search(r"nt = (\d+) would put a node on it", err).group(1))
        assert "nx =" not in err        # x = 0 is a node of every odd nx
        assert nt == 97
        path = self._wave_point(tmp_path, 101, nt)
        assert main(["propagate", "--config", path, "--out-dir", str(tmp_path / "b")]) == 0

    def test_manifest_records_the_requested_and_the_solved_point(self, tmp_path):
        out = tmp_path / "run"
        assert main(["propagate", "--config", self._wave_point(tmp_path, 41, 41),
                     "--out-dir", str(out)]) == 0
        point = json.loads((out / "manifest.json").read_text())["point"]
        assert point["requested"] == [0.0, 0.3]
        np.testing.assert_allclose(point["solved"], [0.0, 0.3], rtol=0, atol=1e-15)


class TestFieldPlotDraws:
    """field.svg shows samples 0..2, from the run's own draws when it drew them."""

    @pytest.mark.parametrize("samples", [5, 3, 2, 1])
    def test_field_svg_is_the_plot_of_a_new_draw(self, tmp_path, monkeypatch, samples):
        path = write_cfg(tmp_path, MEMBRANE_SMALL.replace("samples = 3",
                                                          f"samples = {samples}"))
        seen, run = [], cli.propagate_random_set
        monkeypatch.setattr(cli, "propagate_random_set",
                            lambda model, *a, **k: seen.append(model) or run(model, *a, **k))
        draw_calls, normals = [], models.standard_normals
        monkeypatch.setattr(models, "standard_normals",
                            lambda *a: draw_calls.append(a[1]) or normals(*a))
        assert main(["propagate", "--config", path, "--out-dir", str(tmp_path / "run")]) == 0
        kept = seen[0]._plot_draws
        if samples >= 3:
            # one draw call, the run's block, which leaves a copy of rows 0..2
            assert len(draw_calls) == 1
            assert kept[0] == 5 and kept[1].shape[0] == 3 and kept[1].base is None
        else:
            assert len(draw_calls) == 2 and list(draw_calls[1]) == [0, 1, 2]
        # the reference: field.svg of samples 0..2 drawn anew
        monkeypatch.setattr(models._KLFieldModel, "first_draws",
                            lambda model, seed, count: model.draws(seed, range(count)))
        assert main(["propagate", "--config", path, "--out-dir", str(tmp_path / "ref")]) == 0
        assert (tmp_path / "run" / "field.svg").read_bytes() == \
            (tmp_path / "ref" / "field.svg").read_bytes()

    def test_kept_draws_are_those_of_a_new_block(self):
        spec, grid = cli._build_qoi(parse_config(os.path.join(PRESETS, "wave_point.cfg")))
        model = spec.build()
        block = model.draws(11, np.arange(6))
        np.testing.assert_array_equal(model.first_draws(11, 3), block[:3])
        np.testing.assert_array_equal(model.first_draws(11, 2), model.draws(11, range(2)))
        # another seed, more rows than kept, or a block not starting at sample 0 draw anew
        np.testing.assert_array_equal(model.first_draws(12, 3), model.draws(12, range(3)))
        np.testing.assert_array_equal(model.first_draws(11, 4), model.draws(11, range(4)))
        model.draws(13, np.arange(1, 4))
        assert model._plot_draws[0] == 11


class TestPrepareStage:
    def test_propagate_prepares_every_basis_before_the_prepare_mark(self, tmp_path,
                                                                     monkeypatch):
        # the grid's two ell and field.svg's (their midpoint, 1.0) come from
        # one stacked root solve, finished before the run starts; each basis
        # equals kl_eigenpairs bit for bit
        from randset_pde import models

        calls, seen = [], {}
        stacked, run = models.kl_bases, cli.propagate_random_set

        def counting(params, m_pairs):
            calls.append([p.ell for p in params])
            return stacked(params, m_pairs)

        def recording(model, grid, *args, **kwargs):
            seen.update(model=model, ells=sorted(model._bases), calls=len(calls))
            return run(model, grid, *args, **kwargs)

        monkeypatch.setattr(models, "kl_bases", counting)
        monkeypatch.setattr(models, "kl_eigenpairs", None)     # never called
        monkeypatch.setattr(cli, "propagate_random_set", recording)
        out = tmp_path / "run"
        assert main(["propagate", "--config", TestPointSnapping._wave_point(tmp_path, 41, 41),
                     "--out-dir", str(out)]) == 0
        assert calls == [[0.5, 1.5, 1.0]] and seen["calls"] == 1
        assert seen["ells"] == [0.5, 1.0, 1.5]
        assert (out / "field.svg").is_file()
        model = seen["model"]
        for ell, basis in model._bases.items():
            ref = kl_eigenpairs(ExpCovarianceParams(model.sigma, ell, model.field_domain),
                                model.m_pairs)
            for field in ("alphas", "alphas_star", "eigvals", "eigvals_star",
                          "norms", "norms_star"):
                np.testing.assert_array_equal(getattr(basis, field), getattr(ref, field))
        stages = json.loads((out / "manifest.json").read_text())["stage_seconds"]
        assert sorted(stages) == ["prepare", "report", "solve"]


class TestExpressions:
    def test_numpy_semantics(self):
        fn = compile_expression("sin(pi*x)*exp(-t)", ("x", "t"))
        xs = np.array([0.0, 0.5])
        np.testing.assert_allclose(fn(xs, 0.0), np.sin(np.pi * xs))

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError) as err:
            compile_expression("__import__('os').system('true')", ("x",))
        assert "unknown name" in str(err.value)
        with pytest.raises(ConfigError):
            compile_expression("open('x')", ("x",))

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError):
            compile_expression("2 +* x", ("x",))

    @pytest.mark.parametrize("source, names", [("sin(pi*x)*exp(-t)", ("x", "t")),
                                               ("0.5 + 5*t**2", ("t",)),
                                               ("cos(x) + x", ("x",)), ("0.0", ()),
                                               ("(lambda: x)()", ("x",)),
                                               ("(lambda y: exp(y))(x)", ("x",)),
                                               ("(lambda: sin(t))() + 0*x", ("x", "t"))])
    def test_variables_are_the_ones_named(self, source, names):
        # the characteristic solvers call an expression without t with x alone;
        # a lambda's body looks x, t and the numpy names up as globals
        fn = compile_expression(source, ("x", "t"))
        assert fn.variables == names and fn.source == source
        if "t" not in names:
            xs = np.array([0.0, 0.5])
            np.testing.assert_array_equal(fn(xs), fn(xs, 0.3))

    def test_unknown_names_in_nested_scopes_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown name.* q "):
            compile_expression("(lambda: q)()", ("x",))
        path = write_cfg(tmp_path, TestCLI.TRANSPORT_A.format(a="(lambda: q)()"))
        assert main(["transport", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "unknown name(s) q in expression" in capsys.readouterr().err

    def test_transport_speed_through_a_lambda(self, tmp_path):
        speed = "(lambda: 0.5 + 0.2*sin(pi*x))()"
        path = write_cfg(tmp_path, TestCLI.TRANSPORT_A.format(a=speed))
        out = tmp_path / "o"
        assert main(["transport", "--config", path, "--out-dir", str(out)]) == 0
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "solution.csv" in listed


class TestCLI:
    # a small transport run whose speed is the expression {a}
    TRANSPORT_A = """
[meta]
schema_version = 1
[model]
kind = transport
[region]
kappa = 1.0
horizon = 0.4
speed_bound = 1.0
nx = 21
nt = 21
[transport]
a = {a}
u0 = sin(pi*x)
"""

    def test_kl_table_values(self, tmp_path):
        out = str(tmp_path / "kt")
        assert main(["kl-table", "--ell", "1.0", "--terms", "3", "--out-dir", out]) == 0
        rows = (tmp_path / "kt" / "kl_table.csv").read_text().splitlines()
        assert rows[0] == "k,alpha_k,c_k,alpha_star_k,c_star_k"
        assert len(rows) == 4
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(oracle.ALPHA1_ELL1, abs=1e-8)
        assert float(first[2]) == pytest.approx(oracle.C1_ELL1, abs=1e-4)
        assert float(first[2]) == pytest.approx(1.1494, abs=1e-4)

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[meta]\nschema_version = 1\n[model]\nkind = gauss\n")
        code = main(["propagate", "--config", path, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "propagation.samples" in err

    def test_missing_config_flag(self, tmp_path):
        assert main(["propagate", "--out-dir", str(tmp_path / "o")]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        assert main(["propagate", "--config", path, "--seed", "-1",
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_speed_bound_violation_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, """
[meta]
schema_version = 1
[model]
kind = transport
[region]
kappa = 1.0
horizon = 0.4
speed_bound = 1.0
nx = 41
nt = 41
[transport]
a = 2.0
u0 = sin(pi*x)
""")
        assert main(["transport", "--config", path, "--out-dir", str(tmp_path / "o")]) == 4

    def test_speed_past_its_bound_only_off_t_zero_exit_code(self, tmp_path, capsys):
        # a = 0.5 <= speed_bound at t = 0, and 1.3 at |t| = horizon
        path = write_cfg(tmp_path, """
[meta]
schema_version = 1
[model]
kind = transport
[region]
kappa = 1.0
horizon = 0.4
speed_bound = 1.0
nx = 41
nt = 41
[transport]
a = 0.5 + 5*t**2
u0 = sin(pi*x)
""")
        out = tmp_path / "o"
        assert main(["transport", "--config", path, "--out-dir", str(out)]) == 4
        assert "bound violation: |a| reaches 1.3" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    @pytest.mark.parametrize("ell", ["inf", "nan", "0", "-1"])
    def test_ell_flag_must_be_finite_and_positive(self, tmp_path, capsys, ell):
        out = tmp_path / "o"
        assert main(["kl-table", "--ell", ell, "--terms", "3", "--out-dir", str(out)]) == 2
        assert "config error: --ell: must be a finite number > 0" in capsys.readouterr().err
        assert not (out / "kl_table.csv").exists()

    @pytest.mark.parametrize("paths", ["0", "-2"])
    def test_paths_flag_must_be_at_least_one(self, tmp_path, capsys, paths):
        out = tmp_path / "o"
        assert main(["sample-field", "--config", "wave_point", "--paths", paths,
                     "--out-dir", str(out)]) == 2
        assert f"config error: --paths: must be >= 1, got {paths}" in capsys.readouterr().err
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("points", ["-5", "0", "1"])
    def test_grid_points_flag_must_be_at_least_two(self, tmp_path, capsys, points):
        out = tmp_path / "o"
        assert main(["sample-field", "--config", "wave_point", "--grid-points", points,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --grid-points: must be >= 2, got {points}" in err
        assert not (out / "field.csv").exists()

    STRONG_REACTION = """
[meta]
schema_version = 1
[model]
kind = transport
[region]
kappa = 1.0
horizon = 0.4
speed_bound = 0.0
nx = 31
nt = {nt}
[transport]
a = 0.0
f = 40.0
u0 = cos(x)
"""

    def test_strong_reaction_is_the_trapezoid_recursion(self, tmp_path):
        # the solution grows to 5.6e7; at rest, each level is the last one
        # times (1 + f dt/2) / (1 - f dt/2)
        path = write_cfg(tmp_path, self.STRONG_REACTION.format(nt=31))
        out = tmp_path / "o"
        assert main(["transport", "--config", path, "--out-dir", str(out)]) == 0
        x, t, u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1).T
        f, dt = 40.0, 0.8 / 30
        growth = (1.0 + 0.5 * f * dt) / (1.0 - 0.5 * f * dt)
        for k in range(16):
            level = np.abs(t - k * dt) < 1e-9
            exact = np.cos(x[level]) * growth**k
            assert np.abs(u[level] - exact).max() <= 1e-12 * np.abs(exact).max()
        assert "picard_sweeps" not in json.loads((out / "manifest.json").read_text())

    def test_transport_step_too_long_exit_code(self, tmp_path, capsys):
        # dt = 0.2, so a node's own trapezoid term has 1 - w*f = 1 - 0.1*40 = -3
        path = write_cfg(tmp_path, self.STRONG_REACTION.format(nt=5))
        assert main(["transport", "--config", path, "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: transport step at t = 0.2 has 1 - w*f = -3 <= 0" in err

    def test_gauss_propagate_rerun_is_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["propagate", "--config", path, "--out-dir", out_a]) == 0
        assert main(["propagate", "--config", path, "--out-dir", out_b]) == 0
        for name in ("pbox.csv", "intervals.csv", "mean_field.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_propagate_outputs_and_manifest(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        out = tmp_path / "run"
        assert main(["propagate", "--config", path, "--out-dir", str(out)]) == 0
        pbox = (out / "pbox.csv").read_text().splitlines()
        assert pbox[0] == "b,f_lower,f_upper"
        assert len(pbox) == 42  # header + configured threshold count
        data = np.loadtxt(pbox[1:], delimiter=",")
        assert np.all(data[:, 1] <= data[:, 2])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "propagate"
        assert manifest["seed"] == 7
        assert manifest["failure_count"] == 0
        assert "config_sha256" in manifest and "stage_seconds" in manifest
        assert (out / "pbox.svg").exists() and (out / "slice.svg").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        out_a, out_b = str(tmp_path / "s7"), str(tmp_path / "s8")
        assert main(["propagate", "--config", path, "--out-dir", out_a]) == 0
        assert main(["propagate", "--config", path, "--seed", "8", "--out-dir", out_b]) == 0
        a = (tmp_path / "s7" / "intervals.csv").read_bytes()
        b = (tmp_path / "s8" / "intervals.csv").read_bytes()
        assert a != b

    def test_json_format(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        out = tmp_path / "j"
        assert main(["propagate", "--config", path, "--format", "json",
                     "--out-dir", str(out)]) == 0
        payload = json.loads((out / "pbox.json").read_text())
        assert payload["columns"] == ["b", "f_lower", "f_upper"]
        assert not (out / "pbox.csv").exists()

    def test_compare_command(self, tmp_path, capsys):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", path, "--out-dir", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "b,f_lower,f_low,f_upp,f_upper,chain_ok"
        table = np.loadtxt(lines[1:], delimiter=",")
        assert np.all(table[:, 5] == 1.0)
        assert "chain holds" in capsys.readouterr().out

    def test_compare_exits_3_when_the_chain_is_violated(self, tmp_path, capsys, monkeypatch):
        real_compare_bounds = cli.compare_bounds

        def violated(rs, pm):
            return dataclasses.replace(real_compare_bounds(rs, pm), violations=5)

        monkeypatch.setattr(cli, "compare_bounds", violated)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", write_cfg(tmp_path, GAUSS_SMALL),
                     "--out-dir", str(out)]) == 3
        assert "ordering chain violated at 5 thresholds" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["violations"], manifest["exit_code"]) == (5, 3)
        assert manifest["outputs"] == ["compare.csv"] and (out / "compare.csv").is_file()

    def test_manifest_that_cannot_be_written_is_a_warning(self, tmp_path, capsys):
        # a directory where the manifest's temporary file goes
        out = tmp_path / "mo"
        (out / "manifest.json.tmp").mkdir(parents=True)
        path = write_cfg(tmp_path, GAUSS_SMALL)
        assert main(["propagate", "--config", path, "--out-dir", str(out)]) == 0
        assert "warning: could not write manifest: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        for name in ("pbox.csv", "intervals.csv", "mean_field.csv"):
            assert (out / name).is_file()

    def test_compare_manifest_counts_failed_samples(self, tmp_path, monkeypatch):
        class FailingQoI(QoISpec):
            def build(self):
                return FailingModel({2})

        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        monkeypatch.setattr(cli, "_build_qoi",
                            lambda cfg: (FailingQoI("failing", (), {}), grid))
        cfg = tmp_path / "failing.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[model]\nkind = gauss\n"
                       "[propagation]\nsamples = 200\nseed = 0\n")
        for command in ("propagate", "compare"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["failure_count"], manifest["n_samples"],
                    manifest["grid_points"]) == (1, 200, 3), command

    def test_sample_field_and_preset_resolution(self, tmp_path):
        out = tmp_path / "sf"
        cfg = write_cfg(tmp_path, """
[meta]
schema_version = 1
[model]
kind = elliptic
[field]
sigma = 1.0
ell = 1.0
m_terms = 20
""")
        assert main(["sample-field", "--config", cfg, "--seed", "3",
                     "--paths", "4", "--out-dir", str(out)]) == 0
        header = (out / "field.csv").read_text().splitlines()[0]
        assert header == "x,q_0,q_1,q_2,q_3"
        assert (out / "field.svg").exists()

    def test_out_dir_named_like_the_preset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["kl-table", "--config", "membrane", "--ell", "1.0",
                     "--out-dir", "membrane"]) == 0
        manifest = json.loads((tmp_path / "membrane" / "manifest.json").read_text())
        assert manifest["config_path"].endswith(os.path.join("presets", "membrane.cfg"))
        assert (tmp_path / "membrane" / "kl_table.csv").is_file()

    @pytest.mark.parametrize("target", ["afile", os.path.join("afile", "sub")])
    def test_out_dir_that_cannot_be_a_directory(self, tmp_path, capsys, target):
        # a file, or a path under a file: a configuration error, not a traceback
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / target)
        assert main(["compare", "--config", "gauss_family", "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"config error: --out-dir {out!r}: cannot create the output directory" in err
        assert (tmp_path / "afile").read_text() == ""

    def test_data_file_that_cannot_be_written(self, tmp_path, capsys):
        # a directory where pbox.csv goes: a configuration error naming the
        # file, not a traceback, and the manifest is still written
        out = tmp_path / "fo"
        (out / "pbox.csv").mkdir(parents=True)
        path = write_cfg(tmp_path, GAUSS_SMALL)
        assert main(["propagate", "--config", path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write output file {out / 'pbox.csv'}: " in err
        assert "Traceback" not in err
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    def test_plot_that_cannot_be_written_is_a_warning(self, tmp_path, capsys):
        out = tmp_path / "fo"
        (out / "pbox.svg").mkdir(parents=True)
        path = write_cfg(tmp_path, GAUSS_SMALL)
        assert main(["propagate", "--config", path, "--out-dir", str(out)]) == 0
        assert "warning: pbox plot failed: " in capsys.readouterr().err
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "pbox.svg" not in outputs and "slice.svg" in outputs

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\x00\xff\xfe")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.problems[0].startswith(f"config file {path} is not UTF-8 text")
        assert main(["compare", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"config error: config file {path} is not UTF-8" in capsys.readouterr().err

    def test_directory_is_not_a_config_file(self, tmp_path, capsys):
        folder = tmp_path / "scenario_dir"
        folder.mkdir()
        assert main(["propagate", "--config", str(folder),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.slow
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_readme_command_runs(self, tmp_path, argv):
        argv = list(argv)
        argv[argv.index("--out-dir") + 1] = str(tmp_path / "out")
        assert main(argv) == 0

    def test_readme_lists_every_command(self):
        assert sorted(argv[0] for argv in readme_commands()) == sorted(cli._COMMANDS)

    @pytest.mark.parametrize("script", sorted(SCRIPT_COMMANDS))
    def test_script_gives_each_command_its_own_manifest(self, tmp_path, monkeypatch, script):
        path = os.path.join(SCRIPTS, script)
        monkeypatch.setattr(sys, "argv", [path, str(tmp_path)])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(path, run_name="__main__")
        assert done.value.code == 0
        for command in SCRIPT_COMMANDS[script]:
            out = tmp_path / command
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
            data_files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert sorted(manifest["outputs"]) == data_files

    def test_python_dash_m_runs_the_command_line(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "randset_pde", "kl-table", "--ell", "1.0", "--terms", "3",
             "--out-dir", str(tmp_path / "out")],
            cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        rows = (tmp_path / "out" / "kl_table.csv").read_text().splitlines()
        assert rows[0].startswith("k,") and len(rows) == 4

    def test_presets_load_from_a_zipped_package(self, tmp_path):
        # a preset inside a zip is no real file: it must be read through resources
        package = os.path.dirname(cli.__file__)
        archive = tmp_path / "randset_pde.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for root, _, files in os.walk(package):
                for name in files:
                    if name.endswith((".py", ".cfg")):
                        full = os.path.join(root, name)
                        zf.write(full, os.path.relpath(full, os.path.dirname(package)))
        code = ("import sys; from randset_pde import cli; sys.exit(cli.main(["
                "'kl-table', '--config', 'membrane', '--ell', '1.0', '--out-dir', 'out']))")
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(archive)})
        assert done.returncode == 0, done.stderr
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_path"].startswith(str(archive))
        with open(os.path.join(PRESETS, "membrane.cfg"), "rb") as fh:
            assert manifest["config_sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_import_and_light_commands_load_no_scipy_submodule(self, tmp_path):
        # scipy.special and scipy.sparse each load scipy's array-API layer, a
        # third of a second; only a model that builds sparse matrices may
        # load scipy.sparse, and it does so in prepare
        gauss = write_cfg(tmp_path, GAUSS_SMALL, name="gauss.cfg")
        wave = TestPointSnapping._wave_point(tmp_path, 41, 41)
        code = """if True:
            import json, sys
            from randset_pde import cli
            from randset_pde.fem import build_mesh
            from randset_pde.models import EllipticModel
            from randset_pde.propagation import ParameterGrid
            from randset_pde.randomsets import Interval

            def loaded():
                return sorted(m for m in ("scipy.special", "scipy.sparse") if m in sys.modules)

            stages = {"import": loaded()}
            assert cli.main(["compare", "--config", sys.argv[1], "--out-dir", "g"]) == 0
            assert cli.main(["propagate", "--config", sys.argv[2], "--out-dir", "w"]) == 0
            stages["commands"] = loaded()
            model = EllipticModel(mesh=build_mesh("l_shape", 6, 6), m_pairs=4, slice_x2=0.3333)
            model.prepare(ParameterGrid.regular([Interval(0.5, 1.5)], [3]))
            stages["prepare"] = loaded()
            print(json.dumps(stages))
        """
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-c", code, gauss, wave], cwd=tmp_path,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        stages = json.loads(done.stdout.splitlines()[-1])
        assert stages["import"] == [] and stages["commands"] == []
        assert "scipy.sparse" in stages["prepare"]

    def test_manifest_records_the_package_import_time(self, tmp_path):
        seconds = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["kl-table", "--config", "membrane", "--ell", "1.0",
                         "--out-dir", str(out)]) == 0
            seconds.append(json.loads((out / "manifest.json").read_text())["import_seconds"])
        # paid once per process: repeat calls report the same value
        assert seconds[0] >= 0.0 and seconds[0] == seconds[1]

    @pytest.mark.parametrize("command", ["elliptic", "sample-field"])
    def test_membrane_without_ell_uses_the_midpoint(self, tmp_path, command):
        out = tmp_path / command
        assert main([command, "--config", "membrane", "--seed", "1",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ell"] == 1.0    # midpoint of [0.5, 1.5]

    def test_sample_field_samples_the_model_field(self, tmp_path):
        out = tmp_path / "sf"
        assert main(["sample-field", "--config", "membrane", "--seed", "4", "--paths", "2",
                     "--grid-points", "11", "--out-dir", str(out)]) == 0
        table = np.loadtxt((out / "field.csv").read_text().splitlines()[1:], delimiter=",")
        xs = table[:, 0]
        assert xs[0] == 0.0 and xs[-1] == 1.0
        # q1 of the membrane model at ell = 1 on [0, 1]: 130 pairs of each sample
        params = ExpCovarianceParams(1.0, 1.0, Interval(0.0, 1.0))
        basis = kl_eigenpairs(params, 130)
        for k in range(2):
            q1 = FieldEvaluator(basis, GaussianDraw(standard_normals(4, k, 520)[:260]), params)
            np.testing.assert_array_equal(table[:, 1 + k], q1.value(xs))

    def test_consecutive_calls_parse_independently(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sample-field", "--config", "membrane", "--seed", "4", "--paths", "2",
                     "--grid-points", "11", "--format", "json", "--out-dir", str(first)]) == 0
        assert main(["kl-table", "--ell", "1.0", "--terms", "3",
                     "--out-dir", str(tmp_path / "kl")]) == 0
        assert main(["sample-field", "--config", "membrane", "--out-dir", str(second)]) == 0
        rows = (second / "field.csv").read_text().splitlines()
        assert rows[0] == "x,q_0,q_1,q_2,q_3,q_4"     # --paths 5 and --grid-points 201
        assert len(rows) == 1 + 201
        manifest = json.loads((second / "manifest.json").read_text())
        assert manifest["argv_overrides"] == {"seed": None, "workers": None, "format": None}
        assert manifest["seed"] == 42    # the preset's seed, not the first call's 4

    def test_elliptic_single_run(self, tmp_path):
        cfg = write_cfg(tmp_path, ELLIPTIC_SINGLE)
        out = tmp_path / "el"
        assert main(["elliptic", "--config", cfg, "--seed", "1",
                     "--out-dir", str(out)]) == 0
        nodal = (out / "nodal.csv").read_text().splitlines()
        assert nodal[0] == "x1,x2,u"
        sl = (out / "slice.csv").read_text().splitlines()
        assert sl[0] == "x1,value"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cg_iterations"] > 0

    def test_named_preset_lookup(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["transport", "--config", "transport_demo",
                     "--out-dir", str(out)]) == 0
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header == "x,t,u"

    def test_slice_plot_path_counts(self, tmp_path):
        # scalar quantity: one member curve over grid indices + 2 envelope lines
        path = write_cfg(tmp_path, GAUSS_SMALL)
        out = tmp_path / "plots"
        assert main(["propagate", "--config", path, "--out-dir", str(out)]) == 0
        svg = (out / "slice.svg").read_text()
        assert svg.count('stroke="#b03030"') == 2
        assert svg.count('stroke="#7090c0"') == 1

    def test_elliptic_slice_is_the_model_evaluation(self, tmp_path):
        out = tmp_path / "el"
        assert main(["elliptic", "--config", write_cfg(tmp_path, ELLIPTIC_SINGLE),
                     "--seed", "3", "--out-dir", str(out)]) == 0
        rows = (out / "slice.csv").read_text().splitlines()[1:]
        written = np.array([float(row.split(",")[1]) for row in rows])
        model = EllipticModel(mesh=build_mesh("l_shape", 10, 10), m_pairs=30, sigma=1.0,
                              a_min=0.1, slice_x2=0.4)
        np.testing.assert_array_equal(written, model.evaluate(model.draw(3, 0), (1.0,)))

    def test_elliptic_field_plot_shows_the_sampled_fields(self, tmp_path, monkeypatch):
        plotted = {}
        line_plot = cli.line_plot

        def capture(series, title="", **kwargs):
            plotted[title] = series
            return line_plot(series, title=title, **kwargs)

        monkeypatch.setattr(cli, "line_plot", capture)
        out = tmp_path / "membrane"
        assert main(["propagate", "--config", write_cfg(tmp_path, MEMBRANE_SMALL),
                     "--out-dir", str(out)]) == 0
        assert (out / "field.svg").exists()
        series = plotted["coefficient field sample trajectories"]
        assert len(series) == 3
        # q1 of samples 0..2 at the midpoint of [ell_min, ell_max], on [0, 1]
        params = ExpCovarianceParams(1.0, 1.0, Interval(0.0, 1.0))
        basis = kl_eigenpairs(params, 4)
        for k, s in enumerate(series):
            xs = np.asarray(s["x"])
            assert xs[0] == 0.0 and xs[-1] == 1.0
            q1 = FieldEvaluator(basis, GaussianDraw(standard_normals(5, k, 16)[:8]), params)
            np.testing.assert_array_equal(s["y"], q1.value(xs))

    def test_elliptic_slice_outside_unit_square_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MEMBRANE_SMALL.replace("x2 = 0.3333", "x2 = 1.5"))
        assert main(["propagate", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "slice ordinate 1.5 outside the unit square" in capsys.readouterr().err

    @pytest.mark.parametrize("x1, x2", [(0.9, 0.9), (1.5, 0.2)])
    def test_elliptic_node_outside_domain_exit_code(self, tmp_path, capsys, x1, x2):
        text = MEMBRANE_SMALL.replace("kind = elliptic_slice\nx2 = 0.3333",
                                      f"kind = elliptic_node\nx1 = {x1}\nx2 = {x2}")
        path = write_cfg(tmp_path, text)
        assert main(["propagate", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "outside the l_shape domain" in capsys.readouterr().err

    def test_membrane_slice_row_is_accepted_and_recorded(self, tmp_path):
        # x2 = 0.4444 lies 0.08% of a spacing from row 8 of 18
        text = (MEMBRANE_SMALL.replace("nx = 6\nny = 6", "nx = 18\nny = 18")
                .replace("x2 = 0.3333", "x2 = 0.4444"))
        out = tmp_path / "o"
        assert main(["propagate", "--config", write_cfg(tmp_path, text),
                     "--out-dir", str(out)]) == 0
        point = json.loads((out / "manifest.json").read_text())["point"]
        assert point["requested"] == [0.4444]
        np.testing.assert_allclose(point["solved"], [8 / 18], rtol=0, atol=1e-15)

    def test_elliptic_node_is_recorded_in_the_manifest(self, tmp_path):
        text = MEMBRANE_SMALL.replace("kind = elliptic_slice\nx2 = 0.3333",
                                      "kind = elliptic_node\nx1 = 0.3333\nx2 = 0.5")
        out = tmp_path / "o"
        assert main(["propagate", "--config", write_cfg(tmp_path, text),
                     "--out-dir", str(out)]) == 0
        point = json.loads((out / "manifest.json").read_text())["point"]
        assert point["requested"] == [0.3333, 0.5]
        np.testing.assert_allclose(point["solved"], [2 / 6, 0.5], rtol=0, atol=1e-15)

    def test_elliptic_command_records_its_slice(self, tmp_path):
        out = tmp_path / "el"
        assert main(["elliptic", "--config", write_cfg(tmp_path, ELLIPTIC_SINGLE),
                     "--out-dir", str(out)]) == 0
        point = json.loads((out / "manifest.json").read_text())["point"]
        assert point["requested"] == [0.4]
        np.testing.assert_allclose(point["solved"], [0.4], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("command, qoi, message", [
        ("propagate", "kind = elliptic_slice\nx2 = 0.41",
         "slice x2 (0.41) is not a node of the 6x6 mesh: the nearest node is (0.333333), "
         "0.46 of a spacing away (at most 0.01 allowed)"),
        ("compare", "kind = elliptic_node\nx1 = 0.2\nx2 = 0.3333",
         "node (0.2, 0.3333) is not a node of the 6x6 mesh: the nearest node is "
         "(0.166667, 0.333333), 0.2 of a spacing away (at most 0.01 allowed)"),
    ])
    def test_elliptic_point_off_the_mesh_exits_2(self, tmp_path, capsys, command, qoi,
                                                 message):
        text = MEMBRANE_SMALL.replace("kind = elliptic_slice\nx2 = 0.3333", qoi)
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("elliptic", "wave_point"), ("elliptic", "gauss_family"), ("transport", "membrane"),
        ("transport", "wave_dalembert"), ("wave", "transport_point")])
    def test_single_solve_commands_need_their_model_kind(self, tmp_path, capsys, command,
                                                         config):
        out = tmp_path / "o"
        assert main([command, "--config", config, "--out-dir", str(out)]) == 2
        assert f"model.kind: must be '{command}' for the {command} command" \
            in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_elliptic_command_off_the_mesh_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, ELLIPTIC_SINGLE.replace("x2 = 0.4", "x2 = 0.45"))
        assert main(["elliptic", "--config", path, "--out-dir", str(tmp_path / "el")]) == 2
        assert "slice x2 (0.45) is not a node of the 10x10 mesh" in capsys.readouterr().err


def _row_fmt(v) -> str:
    """A CSV cell as the row-by-row writer formatted it."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def row_by_row_table(out_dir, name, header, rows):
    """CSV and JSON bytes of one table written a row at a time through
    csv.writer, the writer that cli._write_table's templates replace."""
    rows = [list(row) for row in rows]
    with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_row_fmt(v) for v in row])
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"columns": list(header),
                   "rows": [[float(v) for v in row] for row in rows]}, fh, indent=1)
        fh.write("\n")
    return [pathlib.Path(out_dir, f"{name}.{ext}").read_bytes() for ext in ("csv", "json")]


class TestWriteTable:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e16 + 2.0, 0.1, 1 / 3,
               -2.5e-300, 1.7976931348623157e308, 123456789.125, -7.0]

    def _both(self, tmp_path, header, columns, rows):
        new_dir, old_dir = tmp_path / "new", tmp_path / "old"
        new_dir.mkdir()
        old_dir.mkdir()
        files = cli._write_table(str(new_dir), "t", header, columns, ("csv", "json"))
        assert files == ["t.csv", "t.json"]
        new = [(new_dir / f).read_bytes() for f in files]
        return new, row_by_row_table(str(old_dir), "t", header, rows)

    def test_bytes_equal_the_row_by_row_writer(self, tmp_path):
        n = len(self.SPECIAL)
        floats = np.array(self.SPECIAL)
        int64s = np.arange(n, dtype=np.int64) * (2**40 + 3) - 5
        ints = list(range(-3, n - 3))                   # Python ints
        lo = np.linspace(0.0, 1.0, n)
        fl = lo + np.where(np.arange(n) % 3 == 0, -0.1, 0.1)   # breaks the chain at i % 3 == 0
        fu, up = fl + 0.05, fl + 0.05
        up[[2, 5]] = np.nan                                  # and where a value is NaN
        chain_ok = ((lo <= fl) & (fl <= fu) & (fu <= up)).astype(int)
        singles = (np.arange(n) / 7 - 0.5).astype(np.float32)
        columns = [floats, int64s, ints, chain_ok, singles]
        rows = [(a, b, c, int(w <= x <= y <= z), e)
                for a, b, c, w, x, y, z, e in zip(floats, int64s, ints, lo, fl, fu, up,
                                                 singles)]
        assert 0 < chain_ok.sum() < n
        (new_csv, new_json), (old_csv, old_json) = self._both(
            tmp_path, ["f", "i64", "int", "chain_ok", "f32"], columns, rows)
        assert new_csv == old_csv
        assert new_json == old_json
        assert b"nan,-5,-3," in new_csv and b"\r\n" in new_csv and b"NaN" in new_json

    def test_header_only_table(self, tmp_path):
        columns = [np.array([], dtype=float), np.array([], dtype=np.int64)]
        (new_csv, new_json), (old_csv, old_json) = self._both(
            tmp_path, ["b", "sample_index"], columns, [])
        assert new_csv == old_csv == b"b,sample_index\r\n"
        assert new_json == old_json

    def test_columns_must_match_the_header(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_table(str(tmp_path), "t", ["a", "b"], [np.zeros(3)], ("csv",))
        with pytest.raises(ValueError):
            cli._write_table(str(tmp_path), "t", ["a", "b"], [np.zeros(3), np.zeros(2)],
                             ("csv",))

    def test_compare_json_matches_its_csv(self, tmp_path):
        path = write_cfg(tmp_path, GAUSS_SMALL)
        for fmt in ("csv", "json"):
            assert main(["compare", "--config", path, "--format", fmt,
                         "--out-dir", str(tmp_path / fmt)]) == 0
        with open(tmp_path / "csv" / "compare.csv", newline="") as fh:
            lines = list(csv.reader(fh))
        payload = json.loads((tmp_path / "json" / "compare.json").read_text())
        assert payload["columns"] == lines[0]
        assert payload["rows"] == [[float(v) for v in line] for line in lines[1:]]
        assert {row[-1] for row in payload["rows"]} == {1.0}
