"""Configuration parsing and the command-line front end."""

import json
import os
import re
import shlex

import numpy as np
import pytest

import _oracles as oracle
from randset_pde import cli
from randset_pde.cli import main
from randset_pde.config import compile_expression, parse_config, require
from randset_pde.errors import ConfigError
from randset_pde.fem import build_mesh
from randset_pde.fields import ExpCovarianceParams, FieldEvaluator, GaussianDraw, kl_eigenpairs
from randset_pde.models import EllipticModel
from randset_pde.propagation import ParameterGrid, QoISpec
from randset_pde.randomsets import Interval
from randset_pde.sampling import standard_normals
from test_propagation import FailingModel

PRESETS = os.path.join(os.path.dirname(__file__), "..", "src", "randset_pde", "presets")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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
                     "wave_dalembert.cfg"):
            cfg = parse_config(os.path.join(PRESETS, name))
            assert cfg.schema_version == 1

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


class TestCLI:
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

    def test_picard_divergence_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, """
[meta]
schema_version = 1
[model]
kind = transport
[region]
kappa = 1.0
horizon = 0.4
speed_bound = 0.0
nx = 31
nt = 31
[transport]
a = 0.0
f = 40.0
u0 = cos(x)
""")
        assert main(["transport", "--config", path, "--out-dir", str(tmp_path / "o")]) == 3

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

    @pytest.mark.slow
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_readme_command_runs(self, tmp_path, argv):
        argv = list(argv)
        argv[argv.index("--out-dir") + 1] = str(tmp_path / "out")
        assert main(argv) == 0

    def test_readme_lists_every_command(self):
        assert sorted(argv[0] for argv in readme_commands()) == sorted(cli._COMMANDS)

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
