"""Double-loop propagation: hulls, envelopes, ordering chain, determinism."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from randset_pde import cli, fem, models, propagation
from randset_pde.characteristics import domain_of_determinacy, reconstruct_displacement
from randset_pde.errors import (
    ComparisonError,
    ConfigError,
    DomainError,
    NumericalError,
    PropagationRunError,
)
from randset_pde.fem import build_mesh
from randset_pde.fields import FieldEvaluator, FieldTable
from randset_pde.models import (
    EllipticModel,
    TransportPointModel,
    WavePointModel,
    build_model,
)
from randset_pde.propagation import (
    GaussianFamilyModel,
    ParameterGrid,
    PointwiseBlocks,
    QoISpec,
    compare_bounds,
    interval_mean_field,
    parametric_from_random_set,
    propagate_parametric,
    propagate_random_set,
)
from randset_pde.randomsets import Interval

FIG1_DIMS = [Interval(-1.0, 1.0), Interval(1.0, 2.0)]


class ConstantModel:
    """u == value for every draw and parameter."""

    output_labels = None
    pbox_component = 0

    def __init__(self, value=7.0):
        self.value = value

    def prepare(self, grid):
        pass

    def draw(self, seed, index):
        return index

    def evaluate(self, draw, lam):
        return np.array([self.value])


class FailingModel(ConstantModel):
    """Fails (numerically) for a chosen set of sample indices."""

    def __init__(self, bad_samples):
        super().__init__()
        self.bad_samples = set(bad_samples)

    def evaluate(self, draw, lam):
        if draw in self.bad_samples:
            raise NumericalError("synthetic failure")
        return super().evaluate(draw, lam)


class TestParameterGrid:
    def test_regular_grid(self):
        grid = ParameterGrid.regular(FIG1_DIMS, [11, 11])
        assert grid.m == 121
        assert grid.points.shape == (121, 2)
        assert grid.points[:, 0].min() == -1.0 and grid.points[:, 0].max() == 1.0
        assert grid.points[:, 1].min() == 1.0 and grid.points[:, 1].max() == 2.0

    def test_singleton_dimension_uses_midpoint(self):
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [1])
        assert grid.points[0, 0] == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            ParameterGrid.regular([], [])
        with pytest.raises(DomainError):
            ParameterGrid.regular([Interval(0, 1)], [0])


class TestRandomSetLoop:
    def test_singleton_grid_degenerates(self):
        grid = ParameterGrid.regular([Interval(-1, 1), Interval(1, 2)], [1, 1])
        rs = propagate_random_set(GaussianFamilyModel(), grid, 200, seed=1)
        assert np.array_equal(rs.lowers, rs.uppers)
        assert np.array_equal(rs.pbox.f_lower, rs.pbox.f_upper)

    def test_envelope_against_analytic_cdf(self, gauss_run):
        rs = gauss_run
        b0 = int(np.argmin(np.abs(rs.thresholds)))
        assert rs.thresholds[b0] == 0.0
        tol = 3.0 * np.sqrt(oracle.PHI_AT_1 * oracle.PHI_AT_M1 / rs.n_samples)
        assert abs(rs.pbox.f_upper[b0] - oracle.PHI_AT_1) <= tol
        assert abs(rs.pbox.f_lower[b0] - oracle.PHI_AT_M1) <= tol

    def test_nested_grid_hull_containment(self):
        # the 3-point axes are sub-grids of the 11-point axes
        fine = ParameterGrid.regular(FIG1_DIMS, [11, 11])
        coarse = ParameterGrid.regular(FIG1_DIMS, [3, 3])
        rs_f = propagate_random_set(GaussianFamilyModel(), fine, 300, seed=5)
        rs_c = propagate_random_set(GaussianFamilyModel(), coarse, 300, seed=5)
        assert np.all(rs_f.lowers <= rs_c.lowers)
        assert np.all(rs_f.uppers >= rs_c.uppers)

    def test_grid_refinement_widens_pbox(self):
        fine = ParameterGrid.regular(FIG1_DIMS, [11, 11])
        coarse = ParameterGrid.regular(FIG1_DIMS, [3, 3])
        thresholds = np.linspace(-6, 6, 101)
        rs_f = propagate_random_set(GaussianFamilyModel(), fine, 300, seed=5,
                                    thresholds=thresholds)
        rs_c = propagate_random_set(GaussianFamilyModel(), coarse, 300, seed=5,
                                    thresholds=thresholds)
        assert np.all(rs_f.pbox.f_lower <= rs_c.pbox.f_lower)
        assert np.all(rs_f.pbox.f_upper >= rs_c.pbox.f_upper)

    def test_per_sample_membership(self):
        grid = ParameterGrid.regular(FIG1_DIMS, [5, 5])
        rs = propagate_random_set(GaussianFamilyModel(), grid, 100, seed=9)
        assert np.all(rs.per_lambda_values >= rs.lowers[:, None, :])
        assert np.all(rs.per_lambda_values <= rs.uppers[:, None, :])

        # a NaN is the one value that could break membership; it fails its sample
        class NaNModel(ConstantModel):
            def evaluate(self, draw, lam):
                return np.array([np.nan if (draw, lam) == (3, (0.5,)) else draw + lam[0]])

        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        rs = propagate_random_set(NaNModel(), grid, 200, seed=0)
        assert [(f.sample_index, f.grid_index) for f in rs.failures] == [(3, 1)]
        assert 3 not in rs.sample_indices and np.all(np.isfinite(rs.per_lambda_values))
        assert np.all(rs.per_lambda_values >= rs.lowers[:, None, :])
        assert np.all(rs.per_lambda_values <= rs.uppers[:, None, :])

    def test_seed_determinism(self):
        grid = ParameterGrid.regular(FIG1_DIMS, [5, 5])
        a = propagate_random_set(GaussianFamilyModel(), grid, 64, seed=3)
        b = propagate_random_set(GaussianFamilyModel(), grid, 64, seed=3)
        assert np.array_equal(a.per_lambda_values, b.per_lambda_values)
        assert np.array_equal(a.pbox.f_lower, b.pbox.f_lower)

    def test_degenerate_default_thresholds(self):
        # a constant output still yields a valid padded threshold grid
        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        rs = propagate_random_set(ConstantModel(7.0), grid, 20, seed=1)
        assert rs.thresholds[0] < 7.0 < rs.thresholds[-1]
        assert rs.pbox.f_lower[0] == 0.0 and rs.pbox.f_upper[-1] == 1.0

    def test_failure_budget(self):
        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        # one failure out of 200 stays under the 1% budget and is excluded
        rs = propagate_random_set(FailingModel({7}), grid, 200, seed=0)
        assert rs.per_lambda_values.shape[0] == 199
        assert len(rs.failures) == 1
        assert rs.failures[0].sample_index == 7
        np.testing.assert_array_equal(rs.sample_indices, np.delete(np.arange(200), 7))
        with pytest.raises(PropagationRunError):
            propagate_random_set(FailingModel(set(range(5))), grid, 200, seed=0)
        # a run in which every sample fails gets the same budget error
        with pytest.raises(PropagationRunError, match="200 of 200 samples failed") as err:
            propagate_random_set(FailingModel(set(range(200))), grid, 200, seed=0)
        assert len(err.value.failures) == 200


class TestBlocks:
    N = 200

    @staticmethod
    def _run(model, grid, seed):
        rs = propagate_random_set(model, grid, TestBlocks.N, seed=seed)
        return rs.per_lambda_values, rs.sample_indices, rs.failures, rs.pbox

    @settings(max_examples=25, deadline=None)
    @given(block_size=st.integers(1, N))
    def test_outputs_do_not_depend_on_block_size(self, block_size):
        cases = [
            (GaussianFamilyModel(), ParameterGrid.regular(FIG1_DIMS, [4, 3]), 42),
            (ConstantModel(3.0), ParameterGrid.regular([Interval(0, 1)], [3]), 7),
            (FailingModel({13, 150}), ParameterGrid.regular([Interval(0, 1)], [3]), 7),
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "BLOCK_SIZE", self.N)
            reference = [self._run(*case) for case in cases]
            mp.setattr(propagation, "BLOCK_SIZE", block_size)
            for case, (values, samples, failures, pbox) in zip(cases, reference):
                got_values, got_samples, got_failures, got_pbox = self._run(*case)
                np.testing.assert_array_equal(got_values, values)
                np.testing.assert_array_equal(got_samples, samples)
                assert got_failures == failures
                np.testing.assert_array_equal(got_pbox.thresholds, pbox.thresholds)
                np.testing.assert_array_equal(got_pbox.f_lower, pbox.f_lower)
                np.testing.assert_array_equal(got_pbox.f_upper, pbox.f_upper)

    def test_gauss_block_is_the_per_point_path(self):
        model, grid = GaussianFamilyModel(), ParameterGrid.regular(FIG1_DIMS, [5, 4])
        values, failures = model.evaluate_block(model.draws(168, range(30)), grid.points)
        per_point = [[model.evaluate(model.draw(168, k), tuple(lam)) for lam in grid.points]
                     for k in range(30)]
        assert failures == {}
        np.testing.assert_array_equal(values, np.array(per_point))

    def test_membrane_block_matches_per_point_solves(self):
        mesh = build_mesh("l_shape", 18, 18)
        model = EllipticModel(mesh=mesh, m_pairs=130, sigma=1.0, a_min=0.1,
                              slice_x2=0.4444, pbox_x1=0.3333)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [11])
        model.prepare(grid)
        draws = model.draws(42, range(5))
        values, failures = model.evaluate_block(draws, grid.points)
        ref_values, ref_failures = PointwiseBlocks(model).evaluate_block(draws, grid.points)
        assert failures == ref_failures == {}
        np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=1e-12)

    def test_capped_solve_fails_its_sample_like_the_per_point_path(self, monkeypatch):
        # CG takes 29-32 iterations on these 18 systems; a cap of 31 stops
        # samples 0 and 3 at grid index 1 and no other system
        monkeypatch.setattr(models, "solve_cg", functools.partial(fem.solve_cg, max_iter=31))
        monkeypatch.setattr(models, "solve_cg_block",
                            functools.partial(fem.solve_cg_block, max_iter=31))
        model = EllipticModel(mesh=build_mesh("l_shape", 10, 10), m_pairs=30, sigma=1.0,
                              a_min=0.1, slice_x2=0.4)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        draws = model.draws(1, range(6))
        values, failures = model.evaluate_block(draws, grid.points)
        ref_values, ref_failures = PointwiseBlocks(model).evaluate_block(draws, grid.points)
        assert failures == ref_failures
        assert sorted(failures) == [0, 3]
        assert all(i == 1 and message.startswith("NonConvergenceError: CG did not reach")
                   and message.endswith(" in 31 iterations")
                   for i, message in failures.values())
        mates = [b for b in range(6) if b not in failures]
        assert np.all(np.isfinite(values[mates]))
        np.testing.assert_allclose(values[mates], ref_values[mates], rtol=0.0, atol=1e-12)

    def test_intervals_csv_rows_carry_sample_indices(self, tmp_path, monkeypatch):
        grid = ParameterGrid.regular([Interval(0, 1)], [3])

        class FailingQoI:
            def build(self):
                return FailingModel({2})

        monkeypatch.setattr(cli, "_build_qoi", lambda cfg: (FailingQoI(), grid))
        cfg = tmp_path / "failing.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[model]\nkind = gauss\n"
                       "[propagation]\nsamples = 200\nseed = 0\n")
        out = tmp_path / "out"
        assert cli.main(["propagate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = (out / "intervals.csv").read_text().splitlines()
        assert rows[0] == "sample_index,lower,upper"
        keys = [int(row.split(",")[0]) for row in rows[1:]]
        assert keys == [k for k in range(200) if k != 2]


class TestParametricLoop:
    def test_singleton_grid(self):
        grid = ParameterGrid.regular(FIG1_DIMS, [1, 1])
        pm = propagate_parametric(GaussianFamilyModel(), grid, 150, seed=2,
                                  thresholds=np.linspace(-5, 5, 51))
        assert np.array_equal(pm.f_low, pm.f_upp)

    def test_constant_model_is_unit_step(self):
        grid = ParameterGrid.regular([Interval(0, 1)], [4])
        thresholds = np.linspace(0, 10, 21)
        pm = propagate_parametric(ConstantModel(7.0), grid, 50, seed=0,
                                  thresholds=thresholds)
        expected = (thresholds >= 7.0).astype(float)
        np.testing.assert_array_equal(pm.f_low, expected)
        np.testing.assert_array_equal(pm.f_upp, expected)

    def test_envelopes_against_analytic_cdfs(self):
        grid = ParameterGrid.regular(FIG1_DIMS, [11, 11])
        thresholds = np.array([0.0])
        pm = propagate_parametric(GaussianFamilyModel(), grid, 10_000, seed=42,
                                  thresholds=thresholds)
        tol = 3.0 * np.sqrt(oracle.PHI_AT_1 * oracle.PHI_AT_M1 / 10_000)
        assert abs(pm.f_upp[0] - oracle.PHI_AT_1) <= tol
        assert abs(pm.f_low[0] - oracle.PHI_AT_M1) <= tol

    def test_envelope_converges_at_mc_rate(self):
        # the deviation from Phi(1) stays within 3 binomial SEs at both sizes
        grid = ParameterGrid.regular(FIG1_DIMS, [11, 11])
        thresholds = np.array([0.0])
        p, q = oracle.PHI_AT_1, oracle.PHI_AT_M1
        for n in (1000, 10_000):
            pm = propagate_parametric(GaussianFamilyModel(), grid, n, seed=31,
                                      thresholds=thresholds)
            tol = 3.0 * np.sqrt(p * q / n)
            assert abs(pm.f_upp[0] - p) <= tol
            assert abs(pm.f_low[0] - q) <= tol

    @pytest.mark.parametrize("case", ["gauss", "membrane"])
    def test_shared_draws_is_the_random_set_reduction(self, case):
        if case == "gauss":
            model, grid = GaussianFamilyModel(), ParameterGrid.regular(FIG1_DIMS, [5, 5])
        else:
            model = EllipticModel(mesh=build_mesh("l_shape", 6, 6), m_pairs=8,
                                  slice_x2=0.3333, pbox_x1=0.3333)
            grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        pm = propagate_parametric(model, grid, 20, seed=11, shared_draws=True)
        ref = parametric_from_random_set(propagate_random_set(model, grid, 20, seed=11))
        assert pm.shared_draws
        np.testing.assert_array_equal(pm.thresholds, ref.thresholds)
        np.testing.assert_array_equal(pm.per_lambda_ecdfs, ref.per_lambda_ecdfs)
        np.testing.assert_array_equal(pm.f_low, ref.f_low)
        np.testing.assert_array_equal(pm.f_upp, ref.f_upp)

    def test_independent_draws_mode(self):
        grid = ParameterGrid.regular(FIG1_DIMS, [3, 3])
        thresholds = np.linspace(-6, 6, 41)
        pm_shared = propagate_parametric(GaussianFamilyModel(), grid, 400, seed=1,
                                         thresholds=thresholds, shared_draws=True)
        pm_indep = propagate_parametric(GaussianFamilyModel(), grid, 400, seed=1,
                                        thresholds=thresholds, shared_draws=False)
        assert not pm_indep.shared_draws
        # different sampling, same law: envelopes agree loosely but not exactly
        assert np.max(np.abs(pm_shared.f_upp - pm_indep.f_upp)) < 0.15
        assert not np.array_equal(pm_shared.per_lambda_ecdfs, pm_indep.per_lambda_ecdfs)

    def test_independent_draws_survive_a_failure_at_one_point(self):
        stride = propagation._INDEPENDENT_STRIDE

        class IndexModel(FailingModel):
            """u = sample index; fails for the chosen draw keys."""

            def evaluate(self, draw, lam):
                super().evaluate(draw, lam)
                return np.array([float(draw % stride)])

        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        thresholds = np.arange(-0.5, 200.0)
        # grid point 1 draws its sample k from key 2 * stride + k
        pm = propagate_parametric(IndexModel({2 * stride + 5}), grid, 200, seed=0,
                                  thresholds=thresholds, shared_draws=False)
        assert [(f.sample_index, f.grid_index) for f in pm.failures] == [(5, 1)]
        everyone = np.arange(200)
        survivors = np.delete(everyone, 5)
        expected = [np.array([np.count_nonzero(s <= b) for b in thresholds]) / s.size
                    for s in (everyone, survivors, everyone)]
        np.testing.assert_array_equal(pm.per_lambda_ecdfs, np.stack(expected))
        np.testing.assert_array_equal(pm.f_low, np.min(expected, axis=0))
        np.testing.assert_array_equal(pm.f_upp, np.max(expected, axis=0))

    def test_independent_draws_errors_name_the_true_grid_point(self):
        stride = propagation._INDEPENDENT_STRIDE
        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        # samples 0-4 of grid point 1 (draw keys 2 * stride + k): 5 > 1% of 200
        model = FailingModel({2 * stride + k for k in range(5)})
        with pytest.raises(PropagationRunError, match="first: sample 0, grid point 1:") as info:
            propagate_parametric(model, grid, 200, seed=0, shared_draws=False)
        assert [(f.sample_index, f.grid_index) for f in info.value.failures] == \
            [(k, 1) for k in range(5)]


class TestCompareBounds:
    def test_chain_exact_on_gauss_toy(self, gauss_run):
        rs = gauss_run
        pm = parametric_from_random_set(rs)
        cmp_ = compare_bounds(rs, pm)
        assert cmp_.chain_holds
        assert np.all(cmp_.f_lower <= cmp_.f_low)
        assert np.all(cmp_.f_low <= cmp_.f_upp)
        assert np.all(cmp_.f_upp <= cmp_.f_upper)

    def test_two_point_toy_by_exhaustive_enumeration(self):
        # finite Omega realized by two deterministic draws, finite Lambda of 2
        class TwoPointModel(ConstantModel):
            def draw(self, seed, index):
                return -1.0 if index % 2 == 0 else 1.0

            def evaluate(self, draw, lam):
                return np.array([lam[0] * draw])

        grid = ParameterGrid.regular([Interval(1.0, 2.0)], [2])
        thresholds = np.linspace(-3, 3, 25)
        rs = propagate_random_set(TwoPointModel(), grid, 2, seed=0,
                                  thresholds=thresholds)
        pm = parametric_from_random_set(rs)
        cmp_ = compare_bounds(rs, pm)
        assert cmp_.chain_holds
        # brute force over all (omega, lambda)
        draws = [-1.0, 1.0]
        lams = [1.0, 2.0]
        values = np.array([[lam * d for lam in lams] for d in draws])
        for bi, b in enumerate(thresholds):
            f_lower = np.mean(values.max(axis=1) <= b)
            f_upper = np.mean(values.min(axis=1) <= b)
            ecdfs = [(values[:, i] <= b).mean() for i in range(2)]
            assert cmp_.f_lower[bi] == f_lower
            assert cmp_.f_upper[bi] == f_upper
            assert cmp_.f_low[bi] == min(ecdfs)
            assert cmp_.f_upp[bi] == max(ecdfs)

    def test_mismatched_configuration_rejected(self, gauss_run):
        rs = gauss_run
        other = propagate_parametric(GaussianFamilyModel(),
                                     ParameterGrid.regular(FIG1_DIMS, [3, 3]),
                                     100, seed=rs.seed, thresholds=rs.thresholds)
        with pytest.raises(ComparisonError):
            compare_bounds(rs, other)
        pm = parametric_from_random_set(rs)
        object.__setattr__(pm, "shared_draws", False)
        with pytest.raises(ComparisonError):
            compare_bounds(rs, pm)


class TestIntervalMeanField:
    def _tiny_membrane(self, sigma=1.0, n=6):
        mesh = build_mesh("l_shape", 6, 6)
        model = EllipticModel(mesh=mesh, m_pairs=8, sigma=sigma, a_min=0.1,
                              slice_x2=0.3333, pbox_x1=0.3333)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        return propagate_random_set(model, grid, n, seed=13)

    def test_deterministic_model_degenerates(self):
        rs = self._tiny_membrane(sigma=0.0, n=3)
        mf = interval_mean_field(rs)
        for p, iv in enumerate(mf.aumann):
            assert iv.lo == pytest.approx(iv.hi, abs=1e-12)
            # all per-parameter means coincide with the degenerate interval
            np.testing.assert_allclose(mf.per_lambda_means[:, p], iv.lo, atol=1e-12)

    def test_member_curves_inside_envelope(self):
        rs = self._tiny_membrane()
        mf = interval_mean_field(rs)
        for p, iv in enumerate(mf.aumann):
            assert np.all(mf.per_lambda_means[:, p] >= iv.lo - 1e-15)
            assert np.all(mf.per_lambda_means[:, p] <= iv.hi + 1e-15)

    def test_boundary_nodes_are_degenerate_zero(self):
        rs = self._tiny_membrane()
        mf = interval_mean_field(rs)
        assert mf.aumann[0] == Interval(0.0, 0.0)     # x1 = 0 boundary node
        assert mf.aumann[-1] == Interval(0.0, 0.0)    # x1 = 1 boundary node


class TestPDEPointModels:
    def test_transport_point_model_runs_and_replays(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        model = TransportPointModel(region=region, nx=41, nt=41, m_pairs=6,
                                    sigma=0.3, a_mean=0.5, a_lo=0.2, a_hi=0.9,
                                    f=0.0, g=0.0,
                                    u0=lambda x: np.sin(np.pi * np.asarray(x, float)),
                                    point=(0.0, 0.25))
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        rs1 = propagate_random_set(model, grid, 4, seed=21)
        rs2 = propagate_random_set(model, grid, 4, seed=21)
        assert np.array_equal(rs1.per_lambda_values, rs2.per_lambda_values)
        assert np.all(rs1.lowers <= rs1.uppers)

    def test_wave_point_degenerate_cutoff_matches_dalembert(self):
        # e_min = e_max = 1 clips the modulus to E == 1: the homogeneous rod
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        w = lambda x: np.exp(-9.0 * np.asarray(x, float) ** 2)
        wp = lambda x: -18.0 * np.asarray(x, float) * np.exp(-9.0 * np.asarray(x, float) ** 2)
        point = (0.1, 0.15)   # on-grid for the 81x81 discretization
        model = WavePointModel(region=region, nx=81, nt=81, m_pairs=6, sigma=0.5,
                               e_mean=1.0, e_min=1.0, e_max=1.0, w=w, w_prime=wp,
                               point=point)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [2])
        rs = propagate_random_set(model, grid, 3, seed=2)
        expected = oracle.dalembert(w, *point)
        np.testing.assert_allclose(rs.per_lambda_values, expected, atol=2e-4)
        # degenerate modulus: intervals collapse
        np.testing.assert_allclose(rs.lowers, rs.uppers, atol=1e-15)

    @pytest.mark.parametrize("kind", ["transport", "wave"])
    def test_tabulated_field_matches_the_exact_sums(self, kind, monkeypatch):
        # the wave_point benchmark geometry: K_T with kappa = 1, T = 0.4,
        # c = 1, a 41x41 lattice and coefficient clip(0.5 + q, 0.1, 1.0), q a
        # KL field with sigma = 0.3 and 10 pairs, at ell = 0.5 and 1.5
        common = dict(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=41, nt=41,
                      m_pairs=10, sigma=0.3, point=(0.0, 0.3))
        if kind == "transport":
            model = TransportPointModel(a_mean=0.5, a_lo=0.1, a_hi=1.0, f=0.0, g=0.0,
                                        u0=lambda x: np.sin(np.pi * x), **common)
        else:
            model = WavePointModel(e_mean=0.5, e_min=0.1, e_max=1.0,
                                   w=lambda x: np.exp(-16 * x**2),
                                   w_prime=lambda x: -32 * x * np.exp(-16 * x**2), **common)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [2])
        model.prepare(grid)
        draws = [model.draw(seed, 0) for seed in range(4)]

        def run():
            return np.array([[model.evaluate(d, lam) for lam in grid.points] for d in draws])

        assert isinstance(model.coefficient(draws[0], 0.5).base, FieldTable)
        tabulated = run()
        monkeypatch.setattr(models, "FieldTable", lambda field: field)
        assert isinstance(model.coefficient(draws[0], 0.5).base, FieldEvaluator)
        np.testing.assert_allclose(tabulated, run(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("point", [(0.0, 0.3), (0.2, -0.25)])
    @pytest.mark.parametrize("kind", ["transport", "wave"])
    def test_point_models_solve_only_what_their_node_needs(self, kind, point, monkeypatch):
        # the wave_point benchmark geometry; transport with f = 1, g = 0.5
        common = dict(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=41, nt=41,
                      m_pairs=10, sigma=0.3, point=point)
        w = lambda x: np.exp(-16 * x**2)
        if kind == "transport":
            model = TransportPointModel(a_mean=0.5, a_lo=0.1, a_hi=1.0, f=1.0, g=0.5,
                                        u0=lambda x: np.sin(np.pi * x), **common)
            name = "solve_transport"
        else:
            model = WavePointModel(e_mean=0.5, e_min=0.1, e_max=1.0, w=w,
                                   w_prime=lambda x: -32 * x * np.exp(-16 * x**2), **common)
            name = "solve_2x2_system"
        solver, solves = getattr(models, name), []

        def recording(*args, targets, **kwargs):
            solves.append((solver(*args, targets=targets, **kwargs), solver(*args, **kwargs)))
            return solves[-1][0]

        monkeypatch.setattr(models, name, recording)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [2])
        model.prepare(grid)
        for seed in range(2):
            for lam in grid.points:
                value = model.evaluate(model.draw(seed, 0), lam)
                part, full = solves[-1]
                j = int(np.argmin(np.abs(full.ts - point[1])))
                i = int(np.argmin(np.abs(full.xs - point[0])))
                expected = full.values[j, i] if kind == "transport" \
                    else reconstruct_displacement(full, w)[j, i]
                scale = np.abs(full.values[..., full.inside]).max()
                assert abs(value[0] - expected) <= 1e-13 * scale
                assert part.inside.sum() <= 0.2 * full.inside.sum()

    def test_nearest_node_outside_the_cone_is_a_config_error(self):
        # (0.78, 0.2) lies in the cone, but its nearest node of the 5x5 grid,
        # (1.0, 0.2), does not
        with pytest.raises(ConfigError, match="nearest grid node"):
            TransportPointModel(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=5, nt=5,
                                m_pairs=4, sigma=0.3, a_mean=0.5, a_lo=0.1, a_hi=1.0,
                                f=0.0, g=0.0, u0=np.sin, point=(0.78, 0.2))

    def test_propagate_accepts_qoi_spec(self):
        qoi = QoISpec("elliptic_slice", (0.3333,), {
            "shape": "l_shape", "nx": 6, "ny": 6, "m_pairs": 6,
            "sigma": 1.0, "a_min": 0.1, "mean": 1.0, "pbox_x1": 0.3333,
        })
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        rs = propagate_random_set(qoi, grid, 5, seed=1)
        assert rs.per_lambda_values.shape == (5, 3, 7)  # row 2 of 6: full width
        assert np.all(rs.pbox.f_lower <= rs.pbox.f_upper)

    def test_qoi_spec_dispatch(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        qoi = QoISpec("transport_point", (0.0, 0.1), {
            "region": region, "nx": 21, "nt": 21, "m_pairs": 4, "sigma": 0.2,
            "a_mean": 0.5, "a_lo": 0.3, "a_hi": 0.7, "f": 0.0, "g": 0.0,
            "u0": lambda x: np.cos(np.asarray(x, float)),
        })
        model = build_model(qoi)
        assert isinstance(model, TransportPointModel)
        gauss = build_model(QoISpec("gauss_identity", (), {}))
        assert isinstance(gauss, GaussianFamilyModel)
        with pytest.raises(Exception):
            build_model(QoISpec("mystery", (), {}))
