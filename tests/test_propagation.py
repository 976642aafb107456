"""Double-loop propagation: hulls, envelopes, ordering chain, determinism."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from randset_pde import characteristics, cli, fem, models, propagation, sampling
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
    SampleFailure,
    compare_bounds,
    interval_mean_field,
    parametric_from_random_set,
    propagate_parametric,
    propagate_random_set,
)
from randset_pde.randomsets import Interval, RandomIntervalSample, empirical_pbox
from randset_pde.sampling import standard_normals

FIG1_DIMS = [Interval(-1.0, 1.0), Interval(1.0, 2.0)]


class ConstantModel(PointwiseBlocks):
    """u == value for every draw and parameter."""

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

    def test_a_model_without_the_block_protocol_is_rejected(self):
        class PerPointOnly:
            def prepare(self, grid):
                pass

            def draw(self, seed, index):
                return index

            def evaluate(self, draw, lam):
                return np.array([1.0])

        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        with pytest.raises(DomainError, match="draws and evaluate_block"):
            propagate_random_set(PerPointOnly(), grid, 10, seed=0)

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

    def test_block_model_failures_carry_the_true_grid_point(self):
        class BlockKeyModel:
            """Block-native: u = sample index; the chosen samples fail at grid point 2."""

            output_labels = None
            pbox_component = 0

            def __init__(self, bad_samples):
                self.bad_samples = set(bad_samples)

            def prepare(self, grid):
                pass

            def draws(self, seed, indices):
                return np.array(indices, dtype=np.int64)

            def evaluate_block(self, draws, points):
                values = np.repeat(draws.astype(float)[:, None, None], points.shape[0], axis=1)
                failures = {b: (2, "NumericalError: synthetic block failure")
                            for b, k in enumerate(draws) if int(k) in self.bad_samples}
                values[list(failures), 2:] = np.nan
                return values, failures

        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        rs = propagate_random_set(BlockKeyModel({9}), grid, 200, seed=0)
        assert [(f.sample_index, f.grid_index, f.message) for f in rs.failures] == \
            [(9, 2, "NumericalError: synthetic block failure")]
        np.testing.assert_array_equal(rs.sample_indices, np.delete(np.arange(200), 9))
        with pytest.raises(PropagationRunError,
                           match="5 of 200 samples failed .* first: sample 0, grid point 2: "
                                 "NumericalError: synthetic block failure") as info:
            propagate_random_set(BlockKeyModel(range(5)), grid, 200, seed=0)
        assert [(f.sample_index, f.grid_index) for f in info.value.failures] == \
            [(k, 2) for k in range(5)]

    def test_budget_errors_name_the_true_grid_point(self):
        class FailingAtPointOne(FailingModel):
            def evaluate(self, draw, lam):
                return super().evaluate(draw, lam) if lam == (0.5,) else np.array([1.0])

        grid = ParameterGrid.regular([Interval(0, 1)], [3])
        # samples 0-4 fail at grid point 1 only: 5 > 1% of 200
        with pytest.raises(PropagationRunError, match="first: sample 0, grid point 1:") as info:
            propagate_random_set(FailingAtPointOne(range(5)), grid, 200, seed=0)
        assert [(f.sample_index, f.grid_index) for f in info.value.failures] == \
            [(k, 1) for k in range(5)]


class TestBlocks:
    N = 200

    @staticmethod
    def _run(model, grid, seed):
        rs = propagate_random_set(model, grid, TestBlocks.N, seed=seed)
        return rs.per_lambda_values, rs.sample_indices, rs.failures, rs.pbox

    @settings(max_examples=25, deadline=None)
    # draw blocks at or below sampling.PER_KEY_MAX draw key by key, above it by the kernel
    @given(block_size=st.integers(1, N),
           draw_block=st.one_of(st.integers(1, sampling.PER_KEY_MAX), st.integers(1, N)))
    def test_outputs_do_not_depend_on_block_size(self, block_size, draw_block):
        cases = [
            (GaussianFamilyModel(), ParameterGrid.regular(FIG1_DIMS, [4, 3]), 42),
            (ConstantModel(3.0), ParameterGrid.regular([Interval(0, 1)], [3]), 7),
            (FailingModel({13, 150}), ParameterGrid.regular([Interval(0, 1)], [3]), 7),
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "BLOCK_SIZE", self.N)
            mp.setattr(propagation, "DRAW_BLOCK", self.N)
            reference = [self._run(*case) for case in cases]
            mp.setattr(propagation, "BLOCK_SIZE", block_size)
            mp.setattr(propagation, "DRAW_BLOCK", draw_block)
            for case, (values, samples, failures, pbox) in zip(cases, reference):
                got_values, got_samples, got_failures, got_pbox = self._run(*case)
                np.testing.assert_array_equal(got_values, values)
                np.testing.assert_array_equal(got_samples, samples)
                assert got_failures == failures
                np.testing.assert_array_equal(got_pbox.thresholds, pbox.thresholds)
                np.testing.assert_array_equal(got_pbox.f_lower, pbox.f_lower)
                np.testing.assert_array_equal(got_pbox.f_upper, pbox.f_upper)

    @pytest.mark.parametrize("block_size", [1, 16, N])
    def test_unrecorded_infinity_fails_its_sample(self, block_size):
        # sample 5 of the first 16-block turns +inf at grid index 2 of 3, and
        # evaluate_block records no failure for it
        class InfAtLaterPoint(GaussianFamilyModel):
            def draws(self, seed, indices):
                return np.asarray(indices, dtype=float)[:, None]

            def evaluate_block(self, draws, points):
                values = draws[:, None, :] * 0.01 + points[None, :, :1]
                values[draws[:, 0] == 5.0, 2] = np.inf
                return values, {}

        grid = ParameterGrid.regular([Interval(0.0, 1.0), Interval(1.0, 2.0)], [3, 1])
        real_first_failures = propagation._first_failures
        with mock.patch.object(propagation, "_first_failures",
                               side_effect=real_first_failures) as spy, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "BLOCK_SIZE", block_size)
            mp.setattr(propagation, "DRAW_BLOCK", block_size)
            values, samples, failures, pbox = self._run(InfAtLaterPoint(), grid, seed=0)
        # only the block that holds sample 5 takes the failure pass
        assert spy.call_count == 1
        assert failures == (SampleFailure(5, 2, "model returned non-finite values"),)
        survivors = np.delete(np.arange(self.N), 5)
        np.testing.assert_array_equal(samples, survivors)
        np.testing.assert_array_equal(
            values, survivors[:, None, None] * 0.01 + grid.points[None, :, :1])
        reference = empirical_pbox(
            RandomIntervalSample(survivors * 0.01, survivors * 0.01 + 1.0), pbox.thresholds)
        np.testing.assert_array_equal(pbox.f_lower, reference.f_lower)
        np.testing.assert_array_equal(pbox.f_upper, reference.f_upper)

    def test_gauss_block_is_the_per_point_path(self):
        model, grid = GaussianFamilyModel(), ParameterGrid.regular(FIG1_DIMS, [5, 4])
        values, failures = model.evaluate_block(model.draws(168, range(30)), grid.points)
        per_point = [[model.evaluate(standard_normals(168, k, 1)[0], tuple(lam))
                      for lam in grid.points] for k in range(30)]
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
        ref_values, ref_failures = PointwiseBlocks.evaluate_block(model, draws, grid.points)
        assert failures == ref_failures == {}
        np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=1e-12)

    def test_nonpositive_cells_fail_their_sample_like_the_per_point_path(self, monkeypatch):
        # a_min lowered past 0 after the constructor's check, and a per-point
        # coefficient without its own check, let 1 + q1 q2 reach nonpositive
        # cell averages in some systems and not in others
        monkeypatch.setattr(models, "coefficient_field_2d",
                            lambda mean, q1, q2, a_min, x1, x2:
                            np.maximum(mean + q1.value(x1) * q2.value(x2), a_min))
        model = EllipticModel(mesh=build_mesh("l_shape", 10, 10), m_pairs=30, sigma=1.0,
                              a_min=0.1, slice_x2=0.4)
        model.a_min = -10.0
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        draws = model.draws(2, range(8))
        values, failures = model.evaluate_block(draws, grid.points)
        ref_values, ref_failures = PointwiseBlocks.evaluate_block(model, draws, grid.points)
        assert failures == ref_failures
        assert 0 < len(failures) < len(draws)
        assert {message for _, message in failures.values()} == {
            "CoefficientBoundError: element coefficients must be positive"}
        for b, (i, _) in failures.items():
            assert np.all(np.isnan(values[b, i]))
        mates = [b for b in range(len(draws)) if b not in failures]
        np.testing.assert_allclose(values[mates], ref_values[mates], rtol=0.0, atol=1e-12)

    def test_a_nan_draw_fails_its_sample_before_the_solve(self):
        # a NaN coefficient passes a `cells <= 0` test; it must fail the
        # positivity check and leave the CG batch, not run it
        model = EllipticModel(mesh=build_mesh("l_shape", 10, 10), m_pairs=30, sigma=1.0,
                              a_min=0.1, slice_x2=0.4)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        draws = model.draws(2, range(4))
        spoilt = draws.copy()
        spoilt[1, 0] = np.nan
        values, failures = model.evaluate_block(spoilt, grid.points)
        assert failures == {1: (0, "CoefficientBoundError: element coefficients must be positive")}
        assert np.all(np.isnan(values[1]))
        mates = [0, 2, 3]
        clean, clean_failures = model.evaluate_block(draws[mates], grid.points)
        assert clean_failures == {}
        np.testing.assert_array_equal(values[mates], clean)

    def test_capped_solve_fails_its_sample_like_the_per_point_path(self, monkeypatch):
        # reduced-system CG takes 29-31 iterations on these 18 systems; a cap
        # of 30 stops samples 0 and 3 at grid index 0 and no other system (on
        # a 10x10 mesh they take 15 or 16, too few to cap some and not most)
        monkeypatch.setattr(models, "solve_cg", functools.partial(fem.solve_cg, max_iter=30))
        monkeypatch.setattr(models, "solve_cg_block",
                            functools.partial(fem.solve_cg_block, max_iter=30))
        model = EllipticModel(mesh=build_mesh("l_shape", 18, 18), m_pairs=30, sigma=1.0,
                              a_min=0.1, slice_x2=0.4444)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        draws = model.draws(1, range(6))
        values, failures = model.evaluate_block(draws, grid.points)
        ref_values, ref_failures = PointwiseBlocks.evaluate_block(model, draws, grid.points)
        assert failures == ref_failures
        assert sorted(failures) == [0, 3]
        assert all(i == 0 and message.startswith("NonConvergenceError: CG did not reach")
                   and message.endswith(" in 30 iterations")
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
    def test_parametric_is_the_random_set_reduction(self, case):
        if case == "gauss":
            model, grid = GaussianFamilyModel(), ParameterGrid.regular(FIG1_DIMS, [5, 5])
        else:
            model = EllipticModel(mesh=build_mesh("l_shape", 6, 6), m_pairs=8,
                                  slice_x2=0.3333, pbox_x1=0.3333)
            grid = ParameterGrid.regular([Interval(0.5, 1.5)], [3])
        pm = propagate_parametric(model, grid, 20, seed=11)
        ref = parametric_from_random_set(propagate_random_set(model, grid, 20, seed=11))
        np.testing.assert_array_equal(pm.thresholds, ref.thresholds)
        np.testing.assert_array_equal(pm.per_lambda_ecdfs, ref.per_lambda_ecdfs)
        np.testing.assert_array_equal(pm.f_low, ref.f_low)
        np.testing.assert_array_equal(pm.f_upp, ref.f_upp)


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
        object.__setattr__(pm, "thresholds", rs.thresholds + 1.0)
        with pytest.raises(ComparisonError, match="different threshold grids"):
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
                                    point=(0.0, 0.24))   # a node of the 41x41 lattice
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

    # u(0, 0.3) at ell = 0.5 and 1.5 for sample 0 of seeds 0-3, recorded with
    # cubic Hermite field tables (the same TABLE_TOL)
    CUBIC_TABLE_VALUES = {
        "transport": [[-0.09410831331851433, -0.09410831331851433],
                      [-0.42305733865902806, -0.35296269886367837],
                      [-0.46530082187838545, -0.4744731135641895],
                      [-0.7087365077064184, -0.7608287660718764]],
        "wave": [[0.8659286575954618, 0.8659286575954618],
                 [0.5664224571117551, 0.6076858238330094],
                 [0.4176325143542064, 0.4276662156128993],
                 [0.28687566294136135, 0.251820190115962]],
    }

    @staticmethod
    def _benchmark_values(kind, nodes=41, seeds=4, point=(0.0, 0.3), f=0.0, g=0.0):
        """u(point) at ell = 0.5 and 1.5 for sample 0 of each seed, (seeds, 2),
        at the wave_point benchmark geometry, as in the test above, on a
        ``nodes`` x ``nodes`` lattice; transport has the reaction f and the
        source g."""
        common = dict(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=nodes, nt=nodes,
                      m_pairs=10, sigma=0.3, point=point)
        if kind == "transport":
            model = TransportPointModel(a_mean=0.5, a_lo=0.1, a_hi=1.0, f=f, g=g,
                                        u0=lambda x: np.sin(np.pi * x), **common)
        else:
            model = WavePointModel(e_mean=0.5, e_min=0.1, e_max=1.0,
                                   w=lambda x: np.exp(-16 * x**2),
                                   w_prime=lambda x: -32 * x * np.exp(-16 * x**2), **common)
        grid = ParameterGrid.regular([Interval(0.5, 1.5)], [2])
        model.prepare(grid)
        draws = np.stack([model.draws(seed, [0])[0] for seed in range(seeds)])
        values, failures = model.evaluate_block(draws, grid.points)
        assert not failures
        return values[:, :, 0]

    @staticmethod
    def _per_node_values():
        """u at two target nodes, one on each side of t = 0, of two stacked
        transport problems whose speed reads t, so every node has a curve of
        its own, on the benchmark geometry's 41x41 lattice: (2 lattices, 2)."""
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = characteristics.build_grids(region, 41, 41)

        def phase(x):       # lattice l's phase, along the points' leading axis
            return np.reshape([0.0, 1.5], (2,) + (1,) * (np.ndim(x) - 1))

        coeffs = characteristics.TransportCoefficients(
            a=lambda x, t: 0.5 + 0.3 * np.sin(3.0 * x + 4.0 * t + phase(x)),
            f=lambda x, t: 0.8 * np.cos(x - phase(x)) * (1.0 + t),
            g=lambda x, t: 0.5 + x * t, u0=lambda x: np.sin(np.pi * x), c=1.0)
        targets = np.zeros((41, 41), dtype=bool)
        targets[7, 24] = targets[33, 15] = True
        solution = characteristics.solve_transport(coeffs, region, xs, ts, targets=targets,
                                                   lattices=2)
        return solution.values[:, targets]

    @pytest.mark.parametrize("kind", ["transport", "wave"])
    def test_values_stay_within_1e_12_of_the_cubic_tables(self, kind):
        np.testing.assert_allclose(self._benchmark_values(kind), self.CUBIC_TABLE_VALUES[kind],
                                   rtol=0, atol=1e-12)

    # the same values as float.hex, and the wave's for seeds 0-1 on the
    # shipped preset's 201x201 lattice, where far more feet per node sum in
    # the march; recorded with numpy 2.4.6 and scipy 1.17.1 before the march
    # formed each group's trapezoid terms once for every component.  Below
    # t = 0 with f = 1 and g = 0.5, and on per-node curves (_per_node_values),
    # the march reads every foot's coupling value back; those were recorded
    # with the same versions before the march kept them in one level-major store
    RECORDED_VERSIONS = ("2.4.6", "1.17.1")
    RECORDED_BITS = {
        "transport": [["-0x1.8177b7ffc17f0p-4", "-0x1.8177b7ffc17f0p-4"],
                      ["-0x1.b135f1677e47bp-2", "-0x1.696f0dc14f42ap-2"],
                      ["-0x1.dc77d193140e7p-2", "-0x1.e5dc47a65ba1fp-2"],
                      ["-0x1.6adf82f4291f8p-1", "-0x1.858b591844fd0p-1"]],
        "wave": [["0x1.bb5b004215587p-1", "0x1.bb5b004215587p-1"],
                 ["0x1.22021fd207a61p-1", "0x1.372298a7360f2p-1"],
                 ["0x1.aba7db9b971c1p-2", "0x1.b5ee21e6a55edp-2"],
                 ["0x1.25c2bbd967e7ep-2", "0x1.01dd26e4150b1p-2"]],
        "wave_201": [["0x1.bb55da76e1836p-1", "0x1.bb55da76e1836p-1"],
                     ["0x1.20f91770cfebfp-1", "0x1.36ad03ad12571p-1"]],
        "transport_below": [["0x1.9c3a4c3e290f6p-2", "0x1.9c3a4c3e290f6p-2"],
                            ["0x1.9c3a763fa1fcfp-2", "0x1.b9dbfc717178ep-2"],
                            ["0x1.1c74146407e4bp-1", "0x1.1f0e04d9d3654p-1"],
                            ["0x1.4833d21fa3d38p-1", "0x1.4bfc89d78b93bp-1"]],
        "transport_per_node": [["0x1.45a4dcfdb467fp-1", "-0x1.f6611e8b889c1p-1"],
                               ["0x1.89b7d5aefdfafp-1", "-0x1.9c050c9fa6742p-1"]],
    }

    @pytest.mark.parametrize("kind", ["transport", "wave", "wave_201", "transport_below",
                                      "transport_per_node"])
    def test_values_keep_their_recorded_bits(self, kind):
        # exact under the recorded versions; other numpy or scipy builds may
        # round differently, so there the values need only agree to 1e-13
        import scipy

        if kind == "wave_201":
            values = self._benchmark_values("wave", 201, 2)
        elif kind == "transport_below":
            values = self._benchmark_values("transport", point=(0.2, -0.24), f=1.0, g=0.5)
        elif kind == "transport_per_node":
            values = self._per_node_values()
        else:
            values = self._benchmark_values(kind)
        if (np.__version__, scipy.__version__) == self.RECORDED_VERSIONS:
            assert [[v.hex() for v in row] for row in values.tolist()] == \
                self.RECORDED_BITS[kind]
        else:
            expected = [[float.fromhex(h) for h in row] for row in self.RECORDED_BITS[kind]]
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("point", [(0.0, 0.3), (0.2, -0.24)])
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
        qoi = QoISpec("transport_point", (0.0, 0.09), {
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


def point_model(kind, n, point, cls=None):
    """A point model on the wave_point benchmark geometry (K_T with kappa = 1,
    T = 0.4, c = 1) on an n x n lattice, with 6 KL pairs; transport has
    f = 1 and g = 0.5."""
    common = dict(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=n, nt=n, m_pairs=6,
                  sigma=0.3, point=point)
    if kind == "transport":
        return (cls or TransportPointModel)(a_mean=0.5, a_lo=0.1, a_hi=1.0, f=1.0, g=0.5,
                                            u0=lambda x: np.sin(np.pi * x), **common)
    return (cls or WavePointModel)(e_mean=0.5, e_min=0.1, e_max=1.0,
                                   w=lambda x: np.exp(-16 * x**2),
                                   w_prime=lambda x: -32 * x * np.exp(-16 * x**2), **common)


class TooLargeAt:
    """Point-model mixin: the coefficient field is ``bad_factor`` (ten) times
    too large at the correlation lengths in ``bad_ells``, in the stacked and
    the single-lattice solve alike, so the solver's speed-bound check fails
    there."""

    bad_ells = ()
    bad_factor = 10.0

    def coefficients(self, draw, ells):
        field = super().coefficients(draw, ells)
        bad = np.isin(np.asarray(ells, dtype=float), self.bad_ells)

        def scaled(values):
            factor = np.where(bad, self.bad_factor, 1.0)
            return factor.reshape((-1,) + (1,) * (np.ndim(values) - 1)) * values

        class Scaled:
            def value(self, x):
                return scaled(field.value(x))

            def derivative(self, x):
                return scaled(field.derivative(x))

        return Scaled()


class TooFastTransport(TooLargeAt, TransportPointModel):
    pass


class TooStiffWave(TooLargeAt, WavePointModel):
    pass


class TestStackedPointSolves:
    """evaluate_block solves a draw's M correlation lengths as one stacked solve."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["transport", "wave"]), seed=st.integers(0, 2**32 - 1),
           ells=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=4),
           level=st.floats(0.0, 1.0), across=st.floats(0.0, 1.0))
    def test_stacked_block_equals_the_per_point_solves(self, kind, seed, ells, level, across):
        n = 21
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = np.linspace(-1.0, 1.0, n), np.linspace(-0.4, 0.4, n)
        t = ts[min(int(level * n), n - 1)]
        row = xs[region.contains(xs, t)]
        model = point_model(kind, n, (row[min(int(across * row.size), row.size - 1)], t))
        points = np.array(ells)[:, None]
        draws = model.draws(seed, [0, 1])
        block, failures = model.evaluate_block(draws, points)
        per_point = np.array([[model.evaluate(d, tuple(lam)) for lam in points] for d in draws])
        assert failures == {}
        # stacking alone changes no bit: each node is computed as in its own lattice
        assert np.array_equal(block, per_point)
        # one curve per abscissa moves the feet by rounding only
        with mock.patch.object(characteristics, "_uniform_levels", lambda ts, step: False):
            own_curves, _ = model.evaluate_block(draws, points)
        assert np.abs(block - own_curves).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["transport", "wave"])
    def test_failures_are_recorded_as_on_the_per_point_path(self, kind):
        model = point_model(kind, 21, (0.0, 0.2), cls=TooFastTransport if kind == "transport"
                            else TooStiffWave)
        points = np.array([[0.5], [0.8], [1.1], [1.5]])
        draws = model.draws(3, range(3))
        for bad_ells, expected in (((1.1,), 2), ((0.8, 1.5), 1), ((0.5,), 0), ((), None)):
            model.bad_ells = bad_ells
            block, failures = model.evaluate_block(draws, points)
            reference, ref_failures = PointwiseBlocks.evaluate_block(model, draws, points)
            assert failures == ref_failures
            assert np.array_equal(block[..., :reference.shape[2]], reference, equal_nan=True)
            if expected is None:
                assert failures == {}
            else:
                assert sorted(failures) == [0, 1, 2]
                for i, message in failures.values():
                    assert i == expected and message.startswith("SpeedBoundError: |a| reaches")
                assert np.all(np.isfinite(block[:, :expected]))
                assert np.all(np.isnan(block[:, expected:]))

    @pytest.mark.parametrize("kind", ["transport", "wave"])
    def test_a_nan_field_is_a_recorded_failure(self, kind):
        # NaN speeds carry the traced feet to NaN points, whose field lookup
        # must fail as a sample, not index a table piece
        model = point_model(kind, 21, (0.0, 0.2), cls=TooFastTransport if kind == "transport"
                            else TooStiffWave)
        model.bad_ells, model.bad_factor = (0.8,), np.nan
        points = np.array([[0.5], [0.8], [1.1]])
        draws = model.draws(3, range(2))
        block, failures = model.evaluate_block(draws, points)
        assert failures == PointwiseBlocks.evaluate_block(model, draws, points)[1]
        assert failures == {b: (1, "NumericalError: evaluation point is not finite")
                            for b in range(2)}
        assert np.all(np.isfinite(block[:, 0])) and np.all(np.isnan(block[:, 1:]))
