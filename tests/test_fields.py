"""Field models: KL eigenpairs, realized fields, OU paths, cutoff coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from randset_pde.errors import DomainError, StepSizeError
from randset_pde.fields import (
    ROOT_RTOL,
    CutoffField,
    ExpCovarianceParams,
    FieldEvaluator,
    GaussianDraw,
    coefficient_field_2d,
    evaluate_kl_field,
    field_table,
    kl_eigenpairs,
    sample_ou_path,
    sample_ou_paths,
    solve_characteristic_roots,
)
from randset_pde.randomsets import Interval
from randset_pde.sampling import standard_normals

REF = Interval(-1.0, 1.0)


def unit_params(ell=1.0, sigma=1.0, domain=REF):
    return ExpCovarianceParams(sigma, ell, domain)


def bisection_roots(ell, m, steps=200):
    """Both root families by plain bisection on their monotone branches."""
    k = np.arange(m, dtype=float)
    lo1, hi1 = k * np.pi, k * np.pi + 0.5 * np.pi
    lo2, hi2 = (k + 0.5) * np.pi, (k + 1.0) * np.pi
    for _ in range(steps):
        mid1, mid2 = 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)
        right1 = 1.0 / ell - mid1 * np.tan(mid1) > 0.0
        right2 = mid2 + np.tan(mid2) / ell < 0.0
        lo1, hi1 = np.where(right1, mid1, lo1), np.where(right1, hi1, mid1)
        lo2, hi2 = np.where(right2, mid2, lo2), np.where(right2, hi2, mid2)
    return 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)


class TestCharacteristicRoots:
    @pytest.mark.parametrize("ell", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_mpmath_oracle(self, ell, k):
        alphas, alphas_star = solve_characteristic_roots(ell, k)
        assert alphas[k - 1] == pytest.approx(oracle.mp_root_cos(k, ell), rel=1e-11)
        assert alphas_star[k - 1] == pytest.approx(oracle.mp_root_sin(k, ell), rel=1e-11)

    def test_frozen_values_at_ell_one(self):
        alphas, alphas_star = solve_characteristic_roots(1.0, 2)
        assert alphas[0] == pytest.approx(oracle.ALPHA1_ELL1, rel=1e-12)
        assert alphas_star[0] == pytest.approx(oracle.ALPHA1_STAR_ELL1, rel=1e-12)
        assert alphas[1] == pytest.approx(oracle.ALPHA2_ELL1, rel=1e-12)
        assert alphas_star[1] == pytest.approx(oracle.ALPHA2_STAR_ELL1, rel=1e-12)

    @pytest.mark.parametrize("ell", [0.2, 1.0, 7.0])
    def test_bracket_property(self, ell):
        m = 40
        alphas, alphas_star = solve_characteristic_roots(ell, m)
        k = np.arange(m)
        assert np.all(alphas > k * np.pi) and np.all(alphas < k * np.pi + np.pi / 2)
        assert np.all(alphas_star > (k + 0.5) * np.pi) and np.all(alphas_star < (k + 1) * np.pi)

    @pytest.mark.parametrize("ell", [1e-3, 0.05, 0.5, 1.0, 3.0, 40.0, 1e4])
    def test_newton_matches_bisection(self, ell):
        # roots next to the tangent poles (small ell) and next to the
        # branch starts (large ell) alike
        m = 200
        alphas, alphas_star = solve_characteristic_roots(ell, m)
        ref, ref_star = bisection_roots(ell, m)
        assert np.all(np.abs(alphas - ref) <= ROOT_RTOL * np.maximum(1.0, ref))
        assert np.all(np.abs(alphas_star - ref_star) <= ROOT_RTOL * np.maximum(1.0, ref_star))

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            solve_characteristic_roots(0.0, 3)
        with pytest.raises(DomainError):
            solve_characteristic_roots(1.0, 0)


class TestKLEigenpairs:
    def test_frozen_eigenvalues(self):
        basis = kl_eigenpairs(unit_params(), 2)
        assert basis.eigvals[0] == pytest.approx(oracle.C1_ELL1, rel=1e-11)
        assert basis.eigvals_star[0] == pytest.approx(oracle.C1_STAR_ELL1, rel=1e-11)

    def test_trace_bounded_and_increasing(self):
        traces = [kl_eigenpairs(unit_params(), m).trace() for m in (5, 20, 60, 130)]
        assert all(t <= 2.0 + 1e-12 for t in traces)
        assert np.all(np.diff(traces) > 0)

    def test_domain_rescaling_identity(self):
        # [0,1] with ell = 0.5 maps onto the reference interval with ell_eff = 1
        rescaled = kl_eigenpairs(ExpCovarianceParams(1.0, 0.5, Interval(0.0, 1.0)), 10)
        reference = kl_eigenpairs(unit_params(ell=1.0), 10)
        assert rescaled.ell_effective == pytest.approx(1.0)
        np.testing.assert_allclose(rescaled.eigvals, reference.eigvals, rtol=1e-12)

    def test_orthonormality_by_simpson(self):
        basis = kl_eigenpairs(unit_params(), 20)
        xg = np.linspace(-1.0, 1.0, 2001)
        w = np.ones(2001)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (xg[1] - xg[0]) / 3.0
        phi, phi_star = basis.eigenfunctions(xg)
        all_funcs = np.concatenate([phi, phi_star], axis=1)
        gram = all_funcs.T @ (w[:, None] * all_funcs)
        np.testing.assert_allclose(gram, np.eye(40), atol=1e-6)

    def test_covariance_reconstruction(self):
        basis = kl_eigenpairs(unit_params(), 130)
        xg = np.linspace(-1, 1, 41)
        phi, phi_star = basis.eigenfunctions(xg)
        approx = (phi * basis.eigvals) @ phi.T + (phi_star * basis.eigvals_star) @ phi_star.T
        target = np.exp(-np.abs(xg[:, None] - xg[None, :]))
        rms = np.sqrt(np.mean((approx - target) ** 2))
        assert rms <= 0.01


class TestFieldEvaluator:
    def test_zero_draw_is_zero(self):
        basis = kl_eigenpairs(unit_params(), 30)
        f = FieldEvaluator(basis, GaussianDraw.zeros(30), unit_params())
        xs = np.linspace(-1, 1, 17)
        assert np.all(evaluate_kl_field(f, xs) == 0.0)

    def test_single_coefficient_value(self):
        basis = kl_eigenpairs(unit_params(), 5)
        xi = np.zeros(10)
        xi[0] = 1.0  # first cosine-family coefficient
        f = FieldEvaluator(basis, GaussianDraw(xi), unit_params())
        assert f.value(0.0) == pytest.approx(oracle.Q_SINGLE_COEFF_ELL1, rel=1e-10)

    def test_sigma_scales_linearly(self):
        basis = kl_eigenpairs(unit_params(), 8)
        draw = GaussianDraw.sample(8, 1, 0)
        f1 = FieldEvaluator(basis, draw, unit_params(sigma=1.0))
        f2 = FieldEvaluator(basis, draw, unit_params(sigma=2.5))
        xs = np.linspace(-1, 1, 9)
        np.testing.assert_allclose(f2.value(xs), 2.5 * f1.value(xs), rtol=1e-12)

    def test_derivative_matches_finite_differences(self):
        basis = kl_eigenpairs(unit_params(), 12)
        f = FieldEvaluator(basis, GaussianDraw.sample(12, 3, 1), unit_params())
        xs = np.linspace(-0.9, 0.9, 7)
        h = 1e-6
        fd = (f.value(xs + h) - f.value(xs - h)) / (2 * h)
        np.testing.assert_allclose(f.derivative(xs), fd, rtol=1e-6, atol=1e-7)

    def test_derivative_chain_rule_on_rescaled_domain(self):
        params = ExpCovarianceParams(1.0, 0.5, Interval(0.0, 1.0))
        basis = kl_eigenpairs(params, 12)
        f = FieldEvaluator(basis, GaussianDraw.sample(12, 3, 1), params)
        xs = np.linspace(0.05, 0.95, 7)
        h = 1e-6
        fd = (f.value(xs + h) - f.value(xs - h)) / (2 * h)
        np.testing.assert_allclose(f.derivative(xs), fd, rtol=1e-6, atol=1e-7)

    def test_shape_preservation(self):
        basis = kl_eigenpairs(unit_params(), 6)
        f = FieldEvaluator(basis, GaussianDraw.sample(6, 0, 0), unit_params())
        grid = np.linspace(-1, 1, 12).reshape(3, 4)
        assert f.value(grid).shape == (3, 4)
        assert isinstance(f.value(0.3), float)

    def test_table_product_is_the_field(self):
        params = unit_params(ell=0.7, sigma=1.3, domain=Interval(0.0, 1.0))
        basis = kl_eigenpairs(params, 40)
        xs = np.linspace(0.0, 1.0, 19)
        table = field_table(basis, params, xs)
        assert table.shape == (19, 80)
        for index in range(4):
            draw = GaussianDraw.sample(40, 3, index)
            np.testing.assert_allclose(table @ draw.xi,
                                       FieldEvaluator(basis, draw, params).value(xs),
                                       rtol=0.0, atol=1e-13)
        with pytest.raises(DomainError):
            field_table(basis, params, [1.5])

    def test_outside_domain_raises(self):
        basis = kl_eigenpairs(unit_params(), 4)
        f = FieldEvaluator(basis, GaussianDraw.zeros(4), unit_params())
        with pytest.raises(DomainError):
            f.value(1.5)

    def test_mode_dispatch(self):
        basis = kl_eigenpairs(unit_params(), 4)
        draw = GaussianDraw.sample(4, 5, 0)
        fv = FieldEvaluator(basis, draw, unit_params(), mode="value")
        fd = FieldEvaluator(basis, draw, unit_params(), mode="derivative")
        assert fv(0.2) == fv.value(0.2)
        assert fd(0.2) == fv.derivative(0.2)

    def test_monte_carlo_covariance(self):
        # covariance of the realized field matches exp(-|x-y|) within 3 SE
        m, n = 130, 2000
        basis = kl_eigenpairs(unit_params(), m)
        probes_x = np.array([-0.8, -0.5, -0.2, 0.0, 0.0, 0.1, 0.3, 0.4, 0.6, -0.9])
        probes_y = np.array([-0.8, 0.5, -0.1, 0.0, 0.7, 0.2, -0.3, 0.9, 0.6, 0.4])
        xs = np.unique(np.concatenate([probes_x, probes_y]))
        vals = np.empty((n, xs.size))
        params = unit_params()
        for k in range(n):
            f = FieldEvaluator(basis, GaussianDraw.sample(m, 2024, k), params)
            vals[k] = f.value(xs)
        centered = vals - vals.mean(axis=0)
        for px, py in zip(probes_x, probes_y):
            i, j = np.searchsorted(xs, px), np.searchsorted(xs, py)
            products = centered[:, i] * centered[:, j]
            cov = products.mean()
            se = products.std(ddof=1) / np.sqrt(n)
            assert abs(cov - np.exp(-abs(px - py))) <= 3.0 * se

    def test_continuity_in_correlation_length(self):
        m = 60
        draw = GaussianDraw.sample(m, 8, 0)
        xs = np.linspace(-1, 1, 41)
        ell = 1.0

        def field_at(ell_val):
            params = unit_params(ell=ell_val)
            return FieldEvaluator(kl_eigenpairs(params, m), draw, params).value(xs)

        base = field_at(ell)
        deltas = {h: np.max(np.abs(field_at(ell * (1 + h)) - base))
                  for h in (1e-2, 1e-3, 1e-4)}
        slope = deltas[1e-2] / 1e-2
        for h in (1e-3, 1e-4):
            assert deltas[h] <= 1.5 * slope * h
        assert deltas[1e-4] < deltas[1e-3] < deltas[1e-2]


class TestOUPaths:
    def test_zero_sigma_gives_zero_path(self):
        xs = np.linspace(0, 1, 51)
        noise = standard_normals(0, 0, xs.size)
        path = sample_ou_path(ExpCovarianceParams(0.0, 1.0, Interval(0, 1)), xs, noise)
        assert np.all(path.values == 0.0)

    def test_replay_determinism_and_coupling(self):
        xs = np.linspace(0, 2, 201)
        noise = standard_normals(4, 0, xs.size)
        params = unit_params(domain=Interval(0, 2))
        a = sample_ou_path(params, xs, noise)
        b = sample_ou_path(params, xs, noise)
        assert np.array_equal(a.values, b.values)
        # same noise, nearby correlation lengths: paths stay close (coupling)
        deltas = {}
        base = sample_ou_paths(params, xs, noise)
        for h in (1e-2, 1e-3, 1e-4):
            pert = ExpCovarianceParams(1.0, 1.0 * (1 + h), Interval(0, 2))
            deltas[h] = np.max(np.abs(sample_ou_paths(pert, xs, noise) - base))
        slope = deltas[1e-2] / 1e-2
        assert deltas[1e-3] <= 1.5 * slope * 1e-3
        assert deltas[1e-4] < deltas[1e-3] < deltas[1e-2]

    @pytest.mark.parametrize("scheme,drift", [("euler", lambda d, ell: 1 - d / ell),
                                              ("exact", lambda d, ell: np.exp(-d / ell))])
    def test_single_step_conditional_mean(self, scheme, drift):
        n, dx, ell = 100_000, 0.05, 1.0
        z0 = 0.8  # fixed initial variate -> q0 = sigma * z0 for every replay
        noise = np.column_stack([np.full(n, z0), standard_normals(6, 0, n)])
        q = sample_ou_paths(unit_params(domain=Interval(0, 1)), np.array([0.0, dx]),
                            noise, scheme=scheme)
        q0 = q[0, 0]
        expected = q0 * drift(dx, ell)
        se = np.sqrt(2 * dx / ell) / np.sqrt(n)
        assert abs(q[:, 1].mean() - expected) <= 3.0 * se

    def test_stationary_variance(self):
        # a single 10^4-point path carries ~50 effective samples at ell = 1,
        # so the variance is estimated over an ensemble of replayed paths
        xs = np.arange(0.0, 100.0, 0.01)
        noise = np.stack([standard_normals(12, k, xs.size) for k in range(200)])
        paths = sample_ou_paths(unit_params(domain=Interval(0, 100)), xs, noise)
        assert abs(paths.var() - 1.0) <= 0.05

    def test_step_size_guard(self):
        xs = np.linspace(0, 1, 3)  # dx = 0.5 >= ell/2
        with pytest.raises(StepSizeError):
            sample_ou_path(unit_params(), xs, np.zeros(3))

    def test_noise_length_mismatch(self):
        with pytest.raises(DomainError):
            sample_ou_path(unit_params(), np.linspace(0, 1, 11), np.zeros(10))


class TestCoefficientField2D:
    def _zero_field(self):
        basis = kl_eigenpairs(ExpCovarianceParams(1.0, 1.0, Interval(0, 1)), 4)
        return FieldEvaluator(basis, GaussianDraw.zeros(4),
                              ExpCovarianceParams(1.0, 1.0, Interval(0, 1)))

    class _Const:
        def __init__(self, v):
            self.v = v

        def value(self, x):
            return self.v * np.ones_like(np.asarray(x, dtype=float)) \
                if np.ndim(x) else self.v

    def test_zero_draw_gives_mean(self):
        q = self._zero_field()
        assert coefficient_field_2d(1.0, q, q, 0.1, 0.3, 0.7) == 1.0

    def test_cutoff_engages_at_floor(self):
        q1, q2 = self._Const(-5.0), self._Const(1.0)
        assert coefficient_field_2d(1.0, q1, q2, 0.1, 0.2, 0.2) == 0.1

    def test_cutoff_inactive(self):
        q1, q2 = self._Const(0.3), self._Const(1.0)
        assert coefficient_field_2d(1.0, q1, q2, 0.1, 0.2, 0.2) == pytest.approx(1.3)

    def test_requires_positive_floor(self):
        q = self._zero_field()
        with pytest.raises(DomainError):
            coefficient_field_2d(1.0, q, q, 0.0, 0.5, 0.5)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_floor_always_respected(self, index):
        params = ExpCovarianceParams(1.0, 0.7, Interval(0, 1))
        basis = kl_eigenpairs(params, 16)
        q1 = FieldEvaluator(basis, GaussianDraw.sample(16, 77, index), params)
        q2 = FieldEvaluator(basis, GaussianDraw.sample(16, 78, index), params)
        pts = np.linspace(0, 1, 23)
        vals = coefficient_field_2d(1.0, q1, q2, 0.1, pts, pts[::-1])
        assert np.all(vals >= 0.1)


class TestCutoffField:
    def test_clipping_and_derivative(self):
        params = unit_params()
        basis = kl_eigenpairs(params, 10)
        base = FieldEvaluator(basis, GaussianDraw.sample(10, 42, 0), params)
        cut = CutoffField(base, shift=1.0, lo=0.9, hi=1.1)
        xs = np.linspace(-1, 1, 101)
        vals = cut.value(xs)
        assert np.all(vals >= 0.9) and np.all(vals <= 1.1)
        raw = 1.0 + base.value(xs)
        clipped = (raw < 0.9) | (raw > 1.1)
        der = cut.derivative(xs)
        assert np.all(der[clipped] == 0.0)
        np.testing.assert_allclose(der[~clipped], base.derivative(xs)[~clipped])
