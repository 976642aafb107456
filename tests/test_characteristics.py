"""Method of characteristics: tracing, transport, the 2x2 wave system."""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from randset_pde.characteristics import (
    TransportCoefficients,
    _lattice,
    WaveMaterial,
    build_grids,
    domain_of_determinacy,
    reconstruct_displacement,
    solve_2x2_system,
    solve_transport,
    trace_characteristic,
    wave_to_system,
)
from randset_pde.errors import (
    DomainError,
    EmptyRegionError,
    MaterialError,
    SpeedBoundError,
)

def bump(x):
    return np.exp(-16.0 * np.asarray(x, dtype=float) ** 2)


def bump_prime(x):
    x = np.asarray(x, dtype=float)
    return -32.0 * x * np.exp(-16.0 * x**2)


def const(v):
    return lambda x, t: np.full_like(np.asarray(x, dtype=float), v)


def _picard_update(lattice, values, coupling):
    """One Picard sweep of the discrete integral equations, applied to ``values``.

    Component k is updated along the lattice's family k as
    U0 + (F * coupling(feet) + G) @ weights, with every component linearly
    interpolated at the feet on its level, one ghost node of linear
    extrapolation per side.
    """
    xs, inside = lattice.xs, lattice.solved
    out = np.full_like(values, np.nan)
    for k, uk_next in enumerate(out):
        for group in lattice.groups:
            direction = 1 if group.level >= lattice.i0 else -1
            at_feet = []
            for uk in values:
                feet = np.empty_like(group.pos[k])
                for m in range(group.taus.size):
                    s = lattice.i0 + direction * m
                    xr, vr = xs[inside[s]], uk[s, inside[s]]
                    xe = np.concatenate(([2 * xr[0] - xr[1]], xr, [2 * xr[-1] - xr[-2]]))
                    ve = np.concatenate(([2 * vr[0] - vr[1]], vr, [2 * vr[-1] - vr[-2]]))
                    feet[:, m] = np.interp(group.pos[k, :, m], xe, ve)
                at_feet.append(feet)
            uk_next[group.level, group.node_ids] = (
                group.U0[k] + (group.F[k] * coupling(*at_feet) + group.G[k]) @ group.weights)
    return out


class TestDeterminacyRegion:
    def test_tilted_cone(self):
        r = domain_of_determinacy(1.0, 0.5, 1.0)
        assert r.contains(0.0, 0.5)
        assert not r.contains(0.6, 0.5)
        assert r.contains(0.5, -0.5)

    def test_zero_speed_full_rectangle(self):
        r = domain_of_determinacy(1.0, 0.5, 0.0)
        assert r.contains(0.999, 0.499) and r.contains(-1.0, -0.5)

    def test_degenerate_tip_is_error(self):
        with pytest.raises(EmptyRegionError):
            domain_of_determinacy(1.0, 1.0, 1.0)


class TestTraceCharacteristic:
    def test_constant_speed_exact(self):
        c = trace_characteristic(const(2.0), 0.3, 0.1, -0.5, 1e-3)
        np.testing.assert_allclose(c.positions, 0.3 + 2.0 * (c.taus - 0.1), atol=1e-13)

    def test_linear_speed_oracle(self):
        c = trace_characteristic(lambda x, t: x, 0.5, 0.2, 1.0, 1e-3)
        exact = 0.5 * np.exp(c.taus - 0.2)
        assert np.max(np.abs(c.positions - exact)) <= 1e-10

    def test_initial_condition_exact(self):
        c = trace_characteristic(lambda x, t: np.sin(x + t), -0.3, 0.7, 0.0, 1e-2)
        assert c.positions[0] == -0.3
        assert c.taus[0] == 0.7

    def test_forward_backward_identity(self):
        a = lambda x, t: 0.8 * np.cos(t) * np.tanh(x + 0.2)
        fwd = trace_characteristic(a, 0.25, 0.0, 0.6, 1e-3)
        back = trace_characteristic(a, float(fwd.positions[-1]), 0.6, 0.0, 1e-3)
        assert abs(back.positions[-1] - 0.25) <= 1e-9

    def test_region_violation_detected(self):
        region = domain_of_determinacy(0.5, 0.2, 1.0)
        with pytest.raises(Exception):
            trace_characteristic(const(5.0), 0.4, 0.0, 0.2, 1e-3, region=region)


class TestSolveTransport:
    def test_constant_speed_translation(self):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 201, 201)
        coeffs = TransportCoefficients(a=const(1.0), f=0.0, g=0.0,
                                       u0=lambda x: np.sin(np.pi * x), c=1.0,
                                       a_time_dependent=False)
        sol = solve_transport(coeffs, region, xs, ts)
        X, T = np.meshgrid(xs, ts)
        exact = np.sin(np.pi * (X - T))
        assert np.max(np.abs(sol.values - exact)[sol.inside]) <= 1e-6

    def test_pointwise_reaction(self):
        lam = 0.3
        region = domain_of_determinacy(1.0, 0.2, 0.0)
        xs, ts = build_grids(region, 101, 201)
        coeffs = TransportCoefficients(a=0.0, f=lam, g=0.0,
                                       u0=lambda x: np.sin(np.pi * x), c=0.0,
                                       a_time_dependent=False)
        sol = solve_transport(coeffs, region, xs, ts)
        X, T = np.meshgrid(xs, ts)
        exact = np.sin(np.pi * X) * np.exp(lam * T)
        rel = np.abs(sol.values - exact) / np.maximum(np.abs(exact), 1e-300)
        assert np.max(rel[sol.inside]) <= 1e-8

    def test_constant_source_exact(self):
        region = domain_of_determinacy(1.0, 0.2, 0.0)
        xs, ts = build_grids(region, 51, 101)
        coeffs = TransportCoefficients(a=0.0, f=0.0, g=1.0,
                                       u0=lambda x: np.cos(x), c=0.0,
                                       a_time_dependent=False)
        sol = solve_transport(coeffs, region, xs, ts)
        X, T = np.meshgrid(xs, ts)
        assert np.max(np.abs(sol.values - (np.cos(X) + T))[sol.inside]) == 0.0

    def test_initial_row_equals_data(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        xs, ts = build_grids(region, 81, 61)
        coeffs = TransportCoefficients(a=lambda x, t: np.cos(x), f=0.2, g=0.1,
                                       u0=lambda x: x**2, c=1.0)
        sol = solve_transport(coeffs, region, xs, ts)
        i0 = np.argmin(np.abs(ts))
        sel = sol.inside[i0]
        np.testing.assert_array_equal(sol.values[i0, sel], xs[sel] ** 2)

    def test_finite_propagation_speed(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        xs, ts = build_grids(region, 161, 97)
        support = 0.25

        def u0(x):
            x = np.asarray(x, dtype=float)
            inside = np.abs(x) < support
            out = np.zeros_like(x)
            out[inside] = np.exp(-1.0 / (1.0 - (x[inside] / support) ** 2))
            return out

        coeffs = TransportCoefficients(a=const(1.0), f=0.4, g=0.0, u0=u0, c=1.0,
                                       a_time_dependent=False)
        sol = solve_transport(coeffs, region, xs, ts)
        dx = xs[1] - xs[0]
        X, T = np.meshgrid(xs, ts)
        outside_cone = sol.inside & (np.abs(X) > support + np.abs(T) + 2 * dx)
        assert np.max(np.abs(sol.values[outside_cone])) <= 1e-8

    def test_determinacy_under_outside_modification(self):
        region = domain_of_determinacy(0.8, 0.3, 1.0)
        xs = np.linspace(-1.2, 1.2, 121)   # wider than K_0 on purpose
        ts = np.linspace(-0.3, 0.3, 61)

        def u0_base(x):
            return np.sin(np.pi * np.asarray(x, dtype=float))

        def u0_mod(x):
            x = np.asarray(x, dtype=float)
            return u0_base(x) + 50.0 * (np.abs(x) > 0.85)

        coeffs = dict(a=lambda x, t: np.cos(3 * x) * 0.9, f=0.5, g=0.2, c=1.0)
        sol_a = solve_transport(TransportCoefficients(u0=u0_base, **coeffs), region, xs, ts)
        sol_b = solve_transport(TransportCoefficients(u0=u0_mod, **coeffs), region, xs, ts)
        assert np.array_equal(sol_a.values[sol_a.inside], sol_b.values[sol_b.inside])

    def test_speed_bound_enforced_not_clamped(self):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 41, 41)
        coeffs = TransportCoefficients(a=const(2.0), f=0.0, g=0.0,
                                       u0=lambda x: x, c=1.0, a_time_dependent=False)
        with pytest.raises(SpeedBoundError):
            solve_transport(coeffs, region, xs, ts)

    @pytest.mark.parametrize("solver", ["transport", "system"])
    def test_solution_is_the_discrete_fixed_point(self, solver):
        # strong coupling over the whole cone, where Picard needs many sweeps
        region = domain_of_determinacy(1.0, 0.4, 0.0 if solver == "transport" else 1.0)
        xs, ts = build_grids(region, 41, 41)
        if solver == "transport":
            ones = lambda x: np.ones_like(np.asarray(x, float))
            coeffs = TransportCoefficients(a=0.0, f=30.0, g=0.0, u0=ones,
                                           c=0.0, a_time_dependent=False)
            sol = solve_transport(coeffs, region, xs, ts)
            lattice = _lattice(0.0, (1.0,), 0.0, region, xs, ts, False, None, None)
            lattice.precompute(30.0, 0.0, (ones,))
            values, coupling = sol.values[None], lambda u: u
        else:
            a, u01, u02 = const(1.0), lambda x: -bump_prime(x), bump_prime
            sol = solve_2x2_system(a, 30.0, 0.0, u01, u02, region, xs, ts,
                                   a_time_dependent=False)
            lattice = _lattice(a, (1.0, -1.0), 1.0, region, xs, ts, False, None, None)
            lattice.precompute(30.0, 0.0, (u01, u02))
            values, coupling = sol.values, lambda q1, q2: q2 - q1
        assert sol.sweeps == 1
        assert np.array_equal(lattice.solved, sol.inside)
        updated = _picard_update(lattice, values, coupling)
        scale = np.abs(values[:, sol.inside]).max()
        assert np.abs(updated - values)[:, sol.inside].max() <= 1e-13 * scale

    def test_time_grid_must_contain_zero(self):
        region = domain_of_determinacy(1.0, 0.4, 0.0)
        xs = np.linspace(-1, 1, 11)
        ts = np.linspace(0.01, 0.4, 10)
        coeffs = TransportCoefficients(a=0.0, f=0.0, g=0.0, u0=lambda x: x, c=0.0)
        with pytest.raises(DomainError):
            solve_transport(coeffs, region, xs, ts)


class TestTargets:
    """A solve restricted to target nodes against the whole-cone solve."""

    @staticmethod
    def _solve(solver, region, xs, ts, phase, targets=None):
        a = lambda x, t: 0.55 + 0.4 * np.sin(3.0 * np.asarray(x, float) + phase)
        f = lambda x, t: 0.5 + 0.8 * np.sin(np.asarray(x, float) - phase)
        g = lambda x, t: 0.3 + np.asarray(x, float) * t
        if solver == "transport":
            coeffs = TransportCoefficients(a=a, f=f, g=g,
                                           u0=lambda x: np.sin(np.pi * np.asarray(x, float)),
                                           c=1.0, a_time_dependent=False)
            return solve_transport(coeffs, region, xs, ts, targets=targets)
        return solve_2x2_system(a, f, g, lambda x: -bump_prime(x), bump_prime, region, xs, ts,
                                a_time_dependent=False, targets=targets)

    # a*dt/dx up to 0.95 * (nx - 1) / (nt - 1) * 0.8 / 2, so the feet skip
    # cells when nx is large against nt
    @settings(max_examples=40, deadline=None)
    @given(solver=st.sampled_from(["transport", "system"]),
           nx=st.integers(5, 41), half_nt=st.integers(1, 12),
           where=st.sampled_from(["above", "below", "zero", "edge"]),
           pick=st.floats(0.0, 1.0), phase=st.floats(0.0, 6.0))
    @example(solver="transport", nx=41, half_nt=2, where="below", pick=0.5, phase=1.0)
    @example(solver="system", nx=41, half_nt=2, where="below", pick=0.3, phase=2.0)
    @example(solver="system", nx=41, half_nt=3, where="edge", pick=0.9, phase=0.0)
    def test_targets_match_the_whole_cone(self, solver, nx, half_nt, where, pick, phase):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, nx, 2 * half_nt + 1)
        cone = region.contains(xs[None, :], ts[:, None])
        i0 = half_nt
        levels = {"above": range(i0 + 1, ts.size), "below": range(0, i0),
                  "zero": [i0], "edge": range(ts.size)}[where]
        levels = [s for s in levels if cone[s].any()]
        s = levels[min(int(pick * len(levels)), len(levels) - 1)]
        row = np.nonzero(cone[s])[0]
        i = row[[0, -1][int(pick > 0.5)]] if where == "edge" \
            else row[min(int(pick * row.size), row.size - 1)]
        targets = np.zeros_like(cone)
        targets[s, i] = True
        full = self._solve(solver, region, xs, ts, phase)
        part = self._solve(solver, region, xs, ts, phase, targets)
        assert np.array_equal(full.inside, cone)
        assert part.inside[s, i] and not np.any(part.inside & ~cone)
        assert np.all(np.isnan(part.values[..., ~part.inside]))
        scale = np.abs(full.values[..., cone]).max()
        assert np.abs(part.values[..., targets] - full.values[..., targets]).max() <= 1e-13 * scale

    def test_targets_are_checked(self):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 21, 21)
        coeffs = TransportCoefficients(a=0.5, f=0.0, g=0.0, u0=lambda x: x, c=1.0)
        outside = np.zeros((21, 21), dtype=bool)
        outside[-1, 0] = True      # x = -1 at t = T
        for targets in (np.zeros((21, 21), bool), np.ones((21, 20), bool), outside):
            with pytest.raises(DomainError):
                solve_transport(coeffs, region, xs, ts, targets=targets)


class TestWaveToSystem:
    def test_homogeneous_material(self):
        a, f, g = wave_to_system(WaveMaterial(
            rho=1.0, E=(lambda x: np.ones_like(np.asarray(x, float)),
                        lambda x: np.zeros_like(np.asarray(x, float))),
            q=lambda x, t: np.full_like(np.asarray(x, float), 2.0)))
        xs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(a(xs, 0.0), 1.0)
        np.testing.assert_allclose(f(xs, 0.0), 0.0)
        np.testing.assert_allclose(g(xs, 0.0), 2.0)

    def test_stiff_homogeneous_material(self):
        a, f, _ = wave_to_system(WaveMaterial(
            rho=1.0, E=(lambda x: 4.0 * np.ones_like(np.asarray(x, float)),
                        lambda x: np.zeros_like(np.asarray(x, float)))))
        xs = np.linspace(-0.5, 0.5, 5)
        np.testing.assert_allclose(a(xs, 0.0), 2.0)
        np.testing.assert_allclose(f(xs, 0.0), 0.0)

    def test_linear_modulus_against_sympy(self):
        x = sympy.Symbol("x")
        E_expr = 1 + x
        a_expr = sympy.sqrt(E_expr)
        f_expr = sympy.diff(E_expr, x) - sympy.diff(a_expr, x) / 2
        a_fn = sympy.lambdify(x, a_expr, "numpy")
        f_fn = sympy.lambdify(x, f_expr, "numpy")
        a, f, _ = wave_to_system(WaveMaterial(
            rho=1.0, E=(lambda xv: 1.0 + np.asarray(xv, dtype=float),
                        lambda xv: np.ones_like(np.asarray(xv, float)))))
        xs = np.linspace(-0.5, 0.9, 11)
        np.testing.assert_allclose(a(xs, 0.0), a_fn(xs), rtol=1e-12)
        np.testing.assert_allclose(f(xs, 0.0), f_fn(xs), rtol=1e-12)

    def test_modulus_looked_up_once_per_point_set(self):
        calls = {"value": 0, "derivative": 0}

        class CountingModulus:
            def value(self, x):
                calls["value"] += 1
                return 1.0 + 0.5 * np.sin(np.asarray(x, float))

            def derivative(self, x):
                calls["derivative"] += 1
                return 0.5 * np.cos(np.asarray(x, float))

        modulus, rho = CountingModulus(), 2.0
        _, f, _ = wave_to_system(WaveMaterial(rho=rho, E=modulus))
        xs = np.linspace(-1.0, 1.0, 7)
        values = f(xs, 0.0)
        assert calls == {"value": 1, "derivative": 1}
        e, e_prime = modulus.value(xs), modulus.derivative(xs)
        np.testing.assert_array_equal(
            values, e_prime / rho - 0.5 * (e_prime / (2.0 * np.sqrt(e * rho))))

    def test_callable_modulus_with_fd(self):
        a, f, _ = wave_to_system(
            WaveMaterial(rho=1.0, E=lambda xv: 1.0 + np.asarray(xv, float)),
            fd_step=1e-6)
        xs = np.linspace(0.0, 0.5, 5)
        np.testing.assert_allclose(f(xs, 0.0), 1.0 - 1.0 / (4.0 * np.sqrt(1.0 + xs)),
                                   rtol=1e-6)

    def test_nonpositive_modulus_rejected(self):
        a, f, _ = wave_to_system(WaveMaterial(
            rho=1.0, E=(lambda xv: np.asarray(xv, dtype=float),
                        lambda xv: np.ones_like(np.asarray(xv, float)))))
        with pytest.raises(MaterialError):
            a(np.array([-0.5, 0.5]), 0.0)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(MaterialError):
            wave_to_system(WaveMaterial(
                rho=-1.0, E=(lambda xv: np.ones_like(np.asarray(xv, float)),
                             lambda xv: np.zeros_like(np.asarray(xv, float)))))


def _dalembert_setup(nx=201, nt=201):
    region = domain_of_determinacy(1.0, 0.4, 1.0)
    xs, ts = build_grids(region, nx, nt)
    a, f, g = wave_to_system(WaveMaterial(
        rho=1.0, E=(lambda x: np.ones_like(np.asarray(x, float)),
                    lambda x: np.zeros_like(np.asarray(x, float)))))
    u01 = lambda x: -bump_prime(x)
    u02 = lambda x: bump_prime(x)
    sol = solve_2x2_system(a, f, g, u01, u02, region, xs, ts, a_time_dependent=False)
    return region, xs, ts, sol


class TestSolve2x2:
    def test_dalembert(self):
        region, xs, ts, sol = _dalembert_setup()
        X, T = np.meshgrid(xs, ts)
        np.testing.assert_allclose(sol.values[0][sol.inside], -bump_prime(X - T)[sol.inside],
                                   atol=1e-10)
        np.testing.assert_allclose(sol.values[1][sol.inside], bump_prime(X + T)[sol.inside],
                                   atol=1e-10)
        displacement = reconstruct_displacement(sol, bump)
        exact = oracle.dalembert(bump, X, T)
        assert np.max(np.abs(displacement - exact)[sol.inside]) <= 1e-4
        # the component mean is the time derivative of the displacement
        dt = ts[1] - ts[0]
        i0 = ts.size // 2
        mid = sol.inside[i0 + 1] & sol.inside[i0 - 1]
        du_dt = (displacement[i0 + 1, mid] - displacement[i0 - 1, mid]) / (2 * dt)
        mean_u12 = 0.5 * (sol.values[0] + sol.values[1])[i0, mid]
        np.testing.assert_allclose(du_dt, mean_u12, atol=1e-4)

    def test_zero_coupling_decouples_into_transport(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        xs, ts = build_grids(region, 101, 101)
        a = const(1.0)
        u01 = lambda x: np.cos(np.pi * x)
        u02 = lambda x: np.sin(np.pi * x)
        sol = solve_2x2_system(a, 0.0, 0.0, u01, u02, region, xs, ts,
                               a_time_dependent=False)
        t1 = solve_transport(TransportCoefficients(a=a, f=0.0, g=0.0, u0=u01, c=1.0,
                                                   a_time_dependent=False),
                             region, xs, ts)
        t2 = solve_transport(TransportCoefficients(a=lambda x, t: -np.ones_like(np.asarray(x, float)),
                                                   f=0.0, g=0.0, u0=u02, c=1.0,
                                                   a_time_dependent=False),
                             region, xs, ts)
        np.testing.assert_array_equal(sol.values[0][sol.inside], t1.values[t1.inside])
        np.testing.assert_array_equal(sol.values[1][sol.inside], t2.values[t2.inside])

    def test_constant_data_is_a_fixed_point(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        xs, ts = build_grids(region, 61, 61)
        k = 2.75
        constk = lambda x: np.full_like(np.asarray(x, float), k)
        sol = solve_2x2_system(const(1.0), lambda x, t: np.sin(x * t), 0.0,
                               constk, constk, region, xs, ts, a_time_dependent=False)
        assert np.all(sol.values[:, sol.inside] == k)

    def test_continuous_dependence_on_speed(self):
        region = domain_of_determinacy(1.0, 0.3, 1.2)
        xs, ts = build_grids(region, 81, 81)
        def solve_with(a_fn):
            return solve_2x2_system(a_fn, 0.1, 0.0,
                                    lambda x: -bump_prime(x), lambda x: bump_prime(x),
                                    region, xs, ts, a_time_dependent=False)

        ref = solve_with(const(1.0))
        diffs = []
        for delta in (1e-2, 1e-3, 1e-4):
            pert = solve_with(const(1.0 + delta))
            diffs.append(np.max(np.abs(pert.values - ref.values)[:, ref.inside]))
        assert diffs[0] > diffs[1] > diffs[2]


class TestReconstruction:
    def test_needs_two_components(self):
        region = domain_of_determinacy(1.0, 0.3, 0.0)
        xs, ts = build_grids(region, 21, 21)
        coeffs = TransportCoefficients(a=0.0, f=0.0, g=0.0, u0=lambda x: x, c=0.0,
                                       a_time_dependent=False)
        sol = solve_transport(coeffs, region, xs, ts)
        with pytest.raises(DomainError):
            reconstruct_displacement(sol, lambda x: x)
