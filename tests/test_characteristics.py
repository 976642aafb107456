"""Method of characteristics: tracing, transport, the 2x2 wave system."""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from randset_pde import characteristics
from randset_pde.config import compile_expression
from randset_pde.characteristics import (
    TransportCoefficients,
    _Lattice,
    _RowLayout,
    _interp_rows,
    _lattice,
    _row_abscissae,
    _row_values,
    _max_step,
    _uniform_levels,
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
    NumericalError,
    SpeedBoundError,
)

def bump(x):
    return np.exp(-16.0 * np.asarray(x, dtype=float) ** 2)


def bump_prime(x):
    x = np.asarray(x, dtype=float)
    return -32.0 * x * np.exp(-16.0 * x**2)


def x_only(fn):
    """fn, marked as a coefficient of x alone: the solvers call it with x only."""
    fn.variables = ("x",)
    return fn


def with_t(fn):
    """A coefficient of x alone as a function of (x, t) that ignores t."""
    return lambda x, t: fn(x)


def const(v):
    return x_only(lambda x, t=None: np.full_like(np.asarray(x, dtype=float), v))


def _picard_update(lattice, values, coupling):
    """One Picard sweep of the discrete integral equations, applied to ``values``.

    ``values`` is (S, components, nt, nx).  Component k of lattice l is
    updated along that lattice's family k as U0 + (F * coupling(feet) + G)
    @ weights, with every component of the lattice linearly interpolated at
    the feet on its level, one ghost node of linear extrapolation per side.
    """
    xs, inside = lattice.xs, lattice.solved
    out = np.full_like(values, np.nan)
    for l, (ul, ul_next) in enumerate(zip(values, out)):
        for k, uk_next in enumerate(ul_next):
            for group in lattice.groups:
                direction = 1 if group.level >= lattice.i0 else -1
                pos = lattice.positions(group)[l, k]
                at_feet = []
                for uk in ul:
                    feet = np.empty_like(pos)
                    for m in range(group.taus.size):
                        s = lattice.i0 + direction * m
                        xr, vr = xs[inside[s]], uk[s, inside[s]]
                        xe = np.concatenate(([2 * xr[0] - xr[1]], xr, [2 * xr[-1] - xr[-2]]))
                        ve = np.concatenate(([2 * vr[0] - vr[1]], vr, [2 * vr[-1] - vr[-2]]))
                        feet[:, m] = np.interp(pos[:, m], xe, ve)
                    at_feet.append(feet)
                uk_next[group.level, group.node_ids] = (
                    group.U0[l, k]
                    + (group.F[l, k] * coupling(*at_feet) + group.G[l, k]) @ group.weights)
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
                                       u0=lambda x: np.sin(np.pi * x), c=1.0)
        sol = solve_transport(coeffs, region, xs, ts)
        X, T = np.meshgrid(xs, ts)
        exact = np.sin(np.pi * (X - T))
        assert np.max(np.abs(sol.values - exact)[sol.inside]) <= 1e-6

    def test_pointwise_reaction(self):
        lam = 0.3
        region = domain_of_determinacy(1.0, 0.2, 0.0)
        xs, ts = build_grids(region, 101, 201)
        coeffs = TransportCoefficients(a=0.0, f=lam, g=0.0,
                                       u0=lambda x: np.sin(np.pi * x), c=0.0)
        sol = solve_transport(coeffs, region, xs, ts)
        X, T = np.meshgrid(xs, ts)
        exact = np.sin(np.pi * X) * np.exp(lam * T)
        rel = np.abs(sol.values - exact) / np.maximum(np.abs(exact), 1e-300)
        assert np.max(rel[sol.inside]) <= 1e-8

    def test_constant_source_exact(self):
        region = domain_of_determinacy(1.0, 0.2, 0.0)
        xs, ts = build_grids(region, 51, 101)
        coeffs = TransportCoefficients(a=0.0, f=0.0, g=1.0,
                                       u0=lambda x: np.cos(x), c=0.0)
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

        coeffs = TransportCoefficients(a=const(1.0), f=0.4, g=0.0, u0=u0, c=1.0)
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
                                       u0=lambda x: x, c=1.0)
        with pytest.raises(SpeedBoundError):
            solve_transport(coeffs, region, xs, ts)

    @pytest.mark.parametrize("solver", ["transport", "system"])
    def test_solution_is_the_discrete_fixed_point(self, solver):
        # strong coupling over the whole cone, where Picard needs many sweeps
        region = domain_of_determinacy(1.0, 0.4, 0.0 if solver == "transport" else 1.0)
        xs, ts = build_grids(region, 41, 41)
        if solver == "transport":
            ones = lambda x: np.ones_like(np.asarray(x, float))
            coeffs = TransportCoefficients(a=0.0, f=30.0, g=0.0, u0=ones, c=0.0)
            sol = solve_transport(coeffs, region, xs, ts)
            lattice = _lattice(0.0, (1.0,), 0.0, region, xs, ts, None)
            lattice.precompute(30.0, 0.0, (ones,))
            values, coupling = sol.values[None, None], lambda u: u
        else:
            a, u01, u02 = const(1.0), lambda x: -bump_prime(x), bump_prime
            sol = solve_2x2_system(a, 30.0, 0.0, u01, u02, region, xs, ts)
            lattice = _lattice(a, (1.0, -1.0), 1.0, region, xs, ts, None)
            lattice.precompute(30.0, 0.0, (u01, u02))
            values, coupling = sol.values[None], lambda q1, q2: q2 - q1
        assert sol.sweeps == 1
        assert np.array_equal(lattice.solved, sol.inside)
        updated = _picard_update(lattice, values, coupling)
        scale = np.abs(values[..., sol.inside]).max()
        assert np.abs(updated - values)[..., sol.inside].max() <= 1e-13 * scale

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
        a = x_only(lambda x: 0.55 + 0.4 * np.sin(3.0 * np.asarray(x, float) + phase))
        f = lambda x, t: 0.5 + 0.8 * np.sin(np.asarray(x, float) - phase)
        g = lambda x, t: 0.3 + np.asarray(x, float) * t
        if solver == "transport":
            coeffs = TransportCoefficients(a=a, f=f, g=g,
                                           u0=lambda x: np.sin(np.pi * np.asarray(x, float)),
                                           c=1.0)
            return solve_transport(coeffs, region, xs, ts, targets=targets)
        return solve_2x2_system(a, f, g, lambda x: -bump_prime(x), bump_prime, region, xs, ts,
                                targets=targets)

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


class TestLatticeCurves:
    """Which characteristic curves a lattice traces, and their feet.

    The feet are RK4 at step 0.02 against a trace at step 2e-3, within
    FOOT_TOL; one curve per abscissa where it does not apply puts them 0.03
    off on the uneven levels below and 0.07 off for the t-dependent speed.
    """

    FOOT_TOL = 2e-7

    @staticmethod
    @x_only
    def speed(x, t=None):
        return 0.55 + 0.4 * np.sin(3.0 * np.asarray(x, float) + 1.0)

    @staticmethod
    def worst_foot_error(lattice, speed, signs):
        """Largest distance of a node's foot on t = 0 from a fine-step trace."""
        worst = 0.0
        for group in lattice.groups:
            t = lattice.ts[group.level]
            for n, x in enumerate(lattice.xs[group.node_ids]):
                for k, sign in enumerate(signs):
                    ref = trace_characteristic(lambda y, tau: sign * speed(y, tau), x, t,
                                               group.taus[0], 2e-3).positions[-1]
                    worst = max(worst, abs(lattice.positions(group)[0, k, n, 0] - ref))
        return worst

    def lattice(self, speed, ts, signs=(1.0, -1.0)):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs = np.linspace(-1.0, 1.0, 21)
        targets = np.zeros((ts.size, xs.size), dtype=bool)
        targets[-3, 9] = targets[1, 12] = True
        return _lattice(speed, signs, 1.0, region, xs, ts, targets)

    def test_uniform_levels_share_one_curve_per_abscissa(self):
        _, ts = build_grids(domain_of_determinacy(1.0, 0.4, 1.0), 21, 21)
        lattice = self.lattice(self.speed, ts)
        assert lattice.shared
        assert self.worst_foot_error(lattice, self.speed, (1.0, -1.0)) <= self.FOOT_TOL

    def test_uneven_levels_keep_a_curve_per_node(self):
        _, ts = build_grids(domain_of_determinacy(1.0, 0.4, 1.0), 21, 21)
        inner = np.r_[1:10, 11:20]
        ts[inner] += 0.3 * 0.04 * np.sin(3.0 * inner)
        lattice = self.lattice(self.speed, ts)
        assert not lattice.shared
        assert self.worst_foot_error(lattice, self.speed, (1.0, -1.0)) <= self.FOOT_TOL

    def test_time_dependent_speed_keeps_a_curve_per_node(self):
        def speed(x, t):
            return 0.55 + 0.4 * np.sin(3.0 * np.asarray(x, float) + 8.0 * t)

        _, ts = build_grids(domain_of_determinacy(1.0, 0.4, 1.0), 21, 21)
        lattice = self.lattice(speed, ts)
        assert not lattice.shared
        assert self.worst_foot_error(lattice, speed, (1.0, -1.0)) <= self.FOOT_TOL

    @pytest.mark.parametrize("speed_reads_t", [False, True])
    def test_gathered_feet_are_the_feet_traced_onto_each_level(self, speed_reads_t,
                                                                monkeypatch):
        # shared or per-node curves, a group's feet on level m are, bit for
        # bit, the feet that level's node search saw, at the group's start
        # (after the plus side's on t = 0 for a group below it); the groups
        # tile each level's feet, the last foot is the node itself, and
        # feet_index reads the earlier feet out of all of them level by level
        seen = {}
        search = _Lattice._dependence

        def recording(lattice, s, feet, cone, targets):
            seen[s] = feet.copy()
            return search(lattice, s, feet, cone, targets)

        monkeypatch.setattr(_Lattice, "_dependence", recording)
        a, _, _ = _phase_coefficients(np.array([0.0, 2.0, 4.5]), given_t=speed_reads_t)
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 31, 31)
        targets = np.zeros((31, 31), dtype=bool)
        targets[15:27, 17] = targets[3, 12] = targets[28, 8] = True
        lattice = _lattice(a, (1.0, -1.0), 1.0, region, xs, ts, targets, 3)
        assert lattice.shared != speed_reads_t
        assert lattice.landed.keys() == seen.keys()
        assert all(np.array_equal(lattice.landed[s], feet) for s, feet in seen.items())
        hits = {s: np.zeros(feet.shape[2], dtype=int) for s, feet in seen.items()}
        level_major = np.concatenate([seen[s] for s in range(ts.size)], axis=2)
        assert level_major.shape[2] == lattice.n_feet
        for group in lattice.groups:
            direction = 1 if group.level > lattice.i0 else -1
            pos = lattice.positions(group)
            assert pos.shape == group.shape
            assert np.array_equal(level_major.take(lattice.feet_index(group), axis=2),
                                  pos[..., :-1])
            for m in range(group.taus.size - 1):
                s = lattice.i0 + direction * m
                at = group.start + (lattice.minus_shift if direction < 0 and m == 0 else 0)
                cols = slice(at, at + group.node_ids.size)
                assert np.array_equal(pos[:, :, :, m], seen[s][:, :, cols])
                hits[s][cols] += 1
            assert np.array_equal(pos[..., -1], np.broadcast_to(xs[group.node_ids], pos.shape[:3]))
        assert all((count == 1).all() for count in hits.values())

    @pytest.mark.parametrize("nt", [3, 41, 201, 401])
    def test_build_grids_levels_count_as_uniform(self, nt):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 41, nt)
        assert _uniform_levels(ts, _max_step(xs, ts))
        ts[1] += 1e-9
        assert not _uniform_levels(ts, _max_step(xs, ts))

    def test_stack_size_is_checked(self):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 11, 11)
        coeffs = TransportCoefficients(a=0.5, f=0.0, g=0.0, u0=lambda x: x, c=1.0)
        with pytest.raises(DomainError, match="at least one lattice"):
            solve_transport(coeffs, region, xs, ts, lattices=0)

    @pytest.mark.parametrize("speed_reads_t", [False, True])
    @pytest.mark.parametrize("solver", ["transport", "system"])
    def test_stacked_lattices_equal_their_single_solves(self, solver, speed_reads_t):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 31, 31)
        targets = np.zeros((31, 31), dtype=bool)
        targets[27, 12] = targets[15:27, 17] = True     # a node, and a column from t = 0

        def solve(phase, lattices=None):
            def shift(x):
                # lattice l reads phase[l] at the points x[l]
                return np.reshape(phase, np.shape(phase) + (1,) * (np.ndim(x) - np.ndim(phase)))

            a = x_only(lambda x: 0.55 + 0.4 * np.sin(3.0 * x + shift(x)))
            if speed_reads_t:
                a = with_t(a)
            f = lambda x, t: 0.5 + 0.8 * np.sin(x - shift(x))
            g = lambda x, t: 0.3 + x * t
            if solver == "transport":
                coeffs = TransportCoefficients(a=a, f=f, g=g, u0=lambda x: np.sin(x + shift(x)),
                                               c=1.0)
                return solve_transport(coeffs, region, xs, ts, targets=targets,
                                       lattices=lattices)
            return solve_2x2_system(a, f, g, lambda x: -bump_prime(x - 0.1 * shift(x)),
                                    bump_prime, region, xs, ts,
                                    targets=targets, lattices=lattices)

        phases = np.array([0.0, 2.0, 4.5])
        stacked = solve(phases, lattices=3)
        assert stacked.lattices == 3 and stacked.values.shape[0] == 3
        for l, phase in enumerate(phases):
            single = solve(phase)
            assert single.lattices is None
            assert not np.any(single.inside & ~stacked.inside)
            assert np.array_equal(stacked.values[l][..., single.inside],
                                  single.values[..., single.inside])
            if solver == "system":
                w = lambda x: np.exp(-16.0 * x**2)
                own = reconstruct_displacement(single, w)
                done = np.isfinite(own)
                assert done[15:27, 17].all()
                assert np.array_equal(reconstruct_displacement(stacked, w)[l][done], own[done])


def _phase_coefficients(phases, given_t=False):
    """Speed, f and g of a stack of problems that ignore t; lattice l reads
    phases[l] at its points x[l].  They are marked as functions of x alone,
    or with ``given_t`` are functions of (x, t) that ignore t."""
    def shift(x):
        return np.reshape(phases, np.shape(phases) + (1,) * (np.ndim(x) - np.ndim(phases)))

    a = lambda x: 0.55 + 0.4 * np.sin(3.0 * x + shift(x))
    f = lambda x: 0.5 + 0.8 * np.sin(x - shift(x))
    g = lambda x: 0.3 + np.cos(2.0 * x + shift(x))
    return tuple(with_t(fn) if given_t else x_only(fn) for fn in (a, f, g))


class TestCurveValues:
    """f and g once per point of the shared curves, to the per-foot values."""

    @staticmethod
    def lattices(a, targets, n_lattices, nx=31):
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, nx, nx)
        return [_lattice(a, (1.0, -1.0), 1.0, region, xs, ts, targets, n_lattices)
                for _ in range(2)]

    @pytest.mark.parametrize("column", [False, True])
    @pytest.mark.parametrize("phases", [np.array([0.0, 2.0, 4.5]), None])
    def test_per_curve_values_equal_per_foot_values(self, phases, column):
        a, f, g = _phase_coefficients(0.0 if phases is None else phases)
        targets = None
        if column:
            targets = np.zeros((31, 31), dtype=bool)
            targets[15:27, 17] = targets[3, 12] = True
        per_curve, per_foot = self.lattices(a, targets, None if phases is None else phases.size)
        assert per_curve.shared and len(per_curve.curve_sides) == 2
        calls = []

        def counted(fn):
            # the same form as fn: marked as x alone, or given (x, t)
            def wrapper(x, *t):
                calls.append(np.size(x))
                return fn(x, *t)
            wrapper.variables = getattr(fn, "variables", ("x", "t"))
            return wrapper

        u0s = (lambda x: -bump_prime(x), bump_prime)
        per_curve.precompute(counted(f), g, u0s)
        curve_points = sum(calls)
        calls.clear()
        # the same f and g as functions of (x, t): called at every foot
        per_foot.precompute(counted(with_t(f)), with_t(g), u0s)
        assert curve_points < sum(calls) / 3
        for one, other in zip(per_curve.groups, per_foot.groups):
            for name in ("F", "G", "U0"):
                assert getattr(one, name).shape == getattr(other, name).shape
                np.testing.assert_array_equal(getattr(one, name), getattr(other, name))

    def test_solutions_are_bitwise_equal(self):
        a, f, g = _phase_coefficients(np.array([0.0, 2.0]))
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 31, 31)
        solve = lambda f, g: solve_2x2_system(a, f, g, lambda x: -bump_prime(x), bump_prime,
                                              region, xs, ts, lattices=2)
        one, other = solve(f, g), solve(with_t(f), with_t(g))
        np.testing.assert_array_equal(one.inside, other.inside)
        np.testing.assert_array_equal(one.values, other.values)

    @pytest.mark.parametrize("speed_reads_t", [False, True])
    def test_time_dependent_g_or_per_node_curves_keep_the_per_foot_path(self, speed_reads_t,
                                                                         monkeypatch):
        # g reads t, so f and g are called at each foot, at its own time,
        # whether the curves are shared or (a speed that reads t) per node
        a, f, _ = _phase_coefficients(0.0)
        g = lambda x, t: np.cos(x) * (1.0 + t)
        lattice = self.lattices(with_t(a) if speed_reads_t else a, None, None)[0]
        assert lattice.shared != speed_reads_t
        monkeypatch.delattr(_Lattice, "_curve_values")
        lattice.precompute(f, g, (bump, bump))
        for group in lattice.groups:
            pos = lattice.positions(group)
            expected = g(pos, np.broadcast_to(group.taus, pos.shape))
            np.testing.assert_array_equal(group.G, expected)
            np.testing.assert_array_equal(group.F, f(pos))

    @pytest.mark.parametrize("speed_reads_t", [False, True])
    def test_f_and_g_are_called_once_per_group_or_curve_side(self, speed_reads_t):
        # a 201x201 whole cone: the 2x2 system's shared curves hold tens of
        # thousands of points per side, and with a speed that reads t each
        # level is one group of transport feet, on curves of their own and
        # with its own taus
        a, f, g = _phase_coefficients(0.0)
        signs = (1.0, -1.0)
        if speed_reads_t:
            a, g, signs = with_t(a), lambda x, t: np.cos(x) * (1.0 + t), (1.0,)
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 201, 201)
        lattice = _lattice(a, signs, 1.0, region, xs, ts, None)
        sides = len(lattice.curve_sides)
        assert lattice.shared != speed_reads_t and sides == (0 if speed_reads_t else 2)
        calls = {"f": 0, "g": 0}

        def counted(name, fn):
            def wrapper(x, *t):
                calls[name] += 1
                return fn(x, *t)
            wrapper.variables = getattr(fn, "variables", ("x", "t"))
            return wrapper

        lattice.precompute(counted("f", f), counted("g", g), (bump,) * len(signs))
        # shared curves: one call per side, and one for the t = 0 group
        per_foot = len(lattice.groups) if speed_reads_t else 1
        assert calls == {"f": sides + per_foot, "g": sides + per_foot}
        for group in lattice.groups:
            pos = lattice.positions(group)
            for fn, values in ((f, group.F), (g, group.G)):
                reads_t = getattr(fn, "variables", ("x", "t")) != ("x",)
                expected = fn(pos, group.taus) if reads_t else fn(pos)
                assert values.shape == group.shape
                np.testing.assert_array_equal(values, expected)

    def test_non_finite_curve_values_are_named(self):
        a, _, g = _phase_coefficients(0.0)
        lattice = self.lattices(a, None, None)[0]
        f = x_only(lambda x: np.where(x > 0.5, np.nan, 1.0))
        with pytest.raises(NumericalError, match="coefficient f is not finite"):
            lattice.precompute(f, g, (bump, bump))

    def test_constant_f_and_g_are_checked_once_and_broadcast(self):
        a, _, _ = _phase_coefficients(0.0)
        lattice, nan_lattice = self.lattices(a, None, None)
        g = lambda x: -1.0
        g.variables = ()          # a callable that reads neither x nor t
        lattice.precompute(0.3, g, (bump, bump))
        for group in lattice.groups:
            assert group.F.shape == group.G.shape == group.shape
            assert np.all(group.F == 0.3) and np.all(group.G == -1.0)
        with pytest.raises(NumericalError, match="coefficient f is not finite"):
            nan_lattice.precompute(np.nan, 0.0, (bump, bump))


class TestCoefficientRule:
    """A coefficient's form says whether it reads t: a number, a field object
    (``value(x)``, no ``__call__``) or a callable whose ``variables`` lack
    "t" is called with x alone; any other callable with (x, t)."""

    class Field:
        """A field object: it has value(x) and no __call__, so it can take no t."""

        def __init__(self, fn):
            self.fn = fn

        def value(self, x):
            return self.fn(np.asarray(x, dtype=float))

    def test_field_objects_are_never_given_t(self):
        a, f, g = _phase_coefficients(0.0)
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 31, 31)
        fields = [self.Field(fn) for fn in (a, f, g)]
        u01, u02 = self.Field(lambda x: -bump_prime(x)), self.Field(bump_prime)
        assert _lattice(fields[0], (1.0, -1.0), 1.0, region, xs, ts, None).shared
        by_field = solve_2x2_system(*fields, u01, u02, region, xs, ts)
        by_function = solve_2x2_system(a, f, g, lambda x: -bump_prime(x), bump_prime,
                                       region, xs, ts)
        np.testing.assert_array_equal(by_field.values, by_function.values)
        by_field = solve_transport(TransportCoefficients(*fields, u0=u02, c=1.0), region, xs, ts)
        by_function = solve_transport(TransportCoefficients(a, f, g, u0=bump_prime, c=1.0),
                                      region, xs, ts)
        np.testing.assert_array_equal(by_field.values, by_function.values)

    @pytest.mark.parametrize("names_t", [None, "speed", "f"])
    def test_compiled_expressions_choose_their_paths(self, names_t, monkeypatch):
        # without t: one shared curve per abscissa, f and g once per curve
        # point; a speed that names t: a curve per node; f or g that names t:
        # f and g at each foot, at its own time
        sources = {"speed": "0.55 + 0.4*sin(3*x + 1)", "f": "0.5 + 0.8*sin(x)",
                   "g": "0.3 + cos(2*x)"}
        a, f, g = (compile_expression(src + (" + 0*t" if name == names_t else ""))
                   for name, src in sources.items())
        for name, fn in zip(sources, (a, f, g)):
            assert fn.variables == (("x", "t") if name == names_t else ("x",))
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 31, 31)
        lattice = _lattice(a, (1.0, -1.0), 1.0, region, xs, ts, None)
        assert lattice.shared == (names_t != "speed")
        curve_calls = []
        curve_values = _Lattice._curve_values

        def recording(*args):
            curve_calls.append(args)
            return curve_values(*args)

        monkeypatch.setattr(_Lattice, "_curve_values", recording)
        lattice.precompute(f, g, (bump, bump))
        assert bool(curve_calls) == (names_t is None)
        for group in lattice.groups:
            pos = lattice.positions(group)
            taus = np.broadcast_to(group.taus, pos.shape)
            np.testing.assert_array_equal(group.F, np.broadcast_to(f(pos, taus), taus.shape))
            np.testing.assert_array_equal(group.G, np.broadcast_to(g(pos, taus), taus.shape))

    @pytest.mark.parametrize("form", ["expression", "function"])
    def test_speed_past_its_bound_only_off_t_zero_is_caught(self, form):
        # |a| = 0.5 <= c = 1 at t = 0, and 1.3 at |t| = T = 0.4
        a = compile_expression("0.5 + 5*t**2") if form == "expression" \
            else lambda x, t: 0.5 + 5.0 * t**2 + 0.0 * x
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 41, 41)
        with pytest.raises(SpeedBoundError, match="reaches 1.3"):
            solve_transport(TransportCoefficients(a=a, f=0.0, g=0.0, u0=bump, c=1.0),
                            region, xs, ts)
        with pytest.raises(SpeedBoundError, match="reaches 1.3"):
            solve_2x2_system(a, 0.0, 0.0, bump, bump, region, xs, ts)


class TestBatchedInterpolation:
    """Every lattice and component interpolated on each foot's interval at once."""

    @staticmethod
    def check(xs, ids, vrows, q):
        # queries on [xe[0], xe[-1]) take their searchsorted interval, NaN the last
        xe, ve = _row_abscissae(xs, ids), _row_values(vrows)
        j = np.minimum(np.searchsorted(xe, q, side="right") - 1, xe.size - 2)
        out = _interp_rows(_RowLayout(xe, j), ve, q)
        assert out.shape == vrows.shape[1:2] + q.shape
        for l in range(vrows.shape[0]):
            for c in range(vrows.shape[1]):
                np.testing.assert_array_equal(out[c, l], np.interp(q[l], xe, ve[c, l]))
        return xe, ve

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_np_interp_on_nodes_ends_and_between(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.linspace(-1.0, 1.0, 41)
        ids = np.arange(7, 30)
        vrows = rng.normal(size=(3, 2, ids.size))
        lo, hi = 2 * xs[7] - xs[8], 2 * xs[29] - xs[28]       # the ghost nodes
        q = np.concatenate([xs[ids], [lo, np.nextafter(hi, lo)], rng.uniform(lo, hi, 200)])
        q = np.stack([rng.permutation(q) for _ in range(3)])
        q[1, :4] = np.nan
        xe, _ = self.check(xs, ids, vrows, q)
        assert (xe[0], xe[-1]) == (lo, hi)

    def test_single_node_rows(self):
        xs = np.linspace(-1.0, 1.0, 11)
        vrows = np.array([[[1.5], [-2.0]], [[0.25], [7.0]]])
        dx = np.mean(np.diff(xs))
        q = xs[6] + dx * np.array([[0.0, 0.5, -1.0, 0.95, -0.25], [-0.95, 0.0, 0.75, np.nan, 0.25]])
        xe, ve = self.check(xs, np.array([6]), vrows, q)
        np.testing.assert_array_equal(xe, [xs[6] - dx, xs[6], xs[6] + dx])
        np.testing.assert_array_equal(ve, np.repeat(vrows, 3, axis=2).transpose(1, 0, 2))

    @pytest.mark.parametrize("partial", [False, True])
    def test_lattice_places_every_foot_as_searchsorted_does(self, partial):
        a, _, _ = _phase_coefficients(np.array([0.0, 2.0, 4.5]))
        targets = None
        if partial:
            targets = np.zeros((31, 31), dtype=bool)
            targets[15:27, 17] = targets[3, 12] = True
        lattice = TestCurveValues.lattices(a, targets, 3)[0]
        assert set(lattice.rows) == {s for s, feet in lattice.landed.items() if feet.size}
        for s, layout in lattice.rows.items():
            group = next(g for g in lattice.groups if g.level == s)
            xe = _row_abscissae(lattice.xs, group.node_ids)
            q = lattice.landed[s].reshape(3, -1)
            np.testing.assert_array_equal(layout.xe, xe)
            np.testing.assert_array_equal(layout.jl, np.searchsorted(xe, q, side="right") - 1)

    @pytest.mark.parametrize("nodes", [[5], [3, 4, 5, 6, 7], [2, 8]])
    def test_feet_beside_the_end_nodes_and_on_single_node_rows(self, nodes):
        a, _, _ = _phase_coefficients(0.0)
        lattice = TestCurveValues.lattices(a, None, None, nx=11)[0]
        cone = np.zeros((11, 11), dtype=bool)
        cone[4, nodes] = True
        xs = lattice.xs
        feet = np.concatenate([xs[nodes], [-3.0, 3.0, xs[nodes[0]] - 0.19, xs[nodes[-1]] + 0.19,
                                           xs[nodes[0]] - 0.21, xs[nodes[-1]] + 0.21,
                                           0.5 * (xs[nodes[0]] + xs[nodes[-1]]) + 0.01]])
        ids = lattice._dependence(4, feet.reshape(1, 1, -1), cone, np.zeros_like(cone))
        np.testing.assert_array_equal(ids, nodes if len(nodes) < 3 else np.arange(3, 8))
        xe, layout = _row_abscissae(xs, ids), lattice.rows[4]
        np.testing.assert_array_equal(layout.xe, xe)
        # beside the first node [ghost, first node], beside the last [last node, ghost]
        j = np.searchsorted(xe, feet, side="right") - 1
        np.testing.assert_array_equal(layout.jl[0], np.clip(j, 0, xe.size - 2))
        inside = (xe[0] <= feet) & (feet < xe[-1])
        ve = _row_values(np.random.default_rng(1).normal(size=(1, 2, ids.size)))
        out = _interp_rows(layout, ve, feet[None])
        for c in range(2):
            np.testing.assert_array_equal(out[c, 0, inside], np.interp(feet[inside], xe, ve[c, 0]))
        # beyond the ghosts a row is extrapolated: a linear row reads its line
        slope = 0.0 if ids.size == 1 else 1.5
        line = np.stack([slope * xs[ids] - 0.5, 2.0 - slope * xs[ids]])
        out = _interp_rows(layout, _row_values(line[None]), feet[None])
        np.testing.assert_allclose(out[:, 0], [slope * feet - 0.5, 2.0 - slope * feet],
                                   rtol=0.0, atol=1e-12)

    # a*dt/dx up to 0.95 * (nx - 1) / (nt - 1) * 0.8 / 2, so the feet skip
    # cells when nx is large against nt
    @settings(max_examples=40, deadline=None)
    @given(solver=st.sampled_from(["transport", "system"]), speed_reads_t=st.booleans(),
           nx=st.integers(5, 41), half_nt=st.integers(1, 12),
           lattices=st.sampled_from([None, 1, 2, 3]), phase=st.floats(0.0, 6.0),
           picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=4))
    @example(solver="system", speed_reads_t=False, nx=41, half_nt=2, lattices=3, phase=1.0,
             picks=[])
    @example(solver="transport", speed_reads_t=True, nx=41, half_nt=1, lattices=2, phase=4.0,
             picks=[(1.0, 1.0), (0.0, 0.0)])
    def test_every_landed_foot_lies_inside_its_row_and_reads_np_interp(
            self, solver, speed_reads_t, nx, half_nt, lattices, phase, picks):
        # on real lattices, shared or per-node curves, whole cone or targets:
        # the march interpolates every foot on [xe[0], xe[-1]) of its row
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, nx, 2 * half_nt + 1)
        cone = region.contains(xs[None, :], ts[:, None])
        targets = np.zeros_like(cone)
        for u, v in picks:
            s = min(int(u * ts.size), ts.size - 1)
            row = np.nonzero(cone[s])[0]
            targets[s, row[min(int(v * row.size), row.size - 1)]] = True
        phases = phase + 1.3 * np.arange(lattices or 1)

        def shift(x):
            # lattice l reads phases[l] at the points x[l]; one lattice its phase
            p = phases if lattices else phase
            return np.reshape(p, np.shape(p) + (1,) * (np.ndim(x) - np.ndim(p)))

        if speed_reads_t:
            a = lambda x, t: 0.55 + 0.4 * np.sin(3.0 * x + shift(x) + 5.0 * t)
        else:
            a = x_only(lambda x: 0.55 + 0.4 * np.sin(3.0 * x + shift(x)))
        f = lambda x, t: 0.5 + 0.8 * np.sin(x - shift(x))
        g = lambda x, t: 0.3 + x * t
        calls = []

        def recording(layout, ve, q):
            out = _interp_rows(layout, ve, q)
            calls.append((layout, ve.copy(), q.copy(), out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(characteristics, "_interp_rows", recording)
            kwargs = dict(targets=targets if targets.any() else None, lattices=lattices)
            if solver == "transport":
                coeffs = TransportCoefficients(a=a, f=f, g=g, u0=lambda x: np.sin(x + shift(x)),
                                               c=1.0)
                solve_transport(coeffs, region, xs, ts, **kwargs)
            else:
                solve_2x2_system(a, f, g, lambda x: -bump_prime(x - 0.1 * shift(x)),
                                 bump_prime, region, xs, ts, **kwargs)
        for layout, ve, q, out in calls:
            xe = layout.xe
            assert np.all((xe[0] <= q) & (q < xe[-1]))
            np.testing.assert_array_equal(layout.jl, np.searchsorted(xe, q, side="right") - 1)
            for c in range(ve.shape[0]):
                for l in range(ve.shape[1]):
                    np.testing.assert_array_equal(out[c, l], np.interp(q[l], xe, ve[c, l]))


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
        # the point set of a stacked lattice: one row of points per lattice
        xs = np.linspace(-1.0, 1.0, 14).reshape(2, 7)
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

    def test_variable_density_against_sympy(self):
        # a' of a callable density comes from central differences of step fd_step
        x = sympy.Symbol("x")
        E_expr, rho_expr = 1 + x, 2 + x
        a_expr = sympy.sqrt(E_expr / rho_expr)
        f_expr = sympy.diff(E_expr, x) / rho_expr - sympy.diff(a_expr, x) / 2
        a_fn = sympy.lambdify(x, a_expr, "numpy")
        f_fn = sympy.lambdify(x, f_expr, "numpy")
        material = WaveMaterial(
            rho=lambda xv: 2.0 + np.asarray(xv, dtype=float),
            E=(lambda xv: 1.0 + np.asarray(xv, dtype=float),
               lambda xv: np.ones_like(np.asarray(xv, float))))
        a, f, _ = wave_to_system(material, fd_step=1e-6)
        xs = np.linspace(-0.5, 0.9, 11)
        assert np.max(np.abs(a(xs, 0.0) - a_fn(xs))) <= 1e-8
        assert np.max(np.abs(f(xs, 0.0) - f_fn(xs))) <= 1e-8
        with pytest.raises(DomainError):
            wave_to_system(material)

    def test_nonpositive_modulus_rejected(self):
        a, f, _ = wave_to_system(WaveMaterial(
            rho=1.0, E=(lambda xv: np.asarray(xv, dtype=float),
                        lambda xv: np.ones_like(np.asarray(xv, float)))))
        with pytest.raises(MaterialError):
            a(np.array([-0.5, 0.5]), 0.0)

    def test_modulus_check_with_nan(self):
        # a NaN modulus alone passes the check (its speed is NaN); beside a
        # nonpositive value it does not
        a, _, _ = wave_to_system(WaveMaterial(
            rho=1.0, E=(lambda xv: np.asarray(xv, dtype=float),
                        lambda xv: np.ones_like(np.asarray(xv, float)))))
        assert np.isnan(a(np.array([0.5, np.nan]), 0.0)[1])
        with pytest.raises(MaterialError, match="E must stay positive"):
            a(np.array([np.nan, -0.5, 0.5]), 0.0)
        assert a(np.empty(0), 0.0).shape == (0,)

    def test_nonpositive_density_rejected(self):
        modulus = (lambda xv: np.ones_like(np.asarray(xv, float)),
                   lambda xv: np.zeros_like(np.asarray(xv, float)))
        with pytest.raises(MaterialError):
            wave_to_system(WaveMaterial(rho=-1.0, E=modulus))
        # a callable density is checked where it is evaluated
        a, _, _ = wave_to_system(
            WaveMaterial(rho=lambda xv: np.asarray(xv, dtype=float), E=modulus), fd_step=1e-6)
        with pytest.raises(MaterialError):
            a(np.array([-0.5, 0.5]), 0.0)


def _dalembert_setup(nx=201, nt=201):
    region = domain_of_determinacy(1.0, 0.4, 1.0)
    xs, ts = build_grids(region, nx, nt)
    a, f, g = wave_to_system(WaveMaterial(
        rho=1.0, E=(lambda x: np.ones_like(np.asarray(x, float)),
                    lambda x: np.zeros_like(np.asarray(x, float)))))
    u01 = lambda x: -bump_prime(x)
    u02 = lambda x: bump_prime(x)
    sol = solve_2x2_system(a, f, g, u01, u02, region, xs, ts)
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
        sol = solve_2x2_system(a, 0.0, 0.0, u01, u02, region, xs, ts)
        t1 = solve_transport(TransportCoefficients(a=a, f=0.0, g=0.0, u0=u01, c=1.0),
                             region, xs, ts)
        t2 = solve_transport(TransportCoefficients(a=const(-1.0), f=0.0, g=0.0, u0=u02, c=1.0),
                             region, xs, ts)
        np.testing.assert_array_equal(sol.values[0][sol.inside], t1.values[t1.inside])
        np.testing.assert_array_equal(sol.values[1][sol.inside], t2.values[t2.inside])

    def test_constant_data_is_a_fixed_point(self):
        region = domain_of_determinacy(1.0, 0.3, 1.0)
        xs, ts = build_grids(region, 61, 61)
        k = 2.75
        constk = lambda x: np.full_like(np.asarray(x, float), k)
        sol = solve_2x2_system(const(1.0), lambda x, t: np.sin(x * t), 0.0,
                               constk, constk, region, xs, ts)
        assert np.all(sol.values[:, sol.inside] == k)

    def test_continuous_dependence_on_speed(self):
        region = domain_of_determinacy(1.0, 0.3, 1.2)
        xs, ts = build_grids(region, 81, 81)
        def solve_with(a_fn):
            return solve_2x2_system(a_fn, 0.1, 0.0,
                                    lambda x: -bump_prime(x), lambda x: bump_prime(x),
                                    region, xs, ts)

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
        coeffs = TransportCoefficients(a=0.0, f=0.0, g=0.0, u0=lambda x: x, c=0.0)
        sol = solve_transport(coeffs, region, xs, ts)
        with pytest.raises(DomainError):
            reconstruct_displacement(sol, lambda x: x)

    @staticmethod
    def level_by_level(solution, w):
        """The trapezoid accumulation one level at a time, every column at once."""
        xs, ts, inside = solution.xs, solution.ts, solution.inside
        i0 = int(np.argmin(np.abs(ts)))
        v = 0.5 * (solution.values[..., 0, :, :] + solution.values[..., 1, :, :])
        u = np.full(v.shape, np.nan)
        u[..., i0, inside[i0]] = w(xs[inside[i0]])
        for j in range(i0 + 1, ts.size):
            sel = inside[j]
            u[..., j, sel] = u[..., j - 1, sel] + 0.5 * (ts[j] - ts[j - 1]) * (
                v[..., j - 1, sel] + v[..., j, sel])
        for j in range(i0 - 1, -1, -1):
            sel = inside[j]
            u[..., j, sel] = u[..., j + 1, sel] + 0.5 * (ts[j] - ts[j + 1]) * (
                v[..., j + 1, sel] + v[..., j, sel])
        return u

    @pytest.mark.parametrize("lattices", [None, 2])
    @pytest.mark.parametrize("partial", [False, True])
    def test_accumulation_and_one_column_are_bitwise_the_level_loop(self, lattices, partial):
        a, f, g = _phase_coefficients(np.array([0.0, 2.0]) if lattices else 0.0)
        region = domain_of_determinacy(1.0, 0.4, 1.0)
        xs, ts = build_grids(region, 31, 31)
        targets = None
        if partial:
            targets = np.zeros((31, 31), dtype=bool)
            targets[15:27, 17] = targets[3:9, 12] = True
        sol = solve_2x2_system(a, f, g, lambda x: -bump_prime(x), bump_prime, region, xs, ts,
                               targets=targets, lattices=lattices)
        full = reconstruct_displacement(sol, bump)
        reference = self.level_by_level(sol, bump)
        np.testing.assert_array_equal(full, reference)
        for i in (0, 12, 15, 17, 30):
            column = reconstruct_displacement(sol, bump, column=i)
            assert column.shape == full.shape[:-1]
            np.testing.assert_array_equal(column, full[..., i])
        if partial:
            assert np.isfinite(full[..., 15:27, 17]).all()
            assert np.isfinite(full[..., 9:16, 12]).all()
            assert np.isnan(full[..., 30]).all()    # no node of that column is solved
            assert np.isfinite(full[..., 0]).sum() == full[..., 0].size // 31   # t = 0 only
