"""Finite elements: meshes, assembly, CG solves, slices, maximum principle."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import _oracles as oracle
from randset_pde.errors import (
    CoefficientBoundError,
    ConfigError,
    DomainError,
    NonConvergenceError,
)
from randset_pde.fem import (
    CoefficientSpec,
    assemble,
    assemble_block,
    build_mesh,
    element_coefficients,
    extract_slice,
    solve_cg,
    solve_cg_block,
)

ONES = staticmethod(lambda x, y: np.ones_like(x))


def poisson_solution(nx, a_value=1.0, load=1.0):
    mesh = build_mesh("rectangle", nx, nx)
    coeffs = element_coefficients(mesh, lambda x, y: a_value * np.ones_like(x))
    return mesh, solve_cg(assemble(mesh, coeffs, load))


class TestBuildMesh:
    def test_rectangle_counts(self):
        m = build_mesh("rectangle", 2, 2)
        assert m.n_nodes == 9
        assert len(m.quads) == 4
        assert len(m.triangles) == 8
        assert int(m.boundary_mask.sum()) == 8

    def test_l_shape_small(self):
        m = build_mesh("l_shape", 2, 2)
        assert len(m.quads) == 3

    def test_l_shape_18(self):
        m = build_mesh("l_shape", 18, 18)
        assert len(m.quads) == 18 * 18 - 9 * 9
        # removed nodes: strictly inside the deleted quadrant
        assert m.n_nodes == 19 * 19 - 9 * 9
        # every remaining node is either boundary or belongs to a kept cell
        used = np.zeros(m.n_nodes, dtype=bool)
        used[m.quads.ravel()] = True
        assert np.all(used)

    def test_l_shape_reentrant_boundary(self):
        m = build_mesh("l_shape", 4, 4)
        # the inner corner node (1/2, 1/2) is on the boundary
        nid = m.grid_index[2, 2]
        assert m.boundary_mask[nid]
        # nodes on the removed quadrant's edges are boundary
        assert m.boundary_mask[m.grid_index[2, 3]]
        assert m.boundary_mask[m.grid_index[3, 2]]
        # an ordinary interior node is not
        assert not m.boundary_mask[m.grid_index[1, 1]]

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            build_mesh("l_shape", 3, 4)
        with pytest.raises(ConfigError):
            build_mesh("rectangle", 1, 4)
        with pytest.raises(ConfigError):
            build_mesh("hexagon", 4, 4)


class TestElementCoefficients:
    def test_constant_field(self):
        m = build_mesh("rectangle", 3, 3)
        c = element_coefficients(m, lambda x, y: 2.5 * np.ones_like(x))
        assert np.all(c.values == 2.5)

    def test_corner_average(self):
        m = build_mesh("rectangle", 2, 2)
        nodal = np.zeros(m.n_nodes)
        nodal[m.quads[0]] = [1.0, 2.0, 3.0, 4.0]

        def field(x, y):
            return nodal

        c = element_coefficients(m, field)
        assert c.values[0] == pytest.approx(2.5)

    def test_zero_draw_coefficient_is_one(self):
        m = build_mesh("l_shape", 6, 6)
        c = element_coefficients(m, lambda x, y: np.maximum(1.0 + 0.0, 0.1) * np.ones_like(x))
        assert np.all(c.values == 1.0)

    def test_nonpositive_rejected(self):
        m = build_mesh("rectangle", 2, 2)
        with pytest.raises(CoefficientBoundError):
            element_coefficients(m, lambda x, y: np.zeros_like(x))
        with pytest.raises(CoefficientBoundError):
            element_coefficients(m, lambda x, y: np.ones_like(x), alpha_lo=2.0)


class TestAssembly:
    def test_zero_load_zero_solution(self):
        mesh, sol = poisson_solution(8, load=0.0)
        assert np.all(sol.values == 0.0)
        assert sol.iterations == 0

    def test_interior_row_sums_vanish(self):
        m = build_mesh("rectangle", 6, 6)
        system = assemble(m, element_coefficients(m, ONES.__func__), 1.0)
        row_sums = np.asarray(system.full_matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums[m.interior])) <= 1e-13

    def test_five_point_stencil_for_unit_coefficient(self):
        m = build_mesh("rectangle", 4, 4)
        system = assemble(m, element_coefficients(m, ONES.__func__), 1.0)
        K = system.full_matrix.toarray()
        center = m.grid_index[2, 2]
        assert K[center, center] == pytest.approx(4.0)
        for neigh in (m.grid_index[1, 2], m.grid_index[3, 2],
                      m.grid_index[2, 1], m.grid_index[2, 3]):
            assert K[center, neigh] == pytest.approx(-1.0)
        # diagonal-neighbor couplings cancel on this triangulation
        assert K[center, m.grid_index[3, 3]] == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        m = build_mesh("l_shape", 8, 8)
        rng = np.random.default_rng(3)
        nodal = 1.0 + 0.5 * rng.random(m.n_nodes)
        system = assemble(m, element_coefficients(m, lambda x, y: nodal), 1.0)
        asym = np.abs(system.full_matrix - system.full_matrix.T)
        assert asym.max() <= 1e-14

    def test_doubling_coefficient_halves_solution(self):
        _, sol1 = poisson_solution(16, a_value=1.0)
        _, sol2 = poisson_solution(16, a_value=2.0)
        np.testing.assert_allclose(sol2.values, sol1.values / 2.0, atol=1e-12)


class TestSolveCG:
    def test_poisson_center_value(self):
        mesh, sol = poisson_solution(32)
        center = mesh.grid_index[16, 16]
        assert sol.values[center] == pytest.approx(oracle.POISSON_CENTER, abs=1e-3)

    def test_iteration_error(self):
        m = build_mesh("rectangle", 8, 8)
        system = assemble(m, element_coefficients(m, ONES.__func__), 1.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_cg(system, max_iter=2)
        assert err.value.residual is not None and err.value.residual > 0

    def test_boundary_values_are_zero(self):
        mesh, sol = poisson_solution(12)
        assert np.all(sol.values[mesh.boundary_mask] == 0.0)

    def test_discrete_maximum_principle(self):
        # positive coefficients + nonnegative load give a nonnegative solution
        m = build_mesh("l_shape", 10, 10)
        rng = np.random.default_rng(9)
        for _ in range(5):
            nodal = 0.2 + 2.0 * rng.random(m.n_nodes)
            load = rng.random()
            system = assemble(m, element_coefficients(m, lambda x, y: nodal), load)
            sol = solve_cg(system)
            assert np.all(sol.values >= -1e-10)

    def test_mesh_refinement_second_order(self):
        errors = []
        for nx in (16, 32, 64):
            mesh, sol = poisson_solution(nx)
            center = mesh.grid_index[nx // 2, nx // 2]
            errors.append(abs(sol.values[center] - oracle.POISSON_CENTER))
        assert 3.0 < errors[0] / errors[1] < 5.2
        assert 3.0 < errors[1] / errors[2] < 5.2

    def test_continuous_dependence_on_coefficient(self):
        m = build_mesh("rectangle", 16, 16)
        base = element_coefficients(m, ONES.__func__)
        ref = solve_cg(assemble(m, base, 1.0)).values
        sup = np.max(np.abs(ref))
        diffs = []
        for delta in (1e-2, 1e-3, 1e-4):
            pert = element_coefficients(
                m, lambda x, y, d=delta: 1.0 + d * np.sin(3 * x) * np.cos(2 * y))
            diffs.append(np.max(np.abs(solve_cg(assemble(m, pert, 1.0)).values - ref)) / sup)
        assert diffs[0] > diffs[1] > diffs[2]


def random_systems(mesh, count, seed):
    """(cell values, assembled systems) for log-normal cell coefficients."""
    rng = np.random.default_rng(seed)
    cells = np.exp(rng.standard_normal((count, mesh.quads.shape[0])))
    return cells, [assemble(mesh, CoefficientSpec(c), 1.0) for c in cells]


class TestBlockSolve:
    def test_block_assembly_matches_assemble(self):
        mesh = build_mesh("l_shape", 10, 10)
        cells, systems = random_systems(mesh, 4, seed=3)
        block = assemble_block(mesh, cells)
        reference = sp.block_diag([s.matrix for s in systems], format="csr")
        assert block.shape == reference.shape
        np.testing.assert_array_equal(block.indptr, reference.indptr)
        np.testing.assert_array_equal(block.indices, reference.indices)
        np.testing.assert_allclose(block.data, reference.data, rtol=1e-14, atol=0.0)

    def test_batched_pcg_matches_solve_cg(self):
        mesh = build_mesh("l_shape", 18, 18)
        _, systems = random_systems(mesh, 12, seed=5)
        rhs = np.stack([s.rhs for s in systems])
        rhs[4] = 0.0                                  # zero load: zero solution
        rhs[7] *= np.linspace(0.5, 2.0, rhs.shape[1])  # a different load
        block = solve_cg_block(sp.block_diag([s.matrix for s in systems], format="csr"), rhs)
        for s, (system, b) in enumerate(zip(systems, rhs)):
            ref = solve_cg(replace(system, rhs=b))
            assert block.iterations[s] == ref.iterations
            assert block.converged[s]
            np.testing.assert_allclose(block.values[s], ref.values[system.free],
                                       rtol=0.0, atol=1e-12)
        assert block.iterations[4] == 0 and np.all(block.values[4] == 0.0)

    def test_capped_system_is_reported_and_others_finish(self):
        mesh = build_mesh("l_shape", 10, 10)
        _, systems = random_systems(mesh, 6, seed=8)
        counts = [solve_cg(s).iterations for s in systems]
        cap = sorted(counts)[-2]   # only the slowest system(s) exceed it
        block = solve_cg_block(sp.block_diag([s.matrix for s in systems], format="csr"),
                               np.stack([s.rhs for s in systems]), max_iter=cap)
        for s, system in enumerate(systems):
            if counts[s] > cap:
                with pytest.raises(NonConvergenceError):
                    solve_cg(system, max_iter=cap)
                assert not block.converged[s] and block.iterations[s] == cap
            else:
                assert block.converged[s] and block.iterations[s] == counts[s]
        assert not block.converged.all() and block.converged.any()


class TestExtractSlice:
    def test_boundary_row_is_zero(self):
        mesh, sol = poisson_solution(8)
        sl = extract_slice(sol, 0.0)
        assert np.all(sl.values == 0.0)

    def test_snap_to_row_eight_of_18(self):
        m = build_mesh("l_shape", 18, 18)
        coeffs = element_coefficients(m, ONES.__func__)
        sol = solve_cg(assemble(m, coeffs, 1.0))
        sl = extract_slice(sol, 0.4444)
        assert sl.row == 8
        assert sl.x2 == pytest.approx(8.0 / 18.0)
        assert sl.x1.size == 19  # row 8 lies below the notch: full width

    def test_symmetric_problem_symmetric_slice(self):
        mesh, sol = poisson_solution(16)
        sl = extract_slice(sol, 0.5)
        np.testing.assert_allclose(sl.values, sl.values[::-1], atol=1e-12)

    def test_outside_domain(self):
        mesh, sol = poisson_solution(4)
        with pytest.raises(DomainError):
            extract_slice(sol, 1.2)

    def test_l_shape_row_above_notch_is_short(self):
        m = build_mesh("l_shape", 18, 18)
        sol = solve_cg(assemble(m, element_coefficients(m, ONES.__func__), 1.0))
        sl = extract_slice(sol, 0.75)
        assert sl.x1.size == 10  # only x1 <= 1/2 remains
        assert sl.x1.max() == pytest.approx(0.5)
