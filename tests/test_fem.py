"""Finite elements: meshes, assembly, CG solves, slices, maximum principle."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from randset_pde.errors import (
    CoefficientBoundError,
    ConfigError,
    DomainError,
    NonConvergenceError,
)
from randset_pde.fem import (
    CG_REL_TOL,
    CoefficientSpec,
    assemble,
    build_mesh,
    element_coefficients,
    extract_slice,
    load_vector,
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
        for args, message in ((("l_shape", 3, 4), "l_shape requires even nx and ny"),
                              (("rectangle", 1, 4), "need nx, ny >= 2"),
                              (("rectangle", 4, 1), "need nx, ny >= 2"),
                              (("hexagon", 4, 4), "unknown domain shape 'hexagon'")):
            with pytest.raises(ConfigError) as err:
                build_mesh(*args)
            assert err.value.problems == [message]

    @pytest.mark.parametrize("shape, nx, ny", [
        ("rectangle", 2, 2), ("rectangle", 3, 5), ("rectangle", 7, 2), ("rectangle", 18, 18),
        ("l_shape", 2, 2), ("l_shape", 4, 8), ("l_shape", 10, 6), ("l_shape", 18, 18),
    ])
    def test_index_built_mesh_equals_the_loop_built_one(self, shape, nx, ny):
        mesh, ref = build_mesh(shape, nx, ny), loop_built_mesh(shape, nx, ny)
        for name, expected in ref.items():
            got = getattr(mesh, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            np.testing.assert_array_equal(got, expected, err_msg=name)


def loop_built_mesh(shape, nx, ny):
    """build_mesh's arrays, built node by node and cell by cell."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    half_i, half_j = nx // 2, ny // 2
    grid_index = np.full((nx + 1, ny + 1), -1, dtype=int)
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            if shape == "l_shape" and i > half_i and j > half_j:
                continue
            grid_index[i, j] = len(nodes)
            nodes.append((xs[i], ys[j]))
    quads = []
    for cj in range(ny):
        for ci in range(nx):
            if shape == "l_shape" and ci >= half_i and cj >= half_j:
                continue
            quads.append((grid_index[ci, cj], grid_index[ci + 1, cj],
                          grid_index[ci + 1, cj + 1], grid_index[ci, cj + 1]))
    quads = np.array(quads, dtype=int)
    triangles = np.empty((2 * len(quads), 3), dtype=int)
    triangles[0::2] = quads[:, [0, 1, 2]]
    triangles[1::2] = quads[:, [0, 2, 3]]
    boundary = np.zeros(len(nodes), dtype=bool)
    for j in range(ny + 1):
        for i in range(nx + 1):
            nid = grid_index[i, j]
            if nid < 0:
                continue
            on = i == 0 or j == 0 or i == nx or j == ny
            if shape == "l_shape":
                on = on or (i == half_i and j >= half_j) or (j == half_j and i >= half_i)
            boundary[nid] = on
    return {"nodes": np.array(nodes, dtype=float), "quads": quads, "triangles": triangles,
            "tri_quad": np.repeat(np.arange(len(quads)), 2), "boundary_mask": boundary,
            "grid_index": grid_index}


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

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.nan, np.nan], [0.5, 0.0]])
    def test_nan_or_nonpositive_values_rejected(self, values):
        with pytest.raises(CoefficientBoundError, match="must be positive"):
            CoefficientSpec(np.array(values))


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


def block_split(mesh, matrices):
    """The colour blocks of the block-diagonal matrix of ``matrices``."""
    return mesh.red_black.split(sp.block_diag(matrices, format="csr"), len(matrices))


def assert_blocks_equal(a, b):
    """Two ColourBlocks hold the same arrays bit for bit (NaN equal to NaN)."""
    assert a.colouring is b.colouring
    np.testing.assert_array_equal(a.d_red, b.d_red)
    np.testing.assert_array_equal(a.d_black, b.d_black)
    for x, y in ((a.a_rb, b.a_rb), (a.a_br, b.a_br)):
        assert x.shape == y.shape
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(x, name), getattr(y, name), err_msg=name)


class TestBlockSolve:
    def test_colour_blocks_match_assemble(self):
        # assemble sums each slot's element terms in its own order, so the
        # blocks agree with its matrices' to rounding, in the same pattern
        mesh = build_mesh("l_shape", 10, 10)
        cells, systems = random_systems(mesh, 4, seed=3)
        blocks = mesh.colour_scatter.blocks(cells)
        reference = block_split(mesh, [s.matrix for s in systems])
        for got, expected in ((blocks.d_red, reference.d_red),
                              (blocks.d_black, reference.d_black),
                              (blocks.a_rb.data, reference.a_rb.data),
                              (blocks.a_br.data, reference.a_br.data)):
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
        for got, expected in ((blocks.a_rb, reference.a_rb), (blocks.a_br, reference.a_br)):
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_array_equal(got.indptr, expected.indptr)
        # the couplings are each other's transposes, block by block
        np.testing.assert_array_equal(blocks.a_rb.T.toarray(), blocks.a_br.toarray())

    def test_colour_blocks_equal_the_split_of_the_full_pattern(self):
        # the reduced-pattern block with its always-zero slots stored as
        # explicit zeros, as assemble stores them
        mesh = build_mesh("l_shape", 18, 18)
        cells, systems = random_systems(mesh, 12, seed=11)
        pruned = oracle.reduced_block(mesh, cells)
        pattern = sp.block_diag([s.matrix for s in systems], format="csr")
        pattern.sort_indices()
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        full = sp.csr_matrix((pruned.toarray()[rows, pattern.indices], pattern.indices,
                              pattern.indptr), shape=pattern.shape)
        assert full.nnz == pattern.nnz > pruned.nnz
        blocks = mesh.colour_scatter.blocks(cells)
        assert_blocks_equal(mesh.red_black.split(full, 12), blocks)
        rhs = np.stack([s.rhs for s in systems])
        rhs[3] *= np.linspace(0.5, 2.0, rhs.shape[1])
        a = solve_cg_block(blocks, rhs)
        assert a.converged.all() and len(set(a.iterations)) > 1

    def test_batched_pcg_matches_solve_cg(self):
        # bit for bit, while the systems stop at different iterations
        mesh = build_mesh("l_shape", 18, 18)
        _, systems = random_systems(mesh, 12, seed=5)
        rhs = np.stack([s.rhs for s in systems])
        rhs[4] = 0.0                                  # zero load: zero solution
        rhs[7] *= np.linspace(0.5, 2.0, rhs.shape[1])  # a different load
        block = solve_cg_block(block_split(mesh, [s.matrix for s in systems]), rhs)
        for s, (system, b) in enumerate(zip(systems, rhs)):
            ref = solve_cg(replace(system, rhs=b))
            assert block.iterations[s] == ref.iterations
            assert block.converged[s]
            assert block.residuals[s] == ref.residual
            np.testing.assert_array_equal(block.values[s], ref.values[system.free])
        assert block.iterations[4] == 0 and np.all(block.values[4] == 0.0)
        assert len(set(block.iterations.tolist()) - {0}) > 1

    def test_capped_system_is_reported_and_others_finish(self):
        # 36-39 iterations, so a cap of 38 stops system 1 only; on a 10x10
        # mesh all but one of these systems take 17
        mesh = build_mesh("l_shape", 18, 18)
        _, systems = random_systems(mesh, 6, seed=8)
        counts = [solve_cg(s).iterations for s in systems]
        cap = sorted(counts)[-2]   # only the slowest system(s) exceed it
        matrices = [s.matrix for s in systems]
        block = solve_cg_block(block_split(mesh, matrices), np.stack([s.rhs for s in systems]),
                               max_iter=cap)
        for s, system in enumerate(systems):
            if counts[s] > cap:
                with pytest.raises(NonConvergenceError) as err:
                    solve_cg(system, max_iter=cap)
                assert not block.converged[s] and block.iterations[s] == cap
                assert err.value.iterations == cap and block.residuals[s] == err.value.residual
                # the capped system's iterate is the one it reaches alone
                alone = solve_cg_block(block_split(mesh, [matrices[s]]), system.rhs[None],
                                       max_iter=cap)
                assert not alone.converged[0] and alone.residuals[0] == block.residuals[s]
                np.testing.assert_array_equal(alone.values[0], block.values[s])
            else:
                ref = solve_cg(system)
                assert block.converged[s] and block.iterations[s] == counts[s]
                assert block.residuals[s] == ref.residual
                np.testing.assert_array_equal(block.values[s], ref.values[system.free])
        assert not block.converged.all() and block.converged.any()
        assert len(set(block.iterations[block.converged].tolist())) > 1


@settings(max_examples=40, deadline=None)
# one free node, which is red: no black unknown and no coupling
@example(shape="rectangle", nx=2, ny=2, seed=0, count=2, nan_share=0.0)
# no free dof at all
@example(shape="l_shape", nx=2, ny=2, seed=0, count=1, nan_share=0.0)
@given(shape=st.sampled_from(["rectangle", "l_shape"]),
       nx=st.integers(1, 12).map(lambda k: 2 * k), ny=st.integers(1, 12).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4),
       nan_share=st.sampled_from([0.0, 0.0, 0.05, 1.0]))
def test_colour_scatter_equals_the_split_of_the_reduced_block(shape, nx, ny, seed, count,
                                                              nan_share):
    """The colour scatter's blocks are, bit for bit, RedBlack.split of the
    same cells assembled through the reduced pattern."""
    mesh = build_mesh(shape, nx, ny)
    rng = np.random.default_rng(seed)
    cells = np.exp(rng.standard_normal((count, mesh.quads.shape[0])))
    cells[rng.random(cells.shape) < nan_share] = np.nan
    assert_blocks_equal(mesh.colour_scatter.blocks(cells),
                        mesh.red_black.split(oracle.reduced_block(mesh, cells), count))


class TestRedBlack:
    def test_grid_neighbours_differ_in_colour(self):
        mesh = build_mesh("l_shape", 10, 10)
        colours = mesh.red_black
        assert np.array_equal(np.sort(np.concatenate((colours.red, colours.black))),
                              np.arange(mesh.interior.size))
        i, j = np.rint(mesh.nodes[mesh.interior] * 10).astype(int).T
        assert np.all((i + j)[colours.red] % 2 == 0) and np.all((i + j)[colours.black] % 2 == 1)

    def test_one_free_node_is_red_and_solved_directly(self):
        mesh = build_mesh("rectangle", 2, 2)
        assert mesh.red_black.red.tolist() == [0] and mesh.red_black.black.size == 0
        system = assemble(mesh, element_coefficients(mesh, ONES.__func__), 1.0)
        sol = solve_cg(system)
        assert sol.iterations == 0 and sol.residual == 0.0
        assert sol.values[mesh.interior] == pytest.approx(system.rhs / system.matrix.diagonal())

    def test_zero_load_gives_zero_solution_without_iterating(self):
        mesh = build_mesh("l_shape", 10, 10)
        system = assemble(mesh, element_coefficients(mesh, ONES.__func__), 0.0)
        sol = solve_cg(system)
        assert sol.iterations == 0 and sol.residual == 0.0 and np.all(sol.values == 0.0)

    def test_reduced_system_halves_the_iterations(self):
        # full-system Jacobi CG took 71-77 iterations on these systems; their
        # black Schur complements take 36-39
        mesh = build_mesh("l_shape", 18, 18)
        cells, systems = random_systems(mesh, 6, seed=8)
        counts = solve_cg_block(mesh.colour_scatter.blocks(cells),
                                np.stack([s.rhs for s in systems])).iterations
        assert counts.max() <= 40


@settings(max_examples=40, deadline=None)
# a mesh with no free dof: its reduced pattern is empty
@example(shape="l_shape", nx=2, ny=2, seed=0, log_contrast=0.0, scales=[0.0])
@given(shape=st.sampled_from(["rectangle", "l_shape"]),
       nx=st.integers(1, 12).map(lambda k: 2 * k), ny=st.integers(1, 12).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1), log_contrast=st.floats(0.0, 3.0),
       scales=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
                       min_size=1, max_size=4))
def test_red_black_solves_match_the_full_system(shape, nx, ny, seed, log_contrast, scales):
    """Every converged system solves the full system, and its result does not
    depend on its batch mates.

    The full residual ||f - A x|| / ||f|| is at most CG_REL_TOL (1 + 1e-6)
    plus 4 eps || |A| |x| || / ||f||, the rounding floor of forming f - A x:
    the stop rule reads CG's recursive residual, which differs from a
    recomputed one by up to 0.71 of that term (2.1e-4 of CG_REL_TOL) over
    2,382 random systems like these.  x matches a dense solve to 1e-8 of
    max |x| (at most 4.1e-11 seen).
    """
    mesh = build_mesh(shape, nx, ny)
    rng = np.random.default_rng(seed)
    cells = rng.uniform(0.5, 2.0) * 10.0 ** (log_contrast * rng.random((len(scales),
                                                                         mesh.quads.shape[0])))
    rhs = np.array(scales)[:, None] * load_vector(mesh, 1.0)[mesh.interior]
    block = solve_cg_block(mesh.colour_scatter.blocks(cells), rhs)
    n, eps = rhs.shape[1], np.finfo(float).eps
    dense = oracle.reduced_block(mesh, cells).toarray()
    for s, f in enumerate(rhs):
        x = block.values[s]
        if not f.any():
            assert block.iterations[s] == 0 and np.all(x == 0.0)
            continue
        assert block.converged[s]
        a_s = dense[s * n:(s + 1) * n, s * n:(s + 1) * n]
        f_norm = np.linalg.norm(f)
        floor = 4 * eps * np.linalg.norm(np.abs(a_s) @ np.abs(x)) / f_norm
        assert np.linalg.norm(f - a_s @ x) / f_norm <= CG_REL_TOL * (1 + 1e-6) + floor
        exact = np.linalg.solve(a_s, f)
        assert np.max(np.abs(x - exact)) <= 1e-8 * np.max(np.abs(exact))
    # alone, and beside its mates in reverse order, each system repeats bit for bit
    for order in ([[s] for s in range(len(scales))], [list(range(len(scales)))[::-1]]):
        for subset in order:
            again = solve_cg_block(mesh.colour_scatter.blocks(cells[subset]), rhs[subset])
            np.testing.assert_array_equal(again.values, block.values[subset])
            np.testing.assert_array_equal(again.iterations, block.iterations[subset])
            np.testing.assert_array_equal(again.residuals, block.residuals[subset])


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
