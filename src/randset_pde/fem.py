"""Linear-triangle finite elements for -div(a grad u) = f, u = 0 on the boundary.

Structured meshes on the unit square or the L-shaped domain (unit square
minus the closed upper-right quadrant).  Each grid cell is split along its
lower-left/upper-right diagonal into two right triangles, which makes the
stiffness matrix an M-matrix and the discrete maximum principle testable.
The per-element coefficient is the average of the field at the cell's four
corner nodes, shared by both triangles of the cell.

scipy.sparse is imported only by the functions that build sparse matrices
(:attr:`StructuredMesh.reduced_pattern`, :func:`assemble` and
:func:`assemble_block`), so importing this module, and the package, loads no
part of scipy.  The elliptic model builds the reduced pattern in its
``prepare``, which puts that import inside a run's set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CoefficientBoundError,
    ConfigError,
    DomainError,
    NonConvergenceError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "StructuredMesh",
    "CoefficientSpec",
    "AssembledSystem",
    "NodalSolution",
    "SliceCurve",
    "build_mesh",
    "element_coefficients",
    "assemble",
    "assemble_block",
    "load_vector",
    "solve_cg",
    "BlockSolution",
    "solve_cg_block",
    "extract_slice",
]

CG_REL_TOL = 1e-10      # relative residual at which CG stops
NONPOSITIVE_COEFFICIENTS = "element coefficients must be positive"


@dataclass(frozen=True)
class StructuredMesh:
    """Structured triangulated mesh on [0,1]^2 or the L-shaped subdomain."""

    shape: str
    nx: int
    ny: int
    nodes: np.ndarray          # (n_nodes, 2)
    quads: np.ndarray          # (n_quads, 4) corner ids: ll, lr, ur, ul
    triangles: np.ndarray      # (2*n_quads, 3)
    tri_quad: np.ndarray       # owning quad per triangle
    boundary_mask: np.ndarray  # bool per node
    grid_index: np.ndarray     # (nx+1, ny+1) -> node id, -1 where removed

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return np.nonzero(~self.boundary_mask)[0]

    def contains(self, x1: float, x2: float) -> bool:
        """Whether (x1, x2) lies in the closed domain the mesh covers."""
        inside = 0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0
        if self.shape == "l_shape":
            inside = inside and (x1 <= 0.5 or x2 <= 0.5)
        return inside

    def row_nodes(self, x2: float):
        """(row, node ids) of the grid row nearest to x2, restricted to domain nodes."""
        if not 0.0 <= x2 <= 1.0:
            raise DomainError(f"slice ordinate {x2} outside the unit square")
        row = int(round(x2 * self.ny))
        ids = self.grid_index[:, row]
        return row, ids[ids >= 0]

    @cached_property
    def geometry(self):
        """Per-triangle areas, shape-function gradients, and COO scaffolding."""
        pts = self.nodes[self.triangles]                    # (nt, 3, 2)
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]     # positive by construction
        area = 0.5 * det
        grads = np.empty_like(pts)                          # grad of barycentric lambda_i
        grads[:, 0, 0] = pts[:, 1, 1] - pts[:, 2, 1]
        grads[:, 0, 1] = pts[:, 2, 0] - pts[:, 1, 0]
        grads[:, 1, 0] = pts[:, 2, 1] - pts[:, 0, 1]
        grads[:, 1, 1] = pts[:, 0, 0] - pts[:, 2, 0]
        grads[:, 2, 0] = pts[:, 0, 1] - pts[:, 1, 1]
        grads[:, 2, 1] = pts[:, 1, 0] - pts[:, 0, 0]
        grads /= det[:, None, None]
        k_unit = np.einsum("eid,ejd->eij", grads, grads) * area[:, None, None]
        rows = np.repeat(self.triangles, 3, axis=1).ravel()
        cols = np.tile(self.triangles, (1, 3)).ravel()
        return {
            "area": area,
            "k_unit": k_unit,
            "rows": rows,
            "cols": cols,
        }

    @cached_property
    def reduced_pattern(self) -> "ReducedPattern":
        """CSR pattern of the free x free stiffness matrix and its element scatter.

        Only element entries with a nonzero unit value are kept, so a slot
        into which every entry adds exactly 0 (the diagonal edge of each
        right triangle couples its two ends by 0) is left out: it holds 0
        for every coefficient, and :func:`assemble` stores it anyway.
        """
        import scipy.sparse as sp

        geo = self.geometry
        free = self.interior
        position = np.full(self.n_nodes, -1)
        position[free] = np.arange(free.size)
        rows, cols = position[geo["rows"]], position[geo["cols"]]
        kept = np.nonzero((rows >= 0) & (cols >= 0) & (geo["k_unit"].reshape(-1) != 0.0))[0]
        keys = rows[kept] * free.size + cols[kept]
        order = np.argsort(keys, kind="stable")
        entries, keys = kept[order], keys[order]
        first = np.concatenate(([True], np.diff(keys) > 0))
        key_rows, indices = np.divmod(keys[first], free.size)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(key_rows, minlength=free.size))))
        scatter = sp.csr_matrix(
            (geo["k_unit"].reshape(-1)[entries], self.tri_quad[entries // 9],
             np.append(np.nonzero(first)[0], entries.size)),
            shape=(indices.size, self.quads.shape[0]))
        return ReducedPattern(indptr=indptr, indices=indices, scatter=scatter,
                              position=position)


@dataclass(frozen=True)
class ReducedPattern:
    """Sparsity of the Dirichlet-reduced stiffness matrix, shared by all
    coefficients, without its structurally zero slots.

    ``scatter`` is the element-entry to CSR-slot map as an (nnz, n_cells)
    matrix: row k holds, in element order, the unit-coefficient element
    entries that add into slot k, each in the column of its cell, so
    ``scatter @ cell_values`` is the CSR data.  ``position`` maps node ids
    to free-dof positions (-1 on the boundary).
    """

    indptr: np.ndarray
    indices: np.ndarray
    scatter: sp.csr_matrix
    position: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def build_mesh(shape: str, nx: int, ny: int) -> StructuredMesh:
    """Uniform mesh with nx*ny cells; L-shape removes cells in [1/2,1]^2."""
    if shape not in ("rectangle", "l_shape"):
        raise ConfigError(f"unknown domain shape {shape!r}")
    if nx < 2 or ny < 2:
        raise ConfigError("need nx, ny >= 2")
    if shape == "l_shape" and (nx % 2 or ny % 2):
        raise ConfigError("l_shape requires even nx and ny")

    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    half_i, half_j = nx // 2, ny // 2
    l_shape = shape == "l_shape"

    # nodes and cells in row-major (j, i) order; the L-shape drops the nodes
    # with i > nx/2 and j > ny/2 and the cells with ci >= nx/2 and cj >= ny/2
    kept = np.ones((ny + 1, nx + 1), dtype=bool)
    cells = np.ones((ny, nx), dtype=bool)
    if l_shape:
        kept[half_j + 1:, half_i + 1:] = False
        cells[half_j:, half_i:] = False
    jj, ii = np.nonzero(kept)
    grid_index = np.full((nx + 1, ny + 1), -1, dtype=int)
    grid_index[ii, jj] = np.arange(ii.size)
    nodes = np.column_stack((xs[ii], ys[jj]))

    cj, ci = np.nonzero(cells)
    quads = np.column_stack((grid_index[ci, cj], grid_index[ci + 1, cj],
                             grid_index[ci + 1, cj + 1], grid_index[ci, cj + 1]))
    triangles = np.empty((2 * len(quads), 3), dtype=int)
    triangles[0::2] = quads[:, [0, 1, 2]]
    triangles[1::2] = quads[:, [0, 2, 3]]
    tri_quad = np.repeat(np.arange(len(quads)), 2)

    boundary = (ii == 0) | (jj == 0) | (ii == nx) | (jj == ny)
    if l_shape:
        boundary |= ((ii == half_i) & (jj >= half_j)) | ((jj == half_j) & (ii >= half_i))

    return StructuredMesh(
        shape=shape,
        nx=nx,
        ny=ny,
        nodes=nodes,
        quads=quads,
        triangles=triangles,
        tri_quad=tri_quad,
        boundary_mask=boundary,
        grid_index=grid_index,
    )


@dataclass(frozen=True)
class CoefficientSpec:
    """Per-cell coefficient values with an optional admissible lower bound."""

    values: np.ndarray
    alpha_lo: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        # not all(> 0) rather than any(<= 0): a NaN value fails the check
        if not np.all(values > 0.0):
            raise CoefficientBoundError(NONPOSITIVE_COEFFICIENTS)
        if self.alpha_lo is not None:
            if self.alpha_lo <= 0.0:
                raise CoefficientBoundError("alpha_lo must be positive")
            if np.any(values < self.alpha_lo):
                raise CoefficientBoundError("element coefficient fell below alpha_lo")


def element_coefficients(mesh: StructuredMesh, field, alpha_lo=None) -> CoefficientSpec:
    """Cell coefficients: average of the field at each cell's four corners."""
    nodal = np.asarray(field(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    nodal = np.broadcast_to(nodal, (mesh.n_nodes,))
    values = nodal[mesh.quads].mean(axis=1)
    return CoefficientSpec(values, alpha_lo=alpha_lo)


@dataclass(frozen=True)
class AssembledSystem:
    """Dirichlet-reduced sparse SPD system plus scatter information."""

    matrix: sp.csr_matrix        # free x free stiffness
    rhs: np.ndarray              # load at free dofs
    free: np.ndarray             # free node ids
    mesh: StructuredMesh
    full_matrix: sp.csr_matrix   # stiffness over all nodes, pre-elimination


def assemble(mesh: StructuredMesh, coeffs: CoefficientSpec, load) -> AssembledSystem:
    """Stiffness K_ij = sum_e a_e int grad(phi_i).grad(phi_j), centroid-rule load."""
    import scipy.sparse as sp

    if coeffs.values.shape[0] != mesh.quads.shape[0]:
        raise DomainError("coefficient count must match cell count")
    geo = mesh.geometry
    a_tri = coeffs.values[mesh.tri_quad]
    data = (geo["k_unit"] * a_tri[:, None, None]).ravel()
    n = mesh.n_nodes
    full = sp.coo_matrix((data, (geo["rows"], geo["cols"])), shape=(n, n)).tocsr()
    b = load_vector(mesh, load)
    free = mesh.interior
    matrix = full[free][:, free].tocsr()
    return AssembledSystem(matrix=matrix, rhs=b[free], free=free, mesh=mesh, full_matrix=full)


def load_vector(mesh: StructuredMesh, load: float) -> np.ndarray:
    """Load vector over all nodes of a constant load: a third of each
    triangle's load to each of its vertices."""
    geo = mesh.geometry
    f_elem = load * geo["area"] / 3.0
    b = np.zeros(mesh.n_nodes)
    for v in range(3):
        np.add.at(b, mesh.triangles[:, v], f_elem)
    return b


def assemble_block(mesh: StructuredMesh, cell_values: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR of the reduced stiffness matrices of S coefficients.

    ``cell_values`` is (S, n_cells); block s is the free x free matrix that
    :func:`assemble` builds for row s, with the same entries up to the order
    in which each slot's element terms are summed, but without the slots
    that are 0 for every coefficient (see
    :attr:`StructuredMesh.reduced_pattern`).  All S matrices are filled by
    one product with the precomputed element-entry to CSR-slot map.
    """
    import scipy.sparse as sp

    cell_values = np.asarray(cell_values, dtype=float)
    if cell_values.ndim != 2 or cell_values.shape[1] != mesh.quads.shape[0]:
        raise DomainError("coefficient count must match cell count")
    pattern = mesh.reduced_pattern
    s_count, nnz, n = cell_values.shape[0], pattern.nnz, pattern.indptr.size - 1
    data = (pattern.scatter @ cell_values.T).T.ravel()
    # int32, the index type scipy would convert to anyway
    blocks = np.arange(s_count, dtype=np.int32)[:, None]
    indices = (pattern.indices.astype(np.int32) + n * blocks).ravel()
    indptr = np.append((pattern.indptr[:-1].astype(np.int32) + nnz * blocks).ravel(),
                       np.int32(s_count * nnz))
    return sp.csr_matrix((data, indices, indptr), shape=(s_count * n, s_count * n))


@dataclass(frozen=True)
class NodalSolution:
    """Nodal values over the whole mesh (zeros on the Dirichlet boundary)."""

    values: np.ndarray
    mesh: StructuredMesh
    iterations: int
    residual: float


def solve_cg(system: AssembledSystem, max_iter: int | None = None) -> NodalSolution:
    """Jacobi-preconditioned conjugate gradients on the reduced system, run
    until the relative residual is at most ``CG_REL_TOL``."""
    A = system.matrix
    b = system.rhs
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    values = np.zeros(system.mesh.n_nodes)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return NodalSolution(values, system.mesh, 0, 0.0)

    inv_diag = 1.0 / A.diagonal()
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r)) / b_norm
    iterations = 0
    while res > CG_REL_TOL:
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"CG did not reach {CG_REL_TOL:g} in {max_iter} iterations",
                residual=res,
                iterations=iterations,
            )
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
        res = float(np.linalg.norm(r)) / b_norm

    values[system.free] = x
    return NodalSolution(values, system.mesh, iterations, res)


@dataclass(frozen=True)
class BlockSolution:
    """Free-dof solutions of S systems solved together, with per-system statistics."""

    values: np.ndarray       # (S, n)
    iterations: np.ndarray   # (S,)
    residuals: np.ndarray    # (S,)
    converged: np.ndarray    # (S,) False where a system hit its iteration cap
    max_iter: int            # the cap


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products as an (S, 1) column, each bitwise equal to the
    1-d ``a[s] @ b[s]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def solve_cg_block(matrix: sp.csr_matrix, rhs: np.ndarray,
                   max_iter: int | None = None) -> BlockSolution:
    """Jacobi-preconditioned CG on S independent systems at once.

    ``matrix`` is block diagonal with S blocks of size n and ``rhs`` is
    (S, n).  Every system follows :func:`solve_cg` step for step and stops
    at the iteration at which :func:`solve_cg` would: once its relative
    residual is at most ``CG_REL_TOL``, or, unconverged, after ``max_iter``
    (default 10 n) iterations.  The stop test runs only after a step at
    which some residual is not above ``CG_REL_TOL`` or the cap is reached.
    A stopped system leaves the batch: the matrix product still covers all
    S blocks, but only the running systems' vectors are updated.  Until the
    first system stops, the product reads the search directions directly,
    with no scatter into the full vector.
    """
    rhs = np.asarray(rhs, dtype=float)
    s_count, n = rhs.shape
    if matrix.shape != (s_count * n, s_count * n):
        raise DomainError("matrix and right-hand sides disagree in size")
    if max_iter is None:
        max_iter = 10 * n
    values = np.zeros((s_count, n))
    iterations = np.zeros(s_count, dtype=int)
    residuals = np.zeros(s_count)
    converged = np.ones(s_count, dtype=bool)

    b_norm = np.sqrt(_row_dots(rhs, rhs))
    live = np.nonzero(b_norm[:, 0] != 0.0)[0]    # a zero load has the zero solution
    inv_diag = 1.0 / matrix.diagonal().reshape(s_count, n)[live]
    b_norm = b_norm[live]
    x = np.zeros((live.size, n))
    r = rhs[live]
    z = inv_diag * r
    p = z.copy()
    p_all = np.zeros((s_count, n))
    rz = _row_dots(r, z)
    res = np.sqrt(_row_dots(r, r)) / b_norm
    iteration, check = 0, True
    while live.size:
        if check:
            running = res[:, 0] > CG_REL_TOL
            stop = ~running | (iteration >= max_iter)
            if stop.any():
                done = live[stop]
                values[done] = x[stop]
                iterations[done] = iteration
                residuals[done] = res[stop, 0]
                converged[done] = ~running[stop]
                keep = ~stop
                live, b_norm, inv_diag = live[keep], b_norm[keep], inv_diag[keep]
                x, r, z, p, rz = x[keep], r[keep], z[keep], p[keep], rz[keep]
                if not live.size:
                    break
        if live.size == s_count:
            Ap = (matrix @ p.ravel()).reshape(s_count, n)
        else:
            p_all[live] = p
            Ap = (matrix @ p_all.ravel()).reshape(s_count, n)[live]
        alpha = rz / _row_dots(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        np.multiply(inv_diag, r, out=z)
        rz_new = _row_dots(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        iteration += 1
        res = np.sqrt(_row_dots(r, r)) / b_norm
        # a NaN minimum, like a residual at or below the tolerance, stops its system
        check = iteration >= max_iter or not res.min() > CG_REL_TOL
    return BlockSolution(values, iterations, residuals, converged, max_iter)


@dataclass(frozen=True)
class SliceCurve:
    """Nodal values along one horizontal grid row of the mesh."""

    x1: np.ndarray
    values: np.ndarray
    x2: float
    row: int


def extract_slice(solution: NodalSolution, x2: float) -> SliceCurve:
    """Values along the grid row nearest to x2, restricted to domain nodes."""
    mesh = solution.mesh
    row, ids = mesh.row_nodes(x2)
    return SliceCurve(
        x1=mesh.nodes[ids, 0],
        values=solution.values[ids],
        x2=row / mesh.ny,
        row=row,
    )
