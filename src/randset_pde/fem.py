"""Linear-triangle finite elements for -div(a grad u) = f, u = 0 on the boundary.

Structured meshes on the unit square or the L-shaped domain (unit square
minus the closed upper-right quadrant).  Each grid cell is split along its
lower-left/upper-right diagonal into two right triangles, which makes the
stiffness matrix an M-matrix and the discrete maximum principle testable.
The per-element coefficient is the average of the field at the cell's four
corner nodes, shared by both triangles of the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    CoefficientBoundError,
    ConfigError,
    DomainError,
    NonConvergenceError,
)

__all__ = [
    "StructuredMesh",
    "CoefficientSpec",
    "AssembledSystem",
    "NodalSolution",
    "SliceCurve",
    "build_mesh",
    "element_coefficients",
    "assemble",
    "solve_cg",
    "extract_slice",
]


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
        centroids = pts.mean(axis=1)
        return {
            "area": area,
            "k_unit": k_unit,
            "rows": rows,
            "cols": cols,
            "centroids": centroids,
        }


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

    grid_index = np.full((nx + 1, ny + 1), -1, dtype=int)
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            if shape == "l_shape" and i > half_i and j > half_j:
                continue
            grid_index[i, j] = len(nodes)
            nodes.append((xs[i], ys[j]))
    nodes = np.array(nodes, dtype=float)

    quads = []
    for cj in range(ny):
        for ci in range(nx):
            if shape == "l_shape" and ci >= half_i and cj >= half_j:
                continue
            quads.append((
                grid_index[ci, cj],
                grid_index[ci + 1, cj],
                grid_index[ci + 1, cj + 1],
                grid_index[ci, cj + 1],
            ))
    quads = np.array(quads, dtype=int)
    triangles = np.empty((2 * len(quads), 3), dtype=int)
    triangles[0::2] = quads[:, [0, 1, 2]]
    triangles[1::2] = quads[:, [0, 2, 3]]
    tri_quad = np.repeat(np.arange(len(quads)), 2)

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
    """Per-cell coefficient values with optional admissible bounds."""

    values: np.ndarray
    alpha_lo: float | None = None
    beta_hi: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values <= 0.0):
            raise CoefficientBoundError("element coefficients must be positive")
        if self.alpha_lo is not None:
            if self.alpha_lo <= 0.0:
                raise CoefficientBoundError("alpha_lo must be positive")
            if np.any(values < self.alpha_lo):
                raise CoefficientBoundError("element coefficient fell below alpha_lo")
        if self.beta_hi is not None and np.any(values > self.beta_hi):
            raise CoefficientBoundError("element coefficient exceeded beta_hi")


def element_coefficients(mesh: StructuredMesh, field, alpha_lo=None, beta_hi=None) -> CoefficientSpec:
    """Cell coefficients: average of the field at each cell's four corners."""
    nodal = np.asarray(field(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    nodal = np.broadcast_to(nodal, (mesh.n_nodes,))
    values = nodal[mesh.quads].mean(axis=1)
    return CoefficientSpec(values, alpha_lo=alpha_lo, beta_hi=beta_hi)


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
    if coeffs.values.shape[0] != mesh.quads.shape[0]:
        raise DomainError("coefficient count must match cell count")
    geo = mesh.geometry
    a_tri = coeffs.values[mesh.tri_quad]
    data = (geo["k_unit"] * a_tri[:, None, None]).ravel()
    n = mesh.n_nodes
    full = sp.coo_matrix((data, (geo["rows"], geo["cols"])), shape=(n, n)).tocsr()

    cx, cy = geo["centroids"][:, 0], geo["centroids"][:, 1]
    f_vals = load(cx, cy) if callable(load) else load
    f_elem = np.broadcast_to(np.asarray(f_vals, dtype=float), cx.shape) * geo["area"] / 3.0
    b = np.zeros(n)
    for v in range(3):
        np.add.at(b, mesh.triangles[:, v], f_elem)

    free = mesh.interior
    matrix = full[free][:, free].tocsr()
    return AssembledSystem(matrix=matrix, rhs=b[free], free=free, mesh=mesh, full_matrix=full)


@dataclass(frozen=True)
class NodalSolution:
    """Nodal values over the whole mesh (zeros on the Dirichlet boundary)."""

    values: np.ndarray
    mesh: StructuredMesh
    iterations: int
    residual: float


def solve_cg(system: AssembledSystem, rel_tol: float = 1e-10, max_iter: int | None = None) -> NodalSolution:
    """Jacobi-preconditioned conjugate gradients on the reduced system."""
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
    while res > rel_tol:
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"CG did not reach {rel_tol:g} in {max_iter} iterations",
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
