"""Linear-triangle finite elements for -div(a grad u) = f, u = 0 on the boundary.

Structured meshes on the unit square or the L-shaped domain (unit square
minus the closed upper-right quadrant).  Each grid cell is split along its
lower-left/upper-right diagonal into two right triangles, which makes the
stiffness matrix an M-matrix and the discrete maximum principle testable.
The per-element coefficient is the average of the field at the cell's four
corner nodes, shared by both triangles of the cell.

The diagonal edge couples its two ends by exactly 0, so the reduced
stiffness matrix is a 5-point matrix, and colouring the free dofs by the
parity of their grid indices (red: i + j even) makes each colour's block
diagonal.  Both CG solvers run one kernel, :func:`solve_cg_block`:
Jacobi-preconditioned CG on the black unknowns' Schur complement
S_b = D_b - A_br D_r^-1 A_rb, then one diagonal solve for the red ones.  It
needs about half the iterations of CG on the whole system, each on half the
unknowns.  A system stops once its relative residual ||r_b|| / ||f|| (f the
full load; the red rows are solved exactly, so r_b is the whole residual) is
at most ``CG_REL_TOL``.  A same-colour off-diagonal entry that is not
exactly 0.0 is a DomainError.

A batch of systems on one mesh takes its colour blocks straight from the
cell values: :attr:`StructuredMesh.colour_scatter` maps the element entries
to the slots of D_r, D_b, A_rb and A_br, so one product gives all four, and
no whole matrix is formed.  :meth:`RedBlack.split` takes the same blocks
from an assembled CSR matrix, for :func:`solve_cg`.

scipy.sparse is imported only by the functions that build sparse matrices
(:attr:`StructuredMesh.colour_scatter`, :func:`assemble` and the colour
blocks), so importing this module, and the package, loads no part of scipy.
The elliptic model builds the colour scatter in its ``prepare``, which puts
that import inside a run's set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

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
    "load_vector",
    "solve_cg",
    "BlockSolution",
    "ColourBlocks",
    "ColourScatter",
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
    def position(self) -> np.ndarray:
        """Free-dof position of each node; -1 on the Dirichlet boundary."""
        free = self.interior
        position = np.full(self.n_nodes, -1)
        position[free] = np.arange(free.size)
        return position

    @cached_property
    def red_black(self) -> "RedBlack":
        """The grid-parity colouring of the free dofs (see :class:`RedBlack`)."""
        i, j = np.nonzero(self.grid_index >= 0)
        odd = np.empty(self.n_nodes, dtype=bool)
        odd[self.grid_index[i, j]] = (i + j) % 2 == 1
        odd = odd[self.interior]
        return RedBlack(red=np.flatnonzero(~odd), black=np.flatnonzero(odd))

    @cached_property
    def colour_scatter(self) -> "ColourScatter":
        """The element scatter of the reduced stiffness matrix's colour blocks
        under :attr:`red_black` (see :class:`ColourScatter`).

        Only element entries that join two free dofs by a nonzero unit value
        are kept, so a slot into which every entry adds exactly 0 (the
        diagonal edge of each right triangle couples its two ends by 0) is
        left out: it holds 0 for every coefficient, and :func:`assemble`
        stores it anyway.
        """
        geo = self.geometry
        k_unit = geo["k_unit"].reshape(-1)
        rows, cols = self.position[geo["rows"]], self.position[geo["cols"]]
        kept = np.nonzero((rows >= 0) & (cols >= 0) & (k_unit != 0.0))[0]
        return ColourScatter.build(self.red_black, rows[kept], cols[kept], k_unit[kept],
                                   self.tri_quad[kept // 9], self.quads.shape[0])


@dataclass(frozen=True)
class RedBlack:
    """Grid-parity colouring of a mesh's free dofs, as free-dof positions: a
    dof at grid node (i, j) is red when i + j is even and black when it is odd.

    Grid neighbours differ in colour, so in a 5-point matrix, such as the
    reduced stiffness matrix (each cell's diagonal edge couples its ends by
    exactly 0), each colour's block is diagonal.  :meth:`split` takes the
    blocks from a CSR matrix through slot maps built once per sparsity
    pattern.
    """

    red: np.ndarray
    black: np.ndarray
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def split(self, matrix: sp.csr_matrix, s_count: int) -> "ColourBlocks":
        """The colour blocks of a block-diagonal matrix of S blocks of size n.

        DomainError unless the S blocks share one sparsity pattern in which
        every row stores its diagonal once and every same-colour
        off-diagonal entry holds exactly 0.0.
        """
        n = self.red.size + self.black.size
        indptr, indices = matrix.indptr, matrix.indices
        nnz = int(indptr[n])
        zero, diag_red, diag_black, rb, br = self._slot_maps(indptr[:n + 1], indices[:nnz])
        blocks = np.arange(s_count, dtype=np.int32)[:, None]
        if not (np.array_equal(indptr[:-1], (indptr[:n] + nnz * blocks).ravel())
                and indptr[-1] == s_count * nnz
                and np.array_equal(indices, (indices[:nnz] + n * blocks).ravel())):
            raise DomainError("the blocks of the matrix must share one sparsity pattern")
        data = matrix.data.reshape(s_count, nnz)
        if (data[:, zero] != 0.0).any():
            raise DomainError(SAME_COLOUR_COUPLING)
        (rb_slots, *rb_pattern), (br_slots, *br_pattern) = rb, br
        return ColourBlocks(self, data[:, diag_red], data[:, diag_black],
                            _block_csr(data[:, rb_slots], *rb_pattern, self.black.size),
                            _block_csr(data[:, br_slots], *br_pattern, self.red.size))

    def _colour_index(self) -> tuple:
        """(whether black, position within its colour) of each free dof."""
        n = self.red.size + self.black.size
        is_black = np.zeros(n, dtype=bool)
        is_black[self.black] = True
        local = np.empty(n, dtype=np.int32)
        local[self.red] = np.arange(self.red.size)
        local[self.black] = np.arange(self.black.size)
        return is_black, local

    def _slot_maps(self, indptr: np.ndarray, indices: np.ndarray) -> tuple:
        """Where one block's CSR slots go: (same-colour off-diagonal slots,
        the diagonal slots of the red and of the black rows, and A_rb's and
        A_br's (slots, colour-local columns, row starts) in column order)."""
        key = (np.asarray(indptr, dtype=np.int64).tobytes(),
               np.asarray(indices, dtype=np.int64).tobytes())
        if key in self._maps:
            return self._maps[key]
        red, black = self.red, self.black
        n = red.size + black.size
        rows = np.repeat(np.arange(n), np.diff(indptr))
        is_black, local = self._colour_index()
        same = is_black[rows] == is_black[indices]
        on_diagonal = rows == indices
        if not np.array_equal(np.bincount(rows[on_diagonal], minlength=n), np.ones(n)):
            raise DomainError(MISSING_DIAGONAL)
        diagonal = np.empty(n, dtype=int)
        diagonal[rows[on_diagonal]] = np.flatnonzero(on_diagonal)

        def coupling(row_black, n_rows):
            slots = np.flatnonzero(~same & (is_black[rows] == row_black))
            slots = slots[np.lexsort((indices[slots], rows[slots]))]
            counts = np.bincount(local[rows[slots]], minlength=n_rows)
            return slots, local[indices[slots]], np.append(0, np.cumsum(counts)).astype(np.int32)

        maps = self._maps[key] = (np.flatnonzero(same & ~on_diagonal), diagonal[red],
                                  diagonal[black], coupling(False, red.size),
                                  coupling(True, black.size))
        return maps


SAME_COLOUR_COUPLING = ("a same-colour off-diagonal entry is nonzero: "
                        "the red-black split needs a 5-point matrix")
MISSING_DIAGONAL = "every row of the matrix must store its diagonal entry once"


def _block_csr(data: np.ndarray, columns: np.ndarray, starts: np.ndarray,
               n_cols: int) -> sp.csr_matrix:
    """Block-diagonal CSR of S blocks that share one pattern: ``data`` is
    (S, k), ``columns`` and ``starts`` one block's column indices and row
    starts, and ``n_cols`` a block's column count."""
    import scipy.sparse as sp

    s_count, k = data.shape
    blocks = np.arange(s_count, dtype=np.int32)[:, None]
    n_rows = starts.size - 1
    return sp.csr_matrix(
        (data.ravel(), (columns + n_cols * blocks).ravel(),
         np.append((starts[:-1] + k * blocks).ravel(), s_count * k)),
        shape=(s_count * n_rows, s_count * n_cols))


class ColourBlocks(NamedTuple):
    """S reduced stiffness matrices split by a :class:`RedBlack` colouring.

    ``d_red`` and ``d_black`` are the (S, n_red) and (S, n_black) diagonals;
    ``a_rb`` (red rows, black columns) and ``a_br`` (black rows, red columns)
    are the block-diagonal CSR couplings, each row's entries in column order.
    """

    colouring: RedBlack
    d_red: np.ndarray
    d_black: np.ndarray
    a_rb: sp.csr_matrix
    a_br: sp.csr_matrix


class ColourScatter(NamedTuple):
    """The element-entry to colour-block map of a mesh's reduced stiffness matrix.

    Row k of ``scatter`` (n_red + n_black + 2 n_coupled, n_cells) holds, in
    element order, the unit-coefficient element entries that add into slot
    k, each in the column of its cell.  The slots run through D_r, D_b, A_rb
    and A_br, each by row and then column, so one product with a batch's
    cell values gives all four blocks, each slot's entries summed in element
    order.  ``rb`` and ``br`` are the couplings' (colour-local columns, row
    starts).
    """

    colouring: RedBlack
    scatter: sp.csr_matrix
    rb: tuple
    br: tuple

    @classmethod
    def build(cls, colouring: RedBlack, rows: np.ndarray, cols: np.ndarray,
              values: np.ndarray, cells: np.ndarray, n_cells: int) -> "ColourScatter":
        """The scatter of element entries (free-dof row, free-dof column, unit
        value, cell), given in element order: one stable sort by colour
        block, row and column.  DomainError if an entry couples two distinct
        dofs of one colour, or a row has no diagonal entry."""
        import scipy.sparse as sp

        n_red, n_black = colouring.red.size, colouring.black.size
        n = n_red + n_black
        is_black, local = colouring._colour_index()
        row_black = is_black[rows]
        diagonal = rows == cols
        if (~diagonal & (row_black == is_black[cols])).any():
            raise DomainError(SAME_COLOUR_COUPLING)
        # blocks D_r, D_b, A_rb, A_br: a key's offset and row stride by block
        block = np.where(diagonal, 0, 2) + row_black
        offset = np.array([0, n_red, n, n + n_red * n_black])[block]
        stride = np.array([1, 1, n_black, n_red])[block]
        keys = offset + local[rows] * stride + np.where(diagonal, 0, local[cols])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.diff(keys, prepend=-1) > 0
        slots = keys[first]
        if np.count_nonzero(slots < n) != n:
            raise DomainError(MISSING_DIAGONAL)
        scatter = sp.csr_matrix((values[order], cells[order],
                                 np.append(np.nonzero(first)[0], keys.size)),
                                shape=(slots.size, n_cells))

        def coupling(keys, n_rows, n_cols):
            key_rows, columns = np.divmod(keys, n_cols)
            starts = np.append(0, np.cumsum(np.bincount(key_rows, minlength=n_rows)))
            return columns.astype(np.int32), starts.astype(np.int32)

        split = np.searchsorted(slots, n + n_red * n_black)
        return cls(colouring, scatter, coupling(slots[n:split] - n, n_red, n_black),
                   coupling(slots[split:] - (n + n_red * n_black), n_black, n_red))

    def blocks(self, cell_values: np.ndarray) -> ColourBlocks:
        """The colour blocks of the S reduced stiffness matrices of the
        (S, n_cells) ``cell_values``."""
        cell_values = np.asarray(cell_values, dtype=float)
        if cell_values.ndim != 2 or cell_values.shape[1] != self.scatter.shape[1]:
            raise DomainError("coefficient count must match cell count")
        n_red, n_black = self.colouring.red.size, self.colouring.black.size
        n, n_rb = n_red + n_black, self.rb[0].size
        data = np.ascontiguousarray((self.scatter @ cell_values.T).T)
        return ColourBlocks(self.colouring, data[:, :n_red], data[:, n_red:n],
                            _block_csr(data[:, n:n + n_rb], *self.rb, n_black),
                            _block_csr(data[:, n + n_rb:], *self.br, n_red))


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


@dataclass(frozen=True)
class NodalSolution:
    """Nodal values over the whole mesh (zeros on the Dirichlet boundary)."""

    values: np.ndarray
    mesh: StructuredMesh
    iterations: int
    residual: float


def solve_cg(system: AssembledSystem, max_iter: int | None = None) -> NodalSolution:
    """:func:`solve_cg_block` on the one system, split by the mesh's colouring;
    NonConvergenceError when it reaches ``max_iter`` (default 10 n)
    iterations unconverged."""
    block = solve_cg_block(system.mesh.red_black.split(system.matrix, 1), system.rhs[None],
                           max_iter)
    if not block.converged[0]:
        raise NonConvergenceError(
            f"CG did not reach {CG_REL_TOL:g} in {block.max_iter} iterations",
            residual=float(block.residuals[0]),
            iterations=int(block.iterations[0]),
        )
    values = np.zeros(system.mesh.n_nodes)
    values[system.free] = block.values[0]
    return NodalSolution(values, system.mesh, int(block.iterations[0]),
                         float(block.residuals[0]))


@dataclass(frozen=True)
class BlockSolution:
    """Free-dof solutions of S systems solved together, with per-system statistics."""

    values: np.ndarray       # (S, n)
    iterations: np.ndarray   # (S,) reduced-system CG iterations
    residuals: np.ndarray    # (S,)
    converged: np.ndarray    # (S,) False where a system hit its iteration cap
    max_iter: int            # the cap


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products as an (S, 1) column, each bitwise equal to the
    1-d ``a[s] @ b[s]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def solve_cg_block(blocks: ColourBlocks, rhs: np.ndarray,
                   max_iter: int | None = None) -> BlockSolution:
    """Reduced-system (red-black) Jacobi-preconditioned CG on S systems at once.

    ``blocks`` holds the S matrices' colour blocks (from
    :meth:`ColourScatter.blocks` or :meth:`RedBlack.split`) and ``rhs`` is
    (S, n).  CG with the preconditioner D_b runs on the black unknowns'
    Schur complement S_b = D_b - A_br D_r^-1 A_rb, applied as two half-size
    products and never formed, and then x_r = D_r^-1 (f_r - A_rb x_b) gives
    the red unknowns (Hageman & Young, *Applied Iterative Methods*, 1981,
    ch. 9).

    The red rows are solved exactly, so the black residual r_b is the whole
    system's residual: a system stops once ||r_b|| / ||f|| is at most
    ``CG_REL_TOL``, f its full load, or, unconverged, after ``max_iter``
    (default 10 n) iterations.  A zero load gives the zero solution at 0
    iterations.  The stop test runs only after a step at which some
    residual is not above ``CG_REL_TOL`` or the cap is reached.  A stopped
    system leaves the batch: the products still cover all S blocks, but
    only the running systems' vectors are updated.  Until the first system
    stops, the products read the search directions directly, with no
    scatter into the full vector.  Every step is row by row, so a system's
    result does not depend on its batch mates.
    """
    rhs = np.asarray(rhs, dtype=float)
    s_count, n = rhs.shape
    red, black = blocks.colouring.red, blocks.colouring.black
    n_red, n_black = red.size, black.size
    if blocks.d_red.shape != (s_count, n_red) or n != n_red + n_black:
        raise DomainError("colour blocks and right-hand sides disagree in size")
    if max_iter is None:
        max_iter = 10 * n
    d_black, a_rb, a_br = blocks.d_black, blocks.a_rb, blocks.a_br
    iterations = np.zeros(s_count, dtype=int)
    residuals = np.zeros(s_count)
    converged = np.ones(s_count, dtype=bool)

    def coupled(product, v, width):
        return (product @ v.ravel()).reshape(s_count, width)

    inv_red = 1.0 / blocks.d_red
    f_red = rhs[:, red]
    # the Schur complement's load, f_b - A_br D_r^-1 f_r
    g = rhs[:, black] - coupled(a_br, inv_red * f_red, n_black)
    b_norm = np.sqrt(_row_dots(rhs, rhs))
    live = np.nonzero(b_norm[:, 0] != 0.0)[0]    # a zero load has the zero solution
    inv_black = 1.0 / d_black[live]
    d_black_live = d_black[live]
    b_norm = b_norm[live]
    x_black = np.zeros((s_count, n_black))
    x = np.zeros((live.size, n_black))
    r = g[live]
    z = inv_black * r
    p = z.copy()
    p_all = np.zeros((s_count, n_black))
    rz = _row_dots(r, z)
    res = np.sqrt(_row_dots(r, r)) / b_norm
    iteration, check = 0, True
    while live.size:
        if check:
            running = res[:, 0] > CG_REL_TOL
            stop = ~running | (iteration >= max_iter)
            if stop.any():
                done = live[stop]
                x_black[done] = x[stop]
                iterations[done] = iteration
                residuals[done] = res[stop, 0]
                converged[done] = ~running[stop]
                keep = ~stop
                live, b_norm = live[keep], b_norm[keep]
                inv_black, d_black_live = inv_black[keep], d_black_live[keep]
                x, r, z, p, rz = x[keep], r[keep], z[keep], p[keep], rz[keep]
                if not live.size:
                    break
        whole = live.size == s_count
        if not whole:
            p_all[live] = p
        t = coupled(a_rb, p if whole else p_all, n_red)
        t *= inv_red
        q = coupled(a_br, t, n_black)
        Sp = d_black_live * p - (q if whole else q[live])
        alpha = rz / _row_dots(p, Sp)
        x += alpha * p
        r -= alpha * Sp
        np.multiply(inv_black, r, out=z)
        rz_new = _row_dots(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        iteration += 1
        res = np.sqrt(_row_dots(r, r)) / b_norm
        # a NaN minimum, like a residual at or below the tolerance, stops its system
        check = iteration >= max_iter or not res.min() > CG_REL_TOL

    values = np.empty((s_count, n))
    values[:, black] = x_black
    values[:, red] = inv_red * (f_red - coupled(a_rb, x_black, n_red))
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
