"""Quantity-of-interest models plugging the PDE solvers into the double loops.

Each model turns a substream draw plus one parameter-grid point into the
requested output: a nodal value or slice of the elliptic solution, or a
point value of the transport/wave solution.  The interval parameter is the
correlation length of the coefficient random field in all PDE models, and
each model's ``coefficient(draw, ell)`` is the one place where a draw and a
correlation length become a realized coefficient field.

Every model implements the block protocol of :mod:`~randset_pde.propagation`.
The elliptic model evaluates a whole block of draws at every grid point at
once (``evaluate_block``); its per-point ``evaluate`` is the reference path.
The hyperbolic point models solve each draw at all its correlation lengths
in one stacked characteristic solve (``evaluate_block``); their per-point
``evaluate`` solves one lattice.  They subclass
:class:`~randset_pde.propagation.PointwiseBlocks`, whose loop re-runs a draw
whose stacked solve fails, and keep the block ``draws`` of the KL field
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .characteristics import (
    DeterminacyRegion,
    TransportCoefficients,
    WaveMaterial,
    build_grids,
    reconstruct_displacement,
    solve_2x2_system,
    solve_transport,
    wave_to_system,
)
from .errors import (
    BoundViolationError,
    CoefficientBoundError,
    ConfigError,
    NonConvergenceError,
    NumericalError,
)
from .fem import (
    CG_REL_TOL,
    NONPOSITIVE_COEFFICIENTS,
    StructuredMesh,
    assemble,
    build_mesh,
    element_coefficients,
    load_vector,
    solve_cg,
    solve_cg_block,
)
from .fields import (
    CutoffField,
    ExpCovarianceParams,
    FieldEvaluator,
    FieldTable,
    GaussianDraw,
    coefficient_field_2d,
    field_tables,
    kl_bases,
    kl_eigenpairs,
)
from .propagation import (
    GaussianFamilyModel,
    ParameterGrid,
    PointwiseBlocks,
    QoISpec,
    failure_message,
)
from .randomsets import Interval
from .sampling import standard_normals

__all__ = [
    "EllipticModel",
    "TransportPointModel",
    "WavePointModel",
    "build_model",
]


# Samples whose coefficient fields a run's field plot shows (samples 0, 1, 2).
PLOT_SAMPLES = 3


class _KLFieldModel:
    """Draws and realized KL coefficient fields, shared by the PDE models.

    A draw holds ``n_fields`` blocks of 2*m_pairs standard normals, each the
    interleaved KL coefficients of one independent 1-d field on
    ``field_domain``.  Subclasses provide ``m_pairs`` and ``sigma`` and call
    ``_init_fields`` from their set-up; the KL eigenpairs are then built
    once per correlation length, normally all of them in ``prepare``, from
    one stacked root solve.
    """

    n_fields = 1

    def _init_fields(self, domain: Interval) -> None:
        self.field_domain = domain
        self._bases = {}
        self._plot_draws = None     # (seed, draws of samples 0..PLOT_SAMPLES-1)

    def _basis(self, ell: float):
        params = ExpCovarianceParams(self.sigma, float(ell), self.field_domain)
        if params.ell not in self._bases:
            self._bases[params.ell] = kl_eigenpairs(params, self.m_pairs)
        return params, self._bases[params.ell]

    def prepare(self, grid: ParameterGrid, extra_ells=()) -> None:
        """The KL bases of the grid's correlation lengths and of ``extra_ells``
        (such as a plot's), those not built yet, from one stacked root solve."""
        if grid.ndim != 1:
            raise ConfigError(f"{type(self).__name__} expects a 1-d correlation-length grid")
        ells = [ell for ell in dict.fromkeys(map(float, [*grid.axes[0], *extra_ells]))
                if ell not in self._bases]
        if ells:
            params = [ExpCovarianceParams(self.sigma, ell, self.field_domain) for ell in ells]
            self._bases.update(zip(ells, kl_bases(params, self.m_pairs)))

    def draw(self, seed: int, index: int) -> np.ndarray:
        return standard_normals(seed, index, self.n_fields * 2 * self.m_pairs)

    def draws(self, seed: int, indices) -> np.ndarray:
        """Draws of a block of samples, one row each, row b = draw(seed, indices[b]).

        A block that starts with samples 0..PLOT_SAMPLES-1 leaves a copy of
        their rows, and only of those, for :meth:`first_draws`.
        """
        block = standard_normals(seed, indices, self.n_fields * 2 * self.m_pairs)
        if np.array_equal(np.asarray(indices[:PLOT_SAMPLES]), np.arange(PLOT_SAMPLES)):
            self._plot_draws = (seed, block[:PLOT_SAMPLES].copy())
        return block

    def first_draws(self, seed: int, count: int) -> np.ndarray:
        """Draws of samples 0..count-1: the rows kept by the last block that
        drew them with ``seed``, or else a new block."""
        kept = self._plot_draws
        if kept is not None and kept[0] == seed and count <= PLOT_SAMPLES:
            return kept[1][:count]
        return self.draws(seed, range(count))

    def fields(self, draw: np.ndarray, ell: float) -> tuple:
        """The draw's realized 1-d KL fields at correlation length ell."""
        params, basis = self._basis(ell)
        blocks = np.reshape(draw, (self.n_fields, 2 * self.m_pairs))
        return tuple(FieldEvaluator(basis, GaussianDraw(xi), params) for xi in blocks)


@dataclass
class EllipticModel(_KLFieldModel):
    """Membrane displacement under a random coefficient field.

    The coefficient is a(x1,x2) = max(mean + q1(x1) q2(x2), a_min) with two
    independent 1-d KL fields evaluated on the unit interval.  Output is
    either the full slice along the grid row nearest ``slice_x2`` or the
    single nodal value nearest ``node``; the p-box component of a slice is
    the node nearest ``pbox_x1``.  The row or node must lie within SNAP_TOL
    of a grid spacing (1/ny in x2, 1/nx in x1) of what was requested;
    ``requested_point`` and ``solved_point`` hold both.
    """

    mesh: StructuredMesh
    m_pairs: int
    sigma: float = 1.0
    a_min: float = 0.1
    mean: float = 1.0
    load: float = 1.0
    slice_x2: Optional[float] = None
    node: Optional[tuple] = None
    pbox_x1: Optional[float] = None

    n_fields = 2

    def __post_init__(self):
        if (self.slice_x2 is None) == (self.node is None):
            raise ConfigError("specify exactly one of slice_x2 or node")
        if not self.a_min > 0.0:
            raise ConfigError("a_min must be positive")
        self._init_fields(Interval(0.0, 1.0))
        self._tables = {}
        self._abscissae = [np.unique(self.mesh.nodes[:, d], return_inverse=True)
                           for d in (0, 1)]
        if self.slice_x2 is not None:
            _, self._output_ids = self.mesh.row_nodes(self.slice_x2)
            self.requested_point = (float(self.slice_x2),)
            self.solved_point = (float(self.mesh.nodes[self._output_ids[0], 1]),)
        else:
            x1, x2 = self.node
            if not self.mesh.contains(x1, x2):
                raise ConfigError(f"node {self.node} outside the {self.mesh.shape} domain")
            d2 = (self.mesh.nodes[:, 0] - x1) ** 2 + (self.mesh.nodes[:, 1] - x2) ** 2
            self._output_ids = np.array([int(np.argmin(d2))])
            self.requested_point = (float(x1), float(x2))
            self.solved_point = tuple(float(v) for v in self.mesh.nodes[self._output_ids[0]])
        self._check_snap()
        self.output_labels = self.mesh.nodes[self._output_ids, 0]
        pbox_x1 = self.pbox_x1 if self.pbox_x1 is not None else 0.5
        self.pbox_component = int(np.argmin(np.abs(self.output_labels - pbox_x1)))

    def _check_snap(self) -> None:
        """ConfigError when the solved row or node is off the requested point by
        more than SNAP_TOL of a grid spacing (1/nx in x1, 1/ny in x2)."""
        mesh = self.mesh
        per_unit = (mesh.ny,) if self.slice_x2 is not None else (mesh.nx, mesh.ny)
        gap = max(abs(want - got) * n for want, got, n
                  in zip(self.requested_point, self.solved_point, per_unit))
        if gap <= SNAP_TOL:
            return
        requested, solved = (", ".join(f"{v:.6g}" for v in point)
                             for point in (self.requested_point, self.solved_point))
        raise ConfigError(
            f"{'slice x2' if self.slice_x2 is not None else 'node'} ({requested}) is not a "
            f"node of the {mesh.nx}x{mesh.ny} mesh: the nearest node is ({solved}), "
            f"{gap:.3g} of a spacing away (at most {SNAP_TOL:g} allowed)")

    def coefficient(self, draw: np.ndarray, ell: float) -> Callable:
        """The realized coefficient a(x1, x2) of one draw at correlation length ell."""
        q1, q2 = self.fields(draw, ell)
        return lambda x1, x2: coefficient_field_2d(self.mean, q1, q2, self.a_min, x1, x2)

    def evaluate(self, draw: np.ndarray, lam) -> np.ndarray:
        """One draw at one correlation length: the per-point reference path."""
        coeffs = element_coefficients(self.mesh, self.coefficient(draw, lam[0]))
        solution = solve_cg(assemble(self.mesh, coeffs, self.load))
        return solution.values[self._output_ids]

    def prepare(self, grid: ParameterGrid, extra_ells=()) -> None:
        """KL eigenpairs for every correlation length and ``extra_ells``, field
        tables for the grid's, and the mesh's colour scatter (the first
        import of scipy.sparse)."""
        super().prepare(grid, extra_ells)
        self._field_tables(grid.points[:, 0])
        self.mesh.colour_scatter

    def _field_tables(self, ells) -> tuple:
        """(M, n_x, 2m) KL tables of q1 and of q2 at the correlation lengths ells.

        The mesh has only nx+1 (ny+1) distinct abscissae per axis, so a field
        at every node is a table product followed by a gather.  When both
        axes have the same abscissae, both fields share one table.
        """
        key = tuple(float(ell) for ell in ells)
        if key not in self._tables:
            params, bases = zip(*(self._basis(ell) for ell in key))
            (xs1, _), (xs2, _) = self._abscissae
            table1 = field_tables(bases, params, xs1)
            table2 = table1 if np.array_equal(xs1, xs2) else field_tables(bases, params, xs2)
            self._tables[key] = (table1, table2)
        return self._tables[key]

    def evaluate_block(self, draws: np.ndarray, points: np.ndarray):
        """Values (B, M, P) of B draws at M correlation lengths, and failures.

        Each (draw, ell) system follows :meth:`evaluate` (same fields up to
        rounding, same cell averages and coefficient check, same CG steps
        and stopping rule), but the fields of the block come from two table
        products, all colour blocks from one product with the mesh's colour
        scatter and all solves from one batched CG.  Failed systems hold NaN.
        """
        draws = np.asarray(draws, dtype=float)
        n_b, n_m, width = draws.shape[0], points.shape[0], 2 * self.m_pairs
        xi = draws.reshape(n_b, 2, width)
        nodal = 1.0
        tables = self._field_tables(points[:, 0])
        for axis, ((_, inverse), table) in enumerate(zip(self._abscissae, tables)):
            q = (table.reshape(-1, width) @ xi[:, axis].T).reshape(n_m, -1, n_b)
            nodal = nodal * q.transpose(2, 0, 1)[:, :, inverse]     # (B, M, nodes)
        mesh = self.mesh
        nodal = np.maximum(self.mean + nodal, self.a_min)
        cells = nodal[:, :, mesh.quads].mean(axis=3).reshape(n_b * n_m, -1)

        # CoefficientSpec's positivity check, on every system's cells at once;
        # a NaN cell fails it too, so its system leaves the CG batch
        live = (cells > 0.0).all(axis=1)
        nonpositive = failure_message(CoefficientBoundError(NONPOSITIVE_COEFFICIENTS))
        messages = dict.fromkeys(np.flatnonzero(~live).tolist(), nonpositive)
        rhs = load_vector(mesh, self.load)[mesh.interior]
        solution = solve_cg_block(mesh.colour_scatter.blocks(cells[live]),
                                  np.broadcast_to(rhs, (int(live.sum()), rhs.size)))
        for s, ok in zip(np.nonzero(live)[0], solution.converged):
            if not ok:
                messages[s] = failure_message(NonConvergenceError(
                    f"CG did not reach {CG_REL_TOL:g} in {solution.max_iter} iterations"))

        position = mesh.position[self._output_ids]
        free_values = np.full((cells.shape[0], rhs.size), np.nan)
        free_values[live] = solution.values
        values = np.where(position >= 0, free_values[:, position], 0.0)
        values[list(messages)] = np.nan
        failures = {}
        for s in sorted(messages):
            b, i = divmod(s, n_m)
            failures.setdefault(b, (i, messages[s]))
        return values.reshape(n_b, n_m, -1), failures


# A point model's solved node may lie this fraction of a grid spacing from
# the requested point in x and in t; farther is a configuration error.
SNAP_TOL = 0.01


def _hitting_count(lo: float, hi: float, value: float, n: int, odd: bool, limit: int):
    """The node count of linspace(lo, hi, count) nearest n (odd if ``odd``)
    that puts a node within SNAP_TOL of a spacing of ``value``; None if no
    count up to ``limit`` does."""
    for count in sorted(range(3, limit + 1), key=lambda c: (abs(c - n), c)):
        if (count % 2 or not odd) and _snap_gap(np.linspace(lo, hi, count), value) <= SNAP_TOL:
            return count
    return None


def _snap_gap(grid: np.ndarray, value: float) -> float:
    """Distance from value to its nearest node of a uniform grid, in spacings."""
    return float(np.min(np.abs(grid - value))) / float(grid[1] - grid[0])


@dataclass(kw_only=True)
class _PointModel(_KLFieldModel, PointwiseBlocks):
    """Shared part of the hyperbolic point models.

    The coefficient is a KL field on [-kappa, kappa], shifted and clipped;
    the output is the solution at ``point``, which must be a node of the
    characteristic lattice of ``region`` (within SNAP_TOL of a spacing).
    Each solve traces and solves only the nodes that value depends on (the
    solvers' ``targets``).  ``evaluate_block`` solves each sample's M
    correlation lengths as one stacked solve of M lattices; each subclass's
    own ``evaluate`` (which ``perfbench/tracer.py`` wraps per class) is the
    per-point path, a solve of one lattice.
    """

    region: DeterminacyRegion
    nx: int
    nt: int
    m_pairs: int
    sigma: float
    point: tuple

    def _setup(self, cutoff: tuple, bound: float, bound_name: str, column: bool) -> None:
        """Checks, lattice and target nodes shared by subclasses.

        cutoff is (shift, lo, hi).  The target is the grid node at
        ``point``, or with ``column`` its whole column from t = 0, which the
        displacement reconstruction integrates.
        """
        if bound > self.region.c + 1e-12:
            raise ConfigError(f"region speed bound is smaller than {bound_name}")
        self._cutoff = cutoff
        self._init_fields(Interval(-self.region.kappa, self.region.kappa))
        self._xs, self._ts = build_grids(self.region, self.nx, self.nt)
        if not self.region.contains(*self.point):
            raise ConfigError(f"evaluation point {self.point} outside the cone")
        x, t = self.point
        i = int(np.argmin(np.abs(self._xs - x)))
        j = int(np.argmin(np.abs(self._ts - t)))
        if not self.region.contains(self._xs[i], self._ts[j]):
            raise ConfigError(f"nearest grid node to ({x}, {t}) lies outside the cone")
        self.requested_point = (float(x), float(t))
        self.solved_point = (float(self._xs[i]), float(self._ts[j]))
        self._check_snap()
        self._node = (j, i)
        self._targets = np.zeros((self._ts.size, self._xs.size), dtype=bool)
        if column:
            i0 = int(np.argmin(np.abs(self._ts)))     # the t = 0 level
            self._targets[min(i0, j):max(i0, j) + 1, i] = True
        else:
            self._targets[j, i] = True

    def _check_snap(self) -> None:
        """ConfigError when the solved node is off the requested point by more
        than SNAP_TOL of a spacing; the message names node counts that hit it."""
        (x, t), (kappa, T) = self.point, (self.region.kappa, self.region.T)
        gaps = (_snap_gap(self._xs, x), _snap_gap(self._ts, t))
        if max(gaps) <= SNAP_TOL:
            return
        hits = []
        for name, n, gap, half, value in (("nx", self.nx, gaps[0], kappa, x),
                                          ("nt", self.nt, gaps[1], T, t)):
            if gap > SNAP_TOL:
                limit = 4 * n + 40
                count = _hitting_count(-half, half, value, n, name == "nt", limit)
                hits.append(f"{name} = {count}" if count else f"no {name} up to {limit}")
        raise ConfigError(
            f"point ({x:g}, {t:g}) is not a node of the {self.nx}x{self.nt} lattice: the "
            f"nearest node is ({self.solved_point[0]:.6g}, {self.solved_point[1]:.6g}), "
            f"{max(gaps):.3g} of a spacing away (at most {SNAP_TOL:g} allowed); "
            f"{' and '.join(hits)} would put a node on it")

    def coefficient(self, draw: np.ndarray, ell: float) -> CutoffField:
        """The realized clipped coefficient field of one draw at correlation length ell.

        The smooth field is tabulated once (:class:`~randset_pde.fields.FieldTable`,
        quintic Hermite pieces within ``fields.TABLE_TOL`` of the exact
        sums), because tracing the characteristic lattice evaluates it at
        every RK4 stage point; the shift and the clip act on the
        interpolated values, so no interpolant ever spans a kink of the clip.
        """
        return self.coefficients(draw, [ell])

    def coefficients(self, draw: np.ndarray, ells) -> CutoffField:
        """The clipped coefficient fields of one draw at the correlation lengths
        ells, as one field whose value at points x reads ells[k]'s table at x[k]."""
        shift, lo, hi = self._cutoff
        table = FieldTable(*(self.fields(draw, ell)[0] for ell in ells))
        return CutoffField(table, shift=shift, lo=lo, hi=hi)

    def evaluate_block(self, draws, points: np.ndarray):
        """Values (B, M, 1) of B draws at M correlation lengths, and failures.

        Each draw's M correlation lengths are one solve of M lattices, whose
        target values equal M solves of one lattice.  A draw whose stacked
        solve raises NumericalError or BoundViolationError is evaluated
        again one point at a time, so its failure record is the one
        :class:`~randset_pde.propagation.PointwiseBlocks` keeps.
        """
        values = np.full((len(draws), points.shape[0], 1), np.nan)
        failures = {}
        for b, draw in enumerate(draws):
            try:
                values[b, :, 0] = self._solve(self.coefficients(draw, points[:, 0]),
                                              points.shape[0])
            except (NumericalError, BoundViolationError):
                row, failed = PointwiseBlocks.evaluate_block(self, draws[b:b + 1], points)
                values[b, :, :row.shape[2]] = row[0]
                if failed:
                    failures[b] = failed[0]
        return values, failures


@dataclass(kw_only=True)
class TransportPointModel(_PointModel):
    """Transport solution at one space-time point, speed = clipped KL field.

    a(x) = clip(a_mean + q(x), a_lo, a_hi) with the claimed speed bound
    max(|a_lo|, |a_hi|); the reaction f, source g, and initial datum u0 are
    fixed deterministic functions.
    """

    a_mean: float
    a_lo: float
    a_hi: float
    f: Union[float, Callable]
    g: Union[float, Callable]
    u0: Union[float, Callable]

    def __post_init__(self):
        if self.a_lo > self.a_hi:
            raise ConfigError("speed cutoff bounds out of order")
        self._bound = max(abs(self.a_lo), abs(self.a_hi))
        self._setup((self.a_mean, self.a_lo, self.a_hi), self._bound, "the speed cutoff",
                    column=False)

    def evaluate(self, draw: np.ndarray, lam) -> np.ndarray:
        """One draw at one correlation length: a solve of one lattice."""
        return np.atleast_1d(self._solve(self.coefficient(draw, lam[0]), None))

    def _solve(self, speed_field: CutoffField, lattices: Optional[int]) -> np.ndarray:
        """The solution at the point node, one value per lattice."""
        coeffs = TransportCoefficients(a=speed_field, f=self.f, g=self.g, u0=self.u0,
                                       c=self._bound)
        sol = solve_transport(coeffs, self.region, self._xs, self._ts, targets=self._targets,
                              lattices=lattices)
        j, i = self._node
        return sol.values[..., j, i]


@dataclass(kw_only=True)
class WavePointModel(_PointModel):
    """Rod displacement at one space-time point, modulus = clipped KL field.

    E(x) = clip(e_mean + q(x), e_min, e_max) with constant density, zero
    body force, initial displacement w (derivative w_prime supplied), zero
    initial velocity.  The speed bound is sqrt(e_max / rho).
    """

    e_mean: float
    e_min: float
    e_max: float
    w: Callable
    w_prime: Callable
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.e_min <= self.e_max:
            raise ConfigError("need 0 < e_min <= e_max")
        if not self.rho > 0.0:
            raise ConfigError("density must be positive")
        self._setup((self.e_mean, self.e_min, self.e_max),
                    float(np.sqrt(self.e_max / self.rho)), "sqrt(e_max/rho)", column=True)

    def evaluate(self, draw: np.ndarray, lam) -> np.ndarray:
        """One draw at one correlation length: a solve of one lattice."""
        return np.atleast_1d(self._solve(self.coefficient(draw, lam[0]), None))

    def _solve(self, modulus: CutoffField, lattices: Optional[int]) -> np.ndarray:
        """The displacement at the point node, one value per lattice."""
        a, f, g = wave_to_system(WaveMaterial(rho=self.rho, E=modulus, q=None))
        u01 = lambda x: -a(x) * self.w_prime(x)   # zero initial velocity
        u02 = lambda x: a(x) * self.w_prime(x)
        sol = solve_2x2_system(a, f, g, u01, u02, self.region, self._xs, self._ts,
                               targets=self._targets, lattices=lattices)
        j, i = self._node
        return reconstruct_displacement(sol, self.w, column=i)[..., j]


def build_model(qoi: QoISpec):
    """Instantiate the concrete model for a QoI specification."""
    scenario = dict(qoi.scenario)
    kind = qoi.model
    if kind == "gauss_identity":
        return GaussianFamilyModel()
    if kind in ("elliptic_node", "elliptic_slice"):
        mesh = scenario.pop("mesh", None)
        if mesh is None:
            mesh = build_mesh(scenario.pop("shape", "l_shape"),
                              scenario.pop("nx"), scenario.pop("ny"))
        if kind == "elliptic_slice":
            return EllipticModel(mesh=mesh, slice_x2=float(qoi.location[0]),
                                 pbox_x1=scenario.pop("pbox_x1", None), **scenario)
        return EllipticModel(mesh=mesh, node=(float(qoi.location[0]), float(qoi.location[1])),
                             **scenario)
    if kind == "transport_point":
        return TransportPointModel(point=tuple(qoi.location), **scenario)
    if kind == "wave_point":
        return WavePointModel(point=tuple(qoi.location), **scenario)
    raise ConfigError(f"unknown QoI model {kind!r}")
