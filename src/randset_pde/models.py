"""Quantity-of-interest models plugging the PDE solvers into the double loops.

Each model turns a substream draw plus one parameter-grid point into the
requested output: a nodal value or slice of the elliptic solution, or a
point value of the transport/wave solution.  The interval parameter is the
correlation length of the coefficient random field in all PDE models, and
each model's ``coefficient(draw, ell)`` is the one place where a draw and a
correlation length become a realized coefficient field.

The elliptic model evaluates a whole block of draws at every grid point at
once (``evaluate_block``); its per-point ``evaluate`` is the reference path.
The hyperbolic point models evaluate one draw at one point and run through
:class:`~randset_pde.propagation.PointwiseBlocks`.
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
from .errors import BoundViolationError, ConfigError, NonConvergenceError
from .fem import (
    CoefficientSpec,
    StructuredMesh,
    assemble,
    assemble_block,
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
    field_table,
    kl_eigenpairs,
)
from .propagation import GaussianFamilyModel, ParameterGrid, QoISpec, failure_message
from .randomsets import Interval
from .sampling import standard_normals

__all__ = [
    "EllipticModel",
    "TransportPointModel",
    "WavePointModel",
    "build_model",
]


class _KLFieldModel:
    """Draws and realized KL coefficient fields, shared by the PDE models.

    A draw holds ``n_fields`` blocks of 2*m_pairs standard normals, each the
    interleaved KL coefficients of one independent 1-d field on
    ``field_domain``.  Subclasses provide ``m_pairs`` and ``sigma`` and call
    ``_init_fields`` from their set-up; the KL eigenpairs are then built
    once per correlation length, normally all of them in ``prepare``.
    """

    n_fields = 1

    def _init_fields(self, domain: Interval) -> None:
        self.field_domain = domain
        self._bases = {}

    def _basis(self, ell: float):
        params = ExpCovarianceParams(self.sigma, float(ell), self.field_domain)
        if params.ell not in self._bases:
            self._bases[params.ell] = kl_eigenpairs(params, self.m_pairs)
        return params, self._bases[params.ell]

    def prepare(self, grid: ParameterGrid) -> None:
        if grid.ndim != 1:
            raise ConfigError(f"{type(self).__name__} expects a 1-d correlation-length grid")
        for ell in grid.axes[0]:
            self._basis(ell)

    def draw(self, seed: int, index: int) -> np.ndarray:
        return standard_normals(seed, index, self.n_fields * 2 * self.m_pairs)

    def draws(self, seed: int, indices) -> np.ndarray:
        """Draws of a block of samples, one row each, row b = draw(seed, indices[b])."""
        return standard_normals(seed, indices, self.n_fields * 2 * self.m_pairs)

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
    the node nearest ``pbox_x1``.
    """

    mesh: StructuredMesh
    m_pairs: int
    sigma: float = 1.0
    a_min: float = 0.1
    mean: Union[float, Callable] = 1.0
    load: Union[float, Callable] = 1.0
    slice_x2: Optional[float] = None
    node: Optional[tuple] = None
    pbox_x1: Optional[float] = None
    rel_tol: float = 1e-10

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
        else:
            x1, x2 = self.node
            if not self.mesh.contains(x1, x2):
                raise ConfigError(f"node {self.node} outside the {self.mesh.shape} domain")
            d2 = (self.mesh.nodes[:, 0] - x1) ** 2 + (self.mesh.nodes[:, 1] - x2) ** 2
            self._output_ids = np.array([int(np.argmin(d2))])
        self.output_labels = self.mesh.nodes[self._output_ids, 0]
        pbox_x1 = self.pbox_x1 if self.pbox_x1 is not None else 0.5
        self.pbox_component = int(np.argmin(np.abs(self.output_labels - pbox_x1)))

    def coefficient(self, draw: np.ndarray, ell: float) -> Callable:
        """The realized coefficient a(x1, x2) of one draw at correlation length ell."""
        q1, q2 = self.fields(draw, ell)
        return lambda x1, x2: coefficient_field_2d(self.mean, q1, q2, self.a_min, x1, x2)

    def evaluate(self, draw: np.ndarray, lam) -> np.ndarray:
        """One draw at one correlation length: the per-point reference path."""
        coeffs = element_coefficients(self.mesh, self.coefficient(draw, lam[0]))
        solution = solve_cg(assemble(self.mesh, coeffs, self.load), rel_tol=self.rel_tol)
        return solution.values[self._output_ids]

    def prepare(self, grid: ParameterGrid) -> None:
        super().prepare(grid)
        self._field_tables(grid.points[:, 0])

    def _field_tables(self, ells) -> tuple:
        """(M, n_x, 2m) KL tables of q1 and of q2 at the correlation lengths ells.

        The mesh has only nx+1 (ny+1) distinct abscissae per axis, so a field
        at every node is a table product followed by a gather.
        """
        key = tuple(float(ell) for ell in ells)
        if key not in self._tables:
            bases = [self._basis(ell) for ell in key]
            self._tables[key] = tuple(
                np.stack([field_table(basis, params, xs) for params, basis in bases])
                for xs, _ in self._abscissae)
        return self._tables[key]

    def evaluate_block(self, draws: np.ndarray, points: np.ndarray):
        """Values (B, M, P) of B draws at M correlation lengths, and failures.

        Each (draw, ell) system follows :meth:`evaluate` (same fields up to
        rounding, same cell averages and coefficient check, same CG steps
        and stopping rule), but the fields of the block come from two table
        products, all matrices from one product with the mesh's
        element-to-slot map and all solves from one batched CG.  Failed
        systems hold NaN.
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
        mean = self.mean(mesh.nodes[:, 0], mesh.nodes[:, 1]) if callable(self.mean) else self.mean
        nodal = np.maximum(mean + nodal, self.a_min)
        cells = nodal[:, :, mesh.quads].mean(axis=3).reshape(n_b * n_m, -1)

        messages = {}
        for s, values in enumerate(cells):
            try:
                CoefficientSpec(values)
            except BoundViolationError as exc:
                messages[s] = failure_message(exc)
        live = np.array([s not in messages for s in range(cells.shape[0])])
        rhs = load_vector(mesh, self.load)[mesh.interior]
        solution = solve_cg_block(assemble_block(mesh, cells[live]),
                                  np.broadcast_to(rhs, (int(live.sum()), rhs.size)),
                                  rel_tol=self.rel_tol)
        for s, ok in zip(np.nonzero(live)[0], solution.converged):
            if not ok:
                messages[s] = failure_message(NonConvergenceError(
                    f"CG did not reach {self.rel_tol:g} in {solution.max_iter} iterations"))

        position = mesh.reduced_pattern.position[self._output_ids]
        free_values = np.full((cells.shape[0], rhs.size), np.nan)
        free_values[live] = solution.values
        values = np.where(position >= 0, free_values[:, position], 0.0)
        values[list(messages)] = np.nan
        failures = {}
        for s in sorted(messages):
            b, i = divmod(s, n_m)
            failures.setdefault(b, (i, messages[s]))
        return values.reshape(n_b, n_m, -1), failures


@dataclass(kw_only=True)
class _PointModel(_KLFieldModel):
    """Shared part of the hyperbolic point models.

    The coefficient is a KL field on [-kappa, kappa], shifted and clipped;
    the output is the solution at ``point`` on the characteristic lattice
    of ``region``.  Each solve traces and solves only the nodes that value
    depends on (the solvers' ``targets``).
    """

    region: DeterminacyRegion
    nx: int
    nt: int
    m_pairs: int
    sigma: float
    point: tuple

    output_labels = None
    pbox_component = 0

    def _setup(self, cutoff: tuple, bound: float, bound_name: str, column: bool) -> None:
        """Checks, lattice and target nodes shared by subclasses.

        cutoff is (shift, lo, hi).  The target is the grid node nearest
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
        self._node = (j, i)
        self._targets = np.zeros((self._ts.size, self._xs.size), dtype=bool)
        if column:
            i0 = int(np.argmin(np.abs(self._ts)))     # the t = 0 level
            self._targets[min(i0, j):max(i0, j) + 1, i] = True
        else:
            self._targets[j, i] = True

    def coefficient(self, draw: np.ndarray, ell: float) -> CutoffField:
        """The realized clipped coefficient field of one draw at correlation length ell.

        The smooth field is tabulated once (:class:`~randset_pde.fields.FieldTable`,
        within ``fields.TABLE_TOL`` of the exact sums), because tracing the
        characteristic lattice evaluates it at every RK4 stage point; the
        shift and the clip act on the interpolated values, so no
        interpolant ever spans a kink of the clip.
        """
        (q,) = self.fields(draw, ell)
        shift, lo, hi = self._cutoff
        return CutoffField(FieldTable(q), shift=shift, lo=lo, hi=hi)


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
        speed_field = self.coefficient(draw, lam[0])
        coeffs = TransportCoefficients(
            a=lambda x, t: speed_field.value(x),
            f=self.f, g=self.g, u0=self.u0,
            c=self._bound, a_time_dependent=False,
        )
        sol = solve_transport(coeffs, self.region, self._xs, self._ts, targets=self._targets)
        j, i = self._node
        return sol.values[j:j + 1, i]


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
        modulus = self.coefficient(draw, lam[0])
        a, f, g = wave_to_system(WaveMaterial(rho=self.rho, E=modulus, q=None))
        u01 = lambda x: -a(x) * self.w_prime(x)   # zero initial velocity
        u02 = lambda x: a(x) * self.w_prime(x)
        sol = solve_2x2_system(a, f, g, u01, u02, self.region, self._xs, self._ts,
                               a_time_dependent=False, targets=self._targets)
        displacement = reconstruct_displacement(sol, self.w)
        j, i = self._node
        return displacement[j:j + 1, i]


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
