"""Input checks that the other tests never reach: each raises its own error.

Each case calls a public class or function with one bad argument and names
the exception class the check raises and a part of its message.  The
command-line cases run ``cli.main`` on a small scenario file and expect
exit code 2 with the check's message on stderr.
"""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import _oracles as oracle
from randset_pde import cli
from randset_pde.characteristics import (
    DeterminacyRegion,
    TransportCoefficients,
    WaveMaterial,
    build_grids,
    domain_of_determinacy,
    solve_transport,
    trace_characteristic,
    wave_to_system,
)
from randset_pde.errors import (
    CoefficientBoundError,
    ComparisonError,
    ConfigError,
    DomainError,
)
from randset_pde.fem import (
    CoefficientSpec,
    ColourScatter,
    assemble,
    build_mesh,
    solve_cg_block,
)
from randset_pde.fields import (
    CutoffField,
    ExpCovarianceParams,
    FieldEvaluator,
    FieldTable,
    GaussianDraw,
    kl_eigenpairs,
    sample_ou_paths,
)
from randset_pde.models import EllipticModel, TransportPointModel, WavePointModel
from randset_pde.propagation import (
    GaussianFamilyModel,
    ParameterGrid,
    compare_bounds,
    parametric_from_random_set,
    propagate_random_set,
)
from randset_pde.randomsets import (
    FiniteRandomSet,
    Interval,
    PBox,
    RandomIntervalSample,
    empirical_pbox,
    interval_hull,
)

UNIT = Interval(0.0, 1.0)
REGION = DeterminacyRegion(1.0, 0.4, 1.0)
XS, TS = np.linspace(-1.0, 1.0, 5), np.linspace(-0.4, 0.4, 5)


def field(domain=UNIT, m_pairs=3):
    params = ExpCovarianceParams(1.0, 0.5, domain)
    return FieldEvaluator(kl_eigenpairs(params, m_pairs), GaussianDraw(np.ones(2 * m_pairs)),
                          params)


def transport(c=1.0):
    return TransportCoefficients(a=1.0, f=0.0, g=0.0, u0=0.0, c=c)


def transport_point(**changes):
    kwargs = dict(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=21, nt=21, m_pairs=4,
                  sigma=0.3, point=(0.0, 0.2), a_mean=0.5, a_lo=0.1, a_hi=1.0,
                  f=0.0, g=0.0, u0=0.0)
    return TransportPointModel(**{**kwargs, **changes})


def wave_point(**changes):
    kwargs = dict(region=domain_of_determinacy(1.0, 0.4, 1.0), nx=21, nt=21, m_pairs=4,
                  sigma=0.3, point=(0.0, 0.2), e_mean=0.5, e_min=0.1, e_max=1.0,
                  w=np.sin, w_prime=np.cos)
    return WavePointModel(**{**kwargs, **changes})


def elliptic(**changes):
    kwargs = dict(mesh=build_mesh("rectangle", 4, 4), m_pairs=3, sigma=1.0, a_min=0.1,
                  slice_x2=0.5)
    return EllipticModel(**{**kwargs, **changes})


def gauss_run(grid_counts):
    grid = ParameterGrid.regular([Interval(-1.0, 1.0), Interval(1.0, 2.0)], grid_counts)
    return propagate_random_set(GaussianFamilyModel(), grid, 20, seed=0)


def compare_on_different_grids():
    rs = gauss_run([3, 2])
    return compare_bounds(rs, parametric_from_random_set(gauss_run([2, 3])))


def mismatched_cg_block():
    mesh = build_mesh("rectangle", 4, 4)
    blocks = mesh.colour_scatter.blocks(np.ones((1, mesh.quads.shape[0])))
    return solve_cg_block(blocks, np.ones((2, mesh.interior.size)))


def split_of(edit):
    """RedBlack.split of one 4x4 stiffness matrix after ``edit(matrix)``."""
    mesh = build_mesh("rectangle", 4, 4)
    system = assemble(mesh, CoefficientSpec(np.ones(mesh.quads.shape[0])), 1.0)
    return mesh.red_black.split(edit(system.matrix.copy()), 1)


def couple_same_colours(matrix):
    # the first stored diagonal-edge slot (it joins two dofs of one colour)
    colour = np.zeros(matrix.shape[0], dtype=bool)
    colour[build_mesh("rectangle", 4, 4).red_black.black] = True
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    same = (colour[rows] == colour[matrix.indices]) & (rows != matrix.indices)
    matrix.data[np.flatnonzero(same)[0]] = -0.25
    return matrix


def drop_first_diagonal(matrix):
    matrix = matrix.tolil()
    matrix[0, 0] = 0.0
    return matrix.tocsr()


def scatter_of(edit):
    """ColourScatter.build on the 4x4 mesh's reduced-pattern entries, as
    (rows, columns), after ``edit(colouring, rows, columns)``."""
    mesh = build_mesh("rectangle", 4, 4)
    indptr, indices, _ = oracle.reduced_pattern(mesh)
    rows, cols = edit(mesh.red_black, np.repeat(np.arange(indptr.size - 1), np.diff(indptr)),
                      indices)
    return ColourScatter.build(mesh.red_black, rows, cols, np.ones(rows.size),
                               np.zeros(rows.size, dtype=int), mesh.quads.shape[0])


def add_red_pair(colouring, rows, cols):
    # an entry joining two red dofs, as a diagonal edge that coupled them would
    return np.append(rows, colouring.red[0]), np.append(cols, colouring.red[1])


def drop_first_diagonal_entry(colouring, rows, cols):
    keep = (rows != 0) | (cols != 0)
    return rows[keep], cols[keep]


def two_pattern_block():
    mesh = build_mesh("rectangle", 4, 4)
    cells = np.ones(mesh.quads.shape[0])
    full = assemble(mesh, CoefficientSpec(cells), 1.0)
    matrix = sp.block_diag([oracle.reduced_block(mesh, cells[None]), full.matrix], format="csr")
    return mesh.red_black.split(matrix, 2)


CASES = {
    # characteristics
    "region: kappa <= 0": (lambda: DeterminacyRegion(0.0, 0.4, 1.0), DomainError,
                           "need kappa > 0"),
    "region: T <= 0": (lambda: DeterminacyRegion(1.0, 0.0, 1.0), DomainError, "need kappa > 0"),
    "region: c < 0": (lambda: DeterminacyRegion(1.0, 0.4, -1.0), DomainError, "need kappa > 0"),
    "transport coefficients: c < 0": (lambda: transport(c=-0.5), DomainError,
                                      "speed bound c must be nonnegative"),
    "build_grids: nx < 2": (lambda: build_grids(REGION, 1, 5), DomainError, "need nx >= 2"),
    "build_grids: even nt": (lambda: build_grids(REGION, 5, 4), DomainError, "nt must be odd"),
    "trace: step <= 0": (lambda: trace_characteristic(1.0, 0.0, 0.2, 0.0, 0.0), DomainError,
                         "step must be positive"),
    "solve: decreasing time grid": (lambda: solve_transport(transport(), REGION, XS, TS[::-1]),
                                    DomainError, "time grid must be strictly increasing"),
    "solve: decreasing space grid": (lambda: solve_transport(transport(), REGION, XS[::-1], TS),
                                     DomainError, "space grid must be strictly increasing"),
    "solve: bound above the region's": (lambda: solve_transport(transport(c=2.0), REGION,
                                                                XS, TS),
                                        DomainError, "exceeds the region's bound"),
    "wave_to_system: callable E without fd_step": (
        lambda: wave_to_system(WaveMaterial(rho=1.0, E=lambda x: 1.0 + 0.0 * x)),
        DomainError, "needs a positive fd_step"),
    "wave_to_system: E of another type": (lambda: wave_to_system(WaveMaterial(rho=1.0, E="1")),
                                          DomainError, "coefficient must be an evaluator"),
    # fields
    "covariance: sigma < 0": (lambda: ExpCovarianceParams(-1.0, 0.5, UNIT), DomainError,
                              "sigma must be nonnegative"),
    "covariance: ell <= 0": (lambda: ExpCovarianceParams(1.0, 0.0, UNIT), DomainError,
                             "correlation length must be positive"),
    "covariance: empty domain": (lambda: ExpCovarianceParams(1.0, 0.5, Interval(1.0, 1.0)),
                                 DomainError, "positive length"),
    "draw: odd length": (lambda: GaussianDraw(np.ones(3)), DomainError, "2*M interleaved"),
    "evaluator: draw of the wrong size": (
        lambda: FieldEvaluator(kl_eigenpairs(ExpCovarianceParams(1.0, 0.5, UNIT), 3),
                               GaussianDraw(np.ones(4)), ExpCovarianceParams(1.0, 0.5, UNIT)),
        DomainError, "does not match basis size"),
    "table: no field": (lambda: FieldTable(), DomainError, "at least one field"),
    "table: mixed domains": (lambda: FieldTable(field(), field(Interval(-1.0, 1.0))),
                             DomainError, "share one domain"),
    "cutoff: lo > hi": (lambda: CutoffField(field(), 0.5, 1.0, 0.1), DomainError,
                        "cutoff bounds out of order"),
    "ou paths: empty grid": (lambda: sample_ou_paths(ExpCovarianceParams(1.0, 0.5, UNIT),
                                                     [], []),
                             DomainError, "nonempty 1-d array"),
    "ou paths: 2-d grid": (lambda: sample_ou_paths(ExpCovarianceParams(1.0, 0.5, UNIT),
                                                   np.zeros((2, 2)), np.zeros(4)),
                           DomainError, "nonempty 1-d array"),
    "ou paths: decreasing grid": (lambda: sample_ou_paths(ExpCovarianceParams(1.0, 0.5, UNIT),
                                                          [0.2, 0.1], [0.0, 0.0]),
                                  DomainError, "strictly increasing"),
    "ou paths: unknown scheme": (lambda: sample_ou_paths(ExpCovarianceParams(1.0, 0.5, UNIT),
                                                         [0.0, 0.1], [0.0, 0.0], "milstein"),
                                 DomainError, "unknown scheme"),
    # fem
    "coefficients: alpha_lo <= 0": (lambda: CoefficientSpec(np.ones(4), alpha_lo=0.0),
                                    CoefficientBoundError, "alpha_lo must be positive"),
    "assemble: cell count": (lambda: assemble(build_mesh("rectangle", 2, 2),
                                              CoefficientSpec(np.ones(3)), 1.0),
                             DomainError, "must match cell count"),
    "colour blocks: cell count": (
        lambda: build_mesh("rectangle", 2, 2).colour_scatter.blocks(np.ones((2, 3))),
        DomainError, "must match cell count"),
    "solve_cg_block: size mismatch": (mismatched_cg_block, DomainError, "disagree in size"),
    "split: same-colour coupling": (lambda: split_of(couple_same_colours), DomainError,
                                    "same-colour off-diagonal entry"),
    "split: no diagonal": (lambda: split_of(drop_first_diagonal), DomainError,
                           "store its diagonal entry once"),
    "split: two patterns": (two_pattern_block, DomainError, "share one sparsity pattern"),
    "colour scatter: same-colour coupling": (lambda: scatter_of(add_red_pair), DomainError,
                                             "same-colour off-diagonal entry"),
    "colour scatter: no diagonal": (lambda: scatter_of(drop_first_diagonal_entry), DomainError,
                                    "store its diagonal entry once"),
    # randomsets
    "random set: length mismatch": (lambda: FiniteRandomSet((UNIT,), (0.5, 0.5)), DomainError,
                                    "length mismatch"),
    "random set: not an interval": (lambda: FiniteRandomSet(((0.0, 1.0),), (1.0,)),
                                    DomainError, "must be Interval instances"),
    "sample: shape mismatch": (lambda: RandomIntervalSample(np.zeros(2), np.ones(3)),
                               DomainError, "matching 1-d arrays"),
    "sample: 2-d bounds": (lambda: RandomIntervalSample(np.zeros((2, 2)), np.ones((2, 2))),
                           DomainError, "matching 1-d arrays"),
    "sample: non-finite": (lambda: RandomIntervalSample([0.0, math.nan], [1.0, 1.0]),
                           DomainError, "must be finite"),
    "sample: lower > upper": (lambda: RandomIntervalSample([0.0, 2.0], [1.0, 1.0]),
                              DomainError, "lower <= upper"),
    "pbox: shape mismatch": (lambda: PBox([0.0, 1.0], [0.1], [0.2, 0.3]), DomainError,
                             "matching nonempty 1-d arrays"),
    "pbox: empty": (lambda: PBox([], [], []), DomainError, "matching nonempty 1-d arrays"),
    "pbox: unsorted thresholds": (lambda: PBox([1.0, 0.0], [0.1, 0.2], [0.3, 0.4]),
                                  DomainError, "sorted ascending"),
    "empirical_pbox: no thresholds": (lambda: empirical_pbox(RandomIntervalSample([0.0], [1.0]),
                                                             []),
                                      DomainError, "must be nonempty"),
    "empirical_pbox: unsorted thresholds": (
        lambda: empirical_pbox(RandomIntervalSample([0.0], [1.0]), [1.0, 0.0]),
        DomainError, "sorted ascending"),
    "hull: non-finite": (lambda: interval_hull([0.0, math.inf]), DomainError,
                         "must be finite"),
    # propagation and models
    "gauss family: 1-d grid": (
        lambda: GaussianFamilyModel().prepare(ParameterGrid.regular([UNIT], [3])),
        DomainError, "expects a (mu, sigma) grid"),
    "gauss family: sigma <= 0": (
        lambda: GaussianFamilyModel().prepare(
            ParameterGrid.regular([UNIT, Interval(0.0, 1.0)], [2, 2])),
        DomainError, "sigma interval must be positive"),
    "propagate: zero samples": (
        lambda: propagate_random_set(GaussianFamilyModel(),
                                     ParameterGrid.regular([UNIT, Interval(1.0, 2.0)], [2, 2]),
                                     0, seed=0),
        DomainError, "at least one sample"),
    "compare: different grids": (compare_on_different_grids, ComparisonError,
                                 "different parameter grids"),
    "KL model: 2-d grid": (
        lambda: transport_point().prepare(ParameterGrid.regular([UNIT, UNIT], [2, 2])),
        ConfigError, "expects a 1-d correlation-length grid"),
    "elliptic: slice and node": (lambda: elliptic(node=(0.5, 0.5)), ConfigError,
                                 "exactly one of slice_x2 or node"),
    "elliptic: neither slice nor node": (lambda: elliptic(slice_x2=None), ConfigError,
                                         "exactly one of slice_x2 or node"),
    "elliptic: a_min <= 0": (lambda: elliptic(a_min=0.0), ConfigError, "a_min must be positive"),
    "transport point: bound above the region's": (
        lambda: transport_point(a_hi=2.0), ConfigError, "region speed bound is smaller"),
    "wave point: bound above the region's": (
        lambda: wave_point(e_max=4.0), ConfigError, "region speed bound is smaller"),
    "transport point: outside the cone": (lambda: transport_point(point=(0.9, 0.3)),
                                          ConfigError, "outside the cone"),
    "transport point: cutoff order": (lambda: transport_point(a_lo=0.8, a_hi=0.2), ConfigError,
                                      "cutoff bounds out of order"),
    "wave point: e_min <= 0": (lambda: wave_point(e_min=0.0), ConfigError,
                               "need 0 < e_min <= e_max"),
    "wave point: e_min > e_max": (lambda: wave_point(e_min=0.8, e_max=0.5), ConfigError,
                                  "need 0 < e_min <= e_max"),
    "wave point: rho <= 0": (lambda: wave_point(rho=0.0), ConfigError,
                             "density must be positive"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=list(CASES))
def test_bad_input_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


GAUSS = """
[meta]
schema_version = 1
[model]
kind = gauss
[family]
mu_min = -1.0
mu_max = 1.0
sigma_min = 1.0
sigma_max = 2.0
[propagation]
samples = 20
seed = 0
[qoi]
kind = gauss_identity
"""

ELLIPTIC = """
[meta]
schema_version = 1
[model]
kind = elliptic
[field]
m_terms = 3
[mesh]
shape = rectangle
nx = 4
ny = 4
"""

TRANSPORT_POINT = """
[meta]
schema_version = 1
[model]
kind = transport
[field]
ell_min = 0.5
ell_max = 1.5
m_terms = 3
[transport]
a_mean = 0.5
a_lo = 0.1
a_hi = 1.0
[propagation]
samples = 2
seed = 0
[qoi]
kind = transport_point
x = 0.0
t = 0.2
"""

CLI_CASES = {
    "missing required key": (["compare"], GAUSS.replace("mu_min = -1.0\n", ""),
                             "family.mu_min: required"),
    "malformed INI file": (["compare"], "just text, no section\n", "config parse error"),
    "propagate without a seed": (["propagate"], GAUSS.replace("seed = 0\n", ""),
                                 "propagation.seed: required (or pass --seed)"),
    "propagate without [region]": (["propagate"], TRANSPORT_POINT,
                                   "region: section required for hyperbolic models"),
    "transport without [region]": (
        ["transport"], "[meta]\nschema_version = 1\n[model]\nkind = transport\n"
                       "[transport]\na = 1.0\nu0 = 0.0\n",
        "region: section required for transport runs"),
    "compare without [family]": (["compare"], GAUSS.split("[family]")[0] + GAUSS.split(
        "sigma_max = 2.0\n")[1], "family: section required for the Gaussian family"),
    "single solve without a correlation length": (
        ["elliptic"], ELLIPTIC, "field.ell: required (or field.ell_min and field.ell_max)"),
    "sample-field of the Gaussian family": (
        ["sample-field"], GAUSS + "[field]\nell = 1.0\nm_terms = 3\n",
        "sample-field: needs an elliptic, transport_point or wave_point model"),
    "kl-table without --ell": (["kl-table", "--terms", "3"], None,
                               "field.ell: required (or pass --ell)"),
    "kl-table without --terms": (["kl-table", "--ell", "1.0"], None,
                                 "field.m_terms: required (or pass --terms)"),
}


@pytest.mark.parametrize("argv, config, message", CLI_CASES.values(), ids=list(CLI_CASES))
def test_bad_scenario_exits_2(tmp_path, capsys, argv, config, message):
    args = [*argv, "--out-dir", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "scenario.cfg"
        path.write_text(config)
        args += ["--config", str(path)]
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err
