"""Random-set uncertainty propagation through elliptic and hyperbolic PDEs.

The package couples interval-valued hyperparameters with Gaussian random
fields, pushes the resulting families through finite-element and
method-of-characteristics solvers on a shared probability space, and reports
lower/upper distribution functions (p-boxes), Aumann expectation interval
fields, and random-set versus parametric bound comparisons.
"""

import time

# Start of the package import; cli reports the span to its own loading as
# the manifest's import_seconds.
_IMPORT_STARTED = time.perf_counter()

from .randomsets import (  # noqa: E402
    Interval,
    FiniteRandomSet,
    RandomIntervalSample,
    PBox,
    ImpreciseGaussianSpec,
    inverse_normal_cdf,
    imprecise_gaussian_focal,
    upper_probability,
    lower_probability,
    empirical_pbox,
    aumann_expectation,
    interval_hull,
)
from .fields import (  # noqa: E402
    ExpCovarianceParams,
    KLBasis,
    GaussianDraw,
    FieldEvaluator,
    CutoffField,
    solve_characteristic_roots,
    kl_eigenpairs,
    sample_ou_paths,
    coefficient_field_2d,
)
from .fem import (  # noqa: E402
    StructuredMesh,
    CoefficientSpec,
    NodalSolution,
    SliceCurve,
    build_mesh,
    element_coefficients,
    assemble,
    solve_cg,
    extract_slice,
)
from .characteristics import (  # noqa: E402
    TransportCoefficients,
    DeterminacyRegion,
    CharacteristicCurve,
    GridSolution2D,
    WaveMaterial,
    domain_of_determinacy,
    trace_characteristic,
    solve_transport,
    wave_to_system,
    solve_2x2_system,
    reconstruct_displacement,
    build_grids,
)
from .propagation import (  # noqa: E402
    ParameterGrid,
    QoISpec,
    RandomSetResult,
    ParametricResult,
    IntervalMeanField,
    BoundComparison,
    GaussianFamilyModel,
    propagate_random_set,
    propagate_parametric,
    parametric_from_random_set,
    compare_bounds,
    interval_mean_field,
)
from .config import ScenarioConfig, parse_config  # noqa: E402

__version__ = "0.1.0"
