"""Double-loop propagation of hybrid random/interval uncertainty.

Random-set algorithm: discretize the parameter box Lambda into a grid,
generate N samples on a common probability space (substream (seed, k) per
sample), evaluate the model at every grid point with the SAME draw, and
collect per-sample min/max hulls.  The hull samples yield the empirical
lower/upper distribution functions and the Aumann expectation.

Parametric algorithm: per grid point, estimate the ordinary empirical CDF
and envelope the family pointwise.  With shared draws the two results obey
the exact ordering chain  f_lower <= f_low <= f_upp <= f_upper.

Models are evaluated a block of samples at a time through one protocol:
``draws(seed, indices)`` returns the block's draws, one row per sample, and
``evaluate_block(draws, points)`` returns the (B, M, P) values of every
sample at every grid point together with a dict ``{row: (grid index,
message)}`` of the samples that failed.  A model with only a per-sample
``draw(seed, index)`` and a per-point ``evaluate(draw, lam)`` runs through
the :class:`PointwiseBlocks` adapter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    ComparisonError,
    DomainError,
    NumericalError,
    PropagationRunError,
)
from .randomsets import (
    Interval,
    PBox,
    RandomIntervalSample,
    empirical_cdfs,
    empirical_pbox,
)
from .sampling import standard_normals

__all__ = [
    "ParameterGrid",
    "QoISpec",
    "RandomSetResult",
    "ParametricResult",
    "IntervalMeanField",
    "BoundComparison",
    "GaussianFamilyModel",
    "PointwiseBlocks",
    "SampleFailure",
    "propagate_random_set",
    "propagate_parametric",
    "parametric_from_random_set",
    "compare_bounds",
    "interval_mean_field",
    "default_thresholds",
]

DEFAULT_THRESHOLDS = 201
FAILURE_BUDGET = 0.01
# Samples per model call.  Outputs do not depend on it: each sample keeps its
# own substream and its own solves.
BLOCK_SIZE = 16
_INDEPENDENT_STRIDE = 1 << 32


@dataclass(frozen=True)
class ParameterGrid:
    """Regular grid over a multi-dimensional parameter interval Lambda."""

    dims: tuple
    counts: tuple
    axes: tuple
    points: np.ndarray  # (M, d), first dimension slowest

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @classmethod
    def regular(cls, dims: Sequence[Interval], counts: Sequence[int]) -> "ParameterGrid":
        dims = tuple(dims)
        counts = tuple(int(c) for c in counts)
        if len(dims) != len(counts) or not dims:
            raise DomainError("dims and counts must be nonempty and match")
        if any(c < 1 for c in counts):
            raise DomainError("need at least one grid point per dimension")
        axes = tuple(
            np.linspace(iv.lo, iv.hi, c) if c > 1 else np.array([iv.mid])
            for iv, c in zip(dims, counts)
        )
        points = np.array(list(itertools.product(*axes)), dtype=float)
        return cls(dims=dims, counts=counts, axes=axes, points=points)

    @property
    def m(self) -> int:
        return int(self.points.shape[0])

    @property
    def ndim(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class QoISpec:
    """Scalar or field-valued quantity of interest built from a PDE model.

    ``model`` is one of elliptic_node, elliptic_slice, transport_point,
    wave_point (or gauss_identity for the toy family); ``location`` is the
    evaluation point/row and ``scenario`` the full model configuration.
    """

    model: str
    location: tuple
    scenario: dict

    def build(self):
        from .models import build_model

        return build_model(self)


@dataclass(frozen=True)
class SampleFailure:
    sample_index: int
    grid_index: int
    message: str


@dataclass(frozen=True)
class RandomSetResult:
    """Output of the random-set double loop for one quantity of interest."""

    grid: ParameterGrid
    seed: int
    n_samples: int
    sample_indices: np.ndarray      # (N_eff,) sample index of each surviving row
    per_lambda_values: np.ndarray   # (N_eff, M, P)
    lowers: np.ndarray              # (N_eff, P) per-sample hull minima
    uppers: np.ndarray              # (N_eff, P)
    intervals: RandomIntervalSample  # hull samples of the p-box component
    pbox: PBox
    aumann: tuple                   # Interval per output component
    thresholds: np.ndarray
    pbox_component: int
    output_labels: Optional[np.ndarray] = None
    failures: tuple = ()

    @property
    def aumann_interval(self) -> Interval:
        return self.aumann[self.pbox_component]


@dataclass(frozen=True)
class ParametricResult:
    """Per-parameter empirical CDFs and their pointwise envelopes."""

    grid: ParameterGrid
    seed: int
    n_samples: int
    thresholds: np.ndarray
    per_lambda_ecdfs: np.ndarray   # (M, B)
    f_low: np.ndarray
    f_upp: np.ndarray
    shared_draws: bool
    failures: tuple = ()


@dataclass(frozen=True)
class IntervalMeanField:
    """Aumann expectation per output node plus the per-parameter mean curves."""

    labels: np.ndarray
    aumann: tuple                  # Interval per node
    per_lambda_means: np.ndarray   # (M, P)


@dataclass(frozen=True)
class BoundComparison:
    """Pointwise check of f_lower <= f_low <= f_upp <= f_upper."""

    thresholds: np.ndarray
    f_lower: np.ndarray
    f_low: np.ndarray
    f_upp: np.ndarray
    f_upper: np.ndarray
    violations: int

    @property
    def chain_holds(self) -> bool:
        return self.violations == 0


class GaussianFamilyModel:
    """Identity quantity of interest on the imprecise Gaussian family.

    The draw is a single standard normal z; the model value at parameters
    (mu, sigma) is mu + sigma*z, i.e. the quantile transform of a shared
    uniform sample.
    """

    output_size = 1
    output_labels = None
    pbox_component = 0

    def prepare(self, grid: ParameterGrid) -> None:
        if grid.ndim != 2:
            raise DomainError("Gaussian family expects a (mu, sigma) grid")
        if grid.dims[1].lo <= 0.0:
            raise DomainError("sigma interval must be positive")

    def draw(self, seed: int, index: int) -> float:
        return float(standard_normals(seed, index, 1)[0])

    def draws(self, seed: int, indices) -> np.ndarray:
        return standard_normals(seed, indices, 1)

    def evaluate(self, draw: float, lam) -> np.ndarray:
        mu, sigma = lam
        return np.array([mu + sigma * draw])

    def evaluate_grid(self, draw, points: np.ndarray) -> np.ndarray:
        """(M, 1) values of one draw at every grid point; (B, M, 1) for a (B, 1) block."""
        return (points[:, 0] + points[:, 1] * np.asarray(draw))[..., None]

    def evaluate_block(self, draws: np.ndarray, points: np.ndarray):
        return self.evaluate_grid(draws, points), {}


def failure_message(exc: Exception) -> str:
    """The message a failure record keeps of a model error."""
    return f"{type(exc).__name__}: {exc}"


class PointwiseBlocks:
    """The block protocol for a model that evaluates one draw at one grid point.

    ``model`` has ``draw(seed, index)`` and ``evaluate(draw, lam)``; its own
    block ``draws`` is used when it has one.  A sample stops at the first
    grid point whose evaluation raises a numerical or bound error.
    """

    def __init__(self, model):
        self.model = model

    def draws(self, seed: int, indices):
        block = getattr(self.model, "draws", None)
        if block is not None:
            return block(seed, indices)
        return [self.model.draw(seed, int(k)) for k in indices]

    def evaluate_block(self, draws, points: np.ndarray):
        values, failures = None, {}
        for b, draw in enumerate(draws):
            for i, lam in enumerate(points):
                try:
                    value = np.atleast_1d(np.asarray(self.model.evaluate(draw, tuple(lam)),
                                                     dtype=float))
                except (NumericalError, BoundViolationError) as exc:
                    failures[b] = (i, failure_message(exc))
                    break
                if values is None:
                    values = np.full((len(draws), points.shape[0], value.size), np.nan)
                values[b, i] = value
        if values is None:
            values = np.full((len(draws), points.shape[0], 0), np.nan)
        return values, failures


def _resolve_model(qoi):
    if isinstance(qoi, QoISpec):
        return qoi.build()
    if hasattr(qoi, "evaluate_block") or (hasattr(qoi, "evaluate") and hasattr(qoi, "draw")):
        return qoi
    raise DomainError("expected a QoISpec or a model object with draws/evaluate_block "
                      "or draw/evaluate")


def _first_failures(values, failures):
    """Per failed row of one block: (grid index, message) of its first failure.

    A model's own failure record stands unless a non-finite value comes at
    an earlier grid point; values after a recorded failure are not looked at.
    """
    bad = ~np.all(np.isfinite(values), axis=2)          # (B, M)
    first = {}
    for b in np.nonzero(bad.any(axis=1))[0]:
        i = int(np.argmax(bad[b]))
        if b not in failures or i < failures[b][0]:
            first[int(b)] = (i, "model returned non-finite values")
    return {**failures, **first}


def _run_samples(model, grid, n_samples, seed, draw_index=None):
    """Evaluate all (sample, lambda) pairs a block at a time.

    Returns (values of the surviving samples, their sample indices,
    failures); everything is determined by the sample indices alone.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    blocks = model if hasattr(model, "evaluate_block") else PointwiseBlocks(model)
    values, kept, failures = [], [], []
    for start in range(0, n_samples, BLOCK_SIZE):
        samples = np.arange(start, min(start + BLOCK_SIZE, n_samples))
        keys = samples if draw_index is None else [draw_index(int(k)) for k in samples]
        block, failed = blocks.evaluate_block(blocks.draws(seed, keys), grid.points)
        block = np.asarray(block, dtype=float)
        ok = np.ones(samples.size, dtype=bool)
        for b, (i, message) in sorted(_first_failures(block, failed).items()):
            failures.append(SampleFailure(int(samples[b]), int(i), message))
            ok[b] = False
        if ok.any():
            values.append(block[ok])
            kept.append(samples[ok])
    if len(failures) > FAILURE_BUDGET * n_samples:
        raise PropagationRunError(
            f"{len(failures)} of {n_samples} samples failed "
            f"(budget {FAILURE_BUDGET:.0%}); first: "
            f"sample {failures[0].sample_index}, grid point {failures[0].grid_index}: "
            f"{failures[0].message}",
            failures=failures,
        )
    if not values:
        raise PropagationRunError("all samples failed", failures=failures)
    return np.concatenate(values), np.concatenate(kept), tuple(failures)


def default_thresholds(lo: float, hi: float, count: int = DEFAULT_THRESHOLDS) -> np.ndarray:
    """Query grid spanning [lo, hi] padded by 5% of the range on both sides."""
    span = hi - lo
    pad = 0.05 * span if span > 0.0 else max(0.5, 1e-6 * abs(hi))
    return np.linspace(lo - pad, hi + pad, count)


def propagate_random_set(qoi, grid: ParameterGrid, n_samples: int, seed: int,
                         thresholds=None,
                         threshold_count: int = DEFAULT_THRESHOLDS) -> RandomSetResult:
    """Random-set double loop: one shared draw per sample, hull over the grid.

    Samples are evaluated in blocks of :data:`BLOCK_SIZE` in the calling thread.
    """
    model = _resolve_model(qoi)
    model.prepare(grid)
    values, samples, failures = _run_samples(model, grid, n_samples, seed)

    lowers = values.min(axis=1)
    uppers = values.max(axis=1)

    pc = getattr(model, "pbox_component", 0)
    intervals = RandomIntervalSample(lowers[:, pc], uppers[:, pc])
    if thresholds is None:
        thresholds = default_thresholds(float(intervals.lowers.min()),
                                        float(intervals.uppers.max()),
                                        count=threshold_count)
    thresholds = np.asarray(thresholds, dtype=float)
    pbox = empirical_pbox(intervals, thresholds)
    aumann = tuple(
        Interval(float(lowers[:, p].mean()), float(uppers[:, p].mean()))
        for p in range(values.shape[2])
    )
    labels = getattr(model, "output_labels", None)
    return RandomSetResult(
        grid=grid,
        seed=seed,
        n_samples=n_samples,
        sample_indices=samples,
        per_lambda_values=values,
        lowers=lowers,
        uppers=uppers,
        intervals=intervals,
        pbox=pbox,
        aumann=aumann,
        thresholds=thresholds,
        pbox_component=pc,
        output_labels=None if labels is None else np.asarray(labels),
        failures=failures,
    )


def _envelopes(grid, seed, n_samples, ecdfs, thresholds, shared_draws, failures):
    """The (M, B) per-parameter ECDFs and their pointwise envelopes."""
    return ParametricResult(
        grid=grid,
        seed=seed,
        n_samples=n_samples,
        thresholds=thresholds,
        per_lambda_ecdfs=ecdfs,
        f_low=ecdfs.min(axis=0),
        f_upp=ecdfs.max(axis=0),
        shared_draws=shared_draws,
        failures=failures,
    )


def propagate_parametric(qoi, grid: ParameterGrid, n_samples: int, seed: int,
                         thresholds=None, shared_draws: bool = True) -> ParametricResult:
    """Parametric double loop: per-parameter empirical CDFs and envelopes.

    With ``shared_draws`` every grid point sees the same (seed, k)
    substreams, which makes :func:`compare_bounds` exact; the envelopes are
    then read off the random-set run.  Otherwise each grid point gets its
    own independent substream family, and its ECDF is taken over the
    samples that survived at that point.
    """
    if shared_draws:
        return parametric_from_random_set(
            propagate_random_set(qoi, grid, n_samples, seed, thresholds=thresholds))
    model = _resolve_model(qoi)
    model.prepare(grid)
    if grid.m >= _INDEPENDENT_STRIDE or n_samples >= _INDEPENDENT_STRIDE:
        raise DomainError("independent-draw indexing supports < 2^32 points/samples")
    pc = getattr(model, "pbox_component", 0)
    columns, failures = [], []
    for i in range(grid.m):
        sub = ParameterGrid(
            dims=grid.dims, counts=(1,) * grid.ndim,
            axes=tuple(np.array([v]) for v in grid.points[i]),
            points=grid.points[i:i + 1],
        )
        vals, _, fails = _run_samples(
            model, sub, n_samples, seed,
            draw_index=lambda k, _i=i: (_i + 1) * _INDEPENDENT_STRIDE + k,
        )
        columns.append(vals[:, 0, pc])
        failures.extend(replace(f, grid_index=i) for f in fails)
    if thresholds is None:
        thresholds = default_thresholds(min(float(col.min()) for col in columns),
                                        max(float(col.max()) for col in columns))
    thresholds = np.asarray(thresholds, dtype=float)
    # columns hold independent samples, possibly of different sizes
    ecdfs = np.concatenate([empirical_cdfs(col[:, None], thresholds) for col in columns])
    return _envelopes(grid, seed, n_samples, ecdfs, thresholds, False, tuple(failures))


def parametric_from_random_set(rs: RandomSetResult) -> ParametricResult:
    """Shared-draw parametric envelopes from an existing random-set matrix.

    With shared draws both algorithms consume identical model evaluations,
    so the per-parameter ecdfs can be read off the stored (N, M) values
    without re-running the model.
    """
    scalar = rs.per_lambda_values[:, :, rs.pbox_component]
    return _envelopes(rs.grid, rs.seed, rs.n_samples, empirical_cdfs(scalar, rs.thresholds),
                      rs.thresholds, True, rs.failures)


def compare_bounds(rs: RandomSetResult, pm: ParametricResult) -> BoundComparison:
    """Verify the ordering chain at every threshold, exactly.

    Requires both results to come from the same seed, grid, and threshold
    grid with shared draws; then ecdf(upper hulls) <= every per-parameter
    ecdf <= ecdf(lower hulls) holds by per-sample enumeration.
    """
    if not pm.shared_draws:
        raise ComparisonError("parametric result must use shared draws")
    if rs.seed != pm.seed or rs.n_samples != pm.n_samples:
        raise ComparisonError("results come from different sampling configurations")
    if not np.array_equal(rs.grid.points, pm.grid.points):
        raise ComparisonError("results use different parameter grids")
    if not np.array_equal(rs.thresholds, pm.thresholds):
        raise ComparisonError("results use different threshold grids")
    fl, fu = rs.pbox.f_lower, rs.pbox.f_upper
    violations = int(np.count_nonzero(fl > pm.f_low)
                     + np.count_nonzero(pm.f_low > pm.f_upp)
                     + np.count_nonzero(pm.f_upp > fu))
    return BoundComparison(
        thresholds=rs.thresholds,
        f_lower=fl,
        f_low=pm.f_low,
        f_upp=pm.f_upp,
        f_upper=fu,
        violations=violations,
    )


def interval_mean_field(rs: RandomSetResult) -> IntervalMeanField:
    """Aumann expectation per output node, with per-parameter mean curves."""
    aumann = rs.aumann
    per_lambda_means = rs.per_lambda_values.mean(axis=0)   # (M, P)
    labels = rs.output_labels
    if labels is None:
        labels = np.arange(rs.per_lambda_values.shape[2], dtype=float)
    return IntervalMeanField(labels=labels, aumann=aumann,
                             per_lambda_means=per_lambda_means)
