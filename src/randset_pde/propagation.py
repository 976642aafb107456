"""Double-loop propagation of hybrid random/interval uncertainty.

Random-set algorithm: discretize the parameter box Lambda into a grid,
generate N samples on a common probability space (substream (seed, k) per
sample), evaluate the model at every grid point with the SAME draw, and
collect per-sample min/max hulls.  The hull samples yield the empirical
lower/upper distribution functions and the Aumann expectation.

Parametric algorithm: per grid point, the ordinary empirical CDF of the
same samples, enveloped pointwise.  Since every grid point sees the same
draws, the two results obey the exact ordering chain
f_lower <= f_low <= f_upp <= f_upper.

Every model speaks one protocol: ``prepare(grid)`` before the first block;
``draws(seed, indices)``, the block's draws, one row per sample;
``evaluate_block(draws, points)``, the (B, M, P) values of every sample at
every given grid point together with a dict ``{row: (grid index, message)}``
of the samples that failed; and the attributes ``output_labels`` and
``pbox_component``.  One sample loop, :func:`_run_samples`, serves both
double loops: the parametric envelopes are read off the random-set run.  A
model that evaluates one draw at one grid point subclasses
:class:`PointwiseBlocks`, which builds the protocol from its ``draw`` and
``evaluate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
# Samples per model evaluation.  Outputs do not depend on it: each sample
# keeps its own substream and its own solves.
BLOCK_SIZE = 16
# Samples per ``model.draws`` call, a multiple of BLOCK_SIZE: one Philox
# kernel pass draws them all, and draw memory stays bounded independently
# of the run's sample count.  Outputs do not depend on it either.
DRAW_BLOCK = 64 * BLOCK_SIZE


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

    output_labels = None
    pbox_component = 0

    def prepare(self, grid: ParameterGrid) -> None:
        if grid.ndim != 2:
            raise DomainError("Gaussian family expects a (mu, sigma) grid")
        if grid.dims[1].lo <= 0.0:
            raise DomainError("sigma interval must be positive")

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
    """Base class of a model that evaluates one draw at one grid point.

    The subclass provides ``prepare(grid)``, ``draw(seed, index)`` and
    ``evaluate(draw, lam)``, and inherits the block protocol from them; it
    may still define a block ``draws`` of its own, as the point models do.
    A sample stops at the first grid point whose evaluation raises a
    numerical or bound error.
    """

    output_labels = None
    pbox_component = 0

    def draws(self, seed: int, indices):
        return [self.draw(seed, int(k)) for k in indices]

    def evaluate_block(self, draws, points: np.ndarray):
        values, failures = None, {}
        for b, draw in enumerate(draws):
            for i, lam in enumerate(points):
                try:
                    value = np.atleast_1d(np.asarray(self.evaluate(draw, tuple(lam)),
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
    if hasattr(qoi, "draws") and hasattr(qoi, "evaluate_block"):
        return qoi
    raise DomainError("expected a QoISpec or a model object with draws and evaluate_block")


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


def _check_budget(failures, n_samples) -> None:
    """Raise PropagationRunError when more than FAILURE_BUDGET of the samples failed."""
    if len(failures) > FAILURE_BUDGET * n_samples:
        first = failures[0]
        raise PropagationRunError(
            f"{len(failures)} of {n_samples} samples failed "
            f"(budget {FAILURE_BUDGET:.0%}); first: "
            f"sample {first.sample_index}, grid point {first.grid_index}: {first.message}",
            failures=failures,
        )


def _run_samples(model, grid, n_samples, seed):
    """Evaluate all (sample, lambda) pairs a block at a time.

    Draws come from one ``model.draws`` call per :data:`DRAW_BLOCK` samples,
    sample k from substream (seed, k), and are evaluated in slices of
    :data:`BLOCK_SIZE`.  Returns (values of the surviving samples, their
    sample indices, failures); everything is determined by the sample
    indices alone.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    values, kept, failures = [], [], []
    for draw_start in range(0, n_samples, DRAW_BLOCK):
        drawn = np.arange(draw_start, min(draw_start + DRAW_BLOCK, n_samples))
        draws = model.draws(seed, drawn)
        for start in range(0, drawn.size, BLOCK_SIZE):
            samples = drawn[start:start + BLOCK_SIZE]
            block, failed = model.evaluate_block(draws[start:start + BLOCK_SIZE], grid.points)
            block = np.asarray(block, dtype=float)
            if not failed and np.isfinite(block).all():
                values.append(block)            # a clean block: every sample survives
                kept.append(samples)
                continue
            ok = np.ones(samples.size, dtype=bool)
            for b, (i, message) in sorted(_first_failures(block, failed).items()):
                failures.append(SampleFailure(int(samples[b]), int(i), message))
                ok[b] = False
            if ok.any():
                values.append(block[ok])
                kept.append(samples[ok])
    _check_budget(failures, n_samples)   # raises whenever every sample failed
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

    pc = model.pbox_component
    intervals = RandomIntervalSample(lowers[:, pc], uppers[:, pc])
    if thresholds is None:
        thresholds = default_thresholds(float(intervals.lowers.min()),
                                        float(intervals.uppers.max()),
                                        count=threshold_count)
    thresholds = np.asarray(thresholds, dtype=float)
    pbox = empirical_pbox(intervals, thresholds)
    # each node's samples made contiguous, so that a row mean sums them in the
    # pairwise order of the node's 1-d mean
    aumann = tuple(
        Interval(float(lo), float(hi)) for lo, hi in
        zip(*(np.ascontiguousarray(ends.T).mean(axis=1) for ends in (lowers, uppers)))
    )
    labels = model.output_labels
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


def propagate_parametric(qoi, grid: ParameterGrid, n_samples: int, seed: int,
                         thresholds=None) -> ParametricResult:
    """Parametric double loop: per-parameter empirical CDFs and envelopes.

    Every grid point sees the same (seed, k) substreams, so the envelopes
    are read off the random-set run and :func:`compare_bounds` is exact.
    """
    return parametric_from_random_set(
        propagate_random_set(qoi, grid, n_samples, seed, thresholds=thresholds))


def parametric_from_random_set(rs: RandomSetResult) -> ParametricResult:
    """Parametric envelopes from an existing random-set matrix.

    Both algorithms consume identical model evaluations, so the
    per-parameter ecdfs are read off the stored (N, M) values without
    re-running the model.
    """
    ecdfs = empirical_cdfs(rs.per_lambda_values[:, :, rs.pbox_component], rs.thresholds)
    return ParametricResult(
        grid=rs.grid,
        seed=rs.seed,
        n_samples=rs.n_samples,
        thresholds=rs.thresholds,
        per_lambda_ecdfs=ecdfs,
        f_low=ecdfs.min(axis=0),
        f_upp=ecdfs.max(axis=0),
        failures=rs.failures,
    )


def compare_bounds(rs: RandomSetResult, pm: ParametricResult) -> BoundComparison:
    """Verify the ordering chain at every threshold, exactly.

    Requires both results to come from the same seed, grid, and threshold
    grid; then ecdf(upper hulls) <= every per-parameter ecdf <= ecdf(lower
    hulls) holds by per-sample enumeration.
    """
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
