"""Core random-set primitives on the real line.

Intervals are the universal focal-element shape here: a finite random set is
a weighted collection of intervals, a random interval sample is a list of
realized intervals, and a p-box is the pair of lower/upper empirical CDFs
bounding the distributions compatible with such a sample.  The imprecise
Gaussian family (interval-valued mean and standard deviation) provides the
canonical toy example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "Interval",
    "FiniteRandomSet",
    "RandomIntervalSample",
    "PBox",
    "ImpreciseGaussianSpec",
    "inverse_normal_cdf",
    "imprecise_gaussian_focal",
    "upper_probability",
    "lower_probability",
    "empirical_cdfs",
    "empirical_pbox",
    "aumann_expectation",
    "interval_hull",
]

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, order=True)
class Interval:
    """Closed bounded interval [lo, hi] with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise DomainError(f"interval bounds out of order: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class FiniteRandomSet:
    """Finite random set: focal intervals A_i with probability weights p_i."""

    focals: tuple
    weights: tuple

    def __post_init__(self):
        focals = tuple(self.focals)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "focals", focals)
        object.__setattr__(self, "weights", weights)
        if not focals:
            raise DomainError("finite random set needs at least one focal element")
        if len(focals) != len(weights):
            raise DomainError("focal/weight length mismatch")
        if any(not isinstance(a, Interval) for a in focals):
            raise DomainError("focal elements must be Interval instances")
        if any(w < 0.0 for w in weights):
            raise DomainError("weights must be nonnegative")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")

    @property
    def n_focals(self) -> int:
        return len(self.focals)


@dataclass(frozen=True)
class RandomIntervalSample:
    """Realizations [lo_k, hi_k] of a random interval, stored as arrays."""

    lowers: np.ndarray
    uppers: np.ndarray

    def __post_init__(self):
        lowers = np.atleast_1d(np.asarray(self.lowers, dtype=float))
        uppers = np.atleast_1d(np.asarray(self.uppers, dtype=float))
        object.__setattr__(self, "lowers", lowers)
        object.__setattr__(self, "uppers", uppers)
        if lowers.ndim != 1 or uppers.shape != lowers.shape:
            raise DomainError("lowers/uppers must be matching 1-d arrays")
        if lowers.size == 0:
            raise DomainError("a random interval sample must be nonempty")
        if not (np.all(np.isfinite(lowers)) and np.all(np.isfinite(uppers))):
            raise DomainError("sample bounds must be finite")
        if np.any(lowers > uppers):
            raise DomainError("every sample must satisfy lower <= upper")

    @classmethod
    def from_intervals(cls, intervals) -> "RandomIntervalSample":
        intervals = list(intervals)
        return cls(
            np.array([iv.lo for iv in intervals], dtype=float),
            np.array([iv.hi for iv in intervals], dtype=float),
        )

    @property
    def n(self) -> int:
        return int(self.lowers.size)

    @property
    def samples(self) -> tuple:
        return tuple(Interval(float(lo), float(hi)) for lo, hi in zip(self.lowers, self.uppers))


@dataclass(frozen=True)
class PBox:
    """Lower/upper CDF values on a sorted grid of query thresholds."""

    thresholds: np.ndarray
    f_lower: np.ndarray
    f_upper: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        fl = np.atleast_1d(np.asarray(self.f_lower, dtype=float))
        fu = np.atleast_1d(np.asarray(self.f_upper, dtype=float))
        object.__setattr__(self, "thresholds", b)
        object.__setattr__(self, "f_lower", fl)
        object.__setattr__(self, "f_upper", fu)
        if not (b.shape == fl.shape == fu.shape) or b.ndim != 1 or b.size == 0:
            raise DomainError("thresholds/f_lower/f_upper must be matching nonempty 1-d arrays")
        if np.any(np.diff(b) < 0):
            raise DomainError("thresholds must be sorted ascending")
        if np.any(fl < 0.0) or np.any(fu > 1.0) or np.any(fl > fu):
            raise DomainError("need 0 <= f_lower <= f_upper <= 1 at every threshold")
        if np.any(np.diff(fl) < 0) or np.any(np.diff(fu) < 0):
            raise DomainError("p-box curves must be nondecreasing")

    @property
    def n_thresholds(self) -> int:
        return int(self.thresholds.size)


@dataclass(frozen=True)
class ImpreciseGaussianSpec:
    """Gaussian family with interval mean and interval standard deviation."""

    mu: Interval
    sigma: Interval

    def __post_init__(self):
        if self.sigma.lo <= 0.0:
            raise DomainError("sigma interval must be strictly positive")


# --- inverse normal CDF -----------------------------------------------------

# Rational approximation of the standard normal quantile (P. Acklam, 2003),
# refined below by Halley steps on the erfc-based CDF residual.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_SPLIT = 0.02425


def _polyval(coeffs, x):
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _acklam(p: np.ndarray) -> np.ndarray:
    z = np.empty_like(p)
    lower = p < _ACKLAM_SPLIT
    upper = p > 1.0 - _ACKLAM_SPLIT
    central = ~(lower | upper)
    if np.any(central):
        q = p[central] - 0.5
        r = q * q
        z[central] = q * _polyval(_ACKLAM_A, r) / (_polyval(_ACKLAM_B, r) * r + 1.0)
    if np.any(lower):
        q = np.sqrt(-2.0 * np.log(p[lower]))
        z[lower] = _polyval(_ACKLAM_C, q) / (_polyval(_ACKLAM_D, q) * q + 1.0)
    if np.any(upper):
        q = np.sqrt(-2.0 * np.log1p(-p[upper]))
        z[upper] = -_polyval(_ACKLAM_C, q) / (_polyval(_ACKLAM_D, q) * q + 1.0)
    return z


def inverse_normal_cdf(p):
    """Standard normal quantile z with Phi(z) = p, for p strictly in (0,1).

    Accepts scalars or arrays.  The rational starting guess is polished by
    two Halley iterations on Phi(z) - p evaluated through erfc, which keeps
    the absolute error in z well below 1e-12 across p in [1e-300, 1-1e-16].
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size == 0:
        return arr.copy()
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("probability must lie strictly inside (0, 1)")
    z = _acklam(np.atleast_1d(arr))
    sqrt2 = math.sqrt(2.0)
    sqrt2pi = math.sqrt(2.0 * math.pi)
    for _ in range(2):
        err = 0.5 * special.erfc(-z / sqrt2) - np.atleast_1d(arr)
        u = err * sqrt2pi * np.exp(0.5 * z * z)
        z = z - u / (1.0 + 0.5 * z * u)
    if arr.ndim == 0:
        return float(z[0])
    return z.reshape(arr.shape)


def imprecise_gaussian_focal(omega: float, spec: ImpreciseGaussianSpec) -> Interval:
    """Focal interval of the imprecise Gaussian family at sample point omega.

    The hull of mu + sigma*z over the parameter box is attained at the
    corners: for z >= 0 the minimum uses (mu_lo, sigma_lo) and the maximum
    (mu_hi, sigma_hi); for z < 0 the sigma roles swap.
    """
    z = inverse_normal_cdf(omega)
    if z >= 0.0:
        return Interval(spec.mu.lo + spec.sigma.lo * z, spec.mu.hi + spec.sigma.hi * z)
    return Interval(spec.mu.lo + spec.sigma.hi * z, spec.mu.hi + spec.sigma.lo * z)


# --- set functionals ---------------------------------------------------------


def upper_probability(rs: FiniteRandomSet, event: Interval) -> float:
    """Total weight of focal elements that hit the event interval."""
    return math.fsum(w for a, w in zip(rs.focals, rs.weights) if a.intersects(event))


def lower_probability(rs: FiniteRandomSet, event: Interval) -> float:
    """Total weight of focal elements contained in the event interval."""
    return math.fsum(w for a, w in zip(rs.focals, rs.weights) if event.contains_interval(a))


def empirical_cdfs(columns: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Empirical CDF of each column of an (N, K) sample at sorted thresholds.

    Right-continuous convention: row i of the (K, B) result holds
    #{k: columns[k, i] <= b}/N for every threshold b.
    """
    n = columns.shape[0]
    return np.stack([np.searchsorted(np.sort(col), thresholds, side="right") / n
                     for col in columns.T])


def empirical_pbox(sample: RandomIntervalSample, thresholds) -> PBox:
    """Empirical lower/upper CDFs of a random interval sample.

    Right-continuous convention: f_lower(b) = #{k: hi_k <= b}/N and
    f_upper(b) = #{k: lo_k <= b}/N.
    """
    b = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if b.size == 0:
        raise DomainError("threshold grid must be nonempty")
    if np.any(np.diff(b) < 0):
        raise DomainError("thresholds must be sorted ascending")
    f_lower, f_upper = empirical_cdfs(np.column_stack([sample.uppers, sample.lowers]), b)
    return PBox(b, f_lower, f_upper)


def aumann_expectation(sample: RandomIntervalSample) -> Interval:
    """Expectation of a random interval: [mean of lowers, mean of uppers]."""
    return Interval(float(np.mean(sample.lowers)), float(np.mean(sample.uppers)))


def interval_hull(values) -> Interval:
    """Smallest interval containing a finite nonempty list of reals."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise DomainError("cannot take the hull of an empty collection")
    if not np.all(np.isfinite(arr)):
        raise DomainError("hull values must be finite")
    return Interval(float(arr.min()), float(arr.max()))
