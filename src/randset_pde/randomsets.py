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


# Wichura's AS241 (Applied Statistics 37, 1988, 477-484): rational
# approximations num(x)/den(x) of degree 7, one per branch, each polynomial
# with its x**7 coefficient first.
# |p - 1/2| <= 0.425, x = 0.180625 - (p - 1/2)**2; num is multiplied by p - 1/2
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
# tails, r = sqrt(-log(min(p, 1 - p))) <= 5, x = r - 1.6
_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0))
# tails, r > 5 (p < 1.4e-11 or p > 1 - 1.4e-11), x = r - 5
_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))


def _rational(branch: tuple, x: np.ndarray) -> tuple:
    """num(x) and den(x) of an AS241 branch, each by Horner's rule.

    Float coefficients against 1-d arrays take numpy's fast scalar path,
    which a stacked (2, n) evaluation with (2, 1) coefficients does not.
    """
    values = []
    for coefs in branch:
        acc = x * coefs[0]
        for c in coefs[1:-1]:
            acc += c
            acc *= x
        acc += coefs[-1]
        values.append(acc)
    return tuple(values)


def _as241(p: np.ndarray) -> np.ndarray:
    """AS241 quantile of a float64 array inside (0, 1), in a new array of its shape.

    Each element takes the same floating-point steps as the scalar
    ``statistics.NormalDist().inv_cdf``, so the two agree bit for bit.  The
    central fraction runs on every element; the tail fractions run only on
    the elements that need them, and not at all when none does.
    """
    flat = p.ravel()
    q = flat - 0.5
    num, den = _rational(_CENTRAL, 0.180625 - q * q)
    num *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        p_tail = flat[tail]
        r = np.sqrt(-np.log(np.minimum(p_tail, 1.0 - p_tail)))
        t_num, t_den = _rational(_NEAR_TAIL, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            t_num[far], t_den[far] = _rational(_FAR_TAIL, r[far] - 5.0)
        # both tail numerators are positive: the sign of q is the sign of z
        num[tail] = np.copysign(t_num, q[tail])
        den[tail] = t_den
    # divided straight into an array of p's shape that owns its data, as
    # ndtri's result did, not handed back as a reshaped view of a 1-d one
    z = np.empty(p.shape)
    np.divide(num, den, out=z.reshape(-1))
    return z


def inverse_normal_cdf(p):
    """Standard normal quantile z with Phi(z) = p, for p strictly in (0, 1).

    Accepts scalars (returns a float) or arrays (returns an array of the
    same shape).  A non-finite p, or p outside (0, 1), raises DomainError
    rather than returning an infinity or NaN.

    The quantile is Wichura's AS241 (Applied Statistics 37, 1988), the
    algorithm of CPython's ``statistics.NormalDist.inv_cdf``, in numpy array
    arithmetic; it equals that scalar code bit for bit.  Against
    ``scipy.special.ndtri`` the difference in z stays below 1e-14 *
    max(1, |z|) for p in [1e-300, 1 - 2**-53] (at most 2.7e-15 over 10**7
    points of the (k + 1/2) 2**-53 draw grid), and against a 30-digit
    mpmath quantile below 1e-12 * max(1, |z|).  Like ndtri, it is monotone
    only up to reversals of one or two ulp between some adjacent floats.
    scipy.special is not used: importing it loads scipy's array-API layer,
    about 0.35 s of a 0.5 s package import that every command would pay.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size == 0:
        return arr.copy()
    # a NaN makes min and max NaN, which fails both comparisons
    if not (arr.min() > 0.0 and arr.max() < 1.0):
        raise DomainError("probability must lie strictly inside (0, 1)")
    z = _as241(arr)
    return float(z) if arr.ndim == 0 else z


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


# Columns copied into contiguous rows per block of empirical_cdfs: 16 float64
# columns are 128 bytes of each sample row, whole cache lines, where sorting a
# strided column reads a cache line per value.  Sorting the whole matrix at
# once is slower: its matrix-sized temporaries cost more than the blocks.
_ECDF_BLOCK = 16


def empirical_cdfs(columns: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Empirical CDF of each column of an (N, K) sample at sorted thresholds.

    Right-continuous convention: row i of the (K, B) result holds
    #{k: columns[k, i] <= b}/N for every threshold b.
    """
    n, k = columns.shape
    counts = np.empty((k, len(thresholds)), dtype=np.intp)
    block = np.empty((min(k, _ECDF_BLOCK), n), dtype=columns.dtype)
    for start in range(0, k, _ECDF_BLOCK):
        rows = block[:min(_ECDF_BLOCK, k - start)]
        np.copyto(rows, columns[:, start:start + _ECDF_BLOCK].T)
        rows.sort(axis=1)
        for i, row in enumerate(rows, start):
            counts[i] = np.searchsorted(row, thresholds, side="right")
    return counts / n


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
