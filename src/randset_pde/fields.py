"""Gaussian random fields with exponential autocorrelation exp(-|x-y|/ell).

Two samplers are provided.  The spectral one uses the closed-form
Karhunen-Loeve eigenpairs of the exponential kernel on [-1, 1] (general
intervals are handled by an affine rescaling of the correlation length) and
evaluates realizations, including exact spatial derivatives, anywhere in the
domain.  The Ornstein-Uhlenbeck sampler integrates the Langevin equation on
a grid and reuses one driving noise sequence across correlation lengths,
which couples the fields on a common probability space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, NumericalError, StepSizeError
from .randomsets import Interval
from .sampling import standard_normals

__all__ = [
    "ExpCovarianceParams",
    "KLBasis",
    "GaussianDraw",
    "FieldEvaluator",
    "CutoffField",
    "OUPath",
    "solve_characteristic_roots",
    "kl_eigenpairs",
    "evaluate_kl_field",
    "field_table",
    "sample_ou_path",
    "sample_ou_paths",
    "coefficient_field_2d",
]

ROOT_RTOL = 1e-13
ROOT_MAX_ITER = 200
ROOT_BISECTIONS = 4


@dataclass(frozen=True)
class ExpCovarianceParams:
    """Hyperparameters of the exponential-covariance field on an interval."""

    sigma: float
    ell: float
    domain: Interval

    def __post_init__(self):
        # sigma = 0 is allowed: it degenerates to the deterministic field
        if not self.sigma >= 0.0:
            raise DomainError(f"sigma must be nonnegative, got {self.sigma}")
        if not self.ell > 0.0:
            raise DomainError(f"correlation length must be positive, got {self.ell}")
        if not self.domain.width > 0.0:
            raise DomainError("spatial domain must have positive length")


def _bracketed_newton(g, dg, lo, hi, increasing):
    """Roots of g, one per bracket (lo, hi) with a single sign change, vectorised.

    A few bisection steps shrink the brackets; then Newton steps run, each
    one replaced by a bisection step when it would leave the bracket.  An
    entry is done once its last step moved it by at most
    ROOT_RTOL * max(1, x).  ``increasing`` gives the sign change's direction.
    """
    direction = 1.0 if increasing else -1.0
    for _ in range(ROOT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = direction * g(mid) < 0.0      # the root lies right of mid
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(ROOT_MAX_ITER):
        gx = g(x)
        right = direction * gx < 0.0
        lo, hi = np.where(right, x, lo), np.where(right, hi, x)
        newton = x - gx / dg(x)
        x_new = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.abs(x_new - x) <= ROOT_RTOL * np.maximum(1.0, x_new)
        x = x_new
        if np.all(done):
            break
    return x


def solve_characteristic_roots(ell_effective: float, m_pairs: int):
    """Roots of the two transcendental equations defining the KL spectrum.

    On branch k (k = 1..m_pairs) the cosine-family root alpha_k solves
    1/ell - alpha*tan(alpha) = 0 inside ((k-1)pi, (k-1)pi + pi/2), and the
    sine-family root alpha*_k solves alpha + tan(alpha)/ell = 0 inside
    ((k-1/2)pi, kpi).  Both functions are strictly monotone on their
    branches with analytically known endpoint signs, so a Newton iteration
    safeguarded by the bracket converges even for roots next to a tangent
    pole.  Returns (alphas, alphas_star).
    """
    if not ell_effective > 0.0:
        raise DomainError("ell_effective must be positive")
    if m_pairs < 1:
        raise DomainError("need at least one eigenpair")
    k = np.arange(m_pairs, dtype=float)
    inv_ell = 1.0 / ell_effective
    # Newton runs on g*|cos(a)|, which has the roots and signs of g but no
    # poles; cos(a) has the sign (-1)**k on branch k of the cosine family
    # and (-1)**(k+1) on that of the sine family.
    sign = np.where(k % 2 == 0, 1.0, -1.0)

    # cosine family: g1 = 1/ell - a*tan(a), decreasing from +1/ell to -inf
    alphas = _bracketed_newton(
        lambda a: sign * (np.cos(a) * inv_ell - a * np.sin(a)),
        lambda a: -sign * ((1.0 + inv_ell) * np.sin(a) + a * np.cos(a)),
        k * np.pi, k * np.pi + 0.5 * np.pi, increasing=False)
    # sine family: g2 = a + tan(a)/ell, increasing from -inf to k*pi
    alphas_star = _bracketed_newton(
        lambda a: -sign * (a * np.cos(a) + np.sin(a) * inv_ell),
        lambda a: -sign * ((1.0 + inv_ell) * np.cos(a) - a * np.sin(a)),
        (k + 0.5) * np.pi, (k + 1.0) * np.pi, increasing=True)

    bad = np.nonzero(
        (alphas <= k * np.pi) | (alphas >= k * np.pi + 0.5 * np.pi)
        | (alphas_star <= (k + 0.5) * np.pi) | (alphas_star >= (k + 1.0) * np.pi)
    )[0]
    if bad.size:
        raise NumericalError(f"root bracket failure on branch {int(bad[0]) + 1}")
    return alphas, alphas_star


@dataclass(frozen=True)
class KLBasis:
    """Closed-form KL eigenpairs for the unit-variance exponential kernel.

    All quantities live on the reference interval [-1, 1]; ``ell_effective``
    is the correlation length after rescaling the physical domain.  The
    eigenfunctions are cos(alpha_k x)/norm_k and sin(alpha*_k x)/norm*_k.
    """

    m_pairs: int
    alphas: np.ndarray
    alphas_star: np.ndarray
    eigvals: np.ndarray
    eigvals_star: np.ndarray
    norms: np.ndarray
    norms_star: np.ndarray
    ell_effective: float

    def __post_init__(self):
        for name in ("alphas", "alphas_star", "eigvals", "eigvals_star", "norms", "norms_star"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        k = np.arange(self.m_pairs, dtype=float)
        if np.any(np.diff(self.alphas) <= 0) or np.any(np.diff(self.alphas_star) <= 0):
            raise NumericalError("root sequences must be strictly increasing")
        if np.any(self.alphas <= k * np.pi) or np.any(self.alphas >= k * np.pi + 0.5 * np.pi):
            raise NumericalError("cosine-family roots left their brackets")
        if np.any(self.alphas_star <= (k + 0.5) * np.pi) or np.any(self.alphas_star >= (k + 1) * np.pi):
            raise NumericalError("sine-family roots left their brackets")
        for ev in (self.eigvals, self.eigvals_star):
            if np.any(ev <= 0) or np.any(np.diff(ev) >= 0):
                raise NumericalError("eigenvalues must be positive and strictly decreasing")

    def trace(self) -> float:
        """Partial sum of all 2*m_pairs eigenvalues (limit 2 on [-1, 1])."""
        return float(self.eigvals.sum() + self.eigvals_star.sum())

    def eigenfunctions(self, xhat):
        """Arrays (phi, phi_star) of shape (len(xhat), m_pairs) at reference points."""
        xhat = np.atleast_1d(np.asarray(xhat, dtype=float))
        phi = np.cos(np.outer(xhat, self.alphas)) / self.norms
        phi_star = np.sin(np.outer(xhat, self.alphas_star)) / self.norms_star
        return phi, phi_star

    def eigenfunction_derivatives(self, xhat):
        """d/dxhat of the eigenfunctions, same shapes as ``eigenfunctions``."""
        xhat = np.atleast_1d(np.asarray(xhat, dtype=float))
        dphi = -np.sin(np.outer(xhat, self.alphas)) * (self.alphas / self.norms)
        dphi_star = np.cos(np.outer(xhat, self.alphas_star)) * (self.alphas_star / self.norms_star)
        return dphi, dphi_star


def kl_eigenpairs(params: ExpCovarianceParams, m_pairs: int) -> KLBasis:
    """KL basis for the exponential kernel on the given physical domain.

    The domain [a, b] is mapped affinely onto [-1, 1]; the correlation
    length rescales to ell_eff = 2*ell/(b - a).  Eigenvalues are
    c_k = 2*ell_eff/(1 + ell_eff^2 alpha_k^2) and likewise for the sine
    family; normalization constants make the eigenfunctions orthonormal on
    the reference interval.
    """
    ell_eff = 2.0 * params.ell / params.domain.width
    alphas, alphas_star = solve_characteristic_roots(ell_eff, m_pairs)
    eigvals = 2.0 * ell_eff / (1.0 + (ell_eff * alphas) ** 2)
    eigvals_star = 2.0 * ell_eff / (1.0 + (ell_eff * alphas_star) ** 2)
    norms = np.sqrt(1.0 + np.sin(2.0 * alphas) / (2.0 * alphas))
    norms_star = np.sqrt(1.0 - np.sin(2.0 * alphas_star) / (2.0 * alphas_star))
    return KLBasis(
        m_pairs=m_pairs,
        alphas=alphas,
        alphas_star=alphas_star,
        eigvals=eigvals,
        eigvals_star=eigvals_star,
        norms=norms,
        norms_star=norms_star,
        ell_effective=ell_eff,
    )


@dataclass(frozen=True)
class GaussianDraw:
    """One realization of the 2M Gaussian coefficients, interleaved pairwise.

    ``xi[0::2]`` are the cosine-family coefficients, ``xi[1::2]`` the
    sine-family ones.  ``seed_path`` records (seed, sample index) when the
    draw came from a reproducible substream.
    """

    xi: np.ndarray
    seed_path: Optional[tuple] = None

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "xi", xi)
        if xi.ndim != 1 or xi.size == 0 or xi.size % 2:
            raise DomainError("draw must hold 2*M interleaved coefficients")

    @classmethod
    def sample(cls, m_pairs: int, seed: int, index: int) -> "GaussianDraw":
        return cls(standard_normals(seed, index, 2 * m_pairs), (seed, index))

    @classmethod
    def zeros(cls, m_pairs: int) -> "GaussianDraw":
        return cls(np.zeros(2 * m_pairs))

    @property
    def m_pairs(self) -> int:
        return self.xi.size // 2

    @property
    def xi_cos(self) -> np.ndarray:
        return self.xi[0::2]

    @property
    def xi_sin(self) -> np.ndarray:
        return self.xi[1::2]


@dataclass(frozen=True)
class FieldEvaluator:
    """A realized field: basis + draw, evaluable with derivative anywhere."""

    basis: KLBasis
    draw: GaussianDraw
    params: ExpCovarianceParams
    mode: str = "value"

    def __post_init__(self):
        if self.mode not in ("value", "derivative"):
            raise DomainError(f"mode must be 'value' or 'derivative', got {self.mode!r}")
        if self.draw.m_pairs != self.basis.m_pairs:
            raise DomainError("draw length does not match basis size")
        sigma = self.params.sigma
        w = sigma * np.sqrt(self.basis.eigvals) * self.draw.xi_cos / self.basis.norms
        w_star = sigma * np.sqrt(self.basis.eigvals_star) * self.draw.xi_sin / self.basis.norms_star
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_w_star", w_star)

    def value(self, x):
        xhat = _reference_coords(self.params.domain, x)
        flat = np.atleast_1d(xhat).ravel()
        out = (np.cos(np.outer(flat, self.basis.alphas)) @ self._w
               + np.sin(np.outer(flat, self.basis.alphas_star)) @ self._w_star)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(xhat.shape)

    def derivative(self, x):
        xhat = _reference_coords(self.params.domain, x)
        flat = np.atleast_1d(xhat).ravel()
        scale = 2.0 / self.params.domain.width  # chain rule of the affine map
        out = scale * (
            -np.sin(np.outer(flat, self.basis.alphas)) @ (self.basis.alphas * self._w)
            + np.cos(np.outer(flat, self.basis.alphas_star)) @ (self.basis.alphas_star * self._w_star)
        )
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(xhat.shape)

    def __call__(self, x):
        return self.derivative(x) if self.mode == "derivative" else self.value(x)


def _reference_coords(domain: Interval, x):
    """Affine map of points of ``domain`` onto [-1, 1]; DomainError outside."""
    arr = np.asarray(x, dtype=float)
    a, b = domain.lo, domain.hi
    tol = 1e-12 * max(1.0, abs(a), abs(b))
    if np.any(arr < a - tol) or np.any(arr > b + tol):
        raise DomainError(f"evaluation point outside field domain [{a}, {b}]")
    return (2.0 * arr - (a + b)) / (b - a)


def field_table(basis: KLBasis, params: ExpCovarianceParams, x) -> np.ndarray:
    """(len(x), 2*m_pairs) table T of the scaled eigenfunctions at points x.

    Columns are interleaved like a draw, so for every draw ``T @ xi`` is the
    realized field ``FieldEvaluator(basis, GaussianDraw(xi), params).value(x)``
    up to rounding: the table only regroups the products of each term.
    """
    phi, phi_star = basis.eigenfunctions(np.ravel(_reference_coords(params.domain, x)))
    table = np.empty((phi.shape[0], 2 * basis.m_pairs))
    table[:, 0::2] = phi * (params.sigma * np.sqrt(basis.eigvals))
    table[:, 1::2] = phi_star * (params.sigma * np.sqrt(basis.eigvals_star))
    return table


def evaluate_kl_field(f: FieldEvaluator, x):
    """Value of a realized KL field at x (derivative if f.mode says so)."""
    return f(x)


@dataclass(frozen=True)
class CutoffField:
    """Shifted field clipped to [lo, hi]; derivative is zero where clipped.

    Wraps an evaluator as shift + base(x), then applies the cutoff.  This is
    the 1-d building block used to keep PDE coefficients inside the bounds
    their well-posedness theory requires.
    """

    base: FieldEvaluator
    shift: Union[float, Callable] = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise DomainError("cutoff bounds out of order")

    def _shift_at(self, x):
        return self.shift(x) if callable(self.shift) else self.shift

    def value(self, x):
        raw = self._shift_at(x) + self.base.value(x)
        if self.lo is not None:
            raw = np.maximum(raw, self.lo)
        if self.hi is not None:
            raw = np.minimum(raw, self.hi)
        return float(raw) if np.ndim(x) == 0 else raw

    def derivative(self, x):
        raw = self._shift_at(x) + self.base.value(x)
        der = self.base.derivative(x)
        clipped = np.zeros_like(np.asarray(raw, dtype=float), dtype=bool)
        if self.lo is not None:
            clipped |= raw < self.lo
        if self.hi is not None:
            clipped |= raw > self.hi
        der = np.where(clipped, 0.0, der)
        return float(der) if np.ndim(x) == 0 else der


@dataclass(frozen=True)
class OUPath:
    """Ornstein-Uhlenbeck realization on a grid, with its driving noise."""

    xs: np.ndarray
    values: np.ndarray
    params: ExpCovarianceParams
    increments: np.ndarray

    def __post_init__(self):
        for name in ("xs", "values", "increments"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.xs.shape == self.values.shape == self.increments.shape):
            raise DomainError("grid/value/noise length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("path values must be finite")


def sample_ou_paths(params: ExpCovarianceParams, xs, noise, scheme: str = "euler") -> np.ndarray:
    """Integrate the Langevin equation for one or many noise sequences.

    ``noise`` has shape (n,) or (n_paths, n) with n = len(xs); entry 0 seeds
    the stationary initial value sigma*Z_0 and each later entry drives one
    step.  The Euler scheme is q_{i+1} = q_i (1 - dx/ell) + sigma
    sqrt(2 dx/ell) Z_{i+1}; reusing one noise array across different ell
    values couples the fields on a common probability space.  ``scheme``
    may be "exact" for the AR(1) transition (validation at fixed ell only).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 1:
        raise DomainError("grid must be a nonempty 1-d array")
    dx = np.diff(xs)
    if np.any(dx <= 0):
        raise DomainError("grid must be strictly increasing")
    noise = np.asarray(noise, dtype=float)
    squeeze = noise.ndim == 1
    z = noise[None, :] if squeeze else noise
    if z.shape[1] != xs.size:
        raise DomainError("noise length must equal grid length")
    if scheme not in ("euler", "exact"):
        raise DomainError(f"unknown scheme {scheme!r}")
    ell, sigma = params.ell, params.sigma
    if scheme == "euler" and dx.size and float(dx.max()) >= 0.5 * ell:
        raise StepSizeError(
            f"step {float(dx.max()):g} too coarse for ell={ell:g}; need dx < ell/2"
        )
    q = np.empty_like(z)
    q[:, 0] = sigma * z[:, 0]
    if scheme == "euler":
        drift = 1.0 - dx / ell
        diff = sigma * np.sqrt(2.0 * dx / ell)
    else:
        drift = np.exp(-dx / ell)
        diff = sigma * np.sqrt(1.0 - drift**2)
    for i in range(dx.size):
        q[:, i + 1] = q[:, i] * drift[i] + diff[i] * z[:, i + 1]
    return q[0] if squeeze else q


def sample_ou_path(params: ExpCovarianceParams, xs, noise, scheme: str = "euler") -> OUPath:
    """Single-path convenience wrapper around :func:`sample_ou_paths`."""
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 1:
        raise DomainError("sample_ou_path expects a single 1-d noise sequence")
    values = sample_ou_paths(params, xs, noise, scheme=scheme)
    return OUPath(np.asarray(xs, dtype=float), values, params, noise)


def coefficient_field_2d(mu, q1, q2, a_min: float, x1, x2):
    """2-d coefficient a(x1,x2) = max(mu + q1(x1)*q2(x2), a_min).

    ``mu`` may be a constant or a callable mu(x1, x2); ``q1``/``q2`` are 1-d
    field evaluators.  The lower cutoff keeps realizations positive, which
    is all the elliptic problem requires.
    """
    if not a_min > 0.0:
        raise DomainError("a_min must be positive")
    mean = mu(x1, x2) if callable(mu) else mu
    prod = np.asarray(q1.value(x1)) * np.asarray(q2.value(x2))
    out = np.maximum(mean + prod, a_min)
    if np.ndim(x1) == 0 and np.ndim(x2) == 0:
        return float(out)
    return out
