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
from typing import Union

import numpy as np

from .errors import DomainError, NumericalError, StepSizeError
from .randomsets import Interval
from .sampling import standard_normals

__all__ = [
    "ExpCovarianceParams",
    "KLBasis",
    "GaussianDraw",
    "FieldEvaluator",
    "FieldTable",
    "CutoffField",
    "solve_characteristic_roots",
    "kl_eigenpairs",
    "kl_bases",
    "field_values",
    "field_tables",
    "sample_ou_paths",
    "coefficient_field_2d",
]

ROOT_RTOL = 1e-13
ROOT_MAX_ITER = 200
ROOT_BISECTIONS = 4
TABLE_TOL = 1e-12      # FieldTable's interpolation error bound


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


def _bracketed_newton(g_dg, lo, hi, c, increasing):
    """Roots of g(x, c), one per bracket (lo, hi) with a single sign change, vectorised.

    ``g_dg(x, c)`` returns g and its derivative at x.  ``lo`` and ``hi`` are
    (R, m) brackets and ``c`` an (R, 1) constant of each row, passed to
    ``g_dg`` with the row's points.  A few bisection steps
    shrink the brackets; then Newton steps run, each one replaced by a
    bisection step when it would leave the bracket.  An entry is done once
    its last step moved it by at most ROOT_RTOL * max(1, x).  A row stops,
    and is frozen, once all of its own entries are done (or after
    ROOT_MAX_ITER steps): stepping a finished root further can move it by an
    ulp, so each row's roots equal those of a call with that row alone.
    ``increasing`` gives the sign change's direction.
    """
    direction = 1.0 if increasing else -1.0
    for _ in range(ROOT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = direction * g_dg(mid, c)[0] < 0.0   # the root lies right of mid
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    x = 0.5 * (lo + hi)
    roots = np.empty_like(x)
    rows = np.arange(x.shape[0])
    for _ in range(ROOT_MAX_ITER):
        gx, dgx = g_dg(x, c)
        right = direction * gx < 0.0
        lo, hi = np.where(right, x, lo), np.where(right, hi, x)
        newton = x - gx / dgx
        x_new = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.abs(x_new - x) <= ROOT_RTOL * np.maximum(1.0, x_new)
        x = x_new
        finished = done.all(axis=1)
        if finished.any():
            roots[rows[finished]] = x[finished]
            keep = ~finished
            rows, x, lo, hi, c = rows[keep], x[keep], lo[keep], hi[keep], c[keep]
            if not rows.size:
                return roots
    roots[rows] = x
    return roots


def solve_characteristic_roots(ell_effective, m_pairs: int):
    """Roots of the two transcendental equations defining the KL spectrum.

    On branch k (k = 1..m_pairs) the cosine-family root alpha_k solves
    1/ell - alpha*tan(alpha) = 0 inside ((k-1)pi, (k-1)pi + pi/2), and the
    sine-family root alpha*_k solves alpha + tan(alpha)/ell = 0 inside
    ((k-1/2)pi, kpi).  Both functions are strictly monotone on their
    branches with analytically known endpoint signs, so a Newton iteration
    safeguarded by the bracket converges even for roots next to a tangent
    pole.  Returns (alphas, alphas_star), each of shape (m_pairs,) for a
    scalar ``ell_effective``.  A 1-d array of R lengths is solved in one
    stacked pass and gives (R, m_pairs) arrays whose row r equals the
    scalar call at ell_effective[r] bit for bit; a scalar is the one-row
    call.
    """
    ells = np.asarray(ell_effective, dtype=float)
    if ells.ndim > 1 or ells.size == 0:
        raise DomainError("ell_effective must be a scalar or a nonempty 1-d array")
    if not np.all(ells > 0.0):
        raise DomainError("ell_effective must be positive")
    if m_pairs < 1:
        raise DomainError("need at least one eigenpair")
    k = np.arange(m_pairs, dtype=float)
    shape = (ells.size, m_pairs)
    inv_ell = 1.0 / ells.reshape(-1, 1)
    # Newton runs on g*|cos(a)|, which has the roots and signs of g but no
    # poles; cos(a) has the sign (-1)**k on branch k of the cosine family
    # and (-1)**(k+1) on that of the sine family.
    sign = np.where(k % 2 == 0, 1.0, -1.0)

    # cosine family: g1 = 1/ell - a*tan(a), decreasing from +1/ell to -inf
    def cosine_family(a, c):
        cos, sin = np.cos(a), np.sin(a)
        return sign * (cos * c - a * sin), -sign * ((1.0 + c) * sin + a * cos)

    # sine family: g2 = a + tan(a)/ell, increasing from -inf to k*pi
    def sine_family(a, c):
        cos, sin = np.cos(a), np.sin(a)
        return -sign * (a * cos + sin * c), -sign * ((1.0 + c) * cos - a * sin)

    alphas = _bracketed_newton(
        cosine_family,
        np.broadcast_to(k * np.pi, shape), np.broadcast_to(k * np.pi + 0.5 * np.pi, shape),
        inv_ell, increasing=False)
    alphas_star = _bracketed_newton(
        sine_family,
        np.broadcast_to((k + 0.5) * np.pi, shape), np.broadcast_to((k + 1.0) * np.pi, shape),
        inv_ell, increasing=True)

    bad = np.argwhere(
        (alphas <= k * np.pi) | (alphas >= k * np.pi + 0.5 * np.pi)
        | (alphas_star <= (k + 0.5) * np.pi) | (alphas_star >= (k + 1.0) * np.pi)
    )
    if bad.size:
        row, branch = bad[0]
        raise NumericalError(f"root bracket failure on branch {int(branch) + 1} "
                             f"(ell_effective {ells.reshape(-1)[row]:g})")
    if ells.ndim == 0:
        return alphas[0], alphas_star[0]
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
        _check_spectra(self.m_pairs, self.alphas, self.alphas_star,
                       self.eigvals, self.eigvals_star)

    @classmethod
    def _checked(cls, **fields) -> "KLBasis":
        """A basis from float arrays that already passed :func:`_check_spectra`,
        built without running the checks again."""
        basis = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(basis, name, value)
        return basis

    def trace(self) -> float:
        """Partial sum of all 2*m_pairs eigenvalues (limit 2 on [-1, 1])."""
        return float(self.eigvals.sum() + self.eigvals_star.sum())

    def eigenfunctions(self, xhat):
        """Arrays (phi, phi_star) of shape (len(xhat), m_pairs) at reference points."""
        xhat = np.atleast_1d(np.asarray(xhat, dtype=float))
        phi = np.cos(np.outer(xhat, self.alphas)) / self.norms
        phi_star = np.sin(np.outer(xhat, self.alphas_star)) / self.norms_star
        return phi, phi_star


_SPECTRUM_CHECKS = (
    "root sequences must be strictly increasing",
    "cosine-family roots left their brackets",
    "sine-family roots left their brackets",
    "eigenvalues must be positive and strictly decreasing",
)


def _check_spectra(m_pairs, alphas, alphas_star, eigvals, eigvals_star) -> None:
    """KLBasis's checks on one spectrum, or on R stacked as (R, m_pairs) rows.

    Raises NumericalError with the message of the first check that fails on
    the first failing row, which is what building the rows' bases one by
    one raises.
    """
    k = np.arange(m_pairs, dtype=float)
    failed = np.stack([
        (np.diff(alphas) <= 0).any(axis=-1) | (np.diff(alphas_star) <= 0).any(axis=-1),
        ((alphas <= k * np.pi) | (alphas >= k * np.pi + 0.5 * np.pi)).any(axis=-1),
        ((alphas_star <= (k + 0.5) * np.pi) | (alphas_star >= (k + 1) * np.pi)).any(axis=-1),
        ((eigvals <= 0) | (eigvals_star <= 0)).any(axis=-1)
        | (np.diff(eigvals) >= 0).any(axis=-1) | (np.diff(eigvals_star) >= 0).any(axis=-1),
    ]).reshape(len(_SPECTRUM_CHECKS), -1)
    rows = failed.any(axis=0)
    if rows.any():
        raise NumericalError(_SPECTRUM_CHECKS[int(np.argmax(failed[:, np.argmax(rows)]))])


def kl_eigenpairs(params: ExpCovarianceParams, m_pairs: int) -> KLBasis:
    """KL basis for the exponential kernel on the given physical domain.

    The domain [a, b] is mapped affinely onto [-1, 1]; the correlation
    length rescales to ell_eff = 2*ell/(b - a).  Eigenvalues are
    c_k = 2*ell_eff/(1 + ell_eff^2 alpha_k^2) and likewise for the sine
    family; normalization constants make the eigenfunctions orthonormal on
    the reference interval.
    """
    return kl_bases([params], m_pairs)[0]


def kl_bases(params, m_pairs: int) -> list:
    """The KL bases of several parameter sets, from one stacked root solve.

    ``params`` is a nonempty sequence of ExpCovarianceParams; basis r equals
    ``kl_eigenpairs(params[r], m_pairs)`` field for field, bit for bit.
    KLBasis's checks run once, on the stacked arrays.
    """
    ell_eff = np.array([2.0 * p.ell / p.domain.width for p in params])
    alphas, alphas_star = solve_characteristic_roots(ell_eff, m_pairs)
    col = ell_eff[:, None]
    eigvals = 2.0 * col / (1.0 + (col * alphas) ** 2)
    eigvals_star = 2.0 * col / (1.0 + (col * alphas_star) ** 2)
    norms = np.sqrt(1.0 + np.sin(2.0 * alphas) / (2.0 * alphas))
    norms_star = np.sqrt(1.0 - np.sin(2.0 * alphas_star) / (2.0 * alphas_star))
    _check_spectra(m_pairs, alphas, alphas_star, eigvals, eigvals_star)
    return [
        KLBasis._checked(
            m_pairs=m_pairs,
            alphas=alphas[r],
            alphas_star=alphas_star[r],
            eigvals=eigvals[r],
            eigvals_star=eigvals_star[r],
            norms=norms[r],
            norms_star=norms_star[r],
            ell_effective=float(ell_eff[r]),
        )
        for r in range(ell_eff.size)
    ]


@dataclass(frozen=True)
class GaussianDraw:
    """One realization of the 2M Gaussian coefficients, interleaved pairwise.

    ``xi[0::2]`` are the cosine-family coefficients, ``xi[1::2]`` the
    sine-family ones.
    """

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "xi", xi)
        if xi.ndim != 1 or xi.size == 0 or xi.size % 2:
            raise DomainError("draw must hold 2*M interleaved coefficients")

    @classmethod
    def sample(cls, m_pairs: int, seed: int, index: int) -> "GaussianDraw":
        return cls(standard_normals(seed, index, 2 * m_pairs))

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

    def __post_init__(self):
        if self.draw.m_pairs != self.basis.m_pairs:
            raise DomainError("draw length does not match basis size")
        sigma = self.params.sigma
        w = sigma * np.sqrt(self.basis.eigvals) * self.draw.xi_cos / self.basis.norms
        w_star = sigma * np.sqrt(self.basis.eigvals_star) * self.draw.xi_sin / self.basis.norms_star
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_w_star", w_star)

    def value(self, x):
        out = field_values([self], x)[0]
        return float(out) if np.ndim(x) == 0 else out

    def derivative(self, x):
        xhat = _reference_coords(self.params.domain, x)
        flat = np.atleast_1d(xhat).ravel()
        scale = 2.0 / self.params.domain.width  # chain rule of the affine map
        out = scale * (
            -np.sin(np.outer(flat, self.basis.alphas)) @ (self.basis.alphas * self._w)
            + np.cos(np.outer(flat, self.basis.alphas_star)) @ (self.basis.alphas_star * self._w_star)
        )
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(xhat.shape)


class FieldTable:
    """Realized fields tabulated once: FieldEvaluator's interface, no trig sums.

    The nodes lie on a uniform grid of spacing h over the reference interval
    [-1, 1], and the exact q, q', q'' and q''' (in reference coordinates)
    are computed at each.  ``value`` is the quintic Hermite interpolant on
    (q, q', q''), ``derivative`` the one on (q', q'', q''') times the
    chain-rule scale; each piece is kept as its six power-form coefficients,
    so a lookup is one gather and a Horner step.  For a field with term
    weights w and frequencies alpha, the quintic Hermite error bound
    h**6/46080 * max|f^(6)|, with max|q^(6)| <= sum alpha**6 |w| and
    max|q^(7)| <= sum alpha**7 |w| (times the chain-rule scale for the
    derivative in x), sets the spacing that keeps both within TABLE_TOL of
    ``FieldEvaluator``, up to the rounding of either.  Points outside the
    domain raise DomainError.

    Given M fields on one domain, the table stacks them: the pieces of all M
    lie in one array, written in place, and a lookup at points x whose
    leading axis has length M reads field k's pieces at x[k].  With one
    field every point reads it, whatever the shape of x.
    """

    def __init__(self, *fields: FieldEvaluator):
        if not fields:
            raise DomainError("a field table needs at least one field")
        self.domain = fields[0].params.domain
        if any(field.params.domain != self.domain for field in fields):
            raise DomainError("stacked fields must share one domain")
        scale = 2.0 / self.domain.width
        terms, sizes = [], []
        for field in fields:
            basis = field.basis
            # q(x) = Re sum_j c_j exp(i f_j x); each derivative multiplies c_j by i f_j
            freqs = np.concatenate([basis.alphas, basis.alphas_star])
            c = np.concatenate([field._w, -1j * field._w_star])
            bound = max(np.sum(freqs**6 * np.abs(c)), scale * np.sum(freqs**7 * np.abs(c)))
            terms.append((freqs, c))
            sizes.append(1 if bound == 0.0 else
                         int(np.ceil(2.0 * (bound / (46080.0 * TABLE_TOL)) ** (1.0 / 6.0))))
        sizes = np.array(sizes, dtype=np.intp)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._value = np.empty((6, int(sizes.sum())))
        self._derivative = np.empty_like(self._value)
        for (freqs, c), n, off in zip(terms, sizes, offsets):
            h = 2.0 / n
            q, dq, d2q, d3q = _node_sums(freqs, c, h, n + 1)
            _hermite_pieces(q, h * dq, h * h * d2q, self._value[:, off:off + n])
            derivative = _hermite_pieces(dq, h * d2q, h * h * d3q,
                                         self._derivative[:, off:off + n])
            derivative *= scale
        self._per_h, self._last, self._offsets = 0.5 * sizes, sizes - 1, offsets
        self._views = {}      # points' ndim -> (per_h, last, offsets) shaped to them

    def _layout(self, ndim):
        """(per_h, last, offsets) broadcasting against points of ``ndim`` axes:
        along the leading axis for a stack, scalars for one field."""
        views = self._views.get(ndim)
        if views is None:
            arrays = (self._per_h, self._last, self._offsets)
            if self._per_h.size > 1:
                stacked = (self._per_h.size,) + (1,) * (ndim - 1)
                views = tuple(a.reshape(stacked) for a in arrays)
            else:
                views = tuple(a[0] for a in arrays)
            self._views[ndim] = views
        return views

    def _lookup(self, x, pieces):
        xhat = _reference_coords(self.domain, x)
        n_fields = self._per_h.size
        if n_fields > 1 and (xhat.ndim == 0 or xhat.shape[0] != n_fields):
            raise DomainError(f"a table of {n_fields} fields needs points with a "
                              f"leading axis of {n_fields}, got shape {xhat.shape}")
        per_h, last, offsets = self._layout(xhat.ndim)
        # s = (xhat + 1) * per_h and then t = s - i, in xhat's own new array
        s = xhat
        s += 1.0
        s *= per_h
        # truncation is the floor for s >= 0, and gives piece 0 for the
        # rounding-sized negative s that _reference_coords lets through
        i = np.minimum(s.astype(np.intp), last)
        t = s
        t -= i
        i += offsets
        c = pieces.take(i, axis=1)
        # c[0] + t * (c[1] + t * (... + t * c[5])), in place
        out = np.multiply(t, c[5])
        for k in range(4, 0, -1):
            out += c[k]
            out *= t
        out += c[0]
        return float(out) if np.ndim(x) == 0 else out

    def value(self, x):
        return self._lookup(x, self._value)

    def derivative(self, x):
        return self._lookup(x, self._derivative)


def _node_sums(freqs, c, h, count):
    """Re sum_j c_j (i f_j)**r exp(i f_j x) for r = 0..3 at x = -1 + k*h, k < count.

    With x = s + t*h for block starts s, exp(i f x) = exp(i f s) exp(i f t h):
    trig runs only at the ~sqrt(count) starts and offsets, and one matrix
    product, over the four orders' start columns side by side, sums the
    terms at every node.
    """
    width = int(np.ceil(np.sqrt(count)))
    n_starts = -(-count // width)
    starts = -1.0 + h * width * np.arange(n_starts)
    offsets = np.exp(1j * np.outer(h * np.arange(width), freqs))
    at_starts = np.exp(1j * np.outer(freqs, starts))
    orders = np.stack([c, 1j * freqs * c, -freqs**2 * c, -1j * freqs**3 * c], axis=1)
    # column r * n_starts + b of the product is order r at the nodes of block b
    sums = offsets @ (orders[:, :, None] * at_starts[:, None, :]).reshape(freqs.size, -1)
    out = sums.real.reshape(width, 4, n_starts).transpose(1, 2, 0).reshape(4, -1)
    return out[:, :count]


def _hermite_pieces(y, hdy, h2d2y, pieces):
    """Write into ``pieces`` the (6, n) power-form coefficients in t of the
    quintic Hermite pieces on (y, h*y', h**2*y''), and return it."""
    pieces[0] = y[:-1]
    pieces[1] = hdy[:-1]
    pieces[2] = 0.5 * h2d2y[:-1]
    # what the t**3, t**4 and t**5 terms must add at t = 1 to the value, the
    # first and the second derivative for the piece to end at the next node
    a = y[1:] - pieces[0] - pieces[1] - pieces[2]
    b = hdy[1:] - pieces[1] - h2d2y[:-1]
    c = h2d2y[1:] - h2d2y[:-1]
    pieces[3] = 10.0 * a - 4.0 * b + 0.5 * c
    pieces[4] = -15.0 * a + 7.0 * b - c
    pieces[5] = 6.0 * a - 3.0 * b + 0.5 * c
    return pieces


def _reference_coords(domain: Interval, x):
    """Affine map of points of ``domain`` onto [-1, 1].

    DomainError outside the domain; NumericalError for a NaN point, which
    makes the minimum and the maximum NaN and so fails both range checks as
    written.
    """
    arr = np.asarray(x, dtype=float)
    a, b = domain.lo, domain.hi
    tol = 1e-12 * max(1.0, abs(a), abs(b))
    if arr.size and not (np.minimum.reduce(arr, axis=None) >= a - tol
                         and np.maximum.reduce(arr, axis=None) <= b + tol):
        if np.isnan(arr).any():
            raise NumericalError("evaluation point is not finite")
        raise DomainError(f"evaluation point outside field domain [{a}, {b}]")
    # (2 x - (a + b)) / (b - a), in one new array; on [-1, 1] that is x
    # itself, since doubling and halving are exact
    if a == -1.0 and b == 1.0:
        return arr.copy()
    xhat = 2.0 * arr
    xhat -= a + b
    xhat /= b - a
    return xhat


def field_values(fields, x) -> list:
    """Values at points x of realized fields that share one basis and domain.

    One array per field, of the shape of x; each equals ``field.value(x)``
    bit for bit, since the basis trig at x is evaluated once and each field
    is then one product per family.
    """
    if not fields:
        return []
    first = fields[0]
    if any(f.basis is not first.basis or f.params.domain != first.params.domain
           for f in fields):
        raise DomainError("fields evaluated together must share one basis and domain")
    xhat = _reference_coords(first.params.domain, x)
    flat = np.atleast_1d(xhat).ravel()
    cos = np.cos(np.outer(flat, first.basis.alphas))
    sin = np.sin(np.outer(flat, first.basis.alphas_star))
    return [(cos @ f._w + sin @ f._w_star).reshape(xhat.shape) for f in fields]


def field_tables(bases, params, x) -> np.ndarray:
    """(M, len(x), 2*m_pairs) tables T of the scaled eigenfunctions of M
    bases of one size at points x.

    ``params[r]`` belongs to ``bases[r]``, and all share one domain.  Columns
    are interleaved like a draw, so ``T[r] @ xi`` is the realized field
    ``FieldEvaluator(bases[r], GaussianDraw(xi), params[r]).value(x)`` up to
    rounding.  All tables come from one stacked cos and sin, and table r is
    the same bit for bit whatever bases are stacked with it.
    """
    domain = params[0].domain
    if any(p.domain != domain for p in params) or len(params) != len(bases):
        raise DomainError("stacked tables need one domain and one parameter set per basis")
    xhat = np.ravel(_reference_coords(domain, x))[None, :, None]
    sigma = np.array([p.sigma for p in params])[:, None, None]
    alphas, alphas_star, norms, norms_star, eigvals, eigvals_star = (
        np.stack([getattr(b, name) for b in bases])[:, None, :]
        for name in ("alphas", "alphas_star", "norms", "norms_star", "eigvals", "eigvals_star"))
    table = np.empty((len(bases), xhat.size, 2 * bases[0].m_pairs))
    table[:, :, 0::2] = np.cos(xhat * alphas) / norms * (sigma * np.sqrt(eigvals))
    table[:, :, 1::2] = np.sin(xhat * alphas_star) / norms_star * (sigma * np.sqrt(eigvals_star))
    return table


@dataclass(frozen=True)
class CutoffField:
    """Shifted field clipped to [lo, hi]; derivative is zero where clipped.

    Wraps an evaluator (exact, or its table) as shift + base(x), then
    applies the cutoff.  This is the 1-d building block used to keep PDE
    coefficients inside the bounds their well-posedness theory requires.
    """

    base: Union[FieldEvaluator, FieldTable]
    shift: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError("cutoff bounds out of order")

    def value(self, x):
        raw = self.shift + self.base.value(x)
        if np.ndim(x) == 0:
            return float(np.minimum(np.maximum(raw, self.lo), self.hi))
        # raw is a new array: clip it in place
        np.maximum(raw, self.lo, out=raw)
        return np.minimum(raw, self.hi, out=raw)

    def derivative(self, x):
        raw = self.shift + self.base.value(x)
        der = np.where((raw < self.lo) | (raw > self.hi), 0.0, self.base.derivative(x))
        return float(der) if np.ndim(x) == 0 else der


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


def coefficient_field_2d(mu, q1, q2, a_min: float, x1, x2):
    """2-d coefficient a(x1,x2) = max(mu + q1(x1)*q2(x2), a_min).

    ``mu`` is a number; ``q1``/``q2`` are 1-d field evaluators.  The lower
    cutoff keeps realizations positive, which is all the elliptic problem
    requires.
    """
    if not a_min > 0.0:
        raise DomainError("a_min must be positive")
    prod = np.asarray(q1.value(x1)) * np.asarray(q2.value(x2))
    out = np.maximum(mu + prod, a_min)
    if np.ndim(x1) == 0 and np.ndim(x2) == 0:
        return float(out)
    return out
