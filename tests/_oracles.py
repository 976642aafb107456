"""Independent oracles used by the test suite.

Everything here avoids the package's own numerical paths: mpmath bisection
for transcendental roots and normal quantiles, a double Fourier series for
the Poisson benchmark, exact integer arithmetic for random-set functionals,
and closed-form PDE solutions.  Frozen constants below were produced by the
same routines at 40-digit precision.

The bit-for-bit references at the end are the plain forms of fast paths in
the package: the KL root solve with separate g and g' functions, the
block matrix assembled through the CSR pattern of the reduced stiffness
matrix, and per-column means.  The package must match them exactly, not to a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.sparse as sp

from randset_pde.fields import ROOT_BISECTIONS, ROOT_MAX_ITER, ROOT_RTOL

# frozen high-precision reference values (40-digit mpmath, see generators below)
ALPHA1_ELL1 = 0.86033358901937976248
ALPHA1_STAR_ELL1 = 2.0287578381104342236
ALPHA2_ELL1 = 3.4256184594817281465
ALPHA2_STAR_ELL1 = 4.9131804394348836888
C1_ELL1 = 1.1493104326728651548
C1_STAR_ELL1 = 0.39094123742975874637
PHI1_AT_0_ELL1 = 0.79690630314779459711        # cos-family eigenfunction at x = 0
Q_SINGLE_COEFF_ELL1 = 0.85433054961568042829   # sqrt(c1) * phi1(0)
POISSON_CENTER = 0.0736713530                  # -lap u = 1 on (0,1)^2, u(1/2,1/2)
PHI_AT_1 = 0.841344746068542949                # standard normal CDF at 1
PHI_AT_M1 = 0.158655253931457051


def mp_inverse_normal(p, dps: int = 30) -> float:
    """Normal quantile via mpmath's ncdf and root finding."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp.ncdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def mp_normal_cdf(z, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.ncdf(mp.mpf(z)))


def _mp_bisect(f, lo, hi, iters: int = 300):
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mp.sign(f(mid)) == mp.sign(flo):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return (lo + hi) / 2


def mp_root_cos(k: int, ell, dps: int = 30) -> float:
    """k-th root of 1/ell - a*tan(a) = 0 in ((k-1)pi, (k-1)pi + pi/2)."""
    with mp.workdps(dps):
        ell = mp.mpf(ell)
        lo = (k - 1) * mp.pi + mp.mpf("1e-20")
        hi = (k - 1) * mp.pi + mp.pi / 2 - mp.mpf("1e-20")
        return float(_mp_bisect(lambda a: 1 / ell - a * mp.tan(a), lo, hi))


def mp_root_sin(k: int, ell, dps: int = 30) -> float:
    """k-th root of a + tan(a)/ell = 0 in ((k-1/2)pi, k pi)."""
    with mp.workdps(dps):
        ell = mp.mpf(ell)
        lo = (k - mp.mpf("0.5")) * mp.pi + mp.mpf("1e-20")
        hi = k * mp.pi - mp.mpf("1e-20")
        return float(_mp_bisect(lambda a: a + mp.tan(a) / ell, lo, hi))


def poisson_center_series(terms: int = 2001, dps: int = 25) -> float:
    """u(1/2,1/2) for -lap u = 1 on the unit square by double sine series."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for mm in range(1, terms, 2):
            sm = mp.sin(mm * mp.pi / 2)
            for nn in range(1, terms, 2):
                total += sm * mp.sin(nn * mp.pi / 2) / (mm * nn * (mm * mm + nn * nn))
        return float(16 / mp.pi**4 * total)


# --- random-set brute force over exact rationals --------------------------------


def random_focal_instances(rng: np.random.Generator, count: int):
    """Randomized (focals, weights, event) triples on a 1/8-integer lattice.

    Endpoints are multiples of 1/8, exactly representable as floats, so the
    Fraction-based oracle decisions transfer to floats with no rounding
    ambiguity.
    """
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        raw = rng.integers(-16, 17, size=(n, 2))
        lo = np.minimum(raw[:, 0], raw[:, 1]) / 8.0
        hi = np.maximum(raw[:, 0], raw[:, 1]) / 8.0
        w = rng.integers(1, 10, size=n).astype(float)
        w /= w.sum()
        ev = rng.integers(-16, 17, size=2)
        out.append((lo, hi, w, min(ev) / 8.0, max(ev) / 8.0))
    return out


def exact_upper_lower(lo, hi, weights, ev_lo, ev_hi):
    """Exact-arithmetic plausibility/belief of an interval event."""
    ev_lo = Fraction(ev_lo)
    ev_hi = Fraction(ev_hi)
    upper = Fraction(0)
    lower = Fraction(0)
    wfrac = [Fraction(w).limit_denominator(10**12) for w in weights]
    for a, b, w in zip(lo, hi, wfrac):
        a, b = Fraction(a), Fraction(b)
        if not (b < ev_lo or ev_hi < a):
            upper += w
        if ev_lo <= a and b <= ev_hi:
            lower += w
    return float(upper), float(lower)


def dalembert(w, x, t):
    """Wave solution with initial displacement w and zero initial velocity."""
    return 0.5 * (w(x - t) + w(x + t))


# --- bit-for-bit references of fast paths ---------------------------------------


def _bracketed_newton(g, dg, lo, hi, c, increasing):
    """Safeguarded Newton with g and g' evaluated by separate calls."""
    direction = 1.0 if increasing else -1.0
    for _ in range(ROOT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = direction * g(mid, c) < 0.0
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    x = 0.5 * (lo + hi)
    roots = np.empty_like(x)
    rows = np.arange(x.shape[0])
    for _ in range(ROOT_MAX_ITER):
        gx = g(x, c)
        right = direction * gx < 0.0
        lo, hi = np.where(right, x, lo), np.where(right, hi, x)
        newton = x - gx / dg(x, c)
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


def characteristic_roots_two_calls(ells, m_pairs: int):
    """(alphas, alphas_star), each (R, m_pairs), of the 1-d array ``ells``:
    the KL root solve with a cos and a sin for g and another pair for g'."""
    k = np.arange(m_pairs, dtype=float)
    shape = (len(ells), m_pairs)
    inv_ell = 1.0 / np.asarray(ells, dtype=float).reshape(-1, 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    alphas = _bracketed_newton(
        lambda a, c: sign * (np.cos(a) * c - a * np.sin(a)),
        lambda a, c: -sign * ((1.0 + c) * np.sin(a) + a * np.cos(a)),
        np.broadcast_to(k * np.pi, shape), np.broadcast_to(k * np.pi + 0.5 * np.pi, shape),
        inv_ell, increasing=False)
    alphas_star = _bracketed_newton(
        lambda a, c: -sign * (a * np.cos(a) + np.sin(a) * c),
        lambda a, c: -sign * ((1.0 + c) * np.cos(a) - a * np.sin(a)),
        np.broadcast_to((k + 0.5) * np.pi, shape), np.broadcast_to((k + 1.0) * np.pi, shape),
        inv_ell, increasing=True)
    return alphas, alphas_star


def reduced_pattern(mesh):
    """(indptr, indices, scatter) of the free x free stiffness matrix without
    its always-zero slots: row k of the (nnz, n_cells) ``scatter`` holds, in
    element order, the unit-coefficient element entries that add into CSR
    slot k, each in the column of its cell."""
    geo = mesh.geometry
    k_unit = geo["k_unit"].reshape(-1)
    n = mesh.interior.size
    rows, cols = mesh.position[geo["rows"]], mesh.position[geo["cols"]]
    kept = np.nonzero((rows >= 0) & (cols >= 0) & (k_unit != 0.0))[0]
    keys = rows[kept] * n + cols[kept]
    order = np.argsort(keys, kind="stable")
    entries, keys = kept[order], keys[order]
    first = np.diff(keys, prepend=-1) > 0
    key_rows, indices = np.divmod(keys[first], n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(key_rows, minlength=n))))
    scatter = sp.csr_matrix((k_unit[entries], mesh.tri_quad[entries // 9],
                             np.append(np.nonzero(first)[0], entries.size)),
                            shape=(indices.size, mesh.quads.shape[0]))
    return indptr, indices, scatter


def reduced_block(mesh, cells):
    """Block-diagonal CSR of the reduced stiffness matrices of the (S, n_cells)
    ``cells``, each filled by one product with the mesh's reduced pattern."""
    indptr, indices, scatter = reduced_pattern(mesh)
    s_count, nnz, n = cells.shape[0], indices.size, indptr.size - 1
    data = (scatter @ cells.T).T.ravel()
    blocks = np.arange(s_count)[:, None]
    return sp.csr_matrix((data, (indices + n * blocks).ravel(),
                          np.append((indptr[:-1] + nnz * blocks).ravel(), s_count * nnz)),
                         shape=(s_count * n, s_count * n))


def column_means(a):
    """The 1-d mean of each column of a 2-d array."""
    return np.array([a[:, j].mean() for j in range(a.shape[1])])
