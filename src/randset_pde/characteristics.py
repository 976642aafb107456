"""Method-of-characteristics solvers on a domain of determinacy.

The scalar transport equation u_t + a u_x = f u + g is solved in its
integral form along characteristics,

    u(x,t) = u0(gamma(x,t,0)) + integral_0^t (f u + g)(gamma(x,t,tau), tau) dtau,

with composite-trapezoid quadrature along each characteristic and linear
interpolation at the characteristic foot points on the time levels of a
fixed space-time grid.  Characteristic curves are traced once with a classic
fourth-order Runge-Kutta method and cached.

The discrete problem is lower-triangular in |t|: a node's last foot is the
node itself, and every other foot lies on a level nearer t = 0.  So one
causal pass over the levels, nearest t = 0 first, solves it exactly; only
the node's own trapezoid term couples it to itself, which is one scalar
division per node.

The 2x2 system covering longitudinal waves in non-homogeneous rods uses the
same machinery with one characteristic family per sign of the wave speed
and the coupling term f*(u2 - u1) + g.

Everything is restricted to grid nodes inside the cone K_T, so initial data
outside K_0 = [-kappa, kappa] can never influence the solution; near the
slanted cone boundary each level is extended by one ghost node of linear
extrapolation per side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    EmptyRegionError,
    MaterialError,
    NumericalError,
    SpeedBoundError,
)

__all__ = [
    "TransportCoefficients",
    "DeterminacyRegion",
    "CharacteristicCurve",
    "GridSolution2D",
    "WaveMaterial",
    "domain_of_determinacy",
    "trace_characteristic",
    "solve_transport",
    "wave_to_system",
    "solve_2x2_system",
    "reconstruct_displacement",
    "build_grids",
]

BOUND_SLACK = 1e-9
INSIDE_TOL = 1e-12


def _eval_xt(fn, x, t):
    """Evaluate an (x, t) coefficient, broadcasting scalars to x's shape."""
    out = fn(x, t) if callable(fn) else fn
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))


def _eval_x(fn, x):
    out = fn(x) if callable(fn) else fn
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))


@dataclass(frozen=True)
class DeterminacyRegion:
    """Cone K_T = {(x,t): |t| <= T, |x| <= kappa - c|t|}."""

    kappa: float
    T: float
    c: float

    def __post_init__(self):
        if not self.kappa > 0.0 or not self.T > 0.0 or self.c < 0.0:
            raise DomainError("need kappa > 0, T > 0, c >= 0")
        if not self.kappa - self.c * self.T > 0.0:
            raise EmptyRegionError(
                f"kappa={self.kappa} <= c*T={self.c * self.T}: empty domain of determinacy"
            )

    def contains(self, x, t, tol: float = INSIDE_TOL):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return (np.abs(t) <= self.T + tol) & (np.abs(x) <= self.kappa - self.c * np.abs(t) + tol)


def domain_of_determinacy(kappa: float, T: float, c: float) -> DeterminacyRegion:
    """Region on which the solution depends only on data in [-kappa, kappa]."""
    return DeterminacyRegion(kappa, T, c)


@dataclass(frozen=True)
class TransportCoefficients:
    """Coefficient bundle for u_t + a u_x = f u + g, u(.,0) = u0.

    ``c`` is the claimed uniform global bound on |a|; it is re-verified on a
    probe grid before every solve.  Set ``a_time_dependent=False`` when the
    speed ignores t so the probe can skip the time axis.
    """

    a: Union[float, Callable]
    f: Union[float, Callable]
    g: Union[float, Callable]
    u0: Union[float, Callable]
    c: float
    a_time_dependent: bool = True

    def __post_init__(self):
        if not self.c >= 0.0:
            raise DomainError("speed bound c must be nonnegative")


@dataclass(frozen=True)
class WaveMaterial:
    """Material data for rho(x) u_tt - (E(x) u_x)_x = q(x,t).

    ``E`` must expose value and x-derivative: either an object with
    .value/.derivative (field evaluators), a (value, derivative) pair of
    callables, or a plain callable combined with a finite-difference step.
    ``rho`` may be a positive constant or a callable.
    """

    rho: Union[float, Callable]
    E: object
    q: Union[float, Callable, None] = None


@dataclass(frozen=True)
class CharacteristicCurve:
    """Sampled characteristic through (x, t): positions gamma(x,t,tau)."""

    x: float
    t: float
    taus: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taus", np.asarray(self.taus, dtype=float))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))


@dataclass(frozen=True)
class GridSolution2D:
    """Solution values on the space-time grid, NaN outside the cone.

    ``values`` has shape (nt, nx) for the scalar equation and (2, nt, nx)
    for the 2x2 system; ``inside`` marks the nodes belonging to K_T.
    ``sweeps`` counts the passes over the lattice, always 1.
    """

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    inside: np.ndarray
    sweeps: int = 1

    def nearest_node(self, x: float, t: float):
        i = int(np.argmin(np.abs(self.xs - x)))
        j = int(np.argmin(np.abs(self.ts - t)))
        if not self.inside[j, i]:
            raise DomainError(f"nearest grid node to ({x}, {t}) lies outside the cone")
        return i, j


def build_grids(region: DeterminacyRegion, nx: int, nt: int):
    """Uniform grids spanning the cone's bounding box; nt odd keeps t=0 on-grid."""
    if nx < 2 or nt < 3:
        raise DomainError("need nx >= 2 and nt >= 3")
    if nt % 2 == 0:
        raise DomainError("nt must be odd so that t = 0 is a grid level")
    xs = np.linspace(-region.kappa, region.kappa, nx)
    ts = np.linspace(-region.T, region.T, nt)
    return xs, ts


# --- characteristic tracing ---------------------------------------------------


def _rk4_step(speed, pos, tau, h):
    k1 = _eval_xt(speed, pos, tau)
    k2 = _eval_xt(speed, pos + 0.5 * h * k1, tau + 0.5 * h)
    k3 = _eval_xt(speed, pos + 0.5 * h * k2, tau + 0.5 * h)
    k4 = _eval_xt(speed, pos + h * k3, tau + h)
    return pos + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_march(speed, pos, tau_from, tau_to, substep):
    n_sub = max(1, math.ceil(abs(tau_to - tau_from) / substep - 1e-12))
    h = (tau_to - tau_from) / n_sub
    tau = tau_from
    for _ in range(n_sub):
        pos = _rk4_step(speed, pos, tau, h)
        tau += h
    return pos


def trace_characteristic(a, x: float, t: float, tau: float, step: float,
                         region: Optional[DeterminacyRegion] = None) -> CharacteristicCurve:
    """Trace dgamma/dtau = a(gamma, tau), gamma(t) = x, from tau=t to tau.

    Classic fixed-step fourth-order Runge-Kutta; the step count is chosen so
    the end point tau is hit exactly.  If a region is supplied, every sample
    is checked to stay inside it.
    """
    if not step > 0.0:
        raise DomainError("step must be positive")
    n = max(1, math.ceil(abs(tau - t) / step - 1e-12))
    h = (tau - t) / n if n else 0.0
    taus = t + h * np.arange(n + 1)
    taus[-1] = tau
    positions = np.empty(n + 1)
    positions[0] = x
    pos = float(x)
    for i in range(n):
        pos = float(_rk4_step(a, pos, taus[i], taus[i + 1] - taus[i]))
        positions[i + 1] = pos
    if region is not None and not np.all(region.contains(positions, taus, tol=1e-9)):
        raise NumericalError("characteristic curve left the domain of determinacy")
    return CharacteristicCurve(x=x, t=t, taus=taus, positions=positions)


# --- grid lattice of cached characteristics -----------------------------------


class _FeetGroup:
    """Characteristic feet for the inside nodes of one starting t-level."""

    __slots__ = ("level", "node_ids", "taus", "pos", "weights", "F", "G", "U0")

    def __init__(self, level, node_ids, taus):
        self.level = level
        self.node_ids = node_ids
        self.taus = taus                      # taus[0] ~ 0, taus[-1] = ts[level]
        self.pos = np.empty((node_ids.size, taus.size))
        L = taus.size
        w = np.empty(L)
        if L == 1:
            w[0] = 0.0
        else:
            w[0] = 0.5 * (taus[1] - taus[0])
            w[-1] = 0.5 * (taus[-1] - taus[-2])
            if L > 2:
                w[1:-1] = 0.5 * (taus[2:] - taus[:-2])
        self.weights = w                      # signed: negative below t = 0


class _CharacteristicLattice:
    """All characteristics of one speed family, traced once and cached."""

    def __init__(self, speed, xs, ts, inside, i0, substep):
        self.xs = xs
        self.ts = ts
        self.inside = inside
        self.i0 = i0
        self.groups = []
        for direction in (+1, -1):
            self._march_side(speed, direction, substep)
        self._build_level_queries()

    def _march_side(self, speed, direction, substep):
        ts, xs, i0 = self.ts, self.xs, self.i0
        nt = ts.size
        if direction > 0:
            start_levels = range(nt - 1, i0 - 1, -1)
        else:
            start_levels = range(0, i0 + 1)
        active_pos = np.empty(0)
        active = []  # (group, offset)
        prev = None
        for s in start_levels:
            if prev is not None and active_pos.size:
                active_pos = _rk4_march(speed, active_pos, ts[prev], ts[s], substep)
            ids = np.nonzero(self.inside[s])[0]
            # the t = 0 group belongs to the + side
            if ids.size and (direction > 0 or s != i0):
                L = abs(s - i0) + 1
                taus = ts[i0 + direction * np.arange(L)]
                group = _FeetGroup(s, ids, taus)
                active.append((group, active_pos.size))
                active_pos = np.concatenate([active_pos, xs[ids]])
                self.groups.append(group)
            m = abs(s - i0)
            for group, off in active:
                group.pos[:, m] = active_pos[off:off + group.node_ids.size]
            prev = s

    def _build_level_queries(self):
        """Per level: every foot on it, as one position array and the slices
        ``(group index, foot index, slice)`` that hand its values back."""
        per_level = {}
        for gi, group in enumerate(self.groups):
            direction = 1 if group.level >= self.i0 else -1
            for m in range(group.taus.size):
                s = self.i0 + direction * m
                per_level.setdefault(s, []).append((gi, m))
        self.level_queries = {}
        for s, entries in per_level.items():
            qpos = np.concatenate([self.groups[gi].pos[:, m] for gi, m in entries])
            slices = []
            off = 0
            for gi, m in entries:
                n = self.groups[gi].node_ids.size
                slices.append((gi, m, slice(off, off + n)))
                off += n
            self.level_queries[s] = (qpos, slices)

    def precompute(self, f, g, u0):
        for group in self.groups:
            tau_row = group.taus[None, :]
            group.F = _eval_xt(f, group.pos, tau_row)
            group.G = _eval_xt(g, group.pos, tau_row)
            group.U0 = _eval_x(u0, group.pos[:, 0])
            for name, arr in (("f", group.F), ("g", group.G), ("u0", group.U0)):
                if not np.all(np.isfinite(arr)):
                    raise NumericalError(f"coefficient {name} is not finite along a characteristic")


def _zero_level(ts):
    dt = np.diff(ts)
    if np.any(dt <= 0):
        raise DomainError("time grid must be strictly increasing")
    i0 = int(np.argmin(np.abs(ts)))
    if abs(ts[i0]) > 1e-9:
        raise DomainError("time grid must contain t = 0 (initial-data level)")
    return i0


def _row_table(xs, ids, vrow):
    """One level's 1-d interpolation table with one ghost node per side.

    The ghosts extrapolate linearly from the outermost inside values, so
    queries up to the slanted cone boundary stay well-defined without ever
    consulting nodes outside the cone.
    """
    xrow = xs[ids]
    if ids.size >= 2:
        xe = np.concatenate(([2 * xrow[0] - xrow[1]], xrow, [2 * xrow[-1] - xrow[-2]]))
        ve = np.concatenate(([2 * vrow[0] - vrow[1]], vrow, [2 * vrow[-1] - vrow[-2]]))
    else:
        dx_typ = float(np.mean(np.diff(xs))) if xs.size > 1 else 1.0
        xe = np.array([xrow[0] - dx_typ, xrow[0], xrow[0] + dx_typ])
        ve = np.array([vrow[0], vrow[0], vrow[0]])
    return xe, ve


def _verify_speed_bound(a, bound, region, xs, ts, time_dependent=True, oversample=10):
    xp = np.linspace(-region.kappa, region.kappa, oversample * xs.size + 1)
    tp = np.linspace(-region.T, region.T, oversample * ts.size + 1) if time_dependent \
        else np.array([0.0])
    X, Tm = xp[None, :], tp[:, None]
    mask = region.contains(X, Tm)
    vals = np.broadcast_to(np.asarray(a(X, Tm) if callable(a) else a, dtype=float),
                           (tp.size, xp.size))
    worst = float(np.abs(vals[mask]).max())
    if worst > bound * (1.0 + BOUND_SLACK) + BOUND_SLACK * (bound == 0.0):
        raise SpeedBoundError(
            f"|a| reaches {worst:g} on the region, exceeding the declared bound {bound:g}"
        )


def _setup(a, bound, region, xs, ts, time_dependent, substep):
    """Check the grids and the speed bound; return a lattice builder on the cone."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise DomainError("space grid must be strictly increasing")
    i0 = _zero_level(ts)
    if bound > region.c + BOUND_SLACK:
        raise DomainError("coefficient speed bound exceeds the region's bound")
    _verify_speed_bound(a, bound, region, xs, ts, time_dependent=time_dependent)
    if substep is None:
        substep = 0.5 * min(float(np.min(np.diff(xs))), float(np.min(np.diff(ts))))
    inside = region.contains(xs[None, :], ts[:, None])

    def lattice(speed):
        return _CharacteristicLattice(speed, xs, ts, inside, i0, substep)

    return lattice


def _march(lattices, coupling_weights) -> GridSolution2D:
    """Solve the discrete integral equations in one causal pass over the levels.

    Component k travels along ``lattices[k]`` and sees the coupling
    c = sum_j C_j u_j, with C the ``coupling_weights``.  Levels are visited
    nearest t = 0 first, so every foot of a node but its own lies on a
    finished level.  With A_k the value of component k's update over those
    earlier feet, and the node's own trapezoid weight w, f and g shared by
    every component, u_k = A_k + w (f c + g) gives

        c = (C.A + sum(C) w g) / (1 - sum(C) w f).

    Each node stores ``U0 + (F * c(feet) + G) @ weights`` with its own foot
    set to that c; its finished level is then interpolated at every foot on
    it.
    """
    first = lattices[0]
    xs, ts, inside, i0 = first.xs, first.ts, first.inside, first.i0
    sum_c = sum(coupling_weights)
    u = np.full((len(lattices), ts.size, xs.size), np.nan)
    # the coupling c at every foot, per lattice and group
    at_feet = [[np.empty_like(group.pos) for group in lat.groups] for lat in lattices]
    for gi in sorted(range(len(first.groups)), key=lambda gi: abs(first.groups[gi].level - i0)):
        groups = [lat.groups[gi] for lat in lattices]
        s, ids = groups[0].level, groups[0].node_ids
        earlier = [grp.U0 + (grp.F[:, :-1] * feet[gi][:, :-1] + grp.G[:, :-1]) @ grp.weights[:-1]
                   for grp, feet in zip(groups, at_feet)]
        w, f, g = groups[0].weights[-1], groups[0].F[:, -1], groups[0].G[:, -1]
        denom = 1.0 - sum_c * w * f
        if np.any(denom <= 0.0):
            raise NumericalError(
                f"transport step at t = {ts[s]:g} has 1 - w*f = {float(denom.min()):g} <= 0 "
                f"(trapezoid weight w = {w:g}): the time step is too long for the reaction f"
            )
        c = (sum(ck * ak for ck, ak in zip(coupling_weights, earlier)) + sum_c * w * g) / denom
        for uk, grp, feet in zip(u, groups, at_feet):
            feet[gi][:, -1] = c
            uk[s, ids] = grp.U0 + (grp.F * feet[gi] + grp.G) @ grp.weights
        tables = [_row_table(xs, ids, uk[s, ids]) for uk in u]
        for lat, feet in zip(lattices, at_feet):
            qpos, slices = lat.level_queries[s]
            coupled = sum(ck * np.interp(qpos, *table) for ck, table in zip(coupling_weights, tables))
            for gj, m, sl in slices:
                feet[gj][:, m] = coupled[sl]
    return GridSolution2D(xs, ts, u if len(lattices) > 1 else u[0], inside)


def solve_transport(coeffs: TransportCoefficients, region: DeterminacyRegion,
                    xs, ts, substep: Optional[float] = None) -> GridSolution2D:
    """The scalar transport equation on K_T, in one causal pass over the lattice.

    Raises :class:`NumericalError` where a node's own trapezoid weight w and
    reaction f have 1 - w*f <= 0: the time step is then too long for the
    discrete problem to have a solution the Picard iteration would reach.
    """
    lattice = _setup(coeffs.a, coeffs.c, region, xs, ts, coeffs.a_time_dependent,
                     substep)(coeffs.a)
    lattice.precompute(coeffs.f, coeffs.g, coeffs.u0)
    return _march([lattice], (1.0,))


# --- 2x2 hyperbolic system ----------------------------------------------------


def _diff_pair(obj, fd_step=None):
    """Normalize a coefficient to a (value, derivative) pair of callables."""
    if hasattr(obj, "value") and hasattr(obj, "derivative"):
        return obj.value, obj.derivative
    if isinstance(obj, tuple) and len(obj) == 2 and all(callable(c) for c in obj):
        return obj
    if callable(obj):
        if fd_step is None or not fd_step > 0.0:
            raise DomainError("a plain-callable coefficient needs a positive fd_step")

        def deriv(x, _f=obj, _h=fd_step):
            return (np.asarray(_f(x + _h)) - np.asarray(_f(x - _h))) / (2.0 * _h)

        return obj, deriv
    raise DomainError("coefficient must be an evaluator, a (value, derivative) pair, or callable")


def wave_to_system(material: WaveMaterial, fd_step: Optional[float] = None):
    """Coefficients (a, f, g) of the 2x2 system equivalent to the rod equation.

    a = sqrt(E/rho), f = E'/rho - a'/2, g = q/rho.  For constant density the
    wave-speed derivative is evaluated analytically as E'/(2 sqrt(E rho));
    a variable density falls back to central differences with ``fd_step``.
    """
    e_val, e_der = _diff_pair(material.E, fd_step)
    rho = material.rho
    rho_const = not callable(rho)
    if rho_const and not rho > 0.0:
        raise MaterialError("density must be positive")

    def _checked(vals, name):
        vals = np.asarray(vals, dtype=float)
        if np.any(vals <= 0.0):
            raise MaterialError(f"{name} must stay positive, got minimum {vals.min():g}")
        return vals

    def rho_at(x):
        return rho if rho_const else _checked(_eval_x(rho, x), "rho")

    def speed(x, t=None):
        return np.sqrt(_checked(_eval_x(e_val, x), "E") / rho_at(x))

    if rho_const:
        def speed_der(x, e_prime):
            e = _checked(_eval_x(e_val, x), "E")
            return e_prime / (2.0 * np.sqrt(e * rho))
    else:
        if fd_step is None or not fd_step > 0.0:
            raise DomainError("variable density requires fd_step for the speed derivative")

        def speed_der(x, e_prime, _h=fd_step):
            return (speed(np.asarray(x) + _h) - speed(np.asarray(x) - _h)) / (2.0 * _h)

    def f_coeff(x, t=None):
        e_prime = _eval_x(e_der, x)
        return e_prime / rho_at(x) - 0.5 * speed_der(x, e_prime)

    q = material.q

    def g_coeff(x, t):
        if q is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return _eval_xt(q, x, t) / rho_at(x)

    return speed, f_coeff, g_coeff


def solve_2x2_system(a, f, g, u01, u02, region: DeterminacyRegion, xs, ts,
                     substep: Optional[float] = None,
                     a_time_dependent: bool = True) -> GridSolution2D:
    """The pair of coupled transport equations

        (d_t + a d_x) u1 = f (u2 - u1) + g,   u1(.,0) = u01,
        (d_t - a d_x) u2 = f (u2 - u1) + g,   u2(.,0) = u02,

    in one causal pass over the lattice.  Component 1 travels along the +a
    characteristics, component 2 along -a.  A node's own terms cancel in
    u2 - u1, so the march divides by exactly 1.
    """
    lattice = _setup(a, region.c, region, xs, ts, a_time_dependent, substep)

    def neg_a(x, t):
        return -_eval_xt(a, x, t)

    lattices = [lattice(a), lattice(neg_a)]
    for lat, u0 in zip(lattices, (u01, u02)):
        lat.precompute(f, g, u0)
    return _march(lattices, (-1.0, 1.0))


def reconstruct_displacement(solution: GridSolution2D, w) -> np.ndarray:
    """Displacement u(x,t) = w(x) + integral_0^t (u1+u2)/2 dtau, per column.

    ``solution`` must be a 2-component system solution whose components are
    (d_t - a d_x)u and (d_t + a d_x)u, so their mean is the time derivative
    of the displacement.  Trapezoid accumulation along each x-column; NaN
    outside the cone.
    """
    if solution.values.ndim != 3:
        raise DomainError("displacement reconstruction needs a 2-component solution")
    xs, ts, inside = solution.xs, solution.ts, solution.inside
    i0 = _zero_level(ts)
    v = 0.5 * (solution.values[0] + solution.values[1])
    u = np.full((ts.size, xs.size), np.nan)
    u[i0, inside[i0]] = _eval_x(w, xs[inside[i0]])
    for j in range(i0 + 1, ts.size):
        step = 0.5 * (ts[j] - ts[j - 1])
        sel = inside[j]
        u[j, sel] = u[j - 1, sel] + step * (v[j - 1, sel] + v[j, sel])
    for j in range(i0 - 1, -1, -1):
        step = 0.5 * (ts[j] - ts[j + 1])
        sel = inside[j]
        u[j, sel] = u[j + 1, sel] + step * (v[j + 1, sel] + v[j, sel])
    return u
