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
same machinery with one characteristic family per sign of the wave speed,
both traced in one pass, and the coupling term f*(u2 - u1) + g.

Everything is restricted to grid nodes inside the cone K_T, so initial data
outside K_0 = [-kappa, kappa] can never influence the solution; near the
slanted cone boundary each level is extended by one ghost node of linear
extrapolation per side.  The lattice is the domain of numerical dependence
of the solve's target nodes: traced from |t| = T towards t = 0, a level
holds its targets and the nodes the interpolation reads at the feet already
traced onto it.  With no targets that is all of K_T; a point value needs
only a small part of it.
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
    """Solution values on the space-time grid, NaN at every node not solved.

    ``values`` has shape (nt, nx) for the scalar equation and (2, nt, nx)
    for the 2x2 system; ``inside`` marks the solved nodes: the whole cone
    K_T, or the domain of numerical dependence of the solve's targets.
    ``sweeps`` counts the passes over the lattice, always 1.
    """

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    inside: np.ndarray
    sweeps: int = 1


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
    """Characteristic feet of the solved nodes of one starting t-level.

    ``pos[k, n, m]`` is the foot of node n along family k on the m-th level
    from t = 0; m = L - 1 is the node itself.
    """

    __slots__ = ("level", "node_ids", "taus", "pos", "weights", "F", "G", "U0")

    def __init__(self, level, node_ids, taus, n_families):
        self.level = level
        self.node_ids = node_ids
        self.taus = taus                      # taus[0] ~ 0, taus[-1] = ts[level]
        self.pos = np.empty((n_families, node_ids.size, taus.size))
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


class _Lattice:
    """The characteristic feet of every node the target nodes depend on.

    Family k follows dgamma/dtau = signs[k] a(gamma, tau); all families are
    traced together as one (K, n) position array, so each RK4 stage makes
    one lookup of a.  Each side of t = 0 is traced from |t| = T inwards.  A
    level's nodes are its targets plus, for every foot already traced onto
    it, the two cone nodes that np.interp reads there (xs[j] <= x < xs[j+1],
    clipped to the row's first or last pair, from which the ghost node
    extrapolates).  The t = 0 level takes the feet of both sides.  So the
    solved nodes are exactly the targets' domain of numerical dependence,
    and each of them is computed as on the whole cone.

    ``groups`` run from the outermost level inwards, so reversed they are a
    causal order; ``queries[s]`` holds the feet of earlier groups on level s
    and the ``(group index, m, slice)`` that hand their values back.
    """

    def __init__(self, a, signs, xs, ts, cone, i0, substep, targets):
        self.xs, self.ts, self.i0 = xs, ts, i0
        self.solved = np.zeros_like(cone)
        self.groups = []
        self.queries = {}
        self.n_families = len(signs)
        signs = np.asarray(signs, dtype=float)[:, None]

        def slope(x, t):
            return signs * _eval_xt(a, x, t)

        plus, plus_slices = self._trace_side(range(ts.size - 1, i0, -1), slope, substep,
                                             cone, targets)
        minus, minus_slices = self._trace_side(range(0, i0), slope, substep, cone, targets)
        shift = plus.shape[1]
        slices = plus_slices + [(gi, m, slice(sl.start + shift, sl.stop + shift))
                                for gi, m, sl in minus_slices]
        pos = np.concatenate([plus, minus], axis=1)
        self.queries[i0] = (pos, slices)
        ids = self._dependence(i0, pos, cone, targets)
        if ids.size:
            self._start(i0, ids)

    def _trace_side(self, levels, slope, substep, cone, targets):
        """Trace one side of t = 0 from its outermost level inwards; return
        the feet that land on t = 0 and their slices."""
        pos, active = np.empty((self.n_families, 0)), []
        for prev, s in zip([None, *levels], [*levels, self.i0]):
            if active:
                pos = _rk4_march(slope, pos, self.ts[prev], self.ts[s], substep)
            slices = self._land(s, pos, active)
            if s == self.i0:
                return pos, slices
            self.queries[s] = (pos, slices)
            ids = self._dependence(s, pos, cone, targets)
            if ids.size:
                active.append((len(self.groups), pos.shape[1]))
                self._start(s, ids)
                own = np.broadcast_to(self.xs[ids], (self.n_families, ids.size))
                pos = np.concatenate([pos, own], axis=1)

    def _land(self, s, pos, active):
        """Store the feet on level s of the active groups; return their slices."""
        m = abs(s - self.i0)
        slices = []
        for gi, off in active:
            group = self.groups[gi]
            sl = slice(off, off + group.node_ids.size)
            group.pos[:, :, m] = pos[:, sl]
            slices.append((gi, m, sl))
        return slices

    def _dependence(self, s, feet, cone, targets):
        """Level s's targets plus the cone nodes np.interp reads at the feet."""
        take = targets[s].copy()
        row = np.nonzero(cone[s])[0]
        if feet.size and row.size:
            j = np.searchsorted(self.xs[row], feet.ravel(), side="right") - 1
            j = np.clip(j, 0, max(row.size - 2, 0))
            take[row[j]] = True
            take[row[np.minimum(j + 1, row.size - 1)]] = True
        return np.nonzero(take)[0]

    def _start(self, s, ids):
        direction = 1 if s >= self.i0 else -1
        taus = self.ts[self.i0 + direction * np.arange(abs(s - self.i0) + 1)]
        group = _FeetGroup(s, ids, taus, self.n_families)
        group.pos[:, :, -1] = self.xs[ids]
        self.groups.append(group)
        self.solved[s, ids] = True

    def precompute(self, f, g, u0s):
        """f and g at every foot, and family k's u0s[k] at its feet on t = 0,
        each in one call over the whole lattice."""
        pos = np.concatenate([group.pos.ravel() for group in self.groups])
        taus = np.concatenate([np.broadcast_to(group.taus, group.pos.shape).ravel()
                               for group in self.groups])
        F, G = _eval_xt(f, pos, taus), _eval_xt(g, pos, taus)
        U0 = np.stack([_eval_x(u0, np.concatenate([group.pos[k, :, 0] for group in self.groups]))
                       for k, u0 in enumerate(u0s)])
        for name, arr in (("f", F), ("g", G), ("u0", U0)):
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"coefficient {name} is not finite along a characteristic")
        off = off0 = 0
        for group in self.groups:
            n = group.pos.size
            group.F = F[off:off + n].reshape(group.pos.shape)
            group.G = G[off:off + n].reshape(group.pos.shape)
            group.U0 = U0[:, off0:off0 + group.node_ids.size]
            off += n
            off0 += group.node_ids.size


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


def _lattice(a, signs, bound, region, xs, ts, time_dependent, substep, targets):
    """Check the grids, the speed bound and the targets; trace their lattice.

    ``targets`` is a boolean (nt, nx) mask of cone nodes, or None for the
    whole cone.
    """
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
    cone = region.contains(xs[None, :], ts[:, None])
    if targets is None:
        targets = cone
    else:
        targets = np.asarray(targets, dtype=bool)
        if targets.shape != cone.shape:
            raise DomainError(f"targets must have the grid's shape {cone.shape}, "
                              f"got {targets.shape}")
        if not targets.any():
            raise DomainError("targets select no node")
        if np.any(targets & ~cone):
            raise DomainError("targets select nodes outside the cone")
    return _Lattice(a, signs, xs, ts, cone, i0, substep, targets)


def _march(lattice, coupling_weights) -> GridSolution2D:
    """Solve the discrete integral equations in one causal pass over the levels.

    Component k travels along the lattice's family k and sees the coupling
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
    xs, ts, groups = lattice.xs, lattice.ts, lattice.groups
    sum_c = sum(coupling_weights)
    u = np.full((len(coupling_weights), ts.size, xs.size), np.nan)
    # the coupling c at every foot, per group
    at_feet = [np.empty_like(group.pos) for group in groups]
    for grp, feet in zip(reversed(groups), reversed(at_feet)):
        s, ids = grp.level, grp.node_ids
        earlier = [U0 + (F[:, :-1] * c_k[:, :-1] + G[:, :-1]) @ grp.weights[:-1]
                   for U0, F, G, c_k in zip(grp.U0, grp.F, grp.G, feet)]
        w, f, g = grp.weights[-1], grp.F[0, :, -1], grp.G[0, :, -1]
        denom = 1.0 - sum_c * w * f
        if np.any(denom <= 0.0):
            raise NumericalError(
                f"transport step at t = {ts[s]:g} has 1 - w*f = {float(denom.min()):g} <= 0 "
                f"(trapezoid weight w = {w:g}): the time step is too long for the reaction f"
            )
        c = (sum(ck * ak for ck, ak in zip(coupling_weights, earlier)) + sum_c * w * g) / denom
        feet[:, :, -1] = c
        for uk, U0, F, G, c_k in zip(u, grp.U0, grp.F, grp.G, feet):
            uk[s, ids] = U0 + (F * c_k + G) @ grp.weights
        qpos, slices = lattice.queries[s]
        coupled = sum(ck * np.interp(qpos, *_row_table(xs, ids, uk[s, ids]))
                      for ck, uk in zip(coupling_weights, u))
        for gj, m, sl in slices:
            at_feet[gj][:, :, m] = coupled[:, sl]
    return GridSolution2D(xs, ts, u if len(u) > 1 else u[0], lattice.solved)


def solve_transport(coeffs: TransportCoefficients, region: DeterminacyRegion,
                    xs, ts, substep: Optional[float] = None,
                    targets: Optional[np.ndarray] = None) -> GridSolution2D:
    """The scalar transport equation on K_T, in one causal pass over the lattice.

    With a boolean (nt, nx) ``targets`` mask of cone nodes, only the nodes
    the targets depend on are solved, each to the value the whole cone
    gives it; the rest hold NaN.

    Raises :class:`NumericalError` where a node's own trapezoid weight w and
    reaction f have 1 - w*f <= 0: the time step is then too long for the
    discrete problem to have a solution the Picard iteration would reach.
    """
    lattice = _lattice(coeffs.a, (1.0,), coeffs.c, region, xs, ts, coeffs.a_time_dependent,
                       substep, targets)
    lattice.precompute(coeffs.f, coeffs.g, (coeffs.u0,))
    return _march(lattice, (1.0,))


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
                     a_time_dependent: bool = True,
                     targets: Optional[np.ndarray] = None) -> GridSolution2D:
    """The pair of coupled transport equations

        (d_t + a d_x) u1 = f (u2 - u1) + g,   u1(.,0) = u01,
        (d_t - a d_x) u2 = f (u2 - u1) + g,   u2(.,0) = u02,

    in one causal pass over the lattice.  Component 1 travels along the +a
    characteristics, component 2 along -a; both families are traced in one
    pass.  A node's own terms cancel in u2 - u1, so the march divides by
    exactly 1.  ``targets`` restricts the solve as in :func:`solve_transport`.
    """
    lattice = _lattice(a, (1.0, -1.0), region.c, region, xs, ts, a_time_dependent, substep,
                       targets)
    lattice.precompute(f, g, (u01, u02))
    return _march(lattice, (-1.0, 1.0))


def reconstruct_displacement(solution: GridSolution2D, w) -> np.ndarray:
    """Displacement u(x,t) = w(x) + integral_0^t (u1+u2)/2 dtau, per column.

    ``solution`` must be a 2-component system solution whose components are
    (d_t - a d_x)u and (d_t + a d_x)u, so their mean is the time derivative
    of the displacement.  Trapezoid accumulation along each x-column; NaN
    at every node whose column is not solved all the way from t = 0.
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
