"""Method-of-characteristics solvers on a domain of determinacy.

The scalar transport equation u_t + a u_x = f u + g is solved in its
integral form along characteristics,

    u(x,t) = u0(gamma(x,t,0)) + integral_0^t (f u + g)(gamma(x,t,tau), tau) dtau,

with composite-trapezoid quadrature along each characteristic and linear
interpolation at the characteristic foot points on the time levels of a
fixed space-time grid.  Characteristic curves are traced once with a classic
fourth-order Runge-Kutta method and cached.  Where the speed ignores t and
the levels are evenly spaced, the curve through (x, t) is the one through
(x, t') shifted in time, so one curve per abscissa, family and side of
t = 0 gives the feet of every node above that abscissa, and, where f and g
ignore t as well, their values at those feet; otherwise each node is traced
on a curve of its own.

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

A solve may stack S problems on one grid (``lattices`` = S), such as one
coefficient field at S correlation lengths: every array of the lattice has
a leading axis of length S, each coefficient is called once on points of
that shape and reads problem l's coefficient at index l, and the problems
share one node set, the union of their domains of dependence.  A single
problem is the case S = 1 without that axis in its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

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
_FLOAT64 = np.dtype(float)


def _variables(fn) -> tuple:
    """The coefficient rule: which of x and t coefficient fn reads.  A number
    reads neither, a field object (anything with ``value(x)`` and no
    ``__call__``) x, and a callable its ``variables`` where it has them, else
    both.  The solvers give t only to a coefficient that reads it, and
    where neither f nor g reads x or t they evaluate each once and broadcast
    the value to the feet's shape, so that no foot is gathered for them."""
    if callable(fn):
        return getattr(fn, "variables", ("x", "t"))
    return ("x",) if hasattr(fn, "value") else ()


def _eval_xt(fn, x, t):
    """A coefficient at (x, t), or at x alone where it does not read t."""
    return _shaped(fn(x, t), x) if "t" in _variables(fn) else _eval_x(fn, x)


def _eval_x(fn, x):
    return _shaped(fn(x) if callable(fn) else fn.value(x) if hasattr(fn, "value") else fn, x)


def _shaped(out, x):
    """``out`` as a float array of x's shape; a broadcast view only where needed,
    and ``out`` itself when it already is one, since the RK4 stages call this
    several times each."""
    shape = np.shape(x)
    # numpy's float64 dtype is one object: ``is`` skips a dtype comparison
    if type(out) is np.ndarray and out.dtype is _FLOAT64 and out.shape == shape:
        return out
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


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
    probe grid before every solve, at t = 0 alone where a does not read t
    (see :func:`_variables`).
    """

    a: Union[float, Callable]
    f: Union[float, Callable]
    g: Union[float, Callable]
    u0: Union[float, Callable]
    c: float

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
    for the 2x2 system, with a leading axis of length ``lattices`` when a
    solve stacks that many problems; ``inside`` marks the solved nodes: the
    whole cone K_T, or the domain of numerical dependence of the solve's
    targets.  ``sweeps`` counts the passes over the lattice, always 1.
    """

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    inside: np.ndarray
    sweeps: int = 1
    lattices: Optional[int] = None


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


def _substeps(span, max_step):
    """RK4 sub-steps over a level step of length |span|: as few as keep h <= max_step."""
    return max(1, math.ceil(abs(span) / max_step - 1e-12))


def _rk4_march(speed, pos, tau_from, tau_to, max_step):
    n_sub = _substeps(tau_to - tau_from, max_step)
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
    n = _substeps(tau - t, step)
    h = (tau - t) / n
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
    """The solved nodes of one starting t-level and their characteristic feet.

    Along each family of each lattice, node n has L feet, one on each level
    from t = 0 to its own: the m-th on the m-th level from t = 0, and the
    node itself at m = L - 1.  ``shape`` (S, K, n, L) is that of F, G and
    :meth:`_Lattice.positions`; ``start`` is node 0's column among the feet
    that land on each of the levels below (see :class:`_Lattice`).
    """

    __slots__ = ("level", "node_ids", "taus", "start", "shape", "weights", "F", "G", "U0")

    def __init__(self, level, node_ids, taus, start, n_lattices, n_families):
        self.level = level
        self.node_ids = node_ids
        self.taus = taus                      # taus[0] ~ 0, taus[-1] = ts[level]
        self.start = start
        self.shape = (n_lattices, n_families, node_ids.size, taus.size)
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

    def on_curve(self):
        """(abscissae, steps) of the feet in a side's shared (S, K, nx, steps)
        curves, an (n, 1) and an (L,) index: node n's foot m levels from t = 0
        is step L - 1 - m of its abscissa's curve."""
        d = self.taus.size - 1
        return self.node_ids[:, None], d - np.arange(d + 1)


class _Lattice:
    """The characteristic feet of every node the target nodes depend on, for
    S lattices at once.

    Family k of lattice l follows dgamma/dtau = signs[k] a(gamma, tau)[l]:
    the speed is called on (S, K, n) positions and reads lattice l's
    coefficient at x[l], so each RK4 stage makes one lookup of a for every
    lattice and family.  Each side of t = 0 is traced from |t| = T inwards.
    A level's nodes are its targets plus, for every foot already traced onto
    it in any lattice, the two cone nodes of its interval (xs[j] <= x <
    xs[j+1], clipped to the row's first or last pair, from which the ghost
    node extrapolates).  The t = 0 level takes the feet of both sides.  So
    the lattices share one node set, the union of their domains of numerical
    dependence closed under every lattice's feet, and each node is computed
    in each lattice as on the whole cone.

    With ``shared`` curves (a speed that ignores t, on levels whose steps
    agree to rounding) the characteristic through (x_i, t) is the same curve
    for every level t, shifted in time.  So one RK4 curve per (lattice,
    family, abscissa) and side is traced, from the outermost level on which
    the abscissa has a node, and a node m levels from t = 0 takes its feet
    from the curve's first m level steps.  Otherwise every node is traced on
    a curve of its own.  ``curve_sides`` keeps each side's curves until
    :meth:`precompute`: (curves, start, indices of its groups).

    ``groups`` run from the outermost level inwards, so reversed they are a
    causal order.  ``landed[s]`` (S, K, Q) holds the Q feet that land on
    level s, each side's groups in their order: a group of n nodes has the
    n columns from its ``start`` on, on every level below its own, but on
    t = 0 the minus side's columns follow all of the plus side's
    (``minus_shift`` of them).  That is the only copy of the feet: a
    group's are gathered from there where they are needed
    (:meth:`positions`).  Laid out level after level, the feet on level s
    are the ``n_feet`` columns' block from ``first[s]`` on, and
    :meth:`feet_index` gives a group's columns there.  ``rows[s]`` is the
    :class:`_RowLayout` of the feet on level s: its interpolation row, the
    level's nodes with one ghost node per side, and each foot's interval
    index on it.
    """

    def __init__(self, a, signs, xs, ts, cone, i0, targets, n_lattices, shared):
        self.xs, self.ts, self.i0 = xs, ts, i0
        self.solved = np.zeros_like(cone)
        self.groups = []
        self.landed = {}
        self.rows = {}
        self.curve_sides = []
        self.n_lattices, self.n_families, self.shared = n_lattices, len(signs), shared
        signs = np.asarray(signs, dtype=float)[:, None]

        def slope(x, t):
            return signs * _eval_xt(a, x, t)

        max_step = _max_step(xs, ts)
        plus = self._trace_side(range(ts.size - 1, i0, -1), slope, max_step, cone, targets)
        minus = self._trace_side(range(0, i0), slope, max_step, cone, targets)
        self.minus_shift = plus.shape[2]
        pos = self.landed[i0] = np.concatenate([plus, minus], axis=2)
        ids = self._dependence(i0, pos, cone, targets)
        if ids.size:
            self._start(i0, ids, 0)
        counts = np.zeros(ts.size, dtype=np.intp)
        for s, feet in self.landed.items():
            counts[s] = feet.shape[2]
        self.first, self.n_feet = np.cumsum(counts) - counts, int(counts.sum())

    def _trace_side(self, levels, slope, max_step, cone, targets):
        """Trace one side of t = 0 over its ``levels``, from the outermost
        inwards, keeping the feet that land on each level but t = 0 in
        ``landed``; return the feet on t = 0.

        ``pos`` holds the feet on the current level of every node started on
        an earlier one, in the order of their groups.  Per-node curves march
        ``pos`` itself.  Shared curves march ``curves[..., i, k]``, the curve
        from abscissa i after k level steps, and read a node's foot m levels
        below it off step m of its abscissa's curve.
        """
        S, K, nx = self.n_lattices, self.n_families, self.xs.size
        pos, started = np.empty((S, K, 0)), False
        if self.shared:
            curves = np.empty((S, K, nx, len(levels) + 1))
            start = np.full(nx, -1)          # level distance at which a curve starts
            node_x = node_d = np.empty(0, dtype=np.intp)
            first = len(self.groups)
        for prev, s in zip([None, *levels], [*levels, self.i0]):
            d = abs(s - self.i0)
            if started and self.shared:
                live = np.nonzero(start >= 0)[0]
                k = start[live] - d - 1     # steps each curve has taken
                curves[:, :, live, k + 1] = _rk4_march(slope, curves[:, :, live, k],
                                                       self.ts[prev], self.ts[s], max_step)
                pos = curves[:, :, node_x, node_d - d]
            elif started:
                pos = _rk4_march(slope, pos, self.ts[prev], self.ts[s], max_step)
            if s == self.i0:
                if self.shared:
                    self.curve_sides.append((curves, start, range(first, len(self.groups))))
                return pos
            self.landed[s] = pos
            ids = self._dependence(s, pos, cone, targets)
            if ids.size:
                started = True
                self._start(s, ids, pos.shape[2])
                if self.shared:
                    new = ids[start[ids] < 0]
                    start[new] = d
                    curves[:, :, new, 0] = self.xs[new]
                    node_x = np.concatenate([node_x, ids])
                    node_d = np.concatenate([node_d, np.full(ids.size, d)])
                else:
                    own = np.broadcast_to(self.xs[ids], (S, K, ids.size))
                    pos = np.concatenate([pos, own], axis=2)

    def _dependence(self, s, feet, cone, targets):
        """Level s's targets plus the two cone nodes of each foot's interval.

        The same search gives the foot's interval j on the level's
        interpolation row xe (``rows[s]``): between cone nodes their
        interval, beside the row's first node [ghost, first node] and beside
        its last [last node, ghost], so a foot on the last node reads its
        value exactly.
        """
        take = targets[s].copy()
        row = np.nonzero(cone[s])[0]
        if not (feet.size and row.size):
            return np.nonzero(take)[0]
        q = feet.reshape(feet.shape[0], -1)
        j = np.searchsorted(self.xs[row], q, side="right") - 1
        # np.clip of an int array builds np.iinfo twice per call; this is the same
        jc = np.minimum(np.maximum(j, 0), max(row.size - 2, 0))
        take[row[jc]] = True
        take[row[np.minimum(jc + 1, row.size - 1)]] = True
        ids = np.nonzero(take)[0]
        # xe[k] is node ids[k - 1], and cumsum(take) counts the nodes up to each
        interval = np.cumsum(take)[row[jc]]
        interval[j < 0] = 0
        interval[j == row.size - 1] = ids.size
        self.rows[s] = _RowLayout(_row_abscissae(self.xs, ids),
                                  interval.astype(np.min_scalar_type(ids.size)))
        return ids

    def _start(self, s, ids, start):
        direction = 1 if s >= self.i0 else -1
        taus = self.ts[self.i0 + direction * np.arange(abs(s - self.i0) + 1)]
        self.groups.append(_FeetGroup(s, ids, taus, start, self.n_lattices, self.n_families))
        self.solved[s, ids] = True

    def columns(self, group):
        """(levels, starts): the levels below the group's own, nearest t = 0
        first, and node 0's column among the feet that land on each."""
        direction = 1 if group.level > self.i0 else -1
        levels = self.i0 + direction * np.arange(group.taus.size - 1)
        starts = np.full(levels.size, group.start)
        if direction < 0:
            starts[:1] += self.minus_shift
        return levels, starts

    def feet_index(self, group):
        """(n, L - 1): node n's foot on the m-th level from t = 0 at [n, m],
        as a column among all the feet, level s's from ``first[s]`` on."""
        levels, starts = self.columns(group)
        return self.first[levels] + starts + np.arange(group.node_ids.size)[:, None]

    def positions(self, group):
        """The group's feet, of its ``shape``: node n's foot along family k of
        lattice l on the m-th level from t = 0 at [l, k, n, m]."""
        n = group.node_ids.size
        out = np.empty(group.shape)
        for m, (s, at) in enumerate(zip(*(c.tolist() for c in self.columns(group)))):
            out[..., m] = self.landed[s][:, :, at:at + n]
        out[..., -1] = self.xs[group.node_ids]
        return out

    def precompute(self, f, g, u0s):
        """f and g at every foot, and family k's u0s[k] at its feet on t = 0;
        lattice l's values are read at the points' index l on their leading
        axis.  u0 is called once over the whole lattice.

        With shared curves and f and g that read x but not t (constants are
        broadcast to the feet for free), every foot of a side's groups is a
        point of its abscissa's curve, so f and g are called once per side on
        the curves' points (:meth:`_curve_values`) and each group gathers its
        feet's values there.  The t = 0 group, and every group otherwise,
        calls f and g once at its own feet (:meth:`positions`) and its own
        taus.  So no call sees more points than one side's curves or one
        group's feet.
        """
        groups = self.groups
        reads = {*_variables(f), *_variables(g)}
        per_foot = list(groups)
        if self.shared and reads == {"x"}:
            for curves, start, members in self.curve_sides:
                Fc, Gc = self._curve_values(f, g, curves, start)
                for gi in members:
                    at, step = groups[gi].on_curve()
                    groups[gi].F, groups[gi].G = Fc[:, :, at, step], Gc[:, :, at, step]
            on_curves = {gi for *_, members in self.curve_sides for gi in members}
            per_foot = [group for gi, group in enumerate(groups) if gi not in on_curves]
        self.curve_sides = []
        if not reads:
            # f and g that read neither x nor t are two values, checked once
            # and broadcast (_variables): gathering the real feet for them
            # made a stacked transport_point sample (f = g = 0) 5-9% slower
            F, G = _eval_x(f, np.nan), _eval_x(g, np.nan)
            _check_finite(("f", F), ("g", G))
        for group in per_foot:
            if not reads:
                group.F, group.G = np.broadcast_to(F, group.shape), np.broadcast_to(G, group.shape)
                continue
            pos = self.positions(group)
            group.F, group.G = _eval_xt(f, pos, group.taus), _eval_xt(g, pos, group.taus)
            _check_finite(("f", group.F), ("g", group.G))
        # the feet on t = 0 are those that land there, then the t = 0 group's
        # own nodes, in the groups' order
        at_zero = [self.landed[self.i0]]
        if groups[-1].level == self.i0:
            at_zero.append(np.broadcast_to(self.xs[groups[-1].node_ids], groups[-1].shape[:3]))
        U0 = np.stack([_eval_x(u0, np.concatenate([feet[:, k] for feet in at_zero], axis=1))
                       for k, u0 in enumerate(u0s)], axis=1)
        _check_finite(("u0", U0))
        off = 0
        for group in groups:
            group.U0 = U0[:, :, off:off + group.node_ids.size]
            off += group.node_ids.size

    def _curve_values(self, f, g, curves, start):
        """f and g, which do not read t, at every point of one side's curves
        that some foot is: steps 0..start[i] of abscissa i's curve, which its
        outermost node reaches on the levels start[i], ..., 0 from t = 0.
        Other entries of the returned (S, K, nx, steps) arrays are never read."""
        live = np.nonzero(start >= 0)[0]
        counts = start[live] + 1
        curve = np.repeat(live, counts)
        step = np.arange(curve.size) - np.repeat(np.cumsum(counts) - counts, counts)
        at = (slice(None), slice(None), curve, step)
        pos = curves[at]
        F, G = _eval_x(f, pos), _eval_x(g, pos)
        _check_finite(("f", F), ("g", G))
        Fc, Gc = np.empty(curves.shape), np.empty(curves.shape)
        Fc[at], Gc[at] = F, G
        return Fc, Gc


def _check_finite(*named):
    for name, arr in named:
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"coefficient {name} is not finite along a characteristic")


def _max_step(xs, ts):
    """The RK4 sub-step bound: half the finer grid spacing."""
    return 0.5 * min(float(np.min(np.diff(xs))), float(np.min(np.diff(ts))))


def _uniform_levels(ts, max_step) -> bool:
    """Whether every level step has one length up to the rounding of the
    levels themselves, and so the same RK4 sub-steps."""
    dt = np.diff(ts)
    return (float(np.ptp(dt)) <= 8.0 * np.finfo(float).eps * float(np.abs(ts).max())
            and len({_substeps(step, max_step) for step in dt}) == 1)


def _zero_level(ts):
    dt = np.diff(ts)
    if np.any(dt <= 0):
        raise DomainError("time grid must be strictly increasing")
    i0 = int(np.argmin(np.abs(ts)))
    if abs(ts[i0]) > 1e-9:
        raise DomainError("time grid must contain t = 0 (initial-data level)")
    return i0


def _row_abscissae(xs, ids):
    """A level's interpolation abscissae: its nodes ``ids`` and one ghost node
    per side, so queries up to the slanted cone boundary stay well-defined
    without ever consulting nodes outside the cone."""
    xrow = xs[ids]
    if ids.size >= 2:
        return np.concatenate(([2 * xrow[0] - xrow[1]], xrow, [2 * xrow[-1] - xrow[-2]]))
    dx_typ = float(np.mean(np.diff(xs))) if xs.size > 1 else 1.0
    return np.array([xrow[0] - dx_typ, xrow[0], xrow[0] + dx_typ])


def _row_values(vrows):
    """The (C, S, n + 2) values on :func:`_row_abscissae` of the (S, C, n)
    values at a level's n nodes, one row per component and lattice: the
    ghosts extrapolate linearly from the outermost inside values (a single
    node's value is constant)."""
    rows = vrows.transpose(1, 0, 2)
    ve = np.empty(rows.shape[:2] + (rows.shape[2] + 2,))
    if rows.shape[2] >= 2:
        ve[..., 1:-1] = rows
        ve[..., 0] = 2 * rows[..., 0] - rows[..., 1]
        ve[..., -1] = 2 * rows[..., -1] - rows[..., -2]
    else:
        ve[...] = rows[..., :1]
    return ve


class _RowLayout(NamedTuple):
    """Where S rows of queries fall on one interpolation row ``xe`` (P,):
    ``jl`` (S, Q) is each query's interval j, in [0, P - 2], in the smallest
    unsigned type that holds P - 2."""

    xe: np.ndarray
    jl: np.ndarray


def _interp_rows(layout, ve, q):
    """Linear interpolation of every component c and lattice l at once:
    ``s * (q - xe[j]) + ve[c, l, j]`` on each query's interval j, with
    ``s = (ve[c, l, j+1] - ve[c, l, j]) / (xe[j+1] - xe[j])``.

    ``layout`` is the queries' :class:`_RowLayout` on ``xe``, ``ve`` (C, S,
    P) and ``q`` (S, Q); the result is (C, S, Q).  On [xe[0], xe[-1]) with
    finite values this is np.interp's value bit for bit (on a node, s * 0 +
    ve[j] is ve[j]); a query beyond a ghost is extrapolated, and a NaN query
    or a non-finite value at an end of its interval gives a non-finite one.
    """
    n_comp, n_lat, size = ve.shape
    at = layout.jl + size * np.arange(n_lat)[:, None]     # into S stacked rows, as intp
    d = q - layout.xe.take(layout.jl)
    slopes = np.empty_like(ve)
    np.divide(ve[..., 1:] - ve[..., :-1], np.diff(layout.xe), out=slopes[..., :-1])
    out = np.empty((n_comp,) + q.shape)
    for vc, sc, oc in zip(ve, slopes, out):
        np.multiply(sc.reshape(-1).take(at), d, out=oc)
        oc += vc.reshape(-1).take(at)
    return out


def _verify_speed_bound(a, bound, region, xs, ts, n_lattices):
    """Check |a| <= bound in every lattice on a probe grid ten times finer than
    (xs, ts), on t = 0 alone where a does not read t."""
    xp = np.linspace(-region.kappa, region.kappa, 10 * xs.size + 1)
    x_only = "t" not in _variables(a)
    tp = np.array([0.0]) if x_only else np.linspace(-region.T, region.T, 10 * ts.size + 1)
    X, Tm = np.broadcast_to(xp, (n_lattices, 1, xp.size)), tp[:, None]
    mask = region.contains(xp[None, :], Tm)
    vals = np.broadcast_to(_eval_x(a, X) if x_only else np.asarray(a(X, Tm), dtype=float),
                           (n_lattices, tp.size, xp.size))
    worst = float(np.abs(vals[:, mask]).max())
    if worst > bound * (1.0 + BOUND_SLACK) + BOUND_SLACK * (bound == 0.0):
        raise SpeedBoundError(
            f"|a| reaches {worst:g} on the region, exceeding the declared bound {bound:g}"
        )


def _lattice(a, signs, bound, region, xs, ts, targets, lattices=None):
    """Check the grids, the speed bound and the targets; trace their lattice.

    ``targets`` is a boolean (nt, nx) mask of cone nodes, or None for the
    whole cone; ``lattices`` is the solvers' stack size, None for one.  The
    lattice's curves are shared when the speed does not read t
    (:func:`_variables`) and the level steps are uniform.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise DomainError("space grid must be strictly increasing")
    n_lattices = 1 if lattices is None else lattices
    if not n_lattices >= 1:
        raise DomainError(f"need at least one lattice, got {n_lattices}")
    i0 = _zero_level(ts)
    if bound > region.c + BOUND_SLACK:
        raise DomainError("coefficient speed bound exceeds the region's bound")
    _verify_speed_bound(a, bound, region, xs, ts, n_lattices)
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
    shared = "t" not in _variables(a) and _uniform_levels(ts, _max_step(xs, ts))
    return _Lattice(a, signs, xs, ts, cone, i0, targets, n_lattices, shared)


def _march(lattice, coupling_weights) -> np.ndarray:
    """Solve the discrete integral equations in one causal pass over the levels.

    Component k travels along the lattice's family k and sees the coupling
    c = sum_j C_j u_j, with C the ``coupling_weights``.  Levels are visited
    nearest t = 0 first, so every foot of a node but its own lies on a
    finished level.  With A_k the value of component k's update over those
    earlier feet, and the node's own trapezoid weight w, f and g shared by
    every component, u_k = A_k + w (f c + g) gives

        c = (C.A + sum(C) w g) / (1 - sum(C) w f).

    Each group forms its trapezoid terms F * c(feet) + G once, for every
    component: the earlier feet's columns give A, the own foot's column is
    filled in once c is known, and one ``U0 + terms @ weights`` stores every
    component's node values.  A finished level is then interpolated at
    every foot on it (``landed``), every lattice and component in one pass
    (:func:`_interp_rows`), and c there fills that level's block of columns
    in one (S, K, feet) store.  A group reads c at all its earlier feet
    with one gather from the store, through its :meth:`_Lattice.feet_index`.
    Returns the (S, components, nt, nx) values, NaN off the lattice.
    """
    xs, ts, groups = lattice.xs, lattice.ts, lattice.groups
    sum_c = sum(coupling_weights)
    n_comp = len(coupling_weights)
    u = np.full((lattice.n_lattices, n_comp, ts.size, xs.size), np.nan)
    # the coupling c at every foot, in the columns of lattice.feet_index
    store = np.empty((lattice.n_lattices, lattice.n_families, lattice.n_feet))
    for grp in reversed(groups):
        s, ids = grp.level, grp.node_ids
        F, G, U0 = grp.F, grp.G, grp.U0
        feet = store.take(lattice.feet_index(grp), axis=2)
        # F * feet + G over the earlier feet, in C order whatever F's (a
        # gather from the curves' values may order it otherwise), so that
        # the products below sum in the same order as one component's did
        terms = np.empty(F.shape)
        np.multiply(F[..., :-1], feet, out=terms[..., :-1])
        terms[..., :-1] += G[..., :-1]
        earlier = U0 + terms[..., :-1] @ grp.weights[:-1]
        w, f, g = grp.weights[-1], F[:, 0, :, -1], G[:, 0, :, -1]
        denom = 1.0 - sum_c * w * f
        if np.any(denom <= 0.0):
            raise NumericalError(
                f"transport step at t = {ts[s]:g} has 1 - w*f = {float(denom.min()):g} <= 0 "
                f"(trapezoid weight w = {w:g}): the time step is too long for the reaction f"
            )
        c = (sum(ck * earlier[:, k] for k, ck in enumerate(coupling_weights))
             + sum_c * w * g) / denom
        terms[..., -1] = F[..., -1] * c[:, None] + G[..., -1]
        u[:, :, s, ids] = U0 + terms @ grp.weights
        pos = lattice.landed[s]
        if pos.shape[2]:
            rows = _interp_rows(lattice.rows[s], _row_values(u[:, :, s, ids]),
                                pos.reshape(pos.shape[0], -1))
            at = lattice.first[s]
            store[:, :, at:at + pos.shape[2]] = \
                sum(ck * rk for ck, rk in zip(coupling_weights, rows)).reshape(pos.shape)
    return u


def _solution(lattice, u, lattices) -> GridSolution2D:
    """The march's (S, components, nt, nx) values as a solution: one component
    loses its axis, and a single lattice (``lattices`` None) its lattice axis."""
    values = u[:, 0] if u.shape[1] == 1 else u
    return GridSolution2D(lattice.xs, lattice.ts, values if lattices is not None else values[0],
                          lattice.solved, lattices=lattices)


def solve_transport(coeffs: TransportCoefficients, region: DeterminacyRegion,
                    xs, ts, targets: Optional[np.ndarray] = None,
                    lattices: Optional[int] = None) -> GridSolution2D:
    """The scalar transport equation on K_T, in one causal pass over the lattice.

    With a boolean (nt, nx) ``targets`` mask of cone nodes, only the nodes
    the targets depend on are solved, each to the value the whole cone
    gives it; the rest hold NaN.

    With ``lattices`` = S, S problems on one grid are solved at once: every
    coefficient is called with points whose leading axis has length S and
    must return problem l's values at index l of it, and the values gain a
    leading axis of length S.  The problems share one set of solved nodes,
    the union of their targets' dependence domains.

    Raises :class:`NumericalError` where a node's own trapezoid weight w and
    reaction f have 1 - w*f <= 0: its discrete equation (1 - w*f) u = A + w*g,
    A its terms over the earlier feet, then has no unique solution (= 0) or
    gives u the sign opposite to A + w*g, which the reaction should amplify.
    """
    lattice = _lattice(coeffs.a, (1.0,), coeffs.c, region, xs, ts, targets, lattices)
    lattice.precompute(coeffs.f, coeffs.g, (coeffs.u0,))
    return _solution(lattice, _march(lattice, (1.0,)), lattices)


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
    a and f are marked as functions of x alone (``variables`` ("x",)), and
    so is g where q does not read t, so the solvers never give them t.
    """
    e_val, e_der = _diff_pair(material.E, fd_step)
    rho = material.rho
    rho_const = not callable(rho)
    if rho_const and not rho > 0.0:
        raise MaterialError("density must be positive")

    def _checked(vals, name):
        # one min, which NaN turns NaN: only then is each value compared
        vals = np.asarray(vals, dtype=float)
        low = np.minimum.reduce(vals, axis=None) if vals.size else 1.0
        if low <= 0.0 or (low != low and np.any(vals <= 0.0)):
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

    def g_coeff(x, t=None):
        if q is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return _eval_xt(q, x, t) / rho_at(x)

    speed.variables = f_coeff.variables = ("x",)
    g_coeff.variables = ("x", "t") if "t" in _variables(q) else ("x",)
    return speed, f_coeff, g_coeff


def solve_2x2_system(a, f, g, u01, u02, region: DeterminacyRegion, xs, ts,
                     targets: Optional[np.ndarray] = None,
                     lattices: Optional[int] = None) -> GridSolution2D:
    """The pair of coupled transport equations

        (d_t + a d_x) u1 = f (u2 - u1) + g,   u1(.,0) = u01,
        (d_t - a d_x) u2 = f (u2 - u1) + g,   u2(.,0) = u02,

    in one causal pass over the lattice.  Component 1 travels along the +a
    characteristics, component 2 along -a; both families are traced in one
    pass.  A node's own terms cancel in u2 - u1, so the march divides by
    exactly 1.  ``targets`` restricts the solve and ``lattices`` stacks S
    problems as in :func:`solve_transport`.
    """
    lattice = _lattice(a, (1.0, -1.0), region.c, region, xs, ts, targets, lattices)
    lattice.precompute(f, g, (u01, u02))
    return _solution(lattice, _march(lattice, (-1.0, 1.0)), lattices)


def reconstruct_displacement(solution: GridSolution2D, w,
                             column: Optional[int] = None) -> np.ndarray:
    """Displacement u(x,t) = w(x) + integral_0^t (u1+u2)/2 dtau, per column.

    ``solution`` must be a 2-component system solution whose components are
    (d_t - a d_x)u and (d_t + a d_x)u, so their mean is the time derivative
    of the displacement.  Trapezoid accumulation along each x-column, one
    level after another; NaN at every node whose column is not solved all
    the way from t = 0.  A solution of S lattices gives (S, nt, nx)
    displacements.  With ``column`` = i only column i is integrated, and
    the result drops the x axis: it equals the whole reconstruction's
    ``[..., i]`` bit for bit.
    """
    if solution.values.ndim - (solution.lattices is not None) != 3:
        raise DomainError("displacement reconstruction needs a 2-component solution")
    xs, ts = solution.xs, solution.ts
    i0 = _zero_level(ts)
    cols = slice(None) if column is None else slice(column, column + 1)
    inside = solution.inside[:, cols]
    values = solution.values[..., cols]
    v = np.where(inside, 0.5 * (values[..., 0, :, :] + values[..., 1, :, :]), np.nan)
    u = np.empty(v.shape)
    u[..., i0, :] = np.nan
    u[..., i0, inside[i0]] = _eval_x(w, xs[cols][inside[i0]])
    # each level adds its trapezoid to the previous one's value, in order
    # outwards from t = 0; a node off the lattice is NaN, and so is every
    # node beyond it
    for levels in (slice(i0, None), slice(i0, None, -1)):
        half = 0.5 * np.diff(ts[levels])[:, None]
        inc = half * (v[..., levels, :][..., :-1, :] + v[..., levels, :][..., 1:, :])
        u[..., levels, :][..., 1:, :] = inc
        u[..., levels, :] = np.add.accumulate(u[..., levels, :], axis=-2)
    return u if column is None else u[..., 0]
