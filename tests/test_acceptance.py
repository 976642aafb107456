"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE] NN PASS/FAIL` line (visible with -s or
-rA) and then asserts.  The desk-scale membrane experiment and the
imprecise-Gaussian run are session fixtures shared across criteria.
"""

import time

import numpy as np
import pytest

import _oracles as oracle
from randset_pde.characteristics import (
    TransportCoefficients,
    WaveMaterial,
    build_grids,
    domain_of_determinacy,
    reconstruct_displacement,
    solve_2x2_system,
    solve_transport,
    wave_to_system,
)
from randset_pde.cli import main
from randset_pde.fem import assemble, build_mesh, element_coefficients, solve_cg
from randset_pde.fields import (
    ExpCovarianceParams,
    kl_eigenpairs,
    sample_ou_paths,
)
from randset_pde.propagation import (
    compare_bounds,
    interval_mean_field,
    parametric_from_random_set,
)
from randset_pde.randomsets import (
    FiniteRandomSet,
    Interval,
    lower_probability,
    upper_probability,
)
from randset_pde.sampling import standard_normals

REF = Interval(-1.0, 1.0)

# one line per criterion; conftest echoes these in the terminal summary
RESULT_LINES = []


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] {num:02d} {status} - {name}: {detail}"
    RESULT_LINES.append(line)
    print(line)
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def test_criterion_01_kl_trace():
    t0 = time.perf_counter()
    basis = kl_eigenpairs(ExpCovarianceParams(1.0, 1.0, REF), 130)
    trace = basis.trace()
    elapsed = time.perf_counter() - t0
    ok = 1.98 <= trace <= 2.0 and elapsed < 1.0
    report(1, "KL trace", ok, f"sum(c_k + c*_k) = {trace:.6f}, {elapsed:.3f}s")


def test_criterion_02_kl_covariance_reconstruction():
    t0 = time.perf_counter()
    basis = kl_eigenpairs(ExpCovarianceParams(1.0, 1.0, REF), 130)
    xg = np.linspace(-1.0, 1.0, 41)
    phi, phi_star = basis.eigenfunctions(xg)
    approx = (phi * basis.eigvals) @ phi.T + (phi_star * basis.eigvals_star) @ phi_star.T
    rms = float(np.sqrt(np.mean((approx - np.exp(-np.abs(xg[:, None] - xg[None, :]))) ** 2)))
    elapsed = time.perf_counter() - t0
    ok = rms <= 0.01 and elapsed < 5.0
    report(2, "KL covariance reconstruction", ok, f"RMS = {rms:.5f}, {elapsed:.3f}s")


def test_criterion_03_ou_covariance():
    t0 = time.perf_counter()
    n_paths, dx = 2000, 0.01
    xs = np.arange(0.0, 4.0 + dx / 2, dx)
    params = ExpCovarianceParams(1.0, 1.0, Interval(0.0, 4.0))
    noise = np.stack([standard_normals(314, k, xs.size) for k in range(n_paths)])
    paths = sample_ou_paths(params, xs, noise)
    probes = [(0.5, 0.5), (0.5, 0.55), (0.5, 0.6), (0.5, 0.8), (0.5, 1.0),
              (0.5, 1.5), (0.5, 2.5), (1.0, 1.7), (2.0, 2.2), (3.0, 3.9)]
    centered = paths - paths.mean(axis=0)
    worst = 0.0
    ok = True
    for x, y in probes:
        i, j = int(round(x / dx)), int(round(y / dx))
        products = centered[:, i] * centered[:, j]
        cov = float(products.mean())
        se = float(products.std(ddof=1)) / np.sqrt(n_paths)
        dev = abs(cov - np.exp(-abs(x - y))) / (3.0 * se)
        worst = max(worst, dev)
        ok = ok and dev <= 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(3, "OU covariance", ok,
           f"worst deviation = {worst:.2f} x (3 SE), {elapsed:.3f}s")


def test_criterion_04_elliptic_oracle():
    mesh = build_mesh("rectangle", 64, 64)
    coeffs = element_coefficients(mesh, lambda x, y: np.ones_like(x))
    system = assemble(mesh, coeffs, 1.0)
    sol = solve_cg(system)
    center = float(sol.values[mesh.grid_index[32, 32]])
    budget = 5 * system.rhs.size
    ok = abs(center - oracle.POISSON_CENTER) <= 1e-3 and sol.iterations < budget
    report(4, "elliptic oracle", ok,
           f"u(center) = {center:.7f} (ref {oracle.POISSON_CENTER}), "
           f"CG {sol.iterations} it (< {budget})")


def test_criterion_05_transport_oracle():
    region = domain_of_determinacy(1.0, 0.4, 1.0)
    xs, ts = build_grids(region, 201, 201)
    coeffs = TransportCoefficients(
        a=1.0, f=0.0, g=0.0, u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)), c=1.0)
    sol = solve_transport(coeffs, region, xs, ts)
    X, T = np.meshgrid(xs, ts)
    err = float(np.max(np.abs(sol.values - np.sin(np.pi * (X - T)))[sol.inside]))
    ok = err <= 1e-6
    report(5, "transport oracle", ok, f"max nodal error = {err:.2e}")


def test_criterion_06_wave_oracle():
    t0 = time.perf_counter()
    region = domain_of_determinacy(1.0, 0.4, 1.0)
    xs, ts = build_grids(region, 201, 201)

    def w(x):
        return np.exp(-16.0 * np.asarray(x, dtype=float) ** 2)

    def wp(x):
        x = np.asarray(x, dtype=float)
        return -32.0 * x * np.exp(-16.0 * x**2)

    a, f, g = wave_to_system(WaveMaterial(
        rho=1.0, E=(lambda x: np.ones_like(np.asarray(x, float)),
                    lambda x: np.zeros_like(np.asarray(x, float)))))
    sol = solve_2x2_system(a, f, g, lambda x: -wp(x), lambda x: wp(x), region, xs, ts)
    displacement = reconstruct_displacement(sol, w)
    X, T = np.meshgrid(xs, ts)
    err = float(np.max(np.abs(displacement - oracle.dalembert(w, X, T))[sol.inside]))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-4 and elapsed < 30.0
    report(6, "wave oracle", ok, f"max error = {err:.2e}, {elapsed:.3f}s")


def test_criterion_07_membrane_experiment(membrane_run):
    rs, elapsed = membrane_run
    values, lowers, uppers = rs.per_lambda_values, rs.lowers, rs.uppers
    membership = bool(np.all(values >= lowers[:, None, :])
                      and np.all(values <= uppers[:, None, :]))
    mf = interval_mean_field(rs)
    lo = np.array([iv.lo for iv in mf.aumann])
    hi = np.array([iv.hi for iv in mf.aumann])
    envelope = bool(np.all(mf.per_lambda_means >= lo[None, :] - 1e-12)
                    and np.all(mf.per_lambda_means <= hi[None, :] + 1e-12))
    pbox_ok = bool(rs.pbox.n_thresholds == 201
                   and np.all(rs.pbox.f_lower <= rs.pbox.f_upper))
    ok = elapsed < 600.0 and membership and envelope and pbox_ok
    report(7, "membrane experiment", ok,
           f"{elapsed:.1f}s, membership={membership}, envelope={envelope}, "
           f"pbox_ok={pbox_ok} (N={rs.n_samples}, grid={rs.grid.m}, "
           f"slice nodes={values.shape[2]})")


def test_criterion_08_bound_ordering_chain(gauss_run, membrane_run):
    rs_gauss = gauss_run
    rs_membrane, _ = membrane_run
    v_gauss = compare_bounds(rs_gauss, parametric_from_random_set(rs_gauss)).violations
    v_membrane = compare_bounds(rs_membrane,
                                parametric_from_random_set(rs_membrane)).violations
    ok = v_gauss == 0 and v_membrane == 0
    report(8, "bound-ordering chain", ok,
           f"violations: gauss toy = {v_gauss}, membrane = {v_membrane}")


def test_criterion_09_imprecise_gaussian_envelope(gauss_run):
    rs = gauss_run
    b0 = int(np.argmin(np.abs(rs.thresholds)))
    assert rs.thresholds[b0] == 0.0
    upper_dev = abs(float(rs.pbox.f_upper[b0]) - oracle.PHI_AT_1)
    lower_dev = abs(float(rs.pbox.f_lower[b0]) - oracle.PHI_AT_M1)
    ok = upper_dev <= 0.011 and lower_dev <= 0.011
    report(9, "imprecise Gaussian envelope", ok,
           f"|F_upper(0) - Phi(1)| = {upper_dev:.4f}, "
           f"|F_lower(0) - Phi(-1)| = {lower_dev:.4f} (tol 0.011)")


@pytest.mark.slow
def test_criterion_10_worker_determinism(tmp_path):
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    code1 = main(["propagate", "--config", "membrane", "--seed", "42",
                  "--workers", "1", "--out-dir", str(out1)])
    code8 = main(["propagate", "--config", "membrane", "--seed", "42",
                  "--workers", "8", "--out-dir", str(out8)])
    identical = {
        name: (out1 / name).read_bytes() == (out8 / name).read_bytes()
        for name in ("pbox.csv", "intervals.csv", "mean_field.csv")
    }
    ok = code1 == 0 and code8 == 0 and all(identical.values())
    report(10, "worker determinism", ok,
           f"exit codes ({code1}, {code8}), byte-identical: {identical}")


def test_criterion_11_random_set_functionals():
    rng = np.random.default_rng(20240811)
    instances = oracle.random_focal_instances(rng, 100_000)
    violations = 0
    mismatches = 0
    for lo, hi, w, ev_lo, ev_hi in instances:
        rs = FiniteRandomSet(tuple(Interval(a, b) for a, b in zip(lo, hi)), tuple(w))
        event = Interval(ev_lo, ev_hi)
        upp = upper_probability(rs, event)
        low = lower_probability(rs, event)
        if low > upp:
            violations += 1
        upp_x, low_x = oracle.exact_upper_lower(lo, hi, w, ev_lo, ev_hi)
        if abs(upp - upp_x) > 1e-12 or abs(low - low_x) > 1e-12:
            mismatches += 1
    ok = violations == 0 and mismatches == 0
    report(11, "finite random-set functionals", ok,
           f"{len(instances)} instances, {violations} ordering violations, "
           f"{mismatches} oracle mismatches")
