"""Random-set core: intervals, set functionals, p-boxes, imprecise Gaussians."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import _oracles as oracle
from randset_pde.errors import DomainError
from randset_pde.randomsets import (
    FiniteRandomSet,
    ImpreciseGaussianSpec,
    Interval,
    PBox,
    RandomIntervalSample,
    aumann_expectation,
    empirical_cdfs,
    empirical_pbox,
    imprecise_gaussian_focal,
    interval_hull,
    inverse_normal_cdf,
    lower_probability,
    upper_probability,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestInterval:
    def test_validation(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    def test_predicates(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(0.5) and iv.contains(1.0) and not iv.contains(1.1)
        assert iv.intersects(Interval(1.0, 2.0))          # shared endpoint counts
        assert not iv.intersects(Interval(1.5, 2.0))
        assert Interval(-1.0, 2.0).contains_interval(iv)
        assert iv.contains_interval(iv)


class TestInverseNormalCdf:
    def test_examples(self):
        assert inverse_normal_cdf(0.5) == 0.0
        assert abs(inverse_normal_cdf(0.8413447461) - 1.0) <= 1e-8
        assert abs(inverse_normal_cdf(0.975) - 1.959964) <= 1e-6

    def test_accuracy_against_oracle(self):
        ps = np.concatenate([
            [1e-12, 1e-9, 1e-6, 1e-3],
            np.linspace(0.01, 0.99, 23),
            [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
        ])
        for p in ps:
            z = inverse_normal_cdf(float(p))
            assert abs(z - oracle.mp_inverse_normal(p)) <= 1e-8
            assert abs(oracle.mp_normal_cdf(z) - p) <= 1e-10

    def test_accuracy_over_documented_range(self):
        # the documented range, p = 1e-300 to 1 - 1e-16, with both tails
        ps = np.concatenate([
            10.0 ** -np.array([300, 250, 200, 150, 100, 50, 30, 20, 16, 12, 8, 4, 2]),
            np.linspace(0.05, 0.95, 7),
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
            [1.0 - 3e-14],
        ])
        for p in ps:
            ref = oracle.mp_inverse_normal(p)
            assert abs(inverse_normal_cdf(float(p)) - ref) <= 1e-12 * max(1.0, abs(ref)), p

    @pytest.mark.parametrize("ps", [[0.01, 0.3, 0.5, 0.77, 0.999],
                                    [[0.01, 0.5], [1e-20, 1 - 1e-12]]])
    def test_vectorized_matches_scalar(self, ps):
        ps = np.array(ps)
        zs = inverse_normal_cdf(ps)
        assert zs.shape == ps.shape
        for p, z in zip(ps.ravel(), zs.ravel()):
            assert z == inverse_normal_cdf(float(p))

    @staticmethod
    def _assert_near_ndtri(ps):
        z, ref = inverse_normal_cdf(ps), ndtri(ps)
        excess = np.abs(z - ref) - 1e-14 * np.maximum(1.0, np.abs(ref))
        worst = int(np.argmax(excess))
        assert excess[worst] <= 0.0, (ps[worst], z[worst], ref[worst])

    def test_near_ndtri_on_the_draw_grid(self):
        # the uniforms the draws map: (k + 1/2) 2**-53 for 53-bit integers k
        k = np.random.default_rng(2024).integers(0, 1 << 53, size=10**6, dtype=np.uint64)
        self._assert_near_ndtri((k.astype(np.float64) + 0.5) * 2.0**-53)

    def test_near_ndtri_in_both_tails(self):
        lower = np.geomspace(1e-300, 0.075, 20001)
        self._assert_near_ndtri(np.concatenate([lower, 1.0 - np.geomspace(2.0**-53, 0.075, 20001)]))

    @pytest.mark.parametrize("branch_point", [0.075, 0.925, math.exp(-25.0)])
    def test_near_ndtri_around_the_branch_points(self, branch_point):
        # 0.075 and 0.925 bound the central fraction, e**-25 (r = 5) the two tail ones
        ulps = np.arange(-10**4, 10**4 + 1)
        self._assert_near_ndtri(branch_point + ulps * np.spacing(branch_point))

    def test_equals_the_stdlib_scalar_algorithm(self):
        # same AS241 steps as statistics.NormalDist.inv_cdf, element by element
        ps = np.concatenate([
            np.linspace(1e-3, 1 - 1e-3, 1001),
            np.geomspace(1e-300, 0.2, 500),
            1.0 - np.geomspace(2.0**-53, 0.2, 500),
            0.075 + np.arange(-50, 51) * np.spacing(0.075),
            math.exp(-25.0) + np.arange(-50, 51) * np.spacing(math.exp(-25.0)),
        ])
        reference = statistics.NormalDist()
        assert inverse_normal_cdf(ps).tolist() == [reference.inv_cdf(p) for p in ps.tolist()]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            inverse_normal_cdf(bad)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10),
           st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    @example(1e-10, math.nextafter(1e-10, 1.0))
    @example(0.19927222024780192, 0.19927222024780195)
    def test_monotone(self, p, q):
        # strictly increasing wherever the gap in p moves z by more than its
        # rounding: beyond 1e-12 of the nearer tail mass, z moves by at least
        # 1e-12 / |z|.  Closer pairs, such as 1e-10 and the next float up,
        # may round to one z or, like statistics.NormalDist.inv_cdf and
        # ndtri, reverse by up to two ulp (the second example).
        lo, hi = min(p, q), max(p, q)
        z_lo, z_hi = inverse_normal_cdf(lo), inverse_normal_cdf(hi)
        if hi - lo > 1e-12 * min(lo, 1.0 - hi):
            assert z_lo < z_hi
        else:
            assert z_lo <= z_hi + 2.0 * math.ulp(z_hi)

    @given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
    def test_roundtrip_through_erf(self, p):
        z = inverse_normal_cdf(p)
        phi = 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert abs(phi - p) <= 1e-12


FIG1_SPEC = ImpreciseGaussianSpec(mu=Interval(-1.0, 1.0), sigma=Interval(1.0, 2.0))


def _grid_hull(omega, spec, n=101):
    z = inverse_normal_cdf(omega)
    mus = np.linspace(spec.mu.lo, spec.mu.hi, n)
    sigmas = np.linspace(spec.sigma.lo, spec.sigma.hi, n)
    vals = mus[:, None] + sigmas[None, :] * z
    return float(vals.min()), float(vals.max())


class TestImpreciseGaussianFocal:
    def test_center(self):
        focal = imprecise_gaussian_focal(0.5, FIG1_SPEC)
        assert (focal.lo, focal.hi) == (-1.0, 1.0)

    def test_at_phi_of_one(self):
        focal = imprecise_gaussian_focal(oracle.PHI_AT_1, FIG1_SPEC)
        lo, hi = _grid_hull(oracle.PHI_AT_1, FIG1_SPEC)
        assert focal.lo == pytest.approx(0.0, abs=1e-9)
        assert focal.hi == pytest.approx(3.0, abs=1e-9)
        assert focal.lo == pytest.approx(lo, abs=1e-12)
        assert focal.hi == pytest.approx(hi, abs=1e-12)

    def test_at_phi_of_minus_one(self):
        focal = imprecise_gaussian_focal(oracle.PHI_AT_M1, FIG1_SPEC)
        assert focal.lo == pytest.approx(-3.0, abs=1e-9)
        assert focal.hi == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60)
    def test_closed_form_equals_grid_hull(self, omega):
        focal = imprecise_gaussian_focal(omega, FIG1_SPEC)
        lo, hi = _grid_hull(omega, FIG1_SPEC)
        assert abs(focal.lo - lo) <= 1e-12 * max(1.0, abs(lo))
        assert abs(focal.hi - hi) <= 1e-12 * max(1.0, abs(hi))

    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            ImpreciseGaussianSpec(mu=Interval(0.0, 1.0), sigma=Interval(0.0, 1.0))


class TestSetFunctionals:
    def test_upper_examples(self):
        rs = FiniteRandomSet((Interval(0, 1), Interval(2, 3)), (0.5, 0.5))
        assert upper_probability(rs, Interval(0.5, 2.5)) == 1.0
        assert upper_probability(FiniteRandomSet((Interval(0, 1),), (1.0,)),
                                 Interval(2, 3)) == 0.0
        singles = FiniteRandomSet((Interval(2, 2), Interval(5, 5)), (0.3, 0.7))
        assert upper_probability(singles, Interval(0, 3)) == 0.3

    def test_lower_examples(self):
        rs = FiniteRandomSet((Interval(0, 1), Interval(2, 3)), (0.5, 0.5))
        assert lower_probability(rs, Interval(0.5, 2.5)) == 0.0
        assert lower_probability(rs, Interval(-1, 4)) == 1.0
        singles = FiniteRandomSet((Interval(2, 2), Interval(5, 5)), (0.3, 0.7))
        assert lower_probability(singles, Interval(0, 3)) == 0.3

    def test_single_valued_focals_collapse(self):
        # for single-valued random sets both capacities equal the probability
        rng = np.random.default_rng(11)
        pts = rng.integers(-8, 9, size=6) / 4.0
        w = rng.integers(1, 5, size=6).astype(float)
        w /= w.sum()
        rs = FiniteRandomSet(tuple(Interval(p, p) for p in pts), tuple(w))
        event = Interval(-1.0, 1.0)
        prob = float(sum(wi for p, wi in zip(pts, w) if -1.0 <= p <= 1.0))
        assert upper_probability(rs, event) == pytest.approx(prob, abs=1e-15)
        assert lower_probability(rs, event) == pytest.approx(prob, abs=1e-15)

    def test_against_exact_enumeration(self):
        rng = np.random.default_rng(5)
        for lo, hi, w, ev_lo, ev_hi in oracle.random_focal_instances(rng, 300):
            rs = FiniteRandomSet(tuple(Interval(a, b) for a, b in zip(lo, hi)), tuple(w))
            event = Interval(ev_lo, ev_hi)
            upp_x, low_x = oracle.exact_upper_lower(lo, hi, w, ev_lo, ev_hi)
            assert upper_probability(rs, event) == pytest.approx(upp_x, abs=1e-12)
            assert lower_probability(rs, event) == pytest.approx(low_x, abs=1e-12)
            assert lower_probability(rs, event) <= upper_probability(rs, event) + 1e-15

    def test_lower_equals_one_minus_upper_of_complement(self):
        # containment in B is failure to hit the complement, checked by enumeration
        rng = np.random.default_rng(17)
        for lo, hi, w, ev_lo, ev_hi in oracle.random_focal_instances(rng, 100):
            rs = FiniteRandomSet(tuple(Interval(a, b) for a, b in zip(lo, hi)), tuple(w))
            event = Interval(ev_lo, ev_hi)
            hit_complement = math.fsum(
                wi for a, b, wi in zip(lo, hi, w) if not (ev_lo <= a and b <= ev_hi)
            )
            assert lower_probability(rs, event) == pytest.approx(1.0 - hit_complement,
                                                                 abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            FiniteRandomSet((Interval(0, 1),), (0.5,))
        with pytest.raises(DomainError):
            FiniteRandomSet((), ())
        with pytest.raises(DomainError):
            FiniteRandomSet((Interval(0, 1), Interval(0, 1)), (1.5, -0.5))


class TestEmpiricalPBox:
    def test_two_sample_example(self):
        s = RandomIntervalSample.from_intervals([Interval(0, 1), Interval(1, 2)])
        box = empirical_pbox(s, [1.0])
        assert box.f_lower[0] == 0.5 and box.f_upper[0] == 1.0

    def test_degenerate_samples(self):
        s = RandomIntervalSample.from_intervals([Interval(3, 3), Interval(4, 4)])
        box = empirical_pbox(s, [3.5])
        assert box.f_lower[0] == box.f_upper[0] == 0.5

    def test_boundary_saturation(self):
        s = RandomIntervalSample(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        box = empirical_pbox(s, [-10.0, 10.0])
        assert box.f_lower[0] == box.f_upper[0] == 0.0
        assert box.f_lower[1] == box.f_upper[1] == 1.0

    def test_empty_sample_is_an_error(self):
        with pytest.raises(DomainError):
            RandomIntervalSample(np.array([]), np.array([]))

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40),
           st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_monotone_and_ordered(self, pairs, raw_thresholds):
        sample = RandomIntervalSample.from_intervals(
            [Interval(min(a, b), max(a, b)) for a, b in pairs]
        )
        box = empirical_pbox(sample, np.sort(np.asarray(raw_thresholds)))
        assert np.all(box.f_lower <= box.f_upper)
        assert np.all(np.diff(box.f_lower) >= 0)
        assert np.all(np.diff(box.f_upper) >= 0)

    def test_pbox_invariant_validation(self):
        with pytest.raises(DomainError):
            PBox(np.array([0.0, 1.0]), np.array([0.5, 0.4]), np.array([0.6, 0.7]))
        with pytest.raises(DomainError):
            PBox(np.array([0.0]), np.array([0.7]), np.array([0.4]))


class TestEmpiricalCdfs:
    # few distinct values, so samples tie and thresholds fall on sample values
    POOL = np.array([-2.5, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0])

    @given(n=st.integers(1, 60),
           # widths below, at and above the 16-column block, and not multiples of it
           k=st.one_of(st.sampled_from([1, 15, 16, 17, 31, 32, 33, 47, 50]),
                       st.integers(1, 50)),
           depth=st.sampled_from([0, 2, 3]), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(finite_floats, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_column_formula(self, n, k, depth, seed, extra):
        rng = np.random.default_rng(seed)
        if depth:
            # a[:, :, p] of a 3-d array: a strided (N, K) view
            columns = rng.choice(self.POOL, (n, k, depth))[:, :, rng.integers(depth)]
        else:
            columns = rng.choice(self.POOL, (n, k))
        thresholds = np.sort(np.concatenate([rng.choice(self.POOL, 5), extra]))
        got = empirical_cdfs(columns, thresholds)
        want = np.array([np.searchsorted(np.sort(col), thresholds, side="right") / n
                         for col in columns.T])
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


class TestAumannExpectation:
    def test_examples(self):
        assert aumann_expectation(
            RandomIntervalSample.from_intervals([Interval(2, 2), Interval(4, 4)])
        ) == Interval(3, 3)
        assert aumann_expectation(
            RandomIntervalSample.from_intervals([Interval(0, 1), Interval(2, 3)])
        ) == Interval(1, 2)
        assert aumann_expectation(
            RandomIntervalSample.from_intervals([Interval(0, 4)])
        ) == Interval(0, 4)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_degenerate_sample_gives_plain_mean(self, xs):
        arr = np.asarray(xs)
        iv = aumann_expectation(RandomIntervalSample(arr, arr.copy()))
        assert iv.lo == iv.hi == pytest.approx(float(arr.mean()), rel=1e-12, abs=1e-12)


class TestIntervalHull:
    def test_examples(self):
        assert interval_hull([3.0]) == Interval(3, 3)
        assert interval_hull([1.0, -2.0, 5.0]) == Interval(-2, 5)

    def test_gaussian_grid_hull(self):
        mus = np.linspace(-1, 1, 11)
        sigmas = np.linspace(1, 2, 11)
        vals = (mus[:, None] + sigmas[None, :] * 1.0).ravel()
        assert interval_hull(vals) == Interval(0.0, 3.0)

    def test_empty_is_error(self):
        with pytest.raises(DomainError):
            interval_hull([])

    @given(st.lists(finite_floats, min_size=1, max_size=30),
           st.lists(finite_floats, min_size=0, max_size=30))
    @settings(max_examples=60)
    def test_hull_monotone_under_superset(self, base, extra):
        small = interval_hull(base)
        big = interval_hull(base + extra)
        assert big.contains_interval(small)
