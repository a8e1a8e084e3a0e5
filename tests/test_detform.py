import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmimo.detform as detform
from dsmimo.corrmat import (Spectrum, constant_corr, exponential_corr, identity_corr,
                            tridiagonal_corr)
from dsmimo.detform import NumericFailure, expected_inv_det_kron, expected_inv_det_miso

from dsmimo.sep import PskConstellation, theta_rule

from conftest import cgauss, fresh_caches, random_correlation
from oracles import (kron_2f0, oracle_2f0, oracle_2f0_hyperu, oracle_kron_mgf,
                     oracle_miso_mgf)


def spec_of(vals, mults=None):
    if mults is None:
        mults = [1] * len(vals)
    return Spectrum(tuple(float(v) for v in vals), tuple(mults), sum(mults))


def ident(dim):
    """The spectrum of I_dim."""
    return spec_of([1.0], [dim])


def scaled(spec, s):
    """The spectrum of s times the matrix of spec."""
    return Spectrum(tuple(s * v for v in spec.values), spec.mults, spec.dim)


def exp_moments(x, dps=50):
    """(I_0, I_1, I_2), I_k = int l^k e^-l / (1 + x l) dl, at dps digits:
    I_0 = e^(1/x) E1(1/x) / x and I_(k+1) = (k! - I_k) / x."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        i0 = mp.e ** (1 / xm) * mp.e1(1 / xm) / xm
        i1 = (1 - i0) / xm
        return i0, i1, (1 - i1) / xm


class TestHyp2f0:
    def test_unity_at_zero(self):
        for n, q in [(1, 1), (3, 7), (20, 2)]:
            assert kron_2f0(n, q, 0.0) == 1.0

    def test_exponential_integral_value(self):
        # e * E1(1) for n = q = x = 1
        assert kron_2f0(1, 1, 1.0) == pytest.approx(0.5963473623231941, abs=1e-12)

    def test_complement_identity(self):
        # int t e^-t/(1+t) dt = 1 - int e^-t/(1+t) dt
        assert kron_2f0(2, 1, 1.0) == pytest.approx(1.0 - 0.5963473623231941, abs=1e-12)
        assert kron_2f0(2, 1, 1.0) == pytest.approx(oracle_2f0(2, 1, 1.0), rel=1e-11)

    def test_parameter_symmetry(self):
        for x in (0.3, 4.0, 250.0):
            assert kron_2f0(3, 7, x) == pytest.approx(kron_2f0(7, 3, x), rel=1e-10)

    def test_oracle_grid_moderate(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 21))
            q = int(rng.integers(1, 21))
            x = float(10.0 ** rng.uniform(-2, 3))
            assert kron_2f0(n, q, x) == pytest.approx(oracle_2f0(n, q, x), rel=1e-9)

    def test_extreme_argument(self):
        assert kron_2f0(4, 2, 1e8) == pytest.approx(oracle_2f0(4, 2, 1e8), rel=1e-9)
        assert kron_2f0(20, 20, 1e3) == pytest.approx(oracle_2f0(20, 20, 1e3), rel=1e-9)

    def test_vector_matches_scalar(self):
        xs = np.array([0.0, 0.5, 3.0, 1e4])
        v = kron_2f0(5, 2, xs)
        for xi, vi in zip(xs, v):
            assert vi == pytest.approx(kron_2f0(5, 2, float(xi)), rel=1e-12)

    def test_monotone_decreasing_and_bounded(self):
        xs = np.logspace(-3, 5, 60)
        v = kron_2f0(4, 3, xs)
        assert np.all(np.diff(v) < 0)
        assert np.all(v > 0) and np.all(v <= 1.0)

    @pytest.mark.parametrize("n,q", [(1, 2), (2, 5), (7, 3), (4, 1)])
    def test_loglog_slope_is_min_parameter(self, n, q):
        xs = np.logspace(3, 5, 9)
        v = kron_2f0(n, q, xs)
        slope = np.polyfit(np.log10(xs), np.log10(v), 1)[0]
        assert slope == pytest.approx(-min(n, q), rel=0.02)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kron_2f0(1, 1, -0.5)

    @pytest.mark.parametrize("n,q", [(1, 1), (7, 2), (13, 1), (40, 16)])
    def test_range_at_tiny_argument(self, n, q):
        v = kron_2f0(n, q, np.array([1e-300, 1e-17, 1e-16]))
        assert np.all(v > 0.0) and np.all(v <= 1.0)

    @given(st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_range_and_symmetry_property(self, n, q, x):
        v = kron_2f0(n, q, x)
        assert 0.0 < v <= 1.0
        assert v == pytest.approx(kron_2f0(q, n, x), rel=1e-9)


#: grid over the kernel's verified domain: n in [1, 72], q in [1, 16],
#: x in {0} and [1e-3, 1e11]
WIDE_N = (1, 2, 3, 4, 6, 9, 13, 18, 27, 40, 55, 72)
WIDE_Q = (1, 2, 3, 5, 8, 12, 16)
WIDE_X = (0.0, 1e-3, 0.04, 0.7, 12.0, 350.0, 1.1e4, 3.1e6, 1.2e9, 1e11)


class TestHyp2f0WideDomain:
    @pytest.mark.parametrize("n", WIDE_N)
    def test_matches_hyperu_oracle(self, n):
        for q in WIDE_Q:
            for x in WIDE_X:
                assert kron_2f0(n, q, x) == pytest.approx(
                    oracle_2f0_hyperu(n, q, x), rel=1e-12, abs=0.0), (n, q, x)

    def test_large_argument_beyond_quad_oracle(self):
        # the mp.quad oracle returns 2.83e-97 here; U gives the true value
        ref = oracle_2f0_hyperu(13, 16, 3.1e6)
        assert ref == pytest.approx(6.36e-97, rel=1e-3)
        assert kron_2f0(13, 16, 3.1e6) == pytest.approx(ref, rel=1e-12)
        assert kron_2f0(18, 17, 1.2e9) == pytest.approx(
            oracle_2f0_hyperu(18, 17, 1.2e9), rel=1e-12)

    @pytest.mark.parametrize("n", WIDE_N)
    def test_vector_matches_scalar_calls(self, n):
        xs = np.array(WIDE_X)
        for q in WIDE_Q:
            v = kron_2f0(n, q, xs)
            ref = np.array([kron_2f0(n, q, float(x)) for x in xs])
            np.testing.assert_allclose(v, ref, rtol=1e-14, atol=0.0)


class TestExpectedInvDetKron:
    def test_unity_at_zero(self):
        v = expected_inv_det_kron(3, 5, constant_corr(3, 0.5).spectrum,
                                  constant_corr(2, 0.6).spectrum, 0.0)
        assert v == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m,n,sigma,far,limit", [
        (4, 10, identity_corr(4), identity_corr(4), 6.5091929384e-13),
        (4, 10, constant_corr(4, 0.5), constant_corr(4, 0.5), 7.1569333232e-09),
        (3, 9, exponential_corr(3, 0.5), constant_corr(2, 0.3), 5.9439096227e-05),
        (4, 12, tridiagonal_corr(4, 0.4), exponential_corr(3, 0.6), 1.8121728450e-09)])
    def test_high_snr_asymptote(self, m, n, sigma, far, limit):
        # for m <= n and n - m + 1 > nu, xi^(m nu) MGF tends to
        # G = det(A)^-m det(Sigma)^-nu prod_i Gamma(n-i+1-nu)/Gamma(n-i+1),
        # i = 1..m, with a relative gap that falls like -C/xi
        nu = far.dim
        log_det = lambda spec: sum(mu * math.log(v) for v, mu in spec.distinct)
        g = math.exp(-m * log_det(far.spectrum) - nu * log_det(sigma.spectrum)
                     + sum(math.lgamma(n - i + 1 - nu) - math.lgamma(n - i + 1)
                           for i in range(1, m + 1)))
        assert g == pytest.approx(limit, rel=1e-10)
        xi = np.array([1e8, 1e10])
        gap = expected_inv_det_kron(m, n, sigma.spectrum, far.spectrum, xi) * xi ** (m * nu) / g - 1
        assert abs(gap[0]) <= 1e-6
        assert gap[1] / gap[0] == pytest.approx(0.01, rel=0.1)

    def test_identity_matches_oracle(self):
        for m, n, nu, xi in [(2, 4, 2, 0.3), (3, 5, 2, 0.4), (1, 3, 4, 2.0)]:
            ref = oracle_kron_mgf(m, n, spec_of([1.0], [m]), spec_of([1.0], [nu]), xi)
            a = expected_inv_det_kron(m, n, spec_of([1.0], [m]),
                                      spec_of([1.0], [nu]), xi)
            assert a == pytest.approx(ref, rel=1e-12, abs=0)

    # The oracle grid: m in {2, 4}, n - m in {0, 1, 6, 36, 196} and
    # xi in {1e-3, 1e-1, 10, 1e3, 1e5}.  Spectrum pairs with one distinct
    # receive eigenvalue have U-function oracle entries and run on the whole
    # grid (constant rho = 0.1 keeps 1/(xi sigma) clear of n..3n, where
    # mpmath's U takes seconds); pairs with several need mp.quad entries
    # (seconds each), so they run where cancellation threatens most: few
    # degrees of freedom, large xi.
    @pytest.mark.parametrize("xi", [1e-3, 1e-1, 10.0, 1e3, 1e5])
    @pytest.mark.parametrize("d", [0, 1, 6, 36, 196])
    @pytest.mark.parametrize("m", [2, 4])
    def test_oracle_grid_one_receive_eigenvalue(self, m, d, xi):
        for tx, rx in [(identity_corr(m), identity_corr(m)),
                       (constant_corr(m, 0.1), identity_corr(2))]:
            ref = oracle_kron_mgf(m, m + d, tx.spectrum, rx.spectrum, xi)
            got = expected_inv_det_kron(m, m + d, tx.spectrum, rx.spectrum, xi)
            assert got == pytest.approx(ref, rel=1e-12 if d >= 36 else 1e-9, abs=0)

    @pytest.mark.parametrize("tx, rx, d, xi", [
        (exponential_corr(4, 0.5), exponential_corr(4, 0.5), 0, 1e5),
        (constant_corr(4, 0.5), constant_corr(4, 0.5), 0, 1e5),
        (constant_corr(4, 0.5), constant_corr(4, 0.5), 36, 1e5),
        (identity_corr(4), constant_corr(2, 0.5), 6, 10.0),
    ])
    def test_oracle_grid_several_receive_eigenvalues(self, tx, rx, d, xi):
        ref = oracle_kron_mgf(4, 4 + d, tx.spectrum, rx.spectrum, xi)
        got = expected_inv_det_kron(4, 4 + d, tx.spectrum, rx.spectrum, xi)
        assert got == pytest.approx(ref, rel=1e-12 if d >= 36 else 1e-9, abs=0)

    # nearly equal Sigma eigenvalues: the transmit spectrum of the 4x4x43
    # random-spectra example below (1.012 .. 0.993), and exponential rho to
    # 1e-4; at large xi the columns of two such eigenvalues agree to about
    # xi^-1 times their gap, which the plain determinant lost (up to 8e4
    # relative at 4 x 4, nu = 43, xi = 1e3)
    @pytest.mark.parametrize("sigma, n, nu, xi", [
        (spec_of([1.0124365691656647, 0.9995079208599666, 0.9952857118340332,
                  0.9927697981403352]), 4, 43, xi) for xi in (1.0, 10.0, 1e3)] + [
        (exponential_corr(4, rho).spectrum, 10, nu, xi)
        for rho in (1e-4, 1e-3, 1e-2) for nu, xi in ((10, 0.1), (2, 1e3))])
    def test_nearly_equal_eigenvalues_match_oracle(self, sigma, n, nu, xi):
        ident = spec_of([1.0], [nu])
        got = expected_inv_det_kron(4, n, sigma, ident, xi)
        assert got == pytest.approx(oracle_kron_mgf(4, n, sigma, ident, xi), rel=1e-12, abs=0)

    def test_identity_many_scatterers_matches_oracle(self):
        # 4 x 1000; mpmath's U is slow where 1/xi is close to n, so xi skips 1e-3
        xs = np.array([1e-4, 1e-2, 1.0, 1e2, 1e5])
        ident = identity_corr(4).spectrum
        got = expected_inv_det_kron(4, 1000, ident, ident, xs)
        for x, g in zip(xs, got):
            assert g == pytest.approx(oracle_kron_mgf(4, 1000, ident, ident, x), rel=1e-12, abs=0)

    def test_scalar_case(self):
        # E[1/(1+|g|^2)] = e*E1(1)
        v = expected_inv_det_kron(1, 1, spec_of([1.0]), spec_of([1.0]), 1.0)
        assert v == pytest.approx(0.5963473623231941, abs=1e-10)

    def test_gamma_two_one_closed_form(self):
        # m = 1, n = 2: l ~ Gamma(2, 1), so the MGF is I_1
        for x in (0.2, 1.0, 3.7, 1e3):
            v = expected_inv_det_kron(1, 2, ident(1), ident(1), x)
            assert v == pytest.approx(float(exp_moments(x)[1]), rel=1e-12)

    @pytest.mark.parametrize("x", [0.2, 3.7, 1e3])
    def test_iid_two_by_two_closed_form(self, x):
        # ordered eigenvalue density e^(-l1-l2) (l1-l2)^2 of a 2 x 2 Wishart
        # matrix with 2 degrees: the MGF is I_0 I_2 - I_1^2
        i0, i1, i2 = exp_moments(x)
        v = expected_inv_det_kron(2, 2, ident(2), ident(1), x)
        assert v == pytest.approx(float(i0 * i2 - i1 * i1), rel=1e-12)

    def test_confluent_limit_of_distinct(self):
        # the MGF is even in the split eps of {s + eps, s - eps}, so
        # (4 f(eps/2) - f(eps)) / 3 is its limit to O(eps^4)
        far = spec_of([1.5, 0.5], [1, 2])

        def split(eps, x):
            return expected_inv_det_kron(3, 5, spec_of([2.0, 0.5 + eps, 0.5 - eps]), far, x)

        for x in (0.1, 10.0, 1e4):
            limit = (4 * split(5e-4, x) - split(1e-3, x)) / 3
            got = expected_inv_det_kron(3, 5, spec_of([2.0, 0.5], [1, 2]), far, x)
            assert got == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("side", ["sigma", "far"])
    def test_scale_moves_into_xi(self, side):
        # det(I + xi (sA) (x) XX^H) at xi is det(I + (s xi) A (x) XX^H), and
        # scaling Sigma scales XX^H alike
        sides = {"sigma": exponential_corr(3, 0.4).spectrum,
                 "far": constant_corr(2, 0.5).spectrum}
        xs = np.array([0.1, 10.0, 1e3])
        for s in (0.25, 3.0):
            args = dict(sides, **{side: scaled(sides[side], s)})
            np.testing.assert_allclose(
                expected_inv_det_kron(3, 5, args["sigma"], args["far"], xs),
                expected_inv_det_kron(3, 5, sides["sigma"], sides["far"], s * xs),
                rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("m,n,sigma,x", [
        (3, 5, ident(2), 1.0),   # Sigma of the wrong dimension
        (3, 2, ident(3), 1.0),   # fewer degrees than rows
        (2, 4, ident(2), -0.5),  # negative argument
        (2, 4, ident(2), math.nan),  # NaN argument, once an MGF of 1
        (2, 4, spec_of([2.0, 1.0]), [1.0, math.nan]),
    ])
    def test_input_validation(self, m, n, sigma, x):
        with pytest.raises(ValueError):
            expected_inv_det_kron(m, n, sigma, ident(2), x)

    def test_monte_carlo_correlated(self, rng):
        phi_t = constant_corr(3, 0.5)
        phi_r = constant_corr(2, 0.6)
        xi = 0.4
        v = expected_inv_det_kron(3, 5, phi_t.spectrum, phi_r.spectrum, xi)
        n = 300_000
        x2 = cgauss(rng, n, 5, 3)
        from dsmimo.corrmat import matrix_sqrt

        xi2 = x2 @ matrix_sqrt(phi_t)
        u = xi2.conj().transpose(0, 2, 1) @ xi2
        lam = np.linalg.eigvalsh(u)
        dets = np.ones(n)
        for mu in phi_r.spectrum.expand():
            dets *= np.prod(1.0 / (1 + xi * mu * lam), axis=1)
        se = dets.std() / math.sqrt(n)
        assert abs(dets.mean() - v) < 3 * se

    def test_excess_over_one_raises(self):
        # a tight cluster above the smallest Sigma eigenvalue still costs
        # digits: at xi = 1e-9 the value is 1 + 1.4e-4, which must raise
        # rather than be clipped to 1
        sigma = spec_of([1.0 + 1e-6, 1.0, 1.0 - 1e-6, 0.5])
        far = spec_of([2.0, 1.0, 0.3], [1, 2, 1])
        with pytest.raises(NumericFailure, match="exceeds 1"):
            expected_inv_det_kron(4, 6, sigma, far, np.array([1e-3, 1e-9]))

    @staticmethod
    def kron_or_raise(sigma):
        """The Kronecker row at m = 6, n = 9, A = (1) over xi = 1e-2 .. 1e4
        against the MISO row (n_r = 1, Psi = I_9), exact for any eigenvalue
        pattern: True when it matches to 1e-10, False when it raises
        NumericFailure."""
        xi = np.logspace(-2, 4, 25)
        miso = expected_inv_det_miso(sigma, spec_of([1.0], [9]), xi)
        try:
            kron = expected_inv_det_kron(6, 9, sigma, spec_of([1.0]), xi)
        except NumericFailure as e:
            assert "digits" in str(e)
            return False
        assert np.all(np.abs(kron - miso) <= 1e-10 * miso)
        return True

    def test_cluster_above_the_smallest_eigenvalue(self):
        # a cluster of Sigma eigenvalues that does not hold the smallest one
        # makes near-copies of columns, whose determinant cancels while the
        # value stays in range: 1.0e-2 off here before the lost-digit guard
        sigma = spec_of([1.4, 0.95 + 2e-6, 0.95 + 1e-6, 0.95, 0.9, 0.6])
        assert not self.kron_or_raise(sigma)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_clustered_spectra_match_or_raise(self, k):
        # ROADMAP item 1's table: Sigma = (1.4, k values 0.95 + j delta, the
        # rest down to 0.6).  Unguarded, the row was off by more than 1e-9 at
        # delta <= 1e-5 (k = 2) and delta <= 1e-3 (k >= 3), which must raise,
        # and by 3e-12 at k = 2, delta = 1e-2, which must return
        rest = np.linspace(0.9, 0.6, 5 - k) if k < 4 else [0.6] * (5 - k)
        for delta in 10.0 ** -np.arange(2, 8):
            sigma = spec_of([1.4, *(0.95 + j * delta for j in range(k - 1, -1, -1)), *rest])
            kept = self.kron_or_raise(sigma)
            if delta <= (1e-5 if k == 2 else 1e-3):
                assert not kept, delta
            elif k == 2 and delta == 1e-2:
                assert kept

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 39),
           st.floats(0.05, 3.0), st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_miso_row_on_random_transmit_sides(self, seed, n_t, extra, strength,
                                                           n_r):
        # n_t x n_s x 1 with Phi_s = I and a random Phi_t: both rows cover
        # it, the MISO row on (I_ns, Phi_t) and the Kronecker row on hop
        # (t, s) with far side I_1, so they agree or the Kronecker row raises.
        # 1 x n_s x n_r with a random Phi_r is the same overlap with the
        # random side far: Sigma = I_1 has one eigenvalue, so nothing raises
        rng = np.random.default_rng(seed)
        sigma = random_correlation(rng, n_t, strength).spectrum
        far = random_correlation(rng, n_r, strength).spectrum
        xi = np.array([1e-2, 1.0, 1e2, 1e4])
        miso = expected_inv_det_miso(ident(extra + 1), far, xi)
        kron = expected_inv_det_kron(1, extra + 1, ident(1), far, xi)
        assert np.all(np.abs(kron - miso) <= 1e-10 * miso)
        n_s = n_t + extra
        miso = expected_inv_det_miso(ident(n_s), sigma, xi)
        try:
            kron = expected_inv_det_kron(n_t, n_s, sigma, ident(1), xi)
        except NumericFailure:
            return
        assert np.all(np.abs(kron - miso) <= 1e-10 * miso)


class TestExpectedInvDetUncorr:
    def test_unity_at_zero(self):
        assert expected_inv_det_kron(2, 3, ident(2), ident(2), 0.0) == 1.0

    def test_scalar_case(self):
        assert expected_inv_det_kron(1, 1, ident(1), ident(1), 1.0) == pytest.approx(
            0.5963473623231941, abs=1e-10)

    def test_monte_carlo(self, rng):
        m, n, nu, xi = 2, 2, 1, 0.5
        v = expected_inv_det_kron(m, n, ident(m), ident(nu), xi)
        trials = 1_000_000
        x = cgauss(rng, trials, m, n)
        ev = np.linalg.eigvalsh(x @ x.conj().transpose(0, 2, 1))
        dets = np.prod((1 + xi * ev) ** (-float(nu)), axis=1)
        se = dets.std() / math.sqrt(trials)
        assert abs(dets.mean() - v) < 3 * se

    def test_matches_oracle(self):
        for m, n, nu, xi in [(2, 4, 2, 0.3), (4, 4, 2, 1.7), (3, 9, 3, 0.8),
                             (1, 2, 1, 5.0), (4, 4, 2, 300.0), (4, 4, 2, 1e3)]:
            ref = oracle_kron_mgf(m, n, ident(m), ident(nu), xi)
            assert expected_inv_det_kron(m, n, ident(m), ident(nu), xi) == pytest.approx(
                ref, rel=1e-9, abs=0)

    @pytest.mark.parametrize("m,n,nu", [(1, 7, 2), (2, 13, 1)])
    def test_at_most_one_at_tiny_xi(self, m, n, nu):
        assert 0.0 < expected_inv_det_kron(m, n, ident(m), ident(nu), 1e-17) <= 1.0

    def test_monotone_decreasing_in_xi(self):
        xs = np.logspace(-2, 2, 25)
        vals = [expected_inv_det_kron(2, 4, ident(2), ident(2), x) for x in xs]
        assert all(1 >= a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_large_n_matches_lln_limit(self):
        # XX^H concentrates at n I_m: E det(I + xi XX^H)^-nu -> (1+xi n)^(-m nu)
        m, nu, n = 4, 2, 10_000
        xi = 2.0 / n
        v = expected_inv_det_kron(m, n, ident(m), ident(nu), xi)
        assert v == pytest.approx((1 + xi * n) ** (-m * nu), rel=2e-3)


class TestExpectedInvDetMiso:
    def test_unity_at_zero(self):
        v = expected_inv_det_miso(constant_corr(3, 0.4).spectrum,
                                  constant_corr(2, 0.2).spectrum, 0.0)
        assert v == 1.0

    def test_scalar_case(self):
        assert expected_inv_det_miso(spec_of([1.0]), spec_of([1.0]), 1.0) == pytest.approx(
            0.5963473623231941, abs=1e-10)

    def test_siso_exponential_closed_form(self):
        for x in (0.2, 3.7, 1e3):
            assert expected_inv_det_miso(ident(1), ident(1), x) == pytest.approx(
                float(exp_moments(x)[0]), rel=1e-12)

    @pytest.mark.parametrize("x", [0.2, 3.7, 1e3])
    def test_hypoexponential_closed_form(self, x):
        # V = 2 E_1 + E_2 has density e^(-v/2) - e^(-v), so the MGF is
        # 2 I_0(2x) - I_0(x)
        ref = 2 * exp_moments(2 * x)[0] - exp_moments(x)[0]
        assert expected_inv_det_miso(spec_of([2.0, 1.0]), ident(1), x) == pytest.approx(
            float(ref), rel=1e-12)

    @pytest.mark.parametrize("d,q,x", [(3, 1, 0.7), (2, 7, 3.0), (10, 10, 0.05),
                                       (172, 2, 1 / 172), (180, 2, 2 / 180)])
    def test_identity_sides_are_2f0(self, d, q, x):
        # V ~ Gamma(d) and q equal factors: E (1 + x V)^-q = 2F0(d, q; -x);
        # at d = 172 the factorials of the Erlang density pass 1e308
        v = expected_inv_det_miso(ident(d), ident(q), x)
        assert v == pytest.approx(oracle_2f0_hyperu(d, q, x), rel=1e-12)
        assert v == pytest.approx(kron_2f0(d, q, x), rel=1e-12)

    def test_confluent_limit_of_distinct(self):
        # as for the Kronecker row: even in eps, Richardson to O(eps^4)
        large = spec_of([1.5, 0.5], [2, 3])

        def split(eps, x):
            return expected_inv_det_miso(spec_of([2.5, 1.0 + eps, 1.0 - eps, 0.4]), large, x)

        for x in (0.1, 10.0, 1e4):
            limit = (4 * split(5e-4, x) - split(1e-3, x)) / 3
            got = expected_inv_det_miso(spec_of([2.5, 1.0, 0.4], [1, 2, 1]), large, x)
            assert got == pytest.approx(limit, rel=1e-10)

    def test_scale_moves_into_xi(self):
        small, large = exponential_corr(3, 0.4).spectrum, constant_corr(5, 0.5).spectrum
        xs = np.array([0.1, 10.0, 1e3])
        np.testing.assert_allclose(expected_inv_det_miso(scaled(small, 4.0), large, xs),
                                   expected_inv_det_miso(small, large, 4.0 * xs),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_negative_or_nan_argument_raises(self, bad):
        # a NaN entry once read as an MGF of 1
        with pytest.raises(ValueError, match="nonnegative"):
            expected_inv_det_miso(spec_of([2.0, 1.0]), ident(3), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="nonnegative"):
            expected_inv_det_miso(ident(2), ident(3), bad)

    def test_identity_equals_uncorrelated(self):
        v = expected_inv_det_miso(spec_of([1.0], [2]), spec_of([1.0], [2]), 0.5)
        assert v == pytest.approx(expected_inv_det_kron(2, 2, ident(2), ident(1), 0.5),
                                  rel=1e-10)

    def test_spectra_symmetry(self):
        s1 = constant_corr(4, 0.3).spectrum
        s2 = constant_corr(2, 0.7).spectrum
        assert expected_inv_det_miso(s1, s2, 0.9) == pytest.approx(
            expected_inv_det_miso(s2, s1, 0.9), rel=1e-11)

    def test_monotone_and_bounded(self):
        s1 = constant_corr(3, 0.4).spectrum
        s2 = constant_corr(2, 0.5).spectrum
        vals = [expected_inv_det_miso(s1, s2, x) for x in np.logspace(-2, 2, 20)]
        assert all(1 >= a > b > 0 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [500, 1000])
    def test_large_side_against_mpmath_quad(self, n):
        small = exponential_corr(2, 0.45).spectrum
        large = exponential_corr(n, 0.45).spectrum
        xs = np.array([1e-2, 1.0, 1e2, 1e5])
        got = expected_inv_det_miso(small, large, xs)
        for x, g in zip(xs, got):
            ref = oracle_miso_mgf(small.values, large.expand(), float(x))
            assert g == pytest.approx(ref, rel=1e-10)

    def test_fifty_dimensional_smaller_side(self):
        # two 50-dimensional sides: their characteristic coefficients reach
        # sum|X| ~ 1e17, so no partial-fraction density survives here
        spec = exponential_corr(50, 0.45).spectrum
        ref = oracle_miso_mgf(spec.expand(), spec.expand(), 1.0)
        assert expected_inv_det_miso(spec, spec, 1.0) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("rho", [0.001, 0.01, 0.05])
    @pytest.mark.parametrize("model", [exponential_corr, tridiagonal_corr])
    def test_nearly_equal_smaller_side(self, model, rho):
        # 4x10x1 with nearly equal but distinct eigenvalues on both sides;
        # at rho = 0.01 the smaller side's partial fractions cancel past
        # their gate
        small, large = model(4, rho).spectrum, model(10, rho).spectrum
        xs = np.array([1e-2, 1.0, 1e2, 1e5])
        got = expected_inv_det_miso(small, large, xs)
        for x, g in zip(xs, got):
            ref = oracle_miso_mgf(small.expand(), large.expand(), float(x))
            assert g == pytest.approx(ref, rel=1e-12)


class TestEtrLemmaConsistency:
    def test_keyhole_mgf_vs_determinant(self, rng):
        # E exp(-xi ||H||_F^2) for the keyhole channel against the
        # expected-inverse-determinant identity
        n_t, n_r, xi = 3, 2, 0.7
        n = 300_000
        h1 = cgauss(rng, n, n_r, 1)
        h2 = cgauss(rng, n, 1, n_t)
        h = h1 @ h2
        fro = np.einsum("bij,bij->b", h.real, h.real) + np.einsum(
            "bij,bij->b", h.imag, h.imag)
        emp = np.exp(-xi * fro)
        se = emp.std() / math.sqrt(n)
        v = expected_inv_det_kron(1, n_t, ident(1), ident(n_r), xi)
        assert abs(emp.mean() - v) < 3 * se


def _grid_spectrum(rng, dim):
    """Eigenvalues k/16 (integers k >= 1) summing to dim: distinct values
    stay at least 1/16 apart, so no tight cluster arises."""
    return 1 + rng.multinomial(15 * dim, np.full(dim, 1.0 / dim))


def _t_transform_pair(rng, dim):
    """(a, b) with a one T-transform of b: k/16, at most half the gap, moves
    from a larger eigenvalue of b to a smaller one, so a is majorized by b."""
    while True:
        b = _grid_spectrum(rng, dim)
        pairs = np.flatnonzero(b[:, None] - b[None, :] >= 2)
        if pairs.size:
            break
    i, j = divmod(rng.choice(pairs), dim)
    k = rng.integers(1, (b[i] - b[j]) // 2 + 1)
    a = b.copy()
    a[i] -= k
    a[j] += k
    return Spectrum.from_eigenvalues(a / 16.0), Spectrum.from_eigenvalues(b / 16.0)


class TestMajorization:
    """The paper's claim that performance worsens with correlation in the
    majorization order: on the Kronecker and MISO rows, and every side that
    enters them, a majorized by b gives MGF(a) <= MGF(b) at every xi, hence
    a SEP that does not fall from a to b for any M and SNR."""

    XI = np.logspace(-3, 3, 13)
    PAIRS = 60

    @pytest.mark.parametrize("side", ["kron_sigma", "kron_far", "miso_smaller",
                                      "miso_larger"])
    def test_mgf_schur_convex(self, side):
        rng = np.random.default_rng(20260808)
        dims = {"kron_sigma": (4, 4), "kron_far": (4, 4), "miso_smaller": (4, 10),
                "miso_larger": (10, 4)}[side]
        for _ in range(self.PAIRS):
            pair = _t_transform_pair(rng, dims[0])
            other = Spectrum.from_eigenvalues(_grid_spectrum(rng, dims[1]) / 16.0)
            if side == "kron_sigma":
                mgf_a, mgf_b = (expected_inv_det_kron(4, 10, s, other, self.XI) for s in pair)
            elif side == "kron_far":
                mgf_a, mgf_b = (expected_inv_det_kron(4, 10, other, s, self.XI) for s in pair)
            else:
                mgf_a, mgf_b = (expected_inv_det_miso(s, other, self.XI) for s in pair)
            assert np.all(mgf_a <= mgf_b * (1 + 1e-12)), (pair, other)


@pytest.fixture
def cold_caches():
    fresh_caches()


class TestLatticeCaches:
    """The per-side kernels (their lattices, the MISO density, the Kronecker
    tails) are reused across calls: values must not depend on which calls
    came before."""

    SIDES = {
        "miso exp": lambda xi: expected_inv_det_miso(exponential_corr(4, 0.5).spectrum,
                                                     exponential_corr(10, 0.5).spectrum, xi),
        "miso tri": lambda xi: expected_inv_det_miso(tridiagonal_corr(3, 0.45).spectrum,
                                                     tridiagonal_corr(7, 0.45).spectrum, xi),
        "kron readme": lambda xi: expected_inv_det_kron(4, 10, constant_corr(4, 0.5).spectrum,
                                                        constant_corr(4, 0.5).spectrum, xi),
        "kron exp": lambda xi: expected_inv_det_kron(3, 6, exponential_corr(3, 0.3).spectrum,
                                                     spec_of([2.0, 1.0], [1, 2]), xi),
        "kron one": lambda xi: expected_inv_det_kron(4, 10, identity_corr(4).spectrum,
                                                     identity_corr(4).spectrum, xi),
    }
    SNR_DB = np.arange(-10.0, 41.0, 5.0)

    @staticmethod
    def xi(snr_db):
        """The xi vector of one 8-PSK SEP point, as sep_mpsk makes it."""
        psk = PskConstellation(8)
        th, _ = theta_rule(psk.theta_max)
        return psk.g * 10.0 ** (snr_db / 10.0) / (40.0 * np.sin(th) ** 2)

    def cold(self):
        out = {}
        for name, mgf in self.SIDES.items():
            for snr in self.SNR_DB:
                fresh_caches()
                out[name, snr] = mgf(self.xi(snr))
        return out

    def test_snr_order_and_interleaving_leave_values_unchanged(self):
        ref = self.cold()
        fresh_caches()
        rng = np.random.default_rng(29)
        keys = list(ref)
        # interleaved: the SNR points alternately from the low and the high
        # end, every side at each
        ends = [snr for pair in zip(self.SNR_DB, self.SNR_DB[::-1]) for snr in pair]
        orders = {"ascending": sorted(keys, key=lambda k: (k[1], k[0])),
                  "descending": sorted(keys, key=lambda k: (-k[1], k[0])),
                  "shuffled": [keys[i] for i in rng.permutation(len(keys))],
                  "interleaved": [(name, snr) for snr in ends[:len(self.SNR_DB)]
                                  for name in self.SIDES]}
        for order, seq in orders.items():
            for name, snr in seq:
                got = self.SIDES[name](self.xi(snr))
                assert np.array_equal(got, ref[name, snr]), (order, name, snr)
        # each side's kernel is made once, in every order
        assert detform._miso_kernel.cache_info()[1:] == (2, 16, 2)
        assert detform._kron_kernel.cache_info()[1:] == (3, 16, 3)

    def test_concurrent_calls_match_cold_values(self):
        ref = self.cold()
        fresh_caches()
        keys = list(ref)

        def run(seed):
            order = np.random.default_rng(seed).permutation(len(keys))
            return all(np.array_equal(self.SIDES[keys[i][0]](self.xi(keys[i][1])), ref[keys[i]])
                       for i in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = [f.result(timeout=120) for f in
                           [pool.submit(run, seed) for seed in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(results)

    def test_capacity_is_bounded(self, cold_caches):
        rng = np.random.default_rng(7)
        far = constant_corr(3, 0.4).spectrum
        for _ in range(200):
            side = random_correlation(rng, 3).spectrum
            expected_inv_det_miso(side, exponential_corr(5, 0.3).spectrum, 1.0)
            expected_inv_det_kron(3, 5, side, far, 1.0)
        for kernel in (detform._miso_kernel, detform._kron_kernel):
            assert kernel.cache_info().currsize == detform._CACHE_SIDES

    def test_last_bit_makes_a_separate_entry(self, cold_caches):
        far = spec_of([1.5, 0.5])
        a = spec_of([1.0, 0.5])
        b = spec_of([1.0, float(np.nextafter(0.5, 1.0))])
        for side in (a, b, a):
            expected_inv_det_miso(side, far, 0.7)
            expected_inv_det_kron(2, 4, side, far, 0.7)
        for kernel in (detform._miso_kernel, detform._kron_kernel):
            assert kernel.cache_info().currsize == 2
            assert kernel.cache_info().misses == 2

    def test_other_side_sweep_builds_one_kernel(self, cold_caches):
        # the far side of the Kronecker row and the larger MISO side are
        # per-call arguments: a sweep over them reuses the one kernel
        sigma = exponential_corr(3, 0.5).spectrum
        for n_s in range(4, 4 + 2 * detform._CACHE_SIDES):
            other = exponential_corr(n_s, 0.3).spectrum
            expected_inv_det_miso(other, sigma, 0.7)
            expected_inv_det_kron(3, 5, sigma, other, 0.7)
        for kernel in (detform._miso_kernel, detform._kron_kernel):
            assert kernel.cache_info().misses == 1

    @pytest.mark.parametrize("nw,deg", [(1, 0), (4, 0), (7, 6), (50, 0), (191, 6)])
    def test_lattice_prefix_equals_a_fresh_build(self, nw, deg):
        # every lattice of one side is sliced from the longest prefix kept;
        # each must equal the rule built anew, in any order of floors, the
        # per-node values those of the nodes returned, and the nodes must
        # be read-only
        def fresh(log_floor):
            lg, top = math.lgamma(nw), nw + deg
            h = min(0.2, 0.5 / math.sqrt(top))
            s_hi = math.log(top + 12.0 * math.sqrt(top) + 40.0)
            s_lo = (lg + math.log(1e-18) + log_floor) / nw
            s = s_hi - h * np.arange(math.ceil((s_hi - s_lo) / h) + 1)
            t = np.exp(s)
            return t, nw * s - t - lg + math.log(h)

        floors = -np.geomspace(1e-3, 700.0, 23)
        ref = {f: fresh(f) for f in floors}
        rng = np.random.default_rng(nw)
        for order in (floors, floors[::-1], rng.permutation(floors)):
            lattice = detform._Lattice(nw, deg, lambda t: np.stack([t, np.sqrt(t)]))
            for f in order:
                t, logw, values = lattice.nodes(f)
                assert np.array_equal(t, ref[f][0]) and np.array_equal(logw, ref[f][1]), f
                assert np.array_equal(values, np.stack([t, np.sqrt(t)])), f
                assert values.flags.c_contiguous
                assert not (t.flags.writeable or logw.flags.writeable)
            assert detform._Lattice(nw, deg).nodes(floors[0])[2] is None

    def test_node_function_sees_each_node_once(self):
        seen = []

        def fn(t):
            seen.append(t)
            return -t

        lattice = detform._Lattice(4, 4, fn)
        for f in (-1.0, -300.0, -5.0, -700.0, -700.0, -0.1):
            lattice.nodes(f)
        t, _, values = lattice.nodes(-700.0)
        assert len(seen) == 3
        assert np.array_equal(np.concatenate(seen), t) and np.array_equal(values, -t)

    def test_floor_that_overflowed_raises(self):
        with pytest.raises(NumericFailure, match="not finite"):
            detform._Lattice(4, 0).nodes(-math.inf)
