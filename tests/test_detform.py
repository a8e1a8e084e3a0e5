import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmimo.detform as detform
from dsmimo.corrmat import (Spectrum, constant_corr, exponential_corr, identity_corr,
                            tridiagonal_corr)
from dsmimo.detform import (CharCoefficients, NumericFailure, _det_scaled,
                            _vandermonde_blocks, characteristic_coefficients,
                            expected_inv_det_kron, expected_inv_det_miso,
                            expected_inv_det_uncorr, hyp2f0, quadratic_form_eigen_pdf,
                            wishart_eigen_pdf)

from dsmimo.sep import PskConstellation, theta_rule

from conftest import cgauss, fresh_caches, random_correlation
from oracles import oracle_2f0, oracle_2f0_hyperu, oracle_kron_mgf, oracle_miso_mgf


def spec_of(vals, mults=None):
    if mults is None:
        mults = [1] * len(vals)
    return Spectrum(tuple(float(v) for v in vals), tuple(mults), sum(mults))


class TestHyp2f0:
    def test_unity_at_zero(self):
        for n, q in [(1, 1), (3, 7), (20, 2)]:
            assert hyp2f0(n, q, 0.0) == 1.0

    def test_exponential_integral_value(self):
        # e * E1(1) for n = q = x = 1
        assert hyp2f0(1, 1, 1.0) == pytest.approx(0.5963473623231941, abs=1e-12)

    def test_complement_identity(self):
        # int t e^-t/(1+t) dt = 1 - int e^-t/(1+t) dt
        assert hyp2f0(2, 1, 1.0) == pytest.approx(1.0 - 0.5963473623231941, abs=1e-12)
        assert hyp2f0(2, 1, 1.0) == pytest.approx(oracle_2f0(2, 1, 1.0), rel=1e-11)

    def test_parameter_symmetry(self):
        for x in (0.3, 4.0, 250.0):
            assert hyp2f0(3, 7, x) == pytest.approx(hyp2f0(7, 3, x), rel=1e-10)

    def test_oracle_grid_moderate(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 21))
            q = int(rng.integers(1, 21))
            x = float(10.0 ** rng.uniform(-2, 3))
            assert hyp2f0(n, q, x) == pytest.approx(oracle_2f0(n, q, x), rel=1e-9)

    def test_extreme_argument(self):
        assert hyp2f0(4, 2, 1e8) == pytest.approx(oracle_2f0(4, 2, 1e8), rel=1e-9)
        assert hyp2f0(20, 20, 1e3) == pytest.approx(oracle_2f0(20, 20, 1e3), rel=1e-9)

    def test_vector_matches_scalar(self):
        xs = np.array([0.0, 0.5, 3.0, 1e4])
        v = hyp2f0(5, 2, xs)
        for xi, vi in zip(xs, v):
            assert vi == pytest.approx(hyp2f0(5, 2, float(xi)), rel=1e-12)

    def test_monotone_decreasing_and_bounded(self):
        xs = np.logspace(-3, 5, 60)
        v = hyp2f0(4, 3, xs)
        assert np.all(np.diff(v) < 0)
        assert np.all(v > 0) and np.all(v <= 1.0)

    @pytest.mark.parametrize("n,q", [(1, 2), (2, 5), (7, 3), (4, 1)])
    def test_loglog_slope_is_min_parameter(self, n, q):
        xs = np.logspace(3, 5, 9)
        v = hyp2f0(n, q, xs)
        slope = np.polyfit(np.log10(xs), np.log10(v), 1)[0]
        assert slope == pytest.approx(-min(n, q), rel=0.02)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f0(1, 1, -0.5)
        with pytest.raises(ValueError):
            hyp2f0(0, 1, 1.0)

    @pytest.mark.parametrize("n,q", [(1, 1), (7, 2), (13, 1), (40, 16)])
    def test_range_at_tiny_argument(self, n, q):
        v = hyp2f0(n, q, np.array([1e-300, 1e-17, 1e-16]))
        assert np.all(v > 0.0) and np.all(v <= 1.0)

    @given(st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_range_and_symmetry_property(self, n, q, x):
        v = hyp2f0(n, q, x)
        assert 0.0 < v <= 1.0
        assert v == pytest.approx(hyp2f0(q, n, x), rel=1e-9)


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
                assert hyp2f0(n, q, x) == pytest.approx(
                    oracle_2f0_hyperu(n, q, x), rel=1e-12, abs=0.0), (n, q, x)

    def test_large_argument_beyond_quad_oracle(self):
        # the mp.quad oracle returns 2.83e-97 here; U gives the true value
        ref = oracle_2f0_hyperu(13, 16, 3.1e6)
        assert ref == pytest.approx(6.36e-97, rel=1e-3)
        assert hyp2f0(13, 16, 3.1e6) == pytest.approx(ref, rel=1e-12)
        assert hyp2f0(18, 17, 1.2e9) == pytest.approx(
            oracle_2f0_hyperu(18, 17, 1.2e9), rel=1e-12)

    @pytest.mark.parametrize("n", WIDE_N)
    def test_vector_matches_scalar_calls(self, n):
        xs = np.array(WIDE_X)
        for q in WIDE_Q:
            v = hyp2f0(n, q, xs)
            ref = np.array([hyp2f0(n, q, float(x)) for x in xs])
            np.testing.assert_allclose(v, ref, rtol=1e-14, atol=0.0)


class TestDetScaled:
    def test_single_matrix_cases(self, rng):
        logmag = rng.uniform(-5.0, 5.0, size=(4, 4))
        sign = rng.choice([-1.0, 1.0], size=(4, 4))
        s, ld = _det_scaled(logmag, sign)
        assert isinstance(s, float) and isinstance(ld, float)
        ref_s, ref_ld = np.linalg.slogdet(sign * np.exp(logmag))
        assert s == ref_s and ld == pytest.approx(ref_ld, rel=1e-12, abs=1e-12)
        # row and column offsets far past the double range only shift log|det|
        a, b = rng.uniform(-300.0, 300.0, size=(2, 4))
        s2, ld2 = _det_scaled(logmag + a[:, None] + b, sign)
        assert s2 == s and ld2 == pytest.approx(ld + a.sum() + b.sum(), rel=1e-12)

        zero_row = logmag.copy()
        zero_row[2] = -np.inf
        assert _det_scaled(zero_row, sign) == (0.0, -np.inf)
        zero_col = logmag.copy()
        zero_col[:, 0] = -np.inf
        assert _det_scaled(zero_col, sign) == (0.0, -np.inf)

        # two equal rows: singular, so |det| is round-off of the row scales
        big = rng.uniform(-40.0, 40.0, size=(4, 4))
        big[0], sign[0] = big[3], sign[3]
        s, ld = _det_scaled(big, sign)
        assert s == 0.0 or ld < big.max(axis=1).sum() - 25.0


def blocks(spec, nrows, power_offset):
    logmag, sign = _vandermonde_blocks(spec, nrows, power_offset)
    return sign * np.exp(logmag)


class TestVandermondeBlocks:
    SIGMAS = [3.0, 1.5, 0.4, 0.1]

    def test_simple_offset_form(self):
        sig = np.array(self.SIGMAS)
        i = np.arange(1, 7)[:, None]
        for offset in (0, 2, 9):
            assert np.allclose(blocks(spec_of(sig), 6, offset),
                               sig ** offset * (-1.0 / sig) ** (i - 1),
                               rtol=1e-14, atol=0.0)

    def test_repeated_column_is_central_difference(self):
        # sigma = 2 with multiplicity 2: column j = 2 is d/db of column j = 1
        sig, h, nrows = 2.0, 1e-5, 6
        spec = spec_of([sig, 0.7], [2, 1])
        i = np.arange(1, nrows + 1)
        b = -1.0 / sig
        offset = blocks(spec, nrows, 3)[:, 1]
        diff = sig ** 3 * ((b + h) ** (i - 1) - (b - h) ** (i - 1)) / (2 * h)
        assert offset[0] == 0.0
        assert np.allclose(offset[1:], diff[1:], rtol=1e-6, atol=0.0)

    def test_matches_entrywise_loop(self):
        # reference: entry by entry, (-1)^(i-j) (i-j+1)_(j-1) sigma^(offset-i+j);
        # zero for i < j
        eps = np.finfo(float).eps
        for vals, mults in [([3.0, 1.5, 0.4], [1, 1, 1]), ([2.5, 0.5], [1, 3]),
                            ([4.0, 1.5, 0.3], [2, 1, 2]), ([1.3], [4])]:
            spec = spec_of(vals, mults)
            for nrows in (0, 3, 6):
                for offset in (0, 7):
                    logmag, sign = _vandermonde_blocks(spec, nrows, offset)
                    assert logmag.shape == sign.shape == (nrows, spec.dim)
                    col = 0
                    for val, mult in spec.distinct:
                        for j in range(1, mult + 1):
                            for i in range(1, nrows + 1):
                                if i < j:
                                    assert sign[i - 1, col] == 0.0
                                    assert logmag[i - 1, col] == -np.inf
                                    continue
                                pw = offset - i + j
                                ref = (math.log(math.prod(range(i - j + 1, i)))
                                       + pw * math.log(val))
                                assert logmag[i - 1, col] == pytest.approx(
                                    ref, rel=4 * eps, abs=4 * eps)
                                assert sign[i - 1, col] == (-1.0) ** (i - j)
                            col += 1


class TestCharacteristicCoefficients:
    def test_identity_pattern(self):
        cc = characteristic_coefficients(spec_of([1.0], [4]))
        assert cc.coeffs == ((0.0, 0.0, 0.0, 1.0),)

    def test_constant_corr_closed_form(self):
        # two-eigenvalue closed forms for the constant model, n=4 rho=0.5
        n, rho = 4, 0.5
        cc = characteristic_coefficients(constant_corr(n, rho).spectrum)
        x11 = (n * rho / (1 - rho + n * rho)) ** (-n + 1)
        assert cc.coeffs[0][0] == pytest.approx(x11, abs=1e-10)
        assert x11 == pytest.approx(1.953125)
        for j in range(1, n):
            x2j = (-(1 - rho) / (1 - rho + n * rho)
                   * (n * rho / (1 - rho + n * rho)) ** (-n + j))
            assert cc.coeffs[1][j - 1] == pytest.approx(x2j, abs=1e-10)

    def test_sum_is_one(self, rng):
        # well-separated spectra (ratio >= 1.5 between neighbors); the
        # coefficient magnitudes blow up as eigenvalues coalesce and the
        # float sum can then only match 1 to eps * sum|X|
        for _ in range(10):
            k = int(rng.integers(1, 4))
            vals = np.cumprod(rng.uniform(1.5, 3.0, size=k))[::-1]
            mults = rng.integers(1, 4, size=k)
            cc = characteristic_coefficients(spec_of(vals, [int(m) for m in mults]))
            assert sum(c for row in cc.coeffs for c in row) == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_at_random_xi(self, rng):
        spec = spec_of([3.0, 1.5, 0.4], [2, 1, 3])
        cc = characteristic_coefficients(spec)
        for xi in rng.uniform(0.01, 10.0, size=20):
            direct = np.prod([(1 + xi * v) ** (-m) for v, m in spec.distinct])
            assert cc.reconstruct(float(xi)) == pytest.approx(direct, rel=1e-9)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            characteristic_coefficients(spec_of([1.0, 0.0]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            CharCoefficients(spec_of([2.0, 1.0]), ((0.5,), (0.2,)))


class TestWishartEigenPdf:
    def test_siso_exponential(self):
        for lam in (0.2, 1.0, 3.7):
            assert wishart_eigen_pdf([lam], 1, spec_of([1.0])) == pytest.approx(
                math.exp(-lam), rel=1e-12)

    def test_gamma_two_one(self):
        for lam in (0.2, 1.0, 3.7):
            assert wishart_eigen_pdf([lam], 2, spec_of([1.0])) == pytest.approx(
                lam * math.exp(-lam), rel=1e-12)

    def test_iid_reduction_m2_n2(self):
        # direct i.i.d. density: e^(-l1-l2) (l1-l2)^2
        sig = spec_of([1.0], [2])
        for l1, l2 in [(2.0, 0.5), (4.0, 3.0), (1.0, 0.9)]:
            direct = math.exp(-l1 - l2) * (l1 - l2) ** 2
            assert wishart_eigen_pdf([l1, l2], 2, sig) == pytest.approx(
                direct, rel=1e-10)

    def test_matches_khatri_all_distinct(self):
        # Khatri's density for distinct Sigma eigenvalues s:
        # prod l^(n-m) V(l) det(e^(-l_i/s_j)) / (prod (n-i)! prod s^n V(-1/s)),
        # V(x) = prod_(i<j) (x_j - x_i)
        for lams, n, sigs in [([2.0, 0.5], 2, [1.5, 0.7]),
                              ([3.0, 1.0, 0.2], 5, [2.0, 1.2, 0.3])]:
            l, s = np.array(lams), np.array(sigs)
            m = l.size
            vl = np.prod([l[j] - l[i] for i in range(m) for j in range(i + 1, m)])
            b = -1.0 / s
            vb = np.prod([b[j] - b[i] for i in range(m) for j in range(i + 1, m)])
            ref = (np.prod(l) ** (n - m) * vl * np.linalg.det(np.exp(-np.outer(l, 1.0 / s)))
                   / (math.prod(math.factorial(n - i) for i in range(1, m + 1))
                      * np.prod(s) ** n * vb))
            assert wishart_eigen_pdf(lams, n, spec_of(sigs)) == pytest.approx(ref, rel=1e-10)

    def test_confluent_limit_of_distinct(self):
        # the density is even in the split eps of {s + eps, s - eps}, so
        # (4 f(eps/2) - f(eps)) / 3 is its limit to O(eps^4)
        lams, n = [2.5, 1.0, 0.3], 4

        def split(eps):
            return wishart_eigen_pdf(lams, n, spec_of([2.0, 0.5 + eps, 0.5 - eps]))

        limit = (4 * split(5e-4) - split(1e-3)) / 3
        got = wishart_eigen_pdf(lams, n, spec_of([2.0, 0.5], [1, 2]))
        assert got == pytest.approx(limit, rel=1e-7)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wishart_eigen_pdf([1.0, 2.0], 3, spec_of([1.0], [2]))  # increasing
        with pytest.raises(ValueError):
            wishart_eigen_pdf([1.0, -2.0], 3, spec_of([1.0], [2]))
        with pytest.raises(ValueError):
            wishart_eigen_pdf([1.0], 0, spec_of([1.0]))


class TestQuadraticFormEigenPdf:
    def test_siso_exponential(self):
        assert quadratic_form_eigen_pdf([0.7], 1, spec_of([1.0])) == pytest.approx(
            math.exp(-0.7), rel=1e-12)

    def test_hypoexponential(self):
        # |g1|^2 + 2|g2|^2: density e^(-x/2) - e^(-x)
        for x in (0.3, 1.0, 4.0):
            assert quadratic_form_eigen_pdf([x], 2, spec_of([2.0, 1.0])) == pytest.approx(
                math.exp(-x / 2) - math.exp(-x), rel=1e-11)

    def test_erlang_repeated_eigenvalue(self):
        # |g1|^2 + |g2|^2 + |g3|^2: the Erlang density x^2 e^(-x) / 2
        for x in (0.3, 1.0, 4.0, 40.0):
            assert quadratic_form_eigen_pdf([x], 3, spec_of([1.0], [3])) == pytest.approx(
                x * x * math.exp(-x) / 2, rel=1e-11)

    @pytest.mark.parametrize("n", [172, 180])
    def test_multiplicity_past_factorial_overflow(self, n):
        # with beta = I_n the quadratic form is a Wishart matrix; the
        # Pochhammer factors (d+1)_k of a multiplicity n pass 1e308
        lams = [n + 0.8 * math.sqrt(n), n - 0.8 * math.sqrt(n)]
        ref = wishart_eigen_pdf(lams, n, spec_of([1.0], [2]))
        assert ref > 1e-4
        assert quadratic_form_eigen_pdf(lams, n, spec_of([1.0], [n])) == pytest.approx(
            ref, rel=1e-10)

    def test_confluent_limit_of_distinct(self):
        # as in the Wishart case: even in eps, Richardson to O(eps^4)
        lams, n = [3.0, 0.8], 4

        def split(eps):
            return quadratic_form_eigen_pdf(lams, n, spec_of([2.5, 1.0 + eps, 1.0 - eps, 0.4]))

        limit = (4 * split(5e-4) - split(1e-3)) / 3
        got = quadratic_form_eigen_pdf(lams, n, spec_of([2.5, 1.0, 0.4], [1, 2, 1]))
        assert got == pytest.approx(limit, rel=1e-7)


class TestExpectedInvDetKron:
    def test_unity_at_zero(self):
        v = expected_inv_det_kron(3, 5, constant_corr(3, 0.5).spectrum,
                                  constant_corr(2, 0.6).spectrum, 0.0)
        assert v == pytest.approx(1.0, rel=1e-12)

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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_cluster_above_the_smallest_eigenvalue(self):
        # the known defect: a cluster of Sigma eigenvalues that does not hold
        # the smallest one makes near-copies of columns, whose determinant
        # cancels, and the value stays in range.  With A = (1) and n = 9 the
        # MISO row (n_r = 1, Psi = I_9) is exact for any eigenvalue pattern;
        # the Kronecker row is 1.0e-2 off it here, and 1.5 off with a cluster
        # spacing of 1e-7
        sigma = spec_of([1.4, 0.95 + 2e-6, 0.95 + 1e-6, 0.95, 0.9, 0.6])
        xi = np.logspace(-2, 4, 25)
        kron = expected_inv_det_kron(6, 9, sigma, spec_of([1.0]), xi)
        miso = expected_inv_det_miso(sigma, spec_of([1.0], [9]), xi)
        assert np.all(np.abs(kron - miso) <= 1e-10 * miso)


class TestExpectedInvDetUncorr:
    def test_unity_at_zero(self):
        assert expected_inv_det_uncorr(2, 3, 2, 0.0) == 1.0

    def test_scalar_case(self):
        assert expected_inv_det_uncorr(1, 1, 1, 1.0) == pytest.approx(
            0.5963473623231941, abs=1e-10)

    def test_monte_carlo(self, rng):
        m, n, nu, xi = 2, 2, 1, 0.5
        v = expected_inv_det_uncorr(m, n, nu, xi)
        trials = 1_000_000
        x = cgauss(rng, trials, m, n)
        ev = np.linalg.eigvalsh(x @ x.conj().transpose(0, 2, 1))
        dets = np.prod((1 + xi * ev) ** (-float(nu)), axis=1)
        se = dets.std() / math.sqrt(trials)
        assert abs(dets.mean() - v) < 3 * se

    def test_matches_oracle(self):
        for m, n, nu, xi in [(2, 4, 2, 0.3), (4, 4, 2, 1.7), (3, 9, 3, 0.8),
                             (1, 2, 1, 5.0), (4, 4, 2, 300.0), (4, 4, 2, 1e3)]:
            ref = oracle_kron_mgf(m, n, spec_of([1.0], [m]), spec_of([1.0], [nu]), xi)
            assert expected_inv_det_uncorr(m, n, nu, xi) == pytest.approx(ref, rel=1e-9, abs=0)

    @pytest.mark.parametrize("m,n,nu", [(1, 7, 2), (2, 13, 1)])
    def test_at_most_one_at_tiny_xi(self, m, n, nu):
        assert 0.0 < expected_inv_det_uncorr(m, n, nu, 1e-17) <= 1.0

    def test_monotone_decreasing_in_xi(self):
        xs = np.logspace(-2, 2, 25)
        vals = [expected_inv_det_uncorr(2, 4, 2, x) for x in xs]
        assert all(1 >= a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_large_n_matches_lln_limit(self):
        # XX^H concentrates at n I_m: E det(I + xi XX^H)^-nu -> (1+xi n)^(-m nu)
        m, nu, n = 4, 2, 10_000
        xi = 2.0 / n
        v = expected_inv_det_uncorr(m, n, nu, xi)
        assert v == pytest.approx((1 + xi * n) ** (-m * nu), rel=2e-3)


class TestExpectedInvDetMiso:
    def test_unity_at_zero(self):
        v = expected_inv_det_miso(constant_corr(3, 0.4).spectrum,
                                  constant_corr(2, 0.2).spectrum, 0.0)
        assert v == 1.0

    def test_scalar_case(self):
        assert expected_inv_det_miso(spec_of([1.0]), spec_of([1.0]), 1.0) == pytest.approx(
            0.5963473623231941, abs=1e-10)

    def test_identity_equals_uncorrelated(self):
        v = expected_inv_det_miso(spec_of([1.0], [2]), spec_of([1.0], [2]), 0.5)
        assert v == pytest.approx(expected_inv_det_uncorr(2, 2, 1, 0.5), rel=1e-10)

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
        v = expected_inv_det_uncorr(1, n_t, n_r, xi)
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
def cold_caches(monkeypatch):
    fresh_caches(monkeypatch)


class TestLatticeCaches:
    """The per-side lattice data (MISO density, Kronecker tails) is reused
    across calls: values must not depend on which calls came before."""

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

    def cold(self, monkeypatch):
        out = {}
        for name, mgf in self.SIDES.items():
            for snr in self.SNR_DB:
                fresh_caches(monkeypatch)
                out[name, snr] = mgf(self.xi(snr))
        return out

    def test_snr_order_and_interleaving_leave_values_unchanged(self, monkeypatch):
        ref = self.cold(monkeypatch)
        fresh_caches(monkeypatch)
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
        # the one-eigenvalue Sigma makes no tails; the lattices are those of
        # (nw, deg) = (4, 0), (3, 0), (7, 6) (twice) and (4, 4)
        assert len(detform._MISO_DENSITY) == 2 and len(detform._KRON_TAILS) == 2
        assert len(detform._MISO_KERNELS) == 2 and len(detform._KRON_KERNELS) == 3
        assert len(detform._LATTICES) == 4

    def test_concurrent_calls_match_cold_values(self, monkeypatch):
        ref = self.cold(monkeypatch)
        fresh_caches(monkeypatch)
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
        assert len(detform._MISO_DENSITY) == detform._CACHE_SIDES
        assert len(detform._KRON_TAILS) == detform._CACHE_SIDES
        assert len(detform._MISO_KERNELS) == detform._CACHE_SIDES
        assert len(detform._KRON_KERNELS) == detform._CACHE_SIDES
        assert len(detform._LATTICES) <= detform._CACHE_SIDES

    def test_last_bit_makes_a_separate_entry(self, cold_caches):
        far = spec_of([1.5, 0.5])
        a = spec_of([1.0, 0.5])
        b = spec_of([1.0, float(np.nextafter(0.5, 1.0))])
        for side in (a, b, a):
            expected_inv_det_miso(side, far, 0.7)
            expected_inv_det_kron(2, 4, side, far, 0.7)
        assert len(detform._MISO_DENSITY) == 2 and len(detform._KRON_TAILS) == 2
        assert len(detform._MISO_KERNELS) == 2 and len(detform._KRON_KERNELS) == 2

    @pytest.mark.parametrize("nw,deg", [(1, 0), (4, 0), (7, 6), (50, 0), (191, 6)])
    def test_lattice_prefix_equals_a_fresh_build(self, monkeypatch, nw, deg):
        # every lattice of one (nw, deg) is sliced from the longest prefix
        # kept; each must equal the rule built anew, in any order of
        # floors, and the kept arrays must be read-only
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
            fresh_caches(monkeypatch)
            for f in order:
                t, logw = detform._gamma_lattice(nw, f, deg)
                assert np.array_equal(t, ref[f][0]) and np.array_equal(logw, ref[f][1]), f
                assert not (t.flags.writeable or logw.flags.writeable)
            assert len(detform._LATTICES) == 1
