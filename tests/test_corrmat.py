import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmimo.codes import g4
from dsmimo.corrmat import (CorrelationMatrix, Spectrum, constant_corr,
                            correlation_figure, exponential_corr, identity_corr,
                            majorizes, matrix_sqrt, spectrum_of,
                            tridiagonal_corr)
from dsmimo.lowsnr import lowsnr_metrics
from dsmimo.matstat import Scenario, sample_channel
from dsmimo.mc import MonteCarloConfig, mc_sep, substream
from dsmimo.sep import PskConstellation

from conftest import cgauss, random_correlation


class TestConstantCorr:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(constant_corr(4, 0.0).entries, np.eye(4))

    def test_paper_spectrum(self):
        spec = constant_corr(4, 0.5).spectrum
        assert spec.distinct == ((2.5, 1), (0.5, 3))

    def test_two_by_two_eigs_match_eigensolver(self):
        phi = constant_corr(2, 0.9)
        oracle = np.sort(np.linalg.eigvalsh(phi.entries))[::-1]
        np.testing.assert_allclose(phi.spectrum.expand(), oracle, atol=1e-12)
        np.testing.assert_allclose(oracle, [1.9, 0.1], atol=1e-12)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_domain_errors(self, rho):
        with pytest.raises(ValueError):
            constant_corr(4, rho)


class TestExponentialCorr:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(exponential_corr(3, 0.0).entries, np.eye(3))

    def test_corner_entry(self):
        assert exponential_corr(4, 0.5).entries[0, 3] == 0.125

    def test_trace_of_square_by_direct_summation(self):
        phi = exponential_corr(4, 0.5)
        oracle = sum(0.5 ** (2 * abs(i - j)) for i in range(4) for j in range(4))
        assert oracle == pytest.approx(5.78125, abs=1e-15)
        assert np.trace(phi.entries @ phi.entries) == pytest.approx(oracle, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exponential_corr(4, 1.0)


class TestTridiagonalCorr:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(tridiagonal_corr(5, 0.0).entries, np.eye(5))

    def test_two_by_two_eigs(self):
        spec = tridiagonal_corr(2, 0.4).spectrum
        np.testing.assert_allclose(spec.expand(), [1.4, 0.6], atol=1e-12)

    def test_known_toeplitz_eigenvalues(self):
        # 1 + 2 rho cos(k pi/(n+1)), cross-checked against the eigensolver
        phi = tridiagonal_corr(3, 0.3)
        analytic = np.sort(1 + 2 * 0.3 * np.cos(np.arange(1, 4) * np.pi / 4))[::-1]
        np.testing.assert_allclose(analytic, [1 + 0.3 * np.sqrt(2), 1.0,
                                              1 - 0.3 * np.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(phi.spectrum.expand(), analytic, atol=1e-12)

    def test_bound_rejected(self):
        n = 4
        bound = 0.5 / np.cos(np.pi / (n + 1))
        with pytest.raises(ValueError):
            tridiagonal_corr(n, bound)
        tridiagonal_corr(n, bound - 1e-6)

    def test_rho_within_round_off_of_the_bound_rejected(self):
        # the largest double below the bound: the smallest closed-form
        # eigenvalue rounds to 0 at n = 13
        n = 13
        with pytest.raises(ValueError, match="positive definite"):
            tridiagonal_corr(n, np.nextafter(0.5 / np.cos(np.pi / (n + 1)), 0.0))

    @pytest.mark.parametrize("n", [2, 7, 120])
    @pytest.mark.parametrize("rho", [0.2, 0.45])
    def test_spectrum_is_closed_form_and_entries_lazy(self, n, rho):
        phi = tridiagonal_corr(n, rho)
        assert "entries" not in vars(phi)
        numeric = np.sort(np.linalg.eigvalsh(phi.entries))[::-1]
        np.testing.assert_allclose(phi.spectrum.expand(), numeric, rtol=0, atol=1e-13)
        dense = np.eye(n) + rho * (np.eye(n, k=1) + np.eye(n, k=-1))
        assert phi.entries.tobytes() == dense.tobytes()
        CorrelationMatrix(phi.entries)  # passes every check of a general side


class TestCorrelationFigure:
    def test_identity_lower_bound(self):
        assert correlation_figure(identity_corr(4)) == pytest.approx(0.25, abs=1e-15)

    def test_constant_from_paper_eigenvalues(self):
        # (1/16)(2.5^2 + 3*0.5^2) from the stated spectrum
        oracle = (2.5**2 + 3 * 0.5**2) / 16
        assert oracle == 7 / 16
        phi = constant_corr(4, 0.5)
        assert correlation_figure(phi) == pytest.approx(oracle, rel=1e-14)

    def test_exponential_direct_trace(self):
        assert correlation_figure(exponential_corr(4, 0.5)) == pytest.approx(
            0.361328125, abs=1e-15)

    def test_bounds_on_random_matrices(self, rng):
        for n in (2, 3, 5):
            z = correlation_figure(random_correlation(rng, n))
            assert 1 / n - 1e-12 <= z <= 1 + 1e-12


class TestMajorizes:
    def test_ones_majorized_by_spike(self):
        assert majorizes([1, 1, 1], [3, 0, 0])
        assert not majorizes([3, 0, 0], [1, 1, 1])

    def test_permutation_invariance(self):
        assert majorizes([2, 1], [1, 2])
        assert majorizes([1, 2], [2, 1])

    def test_constant_family_chain(self):
        a = constant_corr(4, 0.3).spectrum.expand()
        b = constant_corr(4, 0.6).spectrum.expand()
        assert majorizes(a, b)
        assert not majorizes(b, a)

    def test_weak_mode(self):
        assert majorizes([1, 1], [3, 0], weak=True)
        assert not majorizes([1, 1], [3, 0])  # sums differ

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes([1, 2], [1, 2, 3])

    @given(st.lists(st.floats(0, 10), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_reflexive(self, v):
        assert majorizes(v, v)
        assert majorizes(v, v, weak=True)

    @given(st.lists(st.floats(0, 5), min_size=2, max_size=5),
           st.floats(0.1, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_scaling_preserves_weak_order(self, v, c):
        v = np.asarray(v)
        spike = np.zeros_like(v)
        spike[0] = v.sum()
        assert majorizes(v, spike)
        assert majorizes(c * v, c * spike)


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(matrix_sqrt(identity_corr(3)), np.eye(3))

    def test_multiply_back(self):
        phi = constant_corr(2, 0.8)
        s = matrix_sqrt(phi)
        np.testing.assert_allclose(s @ s, phi.entries, atol=1e-12)

    def test_sqrt_eigenvalues(self):
        s = matrix_sqrt(constant_corr(4, 0.5))
        expect = np.sort(np.concatenate([[np.sqrt(2.5)], np.sqrt(0.5) * np.ones(3)]))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(s)), expect, atol=1e-12)

    def test_random_reconstruction(self, rng):
        for n in (2, 4, 6):
            phi = random_correlation(rng, n)
            s = matrix_sqrt(phi)
            assert np.linalg.norm(s @ s - phi.entries) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.diag([1.0, -0.5]))


class TestSpectrumOf:
    def test_identity(self):
        assert spectrum_of(np.eye(4)).distinct == ((1.0, 4),)

    def test_constant_numeric(self):
        spec = spectrum_of(constant_corr(4, 0.5).entries)
        assert spec.n_distinct == 2
        np.testing.assert_allclose(spec.values, [2.5, 0.5], atol=1e-12)
        assert spec.mults == (1, 3)

    def test_exponential_all_distinct(self):
        assert spectrum_of(exponential_corr(3, 0.5).entries).n_distinct == 3

    def test_cluster_tolerance_merges(self):
        m = np.diag([1.0, 1.0 + 1e-10, 2.0])
        assert spectrum_of(m).distinct == (
            (2.0, 1), (1.0 + 5e-11, 2))


class TestSpectrumInvariants:
    def test_multiplicities_must_sum_to_dim(self):
        with pytest.raises(ValueError):
            Spectrum((2.0, 1.0), (1, 1), 3)

    def test_strictly_decreasing(self):
        with pytest.raises(ValueError):
            Spectrum((1.0, 1.0), (1, 1), 2)
        with pytest.raises(ValueError):
            Spectrum((1.0, 2.0), (1, 1), 2)

    def test_expand_and_trace_power(self):
        s = Spectrum((2.0, 0.5), (1, 3), 4)
        np.testing.assert_array_equal(s.expand(), [2.0, 0.5, 0.5, 0.5])
        assert s.trace_power(2) == pytest.approx(4 + 3 * 0.25)


class TestCorrelationMatrixInvariants:
    def test_rejects_bad_diagonal(self):
        m = np.eye(3) * 1.001
        with pytest.raises(ValueError):
            CorrelationMatrix(m)

    def test_rejects_non_hermitian(self):
        m = np.eye(3)
        m[0, 1] = 0.2
        with pytest.raises(ValueError):
            CorrelationMatrix(m)

    def test_rejects_semidefinite(self):
        # rank-one all-ones matrix: PSD but singular
        with pytest.raises(ValueError):
            CorrelationMatrix(np.ones((3, 3)))

    def test_unit_trace_sum(self, rng):
        phi = random_correlation(rng, 5)
        assert phi.spectrum.expand().sum() == pytest.approx(5.0, abs=1e-10)


class TestSpectrumFirstSides:
    """Identity, constant and tridiagonal sides hold their exact spectrum and
    build the dense matrix only when something reads it."""

    def test_large_sides_cost_no_dense_matrix(self):
        tracemalloc.start()
        try:
            scn = Scenario.uncorrelated(4, 10_000, 2, g4())
            spec = constant_corr(10_000, 0.5).spectrum
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert scn.phi_s.spectrum.distinct == ((1.0, 10_000),)
        assert spec.distinct == ((1.0 + 9_999 * 0.5, 1), (0.5, 9_999))

    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_identity_entries_are_the_dense_identity(self, n):
        a = identity_corr(n).entries
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.tobytes() == np.eye(n).tobytes()
        assert CorrelationMatrix(a).spectrum.distinct == ((1.0, n),)

    @pytest.mark.parametrize("n", [2, 5, 33])
    @pytest.mark.parametrize("rho", [1e-17, 1e-9, 0.3, 0.5, 0.999])
    def test_constant_entries_are_the_dense_matrix(self, n, rho):
        dense = np.full((n, n), rho)
        np.fill_diagonal(dense, 1.0)
        phi = constant_corr(n, rho)
        assert phi.entries.dtype == np.float64 and phi.entries.flags.c_contiguous
        assert phi.entries.tobytes() == dense.tobytes()
        CorrelationMatrix(phi.entries)  # passes every check of a general side
        numeric = np.sort(np.linalg.eigvalsh(phi.entries))[::-1]
        np.testing.assert_allclose(numeric, phi.spectrum.expand(), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("model", [constant_corr, exponential_corr, tridiagonal_corr])
    def test_is_identity_truth_table(self, model):
        assert identity_corr(3).is_identity
        assert model(4, 0.0).is_identity
        assert model(1, 0.3).is_identity
        assert not model(4, 0.3).is_identity
        assert not model(4, 1e-17).is_identity

    def test_is_identity_is_how_the_side_was_built(self):
        # constant_corr(4, 1e-17) has the spectrum {1 x 4} but is no identity
        phi = constant_corr(4, 1e-17)
        assert phi.spectrum.distinct == ((1.0, 4),)
        assert not phi.is_identity
        # a hand-built unit matrix is a general side
        assert not CorrelationMatrix(np.eye(3)).is_identity

    def test_channel_draw_never_builds_identity_entries(self):
        # sample_channel rotates by the eigenbasis of a correlated end side
        # only; Monte Carlo reads every side's spectrum and nothing else
        scn = Scenario(2, 3, 2, constant_corr(2, 0.5), identity_corr(3),
                       identity_corr(2))
        sample_channel(scn, substream(1, 0), 5)
        for phi in (scn.phi_s, scn.phi_r):
            assert "entries" not in vars(phi)
        assert "entries" in vars(scn.phi_t)
        scn = Scenario(2, 10_000, 2, constant_corr(2, 0.5), constant_corr(10_000, 0.3),
                       constant_corr(2, 0.2))
        mc_sep(scn, PskConstellation(4), 10.0, MonteCarloConfig(16, seed=1))
        for phi in (scn.phi_t, scn.phi_s, scn.phi_r):
            assert "entries" not in vars(phi)
            assert not hasattr(phi, "sqrt")

    def test_identity_correlation_figure_needs_no_entries(self):
        phi = identity_corr(5000)
        assert correlation_figure(phi) == 5000 / (5000 * 5000)
        assert "entries" not in vars(phi)

    def test_constant_side_figures_need_no_entries(self):
        # kurtosis, EFF and the low-SNR slopes read the exact spectrum
        scn = Scenario(4, 200, 2, constant_corr(4, 0.5), constant_corr(200, 0.3),
                       constant_corr(2, 0.2), g4())
        assert correlation_figure(scn.phi_s) == pytest.approx(0.09455, rel=1e-15)
        lowsnr_metrics(scn)
        for phi in (scn.phi_t, scn.phi_s, scn.phi_r):
            assert "entries" not in vars(phi)


class TestSchurMonotonicity:
    RHOS = np.arange(0.0, 0.95, 0.1)

    @pytest.mark.parametrize("model,upper", [
        (constant_corr, 1.0),
        (exponential_corr, 1.0),
        (tridiagonal_corr, None),
    ])
    def test_majorization_chain_over_rho_grid(self, model, upper):
        n = 4
        if upper is None:
            upper = 0.5 / np.cos(np.pi / (n + 1))
        rhos = [r for r in self.RHOS if r < upper]
        eigs = [model(n, r).spectrum.expand() for r in rhos]
        for lo, hi in zip(eigs, eigs[1:]):
            assert majorizes(lo, hi)

    def test_schur_diagonal_theorem(self, rng):
        # diag(A) is majorized by eig(A) for Hermitian A
        for n in (2, 4, 6):
            a = cgauss(rng, n, n)
            a = a + a.conj().T
            assert majorizes(np.real(np.diagonal(a)), np.linalg.eigvalsh(a))

    def test_correlation_figure_is_mis(self):
        for model in (constant_corr, exponential_corr):
            zs = [correlation_figure(model(4, r)) for r in self.RHOS]
            assert all(a <= b + 1e-14 for a, b in zip(zs, zs[1:]))

    def test_product_mis_under_kronecker_order(self):
        # zeta(A)zeta(B) = zeta(A kron B): monotone when both factors step up
        for r1, r2 in [(0.1, 0.3), (0.2, 0.6), (0.5, 0.8)]:
            a1, a2 = constant_corr(3, r1), constant_corr(3, r2)
            b1, b2 = constant_corr(2, r1), constant_corr(2, r2)
            kron_lo = np.multiply.outer(a1.spectrum.expand(),
                                        b1.spectrum.expand()).ravel()
            kron_hi = np.multiply.outer(a2.spectrum.expand(),
                                        b2.spectrum.expand()).ravel()
            assert majorizes(kron_lo, kron_hi)
            assert (correlation_figure(a1) * correlation_figure(b1)
                    <= correlation_figure(a2) * correlation_figure(b2) + 1e-14)

    def test_sum_mis_under_scaled_direct_sum_order(self):
        for r1, r2 in [(0.1, 0.3), (0.2, 0.6), (0.5, 0.8)]:
            a1, a2 = constant_corr(3, r1), constant_corr(3, r2)
            b1, b2 = constant_corr(2, r1), constant_corr(2, r2)
            lo = np.concatenate([a1.spectrum.expand() / 3, b1.spectrum.expand() / 2])
            hi = np.concatenate([a2.spectrum.expand() / 3, b2.spectrum.expand() / 2])
            assert majorizes(lo, hi)
            assert (correlation_figure(a1) + correlation_figure(b1)
                    <= correlation_figure(a2) + correlation_figure(b2) + 1e-14)
