import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmimo.codes import alamouti, g4
from dsmimo.corrmat import (constant_corr, correlation_figure, exponential_corr,
                            identity_corr, majorizes)
from dsmimo.lowsnr import (THREE_DB, ebn0_min, ebn0_min_received_db, eff_stbc,
                           lowsnr_capacity_curve, lowsnr_metrics, s0_general,
                           s0_ostbc, schur_order_eigs)
from dsmimo.matstat import Scenario, kurtosis_frobenius
from dsmimo.mc import MonteCarloConfig, mc_capacity, mc_kurtosis_eff


def const_scn(n_t, n_s, n_r, rho, code=None, **kw):
    phi = lambda n: identity_corr(n) if rho == 0 else constant_corr(n, rho)
    return Scenario(n_t, n_s, n_r, phi(n_t), phi(n_s), phi(n_r), code, **kw)


class TestEffStbc:
    def test_siso_keyhole(self):
        assert eff_stbc(Scenario.uncorrelated(1, 1, 1)) == pytest.approx(
            10 * math.log10(3), abs=1e-12)

    def test_uncorrelated_example(self):
        # kappa - 1 = 0.2 at (n_t, n_s, n_r) = (4, 10, 2)
        assert eff_stbc(Scenario.uncorrelated(4, 10, 2)) == pytest.approx(
            10 * math.log10(0.2), abs=1e-12)

    def test_matches_monte_carlo(self):
        scn = const_scn(2, 5, 2, 0.5)
        _, eff = mc_kurtosis_eff(scn, MonteCarloConfig(trials=2_000_000, seed=51))
        assert abs(eff.value - eff_stbc(scn)) < 0.1

    def test_mis_along_majorization_chain(self):
        vals = [eff_stbc(const_scn(2, 4, 2, r)) for r in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestEbn0Min:
    def test_natural_value(self):
        assert ebn0_min(1) == pytest.approx(math.log(2), abs=1e-15)
        assert ebn0_min(4) == pytest.approx(math.log(2) / 4, abs=1e-15)

    def test_received_side_constant(self):
        for n_r in (1, 2, 4, 8):
            received = 10 * math.log10(n_r * ebn0_min(n_r))
            assert received == pytest.approx(-1.5917, abs=0.001)
        assert ebn0_min_received_db() == pytest.approx(-1.59, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            ebn0_min(0)


class TestLowSnrSlopes:
    def test_dual_antenna_general(self):
        # (2, n_s, 2) uncorrelated: S0 = 2/(1 + 1.25/n_s), range [8/9, 2)
        for n_s in (1, 2, 5, 50):
            scn = Scenario.uncorrelated(2, n_s, 2)
            assert s0_general(scn) == pytest.approx(2 / (1 + 1.25 / n_s), rel=1e-12)
        assert s0_general(Scenario.uncorrelated(2, 1, 2)) == pytest.approx(8 / 9)
        nods = Scenario.uncorrelated(2, 1, 2, no_double_scattering=True)
        assert s0_general(nods) == pytest.approx(2.0)

    def test_siso_all_ones(self):
        assert s0_general(Scenario.uncorrelated(1, 1, 1)) == pytest.approx(0.5)

    def test_alamouti_slope(self):
        # (8/5)/(1 + 0.8/n_s) for two antennas both sides
        for n_s in (1, 3, 10):
            scn = Scenario.uncorrelated(2, n_s, 2, alamouti())
            assert s0_ostbc(scn) == pytest.approx((8 / 5) / (1 + 0.8 / n_s), rel=1e-12)

    def test_keyhole_slopes_coincide(self):
        scn = Scenario.uncorrelated(2, 1, 2, alamouti())
        assert s0_ostbc(scn) == pytest.approx(8 / 9, rel=1e-12)
        assert s0_general(scn) == pytest.approx(8 / 9, rel=1e-12)

    def test_reference_scenario_slopes(self):
        # n_t = n_r = 4, n_s = 20, exponential 0.5 everywhere, rate 3/4
        scn = Scenario(4, 20, 4, exponential_corr(4, 0.5), exponential_corr(20, 0.5),
                       exponential_corr(4, 0.5), g4())
        assert abs(s0_ostbc(scn) - 1.26) < 0.01
        assert abs(s0_general(scn) - 2.46) < 0.01

    def test_slope_kurtosis_identity(self):
        for scn in [const_scn(2, 3, 2, 0.4, alamouti()),
                    Scenario.uncorrelated(4, 6, 2, g4())]:
            assert s0_ostbc(scn) * kurtosis_frobenius(scn) == pytest.approx(
                2 * float(scn.rate), rel=1e-14)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 6),
           st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_slope_bounded_by_twice_rate(self, n_t, n_s, n_r, rho):
        def phi(n):
            return identity_corr(n) if rho == 0 or n == 1 else constant_corr(n, rho)

        scn = Scenario(n_t, n_s, n_r, phi(n_t), phi(n_s), phi(n_r))
        # kurtosis >= 1, so the OSTBC slope never exceeds 2*rate
        assert s0_ostbc(scn) <= 2 * float(scn.rate) + 1e-12
        assert s0_general(scn) > 0
        assert 10 * math.log10(scn.n_r * ebn0_min(scn.n_r)) == pytest.approx(
            ebn0_min_received_db())

    def test_mds_along_majorization_chains(self):
        rhos = (0.0, 0.2, 0.4, 0.6, 0.8)
        scns = [const_scn(2, 4, 2, r, alamouti()) for r in rhos]
        for a, b in zip(scns, scns[1:]):
            assert majorizes(schur_order_eigs(a, "J_grave"),
                             schur_order_eigs(b, "J_grave"))
            assert majorizes(schur_order_eigs(a, "J"), schur_order_eigs(b, "J"))
            assert s0_general(a) >= s0_general(b) - 1e-12
            assert s0_ostbc(a) >= s0_ostbc(b) - 1e-12

    def test_scatterer_ceiling(self):
        # as the scatterer side approaches full correlation the kurtosis
        # excess over the rich-scattering limit tends to zeta_T + zeta_R
        phi = constant_corr(4, 0.5)
        base = Scenario(4, 6, 4, phi, identity_corr(6), phi,
                        no_double_scattering=True)
        nearly = Scenario(4, 6, 4, phi, constant_corr(6, 0.9999), phi)
        excess = kurtosis_frobenius(nearly) - kurtosis_frobenius(base)
        zt = zr = correlation_figure(phi)
        assert excess == pytest.approx(zt + zr, abs=1e-3)


class TestSchurOrderEigs:
    def test_identity_multiset(self):
        scn = Scenario.uncorrelated(2, 2, 2)
        j = schur_order_eigs(scn, "J")
        np.testing.assert_allclose(j, np.full(12, 0.25), atol=1e-14)

    def test_trace_is_three(self):
        for scn in [Scenario.uncorrelated(3, 5, 2), const_scn(2, 4, 3, 0.6)]:
            assert schur_order_eigs(scn, "J").sum() == pytest.approx(3.0, abs=1e-10)

    def test_j_grave_size_and_trace(self):
        scn = const_scn(2, 3, 2, 0.5)
        jg = schur_order_eigs(scn, "J_grave")
        assert jg.size == 2 + 3 + 2 + 12
        assert jg.sum() == pytest.approx(4.0, abs=1e-10)

    def test_majorization_premise(self):
        a = schur_order_eigs(const_scn(3, 4, 2, 0.3), "J")
        b = schur_order_eigs(const_scn(3, 4, 2, 0.6), "J")
        assert majorizes(a, b)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            schur_order_eigs(Scenario.uncorrelated(1, 1, 1), "K")


class TestCapacityCurve:
    def test_zero_at_minimum(self):
        scn = Scenario.uncorrelated(2, 4, 2, alamouti())
        e0 = ebn0_min_received_db()
        pts = lowsnr_capacity_curve(scn, "ostbc", [e0 - 1.0, e0, e0 + THREE_DB])
        assert len(pts) == 1  # at/below the minimum contributes nothing
        e, c = pts[0]
        assert c == pytest.approx(s0_ostbc(scn), rel=1e-9)  # one 3 dB step up

    def test_slope_per_three_db(self):
        scn = Scenario.uncorrelated(4, 9, 4, g4())
        grid = np.array([0.0, THREE_DB, 2 * THREE_DB])
        pts = lowsnr_capacity_curve(scn, "general", grid)
        caps = [c for _, c in pts]
        steps = np.diff(caps)
        np.testing.assert_allclose(steps, s0_general(scn), rtol=1e-9)

    def test_ostbc_approximation_tracks_monte_carlo(self):
        scn = Scenario(4, 20, 4, exponential_corr(4, 0.5),
                       exponential_corr(20, 0.5), exponential_corr(4, 0.5), g4())
        cfg = MonteCarloConfig(trials=150_000, seed=61)
        s0 = s0_ostbc(scn)
        e0 = ebn0_min_received_db()
        for snr_db in (-12.0, -6.0, -1.0):
            est = mc_capacity(scn, 10 ** (snr_db / 10), "ostbc", cfg)
            if not 0.25 <= est.value <= 2.0:
                continue
            ebn0 = 10 * math.log10(scn.n_r * 10 ** (snr_db / 10) / est.value)
            approx = s0 * (ebn0 - e0) / THREE_DB
            assert abs(approx - est.value) <= 0.05 * est.value

    def test_general_mode_discrepancy_allowance_at_zero_db(self):
        scn = Scenario(4, 20, 4, exponential_corr(4, 0.5),
                       exponential_corr(20, 0.5), exponential_corr(4, 0.5), g4())
        cfg = MonteCarloConfig(trials=150_000, seed=62)
        s0 = s0_general(scn)
        e0 = ebn0_min_received_db()
        # locate the snr whose received Eb/N0 is near 0 dB
        best = None
        for snr_db in np.arange(-12.0, 0.1, 1.0):
            est = mc_capacity(scn, 10 ** (snr_db / 10), "general", cfg)
            ebn0 = 10 * math.log10(scn.n_r * 10 ** (snr_db / 10) / est.value)
            if best is None or abs(ebn0) < abs(best[0]):
                best = (ebn0, est.value)
        ebn0, cap = best
        assert abs(ebn0) < 0.5
        approx = s0 * (ebn0 - e0) / THREE_DB
        assert abs(approx - cap) / cap <= 0.13  # first-order model gap ~11%

    def test_metrics_aggregate(self):
        scn = Scenario.uncorrelated(2, 3, 2, alamouti())
        met = lowsnr_metrics(scn)
        assert met.ebn0_min_transmit == pytest.approx(math.log(2) / 2)
        assert met.ebn0_min_received_db == pytest.approx(-1.59, abs=0.01)
        assert met.s0_general == pytest.approx(s0_general(scn))
        assert met.s0_ostbc == pytest.approx(s0_ostbc(scn))
        assert met.eff_db == pytest.approx(eff_stbc(scn))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            lowsnr_capacity_curve(Scenario.uncorrelated(1, 1, 1), "mrt", [0.0])
