import concurrent.futures
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import dsmimo.mc as mc_mod
from dsmimo.cli import EXIT_OK, main
from dsmimo.codes import g4, ostbc_rate
from dsmimo.corrmat import constant_corr, exponential_corr, identity_corr, matrix_sqrt
from dsmimo.matstat import (Scenario, double_product_moments, frobenius_moments,
                            kurtosis_frobenius, sample_channel)
from dsmimo.mc import (BLOCK_SIZE, Estimate, MonteCarloConfig, fit_diversity_slope,
                       mc_capacity, mc_kurtosis_eff, mc_sep, substream)
from dsmimo.sep import (PskConstellation, sep_mpsk, sep_mpsk_iid_rayleigh,
                        sep_mpsk_uncorrelated, sep_theta_integral)
from dsmimo.corrmat import Spectrum

from conftest import cgauss, random_correlation


def db(x):
    return 10.0 ** (x / 10.0)


class TestSubstreams:
    def test_independent_streams_differ(self):
        # adjacent seeds and adjacent blocks share no variate
        draws = {(seed, block): substream(seed, block).standard_normal(8)
                 for seed in (41, 42, 43) for block in (0, 1, 2)}
        keys = list(draws)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert not np.any(draws[a] == draws[b]), (a, b)

    def test_same_key_reproduces(self):
        a = substream(42, 3).standard_normal(8)
        b = substream(42, 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed,block", [(0, 0), (42, 3), (2**64 - 1, 17)])
    def test_is_seed_sequence_child_stream(self, seed, block):
        # numpy's construction for independent child streams, on SFC64
        ref = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(block,))))
        np.testing.assert_array_equal(substream(seed, block).standard_normal(16),
                                      ref.standard_normal(16))


class TestDeterminism:
    def test_bit_identical_estimates(self):
        scn = Scenario.uncorrelated(2, 3, 2)
        psk = PskConstellation(4)
        cfg = MonteCarloConfig(trials=70_000, seed=123)  # crosses a block edge
        a = mc_sep(scn, psk, 10.0, cfg)
        b = mc_sep(scn, psk, 10.0, cfg)
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_seed_changes_results(self):
        scn = Scenario.uncorrelated(2, 3, 2)
        psk = PskConstellation(4)
        a = mc_sep(scn, psk, 10.0, MonteCarloConfig(trials=50_000, seed=1))
        b = mc_sep(scn, psk, 10.0, MonteCarloConfig(trials=50_000, seed=2))
        assert a.value != b.value

    def test_worker_count_never_changes_a_result(self, monkeypatch):
        # 3 full blocks plus a partial one, through the reduced (Bartlett)
        # draw of the channel sampler; the pinned values fix the stream
        # layout, so a change to the draw order fails here
        scn = Scenario(2, 3, 2, exponential_corr(2, 0.5), identity_corr(3),
                       constant_corr(2, 0.3))
        cfg = MonteCarloConfig(3 * BLOCK_SIZE + 4321, seed=2026)

        def run():
            kurt, eff = mc_kurtosis_eff(scn, cfg)
            return (mc_sep(scn, PskConstellation(8), 10.0, cfg), kurt, eff,
                    mc_capacity(scn, 10.0, "ostbc", cfg))

        # more workers (4, one per block) than cores, switching threads often
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert repr(pooled) == repr(run())
        pinned = [("0x1.3d642a067ddf5p-4", "0x1.2164d03bbc982p-13"),
                  ("0x1.bad85d85a494bp+0", "0x1.135f7caddae73p-8"),
                  ("-0x1.5e19c5597c7d5p+0", "0x1.99a42cb31bd97p-6"),
                  ("0x1.00a0e1aecb423p+2", "0x1.9f00c4122bffep-10")]
        assert [(e.value.hex(), e.std_error.hex()) for e in pooled] == pinned

    def test_single_block_calls_start_no_thread(self, monkeypatch, tmp_path):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        scn = Scenario.uncorrelated(2, 3, 2)
        psk = PskConstellation(4)
        one_block = MonteCarloConfig(BLOCK_SIZE, seed=1)
        mc_sep(scn, psk, 10.0, one_block)
        mc_capacity(scn, 10.0, "general", one_block)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("scenario.n_t = 2\nscenario.n_s = 3\nscenario.n_r = 2\n"
                        "code = alamouti\npsk.m = 4\nsnr.start_db = 0\nsnr.stop_db = 4\n"
                        "snr.step_db = 2\nmc.seed = 1\n", encoding="utf-8")
        assert main(["sep-curve", "--config", str(cfgp), "--out",
                     str(tmp_path / "c.csv"), "--trials", "8192"]) == EXIT_OK
        # the patch is live: a second block does reach the pool
        with pytest.raises(AssertionError, match="thread pool started"):
            mc_sep(scn, psk, 10.0, MonteCarloConfig(BLOCK_SIZE + 1, seed=1))

    def test_one_block_holds_no_whole_block_factor(self):
        # README scenario: one 2^16-trial block draws its channel factors
        # slice by slice, so no call holds a block-sized H1 or H2 (42 MB and
        # 21 MB for 4x10x4)
        scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                       constant_corr(4, 0.5), g4())
        cfg = MonteCarloConfig(BLOCK_SIZE, seed=3)
        calls = [lambda: mc_sep(scn, PskConstellation(8), 10.0, cfg),
                 lambda: mc_capacity(scn, 10.0, "general", cfg),
                 lambda: mc_kurtosis_eff(scn, cfg)]
        peaks = []
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 24 * 2**20, peaks

    def test_estimator_field_types(self):
        scn = Scenario(2, 3, 2, exponential_corr(2, 0.5), identity_corr(3),
                       identity_corr(2))
        cfg = MonteCarloConfig(20_000, seed=8)
        estimates = [mc_sep(scn, PskConstellation(4), 10.0, cfg),
                     *mc_kurtosis_eff(scn, cfg),
                     mc_capacity(scn, 10.0, "general", cfg),
                     mc_capacity(scn, 10.0, "ostbc", cfg)]
        for e in estimates:
            assert type(e.value) is float and type(e.std_error) is float
            assert type(e.trials) is int and e.flag is None


class TestMcSep:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=0, seed=1)

    def test_unbiased_on_siso_rayleigh(self):
        # exact SISO Rayleigh SEP: (1/pi) int (1 + g*snr/sin^2)^-1
        scn = Scenario.uncorrelated(1, 1, 1, no_double_scattering=True)
        psk = PskConstellation(4)
        snr = db(8.0)
        exact = sep_theta_integral(
            lambda th: 1.0 / (1.0 + psk.g * snr / np.sin(th) ** 2), psk.theta_max)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=400_000, seed=21))
        assert abs(est.value - exact) < 3 * est.std_error

    def test_matches_keyhole_closed_form(self):
        scn = Scenario.uncorrelated(1, 1, 1)
        psk = PskConstellation(2)
        snr = db(10.0)
        cf = sep_mpsk(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=400_000, seed=22))
        assert abs(est.value - cf) < 3 * est.std_error

    def test_matches_uncorrelated_closed_form(self):
        scn = Scenario.uncorrelated(4, 10, 2, g4())
        psk = PskConstellation(8)
        snr = db(16.0)
        cf = sep_mpsk_uncorrelated(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=400_000, seed=23))
        assert abs(est.value - cf) < 3 * est.std_error

    def test_draw_cost_does_not_grow_with_scatterers(self, monkeypatch):
        # phi_s = I: a trial draws 2 n_r n_t + m(m-1) normals (44 for 4x4)
        # whatever n_s is, so no n_s-sized array is drawn
        normals = []

        class Counting:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, *args, **kwargs):
                x = self._gen.standard_normal(*args, **kwargs)
                normals.append(x.size)
                return x

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        monkeypatch.setattr(mc_mod, "substream",
                            lambda seed, index: Counting(substream(seed, index)))
        trials = 16
        per_trial = {}
        for n_s in (10, 10_000):
            normals.clear()
            scn = Scenario(4, n_s, 4, constant_corr(4, 0.5), identity_corr(n_s),
                           constant_corr(4, 0.5), g4())
            mc_sep(scn, PskConstellation(8), 10.0, MonteCarloConfig(trials, seed=5))
            per_trial[n_s] = sum(normals) / trials
        assert per_trial == {10: 44, 10_000: 44}

    def test_estimate_fields(self):
        scn = Scenario.uncorrelated(1, 2, 1)
        est = mc_sep(scn, PskConstellation(2), 1.0,
                     MonteCarloConfig(trials=4096, seed=5))
        assert isinstance(est, Estimate)
        assert est.trials == 4096
        assert est.std_error >= 0


class TestMcKurtosisEff:
    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            mc_kurtosis_eff(Scenario.uncorrelated(1, 1, 1),
                            MonteCarloConfig(trials=100, seed=1))

    def test_siso_keyhole_kurtosis(self):
        kurt, eff = mc_kurtosis_eff(Scenario.uncorrelated(1, 1, 1),
                                    MonteCarloConfig(trials=1_000_000, seed=31))
        assert abs(kurt.value - 4.0) < 0.02 * 4.0
        assert eff.flag is None
        assert eff.value == pytest.approx(10 * math.log10(kurt.value - 1), abs=1e-9)

    def test_uncorrelated_formula_agreement(self):
        scn = Scenario.uncorrelated(4, 10, 2)
        kurt, _ = mc_kurtosis_eff(scn, MonteCarloConfig(trials=1_000_000, seed=32))
        assert abs(kurt.value - 1.2) < 0.02 * 1.2

    def test_gamma_shortcut_matches_generic_sampler(self):
        # SISO with uncorrelated scatterers uses the Gamma(n_s) reduction;
        # its kurtosis must agree with the analytic value too
        scn = Scenario.uncorrelated(1, 7, 1)
        kurt, _ = mc_kurtosis_eff(scn, MonteCarloConfig(trials=1_000_000, seed=33))
        expect = kurtosis_frobenius(scn)
        assert abs(kurt.value - expect) < 0.02 * expect

    def test_degenerate_flagged(self, monkeypatch):
        # constant ||H||^2 draws give kurtosis exactly 1: dB figure undefined
        monkeypatch.setattr(mc_mod, "_frob_sq_samples",
                            lambda scn, rng, n: np.ones(n))
        kurt, eff = mc_kurtosis_eff(Scenario.uncorrelated(1, 1, 1),
                                    MonteCarloConfig(trials=20_000, seed=1))
        assert kurt.value == pytest.approx(1.0)
        assert eff.flag is not None
        assert math.isnan(eff.value)


class TestMcCapacity:
    def test_modes_coincide_for_rate_one_siso(self):
        scn = Scenario.uncorrelated(1, 5, 1)
        a = mc_capacity(scn, 2.0, "general", MonteCarloConfig(trials=200_000, seed=41))
        b = mc_capacity(scn, 2.0, "ostbc", MonteCarloConfig(trials=200_000, seed=42))
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 3 * se

    def test_ostbc_never_beats_general(self):
        scn = Scenario(4, 20, 4, identity_corr(4), identity_corr(20),
                       identity_corr(4), g4())
        for snr_db in (-10.0, 0.0, 10.0):
            a = mc_capacity(scn, db(snr_db), "general",
                            MonteCarloConfig(trials=60_000, seed=43))
            b = mc_capacity(scn, db(snr_db), "ostbc",
                            MonteCarloConfig(trials=60_000, seed=43))
            se = math.hypot(a.std_error, b.std_error)
            assert b.value <= a.value + 3 * se

    def test_low_snr_first_order_slope(self):
        # C/snr -> n_r log2(e), with the exact second-order term removed
        scn = Scenario.uncorrelated(2, 4, 3)
        snr = 1e-3
        est = mc_capacity(scn, snr, "general",
                          MonteCarloConfig(trials=400_000, seed=44))
        i_t = Spectrum((1.0,), (scn.n_t,), scn.n_t)
        i_s = Spectrum((1.0,), (scn.n_s,), scn.n_s)
        i_r = Spectrum((1.0,), (scn.n_r,), scn.n_r)
        _, tr_sq = double_product_moments(i_r, i_s, i_t)
        m2_hh_sq = tr_sq / scn.n_s**2  # E tr[(H H^H)^2]
        first = scn.n_r * math.log2(math.e)
        second = 0.5 * math.log2(math.e) * m2_hh_sq / scn.n_t**2
        assert abs(est.value / snr - (first - snr * second)) < 3 * est.std_error / snr

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("dims", [(4, 10, 4), (2, 5, 3), (3, 4, 2), (3, 1, 4), (4, 1, 3)])
    def test_log_det_matches_eigenvalue_form(self, dims, c):
        n_t, n_s, n_r = dims
        if n_s > 1:
            scn = Scenario(n_t, n_s, n_r, exponential_corr(n_t, 0.6),
                           identity_corr(n_s), constant_corr(n_r, 0.4))
        else:
            scn = Scenario.uncorrelated(n_t, n_s, n_r)
        h = sample_channel(scn, substream(3, 0), size=2000)
        got = mc_mod._log2_det_eye_plus(c, h)
        m = min(n_t, n_r)
        if n_s > 1:
            hh = h.conj().transpose(0, 2, 1)
            gram = h @ hh if n_r <= n_t else hh @ h
            ref = np.log2(1.0 + c * np.linalg.eigvalsh(gram)).sum(axis=1)
        else:
            # keyhole: the Gram matrix has rank one, so the exact value is
            # log2(1 + c ||H||_F^2); eigvalsh's round-off eigenvalues
            # (~eps ||G||, times c) would put the eigenvalue form itself
            # 2e-12 off at c = 1e3
            ref = np.log1p(c * np.einsum("bij,bij->b", h, h.conj()).real) / math.log(2)
        # each log of a rounded 1 + x carries ~eps absolute error whatever
        # x is, hence a floor of a few eps per eigenvalue for small values
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=8 * m * np.finfo(float).eps)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            mc_capacity(Scenario.uncorrelated(1, 1, 1), 1.0, "waterfill",
                        MonteCarloConfig(trials=1024, seed=1))


class TestFitDiversitySlope:
    def test_exact_power_law(self):
        gdb = np.linspace(10, 40, 13)
        sep = 0.37 * (10 ** (gdb / 10.0)) ** -3.0
        assert fit_diversity_slope(list(zip(gdb, sep))) == pytest.approx(3.0, abs=1e-6)

    def test_uses_top_decade_only(self):
        # slope -2 below 30 dB, slope -5 in the top decade
        gdb = np.arange(0, 41, 2.0)
        sep = np.where(gdb < 30, 10.0 ** (-2 * gdb / 10),
                       10.0 ** (-5 * (gdb - 30) / 10 - 6))
        assert fit_diversity_slope(list(zip(gdb, sep))) == pytest.approx(5.0, rel=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_diversity_slope([(0, 1e-1), (10, 1e-2), (20, 1e-3)])
        with pytest.raises(ValueError):
            fit_diversity_slope([(0, 1e-1), (2, 1e-2), (4, 1e-3), (6, 1e-4)])
        with pytest.raises(ValueError):
            fit_diversity_slope([(0, 1e-1), (5, 1e-2), (10, 0.0), (12, 1e-4)])


@pytest.mark.parametrize("snr", [0.0, -1.0, math.nan, math.inf])
def test_snr_must_be_positive_and_finite(snr):
    # the README scenario: 4x10x4, constant rho = 0.5 transmit and receive
    scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                   constant_corr(4, 0.5), g4())
    psk, cfg = PskConstellation(8), MonteCarloConfig(trials=1024, seed=1)
    calls = [lambda: sep_mpsk(scn, psk, snr),
             lambda: sep_mpsk_iid_rayleigh(4, 4, scn.rate, psk, snr),
             lambda: mc_sep(scn, psk, snr, cfg),
             lambda: mc_capacity(scn, snr, "general", cfg),
             lambda: mc_capacity(scn, snr, "ostbc", cfg)]
    for call in calls:
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            call()


def test_rate_formula_examples():
    from fractions import Fraction

    assert ostbc_rate(2) == Fraction(1)
    assert ostbc_rate(4) == Fraction(3, 4)
    assert ostbc_rate(8) == Fraction(1, 2)


def test_frobenius_shortcuts_preserve_moments():
    # the distributional shortcut paths must reproduce the analytic second
    # and fourth Frobenius moments
    for scn in [Scenario.uncorrelated(1, 6, 1),
                Scenario(2, 3, 2, constant_corr(2, 0.5), identity_corr(3),
                         constant_corr(2, 0.4), no_double_scattering=True)]:
        rng = substream(7, 0)
        x = mc_mod._frob_sq_samples(scn, rng, 400_000)
        m2, m4 = frobenius_moments(scn)
        assert abs(x.mean() - m2) < 4 * x.std() / math.sqrt(x.size)
        x2 = x * x
        assert abs(x2.mean() - m4) < 4 * x2.std() / math.sqrt(x2.size)


def _all_sides_correlated(model, rng):
    """3x4x2 with every side correlated: constant models or general sides."""
    if model == "constant":
        sides = [constant_corr(3, 0.6), constant_corr(4, 0.5), constant_corr(2, 0.3)]
    else:
        sides = [random_correlation(rng, n) for n in (3, 4, 2)]
    return Scenario(3, 4, 2, *sides)


@pytest.mark.parametrize("model", ["constant", "general"])
def test_generic_frobenius_draw_preserves_moments(model):
    # the spectral-frame draw must reproduce the analytic second and fourth
    # Frobenius moments when no side is the identity
    scn = _all_sides_correlated(model, np.random.default_rng(5))
    x = mc_mod._frob_sq_samples(scn, substream(8, 0), 400_000)
    m2, m4 = frobenius_moments(scn)
    assert abs(x.mean() - m2) < 4 * x.std() / math.sqrt(x.size)
    x2 = x * x
    assert abs(x2.mean() - m4) < 4 * x2.std() / math.sqrt(x2.size)


@pytest.mark.parametrize("model", ["constant", "general"])
def test_general_capacity_matches_square_root_chain(model):
    # reference: phi_r^(1/2) H1 phi_s^(1/2) H2 phi_t^(1/2)/sqrt(n_s) from
    # explicit matrix square roots and a generator of its own, with the
    # capacity summed over the Gram eigenvalues
    rng = np.random.default_rng(17)
    scn = _all_sides_correlated(model, rng)
    snr, n, chunk = 10.0, 200_000, 10_000
    est = mc_capacity(scn, snr, "general", MonteCarloConfig(n, seed=18))
    sr, ss, st = (matrix_sqrt(p) for p in (scn.phi_r, scn.phi_s, scn.phi_t))
    ref = []
    for _ in range(n // chunk):
        h1 = cgauss(rng, chunk, scn.n_r, scn.n_s)
        h2 = cgauss(rng, chunk, scn.n_s, scn.n_t)
        h = sr @ h1 @ ss @ h2 @ st / math.sqrt(scn.n_s)
        lam = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
        ref.append(np.log2(1.0 + snr / scn.n_t * lam).sum(axis=1))
    ref = np.concatenate(ref)
    se = math.hypot(est.std_error, ref.std() / math.sqrt(ref.size))
    assert abs(est.value - ref.mean()) < 3 * se
