import concurrent.futures
import contextlib
import math
import os
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

import dsmimo.matstat as matstat
import dsmimo.mc as mc_mod
import dsmimo.sep as sep_mod
from dsmimo.cli import EXIT_OK, main
from dsmimo.codes import g4, ostbc_rate
from dsmimo.corrmat import (constant_corr, exponential_corr, identity_corr, matrix_sqrt,
                            tridiagonal_corr)
from dsmimo.matstat import (SLICE, TILT_EVERY, Scenario, SlicePlan, bidiagonal_slice,
                            double_product_moments, frobenius_moments, kurtosis_frobenius,
                            sample_channel)
from dsmimo.mc import (BLOCK_SIZE, Estimate, MonteCarloConfig, fit_diversity_slope,
                       mc_capacity, mc_kurtosis_eff, mc_sep, substream)
from dsmimo.sep import (PskConstellation, conditional_sep_polynomial, sep_mpsk,
                        sep_mpsk_iid_rayleigh, sep_theta_integral)
from dsmimo.corrmat import Spectrum
from dsmimo.detform import NumericFailure

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
        # 3 full blocks plus a partial one, through the reduced draw of the
        # capacity (G, then the bidiagonal factor) and the bidiagonal factor
        # alone for mc_sep and mc_kurtosis_eff: the spiked draw (m = 2) and the
        # Golub-Kahan chain (exponential m = 3); the pinned values fix the
        # stream layout, so a change to the draw order fails here (the SEPs
        # re-pinned within 2e-14 when the angular rule was folded at pi/2,
        # the capacity's error within 3 ulp when its term became a log1p)
        scenarios = [Scenario(2, 3, 2, exponential_corr(2, 0.5), identity_corr(3),
                              constant_corr(2, 0.3)),
                     Scenario(3, 5, 3, exponential_corr(3, 0.5), identity_corr(5),
                              constant_corr(3, 0.3))]
        cfg = MonteCarloConfig(3 * BLOCK_SIZE + 4321, seed=2026)

        def run():
            out = []
            for scn in scenarios:
                out += [mc_sep(scn, PskConstellation(8), 10.0, cfg), *mc_kurtosis_eff(scn, cfg)]
            return out + [mc_capacity(scenarios[0], 10.0, "ostbc", cfg)]

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
        pinned = [("0x1.3efb20b3cd149p-4", "0x1.afcf6141eed84p-14"),
                  ("0x1.bb5692a60ca83p+0", "0x1.17c00e704106ap-10"),
                  ("-0x1.5b2bc7faba61ep+0", "0x1.9f0ec30917ac6p-8"),
                  ("0x1.36a99c54c9c07p-7", "0x1.55e31a54486e0p-16"),
                  ("0x1.59d6c0b019947p+0", "0x1.9520039e8252cp-12"),
                  ("-0x1.230e712c3991ap+2", "0x1.39597c4c54eb3p-8"),
                  ("0x1.003c8732f816ep+2", "0x1.3a6193a7b950cp-9")]
        assert [(e.value.hex(), e.std_error.hex()) for e in pooled] == pinned

    def test_unconditioned_paths_keep_their_draws(self):
        # Monte Carlo conditions on the bidiagonal factor only where the
        # draw is reduced (phi_s = I and n_s > m); phi_s != I, n_s <= m and
        # rich scattering keep their draws and estimates, pinned as the
        # values before the conditional estimators existed (standard errors
        # re-pinned within a few ulp when the log det changed its rounding,
        # and when batch sums came to be added slice by slice; the SEPs
        # re-pinned within 2e-14 when the angular rule came to be folded at
        # pi/2; the capacities' errors re-pinned within 5 ulp when every
        # term came to be one log1p of unscaled columns).  The README capacities are pinned to the reduced draw of G,
        # then the bidiagonal factor
        cfg = MonteCarloConfig(5000, seed=77)
        psk = PskConstellation(4)
        scenarios = {
            "phi_s": Scenario(3, 4, 2, constant_corr(3, 0.6), constant_corr(4, 0.5),
                              constant_corr(2, 0.3)),
            "n_s<=m": Scenario(3, 2, 2, exponential_corr(3, 0.4), identity_corr(2),
                               constant_corr(2, 0.3)),
            "rich": Scenario(2, 3, 2, constant_corr(2, 0.5), identity_corr(3),
                             constant_corr(2, 0.4), no_double_scattering=True)}
        got = {}
        for name, scn in scenarios.items():
            got[name, "sep"] = mc_sep(scn, psk, 10.0, cfg)
            got[name, "kurt"] = mc_kurtosis_eff(scn, MonteCarloConfig(10_000, seed=77))[0]
        readme = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                          constant_corr(4, 0.5), g4())
        for mode in ("general", "ostbc"):
            got["readme", mode] = mc_capacity(readme, 10.0, mode, cfg)
        pinned = {
            ("phi_s", "sep"): ("0x1.0b2c054074e6cp-8", "0x1.3428f000edd0ap-12"),
            ("phi_s", "kurt"): ("0x1.cffab11eb9d04p+0", "0x1.84b5d519a9105p-6"),
            ("n_s<=m", "sep"): ("0x1.64f8ae51e11e8p-8", "0x1.33da57d58353ap-12"),
            ("n_s<=m", "kurt"): ("0x1.b63c724e0d1a7p+0", "0x1.d827505a6f9e7p-7"),
            ("rich", "sep"): ("0x1.9169191f1ae94p-9", "0x1.6a7af6f23676bp-13"),
            ("rich", "kurt"): ("0x1.5b9e3e530694cp+0", "0x1.ae8d99b12769dp-8"),
            ("readme", "general"): ("0x1.14c9127cd1277p+3", "0x1.4a38c3b32b6e5p-6"),
            ("readme", "ostbc"): ("0x1.0cb7a6726c275p+2", "0x1.08696c0932e98p-7")}
        assert {k: (e.value.hex(), e.std_error.hex()) for k, e in got.items()} == pinned

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
        # README scenario and its rich-scattering limit: one 2^16-trial block
        # is drawn and reduced slice by slice, so no call holds a block-sized
        # H1 or H2 (42 MB and 21 MB for 4x10x4), nor a block of per-trial
        # values or of the rich ||H||^2 draw's exponentials (8 MiB for 4x4)
        scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                       constant_corr(4, 0.5), g4())
        rich = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                        constant_corr(4, 0.5), g4(), no_double_scattering=True)
        cfg = MonteCarloConfig(BLOCK_SIZE, seed=3)
        sep_grid, capacity_grid = db(np.arange(0.0, 32.0, 2.0)), db(np.arange(-20.0, 1.0, 5.0))
        calls = {"sep": lambda: mc_sep(scn, PskConstellation(8), 10.0, cfg),
                 "general": lambda: mc_capacity(scn, 10.0, "general", cfg),
                 "kurtosis": lambda: mc_kurtosis_eff(scn, cfg),
                 "rich sep": lambda: mc_sep(rich, PskConstellation(8), 10.0, cfg),
                 "rich kurtosis": lambda: mc_kurtosis_eff(rich, cfg),
                 "rich ostbc": lambda: mc_capacity(rich, 10.0, "ostbc", cfg),
                 # a grid streams its per-SNR values into the table one at a
                 # time, so it holds no more than its scalar call
                 "sep grid": lambda: mc_sep(scn, PskConstellation(8), sep_grid, cfg),
                 "general grid": lambda: mc_capacity(scn, capacity_grid, "general", cfg),
                 "rich ostbc grid": lambda: mc_capacity(rich, capacity_grid, "ostbc", cfg)}
        peaks = {}
        tracemalloc.start()
        try:
            for name, call in calls.items():
                tracemalloc.reset_peak()
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < 24 * 2**20, peaks
        assert max(peaks["rich kurtosis"], peaks["rich ostbc"]) < 4 * 2**20, peaks
        for name in ("sep", "general", "rich ostbc"):
            assert peaks[f"{name} grid"] <= peaks[name] + 2**20, peaks

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
        cf = sep_mpsk(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=400_000, seed=23))
        assert abs(est.value - cf) < 3 * est.std_error

    def test_draw_cost_does_not_grow_with_scatterers(self, monkeypatch):
        # phi_s = I: mc_sep and mc_kurtosis_eff draw only the m x m
        # bidiagonal factor, whatever n_s is, so no n_s-sized array is
        # drawn: a constant 4-side takes 2m - 1 = 7 gammas a trial (the
        # spiked draw), an exponential one m(m-1) = 12 normals and m = 4
        # gammas (the Golub-Kahan chain).  Both capacities draw G's
        # 2 n_r n_t = 32 normals first: 32 normals and 7 gammas a trial on
        # the constant side, 44 normals and 4 gammas on the exponential one
        counts = {"standard_normal": 0, "standard_gamma": 0}

        class Counting:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, attr):
                method = getattr(self._gen, attr)
                if attr not in counts:
                    return method

                def counted(*args, **kwargs):
                    x = method(*args, **kwargs)
                    counts[attr] += x.size
                    return x

                return counted

        monkeypatch.setattr(mc_mod, "substream",
                            lambda seed, index: Counting(substream(seed, index)))
        calls = {"mc_sep": (16, 0, lambda scn, cfg: mc_sep(scn, PskConstellation(8), 10.0, cfg)),
                 "mc_kurtosis_eff": (10_000, 0, mc_kurtosis_eff),
                 "general": (16, 32, lambda scn, cfg: mc_capacity(scn, 10.0, "general", cfg)),
                 "ostbc": (16, 32, lambda scn, cfg: mc_capacity(scn, 10.0, "ostbc", cfg))}
        sides = {"constant": (constant_corr(4, 0.5), {"standard_normal": 0, "standard_gamma": 7}),
                 "exponential": (exponential_corr(4, 0.5),
                                 {"standard_normal": 12, "standard_gamma": 4})}
        per_trial, expect = {}, {}
        for name, (trials, g_normals, call) in calls.items():
            for side, (phi, cost) in sides.items():
                for n_s in (10, 10_000):
                    counts.update(dict.fromkeys(counts, 0))
                    scn = Scenario(4, n_s, 4, phi, identity_corr(n_s), constant_corr(4, 0.5), g4())
                    call(scn, MonteCarloConfig(trials, seed=5))
                    per_trial[name, side, n_s] = {k: v / trials for k, v in counts.items()}
                    expect[name, side, n_s] = {
                        **cost, "standard_normal": cost["standard_normal"] + g_normals}
        assert per_trial == expect

    def test_large_m_stays_within_memory(self):
        # 12x24x12: mc_sep conditions on the bidiagonal factor at any m, its
        # coefficients O(m^2) a trial, and mc_kurtosis_eff needs only tr W
        # and tr W^2
        m = 12
        scn = Scenario(m, 2 * m, m, constant_corr(m, 0.5), identity_corr(2 * m),
                       constant_corr(m, 0.5))
        psk = PskConstellation(8)
        peaks, ests = [], []
        tracemalloc.start()
        try:
            for call in (lambda: mc_sep(scn, psk, 10.0, MonteCarloConfig(8192, seed=4)),
                         lambda: mc_kurtosis_eff(scn, MonteCarloConfig(10_000, seed=4))):
                tracemalloc.reset_peak()
                ests.append(call())
                peaks.append(tracemalloc.get_traced_memory()[1])
                assert all(math.isfinite(e.value) for e in np.atleast_1d(ests[-1]))
        finally:
            tracemalloc.stop()
        assert max(peaks) < 64 * 2**20, peaks
        sep = ests[0]
        assert abs(sep.value - sep_mpsk(scn, psk, 10.0)) <= 3 * sep.std_error

    def test_estimate_fields(self):
        scn = Scenario.uncorrelated(1, 2, 1)
        est = mc_sep(scn, PskConstellation(2), 1.0,
                     MonteCarloConfig(trials=4096, seed=5))
        assert isinstance(est, Estimate)
        assert est.trials == 4096
        assert est.std_error >= 0

    @pytest.mark.parametrize("power", [-600, -1000])
    def test_standard_error_scales_with_the_trials(self, power):
        # squares of batch means below about 1e-154 underflowed to 0:
        # scaling every trial by a power of two must scale the estimate
        # and its standard error exactly
        cfg, scale = MonteCarloConfig(trials=4096, seed=5), 2.0**power

        def estimate(factor):
            return mc_mod._mean_estimates(
                cfg, lambda rng, b: [factor * rng.standard_exponential(b)], 1)[0]

        ref, got = estimate(1.0), estimate(scale)
        assert ref.std_error > 0
        assert (got.value, got.std_error) == (scale * ref.value, scale * ref.std_error)

    @pytest.mark.parametrize("trials", [1, 2, 16, 40])
    def test_standard_error_below_64_trials_is_batch_means(self, trials):
        # below 64 trials some batch holds at most one trial; the error is
        # still that of the batch means, over the non-empty batches, and a
        # single trial's is 0
        cfg = MonteCarloConfig(trials, seed=5)
        est = mc_mod._mean_estimates(cfg, lambda rng, b: [rng.standard_exponential(b)], 1)[0]
        v = substream(5, 0).standard_exponential(trials)
        batch = np.arange(trials) * mc_mod.N_BATCHES // trials
        means = np.array([v[batch == k].mean() for k in np.unique(batch)])
        assert est.value == pytest.approx(v.mean(), rel=1e-15)
        if trials == 1:
            assert est.std_error == 0.0
        else:
            assert 0.0 < est.std_error < math.inf
            assert est.std_error == pytest.approx(
                means.std(ddof=1) / math.sqrt(means.size), rel=1e-13)

    def test_standard_error_of_a_rare_event_is_positive(self):
        # 4x2x2 g4 at 46 dB: a few trials carry the whole mean, 5.8e-253,
        # whose standard error once read 0
        est = mc_sep(Scenario.uncorrelated(4, 2, 2, g4()), PskConstellation(8), db(46.0),
                     MonteCarloConfig(trials=1000, seed=1))
        assert 1e-254 < est.value < 1e-251
        assert est.value / 2 < est.std_error < 2 * est.value


def bidiagonal_slices(scn, rng, size, tilted=False):
    """(d2, f2, w) for each slice of a size-trial block, drawn in the order
    in which mc._accumulate walks it, from one plan of the scenario."""
    plan = SlicePlan(scn)
    return [bidiagonal_slice(plan, rng, min(SLICE, size - lo), tilted)
            for lo in range(0, size, SLICE)]


def _bidiagonal(side, n_s, count, seed, chain=False):
    """(d2, f2) of `count` bidiagonal factors with small side `side` and
    n_s scatterers, as mc_sep and mc_kurtosis_eff draw them; chain=True runs
    the Golub-Kahan chain whatever the spectrum."""
    m = side.dim
    scn = Scenario(m, n_s, m, side, identity_corr(n_s), identity_corr(m))
    with pytest.MonkeyPatch.context() as patch:
        if chain:
            patch.setattr(matstat, "_spike", lambda spectrum: None)
        d2, f2 = zip(*((d2, f2) for d2, f2, _ in
                       bidiagonal_slices(scn, substream(seed, 0), count)))
    return np.concatenate(d2, axis=1), np.concatenate(f2, axis=1)


def _mp_det_coefficients(d2, f2):
    """e_j of det(I + y W) at 50 digits, W = B^T B for the upper-bidiagonal
    B with entries sqrt(d2) and sqrt(f2): mpmath forms W, then expands
    det(I + y W) along its tridiagonal, D_k = (1 + y W_kk) D_(k-1)
    - y^2 W_(k-1,k)^2 D_(k-2)."""
    m = len(d2)
    with mpmath.workdps(50):
        b = mpmath.zeros(m, m)
        for i in range(m):
            b[i, i] = mpmath.sqrt(mpmath.mpf(float(d2[i])))
            if i + 1 < m:
                b[i, i + 1] = mpmath.sqrt(mpmath.mpf(float(f2[i])))
        w = b.T * b
        prev, cur = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for k in range(m):
            nxt = cur + [mpmath.mpf(0)]
            for j, c in enumerate(cur):
                nxt[j + 1] += w[k, k] * c
            if k:
                for j, c in enumerate(prev):
                    nxt[j + 2] -= w[k - 1, k] ** 2 * c
            prev, cur = cur, nxt
        return cur


def _mp_fold(e, factors):
    """Coefficients of prod_k (sum_j e_j (a_k x)^j)^mu_k at 50 digits."""
    with mpmath.workdps(50):
        out = [mpmath.mpf(1)]
        for a, mu in factors:
            p = [c * mpmath.mpf(a) ** j for j, c in enumerate(e)]
            for _ in range(mu):
                nxt = [mpmath.mpf(0)] * (len(out) + len(p) - 1)
                for i, u in enumerate(out):
                    for j, v in enumerate(p):
                        nxt[i + j] += u * v
                out = nxt
        return out


class TestConditionalKernel:
    """The e_j / polynomial code of the conditional SEP against 50-digit
    mpmath, on bidiagonal factors as drawn (the spiked draw of a constant
    side, the Golub-Kahan chain of an exponential one) and on near-singular
    ones."""

    @staticmethod
    def factors():
        cases = []
        for (m, n_s), seed in [((1, 6), 1), ((2, 5), 2), ((3, 7), 3), ((4, 10), 4),
                               ((5, 9), 5), ((12, 24), 6)]:
            for side, chain in ((constant_corr(m, 0.5), False), (exponential_corr(m, 0.5), True)):
                d2, f2 = _bidiagonal(side, n_s, 6, seed, chain)
                for k, tiny in enumerate((1e-4, 1e-8)):
                    # a squared diagonal (Gamma draw) and a squared
                    # superdiagonal entry near zero: a near-singular W
                    d2[m - 1 - k % m, k] *= tiny
                    if m > 1:
                        f2[k % (m - 1), k] *= tiny
                cases.append((d2, f2))
        return cases

    def test_coefficients_match_mpmath(self):
        for d2, f2 in self.factors():
            got = mc_mod._path_coefficients(d2, f2)
            for i in range(d2.shape[1]):
                ref = np.array(_mp_det_coefficients(d2[:, i], f2[:, i]), dtype=float)
                np.testing.assert_allclose(got[:, i], ref, rtol=1e-12, atol=0)

    def test_folded_polynomial_matches_mpmath(self):
        factors = [(2.5 / 10, 1), (0.5 / 10, 3)]  # constant rho = 0.5, n = 4, n_s = 10
        for d2, f2 in self.factors():
            got = mc_mod._fold(mc_mod._path_coefficients(d2, f2), factors)
            assert got.shape == (4 * len(d2) + 1, d2.shape[1])
            for i in range(d2.shape[1]):
                ref = np.array(_mp_fold(_mp_det_coefficients(d2[:, i], f2[:, i]), factors),
                               dtype=float)
                np.testing.assert_allclose(got[:, i], ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dims", [(4, 10, 4), (4, 10, 16), (16, 20, 4), (12, 24, 12)])
    def test_theta_stage_finite_up_to_40_db(self, dims):
        # the largest theta node at 40 dB puts x near 1e10, where x^64 of
        # the 4x10x16 polynomial would overflow a double; the basis
        # x^j/(1+x)^d keeps every value finite, and at 10 and 40 dB each
        # trial matches the same Gauss-Legendre sum of 1/P(x) at 50 digits
        n_t, n_s, n_r = dims
        d2, f2 = _bidiagonal(constant_corr(min(n_t, n_r), 0.5), n_s, 8, 6)
        d2[-1, 0] *= 1e-16  # a diagonal entry of B scaled by 1e-8
        big = constant_corr(max(n_t, n_r), 0.5).spectrum
        factors = [(rho / n_s, mu) for rho, mu in big.distinct]
        coef = mc_mod._fold(mc_mod._path_coefficients(d2, f2), factors)
        psk = PskConstellation(8)
        th, w = sep_mod.theta_rule(psk.theta_max)
        for snr_db in (10.0, 40.0):
            scale = db(snr_db) / (n_t * 0.75)
            x = scale * psk.g / np.sin(th) ** 2
            got = conditional_sep_polynomial(coef, psk, scale)
            assert np.all(np.isfinite(got)) and np.all((got >= 0) & (got <= psk.sep_ceiling))
            with mpmath.workdps(50):
                for i in (0, 1):
                    c = [mpmath.mpf(float(v)) for v in coef[:, i]]
                    ref = mpmath.fsum(mpmath.mpf(float(wk)) / mpmath.polyval(c[::-1],
                                                                            mpmath.mpf(float(xk)))
                                      for wk, xk in zip(w, x)) / mpmath.pi
                    assert got[i] == pytest.approx(float(ref), rel=1e-12)


def _gram_statistics(w):
    """e_1..e_m of det(I + y W) and log det(I + 0.7 W) for a stack of
    Grams, from their eigenvalues."""
    lam = np.clip(np.linalg.eigvalsh(w), 0.0, None)
    e = np.zeros((lam.shape[1] + 1, len(lam)))
    e[0] = 1.0
    for col in lam.T:
        e[1:] = e[1:] + col * e[:-1]
    return [*e[1:], np.log1p(0.7 * lam).sum(axis=1)]


class TestBidiagonalLaw:
    """Both bidiagonal draws against an independent reference, eigvalsh of
    the Gram of an explicit n_s x m Gaussian whose columns are scaled by
    sqrt(c), c the small side's spectrum: two-sample KS tests of each e_j
    and of log det(I + 0.7 W)."""

    N = 20_000

    def p_values(self, side, n_s, seed, chain):
        d2, f2 = _bidiagonal(side, n_s, self.N, seed, chain)
        b = np.zeros((self.N, side.dim, side.dim))
        i = np.arange(side.dim)
        b[:, i, i] = np.sqrt(d2.T)
        b[:, i[:-1], i[1:]] = np.sqrt(f2.T)
        x = cgauss(np.random.default_rng(seed), self.N, n_s, side.dim)
        x *= np.sqrt(side.spectrum.expand())
        ref = _gram_statistics(x.conj().transpose(0, 2, 1) @ x)
        got = _gram_statistics(b.transpose(0, 2, 1) @ b)
        return [ks_2samp(a, r).pvalue for a, r in zip(got, ref)]

    @pytest.mark.parametrize("side,n_s,chain", [
        (identity_corr(4), 10, False), (identity_corr(4), 10, True),
        (constant_corr(4, 0.5), 10, False), (constant_corr(4, 0.5), 10, True),
        (constant_corr(6, 0.5), 8, False), (constant_corr(6, 0.5), 8, True),
        (exponential_corr(4, 0.5), 10, True), (exponential_corr(6, 0.5), 9, True),
        (tridiagonal_corr(4, 0.4), 10, True)],
        ids=["identity-4x10-spiked", "identity-4x10-chain", "constant-4x10-spiked",
             "constant-4x10-chain", "constant-6x8-spiked", "constant-6x8-chain",
             "exponential-4x10", "exponential-6x9", "tridiagonal-4x10"])
    def test_matches_explicit_gram(self, side, n_s, chain):
        assert chain or matstat._spike(side.spectrum) is not None
        p = self.p_values(side, n_s, seed=31, chain=chain)
        assert min(p) >= 0.01, p

    def test_spiked_draw_rejects_an_exponential_side(self, monkeypatch):
        # negative control: the spiked draw with the exponential spectrum's
        # largest eigenvalue over the mean of the others (the right tr W)
        side = exponential_corr(4, 0.5)
        c = side.spectrum.expand()
        monkeypatch.setattr(matstat, "_spike", lambda spectrum: (c[0], c[1:].mean()))
        p = self.p_values(side, 10, seed=31, chain=False)
        assert min(p) < 1e-6, p


class TestTiltedBartlettDraw:
    """bidiagonal_slice tilted: every TILT_EVERY-th trial takes
    Gamma(n_s - i - tilt) on the diagonal, tilt = 4 the README plan's, and
    w reweights to the untilted law."""

    SCN = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                   constant_corr(4, 0.5))

    def draws(self, tilted, size=1 << 16, seed=3):
        return bidiagonal_slices(self.SCN, substream(seed, 0), size, tilted=tilted)

    def test_plan_derives_the_tilt(self):
        # the unreduced side's dimension: n_r for README, n_t when n_r < n_t
        assert SlicePlan(self.SCN).tilt == 4
        assert SlicePlan(Scenario.uncorrelated(4, 10, 2)).tilt == 4
        assert SlicePlan(Scenario.uncorrelated(1, 6, 1)).tilt == 1

    def test_untilted_draw_has_no_weights(self):
        assert all(w is None for *_, w in self.draws(False, size=5000))

    def test_weights_reproduce_untilted_moments(self):
        # E[w] = 1 and E[w det W] = prod_i c_i (n_s - i), c the transmit
        # spectrum and det W = prod d2, within 4 standard errors; weights
        # stay below 1/(1 - 1/8)
        draws = self.draws(True)
        w = np.concatenate([w for *_, w in draws])
        det = np.concatenate([np.prod(d2, axis=0) for d2, _, _ in draws])
        assert np.all((w >= 0) & (w <= 8 / 7 + 1e-12))
        c = self.SCN.phi_t.spectrum.expand()
        for x, mean in ((w, 1.0), (w * det, float(np.prod(c * (10 - np.arange(4)))))):
            assert abs(x.mean() - mean) <= 4 * x.std() / math.sqrt(x.size), (x.mean(), mean)

    def test_tilted_trials_draw_the_tilted_shapes(self):
        # the tilted trials' mean diagonal gamma is n_s - i - tilt (floored
        # at 1/2), the others' n_s - i
        (d2, f2, w), = self.draws(True, size=4096)
        g = d2.T / self.SCN.phi_t.spectrum.expand()
        hit = np.arange(len(g)) % TILT_EVERY == 0
        shapes = 10.0 - np.arange(4)
        for rows, expect in ((hit, np.maximum(shapes - 4, 0.5)), (~hit, shapes)):
            se = np.sqrt(expect / rows.sum())
            assert np.all(np.abs(g[rows].mean(axis=0) - expect) <= 4 * se)


@pytest.mark.parametrize("tx", [constant_corr(4, 0.5), exponential_corr(4, 0.5)],
                         ids=["spiked", "chain"])
def test_slices_take_the_untilted_bidiagonal_draw(tx):
    # channel_slice and _frob_moments read B from bidiagonal_slice's
    # untilted draw: the same variates, the stream left where that draw
    # (after G's 2 n_r n_t normals a trial, for channel_slice) leaves it
    scn = Scenario(4, 10, 4, tx, identity_corr(10), constant_corr(4, 0.5))
    plan, b = SlicePlan(scn), 1000

    def reference(skip):
        rng = substream(4, 0)
        rng.standard_normal(skip)
        return (*bidiagonal_slice(plan, rng, b), rng.standard_normal(4))

    d2, f2, w, after = reference(0)
    assert w is None
    rng = substream(4, 0)
    m1, m2 = mc_mod._frob_moments(plan, rng, b)
    assert np.array_equal(rng.standard_normal(4), after)
    # E[X|B] and E[X^2|B] from tr W and tr W^2 of W = B^H B
    phi = plan.sides[0].spectrum
    w_ii = d2 + np.vstack([np.zeros(b), f2])
    tr_w, tr_w2 = w_ii.sum(axis=0), (w_ii ** 2).sum(axis=0) + 2 * (d2[:-1] * f2).sum(axis=0)
    assert m1 == pytest.approx(phi.trace_power(1) / 10 * tr_w, rel=1e-13)
    assert m2 == pytest.approx(m1 ** 2 + phi.trace_power(2) / 100 * tr_w2, rel=1e-13)
    rng = substream(4, 0)
    matstat.channel_slice(plan, rng, b)
    assert np.array_equal(rng.standard_normal(4), reference(2 * 4 * 4 * b)[-1])


class TestConditionalCalibration:
    """mc_sep conditioned on the bidiagonal factor against the closed form."""

    README = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                      constant_corr(4, 0.5), g4())

    def runs(self, snr_db, seeds=range(10), trials=1 << 16, scn=README):
        psk = PskConstellation(8)
        cf = sep_mpsk(scn, psk, db(snr_db))
        ests = [mc_sep(scn, psk, db(snr_db), MonteCarloConfig(trials, seed)) for seed in seeds]
        return cf, np.array([e.value for e in ests]), np.array([e.std_error for e in ests])

    @pytest.mark.parametrize("snr_db", [10.0, 15.0, 20.0])
    def test_every_seed_within_3_sigma(self, snr_db):
        cf, v, se = self.runs(snr_db)
        assert np.all(np.abs(v - cf) <= 3 * se), (v - cf) / se
        assert se.max() / se.min() <= 2.0, se

    @pytest.mark.parametrize("snr_db", [30.0, 40.0])
    def test_high_snr_finite_and_within_3_sigma(self, snr_db):
        # the tilted diagonal keeps the per-trial values light-tailed where
        # the conditional SEP grows like det(W)^(-n_r)
        cf, v, se = self.runs(snr_db)
        assert np.all(np.isfinite(v) & (v > 0) & np.isfinite(se) & (se > 0))
        assert np.all(np.abs(v - cf) <= 3 * se), (v - cf) / se

    @pytest.mark.parametrize("scn,snr_db", [
        (Scenario.uncorrelated(1, 6, 1), 10.0), (Scenario.uncorrelated(1, 6, 1), 20.0),
        # n_r < n_t: the bidiagonal factor takes the receive side's spectrum
        (Scenario(4, 10, 2, constant_corr(4, 0.5), identity_corr(10),
                  exponential_corr(2, 0.3), g4()), 10.0),
        (Scenario(4, 10, 2, constant_corr(4, 0.5), identity_corr(10),
                  exponential_corr(2, 0.3), g4()), 20.0),
        # an exponential small side: the Golub-Kahan chain
        (Scenario(4, 10, 4, exponential_corr(4, 0.5), identity_corr(10),
                  exponential_corr(4, 0.5), g4()), 10.0),
        # m = 8, above what the squared-minor tables could hold
        (Scenario(8, 16, 8, constant_corr(8, 0.5), identity_corr(16),
                  constant_corr(8, 0.3)), 10.0)],
        ids=["10.0-1x6x1", "20.0-1x6x1", "10.0-4x10x2", "20.0-4x10x2",
             "10.0-4x10x4-exponential", "10.0-8x16x8"])
    def test_both_orientations(self, scn, snr_db):
        cf, v, se = self.runs(snr_db, seeds=[11], scn=scn)
        assert abs(v[0] - cf) <= 3 * se[0]


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
        monkeypatch.setattr(mc_mod, "_frob_sq",
                            lambda plan, rng, n: np.ones(n))
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

    @staticmethod
    def log_det_draw(dims):
        """2000 channels for the log det checks: exponential 0.6 transmit,
        constant 0.4 receive, or a keyhole (n_s = 1) of identity sides."""
        n_t, n_s, n_r = dims
        if n_s > 1:
            scn = Scenario(n_t, n_s, n_r, exponential_corr(n_t, 0.6),
                           identity_corr(n_s), constant_corr(n_r, 0.4))
        else:
            scn = Scenario.uncorrelated(n_t, n_s, n_r)
        return sample_channel(scn, substream(3, 0), size=2000)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("dims", [(4, 10, 4), (2, 5, 3), (3, 4, 2), (3, 1, 4), (4, 1, 3)])
    def test_log_det_matches_eigenvalue_form(self, dims, c):
        n_t, n_s, n_r = dims
        h = self.log_det_draw(dims)
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

    @pytest.mark.parametrize("c", [1e-8, 1e-5])
    @pytest.mark.parametrize("dims", [(4, 10, 4), (2, 5, 3), (3, 4, 2), (3, 1, 4), (4, 1, 3)])
    def test_log_det_keeps_relative_accuracy_at_low_snr(self, dims, c):
        # at low SNR each eigenvalue adds about c lambda, so the value is
        # itself small and its relative accuracy needs no absolute floor
        n_t, n_s, n_r = dims
        h = self.log_det_draw(dims)
        got = mc_mod._log2_det_eye_plus(c, h)
        if n_s > 1:
            hh = h.conj().transpose(0, 2, 1)
            gram = h @ hh if n_r <= n_t else hh @ h
            ref = np.log1p(c * np.linalg.eigvalsh(gram)).sum(axis=1) / math.log(2)
        else:
            ref = np.log1p(c * np.einsum("bij,bij->b", h, h.conj()).real) / math.log(2)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_ostbc_term_is_one_log1p(self, monkeypatch):
        # one trial of a fixed ||H||^2 = x, rate 1: the estimate is the term
        # log2(1 + c x) itself, c = snr/(n_t rate).  It read log2 of a
        # rounded 1 + c x, 0 for c x below 1e-16; it must be log1p(c x)/ln 2
        # within 4 ulp down to c x = 1e-300, and log2 c + log2(x + 1/c)
        # where c x overflows
        scn = Scenario.uncorrelated(2, 3, 2)
        unit = sep_mod.ostbc_snr_scale(scn)
        assert scn.rate == 1

        def terms(x, snr):
            monkeypatch.setattr(mc_mod, "_frob_sq", lambda plan, rng, b: np.full(b, x))
            ests = mc_capacity(scn, snr, "ostbc", MonteCarloConfig(1, seed=1))
            return np.array([e.value for e in ests])

        def exact(x, snr):
            with mpmath.workdps(40):
                return np.array([float(mpmath.log1p(mpmath.mpf(s * unit) * x) / mpmath.log(2))
                                 for s in snr])

        x = 0.7
        small = 10.0 ** np.arange(-300.0, 1.0, 5.0) / (unit * x)
        got, want = terms(x, small), exact(x, small)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        x, huge = 1e10, [1e300, 1e305, 1.7e308]
        assert all(s * unit * x == math.inf for s in huge)
        got, want = terms(x, huge), exact(x, huge)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_general_capacity_needs_no_qr(self, monkeypatch):
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                       constant_corr(4, 0.5), g4())
        for s in (scn, Scenario.uncorrelated(3, 1, 4), Scenario.uncorrelated(2, 2, 3)):
            est = mc_capacity(s, 10.0, "general", MonteCarloConfig(matstat.SLICE + 3, seed=1))
            assert math.isfinite(est.value) and est.value > 0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            mc_capacity(Scenario.uncorrelated(1, 1, 1), 1.0, "waterfill",
                        MonteCarloConfig(trials=1024, seed=1))


README = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                  constant_corr(4, 0.5), g4())


class TestSnrGrid:
    """mc_sep and mc_capacity over an SNR grid: one pass draws each slice
    once, and every point equals the scalar call at that SNR bit for bit."""

    SEP_GRID = [db(0.0), db(10.0), db(20.0)]
    CAPACITY_GRID = [db(-20.0), db(-5.0), db(10.0)]
    ROUTES = {
        # conditioned on the bidiagonal factor: the spiked draw, the chain
        "readme sep": lambda snr, cfg: mc_sep(README, PskConstellation(8), snr, cfg),
        "chain sep": lambda snr, cfg: mc_sep(
            Scenario(3, 5, 3, exponential_corr(3, 0.5), identity_corr(5),
                     constant_corr(3, 0.3)), PskConstellation(8), snr, cfg),
        # unconditioned: the full channel draw, and rich scattering's exponentials
        "exponential sep": lambda snr, cfg: mc_sep(
            Scenario(3, 4, 2, exponential_corr(3, 0.5), exponential_corr(4, 0.5),
                     exponential_corr(2, 0.5)), PskConstellation(4), snr, cfg),
        "rich sep": lambda snr, cfg: mc_sep(
            Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                     constant_corr(4, 0.5), g4(), no_double_scattering=True),
            PskConstellation(8), snr, cfg),
        "general": lambda snr, cfg: mc_capacity(README, snr, "general", cfg),
        "ostbc": lambda snr, cfg: mc_capacity(README, snr, "ostbc", cfg)}

    @staticmethod
    def bits(estimates):
        return [(e.value.hex(), e.std_error.hex(), e.trials) for e in estimates]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [SLICE + 3, 2 * BLOCK_SIZE + 5])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_grid_equals_scalar_calls(self, route, trials, workers, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        call, cfg = self.ROUTES[route], MonteCarloConfig(trials, seed=2024)
        grid = self.SEP_GRID if route.endswith("sep") else self.CAPACITY_GRID
        got = call(grid, cfg)
        assert type(got) is list and all(type(e) is Estimate for e in got)
        assert self.bits(got) == self.bits([call(snr, cfg) for snr in grid])

    def test_one_point_grid_is_a_list(self):
        cfg = MonteCarloConfig(1024, seed=3)
        scalar = mc_sep(README, PskConstellation(8), 10.0, cfg)
        for grid in ([10.0], (10.0,), np.array([10.0])):
            got = mc_sep(README, PskConstellation(8), grid, cfg)
            assert type(got) is list and self.bits(got) == self.bits([scalar])
            assert len(mc_capacity(README, grid, "ostbc", cfg)) == 1
        assert type(mc_sep(README, PskConstellation(8), np.float64(10.0), cfg)) is Estimate

    @pytest.mark.parametrize("grid", [[], np.array([]), [1.0, 0.0], [1.0, -2.0],
                                      [math.nan, 1.0], [1.0, math.inf], [[1.0, 2.0]]])
    def test_bad_grid_raises(self, grid):
        cfg = MonteCarloConfig(1024, seed=1)
        for call in (lambda: mc_sep(README, PskConstellation(8), grid, cfg),
                     lambda: mc_capacity(README, grid, "general", cfg),
                     lambda: mc_capacity(README, grid, "ostbc", cfg)):
            with pytest.raises(ValueError, match="snr must be"):
                call()

    def test_sep_curve_draws_each_slice_once(self, monkeypatch, tmp_path):
        # 11 SNR points at 8192 trials: two slices, each drawn once for the
        # whole curve rather than once per point
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return bidiagonal_slice(*args, **kwargs)

        monkeypatch.setattr(mc_mod, "bidiagonal_slice", counted)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("scenario.n_t = 4\nscenario.n_s = 10\nscenario.n_r = 4\n"
                        "corr.tx.model = constant\ncorr.tx.rho = 0.5\n"
                        "corr.rx.model = constant\ncorr.rx.rho = 0.5\ncode = g4\n"
                        "psk.m = 8\nsnr.start_db = 0\nsnr.stop_db = 20\nsnr.step_db = 2\n"
                        "mc.seed = 1\n", encoding="utf-8")
        out = tmp_path / "c.csv"
        assert main(["sep-curve", "--config", str(cfgp), "--out", str(out),
                     "--trials", "8192"]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 12
        assert calls == [SLICE, SLICE]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["general", "ostbc"])
@pytest.mark.parametrize("scn", [
    README, Scenario.uncorrelated(4, 10, 1, g4()),
    Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10), constant_corr(4, 0.5), g4(),
             no_double_scattering=True)], ids=["readme", "miso", "rich"])
def test_capacity_near_float_max_is_finite(scn, mode):
    # near the top of the float range c ||x_j||^2 or scale ||H||^2
    # overflows, and those terms are taken in log space: at 1.7e308 the
    # estimate is the high-SNR limit of the same draws, m log2(snr/n_t) +
    # log2 det of the m x m Gram (general) or rate log2(scale ||H||^2)
    # (OSTBC), and a grid call equals the scalar calls
    cfg = MonteCarloConfig(1024, seed=6)
    grid = [*10.0 ** np.arange(300.0, 309.0), 1.7e308]
    scalar = [mc_capacity(scn, snr, mode, cfg) for snr in grid]
    assert all(math.isfinite(e.value) and math.isfinite(e.std_error) for e in scalar)
    assert mc_capacity(scn, grid, mode, cfg) == scalar
    snr = grid[-1]
    if mode == "general":
        d = matstat.channel_slice(SlicePlan(scn), substream(6, 0), 1024)
        dh = d.conj().transpose(0, 2, 1)
        gram = dh @ d if d.shape[1] >= d.shape[2] else d @ dh
        ref = (gram.shape[1] * math.log2(snr / scn.n_t)
               + np.linalg.slogdet(gram)[1] / math.log(2.0))
    else:
        x = mc_mod._frob_sq(SlicePlan(scn), substream(6, 0), 1024)
        ref = float(scn.rate) * (math.log2(snr * sep_mod.ostbc_snr_scale(scn)) + np.log2(x))
    assert scalar[-1].value == pytest.approx(ref.mean(), rel=1e-12)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rich", [False, True])
def test_overflowing_snr_gives_a_finite_estimate(rich):
    # README scenario at snr = 1e304: x = scale g/sin^2 theta overflows to
    # inf at the nodes nearest theta = 0; the conditioned theta stage takes that
    # as its basis's last column (it read NaN +- NaN from inf/inf), and the
    # unconditioned one floors its exponent
    scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                   constant_corr(4, 0.5), g4(), no_double_scattering=rich)
    est = mc_sep(scn, PskConstellation(8), 1e304, MonteCarloConfig(4096, seed=1))
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert 0.0 <= est.value <= 1e-300


def test_rate_formula_examples():
    from fractions import Fraction

    assert ostbc_rate(2) == Fraction(1)
    assert ostbc_rate(4) == Fraction(3, 4)
    assert ostbc_rate(8) == Fraction(1, 2)


def _frob_sq_draws(scn, seed, size):
    """||H||_F^2 of `size` trials from block stream 0, drawn slice by slice as
    mc._accumulate walks a block."""
    rng, plan = substream(seed, 0), SlicePlan(scn)
    return np.concatenate([mc_mod._frob_sq(plan, rng, min(SLICE, size - lo))
                           for lo in range(0, size, SLICE)])


def test_frobenius_shortcuts_preserve_moments():
    # the distributional shortcut paths must reproduce the analytic second
    # and fourth Frobenius moments
    for scn in [Scenario.uncorrelated(1, 6, 1),
                Scenario(2, 3, 2, constant_corr(2, 0.5), identity_corr(3),
                         constant_corr(2, 0.4), no_double_scattering=True)]:
        x = _frob_sq_draws(scn, 7, 400_000)
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
    x = _frob_sq_draws(scn, 8, 400_000)
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
