import contextlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import dsmimo
import dsmimo.mc as mc_mod
from dsmimo.codes import alamouti, g4
from dsmimo.corrmat import (Spectrum, constant_corr, exponential_corr, identity_corr,
                            tridiagonal_corr)
from dsmimo.detform import NumericFailure, expected_inv_det_miso
from dsmimo.matstat import SLICE, Scenario, SlicePlan, bidiagonal_slice
from dsmimo.mc import MonteCarloConfig, fit_diversity_slope, mc_sep, substream
from dsmimo.quadrule import gauss_legendre
from dsmimo.sep import (PskConstellation, UnsupportedScenarioError,
                        conditional_sep_mpsk, conditional_sep_polynomial,
                        diversity_order, has_closed_form, ostbc_snr_scale,
                        sep_mpsk, sep_mpsk_doubly_correlated,
                        sep_mpsk_iid_rayleigh, sep_mpsk_miso,
                        sep_mpsk_no_double_scattering, sep_theta_integral,
                        theta_rule)
from dsmimo.sep import _sep_from_mgf

from conftest import fresh_caches, random_correlation
from oracles import oracle_miso_mgf


def db(x):
    return 10.0 ** (x / 10.0)


class TestPskConstellation:
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_constants(self, m):
        psk = PskConstellation(m)
        assert psk.g == pytest.approx(math.sin(math.pi / m) ** 2)
        assert psk.theta_max == pytest.approx(math.pi - math.pi / m)
        assert 0 < psk.g <= 1
        assert math.pi / 2 <= psk.theta_max < math.pi

    @pytest.mark.parametrize("m", [3, 5, 128, 1])
    def test_unsupported_m(self, m):
        with pytest.raises(ValueError):
            PskConstellation(m)


class TestSnrScaleAndDiversity:
    def test_snr_scale(self):
        assert ostbc_snr_scale(Scenario.uncorrelated(2, 3, 2, alamouti())) == 0.5
        assert ostbc_snr_scale(Scenario.uncorrelated(4, 3, 2, g4())) == pytest.approx(1 / 3)
        assert ostbc_snr_scale(Scenario.uncorrelated(1, 1, 1)) == 1.0

    @pytest.mark.parametrize("dims,expect", [
        ((4, 1, 2), 2), ((4, 2, 2), 4), ((4, 3, 2), 6),
        ((2, 10, 11), 20), ((3, 3, 3), 7), ((5, 5, 5), 19),
    ])
    def test_diversity_order(self, dims, expect):
        assert diversity_order(Scenario.uncorrelated(*dims)) == Fraction(expect)

    @pytest.mark.parametrize("dims,expect", [((2, 2, 2), 3), ((2, 3, 3), 5),
                                             ((4, 4, 2), 7)])
    def test_diversity_order_is_closed_form_slope(self, dims, expect):
        # an interior k is the unique minimiser here, below the paper's
        # n_t*n_s*n_r/max(n_t, n_s, n_r) (4, 6 and 8), with no log factor
        scn = Scenario.uncorrelated(*dims)
        psk = PskConstellation(4)
        curve = [(s, sep_mpsk(scn, psk, db(s))) for s in range(60, 71, 2)]
        assert diversity_order(scn) == expect
        assert fit_diversity_slope(curve) == pytest.approx(expect, rel=0.02)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
    def test_diversity_order_transmit_receive_symmetry(self, n_t, n_s, n_r):
        assert (diversity_order(Scenario.uncorrelated(n_t, n_s, n_r))
                == diversity_order(Scenario.uncorrelated(n_r, n_s, n_t)))

    def test_diversity_no_double_scattering(self):
        scn = Scenario.uncorrelated(4, 7, 2, no_double_scattering=True)
        assert diversity_order(scn) == Fraction(8)


def run_on_one_blas_thread(code):
    """Run `code` in a fresh interpreter with BLAS pinned to one thread: a
    multithreaded BLAS splits a gemv at row counts that depend on its
    length, so bit-level references are only well defined there."""
    src = str(Path(dsmimo.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestThetaIntegral:
    def test_constant_integrand(self):
        v = sep_theta_integral(lambda th: np.ones_like(th), math.pi / 2)
        assert v == pytest.approx(0.5, abs=1e-14)

    def test_node_count_is_read_at_call_time(self, monkeypatch):
        # THETA_NODES is the rule's total: one arc up to pi/2, and past it
        # 3/5 of the nodes on [0, pi - Theta], the rest on [pi - Theta, pi/2]
        monkeypatch.setattr(dsmimo.sep, "THETA_NODES", 40)
        v = sep_theta_integral(lambda th: np.full_like(th, th.size), math.pi / 2)
        assert v == pytest.approx(20.0, rel=1e-14)
        v = sep_theta_integral(lambda th: np.full_like(th, th.size), 0.75 * math.pi)
        assert v == pytest.approx(30.0, rel=1e-14)
        th, w = theta_rule(0.75 * math.pi)
        assert np.count_nonzero(th < math.pi / 4) == 24 and th.max() < math.pi / 2

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_rule_folds_at_half_pi(self, m):
        # at most THETA_NODES = 80 integrand nodes, none past pi/2, and the
        # rule integrates sin^2 theta over [0, Theta] as one arc does
        theta_max = PskConstellation(m).theta_max
        th, w = theta_rule(theta_max)
        assert th.size == w.size == 80 and th.max() < math.pi / 2
        exact = theta_max / 2 - math.sin(2 * theta_max) / 4
        assert float(np.sin(th) ** 2 @ w) == pytest.approx(exact, rel=1e-14)

    def test_awgn_bpsk_is_q_function(self):
        # (1/pi) int_0^{pi/2} exp(-gamma/sin^2) = Q(sqrt(2 gamma)) at gamma=1
        gamma = 1.0
        v = sep_theta_integral(lambda th: np.exp(-gamma / np.sin(th) ** 2), math.pi / 2)
        q = 0.5 * special.erfc(math.sqrt(gamma))
        assert q == pytest.approx(0.0786496035251426, abs=1e-10)
        assert v == pytest.approx(q, abs=1e-12)

    def test_conditional_sep_matches_q(self):
        psk = PskConstellation(2)
        assert conditional_sep_mpsk(1.0, psk) == pytest.approx(
            0.5 * special.erfc(1.0), abs=1e-12)

    @pytest.mark.parametrize("trials", [SLICE - 1, SLICE + 1, 3 * SLICE + 5])
    def test_mc_sep_slices_equal_one_shot(self, trials):
        # the unconditioned mc_sep walks its block in slices (mc._accumulate),
        # adding each slice's batch sums as the slice is drawn: its value is
        # the mean of conditional_sep_mpsk over the same ||H||_F^2 draws,
        # evaluated in one shot
        scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                       constant_corr(4, 0.5), g4(), no_double_scattering=True)
        psk, snr = PskConstellation(8), db(12.0)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials, seed=9))
        rng, plan = substream(9, 0), SlicePlan(scn)
        x = np.concatenate([mc_mod._frob_sq(plan, rng, min(SLICE, trials - lo))
                            for lo in range(0, trials, SLICE)])
        ref = conditional_sep_mpsk(snr * ostbc_snr_scale(scn) * x, psk).mean()
        assert est.value == pytest.approx(ref, rel=1e-13, abs=0)

    def test_exponent_floor_changes_no_representable_sep(self):
        # exponents below -700 are raised to -700: where the SEP is at least
        # 1e-250 that changes no bit, and past the underflow limit a trial
        # keeps a value of at most e^-700 Theta/pi instead of 0
        code = (
            "import math, numpy as np\n"
            "from dsmimo.sep import PskConstellation, conditional_sep_mpsk, theta_rule\n"
            "psk = PskConstellation(8)\n"
            "th, w = theta_rule(psk.theta_max)\n"
            "gamma = np.geomspace(1e-3, 1e4, 4000)\n"
            "e = -np.outer(gamma, psk.g / np.sin(th) ** 2)\n"
            "ref = np.exp(e) @ w / math.pi\n"
            "kept = ref >= 1e-250\n"
            "assert (e[kept] < -700).any() and not kept.all()\n"
            "got = conditional_sep_mpsk(gamma, psk)\n"
            "assert np.array_equal(got[kept], ref[kept])\n"
            "assert np.all((got >= 0) & (got <= ref + 1e-304))\n"
            "assert 0.0 <= conditional_sep_mpsk(1e6, psk) <= 1e-300\n")
        run_on_one_blas_thread(code)

    def test_folded_rule_against_a_1200_node_arc(self, monkeypatch):
        # the three angular integrals on an M x SNR grid: the README closed
        # form, the mean of a fixed 512-trial conditional_sep_polynomial
        # slice of that config, and the mean of conditional_sep_mpsk over
        # fixed gamma sets of diversity 1 and 16, each against 1200
        # Gauss-Legendre nodes on the whole of [0, Theta]; 128 nodes on the
        # whole arc were 3.8e-6 off at worst (64-PSK, -30 dB, diversity 16)
        scn = Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                       constant_corr(4, 0.5), g4())
        plan = SlicePlan(scn)
        big = plan.sides[0]
        d2, f2, _ = bidiagonal_slice(plan, substream(3, 0), 512, tilted=True)
        coef = mc_mod._fold(mc_mod._path_coefficients(d2, f2),
                            [(rho / scn.n_s, mu) for rho, mu in big.spectrum.distinct])
        gammas = [np.random.default_rng(k).standard_gamma(k, 512) / k for k in (1, 16)]

        def values(psk, snr):
            return [sep_mpsk(scn, psk, snr),
                    conditional_sep_polynomial(coef, psk, snr * ostbc_snr_scale(scn)).mean(),
                    *(conditional_sep_mpsk(snr * g, psk).mean() for g in gammas)]

        worst = np.zeros(4)
        for m, snr_db in itertools.product([2, 4, 8, 16, 32, 64], range(-30, 41, 10)):
            psk = PskConstellation(m)
            got = values(psk, db(snr_db))
            with monkeypatch.context() as patch:
                patch.setattr(dsmimo.sep, "theta_rule", lambda t: gauss_legendre(1200, t))
                ref = values(psk, db(snr_db))
            err = [abs(a - b) / b for a, b in zip(got, ref)]
            worst = np.maximum(worst, err)
            if snr_db >= -10:
                assert err[0] < 1e-9, (m, snr_db)
        assert worst.max() < 1e-6
        # the patched rule reached every integral, the closed forms included
        # (4.0e-7 and 2.9e-9): a rule or sin^2 theta cached past theta_rule
        # would compare the 80-node rule with itself
        assert worst.max() > 1e-10 and worst[0] > 1e-12, worst

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_conditional_sep_against_owens_t(self, m):
        # the exact conditional SEP: splitting the arc at pi/2 and putting
        # u = cot theta on the second piece gives
        # 1/2 erfc(sqrt(g gamma)) + 2 T(sqrt(2 g gamma), cot(pi/M)) for M >= 4
        # (Owen's T) and the first term alone for BPSK.  The folded rule
        # misses the boundary layer of width sqrt(g gamma) at theta = 0, so
        # its relative error grows at small gamma; on this grid it reads
        # 7.8e-5 at worst (BPSK; QPSK 7.2e-5 at gamma = 1e-6), 9.5e-7 from
        # gamma = 1e-3 (QPSK), 5.5e-12 from gamma = 0.1 for M <= 32, and
        # 2.7e-9 for M = 64 (README, numerical notes)
        psk = PskConstellation(m)
        gamma = np.geomspace(1e-8, 1e2, 201)
        x = psk.g * gamma
        exact = 0.5 * special.erfc(np.sqrt(x))
        if m > 2:
            exact += 2.0 * special.owens_t(np.sqrt(2.0 * x), 1.0 / math.tan(math.pi / m))
        err = np.abs(conditional_sep_mpsk(gamma, psk) - exact) / exact
        assert err.max() < 1e-4
        assert err[gamma >= 1e-3].max() < 1e-6
        assert err[gamma >= 0.1].max() < (1e-11 if m <= 32 else 5e-9)

    def test_patched_rule_reaches_every_integral(self, monkeypatch):
        # theta_rule is the one seam for the angular rule: with it replaced
        # by 1200 nodes on the whole arc, every closed-form row and both
        # Monte Carlo theta stages return other values at -30 dB, where
        # the 80-node rule is off by more than 1e-12
        scns = [Scenario.uncorrelated(4, 3, 2, g4()),
                Scenario(4, 10, 1, exponential_corr(4, 0.5), exponential_corr(10, 0.5),
                         identity_corr(1), g4()),
                Scenario(4, 1, 4, constant_corr(4, 0.5), identity_corr(1),
                         constant_corr(4, 0.5), g4(), no_double_scattering=True)]
        psk, snr = PskConstellation(4), db(-30.0)
        gamma = snr * np.geomspace(0.1, 10.0, 7)
        coef = np.array([[1.0] * 7, np.geomspace(1e-3, 0.1, 7)])

        def values():
            return [*(sep_mpsk(scn, psk, snr) for scn in scns),
                    *conditional_sep_mpsk(gamma, psk),
                    *conditional_sep_polynomial(coef, psk, snr)]

        got = values()
        monkeypatch.setattr(dsmimo.sep, "theta_rule", lambda t: gauss_legendre(1200, t))
        ref = values()
        assert all(abs(a - b) > 1e-12 * b for a, b in zip(got, ref)), (got, ref)

    @pytest.mark.parametrize("scn,m,snr_db", [
        (Scenario.uncorrelated(4, 3, 2, g4()), 8, 5.0),
        (Scenario.uncorrelated(4, 3, 2, g4()), 8, 15.0),
        (Scenario.uncorrelated(4, 3, 2, g4()), 8, 25.0),
        # the README config, where 128 nodes on one arc were 1.1e-7 off
        (Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                  constant_corr(4, 0.5), g4()), 64, -20.0)])
    def test_node_doubling_stability(self, monkeypatch, scn, m, snr_db):
        psk = PskConstellation(m)
        a = sep_mpsk(scn, psk, db(snr_db))
        monkeypatch.setattr(dsmimo.sep, "THETA_NODES", 2 * dsmimo.sep.THETA_NODES)
        b = sep_mpsk(scn, psk, db(snr_db))
        assert abs(a - b) < 1e-10 * max(a, 1e-300) + 1e-300


class TestUncorrelated:
    def test_keyhole_reduces_to_scalar_kernel_form(self):
        # n_s = 1 (keyhole): the determinant evaluator must give the same
        # value as the MISO expectation with identity spectra
        scn = Scenario.uncorrelated(4, 1, 2, g4())
        psk = PskConstellation(8)
        snr = db(12.0)
        a = sep_mpsk(scn, psk, snr)
        th, w = theta_rule(psk.theta_max)
        xi = psk.g * snr / (scn.n_s * scn.n_t * float(scn.rate) * np.sin(th) ** 2)
        s_r = Spectrum((1.0,), (scn.n_r,), scn.n_r)
        s_t = Spectrum((1.0,), (scn.n_t,), scn.n_t)
        vals = np.array([expected_inv_det_miso(s_r, s_t, x) for x in xi])
        b = float(vals @ w) / math.pi
        assert a == pytest.approx(b, rel=1e-9)

    def test_sep_decreasing_in_scatterer_count(self):
        # four-transmit family at fixed snr: richer scattering always helps
        psk = PskConstellation(8)
        seps = [sep_mpsk(Scenario.uncorrelated(4, n_s, 2, g4()), psk, db(15.0))
                for n_s in (1, 2, 3, 5, 10, 50)]
        assert all(a > b for a, b in zip(seps, seps[1:]))

    def test_large_ns_approaches_iid_rayleigh(self):
        psk = PskConstellation(8)
        snr = db(15.0)
        scn = Scenario.uncorrelated(4, 10_000, 2, g4())
        a = sep_mpsk(scn, psk, snr)
        b = sep_mpsk_iid_rayleigh(4, 2, Fraction(3, 4), psk, snr)
        assert a == pytest.approx(b, rel=0.01)

    def test_against_monte_carlo(self):
        scn = Scenario.uncorrelated(4, 2, 2, g4())
        psk = PskConstellation(8)
        snr = db(14.0)
        cf = sep_mpsk(scn, psk, snr)
        assert cf > 1e-4
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=300_000, seed=3))
        assert abs(est.value - cf) < 3 * est.std_error

    def test_transmit_scatterer_swap_symmetry(self):
        # the MGF sees n_t and n_s only through the sorted pair (n1, n2); at
        # matched composite scale xi = g*snr/(n_s*n_t*rate*sin^2) the two
        # scenarios produce the same SEP
        psk = PskConstellation(8)
        a = sep_mpsk(Scenario.uncorrelated(4, 2, 3, g4()), psk, db(10))
        b = sep_mpsk(
            Scenario.uncorrelated(2, 4, 3, alamouti()), psk,
            db(10) * (4 * 2 * 1.0) / (2 * 4 * 0.75))
        assert a == pytest.approx(b, rel=1e-11)

    @pytest.mark.parametrize("scn", [Scenario.uncorrelated(4, 1, 2, g4()),
                                     Scenario.uncorrelated(2, 3, 4, alamouti())],
                             ids=["keyhole", "mimo"])
    def test_dispatches_to_the_kronecker_row(self, scn):
        # all sides I: sep_mpsk is the Kronecker row's value, bit for bit,
        # also where the MISO row applies (the keyhole, n_s = 1)
        psk = PskConstellation(8)
        for snr_db in (0.0, 15.0, 30.0):
            assert sep_mpsk(scn, psk, db(snr_db)) == sep_mpsk_doubly_correlated(
                scn, psk, db(snr_db))

    def test_rejects_nonpositive_snr(self):
        scn = Scenario.uncorrelated(2, 2, 2, alamouti())
        with pytest.raises(ValueError):
            sep_mpsk(scn, PskConstellation(4), 0.0)


class TestDoublyCorrelated:
    def make(self, rho, n_s=10):
        phi = (lambda n: identity_corr(n) if rho == 0 else constant_corr(n, rho))
        return Scenario(4, n_s, 4, phi(4), identity_corr(n_s), phi(4), g4())

    def test_identity_matches_oracle(self):
        # references: 128 Gauss-Legendre nodes on [0, Theta] over
        # oracle_kron_mgf (60 digits) at g4's rate 3/4; they take minutes to
        # regenerate
        psk = PskConstellation(8)
        scn = self.make(0.0)
        for snr_db, ref in ((5.0, 0.03871867375127478), (15.0, 5.341997543418214e-07)):
            a = sep_mpsk_doubly_correlated(scn, psk, db(snr_db))
            b = sep_mpsk(scn, psk, db(snr_db))
            assert a == pytest.approx(ref, rel=1e-9, abs=0)
            assert b == pytest.approx(ref, rel=1e-9, abs=0)

    def test_monotone_worse_in_rho(self):
        psk = PskConstellation(8)
        for snr_db in (10.0, 15.0):
            seps = [sep_mpsk(self.make(r), psk, db(snr_db))
                    for r in (0.0, 0.3, 0.5, 0.7, 0.9)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(seps, seps[1:]))

    def test_against_monte_carlo(self):
        scn = self.make(0.5)
        psk = PskConstellation(8)
        snr = db(10.0)
        cf = sep_mpsk_doubly_correlated(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=300_000, seed=5))
        assert abs(est.value - cf) < 3 * est.std_error

    def test_many_receive_antennas_keep_improving(self):
        # the receive side enters only as a product over its eigenvalues;
        # its partial fractions rose from n_r = 20 to 40 and raised at 60
        psk = PskConstellation(4)
        seps = [sep_mpsk(self._receive_scenario(n_r), psk, db(10.0)) for n_r in (20, 40, 60)]
        assert seps[0] > seps[1] > seps[2] > 0.0

    @pytest.mark.parametrize("n_r", [20, 40, 60])
    def test_many_receive_antennas_against_monte_carlo(self, n_r):
        scn = self._receive_scenario(n_r)
        psk = PskConstellation(4)
        snr = db(-10.0)
        cf = sep_mpsk_doubly_correlated(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=1 << 16, seed=7))
        assert abs(est.value - cf) < 3 * est.std_error

    @staticmethod
    def _receive_scenario(n_r):
        return Scenario(2, 4, n_r, exponential_corr(2, 0.45), identity_corr(4),
                        exponential_corr(n_r, 0.45), alamouti())

    def test_needs_enough_scatterers(self):
        scn = Scenario(4, 2, 4, constant_corr(4, 0.5), identity_corr(2),
                       constant_corr(4, 0.5), g4())
        with pytest.raises(UnsupportedScenarioError):
            sep_mpsk_doubly_correlated(scn, PskConstellation(8), 10.0)

    def test_needs_identity_scatterers(self):
        scn = Scenario(4, 10, 4, constant_corr(4, 0.5), constant_corr(10, 0.2),
                       constant_corr(4, 0.5), g4())
        with pytest.raises(ValueError):
            sep_mpsk_doubly_correlated(scn, PskConstellation(8), 10.0)


class TestMiso:
    def test_identity_reduces_to_uncorrelated(self):
        psk = PskConstellation(8)
        scn = Scenario.uncorrelated(4, 6, 1, g4())
        for snr_db in (5.0, 20.0):
            a = sep_mpsk_miso(scn, psk, db(snr_db))
            b = sep_mpsk_doubly_correlated(scn, psk, db(snr_db))
            assert a == pytest.approx(b, rel=1e-9)

    def test_sep_improves_with_scatterers(self):
        # fixed rho, growing n_s at 25 dB
        psk = PskConstellation(8)
        rho = 0.4
        seps = []
        for n_s in (1, 2, 4, 8, 16):
            phi_s = identity_corr(1) if n_s == 1 else constant_corr(n_s, rho)
            scn = Scenario(4, n_s, 1, constant_corr(4, rho), phi_s,
                           identity_corr(1), g4())
            seps.append(sep_mpsk_miso(scn, psk, db(25.0)))
        assert all(a >= b * (1 - 1e-12) for a, b in zip(seps, seps[1:]))

    def test_siso_keyhole_against_monte_carlo(self):
        scn = Scenario.uncorrelated(1, 1, 1)
        psk = PskConstellation(2)
        snr = db(10.0)
        cf = sep_mpsk_miso(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=300_000, seed=11))
        assert abs(est.value - cf) < 3 * est.std_error

    def test_needs_single_receive_antenna(self):
        scn = Scenario.uncorrelated(2, 3, 2, alamouti())
        with pytest.raises(ValueError):
            sep_mpsk_miso(scn, PskConstellation(4), 10.0)

    # the oracle converges at every node, the two nearest theta = 0 included
    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    def test_angular_sum_matches_miso_oracle(self):
        # 4x10x1, exponential rho=0.5 on transmit and scatterer sides, whose
        # partial fractions sum to |X| = 4096: the SEP is theta_rule's sum
        # over the MISO MGF, which the quadrature oracle gives at each node
        psk = PskConstellation(8)
        snr = db(30.0)
        scn = Scenario(4, 10, 1, exponential_corr(4, 0.5), exponential_corr(10, 0.5),
                       identity_corr(1), g4())
        th, w = theta_rule(psk.theta_max)
        xi = psk.g * snr / (scn.n_s * scn.n_t * float(scn.rate) * np.sin(th) ** 2)
        mgf = [oracle_miso_mgf(scn.phi_t.spectrum.expand(), scn.phi_s.spectrum.expand(),
                               float(x)) for x in xi]
        ref = float(np.dot(mgf, w)) / math.pi
        assert sep_mpsk(scn, psk, snr) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("model", [exponential_corr, tridiagonal_corr, constant_corr])
    @pytest.mark.parametrize("n_s", [50, 100])
    def test_many_scatterers_against_monte_carlo(self, model, n_s):
        # the scatterer side enters only as a product over its eigenvalues;
        # its partial fractions returned 22.25 at 2x50x1 exponential
        scn = Scenario(2, n_s, 1, model(2, 0.45), model(n_s, 0.45), identity_corr(1),
                       alamouti())
        psk = PskConstellation(4)
        snr = db(10.0)
        cf = sep_mpsk(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=1 << 16, seed=7))
        assert abs(est.value - cf) < 3 * est.std_error


class TestNoDoubleScattering:
    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 1), (2, 2), (4, 2), (8, 8)])
    def test_identity_matches_iid_reference(self, n_t, n_r):
        # one factor of multiplicity n_t n_r: the same product as the rich
        # row's single distinct pair on identity sides
        scn = Scenario.uncorrelated(n_t, 1, n_r, no_double_scattering=True)
        for m, snr_db in itertools.product((2, 8, 64), (-20.0, 0.0, 5.0, 15.0, 40.0)):
            psk = PskConstellation(m)
            a = sep_mpsk_no_double_scattering(scn, psk, db(snr_db))
            b = sep_mpsk_iid_rayleigh(n_t, n_r, scn.rate, psk, db(snr_db))
            assert abs(a - b) <= 1e-15 * b, (m, snr_db)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 8),
           st.sampled_from(["identity", "constant", "random"]),
           st.sampled_from(["identity", "constant", "random"]))
    @settings(max_examples=40, deadline=None)
    # identity 3x5 at x = 1e20: the MGF (1 + 1e20)^-15 is a few ulp above
    # 1e-300 in one sum and at or below it in the other
    @example(0, 3, 5, "identity", "identity")
    def test_distinct_pairs_match_the_expanded_product(self, seed, n_t, n_r, tx, rx):
        # the rich MGF over the distinct transmit x receive pairs, with
        # multiplicities, against the product over all n_t n_r pairs
        rng = np.random.default_rng(seed)

        def side(model, n):
            if model == "constant":
                return constant_corr(n, float(rng.uniform(0.0, 0.95)))
            return random_correlation(rng, n) if model == "random" else identity_corr(n)

        scn = Scenario(n_t, 1, n_r, side(tx, n_t), identity_corr(1), side(rx, n_r),
                       no_double_scattering=True)
        mgfs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dsmimo.sep, "_sep_from_mgf", lambda mgf, *args: mgfs.append(mgf) or 0.0)
            sep_mpsk_no_double_scattering(scn, PskConstellation(8), 1.0)
        x = np.concatenate([np.logspace(-8, 300, 155), [np.finfo(float).max]])
        got = mgfs[0](x)
        pairs = np.multiply.outer(scn.phi_t.spectrum.expand(),
                                  scn.phi_r.spectrum.expand()).ravel()
        with np.errstate(over="ignore"):
            want = np.exp(-np.log1p(np.multiply.outer(x, pairs)).sum(axis=1))
        # the two sums round differently, so they agree to 1e-14 relative in
        # the exponent -log(want): in the value, to 1e-14 times that exponent,
        # wherever either of them is above 1e-300
        live = (want > 1e-300) | (got > 1e-300)
        bound = 1e-14 * np.maximum(1.0, -np.log(want[live])) * want[live]
        assert np.all(np.abs(got[live] - want[live]) <= bound)
        assert got[-1] == want[-1] == 0.0  # x = DBL_MAX: both products past the range

    def test_against_monte_carlo(self):
        scn = Scenario(2, 1, 2, constant_corr(2, 0.6), identity_corr(1),
                       constant_corr(2, 0.3), alamouti(), no_double_scattering=True)
        psk = PskConstellation(4)
        snr = db(12.0)
        cf = sep_mpsk_no_double_scattering(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=300_000, seed=17))
        assert abs(est.value - cf) < 3 * est.std_error


class TestDispatchAndInvariants:
    def test_all_applicable_formulas_agree(self):
        # fully uncorrelated MISO: the MISO and doubly-correlated formulas
        # are both valid and must meet 128 Gauss-Legendre nodes on [0, Theta]
        # over oracle_kron_mgf (60 digits); the dispatcher takes the latter
        scn = Scenario.uncorrelated(4, 6, 1, g4())
        psk = PskConstellation(8)
        snr = db(18.0)
        a = sep_mpsk(scn, psk, snr)
        b = sep_mpsk_miso(scn, psk, snr)
        c = sep_mpsk_doubly_correlated(scn, psk, snr)
        for v in (a, b, c):
            assert v == pytest.approx(0.0030354360015009073, rel=1e-9, abs=0)
        assert a == c

    def test_out_of_range_mgf_raises(self):
        # an MGF of 2 integrates to 2 Theta / pi = 1.5, above the 3/4 ceiling
        with pytest.raises(NumericFailure):
            _sep_from_mgf(lambda xi: np.full_like(xi, 2.0), PskConstellation(4),
                          db(10.0), 2, 1)

    @pytest.mark.parametrize("scn", [
        Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10), constant_corr(4, 0.5), g4()),
        Scenario.uncorrelated(4, 10, 1, g4()),
        Scenario(4, 1, 4, constant_corr(4, 0.5), identity_corr(1), constant_corr(4, 0.5), g4(),
                 no_double_scattering=True)], ids=["readme", "miso", "rich"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_angular_argument_raises(self, scn):
        # at snr = 1e305 g snr/(d sin^2 theta) overflows at the nodes nearest
        # theta = 0, which the Kronecker lattice met as an untyped
        # OverflowError; a few decades below, the lattice floor overflowed
        # (OverflowError, or ValueError from a NaN in the MISO row)
        psk = PskConstellation(8)
        with pytest.raises(NumericFailure, match="angular argument overflows"):
            sep_mpsk(scn, psk, 1e305)
        assert 0.0 <= sep_mpsk(scn, psk, 1e300) <= psk.sep_ceiling
        for snr in 10.0 ** np.arange(298.0, 309.0):
            with contextlib.suppress(NumericFailure):
                assert 0.0 <= sep_mpsk(scn, psk, snr) <= psk.sep_ceiling

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 60),
           st.booleans(), st.floats(0.05, 3.0), st.sampled_from([2, 4, 8, 16]),
           st.floats(-10.0, 40.0), st.integers(0, 3) | st.integers(4, 400))
    @settings(max_examples=30, deadline=None)
    def test_random_spectra_bounded(self, seed, n_t, n_big, miso, strength, m, snr_db, extra):
        # MISO with random transmit and scatterer correlations, or doubly
        # correlated with random transmit and receive correlations and
        # n_s = n_t + extra scatterers; neither raises NumericFailure (400
        # examples of this strategy ran clean)
        rng = np.random.default_rng(seed)
        tx = random_correlation(rng, n_t, strength)
        if miso:
            scn = Scenario(n_t, n_big, 1, tx, random_correlation(rng, n_big, strength),
                           identity_corr(1))
        else:
            n_s = n_t + extra
            scn = Scenario(n_t, n_s, n_big, tx, identity_corr(n_s),
                           random_correlation(rng, n_big, strength))
        psk = PskConstellation(m)
        assert 0.0 <= sep_mpsk(scn, psk, db(snr_db)) <= psk.sep_ceiling

    def test_nearly_equal_transmit_eigenvalues_keep_the_diversity_slope(self):
        # the 4x4x43 example of the strategy above (seed 0, strength 0.125):
        # identity scatterers, transmit eigenvalues 1.012 .. 0.993, so the
        # Kronecker row; its BPSK SEP used to turn negative near 27 dB
        rng = np.random.default_rng(0)
        tx = random_correlation(rng, 4, 0.125)
        scn = Scenario(4, 4, 43, tx, identity_corr(4), random_correlation(rng, 43, 0.125))
        psk = PskConstellation(2)
        curve = [(s, sep_mpsk(scn, psk, db(s))) for s in range(24, 35, 2)]
        assert all(b < a for (_, a), (_, b) in zip(curve, curve[1:]))
        assert fit_diversity_slope(curve) == pytest.approx(diversity_order(scn), rel=0.02)

    def test_dispatch_unsupported(self):
        scn = Scenario(2, 3, 2, constant_corr(2, 0.5), constant_corr(3, 0.5),
                       constant_corr(2, 0.5), alamouti())
        assert not has_closed_form(scn)
        with pytest.raises(UnsupportedScenarioError):
            sep_mpsk(scn, PskConstellation(4), 10.0)

    def test_dispatch_covers_all_families(self):
        psk = PskConstellation(8)
        cases = [
            Scenario.uncorrelated(4, 3, 2, g4()),
            Scenario(4, 1, 1, constant_corr(4, 0.5), identity_corr(1),
                     identity_corr(1), g4()),
            Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                     constant_corr(4, 0.5), g4()),
            Scenario.uncorrelated(4, 9, 2, g4(), no_double_scattering=True),
        ]
        for scn in cases:
            assert has_closed_form(scn)
            v = sep_mpsk(scn, psk, db(12.0))
            assert 0.0 < v <= psk.sep_ceiling

    def test_bounded_and_decreasing_in_snr(self):
        psk = PskConstellation(8)
        grid = np.arange(-5.0, 31.0, 5.0)
        cases = [
            Scenario.uncorrelated(4, 2, 2, g4()),
            Scenario(4, 10, 4, constant_corr(4, 0.6), identity_corr(10),
                     constant_corr(4, 0.6), g4()),
            Scenario(4, 3, 1, constant_corr(4, 0.3), constant_corr(3, 0.3),
                     identity_corr(1), g4()),
        ]
        for scn in cases:
            seps = [sep_mpsk(scn, psk, db(s)) for s in grid]
            assert all(0 < v <= psk.sep_ceiling + 1e-12 for v in seps)
            assert all(a > b for a, b in zip(seps, seps[1:]))

    @pytest.mark.parametrize("tx,sc,rx,n_r,n_s,rich", [
        case for case in itertools.product((False, True), (False, True),
                                           (False, True), (1, 2, 4), (2, 4),
                                           (False, True))
        if not (case[2] and case[3] == 1)  # a 1x1 correlation is the identity
    ])
    def test_has_closed_form_iff_sep_mpsk_returns(self, tx, sc, rx, n_r, n_s, rich):
        # n_t = 3 puts n_s = 2 below it and n_s = 4 above it
        def side(n, correlated):
            return constant_corr(n, 0.4) if correlated else identity_corr(n)

        scn = Scenario(3, n_s, n_r, side(3, tx), side(n_s, sc), side(n_r, rx),
                       no_double_scattering=rich)
        try:
            sep_mpsk(scn, PskConstellation(4), db(10.0))
        except UnsupportedScenarioError:
            assert not has_closed_form(scn)
        else:
            assert has_closed_form(scn)

    @pytest.mark.parametrize("scn,family", [
        # receive hop (r,s): ||H||_F = ||H^T||_F puts the receive side in the Wishart factor
        (Scenario(4, 2, 2, constant_corr(4, 0.5), identity_corr(2), exponential_corr(2, 0.3),
                  g4()), sep_mpsk_doubly_correlated),
        # SIMO with correlated scatterers: the MISO row on the scatterer and receive sides
        (Scenario(1, 3, 4, identity_corr(1), constant_corr(3, 0.5), exponential_corr(4, 0.3)),
         sep_mpsk_miso),
        # keyhole: the MISO row on the transmit and receive sides
        (Scenario(4, 1, 4, constant_corr(4, 0.5), identity_corr(1), exponential_corr(4, 0.3),
                  g4()), sep_mpsk_miso),
        # hop (s,t): identity transmit side, correlated scatterers in the Wishart factor
        (Scenario(4, 2, 3, identity_corr(4), constant_corr(2, 0.5), exponential_corr(3, 0.3),
                  g4()), sep_mpsk_doubly_correlated),
    ], ids=["transpose_4x2x2", "simo_1x3x4", "keyhole_4x1x4", "identity_tx_4x2x3"])
    def test_table_row_against_monte_carlo(self, scn, family):
        assert dsmimo.sep._closed_form_family(scn) is family
        psk = PskConstellation(4)
        snr = db(10.0)
        cf = sep_mpsk(scn, psk, snr)
        assert cf == family(scn, psk, snr)
        est = mc_sep(scn, psk, snr, MonteCarloConfig(trials=1 << 18, seed=7))
        assert abs(est.value - cf) < 3 * est.std_error

    @pytest.mark.parametrize("scn,family", [
        # the rich limit's uncorrelated 2x1x1 Alamouti: with n_s = 1 read
        # as a keyhole, the MISO and Kronecker rows gave 0.27811 at 10 dB
        # against the rich 0.16138
        (Scenario.uncorrelated(2, 1, 1, alamouti(), no_double_scattering=True),
         sep_mpsk_miso),
        (Scenario.uncorrelated(2, 1, 1, alamouti(), no_double_scattering=True),
         sep_mpsk_doubly_correlated),
        # the rich row on a double-scattering 4x10x4 gave 4.0035e-4 at
        # 10 dB against sep_mpsk's 7.9658e-4
        (Scenario.uncorrelated(4, 10, 4, g4()), sep_mpsk_no_double_scattering),
    ], ids=["rich_2x1x1_miso", "rich_2x1x1_kron", "double_4x10x4_rich"])
    def test_family_raises_outside_its_row(self, scn, family):
        with pytest.raises(UnsupportedScenarioError):
            family(scn, PskConstellation(8), db(10.0))

    @pytest.mark.parametrize("n_t,n_r,rate", [
        (0, 2, 1), (-1, 2, 1), (2, 0, 1), (2, -3, 1), (2, 2, 0), (2, 2, -0.5),
        (2, 2, math.inf), (2, 2, math.nan)])
    def test_iid_rayleigh_checks_its_arguments(self, n_t, n_r, rate):
        # n_r = 0 returned the 8-PSK ceiling; n_t = 0 and rate = 0 divided
        # by zero; a negative n_t or rate failed only after a RuntimeWarning
        with pytest.raises(ValueError, match="n_t and n_r|rate"):
            sep_mpsk_iid_rayleigh(n_t, n_r, rate, PskConstellation(8), db(10.0))

    @pytest.mark.parametrize("rho", [1e-4, 1e-3])
    def test_miso_row_precedes_kronecker_row(self, rho):
        # nearly equal transmit eigenvalues cancel in the Kronecker
        # determinant (its Sigma would be phi_t here); the MISO evaluator
        # is exact for any eigenvalue pattern, so a scenario both rows cover
        # takes the MISO one
        scn = Scenario(4, 10, 1, exponential_corr(4, rho), identity_corr(10), identity_corr(1))
        psk = PskConstellation(4)
        assert dsmimo.sep._closed_form_family(scn) is sep_mpsk_miso
        assert sep_mpsk(scn, psk, db(10.0)) == pytest.approx(
            sep_mpsk_miso(scn, psk, db(10.0)), rel=1e-12)


def test_benchmark_tracer_sees_every_family():
    # the benchmark's tracer wraps the family functions' module attributes,
    # so the dispatcher must call each family through that attribute
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.pop(0)
    psk = PskConstellation(8)
    cases = {
        "sep.family.no_double_scattering":
            Scenario.uncorrelated(4, 9, 2, g4(), no_double_scattering=True),
        "sep.family.miso": Scenario(4, 1, 1, constant_corr(4, 0.5), identity_corr(1),
                                    identity_corr(1), g4()),
        "sep.family.doubly_correlated":
            Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                     constant_corr(4, 0.5), g4()),
    }
    tracer = Tracer()
    tracer.install()
    try:
        for scn in cases.values():
            dsmimo.sep.sep_mpsk(scn, psk, db(12.0))
    finally:
        tracer.uninstall()
    # perfbench still lists functions the library deleted
    assert tracer.missing == ["dsmimo.quadrule.gauss_laguerre_prob",
                              "dsmimo.detform.hyp2f0",
                              "dsmimo.detform.characteristic_coefficients",
                              "dsmimo.sep.sep_mpsk_uncorrelated"]
    totals = tracer.layer_totals()
    assert totals["sep.sep_mpsk"]["calls"] == len(cases)
    for name in cases:
        assert totals[name]["calls"] == 1, name
    assert "sep.family.uncorrelated" not in totals


def test_runtime_leaves_scipy_unloaded():
    # scipy is a test dependency only: the library, every closed-form
    # family (4 x 200 uncorrelated included) and Monte Carlo run without it
    code = ("import sys, dsmimo as d\n"
            "psk = d.PskConstellation(8)\n"
            "for scn in [d.Scenario.uncorrelated(4, 10, 4, d.g4()),\n"
            "            d.Scenario.uncorrelated(4, 200, 4, d.g4()),\n"
            "            d.Scenario(4, 10, 4, d.constant_corr(4, 0.5), d.identity_corr(10),\n"
            "                       d.constant_corr(4, 0.5), d.g4()),\n"
            "            d.Scenario(4, 10, 1, d.exponential_corr(4, 0.5),\n"
            "                       d.exponential_corr(10, 0.5), d.identity_corr(1), d.g4()),\n"
            "            d.Scenario.uncorrelated(4, 1, 2, d.g4(), no_double_scattering=True)]:\n"
            "    d.sep_mpsk(scn, psk, 100.0)\n"
            "d.sep_mpsk_iid_rayleigh(4, 2, 1, psk, 100.0)\n"
            "d.mc_sep(d.Scenario.uncorrelated(4, 10, 4, d.g4()), psk, 100.0,\n"
            "         d.MonteCarloConfig(trials=4096, seed=1))\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = str(Path(dsmimo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSideCaches:
    """sep_mpsk keeps each row's per-side set-up across points (detform's
    kernels and lattices, sin^2 theta): no value may depend on which points
    came before."""

    SCENARIOS = {
        "rich": Scenario(4, 1, 4, constant_corr(4, 0.5), identity_corr(1),
                         constant_corr(4, 0.5), g4(), no_double_scattering=True),
        "miso": Scenario(4, 10, 1, exponential_corr(4, 0.5), exponential_corr(10, 0.5),
                         identity_corr(1), g4()),
        "readme": Scenario(4, 10, 4, constant_corr(4, 0.5), identity_corr(10),
                           constant_corr(4, 0.5), g4()),
        "uncorrelated": Scenario.uncorrelated(4, 200, 4, g4()),
    }
    POINTS = [(name, m, snr_db) for name in SCENARIOS for m in (4, 8)
              for snr_db in range(-10, 31, 8)]

    def point(self, key):
        name, m, snr_db = key
        return sep_mpsk(self.SCENARIOS[name], PskConstellation(m), db(snr_db))

    def test_point_order_leaves_values_unchanged(self):
        cold = {}
        for key in self.POINTS:
            fresh_caches()
            cold[key] = self.point(key)
        keys = self.POINTS
        orders = {"ascending": sorted(keys, key=lambda k: (k[2], k[0], k[1])),
                  "descending": sorted(keys, key=lambda k: (-k[2], k[0], k[1])),
                  "shuffled": [keys[i] for i in np.random.default_rng(31).permutation(len(keys))],
                  "interleaved": [k for pair in zip(keys, keys[::-1]) for k in pair]}
        fresh_caches()
        for order, seq in orders.items():
            for key in seq:
                assert self.point(key) == cold[key], (order, key)
        # each side's kernel is made once, in every order
        assert dsmimo.detform._miso_kernel.cache_info()[1:] == (1, 16, 1)
        assert dsmimo.detform._kron_kernel.cache_info()[1:] == (2, 16, 2)
