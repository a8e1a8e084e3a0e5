"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers.  Tolerances are fixed here, not
calibrated at runtime; the heavy Monte Carlo checks pin their trial counts
and seeds so the whole suite is reproducible."""

import math

import mpmath as mp
import numpy as np
from scipy import integrate, optimize, stats

from dsmimo.codes import alamouti, g4
from dsmimo.corrmat import (Spectrum, constant_corr, exponential_corr,
                            identity_corr, majorizes, tridiagonal_corr)
from dsmimo.detform import (characteristic_coefficients, expected_inv_det_kron,
                            expected_inv_det_uncorr, hyp2f0,
                            quadratic_form_eigen_pdf, wishart_eigen_pdf)
from dsmimo.lowsnr import ebn0_min, ebn0_min_received_db, eff_stbc, s0_general, s0_ostbc
from dsmimo.matstat import (Scenario, double_product_moments, kurtosis_frobenius)
from dsmimo.mc import (MonteCarloConfig, fit_diversity_slope, mc_capacity,
                       mc_kurtosis_eff, mc_sep)
from dsmimo.sep import (PskConstellation, sep_mpsk, sep_mpsk_doubly_correlated,
                        sep_mpsk_iid_rayleigh, sep_mpsk_miso,
                        sep_mpsk_uncorrelated)

from conftest import cgauss
from oracles import max_eig_cdf, oracle_2f0, oracle_kron_mgf


def db(x):
    return 10.0 ** (x / 10.0)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_low_snr_slopes():
    scn = Scenario(4, 20, 4, exponential_corr(4, 0.5), exponential_corr(20, 0.5),
                   exponential_corr(4, 0.5), g4())
    so = s0_ostbc(scn)
    sg = s0_general(scn)
    ok = abs(so - 1.26) <= 0.01 and abs(sg - 2.46) <= 0.01
    report("criterion 1 (low-SNR slopes 1.26/2.46 +- 0.01)", ok,
           f"s0_ostbc={so:.4f}, s0_general={sg:.4f}")


def test_criterion_2_diversity_orders():
    grid = np.linspace(30.0, 40.0, 11)
    details = []
    ok = True
    cases = [(Scenario.uncorrelated(4, n_s, 2, g4()), PskConstellation(8), d)
             for n_s, d in [(1, 2), (2, 4), (3, 6), (5, 8)]]
    cases += [
        (Scenario.uncorrelated(2, 3, 1, alamouti()), PskConstellation(16), 2),
        (Scenario.uncorrelated(4, 2, 1, g4()), PskConstellation(8), 2),
    ]
    for scn, psk, d_expect in cases:
        curve = [(s, sep_mpsk(scn, psk, db(s))) for s in grid]
        d_fit = fit_diversity_slope(curve)
        rel = abs(d_fit - d_expect) / d_expect
        ok &= rel <= 0.10
        details.append(f"({scn.n_t},{scn.n_s},{scn.n_r})->{d_fit:.3f}/{d_expect}")
    report("criterion 2 (slope fits within 10%)", ok, "; ".join(details))


def test_criterion_3_closed_form_vs_monte_carlo():
    trials = 1_000_000
    cases = [
        ("uc-keyhole(4,1,2)", Scenario.uncorrelated(4, 1, 2, g4()),
         PskConstellation(8), 22.0),
        ("uc(4,2,2)", Scenario.uncorrelated(4, 2, 2, g4()),
         PskConstellation(8), 14.0),
        ("uc(2,3,2)-16psk", Scenario.uncorrelated(2, 3, 2, alamouti()),
         PskConstellation(16), 18.0),
        ("dc(4,10,4)-rho.5", Scenario(4, 10, 4, constant_corr(4, 0.5),
                                      identity_corr(10), constant_corr(4, 0.5),
                                      g4()), PskConstellation(8), 10.0),
        ("dc(2,4,2)-rho.6", Scenario(2, 4, 2, constant_corr(2, 0.6),
                                     identity_corr(4), constant_corr(2, 0.6),
                                     alamouti()), PskConstellation(4), 12.0),
        ("miso(4,3,1)", Scenario(4, 3, 1, constant_corr(4, 0.5),
                                 constant_corr(3, 0.3), identity_corr(1),
                                 g4()), PskConstellation(8), 20.0),
        ("miso-siso(1,1,1)", Scenario.uncorrelated(1, 1, 1),
         PskConstellation(2), 10.0),
    ]
    ok = True
    details = []
    for i, (name, scn, psk, snr_db) in enumerate(cases):
        cf = sep_mpsk(scn, psk, db(snr_db))
        assert cf >= 1e-4
        est = mc_sep(scn, psk, db(snr_db), MonteCarloConfig(trials=trials, seed=100 + i))
        dev = abs(est.value - cf)
        case_ok = dev <= 3 * est.std_error and dev <= 0.05 * cf
        ok &= case_ok
        details.append(f"{name}: cf={cf:.3e} mc={est.value:.3e} "
                       f"({dev / max(est.std_error, 1e-300):.2f} sigma)")
    report("criterion 3 (closed form vs MC, 3 sigma and 5%)", ok, "; ".join(details))


def test_criterion_4_correlation_snr_penalty():
    psk = PskConstellation(8)
    target = -6.0  # log10 SEP

    def crossing(fn, lo, hi):
        return optimize.brentq(lambda s: math.log10(fn(db(s))) - target, lo, hi,
                               xtol=1e-5)

    s_iid = crossing(lambda g: sep_mpsk_iid_rayleigh(4, 4, 0.75, psk, g), 8, 25)

    def dc(rho):
        phi = (lambda n: identity_corr(n) if rho == 0 else constant_corr(n, rho))
        scn = Scenario(4, 10, 4, phi(4), identity_corr(10), phi(4), g4())
        return crossing(lambda g: sep_mpsk(scn, psk, g), 8, 30)

    pen0 = dc(0.0) - s_iid
    pen5 = dc(0.5) - s_iid
    ok = abs(pen0 - 1.0) <= 0.3 and pen5 >= 2.5
    report("criterion 4 (SNR penalty at SEP 1e-6)", ok,
           f"rho=0: {pen0:.3f} dB (gate 1.0+-0.3); rho=0.5: {pen5:.3f} dB (gate >=2.5)")


def test_criterion_5_kurtosis_eff_monte_carlo():
    trials = 10_000_000
    cases = [
        ("keyhole-siso(1,1,1)", Scenario.uncorrelated(1, 1, 1)),
        ("uc(4,10,2)", Scenario.uncorrelated(4, 10, 2)),
        ("const-rho.5(2,5,2)", Scenario(2, 5, 2, constant_corr(2, 0.5),
                                        constant_corr(5, 0.5),
                                        constant_corr(2, 0.5))),
    ]
    ok = True
    details = []
    for i, (name, scn) in enumerate(cases):
        kurt, _ = mc_kurtosis_eff(scn, MonteCarloConfig(trials=trials, seed=200 + i))
        ka = kurtosis_frobenius(scn)
        rel = abs(kurt.value - ka) / ka
        ok &= rel <= 0.02
        details.append(f"{name}: mc={kurt.value:.4f} exact={ka:.4f}")
    # i.i.d. Rayleigh SISO proxy: n_s = 1e4 with identity correlations
    proxy = Scenario.uncorrelated(1, 10_000, 1)
    _, eff = mc_kurtosis_eff(proxy, MonteCarloConfig(trials=trials, seed=210))
    ok_eff = eff.flag is None and abs(eff.value) <= 0.05
    ok &= ok_eff
    details.append(f"rayleigh-proxy EFF={eff.value:+.4f} dB (gate 0+-0.05)")
    report("criterion 5 (kurtosis/EFF within 2%, proxy EFF 0 dB)", ok,
           "; ".join(details))


def test_criterion_6_minimum_bit_energy():
    scns = [
        Scenario.uncorrelated(1, 1, 1),
        Scenario.uncorrelated(4, 20, 4, g4()),
        Scenario(2, 5, 2, constant_corr(2, 0.5), constant_corr(5, 0.5),
                 constant_corr(2, 0.5), alamouti()),
        Scenario.uncorrelated(2, 3, 2, alamouti(), no_double_scattering=True),
    ]
    ok = True
    for scn in scns:
        received = 10 * math.log10(scn.n_r * ebn0_min(scn.n_r))
        ok &= abs(received - (-1.59)) <= 0.01
        ok &= received == ebn0_min_received_db()

    # small-SNR capacity slope: C/snr -> n_r log2 e; the exact second-order
    # term is removed so the Monte Carlo gate is a pure 3-sigma test
    scn = Scenario.uncorrelated(2, 4, 3)
    snr = 1e-3
    est = mc_capacity(scn, snr, "general", MonteCarloConfig(trials=1_000_000, seed=220))
    ident = lambda n: Spectrum((1.0,), (n,), n)
    _, tr_sq = double_product_moments(ident(scn.n_r), ident(scn.n_s), ident(scn.n_t))
    second = 0.5 * math.log2(math.e) * (tr_sq / scn.n_s**2) / scn.n_t**2
    first = scn.n_r * math.log2(math.e)
    dev = abs(est.value / snr - (first - snr * second))
    ok_slope = dev <= 3 * est.std_error / snr
    ok &= ok_slope
    report("criterion 6 (received Eb/N0 min -1.59 dB; first-order capacity slope)",
           ok, f"slope dev={dev:.2e} vs 3se={3 * est.std_error / snr:.2e}")


def test_criterion_7_special_function_kernel():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        q = int(rng.integers(1, 21))
        x = float(10.0 ** rng.uniform(-3, 3))
        a = hyp2f0(n, q, x)
        b = oracle_2f0(n, q, x, dps=50)
        worst = max(worst, abs(a - b) / abs(b))
    ok = worst <= 1e-9

    slope_ok = True
    slopes = []
    xs = np.logspace(3, 5, 9)
    for n, q in [(1, 2), (2, 5), (7, 3), (4, 1), (9, 12)]:
        v = hyp2f0(n, q, xs)
        slope = float(np.polyfit(np.log10(xs), np.log10(v), 1)[0])
        slopes.append(f"({n},{q})->{slope:.3f}")
        slope_ok &= abs(slope + min(n, q)) <= 0.02 * min(n, q)
    ok &= slope_ok
    report("criterion 7 (2F0 kernel vs oracle 1e-9; tail slopes)", ok,
           f"worst rel={worst:.2e}; slopes {'; '.join(slopes)}")


def test_criterion_8_eigen_density_normalization_and_ks():
    sig = Spectrum((2.0, 1.0), (1, 1), 2)
    wi, _ = integrate.dblquad(
        lambda l2, l1: wishart_eigen_pdf([l1, l2], 3, sig), 0, 60,
        0, lambda l1: l1, epsabs=1e-9, epsrel=1e-9)
    beta = Spectrum((3.0, 1.0), (1, 1), 2)
    qi, _ = integrate.dblquad(
        lambda l2, l1: quadratic_form_eigen_pdf([l1, l2], 2, beta), 0, 120,
        0, lambda l1: l1, epsabs=1e-9, epsrel=1e-9)
    ok = abs(wi - 1.0) <= 1e-6 and abs(qi - 1.0) <= 1e-6

    rng = np.random.default_rng(888)
    n = 100_000
    x = np.sqrt(np.array([2.0, 1.0]))[None, :, None] * cgauss(rng, n, 2, 3)
    wsamp = np.linalg.eigvalsh(x @ x.conj().transpose(0, 2, 1))[:, -1]
    grid = np.linspace(1e-9, wsamp.max() * 1.05, 400)
    cdf = max_eig_cdf(lambda a, b: wishart_eigen_pdf([a, b], 3, sig), grid)
    pw = stats.ks_1samp(wsamp, cdf).pvalue

    y = cgauss(rng, n, 2, 2)
    qsamp = np.linalg.eigvalsh(y @ np.diag([1.0, 3.0]) @ y.conj().transpose(0, 2, 1))[:, -1]
    grid = np.linspace(1e-9, qsamp.max() * 1.05, 400)
    cdf = max_eig_cdf(lambda a, b: quadratic_form_eigen_pdf([a, b], 2, beta), grid)
    pq = stats.ks_1samp(qsamp, cdf).pvalue
    ok &= pw > 1e-3 and pq > 1e-3
    report("criterion 8 (density normalization 1e-6; KS at 1e-3)", ok,
           f"norms=({wi:.9f}, {qi:.9f}), KS p=({pw:.3g}, {pq:.3g})")


def test_criterion_9_property_suites():
    ok = True
    notes = []

    # characteristic coefficients: reconstruction, sum, constant-model forms
    spec = Spectrum((3.0, 1.5, 0.4), (2, 1, 3), 6)
    cc = characteristic_coefficients(spec)
    rng = np.random.default_rng(99)
    recon = max(
        abs(cc.reconstruct(xi) - np.prod([(1 + xi * v) ** (-m)
                                          for v, m in spec.distinct]))
        / np.prod([(1 + xi * v) ** (-m) for v, m in spec.distinct])
        for xi in rng.uniform(0.01, 5.0, 20))
    ok &= recon <= 1e-9
    total = abs(sum(c for row in cc.coeffs for c in row) - 1.0)
    ok &= total <= 1e-10
    n, rho = 4, 0.5
    ccc = characteristic_coefficients(constant_corr(n, rho).spectrum)
    a1 = 1 - rho + n * rho
    closed = [(n * rho / a1) ** (-n + 1)]
    closed += [-(1 - rho) / a1 * (n * rho / a1) ** (-n + j) for j in range(1, n)]
    got = [ccc.coeffs[0][0], *ccc.coeffs[1]]
    dev_cc = max(abs(a - b) for a, b in zip(got, closed))
    ok &= dev_cc <= 1e-10
    notes.append(f"charcoef recon={recon:.1e} sum={total:.1e} const-model={dev_cc:.1e}")

    # majorization chains on the rho grids
    chains_ok = True
    for model, bound in [(constant_corr, 1.0), (exponential_corr, 1.0),
                         (tridiagonal_corr, 0.5 / math.cos(math.pi / 5))]:
        rhos = [r for r in np.arange(0.0, 0.95, 0.1) if r < bound]
        eigs = [model(4, r).spectrum.expand() for r in rhos]
        chains_ok &= all(majorizes(a, b) for a, b in zip(eigs, eigs[1:]))
    ok &= chains_ok
    notes.append(f"majorization chains={'ok' if chains_ok else 'broken'}")

    # MIS/MDS of kurtosis, EFF, S0 along the constant-correlation chain
    def scn_rho(r):
        phi = lambda k: identity_corr(k) if r == 0 else constant_corr(k, r)
        return Scenario(2, 4, 2, phi(2), phi(4), phi(2), alamouti())

    ks = [kurtosis_frobenius(scn_rho(r)) for r in (0.0, 0.3, 0.6, 0.9)]
    effs = [eff_stbc(scn_rho(r)) for r in (0.0, 0.3, 0.6, 0.9)]
    s0s = [s0_general(scn_rho(r)) for r in (0.0, 0.3, 0.6, 0.9)]
    s0o = [s0_ostbc(scn_rho(r)) for r in (0.0, 0.3, 0.6, 0.9)]
    mono = (all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))
            and all(a <= b + 1e-12 for a, b in zip(effs, effs[1:]))
            and all(a >= b - 1e-12 for a, b in zip(s0s, s0s[1:]))
            and all(a >= b - 1e-12 for a, b in zip(s0o, s0o[1:])))
    ok &= mono
    notes.append(f"MIS/MDS={'ok' if mono else 'broken'}")

    # formula reductions at identity correlations, against 128
    # Gauss-Legendre nodes on [0, Theta] over oracle_kron_mgf (60 digits)
    # and the oracle itself
    psk = PskConstellation(8)
    scn = Scenario.uncorrelated(4, 6, 1, g4())
    snr = db(15.0)
    ref = 0.015171211791731896
    base = sep_mpsk_uncorrelated(scn, psk, snr)
    red_dc = abs(sep_mpsk_doubly_correlated(scn, psk, snr) - ref) / ref
    red_miso = abs(sep_mpsk_miso(scn, psk, snr) - base) / base
    red_kron = 0.0
    for m, n, nu, xi in [(2, 4, 2, 0.3), (3, 5, 2, 1.0)]:
        ident, recv = Spectrum((1.0,), (m,), m), Spectrum((1.0,), (nu,), nu)
        mgf = oracle_kron_mgf(m, n, ident, recv, xi)
        red_kron = max(red_kron, abs(expected_inv_det_kron(m, n, ident, recv, xi) - mgf) / mgf,
                       abs(expected_inv_det_uncorr(m, n, nu, xi) - mgf) / mgf)
    ok &= red_dc <= 1e-9 and red_miso <= 1e-9 and red_kron <= 1e-10
    notes.append(f"reductions dc={red_dc:.1e} miso={red_miso:.1e} kron={red_kron:.1e}")

    report("criterion 9 (property suites)", ok, "; ".join(notes))
