import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import dsmimo.matstat as matstat
from dsmimo.codes import g4
from dsmimo.corrmat import (CorrelationMatrix, Spectrum, constant_corr,
                            exponential_corr, identity_corr, matrix_sqrt, spectrum_of)
from dsmimo.matstat import (SLICE, Scenario, SlicePlan, bidiagonal_slice, channel_slice,
                            double_product_moments, kurtosis_frobenius, sample_channel)
from dsmimo.mc import substream

from conftest import cgauss, random_correlation
from oracles import frobenius_moments


def spec_of(vals, mults=None):
    if mults is None:
        mults = [1] * len(vals)
    dim = sum(mults)
    return Spectrum(tuple(float(v) for v in vals), tuple(mults), dim)


def gaussian_scenario(row_cov, col_cov):
    """Rich-scattering scenario whose channel is the matrix Gaussian with row
    covariance row_cov (receive side) and column covariance col_cov
    (transmit side)."""
    return Scenario(col_cov.dim, 1, row_cov.dim, col_cov, identity_corr(1),
                    row_cov, no_double_scattering=True)


class TestSampleGaussian:
    """sample_channel without double scattering: phi_r^(1/2) G phi_t^(1/2)."""

    N = 1_000_000

    def test_unit_variance_convention(self, rng):
        scn = gaussian_scenario(identity_corr(1), identity_corr(1))
        x = sample_channel(scn, rng, size=self.N)[:, 0, 0]
        m2 = np.mean(np.abs(x) ** 2)
        se = np.std(np.abs(x) ** 2) / math.sqrt(self.N)
        assert abs(m2 - 1.0) < 3 * se

    def test_row_covariance(self, rng):
        sig = constant_corr(2, 0.6).entries
        scn = gaussian_scenario(constant_corr(2, 0.6), identity_corr(2))
        x = sample_channel(scn, rng, size=self.N)
        emp = np.einsum("bik,bjk->ij", x, x.conj()) / self.N
        # E[X X^H] = n * Sigma; per-entry 3 sigma gate
        se = 2.0 / math.sqrt(self.N)
        assert np.all(np.abs(emp - 2 * sig) < 3 * se + 1e-12)

    def test_col_covariance(self, rng):
        psi = constant_corr(3, 0.4).entries
        scn = gaussian_scenario(identity_corr(2), constant_corr(3, 0.4))
        x = sample_channel(scn, rng, size=self.N)
        emp = np.einsum("bki,bkj->ij", x.conj(), x) / self.N
        se = 2.0 / math.sqrt(self.N)
        assert np.all(np.abs(emp - 2 * psi) < 3 * se + 1e-12)

    def test_single_draw_shape(self, rng):
        scn = gaussian_scenario(identity_corr(3), identity_corr(2))
        assert sample_channel(scn, rng).shape == (3, 2)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError):
            Scenario(2, 1, 2, identity_corr(2), identity_corr(1),
                     identity_corr(3), no_double_scattering=True)
        with pytest.raises(ValueError):
            CorrelationMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSampleChannel:
    def test_frobenius_power_normalization(self, rng):
        scn = Scenario(2, 3, 2, constant_corr(2, 0.5), constant_corr(3, 0.3),
                       constant_corr(2, 0.7))
        n = 1_000_000
        h = sample_channel(scn, rng, size=n)
        fro2 = np.einsum("bij,bij->b", h.real, h.real) + np.einsum(
            "bij,bij->b", h.imag, h.imag)
        assert abs(fro2.mean() - scn.n_t * scn.n_r) < 0.01 * scn.n_t * scn.n_r

    def test_keyhole_is_rank_one(self, rng):
        scn = Scenario.uncorrelated(3, 1, 2)
        h = sample_channel(scn, rng, size=64)
        sv = np.linalg.svd(h, compute_uv=False)
        assert np.all(sv[:, 1:] < 1e-12 * sv[:, :1])

    def test_rank_is_min_dimension(self, rng):
        scn = Scenario.uncorrelated(4, 2, 3)
        h = sample_channel(scn, rng, size=1000)
        sv = np.linalg.svd(h, compute_uv=False)
        # rank min(4, 2, 3) = 2 with probability one: two singular values
        # bounded away from zero, the third at round-off level
        assert np.all(sv[:, 1] > 1e-8)
        assert np.all(sv[:, 2] < 1e-12 * sv[:, 0])

    @pytest.mark.parametrize("model", ["constant", "general"])
    def test_gram_means_with_correlated_scatterers(self, rng, model):
        # E[H H^H] = n_t phi_r and E[H^H H] = n_r phi_t whatever phi_s is;
        # per entry, real and imaginary parts within 3 standard errors of the
        # per-trial spread
        if model == "constant":
            sides = [constant_corr(3, 0.6), constant_corr(4, 0.5), constant_corr(2, 0.3)]
        else:
            sides = [random_correlation(rng, n) for n in (3, 4, 2)]
        scn = Scenario(3, 4, 2, *sides)
        n = 400_000
        h = sample_channel(scn, rng, size=n)
        hh = h.conj().transpose(0, 2, 1)
        for gram, expect in [(h @ hh, scn.n_t * scn.phi_r.entries),
                             (hh @ h, scn.n_r * scn.phi_t.entries)]:
            for part in (np.real, np.imag):
                g = part(gram)
                se = g.std(axis=0) / math.sqrt(n)
                assert np.all(np.abs(g.mean(axis=0) - part(expect)) < 3 * se + 1e-12)

    @staticmethod
    def slice_wise(scn, rng, size):
        """The batch drawn slice by slice in the spectral frame, then rotated
        into the antenna frame: per slice of at most SLICE trials, H1's
        entries, then H2's (G's alone without double scattering), each
        entry's real part followed by its imaginary part, scaled by the
        square roots of the sides' eigenvalues; then H = U_r D U_t^H."""
        b = 1 if size is None else size

        def root_half(phi):
            return np.sqrt(0.5 * phi.spectrum.expand())

        def draw(k, scale):
            x = rng.standard_normal((k, *scale.shape, 2))
            z = np.empty((k, *scale.shape), dtype=complex)
            z.real = x[..., 0] * scale
            z.imag = x[..., 1] * scale
            return z

        def basis(phi):
            w, v = np.linalg.eigh(phi.entries)
            # eigh's ascending order, reversed, is the spectrum's order
            np.testing.assert_allclose(w[::-1], phi.spectrum.expand(), rtol=1e-12)
            return v[:, ::-1]

        r = root_half(scn.phi_r)
        t = np.sqrt(scn.phi_t.spectrum.expand())
        out = []
        for lo in range(0, b, SLICE):
            k = min(SLICE, b - lo)
            if scn.no_double_scattering:
                out.append(draw(k, r[:, None] * t))
            else:
                h1 = draw(k, np.repeat((r / math.sqrt(scn.n_s))[:, None], scn.n_s, axis=1))
                h2 = draw(k, root_half(scn.phi_s)[:, None] * t)
                out.append(h1 @ h2)
        d = np.concatenate(out)
        if not scn.phi_r.is_identity:
            d = basis(scn.phi_r) @ d
        if not scn.phi_t.is_identity:
            d = d @ basis(scn.phi_t).conj().T
        return d

    @pytest.mark.parametrize("size", [None, 1, SLICE - 1, SLICE + 1, 3 * SLICE + 5])
    @pytest.mark.parametrize("sides", ["iii", "rrr", "ccc", "rii", "ici", "iic",
                                       "rich ii", "rich cr", "tall cir", "edge iii",
                                       "n_s=m iii"])
    def test_slices_equal_one_shot_draw(self, size, sides):
        # sample_channel draws the full product at every shape, also those
        # whose capacity slice is reduced (phi_s = I with 3x4x2, "edge"
        # 3x3x2 and "tall" 2x5x3), and at "n_s=m" 3x2x2
        rng = np.random.default_rng(11)
        corr = {"i": identity_corr,
                "r": lambda n: constant_corr(n, 0.45),
                "c": lambda n: random_correlation(rng, n)}
        dims = {"tall": (2, 5, 3), "edge": (3, 3, 2), "n_s=m": (3, 2, 2)}
        if sides.startswith("rich"):
            t, r = sides[-2:]
            scn = Scenario(3, 1, 2, corr[t](3), identity_corr(1), corr[r](2),
                           no_double_scattering=True)
        else:
            n_t, n_s, n_r = dims.get(sides[:-4], (3, 4, 2))
            t, s, r = sides[-3:]
            scn = Scenario(n_t, n_s, n_r, corr[t](n_t), corr[s](n_s), corr[r](n_r))
        got = sample_channel(scn, substream(9, 2), size=size)
        ref = self.slice_wise(scn, substream(9, 2), size)
        assert np.array_equal(got, ref[0] if size is None else ref)

    @pytest.mark.parametrize("dims", [(3, 4, 2), (2, 5, 3), (4, 10, 4), (4, 10, 3)])
    def test_reduced_product_matches_matmul(self, dims):
        # the reduced slice's column form against G @ B, B the bidiagonal
        # factor zero-filled, from the same variates (G's entries, then
        # bidiagonal_slice's draw; spiked small sides, and the chain for the
        # exponential 3-side of 4x10x3): each trial within 1e-14 of its
        # largest entry
        n_t, n_s, n_r = dims
        scn = Scenario(n_t, n_s, n_r, constant_corr(n_t, 0.45), identity_corr(n_s),
                       exponential_corr(n_r, 0.6))
        plan = SlicePlan(scn)
        big, small = plan.sides
        m, size = small.dim, SLICE + 7
        got = channel_slice(plan, substream(9, 4), size)
        rng = substream(9, 4)
        x = rng.standard_normal((size, big.dim, m, 2))
        g = (x[..., 0] + 1j * x[..., 1]) * np.sqrt(0.5 / n_s * big.spectrum.expand())[:, None]
        d2, f2, _ = bidiagonal_slice(plan, rng, size)
        bd = np.zeros((size, m, m))
        bd[:, np.arange(m), np.arange(m)] = np.sqrt(d2).T
        bd[:, np.arange(m - 1), np.arange(1, m)] = np.sqrt(f2).T
        ref = g @ bd
        scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    @pytest.mark.parametrize("rich", [False, True])
    def test_longer_draw_extends_shorter(self, rich):
        # a slice's variates never depend on the batch size, so a batch is a
        # prefix of any longer batch from the same stream
        scn = Scenario(3, 4, 2, constant_corr(3, 0.3), identity_corr(4),
                       constant_corr(2, 0.6), no_double_scattering=rich)
        short = sample_channel(scn, substream(9, 3), size=2 * SLICE)
        long = sample_channel(scn, substream(9, 3), size=3 * SLICE + 5)
        assert np.array_equal(short, long[:2 * SLICE])

    @pytest.mark.parametrize("rich", [False, True])
    def test_capped_draw_is_consecutive_chunks(self, monkeypatch, rich):
        # a slice past DRAW_DOUBLES draws as consecutive smaller slices would:
        # 3x4x2 takes 40 doubles per trial (12 without double scattering),
        # so a cap of 7 trials' worth splits 23 trials as 7 + 7 + 7 + 2
        scn = Scenario(3, 4, 2, constant_corr(3, 0.3), exponential_corr(4, 0.5),
                       constant_corr(2, 0.6), no_double_scattering=rich)
        rng = substream(9, 4)
        ref = np.concatenate([matstat._product_slice(scn, rng, k) for k in (7, 7, 7, 2)])
        monkeypatch.setattr(matstat, "DRAW_DOUBLES", 7 * (12 if rich else 40) + 5)
        assert np.array_equal(matstat._product_slice(scn, substream(9, 4), 23), ref)

    def test_large_product_draw_memory_is_bounded(self):
        # 4x1000x4 takes 16000 doubles per trial: one call for a 4096-trial
        # slice would allocate 524 MB
        scn = Scenario.uncorrelated(4, 1000, 4)
        tracemalloc.start()
        try:
            h = sample_channel(scn, substream(9, 5), size=SLICE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (SLICE, 4, 4) and np.isfinite(h).all()
        assert peak < 64 * 2**20, peak

    @pytest.mark.parametrize("n_t,n_s,n_r,tx,rx", [
        (4, 10, 4, "constant 0.5", "constant 0.5"), (4, 10, 2, "constant 0", "constant 0"),
        (3, 3, 2, "constant 0", "constant 0"), (4, 10, 4, "exponential 0.5", "constant 0.5"),
        (5, 10, 3, "constant 0.5", "exponential 0.5")])
    def test_reduced_draw_has_the_law_of_the_full_product(self, n_t, n_s, n_r, tx, rx):
        # phi_s = I and n_s > min(n_t, n_r): the reduced draw (H2 side
        # reduced for 4x10x4, H1 side for 4x10x2, the edge 3x3x2 and the
        # wide 5x10x3; the Golub-Kahan chain for the exponential small
        # sides) against (sqrt(r) o H1)(H2 o sqrt(t)^T)/sqrt(n_s) from a
        # generator of its own; two-sample KS on ||D||_F^2 and on
        # log det(I + D D^H), taken on the smaller Gram so that either
        # orientation of D gives it
        corr = {"constant 0.5": lambda n: constant_corr(n, 0.5),
                "constant 0": lambda n: constant_corr(n, 0.0),
                "exponential 0.5": lambda n: exponential_corr(n, 0.5)}
        n = 1 << 15
        scn = Scenario(n_t, n_s, n_r, corr[tx](n_t), identity_corr(n_s), corr[rx](n_r))
        rng, plan = substream(21, 0), SlicePlan(scn)
        reduced = np.concatenate([channel_slice(plan, rng, min(SLICE, n - lo))
                                  for lo in range(0, n, SLICE)])
        rng = np.random.default_rng(22)
        r = np.sqrt(scn.phi_r.spectrum.expand())[:, None]
        t = np.sqrt(scn.phi_t.spectrum.expand())
        full = (r * cgauss(rng, n, n_r, n_s)) @ (cgauss(rng, n, n_s, n_t) * t) / math.sqrt(n_s)

        def laws(d):
            fro = np.einsum("bij,bij->b", d, d.conj()).real
            dh = d.conj().transpose(0, 2, 1)
            gram = d @ dh if d.shape[1] <= d.shape[2] else dh @ d
            logdet = np.linalg.slogdet(np.eye(len(gram[0])) + gram)[1]
            return fro, logdet

        for a, b in zip(laws(reduced), laws(full)):
            assert stats.ks_2samp(a, b).pvalue > 1e-3

    def test_scenario_dimension_checks(self):
        with pytest.raises(ValueError):
            Scenario(2, 3, 2, identity_corr(3), identity_corr(3), identity_corr(2))
        with pytest.raises(ValueError):
            Scenario(3, 2, 2, identity_corr(3), identity_corr(2),
                     identity_corr(2), g4())


class TestDoubleProductMoments:
    def test_all_scalar_unit(self):
        assert double_product_moments(spec_of([1]), spec_of([1]), spec_of([1])) == (4.0, 4.0)

    def test_identity_two_by_two(self, rng):
        # four-term formulas give (112, 104); both verified by Monte Carlo
        i2 = spec_of([1], [2])
        tr2, trsq = double_product_moments(i2, i2, i2)
        assert (tr2, trsq) == (112.0, 104.0)
        b = 400_000
        x1 = (rng.standard_normal((b, 2, 2)) + 1j * rng.standard_normal((b, 2, 2))) / np.sqrt(2)
        x2 = (rng.standard_normal((b, 2, 2)) + 1j * rng.standard_normal((b, 2, 2))) / np.sqrt(2)
        w = x1 @ x2
        w = w @ w.conj().transpose(0, 2, 1)
        tr = np.einsum("bii->b", w).real
        trs = np.einsum("bij,bji->b", w, w).real
        assert abs((tr**2).mean() - tr2) < 0.02 * tr2
        assert abs(trs.mean() - trsq) < 0.02 * trsq

    @pytest.mark.parametrize("sigma1,psi1,sigma2,psi2", [
        (spec_of([3, 1]), identity_corr(2), identity_corr(2), spec_of([1], [2])),
        (spec_of([2.5, 0.5]), constant_corr(3, 0.5), identity_corr(3), spec_of([1.5, 0.25])),
        (constant_corr(2, 0.6).spectrum, exponential_corr(3, 0.4), constant_corr(3, 0.3),
         constant_corr(2, 0.7).spectrum),
    ], ids=["diagonal", "rectangular", "correlated"])
    def test_monte_carlo_oracle(self, rng, sigma1, psi1, sigma2, psi2):
        # X1 = Sigma1^(1/2) G1 Psi1^(1/2), X2 = Sigma2^(1/2) G2 Psi2^(1/2),
        # Sigma1 and Psi2 diagonal; Psi1 Sigma2 enters through its spectrum
        b = 400_000
        r1, r2 = matrix_sqrt(psi1), matrix_sqrt(sigma2)
        x1 = np.sqrt(sigma1.expand())[:, None] * cgauss(rng, b, sigma1.dim, psi1.dim) @ r1
        x2 = r2 @ cgauss(rng, b, sigma2.dim, psi2.dim) * np.sqrt(psi2.expand())
        w = x1 @ x2
        w = w @ w.conj().transpose(0, 2, 1)
        tr = np.einsum("bii->b", w).real
        trs = np.einsum("bij,bji->b", w, w).real
        prod = spectrum_of(r2 @ psi1.entries @ r2)
        for sample, expect in zip((tr**2, trs), double_product_moments(sigma1, prod, psi2)):
            assert abs(sample.mean() - expect) < 4 * sample.std() / math.sqrt(b)

    def test_transpose_symmetry(self):
        # W^T has the factors X2^T X1^T: the outer spectra trade places
        a, b, c = spec_of([3, 1]), constant_corr(3, 0.5).spectrum, spec_of([2, 0.5, 0.25])
        assert double_product_moments(a, b, c) == pytest.approx(
            double_product_moments(c, b, a), rel=1e-15)

    def test_degree_two_in_each_side(self):
        a, b, c = spec_of([3, 1]), constant_corr(3, 0.5).spectrum, spec_of([2, 0.5])
        base = np.array(double_product_moments(a, b, c))
        for i in range(3):
            sides = [a, b, c]
            sides[i] = Spectrum(tuple(3.0 * v for v in sides[i].values), sides[i].mults,
                                sides[i].dim)
            np.testing.assert_allclose(double_product_moments(*sides), 9.0 * base,
                                       rtol=1e-14)

    @pytest.mark.parametrize("scn", [
        Scenario.uncorrelated(4, 10, 2),
        Scenario(2, 5, 2, constant_corr(2, 0.5), constant_corr(5, 0.5), constant_corr(2, 0.5)),
        Scenario(3, 4, 2, exponential_corr(3, 0.7), identity_corr(4), constant_corr(2, 0.2)),
    ], ids=["uncorrelated", "constant", "mixed"])
    def test_matches_kurtosis_frobenius(self, scn):
        # ||H||_F^2 = tr W for X1 = Phi_r^(1/2) G1 Phi_s^(1/2), X2 = G2 Phi_t^(1/2)
        tr2, _ = double_product_moments(scn.phi_r.spectrum, scn.phi_s.spectrum,
                                        scn.phi_t.spectrum)
        mean = scn.n_r * scn.n_s * scn.n_t
        assert tr2 / mean**2 == pytest.approx(kurtosis_frobenius(scn), rel=1e-14)


class TestKurtosisFrobenius:
    def test_siso_keyhole(self):
        assert kurtosis_frobenius(Scenario.uncorrelated(1, 1, 1)) == 4.0

    def test_uncorrelated_formula(self):
        # 1/(nT nR) + 1/(nT nS) + 1/(nR nS) + 1 at (nT, nS, nR) = (4, 10, 2)
        scn = Scenario.uncorrelated(4, 10, 2)
        assert kurtosis_frobenius(scn) == pytest.approx(1 / 8 + 1 / 40 + 1 / 20 + 1)
        assert kurtosis_frobenius(scn) == pytest.approx(1.2)

    def test_monte_carlo_agreement(self, rng):
        scn = Scenario(2, 5, 2, constant_corr(2, 0.5), constant_corr(5, 0.5),
                       constant_corr(2, 0.5))
        n = 1_000_000
        h = sample_channel(scn, rng, size=n)
        x = np.einsum("bij,bij->b", h.real, h.real) + np.einsum(
            "bij,bij->b", h.imag, h.imag)
        kap_mc = (x**2).mean() / x.mean() ** 2
        assert abs(kap_mc - kurtosis_frobenius(scn)) < 0.02 * kurtosis_frobenius(scn)

    def test_mis_in_componentwise_rho(self):
        vals = []
        for r in (0.0, 0.2, 0.4, 0.6, 0.8):
            phi = lambda n: identity_corr(n) if r == 0 else constant_corr(n, r)
            vals.append(kurtosis_frobenius(Scenario(2, 3, 2, phi(2), phi(3), phi(2))))
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_identity_attains_uncorrelated_floor(self):
        for nt, ns, nr in [(1, 1, 1), (2, 4, 3), (4, 10, 2)]:
            scn = Scenario.uncorrelated(nt, ns, nr)
            floor = 1 + 1 / (nt * nr) + 1 / (nt * ns) + 1 / (nr * ns)
            assert kurtosis_frobenius(scn) == pytest.approx(floor, rel=1e-14)

    def test_no_double_scattering_drops_scatterer_terms(self):
        from dsmimo.corrmat import correlation_figure

        scn = Scenario(2, 99, 2, constant_corr(2, 0.5), identity_corr(99),
                       constant_corr(2, 0.5), no_double_scattering=True)
        zt = correlation_figure(constant_corr(2, 0.5))
        assert kurtosis_frobenius(scn) == pytest.approx(zt * zt + 1)

    def test_frobenius_moments(self):
        scn = Scenario.uncorrelated(2, 3, 2)
        m2, m4 = frobenius_moments(scn)
        assert m2 == 4.0
        assert m4 == pytest.approx(kurtosis_frobenius(scn) * 16.0)
