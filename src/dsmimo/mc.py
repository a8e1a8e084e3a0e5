"""Monte Carlo verification engine.

Estimators are semi-analytic where possible: each trial draws a channel and
accumulates an exactly computed conditional quantity (the conditional M-PSK
SEP integral, the instantaneous capacity), which collapses the variance by
orders of magnitude relative to symbol-level simulation and makes tight
3-sigma cross-checks against the closed forms affordable.  Each reads H only
through ||H||_F^2 or det(I + c H H^H), so it takes the unrotated draw in the
sides' eigenbases (matstat.channel_slices).

Reproducibility contract: estimates depend only on (trials, seed).  Trials
are processed in fixed-size blocks of 2^16; block b draws from the SFC64
child stream SeedSequence(seed, spawn_key=(b,)).  A block is drawn in slices
of 4096 trials (matstat.SLICE); each slice takes its normals from one
standard_normal call, each factor in C order over (trial, row, column) with
every complex entry stored as its (real, imaginary) pair: the H1 block, then
the H2 block (G alone without double scattering).  With uncorrelated
scatterers and n_s > m = min(n_t, n_r) the slice is drawn in reduced form,
D = (sqrt(r) o G)(R_b o sqrt(t)^T)/sqrt(n_s): the call holds G (n_r x n_t,
or n_t x n_r for the transposed D when n_r < n_t), then the strict upper
triangle of the m x m Bartlett factor R_b, and one standard_gamma call
follows with the (trial, i) diagonal, R_ii^2 ~ Gamma(n_s - i).  A trial then
costs 2 n_r n_t + m(m-1) normals and m gammas whatever n_s is.  Blocks run
concurrently on up to os.cpu_count() threads, and their sums are reduced in
block order, so results are bit-identical for any worker count.  Standard
errors come from 32 batch means over the trial index, which stays honest for
the ratio estimators (kurtosis) as well as plain means.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .matstat import Scenario, channel_slices
from .sep import PskConstellation, conditional_sep_mpsk, ostbc_snr_scale

BLOCK_SIZE = 1 << 16
N_BATCHES = 32


def substream(seed: int, index: int) -> np.random.Generator:
    """Child stream `index`, numpy's construction for independent streams:
    SFC64 seeded by SeedSequence(seed mod 2^64, spawn_key=(index,))."""
    seq = np.random.SeedSequence(seed % 2**64, spawn_key=(index,))
    return np.random.Generator(np.random.SFC64(seq))


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    trials: int
    flag: str | None = None


class KurtosisEff(NamedTuple):
    kurtosis: Estimate
    eff_db: Estimate


def _accumulate(cfg: MonteCarloConfig, per_trial) -> np.ndarray:
    """The moment table of per_trial(rng, count), an array of `count`
    per-trial values, over the block schedule: a 3 x N_BATCHES array whose
    rows hold each batch's trial count, sum of values and sum of squares."""
    trials = cfg.trials

    def block_table(block: int):
        start = block * BLOCK_SIZE
        cnt = min(BLOCK_SIZE, trials - start)
        v = per_trial(substream(cfg.seed, block), cnt)
        batch = (start + np.arange(cnt, dtype=np.int64)) * N_BATCHES // trials
        return np.array([np.bincount(batch, weights=w, minlength=N_BATCHES)
                         for w in (None, v, v * v)])

    blocks = -(-trials // BLOCK_SIZE)
    workers = min(blocks, os.cpu_count() or 1)
    if workers == 1:
        # Inline, with no thread: a pool thread gets its own malloc arena,
        # which raised the peak RSS of single-block CLI runs by about 12 MB.
        parts = map(block_table, range(blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(block_table, range(blocks)))
    table = np.zeros((3, N_BATCHES))
    for part in parts:  # block order, whatever finished first
        table += part
    return table


def _mean_estimate(cfg: MonteCarloConfig, per_trial) -> Estimate:
    """Mean and batch-means standard error of a per-trial scalar; falls back
    to the per-trial variance when there are too few trials for 32 batches."""
    counts, s1, s2 = _accumulate(cfg, per_trial)
    n = cfg.trials
    mean = s1.sum() / n
    if np.all(counts > 1):
        se = float((s1 / counts).std(ddof=1) / math.sqrt(N_BATCHES))
    else:
        var = max(s2.sum() / n - mean**2, 0.0)
        se = math.sqrt(var / n)
    return Estimate(float(mean), se, n)


def _frob_sq_samples(scn: Scenario, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-trial ||H||_F^2 draws.

    Without double scattering ||H||_F^2 is a weighted sum of exponentials
    over transmit/receive eigenvalue pairs; otherwise it is ||D||_F^2 of the
    channel drawn in the sides' eigenbases (matstat.channel_slices), whose
    draw with uncorrelated scatterers holds no n_s-sized factor.
    """
    if scn.no_double_scattering:
        pairs = np.multiply.outer(scn.phi_t.spectrum.expand(),
                                  scn.phi_r.spectrum.expand()).ravel()
        return rng.standard_exponential((count, pairs.size)) @ pairs
    return _per_channel(scn, rng, count, lambda d: np.einsum(
        "bij,bij->b", d.view(float), d.view(float)))


def _per_channel(scn: Scenario, rng: np.random.Generator, count: int, fn) -> np.ndarray:
    """fn(D) over `count` draws of the channel in the sides' eigenbases
    (matstat.channel_slices), one slice at a time."""
    out = np.empty(count)
    for lo, d in channel_slices(scn, rng, count):
        out[lo:lo + len(d)] = fn(d)
    return out


def _log2_det_eye_plus(c: float, h: np.ndarray) -> np.ndarray:
    """log2 det(I + c H H^H) for a stack of channels: 2 sum_i log2 |R_ii|, R
    the QR factor of [I; sqrt(c) T], T the taller of H and H^H.  The Gram
    matrix is never formed, whose round-off times c would show in the unit
    eigenvalues of a channel of rank below min(n_r, n_t)."""
    t = h if h.shape[1] > h.shape[2] else h.conj().transpose(0, 2, 1)
    k = t.shape[2]
    eye = np.broadcast_to(np.eye(k), (len(t), k, k))
    r = np.linalg.qr(np.concatenate([eye, math.sqrt(c) * t], axis=1), mode="r")
    return 2.0 * np.log2(np.abs(np.diagonal(r, axis1=1, axis2=2))).sum(axis=1)


def mc_sep(scn: Scenario, psk: PskConstellation, snr: float,
           cfg: MonteCarloConfig) -> Estimate:
    """Semi-analytic SEP estimate: average over channel draws of the exact
    conditional M-PSK SEP at gamma = snr*||H||_F^2/(n_t*rate)."""
    if not 0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    scale = snr * ostbc_snr_scale(scn)

    def per_trial(rng, n):
        return conditional_sep_mpsk(scale * _frob_sq_samples(scn, rng, n), psk)

    return _mean_estimate(cfg, per_trial)


def mc_kurtosis_eff(scn: Scenario, cfg: MonteCarloConfig) -> KurtosisEff:
    """Raw-moment kurtosis of ||H||_F and the fading figure 10log10(k-1).

    The raw-moment form E[X^2]/E[X]^2 with X = ||H||_F^2 avoids the
    catastrophic cancellation of the central form.  When the estimate is
    within one standard error of 1, the dB figure has no meaning and is
    returned as NaN with a flag.
    """
    if cfg.trials < 10_000:
        raise ValueError("kurtosis estimation needs at least 1e4 trials")
    counts, s1, s2 = _accumulate(cfg, partial(_frob_sq_samples, scn))
    n = cfg.trials
    m1, m2 = s1.sum() / n, s2.sum() / n
    kappa = float(m2 / m1**2)
    bk = (s2 / counts) / (s1 / counts) ** 2
    se_k = float(bk.std(ddof=1) / math.sqrt(N_BATCHES))
    kurt = Estimate(kappa, se_k, n)

    if kappa <= 1.0 + se_k:
        eff = Estimate(float("nan"), float("nan"), n,
                       flag="kurtosis <= 1 within noise; EFF undefined in dB")
    else:
        eff_val = 10.0 * math.log10(kappa - 1.0)
        # delta method: d(eff)/d(kappa) = 10/(ln10 (kappa-1))
        se_eff = se_k * 10.0 / (math.log(10.0) * (kappa - 1.0))
        eff = Estimate(eff_val, se_eff, n)
    return KurtosisEff(kurt, eff)


def mc_capacity(scn: Scenario, snr: float, mode: str,
                cfg: MonteCarloConfig) -> Estimate:
    """Ergodic capacity estimate in bits/s/Hz.

    mode "general": E log2 det(I + (snr/n_t) H H^H);
    mode "ostbc":   rate * E log2(1 + snr*||H||_F^2/(n_t*rate)).
    """
    if not 0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    if mode == "ostbc":
        scale = snr * ostbc_snr_scale(scn)
        rate = float(scn.rate)

        def per_trial(rng, n):
            return rate * np.log2(1.0 + scale * _frob_sq_samples(scn, rng, n))

    elif mode == "general":
        c = snr / scn.n_t

        def per_trial(rng, n):
            return _per_channel(scn, rng, n, lambda h: _log2_det_eye_plus(c, h))

    else:
        raise ValueError(f"unknown capacity mode {mode!r}")
    return _mean_estimate(cfg, per_trial)


def fit_diversity_slope(curve) -> float:
    """Diversity order from a SEP curve: the negated least-squares slope of
    log10(SEP) against snr_db/10 over the top decade of the curve."""
    pts = sorted((float(s), float(p)) for s, p in curve)
    if len(pts) < 4:
        raise ValueError("need at least 4 curve points")
    top = pts[-1][0]
    if top - pts[0][0] < 10.0 - 1e-9:
        raise ValueError("curve must span at least 10 dB")
    window = [(s, p) for s, p in pts if s >= top - 10.0 - 1e-9]
    if any(p <= 0.0 for _, p in window):
        raise ValueError("SEP values in the fit window must be positive")
    x = np.array([s / 10.0 for s, _ in window])
    y = np.log10([p for _, p in window])
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(-coef[1])
