"""Effective fading figure and low-SNR capacity metrics.

All quantities reduce to the three correlation figures (zeta_T, zeta_S,
zeta_R) and the code rate:

* kurtosis of ||H||_F:      k = zt*zr + zt*zs + zr*zs + 1
* fading figure:            EFF = 10 log10(k - 1) dB
* minimum bit energy:       Eb/N0_min = ln2/n_r (transmit side); the
                            received-side value is ln2 = -1.59 dB always
* low-SNR slope, general:   S0 = 2/(zt + zs + zr + zt*zs*zr)
* low-SNR slope, OSTBC:     S0 = 2*rate/k

Slopes are in bits/s/Hz per 3 dB with the 3 dB factor taken as 10*log10(2)
exactly.  In the rich-scattering limit zeta_S is identically zero (the
scenario flag, not a numerical limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matstat import Scenario, kurtosis_frobenius

THREE_DB = 10.0 * math.log10(2.0)


@dataclass(frozen=True)
class LowSnrMetrics:
    ebn0_min_transmit: float          # natural units, ln2/n_r
    ebn0_min_transmit_db: float
    ebn0_min_received_db: float       # always 10*log10(ln 2) = -1.59 dB
    s0_general: float                 # bits/s/Hz per 3 dB
    s0_ostbc: float
    eff_db: float


def eff_stbc(scn: Scenario) -> float:
    """Fading figure of the OSTBC subchannel SNR, in dB."""
    zt, zs, zr = scn.zetas()
    return 10.0 * math.log10(zt * zr + zt * zs + zr * zs)


def ebn0_min(n_r: int) -> float:
    """Minimum transmit Eb/N0 (natural units): ln2/n_r for both signaling
    modes; orthogonal coding costs nothing in minimum bit energy."""
    if n_r < 1:
        raise ValueError("n_r must be positive")
    return math.log(2.0) / n_r


def ebn0_min_received_db() -> float:
    """Received-side minimum bit energy, identical for every scenario."""
    return 10.0 * math.log10(math.log(2.0))


def s0_general(scn: Scenario) -> float:
    """Low-SNR capacity slope without an input-signaling constraint."""
    zt, zs, zr = scn.zetas()
    return 2.0 / (zt + zs + zr + zt * zs * zr)


def s0_ostbc(scn: Scenario) -> float:
    """Low-SNR capacity slope under OSTBC signaling: 2*rate/kurtosis."""
    return 2.0 * float(scn.rate) / kurtosis_frobenius(scn)


def lowsnr_metrics(scn: Scenario) -> LowSnrMetrics:
    t = ebn0_min(scn.n_r)
    return LowSnrMetrics(
        ebn0_min_transmit=t,
        ebn0_min_transmit_db=10.0 * math.log10(t),
        ebn0_min_received_db=ebn0_min_received_db(),
        s0_general=s0_general(scn),
        s0_ostbc=s0_ostbc(scn),
        eff_db=eff_stbc(scn),
    )


def schur_order_eigs(scn: Scenario, which: str = "J") -> np.ndarray:
    """Eigenvalue multiset of the majorization-order object for a scenario.

    which="J":       (Pt x Pr)/(nt*nr) (+) (Pt x Ps)/(nt*ns) (+) (Ps x Pr)/(ns*nr)
    which="J_grave": Pt/nt (+) Ps/ns (+) Pr/nr (+) (Pt x Ps x Pr)/(nt*ns*nr)

    Assembled from the component spectra (Kronecker eigenvalues multiply,
    direct sums concatenate); no Kronecker matrix is ever materialized.
    Returned sorted decreasing.
    """
    et = scn.phi_t.spectrum.expand()
    es = scn.phi_s.spectrum.expand()
    er = scn.phi_r.spectrum.expand()
    nt, ns, nr = scn.n_t, scn.n_s, scn.n_r
    if which == "J":
        parts = [
            np.multiply.outer(et, er).ravel() / (nt * nr),
            np.multiply.outer(et, es).ravel() / (nt * ns),
            np.multiply.outer(es, er).ravel() / (ns * nr),
        ]
    elif which == "J_grave":
        triple = np.multiply.outer(np.multiply.outer(et, es), er).ravel()
        parts = [et / nt, es / ns, er / nr, triple / (nt * ns * nr)]
    else:
        raise ValueError(f"unknown order object {which!r}")
    return np.sort(np.concatenate(parts))[::-1]


def lowsnr_capacity_curve(scn: Scenario, mode: str, ebn0_grid_db) -> list[tuple[float, float]]:
    """First-order capacity approximation against received Eb/N0 in dB:
    C = S0 * (EbN0_dB - EbN0_min_dB)/(10 log10 2).  Grid points at or below
    the minimum contribute nothing."""
    if mode == "general":
        s0 = s0_general(scn)
    elif mode == "ostbc":
        s0 = s0_ostbc(scn)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    e0 = ebn0_min_received_db()
    out = []
    for e in np.atleast_1d(np.asarray(ebn0_grid_db, dtype=float)):
        if e <= e0:
            continue
        out.append((float(e), s0 * (e - e0) / THREE_DB))
    return out
