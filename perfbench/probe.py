"""Set-up probe, run in a fresh interpreter: import dsmimo, then make the
first closed-form and Monte Carlo calls, which build the quadrature rules.
Exits 1 if either value is not a SEP."""

import sys

from dsmimo import codes, corrmat, matstat, mc, sep

scn = matstat.Scenario(4, 10, 4, corrmat.constant_corr(4, 0.5), corrmat.identity_corr(10),
                       corrmat.constant_corr(4, 0.5), codes.g4())
psk = sep.PskConstellation(8)
closed = sep.sep_mpsk(scn, psk, 10 ** 1.5)
est = mc.mc_sep(scn, psk, 10 ** 1.5, mc.MonteCarloConfig(trials=4096, seed=1))
sys.exit(0 if all(0.0 <= v <= psk.sep_ceiling for v in (closed, est.value)) else 1)
