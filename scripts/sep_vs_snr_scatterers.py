#!/usr/bin/env python3
"""SEP versus SNR for a family of scatterer counts (uncorrelated channels).

Reproduces the 8-PSK rate-3/4 four-antenna study: one CSV per scatterer
count, each via the `sep-curve` CLI, plus the i.i.d. Rayleigh reference.
"""

import argparse
import csv
import os
import tempfile

from dsmimo.cli import main as cli_main, write_csv
from dsmimo.sep import PskConstellation, sep_mpsk_iid_rayleigh

CONFIG_TEMPLATE = """\
scenario.n_t = 4
scenario.n_s = {n_s}
scenario.n_r = 2
code = g4
psk.m = 8
snr.start_db = {start}
snr.stop_db = {stop}
snr.step_db = {step}
mc.trials = {trials}
mc.seed = {seed}
"""


def run(outdir, ns_list, start, stop, step, trials, seed):
    os.makedirs(outdir, exist_ok=True)
    for n_s in ns_list:
        cfg = CONFIG_TEMPLATE.format(n_s=n_s, start=start, stop=stop, step=step,
                                     trials=trials, seed=seed)
        with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as f:
            f.write(cfg)
            path = f.name
        out = os.path.join(outdir, f"sep_ns{n_s}.csv")
        rc = cli_main(["sep-curve", "--config", path, "--out", out])
        os.unlink(path)
        if rc != 0:
            raise SystemExit(rc)

    # n_s -> infinity reference, on the SNR grid that sep-curve wrote
    with open(os.path.join(outdir, f"sep_ns{ns_list[0]}.csv"), newline="",
              encoding="utf-8") as f:
        grid = [float(row["snr_db"]) for row in csv.DictReader(f)]
    psk = PskConstellation(8)
    rows = [[snr_db, sep_mpsk_iid_rayleigh(4, 2, 0.75, psk, 10 ** (snr_db / 10))]
            for snr_db in grid]
    write_csv(os.path.join(outdir, "sep_iid_rayleigh.csv"),
              ["snr_db", "sep_closed_form"], rows)
    print(f"wrote {outdir}/sep_iid_rayleigh.csv")


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--outdir", default="results/sep_vs_snr")
    p.add_argument("--ns", default="1,2,3,5,10,20,50,100")
    p.add_argument("--start-db", type=float, default=0.0)
    p.add_argument("--stop-db", type=float, default=30.0)
    p.add_argument("--step-db", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20260808)
    a = p.parse_args()
    run(a.outdir, [int(s) for s in a.ns.split(",")], a.start_db, a.stop_db,
        a.step_db, a.trials, a.seed)
