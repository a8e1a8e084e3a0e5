"""Smoke test for scripts/: each study script runs once at its smallest
arguments and writes its CSVs with their headers."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: script name -> (call of its run(module, outdir), {csv name: header})
CALLS = {
    "sep_vs_snr_scatterers": (
        lambda m, d: m.run(str(d), [2], 0.0, 4.0, 2.0, 2000, 1),
        {"sep_ns2.csv": ["snr_db", "sep_closed_form", "sep_mc", "mc_std_err",
                         "diversity_order", "flag"],
         "sep_iid_rayleigh.csv": ["snr_db", "sep_closed_form"]}),
    "sep_correlation_sweep": (
        lambda m, d: m.run(str(d), [5], "0.3", 10.0, 2000, 1),
        {"sep_vs_rho_ns5.csv": ["rho", "sep_closed_form", "sep_mc", "mc_std_err"]}),
    "miso_scatterer_sweep": (
        lambda m, d: m.run(str(d), [0.3], "2", 10.0, 2000, 1),
        {"sep_vs_ns_rho0.3.csv": ["ns", "sep_closed_form", "sep_mc", "mc_std_err"]}),
    "lowsnr_capacity": (
        lambda m, d: m.run(str(d / "lowsnr.csv"), 0.5, 2000, 1),
        {"lowsnr.csv": ["series", "ebn0_received_db", "capacity_bits_per_s_hz",
                        "snr_db", "std_err"]}),
}


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_script_writes_its_csvs(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    call, headers = CALLS[name]
    call(module, tmp_path)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
    for fname, header in headers.items():
        with open(tmp_path / fname, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == header
        assert len(rows) > 1


def test_iid_reference_shares_the_cli_snr_grid(tmp_path, capsys):
    # a 0.1 dB step accumulated by repeated addition drifts from the
    # start + step * k grid of sep-curve by its last row
    spec = importlib.util.spec_from_file_location(
        "script_sep_vs_snr_scatterers", SCRIPTS / "sep_vs_snr_scatterers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.run(str(tmp_path), [2], 0.0, 0.6, 0.1, 2000, 1)
    capsys.readouterr()

    def snr_column(name):
        with open(tmp_path / name, newline="", encoding="utf-8") as f:
            return [row["snr_db"] for row in csv.DictReader(f)]

    assert len(snr_column("sep_ns2.csv")) == 7
    assert snr_column("sep_iid_rayleigh.csv") == snr_column("sep_ns2.csv")
