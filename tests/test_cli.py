import csv
import os
import stat

import numpy as np
import pytest

import dsmimo.cli
import dsmimo.sep
from dsmimo.cli import (ConfigError, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                        EXIT_VALIDATION, _fmt, _has_bad_number, main, parse_config,
                        write_csv)
from dsmimo.codes import g4
from dsmimo.matstat import Scenario
from dsmimo.mc import MonteCarloConfig, mc_sep
from dsmimo.sep import PskConstellation, sep_mpsk

BASE = """\
# four-antenna study
scenario.n_t = 4
scenario.n_s = 10
scenario.n_r = 2
code = g4
psk.m = 8
snr.start_db = 6
snr.stop_db = 10
snr.step_db = 2
mc.trials = 20000
mc.seed = 42
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


class TestParseConfig:
    def test_comments_and_blanks(self):
        raw = parse_config("# c\n\nscenario.n_t = 4\n")
        assert raw == {"scenario.n_t": "4"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("scenario.nt = 4\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("psk.m = 8\npsk.m = 4\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("psk.m 8\n")

    def test_rho_on_identity_rejected(self, tmp_path):
        cfg = BASE + "corr.tx.rho = 0.5\n"
        assert main(["diversity", "--config", write(tmp_path, cfg)]) == EXIT_CONFIG

    def test_bad_integer(self, tmp_path):
        cfg = BASE.replace("scenario.n_t = 4", "scenario.n_t = four")
        assert main(["diversity", "--config", write(tmp_path, cfg)]) == EXIT_CONFIG

    def test_stop_before_start(self, tmp_path):
        cfg = BASE.replace("snr.stop_db = 10", "snr.stop_db = 2")
        assert main(["sep-curve", "--config", write(tmp_path, cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["diversity", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG

    def test_code_dimension_mismatch(self, tmp_path):
        cfg = BASE.replace("scenario.n_t = 4", "scenario.n_t = 2")
        assert main(["diversity", "--config", write(tmp_path, cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("cmd, key, old, new", [("sep-curve", "snr.start_db", "6", "nan"),
                                                    ("sweep", "sweep.snr_db", "15", "inf")])
    def test_non_finite_number_rejected(self, tmp_path, capsys, cmd, key, old, new):
        # a NaN start used to crash the SNR grid with a traceback
        cfg = BASE + ("corr.tx.model = constant\ncorr.tx.rho = 0.3\n"
                      "sweep.axis = rho\nsweep.values = 0.1\nsweep.snr_db = 15\n")
        cfg = cfg.replace(f"{key} = {old}\n", f"{key} = {new}\n")
        out = tmp_path / "o.csv"
        assert main([cmd, "--config", write(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, key, old, new", [
        ("sep-curve", "snr.stop_db", "10", "3090"), ("sep-curve", "snr.start_db", "6", "-3300"),
        ("validate", "snr.stop_db", "10", "3090"), ("sweep", "sweep.snr_db", "15", "3090"),
        ("lowsnr", "lowsnr.snr_stop_db", "2", "3090")])
    def test_level_past_the_double_range_names_its_key(self, tmp_path, capsys, cmd, key,
                                                       old, new):
        # 10^(3090/10) overflows a double and 10^(-3300/10) underflows to 0;
        # such a grid point reached sep_mpsk as snr = inf or 0 and raised
        cfg = BASE + ("corr.tx.model = constant\ncorr.tx.rho = 0.3\n"
                      "sweep.axis = rho\nsweep.values = 0.1\nsweep.snr_db = 15\n"
                      "lowsnr.snr_stop_db = 2\n")
        cfg = cfg.replace(f"{key} = {old}\n", f"{key} = {new}\n")
        out = tmp_path / "o.csv"
        assert main([cmd, "--config", write(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_override_validated(self, tmp_path, trials):
        # the override obeys the same mc.trials >= 1 rule as the config key
        assert main(["sep-curve", "--config", write(tmp_path, BASE),
                     "--out", str(tmp_path / "o.csv"),
                     f"--trials={trials}"]) == EXIT_CONFIG


class TestSepCurve:
    def test_csv_contract_and_rederivability(self, tmp_path):
        cfgp = write(tmp_path, BASE)
        out = str(tmp_path / "curve.csv")
        assert main(["sep-curve", "--config", cfgp, "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["snr_db", "sep_closed_form", "sep_mc", "mc_std_err",
                           "diversity_order", "flag"]
        assert len(rows) == 1 + 3  # 6, 8, 10 dB
        # every emitted value re-derivable from the library with the same inputs
        scn = Scenario.uncorrelated(4, 10, 2, g4())
        psk = PskConstellation(8)
        snr_db = float(rows[1][0])
        cf = sep_mpsk(scn, psk, 10 ** (snr_db / 10))
        est = mc_sep(scn, psk, 10 ** (snr_db / 10),
                     MonteCarloConfig(trials=20000, seed=42))
        assert float(rows[1][1]) == cf
        assert float(rows[1][2]) == est.value
        assert float(rows[1][4]) == 8.0
        # emitted closed-form and MC columns agree on every row
        for r in rows[1:]:
            if r[1] and float(r[1]) >= 1e-4:
                assert abs(float(r[1]) - float(r[2])) < 3 * float(r[3])

    def test_byte_stable(self, tmp_path):
        cfgp = write(tmp_path, BASE)
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sep-curve", "--config", cfgp, "--out", o1]) == EXIT_OK
        assert main(["sep-curve", "--config", cfgp, "--out", o2]) == EXIT_OK
        assert open(o1, "rb").read() == open(o2, "rb").read()

    def test_seed_override_changes_mc(self, tmp_path):
        cfgp = write(tmp_path, BASE)
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sep-curve", "--config", cfgp, "--out", o1])
        main(["sep-curve", "--config", cfgp, "--out", o2, "--seed", "43"])
        r1, r2 = read_rows(o1), read_rows(o2)
        assert r1[1][1] == r2[1][1]  # closed form unchanged
        assert r1[1][2] != r2[1][2]  # mc column follows the seed

    def test_mc_only_when_no_closed_form(self, tmp_path):
        cfg = BASE + ("corr.tx.model = constant\ncorr.tx.rho = 0.5\n"
                      "corr.sc.model = constant\ncorr.sc.rho = 0.5\n"
                      "corr.rx.model = constant\ncorr.rx.rho = 0.5\n")
        out = str(tmp_path / "curve.csv")
        assert main(["sep-curve", "--config", write(tmp_path, cfg),
                     "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert all(r[1] == "" for r in rows[1:])  # no closed form
        assert all(float(r[2]) > 0 for r in rows[1:])  # MC still emitted

    def test_requires_output(self, tmp_path):
        assert main(["sep-curve", "--config", write(tmp_path, BASE)]) == EXIT_CONFIG

    def test_below_floor_flagged_not_clamped(self, tmp_path):
        cfg = BASE.replace("scenario.n_s = 10", "scenario.n_s = 2") \
                  .replace("snr.start_db = 6", "snr.start_db = 46") \
                  .replace("snr.stop_db = 10", "snr.stop_db = 48") \
                  .replace("mc.trials = 20000", "mc.trials = 1000")
        out = str(tmp_path / "floor.csv")
        assert main(["sep-curve", "--config", write(tmp_path, cfg),
                     "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert all(0 < float(r[1]) < 1e-12 for r in rows[1:])
        # 1000 unconditioned trials miss the rare fades that make this SEP
        # (Monte Carlo reads about 1e-304 +- 0), so both reasons apply
        assert all(r[5] == "below numeric floor; closed form and Monte Carlo disagree"
                   for r in rows[1:])

    def test_disagreement_flagged(self, tmp_path, monkeypatch):
        # validate's rule, max(3 se, 5% of the closed form): the true closed
        # form agrees on every row, 1.5 times it or 1e-13 does not, and a
        # value below the numeric floor carries both reasons
        cfgp, out = write(tmp_path, BASE), str(tmp_path / "c.csv")
        true = dsmimo.sep.sep_mpsk
        flags = {}
        for name, scale in (("true", 1.0), ("wrong", 1.5), ("tiny", None)):
            monkeypatch.setattr(dsmimo.sep, "sep_mpsk", lambda scn, psk, snr, s=scale:
                                1e-13 if s is None else s * true(scn, psk, snr))
            assert main(["sep-curve", "--config", cfgp, "--out", out]) == EXIT_OK
            flags[name] = {r[5] for r in read_rows(out)[1:]}
        assert flags == {"true": {""}, "wrong": {"closed form and Monte Carlo disagree"},
                         "tiny": {"below numeric floor; closed form and Monte Carlo disagree"}}

    def test_disagreement_follows_validate_tolerance(self, tmp_path, monkeypatch):
        # 1.01 times the closed form is within the default 5%, not within 0.1%
        true = dsmimo.sep.sep_mpsk
        monkeypatch.setattr(dsmimo.sep, "sep_mpsk",
                            lambda scn, psk, snr: 1.01 * true(scn, psk, snr))
        out = str(tmp_path / "c.csv")
        for extra, flag in (("", ""), ("validate.rel_tol = 0.001\nvalidate.sigma = 0\n",
                                       "closed form and Monte Carlo disagree")):
            assert main(["sep-curve", "--config", write(tmp_path, BASE + extra),
                         "--out", out]) == EXIT_OK
            assert {r[5] for r in read_rows(out)[1:]} == {flag}

    def test_clustered_kronecker_row_exits_4_without_csv(self, tmp_path, capsys):
        # ROADMAP item 1's config: the tridiagonal scatterer side's cluster
        # cost the Kronecker row its digits (0.199 against Monte Carlo 0.335
        # at -10 dB); now a numeric failure, found before any Monte Carlo
        cfg = ("scenario.n_t = 4\nscenario.n_s = 24\nscenario.n_r = 24\n"
               "corr.sc.model = tridiagonal\ncorr.sc.rho = 0.45\ncode = g4\npsk.m = 8\n"
               "snr.start_db = -10\nsnr.stop_db = 10\nsnr.step_db = 5\nmc.seed = 1\n")
        out = tmp_path / "c.csv"
        assert main(["sep-curve", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "1024"]) == EXIT_NUMERIC
        assert "digits" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_rho_sweep_monotone(self, tmp_path):
        cfg = BASE.replace("scenario.n_r = 2", "scenario.n_r = 4") + (
            "corr.tx.model = constant\ncorr.tx.rho = 0.0\n"
            "corr.rx.model = constant\ncorr.rx.rho = 0.0\n"
            "sweep.axis = rho\n"
            "sweep.values = 0.0, 0.3, 0.6, 0.9\n"
            "sweep.snr_db = 15\n")
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0][0] == "rho"
        seps = [float(r[1]) for r in rows[1:]]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(seps, seps[1:]))

    def test_ns_sweep_monotone(self, tmp_path):
        cfg = BASE.replace("scenario.n_r = 2", "scenario.n_r = 1") + (
            "corr.tx.model = constant\ncorr.tx.rho = 0.4\n"
            "sweep.axis = ns\n"
            "sweep.values = 1, 2, 4, 8\n"
            "sweep.snr_db = 20\n")
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", out]) == EXIT_OK
        seps = [float(r[1]) for r in read_rows(out)[1:]]
        assert all(a >= b * (1 - 1e-12) for a, b in zip(seps, seps[1:]))

    def test_empty_values(self, tmp_path):
        cfg = BASE + "sweep.axis = rho\nsweep.values =  \nsweep.snr_db = 15\n"
        # empty value is a parse error
        assert main(["sweep", "--config", write(tmp_path, cfg),
                     "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG

    def test_missing_axis(self, tmp_path):
        cfg = BASE + "sweep.values = 0.1\nsweep.snr_db = 15\n"
        assert main(["sweep", "--config", write(tmp_path, cfg),
                     "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG

    def test_rho_axis_needs_a_correlated_side(self, tmp_path, capsys):
        # with every side identity the rho override changes nothing, so every
        # row would repeat one scenario
        cfg = BASE + "sweep.axis = rho\nsweep.values = 0.1,0.5\nsweep.snr_db = 15\n"
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "1000"]) == EXIT_CONFIG
        assert "config error: key 'sweep.axis'" in capsys.readouterr().err
        assert not out.exists()

    def test_ns_axis_without_double_scattering(self, tmp_path, capsys):
        # rich scattering never reads n_s: every row would repeat one scenario
        cfg = BASE.replace("scenario.n_t = 4", "scenario.n_t = 2").replace(
            "code = g4", "code = alamouti") + (
            "scenario.no_double_scattering = true\n"
            "sweep.axis = ns\nsweep.values = 2,5,50\nsweep.snr_db = 15\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "1000"]) == EXIT_CONFIG
        assert "config error: key 'sweep.axis'" in capsys.readouterr().err
        assert not out.exists()

    def test_rho_axis_on_an_unread_scatterer_side(self, tmp_path, capsys):
        # without double scattering the scatterer side is never read, so a
        # rho sweep whose only correlated side is sc changes nothing
        cfg = BASE + ("scenario.no_double_scattering = true\n"
                      "corr.sc.model = exponential\ncorr.sc.rho = 0.3\n"
                      "sweep.axis = rho\nsweep.values = 0.1,0.5\nsweep.snr_db = 15\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "1000"]) == EXIT_CONFIG
        assert "config error: key 'sweep.axis'" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_value_names_sweep_values(self, tmp_path, capsys):
        # rho = 0.6 is outside the 10x10 tridiagonal model's range; the
        # config's own corr.sc.rho = 0.3 is fine and must not be blamed
        cfg = BASE.replace("scenario.n_r = 2", "scenario.n_r = 4") + (
            "corr.sc.model = tridiagonal\ncorr.sc.rho = 0.3\n"
            "sweep.axis = rho\nsweep.values = 0.2,0.6\nsweep.snr_db = 15\n")
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", out,
                     "--trials", "1000"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'sweep.values'" in err and "'0.6'" in err
        assert "corr.sc.rho" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_bad_value_rejected_before_any_point(self, tmp_path, capsys, monkeypatch):
        # every value is parsed and its scenario built before the first
        # estimate, so a bad last entry costs no Monte Carlo
        calls = []
        monkeypatch.setattr(dsmimo.cli, "mc_sep", lambda *a: calls.append(a))
        cfg = BASE + ("corr.tx.model = constant\ncorr.tx.rho = 0.3\n"
                      "sweep.axis = rho\nsweep.values = 0.1,0.2,abc\nsweep.snr_db = 15\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "200000"]) == EXIT_CONFIG
        assert "'sweep.values': bad entry 'abc'" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_numeric_failure_exits_4_without_csv(self, tmp_path, capsys, monkeypatch):
        # no shipped model is known to fail, so the MISO MGF is replaced by
        # one whose SEP leaves [0, 3/4]
        monkeypatch.setattr(dsmimo.sep, "expected_inv_det_miso",
                            lambda a, b, xi: np.full_like(xi, 2.0))
        cfg = BASE.replace("scenario.n_t = 4", "scenario.n_t = 2").replace(
            "scenario.n_r = 2", "scenario.n_r = 1").replace(
            "code = g4", "code = alamouti").replace("psk.m = 8", "psk.m = 4") + (
            "corr.tx.model = exponential\ncorr.tx.rho = 0.45\n"
            "corr.sc.model = exponential\ncorr.sc.rho = 0.45\n"
            "sweep.axis = ns\nsweep.values = 10,50\nsweep.snr_db = 10\n")
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", write(tmp_path, cfg), "--out", out,
                     "--trials", "1000"]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert not (tmp_path / "s.csv").exists()


class TestLowsnr:
    CFG = """\
scenario.n_t = 2
scenario.n_s = 1
scenario.n_r = 2
code = alamouti
psk.m = 4
snr.start_db = 0
snr.stop_db = 10
snr.step_db = 5
mc.trials = 20000
mc.seed = 7
lowsnr.snr_start_db = -10
lowsnr.snr_stop_db = -5
lowsnr.snr_step_db = 5
"""

    def test_keyhole_summary_and_curve(self, tmp_path, capsys):
        out = str(tmp_path / "low.csv")
        assert main(["lowsnr", "--config", write(tmp_path, self.CFG),
                     "--out", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "ebn0_min_received_db = -1.59" in text
        # keyhole dual-antenna: both slopes 8/9
        assert "s0_general = 0.888889" in text
        assert "s0_ostbc = 0.888889" in text
        rows = read_rows(out)
        assert rows[0][0] == "series"
        series = {r[0] for r in rows[1:]}
        assert {"approx_general", "approx_ostbc", "mc_general", "mc_ostbc"} <= series

    @pytest.mark.parametrize("grid", ["snr", "ebn0"])
    def test_reversed_grid_rejected(self, tmp_path, capsys, grid):
        # a reversed grid is a config error, not an empty curve
        cfg = (self.CFG.replace("lowsnr.snr_start_db = -10\nlowsnr.snr_stop_db = -5\n", "")
               + f"lowsnr.{grid}_start_db = 5\nlowsnr.{grid}_stop_db = 1\n")
        out = tmp_path / "low.csv"
        assert main(["lowsnr", "--config", write(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"lowsnr.{grid}_stop_db" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_default_passes(self, tmp_path, capsys):
        assert main(["validate", "--config", write(tmp_path, BASE)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert "checks passed" in text

    def test_zero_tolerance_fails(self, tmp_path):
        cfg = BASE + "validate.rel_tol = 0\nvalidate.sigma = 0\n"
        assert main(["validate", "--config", write(tmp_path, cfg)]) == EXIT_VALIDATION

    def test_unsupported_formula_reported(self, tmp_path, capsys):
        # n_s < n_t with transmit/receive correlation: MC-only validation
        cfg = """\
scenario.n_t = 4
scenario.n_s = 2
scenario.n_r = 4
corr.tx.model = constant
corr.tx.rho = 0.5
corr.rx.model = constant
corr.rx.rho = 0.5
code = g4
psk.m = 8
snr.start_db = 5
snr.stop_db = 9
snr.step_db = 2
mc.trials = 20000
mc.seed = 3
"""
        assert main(["validate", "--config", write(tmp_path, cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "unsupported formula" in out
        assert "sep_mis_in_rho" in out and "no closed form; skipped" in out

    @pytest.mark.parametrize("n_s,n_r,check", [
        (2, 2, "PASS  sep_closed_vs_mc@"),  # the receive hop of the Kronecker row
        (1, 4, "PASS  reduction_miso_vs_uncorrelated"),  # keyhole: the MISO row
    ])
    def test_transposed_and_keyhole_rows_validated(self, tmp_path, capsys, n_s, n_r, check):
        cfg = (BASE.replace("scenario.n_s = 10", f"scenario.n_s = {n_s}")
               .replace("scenario.n_r = 2", f"scenario.n_r = {n_r}")
               + "corr.tx.model = constant\ncorr.tx.rho = 0.5\n"
               "corr.rx.model = exponential\ncorr.rx.rho = 0.3\n")
        assert main(["validate", "--config", write(tmp_path, cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert check in out and "unsupported formula" not in out

    def test_rich_config_skips_the_double_scattering_reduction(self, tmp_path):
        # with n_r = 1 the identity counterpart is a double-scattering MISO
        # channel, which a rich-scattering config does not describe
        cfg = BASE.replace("scenario.n_r = 2", "scenario.n_r = 1") + (
            "scenario.no_double_scattering = true\n")
        out = str(tmp_path / "report.csv")
        assert main(["validate", "--config", write(tmp_path, cfg), "--out", out]) == EXIT_OK
        assert [r[0] for r in read_rows(out)[1:]] == ["sep_closed_vs_mc@8dB",
                                                      "kurtosis_analytic_vs_mc",
                                                      "sep_monotone_in_snr"]

    def test_underflowed_sep_validates_without_dividing_by_zero(self, tmp_path, capsys):
        # 4x10x1 identity at 1000 dB: both MISO and uncorrelated SEPs
        # underflow to 0, which the reduction check divided by; the
        # all-zero grid then fails only the monotonicity check
        cfg = (BASE.replace("scenario.n_r = 2", "scenario.n_r = 1")
               .replace("snr.start_db = 6", "snr.start_db = 1000")
               .replace("snr.stop_db = 10", "snr.stop_db = 1000"))
        assert main(["validate", "--config", write(tmp_path, cfg),
                     "--trials", "2000"]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "PASS  reduction_miso_vs_uncorrelated  deviation=0.000e+00" in out
        assert "FAIL  sep_monotone_in_snr" in out and out.count("FAIL") == 1

    def test_non_finite_deviation_exits_4_without_csv(self, tmp_path, capsys, monkeypatch):
        # a Kronecker value that underflows to 0 where the MISO one does not
        # makes the reduction check's deviation inf: NaN/Inf in the results
        monkeypatch.setattr(dsmimo.sep, "expected_inv_det_kron",
                            lambda m, n, sigma, far, xi: np.zeros_like(xi))
        cfg = (BASE.replace("scenario.n_r = 2", "scenario.n_r = 1")
               + "corr.tx.model = constant\ncorr.tx.rho = 0.5\n")
        out = tmp_path / "report.csv"
        assert main(["validate", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "2000"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "reduction_miso_vs_uncorrelated  deviation=inf" in captured.out
        assert captured.err.startswith("numeric failure: ")
        assert not out.exists()

    def test_probe_rho_outside_model_range_skipped(self, tmp_path, capsys):
        # rho = 0.3 is a valid tridiagonal coefficient at n = 10, but the
        # kurtosis probe's rho = 0.6 is above that model's bound of 0.52
        cfg = (BASE.replace("scenario.n_r = 2", "scenario.n_r = 4")
               + "corr.sc.model = tridiagonal\ncorr.sc.rho = 0.3\n")
        assert main(["validate", "--config", write(tmp_path, cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        for check in ("kurtosis_mis_in_rho", "sep_mis_in_rho"):
            assert f"PASS  {check}" in out
        assert out.count("probe rho outside a side's model range; skipped") == 2

    def test_readme_config_with_many_scatterers_passes(self, tmp_path, capsys):
        # the README's doubly-correlated example at n_s = 100, where a
        # monomial-moment determinant loses about 1e-9 relative
        cfg = """\
scenario.n_t = 4
scenario.n_s = 100
scenario.n_r = 4
corr.tx.model = constant
corr.tx.rho = 0.5
corr.rx.model = constant
corr.rx.rho = 0.5
code = g4
psk.m = 8
snr.start_db = 0
snr.stop_db = 20
snr.step_db = 2
mc.trials = 20000
mc.seed = 42
"""
        assert main(["validate", "--config", write(tmp_path, cfg)]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_report_csv(self, tmp_path):
        out = str(tmp_path / "report.csv")
        assert main(["validate", "--config", write(tmp_path, BASE),
                     "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["check", "deviation", "tolerance", "status", "note"]
        assert [r[0] for r in rows[1:]] == ["sep_closed_vs_mc@8dB", "kurtosis_analytic_vs_mc",
                                            "sep_monotone_in_snr"]
        assert all(r[3] == "PASS" for r in rows[1:])
        # a correlated side adds the two rho checks, which read the config
        cfg = BASE + "corr.tx.model = constant\ncorr.tx.rho = 0.5\n"
        assert main(["validate", "--config", write(tmp_path, cfg), "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert [r[0] for r in rows[1:]] == ["sep_closed_vs_mc@8dB", "kurtosis_mis_in_rho",
                                            "sep_mis_in_rho", "kurtosis_analytic_vs_mc",
                                            "sep_monotone_in_snr"]
        assert all(r[3] == "PASS" and r[4] == "" for r in rows[1:])


class TestDiversity:
    def test_prints_and_writes(self, tmp_path, capsys):
        out = str(tmp_path / "d.csv")
        assert main(["diversity", "--config", write(tmp_path, BASE),
                     "--out", out]) == EXIT_OK
        assert "diversity_order=8" in capsys.readouterr().out
        rows = read_rows(out)
        assert float(rows[1][4]) == 8.0


SCENARIO_KEYS = "scenario.n_t = 4\nscenario.n_s = 10\nscenario.n_r = 2\ncode = g4\n"


class TestKeysPerSubcommand:
    @pytest.mark.parametrize("cmd, extra", [
        ("diversity", ""),
        ("sweep", "psk.m = 8\nmc.trials = 1000\nmc.seed = 1\ncorr.tx.model = constant\n"
                  "corr.tx.rho = 0.3\nsweep.axis = rho\nsweep.values = 0.1\n"
                  "sweep.snr_db = 10\n"),
        ("lowsnr", "mc.trials = 1000\nmc.seed = 1\nlowsnr.snr_start_db = -10\n"
                   "lowsnr.snr_stop_db = -10\n"),
        # without double scattering the scatterer model is never read
        ("diversity", "scenario.no_double_scattering = true\n"
                      "corr.sc.model = exponential\ncorr.sc.rho = 1.5\n"),
    ], ids=["diversity", "sweep", "lowsnr", "diversity-rich"])
    def test_runs_on_only_the_keys_it_reads(self, tmp_path, cmd, extra):
        assert main([cmd, "--config", write(tmp_path, SCENARIO_KEYS + extra),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK

    @pytest.mark.parametrize("cmd", ["diversity", "sep-curve", "validate"])
    def test_rich_config_needs_no_scatterer_count(self, tmp_path, capsys, cmd):
        # without double scattering scenario.n_s is never read, so a rich
        # config leaves it out, and diversity reports an empty n_s
        cfg = BASE.replace("scenario.n_s = 10\n", "") + "scenario.no_double_scattering = true\n"
        out = tmp_path / "o.csv"
        assert main([cmd, "--config", write(tmp_path, cfg), "--out", str(out),
                     "--trials", "10000"]) == EXIT_OK
        if cmd == "diversity":
            assert "n_t=4 n_s= n_r=2 " in capsys.readouterr().out
            assert read_rows(out)[1][:3] == ["4", "", "2"]

    @pytest.mark.parametrize("cmd", ["diversity", "sep-curve"])
    def test_configured_scenario_built_once(self, tmp_path, monkeypatch, cmd):
        built = []
        monkeypatch.setattr(dsmimo.cli, "Scenario",
                            lambda *a, **k: built.append(a) or Scenario(*a, **k))
        assert main([cmd, "--config", write(tmp_path, BASE), "--out",
                     str(tmp_path / "o.csv"), "--trials", "1000"]) == EXIT_OK
        assert len(built) == 1

    def test_unsupported_psk_order_names_its_key(self, tmp_path, capsys):
        cfg = BASE.replace("psk.m = 8", "psk.m = 3")
        assert main(["sep-curve", "--config", write(tmp_path, cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        assert "config error: key 'psk.m': M must be one of" in capsys.readouterr().err


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert _fmt(1 / 3) == "0.33333333333333331"
        assert _fmt(None) == ""
        assert _fmt("x") == "x"

    def test_bad_number_detector(self):
        assert _has_bad_number([[1.0, float("nan")]])
        assert _has_bad_number([[float("inf")]])
        assert not _has_bad_number([[1.0, "", None, "txt"]])


class TestWriteCsv:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            open(tmp_path / "plain", "w").close()
            write_csv(str(tmp_path / "o.csv"), ["a"], [[1.0]])
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "o.csv").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o666 & ~umask
        assert sorted(os.listdir(tmp_path)) == ["o.csv", "plain"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("old")
        path.chmod(0o640)
        write_csv(str(path), ["a"], [[1.0]])
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert read_rows(path) == [["a"], ["1"]]
