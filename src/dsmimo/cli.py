"""Command-line front end.

Subcommands: sep-curve, sweep, lowsnr, validate, diversity.  Configuration
is a UTF-8 line-oriented `key = value` file with dotted section prefixes
(e.g. `scenario.n_t = 4`, `corr.tx.model = constant`); `#` starts a comment
line.  Unknown or duplicate keys are hard errors, so typos cannot be
silently absorbed.  Output is RFC-4180-style CSV with a mandatory header
row and 17-significant-digit reals, written atomically (temp file + rename)
so a config+seed pair always reproduces byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 numeric failure (NaN/Inf anywhere in the results, or a closed form that
raised NumericFailure); no CSV is written on exit 4.

The CLI adds no computation of its own: every emitted closed-form value is
a direct library call with the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import lowsnr as lowsnr_mod
from . import sep as sep_mod
from .codes import code_by_name
from .corrmat import (CorrelationMatrix, constant_corr, exponential_corr,
                      identity_corr, tridiagonal_corr)
from .detform import NumericFailure
from .matstat import Scenario, kurtosis_frobenius
from .mc import MonteCarloConfig, mc_kurtosis_eff, mc_sep, mc_capacity
from .sep import PskConstellation, UnsupportedScenarioError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

_MODELS = ("identity", "constant", "exponential", "tridiagonal")

_KNOWN_KEYS = {
    "scenario.n_t", "scenario.n_s", "scenario.n_r",
    "scenario.no_double_scattering",
    "corr.tx.model", "corr.tx.rho",
    "corr.sc.model", "corr.sc.rho",
    "corr.rx.model", "corr.rx.rho",
    "code", "psk.m",
    "snr.start_db", "snr.stop_db", "snr.step_db",
    "mc.trials", "mc.seed",
    "output",
    "sweep.axis", "sweep.values", "sweep.snr_db",
    "lowsnr.ebn0_start_db", "lowsnr.ebn0_stop_db", "lowsnr.ebn0_step_db",
    "lowsnr.snr_start_db", "lowsnr.snr_stop_db", "lowsnr.snr_step_db",
    "validate.rel_tol", "validate.sigma",
}


class ConfigError(Exception):
    pass


def parse_config(text: str) -> dict[str, str]:
    """Parse the key-value format; unknown/duplicate keys raise ConfigError
    with the offending line number."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _get_int(raw, key, minimum=None):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    try:
        v = int(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw[key]!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {v}")
    return v


def _get_float(raw, key, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw[key]!r}")
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {raw[key]!r}")
    return value


def _linear(db: float) -> float:
    """The power ratio 10^(db/10) of a level in dB."""
    return 10.0 ** (float(db) / 10.0)


def _get_db(raw, key, default=None) -> float:
    """_get_float of a level in dB whose power ratio is a positive finite
    double, which bounds it to about +-3082 dB."""
    value = _get_float(raw, key, default)
    with contextlib.suppress(OverflowError):  # float ** raises rather than return inf
        if _linear(value) > 0.0:
            return value
    raise ConfigError(f"key {key!r}: {value:g} dB is not a positive finite power ratio")


def _db_grid(raw, prefix: str, default=(None, None, None)) -> np.ndarray:
    """The grid start, start + step, ... up to stop (dB) from the keys
    <prefix>start_db, <prefix>stop_db and <prefix>step_db, or their
    defaults; the step must be positive and stop >= start, and both ends
    levels that _get_db accepts."""
    start, stop = (_get_db(raw, f"{prefix}{name}_db", d)
                   for name, d in zip(("start", "stop"), default))
    step = _get_float(raw, f"{prefix}step_db", default[2])
    if step <= 0:
        raise ConfigError(f"key '{prefix}step_db': must be positive")
    if stop < start:
        raise ConfigError(f"key '{prefix}stop_db': must be >= {prefix}start_db")
    return start + step * np.arange(math.floor((stop - start) / step + 1e-9) + 1)


def _get_bool(raw, key, default=False):
    if key not in raw:
        return default
    v = raw[key]
    if v not in ("true", "false"):
        raise ConfigError(f"key {key!r}: expected true or false, got {v!r}")
    return v == "true"


def _corr_factory(raw, side: str, dim: int, rho: float | None = None) -> CorrelationMatrix:
    """The side's configured model at dimension dim; a given rho replaces a
    non-identity model's configured coefficient."""
    model = raw.get(f"corr.{side}.model", "identity")
    if model not in _MODELS:
        raise ConfigError(f"key corr.{side}.model: unknown model {model!r}")
    rho_key = f"corr.{side}.rho"
    if model == "identity":
        if rho_key in raw:
            raise ConfigError(f"key {rho_key!r} is not allowed for the identity model")
        return identity_corr(dim)
    if rho is None:
        rho = _get_float(raw, rho_key)
    try:
        if model == "constant":
            return constant_corr(dim, rho)
        if model == "exponential":
            return exponential_corr(dim, rho)
        return tridiagonal_corr(dim, rho)
    except ValueError as e:
        raise ConfigError(f"key {rho_key!r}: {e}")


def _scenario(raw, n_s: int | None = None, rho: float | None = None) -> Scenario:
    """The configured scenario, optionally with another n_s or with rho as the
    coefficient of every non-identity side (sweep support).  Without double
    scattering neither scenario.n_s nor the scatterer model is read, and the
    scenario carries n_s = 1, which no rich-scattering formula reads."""
    n_t = _get_int(raw, "scenario.n_t", 1)
    n_r = _get_int(raw, "scenario.n_r", 1)
    rich = _get_bool(raw, "scenario.no_double_scattering")
    n_s = 1 if rich else (_get_int(raw, "scenario.n_s", 1) if n_s is None else n_s)
    if "code" not in raw:
        raise ConfigError("missing required key 'code'")
    try:
        code = code_by_name(raw["code"])
    except ValueError as e:
        raise ConfigError(f"key 'code': {e}")
    phi_s = identity_corr(n_s) if rich else _corr_factory(raw, "sc", n_s, rho)
    try:
        return Scenario(n_t, n_s, n_r, _corr_factory(raw, "tx", n_t, rho), phi_s,
                        _corr_factory(raw, "rx", n_r, rho), code,
                        no_double_scattering=rich)
    except ValueError as e:
        raise ConfigError(str(e))


@dataclass
class RunConfig:
    """The parsed keys, the --out/--seed/--trials overrides and the configured
    scenario.  psk(), snr_db() and mc() read and check their keys only when a
    subcommand calls them, so no subcommand needs a key it ignores."""

    raw: dict[str, str]
    args: argparse.Namespace
    scn: Scenario

    @property
    def output(self) -> str | None:
        return self.args.out if self.args.out is not None else self.raw.get("output")

    def psk(self) -> PskConstellation:
        try:
            return PskConstellation(_get_int(self.raw, "psk.m"))
        except ValueError as e:
            raise ConfigError(f"key 'psk.m': {e}")

    def snr_db(self) -> np.ndarray:
        return _db_grid(self.raw, "snr.")

    def mc(self) -> MonteCarloConfig:
        a = self.args
        trials = a.trials if a.trials is not None else _get_int(self.raw, "mc.trials")
        if trials < 1:
            raise ConfigError(f"key 'mc.trials': must be >= 1, got {trials}")
        seed = a.seed if a.seed is not None else _get_int(self.raw, "mc.seed")
        if not 0 <= seed < 2**64:
            raise ConfigError("key 'mc.seed': must fit in 64 bits")
        return MonteCarloConfig(trials=trials, seed=seed)


def build_run_config(raw: dict[str, str], args) -> RunConfig:
    return RunConfig(raw, args, _scenario(raw))


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    return format(float(x), ".17g")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _has_bad_number(rows) -> bool:
    for row in rows:
        for v in row:
            if isinstance(v, (int, float)) and not math.isfinite(v):
                return True
    return False


def _require_output(cfg: RunConfig) -> str:
    if not cfg.output:
        raise ConfigError("no output path: set 'output' in the config or pass --out")
    return cfg.output


def _write_rows(out: str, header: list[str], rows: list[list]) -> int:
    """Write the result CSV, or exit 4 without writing when any value is
    non-finite."""
    if _has_bad_number(rows):
        print("numeric failure: non-finite value in results", file=sys.stderr)
        return EXIT_NUMERIC
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sep_curve(cfg: RunConfig) -> int:
    out = _require_output(cfg)
    psk, grid, mc, scn = cfg.psk(), cfg.snr_db(), cfg.mc(), cfg.scn
    d = float(sep_mod.diversity_order(scn))
    rows = []
    for snr_db in grid:
        snr = _linear(snr_db)
        try:
            cf = sep_mod.sep_mpsk(scn, psk, snr)
        except UnsupportedScenarioError:
            cf = None
        est = mc_sep(scn, psk, snr, mc)
        # values below the numeric floor are reported as computed, flagged,
        # never clamped
        flag = "below numeric floor" if cf is not None and 0 < cf < 1e-12 else ""
        rows.append([snr_db, cf, est.value, est.std_error, d, flag])
    return _write_rows(out, ["snr_db", "sep_closed_form", "sep_mc", "mc_std_err",
                             "diversity_order", "flag"], rows)


def cmd_sweep(cfg: RunConfig) -> int:
    out = _require_output(cfg)
    psk, mc = cfg.psk(), cfg.mc()
    axis = cfg.raw.get("sweep.axis")
    if axis not in ("rho", "ns"):
        raise ConfigError("key 'sweep.axis': expected rho or ns")
    if axis == "ns" and cfg.scn.no_double_scattering:
        raise ConfigError("key 'sweep.axis': ns is ignored with "
                          "scenario.no_double_scattering = true")
    if axis == "rho" and not _any_correlated(cfg):
        raise ConfigError("key 'sweep.axis': rho needs a side with a correlation model, "
                          "but every side the scenario reads is identity")
    values_raw = cfg.raw.get("sweep.values", "")
    if not values_raw.strip():
        raise ConfigError("key 'sweep.values': empty values list")
    snr = _linear(_get_db(cfg.raw, "sweep.snr_db"))
    # every value is checked before the first point is computed
    points = []
    for tok in values_raw.split(","):
        tok = tok.strip()
        if not tok:
            raise ConfigError("key 'sweep.values': empty entry in list")
        try:
            scn = (_scenario(cfg.raw, rho=float(tok)) if axis == "rho"
                   else _scenario(cfg.raw, n_s=int(tok)))
        except (ValueError, ConfigError):
            raise ConfigError(f"key 'sweep.values': bad entry {tok!r}")
        points.append((float(tok), scn))
    rows = []
    for value, scn in points:
        try:
            cf = sep_mod.sep_mpsk(scn, psk, snr)
        except UnsupportedScenarioError:
            cf = None
        est = mc_sep(scn, psk, snr, mc)
        rows.append([value, cf, est.value, est.std_error])
    return _write_rows(out, [axis, "sep_closed_form", "sep_mc", "mc_std_err"], rows)


def cmd_lowsnr(cfg: RunConfig) -> int:
    out = _require_output(cfg)
    mc, scn = cfg.mc(), cfg.scn
    ebn0_db = _db_grid(cfg.raw, "lowsnr.ebn0_", (-1.5, 8.0, 0.5))
    snr_grid = _db_grid(cfg.raw, "lowsnr.snr_", (-22.0, 2.0, 3.0))
    met = lowsnr_mod.lowsnr_metrics(scn)
    print(f"ebn0_min_transmit_db = {met.ebn0_min_transmit_db:.6f}")
    print(f"ebn0_min_received_db = {met.ebn0_min_received_db:.6f}")
    print(f"s0_general = {met.s0_general:.6f} bits/s/Hz per 3 dB")
    print(f"s0_ostbc = {met.s0_ostbc:.6f} bits/s/Hz per 3 dB")
    print(f"eff_db = {met.eff_db:.6f}")

    rows = []
    for mode in ("general", "ostbc"):
        for e, c in lowsnr_mod.lowsnr_capacity_curve(scn, mode, ebn0_db):
            rows.append([f"approx_{mode}", e, c, "", ""])
    for mode in ("general", "ostbc"):
        for snr_db in snr_grid:
            snr = _linear(snr_db)
            est = mc_capacity(scn, snr, mode, mc)
            if est.value <= 0:
                continue
            ebn0_rx_db = 10.0 * math.log10(scn.n_r * snr / est.value)
            rows.append([f"mc_{mode}", ebn0_rx_db, est.value, snr_db,
                         est.std_error])
    return _write_rows(out, ["series", "ebn0_received_db", "capacity_bits_per_s_hz",
                             "snr_db", "std_err"], rows)


def cmd_diversity(cfg: RunConfig) -> int:
    scn = cfg.scn
    d = sep_mod.diversity_order(scn)
    n_s = "" if scn.no_double_scattering else scn.n_s  # rich scattering has no n_s
    print(f"n_t={scn.n_t} n_s={n_s} n_r={scn.n_r} rate={scn.rate} "
          f"diversity_order={d}")
    if cfg.output:
        write_csv(cfg.output,
                  ["n_t", "n_s", "n_r", "rate", "diversity_order"],
                  [[scn.n_t, n_s, scn.n_r, float(scn.rate), float(d)]])
        print(f"wrote {cfg.output}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    rel_tol = _get_float(cfg.raw, "validate.rel_tol", 0.05)
    sigma = _get_float(cfg.raw, "validate.sigma", 3.0)
    psk, grid, mc, scn = cfg.psk(), cfg.snr_db(), cfg.mc(), cfg.scn
    checks: list[tuple[str, float, float, bool, str]] = []

    def record(name, measured, tol, ok, note=""):
        checks.append((name, measured, tol, ok, note))

    # 1. closed form vs Monte Carlo at the middle of the SNR grid
    mid = len(grid) // 2
    snr_db = float(grid[mid])
    snr = _linear(snr_db)
    seps = ([sep_mod.sep_mpsk(scn, psk, _linear(s)) for s in grid]
            if sep_mod.has_closed_form(scn) else None)
    est = mc_sep(scn, psk, snr, mc)
    if seps is not None:
        cf = seps[mid]
        dev = abs(cf - est.value)
        tol = max(sigma * est.std_error, rel_tol * cf)
        record(f"sep_closed_vs_mc@{snr_db:g}dB", dev, tol, dev <= tol)
    else:
        record("sep_closed_vs_mc", 0.0, 0.0, True,
               "unsupported formula; MC-only validation")

    # 2. the MISO formula against the uncorrelated one on the identity
    # counterpart wherever sep's MISO row covers it (two evaluators, one MGF);
    # that counterpart has double scattering, so a rich config skips it
    if not scn.no_double_scattering:
        ident = Scenario.uncorrelated(scn.n_t, scn.n_s, scn.n_r, scn.code)
        with contextlib.suppress(UnsupportedScenarioError):
            miso = sep_mod.sep_mpsk_miso(ident, psk, snr)
            base = sep_mod.sep_mpsk_uncorrelated(ident, psk, snr)
            # both may underflow to 0 at an extreme SNR
            dev = abs(miso - base) / base if base else (0.0 if miso == 0.0 else math.inf)
            record("reduction_miso_vs_uncorrelated", dev, 1e-9, dev <= 1e-9)

    # 3. kurtosis, and the closed-form SEP at the middle SNR, do not fall
    # from rho = 0.3 to 0.6 on the config's correlated sides
    dims = (scn.n_t, scn.n_r) if scn.no_double_scattering else (scn.n_t, scn.n_s, scn.n_r)
    if min(dims) >= 2 and _any_correlated(cfg):
        try:
            probes = _scenario(cfg.raw, rho=0.3), _scenario(cfg.raw, rho=0.6)
        except ConfigError:
            for name in ("kurtosis_mis_in_rho", "sep_mis_in_rho"):
                record(name, 0.0, 0.0, True, "probe rho outside a side's model range; skipped")
        else:
            k_lo, k_hi = map(kurtosis_frobenius, probes)
            record("kurtosis_mis_in_rho", k_lo - k_hi, 0.0, k_lo <= k_hi)
            try:
                s_lo, s_hi = (sep_mod.sep_mpsk(p, psk, snr) for p in probes)
            except UnsupportedScenarioError:
                record("sep_mis_in_rho", 0.0, 0.0, True, "no closed form; skipped")
            else:
                record("sep_mis_in_rho", s_lo - s_hi, 0.0, s_lo <= s_hi)

    # 4. analytic vs Monte Carlo kurtosis
    kest, _ = mc_kurtosis_eff(scn, MonteCarloConfig(max(mc.trials, 10_000), mc.seed))
    ka = kurtosis_frobenius(scn)
    dev = abs(ka - kest.value)
    tol = max(sigma * kest.std_error, rel_tol * ka)
    record("kurtosis_analytic_vs_mc", dev, tol, dev <= tol)

    # 5. closed-form SEP decreasing across the grid
    if seps is not None:
        mono = all(a > b for a, b in zip(seps, seps[1:]))
        inrange = all(0.0 < s <= psk.sep_ceiling for s in seps)
        record("sep_monotone_in_snr", 0.0 if (mono and inrange) else 1.0, 0.0,
               mono and inrange)

    failures = sum(1 for c in checks if not c[3])
    width = max(len(c[0]) for c in checks)
    for name, measured, tol, ok, note in checks:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name:<{width}}  deviation={measured:.3e}  tolerance={tol:.3e}"
        if note:
            line += f"  ({note})"
        print(line)
    if cfg.output:
        write_csv(cfg.output,
                  ["check", "deviation", "tolerance", "status", "note"],
                  [[n, m, t, "PASS" if ok else "FAIL", note]
                   for n, m, t, ok, note in checks])
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _any_correlated(cfg: RunConfig) -> bool:
    """Whether a side the scenario reads has a correlation model; without
    double scattering the scatterer side is not read."""
    sides = ("tx", "rx") if cfg.scn.no_double_scattering else ("tx", "sc", "rx")
    return any(cfg.raw.get(f"corr.{s}.model", "identity") != "identity"
               for s in sides)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "sep-curve": cmd_sep_curve,
    "sweep": cmd_sweep,
    "lowsnr": cmd_lowsnr,
    "validate": cmd_validate,
    "diversity": cmd_diversity,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dsmimo",
        description="closed-form and Monte Carlo analysis of OSTBCs over "
                    "double-scattering MIMO channels")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", default=None, help="output CSV path (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--trials", type=int, default=None, help="override mc.trials")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as f:
            raw = parse_config(f.read())
        cfg = build_run_config(raw, args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
