"""The benchmark's workloads.

Each workload turns the seed into a fixed list of operations (its inputs),
runs them in passes, and afterwards checks every output.  All are closed
loop and single process: the next operation starts when the previous one
returns.  Library functions are looked up on their modules at call time, so
a traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from dsmimo import cli, codes, corrmat, matstat, mc, sep

import stats

BLOCK = 1 << 16


@dataclass(frozen=True)
class ScenarioSpec:
    """Scenario parameters; each side is (model, rho) with rho None for the
    identity model."""

    n_t: int
    n_s: int
    n_r: int
    tx: tuple = ("identity", None)
    sc: tuple = ("identity", None)
    rx: tuple = ("identity", None)
    code: str = "g4"
    no_double_scattering: bool = False

    def build(self):
        return matstat.Scenario(
            self.n_t, self.n_s, self.n_r, _corr(*self.tx, self.n_t),
            _corr(*self.sc, self.n_s), _corr(*self.rx, self.n_r),
            codes.code_by_name(self.code),
            no_double_scattering=self.no_double_scattering)


def _corr(model, rho, n):
    build = getattr(corrmat, f"{model}_corr")
    return build(n) if model == "identity" else build(n, rho)


CONST5 = ("constant", 0.5)
EXP5 = ("exponential", 0.5)
#: The README configuration: 4x10x4, constant rho=0.5 transmit and receive.
README = ScenarioSpec(4, 10, 4, tx=CONST5, rx=CONST5)
RICH = ScenarioSpec(4, 1, 4, tx=CONST5, rx=CONST5, no_double_scattering=True)


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


class OpError(NamedTuple):
    message: str


class Op(NamedTuple):
    label: str
    scenario: str  # key into the scenarios a pass builds
    call: Callable  # call(scenario) -> output


class Pass(NamedTuple):
    wall: float
    times: list
    outputs: list


class Workload:
    """Ops over scenarios built inside each pass; subclasses add the plan,
    the warm-up and the output checks."""

    name = ""
    op_metric = ""  # report name of one operation's latency
    op_unit = "ms"

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.specs: dict[str, ScenarioSpec] = {}
        self.ops: list[Op] = []

    def run_pass(self) -> Pass:
        clock = time.perf_counter
        t0 = clock()
        built = {key: spec.build() for key, spec in self.specs.items()}
        times, outputs = [], []
        for op in self.ops:
            a = clock()
            try:
                out = op.call(built[op.scenario])
            except Exception as e:  # counted as a failed operation
                out = OpError(f"{type(e).__name__}: {e}")
            times.append(clock() - a)
            outputs.append(out)
        return Pass(clock() - t0, times, outputs)

    def warm(self) -> None:
        """Fill the library's caches before timing."""

    def fingerprint(self, output):
        return repr(output)

    def violation(self, i: int, output) -> str | None:
        """Why the output of op i is unusable (the program shows it), or None."""
        return None

    def check(self, passes: list[Pass], tally: stats.Tally) -> None:
        """Count every operation; fail errors, unusable outputs and outputs
        that differ from the first pass.  Subclasses add consistency checks."""
        first = [self.fingerprint(o) for o in passes[0].outputs]
        for p, ps in enumerate(passes):
            for i, (op, out) in enumerate(zip(self.ops, ps.outputs)):
                tally.attempted += 1
                if isinstance(out, OpError):
                    tally.fail((p, i), f"{op.label}: {out.message}")
                elif (why := self.violation(i, out)) is not None:
                    tally.fail((p, i), f"{op.label}: {why}")
                if p and self.fingerprint(out) != first[i]:
                    tally.inconsistent((p, i), f"{op.label}: differs from pass 0")

    def op_samples(self, passes: list[Pass]) -> list[float]:
        scale = 1000.0 if self.op_unit == "ms" else 1.0
        return [t * scale for ps in passes for t in ps.times]

    def extra_metrics(self, passes: list[Pass]) -> list[tuple]:
        return []


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

CURVES = {
    "uncorrelated_4x10x4": ScenarioSpec(4, 10, 4),
    "uncorrelated_4x200x4": ScenarioSpec(4, 200, 4),
    "doubly_correlated_4x10x4": README,
    "rich_4x4": RICH,
    "miso_4x10x1": ScenarioSpec(4, 10, 1, tx=EXP5, sc=EXP5),
}
CURVE_DB = [2.0 * k for k in range(16)]
SWEEP_NS = (2, 5, 10, 20, 40, 50, 65, 100, 120)
SWEEP_MODELS = ("exponential", "tridiagonal")


class ClosedForm(Workload):
    """16-point 8-PSK curves for every closed-form route, plus the 4-PSK
    MISO n_s sweep at 10 dB that carries the partial-fraction cancellation
    defect.  One operation is one sep_mpsk point."""

    name = "closed-form"
    op_metric = "sep_point_ms"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.psk8, self.psk4 = sep.PskConstellation(8), sep.PskConstellation(4)
        plan = []  # (scenario key, group, position in group, psk, snr dB)
        for label, spec in CURVES.items():
            self.specs[label] = spec
            plan += [(label, label, k, self.psk8, x) for k, x in enumerate(CURVE_DB)]
        for model in SWEEP_MODELS:
            for k, ns in enumerate(SWEEP_NS):
                key = f"miso_sweep_{model}_ns{ns}"
                self.specs[key] = ScenarioSpec(2, ns, 1, tx=(model, 0.45),
                                               sc=(model, 0.45), code="alamouti")
                plan.append((key, f"miso_sweep_{model}", k, self.psk4, 10.0))
        self.rng.shuffle(plan)
        self.points = []  # per op: (group, position in group, psk, snr)
        for key, group, k, psk, x in plan:
            self.ops.append(Op(f"{key}@{x:g}dB", key, _sep_point(psk, db(x))))
            self.points.append((group, k, psk, db(x)))
        # the MC cross-check point of each group: a low-SNR curve point, or a
        # sweep point with few scatterers (MC cost grows with n_s^2)
        self.cross = {g: self.rng.randrange(4) for g in
                      [*CURVES, *(f"miso_sweep_{m}" for m in SWEEP_MODELS)]}
        self.mc_seed = self.rng.getrandbits(63)

    def warm(self):
        for key, spec in self.specs.items():
            if key in CURVES or key.endswith("_ns2"):
                psk = self.psk8 if key in CURVES else self.psk4
                sep.sep_mpsk(spec.build(), psk, db(0.0))

    def violation(self, i, output):
        return stats.sep_violation(output, self.points[i][2].sep_ceiling)

    def check(self, passes, tally):
        super().check(passes, tally)
        groups: dict[str, list[tuple[int, int]]] = {}
        for i, (group, k, _, _) in enumerate(self.points):
            groups.setdefault(group, []).append((k, i))
        for group, members in groups.items():
            members.sort()
            if not group.startswith("miso_sweep_"):
                self._check_monotone(group, members, passes, tally)
            k, i = members[self.cross[group]]
            if (0, i) not in tally.failures:
                self._cross_check(i, passes, tally)

    def _check_monotone(self, group, members, passes, tally):
        for p, ps in enumerate(passes):
            prev = None
            for _, i in members:
                if (p, i) in tally.failures:
                    continue
                v = ps.outputs[i]
                if prev is not None and v > prev:
                    tally.inconsistent((p, i), f"{group}: SEP rises with SNR at "
                                               f"{self.ops[i].label}")
                prev = v

    def _cross_check(self, i, passes, tally):
        """The validate gate: |closed form - MC| <= max(3 sigma, 5%)."""
        op = self.ops[i]
        spec = self.specs[op.scenario]
        _, _, psk, snr = self.points[i]
        trials = BLOCK if spec.n_s <= 20 else BLOCK >> 4
        est = mc.mc_sep(spec.build(), psk, snr, mc.MonteCarloConfig(trials, self.mc_seed))
        cf = passes[0].outputs[i]
        tol = max(3.0 * est.std_error, 0.05 * cf)
        print(f"check {op.label}: closed form {cf:.6g} vs MC {est.value:.6g} "
              f"(tolerance {tol:.3g}, {trials} trials)")
        if not abs(cf - est.value) <= tol:
            for p in range(len(passes)):
                tally.inconsistent((p, i), f"{op.label}: closed form {cf!r} vs "
                                           f"MC {est.value!r} +- {est.std_error!r}")

    def extra_metrics(self, passes):
        n = sum(len(ps.times) for ps in passes)
        return [("sep_points_per_s", n / sum(sum(ps.times) for ps in passes), "1/s", f"n={n}")]


def _sep_point(psk, snr):
    return lambda scn: sep.sep_mpsk(scn, psk, snr)


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

MC_TRIALS = 4 * BLOCK
#: Gate for the timed MC estimates against closed forms.  At 15 dB their
#: relative standard error is about 3%, so 5% would sit under 3 sigma and a
#: 3-sigma gate would fail about one seed in 300; 5 sigma fails one in 10^6.
MC_SIGMAS = 5.0


class MonteCarlo(Workload):
    """Multi-block estimator calls (4 blocks of 2^16 trials), no closed
    forms.  One operation is one estimator call; all share one seed, as one
    config would."""

    name = "monte-carlo"
    op_metric = "mc_call_ms"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.specs = {
            "readme": README,
            "exponential_all_sides": ScenarioSpec(4, 10, 4, tx=EXP5, sc=EXP5, rx=EXP5),
            "rich_4x4": RICH,
        }
        self.psk8 = sep.PskConstellation(8)
        cfg = mc.MonteCarloConfig(MC_TRIALS, self.rng.getrandbits(63))
        self.cfg = cfg
        psk, snr15 = self.psk8, db(15.0)
        self.ops = [
            Op("mc_sep readme 15dB", "readme",
               lambda s: _est(mc.mc_sep(s, psk, snr15, cfg))),
            Op("mc_sep exponential_all_sides 15dB", "exponential_all_sides",
               lambda s: _est(mc.mc_sep(s, psk, snr15, cfg))),
            Op("mc_sep rich_4x4 15dB", "rich_4x4",
               lambda s: _est(mc.mc_sep(s, psk, snr15, cfg))),
            Op("mc_kurtosis_eff readme", "readme",
               lambda s: _est(*mc.mc_kurtosis_eff(s, cfg))),
            Op("mc_capacity general readme 0dB", "readme",
               lambda s: _est(mc.mc_capacity(s, 1.0, "general", cfg))),
            Op("mc_capacity ostbc readme 0dB", "readme",
               lambda s: _est(mc.mc_capacity(s, 1.0, "ostbc", cfg))),
        ]
        self.rng.shuffle(self.ops)
        self.repeat = self.rng.randrange(len(self.ops))

    def warm(self):
        small = mc.MonteCarloConfig(10_000, self.cfg.seed)
        built = {k: s.build() for k, s in self.specs.items()}
        for scn in built.values():
            mc.mc_sep(scn, self.psk8, db(15.0), small)
        mc.mc_kurtosis_eff(built["readme"], small)
        for mode in ("general", "ostbc"):
            mc.mc_capacity(built["readme"], 1.0, mode, small)

    def violation(self, i, output):
        op = self.ops[i]
        if not all(math.isfinite(x) for x in output):
            return f"non-finite estimate {output!r}"
        if op.label.startswith("mc_sep"):
            return stats.sep_violation(output[0], self.psk8.sep_ceiling)
        if op.label.startswith("mc_capacity") and not output[0] > 0.0:
            return f"capacity {output[0]!r} not positive"
        return None

    def check(self, passes, tally):
        super().check(passes, tally)
        if len(passes) == 1 and (0, self.repeat) not in tally.failures:
            # repeat one call, so (trials, seed) reproducibility is checked
            op = self.ops[self.repeat]
            again = op.call(self.specs[op.scenario].build())
            if repr(again) != repr(passes[0].outputs[self.repeat]):
                tally.inconsistent((0, self.repeat), f"{op.label}: repeat differs")
        by_label = {op.label: i for i, op in enumerate(self.ops)}
        readme, rich = README.build(), RICH.build()
        references = {
            "mc_sep readme 15dB": sep.sep_mpsk(readme, self.psk8, db(15.0)),
            "mc_sep rich_4x4 15dB": sep.sep_mpsk(rich, self.psk8, db(15.0)),
            "mc_kurtosis_eff readme": matstat.kurtosis_frobenius(readme),
        }
        gen, ost = by_label["mc_capacity general readme 0dB"], by_label["mc_capacity ostbc readme 0dB"]
        for p, ps in enumerate(passes):
            for label, ref in references.items():
                i = by_label[label]
                if (p, i) in tally.failures:
                    continue
                value, se = ps.outputs[i][:2]
                tol = max(MC_SIGMAS * se, 0.05 * ref)
                if not abs(value - ref) <= tol:
                    tally.inconsistent((p, i), f"{label}: {value!r} vs closed form "
                                               f"{ref!r} (tolerance {tol!r})")
            # same seed, so the same channels: the OSTBC capacity cannot
            # exceed the unconstrained one on any draw
            if not {(p, gen), (p, ost)} & tally.failures.keys():
                if not ps.outputs[gen][0] >= ps.outputs[ost][0]:
                    tally.inconsistent((p, ost), "OSTBC capacity exceeds general capacity")

    def extra_metrics(self, passes):
        busy = sum(sum(ps.times) for ps in passes)
        n = len(self.ops) * len(passes)
        return [("mc_trials_per_s", MC_TRIALS * n / busy, "1/s", f"{n} calls")]


def _est(*estimates):
    return tuple(float(x) for e in estimates for x in (e.value, e.std_error))


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------

CLI_TRIALS = 8192  # one partial 2^16 block per Monte Carlo call
RHO_VALUES = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
README_CONFIG = """\
scenario.n_t = 4
scenario.n_s = 10
scenario.n_r = 4
corr.tx.model = constant
corr.tx.rho = 0.5
corr.rx.model = constant
corr.rx.rho = 0.5
code = g4
psk.m = 8
snr.start_db = 0
snr.stop_db = {stop}
snr.step_db = 2
mc.trials = 1000000
mc.seed = {seed}
"""
#: validate cross-checks closed form against MC at the grid midpoint; a
#: 0-10 dB grid puts it at 6 dB, where the relative error of 8192 trials is
#: 1% and the 5% tolerance is five standard errors.
CLI_JOBS = {
    "sep-curve": {"stop": 20, "extra": ""},
    "sweep": {"stop": 20, "extra": f"sweep.axis = rho\nsweep.values = {RHO_VALUES}\n"
                                   "sweep.snr_db = 15\n"},
    "validate": {"stop": 10, "extra": ""},
    "lowsnr": {"stop": 20, "extra": "lowsnr.snr_start_db = -20\n"
                                    "lowsnr.snr_stop_db = 0\nlowsnr.snr_step_db = 5\n"},
}


class CliMixed(Workload):
    """In-process `dsmimo.cli.main` on README-scale configs: sep-curve, a
    9-value rho sweep, validate and lowsnr.  One operation is one
    subcommand invocation; each pass writes its CSVs to its own directory."""

    name = "cli-mixed"
    op_metric = "job_s"
    op_unit = "s"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        mc_seed = self.rng.getrandbits(63)
        self.specs = {"pass_dir": _PassDirs(out_dir)}
        for cmd, job in CLI_JOBS.items():
            path = out_dir / f"{cmd}.cfg"
            path.write_text(README_CONFIG.format(stop=job["stop"], seed=mc_seed)
                            + job["extra"], encoding="utf-8")
            self.ops.append(Op(cmd, "pass_dir", _cli_job(cmd, path)))
        self.rng.shuffle(self.ops)

    def warm(self):
        pass_dir = self.specs["pass_dir"].build()
        for op in self.ops:
            op.call(pass_dir)

    def fingerprint(self, output):
        if isinstance(output, OpError):
            return repr(output)
        (rc, _), path = output
        return rc, path.read_bytes() if path.exists() else None

    def violation(self, i, output):
        (rc, text), path = output
        if rc != 0:
            return f"exit code {rc}: {text.strip()[-200:]}"
        cmd = self.ops[i].label
        for row in _csv_rows(path):
            for key, value in row.items():
                if key.startswith("sep_") and value != "":
                    if why := stats.sep_violation(float(value), 7.0 / 8.0):
                        return f"{key}: {why}"
                elif _is_number(value) and not math.isfinite(float(value)):
                    return f"{key}: non-finite {value!r}"
            if cmd == "validate" and row["status"] != "PASS":
                return f"validate check {row['check']} failed"
            if cmd == "lowsnr" and not float(row["capacity_bits_per_s_hz"]) > 0.0:
                return f"capacity {row['capacity_bits_per_s_hz']!r} not positive"
        return None

    def check(self, passes, tally):
        super().check(passes, tally)
        psk = sep.PskConstellation(8)
        # the CLI adds no computation: its closed-form columns must equal
        # direct library calls digit for digit
        expected = {
            "sep-curve": sep.sep_mpsk(README.build(), psk, db(0.0)),
            "sweep": sep.sep_mpsk(
                ScenarioSpec(4, 10, 4, tx=("constant", 0.1), rx=("constant", 0.1)).build(),
                psk, 10.0 ** (15.0 / 10.0)),
        }
        for p, ps in enumerate(passes):
            for i, op in enumerate(self.ops):
                if op.label not in expected or (p, i) in tally.failures:
                    continue
                seps = [row["sep_closed_form"] for row in _csv_rows(ps.outputs[i][1])]
                if seps[0] != format(expected[op.label], ".17g"):
                    tally.inconsistent((p, i), f"{op.label}: first closed-form value "
                                               f"{seps[0]} != library {expected[op.label]!r}")
                if op.label == "sep-curve" and any(
                        float(b) > float(a) for a, b in zip(seps, seps[1:])):
                    tally.inconsistent((p, i), "sep-curve: closed form rises with SNR")


class _PassDirs:
    """Stands in for a scenario: each build is a fresh output directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def build(self) -> Path:
        path = self.root / f"pass{self.count}"
        self.count += 1
        path.mkdir()
        return path


def _cli_job(cmd, config):
    def run(pass_dir):
        out = pass_dir / f"{cmd}.csv"
        return _run_cli([cmd, "--config", str(config), "--out", str(out),
                         "--trials", str(CLI_TRIALS)]), out
    return run


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse errors exit
            rc = e.code
    return rc, buf.getvalue()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


WORKLOADS = {w.name: w for w in (ClosedForm, MonteCarlo, CliMixed)}
