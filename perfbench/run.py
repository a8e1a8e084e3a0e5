"""dsmimo benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; each as a `metric` line with its unit and sample
count, followed by one JSON line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Full results (and the spans of a traced run) go to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("closed-form", "monte-carlo", "cli-mixed")
#: Every BLAS/OpenMP thread knob is pinned to 1 (at most nproc): the
#: workloads are single-process closed loops over small matrices.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run whole passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dsmimo" / "__init__.py").is_file():
        print(f"no dsmimo sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    setup = [] if args.trace else [probe() for _ in range(SETUP_RUNS)]

    import dsmimo
    if Path(dsmimo.__file__).resolve().parent != SRC / "dsmimo":
        print(f"imported dsmimo from {dsmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    env = environment()
    print("env " + json.dumps(env))
    wl = WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-seed{args.seed}")
    wl.warm()
    passes = measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = [], None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(wl, args.seconds)
        finally:
            tracer.uninstall()
        for target in tracer.missing:
            print(f"untraced: {target} not found")
    tally = stats.Tally()
    wl.check(passes + traced, tally)

    if args.trace:
        overhead = (stats.median([p.wall for p in traced])
                    - stats.median([p.wall for p in passes]))
        report = per_layer(tracer, len(traced), overhead)
    else:
        report = end_to_end(wl, passes, setup, peak_rss_mb)
    report.append(("failed_frac", tally.failed_frac, "1",
                   f"{tally.failed}/{tally.attempted} operations"))
    for name, value, unit, n in report:
        print(f"metric {name} = {value!r} {unit} ({n})")
    for (p, i), reason in sorted(tally.failures.items()):
        print(f"failed pass {p} op {i}: {reason}")

    json_names = LAYER_NAMES if args.trace else END_TO_END_NAMES
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in report if name in json_names}
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result,
              "report": [{"name": n, "value": v, "unit": u, "samples": s}
                         for n, v, u, s in report],
              "failures": [[p, i, r] for (p, i), r in sorted(tally.failures.items())],
              "passes": [{"wall": p.wall, "times": p.times} for p in passes + traced]}
    if tracer is not None:
        record["spans"] = [list(s) for s in tracer.finished_spans()]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def probe() -> float:
    """Wall time of one set-up in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # a blocking wait: with a timeout, Popen polls in steps of up to 50 ms
    rc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], env=env, cwd=ROOT).wait()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"set-up probe exited with {rc}")
    return elapsed


def measure(wl, seconds: float) -> list:
    """Whole passes until `seconds` have elapsed (at least one)."""
    start = time.perf_counter()
    passes = [wl.run_pass()]
    while time.perf_counter() - start < seconds:
        passes.append(wl.run_pass())
    return passes


END_TO_END_NAMES = ("setup_s", "op_ms.geomean", "peak_rss_mb")


def end_to_end(wl, passes, setup, peak_rss_mb) -> list[tuple]:
    ops = wl.op_samples(passes)
    # each operation's median over the passes, so one drifted pass drops out
    op_ms = [1000.0 * stats.median(ts) for ts in zip(*(p.times for p in passes))]
    rows = [("setup_s", stats.median(setup), "s", f"median of {len(setup)} interpreters"),
            ("wall_s", stats.median([p.wall for p in passes]), "s",
             f"median of {len(passes)} passes of {len(wl.ops)} operations"),
            ("op_ms.geomean", stats.geomean(op_ms), "ms",
             f"{len(op_ms)} operations, median of {len(passes)} passes each"),
            (f"{wl.op_metric}.p50", stats.median(ops), wl.op_unit, f"n={len(ops)}")]
    tail = stats.tail(ops)
    if tail is None:
        rows.append((f"{wl.op_metric}.tail", float("nan"), wl.op_unit,
                     f"n={len(ops)}: fewer than {2 * stats.TAIL_BEYOND} samples"))
    else:
        rows.append((f"{wl.op_metric}.tail", tail.value, wl.op_unit,
                     f"p{tail.percentile:.1f}, n={tail.n}, {stats.TAIL_BEYOND} beyond"))
    rows += wl.extra_metrics(passes)
    rows.append(("peak_rss_mb", peak_rss_mb, "MB", "max resident set of the run"))
    return rows


LAYER_COUNTS = {
    "quadrule.gauss_laguerre_prob.calls": "quadrule.gauss_laguerre_prob",
    "quadrule.gauss_legendre.calls": "quadrule.gauss_legendre",
    "detform.hyp2f0.calls": "detform.hyp2f0",
    "detform.characteristic_coefficients.calls": "detform.characteristic_coefficients",
    "sep.sep_mpsk.calls": "sep.sep_mpsk",
    "matstat.sample_channel.calls": "matstat.sample_channel",
    "mc.blocks": "mc.substream",
}
LAYER_SELF = {
    "quadrule.gauss_laguerre_prob.self_s": ("quadrule.gauss_laguerre_prob",),
    "corrmat.corr_build.self_s": ("corrmat.corr_build",),
    "detform.hyp2f0.self_s": ("detform.hyp2f0",),
    "detform.characteristic_coefficients.self_s": ("detform.characteristic_coefficients",),
    "sep.family.uncorrelated.self_s": ("sep.family.uncorrelated",),
    "sep.family.doubly_correlated.self_s": ("sep.family.doubly_correlated",),
    "sep.family.miso.self_s": ("sep.family.miso",),
    "sep.family.no_double_scattering.self_s": ("sep.family.no_double_scattering",),
    "sep.conditional_sep_mpsk.self_s": ("sep.conditional_sep_mpsk",),
    "matstat.sample_channel.self_s": ("matstat.sample_channel",),
    "mc.rng.self_s": ("mc.rng",),
    "mc.mc_sep.self_s": ("mc.mc_sep",),
    "mc.mc_kurtosis_eff.self_s": ("mc.mc_kurtosis_eff",),
    "mc.mc_capacity.self_s": ("mc.mc_capacity",),
    "cli.parse_s": ("cli.parse_config", "cli.build_run_config"),
    "cli.write_csv.self_s": ("cli.write_csv",),
}
LAYER_COUNTERS = {
    "detform.hyp2f0.entries": "count",
    "sep.conditional_sep_mpsk.entries": "count",
    "matstat.sample_channel.trials": "count",
    "matstat.sample_channel.flops_computed": "flop",
    "mc.rng.normals": "count",
    "mc.rng.variates": "count",
    "cli.write_csv.bytes": "B",
}
LAYER_NAMES = (*LAYER_COUNTS, *LAYER_SELF, *LAYER_COUNTERS,
               "detform.hyp2f0.s_per_entry", "trace.overhead_s")


def per_layer(tracer, n_passes: int, overhead: float) -> list[tuple]:
    """Per-layer metrics per traced pass: calls and counters of the wrapped
    functions, and self times (span time minus child spans)."""
    totals = tracer.layer_totals()
    per = f"per pass, {n_passes} traced passes"
    rows = []
    for metric, span in LAYER_COUNTS.items():
        rows.append((metric, totals.get(span, {}).get("calls", 0) / n_passes, "count", per))
    for metric, spans in LAYER_SELF.items():
        value = sum(totals.get(s, {}).get("self_s", 0.0) for s in spans) / n_passes
        rows.append((metric, value, "s", per))
    for metric, unit in LAYER_COUNTERS.items():
        rows.append((metric, tracer.counts[metric] / n_passes, unit, per))
    entries = tracer.counts["detform.hyp2f0.entries"]
    hyp_self = totals.get("detform.hyp2f0", {}).get("self_s", 0.0)
    rows.append(("detform.hyp2f0.s_per_entry", hyp_self / entries if entries else 0.0,
                 "s", f"{entries} entries"))
    rows.append(("trace.overhead_s", overhead, "s",
                 "median traced pass minus median untraced pass"))
    return rows


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


if __name__ == "__main__":
    sys.exit(main())
