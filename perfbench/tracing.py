"""Span tracing around the library's public functions.

Each traced function is replaced, in every dsmimo module namespace that
holds it, by a wrapper that records a span (name, start, end, parent) in
memory.  Patching every namespace covers each import site a caller uses
(`dsmimo.sep.hyp2f0`, `dsmimo.mc.sample_channel`, `dsmimo.cli.mc_sep`, ...)
without editing the library.  The random generators handed out by
`dsmimo.mc.substream` are wrapped in a proxy whose draws are spans too, so
RNG time is a child of whatever layer draws.

Wrappers only observe: arguments and results pass through unchanged, so a
traced run computes bit-identical outputs.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

from stats import Span, self_times


def _size_of(arg_index: int, key: str):
    def count(tracer, name, args, kwargs, result):
        tracer.counts[name + ".entries"] += int(np.size(
            args[arg_index] if len(args) > arg_index else kwargs[key]))
        return result
    return count


def _channel_work(tracer, name, args, kwargs, result):
    """Trials drawn and the complex matrix-product flops of the channel
    chain, computed from the shapes (8 real flops per complex multiply-add,
    every factor multiplied as stored)."""
    scn = args[0]
    size = args[2] if len(args) > 2 else kwargs.get("size")
    trials = 1 if size is None else int(size)
    t, s, r = scn.n_t, scn.n_s, scn.n_r
    if scn.no_double_scattering:
        macs = r * r * t + r * t * t
    else:
        macs = r * r * s + r * s * s + r * s * t + r * t * t
    tracer.counts[name + ".trials"] += trials
    tracer.counts[name + ".flops_computed"] += 8 * macs * trials
    return result


def _csv_bytes(tracer, name, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts[name + ".bytes"] += os.path.getsize(path)
    return result


def _timed_generator(tracer, name, args, kwargs, result):
    return TimedGenerator(result, tracer)


#: (defining module, attribute, span name, after-call hook)
TARGETS = [
    ("dsmimo.quadrule", "gauss_laguerre_prob", "quadrule.gauss_laguerre_prob", None),
    ("dsmimo.quadrule", "gauss_legendre", "quadrule.gauss_legendre", None),
    *[("dsmimo.corrmat", attr, "corrmat.corr_build", None)
      for attr in ("identity_corr", "constant_corr", "exponential_corr",
                   "tridiagonal_corr", "spectrum_of", "matrix_sqrt")],
    ("dsmimo.detform", "hyp2f0", "detform.hyp2f0", _size_of(2, "x")),
    ("dsmimo.detform", "characteristic_coefficients",
     "detform.characteristic_coefficients", None),
    ("dsmimo.sep", "sep_mpsk", "sep.sep_mpsk", None),
    ("dsmimo.sep", "sep_mpsk_uncorrelated", "sep.family.uncorrelated", None),
    ("dsmimo.sep", "sep_mpsk_doubly_correlated", "sep.family.doubly_correlated", None),
    ("dsmimo.sep", "sep_mpsk_miso", "sep.family.miso", None),
    ("dsmimo.sep", "sep_mpsk_no_double_scattering",
     "sep.family.no_double_scattering", None),
    ("dsmimo.sep", "conditional_sep_mpsk", "sep.conditional_sep_mpsk",
     _size_of(0, "gamma")),
    ("dsmimo.matstat", "sample_channel", "matstat.sample_channel", _channel_work),
    ("dsmimo.mc", "substream", "mc.substream", _timed_generator),
    ("dsmimo.mc", "mc_sep", "mc.mc_sep", None),
    ("dsmimo.mc", "mc_kurtosis_eff", "mc.mc_kurtosis_eff", None),
    ("dsmimo.mc", "mc_capacity", "mc.mc_capacity", None),
    ("dsmimo.cli", "parse_config", "cli.parse_config", None),
    ("dsmimo.cli", "build_run_config", "cli.build_run_config", None),
    ("dsmimo.cli", "write_csv", "cli.write_csv", _csv_bytes),
]


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            return result if after is None else after(self, name, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Patch every TARGETS function in every loaded dsmimo namespace.
        A target the library no longer defines is listed in `missing`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dsmimo" or n.startswith("dsmimo."))]
        for mod_name, attr, name, after in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def finished_spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.spans]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        spans = self.finished_spans()
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(spans, self_times(spans)):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own
        return out


class TimedGenerator:
    """Proxy around a numpy Generator: every method call is an `mc.rng` span,
    and the variates it returns are counted."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        return self._tracer.wrap(value, "mc.rng", functools.partial(_count_draws, attr))


def _count_draws(method, tracer, name, args, kwargs, result):
    n = int(np.size(result))
    tracer.counts["mc.rng.variates"] += n
    if method == "standard_normal":
        tracer.counts["mc.rng.normals"] += n
    return result
