"""Spans around calls into hitchin4's public functions, and the counting pass.

Tracing is done from the benchmark's side only: ``Tracer.install`` swaps
each traced function for a wrapper in every hitchin4 module that holds a
reference to it (so internal calls, e.g. ``torelli_chamber`` calling
``classify_chamber``, nest as child spans), and ``uninstall`` puts the
originals back.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# The public functions whose spans give the per-layer metrics.
TRACED = {
    "chambers": ("classify_chamber", "is_generic"),
    "torelli": ("torelli_chamber", "torelli_parallel", "inverse_torelli", "in_period_domain"),
    "coxeter": ("alcove_walk", "compose_word", "apply_to_masses"),
    "homology": ("word_to_auto", "hat_reduction"),
    "monodromy": ("normalize",),
    "spectral": ("build_base", "singular_fibers", "in_B0", "tautological_residues",
                 "elliptic_periods"),
    "hkmodel": ("apply_structure", "pairings", "holomorphic_pairing_closed_form"),
}
TRACED_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# Ratios read from item outputs: (numerator counter, denominator counter, unit).
RATIOS = {
    "coxeter.alcove_walk.steps_per_call": ("walk_steps", "walk_calls", "steps"),
    "monodromy.normalize.moves_per_call": ("normalize_moves", "normalize_calls", "moves"),
    "spectral.in_B0.accept_ratio": ("in_B0_true", "in_B0_calls", "fraction"),
    "spectral.elliptic_periods.ok_ratio": ("periods_ok", "periods_calls", "fraction"),
}

CLI_COMMANDS = ("chamber", "generic", "periods", "invert", "domain", "coxeter_walk",
                "coxeter_apply", "homology_twist", "spectral_fibers", "spectral_residues",
                "spectral_tau", "monodromy_normalize", "hk_check", "sweep")
CLI_GROUPS = CLI_COMMANDS + ("domain_error", "bad_input")

STAT_UNITS = {"calls": "count", "busy_ms": "ms", "errors": "count"}
# Every per-layer metric with its unit; a layer a workload does not use reads 0.
PER_LAYER = {
    **{f"{n}.{stat}": unit for n in TRACED_NAMES for stat, unit in STAT_UNITS.items()},
    **{name: unit for name, (_, _, unit) in RATIOS.items()},
    "core.fraction_new_per_item": "count",
    "core.gaussian_new_per_item": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{c}.wall_ms": "ms" for c in CLI_GROUPS},
    "trace.overhead_fraction": "fraction",
}


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index, item, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self._swaps: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.item, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return traced

    def prepare(self):
        """Build the wrappers and find every module attribute to swap."""
        import hitchin4

        modules = [hitchin4] + [m for n, m in sys.modules.items()
                                if n.startswith("hitchin4.") and m is not None]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"hitchin4.{mod_name}"]
            for f in funcs:
                orig = getattr(home, f)
                wrapped = self._wrap(f"{mod_name}.{f}", orig)
                for mod in modules:
                    for attr, val in vars(mod).items():
                        if val is orig:
                            self._swaps.append((mod, attr, orig, wrapped))

    def install(self):
        for mod, attr, _, wrapped in self._swaps:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig, _ in self._swaps:
            setattr(mod, attr, orig)

    def begin(self, name, item):
        """Open an item's root span and return its index; traced calls until
        ``end`` are its children."""
        self.item = item
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, -1, item, False])
        return self._stack[-1]

    def end(self, raised=False):
        rec = self.spans[self._stack.pop()]
        rec[2] = perf_counter_ns()
        rec[5] = raised

    def layer_stats(self) -> dict:
        """calls, busy_ms (summed self time) and errors per traced name."""
        child = defaultdict(int)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls, busy, errors = Counter(), Counter(), Counter()
        for i, (name, s, e, _, _, raised) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += e - s - child[i]
            errors[name] += raised
        out = {}
        for n in TRACED_NAMES:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.busy_ms"] = busy[n] / 1e6
            out[f"{n}.errors"] = errors[n]
        return out

    def dump(self, path):
        import json

        with open(path, "w") as fh:
            for name, s, e, parent, item, raised in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": s, "end_ns": e,
                                     "parent": parent, "item": item,
                                     "raised": raised}) + "\n")


def construction_codes():
    """Code objects whose calls count as one new Fraction / GaussianRational."""
    from fractions import Fraction

    from hitchin4 import core

    codes = {}
    for attr in ("__new__", "_from_coprime_ints"):
        code = getattr(getattr(Fraction, attr, None), "__code__", None)
        if code is not None:
            codes[code] = "fraction"
    gauss = getattr(core, "GaussianRational", None)
    code = getattr(getattr(gauss, "__init__", None), "__code__", None)
    if code is not None:
        codes[code] = "gaussian"
    return codes


def count_constructions(run, items) -> dict:
    """Exact numbers of new Fractions and GaussianRationals per item, from a
    profiler hook around ``run(item)``.  Timings of this pass are unused."""
    codes = construction_codes()
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call":
            kind = codes.get(frame.f_code)
            if kind is not None:
                counts[kind] += 1

    for item in items:
        sys.setprofile(hook)
        try:
            run(item)
        finally:
            sys.setprofile(None)
    n = max(1, len(items))
    return {"core.fraction_new_per_item": counts["fraction"] / n,
            "core.gaussian_new_per_item": counts["gaussian"] / n}
