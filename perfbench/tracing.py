"""Span tracing of the switchctrl layers, installed from outside the package.

``Tracer.install`` wraps the public functions of every layer module, at
every place their names are bound (``sample_mode_path`` lives in ``pdmp``
and is imported into ``mc``, ``cli`` and ``verify``; ``kernel`` into
``criteria`` and ``riccati``; ...), and methods on their class.  Each call
becomes a span (name, start, end, parent span, operation id); spans stay in
memory and are written out by the worker at exit.  A traced name missing
from the package stops ``install`` with ``MissingNames``, so a renamed or
removed function cannot make its metrics silently read zero: ``LAYERS``
has to follow the package.

A span's self time is its duration minus the durations of its direct
child spans.  ``layer_metrics`` turns the spans and the counters taken from
arguments and return values into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Traced public names per layer module of ``src/switchctrl``.
LAYERS = {
    "model": ("parse_spec", "validate", "as_constant", "serialize_spec",
              "system_digest", "canonical_json"),
    "subspace": ("kernel", "image", "orthonormalize", "preimage", "numerical_rank",
                 "pseudoinverse", "Subspace.intersect", "Subspace.sum"),
    "criteria": ("nec1_check", "nec2_check", "suf1_check", "crit_equiv_check",
                 "crit_cont_switch_check", "det_kalman_check", "feedback_witness",
                 "strict_invariant_fixpoint", "invariant_fixpoint", "kalman_rank",
                 "unobservable_subspace", "accessible_modes"),
    "pdmp": ("sample_mode_path", "effective_drift", "simulate_forward",
             "simulate_dual"),
    "synth": ("gramian", "gramian_factor", "min_energy_control",
              "piecewise_null_policy", "null_bound", "commuting_hypothesis",
              "MinEnergyRestartPolicy.segment"),
    "riccati": ("integrate_riccati", "viability_test", "riccati_csv"),
    "mc": ("trajectory_rng", "estimate_terminal", "estimate_terminal_msq",
           "null_bound_check", "dual_kernel_residual"),
    "report": ("check_report", "report_bytes", "run_criteria", "overall_verdict",
               "verdict_dict", "subspace_dict"),
    "verify": ("verify_example",),
    "cli": ("main", "cmd_check", "cmd_simulate", "cmd_riccati", "cmd_verify_example"),
}


def _count_jumps(counts, args, kwargs, result):
    counts["pdmp.jumps"] += int(result.n_jumps)


def _count_rounds(counts, args, kwargs, result):
    counts["criteria.fixpoint_rounds"] += len(result[1])


def _count_grid(counts, args, kwargs, result):
    counts["riccati.grid_steps"] += len(result.grid) - 1


#: Counters read from return values, by traced name.
COUNTERS = {
    "pdmp.sample_mode_path": _count_jumps,
    "criteria.strict_invariant_fixpoint": _count_rounds,
    "criteria.invariant_fixpoint": _count_rounds,
    "riccati.integrate_riccati": _count_grid,
}

#: Per-layer metrics: unit and how each is computed from the per-name
#: totals.  ``calls:X`` counts spans of X, ``incl:X`` sums their durations,
#: ``self:L`` sums the self time of every span of layer L, ``count:K`` reads
#: a counter.  Values are per workload cycle.
METRICS = {
    "model.parse_s": ("s", ["incl:model.parse_spec"]),
    "model.validate_s": ("s", ["incl:model.validate"]),
    "subspace.calls": ("count", ["calls:subspace"]),
    "subspace.self_s": ("s", ["self:subspace"]),
    "criteria.nec1_s": ("s", ["incl:criteria.nec1_check"]),
    "criteria.nec2_s": ("s", ["incl:criteria.nec2_check"]),
    "criteria.suf1_s": ("s", ["incl:criteria.suf1_check"]),
    "criteria.crit_equiv_s": ("s", ["incl:criteria.crit_equiv_check"]),
    "criteria.crit_cont_switch_s": ("s", ["incl:criteria.crit_cont_switch_check"]),
    "criteria.det_kalman_s": ("s", ["incl:criteria.det_kalman_check"]),
    "criteria.fixpoint_calls": ("count", ["calls:criteria.strict_invariant_fixpoint",
                                          "calls:criteria.invariant_fixpoint"]),
    "criteria.fixpoint_rounds": ("count", ["count:criteria.fixpoint_rounds"]),
    "criteria.feedback_witness_s": ("s", ["incl:criteria.feedback_witness"]),
    "criteria.self_s": ("s", ["self:criteria"]),
    "report.check_report_s": ("s", ["incl:report.check_report"]),
    "report.bytes_s": ("s", ["incl:report.report_bytes"]),
    "report.self_s": ("s", ["self:report"]),
    "mc.rng_s": ("s", ["incl:mc.trajectory_rng"]),
    "mc.estimate_s": ("s", ["incl:mc.estimate_terminal", "incl:mc.dual_kernel_residual"]),
    "mc.self_s": ("s", ["self:mc"]),
    "pdmp.sample_calls": ("count", ["calls:pdmp.sample_mode_path"]),
    "pdmp.sample_s": ("s", ["incl:pdmp.sample_mode_path"]),
    "pdmp.jumps": ("count", ["count:pdmp.jumps"]),
    "pdmp.forward_s": ("s", ["incl:pdmp.simulate_forward"]),
    "pdmp.dual_s": ("s", ["incl:pdmp.simulate_dual"]),
    "pdmp.drift_calls": ("count", ["calls:pdmp.effective_drift"]),
    "pdmp.self_s": ("s", ["self:pdmp"]),
    "synth.segment_calls": ("count", ["calls:synth.MinEnergyRestartPolicy.segment"]),
    "synth.segment_s": ("s", ["incl:synth.MinEnergyRestartPolicy.segment"]),
    "synth.gramian_calls": ("count", ["calls:synth.gramian"]),
    "synth.gramian_s": ("s", ["incl:synth.gramian"]),
    "synth.policy_build_s": ("s", ["incl:synth.piecewise_null_policy"]),
    "synth.self_s": ("s", ["self:synth"]),
    "riccati.rungs": ("count", ["calls:riccati.integrate_riccati"]),
    "riccati.rung_s": ("s", ["incl:riccati.integrate_riccati"]),
    "riccati.grid_steps": ("count", ["count:riccati.grid_steps"]),
    "riccati.viability_s": ("s", ["incl:riccati.viability_test"]),
    "riccati.self_s": ("s", ["self:riccati"]),
    "verify.self_s": ("s", ["self:verify"]),
    "cli.calls": ("count", ["calls:cli.main"]),
    "cli.self_s": ("s", ["self:cli"]),
}


class MissingNames(RuntimeError):
    """Traced names that the installed package does not define."""


class Tracer:
    """Spans of one traced workload process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent, op)
        self.counts = {key: 0 for key in ("pdmp.jumps", "criteria.fixpoint_rounds",
                                          "riccati.grid_steps")}
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent, self.op)
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name wherever ``switchctrl`` modules bind it;
        raise ``MissingNames`` (wrapping nothing) if any is not defined."""
        for layer in LAYERS:
            importlib.import_module(f"switchctrl.{layer}")
        found, missing = [], []
        for layer, names in LAYERS.items():
            home = sys.modules[f"switchctrl.{layer}"]
            for name in names:
                cls_name, _, meth = name.rpartition(".")
                owner = getattr(home, cls_name, None) if cls_name else home
                fn = getattr(owner, meth, None) if owner is not None else None
                if fn is None:
                    missing.append(f"{layer}.{name}")
                else:
                    found.append((layer, name, owner, meth, fn))
        if missing:
            raise MissingNames("traced names not in switchctrl: " + ", ".join(missing))
        modules = [m for name, m in sys.modules.items()
                   if name == "switchctrl" or name.startswith("switchctrl.")]
        for layer, name, owner, meth, fn in found:
            traced = self._wrap(fn, f"{layer}.{name}")
            if owner is not sys.modules[f"switchctrl.{layer}"]:
                setattr(owner, meth, traced)  # a method, bound on its class
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def totals(self, hidden=None) -> dict:
        """Per traced name: calls, inclusive ns; per layer: calls, self ns.
        ``hidden(start_ns, end_ns)`` is time inside a span that belongs to
        none of it (the calibration handler); it is left out of every span."""
        durs = [end - start - (hidden(start, end) if hidden else 0)
                for _, start, end, _, _ in self.spans]
        child_ns = [0] * len(self.spans)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                child_ns[span[3]] += durs[idx]
        out: dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            name = self.names[span[0]]
            layer = name.split(".", 1)[0]
            out[f"calls:{name}"] = out.get(f"calls:{name}", 0) + 1
            out[f"incl:{name}"] = out.get(f"incl:{name}", 0) + durs[idx]
            out[f"calls:{layer}"] = out.get(f"calls:{layer}", 0) + 1
            out[f"self:{layer}"] = out.get(f"self:{layer}", 0) + durs[idx] - child_ns[idx]
        for key, value in self.counts.items():
            out[f"count:{key}"] = value
        return out

    def layer_metrics(self, cycles: int, scale: float = 1.0, hidden=None) -> dict:
        """Every per-layer metric, per cycle, with its unit; times leave out
        ``hidden`` (see ``totals``) and are multiplied by ``scale``
        (reference over measured machine speed)."""
        totals = self.totals(hidden)
        out = {}
        for metric, (unit, terms) in METRICS.items():
            value = sum(totals.get(term, 0) for term in terms)
            if unit == "s":
                value = value * scale / 1e9
            out[metric] = {"value": value / cycles, "unit": unit}
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns",
                                                       "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
