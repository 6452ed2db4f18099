"""Outside-in tracing for the traced benchmark run.

The tracer swaps public names in seqfdr's module namespaces for timing
wrappers, and wraps the stream sources those names return in timing
proxies.  Nothing inside ``src/`` is edited: a layer's time is measured at
the calls made into it.  A name that a refactor removed is reported as
absent instead of failing the run.

Spans (name, start, end, parent, unit id) and counters stay in memory and
are written when the benchmark exits.  Untraced runs never install the
tracer, so they call the real functions directly.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

from stats import nearest_rank

# (module, attribute, span name, what the return value needs)
_PATCHES = (
    # simulation engine: cli is the caller of every layer below it
    ("seqfdr.cli", "run_simulation", "cli.run_simulation", None),
    ("seqfdr.cli", "stream_sources", "datagen.stream_sources", "datagen_sources"),
    ("seqfdr.cli", "CumulativeLlrSource", "sprt.CumulativeLlrSource", "sprt_source"),
    ("seqfdr.cli", "make_standardizer", "sprt.make_standardizer", None),
    ("seqfdr.cli", "make_upper_standardizer", "sprt.make_upper_standardizer", None),
    ("seqfdr.cli", "stepdown_critical_values", "sprt.stepdown_critical_values", None),
    ("seqfdr.cli", "run_open_ended", "procedures.run_open_ended", "trial"),
    ("seqfdr.cli", "run_rejective", "procedures.run_rejective", "trial"),
    ("seqfdr.cli", "summarize", "procedures.summarize", None),
    ("seqfdr.cli", "mc_truncated_critical_values",
     "calibrate.mc_truncated_critical_values", None),
    # monitoring pipeline
    ("seqfdr.yellowcard", "load_drug_table", "yellowcard.load_drug_table", None),
    ("seqfdr.yellowcard", "run_monitoring", "yellowcard.run_monitoring", None),
    ("seqfdr.yellowcard", "stream_sources", "datagen.stream_sources", "datagen_sources"),
    ("seqfdr.yellowcard", "CumulativeLlrSource", "sprt.CumulativeLlrSource", "sprt_source"),
    ("seqfdr.yellowcard", "make_standardizer", "sprt.make_standardizer", None),
    ("seqfdr.yellowcard", "stepdown_critical_values", "sprt.stepdown_critical_values", None),
    ("seqfdr.yellowcard", "run_open_ended", "procedures.run_open_ended", "trial"),
    # fixed-sample search
    ("seqfdr.fixed_sample", "find_matching_fss", "fixed_sample.find_matching_fss", None),
    ("seqfdr.fixed_sample", "copula_uniforms", "datagen.copula_uniforms", "cells"),
    ("seqfdr.fixed_sample", "cholesky", "datagen.cholesky", None),
    ("seqfdr.fixed_sample", "correlation_matrix", "datagen.correlation_matrix", None),
    # calibration
    ("seqfdr.calibrate", "mc_truncated_critical_values",
     "calibrate.mc_truncated_critical_values", None),
    ("seqfdr.calibrate", "estimate_gamma", "calibrate.estimate_gamma", "gamma_mode"),
    ("seqfdr.calibrate", "llr_increments", "sprt.llr_increments", None),
    ("seqfdr.sprt", "stepdown_critical_values", "sprt.stepdown_critical_values", None),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span and counter recorder plus the namespace patches that feed it."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, object]] = []
        self.counters: Counter = Counter()
        self.unit = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(("", time.perf_counter_ns(), 0, parent, self.unit))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, name: str) -> None:
        self._stack.pop()
        _, start, _, parent, unit = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, unit)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx, name)

    # -- patches -----------------------------------------------------------

    def install(self) -> None:
        """Swap every listed name for its timing wrapper; note missing ones."""
        if self._saved:
            return
        absent = []
        for module_name, attr, span, kind in _PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, span, kind))
        self.absent = absent

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrapper(self, fn, span: str, kind):
        tracer = self

        def traced(*args, **kwargs):
            name = span
            if kind == "gamma_mode":
                mode = "truncated" if kwargs.get("n_bar") is not None else "open"
                name = f"{span}[{mode}]"
            tracer.counters[f"calls.{name}"] += 1
            out = tracer.call(name, fn, *args, **kwargs)
            if kind == "datagen_sources":
                return [_SourceProxy(tracer, s, "datagen.take") for s in out]
            if kind == "sprt_source":
                return _SourceProxy(tracer, out, "sprt.take")
            if kind == "trial":
                tracer.counters["trials"] += 1
                tracer.counters["stages"] += len({d.step for d in out.decisions})
                tracer.counters["decision_steps"] += sum(d.step for d in out.decisions)
            if kind == "cells":
                tracer.counters["cells"] += int(out.size)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its child spans."""
        own = [(end - start) / 1e9 for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= (end - start) / 1e9
        return own

    def write(self, path) -> None:
        """Dump spans and counters as one JSON document."""
        payload = {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "unit"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _SourceProxy:
    """Times ``take`` on a stream source and counts the values it returns."""

    def __init__(self, tracer: Tracer, source, span: str):
        self._tracer = tracer
        self._source = source
        self._span = span

    def take(self, n_from: int, n_to: int):
        tracer = self._tracer
        tracer.counters[f"calls.{self._span}"] += 1
        out = tracer.call(self._span, self._source.take, n_from, n_to)
        tracer.counters[f"values.{self._span}"] += len(out)
        return out


def per_layer(tracer: Tracer, rounds, setup_s: float, load_s: float) -> dict:
    """Per-layer metrics of the traced rounds, plus their absolute detail.

    Layer times are shares of the traced work (the sum of the traced unit
    spans), so a layer that a workload never reaches reads 0 rather than a
    time; the absolute seconds are in the detail block.
    """
    own = tracer.self_times()
    total: Counter = Counter()
    own_by_layer: Counter = Counter()
    trial_ms = []
    for (name, start, end, _, _), self_s in zip(tracer.spans, own):
        total[name] += (end - start) / 1e9
        own_by_layer[layer_of(name)] += self_s
        if name.startswith("procedures.run_"):
            trial_ms.append((end - start) / 1e6)
    counters = tracer.counters
    work = total["bench.unit"]
    units = sum(1 for span in tracer.spans if span[0] == "bench.unit")
    trials = counters["trials"]
    per_trial = trials or units  # workloads without procedure trials: per unit

    def share(seconds: float) -> float:
        return seconds / work if work else 0.0

    def calls(layer: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith(f"calls.{layer}."))

    # rounds at the reference speed, so machine drift between them cancels
    traced_s = [rnd.scaled for rnd in rounds if rnd.traced]
    untraced_s = [rnd.scaled for rnd in rounds if not rnd.traced]
    iterations = [u.outcome.extras["gamma_iterations"] for rnd in rounds if rnd.traced
                  for u in rnd.units
                  if u.outcome is not None and "gamma_iterations" in u.outcome.extras]
    pulled = counters["values.sprt.take"]
    metrics = {
        f"{layer}.self_frac": share(own_by_layer[layer])
        for layer in ("cli", "datagen", "sprt", "procedures", "calibrate",
                      "fixed_sample", "yellowcard")
    }
    metrics.update({
        "other.self_frac": share(own_by_layer["bench"]),
        "datagen.setup_frac": share(total["datagen.stream_sources"]),
        "datagen.copula_frac": share(total["datagen.copula_uniforms"]),
        "datagen.calls_per_trial": calls("datagen") / per_trial if per_trial else 0.0,
        "datagen.cells_per_unit": counters["cells"] / units if units else 0.0,
        "sprt.calls_per_trial": calls("sprt") / per_trial if per_trial else 0.0,
        "procedures.stages_per_trial": counters["stages"] / trials if trials else 0.0,
        "procedures.useful_obs_frac": counters["decision_steps"] / pulled if pulled else 0.0,
        "procedures.summarize_frac": share(total["procedures.summarize"]),
        "calibrate.truncated_frac": share(total["calibrate.mc_truncated_critical_values"]),
        "calibrate.gamma_open_frac": share(total["calibrate.estimate_gamma[open]"]),
        "calibrate.gamma_truncated_frac": share(total["calibrate.estimate_gamma[truncated]"]),
        "calibrate.llr_frac": share(total["sprt.llr_increments"]),
        "calibrate.gamma_iterations": statistics.fmean(iterations) if iterations else 0.0,
        "yellowcard.load_frac": load_s / setup_s,
        "tracing.overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
    })
    trial_ms.sort()
    detail = {
        "traced_work_s": work,
        "traced_units": units,
        "trials": trials,
        "self_s": {layer: own_by_layer[layer] for layer in sorted(own_by_layer)},
        "span_s": dict(sorted(total.items())),
        "procedures.trial_ms_p50": statistics.median(trial_ms) if trial_ms else None,
        "procedures.trial_ms_p99": nearest_rank(trial_ms, 99.0) if trial_ms else None,
        "yellowcard.load_s": load_s,
        "counters": dict(sorted(counters.items())),
        "absent": tracer.absent,
        "spans": len(tracer.spans),
    }
    return {"metrics": metrics, "detail": detail}
