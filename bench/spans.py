"""Spans around the package's layer boundaries, installed by rebinding public names.

Only traced passes install the wrappers.  A wrapper passes arguments and
results through untouched and records a span ``[layer, start, end, parent,
op, excluded, pooled]``.  Work counters are computed from the call's own
arguments and result right after the span closes; the time that takes is
added to ``excluded`` of every open ancestor, so it never counts as a layer's
time.  This is the only place the benchmark counts work: each install starts
a fresh set of counts for one pass, so the counts of the passes can be
compared for exact repeats.  Self time is a span's duration minus the durations of its direct
children.  Pool workers cannot report spans: a pooled sweep's searches come
from the returned outcomes, and ``pooled`` holds their time per worker, which
the sweep's self time excludes.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import known

perf_counter = time.perf_counter

# (module, attribute, layer): the names callers import, as they bind them.
TRACED_NAMES = [
    ("hamdec.cli", "construct_with_family", "constructions"),
    ("hamdec.cli", "verify_certificate", "verifier.exact"),
    ("hamdec.cli", "window_oracle", "verifier.oracle"),
    ("hamdec.cli", "load_certificate", "document"),
    ("hamdec.cli", "render_figure", "figures"),
    ("hamdec.cli", "analyze", "admissibility"),
    ("hamdec.cli", "find_path", "buratti.find_path"),
    ("hamdec.cli", "sweep", "buratti.sweep"),
    ("hamdec.constructions", "verify_certificate", "verifier.exact"),
    ("hamdec.constructions", "analyze", "admissibility"),
    ("hamdec.constructions", "find_path", "buratti.find_path"),
    ("hamdec.buratti", "find_path", "buratti.find_path"),
]

# Attributes of the benchmark's own ``api`` namespace and their layers.
API_LAYERS = {
    "main": "cli",
    "load_certificate": "document",
    "verify_certificate": "verifier.exact",
    "sweep": "buratti.sweep",
}

LAYERS = ("cli", "admissibility", "constructions", "verifier.exact", "verifier.oracle",
          "document", "figures", "buratti.find_path", "buratti.sweep")

# The machine-independent work counts among the per-layer metrics.
WORK = ("constructions.starter_edges", "verifier.exact.residue_checks",
        "verifier.oracle.edges_materialised", "document.bytes", "figures.bytes",
        "buratti.find_path.nodes", "buratti.sweep.enumerated")


def _count_exact(c, args, kwargs, result, span):
    cert = args[0]
    c["verifier.exact.residue_checks"] += known.residue_checks(
        cert.connection_set.s_plus, cert.starter.vertices, cert.offsets)
    c["verifier.exact.accepted"] += bool(result and result.accepted)


def _count_oracle(c, args, kwargs, result, span):
    cert, periods = args[0], args[1] if len(args) > 1 else kwargs["periods"]
    if result is not None:
        c["verifier.oracle.edges_materialised"] += known.window_edges(
            cert.period, cert.starter.vertices, cert.offsets, periods)


def _count_constructions(c, args, kwargs, result, span):
    if result is not None:
        c["constructions.starter_edges"] += result[1].starter.edge_count


def _count_document(c, args, kwargs, result, span):
    if result is not None:
        c["document.bytes"] += os.path.getsize(args[0])


def _count_figures(c, args, kwargs, result, span):
    if result is not None:
        c["figures.bytes"] += len(result.encode())


def _count_find_path(c, args, kwargs, result, span):
    if result is not None:
        c["buratti.find_path.nodes"] += result.nodes_expanded
        c["buratti.find_path.useful"] += (args[0] - 1) * result.found


def _count_sweep(c, args, kwargs, result, span):
    if result is None:
        return
    jobs = kwargs.get("jobs", 1)
    c["buratti.sweep.enumerated"] += known.multiset_count(args[0])
    c["buratti.sweep.decided"] += len(result.entries)
    c["buratti.sweep.pool_capacity_s"] += jobs * (span[2] - span[1])
    if jobs > 1:
        # Workers cannot report spans; their searches come from the outcomes.
        busy = sum(o.elapsed for _, o in result.entries)
        c["buratti.find_path.calls"] += len(result.entries)
        c["buratti.find_path.busy_s"] += busy
        c["buratti.find_path.nodes"] += sum(o.nodes_expanded for _, o in result.entries)
        c["buratti.find_path.useful"] += (args[0] - 1) * sum(o.found for _, o in result.entries)
        c["buratti.sweep.worker_busy_s"] += busy
        span[6] = busy / jobs


COUNTERS = {
    "verifier.exact": _count_exact,
    "verifier.oracle": _count_oracle,
    "constructions": _count_constructions,
    "document": _count_document,
    "figures": _count_figures,
    "buratti.find_path": _count_find_path,
    "buratti.sweep": _count_sweep,
}


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.passes: list[defaultdict] = []  # the counts of each pass
        self._saved: list[tuple] = []

    def wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self.stack, self.passes[-1]
        count = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if count is not None:
                    count(counts, args, kwargs, result, span)
                    spent = perf_counter() - span[2]
                    for i in stack:
                        spans[i][5] += spent

        traced.__wrapped__ = fn
        return traced

    def install(self, api, modules) -> None:
        """Wrap every traced name for one pass, which gets counts of its own."""
        self.passes.append(defaultdict(float))
        for module_name, attr, layer in TRACED_NAMES:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))
        for attr, layer in API_LAYERS.items():
            original = getattr(api, attr)
            self._saved.append((api, attr, original))
            setattr(api, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy (outermost spans of the layer) and self time per layer."""
        spans = self.spans
        eff = [s[2] - s[1] - s[5] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += eff[i]
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for i, s in enumerate(spans):
            row = out[s[0]]
            row["calls"] += 1
            row["self_s"] += eff[i] - child[i] - s[6]
            parent = s[3]
            while parent >= 0 and spans[parent][0] != s[0]:
                parent = spans[parent][3]
            if parent < 0:
                row["busy_s"] += eff[i]
        return out

    def work_per_pass(self) -> dict[str, float]:
        """The work counts of the first pass."""
        return {key: self.passes[0][key] for key in WORK}

    def unstable_counts(self) -> list[str]:
        """Work counts that differ between the passes; empty when they repeat exactly."""
        return [key for key in WORK if len({c[key] for c in self.passes}) > 1]

    def per_layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, per traced pass."""
        totals, passes = self.layer_totals(), len(self.passes)
        c = defaultdict(float)
        for counts in self.passes:
            for key, value in counts.items():
                c[key] += value
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = totals[layer]["calls"]
            m[f"{layer}.busy_s"] = totals[layer]["busy_s"]
            m[f"{layer}.self_s"] = totals[layer]["self_s"]
        m["buratti.find_path.calls"] += c["buratti.find_path.calls"]
        m["buratti.find_path.busy_s"] += c["buratti.find_path.busy_s"]
        for key in (*WORK, "buratti.sweep.worker_busy_s"):
            m[key] = c[key]
        in_sweep = sum(s[2] - s[1] - s[5] for s in self.spans
                       if s[0] == "buratti.find_path" and s[3] >= 0
                       and self.spans[s[3]][0] == "buratti.sweep")
        m["buratti.sweep.worker_busy_s"] += in_sweep
        m = {k: v / passes for k, v in m.items()}
        m["verifier.exact.accept_ratio"] = _ratio(c["verifier.exact.accepted"],
                                                  totals["verifier.exact"]["calls"])
        m["buratti.find_path.nodes_per_s"] = _ratio(m["buratti.find_path.nodes"],
                                                    m["buratti.find_path.busy_s"])
        m["buratti.find_path.useful_ratio"] = _ratio(c["buratti.find_path.useful"],
                                                     c["buratti.find_path.nodes"])
        m["buratti.sweep.useful_ratio"] = _ratio(c["buratti.sweep.decided"],
                                                 c["buratti.sweep.enumerated"])
        m["buratti.sweep.pool_efficiency"] = _ratio(m["buratti.sweep.worker_busy_s"] * passes,
                                                    c["buratti.sweep.pool_capacity_s"])
        return m

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s[:5]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
