"""Spans recorded around the program's public functions, from outside it.

`Tracer.install()` replaces each target function by a wrapper in every
polyspin module that holds a reference to it (and each target method on
its class), so calls made inside the program are seen too. A span is
(name, start, end, parent index); spans stay in memory and are written
once, by `write_jsonl`. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = -1


def self_times(spans):
    """Per-span self time: duration minus the durations of its children.

    `spans` is a list of (name, start, end, parent) with parent an index
    into the list or ROOT. Children are assumed nested inside their parent.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent != ROOT:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def rebase(spans, lo):
    """spans[lo:] with parent indices relative to lo; spans[lo] is a root."""
    return [(n, s, e, p - lo if p >= lo else p) for n, s, e, p in spans[lo:]]


def summarize(spans):
    """{name: [calls, inclusive seconds, self seconds]} over a span list.

    Parents must lie inside the list; pass a slice that starts at a root.
    """
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return dict(out)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self._stack = [ROOT]
        self._undo: list = []
        self._tables_seen: dict = {}

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def count_only(self, fn, on_result):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, kwargs, result)
            return result

        return counted

    def reset_counts(self) -> None:
        self.counts.clear()
        self._tables_seen.clear()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from polyspin import cli, dynamics, estimator, graph, oracle, polymer, spin_model

        counts = self.counts

        def add(key, amount=1):
            counts[key] += amount

        def on_bicliques(args, kwargs, result):
            counts["spin_model.bicliques"] = max(counts["spin_model.bicliques"], len(result))

        def on_table(args, kwargs, result):
            if id(result) not in self._tables_seen:
                self._tables_seen[id(result)] = result  # held so the id stays unique
                add("dynamics.candidates", len(result))

        def on_covered(args, kwargs, result):
            add("dynamics.covered_calls")
            if not result:
                add("dynamics.uncovered")

        def on_exact(args, kwargs, result):
            g, matrix = args[0], args[1]
            add("oracle.configs", matrix.q**g.num_vertices)

        functions = (
            (graph, "load_graph", "graph.load", None),
            (graph, "save_graph", "graph.save", None),
            (graph, "generate_random_regular_bipartite", "graph.gen", None),
            (graph, "second_eigenvalue", "graph.lambda2", None),
            (spin_model, "load_matrix", "spin_model.load_matrix", None),
            (spin_model, "enumerate_maximal_bicliques", "spin_model.bicliques", on_bicliques),
            (dynamics, "candidate_table", "dynamics.table", on_table),
            (estimator, "approximate_Z", "estimator.approximate_Z", None),
            (estimator, "build_mixture", "estimator.mixture", None),
            (estimator, "estimate_polymer_Z", "estimator.polymer_z", None),
            (estimator, "spin_sample_many", "estimator.sample", None),
            (estimator, "spin_fill", "estimator.fill", None),
            (oracle, "exact_Z", "oracle.exact", on_exact),
            (oracle, "exact_log_weights", "oracle.log_weights", None),
            (oracle, "exact_polymer_Z", "oracle.polymer_z", None),
            (cli, "main", "cli.main", None),
        )
        def on_enumerate(args, kwargs, result):
            add("polymer.polymers", len(result))

        def on_run(args, kwargs, result):
            add("dynamics.steps", args[1] if len(args) > 1 else kwargs["steps"])

        methods = (
            (graph.BipartiteRegularGraph, "_build_host", "graph.host", None),
            (polymer.PolymerModel, "__init__", "polymer.model", None),
            (polymer.PolymerModel, "enumerate_allowed", "polymer.enumerate", on_enumerate),
            (polymer.PolymerModel, "weight_log", "polymer.weight_log", None),
            (dynamics.PolymerChain, "__init__", "dynamics.chain_init", None),
            (dynamics.PolymerChain, "run", "dynamics.run", on_run),
        )
        modules = [m for k, m in sys.modules.items() if k == "polyspin" or k.startswith("polyspin.")]
        for module, attr, name, hook in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for cls, attr, name, hook in methods:
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], hook))
        chain = dynamics.PolymerChain
        self._patch(chain, "covered", self.count_only(vars(chain)["covered"], on_covered))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One [index, parent, name, start, end] line per span, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, start, end]) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


_NO_CALLS = (0, 0.0, 0.0)
PROGRAM_LAYERS = ("graph", "spin_model", "polymer", "dynamics", "estimator", "oracle", "cli")


def pass_metrics(summary: dict, counts: dict, pass_wall: float) -> dict:
    """Per-layer metrics of one traced pass (see metrics.PER_LAYER)."""

    def calls(name):
        return summary.get(name, _NO_CALLS)[0]

    def incl(name):
        return summary.get(name, _NO_CALLS)[1]

    def own(name):
        return summary.get(name, _NO_CALLS)[2]

    layer_self = defaultdict(float)
    for name, (_, _, self_s) in summary.items():
        layer_self[layer_of(name)] += self_s
    steps = counts.get("dynamics.steps", 0)
    covered = counts.get("dynamics.covered_calls", 0)
    run_s = incl("dynamics.run")
    exact_s = incl("oracle.exact")
    return {
        "graph.load_s": incl("graph.load"),
        "graph.host_s": incl("graph.host"),
        "graph.gen_s": incl("graph.gen"),
        "graph.lambda2_s": incl("graph.lambda2"),
        "graph.self_s": layer_self["graph"],
        "spin_model.bicliques": counts.get("spin_model.bicliques", 0),
        "spin_model.bicliques_s": incl("spin_model.bicliques"),
        "spin_model.self_s": layer_self["spin_model"],
        "polymer.enumerate_s": incl("polymer.enumerate"),
        "polymer.polymers": counts.get("polymer.polymers", 0),
        "polymer.weight_log_calls": calls("polymer.weight_log"),
        "polymer.weight_log_s": incl("polymer.weight_log"),
        "polymer.self_s": layer_self["polymer"],
        "dynamics.table_s": incl("dynamics.table"),
        "dynamics.candidates": counts.get("dynamics.candidates", 0),
        "dynamics.chains": calls("dynamics.chain_init"),
        "dynamics.chain_init_s": own("dynamics.chain_init"),
        "dynamics.steps": steps,
        "dynamics.run_s": run_s,
        "dynamics.steps_per_s": steps / run_s if run_s > 0 else 0.0,
        "dynamics.covered_calls": covered,
        "dynamics.self_s": layer_self["dynamics"],
        "estimator.polymer_z_calls": calls("estimator.polymer_z"),
        "estimator.polymer_z_self_s": own("estimator.polymer_z"),
        "estimator.uncovered_frac": counts.get("dynamics.uncovered", 0) / covered if covered else 0.0,
        "estimator.mixture_s": incl("estimator.mixture"),
        "estimator.sample_self_s": own("estimator.sample"),
        "estimator.fill_calls": calls("estimator.fill"),
        "estimator.fill_s": incl("estimator.fill"),
        "estimator.self_s": layer_self["estimator"],
        "oracle.exact_s": exact_s,
        "oracle.configs_per_s": counts.get("oracle.configs", 0) / exact_s if exact_s > 0 else 0.0,
        "oracle.self_s": layer_self["oracle"],
        "cli.self_s": layer_self["cli"],
        "trace.attributed_frac": sum(layer_self[k] for k in PROGRAM_LAYERS) / pass_wall,
    }


def reference_seconds(spans) -> float:
    """Inclusive time of the top-level oracle calls in a span list."""
    total = 0.0
    for name, start, end, parent in spans:
        if layer_of(name) == "oracle" and (parent == ROOT or layer_of(spans[parent][0]) != "oracle"):
            total += end - start
    return total
