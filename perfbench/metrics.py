"""Metric registry: every metric the benchmark reports, with its unit, its
better direction and what it is expected to move.

`BENCHMARK.json` registers the same names; `test_perfbench.py` checks that
the two agree. `moves` records, for a per-layer metric, which end-to-end
metric on which workload a change to that layer should show up in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

WORKLOADS = {
    "estimate-mix": "run phase: long chains of a g32 estimate, plus short chains, draws and exact path on small graphs, whose answers are checked exactly",
    "setup-g24d8-cap3": "set-up only: gen, lambda2 and cap-3 candidate tables, where weight_log and table memory dominate",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    moves: str = ""  # end-to-end metric -> workloads, for per-layer metrics


# Reported with --trace 0. Each is a median over repeated passes or set-ups.
END_TO_END = (
    Metric("wall_s", "s", "lower", "median wall time of one untraced pass of the workload's operations"),
    Metric("setup_s", "s", "lower", "median time of the set-up phase: load graph/matrix, bicliques, one PolymerModel and candidate table per biclique (plus gen and lambda2 on setup-g24d8-cap3)"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the benchmark process"),
)

_SETUP = "setup_s, all workloads"
_SETUP_CAP3 = "setup_s on setup-g24d8-cap3"

# Reported with --trace 1, per traced pass (mean over the traced passes).
# "_s" is inclusive span time unless the name says "self".
PER_LAYER = (
    Metric("graph.load_s", "s", "lower", "load_graph", _SETUP),
    Metric("graph.host_s", "s", "lower", "first build of the G^3 host adjacency", _SETUP),
    Metric("graph.gen_s", "s", "lower", "generate_random_regular_bipartite", _SETUP_CAP3),
    Metric("graph.lambda2_s", "s", "lower", "second_eigenvalue (lambda2 certificate)", _SETUP_CAP3),
    Metric("graph.self_s", "s", "lower", "self time of all graph spans", _SETUP),
    Metric("spin_model.bicliques", "count", "higher", "maximal bicliques found per enumeration", _SETUP),
    Metric("spin_model.bicliques_s", "s", "lower", "enumerate_maximal_bicliques", _SETUP),
    Metric("spin_model.self_s", "s", "lower", "self time of all spin_model spans", _SETUP),
    Metric("polymer.enumerate_s", "s", "lower", "PolymerModel.enumerate_allowed", _SETUP_CAP3),
    Metric("polymer.polymers", "count", "higher", "polymers returned by enumerate_allowed", _SETUP_CAP3),
    Metric("polymer.weight_log_calls", "count", "lower", "PolymerModel.weight_log calls", _SETUP_CAP3),
    Metric("polymer.weight_log_s", "s", "lower", "PolymerModel.weight_log", _SETUP_CAP3),
    Metric("polymer.self_s", "s", "lower", "self time of all polymer spans", _SETUP_CAP3),
    Metric("dynamics.table_s", "s", "lower", "candidate_table, including its enumeration and weights", _SETUP_CAP3 + "; peak_rss_mb there"),
    Metric("dynamics.candidates", "count", "higher", "candidates in the tables built, summed over bicliques", _SETUP_CAP3 + "; peak_rss_mb there"),
    Metric("dynamics.chains", "count", "lower", "PolymerChain constructions", "wall_s on estimate-mix"),
    Metric("dynamics.chain_init_s", "s", "lower", "PolymerChain.__init__ self time (table build excluded)", "wall_s on estimate-mix"),
    Metric("dynamics.steps", "count", "lower", "chain steps requested through PolymerChain.run", "wall_s on estimate-mix"),
    Metric("dynamics.run_s", "s", "lower", "PolymerChain.run", "wall_s on estimate-mix"),
    Metric("dynamics.steps_per_s", "1/s", "higher", "dynamics.steps / dynamics.run_s", "wall_s on estimate-mix"),
    Metric("dynamics.covered_calls", "count", "lower", "PolymerChain.covered probes (counted, no span)", "wall_s on estimate-mix"),
    Metric("dynamics.self_s", "s", "lower", "self time of all dynamics spans", "wall_s on estimate-mix"),
    Metric("estimator.polymer_z_calls", "count", "lower", "estimate_polymer_Z calls", "wall_s on estimate-mix"),
    Metric("estimator.polymer_z_self_s", "s", "lower", "estimate_polymer_Z self time: the telescoping loop", "wall_s on estimate-mix"),
    Metric("estimator.uncovered_frac", "1", "higher", "share of covered() probes that returned False: the useful-sample ratio", "lnz_rmse and wall_s on estimate-mix"),
    Metric("estimator.mixture_s", "s", "lower", "build_mixture", "wall_s on estimate-mix"),
    Metric("estimator.sample_self_s", "s", "lower", "spin_sample_many self time", "wall_s on estimate-mix"),
    Metric("estimator.fill_calls", "count", "lower", "spin_fill calls", "wall_s on estimate-mix"),
    Metric("estimator.fill_s", "s", "lower", "spin_fill", "wall_s on estimate-mix"),
    Metric("estimator.self_s", "s", "lower", "self time of all estimator spans", "wall_s on estimate-mix"),
    Metric("estimator.lnz_rmse", "1", "lower", "estimate-mix: RMS of ln Zhat - ln Z_mix over the 20 c3-setting estimates (0 elsewhere)", "the accuracy guard of every speed-up"),
    Metric("estimator.sample_tv", "1", "lower", "estimate-mix: TV distance of the c4-setting draws to the exact Gibbs law (0 elsewhere)", "the accuracy guard of every speed-up"),
    Metric("oracle.exact_s", "s", "lower", "oracle.exact_Z on the program's exact path", "wall_s on estimate-mix"),
    Metric("oracle.configs_per_s", "1/s", "higher", "configurations summed per second by exact_Z", "wall_s on estimate-mix"),
    Metric("oracle.reference_s", "s", "lower", "the output checks' own oracle calls (per run, outside the pass)", "no end-to-end metric"),
    Metric("oracle.self_s", "s", "lower", "self time of all oracle spans inside the pass", "wall_s on estimate-mix"),
    Metric("cli.self_s", "s", "lower", "cli.main minus child spans: parsing and record output", "wall_s on estimate-mix"),
    Metric("trace.wall_s", "s", "lower", "median traced pass time", "none: tracing only"),
    Metric("trace.overhead_frac", "1", "lower", "trace.wall_s / untraced wall_s - 1", "none: tracing only"),
    Metric("trace.attributed_frac", "1", "higher", "sum of the layer self times / traced pass time", "none: tracing only"),
)
