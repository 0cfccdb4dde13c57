"""The benchmark workloads: inputs from a seed, a set-up phase, a timed
pass and the checks on its outputs.

Every call into the program goes through a module attribute
(`graph.load_graph`, `cli.main`, ...) so that the tracer's wrappers see it.
Sizes come from a scale: FULL is what the benchmark measures, SMOKE is a
seconds-long version for the harness self-test.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys

import numpy as np

from polyspin import cli, dynamics, estimator, graph, oracle, polymer, spin_model
from polyspin.logspace import LogSumAccumulator

HARDCORE = [[0.0, 1.0], [1.0, 1.0]]

FULL = {
    "estimate-mix": {
        "estimate-g32": {"n": 32, "d": 4, "eps": "0.8", "eps_model": 0.1, "cap": 2},
        "small-exact": {
            "slices": 10, "estimates": 2, "draws": 2000, "exact_n": 10, "exact_d": 3,
            "tol": 0.05, "min_hit_frac": 0.9, "tv_max": 0.02,
        },
    },
    "setup-g24d8-cap3": {"n": 24, "d": 8, "eps_model": 0.1, "cap": 3},
}
SMOKE = {
    "estimate-mix": {
        "estimate-g32": {"n": 4, "d": 3, "eps": "0.9", "eps_model": 0.4, "cap": 2},
        # the TV bound must sit well above the sampling noise of the draws
        "small-exact": {
            "slices": 2, "estimates": 2, "draws": 500, "exact_n": 4, "exact_d": 3,
            "tol": 0.05, "min_hit_frac": 0.75, "tv_max": 0.15,
        },
    },
    "setup-g24d8-cap3": {"n": 6, "d": 3, "eps_model": 0.4, "cap": 3},
}
SCALES = {"full": FULL, "smoke": SMOKE}


class Ops:
    """Counts attempted and failed operations; a failure is an exception,
    a non-zero exit code or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and reports it
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, label, argv):
        """cli.main with captured output; returns stdout, or None on failure."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.call(label, cli.main, argv)
        if code is None:
            return None
        if code != 0:
            self.fail(f"{label}: exit code {code}: {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.fail(f"{label}: {detail}")
        return ok

    def fail(self, note):
        self.failed += 1
        self.notes.append(note)
        print(f"perfbench: FAILED {note}", file=sys.stderr)


def kv_record(text):
    line = text.strip().splitlines()[-1]
    return dict(part.split("=", 1) for part in line.split())


def build_tables(graph_path, matrix_path, eps_model, size_cap):
    """The set-up every polymer-path run pays before its first chain step.

    Returns the candidate count per maximal biclique (0 where the model
    admits no polymers, as build_mixture treats it) and the (model, table)
    pairs.
    """
    g = graph.load_graph(graph_path)
    matrix = spin_model.load_matrix(matrix_path)
    config = estimator.EstimatorConfig(eps_override=eps_model, size_cap=size_cap)
    counts, built = [], []
    for biclique in spin_model.enumerate_maximal_bicliques(matrix):
        model = polymer.PolymerModel(g, matrix, biclique, eps_model)
        if model.max_size < 1 or not model.active_vertices:
            counts.append(0)
            continue
        table = dynamics.candidate_table(model, config.chain_params(model).size_cap)
        counts.append(len(table))
        built.append((model, table))
    return counts, built


def save_generated(path, n, d, seed):
    graph.save_graph(graph.generate_random_regular_bipartite(n, d, seed), path)


def save_hardcore(path):
    matrix, _ = spin_model.normalize_matrix(HARDCORE)
    spin_model.save_matrix(matrix, path)


class Workload:
    name = ""
    SETUP_IS_PASS = False

    def __init__(self, params, workdir, seed):
        self.p = params
        self.workdir = workdir
        self.seed = seed
        self.candidates: list[int] = []
        self.record: dict = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        """Write the generated input files."""

    def setup(self, ops):
        """One set-up phase; records the candidates per biclique."""
        p = self.p
        result = ops.call("setup", build_tables, self.path("g.txt"), self.path("h.txt"), p["eps_model"], p["cap"])
        if result is not None:
            self.candidates = result[0]

    def run_pass(self, k, ops):
        """The timed operations of pass k; returns their outputs."""
        raise NotImplementedError

    def check_pass(self, k, out, ops):
        """Output checks of one pass (untimed)."""

    def finish(self, ops):
        """Checks over the whole run (untimed), starting with the
        vacuous-run guard."""
        ops.check(
            "vacuous-run guard",
            any(self.candidates),
            f"every biclique has zero candidates: {self.candidates}",
        )


class EstimateG32(Workload):
    """`polyspin estimate g32 hardcore` through cli.main."""

    name = "estimate-g32"

    def prepare(self):
        p = self.p
        save_generated(self.path("g.txt"), p["n"], p["d"], self.seed)
        save_hardcore(self.path("h.txt"))

    def run_pass(self, k, ops):
        p = self.p
        return ops.cli("estimate", [
            "estimate", self.path("g.txt"), self.path("h.txt"), "-e", p["eps"],
            "--seed", str(self.seed), "--eps-model", str(p["eps_model"]),
            "--size-cap", str(p["cap"]), "--brute-force-budget", "0",
        ])

    def check_pass(self, k, out, ops):
        if out is None:
            return
        rec = kv_record(out)
        first = self.record.setdefault("lnZ", rec.get("lnZ"))
        ops.check("estimate lnZ repeats", rec.get("lnZ") == first, f"{rec.get('lnZ')} != {first}")
        ops.check("estimate mode", rec.get("mode") == "lab", f"mode={rec.get('mode')}")


class SmallExact(Workload):
    """c3-setting lab estimates and c4-setting draws on K33, plus one
    default (exact-path) estimate, each pass taking one slice of them."""

    name = "small-exact"
    C3 = {"eps_star": 0.05, "config": {"brute_force_budget": 0, "eps_override": 0.4}}
    C4 = {"eps_star": 0.05, "config": {"brute_force_budget": 0, "eps_override": 0.5, "mixing_constant": 1.5}}

    def prepare(self):
        p = self.p
        graph.save_graph(graph.complete_bipartite(3), self.path("k33.txt"))
        save_hardcore(self.path("h.txt"))
        save_generated(self.path("g.txt"), p["exact_n"], p["exact_d"], self.seed)
        self.estimates: dict[int, list] = {}
        self.draws: dict[int, np.ndarray] = {}

    def setup(self, ops):
        def run():
            counts = []
            for setting in (self.C3, self.C4):
                eps = setting["config"]["eps_override"]
                counts += build_tables(self.path("k33.txt"), self.path("h.txt"), eps, None)[0]
            graph.load_graph(self.path("g.txt"))
            spin_model.load_matrix(self.path("h.txt"))
            return counts

        counts = ops.call("setup", run)
        if counts is not None:
            self.candidates = counts

    def slice_seeds(self, j):
        per = self.p["estimates"]
        return [self.seed + per * j + i for i in range(per)]

    def run_slice(self, j, ops):
        k33 = graph.load_graph(self.path("k33.txt"))
        hc = spin_model.load_matrix(self.path("h.txt"))
        c3 = estimator.EstimatorConfig(**self.C3["config"])
        c4 = estimator.EstimatorConfig(**self.C4["config"])
        lns = []
        for s in self.slice_seeds(j):
            result = ops.call("c3 estimate", estimator.approximate_Z, k33, hc, self.C3["eps_star"], s, mode="lab", config=c3)
            lns.append(None if result is None else result.ln_value)
        draws = ops.call(
            "c4 draws", estimator.spin_sample_many, k33, hc, self.C4["eps_star"],
            self.seed * self.p["slices"] + j, self.p["draws"], config=c4,
        )
        exact = ops.cli("exact estimate", ["estimate", self.path("g.txt"), self.path("h.txt"), "-e", "0.3", "--seed", str(self.seed)])
        return j, lns, draws, exact

    def run_pass(self, k, ops):
        return self.run_slice(k % self.p["slices"], ops)

    def check_pass(self, k, out, ops):
        j, lns, draws, exact = out
        self.estimates[j] = lns
        if draws is not None:
            self.draws[j] = draws
        if exact is not None:
            rec = kv_record(exact)
            first = self.record.setdefault("exact_lnZ", rec.get("lnZ"))
            ops.check("exact path", rec.get("mode") == "exact" and rec.get("lnZ") == first, f"mode={rec.get('mode')} lnZ={rec.get('lnZ')}")

    def finish(self, ops):
        for j in range(self.p["slices"]):
            if j not in self.estimates:
                self.check_pass(j, self.run_slice(j, ops), ops)
        super().finish(ops)
        k33 = graph.load_graph(self.path("k33.txt"))
        hc = spin_model.load_matrix(self.path("h.txt"))

        acc = LogSumAccumulator()
        for b in spin_model.enumerate_maximal_bicliques(hc):
            model = polymer.PolymerModel(k33, hc, b, self.C3["config"]["eps_override"])
            acc.add(k33.n * (math.log(len(b.b0)) + math.log(len(b.b1))) + oracle.exact_polymer_Z(model))
        lns = [x for j in sorted(self.estimates) for x in self.estimates[j]]
        errs = np.array([x - acc.value for x in lns if x is not None])
        hits = int((np.abs(errs) <= self.p["tol"]).sum())
        need = math.ceil(self.p["min_hit_frac"] * len(lns))
        ops.check("c3 accuracy", hits >= need, f"{hits}/{len(lns)} within {self.p['tol']}")
        self.record["lnz_rmse"] = float(np.sqrt(np.mean(errs**2))) if errs.size else float("nan")

        log_w = oracle.exact_log_weights(k33, hc)
        probs = np.exp(log_w - log_w.max())
        probs /= probs.sum()
        rows = np.concatenate([self.draws[j] for j in sorted(self.draws)]) if self.draws else np.empty((0, 6))
        counts = np.zeros(probs.size)
        for row in rows:
            counts[oracle.encode_configuration(row, hc.q)] += 1
        tv = 0.5 * float(np.abs(counts / max(len(rows), 1) - probs).sum())
        ops.check("c4 sampling", len(rows) == self.p["slices"] * self.p["draws"] and tv <= self.p["tv_max"], f"TV {tv:.4f} over {len(rows)} draws")
        self.record["sample_tv"] = tv


class EstimateMix(Workload):
    """Each pass runs one g32 estimate and one small-exact slice, so that one
    workload holds the whole run phase: long chains on g32, and the short
    chains, draws and exact path whose answers are checked exactly."""

    name = "estimate-mix"

    def __init__(self, params, workdir, seed):
        super().__init__(params, workdir, seed)
        self.parts = []
        for cls in (EstimateG32, SmallExact):
            os.makedirs(os.path.join(workdir, cls.name), exist_ok=True)
            self.parts.append(cls(params[cls.name], os.path.join(workdir, cls.name), seed))

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def setup(self, ops):
        for part in self.parts:
            part.setup(ops)
        self.candidates = [c for part in self.parts for c in part.candidates]

    def run_pass(self, k, ops):
        return [part.run_pass(k, ops) for part in self.parts]

    def check_pass(self, k, out, ops):
        for part, part_out in zip(self.parts, out):
            part.check_pass(k, part_out, ops)

    def finish(self, ops):
        for part in self.parts:
            part.finish(ops)
            self.record.update(part.record)


class SetupCap3(Workload):
    """gen + lambda2, then a PolymerModel and cap-3 candidate table per
    hard-core biclique: the work `estimate --size-cap 3` does before its
    first chain step."""

    name = "setup-g24d8-cap3"
    SETUP_IS_PASS = True

    def prepare(self):
        save_hardcore(self.path("h.txt"))

    def run_pass(self, k, ops):
        p = self.p

        def run():
            g = graph.generate_random_regular_bipartite(p["n"], p["d"], self.seed)
            cert = graph.second_eigenvalue(g)
            graph.save_graph(g, self.path("g.txt"))
            return cert.lam, build_tables(self.path("g.txt"), self.path("h.txt"), p["eps_model"], p["cap"])

        return ops.call("setup", run)

    def check_pass(self, k, out, ops):
        if out is None:
            return
        lam, (counts, built) = out
        self.candidates = counts
        ops.check("lambda2", math.isfinite(lam) and lam >= 0, f"lambda={lam}")
        if k > 0:
            return  # every pass builds the same tables; count them once
        for model, table in built:
            expected = 0
            for poly in model.enumerate_allowed(self.p["cap"]):
                lw = model.weight_log(poly)
                expected += math.isfinite(lw) and math.exp(lw) > 0.0
            ops.check("candidate count", len(table) == expected, f"{len(table)} candidates vs {expected} nonzero-weight polymers")


WORKLOADS = {cls.name: cls for cls in (EstimateMix, SetupCap3)}
