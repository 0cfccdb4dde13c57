"""Self-check suites behind the `verify` CLI command.

Each suite returns (name, passed, detail) rows. "quick" keeps to a minute;
"full" adds the large sampling runs. Hard invariants here are theorems or
exact identities; a failure means a bug (or a perturbed build, which is
exactly what the suites exist to catch).
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle
from .dynamics import ChainParams, sample_polymer_config
from .estimator import EstimatorConfig, spin_sample_many
from .graph import (
    check_expansion_inequalities,
    complete_bipartite,
    even_cycle,
    generate_random_regular_bipartite,
    second_eigenvalue,
)
from .logspace import NEG_INF
from .polymer import PolymerModel
from .spin_model import (
    InteractionMatrix,
    enumerate_maximal_bicliques,
    normalize_matrix,
)


def _hardcore() -> InteractionMatrix:
    matrix, _ = normalize_matrix([[0.0, 1.0], [1.0, 1.0]])
    return matrix


def _potts3(delta: float = 0.5) -> InteractionMatrix:
    raw = np.full((3, 3), delta)
    np.fill_diagonal(raw, 1.0)
    return InteractionMatrix(raw, delta)


def _random_delta_matrix(rng, q: int) -> InteractionMatrix:
    while True:
        raw = rng.random((q, q))
        raw = np.triu(raw) + np.triu(raw, 1).T
        raw[rng.integers(0, q), rng.integers(0, q)] = 1.5  # force a unique max
        raw = 0.5 * (raw + raw.T)
        if raw.max() > raw.min():
            matrix, _ = normalize_matrix(raw)
            return matrix


def _random_compatible_config(model: PolymerModel, rng, size_cap: int):
    polymers = model.enumerate_allowed(size_cap)
    order = list(rng.permutation(len(polymers)))
    chosen = []
    for idx in order:
        cand = polymers[idx]
        if all(model.are_compatible(cand, p) for p in chosen):
            chosen.append(cand)
        if len(chosen) >= 3:
            break
    return chosen


def weight_identity_suite(instances: int = 15, seed: int = 7):
    """Lemma-of-the-model check: grounded restricted sums match the
    prefactor-times-polymer-weights product, instance by instance."""
    rng = np.random.default_rng(seed)
    rows = []
    graphs = [complete_bipartite(3), even_cycle(8), even_cycle(12)]
    matrices = [_hardcore(), _potts3(0.5), _potts3(0.25)]
    worst = 0.0
    checked = 0
    for k in range(instances):
        graph = graphs[k % len(graphs)]
        matrix = matrices[k % len(matrices)] if k % 2 else _random_delta_matrix(rng, int(rng.integers(2, 4)))
        bicliques = enumerate_maximal_bicliques(matrix)
        biclique = bicliques[int(rng.integers(0, len(bicliques)))]
        eps = float(rng.uniform(0.3, 0.9))
        model = PolymerModel(graph, matrix, biclique, eps)
        if model.max_size < 1 or not model.active_vertices:
            continue
        config = _random_compatible_config(model, rng, min(model.max_size, 3))
        lhs = graph.n * (
            math.log(len(biclique.b0)) + math.log(len(biclique.b1))
        ) + model.config_weight_log(config)
        fixed = {}
        for poly in config:
            fixed.update(poly.spin_map())
        rhs = oracle.ground_state_sum_log(graph, matrix, biclique, fixed)
        checked += 1
        if lhs == NEG_INF and rhs == NEG_INF:
            continue
        worst = max(worst, abs(lhs - rhs))
    rows.append(
        (
            "weight-identity",
            worst <= 1e-10 and checked > 0,
            f"{checked} instances, max |dlog| = {worst:.3e}",
        )
    )
    return rows


def chain_suite():
    rows = []
    graph = complete_bipartite(3)
    matrix = _hardcore()
    biclique = enumerate_maximal_bicliques(matrix)[0]
    model = PolymerModel(graph, matrix, biclique, 0.4)
    for cap in (1, 2):
        analysis = oracle.exact_chain_analysis(model, ChainParams(size_cap=cap))
        rows.append(
            (
                f"chain-detailed-balance-cap{cap}",
                analysis.detailed_balance_violation <= 1e-12,
                f"violation {analysis.detailed_balance_violation:.3e}, "
                f"{analysis.num_states} states",
            )
        )
        rows.append(
            (
                f"chain-stationarity-cap{cap}",
                analysis.stationarity_violation <= 1e-10,
                f"violation {analysis.stationarity_violation:.3e}",
            )
        )
        rows.append(
            (
                f"chain-gap-cap{cap}",
                analysis.spectral_gap is not None and analysis.spectral_gap > 0,
                f"gap {analysis.spectral_gap}",
            )
        )
    return rows


def expansion_suite(trials: int = 300, seed: int = 11):
    rows = []
    cases = [
        ("K33", complete_bipartite(3)),
        ("rand-n16-d4", generate_random_regular_bipartite(16, 4, seed=5)),
    ]
    for name, graph in cases:
        cert = second_eigenvalue(graph)
        report = check_expansion_inequalities(graph, cert.lam, trials, seed)
        rows.append(
            (
                f"expansion-{name}",
                report.ok,
                f"lambda={cert.lam:.6g}, {report.trials} trials, "
                f"{len(report.violations)} violations",
            )
        )
    return rows


def sampling_condition_suite(size_cap: int = 3):
    rows = []
    cases = [
        ("K33-hardcore", complete_bipartite(3), _hardcore(), 0.5),
        ("K33-potts3", complete_bipartite(3), _potts3(0.5), 0.5),
        ("C8-hardcore", even_cycle(8), _hardcore(), 0.5),
    ]
    for name, graph, matrix, eps in cases:
        bad = 0
        checked = 0
        for biclique in enumerate_maximal_bicliques(matrix):
            model = PolymerModel(graph, matrix, biclique, eps)
            cap = min(size_cap, model.max_size)
            if cap < 1:
                continue
            report = model.verify_sampling_condition(cap)
            checked += report.polymers_checked
            bad += len(report.boundary_violations)
            # w <= 1 is unconditional; the tau bound is diagnostic here
            for poly in model.enumerate_allowed(cap):
                if model.weight_log(poly) > 1e-9:
                    bad += 1
        rows.append(
            (
                f"sampling-condition-{name}",
                bad == 0,
                f"{checked} polymers, {bad} violations of F_u/weight bounds",
            )
        )
    return rows


def spectral_suite():
    rows = []
    cases = [
        ("K33", complete_bipartite(3)),
        ("C8", even_cycle(8)),
        ("rand-n8-d3", generate_random_regular_bipartite(8, 3, seed=2)),
        ("rand-n12-d4", generate_random_regular_bipartite(12, 4, seed=3)),
    ]
    worst = 0.0
    for name, graph in cases:
        cert = second_eigenvalue(graph)
        spectrum = oracle.dense_eigenvalues(graph.adjacency_matrix())
        worst = max(worst, abs(cert.lam - float(spectrum[1])))
    rows.append(("spectral-oracle-agreement", worst <= 1e-8, f"max |dlambda| = {worst:.3e}"))
    return rows


def sampling_tv_suite(draws: int = 100_000, seed: int = 23):
    """Large-sample check: spin_sample TV against the exact tiny-instance Gibbs."""
    graph = complete_bipartite(3)
    matrix = _hardcore()
    config = EstimatorConfig(
        brute_force_budget=0, eps_override=0.5, mixing_constant=1.5
    )
    samples = spin_sample_many(graph, matrix, 0.05, seed, draws, config=config)
    log_w = oracle.exact_log_weights(graph, matrix)
    probs = np.exp(log_w - log_w.max())
    probs /= probs.sum()
    counts = np.zeros(len(probs))
    for row in samples:
        counts[oracle.encode_configuration(row, matrix.q)] += 1
    tv = 0.5 * float(np.abs(counts / draws - probs).sum())
    return [("sampling-tv", tv <= 0.02, f"TV = {tv:.4f} over {draws} draws")]


def chain_tv_suite(draws: int = 40_000, seed: int = 29):
    """Empirical chain samples against enumerated truncated Gibbs."""
    graph = complete_bipartite(3)
    matrix = _hardcore()
    biclique = enumerate_maximal_bicliques(matrix)[0]
    model = PolymerModel(graph, matrix, biclique, 0.4)
    params = ChainParams(size_cap=1, mixing_constant=2.0)
    configs, probs = oracle.exact_polymer_distribution(model, 1)
    key = {tuple(c): k for k, c in enumerate(configs)}
    counts = np.zeros(len(configs))
    for r in range(draws):
        config = sample_polymer_config(model, params, 0.02, seed, replica=r)
        counts[key[config.polymers]] += 1
    tv = 0.5 * float(np.abs(counts / draws - probs).sum())
    return [("chain-tv", tv <= 0.02, f"TV = {tv:.4f} over {draws} draws")]


def spectral_statistics_suite(seeds: int = 10):
    """lambda(G) <= 2 sqrt(Delta) for most random graphs at n=64, Delta=8."""
    bound = 2.0 * math.sqrt(8.0)
    hits = 0
    for s in range(seeds):
        graph = generate_random_regular_bipartite(64, 8, seed=1000 + s)
        cert = second_eigenvalue(graph)
        if cert.lam <= bound:
            hits += 1
    return [
        (
            "spectral-2sqrtDelta",
            hits >= math.ceil(0.9 * seeds),
            f"{hits}/{seeds} seeds within 2*sqrt(8) = {bound:.4f}",
        )
    ]


def run_suites(level: str = "quick"):
    rows = []
    rows += weight_identity_suite()
    rows += chain_suite()
    rows += expansion_suite()
    rows += sampling_condition_suite()
    rows += spectral_suite()
    if level == "full":
        rows += expansion_suite(trials=1000, seed=13)
        rows += chain_tv_suite()
        rows += sampling_tv_suite()
        rows += spectral_statistics_suite()
    return rows
