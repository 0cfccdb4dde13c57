"""Exact brute-force references for small instances.

Deliberately naive: full enumeration over configuration space, exhaustive
DFS over compatible polymer sets, and explicit transition matrices whose
spectra come from LAPACK's symmetric eigensolver (np.linalg.eigvalsh).
Everything here is the independent side of a dual-route check, so none of
it may share shortcuts with the estimators it verifies. All sums run in
log-space through max-shifted accumulators in a fixed canonical order.

One deliberate exception: exact_chain_analysis reads its transition rows
from the chain's own heat-bath conditional, because the matrix it checks
must be the implemented one. Its reference side, the Gibbs weights, is
computed here from the polymer log-weights alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dynamics import CandidateTable, PolymerChain
from .errors import ResourceLimitError
from .logspace import NEG_INF, LogSumAccumulator
from .polymer import PolymerModel
from .spin_model import Biclique, InteractionMatrix, enumerate_maximal_bicliques

DEFAULT_CONFIG_BUDGET = 1 << 24
DEFAULT_POLYMER_BUDGET = 5000
_Z_TERM_BUDGET = 10_000_000  # compatible subsets exact_polymer_Z may sum
_DISTRIBUTION_TERM_BUDGET = 1_000_000  # compatible subsets exact_polymer_distribution may list
_CHAIN_STATE_BUDGET = 10_000  # reachable states exact_chain_analysis may visit
_BLOCK = 1 << 14


def _assignment_blocks(allowed):
    """Yield (offset, spins) blocks over the product of per-vertex spin lists.

    Canonical mixed-radix order with vertex 0 most significant, matching
    itertools.product over the allowed lists.
    """
    sizes = [len(a) for a in allowed]
    total = math.prod(sizes)
    if total == 0:
        return
    lookup = [np.asarray(a, dtype=np.int64) for a in allowed]
    num = len(allowed)
    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        spins = np.empty((idx.size, num), dtype=np.int64)
        rem = idx.copy()
        for pos in range(num - 1, -1, -1):
            spins[:, pos] = lookup[pos][rem % sizes[pos]]
            rem //= sizes[pos]
        yield start, spins


def _block_log_weights(graph, matrix: InteractionMatrix, spins: np.ndarray) -> np.ndarray:
    edges = graph.edge_array
    if edges.shape[0] == 0:
        return np.zeros(spins.shape[0])
    logh = matrix.log_entries
    return logh[spins[:, edges[:, 0]], spins[:, edges[:, 1]]].sum(axis=1)


def constrained_sum_log(graph, matrix: InteractionMatrix, allowed) -> float:
    """ln sum of w over all configurations drawing spin(v) from allowed[v]."""
    total = math.prod(len(a) for a in allowed)
    if total > DEFAULT_CONFIG_BUDGET:
        raise ResourceLimitError(f"{total} configurations exceed budget {DEFAULT_CONFIG_BUDGET}")
    acc = LogSumAccumulator()
    for _, spins in _assignment_blocks(allowed):
        acc.add_array(_block_log_weights(graph, matrix, spins))
    return acc.value


def exact_Z(graph, matrix: InteractionMatrix) -> float:
    """ln Z by exhaustive summation over all q^{2n} configurations."""
    allowed = [tuple(range(matrix.q))] * graph.num_vertices
    return constrained_sum_log(graph, matrix, allowed)


def exact_log_weights(graph, matrix: InteractionMatrix) -> np.ndarray:
    """Log-weight of every configuration, indexed in canonical order.

    Index -> configuration via mixed radix base q, vertex 0 most
    significant. Materializes q^{2n} doubles; meant for tiny instances.
    """
    q = matrix.q
    total = q**graph.num_vertices
    if total > DEFAULT_CONFIG_BUDGET:
        raise ResourceLimitError(f"{total} configurations exceed budget {DEFAULT_CONFIG_BUDGET}")
    out = np.empty(total)
    allowed = [tuple(range(q))] * graph.num_vertices
    for start, spins in _assignment_blocks(allowed):
        out[start : start + spins.shape[0]] = _block_log_weights(graph, matrix, spins)
    return out


def encode_configuration(sigma, q: int) -> int:
    out = 0
    for s in sigma:
        out = out * q + int(s)
    return out


def ground_state_sum_log(
    graph, matrix: InteractionMatrix, biclique: Biclique, fixed: dict[int, int]
) -> float:
    """ln sum of w over configurations agreeing with `fixed` and mapping
    every other side-i vertex into biclique side i.

    With `fixed` the combined assignment of a polymer configuration this is
    the right-hand side of the weight identity.
    """
    allowed = []
    for v in range(graph.num_vertices):
        if v in fixed:
            allowed.append((fixed[v],))
        else:
            allowed.append(biclique.side(graph.side(v)))
    return constrained_sum_log(graph, matrix, allowed)


# -- exact polymer partition function ----------------------------------------


def _polymer_masks(model: PolymerModel, polymers):
    host = model.graph.host_adjacency
    masks = []
    blocks = []
    for poly in polymers:
        mask = 0
        block = 0
        for v in poly.vertices:
            mask |= 1 << v
            block |= 1 << v
            for u in host[v]:
                block |= 1 << u
        masks.append(mask)
        blocks.append(block)
    return masks, blocks


def iter_compatible_subsets(model: PolymerModel, polymers, *, term_budget=_Z_TERM_BUDGET):
    """Depth-first enumeration of all mutually compatible subsets.

    Yields (indices tuple, total log-weight) in canonical DFS order,
    starting with the empty set (log-weight 0).
    """
    masks, blocks = _polymer_masks(model, polymers)
    log_w = [model.weight_log(p) for p in polymers]
    count = 0

    def rec(start: int, blocked: int, indices: tuple[int, ...], acc: float):
        nonlocal count
        count += 1
        if count > term_budget:
            raise ResourceLimitError(f"compatible-subset count exceeds {term_budget}")
        yield indices, acc
        for i in range(start, len(polymers)):
            if log_w[i] == NEG_INF or masks[i] & blocked:
                continue
            yield from rec(i + 1, blocked | blocks[i], indices + (i,), acc + log_w[i])

    yield from rec(0, 0, (), 0.0)


def exact_polymer_Z(model: PolymerModel) -> float:
    """ln of the polymer partition function over every allowed polymer, by
    exhaustive subset summation.

    The empty configuration contributes weight 1.
    """
    polymers = model.enumerate_allowed(budget=DEFAULT_POLYMER_BUDGET)
    acc = LogSumAccumulator()
    for _, lw in iter_compatible_subsets(model, polymers, term_budget=_Z_TERM_BUDGET):
        acc.add(lw)
    return acc.value


def exact_mixture_Z(graph, matrix: InteractionMatrix, eps: float) -> float:
    """ln of the sum over maximal bicliques of |B_0|^n |B_1|^n times the
    exact polymer Z at closeness eps: the quantity the estimator targets."""
    acc = LogSumAccumulator()
    for biclique in enumerate_maximal_bicliques(matrix):
        model = PolymerModel(graph, matrix, biclique, eps)
        acc.add(
            graph.n * (math.log(len(biclique.b0)) + math.log(len(biclique.b1)))
            + exact_polymer_Z(model)
        )
    return acc.value


def exact_polymer_distribution(model: PolymerModel, size_cap: int | None = None):
    """All compatible configurations with their exact Gibbs probabilities.

    Returns (configs, probs): configs[k] is a tuple of Polymer objects.
    """
    polymers = model.enumerate_allowed(size_cap, budget=DEFAULT_POLYMER_BUDGET)
    configs = []
    logs = []
    for indices, lw in iter_compatible_subsets(
        model, polymers, term_budget=_DISTRIBUTION_TERM_BUDGET
    ):
        configs.append(tuple(polymers[i] for i in indices))
        logs.append(lw)
    logs_arr = np.array(logs)
    shift = logs_arr.max()
    probs = np.exp(logs_arr - shift)
    probs /= probs.sum()
    return configs, probs


# -- exact chain analysis ------------------------------------------------------


@dataclass(frozen=True)
class ChainAnalysis:
    """Exact transition-matrix analysis of the heat-bath chain."""

    num_states: int
    transition: np.ndarray
    stationary: np.ndarray
    detailed_balance_violation: float
    stationarity_violation: float
    spectral_gap: float
    states: tuple


def exact_chain_analysis(table: CandidateTable) -> ChainAnalysis:
    """Build the full transition matrix of the implemented chain step on a
    candidate table, over the whole graph.

    Each row comes from the chain's own heat-bath conditional, so the
    matrix is the sampler's; its stationary behaviour is compared against
    the truncated polymer Gibbs distribution, whose log-weights and
    polymers are read from the same table.
    """
    probe = PolymerChain(table, None)  # probed, never run
    active = probe.active_vertices

    # reachable states, BFS from the empty configuration
    empty: frozenset[int] = frozenset()
    index = {empty: 0}
    order = [empty]
    queue = deque([empty])
    transitions: list[dict[int, float]] = []

    def outcomes(state: frozenset[int], v: int):
        kept, options, total = probe.conditional(sorted(state), v)
        kept = frozenset(kept)
        yield kept, 1.0 / total
        for _, w, i in options:
            yield kept | {i}, w / total

    while queue:
        state = queue.popleft()
        row: dict[int, float] = {}
        if active:
            pick = 1.0 / len(active)
            for v in active:
                for nxt, p in outcomes(state, v):
                    if nxt not in index:
                        if len(index) >= _CHAIN_STATE_BUDGET:
                            raise ResourceLimitError(
                                f"reachable states exceed budget {_CHAIN_STATE_BUDGET}"
                            )
                        index[nxt] = len(order)
                        order.append(nxt)
                        queue.append(nxt)
                    row[index[nxt]] = row.get(index[nxt], 0.0) + pick * p
        else:
            row[index[state]] = 1.0
        transitions.append(row)

    num = len(order)
    p_mat = np.zeros((num, num))
    for i, row in enumerate(transitions):
        for j, p in row.items():
            p_mat[i, j] = p

    log_pi = np.array(
        [sum(table.log_weights[i] for i in state) for state in order]
    )
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()

    db = float(np.abs(pi[:, None] * p_mat - (pi[:, None] * p_mat).T).max())
    stat = float(np.abs(pi @ p_mat - pi).max())

    gap = 1.0
    if num > 1:
        scale = np.sqrt(pi)
        sym = (scale[:, None] / scale[None, :]) * p_mat
        sym = 0.5 * (sym + sym.T)  # symmetric up to the db violation
        gap = float(1.0 - np.linalg.eigvalsh(sym)[-2])

    states = tuple(
        tuple(sorted(table.polymers[i] for i in state)) for state in order
    )
    return ChainAnalysis(
        num_states=num,
        transition=p_mat,
        stationary=pi,
        detailed_balance_violation=db,
        stationarity_violation=stat,
        spectral_gap=gap,
        states=states,
    )
