from __future__ import annotations

import numpy as np
import pytest

from polyspin import (
    Biclique,
    BipartiteRegularGraph,
    InteractionMatrix,
    complete_bipartite,
    even_cycle,
    generate_random_regular_bipartite,
    normalize_matrix,
    verify,
)
from polyspin.errors import InvalidRangeError
from polyspin.logspace import NEG_INF
from polyspin.verify import random_delta_matrix  # noqa: F401  (imported by test modules)


@pytest.fixture(scope="session")
def hardcore() -> InteractionMatrix:
    return verify.hardcore()


@pytest.fixture(scope="session")
def potts3() -> InteractionMatrix:
    return verify.potts3()


@pytest.fixture(scope="session")
def all_ones2() -> InteractionMatrix:
    return InteractionMatrix([[1.0, 1.0], [1.0, 1.0]], 0.5)


@pytest.fixture(scope="session")
def ising_third() -> InteractionMatrix:
    matrix, _ = normalize_matrix([[3.0, 1.0], [1.0, 1.0 + 2.0]])
    return matrix


@pytest.fixture(scope="session")
def k33():
    return complete_bipartite(3)


@pytest.fixture(scope="session")
def k22():
    return complete_bipartite(2)


@pytest.fixture(scope="session")
def c8():
    return even_cycle(8)


@pytest.fixture(scope="session")
def c16():
    return even_cycle(16)


@pytest.fixture(scope="session")
def edge_graph():
    return BipartiteRegularGraph(1, [(1,), (0,)], oracle_only=True)


@pytest.fixture(scope="session")
def rand43():
    return generate_random_regular_bipartite(4, 3, seed=42)


@pytest.fixture(scope="session")
def hardcore_right_biclique() -> Biclique:
    return Biclique((0, 1), (1,))


def bfs_distances(graph, source: int) -> dict[int, int]:
    """Plain BFS distance oracle, independent of host-graph construction."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def brute_force_maximal_bicliques(matrix: InteractionMatrix):
    """Literal scan over all 2^q x 2^q nonempty subset pairs (test oracle)."""
    q = matrix.q
    entries = matrix.entries
    spins = list(range(q))

    def subsets():
        for mask in range(1, 1 << q):
            yield tuple(s for s in spins if (mask >> s) & 1)

    pairs = [
        (b0, b1)
        for b0 in subsets()
        for b1 in subsets()
        if all(entries[i, j] == 1.0 for i in b0 for j in b1)
    ]
    maximal = []
    for b0, b1 in pairs:
        s0, s1 = set(b0), set(b1)
        contained = any(
            (set(c0) >= s0 and set(c1) >= s1 and (set(c0), set(c1)) != (s0, s1))
            for c0, c1 in pairs
        )
        if not contained:
            maximal.append(Biclique(b0, b1))
    return sorted(maximal)


def brute_force_connected_sets(adj: dict[int, tuple[int, ...]], size_cap: int):
    """All connected vertex sets of size <= cap by subset filtering (oracle)."""
    vertices = sorted(adj)
    found = set()
    import itertools

    for r in range(1, size_cap + 1):
        for combo in itertools.combinations(vertices, r):
            inside = set(combo)
            stack = [combo[0]]
            seen = {combo[0]}
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u in inside and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == r:
                found.add(combo)
    return found


def configuration_weight_log(graph, matrix: InteractionMatrix, sigma) -> float:
    """ln of the configuration weight: sum over edges of ln H[s_u, s_v]
    (reference). Returns -inf when any edge factor is exactly 0."""
    sig = np.asarray(sigma, dtype=np.int64)
    if sig.shape != (graph.num_vertices,):
        raise InvalidRangeError(
            f"configuration length {sig.shape} != {graph.num_vertices} vertices"
        )
    edges = graph.edge_array
    if edges.shape[0] == 0:
        return 0.0
    terms = matrix.log_entries[sig[edges[:, 0]], sig[edges[:, 1]]]
    if np.any(np.isneginf(terms)):
        return NEG_INF
    return float(terms.sum())
