from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from polyspin import (
    check_expansion_inequalities,
    complete_bipartite,
    even_cycle,
    generate_random_regular_bipartite,
    parse_graph,
    second_eigenvalue,
)
from polyspin.errors import GraphFormatError, InfeasibleError, InvalidRangeError, ResourceLimitError
from polyspin import graph as graph_module
from polyspin.graph import BipartiteRegularGraph, _is_connected, format_graph

from conftest import bfs_distances


# -- generation ------------------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 1 << 64, True, 2.0])
def test_seeded_graph_routines_refuse_bad_seeds(seed):
    # -1 and 2^64 would alias 2^64 - 1 and 0 mod 2^64
    with pytest.raises(InvalidRangeError, match="seed"):
        generate_random_regular_bipartite(4, 3, seed)
    with pytest.raises(InvalidRangeError, match="seed"):
        check_expansion_inequalities(complete_bipartite(3), 0.0, trials=1, seed=seed)


def test_n3_d3_is_forced_to_k33():
    for seed in (0, 1, 17):
        graph = generate_random_regular_bipartite(3, 3, seed=seed)
        expected = complete_bipartite(3)
        assert np.array_equal(graph.edge_array, expected.edge_array)


@pytest.mark.parametrize("n", [9, 12])
def test_degree_n_gives_complete_bipartite(n):
    # K_{n,n} is the only n-regular bipartite graph on n + n vertices; matching
    # draws used to run out of tries on it from n = 9
    for seed in (0, 1):
        graph = generate_random_regular_bipartite(n, n, seed=seed)
        assert np.array_equal(graph.edge_array, complete_bipartite(n).edge_array)


# sha1 of repr(edge_array.tolist()), computed with one permutation(n) call
# and one Python membership test per matching draw
_GRAPH_DIGESTS = {
    (8, 3, 1): "99e2fc13f71530409a3bde20db5eee2f291ff36a",
    (16, 3, 1): "42403afd7fa4df14393427d8d23e45931ce63436",
    (16, 4, 99): "772d94ce70fcc87d34d29d794746b576fb149abf",
    (24, 8, 1): "45ddadc9a03198fd1d0f3f61e5c0fdb9d61f4f4c",
    (32, 4, 1): "bbc26039b740b6c3cd4af0d4fa444c17a51de48c",
    (64, 8, 1): "aaa755583509ba491ac37dcb983775ef5b9af00b",
    (128, 8, 1): "8474556dc9b5c1052e919f8d42cb4f6ed8edf4b2",
    (7, 3, 182): "774a16f381accaa5d848f470dae2b78ae9a86025",  # restarts once
}


def _graph_digest(graph) -> str:
    return hashlib.sha1(repr(graph.edge_array.tolist()).encode()).hexdigest()


@pytest.mark.parametrize("args", list(_GRAPH_DIGESTS))
def test_generated_graphs_pinned(args):
    assert _graph_digest(generate_random_regular_bipartite(*args)) == _GRAPH_DIGESTS[args]


def test_generation_counts_restarts_and_tries_pinned(monkeypatch):
    # (7, 3, 182): the first construction (5 draws) is disconnected, the
    # second takes 10 draws, and the count starts again at each restart
    monkeypatch.setattr(graph_module, "_MAX_RESTARTS", 1)
    with pytest.raises(ResourceLimitError, match="exceeded 1 whole-graph restarts"):
        generate_random_regular_bipartite(7, 3, 182)
    monkeypatch.setattr(graph_module, "_MAX_RESTARTS", 2)
    monkeypatch.setattr(graph_module, "_MAX_MATCHING_TRIES", 9)
    with pytest.raises(ResourceLimitError, match="exceeded 9 matching draws"):
        generate_random_regular_bipartite(7, 3, 182)
    monkeypatch.setattr(graph_module, "_MAX_MATCHING_TRIES", 10)
    assert _graph_digest(generate_random_regular_bipartite(7, 3, 182)) == _GRAPH_DIGESTS[7, 3, 182]
    # (24, 8, 1) takes 2 376 draws in its one construction
    monkeypatch.setattr(graph_module, "_MAX_MATCHING_TRIES", 2375)
    with pytest.raises(ResourceLimitError, match="exceeded 2375 matching draws"):
        generate_random_regular_bipartite(24, 8, 1)
    monkeypatch.setattr(graph_module, "_MAX_MATCHING_TRIES", 2376)
    assert _graph_digest(generate_random_regular_bipartite(24, 8, 1)) == _GRAPH_DIGESTS[24, 8, 1]


def test_dense_degree_falls_back_to_a_complement():
    # random matchings almost never complete n = 12, d = 10; once the draws
    # run out, the graph is the complement of a random 2-regular one
    graph = generate_random_regular_bipartite(12, 10, 1)
    assert graph.degree == 10 and graph.is_regular and graph.num_edges == 120
    assert _is_connected(graph.adjacency)
    again = generate_random_regular_bipartite(12, 10, 1)
    assert np.array_equal(graph.edge_array, again.edge_array)
    other = generate_random_regular_bipartite(12, 10, 2)
    assert not np.array_equal(graph.edge_array, other.edge_array)
    assert _graph_digest(graph) == "e3d7019007a36dcc2d38485ed1680640ee9428a1"


@pytest.mark.parametrize("n", [1, 2, 24, 300])
def test_block_draw_matches_sequential_permutations(n):
    # generation draws k matchings as one Generator.permuted call; it must
    # give the rows and the stream state of k permutation(n) calls
    block, sequential = np.random.default_rng(7), np.random.default_rng(7)
    rows = block.permuted(np.tile(np.arange(n), (9, 1)), axis=1)
    expected = np.array([sequential.permutation(n) for _ in range(9)])
    assert np.array_equal(rows, expected)
    assert block.bit_generator.state == sequential.bit_generator.state


def test_generation_infeasible_below_degree():
    with pytest.raises(InfeasibleError):
        generate_random_regular_bipartite(2, 3, seed=1)


def test_generated_graph_invariants():
    graph = generate_random_regular_bipartite(64, 8, seed=1)
    assert graph.n == 64
    assert graph.degree == 8
    assert graph.num_edges == 64 * 8
    assert graph.is_regular
    assert _is_connected(graph.adjacency)
    seen = set()
    for v, nbrs in enumerate(graph.adjacency):
        assert len(nbrs) == 8
        assert len(set(nbrs)) == 8
        for u in nbrs:
            assert (v < 64) != (u < 64)
            seen.add((min(u, v), max(u, v)))
    assert len(seen) == graph.num_edges


def test_generation_reproducible():
    a = generate_random_regular_bipartite(16, 4, seed=99)
    b = generate_random_regular_bipartite(16, 4, seed=99)
    assert np.array_equal(a.edge_array, b.edge_array)
    c = generate_random_regular_bipartite(16, 4, seed=100)
    assert not np.array_equal(a.edge_array, c.edge_array)


# -- host graph -----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete_bipartite(3),
        lambda: even_cycle(8),
        lambda: even_cycle(16),
        lambda: generate_random_regular_bipartite(8, 3, seed=4),
        lambda: generate_random_regular_bipartite(10, 3, seed=6),
    ],
)
def test_host_adjacency_matches_bfs_radius_3(make):
    graph = make()
    assert graph.num_vertices <= 20
    host = graph.host_adjacency
    for v in range(graph.num_vertices):
        dist = bfs_distances(graph, v)
        expected = tuple(
            sorted(u for u, d in dist.items() if u != v and d <= 3)
        )
        assert host[v] == expected
    for v in range(graph.num_vertices):
        for u in host[v]:
            assert v in host[u]


# -- spectra ---------------------------------------------------------------------


def test_k33_second_eigenvalue_zero(k33):
    # the SVD gives about 1e-17; the roundoff floor reports it as exactly 0
    assert second_eigenvalue(k33).lam == 0.0


def test_c8_second_eigenvalue(c8):
    cert = second_eigenvalue(c8)
    assert cert.lam == pytest.approx(math.sqrt(2.0), abs=1e-9)


# -- boundary / edge counting -------------------------------------------------------


def test_boundary_empty_set(k33):
    assert k33.boundary(()) == frozenset()


def test_boundary_k33_single_left(k33):
    assert k33.boundary({0}) == frozenset({3, 4, 5})


def test_boundary_c8_adjacent_pair(c8):
    # left vertex 0 and right vertex 4 are adjacent; the path boundary is 2
    assert 4 in c8.neighbors(0)
    assert len(c8.boundary({0, 4})) == 2


# -- expansion inequalities ----------------------------------------------------------


def test_k33_mixing_equality(k33):
    # lambda = 0 makes the mixing bound the equality e(S0,S1) = Delta |S0||S1| / n,
    # so no violation means every draw meets it to within the roundoff guard
    assert check_expansion_inequalities(k33, 0.0, trials=200, seed=1) == ()


def test_random_graph_inequalities_hold():
    graph = generate_random_regular_bipartite(16, 4, seed=5)
    cert = second_eigenvalue(graph)
    assert check_expansion_inequalities(graph, cert.lam, trials=100, seed=2) == ()


def test_vertex_expansion_tight_on_k33(k33):
    # |S|=1, rho=1/3, lambda=0: bound is exactly 3 and K33 achieves it
    rho = 1.0 / 3.0
    bound = 1.0 / (rho + 0.0 * (1 - rho))
    assert bound == pytest.approx(3.0)
    assert len(k33.boundary({0})) == 3


def test_underreported_lambda_is_flagged(k33):
    # an impossible lambda must produce reported violations, not exceptions
    graph = generate_random_regular_bipartite(16, 4, seed=5)
    assert check_expansion_inequalities(graph, 0.0, trials=100, seed=3) != ()


# -- construction and formats ---------------------------------------------------------


def test_class_invariants_enforced():
    with pytest.raises(InvalidRangeError):
        BipartiteRegularGraph(2, [(2,), (3,), (0,), (1,)])  # degree 1 < 3
    # same adjacency is fine as an oracle-only graph
    graph = BipartiteRegularGraph(2, [(2,), (3,), (0,), (1,)], oracle_only=True)
    assert not _is_connected(graph.adjacency)


def test_graph_round_trip(k33, c8):
    assert np.array_equal(
        parse_graph(format_graph(k33)).edge_array, k33.edge_array
    )
    again = parse_graph(format_graph(c8), oracle_only=True)
    assert np.array_equal(again.edge_array, c8.edge_array)


def test_graph_parse_errors():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("not a header\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("bipartite-regular n 3 delta 3\n0 1\n")  # 1 < n
    with pytest.raises(GraphFormatError, match="degree"):
        parse_graph(format_graph(complete_bipartite(3)).replace("delta 3", "delta 4"))
    text = format_graph(complete_bipartite(3)) + "0 3\n"
    for oracle_only in (False, True):
        with pytest.raises(GraphFormatError, match="line 11: duplicate edge"):
            parse_graph(text, oracle_only=oracle_only)


def test_graph_parse_checks_edge_count_before_building(monkeypatch):
    # a header declaring a huge n must be refused from the edge count, before
    # any per-vertex structure is allocated
    def no_build(*args, **kwargs):
        raise AssertionError("_from_edges called")

    monkeypatch.setattr(graph_module, "_from_edges", no_build)
    with pytest.raises(GraphFormatError, match="edges"):
        parse_graph("bipartite-regular n 1000000000 delta 3\n0 1000000000\n")
    with pytest.raises(GraphFormatError, match="edges"):
        parse_graph("bipartite-regular n 3 delta 3\n")
    # relaxed files skip the edge count, so the degree is counted instead
    with pytest.raises(GraphFormatError, match="degree 1"):
        parse_graph("bipartite-regular n 1000000000 delta 3\n0 1000000000\n", oracle_only=True)
    # and once the degree matches, the vertices without an edge are counted
    with pytest.raises(GraphFormatError, match="have no edge"):
        parse_graph("bipartite-regular n 1000000000 delta 1\n0 1000000000\n", oracle_only=True)
