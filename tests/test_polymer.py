from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspin import (
    Biclique,
    InteractionMatrix,
    Polymer,
    PolymerModel,
    are_compatible,
    enumerate_maximal_bicliques,
    even_cycle,
    generate_random_regular_bipartite,
)
from polyspin.errors import InvalidRangeError, ResourceLimitError
from polyspin.logspace import NEG_INF
from polyspin.oracle import ground_state_sum_log
from polyspin.polymer import connected_vertex_sets
from polyspin.verify import sampling_condition

from conftest import (
    bfs_distances,
    brute_force_connected_sets,
    brute_force_maximal_bicliques,
    random_delta_matrix,
)


def hardcore_model(graph, hardcore, eps=0.4) -> PolymerModel:
    return PolymerModel(graph, hardcore, Biclique((0, 1), (1,)), eps)


# -- size bound ------------------------------------------------------------------


def test_is_allowed_size_bound(k33, hardcore):
    # n=10 stand-in: eps=0.1 and n=10 gives the cap 2*eps*n = 2
    model = PolymerModel(even_cycle(20), hardcore, Biclique((0, 1), (1,)), 0.1)
    assert model.max_size == 2
    right = list(range(model.graph.n, 2 * model.graph.n))
    allowed = model.enumerate_allowed(3)
    assert Polymer((right[0],), (0,)) in allowed
    # three consecutive right vertices are G^3-connected, yet too large
    triple = Polymer(tuple(right[:3]), (0, 0, 0))
    wider = PolymerModel(model.graph, hardcore, model.biclique, 0.15)
    assert wider.max_size == 3
    assert triple in wider.enumerate_allowed(3)
    assert triple not in allowed


def test_size_bound_inclusive_at_floor(k33, hardcore):
    # 2 * (1/3) * 3 = 2 exactly; a float-fuzzed product must still include it
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 1.0 / 3.0)
    assert model.max_size == 2
    pair = Polymer((3, 4), (0, 0))
    assert pair in model.enumerate_allowed(2)


# -- weights -----------------------------------------------------------------------


def test_weight_c8_single_right_vertex(c8, hardcore):
    model = hardcore_model(c8, hardcore)
    poly = Polymer((4,), (0,))
    assert model.weight_log(poly) == pytest.approx(math.log(0.25), abs=1e-12)


def test_weight_k33_potts_single_left_vertex(k33, potts3):
    model = PolymerModel(k33, potts3, Biclique((0,), (0,)), 0.4)
    poly = Polymer((0,), (1,))
    assert model.weight_log(poly) == pytest.approx(math.log(1.0 / 8.0), abs=1e-12)


def test_weight_zero_internal_edge(c8):
    # non-ground spins 1 and 2 interact with H[1,2] = 0 across an edge
    matrix = InteractionMatrix(
        [[1.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], 0.5
    )
    model = PolymerModel(c8, matrix, Biclique((0,), (0,)), 0.9)
    assert 4 in c8.neighbors(0)
    with_edge = Polymer((0, 4), (1, 2))
    assert with_edge in model.enumerate_allowed(2)
    assert model.weight_log(with_edge) == NEG_INF


def test_zero_boundary_factor_stays_neg_inf(c8):
    # spin 2 is off the ground biclique and H[0,2] = H[1,2] = 0, so the
    # boundary factor of any left neighbor of a spin-2 vertex vanishes
    matrix = InteractionMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0.5)
    model = PolymerModel(c8, matrix, Biclique((0, 1), (0, 1)), 0.4)
    poly = Polymer((4,), (2,))
    assert model.weight_log(poly) == NEG_INF
    assert model.weight_log(poly) == NEG_INF
    assert model.boundary_entry(0, (2,))[0] == 0.0


def test_boundary_memo_is_per_model(c8):
    # three bicliques on one graph share boundary keys (side, spins) whose
    # F_u differ, e.g. side 0 with spin 1: H[0,1] = 0.5 vs H[1,1] = 0.3;
    # interleaved calls must still give each model the uncached weights
    matrix = InteractionMatrix([[1.0, 0.5, 0.2], [0.5, 0.3, 1.0], [0.2, 1.0, 0.4]], 0.6)
    bicliques = enumerate_maximal_bicliques(matrix)
    assert bicliques == [Biclique((0,), (0,)), Biclique((1,), (2,)), Biclique((2,), (1,))]
    models = [PolymerModel(c8, matrix, b, 0.4) for b in bicliques]
    polymers = [model.enumerate_allowed(2) for model in models]
    assert [len(p) for p in polymers] == [112, 112, 112]
    weights = [[], [], []]
    for k in range(112):
        for model, polys, out in zip(models, polymers, weights):
            out.append(float(model.weight_log(polys[k])).hex())
    digests = [hashlib.sha1(repr(out).encode()).hexdigest() for out in weights]
    assert digests == [
        "5d79464263042a24306b77977ff681d81a15368e",
        "f0a25880b6801ba62ff475968ca850abeaea085e",
        "9c095de73c9c6a332b776dee05f86646fc413ddf",
    ]


def _reference_boundary_entry(model, memo, side, adjacent):
    # the uncached F_u computation of boundary_entry, with a memo of its own
    key = (side, adjacent)
    entry = memo.get(key)
    if entry is None:
        h = model.matrix.entries
        rows = list(model.biclique.side(side))
        weights = np.prod(h[np.ix_(rows, list(adjacent))], axis=1)
        f_u = float(weights.sum())
        cumulative = tuple(itertools.accumulate(weights.tolist()))
        entry = (f_u, math.log(f_u) if f_u > 0.0 else NEG_INF, cumulative)
        memo[key] = entry
    return entry


def _reference_weight_log(model, poly, memo) -> float:
    # weight_log as first written: numpy scalars, per-call constants and one
    # boundary lookup per boundary vertex, in the contract's addition order
    graph = model.graph
    n = graph.n
    logh = model.matrix.log_entries
    spin = dict(zip(poly.vertices, poly.spins))
    acc = 0.0
    boundary: dict[int, list[int]] = {}
    for v, sv in spin.items():
        for u in graph.adjacency[v]:
            su = spin.get(u)
            if su is None:
                boundary.setdefault(u, []).append(sv)
            elif u < v:
                term = float(logh[su, sv])
                if term == NEG_INF:
                    return NEG_INF
                acc += term
    for u, adjacent_spins in boundary.items():
        ln_f_u = _reference_boundary_entry(model, memo, 0 if u < n else 1, tuple(adjacent_spins))[1]
        if ln_f_u == NEG_INF:
            return NEG_INF
        acc += ln_f_u
    count0 = sum(v < n for v in spin) + sum(u < n for u in boundary)
    acc -= count0 * math.log(len(model.biclique.b0))
    acc -= (len(spin) + len(boundary) - count0) * math.log(len(model.biclique.b1))
    return acc


def test_weight_log_matches_reference_bitwise(k33, k22, c8, edge_graph, rand43, hardcore, potts3):
    # both weight routes, weight_log and weight_logs, whose size classes up
    # to cap 3 all take the batch route; float.hex equality also tells -0.0
    # from 0.0; the zero-entry matrices give -inf internal edges (H[1,2] = 0)
    # and vanishing F_u (spin 2)
    rng = np.random.default_rng(29)
    matrices = [hardcore, potts3, *(random_delta_matrix(rng, q) for q in (2, 3, 4))]
    matrices.append(InteractionMatrix([[1.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], 0.5))
    matrices.append(InteractionMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0.5))
    cases = [(g, m) for g in (k33, k22, c8, edge_graph, rand43) for m in matrices]
    # q = 4 on g12 alone would be 108 612 polymers, 2 s; boundaries of degree 8
    # are pinned by test_benchmark_tables_pinned
    g12 = generate_random_regular_bipartite(12, 4, 1)
    cases += [(g12, m) for m in matrices if m.q < 4]
    checked = neg_inf = 0
    for graph, matrix in cases:
        for biclique in enumerate_maximal_bicliques(matrix):
            model = PolymerModel(graph, matrix, biclique, 0.9)
            # cap 3's list holds caps 1 and 2's, so one pass covers all three
            polymers = model.enumerate_allowed(3)
            memo = {}
            expected = [_reference_weight_log(model, poly, memo).hex() for poly in polymers]
            assert [model.weight_log(poly).hex() for poly in polymers] == expected, biclique
            # a model of its own, so that the batch route fills its F_u memo
            batch = PolymerModel(graph, matrix, biclique, 0.9)
            weights = batch.weight_logs(polymers)
            assert [lw.hex() for lw in weights] == expected, biclique
            assert all(type(lw) is float for lw in weights)
            checked += len(polymers)
            neg_inf += expected.count("-inf")
    assert checked == 141_774 and neg_inf > 0


def test_weight_logs_keeps_input_order_across_routes(c8, potts3):
    # sizes 1-7 on C8 with q = 3: classes up to _batch_size_limit = 6 take
    # the batch route and size 7 goes through weight_log; shuffled, so the
    # classes interleave and each route's rows must land in input order
    biclique = enumerate_maximal_bicliques(potts3)[0]
    model = PolymerModel(c8, potts3, biclique, 0.9)
    assert model._batch_size_limit == 6
    polymers = model.enumerate_allowed(7)
    np.random.default_rng(3).shuffle(polymers)
    assert {len(p.vertices) for p in polymers} == set(range(1, 8))
    expected = [model.weight_log(p).hex() for p in polymers]
    weights = PolymerModel(c8, potts3, biclique, 0.9).weight_logs(polymers)
    assert [lw.hex() for lw in weights] == expected
    assert all(type(lw) is float for lw in weights)


def test_weight_log_is_a_float(k33, potts3):
    # polymers with and without an internal edge both occur at cap 3
    for biclique in enumerate_maximal_bicliques(potts3):
        model = PolymerModel(k33, potts3, biclique, 0.5)
        polymers = model.enumerate_allowed(3)
        assert any(len(set(p.vertices) & set(k33.adjacency[p.vertices[0]])) for p in polymers)
        assert all(type(model.weight_log(p)) is float for p in polymers)


def test_weights_never_exceed_one(k33, c8, rand43, hardcore, potts3):
    for graph in (k33, c8, rand43):
        for matrix in (hardcore, potts3):
            for biclique in enumerate_maximal_bicliques(matrix):
                model = PolymerModel(graph, matrix, biclique, 0.5)
                for poly in model.enumerate_allowed(min(3, model.max_size)):
                    assert model.weight_log(poly) <= 1e-12


# -- compatibility -------------------------------------------------------------------


def test_identical_polymers_incompatible(c16, hardcore):
    poly = Polymer((8,), (0,))
    assert not are_compatible(c16, poly, poly)


def test_compatibility_by_graph_distance(c16, hardcore):
    # right vertices of C16; d_G = 2 * cyclic index distance
    def right_poly(i):
        return Polymer((8 + i,), (0,))

    dist = bfs_distances(c16, 8)
    for j in range(1, 8):
        d = dist[8 + j]
        expected = d > 3
        assert are_compatible(c16, right_poly(0), right_poly(j)) is expected


def test_an_explicit_distance_seven_pair(c16):
    # left vertex 0 and left vertex 3 sit at G-distance 6 >= 4: compatible
    dist = bfs_distances(c16, 0)
    far = [v for v, d in dist.items() if d >= 4]
    assert far
    a = Polymer((0,), (0,))
    b = Polymer((far[0],), (0,))
    assert are_compatible(c16, a, b)


def test_compatibility_symmetric_and_separating(c16, hardcore):
    model = hardcore_model(c16, hardcore, eps=0.2)
    polys = model.enumerate_allowed(2)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(polys), size=(40, 2))
    for i, j in idx:
        a, b = polys[i], polys[j]
        assert are_compatible(c16, a, b) == are_compatible(c16, b, a)
        if are_compatible(c16, a, b):
            closed_a = set(a.vertices) | c16.boundary(a.vertices)
            closed_b = set(b.vertices) | c16.boundary(b.vertices)
            assert not (closed_a & closed_b)


# -- enumeration ----------------------------------------------------------------------


def test_enumerate_k33_hardcore_sizes(k33, hardcore):
    model = hardcore_model(k33, hardcore)
    singles = model.enumerate_allowed(1)
    assert len(singles) == 3
    assert all(p.vertices[0] >= 3 and p.spins == (0,) for p in singles)
    assert len(model.enumerate_allowed(2)) == 6


def test_enumerate_all_ones_empty(k33, all_ones2):
    model = PolymerModel(k33, all_ones2, Biclique((0, 1), (0, 1)), 0.4)
    assert model.enumerate_allowed() == []


def test_enumerate_counts_at_size_one(k33, rand43, potts3, hardcore):
    for graph in (k33, rand43):
        for matrix in (potts3, hardcore):
            for biclique in enumerate_maximal_bicliques(matrix):
                model = PolymerModel(graph, matrix, biclique, 0.4)
                if model.max_size < 1:
                    continue
                singles = model.enumerate_allowed(1)
                expected = sum(
                    matrix.q - len(biclique.side(graph.side(v)))
                    for v in range(graph.num_vertices)
                )
                assert len(singles) == expected


def test_enumerate_no_duplicates(rand43, potts3):
    model = PolymerModel(rand43, potts3, Biclique((0,), (0,)), 0.5)
    polys = model.enumerate_allowed(3)
    assert len(polys) == len(set(polys))


def test_connected_set_enumeration_matches_brute_force(c16, rand43, k33):
    for graph in (k33, rand43, c16):
        adj = {v: graph.host_adjacency[v] for v in range(graph.num_vertices)}
        for cap in (1, 2, 3):
            mine = set()
            for root in adj:
                for s in connected_vertex_sets(adj, root, cap):
                    assert min(s) == root
                    assert s not in mine
                    mine.add(s)
            assert mine == brute_force_connected_sets(adj, cap)


def test_enumeration_budget(k33, potts3):
    model = PolymerModel(k33, potts3, Biclique((0,), (0,)), 0.9)
    with pytest.raises(ResourceLimitError):
        model.enumerate_allowed(3, budget=10)


# -- weight identity -------------------------------------------------------------------


def test_weight_identity_on_random_instances(k33, c8, hardcore, potts3):
    rng = np.random.default_rng(17)
    graphs = [k33, c8, even_cycle(12)]
    for trial in range(12):
        graph = graphs[trial % 3]
        matrix = (hardcore, potts3)[trial % 2]
        bicliques = enumerate_maximal_bicliques(matrix)
        biclique = bicliques[int(rng.integers(len(bicliques)))]
        model = PolymerModel(graph, matrix, biclique, float(rng.uniform(0.3, 0.9)))
        if model.max_size < 1 or not model.active_vertices:
            continue
        polys = model.enumerate_allowed(min(model.max_size, 2))
        chosen = []
        for idx in rng.permutation(len(polys)):
            cand = polys[idx]
            if all(are_compatible(graph, cand, p) for p in chosen):
                chosen.append(cand)
            if len(chosen) == 2:
                break
        lhs = graph.n * (
            math.log(len(biclique.b0)) + math.log(len(biclique.b1))
        ) + sum(model.weight_log(p) for p in chosen)
        fixed = {}
        for poly in chosen:
            fixed.update(poly.spin_map())
        rhs = ground_state_sum_log(graph, matrix, biclique, fixed)
        if lhs == NEG_INF or rhs == NEG_INF:
            assert lhs == rhs
        else:
            assert lhs == pytest.approx(rhs, abs=1e-10)


# -- sampling condition -----------------------------------------------------------------


def test_boundary_factor_bound_unconditional(k33, c8, rand43, hardcore, potts3):
    for graph in (k33, c8, rand43):
        for matrix in (hardcore, potts3):
            for biclique in enumerate_maximal_bicliques(matrix):
                model = PolymerModel(graph, matrix, biclique, 0.5)
                assert sampling_condition(model, 3)[1] == 0


def test_sampling_condition_vacuous_at_cap_zero(k33, hardcore):
    model = hardcore_model(k33, hardcore)
    assert sampling_condition(model, 0) == (0, 0, 0)


def test_model_rejects_non_maximal_biclique(k33, hardcore):
    with pytest.raises(InvalidRangeError):
        PolymerModel(k33, hardcore, Biclique((1,), (1,)), 0.4)


def test_model_rejects_non_biclique(k33, hardcore):
    with pytest.raises(InvalidRangeError):
        PolymerModel(k33, hardcore, Biclique((0,), (0,)), 0.4)


def test_model_rejects_out_of_range_spins(k33, hardcore):
    for biclique in (Biclique((0, 1), (2,)), Biclique((-1,), (1,))):
        with pytest.raises(InvalidRangeError):
            PolymerModel(k33, hardcore, biclique, 0.4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4))
def test_model_admits_exactly_the_maximal_bicliques(k33, seed, q):
    rng = np.random.default_rng(seed)
    raw = rng.choice([0.0, 0.3, 1.0], size=(q, q))
    raw = np.maximum(raw, raw.T)
    i, j = rng.integers(0, q, size=2)
    raw[i, j] = raw[j, i] = 1.0
    matrix = InteractionMatrix(raw, 0.5)
    maximal = brute_force_maximal_bicliques(matrix)
    subsets = [
        combo for size in range(1, q + 1) for combo in itertools.combinations(range(q), size)
    ]
    for b0 in subsets:
        for b1 in subsets:
            biclique = Biclique(b0, b1)
            if biclique in maximal:
                assert PolymerModel(k33, matrix, biclique, 0.4).biclique == biclique
            else:
                with pytest.raises(InvalidRangeError):
                    PolymerModel(k33, matrix, biclique, 0.4)


def test_random_matrices_keep_boundary_bound(rand43):
    rng = np.random.default_rng(23)
    for q in (2, 3):
        for _ in range(6):
            matrix = random_delta_matrix(rng, q)
            for biclique in enumerate_maximal_bicliques(matrix):
                model = PolymerModel(rand43, matrix, biclique, 0.5)
                assert sampling_condition(model, 2)[1] == 0
