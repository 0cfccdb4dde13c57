from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from polyspin import (
    Biclique,
    InteractionMatrix,
    PolymerModel,
    are_compatible,
    enumerate_maximal_bicliques,
)
from polyspin import oracle
from polyspin.errors import ResourceLimitError
from polyspin.logspace import NEG_INF, LogSumAccumulator
from polyspin.oracle import (
    constrained_sum_log,
    encode_configuration,
    exact_log_weights,
    exact_polymer_Z,
    exact_Z,
    ground_state_sum_log,
    iter_compatible_subsets,
)

from conftest import configuration_weight_log


# -- log-space helpers ------------------------------------------------------


def test_log_add_and_sum():
    acc = LogSumAccumulator()
    assert acc.value == NEG_INF
    acc.add(NEG_INF)
    assert acc.value == NEG_INF
    acc.add(1.5)
    assert acc.value == 1.5
    acc = LogSumAccumulator()
    acc.add(math.log(2.0))
    acc.add(math.log(3.0))
    assert acc.value == pytest.approx(math.log(5.0))
    values = np.log(np.arange(1, 50, dtype=float))
    acc = LogSumAccumulator()
    acc.add_array(values)
    assert acc.value == pytest.approx(math.log(np.arange(1, 50).sum()), rel=1e-14)


# -- exact_Z ------------------------------------------------------------------


def test_exact_z_all_ones(k33, all_ones2):
    assert exact_Z(k33, all_ones2) == pytest.approx(6 * math.log(2.0), rel=1e-14)


def test_exact_z_k22_hardcore(k22, hardcore):
    # weight-1 configurations are the independent sets of K22, 7 of them
    assert exact_Z(k22, hardcore) == pytest.approx(math.log(7.0), rel=1e-14)


def test_exact_z_single_edge_ising(edge_graph, ising_third):
    assert exact_Z(edge_graph, ising_third) == pytest.approx(
        math.log(2.0 + 2.0 / 3.0), rel=1e-14
    )


def test_exact_z_nonnegative_whenever_a_one_entry_exists(
    k33, c8, rand43, hardcore, potts3
):
    for graph in (k33, c8, rand43):
        for matrix in (hardcore, potts3):
            assert exact_Z(graph, matrix) >= 0.0


def test_exact_z_budget(k33, potts3, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_CONFIG_BUDGET", 100)
    with pytest.raises(ResourceLimitError):
        exact_Z(k33, potts3)


_CODEC_MATRICES = {
    2: [[1.0, 0.3], [0.3, 0.2]],
    3: [[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 0.1]],
}


def test_configuration_codec(k33):
    # the TV checks count draws at encode_configuration(row, q), so it must
    # be the row's index in itertools.product order, which is also the order
    # of exact_log_weights
    for q, entries in _CODEC_MATRICES.items():
        matrix = InteractionMatrix(entries, 0.5)
        weights = exact_log_weights(k33, matrix)
        rows = list(itertools.product(range(q), repeat=k33.num_vertices))
        assert weights.shape == (len(rows),)
        for index, row in enumerate(rows):
            assert encode_configuration(row, q) == index
            assert encode_configuration(np.array(row), q) == index
            assert weights[index] == pytest.approx(
                configuration_weight_log(k33, matrix, row), rel=1e-12, abs=1e-12
            )


# -- exact polymer partition function -----------------------------------------------


def test_exact_polymer_z_no_polymers(k33, all_ones2):
    model = PolymerModel(k33, all_ones2, Biclique((0, 1), (0, 1)), 0.4)
    assert exact_polymer_Z(model) == 0.0


def test_exact_polymer_z_k33_singletons(k33, hardcore):
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.2)
    assert model.max_size == 1
    w = math.exp(model.weight_log(model.enumerate_allowed()[0]))
    assert w == pytest.approx(1.0 / 8.0)
    assert exact_polymer_Z(model) == pytest.approx(math.log(1 + 3 * w), rel=1e-12)


def test_exact_polymer_z_includes_product_terms(c16, hardcore):
    model = PolymerModel(c16, hardcore, Biclique((0, 1), (1,)), 0.1)
    assert model.max_size == 1
    polys = model.enumerate_allowed()
    assert len(polys) == 8
    w = math.exp(model.weight_log(polys[0]))
    pairs = sum(
        1
        for i in range(8)
        for j in range(i + 1, 8)
        if are_compatible(c16, polys[i], polys[j])
    )
    triples = 16  # 3 pairwise-separated positions on an 8-cycle
    quads = 2
    expected = 1 + 8 * w + pairs * w**2 + triples * w**3 + quads * w**4
    assert exact_polymer_Z(model) == pytest.approx(math.log(expected), rel=1e-12)


def test_polymer_mixture_identity_matches_grounded_sums(k33, rand43, hardcore, potts3):
    # sum over compatible subsets of the grounded restricted sums equals the
    # prefactor-shifted polymer partition function, biclique by biclique
    for graph in (k33, rand43):
        for matrix in (hardcore, potts3):
            for biclique in enumerate_maximal_bicliques(matrix):
                model = PolymerModel(graph, matrix, biclique, 0.4)
                if model.max_size < 1:
                    continue
                polymers = model.enumerate_allowed()
                acc = LogSumAccumulator()
                for indices, _ in iter_compatible_subsets(model, polymers):
                    fixed = {}
                    for i in indices:
                        fixed.update(polymers[i].spin_map())
                    acc.add(ground_state_sum_log(graph, matrix, biclique, fixed))
                prefactor = graph.n * (
                    math.log(len(biclique.b0)) + math.log(len(biclique.b1))
                )
                assert acc.value == pytest.approx(
                    prefactor + exact_polymer_Z(model), abs=1e-10
                )


def test_exact_polymer_budget(k33, potts3, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_POLYMER_BUDGET", 5)
    model = PolymerModel(k33, potts3, Biclique((0,), (0,)), 0.9)
    with pytest.raises(ResourceLimitError):
        exact_polymer_Z(model)


# -- constrained sums ------------------------------------------------------------------


def test_constrained_sum_log_fixed_everything(k33, hardcore):
    sigma = [1, 1, 1, 0, 1, 1]
    value = constrained_sum_log(k33, hardcore, [(s,) for s in sigma])
    assert value == 0.0  # single weight-1 configuration
