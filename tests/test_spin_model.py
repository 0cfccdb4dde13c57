from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspin import (
    Biclique,
    InteractionMatrix,
    check_premises,
    complete_bipartite,
    enumerate_maximal_bicliques,
    even_cycle,
    normalize_matrix,
    parse_matrix,
)
from polyspin.errors import (
    AllZeroMatrixError,
    AsymmetricMatrixError,
    ConstantMatrixError,
    InvalidRangeError,
    MatrixFormatError,
)
from polyspin.logspace import NEG_INF
from polyspin.spin_model import format_matrix

from conftest import (
    brute_force_maximal_bicliques,
    configuration_weight_log,
    random_delta_matrix,
)


# -- normalize_matrix ---------------------------------------------------------


def test_normalize_zero_one_matrix_gets_default_delta():
    matrix, log_scale = normalize_matrix([[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(matrix.entries, np.eye(2))
    assert matrix.delta == 0.5
    assert log_scale == pytest.approx(math.log(2.0), abs=0.0)


def test_normalize_ferromagnetic_ising():
    matrix, log_scale = normalize_matrix([[3.0, 1.0], [1.0, 1.0]])
    assert matrix.entries[0, 1] == pytest.approx(1.0 / 3.0)
    assert matrix.delta == pytest.approx(1.0 / 3.0)
    assert log_scale == pytest.approx(math.log(3.0))


def test_normalize_constant_matrix_rejected():
    with pytest.raises(ConstantMatrixError):
        normalize_matrix([[1.0, 1.0], [1.0, 1.0]])


def test_normalize_all_zero_rejected():
    with pytest.raises(AllZeroMatrixError):
        normalize_matrix([[0.0, 0.0], [0.0, 0.0]])


def test_normalize_asymmetric_rejected():
    with pytest.raises(AsymmetricMatrixError):
        normalize_matrix([[1.0, 0.5], [0.4, 1.0]])


def test_normalize_negative_rejected():
    with pytest.raises(InvalidRangeError):
        normalize_matrix([[1.0, -0.5], [-0.5, 1.0]])


def test_non_finite_entries_named_as_such():
    # nan != nan, so a symmetry test alone would call this matrix asymmetric
    with pytest.raises(MatrixFormatError, match="finite"):
        parse_matrix("q 2 delta 0.5\nnan 1.0\n1.0 1.0\n")
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidRangeError, match="finite"):
            normalize_matrix([[bad, 1.0], [1.0, 1.0]])


def test_normalization_reproduces_raw_weight():
    rng = np.random.default_rng(11)
    graphs = [complete_bipartite(3), even_cycle(8), even_cycle(12)]
    for graph in graphs:
        raw = rng.random((3, 3)) + 0.05
        raw = 0.5 * (raw + raw.T)
        raw[1, 1] = 2.5
        matrix, log_scale = normalize_matrix(raw)
        log_raw = np.log(raw)
        for _ in range(20):
            sigma = rng.integers(0, 3, size=graph.num_vertices)
            direct = sum(
                log_raw[sigma[u], sigma[v]] for u, v in graph.edge_array
            )
            scaled = configuration_weight_log(graph, matrix, sigma)
            assert direct == pytest.approx(
                graph.num_edges * log_scale + scaled, abs=1e-12
            )


# -- bicliques ---------------------------------------------------------------


def test_hardcore_maximal_bicliques(hardcore):
    assert enumerate_maximal_bicliques(hardcore) == [
        Biclique((0, 1), (1,)),
        Biclique((1,), (0, 1)),
    ]


def test_potts_maximal_bicliques(potts3):
    assert enumerate_maximal_bicliques(potts3) == [
        Biclique((0,), (0,)),
        Biclique((1,), (1,)),
        Biclique((2,), (2,)),
    ]


def test_all_ones_maximal_biclique(all_ones2):
    assert enumerate_maximal_bicliques(all_ones2) == [Biclique((0, 1), (0, 1))]


def test_maximal_bicliques_match_subset_pair_scan():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        for _ in range(12):
            raw = rng.choice([0.0, 0.3, 1.0], size=(q, q))
            raw = np.maximum(raw, raw.T)
            if raw.max() != 1.0 or raw.min() == raw.max():
                continue
            matrix = InteractionMatrix(raw, 0.5)
            assert enumerate_maximal_bicliques(matrix) == brute_force_maximal_bicliques(
                matrix
            )


def is_biclique(matrix: InteractionMatrix, b0, b1) -> bool:
    """True iff matrix[i, j] == 1 for every i in b0, j in b1."""
    return all(matrix.entries[i, j] == 1.0 for i in b0 for j in b1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4))
def test_maximality_directly_assertable(seed, q):
    rng = np.random.default_rng(seed)
    matrix = random_delta_matrix(rng, q)
    found = enumerate_maximal_bicliques(matrix)
    assert found  # a delta-matrix has a 1 entry, hence a biclique
    for biclique in found:
        s0, s1 = set(biclique.b0), set(biclique.b1)
        for j in range(q):
            if j not in s0:
                assert not is_biclique(matrix, s0 | {j}, s1)
            if j not in s1:
                assert not is_biclique(matrix, s0, s1 | {j})
    for a in found:
        for b in found:
            if a != b:
                assert not (set(b.b0) <= set(a.b0) and set(b.b1) <= set(a.b1))


# -- configuration weights ------------------------------------------------------


def test_weight_all_ground_is_zero(k22, hardcore):
    assert configuration_weight_log(k22, hardcore, [1, 1, 1, 1]) == 0.0


def test_weight_single_excited_left_vertex(k22, hardcore):
    assert configuration_weight_log(k22, hardcore, [0, 1, 1, 1]) == 0.0


def test_weight_adjacent_zeros_is_minus_inf(k22, hardcore):
    assert configuration_weight_log(k22, hardcore, [0, 1, 0, 1]) == NEG_INF


def test_biclique_ground_states_have_weight_one(k33, hardcore, potts3):
    rng = np.random.default_rng(5)
    for matrix in (hardcore, potts3):
        for biclique in enumerate_maximal_bicliques(matrix):
            for _ in range(10):
                sigma = np.empty(k33.num_vertices, dtype=np.int64)
                left = np.asarray(biclique.b0)
                right = np.asarray(biclique.b1)
                sigma[: k33.n] = left[rng.integers(0, left.size, size=k33.n)]
                sigma[k33.n :] = right[rng.integers(0, right.size, size=k33.n)]
                assert configuration_weight_log(k33, matrix, sigma) == 0.0


def test_weight_rejects_wrong_length(k33, hardcore):
    with pytest.raises(InvalidRangeError):
        configuration_weight_log(k33, hardcore, [0, 1])


# -- premise checks ---------------------------------------------------------------


def test_premises_huge_degree_pass(hardcore):
    report = check_premises(hardcore, 10**13, 2.0 * math.sqrt(10**13))
    assert report.degree_gap_ok and report.degree_ok and report.tau_ok


def test_premises_desk_degree_fail(hardcore):
    report = check_premises(hardcore, 100, 20.0)
    assert not report.degree_ok
    assert not report.all_ok


def test_premise_epsilon_formula(hardcore):
    report = check_premises(hardcore, 100, 20.0)
    assert report.epsilon == pytest.approx(0.5 / (100.0 * math.log(200.0)), abs=1e-9)
    assert report.tau == pytest.approx((1 - 0.5) / (4 * report.epsilon * 2), rel=1e-12)


def test_premises_invalid_lambda(hardcore):
    with pytest.raises(InvalidRangeError):
        check_premises(hardcore, 100, 0.0)
    with pytest.raises(InvalidRangeError):
        check_premises(hardcore, 100, 100.0)


def test_premises_monotone_in_degree(hardcore, potts3):
    # at a fixed lambda/degree ratio, growing the degree never flips a
    # passing flag on these grids
    for matrix in (hardcore, potts3):
        for ratio in (1e-2, 1e-3, 1e-5, 1e-7):
            prev = (False, False)
            for exp in range(3, 19):
                degree = 10**exp
                report = check_premises(matrix, degree, ratio * degree)
                flags = (report.degree_gap_ok, report.degree_ok)
                assert not (prev[0] and not flags[0])
                assert not (prev[1] and not flags[1])
                prev = flags


# -- text format ------------------------------------------------------------------


def test_matrix_round_trip(hardcore, potts3, ising_third):
    for matrix in (hardcore, potts3, ising_third):
        again = parse_matrix(format_matrix(matrix))
        assert again.q == matrix.q
        assert again.delta == matrix.delta
        assert np.array_equal(again.entries, matrix.entries)


def test_matrix_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("bogus header\n")
    with pytest.raises(MatrixFormatError, match="line 3"):
        parse_matrix("q 2 delta 0.5\n0.0 1.0\n1.0\n")
    with pytest.raises(MatrixFormatError, match="line 2"):
        parse_matrix("q 2 delta 0.5\n0.0 x\n1.0 1.0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("q 2 delta 0.5\n0.0 0.9\n0.9 1.0\n")  # 0.9 > delta


def test_interaction_matrix_invariants_enforced():
    with pytest.raises(InvalidRangeError):
        InteractionMatrix([[1.0, 0.5], [0.5, 0.9]], 0.5)  # 0.9 exceeds delta
    with pytest.raises(InvalidRangeError):
        InteractionMatrix([[0.5, 0.2], [0.2, 0.5]], 0.5)  # max entry not 1
    with pytest.raises(InvalidRangeError):
        InteractionMatrix([[1.0]], 0.5)  # q < 2
