from __future__ import annotations

import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

from polyspin import (
    Biclique,
    PolymerChain,
    BipartiteRegularGraph,
    PremiseReport,
    EstimatorConfig,
    InteractionMatrix,
    PolymerModel,
    approximate_Z,
    are_compatible,
    build_mixture,
    complete_bipartite,
    enumerate_maximal_bicliques,
    estimate_polymer_Z,
    even_cycle,
    generate_random_regular_bipartite,
    proof_epsilon,
    spin_fill,
    spin_sample_many,
)
from polyspin import dynamics, estimator
from polyspin.estimator import default_mixing_steps
from polyspin.errors import (
    InvalidAccuracyError,
    InvalidRangeError,
    PremisesUnmetError,
    ZeroNormalizerError,
)
from polyspin.oracle import (
    encode_configuration,
    exact_log_weights,
    exact_mixture_Z,
    exact_polymer_Z,
    exact_Z,
)
from polyspin.polymer import Polymer

from conftest import configuration_weight_log


# -- estimate_polymer_Z -----------------------------------------------------------


def test_estimate_no_polymers_is_exact_zero(k33, all_ones2):
    model = PolymerModel(k33, all_ones2, Biclique((0, 1), (0, 1)), 0.4)
    # no ratio has a vertex a polymer can cover, so no chain step is taken
    assert estimate_polymer_Z(model, EstimatorConfig(size_cap=1), 0.2, seed=5) == (0.0, 0, 0.0)


def test_estimate_matches_oracle_on_k33(k33, hardcore):
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    exact = exact_polymer_Z(model)
    hits = 0
    for seed in range(10):
        est, _, _ = estimate_polymer_Z(
            model, EstimatorConfig(size_cap=model.max_size), 0.05, seed=seed
        )
        hits += abs(est - exact) <= 0.05
    assert hits >= 9


def test_estimate_rejects_bad_accuracy(k33, hardcore):
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    with pytest.raises(InvalidAccuracyError):
        estimate_polymer_Z(model, EstimatorConfig(size_cap=1), 0.0, seed=1)
    with pytest.raises(InvalidAccuracyError):
        estimate_polymer_Z(model, EstimatorConfig(size_cap=1), 1.0, seed=1)
    # m = ceil(8n / eps^2) is not finite: eps^2 underflows to 0 at 1e-200
    # (a ZeroDivisionError before), and m overflows at 1e-160 (OverflowError)
    config = EstimatorConfig(size_cap=1, brute_force_budget=0, eps_override=0.4)
    for eps_star in (1e-200, 1e-160):
        with pytest.raises(InvalidAccuracyError, match="is not finite"):
            estimate_polymer_Z(model, config, eps_star, seed=1)
        with pytest.raises(InvalidAccuracyError, match="is not finite"):
            approximate_Z(k33, hardcore, eps_star, 1, config=config)


def test_median_amplification_runs(k33, hardcore):
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    est, _, _ = estimate_polymer_Z(
        model, EstimatorConfig(size_cap=2), 0.2, seed=3, median_runs=3
    )
    assert abs(est - exact_polymer_Z(model)) <= 0.2


def test_estimate_rejects_unknown_mode(k33, hardcore):
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    with pytest.raises(InvalidRangeError):
        estimate_polymer_Z(model, EstimatorConfig(size_cap=1), 0.2, seed=1, mode="bogus")


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_entry_points_refuse_bad_seeds_on_the_exact_path(k33, hardcore, seed):
    # K33 takes the exact path, which draws nothing, and still refuses the seed
    with pytest.raises(InvalidRangeError, match="seed"):
        approximate_Z(k33, hardcore, 0.5, seed)
    with pytest.raises(InvalidRangeError, match="seed"):
        spin_sample_many(k33, hardcore, 0.5, seed, 2)


def test_lab_ratio_averages_only_the_fresh_sweeps(k33, hardcore, monkeypatch):
    # replay the two-stage schedule from the chain's own probe sums: per
    # ratio, PILOT_BATCHES pilot batches size m_i, and ln p comes from the
    # m_i fresh sweeps of the next call alone
    calls = []
    real_run = PolymerChain.run

    def recording(self, steps, probe=None):
        out = real_run(self, steps, probe)
        calls.append((len(self.region.active), steps, probe, out))
        return out

    monkeypatch.setattr(PolymerChain, "run", recording)
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    eps_star = 0.05
    ln_z, steps, var = estimate_polymer_Z(
        model, EstimatorConfig(size_cap=model.max_size), eps_star, seed=3
    )
    m = math.ceil(estimator.SAMPLE_FACTOR * 3 / eps_star**2)
    beta = (eps_star / estimator.STDERR_FACTOR) ** 2 / 6
    batches, sweeps = estimator.PILOT_BATCHES, estimator.BATCH_SWEEPS
    want_ln_z = want_var = 0.0
    ratios = 0
    for k in range(0, len(calls), batches + 1):
        active, _, probe, _ = calls[k]
        pilot, fresh = calls[k : k + batches], calls[k + batches]
        assert [c[1:3] for c in pilot] == [(sweeps * active, probe)] * batches
        means = [c[3] / sweeps for c in pilot]
        p0 = sum(means) / batches
        s2 = sum((x - p0) ** 2 for x in means) / (batches - 1)
        samples = min(m, max(estimator.MIN_SAMPLES, math.ceil(sweeps * s2 / (p0 * p0 * beta))))
        assert fresh[1:3] == (samples * active, probe)
        p = fresh[3] / samples
        want_ln_z -= math.log(p)
        want_var += sweeps * s2 / (samples * p * p)
        ratios += 1
    assert ratios == 3  # polymers cover only right vertices, at spin 0 off their ground set {1}
    assert ln_z == pytest.approx(want_ln_z, rel=1e-14)
    assert var == pytest.approx(want_var, rel=1e-12)
    assert steps == sum(c[1] for c in calls)


def _cold_schedule_steps(model, table, config, eps_star):
    """The steps of one run of strict mode's per-ratio schedule: per region
    whose last vertex is active, the cold burn-in and m sweeps."""
    m = math.ceil(estimator.SAMPLE_FACTOR * model.graph.n / eps_star**2)
    steps = 0
    for i in range(1, model.graph.num_vertices + 1):
        active = dynamics._Region(table, i).active
        if active and active[-1] == i - 1:
            steps += default_mixing_steps(config, i, 1e-3) + m * len(active)
    return steps


@pytest.mark.parametrize(
    "graph_name,eps_star,config",
    [
        ("k33", 0.05, EstimatorConfig(brute_force_budget=0, eps_override=0.4)),
        ("rand-n4-d3", 0.05, EstimatorConfig(brute_force_budget=0, eps_override=0.4)),
        ("g12-d4", 0.5, EstimatorConfig(brute_force_budget=0, eps_override=0.1, size_cap=2)),
    ],
)
def test_lab_steps_never_exceed_the_cold_schedule(request, hardcore, graph_name, eps_star, config):
    graph = {
        "k33": lambda: request.getfixturevalue("k33"),
        "rand-n4-d3": lambda: generate_random_regular_bipartite(4, 3, seed=42),
        "g12-d4": lambda: generate_random_regular_bipartite(12, 4, seed=1),
    }[graph_name]()
    records = approximate_Z(graph, hardcore, eps_star, 0, config=config).records
    chained = [r for r in records if r.table]
    assert chained
    for record in chained:
        cold = _cold_schedule_steps(record.model, record.table, config, eps_star)
        assert 0 < record.steps <= cold


def test_ln_stderr_on_each_path(k33, hardcore, all_ones2, monkeypatch):
    assert approximate_Z(k33, hardcore, 0.5, 1).ln_stderr == 0.0  # exact path
    lab = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    assert approximate_Z(k33, all_ones2, 0.5, 1, config=lab).ln_stderr == 0.0  # no polymers
    result = approximate_Z(k33, hardcore, 0.05, 1, config=lab)
    records = result.records
    shares = [math.exp(r.ln_prefactor + r.ln_polymer_z - result.ln_value) for r in records]
    want = math.sqrt(sum(w * w * r.ln_polymer_var for w, r in zip(shares, records)))
    assert all(r.ln_polymer_var > 0.0 for r in records)
    assert result.ln_stderr == pytest.approx(want, rel=1e-12)
    # the telescope's 2n ratios share a variance budget of (eps* / 20)^2
    assert 0.0 < result.ln_stderr <= 0.05 / estimator.STDERR_FACTOR
    assert not any("misses its target" in w for w in result.warnings)
    passing = PremiseReport(True, True, 0.1, 10.0, True)
    monkeypatch.setattr(estimator, "check_premises", lambda *args: passing)
    strict = approximate_Z(k33, hardcore, 0.9, 1, mode="strict", config=lab)
    assert strict.ln_stderr is None
    assert all(math.isnan(r.ln_polymer_var) for r in strict.records)


def test_stderr_warning_names_the_sample_ceiling():
    # antiferromagnetic 3-Potts at cap 3: many ratios would need more than
    # the ceiling m = ceil(8 n / eps*^2) = 256 sweeps to reach eps*/20
    potts_af = InteractionMatrix(np.where(np.eye(3, dtype=bool), 0.2, 1.0), 0.2)
    graph = generate_random_regular_bipartite(8, 3, seed=1)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.2, size_cap=3)
    result = approximate_Z(graph, potts_af, 0.5, 7, config=config)
    assert result.ln_stderr > 0.5 / estimator.STDERR_FACTOR
    assert any(
        "misses its target eps_star/20 = 0.025" in w and "m = ceil(8 n / eps_star^2) = 256" in w
        for w in result.warnings
    )


# -- build_mixture ------------------------------------------------------------------


def test_mixture_all_ones_exact(k33, all_ones2):
    table = build_mixture(
        k33, all_ones2, 0.25, seed=2, config=EstimatorConfig(eps_override=0.4), mode="lab"
    )
    assert len(table.records) == 1
    assert table.ln_value == pytest.approx(6 * math.log(2.0), rel=1e-14)
    assert table.ln_value == pytest.approx(exact_Z(k33, all_ones2), rel=1e-14)


def test_mixture_log_sum_exp_consistency(k33, hardcore):
    table = build_mixture(
        k33, hardcore, 0.1, seed=4, config=EstimatorConfig(eps_override=0.4), mode="lab"
    )
    direct = sum(math.exp(r.ln_prefactor + r.ln_polymer_z) for r in table.records)
    assert math.exp(table.ln_value) == pytest.approx(direct, rel=1e-12)


def test_mixture_hardcore_symmetry(k33, hardcore):
    table = build_mixture(
        k33, hardcore, 0.1, seed=4, config=EstimatorConfig(eps_override=0.4), mode="lab"
    )
    assert len(table.records) == 2
    pref = sorted(r.ln_prefactor for r in table.records)
    assert pref[0] == pytest.approx(pref[1])  # 8*1 and 1*8
    assert pref[0] == pytest.approx(3 * math.log(2.0))


def test_mixture_potts_small_delta_close_to_exact(k33):
    potts = InteractionMatrix(
        [[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]], 0.1
    )
    table = build_mixture(
        k33, potts, 0.1, seed=6, config=EstimatorConfig(eps_override=0.4), mode="lab"
    )
    assert abs(table.ln_value - exact_Z(k33, potts)) <= 0.1


def test_build_mixture_resolves_its_own_eps(k33, hardcore):
    assert build_mixture(k33, hardcore, 0.5, 1).eps == proof_epsilon(hardcore, k33.degree)
    config = EstimatorConfig(eps_override=0.4)
    assert build_mixture(k33, hardcore, 0.5, 1, config=config).eps == 0.4


def test_lab_approximate_z_adds_only_warnings_to_build_mixture(k33, hardcore):
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    full = approximate_Z(k33, hardcore, 0.2, 3, config=config)
    bare = build_mixture(k33, hardcore, 0.2, 3, config=config)
    assert bare.warnings == () and full.warnings

    def fields(result):
        # every record field but the model and its table, which each call
        # builds afresh: the table by its cap and masks
        records = [
            (r.biclique, r.ln_prefactor, r.ln_polymer_z, r.ln_polymer_var, r.table.size_cap,
             r.table.masks, r.steps)
            for r in result.records
        ]
        return result.mode, result.eps, result.config, result.ln_value, result.ln_stderr, records

    assert fields(full) == fields(bare)


# -- approximate_Z ---------------------------------------------------------------------


def test_exact_path_matches_oracle(k33, k22, c8, edge_graph, hardcore, potts3, ising_third):
    # the exact path sums out the right side, so it is checked against the
    # oracle's q^{2n} enumeration to rounding, not bit for bit
    cases = [(k33, hardcore), (k33, potts3), (c8, hardcore)] + [
        (generate_random_regular_bipartite(n, 3, seed=n), hardcore) for n in range(4, 9)
    ]
    # lab graphs, one irregular: a path on four vertices whose right
    # vertices have degrees 1 and 2
    path = BipartiteRegularGraph(2, [[2], [2, 3], [0, 1], [1]], oracle_only=True)
    cases += [(g, m) for g in (k22, edge_graph, path) for m in (potts3, ising_third)]
    for graph, matrix in cases:
        result = approximate_Z(graph, matrix, 0.5, seed=1)
        assert result.mode == "exact"
        assert abs(result.ln_value - exact_Z(graph, matrix)) <= 1e-12


def test_exact_path_budget_counts_left_configurations(k33, hardcore):
    # K33 has q^n = 8 left configurations: the budget edge is 8
    result = approximate_Z(k33, hardcore, 0.3, 0, config=EstimatorConfig(brute_force_budget=8))
    assert result.mode == "exact"
    assert abs(result.ln_value - exact_Z(k33, hardcore)) <= 1e-12
    config = EstimatorConfig(brute_force_budget=7, eps_override=0.4)
    result = approximate_Z(k33, hardcore, 0.3, 0, config=config)
    assert result.mode == "lab"
    assert any("exceeds its budget" in w for w in result.warnings)
    # q^{2n} = 2^28 exceeds the default budget, q^n = 2^14 does not
    graph = generate_random_regular_bipartite(14, 3, 1)
    assert approximate_Z(graph, hardcore, 0.9, 0).mode == "exact"


def test_lab_mode_matches_exact_mixture(k33, hardcore):
    gt = exact_mixture_Z(k33, hardcore, 0.4)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    result = approximate_Z(k33, hardcore, 0.05, seed=3, mode="lab", config=config)
    assert result.mode == "lab"
    assert result.bicliques == 2
    assert result.eps == 0.4
    assert abs(result.ln_value - gt) <= 0.05
    assert any("lab mode" in w for w in result.warnings)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_override": 0.0},
        {"eps_override": 1.0},
        {"mixing_constant": math.inf},
        {"mixing_constant": -math.inf},
        {"size_cap": 0},
        {"size_cap": -3},
        {"mixing_constant": 0.0},
        {"mixing_constant": math.nan},
        # a non-integer cap never equals a set size, so it would cap nothing
        {"size_cap": 2.5},
        {"size_cap": True},
        {"size_cap": 2.0},
        # a NaN budget compares false with q^n, so it silently ran lab mode
        {"brute_force_budget": math.nan},
        # a string escaped exact_fallback as a bare TypeError
        {"brute_force_budget": "x"},
        # a bool was taken as budget 1
        {"brute_force_budget": True},
        {"brute_force_budget": 2.0},
        {"mixing_constant": True},
        {"mixing_constant": "x"},
        # a string escaped the range check as a bare TypeError
        {"eps_override": "x"},
        {"eps_override": "0.3"},
        {"eps_override": math.nan},
    ],
)
def test_estimator_config_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidRangeError):
        EstimatorConfig(**kwargs)


@pytest.mark.parametrize("bad", ["0.3", math.nan, None])
def test_closeness_and_accuracy_refuse_non_numbers(k33, hardcore, bad):
    # each used to compare the value with 0.0 and raise a bare TypeError
    with pytest.raises(InvalidRangeError):
        PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), bad)
    for run in (approximate_Z, build_mixture):
        with pytest.raises(InvalidAccuracyError):
            run(k33, hardcore, bad, 1)


def test_exact_path_warning_names_the_cause(k33, hardcore):
    # eps*=0.3 is below the small-instance threshold 9 e^{-3/8} on K33
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    notes = approximate_Z(k33, hardcore, 0.3, 0, config=config).warnings
    assert any("exact path is disabled (brute_force_budget=0)" in w for w in notes)
    assert not any("exceeds its budget" in w for w in notes)
    # q^n = 8 left configurations exceed a budget of 7
    config = EstimatorConfig(brute_force_budget=7, eps_override=0.4)
    notes = approximate_Z(k33, hardcore, 0.3, 0, config=config).warnings
    assert any(
        "exact path exceeds its budget (q^n = 2^3 left configurations > brute_force_budget=7)" in w
        for w in notes
    )
    assert not any("exact path is disabled" in w for w in notes)
    # 4^11000 has more decimal digits than int-to-str allows; at model eps
    # 1e-5 no polymer fits, so only the warning's text is exercised
    potts4 = InteractionMatrix(np.where(np.eye(4, dtype=bool), 1.0, 0.5), 0.5)
    config = EstimatorConfig(brute_force_budget=1, eps_override=1e-5)
    notes = approximate_Z(even_cycle(22000), potts4, 1e-300, 0, config=config).warnings
    assert any("(q^n = 4^11000 left configurations > brute_force_budget=1)" in w for w in notes)


def test_one_sample_per_ratio_is_finite(k33, hardcore, monkeypatch):
    # a Rao-Blackwellised ratio sample is P(uncovered | rest) > 0, so even
    # a single sample per ratio gives a finite estimate
    monkeypatch.setattr(estimator, "SAMPLE_FACTOR", 1e-6)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    assert math.isfinite(approximate_Z(k33, hardcore, 0.05, 0, config=config).ln_value)


def test_lab_rmse_at_the_c3_setting(k33, hardcore):
    # the 0/1 "uncovered" hit gave an RMSE of 0.0077 here at the same steps
    truth = exact_mixture_Z(k33, hardcore, 0.4)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    errors = [
        approximate_Z(k33, hardcore, 0.05, seed, config=config).ln_value - truth
        for seed in range(20)
    ]
    assert math.sqrt(sum(e * e for e in errors) / len(errors)) <= 0.0025


@pytest.mark.parametrize("bad", [2.5, True])
def test_bad_counts_refused_before_any_work(k33, hardcore, monkeypatch, bad):
    def no_stream(*args):
        raise AssertionError("a stream was drawn before the count was checked")

    monkeypatch.setattr(estimator, "random_stream", no_stream)
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    with pytest.raises(InvalidRangeError):
        estimate_polymer_Z(model, EstimatorConfig(size_cap=1), 0.2, seed=1, median_runs=bad)
    with pytest.raises(InvalidRangeError):
        spin_sample_many(k33, hardcore, 0.5, 1, bad)


def test_vacuous_polymer_correction_warns(hardcore):
    # the analysis eps gives floor(2 eps n) = 0 at n=64, so no polymers exist
    graph = generate_random_regular_bipartite(64, 8, seed=1)
    result = approximate_Z(graph, hardcore, 0.1, 0)
    assert result.ln_value == 65 * math.log(2.0)
    assert any("polymer correction is vacuous" in w for w in result.warnings)
    # every biclique's table is empty, and an empty table builds no G^3 zone
    assert [(r.table.size_cap, len(r.table), r.steps) for r in result.records] == [(0, 0, 0)] * 2
    assert graph._host is None


def test_fixed_seed_outputs_unchanged(k33, hardcore):
    # the determinism contract: these values are pinned byte for byte
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    values = [approximate_Z(k33, hardcore, 0.05, s, config=config).ln_value for s in range(3)]
    assert values == [3.330151221851008, 3.3324191759366633, 3.3328833661822586]
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.5, mixing_constant=1.5)
    samples = spin_sample_many(k33, hardcore, 0.05, 7, 3000, config=config)
    assert (
        hashlib.sha1(samples.tobytes()).hexdigest()
        == "f3a005858f2228c5361dd85adf2b27c12295c8ff"
    )
    graph = generate_random_regular_bipartite(16, 4, 1)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.1, size_cap=2)
    assert approximate_Z(graph, hardcore, 0.8, 1, config=config).ln_value == 12.898795705589645


def test_strict_mode_refuses_at_desk_scale(hardcore):
    graph = generate_random_regular_bipartite(64, 8, seed=1)
    with pytest.raises(PremisesUnmetError):
        approximate_Z(graph, hardcore, 0.5, seed=1, mode="strict")


def test_strict_run_branch_pinned(k33, hardcore, monkeypatch):
    # no desk-scale input passes the premises, so stub the check to reach
    # strict mode's schedule (inner eps = eps*/8, median of 29 runs here)
    passing = PremiseReport(True, True, 0.1, 10.0, True)
    monkeypatch.setattr(estimator, "check_premises", lambda *args: passing)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    result = approximate_Z(k33, hardcore, 0.9, 1, mode="strict", config=config)
    assert result.mode == "strict"
    assert result.ln_value == 3.331722349122693


def test_invalid_accuracy(k33, hardcore):
    with pytest.raises(InvalidAccuracyError):
        approximate_Z(k33, hardcore, 0.0, seed=1)


def test_monotone_accuracy(k33, hardcore, monkeypatch):
    monkeypatch.setattr(estimator, "SAMPLE_FACTOR", 1.0)
    gt = exact_mixture_Z(k33, hardcore, 0.4)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    errs = {}
    for eps_star in (0.4, 0.2):
        runs = [
            abs(
                approximate_Z(
                    k33, hardcore, eps_star, seed=s, mode="lab", config=config
                ).ln_value
                - gt
            )
            for s in range(10)
        ]
        errs[eps_star] = float(np.median(runs))
    assert errs[0.2] <= errs[0.4] + 1e-9


# -- spin sampling -----------------------------------------------------------------------


def test_spin_fill_boundary_rule_is_forced(c8, hardcore):
    # a covered right vertex at spin 0 forces spin 1 on its two neighbors
    model = PolymerModel(c8, hardcore, Biclique((0, 1), (1,)), 0.9)
    rng = np.random.default_rng(0)
    poly = Polymer((4,), (0,))
    for _ in range(50):
        sigma = spin_fill(model, (poly,), rng)
        assert sigma[4] == 0
        for u in c8.neighbors(4):
            assert sigma[u] == 1


def test_spin_fill_zero_normalizer_raises(c8):
    matrix = InteractionMatrix(
        [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]], 0.5
    )
    # boundary vertices sit on side 0 with ground {0}; a covered neighbor
    # at spin 2 gives F_u = H[0,2] = 0
    model = PolymerModel(c8, matrix, Biclique((0,), (0,)), 0.9)
    rng = np.random.default_rng(0)
    poly = Polymer((4,), (2,))
    with pytest.raises(ZeroNormalizerError):
        spin_fill(model, (poly,), rng)


@pytest.mark.parametrize("k", [1, 3, 64])
def test_one_value_integers_read_no_stream(k):
    # spin_fill fills a one-spin side without calling integers. That keeps
    # its draws only because integers(0, 1) reads nothing from the stream;
    # if numpy ever reads there, this fails instead of the draws moving
    rng, twin = (dynamics.random_stream(7, dynamics.FILL, 0, 0) for _ in range(2))
    rng.random(3)
    twin.random(3)
    before = repr(rng.bit_generator.state)
    assert rng.integers(0, 1, size=k).tolist() == [0] * k
    assert repr(rng.bit_generator.state) == before
    assert rng.random(4).tolist() == twin.random(4).tolist()


# antiferromagnetic 3-state Potts: its biclique ({0}, {1, 2}) leaves two
# ground spins on the right, so the fill law there is not a point mass (the
# ferromagnetic potts3 has singleton ground sets and a one-point fill law)
_POTTS3_AF = InteractionMatrix([[0.5, 1.0, 1.0], [1.0, 0.5, 1.0], [1.0, 1.0, 0.5]], 0.5)


@pytest.mark.parametrize(
    "graph_name,matrix,biclique,polymers",
    [
        ("k33", None, Biclique((0, 1), (1,)), (Polymer((3,), (0,)),)),
        ("c8", None, Biclique((0, 1), (1,)), (Polymer((4,), (0,)),)),
        ("c8", None, Biclique((0, 1), (1,)), (Polymer((4, 5), (0, 0)),)),
        ("c16", _POTTS3_AF, Biclique((0,), (1, 2)), (Polymer((0,), (1,)), Polymer((4,), (2,)))),
    ],
    ids=["k33-poly0", "c8-poly1", "c8-poly2", "c16-potts3af-poly3"],
)
def test_spin_fill_law_equals_conditioned_gibbs(
    request, hardcore, graph_name, matrix, biclique, polymers
):
    # spin_fill's draws must follow the Gibbs distribution conditioned on
    # agreeing with the polymers and staying grounded everywhere else
    graph = request.getfixturevalue(graph_name)
    matrix = matrix or hardcore
    model = PolymerModel(graph, matrix, biclique, 0.9)
    allowed = model.enumerate_allowed(max(len(p.vertices) for p in polymers))
    assert all(p in allowed for p in polymers)
    assert all(are_compatible(graph, a, b) for a, b in itertools.combinations(polymers, 2))
    spin_map = {}
    for poly in polymers:
        spin_map.update(poly.spin_map())
    allowed = [
        (spin_map[v],) if v in spin_map else biclique.side(graph.side(v))
        for v in range(graph.num_vertices)
    ]
    law = {}
    for combo in itertools.product(*allowed):
        w = math.exp(configuration_weight_log(graph, matrix, np.array(combo)))
        if w > 0.0:
            law[combo] = w
    total = sum(law.values())
    draws = 20_000
    rng = np.random.default_rng(3)
    counts = collections.Counter(
        tuple(int(s) for s in spin_fill(model, polymers, rng)) for _ in range(draws)
    )
    assert set(counts) <= set(law)
    tv = 0.5 * sum(abs(counts[c] / draws - w / total) for c, w in law.items())
    # over K support points the expected empirical TV of N exact draws is
    # at most 0.5 sum sqrt(p (1 - p) / N) <= 0.5 sqrt(K / N) (Cauchy-Schwarz),
    # so the bound sqrt(K / N) leaves a 2x margin: 0.007 at K = 1 (K33, where
    # every draw must be the one configuration) up to 0.11 at K = 256 (C16),
    # where one boundary vertex drawn 1:1 instead of 1:2 moves the law by 1/6
    assert tv <= math.sqrt(len(law) / draws), (len(law), tv)


def test_spin_sample_exact_path_uniform_for_all_ones(k33, all_ones2):
    draws = 4000
    samples = spin_sample_many(k33, all_ones2, 0.3, seed=11, count=draws)
    freq = samples.mean(axis=0)
    # per-vertex spin-1 frequency within 4 sigma of 1/2
    sigma = math.sqrt(0.25 / draws)
    assert np.all(np.abs(freq - 0.5) <= 4 * sigma + 1e-12)


def test_spin_sample_polymer_path_uniform_for_all_ones(k33, all_ones2):
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    draws = 4000
    samples = spin_sample_many(
        k33, all_ones2, 0.3, seed=12, count=draws, config=config
    )
    counts = np.zeros(64)
    for row in samples:
        counts[encode_configuration(row, 2)] += 1
    # chi-square against the uniform law over 64 cells
    expected = draws / 64.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 63 dof: mean 63, sd ~ 11.2; 5 sigma
    assert chi2 <= 63 + 5 * math.sqrt(2 * 63)


def test_spin_sample_exact_path_matches_gibbs_law(k33, hardcore):
    draws = 100_000
    samples = spin_sample_many(k33, hardcore, 0.5, seed=21, count=draws)
    log_w = exact_log_weights(k33, hardcore)
    probs = np.exp(log_w - log_w.max())
    probs /= probs.sum()
    index = samples @ (2 ** np.arange(5, -1, -1))  # encode_configuration, vectorised
    counts = np.bincount(index, minlength=probs.size)
    assert 0.5 * float(np.abs(counts / draws - probs).sum()) <= 0.02


def test_spin_sample_reproducible(k33, hardcore):
    a = spin_sample_many(k33, hardcore, 0.3, seed=5, count=10)
    b = spin_sample_many(k33, hardcore, 0.3, seed=5, count=10)
    assert np.array_equal(a, b)
    single = spin_sample_many(k33, hardcore, 0.3, seed=5, count=1)
    assert np.array_equal(single[0], a[0])


def test_spin_sample_rejects_unknown_mode(k33, hardcore):
    # checked before the exact path, which would otherwise answer anyway
    with pytest.raises(InvalidRangeError):
        spin_sample_many(k33, hardcore, 0.5, 1, 2, mode="bogus")


def test_one_table_per_biclique_per_sampling_call(k33, hardcore, monkeypatch):
    # the sampler draws through the mixture's own models and tables, so a
    # sampling call builds each biclique's model and candidate table once,
    # and every chain it runs, telescope or draw, runs on one of them
    built, tables, chained = [], [], []
    real_init = PolymerModel.__init__
    real_table = dynamics.CandidateTable.__init__
    real_chain = PolymerChain.__init__

    def counting_init(self, graph, matrix, biclique, eps):
        built.append(biclique)
        real_init(self, graph, matrix, biclique, eps)

    def counting_table(self, model, size_cap):
        tables.append(model.biclique)
        real_table(self, model, size_cap)

    def counting_chain(self, table, rng, **kwargs):
        chained.append(table)
        real_chain(self, table, rng, **kwargs)

    monkeypatch.setattr(PolymerModel, "__init__", counting_init)
    monkeypatch.setattr(dynamics.CandidateTable, "__init__", counting_table)
    monkeypatch.setattr(PolymerChain, "__init__", counting_chain)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4)
    result = approximate_Z(k33, hardcore, 0.3, 5, config=config)
    estimator.sample_mixture(result, 0.3, 5, 50)
    bicliques = enumerate_maximal_bicliques(hardcore)
    assert sorted(built) == sorted(tables) == sorted(bicliques)
    assert len(chained) == len(bicliques) + 50
    assert {id(t) for t in chained} == {id(r.table) for r in result.records}


def test_sampler_streams_are_distinct(monkeypatch):
    # every Philox stream one sampling call creates (telescope ratios,
    # per-draw chains, biclique choice and fill) must have its own key; K44
    # 4-Potts has 4 bicliques, so biclique and draw indices overlap
    keys = []

    class Recording(np.random.Philox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            keys.append(tuple(int(k) for k in self.state["state"]["key"]))

    monkeypatch.setattr(np.random, "Philox", Recording)
    potts4 = InteractionMatrix(np.where(np.eye(4, dtype=bool), 1.0, 0.5), 0.5)
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.3, size_cap=1)
    spin_sample_many(complete_bipartite(4), potts4, 0.5, 0, 200, config=config)
    assert len(keys) > 200
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "path, eps_star, count, error",
    [
        # eps*/6 = 0.5 passed the chain's own accuracy check
        ("lab", 3.0, 2, InvalidAccuracyError),
        # numpy's bare ValueError, from np.empty
        ("lab", 0.5, -1, InvalidRangeError),
        # a TypeError, from np.empty
        ("lab", 0.5, True, InvalidRangeError),
        # an AttributeError on the exact path's missing records
        ("exact", 0.5, 2, InvalidRangeError),
    ],
)
def test_sample_mixture_refuses_bad_input_before_any_stream(
    k33, hardcore, monkeypatch, path, eps_star, count, error
):
    config = EstimatorConfig(brute_force_budget=0, eps_override=0.4) if path == "lab" else None
    result = approximate_Z(k33, hardcore, 0.5, 1, config=config)
    assert result.mode == path

    def no_stream(*args):
        raise AssertionError("a stream was drawn before the input was checked")

    monkeypatch.setattr(estimator, "random_stream", no_stream)
    with pytest.raises(error, match="spin_sample_many" if path == "exact" else None):
        estimator.sample_mixture(result, eps_star, 1, count)


def test_spin_sample_zero_count(k33, hardcore):
    samples = spin_sample_many(k33, hardcore, 0.3, seed=5, count=0)
    assert samples.shape == (0, 6)
