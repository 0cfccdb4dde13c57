"""Top-level approximation and sampling algorithms, and their knobs.

Per maximal biclique, ln Z of the polymer model is estimated by vertex
telescoping: with regions L_0 = {} through L_{2n} = V, each ratio
Z(L_{i-1})/Z(L_i) equals the probability that vertex i-1 is uncovered
under the region-L_i polymer Gibbs measure, estimated on one chain that
grows through the regions (Rao-Blackwellised; see estimate_polymer_Z).
Only regions whose last vertex a polymer covers have a ratio below 1.
The per-biclique estimates combine into the mixture
    sum over (B_0,B_1) of |B_0|^n |B_1|^n * Z^{B_0,B_1},
everything in log-space; in lab mode their variances combine into the
standard error of ln Z, each weighted by its biclique's squared mass
share. One ApproxResult holds the outcome: ln Z, its standard error, the
run's config and the per-biclique MixtureRecords (model, candidate table),
which the exact path leaves empty. Configuration sampling draws a biclique
from a result's records, a polymer configuration from a chain on its
table, and fills the remaining vertices: ground spins uniformly off the
boundary, and boundary vertices u with P(j) proportional to prod of H[j,
spin of covered neighbors].
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import exact
from .dynamics import (
    DRAW,
    EXACT,
    FILL,
    RATIO,
    CandidateTable,
    PolymerChain,
    candidate_table,
    random_stream,
    sample_polymer_config,
)
from .errors import (
    InvalidAccuracyError,
    InvalidRangeError,
    PremisesUnmetError,
    ZeroNormalizerError,
    check_count,
    check_fraction,
    check_seed,
)
from .graph import BipartiteRegularGraph, second_eigenvalue
from .logspace import LogSumAccumulator
from .polymer import PolymerModel
from .spin_model import (
    Biclique,
    InteractionMatrix,
    check_premises,
    enumerate_maximal_bicliques,
    proof_epsilon,
)


# c in the per-ratio sample count m = ceil(c n / eps^2): strict mode's count,
# lab mode's ceiling
SAMPLE_FACTOR = 8.0
# Lab mode's two-stage ratio (see estimate_polymer_Z): a pilot of
# PILOT_BATCHES batches of BATCH_SWEEPS sweeps, then at least MIN_SAMPLES
# fresh sweeps, sized so that the 2n ratios together leave ln Z a standard
# error of eps* / STDERR_FACTOR.
PILOT_BATCHES = 16
BATCH_SWEEPS = 4
MIN_SAMPLES = 128
STDERR_FACTOR = 20.0


@dataclass(frozen=True)
class EstimatorConfig:
    """The one validated set of knobs for a run of the estimator and the
    sampler.

    size_cap truncates polymer generation, as each model resolves it with
    PolymerModel.resolve_cap (None -> floor(2 eps n)) into the cap of its
    candidate table; mixing_constant is C in default_mixing_steps, the
    sampler's chain length and strict mode's burn-in; the exact path runs
    iff its q^n left configurations fit brute_force_budget (so 0 disables
    it); eps_override replaces the analysis closeness eps. The per-ratio
    schedule is estimate_polymer_Z's (strict: SAMPLE_FACTOR sweeps, lab: a
    two-stage count with that ceiling); the per-biclique error split and the
    median amplification come from the mode in build_mixture (strict: the
    worst-case split, lab: one run at accuracy eps*).
    """

    size_cap: int | None = None
    mixing_constant: float = 10.0
    brute_force_budget: int = 1 << 24
    eps_override: float | None = None

    def __post_init__(self):
        if self.size_cap is not None:
            check_count("size_cap", self.size_cap, 1)
        c = self.mixing_constant
        if isinstance(c, bool) or not (isinstance(c, numbers.Real) and math.isfinite(c) and c > 0):
            raise InvalidRangeError(f"mixing_constant must be positive and finite, got {c!r}")
        budget = self.brute_force_budget
        if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
            raise InvalidRangeError(f"brute_force_budget must be an integer, got {budget!r}")
        if self.eps_override is not None:
            check_fraction("eps_override", self.eps_override)

    def chain_params(self, model: PolymerModel) -> EstimatorConfig:
        """This config with size_cap resolved by model.resolve_cap. A model
        that admits no polymers resolves to cap 0, which is refused.

        No program path calls it: the chain layer reads candidate_table's
        cap. The name stays because perfbench's build_tables calls it; the
        benchmark change that stops that call deletes it."""
        return replace(self, size_cap=model.resolve_cap(self.size_cap))


def default_mixing_steps(config: EstimatorConfig, region_size: int, eps_sample: float) -> int:
    """ceil(C * |region| * ln(|region| / eps_sample)) for a nonempty region, at least 1."""
    steps = config.mixing_constant * region_size * math.log(region_size / eps_sample)
    return max(1, math.ceil(steps))


def _check_run(eps_star: float, mode: str, seed: int) -> None:
    """Refuse an accuracy target outside (0, 1), an unknown mode or a seed
    outside [0, 2^64), whether or not the run draws from it."""
    check_seed(seed)
    check_fraction("eps_star", eps_star, InvalidAccuracyError)
    if mode not in ("lab", "strict"):
        raise InvalidRangeError(f"mode must be 'lab' or 'strict', got {mode!r}")


def _sample_ceiling(n: int, eps_star: float) -> int:
    """m = ceil(SAMPLE_FACTOR n / eps_star^2), strict's sweeps per ratio and
    lab's ceiling; an eps_star for which m is not finite is refused."""
    try:
        return math.ceil(SAMPLE_FACTOR * n / eps_star**2)
    except (ZeroDivisionError, OverflowError):  # eps_star^2 underflows or m overflows
        raise InvalidAccuracyError(
            f"eps_star={eps_star!r} is too small: m = ceil({SAMPLE_FACTOR:g} n / eps_star^2) "
            "is not finite"
        ) from None


@dataclass(frozen=True)
class MixtureRecord:
    """One biclique's term of the mixture, as an ApproxResult lists it, with
    the model and the candidate table (empty when the model admits no
    polymers) that both the estimate and sample_mixture's draws use."""

    biclique: Biclique
    ln_prefactor: float  # n ln|B_0| + n ln|B_1|
    ln_polymer_z: float
    ln_polymer_var: float  # estimated variance of ln_polymer_z; nan in strict mode
    model: PolymerModel
    table: CandidateTable
    steps: int  # chain steps its telescope took


@dataclass(frozen=True)
class ApproxResult:
    ln_value: float
    mode: str  # "exact" | "lab" | "strict"
    bicliques: int
    eps: float | None  # the model closeness; None on the exact path
    config: EstimatorConfig  # the run's knobs, as given
    records: tuple[MixtureRecord, ...]  # one per biclique; empty on the exact path
    ln_stderr: float | None  # 0 on the exact path, None in strict mode
    warnings: tuple[str, ...] = field(default=())

    def biclique_log_masses(self) -> np.ndarray:
        return np.array([r.ln_prefactor + r.ln_polymer_z for r in self.records])


def estimate_polymer_Z(
    model: PolymerModel,
    config: EstimatorConfig,
    eps_star: float,
    seed: int,
    *,
    biclique: int = 0,
    median_runs: int = 1,
    mode: str = "lab",
) -> tuple[float, int, float]:
    """ln Z of one polymer model via the telescoping ratio product, the
    chain steps taken over all runs, and the estimated variance of ln Z.

    ln Z = -sum over i of ln p_i, where p_i is the probability that vertex
    i-1 is uncovered in region {0..i-1}. p_i = 1 exactly unless a polymer
    of the model's candidate table at config.size_cap ends at i-1, so each
    of the median_runs runs is one chain grown through those regions only.
    At region i it takes samples one sweep apart, each adding 1/total of
    the heat-bath conditional at i-1, which is exactly P(i-1 uncovered |
    the other polymers). Run r draws from random_stream(seed, RATIO,
    biclique, r), where biclique is the model's index in the mixture; the
    result is the median over runs.

    Strict mode keeps the proof's schedule: a cold burn-in of
    default_mixing_steps(config, i, 1e-3) steps, then m = ceil(SAMPLE_FACTOR
    * n / eps_star^2) samples. The proof carries over from the 0/1
    "uncovered" hit to the Rao-Blackwellised value: it lies in [0, 1] with
    the same mean p_i and variance at most p_i(1 - p_i), its bias under the
    chain's law is at most the total-variation distance to the Gibbs law,
    and it is never 0. Strict reports no variance (nan).

    Lab mode sizes each ratio by Stein's two-stage rule. A pilot of
    PILOT_BATCHES batches of BATCH_SWEEPS sweeps continues from the
    previous region's state, which is a polymer configuration of the new
    region too, and takes the place of the cold burn-in. From the mean p0
    and sample variance s^2 of its batch means it fixes m_i = min(m,
    max(MIN_SAMPLES, ceil(BATCH_SWEEPS s^2 / (p0^2 beta)))), with beta =
    (eps_star / STDERR_FACTOR)^2 / (2n) each ratio's share of the relative
    variance, and then averages m_i fresh sweeps only, with variance
    BATCH_SWEEPS s^2 / (m_i p^2) for ln p. Because m_i is fixed before any
    sample it averages is seen, the stop cannot favour a high or a low
    mean, which a sequential stop at a standard error would. m is the
    ceiling, so no ratio takes more sweeps than strict's count, and a pilot
    of 64 sweeps of at most i active vertices is shorter than the cold
    burn-in at the default mixing_constant. The returned variance is the
    sum of the ratios' for one lab run, and nan for a median of runs.
    """
    _check_run(eps_star, mode, seed)
    check_count("median_runs", median_runs, 1)
    table = candidate_table(model, config.size_cap)
    regions = sorted({mask.bit_length() for mask in table.masks})
    n = model.graph.n
    # no region, no ratio to size: eps_star^2 may underflow on a vacuous run
    m = _sample_ceiling(n, eps_star) if regions else 0
    beta = (eps_star / STDERR_FACTOR) ** 2 / (2 * n)
    values = []
    steps = 0
    var = 0.0
    for run in range(median_runs):
        chain = PolymerChain(table, random_stream(seed, RATIO, biclique, run), prefix=0)
        ln_z = 0.0
        for i in regions:
            chain.grow(i)
            p, p_var = _ratio(chain, config, m, beta, mode)
            ln_z -= math.log(p)
            var += p_var
        values.append(ln_z)
        steps += chain.steps_taken
    if mode == "strict" or median_runs > 1:
        var = math.nan
    return float(np.median(values)), steps, var


def _ratio(
    chain: PolymerChain, config: EstimatorConfig, m: int, beta: float, mode: str
) -> tuple[float, float]:
    """Mean P(region's last vertex uncovered | the rest) over fresh sweeps,
    and the variance of its log; a region polymer covers that vertex.
    Strict mode takes m sweeps after a cold burn-in and reports variance
    nan; lab mode's pilot of batch means sizes the count of fresh sweeps,
    whose mean alone is the ratio."""
    v = chain.prefix - 1
    sweep = len(chain.region.active)
    if mode == "strict":
        chain.run(default_mixing_steps(config, chain.prefix, 1e-3))
        samples, s2 = m, math.nan
    else:
        batch = BATCH_SWEEPS * sweep
        means = [chain.run(batch, probe=v) / BATCH_SWEEPS for _ in range(PILOT_BATCHES)]
        p0 = sum(means) / PILOT_BATCHES
        s2 = sum((x - p0) ** 2 for x in means) / (PILOT_BATCHES - 1)
        samples = min(m, max(MIN_SAMPLES, math.ceil(BATCH_SWEEPS * s2 / (p0 * p0 * beta))))
    p = chain.run(samples * sweep, probe=v) / samples
    return p, BATCH_SWEEPS * s2 / (samples * p * p)


def _median_schedule(eps_star: float, num_bicliques: int) -> int:
    """Odd k with median failure probability <= eps_star/(16 * #bicliques)."""
    eta = eps_star / (16.0 * max(1, num_bicliques))
    k = max(1, math.ceil(8.0 * math.log(1.0 / eta)))
    return k if k % 2 else k + 1


def build_mixture(
    graph: BipartiteRegularGraph,
    matrix: InteractionMatrix,
    eps_star: float,
    seed: int,
    *,
    config: EstimatorConfig | None = None,
    mode: str = "lab",
) -> ApproxResult:
    """Per-maximal-biclique estimates assembled by log-sum-exp, as an
    ApproxResult without warnings.

    The model closeness eps is config.eps_override, or else the analysis
    epsilon proof_epsilon(matrix, degree). The mode sets the schedule.
    Strict: each biclique at accuracy eps_star/8 on the proof's per-ratio
    schedule, with median amplification sized so the union failure mass
    stays below eps_star/16. Lab: each biclique in one two-stage run at
    accuracy eps_star (see estimate_polymer_Z). Each biclique's record
    holds its model and its candidate table at config.size_cap; a model
    that admits no polymers has an empty table and contributes ln Z = 0
    exactly. Lab mode reports the standard error of ln Z: d ln Z / d ln
    Z_b is biclique b's mass share, so the variances add weighted by the
    squared shares. Strict mode reports none.
    """
    _check_run(eps_star, mode, seed)
    config = config or EstimatorConfig()
    eps = config.eps_override
    if eps is None:
        eps = proof_epsilon(matrix, graph.degree)
    bicliques = enumerate_maximal_bicliques(matrix)
    if mode == "strict":
        inner_eps, runs = 0.125 * eps_star, _median_schedule(eps_star, len(bicliques))
    else:
        inner_eps, runs = eps_star, 1
    n = graph.n

    records = []
    acc = LogSumAccumulator()
    for b_idx, biclique in enumerate(bicliques):
        model = PolymerModel(graph, matrix, biclique, eps)
        prefactor = n * (math.log(len(biclique.b0)) + math.log(len(biclique.b1)))
        table = candidate_table(model, config.size_cap)
        ln_z, steps, var = estimate_polymer_Z(
            model, config, inner_eps, seed, biclique=b_idx, median_runs=runs, mode=mode
        )
        records.append(MixtureRecord(biclique, prefactor, ln_z, var, model, table, steps))
        acc.add(prefactor + ln_z)
    result = ApproxResult(acc.value, mode, len(records), eps, config, tuple(records), None)
    if mode == "strict":
        return result
    shares = np.exp(result.biclique_log_masses() - result.ln_value)
    var = sum(w * w * r.ln_polymer_var for w, r in zip(shares.tolist(), records))
    return replace(result, ln_stderr=math.sqrt(var))


def exact_fallback(graph, matrix, budget) -> bool:
    """Whether the exact path runs: iff its q^n left configurations fit the
    budget, so a budget <= 0 disables it."""
    return matrix.q**graph.n <= budget


def approximate_Z(
    graph: BipartiteRegularGraph,
    matrix: InteractionMatrix,
    eps_star: float,
    seed: int,
    *,
    mode: str = "lab",
    config: EstimatorConfig | None = None,
) -> ApproxResult:
    """Estimate ln Z_{G,H} to relative accuracy eps_star.

    Small instances, whose q^n left configurations fit the brute-force
    budget, are answered exactly by exact.log_Z. Otherwise build_mixture
    runs. Strict mode certifies lambda(G), refuses when the degree/gap
    premises fail, and uses the worst-case error split; lab mode proceeds
    with relaxed inner budgets and records that no guarantee is claimed.
    A warning names an eps_star below the small-instance threshold
    9 e^{-n/(4q)} that the exact path could not serve.
    """
    _check_run(eps_star, mode, seed)
    config = config or EstimatorConfig()

    if exact_fallback(graph, matrix, config.brute_force_budget):
        return ApproxResult(
            ln_value=exact.log_Z(graph, matrix),
            mode="exact",
            bicliques=len(enumerate_maximal_bicliques(matrix)),
            eps=None,
            config=config,
            records=(),
            ln_stderr=0.0,
        )

    warnings: list[str] = []
    if eps_star < 9.0 * math.exp(-graph.n / (4.0 * matrix.q)):
        if config.brute_force_budget <= 0:
            reason = f"exact path is disabled (brute_force_budget={config.brute_force_budget})"
        else:
            reason = (
                f"exact path exceeds its budget (q^n = {matrix.q}^{graph.n} left "
                f"configurations > brute_force_budget={config.brute_force_budget})"
            )
        warnings.append(
            "accuracy target is below the small-instance threshold but the "
            f"{reason}; polymer estimate carries no bound"
        )
    if mode == "strict":
        cert = second_eigenvalue(graph)
        lam_used = max(cert.lam, 1e-300)  # lambda=0 means perfect expansion
        report = check_premises(matrix, graph.degree, lam_used)
        if not report.all_ok:
            raise PremisesUnmetError("; ".join(report.details))
    else:
        warnings.append("lab mode: premises unchecked, no accuracy guarantee claimed")

    result = build_mixture(graph, matrix, eps_star, seed, config=config, mode=mode)
    if all(rec.ln_polymer_z == 0.0 for rec in result.records):
        warnings.append(
            f"polymer correction is vacuous: every biclique's polymer ln Z is 0 "
            f"at model eps={result.eps:.6g}, so lnZ counts ground states only"
        )
    target = eps_star / STDERR_FACTOR
    if result.ln_stderr is not None and result.ln_stderr > target:
        m = _sample_ceiling(graph.n, eps_star)
        warnings.append(
            f"lnZ_stderr={result.ln_stderr:.6g} misses its target eps_star/{STDERR_FACTOR:g} = "
            f"{target:.6g}: the ratios' sample counts stop at the ceiling "
            f"m = ceil({SAMPLE_FACTOR:g} n / eps_star^2) = {m} sweeps"
        )
    return replace(result, warnings=tuple(warnings))


# -- configuration sampling ------------------------------------------------------


def spin_fill(model: PolymerModel, polymers, rng) -> np.ndarray:
    """Complete a polymer configuration of the model to a full spin configuration.

    Covered vertices keep their polymer spins; vertices away from the
    covered region draw uniformly from their ground set; boundary vertices
    u on side i take j in B_i with probability proportional to the product
    of H[j, spin] over covered neighbors (normalizer F_u, from the model's
    memo).
    """
    graph = model.graph
    biclique = model.biclique
    n = graph.n
    sigma = np.full(graph.num_vertices, -1, dtype=np.int64)
    spin_map: dict[int, int] = {}
    for poly in polymers:
        spin_map.update(poly.spin_map())
    for v, s in spin_map.items():
        sigma[v] = s
    boundary = sorted(graph.boundary(spin_map.keys()))
    for u in boundary:
        side = graph.side(u)
        ground = biclique.side(side)
        adjacent = tuple(spin_map[v] for v in graph.neighbors(u) if v in spin_map)
        total, _, cumulative = model.boundary_entry(side, adjacent)
        if total <= 0.0:
            raise ZeroNormalizerError(f"boundary vertex {u} has F_u = 0")
        pick = bisect.bisect_right(cumulative, rng.random() * total)
        sigma[u] = ground[min(pick, len(ground) - 1)]
    free = np.flatnonzero(sigma < 0)
    for side in (0, 1):
        side_free = free[(free >= n) == bool(side)]
        if side_free.size:
            ground = np.asarray(biclique.side(side), dtype=np.int64)
            sigma[side_free] = ground[rng.integers(0, ground.size, size=side_free.size)]
    return sigma


def spin_sample_many(
    graph: BipartiteRegularGraph,
    matrix: InteractionMatrix,
    eps_star: float,
    seed: int,
    count: int,
    *,
    mode: str = "lab",
    config: EstimatorConfig | None = None,
) -> np.ndarray:
    """Draw `count` approximate Gibbs configurations; shape (count, 2n).

    When the q^n left configurations fit the brute-force budget, as in
    approximate_Z, the draws are exact (exact.sample); otherwise they come
    from sample_mixture on approximate_Z's result.
    """
    _check_run(eps_star, mode, seed)
    check_count("count", count, 0)
    config = config or EstimatorConfig()
    if count == 0:
        return np.empty((0, graph.num_vertices), dtype=np.int64)

    if exact_fallback(graph, matrix, config.brute_force_budget):
        return exact.sample(graph, matrix, count, random_stream(seed, EXACT, 0, 0))

    result = approximate_Z(graph, matrix, eps_star, seed, mode=mode, config=config)
    return sample_mixture(result, eps_star, seed, count)


def sample_mixture(result: ApproxResult, eps_star: float, seed: int, count: int) -> np.ndarray:
    """Draw `count` configurations from an estimated mixture; shape (count, 2n).

    Pipeline per draw: biclique by its mass in the result's records, polymer
    configuration from a fresh chain on its candidate table, run for
    default_mixing_steps(result.config, 2n, eps_star/6) steps (an empty
    table draws no chain and no stream), then spin_fill. An exact-path
    result has no records to draw from (spin_sample_many draws exactly
    there); it, an eps_star outside (0, 1) and a bad count are refused
    before any stream is drawn.
    """
    records = result.records
    if not records:
        raise InvalidRangeError(
            "an exact-path result has no mixture records to draw from; "
            "spin_sample_many draws exactly there"
        )
    _check_run(eps_star, result.mode, seed)
    check_count("count", count, 0)
    num = records[0].model.graph.num_vertices
    steps = default_mixing_steps(result.config, num, eps_star / 6.0)
    masses = result.biclique_log_masses()
    probs = np.exp(masses - masses.max())
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    rng = random_stream(seed, FILL, 0, 0)
    out = np.empty((count, num), dtype=np.int64)
    for d in range(count):
        b_idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        b_idx = min(b_idx, len(records) - 1)
        record = records[b_idx]
        polymers = ()
        if record.table:
            polymers = sample_polymer_config(
                record.table, steps, random_stream(seed, DRAW, b_idx, d)
            )
        out[d] = spin_fill(record.model, polymers, rng)
    return out
