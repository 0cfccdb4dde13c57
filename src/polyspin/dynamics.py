"""Reversible heat-bath dynamics on polymer configurations.

One step: pick a vertex v of the region uniformly (among vertices that
admit any polymer), drop the polymer covering v if there is one, then
resample the v-slot from {no polymer} u {allowed polymers through v,
inside the region, of size <= size_cap, compatible with the rest} with
probability proportional to 1 resp. the polymer weight. Each P_v is a
conditional resampling, so the chain is reversible for the size-truncated
polymer Gibbs distribution restricted to the region. That conditional is
written once, as PolymerChain.conditional; PolymerChain.run and
oracle.exact_chain_analysis both evaluate it. Its options are the chain's
own (mask, weight, index) candidate triples. When no candidate through v
is blocked, which is most steps on sparse states, it returns v's whole
list and a precomputed normaliser instead of scanning; that normaliser is
summed in scan order, so every fixed-seed output is the scan's, bit for
bit.

The region is a prefix {0..i-1} of the vertices (the whole graph by
default); PolymerChain.grow extends it in place. Polymer connectivity and
compatibility always refer to G^3 of the full graph; the region only
restricts which vertices polymers may occupy, which is what makes region
partition functions telescope.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidRangeError
from .logspace import NEG_INF
from .polymer import Polymer, PolymerModel

_RNG_BUFFER = 4096

# Stream domains, the first spawn-key slot of every random stream.
RATIO = 0  # telescope chains: chain = median run, stage 0
DRAW = 1  # per-draw sampler chains: chain = draw index
FILL = 2  # the sampler's biclique choice and spin_fill
EXACT = 3  # the exact-path sampler

_KEY_LIMIT = 1 << 32


def random_stream(
    seed: int, domain: int, biclique: int, stage: int, chain: int
) -> np.random.Generator:
    """The one source of the estimator's and sampler's random streams: a
    Philox generator keyed by (seed mod 2^64, domain, biclique, stage, chain).

    SeedSequence pads the seed to its pool size before appending the spawn
    key, and each key slot below 2^32 is one 32-bit word, so distinct keys
    give distinct streams; a slot outside [0, 2^32) is refused rather than
    allowed to spill into its neighbour.
    """
    key = (domain, biclique, stage, chain)
    for k in key:
        if not 0 <= k < _KEY_LIMIT:
            raise InvalidRangeError(f"stream key slots must lie in [0, 2^32), got {key}")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed % (1 << 64), spawn_key=key))
    )


def check_count(name: str, value, low: int) -> None:
    """Refuse a bool, a non-integral count or one below low with InvalidRangeError."""
    # int and np.integer, not the slower numbers.Integral: run checks every call
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidRangeError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """The one validated set of knobs for the estimator, the chain, the
    sampler and the oracle's chain analysis.

    size_cap truncates polymer generation (None -> floor(2 eps n), the
    exact truncation; see chain_params); mixing_constant is C in
    default_mixing_steps; the exact path runs iff its q^n left
    configurations fit brute_force_budget (so 0 disables it);
    eps_override replaces the analysis closeness eps. The per-ratio sample
    count is estimator.SAMPLE_FACTOR; the per-biclique error split and the
    median amplification come from the mode in estimator.build_mixture
    (strict: the worst-case split, lab: one run at accuracy eps*).
    """

    size_cap: int | None = None
    mixing_constant: float = 10.0
    brute_force_budget: int = 1 << 24
    eps_override: float | None = None

    def __post_init__(self):
        cap = self.size_cap
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1
        ):
            raise InvalidRangeError(f"size_cap must be an integer >= 1, got {cap!r}")
        if not (math.isfinite(self.mixing_constant) and self.mixing_constant > 0):
            raise InvalidRangeError(
                f"mixing_constant must be positive and finite, got {self.mixing_constant}"
            )
        if self.eps_override is not None and not (0.0 < self.eps_override < 1.0):
            raise InvalidRangeError(f"eps_override must lie in (0,1), got {self.eps_override}")

    def chain_params(self, model: PolymerModel) -> EstimatorConfig:
        """This config with size_cap resolved against model.max_size, for a
        model that admits polymers (max_size >= 1)."""
        cap = model.max_size if self.size_cap is None else min(self.size_cap, model.max_size)
        return replace(self, size_cap=cap)


class CandidateTable:
    """All sampleable polymers of a model up to a size cap, with bitmasks.

    blocks[i] covers V_gamma and its G^3 neighborhood: polymer j is
    compatible with i iff mask[j] & blocks[i] == 0. by_vertex[v] lists the
    (mask, weight, index) triples of the polymers through v in table order,
    which is the list the heat bath scans at v. Zero-weight polymers
    (including weights that underflow exp) are omitted; the heat bath could
    never select them.
    """

    def __init__(self, model: PolymerModel, size_cap: int):
        polymers = model.enumerate_allowed(size_cap)
        # closed G^3 zone of each vertex: itself plus its host neighbors
        zones = []
        for v, nbrs in enumerate(model.graph.host_adjacency):
            zone = 1 << v
            for u in nbrs:
                zone |= 1 << u
            zones.append(zone)
        self.polymers = []
        self.masks: list[int] = []
        self.blocks: list[int] = []
        self.log_weights: list[float] = []
        self.by_vertex: list[list[tuple[int, float, int]]] = [
            [] for _ in range(model.graph.num_vertices)
        ]
        for poly in polymers:
            lw = model.weight_log(poly)
            if lw == NEG_INF:
                continue
            w = math.exp(lw)
            if w <= 0.0:
                continue
            mask = 0
            block = 0
            for v in poly.vertices:
                mask |= 1 << v
                block |= zones[v]
            idx = len(self.polymers)
            self.polymers.append(poly)
            self.masks.append(mask)
            self.blocks.append(block)
            self.log_weights.append(lw)
            entry = (mask, w, idx)  # one tuple, shared by the lists of its vertices
            for v in poly.vertices:
                self.by_vertex[v].append(entry)

    def __len__(self) -> int:
        return len(self.polymers)

    @cached_property
    def _sums(self) -> tuple[list[int], list[float]]:
        # built by the first whole-graph chain, shared by every later one
        return _vertex_sums(self.by_vertex)


def _vertex_sums(cands) -> tuple[list[int], list[float]]:
    """Per vertex: reach, the OR of its candidate masks, and total, 1.0 plus
    its candidate weights added left to right, which is the heat-bath
    normaliser when no candidate through the vertex is blocked."""
    reach: list[int] = []
    totals: list[float] = []
    for row in cands:
        r = 0
        total = 1.0
        for m, w, _ in row:
            r |= m
            total += w
        reach.append(r)
        totals.append(total)
    return reach, totals


def candidate_table(model: PolymerModel, size_cap: int) -> CandidateTable:
    """Table cache lives on the (immutable) model."""
    table = model._tables.get(size_cap)
    if table is None:
        table = CandidateTable(model, size_cap)
        model._tables[size_cap] = table
    return table


class PolymerChain:
    """One heat-bath chain on the region {0..prefix-1} (the whole graph when
    prefix is None), deterministic given its stream and the sequence of
    steps and grow calls. rng is the chain's own random_stream; a chain
    that is only probed through conditional, never run, may take None.
    """

    def __init__(
        self,
        model: PolymerModel,
        config: EstimatorConfig,
        rng: np.random.Generator | None,
        *,
        prefix: int | None = None,
    ):
        self.table = candidate_table(model, config.size_cap)
        self._masks, self._blocks = self.table.masks, self.table.blocks  # read on every step
        self._current: list[int] = []  # table indices of present polymers
        self.steps_taken = 0
        self._rng = rng
        self.prefix = 0
        self.grow(model.graph.num_vertices if prefix is None else prefix)

    def grow(self, prefix: int) -> None:
        """Extend the region to {0..prefix-1}, keeping the state (its polymers
        lie in the new region) but dropping the buffered vertex picks, which
        index the old active list. Refuses a smaller prefix or one above 2n."""
        table = self.table
        num = len(table.by_vertex)
        if not self.prefix <= prefix <= num:
            raise InvalidRangeError(f"prefix must lie in [{self.prefix}, {num}], got {prefix}")
        self.prefix = prefix
        if prefix == num:
            self._cands = table.by_vertex  # read in place, never modified
            self._reach, self._totals = table._sums
        else:
            limit = 1 << prefix  # a polymer lies in the region iff mask < limit
            self._cands = [[c for c in row if c[0] < limit] for row in table.by_vertex[:prefix]]
            self._reach, self._totals = _vertex_sums(self._cands)
        self._active = [v for v in range(prefix) if self._cands[v]]
        self._ints = self._unis = ()  # empty: the next step refills
        self._pos = 0

    def conditional(self, current, v: int):
        """The heat-bath conditional at vertex v, given the table indices of
        the present polymers.

        Drops the polymer covering v, lists the candidates through v
        compatible with the polymers that stay, and returns
        (kept, options, total): the next state is kept plus nothing with
        probability 1/total, or kept plus polymer i with probability
        w/total for each (mask, w, i) triple in options, which is a
        read-only list of the chain's own candidate triples in table order.
        When no candidate through v is blocked, options is v's whole
        candidate list and total its precomputed sum, with no scan; the sum
        is added in the same order as the scan's, so the floats agree.
        """
        masks = self._masks
        blocks = self._blocks  # block zone already contains the vertex mask
        vbit = 1 << v
        kept = []
        blocked = 0
        for i in current:
            if not masks[i] & vbit:
                kept.append(i)
                blocked |= blocks[i]
        cands = self._cands[v]
        if not blocked & self._reach[v]:
            return kept, cands, self._totals[v]
        options = []
        total = 1.0
        for c in cands:
            if not c[0] & blocked:
                options.append(c)
                total += c[1]
        return kept, options, total

    def _refill(self) -> None:
        nact = len(self._active)
        self._ints = self._rng.integers(0, nact, size=_RNG_BUFFER)
        self._unis = self._rng.random(_RNG_BUFFER)
        self._pos = 0

    def run(self, steps: int) -> None:
        """Take `steps` heat-bath steps. A negative, bool or non-integral
        count raises InvalidRangeError before any state changes."""
        check_count("steps", steps, 0)
        self.steps_taken += steps
        active = self._active
        if not active:
            return
        conditional = self.conditional
        current = self._current
        ints, unis, pos = self._ints, self._unis, self._pos
        for _ in range(steps):
            if pos >= len(ints):
                self._refill()
                ints, unis, pos = self._ints, self._unis, 0
            v = active[ints[pos]]
            u = unis[pos]
            pos += 1
            current, options, total = conditional(current, v)
            r = u * total
            if r >= 1.0:
                r -= 1.0
                chosen = options[-1][2]
                for _, w, i in options:
                    if r < w:
                        chosen = i
                        break
                    r -= w
                current.append(chosen)
        self._current = current
        self._pos = pos

    # -- state inspection ---------------------------------------------------

    @property
    def active_vertices(self) -> tuple[int, ...]:
        """Region vertices that admit at least one sampleable polymer."""
        return tuple(self._active)

    def covered(self, v: int) -> bool:
        vbit = 1 << v
        return any(self._masks[i] & vbit for i in self._current)

    def current_polymers(self) -> tuple[Polymer, ...]:
        return tuple(self.table.polymers[i] for i in sorted(self._current))


def default_mixing_steps(config: EstimatorConfig, region_size: int, eps_sample: float) -> int:
    """ceil(C * |region| * ln(|region| / eps_sample)), at least 1."""
    if region_size < 1:
        return 0
    return max(
        1,
        math.ceil(
            config.mixing_constant * region_size * math.log(region_size / eps_sample)
        ),
    )


def sample_polymer_config(
    model: PolymerModel,
    config: EstimatorConfig,
    eps_sample: float,
    rng: np.random.Generator,
) -> tuple[Polymer, ...]:
    """Approximate sample from the size-truncated polymer Gibbs distribution.

    Runs the chain from the empty configuration for
    ceil(C |V| ln(|V|/eps_sample)) steps and returns the final state as a
    sorted tuple of polymers. The target is mu truncated to polymers of
    size <= size_cap; the neglected tail is the caller's responsibility
    (exact when size_cap = floor(2 eps n)).
    """
    if not (0.0 < eps_sample < 1.0):
        raise InvalidRangeError(f"eps_sample must lie in (0,1), got {eps_sample}")
    chain = PolymerChain(model, config, rng)
    chain.run(default_mixing_steps(config, chain.prefix, eps_sample))
    return chain.current_polymers()

