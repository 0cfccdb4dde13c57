"""Reversible heat-bath dynamics on polymer configurations.

Every chain runs on a CandidateTable: one biclique's polymers up to the
size cap the table resolved when built (none if the model admits none).

One step: pick a vertex v of the region uniformly (among vertices that
admit any polymer), drop the polymer covering v if there is one, then
resample the v-slot from {no polymer} u {the table's polymers through v,
inside the region, compatible with the rest} with probability
proportional to 1 resp. the polymer weight. Each P_v is a conditional
resampling, so the chain is reversible for the size-truncated polymer
Gibbs distribution restricted to the region. _Region.conditional states
the rule, and oracle.exact_chain_analysis reads it from table.region; its
options are the table's own (mask, weight, index) candidate triples.

PolymerChain.run takes the same steps incrementally. The chain holds two
unions of its present polymers as state, covered (the OR of their masks)
and blocked (the OR of their G^3 blocks), and rebuilds them only when the
picked vertex is covered and its polymer dropped. If v then lies in
blocked, every candidate through v is blocked, the normaliser is 1 and
the step changes nothing. Otherwise the options at v depend only on
(v, key), key = blocked & reach[v], reach[v] being the union of v's
candidate masks in the region, and _Region.conditional looks them up:
with key 0 they are v's whole list and its precomputed normaliser, else an
entry of the region's memo, else a scan in table order that fills the
memo. The memo holds only what (v, key) and the region's triples fix, so
chains may share it: every whole-graph chain on a table reads the table's
one region, memo included, and a smaller region is built afresh by each
grow. A memo is emptied whenever it would hold more than MEMO_FACTOR
times its region's candidate triples (an entry counts 1 plus its
options). run's output is conditional's, bit for bit: every normaliser,
whether precomputed, memoised or scanned, is 1.0 plus the unblocked
weights added in table order, as the scan adds them.

Step t of a chain reads doubles 2t and 2t+1 of its stream, whatever the
step does: u picks active[floor(u * len(active))], u' is the heat-bath
uniform. A Philox double is one 64-bit word, so split random calls return
the same doubles as one call of their total length; run draws each chunk
of at most _RNG_BUFFER steps as one rng.random(2 * steps). grow draws
nothing, so however the same steps are split over run calls and grow
points, a chain's stream stands at double 2 * steps_taken (a step on a
region with no active vertex draws nothing and changes nothing). The law is exact: each P_v is a heat-bath
resampling, reversible for the polymer Gibbs law pi, so any mixture
sum_v p_v P_v with every p_v > 0 is pi-reversible. A double u is a
multiple of 2^-53 in [0, 1 - 2^-53], so the pick lies in the active list
and each p_v differs from 1/len(active) by less than 2^-52.

run turns each chunk into one iterator of (pick, uniform) pairs. Without
a probe it walks the chunk in one loop. With a probe, a countdown from
the call's start cuts that walk at every full sweep, with islice on the
same iterator, and reads the probe through the same key, memo and scan as
a step. So a sweep costs its steps, one islice and one read, and a step
pays nothing for the countdown, which moves once per cut.

The region is a prefix {0..i-1} of the vertices (the whole graph by
default); PolymerChain.grow extends it, keeping the state. Polymer
connectivity and compatibility always refer to G^3 of the full graph; the
region only restricts which vertices polymers may occupy, which is what
makes region partition functions telescope.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import InvalidRangeError, check_count, check_seed
from .logspace import NEG_INF
from .polymer import Polymer, PolymerModel

_RNG_BUFFER = 4096  # steps drawn per chunk: bounds memory, not the stream
MEMO_FACTOR = 16  # a region memo's bound per candidate triple; see above

# Stream domains, the first spawn-key slot of every random stream.
RATIO = 0  # telescope chains: chain = median run
DRAW = 1  # per-draw sampler chains: chain = draw index
FILL = 2  # the sampler's biclique choice and spin_fill
EXACT = 3  # the exact-path sampler

_KEY_LIMIT = 1 << 32


def random_stream(seed: int, domain: int, biclique: int, chain: int) -> np.random.Generator:
    """The one source of the estimator's and sampler's random streams: a
    Philox generator keyed by (seed, domain, biclique, chain).

    SeedSequence pads the seed to its pool size before appending the spawn
    key, and each key slot below 2^32 is one 32-bit word, so distinct keys
    give distinct streams. A seed outside [0, 2^64) (see check_seed) and a
    slot outside [0, 2^32) are refused rather than allowed to alias another
    seed or to spill into the neighbouring slot.
    """
    check_seed(seed)
    key = (domain, biclique, chain)
    for k in key:
        if not 0 <= k < _KEY_LIMIT:
            raise InvalidRangeError(f"stream key slots must lie in [0, 2^32), got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


class CandidateTable:
    """All sampleable polymers of a model up to size_cap, with bitmasks.

    size_cap is model.resolve_cap of the request. blocks[i] covers V_gamma
    and its G^3 neighborhood: polymer j is compatible with i iff mask[j] &
    blocks[i] == 0. by_vertex[v] lists the (mask, weight, index) triples of
    the polymers through v in table order, which is the list the heat bath
    scans at v. Zero-weight polymers (including weights that underflow exp)
    are omitted; the heat bath could never select them. A table without
    polymers is false and never builds the host graph.
    """

    def __init__(self, model: PolymerModel, size_cap: int | None):
        self.size_cap = model.resolve_cap(size_cap)
        polymers = model.enumerate_allowed(self.size_cap)
        # closed G^3 zone of each vertex: itself plus its host neighbors
        zones = []
        for v, nbrs in enumerate(model.graph.host_adjacency if polymers else ()):
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
    def region(self) -> _Region:
        """The whole graph's region, built on first use and shared, memo
        included, by every whole-graph chain and exact_chain_analysis."""
        return _Region(self, len(self.by_vertex))


class _Region:
    """A table's heat-bath view of the region {0..prefix-1}. Per vertex:
    cands, its in-region candidate triples in table order; reach, the OR of
    their masks; totals, 1.0 plus their weights added left to right. Then
    active, the vertices with a candidate, and the bounded memo of blocked
    options (see the module docstring)."""

    def __init__(self, table: CandidateTable, prefix: int):
        by_vertex = table.by_vertex
        # the table's lists, not the table, which caches its whole-graph region
        self.masks, self.blocks = table.masks, table.blocks
        if prefix == len(by_vertex):
            self.cands = by_vertex  # read in place, never modified
        else:
            limit = 1 << prefix  # a polymer lies in the region iff mask < limit
            self.cands = [[c for c in row if c[0] < limit] for row in by_vertex[:prefix]]
        self.reach: list[int] = []
        self.totals: list[float] = []
        for row in self.cands:
            r = 0
            total = 1.0
            for m, w, _ in row:
                r |= m
                total += w
            self.reach.append(r)
            self.totals.append(total)
        self.active = [v for v in range(prefix) if self.cands[v]]
        self.memo: dict[tuple[int, int], tuple[list, float]] = {}
        self.memo_size = 0
        self.memo_limit = MEMO_FACTOR * sum(map(len, self.cands))

    def conditional(self, current, v: int):
        """The heat-bath conditional at vertex v, given the table indices of
        the present polymers.

        Drops the polymer covering v, lists the candidates through v
        compatible with the polymers that stay, and returns
        (kept, options, total): the next state is kept plus nothing with
        probability 1/total, or kept plus polymer i with probability
        w/total for each (mask, w, i) triple in options, which is a
        read-only list of the region's candidate triples in table order.
        They depend only on key = (the union of the kept blocks) & reach[v],
        as every candidate through v lies in reach[v]: v's whole list and
        its precomputed normaliser for key 0, else the memo's entry, else a
        scan.
        """
        masks, blocks = self.masks, self.blocks  # a block contains its mask
        vbit = 1 << v
        kept = []
        blocked = 0
        for i in current:
            if not masks[i] & vbit:
                kept.append(i)
                blocked |= blocks[i]
        key = blocked & self.reach[v]
        if not key:
            return kept, self.cands[v], self.totals[v]
        options, total = self.memo.get((v, key)) or self.scan(v, key)
        return kept, options, total

    def scan(self, v: int, key: int) -> tuple[list, float]:
        """Filter v's candidates against key in table order, adding their
        weights to 1.0 in that order, and memoise the result. A memo that
        would pass its bound is emptied first."""
        options = [c for c in self.cands[v] if not c[0] & key]
        total = 1.0
        for c in options:
            total += c[1]
        size = 1 + len(options)
        if self.memo_size + size > self.memo_limit:
            self.memo.clear()
            self.memo_size = 0
        hit = self.memo[v, key] = (options, total)
        self.memo_size += size
        return hit


def candidate_table(model: PolymerModel, size_cap: int | None) -> CandidateTable:
    """The model's table at model.resolve_cap(size_cap), cached on the
    (immutable) model: requests that resolve alike share one table, and a
    model that admits no polymers gets an empty one."""
    cap = model.resolve_cap(size_cap)
    table = model._tables.get(cap)
    if table is None:
        table = model._tables[cap] = CandidateTable(model, cap)
    return table


class PolymerChain:
    """One heat-bath chain on a table's polymers in the region
    {0..prefix-1} (the whole graph when prefix is None), deterministic given
    its stream and the sequence of steps and grow calls. rng is the chain's
    own random_stream. The chain holds its state and its region's view, the
    table's own for the whole graph, whose conditional states the rule.
    """

    def __init__(self, table: CandidateTable, rng: np.random.Generator, *, prefix: int | None = None):
        self.table = table
        self._current: list[int] = []  # table indices of present polymers
        self._covered = 0  # OR of their masks
        self._blocked = 0  # OR of their blocks
        self.steps_taken = 0
        self._rng = rng
        self.prefix = 0
        self.grow(len(table.by_vertex) if prefix is None else prefix)

    def grow(self, prefix: int) -> None:
        """Extend the region to {0..prefix-1}, keeping the state (its polymers
        lie in the new region): the whole graph's view is the table's, any
        other a fresh _Region. Draws nothing. Refuses a bool, a non-integer,
        a smaller prefix or one above 2n before any state changes."""
        num = len(self.table.by_vertex)
        check_count("prefix", prefix, self.prefix)
        if prefix > num:
            raise InvalidRangeError(f"prefix must lie in [{self.prefix}, {num}], got {prefix}")
        self.prefix = prefix
        self.region = self.table.region if prefix == num else _Region(self.table, prefix)

    def run(self, steps: int, probe: int | None = None) -> float | None:
        """Take `steps` heat-bath steps.

        With probe=v (a region vertex), also read P(v uncovered | the other
        polymers), 1/total of the conditional at v, after every full sweep
        of len(region.active) steps, and return the sum of those reads,
        added in order; the sweeps count from the start of the call, and a
        trailing part sweep is not read. Without a probe, return None. A
        negative, bool or non-integral count, or a probe outside the region,
        raises InvalidRangeError before any state changes.
        """
        check_count("steps", steps, 0)
        if probe is not None:
            check_count("probe", probe, 0)
            if probe >= self.prefix:
                raise InvalidRangeError(f"probe must lie in [0, {self.prefix}), got {probe}")
        self.steps_taken += steps
        region = self.region
        active = region.active
        if not active:
            return None if probe is None else 0.0
        masks, blocks = self.table.masks, self.table.blocks
        cands, reach, totals = region.cands, region.reach, region.totals
        memo, scan = region.memo, region.scan
        current, covered, blocked = self._current, self._covered, self._blocked
        rng = self._rng
        # steps to the next probe read; never reached without a probe
        sweep = until = steps + 1 if probe is None else len(active)
        pbit = 0 if probe is None else 1 << probe
        acc = 0.0
        left = steps
        held = 0  # steps left in the current chunk
        while left:
            if not held:
                held = min(left, _RNG_BUFFER)
                draws = rng.random(2 * held)
                # Python scalars step faster than numpy ones and give the same
                # floats; the cast truncates u * len(active) as floor does
                picks = (draws[::2] * len(active)).astype(np.intp)
                chunk = zip(picks.tolist(), draws[1::2].tolist())
            # the steps up to the next read, or the rest of the chunk
            seg = until if until < held else held
            held -= seg
            left -= seg
            until -= seg
            for k, u in islice(chunk, seg) if held else chunk:
                v = active[k]
                vbit = 1 << v
                if covered & vbit:
                    # drop the polymer covering v; present polymers are disjoint
                    for j, i in enumerate(current):
                        if masks[i] & vbit:
                            del current[j]
                            break
                    covered = blocked = 0
                    for i in current:
                        covered |= masks[i]
                        blocked |= blocks[i]
                if blocked & vbit:
                    continue  # nothing through v fits: total is 1, the state stays
                key = blocked & reach[v]  # _Region.conditional, inlined
                if key:
                    hit = memo.get((v, key))
                    options, total = scan(v, key) if hit is None else hit
                else:
                    options, total = cands[v], totals[v]
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
                    covered |= masks[chosen]
                    blocked |= blocks[chosen]
            if not until:
                until = sweep
                rest = blocked  # the blocks of the polymers not covering probe
                if covered & pbit:
                    rest = 0
                    for i in current:
                        if not masks[i] & pbit:
                            rest |= blocks[i]
                key = rest & reach[probe]  # _Region.conditional, inlined
                if key:
                    hit = memo.get((probe, key))
                    total = (scan(probe, key) if hit is None else hit)[1]
                else:
                    total = totals[probe]
                acc += 1.0 / total
        self._covered, self._blocked = covered, blocked
        return None if probe is None else acc

    # -- state inspection ---------------------------------------------------

    def covered(self, v: int) -> bool:
        """Whether a present polymer covers v. No program path calls it: run
        reads the covered union inline. The name stays because perfbench's
        tracer patches it; the benchmark change that drops the patch
        deletes it."""
        return bool(self._covered >> v & 1)

    def current_polymers(self) -> tuple[Polymer, ...]:
        return tuple(self.table.polymers[i] for i in sorted(self._current))


def sample_polymer_config(
    table: CandidateTable, steps: int, rng: np.random.Generator
) -> tuple[Polymer, ...]:
    """The state a fresh whole-graph chain on the table reaches from the
    empty configuration in `steps` steps, as a sorted tuple of polymers: an
    approximate draw from the table's size-truncated polymer Gibbs law,
    whose neglected tail is the caller's responsibility. The caller sizes
    steps (the estimator's sampler takes default_mixing_steps)."""
    chain = PolymerChain(table, rng)
    chain.run(steps)
    return chain.current_polymers()
