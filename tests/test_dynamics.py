from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspin import (
    Biclique,
    EstimatorConfig,
    PolymerChain,
    PolymerModel,
    dynamics,
    enumerate_maximal_bicliques,
    estimate_polymer_Z,
    estimator,
    even_cycle,
    generate_random_regular_bipartite,
    random_stream,
    sample_polymer_config,
)
from polyspin import polymer as polymer_module
from polyspin.dynamics import DRAW, EXACT, FILL, RATIO, candidate_table
from polyspin.errors import InvalidRangeError
from polyspin.estimator import _ratio
from polyspin.oracle import (
    exact_chain_analysis,
    exact_polymer_distribution,
)


@pytest.fixture
def k33_model(k33, hardcore) -> PolymerModel:
    return PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)


@pytest.fixture
def empty_model(k33, all_ones2) -> PolymerModel:
    return PolymerModel(k33, all_ones2, Biclique((0, 1), (0, 1)), 0.4)


# -- single steps ------------------------------------------------------------


def test_no_polymers_means_empty_forever(empty_model):
    chain = PolymerChain(candidate_table(empty_model, 1), random_stream(3, DRAW, 0, 0))
    chain.run(500)
    assert chain.current_polymers() == ()
    assert chain.steps_taken == 500


def test_left_vertices_admit_no_polymers(k33_model):
    # ground set on the left is the whole spin space, so only right
    # vertices are ever proposed
    chain = PolymerChain(candidate_table(k33_model, 1), random_stream(3, DRAW, 0, 0))
    assert chain.region.active == [3, 4, 5]
    assert 0 not in chain.region.active


def test_region_restricts_membership(k33_model):
    chain = PolymerChain(candidate_table(k33_model, 2), random_stream(0, DRAW, 0, 0), prefix=4)
    # only vertex 3 on the right is available; pairs exceed the region
    assert chain.region.active == [3]
    chain.run(200)
    for poly in chain.current_polymers():
        assert set(poly.vertices) <= {3}


def test_chain_reproducible(k33_model):
    table = candidate_table(k33_model, 2)

    def trajectory(rng):
        chain = PolymerChain(table, rng)
        states = []
        for _ in range(997):
            chain.run(1)
            states.append(chain.current_polymers())
        assert chain.steps_taken == 997
        return states

    key = (11, DRAW, 0, 5)
    base = trajectory(random_stream(*key))
    assert trajectory(random_stream(*key)) == base
    # changing any one slot of the key gives another stream, so another path
    for slot in range(4):
        other = list(key)
        other[slot] += 1
        assert trajectory(random_stream(*other)) != base, other
    with pytest.raises(InvalidRangeError):
        random_stream(-11, DRAW, 0, 5)


@pytest.mark.parametrize("steps", [-5, 2.5, True, "3", None])
def test_run_rejects_bad_step_counts(k33_model, steps):
    table = candidate_table(k33_model, 2)
    chain = PolymerChain(table, random_stream(3, DRAW, 0, 0))
    twin = PolymerChain(table, random_stream(3, DRAW, 0, 0))
    chain.run(10)
    twin.run(10)
    with pytest.raises(InvalidRangeError):
        chain.run(steps)
    assert chain.steps_taken == 10
    # the refused call consumed no randomness and changed no state
    chain.run(np.int64(50))
    twin.run(50)
    assert chain.steps_taken == twin.steps_taken == 60
    assert chain.current_polymers() == twin.current_polymers()


@pytest.mark.parametrize("probe", [-1, 6, True, 2.0])
def test_run_rejects_probes_outside_the_region(k33_model, probe):
    chain = PolymerChain(candidate_table(k33_model, 2), random_stream(3, DRAW, 0, 0))
    with pytest.raises(InvalidRangeError):
        chain.run(10, probe=probe)
    assert chain.steps_taken == 0
    assert chain.run(0, probe=5) == 0.0  # no full sweep, no read


# sha1 of current_polymers() after each of 5 000 single steps of a 3-Potts
# cap-3 chain on g12 d4, where most steps scan a partly blocked candidate
# list; pinned from the two-doubles step and checked against the same
# walk through _Region.conditional
_TRAJECTORY_DIGESTS = {
    None: "5945cf2f58e797a10e4a30bf52f15a55ae1b2ed2",
    18: "03d05275947e265a413568b60efed21c6d10b693",
}


@pytest.mark.parametrize("prefix", sorted(_TRAJECTORY_DIGESTS, key=str))
def test_dense_trajectory_pinned(potts3, prefix):
    graph = generate_random_regular_bipartite(12, 4, 1)
    model = PolymerModel(graph, potts3, enumerate_maximal_bicliques(potts3)[0], 0.5)
    chain = PolymerChain(candidate_table(model, 3), random_stream(12, DRAW, 0, 0), prefix=prefix)
    digest = hashlib.sha1()
    for _ in range(5000):
        chain.run(1)
        digest.update(repr(chain.current_polymers()).encode())
    assert digest.hexdigest() == _TRAJECTORY_DIGESTS[prefix]


# -- stream keys ----------------------------------------------------------------

_KEYS = st.tuples(
    st.integers(0, 2**64 - 1),  # every accepted seed
    st.sampled_from((RATIO, DRAW, FILL, EXACT)),
    st.integers(0, 1000),  # biclique
    st.integers(0, 10_000),  # chain: median run or draw index
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_KEYS, min_size=2, max_size=40, unique=True))
def test_stream_keys_are_distinct(keys):
    # distinct (seed, domain, biclique, chain) keys must seed distinct
    # Philox streams; compared through the seed state, no chain is run
    states = {
        tuple(random_stream(*key).bit_generator.seed_seq.generate_state(4))
        for key in keys
    }
    assert len(states) == len(keys)


def test_stream_key_slots_are_bounded():
    # a slot past 32 bits would spill into the next one and could collide
    with pytest.raises(InvalidRangeError):
        random_stream(0, DRAW, 0, 1 << 32)
    with pytest.raises(InvalidRangeError):
        random_stream(0, DRAW, -1, 0)
    # a seed outside [0, 2^64) is refused, not folded onto its residue
    for seed in (-1, 1 << 64):
        with pytest.raises(InvalidRangeError):
            random_stream(seed, DRAW, 0, 0)


# -- exact transition-matrix checks ----------------------------------------------


@pytest.mark.parametrize("cap", [1, 2])
def test_detailed_balance_and_stationarity(k33_model, cap):
    analysis = exact_chain_analysis(candidate_table(k33_model, cap))
    assert analysis.detailed_balance_violation <= 1e-12
    assert analysis.stationarity_violation <= 1e-10
    assert analysis.spectral_gap > 0.0


def test_gap_beyond_512_states(hardcore):
    # C28 hard-core, cap 1: the 14 right vertices form a 14-cycle in which
    # singletons one apart clash, so the states are its 843 independent sets
    model = PolymerModel(even_cycle(28), hardcore, Biclique((0, 1), (1,)), 0.4)
    analysis = exact_chain_analysis(candidate_table(model, 1))
    assert analysis.num_states == 843
    assert analysis.detailed_balance_violation <= 1e-12
    # the gap against the unsymmetrised transition matrix's own spectrum
    eigs = np.sort(np.linalg.eigvals(analysis.transition).real)
    assert analysis.spectral_gap == pytest.approx(1.0 - eigs[-2], abs=1e-9)
    assert analysis.spectral_gap > 0.0


def test_state_space_size_cap2(k33_model):
    # 3 singletons + 3 connected pairs, all mutually incompatible
    analysis = exact_chain_analysis(candidate_table(k33_model, 2))
    assert analysis.num_states == 7


def test_detailed_balance_three_spins(rand43, potts3):
    model = PolymerModel(rand43, potts3, Biclique((0,), (0,)), 0.4)
    analysis = exact_chain_analysis(candidate_table(model, 2))
    assert analysis.num_states <= 200
    assert analysis.detailed_balance_violation <= 1e-12
    assert analysis.stationarity_violation <= 1e-10


def test_removal_paths_have_positive_probability(k33_model):
    # irreducibility: each reachable state walks to the empty configuration
    # by dropping one polymer at a time, every step with positive probability
    analysis = exact_chain_analysis(candidate_table(k33_model, 2))
    index = {state: i for i, state in enumerate(analysis.states)}
    for state in analysis.states:
        current = state
        while current:
            smaller = current[:-1]
            assert analysis.transition[index[current], index[smaller]] > 0.0
            current = smaller


def test_analysis_reads_the_chain_kernel(k33_model, monkeypatch):
    # a normaliser taken before the covering polymer is dropped breaks
    # reversibility; the exact analysis must see it, because its rows come
    # from the same kernel the chain runs
    table = candidate_table(k33_model, 2)
    real = dynamics._Region.conditional

    def stale_normaliser(region, current, v):
        kept, options, total = real(region, current, v)
        log_weights = table.log_weights
        dropped = sum(math.exp(log_weights[i]) for i in current if i not in kept)
        return kept, options, total + dropped

    monkeypatch.setattr(dynamics._Region, "conditional", stale_normaliser)
    analysis = exact_chain_analysis(table)
    assert analysis.detailed_balance_violation > 1e-6


# sha1 of the transition matrix's bytes, K33 hard-core, pinned from the
# analysis that probed a stream-less chain for its rows
_TRANSITION_DIGESTS = {
    1: (4, "4f3556e480386347a4604483fd41a8a2d4eddeb2"),
    2: (7, "8f8c5287bb67df6688b4cfa62e75393b250546e4"),
}


@pytest.mark.parametrize("cap", sorted(_TRANSITION_DIGESTS))
def test_analysis_builds_no_chain(k33_model, monkeypatch, cap):
    # the rule lives on the table's region, so the analysis needs no chain
    def no_chain(*args, **kwargs):
        raise AssertionError("exact_chain_analysis built a PolymerChain")

    monkeypatch.setattr(PolymerChain, "__init__", no_chain)
    analysis = exact_chain_analysis(candidate_table(k33_model, cap))
    digest = hashlib.sha1(analysis.transition.tobytes()).hexdigest()
    assert (analysis.num_states, digest) == _TRANSITION_DIGESTS[cap]


def test_empty_model_analysis(empty_model):
    analysis = exact_chain_analysis(candidate_table(empty_model, 1))
    assert analysis.num_states == 1
    assert analysis.detailed_balance_violation == 0.0


def _naive_conditional(table, prefix, current, v):
    # the heat-bath conditional from its definition: every candidate through
    # v inside the region, checked pairwise against every polymer that stays
    masks = table.masks
    kept = [i for i in current if not masks[i] >> v & 1]
    zones = [table.blocks[i] for i in kept]
    options = []
    for c in table.by_vertex[v]:
        if c[0] >= 1 << prefix:
            continue
        for zone in zones:
            if c[0] & zone:
                break
        else:
            options.append(c)
    total = 1.0
    for _, w, _ in options:
        total += w
    return kept, options, total


@pytest.mark.parametrize("mname", ["hardcore", "potts3"])
@pytest.mark.parametrize("gname", ["k33", "c8", "g12"])
def test_conditional_matches_naive_filter(k33, c8, hardcore, potts3, gname, mname):
    graph = {"k33": k33, "c8": c8, "g12": generate_random_regular_bipartite(12, 4, 1)}[gname]
    matrix = {"hardcore": hardcore, "potts3": potts3}[mname]
    num = graph.num_vertices
    # the 3-Potts bicliques are images of one another under a spin permutation
    bicliques = enumerate_maximal_bicliques(matrix)[: 1 if mname == "potts3" else None]
    paths = {"free": 0, "blocked": 0}
    for biclique in bicliques:
        model = PolymerModel(graph, matrix, biclique, 0.5)
        for cap in (1, 2, 3):
            table = candidate_table(model, cap)
            whole = PolymerChain(table, random_stream(1, DRAW, 0, 0))
            index = {poly: i for i, poly in enumerate(table.polymers)}
            if (gname, mname, cap) == ("g12", "potts3", 3):
                # past the analysis' state budget: the states a chain visits
                visited = []
                for _ in range(300):
                    whole.run(1)
                    visited.append(whole.current_polymers())
            else:
                visited = exact_chain_analysis(table).states
            states = {tuple(sorted(index[p] for p in s)) for s in visited}
            part = num - graph.n // 2
            for prefix, region in ((num, whole.region), (part, dynamics._Region(table, part))):
                limit = 1 << prefix
                seen = {tuple(i for i in s if table.masks[i] < limit) for s in states}
                for state in sorted(seen):
                    for v in region.active:
                        naive = _naive_conditional(table, prefix, state, v)
                        assert region.conditional(list(state), v) == naive, (
                            biclique, cap, prefix, state, v,
                        )
                        free = _naive_conditional(table, prefix, (), v)
                        blocked = len(naive[1]) < len(free[1])
                        paths["blocked" if blocked else "free"] += 1
    # both the no-scan and the scanning branch were compared
    assert paths["free"] and paths["blocked"], paths


def _reference_steps(table, prefix, key):
    """The states of a chain keyed `key`, stepped through conditional; see
    _reference_walk."""
    return _reference_walk(_own_region(table, prefix), random_stream(*key), [])


def _own_region(table, prefix):
    """A fresh view of the region {0..prefix-1}, the whole graph for None:
    never the table's own, so its memo is the reference's alone."""
    return dynamics._Region(table, len(table.by_vertex) if prefix is None else prefix)


def _reference_walk(ref, rng, current):
    """Step the state `current` through ref.conditional on the region ref.

    Each step reads the next two doubles of rng: the first picks
    active[floor(u * len(active))], the second is the heat-bath uniform.
    They are drawn one step at a time, so a walk started on the same rng
    after a grow continues the stream. The reference reads its own region,
    never the table's, and empties its memo before every conditional, so
    each blocked read scans; yields (current, ref) after each step.
    """
    active = ref.active
    while True:
        pick, u = rng.random(2).tolist()
        ref.memo.clear()
        current, options, total = ref.conditional(current, active[math.floor(pick * len(active))])
        chosen = _heat_bath_draw(options, total, u)
        if chosen is not None:
            current = current + [chosen]
        yield current, ref


def _heat_bath_draw(options, total, u):
    """The reference's draw from a conditional's (options, total) at the
    uniform u: None (no polymer) when u * total < 1, else the table index
    of the option whose weight interval holds u * total - 1."""
    r = u * total
    if r < 1.0:
        return None
    r -= 1.0
    for _, w, i in options:
        if r < w:
            return i
        r -= w
    return options[-1][2]


def _random_states(table, limit, count, rng):
    """`count` random states of polymers lying below `limit`: each adds
    the region's polymers, in a random order, that fit the ones before."""
    inside = [i for i, m in enumerate(table.masks) if m < limit]
    states = []
    for _ in range(count):
        state, blocked = [], 0
        for i in rng.permutation(inside).tolist():
            if rng.random() < 0.5 and not table.masks[i] & blocked:
                state.append(i)
                blocked |= table.blocks[i]
        states.append(state)
    return states


@pytest.mark.parametrize("mname", ["hardcore", "potts3"])
@pytest.mark.parametrize("gname", ["k33", "c8", "g12"])
def test_bound_makes_skipped_steps_draw_nothing(k33, c8, hardcore, potts3, gname, mname):
    # run skips the heat-bath draw of every step with u * bound < 1, bound
    # being v's unblocked normaliser. That is exact when every conditional
    # total at v is at most bound (a blocked total adds a subset of the same
    # weights in the same order), and then u * total < 1 draws nothing
    graph = {"k33": k33, "c8": c8, "g12": generate_random_regular_bipartite(12, 4, 1)}[gname]
    matrix = {"hardcore": hardcore, "potts3": potts3}[mname]
    rng = np.random.default_rng(3)
    checked = {"cut": 0, "tight": 0}
    for biclique in enumerate_maximal_bicliques(matrix)[: 1 if mname == "potts3" else None]:
        model = PolymerModel(graph, matrix, biclique, 0.5)
        for cap in (1, 2, 3):
            table = candidate_table(model, cap)
            for prefix in (graph.num_vertices, graph.num_vertices - graph.n // 2):
                region = dynamics._Region(table, prefix)
                assert region.bound.tolist() == [region.totals[v] for v in region.active]
                for state in _random_states(table, 1 << prefix, 20, rng):
                    for idx, v in enumerate(region.active):
                        _, options, total = region.conditional(state, v)
                        bound = float(region.bound[idx])
                        assert total <= bound, (biclique, cap, prefix, state, v)
                        # the largest u with u * bound < 1, then random ones below
                        top = 1.0 / bound
                        while top * bound >= 1.0:
                            top = float(np.nextafter(top, 0.0))
                        below = [top, *(rng.random(8) * top).tolist()]
                        # run's numpy products, bound gathered as run gathers it, are Python's
                        gathered = region.bound[np.full(len(below), idx)]
                        assert (np.array(below) * gathered).tolist() == [u * bound for u in below]
                        for u in below:
                            assert _heat_bath_draw(options, total, u) is None, (v, u)
                        # past that u, a v whose candidates all fit draws a polymer
                        live = float(np.nextafter(top, 1.0))
                        assert live * bound >= 1.0
                        if len(options) == len(region.cands[v]) and live < 1.0:
                            assert total == bound
                            assert _heat_bath_draw(options, total, live) is not None
                            checked["tight"] += 1
                        checked["cut"] += total < bound
    # both a blocked total below the bound and a tight one were seen
    assert checked["cut"] and checked["tight"], checked


class _Doubles:
    """A stand-in stream that returns the given doubles in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def test_flag_keeps_steps_at_exactly_one(k33_model):
    # a step with u * bound == 1 exactly adds a polymer (r = 1 >= 1), so
    # run's flag must count it as one that may add; just below, nothing
    table = candidate_table(k33_model, None)
    region = table.region
    tight = 0
    for k, bound in enumerate(region.bound.tolist()):
        u = 1.0 / bound
        if u * bound != 1.0:
            continue
        pick = (k + 0.5) / len(region.active)
        below = float(np.nextafter(u, 0.0))
        assert below * bound < 1.0
        for uniform, adds in ((u, True), (below, False)):
            chain = PolymerChain(table, _Doubles([pick, uniform]))
            chain.run(1)
            drawn = _heat_bath_draw(region.cands[region.active[k]], bound, uniform)
            assert chain._current == ([] if drawn is None else [drawn])
            assert bool(chain._current) is adds
        tight += 1
    assert tight


def test_picks_stay_in_the_active_list():
    # the largest double random returns, 1 - 2^-53, picks the last vertex
    # of every active list up to 2^16 long, in run's cast and in floor
    top = 1.0 - 2.0**-53
    assert top == np.nextafter(1.0, 0.0)
    sizes = np.arange(1, 2**16 + 1)
    assert ((top * sizes).astype(np.intp) == sizes - 1).all()
    assert all(math.floor(top * a) == a - 1 for a in range(1, 2**16 + 1))


def _check_lockstep(table, prefix, steps, probe_steps):
    """Compare run with the reference for `steps` single steps, then the
    probe's sum over probe_steps // sweep sweeps; returns the memo clears."""
    key = (5, DRAW, 0, 0)
    chain = PolymerChain(table, random_stream(*key), prefix=prefix)
    reference = _reference_steps(table, prefix, key)
    clears = 0
    for step in range(steps):
        size = chain.region.memo_size
        chain.run(1)
        current, _ = next(reference)
        assert sorted(chain._current) == sorted(current), (prefix, step)
        covered = blocked = 0
        for i in current:
            covered |= table.masks[i]
            blocked |= table.blocks[i]
        assert (chain._covered, chain._blocked) == (covered, blocked), (prefix, step)
        # the memo stays within its bound, and its size counts what it holds
        assert chain.region.memo_size <= chain.region.memo_limit
        assert chain.region.memo_size == sum(1 + len(o) for o, _ in chain.region.memo.values())
        clears += chain.region.memo_size < size
    # the probe reads the conditional after every full sweep
    probe = chain.region.active[-1]
    sweep = len(chain.region.active)
    sweeps = probe_steps // sweep
    chain = PolymerChain(table, random_stream(*key), prefix=prefix)
    reference = _reference_steps(table, prefix, key)
    expected = 0.0
    for _ in range(sweeps):
        for _ in range(sweep):
            current, ref = next(reference)
        ref.memo.clear()
        expected += 1.0 / ref.conditional(current, probe)[2]
    assert chain.run(sweeps * sweep + sweep - 1, probe=probe) == expected
    for _ in range(sweep - 1):
        current, _ = next(reference)
    assert sorted(chain._current) == sorted(current)
    return clears


@pytest.mark.parametrize("mname", ["hardcore", "potts3"])
@pytest.mark.parametrize("gname", ["k33", "c8", "g12"])
def test_run_matches_conditional_steps(k33, c8, hardcore, potts3, gname, mname):
    # run's incremental unions and memo against the conditional, stepped
    # with the same picks and uniforms; the probe's call spans two chunks
    graph = {"k33": k33, "c8": c8, "g12": generate_random_regular_bipartite(12, 4, 1)}[gname]
    matrix = {"hardcore": hardcore, "potts3": potts3}[mname]
    bicliques = enumerate_maximal_bicliques(matrix)[: 1 if mname == "potts3" else None]
    for biclique in bicliques:
        model = PolymerModel(graph, matrix, biclique, 0.5)
        for cap in (1, 2, 3):
            for prefix in (None, graph.num_vertices - graph.n // 2):
                table = candidate_table(model, cap)
                _check_lockstep(table, prefix, 400, 2 * dynamics._RNG_BUFFER)


def test_memo_fills_and_clears_within_its_bound(hardcore):
    # g32 d4, the benchmark's telescope instance: its memo first clears
    # after about 19 500 single steps, where the small graphs' memos never
    # do. run fills the memo only on steps that may add a polymer, so the
    # walk must be that long to reach a clear
    graph = generate_random_regular_bipartite(32, 4, 1)
    model = PolymerModel(graph, hardcore, enumerate_maximal_bicliques(hardcore)[0], 0.1)
    assert _check_lockstep(candidate_table(model, 2), None, 24000, 640) >= 1


def _reference_probe_sums(table, prefix, key, probe, calls):
    """Per run call of calls[c] steps, the sum of 1/total of the reference's
    conditional at probe after each full sweep counted from the call's
    start, and the reads whose options were cut by a blocked candidate."""
    reference = _reference_steps(table, prefix, key)
    sweep = len(_own_region(table, prefix).active)
    sums, cut = [], 0
    for steps in calls:
        acc = 0.0
        for t in range(1, steps + 1):
            current, ref = next(reference)
            if t % sweep == 0:
                ref.memo.clear()
                _, options, total = ref.conditional(current, probe)
                acc += 1.0 / total
                cut += 0 < len(options) < len(ref.cands[probe])
        sums.append(acc)
    return sums, cut


# call lengths whose boundaries fall mid-sweep for every sweep below, one
# of them empty, and one long enough to take two chunks
_PROBE_CALLS = (5, 37, 0, 1, 4201, 100, 3, 250)


@pytest.mark.parametrize("case", ["k33", "k33-one-active", "g12"])
def test_probe_sums_split_over_calls(k33, hardcore, case):
    # each call reads after its own full sweeps, its trailing part sweep
    # unread, and an empty call reads nothing. On region {0..3} of K33
    # vertex 3 is the one active vertex, so every step is a sweep and is
    # read; on g12 cap 2 the probe's candidates are often partly blocked,
    # so its reads take a non-zero key through the memo or a scan
    if case == "g12":
        graph = generate_random_regular_bipartite(12, 4, 1)
        model = PolymerModel(graph, hardcore, enumerate_maximal_bicliques(hardcore)[0], 0.5)
    else:
        model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.4)
    table = candidate_table(model, 2)
    prefix = 4 if case == "k33-one-active" else None
    key = (5, DRAW, 0, 0)
    chain = PolymerChain(table, random_stream(*key), prefix=prefix)
    probe = chain.region.active[-1]
    sums, cut = _reference_probe_sums(table, prefix, key, probe, _PROBE_CALLS)
    assert [chain.run(steps, probe=probe) for steps in _PROBE_CALLS] == sums
    assert sums[2] == 0.0
    if case == "k33-one-active":
        assert chain.region.active == [3]
        assert sums[3] > 0.0
    if case == "g12":
        assert cut > 0


# -- sampling --------------------------------------------------------------------


def test_sample_polymer_config_empty_model(empty_model):
    table = candidate_table(empty_model, 1)
    assert len(table) == 0 and table.size_cap == 0
    assert sample_polymer_config(table, 500, random_stream(4, DRAW, 0, 0)) == ()


def test_sample_reproducible(k33_model):
    table = candidate_table(k33_model, 2)
    a = sample_polymer_config(table, 300, random_stream(9, DRAW, 0, 0))
    b = sample_polymer_config(table, 300, random_stream(9, DRAW, 0, 0))
    assert a == b


def test_ergodic_average_matches_enumeration(k33_model):
    # long-run mean of the polymer count against the exact expectation
    configs, probs = exact_polymer_distribution(k33_model, 2)
    expect = float(sum(p * len(c) for c, p in zip(configs, probs)))
    chain = PolymerChain(candidate_table(k33_model, 2), random_stream(2, DRAW, 0, 0))
    chain.run(2000)
    total = 0
    steps = 60_000
    for _ in range(steps):
        chain.run(1)
        total += len(chain.current_polymers())
    mean = total / steps
    # 3 standard errors with a generous correlation allowance
    var = float(sum(p * (len(c) - expect) ** 2 for c, p in zip(configs, probs)))
    stderr = math.sqrt(var / steps) * 6.0
    assert abs(mean - expect) <= 3.0 * stderr + 1e-3


# -- uncovered ratio ---------------------------------------------------------------


def test_uncovered_ratio_no_polymers(empty_model, monkeypatch):
    # an empty table leaves the telescope no region to visit: ln Z is 0
    # exactly, with no ratio taken and no step
    assert not candidate_table(empty_model, 1)

    def no_ratio(*args):
        raise AssertionError("a ratio was taken on an empty table")

    monkeypatch.setattr(estimator, "_ratio", no_ratio)
    for mode in ("lab", "strict"):
        ln_z, steps, var = estimate_polymer_Z(
            empty_model, EstimatorConfig(size_cap=1), 0.2, 1, mode=mode
        )
        assert (ln_z, steps) == (0.0, 0)
        # strict reports no variance
        assert (var == 0.0) if mode == "lab" else math.isnan(var)


@pytest.mark.parametrize("mname", ["hardcore", "potts3"])
@pytest.mark.parametrize("gname", ["k33", "c8", "g12"])
def test_telescope_visits_exactly_the_covered_regions(
    k33, c8, hardcore, potts3, monkeypatch, gname, mname
):
    # region i's ratio is 1 exactly unless some region polymer covers its
    # last vertex i-1; the telescope must visit those regions and no other
    graph = {"k33": k33, "c8": c8, "g12": generate_random_regular_bipartite(12, 4, 1)}[gname]
    matrix = {"hardcore": hardcore, "potts3": potts3}[mname]
    visited = []

    def recording(chain, *args):
        visited.append(chain.prefix)
        return 1.0, 0.0

    monkeypatch.setattr(estimator, "_ratio", recording)
    for biclique in enumerate_maximal_bicliques(matrix):
        model = PolymerModel(graph, matrix, biclique, 0.5)
        for cap in (1, 2, 3):
            visited.clear()
            estimate_polymer_Z(model, EstimatorConfig(size_cap=cap), 0.5, 1)
            table = candidate_table(model, cap)
            covered = []
            for i in range(1, graph.num_vertices + 1):
                if dynamics._Region(table, i).active[-1:] == [i - 1]:
                    covered.append(i)
            assert visited and visited == covered, (biclique, cap)


def test_uncovered_ratio_matches_exact(k33_model):
    configs, probs = exact_polymer_distribution(k33_model, 1)
    # ratio 6: vertex 5 uncovered in region {0..5}
    exact = float(
        sum(p for c, p in zip(configs, probs) if all(5 not in poly.vertices for poly in c))
    )
    assert exact == pytest.approx(10.0 / 11.0, abs=1e-12)
    m = 10_000
    chain = PolymerChain(candidate_table(k33_model, 1), random_stream(6, RATIO, 0, 0), prefix=6)
    # the config gives strict mode's burn-in its mixing constant
    est, _ = _ratio(chain, EstimatorConfig(), m, math.nan, "strict")
    # samples one sweep apart are nearly independent; allow for correlation
    stderr = 2.0 * math.sqrt(exact * (1 - exact) / m)
    assert abs(est - exact) <= 3.0 * stderr


# -- region growth -----------------------------------------------------------------


def test_whole_graph_chains_share_the_tables_region(k33_model, monkeypatch):
    # a table builds its whole-graph region lazily, once: every whole-graph
    # chain on it reads that one region and its memo, whichever routine
    # made the chain, and a smaller region is a chain's own
    table = candidate_table(k33_model, 2)
    other = candidate_table(k33_model, 1)
    regions = []
    real_grow = PolymerChain.grow

    def recording(chain, prefix):
        real_grow(chain, prefix)
        regions.append((chain.prefix, chain.region))

    monkeypatch.setattr(PolymerChain, "grow", recording)
    chain = PolymerChain(other, random_stream(0, RATIO, 0, 0), prefix=4)
    chain.grow(5)
    chain.run(20)
    assert "region" not in vars(other) and "region" not in vars(table)
    PolymerChain(table, random_stream(0, DRAW, 0, 0)).run(20)
    sample_polymer_config(table, 20, random_stream(0, DRAW, 0, 1))
    # the analysis reads the rule on the table's region, and builds no chain
    read = []
    real_conditional = dynamics._Region.conditional

    def reading(region, current, v):
        read.append(region)
        return real_conditional(region, current, v)

    monkeypatch.setattr(dynamics._Region, "conditional", reading)
    exact_chain_analysis(table)
    assert read and all(region is table.region for region in read)
    # the telescope's last region, 6, is the whole graph
    estimate_polymer_Z(k33_model, EstimatorConfig(size_cap=2), 0.5, 1)
    whole = [region for prefix, region in regions if prefix == 6]
    assert len(whole) == 3 and all(region is table.region for region in whole)
    assert "region" not in vars(other)
    parts = [region for prefix, region in regions if prefix < 6]
    assert len({id(region) for region in parts}) == len(parts) >= 3
    assert table.region.memo_limit == dynamics.MEMO_FACTOR * sum(map(len, table.by_vertex))


def test_grow_refuses_shrinking_or_overflowing(k33_model):
    table = candidate_table(k33_model, 2)
    # True was region {0}; 2.5 and "3" raised a bare TypeError
    for prefix in (True, 2.5, "3", -1, 7):
        with pytest.raises(InvalidRangeError):
            PolymerChain(table, random_stream(0, RATIO, 0, 0), prefix=prefix)
    chain = PolymerChain(table, random_stream(0, RATIO, 0, 0), prefix=4)
    region = chain.region
    # 6.0 was stored as the prefix before the region build raised
    for prefix in (3, 7, True, 5.0, 6.0, "5"):
        with pytest.raises(InvalidRangeError):
            chain.grow(prefix)
    assert chain.prefix == 4 and chain.region is region
    chain.grow(np.int64(6))
    assert chain.region.active == [3, 4, 5]


# (prefix, run call lengths) per grow, all over the same 5 400 steps with
# the same region at every step: grows that fall mid-chunk, an empty call,
# a call of two chunks, single steps and a repeated grow
_GROW_PLANS = {
    "whole": ((13, (100,)), (17, (5000,)), (24, (300,))),
    "pieces": ((13, (37, 63)), (17, (0, 4096)), (17, (904,)), (24, (299, 1))),
    "steps": ((13, (1,) * 100), (17, (2500, 2500)), (24, (1,) * 300)),
}


@pytest.mark.parametrize("plan", sorted(_GROW_PLANS))
def test_any_split_over_runs_and_grows_gives_the_reference_chain(hardcore, plan):
    # g12 hard-core: regions 13, 17 and 24 have 1, 5 and 12 active vertices
    graph = generate_random_regular_bipartite(12, 4, 1)
    model = PolymerModel(graph, hardcore, enumerate_maximal_bicliques(hardcore)[0], 0.5)
    table = candidate_table(model, 2)
    key = (0, RATIO, 0, 0)
    chain = PolymerChain(table, random_stream(*key), prefix=13)
    rng = random_stream(*key)
    current = []
    for prefix, calls in _GROW_PLANS[plan]:
        chain.grow(prefix)
        reference = _reference_walk(_own_region(table, prefix), rng, current)
        for steps in calls:
            chain.run(steps)
            for _ in range(steps):
                current, _ = next(reference)
            assert sorted(chain._current) == sorted(current), (prefix, chain.steps_taken)
    assert chain.steps_taken == 5400
    # grow drew nothing: both streams stand at double 2 * 5400
    assert chain._rng.random() == rng.random()


def test_chain_params_validation(k33, hardcore, k33_model, empty_model):
    # chain_params and enumerate_allowed resolve a request through
    # model.resolve_cap, the one statement of the cap rule
    assert k33_model.max_size == 2
    config = EstimatorConfig(size_cap=1, mixing_constant=2.0, eps_override=0.4)
    assert config.chain_params(k33_model) == config
    # models that admit no polymers resolve to cap 0, which chain_params
    # refuses: max_size 0, or max_size 2 but no vertex with a non-ground spin
    tiny = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.1)
    assert tiny.max_size == 0 and empty_model.max_size == 2
    for model, caps in ((k33_model, [2, 1, 2, 2]), (empty_model, [0] * 4), (tiny, [0] * 4)):
        requests = (None, 1, model.max_size, model.max_size + 5)
        assert [model.resolve_cap(r) for r in requests] == caps
        for request, cap in zip(requests, caps):
            if cap:
                assert EstimatorConfig(size_cap=request).chain_params(model).size_cap == cap
            else:
                with pytest.raises(InvalidRangeError):
                    EstimatorConfig(size_cap=request).chain_params(model)
            sizes = [len(p.vertices) for p in model.enumerate_allowed(request)]
            assert max(sizes, default=0) == cap


def test_one_table_per_resolved_cap(k33, hardcore):
    # requests that resolve to one cap share one table
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.5)
    assert model.max_size == 3
    table = dynamics.candidate_table(model, None)
    assert dynamics.candidate_table(model, model.max_size) is table
    assert dynamics.candidate_table(model, model.max_size + 5) is table
    assert len(table) == 7 and list(model._tables) == [3]


@pytest.mark.parametrize("cap_request", [1.5, 2.5, -1, True, "2", None])
def test_cap_requests_refuse_non_integers(k33, hardcore, cap_request):
    # 1.5 built an uncapped table recorded as size_cap=1.5, -1 an empty one,
    # True was cap 1 and "2" raised a bare TypeError; None is the default
    model = PolymerModel(k33, hardcore, Biclique((0, 1), (1,)), 0.5)
    routes = (
        model.resolve_cap,
        model.enumerate_allowed,
        lambda cap: candidate_table(model, cap),
        lambda cap: dynamics.CandidateTable(model, cap),
        lambda cap: exact_polymer_distribution(model, cap),
    )
    for route in routes:
        if cap_request is None:
            route(cap_request)
        else:
            with pytest.raises(InvalidRangeError):
                route(cap_request)
    assert list(model._tables) == ([3] if cap_request is None else [])
    # 0 and integer types are requests too: 0 is the empty table
    assert model.resolve_cap(0) == 0 and not candidate_table(model, np.int64(0))
    assert model.resolve_cap(np.int64(2)) == 2


# sha1 of (masks, blocks, log weights as float.hex) over every maximal
# biclique and caps 1-3 at eps=0.5, pinned from the uncached weight_log
_TABLE_DIGESTS = {
    ("k33", "hardcore"): "031d0d9e3dcd1f490cc6b9ea71ecb96fb2253aed",
    ("k33", "potts3"): "8f7da48595dbfc21a27c28e133492e81694d67bc",
    ("c8", "hardcore"): "688fb4203f92b72a251f77169b1d1e2aab657056",
    ("c8", "potts3"): "bc72376e1d02d17e71452eb3248daa981d41eb7d",
    ("g12", "hardcore"): "e191b9167fd96e9e134dadf9996df8a35e4909db",
    ("g12", "potts3"): "05f3a2fd55ecd6161cd852cb628ee9255af91ae3",
}


@pytest.mark.parametrize("route", ["scalar", "batch"])
def test_candidate_tables_pinned(k33, c8, hardcore, potts3, route, monkeypatch):
    # every size class through the batch route, or (no boundary code fits
    # the code table, so _batch_size_limit is 0) every one through weight_log
    if route == "scalar":
        monkeypatch.setattr(polymer_module, "_CODE_LIMIT", 2)
    graphs = {"k33": k33, "c8": c8, "g12": generate_random_regular_bipartite(12, 4, 1)}
    matrices = {"hardcore": hardcore, "potts3": potts3}
    for (gname, mname), expected in _TABLE_DIGESTS.items():
        digest = hashlib.sha1()
        for biclique in enumerate_maximal_bicliques(matrices[mname]):
            model = PolymerModel(graphs[gname], matrices[mname], biclique, 0.5)
            for cap in (1, 2, 3):
                table = dynamics.CandidateTable(model, cap)
                lws = [float(lw).hex() for lw in table.log_weights]
                digest.update(repr((table.masks, table.blocks, lws)).encode())
        assert digest.hexdigest() == expected, (gname, mname)


def test_benchmark_tables_pinned(hardcore):
    # the set-up benchmark's cap-3 tables at eps 0.1: degree 8 gives a polymer
    # 8 to 24 boundary terms, where the fixtures above give at most 12
    graph = generate_random_regular_bipartite(24, 8, 1)
    expected = [
        (2307, "af16c342723b2556b76e36b54b55a72dba953f9a"),
        (2311, "2b65469d4362af8365afb241885e4421c37c7793"),
    ]
    found = []
    for biclique in enumerate_maximal_bicliques(hardcore):
        table = dynamics.CandidateTable(PolymerModel(graph, hardcore, biclique, 0.1), 3)
        lws = [float(lw).hex() for lw in table.log_weights]
        digest = hashlib.sha1(repr((table.masks, table.blocks, lws)).encode()).hexdigest()
        found.append((len(table), digest))
    assert found == expected
