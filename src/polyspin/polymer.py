"""Biclique polymer model: deviation regions from a ground-state biclique.

Fix a maximal biclique (B_0, B_1). A polymer is a G^3-connected vertex set
together with a non-ground spin per vertex (ground spins on side i are
B_i). Its weight combines the internal edge factors, one boundary factor
F_u per neighbor of the region, and a ground-state count in the
denominator; see `PolymerModel.weight_log`, which weighs one polymer, and
`PolymerModel.weight_logs`, which weighs a list, each size class in one
numpy pass with the same additions in the same order, so both give the
same floats.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRangeError, ResourceLimitError, check_count, check_fraction
from .logspace import NEG_INF
from .spin_model import Biclique, InteractionMatrix, enumerate_maximal_bicliques

SIZE_FUZZ = 1e-9  # 2*eps*n can land one ulp under an integer; bound is inclusive
_BATCH_BLOCK = 256  # rows per block of _class_weight_logs; bounds its temporaries
_CODE_LIMIT = 1 << 14  # entries of _class_weight_logs' ln F_u table, indexed by code


@dataclass(frozen=True, order=True)
class Polymer:
    """Immutable vertex set with a spin per vertex (parallel sorted tuples)."""

    vertices: tuple[int, ...]
    spins: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InvalidRangeError("polymer needs a nonempty vertex set")
        if len(self.vertices) != len(self.spins):
            raise InvalidRangeError("vertices and spins must be parallel")
        vs = self.vertices
        if not all(map(operator.lt, vs, vs[1:])):
            raise InvalidRangeError("vertices must be sorted and distinct")

    def spin_map(self) -> dict[int, int]:
        return dict(zip(self.vertices, self.spins))


def are_compatible(graph, a: Polymer, b: Polymer) -> bool:
    """True iff the vertex sets are at G^3-distance greater than 1."""
    host = graph.host_adjacency
    avs = set(a.vertices)
    for v in b.vertices:
        if v in avs:
            return False
        for u in host[v]:
            if u in avs:
                return False
    return True


def connected_vertex_sets(neighbors, root: int, size_cap: int) -> list[tuple[int, ...]]:
    """All connected sets of at most size_cap vertices whose minimum is `root`.

    Exclusive-neighborhood growth: when a vertex joins the set, only its
    neighbors above `root` not already adjacent to the set enter the
    extension pool, so every set is emitted exactly once.
    """
    if size_cap < 1:
        return []
    out: list[tuple[int, ...]] = []

    def grow(members: list[int], ext: list[int], adjacent: set[int]):
        out.append(tuple(sorted(members)))
        if len(members) == size_cap:
            return
        if len(members) + 1 == size_cap:
            # the children are leaves: they need no extension pool
            out.extend(tuple(sorted(members + [w])) for w in ext)
            return
        for i, w in enumerate(ext):
            fresh = [u for u in neighbors[w] if u > root and u not in adjacent]
            grow(members + [w], ext[i + 1:] + fresh, adjacent | set(fresh))

    ext0 = [u for u in neighbors[root] if u > root]
    grow([root], ext0, {root} | set(ext0))
    return out


class PolymerModel:
    """Bundle of (graph, matrix, biclique, eps) defining one polymer model."""

    def __init__(
        self,
        graph,
        matrix: InteractionMatrix,
        biclique: Biclique,
        eps: float,
    ):
        check_fraction("eps", eps)
        # the boundary bound F_u <= |B_i|-1+delta needs maximality
        if biclique not in enumerate_maximal_bicliques(matrix):
            raise InvalidRangeError(f"{biclique} is not a maximal biclique of the matrix")
        self.graph = graph
        self.matrix = matrix
        self.biclique = biclique
        self.max_size = int(math.floor(2.0 * eps * graph.n + SIZE_FUZZ))
        q = matrix.q
        self._allowed_by_side = (
            tuple(s for s in range(q) if s not in biclique.b0),
            tuple(s for s in range(q) if s not in biclique.b1),
        )
        self.active_vertices = tuple(
            v for v in range(graph.num_vertices) if self._allowed_by_side[graph.side(v)]
        )
        self._tables: dict[int, "object"] = {}
        # per side: adjacent spins -> (F_u, ln F_u, cumulative weights); see boundary_entry
        self._boundary_memo: tuple[dict[tuple[int, ...], tuple], ...] = ({}, {})
        # weight_log's constants: ln H as plain floats, and ln|B_0|, ln|B_1|
        self._log_rows: list[list[float]] = matrix.log_entries.tolist()
        self._log_ground = (math.log(len(biclique.b0)), math.log(len(biclique.b1)))
        # the largest polymer size whose boundary codes in _class_weight_logs
        # (base-(q+1) spin digits, then a side bit) stay below _CODE_LIMIT
        self._batch_size_limit = max(s for s in range(64) if 2 * (q + 1) ** s <= _CODE_LIMIT)

    # -- weight -----------------------------------------------------------

    def weight_log(self, poly: Polymer) -> float:
        """ln of the polymer weight; -inf when any factor vanishes.

        Numerator: product of H over edges internal to the region, times
        F_u over boundary vertices u, where for u on side i
            F_u = sum_{j in B_i} prod_{v in region adjacent to u} H[j, s_v].
        Denominator: |B_i| to the power |side-i part of region + boundary|.

        The terms are added in one fixed order, which the pinned tables
        hash and which _class_weight_logs keeps bit for bit: ln H of the
        internal edges (polymer-vertex order, then adjacency order); ln F_u
        per boundary vertex, in the order first seen, its key being its
        polymer neighbours' spins in visit order; then -count0 ln|B_0| and
        -(the rest) ln|B_1|.
        """
        n = self.graph.n
        adjacency = self.graph.adjacency
        logh = self._log_rows
        spin = dict(zip(poly.vertices, poly.spins))
        acc = 0.0
        count0 = 0
        # per side: boundary vertex -> its region neighbors' spins. Sorted
        # vertices visit side 0 first, and side-0 vertices meet only side-1
        # neighbors, so every side-1 boundary vertex is seen before any side-0 one
        boundary: tuple[dict[int, tuple[int, ...]], ...] = ({}, {})
        for v, sv in spin.items():
            if v < n:
                count0 += 1
                seen = boundary[1]
            else:
                seen = boundary[0]
            for u in adjacency[v]:
                su = spin.get(u)
                if su is None:
                    seen[u] = seen.get(u, ()) + (sv,)
                elif u < v:
                    term = logh[su][sv]
                    if term == NEG_INF:
                        return NEG_INF
                    acc += term
        for side in (1, 0):
            memo = self._boundary_memo[side]
            for adjacent in boundary[side].values():
                entry = memo.get(adjacent)
                if entry is None:
                    entry = self.boundary_entry(side, adjacent)
                ln_f_u = entry[1]
                if ln_f_u == NEG_INF:
                    return NEG_INF
                acc += ln_f_u
        count0 += len(boundary[0])
        ln_b0, ln_b1 = self._log_ground
        acc -= count0 * ln_b0
        acc -= (len(spin) + len(boundary[0]) + len(boundary[1]) - count0) * ln_b1
        return acc

    def weight_logs(self, polymers: list[Polymer]) -> list[float]:
        """weight_log of each polymer, in order, bit for bit. Each size class
        up to _batch_size_limit is weighed in one _class_weight_logs pass; a
        larger one goes polymer by polymer through weight_log."""
        classes: dict[int, list[int]] = {}
        for k, poly in enumerate(polymers):
            classes.setdefault(len(poly.vertices), []).append(k)
        out = [0.0] * len(polymers)
        for size, rows in classes.items():
            if size <= self._batch_size_limit:
                vertices = np.array([polymers[k].vertices for k in rows], dtype=np.int32)
                spins = np.array([polymers[k].spins for k in rows], dtype=np.int32)
                weights = self._class_weight_logs(vertices, spins)
            else:
                weights = [self.weight_log(polymers[k]) for k in rows]
            for k, lw in zip(rows, weights):
                out[k] = lw
        return out

    def _class_weight_logs(self, vertices: np.ndarray, spins: np.ndarray) -> list[float]:
        """weight_log of each row of one size class, as plain floats.

        vertices and spins are (rows, s) int arrays, a polymer per row, with
        s at most _batch_size_limit. Each of weight_log's terms is a column,
        added in its order, and a visit that adds nothing adds 0.0 there,
        which leaves the sum exact (it is never -0.0); a -inf term keeps the
        row at -inf, as weight_log's early return does. Visit slot (i, k)
        is the k-th neighbour u of the i-th vertex: u's key lists the spins
        of its polymer neighbours in row order, coded as base-(q+1) digits
        and a side bit, and u adds ln F_u, read through boundary_entry and
        its memo, at the first slot that sees it. Rows go in blocks of
        _BATCH_BLOCK, so the temporaries stay small.
        """
        graph = self.graph
        n, total = graph.n, graph.num_vertices
        # per vertex its neighbours, padded with `total`, a vertex next to none
        width = max(map(len, graph.adjacency))
        nbr = np.full((total, width), total, dtype=np.int32)
        for v, row in enumerate(graph.adjacency):
            nbr[v, : len(row)] = row
        # flat (u, v) -> u ~ v, (2n+1)^2 bytes (1 MB at n = 512); an intp
        # stride keeps u * stride + v from wrapping in int32
        stride = np.intp(total + 1)
        adjacent = np.zeros(stride * stride, dtype=bool)
        edges = graph.edge_array
        adjacent[edges[:, 0] * stride + edges[:, 1]] = True
        adjacent[edges[:, 1] * stride + edges[:, 0]] = True
        logh = self.matrix.log_entries
        base = self.matrix.q + 1
        size = vertices.shape[1]
        owner = np.repeat(np.arange(size), width)  # the row position each slot visits from
        ln_f = np.zeros(2 * base**size)  # ln F_u by code
        ln_b0, ln_b1 = self._log_ground
        out: list[float] = []
        for start in range(0, len(vertices), _BATCH_BLOCK):
            vs = vertices[start : start + _BATCH_BLOCK]
            ss = spins[start : start + _BATCH_BLOCK]
            acc = np.zeros(len(vs))
            for i in range(size):
                for j in range(i):
                    edge = adjacent.take(vs[:, j] * stride + vs[:, i])
                    acc += np.where(edge, logh[ss[:, j], ss[:, i]], 0.0)
            us = nbr[vs].reshape(len(vs), -1)
            inside = np.zeros(us.shape, dtype=bool)
            seen = inside.copy()  # u is next to a vertex before the slot's own
            key = np.zeros(us.shape, dtype=np.int32)
            for j in range(size):
                near = adjacent.take(vs[:, j, None] * stride + us)
                inside |= us == vs[:, j, None]
                seen |= near & (j < owner)
                key = np.where(near, key * base + (ss[:, j, None] + 1), key)
            first = ~(inside | seen) & (us < total)
            far = us >= n
            codes = (key * 2 + far)[first]
            present = np.zeros(len(ln_f), dtype=bool)
            present[codes] = True
            for code in np.flatnonzero(present).tolist():
                side, rest = code & 1, code >> 1
                digits = []
                while rest:
                    rest, digit = divmod(rest, base)
                    digits.append(digit - 1)
                ln_f[code] = self.boundary_entry(side, tuple(digits[::-1]))[1]
            terms = np.zeros(us.shape)
            terms[first] = ln_f[codes]
            for column in terms.T:
                acc += column
            count0 = (vs < n).sum(axis=1) + (first & ~far).sum(axis=1)
            acc -= count0 * ln_b0
            acc -= (size + first.sum(axis=1) - count0) * ln_b1
            out.extend(acc.tolist())
        return out

    def boundary_entry(
        self, side: int, adjacent: tuple[int, ...]
    ) -> tuple[float, float, tuple[float, ...]]:
        """(F_u, ln F_u, cumulative) for u on `side` with region-neighbor
        spins `adjacent`.

        With weights[k] = prod_m H[B_side[k], adjacent[m]] for the k-th
        ground spin, F_u is their sum, ln F_u is -inf when F_u vanishes, and
        cumulative holds the running sums of the weights, for inverse-CDF
        picks. Memoised per model: the key keeps the spin order, so the
        product multiplies exactly as an uncached evaluation would.
        """
        memo = self._boundary_memo[side]
        entry = memo.get(adjacent)
        if entry is None:
            h = self.matrix.entries
            rows = list(self.biclique.side(side))
            weights = np.prod(h[np.ix_(rows, list(adjacent))], axis=1)
            f_u = float(weights.sum())
            cumulative = tuple(itertools.accumulate(weights.tolist()))
            entry = (f_u, math.log(f_u) if f_u > 0.0 else NEG_INF, cumulative)
            memo[adjacent] = entry
        return entry

    # -- enumeration --------------------------------------------------------

    def resolve_cap(self, size_cap: int | None = None) -> int:
        """The one size-cap rule: max_size for None, else min(size_cap, max_size);
        0 when the model admits no polymers (max_size 0 or no active vertex).
        Any request but None or an integer >= 0 raises InvalidRangeError."""
        if size_cap is not None:
            check_count("size_cap", size_cap, 0)
        cap = self.max_size if size_cap is None else min(size_cap, self.max_size)
        return cap if self.active_vertices else 0

    def enumerate_allowed(
        self, size_cap: int | None = None, *, budget: int = 1_000_000
    ) -> list[Polymer]:
        """Every allowed polymer of size <= resolve_cap(size_cap), once, sorted.

        Vertex sets come from exclusive-neighborhood growth over the host
        graph restricted to vertices that have a non-ground spin; each set
        is crossed with all non-ground spin assignments. Below cap 1 the
        list is empty, and the host graph is not built.
        """
        cap = self.resolve_cap(size_cap)
        if cap < 1:
            return []
        active = self.active_vertices
        active_set = set(active)
        host = {
            v: tuple(u for u in self.graph.host_adjacency[v] if u in active_set)
            for v in active
        }
        n = self.graph.n
        by_side = self._allowed_by_side
        out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for root in active:
            for vertex_set in connected_vertex_sets(host, root, cap):
                options = [by_side[v >= n] for v in vertex_set]
                if len(out) + math.prod(map(len, options)) > budget:
                    raise ResourceLimitError(
                        f"polymer enumeration exceeded budget {budget}"
                    )
                out.extend((vertex_set, combo) for combo in itertools.product(*options))
        # (vertices, spins) tuples sort as the Polymers do, without __lt__ calls
        out.sort()
        return [Polymer(vertices, spins) for vertices, spins in out]

