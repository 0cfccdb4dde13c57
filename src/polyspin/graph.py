"""Regular bipartite graphs: generation, spectra, expansion, the cubed host graph.

Vertex ids: left side 0..n-1, right side n..2n-1. Strict construction
enforces the working class (connected, Delta-regular with Delta >= 3);
`oracle_only=True` relaxes degree/regularity/connectivity so tiny brute
-force test graphs (C_8, K_{2,2}, a single edge) can still be built.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    GraphFormatError,
    InfeasibleError,
    InvalidRangeError,
    ResourceLimitError,
    check_seed,
)


class BipartiteRegularGraph:
    """Simple bipartite graph on n+n vertices with cached G^3 host adjacency."""

    def __init__(self, n: int, adjacency, *, oracle_only: bool = False):
        if n < 1:
            raise InvalidRangeError(f"need n >= 1, got {n}")
        adj = tuple(tuple(sorted(set(nbrs))) for nbrs in adjacency)
        if len(adj) != 2 * n:
            raise InvalidRangeError(f"adjacency must list all {2 * n} vertices")
        degrees = set()
        for v, nbrs in enumerate(adj):
            for u in nbrs:
                if not 0 <= u < 2 * n:
                    raise InvalidRangeError(f"vertex {v}: neighbor {u} out of range")
                if (v < n) == (u < n):
                    raise InvalidRangeError(f"edge {{{v},{u}}} stays on one side")
                if v not in adj[u]:
                    raise InvalidRangeError(f"adjacency not symmetric at {{{v},{u}}}")
            degrees.add(len(nbrs))
        regular = len(degrees) == 1
        max_degree = max(degrees) if degrees else 0
        if not oracle_only:
            if not regular:
                raise InvalidRangeError(f"graph is not regular (degrees {sorted(degrees)})")
            if max_degree < 3:
                raise InvalidRangeError(
                    f"working class needs degree >= 3, got {max_degree}"
                    " (pass oracle_only=True for lab graphs)"
                )
            if not _is_connected(adj):
                raise InvalidRangeError("working class requires a connected graph")
        self.n = n
        self.num_vertices = 2 * n
        self.adjacency = adj
        self.degree = max_degree  # common degree when regular, else max degree
        self.is_regular = regular
        edges = [(v, u) for v in range(n) for u in adj[v]]
        self.edge_array = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        self.num_edges = self.edge_array.shape[0]
        self._host = None

    # -- basic structure -------------------------------------------------

    def side(self, v: int) -> int:
        return 0 if v < self.n else 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def biadjacency(self) -> np.ndarray:
        """Dense n x n 0/1 matrix B with B[i, j] = 1 iff {i, n+j} is an edge."""
        b = np.zeros((self.n, self.n))
        for v in range(self.n):
            for u in self.adjacency[v]:
                b[v, u - self.n] = 1.0
        return b

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices))
        for v, nbrs in enumerate(self.adjacency):
            a[v, list(nbrs)] = 1.0
        return a

    # -- host graph G^3 --------------------------------------------------

    @property
    def host_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """For each v, the sorted vertices at G-distance 1..3 (host graph G^3).

        Built on first use, then read-only.
        """
        if self._host is None:
            self._host = self._build_host()
        return self._host

    def _build_host(self):
        adj = self.adjacency
        host = []
        for v in range(self.num_vertices):
            reach = set(adj[v])
            two = set()
            for u in adj[v]:
                two.update(adj[u])
            reach |= two
            for u in two:
                reach.update(adj[u])
            reach.discard(v)
            host.append(tuple(sorted(reach)))
        return tuple(host)

    # -- boundaries ---------------------------------------------------------

    def boundary(self, vertices) -> frozenset[int]:
        """Vertices outside the set with a G-neighbor inside it."""
        inside = set(vertices)
        out = set()
        for v in inside:
            for u in self.adjacency[v]:
                if u not in inside:
                    out.add(u)
        return frozenset(out)


def _is_connected(adjacency) -> bool:
    total = len(adjacency)
    if total == 0:
        return False
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == total


def _from_edges(n: int, edges, *, oracle_only: bool = False) -> BipartiteRegularGraph:
    adj = [[] for _ in range(2 * n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return BipartiteRegularGraph(n, adj, oracle_only=oracle_only)


def complete_bipartite(n: int) -> BipartiteRegularGraph:
    """K_{n,n}; n >= 3 gives a member of the working class."""
    edges = [(v, n + u) for v in range(n) for u in range(n)]
    return _from_edges(n, edges, oracle_only=n < 3)


def even_cycle(num_vertices: int) -> BipartiteRegularGraph:
    """C_{2n} laid out as a 2-regular bipartite graph (oracle-only: degree 2)."""
    if num_vertices < 4 or num_vertices % 2:
        raise InvalidRangeError("even_cycle needs an even vertex count >= 4")
    n = num_vertices // 2
    edges = [(i, n + i) for i in range(n)] + [(i, n + (i - 1) % n) for i in range(n)]
    return _from_edges(n, edges, oracle_only=True)


_MAX_RESTARTS = 200  # whole-graph constructions per generated graph
_MAX_MATCHING_TRIES = 200_000  # matching draws within one construction


def generate_random_regular_bipartite(n: int, degree: int, seed: int) -> BipartiteRegularGraph:
    """Uniform-ish random simple Delta-regular bipartite graph, seeded.

    Union of `degree` random perfect matchings; a matching colliding with
    an already-placed edge is resampled (whole-graph rejection is hopeless
    here: its acceptance probability decays like e^{-Delta(Delta-1)/2}).
    Disconnected results restart the whole construction. A seed outside
    [0, 2^64) raises InvalidRangeError (see errors.check_seed).
    """
    check_seed(seed)
    if degree < 3:
        raise InvalidRangeError(f"degree must be >= 3, got {degree}")
    if n < degree:
        raise InfeasibleError(f"no simple {degree}-regular bipartite graph on {n}+{n}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESTARTS):
        taken = [set() for _ in range(n)]  # right partners per left vertex
        tries = 0
        for _ in range(degree):
            while True:
                tries += 1
                if tries > _MAX_MATCHING_TRIES:
                    raise ResourceLimitError(f"exceeded {_MAX_MATCHING_TRIES} matching draws")
                perm = rng.permutation(n)
                if all(int(perm[v]) not in taken[v] for v in range(n)):
                    break
            for v in range(n):
                taken[v].add(int(perm[v]))
        adj = [[] for _ in range(2 * n)]
        for v in range(n):
            for u in taken[v]:
                adj[v].append(n + u)
                adj[n + u].append(v)
        if _is_connected([tuple(a) for a in adj]):
            return BipartiteRegularGraph(n, adj)
    raise ResourceLimitError(f"exceeded {_MAX_RESTARTS} whole-graph restarts")


# -- spectra ---------------------------------------------------------------


@dataclass(frozen=True)
class SpectralCertificate:
    """Second-largest adjacency eigenvalue lambda(G) of a regular graph."""

    lam: float


def second_eigenvalue(graph: BipartiteRegularGraph) -> SpectralCertificate:
    """lambda(G) as the second singular value of the biadjacency matrix B.

    The adjacency spectrum of a bipartite graph is plus and minus the
    singular values of B, and the top one is Delta by regularity. A value
    under Delta * 1e-12 is roundoff and is reported as 0.0, so K_{n,n}
    certifies lambda = 0 exactly.
    """
    if graph.n < 2:
        raise InvalidRangeError("second eigenvalue needs n >= 2")
    if not graph.is_regular:
        raise InvalidRangeError("spectral certificate requires a regular graph")
    lam = float(np.linalg.svd(graph.biadjacency(), compute_uv=False)[1])
    return SpectralCertificate(lam=lam if lam > graph.degree * 1e-12 else 0.0)


# -- expansion diagnostics ---------------------------------------------------


def check_expansion_inequalities(
    graph: BipartiteRegularGraph,
    lam: float,
    trials: int,
    seed: int,
) -> tuple[str, ...]:
    """Sample subset pairs / single-side subsets and test the three bounds.

    Returns one witness string per violation. The bounds are theorems for
    lam >= lambda(G), so the tuple should stay empty; violations are
    returned, not raised, to make lambda underestimates debuggable. A seed
    outside [0, 2^64) raises InvalidRangeError (see errors.check_seed).
    """
    check_seed(seed)
    n = graph.n
    deg = graph.degree
    rng = np.random.default_rng(seed)
    b = graph.biadjacency()
    # float roundoff guard; the bounds themselves are exact statements
    atol = 1e-9 * max(1.0, deg * n)
    violations: list[str] = []

    for t in range(trials):
        s0 = int(rng.integers(0, n + 1))
        s1 = int(rng.integers(0, n + 1))
        idx0 = rng.choice(n, size=s0, replace=False) if s0 else np.array([], dtype=int)
        idx1 = rng.choice(n, size=s1, replace=False) if s1 else np.array([], dtype=int)
        e = float(b[np.ix_(idx0, idx1)].sum()) if s0 and s1 else 0.0

        mean = deg * s0 * s1 / n
        bound = lam * math.sqrt(s0 * s1 * (1 - s0 / n) * (1 - s1 / n))
        slack = bound - abs(e - mean)
        if slack < -atol:
            violations.append(
                f"mixing: |e-mean|={abs(e - mean):.6g} > bound={bound:.6g} "
                f"(|S0|={s0}, |S1|={s1}, trial {t})"
            )

        if s0 and s1 and lam <= deg / (2 * n) * math.sqrt(s0 * s1):
            lower = deg * s0 * s1 / (2 * n)
            slack = e - lower
            if slack < -atol:
                violations.append(
                    f"edge expansion: e={e:.6g} < {lower:.6g} "
                    f"(|S0|={s0}, |S1|={s1}, trial {t})"
                )

        side = int(rng.integers(0, 2))
        s = int(rng.integers(1, n + 1))
        base = 0 if side == 0 else n
        idx = rng.choice(n, size=s, replace=False) + base
        rho = s / n
        lower = s / (rho + (lam / deg) ** 2 * (1 - rho))
        actual = len(graph.boundary(idx))
        slack = actual - lower
        if slack < -atol:
            violations.append(
                f"vertex expansion: |bd S|={actual} < {lower:.6g} "
                f"(|S|={s}, side {side}, trial {t})"
            )

    return tuple(violations)


# -- text format: "bipartite-regular n <n> delta <degree>", then "u v" lines --


def format_graph(graph: BipartiteRegularGraph) -> str:
    lines = [f"bipartite-regular n {graph.n} delta {graph.degree}"]
    for u, v in graph.edge_array:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str, *, oracle_only: bool = False) -> BipartiteRegularGraph:
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("line 1: empty graph file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "bipartite-regular" or head[1] != "n" or head[3] != "delta":
        raise GraphFormatError(
            "line 1: expected header 'bipartite-regular n <n> delta <degree>'"
        )
    try:
        n = int(head[2])
        degree = int(head[4])
    except ValueError as exc:
        raise GraphFormatError(f"line 1: {exc}") from exc
    edges = set()
    degrees = Counter()
    for k, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {k}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {k}: {exc}") from exc
        if not (0 <= u < n <= v < 2 * n):
            raise GraphFormatError(
                f"line {k}: edge ({u},{v}) violates 0 <= u < n <= v < 2n"
            )
        if (u, v) in edges:
            raise GraphFormatError(f"line {k}: duplicate edge {{{u},{v}}}")
        edges.add((u, v))
        degrees.update((u, v))
    # these checks read only the edge list, so a huge declared n is refused
    # before any per-vertex structure is allocated. A working-class graph has
    # exactly n * degree edges; every graph, relaxed ones too, must have the
    # declared degree as its largest vertex degree and no isolated vertex.
    if not oracle_only and len(edges) != n * degree:
        raise GraphFormatError(
            f"line 1: n {n} at degree {degree} needs {n * degree} edges, "
            f"found {len(edges)}"
        )
    top = max(degrees.values(), default=0)
    if top != degree:
        raise GraphFormatError(f"line 1: declared degree {degree} but graph has degree {top}")
    if len(degrees) < 2 * n:
        raise GraphFormatError(
            f"line 1: {2 * n - len(degrees)} of the {2 * n} declared vertices have no edge"
        )
    try:
        return _from_edges(n, edges, oracle_only=oracle_only)
    except InvalidRangeError as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path, *, oracle_only: bool = False) -> BipartiteRegularGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_graph(text, oracle_only=oracle_only)


def save_graph(graph: BipartiteRegularGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(graph))
