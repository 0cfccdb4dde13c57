"""Exact ln Z and exact Gibbs draws, summing out the right side in closed form.

Once the left spins sigma_L are fixed, the right vertices are independent:

    Z = sum over sigma_L of prod over right v of sum_s prod_{u ~ v} H[sigma_u, s],

so an exact answer costs q^n left configurations of n factors each instead
of q^{2n} configurations. Right vertex v's factor depends only on the spins
of its neighbors, so it is read from a table over the q^deg(v) neighbor
assignments, one table per degree. Left configurations are indexed in mixed
radix base q with vertex 0 most significant, and are processed in blocks of
at most 2^14.

Nothing here calls the oracle: the oracle's naive q^{2n} sums are this
module's independent check (`verify.exact`).
"""

from __future__ import annotations

import numpy as np

from .logspace import LogSumAccumulator

_BLOCK = 1 << 14


def _decode(index: np.ndarray, q: int, width: int) -> np.ndarray:
    """Mixed-radix digits of each index, most significant first, one row
    per digit; shape (width, len)."""
    digits = np.empty((width, index.size), dtype=np.int64)
    rem = index.copy()
    for pos in range(width - 1, -1, -1):
        digits[pos] = rem % q
        rem //= q
    return digits


def _degree_groups(graph):
    """Right vertices grouped by degree: (right offsets j, neighbors (m, k))
    for vertex n+j, neighbors in increasing order."""
    by_degree: dict[int, list[int]] = {}
    for j in range(graph.n):
        by_degree.setdefault(len(graph.neighbors(graph.n + j)), []).append(j)
    groups = []
    for k, rights in sorted(by_degree.items()):
        nbrs = np.array([graph.neighbors(graph.n + j) for j in rights], dtype=np.int64)
        groups.append((np.array(rights, dtype=np.int64), nbrs.reshape(len(rights), k)))
    return groups


def _factor_table(matrix, k: int) -> np.ndarray:
    """ln sum_s prod_i H[a_i, s] for every neighbor assignment a in q^k,
    first neighbor most significant; -inf where no right spin is allowed."""
    logh = matrix.log_entries
    logs = np.zeros((1, matrix.q))
    for _ in range(k):
        logs = (logs[:, None, :] + logh[None, :, :]).reshape(-1, matrix.q)
    top = logs.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(logs - shift[:, None]).sum(axis=1))


def _left_blocks(graph, matrix):
    """Yield (start, log_weights) over the q^n left configurations in
    canonical order: log_weights[k] is ln of the total weight of the
    configurations whose left spins are configuration start + k."""
    q = matrix.q
    lookups = [(nbrs, _factor_table(matrix, nbrs.shape[1])) for _, nbrs in _degree_groups(graph)]
    total = q**graph.n
    for start in range(0, total, _BLOCK):
        spins = _decode(np.arange(start, min(start + _BLOCK, total), dtype=np.int64), q, graph.n)
        logs = np.zeros(spins.shape[1])
        for nbrs, table in lookups:
            # row r of codes: the table index of right vertex r's neighbor spins
            codes = np.zeros((nbrs.shape[0], spins.shape[1]), dtype=np.int64)
            for i in range(nbrs.shape[1]):
                codes *= q
                codes += spins[nbrs[:, i]]
            logs += table[codes].sum(axis=0)
        yield start, logs


def log_Z(graph, matrix) -> float:
    """ln Z_{G,H}, summed over the q^n left configurations."""
    acc = LogSumAccumulator()
    for _, logs in _left_blocks(graph, matrix):
        acc.add_array(logs)
    return acc.value


def left_log_weights(graph, matrix) -> np.ndarray:
    """Unnormalised log-marginal of every left configuration, canonical
    order; materialises q^n doubles."""
    out = np.empty(matrix.q**graph.n)
    for start, logs in _left_blocks(graph, matrix):
        out[start : start + logs.size] = logs
    return out


def right_conditionals(graph, matrix, left: np.ndarray) -> np.ndarray:
    """P(right vertex n+j takes s | left spins left[d]), proportional to
    prod_{u ~ n+j} H[left[d, u], s]; shape (len(left), n, q)."""
    logh = matrix.log_entries
    logs = np.empty((left.shape[0], graph.n, matrix.q))
    for rights, nbrs in _degree_groups(graph):
        logs[:, rights, :] = logh[left[:, nbrs]].sum(axis=2)
    probs = np.exp(logs - logs.max(axis=2, keepdims=True))
    return probs / probs.sum(axis=2, keepdims=True)


def sample(graph, matrix, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` exact Gibbs configurations; shape (count, 2n).

    One (count, n+1) block of uniforms is drawn in a single call and draw d
    reads row d: column 0 picks the left configuration from its marginal by
    inverse CDF, column 1+j picks right vertex n+j from its conditional.
    """
    n = graph.n
    uniforms = rng.random((count, n + 1))
    # build the CDF in place, so the draw holds one array of q^n doubles
    cdf = left_log_weights(graph, matrix)
    cdf -= cdf.max()
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    picks = np.searchsorted(cdf, uniforms[:, 0] * cdf[-1], side="right")
    out = np.empty((count, 2 * n), dtype=np.int64)
    out[:, :n] = _decode(np.minimum(picks, cdf.size - 1), matrix.q, n).T
    for lo in range(0, count, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        cum = np.cumsum(right_conditionals(graph, matrix, out[rows, :n]), axis=2)
        below = (cum <= uniforms[rows, 1:, None] * cum[:, :, -1:]).sum(axis=2)
        out[rows, n:] = np.minimum(below, matrix.q - 1)
    return out
