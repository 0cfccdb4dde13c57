"""Interaction matrices, bicliques, premise checks.

Spins are 0-based: [q] = {0, ..., q-1}. An interaction matrix is kept in
normalized form (largest entry exactly 1, every other entry <= delta for a
stored delta in (0, 1)); `normalize_matrix` brings a raw matrix into this
form and reports the log-scale factor that restores raw-matrix weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroMatrixError,
    AsymmetricMatrixError,
    ConstantMatrixError,
    InvalidRangeError,
    MatrixFormatError,
)

DEFAULT_DELTA = 0.5  # used when every non-1 entry is 0 and any delta in (0,1) works


def _check_entries(arr: np.ndarray) -> None:
    """Refuse a matrix that is not square q x q with q >= 2 or whose entries
    are not finite, symmetric and nonnegative."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidRangeError(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InvalidRangeError(f"need q >= 2 spins, got q={arr.shape[0]}")
    # checked before symmetry: nan != nan would read as an asymmetric matrix
    if not np.all(np.isfinite(arr)):
        raise InvalidRangeError("matrix entries must be finite")
    if not np.array_equal(arr, arr.T):
        raise AsymmetricMatrixError("matrix must be symmetric (exact equality)")
    if np.any(arr < 0.0):
        raise InvalidRangeError("matrix entries must be nonnegative")


class InteractionMatrix:
    """Symmetric nonnegative q x q matrix with max entry 1 and gap delta.

    Immutable after construction; `log_entries` carries ln of each entry
    with -inf standing in for exact zeros.
    """

    __slots__ = ("q", "entries", "delta", "log_entries")

    def __init__(self, entries, delta: float):
        arr = np.array(entries, dtype=float)
        arr.setflags(write=False)
        _check_entries(arr)
        if arr.max() != 1.0:
            raise InvalidRangeError("normalized matrix must have max entry exactly 1")
        if not (0.0 < delta < 1.0):
            raise InvalidRangeError(f"delta must lie in (0,1), got {delta}")
        off = arr[arr != 1.0]
        if off.size and off.max() > delta:
            raise InvalidRangeError(
                f"entry {off.max()} exceeds delta={delta} but is not 1"
            )
        self.q = arr.shape[0]
        self.entries = arr
        self.delta = float(delta)
        with np.errstate(divide="ignore"):
            logs = np.log(arr)
        logs.setflags(write=False)
        self.log_entries = logs

    def __repr__(self) -> str:
        return f"InteractionMatrix(q={self.q}, delta={self.delta})"


@dataclass(frozen=True, order=True)
class Biclique:
    """Spin-set pair (b0, b1) with every cross entry equal to 1.

    Sides are stored as sorted tuples; both must be nonempty (empty-sided
    pairs contribute 0 to every mixture and are excluded throughout).
    """

    b0: tuple[int, ...]
    b1: tuple[int, ...]

    def __post_init__(self):
        if not self.b0 or not self.b1:
            raise InvalidRangeError("biclique sides must be nonempty")
        object.__setattr__(self, "b0", tuple(sorted(self.b0)))
        object.__setattr__(self, "b1", tuple(sorted(self.b1)))

    def side(self, i: int) -> tuple[int, ...]:
        return self.b0 if i == 0 else self.b1


def normalize_matrix(raw):
    """Scale a raw symmetric nonnegative matrix to normalized form.

    Returns (matrix, log_scale) with log_scale = ln(max entry), so that
    ln Z(raw) = |E| * log_scale + ln Z(normalized) on any graph. delta is
    the second-largest distinct scaled value (the smallest valid choice);
    when that value is 0 any delta in (0,1) works and DEFAULT_DELTA is
    stored.
    """
    arr = np.array(raw, dtype=float)
    _check_entries(arr)
    top = float(arr.max())
    if top == 0.0:
        raise AllZeroMatrixError("all entries are zero; Z=0 on any nonempty graph")
    if float(arr.min()) == top:
        raise ConstantMatrixError(
            "all entries equal; Z = q^|V| * c^|E| in closed form"
        )
    scaled = arr / top
    second = float(scaled[scaled != 1.0].max())
    delta = second if second > 0.0 else DEFAULT_DELTA
    return InteractionMatrix(scaled, delta), math.log(top)


def enumerate_maximal_bicliques(matrix: InteractionMatrix) -> list[Biclique]:
    """All inclusion-maximal bicliques with both sides nonempty, sorted by
    (b0, b1); PolymerModel admits exactly these.

    (B0, B1) is maximal iff B1 is the set of columns where every row of B0
    has a 1, and B0 the set of rows whose 1-columns contain B1. Closing
    each nonempty row set this way reaches every maximal biclique (from its
    own B0), so the closed nonempty B1 sets list them all. The 2^q x 2^q
    pair scan survives as the test oracle.
    """
    q = matrix.q
    ones = [frozenset(np.flatnonzero(row == 1.0).tolist()) for row in matrix.entries]
    closed = {
        frozenset.intersection(*(ones[i] for i in rows))
        for size in range(1, q + 1)
        for rows in itertools.combinations(range(q), size)
    }
    closed.discard(frozenset())
    return sorted(
        Biclique(tuple(i for i in range(q) if ones[i] >= b1), tuple(b1)) for b1 in closed
    )


@dataclass(frozen=True)
class PremiseReport:
    """Outcome of the degree/spectral-gap premise check.

    epsilon and tau follow the closed forms
        epsilon = (1 - delta) / (50 q ln(q Delta))
        tau     = (1 - delta) / (4 epsilon q)
    and tau_ok records tau >= 5 + 3 ln((q-1) Delta^3), the constant the
    sampling condition needs.
    """

    degree_gap_ok: bool
    degree_ok: bool
    epsilon: float
    tau: float
    tau_ok: bool
    details: tuple[str, ...] = field(default=())

    @property
    def all_ok(self) -> bool:
        return self.degree_gap_ok and self.degree_ok and self.tau_ok


def proof_epsilon(matrix: InteractionMatrix, degree: int) -> float:
    """The closeness level the analysis fixes: (1-delta)/(50 q ln(q Delta))."""
    return (1.0 - matrix.delta) / (50.0 * matrix.q * math.log(matrix.q * degree))


def check_premises(matrix: InteractionMatrix, degree: int, lam: float) -> PremiseReport:
    """Evaluate both main-theorem inequalities for (H, Delta, lambda)."""
    if degree < 3:
        raise InvalidRangeError(f"degree must be >= 3, got {degree}")
    if not (0.0 < lam < degree):
        raise InvalidRangeError(f"lambda must lie in (0, {degree}), got {lam}")
    q = matrix.q
    delta = matrix.delta
    log_qd = math.log(q * degree)

    gap_lhs = degree / lam
    gap_rhs = 100.0 / (1.0 - delta) * q * q * log_qd
    degree_gap_ok = gap_lhs >= gap_rhs

    deg_rhs = (10.0 / (1.0 - delta) * q * log_qd) ** 4
    degree_ok = degree >= deg_rhs

    epsilon = proof_epsilon(matrix, degree)
    tau = (1.0 - delta) / (4.0 * epsilon * q)
    tau_floor = 5.0 + 3.0 * math.log((q - 1) * degree**3)
    tau_ok = tau >= tau_floor

    details = (
        f"degree/lambda = {gap_lhs:.6g} >= {gap_rhs:.6g}: {degree_gap_ok}",
        f"degree = {degree:.6g} >= {deg_rhs:.6g}: {degree_ok}",
        f"epsilon = {epsilon:.12g}",
        f"tau = {tau:.12g} >= {tau_floor:.6g}: {tau_ok}",
    )
    return PremiseReport(degree_gap_ok, degree_ok, epsilon, tau, tau_ok, details)


# --- text format: line 1 "q <q> delta <delta>", then q rows of q entries ---


def format_matrix(matrix: InteractionMatrix) -> str:
    lines = [f"q {matrix.q} delta {matrix.delta!r}"]
    for row in matrix.entries:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> InteractionMatrix:
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError("line 1: empty matrix file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "q" or head[2] != "delta":
        raise MatrixFormatError("line 1: expected header 'q <q> delta <delta>'")
    try:
        q = int(head[1])
        delta = float(head[3])
    except ValueError as exc:
        raise MatrixFormatError(f"line 1: {exc}") from exc
    if q < 2:
        raise MatrixFormatError(f"line 1: q must be >= 2, got {q}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != q:
        raise MatrixFormatError(
            f"line {len(lines)}: expected {q} matrix rows, found {len(body)}"
        )
    rows = []
    for k, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != q:
            raise MatrixFormatError(f"line {k}: expected {q} entries, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"line {k}: {exc}") from exc
    try:
        return InteractionMatrix(rows, delta)
    except (AsymmetricMatrixError, InvalidRangeError) as exc:
        raise MatrixFormatError(f"line 2-{len(body) + 1}: {exc}") from exc


def load_matrix(path) -> InteractionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def save_matrix(matrix: InteractionMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(matrix))
