"""Log-space arithmetic helpers.

Everything weight-like in this package lives in natural-log space with an
explicit -inf marker for exact zeros; ground-state counts like |B_0|^n
overflow doubles long before n gets interesting.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


class LogSumAccumulator:
    """Streaming max-shifted log-sum-exp.

    Accumulation order is whatever the caller feeds in, so enforcing a
    canonical order is the caller's job; given that order the result is
    deterministic.
    """

    __slots__ = ("_max", "_sum")

    def __init__(self) -> None:
        self._max = NEG_INF
        self._sum = 0.0

    def add(self, value: float) -> None:
        if value == NEG_INF:
            return
        if value <= self._max:
            self._sum += math.exp(value - self._max)
        else:
            self._sum = self._sum * math.exp(self._max - value) + 1.0
            self._max = value

    def add_array(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        m = float(np.max(values))
        if m == NEG_INF:
            return
        s = float(np.sum(np.exp(values - m)))
        if m <= self._max:
            self._sum += s * math.exp(m - self._max)
        else:
            self._sum = self._sum * math.exp(self._max - m) + s
            self._max = m

    @property
    def value(self) -> float:
        if self._max == NEG_INF or self._sum <= 0.0:
            return NEG_INF
        return self._max + math.log(self._sum)
