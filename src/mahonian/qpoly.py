"""Dense exact-integer polynomials in q.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple.  General multiplication is plain
convolution; a product by one q-integer has its own near-linear routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def _normalize(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class QPolynomial:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _normalize(tuple(self.coefficients)))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return QPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPolynomial(out)

    def total(self) -> int:
        return sum(self.coefficients)


def q_integer(m: int) -> QPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1); [0]_q is the zero polynomial."""
    if m < 0:
        raise ValueError("need m >= 0")
    return QPolynomial((1,) * m)


def times_q_integer(row: list[int], m: int) -> list[int]:
    """The coefficients of row * [m]_q, by doubling from [1]_q along the bits
    of m: [2k]_q = (1 + q^k) [k]_q and [2k+1]_q = 1 + q [2k]_q.

    Each step is one shifted addition, so the cost is O(len(row) log m).
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return []
    acc, k = row, 1  # acc = row * [k]_q
    for bit in bin(m)[3:]:
        acc = [x + y for x, y in zip(acc + [0] * k, [0] * k + acc)]
        k *= 2
        if bit == "1":
            acc = [x + y for x, y in zip(row + [0] * k, [0] + acc)]
            k += 1
    return list(acc)
