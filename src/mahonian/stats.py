"""Permutation statistics: inv, maj, col, and the two colored inversion numbers."""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

from .perm import ColoredPermutation, check_group


class StatisticKind(str, Enum):
    INV_C = "inv_c"
    TILDE_INV_C = "tilde_inv_c"
    INV_UNDERLYING = "inv"
    COL = "col"


# The definition of every statistic from the color count c and three counts of
# a colored permutation sigma: inv(|sigma|), col(sigma) and cross(sigma) (see
# cross_term). The window functions below and the oracle's group scan share it.
_PROJECTIONS = {
    StatisticKind.INV_C: lambda c, inv, col, cross: inv + col + c * cross,
    StatisticKind.TILDE_INV_C: lambda c, inv, col, cross: c * inv + col,
    StatisticKind.INV_UNDERLYING: lambda c, inv, col, cross: inv,
    StatisticKind.COL: lambda c, inv, col, cross: col,
}


def projection(kind: StatisticKind | str) -> Callable[[int, int, int, int], int]:
    """The statistic as a function of (c, inv, col, cross); a name that is no
    StatisticKind raises ValueError."""
    return _PROJECTIONS[StatisticKind(kind)]


def inv(pi: Sequence[int]) -> int:
    """Number of pairs i < j with pi_i > pi_j."""
    n = len(pi)
    return sum(pi[i] > pi[j] for i in range(n) for j in range(i + 1, n))


def maj(pi: Sequence[int]) -> int:
    """Sum of the descent positions of pi (1-based)."""
    return sum(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def col(sigma: ColoredPermutation) -> int:
    """Sum of the colors in the window."""
    return sum(sigma.colors)


def cross_term(sigma: ColoredPermutation) -> int:
    """Pairs i < j with sigma_i < sigma_j whose right entry has nonzero color."""
    values, colors = sigma.values, sigma.colors
    return sum(
        values[i] < values[j]
        for j in range(sigma.n)
        if colors[j] != 0
        for i in range(j)
    )


def inv_c(sigma: ColoredPermutation) -> int:
    """Colored inversion number: inv of the underlying permutation, plus the
    color sum, plus c times the gated non-inversion count."""
    return statistic_value(StatisticKind.INV_C, sigma)


def tilde_inv_c(sigma: ColoredPermutation) -> int:
    """The companion statistic c*inv(|sigma|) + col(sigma), equidistributed
    with inv_c over the whole group."""
    return statistic_value(StatisticKind.TILDE_INV_C, sigma)


def max_inv_c(n: int, c: int) -> int:
    """Largest attainable inv_c value: (c-1)n + c*binom(n, 2)."""
    check_group(n, c)
    return (c - 1) * n + c * (n * (n - 1) // 2)


def statistic_value(kind: StatisticKind | str, sigma: ColoredPermutation) -> int:
    """The statistic of one window, projected from its three counts."""
    return projection(kind)(sigma.c, inv(sigma.values), col(sigma), cross_term(sigma))
