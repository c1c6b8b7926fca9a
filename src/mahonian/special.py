"""Counts and inversion grand totals for colored derangements and involutions.

The alternating sums below involve divisions by 12, 2, and 6 that are
only exact after the whole sum is assembled.  Each sum is therefore kept
in integers (n!/k! is exact), and a Fraction appears only in the final
division, whose integrality is checked.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counting import binomial, exact_int
from .perm import check_group
from .qpoly import times_q_integer


def derangement_count(n: int, c: int) -> int:
    """Colored derangements: n! sum_k (-1)^k c^(n-k) / k!."""
    check_group(n, c)
    fact = math.factorial(n)
    return sum(
        (-1) ** k * c ** (n - k) * (fact // math.factorial(k)) for k in range(n + 1)
    )


def derangement_count_recurrence(n: int, c: int) -> int:
    """Same count via d_{n+1} = (cn + c) d_n + (-1)^(n+1), seeded at d_0 = 1."""
    check_group(n, c)
    d = 1
    for m in range(n):
        d = (c * m + c) * d + (-1) ** (m + 1)
    return d


def t_classical(n: int) -> int:
    """Total inversions over all classical derangements of size n."""
    if n < 0:
        raise ValueError("need n >= 0")
    fact = math.factorial(n)
    total = sum(
        (-1) ** k * (3 * n + k) * (n - k - 1) * (fact // math.factorial(k))
        for k in range(n)
    )
    return exact_int(Fraction(total, 12))


def composition_moments(n: int, c: int) -> list[int]:
    """M(m) = sum_i i * com(m, i, c) for m = 0..n.

    com(m, i, c) counts compositions of i into m parts, each < c: the
    coefficients of [c]_q^m.  One row of them gains a part per step.
    """
    check_group(n, c)
    row, moments = [1], [0]
    for _ in range(n):
        row = times_q_integer(row, c)
        moments.append(sum(i * ways for i, ways in enumerate(row)))
    return moments


def t_colored_terms(n: int, c: int) -> tuple[int, int, int, int]:
    """The four summands of the colored derangement inversion total.

    A: inversions of the underlying permutation; B: the color-sum
    contribution via bounded compositions; C1/C2: the c-weighted gated
    pair count split by whether the pair avoids the fixed points.
    """
    check_group(n, c)
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    ratio = [fact[n] // f for f in fact]  # n!/k!
    moments = composition_moments(n, c)

    a_sum = sum(
        (-1) ** k * c ** (n - k) * (n - k - 1) * (3 * n + k) * ratio[k] for k in range(n)
    )
    b_term = sum((-1) ** k * ratio[k] * moments[n - k] for k in range(n + 1))
    c1_sum = (c - 1) * sum(
        (-1) ** k * c ** (n - k) * binomial(n - k, 2) * ratio[k] for k in range(n + 1)
    )
    # n!/(k-1)! = k * n!/k!
    c2_sum = (c - 1) * sum(
        (-1) ** k * c ** (n - k) * (2 * (n - k) + 1) * k * ratio[k] for k in range(1, n)
    )

    return (
        exact_int(Fraction(a_sum, 12)),
        b_term,
        exact_int(Fraction(c1_sum, 2)),
        exact_int(Fraction(c2_sum, 6)),
    )


def t_colored(n: int, c: int) -> int:
    """Total of inv_c over all colored derangements of size n."""
    return sum(t_colored_terms(n, c))


def involution_count(n: int, c: int) -> int:
    """Colored involutions by the closed-form sum over the number of fixed values."""
    check_group(n, c)
    fixed_colors = 3 + (-1) ** c  # 4 when c is even, 2 when odd; halved below
    total = 0
    for k in range(n % 2, n + 1, 2):
        m = (n - k) // 2
        summand = Fraction(
            binomial(n, k) * fixed_colors**k * c**m * math.factorial(n - k),
            2 ** ((n + k) // 2) * math.factorial(m),
        )
        total += exact_int(summand)
    return total


def involution_count_recurrence(n: int, c: int) -> int:
    """Same count via r_{n+1} = a r_n + c n r_{n-1} with a = 2 for even c, 1 for odd."""
    check_group(n, c)
    a = ((-1) ** c + 3) // 2
    prev, cur = 1, a  # r_0, r_1
    if n == 0:
        return 1
    for m in range(1, n):
        prev, cur = cur, a * cur + c * m * prev
    return cur


def _r(n: int, c: int) -> int:
    return involution_count(n, c) if n >= 0 else 0


def involution_inv_total_classical(n: int) -> int:
    """Total inversions over classical involutions of size n."""
    if n < 0:
        raise ValueError("need n >= 0")
    return (
        binomial(n, 2) * _r(n - 2, 1)
        + 2 * binomial(n, 3) * _r(n - 3, 1)
        + 6 * binomial(n, 4) * _r(n - 4, 1)
    )


def involution_inv_total(n: int, c: int) -> int:
    """Total of inv_c over all colored involutions of size n."""
    check_group(n, c)
    e = (-1) ** c
    first = Fraction(n * c * (e + 1), 4) * _r(n - 1, c)
    rest = (
        c * (c + 1 + e) * binomial(n, 2) * _r(n - 2, c)
        + 2 * c * c * (e + 2) * binomial(n, 3) * _r(n - 3, c)
        + 6 * c**3 * binomial(n, 4) * _r(n - 4, c)
    )
    return exact_int(first + rest)
