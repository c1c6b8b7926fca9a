"""Counts and inversion grand totals for colored derangements and involutions.

The alternating sums below involve divisions by 12, 2, and 6 that are
only exact after the whole sum is assembled, so intermediate values are
held as Fractions and integrality is checked at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counting import binomial, com_bounded, exact_int
from .perm import check_group


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
        Fraction((-1) ** k * (3 * n + k) * (n - k - 1), math.factorial(k))
        for k in range(n)
    )
    return exact_int(Fraction(fact, 12) * total)


def t_colored_terms(n: int, c: int) -> tuple[int, int, int, int]:
    """The four summands of the colored derangement inversion total.

    A: inversions of the underlying permutation; B: the color-sum
    contribution via bounded compositions; C1/C2: the c-weighted gated
    pair count split by whether the pair avoids the fixed points.
    """
    check_group(n, c)
    fact = math.factorial(n)

    a_term = Fraction(fact, 12) * sum(
        Fraction((-1) ** k * c ** (n - k) * (n - k - 1) * (3 * n + k), math.factorial(k))
        for k in range(n)
    )

    b_term = fact * sum(
        Fraction((-1) ** k, math.factorial(k))
        * sum(i * com_bounded(n - k, i, c) for i in range((n - k) * (c - 1) + 1))
        for k in range(n + 1)
    )

    c1_term = Fraction(fact * (c - 1), 2) * sum(
        Fraction((-1) ** k * c ** (n - k) * binomial(n - k, 2), math.factorial(k))
        for k in range(n + 1)
    )

    c2_term = Fraction(fact * (c - 1), 6) * sum(
        Fraction((-1) ** k * c ** (n - k) * (2 * (n - k) + 1), math.factorial(k - 1))
        for k in range(1, n)
    )

    return exact_int(a_term), exact_int(b_term), exact_int(c1_term), exact_int(c2_term)


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
