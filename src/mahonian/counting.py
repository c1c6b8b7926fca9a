"""Colored Mahonian numbers i_c(n, k) by seven independent methods, plus
bounded partition/composition counts and the inversion grand totals."""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .perm import check_group
from .qpoly import QPolynomial, times_q_integer
from .stats import max_inv_c


class MahonianMethod(str, Enum):
    GEN_FUNC = "gen_func"
    RECURRENCE = "recurrence"
    SUMMATION = "summation"
    KNUTH_NETTO = "knuth_netto"
    PARTITION_CONV = "partition_conv"
    COMPOSITION_SPLIT = "composition_split"
    LATTICE_PATH = "lattice_path"


class KnuthNettoDomainError(ValueError):
    """The pentagonal-number formula is only valid for 0 <= k <= n."""


def exact_int(x: Fraction) -> int:
    """x as an int, raising ArithmeticError unless it is integral.

    An explicit check, not an assert, so that it also runs under python -O.
    """
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return int(x)


def binomial(a: int, b: int) -> int:
    """Binomial coefficient, 0 unless 0 <= b <= a."""
    if 0 <= b <= a:
        return math.comb(a, b)
    return 0


def gf_colored(n: int, c: int) -> QPolynomial:
    """The product [c]_q [2c]_q ... [nc]_q; coefficient of q^k is i_c(n, k)."""
    check_group(n, c)
    row = [1]
    for i in range(1, n + 1):
        row = times_q_integer(row, c * i)
    return QPolynomial(row)


def i_classical(n: int, k: int) -> int:
    """Mahonian number: permutations of [n] with k inversions."""
    return gf_colored(n, 1).coefficient(k)


def _row_gen_func(n: int, c: int) -> list[int]:
    """Coefficients of the product [c]_q [2c]_q ... [nc]_q."""
    return list(gf_colored(n, c).coefficients)


def _row_recurrence(n: int, c: int) -> list[int]:
    """Three-term recurrence i_c(n,k) = i_c(n,k-1) + i_c(n-1,k) - i_c(n-1,k-cn)."""
    row = [1]
    for m in range(1, n + 1):
        top = max_inv_c(m, c)
        prev = row
        row = [0] * (top + 1)
        for k in range(top + 1):
            row[k] = (
                (row[k - 1] if k > 0 else 0)
                + (prev[k] if k < len(prev) else 0)
                - (prev[k - c * m] if 0 <= k - c * m < len(prev) else 0)
            )
    return row


def _row_summation(n: int, c: int) -> list[int]:
    """Window sum i_c(n,k) = sum_{j=0}^{cn-1} i_c(n-1, k-j): append a last
    code entry j to a shorter code."""
    row = [1]
    for m in range(1, n + 1):
        top = max_inv_c(m, c)
        row = [
            sum(row[k2 - j] for j in range(c * m) if 0 <= k2 - j < len(row))
            for k2 in range(top + 1)
        ]
    return row


def pentagonal(j: int) -> tuple[int, int]:
    """The pair of generalized pentagonal numbers (j(3j-1)/2, j(3j+1)/2)."""
    if j < 1:
        raise ValueError("need j >= 1")
    return j * (3 * j - 1) // 2, j * (3 * j + 1) // 2


def i_colored_knuth_netto(n: int, k: int, c: int) -> int:
    """Pentagonal-number (Knuth-Netto style) formula, valid for 0 <= k <= n."""
    check_group(n, c)
    if not 0 <= k <= n:
        raise KnuthNettoDomainError(f"k={k} outside the valid range [0, n={n}]")
    if n == 0:
        return 1
    total = binomial(n + k - 1, k)
    j = 1
    while True:
        u, _ = pentagonal(j)
        if k - c * u < 0:
            break
        sign = -1 if j % 2 else 1
        total += sign * binomial(n + k - c * u - c * j - 1, k - c * u - c * j)
        total += sign * binomial(n + k - c * u - 1, k - c * u)
        j += 1
    return total


def _row_knuth_netto(n: int, c: int) -> list[int]:
    """The valid prefix k = 0..n of the row, cell by cell."""
    return [i_colored_knuth_netto(n, k, c) for k in range(min(n, max_inv_c(n, c)) + 1)]


def _p_bounded_table(limit_part: int, limit_mult: int, m: int) -> list[int]:
    """Counts of bounded partitions for every target 0..m."""
    counts = [0] * (m + 1)
    counts[0] = 1
    for part in range(1, limit_part + 1):
        nxt = [0] * (m + 1)
        for total, ways in enumerate(counts):
            if ways:
                for mult in range(limit_mult + 1):
                    t = total + mult * part
                    if t > m:
                        break
                    nxt[t] += ways
        counts = nxt
    return counts


def p_bounded(limit_part: int, limit_mult: int, m: int) -> int:
    """Partitions of m into parts of size at most limit_part, each part used
    at most limit_mult times."""
    if limit_part < 0 or limit_mult < 0 or m < 0:
        raise ValueError("all arguments must be >= 0")
    # coefficient of q^m in prod_{i=1}^{limit_part} [limit_mult+1]_{q^i}
    return _p_bounded_table(limit_part, limit_mult, m)[m]


def _row_partition_conv(n: int, c: int) -> list[int]:
    """Convolution of classical Mahonian numbers with bounded partitions."""
    top = max_inv_c(n, c)
    classical = gf_colored(n, 1)
    parts = _p_bounded_table(n, c - 1, top)
    return [
        sum(classical.coefficient(j) * parts[k - j] for j in range(k + 1))
        for k in range(top + 1)
    ]


def _check_composition(parts: int, total: int, c: int) -> None:
    if parts < 0 or total < 0 or c < 1:
        raise ValueError("need parts, total >= 0 and c >= 1")


def com_bounded(parts: int, total: int, c: int) -> int:
    """Compositions of total into `parts` non-negative parts, each < c,
    by inclusion-exclusion over parts that overflow."""
    _check_composition(parts, total, c)
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(
        (-1) ** j * binomial(parts, j) * binomial(total - c * j + parts - 1, parts - 1)
        for j in range(parts + 1)
    )


def com_bounded_dp(parts: int, total: int, c: int) -> int:
    """Direct dynamic-programming count of the same compositions."""
    _check_composition(parts, total, c)
    counts = [0] * (total + 1)
    counts[0] = 1
    for _ in range(parts):
        counts = [
            sum(counts[t - v] for v in range(min(c - 1, t) + 1)) for t in range(total + 1)
        ]
    return counts[total]


def _row_composition_split(n: int, c: int) -> list[int]:
    """Split k = c*a + b: a classical inversion count and a bounded
    composition of color weights."""
    classical = gf_colored(n, 1)
    row = [0] * (max_inv_c(n, c) + 1)
    for b in range(n * (c - 1) + 1):
        ways = com_bounded(n, b, c)
        if ways:
            for a in range(len(classical.coefficients)):
                row[c * a + b] += ways * classical.coefficient(a)
    return row


def _row_lattice_path(n: int, c: int) -> list[int]:
    """North/east lattice paths from (0,0) to (n,k) with fewer than c*j
    north steps at level j."""
    top = max_inv_c(n, c)
    paths = [0] * (top + 1)
    paths[0] = 1
    for level in range(1, n + 1):
        limit = c * level - 1
        # prefix sums give the <= limit north-run window in O(top)
        prefix = [0] * (top + 2)
        for y in range(top + 1):
            prefix[y + 1] = prefix[y] + paths[y]
        paths = [
            prefix[y + 1] - (prefix[y - limit] if y - limit >= 0 else 0)
            for y in range(top + 1)
        ]
    return paths


def i_colored_row(n: int, c: int, method: MahonianMethod = MahonianMethod.GEN_FUNC) -> list[int]:
    """The whole sequence i_c(n, 0..max) in one computation.

    For KNUTH_NETTO only the valid prefix k = 0..n is returned.
    """
    check_group(n, c)
    # built per call, so that a replaced engine is the one that runs
    rows = {
        MahonianMethod.GEN_FUNC: _row_gen_func,
        MahonianMethod.RECURRENCE: _row_recurrence,
        MahonianMethod.SUMMATION: _row_summation,
        MahonianMethod.KNUTH_NETTO: _row_knuth_netto,
        MahonianMethod.PARTITION_CONV: _row_partition_conv,
        MahonianMethod.COMPOSITION_SPLIT: _row_composition_split,
        MahonianMethod.LATTICE_PATH: _row_lattice_path,
    }
    return rows[MahonianMethod(method)](n, c)


def i_colored(n: int, k: int, c: int, method: MahonianMethod = MahonianMethod.GEN_FUNC) -> int:
    """One cell of the method's row, 0 outside it; KNUTH_NETTO computes the
    cell alone and raises outside 0 <= k <= n."""
    method = MahonianMethod(method)
    if method is MahonianMethod.KNUTH_NETTO:
        return i_colored_knuth_netto(n, k, c)
    row = i_colored_row(n, c, method)
    return row[k] if 0 <= k < len(row) else 0


def total_inversions_closed(n: int, c: int) -> int:
    """Grand total of inv_c over the whole group: c^n n!/2 (c*binom(n+1,2) - n)."""
    check_group(n, c)
    num = c**n * math.factorial(n) * (c * (n * (n + 1) // 2) - n)
    return exact_int(Fraction(num, 2))


def total_inversions_recurrence(n: int, c: int) -> int:
    """Same total via I_{c,n} = c^n n! (cn-1)/2 + c n I_{c,n-1}, seeded with
    I_{c,1} = binom(c, 2)."""
    check_group(n, c)
    if n == 0:
        return 0
    total = c * (c - 1) // 2
    for m in range(2, n + 1):
        step = c**m * math.factorial(m) * (c * m - 1)
        total = exact_int(Fraction(step, 2)) + c * m * total
    return total


def total_inversions_ratio(n: int, c: int) -> int:
    """Same total via the ratio I_{c,n}/I_{c,n-1} = c n^2 (cn+c-2) / ((n-1)(cn-2)),
    chained upward from I_{c,1}; valid for n >= 2 (and degenerate below)."""
    check_group(n, c)
    if n == 0:
        return 0
    # the ratio degenerates to 0/0 at (c=1, n=2), so start the chain above it
    if c == 1:
        if n == 1:
            return 0
        total = Fraction(1)
        start = 3
    else:
        total = Fraction(c * (c - 1), 2)
        start = 2
    for m in range(start, n + 1):
        total *= Fraction(c * m * m * (c * m + c - 2), (m - 1) * (c * m - 2))
    return exact_int(total)
