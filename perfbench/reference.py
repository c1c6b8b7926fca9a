"""Reference computations the benchmark checks the program against.

Nothing here imports `mahonian`: every value is computed from the
definitions or from textbook identities with code of its own, so a
fault in the package cannot hide by being copied into its check.
"""

from __future__ import annotations

import csv
import math
from itertools import permutations, product
from pathlib import Path


def _times_q_integer(row: list[int], m: int, limit: int | None = None) -> list[int]:
    """Multiply a coefficient list by [m]_q = 1 + q + ... + q^(m-1), keeping
    degrees up to `limit` when one is given.

    Coefficient k of the product is a window sum of m consecutive input
    coefficients, read off a running prefix sum in O(len) steps.
    """
    prefix = [0]
    for x in row:
        prefix.append(prefix[-1] + x)
    top = len(row) - 1 + m - 1
    if limit is not None:
        top = min(top, limit)
    return [
        prefix[min(k, len(row) - 1) + 1] - prefix[max(k - m + 1, 0)]
        for k in range(top + 1)
    ]


def mahonian_row(n: int, c: int, limit: int | None = None) -> list[int]:
    """Coefficients of [c]_q [2c]_q ... [nc]_q: the inv_c distribution over
    the group of c^n n! colored permutations (up to degree `limit`)."""
    row = [1]
    for i in range(1, n + 1):
        row = _times_q_integer(row, c * i, limit)
    return row


def q_integer_power(c: int, n: int) -> list[int]:
    """Coefficients of [c]_q^n: the color-sum distribution over Z_c^n."""
    row = [1]
    for _ in range(n):
        row = _times_q_integer(row, c)
    return row


def max_inv_c(n: int, c: int) -> int:
    """Largest inv_c value: the degree of the product above."""
    return (c - 1) * n + c * n * (n - 1) // 2


def group_size(n: int, c: int) -> int:
    return c**n * math.factorial(n)


def derangements(n: int, c: int) -> int:
    """Colored derangements (no value fixed with color 0), by the two-term
    recurrence d_m = (cm - 1) d_(m-1) + c(m - 1) d_(m-2), d_0 = 1, d_1 = c - 1."""
    prev, cur = 1, c - 1
    if n == 0:
        return prev
    for m in range(2, n + 1):
        prev, cur = cur, (c * m - 1) * cur + c * (m - 1) * prev
    return cur


def involutions(n: int, c: int) -> int:
    """Colored involutions by r_m = a r_(m-1) + c(m - 1) r_(m-2): value m is
    fixed with one of the a colors k having 2k = 0 mod c, or swapped with one
    of m - 1 values under c color pairs (k, -k)."""
    a = sum((2 * k) % c == 0 for k in range(c))
    prev, cur = 1, a
    if n == 0:
        return prev
    for m in range(2, n + 1):
        prev, cur = cur, a * cur + c * (m - 1) * prev
    return cur


def inversion_total(n: int, c: int) -> int:
    """Sum of inv_c over the whole group: c^n n!/2 (c C(n+1, 2) - n)."""
    twice = c**n * math.factorial(n) * (c * (n * (n + 1) // 2) - n)
    return twice // 2


# --- statistics of one window, from the definitions ------------------------


def inv(values) -> int:
    n = len(values)
    return sum(values[i] > values[j] for i in range(n) for j in range(i + 1, n))


def maj(values) -> int:
    return sum(i for i in range(1, len(values)) if values[i - 1] > values[i])


def cross(values, colors) -> int:
    """Pairs i < j with values[i] < values[j] whose right entry is colored."""
    return sum(
        values[i] < values[j]
        for j in range(len(values))
        if colors[j]
        for i in range(j)
    )


def window_stats(values, colors, c: int) -> dict[str, int]:
    """Every statistic `mahonian stat` prints for one window."""
    i, s, x = inv(values), sum(colors), cross(values, colors)
    return {
        "inv": i,
        "maj": maj(values),
        "col": s,
        "cross_term": x,
        "inv_c": i + s + c * x,
        "tilde_inv_c": c * i + s,
    }


# --- brute force over a whole group ------------------------------------------

CLASSES = ("all", "derangements", "involutions")
STATISTICS = ("inv_c", "tilde_inv_c", "inv", "col")


def brute_force(n: int, c: int) -> dict[tuple[str, str], dict[int, int]]:
    """Histogram of every statistic over every class, by enumerating the group.

    A window is a derangement when no value is fixed with color 0, and an
    involution when composing it with itself gives the identity window.
    """
    hists = {(k, s): {} for k in CLASSES for s in STATISTICS}
    for values in permutations(range(1, n + 1)):
        i = inv(values)
        for colors in product(range(c), repeat=n):
            s = sum(colors)
            stat = {
                "inv_c": i + s + c * cross(values, colors),
                "tilde_inv_c": c * i + s,
                "inv": i,
                "col": s,
            }
            classes = ["all"]
            if all(values[p] != p + 1 or colors[p] for p in range(n)):
                classes.append("derangements")
            if all(
                values[values[p] - 1] == p + 1
                and (colors[p] + colors[values[p] - 1]) % c == 0
                for p in range(n)
            ):
                classes.append("involutions")
            for kind in classes:
                for name, value in stat.items():
                    h = hists[(kind, name)]
                    h[value] = h.get(value, 0) + 1
    return hists


def first_moment(hist: dict[int, int]) -> int:
    return sum(k * v for k, v in hist.items())


# --- the paper's tables, read from the package's data directory -------------


def read_table(path: Path) -> dict[tuple[int, int], int]:
    """A c,n,value CSV table keyed (c, n)."""
    with open(path, newline="") as fh:
        return {
            (int(row["c"]), int(row["n"])): int(row["value"])
            for row in csv.DictReader(fh)
        }
