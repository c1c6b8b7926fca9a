"""Exhaustive enumeration of the colored permutation group and the
verification suite that cross-checks every closed form against it."""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, permutations, product
from typing import Iterator

from . import lehmer, special, tables
from .counting import (
    MahonianMethod,
    gf_colored,
    i_colored_row,
    total_inversions_closed,
    total_inversions_ratio,
    total_inversions_recurrence,
)
from .perm import ColoredPermutation, check_group
from .stats import StatisticKind, inv, max_inv_c, projection, statistic_value

DEFAULT_CAP = 10**7
DEFAULT_BUDGET = 10**6
_VERIFY_MAX_C = 10  # widest color count swept by the verification suite
_ROUND_TRIP_MAX = 10**4  # largest group it sends whole through the Lehmer bijection


class ClassKind(str, Enum):
    ALL = "all"
    DERANGEMENTS = "derangements"
    INVOLUTIONS = "involutions"


class CapExceeded(Exception):
    def __init__(self, size: int, cap: int):
        super().__init__(f"group size {size} exceeds the enumeration cap {cap}")
        self.size = size
        self.cap = cap


def group_size(n: int, c: int) -> int:
    check_group(n, c)
    return c**n * math.factorial(n)


def _check_cap(n: int, c: int, cap: int) -> None:
    """Raise CapExceeded when the group has more than `cap` elements."""
    size = group_size(n, c)
    if size > cap:
        raise CapExceeded(size, cap)


def enumerate_group(n: int, c: int, cap: int = DEFAULT_CAP) -> Iterator[ColoredPermutation]:
    """All elements of the group, underlying permutation in lexicographic
    order with the color vector counting in base c underneath."""
    _check_cap(n, c, cap)
    return (
        ColoredPermutation(c, values, colors)
        for values in permutations(range(1, n + 1))
        for colors in product(range(c), repeat=n)
    )


@dataclass(frozen=True)
class Distribution:
    c: int
    n: int
    class_kind: ClassKind
    statistic: StatisticKind
    histogram: dict[int, int]
    total_count: int

    def __post_init__(self):
        if sum(self.histogram.values()) != self.total_count:
            raise ValueError("histogram does not sum to total_count")
        top = max_inv_c(self.n, self.c)
        for k, v in self.histogram.items():
            if not 0 <= k <= top:
                raise ValueError(f"statistic value {k} outside [0, {top}]")
            if v < 0:
                raise ValueError("negative count")

    def first_moment(self) -> int:
        return sum(k * v for k, v in self.histogram.items())


@dataclass(frozen=True)
class _GroupScan:
    """Everything one exhaustive pass over the group can report.

    `joint[kind]` counts the elements of one class by (inv(|sigma|),
    col(sigma), cross(sigma)); every histogram, count and total below is a
    projection of it.
    """

    n: int
    c: int
    joint: dict[ClassKind, dict[tuple[int, int, int], int]]

    def histogram(self, class_kind: ClassKind, statistic: StatisticKind) -> dict[int, int]:
        # bound once per call: a lookup per key made a cold distribution() sweep a third slower
        project = projection(statistic)
        hist: dict[int, int] = {}
        for (inv, col, cross), count in self.joint[class_kind].items():
            k = project(self.c, inv, col, cross)
            hist[k] = hist.get(k, 0) + count
        return hist

    def count(self, class_kind: ClassKind) -> int:
        return sum(self.joint[class_kind].values())

    def inv_c_total(self, class_kind: ClassKind) -> int:
        project = projection(StatisticKind.INV_C)
        return sum(project(self.c, *key) * count for key, count in self.joint[class_kind].items())

    @property
    def size(self) -> int:
        return self.count(ClassKind.ALL)


def scan_group(n: int, c: int, cap: int = DEFAULT_CAP) -> _GroupScan:
    """One pass over the whole group, counting every element into the
    joint (inv, col, cross) histogram of each class it belongs to.

    Placing value v at position j as the r-th smallest unused value leaves
    a = v - 1 - r smaller values before it and j - a larger ones, so it
    adds j - a to inv(|sigma|), and color k > 0 there adds k to col and
    the ascent count a = #{i < j : sigma_i < sigma_j} to cross. Each
    element is one int key packing, in mixed radix, col, cross, inv and
    its number of fixed points of color 0, which is 0 exactly on
    derangements.

    A step's key depends only on the set of values still unused (j is n
    minus its size), so the count runs bottom-up over those sets: the key
    histogram of every colored arrangement of a set U in the last |U|
    positions adds, for each v in U, the histogram of U without v shifted
    by each key of placing v first. Each element is one path through the
    levels, and the counts add. The involutions are counted apart, from
    every way of fixing or pairing the values of a window.
    """
    _check_cap(n, c, cap)
    pair_values = n * (n - 1) // 2 + 1  # inv and cross lie in 0..binom(n, 2)
    r_cross = n * (c - 1) + 1
    r_inv = r_cross * pair_values
    r_zero = r_inv * pair_values
    # steps[fixed][j][a][k]: key step of color k for the value placed at
    # position j with a smaller values before it
    steps = [
        [
            [[r_inv * (j - a) + (k + r_cross * a if k else r_zero * fixed) for k in range(c)]
             for a in range(n)]
            for j in range(n)
        ]
        for fixed in (0, 1)
    ]
    involutions: Counter[int] = Counter()

    below: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}  # the level of sets one smaller
    for size in range(1, n + 1):
        j = n - size
        level = {}
        for unused in combinations(range(1, n + 1), size):
            hist: dict[int, int] = {}
            for r, v in enumerate(unused):
                step = steps[v == j + 1][j][v - 1 - r]
                for t, count in below[unused[:r] + unused[r + 1:]].items():
                    for s in step:
                        hist[s + t] = hist.get(s + t, 0) + count
            level[unused] = hist
        below = level
    everything = below[tuple(range(1, n + 1))]

    w = [0] * n  # the underlying involution, 0 on the positions still open

    def pair_up() -> None:
        """Fix or pair the first open position of w in every way; at a full
        window count its colorings that make an involution: 2k = 0 (mod c)
        on a fixed value, colors k and -k (mod c) on a 2-cycle."""
        if 0 in w:
            i = w.index(0)
            for p in range(i, n):
                if not w[p]:
                    w[i], w[p] = p + 1, i + 1
                    pair_up()
                    w[i] = w[p] = 0
            return
        asc = [sum(u < v for u in w[:j]) for j, v in enumerate(w)]
        keys = [r_inv * sum(j - a for j, a in enumerate(asc))]
        for i, v in enumerate(w):
            a, b = asc[i], asc[v - 1]
            if v == i + 1:
                colorings = [k + r_cross * a * (k > 0) for k in range(c) if 2 * k % c == 0]
            elif v > i + 1:
                colorings = [k + kk + r_cross * (a * (k > 0) + b * (kk > 0))
                             for k in range(c) for kk in [(-k) % c]]
            else:
                continue
            keys = [key + s for s in colorings for key in keys]
        involutions.update(keys)

    pair_up()
    del pair_up  # it refers to itself: free it on return, not at a gc

    def unpack(counts: dict[int, int], zero_free_only: bool) -> dict[tuple[int, int, int], int]:
        joint: dict[tuple[int, int, int], int] = {}
        for key, count in counts.items():
            zero_fixed, rest = divmod(key, r_zero)
            if zero_fixed and zero_free_only:
                continue
            inv, rest = divmod(rest, r_inv)
            cross, col = divmod(rest, r_cross)
            t = (inv, col, cross)
            joint[t] = joint.get(t, 0) + count
        return joint

    return _GroupScan(n, c, {
        ClassKind.ALL: unpack(everything, False),
        ClassKind.DERANGEMENTS: unpack(everything, True),
        ClassKind.INVOLUTIONS: unpack(involutions, False),
    })


# Groups whose class x statistic histograms distribution() keeps, so that asking
# for another class or statistic does not scan again: only those whose statistics
# span at most _MEMO_WIDTH values, above the 97 of the widest verified, (c, n) = (10, 4).
_MEMO_GROUPS = 32
_MEMO_WIDTH = 128


@functools.lru_cache(maxsize=_MEMO_GROUPS)
def _class_histograms(n: int, c: int) -> dict[tuple[ClassKind, StatisticKind], dict[int, int]]:
    scan = scan_group(n, c, cap=group_size(n, c))
    return {(kind, st): scan.histogram(kind, st) for kind in ClassKind for st in StatisticKind}


def distribution(
    n: int,
    c: int,
    class_kind: ClassKind = ClassKind.ALL,
    statistic: StatisticKind = StatisticKind.INV_C,
    cap: int = DEFAULT_CAP,
) -> Distribution:
    class_kind = ClassKind(class_kind)
    statistic = StatisticKind(statistic)
    _check_cap(n, c, cap)
    if max_inv_c(n, c) < _MEMO_WIDTH:
        hist = dict(_class_histograms(n, c)[class_kind, statistic])
    else:  # too wide to keep: scan again and project only what is asked for
        hist = scan_group(n, c, cap=group_size(n, c)).histogram(class_kind, statistic)
    return Distribution(c, n, class_kind, statistic, hist, sum(hist.values()))


def code_sum_histogram(n: int, c: int, cap: int = DEFAULT_CAP) -> dict[int, int]:
    """Entry-sum histogram over all colored Lehmer codes, by direct iteration.

    The codes sharing their first n - 1 entries, of sum s, have the entry
    sums s, s + 1, ..., s + cn - 1, one each; that run is counted key by key.
    """
    _check_cap(n, c, cap)
    if not n:
        return {0: 1}
    sums = map(sum, product(*(range(c * i) for i in range(1, n))))
    return dict(Counter(chain.from_iterable(range(s, s + c * n) for s in sums)))


def lehmer_round_trips(n: int, c: int) -> int:
    """Check the colored Lehmer bijection on each element of the group; returns
    how many pass before the first failure (group_size(n, c) if none fails).

    Walks the classical codes a depth first, decoding each prefix once (level
    i inserts value i at position a_i from the right) and encoding each leaf
    window once. Each code c*a_i + b_i is then checked on plain tuples: colors
    read back by value, c*inv + col = entry sum, complement and split/join.
    """
    encode, insert = lehmer.encode_values, lehmer.insert_value
    split, join = lehmer.split_entries, lehmer.join_entries
    attach, read = lehmer.colors_by_value, lehmer.colors_of_values
    complement = lehmer.complement_entries
    top = max_inv_c(n, c)

    def leaves(a, values):  # (classical code, its window) below the prefix a, depth first
        if len(a) == n:
            return [(a, values)]
        i = len(a) + 1
        return (leaf for e in range(i) for leaf in leaves(a + (e,), insert(values, i, e)))

    passed = 0
    for a, values in leaves((), ()):
        encoded, base = encode(values), c * inv(values)
        for code in product(*(range(c * x, c * x + c) for x in a)):
            classical, b = split(code, c)  # classical == a: the code decodes to `values`
            colors, s, mirrored = attach(values, b), sum(code), complement(code, c)
            if (classical != a or join(encoded, read(values, colors), c) != code
                    or base + sum(colors) != s or join(classical, b, c) != code
                    or complement(mirrored, c) != code or sum(mirrored) != top - s):
                return passed
            passed += 1
    return passed


def coverage_pairs(budget: int, max_c: int = _VERIFY_MAX_C) -> list[tuple[int, int]]:
    """All (c, n) whose group fits in the element budget, c capped at max_c."""
    pairs = []
    for c in range(1, max_c + 1):
        n = 0
        while group_size(n, c) <= budget:
            pairs.append((c, n))
            n += 1
    return pairs


# ---------------------------------------------------------------------------
# verification suite


def _entry(identity: str, params: dict, ok: bool, detail: str = "") -> dict:
    return {
        "identity": identity,
        "params": params,
        "status": "pass" if ok else "fail",
        "detail": detail,
    }


def gf_histogram(n: int, c: int) -> dict[int, int]:
    """The nonzero coefficients of the generating function, by power."""
    return {k: v for k, v in enumerate(gf_colored(n, c).coefficients) if v}


def table_rows(which: int) -> list[tuple]:
    """Paper table 2 or 4 (derangement and involution inversion totals) as
    rows (c, n, fixture value, formula value, ok), or table 1 as rows
    (statistic, k, fixture size, enumerated size, ok) for each k on either
    side, ok comparing the c = 2, n = 3 windows listed and enumerated at k."""
    rows = []
    if which != 1:
        table, formula = {
            2: (tables.table2, special.t_colored),
            4: (tables.table4, special.involution_inv_total),
        }[which]
        for (c, n), value in sorted(table().items()):
            computed = formula(n, c)
            rows.append((c, n, value, computed, value == computed))
        return rows
    for stat in (StatisticKind.INV_C, StatisticKind.TILDE_INV_C):
        fixture, by_k = tables.table1_sets(stat), {}
        for sigma in enumerate_group(3, 2):
            by_k.setdefault(statistic_value(stat, sigma), set()).add(str(sigma))
        for k in sorted(fixture.keys() | by_k.keys()):
            want, got = fixture.get(k, set()), by_k.get(k, set())
            rows.append((stat.value, k, len(want), len(got), want == got))
    return rows


def verify_suite(max_budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Run every cross-check of the artifact and report pass/fail per identity.

    Failures become report entries, never exceptions.
    """
    report: list[dict] = []
    pairs = coverage_pairs(max_budget)
    if not pairs:
        report.append(
            _entry("coverage", {"budget": max_budget}, True, "empty coverage: budget too small to enumerate anything")
        )
        return report

    for c, n in pairs:
        params = {"c": c, "n": n}
        scan = scan_group(n, c, cap=max(max_budget, 1))
        hist = scan.histogram(ClassKind.ALL, StatisticKind.INV_C)
        expected = gf_histogram(n, c)
        report.append(
            _entry(
                "group-size", params, scan.size == group_size(n, c),
                f"enumerated {scan.size}",
            )
        )
        report.append(
            _entry("inv-c-histogram-matches-gf", params, hist == expected)
        )
        tilde = scan.histogram(ClassKind.ALL, StatisticKind.TILDE_INV_C)
        report.append(_entry("tilde-histogram-matches-inv-c", params, tilde == hist))
        codes = code_sum_histogram(n, c, cap=max(max_budget, 1))
        report.append(_entry("code-sum-histogram-matches-gf", params, codes == expected))
        top = max_inv_c(n, c)
        palindromic = all(
            hist.get(k, 0) == hist.get(top - k, 0)
            for k in range(top + 1)
        )
        full_support = set(hist) == set(range(top + 1))
        report.append(
            _entry("histogram-palindromic-full-support", params, palindromic and full_support)
        )
        report.append(
            _entry(
                "first-moment-matches-closed-form",
                params,
                sum(k * v for k, v in hist.items()) == total_inversions_closed(n, c),
            )
        )
        for kind, name, count_routes, total_route in (
            (ClassKind.DERANGEMENTS, "derangement",
             (special.derangement_count, special.derangement_count_recurrence),
             special.t_colored),
            (ClassKind.INVOLUTIONS, "involution",
             (special.involution_count, special.involution_count_recurrence),
             special.involution_inv_total),
        ):
            count, total = scan.count(kind), scan.inv_c_total(kind)
            ok = all(route(n, c) == count for route in count_routes)
            report.append(_entry(f"{name}-count", params, ok, f"enumerated {count}"))
            ok = total == total_route(n, c)
            report.append(_entry(f"{name}-inversion-total", params, ok, f"enumerated {total}"))

    # bijection round trips on every small group
    for c, n in pairs:
        if group_size(n, c) <= _ROUND_TRIP_MAX:
            ok = lehmer_round_trips(n, c) == group_size(n, c)
            report.append(_entry("bijection-round-trips", {"c": c, "n": n}, ok))

    # seven-way method agreement
    methods_ok = True
    detail = ""
    for c in range(1, 5):
        for n in range(9):
            base = i_colored_row(n, c, MahonianMethod.GEN_FUNC)
            for method in MahonianMethod:
                row = i_colored_row(n, c, method)
                want = base[: len(row)] if method is MahonianMethod.KNUTH_NETTO else base
                if row != want and methods_ok:
                    methods_ok = False
                    detail = f"{method.value} disagrees at (n={n}, c={c})"
    report.append(
        _entry("method-agreement", {"n_max": 8, "c_max": 4}, methods_ok, detail)
    )

    # totals chain, formula versus formula
    totals_ok = all(
        total_inversions_closed(n, c)
        == total_inversions_recurrence(n, c)
        == total_inversions_ratio(n, c)
        for c in range(1, _VERIFY_MAX_C + 1)
        for n in range(31)
    )
    report.append(_entry("totals-chain", {"n_max": 30, "c_max": _VERIFY_MAX_C}, totals_ok))

    # paper table fixtures versus formulas
    for which in (2, 4):
        rows = table_rows(which)
        detail = next(
            (
                f"differs at (c={c}, n={n}): fixture {value}, formula {computed}"
                for c, n, value, computed, ok in rows
                if not ok
            ),
            "",
        )
        report.append(_entry(f"table-{which}-fixture", {"cells": len(rows)}, not detail, detail))
    if group_size(3, 2) <= max_budget:
        rows = table_rows(1)
        for identity, stat in (("table-1-inv-c-sets", StatisticKind.INV_C),
                               ("table-1-tilde-sets", StatisticKind.TILDE_INV_C)):
            ok = all(row[-1] for row in rows if row[0] == stat.value)
            report.append(_entry(identity, {"c": 2, "n": 3}, ok))

    return report
