from collections import Counter
from itertools import permutations

import pytest

from mahonian import (
    ColoredPermutation,
    col,
    cross_term,
    inv,
    inv_c,
    maj,
    max_inv_c,
    tilde_inv_c,
)
from mahonian.lehmer import encode
from mahonian.oracle import enumerate_group
from mahonian.stats import StatisticKind, statistic_value


def parse(text, c):
    return ColoredPermutation.parse(text, c)


def test_inv_examples():
    assert inv((2, 3, 1, 4)) == 2
    assert inv((1, 2, 3, 4)) == 0
    assert inv((3, 2, 1)) == 3


def test_maj_examples():
    assert maj((2, 3, 1, 4)) == 2
    assert maj((1, 2, 3)) == 0
    assert maj((2, 1)) == 1


def test_inv_equals_lehmer_entry_sum():
    for n in range(8):
        for pi in permutations(range(1, n + 1)):
            assert inv(pi) == encode(pi).sum()


def test_macmahon_equidistribution():
    for n in range(8):
        perms = list(permutations(range(1, n + 1)))
        assert Counter(map(inv, perms)) == Counter(map(maj, perms))


def test_col_examples():
    assert col(parse("3[1] 2 1[2] 4[1]", 3)) == 4
    assert col(ColoredPermutation.identity(5, 4)) == 0
    assert col(ColoredPermutation.maximal(3, 5)) == 5 * 2


def test_cross_term_examples():
    assert cross_term(parse("3[1] 2 1[2] 4[1]", 3)) == 3
    assert cross_term(ColoredPermutation.identity(3, 4)) == 0
    assert cross_term(parse("1[1] 2[1]", 2)) == 1


def test_inv_c_examples():
    assert inv_c(parse("3[1] 2 1[2] 4[1]", 3)) == 16
    assert inv_c(ColoredPermutation.identity(4, 6)) == 0
    assert inv_c(ColoredPermutation.maximal(3, 4)) == 26


def test_tilde_inv_c_examples():
    assert tilde_inv_c(parse("1 2 3[1]", 2)) == 1
    assert tilde_inv_c(ColoredPermutation.identity(2, 3)) == 0
    assert tilde_inv_c(parse("3[1] 2[1] 1[1]", 2)) == 9


def test_max_inv_c():
    assert max_inv_c(4, 3) == 26
    assert max_inv_c(0, 7) == 0
    assert max_inv_c(3, 2) == 9
    with pytest.raises(ValueError):
        max_inv_c(-1, 2)


@pytest.mark.parametrize("c,n", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_bounds_and_unique_maximum(c, n):
    top = max_inv_c(n, c)
    maximizers = []
    for s in enumerate_group(n, c):
        k = inv_c(s)
        assert 0 <= k <= top
        if k == top:
            maximizers.append(s)
    if c == 1:
        # with a single color inv_c is plain inv, maximized by the reversal
        expected = ColoredPermutation(1, tuple(range(n, 0, -1)), (0,) * n)
    else:
        expected = ColoredPermutation.maximal(c, n)
    assert maximizers == [expected]


@pytest.mark.parametrize("c,n", [(1, 6), (2, 4), (3, 3), (4, 3), (5, 2)])
def test_inv_c_and_tilde_equidistributed(c, n):
    hist = Counter(inv_c(s) for s in enumerate_group(n, c))
    hist_t = Counter(tilde_inv_c(s) for s in enumerate_group(n, c))
    assert hist == hist_t


def test_c2_n3_distribution_matches_table():
    hist = Counter(inv_c(s) for s in enumerate_group(3, 2))
    assert [hist[k] for k in range(10)] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]


def test_n0_statistics_vanish():
    empty = ColoredPermutation.identity(3, 0)
    assert inv_c(empty) == tilde_inv_c(empty) == col(empty) == cross_term(empty) == 0


def test_statistic_value_takes_names():
    sigma = parse("3[1] 2 1[2] 4[1]", 3)
    assert statistic_value("inv_c", sigma) == inv_c(sigma) == 16
    assert statistic_value("tilde_inv_c", sigma) == tilde_inv_c(sigma) == 3 * 3 + 4
    assert statistic_value("inv", sigma) == 3
    assert statistic_value("col", sigma) == 4
    assert [statistic_value(kind.value, sigma) for kind in StatisticKind] == [
        statistic_value(kind, sigma) for kind in StatisticKind
    ]
    with pytest.raises(ValueError):
        statistic_value("maj", sigma)
