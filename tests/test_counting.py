from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahonian import (
    KnuthNettoDomainError,
    MahonianMethod,
    binomial,
    com_bounded,
    gf_colored,
    i_classical,
    i_colored,
    i_colored_row,
    max_inv_c,
    p_bounded,
    pentagonal,
    total_inversions_closed,
    total_inversions_recurrence,
)
from mahonian.counting import (
    com_bounded_dp,
    i_colored_knuth_netto,
    total_inversions_ratio,
)
from mahonian.qpoly import QPolynomial, q_integer, times_q_integer

ALL_METHODS = list(MahonianMethod)


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(3, 4) == 0
    assert binomial(-1, 0) == 0
    assert binomial(4, -1) == 0


class TestQPolynomial:
    def test_q_integer(self):
        assert q_integer(4).coefficients == (1, 1, 1, 1)
        assert q_integer(1).coefficients == (1,)
        assert q_integer(0).coefficients == ()

    def test_mul(self):
        p = q_integer(2) * q_integer(2)
        assert p.coefficients == (1, 2, 1)

    def test_total_and_evaluate(self):
        p = gf_colored(3, 2)
        assert p.total() == 48  # the value at q = 1
        assert p.coefficient(0) == 1  # the value at q = 0


class TestGeneratingFunction:
    def test_c2_n3(self):
        assert gf_colored(3, 2).coefficients == (1, 3, 5, 7, 8, 8, 7, 5, 3, 1)

    def test_c1_is_classical(self):
        assert gf_colored(4, 1).coefficients == (1, 3, 5, 6, 5, 3, 1)

    def test_degree_and_total(self):
        for n in range(6):
            for c in range(1, 5):
                p = gf_colored(n, c)
                assert p.degree == max_inv_c(n, c)
                assert p.total() == c**n * _fact(n)

    def test_doubling_product_matches_convolution(self):
        for c in range(1, 5):
            poly = QPolynomial((1,))
            for n in range(13):
                if n:
                    poly = poly * q_integer(c * n)
                assert gf_colored(n, c) == poly, (c, n)

    def test_times_q_integer_every_parity(self):
        # m = 0..64 takes both doubling steps and reaches 2^j - 1 and 2^j + 1
        row = [3, 1, 4, 1, 5, 9, 2, 6]
        for m in range(65):
            expected = QPolynomial(tuple(row)) * q_integer(m)
            assert times_q_integer(row, m) == list(expected.coefficients), m
        with pytest.raises(ValueError):
            times_q_integer(row, -1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gf_colored(-1, 2)
        with pytest.raises(ValueError):
            gf_colored(2, 0)


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestSpotValues:
    def test_classical(self):
        assert i_classical(4, 2) == 5
        assert i_classical(4, 0) == 1
        assert i_classical(4, 6) == 1
        assert i_classical(4, 7) == 0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pinned(self, method):
        assert i_colored(4, 2, 3, method) == 10
        assert i_colored(4, 2, 1, method) == 5
        assert i_colored(0, 0, 5, method) == 1

    @pytest.mark.parametrize(
        "method", [m for m in ALL_METHODS if m is not MahonianMethod.KNUTH_NETTO]
    )
    def test_pinned_beyond_n(self, method):
        assert i_colored(4, 5, 2, method) == 32
        assert i_colored(3, 4, 2, method) == 8
        assert i_colored(2, 4, 3, method) == 3


class TestCellSemantics:
    """i_colored reads one cell of its method's row; Knuth-Netto computes
    the cell alone and is valid only for 0 <= k <= n."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_outside_the_row(self, method):
        for n, c in [(0, 1), (3, 2), (4, 3)]:
            for k in (-1, max_inv_c(n, c) + 1):
                if method is MahonianMethod.KNUTH_NETTO:
                    with pytest.raises(KnuthNettoDomainError):
                        i_colored(n, k, c, method)
                else:
                    assert i_colored(n, k, c, method) == 0

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("n,c", [(-1, 2), (3, 0)])
    def test_bad_group_raises(self, method, n, c):
        with pytest.raises(ValueError):
            i_colored(n, 0, c, method)
        with pytest.raises(ValueError):
            i_colored_row(n, c, method)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_cell_is_row_entry(self, method):
        for n in range(6):
            for c in (1, 2, 3):
                row = i_colored_row(n, c, method)
                assert [i_colored(n, k, c, method) for k in range(len(row))] == row


class TestKnuthNetto:
    def test_pentagonal(self):
        assert [pentagonal(j) for j in (1, 2, 3)] == [(1, 2), (5, 7), (12, 15)]
        with pytest.raises(ValueError):
            pentagonal(0)

    def test_in_domain_values(self):
        assert i_colored_knuth_netto(4, 2, 1) == 5
        assert i_colored_knuth_netto(4, 1, 2) == 4
        assert i_colored_knuth_netto(4, 2, 2) == 9

    def test_out_of_domain_raises(self):
        with pytest.raises(KnuthNettoDomainError):
            i_colored_knuth_netto(3, 4, 2)
        with pytest.raises(KnuthNettoDomainError):
            i_colored_knuth_netto(3, -1, 2)

    def test_row_is_valid_prefix_only(self):
        row = i_colored_row(4, 2, MahonianMethod.KNUTH_NETTO)
        assert len(row) == 5
        assert row == i_colored_row(4, 2)[:5]


class TestSevenWayAgreement:
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(7))
    def test_rows_agree(self, n, c):
        reference = i_colored_row(n, c, MahonianMethod.GEN_FUNC)
        for method in ALL_METHODS:
            row = i_colored_row(n, c, method)
            if method is MahonianMethod.KNUTH_NETTO:
                assert row == reference[: len(row)]
            else:
                assert row == reference

    def test_row_sum_and_symmetry(self):
        for n in range(6):
            for c in (1, 2, 3):
                row = i_colored_row(n, c)
                assert sum(row) == c**n * _fact(n)
                assert row == row[::-1]


class TestBoundedCounts:
    def test_p_bounded_examples(self):
        # partitions of 4 with parts <= 3, each used at most twice:
        # 3+1, 2+2, 2+1+1
        assert p_bounded(3, 2, 4) == 3
        assert p_bounded(5, 1, 0) == 1
        assert p_bounded(0, 3, 1) == 0
        assert p_bounded(2, 0, 1) == 0

    def test_p_bounded_validation(self):
        with pytest.raises(ValueError):
            p_bounded(3, 2, -1)

    def test_com_bounded_examples(self):
        # compositions of 2 into 3 parts each < 2: permutations of (1,1,0)
        assert com_bounded(3, 2, 2) == 3
        assert com_bounded(0, 0, 2) == 1
        assert com_bounded(0, 1, 2) == 0
        assert com_bounded(2, 5, 3) == 0

    def test_com_bounded_matches_dp(self):
        for parts in range(5):
            for c in range(1, 5):
                for total in range(parts * (c - 1) + 2):
                    assert com_bounded(parts, total, c) == com_bounded_dp(
                        parts, total, c
                    )

    @pytest.mark.parametrize("args", [(1, -1, 2), (-1, 0, 2), (2, 1, 0)])
    def test_com_bounded_rejects_bad_args(self, args):
        for count in (com_bounded, com_bounded_dp):
            with pytest.raises(ValueError, match=r"^need parts, total >= 0 and c >= 1$"):
                count(*args)

    @settings(max_examples=150)
    @given(
        st.integers(0, 8),
        st.integers(0, 30),
        st.integers(1, 6),
    )
    def test_com_bounded_random(self, parts, total, c):
        assert com_bounded(parts, total, c) == com_bounded_dp(parts, total, c)


class TestTotals:
    def test_closed_small_values(self):
        assert total_inversions_closed(0, 3) == 0
        assert total_inversions_closed(1, 3) == 3
        assert total_inversions_closed(3, 2) == 216
        assert total_inversions_closed(2, 2) == 16

    def test_base_case_is_binomial(self):
        for c in range(1, 12):
            assert total_inversions_closed(1, c) == binomial(c, 2)

    def test_three_routes_agree(self):
        for c in range(1, 11):
            for n in range(31):
                closed = total_inversions_closed(n, c)
                assert total_inversions_recurrence(n, c) == closed
                assert total_inversions_ratio(n, c) == closed

    def test_matches_gf_first_moment(self):
        for c in (1, 2, 3):
            for n in range(6):
                row = i_colored_row(n, c)
                assert sum(k * v for k, v in enumerate(row)) == total_inversions_closed(
                    n, c
                )

    def test_mean_is_half_the_maximum(self):
        for c in (1, 2, 3, 5):
            for n in range(1, 8):
                size = c**n * _fact(n)
                mean = Fraction(total_inversions_closed(n, c), size)
                assert mean == Fraction(max_inv_c(n, c), 2)
