from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahonian import (
    ColoredLehmerCode,
    ColoredPermutation,
    LehmerCode,
    code_to_colored_perm,
    complement,
    decode,
    encode,
    inv,
    iter_codes,
    join_color,
    max_inv_c,
    perm_to_code,
    split_color,
    split_radix,
    tilde_inv_c,
)
from mahonian.counting import p_bounded
from mahonian.oracle import enumerate_group, group_size


class TestClassicalCode:
    def test_encode_example(self):
        assert encode((2, 3, 1, 4)).entries == (0, 1, 1, 0)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            LehmerCode((0, 2))
        with pytest.raises(ValueError):
            LehmerCode((1,))

    def test_decode_example(self):
        assert decode(LehmerCode((0, 1, 1, 0))) == (2, 3, 1, 4)

    @pytest.mark.parametrize("pi", [(1, 1), (2, 3), (0, 1), (1, 3, 3), (2,)])
    def test_encode_rejects_non_permutations(self, pi):
        with pytest.raises(ValueError):
            encode(pi)

    def test_round_trip_exhaustive(self):
        for n in range(7):
            for pi in permutations(range(1, n + 1)):
                assert decode(encode(pi)) == pi

    def test_str(self):
        assert str(LehmerCode((0, 1, 2, 0))) == "(0,1,2,0)"


class TestColoredCode:
    def test_bounds_enforced(self):
        ColoredLehmerCode(2, (1, 3, 5))
        with pytest.raises(ValueError):
            ColoredLehmerCode(2, (2,))
        with pytest.raises(ValueError):
            ColoredLehmerCode(2, (0, 4))
        with pytest.raises(ValueError):
            ColoredLehmerCode(0, ())

    def test_counts(self):
        for n, c in [(0, 3), (3, 1), (3, 2), (2, 4), (4, 2)]:
            codes = list(iter_codes(n, c))
            assert len(codes) == group_size(n, c)
            assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("n,c", [(-1, 2), (2, 0), (0, 0), (-3, -1)])
    def test_iter_codes_rejects_bad_arguments(self, n, c):
        with pytest.raises(ValueError):
            iter_codes(n, c)

    def test_sum_fixture_n4_c2_k5(self):
        # all 32 codes with c=2, n=4, entry sum 5
        expected = {
            "0005", "0014", "0023", "0032", "0041", "0050", "0104", "0113",
            "0122", "0131", "0140", "0203", "0212", "0221", "0230", "0302",
            "0311", "0320", "1004", "1013", "1022", "1031", "1040", "1103",
            "1112", "1121", "1130", "1202", "1211", "1220", "1301", "1310",
        }
        got = {
            "".join(map(str, code.entries))
            for code in iter_codes(4, 2)
            if code.sum() == 5
        }
        assert got == expected


class TestComplement:
    def test_example(self):
        code = ColoredLehmerCode(2, (0, 1, 4, 2))
        assert complement(code).entries == (1, 2, 1, 5)

    def test_involution_and_sum_reflection(self):
        for n, c in [(3, 2), (2, 3), (4, 1)]:
            top = max_inv_c(n, c)
            for code in iter_codes(n, c):
                mirrored = complement(code)
                assert complement(mirrored) == code
                assert code.sum() + mirrored.sum() == top

    def test_palindromic_sum_distribution(self):
        for n, c in [(4, 2), (3, 3)]:
            hist = Counter(code.sum() for code in iter_codes(n, c))
            top = max_inv_c(n, c)
            assert all(hist[k] == hist[top - k] for k in range(top + 1))


class TestSplits:
    def test_split_color_example(self):
        a, b = split_color(ColoredLehmerCode(3, (1, 4, 8)))
        assert a.entries == (0, 1, 2)
        assert b == (1, 1, 2)

    def test_split_join_round_trip(self):
        for code in iter_codes(3, 3):
            a, b = split_color(code)
            assert join_color(a, b, code.c) == code

    def test_join_color_validation(self):
        with pytest.raises(ValueError):
            join_color(LehmerCode((0, 1)), (0,), 2)
        with pytest.raises(ValueError):
            join_color(LehmerCode((0, 1)), (0, 2), 2)

    def test_split_radix_example(self):
        q, r = split_radix(ColoredLehmerCode(3, (2, 5, 7)))
        assert q == (2, 2, 2)
        assert r.entries == (0, 1, 1)

    def test_split_radix_reassembles(self):
        for code in iter_codes(3, 3):
            q, r = split_radix(code)
            assert all(
                e == qi * i + ri
                for i, (e, qi, ri) in enumerate(
                    zip(code.entries, q, r.entries), start=1
                )
            )
            assert all(0 <= qi < code.c for qi in q)

    def test_radix_quotients_count_bounded_partitions(self):
        # the weighted q-part of the split enumerates partitions with parts
        # of size <= n, each repeated at most c-1 times
        n, c = 4, 3
        hist = Counter(
            sum(i * qi for i, qi in enumerate(split_radix(code)[0], start=1))
            for code in iter_codes(n, c)
        )
        fact = 24
        for m, ways in hist.items():
            assert ways == fact * p_bounded(n, c - 1, m)


class TestPermBijection:
    def test_example(self):
        sigma = code_to_colored_perm(ColoredLehmerCode(2, (1, 0, 3)))
        assert sigma == ColoredPermutation.parse("1[1] 3[1] 2", 2)

    def test_topmost_code_decodes_to_colored_reversal(self):
        sigma = code_to_colored_perm(ColoredLehmerCode(2, (1, 3, 5)))
        assert sigma == ColoredPermutation.parse("3[1] 2[1] 1[1]", 2)
        assert tilde_inv_c(sigma) == 9

    def test_entry_sum_transports(self):
        for n, c in [(3, 2), (2, 4), (4, 2), (3, 3)]:
            for code in iter_codes(n, c):
                assert tilde_inv_c(code_to_colored_perm(code)) == code.sum()

    def test_round_trips_exhaustive(self):
        for n, c in [(3, 2), (4, 2), (2, 5)]:
            for code in iter_codes(n, c):
                assert perm_to_code(code_to_colored_perm(code)) == code
            for sigma in enumerate_group(n, c):
                assert code_to_colored_perm(perm_to_code(sigma)) == sigma

    def test_c1_reduces_to_classical(self):
        for pi in permutations(range(1, 6)):
            sigma = ColoredPermutation(1, pi, (0,) * 5)
            code = perm_to_code(sigma)
            assert code.entries == encode(pi).entries
            assert code.sum() == inv(pi)


@st.composite
def colored_code(draw, max_c=4, max_n=6):
    c = draw(st.integers(1, max_c))
    n = draw(st.integers(0, max_n))
    entries = tuple(draw(st.integers(0, c * i - 1)) for i in range(1, n + 1))
    return ColoredLehmerCode(c, entries)


@settings(max_examples=300)
@given(colored_code())
def test_random_round_trip_and_transport(code):
    sigma = code_to_colored_perm(code)
    assert perm_to_code(sigma) == code
    assert tilde_inv_c(sigma) == code.sum()


@settings(max_examples=200)
@given(colored_code())
def test_random_complement(code):
    assert complement(complement(code)) == code
    assert code.sum() + complement(code).sum() == max_inv_c(code.n, code.c)
