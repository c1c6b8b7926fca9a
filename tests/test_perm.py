import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahonian import ColoredElement, ColoredPermutation, counting, lehmer, oracle, special, stats
from mahonian.counting import MahonianMethod
from mahonian.oracle import enumerate_group, group_size


def parse(text, c, n=None):
    return ColoredPermutation.parse(text, c, n)


class TestParseFormat:
    def test_bracket_tokens(self):
        s = parse("3[1] 2 1[2] 4[1]", c=3)
        assert s.values == (3, 2, 1, 4)
        assert s.colors == (1, 0, 2, 1)

    def test_identity_c1(self):
        s = parse("1 2 3", c=1)
        assert s == ColoredPermutation.identity(1, 3)

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            parse("1[3] 2", c=3)

    def test_duplicate_value(self):
        with pytest.raises(ValueError):
            parse("1 1", c=2)

    def test_token_count_mismatch(self):
        with pytest.raises(ValueError):
            parse("1 2", c=2, n=3)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse("1 x", c=2)

    def test_format_suppresses_zero_color(self):
        s = ColoredPermutation(3, (3, 2, 1, 4), (1, 0, 2, 1))
        assert str(s) == "3[1] 2 1[2] 4[1]"

    def test_format_identity(self):
        assert str(ColoredPermutation.identity(2, 2)) == "1 2"

    def test_format_maximal(self):
        assert str(ColoredPermutation.maximal(3, 2)) == "1[2] 2[2]"

    def test_round_trip_exhaustive(self):
        for s in enumerate_group(3, 3):
            assert parse(str(s), 3) == s

    def test_empty(self):
        assert str(parse("", c=2, n=0)) == ""


class TestApply:
    def test_paper_window_example(self):
        s = parse("3[1] 2 1[2] 4[1]", c=3)
        assert s.apply(ColoredElement(1, 1)) == ColoredElement(3, 2)

    def test_identity_fixes_everything(self):
        s = ColoredPermutation.identity(3, 4)
        for x in s.domain():
            assert s.apply(x) == x

    def test_direct_rule(self):
        s = parse("2[1] 1", c=2)
        assert s.apply(ColoredElement(2, 0)) == ColoredElement(1, 0)

    def test_out_of_alphabet(self):
        s = parse("2 1", c=2)
        with pytest.raises(ValueError):
            s.apply(ColoredElement(3, 0))


class TestCompose:
    def test_identity_neutral(self):
        s = parse("3[1] 2 1[2] 4[1]", c=3)
        ident = ColoredPermutation.identity(3, 4)
        assert ident * s == s
        assert s * ident == s

    def test_involution_squares_to_identity(self):
        s = parse("2 1 4[2] 3[1] 5", c=3)
        assert s * s == ColoredPermutation.identity(3, 5)

    def test_hand_evaluated(self):
        # sigma(tau(1)) = sigma(2bar) = 1, sigma(tau(2)) = sigma(1) = 2bar
        sigma = parse("2[1] 1[1]", c=2)
        tau = parse("2[1] 1", c=2)
        assert sigma * tau == parse("1 2[1]", c=2)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            parse("2 1", c=2) * parse("2 1", c=3)
        with pytest.raises(ValueError):
            parse("2 1", c=2) * parse("1", c=2)

    def test_compose_matches_pointwise_action(self):
        sigma = parse("3[2] 1 2[1]", c=3)
        tau = parse("2 3[1] 1[2]", c=3)
        comp = sigma * tau
        for x in comp.domain():
            assert comp.apply(x) == sigma.apply(tau.apply(x))

    def test_associativity_exhaustive_small(self):
        elems = list(enumerate_group(2, 2))
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_identity(self):
        ident = ColoredPermutation.identity(4, 3)
        assert ident.inverse() == ident

    def test_involutions_are_self_inverse(self):
        s = parse("2 1 4[2] 3[1] 5", c=3)
        assert s.inverse() == s

    def test_hand_evaluated(self):
        assert parse("2[1] 1", c=2).inverse() == parse("2 1[1]", c=2)

    @pytest.mark.parametrize("c,n", [(1, 4), (2, 3), (3, 2), (4, 2), (2, 4)])
    def test_inverse_round_trip_exhaustive(self, c, n):
        assert group_size(n, c) <= 10**4
        ident = ColoredPermutation.identity(c, n)
        for s in enumerate_group(n, c):
            assert s * s.inverse() == ident
            assert s.inverse() * s == ident


class TestCycles:
    def test_paper_example(self):
        s = parse("5[2] 2 1[1] 4[2] 3[1]", c=3)
        cycles = s.cycle_decomposition()
        as_tuples = [tuple((e.value, e.color) for e in cyc) for cyc in cycles]
        assert as_tuples == [
            ((1, 0), (5, 2), (3, 0), (1, 1), (5, 0), (3, 1), (1, 2), (5, 1), (3, 2)),
            ((2, 0),),
            ((2, 1),),
            ((2, 2),),
            ((4, 0), (4, 2), (4, 1)),
        ]

    def test_identity_n1(self):
        cycles = ColoredPermutation.identity(2, 1).cycle_decomposition()
        assert [tuple((e.value, e.color) for e in c) for c in cycles] == [
            ((1, 0),),
            ((1, 1),),
        ]

    def test_involution_has_short_cycles(self):
        s = parse("2 1 4[2] 3[1] 5", c=3)
        cycles = s.cycle_decomposition()
        assert len(cycles) == 9
        assert all(len(c) <= 2 for c in cycles)

    def test_partitions_the_alphabet(self):
        s = parse("3[2] 1 2[1]", c=3)
        cycles = s.cycle_decomposition()
        seen = [e for cyc in cycles for e in cyc]
        assert sorted(seen) == s.domain()


class TestPredicates:
    def test_involution_examples(self):
        assert parse("2 1 4[2] 3[1] 5", c=3).is_involution()
        assert ColoredPermutation.identity(3, 4).is_involution()
        assert not parse("1[1]", c=3).is_involution()
        assert parse("1[1]", c=2).is_involution()

    def test_involution_criteria_agree_exhaustively(self):
        for c, n in [(2, 3), (3, 2), (4, 2)]:
            ident = ColoredPermutation.identity(c, n)
            for s in enumerate_group(n, c):
                direct = s * s == ident
                cycles_ok = all(len(cy) <= 2 for cy in s.cycle_decomposition())
                assert s.is_involution() == direct == cycles_ok

    def test_derangement_examples(self):
        assert parse("5 6[1] 3[2] 2 4[1] 1[1]", c=3).is_derangement()
        assert not ColoredPermutation.identity(2, 3).is_derangement()
        assert parse("1[1] 2[1]", c=2).is_derangement()

    def test_empty_permutation(self):
        empty = ColoredPermutation.identity(3, 0)
        assert empty.is_involution()
        assert empty.is_derangement()


class TestGroupSize:
    @pytest.mark.parametrize("c,n", [(1, 5), (2, 3), (3, 3), (5, 2)])
    def test_exhaustive_count_distinct(self, c, n):
        elems = list(enumerate_group(n, c))
        assert len(elems) == group_size(n, c)
        assert len(set(elems)) == len(elems)


# Every public function of a group (n, c), called as f(n, c).
_GROUP_FUNCTIONS = {
    "gf_colored": counting.gf_colored,
    "i_colored_row": counting.i_colored_row,
    **{
        f"i_colored[{m.value}]": lambda n, c, m=m: counting.i_colored(n, 0, c, m)
        for m in MahonianMethod
    },
    "total_inversions_closed": counting.total_inversions_closed,
    "total_inversions_recurrence": counting.total_inversions_recurrence,
    "total_inversions_ratio": counting.total_inversions_ratio,
    "derangement_count": special.derangement_count,
    "derangement_count_recurrence": special.derangement_count_recurrence,
    "composition_moments": special.composition_moments,
    "t_colored": special.t_colored,
    "t_colored_terms": special.t_colored_terms,
    "involution_count": special.involution_count,
    "involution_count_recurrence": special.involution_count_recurrence,
    "involution_inv_total": special.involution_inv_total,
    "group_size": oracle.group_size,
    "max_inv_c": stats.max_inv_c,
    "iter_codes": lehmer.iter_codes,
    "enumerate_group": oracle.enumerate_group,
    "scan_group": oracle.scan_group,
    "code_sum_histogram": oracle.code_sum_histogram,
    "distribution": oracle.distribution,
    "lehmer_round_trips": oracle.lehmer_round_trips,
    "identity": lambda n, c: ColoredPermutation.identity(c, n),
    "maximal": lambda n, c: ColoredPermutation.maximal(c, n),
}


# Constructors read n off their tuples, so only a bad c reaches them.
_CONSTRUCTORS = {
    "ColoredPermutation": lambda n, c: ColoredPermutation(c, (), ()),
    "ColoredLehmerCode": lambda n, c: lehmer.ColoredLehmerCode(c, ()),
}


@pytest.mark.parametrize(
    "function,n,c",
    [
        pytest.param(function, n, c, id=f"{name}-{bad}")
        for name, function in _GROUP_FUNCTIONS.items()
        for bad, (n, c) in {"c=0": (2, 0), "n=-1": (-1, 2)}.items()
    ]
    + [pytest.param(function, 0, 0, id=f"{name}-c=0") for name, function in _CONSTRUCTORS.items()],
)
def test_every_group_function_rejects_a_bad_group_alike(function, n, c):
    """Raised at call time, also by the functions that return generators."""
    with pytest.raises(ValueError) as info:
        function(n, c)
    assert type(info.value) is ValueError
    assert str(info.value) == "need n >= 0 and c >= 1"


@st.composite
def group_element(draw, max_c=5, max_n=6):
    c = draw(st.integers(1, max_c))
    n = draw(st.integers(0, max_n))
    values = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = tuple(draw(st.integers(0, c - 1)) for _ in range(n))
    return ColoredPermutation(c, values, colors)


@settings(max_examples=200)
@given(group_element())
def test_random_inverse_round_trip(sigma):
    ident = ColoredPermutation.identity(sigma.c, sigma.n)
    assert sigma * sigma.inverse() == ident


@settings(max_examples=100)
@given(st.data())
def test_random_associativity(data):
    a = data.draw(group_element())
    values = st.permutations(list(range(1, a.n + 1)))
    colors = st.tuples(*[st.integers(0, a.c - 1)] * a.n)
    b = ColoredPermutation(a.c, tuple(data.draw(values)), data.draw(colors))
    c = ColoredPermutation(a.c, tuple(data.draw(values)), data.draw(colors))
    assert (a * b) * c == a * (b * c)
