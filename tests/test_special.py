import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mahonian import (
    derangement_count,
    derangement_count_recurrence,
    inv_c,
    involution_count,
    involution_count_recurrence,
    involution_inv_total,
    involution_inv_total_classical,
    t_classical,
    t_colored,
    t_colored_terms,
)
from mahonian.counting import binomial, com_bounded
from mahonian.oracle import enumerate_group
from mahonian.special import composition_moments


def brute(n, c, keep):
    return [s for s in enumerate_group(n, c) if keep(s)]


class TestDerangementCounts:
    def test_classical_sequence(self):
        assert [derangement_count(n, 1) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]

    def test_two_colors(self):
        assert [derangement_count(n, 2) for n in range(5)] == [1, 1, 5, 29, 233]

    def test_closed_matches_recurrence(self):
        for c in range(1, 8):
            for n in range(15):
                assert derangement_count(n, c) == derangement_count_recurrence(n, c)

    @pytest.mark.parametrize("c,n", [(1, 6), (2, 4), (3, 3), (4, 2), (5, 2)])
    def test_matches_brute_force(self, c, n):
        expected = len(brute(n, c, lambda s: s.is_derangement()))
        assert derangement_count(n, c) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            derangement_count(-1, 2)
        with pytest.raises(ValueError):
            derangement_count(3, 0)


class TestDerangementInversionTotals:
    def test_classical_small(self):
        # brute-force totals of inv over classical derangements
        for n in range(8):
            expected = sum(
                inv_c(s) for s in brute(n, 1, lambda s: s.is_derangement())
            )
            assert t_classical(n) == expected

    def test_colored_reduces_to_classical(self):
        for n in range(13):
            assert t_colored(n, 1) == t_classical(n)

    def test_terms_example(self):
        assert t_colored_terms(2, 2) == (4, 6, 4, -2)
        assert t_colored(2, 2) == 12

    @pytest.mark.parametrize("c,n", [(2, 4), (3, 3), (4, 2), (2, 5), (5, 2)])
    def test_colored_matches_brute_force(self, c, n):
        expected = sum(inv_c(s) for s in brute(n, c, lambda s: s.is_derangement()))
        assert t_colored(n, c) == expected

    def test_terms_are_integers_and_sum(self):
        for c in range(1, 6):
            for n in range(10):
                terms = t_colored_terms(n, c)
                assert all(isinstance(x, int) for x in terms)
                assert sum(terms) == t_colored(n, c)

    def test_terms_match_the_fraction_reference(self):
        for c in range(1, 7):
            for n in range(21):
                assert t_colored_terms(n, c) == _t_colored_terms_reference(n, c), (c, n)

    def test_composition_moments_closed_form(self):
        # each of the c^m color vectors has mean color sum m(c-1)/2
        for c in range(1, 7):
            moments = composition_moments(12, c)
            for m in range(13):
                assert moments[m] == m * (c - 1) * c**m // 2, (c, m)


def _t_colored_terms_reference(n, c):
    """The four terms read directly off the formula: Fraction sums, with B
    summing i * com_bounded(n - k, i, c) over every k and i."""
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
    terms = (a_term, b_term, c1_term, c2_term)
    assert all(x.denominator == 1 for x in terms)
    return tuple(int(x) for x in terms)


class TestInvolutionCounts:
    def test_classical_sequence(self):
        assert [involution_count(n, 1) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]

    def test_small_colored_values(self):
        assert involution_count(2, 2) == 6
        assert involution_count(2, 3) == 4
        assert involution_count(2, 4) == 8

    def test_parity_of_c_controls_fixed_colors(self):
        # a fixed value may carry color 0 always, plus c/2 when c is even
        assert involution_count(1, 5) == 1
        assert involution_count(1, 6) == 2

    def test_closed_matches_recurrence(self):
        for c in range(1, 8):
            for n in range(15):
                assert involution_count(n, c) == involution_count_recurrence(n, c)

    @pytest.mark.parametrize("c,n", [(1, 6), (2, 4), (3, 3), (4, 3), (6, 2)])
    def test_matches_brute_force(self, c, n):
        expected = len(brute(n, c, lambda s: s.is_involution()))
        assert involution_count(n, c) == expected


class TestInvolutionInversionTotals:
    def test_classical_small(self):
        for n in range(9):
            expected = sum(
                inv_c(s) for s in brute(n, 1, lambda s: s.is_involution())
            )
            assert involution_inv_total_classical(n) == expected

    def test_colored_reduces_to_classical(self):
        for n in range(13):
            assert involution_inv_total(n, 1) == involution_inv_total_classical(n)

    def test_small_values(self):
        assert involution_inv_total(1, 2) == 1
        assert involution_inv_total(2, 2) == 12
        assert involution_inv_total(2, 3) == 9

    @pytest.mark.parametrize("c,n", [(2, 4), (3, 3), (4, 2), (2, 5), (6, 2)])
    def test_colored_matches_brute_force(self, c, n):
        expected = sum(inv_c(s) for s in brute(n, c, lambda s: s.is_involution()))
        assert involution_inv_total(n, c) == expected

    def test_zero_cases(self):
        assert involution_inv_total(0, 3) == 0
        assert involution_inv_total(1, 1) == 0
        assert involution_inv_total(1, 3) == 0


# Run under python -O, where asserts are stripped: every integrality check
# must still raise. An odd factorial makes the grand totals' halving and
# t_classical's division by 12 inexact; a constant binomial does the same
# to the halving in t_colored_terms' C1 term.
_INTEGRALITY_PROBE = """
import json, math
from fractions import Fraction
from mahonian import counting, special

def raises(f, *args):
    try:
        f(*args)
    except ArithmeticError:
        return True
    return False

result = {"debug": __debug__, "exact_int": raises(counting.exact_int, Fraction(1, 3))}
math.factorial = lambda m: 1
result["closed"] = raises(counting.total_inversions_closed, 2, 1)
result["recurrence"] = raises(counting.total_inversions_recurrence, 2, 1)
result["t_classical"] = raises(special.t_classical, 2)
special.binomial = lambda a, b: 1
result["t_colored_terms"] = raises(special.t_colored_terms, 2, 2)
print(json.dumps(result))
"""


def test_integrality_checks_survive_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INTEGRALITY_PROBE],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == {
        "debug": False, "exact_int": True, "closed": True,
        "recurrence": True, "t_classical": True, "t_colored_terms": True,
    }
