"""Pins the benchmark's reference computations to hand-checkable values.

Run with `python3 -m unittest discover -s perfbench` (or `python3 -m pytest
perfbench`) from the repository root. These tests import nothing from
`mahonian`.
"""

import math
import unittest

import reference as ref


class ProductTest(unittest.TestCase):
    def test_paper_row_c2_n3(self):
        self.assertEqual(ref.mahonian_row(3, 2), [1, 3, 5, 7, 8, 8, 7, 5, 3, 1])

    def test_classical_row_n4(self):
        self.assertEqual(ref.mahonian_row(4, 1), [1, 3, 5, 6, 5, 3, 1])

    def test_row_degree_size_and_symmetry(self):
        for n, c in [(0, 3), (1, 1), (5, 3), (7, 2)]:
            row = ref.mahonian_row(n, c)
            self.assertEqual(len(row) - 1, ref.max_inv_c(n, c))
            self.assertEqual(sum(row), c**n * math.factorial(n))
            self.assertEqual(row, row[::-1])

    def test_color_sum_power(self):
        self.assertEqual(ref.q_integer_power(3, 2), [1, 2, 3, 2, 1])


class RecurrenceTest(unittest.TestCase):
    def test_classical_derangements(self):
        self.assertEqual([ref.derangements(n, 1) for n in range(6)], [1, 0, 1, 2, 9, 44])

    def test_two_color_derangements(self):
        self.assertEqual([ref.derangements(n, 2) for n in range(5)], [1, 1, 5, 29, 233])

    def test_classical_involutions(self):
        self.assertEqual([ref.involutions(n, 1) for n in range(6)], [1, 1, 2, 4, 10, 26])

    def test_two_color_involutions(self):
        self.assertEqual([ref.involutions(n, 2) for n in range(5)], [1, 2, 6, 20, 76])


class ClosedFormTest(unittest.TestCase):
    def test_classical_total(self):
        # inversions of 123, 132, 213, 231, 312, 321: 0+1+1+2+2+3
        self.assertEqual(ref.inversion_total(3, 1), 9)

    def test_total_is_first_moment_of_row(self):
        for n, c in [(3, 2), (4, 3), (5, 1)]:
            row = ref.mahonian_row(n, c)
            self.assertEqual(ref.inversion_total(n, c), sum(k * v for k, v in enumerate(row)))


class BruteForceTest(unittest.TestCase):
    def test_window_statistics(self):
        # 3[1] 2 1[2] 4[1] with c = 3: inv 3, col 4, cross 3 -> inv_c 16
        stats = ref.window_stats((3, 2, 1, 4), (1, 0, 2, 1), 3)
        self.assertEqual(stats["inv"], 3)
        self.assertEqual(stats["maj"], 3)
        self.assertEqual(stats["col"], 4)
        self.assertEqual(stats["cross_term"], 3)
        self.assertEqual(stats["inv_c"], 16)
        self.assertEqual(stats["tilde_inv_c"], 13)

    def test_paper_group_c2_n3(self):
        hists = ref.brute_force(3, 2)
        row = dict(enumerate([1, 3, 5, 7, 8, 8, 7, 5, 3, 1]))
        self.assertEqual(hists[("all", "inv_c")], row)
        self.assertEqual(hists[("all", "tilde_inv_c")], row)

    def test_classes_against_recurrences(self):
        for n, c in [(3, 1), (3, 2), (2, 4), (4, 3)]:
            hists = ref.brute_force(n, c)
            self.assertEqual(sum(hists[("derangements", "col")].values()), ref.derangements(n, c))
            self.assertEqual(sum(hists[("involutions", "col")].values()), ref.involutions(n, c))

    def test_classical_derangement_total(self):
        # 231 and 312 have two inversions each
        self.assertEqual(ref.first_moment(ref.brute_force(3, 1)[("derangements", "inv")]), 4)


if __name__ == "__main__":
    unittest.main()
