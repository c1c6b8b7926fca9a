import tracemalloc
from collections import Counter
from itertools import product

import pytest

from mahonian import (
    CapExceeded,
    ClassKind,
    ColoredLehmerCode,
    ColoredPermutation,
    Distribution,
    distribution,
    enumerate_group,
    gf_colored,
    group_size,
    max_inv_c,
    total_inversions_closed,
    verify_suite,
)
from mahonian import counting, lehmer, oracle, special, tables
from mahonian.cli import main
from mahonian.oracle import code_sum_histogram, coverage_pairs, scan_group
from mahonian.stats import StatisticKind, statistic_value


class TestEnumeration:
    def test_sizes(self):
        assert group_size(3, 2) == 48
        assert group_size(0, 5) == 1
        assert group_size(4, 3) == 81 * 24

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded) as exc:
            list(enumerate_group(10, 3, cap=100))
        assert exc.value.size == group_size(10, 3)
        assert exc.value.cap == 100

    def test_cap_raised_eagerly(self):
        # the check happens at call time, before any iteration
        with pytest.raises(CapExceeded):
            enumerate_group(10, 3, cap=100)

    def test_order_is_deterministic(self):
        first = [str(s) for s in enumerate_group(2, 2)]
        assert first == ["1 2", "1 2[1]", "1[1] 2", "1[1] 2[1]",
                         "2 1", "2 1[1]", "2[1] 1", "2[1] 1[1]"]


_IN_CLASS = {
    ClassKind.ALL: lambda x: True,
    ClassKind.DERANGEMENTS: lambda x: x.is_derangement(),
    ClassKind.INVOLUTIONS: lambda x: x.is_involution(),
}


class TestScan:
    @pytest.mark.parametrize(
        "c,n",
        [(1, 0), (1, 1), (1, 5), (1, 7), (2, 4), (2, 5), (3, 3), (3, 4), (4, 4), (5, 2)]
        # even and odd c for the colors k, -k (mod c) of a 2-cycle; one or two positions
        + [(6, 3), (7, 3), (25, 2), (60, 1)],
    )
    def test_matches_slow_path(self, c, n, scan):
        s = scan(c, n)
        elems = list(enumerate_group(n, c))
        assert s.size == len(elems)
        from mahonian import cross_term, inv, inv_c, tilde_inv_c

        for kind, keep in _IN_CLASS.items():
            assert s.joint[kind] == Counter(
                (inv(x.values), sum(x.colors), cross_term(x)) for x in elems if keep(x)
            ), kind

        def hist(statistic):
            return s.histogram(ClassKind.ALL, statistic)

        assert hist(StatisticKind.INV_C) == dict(Counter(inv_c(x) for x in elems))
        assert hist(StatisticKind.TILDE_INV_C) == dict(Counter(tilde_inv_c(x) for x in elems))
        assert hist(StatisticKind.INV_UNDERLYING) == dict(Counter(inv(x.values) for x in elems))
        assert hist(StatisticKind.COL) == dict(Counter(sum(x.colors) for x in elems))
        assert s.count(ClassKind.DERANGEMENTS) == sum(x.is_derangement() for x in elems)
        assert s.count(ClassKind.INVOLUTIONS) == sum(x.is_involution() for x in elems)
        assert s.inv_c_total(ClassKind.DERANGEMENTS) == sum(
            inv_c(x) for x in elems if x.is_derangement()
        )
        assert s.inv_c_total(ClassKind.INVOLUTIONS) == sum(
            inv_c(x) for x in elems if x.is_involution()
        )

    def test_few_positions_and_many_colors_stay_small(self):
        # the joint histogram of (3, 40) has 900 keys; its 384,000 elements
        # must not be held one key each
        tracemalloc.start()
        try:
            scan_group(3, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_needs_no_formula(self, monkeypatch):
        """The scan, distribution() and code_sum_histogram reach no
        generating function or closed form, however they are bound."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called a formula")

        formulas = [counting.gf_colored] + [
            f for name, f in vars(special).items()
            if callable(f) and not name.startswith("_") and f.__module__ == special.__name__
        ]
        for module in (counting, special, oracle):
            for name, value in list(vars(module).items()):
                if any(value is f for f in formulas):
                    monkeypatch.setattr(module, name, forbidden)
        oracle._class_histograms.cache_clear()
        s = scan_group(4, 3)
        assert s.size == group_size(4, 3)
        involutions = distribution(3, 3, ClassKind.INVOLUTIONS)
        assert involutions.total_count == sum(x.is_involution() for x in enumerate_group(3, 3))
        assert sum(code_sum_histogram(4, 3).values()) == group_size(4, 3)
        oracle._class_histograms.cache_clear()


def _literal_histogram(n, c, kind, stat):
    """Count of each statistic value over the class, element by element."""
    keep = _IN_CLASS[kind]
    return dict(Counter(statistic_value(stat, x) for x in enumerate_group(n, c) if keep(x)))


class TestDistribution:
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_every_class_and_statistic_matches_definitions(self, c):
        for n in range(5):
            for kind in ClassKind:
                for stat in StatisticKind:
                    d = distribution(n, c, kind, stat)
                    assert d.histogram == _literal_histogram(n, c, kind, stat), (n, kind, stat)
                    assert d.total_count == sum(d.histogram.values())

    def test_returned_histogram_is_a_copy(self):
        first = distribution(3, 2, ClassKind.DERANGEMENTS, StatisticKind.COL)
        expected = dict(first.histogram)
        first.histogram[0] = 10**6
        first.histogram.pop(1)
        again = distribution(3, 2, ClassKind.DERANGEMENTS, StatisticKind.COL)
        assert again.histogram == expected
        assert again.histogram is not first.histogram

    def test_wide_group_is_not_memoised(self):
        oracle._class_histograms.cache_clear()  # a full memo would hide an insertion
        assert distribution(1, 5000).histogram == {k: 1 for k in range(5000)}
        assert oracle._class_histograms.cache_info().currsize == 0

    def test_cap_checked_after_an_earlier_call(self):
        distribution(3, 3)
        with pytest.raises(CapExceeded):
            distribution(3, 3, cap=100)

    def test_matches_gf(self, scan):
        for c, n in [(2, 3), (3, 2), (1, 5)]:
            d = distribution(n, c)
            expected = {
                k: v for k, v in enumerate(gf_colored(n, c).coefficients) if v
            }
            assert d.histogram == expected
            assert d.total_count == group_size(n, c)

    def test_class_filters(self):
        d = distribution(3, 2, ClassKind.DERANGEMENTS)
        assert d.total_count == 29
        d = distribution(3, 2, ClassKind.INVOLUTIONS)
        assert d.total_count == 20

    def test_statistic_selector(self):
        d = distribution(3, 2, ClassKind.ALL, StatisticKind.COL)
        assert d.histogram == {0: 6, 1: 18, 2: 18, 3: 6}
        d = distribution(3, 2, ClassKind.ALL, StatisticKind.INV_UNDERLYING)
        assert d.histogram == {0: 8, 1: 16, 2: 16, 3: 8}

    def test_accepts_plain_strings(self):
        d = distribution(2, 2, "involutions", "tilde_inv_c")
        assert d.class_kind is ClassKind.INVOLUTIONS
        assert d.statistic is StatisticKind.TILDE_INV_C

    def test_first_moment(self):
        assert distribution(3, 2).first_moment() == total_inversions_closed(3, 2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Distribution(2, 2, ClassKind.ALL, StatisticKind.INV_C, {0: 1}, 2)
        with pytest.raises(ValueError):
            Distribution(2, 2, ClassKind.ALL, StatisticKind.INV_C, {99: 1}, 1)
        with pytest.raises(ValueError):
            Distribution(2, 2, ClassKind.ALL, StatisticKind.INV_C, {0: -1}, -1)

    def test_palindromic_full_support(self, scan):
        for c, n in [(2, 4), (3, 3), (4, 2)]:
            hist = scan(c, n).histogram(ClassKind.ALL, StatisticKind.INV_C)
            top = max_inv_c(n, c)
            assert set(hist) == set(range(top + 1))
            assert all(hist[k] == hist[top - k] for k in hist)


class TestCodeSumHistogram:
    def test_matches_gf(self):
        for c, n in [(2, 3), (3, 2), (1, 4)]:
            expected = {
                k: v for k, v in enumerate(gf_colored(n, c).coefficients) if v
            }
            assert code_sum_histogram(n, c) == expected

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", range(6))
    def test_matches_literal_sums(self, n, c):
        codes = product(*(range(c * i) for i in range(1, n + 1)))
        assert code_sum_histogram(n, c) == dict(Counter(sum(e) for e in codes))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            code_sum_histogram(12, 2, cap=1000)


# Wrong kernels, each of which a bijection-round-trips entry must catch.
_LEHMER_MUTANTS = {
    "encode counts larger values": (
        "encode_values",
        lambda pi: tuple(sum(w > v for w in pi[pi.index(v) + 1:]) for v in range(1, len(pi) + 1)),
    ),
    "decode inserts from the left": (
        "insert_value", lambda values, i, e: values[:e] + (i,) + values[e:]
    ),
    "complement off by one": (
        "complement_entries",
        lambda entries, c: tuple(c * i - e for i, e in enumerate(entries, start=1)),
    ),
    "colors attached by position": ("colors_by_value", lambda values, b: tuple(b)),
}


class TestLehmerRoundTrips:
    def test_visits_every_code_once(self, monkeypatch):
        split = lehmer.split_entries
        seen = []
        monkeypatch.setattr(
            lehmer, "split_entries", lambda code, c: seen.append(code) or split(code, c)
        )
        pairs = [
            (c, n) for c, n in coverage_pairs(10**6) if group_size(n, c) <= oracle._ROUND_TRIP_MAX
        ]
        assert len(pairs) == 48
        assert sum(group_size(n, c) for c, n in pairs) == 37201
        for c, n in pairs:
            seen.clear()
            assert oracle.lehmer_round_trips(n, c) == group_size(n, c)
            assert sorted(seen) == list(product(*(range(c * i) for i in range(1, n + 1))))

    @pytest.mark.parametrize("mutant", sorted(_LEHMER_MUTANTS))
    def test_wrong_kernel_fails_verify(self, mutant, monkeypatch):
        monkeypatch.setattr(lehmer, *_LEHMER_MUTANTS[mutant])
        failed = [
            r["params"] for r in verify_suite(10**4)
            if r["identity"] == "bijection-round-trips" and r["status"] == "fail"
        ]
        assert failed

    def test_builds_no_object_per_element(self, monkeypatch):
        built = Counter()

        def counting_init(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built[cls.__name__] += 1
                init(self, *args, **kwargs)

            return counted

        for cls in (ColoredPermutation, ColoredLehmerCode):
            monkeypatch.setattr(cls, "__init__", counting_init(cls))
        report = verify_suite(10**4)
        assert all(r["status"] == "pass" for r in report)
        assert built["ColoredPermutation"] >= 48  # the table-1 check's group
        assert sum(built.values()) < 1000


class TestCoverage:
    def test_budget_respected(self):
        for c, n in coverage_pairs(10**4):
            assert group_size(n, c) <= 10**4

    def test_contains_expected_pairs(self):
        pairs = coverage_pairs(10**6)
        assert (1, 9) in pairs
        assert (2, 7) in pairs
        assert (10, 0) in pairs
        assert (1, 10) not in pairs  # 10! > 10^6

    def test_zero_budget(self):
        assert coverage_pairs(0) == []


class TestVerifySuite:
    def test_small_budget_all_pass(self):
        report = verify_suite(10**4)
        assert report
        failures = [r for r in report if r["status"] != "pass"]
        assert failures == []
        identities = {r["identity"] for r in report}
        assert {
            "group-size",
            "inv-c-histogram-matches-gf",
            "tilde-histogram-matches-inv-c",
            "code-sum-histogram-matches-gf",
            "histogram-palindromic-full-support",
            "first-moment-matches-closed-form",
            "derangement-count",
            "derangement-inversion-total",
            "involution-count",
            "involution-inversion-total",
            "bijection-round-trips",
            "method-agreement",
            "totals-chain",
            "table-2-fixture",
            "table-4-fixture",
            "table-1-inv-c-sets",
            "table-1-tilde-sets",
        } <= identities

    def test_empty_budget_reports_coverage(self):
        report = verify_suite(0)
        assert len(report) == 1
        assert report[0]["identity"] == "coverage"
        assert report[0]["status"] == "pass"

    def test_failures_name_the_first_failing_cell(self, monkeypatch, capsys):
        wrong_t = {(2, 3), (3, 4)}  # (c, n) cells given the formula value 10**6
        wrong_iinv = {(1, 4)}
        wrong_rows = {(1, 2), (3, 5)}  # (c, n)
        t_colored, iinv_total = special.t_colored, special.involution_inv_total
        row_recurrence = counting._row_recurrence
        monkeypatch.setattr(
            special, "t_colored", lambda n, c: 10**6 if (c, n) in wrong_t else t_colored(n, c)
        )
        monkeypatch.setattr(
            special, "involution_inv_total",
            lambda n, c: 10**6 if (c, n) in wrong_iinv else iinv_total(n, c),
        )

        def recurrence(n, c):
            row = row_recurrence(n, c)
            return [x + 1 for x in row] if (c, n) in wrong_rows else row

        monkeypatch.setattr(counting, "_row_recurrence", recurrence)
        entries = {r["identity"]: r for r in verify_suite(10)}

        for which, wrong in ((2, wrong_t), (4, wrong_iinv)):
            fixture = tables.table2() if which == 2 else tables.table4()
            c, n = min(wrong)
            assert entries[f"table-{which}-fixture"]["status"] == "fail"
            assert entries[f"table-{which}-fixture"]["detail"] == (
                f"differs at (c={c}, n={n}): fixture {fixture[c, n]}, formula {10**6}"
            )
            # the table command marks the same cells, and no others
            code = main(["table", "--which", str(which)])
            lines = capsys.readouterr().out.splitlines()
            assert code == 1
            assert [line for line in lines if line.endswith("MISMATCH")] == [
                f"{which},{c},{n},{fixture[c, n]},{10**6},MISMATCH" for c, n in sorted(wrong)
            ]
            assert lines[-1] == f"summary,{which},cells={len(fixture)},mismatches={len(wrong)}"
        assert entries["method-agreement"]["status"] == "fail"
        assert entries["method-agreement"]["detail"] == "recurrence disagrees at (n=2, c=1)"

    def test_entries_have_uniform_shape(self):
        for r in verify_suite(100):
            assert set(r) == {"identity", "params", "status", "detail"}
            assert r["status"] in ("pass", "fail")
