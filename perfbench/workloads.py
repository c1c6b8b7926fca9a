"""The three workloads: how each builds its operations from a seed and how
each checks the program's answers.

An operation is a `(label, call, check)` triple. `call()` runs the
program and returns what it produced; it is all that is timed. `check(outcome)` runs
after the round and returns "ok", "failed" (the operation did not
complete as the CLI documents: an exception, or the wrong exit code) or
"wrong" (it completed with an answer the references contradict).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import reference as ref

# Groups small enough for the benchmark's own brute force (c^n n! <= this).
BRUTE_FORCE_MAX = 10**4

DATA = Path(__file__).resolve().parent.parent / "src" / "mahonian" / "data"


class Captured(NamedTuple):
    """What one `cli.main` call returned, printed and raised."""

    rc: int | None
    out: str
    err: str
    exc: Exception | None


def run_cli(cli, argv: list[str]) -> Captured:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback for the user: counted as failed
        return Captured(None, out.getvalue(), err.getvalue(), exc)
    return Captured(rc, out.getvalue(), err.getvalue(), None)


def _completed(cap: Captured) -> bool:
    return cap.exc is None and cap.rc == 0


def _rows(cap: Captured, fmt: str, key: str) -> list[tuple[int, int]]:
    """(key, value) pairs of a `seq` answer in either output format."""
    if fmt == "json":
        return [(int(r[key]), int(r["value"])) for r in json.loads(cap.out)]
    return [tuple(int(x) for x in line.split(",")) for line in cap.out.splitlines()]


# Bounded, so that the benchmark's own memory does not grow with the number
# of rounds and blur peak_rss_mb.
@lru_cache(maxsize=16)
def _row(n: int, c: int, limit: int | None = None) -> tuple[int, ...]:
    return tuple(ref.mahonian_row(n, c, limit))


@lru_cache(maxsize=None)
def _brute(n: int, c: int):
    return ref.brute_force(n, c)


@lru_cache(maxsize=None)
def _tables() -> tuple[dict, dict]:
    return ref.read_table(DATA / "table2.csv"), ref.read_table(DATA / "table4.csv")


def _class_total(kind: str, n: int, c: int):
    """Brute-force or table value of the derangement/involution inv_c total,
    or None where neither reaches."""
    table2, table4 = _tables()
    table = table2 if kind == "derangements" else table4
    if (c, n) in table:
        return table[(c, n)]
    if ref.group_size(n, c) <= BRUTE_FORCE_MAX:
        return ref.first_moment(_brute(n, c)[(kind, "inv_c")])
    return None


# --- verify ------------------------------------------------------------------

VERIFY_BUDGET = 10**6
PER_GROUP = (
    "group-size", "inv-c-histogram-matches-gf", "tilde-histogram-matches-inv-c",
    "code-sum-histogram-matches-gf", "histogram-palindromic-full-support",
    "first-moment-matches-closed-form", "derangement-count",
    "derangement-inversion-total", "involution-count", "involution-inversion-total",
)
SUITE_WIDE = ("method-agreement", "totals-chain", "table-2-fixture", "table-4-fixture",
              "table-1-inv-c-sets", "table-1-tilde-sets")


def verify_groups(budget: int) -> list[tuple[int, int]]:
    """Every (c, n) with c <= 10 whose group fits the budget."""
    return [
        (c, n)
        for c in range(1, 11)
        for n in range(0, 40)
        if ref.group_size(n, c) <= budget
    ]


def _enumerated(entry):
    """The count an entry's detail quotes ("enumerated N"), if it quotes one."""
    m = re.search(r"enumerated (\d+)", entry.get("detail", ""))
    return int(m.group(1)) if m else None


def check_verify(cap: Captured, budget: int) -> str:
    if cap.exc is not None or cap.rc not in (0, 1):
        return "failed"
    doc = json.loads(cap.out)
    results = doc["results"]
    if cap.rc != 0 or doc["failures"] != 0 or any(r["status"] != "pass" for r in results):
        return "wrong"
    by_group: dict[tuple[int, int], dict[str, dict]] = {}
    for r in results:
        p = r["params"]
        if "c" in p and "n" in p:
            by_group.setdefault((p["c"], p["n"]), {})[r["identity"]] = r
    table2, table4 = _tables()
    for c, n in verify_groups(budget):
        entries = by_group.get((c, n), {})
        if not set(PER_GROUP) <= set(entries):
            return "wrong"
        if ref.group_size(n, c) <= 10**4 and "bijection-round-trips" not in entries:
            return "wrong"
        # the enumerated counts the report quotes, against the references
        quoted = {
            "group-size": ref.group_size(n, c),
            "derangement-count": ref.derangements(n, c),
            "involution-count": ref.involutions(n, c),
            "derangement-inversion-total": table2.get((c, n)),
            "involution-inversion-total": table4.get((c, n)),
        }
        for identity, want in quoted.items():
            got = _enumerated(entries[identity])
            if want is not None and got is not None and got != want:
                return "wrong"
    if not set(SUITE_WIDE) <= {r["identity"] for r in results}:
        return "wrong"
    return "ok"


def verify_round(cli):
    argv = ["verify", "--budget", str(VERIFY_BUDGET)]
    return [(" ".join(argv), lambda: run_cli(cli, argv),
             lambda cap: check_verify(cap, VERIFY_BUDGET))]


# --- queries -----------------------------------------------------------------

# CLI usage errors the README documents as exit code 2. Fixed inputs, the
# same in every round, whatever the seed.
USAGE_ERRORS = (
    ["seq", "--name", "ic", "--c", "0", "--n-max", "3"],
    ["dist", "--c", "0", "--n", "3"],
    ["dist", "--c", "2", "--n", "-1"],
    ["seq", "--name", "ic", "--c", "2", "--n-max", "3", "--k", "-1"],
    ["seq", "--name", "d", "--c", "2", "--n-max", "-1"],
)

# Sizes. A query of each kind draws c at random and then n from a cost
# model, n = n0 (c0 / c)^e plus a jitter of up to `jitter`, so that its
# cost stays near that of (n0, c0) whatever c is drawn: the round's total
# work, and with it the round time, then varies little between rounds and
# seeds. Every row is past verify's range (n <= 9 at c = 1, n <= 8 in its
# engine cross-check). Fields: per round, (c_lo, c_hi), n0, c0, e, jitter.
ROW_SIZES = {
    "gen_func": (3, (2, 8), 22, 3, 2 / 4.3, 2),
    "summation": (3, (2, 8), 20, 3, 2 / 4.3, 2),
    "partition_conv": (3, (2, 8), 18, 3, 2 / 4.3, 2),
    "recurrence": (3, (2, 10), 50, 5, 1.5 / 3, 3),
    "lattice_path": (3, (2, 10), 45, 5, 1.5 / 3, 3),
    "composition_split": (3, (2, 10), 40, 5, 0.7 / 3.5, 3),
    "knuth_netto": (3, (2, 10), 250, 5, 0, 20),
}
SEQ_SIZES = {
    "t": (7, (2, 10), 22, 6, 1.3 / 3, 2),
    "I": (2, (1, 10), 40, 1, 0, 20),
    "d": (2, (1, 10), 40, 1, 0, 20),
    "r": (2, (1, 10), 40, 1, 0, 20),
    "iinv": (3, (1, 10), 40, 1, 0, 20),
}
STATS_PER_ROUND = 30
STAT_SIZES = ((10, 300), (1, 10))


def _size(rng: random.Random, spec) -> tuple[int, int]:
    _, (c_lo, c_hi), n0, c0, e, jitter = spec
    c = rng.randint(c_lo, c_hi)
    return round(n0 * (c0 / c) ** e) + rng.randint(-jitter, jitter), c


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k draws from [lo, hi], the i-th from the i-th of k equal slices, so
    that every round gets a similar spread of sizes."""
    width = (hi - lo + 1) / k
    return [lo + int(i * width) + rng.randrange(max(int(width), 1)) for i in range(k)]


def _check_usage_error(cap: Captured) -> str:
    return "ok" if cap.exc is None and cap.rc == 2 else "failed"


def _check_row(cap: Captured, fmt: str, n: int, c: int, method: str, k) -> str:
    if not _completed(cap):
        return "failed"
    got = _rows(cap, fmt, "k")
    if method == "knuth_netto":
        row = _row(n, c, n)  # the engine answers k <= n only
        want = [(k, row[k])] if k is not None else list(enumerate(row))
        return "ok" if got == want else "wrong"
    row = _row(n, c)
    if k is not None:
        return "ok" if got == [(k, row[k])] else "wrong"
    values = [v for _, v in got]
    ok = (
        [i for i, _ in got] == list(range(len(row)))
        and values == list(row)
        and sum(values) == ref.group_size(n, c)
        and values == values[::-1]
    )
    return "ok" if ok else "wrong"


def _expected_seq(name: str, n: int, c: int):
    """The reference value of one `seq` cell, or None where the benchmark
    has only bounds (t and iinv beyond the tables and the brute force)."""
    if name == "I":
        return ref.inversion_total(n, c)
    if name == "d":
        return ref.derangements(n, c)
    if name == "r":
        return ref.involutions(n, c)
    return _class_total("derangements" if name == "t" else "involutions", n, c)


def _check_seq(cap: Captured, fmt: str, name: str, n_max: int, c: int) -> str:
    if not _completed(cap):
        return "failed"
    got = _rows(cap, fmt, "n")
    if [n for n, _ in got] != list(range(1, n_max + 1)):
        return "wrong"
    for n, value in got:
        want = _expected_seq(name, n, c)
        if want is not None:
            if value != want:
                return "wrong"
            continue
        # only bounds here: between 0 and (class size) * (largest inv_c)
        size = ref.derangements(n, c) if name == "t" else ref.involutions(n, c)
        if not 0 <= value <= size * ref.max_inv_c(n, c):
            return "wrong"
    return "ok"


def _check_stat(cap: Captured, fmt: str, values, colors, c: int) -> str:
    if not _completed(cap):
        return "failed"
    if fmt == "json":
        got = json.loads(cap.out)
    else:
        got = {k: int(v) for k, v in (line.split(",") for line in cap.out.splitlines())}
    return "ok" if got == ref.window_stats(values, colors, c) else "wrong"


class QueryStream:
    """Draws rounds of distinct CLI queries; no query repeats within a run."""

    def __init__(self, cli):
        self.cli = cli
        self.seen: set[tuple[str, ...]] = set()

    def _add(self, ops, argv, check):
        key = tuple(argv)
        if key in self.seen:
            return False
        self.seen.add(key)
        cli = self.cli
        ops.append((" ".join(argv), lambda: run_cli(cli, argv), check))
        return True

    def round(self, rng: random.Random):
        ops: list = []
        for method, spec in ROW_SIZES.items():
            for _ in range(spec[0]):
                while True:
                    n, c = _size(rng, spec)
                    fmt = rng.choice(("csv", "json"))
                    top = n if method == "knuth_netto" else ref.max_inv_c(n, c)
                    k = rng.randint(0, top) if rng.random() < 0.3 else None
                    argv = ["seq", "--name", "ic", "--c", str(c), "--n-max", str(n),
                            "--method", method, "--format", fmt]
                    if k is not None:
                        argv += ["--k", str(k)]
                    check = (lambda cap, fmt=fmt, n=n, c=c, m=method, k=k:
                             _check_row(cap, fmt, n, c, m, k))
                    if self._add(ops, argv, check):
                        break
        for name, spec in SEQ_SIZES.items():
            for _ in range(spec[0]):
                while True:
                    n_max, c = _size(rng, spec)
                    fmt = rng.choice(("csv", "json"))
                    argv = ["seq", "--name", name, "--c", str(c), "--n-max", str(n_max),
                            "--format", fmt]
                    check = (lambda cap, fmt=fmt, name=name, n_max=n_max, c=c:
                             _check_seq(cap, fmt, name, n_max, c))
                    if self._add(ops, argv, check):
                        break
        (n_lo, n_hi), (c_lo, c_hi) = STAT_SIZES
        for n in _strata(rng, n_lo, n_hi, STATS_PER_ROUND):
            while True:
                c = rng.randint(c_lo, c_hi)
                values = list(range(1, n + 1))
                rng.shuffle(values)
                colors = [rng.randrange(c) for _ in values]
                window = " ".join(f"{v}[{k}]" if k else str(v) for v, k in zip(values, colors))
                fmt = rng.choice(("csv", "json"))
                argv = ["stat", "--perm", window, "--c", str(c), "--format", fmt]
                check = (lambda cap, fmt=fmt, v=tuple(values), k=tuple(colors), c=c:
                         _check_stat(cap, fmt, v, k, c))
                if self._add(ops, argv, check):
                    break
        cli = self.cli
        for argv in USAGE_ERRORS:
            ops.append((" ".join(argv), lambda argv=argv: run_cli(cli, argv), _check_usage_error))
        rng.shuffle(ops)
        return ops


# --- dist ----------------------------------------------------------------------

# (c, n): four groups of a few times 10^4 elements from c = 1 to c = 6, and
# three under BRUTE_FORCE_MAX whose class histograms the brute force checks.
DIST_GROUPS = ((1, 8), (2, 6), (3, 5), (6, 4), (4, 4), (10, 3), (2, 5))


def check_distribution(dist, n: int, c: int, kind: str, stat: str) -> str:
    hist = dist.histogram
    if (dist.n, dist.c, dist.class_kind.value, dist.statistic.value) != (n, c, kind, stat):
        return "wrong"
    if sum(hist.values()) != dist.total_count:
        return "wrong"
    if kind == "all":
        if stat in ("inv_c", "tilde_inv_c"):
            want = _row(n, c)
        elif stat == "inv":
            want = [c**n * v for v in _row(n, 1)]
        else:
            want = [math.factorial(n) * v for v in ref.q_integer_power(c, n)]
        return "ok" if hist == {k: v for k, v in enumerate(want) if v} else "wrong"
    size = ref.derangements(n, c) if kind == "derangements" else ref.involutions(n, c)
    if dist.total_count != size:
        return "wrong"
    if ref.group_size(n, c) <= BRUTE_FORCE_MAX:
        return "ok" if hist == _brute(n, c)[(kind, stat)] else "wrong"
    if stat == "inv_c":
        total = _class_total(kind, n, c)
        if total is not None and ref.first_moment(hist) != total:
            return "wrong"
    return "ok"


def dist_round(oracle, rng: random.Random):
    calls = [
        (c, n, kind, stat)
        for c, n in DIST_GROUPS
        for kind in ref.CLASSES
        for stat in ref.STATISTICS
    ]
    rng.shuffle(calls)
    ops = []
    for c, n, kind, stat in calls:
        ops.append((
            f"distribution({n}, {c}, {kind}, {stat})",
            lambda n=n, c=c, kind=kind, stat=stat: oracle.distribution(n, c, kind, stat),
            lambda dist, n=n, c=c, kind=kind, stat=stat: check_distribution(dist, n, c, kind, stat),
        ))
    return ops
