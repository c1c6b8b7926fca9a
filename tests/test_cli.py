import contextlib
import hashlib
import io
import json
import shlex

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mahonian import oracle, tables
from mahonian.cli import main
from mahonian.counting import MahonianMethod, i_colored_row
from mahonian.stats import max_inv_c


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStat:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "stat", "--perm", "3[1] 2 1[2] 4[1]", "--c", "3")
        assert code == 0
        record = dict(line.split(",") for line in out.strip().splitlines())
        assert record["inv_c"] == "16"
        assert record["col"] == "4"
        assert record["cross_term"] == "3"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "stat", "--perm", "2 1", "--c", "2", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "inv": 1, "maj": 1, "col": 0, "cross_term": 0,
            "inv_c": 1, "tilde_inv_c": 2,
        }

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "stat", "--perm", "1[5] 2", "--c", "3")
        assert code == 2
        assert "error" in err


class TestSeq:
    def test_mahonian_row(self, capsys):
        code, out, _ = run(capsys, "seq", "--name", "ic", "--c", "2", "--n-max", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [int(v) for _, v in rows] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]

    def test_mahonian_single_k(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--name", "ic", "--c", "2", "--n-max", "4", "--k", "5"
        )
        assert code == 0
        assert out.strip() == "5,32"

    def test_every_method_agrees(self, capsys):
        outputs = set()
        for method in (
            "gen_func", "recurrence", "summation", "partition_conv",
            "composition_split", "lattice_path",
        ):
            code, out, _ = run(
                capsys, "seq", "--name", "ic", "--c", "3", "--n-max", "3",
                "--method", method,
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_knuth_netto_domain_exit_3(self, capsys):
        code, _, err = run(
            capsys, "seq", "--name", "ic", "--c", "2", "--n-max", "3",
            "--k", "5", "--method", "knuth_netto",
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("method", [m.value for m in MahonianMethod])
    def test_every_cell_through_k(self, capsys, method):
        """--k prints the cell of the row, 0 past its end, for every engine;
        knuth_netto answers k <= n only and exits 3 with no output above."""
        for c in (1, 2):
            for n in range(5):
                row = i_colored_row(n, c)
                top = n if method == "knuth_netto" else max_inv_c(n, c) + 1
                for k in range(top + 1):
                    code, out, _ = run(
                        capsys, "seq", "--name", "ic", "--c", str(c), "--n-max", str(n),
                        "--k", str(k), "--method", method,
                    )
                    assert (code, out) == (0, f"{k},{row[k] if k < len(row) else 0}\n")
                if method == "knuth_netto":
                    code, out, err = run(
                        capsys, "seq", "--name", "ic", "--c", str(c), "--n-max", str(n),
                        "--k", str(n + 1), "--method", method,
                    )
                    assert (code, out) == (3, "")
                    assert err.startswith("error:")

    def test_totals_sequence(self, capsys):
        code, out, _ = run(capsys, "seq", "--name", "I", "--c", "2", "--n-max", "3")
        assert code == 0
        assert out.strip().splitlines() == ["1,1", "2,16", "3,216"]

    def test_special_sequences(self, capsys):
        for name, expected_n2 in (("d", 5), ("t", 12), ("r", 6), ("iinv", 12)):
            code, out, _ = run(
                capsys, "seq", "--name", name, "--c", "2", "--n-max", "2"
            )
            assert code == 0
            assert out.strip().splitlines()[-1] == f"2,{expected_n2}"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--name", "d", "--c", "1", "--n-max", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [
            {"n": 1, "value": 0}, {"n": 2, "value": 1},
            {"n": 3, "value": 2}, {"n": 4, "value": 9},
        ]


class TestDist:
    def test_histogram(self, capsys):
        code, out, _ = run(capsys, "dist", "--c", "2", "--n", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [int(v) for _, v in rows] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]

    def test_check_passes(self, capsys):
        code, _, err = run(capsys, "dist", "--c", "2", "--n", "3", "--check")
        assert code == 0
        assert "matches" in err

    def test_class_and_statistic(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--c", "2", "--n", "3",
            "--class", "derangements", "--statistic", "tilde_inv_c",
        )
        assert code == 0
        total = sum(int(line.split(",")[1]) for line in out.strip().splitlines())
        assert total == 29

    def test_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "dist", "--c", "3", "--n", "10", "--cap", "100")
        assert code == 3
        assert "error" in err

    def test_cap_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MAHONIAN_CAP", "10")
        code, _, err = run(capsys, "dist", "--c", "2", "--n", "3")
        assert code == 3
        monkeypatch.setenv("MAHONIAN_CAP", "1000")
        code, out, _ = run(capsys, "dist", "--c", "2", "--n", "3")
        assert code == 0

    def test_explicit_cap_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MAHONIAN_CAP", "10")
        code, _, _ = run(capsys, "dist", "--c", "2", "--n", "3", "--cap", "1000")
        assert code == 0


class TestTable:
    @pytest.mark.parametrize("which", ["1", "2", "4"])
    def test_clean_diff(self, capsys, which):
        code, out, _ = run(capsys, "table", "--which", which)
        assert code == 0
        assert "MISMATCH" not in out
        assert "mismatches=0" in out

    @pytest.mark.parametrize(
        "edit,mismatch,rows",
        [
            ({10: {"1 2 3"}}, "10,1,0", 22),  # a row past the top value
            ({0: {"2 1 3"}}, "0,1,1", 20),  # a wrong window, row size unchanged
        ],
        ids=["extra-row", "wrong-window"],
    )
    def test_table1_checks_every_row(self, capsys, monkeypatch, edit, mismatch, rows):
        table1_sets = tables.table1_sets
        monkeypatch.setattr(tables, "table1_sets", lambda stat: {**table1_sets(stat), **edit})
        code, out, _ = run(capsys, "table", "--which", "1")
        assert code == 1
        assert [line for line in out.splitlines() if line.endswith("MISMATCH")] == [
            f"1,inv_c,{mismatch},MISMATCH", f"1,tilde_inv_c,{mismatch},MISMATCH",
        ]
        assert out.splitlines()[-1] == f"summary,1,rows={rows},mismatches=2"
        code, out, _ = run(capsys, "verify", "--budget", "48")
        status = {r["identity"]: r["status"] for r in json.loads(out)["results"]}
        assert code == 1
        assert status["table-1-inv-c-sets"] == status["table-1-tilde-sets"] == "fail"

    def test_table3_reports_misalignment(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "3")
        assert code == 0  # formulas agree with the oracle; only the print is off
        assert "misaligned" in out
        assert "mismatches=0" in out


class TestVerify:
    def test_small_budget(self, capsys):
        code, out, _ = run(capsys, "verify", "--budget", "1000")
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0
        assert report["budget"] == 1000
        assert all(r["status"] == "pass" for r in report["results"])


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_choice(self, capsys):
        assert run(capsys, "seq", "--name", "nope", "--c", "2", "--n-max", "3")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "dist", "--c", "2")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["seq", "--name", "ic", "--c", "0", "--n-max", "3"],
            ["dist", "--c", "0", "--n", "3"],
            ["dist", "--c", "2", "--n", "-1"],
            ["seq", "--name", "ic", "--c", "2", "--n-max", "3", "--k", "-1"],
            ["seq", "--name", "d", "--c", "2", "--n-max", "-1"],
            ["dist", "--c", "2", "--n", "3", "--cap", "-1"],
            ["verify", "--budget", "-1"],
        ],
    )
    def test_out_of_range_argument_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("cap", ["abc", "-5"])
    def test_bad_cap_env_exit_2(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("MAHONIAN_CAP", cap)
        code, out, err = run(capsys, "dist", "--c", "2", "--n", "3")
        assert code == 2
        assert out == ""
        assert "error: MAHONIAN_CAP" in err


# sha256 of stdout and the exit code of each README CLI example, with
# verify at budget 10^5 instead of 10^6, and of every table, taken from
# the code before its engines became row-first: refactors must keep the
# CLI output byte for byte
_GOLDEN = [
    ('stat --perm "3[1] 2 1[2] 4[1]" --c 3',
     "7b95b5b90ce0ff206a51798c073e6eb19c3cd6278f3300d163c47b63e4c39188", 0),
    ("seq --name ic --c 2 --n-max 3",
     "3fda3bc7f5c9854cc05a77c1f97ea37f3cb3138e31cf59f75660cb856eccb0db", 0),
    ("seq --name ic --c 2 --n-max 4 --k 5 --method lattice_path",
     "be52371eb8c4d6c3e1c881f578a8e533e4998da6c20fb02cf0583b5cb212bc82", 0),
    ("seq --name d --c 2 --n-max 8",
     "c1d967fe407cca2aff17f5860c6b537edd5bf21a4c3bfb908e293e3f62b2670e", 0),
    ("dist --c 2 --n 3 --class involutions --check",
     "030c144f0baa4ddb598c03aea8d28fe0ca6086df3c1bd62b4743d676ec8bb8f9", 0),
    ("table --which 1",
     "8a225a2f146b9bff9541ad3c512f5e4be84ac53712dac71991122774e195cf73", 0),
    ("table --which 2",
     "77a7dd15a43be8e522ec79c5326b2dab5aea4eef22932a48b35049b29ada1600", 0),
    ("table --which 3",
     "6f20a765d9525a8771f35632684daa2f45530ee51e9325c460a961fc85fdc70b", 0),
    ("table --which 4",
     "cc5a05ce61220ba3b84edb030b75b0d7252ecdba6928b888544870771f8399f1", 0),
    ("verify --budget 100000",
     "38acea3d32c1e1a376ca528c8f733415c1cff0d39168eaccf74de41cd97bca51", 0),
]


@pytest.mark.parametrize("command,sha256,exit_code", _GOLDEN, ids=[g[0] for g in _GOLDEN])
def test_golden_output(capsys, monkeypatch, command, sha256, exit_code):
    monkeypatch.delenv("MAHONIAN_CAP", raising=False)
    code, out, _ = run(capsys, *shlex.split(command))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (sha256, exit_code)


_INTS = st.integers(-2, 4).map(str)
_POSITIVE = st.integers(1, 4).map(str)
_NONNEGATIVE = st.integers(0, 4).map(str)
_FORMATS = st.sampled_from(("csv", "json"))
_OPTIONS = {  # each subcommand's options and a strategy for a valid value of each
    "stat": {
        "--perm": st.sampled_from(("2 1", "1[1] 2", "3[1] 2 1[2] 4[1]", "", "1 1", "1[9]", "0")),
        "--c": _POSITIVE,
        "--format": _FORMATS,
    },
    "seq": {
        "--name": st.sampled_from(("ic", "I", "d", "t", "r", "iinv")),
        "--c": _POSITIVE,
        "--n-max": _NONNEGATIVE,
        "--k": _NONNEGATIVE,
        "--method": st.sampled_from((
            "gen_func", "recurrence", "summation", "knuth_netto",
            "partition_conv", "composition_split", "lattice_path",
        )),
        "--format": _FORMATS,
    },
    "dist": {
        "--c": _POSITIVE,
        "--n": _NONNEGATIVE,
        "--class": st.sampled_from(("all", "derangements", "involutions")),
        "--statistic": st.sampled_from(("inv_c", "tilde_inv_c", "inv", "col")),
        "--cap": _NONNEGATIVE,
        "--check": st.just(None),
        "--format": _FORMATS,
    },
    "table": {"--which": _POSITIVE},
    "verify": {"--budget": _NONNEGATIVE},
}
_REQUIRED = {"--perm", "--c", "--name", "--n-max", "--n", "--which"}
_JUNK = st.sampled_from(("", "x", "-", "--", "--nope", "-h", "1.5", "=", "[1]", "1e3", "0x3"))
_TOKEN = st.one_of(_JUNK, _INTS, st.sampled_from(sorted(_OPTIONS)))


def _one_in(draw, n: int) -> bool:
    """True about one time in n. Hypothesis draws 0 far more often than
    1/n, so the rare case is the top value."""
    return draw(st.integers(0, n - 1)) == n - 1


@st.composite
def _argv(draw):
    """One time in 8 a list of loose tokens. Otherwise a subcommand with
    its required options (nearly always) and some of its others, in any
    order, each with a valid value or, one time in 16, a junk or
    out-of-range token, and one time in 16 a junk token anywhere."""
    if _one_in(draw, 8):
        return draw(st.lists(_TOKEN, max_size=6))
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, values in draw(st.permutations(list(_OPTIONS[command].items()))):
        if not _one_in(draw, 32 if flag in _REQUIRED else 2):
            argv.append(flag)
            value = draw(_TOKEN if _one_in(draw, 16) else values)
            if value is not None:
                argv.append(value)
    if _one_in(draw, 16):
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKEN))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv(), cap=st.sampled_from(("100", "4", "0", "-1", "abc")))
def test_any_argv_keeps_the_exit_code_contract(argv, cap):
    """Every argv list exits 0, 1, 2 or 3 without a traceback. MAHONIAN_CAP
    is always set and the default verify budget is cut to 100, so that
    table --which 3 and a bare verify stay small. An event records whether
    argparse stopped the list (it printed its usage) or the command ran;
    --hypothesis-show-statistics shows the share of each."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MAHONIAN_CAP", cap)
        mp.setattr(oracle, "DEFAULT_BUDGET", 100)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    parsed = "usage:" not in out.getvalue() + err.getvalue()
    event("reached the command" if parsed else "stopped in argument parsing")
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
