"""CLI contract: stdout bytes, exit codes, output formats."""
import json
import subprocess
import sys
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from submultisets import AgreementReport, CountMethod
from submultisets import cli, enumeration
from submultisets.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_counterexample(self, capsys):
        assert run(capsys, "count", "-m", "2,3,3", "-n", "5") == (0, "9\n", "")

    def test_two_fives(self, capsys):
        assert run(capsys, "count", "-m", "5,5", "-n", "5") == (0, "6\n", "")

    def test_n_equal_to_a_large_total(self, capsys):
        assert run(capsys, "count", "-m", "100000,100000", "-n", "200000") == (0, "1\n", "")

    @pytest.mark.parametrize("method", ["incexc", "dp", "brute"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "-m", "5,9,14", "-n", "12", "--method", method)
        assert (code, out) == (0, "57\n")

    def test_json_count_is_a_string(self, capsys):
        code, out, _ = run(capsys, "count", "-m", "2,3,3", "-n", "5", "--format", "json")
        assert (code, out) == (0, '{"count": "9"}\n')

    def test_empty_multiset(self, capsys):
        assert run(capsys, "count", "-m", "", "-n", "0")[:2] == (0, "1\n")

    def test_large_count_survives_json(self, capsys):
        code, out, _ = run(capsys, "count", "-m", ",".join(["9"] * 40), "-n", "180",
                           "--format", "json")
        assert code == 0
        value = int(json.loads(out)["count"])
        assert value > 2**63
        assert out == json.dumps({"count": str(value)}) + "\n"


class TestCountErrors:
    def test_negative_n(self, capsys):
        code, out, err = run(capsys, "count", "-m", "3,4", "-n", "-1")
        assert code == 2
        assert out == ""
        assert err != ""

    def test_missing_n(self, capsys):
        code, out, _ = run(capsys, "count", "-m", "3,4")
        assert (code, out) == (2, "")

    def test_bad_multiplicity_token(self, capsys):
        assert run(capsys, "count", "-m", "3,x", "-n", "1")[0] == 2

    def test_negative_multiplicity(self, capsys):
        assert run(capsys, "count", "-m", "3,-4", "-n", "1")[0] == 2

    def test_whitespace_rejected(self, capsys):
        assert run(capsys, "count", "-m", "3, 4", "-n", "1")[0] == 2

    # int() would take all of these (the empty string aside); every integer
    # flag accepts ASCII decimal digits only, like -m.
    LOOSE_INTEGERS = ["+1", "1_2", " 7", "\u0663", ""]

    @pytest.mark.parametrize("text", LOOSE_INTEGERS)
    @pytest.mark.parametrize("argv", [
        ("count", "-m", "2,3", "-n"),
        ("count", "-m", "2,3", "-n", "1", "--method", "brute", "--budget"),
        ("enumerate", "-m", "2,3", "-n", "1", "--limit"),
        ("enumerate", "-m", "2,3", "-n", "1", "--start-rank"),
    ], ids=["n", "budget", "limit", "start-rank"])
    def test_loose_integer_flags_rejected(self, capsys, argv, text):
        code, out, err = run(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert err != ""

    def test_incexc_capacity_exit(self, capsys):
        # inclusion-exclusion serves any dimension
        m = ",".join(["1"] * 64)
        assert run(capsys, "count", "-m", m, "-n", "3", "--method", "incexc") == \
            (0, "41664\n", "")

    def test_brute_without_recursion_limit(self, capsys):
        m = ",".join(["1"] * 1200)
        assert run(capsys, "count", "-m", m, "-n", "0", "--method", "brute",
                   "--budget", str(2**1200)) == (0, "1\n", "")

    def test_brute_budget_exit(self, capsys):
        code, out, err = run(capsys, "count", "-m", "5,5", "-n", "5",
                             "--method", "brute", "--budget", "1")
        assert (code, out) == (3, "")
        assert "budget" in err

    @pytest.mark.parametrize("command", ["count", "check"])
    def test_zero_budget_is_malformed(self, capsys, command):
        code, out, err = run(capsys, command, "-m", "5,5", "-n", "5", "--budget", "0")
        assert (code, out) == (2, "")
        assert "--budget" in err


class TestTable:
    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "table", "-m", "5,5")
        assert code == 0
        assert out == "".join(f"{n},{c}\n" for n, c in enumerate((1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)))

    def test_csv_same_as_text(self, capsys):
        _, text_out, _ = run(capsys, "table", "-m", "2,3,3")
        _, csv_out, _ = run(capsys, "table", "-m", "2,3,3", "--format", "csv")
        assert text_out == csv_out

    def test_json_array_of_strings(self, capsys):
        code, out, _ = run(capsys, "table", "-m", "5,5", "--format", "json")
        assert (code, out) == (0, '["1", "2", "3", "4", "5", "6", "5", "4", "3", "2", "1"]\n')

    def test_n_is_forbidden(self, capsys):
        assert run(capsys, "table", "-m", "5,5", "-n", "5")[0] == 2


class TestEnumerate:
    def test_full_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-m", "2,3,3", "-n", "5")
        assert code == 0
        assert out == ("0,2,3\n0,3,2\n1,1,3\n1,2,2\n1,3,1\n"
                       "2,0,3\n2,1,2\n2,2,1\n2,3,0\n")

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-m", "2,3,3", "-n", "5", "--limit", "2")
        assert (code, out) == (0, "0,2,3\n0,3,2\n")

    def test_start_rank(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-m", "2,3,3", "-n", "5",
                           "--start-rank", "7")
        assert (code, out) == (0, "2,2,1\n2,3,0\n")

    def test_start_rank_with_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-m", "2,3,3", "-n", "5",
                           "--start-rank", "2", "--limit", "1")
        assert (code, out) == (0, "1,1,3\n")

    def test_start_rank_past_end_is_empty(self, capsys):
        assert run(capsys, "enumerate", "-m", "2,3,3", "-n", "5",
                   "--start-rank", "9") == (0, "", "")

    def test_start_rank_with_n_over_total_is_empty(self, capsys):
        assert run(capsys, "enumerate", "-m", "2,3,3", "-n", "9",
                   "--start-rank", "3") == (0, "", "")

    def test_empty_stream(self, capsys):
        assert run(capsys, "enumerate", "-m", "2,2", "-n", "5") == (0, "", "")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-m", "1,1", "-n", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("m,n,extra", [
        ("1,1", 1, ()),
        ("2,3,3", 5, ()),
        ("2,2", 5, ()),                       # empty stream
        ("", 0, ()),                          # one empty composition
        ("2,3,3", 5, ("--start-rank", "7")),
        ("2,3,3", 5, ("--start-rank", "9")),  # past the end
        ("2,3,3", 5, ("--limit", "0")),
        ("4,0,12,3", 6, ("--start-rank", "5", "--limit", "20")),
        ("7", 3, ()),                         # k = 1
        ("7", 3, ("--start-rank", "1")),      # k = 1, past the end
        (",".join(["2"] * 40), 3, ("--limit", "300")),  # k = 40, past BLOCKS_MAX_K
        (",".join(["2"] * 40), 3, ("--start-rank", "11000", "--limit", "300")),
    ])
    def test_json_bytes_match_json_dumps(self, capsys, m, n, extra):
        code, text_out, _ = run(capsys, "enumerate", "-m", m, "-n", str(n), *extra)
        assert code == 0
        rows = [[int(v) for v in line.split(",") if v] for line in text_out.splitlines()]
        code, out, _ = run(capsys, "enumerate", "-m", m, "-n", str(n), *extra,
                           "--format", "json")
        assert (code, out) == (0, json.dumps(rows) + "\n")


class TestCheck:
    def test_agreement_text(self, capsys):
        code, out, err = run(capsys, "check", "-m", "5,9,14", "-n", "12")
        assert (code, out, err) == (0, "incexc 57\ndp 57\nbrute 57\nAGREE\n", "")

    def test_two_element_instance(self, capsys):
        code, out, _ = run(capsys, "check", "-m", "3,4", "-n", "5")
        assert (code, out) == (0, "incexc 3\ndp 3\nbrute 3\nAGREE\n")

    def test_budget_skip_still_agrees(self, capsys):
        code, out, _ = run(capsys, "check", "-m", "5,5", "-n", "5", "--budget", "1")
        assert (code, out) == (0, "incexc 6\ndp 6\nbrute skipped\nAGREE\n")

    def test_brute_refusal_past_the_digit_limit(self, capsys):
        # 2^15000 compositions, a decimal of 4516 digits: brute force is
        # skipped with a one-line note, not refused as malformed input.
        m = ",".join(["1"] * 15000)
        note = ("instance has an estimated 10^4515.4 compositions, over the budget "
                "of 10000000\n")
        code, out, err = run(capsys, "check", "-m", m, "-n", "2")
        assert (code, out) == (0, "incexc 112492500\ndp 112492500\nbrute skipped\nAGREE\n")
        assert err == "note: brute skipped: " + note
        assert run(capsys, "count", "-m", m, "-n", "2", "--method", "brute") == (3, "", "error: " + note)

    def test_wide_instance_skips_brute(self, capsys):
        # 2^64 compositions are over the default budget; incexc and dp agree
        code, out, _ = run(capsys, "check", "-m", ",".join(["1"] * 64), "-n", "3")
        assert (code, out) == (0, "incexc 41664\ndp 41664\nbrute skipped\nAGREE\n")

    @pytest.mark.parametrize("fmt,expected", [
        ("text", "incexc 6\ndp 6\nbrute skipped\nAGREE\n"),
        ("csv", "incexc,6\ndp,6\nbrute,skipped\nAGREE\n"),
        ("json", '{"incexc": "6", "dp": "6", "brute": null, "agree": true}\n'),
    ])
    def test_skip_reason_on_stderr(self, capsys, fmt, expected):
        code, out, err = run(capsys, "check", "-m", "5,5", "-n", "5", "--budget", "1",
                             "--format", fmt)
        assert (code, out) == (0, expected)
        assert err == ("note: brute skipped: instance has an estimated 36 "
                       "compositions, over the budget of 1\n")

    def test_json_payload(self, capsys):
        # The skipped-brute payload is pinned in test_skip_reason_on_stderr.
        code, out, _ = run(capsys, "check", "-m", "2,3,3", "-n", "5", "--format", "json")
        assert (code, out) == (0, '{"incexc": "9", "dp": "9", "brute": "9", "agree": true}\n')

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        def fake_cross_check(spec, n, budget):
            return AgreementReport(
                values={CountMethod.DYNAMIC_PROGRAMMING: 1, CountMethod.BRUTE_FORCE: 2},
                skipped={},
            )
        monkeypatch.setattr(cli, "cross_check", fake_cross_check)
        code, out, _ = run(capsys, "check", "-m", "1", "-n", "1")
        assert code == 4
        assert out.endswith("DISAGREE\n")


class TestCsvFormat:
    def test_count_csv_matches_text(self, capsys):
        assert run(capsys, "count", "-m", "2,3,3", "-n", "5", "--format", "csv")[1] == "9\n"

    def test_enumerate_csv_matches_text(self, capsys):
        _, text_out, _ = run(capsys, "enumerate", "-m", "1,1", "-n", "1")
        _, csv_out, _ = run(capsys, "enumerate", "-m", "1,1", "-n", "1", "--format", "csv")
        assert text_out == csv_out == "0,1\n1,0\n"

    def test_check_csv(self, capsys):
        code, out, _ = run(capsys, "check", "-m", "2,3,3", "-n", "5", "--format", "csv")
        assert (code, out) == (0, "incexc,9\ndp,9\nbrute,9\nAGREE\n")


@pytest.fixture
def digit_limit():
    """The interpreter's limit on int <-> str conversion, lowered from 4300
    to 640 digits for one test, so counts past it stay quick to compute."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def in_full(value):
    """str(value) past the interpreter's digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongCounts:
    """Counts print in full past the int -> str digit limit; the integers
    parsed from the command line stay under it, and main puts it back."""

    ONES = ",".join(["1"] * 2200)  # C(2200, 1100) has 661 digits

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_count(self, capsys, digit_limit, fmt):
        code, out, err = run(capsys, "count", "-m", self.ONES, "-n", "1100", "--format", fmt)
        digits = in_full(comb(2200, 1100))
        assert len(digits) > digit_limit
        assert (code, err) == (0, "")
        assert out == (json.dumps({"count": digits}) if fmt == "json" else digits) + "\n"
        assert sys.get_int_max_str_digits() == digit_limit

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_table(self, capsys, digit_limit, fmt):
        code, out, err = run(capsys, "table", "-m", self.ONES, "--format", fmt)
        row = [1]  # C(2200, n), one exact step from the last
        for n in range(2200):
            row.append(row[-1] * (2200 - n) // (n + 1))
        counts = [in_full(c) for c in row]
        assert (code, err) == (0, "")
        if fmt == "json":
            assert out == json.dumps(counts) + "\n"
        else:
            assert out == "".join(f"{n},{c}\n" for n, c in enumerate(counts))
        assert sys.get_int_max_str_digits() == digit_limit

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check(self, capsys, monkeypatch, digit_limit, fmt):
        value = 10**700

        def fake_cross_check(spec, n, budget):
            return AgreementReport({m: value for m in CountMethod}, {})

        monkeypatch.setattr(cli, "cross_check", fake_cross_check)
        code, out, _ = run(capsys, "check", "-m", "1", "-n", "1", "--format", fmt)
        digits = in_full(value)
        if fmt == "json":
            expected = json.dumps({"incexc": digits, "dp": digits, "brute": digits, "agree": True})
        else:
            expected = f"incexc {digits}\ndp {digits}\nbrute {digits}\nAGREE"
        assert (code, out) == (0, expected + "\n")
        assert sys.get_int_max_str_digits() == digit_limit

    def test_input_keeps_the_limit(self, capsys, digit_limit):
        code, out, err = run(capsys, "count", "-m", "1", "-n", "1" * 641)
        assert (code, out) == (2, "")
        assert "-n" in err
        assert sys.get_int_max_str_digits() == digit_limit

    # C(2132, 1066) has 641 digits: the smallest spec of ones whose count is
    # past the lowered limit.
    K = 2132

    def test_start_rank_of_any_size(self, capsys, monkeypatch, digit_limit):
        monkeypatch.setattr(enumeration, "_kept", None)  # drop the tables after
        total = comb(self.K, self.K // 2)
        argv = ["enumerate", "-m", ",".join(["1"] * self.K), "-n", str(self.K // 2),
                "--limit", "1", "--start-rank"]
        started = perf_counter()
        code, out, err = run(capsys, *argv, in_full(total - 1))
        elapsed = perf_counter() - started
        assert (code, out, err) == (0, ",".join(["1"] * (self.K // 2) + ["0"] * (self.K // 2)) + "\n", "")
        assert elapsed < 0.5
        assert run(capsys, *argv, in_full(total)) == (0, "", "")  # past the end
        assert sys.get_int_max_str_digits() == digit_limit

    @pytest.mark.parametrize("argv", [
        ("count", "-m", "1", "-n", "1" * 5000),
        ("count", "-m", "1", "-n", "1", "--budget", "0" * 5000),
        ("count", "-m", "1," * 2000 + "2" * 5000, "-n", "1"),
        ("count", "-m", "1", "-n", "1", "--method", "x" * 5000),
        ("count", "-m", "1", "-n", "1", "7" * 5000),
        ("enumerate", "-m", "1", "-n", "1", "--start-rank", "1" * 5000 + "x"),
    ], ids=["n", "budget", "multiplicities", "choice", "unrecognized", "start-rank"])
    def test_errors_echo_no_long_argument(self, capsys, digit_limit, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(" characters)\n")
        assert len(err.splitlines()[-1]) < 200


class TestSubprocessEntry:
    """The real process boundary: streams, exit status, module invocation."""

    def invoke(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "submultisets.cli", *argv],
            capture_output=True, text=True,
        )

    def test_count(self):
        proc = self.invoke("count", "-m", "5,9,14", "-n", "12")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "57\n", "")

    def test_capacity_diagnostics_on_stderr(self):
        proc = self.invoke("count", "-m", "5,5", "-n", "5", "--method", "brute",
                           "--budget", "1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("fmt,first", [("text", "0,0,0,0,6,6,6,6\n"),
                                           ("json", "[[0, 0, 0, 0, 6, 6, 6, 6], ")],
                             ids=["text", "json"])
    def test_closed_stdout_exits_1_quietly(self, fmt, first):
        """A reader that stops early, as `| head -1` does: no traceback, and
        exit 1. The stream, 398,567 rows, is far longer than a pipe's buffer."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "submultisets.cli", "enumerate", "-m", "6,6,6,6,6,6,6,6",
             "-n", "24", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.read(len(first)) == first
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), stderr) == (1, "")

    def test_import_adds_no_heavy_modules(self):
        """Importing the CLI pulls in none of the modules it has no use for in
        most processes. Compared with the same child's start-up modules; the
        child skips site (-S), which may load some of them (typing, for one),
        and the environment (-E), and finds the package in src."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys\n"
                f"sys.path.insert(0, {str(src)!r})\n"
                "before = set(sys.modules)\n"
                "import submultisets.cli\n"
                "print(' '.join(sorted(set(sys.modules) - before)))\n")
        proc = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True,
                              text=True, check=True)
        added = set(proc.stdout.split())
        assert "submultisets.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "typing", "json", "ast", "dis"}), added


class TestGeneralContract:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_deterministic_output(self, capsys):
        first = run(capsys, "table", "-m", "4,7,1", "--format", "json")
        second = run(capsys, "table", "-m", "4,7,1", "--format", "json")
        assert first == second
