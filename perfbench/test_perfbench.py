"""Self-tests of the benchmark: seeded inputs repeat and the checkers bite.

    python3 -m pytest perfbench -q
"""
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from submultisets import count_wrong_formula, iterate  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SRC = str(run.SRC)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    def inputs(seed):
        return list(islice(workloads.make(name, SRC).schedule(seed), 120))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_checker_flags_wrong_count():
    moduli = tuple(checks.ModP(p, 100) for p in checks.PRIMES)
    wrong = count_wrong_formula((2, 3, 3), 5)
    assert wrong == 10
    assert checks.check_count((2, 3, 3), 5, wrong, moduli) is not None
    assert checks.check_count((2, 3, 3), 5, 9, moduli) is None
    assert checks.check_exact(wrong, checks.exact_count((2, 3, 3), 5), "incexc") is not None


def test_checker_flags_stream_that_does_not_increase():
    a, n = (2, 3, 3), 5
    items = list(iterate(a, n))
    good = checks.StreamChecker(a, n)
    good.feed(items[:4])
    good.feed(items[4:])
    assert good.finish(len(items), items[0], items[-1]) is None

    repeated = checks.StreamChecker(a, n)
    repeated.feed(items[:3] + items[2:3])
    assert repeated.finish(4, items[0]) is not None

    across_chunks = checks.StreamChecker(a, n)
    across_chunks.feed(items[3:5])
    across_chunks.feed(items[:2])
    assert across_chunks.finish(4, items[3]) is not None


def test_checker_flags_cli_exit_code():
    negative_n = ("count", "-m", "3,4", "-n", "-1")
    expected = checks.expected_cli(negative_n)
    assert expected == (2, b"")
    assert checks.check_cli(2, b"", expected) is None
    assert checks.check_cli(0, b"", expected) is not None
    assert checks.check_cli(0, b"9\n", checks.expected_cli(("count", "-m", "2,3,3", "-n", "5"))) is None


def test_tail_is_eleventh_highest_and_failures_sort_last():
    records = [run.Record(s / 1000, True, False, None) for s in range(1, 101)]
    records.append(run.Record(0.0005, False, True, "RecursionError"))
    summary = run.latency_summary(records)
    assert summary["latency_tail_ms"] == pytest.approx(91.0)
    assert summary["latency_p50_ms"] == pytest.approx(51.0)


def test_every_enumerate_cycle_holds_one_known_failure():
    cycles = workloads.make("enumerate", SRC).cycles(7)
    for cycle in islice(cycles, 2):
        widths = [len(op.a) for op in cycle if op.arg[0] == 1000]
        assert len(cycle) == 117
        assert len(widths) == 4
        assert sum(k >= 1000 for k in widths) == 1


def test_times_scale_with_machine_speed_and_rates_inversely():
    calibration = run.Calibration(run.calibration_slice, run.CALIBRATION_REFERENCE_S, 0.1)
    calibration.samples = [2 * run.CALIBRATION_REFERENCE_S] * 3
    assert calibration.factor() == pytest.approx(0.5)
    assert run.SPEED_POWER["ms"] == 1 and run.SPEED_POWER["1/s"] == -1
    assert "count" not in run.SPEED_POWER


def test_local_factor_uses_the_nearest_slices():
    ref = run.CALIBRATION_REFERENCE_S
    calibration = run.Calibration(run.calibration_slice, ref, 0.1)
    calibration.samples = [ref] * 20 + [2 * ref] * 20
    assert calibration.local_factor(0) == pytest.approx(1.0)
    assert calibration.local_factor(40) == pytest.approx(0.5)
    assert calibration.recent_factor() == pytest.approx(0.5)
