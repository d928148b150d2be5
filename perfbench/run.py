"""Benchmark for the submultisets package.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Runs one workload as a single closed-loop caller: one operation at a time,
the next only after the previous returned and was checked, in whole cycles
of the workload's mix until --seconds of operation time, at the speed of a
reference machine, is spent. Prints a
few detail lines, then as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, from a run
that executes every operation twice, once traced and once not. Times are
reported at the speed of a reference machine (see `Calibration`). Results
and spans are also written under perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
PROBE_REPEATS = 5
#: Median time of one calibration slice on the reference machine, a 2-vCPU
#: 2.0 GHz Xeon VM, in seconds, and the operation time between two slices.
CALIBRATION_REFERENCE_S = 0.006
CALIBRATE_EVERY = 0.1
#: The same for workloads that start a process per operation, whose slice is
#: a bare interpreter start.
INTERPRETER_REFERENCE_S = 0.075
INTERPRETER_EVERY = 0.3
#: An operation's time is scaled by the median of this many slices taken
#: nearest to it.
LOCAL_SLICES = 3
#: How a metric of each unit scales with the speed factor: times
#: multiply by it, rates divide by it, other units keep their value.
SPEED_POWER = {"s": 1, "ms": 1, "us": 1, "ns": 1, "1/s": -1}
LAYERS = ("core", "oracles", "enumeration", "cli")
#: Work counts computed from the inputs; a workload reports those it has.
COMPUTED = ("core.ie_terms", "oracles.dp_cells", "oracles.result_bits",
            "enumeration.iterate.items", "enumeration.sample.repeat_share",
            "cli.stdout_bytes")


class Record(NamedTuple):
    seconds: float
    ok: bool
    known: bool  # a failure from a documented defect, not a wrong answer
    problem: str | None


class Tracer:
    """Keeps spans (op id, name, start, end, parent) in memory.

    Each operation gets one span named after its kind; every public call the
    benchmark makes inside it is a child span with the same op id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, str | None]] = []
        self.op = -1
        self.parent: str | None = "op"  # None for probes made outside the op span

    def call(self, name: str, fn, *args, **kwargs):
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.op, name, started, perf_counter(), self.parent))

    def self_ms(self) -> dict[str, float]:
        """Self time per layer: each span minus the time of its children.

        Calls into the package have no child spans, so their self time is
        their duration; an operation span's self time is the benchmark's own.
        """
        child_time: dict[int, float] = {}
        totals = dict.fromkeys(("bench",) + LAYERS, 0.0)
        for op, name, start, end, parent in self.spans:
            if not name.startswith("op."):
                totals[name.split(".")[0]] += end - start
            if parent == "op":
                child_time[op] = child_time.get(op, 0.0) + end - start
        for op, name, start, end, parent in self.spans:
            if name.startswith("op."):
                totals["bench"] += end - start - child_time.get(op, 0.0)
        return {f"{layer}.self_ms": 1000 * t for layer, t in totals.items()}

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]


def _compositions(a: tuple[int, ...], n: int):
    """Vectors x <= a summing to n, by a recursive generator."""
    if not a:
        if n == 0:
            yield ()
        return
    for v in range(min(a[0], n), -1, -1):
        for rest in _compositions(a[1:], n - v):
            yield (v,) + rest


def calibration_slice() -> float:
    """Seconds taken by one fixed piece of pure-Python work.

    Loops, dict stores, big-integer arithmetic and a recursive generator
    of tuples: the kinds of work the package does. It never calls into the
    package.
    """
    started = perf_counter()
    total = 0
    table = {}
    for i in range(10_000):
        total += i * i % 7
        table[i & 255] = total
    x, modulus = 3 ** 2000, 7 ** 1500
    for i in range(25):
        x = (x * x + i) % modulus
    for x in _compositions((3,) * 6, 9):
        total += x[0]
    return perf_counter() - started


class Calibration:
    """The machine's speed during a run, from slices of fixed work.

    On a shared 2-vCPU VM (2.0 GHz Xeon) the same code runs up to ~25%
    faster or slower for minutes at a time, which swamps the differences
    the benchmark is meant to show. Slices of fixed work,
    spread through the run between operations, slow down and speed up with
    it: over 40 windows of 4 s, each running the same enumerate operations,
    the raw time varied by 11% (coefficient of variation) and the time
    divided by the window's median slice by 6-7%. Operations that each
    start a process follow the start of a bare interpreter more closely
    than in-process work (correlation 0.80 against 0.62 over 30 windows of
    18 cli calls), so there the slice is a `python -c pass`.

    Every time is reported multiplied by a factor, the reference slice time
    over the median time of nearby slices: the time the operation would
    take on the reference machine. The end-to-end metrics scale each
    operation by the LOCAL_SLICES slices nearest to it, which follows drift
    within a run too. On stretches of 20 s cut from one long recording of a
    workload, the spread (IQR over median) across stretches was, raw / one
    factor per stretch / local factors: count ops_per_s 0.21 / 0.057 /
    0.043, tail latency 0.13 / 0.12 / 0.083; sample median latency 0.11 /
    0.20 / 0.026, tail 0.13 / 0.24 / 0.037. Per-layer metrics use one
    factor for the run. The raw figures are kept in the results file.
    """

    def __init__(self, work, reference: float, every: float) -> None:
        self.work = work
        self.reference = reference
        self.every = every
        self.samples: list[float] = []
        self.owed = 0.0

    def slice(self) -> None:
        self.samples.append(self.work())

    def after(self, seconds: float) -> None:
        """Take a slice once `every` seconds of operation time have passed."""
        self.owed += seconds
        if self.owed >= self.every:
            self.owed = 0.0
            self.slice()

    def factor(self) -> float:
        return self.reference / statistics.median(self.samples)

    def recent_factor(self) -> float:
        """The factor from the latest slices."""
        return self.reference / statistics.median(self.samples[-LOCAL_SLICES:])

    def local_factor(self, mark: int) -> float:
        """The factor from the slices nearest to position `mark`."""
        lo = max(0, min(mark - LOCAL_SLICES // 2, len(self.samples) - LOCAL_SLICES))
        return self.reference / statistics.median(self.samples[lo:lo + LOCAL_SLICES])


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def python_ms(code: str, env: dict[str, str]) -> float:
    """Wall time of one fresh interpreter running `code`, in milliseconds.

    Output goes to a pipe: with a timeout, subprocess notices the exit through
    the pipe closing, where waiting on the process alone would poll in steps
    of up to 50 ms.
    """
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=60)
    return 1000 * (perf_counter() - started)


def measure_setup(warmup: str, env: dict[str, str],
                  calibration: Calibration) -> tuple[float, float]:
    """Median seconds, over fresh interpreters, of import plus one warm-up call.

    Also returns the median milliseconds of a bare interpreter start, timed
    in turn with them: import time follows it closely (correlation 0.95
    over 40 windows of 7 pairs on a shared 2-vCPU VM, against 0.90 for the
    in-process calibration slice), so it calibrates `setup_s`.
    """
    code = ("import time\n_t = time.perf_counter()\nimport submultisets\n"
            f"{warmup}\nprint(time.perf_counter() - _t)\n")
    samples, bare = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        if i:  # the first run may still be writing bytecode caches
            samples.append(float(out.split()[-1]))
            bare.append(python_ms("pass", env))
        calibration.slice()
    return statistics.median(samples), statistics.median(bare)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(workload, i: int, op, tracer: Tracer | None) -> Record:
    """Run and check one operation; a failure is recorded, not raised."""
    started = perf_counter()
    if tracer:
        tracer.op = i
    try:
        elapsed, problem = workload.run(op, tracer.call if tracer else direct)
        known = False
    except Exception as exc:  # a failed operation is recorded, not fatal
        elapsed = perf_counter() - started
        problem = f"{type(exc).__name__}: {exc}"[:200]
        known = workload.known_failure(op, exc)
    if tracer:
        tracer.spans.append((i, f"op.{op.kind}", started, perf_counter(), None))
        tracer.parent = None
        workload.probe(op, tracer.call)
        tracer.parent = "op"
    return Record(elapsed, problem is None, known, problem)


def run_untraced(workload, seed: int, seconds: float,
                 calibration: Calibration) -> tuple[list[Record], list[int]]:
    """Closed loop over whole cycles until `seconds` of operation time is spent.

    The time counts at reference speed, so the number of cycles, which
    places the tail among the operations, does not follow the machine's
    speed. Returns the records and, for each, the number of calibration
    slices taken before it ended.
    """
    records: list[Record] = []
    marks: list[int] = []
    busy = 0.0
    i = 0
    for cycle in workload.cycles(seed):
        if busy >= seconds:
            break
        for op in cycle:
            records.append(run_one(workload, i, op, None))
            marks.append(len(calibration.samples))
            busy += records[-1].seconds * calibration.recent_factor()
            calibration.after(records[-1].seconds)
            i += 1
    return records, marks


def run_paired(workload, seed: int, seconds: float, tracer: Tracer,
               calibration: Calibration):
    """Run every operation twice in a row, once untraced and once traced.

    The order alternates from one operation to the next, so warm caches
    favour neither side, and both copies see the same machine state: the
    machine's speed drifts over seconds, which would otherwise swamp the
    tracing overhead. Returns the untraced records, the traced records and
    the compositions the traced copies received.
    """
    plain: list[Record] = []
    traced: list[Record] = []
    traced_items = 0
    busy = 0.0
    i = 0
    for cycle in workload.cycles(seed):
        if busy >= seconds:
            break
        for op in cycle:
            for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                before = workload.items
                record = run_one(workload, i, op, t)
                (traced if t else plain).append(record)
                if t:
                    traced_items += workload.items - before
                busy += record.seconds * calibration.recent_factor()
                calibration.after(record.seconds)
            i += 1
    return plain, traced, traced_items


def latency_summary(records: list[Record]) -> dict[str, float]:
    """Median and tail latency; a failed operation sorts above every success.

    The tail is the highest percentile with at least ten samples beyond it,
    that is the 11th-highest sample.
    """
    ordered = sorted((not r.ok, r.seconds) for r in records)
    count = len(ordered)
    tail_index = max(count - 11, 0)
    return {
        "latency_p50_ms": 1000 * ordered[(count - 1) // 2][1],
        "latency_tail_ms": 1000 * ordered[tail_index][1],
        "tail_percentile": 100 * (tail_index + 1) / count,
        "samples": count,
    }


def ops_per_s(records: list[Record]) -> float:
    return sum(r.ok for r in records) / sum(r.seconds for r in records)


def end_to_end(records: list[Record], setup_s: float, rss_mb: float) -> dict[str, float]:
    summary = latency_summary(records)
    return {
        "ops_per_s": ops_per_s(records),
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def p50_ms(values: list[float]) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def per_layer(workload, tracer: Tracer, plain: list[Record], traced: list[Record],
              items: int, env: dict[str, str], interpreter_ms: float) -> dict[str, float]:
    d = tracer.durations
    iterate_s = sum(d("enumeration.iterate")) + sum(d("enumeration.iterate.next"))
    m: dict[str, float] = {}
    for name in ("core.count_upper_constrained", "oracles.count_dp"):
        m[f"{name}.ms_total"] = 1000 * sum(d(name))
        m[f"{name}.ms_p50"] = p50_ms(d(name))
        m[f"{name}.calls"] = len(d(name))
    m["core.MultisetSpec.us_p50"] = 1000 * p50_ms(d("core.MultisetSpec"))
    m["oracles.full_table.ms_total"] = 1000 * sum(d("oracles.full_table"))
    m["oracles.cross_check.ms_total"] = 1000 * sum(d("oracles.cross_check"))
    m["enumeration.iterate.first_item_ms"] = p50_ms(d("enumeration.iterate"))
    m["enumeration.iterate.ns_per_item"] = 1e9 * iterate_s / items if items else 0.0
    for name in ("enumeration.unrank", "enumeration.rank"):
        m[f"{name}.ms_p50"] = p50_ms(d(name))
        m[f"{name}.calls"] = len(d(name))
    m["cli.process_ms_p50"] = p50_ms(d("cli.process"))
    m["cli.main.ms_p50"] = p50_ms(d("cli.main"))
    m["cli.import_ms"] = 0.0
    if workload.name == "cli":
        imports = [python_ms("import submultisets.cli", env) for _ in range(PROBE_REPEATS)]
        m["cli.import_ms"] = statistics.median(imports) - interpreter_ms
    m["cli.interpreter_ms"] = interpreter_ms
    m.update(tracer.self_ms())
    untraced, traced_rate = ops_per_s(plain), ops_per_s(traced)
    m["trace.untraced_ops_per_s"] = untraced
    m["trace.traced_ops_per_s"] = traced_rate
    m["trace.overhead_pct"] = 100 * (untraced / traced_rate - 1)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "submultisets" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = workloads.make(args.workload, str(SRC))
    if workload.runs_processes:
        calibration = Calibration(lambda: python_ms("pass", env) / 1000,
                                  INTERPRETER_REFERENCE_S, INTERPRETER_EVERY)
    else:
        calibration = Calibration(calibration_slice, CALIBRATION_REFERENCE_S, CALIBRATE_EVERY)
    setup_s, interpreter_ms = measure_setup(workload.warmup, env, calibration)
    exec("import submultisets\n" + workload.warmup, {})

    environment = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": git_commit(),
        "cli.interpreter_ms": interpreter_ms,
    }
    print("environment:", json.dumps(environment))

    if args.trace:
        tracer = Tracer()
        plain, traced, items = run_paired(workload, args.seed, args.seconds, tracer,
                                          calibration)
        records = plain + traced
        counted = list(islice(workload.schedule(args.seed), workload.counted_ops))
        computed = workload.computed(counted)
        metrics = per_layer(workload, tracer, plain, traced, items, env, interpreter_ms)
        metrics.update(dict.fromkeys(COMPUTED, 0), **computed)
        print(f"computed from inputs, over the first {len(counted)} operations:",
              json.dumps(computed))
        factor = calibration.factor()
        scaled = {name: value * factor ** SPEED_POWER[units[name]]
                  if units[name] in SPEED_POWER else value
                  for name, value in metrics.items() if name in units}
    else:
        records, marks = run_untraced(workload, args.seed, args.seconds, calibration)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload.runs_processes else resource.RUSAGE_SELF)
        metrics = end_to_end(records, setup_s, usage.ru_maxrss / 1024)
        scaled = end_to_end(
            [r._replace(seconds=r.seconds * calibration.local_factor(m))
             for r, m in zip(records, marks)],
            setup_s * 1000 * INTERPRETER_REFERENCE_S / interpreter_ms, usage.ru_maxrss / 1024)
        summary = latency_summary(records)
        print(f"latency: {summary['samples']} samples, tail is p{summary['tail_percentile']:.2f}")

    failed = [r for r in records if not r.ok]
    correct = all(r.known for r in failed)
    print(f"operations: {len(records)} attempted, {len(failed)} failed "
          f"({sum(r.known for r in failed)} from the known defect), "
          f"error_rate {len(failed) / len(records):.4f}")
    for problem in sorted({r.problem for r in failed if not r.known})[:5]:
        print("problem:", problem)

    missing = set(wanted) - set(metrics)
    if missing:
        raise RuntimeError(f"benchmark did not measure {sorted(missing)}")
    environment["calibration_ms"] = 1000 * statistics.median(calibration.samples)
    environment["calibration_slices"] = len(calibration.samples)
    environment["speed_factor"] = calibration.factor()
    print(f"calibration: {len(calibration.samples)} slices, median "
          f"{environment['calibration_ms']:.3f} ms, run-wide factor "
          f"{environment['speed_factor']:.4f}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": scaled[name], "unit": units[name]} for name in wanted},
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(
        {"environment": environment, "error_rate": len(failed) / len(records),
         "raw_metrics": {name: metrics[name] for name in wanted}, **result},
        indent=1))
    if args.trace:
        with open(out / f"{stem}-spans.jsonl", "w") as f:
            for op, name, start, end, parent in tracer.spans:
                f.write(json.dumps({"op": op, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
