"""End-to-end and per-layer benchmark of `deon check --format json`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bundled|scaling|fixpoint --seed N \
        --seconds S --trace 0|1

One caller in a closed loop calls `deon.cli.main` in-process and waits for
each verdict before sending the next file. Each call is timed from the file
path to the exit code, with stdout and stderr captured. Every output is
checked against the verdicts the input must produce; checks that raise or
disagree count as failed and are reported with their input. The reported
times are scaled to a reference CPU speed by a calibration loop timed beside
the checks (see "Reference speed" below); the unscaled figures are printed
too.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a fixed set of
inputs alternately without and with the layer trace and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import generate  # noqa: E402  (lives beside this file)
from layertrace import LAYER_OF, LAYERS, Tracer  # noqa: E402

#: The bundled scenarios; theft and pedestrian have frozen JSON snapshots.
GOLDEN = ("theft", "ambulance", "merge", "bus", "pedestrian")
SNAPSHOTS = ("theft", "pedestrian")
#: Verdicts stated by the acceptance and CLI tests for the files without a
#: snapshot: exit code, then plan -> (overall, failing principle or None).
STATED = {
    "ambulance": (1, {"siren": ("unethical", "generalization")}),
    "merge": (1, {"merge": ("unethical", "utility")}),
    "bus": (0, {"pull": ("ethical", None), "cross": ("ethical", None)}),
}
#: Mutants per cycle of the five bundled files. With 5 + 4 the median check
#: falls inside the cluster of one bundled file, not on the edge between the
#: fast rejected mutants and the bundled files, so it does not jump between them.
MUTANTS_PER_CYCLE = 4
MUTANT_POOL = 400

#: Scaling shape: agents, objects, quantifier depth, plans, fraction of plans
#: with object variables. Every check gets a fresh instance of it.
SCALING_SHAPE = (7, 1, 3, 3, 1 / 3)
FIXPOINT_CHAIN = 12
GENERATED_POOL = 240

SETUP_REPEATS = 5
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
#: Checks are timed in blocks of at least this long, with the calibration
#: loop timed between blocks.
BLOCK_S = 0.2
#: A time of `calibration_loop` between its fast-phase and slow-phase times
#: on the baseline machine (see BASELINE.md). Times are scaled to this speed.
REFERENCE_LOOP_S = 0.0033
TRACE_SET = {"bundled": 90, "scaling": 3, "fixpoint": 6}


@dataclass(frozen=True)
class Case:
    """One input file and what checking it must give."""

    label: str
    path: Path
    kind: str  # "golden" | "mutant" | "generated"
    expected: object = None


# --------------------------------------------------------------------------
# Inputs


def make_cases(workload: str, seed: int, directory: Path) -> list[Case]:
    """Write the seeded inputs of a workload and return them in call order."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bundled":
        return _bundled_cases(rng, directory)
    cases = []
    for k in range(GENERATED_POOL):
        if workload == "scaling":
            inst = generate.scaling_scenario(rng, *SCALING_SHAPE)
        else:
            inst = generate.fixpoint_scenario(rng, FIXPOINT_CHAIN)
        path = directory / f"{k:03d}_{inst.name}.deon"
        path.write_text(inst.text, encoding="utf-8")
        cases.append(Case(inst.name, path, "generated", inst.expected()))
    return cases


def _bundled_cases(rng: random.Random, directory: Path) -> list[Case]:
    from deon import scenarios

    golden = []
    for name in GOLDEN:
        expected = (
            (ROOT / "tests" / "snapshots" / f"{name}.json").read_text(encoding="utf-8")
            if name in SNAPSHOTS else STATED[name]
        )
        golden.append(Case(name, scenarios.path(name), "golden", expected))
    sources = [scenarios.source(name) for name in GOLDEN]
    mutants = []
    for k in range(MUTANT_POOL):
        origin = rng.randrange(len(GOLDEN))
        path = directory / f"mutant{k:03d}_{GOLDEN[origin]}.deon"
        path.write_text(generate.mutant(rng, sources[origin]), encoding="utf-8")
        mutants.append(Case(path.stem, path, "mutant"))
    cases = []
    for cycle in range(0, MUTANT_POOL, MUTANTS_PER_CYCLE):
        for i, case in enumerate(golden):
            cases.append(case)
            if i < MUTANTS_PER_CYCLE:
                cases.append(mutants[cycle + i])
    return cases


# --------------------------------------------------------------------------
# Checking


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    error: str | None  # traceback text when main raised


class Checker:
    """Calls `deon check --format json` in-process with stdout and stderr captured.

    The capture buffers are reused for every call: click caches a wrapper per
    output stream for the life of the process, so a fresh buffer per call
    would grow the heap with every check.
    """

    def __init__(self, main) -> None:
        self.main = main
        self._out, self._err = io.StringIO(), io.StringIO()

    def __call__(self, case: Case) -> Outcome:
        for buffer in (self._out, self._err):
            buffer.seek(0)
            buffer.truncate()
        error = None
        try:
            with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
                code = self.main(["check", "--format", "json", str(case.path)])
        except Exception:  # a traceback is a failed check, reported with its input
            code, error = None, traceback.format_exc()
        return Outcome(code, self._out.getvalue(), self._err.getvalue(), error)


def verdict_problem(case: Case, o: Outcome) -> str | None:
    """Why this outcome is wrong for the case, or None when it is right."""
    if o.error is not None:
        return "raised: " + o.error.strip().splitlines()[-1]
    if case.kind == "mutant":
        if o.code not in (0, 1, 2, 3):
            return f"exit code {o.code} outside 0-3"
        if "Traceback" in o.err:
            return "traceback on stderr"
        if o.code != 3:
            try:
                json.loads(o.out)
            except ValueError:
                return "exit 0-2 without a JSON document on stdout"
        return None
    if case.kind == "golden" and isinstance(case.expected, str):
        if o.out != case.expected:
            return "output differs from the frozen snapshot"
        return None
    try:
        doc = json.loads(o.out)
    except ValueError:
        return f"exit {o.code} without a JSON document on stdout"
    plans = {p["plan"]: p for p in doc["plans"]}
    statuses = {
        pid: {c["principle"]: c["status"] for c in p["principles"]} for pid, p in plans.items()
    }
    if case.kind == "golden":
        code, stated = case.expected
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        for pid, (overall, failing) in stated.items():
            if pid not in plans or plans[pid]["overall"] != overall:
                return f"plan {pid} is not {overall}"
            if failing is not None and statuses[pid].get(failing) != "fail":
                return f"plan {pid} does not fail {failing}"
        return None
    exp = case.expected
    if o.code != exp["exit"]:
        return f"exit {o.code}, expected {exp['exit']}"
    if doc["rounds"] != exp["rounds"] or doc["stable"] != exp["stable"]:
        return f"rounds {doc['rounds']} stable {doc['stable']}, expected {exp['rounds']}"
    got = {pid: {"overall": plans[pid]["overall"], **statuses[pid]} for pid in plans}
    if got != exp["plans"]:
        return "plan verdicts differ from the construction"
    return None


class Gate:
    """Scores every check; identical outcomes of one case are judged once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[Case, str]] = []
        self._judged: dict[tuple, str | None] = {}

    def score(self, case: Case, o: Outcome) -> None:
        self.attempted += 1
        key = (case.path, o.code, o.out, o.err, o.error)
        if key not in self._judged:
            self._judged[key] = verdict_problem(case, o)
            if self._judged[key] is not None:
                self.failures.append((case, self._judged[key]))
        if self._judged[key] is not None:
            self.failed += 1

    def report(self) -> None:
        for case, problem in self.failures:
            print(f"FAILED {case.label} ({case.kind}): {problem}", file=sys.stderr)
            print(f"--- input {case.path.relative_to(ROOT)}", file=sys.stderr)
            print(case.path.read_text(encoding="utf-8", errors="replace"), file=sys.stderr)
            print("---", file=sys.stderr)


# --------------------------------------------------------------------------
# Reference speed
#
# The CPU speed of a shared VM drifts: a fixed pure-Python loop runs up to
# ~45% slower in phases that last from seconds to over a minute, longer than
# one run. Whole runs would land in fast or slow phases, and their medians
# would differ by more than any useful bound. So every timing is scaled to a
# reference speed: a fixed pure-Python calibration loop, independent of deon,
# is timed beside each block of checks, and a check's wall time t is reported
# as t * REFERENCE_LOOP_S / (loop time around its block). A change to deon
# moves the scaled times exactly as it moves the wall times; a change of the
# machine's speed moves the loop as well and cancels.


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def _mix(x: int, y: int) -> int:
    return (x * 31 + y) % 1009


def calibration_loop() -> int:
    """Fixed interpreter work of the kind deon does: calls, objects, tuples, dicts."""
    seen: dict[int, int] = {}
    total = 0
    for i in range(3000):
        pair = _Pair(i, i + 1)
        key = (pair.a, pair.b, _mix(pair.a, pair.b))
        seen[key[2]] = seen.get(key[2], 0) + 1
        total += len([v for v in key if v & 1])
    return total + len(seen)


def loop_time() -> float:
    """Median of five timings of `calibration_loop`, in seconds."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def to_reference(before: float, after: float) -> float:
    """The factor that scales a wall time measured between two loop timings."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


# --------------------------------------------------------------------------
# Set-up and measurement


def fresh_checker() -> Checker:
    """Import deon from the checkout's sources anew and wrap `cli.main`."""
    for name in [m for m in sys.modules if m == "deon" or m.startswith("deon.")]:
        del sys.modules[name]
    return Checker(importlib.import_module("deon.cli").main)


def set_up(workload: str, seed: int):
    """Import, input generation and warm-up, repeated; returns the last set.

    The set-up time is the median over the repeats, each scaled to the
    reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = loop_time()
        started = time.perf_counter()
        check = fresh_checker()
        cases = make_cases(workload, seed, OUT / "inputs" / f"{workload}-{seed}")
        for case in cases[:10 if workload == "bundled" else 1]:
            check(case)
        elapsed = time.perf_counter() - started
        times.append(elapsed * to_reference(before, loop_time()))
    return check, cases, statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def timed(check) -> tuple[Outcome, float]:
    """Run `check()` from a clean heap, as in a fresh process; returns its wall time.

    Garbage left by earlier checks is collected before the clock starts, so
    each check pays only for the collections its own allocations trigger.
    """
    gc.collect()
    started = time.perf_counter()
    outcome = check()
    return outcome, time.perf_counter() - started


def measure(check: Checker, cases: list[Case], seconds: float, gate: Gate) -> dict:
    """Check the cases in turn until `seconds` are up; times are scaled per block."""
    wall: list[float] = []
    times: list[float] = []  # scaled to the reference speed
    gc.collect()
    gc.freeze()  # keep set-up objects out of the per-check collections
    before = loop_time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_SAMPLES:
        block: list[float] = []
        block_end = time.perf_counter() + BLOCK_S
        while not block or time.perf_counter() < block_end:
            case = cases[(len(times) + len(block)) % len(cases)]
            outcome, seconds_taken = timed(lambda: check(case))
            block.append(seconds_taken)
            gate.score(case, outcome)
        after = loop_time()
        factor = to_reference(before, after)
        wall += block
        times += [t * factor for t in block]
        before = after
    # The tail is printed but not a result metric: see "Tail" in BASELINE.md.
    percentile, tail_s = tail(times)
    print(f"samples {len(times)}; check_tail_ms (p{percentile:.2f}) {tail_s * 1e3:.6g} ms")
    print(f"unscaled wall time: check_p50_ms {statistics.median(wall) * 1e3:.6g}, "
          f"check_tail_ms {tail(wall)[1] * 1e3:.6g}, checks_per_s {len(wall) / sum(wall):.6g}")
    return {
        "check_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "checks_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _pass(check: Checker, cases: list[Case], gate: Gate, tracer: Tracer | None) -> float:
    """Check every case once, traced or not; returns the summed wall time."""
    total = 0.0
    for k, case in enumerate(cases):
        if tracer is None:
            outcome, seconds_taken = timed(lambda: check(case))
        else:
            outcome, seconds_taken = timed(lambda: tracer.run_check(k, lambda: check(case)))
        total += seconds_taken
        gate.score(case, outcome)
    return total


def measure_traced(check: Checker, cases: list[Case], seconds: float, gate: Gate,
                   spans: Path) -> dict:
    """Alternate untraced and traced passes over a fixed set of inputs.

    Every traced pass must repeat the counts of the first one exactly. The
    spans of the first traced pass are written to `spans` at the end.
    """
    untraced = traced = 0.0
    self_ms: Counter[str] = Counter()
    first: Tracer | None = None
    passes = 0
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    while passes < 2 or time.perf_counter() < deadline:
        untraced += _pass(check, cases, gate, None)
        tracer = Tracer()
        with tracer:
            traced += _pass(check, cases, gate, tracer)
        passes += 1
        self_ms.update(tracer.self_ms())
        if first is None:
            first = tracer
        elif tracer.counts != first.counts:
            raise SystemExit(f"traced passes disagree on counts: {dict(first.counts)} "
                             f"vs {dict(tracer.counts)}")
    first.write(spans)

    ms = {name: total / (passes * len(cases)) for name, total in self_ms.items()}
    layer = dict.fromkeys(LAYERS, 0.0)
    for name, value in ms.items():
        layer[LAYER_OF[name]] += value
    everything = sum(layer.values())
    print("layer self-time share: " + ", ".join(
        f"{name} {100 * value / everything:.1f}%" for name, value in layer.items()))
    c = first.counts
    calls = max(1, c["solve_calls"])
    parses = max(1, c["parse_calls"])
    return {
        "sat.solve_ms": (layer["sat"], "ms"),
        "sat.solve_calls": (c["solve_calls"], "count"),
        "sat.clauses_per_call": (c["solve_clauses"] / calls, "count"),
        "sat.vars_per_call": (c["solve_vars"] / calls, "count"),
        "sat.unsat_ratio": (c["solve_unsat"] / calls, "ratio"),
        "logic.ground_ms": (ms.get("logic.ground", 0.0), "ms"),
        "logic.ground_calls": (c["ground_calls"], "count"),
        "logic.build_ms": (ms.get("logic.build", 0.0), "ms"),
        "logic.build_calls": (c["build_calls"], "count"),
        "logic.clauses_built": (c["clauses_built"], "count"),
        "principles.self_ms": (layer["principles"], "ms"),
        "principles.rounds": (c["rounds"], "count"),
        "principles.queries_per_check": (c["solve_calls"] / c["checks"], "count"),
        "principles.distinct_query_ratio": (c["distinct_queries"] / calls, "ratio"),
        "dsl.parse_ms": (layer["dsl"], "ms"),
        "dsl.us_per_input": (1e3 * layer["dsl"] * c["checks"] / parses, "us"),
        "dsl.reject_ratio": (c["parse_rejects"] / parses, "ratio"),
        "scenario.validate_ms": (layer["scenario"], "ms"),
        "cli.self_ms": (layer["cli"], "ms"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bundled", "scaling", "fixpoint"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deon" / "cli.py").is_file():
        print(f"no deon sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    check, cases, setup_s = set_up(args.workload, args.seed)
    gate = Gate()
    if args.trace:
        subset = cases[: TRACE_SET[args.workload]]
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = measure_traced(check, subset, args.seconds, gate, spans)
    else:
        metrics = measure(check, cases, args.seconds, gate)
        metrics["setup_s"] = (setup_s, "s")
    gate.report()

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {gate.failed / gate.attempted:.6g} ratio "
          f"({gate.failed} of {gate.attempted} checks)")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
