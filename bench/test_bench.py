"""Tests of the benchmark's own parts: inputs, correctness gate and trace.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import generate  # noqa: E402
import run  # noqa: E402
from deon.cli import main  # noqa: E402
from layertrace import LAYER_OF, Tracer  # noqa: E402


def _instances(seed: int):
    rng = random.Random(seed)
    yield generate.scaling_scenario(rng, *run.SCALING_SHAPE)
    yield generate.scaling_scenario(rng, 4, 2, 3, 3, 1.0)
    yield generate.scaling_scenario(rng, 3, 1, 4, 3, 0.0)
    yield generate.fixpoint_scenario(rng, run.FIXPOINT_CHAIN)
    for n in (2, 3, 4, 5):
        yield generate.fixpoint_scenario(rng, n)


def _write(tmp_path: Path, inst: generate.Instance) -> Path:
    path = tmp_path / f"{inst.name}.deon"
    path.write_text(inst.text, encoding="utf-8")
    return path


def test_generated_files_pass_deon_validate(tmp_path, capsys):
    for seed in range(3):
        for inst in _instances(seed):
            assert main(["validate", str(_write(tmp_path, inst))]) == 0, inst.text
    for workload in ("scaling", "fixpoint"):
        cases = run.make_cases(workload, 0, tmp_path / workload)
        assert len(cases) == run.GENERATED_POOL
        assert main(["validate", *(str(c.path) for c in cases)]) == 0
    capsys.readouterr()


def test_generated_files_give_the_constructed_verdicts(tmp_path):
    rng = random.Random(7)
    small = [generate.scaling_scenario(rng, 4, 1, 3, 3, 1 / 3),
             generate.scaling_scenario(rng, 3, 2, 3, 3, 2 / 3)]
    small += [generate.fixpoint_scenario(rng, n) for n in (2, 3, 4, 5)]
    for inst in small:
        case = run.Case(inst.name, _write(tmp_path, inst), "generated", inst.expected())
        assert run.verdict_problem(case, run.Checker(main)(case)) is None, inst.text


def test_fixpoint_expectation_alternates_back_from_the_last_plan():
    inst = generate.fixpoint_scenario(random.Random(0), 5)
    expected = inst.expected()
    assert expected["rounds"] == 6 and expected["exit"] == 1
    overall = [expected["plans"][f"p{i}{inst.name[-3:]}"]["overall"] for i in range(5)]
    assert overall == ["unethical", "ethical", "unethical", "ethical", "unethical"]


def test_inputs_are_a_function_of_the_seed(tmp_path):
    first = run.make_cases("bundled", 3, tmp_path / "a")
    second = run.make_cases("bundled", 3, tmp_path / "b")
    assert [c.path.read_text() for c in first] == [c.path.read_text() for c in second]
    source = first[0].path.read_text()
    rng = random.Random(1)
    mutants = [generate.mutant(rng, source) for _ in range(200)]
    assert sum(m != source for m in mutants) > 190


def test_gate_accepts_the_bundled_files_and_flags_a_wrong_verdict(tmp_path):
    cases = run.make_cases("bundled", 0, tmp_path)
    golden = [c for c in cases[:9] if c.kind == "golden"]
    assert [c.label for c in golden] == list(run.GOLDEN)
    for case in golden:
        assert run.verdict_problem(case, run.Checker(main)(case)) is None, case.label
    theft = golden[0]
    wrong = run.Case("bus-as-theft", golden[3].path, "golden", theft.expected)
    assert run.verdict_problem(wrong, run.Checker(main)(wrong)) is not None


def test_gate_counts_a_raising_check_as_failed(tmp_path):
    def broken(argv):
        raise RuntimeError("boom")

    case = run.Case("m", tmp_path / "m.deon", "mutant")
    gate = run.Gate()
    check = run.Checker(broken)
    gate.score(case, check(case))
    gate.score(case, check(case))
    assert (gate.attempted, gate.failed, len(gate.failures)) == (2, 2, 1)


def test_traced_passes_repeat_their_counts_and_spans_nest(tmp_path):
    inst = generate.fixpoint_scenario(random.Random(2), 4)
    path = _write(tmp_path, inst)
    check = run.Checker(main)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for k in range(2):
                tracer.run_check(k, lambda: check(run.Case("f", path, "generated")))
        counts.append(tracer.counts)
        assert set(tracer.self_ms()) <= set(LAYER_OF)
        assert all(ms >= 0 for ms in tracer.self_ms().values())
        for name, start, end, parent, _ in tracer.spans:
            if parent >= 0:
                _, p_start, p_end, _, _ = tracer.spans[parent]
                assert p_start <= start <= end <= p_end, name
    assert counts[0] == counts[1]
    assert counts[0]["rounds"] == 2 * 5 and counts[0]["checks"] == 2
    assert counts[0]["distinct_queries"] < counts[0]["solve_calls"]
    # Installing and removing the trace leaves the program's callables as they were.
    import deon.principles
    assert not hasattr(deon.principles.solve, "__wrapped__")


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
