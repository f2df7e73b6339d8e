"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import contextlib
import dataclasses
import itertools
import random
import time
from fractions import Fraction

from reference_sat import brute_force

from deon import scenarios
from deon.cli import EXIT_UNETHICAL, main, render_structured
from deon.dsl import parse_scenario, print_scenario
from deon.logic import Atom, GroundClauseSet, agent_const
from deon.principles import (
    AUTONOMY,
    ETHICAL,
    FAIL,
    GENERALIZATION,
    PASS,
    QueryCompiler,
    ReasonsContradiction,
    UNETHICAL,
    UTILITY,
    can_rationally_believe_possible,
    evaluate,
    rationally_required_to_deny_possible,
)
from deon.sat import solve
from deon.scenario import UtilityTable


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _load(name: str):
    result = parse_scenario(scenarios.source(name), filename=f"{name}.deon")
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.scenario


def test_criterion_1_theft(capsys):
    with criterion(1, "theft fails generalization"):
        started = time.perf_counter()
        code = main(["check", str(scenarios.path("theft"))])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == EXIT_UNETHICAL
        assert "steal: UNETHICAL (generalization)" in out
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_ambulance():
    with criterion(2, "ambulance fails generalization; effect removal flips it"):
        amb = _load("ambulance")
        verdicts = evaluate(amb)
        assert verdicts.plan("siren").overall == UNETHICAL
        assert verdicts.plan("siren").check(GENERALIZATION).status == FAIL
        relaxed = dataclasses.replace(amb, effects=())
        assert QueryCompiler(relaxed).check_generalization(relaxed.plan("siren")).status == PASS
        assert evaluate(relaxed).plan("siren").overall == ETHICAL


def test_criterion_3_traffic_merge():
    with criterion(3, "merge fails utility; swapped utilities flip it"):
        merge = _load("merge")
        verdict = evaluate(merge).plan("merge")
        assert verdict.overall == UNETHICAL
        utility = verdict.check(UTILITY)
        assert utility.status == FAIL
        assert utility.evidence.dominator == Atom("wait_for_gap", (agent_const("a"),))
        a = agent_const("a")
        swapped = dataclasses.replace(
            merge,
            utilities=UtilityTable({
                ("entering", Atom("merge_now", (a,))): Fraction(2),
                ("entering", Atom("wait_for_gap", (a,))): Fraction(1),
            }),
        )
        assert evaluate(swapped).plan("merge").overall == ETHICAL


def test_criterion_4_bus_coercion():
    with criterion(4, "forcible pull passes autonomy via the second disjunct"):
        bus = _load("bus")
        pair = QueryCompiler(bus).check_autonomy_pair(bus.plan("pull"), bus.plan("cross"))
        assert pair.status == PASS
        assert isinstance(pair.evidence, ReasonsContradiction)
        verdicts = evaluate(bus)
        autonomy = verdicts.plan("pull").check(AUTONOMY)
        assert autonomy.status == PASS
        assert any(
            other == "cross" and isinstance(ev, ReasonsContradiction)
            for other, ev in autonomy.evidence.pairs
        )
        assert verdicts.plan("pull").overall == ETHICAL


def test_criterion_5_pedestrian():
    with criterion(5, "brake ethical, no_brake fails autonomy, stable in 2 rounds"):
        ped = _load("pedestrian")
        verdicts = evaluate(ped)
        assert verdicts.plan("brake").overall == ETHICAL
        no_brake = verdicts.plan("no_brake")
        assert no_brake.overall == UNETHICAL
        autonomy = no_brake.check(AUTONOMY)
        assert autonomy.status == FAIL
        assert autonomy.evidence.other_plan == "cross"
        assert verdicts.stable
        assert verdicts.rounds <= 2


def _random_clause_set(rng: random.Random) -> GroundClauseSet:
    n = rng.randint(1, 12)
    m = rng.randint(1, 2 * n + 4)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, 3)
        clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width)))
    return GroundClauseSet(tuple(Atom(f"v{i}") for i in range(n)), 0, tuple(clauses))


def test_criterion_6_sat_oracle_equivalence():
    with criterion(6, "solver agrees with the exhaustive oracle on 10^4 cases"):
        rng = random.Random(0xACE5)
        started = time.perf_counter()
        disagreements = 0
        for _ in range(10_000):
            cs = _random_clause_set(rng)
            fast = solve(cs)
            slow = brute_force(cs)
            if fast.satisfiable != slow.satisfiable:
                disagreements += 1
            if fast.satisfiable:
                assert fast.model.satisfies(cs)
            if slow.satisfiable:
                assert slow.model.satisfies(cs)
        elapsed = time.perf_counter() - started
        assert disagreements == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_duality_everywhere():
    with criterion(7, "believable/required duality on every modal query"):
        total = 0
        for name in scenarios.NAMES:
            log = []
            evaluate(_load(name), query_log=log)
            assert log, name
            for query in log:
                believe = can_rationally_believe_possible(query.clause_set)
                deny = rationally_required_to_deny_possible(query.clause_set)
                assert believe == (not deny), query.check
                assert query.satisfiable == believe, query.check
                total += 1
        assert total >= 10


def _mutate(rng: random.Random, text: str) -> str:
    out = text
    for _ in range(rng.randint(1, 3)):
        if not out:
            break
        kind = rng.randrange(3)
        i = rng.randrange(len(out))
        j = min(len(out), i + rng.randint(1, 16))
        if kind == 0:
            out = out[:i] + out[j:]
        elif kind == 1:
            out = out[:i] + out[i:j] + out[i:j] + out[j:]
        else:
            noise = "".join(
                rng.choice("{}(),;.=->#abz01/ \n\t\ré世")
                for _ in range(rng.randint(1, 8))
            )
            out = out[:i] + noise + out[j:]
    return out


def test_criterion_8_parser_robustness():
    with criterion(8, "parser survives 10^5 fuzz inputs; golden round trips hold"):
        sources = {name: scenarios.source(name) for name in scenarios.NAMES}
        for name, source in sources.items():
            parsed = parse_scenario(source, filename=name)
            assert parsed.ok
            printed = print_scenario(parsed.scenario)
            reparsed = parse_scenario(printed, filename=name)
            assert reparsed.ok and reparsed.scenario == parsed.scenario, name

        rng = random.Random(0xFADE)
        alphabet = "abcdefgh {}(),;.=->#\nscenario plan agents forall not and or 0123/ß"
        pool = list(sources.values())
        for trial in range(100_000):
            if trial % 10 < 7:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
            else:
                text = _mutate(rng, rng.choice(pool))
            result = parse_scenario(text)
            if result.scenario is None:
                assert any(d.severity == "error" for d in result.diagnostics)

        oversized = parse_scenario("agents " + "a" * 2_000_000)
        assert oversized.scenario is None
        assert any(d.code == "limit" for d in oversized.diagnostics)


def test_criterion_9_determinism():
    with criterion(9, "byte-identical structured output; order-shuffle invariance"):
        first = [render_structured(evaluate(_load(name))) for name in scenarios.NAMES]
        second = [render_structured(evaluate(_load(name))) for name in scenarios.NAMES]
        assert [t.encode() for t in first] == [t.encode() for t in second]

        rng = random.Random(0xD1CE)
        for name in scenarios.NAMES:
            scenario = _load(name)
            baseline = evaluate(scenario).statuses()
            perms = list(itertools.permutations(scenario.plans))
            if len(perms) > 12:
                perms = rng.sample(perms, 12)
            for perm in perms:
                shuffled = dataclasses.replace(scenario, plans=tuple(perm))
                assert evaluate(shuffled).statuses() == baseline, name
