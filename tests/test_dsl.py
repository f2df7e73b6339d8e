import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from deon.cli import EXIT_INVALID, main
from deon.dsl import (
    DEFAULT_MAX_SOURCE,
    ParseResult,
    format_formula,
    parse_scenario,
    print_scenario,
)
from deon.logic import Atom, agent_const


def codes(result: ParseResult) -> set[str]:
    return {d.code for d in result.diagnostics}


# -- golden files ---------------------------------------------------------------


def test_theft_parse_counts(golden):
    theft = golden["theft"]
    assert len(theft.plans) == 1
    assert len(theft.predicates) == 3
    assert len(theft.effects) == 1
    assert theft.agent_names() == ("a", "b")


def test_ambulance_declares_object_domain(golden):
    amb = golden["ambulance"]
    assert amb.objects == ("amb1", "amb2")
    assert amb.plans[0].object_vars[0].name == "y"


def test_merge_utility_values(golden):
    merge = golden["merge"]
    a = agent_const("a")
    assert merge.utilities.entries[("entering", Atom("merge_now", (a,)))] == Fraction(1)
    assert merge.utilities.entries[("entering", Atom("wait_for_gap", (a,)))] == Fraction(2)


def test_bus_negated_reason_parses(golden):
    cross = golden["bus"].plan("cross")
    negated = [sa for sa in cross.reasons if sa.negated]
    assert len(negated) == 1
    assert negated[0].atom.predicate == "cars_approaching"


def test_pedestrian_negated_action(golden):
    assert golden["pedestrian"].plan("no_brake").action.negated


# -- diagnostics ------------------------------------------------------------------


def test_empty_input_reports_missing_header():
    result = parse_scenario("")
    assert result.scenario is None
    assert any("expected scenario header" in d.message for d in result.diagnostics)


def test_missing_comma_points_at_second_atom():
    text = (
        "scenario t\n"
        "agents a\n"
        "predicates C1(agent), C2(agent), A(agent) action\n"
        "plan steal agent a: reasons { C1(a) C2(a) } action { A(a) }\n"
    )
    result = parse_scenario(text)
    assert result.scenario is None
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert errors
    first = errors[0]
    line = text.split("\n")[3]
    assert first.span.line == 4
    assert first.span.column == line.index("C2") + 1
    assert first.code == "syntax"


def test_duplicate_declarations_have_their_own_code():
    text = (
        "scenario t\n"
        "agents a, a\n"
        "predicates p(agent)\n"
    )
    result = parse_scenario(text)
    assert "duplicate" in codes(result)


def test_unknown_reference_code():
    text = (
        "scenario t\n"
        "agents a\n"
        "predicates p(agent), act(agent) action\n"
        "plan go agent a: reasons { q(a) } action { act(a) }\n"
    )
    result = parse_scenario(text)
    assert "unknown-ref" in codes(result)


def test_lexical_error_code():
    result = parse_scenario("scenario t\nagents a\n$$$\n")
    assert "lex" in codes(result)


def test_size_limit_is_enforced():
    result = parse_scenario("x" * 100, max_size=10)
    assert result.scenario is None
    assert "limit" in codes(result)


def test_deep_nesting_is_rejected_not_crashing():
    text = (
        "scenario t\nagents a\npredicates p(agent)\n"
        "physics { " + "(" * 500 + "p(a)" + ")" * 500 + "; }\n"
    )
    result = parse_scenario(text)
    assert result.scenario is None
    assert "limit" in codes(result)


def test_quantifier_domain_inference_failure():
    text = (
        "scenario t\nagents a\npredicates p(agent)\n"
        "physics { forall z. p(a); }\n"
    )
    result = parse_scenario(text)
    assert result.scenario is None
    assert any("cannot infer" in d.message for d in result.diagnostics)


def test_sort_conflict_in_quantifier():
    text = (
        "scenario t\nagents a\nobjects o\n"
        "predicates p(agent), q(object)\n"
        "physics { forall z. p(z) and q(z); }\n"
    )
    result = parse_scenario(text)
    assert result.scenario is None
    assert any("agent and object positions" in d.message for d in result.diagnostics)


FORMULA_HEADER = (
    "scenario f\nagents a, b\nobjects o\n"
    "predicates p(agent), q(object), r(agent, object), go(agent) action\n"
    "plan walk agent a: reasons { p(a) } action { go(a) }\n"
)

# One formula block each. Name-resolution findings (unknown names, arity,
# sorts, quantifier domains) are reported after the formula's `;`, and a
# failed quantifier hides the findings of its own body and skips the rest
# of the section; the frozen output pins that text and order.
FORMULA_CASES = {
    "reserved_term": "physics { p(not); q(o); }\n",
    "reserved_predicate": "physics { p(a) and or; }\n",
    "reserved_variable": "physics { forall and. p(and); }\n",
    "unknown_then_syntax": "physics { p(zz) and q(o) or ; p(yy); }\n",
    "unknown_constants": "physics { p(zz) or q(ww); p(b) -> q(vv); }\n",
    "missing_semi": "physics { p(zz) q(o); }\n",
    "forall_unused": "physics { p(zz); forall x. p(a) and q(yy); p(ww); }\n",
    "forall_both_sorts": "physics { forall x. r(x, x) and zz(x); p(ww); }\n",
    "forall_shadowed": "physics { forall x. forall x. p(x); }\n",
    "forall_shadow_resorted": "physics { forall x. q(x) and (forall x. p(x)) and p(zz); }\n",
    "inner_forall_beside_unknown": (
        "physics { p(zz) and (forall y. p(a) or q(yy)) and q(ww); p(vv); }\n"
    ),
    "unknown_predicate_bound": "physics { forall x. zz(x) and p(x); forall y. zz(y); }\n",
    "extra_argument": "belief a { forall x. p(x, x); r(a, o, b); q(a); }\n",
    "effect_block": "on_universalized walk { forall x. go(x) -> q(x); }\n",
    "lex_minus_ident": "physics { p(a) -x; }\n",
    "lex_lone_minus": "physics { p(a) - > q(o); -; }\n",
    "lex_non_ascii_letter": "physics { p(é); }\n",
    "lex_non_ascii_digit": "physics { p(a٣) or q(-٣); }\n",
}

FORMULA_SNAPSHOT = Path(__file__).parent / "snapshots" / "formula_diagnostics.json"


@pytest.mark.parametrize("name", FORMULA_CASES)
def test_formula_diagnostics_match_frozen_snapshot(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.deon").write_text(FORMULA_HEADER + FORMULA_CASES[name], encoding="utf-8")
    code = main(["validate", "--format", "json", f"{name}.deon"])
    assert code == EXIT_INVALID
    frozen = json.loads(FORMULA_SNAPSHOT.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == frozen[name]


def test_error_recovery_reports_multiple_sections():
    text = (
        "scenario t\n"
        "agents a\n"
        "predicates p(agent), act(agent) action\n"
        "plan one agent a reasons { p(a) } action { act(a) }\n"  # missing colon
        "plan two agent a: reasons { p(a) } action { q(a) }\n"  # unknown predicate
    )
    result = parse_scenario(text)
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert len(errors) >= 2
    assert {d.span.line for d in errors} >= {4, 5}


def test_crlf_and_lf_both_accepted(golden_sources):
    for source in golden_sources.values():
        crlf = source.replace("\n", "\r\n")
        assert parse_scenario(crlf).ok


# -- round trips ------------------------------------------------------------------


def test_round_trip_golden_scenarios(golden):
    for name, scenario in golden.items():
        text = print_scenario(scenario)
        reparsed = parse_scenario(text, filename=f"{name}-printed")
        assert reparsed.ok, [str(d) for d in reparsed.diagnostics]
        assert reparsed.scenario == scenario, name


def test_print_is_idempotent(golden):
    for scenario in golden.values():
        once = print_scenario(scenario)
        twice = print_scenario(parse_scenario(once).scenario)
        assert once == twice


def test_minimal_scenario_round_trips():
    text = "scenario tiny\nagents solo\n"
    result = parse_scenario(text)
    assert result.ok
    assert result.scenario.plans == ()
    printed = print_scenario(result.scenario)
    assert parse_scenario(printed).scenario == result.scenario


def test_formula_printing_precedence():
    text = (
        "scenario t\nagents a, b\npredicates p(agent), q(agent), r(agent)\n"
        "physics {\n"
        "  (p(a) or q(a)) and r(a);\n"
        "  p(a) -> q(a) -> r(a);\n"
        "  not (p(a) and q(a));\n"
        "  forall x. p(x) -> q(x);\n"
        "}\n"
    )
    result = parse_scenario(text)
    assert result.ok
    for f in result.scenario.constraints.physical:
        rendered = format_formula(f)
        again = parse_scenario(
            "scenario t\nagents a, b\npredicates p(agent), q(agent), r(agent)\n"
            "physics { " + rendered + "; }\n"
        )
        assert again.ok
        assert again.scenario.constraints.physical[0] == f


# -- robustness -----------------------------------------------------------------


def _mutate(rng: random.Random, text: str) -> str:
    ops = rng.randint(1, 3)
    out = text
    for _ in range(ops):
        if not out:
            break
        kind = rng.randrange(3)
        i = rng.randrange(len(out))
        j = min(len(out), i + rng.randint(1, 12))
        if kind == 0:
            out = out[:i] + out[j:]
        elif kind == 1:
            out = out[:i] + out[i:j] + out[i:j] + out[j:]
        else:
            noise = "".join(rng.choice("{}(),;.=->#abz \n") for _ in range(rng.randint(1, 6)))
            out = out[:i] + noise + out[j:]
    return out


def test_fuzz_smoke_never_raises(golden_sources):
    rng = random.Random(0xF00D)
    sources = list(golden_sources.values())
    for trial in range(2000):
        if trial % 2 == 0:
            text = "".join(
                rng.choice("abcdefg {}(),;.=->#\nplan scenario forall not and or 0123/")
                for _ in range(rng.randint(0, 80))
            )
        else:
            text = _mutate(rng, rng.choice(sources))
        result = parse_scenario(text)
        if result.scenario is None:
            assert any(d.severity == "error" for d in result.diagnostics)
        _assert_spans_in_bounds(text, result)


def _assert_spans_in_bounds(text: str, result: ParseResult) -> None:
    normalized = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = normalized.split("\n")
    for d in result.diagnostics:
        assert 1 <= d.span.line <= len(lines)
        assert 1 <= d.span.column <= len(lines[d.span.line - 1]) + 1


def test_default_size_limit_value():
    assert DEFAULT_MAX_SOURCE == 1_000_000
