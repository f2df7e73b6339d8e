import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from deon.cli import EXIT_INVALID, main
from deon.dsl import (
    DEFAULT_MAX_SOURCE,
    ParseResult,
    SourceSpan,
    _lex,
    format_formula,
    parse_scenario,
    print_scenario,
)
from deon.logic import Atom, agent_const, object_const


def codes(result: ParseResult) -> set[str]:
    return {d.code for d in result.diagnostics}


# -- golden files ---------------------------------------------------------------


def test_theft_parse_counts(golden):
    theft = golden["theft"]
    assert len(theft.plans) == 1
    assert len(theft.predicates) == 3
    assert len(theft.effects) == 1
    assert theft.agents == (agent_const("a"), agent_const("b"))
    # each plan holds the very agent constant the parser declared
    assert all(any(plan.agent is a for a in theft.agents) for plan in theft.plans)


def test_ambulance_declares_object_domain(golden):
    amb = golden["ambulance"]
    assert amb.objects == (object_const("amb1"), object_const("amb2"))
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


DECLARED = "scenario t\nagents a\nobjects o\npredicates p(object), q(agent), go(agent) action\n"

# Each source with the exact diagnostics it gives: a name is declared once,
# as an agent or as an object, and a plan's agent placeholder wins over an
# object variable of the same name.
DECLARATION_CASES = {
    "duplicate_agent": ("scenario t\nagents a, a\n", [
        "<input>:2:11: error: agent a declared more than once [duplicate]",
    ]),
    "duplicate_object": ("scenario t\nagents a\nobjects o, o\n", [
        "<input>:3:12: error: object o declared more than once [duplicate]",
    ]),
    "agent_redeclared_as_object": ("scenario t\nagents a\nobjects a\n", [
        "<input>:3:9: error: a is already an agent name [duplicate]",
    ]),
    "object_redeclared_as_agent": ("scenario t\nobjects o\nagents o\n", [
        "<input>:3:8: error: o is already an object name [duplicate]",
    ]),
    "plan_variable_clashes_with_object": (
        DECLARED + "plan w agent a forall o: reasons { p(o) } action { go(a) }\n", [
            "<input>:5:23: error: object variable o clashes with a declared constant [duplicate]",
        ]),
    "plan_variable_clashes_with_agent": (
        DECLARED + "plan w agent a forall a: reasons { p(a) } action { go(a) }\n", [
            "<input>:5:23: error: object variable a clashes with a declared constant [duplicate]",
            "<input>:5:36: error: argument a of p should be an object [kind]",
        ]),
    "duplicate_plan_id": (
        DECLARED
        + "plan w agent a: reasons { q(a) } action { go(a) }\n"
        + "plan w agent a: reasons { q(a) } action { not go(a) }\n", [
            "<input>:6:6: error: plan id w declared more than once [duplicate]",
        ]),
    "duplicate_candidate_context": (
        DECLARED + "candidates c given { q(a) } { go(a) }\n" * 2, [
            "<input>:6:12: error: candidate context c declared more than once [duplicate]",
        ]),
    "belief_about_an_object": (DECLARED + "belief o { q(a); }\n", [
        "<input>:5:8: error: unknown agent o [unknown-ref]",
    ]),
}


@pytest.mark.parametrize("name", DECLARATION_CASES)
def test_declaration_diagnostics(name):
    text, expected = DECLARATION_CASES[name]
    result = parse_scenario(text)
    assert result.scenario is None
    assert [str(d) for d in result.diagnostics] == expected


def test_interleaved_declarations_keep_their_order():
    result = parse_scenario("scenario t\nagents a\nobjects x\nagents b\n")
    assert result.ok
    assert result.scenario.agents == (agent_const("a"), agent_const("b"))
    assert result.scenario.objects == (object_const("x"),)


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


def test_lexer_yields_pinned_tokens_and_diagnostics():
    # Read through the fields, so any token class giving the same values passes.
    tokens, diagnostics = _lex("scenario s\r\n# a comment -> 1/2\r\nu(x) -> 1/2, -3.5 @;", "f.deon")
    assert [(t.kind, t.text, t.line, t.column) for t in tokens] == [
        ("IDENT", "scenario", 1, 1), ("IDENT", "s", 1, 10),
        ("IDENT", "u", 3, 1), ("LPAREN", "(", 3, 2), ("IDENT", "x", 3, 3), ("RPAREN", ")", 3, 4),
        ("ARROW", "->", 3, 6), ("NUMBER", "1/2", 3, 9), ("COMMA", ",", 3, 12),
        ("NUMBER", "-3.5", 3, 14), ("SEMI", ";", 3, 20), ("EOF", "", 3, 21),
    ]
    assert tokens[-1].span("f.deon") == SourceSpan("f.deon", 3, 21)
    assert [str(d) for d in diagnostics] == ["f.deon:3:19: error: unexpected character '@' [lex]"]


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


SECTION_HEADER = (
    "scenario s\nagents a, b\nobjects o\n"
    "predicates p(agent), q(object), go(agent) action, stay(agent) action\n"
)
# Follows each broken section, so the frozen output shows where parsing resumed.
SECTION_TAIL = "physics { p(zz); }\n"
SECTION_CANDIDATES = "candidates here given { p(a) } { go(a) }\n"

# One broken site each. A syntax error abandons its section and parsing
# resumes at the next section keyword; the frozen output pins the text and
# order of what is reported and skipped.
SECTION_CASES = {
    "plan_missing_agent": "plan walk a: reasons { p(a) } action { go(a) }\n" + SECTION_TAIL,
    "plan_missing_colon": "plan walk agent a reasons { p(a) } action { go(a) }\n" + SECTION_TAIL,
    "plan_missing_reasons": "plan walk agent a: { p(a) } action { go(a) }\n" + SECTION_TAIL,
    "plan_missing_action": "plan walk agent a: reasons { p(a) } { go(a) }\n" + SECTION_TAIL,
    "plan_reasons_trailing_comma": (
        "plan walk agent a: reasons { p(a), } action { go(a) }\n" + SECTION_TAIL
    ),
    "plan_two_actions": (
        "plan walk agent a: reasons { p(a) } action { go(a), stay(a) }\n" + SECTION_TAIL
    ),
    "plan_forall_trailing_comma": (
        "plan walk agent a forall x, : reasons { p(a) } action { go(a) }\n" + SECTION_TAIL
    ),
    "candidates_missing_given": "candidates here { p(a) } { go(a) }\n" + SECTION_TAIL,
    "candidates_trailing_comma": "candidates here given { p(a) } { go(a), }\n" + SECTION_TAIL,
    "utility_missing_equals": SECTION_CANDIDATES + "utility here { go(a) 1; }\n" + SECTION_TAIL,
    "utility_missing_number": SECTION_CANDIDATES + "utility here { go(a) = ; }\n" + SECTION_TAIL,
    "utility_missing_semi": SECTION_CANDIDATES + "utility here { go(a) = 1 }\n" + SECTION_TAIL,
    "utility_unclosed_at_eof": SECTION_TAIL + SECTION_CANDIDATES + "utility here { go(a) = 1;\n",
    "predicates_bad_sort": "predicates r(thing)\n" + SECTION_TAIL,
    "agents_trailing_comma": "agents c,\n" + SECTION_TAIL,
    "belief_without_brace": "belief a p(a);\n" + SECTION_TAIL,
    "effect_without_plan": "on_universalized { go(a); }\n" + SECTION_TAIL,
    "nesting_too_deep": "physics { " + "not " * 101 + "p(a); }\n" + SECTION_TAIL,
    "misspelt_section": "plans walk agent a: reasons { p(a) } action { go(a) }\n" + SECTION_TAIL,
}

SECTION_SNAPSHOT = Path(__file__).parent / "snapshots" / "section_diagnostics.json"


@pytest.mark.parametrize("name", SECTION_CASES)
def test_section_diagnostics_match_frozen_snapshot(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.deon").write_text(SECTION_HEADER + SECTION_CASES[name], encoding="utf-8")
    code = main(["validate", "--format", "json", f"{name}.deon"])
    assert code == EXIT_INVALID
    frozen = json.loads(SECTION_SNAPSHOT.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == frozen[name]


def test_fault_at_a_section_keyword_keeps_that_section():
    text = SECTION_HEADER + "plan w agent a: reasons { p(a) }\n" + SECTION_TAIL
    result = parse_scenario(text)
    assert [d.message for d in result.diagnostics] == [
        "expected 'action', found 'physics'",
        "unknown agent or object zz",
    ]


RESERVED_AT_LOOKUPS = (
    "scenario t\nagents a\npredicates p(agent), go(agent) action\n"
    "belief object { p(a); }\non_universalized given { p(a); }\nutility reasons { go(a) = 1; }\n"
)

# Each source with its findings of one code. A fault is reported once, at its
# token; a name position that meets a section keyword leaves it to recovery,
# and the names a list read before its fault stay declared. A reserved word
# read as a name is reported as such, and no lookup of it is reported.
ONE_FINDING_CASES = {
    "missing_header": ("foo\nagents a\n", "syntax", ["1:1 expected scenario header"]),
    "missing_scenario_name": (
        "scenario {\nagents a\n", "syntax", ["1:10 expected scenario name, found '{'"],
    ),
    "brace_as_agent_name": (
        "scenario t\nagents { a }\n", "syntax", ["2:8 expected agent name, found '{'"],
    ),
    "predicate_missing_close": (
        "scenario t\npredicates p(agent q(agent)\n", "syntax", ["2:20 expected ')', found 'q'"],
    ),
    "predicate_missing_open": (
        "scenario t\npredicates p agent)\n", "syntax", ["2:14 expected '(', found 'agent'"],
    ),
    "reserved_agent_name": (
        "scenario t\nagents c, not\n", "syntax",
        ["2:11 'not' is a reserved word and cannot name an agent"],
    ),
    "names_before_fault_stay_declared": (
        "scenario t\nagents a, b, {\npredicates p(agent)\nphysics { p(a) or p(b) or p(zz); }\n",
        "unknown-ref", ["4:29 unknown agent or object zz"],
    ),
    "scenario_as_a_term": (
        "scenario t\nagents a\npredicates p(agent)\nphysics { p(scenario); }\n", "duplicate", [],
    ),
    "scenario_header_repeated": (
        "scenario t\nagents a\nscenario u\n", "duplicate", ["3:1 duplicate scenario header"],
    ),
    "reserved_words_at_lookups": (RESERVED_AT_LOOKUPS, "syntax", [
        "4:8 'object' is a reserved word and cannot name an agent",
        "5:18 'given' is a reserved word and cannot name a plan",
        "6:9 'reasons' is a reserved word and cannot name a context",
    ]),
    "reserved_words_are_not_looked_up": (RESERVED_AT_LOOKUPS, "unknown-ref", []),
}


@pytest.mark.parametrize("name", ONE_FINDING_CASES)
def test_each_fault_is_reported_once(name):
    text, code, expected = ONE_FINDING_CASES[name]
    result = parse_scenario(text)
    assert [
        f"{d.span.line}:{d.span.column} {d.message}" for d in result.diagnostics if d.code == code
    ] == expected


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
        syntax_spans = [d.span for d in result.diagnostics if d.code == "syntax"]
        assert len(syntax_spans) == len(set(syntax_spans)), text
        name_spans = {d.span for d in result.diagnostics if d.code in ("unknown-ref", "duplicate")}
        assert not name_spans.intersection(syntax_spans), text


def _assert_spans_in_bounds(text: str, result: ParseResult) -> None:
    normalized = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = normalized.split("\n")
    for d in result.diagnostics:
        assert 1 <= d.span.line <= len(lines)
        assert 1 <= d.span.column <= len(lines[d.span.line - 1]) + 1


def test_default_size_limit_value():
    assert DEFAULT_MAX_SOURCE == 1_000_000
