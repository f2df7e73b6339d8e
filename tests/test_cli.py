import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import deon
from deon import scenarios
from deon.cli import (
    _COMMANDS,
    _DEON,
    EXIT_INDETERMINATE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNETHICAL,
    EXIT_USAGE,
    _dump,
    main,
    render_human,
    render_structured,
)
from deon.principles import evaluate


@pytest.fixture()
def paths():
    return {name: str(scenarios.path(name)) for name in scenarios.NAMES}


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ---------------------------------------------------------------


def test_check_theft_exit_and_line(capsys, paths):
    code, out, _ = run(capsys, "check", paths["theft"])
    assert code == EXIT_UNETHICAL
    assert "steal: UNETHICAL (generalization)" in out


def test_check_pedestrian(capsys, paths):
    code, out, _ = run(capsys, "check", paths["pedestrian"])
    assert code == EXIT_UNETHICAL
    assert "brake: ETHICAL" in out
    assert "no_brake: UNETHICAL (autonomy)" in out


def test_check_bus_all_ethical(capsys, paths):
    code, out, _ = run(capsys, "check", paths["bus"])
    assert code == EXIT_OK
    assert "pull: ETHICAL" in out


def test_validate_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.deon"
    empty.write_text("")
    code, _, err = run(capsys, "validate", str(empty))
    assert code == EXIT_INVALID
    assert "expected scenario header" in err


def test_unreadable_file_is_invalid(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.deon")
    assert code == EXIT_INVALID
    assert "cannot read" in err


def test_usage_error_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_usage_error_bad_budget(capsys, paths):
    code, _, err = run(capsys, "check", "--budget", "0", paths["theft"])
    assert code == EXIT_USAGE


# Each command line is refused with exit 4, nothing on stdout, and an error
# line on stderr; `message`, when given, is a text deon raises itself and
# must appear verbatim.
USAGE_ERRORS = {
    "no-arguments": ([], {}, None),
    "unknown-command": (["frobnicate"], {}, None),
    "check-without-files": (["check"], {}, None),
    "unknown-format": (["check", "--format", "xml", "{theft}"], {}, None),
    "zero-budget": (["check", "--budget", "0", "{theft}"], {}, None),
    "non-integer-budget": (["check", "--budget", "abc", "{theft}"], {}, None),
    "non-integer-env-budget": (["check", "{theft}"], {"DEON_BUDGET": "abc"}, None),
    "unknown-option": (["check", "--bogus", "{theft}"], {}, "unrecognized arguments: --bogus"),
    "unknown-option-between-files": (
        ["check", "{theft}", "--bogus", "{bus}"], {}, "unrecognized arguments: --bogus",
    ),
    "unknown-option-alone": (["--bogus"], {}, "unrecognized arguments: --bogus"),
    "unknown-option-before-command": (
        ["--bogus", "check", "{theft}"], {}, "unrecognized arguments: --bogus",
    ),
    "abbreviated-format": (["check", "--form", "json", "{theft}"], {}, None),
    "abbreviated-explain": (["check", "--exp", "{theft}"], {}, None),
    "validate-explain": (["validate", "--explain", "{theft}"], {}, None),
    "explain-explain": (["explain", "--explain", "{theft}"], {}, None),
    "sat-debug-without-clauses": (["sat-debug", "{theft}"], {}, None),
    "sat-debug-two-files": (["sat-debug", "{theft}", "{bus}", "--clauses", "gen:steal"], {}, None),
    "sat-debug-unknown-option-last": (
        ["sat-debug", "--clauses", "gen:steal", "{theft}", "--bogus"], {},
        "unrecognized arguments: --bogus",
    ),
    "sat-debug-unknown-plan": (
        ["sat-debug", "{theft}", "--clauses", "gen:ghost"], {},
        "unknown plan 'ghost' in --clauses",
    ),
    "sat-debug-utility": (
        ["sat-debug", "{merge}", "--clauses", "util:merge"], {},
        "utility checks compare point utilities and have no clause set",
    ),
    "sat-debug-bad-check-id": (
        ["sat-debug", "{theft}", "--clauses", "zzz"], {},
        "bad check id 'zzz'; use gen:<plan> or aut:<plan>:<plan>",
    ),
    "sat-debug-same-agent": (
        ["sat-debug", "{pedestrian}", "--clauses", "aut:brake:no_brake"], {},
        "autonomy checks need plans of distinct agents",
    ),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_errors_exit_4_with_an_error_line(capsys, paths, monkeypatch, case):
    argv, env, message = USAGE_ERRORS[case]
    monkeypatch.delenv("DEON_BUDGET", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (EXIT_USAGE, "")
    # Without arguments the help alone is a fair answer, so a usage line will do.
    assert ("usage" if case == "no-arguments" else "error") in err.lower()
    if message is not None:
        assert message in err


def test_options_may_follow_files(capsys, paths):
    code, out, _ = run(capsys, "check", paths["theft"], "--format", "json", paths["bus"])
    assert code == EXIT_UNETHICAL
    singles = [run(capsys, "check", "--format", "json", paths[n])[1] for n in ("theft", "bus")]
    assert json.loads(out) == [json.loads(single) for single in singles]
    # Files keep their argument order around an option and a `--`.
    code, out, _ = run(capsys, "check", paths["bus"], "--format", "json", paths["theft"], "--",
                       paths["merge"])
    assert code == EXIT_UNETHICAL
    assert [doc["scenario"] for doc in json.loads(out)] == ["bus", "theft", "merge"]


@pytest.mark.parametrize("options", [[], ["--format", "json"]])
def test_an_unknown_option_between_files_is_named_alone(capsys, paths, options):
    code, out, err = run(capsys, "check", paths["theft"], *options, "--bogus", paths["bus"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --bogus")


def test_a_negative_number_after_an_option_is_a_file(capsys, paths, monkeypatch, tmp_path):
    # argparse reads `-1` as an operand, as it reads `-`, wherever it stands.
    monkeypatch.chdir(tmp_path)
    Path("-1").write_bytes(Path(paths["bus"]).read_bytes())
    code, out, err = run(capsys, "check", paths["theft"], "--format", "json", "-1")
    assert (code, err) == (EXIT_UNETHICAL, "")
    assert [doc["scenario"] for doc in json.loads(out)] == ["theft", "bus"]


def test_budget_option_wins_over_a_bad_env_var(capsys, paths, monkeypatch):
    monkeypatch.setenv("DEON_BUDGET", "abc")
    code, out, _ = run(capsys, "check", "--budget", "5", paths["theft"])
    assert code == EXIT_UNETHICAL
    assert "steal: UNETHICAL" in out


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.lower().startswith("usage: ") and "--help" in out


def parser_of(argv: list[str]) -> argparse.ArgumentParser:
    """The parser whose usage and help `main` prints for `argv`."""
    return _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else _DEON


# argparse wraps usage and help to the terminal width, read from COLUMNS on
# each call; every line below must print what the parser itself formats.
WIDTHS = ["40", "80", "200"]


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_errors_print_the_parsers_own_usage(capsys, paths, monkeypatch, case, columns):
    argv, env, _ = USAGE_ERRORS[case]
    monkeypatch.delenv("DEON_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", columns)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    parser = parser_of(argv)
    usage = parser.format_usage()
    assert (code, out, err[:len(usage)]) == (EXIT_USAGE, "", usage)
    error = err[len(usage):]
    assert error.startswith(f"{parser.prog}: error: ") and error.count("\n") == 1
    assert error.endswith("\n")


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize(
    "argv", [["--help"], ["check", "--help"], ["check", "--format", "json", "--help"],
             ["explain", "--help"], ["validate", "--help"], ["sat-debug", "--help"]],
)
def test_help_prints_the_parsers_own_help(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert run(capsys, *argv) == (EXIT_OK, parser_of(argv).format_help(), "")


@pytest.mark.parametrize("columns", WIDTHS)
def test_a_file_named_help_after_a_double_dash(capsys, paths, monkeypatch, tmp_path, columns):
    # Whatever argparse does with `--` on this Python, an argument after it
    # is a file: `--help` there is checked or validated, and its help is not
    # printed.
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.chdir(tmp_path)
    Path("--help").write_bytes(Path(paths["theft"]).read_bytes())
    Path("theft.deon").write_bytes(Path(paths["theft"]).read_bytes())
    for argv in (["check", "--format", "json"], ["check"], ["validate"]):
        code, out, err = run(capsys, *argv, "theft.deon")
        assert run(capsys, *argv, "--", "--help") == (code, out.replace("theft.deon", "--help"),
                                                      err)
    code, _, err = run(capsys, "check", "theft.deon", "--", "--help", "-x")
    assert (code, err.startswith("-x: cannot read: ")) == (EXIT_INVALID, True)


def test_help_ahead_of_a_double_dash_prints_the_help(capsys):
    assert run(capsys, "check", "--help", "--", "x.deon") == (
        EXIT_OK, parser_of(["check"]).format_help(), ""
    )


def test_a_check_formats_no_usage(capsys, paths, monkeypatch):
    # Nothing a check prints needs the usage, so no call formats it.
    def refuse(self):
        raise AssertionError("format_usage called")

    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", refuse)
    code, out, err = run(capsys, "check", "--format", "json", paths["theft"])
    assert (code, err) == (EXIT_UNETHICAL, "")
    assert out == (Path(__file__).parent / "snapshots" / "theft.json").read_text()
    # Files after an option are left over by the first parse and read by a second.
    code, out, err = run(capsys, "check", paths["theft"], "--format", "json", paths["bus"])
    assert (code, err) == (EXIT_UNETHICAL, "")
    assert [doc["scenario"] for doc in json.loads(out)] == ["theft", "bus"]


def test_check_runs_without_click(paths):
    # deon has no runtime dependency: a process that cannot import click
    # still prints the frozen JSON.
    src = os.path.dirname(os.path.dirname(deon.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    prelude = (
        "import sys\n"
        "sys.modules['click'] = None\n"
        "from deon.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", prelude, "check", "--format", "json", paths["theft"]],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=60,
    )
    assert done.returncode == EXIT_UNETHICAL, done.stderr.decode()
    assert done.stdout == (Path(__file__).parent / "snapshots" / "theft.json").read_bytes()


def test_module_entry_point_prints_what_main_prints_and_no_warning(capsys, paths):
    # `import deon` must not import `deon.cli`, or `runpy` warns on stderr
    # that the module it is about to run as `__main__` is already imported.
    src = os.path.dirname(os.path.dirname(deon.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "deon.cli", "check", paths["theft"]],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=60,
    )
    code, out, _ = run(capsys, "check", paths["theft"])
    assert (done.returncode, done.stderr.decode()) == (EXIT_UNETHICAL, "")
    assert code == EXIT_UNETHICAL and done.stdout.decode("utf-8") == out


def _dumps(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# Lone surrogates and the characters JSON escapes are rare among all code
# points, so they are drawn on their own as well.
_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(categories=["Cs"])
    | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"])
)
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**80), 10**80) | _TEXT,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(_TEXT, inner, max_size=6),
    max_leaves=40,
)


@given(_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(doc):
    assert _dump(doc) == _dumps(doc)


def test_json_writer_matches_json_dumps_deep_down():
    doc: object = {}
    for depth in range(100):
        doc = {"a": [doc, [], depth, -depth, True, None]} if depth % 2 else [doc, {}, False, "é"]
    assert _dump(doc) == _dumps(doc)


@pytest.mark.parametrize("doc", [1.5, [0.0], {"x": (1, 2)}, (1, 2), {1: "a"}, {"a": 1, 2: "b"}])
def test_json_writer_refuses_what_no_deon_document_holds(doc):
    with pytest.raises(TypeError):
        _dump(doc)


def test_indeterminate_exit_code(capsys, tmp_path):
    fog = tmp_path / "fog.deon"
    fog.write_text(
        "scenario fog\n"
        "agents a\n"
        "predicates p1(), p2(), p3(), p4(), p5(), p6(), w(agent), act(agent) action\n"
        "plan x agent a: reasons { w(a) } action { act(a) }\n"
        "on_universalized x { p1 or p2; p2 or p3; p3 or p4; p4 or p5; p5 or p6; }\n"
    )
    code, out, _ = run(capsys, "check", "--budget", "3", str(fog))
    assert code == EXIT_INDETERMINATE
    assert "INDETERMINATE" in out


def test_budget_env_var(capsys, paths, monkeypatch):
    monkeypatch.setenv("DEON_BUDGET", "0")
    code, _, _ = run(capsys, "check", paths["theft"])
    assert code == EXIT_USAGE
    monkeypatch.setenv("DEON_BUDGET", "1000000")
    code, _, _ = run(capsys, "check", paths["theft"])
    assert code == EXIT_UNETHICAL


def test_multiple_files_worst_exit_wins(capsys, paths):
    code, out, _ = run(capsys, "check", paths["bus"], paths["theft"])
    assert code == EXIT_UNETHICAL
    assert out.index("scenario bus") < out.index("scenario theft")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_an_internal_error_is_reported_per_file_and_never_exits_1(capsys, paths, monkeypatch, fmt):
    def broken(scenario, budget):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("deon.cli.evaluate", broken)
    code, out, err = run(capsys, "check", "--format", fmt, paths["theft"])
    assert code == EXIT_INDETERMINATE  # never 1, which reads as "unethical"
    assert out == ""
    assert "Traceback" not in err
    assert err == f"{paths['theft']}: internal error: ZeroDivisionError: division by zero\n"
    monkeypatch.undo()

    # The other files still run, and the most severe code still wins.
    calls = []

    def broken_on_bus(scenario, budget):
        calls.append(scenario.name)
        if scenario.name == "bus":
            raise RuntimeError("boom")
        return evaluate(scenario, budget)

    monkeypatch.setattr("deon.cli.evaluate", broken_on_bus)
    code, out, err = run(capsys, "check", "--format", fmt, paths["bus"], paths["theft"])
    assert code == EXIT_UNETHICAL and calls == ["bus", "theft"]
    assert err == f"{paths['bus']}: internal error: RuntimeError: boom\n"
    assert "theft" in out and "bus" not in out


def test_an_internal_error_outside_check_exits_2(capsys, paths, monkeypatch):
    def broken(text, filename=None):
        raise ValueError("bad state")

    monkeypatch.setattr("deon.cli.parse_scenario", broken)
    code, out, err = run(capsys, "validate", paths["theft"])
    assert (code, out, err) == (EXIT_INDETERMINATE, "", "deon: internal error: ValueError: bad state\n")


def test_json_of_several_files_is_a_list_however_many_parse(capsys, paths, tmp_path):
    bad = tmp_path / "empty.deon"
    bad.write_text("")
    _, one, _ = run(capsys, "check", "--format", "json", paths["merge"])
    code, out, _ = run(capsys, "check", "--format", "json", paths["merge"], str(bad))
    assert code == EXIT_INVALID
    assert json.loads(out) == [json.loads(one)]
    code, out, _ = run(capsys, "check", "--format", "json", str(bad), str(bad))
    assert (code, out) == (EXIT_INVALID, "[]\n")


def test_validate_ok_files(capsys, paths):
    code, out, _ = run(capsys, "validate", *paths.values())
    assert code == EXIT_OK
    assert out.count(": OK") == len(paths)


def test_byte_order_mark_is_accepted(capsys, paths, tmp_path):
    marked = tmp_path / "theft.deon"
    marked.write_bytes(b"\xef\xbb\xbf" + scenarios.path("theft").read_bytes())
    plain = run(capsys, "check", "--format", "json", paths["theft"])
    assert plain[0] == EXIT_UNETHICAL
    assert run(capsys, "check", "--format", "json", str(marked)) == plain
    assert run(capsys, "validate", str(marked)) == (EXIT_OK, f"{marked}: OK\n", "")


EMPTY_DOMAIN = (
    "scenario empty_domain\n\n"
    "agents a\n\n"
    "predicates\n  safe(object),\n  ready(agent),\n  go(agent) action\n\n"
    "physics {\n  forall y. safe(y);\n}\n\n"
    "plan p agent a:\n  reasons { ready(a) }\n  action { go(a) }\n"
)


@pytest.mark.parametrize("command", ["validate", "check"])
def test_quantifier_over_empty_object_domain_is_invalid(capsys, tmp_path, command):
    source = tmp_path / "empty_domain.deon"
    source.write_text(EMPTY_DOMAIN)
    code, _, err = run(capsys, command, str(source))
    assert code == EXIT_INVALID
    assert "[no-object-constants]" in err
    assert "Traceback" not in err



@pytest.mark.parametrize("command", ["validate", "check"])
def test_trigger_predicate_name_is_reserved(capsys, tmp_path, command):
    # The trigger atom of plan `go` prints as universally_adopted(go).
    source = tmp_path / "adopt.deon"
    source.write_text(
        "scenario adopt\n"
        "agents a\n"
        "objects go\n"
        "predicates universally_adopted(object), want(agent), move(agent) action\n"
        "plan go agent a: reasons { want(a) } action { move(a) }\n"
        "physics { universally_adopted(go) -> want(a); }\n"
    )
    code, out, err = run(capsys, command, str(source))
    assert code == EXIT_INVALID
    assert "[reserved-predicate]" in err
    assert "Traceback" not in err
    assert out == ""


NUMBER_PROBES = {
    "zero_denominator": ("1/0", "syntax"),
    "long_integer": ("9" * 5000, "limit"),
    "long_decimal": ("7" * 4000 + "." + "3" * 4000, "limit"),
}


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("probe", NUMBER_PROBES)
def test_bad_number_literal_is_reported_at_the_number(capsys, tmp_path, command, probe):
    number, diagnostic_code = NUMBER_PROBES[probe]
    source = tmp_path / "numbers.deon"
    source.write_text(
        "scenario numbers\nagents a\n"
        "predicates ready(agent), go(agent) action, stay(agent) action\n"
        "plan p agent a: reasons { ready(a) } action { go(a) }\n"
        "candidates c given { ready(a) } { go(a), stay(a) }\n"
        f"utility c {{\n  go(a) = {number};\n  stay(a) = 2;\n}}\n"
    )
    code, out, err = run(capsys, command, str(source))
    assert code == EXIT_INVALID
    # the number starts at line 7, column 11
    assert err.startswith(f"{source}:7:11: error: ")
    assert err.endswith(f"[{diagnostic_code}]\n")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("command", ["validate", "check"])
def test_a_repeated_candidate_action_is_a_duplicate(capsys, tmp_path, command):
    # Accepted, the repeat would show up twice among the utility alternatives.
    source = tmp_path / "repeat.deon"
    source.write_text(
        "scenario repeat\nagents a\n"
        "predicates ready(agent), go(agent) action, stay(agent) action\n"
        "plan p agent a: reasons { ready(a) } action { go(a) }\n"
        "candidates c given { ready(a) } { go(a), stay(a), stay(a) }\n"
        "utility c { go(a) = 2; stay(a) = 1; }\n"
    )
    code, out, err = run(capsys, command, str(source))
    assert code == EXIT_INVALID
    assert err == (
        f"{source}:5:1: error: candidates c: "
        "candidate action stay(a) listed more than once [duplicate] [validation]\n"
    )
    assert out == ""


LOCATED_FINDINGS = {
    # the plan starts at line 9
    "plan": (
        "scenario lone\n\nagents a\n\npredicates\n  ready(agent),\n  go(agent, object) action\n\n"
        "plan p agent a forall y:\n  reasons { ready(a) }\n  action { go(a, y) }\n",
        "plan p", 9, 1,
    ),
    # the predicate name starts at line 4, column 12
    "predicate": (
        "scenario adopt\nagents a\nobjects go\n"
        "predicates universally_adopted(object), want(agent), move(agent) action\n"
        "plan go agent a: reasons { want(a) } action { move(a) }\n",
        "predicate universally_adopted", 4, 12,
    ),
    # the physics constraint starts at line 11, column 3
    "physics": (EMPTY_DOMAIN, "physics constraint 1", 11, 3),
    # the third belief of agent a starts at line 6, column 22
    "belief": (
        "scenario believer\nagents a\n"
        "predicates safe(object), ready(agent), go(agent) action\n"
        "plan p agent a: reasons { ready(a) } action { go(a) }\n"
        "belief a { ready(a) -> go(a);\n  go(a) -> ready(a); forall y. safe(y); }\n",
        "belief of a, constraint 3", 6, 22,
    ),
    # the utility entry for stay(a), not a candidate, starts at line 7, column 3
    "not-a-candidate": (
        "scenario u1\nagents a\n"
        "predicates ready(agent), go(agent) action, stay(agent) action\n"
        "candidates here given { ready(a) } { go(a) }\n"
        "utility here {\n  go(a) = 1;\n  stay(a) = 2;\n}\n",
        "utility here", 7, 3,
    ),
    # the candidate set lacking a utility for stay(a) starts at line 5
    "missing-utility": (
        "scenario u2\nagents a\n"
        "predicates ready(agent), go(agent) action, stay(agent) action\n\n"
        "candidates here given { ready(a) } { go(a), stay(a) }\n"
        "utility here { go(a) = 1; }\n",
        "utility here", 5, 1,
    ),
}


@pytest.mark.parametrize("case", LOCATED_FINDINGS)
def test_validation_finding_points_at_its_element(capsys, tmp_path, case):
    text, element, line, column = LOCATED_FINDINGS[case]
    source = tmp_path / "located.deon"
    source.write_text(text)
    code, _, err = run(capsys, "validate", str(source))
    assert code == EXIT_INVALID
    assert err.startswith(f"{source}:{line}:{column}: error: {element}: ")
    code, out, _ = run(capsys, "validate", "--format", "json", str(source))
    assert code == EXIT_INVALID
    located = [(d["line"], d["column"]) for d in json.loads(out)["diagnostics"]]
    assert located == [(line, column)]

# -- rendering ------------------------------------------------------------------


def test_json_output_is_valid_and_matches_human(capsys, paths):
    code_json, out_json, _ = run(capsys, "check", "--format", "json", paths["pedestrian"])
    doc = json.loads(out_json)
    code_human, out_human, _ = run(capsys, "check", paths["pedestrian"])
    assert code_json == code_human
    for plan in doc["plans"]:
        status = plan["overall"].upper()
        assert f"{plan['plan']}: {status}" in out_human


def test_json_checks_have_evidence(capsys, paths):
    _, out, _ = run(capsys, "check", "--format", "json", paths["merge"])
    doc = json.loads(out)
    merge = doc["plans"][0]
    utility = next(p for p in merge["principles"] if p["principle"] == "utility")
    assert utility["status"] == "fail"
    assert utility["evidence"]["kind"] == "dominated"
    assert utility["evidence"]["dominator"] == "wait_for_gap(a)"


def test_structured_output_byte_identical(capsys, paths):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "check", "--format", "json", *paths.values())
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    assert b"\r" not in outputs[0]


def test_render_structured_stable_keys(golden):
    verdicts = evaluate(golden["theft"])
    text = render_structured(verdicts)
    doc = json.loads(text)
    assert set(doc) == {"plans", "rounds", "scenario", "stable"}
    assert render_structured(evaluate(golden["theft"])) == text


def test_render_structured_empty_scenario():
    from deon.dsl import parse_scenario

    empty = parse_scenario("scenario quiet\nagents a\n").scenario
    doc = json.loads(render_structured(evaluate(empty)))
    assert doc["plans"] == []
    assert doc["stable"] is True


def test_explain_flag_and_command_agree(capsys, paths):
    _, via_flag, _ = run(capsys, "check", "--explain", paths["bus"])
    _, via_command, _ = run(capsys, "explain", paths["bus"])
    assert via_flag == via_command
    assert "their reasons cannot jointly apply" in via_flag


def test_explain_names_conflict_sources(capsys, paths):
    _, out, _ = run(capsys, "explain", paths["theft"])
    assert "universalization effect of plan steal" in out
    assert "can_get_away" in out


def test_human_json_statuses_agree_everywhere(capsys, paths):
    for path in paths.values():
        _, human, _ = run(capsys, "check", path)
        _, as_json, _ = run(capsys, "check", "--format", "json", path)
        doc = json.loads(as_json)
        for plan in doc["plans"]:
            assert f"{plan['plan']}: {plan['overall'].upper()}" in human


# -- sat-debug -------------------------------------------------------------------


def test_sat_debug_generalization(capsys, paths):
    code, out, _ = run(capsys, "sat-debug", "--clauses", "gen:steal", paths["theft"])
    assert code == EXIT_OK
    assert "p cnf" in out
    assert "universally_adopted(steal)" in out
    lines = [l for l in out.splitlines() if l and l[0] in "-0123456789"]
    assert lines and all(l.endswith(" 0") for l in lines)


def test_sat_debug_autonomy_pair(capsys, paths):
    code, out, _ = run(capsys, "sat-debug", "--clauses", "aut:pull:cross", paths["bus"])
    assert code == EXIT_OK
    assert out.count("p cnf") == 2


def test_sat_debug_unknown_plan_is_usage_error(capsys, paths):
    code, _, err = run(capsys, "sat-debug", "--clauses", "gen:ghost", paths["theft"])
    assert code == EXIT_USAGE


def test_sat_debug_utility_has_no_clauses(capsys, paths):
    code, _, err = run(capsys, "sat-debug", "--clauses", "util:merge", paths["merge"])
    assert code == EXIT_USAGE


def test_render_human_marks_instability(golden):
    from deon.dsl import parse_scenario

    standoff = parse_scenario(
        "scenario standoff\n"
        "agents a, b\n"
        "predicates at_junction(agent), goes_first(agent) action\n"
        "physics { not (goes_first(a) and goes_first(b)); }\n"
        "plan x agent a: reasons { at_junction(a) } action { goes_first(a) }\n"
        "plan y agent b: reasons { at_junction(b) } action { goes_first(b) }\n"
    ).scenario
    verdicts = evaluate(standoff)
    text = render_human(verdicts)
    assert "stable: no" in text
    assert "x: INDETERMINATE" in text


# -- frozen snapshots and the exit-code contract ------------------------------------


def test_structured_output_matches_frozen_snapshot(capsys, paths):
    from pathlib import Path

    for name in ("theft", "pedestrian"):
        _, out, _ = run(capsys, "check", "--format", "json", paths[name])
        frozen = Path(__file__).parent / "snapshots" / f"{name}.json"
        assert out == frozen.read_text()


@pytest.mark.parametrize("name", ["ambulance", "merge", "bus"])
def test_structured_output_of_other_goldens_matches_frozen_snapshot(capsys, paths, name):
    from pathlib import Path

    _, out, _ = run(capsys, "check", "--format", "json", paths[name])
    assert out == (Path(__file__).parent / "snapshots" / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "name, check_id",
    [("theft", "gen:steal"), ("bus", "aut:pull:cross"), ("pedestrian", "aut:brake:cross")],
)
def test_sat_debug_dimacs_matches_frozen_snapshot(capsys, paths, name, check_id):
    from pathlib import Path

    code, out, _ = run(capsys, "sat-debug", paths[name], "--clauses", check_id)
    assert code == EXIT_OK
    frozen = Path(__file__).parent / "snapshots" / f"{name}.{check_id.replace(':', '-')}.dimacs"
    assert out == frozen.read_text()


# Reaches the two evidence kinds no bundled scenario shows: a budget note
# (the chain of `x`'s effects needs more than 3 decisions) and a maximal
# action with an ineligible alternative (`y` fails generalization).
FOGBANK = (
    "scenario fogbank\n"
    "agents a\n"
    "predicates p1(), p2(), p3(), p4(), p5(), p6(), w(agent), act(agent) action, rush(agent) action\n"
    "plan x agent a: reasons { w(a) } action { act(a) }\n"
    "plan y agent a: reasons { w(a) } action { rush(a) }\n"
    "on_universalized x { p1 or p2; p2 or p3; p3 or p4; p4 or p5; p5 or p6; }\n"
    "on_universalized y { forall z. not w(z); }\n"
    "candidates here given { w(a) } { act(a), rush(a) }\n"
    "utility here { act(a) = 1/2; rush(a) = 2; }\n"
)


@pytest.mark.parametrize(
    "name, fmt, expected",
    [
        ("theft", "human", EXIT_UNETHICAL),
        ("ambulance", "human", EXIT_UNETHICAL),
        ("merge", "human", EXIT_UNETHICAL),
        ("bus", "human", EXIT_OK),
        ("pedestrian", "human", EXIT_UNETHICAL),
        ("fogbank", "human", EXIT_UNETHICAL),
        ("fogbank", "json", EXIT_UNETHICAL),
    ],
)
def test_explain_output_matches_frozen_snapshot(capsys, paths, tmp_path, name, fmt, expected):
    from pathlib import Path

    if name == "fogbank":
        source = tmp_path / "fogbank.deon"
        source.write_text(FOGBANK)
        args = [str(source), "--budget", "3"]
    else:
        args = [paths[name]]
    code, out, _ = run(capsys, "explain", "--format", fmt, *args)
    assert code == expected
    suffix = "explain.txt" if fmt == "human" else "json"
    assert out == (Path(__file__).parent / "snapshots" / f"{name}.{suffix}").read_text()

def test_pedestrian_snapshot_has_opposite_statuses():
    import json
    from pathlib import Path

    doc = json.loads((Path(__file__).parent / "snapshots" / "pedestrian.json").read_text())
    statuses = {p["plan"]: p["overall"] for p in doc["plans"]}
    assert statuses["brake"] == "ethical"
    assert statuses["no_brake"] == "unethical"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("theft", EXIT_UNETHICAL),
        ("ambulance", EXIT_UNETHICAL),
        ("merge", EXIT_UNETHICAL),
        ("bus", EXIT_OK),
        ("pedestrian", EXIT_UNETHICAL),
    ],
)
def test_exit_code_contract_on_golden_suite(capsys, paths, name, expected):
    code, _, _ = run(capsys, "check", paths[name])
    assert code == expected
