"""Command-line surface: validate, check, explain and debug scenario files.

Exit codes: 0 every plan is ethical, 1 some plan is unethical, 2 an
indeterminate verdict is present, 3 the file failed to parse or validate,
4 usage error. With several input files the most severe code wins
(3, then 1, then 2, then 0) and outputs appear in argument order. An
unexpected exception is a fault in deon, not a verdict: it prints one
`internal error` line on stderr, without a traceback, and gives code 2 (for
`check` and `explain`, to that file alone).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from .dsl import format_number, parse_scenario
from .principles import (
    AutonomyClear,
    BudgetNote,
    Dominated,
    ETHICAL,
    FAIL,
    INDETERMINATE,
    PlanInterference,
    PlanVerdict,
    QueryCompiler,
    QueryConflict,
    ReasonsContradiction,
    UNETHICAL,
    UtilityComparison,
    VerdictSet,
    Witness,
    evaluate,
)
from .sat import DEFAULT_BUDGET
from .scenario import Scenario

EXIT_OK = 0
EXIT_UNETHICAL = 1
EXIT_INDETERMINATE = 2
EXIT_INVALID = 3
EXIT_USAGE = 4

_SEVERITY = {EXIT_OK: 0, EXIT_INDETERMINATE: 1, EXIT_UNETHICAL: 2, EXIT_INVALID: 3}


def _read(path: str) -> tuple[str | None, str]:
    """The file's text, without a leading byte-order mark, or None and why
    it cannot be read."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return None, f"cannot read: {exc.strerror or exc}"
    return data.decode("utf-8-sig", errors="replace"), ""


def _load(path: str) -> tuple[Scenario | None, list[str]]:
    text, problem = _read(path)
    if text is None:
        return None, [f"{path}: {problem}"]
    result = parse_scenario(text, filename=path)
    return result.scenario, [str(d) for d in result.diagnostics]


def _verdict_exit(verdicts: VerdictSet) -> int:
    statuses = [pv.overall for pv in verdicts.plans]
    if any(s == UNETHICAL for s in statuses):
        return EXIT_UNETHICAL
    if any(s == INDETERMINATE for s in statuses) or not verdicts.stable:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _combine(codes: list[int]) -> int:
    return max(codes, key=lambda c: _SEVERITY[c], default=EXIT_OK)


# --------------------------------------------------------------------------
# Rendering


def _model_doc(query, model) -> dict[str, bool]:
    return {str(atom): value for atom, value in model.atom_values(query).items()}


def _pairs(model: dict[str, bool]) -> str:
    return ", ".join(f"{name}={str(v).lower()}" for name, v in model.items())


def _evidence_lines(doc: dict) -> list[str]:
    """Human text for an evidence document made by `_evidence_doc`."""
    kind = doc["kind"]
    if kind == "witness":
        return [f"witness: {_pairs(doc['model'])}"]
    if kind == "conflict":
        return ["query unsatisfiable; conflicting constraints:"] + [
            f"  {line}" for line in doc["clauses"]
        ]
    if kind == "plan-conflict":
        return (
            [f"interferes with plan {doc['with']}:",
             "  the actions cannot hold together:"]
            + [f"    {line}" for line in doc["action_clauses"]]
            + [f"  and the reasons can jointly apply: {_pairs(doc['reasons_model'])}"]
        )
    if kind == "dominated":
        return [
            f"{doc['dominator']} (utility {doc['dominator_utility']}) beats "
            f"{doc['action']} (utility {doc['utility']}) in context {doc['context']}"
        ]
    if kind == "utility-maximal":
        alts = ", ".join(
            f"{alt['action']}={alt['utility']}{'' if alt['eligible'] else ' (ineligible)'}"
            for alt in doc["alternatives"]
        )
        head = f"{doc['action']} (utility {doc['utility']}) is maximal in context {doc['context']}"
        return [head if not alts else f"{head}; alternatives: {alts}"]
    if kind == "clear":
        return [
            f"consistent with plan {pair['with']}: "
            + ("their reasons cannot jointly apply" if pair["via"] == "reasons-conflict"
               else "the actions can hold together")
            for pair in doc["pairs"]
        ]
    return [doc["note"]]  # "budget" or "note"


def _failed_principle(pv: PlanVerdict) -> str | None:
    for check in pv.checks:
        if check.status == FAIL:
            return check.principle
    return None


def _headline(pv: PlanVerdict) -> str:
    if pv.overall == ETHICAL:
        return f"{pv.plan_id}: ETHICAL"
    principle = _failed_principle(pv)
    if pv.overall == UNETHICAL and principle:
        return f"{pv.plan_id}: UNETHICAL ({principle})"
    if pv.overall == UNETHICAL:
        return f"{pv.plan_id}: UNETHICAL"
    blocked = next((c.principle for c in pv.checks if c.status == INDETERMINATE), None)
    return f"{pv.plan_id}: INDETERMINATE" + (f" ({blocked})" if blocked else "")


def render_human(verdicts: VerdictSet, explain: bool = False) -> str:
    lines = [f"scenario {verdicts.scenario}"]
    for pv in verdicts.plans:
        lines.append(f"  {_headline(pv)}")
        if explain:
            for check in pv.checks:
                lines.append(f"    {check.principle}: {check.status}")
                for entry in _evidence_lines(_evidence_doc(check.evidence)):
                    lines.append(f"      {entry}")
    lines.append(f"rounds: {verdicts.rounds}  stable: {'yes' if verdicts.stable else 'no'}")
    return "\n".join(lines) + "\n"


def _evidence_doc(evidence: object) -> dict:
    if isinstance(evidence, Witness):
        return {"kind": "witness",
                "model": _model_doc(evidence.query, evidence.model)}
    if isinstance(evidence, QueryConflict):
        return {"kind": "conflict",
                "clauses": evidence.conflict.render(evidence.query)}
    if isinstance(evidence, PlanInterference):
        return {
            "kind": "plan-conflict",
            "with": evidence.other_plan,
            "action_clauses": evidence.actions.conflict.render(evidence.actions.query),
            "reasons_model": _model_doc(evidence.reasons.query, evidence.reasons.model),
        }
    if isinstance(evidence, Dominated):
        return {
            "kind": "dominated",
            "context": evidence.context,
            "action": str(evidence.action),
            "utility": format_number(evidence.utility),
            "dominator": str(evidence.dominator),
            "dominator_utility": format_number(evidence.dominator_utility),
        }
    if isinstance(evidence, UtilityComparison):
        return {
            "kind": "utility-maximal",
            "context": evidence.context,
            "action": str(evidence.action),
            "utility": format_number(evidence.utility),
            "alternatives": [
                {"action": str(atom), "utility": format_number(u), "eligible": ok}
                for atom, u, ok in evidence.alternatives
            ],
        }
    if isinstance(evidence, AutonomyClear):
        return {
            "kind": "clear",
            "pairs": [
                {
                    "with": other,
                    "via": ("reasons-conflict" if isinstance(pair, ReasonsContradiction)
                            else "actions-witness"),
                }
                for other, pair in evidence.pairs
            ],
        }
    if isinstance(evidence, BudgetNote):
        return {"kind": "budget", "note": evidence.note}
    return {"kind": "note", "note": evidence.note}  # Note


def _verdict_doc(verdicts: VerdictSet) -> dict:
    return {
        "scenario": verdicts.scenario,
        "rounds": verdicts.rounds,
        "stable": verdicts.stable,
        "plans": [
            {
                "plan": pv.plan_id,
                "overall": pv.overall,
                "principles": [
                    {
                        "principle": check.principle,
                        "status": check.status,
                        "evidence": _evidence_doc(check.evidence),
                    }
                    for check in pv.checks
                ],
            }
            for pv in verdicts.plans
        ],
    }


_QUOTE = json.encoder.encode_basestring  # the quoting `ensure_ascii=False` uses


def _write(value: object, out: list[str], indent: str) -> None:
    """Append `value` to `out` as `json.dumps(value, indent=2, sort_keys=True,
    ensure_ascii=False)` writes it, nested at `indent` (a newline and the
    enclosing indentation).

    `json.dumps` falls back to its pure-Python encoder whenever `indent` is
    set; this writer builds the same text with far fewer calls. It accepts
    only what deon documents hold: `str`-keyed dicts, lists, strings, ints,
    booleans and None. Anything else, a float or tuple included, raises
    `TypeError`.
    """
    if isinstance(value, str):
        out.append(_QUOTE(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(f"{separator}{_QUOTE(key)}: ")
            _write(item, out, inner)
            separator = "," + inner
        out.append(indent + "}" if value else "{}")
    elif isinstance(value, list):
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(indent + "]" if value else "[]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):  # after the booleans, which are ints too
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump(doc: object) -> str:
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def render_structured(verdicts: VerdictSet) -> str:
    """Machine-readable verdicts: sorted keys, two-space indent, LF endings.

    The text is exactly `json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=False)` plus a trailing LF, so non-ASCII characters are kept
    as they are. Byte-identical across runs on identical input.
    """
    return _dump(_verdict_doc(verdicts))


# --------------------------------------------------------------------------
# Commands


class UsageError(Exception):
    """A command line deon cannot run; `main` reports it and returns 4."""


class _Parser(argparse.ArgumentParser):
    # A command line is read with argparse's plain parses. The first reads
    # every option, the files ahead of the first option and everything after
    # the first `--`. What it leaves over is files that follow an option, as
    # in `check A --format json B`, and options it cannot read. A second
    # parse of the leftovers ahead of their first `--`, with no file
    # required, refuses such an option in argparse's own words; then every
    # leftover but that `--` is a file, in order. A command of one operand
    # takes no leftovers, so one plain parse reads it.
    files: argparse.Action | None = None  # the operands of a command of several files

    def __init__(self, prog: str, description: str | None, **options) -> None:
        super().__init__(prog, description=description, add_help=False, allow_abbrev=False,
                         **options)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)

    def read(self, args: list[str]) -> argparse.Namespace:
        if self.files is None:
            return self.parse_args(args)
        namespace, leftovers = self.parse_known_args(args)
        if leftovers:
            split = leftovers.index("--") if "--" in leftovers else len(leftovers)
            self.files.required = False
            try:
                self.parse_args(leftovers[:split])
            finally:
                self.files.required = True
            namespace.files += leftovers[:split] + leftovers[split + 1:]
        return namespace


def _budget(text: str, source: str = "--budget") -> int:
    """A decision budget read from `source`: a positive integer, as `int` reads it."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise UsageError(f"{source}: {text!r} is not a positive integer")


def _internal_error(source: str, exc: Exception) -> str:
    return f"{source}: internal error: {type(exc).__name__}: {exc}"


def check(files: list[str], fmt: str, budget: int | None, explain: bool) -> int:
    """Evaluate every plan in the given scenario files."""
    if budget is None:  # no --budget: read DEON_BUDGET on each call
        text = os.environ.get("DEON_BUDGET")
        budget = _budget(text, "DEON_BUDGET") if text else DEFAULT_BUDGET
    codes: list[int] = []
    docs: list[dict] = []
    human: list[str] = []
    for path in files:
        try:
            scenario, messages = _load(path)
            if scenario is None:
                for line in messages:
                    print(line, file=sys.stderr)
                codes.append(EXIT_INVALID)
                continue
            verdicts = evaluate(scenario, budget=budget)
            code = _verdict_exit(verdicts)
            if fmt == "json":
                docs.append(_verdict_doc(verdicts))
            else:
                human.append(render_human(verdicts, explain=explain))
        except Exception as exc:  # a fault in deon must not read as a verdict
            print(_internal_error(path, exc), file=sys.stderr)
            code = EXIT_INDETERMINATE
        codes.append(code)
    if fmt == "json" and (docs or len(files) > 1):
        # Several files give a list, whatever number of them parsed.
        sys.stdout.write(_dump(docs if len(files) > 1 else docs[0]))
    elif human:
        sys.stdout.write("\n".join(human))
    return _combine(codes)


def validate(files: list[str], fmt: str) -> int:
    """Parse and validate scenario files without checking any plan."""
    docs = []
    for path in files:
        text, problem = _read(path)
        if text is None:
            print(f"{path}: {problem}", file=sys.stderr)
            ok, diagnostics = False, [{"line": 0, "column": 0, "severity": "error",
                                       "message": problem, "code": "io"}]
        else:
            result = parse_scenario(text, filename=path)
            ok = result.ok
            diagnostics = [
                {
                    "line": d.span.line,
                    "column": d.span.column,
                    "severity": d.severity,
                    "message": d.message,
                    "code": d.code,
                }
                for d in result.diagnostics
            ]
            if fmt != "json":
                if ok:
                    print(f"{path}: OK", flush=True)  # keeps its place among stderr findings
                for d in result.diagnostics:
                    print(d, file=sys.stderr)
        docs.append({"file": path, "ok": ok, "diagnostics": diagnostics})
    if fmt == "json":
        sys.stdout.write(_dump(docs[0] if len(docs) == 1 else docs))
    return EXIT_OK if all(doc["ok"] for doc in docs) else EXIT_INVALID


def sat_debug(file: str, check_id: str) -> int:
    """Print the ground clause set behind a named check."""
    scenario, messages = _load(file)
    if scenario is None:
        for line in messages:
            print(line, file=sys.stderr)
        return EXIT_INVALID
    kind, *ids = check_id.split(":")
    if kind == "util":
        raise UsageError("utility checks compare point utilities and have no clause set")
    if (kind, len(ids)) not in (("gen", 1), ("aut", 2)):
        raise UsageError(f"bad check id {check_id!r}; use gen:<plan> or aut:<plan>:<plan>")
    plan_ids = {p.id for p in scenario.plans}
    for pid in ids:
        if pid not in plan_ids:
            raise UsageError(f"unknown plan {pid!r} in --clauses")
    plans = [scenario.plan(pid) for pid in ids]
    if kind == "gen":
        print(f"c generalization query for plan {ids[0]}")
        sys.stdout.write(QueryCompiler(scenario).generalization(plans[0]).to_dimacs())
        return EXIT_OK
    if plans[0].agent == plans[1].agent:
        raise UsageError("autonomy checks need plans of distinct agents")
    for query, cs in zip(("actions", "reasons"), QueryCompiler(scenario).autonomy_pair(*plans)):
        print(f"c autonomy {query} query for {ids[0]} against {ids[1]}")
        sys.stdout.write(cs.to_dimacs())
    return EXIT_OK


_CHECK = _Parser("deon check", check.__doc__)
_EXPLAIN = _Parser("deon explain", "Like check, with witness models and conflict explanations.")
_EXPLAIN.set_defaults(explain=True)
_VALIDATE = _Parser("deon validate", validate.__doc__)
_SAT_DEBUG = _Parser("deon sat-debug", sat_debug.__doc__)
for _command in (_CHECK, _EXPLAIN, _VALIDATE):
    _command.files = _command.add_argument("files", nargs="+", metavar="FILE")
    _command.add_argument("--format", dest="fmt", choices=("human", "json"), default="human",
                          help="output rendering (default: human)")
for _command in (_CHECK, _EXPLAIN):
    _command.add_argument("--budget", type=_budget, help="solver decision budget per query "
                          f"(default: $DEON_BUDGET, else {DEFAULT_BUDGET})")
_CHECK.add_argument("--explain", action="store_true", help="include witness models and conflicts")
_SAT_DEBUG.add_argument("file", metavar="FILE")
_SAT_DEBUG.add_argument("--clauses", dest="check_id", required=True,
                        help="which check to dump: gen:<plan> or aut:<plan>:<plan>")
_COMMANDS = {"check": (check, _CHECK), "explain": (check, _EXPLAIN),
             "validate": (validate, _VALIDATE), "sat-debug": (sat_debug, _SAT_DEBUG)}
_DEON = _Parser(
    "deon", "Decide whether declared action plans are generalizable, utility maximal\n"
    "and autonomy respecting over a finite scenario.",
    formatter_class=argparse.RawDescriptionHelpFormatter,
    epilog="commands:\n" + "".join(f"  {name:10} {parser.description}\n"
                                   for name, (_, parser) in _COMMANDS.items()),
)
_DEON.add_argument("command", choices=_COMMANDS, metavar="COMMAND")


def _command(args: list[str]) -> str:
    """The command that `args` starts with."""
    if args and args[0] in _COMMANDS:
        return args[0]
    if args and args[0].startswith("-") and args[0] not in ("-", "--help"):
        # `_DEON` would report the missing command, not the option it cannot read.
        raise UsageError(f"unrecognized arguments: {args[0]}")
    # `_DEON` parses only a missing or unknown command: it prints help or refuses it.
    return _DEON.parse_args(args[:1]).command


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code (console script wires it to exit)."""
    args = sys.argv[1:] if argv is None else argv
    parser = _DEON
    try:
        run, parser = _COMMANDS[_command(args)]
        return run(**vars(parser.read(args[1:])))
    except UsageError as exc:
        sys.stderr.write(f"{parser.format_usage()}{parser.prog}: error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # `--help` printed the help
        return exc.code
    except Exception as exc:  # `check` reports its own per file; this is the rest
        print(_internal_error("deon", exc), file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
