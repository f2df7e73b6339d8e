"""Command-line surface: validate, check, explain and debug scenario files.

Exit codes: 0 every plan is ethical, 1 some plan is unethical, 2 an
indeterminate verdict is present, 3 the file failed to parse or validate,
4 usage error. With several input files the most severe code wins
(3, then 1, then 2, then 0) and outputs appear in argument order.
"""

from __future__ import annotations

import json
from pathlib import Path

import click

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

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["human", "json"]), default="human",
    show_default=True, help="Output rendering.",
)
_BUDGET = click.option(
    "--budget", type=click.IntRange(min=1), default=DEFAULT_BUDGET,
    envvar="DEON_BUDGET", show_default=True,
    help="Solver decision budget per query (env: DEON_BUDGET).",
)


@click.group()
def cli() -> None:
    """Decide whether declared action plans are generalizable, utility
    maximal and autonomy respecting over a finite scenario."""


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


def _model_doc(clause_set, model) -> dict[str, bool]:
    return {str(atom): value for atom, value in model.atom_values(clause_set).items()}


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
                "model": _model_doc(evidence.clause_set, evidence.model)}
    if isinstance(evidence, QueryConflict):
        return {"kind": "conflict",
                "clauses": evidence.conflict.render(evidence.clause_set)}
    if isinstance(evidence, PlanInterference):
        return {
            "kind": "plan-conflict",
            "with": evidence.other_plan,
            "action_clauses": evidence.actions_conflict.render(evidence.actions_clause_set),
            "reasons_model": _model_doc(evidence.reasons_clause_set, evidence.reasons_model),
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


def _dump(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def render_structured(verdicts: VerdictSet) -> str:
    """Machine-readable verdicts: sorted keys, two-space indent, LF endings.

    Byte-identical across runs on identical input.
    """
    return _dump(_verdict_doc(verdicts))


# --------------------------------------------------------------------------
# Commands


def _run_check(files: tuple[str, ...], fmt: str, budget: int, explain: bool) -> int:
    codes: list[int] = []
    docs: list[dict] = []
    human: list[str] = []
    for path in files:
        scenario, messages = _load(path)
        if scenario is None:
            for line in messages:
                click.echo(line, err=True)
            codes.append(EXIT_INVALID)
            continue
        verdicts = evaluate(scenario, budget=budget)
        codes.append(_verdict_exit(verdicts))
        if fmt == "json":
            docs.append(_verdict_doc(verdicts))
        else:
            human.append(render_human(verdicts, explain=explain))
    if fmt == "json" and (docs or len(files) > 1):
        # Several files give a list, whatever number of them parsed.
        click.echo(_dump(docs if len(files) > 1 else docs[0]), nl=False)
    elif human:
        click.echo("\n".join(human), nl=False)
    return _combine(codes)


@cli.command()
@click.argument("files", nargs=-1, required=True)
@_FORMAT
@_BUDGET
@click.option("--explain", is_flag=True, help="Include witness models and conflicts.")
def check(files: tuple[str, ...], fmt: str, budget: int, explain: bool) -> int:
    """Evaluate every plan in the given scenario files."""
    return _run_check(files, fmt, budget, explain)


@cli.command()
@click.argument("files", nargs=-1, required=True)
@_FORMAT
@_BUDGET
def explain(files: tuple[str, ...], fmt: str, budget: int) -> int:
    """Like check, with witness models and conflict explanations."""
    return _run_check(files, fmt, budget, explain=True)


@cli.command()
@click.argument("files", nargs=-1, required=True)
@_FORMAT
def validate(files: tuple[str, ...], fmt: str) -> int:
    """Parse and validate scenario files without checking any plan."""
    code = EXIT_OK
    docs = []
    for path in files:
        text, problem = _read(path)
        if text is None:
            click.echo(f"{path}: {problem}", err=True)
            code = EXIT_INVALID
            docs.append({
                "file": path,
                "ok": False,
                "diagnostics": [{"line": 0, "column": 0, "severity": "error",
                                 "message": problem, "code": "io"}],
            })
            continue
        result = parse_scenario(text, filename=path)
        ok = result.ok
        if fmt == "json":
            docs.append({
                "file": path,
                "ok": ok,
                "diagnostics": [
                    {
                        "line": d.span.line,
                        "column": d.span.column,
                        "severity": d.severity,
                        "message": d.message,
                        "code": d.code,
                    }
                    for d in result.diagnostics
                ],
            })
        else:
            if ok:
                click.echo(f"{path}: OK")
            for d in result.diagnostics:
                click.echo(str(d), err=True)
        if not ok:
            code = EXIT_INVALID
    if fmt == "json" and docs:
        click.echo(_dump(docs[0] if len(docs) == 1 else docs), nl=False)
    return code


@cli.command("sat-debug")
@click.argument("file", nargs=1)
@click.option("--clauses", "check_id", required=True,
              help="Which check to dump: gen:<plan> or aut:<plan>:<plan>.")
def sat_debug(file: str, check_id: str) -> int:
    """Print the ground clause set behind a named check."""
    scenario, messages = _load(file)
    if scenario is None:
        for line in messages:
            click.echo(line, err=True)
        return EXIT_INVALID
    parts = check_id.split(":")
    plan_ids = {p.id for p in scenario.plans}
    if parts[0] == "gen" and len(parts) == 2:
        if parts[1] not in plan_ids:
            raise click.UsageError(f"unknown plan {parts[1]!r} in --clauses")
        cs = QueryCompiler(scenario).generalization(scenario.plan(parts[1]))
        click.echo(f"c generalization query for plan {parts[1]}")
        click.echo(cs.to_dimacs(), nl=False)
        return EXIT_OK
    if parts[0] == "aut" and len(parts) == 3:
        for pid in parts[1:]:
            if pid not in plan_ids:
                raise click.UsageError(f"unknown plan {pid!r} in --clauses")
        plan, other = scenario.plan(parts[1]), scenario.plan(parts[2])
        if plan.agent == other.agent:
            raise click.UsageError("autonomy checks need plans of distinct agents")
        actions, reasons = QueryCompiler(scenario).autonomy_pair(plan, other)
        click.echo(f"c autonomy actions query for {parts[1]} against {parts[2]}")
        click.echo(actions.to_dimacs(), nl=False)
        click.echo(f"c autonomy reasons query for {parts[1]} against {parts[2]}")
        click.echo(reasons.to_dimacs(), nl=False)
        return EXIT_OK
    if parts[0] == "util":
        raise click.UsageError("utility checks compare point utilities and have no clause set")
    raise click.UsageError(
        f"bad check id {check_id!r}; use gen:<plan> or aut:<plan>:<plan>"
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code (console script wires it to exit)."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    return result if isinstance(result, int) else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
