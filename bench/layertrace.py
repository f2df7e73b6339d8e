"""Outside-in tracing of deon's layers, installed only for a traced run.

`Tracer.install` replaces each traced callable at the site that imports
it (`cli.parse_scenario`, `cli.evaluate`, `dsl.validate`, `principles.ground`,
`principles.solve`, `logic.ClauseBuilder.build`) with a wrapper that records
a span: name, start, end, parent span and check id. Spans stay in memory;
`self_ms` derives self time per span name from them (a span's duration
minus the durations of its direct children) and `write` saves them as JSON
lines. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

# Span name -> layer that owns its self time.
LAYER_OF = {
    "cli.main": "cli",
    "dsl.parse": "dsl",
    "scenario.validate": "scenario",
    "principles.evaluate": "principles",
    "logic.ground": "logic",
    "logic.build": "logic",
    "sat.solve": "sat",
}
LAYERS = ("cli", "dsl", "scenario", "principles", "logic", "sat")


class Tracer:
    """Span recorder and counters for one traced pass over the inputs."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.check_id = -1
        self._stack: list[int] = []
        self._queries: list[object] = []  # clause sets solved in the current check
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.check_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_check(self, check_id: int, check):
        """Call `check()` as the root span of check number `check_id`."""
        self.check_id = check_id
        try:
            return self.wrap("cli.main", check)()
        finally:
            self.counts["checks"] += 1
            self.counts["distinct_queries"] += len(set(self._queries))
            self._queries.clear()

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import deon.cli
        import deon.dsl
        import deon.logic
        import deon.principles

        sites = [
            (deon.cli, "parse_scenario", "dsl.parse", self._after_parse),
            (deon.cli, "evaluate", "principles.evaluate", self._after_evaluate),
            (deon.dsl, "validate", "scenario.validate", None),
            (deon.principles, "ground", "logic.ground", self._after_ground),
            (deon.principles, "solve", "sat.solve", self._after_solve),
            (deon.logic.ClauseBuilder, "build", "logic.build", self._after_build),
        ]
        for owner, attr, name, after in sites:
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters -----------------------------------------------------------------

    def _after_parse(self, args, result) -> None:
        self.counts["parse_calls"] += 1
        if result.scenario is None or not result.ok:
            self.counts["parse_rejects"] += 1

    def _after_evaluate(self, args, result) -> None:
        self.counts["rounds"] += result.rounds

    def _after_ground(self, args, result) -> None:
        self.counts["ground_calls"] += 1

    def _after_solve(self, args, result) -> None:
        cs = args[0]
        self.counts["solve_calls"] += 1
        self.counts["solve_clauses"] += len(cs.clauses)
        self.counts["solve_vars"] += cs.num_vars
        self.counts["solve_unsat"] += not result.satisfiable
        self._queries.append(cs)

    def _after_build(self, args, result) -> None:
        self.counts["build_calls"] += 1
        self.counts["clauses_built"] += len(result.clauses)

    # -- derived figures ------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds, over every recorded span."""
        child: list[float] = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] = out.get(span[0], 0.0) + (span[2] - span[1] - child[i]) * 1e3
        return out

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines: name, start, end, parent, check."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, check = span
                    out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                          "parent": parent, "check": check}) + "\n")
