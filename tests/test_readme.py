"""The README's library section runs as written and names callables that exist."""

import importlib
import inspect
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ("logic", "sat", "scenario", "dsl", "principles", "cli", "scenarios")


def library_section() -> str:
    """The README's text from its `## Library` heading to the next heading."""
    return README.read_text("utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The first ```python block under the README's `## Library` heading."""
    section = library_section()
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_prints_the_verdict_and_its_json(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    first, rest = capsys.readouterr().out.split("\n", 1)
    assert first == "ethical"
    doc = json.loads(rest)
    assert doc["scenario"] == "pedestrian"
    assert "brake" in [plan["plan"] for plan in doc["plans"]]


def signatures(name: str):
    """The signature of every function, class and method called `name` in the
    library's modules; a method's without its `self`."""
    for module in MODULES:
        for value in vars(importlib.import_module(f"deon.{module}")).values():
            if (inspect.isfunction(value) or inspect.isclass(value)) and value.__name__ == name:
                yield inspect.signature(value)
            if inspect.isclass(value) and inspect.isfunction(value.__dict__.get(name)):
                params = list(inspect.signature(value.__dict__[name]).parameters.values())
                yield inspect.Signature(params[1:])


def accepts(signature: inspect.Signature, count: int) -> bool:
    try:
        signature.bind(*range(count))
    except TypeError:
        return False
    return True


def test_library_section_calls_name_callables_of_that_arity():
    # A call may wrap a line inside its backticks.
    calls = re.findall(r"`(?:\w+\.)*(\w+)\(([^`()]*)\)`", library_section())
    assert calls
    wrong = []
    for name, args in calls:
        count = len(args.split(",")) if args.strip() else 0
        found = list(signatures(name))
        if not found:
            wrong.append(f"{name}({args}): no such callable")
        elif not any(accepts(signature, count) for signature in found):
            wrong.append(f"{name}({args}): does not take {count} arguments")
    assert not wrong, wrong
