"""The README's library example runs as written."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first ```python block under the README's `## Library` heading."""
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
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
