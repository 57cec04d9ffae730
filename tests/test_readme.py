"""README's library example must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The first fenced Python block under the "## Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line for the single detection, then one per detected trace
    assert lines[0].split()[0] == "a"
    assert len(lines) > 1
