"""The README's library quick start prints what the README says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start: library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_comments():
    block = _quick_start_block()
    expected = []
    lines = block.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("print("):
            # the expected output is the comment on the print line or on the next line
            inline = line.partition("#")[2].strip()
            expected.append(inline or lines[i + 1].lstrip("# ").rstrip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    # the wall-t character measure, rounded to 6 digits
    assert "{(0, 2): 0.145582, (1, 0): 0.107728, (2, 1): 0.555263, (4, 0): 0.191427}" in expected
