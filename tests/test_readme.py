"""The README's library quick start prints what the README says it prints."""

import contextlib
import io
import re
from pathlib import Path

from tensorstat.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_blocks() -> list[str]:
    text = README.read_text()
    start = text.index("## Quick start: library")
    section = text[start : text.index("\n## ", start + 1)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_quick_start_prints_its_comments():
    blocks = _quick_start_blocks()
    assert len(blocks) >= 2  # the library tour and the limit-law comparison
    expected = []
    for block in blocks:
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("print("):
                # the expected output is the comment on the print line or on the next line
                inline = line.partition("#")[2].strip()
                expected.append(inline or lines[i + 1].lstrip("# ").rstrip())
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == expected
    # the wall-t character measure, rounded to 6 digits
    assert "{(0, 2): 0.145582, (1, 0): 0.107728, (2, 1): 0.555263, (4, 0): 0.191427}" in expected
    # the limit-law distance on the default lattice-aligned grid
    assert expected[-1] == "0.0053"


def test_readme_measure_block_is_the_cli_output(capsys):
    # the one unabridged CLI block of the quick start, byte for byte
    text = README.read_text()
    command = "$ tensorstat measure --algebra A1 --rep 1 --power 8 --t 0.5\n"
    start = text.index(command) + len(command)
    block = text[start : text.index("\n\n", start) + 1]
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out == block


def test_readme_flag_table_is_the_parser(cli_flags):
    # the "Flags" table lists, per command, exactly the flags build_parser gives it
    text = README.read_text()
    start = text.index("### Flags")
    rows = re.findall(r"^\| `([a-z-]+)` \| ((?:`--[a-z-]+` ?)+) \|$", text[start : text.index("\n### ", start)], re.M)
    assert {command: set(re.findall(r"`(--[a-z-]+)`", flags)) for command, flags in rows} == cli_flags
