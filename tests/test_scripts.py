"""The scripts under scripts/ run against the current package.

Each runs as a subprocess on a small input, so a public name a script
imports cannot disappear without failing the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_limit_law_comparison_script():
    lines = _run_script("limit_law_comparison.py", "--powers", "20,40")
    assert lines[0].split() == ["law", "algebra", "N=20", "N=40"]
    assert len(lines) == 5  # header, three A1 laws, A2 Plancherel
    for line in lines[1:]:
        tvs = [float(v) for v in line.split()[-2:]]
        assert all(0 < tv < 0.2 for tv in tvs), line


def test_convergence_sweep_script():
    lines = [line for line in _run_script("convergence_sweep.py", "--case", "A1") if line]
    assert lines[0] == "A1, V = V((1,)):"
    assert lines[1].split() == ["N", "lambda", "eps", "ln", "m", "S(xi)", "|rel", "err|"]
    assert len(lines) == 2 + 5  # one row per power 50..800
    assert not any("not decreasing" in line for line in lines)


def test_sampling_demo_script():
    lines = _run_script("sampling_demo.py")
    start = lines.index("error scaling:") + 2  # past the column header
    rows = [line.split() for line in lines[start : start + 3]]
    assert [int(row[0]) for row in rows] == [1_000, 10_000, 100_000]
    tvs = [float(row[1]) for row in rows]
    assert 0.2 > tvs[0] > tvs[1] > tvs[2] > 0
    assert lines[-1] == "same-seed repeat (2000 chains): identical"
