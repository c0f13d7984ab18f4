"""Smoke test: every script in ``examples/`` runs to completion.

Each example verifies the bytes it writes; running them keeps the
documented entry points working as the library changes underneath.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    if script.name == "adaptive_io.py":
        header, rows = _table(proc.stdout, "adaptive strategy selection")
        verified = header.index("verified")
        assert len(rows) == 3
        assert all(row[verified] == "yes" for row in rows), proc.stdout


def _table(stdout: str, title: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a ``render_table`` block (columns split on 2+ spaces)."""
    lines = stdout.splitlines()
    body = lines[lines.index(title) + 1 :]
    rows = [re.split(r"\s{2,}", line.strip()) for line in body if line.strip()]
    return rows[0], rows[2:]


def test_examples_found():
    assert {p.name for p in EXAMPLES} >= {"adaptive_io.py", "quickstart.py"}
