"""Self-hosting gate: the repository's own sources must lint clean.

This is the acceptance criterion for the simlint framework — every rule
runs over ``src/`` in its own scope, and any unsuppressed finding fails
tier-1.  Reintroducing a violation (a
dtype-less allocation, a magic unit literal, a bare ``except``) breaks
this test, not just CI.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def result():
    return lint_paths([SRC])


def test_src_tree_has_zero_unsuppressed_findings(result):
    pretty = "\n".join(
        f"  {f.location()}: {f.rule} {f.message}" for f in result.unsuppressed
    )
    assert not result.unsuppressed, f"simlint found new violations:\n{pretty}"


def test_src_tree_was_actually_scanned(result):
    # Guard against a silently empty run (e.g. a path typo) passing.
    assert result.files_scanned > 50


def test_suppressions_are_few_and_deliberate(result):
    # Every suppression is individually audited (see docs/ANALYSIS.md).
    # If this number grows, the new directive needs the same scrutiny.
    assert len(result.suppressed) == 0


def test_cli_exit_code_is_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", str(SRC)],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_reintroduced_violation_is_caught(tmp_path):
    # Simulate a regression: drop a dtype-less allocation into a file
    # under the DTYPE001 scope and lint it.
    bad = tmp_path / "src" / "repro" / "sim" / "regression.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\nbuf = np.zeros(8)\n", encoding="utf-8")
    result = lint_paths([bad])
    assert result.exit_code == 1
    assert [f.rule for f in result.unsuppressed] == ["DTYPE001"]
