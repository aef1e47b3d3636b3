"""tests/bench_pairs.py --in-process: one A/A round of a workload runs clean."""

import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "tests" / "bench_pairs.py"


def _tree(path: Path) -> set:
    return {p.relative_to(path) for p in path.rglob("*")}


@pytest.mark.skipif(not (_ROOT / ".git").exists(),
                    reason="--in-process unpacks commits with git archive")
def test_in_process_round_of_a_commit_against_itself():
    before = _tree(_ROOT / "perfbench")
    run = subprocess.run(
        [sys.executable, str(_SCRIPT), "--in-process", "--parent", "HEAD",
         "--change", "HEAD", "--workload", "zero-scan", "--pairs", "1"],
        capture_output=True, text=True, cwd=_ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().endswith("0 of 64 jobs differ")
    assert _tree(_ROOT / "perfbench") == before
