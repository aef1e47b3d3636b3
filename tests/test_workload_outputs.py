"""tests/workload_outputs.py --against DIR: only the jobs that differ print."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "tests" / "workload_outputs.py"


def _against(directory: Path) -> list[str]:
    run = subprocess.run(
        [sys.executable, str(_SCRIPT), "--seed", "1", "--workload", "zero-scan",
         "--against", str(directory)],
        capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def _tree(path: Path) -> set:
    return {p.relative_to(path) for p in path.rglob("*")}


def test_against_its_own_checkout_prints_nothing():
    before = _tree(_ROOT / "perfbench")
    assert _against(_ROOT) == []
    assert _tree(_ROOT / "perfbench") == before


def test_against_names_the_job_and_kind_that_moved(tmp_path):
    # a stand-in checkout whose run reads one hash differently
    fake = tmp_path / "tests" / "workload_outputs.py"
    fake.parent.mkdir()
    fake.write_text(
        "import subprocess, sys\n"
        f"cmd = [sys.executable, {str(_SCRIPT)!r}, *sys.argv[1:]]\n"
        "lines = subprocess.run(cmd, capture_output=True, text=True,\n"
        "                       check=True).stdout.splitlines()\n"
        "fields = lines[3].split()\n"
        "fields[3] = '0' * 64\n"
        "lines[3] = ' '.join(fields)\n"
        "print('\\n'.join(lines))\n")
    out = _against(tmp_path)
    assert len(out) == 3
    assert out[0].startswith("- zero-scan 3 ") and out[0].split()[4] == "0" * 64
    assert out[1].startswith("+ zero-scan 3 ") and out[1].split()[4] != "0" * 64
    assert out[2].startswith("scan 1 of ")
