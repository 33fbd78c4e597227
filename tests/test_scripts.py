"""The scripts that no other test runs still run to their closing line.

Each script runs in its own interpreter, as from the command line; a
changed signature inside the package shows here as a traceback or a
missing closing line.
"""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
CLOSING = {
    ("run_all_verifications.py",): lambda line: line.endswith(": all checks passed"),
    ("kissing_threshold.py",): lambda line: line.startswith("i.e. g ~ 10^3730.07"),
}


@pytest.mark.parametrize("command", sorted(CLOSING), ids=" ".join)
def test_script_runs_to_its_closing_line(command):
    script, *args = command
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    closing = run.stdout.strip().splitlines()[-1].strip()
    assert CLOSING[command](closing), closing
