import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_elsewhere(tmp_path, *argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_abscissa_demo_runs_from_any_directory(tmp_path):
    done = _run_elsewhere(tmp_path, str(SCRIPTS / "abscissa_demo.py"), "--steps", "1", "--json")
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["sweep"]) == 1


@pytest.mark.parametrize("script", ["cf_scan.py", "run_verifications.py"])
def test_script_help_runs_from_any_directory(tmp_path, script):
    done = _run_elsewhere(tmp_path, str(SCRIPTS / script), "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
