import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perpetua.cli import main
from perpetua.verify import CHECKS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_elsewhere(tmp_path, *argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_abscissa_demo_runs_from_any_directory(tmp_path):
    done = _run_elsewhere(tmp_path, str(SCRIPTS / "abscissa_demo.py"), "--steps", "1", "--json")
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["sweep"]) == 1


# SHA-256 of stdout; both print bisected r* values to the last digit, so any
# change to the r* search shows here
ABSCISSA_VERIFY_SHA256 = "a9330d2f9e4f7569560c3c46adde66d2d33bcd232f61dd785761fb7f63f95b06"
ABSCISSA_DEMO_SHA256 = "6ce5ee7ed3d08bf918d01303850c0ee175082145e71797bdc3add0a276441973"


def test_abscissa_outputs_keep_their_bytes(tmp_path, capsys):
    assert main(["verify", "abscissa-boundary"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ABSCISSA_VERIFY_SHA256
    done = _run_elsewhere(tmp_path, str(SCRIPTS / "abscissa_demo.py"), "--json", "--steps", "3")
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == ABSCISSA_DEMO_SHA256


@pytest.mark.parametrize("script", ["cf_scan.py", "run_verifications.py"])
def test_script_help_runs_from_any_directory(tmp_path, script):
    done = _run_elsewhere(tmp_path, str(SCRIPTS / script), "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_run_verifications_json_is_strict_and_matches_verify(tmp_path, capsys):
    done = _run_elsewhere(tmp_path, str(SCRIPTS / "run_verifications.py"),
                          "--json", "--n", "1", "--seed", "1")
    assert done.returncode == 1, done.stderr  # n = 1 fails the tolerances
    lines = done.stdout.splitlines()
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)
    want = []
    for name in CHECKS:
        main(["verify", name, "--n", "1", "--seed", "1"])
        want.extend(capsys.readouterr().out.splitlines())
    assert lines == want
