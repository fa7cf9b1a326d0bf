"""The experiment reports in scripts/ run to completion from a checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-B", str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", ["decay_report.py", "screening_profiles.py"])
def test_script_exits_zero(name):
    proc = _run(name)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mass_scan_gap_within_tolerance():
    tol = 1e-8
    proc = _run("mass_scan.py", "--tol", str(tol))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    worst = float(re.search(r"worst cross-route gap: (\S+)", proc.stdout).group(1))
    assert worst <= tol
