"""The example scripts run end to end on small inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, argv", [
    ("simulation_study.py", ["--n", "300", "--starts", "2"]),
    ("model_comparison.py", ["--origins", "5", "--train", "200"]),
])
def test_script_exits_zero(tmp_path, script, argv):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
