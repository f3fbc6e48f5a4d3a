import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def test_loophole_separation_script(tmp_path):
    summary = json.loads(run_script("loophole_separation.py", "--json", cwd=tmp_path).stdout)
    assert summary["max_mu_setting_dependent"] == "4"
    assert summary["max_mu_setting_independent"] == "2"
    assert summary["strategies_examined"] == {"dependent": 4096, "independent": 512}

