"""Smoke runs of the scripts under scripts/: each builds its configs directly, so only a run shows a break."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,last_line", [
    ("ablation_grid.py", ["--n", "8", "--d", "16", "--steps", "2", "--batch-size", "4"], "+ stop gradient"),
    ("overfit_demo.py", ["--n", "4", "--d", "16", "--steps", "2", "--batch-size", "2", "--out", "{tmp}"],
     "checkpoint: {tmp}/model.ckpt"),
])
def test_script_runs_a_few_steps(tmp_path, script, args, last_line):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [a.format(tmp=tmp_path / "run") for a in args]
    last_line = last_line.format(tmp=tmp_path / "run")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line), proc.stdout
