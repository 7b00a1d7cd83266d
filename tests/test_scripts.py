"""Smoke runs of the scripts under scripts/: each builds its configs directly, so only a run shows a break."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, argv, cwd):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args,last_line", [
    ("ablation_grid.py", ["--n", "8", "--d", "16", "--steps", "2", "--batch-size", "4"], "full"),
    ("overfit_demo.py", ["--n", "4", "--d", "16", "--steps", "2", "--batch-size", "2", "--out", "{tmp}"],
     "checkpoint: {tmp}/model.ckpt"),
    ("step_digest.py", ["--d", "16", "--steps", "2"], "d=16 float32 2 steps seed 1: "),
])
def test_script_runs_a_few_steps(tmp_path, script, args, last_line):
    out = run_script(script, [a.format(tmp=tmp_path / "run") for a in args], tmp_path)
    assert out.splitlines()[-1].startswith(last_line.format(tmp=tmp_path / "run")), out


def test_step_digest_is_the_same_run_to_run_and_moves_with_the_seed(tmp_path):
    def digest(*argv):
        return run_script("step_digest.py", ["--d", "16", "--steps", "1", "--dtype", "float64", *argv],
                          tmp_path).split(": ")[-1].strip()

    first = digest()
    assert len(first) == 64 and first == digest() != digest("--seed", "2")
