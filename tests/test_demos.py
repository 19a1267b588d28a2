"""The demos run to completion against the current package, each in a
scratch working directory (``mini_pareto.py`` writes its SVG there)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["noise_algebra.py", "state_pipeline.py",
                                  "routing_tour.py", "single_trial_walkthrough.py",
                                  "mini_pareto.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo == "mini_pareto.py":
        assert (tmp_path / "mini_pareto.svg").exists()
