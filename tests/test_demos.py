"""Each demo runs as a user would run it: copied into a fresh directory
and started as a script, writing its outputs next to itself."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layoutsynth
from layoutsynth.sceneio import serialize_scene
from layoutsynth.scenes import build

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "scene_files.py", "living_room_walkthrough.py", "layout_suggestions.py",
    "constraint_gallery.py", "annealing_comparison.py",
])
def test_demo_runs(name, tmp_path):
    shutil.copy(DEMOS / name, tmp_path)
    src = str(Path(layoutsynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(tmp_path / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if name == "scene_files.py":
        # export, exact round trip, a hand edit and a rejected file
        assert "parse(serialize(scene)) == scene holds" in result.stdout
        assert "edited scene still valid" in result.stdout
        assert "broken file rejected: constraints[0].kind" in result.stdout
        assert (tmp_path / "output" / "desk.json").read_text() == serialize_scene(build("desk"))
    if name == "constraint_gallery.py":
        # the projections' corrections, collected through a list sink
        assert "particle 0: (0.0, 0.0) -> (1.0, 0.0)" in result.stdout
        assert "rotates by +10.0 deg" in result.stdout
    if name == "annealing_comparison.py":
        assert "\nspeedup " in result.stdout
