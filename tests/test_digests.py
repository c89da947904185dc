"""The byte-identity check: every artifact of the fixed digest runs
equals the one whose digest ``scripts/artifact_digests.txt`` holds."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "artifact_digests.py"
DIGESTS = SCRIPTS / "artifact_digests.txt"


def _check(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--check", str(path)],
                          capture_output=True, text=True, timeout=600)


@pytest.mark.slow
def test_artifacts_match_the_committed_digests():
    result = _check(DIGESTS)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("178 artifacts byte-identical")


def test_other_versions_fail_the_check_naming_both(tmp_path):
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    other = tmp_path / "digests.txt"
    other.write_text("\n".join(["# python 2.7.18, numpy 1.16.6", *lines[1:]]) + "\n",
                     encoding="utf-8")
    result = _check(other)
    assert result.returncode == 1
    assert "python 2.7.18, numpy 1.16.6" in result.stderr
    assert f"python {platform.python_version()}, numpy {np.__version__}" in result.stderr
