"""Golden output of the demo scripts: each runs cleanly and prints pinned bytes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_demos.json"


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_script_output_is_golden(path):
    golden = json.loads(GOLDEN_PATH.read_text())
    proc = run_demo(path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == golden[path.name]
