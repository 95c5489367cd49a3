"""Each demo script prints exactly its golden transcript."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import umtree

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(umtree.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         check=True, timeout=120)
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
