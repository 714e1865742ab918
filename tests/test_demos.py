"""The demo scripts print exactly their recorded output.

Each demo runs in a fresh interpreter with this checkout's ``src`` first
on the path; the absolute path of ``demos/fixtures.hla`` that demo 04
echoes is replaced by ``<fixtures.hla>`` before the byte-for-byte
comparison with ``tests/data/demos/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = ROOT / "tests" / "data" / "demos"


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_unchanged(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    out = proc.stdout.replace(str(ROOT / "demos" / "fixtures.hla").encode(),
                              b"<fixtures.hla>")
    assert out == (GOLDEN / f"{demo.stem}.txt").read_bytes()
