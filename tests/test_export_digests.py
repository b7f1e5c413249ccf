"""Byte gate of the ``pipeline`` export on seeded benchmark sessions.

``tests/data/export_digests.json`` holds the SHA-256 of the export for
seeds 0-9 of the bench-size ``session_dense`` and the tiny
``session_registered`` inputs, which ``perfbench/gen.py`` regenerates here
with the benchmark's own command lines. A change to the program that moves
one byte of an export fails this test; a change to the generator's bytes
re-records the file.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from skytraj.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

DIGESTS = json.loads((ROOT / "tests" / "data" / "export_digests.json").read_text())
SEEDS = range(10)
SIZES = {"session_dense": "bench", "session_registered": "tiny"}


def export_digest(workload: str, seed: int, work: Path) -> str:
    info = run.generate(workload, seed, SIZES[workload], work)
    assert main(info["argv"]) == 0
    return hashlib.sha256(Path(info["output"]).read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_export_bytes_match_recorded_digests(workload, tmp_path):
    got = {str(seed): export_digest(workload, seed, tmp_path / str(seed)) for seed in SEEDS}
    assert got == DIGESTS[workload]
