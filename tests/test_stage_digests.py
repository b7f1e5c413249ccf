"""Byte gate of the single-stage subcommands on the CLI fixture.

``tests/data/stage_digests.json`` holds the SHA-256 of what ``stabilize``
(from the homography log, and from correspondences together with the
homography log it writes), ``georef`` with lanes, ``dims`` and
``kinematics`` (on a gapped, partly visible trajectory) write for the
fixture of ``conftest.build_pipeline_fixture``. A change to the program
that moves one byte of these outputs fails this test.

Run this file as a script to print the digests of the current program.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from conftest import build_pipeline_fixture, write_correspondence_fixture
from skytraj.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "stage_digests.json"


def write_gapped_trajectories(path: Path) -> None:
    """Local-meter trajectories with frame gaps, hidden frames, a two-point
    vehicle and a one-point vehicle (skipped with a log line)."""
    rows = []
    for k in range(1, 41):
        if 10 <= k <= 14 or k == 25:
            continue
        hidden = k <= 3 or k >= 39 or k == 20
        rows.append((1, k, 0.37 * k + 0.013 * k * k, 0.05 * k - 1.0 / 3.0, 0 if hidden else 1))
    rows += [(2, 5, 10.0, 2.0, 1), (2, 9, 10.7, 2.1, 0)]
    rows += [(3, 4, 1.0, 1.0, 1)]
    path.write_text("id,frame,x,y,visible\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))


def stage_outputs(work: Path) -> dict[str, Path]:
    """Run every gated stage on the fixture under ``work``; returns the
    written files by digest key."""
    paths = build_pipeline_fixture(work / "fixture")
    corr_dir = work / "corrs"
    write_correspondence_fixture(corr_dir, frames=range(2, 21))
    common = ["--sidecar", paths["sidecar"], "--registry", paths["registry"],
              "--video-id", "L1"]
    out = {
        "stabilize_log": work / "stab_log.csv",
        "stabilize_corr": work / "stab_corr.csv",
        "stabilize_corr_homographies": work / "stab_corr_homographies.txt",
        "georef": work / "georef.csv",
        "dims": work / "dims.csv",
        "dims_wide_margin": work / "dims_wide.csv",
        "kinematics": work / "kin.csv",
    }
    traj = work / "local.csv"
    write_gapped_trajectories(traj)
    commands = [
        ["stabilize", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
         "--homographies", paths["homographies"], "--output", out["stabilize_log"]],
        ["stabilize", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
         "--correspondences", corr_dir, "--snn-ratio", "0.9",
         "--output", out["stabilize_corr"]],
        ["georef", "--tracks", out["stabilize_log"], "--segmentation", paths["segmentation"],
         *common, "--output", out["georef"]],
        ["dims", "--tracks", paths["tracks"], "--stabilized", out["stabilize_corr"], *common,
         "--output", out["dims"]],
        ["dims", "--tracks", paths["tracks"], "--stabilized", out["stabilize_log"], *common,
         "--visibility-margin", "700", "--output", out["dims_wide_margin"]],
        ["kinematics", "--input", traj, "--output", out["kinematics"]],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return out


def stage_digests(work: Path) -> dict[str, str]:
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in stage_outputs(work).items()}


def test_stage_bytes_match_recorded_digests(tmp_path):
    assert stage_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(stage_digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
        print()
