"""Byte gate of the single-stage subcommands on the CLI fixture.

``tests/data/stage_digests.json`` holds the SHA-256 of what ``stabilize``
(from the homography log, and from correspondences together with the
homography log it writes), ``georef`` with lanes, ``dims`` and
``kinematics`` (on a gapped, partly visible trajectory) write for the
fixture of ``conftest.build_pipeline_fixture``, and what ``compare`` writes
for a probe and candidate pair, at the default speed floor and at a raised
one. A change to the program
that moves one byte of these outputs fails this test.

Run this file as a script to print the digests of the current program.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from conftest import PIPELINE_ARGS, build_pipeline_fixture, write_correspondence_fixture
from skytraj import dataio
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


def write_comparison_pair(probe: Path, candidate: Path) -> None:
    """A curved candidate on the integer grid at even frames, out of frame
    order, with one point repeated at the next odd frame; probes on and beside it, some at a
    candidate point's tie (two nearest points, or two equidistant
    neighbors), one on the repeated point (skipped) and some below 1 km/h."""
    cand = [(2 * k, float(k), float(k * k // 16), 30.0 + 0.5 * k) for k in range(1, 41)]
    cand.append((51, *cand[24][1:3], 99.0))  # frame 50's point again at frame 51
    cand[3], cand[9] = cand[9], cand[3]
    candidate.write_text("frame,x,y,speed\n"
                         + "".join(f"{f},{x!r},{y!r},{v!r}\n" for f, x, y, v in cand))
    probes = []
    for i in range(1, 39):
        x, y = i + 0.3, (i * i // 16) + 0.7 + 0.01 * i
        probes.append((x, y, 0.5 if i % 7 == 0 else 28.0 + 0.6 * i))
    probes += [
        (2.0, 0.5, 31.0),  # nearest (2, 0); neighbors (1, 0) and (3, 0) tie
        (2.5, 0.0, 33.0),  # (2, 0) and (3, 0) tie for nearest
        (25.0, 39.0, 44.0),  # on the repeated point: skipped
        (25.5, 42.0, 0.25),
        (-3.0, -2.0, 20.0),  # beyond the first point
        (45.0, 100.0, 55.0),  # beyond the last point
    ]
    probe.write_text("t,x,y,speed\n" + "".join(
        f"{0.1 * n!r},{x!r},{y!r},{v!r}\n" for n, (x, y, v) in enumerate(probes)))


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
        "compare": work / "compare.csv",
        "compare_speed_floor": work / "compare_floor.csv",
    }
    traj = work / "local.csv"
    write_gapped_trajectories(traj)
    probe, candidate = work / "probe.csv", work / "candidate.csv"
    write_comparison_pair(probe, candidate)
    pair = ["compare", "--probe", probe, "--candidate", candidate]
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
        [*pair, "--output", out["compare"]],
        [*pair, "--group", "probe-7", "--speed-floor", "40", "--output",
         out["compare_speed_floor"]],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return out


def stage_digests(work: Path) -> dict[str, str]:
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in stage_outputs(work).items()}


def test_stage_bytes_match_recorded_digests(tmp_path):
    assert stage_digests(tmp_path) == json.loads(DIGESTS.read_text())


def test_every_table_is_written_as_joined_text(tmp_path, monkeypatch):
    """Every CSV writer of the CLI hands `write_csv` plain ``str`` cells, so
    each block is joined and none goes through ``csv.writer``."""
    headers, fallbacks = [], []
    joined = dataio._plain_lines

    def recorded(block):
        text = joined(block)
        (headers if text is not None else fallbacks).append(tuple(block[0]))
        return text

    monkeypatch.setattr(dataio, "_plain_lines", recorded)
    outputs = stage_outputs(tmp_path)
    config = tmp_path / "bench.yaml"
    config.write_text("bench: {scenes: 1, trials_per_scene: 1, snn_ratios: [null, 0.9],"
                      " downscales: [1.0], point_counts: [40]}\n")
    paths = build_pipeline_fixture(tmp_path / "fixture")
    for argv in (
        ["pipeline", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
         "--homographies", paths["homographies"], "--registry", paths["registry"],
         "--segmentation", paths["segmentation"], "--output", tmp_path / "export.csv",
         *PIPELINE_ARGS],
        ["bench", "--config", config, "--jobs", "1", "--output", tmp_path / "bench.csv"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    assert fallbacks == []
    # tracks, georef, dims, kinematics, comparison, export, campaign and timing
    assert len(headers) == len(outputs) - 1 + 3
    assert tuple(dataio.EXPORT_COLUMNS) in headers
    assert tuple(dataio.CAMPAIGN_COLUMNS) in headers


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(stage_digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
        print()
