import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    FRAME_H,
    FRAME_W,
    PIPELINE_ARGS,
    build_pipeline_fixture,
    drift,
    make_point,
    scenario_points,
    translation,
    with_box,
    write_correspondence_fixture,
    write_sidecar,
    write_tracks_csv,
)
from skytraj import dataio
from skytraj.cli import main
from skytraj.dataio import (
    EXPORT_COLUMNS,
    VideoSidecar,
    load_homography_log,
    load_tracks,
    write_homography_log,
)


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_rows(path) -> list[dict[str, str]]:
    """The rows of the CSV table at ``path``; the file is closed on return."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def pipeline_cmd(paths, output, extra=()):
    return [
        "pipeline",
        "--tracks", paths["tracks"],
        "--sidecar", paths["sidecar"],
        "--homographies", paths["homographies"],
        "--registry", paths["registry"],
        "--segmentation", paths["segmentation"],
        "--output", output,
        *PIPELINE_ARGS,
        *extra,
    ]


class TestPipelineCommand:
    def test_end_to_end(self, pipeline_fixture, tmp_path):
        out = tmp_path / "songdo.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(EXPORT_COLUMNS)
        rows = [dict(zip(EXPORT_COLUMNS, l.split(","))) for l in lines[1:]]
        # vehicle 2 (15 points) and vehicle 4 (low scores) are absent
        assert {r["Vehicle_ID"] for r in rows} == {"1", "3"}
        assert len([r for r in rows if r["Vehicle_ID"] == "1"]) == 20
        assert len([r for r in rows if r["Vehicle_ID"] == "3"]) == 18

        v1 = [r for r in rows if r["Vehicle_ID"] == "1"]
        assert v1[0]["Local_Time"] == "08:00:00.000"
        assert v1[1]["Local_Time"] == "08:00:00.033"
        assert v1[0]["Ortho_X"] == "750.0"
        assert v1[0]["Vehicle_Length"] in ("4.90", "4.91")  # 4.905 in floats
        assert v1[0]["Vehicle_Width"] == "2.18"
        assert v1[0]["Vehicle_Speed"] == ""  # no predecessor
        assert v1[1]["Vehicle_Speed"] == "73.5"
        assert v1[1]["Vehicle_Acceleration"] == ""
        assert v1[2]["Vehicle_Acceleration"] == "0.00"
        assert all(r["Visibility"] == "1" for r in v1)
        # lane switch with shared-edge tie-break: x == 1000 stays lane 1
        lanes = [(r["Ortho_X"], r["Lane_Number"]) for r in v1]
        assert ("1000.0", "1") in lanes
        assert ("1025.0", "2") in lanes

        v3 = [r for r in rows if r["Vehicle_ID"] == "3"]
        # parked: refined class (one bad frame) and ratio-path dims
        assert all(r["Vehicle_Class"] == "0" for r in v3)
        assert v3[0]["Vehicle_Length"] == "4.36"
        assert v3[1]["Vehicle_Speed"] == "0.0"
        assert v3[0]["Road_Section"] == ""
        assert v3[0]["Lane_Number"] == ""

    def test_idempotent_and_jobs_invariant(self, pipeline_fixture, tmp_path):
        outs = [tmp_path / f"out{i}.csv" for i in range(3)]
        assert run_cli(*pipeline_cmd(pipeline_fixture, outs[0])) == 0
        assert run_cli(*pipeline_cmd(pipeline_fixture, outs[1])) == 0
        assert run_cli(*pipeline_cmd(pipeline_fixture, outs[2], ["--jobs", "2"])) == 0
        data = [o.read_bytes() for o in outs]
        assert data[0] == data[1] == data[2]

    def test_empty_tracks_header_only(self, pipeline_fixture, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("frame,id,cx,cy,w,h,class,score\n")
        out = tmp_path / "out.csv"
        paths = dict(pipeline_fixture)
        paths["tracks"] = empty
        assert run_cli(*pipeline_cmd(paths, out)) == 0
        assert out.read_text() == ",".join(EXPORT_COLUMNS) + "\n"

    def test_missing_homography_names_frame(self, pipeline_fixture, tmp_path, capsys):
        log = Path(pipeline_fixture["homographies"])
        lines = [l for l in log.read_text().splitlines() if not l.startswith("7 ")]
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out)) == 1
        err = capsys.readouterr().err
        assert "frame 7" in err

    def test_config_file_with_flag_override(self, pipeline_fixture, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "video_id: L1\n"
            "paths:\n"
            f"  tracks: {pipeline_fixture['tracks']}\n"
            f"  sidecar: {pipeline_fixture['sidecar']}\n"
            f"  homographies: {pipeline_fixture['homographies']}\n"
            f"  registry: {pipeline_fixture['registry']}\n"
            f"  segmentation: {pipeline_fixture['segmentation']}\n"
            "export:\n"
            "  drone_id: 3\n"
            "  start_time: '08:00:00.000'\n"
            "  date: '2022-10-04'\n"
            "  intersection: L\n"
            "  session: AM1\n"
        )
        out_cfg = tmp_path / "from_config.csv"
        assert run_cli("pipeline", "--config", cfg, "--output", out_cfg) == 0
        row = out_cfg.read_text().strip().split("\n")[1].split(",")
        assert row[2] == "3"  # Drone_ID from config

        out_flag = tmp_path / "flag_wins.csv"
        assert run_cli(
            "pipeline", "--config", cfg, "--output", out_flag, "--drone-id", "9"
        ) == 0
        row = out_flag.read_text().strip().split("\n")[1].split(",")
        assert row[2] == "9"  # CLI flag overrides config

    @pytest.mark.parametrize(
        "extra, config, needle",
        [
            (["--start-time", "garbage"], None, "garbage"),
            (["--drone-id", "42"], None, "drone_id"),
            (["--sigma", "-1"], None, "sigma"),
            ([], "kinematics: {sigmaa: 2}\n", "kinematics.sigmaa"),
            ([], "ingest: {score_mn: 0.95}\n", "ingest.score_mn"),
            (["--score-min", "2"], None, "ingest: score_min must be in (0, 1)"),
            (["--nms-iou", "0"], None, "ingest: nms_iou must be in (0, 1)"),
            (["--sigma", "nan"], None, "kinematics: sigma"),
            (["--sigma", "inf"], None, "kinematics: sigma"),
            (["--sigma", "1e308"], None, "kinematics: sigma"),
            (["--sigma", "1e20"], None, "kinematics: sigma must be positive, with round"),
            (["--gsd", "nan"], None, "dimensions: gsd"),
            (["--min-travel-m", "nan"], None, "dimensions: gsd and min_travel_m"),
            (["--azimuth-tolerance", "nan"], None, "dimensions: azimuth_tolerance_deg"),
            (["--visibility-margin", "nan"], None, "dimensions: visibility_margin"),
            # a flag value fails as its config entry does
            (["--max-iterations", "1e3"], None,
             "ransac.max_iterations must be an integer, got '1e3'"),
            (["--sigma", "abc"], None,
             "kinematics.sigma: bad value 'abc': could not convert string to float: 'abc'"),
            (["--snn-ratio", "0.9x"], None,
             "stabilize.snn_ratio: bad value '0.9x': could not convert string to float: '0.9x'"),
            (["--seed", "abc"], None, "seed must be an integer, got 'abc'"),
            (["--jobs", "abc"], None, "jobs must be an integer, got 'abc'"),
            (["--drone-id", "7.5"], None, "export.drone_id must be an integer, got '7.5'"),
            # a float parameter refuses a boolean
            ([], "stabilize: {downscale: true}\n", "stabilize.downscale must be a number, got True"),
            ([], "stabilize: {snn_ratio: true}\n", "stabilize.snn_ratio must be a number, got True"),
            ([], "kinematics: {sigma: true}\n", "kinematics.sigma must be a number, got True"),
            # the strict profile takes a boolean only
            ([], "dimensions: {strict: 'false'}\n",
             "dimensions.strict must be true or false, got 'false'"),
            ([], "dimensions: {strict: 1}\n", "dimensions.strict must be true or false, got 1"),
        ],
        ids=["start-time", "drone-id", "sigma", "kinematics-key", "ingest-key",
             "score-min", "nms-iou", "sigma-nan", "sigma-inf", "sigma-1e308", "sigma-1e20",
             "gsd-nan",
             "min-travel-nan", "azimuth-tolerance-nan", "visibility-margin-nan",
             "max-iterations-flag", "sigma-flag", "snn-ratio-flag", "seed-flag-with-log",
             "jobs-flag", "drone-id-flag", "downscale-bool", "snn-ratio-bool", "sigma-bool",
             "strict-string", "strict-integer"],
    )
    def test_bad_parameter_fails_cleanly(
        self, pipeline_fixture, tmp_path, capsys, extra, config, needle
    ):
        if config is not None:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(config)
            extra = [*extra, "--config", cfg]
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out, extra)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error [pipeline]: ")
        assert needle in err[0]
        assert not out.exists()

    def test_strict_false_or_null_writes_the_default_export(self, pipeline_fixture, tmp_path):
        default = tmp_path / "default.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, default)) == 0
        for value in ("false", "null"):
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"dimensions: {{strict: {value}}}\n")
            out = tmp_path / f"strict_{value}.csv"
            assert run_cli(*pipeline_cmd(pipeline_fixture, out, ["--config", cfg])) == 0
            assert out.read_bytes() == default.read_bytes()

    def fails_with_one_line(self, paths, tmp_path, capsys) -> str:
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(paths, out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [pipeline]: ")
        assert not out.exists()
        return err[0]

    def test_non_finite_lane_vertex_fails_cleanly(self, pipeline_fixture, tmp_path, capsys):
        seg = Path(pipeline_fixture["segmentation"])
        lanes = json.loads(seg.read_text())
        lanes[1]["polygon"][2] = ["nan", 1]
        seg.write_text(json.dumps(lanes))
        err = self.fails_with_one_line(pipeline_fixture, tmp_path, capsys)
        assert err == f"error [pipeline]: {seg}: polygon 1 has a non-finite vertex"

    def test_null_lane_section_fails_cleanly(self, pipeline_fixture, tmp_path, capsys):
        seg = Path(pipeline_fixture["segmentation"])
        lanes = json.loads(seg.read_text())
        lanes[0]["section"] = None
        seg.write_text(json.dumps(lanes))
        err = self.fails_with_one_line(pipeline_fixture, tmp_path, capsys)
        assert err == (f"error [pipeline]: {seg}: bad segmentation entry 0: "
                       "section must not be null or empty, got None")

    @pytest.mark.parametrize(
        "directive, value, line",
        [("geo_local", "nan", 4), ("master_to_ortho", "inf", 3), ("ref_to_master", "-inf", 8)],
    )
    def test_non_finite_registry_value_names_file_and_line(
        self, pipeline_fixture, tmp_path, capsys, directive, value, line
    ):
        reg = Path(pipeline_fixture["registry"])
        lines = reg.read_text().splitlines()
        assert lines[line - 1].startswith(directive + " ")
        tokens = lines[line - 1].split()
        tokens[2] = value
        lines[line - 1] = " ".join(tokens)
        reg.write_text("\n".join(lines) + "\n")
        err = self.fails_with_one_line(pipeline_fixture, tmp_path, capsys)
        assert err == f"error [pipeline]: {reg}: line {line}: {directive} values must be finite"

    def test_non_finite_homography_names_file_and_line(self, pipeline_fixture, tmp_path, capsys):
        log = Path(pipeline_fixture["homographies"])
        lines = log.read_text().splitlines()
        line = next(i for i, text in enumerate(lines, start=1) if text.startswith("7 "))
        tokens = lines[line - 1].split()
        tokens[3] = "nan"
        lines[line - 1] = " ".join(tokens)
        log.write_text("\n".join(lines) + "\n")
        err = self.fails_with_one_line(pipeline_fixture, tmp_path, capsys)
        assert err == f"error [pipeline]: {log}: line {line}: homography row values must be finite"

    @pytest.mark.parametrize(
        "key, value, needle",
        [
            ("fps", "1/0", "Fraction(1, 0)"),
            ("fps", "0", "fps must be > 0"),
            ("frame_width", "0", "frame size must be >= 1, got 0x2160"),
            ("frame_width", "-5", "frame size must be >= 1, got -5x2160"),
            ("frame_height", "0", "frame size must be >= 1, got 3840x0"),
            ("n_frames", "0", "n_frames must be >= 1, got 0"),
            ("n_classes", "0", "n_classes must be >= 1, got 0"),
            ("n_classes", str(2**63), f"n_classes must be <= 2**62, got {2**63}"),
        ],
    )
    def test_bad_sidecar_value_fails_cleanly(
        self, pipeline_fixture, tmp_path, capsys, key, value, needle
    ):
        sidecar = Path(pipeline_fixture["sidecar"])
        lines = [
            text for text in sidecar.read_text().splitlines() if not text.startswith(f"{key}:")
        ]
        sidecar.write_text("\n".join([*lines, f"{key}: {value}"]) + "\n")
        err = self.fails_with_one_line(pipeline_fixture, tmp_path, capsys)
        assert err.startswith(f"error [pipeline]: {sidecar}: bad sidecar value: ")
        assert needle in err

    def test_zero_width_box_on_parked_vehicle(self, tmp_path):
        """A zero-width box carries no shape: the ratio test drops it and the
        parked vehicle keeps the estimate of its other boxes."""
        points = [
            with_box(p, (*p.detection.bbox[:2], 0.0, p.detection.bbox[3]))
            if (p.track_id, p.frame) == (3, 5) else p
            for p in scenario_points()
        ]
        paths = build_pipeline_fixture(tmp_path / "fixture")
        write_tracks_csv(paths["tracks"], points)
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(paths, out)) == 0
        v3 = [r for r in read_rows(out) if r["Vehicle_ID"] == "3"]
        assert len(v3) == 18
        assert {r["Vehicle_Length"] for r in v3} == {"4.36"}

    def test_tiny_box_side_prints_no_warning(self, tmp_path):
        """A box side of 1e-310 gives an infinite length/width ratio on the
        parked vehicle's ratio path: the box is kept, and stderr holds only
        the row count, also outside the test runner's warning filters."""
        points = [
            with_box(p, (*p.detection.bbox[:3], 1e-310))
            if (p.track_id, p.frame) == (3, 7) else p
            for p in scenario_points()
        ]
        paths = build_pipeline_fixture(tmp_path / "fixture")
        write_tracks_csv(paths["tracks"], points)
        out = tmp_path / "out.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "skytraj", *map(str, pipeline_cmd(paths, out))],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stderr) == (0, "exported 38 rows\n")
        v3 = [r for r in read_rows(out) if r["Vehicle_ID"] == "3"]
        assert {r["Vehicle_Length"] for r in v3} == {"4.36"}

    @staticmethod
    def write_far_vehicle(paths, frames):
        """Tracks with vehicle 5 at ``frames`` and at a frame a million
        frames later (the sidecar gives no n_frames), and the homography
        log of all of them."""
        far = 1_000_002
        points = scenario_points() + [
            make_point(k, 5, 1900.0 - drift(k)[0], 1000.0 - drift(k)[1], 180.0, 80.0)
            for k in frames
        ] + [make_point(far, 5, 1900.0, 1000.0, 180.0, 80.0)]
        write_tracks_csv(paths["tracks"], points)
        Path(paths["sidecar"]).write_text(
            f"frame_width: {FRAME_W}\nframe_height: {FRAME_H}\nfps: 30000/1001\n")
        homs = {k: translation(*drift(k)) for k in range(2, 21)}
        write_homography_log({**homs, far: translation(0.0, 0.0)}, paths["homographies"])
        return far

    def test_vehicle_error_names_the_vehicle(self, pipeline_fixture, tmp_path, capsys):
        """A trajectory spanning more than a million frames fails its
        vehicle's kinematics step, by id."""
        paths = pipeline_fixture
        far = self.write_far_vehicle(paths, range(1, 16))  # 16 points: exported
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(paths, out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error [pipeline]: id 5: trajectory spans frames 1 to {far}, "
            "more than 1000000 frames"
        ]
        assert not out.exists()

    def test_short_vehicle_error_does_not_end_the_run(self, pipeline_fixture, tmp_path):
        """A vehicle of at most 15 points is cut before its dimension and
        kinematics steps, so the same error on it is never raised, and the
        export is that of the session without it."""
        paths = pipeline_fixture
        self.write_far_vehicle(paths, (1, 2))  # 3 points: cut
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(paths, out)) == 0
        write_tracks_csv(paths["tracks"], scenario_points())
        without = tmp_path / "without.csv"
        assert run_cli(*pipeline_cmd(paths, without)) == 0
        assert out.read_bytes() == without.read_bytes()

    def test_visibility_computed_once_per_point(self, pipeline_fixture, tmp_path, monkeypatch):
        from skytraj import trackmodel

        calls = []
        original = trackmodel.visible_flags

        def counted(boxes, *args):
            calls.append(len(boxes))
            return original(boxes, *args)

        monkeypatch.setattr(trackmodel, "visible_flags", counted)
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out)) == 0
        # one pass over vehicles 1-3 after the ingest filter drops vehicle 4
        assert calls == [20 + 15 + 18]


    def test_lanes_looked_up_for_exported_rows_only(self, pipeline_fixture, tmp_path, monkeypatch):
        from skytraj import pipeline

        calls = []
        original = pipeline.assign_segment

        def counted(seg, point):
            calls.append(point)
            return original(seg, point)

        monkeypatch.setattr(pipeline, "assign_segment", counted)
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out)) == 0
        # vehicle 2's 15 points are not exported
        assert len(calls) == len(read_rows(out)) == 20 + 18


def _replace_row(path: Path, directive: str, values) -> int:
    """Put ``values`` in place of the numbers of the first line of ``path``
    that starts with ``directive``; returns that line's number."""
    lines = path.read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if text.split()[:1] == [directive])
    lines[line - 1] = " ".join([directive, *map(repr, values)])
    path.write_text("\n".join(lines) + "\n")
    return line


# Entries of the corrupted transform rows: zeros, subnormals, magnitudes
# whose squares or cubes overflow, and plain numbers.
_EDGE_VALUES = [0.0, 1e-310, -1e-310, 1e103, -1e103, 1e200, -1e200, 1.0, -2.5]


@st.composite
def _singular_rows(draw, size: int):
    """The numbers of a transform row whose ``size`` x ``size`` linear part
    is singular (a zero row or column, two equal rows) or, for a
    homography, a translation so large that the map is below the floor."""
    value = st.sampled_from(_EDGE_VALUES)
    m = [[draw(value) for _ in range(size)] for _ in range(size)]
    i, j = draw(st.permutations(range(size)))[:2]
    patterns = ["zero-row", "zero-column", "equal-rows"] + ["translation"] * (size == 3)
    pattern = draw(st.sampled_from(patterns))
    if pattern == "zero-row":
        m[i] = [0.0] * size
    elif pattern == "zero-column":
        for row in m:
            row[i] = 0.0
    elif pattern == "equal-rows":
        m[j] = list(m[i])
    else:
        m = [[1.0, 0.0, draw(st.sampled_from([1e103, -1e103, 1e200, -1e200]))],
             [0.0, 1.0, draw(value)],
             [0.0, 0.0, 1.0]]
    flat = [v for row in m for v in row]
    return flat if size == 3 else flat + [draw(value), draw(value)]


class TestTransformRowsNameFileAndLine:
    """A homography-log or registry row whose transform is singular, or
    overflows on the way to the invertibility floor, exits 1 with one
    error line naming the file and the line."""

    def stabilize(self, paths, tmp_path):
        out = tmp_path / "stab.csv"
        argv = ["stabilize", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
                "--homographies", paths["homographies"], "--output", out]
        return argv, out

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1, 0, 1e103, 0, 1, 0, 0, 0, 1], "matrix below invertibility floor (|det|=1.000e-309)"),
            ([1, 0, 1e200, 0, 1, 0, 0, 0, 1], "matrix below invertibility floor (|det|=0.000e+00)"),
            ([0] * 9, "matrix below invertibility floor (|det|=0.000e+00)"),
            ([1, 2, 3, 2, 4, 6, 0, 0, 1], "matrix below invertibility floor (|det|=0.000e+00)"),
            # numpy's det takes the log of the zero pivot and warns
            ([0, 0, 0, 0, 0, 0, 1e-310, 1, 1], "matrix below invertibility floor (|det|=0.000e+00)"),
        ],
        ids=["overflow", "huge", "zero", "singular", "zero-pivot"],
    )
    def test_homography_log_row(self, pipeline_fixture, tmp_path, capsys, values, message):
        log = Path(pipeline_fixture["homographies"])
        line = _replace_row(log, "7", values)
        argv, out = self.stabilize(pipeline_fixture, tmp_path)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error [stabilize]: {log}: line {line}: {message}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "directive, values, message",
        [
            ("master_to_ortho", [0] * 9, "matrix below invertibility floor (|det|=0.000e+00)"),
            ("ref_to_master", [1, 0, 1e103, 0, 1, 0, 0, 0, 1],
             "matrix below invertibility floor (|det|=1.000e-309)"),
            ("geo_local", [1, 2, 2, 4, 300, 400], "geotransform linear part is singular"),
            ("geo_wgs", [1e200, 1e200, 1e200, 1e200, 0, 0], "geotransform linear part is singular"),
        ],
        ids=["master-zero", "video-overflow", "local-singular", "wgs-overflow"],
    )
    def test_registry_row(self, pipeline_fixture, tmp_path, capsys, directive, values, message):
        reg = Path(pipeline_fixture["registry"])
        line = _replace_row(reg, directive, values)
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error [pipeline]: {reg}: line {line}: {message}"
        ]
        assert not out.exists()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_singular_row(self, pipeline_fixture, tmp_path, data):
        where = data.draw(st.sampled_from(
            ["log", "master_to_ortho", "geo_local", "geo_wgs", "ref_to_master"]))
        size = 2 if where.startswith("geo_") else 3
        values = data.draw(_singular_rows(size))
        if where == "log":
            path = Path(pipeline_fixture["homographies"])
            argv, out = self.stabilize(pipeline_fixture, tmp_path)
            command, directive = "stabilize", "7"
        else:
            path = Path(pipeline_fixture["registry"])
            out = tmp_path / "out.csv"
            argv = pipeline_cmd(pipeline_fixture, out)
            command, directive = "pipeline", where
        original = path.read_text()
        try:
            line = _replace_row(path, directive, values)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_cli(*argv) == 1
        finally:
            path.write_text(original)
        (message,) = err.getvalue().splitlines()
        prefix = f"error [{command}]: {path}: line {line}: "
        assert message.startswith(prefix)
        assert re.fullmatch(
            r"matrix below invertibility floor \(\|det\|=\d\.\d{3}e[+-]\d+\)"
            r"|geotransform linear part is singular",
            message[len(prefix):],
        )
        assert not out.exists()


class TestScaleFreeTransforms:
    """The invertibility floors and the homography's m[2,2] test are
    relative: a transform row means the same map at any scale."""

    def stabilized(self, paths, tmp_path, values) -> bytes:
        """The stabilize output with the homography-log row of frame 7
        holding ``values``."""
        _replace_row(Path(paths["homographies"]), "7", values)
        out = tmp_path / "stab.csv"
        assert run_cli("stabilize", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
                       "--homographies", paths["homographies"], "--output", out) == 0
        return out.read_bytes()

    def test_tiny_multiple_of_the_identity(self, pipeline_fixture, tmp_path):
        identity = self.stabilized(pipeline_fixture, tmp_path, [1, 0, 0, 0, 1, 0, 0, 0, 1])
        tiny = [1e-110, 0, 0, 0, 1e-110, 0, 0, 0, 1e-110]
        assert self.stabilized(pipeline_fixture, tmp_path, tiny) == identity

    @pytest.mark.parametrize("k", [-300, -37, -1, 1, 52, 300])
    def test_row_scaled_by_a_power_of_two(self, pipeline_fixture, tmp_path, k):
        log = Path(pipeline_fixture["homographies"])
        (row,) = [line.split()[1:] for line in log.read_text().splitlines()
                  if line.split()[:1] == ["7"]]
        values = [float(v) for v in row]
        want = self.stabilized(pipeline_fixture, tmp_path, values)
        assert self.stabilized(pipeline_fixture, tmp_path, [v * 2.0**k for v in values]) == want

    def test_small_scale_geo_wgs(self, pipeline_fixture, tmp_path):
        _replace_row(Path(pipeline_fixture["registry"]), "geo_wgs",
                     [3e-08, 0, 0, 3e-08, 37.38, 126.64])
        out = tmp_path / "out.csv"
        assert run_cli(*pipeline_cmd(pipeline_fixture, out)) == 0
        rows = read_rows(out)
        assert rows
        assert all(37.38 <= float(r["Latitude"]) < 37.381 for r in rows)
        assert all(126.64 <= float(r["Longitude"]) < 126.641 for r in rows)


def test_pipeline_does_not_import_numpy_ma(pipeline_fixture, tmp_path):
    """The per-vehicle stage computes its quartile without `np.percentile`,
    whose first call imports `numpy.ma` (about 2 MB of peak RSS)."""
    out = tmp_path / "songdo.csv"
    script = (
        "import sys\n"
        "from skytraj.cli import main\n"
        f"assert main({[str(a) for a in pipeline_cmd(pipeline_fixture, out)]!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert len(out.read_text().splitlines()) == 1 + 38


def test_cli_import_loads_no_process_pool():
    """Only `bench --jobs N` with N > 1 needs a worker pool, so importing the
    CLI leaves `multiprocessing` and the process executor unloaded."""
    script = (
        "import sys\n"
        "import skytraj.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


class TestStabilizeCommand:
    def test_estimates_from_correspondences(self, tmp_path):
        points = [p for p in scenario_points() if p.frame <= 5 and p.track_id == 1]
        tracks_csv = tmp_path / "tracks.csv"
        sidecar = tmp_path / "video.yaml"
        write_tracks_csv(tracks_csv, points)
        write_sidecar(sidecar, n_frames=5)
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir)
        out = tmp_path / "stab.csv"
        hom_log = tmp_path / "homs.txt"
        rc = run_cli(
            "stabilize",
            "--tracks", tracks_csv,
            "--sidecar", sidecar,
            "--correspondences", corr_dir,
            "--snn-ratio", "0.9",
            "--mask-margin", "0.15",
            "--output", out,
            "--homography-log", hom_log,
            "--seed", "11",
        )
        assert rc == 0
        homs = load_homography_log(hom_log)
        for k in range(2, 6):
            dx, dy = drift(k)
            expect = translation(dx, dy)
            assert np.allclose(homs[k].m, expect.m, atol=1e-4)
        stab = load_tracks(
            out,
            VideoSidecar(FRAME_W, FRAME_H, fps=tracks_fps(), n_frames=5),
            require_unit_range=False,
        )
        for p in stab.points:
            ref_x = 600.0 + 25.0 * (p.frame - 1)
            cx, cy, _, _ = p.detection.bbox
            assert cx * FRAME_W == pytest.approx(ref_x, abs=1e-3)
            assert cy * FRAME_H == pytest.approx(1080.0, abs=1e-3)
        with open(out, newline="") as fh:
            assert {row["visible"] for row in csv.DictReader(fh)} == {"1"}

    def test_identity_homographies_leave_tracks_unchanged(self, tmp_path):
        points = [p for p in scenario_points() if p.track_id == 1]
        tracks_csv = tmp_path / "tracks.csv"
        sidecar = tmp_path / "video.yaml"
        write_tracks_csv(tracks_csv, points)
        write_sidecar(sidecar)
        from skytraj.dataio import write_homography_log
        from skytraj.geometry import Homography as H

        hom_log = tmp_path / "identity.txt"
        write_homography_log({k: H.identity() for k in range(2, 21)}, hom_log)
        out = tmp_path / "stab.csv"
        rc = run_cli(
            "stabilize",
            "--tracks", tracks_csv,
            "--sidecar", sidecar,
            "--homographies", hom_log,
            "--output", out,
        )
        assert rc == 0
        stab = load_tracks(out, VideoSidecar(FRAME_W, FRAME_H, fps=tracks_fps()))
        assert [p.detection.bbox for p in stab.points] == [
            p.detection.bbox for p in sorted(points, key=lambda q: q.frame)
        ]

    def test_missing_frame_file(self, tmp_path, capsys):
        points = [p for p in scenario_points() if p.frame <= 5 and p.track_id == 1]
        tracks_csv = tmp_path / "tracks.csv"
        sidecar = tmp_path / "video.yaml"
        write_tracks_csv(tracks_csv, points)
        write_sidecar(sidecar, n_frames=5)
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir, frames=[2, 3, 5])
        rc = run_cli(
            "stabilize",
            "--tracks", tracks_csv,
            "--sidecar", sidecar,
            "--correspondences", corr_dir,
            "--output", tmp_path / "stab.csv",
        )
        assert rc == 1
        assert "frame 4" in capsys.readouterr().err

    def test_non_finite_correspondence_fails_cleanly(self, tmp_path, capsys):
        points = [p for p in scenario_points() if p.frame <= 5 and p.track_id == 1]
        tracks_csv = tmp_path / "tracks.csv"
        sidecar = tmp_path / "video.yaml"
        write_tracks_csv(tracks_csv, points)
        write_sidecar(sidecar, n_frames=5)
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir)
        frame5 = corr_dir / "5.csv"
        lines = frame5.read_text().splitlines()
        for i in range(1, len(lines), 3):  # every third match
            lines[i] = "nan" + lines[i][lines[i].index(","):]
        frame5.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stab.csv"
        rc = run_cli(
            "stabilize",
            "--tracks", tracks_csv,
            "--sidecar", sidecar,
            "--correspondences", corr_dir,
            "--output", out,
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error [stabilize]: ")
        assert f"{frame5}: line 2: match values must be finite" in err[0]
        assert not out.exists()

    def test_overflowing_point_spread_fails_cleanly(self, tmp_path, capsys):
        """Coordinates near 1e200 are finite, but their spread overflows:
        no minimal sample can be normalized, so the frame has no model."""
        points = [p for p in scenario_points() if p.frame <= 5 and p.track_id == 1]
        tracks_csv = tmp_path / "tracks.csv"
        sidecar = tmp_path / "video.yaml"
        write_tracks_csv(tracks_csv, points)
        write_sidecar(sidecar, n_frames=5)
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir)
        frame2 = corr_dir / "2.csv"
        lines = frame2.read_text().splitlines()
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[:4] = [repr(float(c) * 1e200) for c in cells[:4]]
            lines[i] = ",".join(cells)
        frame2.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stab.csv"
        rc = run_cli(
            "stabilize",
            "--tracks", tracks_csv,
            "--sidecar", sidecar,
            "--correspondences", corr_dir,
            "--output", out,
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error [stabilize]: frame 2: no consensus of >= 4 inliers in 5000 iterations"]
        assert not out.exists()

    def test_missing_distances_name_file_and_line(self, pipeline_fixture, tmp_path, capsys):
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir, frames=range(2, 21))
        frame5 = corr_dir / "5.csv"
        lines = frame5.read_text().splitlines()
        lines[84] = lines[84].rsplit(",", 2)[0] + ",,"  # line 85: no d1, d2
        frame5.write_text("\n".join(lines) + "\n")
        rc = run_cli(
            "stabilize",
            "--tracks", pipeline_fixture["tracks"],
            "--sidecar", pipeline_fixture["sidecar"],
            "--correspondences", corr_dir,
            "--snn-ratio", "0.9",
            "--output", tmp_path / "stab.csv",
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        # earlier rows of the file fall inside vehicle masks and are dropped
        # before the ratio test; the error still counts lines of the file
        assert err == [
            f"error [stabilize]: {frame5}: line 85: match lacks descriptor distances"
        ]

    @pytest.mark.parametrize(
        "flag, value, needle",
        [
            ("--snn-ratio", "2", "snn_ratio"),
            ("--snn-ratio", "0", "snn_ratio"),
            ("--mask-margin", "-0.1", "mask_margin"),
            ("--downscale", "1.5", "downscale"),
            ("--downscale", "0", "downscale"),
            ("--mask-margin", "nan", "mask_margin"),
            ("--reproj-threshold", "nan", "reproj_threshold"),
        ],
    )
    def test_bad_parameter_fails_cleanly(self, tmp_path, capsys, flag, value, needle):
        points = [p for p in scenario_points() if p.frame <= 5 and p.track_id == 1]
        tracks_csv = tmp_path / "tracks.csv"
        sidecar = tmp_path / "video.yaml"
        write_tracks_csv(tracks_csv, points)
        write_sidecar(sidecar, n_frames=5)
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir)
        out = tmp_path / "stab.csv"
        rc = run_cli(
            "stabilize",
            "--tracks", tracks_csv,
            "--sidecar", sidecar,
            "--correspondences", corr_dir,
            flag, value,
            "--output", out,
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error [stabilize]: ")
        assert needle in err[0]
        assert not out.exists()


def tracks_fps():
    from fractions import Fraction

    return Fraction(30000, 1001)


class TestBenchCommand:
    def test_deterministic_results_csv(self, tmp_path):
        outs = [tmp_path / f"r{i}.csv" for i in range(2)]
        for out in outs:
            rc = run_cli(
                "bench",
                "--scenes", "3",
                "--trials", "2",
                "--noise-sigma", "0",
                "--outlier-fraction", "0",
                "--hea-epsilon", "1.0",
                "--seed", "77",
                "--output", out,
            )
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        lines = outs[0].read_text().strip().split("\n")
        assert lines[0] == "snn_ratio,downscale,reproj_threshold,n_points,hea,miou,trials"
        cells = lines[1].split(",")
        assert cells[4] == "1.0"  # clean recovery
        assert cells[6] == "6"  # 3 scenes x 2 trials
        timing = tmp_path / "r0_timing.csv"
        assert timing.exists()
        assert timing.read_text().splitlines()[0].endswith("mean_time_ms")

    @pytest.mark.parametrize(
        "config, message",
        [
            ("bench: {scenes: 1.7}", "bench.scenes must be an integer, got 1.7"),
            ("bench: {trials_per_scene: 1.9}",
             "bench.trials_per_scene must be an integer, got 1.9"),
            ("bench: {max_iterations: 10.5}", "bench.max_iterations must be an integer, got 10.5"),
            ("bench: {scenes: true}", "bench.scenes must be an integer, got True"),
            ("jobs: 1.5", "jobs must be an integer, got 1.5"),
            ("seed: 2.5", "seed must be an integer, got 2.5"),
            ("jobs: two", "jobs must be an integer, got 'two'"),
        ],
        ids=["scenes", "trials", "max-iterations", "bool", "jobs", "seed", "jobs-text"],
    )
    def test_fractional_integer_fails_cleanly(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        out = tmp_path / "out.csv"
        assert run_cli("bench", "--config", cfg, "--output", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error [bench]: {message}"]
        assert not out.exists()

    def test_whole_float_integer_is_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("bench: {scenes: 1.0, trials_per_scene: 1}\njobs: 1.0\n")
        out = tmp_path / "out.csv"
        assert run_cli("bench", "--config", cfg, "--output", out) == 0
        assert out.read_text().splitlines()[1].split(",")[-1] == "1"

    @pytest.mark.parametrize(
        "flags, config",
        [(["--jobs", "-3"], None), (["--jobs", "0"], None), ([], "jobs: 0"), ([], "jobs: -1")],
        ids=["flag-negative", "flag-zero", "config-zero", "config-negative"],
    )
    def test_jobs_below_one_fails_cleanly(self, tmp_path, capsys, flags, config):
        args = ["bench", "--scenes", "1", "--trials", "1", *flags]
        if config is not None:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(config + "\n")
            args += ["--config", cfg]
        out = tmp_path / "out.csv"
        assert run_cli(*args, "--output", out) == 1
        assert capsys.readouterr().err.splitlines() == ["error [bench]: jobs must be >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("point_counts: [4]", "point_counts must be integers >= 8, got 4"),
            ("point_counts: [40.5]", "point_counts must be integers >= 8, got 40.5"),
            ("reproj_thresholds: [-1]", "reproj_thresholds must be > 0, got -1"),
            ("snn_ratios: [2]", "snn_ratios must be null or in (0, 1], got 2"),
            ("snn_ratios: [0]", "snn_ratios must be null or in (0, 1], got 0"),
            ("downscales: [1.5]", "downscales must be in (0, 1], got 1.5"),
            ("downscales: [0]", "downscales must be in (0, 1], got 0"),
            ("downscales: [x]", "downscales must be in (0, 1], got 'x'"),
            ("noise_sigma: -1", "noise_sigma must be >= 0"),
            ("noise_sigma: .nan", "noise_sigma must be >= 0"),
            ("hea_epsilon: .nan", "hea_epsilon must be > 0"),
            ("rot_max_deg: .nan", "distortion ranges must be >= 0"),
            ("persp_max: .nan", "distortion ranges must be >= 0"),
            ("rot_max_deg: .inf", "rot_max_deg gives a draw interval that is not finite"),
            ("rot_max_deg: 1e308", "rot_max_deg gives a draw interval that is not finite"),
            ("persp_max: .inf", "persp_max gives a draw interval that is not finite"),
            ("scale_max_frac: 1e308", "scale_max_frac gives a draw interval that is not finite"),
            ("scene_seed: -1", "scene_seed must be >= 0"),
        ],
    )
    def test_bad_grid_value_fails_cleanly(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"bench: {{scenes: 1, trials_per_scene: 1, {entry}}}\n")
        out = tmp_path / "out.csv"
        assert run_cli("bench", "--config", cfg, "--output", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error [bench]: bench: {message}"]
        assert not out.exists()


def write_comparison_fixture(tmp_path, probe_speed=40.0, offset=5.0):
    candidate = tmp_path / "candidate.csv"
    with open(candidate, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "x", "y", "speed"])
        for i in range(101):
            writer.writerow([i + 1, float(i), 0.0, 40.0])
    probe = tmp_path / "probe.csv"
    with open(probe, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y", "speed"])
        for i in range(40):
            writer.writerow([0.1 * i, i + 0.3, offset, probe_speed])
    return probe, candidate


class TestCompareCommand:
    def test_offset_parallel_path(self, tmp_path):
        probe, candidate = write_comparison_fixture(tmp_path)
        out = tmp_path / "report.csv"
        rc = run_cli(
            "compare", "--probe", probe, "--candidate", candidate,
            "--group", "E", "--output", out,
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:6] == [
            "group", "samples", "pos_dev_mean_m", "pos_dev_std_m",
            "speed_diff_mean_kmh", "speed_diff_std_kmh",
        ]
        row = dict(zip(header, lines[1].split(",")))
        assert row["group"] == "E"
        assert row["pos_dev_mean_m"] == "5.000"
        assert row["pos_dev_std_m"] == "0.000"
        assert row["speed_diff_mean_kmh"] == "0.000"

    def test_identical_path_zero_deviation(self, tmp_path):
        probe, candidate = write_comparison_fixture(tmp_path, offset=0.0)
        out = tmp_path / "report.csv"
        assert run_cli(
            "compare", "--probe", probe, "--candidate", candidate, "--output", out
        ) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[2] == "0.000"

    def test_slow_probe_leaves_speed_empty(self, tmp_path, capsys):
        probe, candidate = write_comparison_fixture(tmp_path, probe_speed=0.5)
        out = tmp_path / "report.csv"
        assert run_cli(
            "compare", "--probe", probe, "--candidate", candidate, "--output", out
        ) == 0
        header, row = out.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["speed_diff_mean_kmh"] == ""
        assert cells["pos_dev_mean_m"] == "5.000"
        assert "speed" in capsys.readouterr().err

    def test_speed_floor_flag(self, tmp_path):
        probe, candidate = write_comparison_fixture(tmp_path, probe_speed=0.5)
        out = tmp_path / "report.csv"
        assert run_cli(
            "compare", "--probe", probe, "--candidate", candidate, "--speed-floor", "0.4",
            "--output", out,
        ) == 0
        header, row = out.read_text().strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["speed_diff_mean_kmh"] != ""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty-probe", "probe trajectory has no points"),
            ("one-candidate", "candidate trajectory needs >= 2 points, got 1"),
            ("all-skipped",
             "all 40 probe points skipped: their nearest candidate points coincide"),
        ],
    )
    def test_nothing_to_compare_fails_cleanly(self, tmp_path, capsys, case, message):
        probe, candidate = write_comparison_fixture(tmp_path)
        if case == "empty-probe":
            probe.write_text("t,x,y,speed\n")
        elif case == "one-candidate":
            candidate.write_text("frame,x,y,speed\n1,0.0,0.0,40.0\n")
        else:  # every candidate point repeated at the next frame
            candidate.write_text("frame,x,y,speed\n" + "".join(
                f"{2 * i + k},{float(i)},0.0,40.0\n" for i in range(101) for k in (1, 2)))
        out = tmp_path / "report.csv"
        rc = run_cli("compare", "--probe", probe, "--candidate", candidate, "--output", out)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error [compare]: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [("3,1.0,0.0,40.0", "duplicate frame 3"),
         (f"{2**62 + 1},1.0,0.0,40.0", f"frame {2**62 + 1} beyond +-2**62")],
        ids=["repeated", "beyond-int64"],
    )
    def test_bad_candidate_frame_fails_cleanly(self, tmp_path, capsys, row, message):
        probe, candidate = write_comparison_fixture(tmp_path)
        lines = candidate.read_text().splitlines()
        lines.insert(6, row)  # line 7
        candidate.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        rc = run_cli("compare", "--probe", probe, "--candidate", candidate, "--output", out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error [compare]: {candidate}: line 7: {message}"]
        assert not out.exists()

    def test_nan_speed_floor_fails_cleanly(self, tmp_path, capsys):
        probe, candidate = write_comparison_fixture(tmp_path)
        out = tmp_path / "report.csv"
        rc = run_cli("compare", "--probe", probe, "--candidate", candidate,
                     "--speed-floor", "nan", "--output", out)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error [compare]: kinematics: speed_floor_kmh must not be NaN"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("compare", "--seed"), ("dims", "--seed"), ("kinematics", "--seed"),
         ("georef", "--seed"), ("stabilize", "--jobs"), ("compare", "--jobs"),
         ("dims", "--jobs"), ("kinematics", "--jobs"), ("georef", "--jobs")],
    )
    def test_flag_without_effect_is_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, flag, "3")
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "kinematics"])
    def test_speed_floor_is_a_compare_flag_only(self, command, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--speed-floor", "50")
        assert "unrecognized arguments: --speed-floor 50" in capsys.readouterr().err


class TestAuxCommands:
    def test_dims_command(self, pipeline_fixture, tmp_path):
        stab_out = tmp_path / "stab.csv"
        rc = run_cli(
            "stabilize",
            "--tracks", pipeline_fixture["tracks"],
            "--sidecar", pipeline_fixture["sidecar"],
            "--homographies", pipeline_fixture["homographies"],
            "--output", stab_out,
        )
        assert rc == 0
        out = tmp_path / "dims.csv"
        rc = run_cli(
            "dims",
            "--tracks", pipeline_fixture["tracks"],
            "--stabilized", stab_out,
            "--sidecar", pipeline_fixture["sidecar"],
            "--registry", pipeline_fixture["registry"],
            "--video-id", "L1",
            "--output", out,
        )
        assert rc == 0
        rows = {r["id"]: r for r in read_rows(out)}
        assert rows["1"]["path"] == "azimuth_filtered"
        assert float(rows["1"]["length_m"]) == pytest.approx(4.905, abs=0.01)
        assert rows["3"]["path"] == "ratio_filtered"
        assert rows["2"]["path"] in ("azimuth_filtered", "ratio_filtered", "none")

    def test_kinematics_command(self, tmp_path):
        traj = tmp_path / "local.csv"
        with open(traj, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "frame", "x", "y"])
            for k in range(1, 31):
                writer.writerow([1, k, 0.5 * (k - 1), 0.0])
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 0
        rows = read_rows(out)
        assert rows[0]["speed_kmh"] == ""  # first frame undefined
        expected = 0.5 * 30000 / 1001 * 3.6
        for r in rows[1:]:
            assert float(r["speed_kmh"]) == pytest.approx(expected, abs=0.1)

    def test_kinematics_rows_by_ascending_id(self, tmp_path):
        traj = tmp_path / "local.csv"
        traj.write_text("id,frame,x,y\n" + "".join(
            f"{vid},{k},{k},0\n" for k in range(1, 4) for vid in (9, 2, 5)
        ))
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 0
        assert [(r["id"], r["frame"]) for r in read_rows(out)] == [
            (vid, str(k)) for vid in ("2", "5", "9") for k in range(1, 4)
        ]

    @pytest.mark.parametrize("sigma", ["1e20", "1e7", "33334"])
    def test_huge_sigma_fails_cleanly(self, tmp_path, capsys, sigma):
        # a kernel radius round(3 * sigma) above 100000 frames is refused
        # before any smoothing, and no output file is written
        traj = tmp_path / "local.csv"
        traj.write_text("id,frame,x,y\n" + "".join(f"1,{k},{k},0\n" for k in range(1, 31)))
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--sigma", sigma, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error [kinematics]: kinematics: sigma must be positive, "
                       "with round(3 * sigma) <= 100000 frames"]
        assert not out.exists()

    def test_georef_command(self, pipeline_fixture, tmp_path):
        out = tmp_path / "geo.csv"
        rc = run_cli(
            "georef",
            "--tracks", pipeline_fixture["tracks"],
            "--sidecar", pipeline_fixture["sidecar"],
            "--registry", pipeline_fixture["registry"],
            "--segmentation", pipeline_fixture["segmentation"],
            "--video-id", "L1",
            "--output", out,
        )
        assert rc == 0
        rows = read_rows(out)
        assert rows[0]["ortho_x"] != ""
        assert {r["id"] for r in rows} == {"1", "2", "3", "4"}

    @pytest.mark.parametrize("command", ["dims", "kinematics", "georef"])
    def test_unwritable_output_names_the_file(self, pipeline_fixture, tmp_path, capsys, command):
        traj = tmp_path / "local.csv"
        traj.write_text("id,frame,x,y\n" + "".join(f"1,{k},{k},0\n" for k in range(1, 4)))
        fixture = ["--sidecar", pipeline_fixture["sidecar"],
                   "--registry", pipeline_fixture["registry"], "--video-id", "L1"]
        inputs = {
            "dims": ["--tracks", pipeline_fixture["tracks"],
                     "--stabilized", pipeline_fixture["tracks"], *fixture],
            "kinematics": ["--input", traj],
            "georef": ["--tracks", pipeline_fixture["tracks"], *fixture],
        }[command]
        out = tmp_path / "missing" / "out.csv"
        assert run_cli(command, *inputs, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error [{command}]: cannot write {out}: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trajectory_fails_cleanly(self, tmp_path, capsys, value):
        traj = tmp_path / "local.csv"
        rows = [f"1,{k},{0.5 * (k - 1)},0.0" for k in range(1, 31)]
        rows[9] = f"1,10,{value},0.0"
        traj.write_text("id,frame,x,y\n" + "\n".join(rows) + "\n")
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error [kinematics]: {traj}: line 11: x={float(value)} is not finite"]
        assert not out.exists()

    def test_huge_finite_trajectory_writes_every_digit(self, tmp_path, capsys):
        traj = tmp_path / "local.csv"
        traj.write_text("id,frame,x,y\n1,1,0,0\n1,2,1e300,0\n1,3,-1e300,0\n")
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 0
        assert capsys.readouterr().err == ""
        rows = read_rows(out)
        assert [r["frame"] for r in rows] == ["1", "2", "3"]
        speed = float(rows[2]["speed_ms"]) * 3.6
        assert float(rows[2]["speed_kmh"]) == pytest.approx(speed, rel=1e-15)
        assert len(rows[2]["speed_kmh"].split(".")[0]) == 303  # ~2.2e302 km/h

    def test_overflowing_speed_fails_cleanly(self, tmp_path, capsys):
        # the step from 1e308 to -1e308 overflows to an infinite speed
        traj = tmp_path / "local.csv"
        traj.write_text("id,frame,x,y\n1,1,0,0\n1,2,1e308,0\n1,3,-1e308,0\n")
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error [kinematics]: id 1: cannot write inf as a fixed-point number"]
        assert not out.exists()

    def test_span_beyond_a_million_frames_fails_cleanly(self, tmp_path, capsys):
        traj = tmp_path / "local.csv"
        traj.write_text("id,frame,x,y\n1,1,0,0\n1,1000000000000,5,0\n")
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error [kinematics]: id 1: trajectory spans frames 1 to 1000000000000, "
                       "more than 1000000 frames"]
        assert not out.exists()

    @pytest.mark.parametrize("frame", [2**62 + 1, -(2**62) - 1, 10**30, -(2**63), 2**63])
    def test_frame_beyond_int64_columns_fails_cleanly(self, tmp_path, capsys, frame):
        traj = tmp_path / "local.csv"
        traj.write_text(f"id,frame,x,y\n1,1,0,0\n1,{frame},5,0\n")
        out = tmp_path / "kin.csv"
        assert run_cli("kinematics", "--input", traj, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error [kinematics]: {traj}: line 3: frame {frame} beyond +-2**62"]

    @pytest.mark.parametrize("which", ["probe", "candidate"])
    def test_non_finite_comparison_input_fails_cleanly(self, tmp_path, capsys, which):
        probe, candidate = write_comparison_fixture(tmp_path)
        path = probe if which == "probe" else candidate
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"  # line 6: speed
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        rc = run_cli("compare", "--probe", probe, "--candidate", candidate, "--output", out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error [compare]: {path}: line 6: speed=nan is not finite"]
        assert not out.exists()

    def test_unreadable_input_fails_cleanly(self, tmp_path, capsys):
        rc = run_cli(
            "kinematics", "--input", tmp_path / "nope.csv",
            "--output", tmp_path / "out.csv",
        )
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err


def _failing_input(kind, fixture, tmp_path):
    """(command, argv, file) for a run that reads ``file`` as a ``kind`` input."""
    out = tmp_path / "out.csv"
    if kind in ("local", "probe", "candidate"):
        if kind == "local":
            traj = tmp_path / "local.csv"
            traj.write_text("id,frame,x,y\n" + "".join(f"1,{k},{k},0\n" for k in range(1, 4)))
            return "kinematics", ["kinematics", "--input", traj, "--output", out], traj
        probe, candidate = write_comparison_fixture(tmp_path)
        argv = ["compare", "--probe", probe, "--candidate", candidate, "--output", out]
        return "compare", argv, probe if kind == "probe" else candidate
    if kind == "config":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("ingest:\n  score_min: 0.25\n")
        return "pipeline", pipeline_cmd(fixture, out, ["--config", cfg]), cfg
    if kind == "correspondences":
        corr_dir = tmp_path / "corrs"
        write_correspondence_fixture(corr_dir, frames=range(2, 21))
        argv = pipeline_cmd(fixture, out)
        at = argv.index("--homographies")
        argv[at:at + 2] = ["--correspondences", corr_dir]
        return "pipeline", argv, corr_dir / "2.csv"
    return "pipeline", pipeline_cmd(fixture, out), Path(fixture[kind])


INPUT_KINDS = ["tracks", "sidecar", "registry", "segmentation", "homographies", "config",
               "correspondences", "local", "probe", "candidate"]


class TestInputFailsCleanly:
    """An input file that is not UTF-8, or a CSV field over the csv module's
    size limit, ends the run with exit 1, one ``error [cmd]: <path>: line N:``
    line and no output file."""

    def fails_with(self, command, argv, tmp_path, capsys) -> str:
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert not (tmp_path / "out.csv").exists()
        return err[0]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_non_utf8_byte(self, pipeline_fixture, tmp_path, capsys, kind):
        command, argv, path = _failing_input(kind, pipeline_fixture, tmp_path)
        data = path.read_bytes()
        at = data.find(b"\n") + 1  # start of line 2, or of a one-line file
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
        line = data[:at].count(b"\n") + 1
        assert self.fails_with(command, argv, tmp_path, capsys) == (
            f"error [{command}]: {path}: line {line}: not UTF-8 text: 'utf-8' codec "
            f"can't decode byte 0xe9 in position {at}: invalid continuation byte"
        )

    @pytest.mark.skipif(not Path("/proc/self/mem").exists(), reason="needs /proc/self/mem")
    @pytest.mark.parametrize(
        "argv",
        [["pipeline", "--config", "/proc/self/mem"], ["kinematics", "--input", "/proc/self/mem"]],
        ids=["config", "trajectory"],
    )
    def test_read_error_names_the_file(self, tmp_path, capsys, argv):
        """/proc/self/mem opens but fails on read."""
        err = self.fails_with(argv[0], [*argv, "--output", tmp_path / "out.csv"], tmp_path, capsys)
        assert err.startswith(f"error [{argv[0]}]: cannot read /proc/self/mem: ")

    @pytest.mark.parametrize("kind", ["tracks", "correspondences"])
    def test_oversized_csv_field(self, pipeline_fixture, tmp_path, capsys, kind):
        command, argv, path = _failing_input(kind, pipeline_fixture, tmp_path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "1" * (csv.field_size_limit() + 1)
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert self.fails_with(command, argv, tmp_path, capsys) == (
            f"error [{command}]: {path}: line 3: bad CSV: field larger than field limit "
            f"({csv.field_size_limit()})"
        )

    @pytest.mark.parametrize(
        "key, value",
        [("frame_width", "3840.9"), ("frame_height", "true"), ("n_frames", "20.5"),
         ("n_classes", "false"), ("frame_width", ".inf")],
    )
    def test_non_integral_sidecar_value(self, pipeline_fixture, tmp_path, capsys, key, value):
        sidecar = Path(pipeline_fixture["sidecar"])
        text = "".join(
            line for line in sidecar.read_text().splitlines(keepends=True)
            if not line.startswith(f"{key}:")
        )
        sidecar.write_text(f"{text}{key}: {value}\n")
        out = tmp_path / "out.csv"
        err = self.fails_with("pipeline", pipeline_cmd(pipeline_fixture, out), tmp_path, capsys)
        assert err == (
            f"error [pipeline]: {sidecar}: bad sidecar value: {key} must be an integer, "
            f"got {yaml.safe_load(value)!r}"
        )

    @pytest.mark.parametrize("value", ['"1920"', "1920.0", "1920"])
    def test_integral_sidecar_value_is_accepted(self, pipeline_fixture, tmp_path, value):
        sidecar = Path(pipeline_fixture["sidecar"])
        text = sidecar.read_text().replace(f"frame_width: {FRAME_W}", f"frame_width: {value}")
        sidecar.write_text(text)
        assert dataio.load_sidecar(sidecar).frame_width == 1920

    def test_dims_with_a_vehicle_missing_from_the_stabilized_file(
        self, pipeline_fixture, tmp_path, capsys
    ):
        stab = tmp_path / "stab.csv"
        assert run_cli(
            "stabilize", "--tracks", pipeline_fixture["tracks"],
            "--sidecar", pipeline_fixture["sidecar"],
            "--homographies", pipeline_fixture["homographies"], "--output", stab,
        ) == 0
        lines = stab.read_text().splitlines()
        kept = [lines[0]] + [line for line in lines[1:] if line.split(",")[1] != "1"]
        assert len(kept) < len(lines)
        stab.write_text("\n".join(kept) + "\n")
        argv = ["dims", "--tracks", pipeline_fixture["tracks"], "--stabilized", stab,
                "--sidecar", pipeline_fixture["sidecar"],
                "--registry", pipeline_fixture["registry"], "--video-id", "L1",
                "--output", tmp_path / "out.csv"]
        err = self.fails_with("dims", argv, tmp_path, capsys)
        assert err == f"error [dims]: {stab}: no points for vehicle 1"


class TestStagesMatchPipeline:
    GEOREF_CELLS = {
        "ortho_x": "Ortho_X", "ortho_y": "Ortho_Y", "local_x": "Local_X",
        "local_y": "Local_Y", "latitude": "Latitude", "longitude": "Longitude",
        "section": "Road_Section", "lane": "Lane_Number",
    }
    DIMS_CELLS = {"length_m": "Vehicle_Length", "width_m": "Vehicle_Width"}

    @pytest.mark.parametrize("margin", [[], ["--visibility-margin", "700"]],
                             ids=["default-margin", "wide-margin"])
    def test_georef_and_dims_cells_equal_the_export(self, pipeline_fixture, tmp_path, margin):
        """``stabilize`` then ``georef`` and ``dims`` write, for every exported
        vehicle, the cells the ``pipeline`` export holds. A 700 px margin
        hides part of vehicle 1 and all of vehicle 3 from the estimator."""
        paths = pipeline_fixture
        export, stab = tmp_path / "export.csv", tmp_path / "stab.csv"
        geo, dims = tmp_path / "geo.csv", tmp_path / "dims.csv"
        common = ["--sidecar", paths["sidecar"], "--registry", paths["registry"],
                  "--video-id", "L1"]
        assert run_cli(*pipeline_cmd(paths, export, margin)) == 0
        assert run_cli(
            "stabilize", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
            "--homographies", paths["homographies"], "--output", stab,
        ) == 0
        assert run_cli(
            "georef", "--tracks", stab, "--segmentation", paths["segmentation"], *common,
            "--output", geo,
        ) == 0
        assert run_cli(
            "dims", "--tracks", paths["tracks"], "--stabilized", stab, *common, *margin,
            "--output", dims,
        ) == 0
        exported: dict[str, list[dict]] = {}
        for row in read_rows(export):
            exported.setdefault(row["Vehicle_ID"], []).append(row)
        georef: dict[str, list[dict]] = {}
        for row in read_rows(geo):  # sorted by (id, frame)
            georef.setdefault(row["id"], []).append(row)
        dims_rows = {row["id"]: row for row in read_rows(dims)}
        assert sum(map(len, exported.values())) == 38
        for vid, rows in exported.items():
            assert len(georef[vid]) == len(rows)  # the export keeps every point
            for got, want in zip(georef[vid], rows):
                assert {k: got[k] for k in self.GEOREF_CELLS} == {
                    k: want[c] for k, c in self.GEOREF_CELLS.items()
                }
            for row in rows:
                assert {k: dims_rows[vid][k] for k in self.DIMS_CELLS} == {
                    k: row[c] for k, c in self.DIMS_CELLS.items()
                }


def readme_text() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_config_block() -> str:
    section = readme_text().split("### Config file layout", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_names_no_private_identifier():
    """README states contracts; a private (`_`-prefixed) name belongs to the
    docstrings, which a refactor updates with the code."""
    private = re.compile(r"(?:^|[\s.(\[,])_[A-Za-z]\w*")
    spans = re.findall(r"`([^`\n]+)`", readme_text())
    assert [span for span in spans if private.search(span)] == []


class TestConfigSchema:
    def test_readme_layout_covers_every_section(self):
        from skytraj.cli import _schema

        assert set(yaml.safe_load(readme_config_block())) == set(_schema())

    def test_readme_layout_shows_the_defaults(self):
        from skytraj.campaign import BenchParams, CampaignGrid, SynthConfig
        from skytraj.dimensions import DimConfig
        from skytraj.kinematics import KinematicsConfig
        from skytraj.pipeline import IngestParams, StabilizeParams
        from skytraj.registration import RansacConfig

        owners = {
            "ingest": [IngestParams()],
            "ransac": [RansacConfig()],
            "stabilize": [StabilizeParams()],
            "dimensions": [DimConfig()],
            "kinematics": [KinematicsConfig()],
            "bench": [BenchParams(), CampaignGrid(), SynthConfig()],
        }
        examples = {"snn_ratio", "strict", "snn_ratios", "downscales"}
        cfg = yaml.safe_load(readme_config_block())
        for section, defaults in owners.items():
            for key, value in cfg[section].items():
                if key in examples:
                    continue
                default = next(getattr(d, key) for d in defaults if hasattr(d, key))
                if isinstance(default, tuple):
                    default = list(default)
                assert value == default, f"{section}.{key}"

    def test_readme_layout_resolves(self, pipeline_fixture, tmp_path, capsys):
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(readme_config_block())
        # the README's paths are placeholders; only they come from flags
        paths = [
            f"--{key}={pipeline_fixture[key]}"
            for key in ("tracks", "sidecar", "homographies", "registry", "segmentation")
        ]
        out = tmp_path / "out.csv"
        assert run_cli("pipeline", "--config", cfg, *paths, "--output", out) == 0
        bench = tmp_path / "bench.csv"
        assert run_cli(
            "bench", "--config", cfg, "--scenes", "1", "--trials", "1", "--output", bench
        ) == 0
        probe, candidate = write_comparison_fixture(tmp_path)
        assert run_cli(
            "compare", "--config", cfg, "--probe", probe, "--candidate", candidate,
            "--output", tmp_path / "report.csv",
        ) == 0
        assert "error" not in capsys.readouterr().err

    def test_unknown_key_checked_for_every_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("bench: {scenez: 3}\n")
        rc = run_cli(
            "kinematics", "--config", cfg, "--input", tmp_path / "in.csv",
            "--output", tmp_path / "out.csv",
        )
        assert rc == 1
        assert "'bench.scenez'" in capsys.readouterr().err


# The flags of each subcommand as the parser declared them with typed
# argparse options: (option string, dest, help), in help order; --help
# is argparse's own and left out.
PINNED_FLAGS = {
    "stabilize": ("align tracks to frame 1", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--seed", "seed", "master random seed"),
        ("--tracks", "tracks", None),
        ("--sidecar", "sidecar", None),
        ("--correspondences", "correspondences", "directory of per-frame <k>.csv files"),
        ("--homographies", "homographies", "precomputed per-frame homography log"),
        ("--homography-log", "homography_log", "write estimated homographies here"),
        ("--visibility-margin", "visibility_margin", None),
        ("--snn-ratio", "snn_ratio", None),
        ("--mask-margin", "mask_margin", None),
        ("--downscale", "downscale", None),
        ("--confidence", "confidence", None),
        ("--max-iterations", "max_iterations", None),
        ("--reproj-threshold", "reproj_threshold", None),
    ]),
    "pipeline": ("tracks to final CSV", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--seed", "seed", "master random seed"),
        ("--jobs", "jobs", "bench trial workers (default 1)"),
        ("--tracks", "tracks", None),
        ("--sidecar", "sidecar", None),
        ("--correspondences", "correspondences", None),
        ("--homographies", "homographies", None),
        ("--registry", "registry", None),
        ("--segmentation", "segmentation", None),
        ("--video-id", "video_id", None),
        ("--score-min", "score_min", None),
        ("--nms-iou", "nms_iou", None),
        ("--sigma", "sigma", None),
        ("--drone-id", "drone_id", None),
        ("--start-time", "start_time", None),
        ("--date", "date", None),
        ("--intersection", "intersection", None),
        ("--session", "session", None),
        ("--snn-ratio", "snn_ratio", None),
        ("--mask-margin", "mask_margin", None),
        ("--downscale", "downscale", None),
        ("--confidence", "confidence", None),
        ("--max-iterations", "max_iterations", None),
        ("--reproj-threshold", "reproj_threshold", None),
        ("--visibility-margin", "visibility_margin", None),
        ("--azimuth-tolerance", "azimuth_tolerance_deg", None),
        ("--min-travel-m", "min_travel_m", None),
        ("--gsd", "gsd", None),
        ("--strict", "strict", None),
    ]),
    "bench": ("synthetic registration benchmark", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--seed", "seed", "master random seed"),
        ("--jobs", "jobs", "bench trial workers (default 1)"),
        ("--scenes", "scenes", None),
        ("--trials", "trials_per_scene", None),
        ("--noise-sigma", "noise_sigma", None),
        ("--outlier-fraction", "outlier_fraction", None),
        ("--hea-epsilon", "hea_epsilon", None),
        ("--confidence", "confidence", None),
        ("--max-iterations", "max_iterations", None),
    ]),
    "compare": ("probe vs extracted trajectory", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--probe", "probe", None),
        ("--candidate", "candidate", None),
        ("--group", "group", None),
        ("--fps", "fps", None),
        ("--speed-floor", "speed_floor_kmh", None),
    ]),
    "dims": ("per-vehicle dimension estimates", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--tracks", "tracks", "raw (un-stabilized) tracks"),
        ("--stabilized", "stabilized", None),
        ("--sidecar", "sidecar", None),
        ("--registry", "registry", None),
        ("--video-id", "video_id", None),
        ("--visibility-margin", "visibility_margin", None),
        ("--azimuth-tolerance", "azimuth_tolerance_deg", None),
        ("--min-travel-m", "min_travel_m", None),
        ("--gsd", "gsd", None),
        ("--strict", "strict", None),
    ]),
    "kinematics": ("speed/acceleration profiles", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--input", "input", "CSV id,frame,x,y[,visible] in local meters"),
        ("--fps", "fps", None),
        ("--sigma", "sigma", None),
    ]),
    "georef": ("stabilized tracks to world CSV", [
        ("--config", "config", "YAML config file"),
        ("--output", "output", "output file path"),
        ("--tracks", "tracks", "stabilized tracks"),
        ("--sidecar", "sidecar", None),
        ("--registry", "registry", None),
        ("--segmentation", "segmentation", None),
        ("--video-id", "video_id", None),
    ]),
}


class TestFlags:
    @staticmethod
    def subcommands():
        from skytraj.cli import build_parser

        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return parser, sub

    def test_parser_declares_the_pinned_flags(self):
        parser, sub = self.subcommands()
        assert parser.prog == "skytraj"
        assert parser.description == "Drone-track stabilization, georeferencing, and benchmarking"
        about = {choice.dest: choice.help for choice in sub._choices_actions}
        assert {
            command: (about[command], [
                (*a.option_strings, a.dest, a.help)
                for a in p._actions if not isinstance(a, argparse._HelpAction)
            ])
            for command, p in sub.choices.items()
        } == PINNED_FLAGS

    def test_every_flag_is_a_string_option(self):
        """argparse converts no flag: `_value` reads flags and config
        entries alike. Only --strict stores a constant, True."""
        for p in self.subcommands()[1].choices.values():
            for a in p._actions:
                if isinstance(a, argparse._HelpAction):
                    continue
                assert a.type is None and a.default is None, a.dest
                if a.dest == "strict":
                    assert type(a) is argparse._StoreConstAction and a.const is True
                else:
                    assert type(a) is argparse._StoreAction and a.nargs is None, a.dest

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stabilize", "--max-iterations", "1e3"],
             "ransac.max_iterations must be an integer, got '1e3'"),
            (["bench", "--scenes", "2.5"], "bench.scenes must be an integer, got '2.5'"),
            (["bench", "--jobs", "two"], "jobs must be an integer, got 'two'"),
            (["bench", "--hea-epsilon", "x"],
             "bench.hea_epsilon: bad value 'x': could not convert string to float: 'x'"),
            (["compare", "--speed-floor", "fast"],
             "kinematics.speed_floor_kmh: bad value 'fast': could not convert string to float: "
             "'fast'"),
            (["dims", "--visibility-margin", "4px"],
             "dimensions.visibility_margin: bad value '4px': could not convert string to float: "
             "'4px'"),
            (["kinematics", "--sigma", "abc"],
             "kinematics.sigma: bad value 'abc': could not convert string to float: 'abc'"),
        ],
        ids=["stabilize", "bench-scenes", "bench-jobs", "bench-hea-epsilon", "compare", "dims",
             "kinematics"],
    )
    def test_bad_flag_value_fails_in_every_subcommand(self, tmp_path, capsys, argv, message):
        """Parameters are read before any input file, so none is given."""
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--output", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error [{argv[0]}]: {message}"]
        assert not out.exists()

    def test_stabilize_checks_the_seed_with_a_homography_log(
        self, pipeline_fixture, tmp_path, capsys
    ):
        out = tmp_path / "stab.csv"
        args = ["stabilize", "--tracks", pipeline_fixture["tracks"],
                "--sidecar", pipeline_fixture["sidecar"],
                "--homographies", pipeline_fixture["homographies"], "--output", out]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 1.5\n")
        for extra, message in [(["--seed", "abc"], "seed must be an integer, got 'abc'"),
                               (["--config", cfg], "seed must be an integer, got 1.5")]:
            assert run_cli(*args, *extra) == 1
            assert capsys.readouterr().err.splitlines() == [f"error [stabilize]: {message}"]
            assert not out.exists()
        assert run_cli(*args, "--seed", "7") == 0

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("dims", "dimensions: {gsd: false}", "dimensions.gsd must be a number, got False"),
            ("bench", "bench: {scenes: 1, trials_per_scene: 1, noise_sigma: true}",
             "bench.noise_sigma must be a number, got True"),
            ("bench", "bench: {scenes: 1, trials_per_scene: 1, hea_epsilon: true}",
             "bench.hea_epsilon must be a number, got True"),
            ("kinematics", "fps: true", "fps: bad value True: fps must be a number, got True"),
            ("compare", "fps: true", "fps: bad value True: fps must be a number, got True"),
            ("bench", "paths: {output: 5}\nbench: {scenes: 1, trials_per_scene: 1}",
             "paths.output must be a string, got 5"),
            ("stabilize", "paths: {tracks: 0}", "paths.tracks must be a string, got 0"),
            ("georef", "paths: {sidecar: [a]}", "paths.sidecar must be a string, got ['a']"),
        ],
        ids=["gsd", "noise-sigma", "hea-epsilon",
             "kinematics-fps", "compare-fps", "output-path", "tracks-path", "sidecar-path"],
    )
    def test_boolean_or_non_string_path_is_refused(
        self, tmp_path, monkeypatch, capsys, command, config, message
    ):
        """Each value is read before any input file, so none is given."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        output = [] if "output" in config else ["--output", tmp_path / "out.csv"]
        assert run_cli(command, *output, "--config", cfg) == 1
        assert capsys.readouterr().err.splitlines() == [f"error [{command}]: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        from skytraj.cli import build_parser

        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first, second", [
        (["dims", "--strict", "--gsd", "0.05", "--azimuth-tolerance", "3"], ["dims"]),
        (["pipeline", "--strict", "--score-min", "0.5", "--jobs", "2"], ["dims", "--gsd", "1"]),
        (["bench", "--trials", "3", "--seed", "9"], ["bench"]),
        (["compare", "--speed-floor", "5", "--output", "a.csv"], ["kinematics", "--fps", "25"]),
    ])
    def test_a_parse_leaves_nothing_for_the_next(self, first, second):
        from skytraj.cli import build_parser

        build_parser().parse_args(first)
        assert vars(build_parser().parse_args(second)) == vars(
            build_parser.__wrapped__().parse_args(second))

    def test_two_main_calls_in_one_process(self, pipeline_fixture, tmp_path, capsys):
        from skytraj.cli import build_parser

        build_parser.cache_clear()
        fresh, strict, again = (tmp_path / f"{name}.csv" for name in ("fresh", "strict", "again"))
        assert run_cli(*pipeline_cmd(pipeline_fixture, fresh)) == 0
        assert run_cli(*pipeline_cmd(
            pipeline_fixture, strict, ["--strict", "--gsd", "0.03", "--score-min", "0.5"])) == 0
        assert run_cli("bench", "--scenes", "2.5", "--output", tmp_path / "bench.csv") == 1
        assert run_cli(*pipeline_cmd(pipeline_fixture, again)) == 0
        assert "error [bench]: bench.scenes must be an integer, got '2.5'" in (
            capsys.readouterr().err.splitlines())
        assert strict.read_bytes() != fresh.read_bytes()
        assert again.read_bytes() == fresh.read_bytes()
