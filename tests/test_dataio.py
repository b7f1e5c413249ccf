import csv
import io
import math
import re
import sys
import tempfile
from dataclasses import replace
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    georeference_points,
    make_point,
    make_tracks,
    translation,
    with_box,
    write_registry,
    write_segmentation,
)
from skytraj import dataio
from skytraj.dataio import (
    EXPORT_COLUMNS,
    SessionMeta,
    MATCH_COLUMNS,
    VideoSidecar,
    _plain_cells,
    export_songdo,
    format_column,
    format_fixed,
    frame_to_timestamp,
    load_candidate_trajectory,
    load_correspondences,
    load_homography_log,
    load_local_trajectories,
    load_probe_trajectory,
    load_registry,
    load_segmentation,
    load_sidecar,
    load_tracks,
    load_yaml,
    parse_fps,
    write_homography_log,
    write_tracks,
)
from skytraj.dimensions import DimConfig
from skytraj.errors import DegenerateProjection, InvariantViolation, ParseError, SkytrajError
from skytraj.geometry import GeoTransform, Homography, Point2
from skytraj.georeference import GeoChain, LanePolygon, SegmentationMap
from skytraj.kinematics import KinematicsConfig, compute_profile
from skytraj.pipeline import IngestParams, run_pipeline
from skytraj.registration import Matches
from skytraj.trackmodel import stabilize_tracks

FPS = Fraction(30000, 1001)
SIDECAR = VideoSidecar(frame_width=3840, frame_height=2160, fps=FPS, n_frames=100)


def test_parse_fps_forms():
    assert parse_fps("30000/1001") == FPS
    assert parse_fps(30) == Fraction(30)
    assert parse_fps(29.97) == Fraction(2997, 100)
    assert parse_fps("25") == Fraction(25)


class TestLoadTracks:
    header = "frame,id,cx,cy,w,h,class,score\n"

    def test_two_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "1,1,0.5,0.5,0.05,0.02,0,0.9\n2,1,0.51,0.5,0.05,0.02,0,0.85\n")
        tracks = load_tracks(p, SIDECAR)
        assert len(tracks.points) == 2
        assert tracks.points[0].detection.cls == 0

    def test_out_of_range_center(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "1,1,1.2,0.5,0.05,0.02,0,0.9\n")
        with pytest.raises(InvariantViolation) as err:
            load_tracks(p, SIDECAR)
        assert err.value.line == 2

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("frame,id,cx,cy,w,h,class\n1,1,0.5,0.5,0.05,0.02,0\n")
        with pytest.raises(ParseError):
            load_tracks(p, SIDECAR)

    def test_malformed_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "1,1,abc,0.5,0.05,0.02,0,0.9\n")
        with pytest.raises(ParseError) as err:
            load_tracks(p, SIDECAR)
        assert err.value.line == 2

    def test_duplicate_point(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            self.header
            + "1,1,0.5,0.5,0.05,0.02,0,0.9\n1,1,0.6,0.5,0.05,0.02,0,0.9\n"
        )
        with pytest.raises(InvariantViolation) as err:
            load_tracks(p, SIDECAR)
        assert err.value.line == 3

    def test_zero_score_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "1,1,0.5,0.5,0.05,0.02,0,0.0\n")
        with pytest.raises(InvariantViolation):
            load_tracks(p, SIDECAR)

    def test_frame_beyond_n_frames(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "101,1,0.5,0.5,0.05,0.02,0,0.9\n")
        with pytest.raises(InvariantViolation):
            load_tracks(p, SIDECAR)

    def test_frame_beyond_int64_columns_without_n_frames(self, tmp_path):
        p = tmp_path / "t.csv"
        open_ended = VideoSidecar(3840, 2160, FPS)
        p.write_text(self.header + f"{2**62},1,0.5,0.5,0.05,0.02,0,0.9\n")
        assert load_tracks(p, open_ended).points[0].frame == 2**62
        p.write_text(self.header + f"{2**62 + 1},1,0.5,0.5,0.05,0.02,0,0.9\n")
        with pytest.raises(InvariantViolation, match=r"line 2: frame \d+ beyond \+-2\*\*62$"):
            load_tracks(p, open_ended)

    def test_id_beyond_int64_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + f"1,{2**62},0.5,0.5,0.05,0.02,0,0.9\n")
        assert load_tracks(p, SIDECAR).columns().ids.tolist() == [2**62]
        p.write_text(self.header + f"1,{10**30},0.5,0.5,0.05,0.02,0,0.9\n")
        with pytest.raises(InvariantViolation, match=r"line 2: id \d+ beyond \+-2\*\*62$"):
            load_tracks(p, SIDECAR)

    def test_class_range_from_sidecar(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "1,1,0.5,0.5,0.05,0.02,4,0.9\n")
        with pytest.raises(InvariantViolation):
            load_tracks(p, SIDECAR)  # classes 0..3 by default
        wide = VideoSidecar(3840, 2160, FPS, n_frames=100, n_classes=6)
        assert load_tracks(p, wide).points[0].detection.cls == 4

    def test_class_beyond_int64_under_the_largest_n_classes(self, tmp_path):
        p = tmp_path / "t.csv"
        widest = VideoSidecar(3840, 2160, FPS, n_classes=2**62)
        p.write_text(self.header + f"1,1,0.5,0.5,0.05,0.02,{2**62 - 1},0.9\n")
        assert load_tracks(p, widest).columns().cls.tolist() == [2**62 - 1]
        p.write_text(self.header + f"1,1,0.5,0.5,0.05,0.02,0,0.9\n1,2,0.5,0.5,0.05,0.02,{2**63},0.9\n")
        with pytest.raises(InvariantViolation,
                           match=rf"line 3: class {2**63} outside 0\.\.{2**62 - 1}$"):
            load_tracks(p, widest)

    @pytest.mark.parametrize("n_classes", [2**62 + 1, 2**63, 2**64])
    def test_n_classes_beyond_int64_columns_is_refused(self, tmp_path, n_classes):
        with pytest.raises(ValueError, match=rf"^n_classes must be <= 2\*\*62, got {n_classes}$"):
            VideoSidecar(3840, 2160, FPS, n_classes=n_classes)
        p = tmp_path / "v.yaml"
        p.write_text(f"frame_width: 3840\nframe_height: 2160\nn_classes: {n_classes}\n")
        with pytest.raises(ParseError, match="bad sidecar value: n_classes must be <= 2"):
            load_sidecar(p)

    def test_unit_range_relaxed_for_stabilized(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "1,1,1.2,0.5,0.05,0.02,0,0.9\n")
        tracks = load_tracks(p, SIDECAR, require_unit_range=False)
        assert tracks.points[0].detection.bbox[0] == 1.2

    @pytest.mark.parametrize(
        "row",
        [
            "1,1,-inf,0.5,0.05,0.02,0,0.9",
            "1,1,0.5,inf,0.05,0.02,0,0.9",
            "1,1,0.5,0.5,inf,0.02,0,0.9",
            "1,1,0.5,0.5,0.05,nan,0,0.9",
        ],
    )
    def test_non_finite_rejected_for_stabilized(self, tmp_path, row):
        p = tmp_path / "t.csv"
        p.write_text(self.header + "2,1,0.5,0.5,0.05,0.02,0,0.9\n" + row + "\n")
        with pytest.raises(InvariantViolation) as err:
            load_tracks(p, SIDECAR, require_unit_range=False)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "row", ["2,1,0.5,0.5,-0.05,0.02,0,0.9", "2,1,0.5,0.5,0.05,-1e-300,0,0.9"], ids=["w", "h"]
    )
    def test_negative_size_rejected_for_stabilized(self, tmp_path, row):
        p = tmp_path / "t.csv"
        p.write_text(self.header + row + "\n")
        with pytest.raises(InvariantViolation, match="box size must be >= 0"):
            load_tracks(p, SIDECAR, require_unit_range=False)

    @pytest.mark.parametrize(
        "cells, box",
        [
            ("0.25,0.5,0.05,0.02", (0.25, 0.5, 0.05, 0.02)),
            ("1,0.5,5e-2,2E-2", (1.0, 0.5, 0.05, 0.02)),
            ("1,0,1,0", (1.0, 0.0, 1.0, 0.0)),
            ("+0.5,0.50,+5e-2,0.020", (0.5, 0.5, 0.05, 0.02)),
        ],
        ids=["decimals", "exponents", "integers", "signs-and-padding"],
    )
    def test_boxes_are_plain_float_tuples(self, tmp_path, cells, box):
        p = tmp_path / "t.csv"
        p.write_text(self.header + f"1,1,{cells},0,0.9\n")
        (point,) = load_tracks(p, SIDECAR).points
        assert point.detection.bbox == box
        assert [type(v) for v in point.detection.bbox] == [float] * 4

    def test_write_read_round_trip(self, tmp_path):
        pts = [make_point(k, 1, 600 + 25.3 * k, 1080.7, 180, 80) for k in range(1, 6)]
        tracks = make_tracks(pts)
        path = tmp_path / "out.csv"
        boxes = np.array([p.detection.bbox for p in pts])
        write_tracks(tracks, boxes, np.array([k % 2 == 0 for k in range(1, 6)]), path)
        with open(path, newline="") as fh:
            assert [row["visible"] for row in csv.DictReader(fh)] == ["0", "1", "0", "1", "0"]
        assert load_tracks(path, SIDECAR).points == tracks.points


# Cells that the csv module quotes or converts, and plain ones.
CSV_CELLS = st.one_of(
    st.text(st.sampled_from("ab ,\"\r\né€0"), max_size=4),
    st.sampled_from(["", "x", "1.50", "-0.00"]),
    st.integers(-5, 5),
)


def csv_writer_text(header, rows):
    """What ``csv.writer(lineterminator="\\n")`` writes for the table."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(CSV_CELLS, min_size=n, max_size=n), min_size=1, max_size=8)))
    @example(table=[["a"], [""], ["b"]])
    @example(table=[["a", "b"], ["1", "2"], ["3", "4"], ["5", "6"]])
    def test_writes_the_bytes_of_csv_writer(self, table):
        header, *rows = table
        expected = csv_writer_text(header, rows).encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            for size in (1, 2, 3, dataio.WRITE_BLOCK_ROWS):
                with mock.patch.object(dataio, "WRITE_BLOCK_ROWS", size):
                    dataio.write_csv(out, header, iter(rows))
                assert out.read_bytes() == expected, size

    def test_plain_rows_are_joined(self):
        assert dataio._plain_lines([["a", "b"], ["", "é"], ["1.5", "2"]]) == "a,b\n,é\n1.5,2\n"
        assert dataio._plain_lines([("x",), ("y",)]) == "x\ny\n"

    @pytest.mark.parametrize("block", [
        [["a,b", "c"]], [["a", 'b"']], [["a\nb", "c"]], [["a\rb", "c"]], [["a"], [""]],
        [["a", "b"], []], [["1", 2]], [["a", None]],
    ], ids=["comma", "quote", "newline", "return", "lone-empty", "empty-row", "int", "none"])
    def test_other_rows_go_to_csv_writer(self, block):
        assert dataio._plain_lines(block) is None

    @staticmethod
    def rows_then_error():
        yield ["1", "a"]
        raise SkytrajError("bad vehicle")

    def test_failing_rows_leave_no_file(self, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(SkytrajError, match="bad vehicle"):
            dataio.write_csv(out, ["id", "v"], self.rows_then_error())
        assert not out.exists()

    def test_failing_rows_leave_an_existing_file_untouched(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"id,v\n7,old\n")
        with pytest.raises(SkytrajError, match="bad vehicle"):
            dataio.write_csv(out, ["id", "v"], self.rows_then_error())
        assert out.read_bytes() == b"id,v\n7,old\n"


class TestCorrespondences:
    def test_with_distances(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1.0\n")
        corrs = load_correspondences(p)
        assert corrs.src[0].tolist() == [1.0, 2.0]
        assert corrs.d1[0] == 0.5

    def test_without_distances(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("src_x,src_y,dst_x,dst_y\n1,2,3,4\n")
        assert np.isnan(load_correspondences(p).d1[0])

    def test_distance_order_violation(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,1.5,1.0\n")
        with pytest.raises(InvariantViolation):
            load_correspondences(p)

    def test_columns_and_empty_distances(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "src_x,src_y,dst_x,dst_y,d1,d2\n"
            "1,2,3,4,0.5,1.0\n"
            "\n"
            "5,6,7,8,,\n"
            "9,10,11,12,0.25\n"
        )
        corrs = load_correspondences(p)
        assert len(corrs) == 3
        assert corrs.src.tolist() == [[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]]
        assert corrs.dst.tolist() == [[3.0, 4.0], [7.0, 8.0], [11.0, 12.0]]
        assert np.array_equal(corrs.d1, [0.5, np.nan, np.nan], equal_nan=True)
        assert np.array_equal(corrs.d2, [1.0, np.nan, np.nan], equal_nan=True)

    def test_empty_file_has_no_matches(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("src_x,src_y,dst_x,dst_y,d1,d2\n")
        corrs = load_correspondences(p)
        assert len(corrs) == 0
        assert corrs.src.shape == (0, 2)

    @pytest.mark.parametrize(
        "row", ["nan,2,3,4,0.5,1.0", "1,inf,3,4,0.5,1.0", "1,2,3,-inf,0.5,1.0",
                "1,2,3,4,nan,1.0", "1,2,3,4,0.5,inf"],
    )
    def test_non_finite_rejected(self, tmp_path, row):
        p = tmp_path / "c.csv"
        p.write_text(f"src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1.0\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_correspondences(p)
        assert exc.value.line == 3
        assert "finite" in str(exc.value)

    def test_first_bad_row_wins(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,-1,1.0\n1,2,x,4,0.5,1.0\n")
        with pytest.raises(InvariantViolation, match="line 2: distances must be >= 0"):
            load_correspondences(p)
        p.write_text("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,x,4,0.5,1.0\n1,2,3,4,-1,1.0\n")
        with pytest.raises(ParseError, match="line 2: malformed row"):
            load_correspondences(p)
        p.write_text("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3\n")
        with pytest.raises(ParseError, match="line 2: malformed row"):
            load_correspondences(p)

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("src_x,src_y,dst_x\n", 1, "missing columns"),
            ("src_x,src_y,dst_x,dst_y\n1,2,3,4\n1,2,x,4\n", 3, "malformed row"),
            ("src_x,src_y,dst_x,dst_y\n1,2,3,4\n\n1,2,3,nan\n", 4, "match values must be finite"),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,2,1\n", 2, "d1 must be <= d2"),
        ],
        ids=["columns", "malformed", "non-finite", "distance-order"],
    )
    def test_errors_name_the_file(self, tmp_path, body, line, message):
        p = tmp_path / "7.csv"
        p.write_text(body)
        with pytest.raises(ParseError) as exc:
            load_correspondences(p)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"{p}: line {line}: {message}")

    def test_rows_keep_their_lines(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("src_x,src_y,dst_x,dst_y\n1,2,3,4\n\n5,6,7,8\n")
        assert load_correspondences(p).lines == [2, 4]
        assert load_correspondences(p).select(np.array([1])).lines is None


def _row_loop_correspondences(path) -> Matches:
    """The csv row loop `load_correspondences` replays on a miss, as a
    reference for its one-pass table."""
    rows, lines, bare = [], [], []
    error = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        required = ["src_x", "src_y", "dst_x", "dst_y"]
        missing = [c for c in required if c not in header]
        if missing:
            raise ParseError(f"missing columns {missing}", line=1, path=path)
        at = {name: i for i, name in enumerate(header)}
        dist = ["d1", "d2"] if "d1" in at and "d2" in at else []
        take = itemgetter(*(at[c] for c in required + dist))
        pad = [None] * len(header)
        for row in reader:
            if not row:
                continue
            row += pad[len(row):]
            cells = take(row)
            if not dist or cells[4] in (None, "") or cells[5] in (None, ""):
                cells = cells[:4]
                bare.append(len(lines))
            try:
                rows.append([*map(float, cells), 0.0, 0.0][:6])
            except (TypeError, ValueError) as exc:
                error = ParseError(f"malformed row: {exc}", line=reader.line_num, path=path)
                break
            lines.append(reader.line_num)
    table = np.array(rows, dtype=float).reshape(-1, 6)
    d1, d2 = table[:, 4], table[:, 5]
    checks = {
        "match values must be finite": ~np.isfinite(table).all(axis=1),
        "distances must be >= 0": (d1 < 0) | (d2 < 0),
        "d1 must be <= d2": d1 > d2,
    }
    failed = np.logical_or.reduce(list(checks.values()))
    if failed.any():
        i = int(failed.argmax())
        message = next(m for m, bad in checks.items() if bad[i])
        raise InvariantViolation(message, line=lines[i], path=path)
    if error is not None:
        raise error
    table[bare, 4:] = np.nan
    return Matches(table[:, 0:2], table[:, 2:4], d1, d2, lines)


def _load_outcome(loader, path):
    try:
        m = loader(path)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    return [(a.shape, a.tobytes()) for a in (m.src, m.dst, m.d1, m.d2)], m.lines


# cells the csv row loop reads differently from a plain float, or rejects
_ODD_CELLS = ["nan", "inf", "-inf", "", " 1.5", "2.5 ", "1_0", '"3"', '"4,5"', "x", "-1", "1e400"]


@st.composite
def _match_files(draw) -> str:
    """Correspondence CSV text: mostly plain rows, with every way out of the
    one-pass table mixed in."""
    cols = ["src_x", "src_y", "dst_x", "dst_y"]
    if draw(st.integers(0, 5)):
        cols += ["d1", "d2"]
    cols += draw(st.lists(st.sampled_from(["id", "score"]), unique=True, max_size=2))
    header = draw(st.permutations(cols))
    value = st.floats(-10.0, 4000.0, allow_nan=False).map(repr) | st.integers(0, 4000).map(str)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", ","])))  # blank-ish
            continue
        d1, d2 = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
        cells = [
            repr(d1) if c == "d1" else repr(d2) if c == "d2" else draw(value) for c in header
        ]
        if kind == 1:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == 2:
            cells = cells[: draw(st.integers(0, len(cells) - 1))]  # short
        elif kind == 3:
            cells.append(draw(value))  # long
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


class TestCorrespondenceFastPath:
    PLAIN = "dst_x,id,src_y,d2,src_x,d1,dst_y\n1,7,2,0.5,3,0.25,4\n5.5,8,-6,1,7e2,1,8\n"

    @settings(max_examples=400, deadline=None)
    @given(text=_match_files())
    @example(text=PLAIN)
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n")  # header only
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1")  # no final newline
    @example(text='src_x,src_y,dst_x,dst_y,d1,d2\n"1",2,3,4,0.5,1\n')  # quotes
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\r\n1,2,3,4,0.5,1\r\n")  # \r
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1\n\n5,6,7,8,0.5,1\n")  # blank
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5\n")  # short
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1,9\n")  # long
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,,\n5,6,7,8,0.5,\n")  # empty d1/d2
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,nan,4,0.5,1\n1,2,3,4,0.5,inf\n")
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1_0,2,3,4,0.5,1\n")  # float() takes 1_0
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n 1,2 ,3,4,0.5,1\n")  # spaces
    @example(text="src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,1,0.5\n1,2,x,4,0.5,1\n")
    @example(text="src_x,src_y,dst_x,dst_y\n1,2,3,4\n")  # no distances
    def test_equals_the_row_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "3.csv"
            path.write_bytes(text.encode())
            got = _load_outcome(load_correspondences, path)
            assert got == _load_outcome(_row_loop_correspondences, path)

    def test_plain_files_take_the_one_pass_table(self):
        cells, lines = _plain_cells(self.PLAIN, MATCH_COLUMNS[:4], MATCH_COLUMNS[4:])
        assert [*zip(*cells.values())] == [("3", "2", "1", "4", "0.25", "0.5"),
                                           ("7e2", "-6", "5.5", "8", "1", "1")]
        assert list(cells) == list(MATCH_COLUMNS) and lines == range(2, 4)
        header_only = _plain_cells("src_x,src_y,dst_x,dst_y,d1,d2\n", MATCH_COLUMNS[:4], ())
        assert header_only == (dict.fromkeys(MATCH_COLUMNS[:4], []), range(2, 2))

    @pytest.mark.parametrize(
        "text, failed_line",
        [
            ('src_x,src_y,dst_x,dst_y,d1,d2\n"1",2,3,4,0.5,1\n', None),
            ("src_x,src_y,dst_x,dst_y,d1,d2\r\n1,2,3,4,0.5,1\r\n", None),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1\n\n", None),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5\n", None),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1,9\n", None),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,,\n", 0),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,nan\n", 2),
            ("src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,2,1\n", 2),
            ("src_x,src_y,dst_x,dst_y\n1,2,3,4\n", 0),
            ("", None),
        ],
        ids=["quote", "cr", "blank", "short", "long", "empty-distance", "non-finite",
             "distance-order", "no-distances", "empty"],
    )
    def test_other_files_go_row_by_row(self, tmp_path, text, failed_line):
        """Only plain files are split once (``failed_line`` is not None) and
        never read again. Where their values fail a check,
        `load_correspondences` raises at that row's line (``failed_line``,
        0 where they pass)."""
        cells = _plain_cells(text, MATCH_COLUMNS[:4], MATCH_COLUMNS[4:])
        if failed_line is None:
            assert cells is None
            return
        assert cells is not None
        path = tmp_path / "c.csv"
        path.write_text(text)
        with mock.patch.object(dataio, "_csv_cells", side_effect=AssertionError("read again")):
            if not failed_line:
                load_correspondences(path)
                return
            with pytest.raises(InvariantViolation) as exc:
                load_correspondences(path)
        assert exc.value.line == failed_line

    def test_cell_over_the_field_limit_goes_row_by_row(self):
        tiny = "0." + "0" * csv.field_size_limit() + "1"  # finite, but too long a field
        text = f"src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,0.5,1\n{tiny},2,3,4,0.5,1\n"
        assert _plain_cells(text, MATCH_COLUMNS[:4], MATCH_COLUMNS[4:]) is None


class TestOversizedField:
    BIG = "1" * (131072 + 1)

    @pytest.mark.parametrize(
        "loader, header, good, bad",
        [
            (load_correspondences, "src_x,src_y,dst_x,dst_y,d1,d2", "1,2,3,4,0.5,1",
             "1,2,3,4,0.5,{}"),
            (lambda p: load_tracks(p, SIDECAR), "frame,id,cx,cy,w,h,class,score",
             "1,1,0.5,0.5,0.1,0.1,0,0.9", "2,1,{},0.5,0.1,0.1,0,0.9"),
            (load_local_trajectories, "id,frame,x,y", "1,1,0,0", "1,2,{},0"),
            (load_probe_trajectory, "t,x,y,speed", "0.0,1,2,30", "0.1,{},2,30"),
            (load_candidate_trajectory, "frame,x,y,speed", "1,1,2,30", "2,1,2,{}"),
        ],
        ids=["correspondences", "tracks", "local", "probe", "candidate"],
    )
    def test_names_the_file_and_line(self, tmp_path, loader, header, good, bad):
        p = tmp_path / "big.csv"
        p.write_text(f"{header}\n{good}\n{bad.format(self.BIG)}\n")
        with pytest.raises(ParseError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 3: bad CSV: field larger than field limit (131072)"

    def test_an_earlier_bad_match_wins(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(f"src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,-1,1\n1,2,3,4,0.5,{self.BIG}\n")
        with pytest.raises(InvariantViolation, match="line 2: distances must be >= 0"):
            load_correspondences(p)


class TestNotUtf8:
    def test_an_earlier_failing_match_row_wins(self, tmp_path):
        """As in every CSV file, a row that fails a check wins over a byte
        that is not UTF-8 further down, past the first decoded chunk."""
        p = tmp_path / "c.csv"
        rows = ["1,2,3,4,2,1"] + ["1,2,3,4,0.5,1"] * 3000 + ["\xe9"]
        text = "src_x,src_y,dst_x,dst_y,d1,d2\n" + "\n".join(rows) + "\n"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(InvariantViolation) as exc:
            load_correspondences(p)
        assert str(exc.value) == f"{p}: line 2: d1 must be <= d2"

    @pytest.mark.parametrize("load, text, message", [
        (load_correspondences, "src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,2,1\n1,2,3,4,0.5,1\xe9\n",
         "d1 must be <= d2"),
        (lambda p: load_tracks(p, SIDECAR),
         "frame,id,cx,cy,w,h,class,score\n1,1,0.5,0.5,0.1,0.1,9,0.9\n2,1,0.5,0.5,0.1,0.1,0,0.9\xe9\n",
         "class 9 outside 0..3"),
    ], ids=["matches", "tracks"])
    def test_an_earlier_failing_row_wins_on_the_next_line(self, tmp_path, load, text, message):
        """The byte on the line below the failing row, in the same decoded
        chunk, still comes second."""
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(InvariantViolation) as exc:
            load(p)
        assert str(exc.value) == f"{p}: line 2: {message}"

    def test_names_the_line_past_the_first_decoded_chunk(self, tmp_path):
        p = tmp_path / "tracks.csv"
        rows = [f"{k},{i},0.5,0.5,0.1,0.1,0,0.9" for i in range(1, 31) for k in range(1, 101)]
        rows[2498] += "\xe9"  # line 2500, some 80 kB into the file
        text = "frame,id,cx,cy,w,h,class,score\n" + "\n".join(rows) + "\n"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            load_tracks(p, SIDECAR)
        assert exc.value.line == 2500
        assert str(exc.value).startswith(f"{p}: line 2500: not UTF-8 text: ")

    def test_an_earlier_failing_track_row_wins(self, tmp_path):
        """The rows decoded before the bad byte are checked first, as the
        row-by-row reading always did."""
        p = tmp_path / "tracks.csv"
        rows = ["1,1,1.5,0.5,0.1,0.1,0,0.9"] + [f"{k},2,0.5,0.5,0.1,0.1,0,0.9" for k in range(1, 99)]
        text = "frame,id,cx,cy,w,h,class,score\n" + "\n".join(rows * 30) + "\n"
        p.write_bytes(text.encode() + b"\xe9\n")
        with pytest.raises(InvariantViolation, match=r"line 2: cx=1.5 outside \[0, 1\]$"):
            load_tracks(p, SIDECAR)


    @pytest.mark.parametrize("filler", [10, 3000], ids=["short", "long"])
    @pytest.mark.parametrize("load, head, line", [
        (load_homography_log, "1 1 0 0 0 1 0 0 0 1\n2 1 0 x 0 1 0 0 0 1\n", "3 1 0 0 0 1 0 0 0 1"),
        (load_registry, "intersection L\nmaster_to_ortho 1 0 x 0 1 0 0 0 1\n", "# a comment"),
    ], ids=["homography-log", "registry"])
    def test_an_earlier_bad_line_wins(self, tmp_path, load, head, line, filler):
        """The homography log and the registry decode one line at a time,
        so a bad line wins over a later byte that is not UTF-8, in the
        first decoded chunk or past it."""
        p = tmp_path / "transforms.txt"
        p.write_bytes((head + f"{line}\n" * filler + "\xe9\n").encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            load(p)
        assert exc.value.line == 2
        assert "not UTF-8" not in str(exc.value)

    @pytest.mark.parametrize("load, text", [
        (lambda p: load_tracks(p, SIDECAR),
         "frame,id,cx,cy,w,h,class,score\n1,1,0.5,0.5,0.1,0.1,0,0.9\n\xe9\n"),
        (load_correspondences, "src_x,src_y,dst_x,dst_y\n1,2,3,4\n\xe9\n"),
        (load_probe_trajectory, "t,x,y,speed\n0,1,2,3\n\xe9\n"),
        (load_candidate_trajectory, "frame,x,y,speed\n1,1,2,3\n\xe9\n"),
        (load_local_trajectories, "id,frame,x,y\n1,1,2,3\n\xe9\n"),
        (load_homography_log, "1 1 0 0 0 1 0 0 0 1\n\xe9\n"),
        (load_registry, "intersection L\n\xe9\n"),
        (load_sidecar, "frame_width: 3840\n\xe9\n"),
        (load_segmentation, "[\n\xe9\n"),
    ], ids=["tracks", "correspondences", "probe", "candidate", "local-trajectories",
            "homography-log", "registry", "sidecar", "segmentation"])
    def test_every_loader_opens_its_file_once(self, tmp_path, load, text):
        p = tmp_path / "input"
        p.write_bytes(text.encode("latin-1"))
        with mock.patch("builtins.open", wraps=open) as opened:
            with pytest.raises(ParseError) as exc:
                load(p)
        line = text.count("\n")  # the byte's own, the last
        assert str(exc.value).startswith(f"{p}: line {line}: not UTF-8 text: ")
        assert opened.call_count == 1

    @pytest.mark.parametrize("filler", [1, 20000], ids=["short", "long"])
    def test_a_bad_byte_wins_over_a_yaml_syntax_error(self, tmp_path, filler):
        """At any size of the file: yaml reads a stream in chunks, but it
        is given the whole text."""
        p = tmp_path / "v.yaml"
        p.write_bytes(b"a: b: c\n" + b"# a filler line\n" * filler + b"\xe9\n")
        with pytest.raises(ParseError) as exc:
            load_yaml(p)
        assert str(exc.value).startswith(f"{p}: line {filler + 2}: not UTF-8 text: ")

    @pytest.mark.parametrize("text, message", [
        ("a: {b: [{k: 1, k: 2}]}\n", "line 1: duplicate key 'k'"),
        ("1: x\n1.0: y\n", "line 2: duplicate key 1.0"),
        ("[1]: x\n", "invalid YAML"),
    ], ids=["nested", "equal-number", "unhashable"])
    def test_a_repeated_key_is_refused_at_any_depth(self, tmp_path, text, message):
        p = tmp_path / "v.yaml"
        p.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_yaml(p)

    def test_a_merge_key_may_be_overridden(self, tmp_path):
        p = tmp_path / "v.yaml"
        p.write_text("base: &b {sigma: 2, fps: 30}\nkinematics:\n  <<: *b\n  sigma: 3\n")
        assert load_yaml(p)["kinematics"] == {"sigma": 3, "fps": 30}

    def test_a_row_running_on_to_the_bad_line_is_not_read(self, tmp_path):
        """The quoted cell of line 2 runs on to line 3, which holds the
        byte, so the row (whose d1 > d2) is not read."""
        p = tmp_path / "c.csv"
        p.write_bytes(b'src_x,src_y,dst_x,dst_y,d1,d2\n1,2,3,4,2,"1\n\xe9"\n')
        with pytest.raises(ParseError) as exc:
            load_correspondences(p)
        assert str(exc.value).startswith(f"{p}: line 3: not UTF-8 text: ")


class TestRowErrorsNameFileAndLine:
    """Every row and header error of a track or trajectory table starts
    with the file and the line."""

    LOADERS = {
        "tracks": (lambda p: load_tracks(p, SIDECAR), "frame,id,cx,cy,w,h,class,score",
                   "1,1,0.5,0.5,0.1,0.1,0,0.9", "2,1,{},0.5,0.1,0.1,0,0.9", "inf"),
        "stabilized": (lambda p: load_tracks(p, SIDECAR, require_unit_range=False),
                       "frame,id,cx,cy,w,h,class,score,visible",
                       "1,1,0.5,0.5,0.1,0.1,0,0.9,1", "2,1,{},0.5,0.1,0.1,0,0.9,1", "nan"),
        "local": (load_local_trajectories, "id,frame,x,y", "1,1,0,0", "1,2,{},0", "nan"),
        "probe": (load_probe_trajectory, "t,x,y,speed", "0.0,1,2,30", "0.1,{},2,30", "inf"),
        "candidate": (load_candidate_trajectory, "frame,x,y,speed", "1,1,2,30", "2,1,2,{}",
                      "-inf"),
    }

    @pytest.mark.parametrize("fault", ["malformed", "non-finite", "missing-column"])
    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_error_starts_with_path_and_line(self, tmp_path, kind, fault):
        loader, header, good, bad, non_finite = self.LOADERS[kind]
        p = tmp_path / f"{kind}.csv"
        if fault == "missing-column":
            header = header.split(",", 1)[1]
            line = 1
        else:
            line = 3
        cell = {"malformed": "x1", "non-finite": non_finite, "missing-column": "1"}[fault]
        p.write_text(f"{header}\n{good}\n{bad.format(cell)}\n")
        with pytest.raises(ParseError) as exc:
            loader(p)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"{p}: line {line}: ")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("fault", ["malformed", "non-finite"])
    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_blank_rows_count_as_lines(self, tmp_path, kind, fault, newline):
        """A bad row after blank rows is reported at its own line (5 here),
        not at the first blank one."""
        loader, header, good, bad, non_finite = self.LOADERS[kind]
        p = tmp_path / f"{kind}.csv"
        cell = {"malformed": "x1", "non-finite": non_finite}[fault]
        p.write_bytes(newline.join([header, "", good, "", bad.format(cell), ""]).encode())
        with pytest.raises(ParseError) as exc:
            loader(p)
        assert exc.value.line == 5
        assert str(exc.value).startswith(f"{p}: line 5: ")


class TestVisibleColumn:
    """Both loaders accept ``visible`` cells of 0 or 1 only. Trajectories
    keep the flags, every frame visible without the column; tracks keep
    none, since the stages compute visibility from the boxes."""

    LOADERS = {
        "tracks": (lambda p: load_tracks(p, SIDECAR, require_unit_range=False),
                   "frame,id,cx,cy,w,h,class,score", "{},1,0.5,0.5,0.1,0.1,0,0.9"),
        "local": (load_local_trajectories, "id,frame,x,y", "1,{},0,0"),
    }

    def load(self, tmp_path, kind, cells):
        """Two rows of one vehicle (frames 1 and 2), with a visible column
        holding ``cells`` unless it is None."""
        loader, header, row = self.LOADERS[kind]
        lines = [header if cells is None else header + ",visible"]
        for frame in (1, 2):
            lines.append(row.format(frame) + ("" if cells is None else f",{cells[frame - 1]}"))
        p = tmp_path / f"{kind}.csv"
        p.write_text("\n".join(lines) + "\n")
        return loader(p)

    def test_flags_and_defaults(self, tmp_path):
        def tracks(cells):
            return self.load(tmp_path, "tracks", cells).points

        assert tracks(["0", "1"]) == tracks(["1", "1"]) == tracks(None)
        assert self.load(tmp_path, "local", ["0", "1"])[1].visible.tolist() == [False, True]
        assert self.load(tmp_path, "local", None)[1].visible.tolist() == [True, True]

    @pytest.mark.parametrize("cell", ["7", "", "-1", "true", "1.0", " 1"])
    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_other_values_rejected(self, tmp_path, kind, cell):
        with pytest.raises(ParseError) as exc:
            self.load(tmp_path, kind, ["1", cell])
        assert str(exc.value) == (
            f"{tmp_path / kind}.csv: line 3: malformed row: visible must be 0 or 1, got {cell!r}"
        )


class TestTrajectoryLoaders:
    @pytest.mark.parametrize(
        "loader, header, good, bad",
        [
            (load_local_trajectories, "id,frame,x,y", "1,1,0.0,0.0", "1,2,{},0.0"),
            (load_local_trajectories, "id,frame,x,y,visible", "1,1,0,0,1", "1,2,0,{},1"),
            (load_probe_trajectory, "t,x,y,speed", "0.0,1,2,30", "0.1,{},2,30"),
            (load_probe_trajectory, "t,x,y,speed", "0.0,1,2,30", "{},1,2,30"),
            (load_candidate_trajectory, "frame,x,y,speed", "1,1,2,30", "2,1,2,{}"),
            (load_candidate_trajectory, "frame,x,y,speed", "1,1,2,30", "2,1,{},30"),
        ],
        ids=["local-x", "local-y", "probe-x", "probe-t", "candidate-speed", "candidate-y"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, loader, header, good, bad, value):
        p = tmp_path / "traj.csv"
        p.write_text(f"{header}\n{good}\n{bad.format(value)}\n")
        with pytest.raises(InvariantViolation) as exc:
            loader(p)
        assert exc.value.line == 3
        assert "is not finite" in str(exc.value)


    def test_probe_rows_in_file_order(self, tmp_path):
        p = tmp_path / "probe.csv"
        p.write_text("speed,t,x,y\n30,0.2,1,2\n\n31.5,0.1,-3,4\n")
        got = load_probe_trajectory(p)
        assert got.shape == (2, 3)
        assert got.tolist() == [[1.0, 2.0, 30.0], [-3.0, 4.0, 31.5]]
        p.write_text("t,x,y,speed\n")
        assert load_probe_trajectory(p).shape == (0, 3)

    def test_candidate_rows_in_frame_order(self, tmp_path):
        p = tmp_path / "candidate.csv"
        p.write_text("frame,x,y,speed\n7,1,2,30\n-2,3,4,31\n5,5,6,32\n")
        assert load_candidate_trajectory(p).tolist() == [
            [3.0, 4.0, 31.0], [5.0, 6.0, 32.0], [1.0, 2.0, 30.0]
        ]

    @pytest.mark.parametrize(
        "frame, message",
        [("7", "duplicate frame 7"), (str(-2**62 - 1), f"frame {-2**62 - 1} beyond +-2**62"),
         (str(-2**63), f"frame {-2**63} beyond +-2**62"),
         (str(2**63), f"frame {2**63} beyond +-2**62")],
        ids=["repeated", "beyond-int64", "int64-min", "past-int64"],
    )
    def test_candidate_frame_checks(self, tmp_path, frame, message):
        p = tmp_path / "candidate.csv"
        p.write_text(f"frame,x,y,speed\n7,1,2,30\n{2**62},3,4,31\n{frame},5,6,32\n")
        with pytest.raises(InvariantViolation) as exc:
            load_candidate_trajectory(p)
        assert str(exc.value) == f"{p}: line 4: {message}"

    def test_local_trajectories_by_ascending_id(self, tmp_path):
        p = tmp_path / "local.csv"
        p.write_text("id,frame,x,y,visible\n7,2,1,0,1\n3,5,2,0,0\n7,1,3,0,1\n3,4,4,0,1\n"
                     "12,1,5,0,1\n")
        tracks = load_local_trajectories(p)
        assert list(tracks) == [3, 7, 12]
        assert {vid: [c.tolist() for c in track] for vid, track in tracks.items()} == {
            3: [[4, 5], [4.0, 2.0], [0.0, 0.0], [True, False]],
            7: [[1, 2], [3.0, 1.0], [0.0, 0.0], [True, True]],
            12: [[1], [5.0], [0.0], [True]],
        }
        assert tracks[3].frames.dtype == np.int64 and tracks[3].visible.dtype == bool


class TestTransformFiles:
    def test_homography_log_round_trip(self, tmp_path):
        homs = {
            2: translation(2, -1),
            3: Homography.from_matrix([[1.01, 0, 5], [0, 0.99, -3], [1e-6, 0, 1]]),
        }
        path = tmp_path / "h.txt"
        write_homography_log(homs, path)
        again = load_homography_log(path)
        assert sorted(again) == [2, 3]
        for k in homs:
            assert np.array_equal(again[k].m, homs[k].m)

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("2 1 0 0 0 1 0 0 0 1\n2 1 0 1 0 1 0 0 0 1\n")
        with pytest.raises(InvariantViolation):
            load_homography_log(path)

    def test_registry(self, tmp_path):
        path = tmp_path / "reg.txt"
        write_registry(path)
        reg = load_registry(path)
        assert "L" in reg.intersections
        assert reg.videos["L1"].intersection == "L"
        assert reg.intersections["L"].geo_local.a == 0.02725

    def test_registry_unknown_intersection(self, tmp_path):
        path = tmp_path / "reg.txt"
        path.write_text("video V1 Z\nref_to_master 1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(ParseError):
            load_registry(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("intersection L\nmaster_to_ortho 1 0 0 0 1 0 0 0 1\ngeo_local 2 0 0 2 0 0\n"
             "geo_wgs 1 0 0 1 0 0\n", 9, "repeated intersection 'L'"),
            ("video L1 L\nref_to_master 1 0 0 0 1 0 0 0 1\n", 9, "repeated video 'L1'"),
            ("ref_to_master 1 0 0 0 1 0 0 0 1\n", 9, "repeated ref_to_master in video 'L1'"),
            ("intersection M\ngeo_local 1 0 0 1 0 0\n\ngeo_local 2 0 0 2 0 0\n", 12,
             "repeated geo_local in intersection 'M'"),
        ],
        ids=["intersection", "video", "video-directive", "intersection-directive"],
    )
    def test_registry_repeated_entry(self, tmp_path, text, line, message):
        """A repeated label, or a directive repeated within its block, is
        reported at the repeating line instead of the later entry winning."""
        path = tmp_path / "reg.txt"
        write_registry(path)  # 8 lines: intersection L, then video L1
        path.write_text(path.read_text() + text)
        with pytest.raises(ParseError) as exc:
            load_registry(path)
        assert str(exc.value) == f"{path}: line {line}: {message}"

    def test_registry_incomplete_block(self, tmp_path):
        """An incomplete block is reported at its own header line, whatever
        follows it."""
        path = tmp_path / "reg.txt"
        intersection = "intersection L\nmaster_to_ortho 1 0 0 0 1 0 0 0 1\n"
        for text, line in [
            (intersection, 1),
            (f"# L\n{intersection}\n# end\n", 2),
            (f"\n{intersection}\nvideo V1 L\nref_to_master 1 0 0 0 1 0 0 0 1\n", 2),
            (f"{intersection}geo_local 1 0 0 1 0 0\ngeo_wgs 1 0 0 1 0 0\n# V1\nvideo V1 L\n\n", 6),
        ]:
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                load_registry(path)
            assert exc.value.line == line
            assert str(exc.value).startswith(f"{path}: line {line}: ")
            assert str(exc.value).endswith(" incomplete")

    def test_segmentation(self, tmp_path):
        path = tmp_path / "seg.json"
        write_segmentation(path)
        seg = load_segmentation(path)
        assert len(seg.lanes) == 2
        assert seg.lanes[0].section == "2_1"
        assert seg.lanes[0].lane == 1

    def test_segmentation_bad_lane(self, tmp_path):
        path = tmp_path / "seg.json"
        entry = '[{{"section": "1_1", "lane": {}, "polygon": [[0,0],[1,0],[1,1]]}}]'
        path.write_text(entry.format("0"))
        with pytest.raises(InvariantViolation):
            load_segmentation(path)
        for lane, shown in [("2.7", "2.7"), ("true", "True")]:  # not truncated to 2 or 1
            path.write_text(entry.format(lane))
            with pytest.raises(ParseError) as exc:
                load_segmentation(path)
            assert str(exc.value) == (
                f"{path}: bad segmentation entry 0: lane must be an integer, got {shown}"
            )
        for lane, number in [("1e0", 1), ('"3"', 3)]:
            path.write_text(entry.format(lane))
            assert load_segmentation(path).lanes[0].lane == number

    @staticmethod
    def _refused(tmp_path, section, polygon):
        """The message of the error `load_segmentation` raises for one entry."""
        path = tmp_path / "seg.json"
        path.write_text(f'[{{"section": {section}, "lane": 1, "polygon": {polygon}}}]')
        with pytest.raises(ParseError) as exc:
            load_segmentation(path)
        prefix = f"{path}: bad segmentation entry 0: "
        assert str(exc.value).startswith(prefix)
        return str(exc.value)[len(prefix):]

    def test_segmentation_string_vertex(self, tmp_path):
        # was read character by character: "90" became the point (9, 0)
        assert self._refused(tmp_path, '"1_1"', '["90", [1, 0], [1, 1]]') == (
            "vertex 0 must be [x, y] numbers, got '90'")

    def test_segmentation_boolean_vertex(self, tmp_path):
        # was read as (1, 0)
        assert self._refused(tmp_path, '"1_1"', "[[0, 0], [true, false], [1, 1]]") == (
            "vertex 1 must be [x, y] numbers, got [True, False]")

    def test_segmentation_null_section(self, tmp_path):
        # was exported as the section "None"
        assert self._refused(tmp_path, "null", "[[0, 0], [1, 0], [1, 1]]") == (
            "section must not be null or empty, got None")

    def test_segmentation_empty_section(self, tmp_path):
        # an empty section cell is the export's off-lane mark
        assert self._refused(tmp_path, '""', "[[0, 0], [1, 0], [1, 1]]") == (
            "section must not be null or empty, got ''")

    def test_segmentation_numeric_section(self, tmp_path):
        # a number is read as its text, as before null and "" were refused
        path = tmp_path / "seg.json"
        path.write_text('[{"section": 3, "lane": 1, "polygon": [[0, 0], [1, 0], [1, 1]]}]')
        assert load_segmentation(path).lanes[0].section == "3"

    def test_segmentation_vertex_too_large_for_a_float(self, tmp_path):
        # was an uncaught OverflowError
        huge = "1" + "0" * 400
        assert self._refused(tmp_path, '"1_1"', f"[[{huge}, 0], [1, 0], [1, 1]]") == (
            "int too large to convert to float")


META = SessionMeta(
    drone_id=7,
    start_time="08:00:00.000",
    fps=FPS,
    intersection="L",
    date="2022-10-04",
    session="AM1",
)


class TestTimestamps:
    def test_first_frame_verbatim(self):
        assert frame_to_timestamp(1, META) == "08:00:00.000"

    def test_thirty_frames_is_1001_ms(self):
        assert frame_to_timestamp(31, META) == "08:00:01.001"

    def test_exact_rational_no_drift(self):
        # 30000 frames = 30000 * 1001/30000 s = 1001 s exactly
        assert frame_to_timestamp(30001, META) == "08:16:41.000"

    def test_no_drift_vs_float_accumulation(self):
        acc = 0.0
        step = 1001 / 30000
        for _ in range(53999):
            acc += step
        float_ms = int(acc * 1000)
        exact = frame_to_timestamp(54000, META)
        h, m, rest = exact.split(":")
        s, ms = rest.split(".")
        exact_ms = ((int(h) - 8) * 3600 + int(m) * 60 + int(s)) * 1000 + int(ms)
        assert exact_ms == float_ms

    def test_truncation_toward_zero(self):
        meta = SessionMeta(7, "00:00:00.000", Fraction(3), "L")
        # frame 2 -> 1/3 s = 333.33 ms -> truncates to 333
        assert frame_to_timestamp(2, meta) == "00:00:00.333"

    def test_midnight_wrap(self):
        meta = SessionMeta(1, "23:59:59.900", Fraction(10), "L")
        assert frame_to_timestamp(3, meta) == "00:00:00.100"

    def test_bad_start_time_rejected_at_construction(self):
        with pytest.raises(ValueError, match="garbage"):
            SessionMeta(1, "garbage", FPS, "L")

    @settings(max_examples=400, deadline=None)
    @given(
        fps=st.sampled_from([Fraction(30000, 1001), Fraction(24000, 1001), Fraction(25),
                             Fraction(60)]),
        hours=st.integers(0, 23),
        minutes=st.integers(0, 59),
        seconds=st.integers(0, 59),
        millis=st.sampled_from(["", ".5", ".000", ".999", ".0625", ".123456789"]),
        date=st.sampled_from(["", "2022-10-04T", "2022-10-04 "]),
        frame=st.one_of(st.integers(1, 60), st.integers(1, 10**7)),
    )
    @example(fps=Fraction(30000, 1001), hours=23, minutes=59, seconds=59, millis=".999",
             date="", frame=2)  # wraps past midnight
    @example(fps=Fraction(25), hours=23, minutes=59, seconds=59, millis=".96",
             date="2022-10-04T", frame=2)  # lands exactly on midnight
    def test_equals_the_rational_formula(self, fps, hours, minutes, seconds, millis, date,
                                         frame):
        start = f"{date}{hours:02d}:{minutes:02d}:{seconds:02d}{millis}"
        meta = SessionMeta(1, start, fps)
        clock = Fraction(hours * 3600 + minutes * 60 + seconds) + Fraction(millis or "0")
        total_ms = int((clock + Fraction(frame - 1) / fps) * 1000) % (24 * 3600 * 1000)
        h, rest = divmod(total_ms, 3_600_000)
        m, rest = divmod(rest, 60_000)
        s, ms = divmod(rest, 1000)
        assert frame_to_timestamp(frame, meta) == f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"

    def test_negative_clock_truncates_toward_zero(self):
        # -0.0005 s -> -0.5 ms truncates to 0 ms, not to -1 ms (23:59:59.999)
        meta = SessionMeta(1, "00:00:-0.0005", Fraction(25))
        assert frame_to_timestamp(1, meta) == "00:00:00.000"
        assert frame_to_timestamp(2, meta) == "00:00:00.039"


class TestFormatFixed:
    def test_round_half_away_from_zero(self):
        assert format_fixed(0.125, 2) == "0.13"
        assert format_fixed(-0.125, 2) == "-0.13"
        assert format_fixed(2.5, 0) == "3"
        assert format_fixed(123.456789, 2) == "123.46"

    def test_no_negative_zero(self):
        assert format_fixed(-0.0001, 2) == "0.00"

    def test_none_is_empty(self):
        assert format_fixed(None, 2) == ""

    def test_decimal_places(self):
        assert format_fixed(37.3800001, 7) == "37.3800001"
        assert format_fixed(5.0, 1) == "5.0"

    @pytest.mark.parametrize("places", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "value", [0.125, 2.675, -0.125, -0.004, 1e16, 1e-7, -0.0, 1000000000.000004]
    )
    def test_pinned_cases_equal_decimal(self, value, places):
        assert format_fixed(value, places) == decimal_format_fixed(value, places)

    def test_pinned_values(self):
        # repr ends on a half: rounded up although the float lies below it
        assert format_fixed(2.675, 2) == "2.68"
        assert format_fixed(0.125, 2) == "0.13"
        assert format_fixed(-0.125, 2) == "-0.13"
        assert format_fixed(-0.004, 2) == "0.00"
        assert format_fixed(-0.0, 2) == "0.00"
        assert format_fixed(1e16, 2) == "10000000000000000.00"
        assert format_fixed(1e-7, 7) == "0.0000001"
        assert format_fixed(1e-7, 3) == "0.000"
        # a repr shorter than the places is written as is, not re-rounded from
        # the float (f"{x:.7f}" would give 1000000000.0000041)
        assert format_fixed(1000000000.000004, 7) == "1000000000.0000040"

    @settings(max_examples=500, deadline=None)
    @given(
        value=st.one_of(
            st.floats(-1e18, 1e18),
            st.floats(-1.0, 1.0),
            # short decimals, so many end exactly on a half
            st.builds(lambda n, e: float(f"{n}e-{e}"), st.integers(-10**9, 10**9),
                      st.integers(1, 9)),
        ),
        places=st.sampled_from([1, 2, 3, 7]),
    )
    def test_equals_decimal_rounding_of_the_repr(self, value, places):
        assert format_fixed(value, places) == decimal_format_fixed(value, places)


def _nudged(x, ulps):
    """``x`` moved by ``ulps`` representable steps (down when negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Values that take each branch of `format_column`'s screen and of
# `format_fixed`: ties at every places + 1, a few ulps around short
# decimals, signed zeros, subnormals, |x| >= 1e15, |x| < 1e-4 and NaN.
COLUMN_EDGES = [
    0.125, 2.675, -0.125, 0.5, 1.5, -2.5, 0.05, 1.0000000005, 12.34567895,
    _nudged(0.125, 1), _nudged(0.125, -1), _nudged(-0.125, 2), _nudged(2.5, -3),
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
    1e15, -1e15, 123456789012345.67, 1e16, -9.999999999999998e17, 1000000000.000004,
    1e-5, -4e-5, 9.99e-5, 0.0001, -0.0001, -0.004, -0.049, -0.0000000049,
    math.nan, 37.3800001, 126.6400004, -1234.56,
]
# Finite doubles up to the largest, each written with all its digits.
HUGE_VALUES = st.one_of(
    st.floats(1e19, sys.float_info.max), st.floats(-sys.float_info.max, -1e19),
    st.builds(lambda n, e: float(f"{n}e{e}"), st.integers(-10**9, 10**9), st.integers(19, 298)),
)
COLUMN_VALUES = st.one_of(
    st.floats(-1e18, 1e18),
    HUGE_VALUES,
    st.just(math.nan),
    st.floats(-1e4, 1e4),
    st.floats(-1e-3, 1e-3),
    # decimals of up to 10 fractional digits: ties and short reprs at every places
    st.builds(lambda n, e: float(f"{n}e-{e}"), st.integers(-10**12, 10**12),
              st.integers(0, 10)),
    st.builds(lambda n, e, k: _nudged(float(f"{n}5e-{e}"), k), st.integers(-10**6, 10**6),
              st.integers(1, 9), st.integers(-4, 4)),
)


class TestFormatColumn:
    @pytest.mark.parametrize("places", range(9))
    def test_edge_values_equal_decimal(self, places):
        assert format_column(np.array(COLUMN_EDGES), places) == [
            decimal_format_fixed(v, places) for v in COLUMN_EDGES
        ]

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(COLUMN_VALUES, max_size=30), places=st.integers(0, 8))
    @example(values=[-0.0, 0.0, math.nan, 5e-324, 1e15, 0.00005], places=0)
    @example(values=[2.675, -2.675, 1.005, 0.125], places=2)
    def test_equals_decimal_rounding_of_every_value(self, values, places):
        assert format_column(np.array(values, dtype=float), places) == [
            decimal_format_fixed(v, places) for v in values
        ]

    def test_empty_column(self):
        assert format_column(np.zeros(0), 2) == []

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_values_format_fixed_refuses_raise_the_same(self, value):
        for call in (format_fixed, lambda v, p: format_column(np.array([v]), p)):
            with pytest.raises(SkytrajError, match=f"^cannot write {value} as a fixed-point"):
                call(value, 0)

    @settings(max_examples=300, deadline=None)
    @given(value=HUGE_VALUES, places=st.integers(0, 8))
    @example(value=1e19, places=8)
    @example(value=1e28, places=0)
    @example(value=-1.7976931348623157e308, places=8)
    def test_huge_values_keep_every_digit(self, value, places):
        cell = format_fixed(value, places)
        assert cell == decimal_format_fixed(value, places)
        assert format_column(np.array([value]), places) == [cell]
        assert Decimal(cell) == Decimal(repr(value))  # integers at this size

    def test_nan_formats_as_before(self):
        assert format_fixed(math.nan, 2) == format_column(np.array([math.nan]), 2)[0] == "NaN"


class TestOptionalCells:
    @staticmethod
    def per_value(values, places):
        return ["" if math.isnan(v) else format_fixed(v, places) for v in values]

    @pytest.mark.parametrize("places", [0, 1, 2, 7])
    def test_edge_values_with_repeats(self, places):
        values = COLUMN_EDGES + [-0.0, 0.0, 0.125, -0.125, 1e15, math.nan] + COLUMN_EDGES[::-1]
        assert dataio.optional_cells(np.array(values), places) == self.per_value(values, places)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(COLUMN_VALUES, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=30)),
        places=st.integers(0, 8),
    )
    @example(values=[0.0, -0.0, -0.0, 0.0, math.nan, -0.0], places=2)
    @example(values=[0.125, 0.135, 0.125, -0.125, 2.675, 2.675], places=2)
    @example(values=[1e15, 1e16, 1e15, -1e15, 123456789012345.67, 1e16], places=1)
    def test_equals_format_fixed_per_value(self, values, places):
        assert (dataio.optional_cells(np.array(values, dtype=float), places)
                == self.per_value(values, places))

    def test_empty(self):
        assert dataio.optional_cells(np.zeros(0), 2) == []

    @pytest.mark.parametrize("values, first", [
        ([1.0, math.inf, -math.inf], "inf"), ([-math.inf, math.inf], "-inf"),
        ([math.nan, 2.0, -math.inf, 2.0], "-inf"),
    ])
    def test_first_infinite_value_raises(self, values, first):
        with pytest.raises(SkytrajError, match=f"^cannot write {first} as a fixed-point number$"):
            dataio.optional_cells(np.array(values), 2)


def decimal_format_fixed(value, places):
    """``format_fixed`` as written before its fast paths: the repr digits
    rounded half away from zero by ``Decimal``, with every digit of any
    finite double kept."""
    quantum = Decimal(1).scaleb(-places)
    d = Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP,
                                             context=Context(prec=400))
    if d == 0:
        d = abs(d)
    return f"{d:.{places}f}"


# 10 ortho px per local meter; latitude and longitude 1e-6 degrees per px
GEO = GeoChain(
    Homography.identity(),
    GeoTransform(0.1, 0.0, 0.0, 0.1, 0.0, 0.0),
    GeoTransform(1e-6, 0.0, 0.0, 1e-6, 37.38, 126.64),
)
LANE = SegmentationMap(lanes=(LanePolygon(
    "2_1", 1, (Point2(0, 1000), Point2(4000, 1000), Point2(4000, 1200), Point2(0, 1200))
),))


def drive(track_id, n, y=1080.0, x0=600.0, step=25.0):
    """``n`` frames of one vehicle moving along +x from (x0, y)."""
    return [make_point(k, track_id, x0 + step * (k - 1), y, 180.0, 80.0) for k in range(1, n + 1)]


def export_cells(points, geo=GEO):
    """`run_pipeline`'s cells for a still camera over tracks of ``points``."""
    tracks = make_tracks(points)
    homs = {p.frame: Homography.identity() for p in tracks.points}
    return run_pipeline(
        tracks, homs, geo, SessionMeta(drone_id=7), IngestParams(), DimConfig(), KinematicsConfig()
    )


class TestExport:
    def test_length_filter_boundary(self, tmp_path):
        points = drive(1, 15, y=500.0)  # 15 points: dropped
        points += drive(2, 16, y=1500.0)  # 16 points: kept
        out = tmp_path / "songdo.csv"
        export_songdo(export_cells(points), out)
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(EXPORT_COLUMNS)
        assert len(lines) == 1 + 16
        assert all(line.startswith("2,") for line in lines[1:])

    def test_rounding_and_empty_cells(self, tmp_path):
        # vehicle 1 crosses the top border on every frame: never visible, so
        # it has no dimensions, no speed or acceleration and is off the lane
        points = [make_point(k, 1, 1234.56, 20.0, 180.0, 80.0) for k in range(1, 18)]
        points += drive(2, 17)  # visible, moving along the lane
        out = tmp_path / "songdo.csv"
        export_songdo(export_cells(points, replace(GEO, segmentation=LANE)), out)
        body = [dict(zip(EXPORT_COLUMNS, line.split(",")))
                for line in out.read_text().strip().split("\n")[1:]]
        hidden, moving = body[0], body[-1]
        assert hidden["Ortho_X"] == "1234.6"
        assert hidden["Local_X"] == "123.46"
        assert hidden["Latitude"] == "37.3812346"
        for column in ["Vehicle_Length", "Vehicle_Width", "Vehicle_Speed",
                       "Vehicle_Acceleration", "Road_Section", "Lane_Number"]:
            assert hidden[column] == ""
        assert hidden["Visibility"] == "0"
        # places: 1 for ortho px and km/h, 2 for meters and m/s^2, 7 for degrees
        for column, places in [("Ortho_Y", 1), ("Local_Y", 2), ("Longitude", 7),
                               ("Vehicle_Length", 2), ("Vehicle_Width", 2),
                               ("Vehicle_Speed", 1), ("Vehicle_Acceleration", 2)]:
            assert re.fullmatch(rf"-?\d+\.\d{{{places}}}", moving[column]), column
        assert (moving["Road_Section"], moving["Lane_Number"]) == ("2_1", "1")
        assert moving["Visibility"] == "1"

    def test_sorted_and_deterministic(self, tmp_path):
        points = drive(9, 16, y=300.0) + drive(3, 18, y=900.0) + drive(5, 17, y=1500.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_songdo(export_cells(points), a)
        export_songdo(export_cells(points), b)
        assert a.read_bytes() == b.read_bytes()
        body = [line.split(",") for line in a.read_text().strip().split("\n")[1:]]
        # (id, frame) order: Local_Time grows with the frame
        keys = [(int(cells[0]), cells[1]) for cells in body]
        assert keys == sorted(keys)
        assert [k[0] for k in keys] == [3] * 18 + [5] * 17 + [9] * 16

    @pytest.mark.parametrize(
        "first_y, message",
        [
            # vehicle 1 is visible: its dimension step maps the frame center,
            # which lies on the horizon, before vehicle 2 comes up
            (1080.0, "id 1: point Point2(x=1920.0, y=1080.0) maps to projective infinity"),
            # vehicle 1 crosses the top border, so it has no dimension step
            (20.0, "id 2: point Point2(x=1920.0, y=20.0) maps to projective infinity"),
        ],
        ids=["earlier-dimension-error", "later-vehicle-center"],
    )
    def test_projective_infinity_raises_in_vehicle_order(self, first_y, message):
        # the ref->ortho map sends the line x = 1920 to projective infinity;
        # vehicle 2 (hidden) has its frame-9 center on it
        horizon = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-1 / 1920, 0, 1]])
        points = drive(1, 17, y=first_y) + drive(2, 17, y=20.0, x0=1720.0)
        with pytest.raises(SkytrajError) as err:
            export_cells(points, replace(GEO, ref_to_ortho=horizon))
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, DegenerateProjection)

    def test_short_vehicle_on_the_horizon_is_cut_without_raising(self):
        # as above, but vehicle 2 has 15 points, so the export drops it
        # before its center at infinity is looked at
        horizon = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-1 / 1920, 0, 1]])
        geo = replace(GEO, ref_to_ortho=horizon)
        kept = drive(1, 17, y=20.0)
        assert (export_cells(kept + drive(2, 15, y=20.0, x0=1720.0), geo)
                == export_cells(kept, geo))

    def test_reparse_round_trip_at_printed_precision(self, tmp_path):
        tracks = make_tracks(drive(1, 20))
        boxes, visible = stabilize_tracks(tracks.columns(), tracks.frame_size,
                                          {k: Homography.identity() for k in range(2, 21)})
        stab = [with_box(p, box) for p, box in zip(tracks.points, boxes.tolist())]
        kin = KinematicsConfig()
        out = tmp_path / "songdo.csv"
        export_songdo(export_cells(tracks.points), out)
        positions = georeference_points(stab, tracks.frame_size, GEO)
        profile = compute_profile(
            np.array([p.frame for p in tracks.points]),
            np.array([g.local.x for g in positions]), np.array([g.local.y for g in positions]),
            kin,
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        speeds = 0
        for cells, p, g, shown in zip(rows, tracks.points, positions, visible.tolist()):
            assert float(cells["Ortho_X"]) == pytest.approx(g.ortho.x, abs=0.05)
            assert float(cells["Local_X"]) == pytest.approx(g.local.x, abs=0.005)
            assert float(cells["Latitude"]) == pytest.approx(g.wgs.x, abs=5e-8)
            at = p.frame - profile.frames[0]
            speed = profile.speed_smooth[at] * 3.6
            if not shown or math.isnan(speed):
                assert cells["Vehicle_Speed"] == ""
            else:
                speeds += 1
                assert float(cells["Vehicle_Speed"]) == pytest.approx(speed, abs=0.05)
        assert speeds == 19  # frame 1 has no predecessor

    def test_sidecar_loader(self, tmp_path):
        p = tmp_path / "v.yaml"
        p.write_text("frame_width: 3840\nframe_height: 2160\nfps: 30000/1001\n")
        sc = load_sidecar(p)
        assert sc.fps == FPS
        assert sc.n_frames is None

    @pytest.mark.parametrize("fps", ["true", "false"])
    def test_sidecar_boolean_fps_is_refused(self, tmp_path, fps):
        """``Fraction(True)`` is 1: a boolean frame rate would scale every
        timestamp and speed without an error."""
        p = tmp_path / "v.yaml"
        p.write_text(f"frame_width: 3840\nframe_height: 2160\nfps: {fps}\n")
        message = f"bad sidecar value: fps must be a number, got {fps.title()}$"
        with pytest.raises(ParseError, match=message):
            load_sidecar(p)


# --- DictReader reference of the table reader ---------------------------------


def _dict_reader_cells(path, required, optional):
    """The cells `_csv_cells` reads, by a `csv.DictReader` loop as the
    table reader ran before it took cells by header index: a repeated name
    means its last column, a short row's missing cells are None, extra
    cells go to the None key, blank rows are skipped.

    ``reader.line_num`` is the returned row's own line even after blank
    rows: `DictReader.__next__` copies the count before it skips them, but
    reads its ``fieldnames`` property again to build the dict, and that
    copies it once more."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            error = ParseError(f"missing columns {missing}", line=1, path=path)
            return {c: [] for c in required}, [], error
        names = [*required, *(c for c in optional if c in header)]
        cells = {c: [] for c in names}
        lines = []
        for row in reader:
            for c in names:
                cells[c].append(row[c])
            lines.append(reader.line_num)
    return cells, lines, None


def _dict_reader():
    """Every CSV file read as `_dict_reader_cells` reads it, plain files too."""
    return mock.patch.multiple(
        dataio, _plain_cells=mock.Mock(return_value=None),
        _csv_cells=lambda text, required, optional, path, error:
            _dict_reader_cells(path, required, optional),
    )


def _tracks_outcome(load, path):
    try:
        tracks = load(path)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    return [
        (p.frame, p.track_id, p.detection.cls,
         *(v.hex() for v in (*p.detection.bbox, p.detection.score)))
        for p in tracks.points
    ]


def _both_readers(load, path):
    with _dict_reader():
        ref = _tracks_outcome(load, path)
    return _tracks_outcome(load, path), ref


# cells that a track row reads differently from a number, or rejects
_ODD_TRACK_CELLS = ["nan", "inf", "", "x", " 0.5", "1.0", '"2"', "-1", "0", "2"]


@st.composite
def _track_files(draw) -> str:
    """Track CSV text: valid rows with short, long, blank, bad-cell, NaN and
    duplicate rows mixed in, under a shuffled header that may carry an
    extra, a repeated or a ``visible`` column."""
    cols = list(dataio.TRACK_COLUMNS)
    extra = draw(st.lists(st.sampled_from(["visible", "note", "cx"]), unique=True, max_size=2))
    header = draw(st.permutations(cols + [c for c in extra if c != "cx"]))
    if "cx" in extra:
        header.insert(draw(st.integers(0, len(header))), "cx")  # a repeated name
    lines = [",".join(header)]
    unit = st.sampled_from(["0.0", "0.25", "0.5", "1.0"]) | st.floats(0.0, 1.0).map(repr)
    cell_of = {
        "frame": st.integers(1, 4).map(str), "id": st.integers(1, 3).map(str),
        "class": st.integers(0, 3).map(str), "score": st.sampled_from(["0.5", "1.0", "0.9"]),
        "visible": st.sampled_from(["0", "1"]), "note": st.sampled_from(["a", ""]),
    }
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 14))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", ","])))  # blank-ish
            continue
        if kind == 1 and len(lines) > 1:
            lines.append(draw(st.sampled_from(lines[1:])))  # a repeated row
            continue
        cells = [draw(cell_of.get(c, unit)) for c in header]
        if kind == 2:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_ODD_TRACK_CELLS))
        elif kind == 3:
            cells = cells[: draw(st.integers(0, len(cells) - 1))]  # short
        elif kind == 4:
            cells += draw(st.lists(unit, min_size=1, max_size=2))  # long
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


class TestTableReaderMatchesDictReader:
    LOADERS = [
        lambda p: load_tracks(p, SIDECAR),
        lambda p: load_tracks(p, SIDECAR, require_unit_range=False),
    ]

    @settings(max_examples=400, deadline=None)
    @given(text=_track_files(), unit_range=st.booleans())
    @example(text="frame,id,cx,cy,w,h,class,score\n", unit_range=True)  # header only
    @example(text="", unit_range=True)  # no header
    @example(text="frame,id,cx,cy,w,h,class,score\n1,1,0.5,0.5,0.1,0.1,0\n", unit_range=True)
    @example(text="frame,id,cx,cy,w,h,class,score,visible\n1,1,0.5,0.5,0.1,0.1,0,0.9\n",
             unit_range=False)  # short row: visible reads as None
    @example(text="frame,id,cx,cy,w,h,class,score\n1,1,0.5,0.5,0.1,0.1,0,0.9,7,8\n",
             unit_range=True)  # long row
    @example(text="frame,id,cx,cy,w,h,class,score\n\n1,1,0.5,0.5,0.1,0.1,0,0.9\n\n"
                  "2,1,x,0.5,0.1,0.1,0,0.9\n", unit_range=True)  # blank rows keep lines
    @example(text="frame,id,cx,cy,w,h,class,score\n1,1,nan,0.5,0.1,0.1,0,0.9\n",
             unit_range=False)
    @example(text="frame,id,cx,cy,w,h,class,score\n1,1,0.5,0.5,0.1,0.1,0,0.9\n"
                  "1,1,0.5,0.5,0.1,0.1,0,0.9\n", unit_range=True)  # duplicate
    @example(text="frame,cx,id,cx,cy,w,h,class,score\n1,9,1,0.5,0.5,0.1,0.1,0,0.9\n",
             unit_range=True)  # a repeated name reads its last column
    def test_track_files(self, text, unit_range):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.csv"
            path.write_bytes(text.encode())
            got, ref = _both_readers(self.LOADERS[unit_range], path)
            assert got == ref

    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_local_trajectories, "id,frame,x,y,visible\n1,1,0,0,1\n\n1,2,3\n"),
            (load_local_trajectories, "frame,id,x,y,note\n1,1,0,0\n2,1,1,1,a,b\n"),
            (load_probe_trajectory, "t,x,y,speed\n0,1,2,30\n0.1,1,2\n"),
            (load_probe_trajectory, "speed,t,x,y\n30,0,1,2,9\n\n31,0.1,1,x\n"),
            (load_candidate_trajectory, "frame,x,y,speed\n1,1,2,30\n2,nan,2,30\n"),
            (load_candidate_trajectory, "frame,x,y,speed\n1.5,1,2,30\n"),
        ],
    )
    def test_trajectory_files(self, tmp_path, loader, text):
        path = tmp_path / "t.csv"
        path.write_text(text)

        def outcome():
            try:
                got = loader(path)
            except ParseError as exc:
                return type(exc).__name__, str(exc)
            if isinstance(got, dict):  # trajectories by id, as column lists
                return {vid: [c.tolist() for c in track] for vid, track in got.items()}
            return got.tolist() if isinstance(got, np.ndarray) else got

        with _dict_reader():
            ref = outcome()
        assert outcome() == ref


# --- columnar track loader against the row-by-row reference --------------------

# Cells that int() and float() read differently from a numpy cast, keys
# beyond 2**62 and beyond int64, non-finite and out-of-range values.
_INT_EDGES = ["1_000", " 3", "3 ", "+2", "0", "-1", str(2**62), str(2**62 + 1), str(2**63),
              str(10**30), str(-10**30)]
_FLOAT_EDGES = ["nan", "inf", "-inf", "-0.0", "1e400", "-1e-300", "1.0000000000000002", "1.5",
                "0", "1", "1_0.5", " 0.5", "0.5 ", "-0.5"]
_TRACK_EDGES = {
    "frame": _INT_EDGES, "id": _INT_EDGES, "class": _INT_EDGES + ["3", "4"],
    "cx": _FLOAT_EDGES, "cy": _FLOAT_EDGES, "w": _FLOAT_EDGES, "h": _FLOAT_EDGES,
    "score": _FLOAT_EDGES + ["1e-320", "0.9999999999999999"], "visible": ["2", "", "x", " 1"],
    "note": ["x"],
}


@st.composite
def _corrupted_track_files(draw) -> tuple[str, VideoSidecar]:
    """A track CSV text and its sidecar: mostly plain rows, with edge cells,
    duplicate keys and malformed cells placed at random rows, sometimes in
    a file that is not plain (CRLF, a quoted cell, a blank or short row)."""
    n_frames = draw(st.sampled_from([None, 3, 4, 2**62, 2**63]))
    n_classes = draw(st.sampled_from([1, 4, 5, 2**62]))
    sidecar = VideoSidecar(3840, 2160, FPS, n_frames=n_frames, n_classes=n_classes)
    extra = draw(st.lists(st.sampled_from(["visible", "note"]), unique=True))
    header = draw(st.permutations(dataio.TRACK_COLUMNS + extra))
    unit = st.sampled_from(["0.0", "0.25", "1.0", "0.5"]) | st.floats(0.0, 1.0).map(repr)
    cell_of = {
        "class": st.integers(0, 1).map(str), "score": st.sampled_from(["0.5", "1.0", "1e-3"]),
        "visible": st.sampled_from(["0", "1"]), "note": st.just("a"),
    }
    keys = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), unique=True,
                         min_size=1, max_size=10))
    rows = [
        [str(key[("frame", "id").index(c)]) if c in ("frame", "id") else draw(cell_of.get(c, unit))
         for c in header]
        for key in keys
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        kind = draw(st.integers(0, 5))
        if kind == 0:  # a malformed cell
            row[draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(["x", "", "1.5e"]))
        elif kind == 1:  # the key of another row
            other = draw(st.sampled_from(rows))
            for c in ("frame", "id"):
                row[header.index(c)] = other[header.index(c)]
        else:  # an edge cell
            k = draw(st.integers(0, len(header) - 1))
            row[k] = draw(st.sampled_from(_TRACK_EDGES[header[k]]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 4)) == 0 and len(lines) > 1:  # not plain
        k = draw(st.integers(1, len(lines) - 1))
        lines[k] = draw(st.sampled_from(['"{}"', "{}\n", "{}\n\n", "{},x", "{}"])).format(lines[k])
        if draw(st.booleans()):
            lines[k] = lines[k].rsplit(",", 1)[0]  # short
    newline = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), sidecar


def _points_or_error(load, path, sidecar, unit_range):
    try:
        tracks = load(path, sidecar, require_unit_range=unit_range)
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.line
    values = [(p.frame, p.track_id, p.detection.cls, *p.detection.bbox, p.detection.score)
              for p in tracks.points]
    assert {type(v) for row in values for v in row} <= {int, float}
    return tracks.frame_size, [[v.hex() if isinstance(v, float) else v for v in row]
                               for row in values]


class TestTrackLoaderMatchesRowLoop:
    PLAIN = "id,frame,cx,cy,w,h,class,score,visible\n2,1,0.5,0.5,0.1,0.1,0,0.9,1\n" \
            "1,2,0.25,0.5,0.1,0.1,1,1.0,0\n1,1,1,0,0.1,0,0,0.5,1\n"

    @settings(max_examples=500, deadline=None)
    @given(file=_corrupted_track_files(), unit_range=st.booleans())
    @example(file=(PLAIN, SIDECAR), unit_range=True)
    @example(file=(PLAIN.split("\n", 1)[0], SIDECAR), unit_range=True)  # header only
    @example(file=(PLAIN.replace("1,2,0.25", f"{10**30},2,0.25"), SIDECAR), unit_range=True)
    @example(file=(PLAIN.replace(",0,0.9", f",{2**62 - 1},0.9"),
                   VideoSidecar(3840, 2160, FPS, n_classes=2**62)), unit_range=True)
    @example(file=(PLAIN.replace(",0,0.9", f",{2**63},0.9"),
                   VideoSidecar(3840, 2160, FPS, n_classes=2**62)), unit_range=True)
    @example(file=(PLAIN.replace("0.5,0.5,0.1", "nan,0.5,-1") + "x\n", SIDECAR), unit_range=False)
    @example(file=(PLAIN + "1,1,0.5,0.5,0.1,0.1,0,0.9,1\n", SIDECAR), unit_range=True)
    @example(file=(PLAIN + "x\n1,1,0.5,0.5,0.1,0.1,0,0.9,1\n", SIDECAR), unit_range=True)
    def test_equals_the_row_loop(self, file, unit_range):
        text, sidecar = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.csv"
            path.write_bytes(text.encode())
            got = _points_or_error(load_tracks, path, sidecar, unit_range)
            assert got == _points_or_error(reference.load_tracks, path, sidecar, unit_range)

    @pytest.mark.parametrize(
        "text, plain",
        [
            (PLAIN, True),
            (PLAIN.replace("0,0.9", "7,0.9"), True),  # a failed check keeps the table
            (PLAIN.replace("2,1,", "1_000,1,"), True),
            (PLAIN.replace("\n", "\r\n"), False),
            (PLAIN.replace("0.9", '"0.9"'), False),
            (PLAIN + "1,3,0.5\n", False),  # short row
            (PLAIN + "\n1,3,0.5,0.5,0.1,0.1,0,0.9,1\n", False),  # blank row
            (PLAIN.replace("0.9,1", "0.9,2"), True),  # visible not 0/1
            (PLAIN.replace("0.9", "x"), True),
            ("", False),
        ],
        ids=["plain", "failed-check", "underscore", "crlf", "quote", "short", "blank",
             "visible", "malformed", "empty"],
    )
    def test_only_other_files_go_row_by_row(self, tmp_path, text, plain):
        path = tmp_path / "tracks.csv"
        path.write_bytes(text.encode())
        read_rows = mock.Mock(wraps=dataio._csv_cells)
        with mock.patch.object(dataio, "_csv_cells", read_rows):
            got = _points_or_error(load_tracks, path, SIDECAR, True)
        assert read_rows.called is not plain
        assert got == _points_or_error(reference.load_tracks, path, SIDECAR, True)
