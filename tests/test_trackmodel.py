import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    PIPELINE_ARGS,
    build_pipeline_fixture,
    detection_table,
    drift,
    make_point,
    make_tracks,
    rotation,
    scenario_points,
    translation,
    write_tracks_csv,
)
from reference import bbox_iou, bbox_visible_px, box_corners, denormalize_bbox, transform_bbox
from skytraj.cli import main
from skytraj.dataio import load_sidecar
from skytraj.errors import DegenerateProjection, MissingHomography, SkytrajError
from skytraj.geometry import Homography, Point2
from skytraj.pipeline import IngestParams
from skytraj.trackmodel import (
    Detection,
    TrackPoint,
    VideoTracks,
    frame_groups,
    ingest_keep_indices,
    refine_classes,
    stabilize_tracks,
    visible_flags,
)
from test_perfbench_hooks import _load_tracer as load_tracer


def det(cx, cy, w, h, cls=0, score=0.9):
    return Detection((float(cx), float(cy), float(w), float(h)), cls, score)


class TestIngestFilter:
    def test_score_threshold_boundary(self):
        dets = [det(0.5, 0.5, 0.1, 0.1, score=0.24), det(0.2, 0.2, 0.1, 0.1, score=0.25)]
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [1]

    def test_identical_boxes_keep_best(self):
        dets = [det(0.5, 0.5, 0.1, 0.1, score=0.8), det(0.5, 0.5, 0.1, 0.1, score=0.9)]
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [1]

    def test_disjoint_boxes_kept(self):
        dets = [det(0.2, 0.2, 0.1, 0.1), det(0.8, 0.8, 0.1, 0.1, score=0.5)]
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [0, 1]

    def test_class_agnostic(self):
        dets = [
            det(0.5, 0.5, 0.1, 0.1, cls=0, score=0.9),
            det(0.5, 0.5, 0.1, 0.1, cls=3, score=0.8),
        ]
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [0]

    def test_score_tie_prefers_input_order(self):
        dets = [det(0.5, 0.5, 0.1, 0.1, score=0.9), det(0.5, 0.5, 0.1, 0.1, score=0.9)]
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [0]

    def test_kept_set_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dets = [
                det(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2),
                    score=float(rng.uniform(0.05, 1.0)))
                for _ in range(rng.integers(1, 20))
            ]
            kept = [dets[i] for i in ingest_keep_indices(detection_table(dets), 0.25, 0.5)]
            assert all(d.score >= 0.25 for d in kept)
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    assert bbox_iou(a.bbox, b.bbox) <= 0.5


def pairwise_keep_indices(dets, score_min, nms_iou):
    """The greedy loop calling `bbox_iou` pair by pair, as NMS ran before the
    IoU matrix: the reference the matrix version must equal."""
    candidates = [i for i, d in enumerate(dets) if d.score >= score_min]
    order = sorted(candidates, key=lambda i: -dets[i].score)
    kept = []
    for i in order:
        if all(bbox_iou(dets[i].bbox, dets[j].bbox) <= nms_iou for j in kept):
            kept.append(i)
    return sorted(kept)


# Coordinates and sizes on a coarse grid (so boxes coincide, touch and
# nest), with zero sizes; scores from a short list, so ties are common.
_coord = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75]), st.floats(0.0, 1.0))
_size = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.5]), st.floats(0.0, 0.6))
_score = st.one_of(st.sampled_from([0.25, 0.5, 0.9, 1.0]), st.floats(0.01, 1.0))
_dets = st.lists(
    st.builds(det, _coord, _coord, _size, _size, score=_score), min_size=0, max_size=25
)
_dyadic = st.integers(0, 64).map(lambda k: k / 64)
_dyadic_dets = st.lists(
    st.builds(det, _dyadic, _dyadic, st.integers(0, 16).map(lambda k: k / 32),
              st.integers(0, 16).map(lambda k: k / 32), score=_score),
    min_size=0, max_size=25,
)
# Coordinates and sizes with NaN, +-inf, overflowing and negative values.
_odd = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0, -0.1, 0.5]),
    st.floats(-1.0, 1.0),
)
_odd_dets = st.lists(st.builds(det, _odd, _odd, _odd, _odd, score=_score), min_size=0, max_size=25)


def dense_frame(rng, n: int, spread: float) -> list[Detection]:
    """``n`` detections on a 3840 x 2160 frame, 60-80 px wide and 30-80 px
    high, centers in the left ``spread`` of the width; a third are copies
    of others shifted by up to 6 px. Scores repeat, so ties are common."""
    cx, cy = rng.uniform(0.0, spread, n), rng.uniform(0.0, 1.0, n)
    w, h = rng.uniform(60, 80, n) / 3840, rng.uniform(30, 80, n) / 2160
    copy = rng.random(n) < 1 / 3
    src = rng.integers(0, n, n)[copy]
    cx[copy] = cx[src] + rng.uniform(-6, 6, len(src)) / 3840
    cy[copy] = cy[src] + rng.uniform(-6, 6, len(src)) / 2160
    w[copy], h[copy] = w[src], h[src]
    score = rng.choice([0.2, 0.3, 0.5, 0.9], n) + np.where(rng.random(n) < 0.5, 0.0, 0.05)
    return [det(*box, score=float(s)) for *box, s in zip(cx, cy, w, h, score)]


class TestMatrixNmsMatchesPairwise:
    @settings(max_examples=300, deadline=None)
    @given(dets=_dets, nms_iou=st.floats(0.01, 0.99), score_min=st.sampled_from([0.25, 0.5]))
    def test_random_frames(self, dets, nms_iou, score_min):
        table = detection_table(dets)
        assert ingest_keep_indices(table, score_min, nms_iou) == pairwise_keep_indices(
            dets, score_min, nms_iou
        )

    @settings(max_examples=200, deadline=None)
    @given(dets=_dets.filter(lambda d: len(d) >= 2), data=st.data())
    def test_threshold_equal_to_an_iou(self, dets, data):
        # nms_iou set to the exact IoU of one pair: that pair must not
        # suppress (IoU <= nms_iou keeps), in both versions.
        ious = sorted(
            {iou for a in dets for b in dets if 0.0 < (iou := bbox_iou(a.bbox, b.bbox)) < 1.0}
        )
        if not ious:
            return
        nms_iou = data.draw(st.sampled_from(ious))
        table = detection_table(dets)
        assert ingest_keep_indices(table, 0.25, nms_iou) == pairwise_keep_indices(
            dets, 0.25, nms_iou
        )

    def test_iou_exactly_at_threshold_keeps(self):
        a, b = det(0.5, 0.5, 0.2, 0.2, score=0.9), det(0.55, 0.5, 0.2, 0.2, score=0.8)
        iou = bbox_iou(a.bbox, b.bbox)
        assert ingest_keep_indices(detection_table([a, b]), 0.25, iou) == [0, 1]
        assert ingest_keep_indices(detection_table([a, b]), 0.25, math.nextafter(iou, 0.0)) == [0]

    def test_duplicates_zero_area_and_ties(self):
        dets = [
            det(0.5, 0.5, 0.0, 0.2, score=0.9),  # zero width: IoU 0 with all
            det(0.5, 0.5, 0.2, 0.2, score=0.8),
            det(0.5, 0.5, 0.2, 0.2, score=0.8),  # duplicate, same score: later loses
            det(0.5, 0.5, 0.0, 0.0, score=0.95),  # a point
            det(0.52, 0.5, 0.2, 0.2, score=0.85),  # drops both of the 0.8 boxes
        ]
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [0, 3, 4]
        assert pairwise_keep_indices(dets, 0.25, 0.7) == [0, 3, 4]

    def test_suppressed_box_does_not_suppress(self):
        # 0 drops 1; 1 would drop 2, but a dropped box drops nothing.
        dets = [det(0.50, 0.5, 0.2, 0.2, score=0.9), det(0.53, 0.5, 0.2, 0.2, score=0.8),
                det(0.56, 0.5, 0.2, 0.2, score=0.7)]
        assert bbox_iou(dets[0].bbox, dets[2].bbox) <= 0.7 < bbox_iou(dets[1].bbox, dets[2].bbox)
        assert ingest_keep_indices(detection_table(dets), 0.25, 0.7) == [0, 2]

    @pytest.mark.parametrize("n, spread", [(200, 1.0), (450, 1.0), (800, 1.0), (300, 0.02)])
    def test_dense_frames(self, n, spread):
        """A 4K frame with hundreds of 60-80 px wide boxes, a third of them
        shifted copies of others; ``spread`` 0.02 packs every center into
        one 77 px wide column, so nearly every pair overlaps on x."""
        dets = dense_frame(np.random.default_rng(n), n, spread)
        table = detection_table(dets)
        got = ingest_keep_indices(table, 0.25, 0.7)
        assert len(got) < sum(d.score >= 0.25 for d in dets)  # NMS drops boxes
        assert got == pairwise_keep_indices(dets, 0.25, 0.7)
        assert got == reference.matrix_keep_indices(table, 0.25, 0.7)

    def test_touching_edges_shared_x_min_and_zero_width(self):
        # Dyadic edges, so cx +- w/2 is exact.
        dets = [
            det(0.25, 0.5, 0.125, 0.25, score=0.9),  # x in [0.1875, 0.3125]
            det(0.375, 0.5, 0.125, 0.25, score=0.8),  # touches 0 on the right: ix == 0
            det(0.25, 0.5, 0.125, 0.25, score=0.85),  # equals 0: dropped by it
            det(0.3125, 0.5, 0.0, 0.25, score=0.95),  # zero width on the shared edge
            det(0.28125, 0.5, 0.1875, 0.25, score=0.7),  # x-min of 0; IoU 2/3 with 0
        ]
        table = detection_table(dets)
        assert ingest_keep_indices(table, 0.25, 0.7) == [0, 1, 3, 4]
        assert ingest_keep_indices(table, 0.25, 0.6) == [0, 1, 3]
        for nms_iou in (0.6, 0.7):
            assert ingest_keep_indices(table, 0.25, nms_iou) == pairwise_keep_indices(
                dets, 0.25, nms_iou)

    @settings(max_examples=300, deadline=None)
    @given(dets=_dyadic_dets, nms_iou=st.sampled_from([0.125, 0.25, 0.5, 0.7]))
    def test_dyadic_grid(self, dets, nms_iou):
        """Edges on a 1/64 grid: touching edges, shared x-mins and zero widths
        are common, and every edge is exact."""
        table = detection_table(dets)
        got = ingest_keep_indices(table, 0.25, nms_iou)
        assert got == pairwise_keep_indices(dets, 0.25, nms_iou)
        assert got == reference.matrix_keep_indices(table, 0.25, nms_iou)

    @settings(max_examples=300, deadline=None)
    @given(dets=_odd_dets, nms_iou=st.floats(0.01, 0.99))
    @example(dets=[det(math.inf, 0.5, 0.1, 0.1), det(math.inf, 0.5, 0.2, 0.1, score=0.8)],
             nms_iou=0.5)
    @example(dets=[det(0.5, 0.5, math.nan, 0.1, score=0.5), det(0.9, 0.5, 0.1, 0.1)],
             nms_iou=0.5)
    @example(dets=[det(0.5, 0.5, 0.1, math.nan), det(0.5, 0.5, -0.2, 0.1, score=0.8),
                   det(0.5, 0.5, math.inf, 0.1, score=0.7)], nms_iou=0.5)
    def test_non_finite_edges_and_negative_sizes(self, dets, nms_iou):
        """NaN and +-inf edges and negative sizes keep what the IoU matrix
        kept: a box with a non-finite x edge meets every other box."""
        table = detection_table(dets)
        assert ingest_keep_indices(table, 0.25, nms_iou) == reference.matrix_keep_indices(
            table, 0.25, nms_iou)


def counted_point_objects(monkeypatch) -> list[str]:
    """The class name of each `TrackPoint` and `Detection` built from now on."""
    built = []

    def counted(init):
        def wrapped(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return wrapped

    for cls in (TrackPoint, Detection):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    return built


def shadowed_fixture(root):
    """The CLI pipeline fixture, with vehicle 1 shadowed by a box 5 px to its
    right (id 5, class 1, score 0.7) in each frame, which NMS drops."""
    paths = build_pipeline_fixture(root)
    shadows = [make_point(k, 5, 605.0 + 25.0 * (k - 1) - drift(k)[0], 1080.0 - drift(k)[1],
                          180.0, 80.0, cls=1, score=0.7) for k in range(1, 21)]
    write_tracks_csv(paths["tracks"], scenario_points() + shadows)
    return paths


def pipeline_argv(paths, output):
    return [str(a) for a in [
        "pipeline", "--tracks", paths["tracks"], "--sidecar", paths["sidecar"],
        "--homographies", paths["homographies"], "--registry", paths["registry"],
        "--segmentation", paths["segmentation"], "--output", output, *PIPELINE_ARGS,
    ]]


def reference_front_end_counts(paths, params: IngestParams) -> dict[str, int]:
    """The tracer's ingest and class-vote counts of the per-point chain: the
    row-by-row loader, the pairwise NMS of each frame's `Detection`s in
    point order and the dict-loop vote."""
    points = reference.load_tracks(paths["tracks"], load_sidecar(paths["sidecar"])).points
    by_frame: dict[int, list] = {}
    for p in points:
        by_frame.setdefault(p.frame, []).append(p)
    kept = []
    for frame in sorted(by_frame):
        rows = by_frame[frame]
        kept += [rows[k] for k in pairwise_keep_indices(
            [p.detection for p in rows], params.score_min, params.nms_iou)]
    kept.sort(key=lambda p: (p.track_id, p.frame))
    above = sum(p.detection.score >= params.score_min for p in points)
    refined = reference.refine_classes(kept)
    return {
        "trackmodel.ingest.boxes_in": len(points),
        "trackmodel.ingest.dropped_score": len(points) - above,
        "trackmodel.ingest.dropped_nms": above - len(kept),
        "trackmodel.ingest.max_boxes_per_frame": max(map(len, by_frame.values())),
        "trackmodel.refine_classes.flips": sum(
            a.detection.cls != b.detection.cls for a, b in zip(kept, refined)),
    }


class TestFrontEndOnTheCliFixture:
    def test_an_untraced_pipeline_builds_no_point_objects(self, tmp_path, monkeypatch):
        paths = shadowed_fixture(tmp_path / "fixture")
        built = counted_point_objects(monkeypatch)
        assert main(pipeline_argv(paths, tmp_path / "out.csv")) == 0
        assert built == []

    def test_traced_counts_equal_the_per_point_chain(self, tmp_path):
        paths = shadowed_fixture(tmp_path / "fixture")
        want = reference_front_end_counts(paths, IngestParams())
        assert all(want.values())  # every counter sees work
        tracer = load_tracer().Tracer()
        tracer.install()
        try:
            assert main(pipeline_argv(paths, tmp_path / "out.csv")) == 0
        finally:
            tracer.uninstall()
        assert tracer.absent == set()
        assert {name: tracer.counts[name] for name in want} == want


class TestRefineClasses:
    def test_score_mass_wins(self):
        pts = [
            make_point(1, 1, 100, 100, 10, 10, cls=0, score=0.9),
            make_point(2, 1, 100, 100, 10, 10, cls=0, score=0.8),
            make_point(3, 1, 100, 100, 10, 10, cls=2, score=0.95),
        ]
        out = refine_classes(make_tracks(pts))
        assert all(p.detection.cls == 0 for p in out.points)

    def test_single_point_unchanged(self):
        pts = [make_point(1, 1, 100, 100, 10, 10, cls=3, score=0.5)]
        out = refine_classes(make_tracks(pts))
        assert out.points[0].detection.cls == 3

    def test_exact_tie_lowest_class(self):
        pts = [
            make_point(1, 1, 100, 100, 10, 10, cls=3, score=0.9),
            make_point(2, 1, 100, 100, 10, 10, cls=1, score=0.9),
        ]
        out = refine_classes(make_tracks(pts))
        assert all(p.detection.cls == 1 for p in out.points)

    # Scores whose sums depend on the order they are added in
    # (0.1 + 0.2 + 0.3 > 0.6 == 0.3 + 0.2 + 0.1), and a few or many classes.
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.integers(1, 4),
        st.one_of(st.integers(0, 3), st.integers(0, 2**62)),
        st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.9]), st.floats(1e-6, 1.0)),
    ), max_size=40))
    @example(rows=[(1, 2, 0.1), (1, 2, 0.2), (1, 2, 0.3), (1, 1, 0.6)])  # class 2, in row order
    @example(rows=[(1, 3, 0.9), (1, 1, 0.9), (2, 0, 0.5)])  # an exact tie
    def test_vote_equals_the_dict_loop(self, rows):
        pts = [make_point(k, tid, 100, 100, 10, 10, cls=cls, score=score)
               for k, (tid, cls, score) in enumerate(rows, 1)]
        tracks = make_tracks(pts)
        assert refine_classes(tracks).points == reference.refine_classes(tracks.points)

    def test_idempotent_and_preserving(self):
        rng = np.random.default_rng(2)
        pts = [
            make_point(k, tid, 100 + 5 * k, 200, 20, 10,
                       cls=int(rng.integers(0, 4)),
                       score=float(rng.uniform(0.1, 1.0)))
            for tid in (1, 2, 3)
            for k in range(1, int(rng.integers(2, 7)))
        ]
        tracks = make_tracks(pts)
        once = refine_classes(tracks)
        twice = refine_classes(once)
        assert once.points == twice.points
        for before, after in zip(tracks.points, once.points):
            assert before.frame == after.frame
            assert before.track_id == after.track_id
            assert before.detection.score == after.detection.score
            assert before.detection.bbox == after.detection.bbox


def visible(box, frame_size, margin):
    """`visible_flags` of one pixel box."""
    return bool(visible_flags(np.array([box], dtype=float), frame_size, margin)[0])


EDGE = st.one_of(st.sampled_from([0.0, 4.0, 5.0, 50.0, 1019.0, 1024.0, math.inf, -math.inf,
                                  math.nan]), st.floats(-50.0, 1100.0))


class TestVisibilityFlag:
    frame_size = (3840, 2160)

    def test_central_box_visible(self):
        assert visible((1920, 1080, 100, 50), self.frame_size, 4.0) is True

    def test_left_edge_violation(self):
        size = (1024, 1024)
        assert visible((52, 512, 100, 50), size, 4.0) is False  # xmin = 2

    def test_boundary_is_strict(self):
        size = (1024, 1024)
        assert visible((54, 512, 100, 50), size, 4.0) is False  # xmin = 4 exactly

    def test_just_inside(self):
        size = (1024, 1024)
        assert visible((55, 512, 100, 50), size, 4.0) is True  # xmin = 5 > 4

    def test_right_margin_uses_plus_one(self):
        size = (1024, 1024)
        # xmax must be < 1024 - 5 = 1019; cx = 969, w = 100 -> xmax = 1019
        assert visible((969, 512, 100, 50), size, 4.0) is False
        assert visible((968, 512, 100, 50), size, 4.0) is True

    def test_monotone_in_margin(self):
        rng = np.random.default_rng(3)
        size = (1024, 1024)
        for _ in range(50):
            box = (*rng.uniform(60, 960, 2), *rng.uniform(10, 100, 2))
            margins = [0.0, 2.0, 4.0, 8.0, 16.0]
            flags = [visible(box, size, m) for m in margins]
            # once invisible at a margin, stays invisible for larger margins
            for a, b in zip(flags, flags[1:]):
                assert a or not b


    @settings(max_examples=400, deadline=None)
    @given(boxes=st.lists(st.tuples(EDGE, EDGE, EDGE, EDGE), max_size=20),
           margin=st.sampled_from([0.0, 4.0, 4.5, -1.0]))
    def test_flags_equal_the_per_box_test(self, boxes, margin):
        size = (1024, 768)
        got = visible_flags(np.array(boxes, dtype=float).reshape(-1, 4), size, margin)
        assert got.tolist() == [bbox_visible_px(b, size, margin) for b in boxes]

    def test_pixel_boxes_scale_as_denormalize(self):
        size = (3840, 2160)
        pts = [make_point(k, 1, 100.3 * k, 7.1 * k, 3.3 * k, 0.7 * k, frame_size=size)
               for k in range(1, 30)]
        want = [list(denormalize_bbox(p.detection.bbox, size)) for p in pts]
        assert make_tracks(pts, frame_size=size).columns().boxes_px.tolist() == want


class TestTrackColumns:
    def test_columns_follow_point_order(self):
        pts = [make_point(k, tid, 10.0 * k, 20.0, 4.0, 2.0, cls=tid % 3)
               for tid in (7, 2, 5) for k in (3, 1, 2)]
        tracks = make_tracks(pts)
        columns = tracks.columns()
        assert columns.frames.tolist() == [p.frame for p in tracks.points]
        assert columns.ids.tolist() == [p.track_id for p in tracks.points]
        assert columns.cls.tolist() == [p.detection.cls for p in tracks.points]
        assert columns.id_rows() == {2: slice(0, 3), 5: slice(3, 6), 7: slice(6, 9)}

    def test_empty_session(self):
        columns = VideoTracks(64, 32, detection_table(())).columns()
        assert columns.boxes_px.shape == (0, 4)
        assert columns.id_rows() == {}
        assert frame_groups(columns.frames) == {}

    def test_frame_groups_are_stable(self):
        groups = frame_groups(np.array([3, 1, 3, 2, 1, 3]))
        assert list(groups) == [1, 2, 3]
        assert {f: rows.tolist() for f, rows in groups.items()} == {
            1: [1, 4], 2: [3], 3: [0, 2, 5]}


class StabilizedPoint(NamedTuple):
    """A stabilized point with the visibility flag of its raw box."""

    frame: int
    track_id: int
    detection: Detection
    visible: bool


def stabilize(tracks, per_frame_h, visibility_margin=4.0):
    """`stabilize_tracks` on the columns of ``tracks``, its rows rebuilt as
    points for comparison with the per-point reference."""
    boxes, visible = stabilize_tracks(
        tracks.columns(), tracks.frame_size, per_frame_h, visibility_margin
    )
    return tuple(
        StabilizedPoint(p.frame, p.track_id, Detection(tuple(box), p.detection.cls,
                                                       p.detection.score), v)
        for p, box, v in zip(tracks.points, boxes.tolist(), visible.tolist())
    )


class TestStabilizeTracks:
    def test_returns_arrays_and_builds_no_point_objects(self, monkeypatch):
        pts = [make_point(k, tid, 300 + k, 400, 30, 15) for tid in (1, 2) for k in range(1, 6)]
        tracks = make_tracks(pts)
        columns = tracks.columns()
        built = []

        def counted(init):
            def wrapped(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return wrapped

        for cls in (TrackPoint, Detection):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        boxes, visible = stabilize_tracks(columns, tracks.frame_size,
                                          {k: rotation(0.1) for k in range(2, 6)})
        assert built == []
        assert boxes.shape == (10, 4) and boxes.dtype == float
        assert visible.shape == (10,) and visible.dtype == bool

    def test_identity_unchanged(self):
        pts = [make_point(k, 1, 100 + k, 200, 20, 10) for k in range(1, 4)]
        tracks = make_tracks(pts)
        homs = {k: Homography.identity() for k in range(2, 4)}
        out = stabilize(tracks, homs)
        for before, after in zip(tracks.points, out):
            assert before.detection.bbox == after.detection.bbox

    def test_translation_shifts_normalized_center(self):
        tracks = make_tracks([make_point(2, 1, 100, 200, 20, 10)])
        out = stabilize(tracks, {2: translation(10, 0)})
        cx, cy, w, _ = out[0].detection.bbox
        assert cx == pytest.approx((100 + 10) / 3840, abs=1e-12)
        assert cy == pytest.approx(200 / 2160, abs=1e-12)
        assert w == pytest.approx(20 / 3840, abs=1e-12)

    def test_rotation_swaps_box_sides(self):
        tracks = make_tracks([make_point(2, 1, 500, 500, 80, 40)])
        out = stabilize(tracks, {2: rotation(math.pi / 2)})
        _, _, w, h = out[0].detection.bbox
        assert w * 3840 == pytest.approx(40, abs=1e-9)
        assert h * 2160 == pytest.approx(80, abs=1e-9)

    def test_missing_homography(self):
        tracks = make_tracks([make_point(7, 1, 100, 100, 10, 10)])
        with pytest.raises(MissingHomography) as err:
            stabilize(tracks, {})
        assert err.value.frame == 7

    def test_frame_one_defaults_to_identity(self):
        tracks = make_tracks([make_point(1, 1, 100, 100, 10, 10)])
        out = stabilize(tracks, {})
        assert out[0].detection.bbox == tracks.points[0].detection.bbox

    def test_preserves_points_and_ids(self):
        pts = [make_point(k, tid, 300 + k, 400, 30, 15)
               for tid in (1, 2) for k in range(1, 6)]
        tracks = make_tracks(pts)
        homs = {k: translation(k, -k) for k in range(2, 6)}
        out = stabilize(tracks, homs)
        assert len(out) == len(tracks.points)
        assert [(p.track_id, p.frame) for p in out] == [
            (p.track_id, p.frame) for p in tracks.points
        ]

    def test_visibility_from_unstabilized_boxes(self):
        # box is central originally; the homography throws it out of frame
        tracks = make_tracks([make_point(2, 1, 1920, 1080, 100, 50)])
        out = stabilize(tracks, {2: translation(5000, 0)})
        assert out[0].detection.bbox[0] > 1.0
        assert out[0].visible is True
        # and the reverse: box near the border stays not-visible even if
        # stabilization recenters it
        tracks2 = make_tracks([make_point(2, 1, 30, 1080, 100, 50)])
        out2 = stabilize(tracks2, {2: translation(1000, 0)})
        assert out2[0].visible is False

    def test_normalized_coordinates_may_leave_unit_range(self):
        tracks = make_tracks([make_point(2, 1, 3800, 1080, 100, 50)])
        out = stabilize(tracks, {2: translation(500, 0)})
        assert out[0].detection.bbox[0] > 1.0


# --- Per-point reference of the array stabilization --------------------------


def _ref_stabilize_tracks(tracks, per_frame_h, visibility_margin=4.0):
    """The per-point loop `stabilize_tracks` ran before its array pass."""
    w_img, h_img = frame_size = tracks.frame_size
    out = []
    for p in tracks.points:
        h = per_frame_h.get(p.frame)
        if h is None:
            if p.frame != 1:
                raise MissingHomography(p.frame)
            h = Homography.identity()
        d = p.detection
        box_px = denormalize_bbox(d.bbox, frame_size)
        cx, cy, w, bh = transform_bbox(h, box_px)
        box = (cx / w_img, cy / h_img, w / w_img, bh / h_img)
        visible = bbox_visible_px(box_px, frame_size, visibility_margin)
        out.append(StabilizedPoint(p.frame, p.track_id, Detection(box, d.cls, d.score), visible))
    return tuple(out)


def _bits(x: float) -> str:
    """A float by its bits: tells -0.0 from 0.0 and matches a NaN to itself."""
    return float(x).hex()


def _stabilize_outcome(fn, tracks, homs):
    try:
        points = fn(tracks, homs)
    except SkytrajError as exc:
        return type(exc).__name__, str(exc)
    return [
        (p.frame, p.track_id, p.detection.cls, _bits(p.detection.score), p.visible,
         *map(_bits, p.detection.bbox))
        for p in points
    ]


# Box values on a coarse grid (corners land on 0 and on each other), plus
# wide floats and a few non-finite values.
_finite_norm = st.one_of(st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0]), st.floats(-0.5, 1.5))
_norm = st.one_of(_finite_norm, st.sampled_from([math.nan, math.inf]))
_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))


@st.composite
def _homographies(draw, corners):
    kind = draw(st.sampled_from(["shift", "affine", "projective", "infinity"]))
    if kind == "shift":
        m = [[1, 0, draw(st.floats(-500, 500))], [0, 1, draw(st.floats(-500, 500))], [0, 0, 1]]
    elif kind == "infinity" and corners:
        # z = 1 - x / x0 is 0 (or within rounding of it) at the corner x0
        x0, _ = draw(st.sampled_from(corners))
        m = [[1, 0, 0], [0, 1, 0], [-1 / x0 if abs(x0) > 1e-3 else 1e-3, 0, 1]]
    else:
        m = [[draw(_entry), draw(_entry), draw(st.floats(-100, 100))],
             [draw(_entry), draw(_entry), draw(st.floats(-100, 100))],
             [draw(st.floats(-1e-3, 1e-3)) if kind == "projective" else 0.0,
              draw(st.floats(-1e-3, 1e-3)) if kind == "projective" else 0.0, 1.0]]
    try:
        with np.errstate(all="ignore"):  # det of an exactly singular draw
            return Homography.from_matrix(m)
    except SkytrajError:
        return Homography.identity()


@st.composite
def _sessions(draw):
    size = draw(st.sampled_from([(64, 32), (3840, 2160)]))
    n_frames = draw(st.integers(1, 4))
    value = draw(st.sampled_from([_finite_norm, _finite_norm, _norm]))
    points = []
    for tid in range(1, draw(st.integers(1, 4)) + 1):
        for frame in draw(st.lists(st.integers(1, n_frames), unique=True, max_size=4)):
            box = (draw(value), draw(value), abs(draw(value)), abs(draw(value)))
            points.append(TrackPoint(frame, tid, Detection(box, 0, 0.5)))
    tracks = make_tracks(points, frame_size=size)
    homs = {}
    for frame in range(2 - draw(st.integers(0, 1)), n_frames + 1):
        if draw(st.integers(0, 9)):  # now and then a frame has no homography
            px = [denormalize_bbox(p.detection.bbox, size) for p in points if p.frame == frame]
            corners = [tuple(c) for b in px for c in box_corners(b)
                       if math.isfinite(c.x) and math.isfinite(c.y)]
            homs[frame] = draw(_homographies(corners))
    return tracks, homs


class TestStabilizeMatchesPerPointReference:
    @settings(max_examples=400, deadline=None)
    @given(session=_sessions())
    def test_random_sessions(self, session):
        tracks, homs = session
        assert _stabilize_outcome(stabilize, tracks, homs) == _stabilize_outcome(
            _ref_stabilize_tracks, tracks, homs
        )

    def test_first_corner_at_infinity_names_its_point(self):
        # the first box is fine, the second has its right corners on z = 0
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        tracks = make_tracks([make_point(2, 1, 40, 5, 10, 10, frame_size=(128, 64)),
                              make_point(2, 2, 95, 5, 10, 10, frame_size=(128, 64))],
                             frame_size=(128, 64))
        with pytest.raises(DegenerateProjection) as err:
            stabilize(tracks, {2: h})
        assert str(err.value) == f"point {Point2(100.0, 0.0)} maps to projective infinity"
        assert _stabilize_outcome(stabilize, tracks, {2: h}) == _stabilize_outcome(
            _ref_stabilize_tracks, tracks, {2: h}
        )

    def test_earlier_degenerate_box_wins_over_later_missing_homography(self):
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        size = (128, 64)
        tracks = make_tracks([make_point(2, 1, 95, 5, 10, 10, frame_size=size),
                              make_point(3, 1, 40, 5, 10, 10, frame_size=size)], frame_size=size)
        with pytest.raises(DegenerateProjection):
            stabilize(tracks, {2: h})
        with pytest.raises(MissingHomography):
            stabilize(tracks, {2: translation(1, 1)})

    def test_signed_zero_corners_follow_python_min_max(self):
        # mapped corner x values are (0.0, 0.0, -0.0, -0.0): Python's min and
        # max keep the first zero, numpy's pick -0.0
        h = Homography.from_matrix([[-1.0, -0.0, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        tracks = make_tracks([TrackPoint(2, 1, Detection((0.0, -0.0, 0.0, 0.0), 0, 0.5))])
        (p,) = stabilize(tracks, {2: h})
        assert _bits(p.detection.bbox[0]) == _bits(0.0)
        assert _stabilize_outcome(stabilize, tracks, {2: h}) == _stabilize_outcome(
            _ref_stabilize_tracks, tracks, {2: h}
        )

    def test_corner_overflow_follows_python_min_max(self):
        # mapped corner x values are (finite, inf, nan, -inf): Python's min and
        # max skip the NaN by its position, numpy's return it
        size = (64, 32)
        h = Homography.from_matrix([[2.0, -2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        box = (8.9e307 / 64, 8.85e307 / 32, 2e306 / 64, 3e306 / 32)
        tracks = make_tracks([TrackPoint(2, 1, Detection(box, 0, 0.5))], frame_size=size)
        (ref,) = _ref_stabilize_tracks(tracks, {2: h})
        assert ref.detection.bbox[2] == math.inf
        assert _stabilize_outcome(stabilize, tracks, {2: h}) == _stabilize_outcome(
            _ref_stabilize_tracks, tracks, {2: h}
        )

    def test_translation_keeps_size_bits(self):
        tracks = make_tracks([make_point(2, 1, 100.1, 200.3, 20.7, 10.9)])
        (p,) = stabilize(tracks, {2: translation(0.1, -0.3)})
        (q,) = _ref_stabilize_tracks(tracks, {2: translation(0.1, -0.3)})
        assert p == q
