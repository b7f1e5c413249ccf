import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_point
from skytraj.dimensions import (
    DimConfig,
    DimPath,
    DimSamples,
    azimuth_filter,
    azimuth_sequence,
    dims_to_world,
    estimate_dimensions,
    initial_dims,
    quartile_dims,
    ratio_filter,
    visibility_set,
)
from skytraj.errors import EmptySampleSet, EmptyVisibilitySet
from skytraj.geometry import GeoTransform, Homography

SIZE = (3840, 2160)
GSD = 0.02725
GEO_GSD = GeoTransform(GSD, 0, 0, GSD, 0, 0)


def track_from_centers(centers, w=180.0, h=80.0, cls=0, track_id=1):
    return [
        make_point(k, track_id, cx, cy, w, h, cls=cls)
        for k, (cx, cy) in enumerate(centers, start=1)
    ]


class TestVisibilitySet:
    def test_central_boxes_full(self):
        pts = track_from_centers([(1000 + 10 * i, 1000) for i in range(10)])
        assert visibility_set(pts, SIZE, 4.0) == set(range(1, 11))

    def test_edge_frames_excluded(self):
        centers = [(40.0, 1000)] * 5 + [(500.0 + i, 1000) for i in range(5)]
        pts = track_from_centers(centers, w=100, h=50)
        assert visibility_set(pts, SIZE, 4.0) == set(range(6, 11))

    def test_empty_track(self):
        assert visibility_set([], SIZE, 4.0) == set()


class TestInitialDims:
    def test_max_min_sides(self):
        for (w, h) in [(180, 80), (80, 180), (100, 100)]:
            pts = track_from_centers([(1000, 1000)], w=w, h=h)
            samples = initial_dims(pts, {1}, SIZE)
            assert samples.lengths[0] == pytest.approx(max(w, h), abs=1e-9)
            assert samples.widths[0] == pytest.approx(min(w, h), abs=1e-9)

    def test_empty_visibility(self):
        pts = track_from_centers([(1000, 1000)])
        with pytest.raises(EmptyVisibilitySet):
            initial_dims(pts, set(), SIZE)


R_PX = 1.25 / GSD  # ~45.87


class TestAzimuthSequence:
    def test_motion_along_x(self):
        pts = track_from_centers([(1000, 1000), (1050, 1000), (1100, 1000)])
        windows = azimuth_sequence(pts, {1, 2, 3}, R_PX, SIZE)
        assert len(windows) == 2
        assert windows[0].theta == pytest.approx(0.0, abs=1e-9)
        assert (windows[0].start, windows[0].end) == (1, 2)

    def test_motion_down_image_wraps(self):
        pts = track_from_centers([(1000, 1000), (1000, 1050), (1000, 1100)])
        windows = azimuth_sequence(pts, {1, 2, 3}, R_PX, SIZE)
        assert windows[0].theta == pytest.approx(3 * math.pi / 2, abs=1e-9)

    def test_stationary_empty(self):
        pts = track_from_centers([(1000, 1000)] * 5)
        assert azimuth_sequence(pts, set(range(1, 6)), R_PX, SIZE) == []

    def test_anchor_displacement_at_least_radius(self):
        rng = np.random.default_rng(0)
        pos = np.cumsum(rng.uniform(5, 60, (40, 2)), axis=0) + 500
        pts = track_from_centers([tuple(p) for p in pos])
        vis = set(range(1, 41))
        windows = azimuth_sequence(pts, vis, R_PX, SIZE)
        centers = {p.frame: p for p in pts}
        for w in windows:
            a = centers[w.start].detection.bbox
            b = centers[w.end].detection.bbox
            dist = math.hypot((b.cx - a.cx) * SIZE[0], (b.cy - a.cy) * SIZE[1])
            assert dist >= R_PX - 1e-9

    def test_slow_motion_grows_window(self):
        # 25 px/frame: anchors land every second frame
        pts = track_from_centers([(1000 + 25 * i, 1000) for i in range(6)])
        windows = azimuth_sequence(pts, set(range(1, 7)), R_PX, SIZE)
        assert [(w.start, w.end) for w in windows] == [(1, 3), (3, 5)]

    def test_window_bounded_by_last_visible(self):
        pts = track_from_centers([(1000 + 50 * i, 1000) for i in range(6)])
        windows = azimuth_sequence(pts, {1, 2, 3}, R_PX, SIZE)
        assert windows[-1].end <= 3


def samples_at(frames, length=180.0, width=80.0):
    n = len(frames)
    return DimSamples(
        np.asarray(frames, dtype=int),
        np.full(n, length),
        np.full(n, width),
    )


class WindowStub:
    def __init__(self, theta_deg, start, end):
        self.theta = math.radians(theta_deg)
        self.start = start
        self.end = end


class TestAzimuthFilter:
    def test_near_axis_kept(self):
        out = azimuth_filter(samples_at([1, 2]), [WindowStub(10, 1, 3)], 15.0)
        assert list(out.frames) == [1, 2]

    def test_diagonal_dropped(self):
        out = azimuth_filter(samples_at([1, 2]), [WindowStub(30, 1, 3)], 15.0)
        assert len(out.frames) == 0

    def test_near_vertical_kept(self):
        out = azimuth_filter(samples_at([1, 2]), [WindowStub(80, 1, 3)], 15.0)
        assert list(out.frames) == [1, 2]

    def test_near_full_turn_kept(self):
        out = azimuth_filter(samples_at([1]), [WindowStub(355, 1, 2)], 15.0)
        assert list(out.frames) == [1]

    def test_samples_outside_windows_dropped(self):
        out = azimuth_filter(samples_at([1, 2, 3, 4]), [WindowStub(0, 2, 4)], 15.0)
        assert list(out.frames) == [2, 3]


class TestRatioFilter:
    def test_threshold(self):
        samples = samples_at([1], length=180, width=80)  # ratio 2.25
        assert len(ratio_filter(samples, 1.83).frames) == 1
        squarish = samples_at([1], length=120, width=100)  # ratio 1.2
        assert len(ratio_filter(squarish, 1.83).frames) == 0

    def test_infinite_threshold_drops_all(self):
        assert len(ratio_filter(samples_at([1, 2, 3]), math.inf).frames) == 0

    def test_zero_width_is_dropped(self):
        # a zero width has no shape: dropped even at a zero threshold
        mixed = DimSamples(
            np.array([1, 2, 3]), np.array([10.0, 10.0, 0.0]), np.array([0.0, 5.0, 0.0])
        )
        assert ratio_filter(mixed, 0.0).frames.tolist() == [2]


class TestQuartile:
    def test_linear_interpolation(self):
        vals = np.array([4.0, 5.0, 6.0, 7.0])
        assert quartile_dims(vals, vals) == (4.75, 4.75)

    def test_constant_set(self):
        vals = np.array([10.0, 10.0, 10.0])
        assert quartile_dims(vals, vals) == (10.0, 10.0)

    def test_singleton(self):
        assert quartile_dims(np.array([42.0]), np.array([7.0])) == (42.0, 7.0)

    def test_empty(self):
        with pytest.raises(EmptySampleSet):
            quartile_dims(np.array([]), np.array([]))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(
        st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0, 80.5]), st.floats(0.0, 1e4))] * 2),
        min_size=1, max_size=40,
    ))
    def test_one_call_equals_two(self, pairs):
        """The stacked call equals one `np.percentile` call per set, bit for bit."""
        lengths, widths = (np.array(v) for v in zip(*pairs))
        ref = (float(np.percentile(lengths, 25)), float(np.percentile(widths, 25)))
        assert [v.hex() for v in quartile_dims(lengths, widths)] == [v.hex() for v in ref]


class TestDimsToWorld:
    def test_gsd_scale(self):
        length_m, width_m = dims_to_world(100, 50, SIZE, Homography.identity(), GEO_GSD)
        assert length_m == pytest.approx(2.725, abs=1e-9)
        assert width_m == pytest.approx(50 * GSD, abs=1e-9)

    def test_zero_length(self):
        length_m, _ = dims_to_world(0, 50, SIZE, Homography.identity(), GEO_GSD)
        assert length_m == 0.0

    def test_translation_invariance(self):
        shifted = GeoTransform(GSD, 0, 0, GSD, 1234.5, -987.6)
        a = dims_to_world(120, 60, SIZE, Homography.identity(), GEO_GSD)
        b = dims_to_world(120, 60, SIZE, Homography.identity(), shifted)
        assert a == pytest.approx(b, abs=1e-12)

    def test_scale_equivariance(self):
        doubled = GeoTransform(2 * GSD, 0, 0, 2 * GSD, 0, 0)
        a = dims_to_world(120, 60, SIZE, Homography.identity(), GEO_GSD)
        b = dims_to_world(120, 60, SIZE, Homography.identity(), doubled)
        assert b[0] == pytest.approx(2 * a[0], rel=1e-12)
        assert b[1] == pytest.approx(2 * a[1], rel=1e-12)


CFG = DimConfig()


def estimate(raw, stab=None, cfg=CFG):
    """The estimator with the visible set its callers compute for it."""
    stab = raw if stab is None else stab
    visible = visibility_set(raw, SIZE, cfg.visibility_margin)
    return estimate_dimensions(raw, stab, visible, cfg, SIZE, Homography.identity(), GEO_GSD)


class TestEstimateDimensions:
    def test_axis_parallel_mover(self):
        centers = [(600 + 50 * i, 1080) for i in range(20)]
        pts = track_from_centers(centers)
        est = estimate(pts)
        assert est is not None
        assert est.path is DimPath.AZIMUTH_FILTERED
        assert est.length_px == pytest.approx(180.0, abs=1e-9)
        assert est.width_px == pytest.approx(80.0, abs=1e-9)
        assert est.length_m == pytest.approx(4.905, abs=1e-9)
        assert est.width_m == pytest.approx(2.180, abs=1e-9)

    def test_diagonal_mover_withheld(self):
        centers = [(600 + 40 * i, 600 + 40 * i) for i in range(20)]
        pts = track_from_centers(centers)
        est = estimate(pts)
        assert est is None

    def test_parked_elongated_uses_ratio_path(self):
        pts = track_from_centers([(1000, 500)] * 18, w=160, h=80)
        est = estimate(pts)
        assert est is not None
        assert est.path is DimPath.RATIO_FILTERED
        assert est.length_px == pytest.approx(160.0, abs=1e-9)
        assert est.width_px == pytest.approx(80.0, abs=1e-9)

    def test_parked_squarish_withheld(self):
        pts = track_from_centers([(1000, 500)] * 18, w=110, h=100)
        est = estimate(pts)
        assert est is None

    def test_strict_profile_withholds_stationary(self):
        pts = track_from_centers([(1000, 500)] * 18, w=160, h=80)
        est = estimate(pts, cfg=DimConfig.strict())
        assert est is None

    def test_never_visible_withheld(self):
        pts = track_from_centers([(30, 1000)] * 10, w=100, h=50)
        est = estimate(pts)
        assert est is None

    def test_length_never_below_width(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            step = rng.uniform(20, 60)
            w, h = rng.uniform(40, 200, 2)
            centers = [(500 + step * i, 800) for i in range(n)]
            pts = track_from_centers(centers, w=w, h=h)
            est = estimate(pts)
            if est is not None:
                assert est.length_px >= est.width_px
                assert est.length_m >= est.width_m

    def test_azimuths_come_from_stabilized_track(self):
        # raw track is stationary, stabilized track moves along +x:
        # the azimuth path must engage (headings exist), using raw boxes
        raw = track_from_centers([(1500, 900)] * 10, w=180, h=80)
        stab = track_from_centers([(1500 + 50 * i, 900) for i in range(10)],
                                  w=180, h=80)
        est = estimate(raw, stab)
        assert est is not None
        assert est.path is DimPath.AZIMUTH_FILTERED
        assert est.length_px == pytest.approx(180.0, abs=1e-9)

    def test_parked_zero_width_box_is_skipped(self):
        pts = track_from_centers([(1000, 500)] * 18, w=160, h=80)
        pts[4] = make_point(5, 1, 1000, 500, 0.0, 80)
        est = estimate(pts)
        assert est is not None and est.path is DimPath.RATIO_FILTERED
        assert est.n_samples == 17
        assert est.length_px == pytest.approx(160.0, abs=1e-9)
        assert estimate(track_from_centers([(1000, 500)] * 18, w=0.0, h=80)) is None

    def test_uses_the_given_visible_set(self):
        pts = track_from_centers([(1000, 500)] * 18, w=160, h=80)
        est = estimate_dimensions(
            pts, pts, set(range(1, 6)), CFG, SIZE, Homography.identity(), GEO_GSD
        )
        assert est.n_samples == 5
        assert estimate_dimensions(
            pts, pts, set(), CFG, SIZE, Homography.identity(), GEO_GSD
        ) is None
