import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import center_columns, columns_of, dim_columns, make_point, outcome
from skytraj.dimensions import (
    DimConfig,
    DimPath,
    DimSamples,
    azimuth_filter,
    azimuth_sequence,
    dims_to_world,
    estimate_dimensions,
    first_quartile,
    initial_dims,
    quartile_dims,
    ratio_filter,
)
from skytraj.errors import EmptySampleSet, EmptyVisibilitySet
from skytraj.geometry import GeoTransform, Homography
from skytraj.trackmodel import visible_flags

SIZE = (3840, 2160)
GSD = 0.02725
GEO_GSD = GeoTransform(GSD, 0, 0, GSD, 0, 0)


def track_from_centers(centers, w=180.0, h=80.0, cls=0, track_id=1):
    return [
        make_point(k, track_id, cx, cy, w, h, cls=cls)
        for k, (cx, cy) in enumerate(centers, start=1)
    ]


def visible_frames(points, margin=4.0):
    flags = visible_flags(columns_of(points, SIZE).boxes_px, SIZE, margin)
    return {p.frame for p, v in zip(points, flags.tolist()) if v}


class TestVisibilitySet:
    def test_central_boxes_full(self):
        pts = track_from_centers([(1000 + 10 * i, 1000) for i in range(10)])
        assert visible_frames(pts) == set(range(1, 11))

    def test_edge_frames_excluded(self):
        centers = [(40.0, 1000)] * 5 + [(500.0 + i, 1000) for i in range(5)]
        pts = track_from_centers(centers, w=100, h=50)
        assert visible_frames(pts) == set(range(6, 11))

    def test_empty_track(self):
        assert visible_frames([]) == set()


def boxes_of(points, visible):
    return dim_columns(points, frame_size=SIZE, visible=visible)[0]


class TestInitialDims:
    def test_max_min_sides(self):
        for (w, h) in [(180, 80), (80, 180), (100, 100)]:
            pts = track_from_centers([(1000, 1000)], w=w, h=h)
            samples = initial_dims(boxes_of(pts, {1}))
            assert samples.lengths[0] == pytest.approx(max(w, h), abs=1e-9)
            assert samples.widths[0] == pytest.approx(min(w, h), abs=1e-9)

    def test_empty_visibility(self):
        pts = track_from_centers([(1000, 1000)])
        with pytest.raises(EmptyVisibilitySet):
            initial_dims(boxes_of(pts, set()))


R_PX = 1.25 / GSD  # ~45.87


def azimuth_sequence_of(points, visible, min_travel_px):
    """`azimuth_sequence` over the centers of ``points`` between the first
    and the last frame of the set ``visible``."""
    return azimuth_sequence(center_columns(points, SIZE), min(visible), max(visible),
                            min_travel_px)


class TestAzimuthSequence:
    def test_motion_along_x(self):
        pts = track_from_centers([(1000, 1000), (1050, 1000), (1100, 1000)])
        windows = azimuth_sequence_of(pts, {1, 2, 3}, R_PX)
        assert len(windows) == 2
        assert windows[0].theta == pytest.approx(0.0, abs=1e-9)
        assert (windows[0].start, windows[0].end) == (1, 2)

    def test_motion_down_image_wraps(self):
        pts = track_from_centers([(1000, 1000), (1000, 1050), (1000, 1100)])
        windows = azimuth_sequence_of(pts, {1, 2, 3}, R_PX)
        assert windows[0].theta == pytest.approx(3 * math.pi / 2, abs=1e-9)

    def test_stationary_empty(self):
        pts = track_from_centers([(1000, 1000)] * 5)
        assert azimuth_sequence_of(pts, set(range(1, 6)), R_PX) == []

    def test_anchor_displacement_at_least_radius(self):
        rng = np.random.default_rng(0)
        pos = np.cumsum(rng.uniform(5, 60, (40, 2)), axis=0) + 500
        pts = track_from_centers([tuple(p) for p in pos])
        vis = set(range(1, 41))
        windows = azimuth_sequence_of(pts, vis, R_PX)
        centers = {p.frame: p for p in pts}
        for w in windows:
            ax, ay, _, _ = centers[w.start].detection.bbox
            bx, by, _, _ = centers[w.end].detection.bbox
            dist = math.hypot((bx - ax) * SIZE[0], (by - ay) * SIZE[1])
            assert dist >= R_PX - 1e-9

    def test_slow_motion_grows_window(self):
        # 25 px/frame: anchors land every second frame
        pts = track_from_centers([(1000 + 25 * i, 1000) for i in range(6)])
        windows = azimuth_sequence_of(pts, set(range(1, 7)), R_PX)
        assert [(w.start, w.end) for w in windows] == [(1, 3), (3, 5)]

    def test_window_bounded_by_last_visible(self):
        pts = track_from_centers([(1000 + 50 * i, 1000) for i in range(6)])
        windows = azimuth_sequence_of(pts, {1, 2, 3}, R_PX)
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
        """Each set's quartile equals its own `np.percentile` call, bit for bit."""
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

    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(17)
        geos = [GEO_GSD, GeoTransform(0.02, 0.01, -0.01, 0.02, 5.0, 7.0),
                GeoTransform(1e150, 0, 0, 1e150, 0, 0)]
        cases = [
            # (length px, width px, ref_to_ortho); the last five meet infinity
            # at the center, at the width point, at the length point, or
            # overflow or carry NaN
            *((*rng.uniform(0, 400, 2), Homography.from_matrix(
                [[*rng.uniform(0.8, 1.2, 1), *rng.uniform(-0.1, 0.1, 1), *rng.uniform(-99, 99, 1)],
                 [*rng.uniform(-0.1, 0.1, 1), *rng.uniform(0.8, 1.2, 1), *rng.uniform(-99, 99, 1)],
                 [*rng.uniform(-1e-4, 1e-4, 2), 1.0]])) for _ in range(40)),
            (120.0, 60.0, Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-1 / 1920, 0, 1]])),
            (120.0, 40.0, Homography.from_matrix([[1, 0, 0], [0, 1, 0], [0, -1 / 1100, 1]])),
            (200.0, 60.0, Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-1 / 2020, 0, 1]])),
            (1e308, 1e200, Homography.from_matrix([[10, 0, 0], [0, 10, 0], [0, 0, 1]])),
            (math.nan, 60.0, Homography.identity()),
        ]
        infinite = 0
        for length, width, h in cases:
            for geo in geos:
                got = outcome(dims_to_world, length, width, SIZE, h, geo)
                assert got == outcome(reference.dims_to_world, length, width, SIZE, h, geo)
                infinite += got[0] == "DegenerateProjection"
        assert infinite == 3 * len(geos)


CFG = DimConfig()


def estimate(raw, stab=None, cfg=CFG):
    """The estimator with the visible flags its callers compute for it."""
    columns = dim_columns(raw, stab, frame_size=SIZE, margin=cfg.visibility_margin)
    return estimate_dimensions(*columns, cfg, SIZE, Homography.identity(), GEO_GSD)


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
            *dim_columns(pts, frame_size=SIZE, visible=set(range(1, 6))),
            CFG, SIZE, Homography.identity(), GEO_GSD,
        )
        assert est.n_samples == 5
        assert estimate_dimensions(
            *dim_columns(pts, frame_size=SIZE, visible=set()),
            CFG, SIZE, Homography.identity(), GEO_GSD,
        ) is None


# --- the column stage against the per-point reference -------------------------

# a mild projective map, so the meter conversion is not a plain scale
TILT = Homography.from_matrix([[1.01, 0.02, 5.0], [-0.01, 0.99, 3.0], [1e-6, 2e-6, 1.0]])
CONFIGS = [CFG, DimConfig.strict(), DimConfig(azimuth_tolerance_deg=40.0, min_travel_m=0.5)]
SIDE = st.one_of(st.sampled_from([0.0, 80.0, 100.0, 160.0, 180.0]), st.floats(0.0, 300.0))
COORD = st.one_of(st.sampled_from([20.0, 1000.0, 2000.0, 3820.0]), st.floats(0.0, 3840.0))


@st.composite
def vehicles(draw):
    """One vehicle's raw and stabilized points: 1 to 24 frames with gaps;
    parked, axis-parallel, diagonal or wandering motion; boxes of constant
    or varying sides, zero widths among them, near and across the frame
    borders; and a stabilized track that may lack frames the raw one has
    and hold frames it lacks."""
    n = draw(st.integers(1, 24))
    frames = list(np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))).tolist())
    x0, y0 = draw(COORD), draw(COORD)
    motion = draw(st.sampled_from(["parked", "x", "y", "diagonal", "wander"]))
    speed = draw(st.one_of(st.sampled_from([0.0, 25.0, 46.0, 60.0]), st.floats(0.0, 120.0)))
    vx, vy = {"parked": (0.0, 0.0), "x": (speed, 0.0), "y": (0.0, -speed),
              "diagonal": (speed, speed), "wander": (speed, speed / 3)}[motion]
    jitter = st.floats(-40.0, 40.0) if motion == "wander" else st.just(0.0)
    if draw(st.booleans()):
        sides = [(draw(SIDE), draw(SIDE))] * n
    else:
        sides = [(draw(SIDE), draw(SIDE)) for _ in range(n)]
    cls = draw(st.integers(0, 4))  # class 4 has no ratio threshold
    centers = {f: (x0 + vx * (f - 1) + draw(jitter), y0 + vy * (f - 1) + draw(jitter))
               for f in range(1, frames[-1] + 4)}
    raw = [make_point(f, 1, *centers[f], *wh, cls=cls) for f, wh in zip(frames, sides)]
    stab_frames = set(frames)
    if draw(st.booleans()):  # mismatched frames
        stab_frames -= set(draw(st.lists(st.sampled_from(frames), max_size=3)))
        stab_frames |= set(draw(st.lists(st.sampled_from(sorted(centers)), max_size=3)))
    drift = draw(st.sampled_from([0.0, 2.0]))
    stab = [make_point(f, 1, centers[f][0] + drift * f, centers[f][1] - drift * f, 100, 50)
            for f in sorted(stab_frames)]
    return raw, stab


def _outcome(est):
    if est is None:
        return None
    return (est.path, est.n_samples,
            *(v.hex() for v in (est.length_px, est.width_px, est.length_m, est.width_m)))


def assert_matches_reference(raw, stab, cfg=CFG):
    ref = reference.estimate_dimensions(
        raw, stab, reference.visibility_set(raw, SIZE, cfg.visibility_margin),
        cfg, SIZE, TILT, GEO_GSD,
    )
    got = estimate_dimensions(
        *dim_columns(raw, stab, frame_size=SIZE, margin=cfg.visibility_margin),
        cfg, SIZE, TILT, GEO_GSD,
    )
    assert _outcome(got) == _outcome(ref)
    return got


class TestMatchesPerPointReference:
    @settings(max_examples=400, deadline=None)
    @given(vehicle=vehicles(), cfg=st.sampled_from(CONFIGS))
    def test_estimate_bit_for_bit(self, vehicle, cfg):
        assert_matches_reference(*vehicle, cfg)

    @settings(max_examples=300, deadline=None)
    @given(vehicle=vehicles())
    def test_azimuth_windows_bit_for_bit(self, vehicle):
        raw, stab = vehicle
        frames = [p.frame for p in raw]
        got = azimuth_sequence(center_columns(stab, SIZE), frames[0], frames[-1], R_PX)
        want = reference.azimuth_sequence(stab, set(frames), R_PX, SIZE)
        assert [(w.theta.hex(), w.start, w.end) for w in got] == [
            (w.theta.hex(), w.start, w.end) for w in want]

    def test_long_wander_headings_bit_for_bit(self):
        # thousands of headings: `math.atan2` and `math.hypot` per step, as
        # the per-point walk took them
        rng = np.random.default_rng(11)
        walk = np.cumsum(rng.normal(0.0, 30.0, (6000, 2)), axis=0) + 1900.0
        stab = track_from_centers([tuple(c) for c in walk.tolist()])
        got = azimuth_sequence(center_columns(stab, SIZE), 1, 6000, R_PX)
        want = reference.azimuth_sequence(stab, {1, 6000}, R_PX, SIZE)
        assert len(want) > 2000
        assert [(w.theta.hex(), w.start, w.end) for w in got] == [
            (w.theta.hex(), w.start, w.end) for w in want]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_vehicles(self, n):
        moving = track_from_centers([(1000 + 50 * i, 800) for i in range(n)])
        parked = track_from_centers([(1000, 800)] * n, w=160, h=80)
        assert_matches_reference(moving, moving)
        assert assert_matches_reference(parked, parked).path is DimPath.RATIO_FILTERED

    def test_stationary_and_zero_width(self):
        pts = track_from_centers([(1000, 500)] * 18, w=160, h=80)
        pts[4] = make_point(5, 1, 1000, 500, 0.0, 80)
        assert assert_matches_reference(pts, pts).n_samples == 17
        flat = track_from_centers([(1000, 500)] * 18, w=0.0, h=0.0)
        assert assert_matches_reference(flat, flat) is None

    def test_never_visible(self):
        pts = track_from_centers([(30 + 50 * i, 1000) for i in range(10)], w=100, h=50)
        pts = [make_point(p.frame, 1, 30, 1000, 100, 50) for p in pts]
        assert assert_matches_reference(pts, pts) is None

    def test_stabilized_frames_differ_from_raw(self):
        raw = track_from_centers([(600 + 50 * i, 1080) for i in range(12)])
        gappy = [p for p in raw if p.frame % 4 != 2]
        assert_matches_reference(raw, gappy)  # stabilized lacks raw frames
        assert_matches_reference(gappy, raw)  # stabilized holds extra frames
        # no stabilized center at the first visible frame: no heading
        est = assert_matches_reference(raw, raw[1:])
        assert est.path is DimPath.RATIO_FILTERED


FINITE = st.floats(-1e6, 1e6)


class TestFirstQuartile:
    @settings(max_examples=600, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 80.5, 180.0]), FINITE,
                                     st.floats(0.0, 1.0)),
                           min_size=1, max_size=60))
    def test_equals_np_percentile(self, values):
        got = first_quartile(values)
        ref = float(np.percentile(np.array(values), 25))
        assert got.hex() == ref.hex() or got == ref == 0.0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_interpolation_weight(self, n):
        # n = 1..12 covers each weight 0, 0.25, 0.5, 0.75 and the last index
        values = [math.pi * k * k for k in range(n, 0, -1)]
        assert first_quartile(values) == float(np.percentile(np.array(values), 25))

    @pytest.mark.parametrize("values, want", [
        ([3.85, 1.3], 1.9375),  # weight 0.25: a + d*g
        ([20.0, 13.4, 4.162], 8.781),  # weight 0.5: b - d*(1-g)
        ([1.3, 9.0, 3.85, 9.5], 3.2125000000000004),  # weight 0.75: b - d*(1-g)
    ])
    def test_weight_rounding_of_each_end(self, values, want):
        # a + d*g and b - d*(1-g) round apart on these; numpy anchors at the
        # nearer end
        assert first_quartile(values) == want == float(np.percentile(values, 25))

    def test_quartile_dims_matches_the_reference_call(self):
        lengths, widths = np.array([180.0, 179.5, 181.0, 90.0]), np.array([80.0, 0.0, 81.5, 79.0])
        assert quartile_dims(lengths, widths) == reference.quartile_dims(lengths, widths)
