import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import apply_homography, point_in_polygon, unfiltered_assign
from conftest import (
    GEO_IDENTITY,
    GeoPosition,
    center_columns,
    georeference_points,
    inverse,
    make_point,
    translation,
)
from skytraj.errors import (
    DegenerateProjection,
    SingularResult,
    SkytrajError,
    UnknownIntersection,
    UnknownVideo,
)
from skytraj.geometry import GeoTransform, Homography, Point2, infinity_error, map_point
from skytraj.georeference import (
    GeoChain,
    GeoRegistry,
    IntersectionEntry,
    LanePolygon,
    SegmentationMap,
    VideoEntry,
    assign_segment,
)
from skytraj.pipeline import georeference, lane_columns

SIZE = (1024, 1024)  # a power of two keeps normalized box centers exact


def georef(reg, video_id, p, segmentation=None):
    """One reference-frame pixel through the pipeline's session georeference;
    ``segment`` holds the (section, lane) cells."""
    chain = reg.chain(video_id, segmentation)
    point = make_point(1, 1, p.x, p.y, 10, 10, frame_size=SIZE)
    positions, at_infinity = georeference(center_columns([point], SIZE), chain)
    assert not at_infinity.any()
    sections, lanes = lane_columns(positions, segmentation)
    ox, oy, lx, ly, lat, lon = positions[0].tolist()
    return GeoPosition(Point2(ox, oy), Point2(lx, ly), Point2(lat, lon), (sections[0], lanes[0]))


def registry_with(master_to_ortho, ref_to_master, geo_local=None, geo_wgs=None):
    return GeoRegistry(
        intersections={
            "L": IntersectionEntry(
                master_to_ortho=master_to_ortho,
                geo_local=geo_local or GEO_IDENTITY,
                geo_wgs=geo_wgs or GeoTransform(1e-6, 0, 0, 1e-6, 37.0, 127.0),
            )
        },
        videos={"L1": VideoEntry(intersection="L", ref_to_master=ref_to_master)},
    )


class TestComposeRefToOrtho:
    def test_identity_master(self):
        ref = Homography.from_matrix([[1.1, 0, 5], [0, 0.9, -2], [0, 0, 1]])
        reg = registry_with(Homography.identity(), ref)
        assert np.allclose(reg.chain("L1").ref_to_ortho.m, ref.m)

    def test_translations_add(self):
        reg = registry_with(
            translation(10, 20), translation(-3, 4)
        )
        h = reg.chain("L1").ref_to_ortho
        assert np.allclose(h.m, translation(7, 24).m)

    def test_point_action_oracle(self):
        rng = np.random.default_rng(0)
        m2o = Homography.from_matrix(
            [[1.02, 0.03, 110], [-0.01, 0.98, 230], [1e-6, -1e-6, 1]]
        )
        r2m = Homography.from_matrix(
            [[0.99, -0.02, 55], [0.04, 1.01, -35], [0, 0, 1]]
        )
        reg = registry_with(m2o, r2m)
        h = reg.chain("L1").ref_to_ortho
        for _ in range(20):
            p = Point2(*rng.uniform(0, 3000, 2))
            direct = apply_homography(h, p)
            chained = apply_homography(m2o, apply_homography(r2m, p))
            assert math.hypot(direct.x - chained.x, direct.y - chained.y) < 1e-8

    def test_unknown_video(self):
        reg = registry_with(Homography.identity(), Homography.identity())
        with pytest.raises(UnknownVideo, match="video 'nope' not in registry"):
            reg.chain("nope")

    def test_unknown_intersection(self):
        reg = GeoRegistry(
            intersections={},
            videos={"L1": VideoEntry("L", Homography.identity())},
        )
        with pytest.raises(UnknownIntersection, match="intersection 'L' not in registry"):
            reg.chain("L1")

    def test_singular_composite(self):
        h = Homography.from_matrix([[1e-3, 0, 0], [0, 1e3, 0], [0, 0, 1]])
        with pytest.raises(SingularResult):
            registry_with(h, h).chain("L1")


class TestGeoreferencePoint:
    def test_identity_chain(self):
        reg = registry_with(Homography.identity(), Homography.identity())
        gp = georef(reg, "L1", Point2(12, 34))
        assert gp.ortho == Point2(12.0, 34.0)
        assert gp.local == Point2(12.0, 34.0)

    def test_translation_with_gsd_scale(self):
        geo = GeoTransform(0.02725, 0, 0, 0.02725, 0, 0)
        base = registry_with(
            Homography.identity(), Homography.identity(), geo_local=geo
        )
        shifted = registry_with(
            Homography.identity(), translation(100, 0), geo_local=geo
        )
        p = Point2(500, 500)
        a = georef(base, "L1", p)
        b = georef(shifted, "L1", p)
        assert b.local.x - a.local.x == pytest.approx(2.725, abs=1e-12)
        assert b.local.y - a.local.y == pytest.approx(0.0, abs=1e-12)

    def test_origin_maps_to_offsets(self):
        geo = GeoTransform(1, 0, 0, 1, 300.5, -20.25)
        reg = registry_with(
            Homography.identity(), Homography.identity(), geo_local=geo
        )
        gp = georef(reg, "L1", Point2(0, 0))
        assert gp.local == Point2(300.5, -20.25)

    def test_wgs_map_applied_to_same_ortho_pixel(self):
        geo_wgs = GeoTransform(1e-6, 0, 0, 2e-6, 37.38, 126.64)
        reg = registry_with(
            translation(10, 20),
            Homography.identity(),
            geo_wgs=geo_wgs,
        )
        gp = georef(reg, "L1", Point2(0, 0))
        assert gp.ortho == Point2(10.0, 20.0)
        assert gp.wgs.x == pytest.approx(37.38 + 10e-6, abs=1e-12)
        assert gp.wgs.y == pytest.approx(126.64 + 40e-6, abs=1e-12)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(1)
        m2o = Homography.from_matrix(
            [[2.0, 0.01, 900], [-0.02, 1.98, 1200], [1e-6, 2e-6, 1]]
        )
        r2m = Homography.from_matrix(
            [[1.01, 0.05, -40], [-0.03, 0.97, 60], [0, 0, 1]]
        )
        reg = registry_with(m2o, r2m)
        h = reg.chain("L1").ref_to_ortho
        inv = inverse(h)
        for _ in range(50):
            p = Point2(*rng.uniform(0, 3840, 2))
            back = apply_homography(inv, apply_homography(h, p))
            assert math.hypot(back.x - p.x, back.y - p.y) < 1e-6

    def test_shared_master_map_gives_identical_outputs(self):
        m2o = Homography.from_matrix(
            [[1.5, 0.02, 500], [0.01, 1.45, 700], [0, 0, 1]]
        )
        r2m = translation(42, -17)
        reg = GeoRegistry(
            intersections={
                "L": IntersectionEntry(
                    m2o, GEO_IDENTITY, GeoTransform(1e-6, 0, 0, 1e-6, 37, 127)
                )
            },
            videos={
                "L1": VideoEntry("L", r2m),
                "L2": VideoEntry("L", r2m),
            },
        )
        p = Point2(123.4, 567.8)
        a = georef(reg, "L1", p)
        b = georef(reg, "L2", p)
        assert a == b

    def test_lane_of_the_ortho_pixel(self):
        reg = registry_with(translation(10, 20), Homography.identity())
        square = tuple(Point2(*xy) for xy in [(0, 0), (50, 0), (50, 50), (0, 50)])
        lanes = SegmentationMap((LanePolygon("2_1", 1, square),))
        assert georef(reg, "L1", Point2(0, 0), lanes).segment == ("2_1", "1")
        assert georef(reg, "L1", Point2(45, 0), lanes).segment == ("", "")  # ortho x = 55
        assert georef(reg, "L1", Point2(0, 0)).segment == ("", "")


# A projective map whose homogeneous scale is 0 on the line x = 512.
HORIZON_512 = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-1 / 512, 0, 1]])


@st.composite
def _session(draw):
    """A chain with a random projective ref->ortho map and random
    geotransforms, and stabilized points around (and on) its horizon."""
    if draw(st.booleans()):
        h = HORIZON_512
    else:
        entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
        m = np.array([*entries, 1.0]).reshape(3, 3)
        m[:2, 2] *= 1000.0
        m[2, :2] *= 1e-3
        try:
            h = Homography.from_matrix(m)
        except SkytrajError:
            h = Homography.identity()
    coef = st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3)
    a, d = draw(coef), draw(coef)
    b, c = draw(st.sampled_from([0.0, 1e-4])), draw(st.sampled_from([0.0, -2e-4]))
    geo_local = GeoTransform(a, b, c, d, draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)))
    degrees = st.sampled_from([1e-6, -3.1e-7, 2.5e-6])
    geo_wgs = GeoTransform(draw(degrees), 0.0, 0.0, draw(degrees), 37.38, 126.64)
    xy = st.one_of(st.floats(-4096.0, 4096.0), st.just(512.0))
    points = [
        make_point(k, 1, draw(xy), draw(xy), 10, 10, frame_size=SIZE)
        for k in range(1, draw(st.integers(1, 12)) + 1)
    ]
    return GeoChain(h, geo_local, geo_wgs), points


class TestSessionGeoreference:
    @settings(max_examples=300, deadline=None)
    @given(case=_session())
    def test_equals_the_per_point_loop_bit_for_bit(self, case):
        chain, points = case
        positions, at_infinity = georeference(center_columns(points, SIZE), chain)
        assert positions.shape == (len(points), 6)
        for p, row, flagged in zip(points, positions, at_infinity.tolist()):
            try:
                (ref,) = georeference_points([p], SIZE, chain)
            except DegenerateProjection:
                assert flagged
                continue
            assert not flagged
            assert row.tobytes() == np.array([*ref.ortho, *ref.local, *ref.wgs]).tobytes()

    def test_flagged_center_raises_the_per_point_error(self):
        """The center `georeference` flags is the one `geometry.map_point`
        refuses, with the per-point error, which `infinity_error` of the
        center (as the pipeline raises it) repeats."""
        chain = GeoChain(HORIZON_512, GEO_IDENTITY, GEO_IDENTITY)
        points = [make_point(1, 1, 100.0, 7.0, 10, 10, frame_size=SIZE),
                  make_point(2, 1, 512.0, 9.0, 10, 10, frame_size=SIZE)]
        centers = center_columns(points, SIZE)
        _, at_infinity = georeference(centers, chain)
        assert at_infinity.tolist() == [False, True]
        with pytest.raises(DegenerateProjection) as ref:
            georeference_points(points, SIZE, chain)
        x, y = centers.x[1].item(), centers.y[1].item()
        with pytest.raises(DegenerateProjection) as got:
            map_point(chain.ref_to_ortho.m.ravel().tolist(), x, y)
        assert str(got.value) == str(ref.value) == str(infinity_error(x, y)) == (
            "point Point2(x=512.0, y=9.0) maps to projective infinity"
        )


SQUARE = tuple(Point2(*xy) for xy in [(0, 0), (10, 0), (10, 10), (0, 10)])


def inside(p, polygon):
    """Whether the one-lane map of ``polygon`` puts ``p`` on its lane; the
    frozen per-edge reference must agree."""
    got = assign_segment(SegmentationMap((LanePolygon("1_1", 1, polygon),)), p) is not None
    assert got == point_in_polygon(p, polygon)
    return got


class TestPointInPolygon:
    def test_interior_exterior(self):
        assert inside(Point2(5, 5), SQUARE)
        assert not inside(Point2(15, 5), SQUARE)

    def test_boundary_counts_inside(self):
        assert inside(Point2(10, 5), SQUARE)
        assert inside(Point2(0, 0), SQUARE)

    def test_concave_even_odd(self):
        # U-shape: the notch between the arms is outside
        poly = tuple(
            Point2(*xy)
            for xy in [(0, 0), (10, 0), (10, 10), (6, 10), (6, 4), (4, 4), (4, 10), (0, 10)]
        )
        assert inside(Point2(2, 8), poly)
        assert inside(Point2(8, 8), poly)
        assert not inside(Point2(5, 8), poly)
        assert inside(Point2(5, 2), poly)


class TestAssignSegment:
    seg = SegmentationMap(
        lanes=(
            LanePolygon("3_1", 1, SQUARE),
            LanePolygon(
                "3_1", 2, tuple(Point2(*xy) for xy in [(10, 0), (20, 0), (20, 10), (10, 10)])
            ),
        )
    )

    def test_inside_single_polygon(self):
        p = Point2(15, 5)
        assert assign_segment(self.seg, p) == ("3_1", 2) == unfiltered_assign(self.seg, p)

    def test_outside_all(self):
        p = Point2(50, 50)
        assert assign_segment(self.seg, p) is None is unfiltered_assign(self.seg, p)

    def test_shared_edge_first_in_document_order(self):
        p = Point2(10, 5)
        assert assign_segment(self.seg, p) == ("3_1", 1) == unfiltered_assign(self.seg, p)


def _lane(draw, scale, origin):
    """A quadrilateral (convex, concave or self-touching) near ``origin``."""
    coord = st.floats(-1.0, 1.0).map(lambda v: v * scale)
    pts = [Point2(origin[0] + draw(coord), origin[1] + draw(coord)) for _ in range(4)]
    return LanePolygon("1_1", draw(st.integers(1, 6)), tuple(pts))


@st.composite
def _segmentation_and_point(draw):
    scale = draw(st.sampled_from([1.0, 128.0, 5000.0, 1e6]))
    origin = draw(st.sampled_from([(0.0, 0.0), (3000.0, 1500.0), (-1e5, 2e5)]))
    lanes = [_lane(draw, scale, origin) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):  # a lane sharing an edge with the first one
        a, b = lanes[0].polygon[:2]
        lanes.append(LanePolygon("1_2", 1, (b, a, Point2(a.x + scale, a.y - scale))))
    lane = draw(st.sampled_from(lanes))
    i = draw(st.integers(0, len(lane.polygon) - 1))
    a, b = lane.polygon[i], lane.polygon[(i + 1) % len(lane.polygon)]
    t = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    on_edge = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    # Off the edge along its normal by up to 2e-9, i.e. either side of the
    # 1e-9 boundary tolerance, or anywhere around the lanes.
    length = math.hypot(b.x - a.x, b.y - a.y) or 1.0
    off = draw(st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -2e-9]))
    near_edge = Point2(on_edge.x - off * (b.y - a.y) / length,
                       on_edge.y + off * (b.x - a.x) / length)
    coord = st.floats(-1.5, 1.5).map(lambda v: v * scale)
    anywhere = Point2(origin[0] + draw(coord), origin[1] + draw(coord))
    point = draw(st.sampled_from([a, on_edge, near_edge, anywhere]))
    return SegmentationMap(tuple(lanes)), point


class TestAssignSegmentPrefilter:
    @settings(max_examples=600, deadline=None)
    @given(case=_segmentation_and_point())
    def test_equals_the_unfiltered_scan(self, case):
        seg, p = case
        assert assign_segment(seg, p) == unfiltered_assign(seg, p)

    def test_points_within_tolerance_of_the_edge_count_inside(self):
        lane = LanePolygon("1_1", 1, SQUARE)
        seg = SegmentationMap((lane,))
        # (5, -1e-9) is exactly the tolerance from the bottom edge
        for p in [Point2(10 + 5e-10, 5), Point2(-9e-10, 0), Point2(5, 10 + 9e-10), Point2(5, -1e-9)]:
            assert assign_segment(seg, p) == ("1_1", 1) == unfiltered_assign(seg, p)
        assert assign_segment(seg, Point2(10 + 2e-9, 5)) is None
        xmin, ymin, xmax, ymax = lane.bounds
        assert xmax - 10 > 1e-9 and -xmin > 1e-9 and ymax - 10 > 1e-9 and -ymin > 1e-9

    def test_degenerate_polygons_match_nothing(self):
        short = LanePolygon("1_1", 1, (Point2(0, 0), Point2(1, 1)))
        empty = LanePolygon("1_1", 2, ())
        seg = SegmentationMap((short, empty))
        assert assign_segment(seg, Point2(0, 0)) is None


def _drawn_lane(draw, rng, k, lanes, origin, scale):
    """Lane ``k`` of a drawn map: 3-12 vertices around ``origin``, drawn as
    one of the shapes the bounds check and the containment test must
    survive."""
    m = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["random", "lattice", "collinear", "repeated", "touching", "shared"]))
    xy = origin + rng.uniform(-1.0, 1.0, (m, 2)) * scale
    if kind == "lattice":  # vertices, edges and points share exact coordinates
        xy = origin + np.round(rng.uniform(-4.0, 4.0, (m, 2))) * (scale / 4)
    elif kind == "collinear":  # zero-width bounds on one axis, or a diagonal
        t = rng.uniform(-1.0, 1.0, m) * scale
        axis = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]))
        xy = origin + np.outer(t, axis)
    elif kind == "repeated":  # zero-length edges
        xy[1] = xy[0]
        xy[-1] = xy[-2]
    elif kind == "touching" and m >= 5:  # a vertex visited twice
        xy[m - 1] = xy[1]
    elif kind == "shared" and lanes:  # an edge of an earlier lane, reversed
        a, b = draw(st.sampled_from(lanes)).polygon[:2]
        xy[:2] = [b, a]
    polygon = tuple(Point2(float(x), float(y)) for x, y in xy)
    return LanePolygon(f"{k % 3 + 1}_1", k % 4 + 1, polygon)


@st.composite
def _lane_map_and_points(draw):
    """1-40 lanes, near each other or up to 1e6 px apart, and points on
    the lanes' widened bounds and their next floats, vertices, edges
    +-2e-9, far outside and at NaN and +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 128.0, 5000.0]))
    spread = draw(st.sampled_from([0.0, 3.0 * scale, 1e6]))
    base = np.array(draw(st.sampled_from([(0.0, 0.0), (3000.0, 1500.0), (-1e5, 2e5)])))
    lanes: list[LanePolygon] = []
    for k in range(draw(st.integers(1, 40))):
        origin = base + rng.uniform(-1.0, 1.0, 2) * spread
        lanes.append(_drawn_lane(draw, rng, k, lanes, origin, scale))
    seg = SegmentationMap(tuple(lanes))
    points = []
    for _ in range(10):
        xmin, ymin, xmax, ymax = lanes[rng.integers(len(lanes))].bounds
        for x in (xmin, xmax):
            for y in (ymin, ymax):
                points += [(x, y), (np.nextafter(x, -math.inf), y), (x, np.nextafter(y, math.inf))]
    for _ in range(30):
        lane = lanes[rng.integers(len(lanes))]
        n = len(lane.polygon)
        e = rng.integers(n)
        a, b = lane.polygon[e], lane.polygon[(e + 1) % n]
        t = float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
        length = math.hypot(b.x - a.x, b.y - a.y) or 1.0
        off = float(rng.choice([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -2e-9, 2e-9]))
        points.append((a.x + t * (b.x - a.x) - off * (b.y - a.y) / length,
                       a.y + t * (b.y - a.y) + off * (b.x - a.x) / length))
        points.append(tuple(a))
    for _ in range(20):
        points.append(tuple(base + rng.uniform(-1.5, 1.5, 2) * (scale + spread)))
    special = [math.nan, math.inf, -math.inf, 1e12, -1e12]
    for s in special:
        points += [(s, float(base[1])), (float(base[0]), s), (s, s)]
    return seg, [Point2(float(x), float(y)) for x, y in points]


class TestLaneEntries:
    @settings(max_examples=150, deadline=None)
    @given(case=_lane_map_and_points())
    def test_equals_the_frozen_scan(self, case):
        seg, points = case
        for p in points:
            assert assign_segment(seg, p) == unfiltered_assign(seg, p), p

    def test_plain_rows_and_point_objects_agree(self):
        seg = TestAssignSegment.seg
        for xy in [[15.0, 5.0], [10.0, 5.0], [50.0, 50.0], [math.nan, 5.0]]:
            assert assign_segment(seg, xy) == assign_segment(seg, Point2(*xy))

    def test_empty_map(self):
        seg = SegmentationMap((LanePolygon("1_1", 1, ()),))
        assert seg.entries == ()
        assert assign_segment(seg, (0.0, 0.0)) is None

    def test_lanes_near_the_largest_double(self):
        big, top = 1.7e308, sys.float_info.max  # the widened bounds of `top` overflow
        lanes = (LanePolygon("1_1", 1, (Point2(-big, 0.0), Point2(big, 0.0), Point2(0.0, 1.0))),
                 LanePolygon("1_2", 1, SQUARE),
                 LanePolygon("1_3", 1, (Point2(top, 0.0), Point2(top, 1.0), Point2(0.0, 1.0))))
        seg = SegmentationMap(lanes)
        assert lanes[2].bounds[2] == math.inf
        for p in [Point2(5.0, 5.0), Point2(0.0, 0.5), Point2(1e308, 0.0), Point2(-math.inf, 0.5),
                  Point2(math.inf, 0.5), Point2(top, 0.5)]:
            assert assign_segment(seg, p) == unfiltered_assign(seg, p)

    def test_bounds_gate_the_polygon_tests(self, monkeypatch):
        """60 lanes in a 6 x 10 block with gaps between them: a point tests
        no polygon whose widened bounds miss it, so none between lanes."""
        from skytraj import georeference

        lanes = tuple(
            LanePolygon(f"{r + 1}_1", c + 1, tuple(
                Point2(100.0 * c + dx, 40.0 * r + dy) for dx, dy in [(0, 0), (60, 0), (60, 20), (0, 20)]))
            for r in range(6) for c in range(10))
        seg = SegmentationMap(lanes)
        calls = []
        original = georeference.polygon_contains

        def counted(x, y, edges):
            calls.append(edges)
            return original(x, y, edges)

        monkeypatch.setattr(georeference, "polygon_contains", counted)
        rng = np.random.default_rng(0)
        between = 0
        for x, y in rng.uniform(-50.0, 1050.0, (4000, 2)).tolist():
            calls.clear()
            holding = [e[4] for e in seg.entries if e[0] <= x <= e[2] and e[1] <= y <= e[3]]
            hit = assign_segment(seg, (x, y))
            assert hit == unfiltered_assign(seg, Point2(x, y))
            assert len(holding) <= 1
            assert calls == holding
            between += not holding
        assert between > 1000
