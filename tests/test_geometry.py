import math

import numpy as np
import pytest

from conftest import inverse, rotation, scaling, translation
from skytraj.errors import (
    DegenerateProjection,
    InvalidGeometry,
    NonConvexInput,
    SingularResult,
    SingularTransform,
)
from skytraj.geometry import (
    BBox,
    GeoTransform,
    Homography,
    Point2,
    Quad,
    apply_homography,
    compose,
    pixel_to_world,
    quad_iou,
    transform_boxes,
)


def random_homography_matrix(rng):
    # well-conditioned: modest affine part plus a tiny perspective row
    angle = rng.uniform(-0.5, 0.5)
    s = rng.uniform(0.7, 1.4)
    tx, ty = rng.uniform(-200, 200, 2)
    m = np.array(
        [
            [s * math.cos(angle), -s * math.sin(angle), tx],
            [s * math.sin(angle), s * math.cos(angle), ty],
            [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
        ]
    )
    return Homography.from_matrix(m)


class TestApplyHomography:
    def test_identity(self):
        p = apply_homography(Homography.identity(), Point2(5, 7))
        assert p == Point2(5.0, 7.0)

    def test_translation(self):
        h = translation(10, -3)
        assert apply_homography(h, Point2(0, 0)) == Point2(10.0, -3.0)

    def test_perspective_division(self):
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [0.001, 0, 1]])
        p = apply_homography(h, Point2(100, 50))
        assert p.x == pytest.approx(100 / 1.1, abs=1e-12)
        assert p.y == pytest.approx(50 / 1.1, abs=1e-12)

    def test_projective_infinity(self):
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        with pytest.raises(DegenerateProjection):
            apply_homography(h, Point2(100, 5))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularTransform):
            Homography.from_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])

    def test_zero_corner_entry_leaves_matrix_unnormalized(self):
        h = Homography.from_matrix([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        assert h.m[2, 2] == 0.0
        assert np.array_equal(h.m, [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        h2 = Homography.from_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert h2.m[2, 2] == 1.0
        assert np.array_equal(h2.m, np.eye(3))


class TestCompose:
    def test_identity_neutral(self):
        h = Homography.from_matrix([[2, 0, 1], [0, 3, -1], [0, 0, 1]])
        c = compose(Homography.identity(), h)
        assert np.allclose(c.m, h.m)

    def test_translation_group(self):
        c = compose(translation(1, 2), translation(3, 4))
        assert np.allclose(c.m, translation(4, 6).m)

    def test_sequential_application(self):
        c = compose(scaling(2), translation(1, 0))
        assert apply_homography(c, Point2(0, 0)) == Point2(2.0, 0.0)

    def test_matches_pointwise_application(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h1 = random_homography_matrix(rng)
            h2 = random_homography_matrix(rng)
            p = Point2(*rng.uniform(-500, 500, 2))
            lhs = apply_homography(compose(h2, h1), p)
            rhs = apply_homography(h2, apply_homography(h1, p))
            assert lhs.x == pytest.approx(rhs.x, abs=1e-8)
            assert lhs.y == pytest.approx(rhs.y, abs=1e-8)

    def test_singular_product(self):
        h1 = Homography.from_matrix([[1e-3, 0, 0], [0, 1e3, 0], [0, 0, 1]])
        with pytest.raises(SingularResult):
            compose(h1, h1)


class TestRoundTripProperties:
    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            h = random_homography_matrix(rng)
            p = Point2(*rng.uniform(-1000, 1000, 2))
            q = apply_homography(inverse(h), apply_homography(h, p))
            assert math.hypot(q.x - p.x, q.y - p.y) < 1e-9

    def test_composition_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            h1, h2, h3 = (random_homography_matrix(rng) for _ in range(3))
            p = Point2(*rng.uniform(-300, 300, 2))
            a = apply_homography(compose(compose(h3, h2), h1), p)
            b = apply_homography(compose(h3, compose(h2, h1)), p)
            assert math.hypot(a.x - b.x, a.y - b.y) < 1e-9


class TestBBox:
    @pytest.mark.parametrize(
        "values",
        [(1.5, 2.0, 3.0, 4.0), (np.float64(1.5), 2, 3.0, 4.0), (1.5, 2.0, 3, np.float32(4.0)),
         (True, 2.0, 3.0, 4.0)],
        ids=["floats", "float64-and-int", "int-and-float32", "bool"],
    )
    def test_fields_hold_plain_floats(self, values):
        b = BBox(*values)
        assert [type(v) for v in (b.cx, b.cy, b.w, b.h)] == [float] * 4
        assert (b.cx, b.cy, b.w, b.h) == tuple(float(v) for v in values)

    @pytest.mark.parametrize("w, h", [(-1.0, 2.0), (1.0, np.float64(-2.0))])
    def test_negative_size_rejected(self, w, h):
        with pytest.raises(InvalidGeometry):
            BBox(0.0, 0.0, w, h)


def map_box(h: Homography, b: BBox) -> BBox:
    """One box through `transform_boxes`."""
    (row,) = transform_boxes([h], [0], np.array([[b.cx, b.cy, b.w, b.h]])).tolist()
    return BBox(*row)


class TestTransformBBox:
    def test_identity(self):
        b = BBox(50, 50, 20, 10)
        out = map_box(Homography.identity(), b)
        assert (out.cx, out.cy, out.w, out.h) == (50, 50, 20, 10)

    def test_translation(self):
        out = map_box(translation(10, 0), BBox(50, 50, 20, 10))
        assert (out.cx, out.cy, out.w, out.h) == (60, 50, 20, 10)

    def test_rotation_swaps_sides(self):
        out = map_box(rotation(math.pi / 2), BBox(50, 50, 20, 10))
        assert out.w == pytest.approx(10, abs=1e-9)
        assert out.h == pytest.approx(20, abs=1e-9)

    def test_translation_preserves_size_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            b = BBox(*rng.uniform(10, 100, 2), *rng.uniform(1, 40, 2))
            h = translation(*rng.uniform(-50, 50, 2))
            out = map_box(h, b)
            assert out.w == b.w and out.h == b.h

    def test_degenerate_projection_propagates(self):
        # right corners sit at x = 100, exactly on the line z = 0
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        with pytest.raises(DegenerateProjection, match=r"point Point2\(x=100\.0, y=0\.0\)"):
            map_box(h, BBox(95, 5, 10, 10))


class TestGeoTransform:
    def test_offset_only(self):
        t = GeoTransform(1, 0, 0, 1, 7.5, -2.5)
        assert pixel_to_world(t, Point2(0, 0)) == Point2(7.5, -2.5)

    def test_scale_and_flip(self):
        t = GeoTransform(0.1, 0, 0, -0.1, 100, 50)
        assert pixel_to_world(t, Point2(10, 20)) == Point2(101.0, 48.0)

    def test_identity_like(self):
        t = GeoTransform(1, 0, 0, 1, 0, 0)
        assert pixel_to_world(t, Point2(3, 4)) == Point2(3.0, 4.0)

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            GeoTransform(1, 2, 2, 4, 0, 0)

    def test_affine_combination(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = GeoTransform(*rng.uniform(0.5, 2, 1), 0, 0, *rng.uniform(0.5, 2, 1),
                             *rng.uniform(-10, 10, 2))
            p = Point2(*rng.uniform(-5, 5, 2))
            q = Point2(*rng.uniform(-5, 5, 2))
            alpha, beta = rng.uniform(-1, 2, 2)
            combo = Point2(alpha * p.x + beta * q.x, alpha * p.y + beta * q.y)
            lhs = pixel_to_world(t, combo)
            tp, tq = pixel_to_world(t, p), pixel_to_world(t, q)
            rest = 1 - alpha - beta
            rhs = Point2(
                alpha * tp.x + beta * tq.x + rest * t.tx,
                alpha * tp.y + beta * tq.y + rest * t.ty,
            )
            assert lhs.x == pytest.approx(rhs.x, abs=1e-9)
            assert lhs.y == pytest.approx(rhs.y, abs=1e-9)


def unit_square(offset_x=0.0, offset_y=0.0):
    return Quad(
        Point2(offset_x, offset_y),
        Point2(offset_x + 1, offset_y),
        Point2(offset_x + 1, offset_y + 1),
        Point2(offset_x, offset_y + 1),
    )


class TestQuadIoU:
    def test_identical(self):
        assert quad_iou(unit_square(), unit_square()) == pytest.approx(1.0)

    def test_disjoint(self):
        assert quad_iou(unit_square(), unit_square(5, 5)) == 0.0

    def test_half_shift(self):
        assert quad_iou(unit_square(), unit_square(0.5, 0)) == pytest.approx(1 / 3)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b1 = BBox(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
            b2 = BBox(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
            q1 = map_box(rotation(rng.uniform(0, 3)), b1).corners()
            q2 = map_box(rotation(rng.uniform(0, 3)), b2).corners()
            a = quad_iou(q1, q2)
            b = quad_iou(q2, q1)
            assert 0.0 <= a <= 1.0
            assert a == pytest.approx(b, abs=1e-12)
            assert quad_iou(q1, q1) == pytest.approx(1.0)

    def test_rotated_overlap(self):
        # square vs itself rotated 45 degrees about its center: area ratio
        # of the octagon intersection is 2*(sqrt(2)-1)/(2-(sqrt(2)-1)*2)
        sq = BBox(0, 0, 2, 2)
        q1 = sq.corners()
        h = rotation(math.pi / 4)
        q2 = Quad(*(apply_homography(h, p) for p in q1.points()))
        inter = 8 * (math.sqrt(2) - 1)  # octagon area for side 2
        union = 4 + 4 - inter
        assert quad_iou(q1, q2) == pytest.approx(inter / union, rel=1e-9)

    def test_non_convex_rejected(self):
        bowtie = Quad(Point2(0, 0), Point2(1, 1), Point2(1, 0), Point2(0, 1))
        with pytest.raises(NonConvexInput):
            quad_iou(bowtie, unit_square())
