import math

import numpy as np
import pytest

from conftest import inverse, rotation, scaling, translation
from skytraj.errors import (
    DegenerateProjection,
    NonConvexInput,
    SingularResult,
    SingularTransform,
)
from skytraj.geometry import (
    GeoTransform,
    Homography,
    Point2,
    apply_homography_array,
    box_corners,
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


def apply(h: Homography, p) -> Point2:
    """One point through `apply_homography_array`."""
    return Point2(*apply_homography_array(h, [p])[0].tolist())


class TestApplyHomography:
    def test_identity(self):
        p = apply(Homography.identity(), Point2(5, 7))
        assert p == Point2(5.0, 7.0)

    def test_translation(self):
        h = translation(10, -3)
        assert apply(h, Point2(0, 0)) == Point2(10.0, -3.0)

    def test_perspective_division(self):
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [0.001, 0, 1]])
        p = apply(h, Point2(100, 50))
        assert p.x == pytest.approx(100 / 1.1, abs=1e-12)
        assert p.y == pytest.approx(50 / 1.1, abs=1e-12)

    def test_projective_infinity(self):
        # the line x = 100 maps to infinity; the first point on it is named
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        with pytest.raises(DegenerateProjection) as err:
            apply_homography_array(h, [(50, 1), (100, 5), (100, 7)])
        assert str(err.value) == "point Point2(x=100.0, y=5.0) maps to projective infinity"

    def test_array_shape(self):
        h = translation(1, 2)
        assert apply_homography_array(h, np.zeros((0, 2))).shape == (0, 2)
        assert apply_homography_array(h, [(0, 0), (1, 1)]).tolist() == [[1, 2], [2, 3]]

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
        assert apply(c, Point2(0, 0)) == Point2(2.0, 0.0)

    def test_matches_pointwise_application(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h1 = random_homography_matrix(rng)
            h2 = random_homography_matrix(rng)
            p = Point2(*rng.uniform(-500, 500, 2))
            lhs = apply(compose(h2, h1), p)
            rhs = apply(h2, apply(h1, p))
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
            q = apply(inverse(h), apply(h, p))
            assert math.hypot(q.x - p.x, q.y - p.y) < 1e-9

    def test_composition_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            h1, h2, h3 = (random_homography_matrix(rng) for _ in range(3))
            p = Point2(*rng.uniform(-300, 300, 2))
            a = apply(compose(compose(h3, h2), h1), p)
            b = apply(compose(h3, compose(h2, h1)), p)
            assert math.hypot(a.x - b.x, a.y - b.y) < 1e-9


def map_box(h: Homography, box) -> list[float]:
    """One ``cx, cy, w, h`` box through `transform_boxes`."""
    (row,) = transform_boxes([h], [0], np.array([box], dtype=float)).tolist()
    return row


def corners(box) -> list[list[float]]:
    """The four `box_corners` of one box."""
    return box_corners(np.array([box], dtype=float))[0].tolist()


class TestTransformBBox:
    def test_identity(self):
        assert map_box(Homography.identity(), (50, 50, 20, 10)) == [50, 50, 20, 10]

    def test_translation(self):
        assert map_box(translation(10, 0), (50, 50, 20, 10)) == [60, 50, 20, 10]

    def test_rotation_swaps_sides(self):
        _, _, w, h = map_box(rotation(math.pi / 2), (50, 50, 20, 10))
        assert w == pytest.approx(10, abs=1e-9)
        assert h == pytest.approx(20, abs=1e-9)

    def test_translation_preserves_size_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            b = (*rng.uniform(10, 100, 2), *rng.uniform(1, 40, 2))
            h = translation(*rng.uniform(-50, 50, 2))
            _, _, w, bh = map_box(h, b)
            assert w == b[2] and bh == b[3]

    def test_degenerate_projection_propagates(self):
        # right corners sit at x = 100, exactly on the line z = 0
        h = Homography.from_matrix([[1, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        with pytest.raises(DegenerateProjection, match=r"point Point2\(x=100\.0, y=0\.0\)"):
            map_box(h, (95, 5, 10, 10))

    def test_corner_order(self):
        assert corners((5, 10, 4, 2)) == [[3, 9], [7, 9], [7, 11], [3, 11]]


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
    return [
        (offset_x, offset_y),
        (offset_x + 1, offset_y),
        (offset_x + 1, offset_y + 1),
        (offset_x, offset_y + 1),
    ]


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
            b1 = (*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
            b2 = (*rng.uniform(0, 10, 2), *rng.uniform(0.5, 5, 2))
            q1 = corners(map_box(rotation(rng.uniform(0, 3)), b1))
            q2 = corners(map_box(rotation(rng.uniform(0, 3)), b2))
            a = quad_iou(q1, q2)
            b = quad_iou(q2, q1)
            assert 0.0 <= a <= 1.0
            assert a == pytest.approx(b, abs=1e-12)
            assert quad_iou(q1, q1) == pytest.approx(1.0)

    def test_rotated_overlap(self):
        # square vs itself rotated 45 degrees about its center: area ratio
        # of the octagon intersection is 2*(sqrt(2)-1)/(2-(sqrt(2)-1)*2)
        q1 = corners((0, 0, 2, 2))
        q2 = apply_homography_array(rotation(math.pi / 4), q1).tolist()
        inter = 8 * (math.sqrt(2) - 1)  # octagon area for side 2
        union = 4 + 4 - inter
        assert quad_iou(q1, q2) == pytest.approx(inter / union, rel=1e-9)

    def test_non_convex_rejected(self):
        bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
        with pytest.raises(NonConvexInput):
            quad_iou(bowtie, unit_square())
