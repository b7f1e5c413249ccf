import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import inverse, outcome, rotation, scaling, translation
from skytraj.errors import (
    DegenerateProjection,
    InvalidGeometry,
    NonConvexInput,
    SingularResult,
    SingularTransform,
)
from skytraj.geometry import (
    Z_TOL,
    GeoTransform,
    Homography,
    Point2,
    apply_homography_array,
    at_infinity,
    box_corners,
    compose,
    map_point,
    pixel_to_world,
    project_array,
    quad_iou,
    screen_homographies,
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

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularTransform) as err:
            Homography.from_matrix(np.zeros((3, 3)))
        assert str(err.value) == "matrix below invertibility floor (|det|=0.000e+00)"

    def test_floor_does_not_depend_on_scale(self):
        # 1e-110 * I has |det| and fro**3 below the smallest double; its
        # corner entry is the largest, so it is stored as the identity
        h = Homography.from_matrix(1e-110 * np.eye(3))
        assert np.array_equal(h.m, np.eye(3))
        assert np.array_equal(Homography.from_matrix(1e200 * np.eye(3)).m, np.eye(3))
        with pytest.raises(SingularTransform):
            Homography.from_matrix(1e200 * np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))

    @pytest.mark.parametrize(
        "shift, det", [(1e103, "1.000e-309"), (1e200, "0.000e+00"), (-1e200, "0.000e+00")]
    )
    def test_huge_translation_rejected_without_overflow(self, shift, det):
        # |det| / fro**3 is about shift**-3, far below the floor; neither
        # fro**3 nor the norm overflows on the way
        with pytest.raises(SingularTransform) as err:
            Homography.from_matrix([[1, 0, shift], [0, 1, 0], [0, 0, 1]])
        assert str(err.value) == f"matrix below invertibility floor (|det|={det})"

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-13, 1e-9, 3.5, -1e4, 2e8]),
                         min_size=9, max_size=9),
        k=st.integers(-300, 300),
    )
    def test_power_of_two_multiple_is_the_same_map(self, entries, k):
        """Acceptance and the stored matrix do not change when the matrix
        is scaled by 2**k: the floor and the m[2,2] test are relative."""
        def stored(m):
            try:
                return Homography.from_matrix(m).m
            except SingularTransform:
                return None

        m = np.array(entries).reshape(3, 3)
        got, want = stored(m * 2.0**k), stored(m)
        if want is None or abs(m[2, 2]) <= 1e-12 * np.abs(m).max():
            assert (got is None) == (want is None)
        else:
            assert np.array_equal(got, want)

    def test_zero_corner_entry_leaves_matrix_unnormalized(self):
        h = Homography.from_matrix([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        assert h.m[2, 2] == 0.0
        assert np.array_equal(h.m, [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        h2 = Homography.from_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert h2.m[2, 2] == 1.0
        assert np.array_equal(h2.m, np.eye(3))


_EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]


@st.composite
def _point_maps(draw):
    """A matrix's 9 entries and a point, the point on, near or off the
    matrix's horizon, up to two of the 11 values extreme."""
    values = [draw(st.floats(-1e3, 1e3)) for _ in range(9)]
    values += [draw(st.floats(-1e4, 1e4)) for _ in range(2)]
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, 10))] = draw(st.sampled_from(_EXTREMES))
    m, (x, y) = values[:9], values[9:]
    offset = draw(st.sampled_from([None, 0.0, 5e-13, -5e-13, 1e-12, 2e-12, 1e-9]))
    if offset is not None:
        # z = g*x + k*y + s lands at the offset, give or take its rounding
        with np.errstate(all="ignore"):
            m[8] = offset - (m[6] * x + m[7] * y)
    return m, x, y


def _bits(value) -> bytes:
    return np.array(value, dtype=float).tobytes()


class TestMapPoint:
    @settings(max_examples=1000, deadline=None)
    @given(case=_point_maps())
    @example(case=([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -0.01, 0.0, 1.0], 100.0, 5.0))
    @example(case=([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 3.0, 4.0))
    def test_equals_project_array_or_raises_its_error(self, case):
        """`map_point` has `project_array`'s bits, or raises the text
        `apply_homography_array` raises for the same point."""
        m, x, y = case
        a = np.array(m).reshape(3, 3)
        px, py, z = project_array(a, np.array([[x, y]]))
        try:
            want = _bits((px[0], py[0]))
            apply_homography_array(Homography(a), [(x, y)])
        except DegenerateProjection as exc:
            assert at_infinity(z[0])
            with pytest.raises(DegenerateProjection) as got:
                map_point(m, x, y)
            assert str(got.value) == str(exc)
        else:
            assert _bits(map_point(m, x, y)) == want

    def test_tests_the_scale_before_dividing(self):
        # z is exactly 0: no ZeroDivisionError, the point is named
        with pytest.raises(DegenerateProjection) as err:
            map_point([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 3.0, 4.0)
        assert str(err.value) == "point Point2(x=3.0, y=4.0) maps to projective infinity"

    def test_at_infinity_is_below_the_tolerance(self):
        assert at_infinity(0.0) and at_infinity(-0.0) and at_infinity(-Z_TOL / 2)
        assert not at_infinity(Z_TOL) and not at_infinity(math.nan)
        assert at_infinity(np.array([Z_TOL, -1e-13, math.inf])).tolist() == [False, True, False]


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up (k < 0: down)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _accepted(m) -> bool:
    return bool(screen_homographies(np.asarray(m, dtype=float)[None])[1][0])


def _at_the_floor(rng, k: int) -> np.ndarray:
    """A random matrix, dense or diagonal, whose m[0,0] is the first value
    that passes the invertibility floor (``_accepted``), moved ``k``
    floats; the floats on either side of that value get different
    verdicts. A diagonal determinant is one product, so there it moves by
    about an ulp per float of m[0,0], and the rounding of the norm can
    decide the verdict."""
    m = rng.uniform(-1.0, 1.0, (3, 3)) * 10.0 ** rng.integers(-5, 6)
    if rng.random() < 0.5:
        m = np.diag(np.diag(m))
    cofactor = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    m[0, 0] = 0.0
    rest = np.linalg.det(m)
    singular, regular = -rest / cofactor, -rest / cofactor + math.copysign(1.0, cofactor)
    m[0, 0] = regular
    if not _accepted(m):  # a cofactor far below the floor: nothing to find
        return m
    # bisect down to two neighbouring floats
    while (mid := (singular + regular) / 2.0) not in (singular, regular):
        m[0, 0] = mid
        if _accepted(m):
            regular = mid
        else:
            singular = mid
    m[0, 0] = _ulps(regular, k if regular > singular else -k)
    return m


def _z_at_the_tolerance(rng, k: int) -> np.ndarray:
    """A random matrix with m[2,2] ``k`` floats from ``Z_TOL`` times its
    largest entry's magnitude, with either sign."""
    m = rng.uniform(-1.0, 1.0, (3, 3)) * 10.0 ** rng.integers(-300, 301)
    m[2, 2] = 0.0
    m[2, 2] = rng.choice([-1.0, 1.0]) * _ulps(Z_TOL * float(np.abs(m).max()), k)
    return m


def _rule_matrix(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (3, 3)) * 10.0 ** rng.integers(-300, 301)
    if kind == "zero":
        return rng.choice([0.0, -0.0], (3, 3))
    if kind == "non-finite":
        m = rng.uniform(-1.0, 1.0, (3, 3))
        m[tuple(rng.integers(0, 3, 2))] = rng.choice([np.nan, np.inf, -np.inf])
        return m
    if kind == "peaks":  # entries of 1e-300 and 1e300 together
        return rng.choice([1e-300, -1e-300, 1e300, -1e300, 0.0, 1.0], (3, 3))
    if kind.startswith("floor"):
        return _at_the_floor(rng, int(kind[5:]))
    return _z_at_the_tolerance(rng, int(kind[4:]))


RULE_KINDS = ["random", "zero", "non-finite", "peaks", "floor-1", "floor0", "floor1",
              "ztol-1", "ztol0", "ztol1"]


def _from_matrix_outcome(m):
    try:
        return Homography.from_matrix(m).m.tobytes()
    except InvalidGeometry as exc:
        return (type(exc).__name__, str(exc))


def _screen_outcome(finite, invertible, stored, det):
    """What `Homography.from_matrix` gives for one matrix's verdicts."""
    if not finite:
        return ("InvalidGeometry", "homography entries must be finite")
    if not invertible:
        return ("SingularTransform", f"matrix below invertibility floor (|det|={det:.3e})")
    return stored.tobytes()


# Diagonals one float above the floor that a norm taken by `np.linalg.norm`
# (a BLAS dot product) puts below it with some BLAS builds.
NORM_ORDER_EDGES = [
    ("0x1.959b193b207edp-39", "0x1.0000000000000p+0", "-0x1.dd0a389cf2ee0p-2"),
    ("0x1.5be897397582fp-35", "0x1.0000000000000p+0", "0x1.9ea1864a0bc40p-6"),
    ("0x1.772df1c28a377p-39", "0x1.0000000000000p+0", "-0x1.27fc00f48786bp-1"),
    ("0x1.c5e250c6e89bep-34", "-0x1.0000000000000p+0", "-0x1.3d8f66d3a15dep-7"),
]


class TestOneInvertibilityRule:
    """`screen_homographies` decides a matrix the same way alone, inside
    any stack, and through `Homography.from_matrix`."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(RULE_KINDS), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=64))
    def test_each_matrix_as_alone_and_as_from_matrix(self, drawn):
        stack = np.stack([_rule_matrix(kind, seed) for kind, seed in drawn])
        finite, invertible, stored, det = screen_homographies(stack)
        for i, m in enumerate(stack):
            want = _screen_outcome(finite[i], invertible[i], stored[i], det[i])
            one = [out[0] for out in screen_homographies(m[None].copy())]
            assert _screen_outcome(*one) == want
            assert det[i].tobytes() == one[3].tobytes()
            if finite[i]:
                assert stored[i].tobytes() == one[2].tobytes()
            assert _from_matrix_outcome(m) == want

    @pytest.mark.parametrize("diagonal", NORM_ORDER_EDGES)
    def test_from_matrix_sums_the_norm_as_a_stack_does(self, diagonal):
        m = np.diag([float.fromhex(v) for v in diagonal])
        one = [out[0] for out in screen_homographies(m[None])]
        assert _from_matrix_outcome(m) == _screen_outcome(*one)

    def test_the_edge_matrices_reach_both_sides(self):
        """The floor's edge matrices get both verdicts one float apart, and
        m[2,2] divides one float above ``Z_TOL`` times the peak, not at it."""
        flips = 0
        for seed in range(20):
            below, at = (_rule_matrix(f"floor{k}", seed) for k in (-1, 0))
            flips += not _accepted(below) and _accepted(at)
            at, above = (_rule_matrix(f"ztol{k}", seed) for k in (0, 1))
            assert np.array_equal(screen_homographies(at[None])[2][0], at)
            assert screen_homographies(above[None])[2][0, 2, 2] == 1.0
        assert flips >= 15


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

    @pytest.mark.parametrize(
        "coefficients, singular",
        [
            ((1e200, 0, 0, 1e200, 0, 0), False),
            ((1e200, -1e200, 3e199, 1e200, 1e300, -1e300), False),
            ((1e200, 1e200, 1e200, 1e200, 0, 0), True),
            ((1e200, 0, -1e200, 0, 0, 0), True),
            ((0, 0, 0, 0, 1, 1), True),
            ((1e-9, 0, 0, 1e-25, 0, 0), True),  # |ad| is 1e-16 of a^2 + d^2
            ((1e-7, 0, 0, 1e-7, 0, 0), False),
            ((3e-8, 0, 0, 3e-8, 37.38, 126.64), False),
        ],
    )
    def test_floor_without_overflow(self, coefficients, singular):
        if singular:
            with pytest.raises(SingularTransform, match="linear part is singular"):
                GeoTransform(*coefficients)
        else:
            assert GeoTransform(*coefficients).a == coefficients[0]

    @settings(max_examples=300, deadline=None)
    @given(
        linear=st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-15, 1e-8, -3e-8, 0.5, 7.0]),
                        min_size=4, max_size=4),
        k=st.integers(-300, 300),
    )
    def test_floor_does_not_depend_on_scale(self, linear, k):
        def accepted(a, b, c, d):
            try:
                GeoTransform(a, b, c, d, 37.38, 126.64)
            except SingularTransform:
                return False
            return True

        assert accepted(*(v * 2.0**k for v in linear)) == accepted(*linear)

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


# Coordinates that reach every branch of the clip: ordinary values, signed
# zeros, and values whose products overflow, underflow or are undefined.
_QUAD_COORDS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan]),
)


def _box(x0, y0, w, h):
    return [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]


def _reshaped(quad, how):
    if how == "reversed":  # the other winding
        return quad[::-1]
    if how == "bow tie":
        return [quad[0], quad[2], quad[1], quad[3]]
    if how == "coincident":
        return [quad[0], quad[0], quad[2], quad[3]]
    return quad


_QUADS = st.builds(
    _reshaped,
    st.one_of(
        st.lists(st.tuples(_QUAD_COORDS, _QUAD_COORDS), min_size=4, max_size=4),
        st.builds(_box, _QUAD_COORDS, _QUAD_COORDS, _QUAD_COORDS, _QUAD_COORDS),
    ),
    st.sampled_from(["as is", "reversed", "bow tie", "coincident"]),
)


@st.composite
def _quad_pairs(draw):
    """Two quads; the second is often the first moved by the difference of
    two of its vertices (a shared edge or corner: a clip of zero area) or
    far away (disjoint: an empty clip)."""
    a = draw(_QUADS)
    move = draw(st.sampled_from(["free", "by vertices", "far"]))
    if move == "free":
        return a, draw(_QUADS)
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    dx, dy = a[j][0] - a[i][0], a[j][1] - a[i][1]
    if move == "far":
        dx, dy = dx + 1e3, dy - 1e3
    b = [(x + dx, y + dy) for x, y in a]
    return (a, b) if draw(st.booleans()) else (b, a)


class TestQuadIoUMatchesFrozen:
    """`quad_iou` against the per-vertex clip it replaced: the same bits, or
    the same NonConvexInput text."""

    @settings(max_examples=1500, deadline=None)
    @given(_quad_pairs())
    @example((_box(0.0, 0.0, 2.0, 1.0), _box(5.0, 5.0, 1.0, 1.0)))  # disjoint
    @example((_box(0.0, 0.0, 2.0, 1.0), _box(2.0, 1.0, 1.0, 1.0)))  # shared corner
    @example((_box(0.0, 0.0, 2.0, 1.0), _box(2.0, 0.0, 1.0, -1.0)))  # shared edge, clockwise
    @example((_box(0.0, 0.0, 2.0, 1.0), [(0.0, 0.0), (2.0, 1.0), (2.0, 0.0), (0.0, 1.0)]))
    # one cross product exactly at the convexity tolerance (1e-9 at span 1)
    @example(([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-9), (0.5, -0.5)], _box(0.0, -0.5, 1.0, 1.0)))
    def test_same_bits_or_error(self, pair):
        a, b = pair
        assert outcome(quad_iou, a, b) == outcome(reference.quad_iou, a, b)
