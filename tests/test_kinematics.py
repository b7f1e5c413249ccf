import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import track_columns, visible_column
from skytraj import kinematics
from skytraj.errors import SkytrajError, TooShort
from skytraj.geometry import Point2
from skytraj.kinematics import (
    MAX_DENSE_FRAMES,
    MAX_KERNEL_RADIUS,
    KinematicsConfig,
    acceleration,
    compute_profile,
    gate_by_visibility,
    gaussian_kernel,
    gaussian_smooth,
    interpolate_gaps,
    raw_speed,
    reflect_indices,
)
from skytraj.pipeline import kinematic_profile

FPS = Fraction(30000, 1001)


def dense_points(points):
    """`interpolate_gaps` of a frame -> Point2 map, as such a map."""
    frames, x, y = interpolate_gaps(*track_columns(points))
    return dict(zip(frames.tolist(), map(Point2, x.tolist(), y.tolist())))


def speeds_of(dense, fps):
    """`raw_speed` of a dense frame -> Point2 map, by frame."""
    frames, x, y = track_columns(dense)
    return dict(zip(frames[1:].tolist(), raw_speed(x, y, fps).tolist()))


def profile_of(points, cfg):
    return compute_profile(*track_columns(points), cfg)


def gated(profile, points, visible):
    """``profile`` gated to the observed frames of ``points`` that are in the
    set ``visible``."""
    frames = np.array(sorted(points))
    return gate_by_visibility(profile, frames, visible_column(frames, visible))


class TestInterpolateGaps:
    def test_midpoint(self):
        dense = dense_points({1: Point2(0, 0), 3: Point2(2, 0)})
        assert dense[2] == Point2(1.0, 0.0)
        assert sorted(dense) == [1, 2, 3]

    def test_no_gaps_unchanged(self):
        pts = {1: Point2(0, 0), 2: Point2(1, 1)}
        assert dense_points(pts) == pts

    def test_single_point(self):
        with pytest.raises(TooShort):
            dense_points({1: Point2(0, 0)})

    def test_multi_frame_gap_linear(self):
        dense = dense_points({1: Point2(0, 0), 5: Point2(4, 8)})
        assert dense[2] == Point2(1.0, 2.0)
        assert dense[4] == Point2(3.0, 6.0)


class TestRawSpeed:
    def test_one_meter_per_frame(self):
        dense = {k: Point2(float(k), 0) for k in range(1, 5)}
        speeds = speeds_of(dense, FPS)
        assert speeds[2] == pytest.approx(float(FPS), abs=1e-12)
        assert 2 not in speeds or 1 not in speeds  # first frame has no speed
        assert sorted(speeds) == [2, 3, 4]

    def test_stationary(self):
        dense = {k: Point2(5, 5) for k in range(1, 4)}
        assert all(v == 0.0 for v in speeds_of(dense, FPS).values())

    def test_diagonal_345(self):
        dense = {1: Point2(0, 0), 2: Point2(3, 4)}
        assert speeds_of(dense, FPS)[2] == pytest.approx(5 * float(FPS), abs=1e-9)


def reflect_oracle(j, n):
    if n == 1:
        return 0
    period = 2 * (n - 1)
    j = abs(j) % period
    return period - j if j >= n else j


def smooth_oracle(values, sigma):
    n = len(values)
    half = int(round(3.0 * sigma))
    if half == 0:
        return list(values)
    weights = [math.exp(-(i * i) / (2.0 * sigma * sigma)) for i in range(-half, half + 1)]
    total = sum(weights)
    out = []
    for k in range(n):
        acc = 0.0
        for idx, i in enumerate(range(-half, half + 1)):
            acc += values[reflect_oracle(k + i, n)] * weights[idx]
        out.append(acc / total)
    return out


class TestGaussianSmooth:
    def test_constant_exact(self):
        out = gaussian_smooth(np.full(100, 3.7), 14.0)
        assert np.allclose(out, 3.7, atol=1e-12)

    def test_impulse_symmetric_unit_mass(self):
        v = np.zeros(301)
        v[150] = 1.0
        out = gaussian_smooth(v, 5.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(out[150 - 15:150], out[150 + 15:150:-1], atol=1e-12)

    def test_length_one_unchanged(self):
        assert gaussian_smooth(np.array([2.5]), 14.0)[0] == 2.5

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            sigma = float(rng.uniform(0.5, 15))
            v = rng.uniform(0, 10, n)
            got = gaussian_smooth(v, sigma)
            want = smooth_oracle(list(v), sigma)
            assert np.allclose(got, want, atol=1e-12)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.uniform(-5, 5, int(rng.integers(2, 200)))
            out = gaussian_smooth(v, 7.0)
            assert out.min() >= v.min() - 1e-12
            assert out.max() <= v.max() + 1e-12

    def test_short_sequence_with_wide_kernel(self):
        # kernel half-width 42 greatly exceeds the sequence: repeated
        # reflection must still produce finite, range-bounded output
        v = np.array([1.0, 2.0, 3.0])
        out = gaussian_smooth(v, 14.0)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, smooth_oracle([1.0, 2.0, 3.0], 14.0), atol=1e-12)


class TestSigmaBound:
    @pytest.mark.parametrize("sigma", [MAX_KERNEL_RADIUS / 3, 33333.5, 0.1])
    def test_kernel_radius_up_to_the_bound_is_accepted(self, sigma):
        assert round(3.0 * KinematicsConfig(sigma=sigma).sigma) <= MAX_KERNEL_RADIUS

    @pytest.mark.parametrize("sigma", [33334.0, 1e7, 1e20, 1e308, math.inf, math.nan, 0.0, -1.0])
    def test_larger_radius_or_bad_sigma_is_refused(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive, with round"):
            KinematicsConfig(sigma=sigma)


class TestAcceleration:
    def test_constant_speed(self):
        out = acceleration(np.full(10, 8.0), FPS)
        assert np.allclose(out, 0.0)

    def test_linear_ramp(self):
        out = acceleration(np.arange(10.0), FPS)
        assert np.allclose(out, float(FPS), atol=1e-9)

    def test_two_elements(self):
        out = acceleration([1.0, 2.0], FPS)
        assert out.shape == (1,)

    def test_ramp_through_smoothing(self):
        ramp = np.arange(300.0)
        smooth = gaussian_smooth(ramp, 14.0)
        acc = acceleration(smooth, FPS)
        interior = acc[60:-60]
        assert np.allclose(interior, float(FPS), atol=1e-9)


class TestProfileAndGating:
    cfg = KinematicsConfig(sigma=14.0, fps=FPS)

    def test_constant_velocity_profile(self):
        pts = {k: Point2(1.0 * (k - 1), 0.0) for k in range(1, 40)}
        profile = profile_of(pts, self.cfg)
        assert math.isnan(profile.speed_smooth[0])
        assert np.allclose(profile.speed_smooth[1:], float(FPS), atol=1e-9)
        assert np.allclose(profile.accel[2:], 0.0, atol=1e-9)
        assert math.isnan(profile.accel[1])

    def test_full_visibility_unchanged(self):
        pts = {k: Point2(0.5 * k, 0.0) for k in range(1, 10)}
        profile = profile_of(pts, self.cfg)
        assert gated(profile, pts, set(range(1, 10))).exported.all()

    def test_partial_gating(self):
        pts = {k: Point2(0.5 * k, 0.0) for k in range(1, 11)}
        profile = profile_of(pts, self.cfg)
        partial = gated(profile, pts, set(range(6, 11)))
        assert partial.exported.tolist() == [False] * 5 + [True] * 5
        assert not math.isnan(partial.speed_smooth[6])  # frame 7
        # internal values unchanged by gating
        assert np.array_equal(partial.speed_smooth, profile.speed_smooth, equal_nan=True)

    def test_empty_visibility_exports_nothing(self):
        pts = {k: Point2(0.5 * k, 0.0) for k in range(1, 6)}
        hidden = gated(profile_of(pts, self.cfg), pts, set())
        assert not hidden.exported.any()

    def test_interpolated_frames_present(self):
        pts = {1: Point2(0, 0), 4: Point2(3, 0), 5: Point2(4, 0)}
        profile = profile_of(pts, self.cfg)
        assert list(profile.frames) == [1, 2, 3, 4, 5]
        assert np.allclose(profile.speed_raw[1:], float(FPS), atol=1e-9)

    def test_first_frame_speed_undefined(self):
        pts = {k: Point2(2.0 * k, 0.0) for k in range(1, 6)}
        profile = gated(profile_of(pts, self.cfg), pts, set(range(1, 6)))
        assert profile.exported.all()
        assert math.isnan(profile.speed_smooth[0])  # frame 1
        assert math.isnan(profile.accel[1])  # frame 2
        assert not math.isnan(profile.accel[2])  # frame 3


# --- the column stage against the per-point reference -------------------------


@st.composite
def _trajectories(draw):
    """1 to 14 observed frames with gaps of up to 9 frames, repeated and
    signed-zero positions, huge steps whose speed overflows, and any subset
    of the frames visible."""
    steps = draw(st.lists(st.integers(1, 9), min_size=1, max_size=14))
    frames = (draw(st.integers(-5, 100)) + np.cumsum(steps)).tolist()
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-1e4, 1e4),
                      st.sampled_from([1e300, -1e308]))
    points = {f: Point2(draw(coord), draw(coord)) for f in frames}
    visible = set(draw(st.lists(st.sampled_from(frames), unique=True)))
    return points, visible


# kernels narrower than one frame, and much wider than the sequence
SIGMAS = st.one_of(st.sampled_from([0.1, 0.4, 2.0, 14.0, 40.0]), st.floats(0.1, 30.0))


def _bytes(profile):
    return [a.tobytes() for a in (profile.frames, profile.speed_raw, profile.speed_smooth,
                                  profile.accel, profile.exported)]


def _outcome(call):
    try:
        return _bytes(call())
    except SkytrajError as exc:
        return type(exc).__name__, str(exc)


class TestMatchesPerPointReference:
    @settings(max_examples=400, deadline=None)
    @given(case=_trajectories(), sigma=SIGMAS)
    def test_profile_bit_for_bit(self, case, sigma):
        points, visible = case
        cfg = KinematicsConfig(sigma=sigma)
        assert _outcome(lambda: profile_of(points, cfg)) == _outcome(
            lambda: reference.compute_profile(points, cfg))
        frames, x, y = track_columns(points)
        got = kinematic_profile(frames, x, y, visible_column(frames, visible), cfg)
        ref = reference.kinematic_profile(points, visible, cfg)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert _bytes(got) == _bytes(ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_tracks(self, n):
        points = {k: Point2(1.5 * k, -0.5 * k) for k in range(1, n + 1)}
        cfg = KinematicsConfig(sigma=14.0)  # kernel radius 42 > n
        assert _outcome(lambda: profile_of(points, cfg)) == _outcome(
            lambda: reference.compute_profile(points, cfg))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), max_size=60), sigma=SIGMAS)
    def test_smoothing_bit_for_bit(self, values, sigma):
        v = np.array(values, dtype=float)
        assert gaussian_smooth(v, sigma).tobytes() == reference.gaussian_smooth(v, sigma).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    @pytest.mark.parametrize("half", [0, 1, 2, 6, 42, 200])
    def test_reflect_indices_equal_the_loop(self, n, half):
        want = [reference.reflect_index(j, n) for j in range(-half, n + half)]
        assert reflect_indices(n, half).tolist() == want

    def test_kernel_is_computed_once_and_read_only(self):
        kernel = gaussian_kernel(14.0)
        assert gaussian_kernel(14.0) is kernel
        assert len(kernel) == 85 and not kernel.flags.writeable

    def test_raw_speed_is_math_hypot_per_step(self):
        # numpy's vectorized hypot may differ from libm's in the last ulp
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.normal(size=20_000) * rng.choice([1e-3, 1.0, 1e3], 20_000))
        y = np.cumsum(rng.normal(size=20_000))
        dense = dict(enumerate(map(Point2, x.tolist(), y.tolist()), start=1))
        want = list(reference.raw_speed(dense, FPS).values())
        assert raw_speed(x, y, FPS).tolist() == want


class TestDenseSpanBound:
    def test_span_beyond_the_bound_is_refused_before_allocating(self):
        # filling this gap would take terabytes
        with pytest.raises(SkytrajError, match=(
                "^trajectory spans frames 1 to 1000000000000, more than 1000000 frames$")):
            compute_profile(np.array([1, 10**12]), np.zeros(2), np.ones(2), KinematicsConfig())
        assert MAX_DENSE_FRAMES == 1_000_000

    def test_bound_counts_dense_frames(self, monkeypatch):
        monkeypatch.setattr(kinematics, "MAX_DENSE_FRAMES", 10)
        x, y = np.zeros(2), np.arange(2.0)
        assert len(compute_profile(np.array([3, 12]), x, y, KinematicsConfig()).frames) == 10
        with pytest.raises(SkytrajError, match="spans frames 3 to 13, more than 10 frames"):
            compute_profile(np.array([3, 13]), x, y, KinematicsConfig())
