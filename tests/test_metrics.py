import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import inverse, translation
from skytraj.errors import DegenerateSegment
from skytraj.geometry import BBox, Homography, Point2
from skytraj.kinematics import KinematicsConfig
from skytraj.metrics import (
    ComparisonSample,
    SceneSpec,
    aggregate_comparison,
    corner_displacement,
    nearest_segment,
    positional_deviation,
    scene_miou,
    speed_difference,
)

FPS = Fraction(30000, 1001)
KIN = KinematicsConfig(fps=FPS)


def scene(width=2000.0, height=1000.0, boxes=((500, 500, 60, 30),)):
    return SceneSpec(
        corners=(
            Point2(0, 0),
            Point2(width, 0),
            Point2(width, height),
            Point2(0, height),
        ),
        boxes=tuple(BBox(*b) for b in boxes),
    )


class TestHea:
    """A trial is a HEA hit when its corner displacement is within epsilon;
    ``campaign.run_campaign`` counts the hits."""

    def test_exact_inverse(self):
        h = Homography.from_matrix([[1.1, 0.02, 30], [0, 0.93, -10], [0, 0, 1]])
        assert corner_displacement(h, inverse(h), scene().corners) <= 3.0

    def test_ten_pixel_offset_fails_eps_five(self):
        h = Homography.identity()
        off = translation(10, 0)
        assert corner_displacement(h, off, scene().corners) == pytest.approx(10.0)

    def test_corner_displacement_is_mean(self):
        h = Homography.identity()
        off = translation(3, 4)
        assert corner_displacement(h, off, scene().corners) == pytest.approx(5.0)


class TestMiou:
    """``scene_miou`` scores one trial; ``campaign.run_campaign`` averages
    the trials of a grid cell."""

    def test_perfect(self):
        h = Homography.from_matrix([[1.02, 0, 15], [0, 0.99, -5], [0, 0, 1]])
        assert scene_miou(h, inverse(h), scene().boxes) == pytest.approx(1.0, abs=1e-9)

    def test_full_width_shift_disjoint(self):
        sc = scene(boxes=((500, 500, 60, 30),))
        off = translation(60, 0)
        assert scene_miou(Homography.identity(), off, sc.boxes) == 0.0

    def test_half_width_shift_square(self):
        sc = scene(boxes=((500, 500, 50, 50),))
        off = translation(25, 0)
        assert scene_miou(Homography.identity(), off, sc.boxes) == pytest.approx(1 / 3)

    def test_invariant_to_box_order(self):
        boxes = ((300, 300, 40, 20), (800, 400, 80, 40), (1200, 700, 30, 60))
        sc1 = scene(boxes=boxes)
        sc2 = scene(boxes=boxes[::-1])
        h_t = Homography.identity()
        h_e = translation(5, 3)
        assert scene_miou(h_t, h_e, sc1.boxes) == pytest.approx(
            scene_miou(h_t, h_e, sc2.boxes), abs=1e-12
        )

    def test_round_trip_identity_gives_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = Homography.from_matrix(
                [
                    [rng.uniform(0.9, 1.1), rng.uniform(-0.05, 0.05), rng.uniform(-50, 50)],
                    [rng.uniform(-0.05, 0.05), rng.uniform(0.9, 1.1), rng.uniform(-50, 50)],
                    [rng.uniform(-1e-5, 1e-5), rng.uniform(-1e-5, 1e-5), 1.0],
                ]
            )
            sc = scene(boxes=((700, 450, 70, 35), (1100, 600, 45, 90)))
            assert corner_displacement(h, inverse(h), sc.corners) <= 1e-6
            assert scene_miou(h, inverse(h), sc.boxes) == pytest.approx(1.0, abs=1e-6)


def sample(probe, speed, pts_speeds):
    return ComparisonSample(
        probe=Point2(*probe),
        probe_speed_kmh=speed,
        candidate=tuple((Point2(x, y), v) for x, y, v in pts_speeds),
    )


class TestPositionalDeviation:
    def test_point_line_distance(self):
        s = sample((0, 5), 30, [(0, 0, 40), (10, 0, 60)])
        assert positional_deviation(s) == pytest.approx(5.0)

    def test_point_on_line(self):
        s = sample((5, 0), 30, [(0, 0, 40), (10, 0, 60)])
        assert positional_deviation(s) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_candidates(self):
        s = sample((0, 5), 30, [(0, 0, 40), (0, 0, 60)])
        with pytest.raises(DegenerateSegment):
            positional_deviation(s)

    def test_adjacent_neighbor_selection(self):
        # probe nearest to the middle point; the nearer sequence neighbor
        # (index 2) defines the segment, not the global second-nearest
        s = sample(
            (5.4, 1.0), 30,
            [(0, 0, 10), (5, 0, 20), (6, 0, 30), (100, 100, 40)],
        )
        p1, _, p2, _, d1, d2 = nearest_segment(s)
        assert (p1.x, p2.x) == (5.0, 6.0)
        assert positional_deviation(s) == pytest.approx(1.0)

    def test_endpoint_uses_single_neighbor(self):
        s = sample((-1, 2), 30, [(0, 0, 10), (5, 0, 20), (10, 0, 30)])
        p1, _, p2, _, _, _ = nearest_segment(s)
        assert (p1.x, p2.x) == (0.0, 5.0)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xs = np.arange(10.0)
            h = rng.uniform(0.05, 0.4)
            u = rng.uniform(0.1, 0.45)
            i = int(rng.integers(0, 9))
            probe = np.array([xs[i] + u, h])
            pts = np.stack([xs, np.zeros(10)], axis=1)
            base = sample(tuple(probe), 30, [(x, y, 0.0) for x, y in pts])
            d0 = positional_deviation(base)
            angle = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            )
            shift = rng.uniform(-100, 100, 2)
            probe_r = rot @ probe + shift
            pts_r = pts @ rot.T + shift
            moved = sample(tuple(probe_r), 30, [(x, y, 0.0) for x, y in pts_r])
            assert positional_deviation(moved) == pytest.approx(d0, abs=1e-9)
            assert d0 == pytest.approx(h, abs=1e-12)


class TestSpeedDifference:
    def test_equal_distances_mean(self):
        s = sample((5, 3), 50, [(0, 0, 40), (10, 0, 60)])
        assert speed_difference(s) == pytest.approx(0.0, abs=1e-12)

    def test_weight_ratio(self):
        # d1 = 1, d2 = 3 -> w1 = 0.75, w2 = 0.25
        s = sample((1, 0), 0.0, [(0, 0, 1.0), (4, 0, 0.0)])
        p1, v1, p2, v2, d1, d2 = nearest_segment(s)
        assert (d1, d2) == (1.0, 3.0)
        assert -speed_difference(s) == pytest.approx(0.75)

    def test_probe_on_candidate_point(self):
        s = sample((0, 0), 45, [(0, 0, 40), (10, 0, 60)])
        assert speed_difference(s) == pytest.approx(45 - 40, abs=1e-12)

    def test_weights_sum_to_one_and_nearer_dominates(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xs = np.arange(8.0) * rng.uniform(0.5, 3)
            i = int(rng.integers(0, 7))
            u = rng.uniform(0.05, 0.45)
            h = rng.uniform(0, 0.3)
            probe = (xs[i] + u * (xs[1] - xs[0]), h)
            # v1 = 1, v2 = 0: interpolated speed equals w1
            pts = [(x, 0.0, 0.0) for x in xs]
            s0 = sample(probe, 0.0, pts)
            p1, _, p2, _, d1, d2 = nearest_segment(s0)
            pts_w = [
                (x, 0.0, 1.0 if (x == p1.x) else 0.0) for x in xs
            ]
            w1 = -speed_difference(sample(probe, 0.0, pts_w))
            pts_w2 = [
                (x, 0.0, 1.0 if (x == p2.x) else 0.0) for x in xs
            ]
            w2 = -speed_difference(sample(probe, 0.0, pts_w2))
            assert w1 + w2 == pytest.approx(1.0, abs=1e-12)
            if d1 < d2:
                assert w1 > 0.5
            elif d2 < d1:
                assert w2 > 0.5

    def test_duplicated_point_on_probe(self):
        s = sample((0, 0), 45, [(0, 0, 40), (0, 0, 60), (5, 0, 50)])
        with pytest.raises(DegenerateSegment):
            speed_difference(s)


class TestAggregateComparison:
    def test_single_sample_zero_sd(self):
        samples = [sample((0, 2), 30, [(0, 0, 28), (10, 0, 28)])]
        reports = aggregate_comparison({"E": samples}, KIN)
        assert len(reports) == 1
        r = reports[0]
        assert r.pos_dev_mean_m == pytest.approx(2.0)
        assert r.pos_dev_std_m == 0.0
        assert r.n_samples == 1

    def test_population_sd(self):
        cand = [(0, 0, 30), (10, 0, 30)]
        samples = [sample((0, 1), 30, cand), sample((1, 3), 30, cand)]
        r = aggregate_comparison({"G": samples}, KIN)[0]
        assert r.pos_dev_mean_m == pytest.approx(2.0)
        assert r.pos_dev_std_m == pytest.approx(1.0)

    def test_empty_group_excluded(self):
        assert aggregate_comparison({"E": []}, KIN) == []

    def test_speed_floor_excludes_slow_probes(self):
        cand = [(0, 0, 30), (10, 0, 30)]
        samples = [sample((0, 1), 0.5, cand), sample((1, 1), 0.9, cand)]
        r = aggregate_comparison({"E": samples}, KIN)[0]  # floor 1 km/h
        assert r.speed_diff_mean_kmh is None
        assert r.n_samples == 2  # positional stats still reported
        lower = KinematicsConfig(fps=FPS, speed_floor_kmh=0.7)
        r = aggregate_comparison({"E": samples}, lower)[0]
        assert r.speed_diff_mean_kmh == pytest.approx(0.9 - 30)

    def test_trajectory_stats(self):
        cand = [(0, 0, 30), (3, 4, 30), (6, 8, 30)]
        samples = [sample((0, 1), 30, cand)]
        r = aggregate_comparison({"E": samples}, KIN)[0]
        assert r.traj_length_m == pytest.approx(10.0)
        assert r.traj_duration_s == pytest.approx(3 / float(FPS))

    def test_degenerate_samples_skipped_and_counted(self):
        good = sample((0, 1), 30, [(0, 0, 30), (10, 0, 30)])
        bad = sample((0, 1), 30, [(0, 0, 30), (0, 0, 30)])
        r = aggregate_comparison({"E": [good, bad]}, KIN)[0]
        assert r.n_samples == 1
        assert r.skipped == 1
