import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from conftest import inverse, translation
from skytraj import metrics
from skytraj.dataio import write_comparison_report
from skytraj.errors import DegenerateSegment, TooShort
from skytraj.geometry import BBox, Homography, Point2
from skytraj.kinematics import KinematicsConfig
from skytraj.metrics import SceneSpec, compare_trajectory, corner_displacement, scene_miou

FPS = Fraction(30000, 1001)
KIN = KinematicsConfig(fps=FPS)
NO_FLOOR = KinematicsConfig(fps=FPS, speed_floor_kmh=-math.inf)


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


def compare(probes, pts_speeds, kin=KIN):
    """`compare_trajectory` of probe rows ``(x, y, speed)`` against the
    candidate rows ``(x, y, speed)``."""
    as_rows = lambda rows: np.array(rows, dtype=float).reshape(-1, 3)
    return compare_trajectory("E", as_rows(probes), as_rows(pts_speeds), kin)


def interpolated_speed(probe, pts_speeds):
    """The distance-weighted candidate speed at ``probe``: the probe speed
    minus the speed difference, with every probe speed counted."""
    return -compare([(*probe, 0.0)], pts_speeds, NO_FLOOR).speed_diff_mean_kmh


class TestPositionalDeviation:
    def test_point_line_distance(self):
        assert compare([(0, 5, 30)], [(0, 0, 40), (10, 0, 60)]).pos_dev_mean_m == pytest.approx(5.0)

    def test_point_on_line(self):
        r = compare([(5, 0, 30)], [(0, 0, 40), (10, 0, 60)])
        assert r.pos_dev_mean_m == pytest.approx(0.0, abs=1e-12)

    def test_coincident_candidates(self):
        with pytest.raises(DegenerateSegment):
            compare([(0, 5, 30)], [(0, 0, 40), (0, 0, 60)])

    def test_adjacent_neighbor_selection(self):
        # probe nearest to the second point; its nearer sequence neighbor
        # (the third point) defines the segment, not the first one, whose
        # line would give a deviation of 1 as well
        pts = [(0, 0, 10), (5, 0, 20), (6, 0, 30), (100, 100, 40)]
        assert compare([(5.4, 1.0, 30)], pts).pos_dev_mean_m == pytest.approx(1.0)
        d1, d2 = math.hypot(0.4, 1.0), math.hypot(0.6, 1.0)
        assert interpolated_speed((5.4, 1.0), pts) == pytest.approx(
            (d2 * 20 + d1 * 30) / (d1 + d2)
        )

    def test_endpoint_uses_single_neighbor(self):
        # nearest is the first point; the segment runs to the second, so
        # only the first two speeds mix
        pts = [(0, 0, 10), (5, 0, 20), (10, 0, 30)]
        d1, d2 = math.hypot(1, 2), math.hypot(6, 2)
        assert interpolated_speed((-1, 2), pts) == pytest.approx((d2 * 10 + d1 * 20) / (d1 + d2))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xs = np.arange(10.0)
            h = rng.uniform(0.05, 0.4)
            u = rng.uniform(0.1, 0.45)
            i = int(rng.integers(0, 9))
            probe = np.array([xs[i] + u, h])
            pts = np.stack([xs, np.zeros(10)], axis=1)
            d0 = compare([(*probe, 30)], [(x, y, 0.0) for x, y in pts]).pos_dev_mean_m
            angle = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            )
            shift = rng.uniform(-100, 100, 2)
            probe_r = rot @ probe + shift
            pts_r = pts @ rot.T + shift
            moved = compare([(*probe_r, 30)], [(x, y, 0.0) for x, y in pts_r])
            assert moved.pos_dev_mean_m == pytest.approx(d0, abs=1e-9)
            assert d0 == pytest.approx(h, abs=1e-12)


class TestSpeedDifference:
    def test_equal_distances_mean(self):
        r = compare([(5, 3, 50)], [(0, 0, 40), (10, 0, 60)])
        assert r.speed_diff_mean_kmh == pytest.approx(0.0, abs=1e-12)

    def test_weight_ratio(self):
        # d1 = 1, d2 = 3 -> w1 = 0.75, w2 = 0.25
        assert interpolated_speed((1, 0), [(0, 0, 1.0), (4, 0, 0.0)]) == pytest.approx(0.75)

    def test_probe_on_candidate_point(self):
        r = compare([(0, 0, 45)], [(0, 0, 40), (10, 0, 60)])
        assert r.speed_diff_mean_kmh == pytest.approx(45 - 40, abs=1e-12)

    def test_weights_sum_to_one_and_nearer_dominates(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xs = np.arange(8.0) * rng.uniform(0.5, 3)
            i = int(rng.integers(0, 7))
            u = rng.uniform(0.05, 0.45)
            h = rng.uniform(0, 0.3)
            probe = (xs[i] + u * (xs[1] - xs[0]), h)
            # u < 0.5: point i is nearest and point i + 1 its nearer neighbor
            d1 = math.hypot(xs[i] - probe[0], -h)
            d2 = math.hypot(xs[i + 1] - probe[0], -h)
            # one speed of 1, the rest 0: interpolated speed equals that weight
            w1 = interpolated_speed(probe, [(x, 0.0, float(k == i)) for k, x in enumerate(xs)])
            w2 = interpolated_speed(probe, [(x, 0.0, float(k == i + 1)) for k, x in enumerate(xs)])
            assert w1 == pytest.approx(d2 / (d1 + d2), abs=1e-12)
            assert w1 + w2 == pytest.approx(1.0, abs=1e-12)
            if d1 < d2:
                assert w1 > 0.5
            elif d2 < d1:
                assert w2 > 0.5

    def test_duplicated_point_on_probe(self):
        # the nearest point's nearer neighbor is its duplicate: skipped
        pts = [(0, 0, 40), (0, 0, 60), (5, 0, 50)]
        r = compare([(0, 0, 45), (4, 1, 45)], pts)
        assert (r.n_samples, r.skipped) == (1, 1)
        with pytest.raises(DegenerateSegment):
            compare([(0, 0, 45)], pts)


class TestAggregateComparison:
    """The per-probe deviations aggregated into one report."""

    def test_single_sample_zero_sd(self):
        r = compare([(0, 2, 30)], [(0, 0, 28), (10, 0, 28)])
        assert r.key == "E"
        assert r.pos_dev_mean_m == pytest.approx(2.0)
        assert r.pos_dev_std_m == 0.0
        assert r.n_samples == 1

    def test_population_sd(self):
        r = compare([(0, 1, 30), (1, 3, 30)], [(0, 0, 30), (10, 0, 30)])
        assert r.pos_dev_mean_m == pytest.approx(2.0)
        assert r.pos_dev_std_m == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "probes, pts, message",
        [
            ([], [(0, 0, 30), (10, 0, 30)], "probe trajectory has no points"),
            ([(0, 1, 30)], [(0, 0, 30)], "candidate trajectory needs >= 2 points, got 1"),
            ([(0, 1, 30)], [], "candidate trajectory needs >= 2 points, got 0"),
            ([(0, 1, 30), (0, 2, 30)], [(0, 0, 30), (0, 0, 30)],
             "all 2 probe points skipped: their nearest candidate points coincide"),
        ],
        ids=["no-probe", "one-candidate", "no-candidate", "all-skipped"],
    )
    def test_nothing_to_compare_raises(self, probes, pts, message):
        with pytest.raises((TooShort, DegenerateSegment)) as exc:
            compare(probes, pts)
        assert str(exc.value) == message

    def test_speed_floor_excludes_slow_probes(self):
        cand = [(0, 0, 30), (10, 0, 30)]
        probes = [(0, 1, 0.5), (1, 1, 0.9)]
        r = compare(probes, cand)  # floor 1 km/h
        assert r.speed_diff_mean_kmh is None
        assert r.n_samples == 2  # positional stats still reported
        r = compare(probes, cand, KinematicsConfig(fps=FPS, speed_floor_kmh=0.7))
        assert r.speed_diff_mean_kmh == pytest.approx(0.9 - 30)

    def test_trajectory_stats(self):
        r = compare([(0, 1, 30)], [(0, 0, 30), (3, 4, 30), (6, 8, 30)])
        assert r.traj_length_m == pytest.approx(10.0)
        assert r.traj_duration_s == pytest.approx(3 / float(FPS))

    def test_degenerate_samples_skipped_and_counted(self):
        # one candidate with a repeated point: the probe nearest to it is
        # skipped, the other one counted
        r = compare([(0, 1, 30), (9, 1, 30)], [(0, 0, 30), (0, 0, 30), (10, 0, 30)])
        assert r.n_samples == 1
        assert r.skipped == 1


def comparison_inputs(kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """(probe, candidate) rows ``x, y, speed`` of one seeded comparison:
    up to 39 probes and 59 candidate points (either may be too few)."""
    m, n = int(rng.integers(1, 60)), int(rng.integers(0, 40))
    walk = rng.normal(size=(m, 2)).cumsum(axis=0)
    if kind == "curve":  # probes scattered about the candidate's points
        cand = np.column_stack([walk, rng.uniform(0, 80, m)])
        near = walk[rng.integers(0, m, n)] + rng.normal(scale=0.7, size=(n, 2))
        probe = np.column_stack([near, rng.uniform(0, 80, n)])
    elif kind == "grid":  # integer points and half-integer probes: many ties
        walk = rng.integers(-1, 2, size=(m, 2)).cumsum(axis=0).astype(float)
        cand = np.column_stack([walk, rng.integers(0, 60, m)])
        near = walk[rng.integers(0, m, n)] + rng.integers(-4, 5, (n, 2)) / 2.0
        probe = np.column_stack([near, rng.integers(0, 60, n)])
    elif kind == "duplicates":  # repeated points, half the probes on a point
        walk = np.repeat(walk, rng.integers(1, 3, m), axis=0)
        cand = np.column_stack([walk, rng.uniform(0, 80, len(walk))])
        shift = (rng.random((n, 1)) < 0.5) * rng.normal(size=(n, 2))
        probe = np.column_stack([walk[rng.integers(0, len(walk), n)] + shift,
                                 rng.uniform(0, 80, n)])
    elif kind == "scales":  # from squares that underflow to ones that overflow
        scale = 10.0 ** rng.uniform(-170, 150)
        cand = np.column_stack([walk * scale, rng.uniform(0, 80, m)])
        probe = np.column_stack([rng.normal(size=(n, 2)) * 3 * scale, rng.uniform(0, 80, n)])
    else:  # slow: speeds on both sides of, and at, the 1 km/h floor
        cand = np.column_stack([walk, rng.uniform(0, 3, m)])
        probe = np.column_stack([rng.normal(size=(n, 2)) * 3,
                                 rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], n)])
    return probe.reshape(-1, 3), cand.reshape(-1, 3)


class TestCompareMatchesReference:
    """`compare_trajectory` gives the per-sample reference's report, float
    for float and byte for byte, and raises where the reference reports
    nothing."""

    # Squares of the first and third points' distances underflow: the
    # third looks nearest to a screen without an absolute floor.
    UNDERFLOW = ([(0.0, 0.0, 20.0)],
                 [(1.5e-162, 1.5e-162, 10.0), (0, 7, 30.0), (1.6e-162, 0, 50.0), (3, -1, 70.0)])
    # The third point's squared distance is the smaller, its math.hypot
    # distance the larger: the first point is nearest.
    ROUNDING = ([(0.0, 0.0, 20.0)],
                [(0.7238152190739509, 0.631167676204533, 10.0), (5, 5, 30.0),
                 (0.7712487193018349, 0.5722381670456639, 50.0), (6, 6, 70.0)])

    def check(self, probe, candidate, tmp_path):
        probe = np.array(probe, dtype=float).reshape(-1, 3)
        candidate = np.array(candidate, dtype=float).reshape(-1, 3)
        pts = tuple((Point2(x, y), v) for x, y, v in candidate.tolist())
        samples = [reference.ComparisonSample(Point2(x, y), v, pts) for x, y, v in probe.tolist()]
        expected = reference.aggregate_comparison({"E": samples}, KIN)
        if not expected:
            with pytest.raises((TooShort, DegenerateSegment)):
                compare_trajectory("E", probe, candidate, KIN)
            return 0
        got = compare_trajectory("E", probe, candidate, KIN)
        assert got == expected[0]
        write_comparison_report(got, tmp_path / "got.csv")
        write_comparison_report(expected[0], tmp_path / "expected.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        return 1

    @pytest.mark.parametrize("kind", ["curve", "grid", "duplicates", "scales", "slow"])
    def test_seeded_inputs(self, kind, tmp_path):
        compared = sum(
            self.check(*comparison_inputs(kind, np.random.default_rng(seed)), tmp_path)
            for seed in range(80)
        )
        assert compared >= 60

    @pytest.mark.parametrize("case", ["UNDERFLOW", "ROUNDING"])
    def test_screen_edge(self, case, tmp_path):
        assert self.check(*getattr(self, case), tmp_path) == 1

    def test_screen_blocks(self, tmp_path, monkeypatch):
        """Probe blocks of one to a few rows give the same reports."""
        for entries in (1, 50, 200):
            monkeypatch.setattr(metrics, "_SCREEN_ENTRIES", entries)
            for seed in range(10):
                self.check(*comparison_inputs("grid", np.random.default_rng(seed)), tmp_path)
