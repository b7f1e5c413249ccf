"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""
import math
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PIPELINE_ARGS,
    build_pipeline_fixture,
    dim_columns,
    make_point,
    make_tracks,
    track_columns,
)
from skytraj.campaign import (
    BenchParams,
    CampaignGrid,
    DistortionRanges,
    SynthConfig,
    derive_trial_seeds,
    random_homography,
    run_campaign,
    run_trial,
    synthetic_scenes,
)
from skytraj.cli import main as cli_main
from skytraj.dataio import (
    COMPARISON_COLUMNS,
    EXPORT_COLUMNS,
    write_campaign_results,
)
from skytraj.dimensions import DimConfig, DimPath, estimate_dimensions
from skytraj.geometry import GeoTransform, Homography, Point2, apply_homography_array
from skytraj.kinematics import KinematicsConfig, compute_profile, gaussian_smooth
from skytraj.metrics import compare_trajectory
from skytraj.registration import RansacConfig, dlt_homography
from skytraj.trackmodel import refine_classes
from test_kinematics import smooth_oracle

FPS = Fraction(30000, 1001)


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_homography_recovery():
    with criterion("1 homography recovery under noise and outliers"):
        scenes = synthetic_scenes(29, seed=7)
        ranges = DistortionRanges(15.0, 0.10, 0.05, 5e-5)
        trials = 1000
        master = 20240
        start = time.perf_counter()
        disps = np.empty(trials)
        ious = np.empty(trials)
        for t in range(trials):
            scene_idx = t % 29
            seed_h, seed_c, seed_r = derive_trial_seeds(master, 0, scene_idx, t // 29)
            disp, iou, _ = run_trial(
                scenes[scene_idx],
                ranges,
                SynthConfig(100, 0.5, 0.3, seed_c),
                RansacConfig(
                    confidence=0.999999,
                    max_iterations=5000,
                    reproj_threshold=2.0,
                    seed=seed_r,
                ),
                seed_h=seed_h,
            )
            disps[t] = disp
            ious[t] = iou
        elapsed = time.perf_counter() - start
        hea_val = float(np.mean(disps <= 3.0))
        miou_val = float(np.mean(ious))
        print(
            f"  HEA(3px)={hea_val:.4f} MIoU={miou_val:.4f} "
            f"runtime={elapsed:.1f}s over {trials} trials"
        )
        assert hea_val >= 0.99
        assert miou_val >= 0.98
        assert elapsed < 60.0


def test_criterion_2_dlt_exactness():
    with criterion("2 DLT exact on noiseless correspondences"):
        scenes = synthetic_scenes(4, seed=3)
        ranges = DistortionRanges(15.0, 0.10, 0.05, 5e-5)
        rng = np.random.default_rng(123)
        worst = 0.0
        for i in range(500):
            scene = scenes[i % len(scenes)]
            truth = random_homography(ranges, scene, seed=i)
            n = int(rng.integers(4, 21))
            pts = np.stack(
                [
                    rng.uniform(0.0, scene.width, n),
                    rng.uniform(0.0, scene.height, n),
                ],
                axis=1,
            )
            dst = apply_homography_array(truth, pts)
            est = dlt_homography(pts, dst).m
            inv = np.linalg.inv(est)
            for (sx, sy), (dx, dy) in zip(pts, dst):
                fx, fy, fz = est @ np.array([sx, sy, 1.0])
                bx, by, bz = inv @ np.array([dx, dy, 1.0])
                fwd = math.hypot(fx / fz - dx, fy / fz - dy)
                bwd = math.hypot(bx / bz - sx, by / bz - sy)
                worst = max(worst, (fwd + bwd) / 2)
        print(f"  max symmetric reprojection error = {worst:.3e} px")
        assert worst <= 1e-7


def test_criterion_3_downscale_consistency():
    with criterion("3 downscale 0.5 then upscale recovers exactly"):
        scenes = synthetic_scenes(29, seed=7)
        ranges = DistortionRanges(15.0, 0.10, 0.05, 5e-5)
        hits = 0
        total = 0
        for s_idx, scene in enumerate(scenes):
            for t_idx in range(4):
                seed_h, seed_c, seed_r = derive_trial_seeds(55, 0, s_idx, t_idx)
                disp, _, _ = run_trial(
                    scene,
                    ranges,
                    SynthConfig(100, 0.0, 0.0, seed_c),
                    RansacConfig(seed=seed_r),
                    seed_h=seed_h,
                    downscale=0.5,
                )
                hits += disp <= 1.0
                total += 1
        assert hits == total  # HEA(1 px) == 1.0


SIZE = (3840, 2160)
GSD_GEO = GeoTransform(0.02725, 0, 0, 0.02725, 0, 0)


def _mover(centers, w=180.0, h=80.0, track_id=1, cls=0):
    return [
        make_point(k, track_id, cx, cy, w, h, cls=cls)
        for k, (cx, cy) in enumerate(centers, start=1)
    ]


def test_criterion_4_dimension_oracle():
    with criterion("4 dimension estimator oracle"):
        cfg = DimConfig()

        def estimate(pts):
            return estimate_dimensions(
                *dim_columns(pts, frame_size=SIZE, margin=cfg.visibility_margin),
                cfg, SIZE, Homography.identity(), GSD_GEO,
            )

        # axis-parallel mover, constant 180x80 box
        est = estimate(_mover([(600 + 50 * i, 1080) for i in range(20)]))
        assert est is not None and est.path is DimPath.AZIMUTH_FILTERED
        assert abs(est.length_m - 4.905) <= 1e-9
        assert abs(est.width_m - 2.180) <= 1e-9
        # 45-degree mover is withheld at a 15-degree tolerance
        assert estimate(_mover([(600 + 40 * i, 600 + 40 * i) for i in range(20)])) is None
        # stationary elongated vehicle: ratio path reproduces the box dims
        est = estimate(_mover([(1000, 500)] * 18, w=160.0, h=80.0))
        assert est is not None and est.path is DimPath.RATIO_FILTERED
        assert abs(est.length_px - 160.0) <= 1e-9
        assert abs(est.width_px - 80.0) <= 1e-9


def test_criterion_5_kinematics():
    with criterion("5 kinematics: constant velocity and smoothing oracle"):
        cfg = KinematicsConfig(sigma=14.0, fps=FPS)
        speed_truth = 2.5 * float(FPS)
        pts = {k: Point2(2.5 * (k - 1), 0.0) for k in range(1, 61)}
        frames, x, y = track_columns(pts)
        profile = compute_profile(frames, x, y, cfg)
        smooth = profile.speed_smooth[1:]
        accel = profile.accel[2:]
        assert np.all(np.abs(smooth - speed_truth) <= 1e-9)
        assert np.all(np.abs(accel) <= 1e-9)

        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            sigma = float(rng.uniform(0.4, 20.0))
            v = rng.uniform(0, 10, n)
            got = gaussian_smooth(v, sigma)
            want = smooth_oracle(list(v), sigma)
            assert np.max(np.abs(got - np.asarray(want))) <= 1e-12


def test_criterion_6_comparison_metrics():
    with criterion("6 trajectory comparison metrics"):
        rng = np.random.default_rng(9)
        # analytic point-line distances under random rigid motions
        for _ in range(100):
            xs = np.arange(12.0)
            offset = rng.uniform(0.01, 0.45)
            i = int(rng.integers(0, 11))
            u = rng.uniform(0.1, 0.45)
            probe = np.array([xs[i] + u, offset])
            pts = np.stack([xs, np.zeros_like(xs)], axis=1)
            angle = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [
                    [math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)],
                ]
            )
            shift = rng.uniform(-500, 500, 2)
            report = compare_trajectory(
                "E",
                np.array([[*(rot @ probe + shift), 30.0]]),
                np.column_stack([pts @ rot.T + shift, np.full(len(pts), 30.0)]),
                KinematicsConfig(fps=FPS),
            )
            assert abs(report.pos_dev_mean_m - offset) <= 1e-12

        # interpolation weight identities on random samples; every probe
        # speed counts, so the speed difference of a probe at 0 km/h is
        # minus the interpolated candidate speed
        every_speed = KinematicsConfig(fps=FPS, speed_floor_kmh=-math.inf)
        for _ in range(1000):
            step = rng.uniform(0.5, 4.0)
            xs = np.arange(8.0) * step
            i = int(rng.integers(0, 7))
            u = rng.uniform(0.05, 0.45)
            probe = (xs[i] + u * step, rng.uniform(0, 0.5))
            # u < 0.5: point i is nearest, point i + 1 its nearer neighbor
            d1 = math.hypot(xs[i] - probe[0], -probe[1])
            d2 = math.hypot(xs[i + 1] - probe[0], -probe[1])
            w1 = d2 / (d1 + d2)
            mk = lambda hot: -compare_trajectory(
                "E",
                np.array([[*probe, 0.0]]),
                np.column_stack([xs, np.zeros_like(xs), (np.arange(8) == hot).astype(float)]),
                every_speed,
            ).speed_diff_mean_kmh
            got_w1 = mk(i)
            got_w2 = mk(i + 1)
            assert abs(got_w1 + got_w2 - 1.0) <= 1e-12
            assert abs(got_w1 - w1) <= 1e-12
            if d1 < d2:
                assert got_w1 > 0.5
            if d2 < d1:
                assert got_w2 > 0.5

        # report layout: mean +/- sd for both quantities plus trajectory stats
        assert COMPARISON_COLUMNS == [
            "group",
            "samples",
            "pos_dev_mean_m",
            "pos_dev_std_m",
            "speed_diff_mean_kmh",
            "speed_diff_std_kmh",
            "traj_length_m",
            "traj_duration_s",
            "skipped",
        ]


def test_criterion_7_class_refinement_bruteforce():
    with criterion("7 class refinement matches enumeration oracle"):
        rng = np.random.default_rng(77)
        for case in range(10000):
            n_ids = int(rng.integers(1, 4))
            pts = []
            for tid in range(1, n_ids + 1):
                n_frames = int(rng.integers(1, 7))
                for k in range(1, n_frames + 1):
                    if case % 7 == 0:
                        score = float(rng.integers(1, 5)) / 4.0  # force ties
                    else:
                        score = float(rng.uniform(0.01, 1.0))
                    pts.append(
                        make_point(
                            k, tid, 500 + 10 * k, 500, 50, 25,
                            cls=int(rng.integers(0, 4)), score=score,
                        )
                    )
            tracks = make_tracks(pts)
            refined = refine_classes(tracks)
            # oracle: enumerate classes, sum scores, argmax w/ lowest index
            for tid in {p.track_id for p in pts}:
                mine = [p for p in pts if p.track_id == tid]
                best_cls, best_sum = None, -1.0
                for cls in range(4):
                    total = sum(
                        p.detection.score for p in mine if p.detection.cls == cls
                    )
                    if total > best_sum:
                        best_cls, best_sum = cls, total
                got = {
                    p.detection.cls
                    for p in refined.points
                    if p.track_id == tid
                }
                assert got == {best_cls}, f"case {case} id {tid}"


ROUNDING_PATTERNS = {
    "Ortho_X": r"^-?\d+\.\d$",
    "Ortho_Y": r"^-?\d+\.\d$",
    "Local_X": r"^-?\d+\.\d{2}$",
    "Local_Y": r"^-?\d+\.\d{2}$",
    "Latitude": r"^-?\d+\.\d{7}$",
    "Longitude": r"^-?\d+\.\d{7}$",
    "Vehicle_Length": r"^(|-?\d+\.\d{2})$",
    "Vehicle_Width": r"^(|-?\d+\.\d{2})$",
    "Vehicle_Speed": r"^(|-?\d+\.\d)$",
    "Vehicle_Acceleration": r"^(|-?\d+\.\d{2})$",
    "Local_Time": r"^\d{2}:\d{2}:\d{2}\.\d{3}$",
    "Visibility": r"^[01]$",
    "Vehicle_Class": r"^[0-3]$",
}


def test_criterion_8_export_fidelity(tmp_path):
    with criterion("8 export schema, rounding, filtering, reproducibility"):
        paths = build_pipeline_fixture(tmp_path / "fx")
        outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for out, extra in zip(outs, ([], [], ["--jobs", "3"])):
            rc = cli_main(
                [
                    "pipeline",
                    "--tracks", str(paths["tracks"]),
                    "--sidecar", str(paths["sidecar"]),
                    "--homographies", str(paths["homographies"]),
                    "--registry", str(paths["registry"]),
                    "--segmentation", str(paths["segmentation"]),
                    "--output", str(out),
                    *PIPELINE_ARGS,
                    *[str(x) for x in extra],
                ]
            )
            assert rc == 0
        blobs = [o.read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]

        golden = Path(__file__).parent / "data" / "golden_songdo.csv"
        assert blobs[0] == golden.read_bytes()

        lines = blobs[0].decode().strip().split("\n")
        assert lines[0] == ",".join(EXPORT_COLUMNS)
        rows = [dict(zip(EXPORT_COLUMNS, l.split(","))) for l in lines[1:]]
        for row in rows:
            for col, pattern in ROUNDING_PATTERNS.items():
                assert re.match(pattern, row[col]), (col, row[col])
        # the 15-point vehicle is gone, the 16+ ones are present
        assert {r["Vehicle_ID"] for r in rows} == {"1", "3"}
        # stable (Vehicle_ID, time) ordering
        keys = [(int(r["Vehicle_ID"]), r["Local_Time"]) for r in rows]
        assert keys == sorted(keys)


def test_criterion_9_campaign_reproducibility(tmp_path):
    with criterion("9 campaign byte-identical and paper-scale trial count"):
        grid = CampaignGrid(trials_per_scene=100, point_counts=(30,))
        outs = []
        for run in range(2):
            results = run_campaign(
                BenchParams(scenes=29, scene_seed=7, hea_epsilon=3.0),
                DistortionRanges(),
                grid,
                SynthConfig(noise_sigma=0.0, outlier_fraction=0.0),
                RansacConfig(max_iterations=100),
                master_seed=4242,
            )
            assert results[0].trials == 2900
            path = tmp_path / f"campaign{run}.csv"
            write_campaign_results(results, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
