import math

import numpy as np
import pytest

from skytraj.campaign import (
    BenchParams,
    CampaignGrid,
    DistortionRanges,
    SynthConfig,
    random_homography,
    run_campaign,
    run_trial,
    synth_correspondences,
    synthetic_scenes,
)
from skytraj.errors import ConfigError
from reference import apply_homography
from skytraj.geometry import Point2
from skytraj.registration import RansacConfig, derive_seeds, snn_filter

SCENES = synthetic_scenes(5, seed=7)
RANGES = DistortionRanges()


def residuals(h, corrs) -> list[float]:
    """Per match: distance of dst from the true map of src."""
    return [
        math.hypot(*np.subtract(apply_homography(h, Point2(*s)), d))
        for s, d in zip(corrs.src, corrs.dst)
    ]


def results_without_time(results):
    return [
        (r.snn_ratio, r.downscale, r.reproj_threshold, r.n_points, r.hea, r.miou, r.trials)
        for r in results
    ]


class TestRandomHomography:
    def test_zero_ranges_identity(self):
        h = random_homography(
            DistortionRanges(0.0, 0.0, 0.0, 0.0), SCENES[0], seed=3
        )
        assert np.array_equal(h.m, np.eye(3))

    def test_deterministic_per_seed(self):
        a = random_homography(RANGES, SCENES[0], seed=5)
        b = random_homography(RANGES, SCENES[0], seed=5)
        assert np.array_equal(a.m, b.m)
        c = random_homography(RANGES, SCENES[0], seed=6)
        assert not np.array_equal(a.m, c.m)

    def test_pure_rotation_decomposition(self):
        ranges = DistortionRanges(15.0, 0.0, 0.0, 0.0)
        for seed in range(20):
            h = random_homography(ranges, SCENES[0], seed=seed)
            r = h.m[:2, :2]
            # orthonormal rotation block
            assert np.allclose(r.T @ r, np.eye(2), atol=1e-12)
            angle = math.degrees(math.atan2(r[1, 0], r[0, 0]))
            assert -15.0 <= angle <= 15.0

    def test_scale_range(self):
        ranges = DistortionRanges(0.0, 0.0, 0.05, 0.0)
        for seed in range(20):
            h = random_homography(ranges, SCENES[1], seed=seed)
            s = h.m[0, 0]
            assert 0.95 <= s <= 1.05
            assert h.m[0, 1] == 0.0


class TestSynthCorrespondences:
    def test_noiseless_exact(self):
        h = random_homography(RANGES, SCENES[0], seed=1)
        corrs = synth_correspondences(
            SCENES[0], h, SynthConfig(50, 0.0, 0.0, seed=2)
        )
        assert len(corrs) == 50
        assert max(residuals(h, corrs)) < 1e-9

    def test_exact_outlier_count(self):
        h = random_homography(RANGES, SCENES[0], seed=1)
        corrs = synth_correspondences(
            SCENES[0], h, SynthConfig(100, 0.0, 0.3, seed=4)
        )
        off = sum(1 for r in residuals(h, corrs) if r > 1e-6)
        assert off == 30

    def test_deterministic(self):
        h = random_homography(RANGES, SCENES[0], seed=1)
        cfg = SynthConfig(40, 0.5, 0.2, seed=9)
        a = synth_correspondences(SCENES[0], h, cfg)
        b = synth_correspondences(SCENES[0], h, cfg)
        for col in ("src", "dst", "d1", "d2"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_distance_invariant_and_snn_design(self):
        h = random_homography(RANGES, SCENES[0], seed=1)
        corrs = synth_correspondences(
            SCENES[0], h, SynthConfig(200, 0.0, 0.25, seed=11)
        )
        assert (corrs.d1 <= corrs.d2).all()
        kept = snn_filter(corrs, 0.9)
        truth = {i for i, r in enumerate(residuals(h, corrs)) if r < 1e-6}
        kept_src = kept.src.tolist()
        kept_idx = {i for i, s in enumerate(corrs.src.tolist()) if s in kept_src}
        # most passing matches are true inliers (10% flip noise)
        inlier_frac = len(kept_idx & truth) / len(kept_idx)
        assert inlier_frac > 0.85

    def test_outlier_sets_nest_across_fractions(self):
        h = random_homography(RANGES, SCENES[0], seed=1)
        out = {}
        for frac in (0.1, 0.3):
            corrs = synth_correspondences(
                SCENES[0], h, SynthConfig(100, 0.0, frac, seed=13)
            )
            out[frac] = {i for i, r in enumerate(residuals(h, corrs)) if r > 1e-6}
        assert out[0.1] <= out[0.3]


class TestRunTrial:
    def test_clean_recovery(self):
        disp, iou, ms = run_trial(
            SCENES[0],
            RANGES,
            SynthConfig(60, 0.0, 0.0, seed=2),
            RansacConfig(seed=3),
            seed_h=1,
        )
        assert disp < 1e-6
        assert iou > 0.999
        assert ms >= 0.0

    def test_failure_reported_as_zero_contribution(self):
        # four points cannot survive a 0.9-ratio SNN failure + estimation:
        # force a failure by asking for an SNN pass on all-fail distances
        disp, iou, _ = run_trial(
            SCENES[0],
            RANGES,
            SynthConfig(8, 0.0, 0.0, seed=2),
            RansacConfig(seed=3, max_iterations=10),
            seed_h=1,
            snn_ratio=0.01,  # drops essentially everything
        )
        assert math.isinf(disp)
        assert iou == 0.0


def bench(scenes, **kwargs):
    """The first ``scenes`` of SCENES."""
    return BenchParams(scenes=scenes, scene_seed=7, **kwargs)


class TestRunCampaign:
    grid = CampaignGrid(
        snn_ratios=(None, 0.9),
        downscales=(1.0,),
        reproj_thresholds=(1.0, 2.0),
        point_counts=(60,),
        trials_per_scene=2,
    )
    noisy = SynthConfig(noise_sigma=0.5, outlier_fraction=0.2)
    clean = SynthConfig(noise_sigma=0.0, outlier_fraction=0.0)

    def test_single_clean_cell(self):
        results = run_campaign(
            bench(1, hea_epsilon=1.0),
            RANGES,
            CampaignGrid(trials_per_scene=1, point_counts=(60,)),
            self.clean,
            RansacConfig(),
            master_seed=5,
        )
        assert len(results) == 1
        assert results[0].hea == 1.0
        assert results[0].miou >= 0.999
        assert results[0].trials == 1

    def test_cell_scores_aggregate_its_trials(self):
        """HEA is the share of trials whose corner displacement is within
        epsilon, MIoU the mean of their box IoUs; here some trials miss."""
        grid = CampaignGrid(trials_per_scene=3, point_counts=(30,))
        noise, frac, iterations, eps = 1.0, 0.3, 50, 3.0
        (cell,) = run_campaign(
            bench(2, hea_epsilon=eps), RANGES, grid,
            SynthConfig(noise_sigma=noise, outlier_fraction=frac),
            RansacConfig(max_iterations=iterations), master_seed=4,
        )
        outcomes = []
        for s_idx, scene in enumerate(SCENES[:2]):
            for t_idx in range(3):
                seed_h, seed_c, seed_r = derive_seeds(4, 0, s_idx, t_idx, count=3)
                outcomes.append(run_trial(
                    scene, RANGES, SynthConfig(30, noise, frac, seed_c),
                    RansacConfig(max_iterations=iterations, seed=seed_r), seed_h,
                ))
        hits = [disp <= eps for disp, _, _ in outcomes]
        assert 0 < sum(hits) < len(hits)
        assert cell.hea == sum(hits) / 6
        assert cell.miou == sum(iou for _, iou, _ in outcomes) / 6
        assert cell.trials == 6

    def test_grid_cardinality(self):
        grid = CampaignGrid(
            snn_ratios=(0.8, 0.9),
            downscales=(0.5, 1.0),
            reproj_thresholds=(2.0,),
            point_counts=(60,),
            trials_per_scene=1,
        )
        results = run_campaign(bench(2), RANGES, grid, self.clean, RansacConfig(), master_seed=1)
        assert len(results) == 4
        assert [r.trials for r in results] == [2, 2, 2, 2]

    def test_deterministic_across_runs(self):
        a = run_campaign(bench(2), RANGES, self.grid, self.noisy, RansacConfig(), master_seed=17)
        b = run_campaign(bench(2), RANGES, self.grid, self.noisy, RansacConfig(), master_seed=17)
        assert results_without_time(a) == results_without_time(b)

    def test_deterministic_across_jobs(self):
        """All cells of a 2x2 grid share one pool; each row is the same as
        with no pool."""
        args = (bench(2), RANGES, self.grid, self.noisy, RansacConfig())
        a = run_campaign(*args, master_seed=17, jobs=1)
        b = run_campaign(*args, master_seed=17, jobs=2)
        assert len(a) == 4
        assert results_without_time(a) == results_without_time(b)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match=r"^jobs must be >= 1$"):
            run_campaign(bench(1), RANGES, self.grid, self.noisy, RansacConfig(), jobs=jobs)

    def test_miou_nonincreasing_in_outliers_with_matched_seeds(self):
        grid = CampaignGrid(trials_per_scene=5, point_counts=(80,))
        mious = []
        for frac in (0.0, 0.2, 0.45):
            res = run_campaign(
                bench(3), RANGES, grid,
                SynthConfig(noise_sigma=0.5, outlier_fraction=frac), RansacConfig(),
                master_seed=23,
            )
            mious.append(res[0].miou)
        assert mious[0] >= mious[1] >= mious[2]

    def test_downscale_consistency_noiseless(self):
        grid = CampaignGrid(
            downscales=(0.5,), trials_per_scene=2, point_counts=(60,)
        )
        res = run_campaign(
            bench(3, hea_epsilon=1.0), RANGES, grid, self.clean, RansacConfig(), master_seed=3,
        )
        assert res[0].hea == 1.0


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seeds(42, 0, 1, 2, count=3)
        b = derive_seeds(42, 0, 1, 2, count=3)
        assert a == b
        assert derive_seeds(42, 0, 1, 3, count=3) != a
        assert derive_seeds(43, 0, 1, 2, count=3) != a

    def test_scene_count(self):
        scenes = synthetic_scenes(29, seed=7)
        assert len(scenes) == 29
        for s in scenes:
            assert len(s.boxes) >= 1
            assert s.width > 0 and s.height > 0
