"""Synthetic registration benchmark: seeded distortions, noisy
correspondences with planted outliers, and a grid sweep over estimator
parameters scored by HEA / MIoU.

Every trial derives its random streams from (master seed, cell index,
scene index, trial index), so results are byte-identical across reruns
and across worker-pool sizes, and trials stay seed-matched when only
the noise model changes.
"""
from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateProjection, SkytrajError
from .geometry import Homography, apply_homography_array
from .metrics import SceneSpec, corner_displacement, scene_miou
from .registration import (
    Matches,
    RansacConfig,
    ransac_homography,
    snn_filter,
    upscale_homography,
)

# Synthetic descriptor distances: inliers pass, outliers fail an SNN test
# at this ratio, with a small fraction of labels flipped.
SNN_DESIGN_RATIO = 0.9
SNN_LABEL_NOISE = 0.1


@dataclass(frozen=True)
class BenchParams:
    """Campaign settings outside the grid: the synthetic scene set and the
    corner-displacement threshold (px) that counts a trial as a HEA hit."""

    scenes: int = 29
    scene_seed: int = 7
    hea_epsilon: float = 3.0

    def __post_init__(self):
        if self.scenes < 1:
            raise ValueError("scenes must be >= 1")
        if not self.hea_epsilon > 0:
            raise ValueError("hea_epsilon must be > 0")


@dataclass(frozen=True)
class DistortionRanges:
    rot_max_deg: float = 15.0
    trans_max_frac: float = 0.10  # of scene width/height per axis
    scale_max_frac: float = 0.05
    persp_max: float = 5e-5

    def __post_init__(self):
        ranges = (self.rot_max_deg, self.trans_max_frac, self.scale_max_frac, self.persp_max)
        if not all(r >= 0 for r in ranges):
            raise ValueError("distortion ranges must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    n_points: int = 100
    noise_sigma: float = 0.5  # px
    outlier_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError("n_points must be >= 8")
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class CampaignGrid:
    snn_ratios: tuple[float | None, ...] = (None,)
    downscales: tuple[float, ...] = (1.0,)
    reproj_thresholds: tuple[float, ...] = (RansacConfig.reproj_threshold,)
    point_counts: tuple[int, ...] = (SynthConfig.n_points,)
    trials_per_scene: int = 100

    def __post_init__(self):
        if self.trials_per_scene < 1:
            raise ValueError("trials_per_scene must be >= 1")
        # The ranges StabilizeParams, RansacConfig and SynthConfig enforce.
        rules = {
            "snn_ratios": ("null or in (0, 1]", lambda v: v is None or _real(v) and 0 < v <= 1),
            "downscales": ("in (0, 1]", lambda v: _real(v) and 0 < v <= 1),
            "reproj_thresholds": ("> 0", lambda v: _real(v) and v > 0),
            "point_counts": (
                "integers >= 8",
                lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 8,
            ),
        }
        for name, (rule, ok) in rules.items():
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            bad = [v for v in values if not ok(v)]
            if bad:
                raise ValueError(f"{name} must be {rule}, got {bad[0]!r}")

    def cells(self) -> list[tuple[float | None, float, float, int]]:
        return list(
            itertools.product(
                self.snn_ratios,
                self.downscales,
                self.reproj_thresholds,
                self.point_counts,
            )
        )


@dataclass(frozen=True)
class CellResult:
    snn_ratio: float | None
    downscale: float
    reproj_threshold: float
    n_points: int
    hea: float
    miou: float
    trials: int
    mean_time_ms: float


def random_homography(ranges: DistortionRanges, scene: SceneSpec, seed) -> Homography:
    """Draw a plausible camera-motion homography about the scene center.

    Composition is scale o rotation o translation, conjugated by the
    move-to-center translation; the two perspective entries are then
    injected into the bottom row. Draw order is fixed (angle, tx, ty,
    scale, perspective x2) so equal seeds give equal matrices.
    """
    rng = np.random.default_rng(seed)
    angle = math.radians(rng.uniform(-ranges.rot_max_deg, ranges.rot_max_deg))
    tx = rng.uniform(-1.0, 1.0) * ranges.trans_max_frac * scene.width
    ty = rng.uniform(-1.0, 1.0) * ranges.trans_max_frac * scene.height
    s = rng.uniform(1.0 - ranges.scale_max_frac, 1.0 + ranges.scale_max_frac)
    gx = rng.uniform(-ranges.persp_max, ranges.persp_max)
    gy = rng.uniform(-ranges.persp_max, ranges.persp_max)

    c, sn = math.cos(angle), math.sin(angle)
    affine = np.array([[s * c, -s * sn, 0.0], [s * sn, s * c, 0.0], [0.0, 0.0, 1.0]])
    affine[0, 2] = s * (c * tx - sn * ty)
    affine[1, 2] = s * (sn * tx + c * ty)
    cx, cy = scene.width / 2, scene.height / 2
    to_center = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=float)
    from_center = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=float)
    m = from_center @ affine @ to_center
    m[2, 0] = gx
    m[2, 1] = gy
    return Homography.from_matrix(m)


def synth_correspondences(
    scene: SceneSpec, h_true: Homography, cfg: SynthConfig
) -> Matches:
    """Generate matches: src uniform in the scene, dst through the true map.

    Inliers get isotropic Gaussian noise on dst; a fixed rounded fraction
    of points become outliers with dst re-drawn uniformly in the scene.
    Descriptor distances are synthesized so inliers pass and outliers fail
    an SNN test at 0.9, with 10% of those labels flipped. All randomness
    is consumed in a fixed order, so two configs differing only in
    ``outlier_fraction`` share geometry on the common inlier prefix.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_points
    xs = rng.uniform(0.0, scene.width, n)
    ys = rng.uniform(0.0, scene.height, n)
    noise = rng.normal(0.0, cfg.noise_sigma, (n, 2))  # scale 0 yields zeros
    out_xs = rng.uniform(0.0, scene.width, n)
    out_ys = rng.uniform(0.0, scene.height, n)
    d_pass = rng.uniform(0.2, SNN_DESIGN_RATIO - 0.1, n)
    d_fail = rng.uniform(SNN_DESIGN_RATIO + 0.02, 1.0, n)
    flip = rng.uniform(0.0, 1.0, n) < SNN_LABEL_NOISE
    order = rng.permutation(n)
    n_out = int(round(cfg.outlier_fraction * n))
    is_outlier = np.zeros(n, dtype=bool)
    is_outlier[order[:n_out]] = True

    src = np.stack([xs, ys], axis=1)
    dst = np.where(
        is_outlier[:, None],
        np.stack([out_xs, out_ys], axis=1),
        apply_homography_array(h_true, src) + noise,
    )
    d1 = np.where(is_outlier != flip, d_fail, d_pass)
    return Matches(src, dst, d1, np.ones(n))


def synthetic_scenes(count: int, seed: int = 0) -> list[SceneSpec]:
    """Deterministic set of rectangular scenes with a handful of boxes each.

    Each scene draws its width, height and box count, then each box its
    width, height and center, in that order.
    """
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(count):
        w = float(rng.uniform(1600, 3840))
        h = float(rng.uniform(900, 2160))
        n_boxes = int(rng.integers(4, 13))
        draws = rng.uniform((30, 20, 0.1 * w, 0.1 * h), (140, 70, 0.9 * w, 0.9 * h), (n_boxes, 4))
        scenes.append(SceneSpec(w, h, draws[:, [2, 3, 0, 1]]))
    return scenes


def derive_trial_seeds(
    master_seed: int, cell_idx: int, scene_idx: int, trial_idx: int
) -> tuple[int, int, int]:
    """Independent (homography, correspondences, estimator) seeds per trial."""
    ss = np.random.SeedSequence(
        (master_seed & 0xFFFFFFFFFFFFFFFF, cell_idx, scene_idx, trial_idx)
    )
    state = ss.generate_state(3, dtype=np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def run_trial(
    scene: SceneSpec,
    ranges: DistortionRanges,
    synth: SynthConfig,
    ransac: RansacConfig,
    seed_h: int,
    snn_ratio: float | None = None,
    downscale: float = 1.0,
) -> tuple[float, float, float]:
    """One distort/synthesize/estimate round trip.

    Returns (mean corner displacement px, scene mean IoU, estimator
    wall-time ms). Estimator failures surface as (inf, 0.0, time).
    """
    h_true = random_homography(ranges, scene, seed_h)
    corrs = synth_correspondences(scene, h_true, synth)
    elapsed = 0.0
    try:
        if snn_ratio is not None:
            corrs = snn_filter(corrs, snn_ratio)
        # Estimate the reverse map (distorted -> original) directly.
        est_pairs = replace(corrs, src=corrs.dst, dst=corrs.src)
        if downscale < 1.0:
            est_pairs = est_pairs.scaled(downscale)
        start = time.perf_counter()
        try:
            report = ransac_homography(est_pairs, ransac)
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
        h_est = report.homography
        if downscale < 1.0:
            h_est = upscale_homography(h_est, downscale)
    except SkytrajError:
        return math.inf, 0.0, elapsed
    try:
        disp = corner_displacement(h_true, h_est, scene.corners)
    except DegenerateProjection:
        disp = math.inf
    iou = scene_miou(h_true, h_est, scene.boxes)
    return disp, iou, elapsed


def _trial_worker(args) -> tuple[float, float, float]:
    scene, ranges, synth, ransac, seed_h, snn_ratio, downscale = args
    return run_trial(scene, ranges, synth, ransac, seed_h, snn_ratio, downscale)


def run_campaign(
    bench: BenchParams,
    ranges: DistortionRanges,
    grid: CampaignGrid,
    synth: SynthConfig,
    ransac: RansacConfig,
    *,
    master_seed: int = 0,
    jobs: int = 1,
) -> list[CellResult]:
    """Score every grid cell over the bench's scenes x trials; one result
    row per cell.

    Each trial takes ``synth`` and ``ransac`` with its cell's point count
    and threshold and its own seeds. All trials of the grid go through one
    worker pool when ``jobs`` > 1. Results depend only on (master seed,
    bench, grid, noise model), never on ``jobs``. ``jobs`` < 1 raises
    ConfigError.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    scenes = synthetic_scenes(bench.scenes, bench.scene_seed)
    cells = grid.cells()

    def tasks():
        """``run_trial`` arguments of every trial, cell by cell."""
        for cell_idx, (snn_ratio, rho, eta, n_pts) in enumerate(cells):
            for s_idx, scene in enumerate(scenes):
                for t_idx in range(grid.trials_per_scene):
                    seed_h, seed_c, seed_r = derive_trial_seeds(master_seed, cell_idx, s_idx, t_idx)
                    trial_synth = replace(synth, n_points=n_pts, seed=seed_c)
                    trial_ransac = replace(ransac, reproj_threshold=eta, seed=seed_r)
                    yield scene, ranges, trial_synth, trial_ransac, seed_h, snn_ratio, rho

    n = len(scenes) * grid.trials_per_scene  # trials per cell
    if jobs > 1:
        # Imported here: only a pooled run needs multiprocessing loaded.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
            chunk = max(1, len(cells) * n // (jobs * 8))
            outcomes = list(pool.map(_trial_worker, tasks(), chunksize=chunk))
    else:
        outcomes = list(map(_trial_worker, tasks()))
    results = []
    for cell_idx, (snn_ratio, rho, eta, n_pts) in enumerate(cells):
        cell = outcomes[cell_idx * n : (cell_idx + 1) * n]
        results.append(
            CellResult(
                snn_ratio=snn_ratio,
                downscale=rho,
                reproj_threshold=eta,
                n_points=n_pts,
                hea=sum(1 for disp, _, _ in cell if disp <= bench.hea_epsilon) / n,
                miou=sum(iou for _, iou, _ in cell) / n,
                trials=n,
                mean_time_ms=sum(ms for _, _, ms in cell) / n,
            )
        )
    return results
