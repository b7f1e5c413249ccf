"""Stage orchestration behind the CLI: per-frame homography estimation,
track filtering/stabilization, georeferencing, per-vehicle dimensions and
kinematics, and assembly of export rows.

Per-vehicle work is independent; with jobs > 1 vehicles are processed in
a process pool and results are collected in vehicle-id order, so output
bytes never depend on the worker count.
"""
from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataio import (
    ExportRow,
    SessionMeta,
    frame_to_timestamp,
    load_correspondences,
)
from .dimensions import DimConfig, estimate_dimensions, visibility_set
from .errors import MissingHomography, SkytrajError
from .geometry import GeoTransform, Homography, Point2, apply_homography, pixel_to_world
from .georeference import (
    GeoRegistry,
    SegmentationMap,
    assign_segment,
    compose_ref_to_ortho,
)
from .kinematics import KinematicsConfig, compute_profile, gate_by_visibility
from .metrics import ComparisonSample
from .registration import (
    EstimateReport,
    RansacConfig,
    mask_keep_flags,
    ransac_homography,
    snn_filter,
    upscale_homography,
)
from .trackmodel import (
    TrackPoint,
    VideoTracks,
    denormalize_bbox,
    ingest_keep_indices,
    refine_classes,
    stabilize_tracks,
)


@dataclass(frozen=True)
class IngestParams:
    score_min: float = 0.25
    nms_iou: float = 0.7


@dataclass(frozen=True)
class StabilizeParams:
    snn_ratio: float | None = None  # None skips the ratio test
    mask_margin: float = 0.15
    downscale: float = 1.0
    ransac: RansacConfig = field(default_factory=RansacConfig)  # seed is set per frame

    def __post_init__(self):
        if self.snn_ratio is not None and not 0.0 < self.snn_ratio <= 1.0:
            raise ValueError("snn_ratio must be in (0, 1]")
        if self.mask_margin < 0.0:
            raise ValueError("mask_margin must be >= 0")
        if not 0.0 < self.downscale <= 1.0:
            raise ValueError("downscale must be in (0, 1]")


def ingest_tracks(tracks: VideoTracks, params: IngestParams) -> VideoTracks:
    """Apply the per-frame confidence + NMS filter to tracked points."""
    kept: list[TrackPoint] = []
    for _, pts in sorted(tracks.by_frame().items()):
        dets = [p.detection for p in pts]
        for i in ingest_keep_indices(dets, params.score_min, params.nms_iou):
            kept.append(pts[i])
    kept.sort(key=lambda p: (p.track_id, p.frame))
    return replace(tracks, points=tuple(kept))


def _frame_seed(seed: int, frame: int) -> int:
    ss = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, frame))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def estimate_frame_homographies(
    tracks: VideoTracks,
    correspondence_dir,
    params: StabilizeParams,
    seed: int = 0,
) -> tuple[dict[int, Homography], dict[int, EstimateReport]]:
    """Estimate one reference-frame homography per frame that has points.

    Correspondence files are ``<frame>.csv`` inside the directory. The
    frame's own detection boxes act as exclusion masks around matches'
    source points; the optional ratio test runs next; estimation happens
    on coordinates scaled by ``downscale`` and the result is lifted back.
    """
    corr_dir = Path(correspondence_dir)
    frames = sorted({p.frame for p in tracks.points if p.frame >= 2})
    by_frame = tracks.by_frame()
    homs: dict[int, Homography] = {}
    reports: dict[int, EstimateReport] = {}
    for frame in frames:
        path = corr_dir / f"{frame}.csv"
        if not path.exists():
            raise MissingHomography(frame)
        corrs = load_correspondences(path)
        masks = [
            denormalize_bbox(p.detection.bbox, tracks.frame_size)
            for p in by_frame.get(frame, [])
        ]
        if masks:
            corrs = corrs.select(mask_keep_flags(corrs.src, masks, params.mask_margin))
        if params.snn_ratio is not None:
            corrs = snn_filter(corrs, params.snn_ratio)
        rho = params.downscale
        est_pairs = corrs
        if rho < 1.0:
            est_pairs = corrs.scaled(rho)
        cfg = replace(params.ransac, seed=_frame_seed(seed, frame))
        try:
            report = ransac_homography(est_pairs, cfg)
        except SkytrajError as exc:
            raise SkytrajError(f"frame {frame}: {exc}") from exc
        h = report.homography
        if rho < 1.0:
            h = upscale_homography(h, rho)
        homs[frame] = h
        reports[frame] = report
    return homs, reports


@dataclass(frozen=True)
class VehicleContext:
    """Shared read-only inputs for per-vehicle processing."""

    frame_size: tuple[int, int]
    ref_to_ortho: Homography
    geo_local: GeoTransform
    geo_wgs: GeoTransform
    segmentation: SegmentationMap | None
    meta: SessionMeta
    dims: DimConfig
    kinematics: KinematicsConfig


def process_vehicle(
    raw_points: Sequence[TrackPoint],
    stab_points: Sequence[TrackPoint],
    ctx: VehicleContext,
) -> list[ExportRow]:
    """Georeference, measure, and profile one vehicle; returns export rows."""
    raw_points = sorted(raw_points, key=lambda p: p.frame)
    stab_by_frame = {p.frame: p for p in stab_points}
    visible = visibility_set(raw_points, ctx.frame_size, ctx.dims.visibility_margin)

    ortho: dict[int, Point2] = {}
    local: dict[int, Point2] = {}
    wgs: dict[int, Point2] = {}
    for p in raw_points:
        sp = stab_by_frame[p.frame]
        box = denormalize_bbox(sp.detection.bbox, ctx.frame_size)
        o = apply_homography(ctx.ref_to_ortho, Point2(box.cx, box.cy))
        ortho[p.frame] = o
        local[p.frame] = pixel_to_world(ctx.geo_local, o)
        wgs[p.frame] = pixel_to_world(ctx.geo_wgs, o)

    estimate = estimate_dimensions(
        raw_points,
        [stab_by_frame[p.frame] for p in raw_points],
        ctx.dims,
        ctx.frame_size,
        ctx.ref_to_ortho,
        ctx.geo_local,
    )

    profile = None
    if len(local) >= 2:
        profile = gate_by_visibility(compute_profile(local, ctx.kinematics), visible)

    rows = []
    for p in raw_points:
        seg = (
            assign_segment(ctx.segmentation, ortho[p.frame])
            if ctx.segmentation is not None
            else None
        )
        rows.append(
            ExportRow(
                vehicle_id=p.track_id,
                frame=p.frame,
                local_time=frame_to_timestamp(p.frame, ctx.meta),
                drone_id=ctx.meta.drone_id,
                ortho_x=ortho[p.frame].x,
                ortho_y=ortho[p.frame].y,
                local_x=local[p.frame].x,
                local_y=local[p.frame].y,
                latitude=wgs[p.frame].x,
                longitude=wgs[p.frame].y,
                length_m=estimate.length_m if estimate else None,
                width_m=estimate.width_m if estimate else None,
                vehicle_class=p.detection.cls,
                speed_kmh=profile.speed_kmh(p.frame) if profile else None,
                accel_ms2=profile.accel_ms2(p.frame) if profile else None,
                road_section=seg[0] if seg else None,
                lane_number=seg[1] if seg else None,
                visibility=p.frame in visible,
            )
        )
    return rows


def _vehicle_worker(args) -> list[ExportRow]:
    raw_points, stab_points, ctx = args
    return process_vehicle(raw_points, stab_points, ctx)


def run_pipeline(
    tracks: VideoTracks,
    homographies: Mapping[int, Homography],
    registry: GeoRegistry,
    video_id: str,
    segmentation: SegmentationMap | None,
    meta: SessionMeta,
    ingest: IngestParams,
    dims_cfg: DimConfig,
    kin_cfg: KinematicsConfig,
    jobs: int = 1,
) -> list[ExportRow]:
    """Full chain: ingest filter, class refinement, stabilization,
    georeferencing + lane lookup, dimensions, kinematics."""
    filtered = ingest_tracks(tracks, ingest)
    refined = refine_classes(filtered)
    stabilized = stabilize_tracks(
        refined, homographies, visibility_margin=dims_cfg.visibility_margin
    )
    inter = registry.intersection_for(video_id)
    ctx = VehicleContext(
        frame_size=tracks.frame_size,
        ref_to_ortho=compose_ref_to_ortho(registry, video_id),
        geo_local=inter.geo_local,
        geo_wgs=inter.geo_wgs,
        segmentation=segmentation,
        meta=meta,
        dims=dims_cfg,
        kinematics=kin_cfg,
    )
    raw_by_id = refined.by_id()
    stab_by_id = stabilized.by_id()
    tasks = [
        (tuple(raw_by_id[tid]), tuple(stab_by_id[tid]), ctx)
        for tid in sorted(raw_by_id)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_vehicle = list(pool.map(_vehicle_worker, tasks))
    else:
        per_vehicle = [_vehicle_worker(t) for t in tasks]
    rows: list[ExportRow] = []
    for chunk in per_vehicle:
        rows.extend(chunk)
    return rows


def build_comparison_samples(
    probe: Sequence[tuple[float, Point2, float]],
    candidate: Sequence[tuple[Point2, float]],
) -> list[ComparisonSample]:
    """Pair every probe observation with the full candidate trajectory."""
    traj = tuple(candidate)
    return [
        ComparisonSample(probe=pt, probe_speed_kmh=speed, candidate=traj)
        for _, pt, speed in probe
    ]


def log(msg: str) -> None:
    """Diagnostics go to stderr; stdout stays clean for data."""
    print(msg, file=sys.stderr)
