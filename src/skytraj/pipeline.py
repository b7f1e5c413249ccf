"""Stage orchestration behind the CLI: per-frame homography estimation,
track filtering/stabilization, georeferencing, per-vehicle dimensions and
kinematics, and the cells of the export rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataio import (
    ACCEL_PLACES,
    DIM_PLACES,
    LOCAL_PLACES,
    ORTHO_PLACES,
    SPEED_PLACES,
    WGS84_PLACES,
    SessionMeta,
    format_fixed,
    frame_to_timestamp,
    load_correspondences,
)
from .dimensions import DimConfig, estimate_dimensions
from .errors import MissingDistances, MissingHomography, SkytrajError
from .geometry import Homography, Point2, apply_homography, pixel_to_world
from .georeference import GeoChain, assign_segment
from .kinematics import KinematicProfile, KinematicsConfig, compute_profile, gate_by_visibility
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

    def __post_init__(self):
        if not 0.0 < self.score_min < 1.0:
            raise ValueError("score_min must be in (0, 1)")
        if not 0.0 < self.nms_iou < 1.0:
            raise ValueError("nms_iou must be in (0, 1)")


@dataclass(frozen=True)
class StabilizeParams:
    snn_ratio: float | None = None  # None skips the ratio test
    mask_margin: float = 0.15
    downscale: float = 1.0
    ransac: RansacConfig = field(default_factory=RansacConfig)  # seed is set per frame

    def __post_init__(self):
        if self.snn_ratio is not None and not 0.0 < self.snn_ratio <= 1.0:
            raise ValueError("snn_ratio must be in (0, 1]")
        if not self.mask_margin >= 0.0:
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
    An error in reading or filtering a file names the file and the line.
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
        loaded = corrs = load_correspondences(path)
        masks = [
            denormalize_bbox(p.detection.bbox, tracks.frame_size)
            for p in by_frame.get(frame, [])
        ]
        kept = None
        if masks:
            kept = mask_keep_flags(loaded.src, masks, params.mask_margin)
            corrs = loaded.select(kept)
        if params.snn_ratio is not None:
            try:
                corrs = snn_filter(corrs, params.snn_ratio)
            except MissingDistances as exc:
                row = exc.row if kept is None else int(np.flatnonzero(kept)[exc.row])
                raise MissingDistances(
                    f"{path}: line {loaded.lines[row]}: match lacks descriptor distances"
                ) from exc
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


class GeoPosition(NamedTuple):
    ortho: Point2  # ortho cut-out pixels
    local: Point2  # planar meters
    wgs: Point2  # (latitude, longitude) degrees
    segment: tuple[str, int] | None  # (section, lane); None off every lane


def georeference_points(
    stab_points: Sequence[TrackPoint], frame_size: tuple[int, int], geo: GeoChain
) -> list[GeoPosition]:
    """Carry each stabilized box center into ortho px, local meters, WGS84
    and its lane, in input order. Both affine maps are applied to the same
    ortho pixel; the first lane polygon containing it wins."""
    w_img, h_img = frame_size
    out = []
    for p in stab_points:
        box = p.detection.bbox
        ortho = apply_homography(geo.ref_to_ortho, Point2(box.cx * w_img, box.cy * h_img))
        local = pixel_to_world(geo.geo_local, ortho)
        wgs = pixel_to_world(geo.geo_wgs, ortho)
        seg = assign_segment(geo.segmentation, ortho) if geo.segmentation else None
        out.append(GeoPosition(ortho, local, wgs, seg))
    return out


def kinematic_profile(
    local_points: Mapping[int, Point2], visible: set[int], cfg: KinematicsConfig
) -> KinematicProfile | None:
    """Speed and acceleration over one trajectory, exported on visible
    frames only; None below two points."""
    if len(local_points) < 2:
        return None
    return gate_by_visibility(compute_profile(local_points, cfg), visible)


def position_cells(g: GeoPosition) -> list[str]:
    """The ortho, local and WGS84 cells of one point, (x, y) each, as the
    export and ``georef`` write them."""
    return [
        format_fixed(g.ortho.x, ORTHO_PLACES),
        format_fixed(g.ortho.y, ORTHO_PLACES),
        format_fixed(g.local.x, LOCAL_PLACES),
        format_fixed(g.local.y, LOCAL_PLACES),
        format_fixed(g.wgs.x, WGS84_PLACES),
        format_fixed(g.wgs.y, WGS84_PLACES),
    ]


def process_vehicle(
    raw_points: Sequence[TrackPoint],
    stab_points: Sequence[TrackPoint],
    frame_size: tuple[int, int],
    geo: GeoChain,
    meta: SessionMeta,
    dims: DimConfig,
    kinematics: KinematicsConfig,
) -> list[list[str]]:
    """Georeference, measure, and profile one vehicle; returns the export
    cells of its points, one row per point in frame order.

    ``raw_points`` and ``stab_points`` are one vehicle's raw and stabilized
    points: the same frames, in frame order. Visibility is read from the
    ``visible`` flags that ``stabilize_tracks`` set on the stabilized points.
    """
    visible = {p.frame for p in stab_points if p.visible}
    positions = georeference_points(stab_points, frame_size, geo)
    estimate = estimate_dimensions(
        raw_points, stab_points, visible, dims, frame_size, geo.ref_to_ortho, geo.geo_local
    )
    local = {p.frame: g.local for p, g in zip(raw_points, positions)}
    profile = kinematic_profile(local, visible, kinematics)

    drone = str(meta.drone_id)
    length = format_fixed(estimate.length_m, DIM_PLACES) if estimate else ""
    width = format_fixed(estimate.width_m, DIM_PLACES) if estimate else ""
    rows = []
    for p, g in zip(raw_points, positions):
        frame = p.frame
        section, lane = g.segment or ("", "")
        rows.append([
            str(p.track_id),
            frame_to_timestamp(frame, meta),
            drone,
            *position_cells(g),
            length,
            width,
            str(p.detection.cls),
            format_fixed(profile.speed_kmh(frame), SPEED_PLACES) if profile else "",
            format_fixed(profile.accel_ms2(frame), ACCEL_PLACES) if profile else "",
            section,
            str(lane),
            "1" if frame in visible else "0",
        ])
    return rows


# Vehicles need more than this many points to be exported.
MIN_EXPORT_POINTS = 15


def run_pipeline(
    tracks: VideoTracks,
    homographies: Mapping[int, Homography],
    geo: GeoChain,
    meta: SessionMeta,
    ingest: IngestParams,
    dims_cfg: DimConfig,
    kin_cfg: KinematicsConfig,
) -> list[list[str]]:
    """Full chain: ingest filter, class refinement, stabilization,
    georeferencing + lane lookup, dimensions, kinematics. Returns the export
    cells of every vehicle with more than ``MIN_EXPORT_POINTS`` points, in
    (vehicle id, frame) order."""
    filtered = ingest_tracks(tracks, ingest)
    refined = refine_classes(filtered)
    stabilized = stabilize_tracks(
        refined, homographies, visibility_margin=dims_cfg.visibility_margin
    )
    # Both tables are sorted by (track_id, frame) and hold the same points.
    raw_by_id = refined.by_id()
    stab_by_id = stabilized.by_id()
    rows: list[list[str]] = []
    for tid in sorted(raw_by_id):
        cells = process_vehicle(
            raw_by_id[tid], stab_by_id[tid], tracks.frame_size, geo, meta, dims_cfg, kin_cfg
        )
        if len(cells) > MIN_EXPORT_POINTS:
            rows.extend(cells)
    return rows
