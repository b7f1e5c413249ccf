"""Stage orchestration behind the CLI: per-frame homography estimation,
track filtering/stabilization, georeferencing, per-vehicle dimensions and
kinematics, and the cells of the export rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataio import (
    ACCEL_PLACES,
    DIM_PLACES,
    LOCAL_PLACES,
    ORTHO_PLACES,
    SPEED_PLACES,
    WGS84_PLACES,
    SessionMeta,
    format_column,
    frame_to_timestamp,
    load_correspondences,
)
from .dimensions import (
    BoxColumns,
    CenterColumns,
    DimConfig,
    box_columns,
    center_columns,
    estimate_dimensions,
    rows_of,
)
from .errors import MissingDistances, MissingHomography, SkytrajError
from .geometry import Z_TOL, Homography, Point2, apply_homography, pixel_to_world, project_array
from .georeference import GeoChain, SegmentationMap, assign_segment
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


# Decimal places of the position columns: ortho x, y, local x, y,
# latitude, longitude.
POSITION_PLACES = (ORTHO_PLACES,) * 2 + (LOCAL_PLACES,) * 2 + (WGS84_PLACES,) * 2


def georeference(
    centers: CenterColumns, geo: GeoChain
) -> tuple[np.ndarray, np.ndarray]:
    """Carry stabilized box ``centers`` (reference-frame pixels) into ortho
    pixels, local meters and WGS84 degrees in one pass.

    Returns the (N, 6) columns ortho x, y, local x, y, latitude, longitude
    (the `POSITION_PLACES` order) and the (N,) flags of the centers at
    projective infinity, whose rows hold no position. `project_array` and
    `pixel_to_world` on arrays do the operations of `apply_homography` and
    `pixel_to_world` per point in the same order, so every other row holds
    the same floats.
    """
    x, y, z = project_array(geo.ref_to_ortho.m, np.column_stack((centers.x, centers.y)))
    ortho = Point2(x, y)
    with np.errstate(invalid="ignore", over="ignore"):
        positions = np.column_stack(
            [x, y, *pixel_to_world(geo.geo_local, ortho), *pixel_to_world(geo.geo_wgs, ortho)]
        )
    return positions, np.abs(z) < Z_TOL


def raise_at_infinity(centers: CenterColumns, row: int, geo: GeoChain) -> None:
    """Raise the DegenerateProjection of a center that `georeference`
    flagged: `apply_homography` makes the same z test on it."""
    apply_homography(geo.ref_to_ortho, Point2(float(centers.x[row]), float(centers.y[row])))


def lane_columns(positions: np.ndarray, seg: SegmentationMap | None) -> tuple[list, list]:
    """Section and lane cells of each ortho point (columns 0 and 1 of
    `georeference`'s positions); both '' off every lane or without a map."""
    hits = [("", "")] * len(positions)
    if seg is not None:
        hits = [assign_segment(seg, Point2(x, y)) or ("", "")
                for x, y in positions[:, :2].tolist()]
    return [section for section, _ in hits], [str(lane) for _, lane in hits]


def position_columns(positions: np.ndarray) -> list[list[str]]:
    """The ortho, local and WGS84 cell columns of `georeference`'s
    positions, as the export and ``georef`` write them."""
    return [format_column(positions[:, k], places) for k, places in enumerate(POSITION_PLACES)]


def kinematic_profile(
    frames: np.ndarray, x: np.ndarray, y: np.ndarray, visible: np.ndarray,
    cfg: KinematicsConfig,
) -> KinematicProfile | None:
    """Speed and acceleration over one trajectory (positions ``x``, ``y`` at
    the ascending ``frames``), exported on the frames flagged ``visible``
    only; None below two points."""
    if len(frames) < 2:
        return None
    return gate_by_visibility(compute_profile(frames, x, y, cfg), frames, visible)


def process_vehicle(
    boxes: BoxColumns,
    centers: CenterColumns,
    frame_size: tuple[int, int],
    geo: GeoChain,
    local: np.ndarray,
    dims: DimConfig,
    kinematics: KinematicsConfig,
) -> np.ndarray:
    """Measure and profile one vehicle; returns its (n, 4) per-point
    columns length m, width m, speed km/h and acceleration m/s^2, in frame
    order, NaN where the export cell is empty.

    ``boxes`` and ``centers`` are one vehicle's rows of the session's raw
    boxes and stabilized centers: the same frames, in frame order, with the
    ``visible`` flags that ``stabilize_tracks`` set; ``local`` holds the
    (n, 2) local-meter positions of the stabilized centers.
    """
    estimate = estimate_dimensions(
        boxes, centers, dims, frame_size, geo.ref_to_ortho, geo.geo_local
    )
    frames = boxes.frames
    profile = kinematic_profile(frames, local[:, 0], local[:, 1], boxes.visible, kinematics)
    columns = np.full((len(frames), 4), np.nan)
    if estimate is not None:
        columns[:, 0] = estimate.length_m
        columns[:, 1] = estimate.width_m
    if profile is not None:
        # `KinematicProfile.speed_kmh` and `.accel_ms2` of every row's frame
        at = frames - profile.frames[0]
        shown = profile.exported[at]
        columns[shown, 2] = profile.speed_smooth[at[shown]] * 3.6
        columns[shown, 3] = profile.accel[at[shown]]
    return columns


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
) -> list[tuple[str, ...]]:
    """Full chain: ingest filter, class refinement, stabilization,
    georeferencing + lane lookup, dimensions, kinematics. Returns the export
    cells of every vehicle with more than ``MIN_EXPORT_POINTS`` points, in
    (vehicle id, frame) order.

    The session's centers are georeferenced in one pass; a vehicle with a
    center at projective infinity raises before its dimension step, after
    every earlier vehicle's errors. Each export column is formatted once,
    over the exported rows.
    """
    filtered = ingest_tracks(tracks, ingest)
    refined = refine_classes(filtered)
    stabilized = stabilize_tracks(
        refined, homographies, visibility_margin=dims_cfg.visibility_margin
    )
    size = tracks.frame_size
    # Both tables are sorted by (track_id, frame) and hold the same points,
    # so a vehicle's points are one slice of these session columns.
    visible = np.fromiter((p.visible for p in stabilized.points), dtype=bool,
                          count=len(stabilized.points))
    boxes = box_columns(refined.points, size, visible)
    centers = center_columns(stabilized.points, size)
    positions, at_infinity = georeference(centers, geo)
    flagged = np.flatnonzero(at_infinity)
    first_flagged = int(flagged[0]) if len(flagged) else len(positions)
    kept = np.zeros(len(positions), dtype=bool)
    vehicle_columns = [np.zeros((0, 4))]
    for span in refined.id_rows().values():
        if span.stop > first_flagged:
            raise_at_infinity(centers, first_flagged, geo)
        columns = process_vehicle(rows_of(boxes, span), rows_of(centers, span), size, geo,
                                  positions[span, 2:4], dims_cfg, kin_cfg)
        if len(columns) > MIN_EXPORT_POINTS:
            kept[span] = True
            vehicle_columns.append(columns)
    sections, lanes = lane_columns(positions, geo.segmentation)

    rows = np.flatnonzero(kept).tolist()
    raw = [refined.points[i] for i in rows]
    frames = [p.frame for p in raw]
    stamps = {f: frame_to_timestamp(f, meta) for f in sorted(set(frames))}
    vehicle = np.concatenate(vehicle_columns)
    length, width, speed, accel = (
        _optional_cells(vehicle[:, k], places)
        for k, places in enumerate((DIM_PLACES, DIM_PLACES, SPEED_PLACES, ACCEL_PLACES))
    )
    return list(zip(
        [str(p.track_id) for p in raw],
        [stamps[f] for f in frames],
        repeat(str(meta.drone_id)),
        *position_columns(positions[rows]),
        length,
        width,
        [str(p.detection.cls) for p in raw],
        speed,
        accel,
        [sections[i] for i in rows],
        [lanes[i] for i in rows],
        ["1" if v else "0" for v in visible[rows].tolist()],
    ))


def _optional_cells(values: np.ndarray, places: int) -> list[str]:
    """`format_column` cells of ``values``, '' where a value is NaN."""
    filled = ~np.isnan(values)
    cells = np.full(len(values), "", dtype=object)
    cells[filled] = format_column(values[filled], places)
    return cells.tolist()
