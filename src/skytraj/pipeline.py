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
    optional_cells,
)
from .dimensions import BoxColumns, CenterColumns, DimConfig, estimate_dimensions, rows_of
from .errors import MissingDistances, MissingHomography, SkytrajError
from .geometry import (
    Homography,
    Point2,
    at_infinity,
    infinity_error,
    pixel_to_world,
    project_array,
)
from .georeference import GeoChain, SegmentationMap, assign_segment
from .kinematics import KinematicsConfig, compute_profile
from .registration import (
    EstimateReport,
    RansacConfig,
    derive_seeds,
    mask_keep_flags,
    ransac_homography,
    snn_filter,
)
from .trackmodel import (
    TrackColumns,
    VideoTracks,
    frame_groups,
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
    """Apply the per-frame confidence + NMS filter to the detection table,
    frame by frame, each frame's rows in table order."""
    table = tracks.table
    kept = [rows[ingest_keep_indices(table[rows], params.score_min, params.nms_iou)]
            for rows in frame_groups(table["frame"]).values()]
    return replace(tracks, table=table[np.sort(np.concatenate([np.zeros(0, np.intp), *kept]))])


def estimate_frame_homographies(
    columns: TrackColumns,
    correspondence_dir,
    params: StabilizeParams,
    seed: int = 0,
) -> tuple[dict[int, Homography], dict[int, EstimateReport]]:
    """Estimate one reference-frame homography per frame that has points.

    Correspondence files are ``<frame>.csv`` inside the directory. The
    frame's own pixel boxes in ``columns`` act as exclusion masks around
    matches' source points; the optional ratio test runs next; then
    `ransac_homography` estimates at ``downscale`` with the frame's seed
    from `derive_seeds`. Each frame's report holds the lifted homography
    and its mean error in full-resolution pixels. An error in reading or
    filtering a file names the file and the line; an estimation error
    names the frame.
    """
    corr_dir = Path(correspondence_dir)
    homs: dict[int, Homography] = {}
    reports: dict[int, EstimateReport] = {}
    for frame, rows in frame_groups(columns.frames).items():
        if frame < 2:
            continue
        path = corr_dir / f"{frame}.csv"
        if not path.exists():
            raise MissingHomography(frame)
        loaded = load_correspondences(path)
        kept = mask_keep_flags(loaded.src, columns.boxes_px[rows], params.mask_margin)
        corrs = loaded.select(kept)
        if params.snn_ratio is not None:
            try:
                corrs = snn_filter(corrs, params.snn_ratio)
            except MissingDistances as exc:
                row = int(np.flatnonzero(kept)[exc.row])
                raise MissingDistances(
                    f"{path}: line {loaded.lines[row]}: match lacks descriptor distances"
                ) from exc
        cfg = replace(params.ransac, seed=derive_seeds(seed, frame)[0])
        try:
            report = ransac_homography(corrs, cfg, params.downscale)
        except SkytrajError as exc:
            raise SkytrajError(f"frame {frame}: {exc}") from exc
        homs[frame] = report.homography
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
    `pixel_to_world` on arrays do the operations of the per-point maps in
    the same order, so every other row holds the same floats.
    """
    x, y, z = project_array(geo.ref_to_ortho.m, np.column_stack((centers.x, centers.y)))
    ortho = Point2(x, y)
    with np.errstate(invalid="ignore", over="ignore"):
        positions = np.column_stack(
            [x, y, *pixel_to_world(geo.geo_local, ortho), *pixel_to_world(geo.geo_wgs, ortho)]
        )
    return positions, at_infinity(z)


def lane_columns(positions: np.ndarray, seg: SegmentationMap | None) -> tuple[list, list]:
    """Section and lane cells of each ortho point (columns 0 and 1 of
    `georeference`'s positions); both '' off every lane or without a map."""
    hits = [("", "")] * len(positions)
    if seg is not None:
        hits = [assign_segment(seg, xy) or ("", "") for xy in positions[:, :2].tolist()]
    return [section for section, _ in hits], [str(lane) for _, lane in hits]


def position_columns(positions: np.ndarray) -> list[list[str]]:
    """The ortho, local and WGS84 cell columns of `georeference`'s
    positions, as the export and ``georef`` write them."""
    return [format_column(positions[:, k], places) for k, places in enumerate(POSITION_PLACES)]


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
    ``visible`` flags that ``stabilize_tracks`` returns; ``local`` holds the
    (n, 2) local-meter positions of the stabilized centers. Speed and
    acceleration run over the whole dense track and are kept on the
    visible rows only; a vehicle of one row has neither.
    """
    estimate = estimate_dimensions(
        boxes, centers, dims, frame_size, geo.ref_to_ortho, geo.geo_local
    )
    frames, shown = boxes.frames, boxes.visible
    columns = np.full((len(frames), 4), np.nan)
    if estimate is not None:
        columns[:, 0] = estimate.length_m
        columns[:, 1] = estimate.width_m
    if len(frames) >= 2:
        # the smoothed speed in km/h and the acceleration of every visible row
        profile = compute_profile(frames, local[:, 0], local[:, 1], kinematics)
        _, columns[shown, 2], columns[shown, 3] = profile.at(frames[shown])
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

    Only the exported vehicles run their dimension and kinematics steps,
    so a shorter vehicle's error does not end the run. The session's
    centers are georeferenced in one pass; an exported vehicle's first
    center at projective infinity raises before its dimension step, after
    every earlier exported vehicle's errors. Each export column is
    formatted once, over the exported rows.
    """
    refined = refine_classes(ingest_tracks(tracks, ingest)).columns()
    size = tracks.frame_size
    stabilized, visible = stabilize_tracks(
        refined, size, homographies, visibility_margin=dims_cfg.visibility_margin
    )
    # One row per point, in (track_id, frame) order, so a vehicle's points
    # are one slice of every session column.
    boxes = BoxColumns(refined.frames, refined.boxes_px[:, 2], refined.boxes_px[:, 3], visible,
                       refined.cls)
    centers = CenterColumns(refined.frames, *(stabilized[:, :2] * size).T)
    positions, infinite = georeference(centers, geo)
    spans = {vid: span for vid, span in refined.id_rows().items()
             if span.stop - span.start > MIN_EXPORT_POINTS}
    vehicle_columns = [np.zeros((0, 4))]
    for vid, span in spans.items():
        try:
            if infinite[span].any():
                row = span.start + int(infinite[span].argmax())
                raise infinity_error(centers.x[row].item(), centers.y[row].item())
            vehicle_columns.append(process_vehicle(
                rows_of(boxes, span), rows_of(centers, span), size, geo,
                positions[span, 2:4], dims_cfg, kin_cfg))
        except SkytrajError as exc:
            raise SkytrajError(f"id {vid}: {exc}") from exc
    rows = [row for span in spans.values() for row in range(span.start, span.stop)]
    exported = positions[rows]
    frames = refined.frames[rows].tolist()
    stamps = {f: frame_to_timestamp(f, meta) for f in sorted(set(frames))}
    vehicle = np.concatenate(vehicle_columns)
    length, width, speed, accel = (
        optional_cells(vehicle[:, k], places)
        for k, places in enumerate((DIM_PLACES, DIM_PLACES, SPEED_PLACES, ACCEL_PLACES))
    )
    return list(zip(
        map(str, refined.ids[rows].tolist()),
        [stamps[f] for f in frames],
        repeat(str(meta.drone_id)),
        *position_columns(exported),
        length,
        width,
        map(str, refined.cls[rows].tolist()),
        speed,
        accel,
        *lane_columns(exported, geo.segmentation),
        ["1" if v else "0" for v in visible[rows].tolist()],
    ))
