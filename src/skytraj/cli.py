"""Command-line front end.

Subcommands: stabilize, pipeline, bench, compare, dims, kinematics,
georef. Every scalar parameter can come from a YAML config file
(--config) and be overridden by a command-line flag; precedence is
flag > config > parameter-dataclass default. Unknown config keys and
invalid values are errors. Diagnostics go to stderr, data to files;
the exit code is 0 only when no stage failed.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import campaign as camp
from . import dataio
from .dimensions import BoxColumns, CenterColumns, DimConfig, estimate_dimensions, rows_of
from .errors import ConfigError, ParseError, SkytrajError
from .kinematics import KinematicsConfig
from .metrics import ComparisonSample, aggregate_comparison
from .pipeline import (
    IngestParams,
    StabilizeParams,
    estimate_frame_homographies,
    georeference,
    kinematic_profile,
    lane_columns,
    position_columns,
    raise_at_infinity,
    run_pipeline,
)
from .registration import RansacConfig
from .trackmodel import DEFAULT_FPS, stabilize_tracks, visible_flags


def log(msg: str) -> None:
    """Diagnostics go to stderr; stdout stays clean for data."""
    print(msg, file=sys.stderr)


def _schema() -> dict:
    """Every config key of every subcommand: a section's key set, or None for
    a top-level scalar. Sections take the field names of the dataclasses
    they build, less those set elsewhere (RANSAC seeds, fps)."""

    def names(*classes, drop=()):
        return {f.name for c in classes for f in fields(c)} - set(drop)

    return {
        **dict.fromkeys(("video_id", "seed", "jobs", "fps")),
        "paths": {
            "tracks", "sidecar", "homographies", "correspondences",
            "homography_log", "registry", "segmentation", "stabilized",
            "probe", "candidate", "input", "output",
        },
        "ingest": names(IngestParams),
        "ransac": names(RansacConfig, drop={"seed"}),
        "stabilize": names(StabilizeParams, drop={"ransac"}),
        "dimensions": names(DimConfig) | {"strict"},
        "kinematics": names(KinematicsConfig, drop={"fps"}),
        "export": names(dataio.SessionMeta, drop={"fps"}),
        "bench": names(
            camp.BenchParams, camp.DistortionRanges, camp.CampaignGrid,
            camp.SynthConfig, RansacConfig,
            drop={"n_points", "seed", "reproj_threshold"},
        ),
        "compare": {"group"},
    }


def _load_config(args) -> dict:
    cfg = dataio.load_yaml(args.config) if args.config else {}
    schema = _schema()
    for key, node in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
        if schema[key] is None or node is None:
            continue
        if not isinstance(node, dict):
            raise ConfigError(f"config section {key!r} must be a mapping")
        for sub in node:
            if sub not in schema[key]:
                raise ConfigError(f"unknown config key '{key}.{sub}'")
    return cfg


def _value(cfg: dict, args, key: str, section=None, kind=None, default=None):
    """Flag (``dest`` = key) > config entry > ``default``; a given value is
    converted with ``kind``, an ``int`` one by `dataio.whole`."""
    value = getattr(args, key, None)
    if value is None:
        value = (cfg.get(section) or {}).get(key) if section else cfg.get(key)
    if value is None:
        return default
    if kind is None:
        return value
    name = f"{section}.{key}" if section else key
    try:
        return dataio.whole(name, value) if kind is int else kind(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        message = str(exc) if kind is int else f"{name}: bad value {value!r}: {exc}"
        raise ConfigError(message) from exc


def _path(cfg: dict, args, key: str, required: bool = True):
    value = _value(cfg, args, key, "paths")
    if value is None and required:
        raise SkytrajError(f"missing required path {key!r} (flag or config)")
    return value


def _resolve(cls, cfg: dict, section: str, args, factory=None, **fixed):
    """Build ``cls`` from flag > config ``section`` > dataclass default,
    passing only given fields (converted to the type of a scalar or tuple
    default) plus the caller's ``fixed`` ones."""
    keys = _schema()[section] - fixed.keys()
    for f in fields(cls):
        if f.name in keys:
            kind = type(f.default)
            kind = kind if kind in (int, float, str, tuple) else None
            value = _value(cfg, args, f.name, section, kind)
            if value is not None:
                fixed[f.name] = value
    try:
        return (factory or cls)(**fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _stabilize_params(cfg: dict, args) -> StabilizeParams:
    ransac = _resolve(RansacConfig, cfg, "ransac", args)
    return _resolve(StabilizeParams, cfg, "stabilize", args, ransac=ransac)


def _dims_config(cfg: dict, args) -> DimConfig:
    if _value(cfg, args, "strict", "dimensions"):
        # the profile's infinite ratio thresholds withhold stationary estimates
        return _resolve(
            DimConfig, cfg, "dimensions", args, factory=DimConfig.strict,
            ratio_thresholds=DimConfig.strict().ratio_thresholds,
        )
    return _resolve(DimConfig, cfg, "dimensions", args)


def _resolve_homographies(cfg, args, tracks, params):
    hom_path = _path(cfg, args, "homographies", required=False)
    corr_dir = _path(cfg, args, "correspondences", required=False)
    if hom_path is not None:
        return dataio.load_homography_log(hom_path), {}
    if corr_dir is not None:
        seed = _value(cfg, args, "seed", kind=int, default=0)
        return estimate_frame_homographies(tracks.columns(), corr_dir, params, seed=seed)
    raise SkytrajError("need either a homography log or a correspondence directory")


def cmd_stabilize(args) -> int:
    cfg = _load_config(args)
    params = _stabilize_params(cfg, args)
    margin = _dims_config(cfg, args).visibility_margin
    tracks = dataio.load_tracks(_path(cfg, args, "tracks"), _path(cfg, args, "sidecar"))
    homs, reports = _resolve_homographies(cfg, args, tracks, params)
    for frame in sorted(reports):
        r = reports[frame]
        log(
            f"frame {frame}: {r.inlier_count}/{len(r.inlier_flags)} inliers, "
            f"mean error {r.mean_reproj_error:.4f} px, {r.iterations_run} iterations"
        )
    boxes, visible = stabilize_tracks(
        tracks.columns(), tracks.frame_size, homs, visibility_margin=margin
    )
    out = _path(cfg, args, "output")
    dataio.write_tracks(tracks, boxes, visible, out)
    log_path = _path(cfg, args, "homography_log", required=False)
    if log_path is None and reports:
        # homographies were estimated here; keep them next to the output
        out_path = Path(out)
        log_path = out_path.with_name(out_path.stem + "_homographies.txt")
    if log_path:
        dataio.write_homography_log(homs, log_path)
        log(f"homography log written to {log_path}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    video_id = _value(cfg, args, "video_id", kind=str)
    if video_id is None:
        raise SkytrajError("missing video_id (flag or config)")
    params = _stabilize_params(cfg, args)
    ingest = _resolve(IngestParams, cfg, "ingest", args)
    dims = _dims_config(cfg, args)
    sidecar = dataio.load_sidecar(_path(cfg, args, "sidecar"))
    meta = _resolve(dataio.SessionMeta, cfg, "export", args, fps=sidecar.fps)
    kin = _resolve(KinematicsConfig, cfg, "kinematics", args, fps=sidecar.fps)
    tracks = dataio.load_tracks(_path(cfg, args, "tracks"), sidecar)
    registry = dataio.load_registry(_path(cfg, args, "registry"))
    seg_path = _path(cfg, args, "segmentation", required=False)
    geo = registry.chain(video_id, dataio.load_segmentation(seg_path) if seg_path else None)
    homs, _ = _resolve_homographies(cfg, args, tracks, params)
    rows = run_pipeline(tracks, homs, geo, meta, ingest, dims, kin)
    dataio.export_songdo(rows, _path(cfg, args, "output"))
    log(f"exported {len(rows)} rows")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    results = camp.run_campaign(
        _resolve(camp.BenchParams, cfg, "bench", args),
        _resolve(camp.DistortionRanges, cfg, "bench", args),
        _resolve(camp.CampaignGrid, cfg, "bench", args),
        _resolve(camp.SynthConfig, cfg, "bench", args),
        _resolve(RansacConfig, cfg, "bench", args),
        master_seed=_value(cfg, args, "seed", kind=int, default=0),
        jobs=_value(cfg, args, "jobs", kind=int, default=1),
    )
    out = Path(_path(cfg, args, "output"))
    timing = out.with_name(out.stem + "_timing" + out.suffix)
    dataio.write_campaign_results(results, out, timing_path=timing)
    log(f"wrote {len(results)} grid cells to {out} (timing in {timing})")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    fps = _value(cfg, args, "fps", kind=dataio.parse_fps, default=DEFAULT_FPS)
    kin = _resolve(KinematicsConfig, cfg, "kinematics", args, fps=fps)
    group = _value(cfg, args, "group", "compare", str, default="all")
    probe = dataio.load_probe_trajectory(_path(cfg, args, "probe"))
    candidate_rows = dataio.load_candidate_trajectory(_path(cfg, args, "candidate"))
    candidate = tuple((pt, speed) for _, pt, speed in candidate_rows)
    # every probe observation is compared with the whole candidate trajectory
    samples = [
        ComparisonSample(probe=pt, probe_speed_kmh=speed, candidate=candidate)
        for _, pt, speed in probe
    ]
    reports = aggregate_comparison({group: samples}, kin)
    for r in reports:
        if r.skipped:
            log(f"group {r.key}: skipped {r.skipped} degenerate samples")
        if r.speed_diff_mean_kmh is None:
            log(
                f"group {r.key}: all probe speeds at or below {kin.speed_floor_kmh} km/h; "
                "speed-difference columns left empty"
            )
    dataio.write_comparison_report(reports, _path(cfg, args, "output"))
    return 0


def cmd_dims(args) -> int:
    cfg = _load_config(args)
    dims_cfg = _dims_config(cfg, args)
    sidecar = dataio.load_sidecar(_path(cfg, args, "sidecar"))
    raw = dataio.load_tracks(_path(cfg, args, "tracks"), sidecar)
    stab_path = _path(cfg, args, "stabilized")
    stab = dataio.load_tracks(stab_path, sidecar, require_unit_range=False)
    registry = dataio.load_registry(_path(cfg, args, "registry"))
    geo = registry.chain(_value(cfg, args, "video_id", kind=str, default=""))
    raw_cols, stab_cols = raw.columns(), stab.columns()
    raw_rows = raw_cols.id_rows()
    stab_rows = stab_cols.id_rows()
    # stabilize writes every raw vehicle; a missing one means the files differ
    unmatched = sorted(raw_rows.keys() - stab_rows.keys())
    if unmatched:
        raise ParseError(f"no points for vehicle {unmatched[0]}", path=stab_path)
    # the stabilized file may hold frames the raw one lacks, and the reverse
    raw_px = raw_cols.boxes_px
    boxes = BoxColumns(raw_cols.frames, raw_px[:, 2], raw_px[:, 3],
                       visible_flags(raw_px, raw.frame_size, dims_cfg.visibility_margin),
                       raw_cols.cls)
    centers = CenterColumns(stab_cols.frames, stab_cols.boxes_px[:, 0], stab_cols.boxes_px[:, 1])

    def rows():
        for tid, span in raw_rows.items():
            est = estimate_dimensions(
                rows_of(boxes, span),
                rows_of(centers, stab_rows[tid]),
                dims_cfg,
                raw.frame_size,
                geo.ref_to_ortho,
                geo.geo_local,
            )
            if est is None:
                yield [tid, 0, "none", "", "", "", ""]
            else:
                yield [
                    tid,
                    est.n_samples,
                    est.path.value,
                    dataio.format_fixed(est.length_px, dataio.DIM_PLACES),
                    dataio.format_fixed(est.width_px, dataio.DIM_PLACES),
                    dataio.format_fixed(est.length_m, dataio.DIM_PLACES),
                    dataio.format_fixed(est.width_m, dataio.DIM_PLACES),
                ]

    dataio.write_csv(
        _path(cfg, args, "output"),
        ["id", "n_samples", "path", "length_px", "width_px", "length_m", "width_m"],
        rows(),
    )
    return 0


def cmd_kinematics(args) -> int:
    cfg = _load_config(args)
    fps = _value(cfg, args, "fps", kind=dataio.parse_fps, default=DEFAULT_FPS)
    kin = _resolve(KinematicsConfig, cfg, "kinematics", args, fps=fps)
    tracks = dataio.load_local_trajectories(_path(cfg, args, "input"))

    def vehicle_rows(vid, track):
        profile = kinematic_profile(*track, kin)
        if profile is None:
            log(f"id {vid}: fewer than 2 points, skipped")
            return []
        shown = profile.exported
        speed, accel = profile.speed_smooth[shown], profile.accel[shown]
        with np.errstate(over="ignore"):  # as on Python floats
            speed_kmh = speed * 3.6
        return zip(
            repeat(vid),
            profile.frames[shown].tolist(),
            ["" if math.isnan(v) else repr(v) for v in speed.tolist()],
            dataio.optional_cells(speed_kmh, dataio.SPEED_PLACES),
            dataio.optional_cells(accel, dataio.ACCEL_PLACES),
        )

    def rows():
        for vid, track in sorted(tracks.items()):
            try:
                yield from vehicle_rows(vid, track)
            except SkytrajError as exc:
                raise SkytrajError(f"id {vid}: {exc}") from exc

    dataio.write_csv(
        _path(cfg, args, "output"),
        ["id", "frame", "speed_ms", "speed_kmh", "accel_ms2"],
        rows(),
    )
    return 0


def cmd_georef(args) -> int:
    cfg = _load_config(args)
    sidecar = dataio.load_sidecar(_path(cfg, args, "sidecar"))
    stab = dataio.load_tracks(
        _path(cfg, args, "tracks"), sidecar, require_unit_range=False
    )
    registry = dataio.load_registry(_path(cfg, args, "registry"))
    seg_path = _path(cfg, args, "segmentation", required=False)
    geo = registry.chain(
        _value(cfg, args, "video_id", kind=str, default=""),
        dataio.load_segmentation(seg_path) if seg_path else None,
    )
    columns = stab.columns()
    centers = CenterColumns(columns.frames, columns.boxes_px[:, 0], columns.boxes_px[:, 1])
    positions, at_infinity = georeference(centers, geo)
    if at_infinity.any():
        raise_at_infinity(centers, int(at_infinity.argmax()), geo)
    dataio.write_csv(
        _path(cfg, args, "output"),
        ["id", "frame", "ortho_x", "ortho_y", "local_x", "local_y",
         "latitude", "longitude", "section", "lane"],
        zip(
            columns.ids.tolist(),  # sorted by (id, frame)
            columns.frames.tolist(),
            *position_columns(positions),
            *lane_columns(positions, geo.segmentation),
        ),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--jobs", type=int, help="bench trial workers (default 1)")
    common.add_argument("--output", help="output file path")

    parser = argparse.ArgumentParser(
        prog="skytraj",
        description="Drone-track stabilization, georeferencing, and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ransac_flags(p):
        p.add_argument("--snn-ratio", type=float)
        p.add_argument("--mask-margin", type=float)
        p.add_argument("--downscale", type=float)
        p.add_argument("--confidence", type=float)
        p.add_argument("--max-iterations", type=int)
        p.add_argument("--reproj-threshold", type=float)

    def add_dim_flags(p):
        p.add_argument("--visibility-margin", type=float)
        p.add_argument("--azimuth-tolerance", type=float, dest="azimuth_tolerance_deg")
        p.add_argument("--min-travel-m", type=float)
        p.add_argument("--gsd", type=float)
        p.add_argument("--strict", action="store_const", const=True, default=None)

    p = sub.add_parser("stabilize", parents=[common], help="align tracks to frame 1")
    p.add_argument("--tracks")
    p.add_argument("--sidecar")
    p.add_argument("--correspondences", help="directory of per-frame <k>.csv files")
    p.add_argument("--homographies", help="precomputed per-frame homography log")
    p.add_argument("--homography-log", help="write estimated homographies here")
    p.add_argument("--visibility-margin", type=float)
    add_ransac_flags(p)
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("pipeline", parents=[common], help="tracks to final CSV")
    p.add_argument("--tracks")
    p.add_argument("--sidecar")
    p.add_argument("--correspondences")
    p.add_argument("--homographies")
    p.add_argument("--registry")
    p.add_argument("--segmentation")
    p.add_argument("--video-id")
    p.add_argument("--score-min", type=float)
    p.add_argument("--nms-iou", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--drone-id", type=int)
    p.add_argument("--start-time")
    p.add_argument("--date")
    p.add_argument("--intersection")
    p.add_argument("--session")
    add_ransac_flags(p)
    add_dim_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("bench", parents=[common], help="synthetic registration benchmark")
    p.add_argument("--scenes", type=int)
    p.add_argument("--trials", type=int, dest="trials_per_scene")
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--outlier-fraction", type=float)
    p.add_argument("--hea-epsilon", type=float)
    p.add_argument("--confidence", type=float)
    p.add_argument("--max-iterations", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", parents=[common], help="probe vs extracted trajectory")
    p.add_argument("--probe")
    p.add_argument("--candidate")
    p.add_argument("--group")
    p.add_argument("--fps")
    p.add_argument("--speed-floor", type=float, dest="speed_floor_kmh")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dims", parents=[common], help="per-vehicle dimension estimates")
    p.add_argument("--tracks", help="raw (un-stabilized) tracks")
    p.add_argument("--stabilized")
    p.add_argument("--sidecar")
    p.add_argument("--registry")
    p.add_argument("--video-id")
    add_dim_flags(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("kinematics", parents=[common], help="speed/acceleration profiles")
    p.add_argument("--input", help="CSV id,frame,x,y[,visible] in local meters")
    p.add_argument("--fps")
    p.add_argument("--sigma", type=float)
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("georef", parents=[common], help="stabilized tracks to world CSV")
    p.add_argument("--tracks", help="stabilized tracks")
    p.add_argument("--sidecar")
    p.add_argument("--registry")
    p.add_argument("--segmentation")
    p.add_argument("--video-id")
    p.set_defaults(func=cmd_georef)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SkytrajError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
