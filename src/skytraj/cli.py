"""Command-line front end.

Subcommands: stabilize, pipeline, bench, compare, dims, kinematics,
georef. Every scalar parameter can come from a YAML config file
(--config) and be overridden by a command-line flag; precedence is
flag > config > parameter-dataclass default. Flags are plain strings:
a flag value and a config value go through one conversion, by the type
of the parameter's default. Unknown config keys and invalid values are
errors. Diagnostics go to stderr, data to files; the exit code is 0
only when no stage failed.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from functools import cache
from itertools import repeat
from pathlib import Path

from . import campaign as camp
from . import dataio
from .dimensions import BoxColumns, CenterColumns, DimConfig, estimate_dimensions, rows_of
from .errors import ConfigError, ParseError, SkytrajError
from .geometry import infinity_error
from .kinematics import KinematicsConfig, compute_profile
from .metrics import compare_trajectory
from .pipeline import (
    IngestParams,
    StabilizeParams,
    estimate_frame_homographies,
    georeference,
    lane_columns,
    position_columns,
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
    """Flag (``dest`` = key) > config entry > ``default``. Flags are
    strings; a given flag or config value is converted with ``kind``, an
    ``int`` one by `dataio.whole`, and a ``float`` one refuses a boolean."""
    value = getattr(args, key, None)
    if value is None:
        value = (cfg.get(section) or {}).get(key) if section else cfg.get(key)
    if value is None:
        return default
    if kind is None:
        return value
    name = f"{section}.{key}" if section else key
    if kind is float and isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return dataio.whole(name, value) if kind is int else kind(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        message = str(exc) if kind is int else f"{name}: bad value {value!r}: {exc}"
        raise ConfigError(message) from exc


def _path(cfg: dict, args, key: str, required: bool = True):
    value = _value(cfg, args, key, "paths")
    if value is None and required:
        raise SkytrajError(f"missing required path {key!r} (flag or config)")
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"paths.{key} must be a string, got {value!r}")
    return value


def _resolve(cls, cfg: dict, section: str, args, factory=None, **fixed):
    """Build ``cls`` from flag > config ``section`` > dataclass default,
    passing only given fields (converted to the type of a scalar or tuple
    default, a float for an optional one) plus the caller's ``fixed`` ones."""
    keys = _schema()[section] - fixed.keys()
    for f in fields(cls):
        if f.name in keys:
            kind = float if f.default is None else type(f.default)
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
    strict = _value(cfg, args, "strict", "dimensions", default=False)
    if not isinstance(strict, bool):  # 0 and 1 equal False and True
        raise ConfigError(f"dimensions.strict must be true or false, got {strict!r}")
    if strict:
        # the profile's infinite ratio thresholds withhold stationary estimates
        return _resolve(
            DimConfig, cfg, "dimensions", args, factory=DimConfig.strict,
            ratio_thresholds=DimConfig.strict().ratio_thresholds,
        )
    return _resolve(DimConfig, cfg, "dimensions", args)


def _resolve_homographies(cfg, args, tracks, params):
    seed = _value(cfg, args, "seed", kind=int, default=0)  # checked with a log too
    hom_path = _path(cfg, args, "homographies", required=False)
    corr_dir = _path(cfg, args, "correspondences", required=False)
    if hom_path is not None:
        return dataio.load_homography_log(hom_path), {}
    if corr_dir is not None:
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
    _value(cfg, args, "jobs", kind=int)  # checked as bench checks it; runs in one process
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
    out = Path(_path(cfg, args, "output"))
    results = camp.run_campaign(
        _resolve(camp.BenchParams, cfg, "bench", args),
        _resolve(camp.DistortionRanges, cfg, "bench", args),
        _resolve(camp.CampaignGrid, cfg, "bench", args),
        _resolve(camp.SynthConfig, cfg, "bench", args),
        _resolve(RansacConfig, cfg, "bench", args),
        master_seed=_value(cfg, args, "seed", kind=int, default=0),
        jobs=_value(cfg, args, "jobs", kind=int, default=1),
    )
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
    candidate = dataio.load_candidate_trajectory(_path(cfg, args, "candidate"))
    report = compare_trajectory(group, probe, candidate, kin)
    if report.skipped:
        log(f"group {group}: skipped {report.skipped} degenerate samples")
    if report.speed_diff_mean_kmh is None:
        log(
            f"group {group}: all probe speeds at or below {kin.speed_floor_kmh} km/h; "
            "speed-difference columns left empty"
        )
    dataio.write_comparison_report(report, _path(cfg, args, "output"))
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
            try:
                est = estimate_dimensions(rows_of(boxes, span), rows_of(centers, stab_rows[tid]),
                                          dims_cfg, raw.frame_size, geo.ref_to_ortho, geo.geo_local)
            except SkytrajError as exc:
                raise SkytrajError(f"id {tid}: {exc}") from exc
            if est is None:
                yield [str(tid), "0", "none", "", "", "", ""]
            else:
                yield [
                    str(tid),
                    str(est.n_samples),
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
        frames, x, y, shown = track
        if len(frames) < 2:
            log(f"id {vid}: fewer than 2 points, skipped")
            return []
        frames_shown = frames[shown]
        speed, speed_kmh, accel = compute_profile(frames, x, y, kin).at(frames_shown)
        return zip(
            repeat(str(vid)),
            map(str, frames_shown.tolist()),
            ["" if math.isnan(v) else repr(v) for v in speed.tolist()],
            dataio.optional_cells(speed_kmh, dataio.SPEED_PLACES),
            dataio.optional_cells(accel, dataio.ACCEL_PLACES),
        )

    def rows():
        for vid, track in tracks.items():
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
    positions, infinite = georeference(centers, geo)
    if infinite.any():
        row = int(infinite.argmax())
        raise infinity_error(centers.x[row].item(), centers.y[row].item())
    dataio.write_csv(
        _path(cfg, args, "output"),
        ["id", "frame", "ortho_x", "ortho_y", "local_x", "local_y",
         "latitude", "longitude", "section", "lane"],
        zip(
            map(str, columns.ids.tolist()),  # sorted by (id, frame)
            map(str, columns.frames.tolist()),
            *position_columns(positions),
            *lane_columns(positions, geo.segmentation),
        ),
    )
    return 0


# Each subcommand: its function, its help line and its flags in help
# order, after --config and --output. Every flag is a string option,
# converted by `_value` as the config entry of the same name is; `_DEST`
# names the field of a flag that is shorter than its field.
_RANSAC_FLAGS = "snn-ratio mask-margin downscale confidence max-iterations reproj-threshold"
_DIM_FLAGS = "visibility-margin azimuth-tolerance min-travel-m gsd strict"
_COMMANDS = {
    "stabilize": (cmd_stabilize, "align tracks to frame 1",
                  "seed tracks sidecar correspondences homographies homography-log"
                  f" visibility-margin {_RANSAC_FLAGS}"),
    "pipeline": (cmd_pipeline, "tracks to final CSV",
                 "seed jobs tracks sidecar correspondences homographies registry"
                 " segmentation video-id score-min nms-iou sigma drone-id start-time date"
                 f" intersection session {_RANSAC_FLAGS} {_DIM_FLAGS}"),
    "bench": (cmd_bench, "synthetic registration benchmark",
              "seed jobs scenes trials noise-sigma outlier-fraction hea-epsilon confidence"
              " max-iterations"),
    "compare": (cmd_compare, "probe vs extracted trajectory",
                "probe candidate group fps speed-floor"),
    "dims": (cmd_dims, "per-vehicle dimension estimates",
             f"tracks stabilized sidecar registry video-id {_DIM_FLAGS}"),
    "kinematics": (cmd_kinematics, "speed/acceleration profiles", "input fps sigma"),
    "georef": (cmd_georef, "stabilized tracks to world CSV",
               "tracks sidecar registry segmentation video-id"),
}
_DEST = {
    "trials": "trials_per_scene",
    "azimuth-tolerance": "azimuth_tolerance_deg",
    "speed-floor": "speed_floor_kmh",
}
# A flag's help line, by flag, or by (subcommand, flag) where it differs.
_HELP = {
    "config": "YAML config file",
    "output": "output file path",
    "seed": "master random seed",
    "jobs": "bench trial workers (default 1)",
    ("stabilize", "correspondences"): "directory of per-frame <k>.csv files",
    ("stabilize", "homographies"): "precomputed per-frame homography log",
    ("stabilize", "homography-log"): "write estimated homographies here",
    ("dims", "tracks"): "raw (un-stabilized) tracks",
    ("kinematics", "input"): "CSV id,frame,x,y[,visible] in local meters",
    ("georef", "tracks"): "stabilized tracks",
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: it depends only on the code,
    and each `parse_args` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="skytraj",
        description="Drone-track stabilization, georeferencing, and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --config and --output are declared once and copied into each
    # subcommand: every add_argument call builds a help formatter.
    common = argparse.ArgumentParser(add_help=False)
    for flag in ("config", "output"):
        common.add_argument("--" + flag, help=_HELP[flag])
    for command, (func, about, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=about, parents=[common])
        for flag in flags.split():
            p.add_argument(
                "--" + flag,
                dest=_DEST.get(flag),
                help=_HELP.get((command, flag), _HELP.get(flag)),
                **({"action": "store_const", "const": True} if flag == "strict" else {}),
            )
        p.set_defaults(func=func)
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
