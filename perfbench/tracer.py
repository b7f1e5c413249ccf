"""Per-layer tracing from outside the program.

The tracer replaces public functions by timing wrappers at the names
where their callers look them up: ``skytraj.pipeline`` and
``skytraj.campaign`` import with ``from .x import y``, so their own
module attributes are patched, while ``skytraj.cli`` reaches ``dataio``
and ``campaign`` functions through the module object. Nothing inside
``src/skytraj`` is edited.

Each call becomes a span (name, start, end, parent span id) kept in
memory; hooks count the work each call did from its arguments and
result. A wrapped name that no longer exists, or a hook that no longer
fits the function's signature, is reported in ``absent`` instead of
failing the run.
"""
from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict


def _rows_written(args, kwargs, result, c):
    with open(args[1], "rb") as fh:
        c["dataio.export_songdo.rows_written"] += sum(1 for _ in fh) - 1


def _corr_rows(args, kwargs, result, c):
    c["dataio.load_correspondences.rows"] += len(result)


def _ingest(args, kwargs, result, c):
    dets, score_min = args[0], args[1]
    above = sum(1 for d in dets if d.score >= score_min)
    c["trackmodel.ingest.boxes_in"] += len(dets)
    c["trackmodel.ingest.dropped_score"] += len(dets) - above
    c["trackmodel.ingest.dropped_nms"] += above - len(result)
    c["trackmodel.ingest.max_boxes_per_frame"] = max(
        c["trackmodel.ingest.max_boxes_per_frame"], len(dets))


def _flips(args, kwargs, result, c):
    c["trackmodel.refine_classes.flips"] += sum(
        1 for a, b in zip(args[0].points, result.points) if a.detection.cls != b.detection.cls)


def _ransac(args, kwargs, result, c):
    c["registration.ransac.iterations"] += result.iterations_run
    c["registration.ransac.inliers"] += result.inlier_count
    c["registration.ransac.points"] += len(args[0])


def _mask(args, kwargs, result, c):
    c["registration.mask.in"] += len(result)
    c["registration.mask.dropped"] += len(result) - int(result.sum())


def _snn(args, kwargs, result, c):
    c["registration.snn.in"] += len(args[0])
    c["registration.snn.dropped"] += len(args[0]) - len(result)


def _segment(args, kwargs, result, c):
    c["georeference.assign_segment.misses"] += result is None


def _dims(args, kwargs, result, c):
    path = "none" if result is None else {"azimuth_filtered": "azimuth",
                                          "ratio_filtered": "ratio"}.get(result.path.value, "none")
    c[f"dimensions.path.{path}"] += 1


def _profile(args, kwargs, result, c):
    c["kinematics.profile.dense_frames"] += len(result.frames)
    c["kinematics.profile.observed_frames"] += len(args[0])


def _vehicle(args, kwargs, result, c):
    c["pipeline.vehicles"] += 1
    c["pipeline.export_cut_vehicles"] += len(result) <= 15  # export keeps > 15 points


def _trial(args, kwargs, result, c):
    c["campaign.trials_failed"] += math.isinf(result[0])


# (span name, module, attribute, hook). Order matters only for reading.
WRAPS = [
    ("dataio.load_tracks", "skytraj.dataio", "load_tracks", None),
    ("dataio.export_songdo", "skytraj.dataio", "export_songdo", _rows_written),
    ("dataio.load_correspondences", "skytraj.pipeline", "load_correspondences", _corr_rows),
    ("dataio.frame_to_timestamp", "skytraj.pipeline", "frame_to_timestamp", None),
    ("trackmodel.ingest", "skytraj.pipeline", "ingest_keep_indices", _ingest),
    ("trackmodel.refine_classes", "skytraj.pipeline", "refine_classes", _flips),
    ("trackmodel.stabilize", "skytraj.pipeline", "stabilize_tracks", None),
    ("registration.estimate_frames", "skytraj.cli", "estimate_frame_homographies", None),
    ("registration.mask", "skytraj.pipeline", "mask_keep_flags", _mask),
    ("registration.snn", "skytraj.pipeline", "snn_filter", _snn),
    ("registration.snn", "skytraj.campaign", "snn_filter", _snn),
    ("registration.ransac", "skytraj.pipeline", "ransac_homography", _ransac),
    ("registration.ransac", "skytraj.campaign", "ransac_homography", _ransac),
    ("georeference.assign_segment", "skytraj.pipeline", "assign_segment", _segment),
    ("dimensions.estimate", "skytraj.pipeline", "estimate_dimensions", _dims),
    ("kinematics.profile", "skytraj.pipeline", "compute_profile", _profile),
    ("pipeline.process_vehicle", "skytraj.pipeline", "process_vehicle", _vehicle),
    ("campaign.trial", "skytraj.campaign", "run_trial", _trial),
    ("campaign.synth", "skytraj.campaign", "random_homography", None),
    ("campaign.synth", "skytraj.campaign", "synth_correspondences", None),
    ("metrics.score", "skytraj.campaign", "corner_displacement", None),
    ("metrics.score", "skytraj.campaign", "scene_miou", None),
]


class Tracer:
    """Span recorder that patches the functions in ``WRAPS`` while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts = [], defaultdict(int)

    def install(self) -> None:
        for name, module_name, attr, hook in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, f"{module_name}.{attr}", fn, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, where, fn, hook):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans[sid] = (name, start, end, parent)
            if hook is not None:
                try:
                    hook(args, kwargs, result, self.counts)
                except Exception:  # a changed signature must not stop the run
                    self.absent.add(f"{where} (counter hook)")
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the calls recorded since the last reset."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        durations = defaultdict(list)
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] += d
            calls[name] += 1
            durations[name].append(d)
            if parent >= 0:
                child[parent] += d
        self_time = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[sid]
        c = self.counts

        def ms(name):
            return total[name] * 1000.0

        def frac(num, den):
            return num / den if den else 0.0

        trial = sorted(durations["campaign.trial"])
        iters = c["registration.ransac.iterations"]
        dense = c["kinematics.profile.dense_frames"]
        return {
            "dataio.load_tracks.ms": ms("dataio.load_tracks"),
            "dataio.frame_to_timestamp.ms": ms("dataio.frame_to_timestamp"),
            "dataio.frame_to_timestamp.calls": calls["dataio.frame_to_timestamp"],
            "dataio.export_songdo.ms": ms("dataio.export_songdo"),
            "dataio.export_songdo.rows_written": c["dataio.export_songdo.rows_written"],
            "dataio.load_correspondences.ms": ms("dataio.load_correspondences"),
            "dataio.load_correspondences.rows": c["dataio.load_correspondences.rows"],
            "trackmodel.ingest.ms": ms("trackmodel.ingest"),
            "trackmodel.ingest.boxes_in": c["trackmodel.ingest.boxes_in"],
            "trackmodel.ingest.dropped_score": c["trackmodel.ingest.dropped_score"],
            "trackmodel.ingest.dropped_nms": c["trackmodel.ingest.dropped_nms"],
            "trackmodel.ingest.max_boxes_per_frame": c["trackmodel.ingest.max_boxes_per_frame"],
            "trackmodel.refine_classes.ms": ms("trackmodel.refine_classes"),
            "trackmodel.refine_classes.flips": c["trackmodel.refine_classes.flips"],
            "trackmodel.stabilize.ms": ms("trackmodel.stabilize"),
            "registration.estimate_frames.ms": ms("registration.estimate_frames"),
            "registration.ransac.calls": calls["registration.ransac"],
            "registration.ransac.ms": ms("registration.ransac"),
            "registration.ransac.iterations": iters,
            "registration.ransac.us_per_iteration": frac(total["registration.ransac"] * 1e6, iters),
            "registration.ransac.inlier_ratio": frac(c["registration.ransac.inliers"],
                                                     c["registration.ransac.points"]),
            "registration.mask.drop_frac": frac(c["registration.mask.dropped"],
                                                c["registration.mask.in"]),
            "registration.snn.drop_frac": frac(c["registration.snn.dropped"],
                                               c["registration.snn.in"]),
            "georeference.assign_segment.ms": ms("georeference.assign_segment"),
            "georeference.assign_segment.calls": calls["georeference.assign_segment"],
            "georeference.assign_segment.miss_frac": frac(c["georeference.assign_segment.misses"],
                                                          calls["georeference.assign_segment"]),
            "dimensions.estimate.ms": ms("dimensions.estimate"),
            "dimensions.path.azimuth": c["dimensions.path.azimuth"],
            "dimensions.path.ratio": c["dimensions.path.ratio"],
            "dimensions.path.none": c["dimensions.path.none"],
            "kinematics.profile.ms": ms("kinematics.profile"),
            "kinematics.profile.dense_frames": dense,
            "kinematics.profile.interpolated_frac": frac(
                dense - c["kinematics.profile.observed_frames"], dense),
            "pipeline.process_vehicle.self_ms": self_time["pipeline.process_vehicle"] * 1000.0,
            "pipeline.vehicles": c["pipeline.vehicles"],
            "pipeline.export_cut_vehicles": c["pipeline.export_cut_vehicles"],
            "campaign.trial.ms_p50": _quantile(trial, 0.5) * 1000.0,
            "campaign.trial.ms_p99": _quantile(trial, 0.99) * 1000.0,
            "campaign.synth.ms": ms("campaign.synth"),
            "campaign.trials_failed": c["campaign.trials_failed"],
            "metrics.score.ms": ms("metrics.score"),
        }


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]
