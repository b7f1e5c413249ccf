"""Seeded input generator for the benchmark workloads.

Every file is written in the formats documented in the project README,
so the program reads the generated inputs exactly as it reads real
ones. The same seed and size always give the same bytes: every random
draw comes from one ``numpy.random.Generator`` in a fixed order, and
floats are written with ``repr``.

Session scenes are built in the reference frame (the video's first
frame) and carried into each raw frame through the inverse of that
frame's camera homography, so the homography log and the correspondence
files describe the same camera motion.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FRAME_W, FRAME_H = 3840, 2160
FPS = "30000/1001"
N_CLASSES = 4
VIDEO_ID = "V1"
INTERSECTION = "X"

# (length px, width px) per class: car, bus, truck, motorcycle at ~2.7 cm/px.
CLASS_DIMS = {0: (165.0, 72.0), 1: (440.0, 95.0), 2: (300.0, 90.0), 3: (75.0, 30.0)}
CLASS_WEIGHTS = (0.7, 0.08, 0.12, 0.1)

LANE_PX = 128.0  # 3.5 m lanes
LANES_PER_SIDE = 3
ROAD_H_Y0 = 700.0  # horizontal road spans y in [Y0, Y0 + 6 lanes]
ROAD_V_X0 = 1600.0  # vertical road spans x in [X0, X0 + 6 lanes]
# Lane polygons cover the horizontal road only up to this reference x, so
# points on the rest of it and on the whole vertical road miss every lane.
LANE_COVER_X = 2300.0

REF_TO_MASTER = ((0.9999619, -0.0087265, 50.0), (0.0087265, 0.9999619, -30.0), (0, 0, 1))
MASTER_TO_ORTHO = ((1.0, 0.0, 100.0), (0.0, 1.0, 200.0), (0, 0, 1))
GEO_LOCAL = (0.02725, 0.0, 0.0, -0.02725, 1000.0, 2000.0)
GEO_WGS = (3.1e-7, 0.0, 0.0, -2.5e-7, 126.64, 37.38)

SESSION_META = [
    "--video-id", VIDEO_ID,
    "--drone-id", "3",
    "--start-time", "08:00:00.000",
    "--date", "2024-05-01",
    "--intersection", INTERSECTION,
    "--session", "AM1",
]


@dataclass(frozen=True)
class SessionSpec:
    n_frames: int
    n_vehicles: int
    matches_per_frame: int = 0  # 0 writes a homography log instead
    outlier_frac: float = 0.3
    in_box_frac: float = 0.1  # share of matches placed on vehicles

    def __post_init__(self):
        if self.n_frames < 18:  # partial tracks span 16+ frames, occlusions need room
            raise ValueError("n_frames must be >= 18")


@dataclass(frozen=True)
class CampaignSpec:
    scenes: int
    trials_per_scene: int


def _camera(rng: np.random.Generator, n_frames: int) -> dict[int, np.ndarray]:
    """Frame -> 3x3 map from that frame's pixels into the reference frame.

    Smooth drift (translation, rotation and zoom about the frame center);
    frame 1 is the identity.
    """
    amp = rng.uniform([8.0, 8.0, 0.002, 0.001], [30.0, 20.0, 0.006, 0.004])
    period = rng.uniform(300.0, 900.0, size=4)
    phase = rng.uniform(0.0, 2 * math.pi, size=4)
    cx, cy = FRAME_W / 2.0, FRAME_H / 2.0
    to_c = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=float)
    from_c = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=float)

    def params(k):
        t = 2 * math.pi * (k - 1) / period + phase
        return amp * np.sin(t)

    base = params(1)
    homs = {}
    for k in range(1, n_frames + 1):
        tx, ty, rot, zoom = params(k) - base
        s = 1.0 + zoom
        c, sn = math.cos(rot), math.sin(rot)
        m = np.array([[s * c, -s * sn, tx], [s * sn, s * c, ty], [0.0, 0.0, 1.0]])
        homs[k] = from_c @ m @ to_c
    homs[1] = np.eye(3)
    return homs


def _apply(h: np.ndarray, xy: np.ndarray) -> np.ndarray:
    pts = np.column_stack([xy, np.ones(len(xy))]) @ h.T
    return pts[:, :2] / pts[:, 2:3]


def _strata(rng: np.random.Generator, n: int, weights) -> np.ndarray:
    """Labels 0..len(weights)-1 in fixed proportions, in a seeded order."""
    counts = np.floor(np.asarray(weights) * n).astype(int)
    counts[0] += n - counts.sum()
    return rng.permutation(np.repeat(np.arange(len(weights)), counts))


def _vehicles(rng: np.random.Generator, spec: SessionSpec):
    """Reference-frame paths: (cls, first frame, n frames, x0, y0, vx, vy, w, h).

    Class, path kind, presence window and every noise share come in fixed
    counts, so the seed moves vehicles around without changing how many
    boxes a frame holds, and with it the work a run does.
    """
    n, n_frames = spec.n_vehicles, spec.n_frames
    classes = _strata(rng, n, CLASS_WEIGHTS)
    # whole session, parked (whole session), part of it, short (export cut)
    roles = _strata(rng, n, (0.45, 0.1, 0.33, 0.12))
    kinds = _strata(rng, n, (0.5, 0.39, 0.11))  # horizontal, vertical, diagonal
    kinds[roles == 1] = 3
    edge = _strata(rng, n, (0.8, 0.2))  # path ends with the box across the frame border
    lives = np.full(n, n_frames)
    for role, lo, hi in ((2, 16, n_frames), (3, 4, 16)):
        idx = np.flatnonzero(roles == role)
        lives[idx] = lo + np.arange(len(idx)) * (hi - lo) // max(len(idx), 1)
    out = []
    for i in range(n):
        cls = int(classes[i])
        length, width = CLASS_DIMS[cls]
        length *= rng.uniform(0.9, 1.1)
        width *= rng.uniform(0.9, 1.1)
        life = int(lives[i])
        first = int(rng.integers(1, n_frames - life + 2))
        steps = max(life - 1, 1)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        lane = int(rng.integers(0, LANES_PER_SIDE)) + (0 if sign > 0 else LANES_PER_SIDE)
        if kinds[i] == 2:  # never near a cardinal heading
            w = h = (length + width) / math.sqrt(2.0)
        elif kinds[i] == 1:
            w, h = width, length
        else:
            w, h = length, width
            if kinds[i] == 3 and rng.uniform() < 0.3:  # too square for the ratio path
                w = h = (length + width) / 2.0
        # Keep boxes clear of the border by more than the camera drift.
        mx, my = w / 2.0 + 60.0, h / 2.0 + 60.0
        speed = rng.uniform(6.0, 20.0)  # px/frame, about 20 to 60 km/h
        if kinds[i] == 0:
            speed = min(speed, (FRAME_W - 2 * mx) / steps)
            travel = speed * steps
            y0 = ROAD_H_Y0 + (lane + 0.5) * LANE_PX
            x0 = rng.uniform(mx, FRAME_W - mx - travel)
            if edge[i]:
                x0 = FRAME_W - travel - rng.uniform(55.0, 70.0)
            if sign < 0:
                x0 = FRAME_W - x0
            vx, vy = sign * speed, 0.0
        elif kinds[i] == 1:
            speed = min(speed, (FRAME_H - 2 * my) / steps)
            travel = speed * steps
            x0 = ROAD_V_X0 + (lane + 0.5) * LANE_PX
            y0 = rng.uniform(my, FRAME_H - my - travel)
            if edge[i]:
                y0 = FRAME_H - travel - rng.uniform(55.0, 70.0)
            if sign < 0:
                y0 = FRAME_H - y0
            vx, vy = 0.0, sign * speed
        elif kinds[i] == 2:
            d = min(speed / math.sqrt(2.0), (FRAME_H - 2 * my) / steps)
            x0 = rng.uniform(mx, FRAME_W - mx - d * steps)
            y0 = rng.uniform(my, FRAME_H - my - d * steps)
            if sign < 0:
                x0 = FRAME_W - x0
            vx, vy = sign * d, d
        else:  # parked beside the horizontal road
            x0 = rng.uniform(mx, FRAME_W - mx)
            y0 = ROAD_H_Y0 - 60.0 if sign > 0 else ROAD_H_Y0 + 2 * LANES_PER_SIDE * LANE_PX + 60.0
            vx = vy = 0.0
        out.append((cls, first, life, x0, y0, vx, vy, w, h))
    return out


def _pick(rng: np.random.Generator, n: int, share: float, lo: int = 0, hi: int | None = None):
    """round(share * n) distinct indices in [lo, hi)."""
    hi = n if hi is None else hi
    k = min(int(round(share * n)), max(hi - lo, 0))
    return lo + rng.choice(hi - lo, k, replace=False) if k else np.zeros(0, dtype=int)


def _track_rows(rng: np.random.Generator, spec: SessionSpec, homs):
    """Raw-frame detections: (frame, id, cx, cy, w, h, class, score) in pixels."""
    rows = []
    next_id = 1
    inv = {k: np.linalg.inv(h) for k, h in homs.items()}
    vehicles = _vehicles(rng, spec)
    whole = [v for v, veh in enumerate(vehicles) if veh[2] == spec.n_frames]
    gaps = set(rng.choice(whole, int(round(0.3 * len(whole))), replace=False).tolist())
    dups = set(rng.choice(whole, int(round(0.4 * len(whole))), replace=False).tolist())
    for v, (cls, first, life, x0, y0, vx, vy, w, h) in enumerate(vehicles):
        frames = np.arange(first, first + life)
        steps = frames - first
        ref = np.column_stack([x0 + vx * steps, y0 + vy * steps])
        raw = np.array([_apply(inv[int(k)], ref[i:i + 1])[0] for i, k in enumerate(frames)])
        raw += rng.normal(0.0, 1.5, raw.shape)
        sizes = np.column_stack([w + rng.normal(0.0, 2.0, life), h + rng.normal(0.0, 2.0, life)])
        sizes = np.maximum(sizes, 12.0)
        scores = rng.uniform(0.5, 0.99, life)
        classes = np.full(life, cls)
        noisy = _pick(rng, life, 0.08)
        classes[noisy] = (cls + rng.integers(1, N_CLASSES, len(noisy))) % N_CLASSES
        low = _pick(rng, life, 0.04)
        scores[low] = rng.uniform(0.05, 0.24, len(low))
        keep = np.ones(life, dtype=bool)
        keep[_pick(rng, life, 0.03, 1, life - 1)] = False  # missed detections
        if v in gaps:  # one 3-frame occlusion
            g = int(rng.integers(5, life - 8))
            keep[g:g + 3] = False
        # Guard only: the margins keep centers inside the frame despite the drift.
        inside = (raw[:, 0] > 1.0) & (raw[:, 0] < FRAME_W - 1.0) & \
                 (raw[:, 1] > 1.0) & (raw[:, 1] < FRAME_H - 1.0)
        keep &= inside
        tid = next_id
        next_id += 1
        host = []
        for i in np.flatnonzero(keep):
            row = (int(frames[i]), tid, float(raw[i, 0]), float(raw[i, 1]),
                   float(sizes[i, 0]), float(sizes[i, 1]), int(classes[i]), float(scores[i]))
            rows.append(row)
            host.append(row)
        # Duplicate detections of this vehicle under a second id, mostly
        # overlapping enough (IoU > 0.7) and scored lower, so NMS drops them.
        if v in dups:
            j = int(rng.integers(0, len(host) - 5))
            dup_id = next_id
            next_id += 1
            for frame, _, bx, by, bw, bh, bcls, bscore in host[j:j + 5]:
                jit = rng.normal(0.0, 0.03, 4).tolist()
                rows.append((frame, dup_id,
                             min(max(bx + jit[0] * bw, 1.0), FRAME_W - 1.0),
                             min(max(by + jit[1] * bh, 1.0), FRAME_H - 1.0),
                             bw * (1 + jit[2]), bh * (1 + jit[3]), bcls,
                             float(bscore * rng.uniform(0.6, 0.95))))
    return rows


def _fmt_h(m) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(m, dtype=float).reshape(-1))


def _write_registry(path: Path) -> None:
    path.write_text(
        f"intersection {INTERSECTION}\n"
        f"master_to_ortho {_fmt_h(MASTER_TO_ORTHO)}\n"
        f"geo_local {' '.join(repr(v) for v in GEO_LOCAL)}\n"
        f"geo_wgs {' '.join(repr(v) for v in GEO_WGS)}\n"
        f"\nvideo {VIDEO_ID} {INTERSECTION}\n"
        f"ref_to_master {_fmt_h(REF_TO_MASTER)}\n",
        encoding="utf-8",
    )


def _write_segmentation(path: Path) -> None:
    ref_to_ortho = np.asarray(MASTER_TO_ORTHO, float) @ np.asarray(REF_TO_MASTER, float)
    lanes = []
    for lane in range(2 * LANES_PER_SIDE):
        y0 = ROAD_H_Y0 + lane * LANE_PX
        corners = np.array([[0.0, y0], [LANE_COVER_X, y0],
                            [LANE_COVER_X, y0 + LANE_PX], [0.0, y0 + LANE_PX]])
        poly = _apply(ref_to_ortho, corners)
        section = "1_1" if lane < LANES_PER_SIDE else "1_2"
        number = lane % LANES_PER_SIDE + 1
        lanes.append({"section": section, "lane": number,
                      "polygon": [[round(float(x), 3), round(float(y), 3)] for x, y in poly]})
    path.write_text(json.dumps(lanes, indent=1), encoding="utf-8")


def _outside_boxes(rng: np.random.Generator, boxes: np.ndarray, n: int) -> np.ndarray:
    """n uniform frame points clear of every box grown by 20%, beyond the mask margin."""
    out = np.zeros((0, 2))
    while len(out) < n:
        cand = np.column_stack([rng.uniform(0, FRAME_W, n), rng.uniform(0, FRAME_H, n)])
        near = ((np.abs(cand[:, None, 0] - boxes[None, :, 0]) < 0.6 * boxes[None, :, 2])
                & (np.abs(cand[:, None, 1] - boxes[None, :, 1]) < 0.6 * boxes[None, :, 3]))
        out = np.concatenate([out, cand[~near.any(axis=1)]])
    return out[:n]


def _ratios(rng: np.random.Generator, n: int, pass_share: float) -> np.ndarray:
    """d1/d2 ratios of which exactly round(pass_share * n) pass a 0.9 ratio test."""
    k = int(round(pass_share * n))
    r = np.concatenate([rng.uniform(0.3, 0.88, k), rng.uniform(0.91, 1.0, n - k)])
    return rng.permutation(r)


def _write_correspondences(rng, spec: SessionSpec, homs, rows, corr_dir: Path) -> None:
    """Per-frame matches into the reference frame, in fixed counts per frame.

    Matches on vehicles (masked out), ground inliers and uniform outliers
    come in fixed numbers, and exact shares of each pass the SNN test, so
    every frame gives RANSAC the same amount of work whatever the seed.
    """
    corr_dir.mkdir(parents=True, exist_ok=True)
    boxes: dict[int, list] = {}
    for frame, _, cx, cy, w, h, _, _ in rows:
        boxes.setdefault(frame, []).append((cx, cy, w, h))
    n = spec.matches_per_frame
    n_box = int(round(spec.in_box_frac * n))
    n_out = int(round(spec.outlier_frac * n))
    for frame in sorted(boxes):
        if frame < 2:
            continue
        fb = np.array(boxes[frame])
        pick = fb[rng.integers(0, len(fb), n_box)]
        on_box = pick[:, :2] + rng.uniform(-0.45, 0.45, (n_box, 2)) * pick[:, 2:4]
        src = np.concatenate([on_box, _outside_boxes(rng, fb, n - n_box)])
        dst = _apply(homs[frame], src) + rng.normal(0.0, 0.5, (n, 2))
        # Matches on vehicles follow the vehicle, not the ground.
        dst[:n_box] += rng.uniform(20.0, 120.0, (n_box, 2)) * rng.choice([-1.0, 1.0], (n_box, 2))
        dst[n_box:n_box + n_out] = np.column_stack(
            [rng.uniform(0, FRAME_W, n_out), rng.uniform(0, FRAME_H, n_out)])
        ratio = np.concatenate([_ratios(rng, n_box, 1.0), _ratios(rng, n_out, 0.8),
                                _ratios(rng, n - n_box - n_out, 0.95)])
        d2 = rng.uniform(0.6, 1.0, n)
        order = rng.permutation(n)
        with open(corr_dir / f"{frame}.csv", "w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["src_x", "src_y", "dst_x", "dst_y", "d1", "d2"])
            for i in order:
                wr.writerow([repr(float(src[i, 0])), repr(float(src[i, 1])),
                             repr(float(dst[i, 0])), repr(float(dst[i, 1])),
                             repr(float(ratio[i] * d2[i])), repr(float(d2[i]))])


def make_session(out_dir: Path, seed: int, spec: SessionSpec) -> dict:
    """Write one session's inputs; returns the paths and the input row count."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    homs = _camera(rng, spec.n_frames)
    rows = _track_rows(rng, spec, homs)
    rows.sort(key=lambda r: (r[1], r[0]))
    paths = {
        "tracks": out_dir / "tracks.csv",
        "sidecar": out_dir / "video.yaml",
        "registry": out_dir / "registry.txt",
        "segmentation": out_dir / "lanes.json",
    }
    with open(paths["tracks"], "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["frame", "id", "cx", "cy", "w", "h", "class", "score"])
        for frame, tid, cx, cy, w, h, cls, score in rows:
            wr.writerow([frame, tid, repr(cx / FRAME_W), repr(cy / FRAME_H),
                         repr(w / FRAME_W), repr(h / FRAME_H), cls, repr(score)])
    paths["sidecar"].write_text(
        f"frame_width: {FRAME_W}\nframe_height: {FRAME_H}\nfps: {FPS}\n"
        f"n_frames: {spec.n_frames}\nn_classes: {N_CLASSES}\n", encoding="utf-8")
    _write_registry(paths["registry"])
    _write_segmentation(paths["segmentation"])
    if spec.matches_per_frame:
        paths["correspondences"] = out_dir / "corr"
        _write_correspondences(rng, spec, homs, rows, paths["correspondences"])
    else:
        paths["homographies"] = out_dir / "homographies.txt"
        with open(paths["homographies"], "w", encoding="utf-8") as fh:
            for k in sorted(homs):
                fh.write(f"{k} {_fmt_h(homs[k] / homs[k][2, 2])}\n")
    return {"paths": {k: str(v) for k, v in paths.items()}, "items": len(rows)}


def make_campaign(out_dir: Path, seed: int, spec: CampaignSpec) -> dict:
    """Write the campaign config; scenes and matches are synthesized by the program."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "campaign.yaml"
    scene_seed = int(np.random.default_rng([seed, 2]).integers(0, 2**31))
    path.write_text(
        f"seed: {seed}\n"
        "bench:\n"
        f"  scenes: {spec.scenes}\n"
        f"  scene_seed: {scene_seed}\n"
        f"  trials_per_scene: {spec.trials_per_scene}\n"
        "  noise_sigma: 0.5\n"
        "  outlier_fraction: 0.3\n"
        "  hea_epsilon: 3.0\n"
        "  snn_ratios: [null, 0.9]\n"
        "  downscales: [0.5, 1.0]\n"
        "  reproj_thresholds: [2.0]\n"
        "  point_counts: [100]\n",
        encoding="utf-8",
    )
    trials_per_cell = spec.scenes * spec.trials_per_scene
    return {"paths": {"config": str(path)}, "items": 4 * trials_per_cell,  # 2 x 2 grid cells
            "trials_per_cell": trials_per_cell}
