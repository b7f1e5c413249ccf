"""Speed and acceleration profiles from local-coordinate trajectories.

Gaps are filled by linear interpolation, raw speed is the distance
between consecutive points times the frame rate, the speed sequence is
smoothed by a truncated Gaussian kernel with mirror-reflected ends, and
acceleration is the backward difference of smoothed speeds. Exported
values are gated by the per-frame visibility set; internal computation
always runs over the full dense track so that box growth at the frame
borders cannot leak into interior values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import TooShort
from .geometry import Point2
from .trackmodel import DEFAULT_FPS


# Largest smoothing-kernel radius round(3 * sigma), in frames: about 56
# minutes at 29.97 fps, far beyond any session.
MAX_KERNEL_RADIUS = 100_000


@dataclass(frozen=True)
class KinematicsConfig:
    sigma: float = 14.0  # frames
    fps: Fraction = DEFAULT_FPS
    speed_floor_kmh: float = 1.0  # comparison filtering only

    def __post_init__(self):
        # the smoothing kernel spans round(3 * sigma) frames each side
        if not (
            self.sigma > 0
            and math.isfinite(3.0 * self.sigma)
            and round(3.0 * self.sigma) <= MAX_KERNEL_RADIUS
        ):
            raise ValueError(
                f"sigma must be positive, with round(3 * sigma) <= {MAX_KERNEL_RADIUS} frames"
            )
        if self.fps <= 0:
            raise ValueError("fps must be positive")


@dataclass(frozen=True)
class KinematicProfile:
    """Per-frame kinematics over the dense frame range of one vehicle.

    Arrays align with ``frames``; NaN marks undefined entries (speed needs
    one predecessor, acceleration two). ``exported`` marks frames whose
    values survive visibility gating.
    """

    frames: np.ndarray
    speed_raw: np.ndarray  # m/s
    speed_smooth: np.ndarray  # m/s
    accel: np.ndarray  # m/s^2
    exported: np.ndarray  # bool

    def _cell(self, values: np.ndarray, frame: int) -> float | None:
        """The frame's value; None if the frame is absent, not exported or NaN.
        ``frames`` run one by one, so a frame's index is its offset from
        the first."""
        n = len(self.frames)
        i = frame - int(self.frames[0]) if n else -1
        if not 0 <= i < n or self.frames[i] != frame:
            return None
        if not self.exported[i] or math.isnan(values[i]):
            return None
        return float(values[i])

    def speed_ms(self, frame: int) -> float | None:
        return self._cell(self.speed_smooth, frame)

    def speed_kmh(self, frame: int) -> float | None:
        speed = self.speed_ms(frame)
        return None if speed is None else speed * 3.6

    def accel_ms2(self, frame: int) -> float | None:
        return self._cell(self.accel, frame)


def interpolate_gaps(points: Mapping[int, Point2]) -> dict[int, Point2]:
    """Fill interior frame gaps linearly; never extrapolates."""
    if len(points) < 2:
        raise TooShort(f"need >= 2 trajectory points, got {len(points)}")
    frames = sorted(points)
    dense: dict[int, Point2] = {}
    for a, b in zip(frames, frames[1:]):
        pa, pb = points[a], points[b]
        dense[a] = pa
        span = b - a
        for k in range(a + 1, b):
            t = (k - a) / span
            dense[k] = Point2(pa.x + t * (pb.x - pa.x), pa.y + t * (pb.y - pa.y))
    dense[frames[-1]] = points[frames[-1]]
    return dense


def raw_speed(dense: Mapping[int, Point2], fps: Fraction) -> dict[int, float]:
    """Speed in m/s at every frame after the first of a dense trajectory."""
    frames = sorted(dense)
    rate = float(fps)
    out: dict[int, float] = {}
    for a, b in zip(frames, frames[1:]):
        pa, pb = dense[a], dense[b]
        out[b] = math.hypot(pb.x - pa.x, pb.y - pa.y) * rate
    return out


def _reflect_index(j: int, n: int) -> int:
    # Mirror about the end samples (no edge duplication), repeated as
    # often as needed for kernels wider than the sequence.
    if n == 1:
        return 0
    period = 2 * (n - 1)
    j = abs(j) % period
    return period - j if j >= n else j


def gaussian_smooth(values, sigma: float) -> np.ndarray:
    """Convolve with a unit-sum Gaussian kernel truncated at round(3*sigma).

    Out-of-range indices reflect about the sequence ends. The kernel is
    renormalized so constant inputs pass through exactly.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n == 0:
        return v.copy()
    half = int(round(3.0 * sigma))
    if half == 0:
        return v.copy()
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    padded = v[[_reflect_index(j, n) for j in range(-half, n + half)]]
    return np.convolve(padded, kernel, mode="valid")


def acceleration(smooth_speeds, fps: Fraction) -> np.ndarray:
    """Backward differences of consecutive smoothed speeds, times fps."""
    v = np.asarray(smooth_speeds, dtype=float)
    if len(v) < 2:
        raise TooShort("need >= 2 speed values for acceleration")
    return np.diff(v) * float(fps)


def compute_profile(
    local_points: Mapping[int, Point2], cfg: KinematicsConfig
) -> KinematicProfile:
    """Interpolate, differentiate, and smooth one vehicle's local trajectory."""
    dense = interpolate_gaps(local_points)
    frames = np.array(sorted(dense), dtype=int)
    n = len(frames)
    speeds = raw_speed(dense, cfg.fps)
    seq = np.array([speeds[f] for f in frames[1:]])
    smooth_seq = gaussian_smooth(seq, cfg.sigma)

    speed_raw = np.full(n, np.nan)
    speed_smooth = np.full(n, np.nan)
    accel = np.full(n, np.nan)
    speed_raw[1:] = seq
    speed_smooth[1:] = smooth_seq
    if n >= 3:
        accel[2:] = acceleration(smooth_seq, cfg.fps)
    return KinematicProfile(
        frames=frames,
        speed_raw=speed_raw,
        speed_smooth=speed_smooth,
        accel=accel,
        exported=np.ones(n, dtype=bool),
    )


def gate_by_visibility(
    profile: KinematicProfile, visible: set[int]
) -> KinematicProfile:
    """Restrict exported values to frames in the visibility set."""
    exported = np.array([f in visible for f in profile.frames], dtype=bool)
    return replace(profile, exported=exported)
