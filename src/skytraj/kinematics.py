"""Speed and acceleration profiles from local-coordinate trajectories.

Gaps are filled by linear interpolation, raw speed is the distance
between consecutive points times the frame rate, the speed sequence is
smoothed by a truncated Gaussian kernel with mirror-reflected ends, and
acceleration is the backward difference of smoothed speeds. The
profile always covers the full dense track; callers export it on the
rows whose box is fully visible only, so that box growth at the frame
borders cannot leak into interior values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import SkytrajError, TooShort
from .trackmodel import DEFAULT_FPS


# Largest smoothing-kernel radius round(3 * sigma), in frames: about 56
# minutes at 29.97 fps, far beyond any session.
MAX_KERNEL_RADIUS = 100_000
# Most frames one trajectory may span from first to last: about 9.3 hours
# at 29.97 fps. Gap filling allocates every frame in between.
MAX_DENSE_FRAMES = 1_000_000


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
        if math.isnan(self.speed_floor_kmh):  # every comparison with NaN is false
            raise ValueError("speed_floor_kmh must not be NaN")


@dataclass(frozen=True)
class KinematicProfile:
    """Per-frame kinematics over the dense frame range of one vehicle.

    Arrays align with ``frames``; NaN marks undefined entries (speed needs
    one predecessor, acceleration two).
    """

    frames: np.ndarray
    speed_smooth: np.ndarray  # m/s
    accel: np.ndarray  # m/s^2

    def at(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The smoothed speed in m/s and in km/h and the acceleration at
        ``frames``, some of this profile's frames."""
        offsets = frames - self.frames[0]
        speed = self.speed_smooth[offsets]
        with np.errstate(over="ignore"):  # as on Python floats
            return speed, speed * 3.6, self.accel[offsets]


def interpolate_gaps(
    frames: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill interior frame gaps linearly; never extrapolates.

    ``frames`` are ascending frame numbers and ``x``, ``y`` the positions
    there. Returns every frame from the first to the last with its
    position: observed ones as given, a frame ``k`` between observed ``a``
    and ``b`` at ``pa + t * (pb - pa)`` with ``t = (k - a) / (b - a)``. A
    track spanning more than ``MAX_DENSE_FRAMES`` frames is refused before
    anything is allocated.
    """
    n = len(frames)
    if n < 2:
        raise TooShort(f"need >= 2 trajectory points, got {n}")
    first, last = int(frames[0]), int(frames[-1])
    if last - first >= MAX_DENSE_FRAMES:
        raise SkytrajError(
            f"trajectory spans frames {first} to {last}, more than {MAX_DENSE_FRAMES} frames"
        )
    dense = np.arange(first, last + 1)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(dense) == n:
        return dense, x, y
    offsets = np.asarray(frames, dtype=np.int64) - first
    spans = offsets[1:] - offsets[:-1]
    # the observed segment [a, b) of every frame but the last
    seg = np.repeat(np.arange(n - 1), spans)
    t = (np.arange(len(seg)) - offsets[seg]) / spans[seg]
    dense_x = np.empty(len(dense))
    dense_y = np.empty(len(dense))
    dense_x[:-1] = x[seg] + t * (x[1:] - x[:-1])[seg]
    dense_y[:-1] = y[seg] + t * (y[1:] - y[:-1])[seg]
    dense_x[offsets] = x
    dense_y[offsets] = y
    return dense, dense_x, dense_y


def raw_speed(x: np.ndarray, y: np.ndarray, fps: Fraction) -> np.ndarray:
    """Speed in m/s at every frame after the first of a dense trajectory:
    `math.hypot` of each step, times the frame rate."""
    steps = map(math.hypot, (x[1:] - x[:-1]).tolist(), (y[1:] - y[:-1]).tolist())
    return np.fromiter(steps, dtype=float, count=max(len(x) - 1, 0)) * float(fps)


@lru_cache(maxsize=8)
def gaussian_kernel(sigma: float) -> np.ndarray:
    """Unit-sum Gaussian kernel over offsets -round(3*sigma)..round(3*sigma),
    computed once per sigma and read-only."""
    half = int(round(3.0 * sigma))
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    kernel.flags.writeable = False
    return kernel


def reflect_indices(n: int, half: int) -> np.ndarray:
    """Indices of positions -half..n+half-1 mirrored about the end samples
    (no edge duplication), repeated as often as needed for kernels wider
    than the sequence."""
    j = np.arange(-half, n + half)
    if n == 1:
        return np.zeros_like(j)
    period = 2 * (n - 1)
    j = np.abs(j) % period
    return np.where(j >= n, period - j, j)


def gaussian_smooth(values, sigma: float) -> np.ndarray:
    """Convolve with a unit-sum Gaussian kernel truncated at round(3*sigma).

    Out-of-range indices reflect about the sequence ends. The kernel is
    divided by its sum, so a constant input comes back within a few ulps,
    not always exactly: the rounding depends on numpy's BLAS kernel.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    half = int(round(3.0 * sigma))
    if n == 0 or half == 0:
        return v.copy()
    return np.convolve(v[reflect_indices(n, half)], gaussian_kernel(sigma), mode="valid")


def acceleration(smooth_speeds, fps: Fraction) -> np.ndarray:
    """Backward differences of consecutive smoothed speeds, times fps."""
    v = np.asarray(smooth_speeds, dtype=float)
    if len(v) < 2:
        raise TooShort("need >= 2 speed values for acceleration")
    return (v[1:] - v[:-1]) * float(fps)


def compute_profile(
    frames: np.ndarray, x: np.ndarray, y: np.ndarray, cfg: KinematicsConfig
) -> KinematicProfile:
    """Interpolate, differentiate, and smooth one vehicle's local trajectory:
    positions ``x``, ``y`` (m) at the ascending observed ``frames``."""
    with np.errstate(over="ignore", invalid="ignore"):  # as on Python floats
        dense, dense_x, dense_y = interpolate_gaps(frames, x, y)
        seq = raw_speed(dense_x, dense_y, cfg.fps)
        smooth_seq = gaussian_smooth(seq, cfg.sigma)
        accel_seq = acceleration(smooth_seq, cfg.fps) if len(seq) >= 2 else seq[:0]
    speed_smooth, accel = np.full((2, len(dense)), np.nan)
    speed_smooth[1:] = smooth_seq
    accel[2:] = accel_seq
    return KinematicProfile(dense, speed_smooth, accel)
