"""Stabilized, georeferenced vehicle trajectories from drone tracks.

Core flow: per-frame detections/tracks are filtered and class-refined,
aligned to each video's first frame through robustly estimated
homographies, carried into orthophoto and world coordinates, and
enriched with vehicle dimensions, speeds, and accelerations before
export. A synthetic benchmark harness scores the registration stage.
"""

from .errors import SkytrajError
from .geometry import GeoTransform, Homography, Point2

__version__ = "0.1.0"

__all__ = [
    "GeoTransform",
    "Homography",
    "Point2",
    "SkytrajError",
    "__version__",
]
