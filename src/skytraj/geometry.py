"""Planar projective and affine geometry primitives.

Points, 3x3 homographies, 2x3 affine geotransforms, axis-aligned boxes,
corner quads, and exact convex-polygon IoU via Sutherland-Hodgman
clipping. Everything here is a pure function on immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateProjection,
    InvalidGeometry,
    NonConvexInput,
    SingularResult,
    SingularTransform,
)

# Homogeneous scale below this magnitude counts as projective infinity.
Z_TOL = 1e-12
# |det| must exceed this fraction of the Frobenius norm cubed.
DET_FLOOR = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, eq=False)
class Homography:
    """Invertible 3x3 projective map between pixel planes.

    The matrix is stored scaled so that m[2,2] == 1 whenever that entry
    is usably nonzero; otherwise it is kept as-is.
    """

    m: np.ndarray

    @staticmethod
    def from_matrix(m) -> "Homography":
        a = np.array(m, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(a)):
            raise InvalidGeometry("homography entries must be finite")
        det = np.linalg.det(a)
        fro = float(np.linalg.norm(a))
        if abs(det) < DET_FLOOR * fro**3:
            raise SingularTransform(
                f"matrix below invertibility floor (|det|={abs(det):.3e})"
            )
        if abs(a[2, 2]) > Z_TOL:
            a = a / a[2, 2]
        a.setflags(write=False)
        return Homography(a)

    @staticmethod
    def identity() -> "Homography":
        return Homography.from_matrix(np.eye(3))

    @cached_property
    def rows(self) -> tuple[tuple[float, float, float], ...]:
        """The matrix as rows of Python floats, for per-point arithmetic
        (the same IEEE operations as on the numpy entries, without the
        scalar indexing)."""
        return tuple(tuple(row) for row in self.m.tolist())


@dataclass(frozen=True)
class GeoTransform:
    """2x3 affine map from image pixels to world coordinates.

    x' = a*x + b*y + tx, y' = c*x + d*y + ty. The 2x2 linear part must
    be nonsingular.
    """

    a: float
    b: float
    c: float
    d: float
    tx: float
    ty: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.tx, self.ty)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidGeometry("geotransform coefficients must be finite")
        det = self.a * self.d - self.b * self.c
        scale = self.a**2 + self.b**2 + self.c**2 + self.d**2
        if abs(det) <= 1e-15 * max(1.0, scale):
            raise SingularTransform("geotransform linear part is singular")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box encoded as center + size; units depend on context."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (type(self.cx) is type(self.cy) is type(self.w) is type(self.h) is float):
            for name in ("cx", "cy", "w", "h"):
                object.__setattr__(self, name, float(getattr(self, name)))
        if self.w < 0 or self.h < 0:
            raise InvalidGeometry(f"box size must be >= 0, got {self.w}x{self.h}")

    @property
    def xmin(self) -> float:
        return self.cx - self.w / 2

    @property
    def xmax(self) -> float:
        return self.cx + self.w / 2

    @property
    def ymin(self) -> float:
        return self.cy - self.h / 2

    @property
    def ymax(self) -> float:
        return self.cy + self.h / 2

    def corners(self) -> "Quad":
        return Quad(
            Point2(self.xmin, self.ymin),
            Point2(self.xmax, self.ymin),
            Point2(self.xmax, self.ymax),
            Point2(self.xmin, self.ymax),
        )


@dataclass(frozen=True)
class Quad:
    """Four-corner polygon, vertices in order (either winding)."""

    p1: Point2
    p2: Point2
    p3: Point2
    p4: Point2

    def points(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (self.p1, self.p2, self.p3, self.p4)


def _project(h: Homography, x: float, y: float) -> tuple[float, float]:
    (a, b, c), (d, e, f), (g, k, m) = h.rows
    z = g * x + k * y + m
    if abs(z) < Z_TOL:
        raise DegenerateProjection(f"point {Point2(x, y)} maps to projective infinity")
    return float((a * x + b * y + c) / z), float((d * x + e * y + f) / z)


def apply_homography(h: Homography, p: Point2) -> Point2:
    """Map a point through ``h`` in homogeneous coordinates."""
    return Point2(*_project(h, *p))


def project_array(
    m: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map (..., N, 2) points through (..., 3, 3) matrices, stacks broadcast.

    Returns the mapped x and y and the homogeneous scale z, each of shape
    (..., N). Where z is 0 the mapped coordinates are inf or nan; no
    check is made and no warning is raised.
    """
    x, y = pts[..., 0], pts[..., 1]
    m = m[..., None]
    z = m[..., 2, 0, :] * x + m[..., 2, 1, :] * y + m[..., 2, 2, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        px = (m[..., 0, 0, :] * x + m[..., 0, 1, :] * y + m[..., 0, 2, :]) / z
        py = (m[..., 1, 0, :] * x + m[..., 1, 1, :] * y + m[..., 1, 2, :]) / z
    return px, py, z


def apply_homography_array(h: Homography, pts: np.ndarray) -> np.ndarray:
    """Vectorized `apply_homography` for an (N, 2) array."""
    px, py, z = project_array(h.m, np.asarray(pts, dtype=float))
    if np.any(np.abs(z) < Z_TOL):
        raise DegenerateProjection("some points map to projective infinity")
    return np.stack([px, py], axis=-1)


def compose(h2: Homography, h1: Homography) -> Homography:
    """Return the map equivalent to applying ``h1`` first, then ``h2``."""
    try:
        return Homography.from_matrix(h2.m @ h1.m)
    except SingularTransform as exc:
        raise SingularResult(str(exc)) from exc


# Entries (0,0), (0,1), (1,0), (1,1), (2,0), (2,1), (2,2) of a pure translation.
_SHIFT_ENTRIES = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def transform_boxes(homs: Sequence[Homography], which, boxes: np.ndarray) -> np.ndarray:
    """Map row i ``cx, cy, w, h`` of the (n, 4) float array ``boxes`` through
    ``homs[which[i]]`` and refit the minimal axis-aligned box; (n, 4) out.

    A pure translation shifts the center and keeps the size exactly (the
    corner path would lose low bits to cancellation). Other boxes map
    their four corners, in `BBox.corners` order, with `project_array`,
    which does `apply_homography`'s operations in the same order, so each
    box equals mapping its corners one at a time. A box with a corner at
    projective infinity, or with a mapped corner coordinate that is zero
    or not finite, is refit corner by corner with Python's ``min`` and
    ``max`` (which, unlike numpy's, pick a signed zero or a NaN by its
    position); the first corner at infinity raises DegenerateProjection.
    """
    if len(boxes) == 0:
        return np.zeros((0, 4))
    which = np.asarray(which, dtype=np.intp)
    shift = np.array(
        [hom.rows[0][:2] + hom.rows[1][:2] + hom.rows[2] == _SHIFT_ENTRIES for hom in homs]
    )[which]
    m = np.stack([h.m for h in homs])[which]
    cx, cy, w, h = boxes.T
    with np.errstate(all="ignore"):  # Python floats do not warn either
        xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
        corners = np.stack(
            [np.stack([xmin, xmax, xmax, xmin], 1), np.stack([ymin, ymin, ymax, ymax], 1)], 2
        )
        px, py, z = project_array(m, corners)
        x0, x1, y0, y1 = px.min(1), px.max(1), py.min(1), py.max(1)
        out = np.stack([(x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0], 1)
        out[shift] = np.stack([cx + m[:, 0, 2], cy + m[:, 1, 2], w, h], 1)[shift]
        odd = (np.abs(z) < Z_TOL) | ~np.isfinite(px) | ~np.isfinite(py) | (px == 0) | (py == 0)
    for i in np.flatnonzero(~shift & odd.any(1)).tolist():
        xs, ys = zip(*(_project(homs[which[i]], x, y) for x, y in corners[i].tolist()))
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        out[i] = ((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)
    return out


def pixel_to_world(t: GeoTransform, p: Point2) -> Point2:
    """Map a point through ``t``; a Point2 of coordinate arrays maps
    elementwise, with the same operations in the same order."""
    return Point2(t.a * p.x + t.b * p.y + t.tx, t.c * p.x + t.d * p.y + t.ty)


def _shoelace(pts: Sequence[tuple[float, float]]) -> float:
    """Absolute polygon area."""
    if len(pts) < 3:
        return 0.0
    return abs(_signed_area(pts))


def _signed_area(pts: Sequence[tuple[float, float]]) -> float:
    acc = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


def _require_convex(pts: Sequence[tuple[float, float]]) -> None:
    # Edge-pair cross products must not carry strictly opposite signs;
    # tolerance scales with the squared extent of the polygon.
    n = len(pts)
    span = max(
        max(p[0] for p in pts) - min(p[0] for p in pts),
        max(p[1] for p in pts) - min(p[1] for p in pts),
        1e-30,
    )
    tol = 1e-9 * span * span
    pos = neg = False
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross > tol:
            pos = True
        elif cross < -tol:
            neg = True
    if pos and neg:
        raise NonConvexInput("quadrilateral is not convex")


def _clip_convex(subject, clip):
    """Sutherland-Hodgman: clip ``subject`` against convex CCW ``clip``."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay

        def inside(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax) >= 0.0

        input_list = output
        output = []
        s = input_list[-1]
        s_in = inside(s)
        for e in input_list:
            e_in = inside(e)
            if e_in != s_in:
                # intersection of segment s-e with the clip edge line
                dx, dy = e[0] - s[0], e[1] - s[1]
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    fs = ex * (s[1] - ay) - ey * (s[0] - ax)
                    t = -fs / denom
                    output.append((s[0] + t * dx, s[1] + t * dy))
            if e_in:
                output.append(e)
            s, s_in = e, e_in
    return output


def quad_iou(q1: Quad, q2: Quad) -> float:
    """Exact intersection-over-union of two convex quadrilaterals."""
    a = [(p.x, p.y) for p in q1.points()]
    b = [(p.x, p.y) for p in q2.points()]
    _require_convex(a)
    _require_convex(b)
    if _signed_area(b) < 0:
        b = b[::-1]
    area1 = _shoelace(a)
    area2 = _shoelace(b)
    inter = _shoelace(_clip_convex(a, b))
    union = area1 + area2 - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)
