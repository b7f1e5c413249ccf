"""Planar projective and affine geometry primitives.

Points, 3x3 homographies, 2x3 affine geotransforms, one projection
kernel for arrays of points, box mapping on ``cx, cy, w, h`` rows, and
exact convex-polygon IoU via Sutherland-Hodgman clipping. Everything
here is a pure function on immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
# |det| must reach this fraction of the Frobenius norm cubed.
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
        """The map of the 3x3 matrix ``m``, stored as `screen_homographies`
        stores it.

        Refuses a non-finite entry (InvalidGeometry) and a matrix below
        the invertibility floor (SingularTransform).
        """
        finite, invertible, stored, det = screen_homographies(
            np.array(m, dtype=float).reshape(1, 3, 3)
        )
        if not finite[0]:
            raise InvalidGeometry("homography entries must be finite")
        if not invertible[0]:
            raise SingularTransform(f"matrix below invertibility floor (|det|={det[0]:.3e})")
        a = stored[0]
        a.setflags(write=False)
        return Homography(a)

    @staticmethod
    def identity() -> "Homography":
        return Homography.from_matrix(np.eye(3))


def screen_homographies(
    m: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The invertibility rule and the stored form of each matrix of a
    (K, 3, 3) stack.

    Returns per matrix: whether every entry is finite; whether it is
    invertible, that is finite, not zero, and with |det| at least
    ``DET_FLOOR`` times its Frobenius norm cubed; the matrix divided by
    m[2,2] where that entry exceeds ``Z_TOL`` times the largest entry's
    magnitude, and as-is otherwise; and the |det| the floor was tested
    on. Both tests are relative, so scaling a matrix by a power of two
    changes neither verdict and leaves the stored matrix the same
    whenever it is divided by m[2,2]. The verdicts, the stored bits and
    |det| of a matrix do not depend on the stack it is in.
    """
    with np.errstate(all="ignore"):
        peak = np.abs(m).max(axis=(1, 2))  # NaN or inf where an entry is
        finite = np.isfinite(peak)
        # |det| / fro**3 does not change with scale, so both are taken on
        # the matrix scaled to a largest entry of 1, where neither can
        # overflow. The norm is summed elementwise per matrix, not by a
        # BLAS dot, so that its bits do not depend on the stack.
        unit = m / np.where(peak > 0.0, peak, 1.0)[:, None, None]
        det = np.abs(np.linalg.det(unit))
        fro = np.sqrt((unit * unit).sum(axis=(1, 2)))
        invertible = finite & (peak > 0.0) & (det >= DET_FLOOR * fro ** 3)
        z = m[:, 2:, 2:]
        # dividing by 1.0 keeps every bit
        stored = m / np.where(np.abs(z) > Z_TOL * peak[:, None, None], z, 1.0)
    return finite, invertible, stored, det


@dataclass(frozen=True)
class GeoTransform:
    """2x3 affine map from image pixels to world coordinates.

    x' = a*x + b*y + tx, y' = c*x + d*y + ty. The 2x2 linear part must
    be nonsingular: |ad - bc| above 1e-15 * (a^2 + b^2 + c^2 + d^2), a
    floor relative to the entries, so scaling the linear part does not
    change whether a map passes.
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
        # |ad - bc| <= 1e-15 * (a**2 + b**2 + c**2 + d**2), which does not
        # change with scale, on the entries divided by the largest one so
        # that nothing overflows or underflows
        peak = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)) or 1.0
        a, b, c, d = (v / peak for v in vals[:4])
        if abs(a * d - b * c) <= 1e-15 * (a * a + b * b + c * c + d * d):
            raise SingularTransform("geotransform linear part is singular")


def project_array(
    m: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map (..., N, 2) points through (..., 3, 3) matrices, stacks broadcast.

    Returns the mapped x and y and the homogeneous scale z, each of shape
    (..., N): ``(a*x + b*y + c) / z`` with ``z = g*x + k*y + m``, the IEEE
    operations of the per-point map in its order. Where z is 0 the mapped
    coordinates are inf or nan; no check is made and no warning is raised.
    """
    x, y = pts[..., 0], pts[..., 1]
    m = m[..., None]
    with np.errstate(all="ignore"):  # Python floats do not warn either
        z = m[..., 2, 0, :] * x + m[..., 2, 1, :] * y + m[..., 2, 2, :]
        px = (m[..., 0, 0, :] * x + m[..., 0, 1, :] * y + m[..., 0, 2, :]) / z
        py = (m[..., 1, 0, :] * x + m[..., 1, 1, :] * y + m[..., 1, 2, :]) / z
    return px, py, z


def reject_infinity(pts: np.ndarray, z: np.ndarray) -> None:
    """Raise DegenerateProjection naming the first of the (N, 2) ``pts``
    whose homogeneous scale in the (N,) ``z`` is below ``Z_TOL``."""
    at_infinity = np.abs(z) < Z_TOL
    if at_infinity.any():
        raise infinity_error(*pts[int(at_infinity.argmax())].tolist())


def infinity_error(x: float, y: float) -> DegenerateProjection:
    """The error for the point ``(x, y)`` mapping to projective infinity."""
    return DegenerateProjection(f"point {Point2(x, y)} maps to projective infinity")


def apply_homography_array(h: Homography, pts) -> np.ndarray:
    """Map (N, 2) points through ``h``; (N, 2) out. Raises
    DegenerateProjection for the first point at projective infinity."""
    pts = np.asarray(pts, dtype=float)
    px, py, z = project_array(h.m, pts)
    reject_infinity(pts, z)
    return np.stack([px, py], axis=-1)


def compose(h2: Homography, h1: Homography) -> Homography:
    """Return the map equivalent to applying ``h1`` first, then ``h2``."""
    try:
        return Homography.from_matrix(h2.m @ h1.m)
    except SingularTransform as exc:
        raise SingularResult(str(exc)) from exc


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """The (n, 4, 2) corners of (n, 4) ``cx, cy, w, h`` rows, in the order
    (xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax), with the edges
    at ``cx -+ w / 2`` and ``cy -+ h / 2``."""
    cx, cy, w, h = boxes.T
    with np.errstate(all="ignore"):  # Python floats do not warn either
        xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
    return np.stack(
        [np.stack([xmin, xmax, xmax, xmin], 1), np.stack([ymin, ymin, ymax, ymax], 1)], 2
    )


def transform_boxes(homs: Sequence[Homography], which, boxes: np.ndarray) -> np.ndarray:
    """Map row i ``cx, cy, w, h`` of the (n, 4) float array ``boxes`` through
    ``homs[which[i]]`` and refit the minimal axis-aligned box; (n, 4) out.

    A pure translation shifts the center and keeps the size exactly (the
    corner path would lose low bits to cancellation). Other boxes map
    their four `box_corners` with `project_array`, so each box equals
    mapping its corners one at a time. A box with a corner at projective
    infinity, or with a mapped corner coordinate that is zero or not
    finite, is refit with Python's ``min`` and ``max`` on its mapped
    corners (which, unlike numpy's, pick a signed zero or a NaN by its
    position); its first corner at infinity raises DegenerateProjection.
    """
    if len(boxes) == 0:
        return np.zeros((0, 4))
    which = np.asarray(which, dtype=np.intp)
    ms = np.stack([h.m for h in homs])
    linear = ms.copy()
    linear[:, :2, 2] = 0.0  # a pure translation is the identity but for these
    shift = (linear == np.eye(3)).all((1, 2))[which]
    m = ms[which]
    cx, cy, w, h = boxes.T
    corners = box_corners(boxes)
    px, py, z = project_array(m, corners)
    with np.errstate(all="ignore"):  # Python floats do not warn either
        x0, x1, y0, y1 = px.min(1), px.max(1), py.min(1), py.max(1)
        out = np.stack([(x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0], 1)
        out[shift] = np.stack([cx + m[:, 0, 2], cy + m[:, 1, 2], w, h], 1)[shift]
        odd = (np.abs(z) < Z_TOL) | ~np.isfinite(px) | ~np.isfinite(py) | (px == 0) | (py == 0)
    for i in np.flatnonzero(~shift & odd.any(1)).tolist():
        reject_infinity(corners[i], z[i])
        xs, ys = px[i].tolist(), py[i].tolist()
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
    for (x0, y0), (x1, y1) in zip(pts, [*pts[1:], *pts[:1]]):
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


def _require_convex(pts: Sequence[tuple[float, float]]) -> None:
    # Edge-pair cross products must not carry strictly opposite signs;
    # tolerance scales with the squared extent of the polygon. Each vertex
    # c is tested with the two before it, a and b.
    xs, ys = zip(*pts)
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-30)
    tol = 1e-9 * span * span
    pos = neg = False
    a, b = pts[-2], pts[-1]
    for c in pts:
        ax, ay = a
        cross = (b[0] - ax) * (c[1] - ay) - (b[1] - ay) * (c[0] - ax)
        if cross > tol:
            pos = True
        elif cross < -tol:
            neg = True
        a, b = b, c
    if pos and neg:
        raise NonConvexInput("quadrilateral is not convex")


def _clip_convex(subject, clip):
    """Sutherland-Hodgman: clip ``subject`` against convex CCW ``clip``.

    A vertex is inside a clip edge where its side value ``f`` is >= 0;
    each vertex's ``f`` is computed once and kept for the next vertex.
    """
    output = list(subject)
    for (ax, ay), (bx, by) in zip(clip, [*clip[1:], *clip[:1]]):
        if not output:
            return []
        ex, ey = bx - ax, by - ay
        input_list, output = output, []
        s = input_list[-1]
        fs = ex * (s[1] - ay) - ey * (s[0] - ax)
        for e in input_list:
            fe = ex * (e[1] - ay) - ey * (e[0] - ax)
            e_in = fe >= 0.0
            if e_in != (fs >= 0.0):
                # intersection of segment s-e with the clip edge line
                (sx, sy), (x, y) = s, e
                dx, dy = x - sx, y - sy
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = -fs / denom
                    output.append((sx + t * dx, sy + t * dy))
            if e_in:
                output.append(e)
            s, fs = e, fe
    return output


def quad_iou(a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]) -> float:
    """Exact intersection-over-union of two convex quadrilaterals, each
    given as four ``(x, y)`` vertices in order (either winding)."""
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
