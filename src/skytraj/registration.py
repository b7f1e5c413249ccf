"""Robust homography estimation from point correspondences.

Pipeline order mirrors the stabilization stage: exclusion-mask filtering,
ratio-test (SNN) filtering, then RANSAC around a Hartley-normalized DLT.
A registration problem is set up here for the pipeline and the benchmark
alike: `derive_seeds` gives its RANSAC seed from the master seed and the
problem's keys, and `ransac_homography` makes the downscale round trip
(scale the matches, estimate, lift the estimate back with
`upscale_homography`, divide the mean error by the factor).

Absolute and relative thresholds of the estimator, what each guards, and
the coordinates it sees:

* ``geometry.Z_TOL`` (1e-12), in the fit scaling of
  `geometry.screen_homographies`: a fit is divided by its m[2,2] only
  when |m[2,2]| exceeds ``Z_TOL`` times its largest entry. A unitless
  ratio on the raw pixel-space matrix, so scale-free; it guards against
  dividing by an m[2,2] that is zero or rounding noise.
* 1e-12 on ``zf`` and ``zb`` in the symmetric error: a pair whose
  forward or backward homogeneous scale has magnitude at most 1e-12 gets
  error +inf. Absolute, in the units of the third homogeneous coordinate
  of pixel points mapped by the stored matrix (m[2,2] == 1 where it can
  be), with no normalization; it guards residuals of points that map to
  projective infinity.
* ``geometry.DET_FLOOR`` (1e-12), the invertibility rule of
  `geometry.screen_homographies`: a fit with |det| below ``DET_FLOOR``
  times its Frobenius norm cubed is singular and skipped.
  Taken on the raw matrix scaled to a largest entry of 1, so multiplying
  a fit by a constant does not change it; rescaling the coordinates
  does, since the translation entries grow with them (a pure
  translation beyond about 1e4 px falls below it). It guards against
  inverting a rank-deficient map.
* ``SAMPLE_AREA_FLOOR`` (1e-9): a minimal sample whose smallest triangle
  cross product is below this fraction of its bounding-box area is
  quasi-collinear and skipped. Relative, on raw pixel coordinates, so
  scale-free; it guards the closed-form minimal solve (`_basis_maps`),
  whose divisors are three of these triangle areas, taken on the
  normalized points.
* The 1e-9 ratio and the 1e-30 floor of the collinearity check: a
  consensus set is collinear when the smaller singular value of its
  centered points is at most 1e-9 times the larger one, or at most 1e-39
  when the larger is below 1e-30. Singular values are root sums of
  squares of centered, unscaled pixel coordinates. The ratio is
  scale-free; the floor is absolute, in pixels, and matters only for
  sets spread over less than 1e-30 px. It guards the refit against a
  line.
* The 1e-6 screen slack of the inlier scoring: a pair is screened out
  when its mapped x is more than 2*eta*(1 + 1e-6) px from its match, in
  the pixel units of the threshold eta. Relative to eta; it keeps a
  hypot that rounds by an ulp from dropping an inlier, and no screened
  pair could pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    InvalidGeometry,
    MissingDistances,
    NoModelFound,
)
from .geometry import Homography, project_array, screen_homographies

# Minimal sample whose smallest triangle area falls below this fraction of
# the sample bounding-box area is rejected as quasi-collinear.
SAMPLE_AREA_FLOOR = 1e-9

# Block schedule of `ransac_homography`; see its docstring.
FIRST_BLOCK = 24
MIN_BLOCK = 8
MAX_BLOCK = 64
BLOCK_PAIRS = 32768


@dataclass(frozen=True, eq=False)
class Matches:
    """Matched point pairs as columns: ``src`` and ``dst`` are (n, 2) pixel
    coordinates, ``d1 <= d2`` are (n,) descriptor distances, NaN in a row
    that has none. A set read from a file keeps each row's line in it in
    ``lines``; derived sets have none."""

    src: np.ndarray
    dst: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    lines: Sequence[int] | None = None

    def __len__(self) -> int:
        return len(self.src)

    def select(self, rows) -> Matches:
        """The rows a boolean mask or an index array picks, in its order."""
        return Matches(self.src[rows], self.dst[rows], self.d1[rows], self.d2[rows])

    def scaled(self, factor: float) -> Matches:
        """Both point sets multiplied by ``factor``; distances unchanged."""
        return Matches(self.src * factor, self.dst * factor, self.d1, self.d2)


@dataclass(frozen=True)
class RansacConfig:
    confidence: float = 0.999999
    max_iterations: int = 5000
    reproj_threshold: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not self.reproj_threshold > 0.0:
            raise ValueError("reproj_threshold must be positive")


@dataclass(frozen=True)
class EstimateReport:
    homography: Homography
    inlier_flags: np.ndarray
    iterations_run: int
    mean_reproj_error: float

    @property
    def inlier_count(self) -> int:
        return int(np.count_nonzero(self.inlier_flags))


def snn_filter(matches: Matches, ratio: float) -> Matches:
    """Keep matches whose best distance is at most ``ratio`` times the second best."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    missing = np.isnan(matches.d1) | np.isnan(matches.d2)
    if missing.any():
        row = int(missing.argmax())
        raise MissingDistances(f"match {row} lacks descriptor distances", row=row)
    return matches.select(matches.d1 <= ratio * matches.d2)


def mask_keep_flags(points: np.ndarray, masks: np.ndarray, margin: float) -> np.ndarray:
    """Flags for an (n, 2) point array: False where a point lies strictly
    inside an enlarged mask.

    ``masks`` holds (m, 4) boxes ``cx, cy, w, h``; each is grown about its
    center to w*(1+margin) x h*(1+margin). All masks are tested against a
    run of points at once, about ``BLOCK_PAIRS`` point-mask pairs at a time.
    """
    keep = np.ones(len(points), dtype=bool)
    if not len(masks):
        return keep
    cx, cy, w, h = masks.T[..., None]
    xs, ys = np.ascontiguousarray(points.T)
    step = max(1, BLOCK_PAIRS // len(masks))
    with np.errstate(all="ignore"):
        hw = w * (1.0 + margin) / 2.0
        hh = h * (1.0 + margin) / 2.0
        for i in range(0, len(points), step):
            x, y = xs[i:i + step], ys[i:i + step]
            inside = (np.abs(x - cx) < hw) & (np.abs(y - cy) < hh)
            keep[i:i + step] = ~inside.any(axis=0)
    return keep


def _hartley(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hartley similarity of each (n, 2) set in a (..., n, 2) stack.

    Maps the centroid to the origin and the mean distance from it to
    sqrt(2). Returns the (..., 3, 3) similarities, the mean distances and
    the points minus their centroid; a set whose points all coincide has
    mean distance 0 and no usable similarity. Expects the caller's
    ``np.errstate``. A mean is taken as a sum over n, the operations of
    ``ndarray.mean``. On a C-contiguous stack each set sums its points in
    order, as it would alone; a stack gathered by fancy indexing can have
    another memory order, and with it another summation order, so
    callers gather with ``np.take`` and ``np.compress``.
    """
    n = pts.shape[-2]
    centroid = pts.sum(axis=-2) / n
    d = pts - centroid[..., None, :]
    mean_dist = np.sqrt((d * d).sum(axis=-1)).sum(axis=-1) / n
    s = math.sqrt(2.0) / mean_dist
    t = np.zeros(pts.shape[:-2] + (3, 3))
    t[..., 0, 0] = s
    t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * centroid
    t[..., 2, 2] = 1.0
    return t, mean_dist, d


def _dlt_design(pts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(..., 2n, 9) DLT systems of point pairs in normalized coordinates.

    ``pts`` stacks the (..., n, 2) source sets over the destination sets,
    ``t`` their Hartley similarities the same way. Row 2i holds
    (x, y, 1, 0, 0, 0, -u*x, -u*y, -u) of pair i, row 2i+1
    (0, 0, 0, x, y, 1, -v*x, -v*y, -v).
    """
    x, y, _ = project_array(t, pts)
    a = np.zeros(x.shape[1:] + (2, 9))
    a[..., 0, 0] = a[..., 1, 3] = x[0]
    a[..., 0, 1] = a[..., 1, 4] = y[0]
    a[..., 0, 2] = a[..., 1, 5] = 1.0
    xy1 = a[..., 0, 0:3]
    a[..., 0, 6:9] = -x[1][..., None] * xy1
    a[..., 1, 6:9] = -y[1][..., None] * xy1
    return a.reshape(x.shape[1:-1] + (-1, 9))


def _denormalized_solve(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Null vectors of DLT systems, mapped back to pixels; one or a stack.

    ``t`` stacks the source similarities over the destination ones.
    Returns the (..., 3, 3) matrices, not yet checked or scaled.
    """
    # From 9 rows on, the reduced SVD has the same vt as the full one and
    # skips the (2n x 2n) U. A refit on exactly 4 inliers has an 8x9
    # system and needs the full SVD: its reduced form has no null-space
    # row. RANSAC's minimal samples do not come here (see `_basis_maps`).
    _, _, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < 9)
    hn = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    return np.linalg.inv(t[1]) @ hn @ t[0]


def _collinear(pts: np.ndarray) -> np.ndarray:
    """Per (n, 2) set of a (..., n, 2) stack: True when the smaller
    singular value of the centered set is at most 1e-9 of the larger one."""
    centered = pts - (pts.sum(axis=-2) / pts.shape[-2])[..., None, :]
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[..., 1] <= 1e-9 * np.maximum(sv[..., 0], 1e-30)


def _dlt_matrix(pair: np.ndarray) -> np.ndarray:
    """The raw DLT matrix of a (2, n, 2) source-over-destination pair."""
    n = pair.shape[1]
    if n < 4:
        raise InsufficientPoints(f"need >= 4 correspondences, got {n}")
    try:
        collinear = _collinear(pair).any()
    except np.linalg.LinAlgError:
        # A set's SVD failed: check the sets one at a time, source first,
        # so that a collinear source still wins over a failing destination.
        collinear = _collinear(pair[0]) or _collinear(pair[1])
    if collinear:
        raise DegenerateConfiguration("correspondence points are collinear")
    t, spread, _ = _hartley(pair)
    if (spread <= 0.0).any():
        raise DegenerateConfiguration("all points coincide")
    if not np.isfinite(spread).all():
        raise DegenerateConfiguration("point spread is not finite")
    return _denormalized_solve(_dlt_design(pair, t), t)


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography mapping (n, 2) ``src`` onto ``dst`` via the
    normalized direct linear transform."""
    with np.errstate(all="ignore"):
        return _fit(np.stack((src, dst)).astype(float, copy=False))


def _fit(pair: np.ndarray) -> Homography:
    try:
        return Homography.from_matrix(_dlt_matrix(pair))
    except InvalidGeometry as exc:  # a singular or non-finite fit
        raise DegenerateConfiguration(str(exc)) from exc


def _combined_errors(fx, fy, zf, bx, by, zb, src, dst) -> np.ndarray:
    # Mean of the forward and backward residuals of the projections
    # (fx, fy, zf) of ``src`` and (bx, by, zb) of ``dst``; +inf where a
    # projection degenerates. Expects the caller's ``np.errstate``.
    ok = (np.abs(zf) > 1e-12) & (np.abs(zb) > 1e-12)
    fwd = np.hypot(fx - dst[..., 0], fy - dst[..., 1])
    bwd = np.hypot(bx - src[..., 0], by - src[..., 1])
    return np.where(ok, (fwd + bwd) / 2.0, np.inf)


def symmetric_errors(h: Homography, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error: mean of forward and backward residuals.

    Pairs whose projection degenerates get +inf instead of raising.
    """
    with np.errstate(all="ignore"):
        return _pair_errors(h.m, np.stack((src, dst)))


def _pair_errors(m: np.ndarray, pair: np.ndarray) -> np.ndarray:
    # `symmetric_errors` of a (2, n, 2) source-over-destination pair, with
    # both projections in one call
    x, y, z = project_array(np.stack((m, np.linalg.inv(m))), pair)
    return _combined_errors(x[0], y[0], z[0], x[1], y[1], z[1], pair[0], pair[1])


def _inlier_flags(
    m: np.ndarray, src: np.ndarray, dst: np.ndarray, eta: float
) -> np.ndarray:
    """``symmetric_errors(.) <= eta`` for each matrix of a (K, 3, 3) stack.

    A pair is an inlier only if its forward residual, and so its x
    offset, is at most 2*eta. The mapped x rules out most pairs; the
    mapped y and the backward projection are computed for the rest, with
    the arithmetic of `symmetric_errors`. The screen is looser by 1e-6
    so that a hypot off by an ulp cannot drop an inlier.
    """
    k, n = len(m), len(src)
    reach = 2.0 * eta * (1.0 + 1e-6)
    with np.errstate(all="ignore"):
        c = m.reshape(k, 9).T[..., None]
        x, y = src[:, 0], src[:, 1]
        z = c[6] * x + c[7] * y + c[8]
        fx = (c[0] * x + c[1] * y + c[2]) / z
        pick = np.flatnonzero(np.abs(fx - dst[:, 0]) <= reach)
        z, fx = z.ravel()[pick], fx.ravel()[pick]
        rows, cols = np.divmod(pick, n)
        # The picked pairs' points, then the rows of their maps, as
        # contiguous rows. At the pair cap these tables are the largest
        # arrays of an estimate, so each goes as soon as it is used.
        p = np.take(np.concatenate((src, dst), axis=1).T, cols, axis=1)
        g = np.take(m[:, 1].T, rows, axis=1)
        fy = (g[0] * p[0] + g[1] * p[1] + g[2]) / z
        g = np.take(np.linalg.inv(m).reshape(k, 9).T, rows, axis=1)
        del rows, cols
        zb = g[6] * p[2] + g[7] * p[3] + g[8]
        bx = (g[0] * p[2] + g[1] * p[3] + g[2]) / zb
        by = (g[3] * p[2] + g[4] * p[3] + g[5]) / zb
        del g
        errs = _combined_errors(fx, fy, z, bx, by, zb, p[0:2].T, p[2:4].T)
    flags = np.zeros(k * n, dtype=bool)
    flags[pick] = errs <= eta
    return flags.reshape(k, n)


# Corners (a, b, c) of the four triangles of a minimal sample, in the
# order 1,2,3 / 0,2,3 / 0,1,3 / 0,1,2: the a corners, then the b, then the c.
_TRIANGLES = np.array([1, 0, 0, 0, 2, 2, 1, 1, 3, 3, 3, 2])


def _degenerate_samples(pts: np.ndarray) -> np.ndarray:
    """Per (4, 2) sample of a stack: True when any three of the four points
    are quasi-collinear (the smallest triangle area is below
    ``SAMPLE_AREA_FLOOR`` of the sample's bounding-box area)."""
    corners = np.take(pts, _TRIANGLES, axis=-2)
    ab = corners[..., 4:8, :] - corners[..., 0:4, :]
    ac = corners[..., 8:12, :] - corners[..., 0:4, :]
    crosses = np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    # Max x, max y, -min x, -min y and -(smallest cross) as Python's max()
    # and min() pick them: an item replaces the running pick only if it
    # compares better, so the pick is NaN exactly when the first item is,
    # and otherwise the extreme of the other items. c < pick exactly when
    # -c > -pick, and negation is exact.
    cols = np.concatenate((pts, -pts, -crosses[..., None]), axis=-1)
    first = cols[..., 0, :]
    top = np.where(np.isnan(first), first, np.fmax.reduce(cols, axis=-2))
    sides = top[..., 0:2] + top[..., 2:4]
    area_box = sides[..., 0] * sides[..., 1]
    floor = SAMPLE_AREA_FLOOR * area_box
    return (area_box <= 0.0) | (-top[..., 4] < floor)


def _draw_samples(rng: np.random.Generator, pool: list[int], size: int) -> np.ndarray:
    """``size`` minimal samples as a (size, 4) index array, each a partial
    Fisher-Yates shuffle of ``pool``, which stays a permutation across
    calls.

    Sample k's i-th swap partner is uniform on [i, n). All 4*size of them
    come from one ``rng.integers`` call with per-draw lower bounds, which
    yields the values, in order, and leaves the generator in the state of
    4*size scalar ``rng.integers(i, n)`` calls.
    """
    partners = iter(rng.integers(np.arange(4 * size) & 3, len(pool)).tolist())
    samples = []
    for j0, j1, j2, j3 in zip(partners, partners, partners, partners):
        pool[0], pool[j0] = pool[j0], pool[0]
        pool[1], pool[j1] = pool[j1], pool[1]
        pool[2], pool[j2] = pool[j2], pool[2]
        pool[3], pool[j3] = pool[j3], pool[3]
        samples.append(pool[:4])
    return np.array(samples)


# Corners j, k of the cross products c_i = p_j x p_k, i = 0, 1, 2, of
# `_basis_maps`: the j corners, then the k corners.
_BASIS = np.array([1, 2, 0, 2, 0, 1])


def _basis_maps(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Raw homographies of a (2, K, 4, 2) block of Hartley-normalized
    samples, the source samples over the destination samples, in closed
    form; ``t`` stacks their similarities the same way.

    Four points in general position fix a homography: the map between
    the projective bases of the source and the destination sample
    (Hartley & Zisserman, §2.3 and §4.1). With the homogeneous points
    p_0..p_3 of a source sample, c_i = p_j x p_k for (j, k) = (1, 2),
    (2, 0), (0, 1) and lambda_i = c_i . p_3, twice the signed area of the
    triangle without corner i, the map in normalized coordinates is
    H_n = sum_i (mu_i / lambda_i) q_i c_i^T, where mu_i and q_i are the
    same quantities of the destination sample. It takes p_i to q_i for
    i < 3, and p_3 to q_3. The pixel map is H_n with both similarities
    undone, (s_d T_d^-1) H_n T_s, entry by entry: s_d T_d^-1 is
    [[1, 0, -t_x], [0, 1, -t_y], [0, 0, s_d]], which needs no division,
    and the scale of a fit is free. Elementwise numpy in a fixed order,
    with no BLAS or LAPACK call, so a sample's bits depend neither on
    its block nor on the BLAS kernel. Expects the caller's
    ``np.errstate``.
    """
    corners = np.take(u, _BASIS, axis=-2)
    xj, yj = corners[..., :3, 0], corners[..., :3, 1]
    xk, yk = corners[..., 3:, 0], corners[..., 3:, 1]
    c = np.stack((yj - yk, xk - xj, xj * yk - xk * yj), axis=-1)
    area = c[..., 0] * u[..., 3:, 0] + c[..., 1] * u[..., 3:, 1] + c[..., 2]
    w = area[1] / area[0]
    # rows r of q_i scaled by w_i, against the columns of c_i: (K, 3, 3, 3)
    wq = np.stack((w * u[1, :, :3, 0], w * u[1, :, :3, 1], w), axis=1)
    terms = wq[..., None] * c[0][:, None]
    hn = terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2]
    ts, td = t[0], t[1]
    g = np.empty_like(hn)
    g[..., :2] = hn[..., :2] * ts[:, None, 0:1, 0]
    g[..., 2] = hn[..., 0] * ts[:, 0:1, 2] + hn[..., 1] * ts[:, 1:2, 2] + hn[..., 2]
    raw = np.empty_like(hn)
    raw[:, :2] = g[:, :2] - td[:, :2, 2:3] * g[:, 2:3]
    raw[:, 2] = td[:, 0:1, 0] * g[:, 2]
    return raw


def _solve_block(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal-sample fits of a (2, K, 4, 2) block, the K source samples
    over their destination samples, as one batched solve.

    Returns per sample whether it is solved, its raw matrix and the one
    ``Homography.from_matrix`` stores (scaled to m[2,2] == 1 where it can
    be); both matrices are zero where no fit was made. A sample is not
    solved when it is degenerate, when the spread of its source or
    destination points is zero or not finite, when its normalized
    coordinates are not finite, or when `geometry.screen_homographies`
    refuses its fit.

    The block is screened for degenerate samples, normalized and solved
    in closed form by `_basis_maps` in one stack each, unsolved samples
    included (their matrices are then zeroed), with no SVD: the divisors
    of the closed form are the triangle areas that the degenerate screen
    bounds away from 0. A solved sample's arithmetic is that of the
    sample alone. Expects the caller's ``np.errstate``.
    """
    t, spread, d = _hartley(pts)
    u = d * t[..., 0:1, 0:1]
    solved = (
        ~_degenerate_samples(pts).any(axis=0)
        & ((spread > 0.0) & (spread < np.inf)).all(axis=0)
        & np.isfinite(u).all(axis=(0, 2, 3))
    )
    raw = _basis_maps(u, t)
    raw[~solved] = 0.0
    _, invertible, fits, _ = screen_homographies(raw)
    return solved & invertible, raw, fits


def derive_seeds(master_seed: int, *keys: int, count: int = 1) -> tuple[int, ...]:
    """``count`` independent seeds of one problem, as Python ints: the
    ``uint64`` state of a ``SeedSequence`` over the master seed masked to
    64 bits and the problem's ``keys`` (a frame; a cell, scene and trial)."""
    ss = np.random.SeedSequence((master_seed & 0xFFFFFFFFFFFFFFFF, *keys))
    return tuple(ss.generate_state(count, dtype=np.uint64).tolist())


def ransac_homography(
    matches: Matches, cfg: RansacConfig, downscale: float = 1.0
) -> EstimateReport:
    """RANSAC over minimal 4-point fits with adaptive termination.

    Inliers are pairs whose symmetric transfer error is at most the
    configured threshold. The search stops once the standard confidence
    bound says a pure-inlier sample has been drawn with probability
    ``confidence``, capped at ``max_iterations``. The final model is
    refit on the full best consensus set. Deterministic per seed. Refuses
    fewer than 4 matches and a coordinate that is not finite.

    With ``downscale`` below 1 the estimate runs on the matches scaled by
    it (`Matches.scaled`) and is lifted back with `upscale_homography`;
    the report holds the lifted homography and the mean error divided by
    ``downscale``, which is the symmetric error of the lifted matrix on
    full-resolution points. A lifted map below the invertibility floor
    raises as a fit does. A ``downscale`` outside (0, 1] raises
    ValueError.

    Samples are drawn, solved and scored a block at a time, then
    visited in draw order under the sequential stopping rule, so
    the result and ``iterations_run`` are those of one-at-a-time RANSAC.
    The first block holds ``FIRST_BLOCK`` samples and each next one twice
    as many, up to a cap of about ``BLOCK_PAIRS`` scored sample-pairs,
    kept within ``MIN_BLOCK`` and ``MAX_BLOCK`` samples (64 samples for
    100 matches, 24 for 1365), and no block runs past the current stop.
    The split trades the fixed cost of a block's numpy calls against the
    scoring of samples drawn past the stop; a sample's closed-form solve
    costs little beside its scoring. Timing first blocks of 16 to 48 and
    caps of 64 and 128 on the benchmark's registration problems found no
    split faster than 24/64 outside noise on both. A block's swap
    partners come from one batched ``rng.integers`` call (see
    `_draw_samples`), so the random stream is that of one draw per swap.
    The consensus refit normalizes, checks and solves the source and
    destination sets as one stack.
    """
    if not 0.0 < downscale <= 1.0:
        raise ValueError("downscale must be in (0, 1]")
    if downscale < 1.0:
        matches = matches.scaled(downscale)
    n = len(matches)
    if n < 4:
        raise InsufficientPoints(f"need >= 4 correspondences, got {n}")
    if not (np.isfinite(matches.src).all() and np.isfinite(matches.dst).all()):
        raise InvalidGeometry("match coordinates must be finite")
    with np.errstate(all="ignore"):
        report = _ransac(matches.src, matches.dst, cfg)
    if downscale < 1.0:
        report = replace(report, homography=upscale_homography(report.homography, downscale),
                         mean_reproj_error=report.mean_reproj_error / downscale)
    return report


def _ransac(src: np.ndarray, dst: np.ndarray, cfg: RansacConfig) -> EstimateReport:
    n = len(src)
    pair = np.stack((src, dst))
    rng = np.random.default_rng(cfg.seed)
    pool = list(range(n))
    eta = cfg.reproj_threshold
    log_fail = math.log(max(1e-300, 1.0 - cfg.confidence))

    best_count = 0
    best_flags: np.ndarray | None = None
    best_raw: np.ndarray | None = None
    it = 0
    cap = min(MAX_BLOCK, max(MIN_BLOCK, BLOCK_PAIRS // n))
    block = min(FIRST_BLOCK, cap)
    stop = cfg.max_iterations
    while it < stop:
        size = min(block, stop - it)
        block = min(2 * block, cap)
        samples = np.take(pair, _draw_samples(rng, pool, size), axis=1)
        solved, raw, fits = _solve_block(samples)
        flags = np.zeros((size, n), dtype=bool)
        if solved.any():
            flags[solved] = _inlier_flags(fits[solved], src, dst, eta)
        # an unsolved sample has no inliers, so it never becomes the best
        for j, count in enumerate(flags.sum(axis=1).tolist()):
            it += 1
            if count > best_count and count >= 4:
                best_count, best_flags, best_raw = count, flags[j].copy(), raw[j].copy()
                w4 = (count / n) ** 4
                needed = it if w4 >= 1.0 else math.ceil(log_fail / math.log1p(-w4))
                stop = min(cfg.max_iterations, needed)
            if it >= stop:
                break

    if best_flags is None or best_raw is None:
        raise NoModelFound(f"no consensus of >= 4 inliers in {it} iterations")

    try:
        refit = _fit(np.compress(best_flags, pair, axis=1))
        errs = _pair_errors(refit.m, pair)
        flags = errs <= eta
        if np.count_nonzero(flags) < 4:
            raise DegenerateConfiguration("refit lost the consensus")
        final_h, final_flags = refit, flags
    except DegenerateConfiguration:
        final_h = Homography.from_matrix(best_raw)
        errs = _pair_errors(final_h.m, pair)
        final_flags = best_flags
    mean_err = float(errs[final_flags].mean())
    return EstimateReport(final_h, final_flags, it, mean_err)


def upscale_homography(h_scaled: Homography, factor: float) -> Homography:
    """Lift a homography estimated on coordinates premultiplied by ``factor``
    back to full-resolution coordinates: S^-1 * H * S with S = diag(f, f, 1)."""
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")
    s = np.diag([factor, factor, 1.0])
    s_inv = np.diag([1.0 / factor, 1.0 / factor, 1.0])
    return Homography.from_matrix(s_inv @ h_scaled.m @ s)
