"""Robust homography estimation from point correspondences.

Pipeline order mirrors the stabilization stage: exclusion-mask filtering,
ratio-test (SNN) filtering, then RANSAC around a Hartley-normalized DLT,
with optional handling of estimates computed on downscaled coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    MissingDistances,
    NoModelFound,
    SingularTransform,
)
from .geometry import DET_FLOOR, Z_TOL, Homography, project_array

# Minimal sample whose smallest triangle area falls below this fraction of
# the sample bounding-box area is rejected as quasi-collinear.
SAMPLE_AREA_FLOOR = 1e-9

# `ransac_homography` draws, solves and scores minimal samples in blocks:
# the first holds FIRST_BLOCK samples, each next one twice as many, up to
# MAX_BLOCK. Small first blocks waste few samples past an early stop.
FIRST_BLOCK = 8
MAX_BLOCK = 32


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
    center to w*(1+margin) x h*(1+margin).
    """
    keep = np.ones(len(points), dtype=bool)
    for cx, cy, w, h in masks.tolist():
        hw = w * (1.0 + margin) / 2.0
        hh = h * (1.0 + margin) / 2.0
        inside = (
            (np.abs(points[:, 0] - cx) < hw) & (np.abs(points[:, 1] - cy) < hh)
        )
        keep &= ~inside
    return keep


def _hartley(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley similarity of each (n, 2) set in a (..., n, 2) stack.

    Maps the centroid to the origin and the mean distance from it to
    sqrt(2). Returns the (..., 3, 3) similarities and the mean distances;
    a set whose points all coincide has mean distance 0 and no usable
    similarity.
    """
    centroid = pts.mean(axis=-2)
    mean_dist = np.sqrt(((pts - centroid[..., None, :]) ** 2).sum(axis=-1)).mean(axis=-1)
    with np.errstate(divide="ignore"):
        s = math.sqrt(2.0) / mean_dist
    t = np.zeros(pts.shape[:-2] + (3, 3))
    t[..., 0, 0] = s
    t[..., 1, 1] = s
    t[..., 0, 2] = -s * centroid[..., 0]
    t[..., 1, 2] = -s * centroid[..., 1]
    t[..., 2, 2] = 1.0
    return t, mean_dist


def _dlt_design(
    src: np.ndarray, dst: np.ndarray, t_src: np.ndarray, t_dst: np.ndarray
) -> np.ndarray:
    """(..., 2n, 9) DLT systems of (..., n, 2) point pairs in normalized
    coordinates; ``t_src``/``t_dst`` are their Hartley similarities."""
    x, y, _ = project_array(t_src, src)
    u, v, _ = project_array(t_dst, dst)
    a = np.zeros(src.shape[:-2] + (2 * src.shape[-2], 9))
    a[..., 0::2, 0] = x
    a[..., 0::2, 1] = y
    a[..., 0::2, 2] = 1.0
    a[..., 0::2, 6] = -u * x
    a[..., 0::2, 7] = -u * y
    a[..., 0::2, 8] = -u
    a[..., 1::2, 3] = x
    a[..., 1::2, 4] = y
    a[..., 1::2, 5] = 1.0
    a[..., 1::2, 6] = -v * x
    a[..., 1::2, 7] = -v * y
    a[..., 1::2, 8] = -v
    return a


def _denormalized_solve(a: np.ndarray, t_src: np.ndarray, t_dst: np.ndarray) -> np.ndarray:
    """Null vectors of DLT systems, mapped back to pixels; one or a stack.

    Returns the (..., 3, 3) matrices, not yet checked or scaled.
    """
    # From 9 rows on, the reduced SVD has the same vt as the full one and
    # skips the (2n x 2n) U. The minimal 8x9 system needs the full SVD:
    # its reduced form has no null-space row.
    _, _, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < 9)
    hn = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    return np.linalg.inv(t_dst) @ hn @ t_src


def _collinear(pts: np.ndarray) -> bool:
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[1] <= 1e-9 * max(sv[0], 1e-30)


def _dlt_matrix(src: np.ndarray, dst: np.ndarray, check_collinear: bool = True) -> np.ndarray:
    n = len(src)
    if n < 4:
        raise InsufficientPoints(f"need >= 4 correspondences, got {n}")
    if check_collinear and (_collinear(src) or _collinear(dst)):
        raise DegenerateConfiguration("correspondence points are collinear")
    t_src, spread_src = _hartley(src)
    t_dst, spread_dst = _hartley(dst)
    if spread_src <= 0.0 or spread_dst <= 0.0:
        raise DegenerateConfiguration("all points coincide")
    return _denormalized_solve(_dlt_design(src, dst, t_src, t_dst), t_src, t_dst)


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography mapping (n, 2) ``src`` onto ``dst`` via the
    normalized direct linear transform."""
    try:
        return Homography.from_matrix(_dlt_matrix(src, dst))
    except SingularTransform as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def _transfer_errors(
    m: np.ndarray, m_inv: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    # Broadcasts like `project_array`; +inf where a projection degenerates.
    fx, fy, zf = project_array(m, src)
    bx, by, zb = project_array(m_inv, dst)
    ok = (np.abs(zf) > 1e-12) & (np.abs(zb) > 1e-12)
    with np.errstate(invalid="ignore"):
        fwd = np.hypot(fx - dst[..., 0], fy - dst[..., 1])
        bwd = np.hypot(bx - src[..., 0], by - src[..., 1])
        return np.where(ok, (fwd + bwd) / 2.0, np.inf)


def symmetric_errors(h: Homography, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error: mean of forward and backward residuals.

    Pairs whose projection degenerates get +inf instead of raising.
    """
    return _transfer_errors(h.m, np.linalg.inv(h.m), src, dst)


def _inlier_flags(
    m: np.ndarray, src: np.ndarray, dst: np.ndarray, eta: float
) -> np.ndarray:
    """``symmetric_errors(.) <= eta`` for each matrix of a (K, 3, 3) stack.

    A pair is an inlier only if its forward residual, and so each of its
    coordinate offsets, is at most 2*eta: the forward projection rules
    out most pairs, and the full error is computed for the rest alone.
    The screen is looser by 1e-6 so that a hypot off by an ulp cannot
    drop an inlier.
    """
    fx, fy, _ = project_array(m, src)
    reach = 2.0 * eta * (1.0 + 1e-6)
    with np.errstate(invalid="ignore"):
        near = (np.abs(fx - dst[:, 0]) <= reach) & (np.abs(fy - dst[:, 1]) <= reach)
    rows, cols = np.nonzero(near)
    m_inv = np.linalg.inv(m)[rows]
    errs = _transfer_errors(m[rows], m_inv, src[cols, None], dst[cols, None])
    flags = np.zeros(near.shape, dtype=bool)
    flags[rows, cols] = errs[:, 0] <= eta
    return flags


def _first_of(cols, better) -> np.ndarray:
    # Python's min()/max() over the columns, nan placement included:
    # an item replaces the running pick only if it compares better.
    pick = cols[0]
    for c in cols[1:]:
        pick = np.where(better(c, pick), c, pick)
    return pick


def _degenerate_samples(pts: np.ndarray) -> np.ndarray:
    """Per (4, 2) sample of a stack: True when any three of the four points
    are quasi-collinear (the smallest triangle area is below
    ``SAMPLE_AREA_FLOOR`` of the sample's bounding-box area)."""
    x = [pts[:, i, 0] for i in range(4)]
    y = [pts[:, i, 1] for i in range(4)]
    area_box = (_first_of(x, np.greater) - _first_of(x, np.less)) * (
        _first_of(y, np.greater) - _first_of(y, np.less)
    )
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    crosses = (
        np.abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)),  # 1,2,3
        np.abs((x2 - x0) * (y3 - y0) - (y2 - y0) * (x3 - x0)),  # 0,2,3
        np.abs((x1 - x0) * (y3 - y0) - (y1 - y0) * (x3 - x0)),  # 0,1,3
        np.abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)),  # 0,1,2
    )
    floor = SAMPLE_AREA_FLOOR * area_box
    return (area_box <= 0.0) | (_first_of(crosses, np.less) < floor)


def _draw_samples(rng: np.random.Generator, pool: list[int], size: int) -> np.ndarray:
    """``size`` minimal samples as a (size, 4) index array, each a partial
    Fisher-Yates shuffle of ``pool``, which stays a permutation across
    calls.

    Sample k's i-th swap partner is uniform on [i, n). All 4*size of them
    come from one ``rng.integers`` call with per-draw lower bounds, which
    yields the values, in order, and leaves the generator in the state of
    4*size scalar ``rng.integers(i, n)`` calls.
    """
    partners = rng.integers(np.tile(np.arange(4), size), len(pool)).tolist()
    samples = []
    for k in range(0, 4 * size, 4):
        for i, j in enumerate(partners[k:k + 4]):
            pool[i], pool[j] = pool[j], pool[i]
        samples.append(pool[:4])
    return np.array(samples)


# States of a minimal sample after `_solve_block`.
_SKIPPED, _SOLVED, _REPLAY = 0, 1, 2


def _solve_block(s4: np.ndarray, d4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-sample fits of a (K, 4, 2) block, as one batched solve.

    Gives each sample the outcome of the screen, ``_dlt_matrix`` and
    ``Homography.from_matrix`` one sample at a time would give:
    ``_SKIPPED`` for a degenerate sample or a singular fit, ``_SOLVED``
    with its raw (unscaled) matrix, or ``_REPLAY`` where the batched
    arithmetic cannot decide it exactly (non-finite values, all points
    coinciding, a determinant on the invertibility floor). Replayed
    samples go through ``_dlt_matrix`` on their own.
    """
    k = len(s4)
    state = np.full(k, _SKIPPED, dtype=np.int8)
    raw = np.zeros((k, 3, 3))
    with np.errstate(all="ignore"):
        screened = ~(_degenerate_samples(s4) | _degenerate_samples(d4))
        state[screened] = _REPLAY
        t_src, spread_src = _hartley(s4[screened])
        t_dst, spread_dst = _hartley(d4[screened])
        a = _dlt_design(s4[screened], d4[screened], t_src, t_dst)
        ok = (spread_src > 0.0) & (spread_dst > 0.0) & np.isfinite(a).all(axis=(1, 2))
        usable = np.flatnonzero(screened)[ok]
        if not len(usable):
            return state, raw
        try:
            h = _denormalized_solve(a[ok], t_src[ok], t_dst[ok])
        except np.linalg.LinAlgError:
            return state, raw
        # Homography.from_matrix's finite and invertibility checks. Its
        # Frobenius norm is a BLAS dot product; summed in another order
        # here, it decides only determinants clear of the floor.
        finite = np.isfinite(h).all(axis=(1, 2))
        det = np.abs(np.linalg.det(np.where(finite[:, None, None], h, 1.0)))
        floor = DET_FLOOR * np.sqrt((h * h).sum(axis=(1, 2))) ** 3
        decided = finite & (np.abs(det - floor) > 1e-6 * floor)
    state[usable] = np.where(decided, np.where(det >= floor, _SOLVED, _SKIPPED), _REPLAY)
    raw[usable] = h
    return state, raw


def ransac_homography(matches: Matches, cfg: RansacConfig) -> EstimateReport:
    """RANSAC over minimal 4-point DLT fits with adaptive termination.

    Inliers are pairs whose symmetric transfer error is at most the
    configured threshold. The search stops once the standard confidence
    bound says a pure-inlier sample has been drawn with probability
    ``confidence``, capped at ``max_iterations``. The final model is
    refit on the full best consensus set. Deterministic per seed.

    Samples are drawn, solved and scored a block at a time, then
    visited in draw order under the sequential stopping rule, so
    the result and ``iterations_run`` are those of one-at-a-time RANSAC.
    """
    n = len(matches)
    if n < 4:
        raise InsufficientPoints(f"need >= 4 correspondences, got {n}")
    src, dst = matches.src, matches.dst

    rng = np.random.default_rng(cfg.seed)
    pool = list(range(n))
    eta = cfg.reproj_threshold
    log_fail = math.log(max(1e-300, 1.0 - cfg.confidence))

    best_count = 0
    best_flags: np.ndarray | None = None
    best_raw: np.ndarray | None = None
    needed = cfg.max_iterations
    it = 0
    block = FIRST_BLOCK
    while it < min(cfg.max_iterations, needed):
        size = min(block, min(cfg.max_iterations, needed) - it)
        block = min(2 * block, MAX_BLOCK)
        idx = _draw_samples(rng, pool, size)
        s4, d4 = src[idx], dst[idx]
        state, raw = _solve_block(s4, d4)
        flags = np.zeros((size, n), dtype=bool)
        solved = state == _SOLVED
        if solved.any():
            # Homography.from_matrix's scaling, then the scoring of each fit
            m = raw[solved]
            z = m[:, 2:, 2:]
            with np.errstate(divide="ignore", invalid="ignore"):
                m = np.where(np.abs(z) > Z_TOL, m / z, m)
            flags[solved] = _inlier_flags(m, src, dst, eta)
        counts = np.count_nonzero(flags, axis=1)
        for j in range(size):
            it += 1
            if state[j] == _REPLAY:
                try:
                    raw[j] = _dlt_matrix(s4[j], d4[j], check_collinear=False)
                    h = Homography.from_matrix(raw[j])
                except (DegenerateConfiguration, SingularTransform):
                    state[j] = _SKIPPED
                else:
                    flags[j] = symmetric_errors(h, src, dst) <= eta
                    counts[j] = np.count_nonzero(flags[j])
            if state[j] != _SKIPPED:
                count = int(counts[j])
                if count >= 4 and count > best_count:
                    best_count, best_flags, best_raw = count, flags[j].copy(), raw[j].copy()
                    w4 = (count / n) ** 4
                    if w4 >= 1.0:
                        needed = it
                    else:
                        needed = math.ceil(log_fail / math.log1p(-w4))
            if it >= min(cfg.max_iterations, needed):
                break

    if best_flags is None or best_raw is None:
        raise NoModelFound(f"no consensus of >= 4 inliers in {it} iterations")

    try:
        refit = dlt_homography(src[best_flags], dst[best_flags])
        errs = symmetric_errors(refit, src, dst)
        flags = errs <= eta
        if np.count_nonzero(flags) < 4:
            raise DegenerateConfiguration("refit lost the consensus")
        final_h, final_flags = refit, flags
    except DegenerateConfiguration:
        final_h = Homography.from_matrix(best_raw)
        errs = symmetric_errors(final_h, src, dst)
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
