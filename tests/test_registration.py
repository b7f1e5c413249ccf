import csv
import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns_of, make_point, translation
from reference import apply_homography
from skytraj.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    MissingDistances,
    NoModelFound,
    SingularTransform,
)
from skytraj import registration
from skytraj.dataio import load_tracks
from skytraj.geometry import Homography, Point2, project_array
from skytraj.pipeline import StabilizeParams, estimate_frame_homographies
from skytraj.registration import (
    Matches,
    RansacConfig,
    _collinear,
    _degenerate_samples,
    _draw_samples,
    _inlier_flags,
    dlt_homography,
    mask_keep_flags,
    ransac_homography,
    snn_filter,
    symmetric_errors,
    upscale_homography,
)


def corr(sx, sy, dx, dy, d1=math.nan, d2=math.nan):
    """One match row; NaN distances mark a row without them."""
    return (sx, sy, dx, dy, d1, d2)


def stack(rows) -> Matches:
    """Matches from (sx, sy, dx, dy[, d1, d2]) rows."""
    table = np.array([[*r, math.nan, math.nan][:6] for r in rows], dtype=float).reshape(-1, 6)
    return Matches(table[:, 0:2], table[:, 2:4], table[:, 4], table[:, 5])


def rows(m: Matches) -> list[tuple]:
    return [tuple(r) for r in np.column_stack([m.src, m.dst, m.d1, m.d2]).tolist()]


def exact_corrs(h: Homography, pts) -> Matches:
    return stack([(*p, *apply_homography(h, Point2(*p))) for p in pts])


def point_action_error(h_a: Homography, h_b: Homography, pts) -> float:
    worst = 0.0
    for p in pts:
        a = apply_homography(h_a, Point2(*p))
        b = apply_homography(h_b, Point2(*p))
        worst = max(worst, math.hypot(a.x - b.x, a.y - b.y))
    return worst


class TestSnnFilter:
    def test_kept_and_dropped(self):
        matches = stack([corr(0, 0, 1, 1, 0.4, 1.0), corr(0, 0, 1, 1, 0.95, 1.0)])
        kept = snn_filter(matches, 0.9)
        assert rows(kept) == rows(matches)[:1]

    def test_ratio_one_keeps_everything(self):
        matches = stack([corr(0, 0, 1, 1, d, 1.0) for d in (0.1, 0.5, 1.0)])
        assert rows(snn_filter(matches, 1.0)) == rows(matches)

    def test_order_preserved_and_idempotent(self):
        matches = stack([corr(i, 0, i, 1, 0.1 * i, 1.0) for i in range(1, 9)])
        kept = snn_filter(matches, 0.55)
        assert rows(kept) == [r for r in rows(matches) if r[4] <= 0.55]
        assert rows(snn_filter(kept, 0.55)) == rows(kept)

    def test_missing_distances(self):
        with pytest.raises(MissingDistances):
            snn_filter(stack([corr(0, 0, 1, 1)]), 0.9)


class TestMaskFilter:
    """The exclusion-mask step: ``mask_keep_flags`` keeps a point unless it
    lies strictly inside an enlarged mask."""

    def test_no_masks(self):
        pts = np.array([(1.0, 2.0), (3.0, 4.0)])
        assert mask_keep_flags(pts, np.zeros((0, 4)), 0.15).tolist() == [True, True]

    def test_enlarged_mask_removes(self):
        # half-width grows from 5.0 to 5.75 with a 15% margin
        mask = np.array([(100.0, 100.0, 10.0, 10.0)])
        pts = np.array([(105.7, 100.0), (106.0, 100.0)])
        assert mask_keep_flags(pts, mask, 0.15).tolist() == [False, True]

    def test_zero_margin_boundary(self):
        mask = np.array([(100.0, 100.0, 10.0, 10.0)])
        assert mask_keep_flags(np.array([(106.0, 100.0)]), mask, 0.0).tolist() == [True]
        # boundary itself is not strictly inside
        assert mask_keep_flags(np.array([(105.0, 100.0)]), mask, 0.0).tolist() == [True]
        assert mask_keep_flags(np.array([(104.9, 100.0)]), mask, 0.0).tolist() == [False]


# --- Per-row reference of the columnar match steps --------------------------
# Matches were once one object per row. These loops restate the mask, ratio
# test and downscale steps row by row; the columnar versions must agree bit
# for bit. A row is (sx, sy, dx, dy, d1, d2) with None for absent distances.


def _ref_snn(rows, ratio):
    kept = []
    for i, r in enumerate(rows):
        if r[4] is None or r[5] is None:
            raise MissingDistances(f"match {i} lacks descriptor distances")
        if r[4] <= ratio * r[5]:
            kept.append(r)
    return kept


def _ref_mask_keep(points, masks, margin):
    return [
        not any(
            abs(x - cx) < w * (1.0 + margin) / 2.0
            and abs(y - cy) < h * (1.0 + margin) / 2.0
            for cx, cy, w, h in masks
        )
        for x, y in points
    ]


def _ref_downscale(rows, rho):
    return [(r[0] * rho, r[1] * rho, r[2] * rho, r[3] * rho, r[4], r[5]) for r in rows]


def _from_rows(rows) -> Matches:
    return stack([[math.nan if v is None else v for v in r] for r in rows])


def _bits(rows) -> bytes:
    table = [[math.nan if v is None else v for v in r] for r in rows]
    return np.array(table, dtype=float).reshape(-1, 6).tobytes()


def _columns_bits(m: Matches) -> bytes:
    return np.column_stack([m.src, m.dst, m.d1, m.d2]).reshape(-1, 6).tobytes()


# Quarter-pixel grid values hit mask edges and ties; free floats do not.
_coord = st.one_of(
    st.integers(-40, 40).map(lambda k: k / 4.0),
    st.floats(-5e3, 5e3, allow_nan=False, allow_infinity=False),
)
_ratio = st.one_of(st.sampled_from([1.0, 0.9, 0.55]), st.floats(1e-3, 1.0))


@st.composite
def _match_rows(draw, ratio=0.9):
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        xy = [draw(_coord) for _ in range(4)]
        d2 = draw(st.floats(0.0, 10.0))
        kind = draw(st.sampled_from(["free", "tie", "none", "d2 only"]))
        if kind == "free":
            d1 = draw(st.floats(0.0, d2))
        elif kind == "tie":
            d1 = ratio * d2  # d1 == ratio * d2 exactly: kept
        else:
            d1 = None
        rows.append((*xy, d1, None if kind == "none" else d2))
    return rows


class TestColumnarStepsMatchPerRowReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_snn_filter(self, data):
        ratio = data.draw(_ratio)
        rows = data.draw(_match_rows(ratio))
        try:
            expected = _ref_snn(rows, ratio)
        except MissingDistances as exc:
            with pytest.raises(MissingDistances) as got:
                snn_filter(_from_rows(rows), ratio)
            assert str(got.value) == str(exc)
        else:
            assert _columns_bits(snn_filter(_from_rows(rows), ratio)) == _bits(expected)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mask_keep_flags(self, data):
        side = st.integers(0, 12).map(float)
        masks = data.draw(st.lists(st.tuples(_coord, _coord, side, side), max_size=4))
        margin = data.draw(st.one_of(st.sampled_from([0.0, 0.15, 1.0]), st.floats(0.0, 2.0)))
        # corners, edge midpoints and centers of every enlarged mask
        edges = [
            (cx + i * w * (1.0 + margin) / 2.0, cy + j * h * (1.0 + margin) / 2.0)
            for cx, cy, w, h in masks
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
        ]
        point = st.tuples(_coord, _coord)
        if edges:
            point = st.one_of(point, st.sampled_from(edges))
        points = data.draw(st.lists(point, max_size=12))
        boxes = np.array(masks, dtype=float).reshape(-1, 4)
        flags = mask_keep_flags(np.array(points, dtype=float).reshape(-1, 2), boxes, margin)
        assert flags.tolist() == _ref_mask_keep(points, masks, margin)

    @settings(max_examples=100, deadline=None)
    @given(rows=_match_rows(), rho=st.one_of(st.just(0.5), st.floats(1e-3, 1.0)))
    def test_downscale(self, rows, rho):
        assert _columns_bits(_from_rows(rows).scaled(rho)) == _bits(_ref_downscale(rows, rho))

    def test_empty_sets(self):
        empty = _from_rows([])
        assert len(empty) == 0
        assert len(snn_filter(empty, 0.9)) == 0
        assert mask_keep_flags(empty.src, np.array([(0.0, 0.0, 4.0, 4.0)]), 0.15).shape == (0,)
        assert empty.scaled(0.5).src.shape == (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mask_keep_flags_non_finite_boxes(self, data):
        """Boxes with NaN, infinite, zero and negative entries; points on
        the enlarged edges, one float inside them and at the box values."""
        value = st.one_of(_coord, st.sampled_from(
            [math.nan, math.inf, -math.inf, 0.0, -0.0, -4.0, 1e308]))
        masks = data.draw(st.lists(st.tuples(value, value, value, value), max_size=6))
        margin = data.draw(st.sampled_from([0.0, 0.15, 1.0, 1e308]))
        edges = []
        for cx, cy, w, h in masks:
            hw, hh = w * (1.0 + margin) / 2.0, h * (1.0 + margin) / 2.0
            for px in (cx - hw, cx + hw, math.nextafter(cx + hw, -math.inf), cx, w):
                edges += [(px, cy), (px, cy + hh), (px, math.nextafter(cy - hh, math.inf))]
        point = st.tuples(value, value)
        if edges:
            point = st.one_of(point, st.sampled_from(edges))
        points = data.draw(st.lists(point, max_size=12))
        boxes = np.array(masks, dtype=float).reshape(-1, 4)
        flags = mask_keep_flags(np.array(points, dtype=float).reshape(-1, 2), boxes, margin)
        assert flags.tolist() == _ref_mask_keep(points, masks, margin)

    @pytest.mark.parametrize("pairs", [1, 7, 32768])
    def test_mask_keep_flags_in_runs_of_points(self, pairs, monkeypatch):
        """Points are tested in runs of about BLOCK_PAIRS point-mask pairs;
        a run of one point, short runs and one run give the same flags."""
        monkeypatch.setattr(registration, "BLOCK_PAIRS", pairs)
        rng = np.random.default_rng(pairs)
        masks = np.column_stack([rng.uniform(0, 400, (40, 2)), rng.uniform(5, 60, (40, 2))])
        points = rng.uniform(-20, 420, (300, 2))
        points[:40] = masks[:, :2] + masks[:, 2:] * 1.15 / 2.0  # on the corners
        flags = mask_keep_flags(points, masks, 0.15)
        assert flags.tolist() == _ref_mask_keep(points.tolist(), masks.tolist(), 0.15)
        assert 0 < flags.sum() < len(points)


class TestDlt:
    def test_identity_from_square(self):
        corrs = exact_corrs(
            Homography.identity(), [(0, 0), (1, 0), (1, 1), (0, 1)]
        )
        h = dlt_homography(corrs.src, corrs.dst)
        assert np.allclose(h.m, np.eye(3), atol=1e-9)

    def test_translation_recovery(self):
        truth = translation(7, -2)
        corrs = exact_corrs(truth, [(0, 0), (10, 0), (10, 10), (0, 10)])
        h = dlt_homography(corrs.src, corrs.dst)
        assert np.allclose(h.m, truth.m, atol=1e-9)

    def test_insufficient_points(self):
        corrs = exact_corrs(Homography.identity(), [(0, 0), (1, 0), (1, 1)])
        with pytest.raises(InsufficientPoints):
            dlt_homography(corrs.src, corrs.dst)

    def test_collinear_rejected(self):
        corrs = exact_corrs(
            Homography.identity(), [(0, 0), (1, 1), (2, 2), (3, 3)]
        )
        with pytest.raises(DegenerateConfiguration):
            dlt_homography(corrs.src, corrs.dst)

    @pytest.mark.parametrize("n", [4, 1000])
    def test_recovers_projective_map(self, n):
        # 4 points give the 8x9 minimal system, whose null vector needs
        # the full SVD; 1000 give the overdetermined least-squares case.
        truth = Homography.from_matrix(
            [[0.93, 0.08, -35], [-0.05, 1.07, 60], [-3e-5, 4e-5, 1]]
        )
        if n == 4:
            pts = np.array([(100.0, 80.0), (3500.0, 200.0), (3300.0, 2000.0), (250.0, 1900.0)])
        else:
            pts = np.random.default_rng(3).uniform(0, 3840, (n, 2))
        corrs = exact_corrs(truth, pts)
        h = dlt_homography(corrs.src, corrs.dst)
        assert point_action_error(h, truth, pts) < 1e-7
        assert np.allclose(h.m, truth.m, rtol=1e-9, atol=1e-12)

    def test_exact_on_many_noiseless_points(self):
        rng = np.random.default_rng(0)
        truth = Homography.from_matrix(
            [[1.1, 0.02, 40], [-0.03, 0.95, -25], [1e-5, -2e-5, 1]]
        )
        pts = rng.uniform(0, 2000, (40, 2))
        corrs = exact_corrs(truth, pts)
        h = dlt_homography(corrs.src, corrs.dst)
        assert point_action_error(h, truth, pts) < 1e-8

    def test_similarity_invariance(self):
        # shifting/scaling all coordinates and conjugating back must not
        # change the fit (Hartley normalization property), even with noise
        rng = np.random.default_rng(1)
        truth = Homography.from_matrix(
            [[1.02, -0.05, 12], [0.04, 0.97, -8], [2e-5, 1e-5, 1]]
        )
        pts = rng.uniform(0, 1500, (30, 2))
        noise = rng.normal(0, 0.5, (30, 2))
        corrs = stack(
            [(*p, *(np.array(apply_homography(truth, Point2(*p))) + e)) for p, e in zip(pts, noise)]
        )
        h_base = dlt_homography(corrs.src, corrs.dst)

        scale, off = 3.0, np.array([5000.0, -2500.0])
        sim = Homography.from_matrix([[scale, 0, off[0]], [0, scale, off[1]], [0, 0, 1]])
        moved = stack(
            [
                (*apply_homography(sim, Point2(*s)), *apply_homography(sim, Point2(*d)))
                for s, d in zip(corrs.src, corrs.dst)
            ]
        )
        h_moved = dlt_homography(moved.src, moved.dst)
        h_back = Homography.from_matrix(
            np.linalg.inv(sim.m) @ h_moved.m @ sim.m
        )
        assert point_action_error(h_base, h_back, pts) < 1e-7


def build_noisy_set(rng, truth, n_in=70, n_out=30, noise=0.0, extent=2000.0):
    pts = rng.uniform(0, extent, (n_in, 2))
    corrs = []
    for p in pts:
        d = np.array(apply_homography(truth, Point2(*p)))
        if noise > 0:
            d = d + rng.normal(0, noise, 2)
        corrs.append((*p, *d))
    for _ in range(n_out):
        corrs.append((*rng.uniform(0, extent, 2), *rng.uniform(0, extent, 2)))
    return stack(corrs)


class TestRansac:
    truth = Homography.from_matrix(
        [[1.05, 0.01, 30], [-0.02, 0.98, -12], [1e-5, 2e-5, 1]]
    )

    def test_all_inliers_exact(self):
        rng = np.random.default_rng(7)
        corrs = build_noisy_set(rng, self.truth, n_in=100, n_out=0)
        report = ransac_homography(corrs, RansacConfig(seed=1))
        assert report.inlier_flags.all()
        assert point_action_error(report.homography, self.truth, corrs.src) < 1e-6
        assert report.mean_reproj_error <= 1e-6

    def test_outliers_rejected_exactly(self):
        rng = np.random.default_rng(8)
        corrs = build_noisy_set(rng, self.truth, n_in=70, n_out=30)
        report = ransac_homography(corrs, RansacConfig(seed=2))
        assert report.inlier_flags[:70].all()
        assert not report.inlier_flags[70:].any()
        assert point_action_error(report.homography, self.truth, corrs.src[:70]) < 1e-4

    def test_insufficient(self):
        with pytest.raises(InsufficientPoints):
            ransac_homography(
                stack([corr(0, 0, 0, 0), corr(1, 0, 1, 0), corr(0, 1, 0, 1)]),
                RansacConfig(),
            )

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        corrs = build_noisy_set(rng, self.truth, noise=0.5)
        a = ransac_homography(corrs, RansacConfig(seed=42))
        b = ransac_homography(corrs, RansacConfig(seed=42))
        assert np.array_equal(a.inlier_flags, b.inlier_flags)
        assert np.array_equal(a.homography.m, b.homography.m)
        assert a.iterations_run == b.iterations_run
        assert a.mean_reproj_error == b.mean_reproj_error

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(10)
        corrs = build_noisy_set(rng, self.truth, n_in=80, n_out=20, noise=1.0)
        counts = []
        for eta in (0.5, 1.0, 2.0, 4.0, 8.0):
            report = ransac_homography(
                corrs, RansacConfig(reproj_threshold=eta, seed=5)
            )
            counts.append(report.inlier_count)
        assert counts == sorted(counts)

    def test_no_model_found(self):
        # every 4-point sample is collinear
        corrs = stack([corr(i, i, i, i) for i in range(10)])
        with pytest.raises(NoModelFound):
            ransac_homography(corrs, RansacConfig(max_iterations=50, seed=0))

    def test_inlier_count_at_least_four(self):
        rng = np.random.default_rng(11)
        corrs = build_noisy_set(rng, self.truth, n_in=8, n_out=2, noise=0.1)
        report = ransac_homography(corrs, RansacConfig(seed=3))
        assert report.inlier_count >= 4

    def test_minimal_four_point_input(self):
        corrs = exact_corrs(self.truth, [(0, 0), (1000, 0), (1000, 800), (0, 800)])
        report = ransac_homography(corrs, RansacConfig(seed=0))
        assert report.inlier_flags.all()
        assert report.mean_reproj_error < 1e-8


class TestUpscale:
    def test_factor_one(self):
        h = translation(5, 0)
        assert np.allclose(upscale_homography(h, 1.0).m, h.m)

    def test_translation_doubles(self):
        up = upscale_homography(translation(5, 0), 0.5)
        assert np.allclose(up.m, translation(10, 0).m)

    def test_identity_fixed_point(self):
        up = upscale_homography(Homography.identity(), 0.25)
        assert np.allclose(up.m, np.eye(3))

    def test_conjugation_oracle(self):
        rng = np.random.default_rng(12)
        h = Homography.from_matrix(
            [[1.04, -0.02, 7], [0.01, 0.99, -3], [1e-5, -1e-5, 1]]
        )
        rho = 0.5
        up = upscale_homography(h, rho)
        for _ in range(20):
            p = Point2(*rng.uniform(0, 4000, 2))
            scaled = apply_homography(h, Point2(p.x * rho, p.y * rho))
            expected = Point2(scaled.x / rho, scaled.y / rho)
            got = apply_homography(up, p)
            assert math.hypot(got.x - expected.x, got.y - expected.y) < 1e-8


# --- Sequential reference ---------------------------------------------------
# A copy of the one-sample-at-a-time estimator that the block evaluation in
# `ransac_homography` replaced. The block version must reproduce it bit for
# bit: same matrix, inlier flags, iteration count, mean error and messages.


def _ref_normalization(pts):
    centroid = pts.mean(axis=0)
    dists = np.sqrt(((pts - centroid) ** 2).sum(axis=1))
    mean_dist = dists.mean()
    if mean_dist <= 0.0:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def _ref_collinear(pts):
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[1] <= 1e-9 * max(sv[0], 1e-30)


def _ref_apply(t, pts):
    z = t[2, 0] * pts[:, 0] + t[2, 1] * pts[:, 1] + t[2, 2]
    return np.stack(
        [
            (t[0, 0] * pts[:, 0] + t[0, 1] * pts[:, 1] + t[0, 2]) / z,
            (t[1, 0] * pts[:, 0] + t[1, 1] * pts[:, 1] + t[1, 2]) / z,
        ],
        axis=1,
    )


def _ref_dlt(src, dst, check_collinear=True):
    n = len(src)
    if n < 4:
        raise InsufficientPoints(f"need >= 4 correspondences, got {n}")
    if check_collinear and (_ref_collinear(src) or _ref_collinear(dst)):
        raise DegenerateConfiguration("correspondence points are collinear")
    t_src = _ref_normalization(src)
    t_dst = _ref_normalization(dst)
    sn = _ref_apply(t_src, src)
    dn = _ref_apply(t_dst, dst)
    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    ones = np.ones(n)
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = ones
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = ones
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v
    _, _, vt = np.linalg.svd(a)
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ hn @ t_src
    try:
        return Homography.from_matrix(h)
    except SingularTransform as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def _ref_symmetric_errors(h, src, dst):
    m = h.m
    mi = np.linalg.inv(m)
    out = np.full(len(src), np.inf)
    zf = m[2, 0] * src[:, 0] + m[2, 1] * src[:, 1] + m[2, 2]
    zb = mi[2, 0] * dst[:, 0] + mi[2, 1] * dst[:, 1] + mi[2, 2]
    ok = (np.abs(zf) > 1e-12) & (np.abs(zb) > 1e-12)
    if not np.any(ok):
        return out
    s, d = src[ok], dst[ok]
    zf, zb = zf[ok], zb[ok]
    fx = (m[0, 0] * s[:, 0] + m[0, 1] * s[:, 1] + m[0, 2]) / zf
    fy = (m[1, 0] * s[:, 0] + m[1, 1] * s[:, 1] + m[1, 2]) / zf
    bx = (mi[0, 0] * d[:, 0] + mi[0, 1] * d[:, 1] + mi[0, 2]) / zb
    by = (mi[1, 0] * d[:, 0] + mi[1, 1] * d[:, 1] + mi[1, 2]) / zb
    fwd = np.hypot(fx - d[:, 0], fy - d[:, 1])
    bwd = np.hypot(bx - s[:, 0], by - s[:, 1])
    out[ok] = (fwd + bwd) / 2.0
    return out


def _ref_sample_degenerate(pts):
    x0, y0 = pts[0]
    x1, y1 = pts[1]
    x2, y2 = pts[2]
    x3, y3 = pts[3]
    area_box = (max(x0, x1, x2, x3) - min(x0, x1, x2, x3)) * (
        max(y0, y1, y2, y3) - min(y0, y1, y2, y3)
    )
    if area_box <= 0.0:
        return True
    floor = 1e-9 * area_box
    crosses = (
        abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)),
        abs((x2 - x0) * (y3 - y0) - (y2 - y0) * (x3 - x0)),
        abs((x1 - x0) * (y3 - y0) - (y1 - y0) * (x3 - x0)),
        abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)),
    )
    return min(crosses) < floor


def _ref_sample4(rng, pool):
    n = len(pool)
    for i in range(4):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:4].copy()


class _IdentityPool(dict):
    """A permutation of range(n) that stores only the entries swaps moved,
    so that a pool of 2**40 indices fits in memory."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def __len__(self):
        return self.n

    def __missing__(self, i):
        return i

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(self.n))]
        return super().__getitem__(key)


class TestBatchedDraws:
    """One ``rng.integers`` call per block gives the samples, and leaves the
    generator state, of one scalar draw per swap."""

    @pytest.mark.parametrize("n", [4, 5, 6, 100, 1500, 70000, 2**31 + 5, 2**32, 2**40])
    def test_equals_the_scalar_stream(self, n):
        for seed in range(40):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            pool_b, pool_s = _IdentityPool(n), _IdentityPool(n)
            for size in (1, 8, 32, 37):
                got = _draw_samples(batched, pool_b, size)
                want = [_ref_sample4(scalar, pool_s) for _ in range(size)]
                assert got.tolist() == want
                assert batched.bit_generator.state == scalar.bit_generator.state
            assert pool_b == pool_s

    def test_list_pool_stays_a_permutation(self):
        pool = list(range(5))
        samples = _draw_samples(np.random.default_rng(3), pool, 37)
        assert samples.shape == (37, 4)
        assert sorted(pool) == list(range(5))
        assert all(len(set(row)) == 4 for row in samples.tolist())


def _ref_ransac(corrs, cfg):
    n = len(corrs)
    if n < 4:
        raise InsufficientPoints(f"need >= 4 correspondences, got {n}")
    src = corrs.src
    dst = corrs.dst
    rng = np.random.default_rng(cfg.seed)
    pool = np.arange(n)
    eta = cfg.reproj_threshold
    log_fail = math.log(max(1e-300, 1.0 - cfg.confidence))
    best_count = 0
    best_flags = best_h = None
    needed = cfg.max_iterations
    it = 0
    while it < min(cfg.max_iterations, needed):
        it += 1
        idx = _ref_sample4(rng, pool)
        s4, d4 = src[idx], dst[idx]
        if _ref_sample_degenerate(s4) or _ref_sample_degenerate(d4):
            continue
        try:
            h = _ref_dlt(s4, d4, check_collinear=False)
        except DegenerateConfiguration:
            continue
        flags = _ref_symmetric_errors(h, src, dst) <= eta
        count = int(np.count_nonzero(flags))
        if count >= 4 and count > best_count:
            best_count, best_flags, best_h = count, flags, h
            w4 = (count / n) ** 4
            if w4 >= 1.0:
                needed = it
            else:
                needed = math.ceil(log_fail / math.log1p(-w4))
    if best_flags is None:
        raise NoModelFound(f"no consensus of >= 4 inliers in {it} iterations")
    try:
        refit = _ref_dlt(src[best_flags], dst[best_flags])
        errs = _ref_symmetric_errors(refit, src, dst)
        flags = errs <= eta
        if np.count_nonzero(flags) < 4:
            raise DegenerateConfiguration("refit lost the consensus")
        final_h, final_flags = refit, flags
    except DegenerateConfiguration:
        final_h = best_h
        errs = _ref_symmetric_errors(best_h, src, dst)
        final_flags = best_flags
    return final_h, final_flags, it, float(errs[final_flags].mean())


def _outcome(estimate, corrs, cfg):
    try:
        result = estimate(corrs, cfg)
    except NoModelFound as exc:
        return ("NoModelFound", str(exc))
    if isinstance(result, tuple):
        h, flags, iterations, err = result
    else:
        h, flags = result.homography, result.inlier_flags
        iterations, err = result.iterations_run, result.mean_reproj_error
    return (h.m.tobytes(), flags.tobytes(), iterations, err)


def _problem(seed, n, outlier_fraction, variant):
    """Noisy matches of a random projective map with planted outliers and,
    per ``variant``, points on one line or stacked on one spot."""
    rng = np.random.default_rng(seed)
    m = np.eye(3) + rng.normal(0, [[0.05, 0.05, 30], [0.05, 0.05, 30], [2e-5, 2e-5, 0]])
    src = rng.uniform(0, 2000, (n, 2))
    if variant == "collinear":
        src[: n // 2, 1] = 0.5 * src[: n // 2, 0] + 100.0
    elif variant == "duplicate":
        src[: max(4, n // 3)] = src[0]
    elif variant == "all_collinear":
        src[:, 1] = 2.0 * src[:, 0] - 7.0
    z = m[2, 0] * src[:, 0] + m[2, 1] * src[:, 1] + m[2, 2]
    dst = np.stack(
        [
            (m[0, 0] * src[:, 0] + m[0, 1] * src[:, 1] + m[0, 2]) / z,
            (m[1, 0] * src[:, 0] + m[1, 1] * src[:, 1] + m[1, 2]) / z,
        ],
        axis=1,
    )
    dst += rng.normal(0, 0.4, dst.shape)
    k = int(round(outlier_fraction * n))
    dst[n - k:] = rng.uniform(0, 2000, (k, 2))
    if variant == "all_collinear":
        dst[:, 1] = 0.3 * dst[:, 0] + 40.0
    return stack(np.column_stack([src, dst]))


@functools.lru_cache(maxsize=None)
def _ref_outcome(seed, n, fraction, variant, max_iterations):
    """The sequential estimator's outcome on one `_problem`, computed once
    for all block splits."""
    corrs = _problem(seed, n, fraction, variant)
    return _outcome(_ref_ransac, corrs, RansacConfig(seed=seed, max_iterations=max_iterations))


# Block constants of `ransac_homography`: one sample per block, the
# doubling 8-16-32 schedule without a pair cap, the module defaults, the
# same values spelled out, the earlier 32-sample first block, and 64
# samples in every block.
BLOCK_SPLITS = {
    "1/1": dict(FIRST_BLOCK=1, MIN_BLOCK=1, MAX_BLOCK=1),
    "8/32": dict(FIRST_BLOCK=8, MIN_BLOCK=8, MAX_BLOCK=32, BLOCK_PAIRS=10**9),
    "default": {},
    "24/64": dict(FIRST_BLOCK=24, MIN_BLOCK=8, MAX_BLOCK=64, BLOCK_PAIRS=32768),
    "32/64": dict(FIRST_BLOCK=32, MIN_BLOCK=8, MAX_BLOCK=64, BLOCK_PAIRS=32768),
    "64/64": dict(FIRST_BLOCK=64, MIN_BLOCK=64, MAX_BLOCK=64),
}


class TestBlockRansacMatchesSequential:
    """Block evaluation must not change a single output bit."""

    def check(self, seed, n, fraction, variant, max_iterations):
        corrs = _problem(seed, n, fraction, variant)
        cfg = RansacConfig(seed=seed, max_iterations=max_iterations)
        expected = _ref_outcome(seed, n, fraction, variant, max_iterations)
        assert _outcome(ransac_homography, corrs, cfg) == expected
        return expected

    @pytest.mark.parametrize("split", BLOCK_SPLITS)
    def test_block_split_changes_nothing(self, split, monkeypatch):
        """The draws and the stop do not depend on how the samples are
        split into blocks, so neither does any outcome."""
        for name, value in BLOCK_SPLITS[split].items():
            monkeypatch.setattr(registration, name, value)
        for n, seeds, cap in ((8, range(12), 30), (100, range(10), 90), (1500, range(3), 40)):
            capped = 0
            for seed in seeds:
                fraction = (0.0, 0.3, 0.6)[seed % 3]
                variant = ("plain", "collinear", "duplicate")[(seed // 3) % 3]
                out = self.check(2000 + seed, n, fraction, variant, cap if seed % 2 else 5000)
                capped += out[-2] == cap
            assert capped > 0

    @pytest.mark.parametrize("n, problems", [(8, 120), (100, 60)])
    def test_small_and_campaign_sizes(self, n, problems):
        capped = 0
        for seed in range(problems):
            fraction = (0.0, 0.15, 0.3, 0.45, 0.6)[seed % 5]
            variant = ("plain", "collinear", "duplicate")[seed % 3]
            cap = 12 if seed % 4 == 0 else 150 if fraction == 0.6 else 600
            out = self.check(seed, n, fraction, variant, cap)
            capped += out[-2] == cap
        assert capped > 0

    def test_registration_size(self):
        capped = 0
        for seed in range(24):
            fraction = (0.0, 0.3, 0.6)[seed % 3]
            variant = ("plain", "collinear", "duplicate")[(seed // 3) % 3]
            cap = 40 if fraction == 0.6 else 5000
            out = self.check(1000 + seed, 1500, fraction, variant, cap)
            capped += out[-2] == cap
        assert capped > 0

    def test_no_model_found_message(self):
        for seed, cap in ((0, 5000), (1, 30), (2, 1)):
            corrs = _problem(seed, 12, 0.0, "all_collinear")
            cfg = RansacConfig(seed=seed, max_iterations=cap)
            expected = _outcome(_ref_ransac, corrs, cfg)
            assert expected == ("NoModelFound", f"no consensus of >= 4 inliers in {cap} iterations")
            assert _outcome(ransac_homography, corrs, cfg) == expected

    def test_non_finite_input_fails_as_before(self):
        corrs = _problem(5, 30, 0.2, "plain")
        corrs.src[3] = (float("nan"), 10.0)
        cfg = RansacConfig(seed=5, max_iterations=200)
        with pytest.raises(np.linalg.LinAlgError) as ref:
            _ref_ransac(corrs, cfg)
        with pytest.raises(np.linalg.LinAlgError) as new:
            ransac_homography(corrs, cfg)
        assert str(new.value) == str(ref.value)


def _edge_samples(rng, k):
    """(k, 4, 2) minimal samples: random points with NaN, +-inf, -0.0, huge
    and tiny entries mixed in, samples whose points all coincide, samples
    with three exactly collinear points, and samples a 10**-j offset away
    from that."""
    pts = rng.uniform(-10.0, 10.0, (k, 4, 2))
    palette = np.array([0.0, -0.0, 1.0, -1.0, 3.0, 1e-300, 1e300, np.nan, np.inf, -np.inf])
    special = rng.random(pts.shape) < 0.15
    pts[special] = rng.choice(palette, int(special.sum()))
    pts[0::7] = pts[0::7, :1]
    line = rng.integers(-50, 50, pts[1::5].shape).astype(float)
    line[:, 2] = 2.0 * line[:, 0] - line[:, 1]
    pts[1::5] = line
    near = rng.integers(-50, 50, pts[2::5].shape).astype(float)
    near[:, 3] = 2.0 * near[:, 1] - near[:, 2]
    near[:, 3, 1] += 10.0 ** -rng.integers(0, 16, len(near)) * rng.choice([-1.0, 1.0], len(near))
    pts[2::5] = near
    return pts


def _decision(fn, pts):
    """``fn(pts)``, or the type and message of the error it raises."""
    try:
        return bool(fn(pts))
    except np.linalg.LinAlgError as exc:
        return ("LinAlgError", str(exc))


class TestKernelsAtTheirEdges:
    """The batched kernels of the block evaluation against their one-at-a-time
    references, on inputs where IEEE corner cases decide the outcome."""

    def test_degenerate_screen_per_sample(self):
        rng = np.random.default_rng(11)
        pts = _edge_samples(rng, 6000)
        with np.errstate(all="ignore"):
            got = _degenerate_samples(pts)
        want = [_ref_sample_degenerate(sample) for sample in pts.tolist()]
        assert got.tolist() == want
        # both outcomes occur, and on samples holding NaN and inf too
        nonfinite = ~np.isfinite(pts).all(axis=(1, 2))
        assert 0 < got[nonfinite].sum() < nonfinite.sum()
        assert 0 < got[~nonfinite].sum() < (~nonfinite).sum()

    @pytest.mark.parametrize("eta", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("gain", [1.0, 1e5])
    def test_inlier_flags_per_matrix(self, eta, gain):
        """A map that enlarges by ``gain`` puts inliers' forward residuals
        up to almost 2*eta, the reach of the screen."""
        rng = np.random.default_rng(int(eta * 10))
        n = 400
        src = rng.uniform(0, 2000 / gain, (n, 2))
        truth = np.diag([gain, gain, 1.0]) @ (
            np.eye(3) + rng.normal(0, [[0.05, 0.05, 30 / gain], [0.05, 0.05, 30 / gain],
                                       [2e-5 * gain, 2e-5 * gain, 0]]))
        px, py, _ = project_array(truth, src)
        # offsets on the scale of eta, and 60 of length just below 2*eta
        offsets = rng.normal(0, eta, (n, 2))
        angle = rng.uniform(0, 2 * np.pi, 60)
        length = 2 * eta * (1 - 10.0 ** -rng.uniform(1, 7, 60))
        offsets[:60] = length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        dst = np.column_stack([px, py]) + offsets
        dst[-100:] = rng.uniform(0, 2000, (100, 2))
        ms = [truth @ (np.eye(3) + rng.normal(0, [[1e-4, 1e-4, 0.5 / gain],
                                                  [1e-4, 1e-4, 0.5 / gain], [0, 0, 0]]))
              for _ in range(12)]
        # matrices whose z is ~0 at some source points
        for i in (0, 17, 250):
            m = truth.copy()
            m[2, 0] = -(m[2, 1] * src[i, 1] + m[2, 2]) / src[i, 0]
            ms.append(m)
        ms.append(truth)
        flags = _inlier_flags(np.stack(ms), src, dst, eta)
        degenerate = 0
        for m, row in zip(ms, flags):
            errs = symmetric_errors(Homography(m), src, dst)
            assert row.tolist() == (errs <= eta).tolist()
            degenerate += np.isinf(errs).sum()
        assert degenerate > 0
        assert 0 < flags[-1].sum() < n

    def test_collinear_matches_the_svd_decision(self):
        rng = np.random.default_rng(5)
        sets = []
        for n in (3, 4, 50, 1500):
            t = rng.uniform(-1.0, 1.0, n)
            origin, step = rng.uniform(-3000, 3000, 2), rng.uniform(-2000, 2000, 2)
            line = origin + t[:, None] * step
            normal = np.array([-step[1], step[0]]) / np.hypot(*step)
            span = np.ptp(t) * np.hypot(*step)
            # offsets of 10**-k of the span straddle the 1e-9 ratio near k = 9
            for k in range(0, 17):
                for spread in (rng.normal(0, 1, n), np.where(np.arange(n) == 1, 1.0, 0.0)):
                    sets.append(line + (10.0 ** -k * span * spread)[:, None] * normal)
            sets.append(line)
            # traces whose square underflows or overflows
            for scale in (1e-80, 1e80):
                sets.append(line * scale)
                sets.append(rng.uniform(0, 1, (n, 2)) * scale)
            sets.append(np.repeat(origin[None], n, axis=0))
            sets.append(np.zeros((n, 2)))
            for bad in (np.nan, np.inf, -np.inf, 1e300):
                pts = rng.uniform(0, 2000, (n, 2))
                pts[n // 2, n % 2] = bad
                sets.append(pts)
        decisions = []
        for pts in sets:
            with np.errstate(all="ignore"):
                want, got = _decision(_ref_collinear, pts), _decision(_collinear, pts)
            assert got == want
            decisions.append(want)
        assert {True, False} <= set(decisions)
        assert any(isinstance(d, tuple) for d in decisions)


def _refit_sets():
    """(src, dst) pairs for the consensus refit: noisy projective matches of
    4 to 2000 points centered on the origin, at scales from 1e-150 to
    1e150, and the same points off the origin under a map with a
    translation; then collinear, near-collinear, coincident, NaN and
    infinite sets, alone and together (a collinear source before a NaN
    destination, and the other way)."""
    rng = np.random.default_rng(29)
    sets = []
    for n in (4, 5, 9, 70, 300, 2000):
        m = np.eye(3) + rng.normal(0, [[0.05, 0.05, 0], [0.05, 0.05, 0], [2e-5, 2e-5, 0]])
        src = rng.uniform(-1000, 1000, (n, 2))
        px, py, _ = project_array(m, src)
        dst = np.column_stack([px, py]) + rng.normal(0, 0.5, (n, 2))
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            sets.append((src * scale, dst * scale))
        sets.append((src + 1000.0, dst + np.array([1030.0, 960.0])))
    src, dst = rng.uniform(0, 2000, (2, 70, 2))
    t = rng.uniform(-1.0, 1.0, 70)
    line = np.column_stack([300.0 + 900.0 * t, -40.0 + 500.0 * t])
    sets.append((src[:3], dst[:3]))
    sets.append((line, dst))
    sets.append((src, line))
    for k in (6, 9, 12):
        bent = line.copy()
        bent[7, 1] += 10.0 ** -k * 900.0
        sets.append((bent, dst))
    sets.append((np.repeat(src[:1], 70, axis=0), dst))
    sets.append((src, np.repeat(dst[:1], 70, axis=0)))
    sets.append((np.zeros((70, 2)), np.zeros((70, 2))))
    for bad in (np.nan, np.inf, -np.inf):
        for which in (0, 1):
            pts = [src.copy(), dst.copy()]
            pts[which][11, which] = bad
            sets.append(tuple(pts))
        nan_dst = dst.copy()
        nan_dst[3, 0] = bad
        sets.append((line, nan_dst))
        nan_src = src.copy()
        nan_src[3, 1] = bad
        sets.append((nan_src, line))
    return sets


def _fit_outcome(fit, src, dst):
    """The matrix bytes of ``fit(src, dst)``, or the type and message of
    what it raised."""
    try:
        return fit(src, dst).m.tobytes()
    except (DegenerateConfiguration, InsufficientPoints, np.linalg.LinAlgError) as exc:
        return (type(exc).__name__, str(exc))


class TestConsensusRefit:
    """`dlt_homography` normalizes, checks and solves the source and
    destination sets as one stack, and `symmetric_errors` maps both ways in
    one call; both must give the bits, errors and messages of the
    one-set-at-a-time references."""

    def test_dlt_equals_the_reference(self):
        outcomes = []
        for src, dst in _refit_sets():
            with np.errstate(all="ignore"):  # the reference warns on inf - inf
                want = _fit_outcome(_ref_dlt, src, dst)
            assert _fit_outcome(dlt_homography, src, dst) == want
            outcomes.append(want if isinstance(want, tuple) else "fit")
        kinds = {o if o == "fit" else o[0] for o in outcomes}
        assert kinds == {"fit", "DegenerateConfiguration", "InsufficientPoints", "LinAlgError"}
        messages = {o[1] for o in outcomes if isinstance(o, tuple)}
        assert "correspondence points are collinear" in messages

    def test_symmetric_errors_equal_the_reference(self):
        checked = 0
        for src, dst in _refit_sets():
            try:
                h = dlt_homography(src, dst)
            except (DegenerateConfiguration, InsufficientPoints, np.linalg.LinAlgError):
                continue
            for s, d in ((src, dst), (dst, src), (src[::-1], dst)):
                with np.errstate(all="ignore"):
                    want = _ref_symmetric_errors(h, s, d)
                assert symmetric_errors(h, s, d).tobytes() == want.tobytes()
                checked += 1
        assert checked >= 30

    def test_non_finite_points_score_as_the_reference(self):
        rng = np.random.default_rng(4)
        h = Homography.from_matrix([[1.02, 0.01, 5.0], [-0.03, 0.98, -7.0], [1e-5, 2e-5, 1.0]])
        src = rng.uniform(0, 2000, (60, 2))
        dst = rng.uniform(0, 2000, (60, 2))
        src[::7] = rng.choice([np.nan, np.inf, -np.inf, 1e308], (9, 2))
        dst[3::7] = rng.choice([np.nan, np.inf, -np.inf, 1e308], (9, 2))
        with np.errstate(all="ignore"):
            want = _ref_symmetric_errors(h, src, dst)
        assert symmetric_errors(h, src, dst).tobytes() == want.tobytes()
        assert np.isinf(want).sum() >= 5 and np.isnan(want).any()


_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _benchmark_generator():
    spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestRegistrationAccuracy:
    """Frame maps estimated from the benchmark's synthetic matches against
    the camera maps the matches were made from. A frame's error is the
    largest distance, over the four corners of a 3840x2160 frame, between
    where the estimate and the true map send the corner.

    The inputs are those of the benchmark's tiny ``session_registered``
    workload (18 frames, 4 vehicles, 120 matches per frame, 30% outliers)
    with its ``--snn-ratio 0.9 --downscale 0.5``. Over seeds 0-9 a seed's
    median frame error measured 0.395-0.521 px and the largest frame
    error 0.966 px; the bounds allow 1.5x of each, rounded up.
    """

    MEDIAN_BOUND_PX = 0.8
    MAX_BOUND_PX = 1.5

    def test_corner_error_against_the_true_maps(self, tmp_path):
        gen = _benchmark_generator()
        spec = gen.SessionSpec(n_frames=18, n_vehicles=4, matches_per_frame=120)
        corners = np.array([(0.0, 0.0), (gen.FRAME_W, 0.0), (gen.FRAME_W, gen.FRAME_H),
                            (0.0, gen.FRAME_H)])
        params = StabilizeParams(snn_ratio=0.9, downscale=0.5)
        medians, worst = [], 0.0
        for seed in range(10):
            paths = gen.make_session(tmp_path / str(seed), seed, spec)["paths"]
            # make_session draws the camera first from this generator
            truth = gen._camera(np.random.default_rng([seed, 1]), spec.n_frames)
            tracks = load_tracks(paths["tracks"], paths["sidecar"])
            homs, _ = estimate_frame_homographies(
                tracks.columns(), paths["correspondences"], params, seed=seed)
            assert sorted(homs) == list(range(2, spec.n_frames + 1))
            errors = []
            for frame, h in homs.items():
                px, py, _ = project_array(h.m, corners)
                tx, ty, _ = project_array(truth[frame], corners)
                errors.append(float(np.hypot(px - tx, py - ty).max()))
            medians.append(float(np.median(errors)))
            worst = max(worst, max(errors))
        assert max(medians) <= self.MEDIAN_BOUND_PX
        assert worst <= self.MAX_BOUND_PX


class TestFrameEstimateReports:
    """`estimate_frame_homographies` reports each frame in full-resolution
    pixels, whatever the downscale of the estimate."""

    def test_downscaled_report_is_in_full_resolution_pixels(self, tmp_path):
        rng = np.random.default_rng(3)
        truth = translation(14.0, -9.0)
        rows = []
        for gx in range(200, 3700, 160):
            for gy in range(150, 2100, 160):
                dst = apply_homography(truth, Point2(gx, gy))
                rows.append((gx, gy, dst.x + rng.normal(0, 0.6), dst.y + rng.normal(0, 0.6)))
        rows += [tuple(rng.uniform(0, 2000, 4)) for _ in range(30)]
        with open(tmp_path / "2.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["src_x", "src_y", "dst_x", "dst_y"])
            writer.writerows(rows)
        # one small box in a corner the grid does not reach: nothing is masked
        columns = columns_of([make_point(2, 1, 3820.0, 2140.0, 10.0, 10.0)])
        homs, reports = estimate_frame_homographies(
            columns, tmp_path, StabilizeParams(downscale=0.5), seed=4)
        report = reports[2]
        assert report.homography is homs[2]
        assert len(report.inlier_flags) == len(rows)
        table = np.array(rows, dtype=float)
        errors = symmetric_errors(homs[2], table[:, :2], table[:, 2:])
        assert 0.3 < report.mean_reproj_error < 2.0
        assert report.mean_reproj_error == pytest.approx(
            errors[report.inlier_flags].mean(), rel=1e-9)
