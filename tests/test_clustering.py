"""Mean-shift clustering: mode recovery, merging, persistence, kernels."""

import math

import numpy as np
import pytest

from taxidest import _kernels
from taxidest.clustering import (
    ClusterSet,
    MeanShiftConfig,
    load_clusters,
    mean_shift,
    save_clusters,
)
from taxidest.geo import EARTH, GeoPoint, haversine_distance

R = EARTH.radius_m


def meters_to_latlon(east_m, north_m, lat0=41.15, lon0=-8.61):
    lat = lat0 + np.asarray(north_m) / (R * math.pi / 180)
    lon = lon0 + np.asarray(east_m) / (R * math.pi / 180 * math.cos(math.radians(lat0)))
    return np.stack([lat, lon], axis=-1)


def two_blobs(rng, n_per_blob=300, sigma_m=100.0, separation_m=5000.0):
    b1 = meters_to_latlon(rng.normal(0, sigma_m, n_per_blob), rng.normal(0, sigma_m, n_per_blob))
    b2 = meters_to_latlon(
        rng.normal(separation_m, sigma_m, n_per_blob), rng.normal(0, sigma_m, n_per_blob)
    )
    return b1, b2


def dist_m(a, b) -> float:
    return haversine_distance(GeoPoint(a[0], a[1]), GeoPoint(b[0], b[1]))


class TestMeanShift:
    def test_single_point(self):
        cs = mean_shift(np.array([[41.15, -8.61]]))
        assert cs.count == 1
        np.testing.assert_allclose(cs.centers[0], [41.15, -8.61])

    def test_two_blob_mode_recovery(self):
        rng = np.random.default_rng(21)
        b1, b2 = two_blobs(rng)
        cs = mean_shift(np.concatenate([b1, b2]), MeanShiftConfig(bandwidth_m=500))
        assert cs.count == 2
        tol = 3 * 100.0 / math.sqrt(len(b1))  # 3 sigma / sqrt(n) against the sample mean
        for blob in (b1, b2):
            sample_mean = blob.mean(axis=0)
            assert min(dist_m(sample_mean, c) for c in cs.centers) < tol

    def test_empty_input(self):
        with pytest.raises(ValueError):
            mean_shift(np.empty((0, 2)))

    def test_centers_within_input_bbox(self):
        rng = np.random.default_rng(3)
        pts = meters_to_latlon(rng.uniform(-3000, 3000, 400), rng.uniform(-3000, 3000, 400))
        cs = mean_shift(pts, MeanShiftConfig(bandwidth_m=800))
        assert (cs.centers[:, 0] >= pts[:, 0].min()).all()
        assert (cs.centers[:, 0] <= pts[:, 0].max()).all()
        assert (cs.centers[:, 1] >= pts[:, 1].min()).all()
        assert (cs.centers[:, 1] <= pts[:, 1].max()).all()

    def test_pairwise_center_distance_at_least_merge_radius(self):
        rng = np.random.default_rng(4)
        pts = meters_to_latlon(rng.uniform(-4000, 4000, 500), rng.uniform(-4000, 4000, 500))
        cfg = MeanShiftConfig(bandwidth_m=600, merge_radius_m=300)
        cs = mean_shift(pts, cfg)
        for i in range(cs.count):
            for j in range(i + 1, cs.count):
                assert dist_m(cs.centers[i], cs.centers[j]) >= cfg.merge_radius_m

    def test_idempotent_at_modes(self):
        rng = np.random.default_rng(5)
        b1, b2 = two_blobs(rng)
        pts = np.concatenate([b1, b2])
        cfg = MeanShiftConfig(bandwidth_m=500)
        cs = mean_shift(pts, cfg)
        again = mean_shift(pts, cfg, seeds=cs.centers)
        for c in cs.centers:
            assert min(dist_m(c, d) for d in again.centers) < 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = meters_to_latlon(rng.uniform(-2000, 2000, 300), rng.uniform(-2000, 2000, 300))
        a = mean_shift(pts, MeanShiftConfig())
        b = mean_shift(pts, MeanShiftConfig())
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_seed_subsample(self):
        rng = np.random.default_rng(7)
        b1, b2 = two_blobs(rng)
        cfg = MeanShiftConfig(bandwidth_m=500, seed_subsample=50)
        cs = mean_shift(np.concatenate([b1, b2]), cfg)
        assert cs.count == 2

    def test_geopoint_input(self):
        pts = [GeoPoint(41.15, -8.61), GeoPoint(41.1501, -8.6101)]
        cs = mean_shift(pts, MeanShiftConfig(bandwidth_m=500))
        assert cs.count == 1


class TestKernels:
    def test_iterate_seeds_matches_brute_force(self):
        # Each returned mode is the flat-kernel mean of its bandwidth ball,
        # the ball taken over all points rather than through the grid.
        rng = np.random.default_rng(8)
        b1, b2 = two_blobs(rng, n_per_blob=200)
        background = meters_to_latlon(rng.uniform(-2000, 7000, 100), rng.uniform(-3000, 3000, 100))
        pts = np.concatenate([b1, b2, background])
        bandwidth = 500.0
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], bandwidth, R)
        seeds = pts[::7]
        modes, iters = _kernels.iterate_seeds(grid, seeds[:, 0], seeds[:, 1], bandwidth, 100, R)
        assert modes.shape == (len(seeds), 2) and iters.shape == (len(seeds),)
        assert (iters >= 1).all() and (iters < 100).all()
        deg = math.pi / 180
        for m in modes:
            d_phi = (pts[:, 0] - m[0]) * deg
            d_lam = (pts[:, 1] - m[1]) * deg * np.cos(0.5 * (pts[:, 0] + m[0]) * deg)
            ball = pts[d_phi * d_phi + d_lam * d_lam <= (bandwidth / R) ** 2]
            assert len(ball) > 0
            np.testing.assert_allclose(m, ball.mean(axis=0), rtol=0, atol=1e-12)

    def test_scatter_add_matches_loop(self):
        rng = np.random.default_rng(9)
        idx = rng.integers(0, 7, 40)
        rows = rng.normal(0, 1, (40, 3))
        out = np.zeros((7, 3))
        _kernels.scatter_add_rows(out, idx, rows)
        expect = np.zeros((7, 3))
        for i, j in enumerate(idx):
            expect[j] += rows[i]
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestConfigValidation:
    def test_merge_radius_exceeds_bandwidth(self):
        with pytest.raises(ValueError):
            MeanShiftConfig(bandwidth_m=100, merge_radius_m=200)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            MeanShiftConfig(bandwidth_m=0)


class TestClusterIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        centers = meters_to_latlon(rng.uniform(-5000, 5000, 37), rng.uniform(-5000, 5000, 37))
        cs = ClusterSet(centers)
        path = tmp_path / "clusters.csv"
        save_clusters(cs, path)
        loaded = load_clusters(path)
        np.testing.assert_array_equal(loaded.centers, cs.centers)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("lat,lon\n")
        with pytest.raises(ValueError):
            load_clusters(path)

    def test_hand_written_rows(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("lat,lon\n41.1,-8.6\n41.2,-8.5\n41.3,-8.4\n")
        cs = load_clusters(path)
        assert cs.count == 3
        np.testing.assert_allclose(cs.centers[1], [41.2, -8.5])

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lat,lon\n41.1,-8.6\nnot,numbers\n")
        with pytest.raises(ValueError, match=":3"):
            load_clusters(path)

    def test_needs_a_center(self):
        with pytest.raises(ValueError):
            ClusterSet(np.empty((0, 2)))
