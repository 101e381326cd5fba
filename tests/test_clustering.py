"""Mean-shift clustering: mode recovery, merging, persistence, kernels."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from geo_reference import haversine_distance
from taxidest import _kernels, clustering
from taxidest.clustering import (
    ClusterSet,
    MeanShiftConfig,
    load_clusters,
    mean_shift,
    save_clusters,
)
from taxidest.data import DataError
from taxidest.geo import EARTH_RADIUS_M, GeoPoint

R = EARTH_RADIUS_M


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


def reference_iterate_seeds(grid, seeds_lat, seeds_lon, bandwidth_m, max_iterations, radius_m):
    """One seed at a time: the per-seed loop the batched kernel replaced,
    kept as the bit-exact reference for its modes and step counts."""
    deg = math.pi / 180.0
    n = seeds_lat.shape[0]
    out = np.empty((n, 2), dtype=np.float64)
    iters = np.zeros(n, dtype=np.int64)
    bw2 = (bandwidth_m / radius_m) ** 2
    lat_r = grid.lat * deg
    lon_r = grid.lon * deg
    for s in range(n):
        y_lat = float(seeds_lat[s])
        y_lon = float(seeds_lon[s])
        it = 0
        while it < max_iterations:
            it += 1
            members = reference_window_members(grid, lat_r, lon_r, y_lat, y_lon, bw2)
            if members.size == 0:
                break
            new_lat = float(np.mean(grid.lat[members]))
            new_lon = float(np.mean(grid.lon[members]))
            d_phi = (new_lat - y_lat) * deg
            d_lam = (new_lon - y_lon) * deg * math.cos(0.5 * (new_lat + y_lat) * deg)
            shift_m = radius_m * math.hypot(d_phi, d_lam)
            y_lat, y_lon = new_lat, new_lon
            if shift_m == 0.0:
                break
        out[s, 0] = y_lat
        out[s, 1] = y_lon
        iters[s] = it
    return out, iters


def reference_window_members(grid, lat_r, lon_r, y_lat, y_lon, bw2):
    deg = math.pi / 180.0
    r = int(math.floor((y_lat - grid.lat0) / grid.cell_lat))
    c = int(math.floor((y_lon - grid.lon0) / grid.cell_lon))
    if r < -1 or r > grid.n_rows or c < -1 or c > grid.n_cols:
        return np.empty(0, dtype=np.int64)
    chunks = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            key = (r + dr + 1) * grid.key_stride + (c + dc + 1)
            j = np.searchsorted(grid.cell_keys, key)
            if j < grid.cell_keys.size and grid.cell_keys[j] == key:
                a = grid.cell_start[j]
                chunks.append(grid.order[a : a + grid.cell_count[j]])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    cand = np.concatenate(chunks)
    y_phi = y_lat * deg
    d_phi = lat_r[cand] - y_phi
    d_lam = (lon_r[cand] - y_lon * deg) * np.cos(0.5 * (lat_r[cand] + y_phi))
    within = d_phi * d_phi + d_lam * d_lam <= bw2
    return cand[within]


def reference_cell_seeds(pts, bandwidth_m):
    """The first point, in input order, of each occupied cell of a grid with
    cells half the bandwidth wide; longitude cells are sized at the largest
    |lat|, as in the kernels' grid."""
    deg = math.pi / 180.0
    cell_lat = bandwidth_m / 2 / R / deg
    cell_lon = bandwidth_m / 2 / (R * math.cos(float(np.abs(pts[:, 0]).max()) * deg)) / deg
    lat0, lon0 = pts[:, 0].min(), pts[:, 1].min()
    first = {}
    for lat, lon in pts:
        first.setdefault((math.floor((lat - lat0) / cell_lat), math.floor((lon - lon0) / cell_lon)), (lat, lon))
    return np.array(list(first.values()))


def spy_seeds(monkeypatch):
    """Record the seeds of every ``_kernels.iterate_seeds`` call."""
    seen = []
    iterate_seeds = _kernels.iterate_seeds

    def spy(grid, seeds_lat, seeds_lon, *args):
        seen.append(np.column_stack([seeds_lat, seeds_lon]))
        return iterate_seeds(grid, seeds_lat, seeds_lon, *args)

    monkeypatch.setattr(_kernels, "iterate_seeds", spy)
    return seen


def reference_merge_modes(modes, merge_radius_m):
    """Greedy merge checking each mode against every accepted one."""
    uniq, first_idx, counts = np.unique(modes, axis=0, return_index=True, return_counts=True)
    accepted = []
    for i in np.lexsort((first_idx, -counts)):
        m = uniq[i]
        if accepted and float(clustering._equirect_m(m, np.asarray(accepted)).min()) < merge_radius_m:
            continue
        accepted.append(m)
    return np.asarray(accepted)


def blobs_and_background(seed=8, n_per_blob=200, n_background=100):
    rng = np.random.default_rng(seed)
    b1, b2 = two_blobs(rng, n_per_blob=n_per_blob)
    background = meters_to_latlon(
        rng.uniform(-2000, 7000, n_background), rng.uniform(-3000, 3000, n_background)
    )
    return np.concatenate([b1, b2, background])


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert hashlib.sha1(a.tobytes()).digest() == hashlib.sha1(b.tobytes()).digest()


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
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], cfg.bandwidth_m)
        again, _ = _kernels.iterate_seeds(grid, cs.centers[:, 0], cs.centers[:, 1], cfg.bandwidth_m, cfg.max_iterations)
        for c, d in zip(cs.centers, again):
            assert dist_m(c, d) < 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = meters_to_latlon(rng.uniform(-2000, 2000, 300), rng.uniform(-2000, 2000, 300))
        a = mean_shift(pts, MeanShiftConfig())
        b = mean_shift(pts, MeanShiftConfig())
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_default_seeds_are_first_point_per_half_bandwidth_cell(self, monkeypatch):
        seen = spy_seeds(monkeypatch)
        pts = blobs_and_background(seed=19, n_background=300)
        mean_shift(pts, MeanShiftConfig(bandwidth_m=400, merge_radius_m=300))
        want = reference_cell_seeds(pts, 400.0)
        assert len(seen) == 1 and 1 < len(want) < len(pts)
        assert_bit_identical(seen[0], want)

    def test_seed_count_bounded_by_area(self, monkeypatch):
        # 250 m cells over a 1 km square: at most 4 + 2 cells per axis
        # whatever the alignment, however many points.
        seen = spy_seeds(monkeypatch)
        rng = np.random.default_rng(20)
        pts = meters_to_latlon(rng.uniform(0, 1000, 20_000), rng.uniform(0, 1000, 20_000))
        mean_shift(pts, MeanShiftConfig(bandwidth_m=500))
        assert len(seen[0]) <= (1000 // 250 + 2) ** 2


class TestKernels:
    def test_iterate_seeds_matches_brute_force(self):
        # Each returned mode is the flat-kernel mean of its bandwidth ball,
        # the ball taken over all points rather than through the grid.
        pts = blobs_and_background()
        bandwidth = 500.0
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], bandwidth)
        seeds = pts[::7]
        modes, iters = _kernels.iterate_seeds(grid, seeds[:, 0], seeds[:, 1], bandwidth, 100)
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


class TestBatchedIterateSeeds:
    """The batched kernel against the per-seed reference, bit for bit."""

    @staticmethod
    def both(pts, seeds, bandwidth=500.0, max_iterations=100):
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], bandwidth)
        got = _kernels.iterate_seeds(grid, seeds[:, 0], seeds[:, 1], bandwidth, max_iterations)
        want = reference_iterate_seeds(grid, seeds[:, 0], seeds[:, 1], bandwidth, max_iterations, R)
        return got, want

    def assert_same(self, got, want):
        assert_bit_identical(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_blobs_and_background(self):
        pts = blobs_and_background()
        got, want = self.both(pts, pts)
        self.assert_same(got, want)
        assert want[1].max() > 2  # seeds took several steps

    def test_duplicate_seeds(self):
        pts = blobs_and_background(seed=11)
        seeds = np.concatenate([pts[:40], pts[:40], pts[5:6], pts[380:420:3]])
        got, want = self.both(pts, seeds)
        self.assert_same(got, want)

    def test_seeds_outside_grid(self):
        pts = blobs_and_background(seed=12)
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], 500.0)
        # The first four sit more than a cell outside the grid.  The fifth
        # is in the last ring of cells the lookup covers, beyond the
        # north-east corner of the points, with no point within 500 m.
        corner = pts.max(axis=0) + 0.4 * np.array([grid.cell_lat, grid.cell_lon])
        far = np.array([[41.5, -8.61], [40.8, -8.61], [41.15, -9.5], [41.15, -7.9], corner])
        seeds = np.concatenate([pts[:20], far])
        got, want = self.both(pts, seeds)
        self.assert_same(got, want)
        # Empty ball: one step, position unchanged.
        assert_bit_identical(got[0][20:], far)
        np.testing.assert_array_equal(got[1][20:], 1)

    @pytest.mark.parametrize("max_iterations", [1, 2])
    def test_few_iterations(self, max_iterations):
        pts = blobs_and_background(seed=13)
        got, want = self.both(pts, pts, max_iterations=max_iterations)
        self.assert_same(got, want)
        assert got[1].max() == max_iterations

    def test_many_chunks(self, monkeypatch):
        # A cap of 60 pairs puts most positions in chunks of a few and every
        # blob position alone in a chunk above the cap.
        pts = blobs_and_background(seed=14, n_per_blob=120, n_background=60)
        monkeypatch.setattr(_kernels, "CHUNK_PAIRS", 60)
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], 500.0)
        chunks = [(lo, hi, counts.sum()) for lo, hi, counts, _ in
                  _kernels.neighbour_chunks(grid, pts[:, 0], pts[:, 1])]
        assert len(chunks) > 100
        assert any(hi - lo == 1 and pairs > 60 for lo, hi, pairs in chunks)
        assert any(hi - lo > 1 for lo, hi, _ in chunks)
        assert all(pairs <= 60 for lo, hi, pairs in chunks if hi - lo > 1)
        got, want = self.both(pts, pts)
        self.assert_same(got, want)

    def test_neighbour_chunks_list_each_block(self):
        pts = blobs_and_background(seed=15)
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], 500.0)
        lat_r, lon_r = grid.lat * math.pi / 180, grid.lon * math.pi / 180
        queries = np.concatenate([pts[::9], [[41.5, -8.61]]])
        for lo, hi, counts, slots in _kernels.neighbour_chunks(grid, queries[:, 0], queries[:, 1]):
            runs = np.split(grid.order[slots], np.cumsum(counts)[:-1])
            for q, run in zip(queries[lo:hi], runs):
                # Every candidate within an infinite bandwidth is the whole
                # 3x3 block, in the reference's order.
                want = reference_window_members(grid, lat_r, lon_r, q[0], q[1], np.inf)
                np.testing.assert_array_equal(run, want)

    def test_memory_bounded_on_dense_blob(self):
        # 4 000 points in one 100 m blob: every position's 3x3 block holds
        # all of them, 16 M pairs in the first pass (128 MB as one int64
        # array); chunks keep the peak to a few arrays of CHUNK_PAIRS.
        rng = np.random.default_rng(16)
        pts = meters_to_latlon(rng.normal(0, 100, 4000), rng.normal(0, 100, 4000))
        tracemalloc.start()
        try:
            mean_shift(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * _kernels.CHUNK_PAIRS * 8 + 2**20


class TestMergeModes:
    def test_matches_greedy_reference_with_tied_counts(self):
        # Modes on a 200 m lattice (merge radius 250 m: each one close to its
        # 4 or 8 lattice neighbours), every mode repeated 3 times so basin
        # counts tie and first-seed order decides, plus a few with more.
        rng = np.random.default_rng(17)
        lattice = meters_to_latlon(*np.meshgrid(np.arange(0, 2000, 200.0), np.arange(0, 1600, 200.0)))
        lattice = lattice.reshape(-1, 2)
        lattice += rng.normal(0, 1e-5, lattice.shape)
        modes = np.concatenate([lattice, lattice[::-1], lattice[rng.permutation(len(lattice))],
                                lattice[[7, 30, 55]]])
        got = clustering._merge_modes(modes, 250.0)
        want = reference_merge_modes(modes, 250.0)
        assert_bit_identical(got, want)
        assert 1 < len(got) < len(lattice)

    def test_mean_shift_output_matches_reference_merge(self):
        pts = blobs_and_background(seed=18, n_background=400)
        cfg = MeanShiftConfig(bandwidth_m=400, merge_radius_m=300)
        grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], cfg.bandwidth_m)
        seeds = reference_cell_seeds(pts, cfg.bandwidth_m)
        modes, _ = reference_iterate_seeds(grid, seeds[:, 0], seeds[:, 1], cfg.bandwidth_m, cfg.max_iterations, R)
        assert_bit_identical(mean_shift(pts, cfg).centers, reference_merge_modes(modes, cfg.merge_radius_m))


class TestConfigValidation:
    def test_merge_radius_exceeds_bandwidth(self):
        with pytest.raises(ValueError):
            MeanShiftConfig(bandwidth_m=100, merge_radius_m=200)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            MeanShiftConfig(bandwidth_m=0)

    @pytest.mark.parametrize(
        "field, value",
        [("bandwidth_m", math.nan), ("bandwidth_m", math.inf), ("merge_radius_m", math.nan), ("merge_radius_m", -1.0)],
    )
    def test_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match="finite and > 0"):
            MeanShiftConfig(**{field: value})


class TestClusterIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        centers = meters_to_latlon(rng.uniform(-5000, 5000, 37), rng.uniform(-5000, 5000, 37))
        cs = ClusterSet(centers)
        path = tmp_path / "clusters.csv"
        save_clusters(cs, path)
        loaded = load_clusters(path)
        np.testing.assert_array_equal(loaded.centers, cs.centers)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "clusters.csv"
        save_clusters(ClusterSet(np.array([[41.1, -8.6], [41.2, -8.5]])), path)
        old = path.read_bytes()
        broken = ClusterSet(np.array([[41.3, -8.4]]))
        broken.centers = [(41.3, -8.4), None]  # the second row fails mid-write
        with pytest.raises(TypeError):
            save_clusters(broken, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["clusters.csv"]

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("lat,lon\n")
        with pytest.raises(DataError):
            load_clusters(path)

    def test_hand_written_rows(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("lat,lon\n41.1,-8.6\n41.2,-8.5\n41.3,-8.4\n")
        cs = load_clusters(path)
        assert cs.count == 3
        np.testing.assert_allclose(cs.centers[1], [41.2, -8.5])

    def test_cut_in_last_number_rejected(self, tmp_path):
        path = tmp_path / "cut.csv"
        path.write_text("lat,lon\n41.1,-8.6\n41.2,-8.")
        with pytest.raises(DataError, match="no line end") as err:
            load_clusters(path)
        assert f"{path}:3" in str(err.value)
        path.write_text("lat,lon\n41.1,-8.6\n41.2,-8.\n")  # the line end restored
        np.testing.assert_array_equal(load_clusters(path).centers, [[41.1, -8.6], [41.2, -8.0]])

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lat,lon\n41.1,-8.6\nnot,numbers\n")
        with pytest.raises(DataError, match=":3"):
            load_clusters(path)

    def test_byte_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"lat,lon\n41.1,-8.6\n41.2,-8.\xff5\n")
        with pytest.raises(DataError) as err:
            load_clusters(path)
        assert str(err.value) == f"{path}:3: byte 0xff is not UTF-8"

    def test_byte_not_utf8_past_the_first_chunk(self, tmp_path):
        rows = b"41.1,-8.6\n" * 1000  # 10 KB, past a text reader's first 8 KB chunk
        path = tmp_path / "bad.csv"
        path.write_bytes(b"lat,lon\n" + rows + b"41.2,\xfe-8.5\n" + rows)
        with pytest.raises(DataError) as err:
            load_clusters(path)
        assert str(err.value) == f"{path}:1002: byte 0xfe is not UTF-8"

    def test_line_ends_as_in_text_mode(self, tmp_path):
        path = tmp_path / "ends.csv"
        path.write_bytes(b"lat,lon\r\n41.1,-8.6\r41.2,-8.5\r\n\n41.3,-8.4\r")
        np.testing.assert_array_equal(load_clusters(path).centers, [[41.1, -8.6], [41.2, -8.5], [41.3, -8.4]])

    @pytest.mark.parametrize("row", ["nan,-8.6", "41.1,inf", "100,-8.6", "41.1,-200"])
    def test_centre_not_finite_or_out_of_range_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"lat,lon\n41.1,-8.6\n{row}\n")
        with pytest.raises(DataError, match="not finite") as err:
            load_clusters(path)
        assert f"{path}:3" in str(err.value)

    @pytest.mark.parametrize("row", ["41.1,-8_6", "41.1,-8.\u0666", "41.1,-8.6\x1f", "\t41.1,-8.6", "0x29,-8.6"])
    def test_number_outside_the_ascii_grammar_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"lat,lon\n41.1,-8.6\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a coordinate pair") as err:
            load_clusters(path)
        assert str(err.value).startswith(f"{path}:3: ")

    def test_spaces_integers_and_exponents_load(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text("lat,lon\n  41 , -8\n+4.1e1,-.86E1\n41.,8.\n")
        np.testing.assert_array_equal(load_clusters(path).centers, [[41, -8], [41, -8.6], [41, 8]])

    def test_needs_a_center(self):
        with pytest.raises(ValueError):
            ClusterSet(np.empty((0, 2)))

    @pytest.mark.parametrize("centre", [(95.0, -8.6), (41.1, -181.0), (np.nan, -8.6), (41.1, np.inf)])
    def test_centre_off_the_earth_rejected(self, centre):
        with pytest.raises(ValueError, match=r"centre 1 is .*need finite"):
            ClusterSet(np.array([[41.1, -8.6], centre]))
