"""CSV parsing, vocabularies, time features, prefixes, splits, cache."""

import io
import json
import os
import struct

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import make_records
from taxidest import models
from taxidest.clustering import ClusterSet
from taxidest.data import (
    CsvParseError,
    DataError,
    MetadataVocab,
    PrefixSampler,
    TrainRecord,
    build_vocab,
    fit_standardization,
    load_records,
    make_prefix_example,
    parse_csv,
    save_records,
    split_dataset,
    time_features,
)
from taxidest.geo import StandardizationStats, unstandardize

HEADER = "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"


def parse_rows(*rows):
    return list(parse_csv(io.StringIO(HEADER + "".join(rows))))


class TestParseCsv:
    def test_single_pair_reordered(self):
        recs = parse_rows('1,C,,,20000001,1372636858,A,False,"[[-8.61,41.14]]"\n')
        assert len(recs) == 1
        np.testing.assert_allclose(recs[0].polyline, [[41.14, -8.61]])
        assert recs[0].usable

    def test_empty_polyline_flagged(self):
        recs = parse_rows('1,C,,,1,0,A,False,"[]"\n')
        assert len(recs[0].polyline) == 0
        assert not recs[0].usable

    def test_missing_data_flagged(self):
        recs = parse_rows('1,C,,,1,0,A,True,"[[-8.61,41.14]]"\n')
        assert not recs[0].usable

    def test_call_type_phone(self):
        recs = parse_rows('1,A,2002,,1,0,A,False,"[[-8.61,41.14]]"\n')
        assert recs[0].call_type == "phone"
        assert recs[0].origin_call == 2002
        assert recs[0].origin_stand is None

    def test_call_type_stand(self):
        recs = parse_rows('1,B,,15,1,0,A,False,"[[-8.61,41.14]]"\n')
        assert recs[0].call_type == "stand"
        assert recs[0].origin_stand == 15

    def test_bad_polyline_json_reports_line(self):
        with pytest.raises(CsvParseError) as e:
            parse_rows('1,C,,,1,0,A,False,"[[-8.61,41.14]"\n')
        assert e.value.line == 2
        assert e.value.column == "POLYLINE"

    def test_bad_call_type(self):
        with pytest.raises(CsvParseError) as e:
            parse_rows('1,X,,,1,0,A,False,"[]"\n')
        assert e.value.column == "CALL_TYPE"

    def test_missing_column(self):
        with pytest.raises(CsvParseError):
            list(parse_csv(io.StringIO("TRIP_ID,CALL_TYPE\n")))

    @pytest.mark.parametrize(
        "polyline",
        [
            "[[-8.61,NaN],[-8.6,41.0]]",
            "[[-8.61,41.14],[NaN,41.0]]",
            "[[-8.61,41.14],[-8.6,Infinity]]",
            "[[-Infinity,41.14]]",
            "[[-8.61,41.14],[-8.6,141.0]]",
            "[[-8.61,-90.5]]",
            "[[180.01,41.14]]",
            "[[-200.0,41.14]]",
        ],
    )
    def test_bad_coordinates_rejected(self, polyline):
        with pytest.raises(CsvParseError) as e:
            parse_rows('1,C,,,1,0,A,False,"[[-8.61,41.14]]"\n' f'2,C,,,1,0,A,False,"{polyline}"\n')
        assert e.value.line == 3
        assert e.value.column == "POLYLINE"

    def test_coordinate_limits_accepted(self):
        recs = parse_rows('1,C,,,1,0,A,False,"[[-180.0,90.0],[180.0,-90.0]]"\n')
        np.testing.assert_array_equal(recs[0].polyline, [[90.0, -180.0], [-90.0, 180.0]])

    def test_non_numeric_coordinate(self):
        with pytest.raises(CsvParseError) as e:
            parse_rows('1,C,,,1,0,A,False,"[[-8.61,""north""]]"\n')
        assert e.value.column == "POLYLINE"

    def test_bytes_stream(self):
        text = HEADER + '1,C,,,1,0,A,False,"[[-8.61,41.14]]"\n'
        recs = list(parse_csv(io.BytesIO(text.encode())))
        assert len(recs) == 1


class TestVocab:
    def test_empty_input(self):
        v = build_vocab([])
        assert (v.client_size, v.taxi_size, v.stand_size) == (1, 1, 1)

    def test_dedup(self):
        rng = np.random.default_rng(0)
        recs = make_records([1, 1, 1], rng)
        recs[0].origin_call = 7
        recs[1].origin_call = 7
        recs[2].origin_call = 9
        v = build_vocab(recs)
        assert v.client_size == 3

    def test_unseen_maps_to_unk(self):
        v = MetadataVocab(client_map={7: 1})
        assert v.client_index(7) == 1
        assert v.client_index(12345) == 0
        assert v.client_index(None) == 0

    def test_indices_contiguous_from_one(self):
        rng = np.random.default_rng(1)
        recs = make_records([1] * 10, rng)
        for i, r in enumerate(recs):
            r.origin_call = 100 + i
        v = build_vocab(recs)
        assert sorted(v.client_map.values()) == list(range(1, 11))
        for raw in v.client_map:
            assert 0 < v.client_index(raw) < v.client_size

    def test_json_round_trip(self):
        v = MetadataVocab(client_map={7: 1, 9: 2}, taxi_map={5: 1}, stand_map={})
        assert MetadataVocab.from_json(v.to_json()) == v


class TestTimeFeatures:
    # time_features returns (quarter_hour, day_of_week, week_of_year) arrays.
    def test_epoch(self):
        # 1970-01-01 00:00 UTC was a Thursday in ISO week 1.
        assert time_features(0) == (0, 3, 0)

    def test_quarter_increment(self):
        assert time_features(15 * 60) == (1, 3, 0)

    def test_iso_week_53_clamps(self):
        # 2015-12-31 falls in ISO week 53 of 2015.
        _, _, week = time_features(1451520000)
        assert week == 51

    def test_year_end_week_1(self):
        # 2014-12-29 is a Monday in ISO week 1 of 2015.
        _, day, week = time_features(1419811200)
        assert (day, week) == (0, 0)

    def test_arrays_keep_their_shape(self):
        ts = np.array([[0, 15 * 60], [1419811200, 1451520000]])
        quarter, day, week = time_features(ts)
        assert quarter.shape == day.shape == week.shape == (2, 2)
        assert quarter.dtype == day.dtype == week.dtype == np.int64
        np.testing.assert_array_equal(week, [[0, 0], [0, 51]])


class TestMakePrefixExample:
    """Examples are (record, cut) pairs; the windows come from the model's
    featurization, here of a float64 ``mlp_clusters`` model with the stats."""

    STATS = StandardizationStats(41.15, -8.61, 0.02, 0.03)
    VOCAB = MetadataVocab()

    def _record(self, n):
        rng = np.random.default_rng(42)
        return make_records([n], rng)[0]

    def windows(self, rec, cut, k):
        """(first_k, last_k) standardized windows of the prefix, each (k, 2)."""
        config = models.ModelConfig(variant="mlp_clusters", k=k, hidden=2, dtype="float64")
        model = models.build_model(config, ClusterSet(rec.polyline[-1:]), self.STATS, self.VOCAB)
        ex = make_prefix_example(rec, cut, k, self.STATS, self.VOCAB)
        assert ex.record is rec and ex.cut == cut
        gps = models.featurize(model, [ex]).gps
        assert gps.shape == (1, 4 * k)
        return gps[0, : 2 * k].reshape(k, 2), gps[0, 2 * k :].reshape(k, 2)

    def test_full_windows_no_padding(self):
        rec = self._record(12)
        first_k, last_k = self.windows(rec, 12, 5)
        std = (rec.polyline - [41.15, -8.61]) / [0.02, 0.03]
        np.testing.assert_allclose(first_k, std[:5])
        np.testing.assert_allclose(last_k, std[7:12])

    def test_overlapping_windows(self):
        rec = self._record(12)
        first_k, last_k = self.windows(rec, 7, 5)
        std = (rec.polyline[:7] - [41.15, -8.61]) / [0.02, 0.03]
        np.testing.assert_allclose(first_k, std[0:5])
        np.testing.assert_allclose(last_k, std[2:7])

    def test_short_prefix_padding(self):
        rec = self._record(12)
        first_k, last_k = self.windows(rec, 2, 5)
        std = (rec.polyline[:2] - [41.15, -8.61]) / [0.02, 0.03]
        # first_k tail-pads with the prefix's last point
        np.testing.assert_allclose(first_k, std[[0, 1, 1, 1, 1]])
        # last_k head-pads with the prefix's first point
        np.testing.assert_allclose(last_k, std[[0, 0, 0, 0, 1]])

    def test_target_is_final_polyline_point(self):
        rec = self._record(9)
        ex = make_prefix_example(rec, 3, 5, self.STATS, self.VOCAB)
        assert ex.target.lat == rec.polyline[-1, 0]
        assert ex.target.lon == rec.polyline[-1, 1]
        assert ex.trip_id == rec.trip_id
        np.testing.assert_array_equal(models.destinations([ex]), rec.polyline[-1:])

    def test_cut_out_of_range(self):
        rec = self._record(4)
        with pytest.raises(ValueError):
            make_prefix_example(rec, 5, 3, self.STATS, self.VOCAB)
        with pytest.raises(ValueError):
            make_prefix_example(rec, 0, 3, self.STATS, self.VOCAB)
        with pytest.raises(ValueError, match="k must be >= 1"):
            make_prefix_example(rec, 2, 0, self.STATS, self.VOCAB)

    def test_windows_always_k_and_first_point_recoverable(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 9):
            rec = make_records([n], rng)[0]
            for cut in range(1, n + 1):
                first_k, last_k = self.windows(rec, cut, 4)
                assert first_k.shape == (4, 2)
                assert last_k.shape == (4, 2)
                p = unstandardize(tuple(first_k[0]), self.STATS)
                assert p.lat == pytest.approx(rec.polyline[0, 0], abs=1e-9)
                assert p.lon == pytest.approx(rec.polyline[0, 1], abs=1e-9)


class TestPrefixCounting:
    def test_single_record(self):
        rng = np.random.default_rng(0)
        assert PrefixSampler(make_records([10], rng)).total_prefixes == 10

    def test_two_records(self):
        rng = np.random.default_rng(0)
        assert PrefixSampler(make_records([1, 3], rng)).total_prefixes == 4

    def test_skips_unusable(self):
        rng = np.random.default_rng(0)
        recs = make_records([5, 5], rng)
        recs[0].missing_data = True
        assert PrefixSampler(recs).total_prefixes == 5


class TestSamplePrefix:
    def test_single_length_one(self):
        rng = np.random.default_rng(0)
        recs = make_records([1], rng)
        rec, cut = PrefixSampler(recs).sample(np.random.default_rng(1))
        assert rec is recs[0] and cut == 1

    def test_record_probability_proportional_to_length(self):
        rng = np.random.default_rng(0)
        recs = make_records([1, 3], rng)
        sampler = PrefixSampler(recs)
        g = np.random.default_rng(123)
        first = sum(sampler.sample(g)[0] is recs[0] for _ in range(100_000))
        chi2, p = scipy_stats.chisquare([first, 100_000 - first], [25_000, 75_000])
        assert p > 0.01

    def test_cut_uniform_given_record(self):
        rng = np.random.default_rng(0)
        recs = make_records([3], rng)
        sampler = PrefixSampler(recs)
        g = np.random.default_rng(77)
        counts = np.zeros(3)
        for _ in range(30_000):
            _, cut = sampler.sample(g)
            counts[cut - 1] += 1
        chi2, p = scipy_stats.chisquare(counts)
        assert p > 0.01

    def test_no_usable_records(self):
        rng = np.random.default_rng(0)
        recs = make_records([3], rng)
        recs[0].missing_data = True
        with pytest.raises(DataError):
            PrefixSampler(recs)


class TestSplitDataset:
    def test_sizes_and_disjoint(self):
        rng = np.random.default_rng(0)
        recs = make_records([2] * 10, rng)
        split = split_dataset(recs, np.random.default_rng(4), 2, 3)
        assert (len(split.train), len(split.validation), len(split.test)) == (5, 2, 3)
        ids = [
            {r.trip_id for r in split.train},
            {r.trip_id for r in split.validation},
            {r.trip_id for r in split.test},
        ]
        assert ids[0] | ids[1] | ids[2] == {r.trip_id for r in recs}
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_zero_val_test(self):
        rng = np.random.default_rng(0)
        recs = make_records([2] * 4, rng)
        split = split_dataset(recs, np.random.default_rng(0), 0, 0)
        assert len(split.train) == 4 and not split.validation and not split.test

    def test_insufficient_records(self):
        rng = np.random.default_rng(0)
        recs = make_records([2] * 4, rng)
        with pytest.raises(DataError):
            split_dataset(recs, np.random.default_rng(0), 2, 2)

    @pytest.mark.parametrize("n_val, n_test", [(-5, 3), (3, -1)])
    def test_negative_counts(self, n_val, n_test):
        recs = make_records([2] * 60, np.random.default_rng(0))
        with pytest.raises(DataError, match="non-negative"):
            split_dataset(recs, np.random.default_rng(0), n_val, n_test)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        recs = make_records([2] * 10, rng)
        a = split_dataset(recs, np.random.default_rng(9), 3, 3)
        b = split_dataset(recs, np.random.default_rng(9), 3, 3)
        assert [r.trip_id for r in a.train] == [r.trip_id for r in b.train]
        assert [r.trip_id for r in a.test] == [r.trip_id for r in b.test]


class TestFitStandardization:
    def test_hand_case(self):
        recs = [
            TrainRecord("a", "street", None, None, 1, 0, False, np.array([[41.0, -8.0]])),
            TrainRecord("b", "street", None, None, 1, 0, False, np.array([[43.0, -8.0]])),
        ]
        stats = fit_standardization(recs)
        assert stats.mean_lat == 42.0 and stats.mean_lon == -8.0
        assert stats.std_lat == 1.0
        assert stats.std_lon == 1.0  # zero-variance guard

    def test_degenerate_single_point_repeated(self):
        recs = [
            TrainRecord(
                "a", "street", None, None, 1, 0, False, np.tile([[41.5, -8.5]], (4, 1))
            )
        ]
        stats = fit_standardization(recs)
        assert stats.std_lat == 1.0 and stats.std_lon == 1.0

    def test_too_few_points(self):
        recs = [TrainRecord("a", "street", None, None, 1, 0, False, np.array([[41.0, -8.0]]))]
        with pytest.raises(DataError):
            fit_standardization(recs)

    def test_standardized_points_are_zero_mean_unit_variance(self):
        rng = np.random.default_rng(2)
        recs = make_records([20, 35, 11], rng)
        stats = fit_standardization(recs)
        pts = np.concatenate([r.polyline for r in recs])
        std = (pts - [stats.mean_lat, stats.mean_lon]) / [stats.std_lat, stats.std_lon]
        assert np.abs(std.mean(axis=0)).max() < 1e-6
        assert np.abs(std.var(axis=0) - 1.0).max() < 1e-6


class TestRecordCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        recs = make_records([3, 1, 7], rng)
        recs[0].origin_call = None
        recs[0].origin_stand = 4
        recs[0].call_type = "stand"
        recs[2].missing_data = True
        path = tmp_path / "cache.bin"
        save_records(recs, path)
        loaded = load_records(path)
        assert len(loaded) == 3
        for a, b in zip(recs, loaded):
            assert a.trip_id == b.trip_id
            assert a.call_type == b.call_type
            assert a.origin_call == b.origin_call
            assert a.origin_stand == b.origin_stand
            assert a.taxi_id == b.taxi_id
            assert a.timestamp == b.timestamp
            assert a.missing_data == b.missing_data
            np.testing.assert_array_equal(a.polyline, b.polyline)

    def _saved(self, tmp_path):
        recs = make_records([3, 1, 7], np.random.default_rng(2))
        path = tmp_path / "cache.bin"
        save_records(recs, path)
        return path, path.read_bytes()

    @staticmethod
    def _columns(blob):
        """The header and the columns of a v2 cache, read by hand."""
        hlen = int.from_bytes(blob[12:20], "little")
        header = json.loads(blob[20 : 20 + hlen])
        cols = {
            e["name"]: np.frombuffer(blob, e["dtype"], int(np.prod(e["shape"])), 20 + hlen + e["offset"])
            .reshape(e["shape"])
            .copy()
            for e in header.pop("params")
        }
        return header, cols

    @staticmethod
    def _pack(header, cols):
        """A v2 cache holding ``header`` and ``cols``, written by hand."""
        entries, offset = [], 0
        for name, a in cols.items():
            entries.append(
                {"name": name, "shape": list(a.shape), "dtype": a.dtype.str, "offset": offset, "nbytes": a.nbytes}
            )
            offset += a.nbytes
        head = json.dumps({**header, "params": entries}, sort_keys=True, separators=(",", ":")).encode()
        body = b"".join(a.tobytes() for a in cols.values())
        return b"TXDCACHE" + struct.pack("<IQ", 2, len(head)) + head + body

    def test_layout_is_columns_with_points_last(self, tmp_path):
        recs = make_records([3, 1, 7], np.random.default_rng(2))
        recs[0].origin_call, recs[0].origin_stand, recs[0].call_type = None, 4, "stand"
        recs[2].missing_data = True
        path = tmp_path / "cache.bin"
        save_records(recs, path)
        blob = path.read_bytes()
        assert blob[:12] == b"TXDCACHE" + struct.pack("<I", 2)
        header, cols = self._columns(blob)
        assert header == {"trip_ids": ["t0", "t1", "t2"]}
        assert list(cols) == [
            "offsets", "call_type", "origin_call", "origin_stand", "taxi_id", "timestamp", "missing", "points"
        ]
        np.testing.assert_array_equal(cols["offsets"], [0, 3, 4, 11])
        np.testing.assert_array_equal(cols["call_type"], [1, 0, 0])
        np.testing.assert_array_equal(cols["origin_call"], [-1, 10, 10])
        np.testing.assert_array_equal(cols["origin_stand"], [4, -1, -1])
        np.testing.assert_array_equal(cols["missing"], [0, 0, 1])
        assert [a.dtype.str for a in cols.values()] == ["<i8"] * 7 + ["<f8"]
        assert blob.endswith(np.concatenate([r.polyline for r in recs]).tobytes())
        assert self._pack(header, cols) == blob  # nothing else in the file

    # Records [3, 1, 7] hold 11 points of 16 bytes, the last 176 bytes.
    @pytest.mark.parametrize(
        "keep, record",
        [(slice(0, -168), 0), (slice(0, -8), 2), (slice(0, -176), 0), (slice(0, -128), 1), (slice(0, -104), 2)],
    )
    def test_truncated_names_path_and_record(self, tmp_path, keep, record):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[keep])
        with pytest.raises(DataError, match=rf"cache\.bin: truncated in record {record} of 3"):
            load_records(path)

    def test_truncated_in_a_metadata_column(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[: len(blob) - 176 - 2])  # inside ``missing``, 3 bytes
        with pytest.raises(DataError, match=r"cache\.bin: truncated in column 'missing'"):
            load_records(path)

    def test_truncated_header(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:14])
        with pytest.raises(DataError, match=r"cache\.bin: truncated record cache header \(14 bytes\)"):
            load_records(path)

    def test_truncated_inside_the_json_header(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:30])
        with pytest.raises(DataError, match=r"cache\.bin: truncated record cache header \(30 of \d+ bytes\)"):
            load_records(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + b"junk")
        with pytest.raises(DataError, match=r"cache\.bin: 4 bytes after the last column"):
            load_records(path)

    def test_version_1_asks_for_prepare(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"TXDCACHE" + struct.pack("<IQ", 1, 1) + struct.pack("<H", 2) + b"t0" + bytes(40))
        with pytest.raises(DataError, match=r"cache\.bin: unsupported record cache version 1; re-run `taxidest prepare`"):
            load_records(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h, c: c["offsets"].__setitem__(0, 1), "offsets do not start at 0 and never fall"),
            (lambda h, c: c["offsets"].__setitem__(slice(1, 3), [4, 3]), "offsets do not start at 0 and never fall"),
            (lambda h, c: c["offsets"].__setitem__(3, 10), r"column 'points' is missing or not float64 of shape \(10, 2\)"),
            (lambda h, c: c.__setitem__("taxi_id", c["taxi_id"][:2]), "column 'taxi_id'"),
            (lambda h, c: c.__setitem__("offsets", c["offsets"][:3]), "column 'offsets'"),
            (lambda h, c: h.__setitem__("trip_ids", ["t0", "t1"]), "column 'offsets'"),
            (lambda h, c: c.pop("timestamp"), "column 'timestamp'"),
            (lambda h, c: c.__setitem__("points", c["points"].astype("<f4")), "column 'points'"),
            (lambda h, c: c.__setitem__("points", c["points"].reshape(-1)), "column 'points'"),
            (lambda h, c: c["call_type"].__setitem__(1, 3), "call type code"),
            (lambda h, c: h.pop("trip_ids"), "no trip_ids"),
        ],
        ids=[
            "first-offset", "decreasing-offsets", "last-offset", "short-column", "short-offsets",
            "fewer-trip-ids", "missing-column", "float32-points", "flat-points", "call-code", "no-trip-ids",
        ],
    )
    def test_inconsistent_columns_rejected(self, tmp_path, edit, message):
        path, blob = self._saved(tmp_path)
        header, cols = self._columns(blob)
        edit(header, cols)
        path.write_bytes(self._pack(header, cols))
        with pytest.raises(DataError, match=message) as err:
            load_records(path)
        assert str(path) in str(err.value)

    def test_failed_write_keeps_old_cache(self, tmp_path):
        path, blob = self._saved(tmp_path)
        recs = make_records([3, 4], np.random.default_rng(3))
        recs[1].call_type = "unknown"  # fails after the first record is written
        with pytest.raises(ValueError):
            save_records(recs, path)
        assert path.read_bytes() == blob
        assert os.listdir(tmp_path) == ["cache.bin"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACACHE~~~")
        with pytest.raises(DataError):
            load_records(path)
