"""End-to-end CLI pipeline on the synthetic fixture, plus error paths."""

import json
import math
import os
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import failing_after_first_write, saved_extras, write_checkpoint
from taxidest import cli, data, fixtures, models, nncore, training
from taxidest._atomic import atomic_open, non_utf8_error
from taxidest.cli import main
from taxidest.clustering import ClusterSet, MeanShiftConfig
from taxidest.models import ModelConfig
from taxidest.training import TrainConfig


@pytest.fixture(scope="module")
def city_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "city.csv"
    fixtures.generate_city_csv(path, 60, seed=3)
    return path


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory, city_csv):
    out = tmp_path_factory.mktemp("prepared") / "data"
    rc = main(
        ["prepare", "--input", str(city_csv), "--out", str(out), "--val", "8", "--test", "8", "--seed", "1"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cluster_csv(tmp_path_factory, prepared_dir):
    path = tmp_path_factory.mktemp("clusters") / "clusters.csv"
    rc = main(["cluster", "--data", str(prepared_dir), "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, prepared_dir, cluster_csv):
    path = tmp_path_factory.mktemp("model") / "model.ckpt"
    rc = main(
        [
            "train",
            "--data", str(prepared_dir),
            "--clusters", str(cluster_csv),
            "--variant", "mlp_clusters",
            "--k", "3",
            "--hidden", "16",
            "--embedding-dim", "4",
            "--batch", "16",
            "--max-batches", "40",
            "--validate-every", "10",
            "--patience", "99",
            "--seed", "2",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestPrepare:
    def test_outputs_exist_and_disjoint(self, prepared_dir):
        assert sorted(os.listdir(prepared_dir)) == ["records.bin", "splits.json"]
        manifest = json.loads((prepared_dir / "splits.json").read_text())
        assert manifest == {"seed": 1, "validation": 8, "test": 8}
        prepared = cli._load_prepared(prepared_dir)
        train, val, test = (
            {r.trip_id for r in prepared.train},
            {ex.trip_id for ex in prepared.validation},
            {ex.trip_id for ex in prepared.test},
        )
        assert (len(train), len(val), len(test)) == (44, 8, 8)
        assert not (train & val) and not (train & test) and not (val & test)
        for ex in prepared.validation + prepared.test:
            assert 1 <= ex.cut <= len(ex.record.polyline)

    def test_rerun_same_seed_identical_manifest(self, tmp_path, city_csv):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(
                ["prepare", "--input", str(city_csv), "--out", str(out), "--val", "5", "--test", "5", "--seed", "9"]
            )
            assert rc == 0
        assert (out1 / "splits.json").read_bytes() == (out2 / "splits.json").read_bytes()
        assert (out1 / "records.bin").read_bytes() == (out2 / "records.bin").read_bytes()

    @pytest.mark.parametrize("failing", ["splits.json"])
    def test_failed_write_keeps_old_file(self, tmp_path, city_csv, monkeypatch, failing):
        out = tmp_path / "d"
        args = ["prepare", "--input", str(city_csv), "--out", str(out), "--val", "5", "--test", "5"]
        assert main(args + ["--seed", "9"]) == 0
        old = {name: (out / name).read_bytes() for name in os.listdir(out)}
        dump = json.dump

        def dump_or_fail(obj, f, **kwargs):
            if os.path.basename(f.name).startswith(failing):
                f.write('{"partial": ')
                raise RuntimeError("disk gone")
            dump(obj, f, **kwargs)

        monkeypatch.setattr(cli.json, "dump", dump_or_fail)
        assert main(args + ["--seed", "10"]) == 3
        assert (out / failing).read_bytes() == old[failing]
        assert sorted(os.listdir(out)) == sorted(old)

    def test_unusable_rides_are_cached_and_change_nothing_downstream(self, tmp_path, city_csv, capsys):
        """A MISSING_DATA ride and a ride with no points: `prepare` caches
        them, and what it and the next commands print, the clusters and
        the checkpoint are those of the file without them."""
        extra = tmp_path / "extra.csv"
        extra.write_text(
            city_csv.read_text()
            + 'X1,C,,,20000001,1402411128,A,True,"[[-8.61,41.14],[-8.62,41.15]]"\n'
            + 'X2,C,,,20000001,1402411128,A,False,"[]"\n'
        )
        outputs = {}
        for csv_path in (city_csv, extra):
            run = tmp_path / csv_path.stem
            assert main(["prepare", "--input", str(csv_path), "--out", str(run / "d"),
                         "--val", "8", "--test", "8", "--seed", "1"]) == 0
            assert main(["cluster", "--data", str(run / "d"), "--out", str(run / "c.csv")]) == 0
            assert main(["train", "--data", str(run / "d"), "--clusters", str(run / "c.csv"),
                         "--variant", "mlp_clusters", "--k", "2", "--hidden", "4", "--embedding-dim", "2",
                         "--batch", "4", "--max-batches", "4", "--validate-every", "2", "--seed", "3",
                         "--out", str(run / "m.ckpt")]) == 0
            outputs[csv_path.stem] = (capsys.readouterr().out, (run / "c.csv").read_bytes(),
                                      (run / "m.ckpt").read_bytes())
        assert outputs["city"][0].startswith("prepared 60 records: train 44, validation 8, test 8\n")
        assert outputs["extra"] == outputs["city"]
        cached = data.load_records(tmp_path / "extra" / "d" / "records.bin")
        assert [r.trip_id for r in cached[-2:]] == ["X1", "X2"] and len(cached) == 62

    def test_val_test_exceeding_records_fails_cleanly(self, tmp_path, city_csv):
        rc = main(
            ["prepare", "--input", str(city_csv), "--out", str(tmp_path / "x"), "--val", "40", "--test", "40"]
        )
        assert rc == 2

    def test_missing_input_fails_cleanly(self, tmp_path):
        rc = main(
            ["prepare", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "d")]
        )
        assert rc == 2

    def test_negative_count_fails_cleanly(self, tmp_path, city_csv, capsys):
        rc = main(
            ["prepare", "--input", str(city_csv), "--out", str(tmp_path / "x"), "--val", "-5", "--test", "3"]
        )
        assert rc == 2
        assert "val=-5" in capsys.readouterr().err

    def test_unparsable_csv_creates_no_directory(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
            'A,A,,,20000001,1372636858,A,False,"[[-8.61,41.14],[x,41.15]]"\n'
        )
        out = tmp_path / "new" / "data"
        assert main(["prepare", "--input", str(csv_path), "--out", str(out), "--val", "1", "--test", "0"]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "column, value",
        [("ORIGIN_CALL", "inf"), ("ORIGIN_CALL", "-1"), ("ORIGIN_CALL", "1e30"), ("TAXI_ID", str(2**70))],
    )
    def test_id_the_cache_cannot_hold_names_line_and_column(self, tmp_path, column, value, capsys):
        fields = {"ORIGIN_CALL": "7", "TAXI_ID": "20000002"}
        fields[column] = value
        csv_path = tmp_path / "ids.csv"
        csv_path.write_text(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
            'A,A,31508.0,,20000001,1372636858,A,False,"[[-8.61,41.14]]"\n'
            'B,A,{ORIGIN_CALL},,{TAXI_ID},1372636858,A,False,"[[-8.62,41.15]]"\n'.format(**fields)
        )
        out = tmp_path / "data"
        assert main(["prepare", "--input", str(csv_path), "--out", str(out), "--val", "1", "--test", "0"]) == 2
        err = capsys.readouterr().err
        assert f"line 3, column {column}" in err and "internal error" not in err
        assert not (out / "records.bin").exists()


_HEADER = "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
_ROW = 'P{i},C,,,2000000{i},1372636858,A,False,"[[-8.61,41.14],[-8.62,41.15]]"\n'


def _csv_rows(n: int) -> bytes:
    return (_HEADER + "".join(_ROW.format(i=i) for i in range(n))).encode()


def _cli_argv(command, csv_path, tmp_path, ckpt):
    if command == "prepare":
        return ["prepare", "--input", str(csv_path), "--out", str(tmp_path / "d"), "--val", "1", "--test", "0"]
    return ["predict", "--model", str(ckpt), "--input", str(csv_path), "--out", str(tmp_path / "s.csv")]


@pytest.mark.parametrize("command", ["prepare", "predict"])
class TestCsvErrorsNameTheFile:
    def test_malformed_row(self, command, trained_ckpt, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_bytes(_csv_rows(3).replace(b"P1,C,", b"P1,Z,"))
        assert main(_cli_argv(command, csv_path, tmp_path, trained_ckpt)) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: line 3, column CALL_TYPE: unknown call type 'Z'" in err
        assert not (tmp_path / "d").exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("rows, bad_line", [(3, 4), (2000, 1700)])
    def test_byte_that_is_not_utf8(self, command, rows, bad_line, trained_ckpt, tmp_path, capsys):
        lines = _csv_rows(rows).split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1].replace(b"-8.62", b"-8.\xff2")
        csv_path = tmp_path / "latin.csv"
        csv_path.write_bytes(b"\n".join(lines))
        assert main(_cli_argv(command, csv_path, tmp_path, trained_ckpt)) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: line {bad_line}: byte 0xff is not UTF-8" in err and "internal error" not in err
        assert not (tmp_path / "d").exists() and not (tmp_path / "s.csv").exists()


def test_first_non_utf8_line_at_every_position(tmp_path):
    """A bad byte at each position of a text of two-byte characters: a
    stray continuation byte, a lead byte before ASCII, and a file cut
    inside a character.  Lines end at \\n, \\r\\n or \\r, as ``csv`` counts
    them."""
    text = "a\né\rxé,é\r\nb\r".encode()
    path = tmp_path / "t.csv"
    for i in range(len(text) + 1):
        lines = text[:i].splitlines(keepends=True)  # the ends before the bad byte
        line = len(lines) + 1 if not lines or text[:i].endswith((b"\n", b"\r")) else len(lines)
        for bad in (b"\x80", b"\xc3a"):
            path.write_bytes(text[:i] + bad + text[i:])
            assert str(non_utf8_error(path)).startswith(f"{path}: line {line}: byte "), (i, bad)
    path.write_bytes(text + b"\xc3")
    assert str(non_utf8_error(path)) == f"{path}: line 5: byte 0xc3 is not UTF-8"


def _small_train_args(data_dir, out):
    return [
        "train", "--data", str(data_dir), "--variant", "mlp_direct",
        "--k", "2", "--hidden", "4", "--embedding-dim", "2",
        "--batch", "4", "--max-batches", "2", "--validate-every", "2",
        "--out", str(out),
    ]


def _container_header(blob):
    """(header, offset of the first array byte) of a container file's bytes."""
    hlen = int.from_bytes(blob[12:20], "little")
    return json.loads(blob[20 : 20 + hlen]), 20 + hlen


def _rewrite_header(path, edit):
    """Replace a container file's header by ``edit(header)``, arrays kept."""
    blob = path.read_bytes()
    header, body = _container_header(blob)
    head = json.dumps(edit(header)).encode()
    path.write_bytes(blob[:12] + struct.pack("<Q", len(head)) + head + blob[body:])


def _entry_edit(**fields):
    """A header edit setting fields of the first ``params`` entry; None drops one."""

    def edit(header):
        entry = header["params"][0]
        for key, value in fields.items():
            entry.pop(key) if value is None else entry.__setitem__(key, value)
        return header

    return edit


_HEADER_DAMAGE = {
    "not-an-object": lambda h: [h],
    "no-params": lambda h: {k: v for k, v in h.items() if k != "params"},
    "entry-not-an-object": lambda h: {**h, "params": ["x", *h["params"][1:]]},
    "entry-without-nbytes": _entry_edit(nbytes=None),
    "string-offset": _entry_edit(offset="0"),
    "unknown-dtype": _entry_edit(dtype="<q9"),
    "object-dtype": _entry_edit(dtype="|O"),
    "flipped-bit-dtype": _entry_edit(dtype=",i8"),  # "<i8" with one bit flipped
    "negative-dimension": _entry_edit(shape=[-1]),
    "negative-offset": _entry_edit(offset=-8),
    "no-extras": lambda h: {k: v for k, v in h.items() if k != "extras"},  # a checkpoint's only
}


@pytest.mark.parametrize(
    "kind, damage",
    [(kind, name) for kind in ("cache", "checkpoint") for name in _HEADER_DAMAGE if (kind, name) != ("cache", "no-extras")],
)
def test_malformed_header_is_a_data_error(prepared_dir, trained_ckpt, tmp_path, capsys, kind, damage):
    """A cache header through ``train``, a checkpoint header through
    ``evaluate``: exit 2 and a message naming the file."""
    if kind == "cache":
        data_dir = shutil.copytree(prepared_dir, tmp_path / "data")
        path = data_dir / "records.bin"
        args = _small_train_args(data_dir, tmp_path / "m.ckpt")
    else:
        path = Path(shutil.copy(trained_ckpt, tmp_path / "model.ckpt"))
        args = ["evaluate", "--model", str(path), "--data", str(prepared_dir)]
    _rewrite_header(path, _HEADER_DAMAGE[damage])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f": {path}: " in err and "internal error" not in err


class TestPreparedDirectory:
    """A prepared directory is ``records.bin`` plus the split's seed and
    counts; rides are addressed by position, never by TRIP_ID."""

    @pytest.fixture(scope="class")
    def duplicate_id_csv(self, tmp_path_factory):
        """The 60-ride fixture with row 5 given row 4's TRIP_ID."""
        path = tmp_path_factory.mktemp("dup") / "dup.csv"
        fixtures.generate_city_csv(path, 60, seed=3)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[4].startswith("T000003,") and lines[5].startswith("T000004,")
        lines[5] = "T000003" + lines[5][len("T000004"):]
        path.write_text("".join(lines))
        return path

    def prepare(self, csv_path, out, seed):
        args = ["prepare", "--input", str(csv_path), "--out", str(out), "--val", "8", "--test", "8"]
        assert main(args + ["--seed", str(seed)]) == 0
        return out

    def test_duplicate_trip_id_trains(self, tmp_path, duplicate_id_csv):
        data_dir = self.prepare(duplicate_id_csv, tmp_path / "data", 3)
        assert main(_small_train_args(data_dir, tmp_path / "m.ckpt")) == 0

    def test_duplicate_trip_id_keeps_rides_apart(self, tmp_path, duplicate_id_csv, monkeypatch):
        data_dir = self.prepare(duplicate_id_csv, tmp_path / "data", 0)
        seen = []

        def capture(model, train_records, val_examples, cfg, checkpoint_path=None):
            seen.append((train_records, val_examples))
            return training.TrainReport(stop_reason="max_batches")

        monkeypatch.setattr(cli, "train", capture)
        assert main(_small_train_args(data_dir, tmp_path / "m.ckpt")) == 0
        [(train_records, val_examples)] = seen

        def ride(r):
            return r.trip_id, r.polyline.tobytes()

        train_rides = {ride(r) for r in train_records}
        val_rides = {ride(ex.record) for ex in val_examples}
        assert len(train_rides) == len(train_records) == 44
        assert len(val_rides) == 8 and not (train_rides & val_rides)

    @pytest.fixture
    def data_copy(self, tmp_path, prepared_dir):
        return shutil.copytree(prepared_dir, tmp_path / "data")

    @pytest.mark.parametrize("command", ["cluster", "train", "evaluate"])
    @pytest.mark.parametrize(
        "text, why",
        [
            ('{"seed": 1, "validation": 8', "not JSON"),
            ('[1, 8, 8]', "not a JSON object"),
            ('{"seed": 1, "validation": 8}', "no 'test' key"),
            ('{"seed": true, "validation": 8, "test": 8}', "'seed' is not a non-negative int"),
            ('{"seed": 1, "validation": -1, "test": 8}', "'validation' is not a non-negative int"),
            ('{"seed": 1, "validation": 8, "test": 8.0}', "'test' is not a non-negative int"),
            ('{"seed": 1,\r"validation": \udcff8, "test": 8}', "line 2: byte 0xff is not UTF-8"),
        ],
    )
    def test_damaged_splits_file(self, data_copy, trained_ckpt, tmp_path, capsys, command, text, why):
        path = data_copy / "splits.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff is the byte 0xff
        args = {
            "cluster": ["cluster", "--data", str(data_copy), "--out", str(tmp_path / "c.csv")],
            "train": _small_train_args(data_copy, tmp_path / "m.ckpt"),
            "evaluate": ["evaluate", "--model", str(trained_ckpt), "--data", str(data_copy)],
        }[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{path}: {why}" in err and "internal error" not in err

    def test_old_format_asks_for_prepare(self, data_copy, capsys):
        prepared = cli._load_prepared(data_copy)
        old = {
            "seed": 1,
            "train": [r.trip_id for r in prepared.train],
            "validation": [ex.trip_id for ex in prepared.validation],
            "test": [ex.trip_id for ex in prepared.test],
            "validation_cuts": {ex.trip_id: ex.cut for ex in prepared.validation},
            "test_cuts": {ex.trip_id: ex.cut for ex in prepared.test},
        }
        path = data_copy / "splits.json"
        path.write_text(json.dumps(old))
        assert main(["cluster", "--data", str(data_copy), "--out", str(data_copy / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "re-run `taxidest prepare`" in err

    @pytest.mark.parametrize("value", [float("nan"), 1000.0])
    def test_bad_point_in_the_cache_names_file_and_record(self, data_copy, tmp_path, capsys, value):
        path = data_copy / "records.bin"
        blob = bytearray(path.read_bytes())
        header, body = _container_header(blob)
        [points] = [e for e in header["params"] if e["name"] == "points"]
        at = body + points["offset"] + 16 * 5  # the latitude of point 5
        blob[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        assert main(_small_train_args(data_copy, tmp_path / "m.ckpt")) == 2
        err = capsys.readouterr().err
        assert re.search(rf"{re.escape(str(path))}: record \d+ \(trip T\d+\) has the point \({value!r}, ", err)

    def test_leftover_stats_and_vocab_are_ignored(self, data_copy, tmp_path):
        leftovers = {"stats.json": '{"mean_lat": "x"}', "vocab.json": "not json"}
        for name, text in leftovers.items():
            (data_copy / name).write_text(text)
        assert main(_small_train_args(data_copy, tmp_path / "m.ckpt")) == 0
        assert {name: (data_copy / name).read_text() for name in leftovers} == leftovers

    def test_training_split_needs_two_points(self, tmp_path, capsys):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
            'A,C,,,1,1400000000,A,False,"[[-8.61,41.15]]"\n'
            'B,C,,,1,1400000000,A,False,"[[-8.62,41.16]]"\n'
        )
        data_dir = tmp_path / "data"
        assert main(["prepare", "--input", str(csv_path), "--out", str(data_dir), "--val", "1", "--test", "0"]) == 0
        capsys.readouterr()
        assert main(_small_train_args(data_dir, tmp_path / "m.ckpt")) == 2
        assert "at least 2 points" in capsys.readouterr().err


class TestCluster:
    def test_prints_center_count(self, prepared_dir, cluster_csv, capsys):
        # rerun to capture stdout deterministically
        rc = main(["cluster", "--data", str(prepared_dir), "--out", str(cluster_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("C=")
        n = int(out.strip().split("=")[1])
        lines = cluster_csv.read_text().splitlines()
        assert lines[0] == "lat,lon"
        assert len(lines) - 1 == n

    def test_two_blob_fixture_gives_two_centers(self, tmp_path, capsys):
        # synthetic two-destination corpus through the whole prepare+cluster path
        import math

        from taxidest.geo import EARTH_RADIUS_M

        rows = ["TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE"]
        rng = np.random.default_rng(0)
        deg_m = EARTH_RADIUS_M * math.pi / 180
        for i in range(30):
            which = i % 2
            lat = 41.15 + which * 5000 / deg_m + rng.normal(0, 50 / deg_m)
            lon = -8.61 + rng.normal(0, 50 / deg_m)
            poly = f'"[[-8.61,41.15],[{lon:.6f},{lat:.6f}]]"'
            rows.append(f"B{i},C,,,1,1400000000,A,False,{poly}")
        csv_path = tmp_path / "blobs.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        data_dir = tmp_path / "data"
        assert main(["prepare", "--input", str(csv_path), "--out", str(data_dir), "--val", "1", "--test", "0"]) == 0
        out_csv = tmp_path / "c.csv"
        assert main(["cluster", "--data", str(data_dir), "--out", str(out_csv)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "C=2"

    def test_missing_data_dir(self, tmp_path):
        rc = main(["cluster", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    def test_defaults_come_from_the_config(self, tmp_path, prepared_dir, monkeypatch):
        seen = []

        def capture(points, cfg):
            seen.append(cfg)
            return ClusterSet(points[:1])

        monkeypatch.setattr(cli, "mean_shift", capture)
        assert main(["cluster", "--data", str(prepared_dir), "--out", str(tmp_path / "c.csv")]) == 0
        assert seen == [MeanShiftConfig()]

    @pytest.mark.parametrize("option, value", [("--bandwidth", "nan"), ("--bandwidth", "inf"), ("--merge-radius", "nan")])
    def test_radius_not_finite_and_positive(self, tmp_path, prepared_dir, option, value, capsys):
        out = tmp_path / "c.csv"
        assert main(["cluster", "--data", str(prepared_dir), option, value, "--out", str(out)]) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_report_written(self, trained_ckpt):
        report = trained_ckpt.parent / (trained_ckpt.name + ".report.jsonl")
        lines = [json.loads(l) for l in report.read_text().splitlines()]
        assert len(lines) >= 2
        assert "stop_reason" in lines[-1]

    def test_report_before_any_validation_is_strict_json(self, tmp_path, prepared_dir):
        def strict(name):
            raise ValueError(f"not strict JSON: {name}")

        args = _small_train_args(prepared_dir, tmp_path / "m.ckpt")
        args[args.index("--validate-every") + 1] = "500"  # two batches, no validation
        assert main(args) == 0
        text = (tmp_path / "m.ckpt.report.jsonl").read_text()
        assert [json.loads(line, parse_constant=strict) for line in text.splitlines()] == [
            {"stop_reason": "max_batches", "best_batches": 0, "best_val_km": None, "checkpoint": str(tmp_path / "m.ckpt")}
        ]

    def test_direct_variant_needs_no_clusters(self, tmp_path, prepared_dir):
        path = tmp_path / "direct.ckpt"
        rc = main(
            [
                "train",
                "--data", str(prepared_dir),
                "--variant", "mlp_direct",
                "--k", "2", "--hidden", "8", "--embedding-dim", "2",
                "--batch", "8", "--max-batches", "10", "--validate-every", "5",
                "--out", str(path),
            ]
        )
        assert rc == 0 and path.exists()

    def test_cluster_variant_without_clusters_fails(self, tmp_path, prepared_dir):
        rc = main(
            ["train", "--data", str(prepared_dir), "--variant", "mlp_clusters", "--out", str(tmp_path / "x.ckpt")]
        )
        assert rc == 2

    def test_cut_cluster_file_fails(self, tmp_path, prepared_dir, cluster_csv, capsys):
        cut = tmp_path / "cut.csv"
        cut.write_text(cluster_csv.read_text().rstrip("\n")[:-1])
        rc = main(
            ["train", "--data", str(prepared_dir), "--clusters", str(cut), "--out", str(tmp_path / "x.ckpt")]
        )
        assert rc == 2
        assert str(cut) in capsys.readouterr().err

    def test_non_finite_cluster_centre_fails(self, tmp_path, prepared_dir, cluster_csv, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text(cluster_csv.read_text() + "nan,-8.6\n")
        rc = main(
            ["train", "--data", str(prepared_dir), "--clusters", str(bad), "--out", str(tmp_path / "x.ckpt")]
        )
        assert rc == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_cluster_byte_not_utf8_fails(self, tmp_path, prepared_dir, cluster_csv, capsys):
        lines = cluster_csv.read_bytes().splitlines(keepends=True)
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        rc = main(
            ["train", "--data", str(prepared_dir), "--clusters", str(bad), "--out", str(tmp_path / "x.ckpt")]
        )
        assert rc == 2
        assert f"{bad}:3: byte 0xff is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, batch", [(None, TrainConfig.batch_size), ("memory_net", 5000)])
    def test_defaults_come_from_the_configs(self, tmp_path, prepared_dir, cluster_csv, monkeypatch, variant, batch):
        seen = []

        def capture(model, train_records, val_examples, cfg, checkpoint_path=None):
            seen.append((model.config, cfg))
            return training.TrainReport(stop_reason="max_batches")

        monkeypatch.setattr(cli, "train", capture)
        argv = ["train", "--data", str(prepared_dir), "--clusters", str(cluster_csv), "--out", str(tmp_path / "o")]
        assert main(argv + (["--variant", variant] if variant else [])) == 0
        [(config, cfg)] = seen
        assert config == (ModelConfig(variant=variant) if variant else ModelConfig())
        assert cfg == TrainConfig(batch_size=batch)

    @pytest.mark.parametrize("variant", ["memory_net", "mlp_direct"])
    def test_default_batch(self, tmp_path, prepared_dir, monkeypatch, variant):
        """memory_net's default batch is cli.MEMORY_NET_BATCH, here set to
        7; the other variants' is TrainConfig's."""
        seen = []

        def capture(model, train_records, val_examples, cfg, checkpoint_path=None):
            seen.append(cfg)
            return training.TrainReport(stop_reason="max_batches")

        monkeypatch.setattr(cli, "MEMORY_NET_BATCH", 7)
        monkeypatch.setattr(cli, "train", capture)
        args = ["train", "--data", str(prepared_dir), "--variant", variant, "--hidden", "4", "--out", str(tmp_path / "x.ckpt")]
        assert main(args) == 0
        assert seen[0].batch_size == (7 if variant == "memory_net" else training.TrainConfig().batch_size)
        seen.clear()
        assert main(args + ["--batch", "3"]) == 0
        assert seen[0].batch_size == 3

    @pytest.mark.parametrize(
        "option, value, field",
        [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
         ("--clip-norm", "nan", "clip_norm"), ("--clip-norm", "inf", "clip_norm"),
         ("--clip-norm", "-1", "clip_norm"), ("--clip-norm", "0", "clip_norm"),
         ("--embedding-dim", "-1", "embedding_dim must be positive, got -1"),
         ("--embedding-dim", "0", "embedding_dim must be positive, got 0"),
         ("--k", "0", "k must be positive, got 0"), ("--hidden", "0", "hidden must be positive, got 0"),
         ("--rnn-hidden", "0", "rnn_hidden must be positive, got 0"),
         ("--window", "0", "window must be positive, got 0"),
         ("--memory-m", "0", "memory_m must be positive, got 0")],
    )
    def test_bad_setting_names_its_field(self, tmp_path, prepared_dir, option, value, field, capsys):
        args = _small_train_args(prepared_dir, tmp_path / "m.ckpt") + [option, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{re.escape(field)}\b", err) and "internal error" not in err
        assert not (tmp_path / "m.ckpt").exists()

    def _diverging(self, prepared_dir, out, *options):
        """mlp_direct at learning rate 1e3: every validation is off the
        Earth, and training stops on a non-finite value within a few
        batches; at learning rate 100 the first validation is finite."""
        args = _small_train_args(prepared_dir, out) + ["--batch", "20", "--lr", "1e3", "--max-batches", "20"]
        return main(args + list(options))

    def test_run_without_a_finite_validation_fails(self, tmp_path, prepared_dir, capsys):
        def strict(name):
            raise ValueError(f"not strict JSON: {name}")

        ckpt = tmp_path / "m.ckpt"
        assert self._diverging(prepared_dir, ckpt, "--validate-every", "5") == 4
        out, err = capsys.readouterr()
        assert out == "stopped: non_finite; best validation inf km at batch 0\n"
        assert "no validation gave a finite score" in err and "Warning" not in err
        assert not ckpt.exists()
        text = (tmp_path / "m.ckpt.report.jsonl").read_text()
        assert [json.loads(line, parse_constant=strict) for line in text.splitlines()] == [
            {"stop_reason": "non_finite", "best_batches": 0, "best_val_km": None, "checkpoint": None}
        ]

    def test_non_finite_stop_after_a_finite_best_keeps_it(self, tmp_path, prepared_dir, capsys):
        ckpt, one = tmp_path / "m.ckpt", tmp_path / "one.ckpt"
        assert self._diverging(prepared_dir, ckpt, "--validate-every", "1", "--lr", "100") == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(r"stopped: non_finite; best validation \d+\.\d{3} km at batch 1\n", out) and err == ""
        # The kept checkpoint is the model after batch 1.
        assert self._diverging(prepared_dir, one, "--validate-every", "1", "--lr", "100", "--max-batches", "1") == 0
        assert ckpt.read_bytes() == one.read_bytes()

    def test_predictions_off_the_earth_score_no_validation(self, tmp_path, prepared_dir, capsys):
        """The diverging mlp_direct's validations predict latitudes in the
        thousands and beyond; none scores, so the run fails."""
        ckpt = tmp_path / "m.ckpt"
        args = ["train", "--data", str(prepared_dir), "--variant", "mlp_direct", "--k", "2", "--hidden", "8",
                "--embedding-dim", "2", "--batch", "20", "--lr", "1e3", "--validate-every", "1", "--out", str(ckpt)]
        assert main(args) == 4
        out, err = capsys.readouterr()
        assert out == "stopped: non_finite; best validation inf km at batch 0\n"
        assert "no validation gave a finite score" in err and not ckpt.exists()
        report = training.TrainReport.from_jsonl(tmp_path / "m.ckpt.report.jsonl")
        assert len(report.history) == 3
        assert all(pt.val_haversine_km == math.inf and not pt.improved for pt in report.history)

    @pytest.mark.parametrize("variant", ["mlp_clusters", "brnn", "memory_net"])
    def test_evaluate_repeats_the_best_validation(self, tmp_path, prepared_dir, cluster_csv, capsys, variant):
        """``evaluate --split validation --seed S`` prints the best score of
        ``train --seed S``: memory_net draws its candidates alike."""
        ckpt = tmp_path / "m.ckpt"
        assert main(
            [
                "train", "--data", str(prepared_dir), "--clusters", str(cluster_csv), "--variant", variant,
                "--k", "2", "--hidden", "6", "--rnn-hidden", "4", "--embedding-dim", "2", "--memory-m", "10",
                "--batch", "6", "--max-batches", "6", "--validate-every", "3", "--seed", "4",
                "--out", str(ckpt),
            ]
        ) == 0
        best = re.fullmatch(r"stopped: \w+; best validation (\S+) km at batch \d+\n", capsys.readouterr().out)[1]
        assert main(["evaluate", "--model", str(ckpt), "--data", str(prepared_dir),
                     "--split", "validation", "--seed", "4"]) == 0
        assert capsys.readouterr().out == f"mean_haversine_km {best}\n"

    def test_unknown_variant_usage_error(self, tmp_path, prepared_dir, capsys):
        with pytest.raises(SystemExit) as e:
            main(
                ["train", "--data", str(prepared_dir), "--variant", "perceptron", "--out", str(tmp_path / "x.ckpt")]
            )
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert "mlp_clusters" in err and "memory_net" in err


class TestEvaluate:
    def test_prints_mean_km(self, trained_ckpt, prepared_dir, capsys):
        rc = main(["evaluate", "--model", str(trained_ckpt), "--data", str(prepared_dir), "--split", "test"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("mean_haversine_km ")
        assert np.isfinite(float(out.split()[1]))

    def test_perfect_memorization_prints_zero(self, tmp_path, capsys):
        # all destinations identical -> C=1 -> the model always predicts it
        rows = ["TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE"]
        rng = np.random.default_rng(1)
        for i in range(12):
            lon0 = -8.61 + rng.normal(0, 0.01)
            lat0 = 41.15 + rng.normal(0, 0.01)
            poly = f'"[[{lon0:.6f},{lat0:.6f}],[-8.600000,41.140000]]"'
            rows.append(f"P{i},C,,,1,1400000000,A,False,{poly}")
        csv_path = tmp_path / "same.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        data_dir = tmp_path / "data"
        assert main(["prepare", "--input", str(csv_path), "--out", str(data_dir), "--val", "2", "--test", "2"]) == 0
        ccsv = tmp_path / "c.csv"
        assert main(["cluster", "--data", str(data_dir), "--out", str(ccsv)]) == 0
        ckpt = tmp_path / "m.ckpt"
        assert main(
            [
                "train", "--data", str(data_dir), "--clusters", str(ccsv),
                "--k", "2", "--hidden", "4", "--embedding-dim", "2",
                "--batch", "4", "--max-batches", "4", "--validate-every", "2",
                "--dtype", "float64", "--out", str(ckpt),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", str(ckpt), "--data", str(data_dir), "--split", "test"]) == 0
        assert capsys.readouterr().out == "mean_haversine_km 0.000\n"

    @pytest.mark.parametrize(
        "damage, why",
        [(lambda e: e["model_config"].update(memory_batch=5000),  # a key of the older config layout
          "unexpected keyword argument 'memory_batch'"),
         (lambda e: e["model_config"].update(embedding_width=4),  # a key this version does not know
          "unexpected keyword argument 'embedding_width'"),
         (lambda e: e.pop("vocab"), "checkpoint metadata has no 'vocab' entry"),
         (lambda e: e["model_config"].update(memory_m=7.5), "memory_m must be an int, got 7.5"),
         (lambda e: e["model_config"].update(k=2.0), "k must be an int, got 2.0"),
         (lambda e: e["model_config"].update(k=True), "k must be an int, got True")],
        ids=["older-key", "unknown-key", "no-vocab", "float-memory-m", "float-k", "bool-k"],
    )
    def test_unreadable_checkpoint_config_is_a_data_error(
        self, trained_ckpt, prepared_dir, tmp_path, capsys, damage, why
    ):
        model = models.load_model(trained_ckpt)
        extras = saved_extras(model, tmp_path / "saved.ckpt")
        damage(extras)
        path = tmp_path / "damaged.ckpt"
        write_checkpoint(path, model.parameters(), extras)
        assert main(["evaluate", "--model", str(path), "--data", str(prepared_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"taxidest evaluate: {path}: ") and why in err and "internal error" not in err

    @pytest.mark.parametrize(
        "edit, why",
        [(lambda p: p.pop("out_b"), "parameter 9 is 'out_b'; the checkpoint has none there"),
         (lambda p: p.update(hidden_w=nncore.Parameter("hidden_w", p["hidden_w"].value[:, :8])),
          "parameter 'hidden_w' is float32 (36, 8), expected float32 (36, 16)")],
    )
    def test_parameters_that_do_not_fit_the_config_are_a_data_error(
        self, trained_ckpt, prepared_dir, tmp_path, capsys, edit, why
    ):
        model = models.load_model(trained_ckpt)
        edit(model.params)
        path = tmp_path / "misfit.ckpt"
        models.save_model(model, path)
        assert main(["evaluate", "--model", str(path), "--data", str(prepared_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"taxidest evaluate: {path}: ") and why in err

    def test_missing_checkpoint(self, prepared_dir, tmp_path):
        rc = main(["evaluate", "--model", str(tmp_path / "no.ckpt"), "--data", str(prepared_dir)])
        assert rc == 2

    @pytest.mark.parametrize("cut", [15, -4])
    def test_truncated_checkpoint(self, prepared_dir, trained_ckpt, tmp_path, capsys, cut):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(trained_ckpt.read_bytes()[:cut])
        rc = main(["evaluate", "--model", str(path), "--data", str(prepared_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "truncated" in err and str(path) in err and "internal error" not in err


class TestPredict:
    @pytest.mark.parametrize(
        "damage, why",
        [(lambda e: e["stats"].update(mean_lat=math.nan), "means must be finite, got nan"),
         (lambda e: e["clusters"][0].__setitem__(0, 95.0), "centre 0 is (95.0, ")],
        ids=["nan-mean", "centre-at-lat-95"],
    )
    def test_checkpoint_metadata_off_the_earth_is_a_data_error(
        self, trained_ckpt, city_csv, tmp_path, capsys, damage, why
    ):
        extras = _container_header(trained_ckpt.read_bytes())[0]["extras"]
        damage(extras)
        path, out = tmp_path / "forged.ckpt", tmp_path / "sub.csv"
        write_checkpoint(path, models.load_model(trained_ckpt).parameters(), extras)
        assert main(["predict", "--model", str(path), "--input", str(city_csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"taxidest predict: {path}: ") and why in err
        assert not out.exists()

    def test_submission_format(self, trained_ckpt, tmp_path, city_csv):
        out = tmp_path / "submission.csv"
        rc = main(["predict", "--model", str(trained_ckpt), "--input", str(city_csv), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "TRIP_ID,LATITUDE,LONGITUDE"
        assert len(lines) == 61
        first = lines[1].split(",")
        assert first[0] == "T000000"
        float(first[1]), float(first[2])

    def test_predictions_inside_cluster_bbox(self, trained_ckpt, tmp_path, city_csv, cluster_csv):
        out = tmp_path / "sub2.csv"
        assert main(["predict", "--model", str(trained_ckpt), "--input", str(city_csv), "--out", str(out)]) == 0
        centers = np.loadtxt(cluster_csv, delimiter=",", skiprows=1, ndmin=2)
        rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
        assert (rows[:, 0] >= centers[:, 0].min() - 1e-6).all()
        assert (rows[:, 0] <= centers[:, 0].max() + 1e-6).all()
        assert (rows[:, 1] >= centers[:, 1].min() - 1e-6).all()
        assert (rows[:, 1] <= centers[:, 1].max() + 1e-6).all()

    def test_empty_input_fails_cleanly(self, trained_ckpt, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
        )
        rc = main(["predict", "--model", str(trained_ckpt), "--input", str(empty), "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_missing_data_rows_are_predicted(self, trained_ckpt, tmp_path):
        prefixes = tmp_path / "prefixes.csv"
        prefixes.write_text(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
            'P1,C,,,20000001,1372636858,A,False,"[[-8.61,41.14],[-8.62,41.15]]"\n'
            'P2,A,7,,20000002,1372636900,A,True,"[[-8.60,41.16]]"\n'
        )
        out = tmp_path / "s.csv"
        assert main(["predict", "--model", str(trained_ckpt), "--input", str(prefixes), "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["TRIP_ID", "P1", "P2"]

    def test_empty_polyline_names_the_trip(self, trained_ckpt, tmp_path, capsys):
        prefixes = tmp_path / "prefixes.csv"
        prefixes.write_text(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
            'P1,C,,,20000001,1372636858,A,False,"[[-8.61,41.14]]"\n'
            "P3,C,,,20000003,1372636999,A,False,[]\n"
        )
        out = tmp_path / "s.csv"
        assert main(["predict", "--model", str(trained_ckpt), "--input", str(prefixes), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "trip P3" in err and "empty POLYLINE" in err and str(prefixes) in err
        assert not out.exists()


class TestMemoryNetCli:
    def test_train_and_predict(self, tmp_path, prepared_dir, city_csv, capsys):
        ckpt = tmp_path / "mem.ckpt"
        rc = main(
            [
                "train",
                "--data", str(prepared_dir),
                "--variant", "memory_net",
                "--k", "2", "--hidden", "6", "--embedding-dim", "2",
                "--memory-m", "10",
                "--batch", "6", "--max-batches", "6", "--validate-every", "3",
                "--seed", "4",
                "--out", str(ckpt),
            ]
        )
        assert rc == 0
        out = tmp_path / "mem_sub.csv"
        rc = main(
            ["predict", "--model", str(ckpt), "--input", str(city_csv),
             "--out", str(out), "--data", str(prepared_dir)]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 61

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_non_positive_memory_m_names_the_field(self, tmp_path, prepared_dir, m, capsys):
        ckpt = tmp_path / "bad.ckpt"
        rc = main(
            ["train", "--data", str(prepared_dir), "--variant", "memory_net",
             "--memory-m", m, "--out", str(ckpt)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"memory_m must be positive, got {m}" in err
        assert "could not sample" not in err and not ckpt.exists()

    def test_batch_covering_every_trip_names_the_counts(self, tmp_path, capsys):
        """memory_net leaves a batch's own trips out of its candidates; a
        batch of 5000 prefixes covers all 160 training trips of 200."""
        csv, data_dir = tmp_path / "city.csv", tmp_path / "data"
        fixtures.generate_city_csv(csv, 200, seed=0)
        assert main(["prepare", "--input", str(csv), "--out", str(data_dir),
                     "--val", "20", "--test", "20", "--seed", "0"]) == 0
        ckpt = tmp_path / "mem.ckpt"
        rc = main(["train", "--data", str(data_dir), "--variant", "memory_net", "--batch", "5000",
                   "--max-batches", "2", "--validate-every", "1", "--out", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "they are 160 of the 160 training trips; use a smaller batch or more training trips" in err
        assert not ckpt.exists()

    def test_predict_without_candidate_data_fails(self, tmp_path, prepared_dir, city_csv):
        ckpt = tmp_path / "mem2.ckpt"
        assert main(
            [
                "train", "--data", str(prepared_dir), "--variant", "memory_net",
                "--k", "2", "--hidden", "6", "--embedding-dim", "2",
                "--memory-m", "10", "--batch", "6", "--max-batches", "3",
                "--validate-every", "3", "--out", str(ckpt),
            ]
        ) == 0
        rc = main(["predict", "--model", str(ckpt), "--input", str(city_csv), "--out", str(tmp_path / "s.csv")])
        assert rc == 2


class TestExportEmbeddings:
    def test_quarter_hour_table(self, trained_ckpt, tmp_path):
        out = tmp_path / "emb.csv"
        rc = main(["export-embeddings", "--model", str(trained_ckpt), "--table", "quarter_hour", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) - 1 == 96
        assert len(lines[1].split(",")) == 1 + 4  # index + embedding-dim used in training

    def test_week_table_row_count(self, trained_ckpt, tmp_path):
        out = tmp_path / "emb.csv"
        assert main(["export-embeddings", "--model", str(trained_ckpt), "--table", "week_of_year", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) - 1 == 52

    def test_failed_write_keeps_old_file(self, trained_ckpt, tmp_path, monkeypatch):
        out = tmp_path / "emb.csv"
        out.write_text("old\n")
        monkeypatch.setattr(cli, "atomic_open", failing_after_first_write(cli.atomic_open))
        rc = main(["export-embeddings", "--model", str(trained_ckpt), "--table", "quarter_hour", "--out", str(out)])
        assert rc == 3
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["emb.csv"]

    def test_unknown_table_lists_valid_names(self, trained_ckpt, tmp_path, capsys):
        rc = main(["export-embeddings", "--model", str(trained_ckpt), "--table", "month", "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "quarter_hour" in capsys.readouterr().err


class TestFixtureCommand:
    def test_generates_parseable_csv(self, tmp_path):
        out = tmp_path / "city.csv"
        rc = main(["fixture", "--out", str(out), "--trips", "10", "--seed", "4"])
        assert rc == 0
        from taxidest.data import parse_csv

        with open(out, encoding="utf-8", newline="") as f:
            recs = list(parse_csv(f))
        assert len(recs) == 10
        assert all(r.usable for r in recs)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "city.csv"
        out.write_text("old\n")
        monkeypatch.setattr(data, "atomic_open", failing_after_first_write(data.atomic_open))
        with pytest.raises(RuntimeError, match="disk gone"):
            fixtures.generate_city_csv(out, 10, seed=4)
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["city.csv"]


def test_atomic_open_names_the_target_not_its_temp_file(tmp_path):
    target = tmp_path / "nope" / "m.ckpt"
    with pytest.raises(FileNotFoundError) as e:
        with atomic_open(target, "wb"):
            pass
    assert e.value.filename == str(target)
    assert os.listdir(tmp_path) == []


_SMALL_TRAIN = " ".join(_small_train_args("{data}", "{tmp}/m.ckpt"))


@pytest.mark.parametrize(
    "status, argv, raises_at",
    [
        pytest.param(0, "prepare --input {csv} --out {tmp}/d --val 5 --test 5", None, id="prepare-0"),
        pytest.param(1, "prepare --input {csv}", None, id="prepare-1"),
        pytest.param(2, "prepare --input {tmp}/nope.csv --out {tmp}/d", None, id="prepare-2"),
        pytest.param(3, "prepare --input {csv} --out {tmp}/d", "taxidest.cli.parse_csv", id="prepare-3"),
        pytest.param(2, "prepare --input {csv} --out {tmp}/d --val 0 --test 5", "taxidest.cli.parse_csv",
                     id="prepare-2-no-validation"),
        pytest.param(0, "cluster --data {data} --out {tmp}/c.csv", None, id="cluster-0"),
        pytest.param(1, "cluster --out {tmp}/c.csv", None, id="cluster-1"),
        pytest.param(2, "cluster --data {tmp}/nope --out {tmp}/c.csv", None, id="cluster-2-missing"),
        pytest.param(2, "cluster --data {damaged} --out {tmp}/c.csv", None, id="cluster-2-damaged"),
        pytest.param(3, "cluster --data {data} --out {tmp}/c.csv", "taxidest.cli.load_records", id="cluster-3"),
        pytest.param(2, "cluster --data {data} --out {tmp}/nope/c.csv", "taxidest.cli.load_records",
                     id="cluster-2-no-out-dir"),
        pytest.param(0, _SMALL_TRAIN, None, id="train-0"),
        pytest.param(1, "train --data {data}", None, id="train-1"),
        pytest.param(2, " ".join(_small_train_args("{damaged}", "{tmp}/m.ckpt")), None, id="train-2-damaged"),
        pytest.param(3, _SMALL_TRAIN, "taxidest.cli.load_records", id="train-3"),
        pytest.param(4, _SMALL_TRAIN + " --batch 20 --lr 1e3 --max-batches 20 --validate-every 5", None, id="train-4"),
        pytest.param(2, " ".join(_small_train_args("{data}", "{tmp}/nope/m.ckpt")), "taxidest.cli.load_records",
                     id="train-2-no-out-dir"),
        pytest.param(2, _SMALL_TRAIN + " --report {tmp}/nope/r.jsonl", "taxidest.cli.load_records",
                     id="train-2-no-report-dir"),
        pytest.param(0, "evaluate --model {ckpt} --data {data}", None, id="evaluate-0"),
        pytest.param(1, "evaluate --data {data}", None, id="evaluate-1"),
        pytest.param(2, "evaluate --model {tmp}/nope.ckpt --data {data}", None, id="evaluate-2-missing"),
        pytest.param(2, "evaluate --model {cut_ckpt} --data {data}", None, id="evaluate-2-damaged"),
        pytest.param(3, "evaluate --model {ckpt} --data {data}", "taxidest.cli.load_model", id="evaluate-3"),
        pytest.param(0, "predict --model {ckpt} --input {csv} --out {tmp}/s.csv", None, id="predict-0"),
        pytest.param(1, "predict --model {ckpt} --out {tmp}/s.csv", None, id="predict-1"),
        pytest.param(2, "predict --model {ckpt} --input {tmp}/nope.csv --out {tmp}/s.csv", None, id="predict-2"),
        pytest.param(3, "predict --model {ckpt} --input {csv} --out {tmp}/s.csv", "taxidest.cli.load_model",
                     id="predict-3"),
        pytest.param(2, "predict --model {ckpt} --input {csv} --out {tmp}/nope/s.csv", "taxidest.cli.load_model",
                     id="predict-2-no-out-dir"),
        pytest.param(0, "export-embeddings --model {ckpt} --table taxi --out {tmp}/e.csv", None, id="export-0"),
        pytest.param(1, "export-embeddings --model {ckpt} --out {tmp}/e.csv", None, id="export-1"),
        pytest.param(2, "export-embeddings --model {cut_ckpt} --table taxi --out {tmp}/e.csv", None, id="export-2"),
        pytest.param(3, "export-embeddings --model {ckpt} --table taxi --out {tmp}/e.csv", "taxidest.cli.load_model",
                     id="export-3"),
        pytest.param(0, "fixture --out {tmp}/f.csv --trips 5", None, id="fixture-0"),
        pytest.param(1, "fixture --trips 5", None, id="fixture-1"),
        pytest.param(2, "fixture --out {tmp}/nope/f.csv --trips 5", None, id="fixture-2"),
        pytest.param(3, "fixture --out {tmp}/f.csv --trips 5", "taxidest.fixtures.generate_city_csv", id="fixture-3"),
        pytest.param(2, "fixture --out {tmp}/f.csv --trips -3", "taxidest.fixtures.generate_city_csv",
                     id="fixture-2-negative-trips"),
        pytest.param(2, "fixture --out {tmp}/f.csv --trips 0", "taxidest.fixtures.generate_city_csv",
                     id="fixture-2-no-trips"),
    ],
)
def test_exit_status(status, argv, raises_at, tmp_path, city_csv, prepared_dir, trained_ckpt, monkeypatch, capsys):
    """The exit codes of the module docstring, for every subcommand: 0
    success, 1 usage, 2 bad data, 3 internal error (a library call on the
    input raises), 4 a failed ``train``.  A row that expects 2 although a
    loader raises shows that its refusal comes before any data loads."""
    damaged = shutil.copytree(prepared_dir, tmp_path / "damaged")
    (damaged / "splits.json").write_text("{")
    cut_ckpt = tmp_path / "cut.ckpt"
    cut_ckpt.write_bytes(trained_ckpt.read_bytes()[:-4])
    paths = {"csv": city_csv, "data": prepared_dir, "damaged": damaged, "ckpt": trained_ckpt,
             "cut_ckpt": cut_ckpt, "tmp": tmp_path}
    if raises_at is not None:

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(raises_at, boom)
    try:
        rc = main([arg.format(**paths) for arg in argv.split()])
    except SystemExit as e:  # argparse's usage error
        rc = e.code
    assert rc == status
    err = capsys.readouterr().err
    assert ("internal error: boom" in err) == (status == 3)


@pytest.mark.parametrize(
    "argv, options",
    [
        pytest.param(_SMALL_TRAIN + " --report {tmp}/m.ckpt", "--report and --out", id="train-report-is-out"),
        pytest.param(_SMALL_TRAIN + " --clusters {tmp}/m.ckpt", "--out and --clusters", id="train-out-is-clusters"),
        pytest.param(_SMALL_TRAIN + " --report {data}/splits.json", "--report and --data's splits.json",
                     id="train-report-is-splits"),
        pytest.param("cluster --data {data} --out {data}/records.bin", "--out and --data's records.bin",
                     id="cluster-out-is-records"),
        pytest.param("predict --model {ckpt} --input {csv} --out {csv}", "--out and --input", id="predict-out-is-input"),
        pytest.param("predict --model {ckpt} --input {csv} --out {data}/../in.csv", "--out and --input",
                     id="predict-out-resolves-to-input"),
        pytest.param("predict --model {ckpt} --input {csv} --out {ckpt}", "--out and --model", id="predict-out-is-model"),
        pytest.param("export-embeddings --model {ckpt} --table taxi --out {ckpt}", "--out and --model",
                     id="export-out-is-model"),
    ],
)
def test_no_command_writes_over_its_own_files(argv, options, tmp_path, city_csv, prepared_dir, trained_ckpt, capsys):
    """An output that is one of the command's inputs, or its other output,
    is refused before any data loads, and every file stays as it was."""
    paths = {"csv": tmp_path / "in.csv", "data": tmp_path / "d", "ckpt": tmp_path / "m.ckpt", "tmp": tmp_path}
    shutil.copy(city_csv, paths["csv"])
    shutil.copytree(prepared_dir, paths["data"])
    shutil.copy(trained_ckpt, paths["ckpt"])
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    rc = main([arg.format(**paths) for arg in argv.split()])
    err = capsys.readouterr().err
    assert rc == 2 and f"{options} name the same file" in err and "internal error" not in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "argv",
    ["prepare --input {csv} --out {tmp}/d", _SMALL_TRAIN, "evaluate --model {ckpt} --data {data}",
     "predict --model {ckpt} --input {csv} --out {tmp}/s.csv", "fixture --out {tmp}/f.csv"],
    ids=lambda argv: argv.split()[0],
)
def test_negative_seed_names_the_option(argv, tmp_path, city_csv, prepared_dir, trained_ckpt, capsys):
    paths = {"csv": city_csv, "data": prepared_dir, "ckpt": trained_ckpt, "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in (argv + " --seed -1").split()]) == 2
    assert capsys.readouterr().err == f"taxidest {argv.split()[0]}: --seed=-1: must be a non-negative int\n"
    assert os.listdir(tmp_path) == []
