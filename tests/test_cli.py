"""End-to-end CLI pipeline on the synthetic fixture, plus error paths."""

import contextlib
import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from taxidest import cli, fixtures, training
from taxidest.cli import main


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
        assert main(["prepare", "--input", str(csv_path), "--out", str(out), "--val", "0", "--test", "0"]) == 2
        err = capsys.readouterr().err
        assert f"line 3, column {column}" in err and "internal error" not in err
        assert not (out / "records.bin").exists()


def _small_train_args(data_dir, out):
    return [
        "train", "--data", str(data_dir), "--variant", "mlp_direct",
        "--k", "2", "--hidden", "4", "--embedding-dim", "2",
        "--batch", "4", "--max-batches", "2", "--validate-every", "2",
        "--out", str(out),
    ]


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
        ],
    )
    def test_damaged_splits_file(self, data_copy, trained_ckpt, tmp_path, capsys, command, text, why):
        path = data_copy / "splits.json"
        path.write_text(text)
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

        from taxidest.geo import EARTH

        rows = ["TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE"]
        rng = np.random.default_rng(0)
        deg_m = EARTH.radius_m * math.pi / 180
        for i in range(30):
            which = i % 2
            lat = 41.15 + which * 5000 / deg_m + rng.normal(0, 50 / deg_m)
            lon = -8.61 + rng.normal(0, 50 / deg_m)
            poly = f'"[[-8.61,41.15],[{lon:.6f},{lat:.6f}]]"'
            rows.append(f"B{i},C,,,1,1400000000,A,False,{poly}")
        csv_path = tmp_path / "blobs.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        data_dir = tmp_path / "data"
        assert main(["prepare", "--input", str(csv_path), "--out", str(data_dir), "--val", "0", "--test", "0"]) == 0
        out_csv = tmp_path / "c.csv"
        assert main(["cluster", "--data", str(data_dir), "--out", str(out_csv)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "C=2"

    def test_missing_data_dir(self, tmp_path):
        rc = main(["cluster", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "c.csv")])
        assert rc == 2

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

    @pytest.mark.parametrize("variant", ["memory_net", "mlp_direct"])
    def test_default_batch(self, tmp_path, prepared_dir, monkeypatch, variant):
        """memory_net's default batch is ModelConfig.memory_batch, here set to
        7; the other variants' is TrainConfig's."""
        seen = []

        def capture(model, train_records, val_examples, cfg, checkpoint_path=None):
            seen.append(cfg)
            return training.TrainReport(stop_reason="max_batches")

        make_config = cli._model_config_from_args
        monkeypatch.setattr(
            cli, "_model_config_from_args", lambda args: dataclasses.replace(make_config(args), memory_batch=7)
        )
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
         ("--embedding-dim", "-1", "embedding_dims"), ("--embedding-dim", "0", "embedding_dims")],
    )
    def test_bad_setting_names_its_field(self, tmp_path, prepared_dir, option, value, field, capsys):
        args = _small_train_args(prepared_dir, tmp_path / "m.ckpt") + [option, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert field in err and "internal error" not in err
        assert not (tmp_path / "m.ckpt").exists()

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
        monkeypatch.setattr(cli, "atomic_open", _failing_after_first_write(cli.atomic_open))
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
        monkeypatch.setattr(fixtures, "atomic_open", _failing_after_first_write(fixtures.atomic_open))
        with pytest.raises(RuntimeError, match="disk gone"):
            fixtures.generate_city_csv(out, 10, seed=4)
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["city.csv"]


def _failing_after_first_write(atomic_open):
    """``atomic_open`` whose file raises on its second write."""

    @contextlib.contextmanager
    def failing(path, mode="w", **kwargs):
        with atomic_open(path, mode, **kwargs) as f:
            write, calls = f.write, []

            def write_once(text):
                calls.append(text)
                if len(calls) > 1:
                    raise RuntimeError("disk gone")
                return write(text)

            f.write = write_once
            yield f

    return failing
