"""Seeded mutation sweeps over the files the CLI reads, and the contract
that every reader of an input file shares.

Each mutant of a small valid file goes through the function that its
subcommand calls.  The oracle: the mutant loads and equals what this file's
own reader returns, or it raises ``DataError`` whose message starts with the
path (for the two CSVs, with the path and a line that the reference finds
bad; only a cluster file with no centre at all is named without a line).  A
sample of the rejected mutants also goes through ``cli.main``, which must
exit 2 and name the file.  The sweeps' sizes are fixed below, before they run.
"""

import csv
import dataclasses
import io
import json
import math
import random
import re
import struct

import numpy as np
import pytest

from conftest import make_records, tiny_batch, tiny_model
from taxidest import cli, fixtures, models
from taxidest.clustering import load_clusters
from taxidest.data import CALL_TYPES, DataError, load_records, save_records

SEED = 18
BYTE_EDIT_MUTANTS = 2000  # each one to three edits; then one truncation per byte of VALID
CSV_BYTE_EDIT_MUTANTS = 2000  # likewise, of CSV_VALID
SPLITS_BYTE_EDIT_MUTANTS = 1000  # likewise, of SPLITS_VALID
CACHE_BIT_FLIPS = 1500  # then a truncation at every header byte and every array boundary
CHECKPOINT_BIT_FLIPS = 1500  # likewise
CLI_SAMPLE = 6

VALID = (
    b"lat,lon\n"
    b"41.149999999999999,-8.6099999999999994\n"
    b"41.18,-8.5999999999999996\r\n"
    b"\n"
    b"-0.5,1e-05\n"
    b" 41.237 , -8.67\n"
)
# Bytes that the format or UTF-8 gives a meaning to, drawn as often as all others.
SALIENT = b"0123456789.,+-eE_ \t\r\n\x0c\x1cnaif\x80\xc3\xff"

#: A number as a cluster CSV may hold it: ASCII spaces around an ASCII
#: decimal (sign, digits, fraction, exponent) or nan, inf or infinity.
NUMBER = re.compile(r" *[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:nan|inf|infinity)) *", re.ASCII)
#: A byte that is not UTF-8, as the ``surrogateescape`` error handler reads it.
ESCAPED = re.compile("[\udc80-\udcff]")


def reference_clusters(data: bytes):
    """``(centres, bad_lines)``: the centres as ``[lat, lon]`` lists, or None and
    the 1-based lines at fault.  Lines are read as a text-mode reader reads
    them (universal newlines), and a byte that is not UTF-8 is kept as a
    surrogate that marks its line bad."""
    lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline=""))
    bad = {n for n, line in enumerate(lines, start=1) if ESCAPED.search(line)}
    if not lines or lines[0].rstrip("\r\n").strip(" ") != "lat,lon":
        bad.add(1)
    centres = []
    for n, line in enumerate(lines[1:], start=2):
        text = line.rstrip("\r\n")
        if not text.strip(" "):
            continue
        fields = text.split(",")
        if text == line or len(fields) != 2 or not all(NUMBER.fullmatch(f) for f in fields):
            bad.add(n)
            continue
        lat, lon = map(float, fields)
        if not (abs(lat) <= 90 and abs(lon) <= 180):
            bad.add(n)
        centres.append([lat, lon])
    if bad or not centres:
        return None, bad
    return centres, bad


def mutants(rng: random.Random, valid=VALID, salient=SALIENT, count=BYTE_EDIT_MUTANTS):
    """``count`` copies of ``valid`` with one to three byte edits each, then
    ``valid`` cut at every byte."""
    for _ in range(count):
        data = bytearray(valid)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(data))
            byte = rng.choice(salient) if rng.random() < 0.5 else rng.randrange(256)
            edit = rng.randrange(3)
            if edit == 0:
                data[pos] = byte
            elif edit == 1:
                data.insert(pos, byte)
            else:
                del data[pos]
        yield bytes(data)
    for cut in range(len(valid)):
        yield valid[:cut]


def check_cluster_mutant(path, data: bytes) -> bool:
    """Apply the oracle to one mutant; True if it was rejected."""
    centres, bad = reference_clusters(data)
    path.write_bytes(data)
    try:
        got = load_clusters(path)
    except DataError as e:
        msg = str(e)
        assert centres is None, f"{data!r} was rejected ({msg}) but parses as {centres}"
        assert msg.startswith(f"{path}:"), f"{data!r}: {msg}"
        where = msg[len(str(path)) + 1 :].split(":", 1)[0]
        if bad:
            assert where.isdigit() and int(where) in bad, f"{data!r}: {msg} names none of lines {sorted(bad)}"
        else:
            assert msg == f"{path}: no cluster centers found", f"{data!r}: {msg}"
        return True
    assert centres is not None, f"{data!r} loaded, but lines {sorted(bad)} are bad"
    assert got.centers.tolist() == centres, f"{data!r}"
    return False


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    fixtures.generate_city_csv(root / "city.csv", 30, seed=2)
    out = root / "data"
    argv = ["prepare", "--input", str(root / "city.csv"), "--out", str(out), "--val", "4", "--test", "0"]
    assert cli.main(argv) == 0
    return out


def through_cli(capsys, path, rejected, argv):
    """Write a sample of ``rejected`` to ``path`` and run ``argv``: each must
    exit 2 and name ``path``."""
    capsys.readouterr()
    for data in rejected[:: max(len(rejected) // CLI_SAMPLE, 1)][:CLI_SAMPLE]:
        path.write_bytes(data)
        assert cli.main(argv) == 2, f"{data!r}"
        assert str(path) in capsys.readouterr().err


def test_cluster_csv_mutants(tmp_path, prepared_dir, capsys):
    path = tmp_path / "clusters.csv"
    assert not check_cluster_mutant(path, VALID)
    rejected = [data for data in mutants(random.Random(SEED)) if check_cluster_mutant(path, data)]
    total = BYTE_EDIT_MUTANTS + len(VALID)
    assert 0 < len(rejected) < total  # both outcomes occur
    out = tmp_path / "x.ckpt"
    argv = ["train", "--data", str(prepared_dir), "--clusters", str(path), "--out", str(out)]
    through_cli(capsys, path, rejected, argv)
    assert not out.exists()


# ---------------------------------------------------------------------------
# The competition CSV, read as ``cli`` reads it
# ---------------------------------------------------------------------------

CSV_VALID = (
    b"TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
    b'"T1",A,31508,,20000589,1372636858,A,False,"[[-8.618643,41.141412],[-8.6185,41.1414]]"\n'
    b'T2,B,NA,7,20000596,1372637303,A,False,"[[-8.639847,41.159826]]"\r\n'
    b'T3,C, 12.0 ,,-20000320,1372636951,A,TRUE,"[]"\n'
    b'T4,C,,,20000520,0,A,false,"[[-8.6,41.1],[1e-05,-0.5]]"\n'
)
CSV_SALIENT = b'0123456789.,+-eE"[] \t\r\nABCNTFaflsru_\x00\x1f\x80\xc3\xff'
#: An integer field: ASCII spaces around ASCII digits with an optional sign.
INTEGER = re.compile(r" *([+-]?[0-9]+) *", re.ASCII)
#: A word field: ASCII spaces around ASCII letters.
WORD = re.compile(r" *([A-Za-z]*) *", re.ASCII)


def reference_int(text: str, optional: bool):
    """An integer field's value within int64 (non-negative if ``optional``,
    where an empty or NA field is None and an integral decimal counts);
    ValueError otherwise."""
    if INTEGER.fullmatch(text):
        if len(text.strip(" ").lstrip("+-").lstrip("0")) > 19:  # 1e19 > 2**63, and int() stops at 4300 digits
            raise ValueError(text)
        value = int(text)
    elif optional and WORD.fullmatch(text) and text.strip(" ").upper() in ("", "NA"):
        return None
    elif optional and NUMBER.fullmatch(text) and float(text).is_integer():
        value = int(float(text))
    else:
        raise ValueError(text)
    if not (0 if optional else -(2**63)) <= value < 2**63:
        raise ValueError(text)
    return value


def reference_polyline(text: str) -> list:
    """POLYLINE's points as ``[lat, lon]`` lists; ValueError (or
    OverflowError) unless it is a JSON array of ``[lon, lat]`` number pairs
    on the Earth."""
    if '"' in text or "true" in text or "false" in text:
        raise ValueError(text)
    try:
        pairs = json.loads(text)
    except RecursionError:
        raise ValueError(text) from None
    if not isinstance(pairs, list):
        raise ValueError(text)
    points = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair)):
            raise ValueError(text)
        lon, lat = map(float, pair)
        if not (abs(lat) <= 90 and abs(lon) <= 180):
            raise ValueError(text)
        points.append([lat, lon])
    return points


def reference_csv(data: bytes):
    """``(records, bad_line)``: the records as tuples of plain values and
    None, or None and the 1-based line that a reader must name: the first
    line with a byte that is not UTF-8, else the first row at fault.  Lines
    are read as a text-mode reader reads them (universal newlines)."""
    lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline=""))
    escaped = [n for n, line in enumerate(lines, start=1) if ESCAPED.search(line)]
    if escaped:
        return None, escaped[0]
    reader = csv.reader(lines)
    header = next(reader, None)
    columns = CSV_HEADER.split(",")  # each one required, in any order
    if header is None or not all(c in header for c in columns):
        return None, 1
    pos = {c: header.index(c) for c in columns}
    records = []
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            return None, reader.line_num
        try:
            if len(row) < len(header):
                raise ValueError(row)
            call_type, missing = (row[pos[c]] for c in ("CALL_TYPE", "MISSING_DATA"))
            if not (WORD.fullmatch(call_type) and call_type.strip(" ") in ("A", "B", "C")):
                raise ValueError(call_type)
            if not (WORD.fullmatch(missing) and missing.strip(" ").lower() in ("true", "false")):
                raise ValueError(missing)
            records.append((
                row[pos["TRIP_ID"]],
                {"A": "phone", "B": "stand", "C": "street"}[call_type.strip(" ")],
                *(reference_int(row[pos[c]], optional=True) for c in ("ORIGIN_CALL", "ORIGIN_STAND")),
                *(reference_int(row[pos[c]], optional=False) for c in ("TAXI_ID", "TIMESTAMP")),
                missing.strip(" ").lower() == "true",
                reference_polyline(row[pos["POLYLINE"]]),
            ))
        except (ValueError, OverflowError):
            return None, reader.line_num
    if not lines[-1].endswith(("\r", "\n")):
        return None, reader.line_num
    return records, None


def check_csv_mutant(path, data: bytes) -> bool:
    """Apply the oracle to one competition CSV mutant; True if it was rejected."""
    records, bad = reference_csv(data)
    path.write_bytes(data)
    try:
        got = list(cli._read_csv(path))
    except DataError as e:
        msg = str(e)
        assert records is None, f"{data!r} was rejected ({msg}) but parses as {records}"
        assert msg.startswith(f"{path}: line {bad}, ") or msg.startswith(f"{path}: line {bad}: "), \
            f"{data!r}: {msg} does not name line {bad}"
        return True
    assert records is not None, f"{data!r} loaded, but line {bad} is bad"
    assert [(r.trip_id, r.call_type, r.origin_call, r.origin_stand, r.taxi_id, r.timestamp, r.missing_data,
             r.polyline.tolist()) for r in got] == records, f"{data!r}"
    return False


def test_competition_csv_mutants(tmp_path, capsys):
    path = tmp_path / "train.csv"
    assert not check_csv_mutant(path, CSV_VALID)
    rng = random.Random(SEED)
    rejected = [data for data in mutants(rng, CSV_VALID, CSV_SALIENT, CSV_BYTE_EDIT_MUTANTS)
                if check_csv_mutant(path, data)]
    assert 0 < len(rejected) < CSV_BYTE_EDIT_MUTANTS + len(CSV_VALID)
    out = tmp_path / "data"
    through_cli(capsys, path, rejected, ["prepare", "--input", str(path), "--out", str(out), "--val", "1"])
    assert not out.exists()


# ---------------------------------------------------------------------------
# splits.json, read as every command after ``prepare`` reads it
# ---------------------------------------------------------------------------

SPLITS_VALID = b'{"seed": 3, "test": 2, "validation": 4}'
SPLITS_SALIENT = b'0123456789{}[]":, -+.eEtrufalsnNI\x80\xff'
SPLITS_RECORDS = 12


def reference_splits(data: bytes):
    """``(seed, validation, test)``, or None if ``data`` does not hold them
    as non-negative JSON integers that leave a training ride."""
    try:
        spec = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):  # a UnicodeDecodeError is a ValueError
        return None
    if not isinstance(spec, dict):
        return None
    values = tuple(spec.get(key) for key in ("seed", "validation", "test"))
    if not all(type(v) is int and v >= 0 for v in values) or values[1] + values[2] >= SPLITS_RECORDS:
        return None
    return values


def split_summary(prepared):
    return ([r.trip_id for r in prepared.train],
            *([(ex.trip_id, ex.cut) for ex in part] for part in (prepared.validation, prepared.test)))


def check_splits_mutant(path, data: bytes) -> bool:
    """Apply the oracle to one ``splits.json`` mutant; True if it was rejected."""
    spec = reference_splits(data)
    path.write_bytes(data)
    try:
        got = cli._load_prepared(path.parent)
    except DataError as e:
        assert spec is None, f"{data!r} was rejected ({e}) but reads as {spec}"
        assert str(e).startswith(f"{path}: "), f"{data!r}: {e}"
        return True
    assert spec is not None, f"{data!r} loaded"
    want = cli._derive_split(load_records(path.parent / "records.bin"), *spec)
    assert split_summary(got) == split_summary(want), f"{data!r}"
    return False


def test_splits_json_mutants(tmp_path, capsys):
    path = tmp_path / "data" / "splits.json"
    path.parent.mkdir()
    save_records(make_records([2, 3, 1, 4] * 3, np.random.default_rng(SEED)), path.parent / "records.bin")
    assert not check_splits_mutant(path, SPLITS_VALID)
    rng = random.Random(SEED)
    rejected = [data for data in mutants(rng, SPLITS_VALID, SPLITS_SALIENT, SPLITS_BYTE_EDIT_MUTANTS)
                if check_splits_mutant(path, data)]
    assert 0 < len(rejected) < SPLITS_BYTE_EDIT_MUTANTS + len(SPLITS_VALID)
    through_cli(capsys, path, rejected, ["cluster", "--data", str(path.parent), "--out", str(tmp_path / "c.csv")])


# ---------------------------------------------------------------------------
# The binary containers: the record cache and a checkpoint
# ---------------------------------------------------------------------------


def reference_container(blob: bytes, magic: bytes, version: int):
    """(header, {name: array}) of a container file as its module docstring
    lays it out, read with ``struct`` and ``json``, the arrays back to back;
    None if it cannot be."""
    if len(blob) < 20 or blob[:8] != magic:
        return None
    got_version, hlen = struct.unpack_from("<IQ", blob, 8)
    if got_version != version or len(blob) < 20 + hlen:
        return None
    try:
        header = json.loads(blob[20 : 20 + hlen].decode("utf-8"))
        arrays, end = {}, 0
        for e in header["params"]:
            if e["offset"] != end:
                return None
            count = math.prod(e["shape"])
            arr = np.frombuffer(blob, np.dtype(e["dtype"]), count, 20 + hlen + e["offset"])
            arrays[e["name"]] = arr.reshape(e["shape"])
            end += e["nbytes"]
    except (KeyError, TypeError, ValueError):
        return None
    return header, arrays


def container_cuts(blob: bytes) -> list[int]:
    """Every length of ``blob`` up to the end of its header, and every array
    boundary after it."""
    hlen = int.from_bytes(blob[12:20], "little")
    entries = json.loads(blob[20 : 20 + hlen])["params"]
    ends = {20 + hlen + e["offset"] + d for e in entries for d in (0, e["nbytes"])}
    return sorted(set(range(20 + hlen + 1)) | ends - {len(blob)})


def bit_flips(blob: bytes, count: int, rng: random.Random):
    for _ in range(count):
        pos = rng.randrange(len(blob))
        yield blob[:pos] + bytes([blob[pos] ^ (1 << rng.randrange(8))]) + blob[pos + 1 :]


def reference_records(blob: bytes):
    """The cache's records as tuples of plain values, or None."""
    read = reference_container(blob, b"TXDCACHE", 2)
    if read is None:
        return None
    header, cols = read
    try:
        offsets = cols["offsets"].tolist()
        return [
            (trip_id, CALL_TYPES[cols["call_type"][i]],
             *(None if cols[c][i] == -1 else int(cols[c][i]) for c in ("origin_call", "origin_stand")),
             int(cols["taxi_id"][i]), int(cols["timestamp"][i]), bool(cols["missing"][i]),
             cols["points"][offsets[i] : offsets[i + 1]].tobytes())
            for i, trip_id in enumerate(header["trip_ids"])
        ]
    except (KeyError, IndexError, TypeError):
        return None


def check_cache_mutant(path, blob: bytes) -> bool:
    """Apply the oracle to one cache mutant; True if it was rejected."""
    path.write_bytes(blob)
    try:
        records = load_records(path)
    except DataError as e:
        assert str(e).startswith(f"{path}: "), f"{blob!r}: {e}"
        return True
    got = [(r.trip_id, r.call_type, r.origin_call, r.origin_stand, r.taxi_id, r.timestamp, r.missing_data,
            r.polyline.tobytes()) for r in records]
    assert got == reference_records(blob), f"{blob!r}"
    return False


def test_record_cache_mutants(tmp_path, prepared_dir, capsys):
    records = make_records([2, 1, 3], np.random.default_rng(SEED))
    records[0].origin_call, records[1].origin_stand, records[1].call_type = None, 4, "stand"
    records[2].missing_data = True
    path = tmp_path / "records.bin"
    save_records(records, path)
    valid = path.read_bytes()
    assert not check_cache_mutant(path, valid)
    assert all(check_cache_mutant(path, valid[:n]) for n in container_cuts(valid))
    flips = bit_flips(valid, CACHE_BIT_FLIPS, random.Random(SEED))
    rejected = [blob for blob in flips if check_cache_mutant(path, blob)]
    assert 0 < len(rejected) < CACHE_BIT_FLIPS
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "splits.json").write_bytes((prepared_dir / "splits.json").read_bytes())
    path = data_dir / "records.bin"
    through_cli(capsys, path, rejected, ["cluster", "--data", str(data_dir), "--out", str(tmp_path / "c.csv")])


def check_checkpoint_mutant(path, blob: bytes, batch) -> bool:
    """Apply the oracle to one checkpoint mutant; True if it was rejected.
    A model that loads must also predict."""
    path.write_bytes(blob)
    try:
        model = models.load_model(path)
    except DataError as e:
        assert str(e).startswith(f"{path}: "), f"{blob!r}: {e}"
        return True
    read = reference_container(blob, b"TXDMODEL", 1)
    assert read is not None, f"{blob!r} loaded, but the reference cannot read it"
    header, arrays = read
    extras = header["extras"]
    assert dataclasses.asdict(model.config) == extras["model_config"], f"{blob!r}"
    assert dataclasses.asdict(model.stats) == extras["stats"], f"{blob!r}"
    assert model.vocab.to_json() == extras["vocab"], f"{blob!r}"
    assert (None if model.clusters is None else model.clusters.centers.tolist()) == extras["clusters"], f"{blob!r}"
    assert list(model.params) == list(arrays), f"{blob!r}"
    for name, p in model.params.items():
        assert p.value.tobytes() == arrays[name].tobytes(), f"{blob!r}: {name}"
    with np.errstate(all="ignore"):  # a flipped weight may overflow
        models.predict(model, batch)
    return False


def test_checkpoint_mutants(tmp_path, prepared_dir, capsys):
    model = tiny_model("mlp_clusters")
    batch = tiny_batch(model, np.random.default_rng(SEED), n=3)
    path = tmp_path / "model.ckpt"
    models.save_model(model, path)
    valid = path.read_bytes()
    assert not check_checkpoint_mutant(path, valid, batch)
    assert all(check_checkpoint_mutant(path, valid[:n], batch) for n in container_cuts(valid))
    flips = bit_flips(valid, CHECKPOINT_BIT_FLIPS, random.Random(SEED))
    rejected = [blob for blob in flips if check_checkpoint_mutant(path, blob, batch)]
    assert 0 < len(rejected) < CHECKPOINT_BIT_FLIPS
    through_cli(capsys, path, rejected, ["evaluate", "--model", str(path), "--data", str(prepared_dir)])


# ---------------------------------------------------------------------------
# One contract for the five readers
# ---------------------------------------------------------------------------

CSV_HEADER = "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE"
CSV_ROWS = [f'T{i},C,,,{20000000 + i},{1372636858 + i},A,False,"[[-8.61,41.14],[-8.62,41.15]]"' for i in range(4)]


def _cache(tmp_path) -> bytes:
    save_records(make_records([2, 1], np.random.default_rng(1)), tmp_path / "valid.bin")
    return (tmp_path / "valid.bin").read_bytes()


def _checkpoint(tmp_path) -> bytes:
    models.save_model(tiny_model("mlp_direct"), tmp_path / "valid.ckpt")
    return (tmp_path / "valid.ckpt").read_bytes()


def _read_splits(path):
    """``splits.json`` as ``cli`` reads it, beside a valid record cache."""
    save_records(make_records([2, 1, 3], np.random.default_rng(1)), path.parent / "records.bin")
    return cli._load_prepared(path.parent)


#: name: (file name, valid bytes given a scratch directory, reader of a path)
READERS = {
    "competition CSV": ("train.csv", lambda tmp: "\n".join([CSV_HEADER, *CSV_ROWS, ""]).encode(),
                        lambda p: list(cli._read_csv(p))),
    "cluster CSV": ("clusters.csv", lambda tmp: b"lat,lon\n41.1,-8.6\n41.2,-8.5\n", load_clusters),
    "splits.json": ("splits.json", lambda tmp: b'{"seed": 0, "test": 0, "validation": 1}', _read_splits),
    "record cache": ("records.bin", _cache, load_records),
    "checkpoint": ("model.ckpt", _checkpoint, models.load_model),
}
CASES = {
    "empty": lambda valid: b"",
    "one-0xff-byte": lambda valid: b"\xff",
    "cut-one-byte-short": lambda valid: valid[:-1],
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_rejects_a_bad_file_with_a_data_error_naming_it(tmp_path, reader, case):
    name, valid, read = READERS[reader]
    path = tmp_path / "dir" / name
    path.parent.mkdir()
    good = valid(tmp_path)
    path.write_bytes(good)
    read(path)
    path.write_bytes(CASES[case](good))
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}:")


TEXT_LINES = {
    "competition CSV": [CSV_HEADER.encode(), *(row.encode() for row in CSV_ROWS)],
    "cluster CSV": [b"lat,lon", b"41.1,-8.6", b"41.2,-8.5", b"41.3,-8.4"],
}


@pytest.mark.parametrize(
    "reader, old, new, message",
    [("competition CSV", b",C,", b",\xff,", "{path}: line 4: byte 0xff is not UTF-8"),
     ("competition CSV", b",C,", b",Z,", "{path}: line 4, column CALL_TYPE: unknown call type 'Z'"),
     ("cluster CSV", b"-8.4", b"-8.\xff4", "{path}:4: byte 0xff is not UTF-8"),
     ("cluster CSV", b"-8.4", b"-8_4", "{path}:4: not a coordinate pair: '41.3,-8_4'")],
    ids=["csv-byte", "csv-field", "clusters-byte", "clusters-field"],
)
def test_lines_that_end_in_cr_are_counted(tmp_path, reader, old, new, message):
    """In a text file whose lines end in a lone \\r, a byte that is not
    UTF-8, or a bad field, on line 4 is named as line 4."""
    name, _, read = READERS[reader]
    path = tmp_path / name
    lines = list(TEXT_LINES[reader])
    lines[3] = lines[3].replace(old, new)
    path.write_bytes(b"\r".join(lines) + b"\r")
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value).startswith(message.format(path=path))


# ---------------------------------------------------------------------------
# Values past the limits of Python's own readers, and arrays out of place
# ---------------------------------------------------------------------------

DEEP = 50_000  # JSON nesting past the decoder's recursion limit
HUGE = "1" * 5001  # past int()'s 4300-digit limit


def csv_with(column: str, value: str):
    """The contract's competition CSV with ``column`` of line 3 set to ``value``."""
    rows = [row.split(",", 8) for row in CSV_ROWS]  # the POLYLINE, last, holds commas
    rows[1][CSV_HEADER.split(",").index(column)] = value
    return lambda tmp: "\n".join([CSV_HEADER, *(",".join(row) for row in rows), ""]).encode()


def container_with(build, edit, gap: int = 0):
    """The container that ``build(tmp)`` returns, its header replaced by
    ``edit(header)`` (a dict, or bytes as they are), and ``gap`` zero bytes
    put after its first array."""

    def make(tmp):
        blob = build(tmp)
        hlen = int.from_bytes(blob[12:20], "little")
        old = json.loads(blob[20 : 20 + hlen])
        new = edit(old)
        text = new if isinstance(new, bytes) else json.dumps(new).encode()
        arrays, first = blob[20 + hlen :], old["params"][0]["nbytes"]
        return blob[:12] + len(text).to_bytes(8, "little") + text + arrays[:first] + bytes(gap) + arrays[first:]

    return make


def point_timestamp_at_taxi_id(header):
    entries = {e["name"]: e for e in header["params"]}
    entries["timestamp"]["offset"] = entries["taxi_id"]["offset"]
    return header


def shift_all_but_the_first(header):
    for e in header["params"][1:]:
        e["offset"] += 8
    return header


def drop_memory_m(header):
    del header["extras"]["model_config"]["memory_m"]
    return header


#: case: (reader, valid bytes given a scratch directory, the message after the path, a regex)
BAD_VALUES = {
    "csv-polyline-400-digits": ("competition CSV", csv_with("POLYLINE", f'"[[{"1" * 400},41.14]]"'),
                                r"line 3, column POLYLINE: point 0 is \[inf, 41\.14\]"),
    "csv-polyline-5001-digits": ("competition CSV", csv_with("POLYLINE", f'"[[-8.6,{HUGE}]]"'),
                                 r"line 3, column POLYLINE: point 0 is \[-8\.6, inf\]"),
    "csv-polyline-nested": ("competition CSV", csv_with("POLYLINE", '"' + "[" * DEEP + "]" * DEEP + '"'),
                            r"line 3, column POLYLINE: expected a JSON array of \[lon, lat\] number pairs"),
    "csv-timestamp-5001-digits": ("competition CSV", csv_with("TIMESTAMP", HUGE),
                                  r"line 3, column TIMESTAMP: not an integer within int64"),
    "csv-origin-call-5001-digits": ("competition CSV", csv_with("ORIGIN_CALL", HUGE),
                                    r"line 3, column ORIGIN_CALL: not a non-negative integer within int64"),
    "splits-nested": ("splits.json", lambda tmp: b"[" * DEEP + b"]" * DEEP, r"not JSON"),
    "splits-counts-past-the-cache": ("splits.json", lambda tmp: b'{"seed": 0, "test": 2, "validation": 1}',
                                     r"cannot split 3 usable records into val=1 \+ test=2"),
    "cache-header-nested": ("record cache", container_with(_cache, lambda h: b"[" * DEEP + b"]" * DEEP),
                            r"unreadable record cache header"),
    "cache-overlapping-offsets": ("record cache", container_with(_cache, point_timestamp_at_taxi_id),
                                  r"column 'timestamp' is placed at byte \d+ after the header, not at \d+"),
    "checkpoint-header-nested": ("checkpoint", container_with(_checkpoint, lambda h: b"[" * DEEP + b"]" * DEEP),
                                 r"unreadable checkpoint header"),
    "checkpoint-gap": ("checkpoint", container_with(_checkpoint, shift_all_but_the_first, gap=8),
                       r"parameter '\w+' is placed at byte \d+ after the header, not at \d+"),
    "checkpoint-config-without-memory-m": ("checkpoint", container_with(_checkpoint, drop_memory_m),
                                           r"checkpoint metadata has no 'memory_m' entry"),
}


@pytest.mark.parametrize("case", BAD_VALUES)
def test_values_past_python_limits_and_misplaced_arrays_are_data_errors(tmp_path, case):
    reader, make, message = BAD_VALUES[case]
    name, _, read = READERS[reader]
    path = tmp_path / "dir" / name
    path.parent.mkdir()
    path.write_bytes(make(tmp_path))
    with pytest.raises(DataError) as err:
        read(path)
    assert re.match(re.escape(f"{path}: ") + message, str(err.value)), str(err.value)[:300]
