"""Competition CSV parsing, vocabularies, prefix generation and splits.

The source file stores POLYLINE as a JSON array of [longitude, latitude]
pairs sampled every 15 seconds; the parser swaps them into (lat, lon) rows.
Polylines are kept as float64 arrays of shape (n, 2) with columns
(lat, lon) rather than per-point objects so the full 1.7M-trajectory file
fits in memory.

Prefix semantics: every trajectory of length n contributes prefixes of
length 1..n, the full trajectory included; the target of any prefix is the
final point of the complete trajectory.  Training streams (record, cut)
pairs sampled uniformly over the set of all prefixes, which matches the
test-set construction where a trajectory appears with probability
proportional to its length.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _container
from .geo import GeoPoint, StandardizationStats

__all__ = [
    "CALL_TYPES",
    "CsvParseError",
    "DataError",
    "DatasetSplit",
    "MetadataVocab",
    "PrefixExample",
    "PrefixSampler",
    "TrainRecord",
    "build_vocab",
    "fit_standardization",
    "load_records",
    "make_prefix_example",
    "parse_csv",
    "save_records",
    "split_dataset",
    "time_features",
]

CALL_TYPES = ("phone", "stand", "street")
_CALL_TYPE_FROM_CODE = {"A": "phone", "B": "stand", "C": "street"}

_CSV_COLUMNS = (
    "TRIP_ID",
    "CALL_TYPE",
    "ORIGIN_CALL",
    "ORIGIN_STAND",
    "TAXI_ID",
    "TIMESTAMP",
    "DAY_TYPE",
    "MISSING_DATA",
    "POLYLINE",
)


#: Largest |longitude| and |latitude|, in the file's [lon, lat] order.
_LON_LAT_LIMITS = np.array([180.0, 90.0])
_NOT_PAIRS = "expected a JSON array of [lon, lat] number pairs"


class DataError(Exception):
    """Raised for unusable or inconsistent input data."""


class CsvParseError(DataError):
    """Malformed CSV content, carrying the 1-based line number and column name."""

    def __init__(self, line: int, column: str, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(slots=True)
class TrainRecord:
    """One complete taxi ride with metadata.

    ``polyline`` is a float64 array of shape (n, 2), columns (lat, lon).
    """

    trip_id: str
    call_type: str
    origin_call: Optional[int]
    origin_stand: Optional[int]
    taxi_id: int
    timestamp: int
    missing_data: bool
    polyline: np.ndarray

    @property
    def usable(self) -> bool:
        """False for records excluded from training, clustering and stats."""
        return not self.missing_data and len(self.polyline) >= 1

    @property
    def destination(self) -> GeoPoint:
        if len(self.polyline) == 0:
            raise DataError(f"trip {self.trip_id} has an empty polyline")
        return GeoPoint(float(self.polyline[-1, 0]), float(self.polyline[-1, 1]))


@dataclass
class MetadataVocab:
    """Dense-index maps for raw client / taxi / stand IDs.

    Index 0 is reserved for UNK (absent or unseen at lookup time); observed
    raw IDs map to contiguous indices starting at 1, in first-seen order.
    """

    client_map: dict[int, int] = field(default_factory=dict)
    taxi_map: dict[int, int] = field(default_factory=dict)
    stand_map: dict[int, int] = field(default_factory=dict)

    @property
    def client_size(self) -> int:
        return len(self.client_map) + 1

    @property
    def taxi_size(self) -> int:
        return len(self.taxi_map) + 1

    @property
    def stand_size(self) -> int:
        return len(self.stand_map) + 1

    def client_index(self, raw: Optional[int]) -> int:
        return 0 if raw is None else self.client_map.get(raw, 0)

    def taxi_index(self, raw: Optional[int]) -> int:
        return 0 if raw is None else self.taxi_map.get(raw, 0)

    def stand_index(self, raw: Optional[int]) -> int:
        return 0 if raw is None else self.stand_map.get(raw, 0)

    def to_json(self) -> dict:
        return {
            "client": {str(k): v for k, v in self.client_map.items()},
            "taxi": {str(k): v for k, v in self.taxi_map.items()},
            "stand": {str(k): v for k, v in self.stand_map.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MetadataVocab":
        return cls(
            client_map={int(k): v for k, v in obj["client"].items()},
            taxi_map={int(k): v for k, v in obj["taxi"].items()},
            stand_map={int(k): v for k, v in obj["stand"].items()},
        )


class PrefixExample(NamedTuple):
    """One training instance: the prefix of length ``cut`` of ``record``.

    The model builds its inputs from these pairs batch by batch
    (``models.featurize``); ``target`` is the final point of the complete
    trajectory.
    """

    record: TrainRecord
    cut: int

    @property
    def trip_id(self) -> str:
        return self.record.trip_id

    @property
    def target(self) -> GeoPoint:
        return self.record.destination


@dataclass
class DatasetSplit:
    train: list[TrainRecord]
    validation: list[TrainRecord]
    test: list[TrainRecord]


def _parse_optional_int(text: str) -> Optional[int]:
    text = text.strip()
    if text == "" or text.upper() == "NA":
        return None
    return int(float(text))


def parse_csv(stream) -> Iterator[TrainRecord]:
    """Stream TrainRecords from a competition-format CSV.

    ``stream`` may be a text file object, a binary file object, or an
    iterable of text lines.  Records are yielded in file order, including
    ones with ``missing_data`` or empty polylines (filter on ``.usable``).
    Malformed rows, and coordinates that are not finite or lie outside
    |lat| <= 90, |lon| <= 180, raise :class:`CsvParseError` with line and
    column.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif hasattr(stream, "read") and isinstance(stream.read(0), bytes):
        stream = io.TextIOWrapper(stream, encoding="utf-8")
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(1, "TRIP_ID", "empty file: missing header row")
    pos = {}
    for name in _CSV_COLUMNS:
        if name not in header:
            raise CsvParseError(1, name, "missing required column")
        pos[name] = header.index(name)

    for row in reader:
        line = reader.line_num
        if len(row) < len(header):
            raise CsvParseError(line, "TRIP_ID", f"expected {len(header)} fields, got {len(row)}")

        code = row[pos["CALL_TYPE"]].strip()
        if code not in _CALL_TYPE_FROM_CODE:
            raise CsvParseError(line, "CALL_TYPE", f"unknown call type {code!r}")
        try:
            origin_call = _parse_optional_int(row[pos["ORIGIN_CALL"]])
        except ValueError:
            raise CsvParseError(line, "ORIGIN_CALL", f"not an integer: {row[pos['ORIGIN_CALL']]!r}")
        try:
            origin_stand = _parse_optional_int(row[pos["ORIGIN_STAND"]])
        except ValueError:
            raise CsvParseError(line, "ORIGIN_STAND", f"not an integer: {row[pos['ORIGIN_STAND']]!r}")
        try:
            taxi_id = int(row[pos["TAXI_ID"]])
        except ValueError:
            raise CsvParseError(line, "TAXI_ID", f"not an integer: {row[pos['TAXI_ID']]!r}")
        try:
            timestamp = int(row[pos["TIMESTAMP"]])
        except ValueError:
            raise CsvParseError(line, "TIMESTAMP", f"not an integer: {row[pos['TIMESTAMP']]!r}")
        missing = row[pos["MISSING_DATA"]].strip().lower() == "true"

        poly_text = row[pos["POLYLINE"]]
        try:
            pairs = json.loads(poly_text)
        except json.JSONDecodeError as e:
            raise CsvParseError(line, "POLYLINE", f"bad JSON: {e.msg}")
        if not isinstance(pairs, list):
            raise CsvParseError(line, "POLYLINE", _NOT_PAIRS)
        if pairs:
            try:
                raw = np.asarray(pairs, dtype=np.float64)
            except (TypeError, ValueError):  # ragged, or not numbers
                raise CsvParseError(line, "POLYLINE", _NOT_PAIRS)
            if raw.ndim != 2 or raw.shape[1] != 2:
                raise CsvParseError(line, "POLYLINE", _NOT_PAIRS)
            ok = np.abs(raw) <= _LON_LAT_LIMITS  # False for NaN and inf too
            if not ok.all():
                j = int(np.flatnonzero(~ok.all(axis=1))[0])
                raise CsvParseError(
                    line,
                    "POLYLINE",
                    f"point {j} is [{raw[j, 0]!r}, {raw[j, 1]!r}]; need finite [lon, lat] "
                    "with |lon| <= 180 and |lat| <= 90",
                )
            arr = raw[:, ::-1].copy()  # lon,lat -> lat,lon
        else:
            arr = np.empty((0, 2), dtype=np.float64)

        yield TrainRecord(
            trip_id=row[pos["TRIP_ID"]],
            call_type=_CALL_TYPE_FROM_CODE[code],
            origin_call=origin_call,
            origin_stand=origin_stand,
            taxi_id=taxi_id,
            timestamp=timestamp,
            missing_data=missing,
            polyline=arr,
        )


def build_vocab(records: Iterable[TrainRecord]) -> MetadataVocab:
    """Assign dense indices (first-seen order, starting at 1) to raw IDs."""
    vocab = MetadataVocab()
    for rec in records:
        if rec.origin_call is not None and rec.origin_call not in vocab.client_map:
            vocab.client_map[rec.origin_call] = len(vocab.client_map) + 1
        if rec.origin_stand is not None and rec.origin_stand not in vocab.stand_map:
            vocab.stand_map[rec.origin_stand] = len(vocab.stand_map) + 1
        if rec.taxi_id not in vocab.taxi_map:
            vocab.taxi_map[rec.taxi_id] = len(vocab.taxi_map) + 1
    return vocab


def time_features(timestamps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Calendar features of unix timestamps in UTC, as int64 arrays of their
    shape: quarter-hour in [0, 95], Monday-based day of week in [0, 6], and
    ISO week minus one, clamped to [0, 51]."""
    days, seconds = np.divmod(np.asarray(timestamps, dtype=np.int64), 86_400)
    day_of_week = (days + 3) % 7  # 1970-01-01 was a Thursday
    # An ISO week belongs to the year of its Thursday and week 1 holds that
    # year's first Thursday.
    thursday = days - day_of_week + 3
    year_start = thursday.astype("datetime64[D]").astype("datetime64[Y]").astype("datetime64[D]")
    week = (thursday - year_start.astype(np.int64)) // 7
    return seconds // 900, day_of_week, np.minimum(week, 51)


def make_prefix_example(
    record: TrainRecord,
    cut: int,
    k: int,
    stats: StandardizationStats,
    vocab: MetadataVocab,
) -> PrefixExample:
    """The example for the prefix of length ``cut``, checked: ``1 <= cut <=
    len(record.polyline)`` and ``k >= 1``, else ValueError.

    ``stats`` and ``vocab`` are not read: the model featurizes whole batches
    with its own window size, statistics and vocabularies.
    """
    n = len(record.polyline)
    if not 1 <= cut <= n:
        raise ValueError(f"cut {cut} outside [1, {n}] for trip {record.trip_id}")
    if k < 1:
        raise ValueError(f"window size k must be >= 1, got {k}")
    return PrefixExample(record, cut)


class PrefixSampler:
    """Samples (record, cut) uniformly over the set of all prefixes.

    A record is drawn with probability proportional to its polyline length,
    then the cut uniformly in [1, length]; equivalently, one prefix uniform
    over all of them.  Deterministic given the generator state.
    """

    def __init__(self, records: Sequence[TrainRecord]):
        self.records = [r for r in records if r.usable]
        if not self.records:
            raise DataError("no usable records to sample prefixes from")
        lengths = np.array([len(r.polyline) for r in self.records], dtype=np.int64)
        self._cum = np.cumsum(lengths)

    @property
    def total_prefixes(self) -> int:
        return int(self._cum[-1])

    def sample(self, rng: np.random.Generator) -> tuple[TrainRecord, int]:
        u = int(rng.integers(self._cum[-1]))
        idx = int(np.searchsorted(self._cum, u, side="right"))
        start = 0 if idx == 0 else int(self._cum[idx - 1])
        return self.records[idx], u - start + 1


def split_dataset(
    records: Sequence[TrainRecord],
    rng: np.random.Generator,
    n_val: int,
    n_test: int,
) -> DatasetSplit:
    """Remove whole trajectories uniformly at random into validation/test."""
    usable = [r for r in records if r.usable]
    if n_val < 0 or n_test < 0:
        raise DataError(f"split counts must be non-negative, got val={n_val}, test={n_test}")
    if n_val + n_test >= len(usable):
        raise DataError(
            f"cannot split {len(usable)} usable records into "
            f"val={n_val} + test={n_test} and a non-empty training set"
        )
    perm = rng.permutation(len(usable))
    val_ids = set(perm[:n_val])
    test_ids = set(perm[n_val : n_val + n_test])
    split = DatasetSplit(train=[], validation=[], test=[])
    for i, rec in enumerate(usable):
        if i in val_ids:
            split.validation.append(rec)
        elif i in test_ids:
            split.test.append(rec)
        else:
            split.train.append(rec)
    return split


def fit_standardization(records: Iterable[TrainRecord]) -> StandardizationStats:
    """Mean and population std over all polyline points of the given records.

    Two passes keep the variance numerically clean; the zero-variance guard
    substitutes std 1.0 below 1e-12.
    """
    arrays = [r.polyline for r in records if r.usable and len(r.polyline)]
    n = sum(len(a) for a in arrays)
    if n < 2:
        raise DataError(f"need at least 2 points to fit standardization, got {n}")
    total = np.zeros(2)
    for a in arrays:
        total += a.sum(axis=0)
    mean = total / n
    sq = np.zeros(2)
    for a in arrays:
        d = a - mean
        sq += (d * d).sum(axis=0)
    std = np.sqrt(sq / n)
    return StandardizationStats.from_moments(mean[0], mean[1], std[0], std[1])


# ---------------------------------------------------------------------------
# Binary record cache: columns in the container whose layout
# ``taxidest._container`` documents.
# ---------------------------------------------------------------------------

_CACHE = _container.Format(
    b"TXDCACHE", 2, "record cache", "column", DataError, "; re-run `taxidest prepare` to rebuild it"
)
#: Integer columns, one row per record, all int64; then the points.
_META_COLUMNS = ("call_type", "origin_call", "origin_stand", "taxi_id", "timestamp", "missing")
_Column = NamedTuple("_Column", [("name", str), ("value", np.ndarray)])


def save_records(records: Sequence[TrainRecord], path) -> None:
    """Write a record cache; the file is replaced whole or not at all."""
    columns = {
        "offsets": np.cumsum([0] + [len(r.polyline) for r in records]),
        "call_type": [CALL_TYPES.index(r.call_type) for r in records],
        "origin_call": [-1 if r.origin_call is None else r.origin_call for r in records],
        "origin_stand": [-1 if r.origin_stand is None else r.origin_stand for r in records],
        "taxi_id": [r.taxi_id for r in records],
        "timestamp": [r.timestamp for r in records],
        "missing": [r.missing_data for r in records],
        "points": np.concatenate([r.polyline for r in records] + [np.empty((0, 2))]),
    }
    arrays = [_Column(k, np.asarray(v, np.float64 if k == "points" else np.int64)) for k, v in columns.items()]
    _container.write(path, _CACHE, {"trip_ids": [r.trip_id for r in records]}, arrays)


def load_records(path) -> list[TrainRecord]:
    """Read a record cache; each polyline is a slice of one points array.
    A cache of another version, a truncated file, bytes after the last
    column, or columns that disagree raise :class:`DataError` naming the
    path; a cut inside the points also names the first record it cuts."""

    def where(name, cols, present):
        if name == "points" and "offsets" in cols:  # 16 bytes a point
            i = int(np.searchsorted(cols["offsets"][1:], present // 16, side="right"))
            return f"record {i} of {len(cols['offsets']) - 1}"

    header, cols = _container.read(path, _CACHE, where)
    trip_ids = header.get("trip_ids")
    if not isinstance(trip_ids, list):
        raise DataError(f"{path}: the header has no trip_ids list")
    n = len(trip_ids)
    for name in ("offsets", *_META_COLUMNS, "points"):  # offsets first: they size the points
        want = (n + 1,) if name == "offsets" else (int(cols["offsets"][-1]), 2) if name == "points" else (n,)
        dtype = np.dtype(np.float64 if name == "points" else np.int64)
        col = cols.get(name)
        if col is None or col.dtype != dtype or col.shape != want:
            raise DataError(f"{path}: column {name!r} is missing or not {dtype} of shape {want}")
    offsets, points = cols["offsets"], cols["points"]
    if offsets[0] != 0 or (np.diff(offsets) < 0).any():
        raise DataError(f"{path}: the offsets do not start at 0 and never fall")
    if (cols["call_type"] >= len(CALL_TYPES)).any():
        raise DataError(f"{path}: a call type code is not below {len(CALL_TYPES)}")
    bounds = offsets.tolist()
    return [
        TrainRecord(
            trip_id=tid,
            call_type=CALL_TYPES[ct],
            origin_call=None if oc == -1 else oc,
            origin_stand=None if os_ == -1 else os_,
            taxi_id=taxi,
            timestamp=ts,
            missing_data=bool(missing),
            polyline=points[start:end],
        )
        for tid, ct, oc, os_, taxi, ts, missing, start, end in zip(
            trip_ids, *(cols[name].tolist() for name in _META_COLUMNS), bounds[:-1], bounds[1:]
        )
    ]
