"""Competition CSV reading and writing, vocabularies, prefix generation and splits.

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
import json
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _container
from ._atomic import DataError, atomic_open, scalar
from .geo import GeoPoint, StandardizationStats, first_off_earth

__all__ = [
    "CALL_TYPES",
    "CsvParseError",
    "DataError",
    "DatasetSplit",
    "EMBEDDING_FIELDS",
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
    "write_csv",
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


_NOT_PAIRS = "expected a JSON array of [lon, lat] number pairs"
#: POLYLINE's JSON; an integer of any length reads as a float (inf past 1e308).
_POLYLINE_JSON = json.JSONDecoder(parse_int=float)
_MISSING_DATA = {"true": True, "false": False}


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
        """False for a ride with MISSING_DATA or no points, which
        :func:`split_dataset` leaves out of every split."""
        return not self.missing_data and len(self.polyline) >= 1


#: Record attribute holding each id table's raw id.
_ID_ATTRIBUTES = {"client": "origin_call", "taxi": "taxi_id", "stand": "origin_stand"}


@dataclass
class MetadataVocab:
    """Dense-index maps ``{field: {raw id: index}}`` for the client, taxi
    and stand ids.

    Index 0 is reserved for UNK (absent or unseen at lookup time); observed
    raw IDs map to contiguous indices starting at 1, in first-seen order.
    """

    maps: dict[str, dict[int, int]] = field(default_factory=lambda: {f: {} for f in _ID_ATTRIBUTES})

    def sizes(self) -> dict[str, int]:
        """Rows of every embedding table, in ``EMBEDDING_FIELDS`` order."""
        return {**{f: len(self.maps[f]) + 1 for f in _ID_ATTRIBUTES}, **_CALENDAR_SIZES}

    def indices(self, records: Sequence[TrainRecord]) -> dict[str, np.ndarray]:
        """int64 rows [len(records)] of every embedding table, in
        ``EMBEDDING_FIELDS`` order."""
        n = len(records)
        rows = {
            f: np.fromiter(map(self.maps[f].get, map(attrgetter(attr), records), repeat(0)), np.int64, n)
            for f, attr in _ID_ATTRIBUTES.items()
        }
        timestamps = np.fromiter(map(attrgetter("timestamp"), records), np.int64, n)
        rows.update(zip(_CALENDAR_SIZES, time_features(timestamps)))
        return rows

    def to_json(self) -> dict:
        return {f: {str(k): v for k, v in self.maps[f].items()} for f in _ID_ATTRIBUTES}

    @classmethod
    def from_json(cls, obj: dict) -> "MetadataVocab":
        """The maps that :meth:`to_json` wrote.  ValueError unless each maps
        distinct ids, written as ``str(int)`` writes them, to 1..n."""
        maps = {f: {int(k): v for k, v in obj[f].items()} for f in _ID_ATTRIBUTES}
        for f, m in maps.items():
            if list(map(str, m)) != list(obj[f]) or sorted(m.values()) != list(range(1, len(m) + 1)):
                raise ValueError(f"the {f} vocabulary does not map distinct integer ids to 1..{len(m)}")
        return cls(maps)


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
        polyline = self.record.polyline
        return GeoPoint(float(polyline[-1, 0]), float(polyline[-1, 1]))


@dataclass
class DatasetSplit:
    train: list[TrainRecord]
    validation: list[TrainRecord]
    test: list[TrainRecord]


def _cacheable(value, optional: bool) -> bool:
    """Whether an int64 cache column reads ``value`` back as it is; an
    optional id's None is stored as -1, so it must not be negative."""
    if value is None:
        return optional
    return isinstance(value, (int, np.integer)) and (0 if optional else -(2**63)) <= value < 2**63


def _parse_int(text: str, line: int, column: str, optional: bool) -> Optional[int]:
    """An integer field the record cache can hold.  An optional id
    (ORIGIN_CALL, ORIGIN_STAND) may be empty or NA (None), or an integral
    float such as ``31508.0``."""
    kind, token = scalar(text)
    value = None
    if kind == "int" and len(token.lstrip("+-0")) <= 19:  # more digits are past int64 (and int() stops at 4300)
        value = int(token)
    elif optional and kind == "word" and token.upper() in ("", "NA"):
        return None
    elif optional and kind == "float" and float(token).is_integer():  # not for inf or NaN
        value = int(float(token))
    if value is None or not _cacheable(value, optional):
        what = "a non-negative integer" if optional else "an integer"
        raise CsvParseError(line, column, f"not {what} within int64: {token!r}")
    return value


def parse_csv(stream) -> Iterator[TrainRecord]:
    """Stream TrainRecords from a competition-format CSV.

    ``stream`` may be a text file object or an iterable of text lines.
    Records are yielded in file order, including ones with ``missing_data``
    or empty polylines (``split_dataset`` leaves them out).  Malformed
    rows, scalar fields outside ``_atomic.scalar``'s ASCII grammar, POLYLINE
    coordinates that are not JSON numbers, are not finite or lie outside
    |lat| <= 90, |lon| <= 180, a MISSING_DATA other than True or False (any
    case) and a last line with no line end (a file cut short) raise
    :class:`CsvParseError` with line and column.
    """
    last = ""  # the last line read; a last row without a line end was cut short

    def lines():
        nonlocal last
        for last in stream:
            yield last

    reader = csv.reader(lines())
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(1, "TRIP_ID", "empty file: missing header row")
    pos = {}
    for name in _CSV_COLUMNS:
        if name not in header:
            raise CsvParseError(1, name, "missing required column")
        pos[name] = header.index(name)

    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as e:  # a field past csv.field_size_limit(); before Python 3.11, a NUL
            raise CsvParseError(reader.line_num, "TRIP_ID", str(e)) from None
        line = reader.line_num
        if len(row) < len(header):
            raise CsvParseError(line, "TRIP_ID", f"expected {len(header)} fields, got {len(row)}")

        kind, code = scalar(row[pos["CALL_TYPE"]])
        if kind != "word" or code not in _CALL_TYPE_FROM_CODE:
            raise CsvParseError(line, "CALL_TYPE", f"unknown call type {code!r}")
        origin_call = _parse_int(row[pos["ORIGIN_CALL"]], line, "ORIGIN_CALL", optional=True)
        origin_stand = _parse_int(row[pos["ORIGIN_STAND"]], line, "ORIGIN_STAND", optional=True)
        taxi_id = _parse_int(row[pos["TAXI_ID"]], line, "TAXI_ID", optional=False)
        timestamp = _parse_int(row[pos["TIMESTAMP"]], line, "TIMESTAMP", optional=False)
        kind, missing_text = scalar(row[pos["MISSING_DATA"]])
        missing = _MISSING_DATA.get(missing_text.lower()) if kind == "word" else None
        if missing is None:
            raise CsvParseError(line, "MISSING_DATA", f"expected True or False, got {missing_text!r}")

        poly_text = row[pos["POLYLINE"]]
        try:
            pairs = _POLYLINE_JSON.decode(poly_text)
        except json.JSONDecodeError as e:
            raise CsvParseError(line, "POLYLINE", f"bad JSON: {e.msg}")
        except RecursionError:
            raise CsvParseError(line, "POLYLINE", _NOT_PAIRS) from None
        # numpy would read a JSON string or boolean as a number ("41.1", true)
        if not isinstance(pairs, list) or '"' in poly_text or "true" in poly_text or "false" in poly_text:
            raise CsvParseError(line, "POLYLINE", _NOT_PAIRS)
        if pairs:
            try:
                raw = np.asarray(pairs, dtype=np.float64)
            except (TypeError, ValueError):  # ragged, or not numbers
                raise CsvParseError(line, "POLYLINE", _NOT_PAIRS)
            if raw.ndim != 2 or raw.shape[1] != 2:
                raise CsvParseError(line, "POLYLINE", _NOT_PAIRS)
            arr = raw[:, ::-1].copy()  # lon,lat -> lat,lon
            j = first_off_earth(arr)
            if j is not None:
                raise CsvParseError(
                    line,
                    "POLYLINE",
                    f"point {j} is {raw[j].tolist()}; need finite [lon, lat] "
                    "with |lon| <= 180 and |lat| <= 90",
                )
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
    if not last.endswith(("\n", "\r")):
        raise CsvParseError(reader.line_num, header[-1], "the last row has no line end; the file is cut short")


def write_csv(records: Iterable[TrainRecord], path) -> None:
    """Write ``records`` in the competition CSV schema that :func:`parse_csv`
    reads: POLYLINE as [lon, lat] pairs rounded to six decimals, DAY_TYPE
    ``A``, an absent id as an empty field.  The file is replaced whole or
    not at all."""
    code = {call_type: c for c, call_type in _CALL_TYPE_FROM_CODE.items()}
    with atomic_open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in records:
            poly = json.dumps([[round(lon, 6), round(lat, 6)] for lat, lon in r.polyline], separators=(",", ":"))
            writer.writerow([r.trip_id, code[r.call_type], r.origin_call, r.origin_stand, r.taxi_id, r.timestamp,
                             "A", r.missing_data, poly])


def build_vocab(records: Iterable[TrainRecord]) -> MetadataVocab:
    """Assign dense indices (first-seen order, starting at 1) to raw IDs;
    an absent id (None) gets none."""
    records = list(records)
    maps = {}
    for f, attr in _ID_ATTRIBUTES.items():
        seen = dict.fromkeys(map(attrgetter(attr), records))
        seen.pop(None, None)
        maps[f] = dict(zip(seen, range(1, len(seen) + 1)))
    return MetadataVocab(maps)


#: Rows of each calendar table, one per value that ``time_features`` gives;
#: these vocabularies are closed, with no UNK row.
_CALENDAR_SIZES = {"quarter_hour": 96, "day_of_week": 7, "week_of_year": 52}

#: Embedding tables in input-concatenation order: the id tables, then the
#: calendar ones.
EMBEDDING_FIELDS = (*_ID_ATTRIBUTES, *_CALENDAR_SIZES)


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
    """The prefix of length ``cut``, checked for callers that build their own
    pairs: ``1 <= cut <= len(record.polyline)``, else ValueError.  ``k``,
    ``stats`` and ``vocab`` are not read: the model featurizes whole batches
    with its own window size, statistics and vocabularies.
    """
    n = len(record.polyline)
    if not 1 <= cut <= n:
        raise ValueError(f"cut {cut} outside [1, {n}] for trip {record.trip_id}")
    return PrefixExample(record, cut)


class PrefixSampler:
    """Samples (record, cut) uniformly over the set of all prefixes.

    A record is drawn with probability proportional to its polyline length,
    then the cut uniformly in [1, length]; equivalently, one prefix uniform
    over all of them.  Deterministic given the generator state.
    """

    def __init__(self, records: Sequence[TrainRecord]):
        self.records = list(records)
        if not self.records:
            raise DataError("no records to sample prefixes from")
        lengths = np.array([len(r.polyline) for r in self.records], dtype=np.int64)
        self._cum = np.cumsum(lengths)
        self._starts = self._cum - lengths  # prefixes of the records before each one

    @property
    def total_prefixes(self) -> int:
        return int(self._cum[-1])

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> PrefixExample | list[PrefixExample]:
        """One :class:`PrefixExample` (``size=None``) or a list of ``size``,
        from one ``rng.integers(total, size=size)`` call and one
        ``searchsorted``; the draws and the generator's final state are
        those of ``size`` scalar calls."""
        u = rng.integers(self._cum[-1], size=size)
        idx = np.searchsorted(self._cum, u, side="right")
        cut = u - self._starts[idx] + 1
        if size is None:
            return PrefixExample(self.records[idx], int(cut))
        return [PrefixExample(self.records[i], c) for i, c in zip(idx.tolist(), cut.tolist())]


def split_dataset(
    records: Sequence[TrainRecord],
    rng: np.random.Generator,
    n_val: int,
    n_test: int,
) -> DatasetSplit:
    """Leave out the rides that are not ``usable``, then remove whole
    trajectories uniformly at random into validation/test."""
    usable = [r for r in records if r.usable]
    if n_val < 0 or n_test < 0:
        raise DataError(f"split counts must be non-negative, got val={n_val}, test={n_test}")
    if n_val + n_test >= len(usable):
        raise DataError(
            f"cannot split {len(usable)} usable records into "
            f"val={n_val} + test={n_test} and a non-empty training set"
        )
    perm = rng.permutation(len(usable))
    role = np.zeros(len(usable), dtype=np.int8)  # 0 train, 1 validation, 2 test
    role[perm[:n_val]] = 1
    role[perm[n_val : n_val + n_test]] = 2
    split = DatasetSplit(train=[], validation=[], test=[])
    parts = (split.train, split.validation, split.test)
    for rec, k in zip(usable, role.tolist()):
        parts[k].append(rec)
    return split


def fit_standardization(records: Iterable[TrainRecord]) -> StandardizationStats:
    """Mean and population std over all polyline points of ``records``, as
    numpy's ``mean`` and ``std`` of their concatenation give them; the
    squared deviations are formed in place on that one copy.  The
    zero-variance guard substitutes std 1.0 below 1e-12.
    """
    arrays = [r.polyline for r in records]
    n = sum(len(a) for a in arrays)
    if n < 2:
        raise DataError(f"need at least 2 points to fit standardization, got {n}")
    points = np.concatenate(arrays, dtype=np.float64)
    mean = points.mean(axis=0)
    points -= mean
    points *= points
    std = np.sqrt(points.mean(axis=0))
    return StandardizationStats.from_moments(mean[0], mean[1], std[0], std[1])


# ---------------------------------------------------------------------------
# Binary record cache: the package's binary container (``taxidest._container``)
# with magic ``TXDCACHE``, version 2.  Header key ``trip_ids``; int64
# ``offsets`` (n + 1 rows, record i owns points [offsets[i]:offsets[i + 1]]);
# int64 columns of n rows ``call_type`` (0 phone, 1 stand, 2 street),
# ``origin_call`` and ``origin_stand`` (-1 when absent), ``taxi_id``,
# ``timestamp`` and ``missing`` (1 when MISSING_DATA); last, float64
# ``points`` (P, 2) of (lat, lon).  Version 1, one packed record after
# another, is no longer read.  The cache is regenerable from the CSV
# (``taxidest prepare``) and never a source of truth.
# ---------------------------------------------------------------------------

_CACHE = _container.Format(b"TXDCACHE", 2, "record cache", "column", "; re-run `taxidest prepare` to rebuild it")
#: Integer columns, one row per record, all int64; then the points.
_META_COLUMNS = ("call_type", "origin_call", "origin_stand", "taxi_id", "timestamp", "missing")
#: The inclusive range of each coded column's values.
_CODE_RANGES = {
    "call_type": (0, len(CALL_TYPES) - 1),
    "missing": (0, 1),
    "origin_call": (-1, np.iinfo(np.int64).max),
    "origin_stand": (-1, np.iinfo(np.int64).max),
}
#: Records that :func:`load_records` converts to Python values at a time.
_LOAD_BLOCK = 4096


def save_records(records: Sequence[TrainRecord], path) -> None:
    """Write a record cache; the file is replaced whole or not at all.  An
    id or timestamp that would not read back as it is raises
    :class:`DataError` naming its record, before anything is written."""
    for i, r in enumerate(records):
        if not (_cacheable(r.origin_call, True) and _cacheable(r.origin_stand, True)
                and _cacheable(r.taxi_id, False) and _cacheable(r.timestamp, False)):
            raise DataError(
                f"record {i} (trip {r.trip_id}): origin_call={r.origin_call!r}, origin_stand={r.origin_stand!r} "
                f"(None or an int in [0, 2**63)), taxi_id={r.taxi_id!r}, timestamp={r.timestamp!r} (int64)"
            )
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
    arrays = {k: np.asarray(v, np.float64 if k == "points" else np.int64) for k, v in columns.items()}
    _container.write(path, _CACHE, {"trip_ids": [r.trip_id for r in records]}, arrays)


def load_records(path) -> list[TrainRecord]:
    """Read a record cache; each polyline is a slice of one points array.
    A cache of another version, a truncated file, bytes after the last
    column, a column that is missing, extra or out of place, columns that
    disagree, a coded value out of its range (call type 0-2, missing 0 or
    1, origin call and stand -1 or more) or a point that is not finite
    within |lat| <= 90, |lon| <= 180 raise :class:`DataError` naming the
    path; a cut inside the points, a bad code or a bad point also names
    its record."""

    def where(name, cols, present):
        if name == "points" and "offsets" in cols:  # 16 bytes a point
            i = int(np.searchsorted(cols["offsets"][1:], present // 16, side="right"))
            return f"record {i} of {len(cols['offsets']) - 1}"

    header, cols = _container.read(path, _CACHE, where)
    trip_ids = header.get("trip_ids")
    if not isinstance(trip_ids, list):
        raise DataError(f"{path}: the header has no trip_ids list")
    n = len(trip_ids)
    expected = [("offsets", (n + 1,), np.int64), *((name, (n,), np.int64) for name in _META_COLUMNS),
                ("points", (None, 2), np.float64)]
    _container.check(path, _CACHE, cols, expected, "the record cache's")
    offsets, points = cols["offsets"], cols["points"]
    if offsets[0] != 0 or (np.diff(offsets) < 0).any() or offsets[-1] != len(points):
        raise DataError(f"{path}: the offsets do not start at 0 and never fall, "
                        f"or do not end at the {len(points)} points")
    for name, (low, high) in _CODE_RANGES.items():
        bad = (cols[name] < low) | (cols[name] > high)
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"{path}: record {i} (trip {trip_ids[i]}) has {name} {int(cols[name][i])}; "
                            f"need {low} <= {name} <= {high}")
    j = first_off_earth(points)
    if j is not None:
        i = int(np.searchsorted(offsets[1:], j, side="right"))
        raise DataError(f"{path}: record {i} (trip {trip_ids[i]}) has the point {tuple(points[j].tolist())}; "
                        "need finite (lat, lon) with |lat| <= 90 and |lon| <= 180")
    records = []
    for lo in range(0, n, _LOAD_BLOCK):  # no whole-column lists alive at once
        hi = min(lo + _LOAD_BLOCK, n)
        bounds = offsets[lo : hi + 1].tolist()
        records += [
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
                trip_ids[lo:hi], *(cols[name][lo:hi].tolist() for name in _META_COLUMNS), bounds[:-1], bounds[1:]
            )
        ]
    return records
