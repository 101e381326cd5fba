"""Batch featurization against the per-example featurization it replaced.

``reference_*`` below is the former per-example path: ``make_prefix_example``
built standardized windows, vocabulary indices and calendar features for
each example, and the model gathered them row by row.  ``models.featurize``
must give the same inputs bit for bit.
"""

from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import make_records, tiny_model
from taxidest import models
from taxidest.data import make_prefix_example, time_features

K = 5
WINDOW = 5


def reference_time_features(timestamp: int) -> tuple[int, int, int]:
    dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return dt.hour * 4 + dt.minute // 15, dt.weekday(), min(dt.isocalendar()[1] - 1, 51)


def reference_example(record, cut: int, k: int, stats, vocab) -> dict:
    prefix = record.polyline[:cut]
    mean = np.array([stats.mean_lat, stats.mean_lon])
    std = np.array([stats.std_lat, stats.std_lon])
    std_prefix = (prefix - mean) / std
    first_idx = np.minimum(np.arange(k), cut - 1)
    last_idx = np.maximum(np.arange(cut - k, cut), 0)
    return {
        "first_k": std_prefix[first_idx],
        "last_k": std_prefix[last_idx],
        "full_prefix": prefix,
        "client_idx": vocab.maps["client"].get(record.origin_call, 0),
        "taxi_idx": vocab.maps["taxi"].get(record.taxi_id, 0),
        "stand_idx": vocab.maps["stand"].get(record.origin_stand, 0),
        "time": reference_time_features(record.timestamp),
    }


def reference_gps_block(examples: list[dict], k: int, dtype) -> np.ndarray:
    out = np.empty((len(examples), 4 * k), dtype=dtype)
    for i, ex in enumerate(examples):
        out[i, : 2 * k] = ex["first_k"].reshape(-1)
        out[i, 2 * k :] = ex["last_k"].reshape(-1)
    return out


def reference_meta_indices(examples: list[dict]) -> dict[str, np.ndarray]:
    n = len(examples)
    idx = {f: np.empty(n, dtype=np.int64) for f in models.EMBEDDING_FIELDS}
    for i, ex in enumerate(examples):
        idx["client"][i] = ex["client_idx"]
        idx["taxi"][i] = ex["taxi_idx"]
        idx["stand"][i] = ex["stand_idx"]
        idx["quarter_hour"][i], idx["day_of_week"][i], idx["week_of_year"][i] = ex["time"]
    return idx


def reference_window_steps(seq: np.ndarray, window: int) -> np.ndarray:
    t_count = seq.shape[0]
    steps = np.arange(t_count)[:, None] + np.arange(-(window - 1), 1)[None, :]
    return seq[np.maximum(steps, 0)].reshape(t_count, 2 * window)


def reference_step_inputs(model, examples: list[dict]):
    """(order, forward steps, backward steps) as the packed LSTM read them."""
    cfg, stats = model.config, model.stats
    window = cfg.window if cfg.variant == "brnn_window" else 1
    mean = np.array([stats.mean_lat, stats.mean_lon])
    std = np.array([stats.std_lat, stats.std_lon])
    lengths = np.array([len(ex["full_prefix"]) for ex in examples], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    points = np.concatenate(
        [
            reference_window_steps(((examples[i]["full_prefix"] - mean) / std).astype(cfg.np_dtype()), window)
            for i in order
        ]
    )
    running = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)
    fwd = [points[starts[:n] + t] for t, n in enumerate(running)]
    bwd = [points[starts[:n] + lengths[:n] - 1 - t] for t, n in enumerate(running)]
    return order, fwd, bwd


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def records():
    """Lengths 1 to 3k; client, taxi and stand ids that are known, absent
    (None) or unseen by the vocabulary; start times spread over decades."""
    rng = np.random.default_rng(40)
    recs = make_records([1, 2, 4, 5, 7, 10, 13, 30], rng)
    clients, taxis, stands = [10, 20, None, 999], [5, 77], [3, 9, None, 4]
    for i, r in enumerate(recs):
        r.origin_call = clients[i % len(clients)]
        r.taxi_id = taxis[i % len(taxis)]
        r.origin_stand = stands[(i + 1) % len(stands)]
        r.timestamp = int(rng.integers(-100_000_000, 2_000_000_000))
    return recs


def every_cut(records):
    """Every prefix of every record: cuts of 1, below k, from k to 2k, and above."""
    return [(r, cut) for r in records for cut in range(1, len(r.polyline) + 1)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant", ["mlp_clusters", "memory_net"])
def test_gps_block_and_indices_match_reference(records, variant, dtype):
    model = tiny_model(variant, k=K, dtype=dtype)
    pairs = every_cut(records)
    ref = [reference_example(r, cut, K, model.stats, model.vocab) for r, cut in pairs]
    # The caller's k, stats and vocab are checked or not read at all.
    feats = models.featurize(model, [make_prefix_example(r, cut, 1, None, None) for r, cut in pairs])
    assert_same_bits(feats.gps, reference_gps_block(ref, K, model.config.np_dtype()))
    expected = reference_meta_indices(ref)
    assert list(feats.index) == list(models.EMBEDDING_FIELDS)
    for field in models.EMBEDDING_FIELDS:
        assert_same_bits(feats.index[field], expected[field])
    assert set(expected["client"]) == {0, 1, 2} and set(expected["stand"]) == {0, 1, 2}
    assert set(expected["taxi"]) == {0, 1}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant, window", [("rnn", 1), ("brnn", 1), ("brnn_window", 1), ("brnn_window", WINDOW)])
def test_step_inputs_match_reference(records, variant, window, dtype):
    model = tiny_model(variant, window=window, dtype=dtype)
    pairs = every_cut(records)
    ref = [reference_example(r, cut, K, model.stats, model.vocab) for r, cut in pairs]
    feats = models.featurize(model, [make_prefix_example(r, cut, K, None, None) for r, cut in pairs])
    order, fwd, bwd = reference_step_inputs(model, ref)
    assert_same_bits(feats.order, order)
    assert len(feats.fwd) == len(fwd) == 30
    for got, want in zip(feats.fwd, fwd):
        assert_same_bits(got, want)
    if variant == "rnn":
        assert feats.bwd == []
    else:
        assert len(feats.bwd) == len(bwd)
        for got, want in zip(feats.bwd, bwd):
            assert_same_bits(got, want)
    expected = reference_meta_indices(ref)
    for field in models.EMBEDDING_FIELDS:
        assert_same_bits(feats.index[field], expected[field])
    assert feats.gps is None


def test_ablations_skip_what_they_do_not_read(records):
    pairs = every_cut(records)
    examples = [make_prefix_example(r, cut, K, None, None) for r, cut in pairs]
    no_embed = models.featurize(tiny_model("mlp_no_embed", k=K), examples)
    assert no_embed.index == {} and no_embed.gps.shape == (len(pairs), 4 * K)
    embed_only = models.featurize(tiny_model("mlp_embed_only", k=K), examples)
    assert embed_only.gps is None and list(embed_only.index) == list(models.EMBEDDING_FIELDS)


def test_time_features_match_datetime_on_every_day():
    """Every day of 1968-2031, at a random second of each: the span holds
    week-53 years (1970, 1976, ..., 2015, 2020, 2026) and years that start
    in the previous ISO year's last week."""
    start = int(datetime(1968, 1, 1, tzinfo=timezone.utc).timestamp())
    stop = int(datetime(2032, 1, 1, tzinfo=timezone.utc).timestamp())
    rng = np.random.default_rng(41)
    days = np.arange(start, stop, 86_400)
    ts = days + rng.integers(0, 86_400, len(days))
    ts[:3] = days[:3]  # midnight
    ts[3:6] = days[3:6] + 86_399  # the last second of the day
    quarter, day, week = time_features(ts)
    got = np.column_stack([quarter, day, week])
    expected = np.array([reference_time_features(t) for t in ts.tolist()])
    bad = np.flatnonzero((got != expected).any(axis=1))
    assert len(bad) == 0, f"{len(bad)} days differ, first at timestamp {ts[bad[0]]}"
    weeks53 = {datetime.fromtimestamp(t, tz=timezone.utc).year for t in ts.tolist()
               if datetime.fromtimestamp(t, tz=timezone.utc).isocalendar()[1] == 53}
    assert {1970, 2015, 2020, 2026} <= weeks53
