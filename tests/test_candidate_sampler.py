"""Memory-network candidate draws against the scalar loop they replaced.

``reference_sample`` below is the former ``_CandidateSampler.sample``: one
``rng.integers(n)`` call per draw, rejecting records already chosen or
excluded by trip id, for at most ``20 m`` draws.  The batched sampler must
pick the same records in the same order and leave the generator in the
same state, so that every later draw of a training run is unchanged.
"""

import dataclasses

import numpy as np
import pytest

from conftest import make_records, tiny_model
from taxidest.data import DataError
from taxidest.training import _CandidateSampler


def reference_sample(records, m: int, rng, exclude_trip_ids=frozenset()):
    chosen = []
    seen = set()
    for _ in range(20 * m):
        i = int(rng.integers(len(records)))
        rec = records[i]
        if i in seen or rec.trip_id in exclude_trip_ids:
            continue
        seen.add(i)
        chosen.append(rec)
        if len(chosen) == m:
            break
    if not chosen:
        raise DataError("could not sample memory-network candidates")
    return chosen


def pool(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return make_records([int(rng.integers(1, 6)) for _ in range(n)], rng)


def assert_same_draws(records, m: int, excludes, seed: int = 7):
    """Successive draws from one generator, each excluding ``excludes[j]``."""
    sampler = _CandidateSampler(records, tiny_model("memory_net"), m)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for exclude in excludes:
        examples = sampler.sample(rng, exclude)
        want = reference_sample(sampler.records, sampler.m, ref_rng, exclude)
        assert [id(ex.record) for ex in examples] == [id(r) for r in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(ex.cut == len(ex.record.polyline) for ex in examples)
    return [ex.record for ex in examples]


def test_no_exclusion():
    got = assert_same_draws(pool(50), 20, [frozenset()] * 4)
    assert len(got) == 20


def test_exclusion_set():
    records = pool(40)
    exclude = frozenset(r.trip_id for r in records[::3])
    got = assert_same_draws(records, 15, [exclude, frozenset(), exclude])
    assert not {r.trip_id for r in got} & exclude


def test_m_equal_to_the_pool():
    records = pool(30)
    got = assert_same_draws(records, 30, [frozenset()] * 3)
    assert sorted(id(r) for r in got) == sorted(id(r) for r in records)


def test_m_above_the_pool_is_the_pool():
    got = assert_same_draws(pool(12), 50, [frozenset()])
    assert len(got) == 12


def test_duplicate_trip_ids():
    records = pool(30)
    for i in range(0, 30, 2):  # pairs share a trip id: t0 t0 t2 t2 ...
        records[i + 1] = dataclasses.replace(records[i + 1], trip_id=records[i].trip_id)
    got = assert_same_draws(records, 20, [frozenset(), frozenset({"t0", "t4"})])
    assert not {"t0", "t4"} & {r.trip_id for r in got}
    got = assert_same_draws(records, 30, [frozenset()])
    assert len(got) == 30  # both rides of every shared trip id


def test_budget_runs_out():
    records = pool(100)
    eligible = {records[i].trip_id for i in (5, 31, 47, 77, 90)}
    exclude = frozenset(r.trip_id for r in records) - eligible
    got = assert_same_draws(records, 10, [exclude] * 3, seed=3)
    assert 0 < len(got) < 10
    assert {r.trip_id for r in got} <= eligible


def test_nothing_eligible():
    records = pool(25)
    sampler = _CandidateSampler(records, tiny_model("memory_net"), 5)
    exclude = frozenset(r.trip_id for r in records)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(DataError, match="could not sample"):
        sampler.sample(rng, exclude)
    with pytest.raises(DataError):
        reference_sample(sampler.records, sampler.m, ref_rng, exclude)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_unusable_records_are_not_candidates():
    records = pool(10)
    records[3] = dataclasses.replace(records[3], missing_data=True)
    sampler = _CandidateSampler(records, tiny_model("memory_net"), 10)
    assert all(r is not records[3] for r in sampler.records)
    assert len(sampler.sample(np.random.default_rng(2))) == 9
