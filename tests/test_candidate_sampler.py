"""Memory-network candidate draws: properties of ``_CandidateSampler.sample``.

The sampler makes one ``rng.choice(n, m + len(exclude), replace=False)``
call and keeps, in draw order, the first ``m`` drawn records whose trip ids
are not excluded.  These tests check what that promises: distinct records,
no excluded trip id, the exact count, uniformity over the eligible sets,
and the generator state that one such call leaves.
"""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import make_records, tiny_model
from taxidest.data import DataError
from taxidest.training import _CandidateSampler, memory_candidates

# Chi-square critical value for 9 degrees of freedom at p = 0.001.
CHI2_9DF_P001 = 27.877


def pool(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return make_records([int(rng.integers(1, 6)) for _ in range(n)], rng)


def sampler_for(records, m: int) -> _CandidateSampler:
    return _CandidateSampler(records, tiny_model("memory_net"), m)


def drawn_records(sampler, rng, exclude=frozenset()):
    examples = sampler.sample(rng, exclude)
    assert all(ex.cut == len(ex.record.polyline) for ex in examples)
    return [ex.record for ex in examples]


@pytest.mark.parametrize("n, m, every", [(50, 20, 0), (40, 15, 3), (30, 30, 2), (12, 50, 4), (100, 10, 2)])
def test_distinct_and_never_excluded(n, m, every):
    records = pool(n)
    exclude = frozenset(r.trip_id for r in records[::every]) if every else frozenset()
    sampler, rng = sampler_for(records, m), np.random.default_rng(7)
    for _ in range(5):
        got = drawn_records(sampler, rng, exclude)
        assert len({id(r) for r in got}) == len(got)
        assert not {r.trip_id for r in got} & exclude


@pytest.mark.parametrize("n, m, n_excluded", [(50, 20, 0), (40, 15, 13), (30, 30, 0), (30, 30, 7), (12, 50, 0), (12, 50, 5), (100, 10, 95)])
def test_count_with_unique_ids(n, m, n_excluded):
    records = pool(n)
    exclude = frozenset(r.trip_id for r in records[n - n_excluded :])
    sampler, rng = sampler_for(records, m), np.random.default_rng(3)
    for _ in range(5):
        assert len(drawn_records(sampler, rng, exclude)) == min(m, n - n_excluded)


def test_m_at_or_above_the_pool_is_the_pool():
    records = pool(12)
    for m in (12, 50):
        got = drawn_records(sampler_for(records, m), np.random.default_rng(1))
        assert sorted(id(r) for r in got) == sorted(id(r) for r in records)


def test_every_ride_of_a_repeated_excluded_id_is_left_out():
    records = pool(30)
    for i in range(0, 30, 2):  # pairs share a trip id: t0 t0 t2 t2 ...
        records[i + 1] = dataclasses.replace(records[i + 1], trip_id=records[i].trip_id)
    exclude = frozenset({"t0", "t4", "t10"})
    sampler, rng = sampler_for(records, 30), np.random.default_rng(5)
    for _ in range(20):
        got = drawn_records(sampler, rng, exclude)
        assert not {r.trip_id for r in got} & exclude
        assert len(got) == 24  # the 30 rides less the six of the three excluded ids
    assert len(drawn_records(sampler, rng)) == 30  # both rides of every shared trip id


def test_pairs_are_uniform():
    records = pool(6)
    sampler, rng = sampler_for(records, 2), np.random.default_rng(11)
    exclude = frozenset({records[2].trip_id})
    draws = 20_000
    counts = Counter(frozenset(r.trip_id for r in drawn_records(sampler, rng, exclude)) for _ in range(draws))
    pairs = [frozenset(p) for p in itertools.combinations([r.trip_id for r in records if r.trip_id not in exclude], 2)]
    assert set(counts) == set(pairs) and len(pairs) == 10
    expected = draws / len(pairs)
    chi2 = sum((counts[p] - expected) ** 2 / expected for p in pairs)
    assert chi2 < CHI2_9DF_P001


@pytest.mark.parametrize("n, m, n_excluded", [(50, 20, 0), (40, 15, 6), (12, 50, 3)])
def test_generator_state_is_one_choice_call(n, m, n_excluded):
    records = pool(n)
    exclude = frozenset(r.trip_id for r in records[:n_excluded])
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    sampler_for(records, m).sample(rng, exclude)
    twin.choice(n, size=min(n, m + n_excluded), replace=False)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_nothing_eligible():
    records = pool(25)
    sampler = sampler_for(records, 5)
    exclude = frozenset(r.trip_id for r in records)
    with pytest.raises(DataError, match="could not sample .* they are 25 of the 25 training trips; use a smaller batch or more training trips$"):
        sampler.sample(np.random.default_rng(1), exclude)


@pytest.mark.parametrize("seed", [0, 5])
def test_memory_candidates_are_one_seeded_draw(seed):
    records = pool(30)
    assert memory_candidates(tiny_model("mlp_clusters"), records, seed) is None
    model = tiny_model("memory_net", memory_m=8)
    got = memory_candidates(model, records, seed)
    want = _CandidateSampler(records, model, 8).sample(np.random.default_rng(seed))
    assert [(id(ex.record), ex.cut) for ex in got] == [(id(ex.record), ex.cut) for ex in want]
    assert len(got) == 8
