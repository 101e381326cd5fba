"""Shared builders and the finite-difference gradient oracle.

The FD oracle runs its forward evaluations in extended precision
(longdouble) so central differences at h=1e-5 are not drowned by
cancellation noise: the loss is thousands of meters while individual
gradient elements can be 1e-4 of the gradient scale.
"""

import contextlib

import numpy as np
import pytest

from taxidest import _container, data, models, training
from taxidest.clustering import ClusterSet
from taxidest.geo import StandardizationStats
from taxidest.nncore import Tape

PORTO = (41.15, -8.61)


def tiny_stats() -> StandardizationStats:
    return StandardizationStats(PORTO[0], PORTO[1], 0.02, 0.03)


def tiny_vocab() -> data.MetadataVocab:
    return data.MetadataVocab({"client": {10: 1, 20: 2}, "taxi": {5: 1}, "stand": {3: 1, 9: 2}})


def tiny_clusters() -> ClusterSet:
    return ClusterSet(
        np.array([[41.14, -8.62], [41.16, -8.60], [41.13, -8.59], [41.17, -8.63]])
    )


def tiny_config(variant: str, **overrides) -> models.ModelConfig:
    base = dict(
        variant=variant,
        k=2,
        hidden=6,
        embedding_dim=2,
        rnn_hidden=4,
        window=3,
        dtype="float64",
    )
    base.update(overrides)
    return models.ModelConfig(**base)


def tiny_model(variant: str, seed: int = 0, **overrides):
    cfg = tiny_config(variant, **overrides)
    return models.build_model(cfg, tiny_clusters(), tiny_stats(), tiny_vocab(), seed=seed)


def saved_extras(model, path) -> dict:
    """The checkpoint extras that ``models.save_model`` writes for ``model``,
    read back from the checkpoint it saves at ``path``."""
    models.save_model(model, path)
    header, _ = _container.read(path, models._CHECKPOINT)
    return header["extras"]


def write_checkpoint(path, params, extras) -> None:
    """A checkpoint of ``params`` whose header holds ``extras`` as given, in
    ``models.save_model``'s format: for damaged metadata."""
    _container.write(path, models._CHECKPOINT, {"extras": extras}, {p.name: p.data for p in params})


def failing_after_first_write(atomic_open):
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


def make_records(lengths, rng, spread=(0.02, 0.03)) -> list[data.TrainRecord]:
    recs = []
    for i, n in enumerate(lengths):
        pts = np.column_stack(
            [
                PORTO[0] + rng.normal(0, spread[0], n),
                PORTO[1] + rng.normal(0, spread[1], n),
            ]
        )
        recs.append(
            data.TrainRecord(
                trip_id=f"t{i}",
                call_type="phone",
                origin_call=10,
                origin_stand=None,
                taxi_id=5,
                timestamp=1388530800 + i * 86400,
                missing_data=False,
                polyline=pts,
            )
        )
    return recs


def tiny_batch(model, rng, n=2, max_len=4) -> list[data.PrefixExample]:
    lengths = [int(rng.integers(1, max_len + 1)) for _ in range(n)]
    recs = make_records(lengths, rng)
    return [
        data.make_prefix_example(r, len(r.polyline), model.config.k, model.stats, model.vocab)
        for r in recs
    ]


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Elementwise relative error with a floor at 1e-6 of the gradient scale."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1.0)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6 * scale)
    return np.abs(a - n) / denom


def fd_param_gradients(loss_fn, params, h=1e-5) -> dict[str, np.ndarray]:
    """Central differences of ``loss_fn()`` w.r.t. every parameter element.

    Parameter buffers are temporarily swapped to longdouble; ``loss_fn``
    must recompute the loss from the live parameter tensors.
    """
    saved = {p.name: p.data for p in params}
    for p in params:
        p.data = p.data.astype(np.longdouble)
    try:
        grads = {}
        for p in params:
            flat = p.data.reshape(-1)
            fd = np.zeros(flat.size, dtype=np.float64)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_fn()
                flat[i] = orig - h
                lm = loss_fn()
                flat[i] = orig
                fd[i] = (lp - lm) / (2.0 * h)
            grads[p.name] = fd.reshape(p.shape)
    finally:
        for p in params:
            p.data = saved[p.name]
    return grads


def model_gradient_check(model, batch, candidates=None, h=1e-5):
    """Max relative error between tape gradients and the FD oracle."""
    tape = Tape()
    loss = training.loss_batch(model, batch, tape, candidates)
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in model.parameters()}

    def loss_fn():
        return float(training.loss_batch(model, batch, None, candidates).data)

    numeric = fd_param_gradients(loss_fn, model.parameters(), h=h)
    worst = 0.0
    worst_name = ""
    for name, fd in numeric.items():
        err = relative_errors(analytic[name], fd).max()
        if err > worst:
            worst = float(err)
            worst_name = name
    return worst, worst_name


@pytest.fixture(scope="session")
def city_records():
    from taxidest import fixtures

    return fixtures.generate_city_records(80, seed=11)
