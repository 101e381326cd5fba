"""Training loop, equirectangular loss, Haversine evaluation, submissions.

The loss is the mean equirectangular distance in meters, built on the tape
from unstandardized degree predictions; validation and test scores are the
mean Haversine distance in kilometers, always accumulated in double
precision.  Early stopping tracks the best validation score over a fixed,
pre-generated validation prefix set so successive validations compare the
same examples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import models, nncore
from ._atomic import atomic_open
from .data import DataError, PrefixExample, PrefixSampler, TrainRecord, make_prefix_example
from .geo import EARTH, haversine_distance_arrays
from .models import DestinationModel
from .nncore import Tape, Tensor

__all__ = [
    "TrainConfig",
    "TrainReport",
    "ValidationPoint",
    "equirectangular_loss",
    "evaluate",
    "fixed_prefix_examples",
    "loss_batch",
    "train",
    "write_submission",
]

_DEG2RAD = math.pi / 180.0

# Keeps the sqrt gradient finite if a prediction coincides with its target;
# adds at most R*1e-12 ~ 6.4e-6 m to any distance.
_LOSS_EPS = 1e-24


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 200
    max_batches: int = 10_000
    validate_every: int = 500
    patience: int = 5
    seed: int = 0
    clip_norm: Optional[float] = None

    def __post_init__(self):
        if self.learning_rate < 0 or not 0 <= self.momentum < 1:
            raise ValueError("need learning_rate >= 0 and momentum in [0, 1)")
        if self.batch_size < 1 or self.max_batches < 1 or self.validate_every < 1:
            raise ValueError("batch_size, max_batches, validate_every must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class ValidationPoint:
    batches_seen: int
    train_loss_km: float
    val_haversine_km: float
    improved: bool


@dataclass
class TrainReport:
    history: list[ValidationPoint] = field(default_factory=list)
    best_batches: int = 0
    best_val_km: float = math.inf
    stop_reason: str = ""
    checkpoint_path: Optional[str] = None

    def to_jsonl(self, path) -> None:
        """One line per validation, then the summary; the file is replaced
        whole or not at all."""
        with atomic_open(path, "w", encoding="utf-8") as f:
            for pt in self.history:
                f.write(
                    json.dumps(
                        {
                            "batches": pt.batches_seen,
                            "train_loss_km": pt.train_loss_km,
                            "val_haversine_km": pt.val_haversine_km,
                            "improved": pt.improved,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            f.write(
                json.dumps(
                    {
                        "stop_reason": self.stop_reason,
                        "best_batches": self.best_batches,
                        "best_val_km": self.best_val_km,
                        "checkpoint": self.checkpoint_path,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    @classmethod
    def from_jsonl(cls, path) -> "TrainReport":
        report = cls()
        with open(path, "r", encoding="utf-8") as f:
            lines = [json.loads(line) for line in f if line.strip()]
        for obj in lines[:-1]:
            report.history.append(
                ValidationPoint(
                    batches_seen=obj["batches"],
                    train_loss_km=obj["train_loss_km"],
                    val_haversine_km=obj["val_haversine_km"],
                    improved=obj["improved"],
                )
            )
        summary = lines[-1]
        report.stop_reason = summary["stop_reason"]
        report.best_batches = summary["best_batches"]
        report.best_val_km = summary["best_val_km"]
        report.checkpoint_path = summary["checkpoint"]
        return report


def equirectangular_loss(tape: Tape, pred: Tensor, targets_deg: np.ndarray) -> Tensor:
    """Mean equirectangular distance (meters) between predictions and targets."""
    t = np.asarray(targets_deg, dtype=np.float64) * _DEG2RAD
    pr = nncore.scale(tape, pred, _DEG2RAD)
    lat = nncore.slice_cols(tape, pr, 0, 1)
    lon = nncore.slice_cols(tape, pr, 1, 2)
    d_lat = nncore.add_const(tape, lat, -t[:, :1])
    d_lon = nncore.add_const(tape, lon, -t[:, 1:])
    mean_lat = nncore.add_const(tape, nncore.scale(tape, lat, 0.5), 0.5 * t[:, :1])
    u = nncore.mul(tape, d_lon, nncore.cos(tape, mean_lat))
    s = nncore.add(tape, nncore.mul(tape, u, u), nncore.mul(tape, d_lat, d_lat))
    d = nncore.scale(tape, nncore.sqrt(tape, nncore.add_const(tape, s, _LOSS_EPS)), EARTH.radius_m)
    return nncore.mean_all(tape, d)


def loss_batch(
    model: DestinationModel,
    batch: Sequence[PrefixExample],
    tape: Tape = None,
    candidates: Sequence[PrefixExample] = None,
) -> Tensor:
    """Scalar loss node for one batch: mean equirectangular meters."""
    if len(batch) == 0:
        raise DataError("loss_batch requires a non-empty batch")
    pred = models.forward(model, batch, tape, candidates)
    return equirectangular_loss(tape, pred, models.destinations(batch))


def fixed_prefix_examples(
    records: Sequence[TrainRecord],
    k: int,
    stats,
    vocab,
    rng: np.random.Generator,
) -> list[PrefixExample]:
    """One random cut per trajectory, fixed once so evaluations are comparable."""
    return [
        make_prefix_example(rec, int(rng.integers(1, len(rec.polyline) + 1)), k, stats, vocab)
        for rec in records
    ]


def evaluate(
    model: DestinationModel,
    examples: Sequence[PrefixExample],
    candidates: Sequence[PrefixExample] = None,
) -> float:
    """Mean Haversine distance in km over a prefix set, float64 accumulation."""
    if len(examples) == 0:
        raise DataError("evaluate requires a non-empty prefix set")
    pred = models.predict(model, examples, candidates)
    targets = models.destinations(examples)
    d = haversine_distance_arrays(pred[:, 0], pred[:, 1], targets[:, 0], targets[:, 1])
    step = models.PREDICT_CHUNK  # summed per forward chunk, in order
    total = sum(float(d[start : start + step].sum()) for start in range(0, len(d), step))
    return total / len(examples) / 1000.0


class _CandidateSampler:
    """Random training trajectories as memory-network candidates,
    excluding any trajectory present in the query batch."""

    def __init__(self, records: Sequence[TrainRecord], model: DestinationModel, m: int):
        self.records = [r for r in records if r.usable]
        if not self.records:
            raise DataError("memory network needs usable candidate records")
        self.model = model
        self.m = min(m, len(self.records))
        self._positions: dict[str, list[int]] = {}
        for i, r in enumerate(self.records):
            self._positions.setdefault(r.trip_id, []).append(i)

    def sample(self, rng: np.random.Generator, exclude_trip_ids=frozenset()) -> list[PrefixExample]:
        """Up to ``m`` distinct records whose trip ids are not excluded,
        drawn uniformly with rejection from at most ``20 m`` draws.

        Draws come in rounds: ``rng.integers(n, size=k)`` gives the values
        of ``k`` scalar draws and leaves the generator where they would.
        Each round asks for at most the shortfall and the rest of the
        budget, and keeps its first occurrences not yet chosen or excluded,
        in draw order.  So the candidates, their order and the generator's
        final state are those of one scalar draw at a time until ``m`` are
        chosen.
        """
        blocked = np.zeros(len(self.records), dtype=bool)
        for trip_id in exclude_trip_ids:
            blocked[self._positions.get(trip_id, [])] = True
        chosen = []
        count, budget = 0, 20 * self.m
        while count < self.m and budget > 0:
            draws = rng.integers(len(self.records), size=min(self.m - count, budget))
            budget -= len(draws)
            _, first = np.unique(draws, return_index=True)
            new = draws[np.sort(first)]
            new = new[~blocked[new]]
            blocked[new] = True
            chosen.append(new)
            count += len(new)
        if count == 0:
            raise DataError("could not sample memory-network candidates")
        return models.candidates_from_records(
            [self.records[i] for i in np.concatenate(chosen)],
            self.model.config,
            self.model.stats,
            self.model.vocab,
        )


def _gradients_finite(params) -> bool:
    """False if any gradient element is NaN or infinite.  One dot product g.g
    per parameter finds them; only when it is not finite, as it also is for
    a float32 norm above ~1e19, are the elements checked."""
    with np.errstate(over="ignore"):
        for p in params:
            g = p.grad.reshape(-1)
            if not math.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
                return False
    return True


def train(
    model: DestinationModel,
    train_records: Sequence[TrainRecord],
    val_examples: Sequence[PrefixExample],
    cfg: TrainConfig,
    checkpoint_path=None,
) -> TrainReport:
    """SGD-with-momentum loop with early stopping on validation Haversine.

    Batches stream from the all-prefixes distribution; every
    ``cfg.validate_every`` batches the fixed validation prefix set is
    scored, the best checkpoint saved, and training stops after
    ``cfg.patience`` validations without improvement or at
    ``cfg.max_batches``.  A non-finite training loss or gradient stops
    training at once with ``stop_reason="non_finite"``, before that batch's
    step and with the gradients zeroed, so the parameters and the last
    checkpoint stay finite.  Deterministic given the seed.
    """
    if len(val_examples) == 0:
        raise DataError("train requires a non-empty validation prefix set")
    sampler = PrefixSampler(train_records)
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    is_memory = model.config.variant == "memory_net"
    cand_sampler = None
    eval_candidates = None
    if is_memory:
        cand_sampler = _CandidateSampler(train_records, model, model.config.memory_m)
        eval_candidates = cand_sampler.sample(np.random.default_rng(cfg.seed + 1))

    report = TrainReport(checkpoint_path=None if checkpoint_path is None else str(checkpoint_path))
    since_improvement = 0
    loss_accum = 0.0
    loss_count = 0

    for batch_no in range(1, cfg.max_batches + 1):
        batch = [
            make_prefix_example(*sampler.sample(rng), model.config.k, model.stats, model.vocab)
            for _ in range(cfg.batch_size)
        ]
        candidates = None
        if is_memory:
            batch_ids = frozenset(ex.trip_id for ex in batch)
            candidates = cand_sampler.sample(rng, exclude_trip_ids=batch_ids)

        tape = Tape()
        loss = loss_batch(model, batch, tape, candidates)
        loss_m = float(loss.data)
        if not math.isfinite(loss_m):
            report.stop_reason = "non_finite"
            return report
        # Optimize in kilometers, the unit the fixed 0.01 learning rate is
        # calibrated to; meter-scale gradients are 1000x larger and
        # immediately saturate the softmax.
        loss_km = nncore.scale(tape, loss, 1e-3)
        tape.backward(loss_km)
        if cfg.clip_norm is None:
            finite = _gradients_finite(params)
        else:
            finite = math.isfinite(nncore.clip_gradients(params, cfg.clip_norm))
        if not finite:
            for p in params:
                p.grad[...] = 0
            report.stop_reason = "non_finite"
            return report
        nncore.sgd_momentum_step(params, cfg.learning_rate, cfg.momentum)
        # The tape holds every activation and gradient of the batch; drop
        # it before validation and the next batch allocate theirs.
        del tape, loss, loss_km
        loss_accum += loss_m
        loss_count += 1

        if batch_no % cfg.validate_every == 0:
            val_km = evaluate(model, val_examples, eval_candidates)
            improved = val_km < report.best_val_km
            report.history.append(
                ValidationPoint(
                    batches_seen=batch_no,
                    train_loss_km=loss_accum / loss_count / 1000.0,
                    val_haversine_km=val_km,
                    improved=improved,
                )
            )
            loss_accum = 0.0
            loss_count = 0
            if improved:
                report.best_val_km = val_km
                report.best_batches = batch_no
                since_improvement = 0
                if checkpoint_path is not None:
                    models.save_model(model, checkpoint_path)
            else:
                since_improvement += 1
                if since_improvement >= cfg.patience:
                    report.stop_reason = "patience"
                    return report
    report.stop_reason = "max_batches"
    return report


def write_submission(
    model: DestinationModel,
    examples: Sequence[PrefixExample],
    path,
    candidates: Sequence[PrefixExample] = None,
) -> None:
    """Competition-format CSV: TRIP_ID,LATITUDE,LONGITUDE, one row per
    prefix; the file is replaced whole or not at all."""
    pred = models.predict(model, examples, candidates)
    with atomic_open(path, "w", encoding="utf-8") as f:
        f.write("TRIP_ID,LATITUDE,LONGITUDE\n")
        for ex, (lat, lon) in zip(examples, pred):
            f.write(f"{ex.trip_id},{lat:.6f},{lon:.6f}\n")
