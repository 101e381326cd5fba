"""Training loop, equirectangular loss, Haversine evaluation, submissions.

The loss is the mean equirectangular distance in meters, built on the tape
from unstandardized degree predictions; validation and test scores are the
mean Haversine distance in kilometers, always accumulated in double
precision.  Early stopping tracks the best validation score over a fixed,
pre-generated validation prefix set so successive validations compare the
same examples.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import models, nncore
from ._atomic import atomic_open
from .data import DataError, PrefixExample, PrefixSampler, TrainRecord
from .data import make_prefix_example  # noqa: F401  (perfbench/spans.py patches this name here)
from .geo import DEG2RAD, EARTH_RADIUS_M, first_off_earth, haversine_distance_arrays
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
    "memory_candidates",
    "train",
    "write_submission",
]

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
        if not 0 <= self.learning_rate < math.inf or not 0 <= self.momentum < 1:
            raise ValueError(f"need a finite learning_rate >= 0 and momentum in [0, 1), got "
                             f"{self.learning_rate} and {self.momentum}")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be None or finite and > 0, got {self.clip_norm}")
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

    @property
    def failed(self) -> bool:
        """True when the run validated or stopped on a non-finite value,
        and no validation gave a finite km: no checkpoint holds a model
        known to be usable."""
        return (bool(self.history) or self.stop_reason == "non_finite") and not math.isfinite(self.best_val_km)

    def to_jsonl(self, path) -> None:
        """One line per validation, then the summary; the file is replaced
        whole or not at all."""
        with atomic_open(path, "w", encoding="utf-8") as f:
            for pt in self.history:
                f.write(_json_line({"batches": pt.batches_seen, "train_loss_km": pt.train_loss_km,
                                    "val_haversine_km": pt.val_haversine_km, "improved": pt.improved}))
            f.write(_json_line({"stop_reason": self.stop_reason, "best_batches": self.best_batches,
                                "best_val_km": self.best_val_km, "checkpoint": self.checkpoint_path}))

    @classmethod
    def from_jsonl(cls, path) -> "TrainReport":
        """Read :meth:`to_jsonl`'s file; null numbers read back as inf."""
        report = cls()
        with open(path, "r", encoding="utf-8") as f:
            lines = [json.loads(line) for line in f if line.strip()]
        for obj in lines[:-1]:
            report.history.append(
                ValidationPoint(
                    batches_seen=obj["batches"],
                    train_loss_km=_number(obj["train_loss_km"]),
                    val_haversine_km=_number(obj["val_haversine_km"]),
                    improved=obj["improved"],
                )
            )
        summary = lines[-1]
        report.stop_reason = summary["stop_reason"]
        report.best_batches = summary["best_batches"]
        report.best_val_km = _number(summary["best_val_km"])
        report.checkpoint_path = summary["checkpoint"]
        return report


def _json_line(obj: dict) -> str:
    """``obj`` as one line of strict JSON, which has no inf or NaN: a
    non-finite number (``best_val_km`` before any validation) is null."""
    obj = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in obj.items()}
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def _number(x: Optional[float]) -> float:
    return math.inf if x is None else x


def equirectangular_loss(tape: Tape, pred: Tensor, targets_deg: np.ndarray) -> Tensor:
    """Mean equirectangular distance (meters) between predictions and targets."""
    t = np.asarray(targets_deg, dtype=np.float64) * DEG2RAD
    pr = nncore.scale(tape, pred, DEG2RAD)
    lat = nncore.slice_cols(tape, pr, 0, 1)
    lon = nncore.slice_cols(tape, pr, 1, 2)
    d_lat = nncore.add_const(tape, lat, -t[:, :1])
    d_lon = nncore.add_const(tape, lon, -t[:, 1:])
    mean_lat = nncore.add_const(tape, nncore.scale(tape, lat, 0.5), 0.5 * t[:, :1])
    u = nncore.mul(tape, d_lon, nncore.cos(tape, mean_lat))
    s = nncore.add(tape, nncore.mul(tape, u, u), nncore.mul(tape, d_lat, d_lat))
    d = nncore.scale(tape, nncore.sqrt(tape, nncore.add_const(tape, s, _LOSS_EPS)), EARTH_RADIUS_M)
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


def fixed_prefix_examples(records: Sequence[TrainRecord], rng: np.random.Generator) -> list[PrefixExample]:
    """One random cut per trajectory, fixed once so evaluations are comparable.

    One ``rng.integers(1, lengths + 1)`` call draws every cut, uniform in
    [1, length]; it gives the values and the generator state of one scalar
    call per record, in order.
    """
    lengths = np.fromiter((len(r.polyline) for r in records), np.int64, len(records))
    return [PrefixExample(r, cut) for r, cut in zip(records, rng.integers(1, lengths + 1).tolist())]


def evaluate(
    model: DestinationModel,
    examples: Sequence[PrefixExample],
    candidates: Sequence[PrefixExample] = None,
) -> float:
    """Mean Haversine distance in km over a prefix set, float64
    accumulation; inf if any prediction is not a point on the Earth."""
    if len(examples) == 0:
        raise DataError("evaluate requires a non-empty prefix set")
    pred = models.predict(model, examples, candidates)
    if first_off_earth(pred) is not None:
        return math.inf
    targets = models.destinations(examples)
    d = haversine_distance_arrays(pred[:, 0], pred[:, 1], targets[:, 0], targets[:, 1])
    return float(d.mean()) / 1000.0


class _CandidateSampler:
    """Random training trajectories as memory-network candidates, drawn
    without replacement, excluding any trip id present in the query batch.

    ``model`` is not read; the signature is the one perfbench calls.
    """

    def __init__(self, records: Sequence[TrainRecord], model: DestinationModel, m: int):
        self.records = list(records)
        if not self.records:
            raise DataError("memory network needs candidate records")
        self.m = min(m, len(self.records))

    def sample(self, rng: np.random.Generator, exclude_trip_ids=frozenset()) -> list[PrefixExample]:
        """Up to ``m`` distinct records whose trip ids are not excluded,
        drawn uniformly without replacement.

        One ``rng.choice(n, m + len(exclude_trip_ids), replace=False)`` call
        (capped at ``n``) draws the positions; the first ``m`` drawn records
        whose trip ids are not excluded are kept, in draw order.  With unique
        trip ids that is ``min(m, eligible)`` records.  An excluded id that
        several records share can remove more than one draw, so the result
        can then be short by those extra records.
        """
        n = len(self.records)
        picks = rng.choice(n, size=min(n, self.m + len(exclude_trip_ids)), replace=False).tolist()
        drawn = [self.records[i] for i in picks]
        chosen = [r for r in drawn if r.trip_id not in exclude_trip_ids][: self.m]
        if not chosen:
            excluded = sum(r.trip_id in exclude_trip_ids for r in self.records)
            raise DataError(
                f"could not sample memory-network candidates: the batch's own trips are left out, "
                f"and they are {excluded} of the {len(self.records)} training trips; "
                "use a smaller batch or more training trips"
            )
        return models.candidates_from_records(chosen)


def memory_candidates(
    model: DestinationModel, train_records: Sequence[TrainRecord], seed: int
) -> Optional[list[PrefixExample]]:
    """``memory_m`` training trajectories drawn by ``default_rng(seed)`` for
    ``model`` to score a fixed prefix set against, or None if it reads none."""
    if not model.config.uses_memory:
        return None
    sampler = _CandidateSampler(train_records, model, model.config.memory_m)
    return sampler.sample(np.random.default_rng(seed))


def train(
    model: DestinationModel,
    train_records: Sequence[TrainRecord],
    val_examples: Sequence[PrefixExample],
    cfg: TrainConfig,
    checkpoint_path=None,
) -> TrainReport:
    """SGD-with-momentum loop with early stopping on validation Haversine.

    Each batch is one ``PrefixSampler.sample`` draw of ``cfg.batch_size``
    prefixes, uniform over all prefixes of the training rides; every
    ``cfg.validate_every`` batches the fixed validation prefix set is
    scored, the best checkpoint saved, and training stops after
    ``cfg.patience`` validations without improvement or at
    ``cfg.max_batches``.  Each batch's step (``nncore.sgd_momentum_step``)
    takes one global gradient norm; ``cfg.clip_norm``, if set, caps that
    norm.  A non-finite training loss (before the backward pass) or
    gradient norm (inside the step) stops training at once with
    ``stop_reason="non_finite"``: no value or velocity moves and the
    gradients are zero, so the parameters and the last checkpoint stay
    finite; numpy's floating-point warnings are silenced.  A run that never
    validates leaves its final model at ``checkpoint_path``, a failed one
    none.  ``memory_net`` validates against :func:`memory_candidates` for
    ``cfg.seed``.  Deterministic given the seed.
    """
    if len(val_examples) == 0:
        raise DataError("train requires a non-empty validation prefix set")
    sampler = PrefixSampler(train_records)
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    cand_sampler = eval_candidates = None
    if model.config.uses_memory:
        cand_sampler = _CandidateSampler(train_records, model, model.config.memory_m)
        eval_candidates = cand_sampler.sample(np.random.default_rng(cfg.seed))

    report = TrainReport(stop_reason="max_batches")
    since_improvement = 0
    loss_accum = 0.0
    loss_count = 0

    # An overflow shows as a non-finite loss, gradient norm or validation
    # score, which the loop reports; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        for batch_no in range(1, cfg.max_batches + 1):
            batch = sampler.sample(rng, cfg.batch_size)
            candidates = None
            if cand_sampler is not None:
                batch_ids = frozenset(ex.trip_id for ex in batch)
                candidates = cand_sampler.sample(rng, exclude_trip_ids=batch_ids)

            tape = Tape()
            loss = loss_batch(model, batch, tape, candidates)
            loss_m = float(loss.data)
            if not math.isfinite(loss_m):
                report.stop_reason = "non_finite"
                break
            # Optimize in kilometers, the unit the fixed 0.01 learning rate is
            # calibrated to; meter-scale gradients are 1000x larger and
            # immediately saturate the softmax.
            loss_km = nncore.scale(tape, loss, 1e-3)
            tape.backward(loss_km)
            norm = nncore.sgd_momentum_step(params, cfg.learning_rate, cfg.momentum, cfg.clip_norm)
            if not math.isfinite(norm):  # the step zeroed the gradients and moved nothing
                report.stop_reason = "non_finite"
                break
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
                        break
    if checkpoint_path is not None and not report.failed:
        report.checkpoint_path = str(checkpoint_path)
        if not report.history:
            models.save_model(model, checkpoint_path)  # no validation ever ran
    return report


def write_submission(
    model: DestinationModel,
    examples: Sequence[PrefixExample],
    path,
    candidates: Sequence[PrefixExample] = None,
) -> None:
    """Competition-format CSV: TRIP_ID,LATITUDE,LONGITUDE, one row per
    prefix; the file is replaced whole or not at all.  A prediction that is
    not a point on the Earth raises :class:`DataError` naming its trip,
    before anything is written."""
    pred = models.predict(model, examples, candidates)
    j = first_off_earth(pred)
    if j is not None:
        raise DataError(f"the prediction for trip {examples[j].trip_id} is {tuple(pred[j].tolist())}; "
                        "it is not finite within |lat| <= 90 and |lon| <= 180")
    with atomic_open(path, "w", encoding="utf-8", newline="") as f:
        out = csv.writer(f, lineterminator="\n")  # quotes a trip id only where the CSV needs it
        out.writerow(["TRIP_ID", "LATITUDE", "LONGITUDE"])
        for ex, (lat, lon) in zip(examples, pred):
            out.writerow([ex.trip_id, f"{lat:.6f}", f"{lon:.6f}"])
