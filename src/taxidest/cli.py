"""Command-line pipeline: prepare, cluster, train, evaluate, predict, export.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Every subcommand is deterministic given --seed and its inputs.

A prepared data directory holds:
    records.bin   binary cache of all usable parsed records (regenerable)
    splits.json   {"seed": S, "validation": V, "test": T}; the split and the
                  fixed validation/test cuts are derived from these numbers
`train` fits the standardization statistics and the metadata vocabularies
on the training split and stores both in the checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fixtures, models, training
from ._atomic import atomic_open
from .clustering import MeanShiftConfig, load_clusters, mean_shift, save_clusters
from .data import (
    DataError,
    PrefixExample,
    TrainRecord,
    build_vocab,
    fit_standardization,
    load_records,
    parse_csv,
    save_records,
    split_dataset,
)
from .models import EMBEDDING_FIELDS, VARIANTS, ModelConfig, build_model, load_model
from .training import TrainConfig, evaluate, fixed_prefix_examples, train, write_submission

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="taxidest", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", parents=[], help="parse, filter, cache and split")
    sp.add_argument("--input", required=True, help="competition-format CSV")
    sp.add_argument("--out", required=True, help="output data directory")
    sp.add_argument("--val", type=int, default=19427, help="validation trajectories")
    sp.add_argument("--test", type=int, default=19770, help="test trajectories")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("cluster", help="mean-shift the training destinations")
    sp.add_argument("--data", required=True, help="prepared data directory")
    sp.add_argument("--bandwidth", type=float, default=500.0, help="meters")
    sp.add_argument("--merge-radius", type=float, default=250.0, help="meters")
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--seed-subsample", type=int, default=None)
    sp.add_argument("--out", required=True, help="cluster CSV path")

    sp = sub.add_parser("train", help="train a destination model")
    sp.add_argument("--data", required=True)
    sp.add_argument("--clusters", default=None, help="cluster CSV (centroid variants)")
    sp.add_argument("--variant", default="mlp_clusters", choices=VARIANTS)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--hidden", type=int, default=500)
    sp.add_argument("--rnn-hidden", type=int, default=500)
    sp.add_argument("--window", type=int, default=5)
    sp.add_argument("--embedding-dim", type=int, default=10)
    sp.add_argument("--memory-m", type=int, default=10000)
    sp.add_argument("--lr", type=float, default=0.01)
    sp.add_argument("--momentum", type=float, default=0.9)
    sp.add_argument("--batch", type=int, default=None, help="default 200 (memory_net: ModelConfig.memory_batch)")
    sp.add_argument("--max-batches", type=int, default=10000)
    sp.add_argument("--validate-every", type=int, default=500)
    sp.add_argument("--patience", type=int, default=5)
    sp.add_argument("--clip-norm", type=float, default=None)
    sp.add_argument("--dtype", default="float32", choices=("float32", "float64"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--report", default=None, help="training report JSONL (default OUT.report.jsonl)")

    sp = sub.add_parser("evaluate", help="mean Haversine km of a checkpoint on a split")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", default="test", choices=("train", "validation", "test"))
    sp.add_argument("--seed", type=int, default=0, help="cut seed for the train split")

    sp = sub.add_parser("predict", help="write a submission CSV for prefix trajectories")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True, help="competition-format CSV of prefixes")
    sp.add_argument("--out", required=True)
    sp.add_argument("--data", default=None, help="prepared dir for memory-net candidates")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("export-embeddings", help="dump one embedding table as CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("fixture", help="generate the synthetic-city fixture CSV")
    sp.add_argument("--out", required=True)
    sp.add_argument("--trips", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    return p


# ---------------------------------------------------------------------------
# Prepared-directory helpers
# ---------------------------------------------------------------------------


class _Prepared(NamedTuple):
    """A prepared directory's split, each ride addressed by its position in
    the record cache; validation and test carry their fixed cuts."""

    train: list[TrainRecord]
    validation: list[PrefixExample]
    test: list[PrefixExample]


def _derive_split(records, seed, n_val, n_test) -> _Prepared:
    """The split that ``splits.json``'s numbers stand for: ``split_dataset``
    under ``default_rng(seed)``, then ``fixed_prefix_examples`` for the
    validation records and then for the test records, from the same
    generator."""
    rng = np.random.default_rng(seed)
    split = split_dataset(records, rng, n_val, n_test)
    validation = fixed_prefix_examples(split.validation, rng)
    test = fixed_prefix_examples(split.test, rng)
    return _Prepared(split.train, validation, test)


def _load_prepared(data_dir) -> _Prepared:
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"{data_dir}: not a prepared data directory")
    path = data_dir / "splits.json"
    with open(path, "r", encoding="utf-8") as f:
        try:
            spec = json.load(f)
        except ValueError as e:
            raise DataError(f"{path}: not JSON: {e}")
    if not isinstance(spec, dict):
        raise DataError(f"{path}: not a JSON object")
    for key in ("seed", "validation", "test"):
        if key not in spec:
            raise DataError(f"{path}: no {key!r} key")
        value = spec[key]
        if type(value) is not int or value < 0:
            hint = "; it lists trip ids, so re-run `taxidest prepare`" if isinstance(value, list) else ""
            raise DataError(f"{path}: {key!r} is not a non-negative int{hint}")
    records = load_records(data_dir / "records.bin")
    return _derive_split(records, spec["seed"], spec["validation"], spec["test"])


def _memory_candidates(model, train_records, seed):
    sampler = training._CandidateSampler(train_records, model, model.config.memory_m)
    return sampler.sample(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_prepare(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(args.input, "r", encoding="utf-8", newline="") as f:
        usable = [r for r in parse_csv(f) if r.usable]
    split = _derive_split(usable, args.seed, args.val, args.test)

    save_records(usable, out / "records.bin")
    with atomic_open(out / "splits.json", "w", encoding="utf-8") as f:
        json.dump({"seed": args.seed, "validation": args.val, "test": args.test}, f, sort_keys=True)
    print(
        f"prepared {len(usable)} records: train {len(split.train)}, "
        f"validation {len(split.validation)}, test {len(split.test)}"
    )
    return 0


def _cmd_cluster(args) -> int:
    cfg = MeanShiftConfig(  # a bad option fails before the data loads
        bandwidth_m=args.bandwidth,
        max_iterations=args.max_iter,
        merge_radius_m=args.merge_radius,
        seed_subsample=args.seed_subsample,
    )
    train_records = _load_prepared(args.data).train
    dests = np.array([r.polyline[-1] for r in train_records], dtype=np.float64)
    if len(dests) == 0:
        raise DataError("training split has no destinations to cluster")
    cs = mean_shift(dests, cfg)
    save_clusters(cs, args.out)
    print(f"C={cs.count}")
    return 0


def _model_config_from_args(args) -> ModelConfig:
    return ModelConfig(
        variant=args.variant,
        k=args.k,
        hidden=args.hidden,
        embedding_dims={f: args.embedding_dim for f in EMBEDDING_FIELDS},
        rnn_hidden=args.rnn_hidden,
        window=args.window,
        memory_m=args.memory_m,
        dtype=args.dtype,
    )


def _cmd_train(args) -> int:
    config = _model_config_from_args(args)  # a bad option fails before the data loads
    batch = args.batch
    if batch is None:
        batch = config.memory_batch if config.variant == "memory_net" else TrainConfig.batch_size
    cfg = TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=batch,
        max_batches=args.max_batches,
        validate_every=args.validate_every,
        patience=args.patience,
        seed=args.seed,
        clip_norm=args.clip_norm,
    )
    prepared = _load_prepared(args.data)
    stats = fit_standardization(prepared.train)
    vocab = build_vocab(prepared.train)
    clusters = None
    if config.uses_cluster_centroid:
        if args.clusters is None:
            raise DataError(f"variant {args.variant} requires --clusters")
        clusters = load_clusters(args.clusters)
    model = build_model(config, clusters, stats, vocab, seed=args.seed)
    report = train(model, prepared.train, prepared.validation, cfg, checkpoint_path=args.out)
    if not report.history:
        models.save_model(model, args.out)  # no validation ever ran
    report_path = args.report if args.report else f"{args.out}.report.jsonl"
    report.to_jsonl(report_path)
    print(
        f"stopped: {report.stop_reason}; best validation {report.best_val_km:.3f} km "
        f"at batch {report.best_batches}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    prepared = _load_prepared(args.data)
    if args.split == "train":
        rng = np.random.default_rng(args.seed)
        examples = fixed_prefix_examples(prepared.train, rng)
    else:
        examples = getattr(prepared, args.split)
    candidates = None
    if model.config.variant == "memory_net":
        candidates = _memory_candidates(model, prepared.train, args.seed)
    km = evaluate(model, examples, candidates)
    print(f"mean_haversine_km {km:.3f}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    with open(args.input, "r", encoding="utf-8", newline="") as f:
        records = list(parse_csv(f))
    if not records:
        raise DataError(f"{args.input}: no prefix trajectories")
    for r in records:
        if len(r.polyline) == 0:
            raise DataError(f"{args.input}: trip {r.trip_id} has an empty POLYLINE; a prefix needs a point")
    examples = models.candidates_from_records(records)  # every row, whatever its MISSING_DATA flag
    candidates = None
    if model.config.variant == "memory_net":
        if args.data is None:
            raise DataError("memory_net prediction requires --data for candidates")
        candidates = _memory_candidates(model, _load_prepared(args.data).train, args.seed)
    write_submission(model, examples, args.out, candidates)
    print(f"wrote {len(examples)} predictions to {args.out}")
    return 0


def _cmd_export_embeddings(args) -> int:
    model = load_model(args.model)
    name = f"emb_{args.table}"
    if args.table not in EMBEDDING_FIELDS:
        raise DataError(
            f"unknown embedding table {args.table!r}; valid tables: {', '.join(EMBEDDING_FIELDS)}"
        )
    if name not in model.params:
        raise DataError(f"variant {model.config.variant} has no embedding tables")
    table = model.params[name].value
    with atomic_open(args.out, "w", encoding="utf-8") as f:
        f.write("index," + ",".join(f"e{i}" for i in range(table.shape[1])) + "\n")
        for i, row in enumerate(table):
            f.write(str(i) + "," + ",".join(f"{v:.8g}" for v in row) + "\n")
    print(f"wrote {table.shape[0]} rows of width {table.shape[1]} to {args.out}")
    return 0


def _cmd_fixture(args) -> int:
    fixtures.generate_city_csv(args.out, args.trips, args.seed)
    print(f"wrote {args.trips} synthetic trips to {args.out}")
    return 0


_COMMANDS = {
    "prepare": _cmd_prepare,
    "cluster": _cmd_cluster,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "export-embeddings": _cmd_export_embeddings,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError, ValueError) as e:
        print(f"taxidest {args.command}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"taxidest {args.command}: internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
