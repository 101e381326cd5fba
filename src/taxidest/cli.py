"""Command-line pipeline: prepare, cluster, train, evaluate, predict, export.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error,
4 a `train` run that validated, or stopped on a non-finite value, without
any finite validation score (it writes its report but no checkpoint).
Every subcommand is deterministic given --seed and its inputs; `evaluate
--split validation --seed S` repeats the best score of `train --seed S`.

A prepared data directory holds:
    records.bin   binary cache of every parsed record (regenerable)
    splits.json   {"seed": S, "validation": V, "test": T}; the split and the
                  fixed validation/test cuts are derived from these numbers
`train` fits the standardization statistics and the metadata vocabularies
on the training split and stores both in the checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import fixtures, models
from ._atomic import atomic_open, non_utf8_error
from .clustering import MeanShiftConfig, load_clusters, mean_shift, save_clusters
from .data import (
    CsvParseError,
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
from .training import TrainConfig, evaluate, fixed_prefix_examples, memory_candidates, train, write_submission

__all__ = ["main"]

#: `train --batch` default for memory_net; the other variants take TrainConfig's.
MEMORY_NET_BATCH = 5000


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
    sp.add_argument("--bandwidth", type=float, default=MeanShiftConfig.bandwidth_m, help="meters")
    sp.add_argument("--merge-radius", type=float, default=MeanShiftConfig.merge_radius_m, help="meters")
    sp.add_argument("--max-iter", type=int, default=MeanShiftConfig.max_iterations)
    sp.add_argument("--out", required=True, help="cluster CSV path")

    sp = sub.add_parser("train", help="train a destination model")
    sp.add_argument("--data", required=True)
    sp.add_argument("--clusters", default=None, help="cluster CSV (centroid variants)")
    sp.add_argument("--variant", default=ModelConfig.variant, choices=VARIANTS)
    sp.add_argument("--k", type=int, default=ModelConfig.k)
    sp.add_argument("--hidden", type=int, default=ModelConfig.hidden)
    sp.add_argument("--rnn-hidden", type=int, default=ModelConfig.rnn_hidden)
    sp.add_argument("--window", type=int, default=ModelConfig.window)
    sp.add_argument("--embedding-dim", type=int, default=ModelConfig.embedding_dim,
                    help="width of each of the six embedding tables")
    sp.add_argument("--memory-m", type=int, default=ModelConfig.memory_m)
    sp.add_argument("--lr", dest="learning_rate", type=float, default=TrainConfig.learning_rate)
    sp.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    sp.add_argument("--batch", dest="batch_size", type=int, default=None,
                    help=f"default {TrainConfig.batch_size} (memory_net: {MEMORY_NET_BATCH})")
    sp.add_argument("--max-batches", type=int, default=TrainConfig.max_batches)
    sp.add_argument("--validate-every", type=int, default=TrainConfig.validate_every)
    sp.add_argument("--patience", type=int, default=TrainConfig.patience)
    sp.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm)
    sp.add_argument("--dtype", default=ModelConfig.dtype, choices=("float32", "float64"))
    sp.add_argument("--seed", type=int, default=TrainConfig.seed)
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--report", default=None, help="training report JSONL (default OUT.report.jsonl)")

    sp = sub.add_parser("evaluate", help="mean Haversine km of a checkpoint on a split")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", default="test", choices=("train", "validation", "test"))
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the train split's cuts and of memory_net's candidates")

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
# Input helpers: the competition CSV and the prepared directory
# ---------------------------------------------------------------------------


def _read_csv(path) -> Iterator[TrainRecord]:
    """The records of the competition CSV at ``path``, in file order.  A
    malformed row or a byte that is not UTF-8 raises :class:`DataError`
    naming the path and the line."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            yield from parse_csv(f)
    except CsvParseError as e:
        raise DataError(f"{path}: {e}") from e
    except UnicodeDecodeError as e:
        raise non_utf8_error(path) from e


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
        except UnicodeDecodeError:
            raise non_utf8_error(path) from None
        except (ValueError, RecursionError) as e:
            raise DataError(f"{path}: not JSON: {e}") from None
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
    try:
        return _derive_split(records, spec["seed"], spec["validation"], spec["test"])
    except DataError as e:  # the counts do not fit the cache
        raise DataError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_prepare(args) -> int:
    if args.val < 1:
        raise DataError(f"--val={args.val}: a prepared directory needs at least 1 validation trip, "
                        "since `train` early-stops on the validation rides")
    records = list(_read_csv(args.input))
    split = _derive_split(records, args.seed, args.val, args.test)
    out = Path(args.out)  # created only once the input has parsed and split
    out.mkdir(parents=True, exist_ok=True)
    save_records(records, out / "records.bin")
    with atomic_open(out / "splits.json", "w", encoding="utf-8") as f:
        json.dump({"seed": args.seed, "validation": args.val, "test": args.test}, f, sort_keys=True)
    counts = [len(split.train), len(split.validation), len(split.test)]
    print(f"prepared {sum(counts)} records: train {counts[0]}, validation {counts[1]}, test {counts[2]}")
    return 0


def _cmd_cluster(args) -> int:
    cfg = MeanShiftConfig(  # a bad option fails before the data loads
        bandwidth_m=args.bandwidth,
        max_iterations=args.max_iter,
        merge_radius_m=args.merge_radius,
    )
    train_records = _load_prepared(args.data).train
    dests = np.array([r.polyline[-1] for r in train_records], dtype=np.float64)
    cs = mean_shift(dests, cfg)
    save_clusters(cs, args.out)
    print(f"C={cs.count}")
    return 0


def _config_from_args(cls, args, **given):
    """A ``cls`` config from the ``train`` options named after its fields,
    except the fields ``given``."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**fields, **given)


def _cmd_train(args) -> int:
    config = _config_from_args(ModelConfig, args)  # a bad option fails before the data loads
    batch = args.batch_size
    if batch is None:
        batch = MEMORY_NET_BATCH if config.uses_memory else TrainConfig.batch_size
    cfg = _config_from_args(TrainConfig, args, batch_size=batch)
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
    report_path = args.report if args.report else f"{args.out}.report.jsonl"
    report.to_jsonl(report_path)
    print(
        f"stopped: {report.stop_reason}; best validation {report.best_val_km:.3f} km "
        f"at batch {report.best_batches}"
    )
    if report.failed:
        print("taxidest train: failed: no validation gave a finite score; no checkpoint written", file=sys.stderr)
        return 4
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    prepared = _load_prepared(args.data)
    if args.split == "train":
        rng = np.random.default_rng(args.seed)
        examples = fixed_prefix_examples(prepared.train, rng)
    else:
        examples = getattr(prepared, args.split)
    km = evaluate(model, examples, memory_candidates(model, prepared.train, args.seed))
    print(f"mean_haversine_km {km:.3f}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    records = list(_read_csv(args.input))
    if not records:
        raise DataError(f"{args.input}: no prefix trajectories")
    for r in records:
        if len(r.polyline) == 0:
            raise DataError(f"{args.input}: trip {r.trip_id} has an empty POLYLINE; a prefix needs a point")
    examples = models.candidates_from_records(records)  # every row, whatever its MISSING_DATA flag
    candidates = None
    if model.config.uses_memory:
        if args.data is None:
            raise DataError(f"variant {model.config.variant} needs --data to draw its candidates")
        candidates = memory_candidates(model, _load_prepared(args.data).train, args.seed)
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
    if args.trips < 1:
        raise DataError(f"--trips={args.trips}: a fixture needs at least 1 trip")
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


def _check_output_files(args) -> None:
    """Refuse, before any data loads, an output file whose directory does
    not exist, or which is a file the command reads or its other output;
    ``prepare``'s ``--out`` is a directory that it creates."""
    if args.command == "prepare":
        return
    named = [(f"--{name}", getattr(args, name, None)) for name in ("input", "model", "clusters")]
    if getattr(args, "data", None) is not None:
        named += [(f"--data's {name}", Path(args.data) / name) for name in ("records.bin", "splits.json")]
    files = {Path(path).resolve(): label for label, path in named if path is not None}
    for option in ("--out", "--report"):
        path = getattr(args, option[2:], None)
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise DataError(f"{path}: the directory {Path(path).parent} does not exist")
        target = Path(path).resolve()
        if target in files:
            raise DataError(f"{path}: {option} and {files[target]} name the same file")
        files[target] = option


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own error would not name the option
            raise DataError(f"--seed={args.seed}: must be a non-negative int")
        _check_output_files(args)
        return _COMMANDS[args.command](args)
    except (DataError, OSError, ValueError) as e:
        print(f"taxidest {args.command}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"taxidest {args.command}: internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
