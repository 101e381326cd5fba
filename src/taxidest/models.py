"""The eight destination-prediction architectures.

Four MLP variants (cluster-centroid output, direct output, no embeddings,
embeddings only), a forward LSTM, a bidirectional LSTM, a bidirectional
LSTM over sliding point windows, and a memory network that softmax-weights
candidate destinations by dot-product similarity of encoded trajectories.

All centroid-output variants share the same head: a 500-ReLU hidden layer,
a softmax over fixed 2-D centers, and a probability-weighted centroid, so
their predictions always fall in the convex hull of the centers.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nncore
from .clustering import ClusterSet
from .data import MetadataVocab, PrefixExample, TrainRecord, time_features
from .data import make_prefix_example  # noqa: F401  (perfbench/spans.py patches this name here)
from .geo import StandardizationStats
from .nncore import Parameter, Tape, Tensor
from .nncore.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "EMBEDDING_FIELDS",
    "PREDICT_CHUNK",
    "TIME_VOCAB_SIZES",
    "VARIANTS",
    "DestinationModel",
    "Features",
    "ModelConfig",
    "build_model",
    "candidates_from_records",
    "destinations",
    "featurize",
    "forward",
    "load_model",
    "predict",
    "save_model",
]

VARIANTS = (
    "mlp_clusters",
    "mlp_direct",
    "mlp_no_embed",
    "mlp_embed_only",
    "rnn",
    "brnn",
    "brnn_window",
    "memory_net",
)

_MLP_VARIANTS = ("mlp_clusters", "mlp_direct", "mlp_no_embed", "mlp_embed_only")
_RNN_VARIANTS = ("rnn", "brnn", "brnn_window")

#: Embedding tables in input-concatenation order.
EMBEDDING_FIELDS = ("client", "taxi", "stand", "quarter_hour", "day_of_week", "week_of_year")

#: Calendar vocabularies are closed; no UNK row.
TIME_VOCAB_SIZES = {"quarter_hour": 96, "day_of_week": 7, "week_of_year": 52}


def _default_dims() -> dict[str, int]:
    return {name: 10 for name in EMBEDDING_FIELDS}


@dataclass
class ModelConfig:
    variant: str = "mlp_clusters"
    k: int = 5
    hidden: int = 500
    embedding_dims: dict[str, int] = field(default_factory=_default_dims)
    rnn_hidden: int = 500
    window: int = 5
    memory_m: int = 10_000
    memory_batch: int = 5_000
    dtype: str = "float32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.k < 1 or self.hidden < 1 or self.rnn_hidden < 1 or self.window < 1:
            raise ValueError("k, hidden, rnn_hidden and window must be positive")
        for name in ("memory_m", "memory_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        missing = [f for f in EMBEDDING_FIELDS if f not in self.embedding_dims]
        if missing:
            raise ValueError(f"embedding_dims missing entries for {missing}")
        for f in EMBEDDING_FIELDS:
            if self.embedding_dims[f] < 1:
                raise ValueError(f"embedding_dims[{f!r}] must be >= 1, got {self.embedding_dims[f]}")

    @property
    def uses_embeddings(self) -> bool:
        return self.variant != "mlp_no_embed"

    @property
    def uses_gps_window(self) -> bool:
        return self.variant != "mlp_embed_only"

    @property
    def uses_cluster_centroid(self) -> bool:
        return self.variant in ("mlp_clusters", "mlp_no_embed", "mlp_embed_only") + _RNN_VARIANTS

    @property
    def embedding_total(self) -> int:
        return sum(self.embedding_dims[f] for f in EMBEDDING_FIELDS)

    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass
class DestinationModel:
    config: ModelConfig
    params: dict[str, Parameter]
    clusters: Optional[ClusterSet]
    stats: StandardizationStats
    vocab: MetadataVocab

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


def _vocab_sizes(vocab: MetadataVocab) -> dict[str, int]:
    return {
        "client": vocab.client_size,
        "taxi": vocab.taxi_size,
        "stand": vocab.stand_size,
        **TIME_VOCAB_SIZES,
    }


def _mlp_input_width(config: ModelConfig) -> int:
    width = 0
    if config.uses_gps_window:
        width += 4 * config.k
    if config.uses_embeddings:
        width += config.embedding_total
    return width


def build_model(
    config: ModelConfig,
    clusters: Optional[ClusterSet],
    stats: StandardizationStats,
    vocab: MetadataVocab,
    seed: int = 0,
) -> DestinationModel:
    """Allocate and initialize all parameters; deterministic given the seed.

    Weight matrices are Glorot-uniform, biases zero (LSTM forget-gate slice
    1.0), embeddings uniform in +-0.1.
    """
    if config.uses_cluster_centroid and clusters is None:
        raise ValueError(f"variant {config.variant} requires a ClusterSet")
    rng = np.random.default_rng(seed)
    dtype = config.np_dtype()
    params: dict[str, Parameter] = {}

    def add_param(name, value):
        params[name] = Parameter(name, value)

    def add_dense(name, fan_in, fan_out):
        add_param(f"{name}_w", nncore.glorot_uniform(rng, fan_in, fan_out, dtype))
        add_param(f"{name}_b", np.zeros(fan_out, dtype=dtype))

    def add_lstm(name, in_width, hidden):
        add_param(f"{name}_wx", nncore.glorot_uniform(rng, in_width, 4 * hidden, dtype))
        add_param(f"{name}_wh", nncore.glorot_uniform(rng, hidden, 4 * hidden, dtype))
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden : 2 * hidden] = 1.0  # forget gate bias
        add_param(f"{name}_b", b)

    if config.uses_embeddings:
        sizes = _vocab_sizes(vocab)
        for fname in EMBEDDING_FIELDS:
            table = rng.uniform(
                -0.1, 0.1, size=(sizes[fname], config.embedding_dims[fname])
            ).astype(dtype)
            add_param(f"emb_{fname}", table)

    variant = config.variant
    n_out = clusters.count if config.uses_cluster_centroid else 2

    if variant in _MLP_VARIANTS:
        add_dense("hidden", _mlp_input_width(config), config.hidden)
        add_dense("out", config.hidden, n_out)
    elif variant in _RNN_VARIANTS:
        step_width = 2 * (config.window if variant == "brnn_window" else 1)
        add_lstm("lstm_fwd", step_width, config.rnn_hidden)
        state_width = config.rnn_hidden
        if variant in ("brnn", "brnn_window"):
            add_lstm("lstm_bwd", step_width, config.rnn_hidden)
            state_width = 2 * config.rnn_hidden
        add_dense("hidden", state_width + config.embedding_total, config.hidden)
        add_dense("out", config.hidden, n_out)
    else:  # memory_net: two encoders of identical shape, separate weights
        in_width = _mlp_input_width(config)
        add_dense("enc_query", in_width, config.hidden)
        add_dense("enc_cand", in_width, config.hidden)

    return DestinationModel(
        config=config,
        params=params,
        clusters=clusters if config.uses_cluster_centroid else None,
        stats=stats,
        vocab=vocab,
    )


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------


@dataclass
class Features:
    """Model inputs of one batch, in the model's dtype.

    ``gps`` [B, 4k]: each prefix's first k standardized points, tail-padded
    with its last point, then its last k, head-padded with its first point.
    ``index``: embedding field -> int64 rows [B].  Recurrent variants: rows
    ``order``ed by prefix length, longest first, and at each step t the
    inputs of the rows still running, in that order, read forward (``fwd``)
    and, if bidirectional, reversed (``bwd``); a step's input is the window
    of points ending at its point, head-padded with the first point.
    """

    gps: Optional[np.ndarray] = None
    index: dict[str, np.ndarray] = field(default_factory=dict)
    order: Optional[np.ndarray] = None
    fwd: list[np.ndarray] = field(default_factory=list)
    bwd: list[np.ndarray] = field(default_factory=list)


def featurize(model: DestinationModel, batch: Sequence[PrefixExample]) -> Features:
    """Inputs of a non-empty batch from the model's own k, statistics,
    vocabularies and dtype.

    The prefixes are concatenated and standardized once; every window is a
    gather at offsets into that array.
    """
    cfg = model.config
    dtype = cfg.np_dtype()
    feats = Features()
    if cfg.uses_gps_window:
        lengths = np.fromiter((ex.cut for ex in batch), np.int64, len(batch))
        starts = np.cumsum(lengths) - lengths
        stats = model.stats
        points = np.concatenate([ex.record.polyline[: ex.cut] for ex in batch])
        points = (points - np.array([stats.mean_lat, stats.mean_lon])) / np.array(
            [stats.std_lat, stats.std_lon]
        )
        if cfg.variant not in _RNN_VARIANTS:
            k = np.arange(cfg.k)
            first = np.minimum(k, lengths[:, None] - 1)
            last = np.maximum(lengths[:, None] - cfg.k + k, 0)
            windows = starts[:, None] + np.concatenate([first, last], axis=1)
            feats.gps = points[windows].reshape(len(batch), 4 * cfg.k).astype(dtype)
        else:
            window = cfg.window if cfg.variant == "brnn_window" else 1
            ends = np.arange(len(points))[:, None] - (window - 1) + np.arange(window)
            steps = points[np.maximum(ends, np.repeat(starts, lengths)[:, None])]
            steps = steps.reshape(len(points), 2 * window).astype(dtype)  # one per point
            feats.order = order = np.argsort(-lengths, kind="stable")
            starts, lengths = starts[order], lengths[order]
            running = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)  # n_t, non-increasing
            feats.fwd = [steps[starts[:n] + t] for t, n in enumerate(running)]
            if cfg.variant in ("brnn", "brnn_window"):
                feats.bwd = [steps[starts[:n] + lengths[:n] - 1 - t] for t, n in enumerate(running)]
    if cfg.uses_embeddings:
        vocab = model.vocab
        ids = np.array(
            [
                (vocab.client_index(r.origin_call), vocab.taxi_index(r.taxi_id),
                 vocab.stand_index(r.origin_stand), r.timestamp)
                for r in (ex.record for ex in batch)
            ],
            dtype=np.int64,
        )
        # EMBEDDING_FIELDS order: client, taxi, stand, then the calendar fields
        feats.index = dict(zip(EMBEDDING_FIELDS, [*ids[:, :3].T, *time_features(ids[:, 3])]))
    return feats


def destinations(batch: Sequence[PrefixExample]) -> np.ndarray:
    """Final (lat, lon) points [B, 2], float64, of each example's trajectory."""
    return np.array([ex.record.polyline[-1] for ex in batch], dtype=np.float64).reshape(-1, 2)


def _embedding_pieces(model: DestinationModel, tape: Tape, feats: Features) -> list[Tensor]:
    return [
        nncore.embedding_lookup(tape, model.params[f"emb_{f}"].tensor, feats.index[f])
        for f in EMBEDDING_FIELDS
    ]


def _mlp_input(model: DestinationModel, tape: Tape, feats: Features) -> Tensor:
    pieces: list[Tensor] = []
    if feats.gps is not None:
        pieces.append(Tensor(feats.gps))
    if model.config.uses_embeddings:
        pieces.extend(_embedding_pieces(model, tape, feats))
    return nncore.concat(tape, pieces)


def _centroid_head(model: DestinationModel, tape: Tape, h: Tensor, centers: np.ndarray) -> Tensor:
    e = nncore.dense(tape, h, model.params["out_w"].tensor, model.params["out_b"].tensor)
    p = nncore.softmax(tape, e)
    return nncore.weighted_centroid(tape, p, centers)


def _hidden_layer(model: DestinationModel, tape: Tape, x: Tensor) -> Tensor:
    return nncore.relu(
        tape, nncore.dense(tape, x, model.params["hidden_w"].tensor, model.params["hidden_b"].tensor)
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _mlp_head(model: DestinationModel, tape: Tape, feats: Features) -> Tensor:
    cfg = model.config
    h = _hidden_layer(model, tape, _mlp_input(model, tape, feats))
    if cfg.variant == "mlp_direct":
        y_std = nncore.dense(tape, h, model.params["out_w"].tensor, model.params["out_b"].tensor)
        stats = model.stats
        return nncore.affine_const(
            tape,
            y_std,
            np.array([stats.std_lat, stats.std_lon]),
            np.array([stats.mean_lat, stats.mean_lon]),
        )
    return _centroid_head(model, tape, h, model.clusters.centers)


def _run_lstm(model, tape, name, inputs_per_step: list[np.ndarray], order: np.ndarray) -> Tensor:
    """Final hidden state [len(order), H] of one packed direction, in batch order.

    ``inputs_per_step[t]`` holds the inputs of the rows still running at
    step t, the first ones of the length-sorted batch; sorted row j is batch
    row ``order[j]``.  The state shrinks with the running rows, so a row's
    final state is the one it had when it stopped, and one ``concat_rows``
    gathers those states.
    """
    cfg = model.config
    wx = model.params[f"{name}_wx"].tensor
    wh = model.params[f"{name}_wh"].tensor
    b = model.params[f"{name}_b"].tensor
    dtype = cfg.np_dtype()
    h = Tensor(np.zeros((len(order), cfg.rnn_hidden), dtype=dtype))
    c = Tensor(np.zeros((len(order), cfg.rnn_hidden), dtype=dtype))
    finals: list[tuple[Tensor, int]] = []  # (state, rows before its finished rows)
    for x_t in inputs_per_step:
        if len(x_t) < h.data.shape[0]:
            finals.append((h, len(x_t)))
        h, c = nncore.lstm_cell(tape, Tensor(x_t), h, c, wx, wh, b)
    finals.append((h, 0))
    return nncore.concat_rows(
        tape,
        [state for state, _ in finals],
        [order[n : state.data.shape[0]] for state, n in finals],
        [slice(n, state.data.shape[0]) for state, n in finals],
    )


def _recurrent_states(model: DestinationModel, tape: Tape, feats: Features) -> Tensor:
    """Final LSTM state(s) for every example, in batch order.

    Packed sequences: each direction runs max(length) steps over the
    length-sorted rows, step t over the rows still running, and takes each
    row's final state from the step after which it stops.
    """
    state = _run_lstm(model, tape, "lstm_fwd", feats.fwd, feats.order)
    if feats.bwd:
        h_bwd = _run_lstm(model, tape, "lstm_bwd", feats.bwd, feats.order)
        state = nncore.concat(tape, [state, h_bwd])
    return state


def _recurrent_head(model, tape, feats: Features) -> Tensor:
    state = _recurrent_states(model, tape, feats)
    x = nncore.concat(tape, [state] + _embedding_pieces(model, tape, feats))
    h = _hidden_layer(model, tape, x)
    return _centroid_head(model, tape, h, model.clusters.centers)


def candidates_from_records(records: Sequence[TrainRecord]) -> list[PrefixExample]:
    """Full trajectories as examples (cut = length), in order; each record
    must have at least one point."""
    return [PrefixExample(r, len(r.polyline)) for r in records]


def _encoder(model: DestinationModel, tape: Tape, x: Tensor, name: str) -> Tensor:
    w, b = model.params[f"enc_{name}_w"].tensor, model.params[f"enc_{name}_b"].tensor
    return nncore.relu(tape, nncore.dense(tape, x, w, b))


def _candidate_memory(model: DestinationModel, tape: Tape, candidates) -> tuple[Tensor, np.ndarray]:
    """Encoded candidates [M, hidden] and their destinations [M, 2]."""
    if candidates is None or len(candidates) == 0:
        raise ValueError("memory_net needs at least one candidate")
    x = _mlp_input(model, tape, featurize(model, candidates))
    return _encoder(model, tape, x, "cand"), destinations(candidates)


def _memory_head(model: DestinationModel, tape: Tape, q_in: Tensor, memory) -> Tensor:
    """Softmax over dot-product similarities weighs candidate destinations;
    ``memory`` is what :func:`_candidate_memory` returns."""
    encoded, dests = memory
    sims = nncore.dot_similarity(tape, _encoder(model, tape, q_in, "query"), encoded)
    return nncore.weighted_centroid(tape, nncore.softmax(tape, sims), dests)


def forward(model: DestinationModel, batch, tape: Tape = None, candidates=None) -> Tensor:
    """Predicted (lat, lon) degrees [batch, 2] of any variant.

    ``memory_net`` needs at least one candidate; callers sample candidates
    from the training set, excluding the query's own source trajectory.
    """
    return _head(model, tape, featurize(model, batch), lambda: _candidate_memory(model, tape, candidates))


def _head(model: DestinationModel, tape: Tape, feats: Features, memory) -> Tensor:
    """The variant's prediction from featurized inputs.  ``memory()`` gives
    memory_net's encoded candidates; it runs after the query's input is on
    the tape, the order in which backward sums the embedding gradients."""
    variant = model.config.variant
    if variant in _MLP_VARIANTS:
        return _mlp_head(model, tape, feats)
    if variant in _RNN_VARIANTS:
        return _recurrent_head(model, tape, feats)
    return _memory_head(model, tape, _mlp_input(model, tape, feats), memory())


#: Prefixes per forward pass in :func:`predict`; bounds the rows x C and
#: rows x candidates matrices of one pass.
PREDICT_CHUNK = 512


def predict(model: DestinationModel, batch, candidates=None) -> np.ndarray:
    """Predicted (lat, lon) degrees as float64, no gradient recording.

    Runs ``PREDICT_CHUNK`` prefixes at a time; ``memory_net`` candidates
    are encoded once per call.
    """
    out = np.empty((len(batch), 2), dtype=np.float64)
    memory = functools.cache(lambda: _candidate_memory(model, None, candidates))
    for start in range(0, len(batch), PREDICT_CHUNK):
        chunk = batch[start : start + PREDICT_CHUNK]
        out[start : start + len(chunk)] = _head(model, None, featurize(model, chunk), memory).data
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: DestinationModel, path) -> None:
    extras = {
        "model_config": asdict(model.config),
        "stats": asdict(model.stats),
        "vocab": model.vocab.to_json(),
        "clusters": None if model.clusters is None else model.clusters.centers.tolist(),
    }
    save_checkpoint(path, model.parameters(), extras)


def load_model(path) -> DestinationModel:
    extras, values = load_checkpoint(path)
    config = ModelConfig(**extras["model_config"])
    stats = StandardizationStats(**extras["stats"])
    vocab = MetadataVocab.from_json(extras["vocab"])
    clusters = None
    if extras["clusters"] is not None:
        clusters = ClusterSet(np.array(extras["clusters"], dtype=np.float64))
    params = {name: Parameter(name, arr) for name, arr in values.items()}
    return DestinationModel(
        config=config, params=params, clusters=clusters, stats=stats, vocab=vocab
    )
