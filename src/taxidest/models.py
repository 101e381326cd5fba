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

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nncore
from .clustering import ClusterSet
from .data import MetadataVocab, PrefixExample, TrainRecord, make_prefix_example
from .geo import StandardizationStats
from .nncore import Parameter, Tape, Tensor
from .nncore.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "EMBEDDING_FIELDS",
    "PREDICT_CHUNK",
    "TIME_VOCAB_SIZES",
    "VARIANTS",
    "DestinationModel",
    "ModelConfig",
    "build_model",
    "candidates_from_records",
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
        missing = [f for f in EMBEDDING_FIELDS if f not in self.embedding_dims]
        if missing:
            raise ValueError(f"embedding_dims missing entries for {missing}")

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


def _gps_block(batch: Sequence[PrefixExample], k: int, dtype) -> np.ndarray:
    out = np.empty((len(batch), 4 * k), dtype=dtype)
    for i, ex in enumerate(batch):
        out[i, : 2 * k] = ex.first_k.reshape(-1)
        out[i, 2 * k :] = ex.last_k.reshape(-1)
    return out


def _meta_indices(batch: Sequence[PrefixExample]) -> dict[str, np.ndarray]:
    n = len(batch)
    idx = {f: np.empty(n, dtype=np.int64) for f in EMBEDDING_FIELDS}
    for i, ex in enumerate(batch):
        idx["client"][i] = ex.client_idx
        idx["taxi"][i] = ex.taxi_idx
        idx["stand"][i] = ex.stand_idx
        idx["quarter_hour"][i] = ex.time.quarter_hour
        idx["day_of_week"][i] = ex.time.day_of_week
        idx["week_of_year"][i] = ex.time.week_of_year
    return idx


def _embedding_pieces(model: DestinationModel, tape: Tape, batch) -> list[Tensor]:
    idx = _meta_indices(batch)
    return [
        nncore.embedding_lookup(tape, model.params[f"emb_{f}"].tensor, idx[f])
        for f in EMBEDDING_FIELDS
    ]


def _mlp_input(model: DestinationModel, tape: Tape, batch) -> Tensor:
    cfg = model.config
    pieces: list[Tensor] = []
    if cfg.uses_gps_window:
        pieces.append(Tensor(_gps_block(batch, cfg.k, cfg.np_dtype())))
    if cfg.uses_embeddings:
        pieces.extend(_embedding_pieces(model, tape, batch))
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


def _mlp_head(model: DestinationModel, tape: Tape, batch: Sequence[PrefixExample]) -> Tensor:
    cfg = model.config
    h = _hidden_layer(model, tape, _mlp_input(model, tape, batch))
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


def _standardized_prefix(model: DestinationModel, ex: PrefixExample) -> np.ndarray:
    stats = model.stats
    mean = np.array([stats.mean_lat, stats.mean_lon])
    std = np.array([stats.std_lat, stats.std_lon])
    return ((ex.full_prefix - mean) / std).astype(model.config.np_dtype())


def _window_steps(seq: np.ndarray, window: int) -> np.ndarray:
    """Per-step inputs [T, window*2]: step t sees points t-window+1..t,
    head-padded by repeating the first point (window 1 = the point itself)."""
    t_count = seq.shape[0]
    steps = np.arange(t_count)[:, None] + np.arange(-(window - 1), 1)[None, :]
    return seq[np.maximum(steps, 0)].reshape(t_count, 2 * window)


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


def _recurrent_states(model: DestinationModel, tape: Tape, batch) -> Tensor:
    """Final LSTM state(s) for every example, in batch order.

    Packed sequences: rows are sorted by prefix length, longest first, so
    the rows still running at step t are the first n_t.  Each direction
    runs max(length) steps, step t over those n_t rows only, and takes each
    row's final state from the step after which it stops.  The backward
    direction reads each row's own prefix reversed (point L-1-t at step t).
    """
    cfg = model.config
    window = cfg.window if cfg.variant == "brnn_window" else 1
    lengths = np.array([len(ex.full_prefix) for ex in batch], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    points = np.concatenate(
        [_window_steps(_standardized_prefix(model, batch[i]), window) for i in order]
    )  # [sum of lengths, window*2], rows in sorted order
    running = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)  # n_t, non-increasing

    fwd_steps = [points[starts[:n] + t] for t, n in enumerate(running)]
    state = _run_lstm(model, tape, "lstm_fwd", fwd_steps, order)
    if cfg.variant in ("brnn", "brnn_window"):
        bwd_steps = [points[starts[:n] + lengths[:n] - 1 - t] for t, n in enumerate(running)]
        h_bwd = _run_lstm(model, tape, "lstm_bwd", bwd_steps, order)
        state = nncore.concat(tape, [state, h_bwd])
    return state


def _recurrent_head(model, tape, batch) -> Tensor:
    state = _recurrent_states(model, tape, batch)
    x = nncore.concat(tape, [state] + _embedding_pieces(model, tape, batch))
    h = _hidden_layer(model, tape, x)
    return _centroid_head(model, tape, h, model.clusters.centers)


def candidates_from_records(
    records: Sequence[TrainRecord],
    config: ModelConfig,
    stats: StandardizationStats,
    vocab: MetadataVocab,
) -> list[PrefixExample]:
    """Render full trajectories through the prefix featurizer (cut = length)."""
    return [
        make_prefix_example(r, len(r.polyline), config.k, stats, vocab) for r in records
    ]


def _encoder(model: DestinationModel, tape: Tape, x: Tensor, name: str) -> Tensor:
    w, b = model.params[f"enc_{name}_w"].tensor, model.params[f"enc_{name}_b"].tensor
    return nncore.relu(tape, nncore.dense(tape, x, w, b))


def _candidate_memory(model: DestinationModel, tape: Tape, candidates) -> tuple[Tensor, np.ndarray]:
    """Encoded candidates [M, hidden] and their destinations [M, 2]."""
    if candidates is None or len(candidates) == 0:
        raise ValueError("memory_net needs at least one candidate")
    dests = np.array([[ex.target.lat, ex.target.lon] for ex in candidates])
    return _encoder(model, tape, _mlp_input(model, tape, candidates), "cand"), dests


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
    variant = model.config.variant
    if variant in _MLP_VARIANTS:
        return _mlp_head(model, tape, batch)
    if variant in _RNN_VARIANTS:
        return _recurrent_head(model, tape, batch)
    q_in = _mlp_input(model, tape, batch)
    return _memory_head(model, tape, q_in, _candidate_memory(model, tape, candidates))


#: Prefixes per forward pass in :func:`predict`; bounds the rows x C and
#: rows x candidates matrices of one pass.
PREDICT_CHUNK = 512


def predict(model: DestinationModel, batch, candidates=None) -> np.ndarray:
    """Predicted (lat, lon) degrees as float64, no gradient recording.

    Runs ``PREDICT_CHUNK`` prefixes at a time; ``memory_net`` candidates
    are encoded once per call.
    """
    out = np.empty((len(batch), 2), dtype=np.float64)
    if len(batch) == 0:
        return out
    memory = None
    if model.config.variant == "memory_net":
        memory = _candidate_memory(model, None, candidates)
    for start in range(0, len(batch), PREDICT_CHUNK):
        chunk = batch[start : start + PREDICT_CHUNK]
        if memory is None:
            pred = forward(model, chunk)
        else:
            pred = _memory_head(model, None, _mlp_input(model, None, chunk), memory)
        out[start : start + len(chunk)] = pred.data
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: DestinationModel, path) -> None:
    stats = model.stats
    extras = {
        "model_config": {
            "variant": model.config.variant,
            "k": model.config.k,
            "hidden": model.config.hidden,
            "embedding_dims": model.config.embedding_dims,
            "rnn_hidden": model.config.rnn_hidden,
            "window": model.config.window,
            "memory_m": model.config.memory_m,
            "memory_batch": model.config.memory_batch,
            "dtype": model.config.dtype,
        },
        "stats": {
            "mean_lat": stats.mean_lat,
            "mean_lon": stats.mean_lon,
            "std_lat": stats.std_lat,
            "std_lon": stats.std_lon,
        },
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
