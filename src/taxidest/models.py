"""The eight destination-prediction architectures, as one table.

Every variant has the same three parts, and ``_LAYOUTS`` says which of
each it takes:

- the trajectory input: the first and last k standardized points
  (``"points"``), the final state of a forward LSTM or of an LSTM in each
  direction over single points or sliding point windows (``"lstm"``), or
  none;
- the six metadata embeddings, concatenated after it, or none;
- the output: a ReLU hidden layer, then a softmax over fixed 2-D
  centres and its probability-weighted centroid (``"centroid"``, so the
  prediction always falls in the convex hull of the centres), or two
  unstandardized coordinates (``"direct"``); or the memory network
  (``"memory"``), which encodes the query and candidate trajectories with
  two ReLU layers and softmax-weights the candidates' destinations by
  dot-product similarity.

``_parameter_shapes`` turns a config into its parameters' names and
shapes: ``build_model`` initializes them in that order, and
``load_model`` checks a checkpoint against them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _container, nncore
from .clustering import ClusterSet
from .data import EMBEDDING_FIELDS, DataError, MetadataVocab, PrefixExample, TrainRecord
from .data import make_prefix_example  # noqa: F401  (perfbench/spans.py patches this name here)
from .geo import StandardizationStats
from .nncore import Parameter, Tape, Tensor

__all__ = [
    "EMBEDDING_FIELDS",
    "PREDICT_CHUNK",
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


class _Layout(NamedTuple):
    """What a variant is made of; see the module docstring."""

    trajectory: Optional[str]  # "points", "lstm" or None
    embeddings: bool
    directions: int  # LSTMs, forward first
    windowed: bool  # an LSTM step reads ``window`` points, else one
    output: str  # "centroid", "direct" or "memory"


_LAYOUTS = {
    "mlp_clusters": _Layout("points", True, 0, False, "centroid"),
    "mlp_direct": _Layout("points", True, 0, False, "direct"),
    "mlp_no_embed": _Layout("points", False, 0, False, "centroid"),
    "mlp_embed_only": _Layout(None, True, 0, False, "centroid"),
    "rnn": _Layout("lstm", True, 1, False, "centroid"),
    "brnn": _Layout("lstm", True, 2, False, "centroid"),
    "brnn_window": _Layout("lstm", True, 2, True, "centroid"),
    "memory_net": _Layout("points", True, 0, False, "memory"),
}

VARIANTS = tuple(_LAYOUTS)


@dataclass
class ModelConfig:
    variant: str = "mlp_clusters"
    k: int = 5
    hidden: int = 500
    embedding_dim: int = 10  # width of every embedding table
    rnn_hidden: int = 500
    window: int = 5
    memory_m: int = 10_000
    dtype: str = "float32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in ("k", "hidden", "embedding_dim", "rnn_hidden", "window", "memory_m"):
            value = getattr(self, name)
            if type(value) is not int:  # type(), so that a bool is no int
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def uses_cluster_centroid(self) -> bool:
        return _LAYOUTS[self.variant].output == "centroid"

    @property
    def uses_memory(self) -> bool:
        return _LAYOUTS[self.variant].output == "memory"

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
        return sum(p.data.size for p in self.parameters())


def _parameter_shapes(
    config: ModelConfig, vocab: MetadataVocab, clusters: Optional[ClusterSet]
) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in creation order: the embedding
    tables, the LSTM directions, then the hidden and output layers or
    memory_net's query and candidate encoders."""
    layout = _LAYOUTS[config.variant]
    if layout.output == "centroid" and clusters is None:
        raise ValueError(f"variant {config.variant} requires a ClusterSet")
    shapes, width = [], 0
    if layout.embeddings:
        shapes += [(f"emb_{f}", (rows, config.embedding_dim)) for f, rows in vocab.sizes().items()]
        width += len(EMBEDDING_FIELDS) * config.embedding_dim
    if layout.trajectory == "points":
        width += 4 * config.k
    step, gates = 2 * (config.window if layout.windowed else 1), 4 * config.rnn_hidden
    for direction in ("fwd", "bwd")[: layout.directions]:
        shapes += [(f"lstm_{direction}_wx", (step, gates)),
                   (f"lstm_{direction}_wh", (config.rnn_hidden, gates)),
                   (f"lstm_{direction}_b", (gates,))]
        width += config.rnn_hidden
    if layout.output == "memory":  # two encoders of identical shape, separate weights
        layers = [("enc_query", width, config.hidden), ("enc_cand", width, config.hidden)]
    else:
        n_out = clusters.count if layout.output == "centroid" else 2
        layers = [("hidden", width, config.hidden), ("out", config.hidden, n_out)]
    for name, fan_in, fan_out in layers:
        shapes += [(f"{name}_w", (fan_in, fan_out)), (f"{name}_b", (fan_out,))]
    return shapes


def build_model(
    config: ModelConfig,
    clusters: Optional[ClusterSet],
    stats: StandardizationStats,
    vocab: MetadataVocab,
    seed: int = 0,
) -> DestinationModel:
    """Allocate and initialize all parameters; deterministic given the seed.

    Parameters are drawn in :func:`_parameter_shapes` order: embeddings
    uniform in +-0.1, weight matrices Glorot-uniform, biases zero (LSTM
    forget-gate slice 1.0).
    """
    rng = np.random.default_rng(seed)
    dtype = config.np_dtype()
    params: dict[str, Parameter] = {}
    for name, shape in _parameter_shapes(config, vocab, clusters):
        if name.startswith("emb_"):
            value = rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
        elif len(shape) == 2:
            fan_in, fan_out = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            value = rng.uniform(-limit, limit, size=shape).astype(dtype)
        else:
            value = np.zeros(shape, dtype=dtype)
            if name.startswith("lstm_"):
                value[shape[0] // 4 : shape[0] // 2] = 1.0  # forget gate bias
        params[name] = Parameter(name, value)
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
    layout = _LAYOUTS[cfg.variant]
    dtype = cfg.np_dtype()
    feats = Features()
    if layout.trajectory is not None:
        lengths = np.fromiter((ex.cut for ex in batch), np.int64, len(batch))
        starts = np.cumsum(lengths) - lengths
        stats = model.stats
        points = np.concatenate([ex.record.polyline[: ex.cut] for ex in batch])
        points = (points - np.array([stats.mean_lat, stats.mean_lon])) / np.array(
            [stats.std_lat, stats.std_lon]
        )
        if layout.trajectory == "points":
            k = np.arange(cfg.k)
            first = np.minimum(k, lengths[:, None] - 1)
            last = np.maximum(lengths[:, None] - cfg.k + k, 0)
            windows = starts[:, None] + np.concatenate([first, last], axis=1)
            feats.gps = points[windows].reshape(len(batch), 4 * cfg.k).astype(dtype)
        else:
            window = cfg.window if layout.windowed else 1
            ends = np.arange(len(points))[:, None] - (window - 1) + np.arange(window)
            steps = points[np.maximum(ends, np.repeat(starts, lengths)[:, None])]
            steps = steps.reshape(len(points), 2 * window).astype(dtype)  # one per point
            feats.order = order = np.argsort(-lengths, kind="stable")
            starts, lengths = starts[order], lengths[order]
            running = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)  # n_t, non-increasing
            feats.fwd = [steps[starts[:n] + t] for t, n in enumerate(running)]
            if layout.directions == 2:
                feats.bwd = [steps[starts[:n] + lengths[:n] - 1 - t] for t, n in enumerate(running)]
    if layout.embeddings:
        feats.index = model.vocab.indices([ex.record for ex in batch])
    return feats


def destinations(batch: Sequence[PrefixExample]) -> np.ndarray:
    """Final (lat, lon) points [B, 2], float64, of each example's trajectory."""
    return np.array([ex.record.polyline[-1] for ex in batch], dtype=np.float64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _run_lstm(model, tape, name, inputs_per_step: list[np.ndarray], order: np.ndarray) -> Tensor:
    """Final hidden state [len(order), H] of one packed direction, in batch order.

    ``inputs_per_step[t]`` holds the inputs of the rows still running at
    step t, the first ones of the length-sorted batch; sorted row j is batch
    row ``order[j]``.  The ``[h | c]`` state shrinks with the running rows,
    so a row's final state is the one it had when it stopped, and one
    ``concat_rows`` gathers the ``h`` columns of those states.
    """
    cfg = model.config
    wx = model.params[f"{name}_wx"]
    wh = model.params[f"{name}_wh"]
    b = model.params[f"{name}_b"]
    state = Tensor(np.zeros((len(order), 2 * cfg.rnn_hidden), dtype=cfg.np_dtype()))
    finals: list[tuple[Tensor, int]] = []  # (state, rows before its finished rows)
    for x_t in inputs_per_step:
        if len(x_t) < state.data.shape[0]:
            finals.append((state, len(x_t)))
        state = nncore.lstm_cell(tape, x_t, state, wx, wh, b)
    finals.append((state, 0))
    return nncore.concat_rows(
        tape,
        [s for s, _ in finals],
        [order[n : s.data.shape[0]] for s, n in finals],
        [(slice(n, s.data.shape[0]), slice(cfg.rnn_hidden)) for s, n in finals],
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


def _input(model: DestinationModel, tape: Tape, feats: Features) -> Tensor:
    """Each example's input row: its GPS block or its final LSTM state(s),
    then its embeddings."""
    pieces: list[Tensor] = []
    if feats.gps is not None:
        pieces.append(Tensor(feats.gps))
    if feats.fwd:
        pieces.append(_recurrent_states(model, tape, feats))
    for f, rows in feats.index.items():
        pieces.append(nncore.embedding_lookup(tape, model.params[f"emb_{f}"], rows))
    return nncore.concat(tape, pieces)


def _relu_dense(model: DestinationModel, tape: Tape, x: Tensor, name: str) -> Tensor:
    w, b = model.params[f"{name}_w"], model.params[f"{name}_b"]
    return nncore.relu(tape, nncore.dense(tape, x, w, b))


def candidates_from_records(records: Sequence[TrainRecord]) -> list[PrefixExample]:
    """Full trajectories as examples (cut = length), in order; each record
    must have at least one point."""
    return [PrefixExample(r, len(r.polyline)) for r in records]


def _candidate_memory(model: DestinationModel, tape: Tape, candidates) -> tuple[Tensor, np.ndarray]:
    """Encoded candidates [M, hidden] and their destinations [M, 2]."""
    if candidates is None or len(candidates) == 0:
        raise ValueError("memory_net needs at least one candidate")
    x = _input(model, tape, featurize(model, candidates))
    return _relu_dense(model, tape, x, "enc_cand"), destinations(candidates)


def forward(model: DestinationModel, batch, tape: Tape = None, candidates=None) -> Tensor:
    """Predicted (lat, lon) degrees [batch, 2] of any variant.

    ``memory_net`` needs at least one candidate; callers sample candidates
    from the training set, excluding the query's own source trajectory.
    The candidates are encoded after the query's input is on the tape, the
    order in which backward sums the embedding gradients.
    """
    x = _input(model, tape, featurize(model, batch))
    memory = _candidate_memory(model, tape, candidates) if model.config.uses_memory else None
    return _head(model, tape, x, memory)


def _head(model: DestinationModel, tape: Tape, x: Tensor, memory) -> Tensor:
    """The variant's prediction from its input rows ``x``.

    The centroid output and memory_net both end in one softmax-weighted
    centroid node (``nncore.weighted_centroid``) over their logits: of the
    cluster centres, by the output layer over the hidden layer, or of the
    candidates' destinations, by the dot products of the encoded query and
    candidates.  ``memory`` is memory_net's encoded
    candidates and their destinations (:func:`_candidate_memory`), or None.
    """
    output = _LAYOUTS[model.config.variant].output
    if output == "memory":
        encoded, values = memory
        logits = nncore.dot_similarity(tape, _relu_dense(model, tape, x, "enc_query"), encoded)
    else:
        h = _relu_dense(model, tape, x, "hidden")
        logits = nncore.dense(tape, h, model.params["out_w"], model.params["out_b"])
        if output == "direct":  # the two outputs are standardized coordinates
            stats = model.stats
            return nncore.affine_const(
                tape,
                logits,
                np.array([stats.std_lat, stats.std_lon]),
                np.array([stats.mean_lat, stats.mean_lon]),
            )
        values = model.clusters.centers
    return nncore.weighted_centroid(tape, logits, values)


#: Prefixes per forward pass in :func:`predict`; bounds the rows x C and
#: rows x candidates matrices of one pass.
PREDICT_CHUNK = 512


def predict(model: DestinationModel, batch, candidates=None) -> np.ndarray:
    """Predicted (lat, lon) degrees as float64, no gradient recording.

    Runs ``PREDICT_CHUNK`` prefixes at a time; ``memory_net`` candidates
    are encoded once per call, before the first chunk.
    """
    out = np.empty((len(batch), 2), dtype=np.float64)
    memory = _candidate_memory(model, None, candidates) if model.config.uses_memory else None
    for start in range(0, len(batch), PREDICT_CHUNK):
        chunk = batch[start : start + PREDICT_CHUNK]
        x = _input(model, None, featurize(model, chunk))
        out[start : start + len(chunk)] = _head(model, None, x, memory).data
    return out


# ---------------------------------------------------------------------------
# Checkpoints: the package's binary container (``taxidest._container``)
# with magic ``TXDMODEL``, version 1.  The header key ``extras`` holds what
# makes the model self-contained: ``model_config``, the standardization
# ``stats``, the ``vocab`` maps and the ``clusters`` centres (or null); the
# arrays are the parameters in ``_parameter_shapes`` order.
# ---------------------------------------------------------------------------

_CHECKPOINT = _container.Format(b"TXDMODEL", 1, "checkpoint", "parameter")


def save_model(model: DestinationModel, path) -> None:
    """Write ``model``'s checkpoint; the file is replaced whole or not at all."""
    extras = {
        "model_config": asdict(model.config),
        "stats": asdict(model.stats),
        "vocab": model.vocab.to_json(),
        "clusters": None if model.clusters is None else model.clusters.centers.tolist(),
    }
    _container.write(path, _CHECKPOINT, {"extras": extras}, {p.name: p.data for p in model.parameters()})


def load_model(path) -> DestinationModel:
    """The model saved at ``path``.  Metadata that cannot be read, or
    parameters whose names, order, shapes or dtype do not fit the config,
    raise :class:`DataError` naming the path, as does a file that is not a
    whole version-1 checkpoint as :func:`save_model` writes it."""
    header, values = _container.read(path, _CHECKPOINT)
    extras = header.get("extras")
    if not isinstance(extras, dict):
        raise DataError(f"{path}: the checkpoint header has no extras object")
    try:
        config = ModelConfig(**extras["model_config"])
        missing = [name for name in asdict(config) if name not in extras["model_config"]]
        if missing:  # a field the file lacks must not take its default
            raise KeyError(missing[0])
        stats = StandardizationStats(**extras["stats"])
        vocab = MetadataVocab.from_json(extras["vocab"])
        clusters = None
        if extras["clusters"] is not None:
            clusters = ClusterSet(np.array(extras["clusters"], dtype=np.float64))
        expected = _parameter_shapes(config, vocab, clusters)
    except KeyError as e:
        raise DataError(f"{path}: checkpoint metadata has no {e} entry") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise DataError(f"{path}: checkpoint metadata is not readable: {e}") from e
    dtype = config.np_dtype()
    _container.check(path, _CHECKPOINT, values, [(name, shape, dtype) for name, shape in expected],
                     f"variant {config.variant}'s")
    params = {name: Parameter(name, arr) for name, arr in values.items()}
    return DestinationModel(
        config=config, params=params, clusters=clusters, stats=stats, vocab=vocab
    )
