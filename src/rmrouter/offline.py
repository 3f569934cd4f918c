"""Offline router: collect per-model correctness, train ranking + classifier heads.

Each candidate reward model is profiled on a labelled preference dataset,
producing one correctness bit per (pair, model).  Pairs on which one model is
right and another wrong become ordered (winner, loser) samples for a pairwise
logistic ranking head; all bits feed an auxiliary per-model binary classifier.
Both heads are linear in the pair embedding: score = <h, E[n]> with one
embedding row per model.  Routing takes the argmax of the ranking head, whose
embedding matrix doubles as the prior for the online router.

Training minimizes ranking_loss + lam * classifier_loss with mini-batch
gradient descent and decoupled weight decay.  When precomputed pair
embeddings are supplied they are used directly as contexts; otherwise
contexts come from the hashing encoder through a trainable fusion layer.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DimError, FormatError, InputError, TrainError
from .features import (
    DEFAULT_EMBED_DIM,
    DEFAULT_ENCODER_DIM,
    FusionParams,
    HashingEncoder,
    PairEmbedding,
    PreferencePair,
    prefusion_vector,
)
from .serialize import dumps_line, int_field, iter_jsonl, read_json, write_json

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
INIT_SCALE = 0.02  # standard deviation of the initial head and fusion weights


@dataclass
class BehaviorRecord:
    """Whether model ``rm_index`` labelled pair ``pair_id`` correctly."""

    pair_id: str
    rm_index: int
    correct: int

    def __post_init__(self) -> None:
        self.rm_index = int_field(self.rm_index, "rm_index", InputError)
        self.correct = int_field(self.correct, "correct", InputError)
        if self.rm_index < 0:
            raise InputError(f"rm_index must be >= 0, got {self.rm_index}")
        if self.correct not in (0, 1):
            raise InputError(f"correct must be 0 or 1, got {self.correct}")


@dataclass
class DisagreementSample:
    """Ordered (winner, loser) model pair on a single preference pair."""

    pair_id: str
    winner_rm: int
    loser_rm: int

    def __post_init__(self) -> None:
        if self.winner_rm == self.loser_rm:
            raise InputError("winner and loser must differ")


class RmPool(Protocol):
    """Anything that can answer which response a given model prefers."""

    n_arms: int

    def preference(self, rm_index: int, pair: PreferencePair) -> str: ...


def collect_behavior(dataset: Sequence[PreferencePair], oracle: RmPool) -> list[BehaviorRecord]:
    """One record per (pair, model): correct iff the model matches the label."""
    records: list[BehaviorRecord] = []
    for pair in dataset:
        if pair.label is None:
            raise InputError(f"pair {pair.pair_id!r} has no ground-truth label")
        for n in range(oracle.n_arms):
            answer = oracle.preference(n, pair)
            records.append(BehaviorRecord(pair.pair_id, n, int(answer == pair.label)))
    return records


def extract_disagreements(records: Sequence[BehaviorRecord]) -> list[DisagreementSample]:
    """All ordered (correct, incorrect) model pairs, per preference pair."""
    by_pair: dict[str, list[BehaviorRecord]] = {}
    for rec in records:
        by_pair.setdefault(rec.pair_id, []).append(rec)
    samples: list[DisagreementSample] = []
    for pair_id, recs in by_pair.items():
        recs = sorted(recs, key=lambda r: r.rm_index)
        winners = [r.rm_index for r in recs if r.correct == 1]
        losers = [r.rm_index for r in recs if r.correct == 0]
        samples.extend(
            DisagreementSample(pair_id, w, l) for w in winners for l in losers
        )
    return samples


@dataclass
class OfflineRouterModel:
    """Trained router: optional fusion layer plus the two head matrices."""

    fusion: FusionParams | None
    bt_embeddings: np.ndarray
    cls_embeddings: np.ndarray
    lam: float
    n_arms: int
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bt_embeddings = np.asarray(self.bt_embeddings, dtype=np.float64)
        self.cls_embeddings = np.asarray(self.cls_embeddings, dtype=np.float64)
        if self.bt_embeddings.shape != self.cls_embeddings.shape:
            raise DimError("head embedding matrices must have identical shapes")
        if self.bt_embeddings.ndim != 2 or self.bt_embeddings.shape[0] != self.n_arms:
            raise DimError(
                f"head matrices must be ({self.n_arms}, d), got {self.bt_embeddings.shape}"
            )
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.fusion is not None and self.fusion.out_dim != self.d:
            raise DimError("fusion output dimension does not match head matrices")

    @property
    def d(self) -> int:
        return self.bt_embeddings.shape[1]

    def embed(self, pair: PreferencePair, encoder=None) -> PairEmbedding:
        if self.fusion is None:
            raise ConfigError("model was trained on precomputed embeddings; supply vectors")
        from .features import embed_pair

        return embed_pair(pair, self.fusion, encoder=encoder)


def _context_vector(h) -> np.ndarray:
    return h.vector if isinstance(h, PairEmbedding) else np.asarray(h, dtype=np.float64)


def bt_scores(model: OfflineRouterModel, h) -> np.ndarray:
    """Per-model ranking scores <h, E_bt[n]>."""
    return model.bt_embeddings @ _context_vector(h)


def bt_loss(model: OfflineRouterModel, h, sample: DisagreementSample) -> float:
    """-log sigmoid of the winner-minus-loser score gap."""
    scores = bt_scores(model, h)
    gap = scores[sample.winner_rm] - scores[sample.loser_rm]
    return float(np.logaddexp(0.0, -gap))


def cls_loss(model: OfflineRouterModel, h, record: BehaviorRecord) -> float:
    """Binary cross-entropy of the per-model correctness logit."""
    z = float(model.cls_embeddings[record.rm_index] @ _context_vector(h))
    if record.correct:
        return float(np.logaddexp(0.0, -z))
    return float(np.logaddexp(0.0, z))


def route_offline(model: OfflineRouterModel, h) -> int:
    """Index of the highest-scoring model; ties resolve to the lowest index."""
    return int(np.argmax(bt_scores(model, h)))


def export_prior(model: OfflineRouterModel) -> np.ndarray:
    """The ranking-head embedding matrix, verbatim (one row per model)."""
    return model.bt_embeddings.copy()


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the reference recipe."""

    lam: float = 0.2
    lr: float = 2e-5
    epochs: int = 2
    batch_size: int = 8
    weight_decay: float = 0.01
    momentum: float = 0.0
    seed: int = 0
    embed_dim: int = DEFAULT_EMBED_DIM
    encoder_dim: int = DEFAULT_ENCODER_DIM

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each range check rejects it too
        if not (0 <= self.lam < np.inf and 0 <= self.weight_decay < np.inf):
            raise ConfigError("lam and weight_decay must be finite and >= 0")
        if not 0 < self.lr < np.inf or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("lr must be finite and positive, epochs and batch_size >= 1")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.embed_dim < 1 or self.encoder_dim < 2:
            raise ConfigError("embed_dim must be >= 1 and encoder_dim >= 2")


@dataclass
class TrainResult:
    model: OfflineRouterModel
    history: list[dict]


def loss_and_grads(
    model: OfflineRouterModel,
    contexts: np.ndarray,
    bt_index: np.ndarray,
    beh_index: np.ndarray,
    lam: float | None = None,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Mean losses and analytic gradients of the combined objective.

    ``contexts`` holds one row per pair: pre-fusion vectors when the model has
    a fusion layer, final embeddings otherwise.  ``bt_index`` rows are
    (pair_row, winner, loser); ``beh_index`` rows are (pair_row, rm, correct).
    Returned gradients are for total = bt + lam * cls.
    """
    lam = model.lam if lam is None else float(lam)
    contexts = np.asarray(contexts, dtype=np.float64)
    bt_index = np.asarray(bt_index, dtype=np.int64).reshape(-1, 3)
    beh_index = np.asarray(beh_index, dtype=np.int64).reshape(-1, 3)

    if model.fusion is not None:
        pre = contexts @ model.fusion.weight.T + model.fusion.bias
        h_all = np.tanh(pre) if model.fusion.activation == "tanh" else pre
    else:
        if contexts.shape[1] != model.d:
            raise DimError(
                f"context dimension {contexts.shape[1]} does not match model d={model.d}"
            )
        h_all = contexts

    # Both heads are read from per-pair score matrices (P x N) and take their
    # gradients through a score gradient G accumulated per (row, arm) cell:
    # grad_E = G^T H and grad_h = G E, with no scatter over index rows.
    n_rows, n_arms = h_all.shape[0], model.n_arms
    cells = n_rows * n_arms

    loss_bt = 0.0
    g_bt = np.zeros((n_rows, n_arms))
    if len(bt_index):
        rows, winners, losers = bt_index.T
        scores = h_all @ model.bt_embeddings.T
        margin = scores[rows, winners] - scores[rows, losers]
        loss_bt = float(np.mean(np.logaddexp(0.0, -margin)))
        g = (expit(margin) - 1.0) / len(bt_index)
        at = rows * n_arms
        g_bt = np.bincount(at + winners, g, cells) - np.bincount(at + losers, g, cells)
        g_bt = g_bt.reshape(n_rows, n_arms)

    loss_cls = 0.0
    g_cls = np.zeros((n_rows, n_arms))
    if len(beh_index):
        rows, rms, delta = beh_index.T
        z = (h_all @ model.cls_embeddings.T)[rows, rms]
        loss_cls = float(
            np.mean(delta * np.logaddexp(0.0, -z) + (1 - delta) * np.logaddexp(0.0, z))
        )
        if lam != 0.0:
            gz = lam * (expit(z) - delta) / len(beh_index)
            g_cls = np.bincount(rows * n_arms + rms, gz, cells).reshape(n_rows, n_arms)

    grads = {"bt_embeddings": g_bt.T @ h_all, "cls_embeddings": g_cls.T @ h_all}

    if model.fusion is not None:
        grad_h = g_bt @ model.bt_embeddings + g_cls @ model.cls_embeddings
        grad_pre = grad_h * (1.0 - h_all**2) if model.fusion.activation == "tanh" else grad_h
        grads["fusion_weight"] = grad_pre.T @ contexts
        grads["fusion_bias"] = grad_pre.sum(axis=0)

    losses = {"bt": loss_bt, "cls": loss_cls, "total": loss_bt + lam * loss_cls}
    return losses, grads


def _build_index_arrays(
    pairs: Sequence[PreferencePair],
    records: Sequence[BehaviorRecord],
    samples: Sequence[DisagreementSample],
    n_arms: int,
) -> tuple[np.ndarray, np.ndarray]:
    row_of = {pair.pair_id: i for i, pair in enumerate(pairs)}
    for rec in records:
        if rec.pair_id not in row_of:
            raise InputError(f"behavior record references unknown pair {rec.pair_id!r}")
        if rec.rm_index >= n_arms:
            raise InputError(f"rm_index {rec.rm_index} out of range for n_arms={n_arms}")
    beh = np.array(
        [[row_of[r.pair_id], r.rm_index, r.correct] for r in records], dtype=np.int64
    ).reshape(-1, 3)
    bt = np.array(
        [[row_of[s.pair_id], s.winner_rm, s.loser_rm] for s in samples], dtype=np.int64
    ).reshape(-1, 3)
    return bt, beh


def train_offline(
    pairs: Sequence[PreferencePair],
    records: Sequence[BehaviorRecord],
    config: TrainConfig | None = None,
    embeddings: Mapping[str, PairEmbedding] | None = None,
) -> TrainResult:
    """Train the two heads (and the fusion layer, unless embeddings are given).

    Checks the records, turns them into index arrays and the pairs into
    context rows, then trains through :func:`train_arrays`.
    """
    config = config or TrainConfig()
    if not pairs:
        raise InputError("training dataset is empty")
    n_arms = 1 + max(rec.rm_index for rec in records) if records else 0
    if n_arms < 2:
        raise InputError("need behavior records for at least two models")
    samples = extract_disagreements(records)
    bt_index, beh_index = _build_index_arrays(pairs, records, samples, n_arms)
    if embeddings is None:
        encoder = HashingEncoder(config.encoder_dim)
        contexts = np.stack([prefusion_vector(pair, encoder) for pair in pairs])
    else:
        missing = [p.pair_id for p in pairs if p.pair_id not in embeddings]
        if missing:
            raise InputError(f"no embedding for pair(s) {missing[:3]}...")
        contexts = np.stack([embeddings[p.pair_id].vector for p in pairs])
    return train_arrays(contexts, bt_index, beh_index, n_arms, config, fused=embeddings is None)


def train_arrays(
    contexts: np.ndarray,
    bt_index: np.ndarray,
    beh_index: np.ndarray,
    n_arms: int,
    config: TrainConfig,
    fused: bool = False,
) -> TrainResult:
    """Train on one context row per pair and the index arrays of :func:`loss_and_grads`.

    With ``fused`` the rows are pre-fusion vectors and a fusion layer is
    trained as well.  Deterministic for a fixed config seed.  Raises
    :class:`TrainError` when no pair has both a correct and an incorrect
    model, since the ranking head then has no signal.
    """
    if not len(bt_index):
        raise TrainError("disagreement set is empty: ranking head has no signal")
    rng = np.random.default_rng(config.seed)
    if fused:
        fusion = FusionParams.random_init(config.embed_dim, config.encoder_dim, rng, INIT_SCALE)
        d = config.embed_dim
    else:
        fusion, d = None, contexts.shape[1]

    model = OfflineRouterModel(
        fusion=fusion,
        bt_embeddings=INIT_SCALE * rng.standard_normal((n_arms, d)),
        cls_embeddings=INIT_SCALE * rng.standard_normal((n_arms, d)),
        lam=config.lam,
        n_arms=n_arms,
    )

    velocity: dict[str, np.ndarray] = {}
    history: list[dict] = []
    n_pairs, batch_size = len(contexts), config.batch_size
    for epoch in range(config.epochs):
        perm = rng.permutation(n_pairs)
        shuffled = contexts[perm]
        bt_batches, bt_cuts = _epoch_batches(perm, batch_size, bt_index)
        beh_batches, beh_cuts = _epoch_batches(perm, batch_size, beh_index)
        sums = {"bt": 0.0, "cls": 0.0}
        for k, start in enumerate(range(0, n_pairs, batch_size)):
            batch_bt = bt_batches[bt_cuts[k] : bt_cuts[k + 1]]
            batch_beh = beh_batches[beh_cuts[k] : beh_cuts[k + 1]]
            if not len(batch_bt) and not len(batch_beh):
                continue
            losses, grads = loss_and_grads(
                model, shuffled[start : start + batch_size], batch_bt, batch_beh
            )
            _apply_sgd_step(model, grads, velocity, config)
            sums["bt"] += losses["bt"] * len(batch_bt)
            sums["cls"] += losses["cls"] * len(batch_beh)
        # every index row falls in exactly one minibatch, and neither set is empty
        epoch_bt = sums["bt"] / len(bt_index)
        epoch_cls = sums["cls"] / len(beh_index)
        history.append(
            {
                "epoch": epoch,
                "bt_loss": epoch_bt,
                "cls_loss": epoch_cls,
                "total_loss": epoch_bt + config.lam * epoch_cls,
            }
        )
        logger.debug("epoch %d: %s", epoch, history[-1])

    model.train_meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "final_loss": history[-1]["total_loss"],
        "config": asdict(config),
    }
    return TrainResult(model=model, history=history)


def _epoch_batches(
    perm: np.ndarray, batch_size: int, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index rows grouped by the minibatch of their pair, and the cut points.

    Minibatch k covers the pairs ``perm[k * batch_size : (k + 1) * batch_size]``
    and holds ``batches[cuts[k] : cuts[k + 1]]``: its rows in ``perm`` order,
    then record order, with column 0 rewritten to the pair's offset inside
    the minibatch.
    """
    pos = np.empty_like(perm)
    pos[perm] = np.arange(len(perm))
    at = pos[index[:, 0]]
    order = np.argsort(at, kind="stable")
    at = at[order]
    batches = index[order]
    batches[:, 0] = at % batch_size
    return batches, np.searchsorted(at, np.arange(0, len(perm) + batch_size, batch_size))


def _apply_sgd_step(
    model: OfflineRouterModel,
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    config: TrainConfig,
) -> None:
    # decoupled weight decay: p <- p - lr * step - lr * wd * p; with lam == 0
    # the classifier head is frozen outright
    params: dict[str, np.ndarray] = {"bt_embeddings": model.bt_embeddings}
    if config.lam != 0.0:
        params["cls_embeddings"] = model.cls_embeddings
    if model.fusion is not None:
        params["fusion_weight"] = model.fusion.weight
        params["fusion_bias"] = model.fusion.bias
    for name, param in params.items():
        grad = grads[name]
        if config.momentum > 0.0:
            vel = velocity.setdefault(name, np.zeros_like(param))
            vel *= config.momentum
            vel += grad
            step = vel
        else:
            step = grad
        param -= config.lr * step + config.lr * config.weight_decay * param


def routing_accuracy(
    model: OfflineRouterModel,
    embeddings: Mapping[str, PairEmbedding],
    records: Sequence[BehaviorRecord],
) -> float:
    """Fraction of pairs whose routed model has a correct behavior bit."""
    bits: dict[str, dict[int, int]] = {}
    for rec in records:
        bits.setdefault(rec.pair_id, {})[rec.rm_index] = rec.correct
    hits, total = 0, 0
    for pair_id, per_rm in bits.items():
        if pair_id not in embeddings:
            continue
        chosen = route_offline(model, embeddings[pair_id])
        if chosen not in per_rm:
            raise InputError(f"missing behavior bit for pair {pair_id!r}, rm {chosen}")
        hits += per_rm[chosen]
        total += 1
    if total == 0:
        raise InputError("no pairs with both embeddings and behavior records")
    return hits / total


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model: OfflineRouterModel) -> dict:
    fusion = None
    if model.fusion is not None:
        fusion = {
            "weight": [[float(x) for x in row] for row in model.fusion.weight],
            "bias": [float(x) for x in model.fusion.bias],
            "activation": model.fusion.activation,
        }
    return {
        "version": MODEL_FORMAT_VERSION,
        "d": model.d,
        "n_arms": model.n_arms,
        "lambda": float(model.lam),
        "fusion": fusion,
        "bt_embeddings": [[float(x) for x in row] for row in model.bt_embeddings],
        "cls_embeddings": [[float(x) for x in row] for row in model.cls_embeddings],
        "train_meta": model.train_meta,
    }


def model_from_dict(doc: dict) -> OfflineRouterModel:
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported model format version {version!r}; supported: {MODEL_FORMAT_VERSION}"
        )
    try:
        fusion = None
        if doc.get("fusion") is not None:
            fdoc = doc["fusion"]
            fusion = FusionParams(
                weight=np.asarray(fdoc["weight"], dtype=np.float64),
                bias=np.asarray(fdoc["bias"], dtype=np.float64),
                activation=fdoc.get("activation", "tanh"),
            )
        return OfflineRouterModel(
            fusion=fusion,
            bt_embeddings=np.asarray(doc["bt_embeddings"], dtype=np.float64),
            cls_embeddings=np.asarray(doc["cls_embeddings"], dtype=np.float64),
            lam=float(doc["lambda"]),
            n_arms=int(doc["n_arms"]),
            train_meta=doc.get("train_meta", {}),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model document: {exc!r}") from exc


def save_model(path, model: OfflineRouterModel) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> OfflineRouterModel:
    return model_from_dict(read_json(path))


def save_behavior(path, records: Sequence[BehaviorRecord], meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if meta is not None:
            fh.write(dumps_line({"_meta": meta}) + "\n")
        for rec in records:
            fh.write(
                dumps_line(
                    {"pair_id": rec.pair_id, "rm_index": rec.rm_index, "correct": rec.correct}
                )
                + "\n"
            )


def load_behavior(path) -> list[BehaviorRecord]:
    records: list[BehaviorRecord] = []
    for lineno, obj in iter_jsonl(path):
        try:
            records.append(BehaviorRecord(obj["pair_id"], obj["rm_index"], obj["correct"]))
        except (KeyError, TypeError) as exc:
            raise FormatError(f"invalid behavior row: {exc}", line=lineno) from exc
        except InputError as exc:
            raise FormatError(str(exc), line=lineno) from exc
    return records
