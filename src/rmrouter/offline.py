"""Offline router: per-model correctness bits in, ranking and classifier heads out.

Each candidate reward model is profiled on a labelled preference dataset,
giving a (P, N) matrix of correctness bits, one per (pair, model), and a
mask of the cells that have a bit.  Every observed bit trains an auxiliary
per-model binary classifier, read straight from the matrix.
:func:`extract_disagreements` lists the (row, winner, loser) triples wherever
one model is right and another wrong, for a pairwise logistic ranking head.
Both heads are linear in the pair embedding: score = <h, E[n]> with one
embedding row per model.  Routing takes the argmax of the ranking head, whose
embedding matrix doubles as the prior for the online router.

:func:`train_offline` minimizes ranking_loss + lam * classifier_loss over one
context row per pair with mini-batch gradient descent and decoupled weight
decay.  The rows are precomputed pair embeddings, or pre-fusion text vectors
that a trainable fusion layer maps to embeddings.  Every loss term is
softplus(-x) of a logit x signed toward its label, so one vectorized
exp(-|x|) per minibatch gives all the losses and their gradients.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimError, FormatError, InputError, TrainError
from .features import DEFAULT_EMBED_DIM, DEFAULT_ENCODER_DIM, FusionParams
from .serialize import (
    check_document,
    dumps_doc,
    int_field,
    iter_jsonl,
    read_json,
    real_field,
    write_json,
    write_jsonl,
)

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
INIT_SCALE = 0.02  # standard deviation of the initial head and fusion weights


def collect_behavior(answers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(P, N) correctness bits: 1 where model n's answer to pair p is its label."""
    return (answers == labels[:, None]).astype(np.uint8)


def extract_disagreements(correct: np.ndarray, observed: np.ndarray | None = None) -> np.ndarray:
    """The ranking head's (row, winner, loser) int64 rows for a (P, N) bit matrix.

    ``observed`` masks the cells that have a bit; None means all of them.
    There is one row for every observed right winner and observed wrong loser
    of a pair row, row-major, so rows, then winners, then losers ascend.
    """
    right = correct.astype(bool)
    wrong = ~right
    if observed is not None:
        wrong &= observed
        right &= observed
    return np.argwhere(right[:, :, None] & wrong[:, None, :])


@dataclass
class OfflineRouterModel:
    """Trained router: optional fusion layer plus the two (n_arms, d >= 1) head
    matrices, all finite."""

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
        shape = self.bt_embeddings.shape
        if len(shape) != 2 or shape[0] != self.n_arms or shape[1] < 1:
            raise DimError(f"head matrices must be ({self.n_arms}, d >= 1), got {shape}")
        self.lam = real_field(self.lam, "lam", ConfigError)
        if self.fusion is not None and self.fusion.out_dim != self.d:
            raise DimError("fusion output dimension does not match head matrices")
        if not self.finite():
            raise InputError("head and fusion matrices must be finite")

    def finite(self) -> bool:
        """Whether the head matrices and the fusion layer hold only finite numbers."""
        heads = [self.bt_embeddings, self.cls_embeddings]
        fusion = [] if self.fusion is None else [self.fusion.weight, self.fusion.bias]
        return all(np.isfinite(m).all() for m in heads + fusion)

    @property
    def d(self) -> int:
        return self.bt_embeddings.shape[1]


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
        self.seed = int_field(self.seed, "seed", ConfigError, minimum=0)
        self.epochs = int_field(self.epochs, "epochs", ConfigError, minimum=1)
        self.batch_size = int_field(self.batch_size, "batch_size", ConfigError, minimum=1)
        self.embed_dim = int_field(self.embed_dim, "embed_dim", ConfigError, minimum=1)
        self.encoder_dim = int_field(self.encoder_dim, "encoder_dim", ConfigError, minimum=2)
        self.lam = real_field(self.lam, "lam", ConfigError)
        self.lr = real_field(self.lr, "lr", ConfigError, positive=True)
        self.weight_decay = real_field(self.weight_decay, "weight_decay", ConfigError)
        self.momentum = real_field(self.momentum, "momentum", ConfigError, below=1.0)


@dataclass
class TrainResult:
    model: OfflineRouterModel
    history: list[dict]


def _head_inputs(model: OfflineRouterModel, contexts: np.ndarray) -> np.ndarray:
    """The heads' input rows: ``contexts`` through the fusion layer, or as given."""
    if model.fusion is not None:
        return model.fusion.apply(contexts)
    if contexts.shape[1] != model.d:
        raise DimError(f"context dimension {contexts.shape[1]} does not match model d={model.d}")
    return contexts


def _logistic_loss(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(softplus(-x), sigmoid(-x)) elementwise: the logistic loss of logits x
    signed toward their labels, and minus its derivative.

    Both come from one e = exp(-|x|): softplus(-x) = log1p(e) - min(x, 0) and
    sigmoid(-x) = max(e, x < 0) / (1 + e), evaluated in place.  Nothing
    overflows at any |x|; past |x| = 708, e underflows to a subnormal number
    or 0, as it does inside ``np.logaddexp``.  Each agrees with
    ``np.logaddexp(0, -x)`` and ``scipy.special.expit(-x)`` to 4 ulp.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    loss = np.log1p(e)
    loss -= np.minimum(x, 0.0)
    tail = np.maximum(e, x < 0)
    e += 1.0
    tail /= e
    return loss, tail


def loss_and_grads(
    model: OfflineRouterModel,
    contexts: np.ndarray,
    bt_cells: np.ndarray,
    bits: np.ndarray,
    observed: np.ndarray,
    lam: float | None = None,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Mean losses and analytic gradients of the combined objective.

    ``contexts`` holds one row per pair: pre-fusion vectors when the model has
    a fusion layer, final embeddings otherwise.  ``bits`` and ``observed`` are
    those pairs' rows of the bit matrix and its mask; every observed cell is
    one classifier term.  ``bt_cells`` is a (2, K) array: the flat winner and
    loser cells ``row * N + arm`` of the K ranking rows.  Returned gradients
    are for total = bt + lam * cls.

    Each term is softplus(-x) of a signed logit: the margin s_w - s_l of a
    ranking row, z for a 1 bit and -z for a 0 bit.  Its derivative is
    -sigmoid(-x), so one :func:`_logistic_loss` over all K + cells terms
    gives every loss and score gradient, each within a few ulp of
    ``np.logaddexp(0, -x)`` and ``scipy.special.expit(-x)``.
    """
    lam = model.lam if lam is None else real_field(lam, "lam", ConfigError)
    contexts = np.asarray(contexts, dtype=np.float64)
    bt_cells = np.asarray(bt_cells, dtype=np.int64).reshape(2, -1)
    at_winner, at_loser = bt_cells[0], bt_cells[1]  # faster than unpacking

    h_all = _head_inputs(model, contexts)

    # Both heads are read from per-pair score matrices (P x N) and take their
    # gradients through a score gradient G per (row, arm) cell: grad_E = G^T H
    # and grad_h = G E, with no scatter over index rows.  The ranking head
    # gathers from the raveled scores at its flat cells and bincounts into G;
    # the classifier reads and writes the observed cells, row-major.  The
    # signed logits are the K ranking margins, then the classifier's cells.
    n_rows, n_arms = h_all.shape[0], model.n_arms
    cells, n_bt = n_rows * n_arms, len(at_winner)
    scores = (h_all @ model.bt_embeddings.T).ravel()
    z = (h_all @ model.cls_embeddings.T)[observed]
    delta = bits[observed]
    loss, tail = _logistic_loss(
        np.concatenate((scores[at_winner] - scores[at_loser], np.where(delta, z, -z)))
    )

    # sum / count is np.mean's own arithmetic, without its wrapper's overhead
    loss_bt = float(loss[:n_bt].sum() / n_bt) if n_bt else 0.0
    g = tail[:n_bt] / -n_bt
    g_bt = np.bincount(at_winner, g, cells) - np.bincount(at_loser, g, cells)
    g_bt = g_bt.reshape(n_rows, n_arms)

    loss_cls = float(loss[n_bt:].sum() / len(z)) if len(z) else 0.0
    g_cls = np.zeros((n_rows, n_arms))
    if len(z) and lam != 0.0:
        step = lam / len(z)
        g_cls[observed] = np.where(delta, -step, step) * tail[n_bt:]

    grads = {"bt_embeddings": g_bt.T @ h_all, "cls_embeddings": g_cls.T @ h_all}

    if model.fusion is not None:
        grad_h = g_bt @ model.bt_embeddings + g_cls @ model.cls_embeddings
        grad_pre = grad_h * (1.0 - h_all**2)  # tanh' = 1 - tanh^2
        grads["fusion_weight"] = grad_pre.T @ contexts
        grads["fusion_bias"] = grad_pre.sum(axis=0)

    losses = {"bt": loss_bt, "cls": loss_cls, "total": loss_bt + lam * loss_cls}
    return losses, grads


def train_offline(
    contexts: np.ndarray,
    correct: np.ndarray,
    observed: np.ndarray | None,
    config: TrainConfig,
    fused: bool = False,
) -> TrainResult:
    """Train on one context row per pair and its row of the (P, N) bit matrix.

    ``observed`` masks the cells that have a bit; None means all of them.
    With ``fused`` the rows are pre-fusion vectors and a fusion layer is
    trained as well.  Deterministic for a fixed config seed.  Raises
    :class:`InputError` for a bit other than 0 or 1, and :class:`TrainError`
    when no pair has both a correct and an incorrect model, since the ranking
    head then has no signal, and when training diverges to a non-finite
    parameter.
    """
    if len(contexts) != len(correct):
        raise DimError(f"{len(contexts)} context rows for {len(correct)} rows of bits")
    if not ((correct == 0) | (correct == 1)).all():
        raise InputError("correctness bits must be 0 or 1")
    bt_index = extract_disagreements(correct, observed)
    if not len(bt_index):
        raise TrainError("disagreement set is empty: ranking head has no signal")
    observed = np.ones(correct.shape, dtype=bool) if observed is None else observed.astype(bool)
    rng = np.random.default_rng(config.seed)
    if fused:
        fusion = FusionParams.random_init(config.embed_dim, config.encoder_dim, rng, INIT_SCALE)
        d = config.embed_dim
    else:
        fusion, d = None, contexts.shape[1]

    n_pairs, n_arms = correct.shape
    model = OfflineRouterModel(
        fusion=fusion,
        bt_embeddings=INIT_SCALE * rng.standard_normal((n_arms, d)),
        cls_embeddings=INIT_SCALE * rng.standard_normal((n_arms, d)),
        lam=config.lam,
        n_arms=n_arms,
    )

    # the parameters SGD updates in place, with decoupled weight decay:
    # p <- p - lr * step - (lr * wd) * p; with lam == 0 the classifier head is frozen
    params = [("bt_embeddings", model.bt_embeddings)]
    if config.lam != 0.0:
        params.append(("cls_embeddings", model.cls_embeddings))
    if fusion is not None:
        params += [("fusion_weight", fusion.weight), ("fusion_bias", fusion.bias)]
    velocity = {name: np.zeros_like(param) for name, param in params}
    decay = config.lr * config.weight_decay
    history: list[dict] = []
    batch_size = min(config.batch_size, n_pairs)  # the same minibatches, in int64 range
    bt_rows, n_bits = _pair_rows(bt_index, n_pairs), int(np.count_nonzero(observed))
    for epoch in range(config.epochs):
        perm = rng.permutation(n_pairs)
        shuffled, bits, mask = contexts[perm], correct[perm], observed[perm]
        bt_cells, bt_cuts = _epoch_cells(perm, batch_size, bt_rows, n_arms)
        sums = {"bt": 0.0, "cls": 0.0}
        for k, start in enumerate(range(0, n_pairs, batch_size)):
            batch = slice(start, start + batch_size)
            # a minibatch without bits has no ranking rows either
            n_cls = int(np.count_nonzero(mask[batch]))
            if not n_cls:
                continue
            batch_bt = bt_cells[:, bt_cuts[k] : bt_cuts[k + 1]]
            losses, grads = loss_and_grads(
                model, shuffled[batch], batch_bt, bits[batch], mask[batch]
            )
            for name, param in params:
                step = grads[name]
                if config.momentum > 0.0:
                    step = velocity[name]
                    step *= config.momentum
                    step += grads[name]
                param -= config.lr * step + decay * param
            sums["bt"] += losses["bt"] * batch_bt.shape[1]
            sums["cls"] += losses["cls"] * n_cls
        # every ranking row and bit falls in exactly one minibatch
        epoch_bt = sums["bt"] / len(bt_index)
        epoch_cls = sums["cls"] / n_bits
        history.append(
            {
                "epoch": epoch,
                "bt_loss": epoch_bt,
                "cls_loss": epoch_cls,
                "total_loss": epoch_bt + config.lam * epoch_cls,
            }
        )
        logger.debug("epoch %d: %s", epoch, history[-1])
    if not model.finite():
        raise TrainError(f"training diverged to non-finite parameters (lr {config.lr})")

    model.train_meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "final_loss": history[-1]["total_loss"],
        "config": asdict(config),
    }
    return TrainResult(model=model, history=history)


def _pair_rows(index: np.ndarray, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The (winner, loser) columns of the ranking rows ``index`` as a (2, K)
    array, stably sorted by pair (column 0), and the row count of each of the
    ``n_pairs`` pairs: sorted once per training, read every epoch."""
    by_pair = index[np.argsort(index[:, 0], kind="stable"), 1:].T.copy()
    return by_pair, np.bincount(index[:, 0], minlength=n_pairs)


def _epoch_cells(
    perm: np.ndarray, batch_size: int, pair_rows: tuple[np.ndarray, np.ndarray], n_arms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (winner, loser) cells of the ranking rows by minibatch, and the cut points.

    ``pair_rows`` is :func:`_pair_rows` of the ranking rows.  Minibatch k
    covers the pairs ``perm[k * batch_size : (k + 1) * batch_size]`` and holds
    ``cells[:, cuts[k] : cuts[k + 1]]``: its rows in ``perm`` order, then in
    index order, each arm as the cell ``offset * n_arms + arm`` of the score
    matrix, where ``offset`` is the pair's row inside the minibatch.  The
    pairs' row ranges are concatenated in O(rows + pairs).
    """
    by_pair, counts = pair_rows
    lengths = counts[perm]
    ends = np.cumsum(lengths)
    # row j of pair perm[i]'s range comes from by_pair[:, first[perm[i]] + j]
    first = np.cumsum(counts) - counts
    rows = np.arange(lengths.sum()) + np.repeat(first[perm] - (ends - lengths), lengths)
    cells = np.take(by_pair, rows, axis=1)
    cells += np.repeat(np.arange(len(perm)) % batch_size * n_arms, lengths)
    pairs_done = np.minimum(np.arange(0, len(perm) + batch_size, batch_size), len(perm))
    return cells, np.concatenate(([0], ends))[pairs_done]


def route_pairs(model: OfflineRouterModel, contexts: np.ndarray) -> np.ndarray:
    """Each pair's routed model, the argmax of its ranking scores (ties to the lowest
    index), from one row per pair as :func:`loss_and_grads` takes them."""
    return np.argmax(_head_inputs(model, contexts) @ model.bt_embeddings.T, axis=1)


def routing_accuracy(
    model: OfflineRouterModel, contexts: np.ndarray, correct: np.ndarray, observed: np.ndarray
) -> tuple[float | None, int]:
    """(accuracy, scored pairs) of routing each pair by :func:`route_pairs`.

    A pair is scored when its routed model has a behaviour bit; the accuracy
    is the fraction of scored pairs whose routed model is right, or None when
    no pair is scored.
    """
    chosen = route_pairs(model, contexts)
    rows = np.flatnonzero(observed[np.arange(len(chosen)), chosen])
    if not len(rows):
        return None, 0
    return float(correct[rows, chosen[rows]].mean()), len(rows)


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model: OfflineRouterModel) -> dict:
    fusion = None
    if model.fusion is not None:
        fusion = {
            "weight": [[float(x) for x in row] for row in model.fusion.weight],
            "bias": [float(x) for x in model.fusion.bias],
            "activation": "tanh",
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
    check_document(doc, "model document", MODEL_FORMAT_VERSION)
    try:
        train_meta = doc.get("train_meta", {})
        if not isinstance(train_meta, dict):
            raise FormatError("train_meta must be a JSON object")
        dumps_doc(train_meta)  # ValueError on a NaN or an infinity, which no output may hold
        fusion = None
        if doc.get("fusion") is not None:
            fdoc = doc["fusion"]
            if fdoc.get("activation", "tanh") != "tanh":
                raise FormatError(f"fusion activation must be 'tanh', got {fdoc['activation']!r}")
            fusion = FusionParams(
                weight=np.asarray(fdoc["weight"], dtype=np.float64),
                bias=np.asarray(fdoc["bias"], dtype=np.float64),
            )
        return OfflineRouterModel(
            fusion=fusion,
            bt_embeddings=np.asarray(doc["bt_embeddings"], dtype=np.float64),
            cls_embeddings=np.asarray(doc["cls_embeddings"], dtype=np.float64),
            lam=real_field(doc["lambda"], "lambda", FormatError),
            n_arms=int_field(doc["n_arms"], "n_arms", FormatError, minimum=1),
            train_meta=train_meta,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model document: {exc!r}") from exc


def save_model(path, model: OfflineRouterModel) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> OfflineRouterModel:
    return model_from_dict(read_json(path))


def save_behavior(
    path, pair_ids: Iterable[str], correct: np.ndarray, meta: dict | None = None
) -> None:
    """One row per cell of the (P, N) bit matrix, row-major; row p is ``pair_ids[p]``."""
    rows = (
        {"pair_id": pair_id, "rm_index": n, "correct": bit}
        for pair_id, bits in zip(pair_ids, correct.tolist())
        for n, bit in enumerate(bits)
    )
    write_jsonl(path, rows, meta=meta)


def load_behavior(path, pair_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(P, N) correctness bits and their observed mask over the rows ``pair_ids``.

    N is one more than the highest model index, and every lower model needs a
    row too; each (pair_id, rm_index) cell may appear once.
    """
    row_of = {pair_id: p for p, pair_id in enumerate(pair_ids)}
    first_line: dict[tuple[int, int], int] = {}  # insertion order matches bits
    bits: list[int] = []
    for lineno, obj in iter_jsonl(path):
        try:
            pair_id = obj["pair_id"]
            rm = int_field(obj["rm_index"], "rm_index", InputError, minimum=0)
            bit = int_field(obj["correct"], "correct", InputError)
            if bit not in (0, 1):
                raise InputError(f"correct must be 0 or 1, got {bit}")
            if pair_id not in row_of:  # TypeError: also an unhashable pair_id
                raise InputError(f"behavior row names unknown pair {pair_id!r}")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"invalid behavior row: {exc}", line=lineno) from exc
        except InputError as exc:
            raise FormatError(str(exc), line=lineno) from exc
        first = first_line.setdefault((row_of[pair_id], rm), lineno)
        if first != lineno:
            raise FormatError(f"pair {pair_id!r} model {rm} repeats line {first}", line=lineno)
        bits.append(bit)
    try:
        cells = np.array(list(first_line), dtype=np.int64).reshape(-1, 2).T
    except OverflowError as exc:  # an rm_index past int64, far above any row count
        raise FormatError(f"rm_index out of range: {exc}") from exc
    # checked before allocating anything N wide: N is at most the row count
    models = np.unique(cells[1])
    gaps = np.flatnonzero(models != np.arange(len(models)))
    if len(gaps):
        raise FormatError(f"model {gaps[0]} has no behavior row, but model {models[-1]} has")
    correct = np.zeros((len(row_of), len(models)), dtype=np.uint8)
    observed = np.zeros(correct.shape, dtype=bool)
    correct[tuple(cells)] = bits
    observed[tuple(cells)] = True
    return correct, observed
