"""Per-record references for the offline router's ranking rows and classifier loss.

Behaviour comes as one (pair_id, rm_index, correct) record per profiled
cell.  The records are grouped by pair in a dict, and each pair yields every
(correct model, incorrect model) combination, with model indices ascending.
Pair ids are then mapped to dataset rows.  The array builder
``offline.extract_disagreements`` must give the same rows in the same order.

``index_loss_and_grads`` is the index form of ``offline.loss_and_grads``: it
takes the classifier's bits as (row, rm, bit) rows, one per observed cell,
and scatters their score gradient with ``np.bincount``.  It applies the
logistic-loss helper to each head's signed logits on its own, where the
matrix form applies it once to both; the matrix form must match it bit for
bit.
"""

import numpy as np

from rmrouter.offline import _head_inputs, _logistic_loss


def matrix_records(pair_ids, correct, observed=None):
    """One record per observed cell of a (P, N) bit matrix, row-major."""
    if observed is None:
        observed = np.ones(correct.shape, dtype=bool)
    return [
        (pair_ids[p], int(n), int(correct[p, n])) for p, n in zip(*np.nonzero(observed))
    ]


def extract_disagreements(records):
    """(pair_id, winner, loser) for every right winner and wrong loser of a pair,
    pairs in the order they first appear."""
    by_pair = {}
    for pair_id, rm, bit in records:
        by_pair.setdefault(pair_id, []).append((rm, bit))
    samples = []
    for pair_id, cells in by_pair.items():
        cells = sorted(cells)
        winners = [rm for rm, bit in cells if bit == 1]
        losers = [rm for rm, bit in cells if bit == 0]
        samples.extend((pair_id, w, l) for w in winners for l in losers)
    return samples


def build_index_array(pair_ids, samples):
    """The (row, winner, loser) int64 ranking rows of the samples."""
    row_of = {pair_id: i for i, pair_id in enumerate(pair_ids)}
    bt = np.array([[row_of[p], w, l] for p, w, l in samples], dtype=np.int64)
    return bt.reshape(-1, 3)


def reference_index_array(correct, observed=None):
    """The ranking rows of a bit matrix, built through per-pair records."""
    pair_ids = [f"p{row}" for row in range(len(correct))]
    records = matrix_records(pair_ids, correct, observed)
    return build_index_array(pair_ids, extract_disagreements(records))


def behavior_rows(correct, observed):
    """(row, rm, bit) int64 rows, one per observed cell, row-major."""
    records = matrix_records(range(len(correct)), correct, observed)
    return np.array(records, dtype=np.int64).reshape(-1, 3)


def index_loss_and_grads(model, contexts, bt_index, beh_index, lam=None):
    """``offline.loss_and_grads`` over (row, winner, loser) and (row, rm, bit) rows."""
    lam = model.lam if lam is None else float(lam)
    contexts = np.asarray(contexts, dtype=np.float64)
    bt_index = np.asarray(bt_index, dtype=np.int64).reshape(-1, 3)
    beh_index = np.asarray(beh_index, dtype=np.int64).reshape(-1, 3)

    h_all = _head_inputs(model, contexts)
    n_rows, n_arms = h_all.shape[0], model.n_arms
    cells = n_rows * n_arms

    loss_bt = 0.0
    if len(bt_index):
        rows, winners, losers = bt_index.T
        at = rows * n_arms
        at_winner, at_loser = at + winners, at + losers
        scores = (h_all @ model.bt_embeddings.T).ravel()
        margin = scores[at_winner] - scores[at_loser]
        loss, tail = _logistic_loss(margin)
        loss_bt = float(np.mean(loss))
        g = -tail / len(bt_index)
        g_bt = np.bincount(at_winner, g, cells) - np.bincount(at_loser, g, cells)
        g_bt = g_bt.reshape(n_rows, n_arms)
    else:
        g_bt = np.zeros((n_rows, n_arms))

    loss_cls = 0.0
    if len(beh_index):
        rows, rms, delta = beh_index.T
        at = rows * n_arms + rms
        z = (h_all @ model.cls_embeddings.T).ravel()[at]
        loss, tail = _logistic_loss(np.where(delta, z, -z))
        loss_cls = float(np.mean(loss))
    if len(beh_index) and lam != 0.0:
        step = lam / len(beh_index)
        gz = np.where(delta, -step, step) * tail
        g_cls = np.bincount(at, gz, cells).reshape(n_rows, n_arms)
    else:
        g_cls = np.zeros((n_rows, n_arms))

    grads = {"bt_embeddings": g_bt.T @ h_all, "cls_embeddings": g_cls.T @ h_all}
    if model.fusion is not None:
        grad_h = g_bt @ model.bt_embeddings + g_cls @ model.cls_embeddings
        grad_pre = grad_h * (1.0 - h_all**2)
        grads["fusion_weight"] = grad_pre.T @ contexts
        grads["fusion_bias"] = grad_pre.sum(axis=0)

    losses = {"bt": loss_bt, "cls": loss_cls, "total": loss_bt + lam * loss_cls}
    return losses, grads
