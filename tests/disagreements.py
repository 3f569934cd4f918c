"""Per-record reference for the offline router's index arrays.

Behaviour comes as one (pair_id, rm_index, correct) record per profiled
cell.  The records are grouped by pair in a dict, and each pair yields every
(correct model, incorrect model) combination, with model indices ascending.
Pair ids are then mapped to dataset rows.  The array builder
``offline.extract_disagreements`` must give the same rows in the same order.
"""

import numpy as np


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


def build_index_arrays(pair_ids, records, samples):
    """(bt, beh) int64 index arrays: (row, winner, loser) and (row, rm, correct)."""
    row_of = {pair_id: i for i, pair_id in enumerate(pair_ids)}
    beh = np.array([[row_of[p], rm, bit] for p, rm, bit in records], dtype=np.int64)
    bt = np.array([[row_of[p], w, l] for p, w, l in samples], dtype=np.int64)
    return bt.reshape(-1, 3), beh.reshape(-1, 3)


def reference_index_arrays(correct, observed=None):
    """The (bt, beh) arrays of a bit matrix, built through per-pair records."""
    pair_ids = [f"p{row}" for row in range(len(correct))]
    records = matrix_records(pair_ids, correct, observed)
    return build_index_arrays(pair_ids, records, extract_disagreements(records))
