import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rmrouter.errors import ConfigError, DimError, FormatError, InputError, TrainError
from rmrouter.features import FusionParams, HashingEncoder, PreferencePair, prefusion_vector
from rmrouter.offline import (
    OfflineRouterModel,
    TrainConfig,
    _epoch_cells,
    _head_inputs,
    _pair_rows,
    collect_behavior,
    export_prior,
    extract_disagreements,
    load_behavior,
    loss_and_grads,
    model_from_dict,
    model_to_dict,
    routing_accuracy,
    save_behavior,
    train_offline,
)
from rmrouter.serialize import dumps_doc

from disagreements import behavior_rows, index_loss_and_grads, reference_index_array

LOG2 = math.log(2.0)


def route(model, contexts):
    """Argmax of the ranking scores per row, ties to the lowest index."""
    return np.argmax(contexts @ model.bt_embeddings.T, axis=1)


def random_model(rng, n_arms=3, d=4, lam=0.2, with_fusion=False, d_enc=3):
    fusion = None
    if with_fusion:
        fusion = FusionParams.random_init(d, d_enc, rng, scale=0.3)
    return OfflineRouterModel(
        fusion=fusion,
        bt_embeddings=rng.standard_normal((n_arms, d)),
        cls_embeddings=rng.standard_normal((n_arms, d)),
        lam=lam,
        n_arms=n_arms,
    )


class TestCollectBehavior:
    def test_all_correct(self):
        correct = collect_behavior(np.array([["A", "A", "A", "A"]]), np.array(["A"]))
        assert correct.dtype == np.uint8
        assert correct.tolist() == [[1, 1, 1, 1]]

    def test_matches_truth_table(self):
        answers = np.array([["A", "B"], ["B", "B"]])
        assert collect_behavior(answers, np.array(["A", "B"])).tolist() == [[1, 0], [1, 1]]

    def test_empty_dataset(self):
        correct = collect_behavior(np.empty((0, 3), dtype="<U1"), np.empty(0, dtype="<U1"))
        assert correct.shape == (0, 3)


def bt_rows(correct, observed=None):
    bt = extract_disagreements(np.array(correct, dtype=np.uint8), observed)
    return [tuple(row) for row in bt.tolist()]


def cells_of(bt, n_arms):
    """The (2, K) flat winner and loser cells ``row * n_arms + arm`` of ranking rows."""
    bt = np.asarray(bt, dtype=np.int64).reshape(-1, 3)
    return bt[:, 0] * n_arms + bt[:, 1:].T


class TestExtractDisagreements:
    def test_ordered_enumeration(self):
        assert bt_rows([[1, 1, 0, 0]]) == [(0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 1, 3)]

    def test_all_agree_empty(self):
        for bit in (0, 1):
            bt = extract_disagreements(np.full((1, 4), bit, dtype=np.uint8))
            assert bt.shape == (0, 3) and bt.dtype == np.int64

    def test_single_disagreement(self):
        assert bt_rows([[1, 0]]) == [(0, 0, 1)]

    @settings(deadline=None, max_examples=200)
    @given(
        n_arms=st.integers(0, 5),
        kinds=st.lists(st.sampled_from(["random", "right", "wrong", "empty"]), max_size=8),
        full=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_record_reference(self, n_arms, kinds, full, seed):
        # rows of random bits with missing cells, all-agree rows and rows without
        # any bit; ``full`` passes no mask, so every cell is observed
        rng = np.random.default_rng(seed)
        shape = (len(kinds), n_arms)
        correct = rng.integers(0, 2, shape).astype(np.uint8)
        observed = rng.random(shape) < 0.7
        for row, kind in enumerate(kinds):
            if kind in ("right", "wrong"):
                correct[row] = kind == "right"
            elif kind == "empty":
                observed[row] = False
        if full:
            observed = None
        bt = extract_disagreements(correct, observed)
        want = reference_index_array(correct, observed)
        assert bt.dtype == np.int64 and bt.shape == want.shape
        assert np.array_equal(bt, want)


def pair_losses(model, h, bt=(), bits=None):
    """Losses of one context row: ranking rows (winner, loser), classifier ``bits``
    {rm: bit} for the observed cells."""
    correct = np.zeros((1, model.n_arms), dtype=np.uint8)
    observed = np.zeros(correct.shape, dtype=bool)
    for rm, bit in (bits or {}).items():
        correct[0, rm], observed[0, rm] = bit, True
    cells = np.array(bt, dtype=np.int64).reshape(-1, 2).T
    return loss_and_grads(model, np.atleast_2d(h), cells, correct, observed)[0]


class TestLossValues:
    def test_bt_equal_scores_log2(self):
        model = random_model(np.random.default_rng(0))
        model.bt_embeddings[1] = model.bt_embeddings[0]
        assert abs(pair_losses(model, np.ones(4), bt=[(0, 1)])["bt"] - LOG2) < 1e-12

    def test_bt_large_gap_vanishes(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.array([[20.0], [0.0]]),
            cls_embeddings=np.zeros((2, 1)),
            lam=0.2,
            n_arms=2,
        )
        assert pair_losses(model, np.ones(1), bt=[(0, 1)])["bt"] < 1e-8

    def test_bt_unit_gap(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.array([[1.0], [0.0]]),
            cls_embeddings=np.zeros((2, 1)),
            lam=0.2,
            n_arms=2,
        )
        loss = pair_losses(model, np.ones(1), bt=[(0, 1)])["bt"]
        assert abs(loss - 0.31326168751822286) < 1e-12

    def test_cls_zero_logit_log2_both_labels(self):
        model = random_model(np.random.default_rng(1))
        model.cls_embeddings[0] = 0.0
        h = np.ones(4)
        assert abs(pair_losses(model, h, bits={0: 1})["cls"] - LOG2) < 1e-12
        assert abs(pair_losses(model, h, bits={0: 0})["cls"] - LOG2) < 1e-12

    def test_cls_logit_two_correct(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.zeros((2, 1)),
            cls_embeddings=np.array([[2.0], [0.0]]),
            lam=0.2,
            n_arms=2,
        )
        loss = pair_losses(model, np.ones(1), bits={0: 1})["cls"]
        assert abs(loss - 0.12692801104297252) < 1e-12

    def test_bt_loss_strictly_decreases_in_gap(self):
        losses = []
        for gap in np.linspace(-3, 3, 13):
            model = OfflineRouterModel(
                fusion=None,
                bt_embeddings=np.array([[gap], [0.0]]),
                cls_embeddings=np.zeros((2, 1)),
                lam=0.0,
                n_arms=2,
            )
            losses.append(pair_losses(model, np.ones(1), bt=[(0, 1)])["bt"])
        assert all(b < a for a, b in zip(losses, losses[1:]))


def numeric_grad(loss_fn, param, step=1e-5):
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn()
        flat[i] = orig - step
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def rel_err(a, b):
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return np.linalg.norm(a - b) / denom


def random_instance(rng, with_fusion):
    n_arms = int(rng.integers(2, 5))
    d = int(rng.integers(2, 9))
    d_enc = int(rng.integers(2, 5))
    model = random_model(rng, n_arms=n_arms, d=d, lam=0.2, with_fusion=with_fusion, d_enc=d_enc)
    m = int(rng.integers(2, 6))
    contexts = rng.standard_normal((m, 2 * d_enc if with_fusion else d))
    n_bt = int(rng.integers(1, 7))
    bt = np.stack(
        [
            [rng.integers(0, m), *rng.choice(n_arms, size=2, replace=False)]
            for _ in range(n_bt)
        ]
    ).astype(np.int64)
    correct = rng.integers(0, 2, (m, n_arms)).astype(np.uint8)
    observed = rng.random((m, n_arms)) < 0.6
    observed.flat[rng.integers(observed.size)] = True  # at least one classifier term
    return model, contexts, cells_of(bt, n_arms), correct, observed


def check_gradients(rng, with_fusion):
    model, *args = random_instance(rng, with_fusion)
    lam = model.lam

    def component(name):
        return lambda: loss_and_grads(model, *args)[0][name]

    _, grads_total = loss_and_grads(model, *args)
    _, grads_bt_only = loss_and_grads(model, *args, lam=0.0)

    params = {"bt_embeddings": model.bt_embeddings, "cls_embeddings": model.cls_embeddings}
    if with_fusion:
        params["fusion_weight"] = model.fusion.weight
        params["fusion_bias"] = model.fusion.bias

    for name, param in params.items():
        num_total = numeric_grad(component("total"), param)
        assert rel_err(grads_total[name], num_total) < 1e-4, f"total/{name}"
        num_bt = numeric_grad(component("bt"), param)
        assert rel_err(grads_bt_only[name], num_bt) < 1e-4, f"bt/{name}"
        num_cls = numeric_grad(component("cls"), param)
        analytic_cls = (grads_total[name] - grads_bt_only[name]) / lam
        assert rel_err(analytic_cls, num_cls) < 1e-4, f"cls/{name}"


class TestGradients:
    def test_identity_mode_gradients(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            check_gradients(rng, with_fusion=False)

    def test_fusion_mode_gradients(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            check_gradients(rng, with_fusion=True)

    def test_lambda_zero_freezes_cls_gradient(self):
        rng = np.random.default_rng(3)
        model, *args = random_instance(rng, with_fusion=False)
        _, grads = loss_and_grads(model, *args, lam=0.0)
        assert np.array_equal(grads["cls_embeddings"], np.zeros_like(model.cls_embeddings))

    def test_total_is_bt_plus_lambda_cls(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model, *args = random_instance(rng, with_fusion=bool(rng.integers(2)))
            losses, _ = loss_and_grads(model, *args)
            assert losses["total"] == losses["bt"] + model.lam * losses["cls"]


def scatter_loss_and_grads(model, contexts, bt_index, beh_index, lam):
    """Reference: the per-sample gather / ``np.add.at`` scatter formulation."""
    if model.fusion is not None:
        pre = contexts @ model.fusion.weight.T + model.fusion.bias
        h_all = np.tanh(pre)
    else:
        h_all = contexts
    grads = {
        "bt_embeddings": np.zeros_like(model.bt_embeddings),
        "cls_embeddings": np.zeros_like(model.cls_embeddings),
    }
    grad_h = np.zeros_like(h_all)
    loss_bt = 0.0
    if len(bt_index):
        rows, winners, losers = bt_index[:, 0], bt_index[:, 1], bt_index[:, 2]
        h_rows = h_all[rows]
        diff = model.bt_embeddings[winners] - model.bt_embeddings[losers]
        margin = np.einsum("ij,ij->i", h_rows, diff)
        loss_bt = float(np.mean(np.logaddexp(0.0, -margin)))
        g = (expit(margin) - 1.0) / len(bt_index)
        np.add.at(grads["bt_embeddings"], winners, g[:, None] * h_rows)
        np.add.at(grads["bt_embeddings"], losers, -g[:, None] * h_rows)
        np.add.at(grad_h, rows, g[:, None] * diff)
    loss_cls = 0.0
    if len(beh_index):
        rows, rms, delta = beh_index[:, 0], beh_index[:, 1], beh_index[:, 2]
        h_rows = h_all[rows]
        z = np.einsum("ij,ij->i", h_rows, model.cls_embeddings[rms])
        loss_cls = float(
            np.mean(delta * np.logaddexp(0.0, -z) + (1 - delta) * np.logaddexp(0.0, z))
        )
        if lam != 0.0:
            gz = lam * (expit(z) - delta) / len(beh_index)
            np.add.at(grads["cls_embeddings"], rms, gz[:, None] * h_rows)
            np.add.at(grad_h, rows, gz[:, None] * model.cls_embeddings[rms])
    if model.fusion is not None:
        grad_pre = grad_h * (1.0 - h_all**2)
        grads["fusion_weight"] = grad_pre.T @ contexts
        grads["fusion_bias"] = grad_pre.sum(axis=0)
    return {"bt": loss_bt, "cls": loss_cls, "total": loss_bt + lam * loss_cls}, grads


def random_bits(rng, n_rows, n_arms, density):
    """A random bit matrix and a mask that keeps each cell with ``density``."""
    correct = rng.integers(0, 2, (n_rows, n_arms)).astype(np.uint8)
    return correct, rng.random((n_rows, n_arms)) < density


class TestScoreSpaceGradients:
    @settings(deadline=None, max_examples=150)
    @given(
        n_arms=st.integers(2, 5),
        n_rows=st.integers(1, 6),
        n_bt=st.integers(0, 12),
        density=st.sampled_from([0.0, 0.4, 1.0]),
        with_fusion=st.booleans(),
        lam=st.sampled_from([0.0, 0.2, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scatter_reference(
        self, n_arms, n_rows, n_bt, density, with_fusion, lam, seed
    ):
        rng = np.random.default_rng(seed)
        d, d_enc = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        model = random_model(rng, n_arms, d, lam, with_fusion, d_enc)
        contexts = rng.standard_normal((n_rows, 2 * d_enc if with_fusion else d))
        # few rows and arms, so rows and (row, arm) cells repeat
        winner_loser = np.argsort(rng.random((n_bt, n_arms)), axis=1)[:, :2]
        bt = np.column_stack([rng.integers(0, n_rows, n_bt), winner_loser])
        correct, observed = random_bits(rng, n_rows, n_arms, density)
        losses, grads = loss_and_grads(model, contexts, cells_of(bt, n_arms), correct, observed)
        beh = behavior_rows(correct, observed)
        ref_losses, ref_grads = scatter_loss_and_grads(model, contexts, bt, beh, lam)
        for name, value in ref_losses.items():
            assert abs(losses[name] - value) <= 1e-12 * max(abs(value), 1e-300), name
        assert grads.keys() == ref_grads.keys()
        for name, value in ref_grads.items():
            assert rel_err(grads[name], value) < 1e-12, name

    @settings(deadline=None, max_examples=100)
    @given(
        n_arms=st.integers(1, 5),
        n_rows=st.integers(1, 6),
        with_fusion=st.booleans(),
        lam=st.sampled_from([0.0, 0.2]),
        log_scale=st.integers(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cls_loss_equals_two_term_blend(
        self, n_arms, n_rows, with_fusion, lam, log_scale, seed
    ):
        # one softplus of +-z per cell is the two-term blend, bit for bit, for
        # 0/1 bits, also where the logits are large enough to saturate it
        rng = np.random.default_rng(seed)
        d, d_enc = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        model = random_model(rng, n_arms, d, lam, with_fusion, d_enc)
        model.cls_embeddings *= 10.0**log_scale
        contexts = rng.standard_normal((n_rows, 2 * d_enc if with_fusion else d))
        correct, observed = random_bits(rng, n_rows, n_arms, 0.7)
        observed.flat[rng.integers(observed.size)] = True
        z = (_head_inputs(model, contexts) @ model.cls_embeddings.T)[observed]
        delta = correct[observed]
        blend = np.mean(delta * np.logaddexp(0.0, -z) + (1 - delta) * np.logaddexp(0.0, z))
        no_bt = np.empty((2, 0), np.int64)
        losses, _ = loss_and_grads(model, contexts, no_bt, correct, observed)
        assert losses["cls"] == float(blend)

    @settings(deadline=None, max_examples=200)
    @given(
        n_arms=st.integers(1, 5),
        n_rows=st.integers(1, 7),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        with_bt=st.booleans(),
        with_fusion=st.booleans(),
        lam=st.sampled_from([0.0, 0.2, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_form_equals_index_form(
        self, n_arms, n_rows, density, with_bt, with_fusion, lam, seed
    ):
        # the classifier over the observed cells of the bit matrix against the
        # same bits as (row, rm, bit) rows: losses and every gradient, bit for
        # bit, with a row that has no bit and, without ``with_bt``, a minibatch
        # that has no ranking rows
        rng = np.random.default_rng(seed)
        d, d_enc = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        model = random_model(rng, n_arms, d, lam, with_fusion, d_enc)
        contexts = rng.standard_normal((n_rows, 2 * d_enc if with_fusion else d))
        correct, observed = random_bits(rng, n_rows, n_arms, density)
        observed[rng.integers(n_rows)] = False
        bt = extract_disagreements(correct, observed)
        if not with_bt:
            bt = bt[:0]
        losses, grads = loss_and_grads(
            model, contexts, cells_of(bt, n_arms), correct, observed, lam=lam
        )
        want_losses, want_grads = index_loss_and_grads(
            model, contexts, bt, behavior_rows(correct, observed), lam=lam
        )
        assert losses == want_losses
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert grads[name].dtype == want.dtype and grads[name].shape == want.shape
            assert grads[name].tobytes() == want.tobytes(), name


def partition_reference(perm, batch_size, index):
    """Minibatch k: index rows whose pair is in perm[k*bs:(k+1)*bs], perm then record order."""
    batches = []
    for start in range(0, len(perm), batch_size):
        block = list(perm[start : start + batch_size])
        rows = [r for pair in block for r in index if r[0] == pair]
        batches.append([(block.index(r[0]), *r[1:]) for r in rows])
    return batches


def flat_cells(rows, n_arms):
    """(offset * n_arms + winner, offset * n_arms + loser) of (offset, winner, loser) rows."""
    return [(offset * n_arms + w, offset * n_arms + l) for offset, w, l in rows]


class TestEpochBatches:
    @settings(deadline=None, max_examples=100)
    @given(
        n_pairs=st.integers(1, 30),
        batch_size=st.integers(1, 9),
        n_rows=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_minibatch_k_holds_its_pairs_rows_in_order(self, n_pairs, batch_size, n_rows, seed):
        rng = np.random.default_rng(seed)
        # row pair ids drawn with replacement: some pairs get several rows, some
        # none; the winner column numbers the rows, and n_arms exceeds it, so
        # the rows' order is visible in their cells
        index = np.column_stack(
            [rng.integers(0, n_pairs, n_rows), np.arange(n_rows), rng.integers(0, 2, n_rows)]
        )
        n_arms = n_rows + 2
        perm = rng.permutation(n_pairs)
        cells, cuts = _epoch_cells(perm, batch_size, _pair_rows(index, n_pairs), n_arms)
        expected = partition_reference(perm, batch_size, [tuple(r) for r in index])
        assert cells.shape == (2, n_rows) and cells.dtype == np.int64
        assert len(cuts) == len(expected) + 1
        assert cuts[0] == 0 and cuts[-1] == n_rows
        for k, rows in enumerate(expected):
            got = [tuple(c) for c in cells[:, cuts[k] : cuts[k + 1]].T.tolist()]
            assert got == flat_cells(rows, n_arms), k

    @settings(deadline=None, max_examples=100)
    @given(
        n_pairs=st.integers(1, 30),
        batch_size=st.integers(1, 9),
        n_rows=st.integers(0, 60),
        n_arms=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_equals_fancy_index(self, n_pairs, batch_size, n_rows, n_arms, seed):
        rng = np.random.default_rng(seed)
        index = np.column_stack(
            [rng.integers(0, n_pairs, n_rows), rng.integers(0, n_arms, (n_rows, 2))]
        )
        pair_rows = _pair_rows(index, n_pairs)
        by_pair = pair_rows[0].copy()
        perm = rng.permutation(n_pairs)
        cells, _ = _epoch_cells(perm, batch_size, pair_rows, n_arms)
        # the 2-D fancy-index gather of each pair's rows, in perm order
        sorted_index = index[np.argsort(index[:, 0], kind="stable")]
        want = sorted_index[
            np.concatenate([np.flatnonzero(sorted_index[:, 0] == p) for p in perm])
        ]
        lengths = np.bincount(index[:, 0], minlength=n_pairs)[perm]
        offsets = np.repeat(np.arange(n_pairs) % batch_size, lengths)
        want = offsets * n_arms + want[:, 1:].T
        assert cells.dtype == want.dtype and cells.shape == want.shape
        assert np.array_equal(cells, want)
        # the cells are written into a gathered copy, not the sorted arms
        assert np.array_equal(pair_rows[0], by_pair)

    def test_short_last_batch_and_pairs_without_rows(self):
        index = np.array([[4, 0, 1], [1, 1, 0], [4, 2, 0], [0, 3, 1]])
        cells, cuts = _epoch_cells(np.array([4, 2, 3, 0, 1]), 2, _pair_rows(index, 5), 4)
        assert cuts.tolist() == [0, 2, 3, 4]
        # batch 0 = pairs (4, 2): pair 4's two rows at offset 0; batch 1 = (3, 0):
        # pair 0's row at offset 1; batch 2 = (1,): pair 1's row at offset 0
        rows = [(0, 0, 1), (0, 2, 0), (1, 3, 1), (0, 1, 0)]
        assert [tuple(c) for c in cells.T.tolist()] == flat_cells(rows, 4)
        assert cells.tolist() == [[0, 2, 7, 1], [1, 0, 5, 0]]


def all_observed(correct):
    return np.ones(np.shape(correct), dtype=bool)


def one_hot_at(chosen, n_arms):
    """Bit matrix in which only each row's ``chosen`` model is right."""
    return np.eye(n_arms, dtype=np.uint8)[chosen]


class TestRouteOffline:
    """Routing as ``routing_accuracy`` does it: one argmax per context row."""

    def test_basis_rows(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.eye(4),
            cls_embeddings=np.zeros((4, 4)),
            lam=0.2,
            n_arms=4,
        )
        h = np.eye(4)[[2]]
        for right, acc in ((2, 1.0), (1, 0.0)):
            correct = one_hot_at([right], 4)
            assert routing_accuracy(model, h, correct, all_observed(correct)) == (acc, 1)

    def test_tie_breaks_to_lowest_index(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.ones((3, 2)),
            cls_embeddings=np.zeros((3, 2)),
            lam=0.2,
            n_arms=3,
        )
        correct = one_hot_at([0], 3)
        assert routing_accuracy(model, np.ones((1, 2)), correct, all_observed(correct)) == (1.0, 1)

    def test_attains_max_score(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_model(rng, n_arms=int(rng.integers(2, 6)))
            contexts = rng.standard_normal((8, 4))
            scores = contexts @ model.bt_embeddings.T
            correct = (scores == scores.max(axis=1, keepdims=True)).astype(np.uint8)
            assert routing_accuracy(model, contexts, correct, all_observed(correct)) == (1.0, 8)

    def test_uniform_score_shift_preserves_argmax(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        contexts = rng.standard_normal((20, 4))
        shifted = OfflineRouterModel(
            fusion=None,
            bt_embeddings=model.bt_embeddings + rng.standard_normal(4),
            cls_embeddings=model.cls_embeddings,
            lam=model.lam,
            n_arms=model.n_arms,
        )
        correct = one_hot_at(route(model, contexts), model.n_arms)
        assert routing_accuracy(shifted, contexts, correct, all_observed(correct)) == (1.0, 20)


class TestRoutingAccuracy:
    def model(self):
        return OfflineRouterModel(None, np.eye(2), np.zeros((2, 2)), 0.2, 2)

    def test_pairs_without_bits_are_skipped(self):
        contexts = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        correct = np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8)
        observed = np.array([[True, True], [True, True], [False, False]])
        assert routing_accuracy(self.model(), contexts, correct, observed) == (0.5, 2)

    def test_pair_without_bit_of_routed_model_is_not_scored(self):
        # both pairs go to model 1; only the second has its bit
        contexts = np.array([[0.0, 1.0], [0.0, 1.0]])
        correct = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        observed = np.array([[True, False], [True, True]])
        assert routing_accuracy(self.model(), contexts, correct, observed) == (1.0, 1)
        first = slice(0, 1)
        got = routing_accuracy(self.model(), contexts[first], correct[first], observed[first])
        assert got == (None, 0)

    def test_no_bits_score_no_pair(self):
        correct = np.zeros((2, 2), dtype=np.uint8)
        assert routing_accuracy(self.model(), np.eye(2), correct, correct == 1) == (None, 0)
        none = slice(0, 0)
        got = routing_accuracy(self.model(), np.eye(2)[none], correct[none], correct[none] == 1)
        assert got == (None, 0)

    def test_fusion_model_routes_fused_contexts(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, n_arms=3, d=4, with_fusion=True, d_enc=3)
        prefusion = rng.standard_normal((10, 6))
        fused = np.array([model.fusion.apply(row) for row in prefusion])
        correct = one_hot_at(route(model, fused), 3)
        assert routing_accuracy(model, prefusion, correct, all_observed(correct)) == (1.0, 10)


def separable_training_data(rng, n_pairs=400, flip=0.02):
    """Two orthogonal context clusters, two specialist models, near-clean bits."""
    cluster = np.arange(n_pairs) % 2
    contexts = np.eye(8)[cluster] + 0.15 * rng.standard_normal((n_pairs, 8))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
    correct = np.eye(2, dtype=np.uint8)[cluster]
    flips = rng.random((n_pairs, 2)) < flip
    correct[flips] = 1 - correct[flips]
    return contexts, correct


def train_on(contexts, correct, config, fused=False):
    return train_offline(contexts, correct, None, config, fused=fused)


class TestTraining:
    def test_learns_separable_clusters(self):
        rng = np.random.default_rng(7)
        contexts, correct = separable_training_data(rng)
        train_n = 300
        config = TrainConfig(lam=0.2, lr=0.5, epochs=30, batch_size=32, seed=0)
        result = train_on(contexts[:train_n], correct[:train_n], config)
        holdout = correct[train_n:]
        acc, scored = routing_accuracy(
            result.model, contexts[train_n:], holdout, all_observed(holdout)
        )
        assert acc >= 0.95 and scored == 100
        assert len(result.history) == 30

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        contexts, correct = separable_training_data(rng, n_pairs=40)
        config = TrainConfig(lam=0.2, lr=0.3, epochs=3, batch_size=8, seed=11)
        a = train_on(contexts, correct, config)
        b = train_on(contexts, correct, config)
        assert np.array_equal(a.model.bt_embeddings, b.model.bt_embeddings)
        assert np.array_equal(a.model.cls_embeddings, b.model.cls_embeddings)
        assert a.history == b.history

    def test_empty_disagreements_raise(self):
        with pytest.raises(TrainError):
            train_on(np.ones((4, 3)), np.ones((4, 2), dtype=np.uint8), TrainConfig())

    def test_context_rows_must_match_bit_rows(self):
        correct = np.eye(2, dtype=np.uint8)
        with pytest.raises(DimError, match="3 context rows for 2 rows of bits"):
            train_on(np.ones((3, 2)), correct, TrainConfig())

    def test_text_path_trains_fusion(self):
        pairs = [
            PreferencePair(f"p{i}", f"topic {i % 2} question {i}", "yes indeed", "not at all", "A")
            for i in range(12)
        ]
        encoder = HashingEncoder(32)
        contexts = np.stack([prefusion_vector(pair, encoder) for pair in pairs])
        correct = np.array([[(n + i) % 2 for n in range(2)] for i in range(12)], dtype=np.uint8)
        config = TrainConfig(epochs=2, batch_size=4, embed_dim=8, encoder_dim=32, seed=0)
        result = train_on(contexts, correct, config, fused=True)
        assert result.model.fusion is not None
        assert result.model.d == 8
        assert result.model.fusion.encoder_dim == 32


class TestBehaviorFile:
    def test_round_trip_with_missing_cells(self, tmp_path):
        path = tmp_path / "behavior.jsonl"
        save_behavior(path, ["a", "b", "c"], np.array([[1, 0], [0, 1], [1, 1]]), meta={"k": 1})
        lines = path.read_text().splitlines()
        del lines[3]  # pair "b", model 0
        path.write_text("\n".join(reversed(lines)) + "\n")
        correct, observed = load_behavior(path, ["c", "b", "a", "d"])
        assert correct.dtype == np.uint8
        assert correct.tolist() == [[1, 1], [0, 1], [1, 0], [0, 0]]
        assert observed.tolist() == [[True, True], [False, True], [True, True], [False, False]]

    def test_model_below_the_highest_without_rows_rejected(self, tmp_path):
        path = tmp_path / "behavior.jsonl"
        path.write_text('{"pair_id": "a", "rm_index": 0, "correct": 1}\n'
                        '{"pair_id": "a", "rm_index": 3, "correct": 0}\n')
        with pytest.raises(FormatError, match="model 1 has no behavior row"):
            load_behavior(path, ["a"])

    def test_unknown_pair_rejected_with_line(self, tmp_path):
        path = tmp_path / "behavior.jsonl"
        path.write_text('{"pair_id": "a", "rm_index": 0, "correct": 1}\n'
                        '{"pair_id": "z", "rm_index": 1, "correct": 0}\n')
        with pytest.raises(FormatError, match=r"unknown pair 'z' \(line 2\)"):
            load_behavior(path, ["a"])


class TestExportAndPersistence:
    def test_export_is_verbatim(self):
        model = random_model(np.random.default_rng(9))
        prior = export_prior(model)
        assert np.array_equal(prior, model.bt_embeddings)
        prior[0, 0] += 1.0  # exported copy must not alias the model
        assert prior[0, 0] != model.bt_embeddings[0, 0]

    def test_reloaded_model_routes_identically(self):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        doc = model_to_dict(model)
        reloaded = model_from_dict(doc)
        contexts = rng.standard_normal((100, 4))
        assert np.array_equal(route(model, contexts), route(reloaded, contexts))

    def test_save_load_save_byte_identical(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, with_fusion=True)
        model.train_meta = {"seed": 1, "epochs": 2, "final_loss": 0.5}
        first = dumps_doc(model_to_dict(model))
        second = dumps_doc(model_to_dict(model_from_dict(model_to_dict(model))))
        assert first == second

    def test_version_check(self):
        model = random_model(np.random.default_rng(13))
        doc = model_to_dict(model)
        doc["version"] = 2
        with pytest.raises(ConfigError):
            model_from_dict(doc)
