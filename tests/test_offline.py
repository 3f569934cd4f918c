import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rmrouter.errors import ConfigError, InputError, TrainError
from rmrouter.features import FusionParams, PairEmbedding, PreferencePair
from rmrouter.offline import (
    BehaviorRecord,
    DisagreementSample,
    OfflineRouterModel,
    TrainConfig,
    _epoch_batches,
    bt_loss,
    bt_scores,
    cls_loss,
    collect_behavior,
    export_prior,
    extract_disagreements,
    loss_and_grads,
    model_from_dict,
    model_to_dict,
    route_offline,
    routing_accuracy,
    train_offline,
)
from rmrouter.serialize import dumps_doc

LOG2 = math.log(2.0)


class TablePool:
    """RM pool answering from a fixed {pair_id: [answers]} table."""

    def __init__(self, table):
        self.table = table
        self.n_arms = len(next(iter(table.values())))

    def preference(self, rm_index, pair):
        return self.table[pair.pair_id][rm_index]


def make_pairs(n, label="A"):
    return [
        PreferencePair(f"p{i}", f"prompt {i}", "first answer", "second answer", label)
        for i in range(n)
    ]


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
        pairs = make_pairs(1)
        pool = TablePool({"p0": ["A", "A", "A", "A"]})
        records = collect_behavior(pairs, pool)
        assert len(records) == 4
        assert all(r.correct == 1 for r in records)

    def test_matches_truth_table(self):
        pairs = [
            PreferencePair("p0", "q", "a", "b", "A"),
            PreferencePair("p1", "q", "a", "b", "B"),
        ]
        pool = TablePool({"p0": ["A", "B"], "p1": ["B", "B"]})
        records = collect_behavior(pairs, pool)
        got = {(r.pair_id, r.rm_index): r.correct for r in records}
        assert got == {("p0", 0): 1, ("p0", 1): 0, ("p1", 0): 1, ("p1", 1): 1}

    def test_empty_dataset(self):
        assert collect_behavior([], TablePool({"x": ["A"]})) == []

    def test_unlabeled_pair_rejected(self):
        pairs = [PreferencePair("p0", "q", "a", "b")]
        with pytest.raises(InputError):
            collect_behavior(pairs, TablePool({"p0": ["A"]}))


class TestExtractDisagreements:
    def test_ordered_enumeration(self):
        records = [BehaviorRecord("p", n, c) for n, c in enumerate([1, 1, 0, 0])]
        samples = extract_disagreements(records)
        assert [(s.winner_rm, s.loser_rm) for s in samples] == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_all_agree_empty(self):
        for bit in (0, 1):
            records = [BehaviorRecord("p", n, bit) for n in range(4)]
            assert extract_disagreements(records) == []

    def test_single_disagreement(self):
        records = [BehaviorRecord("p", 0, 1), BehaviorRecord("p", 1, 0)]
        samples = extract_disagreements(records)
        assert [(s.winner_rm, s.loser_rm) for s in samples] == [(0, 1)]


class TestLossValues:
    def test_bt_equal_scores_log2(self):
        model = random_model(np.random.default_rng(0))
        model.bt_embeddings[1] = model.bt_embeddings[0]
        h = PairEmbedding.of(np.ones(4))
        assert abs(bt_loss(model, h, DisagreementSample("p", 0, 1)) - LOG2) < 1e-12

    def test_bt_large_gap_vanishes(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.array([[20.0], [0.0]]),
            cls_embeddings=np.zeros((2, 1)),
            lam=0.2,
            n_arms=2,
        )
        h = PairEmbedding.of(np.ones(1))
        assert bt_loss(model, h, DisagreementSample("p", 0, 1)) < 1e-8

    def test_bt_unit_gap(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.array([[1.0], [0.0]]),
            cls_embeddings=np.zeros((2, 1)),
            lam=0.2,
            n_arms=2,
        )
        h = PairEmbedding.of(np.ones(1))
        loss = bt_loss(model, h, DisagreementSample("p", 0, 1))
        assert abs(loss - 0.31326168751822286) < 1e-12

    def test_cls_zero_logit_log2_both_labels(self):
        model = random_model(np.random.default_rng(1))
        model.cls_embeddings[0] = 0.0
        h = PairEmbedding.of(np.ones(4))
        assert abs(cls_loss(model, h, BehaviorRecord("p", 0, 1)) - LOG2) < 1e-12
        assert abs(cls_loss(model, h, BehaviorRecord("p", 0, 0)) - LOG2) < 1e-12

    def test_cls_logit_two_correct(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.zeros((2, 1)),
            cls_embeddings=np.array([[2.0], [0.0]]),
            lam=0.2,
            n_arms=2,
        )
        h = PairEmbedding.of(np.ones(1))
        loss = cls_loss(model, h, BehaviorRecord("p", 0, 1))
        assert abs(loss - 0.12692801104297252) < 1e-12

    def test_bt_loss_strictly_decreases_in_gap(self):
        h = PairEmbedding.of(np.ones(1))
        losses = []
        for gap in np.linspace(-3, 3, 13):
            model = OfflineRouterModel(
                fusion=None,
                bt_embeddings=np.array([[gap], [0.0]]),
                cls_embeddings=np.zeros((2, 1)),
                lam=0.0,
                n_arms=2,
            )
            losses.append(bt_loss(model, h, DisagreementSample("p", 0, 1)))
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
    n_beh = int(rng.integers(1, 9))
    beh = np.stack(
        [
            [rng.integers(0, m), rng.integers(0, n_arms), rng.integers(0, 2)]
            for _ in range(n_beh)
        ]
    ).astype(np.int64)
    return model, contexts, bt, beh


def check_gradients(rng, with_fusion):
    model, contexts, bt, beh = random_instance(rng, with_fusion)
    lam = model.lam

    def component(name):
        return lambda: loss_and_grads(model, contexts, bt, beh)[0][name]

    _, grads_total = loss_and_grads(model, contexts, bt, beh)
    _, grads_bt_only = loss_and_grads(model, contexts, bt, beh, lam=0.0)

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
        model, contexts, bt, beh = random_instance(rng, with_fusion=False)
        _, grads = loss_and_grads(model, contexts, bt, beh, lam=0.0)
        assert np.array_equal(grads["cls_embeddings"], np.zeros_like(model.cls_embeddings))

    def test_total_is_bt_plus_lambda_cls(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model, contexts, bt, beh = random_instance(rng, with_fusion=bool(rng.integers(2)))
            losses, _ = loss_and_grads(model, contexts, bt, beh)
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


class TestScoreSpaceGradients:
    @settings(deadline=None, max_examples=150)
    @given(
        n_arms=st.integers(2, 5),
        n_rows=st.integers(1, 6),
        n_bt=st.integers(0, 12),
        n_beh=st.integers(0, 12),
        with_fusion=st.booleans(),
        lam=st.sampled_from([0.0, 0.2, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scatter_reference(self, n_arms, n_rows, n_bt, n_beh, with_fusion, lam, seed):
        rng = np.random.default_rng(seed)
        d, d_enc = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        model = random_model(rng, n_arms, d, lam, with_fusion, d_enc)
        contexts = rng.standard_normal((n_rows, 2 * d_enc if with_fusion else d))
        # few rows and arms, so rows and (row, arm) cells repeat
        winner_loser = np.argsort(rng.random((n_bt, n_arms)), axis=1)[:, :2]
        bt = np.column_stack([rng.integers(0, n_rows, n_bt), winner_loser])
        beh = np.column_stack(
            [rng.integers(0, n_rows, n_beh), rng.integers(0, n_arms, n_beh), rng.integers(0, 2, n_beh)]
        )
        losses, grads = loss_and_grads(model, contexts, bt, beh)
        ref_losses, ref_grads = scatter_loss_and_grads(model, contexts, bt, beh, lam)
        for name, value in ref_losses.items():
            assert abs(losses[name] - value) <= 1e-12 * max(abs(value), 1e-300), name
        assert grads.keys() == ref_grads.keys()
        for name, value in ref_grads.items():
            assert rel_err(grads[name], value) < 1e-12, name


def partition_reference(perm, batch_size, index):
    """Minibatch k: index rows whose pair is in perm[k*bs:(k+1)*bs], perm then record order."""
    batches = []
    for start in range(0, len(perm), batch_size):
        block = list(perm[start : start + batch_size])
        rows = [r for pair in block for r in index if r[0] == pair]
        batches.append([(block.index(r[0]), *r[1:]) for r in rows])
    return batches


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
        # none; the record columns number the rows so their order is visible
        index = np.column_stack(
            [rng.integers(0, n_pairs, n_rows), np.arange(n_rows), rng.integers(0, 2, n_rows)]
        )
        perm = rng.permutation(n_pairs)
        batches, cuts = _epoch_batches(perm, batch_size, index)
        expected = partition_reference(perm, batch_size, [tuple(r) for r in index])
        assert len(cuts) == len(expected) + 1
        assert cuts[0] == 0 and cuts[-1] == n_rows
        for k, rows in enumerate(expected):
            got = [tuple(r) for r in batches[cuts[k] : cuts[k + 1]]]
            assert got == rows, k

    def test_short_last_batch_and_pairs_without_rows(self):
        index = np.array([[4, 0, 1], [1, 1, 0], [4, 2, 0], [0, 3, 1]])
        batches, cuts = _epoch_batches(np.array([4, 2, 3, 0, 1]), 2, index)
        assert cuts.tolist() == [0, 2, 3, 4]
        # batch 0 = pairs (4, 2): pair 4's two records; batch 1 = (3, 0); batch 2 = (1,)
        assert batches.tolist() == [[0, 0, 1], [0, 2, 0], [1, 3, 1], [0, 1, 0]]


class TestRouteOffline:
    def test_basis_rows(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.eye(4),
            cls_embeddings=np.zeros((4, 4)),
            lam=0.2,
            n_arms=4,
        )
        assert route_offline(model, PairEmbedding.of(np.eye(4)[2])) == 2

    def test_tie_breaks_to_lowest_index(self):
        model = OfflineRouterModel(
            fusion=None,
            bt_embeddings=np.ones((3, 2)),
            cls_embeddings=np.zeros((3, 2)),
            lam=0.2,
            n_arms=3,
        )
        assert route_offline(model, PairEmbedding.of(np.ones(2))) == 0

    def test_attains_max_score(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_model(rng, n_arms=int(rng.integers(2, 6)))
            h = PairEmbedding.of(rng.standard_normal(4))
            chosen = route_offline(model, h)
            scores = bt_scores(model, h)
            assert scores[chosen] == scores.max()

    def test_uniform_score_shift_preserves_argmax(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        h = PairEmbedding.of(rng.standard_normal(4))
        shifted = OfflineRouterModel(
            fusion=None,
            bt_embeddings=model.bt_embeddings + rng.standard_normal(4),
            cls_embeddings=model.cls_embeddings,
            lam=model.lam,
            n_arms=model.n_arms,
        )
        assert route_offline(model, h) == route_offline(shifted, h)


def separable_training_data(rng, n_pairs=400, flip=0.02):
    """Two orthogonal context clusters, two specialist models, near-clean bits."""
    pairs = make_pairs(n_pairs)
    embeddings = {}
    records = []
    for i, pair in enumerate(pairs):
        cluster = i % 2
        vec = np.zeros(8)
        vec[cluster] = 1.0
        vec += 0.15 * rng.standard_normal(8)
        embeddings[pair.pair_id] = PairEmbedding.of(vec / np.linalg.norm(vec))
        for arm in range(2):
            bit = 1 if arm == cluster else 0
            if rng.random() < flip:
                bit = 1 - bit
            records.append(BehaviorRecord(pair.pair_id, arm, bit))
    return pairs, embeddings, records


class TestTraining:
    def test_learns_separable_clusters(self):
        rng = np.random.default_rng(7)
        pairs, embeddings, records = separable_training_data(rng)
        train_n = 300
        train_ids = {p.pair_id for p in pairs[:train_n]}
        config = TrainConfig(lam=0.2, lr=0.5, epochs=30, batch_size=32, seed=0)
        result = train_offline(
            pairs[:train_n],
            [r for r in records if r.pair_id in train_ids],
            config,
            embeddings=embeddings,
        )
        holdout_embs = {p.pair_id: embeddings[p.pair_id] for p in pairs[train_n:]}
        holdout_recs = [r for r in records if r.pair_id not in train_ids]
        acc = routing_accuracy(result.model, holdout_embs, holdout_recs)
        assert acc >= 0.95
        assert len(result.history) == 30

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        pairs, embeddings, records = separable_training_data(rng, n_pairs=40)
        config = TrainConfig(lam=0.2, lr=0.3, epochs=3, batch_size=8, seed=11)
        a = train_offline(pairs, records, config, embeddings=embeddings)
        b = train_offline(pairs, records, config, embeddings=embeddings)
        assert np.array_equal(a.model.bt_embeddings, b.model.bt_embeddings)
        assert np.array_equal(a.model.cls_embeddings, b.model.cls_embeddings)
        assert a.history == b.history

    def test_empty_disagreements_raise(self):
        pairs = make_pairs(4)
        records = [BehaviorRecord(p.pair_id, n, 1) for p in pairs for n in range(2)]
        with pytest.raises(TrainError):
            train_offline(pairs, records, TrainConfig())

    def test_text_path_trains_fusion(self):
        pairs = [
            PreferencePair(f"p{i}", f"topic {i % 2} question {i}", "yes indeed", "not at all", "A")
            for i in range(12)
        ]
        records = [
            BehaviorRecord(p.pair_id, n, 1 if (n + i) % 2 else 0)
            for i, p in enumerate(pairs)
            for n in range(2)
        ]
        config = TrainConfig(epochs=2, batch_size=4, embed_dim=8, encoder_dim=32, seed=0)
        result = train_offline(pairs, records, config)
        assert result.model.fusion is not None
        assert result.model.d == 8
        assert result.model.fusion.encoder_dim == 32


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
        for _ in range(100):
            h = PairEmbedding.of(rng.standard_normal(4))
            assert route_offline(model, h) == route_offline(reloaded, h)

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
