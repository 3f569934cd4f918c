from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.cli import main
from rmrouter.errors import ConfigError, InputError
from rmrouter.gaussian import Beliefs, posterior_update
from rmrouter.offline import (
    TrainConfig,
    collect_behavior,
    extract_disagreements,
    train_offline,
)
from rmrouter.online import (
    OnlineRouterState,
    init_router,
    route_batch,
    route_weighted_score,
    state_to_dict,
)
from rmrouter.rewards import (
    SURROGATE_CORRECT_MEAN,
    SURROGATE_INCORRECT_MEAN,
    SURROGATE_STD,
    WARMUP_MIN,
    RewardHistory,
    batch_baseline_array,
    normalize_step_rewards,
    surrogate_pair_loss,
)
from rmrouter.serialize import iter_csv, write_csv
from rmrouter.sim import (
    SIM_TRAIN_BATCH,
    SIM_TRAIN_EPOCHS,
    SIM_TRAIN_LR,
    Cluster,
    ReplayConfig,
    RunMetrics,
    SimScenario,
    _draw_clusters,
    _draw_split,
    _majority_votes,
    check_run,
    compare_runs,
    fit_offline_router,
    generate_scenario,
    majority_correct_prob,
    parse_router,
    run_replay,
    scenario_from_dict,
    scenario_to_dict,
)

from disagreements import build_index_array, matrix_records
from disagreements import extract_disagreements as reference_disagreements
from ridge import RidgeReference
from scenarios import two_specialists_scenario
from test_rewards import sort_oracle_percentile


def basis_cluster(cluster_id, axis, d=8, spread=0.25):
    center = np.zeros(d)
    center[axis] = 1.0
    return Cluster(cluster_id, center, spread)


def two_cluster_scenario(pairs_per_step=50, n_steps=100, offline_pairs=400, seeds=(1,)):
    """Two orthogonal clusters, one specialist model each."""
    return SimScenario(
        n_arms=2,
        clusters=[basis_cluster(0, 0), basis_cluster(1, 1)],
        arm_profiles=[{0: 0.95, 1: 0.55}, {0: 0.55, 1: 0.95}],
        pairs_per_step=pairs_per_step,
        n_steps=n_steps,
        seeds=list(seeds),
        offline_pairs=offline_pairs,
    )


class TestScenario:
    def test_round_trip(self):
        scenario = two_cluster_scenario()
        doc = scenario_to_dict(scenario)
        back = scenario_from_dict(doc)
        assert scenario_to_dict(back) == doc

    def test_unknown_keys_rejected(self):
        doc = scenario_to_dict(two_cluster_scenario())
        doc["mystery"] = 1
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ConfigError):
            SimScenario(
                n_arms=2,
                clusters=[basis_cluster(0, 0), basis_cluster(1, 0)],
                arm_profiles=[{0: 0.9, 1: 0.9}, {0: 0.5, 1: 0.5}],
                pairs_per_step=4,
                n_steps=2,
                seeds=[0],
            )

    def test_router_names_validate(self):
        assert parse_router("single:2") == ("single", 2)
        assert parse_router("weighted:0.25") == ("weighted", 0.25)
        with pytest.raises(ConfigError) as exc:
            parse_router("sorcery")
        assert "thompson" in str(exc.value)
        with pytest.raises(ConfigError):
            parse_router("random:3")
        for bad in ("single:abc", "single:1.5", "weighted:x"):
            with pytest.raises(ConfigError):
                parse_router(bad)


class TestGenerateScenario:
    def test_oracle_best_arm_differs_by_cluster(self):
        dataset = generate_scenario(two_cluster_scenario(), 0)
        best = np.argmax(dataset.profiles, axis=0)
        assert best[0] == 0 and best[1] == 1

    def test_same_seed_bitwise_identical(self):
        scenario = two_cluster_scenario(pairs_per_step=8, n_steps=5, offline_pairs=16)
        a = generate_scenario(scenario, 123)
        b = generate_scenario(scenario, 123)
        assert np.array_equal(a.stream.answers, b.stream.answers)
        assert np.array_equal(a.offline.answers, b.offline.answers)
        assert np.array_equal(a.stream.clusters, b.stream.clusters)
        for pid in a.stream.embeddings:
            assert np.array_equal(a.stream.embeddings[pid].vector, b.stream.embeddings[pid].vector)

    def test_embeddings_are_views_of_the_context_matrix(self):
        scenario = two_cluster_scenario(pairs_per_step=8, n_steps=5, offline_pairs=16)
        dataset = generate_scenario(scenario, 5)
        for split in (dataset.offline, dataset.stream):
            assert split.contexts.shape == (split.n, scenario.d)
            for i, pair in enumerate(split.pairs):
                vector = split.embeddings[pair.pair_id].vector
                assert np.array_equal(split.contexts[i], vector)
                assert np.shares_memory(split.contexts, vector)

    def test_empirical_accuracy_matches_profile(self):
        scenario = two_cluster_scenario(pairs_per_step=4, n_steps=2, offline_pairs=10_000)
        dataset = generate_scenario(scenario, 7)
        split = dataset.offline
        for arm in range(2):
            for cluster in range(2):
                mask = split.clusters == cluster
                rate = split.correct[mask, arm].mean()
                assert abs(rate - dataset.profiles[arm, cluster]) < 0.02

    def test_collect_behavior_agrees_with_truth_table(self):
        dataset = generate_scenario(two_cluster_scenario(4, 2, offline_pairs=20), 3)
        split = dataset.offline
        assert np.array_equal(collect_behavior(split.answers, split.labels), split.correct)
        for pair, answers, bits in zip(split.pairs, split.answers, split.correct.tolist()):
            assert bits == [int(answer == pair.label) for answer in answers]


class TestScenarioChecks:
    @pytest.mark.parametrize(
        "call",
        [
            lambda scenario: replace(scenario, seeds=[-1]),
            lambda scenario: replace(scenario, seeds=[1, 1]),
            lambda scenario: ReplayConfig(seed=-1),
            lambda scenario: TrainConfig(seed=-1),
            lambda scenario: generate_scenario(scenario, -1),
            lambda scenario: compare_runs(
                [SimpleNamespace(router=r, seed=1, final_annotation_accuracy=0.5)
                 for r in ("random", "oracle")],
                baseline=0, seed=-1,
            ),
        ],
        ids=["scenario-negative", "scenario-repeated", "replay-config", "train-config",
             "generate-scenario", "compare-runs"],
    )
    def test_bad_seed_raises_config_error(self, call):
        # numpy's generators take no negative seed; the library says so itself
        with pytest.raises(ConfigError, match="seed"):
            call(two_cluster_scenario(pairs_per_step=4, n_steps=2))

    @pytest.mark.parametrize(
        "field, value", [("center", np.nan), ("center", np.inf), ("spread", np.nan),
                         ("spread", -np.inf), ("spread", np.inf)]
    )
    def test_non_finite_cluster_geometry_rejected(self, field, value):
        doc = scenario_to_dict(two_cluster_scenario(pairs_per_step=4, n_steps=2))
        if field == "center":
            doc["clusters"][1]["center"][0] = value
        else:
            doc["clusters"][1]["spread"] = value
        with pytest.raises(ConfigError, match=field):
            generate_scenario(scenario_from_dict(doc), 0)

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_huge_centre_entry_gives_unit_contexts(self, big):
        # h.h overflows for cluster 1's rows: they are rescaled, cluster 0's keep their bits
        doc = scenario_to_dict(two_cluster_scenario(pairs_per_step=8, n_steps=4, offline_pairs=16))
        want = generate_scenario(scenario_from_dict(doc), 3)
        doc["clusters"][1]["center"][0] = big
        got = generate_scenario(scenario_from_dict(doc), 3)
        for split, reference in ((got.offline, want.offline), (got.stream, want.stream)):
            assert np.array_equal(split.clusters, reference.clusters)
            assert np.array_equal(split.correct, reference.correct)
            ordinary = split.clusters == 0
            assert split.contexts[ordinary].tobytes() == reference.contexts[ordinary].tobytes()
            assert (~ordinary).any()
            norms = np.linalg.norm(split.contexts[~ordinary], axis=1)
            assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tiny, spread", [(1e-200, 0.0), (1e-200, 1e-210), (2e-162, 0.0)])
    def test_tiny_centre_gives_unit_contexts(self, tiny, spread):
        # h.h underflows to 0 or a subnormal for cluster 1's rows: they are
        # rescaled, not left tiny or off the unit sphere
        doc = scenario_to_dict(two_cluster_scenario(pairs_per_step=8, n_steps=4, offline_pairs=16))
        want = generate_scenario(scenario_from_dict(doc), 3)
        doc["clusters"][1].update(center=[tiny] + [0.0] * 7, spread=spread)
        got = generate_scenario(scenario_from_dict(doc), 3)
        for split, reference in ((got.offline, want.offline), (got.stream, want.stream)):
            assert np.array_equal(split.correct, reference.correct)
            ordinary = split.clusters == 0
            assert split.contexts[ordinary].tobytes() == reference.contexts[ordinary].tobytes()
            assert (~ordinary).any()
            tiny = split.contexts[~ordinary]
            assert np.allclose(np.linalg.norm(tiny, axis=1), 1.0, rtol=0, atol=1e-12)
            if spread == 0.0:
                assert (tiny == np.eye(8)[0]).all()

    def test_context_past_float64_rejected(self):
        doc = scenario_to_dict(two_cluster_scenario(pairs_per_step=8, n_steps=4))
        doc["clusters"][1]["spread"] = 1e308  # a noise draw past 1.8 overflows the entry
        with pytest.raises(ConfigError, match="overflow"):
            generate_scenario(scenario_from_dict(doc), 3)

    def test_nan_mixture_rejected(self):
        doc = scenario_to_dict(two_cluster_scenario(pairs_per_step=4, n_steps=2))
        doc["mixture_before"] = [np.nan, 1.0]
        with pytest.raises(ConfigError, match="mixture_before"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -0.5])
    def test_bad_linucb_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError, match="linucb_alpha"):
            ReplayConfig(linucb_alpha=alpha)

    @pytest.mark.parametrize(
        "field, value",
        [("sigma_sq", np.nan), ("sigma_sq", np.inf), ("sigma_sq", 0.0), ("sigma_sq", -1.0),
         ("prior_variance", np.nan), ("prior_variance", 0.0), ("prior_variance", -1.0),
         ("light_c", 0)],
    )
    def test_bad_variance_or_comparator_count_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ReplayConfig(**{field: value})


def per_row_split(scenario, prefix, cluster_ids, rng, rm_rngs, profiles):
    """The split as it was drawn one pair at a time: (contexts, labels, answers, pairs)."""
    n = len(cluster_ids)
    contexts = np.empty((n, scenario.d))
    labels = np.where(rng.random(n) < 0.5, "A", "B")
    pairs = []
    for i, c in enumerate(cluster_ids):
        cluster = scenario.clusters[int(c)]
        vec = cluster.center + cluster.spread * rng.standard_normal(scenario.d)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec = cluster.center.copy()
            norm = np.linalg.norm(vec) or 1.0
        pair_id = f"{prefix}-{i:06d}"
        pairs.append((pair_id, f"prompt {pair_id} topic {int(c)}", str(labels[i])))
        contexts[i] = vec / norm
    answers = np.empty((n, scenario.n_arms), dtype="<U1")
    flipped = np.where(labels == "A", "B", "A")
    for arm in range(scenario.n_arms):
        hit = rm_rngs[arm].random(n) < profiles[arm, cluster_ids]
        answers[:, arm] = np.where(hit, labels, flipped)
    return contexts, labels, answers, pairs


def geometry_scenario(d, spreads, seed, zero_cluster, n_arms=3, n_steps=2, drift_step=None,
                      mixtures=(None, None)):
    """Random distinct centres; with ``zero_cluster`` cluster 0 is the origin, spread 0."""
    centers = np.random.default_rng(seed).standard_normal((len(spreads), d))
    spreads = list(spreads)
    if zero_cluster:
        centers[0], spreads[0] = 0.0, 0.0
    profiles = np.random.default_rng(seed + 1).uniform(0.3, 0.9, (n_arms, len(spreads)))
    return SimScenario(
        n_arms=n_arms,
        clusters=[Cluster(c, centers[c], spreads[c]) for c in range(len(spreads))],
        arm_profiles=[dict(enumerate(row.tolist())) for row in profiles],
        pairs_per_step=4,
        n_steps=n_steps,
        seeds=[0],
        mixture_before=mixtures[0],
        mixture_after=mixtures[1],
        drift_step=drift_step,
    )


class TestColumnarGeneration:
    """The columnar scenario draws equal the earlier per-pair ones, bit for bit."""

    def assert_split_matches(self, scenario, cluster_ids, seed):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        rm_a = [np.random.default_rng(seed + 1 + n) for n in range(scenario.n_arms)]
        rm_b = [np.random.default_rng(seed + 1 + n) for n in range(scenario.n_arms)]
        profiles = scenario.profile_matrix()
        split = _draw_split(scenario, "tst", cluster_ids, rng_a, rm_a, profiles)
        contexts, labels, answers, pairs = per_row_split(
            scenario, "tst", cluster_ids, rng_b, rm_b, profiles
        )
        assert split.contexts.tobytes() == contexts.tobytes()
        assert np.array_equal(split.labels, labels)
        assert split.correct.dtype == np.uint8
        assert np.array_equal(split.correct, answers == labels[:, None])
        assert np.array_equal(split.answers, answers)
        # the truth table is held as bits: no (n, N) "A"/"B" matrix is stored
        assert not any(
            isinstance(value, np.ndarray) and value.dtype.kind == "U" and value.ndim == 2
            for value in vars(split).values()
        )
        assert [(p.pair_id, p.prompt, p.label) for p in split.pairs] == pairs
        assert rng_a.random() == rng_b.random()
        assert [r.random() for r in rm_a] == [r.random() for r in rm_b]
        assert np.isfinite(split.contexts).all()

    @settings(deadline=None, max_examples=60)
    @given(
        d=st.sampled_from([1, 2, 3, 5, 16, 17, 64, 256]),
        n=st.integers(0, 60),
        spreads=st.lists(st.sampled_from([0.0, 1e-3, 0.25, 1.0, 7.5]), min_size=1, max_size=4),
        zero_cluster=st.booleans(),
        seed=st.integers(0, 2**32 - 2),
    )
    def test_draw_split_matches_per_row_loop(self, d, n, spreads, zero_cluster, seed):
        scenario = geometry_scenario(d, spreads, seed, zero_cluster)
        cluster_ids = np.random.default_rng(seed).integers(0, len(spreads), n)
        if zero_cluster and n:
            cluster_ids[0] = 0
        self.assert_split_matches(scenario, cluster_ids, seed)

    @pytest.mark.parametrize("d", [16, 64, 256])
    def test_many_rows_match_per_row_norms(self, d):
        # a row-norm reduction that differs in the last bit shows up in some of these rows
        scenario = geometry_scenario(d, [0.25, 1.0, 3.0], seed=d, zero_cluster=True)
        cluster_ids = np.random.default_rng(d).integers(0, 3, 2000)
        self.assert_split_matches(scenario, cluster_ids, seed=d)

    def test_zero_centre_with_zero_spread_gives_zero_context(self):
        scenario = geometry_scenario(4, [0.0, 0.5], seed=2, zero_cluster=True)
        split = _draw_split(
            scenario, "z", np.array([0, 1, 0]), np.random.default_rng(0),
            [np.random.default_rng(n) for n in range(3)], scenario.profile_matrix(),
        )
        assert np.array_equal(split.contexts[[0, 2]], np.zeros((2, 4)))
        assert np.linalg.norm(split.contexts[1]) == pytest.approx(1.0)

    @settings(deadline=None, max_examples=60)
    @given(
        n_clusters=st.integers(1, 5),
        n_steps=st.integers(2, 12),
        per_step=st.integers(1, 9),
        drift=st.booleans(),
        seed=st.integers(0, 2**32 - 2),
    )
    def test_cluster_draws_match_per_step_choice(self, n_clusters, n_steps, per_step, drift,
                                                 seed):
        rng = np.random.default_rng(seed)
        mixtures = (None, None)
        drift_step = None
        if drift:
            before, after = rng.dirichlet(np.ones(n_clusters), 2)
            mixtures = (before.tolist(), after.tolist())
            drift_step = int(rng.integers(1, n_steps))
        scenario = geometry_scenario(3, [0.25] * n_clusters, seed, False, n_steps=n_steps,
                                     drift_step=drift_step, mixtures=mixtures)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        n = per_step * n_steps
        switch = (drift_step or n_steps) * per_step
        got = _draw_clusters(scenario, rng_a, n, switch)
        want = np.concatenate(
            [rng_b.choice(n_clusters, size=per_step, p=scenario.mixture_at(t))
             for t in range(n_steps)]
        )
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert rng_a.random() == rng_b.random()
        # the offline corpus: every pair from the initial mixture, one call
        got = _draw_clusters(scenario, rng_a, n, n)
        want = rng_b.choice(n_clusters, size=n, p=scenario.mixture_at(0))
        assert np.array_equal(got, want)
        assert rng_a.random() == rng_b.random()

    def test_pair_ids_name_rows(self):
        split = generate_scenario(two_cluster_scenario(4, 2, offline_pairs=12), 1).offline
        assert list(split.embeddings) == [p.pair_id for p in split.pairs]
        assert len(split.embeddings) == split.n == 12
        assert split.row_of("off-000011") == 11
        for bad in ("off-000012", "off-11", "str-000001", "off-0000011", "off--00001", 7):
            assert bad not in split.embeddings
            with pytest.raises(KeyError):
                split.row_of(bad)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_offline_arrays_match_record_path(self, seed):
        scenario = two_specialists_scenario(pairs_per_step=4, n_steps=2, offline_pairs=150,
                                            n_filler_arms=2)
        dataset = generate_scenario(scenario, seed)
        split = dataset.offline
        pair_ids = [p.pair_id for p in split.pairs]
        records = matrix_records(pair_ids, split.correct)
        want_bt = build_index_array(pair_ids, reference_disagreements(records))
        bt = extract_disagreements(split.correct)
        assert bt.dtype == np.int64 and np.array_equal(bt, want_bt)
        # the bit matrix and its mask rebuilt from the records, trained with the
        # mask where fit_offline_router passes None
        row_of = {pair_id: row for row, pair_id in enumerate(pair_ids)}
        correct = np.zeros((split.n, scenario.n_arms), dtype=np.uint8)
        observed = np.zeros(correct.shape, dtype=bool)
        for pair_id, rm, bit in records:
            correct[row_of[pair_id], rm], observed[row_of[pair_id], rm] = bit, True
        config = TrainConfig(
            lr=SIM_TRAIN_LR, epochs=SIM_TRAIN_EPOCHS, batch_size=SIM_TRAIN_BATCH, seed=seed
        )
        got = fit_offline_router(dataset, seed=seed)
        contexts = np.stack([split.embeddings[pair_id].vector for pair_id in pair_ids])
        want = train_offline(contexts, correct, observed, config)
        assert np.array_equal(got.model.bt_embeddings, want.model.bt_embeddings)
        assert np.array_equal(got.model.cls_embeddings, want.model.cls_embeddings)
        assert got.history == want.history


def bits(*rows):
    return np.array(rows, dtype=np.uint8)


def answers_of(correct, labels):
    """The "A"/"B" answer matrix of a bit matrix: the label where the bit is 1."""
    flipped = np.where(labels == "A", "B", "A")
    return np.where(correct, labels[:, None], flipped[:, None])


class TestMajority:
    def test_consensus_three_of_four(self):
        right, consensus, attributed = _majority_votes(bits([1, 1, 1, 0]))
        assert right.tolist() == [True]
        assert consensus[0] == 0.75
        assert attributed[0] == 0

    def test_attributed_arm_is_first_with_the_majority(self):
        right, consensus, attributed = _majority_votes(bits([0, 1, 1, 1], [1, 0, 0, 0]))
        assert right.tolist() == [True, False]
        assert consensus.tolist() == [0.75, 0.75]
        assert attributed.tolist() == [1, 1]

    def test_tie_takes_lowest_index_label(self):
        right, consensus, attributed = _majority_votes(bits([0, 1, 1, 0], [1, 0, 0, 1]))
        assert right.tolist() == [False, True]
        assert consensus.tolist() == [0.5, 0.5]
        assert attributed.tolist() == [0, 0]

    def test_majority_prob_enumeration_matches_simulation(self):
        rng = np.random.default_rng(0)
        probs = [0.9, 0.6, 0.7, 0.55]
        exact = majority_correct_prob(probs)
        draws = rng.random((200_000, 4)) < np.asarray(probs)
        hits = (draws.sum(axis=1) > 2) | ((draws.sum(axis=1) == 2) & draws[:, 0])
        assert abs(exact - hits.mean()) < 0.005


def majority_labels_loop(answers):
    """Reference: the per-pair vote count."""
    n_pairs, n_arms = answers.shape
    labels = np.empty(n_pairs, dtype="<U1")
    consensus = np.empty(n_pairs)
    attributed = np.empty(n_pairs, dtype=np.int64)
    for i in range(n_pairs):
        votes_a = int(np.sum(answers[i] == "A"))
        votes_b = n_arms - votes_a
        if votes_a > votes_b:
            label = "A"
        elif votes_b > votes_a:
            label = "B"
        else:
            label = str(answers[i, 0])
        labels[i] = label
        consensus[i] = max(votes_a, votes_b) / n_arms
        attributed[i] = int(np.argmax(answers[i] == label))
    return labels, consensus, attributed


def ensemble_metrics_reference(router, dataset, seed):
    """Reference: an ensemble replay's metrics with the votes counted on the "A"/"B" answers."""
    scenario, stream = dataset.scenario, dataset.stream
    n_arms, batch_size, n_steps = scenario.n_arms, scenario.pairs_per_step, scenario.n_steps
    votes, consensus, attributed = majority_labels_loop(stream.answers)
    probs = [majority_correct_prob(dataset.profiles[:, c]) for c in range(scenario.n_clusters)]
    expected = np.array(probs)[stream.clusters]
    per_step = (n_steps, batch_size)
    regret = (dataset.profiles.max(axis=0)[stream.clusters] - expected).reshape(per_step)
    hits = (votes == stream.labels).astype(np.uint8).reshape(per_step).sum(axis=1)
    uwo = np.cumsum(consensus.reshape(per_step).sum(axis=1))[-1] if router == "uwo" else None
    return RunMetrics(
        router=router,
        seed=seed,
        routing_accuracy_per_step=(hits / batch_size).tolist(),
        cumulative_regret=np.cumsum(regret.sum(axis=1)).tolist(),
        arm_selection_counts=np.bincount(attributed, minlength=n_arms),
        final_annotation_accuracy=int(hits.sum()) / stream.n,
        rm_calls_per_step=[n_arms * batch_size] * n_steps,
        mean_uwo_weight=None if uwo is None else float(uwo) / stream.n,
    )


def majority_prob_enumeration(probs):
    """Reference: sum over all 2^N correctness outcomes."""
    n = len(probs)
    total = 0.0
    for mask in range(1 << n):
        bits = [(mask >> i) & 1 for i in range(n)]
        weight = 1.0
        for b, q in zip(bits, probs):
            weight *= q if b else (1.0 - q)
        hits = sum(bits)
        if 2 * hits > n or (2 * hits == n and bits[0] == 1):
            total += weight
    return total


def assert_votes_match_loop(correct, labels):
    right, consensus, attributed = _majority_votes(correct)
    want_labels, want_consensus, want_attributed = majority_labels_loop(answers_of(correct, labels))
    assert right.dtype == bool and np.array_equal(right, want_labels == labels)
    assert np.array_equal(consensus, want_consensus)
    assert attributed.dtype == want_attributed.dtype
    assert np.array_equal(attributed, want_attributed)


class TestMajorityReferences:
    @settings(deadline=None, max_examples=60)
    @given(n_pairs=st.integers(0, 12), n_arms=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_labels_match_loop(self, n_pairs, n_arms, seed):
        rng = np.random.default_rng(seed)
        correct = rng.integers(0, 2, size=(n_pairs, n_arms), dtype=np.uint8)
        labels = rng.choice(np.array(["A", "B"]), size=n_pairs)
        assert_votes_match_loop(correct, labels)

    @pytest.mark.parametrize("n_arms", [2, 4, 6])
    def test_every_vote_pattern_of_even_pools(self, n_arms):
        # all 2^N bit rows under both labels: every tie, each broken by model 0
        patterns = (np.arange(2**n_arms)[:, None] >> np.arange(n_arms)) & 1
        correct = np.tile(patterns, (2, 1)).astype(np.uint8)
        labels = np.repeat(np.array(["A", "B"]), 2**n_arms)
        assert_votes_match_loop(correct, labels)

    @settings(deadline=None, max_examples=100)
    @given(probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_prob_matches_enumeration(self, probs):
        assert abs(majority_correct_prob(probs) - majority_prob_enumeration(probs)) <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(
        n_arms=st.integers(2, 9),
        n_clusters=st.integers(1, 4),
        n_steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 2),
        router=st.sampled_from(["majority", "uwo"]),
    )
    def test_replay_matches_string_votes(self, n_arms, n_clusters, n_steps, seed, router):
        scenario = geometry_scenario(3, [0.25] * n_clusters, seed, False, n_arms=n_arms,
                                     n_steps=n_steps)
        dataset = generate_scenario(scenario, seed)
        got = run_replay(router, dataset, ReplayConfig(seed=seed))
        want = ensemble_metrics_reference(router, dataset, seed)
        for field in fields(RunMetrics):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b) and np.array_equal(a, b), field.name

    def test_majority_replay_with_64_arms(self):
        n_arms = 64
        scenario = SimScenario(
            n_arms=n_arms,
            clusters=[basis_cluster(0, 0), basis_cluster(1, 1)],
            arm_profiles=[{0: 0.5 + 0.4 * (n % 2), 1: 0.9 - 0.4 * (n % 2)} for n in range(n_arms)],
            pairs_per_step=8,
            n_steps=4,
            seeds=[1],
            offline_pairs=0,
        )
        metrics = run_replay("majority", generate_scenario(scenario, 1), ReplayConfig(seed=1))
        assert metrics.arm_selection_counts.sum() == 8 * 4
        assert metrics.rm_calls_per_step == [n_arms * 8] * 4
        # the vote beats the best single arm, so regret against that arm falls
        assert metrics.cumulative_regret[-1] < 0


class TestRunReplay:
    def test_random_router_hits_profile_mean(self):
        dataset = generate_scenario(two_cluster_scenario(), 11)
        metrics = run_replay("random", dataset, ReplayConfig(seed=11))
        assert abs(metrics.final_annotation_accuracy - 0.75) < 0.02

    def test_oracle_router_hits_best_profile(self):
        dataset = generate_scenario(two_cluster_scenario(), 12)
        metrics = run_replay("oracle", dataset, ReplayConfig(seed=12))
        assert abs(metrics.final_annotation_accuracy - 0.95) < 0.02

    def test_single_router_uses_one_arm(self):
        dataset = generate_scenario(two_cluster_scenario(10, 20), 13)
        metrics = run_replay("single:1", dataset, ReplayConfig(seed=13))
        assert metrics.arm_selection_counts[1] == 10 * 20
        assert metrics.arm_selection_counts[0] == 0

    def test_call_accounting(self):
        scenario = two_cluster_scenario(pairs_per_step=16, n_steps=6, offline_pairs=32)
        dataset = generate_scenario(scenario, 14)
        for router in ("random", "single:0", "thompson", "oracle"):
            metrics = run_replay(router, dataset, ReplayConfig(seed=14))
            assert metrics.rm_calls_per_step == [16] * 6, router
        for router in ("majority", "uwo"):
            metrics = run_replay(router, dataset, ReplayConfig(seed=14))
            assert metrics.rm_calls_per_step == [2 * 16] * 6, router
        metrics = run_replay(
            "thompson", dataset, ReplayConfig(seed=14, reward_variant="full_advantage")
        )
        assert metrics.rm_calls_per_step == [16 + 16 * (2 - 1)] * 6
        metrics = run_replay(
            "thompson", dataset, ReplayConfig(seed=14, reward_variant="light_advantage", light_c=1)
        )
        assert metrics.rm_calls_per_step == [16 + 16] * 6

    def test_light_c_must_leave_a_comparator_out(self):
        dataset = generate_scenario(two_cluster_scenario(pairs_per_step=4, n_steps=2), 14)
        config = ReplayConfig(seed=14, reward_variant="light_advantage", light_c=2)
        with pytest.raises(ConfigError, match="comparator count"):
            run_replay("thompson", dataset, config)

    def test_light_c_is_checked_only_for_routers_that_compute_rewards(self):
        scenario = two_cluster_scenario(pairs_per_step=4, n_steps=2)
        config = ReplayConfig(seed=14, reward_variant="light_advantage", light_c=5)
        for router in ("thompson", "linucb"):
            with pytest.raises(ConfigError, match=r"comparator count 5 must be in \[1, 1\]"):
                check_run(router, scenario, config)
        dataset = generate_scenario(scenario, 14)
        for router in ("random", "single:1", "majority", "uwo", "oracle"):
            check_run(router, scenario, config)
            metrics = run_replay(router, dataset, config)
            assert metrics.rm_calls_per_step == run_replay(router, dataset).rm_calls_per_step

    @pytest.mark.parametrize(
        "variant, light_c", [("full_advantage", 3), ("light_advantage", 1), ("light_advantage", 3)]
    )
    def test_advantage_rewards_binary_and_rerun_bitwise(self, variant, light_c):
        dataset = generate_scenario(two_specialists_scenario(8, 10, n_filler_arms=2), 16)
        runs = []
        for _ in range(2):
            reward_log, states = [], []
            config = ReplayConfig(seed=16, reward_variant=variant, light_c=light_c)
            metrics = run_replay("thompson", dataset, config, reward_log=reward_log,
                                 final_state_out=states)
            counts = metrics.arm_selection_counts.tolist()
            runs.append((metrics.cumulative_regret, counts, reward_log, state_to_dict(states[0])))
        log = runs[0][2]
        assert {row["raw_reward"] for row in log} == {0.0, 1.0}
        assert all(row["normalized_reward"] == row["raw_reward"] for row in log)
        assert runs[0] == runs[1]

    def test_replay_reproducible_bitwise_every_router(self):
        dataset = generate_scenario(two_cluster_scenario(8, 20, offline_pairs=100), 15)
        prior = fit_offline_router(dataset, seed=15).model.bt_embeddings
        routers = [
            "thompson", "offline", "linucb", "random", "single:1",
            "majority", "uwo", "weighted:0.5", "oracle",
        ]
        for router in routers:
            config = ReplayConfig(seed=15, offline_prior=prior)
            a = run_replay(router, dataset, config)
            b = run_replay(router, dataset, ReplayConfig(seed=15, offline_prior=prior))
            assert a.routing_accuracy_per_step == b.routing_accuracy_per_step, router
            assert a.cumulative_regret == b.cumulative_regret, router
            assert np.array_equal(a.arm_selection_counts, b.arm_selection_counts), router
            assert a.final_annotation_accuracy == b.final_annotation_accuracy, router

    @pytest.mark.parametrize("options", [{"sigma_sq": 4.0}, {"prior_variance": 0.25}])
    def test_linucb_ridge_ignores_variance_options(self, options):
        """LinUCB's prior and noise variance stay 1 whatever the config says."""
        dataset = generate_scenario(two_cluster_scenario(8, 12), 24)
        runs = []
        for config in (ReplayConfig(seed=24), ReplayConfig(seed=24, **options)):
            decision_log, states = [], []
            metrics = run_replay("linucb", dataset, config, decision_log, final_state_out=states)
            runs.append((metrics, decision_log, state_to_dict(states[0])))
        (a, log_a, state_a), (b, log_b, state_b) = runs
        assert a.routing_accuracy_per_step == b.routing_accuracy_per_step
        assert a.cumulative_regret == b.cumulative_regret
        assert np.array_equal(a.arm_selection_counts, b.arm_selection_counts)
        assert log_a == log_b and state_a == state_b

    def test_invariant_violation_raises(self):
        from rmrouter.errors import InvariantError

        dataset = generate_scenario(two_cluster_scenario(4, 3), 20)
        metrics = run_replay("random", dataset, ReplayConfig(seed=20))
        metrics.arm_selection_counts = metrics.arm_selection_counts + 1
        with pytest.raises(InvariantError):
            metrics.validate(4, 3)

    def test_uwo_reports_mean_weight(self):
        dataset = generate_scenario(two_cluster_scenario(10, 10), 16)
        metrics = run_replay("uwo", dataset, ReplayConfig(seed=16))
        assert metrics.mean_uwo_weight is not None
        assert 0.5 <= metrics.mean_uwo_weight <= 1.0
        assert run_replay("majority", dataset, ReplayConfig(seed=16)).mean_uwo_weight is None

    def test_oracle_sandwich(self):
        scenario = two_cluster_scenario(pairs_per_step=25, n_steps=40, offline_pairs=300)
        dataset = generate_scenario(scenario, 17)
        result = fit_offline_router(dataset, seed=17)
        prior = result.model.bt_embeddings
        lo, hi = 0.75 - 0.03, 0.95 + 0.03  # worst single arm, profile oracle
        for router in ("random", "thompson", "offline", "majority", "uwo", "single:0", "linucb"):
            config = ReplayConfig(seed=17, offline_prior=prior)
            acc = run_replay(router, dataset, config).final_annotation_accuracy
            assert lo <= acc <= hi, (router, acc)

    def test_missing_prior_rejected(self):
        dataset = generate_scenario(two_cluster_scenario(4, 2), 18)
        with pytest.raises(ConfigError):
            run_replay("offline", dataset, ReplayConfig(seed=18))
        with pytest.raises(ConfigError):
            run_replay("thompson", dataset, ReplayConfig(seed=18, prior_mode="injected"))

    def test_decision_and_reward_logs(self):
        dataset = generate_scenario(two_cluster_scenario(4, 3), 19)
        decision_log, reward_log = [], []
        run_replay(
            "thompson",
            dataset,
            ReplayConfig(seed=19),
            decision_log=decision_log,
            reward_log=reward_log,
        )
        assert len(decision_log) == 4 * 3
        assert len(reward_log) == 4 * 3
        assert {"step", "pair_id", "chosen_arm", "sampled_scores"} <= set(decision_log[0])
        assert {"step", "pair_id", "raw_reward", "normalized_reward", "q_lo", "q_hi"} <= set(
            reward_log[0]
        )


class TestDriftAdaptation:
    def test_hybrid_recovers_offline_does_not(self):
        """After the mixture shift, online updates pull accuracy back to the
        pre-shift level while the frozen offline router stays degraded."""
        from scenarios import drift_scenario, run_hybrid_suite

        scenario = drift_scenario(seeds=range(5))
        offline_gaps, hybrid_gaps = [], []
        for seed in scenario.seeds:
            dataset = generate_scenario(scenario, seed)
            runs = run_hybrid_suite(dataset, seed)
            for name, store in (("offline", offline_gaps), ("hybrid", hybrid_gaps)):
                acc = np.array(runs[name].routing_accuracy_per_step)
                pre = acc[30:40].mean()
                post_tail = acc[60:70].mean()  # 20-30 steps after the shift
                store.append(pre - post_tail)
        assert np.mean(hybrid_gaps) < 0.05
        assert np.mean(offline_gaps) > 0.05


class TestCompareRuns:
    def run_some(self, routers, seeds):
        scenario = two_cluster_scenario(pairs_per_step=10, n_steps=10)
        out = []
        for seed in seeds:
            dataset = generate_scenario(scenario, seed)
            for router in routers:
                out.append(run_replay(router, dataset, ReplayConfig(seed=seed)))
        return out

    def test_identical_runs_zero_delta(self):
        runs = self.run_some(["random"], seeds=[1, 2, 3])
        twin = self.run_some(["random"], seeds=[1, 2, 3])
        for m in twin:
            m.router = "random-twin"
        report = compare_runs(runs + twin, baseline=0)
        assert np.array_equal(report.deltas["random-twin"], np.zeros(3))

    def test_csv_row_count(self, tmp_path):
        # the report that compare --out writes: one row per router and seed
        runs = self.run_some(["random", "oracle", "single:0"], seeds=[1, 2])
        summary, report = tmp_path / "summary.csv", tmp_path / "report.csv"
        header = ["router", "seed", "final_annotation_accuracy"]
        write_csv(summary, "runs", header, [[getattr(m, name) for name in header] for m in runs])
        assert main(["compare", "--summary", str(summary), "--baseline", "0",
                     "--out", str(report)]) == 0
        rows = [row for _, row in iter_csv(report)]
        assert len(rows) == 3 * 2
        assert list(rows[0]) == header + ["delta_vs_baseline"]

    def test_mismatched_seed_sets_rejected(self):
        runs = self.run_some(["random"], seeds=[1, 2]) + self.run_some(["oracle"], seeds=[2, 3])
        with pytest.raises(InputError):
            compare_runs(runs, baseline=0)

    def test_real_gap_has_positive_ci(self):
        runs = self.run_some(["random", "oracle"], seeds=[1, 2, 3, 4, 5])
        report = compare_runs(runs, baseline=0)
        entry = next(e for e in report.summary if e["router"] == "oracle")
        assert entry["ci_lo"] > 0


# ---------------------------------------------------------------------------
# the replay loop against a per-pair rebuild from the public API


def reference_replay(router, dataset, config):
    """The replay rebuilt pair by pair (batch_quantile rewards): one scalar loss
    draw per pair, and each arm's rows fed to the conjugate update in batch
    order; linucb from Li et al.'s ridge statistics instead.

    Returns (per-step accuracies, cumulative regret, selection counts, final
    accuracy, final router state or linucb's RidgeReference, linucb's (B, N)
    scores per step or None).
    """
    scenario, stream = dataset.scenario, dataset.stream
    n_arms, d, size = scenario.n_arms, scenario.d, scenario.pairs_per_step
    kind, alpha = parse_router(router)
    seed_rng = np.random.default_rng(config.seed)
    route_rng, loss_rng, _ = [np.random.default_rng(seed_rng.integers(2**63)) for _ in range(3)]
    scores = None
    if kind == "thompson":
        injected = config.prior_mode == "injected"
        state = init_router(
            n_arms, d, config.prior_mode, config.offline_prior if injected else None,
            config.sigma_sq, config.prior_variance,
        )
    elif kind == "weighted":
        state = init_router(n_arms, d, sigma_sq=config.sigma_sq)
    else:
        state, scores = RidgeReference(n_arms, d), []
    history = RewardHistory()
    best = dataset.profiles.max(axis=0)
    accuracy, regret, counts, cum, hits = [], [], np.zeros(n_arms, dtype=np.int64), 0.0, 0
    for step in range(scenario.n_steps):
        rows = slice(step * size, (step + 1) * size)
        contexts = np.stack([stream.embeddings[p.pair_id].vector for p in stream.pairs[rows]])
        if kind == "thompson":
            chosen, _ = route_batch(state, contexts, route_rng)
        elif kind == "linucb":
            chosen, step_scores = state.route(
                contexts, config.linucb_alpha, config.linucb_per_pair
            )
            scores.append(step_scores)
        else:
            chosen = route_weighted_score(config.offline_prior, state, contexts, alpha, route_rng)
        bits = stream.correct[rows][np.arange(size), chosen]
        losses = [
            loss_rng.normal(SURROGATE_CORRECT_MEAN if bit else SURROGATE_INCORRECT_MEAN,
                            SURROGATE_STD)
            for bit in bits
        ]
        rewards, _ = normalize_step_rewards(batch_baseline_array(losses), history)
        if kind == "linucb":
            state.update(contexts, chosen, rewards)
        else:
            arms = list(state.arms)
            for n in range(n_arms):
                mine = [i for i in range(size) if chosen[i] == n]
                if mine:
                    arms[n] = posterior_update(arms[n], contexts[mine], rewards[mine])
            state = OnlineRouterState(
                Beliefs.stack(arms), state.prior_variance, state.prior_mode, state.step + 1
            )
        accuracy.append(int(bits.sum()) / size)
        hits += int(bits.sum())
        clusters = stream.clusters[rows]
        cum += float(np.sum(best[clusters] - dataset.profiles[chosen, clusters]))
        regret.append(cum)
        counts += np.bincount(chosen, minlength=n_arms)
    return accuracy, regret, counts, hits / stream.n, state, scores


class TestArrayReplayMatchesPerPairApi:
    @pytest.fixture(scope="class")
    def dataset_and_prior(self):
        scenario = two_cluster_scenario(pairs_per_step=16, n_steps=12, offline_pairs=120)
        dataset = generate_scenario(scenario, 21)
        return dataset, fit_offline_router(dataset, seed=21).model.bt_embeddings

    @pytest.mark.parametrize(
        "router, options",
        [
            ("thompson", {}),
            ("thompson", {"prior_mode": "injected"}),
            ("thompson", {"sigma_sq": 0.5, "prior_variance": 2.0}),
            ("weighted:0.5", {}),
            ("linucb", {}),
            ("linucb", {"linucb_per_pair": True}),
        ],
    )
    def test_bit_identical(self, dataset_and_prior, router, options):
        dataset, prior = dataset_and_prior
        config = ReplayConfig(seed=21, offline_prior=prior, **options)
        states, decision_log = [], []
        got = run_replay(router, dataset, config, decision_log, final_state_out=states)
        accuracy, regret, counts, final, state, scores = reference_replay(router, dataset, config)
        assert got.routing_accuracy_per_step == accuracy
        assert got.cumulative_regret == regret
        assert np.array_equal(got.arm_selection_counts, counts)
        assert got.final_annotation_accuracy == final
        if isinstance(state, RidgeReference):  # the same model, reached by other arithmetic
            logged = np.array([row["sampled_scores"] for row in decision_log])
            assert np.allclose(logged, np.concatenate(scores), rtol=1e-10, atol=1e-12)
            state.assert_posterior_matches(states[0])
            return
        assert np.array_equal(states[0].selection_counts, state.selection_counts)
        # the replay updates every arm of a step through one block-diagonal
        # factorization, the reference arm by arm: the beliefs agree to rounding
        for mine, theirs in zip(states[0].arms, state.arms):
            for ours, want in ((mine.mean, theirs.mean), (mine.covariance, theirs.covariance)):
                assert np.max(np.abs(ours - want)) <= 1e-12 * np.max(np.abs(want))
            assert mine.update_count == theirs.update_count


class TestArrayRewardsMatchPerPairForms:
    @settings(deadline=None, max_examples=60)
    @given(
        bits=st.lists(st.booleans(), min_size=1, max_size=70),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_vector_draw_equals_per_pair_draws(self, bits, seed):
        vector = surrogate_pair_loss(np.array(bits, dtype=np.uint8), np.random.default_rng(seed))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        per_pair = [float(surrogate_pair_loss([bit], rng_a)[0]) for bit in bits]
        scalar = [
            float(rng_b.normal(SURROGATE_CORRECT_MEAN if bit else SURROGATE_INCORRECT_MEAN,
                               SURROGATE_STD))
            for bit in bits
        ]
        assert vector.tolist() == per_pair == scalar

    @settings(deadline=None, max_examples=60)
    @given(
        bits=st.lists(st.booleans(), min_size=0, max_size=130),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_equals_generator_normal(self, bits, seed):
        # mean + std * z from standard normals is what Generator.normal forms:
        # the same values and the same generator state afterwards
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        means = np.where(bits, SURROGATE_CORRECT_MEAN, SURROGATE_INCORRECT_MEAN)
        got = surrogate_pair_loss(np.array(bits, dtype=bool), rng_a)
        want = rng_b.normal(means, SURROGATE_STD)
        assert got.tobytes() == want.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(deadline=None, max_examples=60)
    @given(
        # steps of up to 40 values: the warm-up of WARMUP_MIN values ends after
        # one step or lasts several
        steps=st.lists(
            st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=40),
            min_size=1,
            max_size=8,
        ),
    )
    @pytest.mark.filterwarnings("ignore::rmrouter.rewards.DegenerateQuantilesWarning")
    def test_array_normalization_equals_per_value_reference(self, steps):
        history, past = RewardHistory(), []
        for losses in steps:
            raw = batch_baseline_array(losses)
            mean = sum(losses) / len(losses)  # left to right
            assert raw.tolist() == [mean - x for x in losses]
            want_bounds = None
            if len(past) >= WARMUP_MIN:
                want_bounds = tuple(sort_oracle_percentile(past, q) for q in (20.0, 80.0))
            got, bounds = normalize_step_rewards(raw, history)
            assert bounds == want_bounds
            assert got.tolist() == [scale_reference(r, bounds) for r in raw.tolist()]
            past += raw.tolist()
        assert len(history) == len(past)
        assert history.quantile_bounds() == tuple(
            sort_oracle_percentile(past, q) for q in (20.0, 80.0)
        )


def scale_reference(r, bounds):
    """Reference: the per-value quantile scaling rule."""
    if bounds is None:
        return min(1.0, max(0.0, (r + 1.0) / 2.0))
    q_lo, q_hi = bounds
    if q_hi == q_lo:
        return 0.5
    if r < q_lo:
        return 0.0
    if r > q_hi:
        return 1.0
    return (r - q_lo) / (q_hi - q_lo)


class TestReplayPosteriorClosedForm:
    @pytest.mark.parametrize("prior_mode", ["zero", "injected"])
    def test_final_arms_match_logs(self, prior_mode):
        """The final beliefs equal the closed form rebuilt from the decision and reward logs."""
        scenario = two_cluster_scenario(pairs_per_step=16, n_steps=10, offline_pairs=100)
        dataset = generate_scenario(scenario, 23)
        prior = fit_offline_router(dataset, seed=23).model.bt_embeddings
        config = ReplayConfig(seed=23, prior_mode=prior_mode, offline_prior=prior, sigma_sq=0.5)
        decision_log, reward_log, states = [], [], []
        run_replay("thompson", dataset, config, decision_log, reward_log, states)
        variance = states[0].prior_variance
        assert [r["pair_id"] for r in decision_log] == [p.pair_id for p in dataset.stream.pairs]
        reward_of = {row["pair_id"]: row["normalized_reward"] for row in reward_log}
        for n, arm in enumerate(states[0].arms):
            ids = [row["pair_id"] for row in decision_log if row["chosen_arm"] == n]
            h = np.array([dataset.stream.embeddings[pid].vector for pid in ids]).reshape(-1, 8)
            r = np.array([reward_of[pid] for pid in ids])
            m0 = prior[n] if prior_mode == "injected" else np.zeros(8)
            precision = np.eye(8) / variance + h.T @ h / 0.5
            mean = np.linalg.solve(precision, m0 / variance + h.T @ r / 0.5)
            assert arm.update_count == len(ids)
            assert np.max(np.abs(arm.mean - mean)) <= 1e-8 * max(1.0, np.max(np.abs(mean)))
            assert np.max(np.abs(arm.covariance @ precision - np.eye(8))) <= 1e-8
