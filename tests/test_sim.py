import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.errors import ConfigError, InputError
from rmrouter.gaussian import ObservationBatch, posterior_update
from rmrouter.offline import OfflineRouterModel, collect_behavior
from rmrouter.online import (
    OnlineRouterState,
    RoutingDecision,
    init_linucb,
    init_router,
    route_batch,
    route_linucb,
    route_weighted_batch,
    update_linucb,
)
from rmrouter.rewards import (
    SURROGATE_CORRECT_MEAN,
    SURROGATE_INCORRECT_MEAN,
    SURROGATE_STD,
    PairLoss,
    RewardHistory,
    batch_baseline_array,
    batch_baseline_rewards,
    normalize_step_array,
    normalize_step_rewards,
    surrogate_losses,
    surrogate_pair_loss,
)
from rmrouter.sim import (
    Cluster,
    ReplayConfig,
    SimScenario,
    _majority_labels,
    compare_runs,
    fit_offline_router,
    generate_scenario,
    majority_correct_prob,
    parse_router,
    run_replay,
    scenario_from_dict,
    scenario_to_dict,
)


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
        records = collect_behavior(split.pairs, split.pool())
        row_of = {p.pair_id: i for i, p in enumerate(split.pairs)}
        for rec in records:
            assert rec.correct == split.correct[row_of[rec.pair_id], rec.rm_index]


class TestMajority:
    def test_consensus_three_of_four(self):
        answers = np.array([["A", "A", "A", "B"]])
        labels, consensus, attributed = _majority_labels(answers)
        assert labels[0] == "A"
        assert consensus[0] == 0.75
        assert attributed[0] == 0

    def test_tie_takes_lowest_index_label(self):
        answers = np.array([["B", "A", "A", "B"]])
        labels, consensus, attributed = _majority_labels(answers)
        assert labels[0] == "B"
        assert consensus[0] == 0.5
        assert attributed[0] == 0

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


class TestMajorityReferences:
    @settings(deadline=None, max_examples=60)
    @given(n_pairs=st.integers(0, 12), n_arms=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_labels_match_loop(self, n_pairs, n_arms, seed):
        answers = np.random.default_rng(seed).choice(np.array(["A", "B"]), size=(n_pairs, n_arms))
        for got, want in zip(_majority_labels(answers), majority_labels_loop(answers)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=100)
    @given(probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_prob_matches_enumeration(self, probs):
        assert abs(majority_correct_prob(probs) - majority_prob_enumeration(probs)) <= 1e-12

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
        report = compare_runs(runs + twin, baseline_index=0)
        assert np.array_equal(report.deltas["random-twin"], np.zeros(3))

    def test_csv_row_count(self):
        runs = self.run_some(["random", "oracle", "single:0"], seeds=[1, 2])
        report = compare_runs(runs, baseline_index=0)
        rows = [line for line in report.to_csv().splitlines() if not line.startswith("#")]
        assert len(rows) == 3 * 2 + 1

    def test_mismatched_seed_sets_rejected(self):
        runs = self.run_some(["random"], seeds=[1, 2]) + self.run_some(["oracle"], seeds=[2, 3])
        with pytest.raises(InputError):
            compare_runs(runs, baseline_index=0)

    def test_real_gap_has_positive_ci(self):
        runs = self.run_some(["random", "oracle"], seeds=[1, 2, 3, 4, 5])
        report = compare_runs(runs, baseline_index=0)
        entry = next(e for e in report.summary if e["router"] == "oracle")
        assert entry["ci_lo"] > 0


# ---------------------------------------------------------------------------
# the array-level replay loop against the per-pair public API


def reference_replay(router, dataset, config):
    """The replay rebuilt from the per-pair public API (batch_quantile rewards).

    Returns (per-step accuracies, cumulative regret, selection counts, final
    accuracy, final Thompson-state or None).
    """
    scenario, stream = dataset.scenario, dataset.stream
    n_arms, d, size = scenario.n_arms, scenario.d, scenario.pairs_per_step
    kind, alpha = parse_router(router)
    seed_rng = np.random.default_rng(config.seed)
    route_rng, loss_rng, _ = [np.random.default_rng(seed_rng.integers(2**63)) for _ in range(3)]
    if kind == "thompson":
        injected = config.prior_mode == "injected"
        state = init_router(
            n_arms, d, config.prior_mode, config.offline_prior if injected else None,
            config.sigma_sq, config.prior_variance, config.resample_per_pair,
        )
    elif kind == "weighted":
        state = init_router(n_arms, d, sigma_sq=config.sigma_sq)
        model = OfflineRouterModel(
            None, config.offline_prior, np.zeros_like(config.offline_prior), 0.0, n_arms
        )
    else:
        state = init_linucb(n_arms, d)
    history = RewardHistory(capacity=config.history_capacity)
    best = dataset.profiles.max(axis=0)
    accuracy, regret, counts, cum, hits = [], [], np.zeros(n_arms, dtype=np.int64), 0.0, 0
    for step in range(scenario.n_steps):
        rows = slice(step * size, (step + 1) * size)
        batch = [(p.pair_id, stream.embeddings[p.pair_id]) for p in stream.pairs[rows]]
        if kind == "thompson":
            decisions = route_batch(state, batch, route_rng)
        elif kind == "linucb":
            decisions = route_linucb(state, batch, config.linucb_alpha, config.linucb_per_pair)
        else:
            contexts = np.stack([emb.vector for _, emb in batch])
            picks = route_weighted_batch(model, state, contexts, alpha, route_rng)
            decisions = [
                RoutingDecision(pid, int(arm), np.eye(n_arms)[arm], contexts[i])
                for i, ((pid, _), arm) in enumerate(zip(batch, picks))
            ]
        chosen = np.array([dec.chosen_arm for dec in decisions])
        bits = stream.correct[rows][np.arange(size), chosen]
        losses = [
            PairLoss(dec.pair_id, surrogate_pair_loss(bool(bit), loss_rng))
            for dec, bit in zip(decisions, bits)
        ]
        rewards, _ = normalize_step_rewards(
            batch_baseline_rewards(losses), history, config.warmup_min
        )
        if kind == "linucb":
            state = update_linucb(state, decisions, rewards)
        else:  # each arm's pairs in batch order, through the conjugate update itself
            arms = list(state.arms)
            for n in range(n_arms):
                mine = [dec for dec in decisions if dec.chosen_arm == n]
                if mine:
                    batch_n = ObservationBatch(
                        [dec.context for dec in mine], [rewards[dec.pair_id] for dec in mine]
                    )
                    arms[n] = posterior_update(arms[n], batch_n)
            counts_n = state.selection_counts + np.bincount(chosen, minlength=n_arms)
            state = OnlineRouterState(arms, state.config, state.step + 1, counts_n)
        accuracy.append(int(bits.sum()) / size)
        hits += int(bits.sum())
        clusters = stream.clusters[rows]
        cum += float(np.sum(best[clusters] - dataset.profiles[chosen, clusters]))
        regret.append(cum)
        counts += np.bincount(chosen, minlength=n_arms)
    return accuracy, regret, counts, hits / stream.n, state if kind != "linucb" else None


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
            ("thompson", {"resample_per_pair": False, "history_capacity": 40}),
            ("weighted:0.5", {}),
            ("linucb", {}),
            ("linucb", {"linucb_per_pair": True, "warmup_min": 8}),
        ],
    )
    def test_bit_identical(self, dataset_and_prior, router, options):
        dataset, prior = dataset_and_prior
        config = ReplayConfig(seed=21, offline_prior=prior, **options)
        states = []
        got = run_replay(router, dataset, config, final_state_out=states)
        accuracy, regret, counts, final, state = reference_replay(router, dataset, config)
        assert got.routing_accuracy_per_step == accuracy
        assert got.cumulative_regret == regret
        assert np.array_equal(got.arm_selection_counts, counts)
        assert got.final_annotation_accuracy == final
        if state is None:
            assert states == []
            return
        assert np.array_equal(states[0].selection_counts, state.selection_counts)
        for mine, theirs in zip(states[0].arms, state.arms):
            assert np.array_equal(mine.mean, theirs.mean)
            assert np.array_equal(mine.covariance, theirs.covariance)
            assert mine.update_count == theirs.update_count


class TestArrayRewardsMatchPerPairForms:
    @settings(deadline=None, max_examples=60)
    @given(
        bits=st.lists(st.booleans(), min_size=1, max_size=70),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_vector_draw_equals_per_pair_draws(self, bits, seed):
        vector = surrogate_losses(np.array(bits, dtype=np.uint8), np.random.default_rng(seed))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        per_pair = [surrogate_pair_loss(bit, rng_a) for bit in bits]
        scalar = [
            float(rng_b.normal(SURROGATE_CORRECT_MEAN if bit else SURROGATE_INCORRECT_MEAN,
                               SURROGATE_STD))
            for bit in bits
        ]
        assert vector.tolist() == per_pair == scalar

    @settings(deadline=None, max_examples=60)
    @given(
        steps=st.lists(
            st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        ),
        warmup=st.integers(1, 20),
    )
    @pytest.mark.filterwarnings("ignore::rmrouter.rewards.DegenerateQuantilesWarning")
    def test_array_normalization_equals_dict_form(self, steps, warmup):
        by_array, by_dict = RewardHistory(), RewardHistory()
        for step, losses in enumerate(steps):
            ids = [f"{step}-{i}" for i in range(len(losses))]
            raw_map = batch_baseline_rewards([PairLoss(i, x) for i, x in zip(ids, losses)])
            raw = batch_baseline_array(losses)
            mean = sum(losses) / len(losses)  # left to right
            assert raw.tolist() == [mean - x for x in losses] == list(raw_map.values())
            want, want_bounds = normalize_step_rewards(raw_map, by_dict, warmup)
            got, bounds = normalize_step_array(raw, by_array, warmup)
            assert bounds == want_bounds
            assert got.tolist() == list(want.values())
            assert got.tolist() == [scale_reference(r, bounds) for r in raw.tolist()]
        assert by_array.values == by_dict.values
        assert by_array.degenerate_events == by_dict.degenerate_events


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
        variance = states[0].config.prior_variance
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
