"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Thresholds and tolerances are pinned here and must
not be loosened to make a failing criterion pass.
"""

import itertools
import time

import numpy as np
from scipy import stats

from rmrouter.cli import main
from rmrouter.gaussian import (
    ArmPosterior,
    make_prior,
    posterior_update,
)
from rmrouter.offline import model_from_dict, model_to_dict
from rmrouter.online import (
    init_router,
    observe_feedback,
    route_batch,
    state_from_dict,
    state_to_dict,
)
from rmrouter.rewards import (
    RewardHistory,
    advantage_rewards,
    batch_baseline_array,
    normalize_step_rewards,
)
from rmrouter.serialize import dumps_doc, write_json
from rmrouter.sim import ReplayConfig, generate_scenario, run_replay, scenario_to_dict

from scenarios import (
    bootstrap_delta_ci,
    cold_start_scenario,
    drift_scenario,
    run_hybrid_suite,
    two_specialists_scenario,
)
from test_offline import check_gradients, random_model
from test_rewards import sort_oracle_normalize


def report(criterion, ok, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def test_c1_batched_update_equals_sequential_fold():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(0, 17))
        post = ArmPosterior(
            mean=rng.standard_normal(d),
            covariance=random_spd(rng, d),
            noise_variance=float(rng.uniform(0.2, 2.0)),
        )
        contexts = rng.standard_normal((k, d))
        rewards = rng.standard_normal(k)
        batched = posterior_update(post, contexts, rewards)
        folded = post
        for i in range(k):
            folded = posterior_update(folded, contexts[i : i + 1], rewards[i : i + 1])
        worst = max(
            worst,
            float(np.max(np.abs(batched.mean - folded.mean), initial=0.0)),
            float(np.max(np.abs(batched.covariance - folded.covariance), initial=0.0)),
        )
    elapsed = time.perf_counter() - start
    report(
        "C1 batched == sequential fold",
        worst < 1e-8 and elapsed < 5.0,
        f"(max |diff|={worst:.2e}, {elapsed:.2f}s)",
    )


def test_c2_hand_worked_update():
    post = make_prior(1, np.zeros(1), prior_variance=1.0, noise_variance=1.0)
    updated = posterior_update(post, [[1.0]], [1.0])
    err = max(abs(updated.mean[0] - 0.5), abs(updated.covariance[0, 0] - 0.5))
    report("C2 hand-worked 1-d update", err < 1e-12, f"(err={err:.2e})")


def test_c3_gradient_checks():
    rng = np.random.default_rng(1003)
    for i in range(100):
        check_gradients(rng, with_fusion=bool(i % 2))
    report("C3 analytic vs central-difference gradients", True, "(100 instances, rel err < 1e-4)")


def test_c4_offline_router_learnability():
    start = time.perf_counter()
    scenario = two_specialists_scenario(
        pairs_per_step=50, n_steps=10, offline_pairs=500, seeds=[1], hi=0.98, lo=0.45
    )
    dataset = generate_scenario(scenario, 1)
    from rmrouter.sim import fit_offline_router

    result = fit_offline_router(dataset, seed=1)  # lam=0.2, decay 0.01, scaled epochs
    model = result.model
    stream = dataset.stream
    row_of = {p.pair_id: i for i, p in enumerate(stream.pairs)}
    hits = [
        stream.correct[
            row_of[p.pair_id],
            int(np.argmax(model.bt_embeddings @ stream.embeddings[p.pair_id].vector)),
        ]
        for p in stream.pairs
    ]
    acc = float(np.mean(hits))
    elapsed = time.perf_counter() - start
    report(
        "C4 offline learnability on 2-cluster scenario",
        acc >= 0.95 and elapsed < 60.0,
        f"(held-out acc={acc:.4f}, {elapsed:.1f}s)",
    )


def test_c5_bandit_convergence():
    start = time.perf_counter()
    w_true = np.array([[0.6, 0.0, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0]])  # reward gap 0.3

    def run_seed(seed):
        rng = np.random.default_rng(seed)
        state = init_router(2, 4, prior_mode="zero", sigma_sq=1.0, prior_variance=1.0)
        picks = []
        for t in range(1000):
            h = np.concatenate([[1.0], 0.3 * rng.standard_normal(3)])[None]
            chosen, _ = route_batch(state, h, rng)
            reward = float(w_true[chosen[0]] @ h[0] + rng.normal(0, 0.5))
            state = observe_feedback(state, h, chosen, [reward])
            picks.append(chosen[0])
        return float(np.mean(np.asarray(picks[800:]) == 0))

    fracs = np.array([run_seed(s) for s in range(20)])
    lcb = fracs.mean() - stats.t.ppf(0.95, df=19) * fracs.std(ddof=1) / np.sqrt(20)
    elapsed = time.perf_counter() - start
    report(
        "C5 zero-prior convergence (gap 0.3)",
        lcb > 0.90 and elapsed < 120.0,
        f"(mean={fracs.mean():.3f}, 95% lower bound={lcb:.3f}, {elapsed:.1f}s)",
    )


def test_c6_cold_start_prior_injection():
    scenario = cold_start_scenario(seeds=range(20))
    injected, zero = [], []
    for seed in scenario.seeds:
        dataset = generate_scenario(scenario, seed)
        runs = run_hybrid_suite(dataset, seed)
        injected.append(float(np.mean(runs["hybrid"].routing_accuracy_per_step[:50])))
        zero.append(float(np.mean(runs["zero"].routing_accuracy_per_step[:50])))
    injected, zero = np.array(injected), np.array(zero)
    _, p_value = stats.ttest_rel(injected, zero, alternative="greater")
    delta = float(np.mean(injected - zero))
    report(
        "C6 cold-start: injected beats zero prior over first 50 steps",
        delta > 0 and p_value < 0.05,
        f"(delta={delta:+.4f}, p={p_value:.2e})",
    )


def test_c7_method_ordering_on_drift():
    scenario = drift_scenario(seeds=range(20))
    acc = {name: [] for name in ("random", "zero", "offline", "hybrid")}
    for seed in scenario.seeds:
        dataset = generate_scenario(scenario, seed)
        runs = run_hybrid_suite(dataset, seed)
        for name in acc:
            acc[name].append(runs[name].final_annotation_accuracy)
    details = []
    ok = True
    for low, high in (("random", "zero"), ("zero", "offline"), ("offline", "hybrid")):
        deltas = np.array(acc[high]) - np.array(acc[low])
        ci_lo, ci_hi = bootstrap_delta_ci(deltas)
        ok = ok and ci_lo > 0.0
        details.append(f"{high}-{low}: {deltas.mean():+.4f} [{ci_lo:+.4f}, {ci_hi:+.4f}]")
    report("C7 ordering random < zero < offline < hybrid", ok, "(" + "; ".join(details) + ")")


def test_c8_reward_pipeline():
    rng = np.random.default_rng(1008)
    exact = True
    for _ in range(10_000):
        size = int(rng.integers(32, 160))
        values = list(rng.normal(0, 1, size=size))
        history = RewardHistory(values=values)
        r = float(rng.normal(0, 1.5))
        if normalize_step_rewards([r], history)[0][0] != sort_oracle_normalize(r, values):
            exact = False
            break

    sums_ok = True
    for _ in range(100):
        size = int(rng.integers(1, 65))
        losses = [float(rng.normal(0.6, 0.2)) for _ in range(size)]
        if abs(sum(batch_baseline_array(losses).tolist())) >= 1e-9 * size:
            sums_ok = False
            break

    adv_ok = True
    base = (0.2, 0.5, 0.8, 1.1)
    for perm in itertools.permutations(base):
        mean_all = sum(perm) / 4.0
        for chosen in range(4):
            if advantage_rewards(perm[chosen], perm) != int(perm[chosen] <= mean_all):
                adv_ok = False
            others = [perm[i] for i in range(4) if i != chosen]
            for comb in itertools.combinations(others, 3):
                want = int(perm[chosen] <= sum(comb) / 3.0)
                if advantage_rewards(perm[chosen], comb) != want:
                    adv_ok = False
    report(
        "C8 reward pipeline vs brute-force oracles",
        exact and sums_ok and adv_ok,
        f"(quantiles exact={exact}, baseline sums={sums_ok}, advantage rules={adv_ok})",
    )


def test_c9_call_accounting():
    ok = True
    details = []
    for name, scenario in (
        ("stationary", two_specialists_scenario(16, 8, offline_pairs=32, n_filler_arms=2)),
        ("drift", drift_scenario(seeds=[0])),
    ):
        dataset = generate_scenario(scenario, 0)
        b, n = scenario.pairs_per_step, scenario.n_arms
        for router in ("random", "single:0", "thompson", "linucb", "oracle"):
            calls = run_replay(router, dataset, ReplayConfig(seed=0)).rm_calls_per_step
            ok = ok and calls == [b] * scenario.n_steps
        for router in ("majority", "uwo"):
            calls = run_replay(router, dataset, ReplayConfig(seed=0)).rm_calls_per_step
            ok = ok and calls == [n * b] * scenario.n_steps
        details.append(f"{name}: B={b}, N*B={n * b}")
    report("C9 call accounting exact (O(1) vs O(N))", ok, "(" + "; ".join(details) + ")")


def test_c10_determinism_and_round_trip(tmp_path):
    scenario = two_specialists_scenario(
        pairs_per_step=8, n_steps=5, offline_pairs=80, seeds=[1, 2]
    )
    scenario_path = str(tmp_path / "scenario.json")
    write_json(scenario_path, scenario_to_dict(scenario))

    outputs = []
    for tag in ("a", "b"):
        data_dir = tmp_path / f"data_{tag}"
        model = tmp_path / f"model_{tag}.json"
        prior = tmp_path / f"prior_{tag}.json"
        runs = tmp_path / f"runs_{tag}"
        assert main(["collect-behavior", "--scenario", scenario_path,
                     "--seed", "7", "--out-dir", str(data_dir)]) == 0
        assert main(["train-offline", "--dataset", f"{data_dir}/dataset.jsonl",
                     "--behavior", f"{data_dir}/behavior.jsonl",
                     "--embeddings", f"{data_dir}/embeddings.jsonl",
                     "--out", str(model), "--lr", "0.5", "--epochs", "10",
                     "--batch-size", "16", "--seed", "7"]) == 0
        assert main(["export-prior", "--model", str(model), "--out", str(prior)]) == 0
        assert main(["run-sim", "--scenario", scenario_path, "--router",
                     "thompson,random,majority", "--out-dir", str(runs),
                     "--prior-file", str(prior)]) == 0
        blob = {"model.json": model.read_bytes(), "prior.json": prior.read_bytes()}
        for root in (data_dir, runs):
            for path in sorted(root.iterdir()):
                blob[f"{root.name.rsplit('_', 1)[0]}/{path.name}"] = path.read_bytes()
        outputs.append(blob)
    files_identical = (
        outputs[0].keys() == outputs[1].keys()
        and len(outputs[0]) >= 12
        and outputs[0] == outputs[1]
    )

    rng = np.random.default_rng(1010)
    model = random_model(rng, with_fusion=True)
    model_doc = dumps_doc(model_to_dict(model))
    model_doc2 = dumps_doc(model_to_dict(model_from_dict(model_to_dict(model))))
    state = init_router(3, 4, prior_mode="injected", offline_prior=rng.standard_normal((3, 4)))
    contexts = rng.standard_normal((6, 4))
    chosen, _ = route_batch(state, contexts, rng)
    state = observe_feedback(state, contexts, chosen, np.full(6, 0.3))
    state_doc = dumps_doc(state_to_dict(state))
    state_doc2 = dumps_doc(state_to_dict(state_from_dict(state_to_dict(state))))
    round_trip = model_doc == model_doc2 and state_doc == state_doc2

    report(
        "C10 determinism and byte-identical round-trips",
        files_identical and round_trip,
        f"(rerun files identical={files_identical}, save/load/save identical={round_trip})",
    )
