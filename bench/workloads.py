"""The benchmark's workloads, one round of each, and the output checks.

Every workload routes over N = 8 synthetic reward models with B = 64 pairs
per step.  Its geometry comes from the workload seed: one cluster per arm,
with unit centres whose pairwise cosine is fixed (so every seed poses a
congruent routing problem, in a random orientation), the arm accuracy
profiles, and for ``suite-mixed`` which clusters gain weight at the drift
point.  The program sees only the generated scenario.

A round is one pass of a workload: its ``fit_offline_router`` calls (the
same training, repeated so that ``train_s`` gets enough samples), then the
workload's ``run_replay`` calls, each a closed loop of route -> reward ->
update with one caller.  Every call is one operation; it fails if it raises
or if its output check fails.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# the entry points are called through the module so that the traced run,
# which rebinds module attributes, sees them
from rmrouter import sim
from rmrouter.sim import Cluster, ReplayConfig, SimScenario

N_ARMS = 8
PAIRS_PER_STEP = 64
CLUSTER_SPREAD = 0.25
# cosine between any two cluster centres; overlapping clusters keep routing
# errors frequent, so regret depends little on early exploration luck
CENTRE_OVERLAP = 0.7
SPECIALIST_ACCURACY = (0.88, 0.92)
OTHER_ACCURACY = (0.58, 0.66)
SIGMA_SQ = 1.0
PRIOR_VARIANCE = {"zero": 1.0, "injected": 0.02}
ENSEMBLE_ROUTERS = ("majority", "uwo")

# closed-form and incremental posteriors agree to about 1e-13 relative
# (C1 in the acceptance suite); anything past this is a wrong update
POSTERIOR_RTOL = 1e-8


@dataclass(frozen=True)
class Replay:
    """One run_replay call: a router spec and whether it gets the trained prior."""

    router: str
    trained_prior: bool = False

    @property
    def prior_mode(self) -> str:
        return "injected" if self.router == "thompson" and self.trained_prior else "zero"


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n_steps: int
    offline_pairs: int
    replays: tuple[Replay, ...]
    drift: bool = False
    # fit_offline_router calls per round, each one train_s sample: where
    # training is short next to the replays, one call would give too few
    train_calls: int = 1

    @property
    def stream_pairs(self) -> int:
        return self.n_steps * PAIRS_PER_STEP


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-long",
            d=16,
            n_steps=200,
            offline_pairs=256,
            replays=(Replay("thompson"),),
            train_calls=2,
        ),
        Workload(
            name="suite-mixed",
            d=64,
            n_steps=40,
            offline_pairs=500,
            drift=True,
            replays=(
                Replay("thompson", trained_prior=True),
                Replay("weighted:0.5", trained_prior=True),
                Replay("linucb"),
                Replay("offline", trained_prior=True),
                Replay("majority"),
                Replay("random"),
            ),
        ),
    )
}


def make_scenario(workload: Workload, seed: int) -> SimScenario:
    """The workload's scenario for ``seed``."""
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.standard_normal((workload.d, N_ARMS + 1)))
    shared, own = frame[:, 0], frame[:, 1:].T
    centres = np.sqrt(CENTRE_OVERLAP) * shared + np.sqrt(1.0 - CENTRE_OVERLAP) * own
    specialist = rng.uniform(*SPECIALIST_ACCURACY, size=N_ARMS)
    other = rng.uniform(*OTHER_ACCURACY, size=(N_ARMS, N_ARMS))
    profiles = [
        {c: float(specialist[n] if c == n else other[n, c]) for c in range(N_ARMS)}
        for n in range(N_ARMS)
    ]
    drift = {}
    if workload.drift:
        heavy = np.ones(N_ARMS)
        heavy[rng.permutation(N_ARMS)[: N_ARMS // 2]] = 3.0
        light = 4.0 - heavy
        drift = {
            "mixture_before": [float(w) for w in heavy / heavy.sum()],
            "mixture_after": [float(w) for w in light / light.sum()],
            "drift_step": workload.n_steps // 2,
        }
    return SimScenario(
        n_arms=N_ARMS,
        clusters=[Cluster(c, centres[c], CLUSTER_SPREAD) for c in range(N_ARMS)],
        arm_profiles=profiles,
        pairs_per_step=PAIRS_PER_STEP,
        n_steps=workload.n_steps,
        seeds=[seed],
        offline_pairs=workload.offline_pairs,
        **drift,
    )


@dataclass
class Inputs:
    """What set-up hands to the timed region."""

    dataset: object


def setup(workload: Workload, seed: int) -> Inputs:
    """Scenario generation."""
    return Inputs(dataset=sim.generate_scenario(make_scenario(workload, seed), seed))


def replay_config(replay: Replay, seed: int, prior: np.ndarray | None) -> ReplayConfig:
    mode = replay.prior_mode
    return ReplayConfig(
        seed=seed,
        sigma_sq=SIGMA_SQ,
        prior_mode=mode,
        prior_variance=PRIOR_VARIANCE[mode],
        offline_prior=prior,
    )


@dataclass
class ReplayOutcome:
    replay: Replay
    seconds: float
    metrics: object = None
    state: object = None
    prior: np.ndarray | None = None
    decision_log: list | None = None
    reward_log: list | None = None
    error: str | None = None


@dataclass
class Training:
    """One fit_offline_router call."""

    seconds: float
    result: object = None
    error: str | None = None


@dataclass
class RoundResult:
    trainings: list[Training] = field(default_factory=list)
    replays: list[ReplayOutcome] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(t.seconds for t in self.trainings) + sum(r.seconds for r in self.replays)


def run_round(workload: Workload, inputs: Inputs, seed: int, logs: bool = False) -> RoundResult:
    """Train, then replay every router; times each call, catches any error.

    The replays take the first training's router as their trained prior.
    With ``logs`` the replays keep their decision and reward logs for the
    closed-form posterior check.
    """
    dataset = inputs.dataset
    result = RoundResult()
    for _ in range(workload.train_calls):
        t0 = time.perf_counter()
        try:
            training = Training(0.0, sim.fit_offline_router(dataset, seed=seed))
        except Exception as exc:  # a failed operation is counted, never dropped
            training = Training(0.0, error=f"{type(exc).__name__}: {exc}")
        training.seconds = time.perf_counter() - t0
        result.trainings.append(training)
    trained = result.trainings[0].result

    for replay in workload.replays:
        prior = None
        if replay.trained_prior and trained is not None:
            prior = trained.model.bt_embeddings.copy()
        outcome = ReplayOutcome(replay, 0.0, prior=prior)
        if replay.trained_prior and prior is None:
            outcome.error = "no trained prior: training failed"
            result.replays.append(outcome)
            continue
        states: list = []
        decision_log = [] if logs else None
        reward_log = [] if logs else None
        config = replay_config(replay, seed, prior)
        t0 = time.perf_counter()
        try:
            outcome.metrics = sim.run_replay(
                replay.router,
                dataset,
                config,
                decision_log=decision_log,
                reward_log=reward_log,
                final_state_out=states,
            )
        except Exception as exc:  # a failed operation is counted, never dropped
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.seconds = time.perf_counter() - t0
        outcome.state = states[0] if states else None
        outcome.decision_log = decision_log
        outcome.reward_log = reward_log
        result.replays.append(outcome)
    return result


# ---------------------------------------------------------------------------
# output checks (all run outside the timed region)


def expected_calls_per_pair(router: str) -> int:
    """Exact reward-model calls per pair: N for an ensemble, 1 for a routed pick."""
    return N_ARMS if router.partition(":")[0] in ENSEMBLE_ROUTERS else 1


def check_calls(outcome: ReplayOutcome, n_pairs: int) -> list[str]:
    calls = int(np.sum(outcome.metrics.rm_calls_per_step))
    want = expected_calls_per_pair(outcome.replay.router) * n_pairs
    if calls != want:
        return [f"{outcome.replay.router}: {calls} reward-model calls, expected {want}"]
    return []


def closed_form_posteriors(
    dataset, decision_log, reward_log, prior_mean: np.ndarray, prior_variance: float
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(mean, precision, observations) per arm, rebuilt from the run's logs.

    precision = I / v0 + sum(h h^T) / sigma^2 over the pairs routed to the
    arm, and the mean solves precision @ mean = m0 / v0 + sum(r h) / sigma^2.
    """
    d = dataset.scenario.d
    reward_of = {(row["step"], row["pair_id"]): row["normalized_reward"] for row in reward_log}
    routed = defaultdict(list)
    for row in decision_log:
        routed[row["chosen_arm"]].append((row["step"], row["pair_id"]))
    out = []
    for n in range(prior_mean.shape[0]):
        keys = routed.get(n, [])
        h = np.array([dataset.stream.embeddings[pid].vector for _, pid in keys]).reshape(-1, d)
        r = np.array([reward_of[key] for key in keys], dtype=np.float64)
        precision = np.eye(d) / prior_variance + h.T @ h / SIGMA_SQ
        shift = prior_mean[n] / prior_variance + h.T @ r / SIGMA_SQ
        out.append((np.linalg.solve(precision, shift), precision, len(keys)))
    return out


def check_posterior(dataset, outcome: ReplayOutcome) -> list[str]:
    """Compare a thompson replay's final arms with the closed-form posterior."""
    if outcome.state is None:
        return ["thompson replay returned no final state"]
    mode = outcome.replay.prior_mode
    d = dataset.scenario.d
    prior_mean = outcome.prior if mode == "injected" else np.zeros((N_ARMS, d))
    logged = {row["pair_id"] for row in outcome.decision_log}
    if len(outcome.decision_log) != dataset.stream.n or len(logged) != dataset.stream.n:
        return ["decision log does not cover every stream pair exactly once"]
    errors = []
    expected = closed_form_posteriors(
        dataset, outcome.decision_log, outcome.reward_log, prior_mean, PRIOR_VARIANCE[mode]
    )
    for n, (arm, (mean, precision, count)) in enumerate(zip(outcome.state.arms, expected)):
        mean_err = np.max(np.abs(arm.mean - mean)) / max(1.0, np.max(np.abs(mean)))
        # covariance @ precision must be the identity
        cov_err = np.max(np.abs(arm.covariance @ precision - np.eye(d)))
        if not (mean_err <= POSTERIOR_RTOL and cov_err <= POSTERIOR_RTOL):
            errors.append(
                f"arm {n}: posterior differs from closed form "
                f"(mean {mean_err:.2e}, covariance {cov_err:.2e}, tol {POSTERIOR_RTOL:.0e})"
            )
        if arm.update_count != count:
            errors.append(f"arm {n}: {arm.update_count} updates, {count} pairs routed to it")
    return errors


def check_training(train_result) -> list[str]:
    model = train_result.model
    if not (np.all(np.isfinite(model.bt_embeddings)) and np.all(np.isfinite(model.cls_embeddings))):
        return ["trained router has non-finite parameters"]
    first, last = train_result.history[0]["total_loss"], train_result.history[-1]["total_loss"]
    if not last < first:
        return [f"training loss did not fall ({first:.4f} -> {last:.4f})"]
    return []


def check_reference_round(workload: Workload, inputs: Inputs, result: RoundResult) -> list[list[str]]:
    """Full checks of the logged round: one error list per operation."""
    dataset = inputs.dataset
    ops = [[t.error] if t.error else check_training(t.result) for t in result.trainings]
    for outcome in result.replays:
        if outcome.error:
            ops.append([outcome.error])
            continue
        errors = check_calls(outcome, dataset.stream.n)
        if outcome.replay.router == "thompson":
            errors += check_posterior(dataset, outcome)
        ops.append(errors)
    return ops


def _same_metrics(a, b) -> bool:
    return (
        a.final_annotation_accuracy == b.final_annotation_accuracy
        and a.cumulative_regret == b.cumulative_regret
        and a.rm_calls_per_step == b.rm_calls_per_step
        and np.array_equal(a.arm_selection_counts, b.arm_selection_counts)
    )


def _same_state(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return all(
        np.array_equal(x.mean, y.mean) and np.array_equal(x.covariance, y.covariance)
        for x, y in zip(a.arms, b.arms)
    )


def check_repeat_round(reference: RoundResult, result: RoundResult) -> list[list[str]]:
    """A timed round must reproduce the checked round bit for bit."""
    want = reference.trainings[0].result
    ops = []
    for training in result.trainings:
        if training.error:
            ops.append([training.error])
        elif want is None or not np.array_equal(
            training.result.model.bt_embeddings, want.model.bt_embeddings
        ):
            ops.append(["training differs from the checked round"])
        else:
            ops.append([])
    for ref, outcome in zip(reference.replays, result.replays):
        if outcome.error:
            ops.append([outcome.error])
        elif ref.metrics is None or not (
            _same_metrics(ref.metrics, outcome.metrics) and _same_state(ref.state, outcome.state)
        ):
            ops.append([f"{outcome.replay.router}: replay differs from the checked round"])
        else:
            ops.append([])
    return ops


def quality(result: RoundResult, stream_pairs: int) -> dict[str, float]:
    """Routing quality of a round, averaged over its successful replays."""
    done = [r.metrics for r in result.replays if r.metrics is not None]
    if not done:
        return {}
    return {
        "annotation_accuracy": float(np.mean([m.final_annotation_accuracy for m in done])),
        "regret_per_pair": float(np.mean([m.cumulative_regret[-1] / stream_pairs for m in done])),
        "rm_calls_per_pair": float(
            sum(int(np.sum(m.rm_calls_per_step)) for m in done) / (stream_pairs * len(done))
        ),
    }
