"""From per-pair losses to bandit rewards.

The router never sees raw losses.  Each pair's loss is centered against the
batch mean (good pairs get positive rewards, hard pairs negative), and the
centered value is rescaled into [0, 1] against the 20th/80th percentiles of
everything seen so far.  Binary advantage variants compare the chosen model
against the average of all models, or of a random subset.
"""

import numpy as np

from rmrouter import (
    PairLoss,
    RewardHistory,
    batch_baseline_rewards,
    dpo_loss,
    full_advantage_reward,
    light_advantage_reward,
    normalize_step_rewards,
    sample_comparators,
)

rng = np.random.default_rng(2)

print("pairwise preference loss for a few policy/reference margins:")
for margin in (0.0, 0.5, 1.0, 3.0):
    loss = dpo_loss(margin, 0.0, 0.0, 0.0, beta=1.0)
    print(f"  margin {margin:+.1f} -> loss {loss:.4f}")

losses = [PairLoss(f"pair-{i}", float(rng.normal(0.65, 0.2))) for i in range(6)]
centered = batch_baseline_rewards(losses)
print("\nbatch-centered rewards (sum to zero):")
for pl in losses:
    print(f"  {pl.pair_id}: loss={pl.loss:.3f} reward={centered[pl.pair_id]:+.3f}")
print(f"  sum = {sum(centered.values()):+.2e}")

history = RewardHistory()
print("\nquantile rescaling as history accumulates:")
for step in range(6):
    step_losses = [PairLoss(f"s{step}-{i}", float(rng.normal(0.65, 0.2))) for i in range(16)]
    raw = batch_baseline_rewards(step_losses)
    normalized, bounds = normalize_step_rewards(raw, history)
    values = np.array(list(normalized.values()))
    label = "warmup" if bounds is None else f"q20={bounds[0]:+.3f} q80={bounds[1]:+.3f}"
    print(f"  step {step}: {label}, normalized mean={values.mean():.3f} "
          f"range [{values.min():.2f}, {values.max():.2f}]")

print("\nadvantage-style binary rewards (4 models, chosen = model 0):")
all_losses = [0.48, 0.71, 0.66, 0.90]
print(f"  losses={all_losses}, mean={np.mean(all_losses):.3f} -> "
      f"full advantage reward = {full_advantage_reward(all_losses, 0)}")
comparators = sample_comparators(n_arms=4, chosen=[0], c=3, rng=rng)[0]  # one row per pair
comp_losses = [all_losses[i] for i in comparators]
print(f"  sampled comparators {[int(c) for c in comparators]} -> "
      f"light advantage reward = {light_advantage_reward(comp_losses, all_losses[0])}")
