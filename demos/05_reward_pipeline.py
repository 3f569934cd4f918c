"""From per-pair losses to bandit rewards.

The router never sees raw losses.  Each pair's loss is centered against the
batch mean (good pairs get positive rewards, hard pairs negative), and the
centered value is rescaled into [0, 1] against the 20th/80th percentiles of
everything seen so far.  Binary advantage variants compare the chosen model
against the average of all models, or of a random subset.
"""

import numpy as np

from rmrouter import (
    RewardHistory,
    advantage_rewards,
    batch_baseline_array,
    dpo_loss,
    normalize_step_rewards,
    sample_comparators,
)

rng = np.random.default_rng(2)

print("pairwise preference loss for a few policy/reference margins:")
for margin in (0.0, 0.5, 1.0, 3.0):
    loss = dpo_loss(margin, 0.0, 0.0, 0.0, beta=1.0)
    print(f"  margin {margin:+.1f} -> loss {loss:.4f}")

losses = rng.normal(0.65, 0.2, size=6)
centered = batch_baseline_array(losses)
print("\nbatch-centered rewards (sum to zero):")
for i, (loss, reward) in enumerate(zip(losses, centered)):
    print(f"  pair-{i}: loss={loss:.3f} reward={reward:+.3f}")
print(f"  sum = {centered.sum():+.2e}")

history = RewardHistory()
print("\nquantile rescaling as history accumulates:")
for step in range(6):
    raw = batch_baseline_array(rng.normal(0.65, 0.2, size=16))
    values, bounds = normalize_step_rewards(raw, history)
    label = "warmup" if bounds is None else f"q20={bounds[0]:+.3f} q80={bounds[1]:+.3f}"
    print(f"  step {step}: {label}, normalized mean={values.mean():.3f} "
          f"range [{values.min():.2f}, {values.max():.2f}]")

print("\nadvantage-style binary rewards (4 models, chosen = model 0):")
all_losses = np.array([0.48, 0.71, 0.66, 0.90])
full = advantage_rewards(all_losses[0], all_losses)
print(f"  losses={all_losses.tolist()}, mean={all_losses.mean():.3f} -> "
      f"full advantage reward = {full:.0f}")
comparators = sample_comparators(n_arms=4, chosen=[0], c=3, rng=rng)[0]  # one row per pair
light = advantage_rewards(all_losses[0], all_losses[comparators])
print(f"  sampled comparators {comparators.tolist()} -> light advantage reward = {light:.0f}")
