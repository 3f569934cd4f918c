"""Replay log rows: read-only views of a step's columns that read, write,
pickle and count like the plain dicts they stand for."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.serialize import dumps_line
from rmrouter.sim import REWARD_VARIANTS, ReplayConfig, generate_scenario, run_replay

from scenarios import D, two_specialists_scenario


def plain(value):
    """A plain int, float, str or None, or a list of plain floats."""
    if type(value) is list:
        return all(type(x) is float for x in value)
    return type(value) in (int, float, str, type(None))


@settings(deadline=None, max_examples=60)
@given(
    router=st.sampled_from(["thompson", "linucb", "weighted:0.5"]),
    variant=st.sampled_from(REWARD_VARIANTS),
    batch=st.integers(1, 6),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_rows_read_like_dicts(router, variant, batch, steps, seed):
    scenario = two_specialists_scenario(batch, steps, offline_pairs=0, n_filler_arms=2)
    dataset = generate_scenario(scenario, seed)
    prior = np.random.default_rng(seed).standard_normal((scenario.n_arms, D))
    config = ReplayConfig(seed=seed, offline_prior=prior, reward_variant=variant)
    decision_log, reward_log = [], []
    metrics = run_replay(router, dataset, config, decision_log, reward_log)

    assert len(reward_log) == dataset.stream.n
    for row in decision_log + reward_log:
        assert all(plain(row[key]) for key in row), dict(row)
        assert json.loads(dumps_line(row)) == dict(row)
        with pytest.raises(TypeError):
            row["step"] = 0
    for log in (decision_log, reward_log):
        assert pickle.loads(pickle.dumps(log)) == log
    if router == "weighted:0.5":  # the score mix keeps no per-arm scores: no decision rows
        assert decision_log == []
    else:
        chosen = [row["chosen_arm"] for row in decision_log]
        counts = np.bincount(chosen, minlength=scenario.n_arms)
        np.testing.assert_array_equal(counts, metrics.arm_selection_counts)
