"""LinUCB's ridge statistics (Li et al. 2010): the reference for the linucb router.

Arm n keeps A = I + sum(h h^T) and b = sum(r h) over the rows it was
rewarded for.  Its estimate is theta = A^-1 b, and a point h scores
h.theta + alpha sqrt(h.A^-1.h).
"""

import numpy as np


class RidgeReference:
    def __init__(self, n_arms, d):
        self.a = [np.eye(d) for _ in range(n_arms)]
        self.b = [np.zeros(d) for _ in range(n_arms)]

    def update(self, contexts, chosen, rewards):
        """A += h h^T and b += r h, one row at a time."""
        for h, n, r in zip(contexts, chosen, rewards):
            self.a[n] = self.a[n] + np.outer(h, h)
            self.b[n] = self.b[n] + r * h

    def scores(self, points, alpha):
        """(len(points), N) UCB scores, one solve per (point, arm)."""
        scores = np.empty((len(points), len(self.a)))
        for i, h in enumerate(points):
            for n, (a, b) in enumerate(zip(self.a, self.b)):
                spread = h @ np.linalg.solve(a, h)
                scores[i, n] = h @ np.linalg.solve(a, b) + alpha * np.sqrt(max(spread, 0.0))
        return scores

    def route(self, contexts, alpha, per_pair):
        """(chosen, (B, N) scores) as the linucb router picks them: the batch
        mean scores every row unless per_pair; ties go to the lowest arm."""
        points = contexts if per_pair else contexts.mean(axis=0)[None]
        scores = np.broadcast_to(self.scores(points, alpha), (len(contexts), len(self.a)))
        return np.argmax(scores, axis=1), scores

    def assert_posterior_matches(self, state, rtol=1e-9):
        """Each arm's mean is A^-1 b and its covariance A^-1."""
        for arm, a, b in zip(state.arms, self.a, self.b):
            assert np.allclose(arm.mean, np.linalg.solve(a, b), rtol=rtol, atol=rtol)
            assert np.allclose(arm.covariance, np.linalg.inv(a), rtol=rtol, atol=rtol)
