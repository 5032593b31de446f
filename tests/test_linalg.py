"""The one regularity rule of `linalg`: a symmetric matrix is singular when
its condition estimate is above CONDITION_LIMIT, whatever its scale."""

import numpy as np
import pytest

from folijet.errors import SingularHessian
from folijet.linalg import solve

SCALES = [1e-8, 1.0, 1e8]


def _spd(q, seed):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (q, q))
    return a @ a.T + 0.5 * np.eye(q)


def _rank_deficient(q):
    v = np.array([0.1, 0.3, 0.7])[:q]
    return np.outer(v, v) if q > 1 else np.zeros((1, 1))


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_solve_is_blind_to_the_scale_of_a(q, c):
    for seed in range(5):
        a = _spd(q, [q, seed])
        b = list(np.random.default_rng([q, seed, 1]).uniform(-1.0, 1.0, q))
        want = np.array(solve(a.tolist(), b)) / c
        got = np.array(solve((c * a).tolist(), b))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_solve_rejects_a_rank_deficient_a_at_every_scale(q, c):
    with pytest.raises(SingularHessian, match="^condition estimate "):
        solve((c * _rank_deficient(q)).tolist(), [1.0] * q)
