"""The two rules of `linalg`, both blind to scale: a symmetric matrix is
singular when its condition estimate is above CONDITION_LIMIT, and positive
definite when its least eigenvalue over its largest magnitude is above
1 / CONDITION_LIMIT."""

import numpy as np
import pytest

from folijet.atlas import load_atlas_file
from folijet.errors import SingularHessian, SingularMetric
from folijet.jets import sample_box
from folijet.linalg import (CONDITION_LIMIT, check_metric, condition_number,
                            definiteness, inverse, jacobian_condition, solve)

from conftest import ATLAS_DIR

SCALES = [1e-8, 1.0, 1e8]

# 1 x 1 matrices of both signs, at the ends of the float range, singular
# and not finite: their closed forms must read what LAPACK reads
LINE = np.array([2.0, -3.0, 1e300, -1e300, 1e-300, -1e-300, 0.0, np.inf,
                 -np.inf, np.nan])[:, None, None]


def _line(c):
    with np.errstate(over="ignore"):
        return c * LINE


def _eigenvalue_ratio(h):
    """`definiteness` from LAPACK's eigenvalues, for every size."""
    eig = np.linalg.eigvalsh(np.where(
        np.isfinite(h).all(axis=(-2, -1), keepdims=True), h, 0.0))
    with np.errstate(all="ignore"):
        ratio = eig[..., 0] / np.abs(eig).max(axis=-1)
    return np.where(ratio == ratio, ratio, -np.inf)


def _svd_condition(j):
    """`jacobian_condition` from LAPACK's singular values and det signs."""
    j = np.where(np.isfinite(j).all(axis=(-2, -1), keepdims=True), j, 0.0)
    s = np.linalg.svd(j, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = np.max(s[..., 0] / s[..., -1])
    return np.inf if cond != cond or np.ptp(np.linalg.slogdet(j)[0]) else cond


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
        assert np.array_equal(inverse(c * a), np.linalg.inv(c * a))
    # LAPACK refuses a singular matrix, which every caller rejects first
    line = _line(c)
    line = line[line[:, 0, 0] != 0.0]
    assert np.array_equal(inverse(line), np.linalg.inv(line), equal_nan=True)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_solve_rejects_a_rank_deficient_a_at_every_scale(q, c):
    with pytest.raises(SingularHessian, match="^condition estimate "):
        solve((c * _rank_deficient(q)).tolist(), [1.0] * q)


def _metric_values(name):
    """The values of atlas `name`'s metric g in its first chart at 25
    points of that chart, and those points."""
    atlas = load_atlas_file(ATLAS_DIR / f"{name}.json")
    chart, g = next(iter(atlas.metrics["g"].items()))
    pts = sample_box(atlas.charts[chart].domain[atlas.p:], 25, 0, "test")
    return g.evaluate(pts), pts


# a positive-definite 2 x 2 with condition 1e13, and an indefinite one
THIN = np.diag([1.0, 1e-13])
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
@pytest.mark.parametrize("case", ["shear2", "cubic", "thin", "indefinite"])
def test_definiteness_is_blind_to_the_scale_of_a_metric(case, c):
    if case in ("thin", "indefinite"):
        g, pts = (THIN if case == "thin" else INDEFINITE), [0.5, 0.5]
    else:
        g, pts = _metric_values(case)
    assert definiteness(c * g) == pytest.approx(definiteness(g), rel=1e-14,
                                                abs=0.0)
    if case in ("shear2", "cubic"):
        check_metric(c * g, "g", pts)
    else:
        with pytest.raises(SingularMetric, match=r"^metric 'g' has eigenvalue"
                           r" ratio -?[0-9.]+e-(13|01) at \[0.5, 0.5\]$"):
            check_metric(c * g, "g", pts)


def test_definiteness_reads_the_eigenvalue_ratio():
    assert definiteness([[3.0]]) == 1.0 == definiteness(2.0 * np.eye(2))
    assert definiteness([[-3.0]]) == -1.0
    assert definiteness(INDEFINITE) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert definiteness(THIN) == pytest.approx(1e-13, rel=1e-15)
    batch = np.stack([np.eye(2), INDEFINITE, THIN])
    assert definiteness(batch).tolist() == [
        1.0, definiteness(INDEFINITE), definiteness(THIN)]
    for h in (batch, LINE):
        assert np.array_equal(definiteness(h), _eigenvalue_ratio(h),
                              equal_nan=True)


@pytest.mark.parametrize("h", [
    [[0.0]], [[float("nan")]], [[float("inf")]], [[-float("inf")]],
    [[0.0, 0.0], [0.0, 0.0]], [[1.0, float("inf")], [float("inf"), 1.0]],
    [[1.0, 0.0], [0.0, float("nan")]],
])
def test_a_zero_or_non_finite_matrix_is_neither_regular_nor_definite(h):
    assert definiteness(h) == -np.inf
    assert condition_number(h) == np.inf
    assert jacobian_condition(h) == np.inf
    assert jacobian_condition([h, np.eye(len(h)).tolist()]) == np.inf
    assert definiteness([h, np.eye(len(h)).tolist()]).tolist() == [-np.inf,
                                                                   1.0]
    with pytest.raises(SingularMetric, match=r"ratio -inf at 0 \(sample 0\)$"):
        check_metric(np.array([h]), "g", np.array([0]))


@pytest.mark.parametrize("c", SCALES)
def test_jacobian_condition_is_blind_to_scale_and_reads_a_fold(c):
    # two Jacobians, not symmetric, with det 2 and 1; negating one row of
    # the second makes its det -1: one map cannot take both on a
    # connected set without folding
    j = np.array([[[2.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]]])
    assert jacobian_condition(c * j) == pytest.approx(
        np.linalg.cond(j).max(), rel=1e-12, abs=0.0)
    fold = j * np.array([[[1.0], [1.0]], [[-1.0], [1.0]]])
    assert jacobian_condition(c * fold) == np.inf
    assert jacobian_condition(c * fold[1]) == pytest.approx(
        np.linalg.cond(fold[1]), rel=1e-12, abs=0.0)
    line = _line(c)
    for j in (*line[:, None], line[:5:2], line[1:6:2], line[:2], line):
        assert np.array_equal(jacobian_condition(j), _svd_condition(j))
    assert jacobian_condition(line[:2]) == np.inf  # a sign change folds


def test_the_definiteness_limit_is_the_condition_limit():
    for cond in (1e11, 0.99e12):
        check_metric(np.diag([1.0, 1.0 / cond]), "g", [0.0])
    for cond in (1.01e12, 1e13):
        with pytest.raises(SingularMetric):
            check_metric(np.diag([1.0, 1.0 / cond]), "g", [0.0])
    assert condition_number(np.diag([1.0, 1.0 / 0.99e12])) <= CONDITION_LIMIT
