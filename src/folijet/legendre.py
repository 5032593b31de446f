"""Legendre maps, pseudo-hamiltonians and admissibility checks.

The Legendre map trades the top-order jet row for the momentum
p = dL/dy^(r); its inverse is a damped Newton solve against the vertical
Hessian.  Composing the map stagewise down to order zero and restricting
to equal momenta yields the diagonal hamiltonian H(x, p); for the
recursive metric lifts this reproduces the dual hamiltonian of the
first-order stage.

Convention: the diagonal hamiltonian carries a 1/r normalization, so the
flat lift gives H(x, p) = |p|^2 / 4 at every order.

`legendre_map` and `hamiltonian_at` take arrays (see `jets`).  Cotangent
jet points and hamiltonian values are plain classes, compared by identity
and treated as immutable.
"""

from __future__ import annotations

import sys
from functools import reduce

import numpy as np

from . import linalg
from .dynamics import top_hessian, top_row_derivatives
from .errors import (InvariantViolation, NoConvergence, ShapeError,
                     SingularHessian)
from .expr import coordinate_names
from .jets import (TransverseJetPoint, _check_rows, _finite_tuple,
                   check_fit, jet_columns, jet_env, point_arrays,
                   sample_stream, split_draws)
from .report import Report, worst
from .scalars import (Series, batch_of, broadcast, columns, prefixed,
                      raise_where, second_order, space, stack_samples,
                      value_of, where)

__all__ = [
    "CotangentJetPoint",
    "legendre_map",
    "legendre_inverse",
    "pseudo_hamiltonian",
    "legendre_chain",
    "admissibility_check",
]

NEWTON_TOLERANCE = 1e-12
NEWTON_MAX_ITERATIONS = 50
SETTLED_TOLERANCE = 1e-14
RAY_TOLERANCE = 1e-8
RAY_REACH = 2.0 ** 59
ZERO_SECTION_TOLERANCE = 1e-12


class CotangentJetPoint:
    """A momentum-replaced jet point: (x, y^(1..r-1), p).

    `order` is the order r of the jet point it came from; `jets` holds the
    r-1 lower rows, `momentum` the top-order momentum covector.
    """

    __slots__ = ("chart", "order", "leaf", "base", "jets", "momentum")

    def __init__(self, chart: str, order: int, leaf: tuple, base: tuple,
                 jets: tuple, momentum: tuple):
        _check_rows(self, chart, order, leaf, base, jets, order - 1)
        momentum = _finite_tuple(momentum, "momentum")
        if len(momentum) != len(self.base):
            raise ShapeError("momentum must match the transverse dimension")
        self.momentum = momentum

    @property
    def qdim(self):
        return len(self.base)


class HamiltonianValue:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


def legendre_map(L, base, jets):
    """The momentum p = dL/dy^(r) that trades (x, y^(1..r)) for
    (x, y^(1..r-1), p), at base (q,) and jets (r, q) as (q,), or at a batch
    of points as (B, q)."""
    L._check_points(base, jets)
    x, *rows = jet_columns(base, jets)
    return np.array(top_row_derivatives(L, x, rows[:-1], rows[-1])[1]).T


def _second_order_in(out, group, q):
    """Value, gradient and Hessian of `out` in the q variables of a cap-2
    `group`, as series in the other groups, or as floats (or batches of
    floats) for group 0."""
    parts = out.split(group)
    return second_order([p.within(out.space, group) for p in parts] if group
                        else [p.value for p in parts], q)


def _largest_coefficient(entries, batch):
    """Largest magnitude over the coefficients of floats or series, per
    sample of a batch of `batch` (None: unbatched)."""
    if not batch:
        return np.abs(np.concatenate([e.coeffs if isinstance(e, Series)
                                      else [e] for e in entries])).max()
    return reduce(np.maximum, [np.abs(e.coeffs).max(axis=-1)
                               if isinstance(e, Series) else np.abs(e)
                               for e in entries])


def _where_tree(mask, x, y):
    """`where` on every entry of nested lists or tuples: x where the flags
    `mask` hold, else y, sample by sample; one side whole when the flags
    all hold or none hold."""
    if mask.all():
        return x
    if not mask.any():
        return y

    def select(x, y):
        if isinstance(x, (list, tuple)):
            return type(x)(map(select, x, y))
        return where(mask, x, y)

    return select(x, y)


def _newton_top_row(quad_at, target, guess, q, *, stage=None, polish=0):
    """Solve grad(quad_at(top)) = target for the top row by damped Newton.

    `quad_at(top, moving)` returns the (value, gradient, Hessian) of the
    stage in the top row; entries may be floats or series.  The solve is
    settled, and stops, once every coefficient of the residual is at
    roundoff relative to those of the value, gradient and Hessian;
    otherwise it stops `polish` steps after its largest coefficient falls
    to `tol`, NEWTON_TOLERANCE times the largest of the gradient and
    target, a bound damping holds the residual's values to as well.
    `linalg.solve` raises SingularHessian where the Hessian is not regular.
    Returns (top_row, stage_value, stats).

    When the target is a batch, every call evaluates the whole batch, and
    `moving` flags the samples whose top row moved; a sample that has
    stopped, or already took its step, sits at its last accepted top row.
    Every sample keeps its own damping, `linalg.solve` judges and factors
    each sample's Hessian on its own, and a sample stops, frozen in place,
    where it would stop alone.  Stats then hold per-sample lists.
    """
    label = f"stage {stage}: " if stage is not None else ""
    batch = next((n for n in map(batch_of, target) if n), None)

    def state_at(top, moving):
        """(top, out, F, norm, size, settled, tol) at the top row `top`."""
        out = quad_at(top, moving)
        value, grad, hess = out
        F = [grad[i] - target[i] for i in range(q)]
        size = _largest_coefficient(F, batch)
        terms = _largest_coefficient([value, *grad, *sum(hess, [])], batch)
        settled = np.isfinite(terms) & (size <= SETTLED_TOLERANCE * terms)
        norm = np.abs([value_of(f) for f in F]).max(axis=0)
        tol = NEWTON_TOLERANCE * _largest_coefficient([*grad, *target], batch)
        return top, out, F, norm, size, settled, tol

    # per-sample flags and counts are batches, or numpy scalars unbatched;
    # the samples still running have all taken `steps` steps, and those
    # still pending in a step have all halved `scale` as often
    top = [broadcast(t, batch) for t in guess] if batch else list(guess)
    state = state_at(top, np.ones(batch, dtype=bool) if batch else np.True_)
    running = ~state[5]
    iterations, extra, steps = 0, polish, 0
    while running.any():
        small = running & (state[4] <= state[6])
        running = running & ~(small & (extra <= 0))
        extra = extra - (small & running)
        if not running.any():
            break
        if steps >= NEWTON_MAX_ITERATIONS:
            raise_where(running & ~small, NoConvergence,
                        label + "residual {:.3e} after {} iterations",
                        state[4], steps)
        top, (_, _, hess), F = state[:3]
        if not running.all():  # a stopped sample solves a unit system
            hess = [[where(running, h, float(i == k))
                     for k, h in enumerate(row)] for i, row in enumerate(hess)]
        try:
            step = linalg.solve(hess, [-f for f in F])
        except SingularHessian as err:
            raise prefixed(err, label + "vertical hessian ") from None
        pending, scale = running, 1.0
        while True:
            trial = _where_tree(pending, [top[i] + scale * step[i]
                                          for i in range(q)], top)
            trial_state = state_at(trial, pending)
            accept = pending & ((trial_state[3] < state[3])
                                | (state[3] <= state[6])
                                | (scale < 1e-8))
            state = _where_tree(accept, trial_state, state)
            pending = pending & ~accept
            if not pending.any():
                break
            scale *= 0.5
        steps += 1
        iterations = np.where(running, steps, iterations)
        running = running & ~state[5]
    stats = {"iterations": np.asarray(iterations).tolist(),
             "residual": state[4].tolist()}
    return state[0], state[1][0], stats


def _inverse_top(L, base, lower, momentum):
    """The top row y^(r) with dL/dy^(r) = momentum, by Newton from zero,
    with its stats; base, rows and momentum hold floats or batches of them."""
    return _newton_top_row(
        lambda top, moving: top_row_derivatives(L, base, lower, top),
        list(momentum), [0.0] * L.qdim, L.qdim,
    )


def legendre_inverse(L, cpoint, *, return_stats=False):
    """Recover the jet point with momentum `cpoint.momentum` under L."""
    check_fit(L, *point_arrays(cpoint)[1:], rows=1)
    top, _, stats = _inverse_top(L, cpoint.base, cpoint.jets,
                                 cpoint.momentum)
    point = TransverseJetPoint(cpoint.chart, L.order, cpoint.leaf,
                               cpoint.base, cpoint.jets + (tuple(top),))
    L._check_points(point.base, point.jets)
    return (point, stats) if return_stats else point


def pseudo_hamiltonian(L, cpoint) -> HamiltonianValue:
    """H = L composed with the inverse Legendre map."""
    return HamiltonianValue(hamiltonian_at(L, *point_arrays(cpoint)[1:],
                                           cpoint.momentum))


def hamiltonian_at(L, base, jets, momentum, *, return_stats=False):
    """`pseudo_hamiltonian`'s value at base (q,), lower rows (r-1, q) and
    momentum (q,), or at a batch of them (B, ...) as a batch of values."""
    check_fit(L, base, jets, rows=1)
    x, *rows = jet_columns(base, jets)
    top, _, stats = _inverse_top(L, x, rows, columns(momentum))
    top = np.array(top).T
    raise_where(~np.isfinite(top).all(axis=-1), InvariantViolation,
                "non-finite entry in jets")
    full = np.concatenate([np.reshape(jets, top.shape[:-1] + (-1, L.qdim)),
                           top[..., None, :]], axis=-2)
    L._check_points(base, full)
    value = value_of(L.program.eval(jet_env(base, full)))
    raise_where(~np.isfinite(value), InvariantViolation,
                "non-finite hamiltonian value")
    return (value, stats) if return_stats else value


def _shifted(y, group, delta, q):
    """`y` with the variables e of the cap-2 `group` replaced by delta + e:
    the Taylor shift of a series in that group to a moved centre, as
    c_0 + sum_i m_i (c_i + sum_(k >= i) c_ik m_k) with m = delta + e."""
    if not isinstance(y, Series):
        return y
    parts = [part.within(y.space, group) for part in y.split(group)]
    moved = [y.space.seed(d, group * q + i) for i, d in enumerate(delta)]
    out = parts[0]
    pos = q + 1
    for i in range(q):
        inner = parts[1 + i]
        for k in range(i, q):
            inner = inner + parts[pos] * moved[k]
            pos += 1
        out = out + moved[i] * inner
    return out


def _stage_value(L, sp, j, lower, momenta, guess=()):
    """Value of the j-th chain stage, as a series in groups 0..j-1 of `sp`,
    with the solution tree it found.

    `sp` is the chain's space ((q, 2),) * r; `lower` binds x and y^(1..j),
    with y^(k) seeded in group k-1.  `momenta[k]` is the momentum covector
    traded for y^(k+1).  Stage r is L itself; stage j < r seeds
    y^(j+1) = top + e in group j and solves the top-variable Legendre map
    of stage j+1 by Newton, reading the value, gradient and Hessian in
    group j as series in the lower groups.  Newton runs until the whole
    residual series is settled, so the top row is the implicit function
    y^(j+1)(y^(1..j)) to the space's order, not only its value.

    The solution tree lists the top rows of stages j..r-1, each a series
    in the groups below it.  `guess` is such a tree to start from.  Each
    time stage j moves its top row by delta, the tree the inner stages
    found at the last top row is shifted by delta in group j and handed
    down as their guess, so an inner stage whose prediction already
    settles costs one evaluation of L.

    Values may be batches: every sample runs its own Newton at every
    stage.  Each step evaluates the stages below it for the whole batch,
    and keeps the top row and solution tree it evaluated only for the
    samples that step moves, so a frozen sample shifts and starts its
    inner stages as it would alone.
    """
    q = L.qdim
    if j == L.order:
        return L.program.eval(lower), []
    names = coordinate_names(q, j + 1)[(j + 1) * q:]
    start, inner = (guess[0], guess[1:]) if guess else ([0.0] * q, [])
    last = None  # the top row of each sample's last move

    def quad_at(top, moving):
        nonlocal last, inner
        here = inner
        if last is not None:
            delta = [t - t0 for t, t0 in zip(top, last)]
            here = [[_shifted(y, j, delta, q) for y in row] for row in here]
        env = dict(lower)
        for i, name in enumerate(names):
            env[name] = sp.seed(top[i], j * q + i)
        value, here = _stage_value(L, sp, j + 1, env, momenta, here)
        last = _where_tree(moving, top, last)
        inner = _where_tree(moving, here, inner)
        return _second_order_in(value, j, q)

    top, value, _ = _newton_top_row(quad_at, list(momenta[j]), start, q,
                                    stage=j + 1, polish=1)
    return value, [top, *inner]


def legendre_chain(L):
    """Diagonal hamiltonian evaluator of the full Legendre chain.

    Returns H(base, momentum) -> float, where every stage momentum is set
    to the same covector and the order-zero stage value is divided by r.
    A batch of bases and momenta (B, q) gives a batch of values.  Stage
    failures raise SingularHessian / NoConvergence tagged with the stage
    index.
    """
    r, q = L.order, L.qdim
    if L.slashed:
        raise InvariantViolation(
            "the chain evaluator needs a lagrangian smooth on the whole fiber"
        )
    sp = space(((q, 2),) * r)
    names = coordinate_names(q)

    def evaluate(base, momentum):
        base = np.asarray(base, dtype=float)
        momentum = np.asarray(momentum, dtype=float)
        if base.shape[-1:] != (q,) or momentum.shape != base.shape \
                or base.ndim > 2:
            raise ShapeError(f"base and momentum must have {q} entries")
        for values, what in ((base, "base"), (momentum, "momentum")):
            raise_where(~np.isfinite(values).all(axis=-1), InvariantViolation,
                        f"non-finite entry in {what}")
        lower = dict(zip(names, columns(base)))
        momenta = [columns(momentum)] * r
        return _stage_value(L, sp, 0, lower, momenta)[0] / r

    return evaluate


def _ray_level(value_at, phi_value, batch):
    """Deviation from the level phi where each fiber ray crosses it, or
    None when no t <= 2^59 reaches phi, for a batch of `batch` (None:
    unbatched) with the levels phi_value.

    From t = 1 the bracket [lo, hi] grows by at least doubling t, or by a
    longer Newton step up to 16 t, until the value reaches phi; then Newton
    steps narrow it, bisecting whenever a step leaves it, until the
    deviation is at roundoff or the bracket cannot shrink.  Each round is
    array arithmetic over the whole batch; `value_at(t)` gives every ray's
    value and slope at its t (a float unbatched).  A stopped sample keeps
    its t, so, as no sample's value depends on another's, it reads the same
    values, bracket and verdict in every later round: it stays stopped
    without a mask.  Every sample steps as in `ray_levels_per_sample` of
    tests/oracles.py.
    """
    phi = np.broadcast_to(np.asarray(phi_value, dtype=float), (batch or 1,))
    n = len(phi)
    roundoff = 4.0 * sys.float_info.epsilon * np.maximum(1.0, np.abs(phi))
    lo, hi, t = np.zeros(n), np.full(n, np.inf), np.ones(n)
    for _ in range(300):
        v, slope = value_at(t if batch else float(t[0]))
        dev = v - phi
        level = np.abs(dev)
        below = dev < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        # no slope, no step: dev / NaN raises no floating-point warning
        step = t - dev / np.where(slope > 0.0, slope, np.nan)
        unbracketed = hi == np.inf
        t_next = np.where(unbracketed, np.minimum(np.minimum(
            np.fmax(step, 2.0 * t), 16.0 * t), RAY_REACH),
            np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)))
        close = level <= roundoff
        missing = ~close & unbracketed & (t >= RAY_REACH)
        # t is lo or hi by now, so a t_next inside the bracket moves
        going = ~(close | missing) & (unbracketed
                                      | ((lo < t_next) & (t_next < hi)))
        if not going.any():
            break
        t = t_next if going.all() else np.where(going, t_next, t)
    return np.where(missing, None, level).tolist()


def _admissible_draws(L, seed, box, samples, env_at):
    """Base, jets (B, r q) in [-1, 1] and unit ray direction of each
    sample, each kind in one block of the stream of "admissible": every
    base with its jets, then every direction.  Jets that L excludes are
    drawn again, up to 50 times: attempt a draws a block from the stream
    salted a and keeps the rows of the samples still excluded."""
    r, q = L.order, L.qdim
    stream = sample_stream(seed, "admissible")
    base, jets = split_draws(box, stream.random((samples, q + r * q)))
    direction = stream.standard_normal((samples, r * q))
    if L.excluded is not None:
        pending = np.arange(samples)
        for attempt in range(1, 51):
            kept = value_of(L.excluded.eval(
                env_at(base[pending], jets[pending]))) > 0.0
            pending = pending[~np.broadcast_to(kept, pending.shape)]
            if not len(pending):
                break
            jets[pending] = sample_stream(seed, "admissible", attempt) \
                .uniform(-1.0, 1.0, (samples, r * q))[pending]
    # a stacked d @ d takes each row's sum in np.linalg.norm's order
    norm = np.sqrt(direction[..., None, :] @ direction[..., :, None])
    return tuple(map(stack_samples, (base, jets, direction / norm[..., 0])))


def admissibility_check(L, phi=None, samples=25, seed=0, *,
                        base_box) -> Report:
    """The four admissible-lagrangian conditions as a report.

    (a) positive-definite vertical Hessian, (b) nonnegativity with zero on
    the zero section, (c) projectability (no leaf-coordinate dependence),
    (d) a prescribed basic level phi (default 1) attained along random
    fiber rays.  Each condition runs on all samples, drawn in blocks, at
    once; (a) reports the least `linalg.definiteness` (1.0 for any positive
    q = 1 Hessian) against 1 / CONDITION_LIMIT.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    r, q = L.order, L.qdim
    report = Report(seed=int(seed))
    box = np.asarray(base_box, dtype=float)
    if box.shape != (q, 2):
        raise ShapeError("base_box must have one interval per coordinate")

    leaf_vars = {v for v in L.program.free_variables() if v.startswith("u")}
    projectable = not leaf_vars
    report.add("projectable", L.name or "L", float(len(leaf_vars)), 0.0)

    names = coordinate_names(q, r)
    ray = space(((1, 1),))

    def env_at(base, jets):
        env = dict.fromkeys(leaf_vars, 0.0)
        env.update(zip(names, columns(np.concatenate([base, jets], axis=-1))))
        return env

    base, jets, direction = _admissible_draws(L, seed, box, samples, env_at)
    batch = len(base) if base.ndim == 2 else None
    min_ratio = -np.inf
    if projectable:
        hess = top_hessian(L, base, jets.reshape(base.shape[:-1] + (r, q)))
        min_ratio = worst(np.inf, linalg.definiteness(hess), min)
    min_value = worst(np.inf, value_of(L.program.eval(env_at(base, jets))),
                      min)
    zero = np.zeros_like(jets)
    zero_dev = 0.0 if L.slashed else worst(0.0, np.abs(value_of(
        L.program.eval(env_at(base, zero)))))
    phi_value = value_of(phi.eval(env_at(base, zero))) \
        if phi is not None else 1.0

    def along(t):
        s = ray.seed(t, 0)
        env = dict.fromkeys(leaf_vars, 0.0)
        env.update(zip(names, [*columns(base),
                               *(s * d for d in columns(direction))]))
        out = L.program.eval(env)
        return out.value, out.coeffs[..., 1]

    levels = _ray_level(along, phi_value, batch)
    ray_failures = levels.count(None)
    ray_dev = worst(0.0, [dev for dev in levels if dev is not None])

    report.add("hessian_positive_definite", L.name or "L",
               float(min_ratio), 1 / linalg.CONDITION_LIMIT, direction=">")
    report.add("nonnegative", L.name or "L", max(0.0, -float(min_value)),
               ZERO_SECTION_TOLERANCE)
    context = "skipped (slashed)" if L.slashed else (L.name or "L")
    report.add("zero_at_zero_section", context, zero_dev,
               ZERO_SECTION_TOLERANCE)
    metric = float(ray_failures) if ray_failures else ray_dev
    report.add("basic_level_attained",
               f"{L.name or 'L'} ({ray_failures} unbracketed rays)"
               if ray_failures else (L.name or "L"),
               metric, RAY_TOLERANCE)
    return report
