"""Legendre maps, pseudo-hamiltonians and admissibility checks.

The Legendre map trades the top-order jet row for the momentum
p = dL/dy^(r); its inverse is a damped Newton solve against the vertical
Hessian.  Composing the map stagewise down to order zero and restricting
to equal momenta yields the diagonal hamiltonian H(x, p); for the
recursive metric lifts this reproduces the dual hamiltonian of the
first-order stage.

Convention: the diagonal hamiltonian carries a 1/r normalization, so the
flat lift gives H(x, p) = |p|^2 / 4 at every order.
"""

from __future__ import annotations

import math
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import top_row_derivatives, vertical_hessian
from .errors import (
    InvariantViolation,
    NoConvergence,
    ShapeError,
    SingularHessian,
)
from .expr import coordinate_names
from .jets import TransverseJetPoint, _check_rows, _finite_tuple
from .report import Report
from .scalars import Series, second_order, space, value_of

__all__ = [
    "CotangentJetPoint",
    "HamiltonianValue",
    "legendre_map",
    "legendre_inverse",
    "pseudo_hamiltonian",
    "legendre_chain",
    "admissibility_check",
]

NEWTON_TOLERANCE = 1e-10
NEWTON_MAX_ITERATIONS = 50
SETTLED_TOLERANCE = 1e-14
CONDITION_LIMIT = 1e12
RAY_TOLERANCE = 1e-8
RAY_REACH = 2.0 ** 59
ZERO_SECTION_TOLERANCE = 1e-12
EIG_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CotangentJetPoint:
    """A momentum-replaced jet point: (x, y^(1..r-1), p).

    `order` is the order r of the jet point it came from; `jets` holds the
    r-1 lower rows, `momentum` the top-order momentum covector.
    """

    chart: str
    order: int
    leaf: tuple
    base: tuple
    jets: tuple  # r-1 rows of q entries
    momentum: tuple  # q entries

    def __post_init__(self):
        if self.order < 1:
            raise ShapeError(f"order must be >= 1, got {self.order}")
        _check_rows(self, self.order - 1)
        momentum = _finite_tuple(self.momentum, "momentum")
        if len(momentum) != len(self.base):
            raise ShapeError("momentum must match the transverse dimension")
        object.__setattr__(self, "momentum", momentum)

    @property
    def qdim(self):
        return len(self.base)

    def to_dict(self):
        return {
            "chart": self.chart,
            "leaf": list(self.leaf),
            "base": list(self.base),
            "jets": [list(row) for row in self.jets],
            "momentum": list(self.momentum),
        }


@dataclass(frozen=True)
class HamiltonianValue:
    value: float
    at: CotangentJetPoint

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvariantViolation("non-finite hamiltonian value")


def legendre_map(L, point) -> CotangentJetPoint:
    """(x, y^(1..r)) -> (x, y^(1..r-1), dL/dy^(r))."""
    L.check_point(point)
    _, momentum, _ = top_row_derivatives(L, point.base, point.jets[:-1],
                                         point.jets[-1])
    return CotangentJetPoint(point.chart, L.order, point.leaf, point.base,
                             point.jets[:-1], tuple(momentum))


def _second_order_in(out, group, q):
    """Value, gradient and Hessian of `out` in the q variables of a cap-2
    `group`, as series in the other groups, or as floats for group 0."""
    return second_order(out.split(group) if group else out.coeffs.reshape(
        out.space.shape[0], -1)[:, 0].tolist(), q)


def _condition_number(h):
    """2-norm condition number of a symmetric float matrix, inf when it is
    singular or not finite: closed form for q <= 2, eigvalsh beyond."""
    if not all(math.isfinite(v) for row in h for v in row):
        return math.inf
    if len(h) == 2:
        (a, b), (_, d) = h
        big = abs(0.5 * (a + d)) + math.hypot(0.5 * (a - d), b)
        small = abs(a * d - b * b) / big if big else 0.0
    else:
        eig = np.abs(np.linalg.eigvalsh(h)) if len(h) > 2 else [abs(h[0][0])]
        big, small = max(eig), min(eig)
    return big / small if small > 0.0 else math.inf


def _largest_coefficient(entries):
    """Largest magnitude over the coefficients of floats or series."""
    return float(np.abs(np.concatenate(
        [e.coeffs if isinstance(e, Series) else [e] for e in entries])).max())


def _newton_top_row(quad_at, target, guess, q, *, stage=None,
                    tol=NEWTON_TOLERANCE, max_iterations=NEWTON_MAX_ITERATIONS,
                    condition_limit=CONDITION_LIMIT, polish=0):
    """Solve grad(quad_at(top)) = target for the top row by damped Newton.

    `quad_at(top)` returns the (value, gradient, Hessian) of the stage in
    the top row; entries may be floats or series.  The solve is settled,
    and stops, once every coefficient of the residual is at roundoff
    relative to those of the value, gradient and Hessian; otherwise it
    stops `polish` steps after its largest coefficient falls to `tol`.
    Damping and the condition guard use float values.  Returns (top_row,
    stage_value, stats).
    """
    where = f"stage {stage}: " if stage is not None else ""
    top = list(guess)
    if len(top) != q:
        raise ShapeError(f"guess must have {q} entries")

    def residual(out):
        value, grad, hess = out
        F = [grad[i] - target[i] for i in range(q)]
        size = _largest_coefficient(F)
        terms = _largest_coefficient([1.0, value, *grad, *sum(hess, [])])
        settled = math.isfinite(terms) and size <= SETTLED_TOLERANCE * terms
        return F, max(abs(value_of(f)) for f in F), size, settled

    out = quad_at(top)
    F, norm, size, settled = residual(out)
    iterations = 0
    extra = polish
    while not settled:
        if size <= tol:
            if extra <= 0:
                break
            extra -= 1
        elif iterations >= max_iterations:
            raise NoConvergence(
                f"{where}residual {size:.3e} after {iterations} iterations"
            )
        hess = out[2]
        cond = _condition_number([[value_of(h) for h in row] for row in hess])
        if not math.isfinite(cond) or cond > condition_limit:
            raise SingularHessian(
                f"{where}vertical hessian condition estimate {cond:.3e}"
            )
        step = linalg.solve(hess, [[-f] for f in F])
        scale = 1.0
        while True:
            trial = [top[i] + scale * step[i][0] for i in range(q)]
            trial_out = quad_at(trial)
            trial_F, trial_norm, trial_size, trial_settled = residual(
                trial_out)
            if trial_norm < norm or scale < 1e-8 or norm <= tol:
                break
            scale *= 0.5
        top, out, F, norm = trial, trial_out, trial_F, trial_norm
        size, settled = trial_size, trial_settled
        iterations += 1
    stats = {"iterations": iterations, "residual": size}
    return top, out[0], stats


def legendre_inverse(L, cpoint, guess=None, *, return_stats=False):
    """Recover the jet point with momentum `cpoint.momentum` under L."""
    if cpoint.order != L.order or cpoint.qdim != L.qdim:
        raise ShapeError("cotangent point does not match the lagrangian")
    q = L.qdim
    if guess is None:
        guess = (0.0,) * q
    top, _, stats = _newton_top_row(
        lambda t: top_row_derivatives(L, cpoint.base, cpoint.jets, t),
        list(cpoint.momentum), guess, q,
    )
    point = TransverseJetPoint(cpoint.chart, L.order, cpoint.leaf,
                               cpoint.base, cpoint.jets + (tuple(top),))
    L.check_point(point)
    if return_stats:
        return point, stats
    return point


def pseudo_hamiltonian(L, cpoint, guess=None) -> HamiltonianValue:
    """H = L composed with the inverse Legendre map."""
    point = legendre_inverse(L, cpoint, guess)
    return HamiltonianValue(L.value(point), cpoint)


def _shifted(y, group, delta, q):
    """`y` with the variables e of the cap-2 `group` replaced by delta + e:
    the Taylor shift of a series in that group to a moved centre, as
    c_0 + sum_i m_i (c_i + sum_(k >= i) c_ik m_k) with m = delta + e."""
    if not isinstance(y, Series):
        return y
    parts = y.split(group)
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
    """
    q = L.qdim
    if j == L.order:
        return L.program.eval(lower), []
    names = coordinate_names(q, j + 1)[(j + 1) * q:]
    start, inner = (guess[0], guess[1:]) if guess else ([0.0] * q, [])
    last = start

    def quad_at(top):
        nonlocal last, inner
        if any(t is not t0 for t, t0 in zip(top, last)):
            delta = [t - t0 for t, t0 in zip(top, last)]
            inner = [[_shifted(y, j, delta, q) for y in row] for row in inner]
        env = dict(lower)
        for i, name in enumerate(names):
            env[name] = sp.seed(top[i], j * q + i)
        value, inner = _stage_value(L, sp, j + 1, env, momenta, inner)
        last = top
        return _second_order_in(value, j, q)

    top, value, _ = _newton_top_row(quad_at, list(momenta[j]), start, q,
                                    stage=j + 1, polish=1)
    return value, [top, *inner]


def legendre_chain(L):
    """Diagonal hamiltonian evaluator of the full Legendre chain.

    Returns H(base, momentum) -> float, where every stage momentum is set
    to the same covector and the order-zero stage value is divided by r.
    Stage failures raise SingularHessian / NoConvergence tagged with the
    stage index.
    """
    r, q = L.order, L.qdim
    if L.slashed:
        raise InvariantViolation(
            "the chain evaluator needs a lagrangian smooth on the whole fiber"
        )
    sp = space(((q, 2),) * r)
    names = coordinate_names(q)

    def evaluate(base, momentum):
        base = _finite_tuple(base, "base")
        momentum = _finite_tuple(momentum, "momentum")
        if len(base) != q or len(momentum) != q:
            raise ShapeError(f"base and momentum must have {q} entries")
        lower = dict(zip(names, base))
        momenta = [momentum] * r
        return float(_stage_value(L, sp, 0, lower, momenta)[0]) / r

    return evaluate


def _ray_level(value_at, phi_value):
    """Deviation from the level phi where the fiber ray t -> value_at(t)
    crosses it, or None when no t <= 2^59 reaches phi.

    `value_at(t)` returns the value and the slope at t.  From t = 1 the
    bracket [lo, hi] grows by at least doubling t, or by a longer Newton
    step up to 16 t, until the value reaches phi; then Newton steps
    narrow it, bisecting whenever a step leaves it, until the deviation is
    at roundoff or the bracket cannot shrink.
    """
    lo, hi, t = 0.0, math.inf, 1.0
    roundoff = 4.0 * sys.float_info.epsilon * max(1.0, abs(phi_value))
    for _ in range(300):
        v, slope = value_at(t)
        dev = v - phi_value
        if abs(dev) <= roundoff:
            break
        if dev < 0.0:
            lo = t
        else:
            hi = t
        step = t - dev / slope if slope > 0.0 else math.nan
        if hi == math.inf:
            if t >= RAY_REACH:
                return None
            t_next = min(step if step > 2.0 * t else 2.0 * t, 16.0 * t,
                         RAY_REACH)
        else:
            t_next = step if lo < step < hi else 0.5 * (lo + hi)
            if not lo < t_next < hi or t_next == t:
                break
        t = t_next
    return abs(dev)


def admissibility_check(L, phi=None, samples=25, seed=0, *, base_box,
                        jet_scale=1.0) -> Report:
    """The four admissible-lagrangian conditions as a report.

    (a) positive-definite vertical Hessian, (b) nonnegativity with zero on
    the zero section, (c) projectability (no leaf-coordinate dependence),
    (d) a prescribed basic level phi (default 1) attained along random
    fiber rays.
    """
    r, q = L.order, L.qdim
    report = Report(seed=int(seed))
    rng = np.random.default_rng([int(seed), zlib.crc32(b"admissible")])
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
        env.update(zip(names, (*base, *jets)))
        return env

    min_eig = np.inf
    min_value = np.inf
    zero_dev = 0.0
    ray_dev = 0.0
    ray_failures = 0
    for _ in range(samples):
        base = box[:, 0] + rng.random(q) * (box[:, 1] - box[:, 0])
        jets = rng.uniform(-jet_scale, jet_scale, r * q)
        if L.excluded is not None:
            for _ in range(50):
                if float(L.excluded.eval(env_at(base, jets))) > 0.0:
                    break
                jets = rng.uniform(-jet_scale, jet_scale, r * q)
        if projectable:
            point = TransverseJetPoint(L.name, r, (), tuple(base),
                                       tuple(tuple(jets[k * q:(k + 1) * q])
                                             for k in range(r)))
            min_eig = min(min_eig, vertical_hessian(L, point).min_eigenvalue)
        else:
            min_eig = min(min_eig, -np.inf)
        min_value = min(min_value, float(L.program.eval(env_at(base, jets))))
        if not L.slashed:
            zero_dev = max(zero_dev,
                           abs(float(L.program.eval(env_at(base,
                                                           [0.0] * (r * q))))))
        direction = rng.standard_normal(r * q)
        direction /= np.linalg.norm(direction)
        phi_value = float(phi.eval(env_at(base, [0.0] * (r * q)))) \
            if phi is not None else 1.0

        def along(t):
            s = ray.seed(t, 0)
            out = L.program.eval(env_at(base, [s * d for d in direction]))
            return out.value, float(out.coeffs[1])

        dev = _ray_level(along, phi_value)
        if dev is None:
            ray_failures += 1
        else:
            ray_dev = max(ray_dev, dev)

    report.add("hessian_positive_definite", L.name or "L",
               float(min_eig), EIG_TOLERANCE, direction=">")
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
