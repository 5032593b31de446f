"""Transverse metrics, their lagrangian lifts and riemannian-foliation checks.

The central constructions: a transverse metric g lifts recursively to a
lagrangian L^(r) with vertical Hessian 2g, and g's Levi-Civita data
prolongs to a nonlinear connection on the order-r jet fiber (its
coefficients are the Taylor coefficients of parallel transport along the
jet curve, computed numerically at each point); copying g onto each
summand of the resulting horizontal/vertical splitting (summands declared
orthogonal) yields a fiber metric G on the full jet fiber.  `holonomy_check` then verifies chart-invariance of G and
`vertical_exactness_check` verifies G_top against the vertical Hessian.

Convention: the top vertical block of G equals g, i.e. half the vertical
Hessian of L^(r).

Metric fields and lifted metrics are plain classes, compared by identity
and treated as immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from .dynamics import LagrangianField, top_hessian
from .errors import DomainError, InvariantViolation, ShapeError, SingularMetric
from .expr import ExprProgram, Graph, coordinate_names, parse
from .jets import (_check_in_overlap, _prolong, _prolong_jacobian,
                   _taylor_env, check_fit, point_arrays, sample_box,
                   sample_overlap, sample_points, sample_stream)
from .linalg import SINGULAR_TOLERANCE, check_regular
from .report import Report, worst
from .scalars import columns, raise_where, stack_samples

__all__ = [
    "MetricField",
    "LiftedMetric",
    "lift_lagrangian",
    "lift_metric",
    "prolongation_coefficients",
    "holonomy_check",
    "vertical_exactness_check",
    "sample_jets",
]

HOLONOMY_TOLERANCE = 1e-7
EXACTNESS_TOLERANCE = 1e-8
SYMMETRY_TOLERANCE = 1e-12


class MetricField:
    """A symmetric positive-definite q x q field over transverse coordinates.

    `components` is the upper triangle mirrored, the matrix every
    computation reads; `lower[i][j]` is the entry (i, j), j < i, as given,
    which `check_positive_definite` holds to its mirror image.
    """

    __slots__ = ("components", "lower", "name", "chart")

    def __init__(self, components: tuple, lower: tuple, name: str = "",
                 chart: str = ""):
        self.components, self.lower = components, lower  # ExprPrograms
        self.name, self.chart = name, chart

    @classmethod
    def from_components(cls, entries, q, *, name="", chart=""):
        if len(entries) != q or any(len(row) != q for row in entries):
            raise ShapeError(f"metric {name!r}: need a {q} x {q} matrix")
        parsed = [[p if isinstance(p, ExprProgram) else parse(str(p))
                   for p in row] for row in entries]
        allowed = set(coordinate_names(q))
        for i, j in np.ndindex(q, q):
            extra = parsed[i][j].free_variables() - allowed
            if extra:
                raise InvariantViolation(
                    f"metric {name!r} entry ({i},{j}) uses {sorted(extra)}"
                )
        return cls(tuple(tuple(parsed[min(i, j)][max(i, j)] for j in range(q))
                         for i in range(q)),
                   tuple(tuple(row[:i]) for i, row in enumerate(parsed)),
                   name, chart)

    @property
    def qdim(self):
        return len(self.components)

    def evaluate(self, base):
        """The q x q matrix at a base point (q,), or matrices (B, q, q) at a
        batch of them (B, q)."""
        q = self.qdim
        base = np.asarray(base, dtype=float)
        env = dict(zip(coordinate_names(q), columns(base)))
        out = np.empty(base.shape[:-1] + (q, q))
        for i in range(q):
            for j in range(i, q):
                # the lower triangle is the same program as the upper one
                out[..., i, j] = out[..., j, i] = \
                    self.components[i][j].eval(env)
        raise_where(~np.isfinite(out).all(axis=(-2, -1)), DomainError,
                    "metric {!r} is not finite at {}", self.name, base)
        return out

    def check_positive_definite(self, box):
        """Raise SingularMetric unless g is positive definite at 25 points
        of `box`, drawn from a stream fixed by the metric's name and chart,
        and InvariantViolation unless each lower entry equals its mirror
        image there."""
        if np.shape(box) != (self.qdim, 2):
            raise ShapeError("domain box must have one interval per coordinate")
        pts = sample_box(box, 25, 0, f"metric:{self.name}:{self.chart}")
        g = self.evaluate(pts)
        env = dict(zip(coordinate_names(self.qdim), columns(pts)))
        for i, row in enumerate(self.lower):
            for j, prog in enumerate(row):
                raise_where(~np.isclose(prog.eval(env), g[:, i, j],
                                        SYMMETRY_TOLERANCE,
                                        SYMMETRY_TOLERANCE),
                            InvariantViolation,
                            "metric {!r} entry ({},{}) differs from entry "
                            "({},{}) at {}", self.name, i, j, j, i, pts)
        eig = np.linalg.eigvalsh(g).min(axis=-1)
        raise_where(eig <= SINGULAR_TOLERANCE, SingularMetric,
                    "metric {!r} has eigenvalue {:.3e} at {}", self.name,
                    eig, pts)


def _christoffel_series(g, base, jets=()):
    """Taylor coefficients of g and of its Levi-Civita symbols along a curve.

    Along x(t) = base + sum_k jets[k-1] t^k, returns (G, Gamma): G[k] is the
    k-th coefficient of g(x(t)) and Gamma[k][a, b, c] that of
    Gamma^a_bc(x(t)).  Seeding the base coefficient as well (the space
    ((1, n - 1), (q, 1))) makes one evaluation of g carry the series of all
    its partials.  With base (B, q) and jets (B, n - 1, q) every array gains
    a leading batch axis.
    """
    q = g.qdim
    base = np.asarray(base, dtype=float)
    lead = base.shape[:-1]
    jets = np.reshape(jets, lead + (-1, q))
    n = jets.shape[-2] + 1
    env = _taylor_env(base, jets, seeded=1)
    G = np.zeros(lead + (n, q, q))
    dG = np.zeros(lead + (n, q, q, q))  # [k, m, i, j]: d g_ij / d x_m
    for i in range(q):
        for j in range(i, q):
            c = g.components[i][j].eval(env).coeffs.reshape(lead + (n, q + 1))
            G[..., i, j] = G[..., j, i] = c[..., 0]
            dG[..., i, j] = dG[..., j, i] = c[..., 1:]
    check_regular(G[..., 0, :, :], SingularMetric,
                  "metric condition estimate {:.3e} at {}", base)
    ginv = np.linalg.inv(G[..., 0, :, :])
    # first kind, at [k, d, b, c]: (d_b g_dc + d_c g_bd - d_d g_bc) / 2
    first = 0.5 * (dG.swapaxes(-3, -2) + dG.swapaxes(-3, -1) - dG)
    first = first.reshape(lead + (n, q, q * q))
    # series division of g Gamma = first:
    # Gamma_k = g_0^-1 (first_k - sum_{1<=j<=k} g_j Gamma_(k-j))
    gamma = []
    for k in range(n):
        rhs = first[..., k, :, :] - sum(G[..., j, :, :] @ gamma[k - j]
                                        for j in range(1, k + 1))
        gamma.append(ginv @ rhs)
    gamma = np.stack(gamma, axis=-3).reshape(lead + (n, q, q, q))
    # the products need not round (b, c) and (c, b) alike
    return G, (gamma + gamma.swapaxes(-2, -1)) / 2.0


class _Lift:
    """The lift recursion of one metric on one expression graph.

    L^(1) = g(y^(1), y^(1)) and L^(k+1) = L^(k) + g(y^(k+1) - S^(k), ...),
    with S^(k) the spray of L^(k).  Every stage has vertical Hessian 2g,
    so each spray needs only g^-1, built once by symbolic Gauss-Jordan.
    Stages and the coefficients M_(k) are built once, when asked for.
    """

    def __init__(self, texts, q):
        self.q, self.graph = q, Graph()
        self.g = [[self.graph.load(parse(text).ast) for text in row]
                  for row in texts]
        self.ginv = self.graph.inverse(self.g)
        self.stages, self.sprays, self.connection = [], [], []

    def row(self, k):
        """The nodes of the jet row y^(k), with y^(0) = x."""
        names = coordinate_names(self.q, k)[k * self.q:]
        return list(map(self.graph.var, names))

    def _derivation(self, f, k):
        """Gamma f = sum_(j<=k) j y^(j) . df/dy^(j-1)."""
        G = self.graph
        return G.sum(G.mul(G.mul(G.num(j), y), G.diff(f, lower.name))
                     for j in range(1, k + 1)
                     for y, lower in zip(self.row(j), self.row(j - 1)))

    def lagrangian(self, r):
        G, q = self.graph, self.q
        while len(self.stages) < r:
            k = len(self.stages)
            if k == 0:
                L, v = G.zero, self.row(1)
            else:
                # S^(k) = g^-1 (Gamma dL/dy^(k) - dL/dy^(k-1)) / (4(k+1))
                L = self.stages[-1].ast
                rhs = [G.sub(self._derivation(G.diff(L, top.name), k),
                             G.diff(L, lower.name))
                       for top, lower in zip(self.row(k), self.row(k - 1))]
                self.sprays.append([G.div(G.sum(map(G.mul, row, rhs)),
                                          G.num(4 * (k + 1)))
                                    for row in self.ginv])
                v = list(map(G.sub, self.row(k + 1), self.sprays[-1]))
            # g(v, v) = sum_i g_ii v_i^2 + sum_(i<j) 2 g_ij v_i v_j
            self.stages.append(ExprProgram(G.add(L, G.sum(
                G.mul(G.num(2 - (i == j)), G.mul(self.g[i][j],
                                                 G.mul(v[i], v[j])))
                for i in range(q) for j in range(i, q)))))
        return self.stages[r - 1]

    def coefficients(self, r):
        """M_(1..r): M_(1) = Gamma(x) y^(1) = 2 dS^(1)/dy^(1), as the
        stage-1 spray is S^(1) = Gamma(x)(y^(1), y^(1)) / 4; then
        M_(k+1) = (Gamma M_(k) + M_(1) M_(k)) / (k + 1)."""
        G, q = self.graph, self.q
        if not self.connection:
            self.lagrangian(2)
            self.connection.append([[G.mul(G.num(2.0), G.diff(s, y.name))
                                     for y in self.row(1)]
                                    for s in self.sprays[0]])
        m1 = self.connection[0]
        while len(self.connection) < r:
            k, prev = len(self.connection), self.connection[-1]
            self.connection.append([[G.div(G.add(
                self._derivation(prev[a][b], k + 1),
                G.sum(G.mul(m1[a][c], prev[c][b]) for c in range(q))),
                G.num(k + 1)) for b in range(q)] for a in range(q)])
        return [tuple(tuple(map(ExprProgram, row)) for row in mat)
                for mat in self.connection[:r]]


_lift_of = lru_cache(maxsize=64)(_Lift)  # one recursion per metric


def _lift(g):
    """The lift recursion of g, kept per metric and keyed on the entries'
    source text, so a higher order continues from the stages built."""
    return _lift_of(tuple(tuple(p.source for p in row)
                          for row in g.components), g.qdim)


def lift_lagrangian(g, r) -> LagrangianField:
    """The recursive metric lift L^(r); smooth, vertical Hessian 2g."""
    if r < 1:
        raise ShapeError(f"need r >= 1, got {r}")
    return LagrangianField.from_program(
        _lift(g).lagrangian(r), order=r, qdim=g.qdim,
        name=f"lift({g.name or 'g'},{r})",
    )


def prolongation_coefficients(g, r):
    """The prolonged connection coefficients M_(1..r) in closed form.

    Each is a q x q tuple of programs over (x, y^(1..r)): the forms
    `folijet lift` prints, whose values `LiftedMetric` computes
    numerically at each jet point.
    """
    if r < 1:
        raise ShapeError(f"need r >= 1, got {r}")
    return _lift(g).coefficients(r)


def _transport_coefficients(g, base, jets):
    """g at the base point and the prolonged connection coefficients M_(0..r).

    M_(k) is the k-th Taylor coefficient of the parallel transport W(t)
    along the jet curve x(t) through base (q,) and jets (r, q): W' = W A
    with W(0) = I = M_(0) and A_ab = Gamma^a_bm(x(t)) x'^m(t), so
    (k+1) M_(k+1) = sum_{j<=k} M_(j) A_(k-j).  A batch of points gives a
    batch of each.
    """
    r = np.shape(jets)[-2]
    G, gamma = _christoffel_series(g, base, jets[..., :r - 1, :])
    velocity = [(k + 1) * jets[..., k, :, None] for k in range(r)]
    A = [sum((gamma[..., j, :, :, :] @ velocity[k - j][..., None, :, :])
             [..., 0] for j in range(k + 1)) for k in range(r)]
    W = [np.eye(g.qdim)]
    for k in range(r):
        W.append(sum(W[j] @ A[k - j] for j in range(k + 1)) / (k + 1))
    return G[..., 0, :, :], W


class LiftedMetric:
    """The fiber metric G on the order-r jet fiber, per source chart.

    The coframe rows delta y^(k) = sum_j M_(j) dy^(k-j) carry orthogonal
    copies of g; the connection coefficients M_(j) are computed at each
    jet point by `_transport_coefficients`.
    """

    __slots__ = ("order", "sources")

    def __init__(self, order: int, sources: Mapping[str, MetricField]):
        self.order, self.sources = order, sources

    @property
    def qdim(self):
        return next(iter(self.sources.values())).qdim

    def _key(self, chart):
        if chart in self.sources:
            return chart
        if len(self.sources) == 1:
            return next(iter(self.sources))
        raise InvariantViolation(
            f"no metric presentation for chart {chart!r}"
        )

    def evaluate(self, point) -> np.ndarray:
        check_fit(point, self)
        _, base, jets = point_arrays(point)
        return self.evaluate_at(point.chart, base, jets)

    def evaluate_at(self, chart, base, jets):
        """G at base (q,) and jets (r, q) in `chart`, or at a batch of
        points, base (B, q) and jets (B, r, q), as (B, n, n)."""
        r = self.order
        g = self.sources[self._key(chart)]
        gb, W = _transport_coefficients(g, base, np.asarray(jets, dtype=float))
        q = g.qdim
        lead = gb.shape[:-2]
        R = np.zeros(lead + ((r + 1) * q, (r + 1) * q))
        for k in range(r + 1):
            for i in range(k + 1):
                R[..., k * q:(k + 1) * q, i * q:(i + 1) * q] = W[k - i]
        # sum over coframe rows k of R_k^T g R_k
        G = R.swapaxes(-2, -1) @ (gb[..., None, :, :] @ R.reshape(
            lead + (r + 1, q, -1))).reshape(R.shape)
        return (G + G.swapaxes(-2, -1)) / 2.0


def lift_metric(g, r) -> LiftedMetric:
    """Lift a metric (or a per-chart family) to the order-r jet fiber."""
    if r < 1:
        raise ShapeError(f"need r >= 1, got {r}")
    if isinstance(g, MetricField):
        fields = {g.chart: g}
    else:
        fields = dict(g)
    return LiftedMetric(r, fields)


def sample_jets(rng, r, q, scale=1.0):
    # one draw of r rows takes the same values as r draws of one row
    return tuple(map(tuple, rng.uniform(-scale, scale, (r, q)).tolist()))


def holonomy_check(atlas, lifted, samples=25, seed=0, *,
                   tol=HOLONOMY_TOLERANCE) -> Report:
    """Transition-invariance of the lifted metric: DPhi^T G' DPhi == G,
    over all of a transition's samples at once.  A transition from or to a
    chart where the metric has no presentation fails, with the number of
    such charts as its metric."""
    report = Report(seed=int(seed))
    r, p = lifted.order, atlas.p
    q = lifted.qdim
    for t in atlas.transitions.values():
        missing = [c for c in dict.fromkeys((t.from_chart, t.to_chart))
                   if c not in lifted.sources]
        if missing:
            report.add("holonomy", f"{t.name} (no presentation in chart "
                       f"{' or '.join(missing)})", float(len(missing)), tol)
            continue
        pts = stack_samples(sample_overlap(t, samples, seed))
        rng = sample_stream(seed, t.name, 7)
        jets = stack_samples(rng.uniform(-1.0, 1.0, (samples, r, q)))
        leaf, base = pts[..., :p], pts[..., p:]
        _check_in_overlap(t, t.from_chart, leaf, base)
        _, image_base, image_jets = _prolong(atlas, t, leaf, base, jets)
        dphi = _prolong_jacobian(t, base, jets)
        left = dphi.swapaxes(-2, -1) @ lifted.evaluate_at(
            t.to_chart, image_base, image_jets) @ dphi
        dev = np.abs(left - lifted.evaluate_at(t.from_chart, base, jets))
        report.add("holonomy", t.name, worst(0.0, dev.max(axis=(-2, -1))),
                   tol)
    return report


def vertical_exactness_check(lifted, L, samples=25, seed=0, *, base_box,
                             chart=None, tol=EXACTNESS_TOLERANCE) -> Report:
    """Top vertical block of G against half the vertical Hessian of L."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    report = Report(seed=int(seed))
    r = lifted.order
    q = lifted.qdim
    if L.order != r or L.qdim != q:
        raise ShapeError("lagrangian and lifted metric orders differ")
    if chart is None:
        chart = next(iter(lifted.sources))
    base, jets = sample_points(sample_stream(seed, "vexact", 3), base_box,
                               samples, r, q)
    g_top = lifted.evaluate_at(chart, base, jets)[..., r * q:, r * q:]
    half_hess = 0.5 * top_hessian(L, base, jets)
    report.add("vertical_exactness", L.name or "L",
               worst(0.0, np.abs(g_top - half_hess).max(axis=(-2, -1))), tol)
    return report
