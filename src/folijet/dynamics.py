"""Lagrangian dynamics on jet bundles: sprays, connections, projectors.

Conventions used throughout:

* fiber coordinates are ordered (x, y^(1), ..., y^(r)), giving n = (r+1)q
  scalar slots; y^(0) means x.
* the derivation Gamma acts as
  Gamma f = sum_u y^(1)u df/dx^u + sum_{k=2..r} sum_u k y^(k)u df/dy^(k-1)u.
* a semi-spray derived from a regular lagrangian L has components
  S^u = (1/(2(r+1))) h^{uv} (Gamma(dL/dy^(r)v) - dL/dy^(r-1)v)
  with h the vertical Hessian; the associated fiber vector field is
  Gamma_S = (y^(1), 2 y^(2), ..., r y^(r), (r+1) S).

Lagrangian and spray fields are plain classes, compared by identity and
treated as immutable.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    ExcludedPoint,
    InvariantViolation,
    ShapeError,
    SingularHessian,
)
from .expr import ExprProgram, coordinate_names
from .jets import check_fit, j_matrix, jet_columns, jet_env, point_arrays
from .scalars import (columns, prefixed, raise_where, second_order, space,
                      value_of)

__all__ = [
    "LagrangianField",
    "SemiSprayField",
    "vertical_hessian",
    "semispray",
    "dual_coefficients",
    "projectors",
]


def top_row_derivatives(L, base, lower, top):
    """Value, gradient and Hessian of L in its top row y^(r), as floats.

    `lower` holds the rows y^(1..r-1).  Only the top row is seeded, in the
    space ((q, 2),); the Hessian is a nested list.  Entries may be batches
    of floats, and then so are the results.
    """
    q = L.qdim
    sp = space(((q, 2),))
    values = [*base, *(v for row in lower for v in row),
              *(sp.seed(v, i) for i, v in enumerate(top))]
    out = L.program.eval(dict(zip(coordinate_names(q, L.order), values)))
    return second_order(columns(out.coeffs), q)


class LagrangianField:
    """A field L(x, y^(1..r)) over transverse jet coordinates.

    Slashed fields are smooth only away from the zero set of `excluded`
    (excluded <= 0 means the point is outside the smooth locus).
    """

    __slots__ = ("order", "qdim", "program", "slashed", "excluded", "name")

    def __init__(self, order: int, qdim: int, program: ExprProgram,
                 slashed: bool = False, excluded: ExprProgram | None = None,
                 name: str = ""):
        self.order, self.qdim, self.program = order, qdim, program
        self.slashed, self.excluded, self.name = slashed, excluded, name

    @classmethod
    def from_program(cls, program, *, order, qdim, slashed=False,
                     excluded=None, name=""):
        if order < 1:
            raise ShapeError(f"lagrangian order must be >= 1, got {order}")
        allowed = set(coordinate_names(qdim, order))
        extra = program.free_variables() - allowed
        if extra:
            raise InvariantViolation(
                f"lagrangian {name or program.to_text()!r} uses "
                f"{sorted(extra)}; only transverse jet coordinates up to "
                f"order {order} are allowed"
            )
        if slashed and excluded is None:
            raise InvariantViolation(
                f"slashed lagrangian {name!r} needs an excluded expression"
            )
        if excluded is not None:
            extra = excluded.free_variables() - allowed
            if extra:
                raise InvariantViolation(
                    f"excluded expression of {name!r} uses {sorted(extra)}"
                )
        return cls(order, qdim, program, slashed, excluded, name)

    def check_point(self, point):
        check_fit(point, self)
        self._check_smooth(point.base, point.jets)

    def _check_smooth(self, base, jets):
        """Points base (..., q), jets (..., r, q) must avoid the excluded
        set."""
        if self.excluded is not None:
            raise_where(value_of(self.excluded.eval(jet_env(base, jets)))
                        <= 0.0, ExcludedPoint,
                        "point excluded from the smooth locus of {!r}",
                        self.name)

    def value(self, point) -> float:
        self.check_point(point)
        return float(self.program.eval(jet_env(point.base, point.jets)))


def top_hessian(L, base, jets):
    """The vertical Hessian of L at base (q,) and jets (r, q), or at a batch
    of points as (B, q, q)."""
    L._check_smooth(base, jets)
    x, *rows = jet_columns(base, jets)
    h = np.array(top_row_derivatives(L, x, rows[:-1], rows[-1])[2], float)
    return h if h.ndim == 2 else np.moveaxis(h, -1, 0)


def vertical_hessian(L, point) -> np.ndarray:
    """Second partials of L in its top-order jet variables, as a (q, q)
    matrix."""
    check_fit(point, L)
    _, base, jets = point_arrays(point)
    return top_hessian(L, base, jets)


def _semispray_scalars(L, base, jets, lifted=False):
    """Semi-spray components as floats, or as series when `lifted`.

    One evaluation of L on series over all fiber coordinates in the space
    ((n, 2),) gives the vertical Hessian (top block), the Gamma term (mixed
    Hessian rows) and the lower gradient.  With `lifted` the space is
    ((n, 2), (n, 1)): every coordinate is seeded in both groups, and the
    components come back as series over the second group's space ((n, 1),),
    their first partials with respect to all fiber coordinates.  At a batch
    of points, base (B, q) and jets (B, r, q), every component is a batch.
    """
    L._check_smooth(base, jets)
    r, q = L.order, L.qdim
    n = (r + 1) * q
    sp = space(((n, 2), (n, 1)) if lifted else ((n, 2),))
    tangent = space(((n, 1),))
    out = L.program.eval(jet_env(
        base, jets,
        lambda i, v: sp.seed(v, i, n + i) if lifted else sp.seed(v, i)))
    _, grad, hess = second_order(out.split(0) if lifted
                                 else columns(out.coeffs), n)

    h = [row[r * q:] for row in hess[r * q:]]
    _, *rows = jet_columns(base, jets)
    rhs = []
    for v in range(q):
        gamma_term = 0.0
        for k in range(1, r + 1):
            yk = rows[k - 1]
            for i in range(q):
                y_val = tangent.seed(yk[i], k * q + i) if lifted else yk[i]
                gamma_term = gamma_term + k * y_val * hess[r * q + v][(k - 1) * q + i]
        lower = grad[(r - 1) * q + v]
        rhs.append(gamma_term - lower)
    try:
        sol = linalg.solve(h, rhs)
    except SingularHessian as err:
        raise prefixed(err, "vertical hessian of {!r} is singular: ".format(
            L.name or L.program.to_text())) from None
    scale = 1.0 / (2.0 * (r + 1))
    return [scale * s for s in sol]


def semispray(L, point):
    """Semi-spray components S^u at a jet point (plain floats)."""
    check_fit(point, L)
    _, base, jets = point_arrays(point)
    return np.array([value_of(s) for s in _semispray_scalars(L, base, jets)])


class SemiSprayField:
    """The semi-spray of a lagrangian as a reusable field.

    Its components and their Jacobian are derived from the lagrangian on
    demand at each point.
    """

    __slots__ = ("lagrangian",)

    def __init__(self, lagrangian: LagrangianField):
        self.lagrangian = lagrangian

    @classmethod
    def from_lagrangian(cls, L):
        return cls(L)

    @property
    def order(self):
        return self.lagrangian.order

    @property
    def qdim(self):
        return self.lagrangian.qdim

    def jacobian(self, point):
        """d S^u / d(fiber coordinates) as a (q, (r+1)q) float matrix."""
        check_fit(point, self)
        _, base, jets = point_arrays(point)
        return self.jacobian_at(base, jets)

    def jacobian_at(self, base, jets):
        """The Jacobian at base (q,) and jets (r, q), or at a batch of
        points as (B, q, (r+1)q)."""
        return np.stack([
            s.coeffs[..., 1:]
            for s in _semispray_scalars(self.lagrangian, base, jets,
                                        lifted=True)], axis=-2)


def _spray_jacobian(S, base, jets):
    """d Gamma_S / d(fiber coordinates) as a dense (r+1)q square matrix, or
    a batch of them."""
    r, q = S.order, S.qdim
    n = (r + 1) * q
    A = np.zeros(np.shape(base)[:-1] + (n, n))
    # shift rows are analytic: block b of Gamma_S is (b+1) y^(b+1)
    for b in range(r):
        for i in range(q):
            A[..., b * q + i, (b + 1) * q + i] = b + 1
    A[..., r * q:, :] = (r + 1) * S.jacobian_at(base, jets)
    return A


def dual_coefficients(S, point) -> tuple:
    """Dual connection coefficients M_(k) = -dS/dy^(r+1-k), as the tuple
    (M_(1), ..., M_(r)) of (q, q) matrices."""
    r, q = S.order, S.qdim
    grads = S.jacobian(point)
    # M_(k) differentiates against y^(j), j = r + 1 - k
    return tuple(-grads[:, j * q:(j + 1) * q]
                 for j in range(r, 0, -1))


def projectors(S, point):
    """Horizontal/vertical projector pair on the fiber at a point.

    Built from the Lie derivative of the shift endomorphism J along the
    spray vector field: with A = d Gamma_S / d(coords) and constant J,
    L_S J = J A - A J, then h = (r I - L_S J)/(r+1), v = (I + L_S J)/(r+1).
    """
    check_fit(point, S)
    _, base, jets = point_arrays(point)
    return projector_pair(S, base, jets)


def projector_pair(S, base, jets):
    """`projectors` at base (q,) and jets (r, q), or at a batch of points,
    base (B, q) and jets (B, r, q), as two (B, n, n) arrays."""
    r, q = S.order, S.qdim
    n = (r + 1) * q
    A = _spray_jacobian(S, base, jets)
    J = j_matrix(r, q)
    lie = J @ A - A @ J
    h = (r * np.eye(n) - lie) / (r + 1)
    v = (np.eye(n) + lie) / (r + 1)
    return h, v
