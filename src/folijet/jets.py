"""Higher order transverse jets: transport, inclusions and fiber structures.

Jet points are arrays: a base x (..., q) and jet rows y^(1..r) (..., r, q),
the transverse Taylor coefficients of a curve class, so transport across a
transition is truncated Taylor composition.  One kernel, `_prolong`, gives
the image and the fiber Jacobian; `check_fit` holds points to the field
they are fed.  The fiber coordinates are grouped as (x, y^(1), ..., y^(r));
the shift J (`j_matrix`) maps each group to the next.  `TransverseJetPoint`
adds a chart and leaf for the point forms, a plain class compared by
identity and treated as immutable.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .errors import InvariantViolation, OutsideOverlap, ShapeError
from .expr import coordinate_names
from .scalars import Series, columns, raise_where, space, stack_samples

__all__ = [
    "TransverseJetPoint",
    "prolong_transition",
    "prolong_jacobian",
    "include_jet",
    "j_matrix",
]


def _finite_tuple(values, what):
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise InvariantViolation(f"non-finite entry in {what}")
    return out


def _check_rows(point, chart, order, leaf, base, jets, rows):
    """Store a point's chart, order (>= 1), and leaf, base and `rows` jet
    rows as finite floats."""
    if order < 1:
        raise ShapeError(f"jet order must be >= 1, got {order}")
    point.chart, point.order = chart, order
    point.leaf = _finite_tuple(leaf, "leaf")
    point.base = base = _finite_tuple(base, "base")
    jets = tuple(_finite_tuple(row, "jets") for row in jets)
    if len(jets) != rows:
        raise ShapeError(f"expected {rows} jet rows, got {len(jets)}")
    if any(len(row) != len(base) for row in jets):
        raise ShapeError("jet rows must match the transverse dimension")
    point.jets = jets


class TransverseJetPoint:
    """A point of the order-r transverse bundle in one chart.

    jets[k-1] holds y^(k), the k-th transverse Taylor coefficient row.
    """

    __slots__ = ("chart", "order", "leaf", "base", "jets")

    def __init__(self, chart: str, order: int, leaf: tuple, base: tuple,
                 jets: tuple):
        _check_rows(self, chart, order, leaf, base, jets, order)

    @property
    def qdim(self):
        return len(self.base)

    def to_dict(self):
        return {
            "chart": self.chart,
            "leaf": list(self.leaf),
            "base": list(self.base),
            "jets": [list(row) for row in self.jets],
        }


def check_fit(field, base, jets, rows=0):
    """Raise ShapeError unless base (..., q) and jets (..., r - rows, q) are
    points of the order r and transverse dimension q of `field`: their jet
    rows, or, with rows = 1, the lower rows of cotangent points."""
    base, jets = np.shape(base), np.shape(jets)
    order = jets[-2] + rows if len(jets) > 1 else None
    dims = sorted({*base[-1:], *jets[-1:]})
    if order != field.order or dims != [field.qdim]:
        raise ShapeError(
            f"point of order {order}, dimension "
            f"{', '.join(map(str, dims))} does not fit a field of order "
            f"{field.order}, dimension {field.qdim}")


def jet_columns(base, jets):
    """The rows x = y^(0), y^(1..r) of base (..., q) and jets (..., r, q),
    each as a list of q floats or batches."""
    base = np.asarray(base, dtype=float)
    jets = np.reshape(jets, base.shape[:-1] + (-1, base.shape[-1]))
    return [columns(base)] + [columns(jets[..., k, :])
                              for k in range(jets.shape[-2])]


def point_arrays(point):
    """A jet point's leaf (p,), base (q,) and jet rows (r, q) as arrays."""
    q = len(point.base)
    return (np.array(point.leaf, dtype=float).reshape(-1),
            np.array(point.base, dtype=float),
            np.array(point.jets, dtype=float).reshape(len(point.jets), q))


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    """The SplitMix64 output function of a uint64 array, wrapping."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Stream:
    """A counter-based SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014):
    draw c is mix(key + (c + 1) gamma), a pure function of (key, c).  Each
    call takes the next draws in C order, so one block of draws holds the
    values that drawing it row by row gives."""

    __slots__ = ("key", "count")

    def __init__(self, key):
        self.key = np.array([key], dtype=np.uint64)
        self.count = 0

    def bits(self, shape):
        """The next draws as uint64, in C order over `shape`."""
        n = int(np.prod(shape))
        c = np.arange(self.count + 1, self.count + n + 1, dtype=np.uint64)
        self.count += n
        return _mix(self.key + c * _GAMMA).reshape(shape)

    def random(self, shape):
        """Uniforms in [0, 1): the top 53 bits of each draw."""
        return (self.bits(shape) >> np.uint64(11)) * 2.0 ** -53

    def uniform(self, lo, hi, shape):
        return lo + (hi - lo) * self.random(shape)

    def standard_normal(self, shape):
        """Box-Muller normals, each from the two draws (u1, u2) that follow
        the previous normal's."""
        u1, u2 = self.random((int(np.prod(shape)), 2)).T
        return (np.sqrt(-2.0 * np.log1p(-u1))
                * np.cos(2.0 * np.pi * u2)).reshape(shape)


def sample_stream(seed, label, *salt):
    """The stream of one sampled check: keyed by the seed, the CRC-32 of
    the check's label and any salt integers, so each check, chart or
    transition draws from a stream of its own.  Each key part, taken
    modulo 2^64, moves the key (from 0) to draw 0 of the stream keyed
    key + part."""
    key = np.zeros(1, dtype=np.uint64)
    for part in (int(seed), zlib.crc32(label.encode()), *salt):
        key = _mix(key + np.uint64(part % 2 ** 64) + _GAMMA)
    return Stream(key[0])


def in_box(box, u):
    """Uniform draws u (..., n) in [0, 1) as points lo + u (hi - lo) of a
    box of n intervals [lo, hi]."""
    box = np.asarray(box, dtype=float)
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def split_draws(box, u, scale=1.0):
    """Uniform draws u (..., q + m) as a base (..., q) in a box of q
    intervals and m jet entries in [-scale, scale]."""
    q = len(box)
    return in_box(box, u[..., :q]), in_box(((-scale, scale),), u[..., q:])


def sample_box(box, n, seed, label):
    """n points of `box` from the stream of `label`."""
    if n < 1:
        raise ValueError("need n >= 1")
    return in_box(box, sample_stream(seed, label).random((n, len(box))))


def sample_overlap(transition, n, seed):
    """Deterministic pseudo-random points inside the overlap box."""
    return sample_box(transition.overlap, n, seed, transition.name)


def sample_points(rng, box, samples, r, q, scale=1.0):
    """Base (B, q) in `box` and jets (B, r, q) in [-scale, scale] in one
    block, with the values of drawing sample by sample ``rng.random(q)``
    and ``rng.uniform(-scale, scale, (r, q))``, as ``uniform(lo, hi)`` is
    ``lo + (hi - lo) * random()``; one sample stays unbatched."""
    base, jets = split_draws(box, rng.random((samples, q + r * q)), scale)
    return stack_samples(base), stack_samples(jets.reshape(samples, r, q))


def jet_env(base, jets, seed=None):
    """Environment binding x and y^(1..r) to base (..., q) and jets
    (..., r, q), floats or batches of floats; `seed(index, value)` may turn
    each coordinate into a series."""
    rows = jet_columns(base, jets)
    values = [v for row in rows for v in row]
    if seed is not None:
        values = [seed(i, v) for i, v in enumerate(values)]
    return dict(zip(coordinate_names(len(rows[0]), len(rows) - 1), values))


def _taylor_env(base, jets, seeded):
    """Environment carrying the jet curve x(t) as series in t.

    x(t) = base + sum_k jets[k-1] t^k, for base (..., q) and jets
    (..., r, q), over the space ((1, r), (s q, 1)), s = `seeded` > 0: the
    coefficient of t^b in coordinate i, b < s, is also variable b * q + i,
    so the variables follow the fiber order (x, y^(1), ...).
    """
    base = np.asarray(base, dtype=float)
    lead, q = base.shape[:-1], base.shape[-1]
    rows = np.concatenate(
        [base[..., None, :], np.reshape(jets, lead + (-1, q))], axis=-2)
    r = rows.shape[-2] - 1
    sp = space(((1, r), (seeded * q, 1)))
    env = {}
    for i, name in enumerate(coordinate_names(q)):
        coeffs = np.zeros(lead + (r + 1, sp.size // (r + 1)))
        coeffs[..., 0] = rows[..., i]
        for b in range(seeded):
            coeffs[..., b, 1 + b * q + i] = 1.0
        env[name] = Series(sp, coeffs.reshape(lead + (-1,)))
    return env


def _prolong(atlas, transition, leaf, base, jets):
    """Image leaf, base and jet rows of points leaf (..., p), base (..., q)
    and jets (..., r, q) in the overlap, and the fiber Jacobian blocks
    d y'^(g) / d y^(b), y^(0) = x, as (..., (r+1)q, (r+1)q): the image
    curve's coefficients and their first partials, from one evaluation on
    the seeded jet curve.  Blocks b > g vanish; diagonal blocks all equal
    the base transverse Jacobian."""
    points = np.concatenate([leaf, base], axis=-1)
    box = np.asarray(transition.overlap, dtype=float).reshape(-1, 2)
    inside = ((box[:, 0] <= points) & (points <= box[:, 1])).all(axis=-1)
    raise_where(~inside, OutsideOverlap, "point {} outside overlap of {}",
                points, transition.name)
    lead, q = np.shape(base)[:-1], np.shape(base)[-1]
    r = np.shape(jets)[-2]
    n = (r + 1) * q
    env = _taylor_env(base, jets, r + 1)
    rows = np.zeros(lead + (r + 1, q))
    jac = np.zeros(lead + (n, n))
    for i, e in enumerate(transition.transverse_exprs):
        c = e.eval(env).coeffs.reshape(lead + (r + 1, n + 1))
        rows[..., i] = c[..., 0]
        jac[..., i::q, :] = c[..., 1:]
    flat_env = dict(zip(coordinate_names(atlas.q, p=atlas.p),
                        columns(points)))
    new_leaf = [e.eval(flat_env) for e in transition.leaf_exprs]
    new_leaf = np.stack(new_leaf, axis=-1) if new_leaf else np.zeros(lead + (0,))
    return new_leaf, rows[..., 0, :], rows[..., 1:, :], jac


def _prolong_point(atlas, transition, point):
    """`_prolong` at a jet point of the transition's source chart."""
    if point.chart != transition.from_chart:
        raise InvariantViolation(
            f"point lives in chart {point.chart!r}, transition starts at "
            f"{transition.from_chart!r}"
        )
    return _prolong(atlas, transition, *point_arrays(point))


def prolong_transition(atlas, transition, point):
    """Transport an r-jet across a foliated transition.

    The transverse transition maps are evaluated on the truncated Taylor
    curve through the point; the image coefficients are the new jets.
    """
    leaf, base, jets, _ = _prolong_point(atlas, transition, point)
    return TransverseJetPoint(transition.to_chart, point.order,
                              tuple(leaf.tolist()), tuple(base.tolist()),
                              tuple(map(tuple, jets.tolist())))


def prolong_jacobian(atlas, transition, point):
    """The fiber Jacobian of `prolong_transition` (see `_prolong`)."""
    return _prolong_point(atlas, transition, point)[3]


def include_jet(r_high, jets):
    """Canonical inclusion of jet rows (..., r_low, q) into order r_high.

    The first r_high - r_low jet rows are zero; row d + j is the integer
    multiple (d+j)!/j! of y^(j), with d = r_high - r_low.  Exact integer
    arithmetic, the identity when the orders agree.
    """
    jets = np.asarray(jets, dtype=float)
    r_low = jets.shape[-2] if jets.ndim > 1 else 0
    if not 1 <= r_low <= r_high:
        raise ShapeError(
            f"cannot include a jet of order {r_low} into order {r_high}")
    d = r_high - r_low
    out = np.zeros(jets.shape[:-2] + (r_high, jets.shape[-1]))
    out[..., d:, :] = jets * np.array(
        [math.factorial(d + j) // math.factorial(j)
         for j in range(1, r_low + 1)], dtype=float)[:, None]
    return out


def j_matrix(r, q):
    """The shift endomorphism J as an ((r+1)q) square matrix: it maps the
    fiber group (X, Y^(1), ..., Y^(r)) to (0, X, ..., Y^(r-1))."""
    n = (r + 1) * q
    out = np.zeros((n, n))
    for k in range(r):
        for i in range(q):
            out[(k + 1) * q + i, k * q + i] = 1.0
    return out
