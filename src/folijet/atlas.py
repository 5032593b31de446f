"""Foliated atlases: charts, foliated transitions and their validation.

An atlas document is a single JSON object (see `load_atlas`).  Transition
maps have the foliated pseudogroup form: leaf expressions may use leaf and
transverse coordinates, transverse expressions only transverse ones.  That
restriction is enforced syntactically at load time and double-checked
numerically during validation.  The records are plain classes, compared
by identity and treated as immutable.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from . import expr as exprmod
from . import linalg
from .dynamics import LagrangianField
from .errors import InvariantViolation, SchemaError
from .jets import sample_box, sample_overlap
from .report import Report, relative_gap, worst
from .riemann import MetricField
from .scalars import columns, space, stack_samples

__all__ = [
    "Chart",
    "Transition",
    "load_atlas",
    "load_atlas_file",
    "validate_foliated",
    "sample_overlap",
]

ROUNDTRIP_TOLERANCE = 1e-9
COCYCLE_TOLERANCE = 1e-8


def _field(entry, key, what, kind=None):
    """entry[key]; SchemaError when it is missing or not of type `kind`."""
    if key not in entry:
        raise SchemaError(f"{what}: missing key {key!r}")
    value = entry[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{what}: {key!r} must be a {kind.__name__}")
    return value


def _int_field(entry, key, what):
    """entry[key] as a JSON integer; 1.5, true or "1" is a SchemaError."""
    value = _field(entry, key, what)
    if type(value) is not int:
        raise SchemaError(f"{what}: {key!r} must be an integer")
    return value


def _entries(document, key):
    """The list of objects under `key`, empty when the key is absent."""
    entries = document.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict)
                                                for e in entries):
        raise SchemaError(f"{key!r} must be a list of objects")
    return entries


def _check_box(box, what):
    if not isinstance(box, list):
        raise SchemaError(f"{what}: must be a list of [lo, hi] intervals")
    out = []
    for pair in box:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{what}: interval must be [lo, hi]")
        try:
            lo, hi = float(pair[0]), float(pair[1])
        except (TypeError, ValueError) as err:
            raise SchemaError(f"{what}: interval bounds must be numbers") \
                from err
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvariantViolation(f"{what}: non-finite interval bound")
        if hi < lo:
            raise InvariantViolation(f"{what}: empty interval [{lo}, {hi}]")
        out.append((lo, hi))
    return tuple(out)


def _box_subset(inner, outer) -> bool:
    return all(olo <= ilo and ihi <= ohi
               for (ilo, ihi), (olo, ohi) in zip(inner, outer))


class Chart:
    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: tuple):
        self.name, self.domain = name, domain  # (p+q) closed intervals


class Transition:
    __slots__ = ("name", "from_chart", "to_chart", "leaf_exprs",
                 "transverse_exprs", "overlap", "inverse_of")

    def __init__(self, name: str, from_chart: str, to_chart: str,
                 leaf_exprs: tuple, transverse_exprs: tuple, overlap: tuple,
                 inverse_of: str | None):
        self.name, self.from_chart, self.to_chart = name, from_chart, to_chart
        self.leaf_exprs = leaf_exprs  # p ExprPrograms
        self.transverse_exprs = transverse_exprs  # q ExprPrograms
        self.overlap = overlap  # (p+q) intervals in the source domain
        self.inverse_of = inverse_of


class TripleOverlap:
    __slots__ = ("first", "second", "composite", "overlap")

    def __init__(self, first: str, second: str, composite: str,
                 overlap: tuple):
        self.first, self.second = first, second
        self.composite = composite  # should equal second o first
        self.overlap = overlap


class FoliatedAtlas:
    __slots__ = ("p", "q", "charts", "transitions", "triples", "metrics",
                 "lagrangians")

    def __init__(self, p: int, q: int, charts: Mapping[str, Chart],
                 transitions: Mapping[str, Transition], triples: tuple,
                 metrics: Mapping[str, Mapping[str, MetricField]],
                 lagrangians: Mapping[str, Mapping[str, LagrangianField]]):
        self.p, self.q = p, q  # the leaf and transverse dimensions
        self.charts, self.transitions = charts, transitions
        self.triples = triples
        self.metrics, self.lagrangians = metrics, lagrangians


def _parse_exprs(texts, where):
    if not isinstance(texts, list):
        raise SchemaError(f"{where}: must be a list of expressions")
    out = []
    for i, text in enumerate(texts):
        try:
            out.append(exprmod.parse(str(text)))
        except Exception as err:
            raise SchemaError(f"{where}[{i}]: {err}") from err
    return tuple(out)


def load_atlas(document) -> "FoliatedAtlas":
    """Load and validate an atlas from a JSON string or a parsed dict."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as err:
            raise SchemaError(f"invalid JSON: {err}") from err
    if not isinstance(document, dict):
        raise SchemaError("atlas document must be a single JSON object")

    p = _int_field(document, "leaf_dim", "atlas")
    q = _int_field(document, "transverse_dim", "atlas")
    if p < 0 or q < 1:
        raise InvariantViolation("need leaf_dim >= 0 and transverse_dim >= 1")

    charts: dict[str, Chart] = {}
    for entry in _entries(document, "charts"):
        name = str(_field(entry, "name", "chart"))
        domain = _check_box(_field(entry, "domain", f"chart {name}"),
                            f"chart {name} domain")
        if len(domain) != p + q:
            raise SchemaError(f"chart {name}: domain must have {p + q} intervals")
        if name in charts:
            raise SchemaError(f"duplicate chart name {name!r}")
        charts[name] = Chart(name, domain)
    if not charts:
        raise SchemaError("atlas needs at least one chart")

    transverses = set(exprmod.coordinate_names(q))
    coordinates = set(exprmod.coordinate_names(q, p=p))
    transitions: dict[str, Transition] = {}
    for entry in _entries(document, "transitions"):
        src = str(_field(entry, "from", "transition"))
        dst = str(_field(entry, "to", "transition"))
        name = str(entry.get("name", f"{src}->{dst}"))
        if name in transitions:
            raise SchemaError(f"duplicate transition name {name!r}")
        if src not in charts or dst not in charts:
            raise SchemaError(f"transition {name}: unknown chart")
        if src == dst:
            raise InvariantViolation(
                f"transition {name}: must reference two distinct charts"
            )
        leaf_exprs = _parse_exprs(entry.get("leaf_exprs", []),
                                  f"transition {name} leaf_exprs")
        transverse_exprs = _parse_exprs(
            _field(entry, "transverse_exprs", f"transition {name}"),
            f"transition {name} transverse_exprs")
        if len(leaf_exprs) != p or len(transverse_exprs) != q:
            raise SchemaError(
                f"transition {name}: need {p} leaf and {q} transverse expressions"
            )
        for i, e in enumerate(transverse_exprs):
            extra = e.free_variables() - transverses
            if extra:
                raise InvariantViolation(
                    f"transition {name}: transverse expression {i} is not "
                    f"foliated (uses {sorted(extra)})"
                )
        for i, e in enumerate(leaf_exprs):
            extra = e.free_variables() - coordinates
            if extra:
                raise InvariantViolation(
                    f"transition {name}: leaf expression {i} uses {sorted(extra)}"
                )
        overlap = _check_box(_field(entry, "overlap", f"transition {name}"),
                             f"transition {name} overlap")
        if len(overlap) != p + q:
            raise SchemaError(f"transition {name}: overlap must have {p + q} intervals")
        if not _box_subset(overlap, charts[src].domain):
            raise InvariantViolation(
                f"transition {name}: overlap is not inside the source domain"
            )
        inverse_of = entry.get("inverse_of")
        transitions[name] = Transition(
            name, src, dst, leaf_exprs, transverse_exprs, overlap,
            str(inverse_of) if inverse_of is not None else None,
        )
    for t in transitions.values():
        if t.inverse_of is not None:
            other = transitions.get(t.inverse_of)
            if other is None:
                raise SchemaError(
                    f"transition {t.name}: inverse_of references unknown "
                    f"transition {t.inverse_of!r}"
                )
            if other.from_chart != t.to_chart or other.to_chart != t.from_chart:
                raise InvariantViolation(
                    f"transition {t.name}: inverse_of chart mismatch"
                )

    triples = []
    for entry in _entries(document, "triples"):
        via = _field(entry, "via", "triple", list)
        if len(via) != 3:
            raise SchemaError("triple: 'via' must list three transition names")
        t1, t2, t3 = (str(v) for v in via)
        for v in (t1, t2, t3):
            if v not in transitions:
                raise SchemaError(f"triple: unknown transition {v!r}")
        if transitions[t1].to_chart != transitions[t2].from_chart:
            raise InvariantViolation(f"triple ({t1}, {t2}, {t3}): charts do not chain")
        if (transitions[t3].from_chart != transitions[t1].from_chart
                or transitions[t3].to_chart != transitions[t2].to_chart):
            raise InvariantViolation(f"triple ({t1}, {t2}, {t3}): composite mismatch")
        overlap = _check_box(_field(entry, "overlap", "triple"),
                             "triple overlap")
        triples.append(TripleOverlap(t1, t2, t3, overlap))

    def metric(entry, name, chart):
        components = _field(entry, "components", f"metric {name}", list)
        fld = MetricField.from_components(
            [_parse_exprs(row, f"metric {name} components[{i}]")
             for i, row in enumerate(components)], q, name=name, chart=chart)
        fld.check_positive_definite(charts[chart].domain[p:])
        return fld

    def lagrangian(entry, name, chart):
        order = _int_field(entry, "order", f"lagrangian {name}")
        program = exprmod.parse(str(_field(entry, "expr",
                                           f"lagrangian {name}")))
        excluded = entry.get("excluded")
        return LagrangianField.from_program(
            program, order=order, qdim=q, name=name,
            slashed=bool(entry.get("slashed", False)),
            excluded=exprmod.parse(str(excluded)) if excluded else None)

    fields = {}
    for kind, build in (("metric", metric), ("lagrangian", lagrangian)):
        fields[kind] = families = {}
        for entry in _entries(document, f"{kind}s"):
            name = str(_field(entry, "name", kind))
            chart = str(_field(entry, "chart", f"{kind} {name}"))
            if chart not in charts:
                raise SchemaError(f"{kind} {name}: unknown chart {chart!r}")
            family = families.setdefault(name, {})
            if chart in family:
                raise SchemaError(
                    f"{kind} {name}: presented twice in chart {chart!r}")
            family[chart] = build(entry, name, chart)
    for name, family in fields["lagrangian"].items():
        if len({L.order for L in family.values()}) > 1:
            raise SchemaError(
                f"lagrangian {name}: presentations differ in order")

    return FoliatedAtlas(p, q, charts, transitions, tuple(triples),
                         fields["metric"], fields["lagrangian"])


def load_atlas_file(path) -> "FoliatedAtlas":
    with open(path, "r", encoding="utf-8") as handle:
        return load_atlas(handle.read())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _apply(atlas, transition, points):
    """Points (p + q,), or a batch (B, p + q), mapped through a transition."""
    env = dict(zip(exprmod.coordinate_names(atlas.q, p=atlas.p),
                   columns(points)))
    return np.stack([e.eval(env) for e in transition.leaf_exprs
                     + transition.transverse_exprs], axis=-1)


def validate_foliated(atlas, samples=50, seed=0, *,
                      roundtrip_tol=ROUNDTRIP_TOLERANCE,
                      cocycle_tol=COCYCLE_TOLERANCE) -> Report:
    """Numerically check pseudogroup structure at sampled overlap points,
    each check over all of its samples at once.  A round trip's gap is
    relative to the overlap's widths, a cocycle's to those of the target
    chart, and Jacobians are judged by `linalg.jacobian_condition`, so no
    verdict depends on a chart's units.

    Failures are report entries, never exceptions.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    report = Report(seed=int(seed))
    p, q = atlas.p, atlas.q
    names = exprmod.coordinate_names(q, p=p)
    sp = space(((p + q, 1),))

    for t in atlas.transitions.values():
        pts = stack_samples(sample_overlap(t, samples, seed))
        inverse = atlas.transitions.get(t.inverse_of) if t.inverse_of else None
        # one evaluation seeded on all p+q source coordinates gives the
        # mixed block dx'/du and the transverse Jacobian dx'/dx
        env = {name: sp.seed(v, i)
               for i, (name, v) in enumerate(zip(names, columns(pts)))}
        grads = np.stack([e.eval(env).coeffs[..., 1:]
                          for e in t.transverse_exprs], axis=-2)
        mixed_max = worst(0.0, np.abs(grads[..., :p]).max(axis=(-2, -1))) \
            if p else 0.0
        cond = linalg.jacobian_condition(grads[..., p:])
        report.add("transverse_jacobian_invertible", t.name, cond,
                   linalg.CONDITION_LIMIT)
        report.add("mixed_block_zero", t.name, mixed_max, 0.0)
        if inverse is not None:
            back = _apply(atlas, inverse, _apply(atlas, t, pts))
            report.add("inverse_round_trip", t.name, worst(0.0, relative_gap(
                back, pts, size=np.ptp(t.overlap, axis=1))), roundtrip_tol)

    for triple in atlas.triples:
        t1 = atlas.transitions[triple.first]
        t2 = atlas.transitions[triple.second]
        t3 = atlas.transitions[triple.composite]
        pts = stack_samples(sample_box(
            triple.overlap, samples, seed,
            f"triple:{t1.name}|{t2.name}|{t3.name}"))
        via = _apply(atlas, t2, _apply(atlas, t1, pts))
        widths = np.ptp(atlas.charts[t3.to_chart].domain, axis=1)
        report.add("cocycle", f"{t2.name} o {t1.name} == {t3.name}",
                   worst(0.0, relative_gap(via, _apply(atlas, t3, pts),
                                           size=widths)), cocycle_tol)

    return report
