"""Command-line front end: validate atlases, run computations, certify.

Verbs:

* ``validate`` — pseudogroup checks of a foliated atlas.
* ``prolong``  — transport a jet point across a named transition.
* ``semispray`` — semi-spray components of a lagrangian at a jet point.
* ``lift``     — the recursive lagrangian lift and prolonged connection
  coefficients of a named metric.
* ``certify``  — the full pipeline: validation, lift, projector
  identities, holonomy, vertical exactness, admissibility and the
  diagonal-hamiltonian identity, aggregated into one report.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 setup or
input error.  Reports are deterministic JSON for fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib

import numpy as np

from . import __version__
from .atlas import (COCYCLE_TOLERANCE, DET_TOLERANCE, ROUNDTRIP_TOLERANCE,
                    load_atlas_file, validate_foliated)
from .dynamics import SemiSprayField, projector_pair, semispray
from .errors import FolijetError
from .jets import (TransverseJetPoint, prolong_transition,
                   restrict_to_zero_section, sample_points)
from .legendre import admissibility_check, hamiltonian_at, legendre_chain
from .report import Report, worst
from .riemann import (
    EXACTNESS_TOLERANCE,
    HOLONOMY_TOLERANCE,
    holonomy_check,
    lift_lagrangian,
    lift_metric,
    prolongation_coefficients,
    vertical_exactness_check,
)

__all__ = ["main", "build_parser"]

PROJECTOR_SUM_TOLERANCE = 1e-14
PROJECTOR_TOLERANCE = 1e-9
HAMILTONIAN_TOLERANCE = 1e-8


def _seed(args):
    """The sampling seed: --seed, else FOLIJET_SEED, else 0; ValueError,
    naming where it came from, unless it is a non-negative integer."""
    source, seed = "--seed", args.seed
    if seed is None:
        source, value = "FOLIJET_SEED", os.environ.get("FOLIJET_SEED", "0")
        try:
            seed = int(value)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {value!r}") \
                from None
    if seed < 0:
        raise ValueError(
            f"{source} must be a non-negative integer, got {seed}")
    return seed


def _finite(text):
    """The argparse type of the tolerances: a finite float."""
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folijet",
        description="transverse jet bundles: validation and certification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=True):
        p.add_argument("atlas", help="path to an atlas JSON file")
        p.add_argument("--seed", type=int,
                       help="sampling seed (default: FOLIJET_SEED, else 0)")
        if samples:
            p.add_argument("--samples", type=int, default=25)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    def tolerances(p, **defaults):
        for name, default in defaults.items():
            p.add_argument(f"--tol-{name}", type=_finite, default=default)

    atlas_tolerances = dict(det=DET_TOLERANCE, roundtrip=ROUNDTRIP_TOLERANCE,
                            cocycle=COCYCLE_TOLERANCE)
    p = sub.add_parser("validate", help="check the pseudogroup structure")
    common(p)
    tolerances(p, **atlas_tolerances)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("prolong", help="transport a jet across a transition")
    common(p, samples=False)
    p.add_argument("--transition", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--jet", required=True,
                   help='point spec, e.g. "u=0;x=1;y1=1;y2=0"')
    p.set_defaults(run=cmd_prolong)

    p = sub.add_parser("semispray", help="semi-spray components at a point")
    common(p, samples=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lagrangian", help="named lagrangian from the atlas")
    group.add_argument("--metric", help="lift this metric instead")
    p.add_argument("--chart", help="chart of the metric presentation")
    p.add_argument("--order", type=int, help="lift order when using --metric")
    p.add_argument("--jet", required=True)
    p.set_defaults(run=cmd_semispray)

    p = sub.add_parser("lift", help="recursive lagrangian/metric lift")
    common(p, samples=False)
    p.add_argument("--metric", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=cmd_lift)

    p = sub.add_parser("certify", help="run the full certification pipeline")
    common(p)
    p.add_argument("--metric", required=True)
    p.add_argument("--order", type=int, required=True)
    tolerances(p, **atlas_tolerances, projector=PROJECTOR_TOLERANCE,
               holonomy=HOLONOMY_TOLERANCE, exactness=EXACTNESS_TOLERANCE,
               hamiltonian=HAMILTONIAN_TOLERANCE)
    p.set_defaults(run=cmd_certify)
    return parser


def _emit(payload, out_path):
    text = payload if isinstance(payload, str) else json.dumps(
        payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_jet(spec, atlas, order):
    """Parse "u=...;x=...;y1=...;..." into (leaf, base, jets)."""
    fields = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"jet spec entry {chunk!r} is not key=values")
        key, _, values = chunk.partition("=")
        fields[key.strip()] = tuple(float(v) for v in values.split(","))
    leaf = fields.pop("u", (0.0,) * atlas.p)
    base = fields.pop("x", None)
    if base is None:
        raise ValueError("jet spec needs an x=... entry")
    jets = []
    for k in range(1, order + 1):
        jets.append(fields.pop(f"y{k}", (0.0,) * atlas.q))
    if fields:
        raise ValueError(f"unknown jet spec keys {sorted(fields)}")
    if len(leaf) != atlas.p or len(base) != atlas.q \
            or any(len(row) != atlas.q for row in jets):
        raise ValueError("jet spec entries do not match the atlas dimensions")
    return leaf, base, tuple(jets)


def _metric_family(atlas, name):
    family = atlas.metrics.get(name)
    if not family:
        raise ValueError(f"atlas declares no metric named {name!r}")
    return family


def cmd_validate(args):
    atlas = load_atlas_file(args.atlas)
    report = validate_foliated(atlas, samples=args.samples, seed=args.seed,
                               det_tol=args.tol_det,
                               roundtrip_tol=args.tol_roundtrip,
                               cocycle_tol=args.tol_cocycle)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_prolong(args):
    atlas = load_atlas_file(args.atlas)
    transition = atlas.transitions.get(args.transition)
    if transition is None:
        raise ValueError(f"unknown transition {args.transition!r}")
    leaf, base, jets = _parse_jet(args.jet, atlas, args.order)
    point = TransverseJetPoint(transition.from_chart, args.order, leaf, base,
                               jets)
    image = prolong_transition(atlas, transition, point)
    _emit(image.to_dict(), args.out)
    return 0


def cmd_semispray(args):
    atlas = load_atlas_file(args.atlas)
    if args.lagrangian:
        L = atlas.lagrangians.get(args.lagrangian)
        if L is None:
            raise ValueError(f"unknown lagrangian {args.lagrangian!r}")
        if args.order not in (None, L.order):
            raise ValueError(f"lagrangian {args.lagrangian!r} has order "
                             f"{L.order}, got --order {args.order}")
        if args.chart is not None:
            # an atlas lagrangian keeps no chart for --chart to name
            raise ValueError("--chart names the chart of a --metric "
                             "presentation; it does not apply to --lagrangian")
        chart = ""
    else:
        if args.order is None:
            raise ValueError("--metric needs --order")
        family = _metric_family(atlas, args.metric)
        chart = next(iter(family)) if args.chart is None else args.chart
        if chart not in family:
            raise ValueError(
                f"metric {args.metric!r} has no presentation in chart "
                f"{chart!r}"
            )
        L = lift_lagrangian(family[chart], args.order)
    leaf, base, jets = _parse_jet(args.jet, atlas, L.order)
    point = TransverseJetPoint(chart, L.order, leaf, base, jets)
    s = semispray(L, point)
    _emit({"lagrangian": L.name, "point": point.to_dict(),
           "components": [float(v) for v in s]}, args.out)
    return 0


def cmd_lift(args):
    atlas = load_atlas_file(args.atlas)
    family = _metric_family(atlas, args.metric)
    charts = {}
    for chart, fld in family.items():
        L = lift_lagrangian(fld, args.order)
        coeffs = prolongation_coefficients(fld, args.order)
        charts[chart] = {
            "lagrangian": L.program.to_text(),
            "connection": [[[prog.to_text() for prog in row] for row in mat]
                           for mat in coeffs],
        }
    _emit({"metric": args.metric, "order": args.order, "charts": charts},
          args.out)
    return 0


def _sample_points(atlas, chart, samples, seed, salt, r, scale=1.0):
    """`sample_points` in a chart, drawn from its own rng for each salt."""
    rng = np.random.default_rng([int(seed), zlib.crc32(chart.encode()), salt])
    return sample_points(rng, atlas.charts[chart].domain[atlas.p:], samples,
                         r, atlas.q, scale)


def _projector_checks(report, atlas, family, order, samples, seed, tol):
    for chart, fld in family.items():
        S = SemiSprayField.from_lagrangian(lift_lagrangian(fld, order))
        eye = np.eye((order + 1) * fld.qdim)
        h, v = projector_pair(S, *_sample_points(atlas, chart, samples, seed,
                                                 11, order))
        most = (-2, -1)
        dev_sum = worst(0.0, np.abs(h + v - eye).max(axis=most))
        # per sample: h h - h, then v v - v, then h v
        dev_idem = worst(0.0, np.stack([np.abs(h @ h - h).max(axis=most),
                                        np.abs(v @ v - v).max(axis=most),
                                        np.abs(h @ v).max(axis=most)],
                                       axis=-1))
        report.add("projector_sum", chart, dev_sum, PROJECTOR_SUM_TOLERANCE)
        report.add("projector_idempotence", chart, dev_idem, tol)


def _hamiltonian_checks(report, atlas, family, order, samples, seed, tol):
    for chart, fld in family.items():
        L = lift_lagrangian(fld, order)
        L1 = lift_lagrangian(fld, 1)
        chain = legendre_chain(L)
        # each base draws its momentum as its one jet row, over no lower rows
        base, jets = _sample_points(atlas, chart, samples, seed, 13, 1, 2.0)
        lower, momentum = jets[..., :0, :], jets[..., 0, :]
        want = hamiltonian_at(L1, base, lower, momentum)
        dev = worst(0.0, np.abs(chain(base, momentum) - want))
        report.add("diagonal_hamiltonian", chart, dev, tol)
        report.extend(admissibility_check(
            L, samples=samples, seed=seed,
            base_box=atlas.charts[chart].domain[atlas.p:]))


def cmd_certify(args):
    atlas = load_atlas_file(args.atlas)
    family = _metric_family(atlas, args.metric)
    report = Report(seed=int(args.seed))
    report.extend(validate_foliated(atlas, samples=args.samples,
                                    seed=args.seed, det_tol=args.tol_det,
                                    roundtrip_tol=args.tol_roundtrip,
                                    cocycle_tol=args.tol_cocycle))
    lifted = lift_metric(family, args.order)
    for chart, fld in family.items():
        base = np.mean(atlas.charts[chart].domain[atlas.p:], axis=1)
        got = restrict_to_zero_section(lifted.evaluate, args.order,
                                       (0.0,) * atlas.p, base, chart)
        report.add("zero_section_restriction", chart,
                   float(np.max(np.abs(got - fld.evaluate(base)))),
                   args.tol_exactness)
    _projector_checks(report, atlas, family, args.order, args.samples,
                      args.seed, args.tol_projector)
    report.extend(holonomy_check(atlas, lifted, samples=args.samples,
                                 seed=args.seed, tol=args.tol_holonomy))
    for chart, fld in family.items():
        L = lift_lagrangian(fld, args.order)
        domain = atlas.charts[chart].domain[atlas.p:]
        report.extend(vertical_exactness_check(
            lifted, L, samples=args.samples, seed=args.seed,
            base_box=domain, chart=chart, tol=args.tol_exactness))
    _hamiltonian_checks(report, atlas, family, args.order, args.samples,
                        args.seed, args.tol_hamiltonian)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.seed = _seed(args)
        # every kernel turns a non-finite value into a DomainError
        with np.errstate(all="ignore"):
            return args.run(args)
    except (FolijetError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # printing an expression recurses; a tree too deep for the
        # interpreter stack ends here
        print("error: expression too deeply nested to process",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
