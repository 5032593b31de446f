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

`main` returns the exit code and can be called in-process; `entry`, behind
``python -m folijet.cli`` and the ``folijet`` script, runs it and ends the
process without interpreter teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .atlas import (COCYCLE_TOLERANCE, ROUNDTRIP_TOLERANCE, load_atlas_file,
                    validate_foliated)
from .dynamics import SemiSprayField, projector_pair, semispray
from .errors import FolijetError, NoConvergence
from .jets import (TransverseJetPoint, prolong_transition, sample_points,
                   sample_stream)
from .legendre import admissibility_check, hamiltonian_at, legendre_chain
from .report import Report, relative_gap, worst
from .riemann import (EXACTNESS_TOLERANCE, HOLONOMY_TOLERANCE, holonomy_check,
                      lift_lagrangian, lift_metric, prolongation_coefficients,
                      vertical_exactness_check)

__all__ = ["main", "entry", "build_parser"]

PROJECTOR_SUM_TOLERANCE = 1e-14
PROJECTOR_TOLERANCE = 1e-9
HAMILTONIAN_TOLERANCE = 1e-8


def _seed(args):
    """The sampling seed: --seed, else FOLIJET_SEED, else 0; ValueError,
    naming where it came from, unless it is an integer in [0, 2^64)."""
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
    if seed >= 2 ** 64:  # the sample streams key on the seed modulo 2^64
        raise ValueError(f"{source} must be below 2^64, got {seed}")
    return seed


def _finite(text):
    """The argparse type of the tolerances: a finite float."""
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


VERBS = ("validate", "prolong", "semispray", "lift", "certify")


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The argument parser of every verb, or of `verb` alone.

    A one-verb parser parses a command line that starts with `verb` as the
    full parser does, with the same help, usage lines and errors: its usage
    still names every verb in `VERBS`.  `main` builds only the verb that
    runs.
    """
    parser = argparse.ArgumentParser(
        prog="folijet",
        description="transverse jet bundles: validation and certification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # argparse's usage names the verbs a parser has, so a one-verb parser
    # lists all of them by hand; the full parser keeps the default, since a
    # metavar would also replace `command` in its missing-verb and
    # unknown-verb errors
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if verb is None else "{" + ",".join(VERBS) + "}")

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

    atlas_tolerances = dict(roundtrip=ROUNDTRIP_TOLERANCE,
                            cocycle=COCYCLE_TOLERANCE)
    if verb in (None, "validate"):
        p = sub.add_parser("validate", help="check the pseudogroup structure")
        common(p)
        tolerances(p, **atlas_tolerances)
        p.set_defaults(run=cmd_validate)

    if verb in (None, "prolong"):
        p = sub.add_parser("prolong",
                           help="transport a jet across a transition")
        common(p, samples=False)
        p.add_argument("--transition", required=True)
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--jet", required=True,
                       help='point spec, e.g. "u=0;x=1;y1=1;y2=0"')
        p.set_defaults(run=cmd_prolong)

    if verb in (None, "semispray"):
        p = sub.add_parser("semispray",
                           help="semi-spray components at a point")
        common(p, samples=False)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--lagrangian",
                           help="named lagrangian from the atlas")
        group.add_argument("--metric", help="lift this metric instead")
        p.add_argument("--chart",
                       help="chart of the presentation (default: first)")
        p.add_argument("--order", type=int,
                       help="lift order when using --metric")
        p.add_argument("--jet", required=True)
        p.set_defaults(run=cmd_semispray)

    if verb in (None, "lift"):
        p = sub.add_parser("lift", help="recursive lagrangian/metric lift")
        common(p, samples=False)
        p.add_argument("--metric", required=True)
        p.add_argument("--order", type=int, required=True)
        p.set_defaults(run=cmd_lift)

    if verb in (None, "certify"):
        p = sub.add_parser("certify",
                           help="run the full certification pipeline")
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


def _family(atlas, kind, name):
    """The presentations {chart: field} of the atlas's `kind` `name`."""
    family = getattr(atlas, f"{kind}s").get(name)
    if not family:
        raise ValueError(f"atlas declares no {kind} named {name!r}")
    return family


def cmd_validate(args):
    atlas = load_atlas_file(args.atlas)
    report = validate_foliated(atlas, samples=args.samples, seed=args.seed,
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
    kind, name = (("metric", args.metric) if args.lagrangian is None
                  else ("lagrangian", args.lagrangian))
    if kind == "metric" and args.order is None:
        raise ValueError("--metric needs --order")
    family = _family(atlas, kind, name)
    chart = next(iter(family)) if args.chart is None else args.chart
    if chart not in family:
        raise ValueError(
            f"{kind} {name!r} has no presentation in chart {chart!r}")
    if kind == "metric":
        L = lift_lagrangian(family[chart], args.order)
    else:
        L = family[chart]
        if args.order not in (None, L.order):
            raise ValueError(f"lagrangian {name!r} has order {L.order}, "
                             f"got --order {args.order}")
    leaf, base, jets = _parse_jet(args.jet, atlas, L.order)
    point = TransverseJetPoint(chart, L.order, leaf, base, jets)
    s = semispray(L, point)
    _emit({"lagrangian": L.name, "point": point.to_dict(),
           "components": [float(v) for v in s]}, args.out)
    return 0


def cmd_lift(args):
    atlas = load_atlas_file(args.atlas)
    family = _family(atlas, "metric", args.metric)
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


def _projector_checks(report, atlas, family, order, samples, seed, tol):
    for chart, fld in family.items():
        S = SemiSprayField.from_lagrangian(lift_lagrangian(fld, order))
        eye = np.eye((order + 1) * fld.qdim)
        h, v = projector_pair(S, *sample_points(
            sample_stream(seed, chart, 11),
            atlas.charts[chart].domain[atlas.p:], samples, order, atlas.q))
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
        # each base draws w as its one jet row, over no lower rows, for the
        # momentum p = g w of g(y, y) at y = w / 2, the same at every scale
        domain = atlas.charts[chart].domain[atlas.p:]
        base, jets = sample_points(sample_stream(seed, chart, 13), domain,
                                   samples, 1, atlas.q, 2.0)
        p = np.sum(fld.evaluate(base) * jets[..., :1, :], axis=-1)
        try:
            want = hamiltonian_at(L1, base, jets[..., :0, :], p)
            dev = worst(0.0, relative_gap(chain(base, p), want, axis=()))
        except NoConvergence:
            dev = np.inf
        report.add("diagonal_hamiltonian", chart, dev, tol)
        report.extend(admissibility_check(L, samples=samples, seed=seed,
                                          base_box=domain))


def cmd_certify(args):
    atlas = load_atlas_file(args.atlas)
    family = _family(atlas, "metric", args.metric)
    report = Report(seed=int(args.seed))
    report.extend(validate_foliated(
        atlas, samples=args.samples, seed=args.seed,
        roundtrip_tol=args.tol_roundtrip, cocycle_tol=args.tol_cocycle))
    lifted = lift_metric(family, args.order)
    for chart, fld in family.items():
        base = np.mean(atlas.charts[chart].domain[atlas.p:], axis=1)
        got = lifted.evaluate_at(chart, base, np.zeros(
            (args.order, atlas.q)))[:atlas.q, :atlas.q]
        report.add("zero_section_restriction", chart, float(relative_gap(
            got, fld.evaluate(base), axis=(-2, -1))), args.tol_exactness)
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
    argv = sys.argv[1:] if argv is None else argv
    verb = argv[0] if argv and argv[0] in VERBS else None
    args = build_parser(verb).parse_args(argv)
    try:
        args.seed = _seed(args)
        # every kernel turns a non-finite value into a DomainError
        with np.errstate(all="ignore"):
            return args.run(args)
    except (FolijetError, MemoryError, OSError, ValueError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


def entry():
    """Run `main` on the command line, flush its output and end the process
    with its exit code.

    Interpreter teardown costs a cold process about 30 ms, half of it
    numpy's module teardown, and nothing is pending once the output is
    flushed: `_emit` closes an --out file before it returns."""
    try:
        code = main()
    except SystemExit as stop:  # argparse: --help, --version, a bad command
        code = stop.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None in a process started without it
                stream.flush()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        code = 2
    os._exit(code)


if __name__ == "__main__":
    entry()
