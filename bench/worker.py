"""One fresh benchmark worker process: set-up, then warm or traced work.

Run by ``run.py`` as ``python3 bench/worker.py CONFIG_JSON``; prints one
JSON object on its last stdout line.  Modes:

* ``warm``  - time set-up (import through chain construction), then call
  ``folijet.cli.main(["certify", ...])`` in-process for each invocation,
  with a pass of the reference loop of ``pace.py`` before set-up and after
  set-up and each call.
* ``trace`` - after set-up, one untimed certify call per invocation for
  the correctness gate and one untimed warm-up pass, repeat the per-sample
  pipeline ``cmd_certify`` reaches in pairs of an untraced and a traced
  pass over the same samples, recording one span per call into a layer.
  Each traced sample is also checked against the certify identities it
  feeds (diagonal hamiltonian, holonomy).

Only ``folijet.cli.main`` and names in each module's ``__all__`` are used.
"""

import json
import os
import sys
import time
import zlib

from pace import loop_seconds

HAMILTONIAN_TOLERANCE = 1e-8  # certify's diagonal_hamiltonian default
HOLONOMY_TOLERANCE = 1e-7  # certify's holonomy default


def _import_folijet(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from folijet import atlas, cli, dynamics, jets, legendre, riemann
    return atlas, cli, dynamics, jets, legendre, riemann


def _set_up(mods, cfg, rec):
    """Everything before the first sample, for every metric of the run."""
    atlas_m, _, dynamics, _, legendre, riemann = mods
    atlas = rec.call("atlas.load", atlas_m.load_atlas_file, cfg["atlas"])
    rec.call("atlas.validate", atlas_m.validate_foliated, atlas,
             samples=cfg["samples"], seed=cfg["seed"])
    built = {}
    for metric in cfg["metrics"]:
        family = atlas.metrics[metric]
        lifted = rec.call("symbolic.lift_metric_build", riemann.lift_metric,
                          family, cfg["order"])
        charts = {}
        for chart, fld in family.items():
            L = rec.call("symbolic.lift_lagrangian_build",
                         riemann.lift_lagrangian, fld, cfg["order"])
            L1 = rec.call("symbolic.lift_lagrangian_build",
                          riemann.lift_lagrangian, fld, 1)
            chain = rec.call("legendre.chain_build", legendre.legendre_chain,
                             L)
            spray = dynamics.SemiSprayField.from_lagrangian(L)
            charts[chart] = (fld, L, L1, chain, spray)
        built[metric] = (family, lifted, charts)
    return atlas, built


def _warm_certify(cli, invocations, pace=None):
    """Call certify in-process for each invocation.

    With ``pace`` (the reference loop's time just before the first call),
    each result also holds the loop's time before and after its call.
    """
    out = []
    for inv in invocations:
        start = time.perf_counter()
        rc = cli.main(inv["argv"] + ["--out", inv["out"]])
        wall = time.perf_counter() - start
        with open(inv["out"], encoding="utf-8") as handle:
            report = handle.read()
        out.append({"label": inv["label"], "rc": rc, "wall_s": wall,
                    "report": report})
        if pace is not None:
            out[-1]["pace"] = [pace, loop_seconds()]
            pace = out[-1]["pace"][1]
    return out


def _env(point):
    env = {f"x{i+1}": v for i, v in enumerate(point.base)}
    for k, row in enumerate(point.jets, start=1):
        env.update({f"y{k}_{i+1}": v for i, v in enumerate(row)})
    return env


def _pass(mods, atlas, built, cfg, rec, index, tally):
    """One pass of the warm per-sample pipeline over fresh samples."""
    import numpy as np

    atlas_m, _, dynamics, jets, legendre, riemann = mods
    r, k = cfg["order"], cfg["trace_samples"]
    seed = [int(cfg["seed"]), index + 1]  # index -1 is the warm-up pass
    family, lifted, charts = built[cfg["metrics"][0]]
    q = lifted.qdim
    for chart, (fld, L, L1, chain, spray) in charts.items():
        box = np.asarray(atlas.charts[chart].domain[atlas.p:], dtype=float)
        rng = np.random.default_rng(seed + [zlib.crc32(chart.encode())])
        for _ in range(k):
            base = tuple(box[:, 0] + rng.random(q) * (box[:, 1] - box[:, 0]))
            point = jets.TransverseJetPoint(chart, r, (), base,
                                            riemann.sample_jets(rng, r, q))
            momentum = tuple(rng.uniform(-2.0, 2.0, q))
            cpoint = legendre.CotangentJetPoint(chart, 1, (), base, (),
                                                momentum)
            rec.call("dynamics.projectors", dynamics.projectors, spray, point)
            rec.call("dynamics.semispray", dynamics.semispray, L, point)
            rec.call("riemann.evaluate", lifted.evaluate, point)
            rec.call("dynamics.vertical_hessian", dynamics.vertical_hessian,
                     L, point)
            rec.call("expr.eval", L.program.eval, _env(point))
            h = rec.call("legendre.chain_eval", chain, base, momentum)
            want = rec.call("legendre.pseudo_hamiltonian",
                            legendre.pseudo_hamiltonian, L1, cpoint)
            _, stats = rec.call("legendre.inverse", legendre.legendre_inverse,
                                L1, cpoint, return_stats=True)
            rec.call("legendre.admissibility", legendre.admissibility_check,
                     L, samples=1, seed=int(rng.integers(1 << 30)),
                     base_box=box)
            tally["inverse_calls"] += 1
            tally["inverse_iterations"] += stats["iterations"]
            tally["checked"] += 1
            if abs(h - want.value) > HAMILTONIAN_TOLERANCE:
                tally["mismatched"] += 1
    for t in atlas.transitions.values():
        if t.from_chart not in family or t.to_chart not in family:
            continue
        rng = np.random.default_rng(seed + [zlib.crc32(t.name.encode())])
        for pt in atlas_m.sample_overlap(t, k, int(rng.integers(1 << 30))):
            point = jets.TransverseJetPoint(
                t.from_chart, r, tuple(pt[:atlas.p]), tuple(pt[atlas.p:]),
                riemann.sample_jets(rng, r, q))
            image = rec.call("jets.prolong_transition",
                             jets.prolong_transition, atlas, t, point)
            dphi = rec.call("jets.prolong_jacobian", jets.prolong_jacobian,
                            atlas, t, point)
            there = rec.call("riemann.evaluate", lifted.evaluate, image)
            here = rec.call("riemann.evaluate", lifted.evaluate, point)
            tally["checked"] += 1
            if np.max(np.abs(dphi.T @ there @ dphi - here)) > HOLONOMY_TOLERANCE:
                tally["mismatched"] += 1


def run_warm(cfg):
    from spans import NullRecorder

    before = loop_seconds()
    start = time.perf_counter()
    mods = _import_folijet(cfg["root"])
    _set_up(mods, cfg, NullRecorder())
    setup_s = time.perf_counter() - start
    after = loop_seconds()
    return {"setup_s": setup_s, "setup_pace": [before, after],
            "warm": _warm_certify(mods[1], cfg["invocations"], after)}


def run_trace(cfg):
    from spans import NullRecorder, Recorder

    mods = _import_folijet(cfg["root"])
    rec, null = Recorder(), NullRecorder()
    with rec.group("bench.setup"):
        atlas, built = _set_up(mods, cfg, rec)
    warm = _warm_certify(mods[1], cfg["invocations"])  # for the gate only
    tally = {"inverse_calls": 0, "inverse_iterations": 0, "checked": 0,
             "mismatched": 0}
    untraced, traced = [], []
    _pass(mods, atlas, built, cfg, null, -1, tally)  # warm-up, not timed
    start = time.time()
    index = 0
    # another pair while one of mean length would end by the deadline
    # (always run one)
    while index < 1 or (start + (time.time() - start) * (index + 1) / index
                        <= cfg["deadline"]):
        # alternate which side goes first so drift does not favour one
        for traced_side in ((False, True) if index % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_side:
                with rec.group("bench.pass"):
                    _pass(mods, atlas, built, cfg, rec, index, tally)
                traced.append(time.perf_counter() - t0)
            else:
                _pass(mods, atlas, built, cfg, null, index, tally)
                untraced.append(time.perf_counter() - t0)
        index += 1
    chars = sum(len(c[1].program.to_text())
                for c in built[cfg["metrics"][0]][2].values())
    return {
        "spans": [s.to_list() for s in rec.spans],
        "untraced_s": untraced,
        "traced_s": traced,
        "tally": tally,
        "lagrangian_chars": chars,
        "warm": warm,
    }


def main():
    cfg = json.loads(sys.argv[1])
    result = run_trace(cfg) if cfg["mode"] == "trace" else run_warm(cfg)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
