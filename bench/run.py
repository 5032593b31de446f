"""End-to-end and per-layer benchmark of ``folijet certify``.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

``--trace 0`` measures what users see, with nothing traced: cold
``folijet certify`` child processes (wall time and peak RSS), and fresh
worker processes that time set-up and then call ``folijet.cli.main``
in-process.  Its timings are scaled to a reference CPU speed (see
``pace.py``); the values as measured are printed beside them.  ``--trace 1`` runs one worker that repeats the per-sample
pipeline of ``certify`` with a span around every call into a layer, and
reports per-call times, self time per layer, coverage and the tracing
overhead.  Every ``certify`` invocation in either mode goes through the
correctness gate in ``gate.py``.

At most one child process runs at a time.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the checkout holds no ``src/folijet``, 3
that a workload's generated atlas failed ``folijet validate``.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from gate import Gate
from pace import loop_seconds, scaled
from spans import Span, coverage, durations, layer_self_seconds, traced_wall

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RUN_LIMIT_S = 170.0  # a child still running this long after start is killed

TRACED_LAYERS = ("atlas", "expr", "jets", "dynamics", "riemann", "legendre",
                 "symbolic")


@dataclass(frozen=True)
class Workload:
    atlas: str | None  # repository-relative path; None: generate shear2
    order: int
    samples: int  # --samples of every certify invocation
    metrics: tuple  # metric names; the first is timed, the rest are controls
    warm_calls: int  # in-process certify calls of the timed metric per worker
    trace_samples: int  # samples per chart and transition in a traced pass


WORKLOADS = {
    # q = 2: the symbolic lift is most of set-up, set-up most of certify;
    # a worker's set-up costs about as much as a cold certify, so each
    # worker makes two warm calls
    "shear2-r2": Workload(None, 2, 1, ("g",), 2, 1),
    # many evaluations per build; g_bad is the negative control (exit 1)
    "cubic-r2-sweep": Workload("atlases/cubic.json", 2, 150, ("g", "g_bad"),
                               1, 25),
}

END_TO_END = {
    "certify_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_CALL = {  # span name -> (metric name, unit, scale)
    "legendre.chain_eval": ("legendre.chain_eval_ms", "ms", 1e3),
    "legendre.pseudo_hamiltonian": ("legendre.pseudo_hamiltonian_us", "us",
                                    1e6),
    "legendre.admissibility": ("legendre.admissibility_ms", "ms", 1e3),
    "dynamics.projectors": ("dynamics.projectors_us", "us", 1e6),
    "dynamics.semispray": ("dynamics.semispray_us", "us", 1e6),
    "dynamics.vertical_hessian": ("dynamics.vertical_hessian_us", "us", 1e6),
    "riemann.evaluate": ("riemann.evaluate_us", "us", 1e6),
    "jets.prolong_transition": ("jets.prolong_transition_us", "us", 1e6),
    "jets.prolong_jacobian": ("jets.prolong_jacobian_us", "us", 1e6),
    "expr.eval": ("expr.eval_us", "us", 1e6),
}

TOTALS = {  # span name -> (metric name, unit, scale); summed over the run
    "symbolic.lift_metric_build": ("symbolic.lift_metric_build_s", "s", 1.0),
    "symbolic.lift_lagrangian_build": ("symbolic.lift_lagrangian_build_s",
                                       "s", 1.0),
    "atlas.load": ("atlas.load_ms", "ms", 1e3),
    "atlas.validate": ("atlas.validate_ms", "ms", 1e3),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {name: unit for name, unit, _ in PER_CALL.values()}
    units["legendre.inverse_iterations"] = "count"
    units.update({name: unit for name, unit, _ in TOTALS.values()})
    units["symbolic.lagrangian_chars"] = "count"
    for layer in TRACED_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("FOLIJET_SEED", None)
    return env


def run_child(argv, deadline):
    """Run one child to completion; (exit code, wall s, peak RSS MB).

    The child is killed if it is still running at ``deadline``; its exit
    code is then negative.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(0.0, deadline - time.time()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def certify_argv(atlas, workload, metric, seed):
    return ["certify", atlas, "--metric", metric,
            "--order", str(workload.order),
            "--samples", str(workload.samples), "--seed", str(seed)]


def run_cold(atlas, workload, metric, seed, deadline, tag):
    out = os.path.join(OUT_DIR, f"{tag}-{metric}-cold.json")
    argv = [sys.executable, "-m", "folijet.cli",
            *certify_argv(atlas, workload, metric, seed), "--out", out]
    rc, wall, rss = run_child(argv, deadline)
    report = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            report = handle.read()
        os.remove(out)
    return rc, wall, rss, report


def run_worker(config, deadline):
    """Run worker.py with ``config``; its parsed result, or None."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            json.dumps(config)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(0.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "worker killed at the run deadline"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {stderr.strip()[-400:]}"
    return json.loads(stdout.strip().splitlines()[-1]), None


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def prepare_atlas(name, workload, deadline):
    """Path of the workload's atlas, generating and validating shear2."""
    if workload.atlas is not None:
        return os.path.join(ROOT, workload.atlas)
    from shear2 import write_atlas

    path = os.path.join(OUT_DIR, f"{name}.json")
    write_atlas(path)
    rc, _, _ = run_child([sys.executable, "-m", "folijet.cli", "validate",
                          path], deadline)
    if rc != 0:
        print(f"error: `folijet validate` exits {rc} on the generated atlas "
              f"{path}; refusing to run {name}", file=sys.stderr)
        sys.exit(3)
    return path


def _warm_config(mode, atlas, workload, seed, tag, labels):
    return {
        "mode": mode,
        "root": ROOT,
        "atlas": atlas,
        "order": workload.order,
        "samples": workload.samples,
        "seed": seed,
        "metrics": list(workload.metrics),
        "trace_samples": workload.trace_samples,
        "invocations": [
            {"label": m, "argv": certify_argv(atlas, workload, m, seed),
             "out": os.path.join(OUT_DIR, f"{tag}-{m}-warm.json")}
            for m in labels
        ],
    }


def _listed(values):
    return " ".join(f"{v:.4g}" for v in values)


def _values(what, values, measured=None):
    """How a metric was formed; ``measured``: its values before scaling."""
    text = f"median of {len(values)} {what}: {_listed(values)}"
    if measured:
        text += (f"; as measured, median {statistics.median(measured):.4g}: "
                 f"{_listed(measured)}")
    return text


def _median_or_none(values):
    return statistics.median(values) if values else None


def measure_end_to_end(name, workload, atlas, seed, seconds, run_start):
    """Fresh warm workers and cold certify children until ``seconds`` end.

    Each control metric runs cold once first, and warm in the first worker.
    Then workers and cold children alternate, a worker first: the next unit
    is the kind with fewer runs so far, or the other kind if one of median
    length would no longer end in time.  The run stops when neither would;
    one of each always runs.  Timings are scaled to the reference speed of
    ``pace.py`` with the reference loop run around each unit: by this
    process around a cold child, by the worker around its set-up and calls.
    """
    gate = Gate(name, seed)
    deadline = run_start + RUN_LIMIT_S
    end = run_start + seconds
    tag = f"{name}-{os.getpid()}"
    timed, controls = workload.metrics[0], workload.metrics[1:]
    cold_wall, cold_rss, setups, rates = [], [], [], []  # as measured
    cold_scaled, setups_scaled, rates_scaled = [], [], []  # see pace.py

    def cold(metric=timed):
        before = loop_seconds()
        rc, wall, rss, report = run_cold(atlas, workload, metric, seed,
                                         deadline, tag)
        after = loop_seconds()
        if report is None:
            gate.fail(metric, f"cold certify exit {rc} wrote no report")
        else:
            gate.check(metric, rc, report, "cold")
        if metric == timed:
            cold_wall.append(wall)
            cold_scaled.append(scaled(wall, before, after))
            cold_rss.append(rss)

    def worker():
        labels = [timed] * workload.warm_calls
        if not setups:
            labels += controls
        result, error = run_worker(
            _warm_config("warm", atlas, workload, seed, tag, labels),
            deadline)
        if result is None:
            for m in labels:
                gate.fail(m, error)
            return
        setups.append(result["setup_s"])
        setups_scaled.append(scaled(result["setup_s"], *result["setup_pace"]))
        for inv in result["warm"]:
            gate.check(inv["label"], inv["rc"], inv["report"], "warm")
            if inv["label"] == timed:
                rates.append(workload.samples / inv["wall_s"])
                rates_scaled.append(workload.samples
                                    / scaled(inv["wall_s"], *inv["pace"]))

    for metric in controls:
        cold(metric)
    units = {worker: [], cold: []}  # unit -> seconds each run of it took

    def fits(unit):
        took = units[unit]
        return not took or time.time() + statistics.median(took) <= end

    while True:
        first, second = sorted(units, key=lambda u: len(units[u]))
        unit = first if fits(first) else second if fits(second) else None
        if unit is None:
            break
        started = time.time()
        unit()
        units[unit].append(time.time() - started)
    metrics = {
        "certify_s": statistics.median(cold_scaled),
        "setup_s": _median_or_none(setups_scaled),
        "samples_per_s": _median_or_none(rates_scaled),
        "peak_rss_mb": statistics.median(cold_rss),
    }
    detail = {
        "certify_s": _values("cold invocations", cold_scaled, cold_wall),
        "setup_s": _values("fresh workers", setups_scaled, setups),
        "samples_per_s": _values(f"warm invocations x {workload.samples} "
                                 "samples", rates_scaled, rates),
        "peak_rss_mb": _values("cold invocations", cold_rss),
    }
    return gate, metrics, detail, None


def measure_traced(name, workload, atlas, seed, seconds, run_start):
    """One traced worker; its warm certify calls go through the gate."""
    gate = Gate(name, seed)
    config = _warm_config("trace", atlas, workload, seed,
                          f"{name}-{os.getpid()}", workload.metrics)
    config["deadline"] = run_start + seconds
    result, error = run_worker(config, run_start + RUN_LIMIT_S)
    if result is None:
        gate.fail("trace", error)
        return gate, {}, {}, None
    for inv in result["warm"]:
        gate.check(inv["label"], inv["rc"], inv["report"], "warm")
    tally = result["tally"]
    if tally["mismatched"]:
        gate.fail("trace", f"{tally['mismatched']} of {tally['checked']} "
                           "traced samples broke a certify identity")
    spans = [Span.from_list(item) for item in result["spans"]]
    metrics = {}
    for span_name, (metric, _, scale) in PER_CALL.items():
        found = durations(spans, span_name)
        metrics[metric] = statistics.median(found) * scale if found else None
    metrics["legendre.inverse_iterations"] = (tally["inverse_iterations"]
                                              / tally["inverse_calls"])
    for span_name, (metric, _, scale) in TOTALS.items():
        metrics[metric] = sum(durations(spans, span_name)) * scale
    metrics["symbolic.lagrangian_chars"] = result["lagrangian_chars"]
    own = layer_self_seconds(spans)
    wall = traced_wall(spans)
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
        metrics[f"{layer}.share"] = own.get(layer, 0.0) / wall
    metrics["trace.coverage"] = coverage(spans)
    metrics["trace.overhead"] = statistics.median(
        t / u for t, u in zip(result["traced_s"], result["untraced_s"]))
    detail = {"trace.overhead": f"median traced/untraced wall of "
                                f"{len(result['traced_s'])} pass pairs",
              "trace.coverage": f"{len(spans)} spans, traced wall "
                                f"{wall:.3f} s"}
    return gate, metrics, detail, result["spans"]


# ---------------------------------------------------------------------------
# facts and output
# ---------------------------------------------------------------------------


def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts():
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "folijet", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    versions = {}
    for package in ("numpy", "sympy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "src_folijet_lines": lines,
    }


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name, seed, seconds, trace):
    run_start = time.time()
    workload = WORKLOADS[name]
    atlas = prepare_atlas(name, workload, run_start + RUN_LIMIT_S)
    measure = measure_traced if trace else measure_end_to_end
    gate, metrics, detail, spans = measure(name, workload, atlas, seed,
                                           seconds, run_start)
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"{name}-spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": spans}, handle)
    units = per_layer_units() if trace else END_TO_END
    for message in gate.messages:
        print(f"[{name}] INCORRECT {message}")
    for metric, unit in units.items():
        note = f"  ({detail[metric]})" if metric in detail else ""
        print(f"[{name}] {metric} = {_format(metrics.get(metric))} {unit}"
              f"{note}")
    print(f"[{name}] failed_ratio = {gate.failed / max(gate.attempted, 1):g} "
          f"({gate.failed} of {gate.attempted} invocations)")
    return gate, {m: {"value": metrics.get(m), "unit": u}
                  for m, u in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "folijet", "__init__.py")):
        print(f"error: no folijet sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # one core for this process and every child, so that the reference
        # loop run here paces the same core a cold child runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("facts " + json.dumps(run_facts(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        gate, found = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        attempted += gate.attempted
        failed += gate.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: v for m, v in found.items()})
    sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
