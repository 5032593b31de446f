"""Acceptance gate: the ten headline criteria, one printed line each.

Each test computes its criterion at the stated tolerances, records a
single PASS/FAIL line (echoed in the terminal summary) and asserts it.
"""

import json
import tempfile
import time
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np
import sympy as sp

from folijet.cli import main as cli_main
from folijet.dynamics import (
    LagrangianField,
    SemiSprayField,
    dual_coefficients,
    projectors,
    semispray,
    vertical_hessian,
)
from folijet.expr import parse
from folijet.jets import (
    TransverseJetPoint,
    include_jet,
    jet_env,
    prolong_jacobian,
    prolong_transition,
)
from folijet.legendre import (
    CotangentJetPoint,
    admissibility_check,
    legendre_chain,
    legendre_inverse,
    legendre_map,
    pseudo_hamiltonian,
)
from folijet.riemann import (
    MetricField,
    holonomy_check,
    lift_lagrangian,
    lift_metric,
    sample_jets,
    vertical_exactness_check,
)
from oracles import central_difference_vector

CRITERION_LINES = []

TRANSITIONS = {
    1: ("x1^3",),
    2: ("x1 + x2^2", "x2 * exp(x1/4)"),
    3: ("x1*x2", "x2 + sin(x3)", "x3^2 + x1"),
}

FLAT = MetricField.from_components([["1"]], 1, name="flat")
EXP = MetricField.from_components([["exp(x1)"]], 1, name="exp")
WAVY = MetricField.from_components([["1 + 0.1*sin(x1)"]], 1, name="wavy")


def record(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"criterion {num:2d} {status}: {label}{suffix}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def jet_point(base, jets, chart="A", leaf=()):
    return TransverseJetPoint(chart, len(jets), tuple(leaf), tuple(base),
                              tuple(tuple(row) for row in jets))


def value(L, point):
    """L at a jet point."""
    return L.program.eval(jet_env(point.base, point.jets))


def make_atlas(q, exprs, lo=0.2, hi=1.8):
    from folijet.atlas import load_atlas
    return load_atlas({
        "leaf_dim": 0,
        "transverse_dim": q,
        "charts": [
            {"name": "A", "domain": [[lo, hi]] * q},
            {"name": "B", "domain": [[-100.0, 100.0]] * q},
        ],
        "transitions": [{
            "name": "A->B", "from": "A", "to": "B",
            "leaf_exprs": [], "transverse_exprs": list(exprs),
            "overlap": [[lo, hi]] * q,
        }],
    })


@lru_cache(maxsize=None)
def _recursion_transport(exprs, q, r):
    """Literal transcription of the displayed jet transformation recursion.

    y^(0)' = transition(x); k*y^(k)' = Gamma applied to y^(k-1)', with
    Gamma = sum y^(1) d/dx + sum_{j>=2} j y^(j) d/dy^(j-1).  Independent
    of the Taylor-composition transport under test.
    """
    xs = sp.symbols(f"x1:{q + 1}")
    ys = [[sp.Symbol(f"y{k}_{i + 1}") for i in range(q)]
          for k in range(1, r + 1)]
    prev = [sp.sympify(e.replace("^", "**")) for e in exprs]
    rows = []
    for k in range(1, r + 1):
        cur = []
        for u in range(q):
            total = sum(ys[0][i] * sp.diff(prev[u], xs[i]) for i in range(q))
            for j in range(2, k + 1):
                total += sum(j * ys[j - 1][i] * sp.diff(prev[u], ys[j - 2][i])
                             for i in range(q))
            cur.append(sp.expand(total / k))
        rows.append(cur)
        prev = cur
    flat = list(xs) + [s for row in ys for s in row]
    return [[sp.lambdify(flat, e, "math") for e in row] for row in rows]


def test_criterion_01_prolongation_correctness(triple_atlas):
    start = time.perf_counter()
    dev_eq1 = 0.0
    for q in (1, 2, 3):
        atlas = make_atlas(q, TRANSITIONS[q])
        t = atlas.transitions["A->B"]
        fns = _recursion_transport(TRANSITIONS[q], q, 3)
        rng = np.random.default_rng(501 + q)
        for _ in range(100):
            base = rng.uniform(0.3, 1.5, q)
            jets = [rng.uniform(-1, 1, q) for _ in range(3)]
            point = jet_point(base, jets)
            image = prolong_transition(atlas, t, point)
            args = list(base) + [v for row in jets for v in row]
            for k in range(3):
                for u in range(q):
                    dev_eq1 = max(dev_eq1,
                                  abs(image.jets[k][u] - fns[k][u](*args)))
    dev_cocycle = 0.0
    for r in (1, 2, 3, 4):
        t_ab = triple_atlas.transitions["A->B"]
        t_bc = triple_atlas.transitions["B->C"]
        t_ac = triple_atlas.transitions["A->C"]
        rng = np.random.default_rng(601 + r)
        for _ in range(100):
            base = rng.uniform(0.6, 1.4, 1)
            point = jet_point(base, [rng.uniform(-1, 1, 1) for _ in range(r)],
                              leaf=(0.3,))
            via = prolong_transition(triple_atlas, t_bc,
                                     prolong_transition(triple_atlas, t_ab,
                                                        point))
            direct = prolong_transition(triple_atlas, t_ac, point)
            dev_cocycle = max(dev_cocycle,
                              float(np.max(np.abs(np.asarray(via.jets)
                                                  - np.asarray(direct.jets)))))
    elapsed = time.perf_counter() - start
    ok = dev_eq1 <= 1e-10 and dev_cocycle <= 1e-9 and elapsed < 5.0
    record(1, "prolongation matches the displayed recursion and is functorial",
           ok, f"recursion dev {dev_eq1:.2e}, cocycle dev {dev_cocycle:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_02_jacobian_structure(cubic_atlas):
    t = cubic_atlas.transitions["A->B"]
    rng = np.random.default_rng(11)
    dev = 0.0
    for r in (2, 3, 4):
        base = rng.uniform(0.6, 1.8, 1)
        point = jet_point(base, [rng.uniform(-1, 1, 1) for _ in range(r)])
        jac = prolong_jacobian(cubic_atlas, t, point)
        for g in range(1, r + 1):
            for b in range(1, g + 1):
                dev = max(dev, abs(jac[g, b] - jac[g - 1, b - 1]))
            dev = max(dev, abs(jac[g, g] - 3 * base[0] ** 2))
    record(2, "fiber jacobian has the shift-block structure", dev <= 1e-10,
           f"max dev {dev:.2e}")


def test_criterion_03_inclusion_naturality():
    atlas = make_atlas(1, TRANSITIONS[1], 0.5, 2.0)
    t = atlas.transitions["A->B"]
    rng = np.random.default_rng(13)
    dev = 0.0
    # the coordinate form is transition-independent exactly for source
    # order 1 (and trivially at equal orders); see tests/test_jets.py
    for r_low, r_high in ((1, 2), (1, 3), (1, 4), (2, 2), (3, 3)):
        base = rng.uniform(0.6, 1.8, 1)
        jets = [rng.uniform(-1, 1, 1) for _ in range(r_low)]
        a = prolong_transition(atlas, t,
                               jet_point(base, include_jet(r_high, jets)))
        b = include_jet(r_high,
                        prolong_transition(atlas, t, jet_point(base, jets)).jets)
        dev = max(dev, float(np.max(np.abs(np.asarray(a.jets) - b))))
    nested_exact = True
    for r1, r2, r3 in ((1, 2, 4), (1, 3, 5), (2, 3, 6)):
        jets = [[1.5]] * r1
        via = include_jet(r3, include_jet(r2, jets))
        nested_exact = nested_exact and \
            np.array_equal(via, include_jet(r3, jets))
    ok = dev <= 1e-9 and nested_exact
    record(3, "inclusions commute with transport and compose exactly", ok,
           f"naturality dev {dev:.2e}, nested exact {nested_exact}")


def test_criterion_04_projector_suite():
    dev_sum = dev_law = 0.0
    for g in (FLAT, EXP):
        for r in (1, 2, 3):
            S = SemiSprayField.from_lagrangian(lift_lagrangian(g, r))
            rng = np.random.default_rng([17, r, zlib.crc32(g.name.encode())])
            eye = np.eye(r + 1)
            for _ in range(50):
                point = jet_point(rng.uniform(-0.5, 0.8, 1),
                                  [rng.uniform(-1, 1, 1) for _ in range(r)])
                h, v = projectors(S, point)
                dev_sum = max(dev_sum, float(np.max(np.abs(h + v - eye))))
                dev_law = max(dev_law, float(np.max(np.abs(h @ h - h))),
                              float(np.max(np.abs(v @ v - v))),
                              float(np.max(np.abs(h @ v))))
    S = SemiSprayField.from_lagrangian(lift_lagrangian(FLAT, 1))
    h, v = projectors(S, jet_point([0.4], [[0.7]]))
    dev_hand = max(float(np.max(np.abs(h - np.diag([1.0, 0.0])))),
                   float(np.max(np.abs(v - np.diag([0.0, 1.0])))))
    ok = dev_sum <= 1e-14 and dev_law <= 1e-9 and dev_hand <= 1e-12
    record(4, "projector pair satisfies its laws and the flat hand values",
           ok, f"sum {dev_sum:.2e}, laws {dev_law:.2e}, hand {dev_hand:.2e}")


def test_criterion_05_semispray_and_dual_coefficients():
    L = lift_lagrangian(EXP, 1)
    rng = np.random.default_rng(19)
    dev_value = 0.0
    for _ in range(20):
        x, y = rng.uniform(-0.5, 0.8), rng.uniform(-2, 2)
        dev_value = max(dev_value,
                        abs(semispray(L, jet_point([x], [[y]]))[0]
                            - y * y / 8.0))
    S = SemiSprayField.from_lagrangian(lift_lagrangian(EXP, 2))
    dev_fd = 0.0
    for _ in range(5):
        base = rng.uniform(-0.3, 0.6, 1)
        jets = [rng.uniform(0.5, 1.5, 1) for _ in range(2)]
        coeffs = dual_coefficients(S, base, jets)

        def spray_at(flat):
            p = jet_point(flat[:1], [flat[1:2], flat[2:3]])
            return semispray(S.lagrangian, p)

        flat = np.concatenate([base] + [np.asarray(j) for j in jets])
        jac = central_difference_vector(spray_at, flat)
        for k in (1, 2):
            j = 3 - k
            want = -jac[:, j:j + 1]
            scale = max(1.0, float(np.abs(want).max()))
            dev_fd = max(dev_fd,
                         float(np.max(np.abs(coeffs[k - 1] - want))) / scale)
    ok = dev_value <= 1e-12 and dev_fd <= 1e-6
    record(5, "semi-spray value and dual coefficients check out", ok,
           f"value dev {dev_value:.2e}, finite-difference dev {dev_fd:.2e}")


def test_criterion_06_metric_lift():
    rng = np.random.default_rng(23)
    dev_hess = 0.0
    for r in (1, 2, 3):
        L = lift_lagrangian(EXP, r)
        for _ in range(20):
            base = rng.uniform(-0.5, 0.8, 1)
            point = jet_point(base, [rng.uniform(-1, 1, 1) for _ in range(r)])
            dev_hess = max(dev_hess,
                           float(np.max(np.abs(vertical_hessian(L, point)
                                               - 2 * EXP.evaluate(base)))))
    # the flat stage sprays vanish through order 2, so the lift is the
    # plain sum of squares there; at order 3 the top square is shifted
    # by the stage spray -y1/6 of the order-2 lagrangian
    dev_flat = 0.0
    L2 = lift_lagrangian(FLAT, 2)
    L3 = lift_lagrangian(FLAT, 3)
    for _ in range(20):
        jets = [rng.uniform(-2, 2, 1) for _ in range(3)]
        point2 = jet_point(rng.uniform(-1, 1, 1), jets[:2])
        point3 = jet_point(rng.uniform(-1, 1, 1), jets)
        y1, y2, y3 = (row[0] for row in jets)
        dev_flat = max(dev_flat,
                       abs(value(L2, point2) - (y1 ** 2 + y2 ** 2)),
                       abs(value(L3, point3)
                           - (y1 ** 2 + y2 ** 2 + (y3 + y1 / 6.0) ** 2)))
    min_eig = np.inf
    for r in (1, 2, 3):
        lifted = lift_metric(WAVY, r)
        for _ in range(100):
            point = jet_point(rng.uniform(-2, 2, 1), sample_jets(rng, r, 1, 2.0))
            min_eig = min(min_eig,
                          float(np.linalg.eigvalsh(lifted.evaluate(point)).min()))
    ok = dev_hess <= 1e-9 and dev_flat <= 1e-12 and min_eig > 1e-9
    record(6, "recursive lift has Hessian 2g and a positive-definite metric",
           ok, f"hessian dev {dev_hess:.2e}, flat dev {dev_flat:.2e}, "
               f"min eig {min_eig:.2e}")


def test_criterion_07_holonomy(cubic_atlas):
    dev = 0.0
    for r in (1, 2, 3):
        lifted = lift_metric(cubic_atlas.metrics["g"], r)
        report = holonomy_check(cubic_atlas, lifted, samples=25, seed=0)
        dev = max(dev, max(c.metric for c in report.checks))
    lifted = lift_metric(cubic_atlas.metrics["g"], 2)
    rng = np.random.default_rng(29)
    dev_zero = 0.0
    for chart, fld in cubic_atlas.metrics["g"].items():
        box = np.asarray(cubic_atlas.charts[chart].domain[1:], dtype=float)
        for _ in range(10):
            base = box[:, 0] + rng.random(1) * (box[:, 1] - box[:, 0])
            block = lifted.evaluate_at(chart, base, np.zeros((2, 1)))[:1, :1]
            dev_zero = max(dev_zero,
                           float(np.max(np.abs(block - fld.evaluate(base)))))
    bad = holonomy_check(cubic_atlas,
                         lift_metric(cubic_atlas.metrics["g_bad"], 2),
                         samples=25, seed=0)
    ok = dev <= 1e-7 and dev_zero <= 1e-9 and not bad.passed
    record(7, "lifted metric is holonomy-invariant and restricts to g", ok,
           f"holonomy dev {dev:.2e}, restriction dev {dev_zero:.2e}, "
           f"negative control fails {not bad.passed}")


def test_criterion_08_exactness_admissibility_hamiltonian():
    dev_exact = 0.0
    for r in (1, 2, 3):
        report = vertical_exactness_check(lift_metric(EXP, r),
                                          lift_lagrangian(EXP, r),
                                          samples=25, seed=0,
                                          base_box=[[-0.5, 0.8]])
        dev_exact = max(dev_exact, max(c.metric for c in report.checks))
    good = admissibility_check(lift_lagrangian(EXP, 2), samples=15, seed=0,
                               base_box=[[-0.5, 0.8]])
    neg1 = admissibility_check(
        LagrangianField.from_program(parse("-(y2_1^2) - y1_1^2"),
                                     order=2, qdim=1, name="negative"),
        samples=10, seed=0, base_box=[[0.0, 1.0]])
    neg2 = admissibility_check(
        LagrangianField(order=1, qdim=1, program=parse("y1_1^2 + u1^2"),
                        name="leafy"),
        samples=5, seed=0, base_box=[[0.0, 1.0]])
    dev_chain = 0.0
    for g in (EXP, WAVY):
        L1 = lift_lagrangian(g, 1)
        for r, samples in ((2, 25), (3, 8)):
            H = legendre_chain(lift_lagrangian(g, r))
            rng = np.random.default_rng([31, r, zlib.crc32(g.name.encode())])
            for _ in range(samples):
                x = float(rng.uniform(-0.5, 0.8))
                p = float(rng.uniform(-2, 2))
                want = pseudo_hamiltonian(
                    L1, CotangentJetPoint("", 1, (), (x,), (), (p,))).value
                dev_chain = max(dev_chain, abs(H((x,), (p,)) - want))
    dev_flat = 0.0
    for r in (1, 2, 3):
        H = legendre_chain(lift_lagrangian(FLAT, r))
        for p in (-1.3, 0.4, 2.0):
            dev_flat = max(dev_flat, abs(H((0.3,), (p,)) - p * p / 4.0))
    ok = (dev_exact <= 1e-8 and good.passed and not neg1.passed
          and not neg2.passed and dev_chain <= 1e-8 and dev_flat <= 1e-12)
    record(8, "exactness, admissibility and the diagonal hamiltonian hold",
           ok, f"exactness {dev_exact:.2e}, chain {dev_chain:.2e}, "
               f"flat {dev_flat:.2e}, controls fail "
               f"{not neg1.passed and not neg2.passed}")


def test_criterion_09_legendre_round_trips():
    L = lift_lagrangian(EXP, 2)
    rng = np.random.default_rng(37)
    dev = 0.0
    for _ in range(100):
        point = jet_point(rng.uniform(-0.5, 0.8, 1),
                          [rng.uniform(-1.5, 1.5, 1) for _ in range(2)])
        momentum = tuple(legendre_map(L, point.base, point.jets))
        back = legendre_inverse(L, CotangentJetPoint(
            "", 2, (), point.base, point.jets[:-1], momentum))
        dev = max(dev, float(np.max(np.abs(np.asarray(back.jets)
                                           - np.asarray(point.jets)))))
    Lq = LagrangianField.from_program(parse("y1_1^2"), order=1, qdim=1)
    _, stats = legendre_inverse(
        Lq, CotangentJetPoint("", 1, (), (0.5,), (), (6.0,)),
        return_stats=True)
    ok = dev <= 1e-9 and stats["iterations"] == 1
    record(9, "Legendre round trips and one-step quadratic inversion", ok,
           f"round-trip dev {dev:.2e}, iterations {stats['iterations']}")


def test_criterion_10_determinism(atlas_dir, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for name in ("a.json", "b.json"):
            path = Path(tmp) / name
            code = cli_main(["certify", str(atlas_dir / "cubic.json"),
                             "--metric", "g", "--order", "2",
                             "--samples", "10", "--seed", "3",
                             "--out", str(path)])
            capsys.readouterr()
            assert code == 0
            outs.append(path.read_bytes())
        identical = outs[0] == outs[1]
    json.loads(outs[0])  # well-formed report
    record(10, "repeated certification runs are byte-identical", identical)
