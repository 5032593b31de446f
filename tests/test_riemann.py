import json

import numpy as np
import pytest
import sympy as sp

from folijet import expr, riemann
from folijet.atlas import load_atlas_file, sample_overlap
from folijet.cli import main
from folijet.dynamics import (SemiSprayField, projector_pair, projectors,
                              semispray, vertical_hessian)
from folijet.errors import InvariantViolation, ShapeError, SingularMetric
from folijet.expr import ExprProgram, coordinate_names, parse
from folijet.jets import (TransverseJetPoint, jet_env, prolong_jacobian,
                          prolong_transition, sample_points)
from folijet.report import relative_gap
from folijet.riemann import (
    MetricField,
    holonomy_check,
    lift_lagrangian,
    lift_metric,
    prolongation_coefficients,
    sample_jets,
    vertical_exactness_check,
)
from conftest import ATLAS_DIR
from oracles import (
    coframe_metric,
    holonomy_draws,
    projector_draws,
    sympy_lift_stages,
    sympy_prolongation_coefficients,
    sympy_value,
    vertical_exactness_draws,
)


def jet_point(base, jets, chart=""):
    return TransverseJetPoint(chart, len(jets), (), tuple(base),
                              tuple(tuple(row) for row in jets))


def value(L, pt):
    """L at a jet point."""
    return L.program.eval(jet_env(pt.base, pt.jets))


TWO_DIM_ENTRIES = [["1 + x2^2", "x1*x2/4"], ["x1*x2/4", "2 + sin(x1)"]]
TWO_DIM = MetricField.from_components(TWO_DIM_ENTRIES, 2, name="curved2")


def sympy_christoffel(entries, q, base):
    xs = sp.symbols(f"x1:{q+1}")
    g = sp.Matrix(q, q, lambda i, j: sp.sympify(
        entries[i][j].replace("^", "**")))
    ginv = g.inv()
    out = np.zeros((q, q, q))
    subs = dict(zip(xs, base))
    for a in range(q):
        for b in range(q):
            for c in range(q):
                s = sum(ginv[a, d] * (sp.diff(g[d, c], xs[b])
                                      + sp.diff(g[b, d], xs[c])
                                      - sp.diff(g[b, c], xs[d]))
                        for d in range(q))
                out[a, b, c] = float((s / 2).subs(subs))
    return out


# ------------------------------------------------------------- christoffel


def christoffel_at(g, base):
    """Coefficient 0 of `_christoffel_series`: the symbols at the base."""
    return riemann._christoffel_series(g, base)[1][0]


def test_christoffel_series_rejects_an_indefinite_metric():
    # regular (condition 3) but indefinite: the lift needs a definite g
    g = MetricField.from_components([["1", "2"], ["2", "1"]], 2, name="g")
    with pytest.raises(SingularMetric, match=r"^metric 'g' has eigenvalue "
                       r"ratio -3.333e-01 at \[0.5, 0.5\]$"):
        christoffel_at(g, [0.5, 0.5])
    with pytest.raises(SingularMetric, match=r"at \[0.6, 0.7\] \(sample 0\)$"):
        christoffel_at(g, [[0.6, 0.7], [0.5, 0.5]])


def test_christoffel_examples(flat_metric, exp_metric):
    assert np.allclose(christoffel_at(flat_metric, [0.7]), 0.0)
    gamma = christoffel_at(exp_metric, [0.4])
    assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-12)


def test_christoffel_symmetry_and_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        base = rng.uniform(0.2, 1.2, 2)
        gamma = christoffel_at(TWO_DIM, base)
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=0)
        want = sympy_christoffel(TWO_DIM_ENTRIES, 2, base)
        assert np.allclose(gamma, want, atol=1e-10)


# ---------------------------------------------------------- geodesic spray


def geodesic_spray(g, point):
    """Spray of the metric lift L^(1) = g(y, y): Gamma^a_bc(x) y^b y^c / 4."""
    return semispray(lift_lagrangian(g, 1), point)


def test_geodesic_spray_examples(flat_metric, exp_metric):
    assert np.allclose(
        geodesic_spray(flat_metric, jet_point([0.3], [[0.9]])), 0.0)
    s = geodesic_spray(exp_metric, jet_point([0.5], [[0.6]]))
    assert s[0] == pytest.approx(0.6 ** 2 / 8.0, abs=1e-12)


def test_geodesic_spray_two_homogeneous():
    rng = np.random.default_rng(9)
    for lam in (0.5, 2.0, 7.0):
        base = rng.uniform(0.3, 1.0, 2)
        gamma = sympy_christoffel(TWO_DIM_ENTRIES, 2, base)
        y = rng.uniform(-1, 1, 2)
        s1 = geodesic_spray(TWO_DIM, jet_point(base, [y]))
        s2 = geodesic_spray(TWO_DIM, jet_point(base, [lam * y]))
        scale = max(1.0, np.abs(s2).max())
        assert np.allclose(lam ** 2 * s1, s2, atol=1e-10 * scale)
        for v, s in ((y, s1), (lam * y, s2)):
            want = 0.25 * np.einsum("abc,b,c->a", gamma, v, v)
            assert np.allclose(s, want, atol=1e-10 * max(1.0, np.abs(want).max()))


# --------------------------------------------------------- lagrangian lift


def test_lift_lagrangian_first_order_is_metric_form(exp_metric):
    L = lift_lagrangian(exp_metric, 1)
    pt = jet_point([0.3], [[1.4]])
    assert value(L, pt) == pytest.approx(np.exp(0.3) * 1.4 ** 2, rel=1e-12)


def test_lift_lagrangian_flat_second_order(flat_metric):
    L = lift_lagrangian(flat_metric, 2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        y1, y2 = rng.uniform(-2, 2, 2)
        pt = jet_point([rng.uniform(0, 1)], [[y1], [y2]])
        assert value(L, pt) == pytest.approx(y1 ** 2 + y2 ** 2, abs=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lift_lagrangian_vertical_hessian_is_twice_metric(exp_metric, r):
    L = lift_lagrangian(exp_metric, r)
    rng = np.random.default_rng(10 + r)
    for _ in range(50):
        base = rng.uniform(-0.5, 0.8, 1)
        pt = jet_point(base, [rng.uniform(-1, 1, 1) for _ in range(r)])
        hess = vertical_hessian(L, pt)
        assert np.allclose(hess, 2 * exp_metric.evaluate(base), atol=1e-9)


def test_lift_lagrangian_vertical_hessian_q2():
    L = lift_lagrangian(TWO_DIM, 2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        base = rng.uniform(0.2, 1.0, 2)
        pt = jet_point(base, [rng.uniform(-1, 1, 2) for _ in range(2)])
        hess = vertical_hessian(L, pt)
        assert np.allclose(hess, 2 * TWO_DIM.evaluate(base), atol=1e-9)


def test_lift_rejects_bad_order(flat_metric):
    with pytest.raises(ShapeError):
        lift_lagrangian(flat_metric, 0)
    with pytest.raises(ShapeError):
        lift_metric({"": flat_metric}, 0)


# -------------------------------------------------------------- metric lift


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lift_metric_flat_is_identity(flat_metric, r):
    lifted = lift_metric({"": flat_metric}, r)
    rng = np.random.default_rng(2 + r)
    for _ in range(10):
        pt = jet_point(rng.uniform(-1, 1, 1),
                       [rng.uniform(-2, 2, 1) for _ in range(r)])
        assert np.allclose(lifted.evaluate(pt), np.eye(r + 1), atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lift_metric_positive_definite_wavy(wavy_metric, r):
    lifted = lift_metric({"": wavy_metric}, r)
    rng = np.random.default_rng(30 + r)
    for _ in range(100):
        pt = jet_point(rng.uniform(-2, 2, 1),
                       [rng.uniform(-2, 2, 1) for _ in range(r)])
        G = lifted.evaluate(pt)
        assert np.allclose(G, G.T, atol=0)
        assert np.linalg.eigvalsh(G).min() > 1e-9


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lift_metric_restricts_to_metric(exp_metric, r):
    lifted = lift_metric({"": exp_metric}, r)
    rng = np.random.default_rng(40 + r)
    for _ in range(10):
        base = rng.uniform(-0.5, 0.8, 1)
        block = lifted.evaluate_at("", base, np.zeros((r, 1)))[:1, :1]
        assert np.allclose(block, exp_metric.evaluate(base), atol=1e-9)


def test_lift_metric_top_block_is_metric(exp_metric):
    lifted = lift_metric({"": exp_metric}, 3)
    rng = np.random.default_rng(55)
    for _ in range(10):
        base = rng.uniform(-0.5, 0.8, 1)
        pt = jet_point(base, sample_jets(rng, 3, 1))
        G = lifted.evaluate(pt)
        assert np.allclose(G[3:, 3:], exp_metric.evaluate(base), atol=1e-10)


def test_lift_metric_has_no_value_in_a_chart_its_family_lacks(exp_metric):
    lifted = lift_metric({"A": exp_metric}, 2)
    base, jets = np.array([0.3]), np.full((2, 1), 0.1)
    assert np.isfinite(lifted.evaluate_at("A", base, jets)).all()
    with pytest.raises(InvariantViolation,
                       match="no metric presentation for chart 'B'"):
        lifted.evaluate_at("B", base, jets)
    with pytest.raises(InvariantViolation, match="chart 'B'"):
        lifted.evaluate(jet_point(base, jets, chart="B"))


# metric entries and the box its base points are drawn from
CLOSED_FORM_METRICS = {
    "wavy": ([["1 + 0.1*sin(x1)"]], (-2.0, 2.0)),
    "exp": ([["exp(x1)"]], (-0.5, 0.8)),
    "cubic_B": ([["1/(9*x1^(4/3))"]], (0.5, 2.0)),
    "poly2": ([["1 + x1^2", "0.2*x1*x2"], ["0.2*x1*x2", "2 + x2^2"]],
              (0.2, 1.2)),
    # the transport generators A_k at different orders do not commute
    "warped2": ([["1", "0"], ["0", "exp(x1)"]], (-0.5, 0.8)),
}


@pytest.mark.parametrize("name,r", [
    *((name, r) for name in ("wavy", "exp", "cubic_B") for r in (1, 2, 3)),
    ("poly2", 1), ("poly2", 2), ("warped2", 3),
])
def test_lift_metric_matches_closed_form_coefficients(name, r):
    entries, box = CLOSED_FORM_METRICS[name]
    q = len(entries)
    g = MetricField.from_components(entries, q, name=name)
    closed = sympy_prolongation_coefficients(g.components, r, q)
    lifted = lift_metric({"": g}, r)
    rng = np.random.default_rng(70 + r)
    for _ in range(10):
        pt = jet_point(rng.uniform(*box, q), sample_jets(rng, r, q))
        env = _env(pt)
        coefficients = [np.array(mat.applyfunc(
            lambda e: sympy_value(e, env)), dtype=float) for mat in closed]
        want = coframe_metric(g.evaluate(pt.base), coefficients)
        assert np.max(np.abs(lifted.evaluate(pt) - want)) <= 1e-12


def test_lift_metric_two_dimensional_positive_definite():
    lifted = lift_metric({"": TWO_DIM}, 2)
    rng = np.random.default_rng(60)
    for _ in range(25):
        pt = jet_point(rng.uniform(0.2, 1.0, 2),
                       [rng.uniform(-1, 1, 2) for _ in range(2)])
        G = lifted.evaluate(pt)
        assert np.allclose(G, G.T, atol=0)
        assert np.linalg.eigvalsh(G).min() > 1e-9


# ------------------------------------------- the graph lift and its oracle


def _env(point):
    values = [*point.base, *(v for row in point.jets for v in row)]
    return dict(zip(coordinate_names(point.qdim, point.order), values))


def _atlas_metrics():
    for path in sorted(ATLAS_DIR.glob("*.json")):
        atlas = load_atlas_file(path)
        for name, family in sorted(atlas.metrics.items()):
            for chart, fld in family.items():
                box = atlas.charts[chart].domain[atlas.p:]
                yield pytest.param(fld, box, 3,
                                   id=f"{path.stem}-{name}-{chart}")


# a q = 3 metric with an off-diagonal entry
METRIC_Q3 = MetricField.from_components(
    [["1 + x2^2", "0.1", "0"], ["0.1", "2 + x3^2", "0"],
     ["0", "0", "1 + x1^2"]], 3, name="q3")
SHEAR2_A = load_atlas_file(ATLAS_DIR / "shear2.json").metrics["g"]["A"]


def _sample_points(fld, box, r, seed, count=20):
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    for _ in range(count):
        base = box[:, 0] + rng.random(fld.qdim) * (box[:, 1] - box[:, 0])
        yield jet_point(base, sample_jets(rng, r, fld.qdim))


@pytest.mark.parametrize("fld,box,r", [
    *_atlas_metrics(),
    pytest.param(METRIC_Q3, [[0.2, 1.2]] * 3, 3, id="q3"),
    pytest.param(SHEAR2_A, [[0.5, 1.5]] * 2, 4, id="shear2-g-A-r4"),
])
def test_graph_lift_matches_sympy_oracle(fld, box, r):
    oracle = sympy_lift_stages(fld.components, r, fld.qdim)
    for k in range(1, r + 1):
        L = lift_lagrangian(fld, k)
        for pt in _sample_points(fld, box, k, seed=80 + k):
            want = sympy_value(oracle[k - 1], _env(pt))
            assert abs(value(L, pt) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("atlas_name,metric", [
    ("plane", "expo"), ("cubic", "g"), ("shear2", "g")])
def test_lift_connection_matches_sympy_oracle(capsys, atlas_name, metric):
    r = 3
    path = ATLAS_DIR / f"{atlas_name}.json"
    assert main(["lift", str(path), "--metric", metric,
                 "--order", str(r)]) == 0
    printed = json.loads(capsys.readouterr().out)["charts"]
    atlas = load_atlas_file(path)
    for chart, fld in atlas.metrics[metric].items():
        q = fld.qdim
        built = prolongation_coefficients(fld, r)
        # `folijet lift` prints exactly these programs
        assert printed[chart]["connection"] == [
            [[prog.to_text() for prog in row] for row in mat]
            for mat in built]
        oracle = sympy_prolongation_coefficients(fld.components, r, q)
        box = atlas.charts[chart].domain[atlas.p:]
        for pt in _sample_points(fld, box, r, seed=90, count=5):
            env = _env(pt)
            for k, i, j in np.ndindex(r, q, q):
                want = sympy_value(oracle[k][i, j], env)
                assert built[k][i][j].eval(env) == pytest.approx(
                    want, rel=1e-12, abs=1e-12)


def test_lift_graph_stays_shared_at_order_5(monkeypatch):
    # shear2 chart B, on a fresh recursion: built and compiled without
    # hashing, comparing or printing a node
    fld = load_atlas_file(ATLAS_DIR / "shear2.json").metrics["g"]["B"]
    texts = tuple(tuple(p.source for p in row) for row in fld.components)

    def refuse(*_):
        raise AssertionError("a graph node was walked as a tree")

    for cls in (expr.Num, expr.Var, expr.Binary, expr.Call):
        monkeypatch.setattr(cls, "__hash__", refuse)
        monkeypatch.setattr(cls, "__eq__", refuse)
    monkeypatch.setattr(expr, "_print", refuse)
    assert len(riemann._Lift(texts, 2).lagrangian(5).tape) <= 8000


# ------------------------------------------------------------------ sprays

CUBIC = load_atlas_file(ATLAS_DIR / "cubic.json")
SHEAR2 = load_atlas_file(ATLAS_DIR / "shear2.json")
SPRAY_CASES = [
    *(pytest.param(atlas.metrics["g"][chart],
                   atlas.charts[chart].domain[atlas.p:],
                   id=f"{name}-{chart}")
      for name, atlas in (("cubic", CUBIC), ("shear2", SHEAR2))
      for chart in ("A", "B")),
    pytest.param(METRIC_Q3, [[0.2, 1.2]] * 3, id="q3"),
]


def _graph_spray(g, r):
    """The stage spray S^(r) that the lift builds on its graph, and its
    Jacobian by `Graph.diff`, as programs over (x, y^(1..r))."""
    lift = riemann._lift(g)
    lift.lagrangian(r + 1)  # building stage r + 1 builds the spray of L^(r)
    spray = lift.sprays[r - 1]
    names = coordinate_names(g.qdim, r)
    return ([ExprProgram(s) for s in spray],
            [[ExprProgram(lift.graph.diff(s, name)) for name in names]
             for s in spray])


@pytest.mark.parametrize("batch", [None, 25])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("fld,box", SPRAY_CASES)
def test_spray_matches_the_graph_built_stage_spray(fld, box, r, batch):
    # the numeric spray and its Jacobian share no code below `expr` with
    # the closed forms the lift recursion builds
    q = fld.qdim
    L = lift_lagrangian(fld, r)
    base, jets = sample_points(np.random.default_rng(40 + r), box,
                               batch or 1, r, q)
    env = jet_env(base, jets)
    lead = np.shape(base)[:-1]
    spray, jacobian = _graph_spray(fld, r)
    want = np.stack([np.broadcast_to(s.eval(env), lead) for s in spray], -1)
    want_jac = np.stack([np.stack([np.broadcast_to(d.eval(env), lead)
                                   for d in row], -1)
                         for row in jacobian], -2)
    points = [jet_point(b, j) for b, j in zip(base.reshape(-1, q),
                                              jets.reshape(-1, r, q))]
    got = np.stack([semispray(L, pt) for pt in points]).reshape(want.shape)
    got_jac = SemiSprayField(L).jacobian_at(base, jets)
    assert got_jac.shape == want_jac.shape == lead + (q, (r + 1) * q)
    assert np.all(relative_gap(got, want) <= 1e-12)
    assert np.all(relative_gap(got_jac, want_jac, axis=(-2, -1)) <= 1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("fld,box", SPRAY_CASES[2:])  # shear2 and q3
def test_batched_spray_jacobian_and_projectors_match_each_sample(fld, box,
                                                                 r):
    # polynomial metrics: no elementary function whose batch may round
    # apart from its float
    S = SemiSprayField(lift_lagrangian(fld, r))
    base, jets = sample_points(np.random.default_rng(60 + r), box, 25, r,
                               fld.qdim)
    jac = S.jacobian_at(base, jets)
    h, v = projector_pair(S, base, jets)
    for s in range(25):
        assert np.array_equal(jac[s], S.jacobian_at(base[s], jets[s]))
        h_s, v_s = projector_pair(S, base[s], jets[s])
        assert np.array_equal(h[s], h_s) and np.array_equal(v[s], v_s)


# ----------------------------------------------------------------- checks


@pytest.mark.parametrize("r", [1, 2, 3])
def test_holonomy_cubic_atlas(cubic_atlas, r):
    lifted = lift_metric(cubic_atlas.metrics["g"], r)
    report = holonomy_check(cubic_atlas, lifted, samples=25, seed=0)
    assert report.passed, report.to_json()
    assert {c["context"] for c in report.checks} == {"A->B", "B->A"}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_holonomy_shear2_atlas(shear2_atlas, r):
    lifted = lift_metric(shear2_atlas.metrics["g"], r)
    report = holonomy_check(shear2_atlas, lifted, samples=25, seed=0)
    assert report.passed, report.to_json()
    assert {c["context"] for c in report.checks} == {"A->B", "B->A"}


def test_holonomy_negative_control(cubic_atlas):
    lifted = lift_metric(cubic_atlas.metrics["g_bad"], 2)
    report = holonomy_check(cubic_atlas, lifted, samples=25, seed=0)
    assert not report.passed


@pytest.mark.parametrize("r", [1, 2, 3])
def test_vertical_exactness(exp_metric, r):
    lifted = lift_metric({"": exp_metric}, r)
    L = lift_lagrangian(exp_metric, r)
    report = vertical_exactness_check(lifted, L, samples=25, seed=0,
                                      base_box=[[-0.5, 0.8]], chart="")
    assert report.passed, report.to_json()


def test_vertical_exactness_negative_control(exp_metric):
    from folijet.dynamics import LagrangianField

    lifted = lift_metric({"": exp_metric}, 2)
    L = lift_lagrangian(exp_metric, 2)
    tripled = LagrangianField.from_program(
        parse(f"3*({L.program.to_text()})"), order=2, qdim=1, name="3L")
    report = vertical_exactness_check(lifted, tripled, samples=25, seed=0,
                                      base_box=[[-0.5, 0.8]], chart="")
    assert not report.passed


def test_vertical_exactness_order_mismatch(exp_metric):
    lifted = lift_metric({"": exp_metric}, 2)
    L = lift_lagrangian(exp_metric, 1)
    with pytest.raises(ShapeError):
        vertical_exactness_check(lifted, L, base_box=[[-0.5, 0.8]],
                                 chart="")


# ------------------------------------------- the batched report, point by point
#
# `certify` runs each sampled check once over all its samples.  Here every
# metric is recomputed sample by sample through the per-point API, on the
# same draws, and must equal the report's: exactly where the batch does
# the same arithmetic, within 1e-13 where a numpy ufunc stands in for
# `math` (cubic chart B's x1^(4/3) and the x1^(1/3) transition).
BATCHED_CASES = [("cubic", "g", 20, 1e-13), ("shear2", "g", 3, 0.0)]


def certify_report(tmp_path, atlas_name, metric, samples):
    out = tmp_path / f"{atlas_name}.json"
    code = main(["certify", str(ATLAS_DIR / f"{atlas_name}.json"),
                 "--metric", metric, "--order", "2",
                 "--samples", str(samples), "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    metrics = {}
    for c in checks:
        metrics.setdefault((c["name"], c["context"]), []).append(c["metric"])
    return code, metrics


@pytest.mark.parametrize("atlas_name,metric,samples,tol", BATCHED_CASES)
def test_batched_geometry_checks_match_point_by_point(
        tmp_path, atlas_name, metric, samples, tol):
    r, seed = 2, 0
    atlas = load_atlas_file(ATLAS_DIR / f"{atlas_name}.json")
    family = atlas.metrics[metric]
    lifted = lift_metric(family, r)
    code, report = certify_report(tmp_path, atlas_name, metric, samples)
    assert code == 0
    q, p = atlas.q, atlas.p

    def close(got, want):
        assert abs(got - want) <= tol, (got, want)

    def relative(a, b):
        """max |a - b| over max(|a|, |b|), as the report measures it"""
        return float(np.max(np.abs(a - b))
                     / max(np.max(np.abs(a)), np.max(np.abs(b))))

    for t in atlas.transitions.values():
        dev = 0.0
        for pt, jets in zip(sample_overlap(t, samples, seed),
                            holonomy_draws(t, samples, seed, r, q)):
            point = TransverseJetPoint(t.from_chart, r, tuple(pt[:p]),
                                       tuple(pt[p:]), jets)
            image = prolong_transition(atlas, t, point)
            dphi = prolong_jacobian(atlas, t, point)
            left = dphi.T @ lifted.evaluate(image) @ dphi
            dev = max(dev, relative(left, lifted.evaluate(point)))
        close(report[("holonomy", t.name)][0], dev)

    exactness = report[("vertical_exactness", f"lift({metric},{r})")]
    for k, (chart, fld) in enumerate(family.items()):
        L = lift_lagrangian(fld, r)
        box = atlas.charts[chart].domain[p:]
        dev = 0.0
        for base, jets in zip(*vertical_exactness_draws(box, samples, seed,
                                                        r, q, 1.0)):
            point = jet_point(base, jets, chart)
            g_top = lifted.evaluate(point)[r * q:, r * q:]
            half = 0.5 * vertical_hessian(L, point)
            dev = max(dev, relative(g_top, half))
        close(exactness[k], dev)

        S = SemiSprayField.from_lagrangian(L)
        dev = 0.0
        for base, jets in zip(*projector_draws(atlas, chart, samples, seed,
                                               r)):
            point = jet_point(base, jets, chart)
            h, v = projectors(S, point)
            dev = max(dev, float(np.max(np.abs(h @ h - h))),
                      float(np.max(np.abs(v @ v - v))),
                      float(np.max(np.abs(h @ v))))
        close(report[("projector_idempotence", chart)][0], dev)
