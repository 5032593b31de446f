"""Block draws of the sampled checks against the per-sample draw loops.

Every sampled check draws its points in blocks from a counter-based
SplitMix64 stream; each must see exactly the values that drawing one
sample, and one jet row, at a time gives (see `oracles`), and one sample
must stay an unbatched point.  The stream itself is checked against the
published SplitMix64 values and against the oracle's int arithmetic.
"""

import numpy as np
import pytest

from folijet import cli, legendre, riemann
from folijet.atlas import load_atlas_file, sample_overlap
from folijet.dynamics import LagrangianField
from folijet.expr import parse
from folijet.jets import Stream, sample_stream
from folijet.riemann import lift_lagrangian, lift_metric, sample_jets
from oracles import (SplitMix64, admissible_draws, hamiltonian_draws,
                     holonomy_draws, jet_rows, projector_draws,
                     vertical_exactness_draws)

SAMPLES = [1, 2, 150]
# the checks draw jets in [-1, 1]; the oracles are given that scale
JET_SCALES = [1.0]
# a box away from the unit box, where the shear2 metric is positive definite
BOX = [[-0.4, 0.9], [1.5, 4.0]]


# (seed, label, salt): the keys of the checks, a large seed, a long salt
KEYS = [(0, "admissible", ()), (3, "A->B", (7,)), (5, "vexact", (3,)),
        (7, "admissible", (50,)), (2 ** 64 - 1, "B", (11,)),
        (12345, "triple:A->B|B->C|A->C", (1, 2, 3))]
DRAWS = 10 ** 4


def test_stream_gives_the_published_splitmix64_values():
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert Stream(1234567).bits(3).tolist() == want
    oracle = SplitMix64(1234567)
    assert [oracle.next() for _ in want] == want


@pytest.mark.parametrize("seed,label,salt", KEYS)
def test_stream_matches_the_int_arithmetic_oracle(seed, label, salt):
    # every draw bit for bit, over blocks of several shapes in a row
    got = sample_stream(seed, label, *salt)
    want = SplitMix64.of(seed, label, *salt)
    assert got.bits(DRAWS).tolist() == [want.next() for _ in range(DRAWS)]
    same(got.random((DRAWS // 4, 4)).reshape(-1), want.random(DRAWS))
    same(got.uniform(-2.5, 0.5, DRAWS), want.uniform(-2.5, 0.5, DRAWS))
    same(got.standard_normal((2, DRAWS // 4)).reshape(-1),
         want.standard_normal(DRAWS // 2))
    assert got.count == want.count == 4 * DRAWS


def test_stream_uniforms_and_normals_look_right():
    u = sample_stream(1, "moments").random(DRAWS)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02 and abs(u.var() - 1 / 12) < 0.01
    z = sample_stream(1, "moments").standard_normal(DRAWS)
    assert abs(z.mean()) < 0.05 and abs(z.std() - 1.0) < 0.05


def spy(monkeypatch, module, name):
    """The arguments of every call to module.name, with its results."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return calls


def same(got, want):
    # the oracles leave one sample unbatched, so the shapes check that too
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("atlas_name,samples", [
    *(("cubic", s) for s in SAMPLES), ("shear2", 1), ("shear2", 2)])
def test_certify_draws_each_check_in_one_block(
        monkeypatch, tmp_path, atlas_dir, atlas_name, samples):
    r, seed = 2, 3
    atlas = load_atlas_file(atlas_dir / f"{atlas_name}.json")
    projector = spy(monkeypatch, cli, "projector_pair")
    hamiltonian = spy(monkeypatch, cli, "hamiltonian_at")
    holonomy = spy(monkeypatch, riemann, "_prolong")
    assert cli.main(["certify", str(atlas_dir / f"{atlas_name}.json"),
                     "--metric", "g", "--order", str(r), "--samples",
                     str(samples), "--seed", str(seed),
                     "--out", str(tmp_path / "report.json")]) == 0
    charts = list(atlas.metrics["g"])
    assert len(projector) == len(hamiltonian) == len(charts)
    for chart, ((_, base, jets), _) in zip(charts, projector):
        want_base, want_jets = projector_draws(atlas, chart, samples, seed, r)
        same(base, want_base)
        same(jets, want_jets)
    for chart, ((_, base, lower, momentum), _) in zip(charts, hamiltonian):
        want_base, want_momentum = hamiltonian_draws(atlas, chart, samples,
                                                     seed)
        same(base, want_base)
        same(momentum, want_momentum)
        assert lower.shape == base.shape[:-1] + (0, atlas.q)
    transitions = list(atlas.transitions.values())
    assert len(holonomy) == len(transitions)
    for t, ((_, moved, leaf, base, jets), _) in zip(transitions, holonomy):
        assert moved.name == t.name
        pts = sample_overlap(t, samples, seed)
        same(base, pts[0, atlas.p:] if samples == 1 else pts[:, atlas.p:])
        same(jets, holonomy_draws(t, samples, seed, r, atlas.q))


@pytest.mark.parametrize("jet_scale", JET_SCALES)
@pytest.mark.parametrize("samples", SAMPLES)
def test_vertical_exactness_draws_in_one_block(
        monkeypatch, shear2_atlas, samples, jet_scale):
    r, seed = 2, 5
    fld = shear2_atlas.metrics["g"]["A"]
    calls = spy(monkeypatch, riemann, "top_hessian")
    riemann.vertical_exactness_check(
        lift_metric(fld, r), lift_lagrangian(fld, r), samples, seed,
        base_box=BOX)
    ((_, base, jets), _), = calls
    want_base, want_jets = vertical_exactness_draws(BOX, samples, seed, r,
                                                    fld.qdim, jet_scale)
    same(base, want_base)
    same(jets, want_jets)


def _slashed():
    # jets with |y^(1)| <= 1/2 are excluded: about one draw in five is
    # drawn again at jet scale 1
    return LagrangianField.from_program(
        parse("y1_1^2 + y1_2^2 + y2_1^2 + y2_2^2"), order=2, qdim=2,
        slashed=True, excluded=parse("y1_1^2 + y1_2^2 - 1/4"),
        name="slashed")


@pytest.mark.parametrize("jet_scale", JET_SCALES)
@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("slashed", [False, True], ids=["lift", "slashed"])
def test_admissibility_draws_keep_the_stream(
        monkeypatch, shear2_atlas, samples, jet_scale, slashed):
    seed = 7
    L = _slashed() if slashed else lift_lagrangian(
        shear2_atlas.metrics["g"]["A"], 2)
    calls = spy(monkeypatch, legendre, "_admissible_draws")
    legendre.admissibility_check(L, samples=samples, seed=seed,
                                 base_box=BOX)
    (_, got), = calls
    want = admissible_draws(L, BOX, samples, seed, jet_scale)
    for g, w in zip(got, want):
        same(g, w)


def test_sample_jets_keeps_its_values():
    for r, q, scale in ((1, 1, 1.0), (3, 2, 2.5)):
        got = sample_jets(np.random.default_rng(4), r, q, scale)
        want = jet_rows(np.random.default_rng(4), r, q, scale)
        assert got == tuple(map(tuple, np.array(want).tolist()))
