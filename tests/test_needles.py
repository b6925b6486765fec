import numpy as np
import pytest

from klslab.bodies import AxisCube
from klslab.densities import Boltzmann, Uniform
from klslab.diagnostics import BallSet, HalfspaceSet
from klslab.needles import NeedleCell, balanced_split, needle_decompose
from klslab.rng import RngStream


def test_balanced_split_zeroes_the_signed_excess():
    gen = RngStream(1).generator()
    X = gen.standard_normal((4000, 3))
    inside = X[:, 0] <= 0.3
    theta, side, fstar, se = balanced_split(X, inside, 0, 1)
    assert 0.0 <= theta <= np.pi
    assert abs(fstar) <= 2.0 * se
    # the split puts a nontrivial piece on each side
    assert 0.1 < side.mean() < 0.9


def test_balanced_split_antipodal_sign_change():
    # F(pi) = -F(0) holds by construction, so the bracket always exists
    gen = RngStream(2).generator()
    X = gen.standard_normal((2000, 2))
    inside = X[:, 0] + X[:, 1] <= 0.0
    d = inside.astype(float) - inside.mean()
    center = X.mean(axis=0)
    ci, cj = X[:, 0] - center[0], X[:, 1] - center[1]
    f0 = d[(ci <= 0.0)].sum() / len(X)
    fpi = d[(-ci <= 0.0)].sum() / len(X)
    assert fpi == pytest.approx(-f0, abs=1e-12)


def test_balanced_split_exact_symmetric_zero():
    # four symmetric points, E = left half: theta = 0 already balances
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    inside = np.array([False, True, False, False])
    theta, side, fstar, se = balanced_split(X, inside, 0, 1)
    assert fstar == pytest.approx(0.0, abs=0.25 + 1e-12)


def test_needle_cells_weights_sum_to_one():
    dens = Uniform(AxisCube(3))
    E = HalfspaceSet(np.eye(3)[0], 0.0)
    res = needle_decompose(dens, E, eps=0.45, max_depth=3, k=192,
                           rng=RngStream(3))
    assert res.meta["total_weight"] == pytest.approx(1.0, abs=1e-12)
    assert res.meta["n_cells"] == len(res.cells)
    assert all(isinstance(c, NeedleCell) for c in res.cells)
    ids = [c.cell_id for c in res.cells]
    assert len(set(ids)) == len(ids)
    assert all(set(cid) <= {"0", "1"} and cid.startswith("0") for cid in ids)


def test_needle_split_preserves_relative_measure():
    # symmetric body and E: every cell should keep rel_measure near 1/2
    dens = Uniform(AxisCube(3))
    E = HalfspaceSet(np.eye(3)[0], 0.0)
    res = needle_decompose(dens, E, eps=0.4, max_depth=2, k=256,
                           rng=RngStream(4))
    assert any(c.depth > 0 for c in res.cells)   # at least one split happened
    for c in res.cells:
        if c.flag != "degenerate":
            assert c.rel_measure == pytest.approx(0.5, abs=0.22)


def test_needle_curve_monotone_and_bounded():
    dens = Uniform(AxisCube(3))
    E = HalfspaceSet(np.eye(3)[0], 0.0)
    res = needle_decompose(dens, E, eps=0.35, max_depth=3, k=160,
                           rng=RngStream(5))
    fracs = [frac for _, frac in res.curve]
    assert fracs == sorted(fracs)
    assert fracs[-1] == pytest.approx(1.0)
    thresh = [v for v, _ in res.curve]
    assert thresh == sorted(thresh)
    assert res.mass_fraction_below(thresh[-1]) == pytest.approx(1.0)
    assert res.mass_fraction_below(-1.0) == 0.0


def test_needle_one_dim_single_cell():
    dens = Uniform(AxisCube(1))
    E = HalfspaceSet(np.array([1.0]), 0.0)
    res = needle_decompose(dens, E, eps=0.1, max_depth=4, k=400,
                           rng=RngStream(6))
    assert len(res.cells) == 1
    c = res.cells[0]
    assert c.depth == 0 and c.weight == 1.0
    assert c.max_variance == pytest.approx(1.0 / 3.0, rel=0.2)
    assert c.rel_measure == pytest.approx(0.5, abs=0.1)


def test_needle_root_measure_validation():
    dens = Uniform(AxisCube(2))
    tiny = BallSet(np.array([0.9, 0.9]), 0.05)
    with pytest.raises(ValueError, match="root measure"):
        needle_decompose(dens, tiny, eps=0.3, max_depth=2, k=128,
                         rng=RngStream(7))
    with pytest.raises(ValueError):
        needle_decompose(dens, tiny, eps=-1.0, max_depth=2)
    with pytest.raises(ValueError):
        needle_decompose(dens, tiny, eps=0.3, max_depth=-1)
    # a Generator cannot hand out per-cell substreams
    with pytest.raises(ValueError, match="substream"):
        needle_decompose(dens, tiny, eps=0.3, max_depth=2,
                         rng=RngStream(7).generator())


def test_needle_depth_zero_returns_root_cell():
    dens = Uniform(AxisCube(2))
    E = HalfspaceSet(np.eye(2)[0], 0.0)
    res = needle_decompose(dens, E, eps=0.1, max_depth=0, k=200,
                           rng=RngStream(8))
    assert len(res.cells) == 1
    assert res.cells[0].cell_id == "0"


def test_needle_determinism():
    dens = Uniform(AxisCube(2))
    E = HalfspaceSet(np.eye(2)[0], 0.0)
    r1 = needle_decompose(dens, E, eps=0.3, max_depth=2, k=128,
                          rng=RngStream(9))
    r2 = needle_decompose(dens, E, eps=0.3, max_depth=2, k=128,
                          rng=RngStream(9))
    assert [c.cell_id for c in r1.cells] == [c.cell_id for c in r2.cells]
    assert [c.weight for c in r1.cells] == [c.weight for c in r2.cells]
    assert [c.max_variance for c in r1.cells] == [c.max_variance for c in r2.cells]


def test_needle_variance_shrinks_with_depth():
    # deeper recursion produces more mass in low-variance cells
    dens = Uniform(AxisCube(4, half_width=np.sqrt(3.0)))
    E = HalfspaceSet(np.eye(4)[0], 0.0)
    shallow = needle_decompose(dens, E, eps=0.5, max_depth=1, k=192,
                               rng=RngStream(10))
    deep = needle_decompose(dens, E, eps=0.5, max_depth=4, k=192,
                            rng=RngStream(10))
    v = 0.8
    assert deep.mass_fraction_below(v) >= shallow.mass_fraction_below(v) - 1e-9
    # splitting happened at all
    assert deep.meta["n_cells"] > shallow.meta["n_cells"] - 1


def test_needle_cells_are_drawn_exactly_on_a_cube():
    # uniform on the cube has an exact law, so does every cell of it
    dens = Uniform(AxisCube(3))
    E = HalfspaceSet(np.eye(3)[0], 0.0)
    res = needle_decompose(dens, E, eps=0.4, max_depth=2, k=256,
                           rng=RngStream(11))
    drawn = {cid[:i] for cid in (c.cell_id for c in res.cells)
             for i in range(1, len(cid) + 1)}
    assert len(drawn) > 1
    assert res.meta["n_exact"] == len(drawn)


def test_needle_cells_fall_back_to_the_chain_without_an_exact_law(monkeypatch):
    # a Boltzmann density has no exact law: every cell, the root included,
    # runs the hit-and-run chain, and the run still replays from its stream
    from klslab import needles

    calls = []
    chain = needles.run_chain

    def counted(*args, **kwargs):
        calls.append(args[1])
        return chain(*args, **kwargs)

    monkeypatch.setattr(needles, "run_chain", counted)
    dens = Boltzmann(AxisCube(3), alpha=0.5, c=np.eye(3)[1])
    E = HalfspaceSet(np.eye(3)[0], 0.0)

    def run():
        return needle_decompose(dens, E, eps=0.4, max_depth=2, k=128,
                                rng=RngStream(12))

    r1 = run()
    drawn = {cid[:i] for cid in (c.cell_id for c in r1.cells)
             for i in range(1, len(cid) + 1)}
    assert len(drawn) > 1
    assert r1.meta["n_exact"] == 0
    assert len(calls) == len(drawn)
    # the root warm-starts, every other cell starts from a parent's sample
    assert calls[0] is None and all(x0 is not None for x0 in calls[1:])
    r2 = run()
    assert [(c.cell_id, c.weight, c.max_variance, c.rel_measure) for c in r1.cells] \
        == [(c.cell_id, c.weight, c.max_variance, c.rel_measure) for c in r2.cells]
