import numpy as np
import pytest

from achronal.causal_logic import (BallInPlane, DeterminacyMismatchError,
                                   Diamond, GraphPatch, achronally_separated,
                                   completion_equals_determinacy_check,
                                   completion_member, determinacy_member,
                                   fibonacci_directions, rcl_well_defined_check,
                                   separation_margin)
from achronal.localization import BallMask
from achronal.minkowski import PoincareElement, fourvector, rotation
from achronal.surfaces import ConeSurface, FlatSurface


def test_separated_basic_cases():
    x = fourvector(0, 0, 0, 0)
    assert not achronally_separated(x, x)
    assert achronally_separated(x, fourvector(0, 1, 0, 0))
    # lightlike separation counts as separated
    assert achronally_separated(x, fourvector(1, 1, 0, 0))
    assert not achronally_separated(x, fourvector(1, 0.5, 0, 0))


def test_separated_symmetric_antireflexive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(size=(2, 4))
        assert achronally_separated(x, y) == achronally_separated(y, x)
        assert not achronally_separated(x, x)


def test_ball_complement_closed_form():
    M = BallInPlane(0.0, (0, 0, 0), 1.0)
    assert M.complement_member(fourvector(0, 3, 0, 0))
    assert not M.complement_member(fourvector(2, 1.5, 0, 0))
    # witness for the negative case: y = (0, 1, 0, 0) in M is timelike-related
    assert not achronally_separated(fourvector(2, 1.5, 0, 0), fourvector(0, 1, 0, 0))
    # interior of the ball at a different time fails via the vertical pair
    assert not M.complement_member(fourvector(0.5, 0.2, 0, 0))


def test_plane_complement_empty():
    # every off-plane point is timelike-connected to the plane point below it
    M = BallInPlane(0.0, (0, 0, 0), 1e9)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = np.concatenate([rng.uniform(0.1, 3, 1) * rng.choice([-1, 1]),
                            rng.uniform(-5, 5, 3)])
        assert not M.complement_member(x)


def test_determinacy_diamond_formula():
    r = 1.0
    M = BallInPlane(0.0, (0, 0, 0), r)
    assert determinacy_member(M, fourvector(0, 0, 0, 0))
    for t in (0.3, -0.9, 0.999):
        assert determinacy_member(M, fourvector(t, 0, 0, 0))
    assert not determinacy_member(M, fourvector(1.2, 0, 0, 0))
    assert not determinacy_member(M, fourvector(0.5, 0.7, 0, 0))
    assert determinacy_member(M, fourvector(0.5, 0.49, 0, 0))


def test_full_plane_determinacy_everything():
    big = BallInPlane(0.0, (0, 0, 0), 1e12)
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert determinacy_member(big, rng.normal(size=4) * 10)


def test_single_point_determinacy():
    tiny = BallInPlane(0.0, (0, 0, 0), 1e-12)
    assert determinacy_member(tiny, fourvector(0, 0, 0, 0))
    assert not determinacy_member(tiny, fourvector(0.5, 0, 0, 0))
    assert not determinacy_member(tiny, fourvector(0, 0.5, 0, 0))


def test_completion_extensivity():
    M = BallInPlane(0.0, (0.5, 0, 0), 2.0)
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(30, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in dirs:
        p = np.concatenate([[0.0], np.asarray(M.center) + d * rng.uniform(0, 2.0)])
        if M.contains(p):
            assert completion_member(M, p)


def test_completion_matches_diamond():
    M = BallInPlane(0.0, (0, 0, 0), 1.0)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.6, 1.6, size=(300, 4))
    d = np.abs(pts[:, 0]) + np.linalg.norm(pts[:, 1:], axis=1)
    for p in pts[np.abs(d - 1.0) > 1e-3]:
        assert completion_member(M, p) == bool(M.determinacy_member(p))


def test_agreement_report():
    M = BallInPlane(0.0, (0.3, -0.2, 0.1), 2.0)
    rep = completion_equals_determinacy_check(M, n_samples=4000, seed=5,
                                              eps_shell=1e-3)
    assert rep.agreement_ratio == 1.0
    assert rep.counterexamples == []


def test_diamond_is_causally_complete():
    D = Diamond.from_ball(0.0, (0, 0, 0), 1.0)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, size=(400, 4))
    band = np.abs(np.abs(pts[:, 0]) + np.linalg.norm(pts[:, 1:], axis=1) - 1.0) < 5e-3
    for p in pts[~band]:
        assert completion_member(D, p) == bool(D.contains(p))


def test_poincare_equivariance_of_complement():
    M = BallInPlane(0.0, (0.5, 0, 0), 1.0)
    g = PoincareElement(fourvector(0.3, -0.2, 0.7, 0.1),
                        rotation([0, 1, 0], 1.1))
    gM = M.transformed(g)
    rng = np.random.default_rng(7)
    for _ in range(80):
        x = rng.normal(size=4) * 2
        assert bool(M.complement_member(x)) == bool(gM.complement_member(g.act(x)))
    D = Diamond.from_ball(0.2, (0, 1, 0), 1.5)
    from achronal.minkowski import boost_z
    gb = PoincareElement(fourvector(0.1, 0, 0.2, 0), boost_z(0.6))
    gD = D.transformed(gb)
    for _ in range(80):
        x = rng.normal(size=4) * 2
        assert bool(D.complement_member(x)) == bool(gD.complement_member(gb.act(x)))
        assert bool(D.contains(x)) == bool(gD.contains(gb.act(x)))


def test_ball_in_plane_rejects_boost():
    from achronal.minkowski import boost_z
    M = BallInPlane(0.0, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        M.transformed(PoincareElement.from_lorentz(boost_z(0.3)))


def test_fibonacci_directions_unit():
    d = fibonacci_directions(128)
    assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() < 1e-12


def test_graph_patch_determinacy_matches_closed_form():
    r = 2.0
    exact = BallInPlane(0.0, (0, 0, 0), r)
    flat = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), r))
    cone = GraphPatch(ConeSurface(-0.5, (0, 0, 0), 0.5 * r), BallMask((0, 0, 0), r))
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2.4, 2.4, size=(60, 4))
    d = np.abs(pts[:, 0]) + np.linalg.norm(pts[:, 1:], axis=1)
    for p in pts[np.abs(d - r) > 0.05 * r]:
        want = bool(exact.determinacy_member(p))
        assert determinacy_member(flat, p) == want
        assert determinacy_member(cone, p) == want


def test_rcl_well_defined(spec16, fast16_loose):
    r = 3.0
    flat = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), r))
    cone = GraphPatch(ConeSurface(-0.5, (0, 0, 0), 0.5 * r), BallMask((0, 0, 0), r))
    p1, p2 = rcl_well_defined_check(spec16, flat, cone, backend=fast16_loose,
                                    window_half=7)
    norm2 = spec16.packet.norm_squared()
    assert abs(p1.probability - p2.probability) / norm2 <= 2e-2
    # identical patches agree exactly
    q1, q2 = rcl_well_defined_check(spec16, flat, flat, backend=fast16_loose,
                                    window_half=7)
    assert q1.probability == q2.probability


def test_rcl_gamma_sweep_band(spec16, fast16_loose):
    r = 3.0
    norm2 = spec16.packet.norm_squared()
    flat = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), r))
    base = None
    for gamma in (0.3, 0.6, 0.9):
        cone = GraphPatch(ConeSurface(-gamma, (0, 0, 0), gamma * r),
                          BallMask((0, 0, 0), r))
        p1, p2 = rcl_well_defined_check(spec16, flat, cone, backend=fast16_loose,
                                        window_half=7)
        base = p1.probability if base is None else base
        assert abs(p2.probability - base) / norm2 <= 2e-2


def test_rcl_builds_one_backend_when_none_is_given(spec16, monkeypatch):
    import achronal.localization as loc
    builds = []
    real = loc.build_fast

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(loc, "build_fast", counting)
    r = 3.0
    flat = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), r))
    cone = GraphPatch(ConeSurface(-0.5, (0, 0, 0), 0.5 * r), BallMask((0, 0, 0), r))
    rcl_well_defined_check(spec16, flat, cone, window_half=5)
    assert len(builds) == 1


def test_rcl_detects_mismatch(spec16, fast16):
    flat = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), 3.0))
    smaller = GraphPatch(FlatSurface(0.0), BallMask((0, 0, 0), 2.0))
    with pytest.raises(DeterminacyMismatchError):
        rcl_well_defined_check(spec16, flat, smaller, backend=fast16,
                               window_half=7)


def test_separation_margin_broadcast():
    x = np.zeros((5, 4))
    y = np.zeros(4)
    assert separation_margin(x, y).shape == (5,)
