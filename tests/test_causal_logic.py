from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import achronal.causal_logic as cl
from achronal.causal_logic import (BallInPlane, DeterminacyMismatchError,
                                   Diamond, GraphPatch, achronally_separated,
                                   completion_equals_determinacy_check,
                                   completion_member, determinacy_member,
                                   fibonacci_directions, rcl_well_defined_check,
                                   separation_margin)
from achronal.localization import BallMask
from achronal.minkowski import (PoincareElement, boost_z, fourvector, minkowski_square,
                                rotation)
from achronal.surfaces import ConeSurface, FlatSurface

# ---------------------------------------------------------------------------
# per-point reference: the witness search one candidate at a time, in the
# order the batched search must reproduce (scale, direction, offset, branch)
# ---------------------------------------------------------------------------


def _reference_separated(x, y):
    if np.array_equal(x, y):
        return False
    return bool(minkowski_square(x - y) <= 0.0)


def _reference_scan(region, x):
    anchor, scale, seeds = region.witness_frame()
    base_dirs = []
    for v in seeds:
        w = x[1:] - v[1:]
        if np.linalg.norm(w) > 1e-12:
            base_dirs.append(w / np.linalg.norm(w))
    base_dirs += [e for e in np.concatenate([np.eye(3), -np.eye(3)])]
    reach = scale + np.abs(x - anchor).max()
    for s in reach * np.geomspace(0.25, 16.0, 14):
        for uhat in base_dirs:
            zs = x[1:] + s * uhat
            for delta in (1e-3 * scale, 0.1 * scale, 0.5 * scale):
                for z0 in (x[0] - s - delta, x[0] + s + delta):
                    z = np.concatenate([[z0], zs])
                    if region.complement_member(z) and not _reference_separated(z, x):
                        return z
    return None


def _reference_witness(M, x):
    if isinstance(M, Diamond):
        return _reference_scan(M, x)
    u0 = float(x[0] - M.t0)
    u = x[1:] - np.asarray(M.center)
    ru = float(np.linalg.norm(u))
    margin = abs(u0) + ru - M.radius
    if margin <= 0:
        return None
    uhat = u / ru if ru > 1e-300 else np.array([1.0, 0.0, 0.0])
    d = 0.5 * margin
    s = max(M.radius - ru, 0.0) + abs(u0) + M.radius + 1.0
    sign = 1.0 if u0 >= 0 else -1.0
    z0 = u0 - sign * (s + d)
    z = np.concatenate([[M.t0 + z0], np.asarray(M.center) + u + s * uhat])
    if M.complement_member(z) and not _reference_separated(z, x):
        return z
    return _reference_scan(M, x)


def _reference_completion(M, x):
    if bool(M.complement_member(x)):
        return False
    return _reference_witness(M, x) is None


def _reference_check(delta, n_samples, seed, eps_shell=1e-3):
    rng = np.random.default_rng(seed)
    r = delta.radius
    c = np.asarray(delta.center)
    lo = np.array([delta.t0 - 1.5 * r, *(c - 1.5 * r)])
    hi = np.array([delta.t0 + 1.5 * r, *(c + 1.5 * r)])
    pts = rng.uniform(lo, hi, size=(n_samples, 4))
    d = np.abs(pts[:, 0] - delta.t0) + np.linalg.norm(pts[:, 1:] - c, axis=1)
    shell = np.abs(d - r) < eps_shell * r
    agree = 0
    bad = []
    for p in pts[~shell]:
        det = bool(delta.determinacy_member(p))
        comp = _reference_completion(delta, p)
        if det == comp:
            agree += 1
            continue
        w = _reference_witness(delta, p)
        confirmed = (w is None) == comp or w is not None and (
            bool(delta.complement_member(w)) and not _reference_separated(w, p))
        bad.append({"point": p.tolist(), "determinacy": det, "completion": comp,
                    "witness_confirmed": bool(confirmed)})
    n_eff = int((~shell).sum())
    return n_eff, agree / n_eff if n_eff else 1.0, bad, int(shell.sum())


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


def test_separated_on_point_arrays():
    rng = np.random.default_rng(9)
    # eighths keep the differences exact, so lightlike pairs have square 0
    x, y = np.round(8 * rng.normal(size=(2, 200, 4))) / 8
    y[:50] = x[:50] + [1.0, 1.0, 0.0, 0.0]     # lightlike pairs
    y[50:60] = x[50:60]                         # coincident pairs
    sep = achronally_separated(x, y)
    assert isinstance(sep, np.ndarray) and sep.shape == (200,) and sep.dtype == bool
    assert np.array_equal(sep, achronally_separated(y, x))
    assert not achronally_separated(x, x).any()
    assert sep[:50].all() and not sep[50:60].any()
    assert sep.tolist() == [achronally_separated(a, b) for a, b in zip(x, y)]
    # one point against many broadcasts over the leading axes
    assert achronally_separated(x[:, None], x[0]).shape == (200, 1)
    assert isinstance(achronally_separated(x[0], y[0]), bool)


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


# ---------------------------------------------------------------------------
# batched predicates against the per-point reference
# ---------------------------------------------------------------------------


def _sample_points(rng, t0, center, r, n=32):
    """Points around a ball or diamond of radius r, a quarter of them in a
    box tight enough that many fall inside; none within 1e-3 r of the
    boundary |t - t0| + |x - c| = r, where both predicates jump."""
    c4 = np.array([t0, *center])
    half = np.where(np.arange(n) % 4 == 0, 0.75, 1.5)[:, None]
    pts = c4 + r * half * rng.uniform(-1.0, 1.0, (n, 4))
    d = np.abs(pts[:, 0] - t0) + np.linalg.norm(pts[:, 1:] - c4[1:], axis=1)
    return pts[np.abs(d - r) >= 1e-3 * r]


def _assert_matches_reference(M, pts):
    member = completion_member(M, pts)
    assert member.shape == (len(pts),) and member.dtype == bool
    assert member.tolist() == [completion_member(M, p) for p in pts]
    # _reference_completion, with each point's reference witness kept: the
    # batched witnesses are the reference's first valid candidates, bit for
    # bit, also when the candidate blocks hold one or two points each
    open_ = ~M.complement_member(pts)
    witnesses = M.complement_witness(pts[open_])
    with mock.patch.object(cl, "_CANDIDATE_BLOCK", 100):
        assert np.array_equal(M.complement_witness(pts[open_]), witnesses, equal_nan=True)
    want = np.zeros(len(pts), dtype=bool)
    for i, w in zip(np.flatnonzero(open_), witnesses):
        ref = _reference_witness(M, pts[i])
        want[i] = ref is None
        assert ref is None and np.isnan(w).all() or np.array_equal(w, ref)
        if ref is not None:
            assert M.complement_member(w) and not achronally_separated(w, pts[i])
    assert member.tolist() == want.tolist()


@settings(max_examples=30, deadline=None, database=None)
@given(st.floats(-2.0, 2.0), st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       st.floats(0.5, 3.0), st.integers(0, 2**32 - 1))
def test_ball_completion_matches_reference(t0, center, r, seed):
    M = BallInPlane(t0, center, r)
    _assert_matches_reference(M, _sample_points(np.random.default_rng(seed), t0, center, r))


@settings(max_examples=30, deadline=None, database=None)
@given(st.floats(-2.0, 2.0), st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       st.floats(0.5, 3.0), st.floats(0.0, 1.2), st.floats(0.0, 2 * np.pi),
       st.integers(0, 2**32 - 1))
def test_diamond_completion_matches_reference(t0, center, r, rapidity, angle, seed):
    # a boosted and rotated diamond; points are drawn about the rest-frame
    # diamond and carried along, so the boundary filter holds in both frames
    g = PoincareElement(fourvector(0.3, -0.2, 0.1, 0.4),
                        rotation([0.0, 0.6, 0.8], angle) @ boost_z(rapidity))
    M = Diamond.from_ball(t0, center, r).transformed(g)
    pts = g.act(_sample_points(np.random.default_rng(seed), t0, center, r))
    _assert_matches_reference(M, pts)


class _WideDeterminacy(BallInPlane):
    """A ball whose determinacy set is taken 5% too wide, so that the check
    reports counterexamples and re-verifies their witnesses."""

    def determinacy_member(self, x):
        return BallInPlane(self.t0, self.center, 1.05 * self.radius).determinacy_member(x)


@pytest.mark.parametrize("region, seed", [(BallInPlane, 0), (BallInPlane, 5),
                                          (_WideDeterminacy, 0)])
def test_agreement_check_matches_reference(region, seed):
    delta = region(0.0, (0, 0, 0), 3.0)
    rep = completion_equals_determinacy_check(delta, 10000, seed=seed)
    samples, ratio, bad, skipped = _reference_check(delta, 10000, seed)
    assert (rep.samples, rep.agreement_ratio, rep.shell_skipped) == (samples, ratio, skipped)
    assert rep.counterexamples == bad
    assert (ratio < 1.0) == (region is _WideDeterminacy)


def test_completion_of_no_points():
    M = Diamond.from_ball(0.0, (0, 0, 0), 1.0)
    assert completion_member(M, np.empty((0, 4))).shape == (0,)
