import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from achronal import currents
from achronal.currents import (BackendMismatchError, CurrentSpec,
                               FactorizationError, SupportData, build_fast,
                               check_causal_pointwise, check_continuity,
                               covariance_pair, decay_scan, eval_direct)
from achronal.grids import (MomentumGrid, momentum_to_position, position_window_axis,
                            position_window_mask)
from achronal.kernels import (CausalKernel, GFunction, TensorKernel, kernel_K,
                              kernel_Kn, parse_kernel_spec, scalar_block)
from achronal.localization import Region, _window_nodes, probability
from achronal.minkowski import PoincareElement, boost_z, fourvector, rotation
from achronal.surfaces import BumpSurface, FlatSurface
from achronal.wavepacket import WavePacket, energy, make_packet

M = 1.0


def brute_current(packet, kern, x):
    """Row-by-row literal sum with the standalone kernel function."""
    pts = packet.support_points()
    vals = packet.support_values() * packet.grid.weight
    eps = energy(pts, packet.mass)
    a = vals * np.exp(-1j * (eps * x[0] - pts @ x[1:]))
    J = np.zeros(4, dtype=complex)
    for i in range(len(pts)):
        K = kernel_K(pts[i][None, :], pts, kern)
        J += np.conj(a[i]) * (a[:, None] * K).sum(0)
    return (J / (2 * np.pi) ** 3).real


def test_zero_packet_zero_current(grid16, kern_basic):
    pkt = WavePacket(grid16, np.zeros((16,) * 3, dtype=complex), M, 2)
    s = eval_direct(CurrentSpec(kern_basic, pkt), fourvector(0.2, 0.1, 0, 0))
    assert np.abs(s.value).max() == 0.0


def test_direct_matches_bruteforce(spec16):
    x = np.array([0.3, 0.4, -0.2, 0.7])
    ref = brute_current(spec16.packet, spec16.kernel, x)
    got = eval_direct(spec16, x)
    assert np.abs(got.value - ref).max() < 1e-13
    assert got.error_estimate < 1e-12  # imaginary residue at roundoff


def test_direct_reality(spec16):
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-1, 1, 5), rng.uniform(-2, 2, (5, 3))])
    for s in eval_direct(spec16, pts):
        assert s.error_estimate <= 1e-10 * max(np.abs(s.value).max(), 1e-30)


def test_spatial_symmetry_of_symmetric_packet(spec16):
    # real rotationally symmetric packet at x0 = 0: J0 even, J odd under x -> -x
    x = np.array([0.0, 0.7, -0.3, 0.4])
    plus = eval_direct(spec16, x)
    minus = eval_direct(spec16, np.concatenate([[0.0], -x[1:]]))
    assert plus.value[0] == pytest.approx(minus.value[0], rel=1e-12)
    assert np.abs(plus.value[1:] + minus.value[1:]).max() < 1e-14


def test_normalization_sum_over_slice(spec16, fast16):
    grid = spec16.packet.grid
    J = fast16.slice_fields(spec16.packet, 0.0)
    dx = grid.position_spacing
    total = J[0].sum() * dx ** 3
    norm2 = spec16.packet.norm_squared()
    assert abs(total - norm2) / norm2 < 1e-2


def test_fast_matches_direct_causal(spec16, fast16):
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-2, 2, (20, 3))])
    direct = np.array([s.value for s in eval_direct(spec16, pts)])
    fast = fast16.current_at(spec16.packet, pts).T
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() / scale < 1e-6


def test_fast_full_rank_equals_direct(grid16, kern_basic):
    pkt = make_packet(grid16, M, sigma=0.6, core_radius=0.5, support_radius=1.0)
    spec = CurrentSpec(kern_basic, pkt)
    n_sup = int(pkt.support_mask().sum())
    fb = build_fast(spec, rank=n_sup, n_landmarks=n_sup)
    x = np.array([0.4, 0.3, -0.1, 0.2])
    d = eval_direct(spec, x)
    f = fb.current_at(pkt, x).T[0]
    assert np.abs(f - d.value).max() / np.abs(d.value).max() < 1e-12


def test_fast_matches_direct_tensor(tspec16, tfast16):
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-2, 2, (20, 3))])
    direct = np.array([s.value for s in eval_direct(tspec16, pts)])
    fast = tfast16.current_at(tspec16.packet, pts).T
    assert np.abs(fast - direct).max() / np.abs(direct).max() < 1e-6


BACKENDS = pytest.mark.parametrize("spec_name, fast_name", [
    ("spec16", "fast16"),
    ("spec16", "fast16_loose"),
    ("tspec16", "tfast16"),
], ids=["causal_full_rank", "causal_tol_1e-5", "stress_energy"])


@BACKENDS
def test_slice_fields_match_points(request, spec_name, fast_name):
    # two independent contractions of one factorization: a slice bins the
    # pairs of G_R (causal) or transforms the five fields on the window of
    # half n/2 (stress-energy), a point applies the rank-R G to the B field
    # through the phase matrix
    spec = request.getfixturevalue(spec_name)
    fast = request.getfixturevalue(fast_name)
    ax = spec.packet.grid.position_axis()
    J = fast.slice_fields(spec.packet, 0.35)
    pt = np.array([0.35, ax[4], ax[9], ax[11]])
    s = fast.current_at(spec.packet, pt).T[0]
    assert np.abs(J[:, 4, 9, 11] - s).max() < 1e-12 * np.abs(s).max() + 1e-15


def rank_batched_points(backend, packet, x):
    """Current (4, m) at points x of shape (m, 4) by the rank-batched
    contraction: per batch of 24 eigenvectors, the five auxiliary fields
    through one phase-matrix product, then sum_r mu_r Re(conj(F_r) B_r)."""
    sup = backend.support
    X = np.asarray(x, dtype=float).reshape(-1, 4)
    load = sup.values_of(packet) * packet.grid.weight
    Z = np.exp(-1j * (np.outer(sup.eps, X[:, 0]) - sup.points @ X[:, 1:].T))
    wl = (sup.field_weights() * load)[:, None, :]
    J = 0.0
    for r0 in range(0, backend.rank, 24):
        rs = slice(r0, min(r0 + 24, backend.rank))
        B, *partners = (backend.eigvecs[:, rs].T * wl) @ Z
        mu = backend.eigvals[rs][:, None]
        J = J + np.stack([np.sum(mu * (np.conj(F) * B).real, axis=0)
                          for F in partners])
    return J / (2 * np.pi) ** 3


@pytest.fixture(scope="module", params=[pytest.param("fast16_factorized", id="fast16"),
                                        "fast16_loose"])
def point_backend(request):
    """A factorized causal backend, at fast16's tolerance or a looser one,
    and its field scale, |J| at the packet's centre."""
    fb = request.getfixturevalue(request.param)
    packet = request.getfixturevalue("packet16")
    return fb, packet, np.abs(rank_batched_points(fb, packet, np.zeros(4))).max()


# x0 in [-2, 2], |x| <= 8
_POINT = st.tuples(st.floats(-2, 2), st.floats(-8, 8), st.floats(-8, 8),
                   st.floats(-8, 8)).filter(
    lambda p: p[1] ** 2 + p[2] ** 2 + p[3] ** 2 <= 64)


@settings(max_examples=20, deadline=None, database=None)
@given(st.lists(_POINT, min_size=1, max_size=40))
def test_current_at_matches_rank_batched_contraction(point_backend, pts):
    fb, packet, scale = point_backend
    X = np.array(pts)
    ref = rank_batched_points(fb, packet, X)
    assert np.abs(fb.current_at(packet, X) - ref).max() <= 1e-12 * scale
    single = fb.current_at(packet, X[0])
    assert single.shape == (4, 1)
    assert np.abs(single - ref[:, :1]).max() <= 1e-12 * scale


@settings(max_examples=20, deadline=None, database=None)
@given(st.lists(_POINT, min_size=15, max_size=40))
def test_current_at_blocks_agree(point_backend, pts):
    # blocks of 7 points: several of them, the last one partial
    assume(len(pts) % 7)
    fb, packet, scale = point_backend
    X = np.array(pts)
    ref = rank_batched_points(fb, packet, X)
    with mock.patch.object(currents, "_PHASE_ENTRIES", 7 * len(fb.support.eps)):
        got = fb.current_at(packet, X)
    assert np.abs(got - ref).max() <= 1e-12 * scale


def test_current_at_memory_peak(fast16, packet16):
    # the 2,744 window nodes of a bump surface in one call: the in-place
    # blocks keep the traced peak near a few phase blocks (the rank-batched
    # contraction peaked at 12 MB)
    nodes, _, _ = _window_nodes(packet16.grid, 7, 1)
    X = np.column_stack([BumpSurface(0.5).tau(nodes), nodes])
    assert len(X) == 2744
    fast16.current_at(packet16, X[:1])
    tracemalloc.start()
    try:
        fast16.current_at(packet16, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("shape", [(4, 3), (8, 3)])
def test_points_must_be_four_vectors(spec16, fast16, shape):
    x = np.zeros(shape)
    with pytest.raises(ValueError):
        fast16.current_at(spec16.packet, x)
    with pytest.raises(ValueError):
        eval_direct(spec16, x)


@pytest.fixture(scope="module")
def support16(packet16):
    sup = SupportData.from_packets([packet16])
    assert len(sup.eps) == 480
    return sup


def _subset_support(sup, nodes, how):
    """The support nodes `nodes` (indices into sup) as a SupportData: through
    a mask, as _factorize builds its landmark set (sorted indices), or in the
    drawn order."""
    if how == "mask":
        mask = np.zeros(sup.grid.n ** 3, dtype=bool)
        mask[sup.flat_idx[nodes]] = True
        return SupportData.from_mask(sup.grid, sup.mass, mask.reshape((sup.grid.n,) * 3))
    lm = np.sort(nodes) if how == "landmarks" else np.asarray(nodes)
    return SupportData(sup.grid, sup.mass, sup.flat_idx[lm], sup.points[lm], sup.eps[lm])


# |x0| <= 1e3, |x| <= 50
_FAR_POINT = st.tuples(st.floats(-1e3, 1e3), st.floats(-50, 50), st.floats(-50, 50),
                       st.floats(-50, 50)).filter(
    lambda p: p[1] ** 2 + p[2] ** 2 + p[3] ** 2 <= 2500)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(0, 479), min_size=1, max_size=480, unique=True),
       st.sampled_from(["mask", "landmarks", "unsorted"]),
       st.lists(_FAR_POINT, min_size=1, max_size=12))
def test_phase_tables_match_exp(support16, nodes, how, pts):
    sup = _subset_support(support16, nodes, how)
    X = np.array(pts)
    theta = np.outer(sup.eps, X[:, 0]) - sup.points @ X[:, 1:].T
    out = np.empty(theta.shape, dtype=complex)
    got = sup.phases(X, out, np.empty_like(out))
    assert got is out
    tol = 64 * 2.0 ** -52 * (1 + np.abs(theta).max())
    assert np.abs(got - np.exp(-1j * theta)).max() <= tol


def test_eval_direct_memory_is_bounded(spec16, support16):
    # 1,000 points in one call: one G, point blocks of _PHASE_ENTRIES
    # node-point entries (the unblocked field stack peaked at 128 MB)
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.uniform(-1, 1, 1000), rng.uniform(-3, 3, (1000, 3))])
    eval_direct(spec16, X[:1])
    with mock.patch.object(currents, "_gmatrix_block",
                           wraps=currents._gmatrix_block) as gmatrix:
        tracemalloc.start()
        try:
            samples = eval_direct(spec16, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert gmatrix.call_count == 1
    assert peak < 20e6
    got = np.array([s.value for s in samples])
    step = currents._PHASE_ENTRIES // len(support16.eps)
    pick = [0, step - 1, step, step + 1, 500, 999]
    ref = np.array([eval_direct(spec16, X[i]).value for i in pick])
    assert np.abs(got[pick] - ref).max() <= 1e-13 * np.abs(got).max()


def brute_tensor_current(packet, kern, x):
    """The stress-energy double sum with the whole K_n matrix at once."""
    pts = packet.support_points()
    vals = packet.support_values() * packet.grid.weight
    eps = energy(pts, packet.mass)
    a = vals * np.exp(-1j * (eps * x[0] - pts @ x[1:]))
    K = kernel_Kn(pts[:, None, :], pts[None, :, :], kern)
    return (np.einsum("k,kpm,p->m", np.conj(a), K, a) / (2 * np.pi) ** 3).real


def test_eval_direct_tensor_memory_is_bounded(tspec16, support16):
    # 1,000 points in one call: point blocks and K_n row blocks of at most
    # _PHASE_ENTRIES entries (the unblocked sum peaked at 41.9 MB)
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.uniform(-1, 1, 1000), rng.uniform(-3, 3, (1000, 3))])
    eval_direct(tspec16, X[:1])
    tracemalloc.start()
    try:
        samples = eval_direct(tspec16, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    got = np.array([s.value for s in samples])
    step = currents._PHASE_ENTRIES // len(support16.eps)
    pick = [0, step - 1, step, step + 1, 500, 999]
    ref = np.array([brute_tensor_current(tspec16.packet, tspec16.kernel, X[i])
                    for i in pick])
    assert np.abs(got[pick] - ref).max() <= 1e-13 * np.abs(got).max()


@pytest.mark.parametrize("refine", [1, 2])
@BACKENDS
def test_slice_components_are_a_prefix(request, spec_name, fast_name, refine):
    # a slice asked for fewer components transforms fewer fields but
    # returns the same leading components
    spec = request.getfixturevalue(spec_name)
    fast = request.getfixturevalue(fast_name)
    full = fast.slice_fields(spec.packet, 0.35, refine=refine)
    scale = np.abs(full).max()
    for k in range(1, 5):
        part = fast.slice_fields(spec.packet, 0.35, refine=refine, components=k)
        assert part.shape == full[:k].shape
        assert np.abs(part - full[:k]).max() <= 1e-14 * scale


@pytest.mark.parametrize("components", [0, 5])
def test_slice_components_out_of_range(spec16, fast16, components):
    with pytest.raises(ValueError):
        fast16.slice_fields(spec16.packet, 0.0, components=components)


# small packets, centred and off-centre, so that the support's bounding box
# sits at different grid indices
_WINDOW_CENTERS = [(0.0, 0.0, 0.0), (0.9, -0.6, 1.2)]


@pytest.fixture(scope="module")
def window_backends(grid16, kern_basic, kern_tensor, factorize):
    # the causal backends are factorized, so that the rank contraction is a
    # reference for their slices
    out = {}
    for c, center in enumerate(_WINDOW_CENTERS):
        pkt = make_packet(grid16, M, sigma=0.6, center=center, core_radius=0.5,
                          support_radius=1.0, margin=1)
        out["causal", c] = (pkt, factorize(CurrentSpec(kern_basic, pkt), 1e-8))
        out["tensor", c] = (pkt, build_fast(CurrentSpec(kern_tensor, pkt)))
    return out


@settings(max_examples=16, deadline=None, database=None)
@given(st.sampled_from(["causal", "tensor"]), st.integers(0, len(_WINDOW_CENTERS) - 1),
       st.integers(1, 2), st.integers(1, 4), st.floats(-3.0, 3.0), st.integers(1, 8))
def test_window_slice_is_the_cut_full_slice(window_backends, kind, center, refine,
                                            components, x0, half):
    # the window slice against the whole-grid slice, cut to the window that
    # position_window_mask selects: the window transform at half `half` and
    # at n/2 for the stress-energy kernel, the same pair bins on two sets of
    # nodes for the causal one (whose independent reference is the rank
    # contraction, test_whole_grid_slice_is_the_rank_contraction)
    pkt, fb = window_backends[kind, center]
    full = fb.slice_fields(pkt, x0, refine=refine, components=components)
    win = fb.slice_fields(pkt, x0, refine=refine, components=components, window_half=half)
    w = 2 * half * refine
    assert win.shape == (components, w, w, w)
    cut = full.reshape(components, -1)[:, position_window_mask(pkt.grid, half, refine).ravel()]
    assert np.abs(win.reshape(components, -1) - cut).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("components", [1, 2, 3, 4])
@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("backend, window_half", [
    pytest.param(name, half, id=name if half is None else f"{name}-window_{half}")
    for half in (None, 5) for name in ("centred", "off_centre", "fast16_loose")])
def test_whole_grid_slice_is_the_rank_contraction(request, window_backends, backend,
                                                  window_half, refine, components):
    # a causal slice, of the whole grid (window_half None) or of a window,
    # bins the pairs of support nodes by lattice difference; the reference
    # transforms every eigenvector's fields at 200 random nodes of the slice
    # and the |J0| peak
    if backend == "fast16_loose":
        pkt, fb = request.getfixturevalue("packet16"), request.getfixturevalue(backend)
    else:
        pkt, fb = window_backends["causal", ["centred", "off_centre"].index(backend)]
    rng = np.random.default_rng([refine, components, len(backend)])
    x0 = rng.uniform(-3.0, 3.0)
    J = fb.slice_fields(pkt, x0, refine=refine, components=components,
                        window_half=window_half)
    ax = position_window_axis(pkt.grid, window_half or pkt.grid.n // 2, refine)
    m = len(ax)
    assert J.shape == (components, m, m, m) and J.dtype == np.float64
    assert J.flags.c_contiguous
    peak = np.unravel_index(np.argmax(np.abs(J[0])), J[0].shape)
    nodes = np.vstack([rng.integers(0, m, size=(200, 3)), peak])
    X = np.column_stack([np.full(len(nodes), x0), ax[nodes]])
    ref = rank_batched_points(fb, pkt, X)[:components]
    got = J[(slice(None),) + tuple(nodes.T)]
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(J).max()


@pytest.mark.parametrize("refine", [1, 2])
def test_box_transform_is_the_whole_cube_transform(window_backends, refine):
    # the off-centre packet's support box starts at lo > 0; the box holds the
    # packet's amplitudes and random values, the whole cube the same values
    # at the box's grid indices and zero elsewhere
    pkt, fb = window_backends["causal", 1]
    lo, s, _ = fb.support.box()
    assert lo > 0 and lo + s < pkt.grid.n
    inside = (slice(None),) + (slice(lo, lo + s),) * 3
    rng = np.random.default_rng(7)
    box = np.stack([pkt.amplitudes[inside[1:]],
                    rng.standard_normal((s,) * 3) + 1j * rng.standard_normal((s,) * 3)])
    whole = np.zeros((2,) + (pkt.grid.n,) * 3, dtype=complex)
    whole[inside] = box
    half = pkt.grid.n // 2
    assert np.array_equal(momentum_to_position(box, pkt.grid, refine, lo, half),
                          momentum_to_position(whole, pkt.grid, refine, 0, half))


def test_box_past_the_grid_edge(grid16):
    with pytest.raises(ValueError):
        momentum_to_position(np.zeros((4, 4, 4)), grid16, 1, 13, 8)


def test_window_wider_than_the_grid(spec16, fast16, tfast16):
    # windows wider than the grid, empty or negative, and refinements below 1,
    # on both slice routes and on a flux
    for fb in (fast16, tfast16):
        for kwargs in ({"window_half": 9}, {"window_half": 0}, {"window_half": -2},
                       {"refine": 0}, {"refine": -1}, {"refine": 0, "window_half": 4}):
            with pytest.raises(ValueError):
                fb.slice_fields(spec16.packet, 0.0, **kwargs)
    for kwargs in ({"window_half": 0}, {"window_half": 9}, {"refine": 0}):
        with pytest.raises(ValueError):
            probability(spec16, Region(FlatSurface(0.0)), backend=fast16, **kwargs)


@pytest.mark.parametrize("backend", ["fast16", "tfast16"])
def test_slice_refine_matches_direct(request, backend):
    # the causal slice bins node pairs; the stress-energy one is the window
    # transform at half n/2
    spec16 = request.getfixturevalue("tspec16" if backend == "tfast16" else "spec16")
    grid = spec16.packet.grid
    J = request.getfixturevalue(backend).slice_fields(spec16.packet, 0.1, refine=2)
    ax = grid.position_axis(refine=2)
    pt = np.array([0.1, ax[10], ax[17], ax[21]])
    d = eval_direct(spec16, pt)
    assert np.abs(J[:, 10, 17, 21] - d.value).max() / np.abs(d.value).max() < 1e-6


# a budget below one 480-entry row, and one whose 7-row blocks do not divide
# the 480 rows (and whose 22-row blocks against 150 columns do not either)
_SMALL_BUDGETS = [100, 7 * 480 + 5]


@pytest.mark.parametrize("entries", _SMALL_BUDGETS)
def test_blocked_gmatrix_product_is_the_dense_product(spec16, support16, monkeypatch,
                                                      entries):
    kern = spec16.kernel
    rng = np.random.default_rng(6)
    sub = _subset_support(support16, rng.choice(480, size=150, replace=False), "landmarks")
    monkeypatch.setattr(currents, "_G_ENTRIES", entries)
    for cols in (None, sub):
        nodes = support16 if cols is None else sub
        dense = scalar_block(kern, support16.points, support16.eps, nodes.points, nodes.eps)
        B = rng.standard_normal((len(nodes.eps), 5))
        with mock.patch.object(currents, "_gmatrix_block",
                               wraps=currents._gmatrix_block) as gmatrix:
            got = currents._apply_gmatrix(kern, support16, B, cols=cols)
        step = max(1, entries // len(nodes.eps))
        assert gmatrix.call_count == -(-480 // step)
        ref = dense @ B
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("entries", _SMALL_BUDGETS)
def test_nystrom_build_in_small_gmatrix_blocks(spec16, monkeypatch, entries):
    # 400 of the 480 nodes: the extension and the whole-support product run
    # in blocks
    ref = build_fast(spec16, tol=1e-6, n_landmarks=400, seed=1)
    monkeypatch.setattr(currents, "_G_ENTRIES", entries)
    tracemalloc.start()
    try:
        fb = build_fast(spec16, tol=1e-6, n_landmarks=400, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fb.rank == ref.rank
    assert np.abs(fb.eigvals - ref.eigvals).max() <= 1e-10 * abs(ref.eigvals[0])
    # the unblocked 400^2 landmark block and its eigh peak at 9.3 MB; one
    # 480^2 G block, as at the default budget, takes the build to 11.6 MB
    assert peak < 10e6


def test_factorization_error_for_oscillatory(grid16, packet16):
    kern = CausalKernel(GFunction.oscillatory(50.0, M), M)
    with pytest.raises(FactorizationError):
        build_fast(CurrentSpec(kern, packet16), tol=1e-8, n_landmarks=400)


@pytest.fixture(scope="module")
def gram16_spectrum(spec16):
    """Eigenvalues of the full 480-node g-matrix, largest first."""
    sup = SupportData.from_packets([spec16.packet])
    G = scalar_block(spec16.kernel, sup.points, sup.eps, sup.points, sup.eps)
    return np.linalg.eigvalsh(G)[::-1]


def _dropped_weight(spectrum, backend):
    return spectrum[backend.rank:].sum() / spectrum[0]


# the Ky Fan bound is exact; the slack only absorbs roundoff in both sums
_ROUNDOFF = 1e-9


@pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-4, 1e-3])
def test_trace_tail_covers_dropped_weight(spec16, gram16_spectrum, tol):
    # 400 of the 480 nodes: the Nystrom route, whose refined set holds only
    # part of the spectrum; the trace tail still covers all of the rest
    fb = build_fast(spec16, tol=tol, n_landmarks=400, seed=1)
    assert fb.meta["landmark_attempts"] == [400]
    assert fb.meta["tail_certified"]
    assert fb.spectral_tail >= _dropped_weight(gram16_spectrum, fb) * (1 - _ROUNDOFF)


@settings(max_examples=10, deadline=None, database=None)
@given(st.integers(400, 479), st.floats(np.log(1e-8), np.log(1e-3)),
       st.integers(0, 3))
def test_trace_tail_covers_any_cap_and_tolerance(spec16, gram16_spectrum, cap,
                                                 log_tol, seed):
    fb = build_fast(spec16, tol=float(np.exp(log_tol)), n_landmarks=cap, seed=seed)
    assert fb.meta["n_landmarks"] == cap
    assert fb.spectral_tail >= _dropped_weight(gram16_spectrum, fb) * (1 - _ROUNDOFF)


def test_trace_tail_of_full_support_is_dropped_weight(fast16_factorized, gram16_spectrum):
    # the whole support is the landmark set: the tail is the exact dropped
    # weight, and the first count is the only one
    assert fast16_factorized.meta["landmark_attempts"] == [480]
    assert fast16_factorized.spectral_tail == pytest.approx(
        _dropped_weight(gram16_spectrum, fast16_factorized), rel=1e-6)


@pytest.mark.parametrize("n_landmarks", [400, 480], ids=["nystrom", "full"])
def test_indefinite_profile_leaves_tail_uncertified(packet16, n_landmarks):
    # the oscillatory profile's g-matrix has large negative eigenvalues, so
    # the trace no longer bounds the dropped weight
    kern = parse_kernel_spec("oscillatory:omega=50", M)
    fb = build_fast(CurrentSpec(kern, packet16), rank=20, n_landmarks=n_landmarks)
    assert fb.rank == 20
    assert fb.eigvals.min() < 0
    assert fb.meta["tail_certified"] is False
    assert np.isnan(fb.spectral_tail)


def test_landmark_count_grows_to_cap(spec16, monkeypatch):
    fixed = build_fast(spec16, tol=1e-6, n_landmarks=400, seed=0)
    monkeypatch.setattr("achronal.currents._LANDMARK_START", 64)
    fb = build_fast(spec16, tol=1e-6, n_landmarks=400, seed=0)
    attempts = fb.meta["landmark_attempts"]
    assert attempts[0] == 64 and len(attempts) > 1
    assert all(a < b for a, b in zip(attempts, attempts[1:]))
    assert max(attempts) <= 400
    assert fb.meta["n_landmarks"] == attempts[-1]
    assert fb.rank == fixed.rank
    assert fb.meta["tail_certified"]


def test_landmark_growth_stops_at_cap(spec16, monkeypatch):
    # a build that resolves the spectrum early stops growing; one that cannot
    # resolve it within the cap raises there
    monkeypatch.setattr("achronal.currents._LANDMARK_START", 64)
    fb = build_fast(spec16, tol=1e-3, n_landmarks=400, seed=0)
    assert fb.meta["n_landmarks"] < 400
    kern = CausalKernel(GFunction.oscillatory(50.0, M), M)
    with pytest.raises(FactorizationError):
        build_fast(CurrentSpec(kern, spec16.packet), tol=1e-8, n_landmarks=400)


@pytest.mark.parametrize("cap", [300, 320])
def test_capped_build_keeps_the_whole_support_rank(spec16, gram16_spectrum, cap):
    # a cap of 300 or 320 of the 480 nodes is well under twice the rank; the
    # build still keeps every eigenpair above tol, with orthonormal vectors
    full_rank = int((gram16_spectrum / gram16_spectrum[0] > 1e-6).sum())
    assert full_rank == 184
    for seed in range(10):
        fb = build_fast(spec16, tol=1e-6, n_landmarks=cap, seed=seed)
        assert fb.meta["landmark_attempts"] == [cap]
        assert fb.rank == full_rank
        assert np.abs(fb.eigvecs.T @ fb.eigvecs - np.eye(fb.rank)).max() <= 1e-10


@pytest.mark.parametrize("mass", [0.25, 0.5])
def test_whole_support_build_keeps_every_pair(grid16, mass, monkeypatch):
    # at light mass every eigenvalue of the 480-node g-matrix lies above
    # 1e-8 of the top; landmarks that are the whole support hold them all
    # exactly, so the build keeps them instead of raising.  A first landmark
    # count below the support, as for supports above 512 nodes, puts the
    # build on the factorized route, which grows its landmarks to the support
    monkeypatch.setattr(currents, "_LANDMARK_START", 479)
    packet = make_packet(grid16, mass, "mollified_gaussian",
                         sigma=1.0, core_radius=0.9, support_radius=1.8)
    kern = CausalKernel(GFunction.basic(1.5, mass), mass)
    fb = build_fast(CurrentSpec(kern, packet), tol=1e-8, n_landmarks=480)
    assert fb.meta["landmark_attempts"] == [479, 480]
    assert fb.rank == len(fb.support.eps) == 480
    assert fb.meta["tail_certified"]
    assert fb.spectral_tail < 1e-12


def test_exact_build_keeps_the_gmatrix(spec16, support16):
    # the 480-node support is its own landmark set: the backend holds G
    # itself, computes no eigenpair and certifies G by one Cholesky factor
    dense = scalar_block(spec16.kernel, support16.points, support16.eps,
                         support16.points, support16.eps)
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError):
        fb = build_fast(spec16, tol=1e-8, n_landmarks=480, seed=1)
    assert np.array_equal(fb.gmatrix, dense)
    assert fb.eigvals is None and fb.eigvecs is None
    assert fb.rank == 480 and fb.spectral_tail == 0.0
    assert fb.meta["route"] == "exact" and fb.meta["tail_certified"]


def test_exact_build_of_indefinite_profile_is_uncertified(packet16):
    # the oscillatory profile's G has large negative eigenvalues: its
    # Cholesky factorization fails, and the tail is nan
    kern = parse_kernel_spec("oscillatory:omega=50", M)
    fb = build_fast(CurrentSpec(kern, packet16))
    assert fb.meta["route"] == "exact"
    assert fb.meta["tail_certified"] is False
    assert np.isnan(fb.spectral_tail)


@pytest.mark.parametrize("kwargs, start", [
    ({"rank": 300}, 512), ({"n_landmarks": 479}, 512), ({}, 479),
], ids=["rank", "landmarks_below_support", "support_above_start"])
def test_factorized_build_route(spec16, monkeypatch, kwargs, start):
    # G is kept exact only when the first landmark attempt would be the
    # whole support and no rank is asked for
    monkeypatch.setattr(currents, "_LANDMARK_START", start)
    fb = build_fast(spec16, tol=1e-8, seed=1, **kwargs)
    assert fb.meta["route"] == "factorized"
    assert fb.gmatrix is None and fb.rank == len(fb.eigvals)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("x0", [0.0, 0.4])
def test_exact_whole_torus_slice_is_the_norm(spec16, fast16, x0, refine):
    # with the exact G the J0 of the whole position torus sums to the
    # squared norm, at any time and refinement
    packet = spec16.packet
    J = fast16.slice_fields(packet, x0, refine=refine, components=1)
    total = J[0].sum() * (packet.grid.position_spacing / refine) ** 3
    assert abs(total - packet.norm_squared()) <= 1e-13 * packet.norm_squared()


def test_exact_current_at_matches_direct(spec16, fast16):
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(-2, 2, 30), rng.uniform(-5, 5, (30, 3))])
    direct = np.array([s.value for s in eval_direct(spec16, pts)]).T
    got = fast16.current_at(spec16.packet, pts)
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


@pytest.mark.parametrize("refine", [1, 2])
def test_exact_slice_matches_direct_at_grid_nodes(spec16, fast16, refine):
    # 30 random nodes of the whole-grid slice and its |J0| peak
    x0 = -1.3
    J = fast16.slice_fields(spec16.packet, x0, refine=refine)
    ax = spec16.packet.grid.position_axis(refine)
    peak = np.unravel_index(np.argmax(np.abs(J[0])), J[0].shape)
    nodes = np.vstack([np.random.default_rng(refine).integers(0, len(ax), (30, 3)), peak])
    X = np.column_stack([np.full(len(nodes), x0), ax[nodes]])
    direct = np.array([s.value for s in eval_direct(spec16, X)]).T
    got = J[(slice(None),) + tuple(nodes.T)]
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(J).max()


def test_backend_rejects_foreign_packet(fast16, grid16):
    # support reaches outside the factorized node ball
    other = make_packet(grid16, M, sigma=0.5, center=(0, 0, 1.4),
                        core_radius=0.4, support_radius=0.8, margin=1)
    with pytest.raises(BackendMismatchError):
        fast16.current_at(other, fourvector(0, 0, 0, 0))


def test_continuity_fourth_order(spec16):
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(4):
        x = np.concatenate([rng.uniform(-0.3, 0.3, 1), rng.uniform(-1.0, 1.0, 3)])
        r1 = check_continuity(spec16, x, 0.2)
        r2 = check_continuity(spec16, x, 0.1)
        ratios.append(r1["residual"] / r2["residual"])
    ratios = np.array(ratios)
    assert np.all((ratios > 16 / 1.3) & (ratios < 16 * 1.3))


def test_continuity_tensor_and_printed_variant(tspec16, packet16):
    x = np.array([0.1, 0.2, 0.1, -0.1])
    r1 = check_continuity(tspec16, x, 0.2)
    r2 = check_continuity(tspec16, x, 0.1)
    assert 16 / 1.3 < r1["residual"] / r2["residual"] < 16 * 1.3
    printed = CurrentSpec(TensorKernel([1, 0, 0, 0], M, "as_printed"), packet16)
    bad = check_continuity(printed, x, 0.2)
    assert bad["residual"] > 0.1  # conservation genuinely fails


def test_zero_current_continuity(grid16, kern_basic):
    pkt = WavePacket(grid16, np.zeros((16,) * 3, dtype=complex), M, 2)
    r = check_continuity(CurrentSpec(kern_basic, pkt), np.zeros(4), 0.2)
    assert r["residual"] == 0.0


def test_causal_margin_on_slices(spec16, fast16):
    grid = spec16.packet.grid
    for x0 in (0.0, 1.0):
        J = fast16.slice_fields(spec16.packet, x0)
        margin = J[0] - np.linalg.norm(J[1:], axis=0)
        assert margin.min() >= -1e-9 * J[0].max()


def test_causal_margin_zero_current():
    from achronal.currents import CurrentSample
    s = CurrentSample(np.zeros(4), np.zeros(4), 0.0)
    assert check_causal_pointwise(s) == 0.0


def test_noncausal_profile_violates_margin(grid16):
    # eigenvector construction: a state built from the most negative Gram
    # direction makes J0(0, 0) negative
    kern = CausalKernel(GFunction.oscillatory(50.0, M), M)
    base = make_packet(grid16, M, sigma=1.0, core_radius=0.9, support_radius=1.8)
    from achronal.kernels import gram_matrix
    pts = base.support_points()
    G = gram_matrix(pts, kern)
    w, V = np.linalg.eigh(G)
    assert w[0] < -0.1
    amp = np.zeros((16,) * 3, dtype=complex)
    amp[base.support_mask()] = V[:, 0]
    pkt = WavePacket(grid16, amp, M, base.margin, {"kind": "gram_eigvec"})
    s = eval_direct(CurrentSpec(kern, pkt), np.zeros(4))
    assert check_causal_pointwise(s) < 0.0
    assert s.value[0] < 0.0


def test_decay_scan_exponent(spec16):
    radii = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    out = decay_scan(spec16, 0.0, radii)
    assert out["exponent"] >= 3.0
    # scaling the packet shifts log J0 but not the fitted slope
    scaled = spec16.with_packet(
        spec16.packet.with_amplitudes(2.0 * spec16.packet.amplitudes))
    out2 = decay_scan(scaled, 0.0, radii)
    assert out2["exponent"] == pytest.approx(out["exponent"], rel=1e-10)


def test_decay_scan_mass_stability(grid16):
    kern2 = CausalKernel(GFunction.basic(1.5, 2.0), 2.0)
    pkt2 = make_packet(grid16, 2.0, sigma=1.0, core_radius=0.9, support_radius=1.8)
    out = decay_scan(CurrentSpec(kern2, pkt2), 0.0, np.array([2.0, 3.0, 4.0, 5.0]))
    assert out["exponent"] >= 3.0


def test_decay_scan_validates_radii(spec16):
    with pytest.raises(ValueError):
        decay_scan(spec16, 2.0, np.array([1.0, 3.0]))


def test_current_covariance_translation(spec16):
    g = PoincareElement.translation(fourvector(0.4, 0.2, -0.1, 0.3))
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 4), rng.uniform(-1, 1, (4, 3))])
    lhs, rhs = covariance_pair(spec16, g, pts)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12


def test_current_covariance_boost(spec16):
    g = PoincareElement.from_lorentz(boost_z(0.25))
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 4), rng.uniform(-1, 1, (4, 3))])
    lhs, rhs = covariance_pair(spec16, g, pts)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 3e-2


def test_tensor_covariance_with_index_transform(tspec16):
    g = PoincareElement.from_lorentz(boost_z(0.25) @ rotation([0, 1, 0], 0.4))
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 3), rng.uniform(-1, 1, (3, 3))])
    lhs, rhs = covariance_pair(tspec16, g, pts)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 3e-2


def test_tensor_covariance_rotation_exact(tspec16):
    g = PoincareElement.from_lorentz(rotation([0, 0, 1], np.pi / 2))
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, 3), rng.uniform(-1, 1, (3, 3))])
    lhs, rhs = covariance_pair(tspec16, g, pts)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12
