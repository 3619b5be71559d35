"""The benchmark's per-layer tracer wraps names in the package by string.

Renaming or removing one of those names, or a value an observer reads,
breaks only a traced benchmark run.  So one test resolves every entry of
``perfbench/tracing.py`` ``TARGETS`` and the others run traced builds,
direct sums, fluxes, slices and image-surface inversions.  The one
momentum-to-position transform, which only stress-energy slices take, is the
tracer's ``grids.m2p`` target; a causal slice, of the whole grid or of a
window, bins node pairs (``currents._bin_pairs``) and makes no call of it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import achronal.currents as currents
import achronal.localization as loc
from achronal.minkowski import PoincareElement, boost_z
from achronal.surfaces import BumpSurface, FlatSurface, TiltedSurface

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    missing = []
    for owner_path, attr, *_ in tracing.TARGETS:
        module_name, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            # the tracer replaces the class attribute itself, so it must be
            # defined on the class, not inherited
            found = attr in vars(getattr(owner, cls, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"tracer targets that no longer resolve: {missing}"


def test_traced_builds_and_direct_sums_feed_their_observers(spec16, tspec16,
                                                            fast16_factorized):
    # the build observer reads FastBackend.rank, .support.eps and .meta, the
    # direct-sum observer spec.packet.amplitudes; `rank` puts the build on
    # the factorized route, with every support node a landmark
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fast = currents.build_fast(spec16, tol=1e-8, n_landmarks=480, seed=1,
                                   rank=fast16_factorized.rank)
        currents.build_fast(tspec16)
        currents.eval_direct(spec16, np.zeros((3, 4)))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["currents.build_fast_calls"] == 2
    assert metrics["currents.support_nodes"] == metrics["currents.landmarks"] == 480
    assert metrics["currents.rank"] == fast.rank > 0
    assert metrics["currents.eig_residual_max"] == fast.meta["eig_residual_max"]
    assert metrics["currents.eval_direct_points"] == 3
    assert metrics["currents.eval_direct_node_points"] == 3 * 480


def test_traced_exact_build_counts_no_landmarks(spec16):
    # the CLI test config's build keeps the exact G: one g-matrix of the
    # whole support, no landmarks and no eigenpairs, and the support as rank
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fast = currents.build_fast(spec16, tol=1e-8, n_landmarks=480, seed=1)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert fast.meta["route"] == "exact"
    assert metrics["currents.landmarks"] == metrics["currents.eig_residual_max"] == 0
    assert metrics["currents.rank"] == metrics["currents.support_nodes"] == 480
    assert metrics["kernels.scalar_entries"] == 480 ** 2


def test_traced_nystrom_build_counts_its_gmatrix_entries(spec16):
    # one attempt at 400 of the 480 nodes: the landmark block, the Nystrom
    # extension against the landmarks, one product with the whole support
    # (the two _apply_gmatrix calls) and the trace's g(m^2)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fast = currents.build_fast(spec16, tol=1e-6, n_landmarks=400, seed=1)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    n, n_lm = 480, 400
    assert fast.meta["landmark_attempts"] == [n_lm]
    assert metrics["currents.apply_gmatrix_calls"] == 2
    assert metrics["kernels.scalar_entries"] == n_lm ** 2 + n * n_lm + n ** 2 + 1


def test_tracer_counts_time_slices_of_flat_fluxes_only(spec16, fast16):
    # the tracer reads the "slices" entry of the flux quadrature's meta: one
    # per flat flux, none for a curved flux evaluated at its nodes
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for surface in (FlatSurface(0.0), TiltedSurface((0.0, 0.0, 0.4))):
            loc.probability(spec16, loc.Region(surface), backend=fast16, window_half=4)
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer)["localization.time_slices"] == 1


def test_partition_takes_one_time_slice(spec16, fast16):
    # both halves of the flat surface share one evaluation of the current
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loc.additivity_check(spec16, FlatSurface(0.0),
                             [loc.HalfSpaceMask((1.0, 0.0, 0.0)),
                              loc.HalfSpaceMask((-1.0, 0.0, 0.0))],
                             backend=fast16, window_half=4)
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer)["localization.time_slices"] == 1


def test_flat_causal_flux_bins_only_j0(spec16, fast16):
    # a flat flux reads J0 alone, and a causal slice bins node pairs: the
    # bins hold one component, and no momentum-to-position transform runs
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    bins = []
    tracer.wrap(currents, "_bin_pairs", "pairs",
                lambda tr, args, kwargs, out: bins.append(args[5].shape))
    tracer.install()
    try:
        loc.probability(spec16, loc.Region(FlatSurface(0.0)), backend=fast16, window_half=4)
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer)["grids.m2p_calls"] == 0
    assert bins and all(shape[0] == 1 for shape in bins)


def _check_refined_pair_blocks(spec16, fast16, monkeypatch, half):
    # a causal slice bins pairs of support nodes and transforms no
    # eigenvector field: at refine 2 it makes no call of the
    # momentum-to-position transform, and its blocks of the upper rows of G_R
    # are those of refine 1, of at most _G_ENTRIES entries, at the default
    # budget and at one that splits the 480 rows into blocks of 7
    n = len(fast16.support.eps)
    ref = fast16.slice_fields(spec16.packet, 0.0, refine=2, window_half=half)
    for entries in (currents._G_ENTRIES, 7 * n + 5):
        monkeypatch.setattr(currents, "_G_ENTRIES", entries)
        sizes = {}
        for refine in (1, 2):
            tracer = _load_tracing().Tracer()
            transforms, blocks = [], []
            tracer.wrap(currents, "momentum_to_position", "grids.m2p",
                        lambda tr, args, kwargs, out: transforms.append(out.shape))
            tracer.wrap(currents, "_upper_row_blocks", "pairs",
                        lambda tr, args, kwargs, out: blocks.extend(out))
            try:
                J = fast16.slice_fields(spec16.packet, 0.0, refine=refine, window_half=half)
            finally:
                tracer.uninstall()
            assert not transforms
            assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
            assert blocks[-1].stop == n
            sizes[refine] = [(b.stop - b.start) * (n - b.start) for b in blocks]
        assert sizes[2] == sizes[1] and max(sizes[2]) <= entries
        assert np.abs(J - ref).max() <= 1e-14 * np.abs(ref).max()


def test_refined_slice_bins_pair_blocks_of_the_entry_budget(spec16, fast16, monkeypatch):
    # the whole grid
    _check_refined_pair_blocks(spec16, fast16, monkeypatch, None)


def test_refined_window_batches_hold_no_more_entries(spec16, fast16, monkeypatch):
    # a refine-2 window holds 8 times the nodes of a refine-1 window, but it
    # bins the same pair blocks, so it holds no more entries at a time
    _check_refined_pair_blocks(spec16, fast16, monkeypatch, 4)


def test_tracer_sees_the_image_surface_inversion(spec16):
    # the image side of a covariance check finds its mask's source points and
    # surface through SurfaceTransformResult.s_inverse, whose observer counts
    # the points of each call
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loc.covariance_check(spec16, PoincareElement.from_lorentz(boost_z(0.25)),
                             loc.Region(BumpSurface(0.5), loc.BallMask((0, 0, 0), 4.0)),
                             window_half=7)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["surfaces.s_inverse_calls"] > 0
    assert metrics["surfaces.s_inverse_points"] > 0


def test_tracer_sees_the_causal_logic_searches():
    # the tracer wraps completion_member and _scan_witness by name; a renamed
    # target or a call that bypasses the module global records no span
    import achronal.causal_logic as cl
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = cl.completion_equals_determinacy_check(
            cl.BallInPlane(0.0, (0.0, 0.0, 0.0), 3.0), n_samples=500, seed=5)
        diamond = cl.Diamond.from_ball(0.0, (0.0, 0.0, 0.0), 2.0)
        points = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 4))
        mismatches = sum(cl.completion_member(diamond, p) != bool(diamond.contains(p))
                         for p in points)
    finally:
        tracer.uninstall()
    assert report.agreement_ratio == 1.0 and mismatches == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["causal_logic.scan_witness_calls"] >= 1
    assert metrics["causal_logic.completion_member_calls"] >= 1
