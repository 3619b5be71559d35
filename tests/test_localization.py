import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from achronal.currents import BackendMismatchError, CurrentSpec, build_fast, eval_direct
from achronal.grids import MomentumGrid, position_window_mask
from achronal.kernels import TensorKernel
from achronal.localization import (BallMask, BoxMask, ComplementMask, FullMask,
                                   HalfSpaceMask, ImageMask, IntersectionMask,
                                   MaskOverlapError, Region, ShadowMask, UnionMask,
                                   UnsupportedGeometryError, additivity_check,
                                   causal_monotonicity_check, covariance_check,
                                   Mask, flux_invariance_report, matrix_element,
                                   probability, probability_transformed)
from achronal.minkowski import PoincareElement, boost_axis, boost_z, fourvector, rotation
from achronal.surfaces import (AchronalSurface, BumpSurface, ConeSurface, Described,
                               FlatSurface, SampledSurface, SurfaceTransformResult,
                               TiltedSurface)
from achronal.wavepacket import make_packet

M = 1.0
WPAR = {"window_half": 7}


def octant_masks():
    out = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                out.append(IntersectionMask((HalfSpaceMask((sx, 0, 0)),
                                             HalfSpaceMask((0, sy, 0)),
                                             HalfSpaceMask((0, 0, sz)))))
    return out


def test_empty_mask_zero(spec16, fast16):
    region = Region(FlatSurface(0.0), BallMask((20.0, 0, 0), 0.1))
    res = probability(spec16, region, backend=fast16, **WPAR)
    assert res.probability == 0.0


def test_full_flat_surface_norm(spec16, fast16):
    res = probability(spec16, Region(FlatSurface(0.0)), backend=fast16, **WPAR)
    norm2 = spec16.packet.norm_squared()
    assert abs(res.probability - norm2) / norm2 < 1e-2
    assert -1e-9 <= res.probability <= norm2 * (1 + 1e-2)


def test_half_space_symmetry(spec16, fast16):
    res = probability(spec16, Region(FlatSurface(0.0), HalfSpaceMask((0, 0, 1))),
                      backend=fast16, **WPAR)
    norm2 = spec16.packet.norm_squared()
    assert abs(res.probability - norm2 / 2) / (norm2 / 2) < 1e-2


def test_mask_monotonicity(spec16, fast16):
    small = probability(spec16, Region(FlatSurface(0.0), BallMask((0, 0, 0), 2.0)),
                        backend=fast16, **WPAR)
    large = probability(spec16, Region(FlatSurface(0.0), BallMask((0, 0, 0), 4.0)),
                        backend=fast16, **WPAR)
    assert small.probability <= large.probability + 1e-12


def test_shrinking_ball_probability_vanishes(spec16, fast16):
    probs = [probability(spec16, Region(FlatSurface(0.0), BallMask((0, 0, 0), r)),
                         backend=fast16, **WPAR).probability
             for r in (2.0, 1.0, 0.6)]
    assert probs[0] > probs[1] > probs[2] >= 0.0


# the curved-n16 benchmark surfaces, and the stress-energy family at rest and
# at a moving unit timelike n
CURVED = (FlatSurface(0.0), TiltedSurface((0, 0, 0.4)), BumpSurface(0.5),
          ConeSurface(0.5))
FAMILY = ((1.0, 0.0, 0.0, 0.0), (1.25, 0.0, 0.0, 0.75))


def test_integrand_nonnegative(spec16, fast16, packet16):
    for surf in (FlatSurface(0.0), TiltedSurface((0, 0, 0.5)), ConeSurface(0.8)):
        res = probability(spec16, Region(surf), backend=fast16, **WPAR)
        assert res.meta["min_integrand"] >= -1e-9 * res.meta["max_j0"]
    for n in FAMILY:
        tspec = CurrentSpec(TensorKernel(n, M), packet16)
        tfast = build_fast(tspec)
        for surf in CURVED:
            res = probability(tspec, Region(surf), backend=tfast, **WPAR)
            assert res.meta["min_integrand"] >= -1e-9 * res.meta["max_j0"]


@pytest.mark.parametrize("n", FAMILY, ids=["rest", "moving"])
def test_invariance_catches_the_printed_tensor_variant(packet16, n):
    # the as_printed variant breaks continuity by design; over the curved
    # surfaces its flux moves by 0.16 (rest n) or 0.45 (moving n), the
    # standard variant's by 4.8e-3
    devs = {}
    for variant in ("stress_energy_standard", "as_printed"):
        tspec = CurrentSpec(TensorKernel(n, M, variant), packet16)
        rep = flux_invariance_report(tspec, CURVED, backend=build_fast(tspec), **WPAR)
        devs[variant] = rep["max_pairwise_relative_deviation"]
    assert devs["stress_energy_standard"] < 2e-2 < 0.1 < devs["as_printed"]


def test_flux_invariance_duplicates(spec16, fast16):
    rep = flux_invariance_report(spec16, [FlatSurface(0.0), FlatSurface(0.0)],
                                 backend=fast16, **WPAR)
    assert rep["max_pairwise_relative_deviation"] == 0.0


def test_flux_invariance_small_sweep(spec16, fast16_loose):
    surfaces = [FlatSurface(0.0), TiltedSurface((0, 0, 0.4)), BumpSurface(0.5, 2.0)]
    rep = flux_invariance_report(spec16, surfaces, backend=fast16_loose, **WPAR)
    assert rep["max_pairwise_relative_deviation"] < 2e-2


def test_flatten_sweep_converges(spec16, fast16_loose):
    cone = ConeSurface(1.0)
    probs = [probability(spec16, Region(cone.flatten(g)), backend=fast16_loose,
                         **WPAR).probability
             for g in (0.5, 0.9, 0.99)]
    limit = probability(spec16, Region(cone), backend=fast16_loose, **WPAR).probability
    gaps = [abs(p - limit) for p in probs]
    assert gaps[2] <= gaps[0] + 1e-3


def test_covariance_identity(spec16, fast16):
    region = Region(FlatSurface(0.0), BallMask((0, 0, 0), 3.0))
    lhs, rhs = covariance_check(spec16, PoincareElement.identity(), region, **WPAR)
    assert lhs.probability == pytest.approx(rhs.probability, rel=1e-12)


def test_covariance_boost(spec16):
    region = Region(FlatSurface(0.0), BallMask((0, 0, 0), 3.0))
    g = PoincareElement.from_lorentz(boost_z(0.25))
    lhs, rhs = covariance_check(spec16, g, region, **WPAR)
    norm2 = spec16.packet.norm_squared()
    assert abs(lhs.probability - rhs.probability) / norm2 < 3e-2


def test_covariance_rotation_permutation_path(spec16):
    region = Region(FlatSurface(0.0), BallMask((0.5, 0, 0), 2.0))
    g = PoincareElement.from_lorentz(rotation([0, 0, 1], np.pi / 2))
    lhs, rhs = covariance_check(spec16, g, region, **WPAR)
    # rotation is an exact index permutation; masks rotate exactly too
    assert abs(lhs.probability - rhs.probability) / spec16.packet.norm_squared() < 1e-10


@pytest.mark.parametrize("normalization", ["raw", "energy"])
def test_tensor_covariance_carries_the_boosted_index(tspec16, normalization):
    # the moved state is W(g^-1) phi, so the image side takes the member
    # Lambda n; refine 2 shrinks the region staircase, which at refine 1 is as
    # large as the gap between Lambda n (2.8e-3 of p) and Lambda^-1 n (6.7e-4).
    # Under energy normalization each side divides by its own state's and
    # member's n-energy, which agree to 2.9e-4
    region = Region(FlatSurface(0.0), BallMask((0, 0, 0), 4.0))
    g = PoincareElement.from_lorentz(boost_z(0.25))
    lhs, rhs = covariance_check(tspec16, g, region, refine=2,
                                normalization=normalization, **WPAR)
    assert abs(lhs.probability - rhs.probability) / lhs.probability < 2e-3


def test_additivity_full(spec16, fast16):
    out = additivity_check(spec16, FlatSurface(0.0), [FullMask()],
                           backend=fast16, window_half=7)
    assert out["residual"] < 1e-2
    assert out["uncovered_nodes"] == 0


def test_additivity_halves_and_octants(spec16, fast16):
    halves = [HalfSpaceMask((0, 0, 1)), ComplementMask(HalfSpaceMask((0, 0, 1)))]
    out = additivity_check(spec16, FlatSurface(0.0), halves,
                           backend=fast16, window_half=7)
    assert out["residual"] < 1e-2 and out["uncovered_nodes"] == 0
    out8 = additivity_check(spec16, FlatSurface(0.0), octant_masks(),
                            backend=fast16, window_half=7)
    assert out8["residual"] == pytest.approx(out["residual"], abs=1e-12)


def test_additivity_rejects_overlap(spec16, fast16):
    with pytest.raises(MaskOverlapError):
        additivity_check(spec16, FlatSurface(0.0),
                         [FullMask(), HalfSpaceMask((0, 0, 1))],
                         backend=fast16, window_half=7)


def test_matrix_element_diagonal(spec16, fast16):
    region = Region(FlatSurface(0.0))
    me = matrix_element(spec16, spec16.packet, region, backend=fast16, **WPAR)
    ref = probability(spec16, region, backend=fast16, **WPAR)
    assert abs(me - ref.probability) < 1e-10
    assert abs(me.imag) < 1e-10


def test_matrix_element_hermitian(spec16, grid16):
    rng = np.random.default_rng(0)
    noise = (rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3))
    psi = spec16.packet.with_amplitudes(
        spec16.packet.amplitudes * (0.5 + 0.3j) + 0.05 * noise * spec16.packet.support_mask())
    region = Region(FlatSurface(0.0), HalfSpaceMask((0, 0, 1)))
    ab = matrix_element(spec16, psi, region, **WPAR)
    ba = matrix_element(CurrentSpec(spec16.kernel, psi), spec16.packet, region, **WPAR)
    assert abs(ab - np.conj(ba)) < 1e-10


def test_matrix_element_full_surface_inner_product(spec16, grid16):
    from achronal.wavepacket import inner_product, make_packet
    psi = make_packet(grid16, M, sigma=0.8, center=(0, 0, 0.3),
                      core_radius=0.8, support_radius=1.5)
    psi = psi.with_amplitudes(psi.amplitudes * (0.6 + 0.4j))
    me = matrix_element(spec16, psi, Region(FlatSurface(0.0)), **WPAR)
    ip = inner_product(spec16.packet, psi)
    assert abs(me - ip) / abs(ip) < 1e-2


def test_causal_monotonicity(spec16, fast16):
    src, dst = causal_monotonicity_check(
        spec16, BallMask((0, 0, 0), 1.0), 0.0, FlatSurface(0.3),
        backend=fast16, window_half=7, refine=2)
    assert src.probability <= dst.probability + 1e-3
    full_src, full_dst = causal_monotonicity_check(
        spec16, BallMask((0, 0, 0), 50.0), 0.0, FlatSurface(0.3),
        backend=fast16, window_half=7)
    norm2 = spec16.packet.norm_squared()
    assert abs(full_src.probability - norm2) / norm2 < 1e-2
    assert abs(full_dst.probability - norm2) / norm2 < 1e-2


def test_causal_monotonicity_rejects_box(spec16, fast16):
    with pytest.raises(UnsupportedGeometryError):
        causal_monotonicity_check(spec16, BoxMask((-1, -1, -1), (1, 1, 1)),
                                  0.0, FlatSurface(0.3), backend=fast16)


def test_causal_shadow_reads_back_from_its_descriptor():
    ball, target = BallMask((0.5, 0, 0), 1.0), BumpSurface(0.6, 1.5)
    m = ShadowMask(ball, 0.25, target)
    assert m.descriptor() == {"type": "causal_shadow", "of": ball.descriptor(),
                              "t0": 0.25, "target": target.descriptor()}
    back = Mask.from_descriptor(json.loads(json.dumps(m.descriptor())))
    assert isinstance(back, ShadowMask) and back == m and back.label() == m.label()
    pts = np.random.default_rng(4).uniform(-3, 3, (200, 3))
    inside = m.contains(pts)
    assert np.array_equal(back.contains(pts), inside) and 0 < inside.sum() < len(pts)
    with pytest.raises(UnsupportedGeometryError):
        ShadowMask(BoxMask((-1, -1, -1), (1, 1, 1)), 0.25, target)


def test_stress_energy_normalization_mode(tspec16, tfast16):
    raw = probability(tspec16, Region(FlatSurface(0.0)), backend=tfast16, **WPAR)
    en = probability(tspec16, Region(FlatSurface(0.0)), backend=tfast16,
                     normalization="energy", **WPAR)
    norm2 = tspec16.packet.norm_squared()
    ep = tspec16.packet.energy_expectation(tspec16.kernel.n)
    assert abs(raw.probability - ep) / ep < 1e-2
    assert abs(en.probability - norm2) / norm2 < 1e-2
    assert en.meta["normalization"] == "energy"


def test_energy_mode_rejected_for_causal(spec16, fast16):
    with pytest.raises(ValueError):
        probability(spec16, Region(FlatSurface(0.0)), backend=fast16,
                    normalization="energy", **WPAR)


def test_backend_of_another_kernel_is_rejected(tspec16, fast16):
    with pytest.raises(BackendMismatchError):
        probability(tspec16, Region(FlatSurface(0.0)), backend=fast16,
                    normalization="energy", **WPAR)


def test_mask_descriptor_roundtrip():
    masks = [FullMask(), BallMask((0, 1, 2), 1.5), BoxMask((-1, -1, -1), (1, 1, 1)),
             HalfSpaceMask((0, 0, 1), 0.25),
             ComplementMask(BallMask((0, 0, 0), 1.0)),
             UnionMask((BallMask((0, 0, 0), 1.0), BallMask((2, 0, 0), 1.0))),
             IntersectionMask((HalfSpaceMask((1, 0, 0)), HalfSpaceMask((0, 1, 0))))]
    for m in masks:
        assert Mask.from_descriptor(m.descriptor()) == m


_COORD = st.floats(-3, 3)
_VEC = st.tuples(_COORD, _COORD, _COORD)
_MASKS = st.recursive(
    st.one_of(st.just(FullMask()),
              st.builds(BallMask, _VEC, st.floats(0.1, 3)),
              st.builds(BoxMask, _VEC, _VEC),
              st.builds(HalfSpaceMask, _VEC, _COORD)),
    lambda inner: st.one_of(
        st.builds(ComplementMask, inner),
        st.builds(UnionMask, st.lists(inner, min_size=1, max_size=3).map(tuple)),
        st.builds(IntersectionMask, st.lists(inner, min_size=1, max_size=3).map(tuple))),
    max_leaves=8)


# images of drawn masks under a boost along a drawn axis, a rotation about
# another and a translation, of a flat, bumped or conical surface
_AXES = _VEC.filter(lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: np.array(v) / np.linalg.norm(v))
_TRANSFORMS = st.builds(
    lambda a, b_axis, rho, r_axis, angle, surface: SurfaceTransformResult(
        PoincareElement(np.array(a), boost_axis(b_axis, rho) @ rotation(r_axis, angle)),
        surface),
    st.tuples(_COORD, _COORD, _COORD, _COORD), _AXES, st.floats(-1.5, 1.5), _AXES,
    st.floats(0.0, 2 * np.pi),
    st.sampled_from([FlatSurface(0.2), BumpSurface(0.6, 1.5), ConeSurface(-0.5, (0.5, 0, 0), 1.0)]))


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(_MASKS, st.builds(ImageMask, _MASKS, _TRANSFORMS)),
       st.lists(_VEC, min_size=1, max_size=20))
def test_mask_descriptor_roundtrip_drawn(m, pts):
    # through JSON, as a config file stores it; an image mask holds arrays,
    # so it is compared by its descriptor and its membership
    back = Mask.from_descriptor(json.loads(json.dumps(m.descriptor())))
    assert type(back) is type(m) and back.descriptor() == m.descriptor()
    assert isinstance(m, ImageMask) or back == m
    x = np.array(pts)
    assert np.array_equal(back.contains(x), m.contains(x))


def _subclasses(cls):
    return [s for sub in cls.__subclasses__() for s in (sub, *_subclasses(sub))]


# a value for each field annotation of a Described class; a new surface or
# mask whose fields use these annotations needs no change below
_G = PoincareElement(np.array([0.1, -0.2, 0.3, 0.4]),
                     boost_axis((1 / 3, 2 / 3, 2 / 3), 0.4) @ rotation((0, 0.6, 0.8), 0.7))
_FIELD_VALUES = {
    "float": 0.375,
    "tuple": (0.25, -0.5, 0.75),
    "Mask": BallMask((0.5, 0, 0), 1.5),
    "AchronalSurface": BumpSurface(0.5, 1.5),
    "PoincareElement": _G,
    "SurfaceTransformResult": SurfaceTransformResult(_G, ConeSurface(-0.5, (0, 0.5, 0), 1.0)),
}
_PART_VALUES = (BallMask((0.5, 0, 0), 1.5), HalfSpaceMask((0, 0, 1), 0.25))


def test_every_described_kind_is_unique_and_reads_back():
    kinds = [cls for cls in _subclasses(Described) if cls.kind is not None]
    names = [cls.kind for cls in kinds]
    assert len(set(names)) == len(names), names
    # SampledSurface writes its value cube's shape only, so it is not read
    readable = [cls for cls in kinds if cls is not SampledSurface]
    assert {AchronalSurface, Mask} <= {base for cls in readable for base in cls.__mro__}
    pts = np.random.default_rng(3).uniform(-3, 3, (50, 3))
    for cls in readable:
        # `parts` fields hold masks
        obj = cls(**{f.name: _PART_VALUES if f.name == "parts" else _FIELD_VALUES[f.type]
                     for f in fields(cls) if f.init})
        back = Described.from_descriptor(json.loads(json.dumps(obj.descriptor())))
        assert type(back) is cls and back.descriptor() == obj.descriptor(), cls
        if isinstance(obj, Mask):
            assert np.array_equal(back.contains(pts), obj.contains(pts)), cls
        else:
            assert np.array_equal(back.tau(pts), obj.tau(pts)), cls
            assert np.array_equal(back.gradient(pts), obj.gradient(pts)), cls


def test_result_range_invariant(spec16, fast16):
    for mask in (FullMask(), BallMask((0, 0, 0), 2.0), HalfSpaceMask((0, 1, 0))):
        res = probability(spec16, Region(FlatSurface(0.0), mask),
                          backend=fast16, **WPAR)
        norm2 = spec16.packet.norm_squared()
        assert -1e-9 * norm2 <= res.probability <= norm2 * 1.02


CURVED = [TiltedSurface((0, 0, 0.4)), BumpSurface(0.5), ConeSurface(0.5)]
FULL_SURFACES = [FlatSurface(0.0)] + CURVED
BUDGET = ("err_spectral", "err_window", "err_region")


@pytest.mark.parametrize("surface", CURVED, ids=lambda s: s.kind)
def test_point_route_matches_direct_riemann_sum(spec16, fast16, surface):
    # the same window nodes as window_half=7, summed with the direct current
    ax = spec16.packet.grid.position_axis()
    dx = ax[1] - ax[0]
    win = ax[np.abs(ax) < 7 * dx]
    X, Y, Z = np.meshgrid(win, win, win, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    pts = np.column_stack([surface.tau(nodes), nodes])
    J = np.array([s.value for s in eval_direct(spec16, pts)])
    ref = float(np.sum(J[:, 0] - np.sum(J[:, 1:] * surface.gradient(nodes), axis=1))) * dx ** 3
    res = probability(spec16, Region(surface), backend=fast16, **WPAR)
    assert res.meta["slices"] == 0
    assert abs(res.probability - ref) / abs(ref) <= 1e-6


@pytest.mark.parametrize("surface", FULL_SURFACES, ids=lambda s: s.kind)
def test_error_budget_covers_norm_deviation(spec16, fast16, surface):
    res = probability(spec16, Region(surface), backend=fast16, **WPAR)
    assert res.meta["slices"] == (1 if surface.kind == "flat" else 0)
    assert res.error_estimate == pytest.approx(sum(res.meta[k] for k in BUDGET), rel=1e-12)
    assert abs(res.probability - spec16.packet.norm_squared()) <= res.error_estimate


def test_region_term_only_for_boundaries_inside_cells(spec16, fast16):
    flat = FlatSurface(0.0)
    face_aligned = [FullMask(), HalfSpaceMask((0, 0, 1)),
                    ComplementMask(HalfSpaceMask((0, 0, 1)))] + octant_masks()
    for mask in face_aligned:
        res = probability(spec16, Region(flat, mask), backend=fast16, **WPAR)
        assert res.meta["err_region"] == 0.0, mask.label()
    ball = BallMask((0, 0, 0), 4.0)
    res = probability(spec16, Region(flat, ball), backend=fast16, **WPAR)
    assert res.meta["err_region"] > 0.0
    # image regions decide the corners' membership through S^-1
    image = probability_transformed(
        spec16, SurfaceTransformResult(PoincareElement.identity(), flat), ball,
        backend=fast16, **WPAR)
    assert image.meta["err_region"] == pytest.approx(res.meta["err_region"], rel=1e-12)


@pytest.mark.parametrize("surface", FULL_SURFACES, ids=lambda s: s.kind)
def test_spectral_term_covers_rank_truncation(spec16, fast16_factorized, fast16_loose,
                                             factorize, surface):
    # backends built at a looser tolerance drop more of fast16_factorized's
    # spectrum; the eigenvalue weight they drop must cover how far their
    # flux moves
    full = probability(spec16, Region(surface), backend=fast16_factorized, **WPAR)
    coarse = factorize(spec16, 1e-3, seed=1)
    for backend in (fast16_loose, coarse):
        cut = probability(spec16, Region(surface), backend=backend, **WPAR)
        assert abs(cut.probability - full.probability) <= cut.meta["err_spectral"]
        assert cut.meta["err_spectral"] > full.meta["err_spectral"]


@settings(max_examples=10, deadline=None, database=None)
@given(st.floats(np.log(1e-6), np.log(1e-2)),
       st.sampled_from([FlatSurface(0.0), TiltedSurface((0, 0, 0.4)), BumpSurface(0.5)]))
def test_spectral_term_covers_any_build_tolerance(spec16, fast16, factorize, log_tol,
                                                  surface):
    # the factorized flux against the exact G's (fast16)
    backend = factorize(spec16, float(np.exp(log_tol)), seed=1)
    cut = probability(spec16, Region(surface), backend=backend, **WPAR)
    full = probability(spec16, Region(surface), backend=fast16, **WPAR)
    assert abs(cut.probability - full.probability) <= cut.meta["err_spectral"]


class _ConstantTauSloped(FlatSurface):
    """tau constant on every node, yet a nonzero gradient: the flux route must
    still take the full current and subtract J.grad tau."""

    kind = "stub"

    def gradient(self, x):
        return np.broadcast_to(np.array([0.0, 0.0, 0.4]), np.shape(x))


def test_constant_tau_with_slope_subtracts_j_dot_grad(spec16, fast16):
    # at t = 1 the packet spreads, so J3 is positive on the upper half space
    surface, upper = _ConstantTauSloped(1.0), HalfSpaceMask((0, 0, 1))
    res = probability(spec16, Region(surface, upper), backend=fast16, **WPAR)
    assert res.meta["slices"] == 0
    ax = spec16.packet.grid.position_axis()
    dx = ax[1] - ax[0]
    win = np.flatnonzero(np.abs(ax) < 7 * dx)
    up = win[ax[win] > 0]
    J = fast16.slice_fields(spec16.packet, 1.0)[:, win][:, :, win][:, :, :, up]
    ref = float(np.sum(J[0] - 0.4 * J[3])) * dx ** 3
    flat = probability(spec16, Region(FlatSurface(1.0), upper), backend=fast16, **WPAR)
    assert res.probability == pytest.approx(ref, rel=1e-12)
    assert flat.probability - res.probability > 1e-3 * flat.probability


def test_image_of_flat_surface_is_the_tilted_plane(spec16, fast16):
    # the boost_z(0.3) image of t = 0 is the plane t = tanh(0.3) z
    image = SurfaceTransformResult(PoincareElement.from_lorentz(boost_z(0.3)),
                                   FlatSurface(0.0))
    tilted = TiltedSurface((0, 0, np.tanh(0.3)))
    for mask in (FullMask(), BallMask((0, 0, 0), 3.0)):
        a = probability(spec16, Region(image, mask), backend=fast16, **WPAR)
        b = probability(spec16, Region(tilted, mask), backend=fast16, **WPAR)
        assert a.surface == "image(flat(t0=0.0))"
        assert a.probability == pytest.approx(b.probability, rel=1e-12)


def test_flux_invariance_report_takes_image_surfaces(spec16, fast16):
    g = PoincareElement.from_lorentz(boost_z(0.3))
    surfaces = [FlatSurface(0.0), SurfaceTransformResult(g, FlatSurface(0.0)),
                SurfaceTransformResult(g, BumpSurface(0.5))]
    rep = flux_invariance_report(spec16, surfaces, backend=fast16, **WPAR)
    assert rep["max_pairwise_relative_deviation"] < 2e-2


def test_image_region_of_no_points_is_empty():
    g = PoincareElement.from_lorentz(boost_z(0.3))
    image = SurfaceTransformResult(g, FlatSurface(0.0))
    none = np.zeros((0, 3))
    assert image.s_inverse(none).shape == (0, 3)
    assert image.tau(none).shape == (0,)
    assert ImageMask(BallMask((0, 0, 0), 1.0), image).contains(none).shape == (0,)


def test_boundary_flux_fraction_is_the_largest_window_share(spec16, fast16):
    rep = flux_invariance_report(spec16, [FlatSurface(0.0)], backend=fast16, **WPAR)
    # on t = 0 it is the slice's J0 share on the window's boundary shell
    grid = spec16.packet.grid
    J0 = fast16.slice_fields(spec16.packet, 0.0)[0]
    window = position_window_mask(grid, 7, 1)
    shell = window & ~position_window_mask(grid, 6, 1)
    ref = J0[shell].sum() / J0[window].sum()
    assert rep["boundary_flux_fraction"] == pytest.approx(ref, rel=1e-14)
    # a cone reaches further out in time, so it sets the largest share
    rep = flux_invariance_report(spec16, [FlatSurface(0.0), ConeSurface(0.5)],
                                 backend=fast16, **WPAR)
    shares = [r.meta["err_window"] / abs(r.probability) for r in rep["results"]]
    assert shares[1] > shares[0]
    assert rep["boundary_flux_fraction"] == max(shares)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return tuple(v / np.linalg.norm(v))


_coord = st.floats(-2.0, 2.0)
_half_spaces = st.builds(
    lambda n, off: HalfSpaceMask(_unit(n), off),
    st.tuples(_coord, _coord, _coord).filter(lambda n: np.linalg.norm(n) > 0.1),
    st.floats(-1.5, 1.5))
_balls = st.builds(lambda c, r: BallMask(c, r), st.tuples(_coord, _coord, _coord),
                   st.floats(0.5, 4.0))


@settings(max_examples=10, deadline=None, database=None)
@given(st.sampled_from([FlatSurface(0.0), TiltedSurface((0, 0.2, 0.4)), BumpSurface(0.5)]),
       st.one_of(_half_spaces, _balls))
def test_partition_parts_match_their_own_fluxes(spec16, fast16, surface, mask):
    # a smaller window than WPAR keeps the ten examples quick
    parts = [mask, ComplementMask(mask)]
    out = additivity_check(spec16, surface, parts, backend=fast16, window_half=5)
    full = probability(spec16, Region(surface), backend=fast16, window_half=5)
    assert out["sum"] == pytest.approx(full.probability, rel=1e-12)
    for m, part in zip(parts, out["results"]):
        own = probability(spec16, Region(surface, m), backend=fast16, window_half=5)
        if surface.kind == "flat":
            # one window slice on both routes: the same values summed in order
            assert (part.probability, part.error_estimate) == (own.probability,
                                                             own.error_estimate)
        else:
            assert part.probability == pytest.approx(own.probability, rel=1e-12)
            assert part.error_estimate == pytest.approx(own.error_estimate, rel=1e-12)
