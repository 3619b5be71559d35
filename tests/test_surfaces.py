import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from achronal.localization import Mask
from achronal.minkowski import (PoincareElement, apply_lorentz, boost_axis, boost_z,
                                rotation)
from achronal.surfaces import (AchronalSurface, BumpSurface, ConeSurface, DescriptorError,
                               FlatSurface, FoldOverError, SampledSurface,
                               SurfaceDomainError, SurfaceTransformResult, TiltedSurface,
                               flatten, is_spacelike_cauchy, transform_gradient_data)


def test_flat_closed_forms():
    f = FlatSurface(0.0)
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    assert np.all(f.tau(x) == 0.0)
    assert np.all(f.gradient(x) == 0.0)
    assert f.lipschitz_bound == 0.0


def test_tilted_closed_forms():
    t = TiltedSurface((0, 0, 0.5))
    x = np.array([1.0, -2.0, 4.0])
    assert t.tau(x) == pytest.approx(2.0)
    assert np.allclose(t.gradient(x), [0, 0, 0.5], atol=0)
    with pytest.raises(ValueError):
        TiltedSurface((1.0, 0.5, 0.0))


def test_bump_slope_below_amplitude():
    b = BumpSurface(0.6, 2.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(-20, 20, (200, 3))
    g = b.gradient(x)
    assert np.linalg.norm(g, axis=1).max() < 0.6
    assert b.tau(np.zeros((1, 3)))[0] == 0.0


def test_cone_gradient_and_apex_flag():
    c = ConeSurface(0.8)
    g = c.gradient(np.array([1.0, 0, 0]))
    assert np.allclose(g, [0.8, 0, 0], atol=1e-15)
    grads = c.gradient(np.array([[0.0, 0, 0], [0, 2.0, 0]]))
    assert np.linalg.norm(grads[0]) <= 1.0


def test_flatten_laws():
    assert flatten(ConeSurface(1.0), 0.8).gamma == pytest.approx(0.8)
    assert flatten(FlatSurface(0.0), 0.0).t0 == 0.0
    assert flatten(TiltedSurface((0, 0, 0.5)), 1.0).e == (0, 0, 0.5)
    two_step = flatten(flatten(BumpSurface(0.9), 0.5), 0.4)
    assert two_step.amplitude == pytest.approx(0.9 * 0.2)
    with pytest.raises(ValueError):
        flatten(FlatSurface(0.0), 1.5)


def test_spacelike_cauchy_checks():
    assert is_spacelike_cauchy(FlatSurface(0.0))[0]
    assert is_spacelike_cauchy(TiltedSurface((0, 0, 0.5)))[0]
    assert is_spacelike_cauchy(BumpSurface(0.6))[0]
    ok, witness = is_spacelike_cauchy(ConeSurface(1.0))
    assert not ok and witness is not None
    assert is_spacelike_cauchy(ConeSurface(0.8))[0]


def test_sampled_surface_roundtrip_and_gradient_order():
    ax = np.linspace(-3, 3, 25)
    h = ax[1] - ax[0]
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    b = BumpSurface(0.6, 2.0)
    vals = b.tau(np.stack([X, Y, Z], axis=-1))
    s = SampledSurface(vals, (-3, -3, -3), h)
    pts = np.array([[0.1, -0.4, 0.8], [1.0, 1.0, -1.0]])
    assert np.abs(s.tau(pts) - b.tau(pts)).max() < 1e-2
    # second-order gradient convergence under refinement
    errs = []
    for n in (25, 49):
        axn = np.linspace(-3, 3, n)
        Xn, Yn, Zn = np.meshgrid(axn, axn, axn, indexing="ij")
        sn = SampledSurface(b.tau(np.stack([Xn, Yn, Zn], axis=-1)), (-3, -3, -3),
                            axn[1] - axn[0])
        errs.append(np.abs(sn.gradient(pts) - b.gradient(pts)).max())
    assert errs[1] < errs[0] / 3.0


def test_sampled_surface_validation():
    ax = np.linspace(-3, 3, 13)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    with pytest.raises(ValueError):
        SampledSurface(2.0 * np.abs(X), (-3, -3, -3), ax[1] - ax[0])
    # diagonal violations are caught too: slope 1 along both x1 and x2
    with pytest.raises(ValueError):
        SampledSurface(X + Y, (-3, -3, -3), ax[1] - ax[0])


def test_sampled_surface_domain_error():
    ax = np.linspace(-1, 1, 9)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    s = SampledSurface(0.0 * X, (-1, -1, -1), ax[1] - ax[0])
    with pytest.raises(SurfaceDomainError):
        s.tau(np.array([2.0, 0, 0]))


def test_descriptor_roundtrip():
    for s in (FlatSurface(0.3), TiltedSurface((0, 0.2, 0.5), 0.1),
              BumpSurface(0.6, 2.0), ConeSurface(0.8, (1, 0, 0), 0.2)):
        assert AchronalSurface.from_descriptor(s.descriptor()) == s


def test_labels_carry_plain_numbers():
    # numpy scalars in a field print as plain numbers, not np.float64(...)
    assert TiltedSurface((0, 0, 0.4)).label() == "tilted(e=[0.0, 0.0, 0.4],offset=0.0)"
    assert BumpSurface(0.5).label() == "bump(amplitude=0.5,scale=2.0)"
    assert ConeSurface(-0.5, (0, 0, 0), 2.0).label() == \
        "cone(gamma=-0.5,apex=[0.0, 0.0, 0.0],offset=2.0)"


_COORD = st.floats(-3, 3)
_VEC = st.tuples(_COORD, _COORD, _COORD)
_AXES = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)).map(
    lambda a: np.array([np.sin(a[0]) * np.cos(a[1]), np.sin(a[0]) * np.sin(a[1]),
                        np.cos(a[0])]))
# translation, then rotation, then boost: g = (a, boost(rho) rotation(angle))
_ELEMENTS = st.builds(
    lambda a, b_axis, rho, r_axis, angle: PoincareElement(
        np.array(a), boost_axis(b_axis, rho) @ rotation(r_axis, angle)),
    st.tuples(_COORD, _COORD, _COORD, _COORD), _AXES, st.floats(-1.5, 1.5), _AXES,
    st.floats(0.0, 2 * np.pi))
_SURFACES = st.one_of(
    st.builds(FlatSurface, _COORD),
    st.builds(TiltedSurface, st.tuples(*[st.floats(-1, 1)] * 3)
              .filter(lambda e: np.linalg.norm(e) <= 1.0), _COORD),
    st.builds(BumpSurface, st.floats(-0.99, 0.99), st.floats(0.1, 5.0)),
    st.builds(ConeSurface, st.floats(-1, 1), _VEC, _COORD),
)


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(_SURFACES, st.builds(SurfaceTransformResult, _ELEMENTS, _SURFACES)),
       st.lists(_VEC, min_size=1, max_size=10))
def test_descriptor_roundtrip_drawn(s, pts):
    # through JSON, as a config file stores it; an image holds arrays, so it
    # is compared by its descriptor and its values
    back = AchronalSurface.from_descriptor(json.loads(json.dumps(s.descriptor())))
    assert type(back) is type(s) and back.descriptor() == s.descriptor()
    assert isinstance(s, SurfaceTransformResult) or back == s
    x = np.array(pts)
    assert np.array_equal(back.tau(x), s.tau(x))
    assert np.array_equal(back.gradient(x), s.gradient(x))


_BOOST = {"a": [0.0, 0.0, 0.0, 0.5], "L": boost_z(0.3).tolist()}


_BALL = {"type": "ball", "center": [0, 0, 0], "radius": 1.0}


@pytest.mark.parametrize("family, d, message", [
    (AchronalSurface, {"type": "flatt"}, "unknown AchronalSurface descriptor"),
    (AchronalSurface, _BALL, "unknown AchronalSurface"),
    (AchronalSurface, [0.0], "unknown AchronalSurface descriptor"),
    (AchronalSurface, {"type": "flat", "t": 1.0}, r"flat: unknown keys \['t'\]"),
    (AchronalSurface, {"type": "bump", "amplitude": 0.5, "scal": 9},
     r"bump: unknown keys \['scal'\]"),
    (AchronalSurface, {"type": "bump", "scale": 2.0}, "missing 1 required positional argument"),
    (AchronalSurface, {"type": "bump", "amplitude": 1.5}, "amplitude"),
    (AchronalSurface, {"type": "flat", "t0": "one"}, "could not convert"),
    (AchronalSurface, {"type": "image", "g": {"a": [0.0] * 4}, "of": {"type": "flat"}},
     "neither a descriptor nor a Poincare element"),
    (AchronalSurface, {"type": "image", "g": {**_BOOST, "L": np.diag([1.0, 2.0, 1.0, 1.0]).tolist()},
                       "of": {"type": "flat"}}, "image: "),
    (AchronalSurface, {"type": "image", "g": _BOOST, "of": {"type": "flat", "t0": 0.0, "x": 1}},
     r"flat: unknown keys \['x'\]"),
    # nested objects are read by the family of their field
    (AchronalSurface, {"type": "image", "g": _BOOST, "of": _BALL},
     "image: unknown AchronalSurface descriptor"),
    (AchronalSurface, {"type": "image", "g": {"type": "flat"}, "of": {"type": "flat"}},
     "image: neither a descriptor nor a Poincare element"),
    (Mask, {"type": "complement", "of": {"type": "flat"}},
     "complement: unknown Mask descriptor"),
    (Mask, {"type": "union", "parts": [_BALL, {"type": "flat"}]},
     "union: unknown Mask descriptor"),
    (Mask, {"type": "intersection", "parts": [_BALL, 3]},
     "intersection: unknown Mask descriptor 3"),
    (Mask, {"type": "union", "parts": _BALL}, "union: expected a list"),
    (Mask, {"type": "image_mask", "of": _BALL, "transform": {"type": "flat"}},
     "image_mask: unknown SurfaceTransformResult descriptor"),
], ids=["unknown_type", "mask_type", "not_an_object", "unknown_key", "misspelt_key",
        "missing_key", "rejected_value", "malformed_value", "nested_object",
        "rejected_element", "nested_unknown_key", "mask_as_surface",
        "descriptor_as_element", "surface_as_complement", "surface_as_part",
        "number_as_part", "parts_not_a_list", "surface_as_transform"])
def test_strict_descriptor_reader(family, d, message):
    with pytest.raises(DescriptorError, match=message):
        family.from_descriptor(d)


def test_transform_identity():
    res = SurfaceTransformResult(PoincareElement.identity(), BumpSurface(0.5))
    y = np.array([[0.3, -1.0, 2.0]])
    assert np.abs(res.s_inverse(y) - y).max() < 1e-12
    assert res.tau(y)[0] == pytest.approx(BumpSurface(0.5).tau(y)[0], abs=1e-12)
    assert res.jacobian_det(y)[0] == pytest.approx(1.0, abs=1e-12)


def test_flat_under_boost_closed_form():
    rho = 0.4
    g = PoincareElement.from_lorentz(boost_z(rho))
    res = SurfaceTransformResult(g, FlatSurface(0.0))
    y = np.array([[0.5, 1.0, 2.0], [-1.0, 0.3, -0.7]])
    assert np.abs(res.tau(y) - np.tanh(rho) * y[:, 2]).max() < 1e-12
    assert res.jacobian_det(np.array([[1.0, 2.0, 3.0]]))[0] == \
        pytest.approx(np.cosh(rho), abs=1e-12)
    grad = res.gradient(y)
    assert np.abs(grad[:, 2] - np.tanh(rho)).max() < 1e-12
    assert np.abs(grad[:, :2]).max() < 1e-15


def test_gradient_identity_100_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-1, 1, 3)
        z *= rng.uniform(0, 0.999) / max(np.linalg.norm(z), 1e-12)
        L = boost_z(rng.uniform(-1, 1))
        grad, det = transform_gradient_data(L, z)
        lhs = np.concatenate([[1.0], grad])
        rhs = apply_lorentz(L, np.concatenate([[1.0], z])) / abs(det)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12


def test_gradient_identity_with_rotations():
    rng = np.random.default_rng(43)
    for _ in range(40):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        L = boost_z(rng.uniform(-1, 1)) @ rotation(axis, rng.uniform(0, 2 * np.pi))
        z = rng.uniform(-1, 1, 3)
        z *= rng.uniform(0, 0.99) / max(np.linalg.norm(z), 1e-12)
        grad, det = transform_gradient_data(L, z)
        lhs = np.concatenate([[1.0], grad])
        rhs = apply_lorentz(L, np.concatenate([[1.0], z])) / abs(det)
        assert np.abs(lhs - rhs).max() < 1e-12
        # the Jacobian DS of S(x) = L_spsp x + L_sp0 tau(x) and the chain rule
        DS = L[1:, 1:] + np.outer(L[1:, 0], z)
        assert det == pytest.approx(np.linalg.det(DS), rel=1e-12)
        ref = np.linalg.solve(DS.T, L[0, 0] * z + L[0, 1:])
        assert np.abs(grad - ref).max() < 1e-12


def test_newton_inversion_on_curved_surfaces():
    rng = np.random.default_rng(44)
    g = PoincareElement(np.array([0.2, -0.1, 0.4, 0.3]),
                        boost_z(0.5) @ rotation([0, 1, 0], 0.7))
    for surf in (BumpSurface(0.6, 2.0), ConeSurface(0.8, (0.5, 0, 0))):
        res = SurfaceTransformResult(g, surf)
        pts = rng.uniform(-2, 2, (25, 3))
        ys = res.s_forward(pts)
        assert np.abs(res.s_inverse(ys) - pts).max() < 1e-9


class _Zigzag(AchronalSurface):
    """tau = 0.9 * a triangle wave of x_3: slopes +-0.9, kinks at odd x_3."""

    def tau(self, x):
        return 0.9 * (np.abs((x[..., 2] - 1.0) % 4.0 - 2.0) - 1.0)

    def gradient(self, x):
        out = np.zeros_like(x)
        out[..., 2] = 0.9 * np.sign((x[..., 2] - 1.0) % 4.0 - 2.0)
        return out


@pytest.mark.parametrize("rho", [-3.0, -2.0, 2.0, 3.0])
def test_s_inverse_on_a_kinked_surface(rho):
    # Newton steps alone cycle across the kinks here; the bracket stops them
    res = SurfaceTransformResult(PoincareElement.from_lorentz(boost_z(rho)), _Zigzag())
    x = np.random.default_rng(1).uniform(-3, 3, (200, 3))
    assert np.abs(res.s_inverse(res.s_forward(x)) - x).max() < 1e-9


def test_transformed_surface_stays_achronal():
    rng = np.random.default_rng(45)
    g = PoincareElement.from_lorentz(boost_z(0.6))
    res = SurfaceTransformResult(g, BumpSurface(0.7, 1.5))
    y = rng.uniform(-4, 4, (50, 3))
    t = res.tau(y)
    dt = np.abs(t[:, None] - t[None, :])
    dx = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=-1)
    assert np.all(dt <= dx + 1e-10)


class _Steep(AchronalSurface):
    """tau = 1.8 |x_3|: slope 1.8, so not achronal."""

    def tau(self, x):
        return 1.8 * np.abs(x[..., 2])

    def gradient(self, x):
        out = np.zeros_like(x)
        out[..., 2] = 1.8 * np.sign(x[..., 2])
        return out


def test_fold_over_on_invalid_input():
    # a non-achronal "surface" (slope > 1) breaks bijectivity of the graph map
    g = PoincareElement.from_lorentz(boost_z(0.8))
    res = SurfaceTransformResult(g, _Steep())
    with pytest.raises((FoldOverError, SurfaceDomainError)):
        res.s_inverse(np.array([[0.0, 0.0, -1.0]]))


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from([FlatSurface(0.3), TiltedSurface((0.0, 0.2, 0.4), -0.1),
                        BumpSurface(0.6, 2.0), TiltedSurface((0.0, 0.0, 1.0)),
                        ConeSurface(1.0)]),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), _AXES,
       st.floats(-3.0, 3.0), _AXES, st.floats(0.0, 2 * np.pi),
       st.lists(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                min_size=1, max_size=8))
def test_s_inverse_undoes_s_forward(surface, a, b_axis, rho, r_axis, angle, xs):
    g = PoincareElement(np.array(a), boost_axis(b_axis, rho) @ rotation(r_axis, angle))
    res = SurfaceTransformResult(g, surface)
    x = np.array(xs)
    assert np.abs(res.s_inverse(res.s_forward(x)) - x).max() < 1e-9
