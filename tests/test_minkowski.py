import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from achronal.minkowski import (ETA, LorentzValidationError, PoincareElement,
                                apply_lorentz, boost_axis, boost_z, classify,
                                fourvector, minkowski_product, rotation,
                                validate_lorentz)


def random_lorentz(rng):
    L = np.eye(4)
    for _ in range(3):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        L = L @ rotation(axis, rng.uniform(0, 2 * np.pi))
        L = L @ boost_axis(axis, rng.uniform(-1.0, 1.0))
    return L


def random_poincare(rng):
    return PoincareElement(rng.normal(size=4), random_lorentz(rng))


def test_product_timelike_unit():
    v = fourvector(1, 0, 0, 0)
    assert minkowski_product(v, v) == 1.0


def test_product_lightlike():
    v = fourvector(1, 1, 0, 0)
    assert minkowski_product(v, v) == 0.0


def test_product_invariance_under_random_transforms():
    rng = np.random.default_rng(0)
    for _ in range(100):
        L = random_lorentz(rng)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        lhs = minkowski_product(apply_lorentz(L, a), apply_lorentz(L, b))
        assert abs(lhs - minkowski_product(a, b)) < 1e-10


def test_product_bilinear_symmetric():
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=(3, 4))
    assert minkowski_product(a, b) == pytest.approx(minkowski_product(b, a), abs=1e-14)
    lhs = minkowski_product(a + 2.0 * b, c)
    assert lhs == pytest.approx(minkowski_product(a, c) + 2 * minkowski_product(b, c),
                                abs=1e-12)


def test_classify_timelike_future():
    c = classify(fourvector(2, 1, 0, 0))
    assert c.kind == "timelike" and c.causal and c.future_directed


def test_classify_lightlike_past():
    c = classify(fourvector(-1, 1, 0, 0))
    assert c.kind == "lightlike" and c.causal and c.past_directed


def test_classify_spacelike_and_zero():
    assert classify(fourvector(0.5, 1, 0, 0)).kind == "spacelike"
    assert not classify(fourvector(0.5, 1, 0, 0)).causal
    assert classify(fourvector(0, 0, 0, 0)).kind == "zero"


def test_classify_invariant_under_proper_transforms():
    rng = np.random.default_rng(2)
    vecs = [fourvector(2, 1, 0, 0), fourvector(1, 1, 0, 0), fourvector(0.3, 1, -1, 0),
            fourvector(-2, 0.5, 0, 0), fourvector(-1, 0, 1, 0)]
    for _ in range(40):
        L = random_lorentz(rng)
        for v in vecs:
            a = classify(v)
            b = classify(apply_lorentz(L, v), tol=1e-9)
            assert a.kind == b.kind
            assert a.future_directed == b.future_directed


def test_boost_z_identity_at_zero():
    assert np.allclose(boost_z(0.0), np.eye(4), atol=0)


def test_boost_z_one_parameter_group():
    lhs = boost_z(0.3) @ boost_z(0.5)
    assert np.abs(lhs - boost_z(0.8)).max() < 1e-12


def test_boost_z_unit_spatial_vector():
    rho = 0.7
    out = apply_lorentz(boost_z(rho), fourvector(0, 0, 0, 1))
    assert np.abs(out - [np.sinh(rho), 0, 0, np.cosh(rho)]).max() < 1e-15


def test_boost_matrix_layout():
    rho = 0.4
    L = boost_z(rho)
    assert L[0, 0] == L[3, 3] == np.cosh(rho)
    assert L[0, 3] == L[3, 0] == np.sinh(rho)
    assert L[1, 1] == L[2, 2] == 1.0
    assert L[0, 1] == L[1, 0] == L[2, 3] == 0.0


def test_rotation_identity_and_quarter_turn():
    assert np.allclose(rotation([0, 0, 1], 0.0), np.eye(4), atol=0)
    out = apply_lorentz(rotation([0, 0, 1], np.pi / 2), fourvector(0, 1, 0, 0))
    assert np.abs(out - [0, 0, 1, 0]).max() < 1e-15


def test_rotation_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rotation(axis, rng.uniform(0, 2 * np.pi))
        assert np.abs(R.T @ R - np.eye(4)).max() < 1e-12


def test_rotation_rejects_bad_axis():
    with pytest.raises(ValueError):
        rotation([1.0, 1.0, 0.0], 0.3)


def test_validate_lorentz_rejects_garbage():
    with pytest.raises(LorentzValidationError):
        validate_lorentz(np.eye(4) * 1.1)
    with pytest.raises(LorentzValidationError):
        validate_lorentz(-np.eye(4))  # not orthochronous
    L = validate_lorentz(boost_z(0.5))
    assert np.abs(L.T @ ETA @ L - ETA).max() < 1e-12


def test_translation_action():
    a = fourvector(1, 2, 3, 4)
    g = PoincareElement.translation(a)
    x = fourvector(0.5, -1, 0, 2)
    assert np.allclose(g.act(x), x + a, atol=0)


def test_identity_action():
    g = PoincareElement.identity()
    x = fourvector(0.1, 0.2, 0.3, 0.4)
    assert np.array_equal(g.act(x), x)


def test_action_respects_composition():
    rng = np.random.default_rng(4)
    for _ in range(60):
        g1, g2 = random_poincare(rng), random_poincare(rng)
        x = rng.normal(size=4)
        lhs = (g1 @ g2).act(x)
        rhs = g1.act(g2.act(x))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_group_axioms():
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = random_poincare(rng)
        gid = g @ g.inverse()
        assert np.abs(gid.a).max() < 1e-10
        assert np.abs(gid.L - np.eye(4)).max() < 1e-12
        x = rng.normal(size=4)
        assert np.abs(g.act(g.inverse().act(x)) - x).max() < 1e-10


def test_composition_law_matches_formula():
    rng = np.random.default_rng(6)
    g1, g2 = random_poincare(rng), random_poincare(rng)
    comp = g1 @ g2
    assert np.abs(comp.a - (g1.a + apply_lorentz(g1.L, g2.a))).max() < 1e-12
    assert np.abs(comp.L - g1.L @ g2.L).max() < 1e-12


# Poincare elements drawn as translation . boost . rotation, with axes given
# by spherical angles so that every draw is a unit vector
_AXES = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)).map(
    lambda a: np.array([np.sin(a[0]) * np.cos(a[1]), np.sin(a[0]) * np.sin(a[1]),
                        np.cos(a[0])]))
POINCARE = st.builds(
    lambda a, b_axis, rho, r_axis, angle: PoincareElement(
        np.array(a), boost_axis(b_axis, rho) @ rotation(r_axis, angle)),
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), _AXES,
    st.floats(-1.0, 1.0), _AXES, st.floats(0.0, 2 * np.pi))
POINTS = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4).map(np.array)


@settings(max_examples=50, deadline=None, database=None)
@given(POINCARE, POINCARE, POINCARE, POINTS)
def test_group_law_property(g1, g2, g3, x):
    # associativity, and the action of a product is the composed action
    left, right = (g1 @ g2) @ g3, g1 @ (g2 @ g3)
    assert np.abs(left.L - right.L).max() < 1e-10
    assert np.abs(left.a - right.a).max() < 1e-10
    assert np.abs((g1 @ g2).act(x) - g1.act(g2.act(x))).max() < 1e-10
    validate_lorentz((g1 @ g2).L)


@settings(max_examples=50, deadline=None, database=None)
@given(POINCARE, POINTS)
def test_inverse_property(g, x):
    for gid in (g @ g.inverse(), g.inverse() @ g):
        assert np.abs(gid.L - np.eye(4)).max() < 1e-10
        assert np.abs(gid.a).max() < 1e-10
    assert np.abs(g.inverse().act(g.act(x)) - x).max() < 1e-10
