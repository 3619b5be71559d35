from decimal import Decimal, localcontext

import numpy as np
import pytest

from achronal.kernels import (CausalKernel, GFunction, KernelDomainError,
                              TensorKernel, continuity_contraction, g_basic,
                              gram_matrix, gram_min_eigenvalue, kernel_K,
                              kernel_Kn, parse_kernel_spec)
from achronal.minkowski import rotation
from achronal.wavepacket import energy

M = 1.0


def test_g_basic_normalized_at_threshold():
    assert g_basic(1.5, M * M, M) == pytest.approx(1.0, abs=1e-15)
    assert g_basic(2.5, M * M, M) == pytest.approx(1.0, abs=1e-15)


def test_g_basic_closed_value():
    # (2 m^2 / (m^2 + t))^r at r = 3/2, t = 3, m = 1
    assert g_basic(1.5, 3.0, 1.0) == pytest.approx(0.3535533905932738, abs=1e-15)


def test_g_basic_monotone_and_bounded():
    t = np.linspace(1.0, 40.0, 200)
    g = g_basic(1.5, t, 1.0)
    assert np.all(np.diff(g) < 0)
    assert np.all((g > 0) & (g <= 1.0 + 1e-15))


def test_g_basic_domain_error():
    with pytest.raises(KernelDomainError):
        g_basic(1.5, 0.5, 1.0)


@pytest.mark.parametrize("g", [GFunction.basic(1.5, M), GFunction.oscillatory(5.0, M)],
                         ids=["basic", "custom"])
def test_profile_domain_error(g):
    assert g(np.array([M * M, 4.0])).shape == (2,)
    with pytest.raises(KernelDomainError):
        g(np.array([4.0, M * M - 1e-6]))


def test_g_basic_dominance():
    t = np.linspace(1.0, 60.0, 1000)
    g32 = g_basic(1.5, t, 1.0)
    g52 = g_basic(2.5, t, 1.0)
    assert np.all(g52 <= g32)
    assert np.all(g52[t > 1.0 + 1e-9] < g32[t > 1.0 + 1e-9])


def test_printed_variant_only_normalized_at_unit_mass():
    assert g_basic(1.5, 1.0, 1.0, printed=True) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        GFunction.basic(1.5, mass=2.0, printed=True)


def test_gfunction_rejects_low_exponent():
    with pytest.raises(ValueError):
        GFunction.basic(1.0, M)


def test_kernel_diagonal(kern_basic):
    p = np.array([0.4, -0.2, 0.7])
    K = kernel_K(p, p, kern_basic)
    eps = energy(p, M)
    assert K[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(K[1:] - p / eps).max() < 1e-14


def test_kernel_opposite_momenta(kern_basic):
    p = np.array([0.3, 0.1, -0.5])
    K = kernel_K(p, -p, kern_basic)
    assert np.abs(K[1:]).max() == 0.0


def test_kernel_swap_symmetry(kern_basic):
    rng = np.random.default_rng(0)
    k, p = rng.uniform(-2, 2, (2, 3))
    a = kernel_K(k, p, kern_basic)
    b = kernel_K(p, k, kern_basic)
    assert abs(a[0] - b[0]) < 1e-15
    assert np.abs(a[1:] - b[1:]).max() < 1e-15


def test_kernel_rotation_invariance(kern_basic):
    rng = np.random.default_rng(1)
    for _ in range(20):
        k, p = rng.uniform(-2, 2, (2, 3))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rotation(axis, rng.uniform(0, 2 * np.pi))[1:, 1:]
        a = kernel_K(k, p, kern_basic)
        b = kernel_K(R @ k, R @ p, kern_basic)
        assert abs(a[0] - b[0]) < 1e-12
        assert np.abs(R @ a[1:] - b[1:]).max() < 1e-12


def test_tensor_diagonal_both_variants():
    p = np.array([0.5, -0.3, 0.8])
    eps = energy(p, M)
    std = kernel_Kn(p, p, TensorKernel([1, 0, 0, 0], M))
    assert std[0] == pytest.approx(eps, rel=1e-14)
    printed = kernel_Kn(p, p, TensorKernel([1, 0, 0, 0], M, "as_printed"))
    assert printed[0] == pytest.approx(np.dot(p, p) / eps, rel=1e-13)


def test_tensor_swap_symmetry():
    rng = np.random.default_rng(2)
    k, p = rng.uniform(-2, 2, (2, 3))
    for variant in ("stress_energy_standard", "as_printed"):
        kern = TensorKernel([1.25, 0.0, 0.0, 0.75], M, variant)
        a = kernel_Kn(k, p, kern)
        b = kernel_Kn(p, k, kern)
        assert np.abs(a - b).max() < 1e-14


def test_tensor_index_validation():
    with pytest.raises(ValueError):
        TensorKernel([1.0, 0.5, 0, 0], M)  # not normalized
    with pytest.raises(ValueError):
        TensorKernel([-1.0, 0, 0, 0], M)  # past-directed


def test_continuity_contraction(kern_basic, kern_tensor):
    rng = np.random.default_rng(3)
    k, p = rng.uniform(-2, 2, (2, 3))
    assert abs(continuity_contraction(kern_basic, k, p)) < 1e-14
    assert abs(continuity_contraction(kern_tensor, k, p)) < 1e-13
    printed = TensorKernel([1, 0, 0, 0], M, "as_printed")
    # the printed contraction misses by -2 m^2 (k.n - p.n) / (2 sqrt(e e'))
    got = continuity_contraction(printed, k, p)
    ek, ep = energy(k, M), energy(p, M)
    expect = -2 * M * M * (ek - ep) / (2 * np.sqrt(ek * ep))
    assert got == pytest.approx(expect, rel=1e-12)


def test_gram_single_point(kern_basic):
    assert gram_min_eigenvalue(np.array([[0.3, 0.1, 0.0]]), kern_basic) == \
        pytest.approx(1.0, abs=1e-14)


def test_gram_causal_profile_nonnegative(kern_basic):
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 3))
    pts *= (3.0 * M * rng.uniform(0, 1, 200) ** (1 / 3)
            / np.linalg.norm(pts, axis=1))[:, None]
    assert gram_min_eigenvalue(pts, kern_basic) >= -1e-10


def test_gram_oscillatory_profile_indefinite():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 3))
    pts *= (3.0 * M * rng.uniform(0, 1, 200) ** (1 / 3)
            / np.linalg.norm(pts, axis=1))[:, None]
    kern = CausalKernel(GFunction.oscillatory(50.0, M), M)
    assert gram_min_eigenvalue(pts, kern) < -0.1


def test_gram_input_validation(kern_basic):
    with pytest.raises(ValueError):
        gram_min_eigenvalue(np.zeros((0, 3)), kern_basic)


def _decimal_K(k, p, r=1.5):
    """K(k, p) and eps(k) eps(p) at 60 digits from the float momenta (m = 1)."""
    with localcontext() as ctx:
        ctx.prec = 60
        kd = [Decimal(float(v)) for v in k]
        pd = [Decimal(float(v)) for v in p]
        ek = (1 + sum(v * v for v in kd)).sqrt()
        ep = (1 + sum(v * v for v in pd)).sqrt()
        t = ek * ep - sum(a * b for a, b in zip(kd, pd))
        g = (Decimal(2) / (1 + t)) ** Decimal(r)
        pref = g / (2 * (ek * ep).sqrt())
        K = [(ek + ep) * pref] + [(a + b) * pref for a, b in zip(kd, pd)]
        return np.array([float(v) for v in K]), float(ek * ep)


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_onshell_products_at_large_momenta(kern_basic, scale):
    # eps(k) eps(p) - k.p cancels terms of order |p|^2: near-diagonal and
    # collinear pairs put the computed t below m^2 unless it is clamped
    rng = np.random.default_rng(11)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    p = scale * u
    pts = np.array([p, p + 1e-3 * rng.normal(size=3), p + 0.3 * rng.normal(size=3),
                    p * (1 + 1e-12), p * 0.5, p * 2.0, -p, scale * rng.normal(size=3)])
    G = gram_matrix(pts, kern_basic)
    K = kernel_K(pts[:, None, :], pts[None, :, :], kern_basic)
    for i in range(len(pts)):
        for j in range(len(pts)):
            ref, ee = _decimal_K(pts[i], pts[j])
            bound = 4 * 2.0 ** -52 * ee * np.abs(ref).max()
            assert abs(G[i, j] - ref[0]) <= bound, (i, j)
            assert np.abs(K[i, j] - ref).max() <= bound, (i, j)


def test_parse_kernel_spec():
    k = parse_kernel_spec("basic:r=1.5", M)
    assert isinstance(k, CausalKernel) and k.g.r == 1.5
    k = parse_kernel_spec("basic:r=2.5:printed", 1.0)
    assert k.g.printed
    t = parse_kernel_spec("tensor:n=(1,0,0,0):variant=standard", M)
    assert isinstance(t, TensorKernel)
    assert t.variant == "stress_energy_standard"
    t2 = parse_kernel_spec("tensor:n=(1.25,0,0,0.75):variant=printed", M)
    assert t2.variant == "as_printed"
    o = parse_kernel_spec("oscillatory:omega=50", M)
    assert "oscillatory" in o.label
    with pytest.raises(ValueError):
        parse_kernel_spec("mystery:x=1", M)
