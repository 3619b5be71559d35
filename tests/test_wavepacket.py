import numpy as np
import pytest

from achronal.grids import MomentumGrid, momentum_to_position
from achronal.minkowski import PoincareElement, boost_z, fourvector, rotation
from achronal.wavepacket import (GridMismatchError, SupportEscapeError,
                                 SupportViolationError, WavePacket,
                                 apply_poincare, combine, energy,
                                 inner_product, make_packet)

MASS = 1.0


def momentum_to_position_direct(node_values: np.ndarray, nodes: np.ndarray,
                                points: np.ndarray) -> np.ndarray:
    """Reference mode sum F(x) = sum_p f(p) exp(i p.x) at arbitrary points.

    nodes: (k, 3) momentum nodes, node_values: (..., k), points: (j, 3).
    """
    phases = np.exp(1j * (points @ nodes.T))
    return node_values @ phases.T


def test_energy_at_rest():
    assert energy(np.zeros(3), 1.0) == 1.0


def test_energy_closed_value():
    assert energy(np.array([0, 0, np.sqrt(3.0)]), 1.0) == pytest.approx(2.0, abs=1e-14)


def test_energy_rotation_invariant():
    rng = np.random.default_rng(0)
    p = rng.normal(size=3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    R3 = rotation(axis, 1.234)[1:, 1:]
    assert energy(R3 @ p, 1.0) == pytest.approx(energy(p, 1.0), abs=1e-14)


def test_energy_rejects_bad_mass():
    with pytest.raises(ValueError):
        energy(np.zeros(3), 0.0)


def test_fft_transform_matches_direct_modes(grid16):
    # the whole conjugate grid is the centred window of half n/2
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    F = momentum_to_position(vals, grid16, 1, 0, 8)
    ax = grid16.position_axis()
    pts = np.array([[ax[3], ax[7], ax[12]], [ax[0], ax[15], ax[8]]])
    ref = momentum_to_position_direct(vals.reshape(-1), grid16.node_coordinates(), pts)
    got = np.array([F[3, 7, 12], F[0, 15, 8]])
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-13


def test_fft_transform_refined_matches_direct_modes(grid16):
    # refine 2 evaluates the n^3 cube on the (2n)^3 grid; a leading axis
    # stacks two transforms
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((2,) + (16,) * 3) + 1j * rng.standard_normal((2,) + (16,) * 3)
    F = momentum_to_position(vals, grid16, 2, 0, 8)
    assert F.shape == (2,) + (32,) * 3
    ax = grid16.position_axis(refine=2)
    idx = [(3, 7, 12), (0, 31, 8), (16, 15, 27)]
    pts = np.array([[ax[i], ax[j], ax[k]] for i, j, k in idx])
    ref = momentum_to_position_direct(vals.reshape(2, -1), grid16.node_coordinates(), pts)
    got = np.array([[F[b][i, j, k] for i, j, k in idx] for b in range(2)])
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-13


def test_fft_two_node_packet_analytic(grid16):
    # two-node test pins the phase convention: F(x) = sum exp(i p.x)
    vals = np.zeros((16,) * 3, dtype=complex)
    vals[4, 8, 9] = 1.0
    vals[10, 2, 7] = 2.0 - 1.0j
    p1, p2 = grid16.points()[[4, 10], [8, 2], [9, 7]]
    F = momentum_to_position(vals, grid16, 1, 0, 8)
    ax = grid16.position_axis()
    x = np.array([ax[5], ax[6], ax[1]])
    expect = np.exp(1j * p1 @ x) + (2 - 1j) * np.exp(1j * p2 @ x)
    assert abs(F[5, 6, 1] - expect) < 1e-12


def test_zero_packet_norm(grid16):
    pkt = WavePacket(grid16, np.zeros((16,) * 3, dtype=complex), MASS, 2)
    assert pkt.norm_squared() == 0.0


def test_norm_homogeneity(packet16):
    doubled = packet16.with_amplitudes(2.0 * packet16.amplitudes)
    assert doubled.norm_squared() == pytest.approx(4 * packet16.norm_squared(),
                                                   rel=1e-12)


def test_norm_against_fine_grid_oracle():
    # independent oracle: same profile quadratured at 4x resolution
    coarse = make_packet(MomentumGrid(32, 4.0), MASS, sigma=1.0)
    ref = make_packet(MomentumGrid(128, 4.0), MASS, sigma=1.0, margin=16)
    assert coarse.norm_squared() == pytest.approx(ref.norm_squared(), rel=1e-4)


def test_packet_symmetry_and_peak(grid16):
    pkt = make_packet(grid16, MASS, sigma=1.0, core_radius=0.9, support_radius=1.8)
    amp = pkt.amplitudes
    assert np.abs(amp - amp[::-1, :, :]).max() < 1e-15
    assert np.abs(amp.imag).max() == 0.0
    pkt2 = make_packet(grid16, MASS, sigma=0.5, center=(0, 0, 1.0),
                       core_radius=0.5, support_radius=1.0)
    idx = np.unravel_index(np.argmax(np.abs(pkt2.amplitudes)), amp.shape)
    peak = grid16.points()[idx]
    assert np.linalg.norm(peak - [0, 0, 1.0]) <= grid16.spacing * np.sqrt(3) / 2 + 1e-12


def test_disjoint_supports_orthogonal(grid16):
    a = make_packet(grid16, MASS, sigma=0.4, center=(0, 0, 1.2),
                    core_radius=0.3, support_radius=0.6)
    b = make_packet(grid16, MASS, sigma=0.4, center=(0, 0, -1.2),
                    core_radius=0.3, support_radius=0.6)
    assert abs(inner_product(a, b)) < 1e-14


def test_support_violation_raises(grid16):
    with pytest.raises(SupportViolationError):
        make_packet(grid16, MASS, sigma=2.0, core_radius=2.0, support_radius=4.0)


def test_inner_product_properties(grid16, packet16):
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((16,) * 3) * packet16.support_mask()
    psi = packet16.with_amplitudes(packet16.amplitudes * 1j + 0.1 * noise)
    ip = inner_product(packet16, psi)
    assert inner_product(packet16, packet16).imag == 0.0
    assert inner_product(packet16, packet16).real >= 0.0
    assert ip == pytest.approx(np.conj(inner_product(psi, packet16)), abs=1e-14)
    lhs = abs(ip) ** 2
    rhs = packet16.norm_squared() * psi.norm_squared()
    assert lhs <= rhs * (1 + 1e-12)


def test_inner_product_grid_mismatch(packet16):
    other = make_packet(MomentumGrid(16, 2.5), MASS, sigma=0.8,
                        core_radius=0.6, support_radius=1.2)
    with pytest.raises(GridMismatchError):
        inner_product(packet16, other)


def test_identity_action(packet16):
    out = apply_poincare(PoincareElement.identity(), packet16)
    assert np.array_equal(out.amplitudes, packet16.amplitudes)


def test_time_translation_phase(packet16, grid16):
    g = PoincareElement.translation(fourvector(1.0, 0, 0, 0))
    out = apply_poincare(g, packet16)
    eps = energy(grid16.points(), MASS)
    expect = packet16.amplitudes * np.exp(1j * eps)
    assert np.abs(out.amplitudes - expect).max() < 1e-14
    assert np.abs(np.abs(out.amplitudes) - np.abs(packet16.amplitudes)).max() < 1e-14


def test_translation_exactly_unitary(packet16):
    g = PoincareElement.translation(fourvector(0.7, 0.3, -0.2, 0.9))
    out = apply_poincare(g, packet16)
    assert out.norm_squared() == pytest.approx(packet16.norm_squared(), rel=1e-14)


def test_quarter_rotation_exactly_unitary(packet16):
    g = PoincareElement.from_lorentz(rotation([0, 0, 1], np.pi / 2))
    out = apply_poincare(g, packet16)
    assert out.norm_squared() == pytest.approx(packet16.norm_squared(), rel=1e-14)
    assert out.meta["resample_method"] == "permutation"
    # fourfold rotation returns to the start exactly
    cur = packet16
    for _ in range(4):
        cur = apply_poincare(g, cur)
    assert np.abs(cur.amplitudes - packet16.amplitudes).max() < 1e-14


def test_boost_unitarity_within_tolerance(packet16):
    g = PoincareElement.from_lorentz(boost_z(0.3))
    out = apply_poincare(g, packet16)
    drift = abs(out.norm_squared() - packet16.norm_squared()) / packet16.norm_squared()
    assert drift <= 1e-2
    assert out.meta["resample_method"] == "tricubic"


def test_group_law_on_states(packet16):
    g1 = PoincareElement.from_lorentz(boost_z(0.15))
    g2 = PoincareElement.translation(fourvector(0.4, 0.1, 0, -0.3))
    one = apply_poincare(g1 @ g2, packet16)
    two = apply_poincare(g1, apply_poincare(g2, packet16))
    # twice the single-application interpolation tolerance
    base = apply_poincare(g1, packet16)
    tol = 2 * abs(base.norm_squared() - packet16.norm_squared()) + 1e-8
    diff = np.sqrt(np.sum(np.abs(one.amplitudes - two.amplitudes) ** 2)
                   * packet16.grid.weight)
    assert diff <= 2e-2 * np.sqrt(packet16.norm_squared())
    assert abs(one.norm_squared() - two.norm_squared()) <= max(tol, 1e-6)


def test_boost_support_escape(grid16):
    pkt = make_packet(grid16, MASS, sigma=1.0, core_radius=0.9, support_radius=1.8)
    with pytest.raises(SupportEscapeError):
        apply_poincare(PoincareElement.from_lorentz(boost_z(1.5)), pkt)


def test_compact_support_preserved(packet16):
    for g in (PoincareElement.translation(fourvector(0.5, 0.2, 0, 0)),
              PoincareElement.from_lorentz(rotation([0, 1, 0], np.pi / 2)),
              PoincareElement.from_lorentz(boost_z(0.25))):
        out = apply_poincare(g, packet16)
        assert out.margin >= 1
        band = out.grid.margin_mask(out.margin)
        assert np.all(out.amplitudes[band] == 0)


def test_boosted_construction_matches_resampled():
    # analytic boosted construction vs numerically boosted plain packet
    grid = MomentumGrid(32, 4.0)
    pkt = make_packet(grid, MASS, sigma=1.0)
    analytic = make_packet(grid, MASS, "mollified_gaussian_boosted",
                           rapidity=0.25, axis=(0, 0, 1.0), margin=2, sigma=1.0)
    resampled = apply_poincare(PoincareElement.from_lorentz(boost_z(0.25)), pkt)
    num = np.sqrt(np.sum(np.abs(analytic.amplitudes - resampled.amplitudes) ** 2))
    den = np.sqrt(np.sum(np.abs(analytic.amplitudes) ** 2))
    assert num / den < 5e-3


def test_combine_support_union(grid16):
    a = make_packet(grid16, MASS, sigma=0.4, center=(0, 0, 1.0),
                    core_radius=0.3, support_radius=0.6)
    b = make_packet(grid16, MASS, sigma=0.4, center=(0, 0, -1.0),
                    core_radius=0.3, support_radius=0.6)
    c = combine(a, b, 1j)
    assert c.norm_squared() == pytest.approx(a.norm_squared() + b.norm_squared(),
                                             rel=1e-12)
