"""Momentum-space one-particle states on a compact grid.

A WavePacket stores complex amplitudes phi(p) on a MomentumGrid together
with the particle mass.  Amplitudes vanish identically on an outer margin
band of the grid (discrete compact support), which keeps every momentum
integral a plain weighted sum over support nodes.

The mass-shell unitary representation acts as

    (W(a, A) phi)(p) = sqrt(eps(q)/eps(p)) exp(i a.p_on_shell) phi(q)

with eps(p) = sqrt(m^2 + p^2), p_on_shell = (eps(p), p) and q the spatial
part of A^{-1} p_on_shell.  Translations are exact phase multiplications,
axis rotations by multiples of pi/2 are exact index permutations, generic
Lorentz parts resample the amplitudes by tricubic spline interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import map_coordinates

from .grids import MomentumGrid
from .minkowski import PoincareElement, apply_lorentz, boost_axis

PERMUTATION_TOL = 1e-12


class SupportViolationError(ValueError):
    """Requested packet support would touch the grid margin band."""


class SupportEscapeError(ValueError):
    """A Lorentz transform would move amplitude support off the grid."""


class GridMismatchError(ValueError):
    """Operands live on different grids or carry different masses."""


def energy(p, m: float):
    """Relativistic energy sqrt(m^2 + |p|^2) for 3-vectors of shape (..., 3)."""
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    p = np.asarray(p, dtype=float)
    return np.sqrt(m * m + np.sum(p * p, axis=-1))


def smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, exp-flat at both ends."""
    s = np.asarray(s, dtype=float)
    def bump(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out
    a, b = bump(s), bump(1.0 - s)
    return a / (a + b + np.finfo(float).tiny)


def plateau_window(r, core_radius: float, support_radius: float):
    """1 on [0, core], 0 beyond support, smooth monotone in between."""
    if not 0 < core_radius < support_radius:
        raise ValueError("need 0 < core_radius < support_radius")
    s = (support_radius - np.asarray(r, dtype=float)) / (support_radius - core_radius)
    return smooth_step(s)


@dataclass(frozen=True)
class WavePacket:
    grid: MomentumGrid
    amplitudes: np.ndarray
    mass: float
    margin: int
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        n = self.grid.n
        if amp.shape != (n, n, n):
            raise ValueError(f"amplitudes shape {amp.shape} != grid shape {(n, n, n)}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("non-finite amplitudes")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.margin < 1:
            raise ValueError("margin must be at least one node")
        band = self.grid.margin_mask(self.margin)
        if np.any(amp[band] != 0):
            raise SupportViolationError(
                f"amplitudes non-zero on the {self.margin}-node margin band"
            )
        object.__setattr__(self, "amplitudes", amp)

    # -- support access -------------------------------------------------

    def support_mask(self) -> np.ndarray:
        return self.amplitudes != 0

    def support_points(self) -> np.ndarray:
        return self.grid.points()[self.support_mask()]

    def support_values(self) -> np.ndarray:
        return self.amplitudes[self.support_mask()]

    # -- scalars ---------------------------------------------------------

    def norm_squared(self) -> float:
        return float(self.grid.weight * np.sum(np.abs(self.amplitudes) ** 2))

    def energy_expectation(self, n=None) -> float:
        """Expectation of n.P (Minkowski) over the state; n defaults to (1,0,0,0)."""
        pts = self.support_points()
        eps = energy(pts, self.mass)
        dens = np.abs(self.support_values()) ** 2 * self.grid.weight
        if n is None:
            return float(np.sum(eps * dens))
        n = np.asarray(n, dtype=float)
        return float(np.sum((n[0] * eps - pts @ n[1:]) * dens))

    def with_amplitudes(self, amp, margin=None, **meta) -> "WavePacket":
        merged = dict(self.meta)
        merged.update(meta)
        return WavePacket(self.grid, amp, self.mass,
                          self.margin if margin is None else margin, merged)


def inner_product(phi: WavePacket, psi: WavePacket) -> complex:
    """<phi, psi> = h^3 sum conj(phi) psi, conjugate-linear in the first slot."""
    _check_compatible(phi, psi)
    return complex(phi.grid.weight * np.sum(np.conj(phi.amplitudes) * psi.amplitudes))


def _check_compatible(phi: WavePacket, psi: WavePacket):
    if not phi.grid.same_geometry(psi.grid):
        raise GridMismatchError("packets live on different grids")
    if phi.mass != psi.mass:
        raise GridMismatchError("packets carry different masses")


def combine(phi: WavePacket, psi: WavePacket, scale: complex) -> WavePacket:
    """scale * phi + psi, support union, common margin."""
    _check_compatible(phi, psi)
    amp = scale * phi.amplitudes + psi.amplitudes
    return WavePacket(phi.grid, amp, phi.mass, min(phi.margin, psi.margin),
                      {"kind": "combination"})


# -- construction ---------------------------------------------------------


def make_packet(grid: MomentumGrid, mass: float, kind: str = "mollified_gaussian",
                margin=None, **params) -> WavePacket:
    """Build a compactly supported packet.

    kinds:
      mollified_gaussian          gaussian(sigma, center) times a plateau
                                  window (core_radius, support_radius)
      mollified_gaussian_boosted  the same profile hit with the exact
                                  mass-shell boost (rapidity, axis) before
                                  sampling, so no interpolation enters
      custom                      amplitude=callable(points (...,3))
    """
    margin = grid.n // 8 if margin is None else int(margin)
    if kind == "mollified_gaussian":
        return _mollified_gaussian(grid, mass, margin, boost=None, **params)
    if kind == "mollified_gaussian_boosted":
        rapidity = params.pop("rapidity")
        axis = np.asarray(params.pop("axis", (0.0, 0.0, 1.0)), dtype=float)
        return _mollified_gaussian(grid, mass, margin, boost=(rapidity, axis), **params)
    if kind == "custom":
        fn = params.pop("amplitude")
        support_radius = params.pop("support_radius", None)
        if params:
            raise TypeError(f"unknown custom-packet params {sorted(params)}")
        amp = np.asarray(fn(grid.points()), dtype=complex)
        pkt = WavePacket(grid, amp, mass, margin, {"kind": "custom"})
        if support_radius is not None:
            pkt.meta["support_radius"] = float(support_radius)
        return pkt
    raise ValueError(f"unknown packet kind {kind!r}")


def _mollified_gaussian(grid, mass, margin, boost, sigma=1.0, center=(0.0, 0.0, 0.0),
                        core_radius=None, support_radius=None):
    center = np.asarray(center, dtype=float)
    core_radius = 1.2 * sigma if core_radius is None else float(core_radius)
    support_radius = 2.4 * sigma if support_radius is None else float(support_radius)
    interior = grid.interior_extent(margin)
    reach = np.abs(center).max() + support_radius
    if reach > interior + 1e-12:
        raise SupportViolationError(
            f"support reach {reach:.3f} exceeds interior extent {interior:.3f} "
            f"(p_max={grid.p_max}, margin={margin} nodes)"
        )

    def profile(q):
        r = np.linalg.norm(q - center, axis=-1)
        return np.exp(-r * r / (2 * sigma * sigma)) * plateau_window(r, core_radius, support_radius)

    pts = grid.points()
    if boost is None:
        amp = profile(pts).astype(complex)
        meta = {"kind": "mollified_gaussian", "sigma": sigma,
                "support_radius": support_radius}
    else:
        rapidity, axis = boost
        Linv = boost_axis(axis, -rapidity)
        eps = energy(pts, mass)
        four = np.concatenate([eps[..., None], pts], axis=-1)
        qfour = apply_lorentz(Linv, four)
        q = qfour[..., 1:]
        amp = (np.sqrt(qfour[..., 0] / eps) * profile(q)).astype(complex)
        # map the support ball through the forward boost to bound the new reach
        c, s = np.cosh(rapidity), np.sinh(rapidity)
        rmax = np.linalg.norm(center) + support_radius
        emax = np.sqrt(mass * mass + rmax * rmax)
        reach = abs(c) * rmax + abs(s) * emax
        if reach > interior + 1e-12:
            raise SupportViolationError(
                f"boosted support reach {reach:.3f} exceeds interior extent {interior:.3f}"
            )
        meta = {"kind": "mollified_gaussian_boosted", "sigma": sigma,
                "support_radius": support_radius, "rapidity": rapidity}
    return WavePacket(grid, amp, mass, margin, meta)


# -- Poincare action -------------------------------------------------------


def apply_poincare(g: PoincareElement, phi: WavePacket) -> WavePacket:
    """Act with W(g) on the packet.

    Pure translations multiply by exp(i (a0 eps(p) - a.p)) and are exactly
    unitary.  Axis rotations by multiples of pi/2 permute grid nodes.  Other
    Lorentz parts resample phi at q = spatial(A^{-1} p_on_shell) with the
    sqrt(eps(q)/eps(p)) weight by a tricubic spline on the real and imaginary
    parts.
    """
    amp = phi.amplitudes
    margin = phi.margin
    applied = dict(phi.meta)
    if not g.is_translation:
        perm = _signed_permutation(g.L)
        if perm is not None:
            amp = _permute_amplitudes(amp, phi.grid, perm)
            applied["resample_method"] = "permutation"
        else:
            amp, margin = _lorentz_resample(phi, g)
            applied["resample_method"] = "tricubic"
    if np.any(g.a != 0):
        pts = phi.grid.points()
        eps = energy(pts, phi.mass)
        phase = np.exp(1j * (g.a[0] * eps - pts @ g.a[1:]))
        amp = amp * phase
    return WavePacket(phi.grid, amp, phi.mass, margin, applied)


def _signed_permutation(L):
    """Return the 3x3 spatial block if L is a pure signed-permutation rotation."""
    if np.abs(L[0] - [1, 0, 0, 0]).max() > PERMUTATION_TOL:
        return None
    if np.abs(L[1:, 0]).max() > PERMUTATION_TOL:
        return None
    R = L[1:, 1:]
    snapped = np.round(R)
    if np.abs(R - snapped).max() > PERMUTATION_TOL:
        return None
    if not np.all(np.sum(np.abs(snapped), axis=0) == 1):
        return None
    return snapped


def _permute_amplitudes(amp, grid: MomentumGrid, R3):
    """amp'(p) = amp(R^{-1} p) via exact node index mapping; R^{-1} p = R^T p
    for rotations."""
    idx = np.rint(grid.index_of(grid.points() @ R3)).astype(int)
    return amp[idx[..., 0], idx[..., 1], idx[..., 2]]


def _lorentz_resample(phi: WavePacket, g: PoincareElement):
    grid, m, h = phi.grid, phi.mass, phi.grid.spacing
    pts = grid.points()
    eps = energy(pts, m)
    four = np.concatenate([eps[..., None], pts], axis=-1)
    qfour = apply_lorentz(g.inverse().L, four)
    q = qfour[..., 1:]

    # pre-check: the forward image of every nonzero support node must stay
    # on the grid with at least one clear margin node
    sup_pts = phi.support_points()
    sup_four = np.concatenate([energy(sup_pts, m)[:, None], sup_pts], axis=1)
    reach = np.abs(apply_lorentz(g.L, sup_four)[:, 1:]).max()
    if reach > grid.p_max - 1.5 * h:
        raise SupportEscapeError(
            f"transformed support reach {reach:.3f} exceeds the grid interior "
            f"{grid.p_max - 1.5 * h:.3f}"
        )

    coords = np.moveaxis(grid.index_of(q), -1, 0)
    amp = np.sqrt(np.maximum(qfour[..., 0], 0.0) / eps) * map_coordinates(
        phi.amplitudes, coords, order=3, mode="constant")
    # kill the spline halo outside the mapped support so compactness survives:
    # the resampled value is genuinely nonzero only when q lands inside the
    # support, so keep nodes whose nearest source node carries amplitude
    # (half-node jitter only clips shell values at the window's zero tail)
    inside = map_coordinates(phi.support_mask().astype(np.uint8), coords,
                             order=0, mode="constant", cval=0) > 0
    amp = np.where(inside, amp, 0.0)
    margin = _recompute_margin(amp, grid)
    if margin < 1:
        raise SupportEscapeError("transformed support reaches the grid boundary")
    return amp, margin


def _recompute_margin(amp, grid: MomentumGrid) -> int:
    nz = np.nonzero(np.abs(amp) > 0)
    if len(nz[0]) == 0:
        return grid.n // 2
    lo = min(int(ix.min()) for ix in nz)
    hi = min(int(grid.n - 1 - ix.max()) for ix in nz)
    return min(lo, hi)
