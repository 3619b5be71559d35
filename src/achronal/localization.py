"""Localization probabilities as fluxes through achronal surface regions.

The probability of finding the state in a region (graph of tau restricted
to a spatial mask) is the flux

    p = integral over mask of (J0(tau(x), x) - J(tau(x), x).grad tau(x)) d^3x,

realized as a Riemann sum over the window nodes of the conjugate position
grid.  The flux needs the current only at the surface nodes (tau(x), x),
and it is evaluated once per state and surface: a list of masks on one
surface (a partition, say) shares that evaluation, on the union of their
nodes, and the integrand is then summed per mask.  When tau is constant
and grad tau exactly zero on those nodes (flat surfaces and their images
under rotations and translations), the integrand is J0 and one slice at
that time covers the window (FastBackend.slice_fields with window_half,
one component): a causal J0 from the pairs of support nodes binned by
lattice difference, a stress-energy one from a separable sum of its five
auxiliary fields from the support's momentum box to the window's nodes;
neither computes a node outside the window.
Otherwise the current is evaluated at the nodes themselves with the
phase-matrix product of FastBackend.current_at.

The reported error is the sum of three terms, each kept in the result's
meta:

* err_spectral: the absolute flux times the backend's spectral_tail, the
  trace bound on the relative eigenvalue weight its factorization leaves
  out (nan when the profile is not positive semi-definite on the support);
* err_window: the absolute flux through the window's outermost node layer,
  which stands for what the window cuts off (flux_invariance_report's
  boundary_flux_fraction is the largest err_window / |probability|);
* err_region: the absolute flux through the nodes whose cell the region
  boundary crosses, where the 0/1 node membership is a staircase.

Masks are exact predicates evaluated at nodes; because the position grid is
cell-centered, strict half-space and octant predicates partition nodes
without boundary ties.

The Poincare image of a region is an ordinary region: its surface is the
image graph SurfaceTransformResult(g, surface) and its mask is ImageMask,
which decides membership of a point y by its source point S^{-1}(y), so
`probability` serves both.  A backend passed in must be built for the
spec's kernel; another kernel's raises BackendMismatchError.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .currents import (BackendMismatchError, CurrentSpec, FastBackend, SupportData,
                       build_fast, covariant_spec)
from .grids import position_window_axis
from .minkowski import PoincareElement
from .surfaces import AchronalSurface, Described, FlatSurface, SurfaceTransformResult
from .wavepacket import WavePacket, combine


class MaskOverlapError(ValueError):
    """Partition masks intersect on quadrature nodes."""


class UnsupportedGeometryError(ValueError):
    """No closed-form causal shadow for this mask."""


# ---------------------------------------------------------------------------
# spatial masks
# ---------------------------------------------------------------------------


class Mask(Described):
    keys = {"inner": "of"}

    def contains(self, pts):
        raise NotImplementedError

    def label(self) -> str:
        return json.dumps(self.descriptor(), separators=(",", ":"))


@dataclass(frozen=True)
class FullMask(Mask):
    kind = "full"

    def contains(self, pts):
        return np.ones(np.asarray(pts).shape[:-1], dtype=bool)


@dataclass(frozen=True)
class BallMask(Mask):
    center: tuple
    radius: float
    kind = "ball"

    def contains(self, pts):
        d = np.asarray(pts, dtype=float) - np.asarray(self.center)
        return np.sum(d * d, axis=-1) <= self.radius ** 2


@dataclass(frozen=True)
class BoxMask(Mask):
    lo: tuple
    hi: tuple
    kind = "box"

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.all((pts >= np.asarray(self.lo)) & (pts <= np.asarray(self.hi)), axis=-1)


@dataclass(frozen=True)
class HalfSpaceMask(Mask):
    """normal.x > offset (strict)."""

    normal: tuple
    offset: float = 0.0
    kind = "half_space"

    def contains(self, pts):
        return np.asarray(pts, dtype=float) @ np.asarray(self.normal) > self.offset


@dataclass(frozen=True)
class ComplementMask(Mask):
    inner: Mask
    kind = "complement"

    def contains(self, pts):
        return ~self.inner.contains(pts)


@dataclass(frozen=True)
class UnionMask(Mask):
    parts: tuple[Mask, ...]
    kind = "union"

    def contains(self, pts):
        return np.logical_or.reduce([p.contains(pts) for p in self.parts])


@dataclass(frozen=True)
class IntersectionMask(Mask):
    parts: tuple[Mask, ...]
    kind = "intersection"

    def contains(self, pts):
        return np.logical_and.reduce([p.contains(pts) for p in self.parts])


@dataclass(frozen=True)
class ImageMask(Mask):
    """The image of `inner` under a surface transform: y is inside when its
    source point S^{-1}(y) is."""

    inner: Mask
    transform: SurfaceTransformResult
    kind = "image_mask"

    def contains(self, pts):
        return self.inner.contains(self.transform.s_inverse(pts))


@dataclass(frozen=True)
class ShadowMask(Mask):
    """The influence region of the flat ball `inner` at time t0 on the graph
    surface `target`: |y - c| <= r + |tau(y) - t0|."""

    inner: Mask
    t0: float
    target: AchronalSurface
    kind = "causal_shadow"

    def __post_init__(self):
        if not isinstance(self.inner, BallMask):
            raise UnsupportedGeometryError(
                f"no closed-form causal shadow for mask {self.inner.label()}")

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        reach = self.inner.radius + np.abs(self.target.tau(pts) - self.t0)
        return np.linalg.norm(pts - np.asarray(self.inner.center, dtype=float), axis=-1) <= reach


@dataclass(frozen=True)
class Region:
    surface: AchronalSurface
    mask: Mask = field(default_factory=FullMask)


@dataclass(frozen=True)
class LocalizationResult:
    probability: float
    error_estimate: float
    surface: str
    mask: str
    meta: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


def _window_nodes(grid, window_half: Optional[int], refine: int):
    """The window's nodes (N, 3), in the order of a (W, W, W) window slice,
    with their spacing and the window's half width in nodes."""
    half = grid.n // 3 if window_half is None else int(window_half)
    win = position_window_axis(grid, half, refine)
    X, Y, Z = np.meshgrid(win, win, win, indexing="ij")
    ax = grid.position_axis(refine)
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1), ax[1] - ax[0], half


# cell corners relative to the node, in units of the node spacing; pulled in
# by 1e-9 so that region edges on cell faces leave the cell's corners agreeing
_CORNERS = 0.5 * (1.0 - 1e-9) * np.array(list(itertools.product((-1.0, 1.0), repeat=3)))

_BUDGET = ("err_spectral", "err_window", "err_region")


def _straddles(mask, pts, dx):
    """Nodes whose cell the region boundary crosses: the mask membership of
    the cell's 8 corners disagrees."""
    corners = pts[:, None, :] + dx * _CORNERS[None, :, :]
    inside = mask.contains(corners.reshape(-1, 3)).reshape(len(pts), 8)
    return inside.any(axis=1) & ~inside.all(axis=1)


def _flux_quadrature(spec: CurrentSpec, backend: FastBackend, half: int, union,
                     points, tvals, grads, refine: int):
    """Flux integrand J0 - J.grad tau and J0 at the selected nodes.

    `union` selects nodes of the window of `half` nodes per side (in the
    order of _window_nodes) and `points` holds their coordinates; tvals and
    grads give the surface data there.  Returns
    (integrand, J0, {"slices": window slices used}).
    """
    tmin, tmax = float(np.min(tvals)), float(np.max(tvals))
    if tmax - tmin < 1e-12 and not np.any(grads):
        # a flat surface: the integrand is J0, one window slice of its fields
        J0 = backend.slice_fields(spec.packet, 0.5 * (tmin + tmax), refine=refine,
                                  components=1, window_half=half).reshape(-1)[union]
        return J0, J0, {"slices": 1}
    Jn = backend.current_at(spec.packet, np.column_stack([tvals, points]))
    return Jn[0] - np.sum(Jn[1:] * grads.T, axis=0), Jn[0], {"slices": 0}


def _region_fluxes(spec: CurrentSpec, surface: AchronalSurface, masks: Sequence[Mask],
                   backend: Optional[FastBackend] = None,
                   window_half: Optional[int] = None, refine: int = 1,
                   normalization: str = "raw"):
    """Probabilities of the surface regions cut out by each mask.

    The current is evaluated once, on the union of the masks' window nodes,
    and the integrand is then summed per mask, each with its own error
    budget.  Returns the results and the masks' membership of the window
    nodes, shape (len(masks), nodes).
    """
    backend = backend or build_fast(spec)
    if backend.kernel.label != spec.kernel.label:
        raise BackendMismatchError(f"backend built for kernel {backend.kernel.label!r}")
    grid = spec.packet.grid
    nodes, dx, half = _window_nodes(grid, window_half, refine)
    members = np.array([m.contains(nodes) for m in masks]).reshape(len(masks), len(nodes))
    union = members.any(axis=0)
    pts = nodes[union]
    integrand = j0 = np.zeros(0)
    quad = {"slices": 0}
    if len(pts):
        integrand, j0, quad = _flux_quadrature(
            spec, backend, half, union, pts, surface.tau(pts), surface.gradient(pts), refine)
    outer = np.abs(pts).max(axis=1) > (half * refine - 1) * dx
    weight, offset = dx ** 3, float(surface.tau(np.zeros((1, 3)))[0])
    results = []
    for mask, member in zip(masks, members):
        part = member[union]
        f = integrand[part]
        prob = float(np.sum(f) * weight)
        meta = {"slices": quad["slices"],
                "err_spectral": float(np.sum(np.abs(f)) * weight) * backend.spectral_tail,
                "err_window": float(np.sum(np.abs(f[outer[part]])) * weight),
                "err_region": float(np.sum(np.abs(
                    f[_straddles(mask, pts[part], dx)])) * weight),
                "min_integrand": float(f.min(initial=0.0)),
                "max_j0": float(j0[part].max(initial=0.0)),
                "window_half_nodes": half, "refine": refine,
                "window_extent": float(half * grid.position_spacing),
                "raw_probability": prob, "surface_offset_at_origin": offset}
        err = sum(meta[key] for key in _BUDGET)
        prob, err = _apply_normalization(spec, prob, err, normalization, meta)
        results.append(LocalizationResult(prob, err, surface.label(), mask.label(), meta))
    return results, members


def probability(spec: CurrentSpec, region: Region,
                backend: Optional[FastBackend] = None,
                window_half: Optional[int] = None, refine: int = 1,
                normalization: str = "raw") -> LocalizationResult:
    """Localization probability of spec.packet in the region.

    The flux runs over the window nodes that lie in the region's mask.
    `normalization` is "raw" or, for stress-energy currents, "energy"
    (divide by the per-state n-energy expectation so that the full-surface
    flux is the squared norm); the raw value is always kept in meta.
    """
    results, _ = _region_fluxes(spec, region.surface, [region.mask], backend=backend,
                                window_half=window_half, refine=refine,
                                normalization=normalization)
    return results[0]


def _apply_normalization(spec, prob, err, normalization, meta):
    meta["normalization"] = normalization
    if normalization == "raw":
        return prob, err
    if normalization == "energy":
        if not spec.is_stress_energy:
            raise ValueError("energy normalization applies to stress-energy currents")
        scale = spec.packet.energy_expectation(spec.kernel.n)
        meta["energy_expectation"] = scale
        norm2 = spec.packet.norm_squared()
        for key in _BUDGET:
            meta[key] = meta[key] * norm2 / scale
        return prob * norm2 / scale, err * norm2 / scale
    raise ValueError(f"unknown normalization {normalization!r}")


def probability_transformed(spec: CurrentSpec, transform: SurfaceTransformResult,
                            mask: Mask, backend: Optional[FastBackend] = None,
                            **quad) -> LocalizationResult:
    """Probability over the Poincare image of the region (transform.surface,
    mask); `quad` takes probability's window_half, refine and normalization."""
    return probability(spec, Region(transform, ImageMask(mask, transform)),
                       backend=backend, **quad)


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------


def flux_invariance_report(spec: CurrentSpec, surfaces: Sequence[AchronalSurface],
                           backend: Optional[FastBackend] = None,
                           tolerance_budget: float = 2e-2, **quad) -> dict:
    """Full-surface probabilities across maximal surfaces, with deviations.

    Warns (in the report) when the largest share of a flux that crosses the
    window's outermost node layer exceeds a tenth of the tolerance budget.
    """
    backend = backend or build_fast(spec)
    results = [probability(spec, Region(s, FullMask()), backend=backend, **quad)
               for s in surfaces]
    probs = np.array([r.probability for r in results])
    scale = probs.mean()
    dev = 0.0
    if len(probs) > 1:
        dev = float(np.abs(probs[:, None] - probs[None, :]).max() / scale)
    warnings = []
    tail = _window_tail_fraction(results)
    if tail > 0.1 * tolerance_budget:
        warnings.append(
            f"boundary flux fraction {tail:.2e} exceeds a tenth of the "
            f"tolerance budget {tolerance_budget:.2e}")
    return {"results": results, "probabilities": probs.tolist(),
            "max_pairwise_relative_deviation": dev,
            "boundary_flux_fraction": tail, "warnings": warnings}


def _window_tail_fraction(results) -> float:
    """Largest err_window / |probability| over the results: the share of a
    flux that crosses the window's outermost node layer."""
    return max((r.meta["err_window"] / abs(r.probability)
                for r in results if r.probability != 0), default=0.0)


def covariance_check(spec: CurrentSpec, g: PoincareElement, region: Region,
                     backend: Optional[FastBackend] = None,
                     backend_tol: float = 1e-6, **quad):
    """Both sides of the flux covariance: the W(g)^{-1}-moved state on the
    original region versus the original state on the g-image region.

    The moved state's current is J(W(g^{-1}) phi, x) = Lambda^{-1}
    J'(phi, g x), with J' the current of covariant_spec(spec, g^{-1}), so
    its flux through the region is the flux of J'(phi) through the g-image.
    For a stress-energy current the image side therefore carries the member
    Lambda n (Lambda = g.L).  Each side reuses `backend` or the other side's
    when it covers that side, or builds one with `backend`'s build options;
    `backend_tol` is the tolerance of that build when no backend is given.
    """
    from .wavepacket import apply_poincare
    ginv = g.inverse()
    lhs_spec = spec.with_packet(apply_poincare(ginv, spec.packet))
    lhs_backend = _covering_backend(lhs_spec, [backend], tol=backend_tol)
    lhs = probability(lhs_spec, region, backend=lhs_backend, **quad)
    rhs_spec = covariant_spec(spec, ginv)
    rhs_backend = _covering_backend(rhs_spec, [backend, lhs_backend])
    transform = SurfaceTransformResult(g, region.surface)
    rhs = probability(rhs_spec, Region(transform, ImageMask(region.mask, transform)),
                      backend=rhs_backend, **quad)
    return lhs, rhs


def _covering_backend(spec: CurrentSpec, backends, packets=None,
                      tol: float = 1e-6) -> FastBackend:
    """The first of `backends` built for spec's kernel whose node set covers
    the support of every packet (default spec's); otherwise a build_fast of
    spec on the union of the supports, with the build options of the first
    backend given (build_fast's defaults at `tol` when none is)."""
    packets = packets or [spec.packet]
    given = [backend for backend in backends if backend is not None]
    for backend in given:
        if backend.kernel.label != spec.kernel.label:
            continue
        try:
            for packet in packets:
                backend.support.values_of(packet)
            return backend
        except BackendMismatchError:
            pass
    build = given[0].meta["build"] if given else {"tol": tol}
    return build_fast(spec, support=SupportData.from_packets(packets), **build)


def additivity_check(spec: CurrentSpec, surface: AchronalSurface,
                     masks: Sequence[Mask], backend: Optional[FastBackend] = None,
                     **quad) -> dict:
    """|sum of partition probabilities - norm^2| / norm^2.

    One evaluation of the current serves every mask.  The masks must
    partition the window nodes the flux uses exactly: overlapping nodes
    raise, uncovered nodes count toward the reported gap.
    """
    results, members = _region_fluxes(spec, surface, masks, backend=backend, **quad)
    counts = members.sum(axis=0)
    if np.any(counts > 1):
        raise MaskOverlapError(f"{int((counts > 1).sum())} nodes in multiple masks")
    total = float(sum(r.probability for r in results))
    norm2 = spec.packet.norm_squared()
    return {"results": results, "sum": total, "norm_squared": norm2,
            "residual": abs(total - norm2) / norm2,
            "uncovered_nodes": int((counts == 0).sum())}


def matrix_element(spec: CurrentSpec, psi: WavePacket, region: Region,
                   backend: Optional[FastBackend] = None, **quad) -> complex:
    """Polarization of the localization form: (1/4) sum_zeta zeta q(zeta phi + psi).

    Hermitian sesquilinear in (phi, psi), conjugate-linear in phi; the
    diagonal psi = phi reproduces the probability computed with the same
    backend.  A backend is reused when it covers both supports
    (_covering_backend), otherwise one is built on the support union, with
    the given backend's build options.
    """
    phi = spec.packet
    backend = _covering_backend(spec, [backend], [phi, psi])
    out = 0j
    for zeta in (1.0, -1.0, 1j, -1j):
        chi = combine(phi, psi, zeta)
        res = probability(spec.with_packet(chi), region, backend=backend, **quad)
        out += zeta * res.probability
    return out / 4.0


def causal_monotonicity_check(spec: CurrentSpec, ball: BallMask, t0: float,
                              target: AchronalSurface,
                              backend: Optional[FastBackend] = None, **quad):
    """p(ball at t0) versus p(influence region on the target surface)."""
    backend = backend or build_fast(spec)
    p_src = probability(spec, Region(FlatSurface(t0), ball), backend=backend, **quad)
    p_dst = probability(spec, Region(target, ShadowMask(ball, t0, target)), backend=backend,
                        **quad)
    return p_src, p_dst
