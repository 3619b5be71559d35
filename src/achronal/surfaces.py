"""Achronal surfaces: graphs of 1-Lipschitz functions tau over R^3.

Analytic families (flat, tilted, bump, cone) carry exact Lipschitz bounds
and closed-form gradients; sampled surfaces live on a position grid with
centered-difference gradients and a discrete Lipschitz validation over the
full 26-neighborhood.

The Poincare image of a graph is again an achronal graph, and
SurfaceTransformResult is an ordinary AchronalSurface: its tau and gradient
follow the graph map

    S(x) = spatial(g . (tau(x), x)),    tau^g(y) = time(g . (tau(x), x)),
    x = S^{-1}(y),

with S bijective for achronal graphs and proper orthochronous g.  The
transformed gradient obeys

    (1, grad tau^g(y)) = |det DS(x)|^{-1} Lambda . (1, grad tau(x)),

which `transform_gradient_data` evaluates in closed form; S^{-1} is solved
by damped Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .minkowski import PoincareElement

LIPSCHITZ_TOL = 1e-12


class FoldOverError(RuntimeError):
    """Newton inversion of the graph map failed; input not achronal."""


class SurfaceDomainError(ValueError):
    """Point outside the surface's spatial domain."""


class AchronalSurface:
    """Base for graph surfaces; subclasses define tau/gradient/flatten."""

    kind = "abstract"

    def tau(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    @property
    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    def flatten(self, gamma: float) -> "AchronalSurface":
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        d = self.descriptor()
        items = ",".join(f"{k}={v}" for k, v in d.items() if k != "type")
        return f"{d['type']}({items})"


@dataclass(frozen=True)
class FlatSurface(AchronalSurface):
    t0: float = 0.0
    kind = "flat"

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.t0)

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    @property
    def lipschitz_bound(self):
        return 0.0

    def flatten(self, gamma):
        return FlatSurface(gamma * self.t0)

    def descriptor(self):
        return {"type": "flat", "t0": self.t0}


@dataclass(frozen=True)
class TiltedSurface(AchronalSurface):
    """tau(x) = e.x + offset with |e| <= 1."""

    e: tuple
    offset: float = 0.0
    kind = "tilted"

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float).reshape(3)
        if np.linalg.norm(e) > 1.0 + 1e-12:
            raise ValueError(f"|e| = {np.linalg.norm(e)} > 1 is not achronal")
        object.__setattr__(self, "e", tuple(e))

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        return x @ np.asarray(self.e) + self.offset

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(self.e), x.shape).copy()

    @property
    def lipschitz_bound(self):
        return float(np.linalg.norm(self.e))

    def flatten(self, gamma):
        return TiltedSurface(tuple(gamma * v for v in self.e), gamma * self.offset)

    def descriptor(self):
        return {"type": "tilted", "e": list(self.e), "offset": self.offset}


@dataclass(frozen=True)
class BumpSurface(AchronalSurface):
    """tau(x) = amplitude * scale * (sqrt(1 + |x|^2/scale^2) - 1)."""

    amplitude: float
    scale: float = 2.0
    kind = "bump"

    def __post_init__(self):
        if abs(self.amplitude) >= 1.0:
            raise ValueError("|amplitude| must be < 1 for achronality")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        return self.amplitude * self.scale * (np.sqrt(1.0 + r2 / self.scale ** 2) - 1.0)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        denom = self.scale * np.sqrt(1.0 + r2 / self.scale ** 2)
        return self.amplitude * x / denom[..., None]

    @property
    def lipschitz_bound(self):
        return abs(self.amplitude)

    def flatten(self, gamma):
        return BumpSurface(gamma * self.amplitude, self.scale)

    def descriptor(self):
        return {"type": "bump", "amplitude": self.amplitude, "scale": self.scale}


@dataclass(frozen=True)
class ConeSurface(AchronalSurface):
    """tau(x) = offset + gamma |x - apex|; gradient undefined at the apex.

    The apex reports the one-sided gradient gamma e_1; its quadrature
    contribution is O(h^3) and the integrand is defined almost
    everywhere.  A negative gamma with positive offset gives the downward
    cone patches spanning a causal diamond.
    """

    gamma: float
    apex: tuple = (0.0, 0.0, 0.0)
    offset: float = 0.0
    kind = "cone"

    def __post_init__(self):
        if abs(self.gamma) > 1.0:
            raise ValueError("|gamma| must be <= 1 for achronality")
        object.__setattr__(self, "apex", tuple(float(v) for v in self.apex))

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        return self.offset + self.gamma * np.linalg.norm(x - np.asarray(self.apex), axis=-1)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        d = x - np.asarray(self.apex)
        r = np.linalg.norm(d, axis=-1)
        at_apex = r < 1e-12
        safe = np.where(at_apex[..., None], 1.0, r[..., None])
        g = self.gamma * d / safe
        return np.where(at_apex[..., None], self.gamma * np.array([1.0, 0.0, 0.0]), g)

    @property
    def lipschitz_bound(self):
        return abs(self.gamma)

    def flatten(self, gamma):
        return ConeSurface(gamma * self.gamma, self.apex, gamma * self.offset)

    def descriptor(self):
        return {"type": "cone", "gamma": self.gamma, "apex": list(self.apex),
                "offset": self.offset}


_NEIGHBOR_DIRS = [np.array(d) for d in
                  [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                   (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                   (0, 1, 1), (0, 1, -1),
                   (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]]


@dataclass(frozen=True)
class SampledSurface(AchronalSurface):
    """tau sampled on a uniform position grid (patch, not maximal).

    values[i, j, k] = tau(origin + (i, j, k) * spacing).  Gradients are
    centered differences, one-sided at the edges.  Construction validates
    the discrete 1-Lipschitz bound over the 26-neighborhood unless
    `validate=False` (used only to probe failure paths).
    """

    values: np.ndarray
    origin: tuple
    spacing: float
    validate: bool = field(default=True, compare=False)
    kind = "sampled"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise ValueError("sampled surface needs a 3-d value cube")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        if not self.validate:
            return
        for d in _NEIGHBOR_DIRS:
            sl_from = tuple(slice(max(di, 0), v.shape[i] + min(di, 0))
                            for i, di in enumerate(d))
            sl_to = tuple(slice(max(-di, 0), v.shape[i] + min(-di, 0))
                          for i, di in enumerate(d))
            worst = np.abs(v[sl_from] - v[sl_to]).max(initial=0.0)
            dist = self.spacing * np.linalg.norm(d)
            if worst > dist + LIPSCHITZ_TOL:
                raise ValueError(
                    f"discrete 1-Lipschitz bound violated: |dtau| = {worst:.6g} "
                    f"over |dx| = {dist:.6g}"
                )

    def _indices(self, x):
        x = np.asarray(x, dtype=float)
        idx = (x - np.asarray(self.origin)) / self.spacing
        if np.any(idx < -1e-9) or np.any(idx > np.asarray(self.values.shape) - 1 + 1e-9):
            raise SurfaceDomainError("point outside the sampled domain")
        return idx

    def tau(self, x):
        from scipy.ndimage import map_coordinates
        x = np.asarray(x, dtype=float)
        idx = self._indices(x.reshape(-1, 3))
        out = map_coordinates(self.values, idx.T, order=1, mode="nearest")
        return out.reshape(x.shape[:-1])

    def gradient(self, x):
        from scipy.ndimage import map_coordinates
        x = np.asarray(x, dtype=float)
        grads = np.gradient(self.values, self.spacing, edge_order=2)
        idx = self._indices(x.reshape(-1, 3))
        return np.stack([map_coordinates(gi, idx.T, order=1, mode="nearest")
                         for gi in grads], axis=-1).reshape(x.shape)

    @property
    def lipschitz_bound(self):
        grads = np.gradient(self.values, self.spacing, edge_order=2)
        return float(np.sqrt(sum(gi ** 2 for gi in grads)).max())

    def flatten(self, gamma):
        return SampledSurface(gamma * self.values, self.origin, self.spacing)

    def descriptor(self):
        return {"type": "sampled", "shape": list(self.values.shape),
                "origin": list(self.origin), "spacing": self.spacing}


def surface_from_descriptor(d: dict) -> AchronalSurface:
    kind = d["type"]
    if kind == "flat":
        return FlatSurface(float(d.get("t0", 0.0)))
    if kind == "tilted":
        return TiltedSurface(tuple(d["e"]), float(d.get("offset", 0.0)))
    if kind == "bump":
        return BumpSurface(float(d["amplitude"]), float(d.get("scale", 2.0)))
    if kind == "cone":
        return ConeSurface(float(d["gamma"]), tuple(d.get("apex", (0, 0, 0))),
                           float(d.get("offset", 0.0)))
    raise ValueError(f"unknown surface descriptor {d!r}")


def flatten(surface: AchronalSurface, gamma: float) -> AchronalSurface:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return surface.flatten(gamma)


def is_spacelike_cauchy(surface: AchronalSurface, samples=None, rng=None,
                        shell_radius: float = 1e4):
    """Sample-based spacelike Cauchy check.

    Verifies the strict pairwise inequality |tau(x) - tau(y)| < |x - y| on
    sample pairs and the asymptotic slope max |tau|/|x| < 1 on a far shell.
    Returns (ok, witness), witness being a violating pair or shell point.
    """
    rng = rng or np.random.default_rng(0)
    if samples is None:
        samples = rng.uniform(-8.0, 8.0, size=(256, 3))
    samples = np.asarray(samples, dtype=float)
    t = surface.tau(samples)
    dx = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=-1)
    dt = np.abs(t[:, None] - t[None, :])
    viol = (dt >= dx - LIPSCHITZ_TOL) & (dx > 1e-9)
    if np.any(viol):
        i, j = np.argwhere(viol)[0]
        return False, (samples[i], samples[j])
    dirs = rng.normal(size=(128, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    shell = shell_radius * dirs
    slope = np.abs(surface.tau(shell)) / shell_radius
    if slope.max() >= 1.0 - 1e-9:
        return False, (shell[int(np.argmax(slope))],)
    return True, None


# ---------------------------------------------------------------------------
# Poincare transforms of graphs
# ---------------------------------------------------------------------------


def transform_gradient_data(L, z):
    """Closed-form transformed slope and Jacobian at a point with slope z.

    Given the source gradient z = grad tau(x) (|z| <= 1) and a proper
    orthochronous L, returns (grad_g, det) with grad_g = grad tau^g at
    y = S(x) and det = det DS(x), via DS = L_sp0 (x) z + L_spsp and
    grad tau^g = DS^{-T} (L00 z + L0_sp).

    The pair satisfies (1, grad_g) = L (1, z) / |det|.
    """
    L = np.asarray(L, dtype=float)
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = z.reshape(-1, 3)
    DS = L[1:, 1:][None, :, :] + L[1:, 0][None, :, None] * Z[:, None, :]
    det = np.linalg.det(DS)
    rhs = L[0, 0] * Z + L[0, 1:][None, :]
    grad = np.linalg.solve(np.swapaxes(DS, 1, 2), rhs[..., None])[..., 0]
    if single:
        return grad[0], float(det[0])
    return grad, det


# damped-Newton settings of SurfaceTransformResult.s_inverse
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class SurfaceTransformResult(AchronalSurface):
    """The g-image of a graph surface: tau, gradient, S, S^{-1}, |det DS|."""

    g: PoincareElement
    surface: AchronalSurface
    kind = "image"

    def s_forward(self, x):
        x = np.asarray(x, dtype=float)
        t = self.surface.tau(x)
        four = np.concatenate([t[..., None], x], axis=-1)
        return self.g.act(four)[..., 1:]

    def tau_of_source(self, x):
        x = np.asarray(x, dtype=float)
        t = self.surface.tau(x)
        four = np.concatenate([t[..., None], x], axis=-1)
        return self.g.act(four)[..., 0]

    def s_inverse(self, y):
        """Solve S(x) = y by damped Newton; FoldOverError on failure."""
        y = np.asarray(y, dtype=float)
        Y = y.reshape(-1, 3)
        L, a = self.g.L, self.g.a
        A = L[1:, 1:]
        Ainv = np.linalg.inv(A)
        b = L[1:, 0]
        # seed: affine inverse with tau evaluated iteratively
        x = (Y - a[1:][None, :]) @ Ainv.T
        for _ in range(3):
            t = self.surface.tau(x)
            x = (Y - a[1:][None, :] - t[:, None] * b[None, :]) @ Ainv.T
        resid = self.s_forward(x) - Y
        for _ in range(NEWTON_MAX_ITER):
            norm = np.linalg.norm(resid, axis=1)
            if norm.max(initial=0.0) < NEWTON_TOL:
                break
            grad = self.surface.gradient(x)
            DS = A[None, :, :] + b[None, :, None] * grad[:, None, :]
            step = np.linalg.solve(DS, resid[..., None])[..., 0]
            damp = np.ones(len(Y))
            xn = x - step
            rn = self.s_forward(xn) - Y
            worse = np.linalg.norm(rn, axis=1) > norm
            tries = 0
            while np.any(worse) and tries < 30:
                damp[worse] *= 0.5
                xn = x - damp[:, None] * step
                rn = self.s_forward(xn) - Y
                worse = np.linalg.norm(rn, axis=1) > norm
                tries += 1
            x, resid = xn, rn
        else:
            raise FoldOverError(
                "graph-map inversion did not converge; surface not achronal?"
            )
        return x.reshape(y.shape)

    def tau(self, y):
        return self.tau_of_source(self.s_inverse(y))

    def gradient(self, y):
        y = np.asarray(y, dtype=float)
        z = self.surface.gradient(self.s_inverse(y))
        grad, _ = transform_gradient_data(self.g.L, z.reshape(-1, 3))
        return grad.reshape(y.shape)

    def jacobian_det(self, x):
        z = self.surface.gradient(np.atleast_2d(x))
        _, det = transform_gradient_data(self.g.L, z)
        return det if np.asarray(x).ndim > 1 else float(det[0])

    def descriptor(self):
        return {"type": "image", "g": {"a": self.g.a.tolist(), "L": self.g.L.tolist()},
                "of": self.surface.descriptor()}

    def label(self):
        return f"image({self.surface.label()})"


def transform_surface(g: PoincareElement, surface: AchronalSurface,
                      domain_samples=None) -> SurfaceTransformResult:
    """Transformed-surface evaluators; checks bijectivity on samples."""
    result = SurfaceTransformResult(g, surface)
    if domain_samples is not None:
        pts = np.asarray(domain_samples, dtype=float)
        ys = result.s_forward(pts)
        back = result.s_inverse(ys)
        if np.abs(back - pts).max() > 1e-8:
            raise FoldOverError("S^{-1}(S(x)) != x on domain samples")
    return result
