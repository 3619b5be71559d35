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

with S bijective for achronal graphs and proper orthochronous g.  With
w = Lambda . (1, grad tau(x)), the image's slope and Jacobian are

    (1, grad tau^g(y)) = w / w_0,    det DS(x) = w_0 > 0

(`transform_gradient_data`), and S^{-1}(y) lies on a line through
Lambda's spatial inverse image of y, at the root of one monotone scalar
equation (`SurfaceTransformResult.s_inverse`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields

import numpy as np

from .minkowski import PoincareElement

LIPSCHITZ_TOL = 1e-12


class FoldOverError(RuntimeError):
    """Newton inversion of the graph map failed; input not achronal."""


class SurfaceDomainError(ValueError):
    """Point outside the surface's spatial domain."""


class DescriptorError(ValueError):
    """A descriptor of unknown type, with unknown or missing keys or a rejected value."""


def _subclasses(cls):
    return [s for sub in cls.__subclasses__() for s in (sub, *_subclasses(sub))]


class Described:
    """Dataclasses written to and read from JSON descriptors.

    A descriptor is {"type": kind, field: value, ...}, one key per field in
    field order, renamed where `keys` says (a mask's `inner` is "of").  A
    nested Described value is written as its descriptor, a PoincareElement
    as {"a": [4 floats], "L": [4 rows of 4]}, tuples and arrays as lists and
    numpy scalars as plain numbers.  Reading goes by each field's
    annotation (_read): lists become tuples, `float` fields floats, and a
    nested object is read by the family its field names (`Mask`,
    `tuple[Mask, ...]`, `AchronalSurface`, `PoincareElement`); then the
    class is called, so the dataclass owns every default and every check of
    a value.  Kinds are unique among all Described classes; a class without
    one is not read.
    """

    kind = None
    keys = {}

    def descriptor(self) -> dict:
        return {"type": self.kind,
                **{self.keys.get(f.name, f.name): _write(getattr(self, f.name))
                   for f in fields(self)}}

    @classmethod
    def from_descriptor(cls, d):
        """The object of descriptor d, of cls or a subclass."""
        kind = d.get("type") if isinstance(d, dict) else None
        sub = next((c for c in (cls, *_subclasses(cls))
                    if kind is not None and c.kind == kind), None)
        if sub is None:
            raise DescriptorError(f"unknown {cls.__name__} descriptor {d!r}")
        named = {sub.keys.get(f.name, f.name): f.name for f in fields(sub) if f.init}
        unknown = set(d) - set(named) - {"type"}
        if unknown:
            raise DescriptorError(f"{sub.kind}: unknown keys {sorted(unknown)}")
        types = typing.get_type_hints(sub)
        try:
            return sub(**{named[k]: _read(v, types[named[k]])
                          for k, v in d.items() if k != "type"})
        except (TypeError, ValueError) as exc:
            raise DescriptorError(f"{sub.kind}: {exc}") from exc


def _write(v):
    if isinstance(v, Described):
        return v.descriptor()
    if isinstance(v, PoincareElement):
        return {"a": _write(v.a), "L": _write(v.L)}
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_write(x) for x in v]
    return v.item() if isinstance(v, np.generic) else v


def _read(v, annotation):
    """The value of a field annotated `annotation` from its JSON value v: a
    float; a member of a Described family, read by that family; a
    PoincareElement from {"a", "L"}; a tuple from a list, its elements read
    as T for tuple[T, ...]; anything else as it is.  An object where the
    annotation admits none, or not of the annotated family, raises
    DescriptorError."""
    if annotation is float:
        return float(v)
    if isinstance(annotation, type) and issubclass(annotation, Described):
        return annotation.from_descriptor(v)
    if annotation is PoincareElement and isinstance(v, dict) and set(v) == {"a", "L"}:
        return PoincareElement(v["a"], v["L"])
    if isinstance(v, list):
        element = (typing.get_args(annotation) or (None,))[0]
        return tuple(_read(x, element) for x in v)
    if typing.get_origin(annotation) is tuple:
        raise DescriptorError(f"expected a list, got {v!r}")
    if isinstance(v, dict) or annotation is PoincareElement:
        raise DescriptorError(f"neither a descriptor nor a Poincare element: {v!r}")
    return v


class AchronalSurface(Described):
    """Base for graph surfaces; subclasses define tau/gradient/flatten."""

    def tau(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    @property
    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    def flatten(self, gamma: float) -> "AchronalSurface":
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
    the discrete 1-Lipschitz bound over the 26-neighborhood.
    """

    values: np.ndarray
    origin: tuple
    spacing: float
    kind = "sampled"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise ValueError("sampled surface needs a 3-d value cube")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
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
    """Closed-form transformed slope and Jacobian at points with slope z.

    Given source gradients z = grad tau(x), shape (..., 3) with |z| <= 1,
    and a proper orthochronous L, returns (grad_g, det) with grad_g =
    grad tau^g at y = S(x) and det = det DS(x) > 0: for w = L (1, z),
    grad_g = w[1:] / w[0] and det = w[0].
    """
    L = np.asarray(L, dtype=float)
    w = L[:, 0] + np.asarray(z, dtype=float) @ L[:, 1:].T
    return w[..., 1:] / w[..., :1], w[..., 0]


# Newton settings of SurfaceTransformResult.s_inverse
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class SurfaceTransformResult(AchronalSurface):
    """The g-image of a graph surface: tau, gradient, S, S^{-1}, det DS."""

    g: PoincareElement
    surface: AchronalSurface
    kind = "image"
    keys = {"surface": "of"}

    def _image(self, x):
        """g . (tau(x), x), shape (..., 4)."""
        x = np.asarray(x, dtype=float)
        return self.g.act(np.concatenate([self.surface.tau(x)[..., None], x], axis=-1))

    def s_forward(self, x):
        return self._image(x)[..., 1:]

    def s_inverse(self, y):
        """Solve S(x) = y as one scalar equation per point.

        With A = L[1:, 1:], b = L[1:, 0], v = A^{-1} b and x0 = A^{-1}(y -
        a[1:]), S(x) = y exactly when x = x0 - s v and f(s) = s - tau(x0 -
        s v) = 0, and then S(x) - y = -b f(s).  As |v| = tanh(rapidity) < 1
        and tau is 1-Lipschitz, f increases with slope at least 1 - |v|, so
        its root lies in [-B, B], B = |tau(x0)| / (1 - |v|).  Newton steps
        (f' = 1 + grad tau . v) that leave the shrinking bracket bisect it
        instead; FoldOverError when |S(x) - y| stays above NEWTON_TOL.
        """
        y = np.asarray(y, dtype=float)
        L, a = self.g.L, self.g.a
        A_inv = np.linalg.inv(L[1:, 1:])
        b = L[1:, 0]
        v = A_inv @ b
        x0 = (y.reshape(-1, 3) - a[1:]) @ A_inv.T
        s = self.surface.tau(x0)
        bound = np.abs(s) / (1.0 - np.linalg.norm(v))
        lo, hi = -bound, bound
        for _ in range(NEWTON_MAX_ITER):
            x = x0 - s[:, None] * v
            f = s - self.surface.tau(x)
            if np.linalg.norm(b) * np.abs(f).max(initial=0.0) < NEWTON_TOL:
                return x.reshape(y.shape)
            lo = np.where(f < 0, s, lo)
            hi = np.where(f > 0, s, hi)
            step = s - f / (1.0 + self.surface.gradient(x) @ v)
            s = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        raise FoldOverError("graph-map inversion did not converge; surface not achronal?")

    def tau(self, y):
        return self._image(self.s_inverse(y))[..., 0]

    def gradient(self, y):
        z = self.surface.gradient(self.s_inverse(y))
        return transform_gradient_data(self.g.L, z)[0]

    def jacobian_det(self, x):
        return transform_gradient_data(self.g.L, self.surface.gradient(x))[1]


    def label(self):
        return f"image({self.surface.label()})"
