"""Scalar kernel profiles and the four-vector current kernels.

The causal-kernel family is

    K(k, p) = (eps(k) + eps(p), k + p) / (2 sqrt(eps(k) eps(p))) * g(t),
    t = eps(k) eps(p) - k.p   (the on-shell Minkowski product k_mu p^mu),

with g continuous on [m^2, inf), g(m^2) = 1.  On shell t >= m^2, but the
computed product cancels terms of order |p|^2 and can fall below m^2, so
every pairwise t is clamped to m^2 (scalar_block, kernel_K); its error stays
about 2^-52 eps(k) eps(p) / m^2 relative.  K is a causal kernel when its
zeroth component is positive definite on R^3; the basic series

    g_r(t) = (2 m^2)^r (m^2 + t)^(-r),   r >= 3/2,

provides causal profiles, with r = 3/2 the dominant member.  A variant
reading with t^2 in place of t is kept behind the `printed` flag for
comparison; it only satisfies g(m^2) = 1 at m = 1.

Stress-energy kernels indexed by a unit future-directed timelike n ship in
two variants: `stress_energy_standard` uses the contraction

    K_n(k, p) = (k.n p + p.n k + (m^2 - k.p) n) / (2 sqrt(eps(k) eps(p)))

(all products Minkowski, k and p on shell), which satisfies the momentum-
space continuity identity (k - p).K_n = 0 exactly; `as_printed` flips the
last term to -(m^2 + k.p) n, which breaks it by -2 m^2 (k.n - p.n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .minkowski import minkowski_product
from .wavepacket import energy

NORMALIZATION_TOL = 1e-12


class KernelDomainError(ValueError):
    """g evaluated below the mass-shell threshold t = m^2."""


def g_basic(r: float, t, m: float, printed: bool = False):
    """Basic-series profile (2 m^2)^r (m^2 + t)^(-r); `printed` uses t^2."""
    if r < 1.5:
        raise ValueError(f"basic series needs r >= 3/2, got {r}")
    t = np.asarray(t, dtype=float)
    if np.any(t < m * m - 1e-12):
        raise KernelDomainError(f"t below m^2 = {m * m}")
    base = m * m + (t * t if printed else t)
    return (2 * m * m) ** r * base ** (-r)


@dataclass(frozen=True)
class GFunction:
    """Scalar profile g on [m^2, inf) with g(m^2) = 1."""

    mass: float
    r: Optional[float] = 1.5
    func: Optional[Callable] = None
    printed: bool = False
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.func is None and self.r is None:
            raise ValueError("need either a basic-series exponent r or a callable")
        if self.func is None and self.r < 1.5:
            raise ValueError(f"basic series needs r >= 3/2, got {self.r}")
        norm = float(np.asarray(self(self.mass ** 2)))
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"g(m^2) = {norm}, must equal 1")
        if not self.label:
            object.__setattr__(self, "label", self.describe())

    def describe(self) -> str:
        if self.func is not None:
            return "custom"
        return f"basic r={self.r}" + (" (printed)" if self.printed else "")

    def __call__(self, t):
        if self.func is None:
            return g_basic(self.r, t, self.mass, printed=self.printed)
        t = np.asarray(t, dtype=float)
        if np.any(t < self.mass ** 2 - 1e-12):
            raise KernelDomainError(f"t below m^2 = {self.mass ** 2}")
        return self.func(t)

    @classmethod
    def basic(cls, r: float, mass: float, printed: bool = False) -> "GFunction":
        return cls(mass=mass, r=r, printed=printed)

    @classmethod
    def oscillatory(cls, omega: float, mass: float) -> "GFunction":
        """cos(omega (t - m^2)): normalized but wildly non-causal probe."""
        m2 = mass * mass
        return cls(mass=mass, r=None, func=lambda t: np.cos(omega * (t - m2)),
                   label=f"oscillatory omega={omega}")


@dataclass(frozen=True)
class CausalKernel:
    g: GFunction
    mass: float

    def __post_init__(self):
        if self.mass != self.g.mass:
            raise ValueError("kernel mass differs from profile mass")

    @property
    def label(self) -> str:
        return self.g.label

    def scalar(self, t):
        return self.g(t)


def kernel_K(k, p, kern: CausalKernel):
    """Four-vector kernel value, shape (..., 4), broadcasting over k, p pairs."""
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=float)
    m = kern.mass
    ek, ep = energy(k, m), energy(p, m)
    g = kern.scalar(np.maximum(ek * ep - np.sum(k * p, axis=-1), m * m))
    pref = g / (2.0 * np.sqrt(ek) * np.sqrt(ep))
    out = np.empty(np.broadcast_shapes(k.shape, p.shape)[:-1] + (4,))
    out[..., 0] = (ek + ep) * pref
    out[..., 1:] = (k + p) * pref[..., None]
    return out


@dataclass(frozen=True)
class TensorKernel:
    """Stress-energy kernel indexed by a unit future-directed timelike n."""

    n: np.ndarray
    mass: float
    variant: str = "stress_energy_standard"

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float).reshape(4)
        if abs(minkowski_product(n, n) - 1.0) > 1e-9:
            raise ValueError(f"n.n = {minkowski_product(n, n)}, must be 1")
        if n[0] <= 0:
            raise ValueError("n must be future-directed")
        if self.variant not in ("stress_energy_standard", "as_printed"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        object.__setattr__(self, "n", n)

    @property
    def label(self) -> str:
        return f"tensor n={tuple(self.n)} {self.variant}"


def kernel_Kn(k, p, kern: TensorKernel):
    """Stress-energy kernel value, shape (..., 4)."""
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=float)
    m, n = kern.mass, kern.n
    ek, ep = energy(k, m), energy(p, m)
    kf = np.concatenate([ek[..., None], k], axis=-1)
    pf = np.concatenate([ep[..., None], p], axis=-1)
    kn = minkowski_product(kf, n)
    pn = minkowski_product(pf, n)
    kp = minkowski_product(kf, pf)
    if kern.variant == "stress_energy_standard":
        last = (m * m - kp)[..., None] * n
    else:
        last = -(m * m + kp)[..., None] * n
    num = kn[..., None] * pf + pn[..., None] * kf + last
    return num / (2.0 * np.sqrt(ek) * np.sqrt(ep))[..., None]


def continuity_contraction(kern, k, p):
    """Minkowski contraction (k_shell - p_shell).K, zero iff the current
    built from this kernel satisfies the continuity equation mode by mode."""
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=float)
    m = kern.mass
    ek, ep = energy(k, m), energy(p, m)
    diff = np.concatenate([(ek - ep)[..., None], k - p], axis=-1)
    if isinstance(kern, CausalKernel):
        K = kernel_K(k, p, kern)
    else:
        K = kernel_Kn(k, p, kern)
    return minkowski_product(diff, K)


def scalar_block(kern: CausalKernel, k, ek, p, ep):
    """g(t) for every pair of rows of k (n, 3) and p (m, 3), shape (n, m),
    with their energies ek, ep and t clamped to m^2 in place."""
    t = np.outer(ek, ep)
    t -= k @ p.T
    np.maximum(t, kern.mass ** 2, out=t)
    return kern.scalar(t)


def gram_matrix(points, kern: CausalKernel):
    """Hermitian Gram matrix [K0(k_i, k_j)] on a list of momenta."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if len(pts) < 1:
        raise ValueError("need at least one point")
    eps = energy(pts, kern.mass)
    g = scalar_block(kern, pts, eps, pts, eps)
    K0 = (eps[:, None] + eps[None, :]) / (2.0 * np.sqrt(np.outer(eps, eps))) * g
    return 0.5 * (K0 + K0.T)


def gram_min_eigenvalue(points, kern: CausalKernel) -> float:
    """Minimum eigenvalue of the K0 Gram matrix; >= -tol supports causality."""
    return float(np.linalg.eigvalsh(gram_matrix(points, kern))[0])


def gram_extreme_eigenvalues(points, kern: CausalKernel):
    w = np.linalg.eigvalsh(gram_matrix(points, kern))
    return float(w[0]), float(w[-1])


# the option keys and flags of each kernel selector head, and the tensor variants
_SELECTORS = {"basic": ({"r"}, {"printed"}), "oscillatory": ({"omega"}, set()),
              "tensor": ({"n", "variant"}, set())}
_VARIANTS = {"standard": "stress_energy_standard", "printed": "as_printed"}


def parse_kernel_spec(text: str, mass: float):
    """Parse CLI kernel selectors; ValueError for an unknown head, option
    key, flag or variant.

    Forms: "basic:r=1.5", "basic:r=1.5:printed",
    "oscillatory:omega=50",
    "tensor:n=(1,0,0,0):variant=standard" (or variant=printed).
    """
    head, *opts = text.strip().split(":")
    if head not in _SELECTORS:
        raise ValueError(f"unknown kernel spec {text!r}")
    kv = dict(item.split("=", 1) for item in opts if "=" in item)
    flags = {item for item in opts if "=" not in item}
    keys, known_flags = _SELECTORS[head]
    unknown = sorted(set(kv) - keys) + sorted(flags - known_flags)
    if unknown:
        raise ValueError(f"kernel spec {text!r}: unknown options {unknown}")
    if head == "basic":
        r = float(kv.get("r", 1.5))
        return CausalKernel(GFunction.basic(r, mass, printed="printed" in flags), mass)
    if head == "oscillatory":
        omega = float(kv.get("omega", 50.0))
        return CausalKernel(GFunction.oscillatory(omega, mass), mass)
    nspec = kv.get("n", "(1,0,0,0)").strip("()")
    n = np.array([float(v) for v in nspec.split(",")])
    variant = kv.get("variant", "standard")
    if variant not in _VARIANTS:
        raise ValueError(f"kernel spec {text!r}: unknown variant {variant!r}")
    return TensorKernel(n, mass, _VARIANTS[variant])
