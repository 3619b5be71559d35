"""Minkowski-space primitives.

Four-vectors are plain numpy arrays of shape (..., 4) ordered (t, x1, x2, x3)
in natural units c = 1, metric signature (+, -, -, -).  Proper orthochronous
Lorentz transforms are 4x4 arrays; Poincare group elements pair a translation
four-vector with such a transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

LORENTZ_TOL = 1e-12


class LorentzValidationError(ValueError):
    """Matrix is not proper orthochronous Lorentz within tolerance."""


def fourvector(t, x1=0.0, x2=0.0, x3=0.0):
    """Build a four-vector array from components."""
    return np.array([t, x1, x2, x3], dtype=float)


def minkowski_product(a, b):
    """a.b = a0*b0 - a1*b1 - a2*b2 - a3*b3, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def minkowski_square(a):
    return minkowski_product(a, a)


@dataclass(frozen=True)
class Classification:
    """Causal character of a four-vector.

    kind is one of "timelike", "lightlike", "spacelike", "zero"; causal is
    true when |z0| >= |z| and z != 0 (so timelike and lightlike are both
    causal); future/past flags apply to causal vectors only.
    """

    kind: str
    causal: bool
    future_directed: bool
    past_directed: bool


def classify(z, tol: float = 0.0) -> Classification:
    """Classify z by |z0| versus the Euclidean norm of its spatial part.

    `tol` widens the lightlike band for vectors that only hold |z0| = |z|
    up to roundoff, e.g. after numeric Lorentz transforms.
    """
    z = np.asarray(z, dtype=float)
    t = abs(z[0])
    r = float(np.linalg.norm(z[1:]))
    if t <= tol and r <= tol:
        return Classification("zero", False, False, False)
    if abs(t - r) <= tol:
        kind = "lightlike"
    elif t > r:
        kind = "timelike"
    else:
        kind = "spacelike"
    causal = t >= r - tol
    return Classification(kind, causal, causal and z[0] > 0, causal and z[0] < 0)


def validate_lorentz(L, tol: float = LORENTZ_TOL):
    """Check L^T eta L = eta, det L = 1 and L00 >= 1; return L as ndarray."""
    L = np.asarray(L, dtype=float)
    if L.shape != (4, 4):
        raise LorentzValidationError(f"expected 4x4 matrix, got {L.shape}")
    if not np.all(np.isfinite(L)):
        raise LorentzValidationError("non-finite entries")
    resid = np.abs(L.T @ ETA @ L - ETA).max()
    if resid > tol:
        raise LorentzValidationError(f"L^T eta L - eta residual {resid:.3e} > {tol:.0e}")
    det = np.linalg.det(L)
    if abs(det - 1.0) > 1e-9:
        raise LorentzValidationError(f"det = {det} != 1")
    if L[0, 0] < 1.0 - tol:
        raise LorentzValidationError(f"L00 = {L[0, 0]} < 1, not orthochronous")
    return L


def boost_z(rho: float):
    """Boost of rapidity rho along x3.

    Rows 0 and 3 carry cosh(rho) on the diagonal and sinh(rho) off it; the
    x1, x2 block is the identity.
    """
    c, s = np.cosh(rho), np.sinh(rho)
    L = np.eye(4)
    L[0, 0] = L[3, 3] = c
    L[0, 3] = L[3, 0] = s
    return L


def boost_axis(axis, rho: float):
    """Boost of rapidity rho along an arbitrary spatial unit axis."""
    axis = _unit_axis(axis)
    R = _rotation_taking_z_to(axis)
    return R @ boost_z(rho) @ R.T


def rotation(axis, angle: float):
    """Spatial rotation by angle about a unit axis, identity time row/column."""
    n = _unit_axis(axis)
    c, s = np.cos(angle), np.sin(angle)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    R3 = np.eye(3) * c + s * K + (1 - c) * np.outer(n, n)
    L = np.eye(4)
    L[1:, 1:] = R3
    return L


def _unit_axis(axis):
    axis = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"axis must be a unit vector, |axis| = {norm}")
    return axis / norm


def _rotation_taking_z_to(axis):
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    s = np.linalg.norm(v)
    if s < 1e-15:
        return np.eye(4) if axis[2] > 0 else rotation([1.0, 0.0, 0.0], np.pi)
    return rotation(v / s, np.arctan2(s, axis[2]))


def apply_lorentz(L, x):
    """Apply a 4x4 transform to four-vectors of shape (..., 4)."""
    x = np.asarray(x, dtype=float)
    return x @ np.asarray(L).T


@dataclass(frozen=True)
class PoincareElement:
    """Group element (a, L) acting on spacetime as x -> a + L x.

    Composition follows (a, L)(a', L') = (a + L a', L L'), with inverse
    (-L^{-1} a, L^{-1}).  Instances are immutable; L is validated at
    construction.
    """

    a: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(4)
        if not np.all(np.isfinite(a)):
            raise ValueError("translation has non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "L", validate_lorentz(self.L))

    @classmethod
    def identity(cls):
        return cls(np.zeros(4), np.eye(4))

    @classmethod
    def translation(cls, a):
        return cls(np.asarray(a, dtype=float), np.eye(4))

    @classmethod
    def from_lorentz(cls, L):
        return cls(np.zeros(4), L)

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        return PoincareElement(self.a + apply_lorentz(self.L, other.a), self.L @ other.L)

    def __matmul__(self, other: "PoincareElement") -> "PoincareElement":
        return self.compose(other)

    def inverse(self) -> "PoincareElement":
        Linv = ETA @ self.L.T @ ETA
        return PoincareElement(-apply_lorentz(Linv, self.a), Linv)

    def act(self, x):
        """Affine action on four-vectors of shape (..., 4)."""
        return self.a + apply_lorentz(self.L, x)

    @property
    def is_translation(self) -> bool:
        return bool(np.abs(self.L - np.eye(4)).max() <= LORENTZ_TOL)
