"""Momentum-space grids and their conjugate position grids.

Both grids are cell-centered: momentum nodes sit at (n + 1/2 - N/2) h for
h = 2 P / N, position nodes at (m + 1/2 - M/2) dx for dx = 2 pi / (M h).
No node lies at the origin or on a coordinate plane, so axis rotations by
multiples of pi/2 permute nodes exactly and strict half-space predicates
partition quadrature nodes cleanly.  MomentumGrid owns the node data that
the packets, the Poincare action and the current routes share: the node
coordinates (`points`) and the map from momenta back to fractional grid
indices (`index_of`).

`momentum_to_position` evaluates F(x) = sum_p f(p) exp(i p.x) from a box of
momentum nodes, the s^3 cube with grid indices lo to lo + s - 1 on every
axis (f vanishes off it), at the nodes of a centred window of the conjugate
position grid, `refine` times finer per axis: three dense matrix products,
the output-pruned transform (Markel, "FFT pruning", 1971) in the regime
where the box and the window are small enough that a DFT matrix beats the
FFT.  The whole conjugate grid is the window of half n/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform cubic momentum grid over [-p_max, p_max]^3 with n nodes per axis."""

    n: int
    p_max: float

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not (self.p_max > 0 and np.isfinite(self.p_max)):
            raise ValueError(f"p_max must be positive finite, got {self.p_max}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / self.n

    @property
    def position_spacing(self) -> float:
        return np.pi / self.p_max

    @property
    def weight(self) -> float:
        """Quadrature weight h^3 of the uniform momentum sum."""
        return self.spacing ** 3

    def axis(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5 - self.n / 2) * self.spacing

    def position_axis(self, refine: int = 1) -> np.ndarray:
        m = self.n * refine
        dx = 2.0 * np.pi / (m * self.spacing)
        return (np.arange(m) + 0.5 - m / 2) * dx

    def points(self) -> np.ndarray:
        """All momentum nodes as an (n, n, n, 3) array, indexed like the
        amplitude cube."""
        ax = self.axis()
        return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)

    def node_coordinates(self) -> np.ndarray:
        """All momentum nodes as an (n^3, 3) array, x1 slowest."""
        return self.points().reshape(-1, 3)

    def index_of(self, p) -> np.ndarray:
        """Fractional grid indices of momenta p of shape (..., 3): node i of
        an axis sits at index i."""
        return np.asarray(p) / self.spacing - 0.5 + self.n / 2

    def interior_extent(self, margin: int) -> float:
        """Largest |p_i| allowed when the outermost `margin` nodes must vanish."""
        return self.p_max - margin * self.spacing

    def margin_mask(self, margin: int) -> np.ndarray:
        """Boolean n^3 cube, True on the outermost `margin` band per side."""
        idx = np.arange(self.n)
        band = (idx < margin) | (idx >= self.n - margin)
        X, Y, Z = np.meshgrid(band, band, band, indexing="ij")
        return X | Y | Z

    def same_geometry(self, other: "MomentumGrid") -> bool:
        return self.n == other.n and self.p_max == other.p_max


def _box_side(values: np.ndarray, grid: MomentumGrid, lo: int) -> int:
    """The side s of the box of momentum nodes that `values`, of shape
    (..., s, s, s), holds from grid index `lo` on every axis."""
    s = values.shape[-1]
    if values.shape[-3:] != (s, s, s) or not 0 <= lo <= grid.n - s:
        raise ValueError(f"values shape {values.shape} is not a box of the grid at {lo}")
    return s


def momentum_to_position(values: np.ndarray, grid: MomentumGrid, refine: int, lo: int,
                         half_nodes: int) -> np.ndarray:
    """Evaluate F(x) = sum_p f(p) exp(i p.x) at the nodes of the centred
    position window of 2*half_nodes*refine nodes per axis.

    `values` has shape (..., s, s, s) and holds f on the box of momentum
    nodes whose grid indices run from `lo` to lo + s - 1 on every axis; the
    result has shape (..., W, W, W) with W = 2 half_nodes refine, the whole
    conjugate grid at half_nodes = n/2.  The sum is separable, so it takes
    three matrix products against one E = exp(i p_box x_window) of shape
    (s, W), which carries the cell-centred phases exactly.  No quadrature
    weight or (2 pi) factor is applied.
    """
    s = _box_side(values, grid, lo)
    E = np.exp(1j * np.outer(grid.axis()[lo:lo + s],
                             position_window_axis(grid, half_nodes, refine)))
    w = E.shape[1]
    lead = values.shape[:-3]
    b = int(np.prod(lead))
    # the last momentum axis first, then the middle one and the first one;
    # E.T enters each stacked product as a transposed BLAS operand, not a copy
    t = values.reshape(b * s * s, s) @ E
    t = E.T @ t.reshape(b * s, s, w)
    t = E.T @ t.reshape(b, s, w * w)
    return t.reshape(lead + (w, w, w))


def _window_range(grid: MomentumGrid, half_nodes: int, refine: int) -> slice:
    """Indices of the centred window's 2*half_nodes*refine nodes per axis."""
    if half_nodes < 1 or refine < 1:
        raise ValueError(f"window half {half_nodes} and refine {refine} must be >= 1")
    m = grid.n * refine
    k = half_nodes * refine
    if 2 * k > m:
        raise ValueError(f"window of {2 * k} nodes exceeds grid period {m}")
    return slice(m // 2 - k, m // 2 + k)


def position_window_axis(grid: MomentumGrid, half_nodes: int, refine: int = 1) -> np.ndarray:
    """Coordinates of the centred window's nodes along one axis."""
    window = _window_range(grid, half_nodes, refine)
    return grid.position_axis(refine)[window]


def position_window_mask(grid: MomentumGrid, half_nodes: int, refine: int = 1) -> np.ndarray:
    """Boolean cube selecting the centered window of 2*half_nodes*refine nodes per axis."""
    inside = np.zeros(grid.n * refine, dtype=bool)
    inside[_window_range(grid, half_nodes, refine)] = True
    X, Y, Z = np.meshgrid(inside, inside, inside, indexing="ij")
    return X & Y & Z
