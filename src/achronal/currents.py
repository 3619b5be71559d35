"""Conserved covariant currents of the massive scalar boson.

The current of a state phi at a spacetime point x is the double momentum sum

    J(phi, x) = (2 pi)^-3 sum_k sum_p w_k w_p K(k, p)
                exp(i ((eps(k) - eps(p)) x0 - (k - p).x)) conj(phi(k)) phi(p)

over the packet's support nodes, with K either the causal kernel or a
stress-energy kernel.  Two evaluation routes are kept deliberately
independent:

* the direct route materializes the kernel in row blocks and contracts the
  literal double sum (the oracle; arbitrary spacetime points);
* the fast route factorizes the scalar profile g(eps(k) eps(p) - k.p) over
  the support nodes as sum_r mu_r psi_r(k) psi_r(p) (landmark seed, then
  one product with the full support matrix and Rayleigh-Ritz), after which
  every current component becomes a rank sum of products of momentum sums
  that evaluate at given spacetime points (FastBackend.current_at, through
  the phase matrix), or a sum over pairs of support nodes binned by lattice
  difference on position-grid slices (FastBackend.slice_fields).
  Stress-energy kernels are exactly separable and need no factorization:
  four auxiliary fields with weights p_mu/sqrt(eps) plus one with
  1/sqrt(eps) rebuild the current algebraically, each field a separable sum
  from the support's momentum box to a centred window of nodes (the one
  momentum-to-position transform, whose window of half n/2 is the whole
  periodic grid).

Component mu of the causal current pairs the 1/sqrt(eps) field B with the
mu-th of (sqrt(eps), p_i / sqrt(eps)).  A causal slice transforms no
eigenvector.  Every support node lies on the momentum lattice, so the
regrouped rank sum depends on x only through the grid-index difference of a
node pair (FastBackend._pair_slice): the upper rows of G_R = V diag(mu) V^T,
one GEMM of n_sup^2 R / 2 multiply-adds, are binned into (2s - 1)^3 bins
per component by np.bincount, with 5 passes over the n_sup^2 / 2 pairs for
their common weight and code and 5 per component, and three small matrix
products take the bins to the slice's window, the whole grid or a centred
window alike.  The bins do not depend on the window or on `refine`, and
the blocks of a slice share one set of buffers.  A block holds at most an
eighth of its row length in rows (_upper_row_blocks), so little of it is
the lower square that the binning drops: at n=16 (480 support nodes) a J0
window slice peaks at 2.9 MB of Python allocations against 12.7 MB for one
480 x 480 block.  At n=32 (3,648 support nodes, rank 306) a 4-component
slice of the whole grid takes 0.66-0.83 CPU-s, and a J0 slice of a flat
flux's window of half 10 0.30-0.41 at refine 1 and 0.29-0.42 at refine 2
(0.68-1.29, 0.33-0.47 and 0.31-0.50 in the same runs when a block's rows
grew until it was one square).  In earlier runs transforming the fields
of each eigenvector instead took 1.12-1.45 CPU-s for 5 R FFTs of
(refine n)^3 cubes (9.8-13.0 at refine 2), and 0.15-0.19 and 0.61-0.63 for
J0's two fields on that window; at n=40 (7,208 nodes) the bins took
2.5-2.8 against 2.6-3.1 for the FFTs, and at n=48 (12,568 nodes), where
pairs grow as n^6, 7.2-7.6 against 5.7-5.9 (2-vCPU host).  The paper-check
sizes are n <= 32, so no size switch is kept.

Points need the factorization on the B field alone: the rank-R G goes onto
the phase-loaded nodes with two real GEMMs, and each component is then one
weighted node sum.  Their phase blocks come from separable tables
(SupportData.phases): the support nodes lie on the momentum grid, so a
block takes one exp per point and distinct energy or axis value, not one
per node and point.  The direct route keeps the plain exp of the full phase
argument, so the oracle shares no phase code with the fast route.

Both routes share the phase convention above: the single-field transform is
u(x) = sum_p h(p) exp(-i (eps(p) x0 - p.x)), so the conjugated k-side factor
reproduces the current's phase exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .grids import MomentumGrid, momentum_to_position, position_window_axis
from .kernels import CausalKernel, TensorKernel, scalar_block
from .minkowski import PoincareElement, apply_lorentz
from .wavepacket import WavePacket, apply_poincare, energy

TWO_PI_CUBED = (2.0 * np.pi) ** 3

# complex entries per phase block (support nodes x points) of current_at, and
# per field of eval_direct's point blocks; entries per row block of every
# g-matrix product (_row_blocks: the factorization's and the causal
# eval_direct oracle's) and per pair block of a causal slice
# (_upper_row_blocks)
_PHASE_ENTRIES = 1 << 16
_G_ENTRIES = 1 << 20

# landmark count of a causal build's first attempt: smaller supports are
# factorized whole; at the CLI default config (3,648 support nodes, rank 306
# at tol 1e-6) the first attempt succeeds
_LANDMARK_START = 512

# the decay scan's rays: the six coordinate half-axes
_AXES = np.concatenate([np.eye(3), -np.eye(3)])


class FactorizationError(RuntimeError):
    """The sampled g-kernel spectrum does not reach the requested truncation."""


class BackendMismatchError(ValueError):
    """Packet support or grid is inconsistent with the stored factorization."""


@dataclass(frozen=True)
class CurrentSpec:
    """A current family (kernel) applied to a state (packet)."""

    kernel: Union[CausalKernel, TensorKernel]
    packet: WavePacket

    def __post_init__(self):
        if self.kernel.mass != self.packet.mass:
            raise ValueError("kernel and packet masses differ")

    @property
    def is_stress_energy(self) -> bool:
        return isinstance(self.kernel, TensorKernel)

    def with_packet(self, packet: WavePacket) -> "CurrentSpec":
        return CurrentSpec(self.kernel, packet)


@dataclass(frozen=True)
class CurrentSample:
    point: np.ndarray
    value: np.ndarray
    error_estimate: float


@dataclass(frozen=True)
class SupportData:
    """Support-node arrays shared by both evaluation routes; each node's grid
    indices and energy-table index are derived once per instance."""

    grid: MomentumGrid
    mass: float
    flat_idx: np.ndarray
    points: np.ndarray
    eps: np.ndarray

    @classmethod
    def from_mask(cls, grid: MomentumGrid, mass: float, mask: np.ndarray) -> "SupportData":
        flat = np.flatnonzero(mask.reshape(-1))
        points = grid.node_coordinates()[flat]
        return cls(grid, mass, flat, points, energy(points, mass))

    @classmethod
    def from_packets(cls, packets) -> "SupportData":
        grid, mass = packets[0].grid, packets[0].mass
        mask = np.zeros((grid.n,) * 3, dtype=bool)
        for p in packets:
            if not p.grid.same_geometry(grid) or p.mass != mass:
                raise BackendMismatchError("packets disagree on grid or mass")
            mask |= p.support_mask()
        return cls.from_mask(grid, mass, mask)

    def values_of(self, packet: WavePacket) -> np.ndarray:
        if not packet.grid.same_geometry(self.grid) or packet.mass != self.mass:
            raise BackendMismatchError("packet grid or mass differs from backend")
        flat_amp = packet.amplitudes.reshape(-1)
        inside = np.zeros(flat_amp.shape[0], dtype=bool)
        inside[self.flat_idx] = True
        if np.any(flat_amp[~inside] != 0):
            raise BackendMismatchError("packet support exceeds the factorized node set")
        return flat_amp[self.flat_idx]

    def field_weights(self) -> np.ndarray:
        """Weights (1/sqrt eps, sqrt eps, p_i/sqrt eps) of the five auxiliary
        fields, shape (5, n_sup)."""
        sq = np.sqrt(self.eps)
        return np.stack([1.0 / sq, sq, self.points[:, 0] / sq,
                         self.points[:, 1] / sq, self.points[:, 2] / sq])

    @cached_property
    def _grid_idx(self) -> np.ndarray:
        """Each node's grid indices, shape (3, n_sup)."""
        n = self.grid.n
        return np.array(np.unravel_index(self.flat_idx, (n, n, n)))

    @cached_property
    def _energy_table(self):
        """The distinct energies (12 on the n=16 test support, 46 at the CLI
        default config) and each node's index into them."""
        return np.unique(self.eps, return_inverse=True)

    def box(self):
        """The support's bounding box on the grid: the first grid index `lo`
        and the side `s` of the smallest cube of nodes, with one index range
        on every axis, that holds every support node, and the support nodes'
        flat indices in that s^3 cube, as (lo, s, index)."""
        ijk = self._grid_idx
        lo = int(ijk.min(initial=self.grid.n))
        s = max(0, int(ijk.max(initial=-1)) + 1 - lo)
        return lo, s, np.ravel_multi_index(tuple(ijk - lo), (s, s, s))

    def phases(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """exp(-i (eps x0 - p.x)) at points x of shape (m, 4), written into
        `out` of shape (n_sup, m); `scratch`, of the same shape, takes each
        gathered axis factor.  The phase is exp(-i eps x0) prod_a
        exp(i p_a x_a), and the nodes lie on the momentum grid, so a block
        takes one exp per point and distinct energy or axis value, gathered
        by each node's energy and grid indices: the grid-aligned case of a
        type-3 NUFFT."""
        energies, energy_idx = self._energy_table
        # the indices are in range by construction; mode="clip" skips the
        # bounds check, with which np.take buffers `out` (5x slower at 2^16
        # entries)
        np.take(np.exp(-1j * np.outer(energies, x[:, 0])), energy_idx,
                axis=0, out=out, mode="clip")
        axis = self.grid.axis()
        for a, idx in enumerate(self._grid_idx):
            out *= np.take(np.exp(1j * np.outer(axis, x[:, a + 1])), idx,
                           axis=0, out=scratch, mode="clip")
        return out


def _as_points(x) -> np.ndarray:
    """Spacetime points x of shape (..., 4) as an (m, 4) float array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 4:
        raise ValueError(f"points must be 4-vectors, shape (..., 4); got {x.shape}")
    return x.reshape(-1, 4)


def _phases(support: SupportData, x: np.ndarray) -> np.ndarray:
    """exp(-i (eps x0 - p.x)) for points x of shape (m, 4): (n_sup, m)."""
    return np.exp(-1j * (np.outer(support.eps, x[:, 0]) - support.points @ x[:, 1:].T))


def _gmatrix_block(kern: CausalKernel, support: SupportData, rows: slice,
                   cols: Optional[SupportData] = None) -> np.ndarray:
    """G rows `rows` of the support against the nodes of `cols` (default: the support)."""
    cols = support if cols is None else cols
    return scalar_block(kern, support.points[rows], support.eps[rows],
                        cols.points, cols.eps)


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices of an (n_rows, n_cols) g-matrix in blocks of at most
    _G_ENTRIES entries (one row at least)."""
    step = max(1, _G_ENTRIES // max(n_cols, 1))
    return [slice(i0, min(i0 + step, n_rows)) for i0 in range(0, n_rows, step)]


def _upper_row_blocks(n: int):
    """Row slices of the upper triangle of an (n, n) matrix: rows i0 to i1
    against the columns i0 to n, in blocks of at most _G_ENTRIES entries and
    at most an eighth of their row length n - i0 in rows (one row at least),
    so that the leading square of a block, whose lower half _bin_pairs
    drops, stays small."""
    blocks, i0 = [], 0
    while i0 < n:
        i1 = min(n, i0 + max(1, min(_G_ENTRIES // (n - i0), (n - i0) // 8)))
        blocks.append(slice(i0, i1))
        i0 = i1
    return blocks


# ---------------------------------------------------------------------------
# direct route
# ---------------------------------------------------------------------------


def eval_direct(spec: CurrentSpec, x):
    """Literal double-sum evaluation at spacetime points x of shape (..., 4).

    Returns a CurrentSample for a single point, a list for a batch; x whose
    last axis is not 4 raises ValueError.  The value is the
    Hermitian-symmetrized sum, real up to roundoff; the largest imaginary
    residue enters the error estimate.
    """
    X = _as_points(x)
    single = np.ndim(x) == 1
    support = SupportData.from_packets([spec.packet])
    values = support.values_of(spec.packet) * spec.packet.grid.weight
    if spec.is_stress_energy:
        J = _direct_tensor(spec.kernel, support, values, X)
    else:
        J = _direct_causal(spec.kernel, support, values, X)
    J /= TWO_PI_CUBED
    samples = []
    for i in range(len(X)):
        imag = float(np.abs(J[i].imag).max())
        samples.append(CurrentSample(X[i], J[i].real.copy(), imag))
    return samples[0] if single else samples


def _direct_causal(kern, support, values, X):
    """The causal double sum at points X, (m, 4): each G row block
    (_row_blocks), built once, meets the points in blocks of at most
    _PHASE_ENTRIES node-point entries, so the memory stays bounded for any
    number of points and support nodes."""
    n = len(support.eps)
    step = max(1, _PHASE_ENTRIES // max(n, 1))
    J = np.zeros((len(X), 4), dtype=complex)
    for rows in _row_blocks(n, n):
        G = _gmatrix_block(kern, support, rows)
        for p0 in range(0, len(X), step):
            J[p0:p0 + step] += _direct_causal_rows(G, rows, support, values,
                                                   X[p0:p0 + step])
    return J


def _direct_causal_rows(G, rows, support, values, X):
    """The node sums over `rows` of the causal current at points X, (m, 4),
    with G the g-matrix rows `rows`."""
    base = values[:, None] * _phases(support, X)
    # the five fields of every point, field by field: (n, 5, m) as (n, 5 m)
    n, m = base.shape
    stack = np.empty((n, 5, m), dtype=complex)
    np.multiply(support.field_weights().T[:, :, None], base[:, None, :], out=stack)
    stack = stack.reshape(n, 5 * m)
    del base
    V = np.split(stack[rows], 5, axis=1)
    W = np.split((G @ stack.view(np.float64)).view(complex), 5, axis=1)
    # 0.5 (diag(Va^H G Vv) + diag(Vv^H G Va)) for the B field v and each
    # partner a; real up to roundoff once summed over all rows, as the two
    # diagonals are exact conjugates for symmetric G
    return np.stack([0.5 * (np.sum(np.conj(V[a]) * W[0], axis=0)
                            + np.sum(np.conj(V[0]) * W[a], axis=0)) for a in range(1, 5)],
                    axis=1)


def _direct_tensor(kern, support, values, X):
    """The stress-energy double sum sum_k sum_p conj(a_k) K_n(k, p) a_p at
    points X, (m, 4), with K_n built entrywise.  The points go in blocks of
    at most _PHASE_ENTRIES node-point entries, and each block meets K_n in
    row blocks whose (rows, n_sup, 4) arrays hold at most _PHASE_ENTRIES
    entries, so the memory stays bounded for any number of points and
    support nodes."""
    from .kernels import kernel_Kn
    n = len(support.eps)
    step = max(1, _PHASE_ENTRIES // max(n, 1))
    krows = max(1, step // 4)
    J = np.zeros((len(X), 4), dtype=complex)
    for p0 in range(0, len(X), step):
        a = values[:, None] * _phases(support, X[p0:p0 + step])
        for i0 in range(0, n, krows):
            rows = slice(i0, min(i0 + krows, n))
            K = np.moveaxis(kernel_Kn(support.points[rows][:, None, :],
                                      support.points[None, :, :], kern), -1, 0)
            # the real K_mu rows on a's real view: (4, rows, points)
            Ka = (np.ascontiguousarray(K) @ a.view(np.float64)).view(complex)
            J[p0:p0 + step] += np.sum(np.conj(a[rows]) * Ka, axis=1).T
    return J


# ---------------------------------------------------------------------------
# fast route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastBackend:
    """Stored factorization enabling pointwise and whole-slice evaluation.

    `support` holds the node data that every evaluation reads (coordinates,
    energies, grid indices and phase blocks; see SupportData).  Every
    evaluation uses all `rank` stored eigenpairs.  `spectral_tail`
    bounds the eigenvalue weight of the g-matrix that they leave out,
    relative to the top eigenvalue: (n_sup g(m^2) - sum of the kept
    eigenvalues) / mu_0, from the exact trace, covering eigenvalues the
    build never resolved (see build_fast).  It is 0 for separable kernels
    and nan when meta["tail_certified"] is False.  `meta["build"]` holds
    the `tol`, `n_landmarks` and `seed` it was built with, so that a backend
    for another support can be built alike.  For causal kernels `meta`
    records the landmark counts tried (`landmark_attempts`; n_lm grows while
    n_lm < 1.5 R0 + 16), the one used (`n_landmarks`) and the largest exact
    eigenpair residual (`eig_residual_max`), which with `spectral_tail`
    certifies the truncation.
    """

    support: SupportData
    kernel: Union[CausalKernel, TensorKernel]
    eigvals: Optional[np.ndarray]
    eigvecs: Optional[np.ndarray]
    spectral_tail: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def rank(self) -> int:
        return 0 if self.eigvals is None else len(self.eigvals)

    @property
    def separable(self) -> bool:
        return self.eigvals is None

    # -- pointwise -------------------------------------------------------

    def current_at(self, packet: WavePacket, x) -> np.ndarray:
        """Real current components (4, m) at spacetime points x of shape
        (..., 4), flattened to m points; another last axis raises ValueError.

        The points go in blocks whose phase matrix Z (support nodes x points)
        holds at most _PHASE_ENTRIES complex entries.  A causal current needs
        the factorization on the B field alone: with Y = load Z and
        b = 1/sqrt(eps),

            sum_r mu_r conj(F_r) B_r = sum_k w_k conj(Y_k) (G_R (b Y))_k,

        so H = V (mu (V^T b Y)) takes two real GEMMs on Y's real view, and
        every component is one weighted sum of conj(Y) H.  Z is gathered by
        SupportData.phases, about 0.8 ms per 2^16-entry block against 3 ms
        for the exp of every entry.  Each block is updated in place, in two
        buffers allocated once per call, so the traced peak stays near a few
        phase blocks (4.2 MB over the 2,744 window nodes of an n=16 surface).
        """
        X = _as_points(x)
        load = self.support.values_of(packet) * packet.grid.weight
        n_sup = len(load)
        step = max(1, _PHASE_ENTRIES // max(n_sup, 1))
        weights = self.support.field_weights()
        VbT = None if self.separable else self.eigvecs.T * weights[0]
        # the phase block and a scratch block, which takes the gathered axis
        # factors and then H; a short last block uses a leading part of each
        zbuf = np.empty(n_sup * min(step, len(X)), dtype=complex)
        sbuf = np.empty_like(zbuf)
        J = np.empty((4, len(X)))
        for i0 in range(0, len(X), step):
            Xb = X[i0:i0 + step]
            m = len(Xb)
            scratch = sbuf[:n_sup * m].reshape(n_sup, m)
            Z = self.support.phases(Xb, zbuf[:n_sup * m].reshape(n_sup, m), scratch)
            if self.separable:
                J[:, i0:i0 + m] = _tensor_from_fields(self.kernel, *(weights * load) @ Z)
                continue
            Z *= load[:, None]
            T = VbT @ Z.view(np.float64)
            T *= self.eigvals[:, None]
            H = np.matmul(self.eigvecs, T, out=scratch.view(np.float64)).view(complex)
            del T
            np.conj(Z, out=Z)
            Z *= H
            # Re(w conj(Y) H) for the real weights (sqrt eps, p_i / sqrt eps)
            J[:, i0:i0 + m] = (weights[1:] @ Z.view(np.float64))[:, ::2]
        return J / TWO_PI_CUBED

    # -- whole slices ------------------------------------------------------

    def slice_fields(self, packet: WavePacket, x0: float, refine: int = 1,
                     components: int = 4, window_half: Optional[int] = None) -> np.ndarray:
        """Current components on the conjugate position grid at time x0.

        Returns a real array of shape (components, M, M, M), the first
        `components` of (J0, J1, J2, J3) on the centred window of
        M = 2 window_half refine nodes per axis (position_window_mask); the
        default, window_half = None, is the whole periodic grid: the window
        of half n/2, M = refine n.  A causal slice bins the pairs of support
        nodes by lattice difference (_pair_slice): n_sup^2 R / 2
        multiply-adds for the upper rows of G_R and 5 + 5 `components`
        passes over the n_sup^2 / 2 pairs, whatever the window and
        `refine`.  A stress-energy slice transforms its five fields from
        the support's bounding box (SupportData.box) with a separable sum
        that computes no node outside the window (momentum_to_position).
        """
        if not 1 <= components <= 4:
            raise ValueError(f"components must be 1 to 4, got {components}")
        if refine < 1:
            raise ValueError(f"refine must be >= 1, got {refine}")
        sup = self.support
        load = sup.values_of(packet) * packet.grid.weight * np.exp(-1j * sup.eps * x0)
        half = sup.grid.n // 2 if window_half is None else window_half
        if not self.separable:
            return self._pair_slice(load, refine, components, half) / TWO_PI_CUBED
        # the five fields on the support's bounding box, zero off the support
        lo, s, index = sup.box()
        cube = np.zeros((5, s ** 3), dtype=complex)
        cube[:, index] = sup.field_weights() * load
        F = momentum_to_position(cube.reshape(5, s, s, s), sup.grid, refine, lo, half)
        return _tensor_from_fields(self.kernel, *F)[:components] / TWO_PI_CUBED

    def _pair_slice(self, load, refine, components, half):
        """(2 pi)^3 times the causal current (components, M, M, M) on the
        centred window of half `half`, M = 2 half refine nodes per axis,
        from the pairs k <= p of support nodes binned by lattice difference.

        With B = load / sqrt(eps), P = (eps, p) and G_R = V diag(mu) V^T,
        sum_r mu_r Re(conj(F_r) B_r) regroups as

            (2 pi)^3 J^mu(x) = Re sum_{k <= p} c_kp (P^mu_k + P^mu_p)
                               conj(B_k) (G_R)_kp B_p exp(-i h (i_k - i_p).x)

        with c = 1 off the diagonal and 1/2 on it, so it depends on x only
        through the grid-index difference i_k - i_p: one bin of (2s - 1)^3
        per component and real or imaginary part, filled block by block of
        the upper rows of G_R (_upper_row_blocks, _bin_pairs), then three
        products with exp(-i h d x) on the window's nodes per axis
        (position_window_axis).  The cell-centred offsets of both grids
        cancel in the difference.  The blocks share one set of buffers,
        sized by the largest block.
        """
        sup = self.support
        x = position_window_axis(sup.grid, half, refine)
        n, M = len(load), len(x)
        if n == 0:
            return np.zeros((components, M, M, M))
        lo, s, _ = sup.box()
        nb = 2 * s - 1
        # each node's mixed-radix code in the (2s - 1)^3 box of differences
        code = np.ravel_multi_index(tuple(sup._grid_idx - lo), (nb, nb, nb))
        B = load / np.sqrt(sup.eps)
        P = np.vstack([sup.eps, sup.points.T])[:components]
        Vmu = self.eigvecs * self.eigvals
        bins = np.zeros((components, 2, nb ** 3))
        blocks = _upper_row_blocks(n)
        size = max((b.stop - b.start) * (n - b.start) for b in blocks)
        # the G block, the complex weights, the imaginary-part weights and
        # the bin indices, sized by the largest block
        work = (np.empty(size), np.empty(size, dtype=complex), np.empty(size),
                np.empty(size, dtype=np.intp))
        for rows in blocks:
            shape = (rows.stop - rows.start, n - rows.start)
            G, *scratch = (b[:shape[0] * shape[1]].reshape(shape) for b in work)
            np.matmul(Vmu[rows], self.eigvecs[rows.start:].T, out=G)
            _bin_pairs(G, rows, B, P, code, bins, scratch)
        # sum_d D_d exp(-i h d x) axis by axis, the last one first; the
        # first axis's product keeps the real part only
        d = np.arange(nb) - (s - 1)
        E = np.exp(-1j * sup.grid.spacing * np.outer(d, x))
        D = bins[:, 0] + 1j * bins[:, 1]
        t = D.reshape(components * nb * nb, nb) @ E
        t = E.T @ t.reshape(components * nb, nb, M)
        t = t.reshape(components, nb, M * M)
        J = E.real.T @ t.real - E.imag.T @ t.imag
        return J.reshape(components, M, M, M)


def _bin_pairs(G, rows, B, P, code, bins, scratch):
    """Add the pairs of one block of G_R's upper rows to `bins`, of shape
    (components, 2, (2s - 1)^3), real and imaginary parts apart: G holds
    the rows `rows` against the columns rows.start to n_sup, and pair
    (k, p) goes to the bin of code_k - code_p, offset so that the zero
    difference sits in the middle bin.  The block's arrays go into
    `scratch`, three arrays of G's shape (complex, real and integer) that
    every block of a slice reuses."""
    cols = slice(rows.start, None)
    # the leading square also holds the pairs k > p: drop them and halve
    # the diagonal
    square = G[:, :rows.stop - rows.start]
    square[...] = np.triu(square)
    square[np.diag_indices_from(square)] *= 0.5
    u, v, idx = scratch
    # the weights conj(B_k) G_kp B_p, the real part in G's buffer
    np.multiply.outer(np.conj(B[rows]), B[cols], out=u)
    parts = (G, np.multiply(u.imag, G, out=v))
    G *= u.real
    # u's buffer then takes P_k + P_p and each weight array
    S, w = u.view(np.float64).reshape((2,) + G.shape)
    idx = np.subtract.outer(code[rows], code[cols], out=idx).ravel()
    idx += bins.shape[-1] // 2
    for mu, out in enumerate(bins):
        np.add.outer(P[mu, rows], P[mu, cols], out=S)
        for part, part_bins in zip(parts, out):
            np.multiply(S, part, out=w)
            part_bins += np.bincount(idx, weights=w.ravel(), minlength=len(part_bins))


def _tensor_from_fields(kern: TensorKernel, Fv, F0, F1, F2, F3):
    """Assemble the stress-energy current (4, ...) from the five auxiliary
    fields, in the order of SupportData.field_weights."""
    n = kern.n
    m2 = kern.mass ** 2
    nU = n[0] * F0 - n[1] * F1 - n[2] * F2 - n[3] * F3
    quad = np.abs(F0) ** 2 - np.abs(F1) ** 2 - np.abs(F2) ** 2 - np.abs(F3) ** 2
    if kern.variant == "stress_energy_standard":
        scalar = 0.5 * (m2 * np.abs(Fv) ** 2 - quad)
    else:
        scalar = -0.5 * (m2 * np.abs(Fv) ** 2 + quad)
    # Re[conj(nU) F_mu] keeps the cross term Hermitian; scalar parts are real
    return np.stack([(np.conj(nU) * F + n_mu * scalar).real
                     for F, n_mu in zip((F0, F1, F2, F3), n)])


def build_fast(spec: CurrentSpec, tol: float = 1e-6, n_landmarks: int = 3000,
               seed: int = 0, support: Optional[SupportData] = None,
               rank: Optional[int] = None) -> FastBackend:
    """Factorize the current for fast evaluation.

    Stress-energy currents are exactly separable and return immediately.
    Causal-kernel currents get the scalar profile's support-node matrix G
    eigendecomposed: oversampled landmark eigenvectors, Nystrom-extended to
    the support, span a basis that one product with G and Rayleigh-Ritz turn
    into eigenpairs whose exact residuals certify the truncation.

    `n_landmarks` caps the landmark count.  A build starts at
    _LANDMARK_START landmarks (or the whole support, when it fits) and grows
    the count by half while n_lm < 1.5 R0 + 16, with R0 landmark eigenvalues
    above `tol` (relative), or while the refined spectrum does not reach
    `tol`; it raises FactorizationError when the spectrum still does not
    reach `tol` at a cap below the support size, as happens for oscillatory
    profiles.  Landmarks that are the whole support give every eigenpair
    exactly, so that build keeps the pairs above `tol`, however many.  A
    build given `rank` keeps the `rank` leading eigenpairs and uses the
    capped count in one attempt.

    The refined eigenpairs below `tol` are dropped.  `spectral_tail` bounds
    the eigenvalue weight the backend leaves out, relative to the top one:
    every diagonal entry of G is on shell, so tr G = n_sup g(m^2) exactly,
    and for a positive semi-definite G the kept Ritz values sum to at most
    the top eigenvalues (Ky Fan), so (tr G - sum of kept mu) / mu_0 covers
    the dropped weight at any landmark count, eigenvalues past the refined
    set included.  A refined mu below -roundoff mu_0 shows that G is not
    positive semi-definite on the support; the backend then records
    meta["tail_certified"] = False and its spectral_tail is nan.
    """
    build = {"tol": tol, "n_landmarks": n_landmarks, "seed": seed}
    support = support or SupportData.from_packets([spec.packet])
    if spec.is_stress_energy:
        return FastBackend(support, spec.kernel, None, None, 0.0,
                           {"separable": True, "build": build})
    kern = spec.kernel
    n = len(support.eps)
    if n == 0:
        return FastBackend(support, kern, np.array([1.0]), np.zeros((0, 1)), 0.0,
                           {"empty_support": True, "build": build})
    rng = np.random.default_rng(seed)
    cap = min(n_landmarks, n)
    n_lm = cap if rank is not None else min(cap, _LANDMARK_START)
    attempts = []
    while True:
        attempts.append(n_lm)
        try:
            mu, V, eig_res = _factorize(kern, support, rng, n_lm, tol, rank,
                                        final=n_lm == cap)
            break
        except FactorizationError:
            if n_lm == cap:
                raise
            n_lm = min(cap, n_lm * 3 // 2)

    certified = bool(mu.min() >= -n * np.finfo(float).eps * np.abs(mu[0]))
    trace = n * float(kern.scalar(np.array([kern.mass ** 2]))[0])
    mu, V = mu[:V.shape[1]], np.ascontiguousarray(V)
    tail = max(0.0, (trace - float(mu.sum())) / np.abs(mu[0])) if certified else float("nan")
    return FastBackend(
        support, kern, mu, V, tail,
        {"n_landmarks": n_lm, "landmark_attempts": attempts,
         "eig_residual_max": float(eig_res.max(initial=0.0)),
         "tail_certified": certified, "build": build},
    )


def _factorize(kern, support, rng, n_lm, tol, rank, final):
    """Ritz values mu of G ordered by |mu|, the vectors V and exact relative
    residuals of the pairs above `tol` (the `rank` leading pairs), from the
    k = 2 R0 + 16 leading eigenpairs of n_lm random landmarks (at most those
    above 1e-13 of the top), R0 of whose eigenvalues exceed `tol` (R0 =
    `rank`).  Fewer landmarks than nodes take one pass over G: Q = G[:, lm]
    U / lambda, Y = G Q, and Rayleigh-Ritz Q^T Y s = mu Q^T Q s through the
    Cholesky factor of Q^T Q (Q's landmark rows are U, so its smallest
    singular value is at least 1).

    With fewer landmarks than nodes, raises FactorizationError when the
    Ritz values do not reach `tol`, or when R0 needs 0.9 n_lm of the
    landmarks; below the cap (`final` False) already when n_lm < 1.5 R0 + 16,
    as fewer landmarks under-count the rank.
    """
    n = len(support.eps)
    lm = np.sort(rng.choice(n, size=n_lm, replace=False))
    sub = SupportData(support.grid, support.mass, support.flat_idx[lm],
                      support.points[lm], support.eps[lm])
    lam, U = np.linalg.eigh(_gmatrix_block(kern, sub, slice(0, n_lm)))
    order = np.argsort(-np.abs(lam))
    lam, U = lam[order], U[:, order]
    rel = np.abs(lam) / np.abs(lam[0])
    R0 = min(rank, n_lm) if rank is not None else max(1, int(np.searchsorted(-rel, -tol)))
    if rank is None and n_lm < n and (R0 >= int(0.9 * n_lm) if final
                                      else n_lm < 1.5 * R0 + 16):
        raise FactorizationError(
            f"g-kernel spectrum has not decayed to {tol:g} within "
            f"{n_lm} landmarks (needs rank >= {R0}); profile "
            f"{kern.label!r} does not admit this truncation")
    k = min(2 * R0 + 16, np.count_nonzero(np.abs(lam) > 1e-13 * np.abs(lam[0])))
    mu, S = lam[:k], U[:, :k]
    if n_lm < n:
        Q = _apply_gmatrix(kern, support, S / mu, cols=sub)
        Y = _apply_gmatrix(kern, support, Q)
        Linv = np.linalg.inv(np.linalg.cholesky(Q.T @ Q))
        M = Linv @ (Q.T @ Y) @ Linv.T
        mu, S = np.linalg.eigh(0.5 * (M + M.T))
        order = np.argsort(-np.abs(mu))
        mu, S = mu[order], Linv.T @ S[:, order]
    relmu = np.abs(mu) / np.abs(mu[0])
    if rank is None and n_lm < n and relmu[-1] > tol:
        raise FactorizationError(
            f"refined spectrum tail {relmu[-1]:.2e} exceeds {tol:g}")
    R = min(rank, len(mu)) if rank is not None else max(1, int(np.searchsorted(-relmu, -tol)))
    S = S[:, :R]
    if n_lm == n:
        return mu, S, np.zeros(R)
    GV, Y = Y @ S, None  # free Y, then Q, once used: less resident memory
    V, Q = Q @ S, None
    return mu, V, np.linalg.norm(GV - V * mu[:R], axis=0) / np.abs(mu[0])


def _apply_gmatrix(kern, support, B, cols=None):
    """G B, with G as in _gmatrix_block, built in _row_blocks."""
    cols = support if cols is None else cols
    out = np.empty((len(support.eps), B.shape[1]))
    for rows in _row_blocks(len(support.eps), len(cols.eps)):
        out[rows] = _gmatrix_block(kern, support, rows, cols) @ B
    return out


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def check_continuity(spec: CurrentSpec, x, step: float) -> dict:
    """Fourth-order central-difference divergence residual at a point.

    Returns the raw |div J| and the residual normalized by the largest
    single |dJ_mu/dx_mu| contribution.
    """
    x = np.asarray(x, dtype=float)
    offsets = []
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = step
        offsets += [x + e, x - e, x + 2 * e, x - 2 * e]
    samples = eval_direct(spec, np.array(offsets))
    derivs = np.empty(4)
    for mu in range(4):
        f1, f_1, f2, f_2 = (samples[4 * mu + i].value[mu] for i in range(4))
        derivs[mu] = (8.0 * (f1 - f_1) - (f2 - f_2)) / (12.0 * step)
    div = float(derivs.sum())
    scale = float(np.abs(derivs).max())
    return {"divergence": div, "scale": scale,
            "residual": abs(div) / scale if scale > 0 else 0.0}


def check_causal_pointwise(sample: CurrentSample) -> float:
    """Margin J0 - |J|; nonnegative for causal currents."""
    return float(sample.value[0] - np.linalg.norm(sample.value[1:]))


def decay_scan(spec: CurrentSpec, x0: float, radii) -> dict:
    """Fit J0 ~ (1 + |x|)^(-N) along the six coordinate half-axes in the
    region |x| >= |x0|.

    Returns the fitted exponent N_hat, the fit residual, and the sampled
    (radius, mean J0) table.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < abs(x0)):
        raise ValueError("radii must satisfy |x| >= |x0|")
    pts = np.array([[x0, *(r * d)] for r in radii for d in _AXES])
    samples = eval_direct(spec, pts)
    j0 = np.array([s.value[0] for s in samples]).reshape(len(radii), len(_AXES))
    mean = j0.mean(axis=1)
    if np.any(mean <= 0) or np.any(mean < 1e-280):
        raise ValueError("J0 underflowed along the scan; fit degenerate")
    lx = np.log1p(radii)
    ly = np.log(mean)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ coef
    return {"exponent": float(-coef[0]),
            "fit_residual": float(np.sqrt(np.mean((fitted - ly) ** 2))),
            "radii": radii, "mean_j0": mean}


def covariant_spec(spec: CurrentSpec, g: PoincareElement) -> CurrentSpec:
    """The member of spec's current family whose current of phi carries
    spec's current of W(g) phi: J(W(g) phi, x) = Lambda J'(phi, g^{-1} x),
    with J' the returned spec's current and Lambda = g.L.

    The causal current is its own member.  The stress-energy kernel is a
    Lorentz vector built from k, p and n, so the member n goes to
    Lambda^{-1} n.
    """
    if not spec.is_stress_energy:
        return spec
    kern = spec.kernel
    n_back = apply_lorentz(g.inverse().L, kern.n)
    return CurrentSpec(TensorKernel(n_back, kern.mass, kern.variant), spec.packet)


def covariance_pair(spec: CurrentSpec, g: PoincareElement, x):
    """Both sides of J(W(g) phi, x) = Lambda . J'(phi, g^{-1} x), with J'
    the current of covariant_spec(spec, g).

    Returns (lhs, rhs) as (..., 4) arrays from the direct route.
    """
    X = _as_points(x)
    moved = apply_poincare(g, spec.packet)
    lhs_samples = eval_direct(spec.with_packet(moved), X)
    lhs = np.array([s.value for s in lhs_samples])
    ginv = g.inverse()
    back = np.array([ginv.act(p) for p in X])
    rhs_samples = eval_direct(covariant_spec(spec, g), back)
    rhs = np.array([apply_lorentz(g.L, s.value) for s in rhs_samples])
    if np.ndim(x) == 1:
        return lhs[0], rhs[0]
    return lhs, rhs
