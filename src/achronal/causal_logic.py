"""The causal logic of Minkowski spacetime as testable predicates.

Achronal separateness is the relation

    x _|_ y  iff  x != y and (x - y) . (x - y) <= 0   (Minkowski square),

so lightlike-separated points count as separated.  The causal complement of
a region M collects the points separated from every point of M, the causal
completion is the double complement, and the determinacy set of M collects
the points all of whose timelike lines meet M.  For an achronal Borel set
the determinacy set equals the causal completion; both have closed forms
for balls in constant-time planes (the causal diamond) and for diamonds.

Regions are predicates, never voxelized.  Where no closed form exists,
membership is decided by certified searches: direction-sampled line
intersection for determinacy (Fibonacci sphere over slowness shells) and a
constructive witness family for completion membership, with every reported
counterexample re-verified against the exact predicates.

The region predicates, achronally_separated, complement_witness and
completion_member take point arrays of shape (..., 4) or (P, 4); a single
point is a batch of one.  The witness search runs one scale at a time over
all unresolved points and returns, per point, the first valid candidate in
the order scale, direction (away from each seed, then the six axes), offset,
time branch (past first), so a witness does not depend on the batch it was
searched in.  determinacy_member on graph patches still takes one point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .localization import BallMask, Region
from .minkowski import PoincareElement, minkowski_square
from .surfaces import AchronalSurface


class InconclusiveError(RuntimeError):
    """Search resolution too coarse to certify membership."""


class DeterminacyMismatchError(ValueError):
    """Patches expected to share a determinacy set do not."""


def achronally_separated(x, y):
    """x _|_ y: distinct and not timelike separated; broadcasts over [..., 4].

    A single pair gives a Python bool, arrays of points a bool array.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.any(x != y, axis=-1) & (minkowski_square(x - y) <= 0.0)
    return bool(out) if out.ndim == 0 else out


def separation_margin(x, y):
    """|dx| - |dt|, nonnegative on achronally separated pairs; broadcasts."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.linalg.norm(d[..., 1:], axis=-1) - np.abs(d[..., 0])


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


class SpacetimeRegion:
    def contains(self, x):
        raise NotImplementedError

    def complement_member(self, x):
        """Closed-form membership in the causal complement, if available."""
        raise NotImplementedError

    def complement_witness(self, x):
        """A point of the causal complement timelike-or-equal to x, or None.

        Existence of such a witness certifies x outside the causal
        completion; the constructive families below are complete away from
        the completion boundary.  For points x of shape (P, 4) the result
        is a (P, 4) array whose rows without a witness are NaN.
        """
        x = np.asarray(x, dtype=float)
        w = self._witnesses(x.reshape(-1, 4))
        if x.ndim > 1:
            return w
        return None if np.isnan(w[0, 0]) else w[0]

    def _witnesses(self, x):
        """complement_witness of the (P, 4) rows of x, NaN where none."""
        raise NotImplementedError

    def witness_frame(self):
        """(anchor four-vector, length scale, seed points) of the witness
        scan: the scan's first directions point away from the seeds."""
        raise NotImplementedError


@dataclass(frozen=True)
class BallInPlane(SpacetimeRegion):
    """Closed ball of radius r in the plane t = t0."""

    t0: float
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        on_plane = x[..., 0] == self.t0
        d = np.linalg.norm(x[..., 1:] - np.asarray(self.center), axis=-1)
        return on_plane & (d <= self.radius)

    def complement_member(self, x):
        """x _|_ every ball point: |x - c| > r and |x - c| - r >= |t - t0|."""
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(x[..., 1:] - np.asarray(self.center), axis=-1)
        dt = np.abs(x[..., 0] - self.t0)
        return (d > self.radius) & (d - self.radius >= dt)

    def determinacy_member(self, x):
        """Closed form: the causal diamond |t - t0| + |x - c| <= r."""
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(x[..., 1:] - np.asarray(self.center), axis=-1)
        return np.abs(x[..., 0] - self.t0) + d <= self.radius

    def _witnesses(self, x):
        """Radial witness construction; exists iff x is outside the diamond.

        Rows where the radial candidate fails its verification go to the
        scan.
        """
        c = np.asarray(self.center)
        u0 = x[:, 0] - self.t0
        u = x[:, 1:] - c
        ru = _row_norms(u)
        margin = np.abs(u0) + ru - self.radius
        radial = ru > 1e-300
        uhat = np.where(radial[:, None], u / np.where(radial, ru, 1.0)[:, None],
                        [1.0, 0.0, 0.0])
        s = np.maximum(self.radius - ru, 0.0) + np.abs(u0) + self.radius + 1.0
        z0 = u0 - np.where(u0 >= 0, 1.0, -1.0) * (s + 0.5 * margin)
        z = np.column_stack([self.t0 + z0, c + u + s[:, None] * uhat])
        outside = margin > 0
        ok = outside & self.complement_member(z) & ~achronally_separated(z, x)
        w = np.where(ok[:, None], z, np.nan)
        rest = outside & ~ok
        if rest.any():
            w[rest] = _scan_witness(self, x[rest])
        return w

    def witness_frame(self):
        anchor = np.array([self.t0, *self.center])
        return anchor, self.radius, [anchor]

    def transformed(self, g: PoincareElement) -> "BallInPlane":
        L = g.L
        if np.abs(L[0] - [1, 0, 0, 0]).max() > 1e-12 or np.abs(L[1:, 0]).max() > 1e-12:
            raise ValueError("ball-in-plane closed under rotations and translations only")
        c4 = g.act(np.array([self.t0, *self.center]))
        return BallInPlane(float(c4[0]), tuple(c4[1:]), self.radius)


@dataclass(frozen=True)
class Diamond(SpacetimeRegion):
    """Causal diamond J+(bottom) intersect J-(top), vertices timelike."""

    bottom: tuple
    top: tuple

    def __post_init__(self):
        b = np.asarray(self.bottom, dtype=float).reshape(4)
        t = np.asarray(self.top, dtype=float).reshape(4)
        d = t - b
        if not (d[0] > 0 and minkowski_square(d) > 0):
            raise ValueError("vertices must be timelike, future-ordered")
        object.__setattr__(self, "bottom", tuple(b))
        object.__setattr__(self, "top", tuple(t))

    @classmethod
    def from_ball(cls, t0: float, center, radius: float) -> "Diamond":
        c = np.asarray(center, dtype=float)
        return cls((t0 - radius, *c), (t0 + radius, *c))

    def _cone_coordinates(self, x):
        """Time after the bottom vertex, spatial distance to it, time before
        the top vertex and spatial distance to that, per point."""
        x = np.asarray(x, dtype=float)
        b, t = np.asarray(self.bottom), np.asarray(self.top)
        return (x[..., 0] - b[0], np.linalg.norm(x[..., 1:] - b[1:], axis=-1),
                t[0] - x[..., 0], np.linalg.norm(x[..., 1:] - t[1:], axis=-1))

    def contains(self, x):
        up, rb, dn, rt = self._cone_coordinates(x)
        return (up >= rb) & (dn >= rt)

    def complement_member(self, x):
        """Outside the open cones of both vertices and outside the diamond."""
        up, rb, dn, rt = self._cone_coordinates(x)
        return (up <= rb) & (dn <= rt) & ~((up >= rb) & (dn >= rt))

    def _witnesses(self, x):
        return _scan_witness(self, x)

    def witness_frame(self):
        b, t = np.asarray(self.bottom), np.asarray(self.top)
        anchor = 0.5 * (b + t)
        return anchor, 0.5 * (t[0] - b[0]), [anchor, t, b]

    def transformed(self, g: PoincareElement) -> "Diamond":
        return Diamond(tuple(g.act(np.asarray(self.bottom))),
                       tuple(g.act(np.asarray(self.top))))


@dataclass(frozen=True)
class GraphPatch(SpacetimeRegion):
    """Graph of a surface's tau restricted to a spatial ball mask."""

    surface: AchronalSurface
    mask: BallMask

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        sp = x[..., 1:]
        inside = self.mask.contains(sp)
        t = self.surface.tau(sp)
        return inside & (np.abs(x[..., 0] - t) <= 1e-12)

    def region(self) -> Region:
        return Region(self.surface, self.mask)


# the scan's geometric scales (multiples of a point's reach), its fixed axis
# directions, and the most candidates one array call tests (bounds memory)
_SCAN_SCALES = np.geomspace(0.25, 16.0, 14)
_SCAN_AXES = np.concatenate([np.eye(3), -np.eye(3)])
_CANDIDATE_BLOCK = 1 << 14


def _row_norms(w):
    """Euclidean norms of the vectors along the last axis, bit-equal to
    np.linalg.norm of each vector alone: a 1x3 by 3x1 matmul takes the same
    dot kernel, where a sum over an axis rounds differently."""
    return np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])


def _scan_witness(region: SpacetimeRegion, x):
    """Deterministic witness family for the (P, 4) points x: radial
    directions, geometric scales, both time branches; every candidate
    verified against the exact complement predicate and the timelike
    condition.  Returns (P, 4) witnesses, NaN rows where none is found.

    One scale at a time, every unresolved point tries its candidates in
    blocks of at most _CANDIDATE_BLOCK (see _scan_block); points that find
    a witness leave the search.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 4)
    anchor, scale, seeds = region.witness_frame()
    seeds = np.asarray(seeds)
    reach = scale + np.abs(x - anchor).max(axis=1)
    delta = np.array([1e-3 * scale, 0.1 * scale, 0.5 * scale])
    step = max(1, _CANDIDATE_BLOCK // (6 * (len(seeds) + 6)))
    found = np.full(x.shape, np.nan)
    todo = np.arange(len(x))
    for g in _SCAN_SCALES:
        if not todo.size:
            break
        left = []
        for i in range(0, todo.size, step):
            idx = todo[i:i + step]
            hit, z = _scan_block(region, x[idx], reach[idx] * g, seeds, delta)
            found[idx[hit]] = z
            left.append(idx[~hit])
        todo = np.concatenate(left)
    return found


def _scan_block(region, p, s, seeds, delta):
    """Each point p's first valid candidate at its scale s.

    A point's directions point away from each seed it does not sit on,
    then along the six axes; each direction is tried at the three offsets
    delta and on the past, then the future branch, in that order.  Returns
    the mask of points with a witness and their witnesses.
    """
    w = p[:, None, 1:] - seeds[None, :, 1:]
    norm = _row_norms(w)
    n = len(seeds)
    dirs = np.empty((len(p), n + 6, 3))
    dirs[:, n:] = _SCAN_AXES
    usable = np.ones(dirs.shape[:2], dtype=bool)
    usable[:, :n] = norm > 1e-12
    dirs[:, :n] = w / np.where(usable[:, :n], norm, 1.0)[..., None]
    z = np.empty(dirs.shape[:2] + (3, 2, 4))
    z[..., 0, 0] = ((p[:, 0] - s)[:, None] - delta)[:, None]
    z[..., 1, 0] = ((p[:, 0] + s)[:, None] + delta)[:, None]
    z[..., 1:] = (p[:, None, 1:] + s[:, None, None] * dirs)[:, :, None, None]
    z = z.reshape(len(p), -1, 4)
    ok = (np.repeat(usable, 6, axis=1) & region.complement_member(z)
          & ~achronally_separated(z, p[:, None]))
    first = ok.argmax(axis=1)
    hit = ok[np.arange(len(p)), first]
    return hit, z[hit, first[hit]]


# ---------------------------------------------------------------------------
# membership operations
# ---------------------------------------------------------------------------


def completion_member(M: SpacetimeRegion, x):
    """Is x in the causal completion (M-perp)-perp?

    Decided by witness search: a verified point of M-perp timelike-related
    to x proves x outside; no witness from the complete constructive family
    means inside.  x itself lying in M-perp also proves x outside (a point
    is never separated from itself).  A point of shape (4,) gives a Python
    bool, points of shape (P, 4) a (P,) bool array.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 4)
    member = ~M.complement_member(pts)
    if member.any():
        member[member] = np.isnan(M.complement_witness(pts[member])[:, 0])
    return bool(member[0]) if x.ndim == 1 else member


_GOLDEN = np.pi * (3.0 - np.sqrt(5.0))


def fibonacci_directions(n: int) -> np.ndarray:
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = _GOLDEN * k
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


# line sampling of determinacy_member: Fibonacci directions per slowness
# shell, escalated 8-fold (plus one shell) below the margin _ESCALATE_BELOW;
# margins below _GRANULARITY after escalation are inconclusive
_N_DIRECTIONS = 96
_SHELLS = (0.5, 0.9, 0.99)
_ESCALATE_BELOW = 1e-3
_GRANULARITY = 1e-9


def determinacy_member(delta, x):
    """Does every timelike line through x meet the patch delta?

    BallInPlane uses the exact diamond formula.  Graph patches over ball
    masks intersect each sampled line with the mask chord and test the
    monotone crossing of t - tau along it; direction sampling escalates
    near the boundary and raises InconclusiveError below _GRANULARITY.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(delta, BallInPlane):
        return bool(delta.determinacy_member(x))
    if not isinstance(delta, GraphPatch) or not isinstance(delta.mask, BallMask):
        raise ValueError("determinacy needs a BallInPlane or a ball-mask GraphPatch")
    ok, margin = _determinacy_sampled(delta, x, _N_DIRECTIONS, _SHELLS)
    if margin < _ESCALATE_BELOW:
        ok, margin = _determinacy_sampled(delta, x, 8 * _N_DIRECTIONS,
                                          _SHELLS + (0.999,))
        if margin < _GRANULARITY:
            raise InconclusiveError(
                f"determinacy margin {margin:.2e} below granularity")
    return ok


def _determinacy_sampled(delta: GraphPatch, x, n_dir, shells):
    """All-lines check; returns (verdict, worst margin over sampled lines)."""
    c = np.asarray(delta.mask.center, dtype=float)
    r = delta.mask.radius
    x0, xs = x[0], x[1:]
    # the vertical line e = 0 first
    if np.linalg.norm(xs - c) > r:
        return False, float(np.linalg.norm(xs - c) - r)
    worst = np.inf
    for speed in shells:
        dirs = speed * fibonacci_directions(n_dir)
        # spatial chord |xs + s e - c| <= r: quadratic in s
        b = dirs @ (xs - c)
        a = np.sum(dirs * dirs, axis=1)
        disc = b * b - a * (np.sum((xs - c) ** 2) - r * r)
        if np.any(disc < 0):
            i = int(np.argmin(disc))
            return False, float(np.sqrt(-min(disc[i], 0.0)))
        sq = np.sqrt(np.maximum(disc, 0.0))
        s_in = (-b - sq) / a
        s_out = (-b + sq) / a
        ends_in = x0 + s_in - delta.surface.tau(xs + s_in[:, None] * dirs)
        ends_out = x0 + s_out - delta.surface.tau(xs + s_out[:, None] * dirs)
        # t - tau increases along the line; a crossing needs a sign change
        hit = (ends_in <= 0) & (ends_out >= 0)
        margin = np.minimum(-ends_in, ends_out)
        if np.any(~hit):
            return False, float(-margin[~hit].max())
        worst = min(worst, float(margin.min()))
    return True, worst


@dataclass(frozen=True)
class LogicReport:
    samples: int
    agreement_ratio: float
    counterexamples: list
    shell_skipped: int
    meta: dict = field(default_factory=dict, compare=False)


def completion_equals_determinacy_check(delta: BallInPlane, n_samples: int = 10000,
                                        seed: int = 0,
                                        eps_shell: float = 1e-3) -> LogicReport:
    """Sampled agreement of the determinacy set with the double complement.

    Points are drawn from the box of half-width 1.5 radius around the ball.
    Points within eps_shell * radius of the diamond boundary are skipped
    (both predicates are discontinuous there); counterexamples outside the
    shell are re-verified before reporting.
    """
    rng = np.random.default_rng(seed)
    r = delta.radius
    c = np.asarray(delta.center)
    lo = np.array([delta.t0 - 1.5 * r, *(c - 1.5 * r)])
    hi = np.array([delta.t0 + 1.5 * r, *(c + 1.5 * r)])
    pts = rng.uniform(lo, hi, size=(n_samples, 4))
    d = np.abs(pts[:, 0] - delta.t0) + np.linalg.norm(pts[:, 1:] - c, axis=1)
    shell = np.abs(d - r) < eps_shell * r
    tested = pts[~shell]
    det = delta.determinacy_member(tested)
    comp = completion_member(delta, tested)
    differ = det != comp
    bad = []
    for p, dp, cp in zip(tested[differ], det[differ], comp[differ]):
        # re-verify before reporting: a witness must itself pass the exact
        # complement predicate and be timelike-related to the point
        w = delta.complement_witness(p)
        confirmed = (w is None) == cp or w is not None and (
            bool(delta.complement_member(w)) and not achronally_separated(w, p))
        bad.append({"point": p.tolist(), "determinacy": bool(dp), "completion": bool(cp),
                    "witness_confirmed": bool(confirmed)})
    n_eff = len(tested)
    agree = n_eff - len(bad)
    return LogicReport(n_eff, agree / n_eff if n_eff else 1.0, bad, int(shell.sum()),
                       {"radius": r, "eps_shell": eps_shell})


_N_CHECK = 400  # sampled points of rcl_well_defined_check's precondition


def rcl_well_defined_check(spec, delta1: GraphPatch, delta2: GraphPatch,
                           backend=None, seed: int = 0, **quad):
    """Probabilities of two patches sharing a determinacy set.

    The shared-determinacy precondition is verified on _N_CHECK sampled points
    (DeterminacyMismatchError on failure); the flux probabilities are then
    computed for both and returned for the caller's tolerance check.
    """
    rng = np.random.default_rng(seed)
    c = np.asarray(delta1.mask.center)
    r = delta1.mask.radius
    lo = np.array([-1.4 * r + float(delta1.surface.tau(c[None, :])[0]), *(c - 1.4 * r)])
    hi = lo + 2.8 * r
    pts = rng.uniform(lo, hi, size=(_N_CHECK, 4))
    mism = 0
    for p in pts:
        try:
            m1 = determinacy_member(delta1, p)
            m2 = determinacy_member(delta2, p)
        except InconclusiveError:
            continue
        if m1 != m2:
            mism += 1
    if mism > 0:
        raise DeterminacyMismatchError(
            f"{mism}/{_N_CHECK} sampled points distinguish the patches")
    from .localization import build_fast, probability
    backend = backend or build_fast(spec)
    p1 = probability(spec, delta1.region(), backend=backend, **quad)
    p2 = probability(spec, delta2.region(), backend=backend, **quad)
    return p1, p2
